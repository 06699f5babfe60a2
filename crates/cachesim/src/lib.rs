//! Exact single-configuration set-associative cache simulator.
//!
//! This crate is the workspace's **Dinero IV equivalent**: a trace-driven
//! uniprocessor cache simulator that simulates one cache configuration per
//! pass, collects a rich statistics set (hits/misses per access kind,
//! compulsory misses, demand fetches, evictions, write-backs) and counts tag
//! comparisons with sequential-search semantics. It serves two roles in the
//! DEW reproduction, exactly as Dinero IV does in the paper:
//!
//! 1. **Correctness oracle** — DEW's multi-configuration results are verified
//!    by exact comparison against per-configuration runs of this simulator.
//! 2. **Speed baseline** — Table 3 and Figures 5/6 compare DEW's single-pass
//!    simulation time and tag-comparison counts against one pass of this
//!    simulator per configuration.
//!
//! Supported features: power-of-two set counts, associativities and block
//! sizes; FIFO, LRU, tree-PLRU, SLRU and seeded-random replacement;
//! write-back and write-through with and without write-allocate; optional 3C
//! miss classification ([`classify::ThreeCClassifier`]). The crate models
//! one L1 cache, the scope of the paper's exactness claim.
//!
//! # Examples
//!
//! ```
//! use dew_cachesim::{Cache, CacheConfig, Replacement};
//! use dew_trace::Record;
//!
//! # fn main() -> Result<(), dew_cachesim::ConfigError> {
//! let config = CacheConfig::builder()
//!     .sets(64)
//!     .assoc(4)
//!     .block_bytes(16)
//!     .replacement(Replacement::Fifo)
//!     .build()?;
//! let mut cache = Cache::new(config);
//! for i in 0..1024u64 {
//!     cache.access(Record::read(i * 4));
//! }
//! let stats = cache.stats();
//! assert_eq!(stats.accesses(), 1024);
//! assert!(stats.misses() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
pub mod classify;
mod config;
mod lru_list;
mod policy;
mod set;
mod stats;

pub use cache::{AccessOutcome, Cache, EvictedBlock};
pub use config::{CacheConfig, CacheConfigBuilder, ConfigError};
pub use policy::{AllocatePolicy, Replacement, WritePolicy};
pub use stats::CacheStats;

use dew_trace::Record;

/// Runs a whole trace through a freshly constructed cache and returns the
/// final statistics. One call of this function corresponds to one Dinero IV
/// invocation in the paper's methodology.
///
/// # Examples
///
/// ```
/// use dew_cachesim::{simulate_trace, CacheConfig};
/// use dew_trace::Record;
///
/// # fn main() -> Result<(), dew_cachesim::ConfigError> {
/// let config = CacheConfig::builder().sets(4).assoc(2).block_bytes(4).build()?;
/// let trace: Vec<Record> = (0..64u64).map(|i| Record::read(i * 4)).collect();
/// let stats = simulate_trace(config, &trace);
/// assert_eq!(stats.accesses(), 64);
/// # Ok(())
/// # }
/// ```
pub fn simulate_trace(config: CacheConfig, records: &[Record]) -> CacheStats {
    let mut cache = Cache::new(config);
    for r in records {
        cache.access(*r);
    }
    cache.into_stats()
}
