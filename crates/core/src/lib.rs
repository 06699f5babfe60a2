//! **DEW** — exact single-pass multi-configuration level-1 cache simulation
//! for the FIFO replacement policy.
//!
//! Reproduction of Haque, Peddersen, Janapsatya & Parameswaran, *"DEW: A Fast
//! Level 1 Cache Simulation Approach for Embedded Processors with FIFO
//! Replacement Policy"*, DATE 2010.
//!
//! One pass of a [`MultiAssocTree`] over a memory trace produces exact
//! hit/miss counts for **every power-of-two set count** in a range at one
//! associativity ([`Arena::for_pass`], the paper's pass) — and, for free, the
//! direct-mapped results — by organising the caches' sets into a binomial
//! forest and exploiting three properties of FIFO caches:
//!
//! * **MRA early termination** — a request matching a set's most recently
//!   accessed tag hits there and at every larger set count (Property 2);
//! * **wave pointers** — FIFO never moves a resident block, so the way it
//!   occupied in the child set last time is the only way it can occupy now;
//!   one comparison decides hit or miss (Property 3);
//! * **MRE entries** — the most recently evicted tag is certainly absent, so
//!   a match decides a miss without searching (Property 4).
//!
//! [`SweepRequest`] covers a whole `(S, A, B)` space ([`ConfigSpace`],
//! e.g. the paper's 525-configuration Table 1 space) with **one fused
//! trace traversal per block size, under every registered policy**. A
//! replacement policy is a pluggable fused-arena kernel — a lane layout
//! plus a lookup rule plus an update rule behind the
//! [`kernel::PolicyKernel`] trait:
//!
//! * **FIFO** — [`MultiAssocTree`]: every associativity's FIFO tag lists
//!   share one walk, so the paper's 28 per-pair passes become 7
//!   traversals, and each list's instrumented counters are the paper's
//!   per-pass counts;
//! * **LRU** — [`lru_tree::LruTreeSimulator`]: the stack property makes a
//!   single move-to-front lane exact for every associativity at once (the
//!   Janapsatya / CRCB comparator family the paper positions DEW against);
//! * **tree-PLRU** — [`plru_tree::PlruTreeSimulator`]: per-lane direction
//!   bits; re-touching the MRA block's way is a no-op, so the walk stops at
//!   an MRA hit exactly as FIFO's does;
//! * **SLRU** — [`slru_tree::SlruTreeSimulator`]: a segmented
//!   protected/probationary recency lane that resists scan pollution; the
//!   walk stops at an MRA hit once the node is settled (a first re-hit may
//!   still promote the block).
//!
//! A [`SweepOutcome`] records the exact miss table, the per-pass work
//! counters, the policy it was swept under and the honest
//! [`SweepOutcome::trace_traversals`] count; the `dew-explore` crate
//! builds design-space exploration (energy scoring, Pareto frontiers) on
//! top of it. The repository's `docs/GUIDE.md` walks the full pipeline.
//!
//! Execution plans are orthogonal builder axes on [`SweepRequest`], and one
//! sweep driver runs them all: long traces need not be resident
//! ([`SweepRequest::run_streamed`] decodes a re-openable source in bounded
//! chunks), or sampled from periodic clusters with a per-cluster
//! cold-start bound ([`ShardBounds`]). Parallelism is across block sizes:
//! each block size is one job, one kernel and one traversal.
//!
//! Long runs also need not be fragile: [`SweepRequest::resilient`] runs
//! the same kernels with checkpoint/resume (a [`SweepCheckpoint`] persists
//! every job's kernel snapshot and decode position, and resuming is
//! bit-identical), retry with bounded exponential backoff for transient
//! source failures ([`RetryPolicy`]), per-job panic isolation, and
//! graceful degradation — a partial [`SweepOutcome`] with honest
//! [`SweepOutcome::failed_jobs`] / [`SweepOutcome::retries`] /
//! [`SweepOutcome::records_lost`] accounting instead of an all-or-nothing
//! abort. See [`Resilience`]. A sweep can also be stopped cooperatively —
//! an explicit request, a SIGINT, or a wall-clock deadline — through a
//! [`CancelToken`]: cancelled jobs flush a final checkpoint before
//! stopping, so interrupted work stays resumable
//! ([`Resilience::with_cancel`]).
//!
//! # Quickstart
//!
//! ```
//! use dew_core::{DewOptions, MultiAssocTree, PassConfig};
//! use dew_trace::Record;
//!
//! # fn main() -> Result<(), dew_core::DewError> {
//! // Simulate set counts 1..=256 at associativity 4 (plus direct-mapped),
//! // 16-byte blocks, over a toy trace. `instrument = false` builds the
//! // fastest kernel; `true` additionally maintains the work counters
//! // printed below.
//! let pass = PassConfig::new(4, 0, 8, 4)?;
//! let mut tree = MultiAssocTree::for_pass(pass, DewOptions::default(), true)?;
//! for i in 0..10_000u64 {
//!     tree.step_record(Record::read((i * 24) % 65_536));
//! }
//! let results = tree.pass_results(4).expect("the pass associativity");
//! for level in results.levels() {
//!     println!("{:>5} sets: {:>6} misses", level.sets(), level.misses());
//! }
//! println!("work: {}", tree.pass_counters(4).expect("simulated"));
//! # Ok(())
//! # }
//! ```

// The crate is unsafe-free except for the `simd` feature's `core::arch`
// intrinsics, which live in `simd.rs` and the kernels' `#[target_feature]`
// batch drivers behind scoped `#[allow(unsafe_code)]` with SAFETY comments.
#![cfg_attr(not(feature = "simd"), forbid(unsafe_code))]
#![cfg_attr(feature = "simd", deny(unsafe_code))]
#![warn(missing_docs)]

mod arena;
mod cancel;
mod checkpoint;
mod counters;
pub mod kernel;
pub mod lru_tree;
mod multi_assoc;
mod node;
mod options;
pub mod plru_tree;
mod request;
mod resilience;
mod results;
mod simd;
pub mod slru_tree;
pub mod snapshot;
mod space;
mod sweep;
mod timeline;
#[cfg(test)]
#[path = "single_pass_tests.rs"]
mod tree;

pub use arena::Arena;
pub use cancel::{CancelReason, CancelToken};
pub use checkpoint::{
    sweep_fingerprint, CheckpointStore, FileCheckpointStore, JobCheckpoint, MemoryCheckpointStore,
    SweepCheckpoint, CKPT_MAGIC, CKPT_VERSION,
};
pub use counters::DewCounters;
pub use kernel::{FusedKernel, PolicyKernel};
pub use multi_assoc::MultiAssocTree;
pub use options::{DewOptions, TreePolicy};
pub use request::SweepRequest;
pub use resilience::{CheckpointSpec, NoSleep, Resilience, RetryPolicy, Sleeper, ThreadSleeper};
pub use results::{
    AllAssocResults, ConfigResult, FailureKind, JobFailure, LevelResult, PassResults, ShardBounds,
    SweepOutcome,
};
pub use simd::KernelBackend;
pub use space::{ConfigSpace, DewError, PassConfig};
pub use timeline::{MissTimeline, WindowSample};
