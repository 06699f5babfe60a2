//! The correctness gate: a fixed sample of configurations per policy and
//! workload is re-simulated by the `dew-cachesim` reference simulator, and
//! every `(configuration, misses)` pair of a run is folded into a digest so
//! two commits can be compared bit for bit.

use dew_cachesim::{Cache, CacheConfig, Replacement};
use dew_core::{ConfigSpace, SweepOutcome, TreePolicy};
use dew_trace::Record;

use crate::stats::Digest;

/// Spot-check candidates as `(sets, assoc, block bytes)`, spread over the
/// corners and the middle of the default spaces; each workload checks the
/// ones its space contains.
const SAMPLE: [(u32, u32, u32); 9] = [
    (1, 16, 4),
    (64, 4, 16),
    (256, 2, 32),
    (16_384, 1, 64),
    (1_024, 8, 1),
    (4_096, 16, 8),
    (16, 1, 32),
    (64, 2, 64),
    (256, 4, 128),
];

/// The reference simulator's name for a fused-kernel policy.
pub fn replacement(policy: TreePolicy) -> Replacement {
    match policy {
        TreePolicy::Fifo => Replacement::Fifo,
        TreePolicy::Lru => Replacement::Lru,
        TreePolicy::Plru => Replacement::Plru,
        TreePolicy::Slru => Replacement::Slru,
    }
}

/// Tallies of the spot checks made so far.
#[derive(Debug, Default, Clone, Copy)]
pub struct Gate {
    pub configs: u64,
    pub mismatches: u64,
}

impl Gate {
    /// Re-simulates the sampled configurations of `space` over `records`
    /// and compares them with `outcome`. Mismatches are reported on stderr.
    pub fn check(&mut self, space: &ConfigSpace, outcome: &SweepOutcome, records: &[Record]) {
        let policy = outcome.policy();
        for &(sets, assoc, block) in SAMPLE.iter() {
            if !space.contains(sets, assoc, block) {
                continue;
            }
            let config = CacheConfig::new(sets, assoc, block, replacement(policy))
                .expect("sampled geometry is valid");
            let mut cache = Cache::new(config);
            for r in records {
                cache.access(*r);
            }
            let expected = cache.stats().misses();
            let got = outcome.misses(sets, assoc, block);
            self.configs += 1;
            if got != Some(expected) {
                self.mismatches += 1;
                eprintln!(
                    "oracle mismatch: {policy} sets={sets} assoc={assoc} block={block}: \
                     dew {got:?} != reference {expected}"
                );
            }
        }
    }
}

/// Folds every `(policy, sets, assoc, block, misses)` of `outcome` into `d`.
pub fn digest_outcome(d: &mut Digest, outcome: &SweepOutcome) {
    d.push(policy_code(outcome.policy()));
    for c in outcome.sorted() {
        d.push(u64::from(c.sets));
        d.push(u64::from(c.assoc));
        d.push(u64::from(c.block_bytes));
        d.push(c.misses);
    }
}

pub fn policy_code(policy: TreePolicy) -> u64 {
    match policy {
        TreePolicy::Fifo => 0,
        TreePolicy::Lru => 1,
        TreePolicy::Plru => 2,
        TreePolicy::Slru => 3,
    }
}
