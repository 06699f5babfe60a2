//! The single-configuration cache simulator.

use std::collections::HashSet;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use dew_trace::Record;

use crate::config::CacheConfig;
use crate::policy::{AllocatePolicy, Replacement, WritePolicy};
use crate::set::CacheSet;
use crate::stats::CacheStats;

/// A block that was displaced by an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedBlock {
    /// The block address (byte address shifted by the block bits).
    pub block: u64,
    /// Whether the block was dirty (costs a write-back under write-back).
    pub dirty: bool,
}

/// What one [`Cache::access`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the request hit.
    pub hit: bool,
    /// Whether this was the first access ever to the block (compulsory miss
    /// when `hit` is false).
    pub first_touch: bool,
    /// The block displaced by an allocating miss, if any.
    pub evicted: Option<EvictedBlock>,
    /// Tag comparisons this access performed.
    pub comparisons: u64,
}

/// An exact simulator for a single cache configuration.
///
/// This is the workspace's Dinero IV stand-in: one instance simulates one
/// `(S, A, B, policy)` combination over a trace and accumulates
/// [`CacheStats`]. See the crate docs for its role in the reproduction.
///
/// # Examples
///
/// ```
/// use dew_cachesim::{Cache, CacheConfig, Replacement};
/// use dew_trace::Record;
///
/// # fn main() -> Result<(), dew_cachesim::ConfigError> {
/// let mut cache = Cache::new(CacheConfig::new(2, 2, 4, Replacement::Fifo)?);
/// assert!(!cache.access(Record::read(0x0)).hit); // compulsory miss
/// assert!(cache.access(Record::read(0x0)).hit); // now resident
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<CacheSet>,
    stats: CacheStats,
    now: u64,
    rng: Option<SmallRng>,
    /// Blocks ever touched; powers compulsory-miss accounting, part of the
    /// "large information set" the baseline maintains (see paper Section 5).
    touched: HashSet<u64>,
}

impl Cache {
    /// Creates an empty (all-invalid) cache for `config`.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let rng = match config.replacement() {
            Replacement::Random(seed) => Some(SmallRng::seed_from_u64(seed)),
            _ => None,
        };
        Cache {
            config,
            sets: (0..config.sets())
                .map(|_| CacheSet::new(config.assoc(), config.replacement()))
                .collect(),
            stats: CacheStats::new(),
            now: 0,
            rng,
            touched: HashSet::new(),
        }
    }

    /// The simulated configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Consumes the cache, returning the statistics.
    #[must_use]
    pub fn into_stats(self) -> CacheStats {
        self.stats
    }

    /// Total number of valid blocks currently resident.
    #[must_use]
    pub fn resident_blocks(&self) -> usize {
        self.sets.iter().map(CacheSet::valid_count).sum()
    }

    /// Simulates one memory request and returns what happened.
    pub fn access(&mut self, record: Record) -> AccessOutcome {
        self.now += 1;
        let block = record.block(self.config.block_bits()).get();
        let set_bits = self.config.set_bits();
        let set_idx = (block & (u64::from(self.config.sets()) - 1)) as usize;
        let tag = block >> set_bits;
        let first_touch = self.touched.insert(block);
        let is_store = record.kind.is_store();

        let set = &mut self.sets[set_idx];
        let (found, comparisons) = set.lookup(tag);
        self.stats.record_comparisons(comparisons);

        let mut evicted = None;
        let hit = match found {
            Some(way) => {
                set.touch(way, self.now);
                if is_store {
                    match self.config.write_policy() {
                        WritePolicy::WriteBack => set.mark_dirty(way),
                        WritePolicy::WriteThrough => self.stats.record_memory_write(),
                    }
                }
                true
            }
            None => {
                if first_touch {
                    self.stats.record_compulsory();
                }
                let allocate =
                    !is_store || self.config.allocate_policy() == AllocatePolicy::WriteAllocate;
                if allocate {
                    self.stats.record_demand_fetch();
                    let dirty = is_store && self.config.write_policy() == WritePolicy::WriteBack;
                    if is_store && self.config.write_policy() == WritePolicy::WriteThrough {
                        self.stats.record_memory_write();
                    }
                    let victim = set.insert(tag, dirty, self.now, self.rng.as_mut());
                    if let Some(v) = victim {
                        self.stats.record_eviction(v.dirty);
                        if v.dirty {
                            self.stats.record_memory_write();
                        }
                        evicted = Some(EvictedBlock {
                            block: (v.tag << set_bits) | set_idx as u64,
                            dirty: v.dirty,
                        });
                    }
                } else {
                    // No-write-allocate: the store goes straight to memory.
                    self.stats.record_bypass();
                    self.stats.record_memory_write();
                }
                false
            }
        };
        self.stats.record_access(record.kind, hit);
        AccessOutcome {
            hit,
            first_touch,
            evicted,
            comparisons,
        }
    }

    /// `true` when `addr`'s block is currently resident (no state change, no
    /// statistics).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let block = addr >> self.config.block_bits();
        let set_idx = (block & (u64::from(self.config.sets()) - 1)) as usize;
        let tag = block >> self.config.set_bits();
        self.sets[set_idx].lookup(tag).0.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AllocatePolicy, WritePolicy};

    fn fifo(sets: u32, assoc: u32, block: u32) -> Cache {
        Cache::new(CacheConfig::new(sets, assoc, block, Replacement::Fifo).expect("valid"))
    }

    #[test]
    fn first_access_is_compulsory_miss() {
        let mut c = fifo(4, 2, 4);
        let out = c.access(Record::read(0x40));
        assert!(!out.hit);
        assert!(out.first_touch);
        assert_eq!(c.stats().compulsory_misses(), 1);
        assert_eq!(c.stats().demand_fetches(), 1);
    }

    #[test]
    fn rereference_hits() {
        let mut c = fifo(4, 2, 4);
        c.access(Record::read(0x40));
        let out = c.access(Record::read(0x43)); // same 4-byte block
        assert!(out.hit);
        assert!(!out.first_touch);
        assert_eq!(c.stats().hits(), 1);
    }

    #[test]
    fn fifo_eviction_across_sets_is_independent() {
        // Direct-mapped, 2 sets, 4-byte blocks: blocks 0 and 2 -> set 0,
        // blocks 1 and 3 -> set 1.
        let mut c = fifo(2, 1, 4);
        c.access(Record::read(0x0)); // block 0 -> set 0
        c.access(Record::read(0x4)); // block 1 -> set 1
        let out = c.access(Record::read(0x8)); // block 2 -> set 0, evicts block 0
        assert_eq!(
            out.evicted,
            Some(EvictedBlock {
                block: 0,
                dirty: false
            })
        );
        assert!(c.probe(0x4), "set 1 untouched");
        assert!(!c.probe(0x0));
        assert!(c.probe(0x8));
    }

    #[test]
    fn fifo_hits_do_not_refresh_age() {
        // 1 set, 2 ways. Insert A, B; hit A; insert C: FIFO must evict A.
        let mut c = fifo(1, 2, 4);
        c.access(Record::read(0x0)); // A
        c.access(Record::read(0x4)); // B
        assert!(c.access(Record::read(0x0)).hit); // hit A
        let out = c.access(Record::read(0x8)); // C evicts A despite the hit
        assert_eq!(out.evicted.map(|e| e.block), Some(0));
    }

    #[test]
    fn lru_hits_do_refresh_age() {
        let config = CacheConfig::new(1, 2, 4, Replacement::Lru).expect("valid");
        let mut c = Cache::new(config);
        c.access(Record::read(0x0)); // A
        c.access(Record::read(0x4)); // B
        assert!(c.access(Record::read(0x0)).hit); // A most recent
        let out = c.access(Record::read(0x8)); // evicts B
        assert_eq!(out.evicted.map(|e| e.block), Some(1));
    }

    #[test]
    fn writeback_counts_on_dirty_eviction() {
        let mut c = fifo(1, 1, 4);
        c.access(Record::write(0x0)); // allocate dirty
        assert_eq!(c.stats().memory_writes(), 0, "write-back defers the write");
        let out = c.access(Record::read(0x4)); // evicts dirty block
        assert!(out.evicted.expect("evicts").dirty);
        assert_eq!(c.stats().writebacks(), 1);
        assert_eq!(c.stats().memory_writes(), 1);
    }

    #[test]
    fn write_through_writes_memory_each_store() {
        let config = CacheConfig::builder()
            .sets(1)
            .assoc(1)
            .block_bytes(4)
            .write_policy(WritePolicy::WriteThrough)
            .build()
            .expect("valid");
        let mut c = Cache::new(config);
        c.access(Record::write(0x0)); // miss + allocate + through-write
        c.access(Record::write(0x0)); // hit + through-write
        assert_eq!(c.stats().memory_writes(), 2);
        assert_eq!(c.stats().writebacks(), 0);
    }

    #[test]
    fn no_write_allocate_bypasses_on_store_miss() {
        let config = CacheConfig::builder()
            .sets(1)
            .assoc(1)
            .block_bytes(4)
            .allocate_policy(AllocatePolicy::NoWriteAllocate)
            .build()
            .expect("valid");
        let mut c = Cache::new(config);
        c.access(Record::write(0x0));
        assert_eq!(c.resident_blocks(), 0, "store miss did not allocate");
        assert_eq!(c.stats().bypasses(), 1);
        assert_eq!(c.stats().memory_writes(), 1);
        // A read of the same block still misses (and is NOT compulsory:
        // the block was touched by the bypassed store).
        let out = c.access(Record::read(0x0));
        assert!(!out.hit);
        assert!(!out.first_touch);
        assert_eq!(c.stats().compulsory_misses(), 1);
    }

    #[test]
    fn comparisons_accumulate_with_dinero_semantics() {
        let mut c = fifo(1, 4, 4);
        c.access(Record::read(0x0)); // 0 valid ways -> 0 comparisons
        c.access(Record::read(0x4)); // 1 valid way -> 1 comparison
        c.access(Record::read(0x0)); // hit way 0 -> 1 comparison
        c.access(Record::read(0x4)); // hit way 1 -> 2 comparisons
        #[allow(clippy::identity_op)] // one term per access above
        {
            assert_eq!(c.stats().tag_comparisons(), 0 + 1 + 1 + 2);
        }
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut c = fifo(2, 2, 8);
        c.access(Record::read(0x10));
        let before = c.stats().clone();
        assert!(c.probe(0x10));
        assert!(!c.probe(0xdead_0000));
        assert_eq!(c.stats(), &before);
    }

    #[test]
    fn evicted_block_address_reconstruction() {
        // 4 sets, direct-mapped, 16-byte blocks: block addr = byte >> 4.
        let mut c = fifo(4, 1, 16);
        c.access(Record::read(0x123 << 4)); // block 0x123 -> set 3
        let out = c.access(Record::read(((0x123 + 4) << 4) as u64)); // same set
        assert_eq!(out.evicted.map(|e| e.block), Some(0x123));
    }

    #[test]
    fn stats_invariant_hits_plus_misses() {
        let mut c = fifo(8, 2, 4);
        for i in 0..200u64 {
            c.access(Record::read((i * 12) % 512));
        }
        let s = c.stats();
        assert_eq!(s.hits() + s.misses(), s.accesses());
        assert_eq!(s.accesses(), 200);
    }
}
