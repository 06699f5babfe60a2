//! The statistics record collected by the reference simulator.
//!
//! The breadth of this record is deliberate: the paper notes that Dinero IV
//! "collects different types of information about a cache, such as the number
//! of compulsory misses, number of demand fetches, etc." and that
//! "maintaining the large information set increases the total simulation time
//! for Dinero IV". The baseline in our benchmarks pays the same costs.

use std::fmt;

use dew_trace::AccessKind;

/// Counters accumulated by a [`crate::Cache`] over a simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    accesses: [u64; 3],
    hits: [u64; 3],
    misses: [u64; 3],
    compulsory_misses: u64,
    evictions: u64,
    writebacks: u64,
    demand_fetches: u64,
    memory_writes: u64,
    tag_comparisons: u64,
    bypasses: u64,
}

impl CacheStats {
    /// Creates a zeroed statistics record.
    #[must_use]
    pub fn new() -> Self {
        CacheStats::default()
    }

    pub(crate) fn record_access(&mut self, kind: AccessKind, hit: bool) {
        self.accesses[kind as usize] += 1;
        if hit {
            self.hits[kind as usize] += 1;
        } else {
            self.misses[kind as usize] += 1;
        }
    }

    pub(crate) fn record_compulsory(&mut self) {
        self.compulsory_misses += 1;
    }

    pub(crate) fn record_eviction(&mut self, dirty: bool) {
        self.evictions += 1;
        if dirty {
            self.writebacks += 1;
        }
    }

    pub(crate) fn record_demand_fetch(&mut self) {
        self.demand_fetches += 1;
    }

    pub(crate) fn record_memory_write(&mut self) {
        self.memory_writes += 1;
    }

    pub(crate) fn record_comparisons(&mut self, n: u64) {
        self.tag_comparisons += n;
    }

    pub(crate) fn record_bypass(&mut self) {
        self.bypasses += 1;
    }

    /// Total number of accesses.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses.iter().sum()
    }

    /// Total number of hits.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Total number of misses.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.iter().sum()
    }

    /// Accesses of one kind.
    #[must_use]
    pub fn accesses_of(&self, kind: AccessKind) -> u64 {
        self.accesses[kind as usize]
    }

    /// Hits of one kind.
    #[must_use]
    pub fn hits_of(&self, kind: AccessKind) -> u64 {
        self.hits[kind as usize]
    }

    /// Misses of one kind.
    #[must_use]
    pub fn misses_of(&self, kind: AccessKind) -> u64 {
        self.misses[kind as usize]
    }

    /// Misses to blocks never seen before (infinite-cache misses).
    #[must_use]
    pub fn compulsory_misses(&self) -> u64 {
        self.compulsory_misses
    }

    /// Valid blocks replaced.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Dirty blocks written back to memory on eviction.
    #[must_use]
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Blocks fetched from memory on misses that allocate.
    #[must_use]
    pub fn demand_fetches(&self) -> u64 {
        self.demand_fetches
    }

    /// Words written to memory (write-through stores, no-allocate write
    /// misses, write-backs).
    #[must_use]
    pub fn memory_writes(&self) -> u64 {
        self.memory_writes
    }

    /// Total tag comparisons performed (sequential-search semantics).
    #[must_use]
    pub fn tag_comparisons(&self) -> u64 {
        self.tag_comparisons
    }

    /// Write misses that bypassed the cache (no-write-allocate).
    #[must_use]
    pub fn bypasses(&self) -> u64 {
        self.bypasses
    }

    /// Miss rate over all accesses, `0.0` for an empty run.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.misses() as f64 / total as f64
        }
    }

    /// Hit rate over all accesses, `0.0` for an empty run.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} hits, {} misses (miss rate {:.4}), {} compulsory, \
             {} fetches, {} evictions, {} writebacks, {} comparisons",
            self.accesses(),
            self.hits(),
            self.misses(),
            self.miss_rate(),
            self.compulsory_misses,
            self.demand_fetches,
            self.evictions,
            self.writebacks,
            self.tag_comparisons,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_are_sums_over_kinds() {
        let mut s = CacheStats::new();
        s.record_access(AccessKind::Read, true);
        s.record_access(AccessKind::Write, false);
        s.record_access(AccessKind::InstrFetch, true);
        assert_eq!(s.accesses(), 3);
        assert_eq!(s.hits(), 2);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.hits_of(AccessKind::Read), 1);
        assert_eq!(s.misses_of(AccessKind::Write), 1);
        assert_eq!(s.accesses_of(AccessKind::InstrFetch), 1);
    }

    #[test]
    fn rates_handle_empty_runs() {
        let s = CacheStats::new();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn hit_plus_miss_rate_is_one_when_nonempty() {
        let mut s = CacheStats::new();
        for i in 0..10 {
            s.record_access(AccessKind::Read, i % 3 == 0);
        }
        assert!((s.hit_rate() + s.miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!CacheStats::new().to_string().is_empty());
    }
}
