//! Work counters: the quantities behind the paper's Table 3 (tag
//! comparisons) and Table 4 (property effectiveness).
//!
//! Counter semantics (also documented in `DESIGN.md`):
//!
//! * every node evaluation performs one MRA comparison;
//! * a wave-pointer check is one additional comparison and settles the node
//!   (hit or miss) without a search;
//! * an MRE check is one additional comparison; only a *match* settles the
//!   node (as a miss);
//! * a search compares the requested tag against each valid way in physical
//!   order, stopping at the match.
//!
//! Every node evaluation therefore lands in exactly one bucket:
//! `mra_stops + wave_hits + wave_misses + mre_misses + searches ==
//! node_evaluations`, an identity the test-suite enforces. A fused
//! multi-associativity pass ([`crate::MultiAssocTree`]) walks each list's
//! ladder exactly as a standalone pass at that associativity
//! ([`crate::Arena::for_pass`]) would, so its per-pass views are the
//! paper's per-pass counts.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Work counters accumulated by a DEW tree over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DewCounters {
    /// Requests simulated.
    pub accesses: u64,
    /// Tree nodes visited (the node that fires the MRA stop included).
    pub node_evaluations: u64,
    /// Evaluations settled by the MRA early termination (Property 2).
    pub mra_stops: u64,
    /// Evaluations settled as hits by a wave pointer (Property 3).
    pub wave_hits: u64,
    /// Evaluations settled as misses by a wave pointer (Property 3).
    pub wave_misses: u64,
    /// Evaluations settled as misses by the MRE entry (Property 4).
    pub mre_misses: u64,
    /// Evaluations that fell through to a tag-list search.
    pub searches: u64,
    /// Requests skipped whole by the CRCB-style duplicate elision extension
    /// (zero unless [`crate::DewOptions::dup_elision`] is enabled).
    pub duplicate_skips: u64,
    /// Tag comparisons performed inside searches.
    pub search_comparisons: u64,
    /// Total tag comparisons: MRA + wave + MRE checks + search comparisons.
    pub tag_comparisons: u64,
}

impl DewCounters {
    /// Creates zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        DewCounters::default()
    }

    /// Evaluations settled by a wave pointer (hit or miss).
    #[must_use]
    pub fn wave_total(&self) -> u64 {
        self.wave_hits + self.wave_misses
    }

    /// The worst-case evaluation count for a run of `self.accesses` requests
    /// over `num_levels` forest levels — Table 4's "Unoptimized evaluations"
    /// column (every request visits every level).
    #[must_use]
    pub fn unoptimized_evaluations(&self, num_levels: u32) -> u64 {
        self.accesses * u64::from(num_levels)
    }

    /// The accounting identity described in the module docs. The test-suite
    /// asserts this after every simulation.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.mra_stops + self.wave_hits + self.wave_misses + self.mre_misses + self.searches
            == self.node_evaluations
    }
}

impl Add for DewCounters {
    type Output = DewCounters;

    fn add(mut self, rhs: DewCounters) -> DewCounters {
        self += rhs;
        self
    }
}

impl AddAssign for DewCounters {
    fn add_assign(&mut self, rhs: DewCounters) {
        self.accesses += rhs.accesses;
        self.node_evaluations += rhs.node_evaluations;
        self.mra_stops += rhs.mra_stops;
        self.wave_hits += rhs.wave_hits;
        self.wave_misses += rhs.wave_misses;
        self.mre_misses += rhs.mre_misses;
        self.searches += rhs.searches;
        self.duplicate_skips += rhs.duplicate_skips;
        self.search_comparisons += rhs.search_comparisons;
        self.tag_comparisons += rhs.tag_comparisons;
    }
}

impl fmt::Display for DewCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} evaluations ({} MRA stops, {} wave, {} MRE, {} searches), \
             {} comparisons",
            self.accesses,
            self.node_evaluations,
            self.mra_stops,
            self.wave_total(),
            self.mre_misses,
            self.searches,
            self.tag_comparisons,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_detects_inconsistency() {
        let mut c = DewCounters::new();
        assert!(c.is_consistent());
        c.node_evaluations = 10;
        c.mra_stops = 4;
        c.searches = 6;
        assert!(c.is_consistent());
        c.wave_hits = 1;
        assert!(!c.is_consistent());
        c.node_evaluations += 1;
        assert!(c.is_consistent());
    }

    #[test]
    fn addition_is_fieldwise() {
        let a = DewCounters {
            accesses: 1,
            node_evaluations: 2,
            tag_comparisons: 3,
            ..Default::default()
        };
        let b = DewCounters {
            accesses: 10,
            node_evaluations: 20,
            searches: 5,
            ..Default::default()
        };
        let c = a + b;
        assert_eq!(c.accesses, 11);
        assert_eq!(c.node_evaluations, 22);
        assert_eq!(c.tag_comparisons, 3);
        assert_eq!(c.searches, 5);
    }

    #[test]
    fn unoptimized_is_accesses_times_levels() {
        let c = DewCounters {
            accesses: 100,
            ..Default::default()
        };
        assert_eq!(c.unoptimized_evaluations(15), 1500);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!DewCounters::new().to_string().is_empty());
    }
}
