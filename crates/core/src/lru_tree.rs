//! Single-pass multi-configuration **LRU** simulation over the same binomial
//! forest — the comparator family DEW is positioned against — on the fused
//! arena skeleton every policy kernel shares (see [`crate::MultiAssocTree`]).
//!
//! The paper's related work (Section 2) builds on two classic LRU facts that
//! FIFO lacks:
//!
//! 1. **Stack property** (Mattson/Gecsei): keeping each set as a
//!    recency-ordered list, a request that hits at depth `d` hits every
//!    associativity `a > d` — one list yields exact results for *all*
//!    associativities simultaneously.
//! 2. **Set-refinement inclusion** (Hill & Smith; the basis of Janapsatya's
//!    method): a hit in the cache with `S` sets is guaranteed to be a hit
//!    with `2S` sets, because the competitors of a block in the finer cache
//!    are a subset of its competitors in the coarser one. Consequently a
//!    block's hit depth is non-increasing down the tree, and once it hits at
//!    depth 0 (it is the set's MRU block) it is at depth 0 everywhere below:
//!    the walk stops there with *no* state updates — the LRU analogue of
//!    DEW's Property 2.
//!
//! [`LruTreeSimulator`] implements this family in the spirit of Janapsatya's
//! method with the CRCB-style consecutive-duplicate elision of Tojo et al.
//! (toggled by [`crate::DewOptions::dup_elision`]): MRU-first searches
//! exploit temporal locality, and per-node move-to-front lists produce exact
//! miss counts for every power-of-two associativity up to the list depth, at
//! every set count, in one pass.
//!
//! # Storage
//!
//! The arena's dense **MRA lane** holds every node's depth-0 (MRU) tag —
//! simultaneously the direct-mapped cache contents and the operand of the
//! stack-property early exit — and its tag lane holds one **recency list**
//! per node, `width` (the widest requested associativity) entries in
//! MRU-first order. Cold ways hold a sentinel at the tail of the list, so a
//! miss update is one `rotate_right(1)` of the whole region followed by a
//! front store — no valid-count bookkeeping.
//!
//! # The update rule
//!
//! Per node, the arena's lane lookup over the whole recency region yields
//! the hit depth (one branchless position mask when the region fits 64
//! tags, the width a compile-time constant for the const lane shapes; a
//! 64-tag windowed scan beyond), the per-associativity miss tallies fall
//! out of the depth without branches, and the move-to-front update is one
//! prefix rotation. The instrumented mode reads its work from the same
//! lookup: a hit at depth `d` costs `d` comparisons after the MRA
//! comparison (the classic MRU-first stop-at-match search), a miss costs
//! `valid − 1`, with `valid` the lookup of the sentinel; it also keeps a
//! per-depth hit histogram (`depth_hits` on [`LruTreeSimulator`]). Miss
//! counts are bit-identical in both modes — a property-tested invariant.
//!
//! [`crate::SweepRequest`] drives this type for LRU spaces: all passes of one
//! block size fuse into a single streamed traversal, fanned back out through
//! its `pass_results` / `pass_counters` views.
//!
//! # Examples
//!
//! ```
//! use dew_core::lru_tree::LruTreeSimulator;
//! use dew_core::{DewOptions, TreePolicy};
//! use dew_trace::Record;
//!
//! # fn main() -> Result<(), dew_core::DewError> {
//! // Set counts 1..=8, associativities 1, 2 and 4, 4-byte blocks.
//! let options = DewOptions::for_policy(TreePolicy::Lru);
//! let mut sim = LruTreeSimulator::new(2, (0, 3), (0, 2), options, false)?;
//! for i in 0..100u64 {
//!     sim.step_record(Record::read((i % 10) * 4));
//! }
//! let misses_dm = sim.results().misses(8, 1).expect("simulated");
//! let misses_4w = sim.results().misses(8, 4).expect("simulated");
//! assert!(misses_4w <= misses_dm, "the LRU stack property");
//! # Ok(())
//! # }
//! ```

use crate::arena::{Arena, Forest, Lanes, Policy, Site, Tag};
use crate::counters::DewCounters;
use crate::options::{DewOptions, TreePolicy};
use crate::simd::TagScan;
use crate::snapshot::{put_u32, put_u64, ArenaDims, Cursor, SnapshotError};

/// Exact single-pass LRU simulator for all set counts in a range and all
/// power-of-two associativities in a range. See the module docs.
///
/// # Examples
///
/// The stack property makes one move-to-front lane exact for every
/// associativity at once:
///
/// ```
/// use dew_core::lru_tree::LruTreeSimulator;
/// use dew_core::{DewOptions, TreePolicy};
///
/// # fn main() -> Result<(), dew_core::DewError> {
/// // Sets 1..=16, associativities 1, 2 and 4, 8-byte blocks, consecutive
/// // duplicates elided.
/// let options = DewOptions {
///     dup_elision: true,
///     ..DewOptions::for_policy(TreePolicy::Lru)
/// };
/// let mut sim = LruTreeSimulator::new(3, (0, 4), (0, 2), options, false)?;
/// for i in 0..5_000u64 {
///     sim.step((i * 40) % 4096);
/// }
/// let results = sim.results();
/// assert_eq!(sim.assoc_list(), &[1, 2, 4]);
/// // LRU inclusion: more ways never miss more at the same set count.
/// let (m1, m2) = (results.misses(16, 1).unwrap(), results.misses(16, 2).unwrap());
/// assert!(m2 <= m1);
/// # Ok(())
/// # }
/// ```
pub type LruTreeSimulator = Arena<Lru>;

/// The LRU lanes: the recency lists live in the arena's tag lane; the
/// policy keeps the instrumented depth histogram.
#[derive(Debug, Clone)]
pub struct Lru {
    /// Hits per recency depth (`0..width`); instrumented only.
    depth_hits: Vec<u64>,
}

impl LruTreeSimulator {
    /// Hits per recency depth (`depth_hits()[d]` counts hits whose stack
    /// distance was exactly `d`), maintained by the instrumented kernel;
    /// empty for fast simulators. Depth-0 hits elided as consecutive
    /// duplicates are tallied in [`DewCounters::duplicate_skips`] instead,
    /// and a depth-0 hit ends the walk, so deeper levels' depth-0 hits are
    /// — like every other saved evaluation — not re-counted.
    #[must_use]
    pub fn depth_hits(&self) -> &[u64] {
        &self.lanes.depth_hits
    }
}

impl Policy for Lru {
    const POLICY: TreePolicy = TreePolicy::Lru;
    const VERSION: u8 = 2;
    const SPARSE: u8 = 2;
    const COUNTERS: &'static [usize] = &[0, 1, 2, 7, 9];
    const STACK: bool = true;

    fn region(_: u64, widest: u64) -> u64 {
        widest
    }

    fn new(f: &Forest, instrument: bool) -> Lru {
        let width = if instrument { f.region } else { 0 };
        Lru {
            depth_hits: vec![0; width],
        }
    }

    fn footprint(&self) -> usize {
        0
    }

    /// The depth histogram.
    type Walk<'a> = &'a mut [u64];

    #[inline(always)]
    fn walk(&mut self, _: &DewOptions) -> &mut [u64] {
        &mut self.depth_hits
    }

    #[inline(always)]
    fn mra_stop<const INSTRUMENT: bool>(depth_hits: &mut &mut [u64], _: usize) -> bool {
        // Set-refinement inclusion: MRU here means MRU at every larger set
        // count -- no accounting or update below.
        if INSTRUMENT {
            depth_hits[0] += 1;
        }
        true
    }

    #[inline(always)]
    fn update<
        S: TagScan,
        T: Tag,
        const FIRST: usize,
        const NLANES: usize,
        const INSTRUMENT: bool,
    >(
        depth_hits: &mut &mut [u64],
        at: Site<'_, S, T, FIRST, NLANES>,
        _: &mut [DewCounters],
        work: &mut DewCounters,
        _: bool,
    ) {
        let (block, width) = (at.block, at.region.len());
        // The region is one recency lane: a resident block occupies exactly
        // one way of it, and depth `width` encodes a miss.
        let depth = at
            .way(&at.lookup::<false>(block), 0, width)
            .unwrap_or(width);
        if INSTRUMENT {
            // The MRU-first search below depth 0 stops at the match, or
            // inspects the whole valid prefix -- up to the first invalid
            // way -- after depth 0 on a miss.
            work.tag_comparisons += if depth < width {
                depth_hits[depth] += 1;
                depth as u64
            } else {
                let invalid = at.lookup::<false>(T::SENTINEL);
                let valid = at.way(&invalid, 0, width).unwrap_or(width);
                valid.saturating_sub(1) as u64
            };
        }
        // Stack property: a hit at depth d misses every associativity <= d;
        // a miss (depth == width) misses them all.
        for k in 0..at.nlanes() {
            at.misses[k] += u64::from(depth >= at.lane(k).0);
        }
        // Move to front. On a hit the rotation carries the matching way to
        // the front (the store is then a no-op); on a miss the whole-region
        // rotation wraps the tail entry -- a sentinel while cold, the true
        // LRU victim when full -- to the front, where the store replaces it.
        at.region[..=depth.min(width - 1)].rotate_right(1);
        at.region[0] = block;
    }

    fn flags(opts: &DewOptions, instrument: bool) -> u8 {
        // Bit 0 is the retired depth-0-stop toggle, always on.
        1 | u8::from(opts.dup_elision) << 1 | u8::from(instrument) << 2
    }

    fn parse_flags(flags: u8) -> Result<(DewOptions, bool), SnapshotError> {
        if flags & 1 == 0 {
            return Err(SnapshotError::Corrupt("LRU image without the depth-0 stop"));
        }
        let opts = DewOptions {
            dup_elision: flags & 2 != 0,
            ..DewOptions::for_policy(TreePolicy::Lru)
        };
        Ok((opts, flags & 4 != 0))
    }

    fn body(d: ArenaDims, instrument: bool, _: u8) -> (u64, u64) {
        let instrument = u64::from(instrument);
        (8 * instrument * d.width, 4 * instrument)
    }

    fn encode_tallies(&self, _: &[DewCounters], _: bool, out: &mut Vec<u8>) {
        for &v in &self.depth_hits {
            put_u64(out, v);
        }
    }

    /// Also refuses aggregate counters no run produces: every evaluation
    /// makes one MRA comparison, every one the MRA did not settle searches
    /// at most the widest lane, and every depth hit is one evaluation.
    fn decode_tallies(
        &mut self,
        _: &mut [DewCounters],
        shared: &DewCounters,
        _: bool,
        _: u8,
        cur: &mut Cursor<'_>,
    ) -> Result<(), SnapshotError> {
        let mut hits = Some(0u64);
        for v in &mut self.depth_hits {
            *v = cur.u64()?;
            hits = hits.and_then(|h| h.checked_add(*v));
        }
        // `check_walk` has refused images with more stops than evaluations.
        let searches = shared.node_evaluations - shared.mra_stops;
        let width = self.depth_hits.len() as u64;
        let spent = shared.tag_comparisons.checked_sub(shared.node_evaluations);
        let in_range = spent.is_some_and(|s| s <= searches.saturating_mul(width))
            && hits.is_some_and(|h| h <= shared.node_evaluations);
        if !in_range {
            return Err(SnapshotError::Corrupt(
                "work counters break the LRU identities",
            ));
        }
        Ok(())
    }

    /// Instrumented images carry each node's valid-prefix length, which is
    /// the region's count of non-sentinel tags.
    fn encode_lanes(&self, f: &Forest, instrument: bool, out: &mut Vec<u8>) {
        if instrument {
            for node in 0..f.nodes() {
                put_u32(out, f.valid_ways(node));
            }
        }
    }

    fn decode_lanes(
        &mut self,
        f: &Forest,
        tags: &Lanes<u64>,
        instrument: bool,
        _: u8,
        cur: &mut Cursor<'_>,
    ) -> Result<(), SnapshotError> {
        if instrument {
            for node in 0..f.nodes() {
                if cur.u32()? != tags.valid_ways(node, f.alloc) {
                    return Err(SnapshotError::Corrupt("valid prefix out of range"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::AllAssocResults;
    use dew_cachesim::{simulate_trace, CacheConfig, Replacement};
    use dew_trace::Record;

    fn addrs(n: usize, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if i % 6 == 0 {
                    x % (1 << 12)
                } else {
                    (x % 80) * 4
                }
            })
            .collect()
    }

    /// LRU options with the CRCB-style duplicate elision on or off.
    fn elide(on: bool) -> DewOptions {
        DewOptions {
            dup_elision: on,
            ..DewOptions::for_policy(TreePolicy::Lru)
        }
    }

    fn oracle(sets: u32, assoc: u32, block: u32, addrs: &[u64]) -> u64 {
        let records: Vec<Record> = addrs.iter().map(|&a| Record::read(a)).collect();
        simulate_trace(
            CacheConfig::new(sets, assoc, block, Replacement::Lru).expect("valid"),
            &records,
        )
        .misses()
    }

    #[test]
    fn matches_reference_lru_for_all_configs() {
        let a = addrs(3000, 0x5EED_1111);
        for instrument in [false, true] {
            let mut sim =
                LruTreeSimulator::new(2, (0, 5), (0, 3), elide(true), instrument).expect("valid");
            for &x in &a {
                sim.step(x);
            }
            let r = sim.results();
            for set_bits in 0..=5u32 {
                for assoc in [1u32, 2, 4, 8] {
                    let sets = 1 << set_bits;
                    assert_eq!(
                        r.misses(sets, assoc),
                        Some(oracle(sets, assoc, 4, &a)),
                        "sets={sets} assoc={assoc} instrument={instrument}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_and_instrumented_kernels_are_bit_identical() {
        let a = addrs(4000, 0x5EED_F00D);
        let variants = [elide(false), elide(true)];
        for o in variants {
            let mut fast = LruTreeSimulator::new(2, (0, 6), (0, 3), o, false).expect("valid");
            let mut slow = LruTreeSimulator::new(2, (0, 6), (0, 3), o, true).expect("valid");
            for &x in &a {
                fast.step(x);
                slow.step(x);
            }
            assert_eq!(fast.results(), slow.results(), "{o:?}");
            assert_eq!(fast.counters().accesses, slow.counters().accesses);
            assert!(fast.depth_hits().is_empty());
            assert_eq!(slow.depth_hits().len(), 8);
        }
    }

    #[test]
    fn run_blocks_matches_per_record_stepping() {
        let a = addrs(3000, 0x5EED_B10C);
        let blocks: Vec<u64> = a.iter().map(|&x| x >> 2).collect();
        for instrument in [false, true] {
            let mut stepped =
                LruTreeSimulator::new(2, (0, 5), (0, 3), elide(true), instrument).expect("valid");
            // Per-record steps on the scalar scan, batches on the active
            // backend: the comparison doubles as a backend check.
            stepped
                .force_scan_backend(crate::simd::KernelBackend::Scalar)
                .expect("scalar is always available");
            for &x in &a {
                stepped.step(x);
            }
            let mut batched =
                LruTreeSimulator::new(2, (0, 5), (0, 3), elide(true), instrument).expect("valid");
            batched.run_blocks(&blocks);
            assert_eq!(stepped.results(), batched.results());
            assert_eq!(stepped.counters(), batched.counters());
        }
    }

    #[test]
    fn options_do_not_change_results() {
        let a = addrs(2000, 0x5EED_2222);
        let variants = [elide(false), elide(true)];
        let runs: Vec<AllAssocResults> = variants
            .iter()
            .map(|&o| {
                let mut sim = LruTreeSimulator::new(2, (0, 4), (0, 2), o, false).expect("valid");
                for &x in &a {
                    sim.step(x);
                }
                sim.results()
            })
            .collect();
        for r in &runs[1..] {
            assert_eq!(r, &runs[0]);
        }
    }

    #[test]
    fn optimisations_cut_work() {
        // A loopy trace with many consecutive duplicates.
        let mut a = Vec::new();
        for i in 0..400u64 {
            let x = (i % 5) * 4;
            a.push(x);
            a.push(x); // immediate duplicate
        }
        let run = |o: DewOptions| {
            let mut sim = LruTreeSimulator::new(2, (0, 6), (0, 2), o, true).expect("valid");
            for &x in &a {
                sim.step(x);
            }
            *sim.counters()
        };
        let off = run(elide(false));
        let on = run(elide(true));
        assert!(on.node_evaluations < off.node_evaluations);
        assert!(on.tag_comparisons < off.tag_comparisons);
        assert!(on.duplicate_skips > 0);
    }

    #[test]
    fn depth_hits_histogram_tracks_stack_distances() {
        // A cyclic 3-block loop in one set: after warmup every hit has
        // stack distance 2 (the loop distance).
        let a: Vec<u64> = (0..300u64).map(|i| (i % 3) * 4).collect();
        let opts = elide(false);
        let mut sim = LruTreeSimulator::new(2, (0, 0), (0, 2), opts, true).expect("valid");
        for &x in &a {
            sim.step(x);
        }
        let h = sim.depth_hits();
        assert_eq!(h.len(), 4);
        assert_eq!(h[0], 0, "the loop never re-touches its MRU block");
        assert_eq!(h[1], 0);
        assert_eq!(h[2], 297, "every post-warmup access hits at depth 2");
        assert_eq!(h[3], 0);
        let total_hits: u64 = h.iter().sum();
        let misses = sim.results().misses(1, 4).expect("simulated");
        assert_eq!(total_hits + misses, a.len() as u64);
    }

    #[test]
    fn stack_property_holds_in_results() {
        let a = addrs(2500, 0x5EED_3333);
        let mut sim = LruTreeSimulator::new(2, (0, 5), (0, 4), elide(true), false).expect("valid");
        for &x in &a {
            sim.step(x);
        }
        let r = sim.results();
        for set_bits in 0..=5u32 {
            let sets = 1 << set_bits;
            let mut prev = u64::MAX;
            for assoc in [1u32, 2, 4, 8, 16] {
                let m = r.misses(sets, assoc).expect("simulated");
                assert!(m <= prev, "LRU misses non-increasing in associativity");
                prev = m;
            }
        }
    }

    #[test]
    fn inclusion_property_holds_in_results() {
        let a = addrs(2500, 0x5EED_4444);
        let mut sim = LruTreeSimulator::new(2, (0, 6), (0, 2), elide(true), false).expect("valid");
        for &x in &a {
            sim.step(x);
        }
        let r = sim.results();
        for assoc in [1u32, 2, 4] {
            let mut prev = u64::MAX;
            for set_bits in 0..=6u32 {
                let m = r.misses(1 << set_bits, assoc).expect("simulated");
                assert!(
                    m <= prev,
                    "LRU misses non-increasing in set count (inclusion)"
                );
                prev = m;
            }
        }
    }

    #[test]
    fn wide_runtime_lanes_use_the_fallback_scan() {
        // Width 128 exceeds one 64-tag mask, so the lane lookup scans the
        // recency lane in 64-tag windows.
        let a = addrs(2000, 0x5EED_3C3C);
        let mut sim = LruTreeSimulator::new(2, (0, 3), (0, 7), elide(true), false).expect("valid");
        for &x in &a {
            sim.step(x);
        }
        let r = sim.results();
        for set_bits in 0..=3u32 {
            for assoc in [1u32, 4, 128] {
                let sets = 1 << set_bits;
                assert_eq!(
                    r.misses(sets, assoc),
                    Some(oracle(sets, assoc, 4, &a)),
                    "sets={sets} assoc={assoc}"
                );
            }
        }
    }

    #[test]
    fn assoc_range_above_one_skips_narrow_reports() {
        let a = addrs(2000, 0x5EED_0404);
        let mut ranged =
            LruTreeSimulator::new(2, (0, 4), (2, 3), elide(true), false).expect("valid");
        let mut full = LruTreeSimulator::new(2, (0, 4), (0, 3), elide(true), false).expect("valid");
        for &x in &a {
            ranged.step(x);
            full.step(x);
        }
        assert_eq!(ranged.assoc_list(), &[4, 8]);
        let (rr, fr) = (ranged.results(), full.results());
        for set_bits in 0..=4u32 {
            let sets = 1 << set_bits;
            for assoc in [4u32, 8] {
                assert_eq!(rr.misses(sets, assoc), fr.misses(sets, assoc));
            }
            assert_eq!(rr.misses(sets, 1), None, "assoc 1 not in the range");
            assert_eq!(rr.misses(sets, 2), None, "assoc 2 not in the range");
        }
    }

    #[test]
    fn unknown_configs_return_none() {
        let sim = LruTreeSimulator::new(2, (1, 3), (0, 2), elide(true), false).expect("valid");
        let r = sim.results();
        assert_eq!(r.misses(1, 4), None, "below min set count");
        assert_eq!(r.misses(8, 3), None, "unsimulated associativity");
        assert_eq!(r.misses(6, 2), None, "non power-of-two sets");
    }

    // The checks themselves live in `arena::tests`, shared by every policy.

    #[test]
    fn pass_results_fan_out_matches_all_assoc_view() {
        for instrument in [false, true] {
            crate::arena::tests::check_pass_fan_out(crate::options::TreePolicy::Lru, instrument);
        }
    }

    #[test]
    fn bad_assoc_ranges_are_rejected() {
        crate::arena::tests::check_bad_assoc_ranges(crate::options::TreePolicy::Lru);
    }

    #[test]
    #[should_panic(expected = "exceeds the supported range")]
    fn sentinel_block_panics_in_batches() {
        crate::arena::tests::run_sentinel_batch(crate::options::TreePolicy::Lru, false);
    }
}
