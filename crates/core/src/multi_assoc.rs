//! **Extension**: all associativities of one block size in one FIFO pass —
//! the *fused* kernel behind [`crate::SweepRequest`]'s one-traversal-per-block-size
//! scheduling.
//!
//! The paper runs one DEW pass per `(block size, associativity)` pair
//! because FIFO has no stack property: unlike LRU, one tag list cannot
//! answer for several associativities. But nothing stops a single pass from
//! carrying **independent FIFO tag lists for every associativity** in each
//! tree node, sharing everything that *is* associativity-independent — the
//! walk, the MRA comparison (and its early termination, which is sound for
//! every associativity at once), the decoded block stream, and the
//! direct-mapped results. One [`MultiAssocTree`] pass therefore covers
//! `levels × assoc_list` configurations, turning the paper's 28-pass Table 1
//! sweep into 7 trace traversals, at the cost of wider nodes.
//!
//! # The paper's pass
//!
//! A kernel over the single associativity `(log2 A, log2 A)`
//! ([`crate::Arena::for_pass`]) is the paper's DEW pass: one binomial forest
//! at associativity `A`, with the direct-mapped results from the MRA lane.
//! A request's block maps to exactly one node per level (its set at that set
//! count); the nodes form a root-to-leaf path because the set index at level
//! `l+1` extends the index at level `l` by one address bit. The walk visits
//! that path top-down (smallest set count first) and, per node:
//!
//! 1. compares the **MRA tag** — a match means the block was the last one
//!    handled at this node, so nothing in this set (or any descendant set on
//!    the block's path) has changed since: the request hits *here and at
//!    every larger set count*, and the walk stops (Property 2). The same
//!    comparison is the direct-mapped simulation, because a direct-mapped
//!    set always holds its most recent requester;
//! 2. otherwise consults the parent entry's **wave pointer**: FIFO never
//!    moves a resident block between ways, so the pointer — refreshed on
//!    every walk — still names the block's way if it is resident at all, and
//!    one comparison decides hit *or* miss (Property 3);
//! 3. otherwise compares the **MRE tag**: the most recently evicted block is
//!    certainly absent, so a match decides a miss without a search
//!    (Property 4);
//! 4. otherwise searches the tag list.
//!
//! (Steps 2–4 are the instrumented mode's ladder; the fast mode decides
//! residency with one branchless scan instead, see "The update rule".)
//! Misses insert at the FIFO round-robin position (Algorithm 2); a miss on
//! the block held in the MRE entry exchanges it back in, preserving its
//! wave pointer across the evict/re-insert cycle.
//!
//! The stop is sound because of an invariant: if a node's MRA tag equals
//! block `T`, then every descendant node on `T`'s path also has MRA = `T`,
//! and `T` is resident in all of them. Walks rewrite MRA tags top-down along
//! a contiguous prefix of the path and stop only at a node whose MRA already
//! equals the request, so a request that stops above a node leaves the
//! node's "MRA = T" intact (a stop is a hit everywhere below, and FIFO hits
//! change nothing); any request that reaches the node overwrites its MRA,
//! breaking the premise rather than the conclusion.
//!
//! # Storage
//!
//! The forest is the shared arena skeleton (`crate::arena`): one dense MRA
//! lane (shared by every associativity), and one contiguous way-tag lane
//! where node `i` holds the tag lists of *all* associativities back to back
//! (list `k` at its precomputed offset), padded to whole 8-tag groups so
//! the wide scans run without a scalar tail (`crate::arena::padded_stride`,
//! measured to pay). A node evaluation therefore touches one contiguous
//! region regardless of how many associativities ride along. FIFO adds a round-robin pointer per
//! `(node, list)`.
//!
//! # The update rule
//!
//! One update rule, two modes:
//!
//! * the **fast** mode ([`MultiAssocTree::new`] with `instrument` off)
//!   keeps no per-node counters and no wave/MRE state at all; each list's
//!   residency is decided by a branchless scan of its slice of the
//!   contiguous tag lane (invalid ways hold a sentinel), and FIFO hits
//!   mutate nothing;
//! * the **instrumented** mode (`instrument` on) maintains the paper's full
//!   determination ladder per list — wave pointer, then MRE, then a
//!   stop-at-match search — with every [`DewCounters`] bucket live, both in
//!   aggregate and per associativity. Each list's ladder reads only its own
//!   state, so a fused pass's [`crate::Arena::pass_counters`] equal those
//!   of a standalone pass at that associativity, field for field: the
//!   paper's per-pass Table 3/4 counts.
//!
//! # Examples
//!
//! ```
//! use dew_core::{DewOptions, MultiAssocTree};
//! use dew_trace::Record;
//!
//! # fn main() -> Result<(), dew_core::DewError> {
//! // Set counts 1..=256, associativities 1/2/4/8, one pass.
//! let mut tree = MultiAssocTree::new(2, (0, 8), (0, 3), DewOptions::default(), false)?;
//! for i in 0..5_000u64 {
//!     tree.step_record(Record::read((i % 900) * 4));
//! }
//! let results = tree.results();
//! assert!(results.misses(64, 8).expect("simulated") <= results.accesses());
//! # Ok(())
//! # }
//! ```

use crate::arena::{Arena, Forest, Lanes, Policy, Site, Tag, RETIRED};
use crate::counters::DewCounters;
use crate::node::{fifo_advance, EMPTY_WAVE, INVALID_TAG};
use crate::options::{DewOptions, TreePolicy};
use crate::simd::{first_match, TagScan};
use crate::snapshot::{put_u32, put_u64, ArenaDims, Cursor, SnapshotError};

/// Sentinel for "no matching entry" (root level, previous-list miss, …).
const NO_ENTRY: usize = usize::MAX;

/// A single-pass FIFO simulator for a range of power-of-two associativities
/// at every set count in a range. See the module docs.
///
/// # Examples
///
/// One traversal answers every `(sets, assoc)` pair at one block size:
///
/// ```
/// use dew_core::{DewOptions, MultiAssocTree};
///
/// # fn main() -> Result<(), dew_core::DewError> {
/// // Sets 1..=16, associativities 1, 2 and 4, 8-byte blocks.
/// let mut tree = MultiAssocTree::new(3, (0, 4), (0, 2), DewOptions::default(), false)?;
/// for i in 0..5_000u64 {
///     tree.step((i * 40) % 4096);
/// }
/// let results = tree.results();
/// assert_eq!(tree.assoc_list(), &[1, 2, 4]);
/// assert!(results.misses(16, 4).expect("simulated") <= 5_000);
/// assert!(results.misses(16, 1).is_some(), "DM rides along");
/// # Ok(())
/// # }
/// ```
pub type MultiAssocTree = Arena<Fifo>;

/// The FIFO lanes: a round-robin pointer per `(node, list)`, and in
/// instrumented mode the paper's ladder state.
#[derive(Debug, Clone)]
pub struct Fifo {
    /// FIFO round-robin pointer per `(node, list)`: `fifo[i*num_lists + k]`.
    fifo: Vec<u32>,
    /// Valid-way count per `(node, list)`; instrumented only.
    valid: Vec<u32>,
    /// MRE tag per `(node, list)`; instrumented only.
    mre: Vec<u64>,
    /// Wave pointer preserved alongside the MRE tag; instrumented only.
    mre_wave: Vec<u32>,
    /// Wave-pointer lane, parallel to the tag lane (padding included, so
    /// the two share indices); instrumented only.
    waves: Vec<u32>,
    /// Walk scratch: per list, the global way-lane index of the parent
    /// node's matching entry (`NO_ENTRY` at the root).
    parent: Vec<usize>,
}

impl Policy for Fifo {
    const POLICY: TreePolicy = TreePolicy::Fifo;
    const VERSION: u8 = 3;
    const SPARSE: u8 = 3;
    const COUNTERS: &'static [usize] = &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9];
    const PAD: bool = true;

    fn counters(version: u8) -> &'static [usize] {
        // Version 1 also carried the retired intersection link's counts.
        if version == 1 {
            &[0, 1, 2, 3, 4, 5, RETIRED, RETIRED, 6, 7, 8, 9]
        } else {
            Self::COUNTERS
        }
    }

    fn region(stride: u64, _: u64) -> u64 {
        stride
    }

    fn new(f: &Forest, instrument: bool) -> Fifo {
        let lists = f.nodes() * f.widths.len();
        let ways = f.nodes() * f.alloc;
        let ladder = |n: usize| if instrument { n } else { 0 };
        Fifo {
            fifo: vec![0; lists],
            valid: vec![0; ladder(lists)],
            mre: vec![INVALID_TAG; ladder(lists)],
            mre_wave: vec![EMPTY_WAVE; ladder(lists)],
            waves: vec![EMPTY_WAVE; ladder(ways)],
            parent: vec![NO_ENTRY; f.widths.len()],
        }
    }

    fn footprint(&self) -> usize {
        (self.fifo.len() + self.valid.len() + self.mre_wave.len() + self.waves.len()) * 4
            + self.mre.len() * 8
    }

    type Walk<'a> = FifoWalk<'a>;

    #[inline(always)]
    fn walk(&mut self, opts: &DewOptions) -> FifoWalk<'_> {
        FifoWalk {
            opts: *opts,
            fifo: &mut self.fifo,
            valid: &mut self.valid,
            mre: &mut self.mre,
            mre_wave: &mut self.mre_wave,
            waves: &mut self.waves,
            parent: &mut self.parent,
        }
    }

    #[inline(always)]
    fn begin<const INSTRUMENT: bool>(w: &mut FifoWalk<'_>) {
        if INSTRUMENT {
            w.parent.fill(NO_ENTRY);
        }
    }

    #[inline(always)]
    fn mra_stop<const INSTRUMENT: bool>(w: &mut FifoWalk<'_>, _: usize) -> bool {
        // Property 2, sound for every associativity at once.
        w.opts.mra_stop
    }

    #[inline(always)]
    fn update<
        S: TagScan,
        T: Tag,
        const FIRST: usize,
        const NLANES: usize,
        const INSTRUMENT: bool,
    >(
        v: &mut FifoWalk<'_>,
        at: Site<'_, T>,
        lanes: &mut [DewCounters],
        work: &mut DewCounters,
        scan: S,
        block: T,
        mra_hit: bool,
    ) {
        if INSTRUMENT {
            v.ladder::<S, T, FIRST, NLANES>(at, lanes, work, scan, block, mra_hit);
            return;
        }
        if mra_hit {
            // Hit in every list; FIFO hits change nothing.
            return;
        }
        let Site {
            node,
            region,
            misses,
            shape,
        } = at;
        let nl = shape.nlanes::<FIRST, NLANES>();
        // Const shape: one wide compare/movemask of the node's whole
        // contiguous region -- every list at once -- into a position
        // bitmask; invalid ways (padding included) hold the sentinel and a
        // resident block occupies exactly one way per list, so a list hits
        // iff its window of the mask is nonzero. The runtime shape (widths
        // that may exceed one mask window) scans list by list.
        let hit_mask = if FIRST == 0 {
            0
        } else {
            scan.match_mask(region, block)
        };
        #[allow(clippy::needless_range_loop)] // k indexes parallel lanes
        for k in 0..nl {
            let (w, o) = shape.lane::<FIRST>(k);
            let lane = &mut region[o..o + w];
            let hit = if FIRST == 0 {
                first_match(scan, lane, block).is_some()
            } else {
                hit_mask & (((1u64 << w) - 1) << o) != 0
            };
            if !hit {
                misses[k] += 1;
                let fp = &mut v.fifo[node * nl + k];
                lane[*fp as usize] = block;
                *fp = fifo_advance(*fp, w);
            }
        }
    }

    fn flags(o: &DewOptions, instrument: bool) -> u8 {
        u8::from(o.mra_stop)
            | u8::from(o.wave) << 1
            | u8::from(o.mre) << 2
            | u8::from(o.dup_elision) << 3
            | u8::from(instrument) << 4
    }

    fn parse_flags(flags: u8) -> Result<(DewOptions, bool), SnapshotError> {
        let opts = DewOptions {
            mra_stop: flags & 1 != 0,
            wave: flags & 2 != 0,
            mre: flags & 4 != 0,
            dup_elision: flags & 8 != 0,
            policy: TreePolicy::Fifo,
        };
        Ok((opts, flags & 16 != 0))
    }

    fn body(d: ArenaDims, instrument: bool, version: u8) -> (u64, u64) {
        // Six tallies per lane; instrumented, valid counts, MRE tags and
        // MRE waves per list, and a wave lane per way. Version 1 also
        // carried two link tallies per lane and a link lane per way.
        let v1 = u64::from(version == 1);
        let ladder = u64::from(instrument) * (16 * d.lanes + 4 * (1 + v1) * d.stride);
        ((48 + 16 * v1) * d.lanes, 4 * d.lanes + ladder)
    }

    fn encode_tallies(&self, lanes: &[DewCounters], _: bool, out: &mut Vec<u8>) {
        for lc in lanes {
            let mre_checks =
                lc.tag_comparisons - lc.wave_hits - lc.wave_misses - lc.search_comparisons;
            for v in [
                lc.wave_hits,
                lc.wave_misses,
                mre_checks,
                lc.mre_misses,
                lc.searches,
                lc.search_comparisons,
            ] {
                put_u64(out, v);
            }
        }
    }

    fn decode_tallies(
        &mut self,
        lanes: &mut [DewCounters],
        shared: &DewCounters,
        _: bool,
        version: u8,
        cur: &mut Cursor<'_>,
    ) -> Result<(), SnapshotError> {
        const UNEVEN: SnapshotError = SnapshotError::Corrupt("lane tallies break the ladder sums");
        let sum = |v: &[u64]| {
            v.iter()
                .try_fold(0u64, |a, &b| a.checked_add(b))
                .ok_or(UNEVEN)
        };
        // The aggregate is one MRA comparison per evaluation plus every
        // lane's ladder; `check_walk` has refused more stops than
        // evaluations.
        let mut total = shared.node_evaluations;
        for lc in lanes {
            let [wave_hits, wave_misses, mre_checks, mre_misses] =
                [cur.u64()?, cur.u64()?, cur.u64()?, cur.u64()?];
            if version == 1 && (cur.u64()? | cur.u64()?) != 0 {
                return Err(SnapshotError::RetiredLink);
            }
            let [searches, cmps] = [cur.u64()?, cur.u64()?];
            // Every evaluation the MRA did not settle lands in one stage.
            let settled = sum(&[wave_hits, wave_misses, mre_misses, searches])?;
            if settled != shared.node_evaluations - shared.mra_stops {
                return Err(UNEVEN);
            }
            let tag_comparisons = sum(&[wave_hits, wave_misses, mre_checks, cmps])?;
            total = sum(&[total, tag_comparisons])?;
            *lc = DewCounters {
                wave_hits,
                wave_misses,
                mre_misses,
                searches,
                search_comparisons: cmps,
                tag_comparisons,
                ..DewCounters::new()
            };
        }
        if total != shared.tag_comparisons {
            return Err(UNEVEN);
        }
        Ok(())
    }

    fn encode_lanes(&self, f: &Forest, instrument: bool, out: &mut Vec<u8>) {
        for &v in &self.fifo {
            put_u32(out, v);
        }
        if instrument {
            for &v in &self.valid {
                put_u32(out, v);
            }
            for &v in &self.mre {
                put_u64(out, v);
            }
            for &v in &self.mre_wave {
                put_u32(out, v);
            }
            for node in 0..f.nodes() {
                for &v in &self.waves[node * f.alloc..][..f.region] {
                    put_u32(out, v);
                }
            }
        }
    }

    fn decode_lanes(
        &mut self,
        f: &Forest,
        tags: &Lanes<u64>,
        instrument: bool,
        version: u8,
        cur: &mut Cursor<'_>,
    ) -> Result<(), SnapshotError> {
        let nl = f.widths.len();
        for (i, v) in self.fifo.iter_mut().enumerate() {
            *v = cur.u32()?;
            if *v as usize >= f.widths[i % nl] {
                return Err(SnapshotError::Corrupt("fifo pointer out of range"));
            }
        }
        if instrument {
            for v in &mut self.valid {
                *v = cur.u32()?;
            }
            for v in &mut self.mre {
                *v = cur.u64()?;
            }
            for v in &mut self.mre_wave {
                *v = cur.u32()?;
            }
            for node in 0..f.nodes() {
                for v in &mut self.waves[node * f.alloc..][..f.region] {
                    *v = cur.u32()?;
                }
            }
            if version == 1 {
                // The retired link lane: nothing consults it any more.
                cur.bytes(4 * f.nodes() * f.region)?;
            }
            self.check_ladder(f, tags)?;
        }
        Ok(())
    }
}

impl Fifo {
    /// Refuses instrumented lanes no run leaves behind, so the ladder's
    /// debug assertions hold for every image that decodes. Per list: the
    /// ways fill in order with distinct blocks (the first `valid` occupied,
    /// and a list that is not full inserting next at way `valid`); an MRE
    /// tag is absent and implies a full list; the node's MRA tag is
    /// resident; and every wave pointer (the MRE's included) names its
    /// tag's way in the child's list, if that tag is resident there.
    fn check_ladder(&self, f: &Forest, t: &Lanes<u64>) -> Result<(), SnapshotError> {
        let (nl, levels) = (f.widths.len(), f.set_mask.len());
        let lane = |node: usize, o: usize, w: usize| &t.tags[node * f.alloc + o..][..w];
        for l in 0..levels {
            for node in f.node_off[l]..f.node_off[l + 1] {
                for (k, (&w, &o)) in f.widths.iter().zip(&f.lane_off).enumerate() {
                    let (ml, tags, mra) = (node * nl + k, lane(node, o, w), t.mra[node]);
                    let (valid, mre) = (self.valid[ml] as usize, self.mre[ml]);
                    let (held, free) = tags.split_at(valid.min(w));
                    let filled = (valid == w || (valid < w && self.fifo[ml] as usize == valid))
                        && free.iter().all(|&t| t == INVALID_TAG)
                        && (0..held.len())
                            .all(|i| held[i] != INVALID_TAG && !held[..i].contains(&held[i]));
                    let mre_ok = mre == INVALID_TAG || (valid == w && !tags.contains(&mre));
                    if !filled || !mre_ok || !(mra == INVALID_TAG || tags.contains(&mra)) {
                        return Err(SnapshotError::Corrupt("list state breaks the FIFO ladder"));
                    }
                    if l + 1 == levels {
                        continue; // the finest level's waves are never read
                    }
                    let waves = &self.waves[node * f.alloc + o..][..w];
                    for (&t, &wave) in tags.iter().zip(waves).chain([(&mre, &self.mre_wave[ml])]) {
                        let child = f.node_off[l + 1] + (t & f.set_mask[l + 1]) as usize;
                        let at = lane(child, o, w).iter().position(|&x| x == t);
                        if t != INVALID_TAG
                            && wave != EMPTY_WAVE
                            && at.is_some_and(|i| i != wave as usize)
                        {
                            return Err(SnapshotError::Corrupt("wave pointer misses its tag"));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// The FIFO lanes as one walk uses them (see `Policy::Walk`).
#[derive(Debug)]
pub struct FifoWalk<'a> {
    opts: DewOptions,
    fifo: &'a mut [u32],
    valid: &'a mut [u32],
    mre: &'a mut [u64],
    mre_wave: &'a mut [u32],
    waves: &'a mut [u32],
    parent: &'a mut [usize],
}

impl FifoWalk<'_> {
    /// The instrumented update: the full determination ladder per list —
    /// wave pointer, then MRE, then a stop-at-match search — with the
    /// aggregate *and* per-list counters maintained. Miss counts are
    /// bit-identical to the fast mode's.
    ///
    /// The ladder rides the same wide compare as the fast mode: under a
    /// const shape one position-exact scan of the node's whole region
    /// answers residency for every list up front — a block occupies at most
    /// one way per list, so "the wave's way holds the block" is "the scan's
    /// bit for that way is set" — and the ladder stages then only decide
    /// which stage gets the credit and what the sequential ladder would
    /// have spent. Every counter stays bit-identical to the stage-by-stage
    /// compare sequence it replaces. (A fully branchless ladder of masked
    /// adds was measured *slower*: it must load every ladder lane, while
    /// the staged ladder loads only what the settled stage needs — the
    /// wave pointer settles ~90% of list handles on real traces.)
    ///
    /// MRE tags stay 64-bit at either tag width (they are per list, not per
    /// way), so the ladder compares them against the widened block.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn ladder<S: TagScan, T: Tag, const FIRST: usize, const NLANES: usize>(
        &mut self,
        at: Site<'_, T>,
        lanes: &mut [DewCounters],
        work: &mut DewCounters,
        scan: S,
        block: T,
        mra_hit: bool,
    ) {
        let (use_wave, use_mre) = (self.opts.wave, self.opts.mre);
        let wide = block.widen();
        let Site {
            node,
            region,
            misses,
            shape,
        } = at;
        let nl = shape.nlanes::<FIRST, NLANES>();
        let base = node * region.len();
        let node_mask = if FIRST == 0 {
            0
        } else {
            scan.match_mask(region, block)
        };
        #[allow(clippy::needless_range_loop)] // k indexes parallel lanes
        for k in 0..nl {
            let (w, o) = shape.lane::<FIRST>(k);
            let start = base + o;
            let ml = node * nl + k;
            let lc = &mut lanes[k];
            // Residency, settled once by the wide compare (lanes past the
            // valid prefix hold the sentinel and never match).
            let resident = if FIRST == 0 {
                first_match(scan, &region[o..o + w], block)
            } else {
                let window = (node_mask >> o) & ((1u64 << w) - 1);
                (window != 0).then(|| window.trailing_zeros() as usize)
            };
            // Determination ladder -- counter accounting only from here.
            // Every stage's *outcome* is implied by residency (Properties
            // 3/4: a consulted pointer that misses, or a matching MRE,
            // proves absence), so the stages test `resident`
            // instead of re-comparing tags; the debug asserts pin the
            // implication. Each stage costs one comparison.
            let parent = self.parent[k];
            let mut cmps = 1; // every stage that runs costs one comparison
            let mut determined = false;
            if use_wave && parent != NO_ENTRY && self.waves[parent] != EMPTY_WAVE {
                // Property 3: one comparison decides.
                let wave = self.waves[parent] as usize;
                debug_assert!(resident.is_none() || resident == Some(wave));
                if resident.is_some() {
                    lc.wave_hits += 1;
                    work.wave_hits += 1;
                } else {
                    lc.wave_misses += 1;
                    work.wave_misses += 1;
                }
                determined = true;
            } else if use_mre && self.mre[ml] == wide {
                // Property 4: the most recently evicted block is certainly
                // absent.
                debug_assert!(resident.is_none(), "an MRE match implies absence");
                lc.mre_misses += 1;
                work.mre_misses += 1;
                determined = true;
            } else if !use_mre {
                cmps = 0; // no MRE check before the search
            }
            if !determined {
                // The sequential search stops at the match, because the
                // paper's comparison counts do: a hit at depth `i` costs
                // `i + 1` comparisons, a miss costs `valid`.
                let spent = resident.map_or(self.valid[ml] as u64, |i| i as u64 + 1);
                lc.searches += 1;
                lc.search_comparisons += spent;
                work.searches += 1;
                work.search_comparisons += spent;
                cmps += spent;
            }
            lc.tag_comparisons += cmps;
            work.tag_comparisons += cmps;
            debug_assert!(
                !(mra_hit && resident.is_none()),
                "an MRA match implies residency; miss determination is wrong"
            );
            let n = match resident {
                Some(n) => n, // Algorithm 1: FIFO hits change nothing.
                None => {
                    // Algorithm 2: Handle_miss.
                    misses[k] += 1;
                    let n = self.fifo[ml] as usize;
                    if use_mre && self.mre[ml] == wide {
                        // Exchange the victim way with the MRE entry,
                        // restoring the block's preserved wave pointer.
                        debug_assert_eq!(self.valid[ml] as usize, w, "MRE implies a full list");
                        self.mre[ml] = std::mem::replace(&mut region[o + n], block).widen();
                        std::mem::swap(&mut self.waves[start + n], &mut self.mre_wave[ml]);
                    } else {
                        let evicted = std::mem::replace(&mut region[o + n], block);
                        let evicted_wave =
                            std::mem::replace(&mut self.waves[start + n], EMPTY_WAVE);
                        if evicted == T::SENTINEL {
                            self.valid[ml] += 1;
                        } else if use_mre {
                            self.mre[ml] = evicted.widen();
                            self.mre_wave[ml] = evicted_wave;
                        }
                    }
                    self.fifo[ml] = fifo_advance(self.fifo[ml], w);
                    n
                }
            };
            // Refresh the parent's matching entry's wave pointer (Algorithm
            // 1 line 3 / Algorithm 2 line 10).
            if use_wave && parent != NO_ENTRY {
                self.waves[parent] = n as u32;
            }
            self.parent[k] = start + n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::KernelBackend;
    use crate::snapshot::SnapshotError;
    use crate::space::{ConfigSpace, PassConfig};
    use crate::SweepRequest;
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
                    (x % 90) * 4
                }
            })
            .collect()
    }

    #[test]
    fn matches_reference_for_every_assoc_and_set_count() {
        let a = addrs(3000, 0xA5A5);
        for instrument in [false, true] {
            let mut tree =
                MultiAssocTree::new(2, (0, 5), (0, 3), DewOptions::default(), instrument)
                    .expect("valid");
            for &x in &a {
                tree.step(x);
            }
            let r = tree.results();
            let records: Vec<Record> = a.iter().map(|&x| Record::read(x)).collect();
            for set_bits in 0..=5u32 {
                for assoc in [1u32, 2, 4, 8] {
                    let sets = 1 << set_bits;
                    let config =
                        CacheConfig::new(sets, assoc, 4, Replacement::Fifo).expect("valid");
                    let expected = simulate_trace(config, &records).misses();
                    assert_eq!(
                        r.misses(sets, assoc),
                        Some(expected),
                        "sets={sets} assoc={assoc} instrument={instrument}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_and_instrumented_kernels_are_bit_identical() {
        let a = addrs(5000, 0xF00D);
        for opts in DewOptions::ablation_grid(TreePolicy::Fifo) {
            let mut fast = MultiAssocTree::new(2, (0, 6), (0, 3), opts, false).expect("valid");
            let mut slow = MultiAssocTree::new(2, (0, 6), (0, 3), opts, true).expect("valid");
            for &x in &a {
                fast.step(x);
                slow.step(x);
            }
            assert_eq!(fast.results(), slow.results(), "{opts}");
            assert_eq!(fast.counters().accesses, slow.counters().accesses, "{opts}");
        }
    }

    #[test]
    fn run_blocks_matches_per_record_stepping() {
        let a = addrs(3000, 0xB10C);
        let blocks: Vec<u64> = a.iter().map(|&x| x >> 2).collect();
        for instrument in [false, true] {
            let mut stepped =
                MultiAssocTree::new(2, (0, 5), (0, 3), DewOptions::default(), instrument)
                    .expect("valid");
            // Per-record steps on the scalar scan, batches on the active
            // backend: the comparison doubles as a backend check.
            stepped
                .force_scan_backend(KernelBackend::Scalar)
                .expect("scalar is always available");
            for &x in &a {
                stepped.step(x);
            }
            let mut batched =
                MultiAssocTree::new(2, (0, 5), (0, 3), DewOptions::default(), instrument)
                    .expect("valid");
            batched.run_blocks(&blocks);
            assert_eq!(stepped.results(), batched.results());
            assert_eq!(stepped.counters(), batched.counters());
        }
    }

    #[test]
    fn agrees_with_separate_dew_trees_and_saves_comparisons() {
        let a = addrs(4000, 0x77);
        let mut multi =
            MultiAssocTree::new(2, (0, 8), (0, 4), DewOptions::default(), true).expect("valid");
        for &x in &a {
            multi.step(x);
        }
        let mr = multi.results();

        let mut separate_comparisons = 0;
        for assoc in [2u32, 4, 8, 16] {
            let pass = PassConfig::new(2, 0, 8, assoc).expect("valid");
            let mut tree =
                MultiAssocTree::for_pass(pass, DewOptions::default(), true).expect("sound");
            for &x in &a {
                tree.step(x);
            }
            separate_comparisons += tree
                .pass_counters(assoc)
                .expect("simulated")
                .tag_comparisons;
            let r = tree.pass_results(assoc).expect("simulated");
            for set_bits in 0..=8u32 {
                let sets = 1 << set_bits;
                assert_eq!(
                    mr.misses(sets, assoc),
                    r.misses(sets, assoc),
                    "assoc={assoc}"
                );
                assert_eq!(
                    mr.misses(sets, 1),
                    r.misses(sets, 1),
                    "DM via assoc={assoc}"
                );
            }
        }
        assert!(
            multi.counters().tag_comparisons < separate_comparisons,
            "sharing the walk and its MRA comparisons must cut total comparisons: {} vs {}",
            multi.counters().tag_comparisons,
            separate_comparisons
        );
    }

    #[test]
    fn fused_sweep_counters_equal_standalone_passes_over_the_ablation_grid() {
        // A loopy working set (wave-off rows settle most evaluations by
        // search), a loop that fits the wider root lists but not the
        // narrowest, and a mixed stream.
        let a: Vec<u64> = (0..3000u64)
            .map(|i| ((i * 13) % 200) * 4)
            .chain((0..1000u64).map(|i| (i % 3) * 4))
            .chain(addrs(2000, 0xC0DE))
            .collect();
        let records: Vec<Record> = a.iter().map(|&x| Record::read(x)).collect();
        let space = ConfigSpace::new((0, 6), (2, 3), (0, 3)).expect("valid");
        for opts in DewOptions::ablation_grid(TreePolicy::Fifo) {
            let fused = SweepRequest::new(&space)
                .options(opts)
                .instrumented(true)
                .threads(1)
                .run(&records)
                .expect("sweep");
            // Associativities 2, 4 and 8 at two block sizes (direct-mapped
            // results ride along).
            assert_eq!(fused.passes().len(), 6, "{opts}");
            for &(pass, fused_counters) in fused.passes() {
                let mut alone = MultiAssocTree::for_pass(pass, opts, true).expect("valid");
                alone.run(records.iter().copied());
                let assoc = pass.assoc();
                assert_eq!(
                    Some(fused_counters),
                    alone.pass_counters(assoc),
                    "{opts} {pass:?}"
                );
                assert!(fused_counters.is_consistent(), "{opts} {pass:?}");
                assert_eq!(fused_counters.accesses, a.len() as u64);
            }
        }
    }

    /// Checks every list of the fused tree over `a` against a standalone
    /// single pass at its associativity, field for field.
    fn check_lists_against_standalone_passes(a: &[u64], set_bits: (u32, u32), opts: DewOptions) {
        let mut tree = MultiAssocTree::new(2, set_bits, (0, 3), opts, true).expect("valid");
        for &x in a {
            tree.step(x);
        }
        for &assoc in tree.assoc_list() {
            let c = tree.pass_counters(assoc).expect("simulated");
            let pass = PassConfig::new(2, set_bits.0, set_bits.1, assoc).expect("valid");
            let mut alone = MultiAssocTree::for_pass(pass, opts, true).expect("valid");
            for &x in a {
                alone.step(x);
            }
            assert_eq!(Some(c), alone.pass_counters(assoc), "assoc={assoc}");
            assert!(c.is_consistent(), "assoc={assoc}: {c}");
            assert_eq!(c.accesses, a.len() as u64);
            assert_eq!(c.node_evaluations, tree.counters().node_evaluations);
        }
        assert!(tree.pass_counters(32).is_none());
    }

    #[test]
    fn fused_counters_equal_standalone_passes_on_a_wave_off_loop() {
        // With waves disabled, a loopy working set gives the narrower lists
        // plenty of hits; every wider list must still search on its own.
        let a: Vec<u64> = (0..6000u64).map(|i| ((i * 13) % 200) * 4).collect();
        let opts = DewOptions {
            wave: false,
            ..DewOptions::default()
        };
        check_lists_against_standalone_passes(&a, (0, 6), opts);
    }

    #[test]
    fn fused_counters_equal_standalone_passes_on_a_root_level_loop() {
        // The root level has no parent entry to hold a wave pointer: loop
        // over a working set that fits the wider root lists but not the
        // narrowest.
        let a: Vec<u64> = (0..4000u64).map(|i| (i % 3) * 4).collect();
        check_lists_against_standalone_passes(&a, (0, 4), DewOptions::default());
    }

    #[test]
    fn assoc_range_above_one_skips_narrow_lists() {
        let a = addrs(2000, 0x404);
        let mut ranged =
            MultiAssocTree::new(2, (0, 4), (2, 3), DewOptions::default(), false).expect("valid");
        let mut full =
            MultiAssocTree::new(2, (0, 4), (0, 3), DewOptions::default(), false).expect("valid");
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
    fn decoder_refuses_instrumented_images_that_break_the_ladder() {
        let a = addrs(3000, 0x1AD);
        let mut tree =
            MultiAssocTree::new(2, (0, 3), (0, 2), DewOptions::default(), true).expect("valid");
        for &x in &a {
            tree.step(x);
        }
        let damaged = |f: &dyn Fn(&mut Fifo)| {
            let mut t = tree.clone();
            f(&mut t.lanes);
            MultiAssocTree::from_snapshot(&t.to_snapshot()).err()
        };
        assert_eq!(damaged(&|_| {}), None);
        let list = Some(SnapshotError::Corrupt("list state breaks the FIFO ladder"));
        let wave = Some(SnapshotError::Corrupt("wave pointer misses its tag"));
        // The root's 2-way list (lanes index 0) is full, and the last block
        // is resident in it.
        let last = a[a.len() - 1] >> 2;
        assert_eq!(damaged(&|l| l.valid[0] -= 1), list);
        assert_eq!(damaged(&|l| l.mre[0] = last), list);
        let flip = |waves: &mut [u32]| {
            for v in waves.iter_mut().filter(|v| **v != EMPTY_WAVE) {
                *v ^= 1;
            }
        };
        assert_eq!(damaged(&|l| flip(&mut l.waves[..2])), wave);
        // The tallies follow the header and the ten counters: a wave hit
        // too many, or a comparison count that overflows the sum.
        let image = tree.to_snapshot();
        let uneven = Some(SnapshotError::Corrupt("lane tallies break the ladder sums"));
        for (at, v) in [(106, 1u64), (146, u64::MAX)] {
            let mut bytes = image.clone();
            let old = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
            bytes[at..at + 8].copy_from_slice(&old.wrapping_add(v).to_le_bytes());
            assert_eq!(
                MultiAssocTree::from_snapshot(&bytes).err(),
                uneven,
                "byte {at}"
            );
        }
    }

    #[test]
    fn wide_runtime_shapes_use_the_fallback_scan() {
        // Widths 2..=32 (stride 62) exceed the position bitmask of the
        // const-shape kernel, exercising the runtime fallback.
        let a = addrs(2500, 0x3C3C);
        let mut tree =
            MultiAssocTree::new(2, (0, 3), (0, 5), DewOptions::default(), false).expect("valid");
        for &x in &a {
            tree.step(x);
        }
        let r = tree.results();
        let records: Vec<Record> = a.iter().map(|&x| Record::read(x)).collect();
        for set_bits in 0..=3u32 {
            for assoc in [2u32, 16, 32] {
                let sets = 1 << set_bits;
                let config = CacheConfig::new(sets, assoc, 4, Replacement::Fifo).expect("valid");
                let expected = simulate_trace(config, &records).misses();
                assert_eq!(
                    r.misses(sets, assoc),
                    Some(expected),
                    "sets={sets} assoc={assoc}"
                );
            }
        }
    }

    #[test]
    fn options_do_not_change_results() {
        let a = addrs(2000, 0x99);
        let mut reference = None;
        for opts in DewOptions::ablation_grid(TreePolicy::Fifo) {
            let mut tree = MultiAssocTree::new(2, (0, 4), (0, 2), opts, true).expect("valid");
            for &x in &a {
                tree.step(x);
            }
            let r = tree.results();
            match &reference {
                None => reference = Some(r),
                Some(expected) => assert_eq!(&r, expected, "{opts}"),
            }
        }
    }

    #[test]
    fn duplicate_elision_preserves_results() {
        let a: Vec<u64> = (0..3000u64).map(|i| i % 700).collect();
        let plain = {
            let mut t = MultiAssocTree::new(4, (0, 5), (0, 3), DewOptions::default(), false)
                .expect("valid");
            for &x in &a {
                t.step(x);
            }
            t.results()
        };
        let opts = DewOptions {
            dup_elision: true,
            ..DewOptions::default()
        };
        let mut t = MultiAssocTree::new(4, (0, 5), (0, 3), opts, true).expect("valid");
        for &x in &a {
            t.step(x);
        }
        assert_eq!(t.results(), plain, "elision must not change results");
        assert!(t.counters().duplicate_skips > 1000);
    }

    #[test]
    fn lru_options_are_rejected() {
        let lru = DewOptions::for_policy(TreePolicy::Lru);
        assert!(matches!(
            MultiAssocTree::new(2, (0, 4), (0, 2), lru, false),
            Err(crate::DewError::UnsoundOptions(_))
        ));
    }

    #[test]
    fn assoc_one_only_still_works() {
        let a = addrs(1000, 0x11);
        for instrument in [false, true] {
            let mut tree =
                MultiAssocTree::new(2, (0, 4), (0, 0), DewOptions::default(), instrument)
                    .expect("valid");
            for &x in &a {
                tree.step(x);
            }
            let r = tree.results();
            let records: Vec<Record> = a.iter().map(|&x| Record::read(x)).collect();
            for set_bits in 0..=4u32 {
                let sets = 1 << set_bits;
                let config = CacheConfig::new(sets, 1, 4, Replacement::Fifo).expect("valid");
                let expected = simulate_trace(config, &records).misses();
                assert_eq!(r.misses(sets, 1), Some(expected));
            }
            let c = tree.pass_counters(1).expect("simulated");
            assert!(c.is_consistent());
        }
    }

    // The checks themselves live in `arena::tests`, shared by every policy.

    #[test]
    fn pass_results_fan_out_matches_all_assoc_view() {
        for instrument in [false, true] {
            crate::arena::tests::check_pass_fan_out(crate::options::TreePolicy::Fifo, instrument);
        }
    }

    #[test]
    fn bad_assoc_ranges_are_rejected() {
        crate::arena::tests::check_bad_assoc_ranges(crate::options::TreePolicy::Fifo);
    }

    #[test]
    #[should_panic(expected = "exceeds the supported range")]
    fn sentinel_block_panics_in_batches() {
        crate::arena::tests::run_sentinel_batch(crate::options::TreePolicy::Fifo, false);
    }
}
