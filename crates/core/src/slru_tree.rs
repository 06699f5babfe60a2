//! Single-pass multi-configuration **segmented-LRU** (SLRU) simulation on
//! the fused arena, under the same one-traversal-per-block-size contract as
//! the FIFO, LRU and tree-PLRU kernels.
//!
//! # A policy is a lane layout plus an update rule
//!
//! SLRU splits each set into a protected segment (capacity `assoc / 2`) and
//! a probationary segment. Misses insert at the probationary MRU position; a
//! probationary hit promotes the block to the protected MRU, demoting the
//! protected LRU block to probationary MRU when the protected segment is
//! full; victims are always the probationary LRU block. Unlike LRU there is
//! no stack property (a promotion reorders blocks non-monotonically across
//! associativities), so each associativity gets its own lane: an ordered tag
//! region `[protected MRU→LRU | probationary MRU→LRU | invalid]` plus a
//! protected-length scalar. What carries over:
//!
//! * the shared **MRA lane** (direct-mapped results — sound under any
//!   policy);
//! * an MRA-match fast path in the spirit of the wave pointers: the MRA
//!   block sits either at the protected MRU slot (then the re-hit is a
//!   no-op) or at the probationary MRU slot (then it promotes with one
//!   bounded shift) — no tag search either way;
//! * the **MRA early stop** (Property 2), gated by a per-node `settled`
//!   flag. A first MRA re-hit may still promote the block, so the walk
//!   cannot stop on every MRA match. But after one MRA hit the block is the
//!   protected MRU of every lane, and a further MRA hit changes nothing.
//!   The flag is set when an MRA hit is processed and cleared on an MRA
//!   mismatch, so a set flag means the node's last two accesses were both
//!   this block. Both accesses reach every finer node on the block's path
//!   (a finer set sees a subset of this set's accesses, this block's
//!   included), so those nodes are settled too, and the walk stops. A clear
//!   flag is always safe: it only costs one re-processed MRA hit that
//!   changes no state.
//!
//! Duplicate elision is **not** sound under SLRU — a repeated access
//! promotes a probationary block — so [`crate::DewOptions::validate`]
//! rejects the flag for the policy, and SLRU images carry no previous block.
//!
//! Within one lane the update rule matches the reference semantics of
//! `dew_cachesim`'s set (`crates/cachesim/src/set.rs`), which models the
//! segments with a per-way protected flag and access stamps; here the
//! segment order is held explicitly so hits and inserts are bounded shifts
//! (`shift_in`), like the LRU kernel's recency regions.
//!
//! A node evaluation that misses the MRA finds, per lane, the block's
//! position or the end of the valid prefix, through the arena's lane
//! lookup (`crate::arena::Site`): when the node's region fits 64 tags it is
//! scanned twice, against the block and against the sentinel, and each
//! lane reads its window of the two masks; a longer region is scanned lane
//! by lane. For every range of two or more ways up to 16 (the const lane
//! shapes) the lane widths, offsets and the stride are compile-time
//! constants. The shifts stay
//! `shift_in`: a branch-free select over the whole constant-width lane was
//! measured no faster.
//!
//! # Examples
//!
//! ```
//! use dew_core::slru_tree::SlruTreeSimulator;
//! use dew_core::{DewOptions, TreePolicy};
//!
//! # fn main() -> Result<(), dew_core::DewError> {
//! // Sets 1..=8, associativities 1, 2 and 4, 4-byte blocks.
//! let options = DewOptions::for_policy(TreePolicy::Slru);
//! let mut sim = SlruTreeSimulator::new(2, (0, 3), (0, 2), options, false)?;
//! for i in 0..100u64 {
//!     sim.step((i % 40) * 4);
//! }
//! assert_eq!(sim.assoc_list(), &[1, 2, 4]);
//! assert!(sim.results().misses(8, 4).is_some());
//! # Ok(())
//! # }
//! ```

use crate::arena::{
    decode_search_cmps, encode_search_cmps, search_work, Arena, Forest, Lanes, Policy, Site, Tag,
};
use crate::counters::DewCounters;
use crate::node::INVALID_TAG;
use crate::options::{DewOptions, TreePolicy};
use crate::simd::{LaneScan, TagScan};
use crate::snapshot::{put_u32, ArenaDims, Cursor, SnapshotError};

/// Exact single-pass SLRU simulator for all set counts in a range and all
/// power-of-two associativities in a range. See the module docs.
pub type SlruTreeSimulator = Arena<Slru>;

/// The SLRU lanes: per `(node, lane)` an ordered tag region
/// `[protected MRU→LRU | probationary MRU→LRU | sentinel…]` (in the arena's
/// tag lane) plus a protected-segment length, and per node the settled
/// flag that gates the MRA stop.
#[derive(Debug, Clone)]
pub struct Slru {
    /// Protected-segment length per `(node, lane)`; never exceeds half the
    /// lane width.
    prot_len: Vec<u32>,
    /// Per node: the last two accesses were both the MRA block, which is
    /// therefore the protected MRU of every lane (see the module docs).
    settled: Vec<bool>,
}

/// The SLRU lanes as one walk uses them (see `Policy::Walk`).
#[derive(Debug)]
pub struct SlruWalk<'a> {
    prot_len: &'a mut [u32],
    settled: &'a mut [bool],
}

/// Moves `region[..len - 1]` one slot toward the end and stores `block` at
/// the front; the last entry drops out. This is `rotate_right(1)` plus a
/// front store as an inline loop: lanes are a few ways wide, and the rotate
/// of a runtime-length slice lowers to a `memmove` call.
#[inline(always)]
fn shift_in<T: Tag>(region: &mut [T], block: T) {
    for i in (1..region.len()).rev() {
        region[i] = region[i - 1];
    }
    region[0] = block;
}

impl Policy for Slru {
    const POLICY: TreePolicy = TreePolicy::Slru;
    /// Version 1 had no settled flags; it still decodes, with every flag
    /// clear, which changes no result (see the module docs).
    const VERSION: u8 = 3;
    const SPARSE: u8 = 3;
    const COUNTERS: &'static [usize] = &[0, 1, 2, 9];
    /// A repeated access promotes a probationary block, so SLRU never
    /// elides and its images carry no previous block.
    const ELISION: bool = false;

    fn region(stride: u64, _: u64) -> u64 {
        stride.max(1)
    }

    fn new(f: &Forest, _: bool) -> Slru {
        Slru {
            prot_len: vec![0; f.nodes() * f.widths.len()],
            settled: vec![false; f.nodes()],
        }
    }

    fn footprint(&self) -> usize {
        self.prot_len.len() * 4 + self.settled.len()
    }

    /// Only a settled node stops the walk; a first MRA re-hit may still
    /// promote the block.
    type Walk<'a> = SlruWalk<'a>;

    #[inline(always)]
    fn walk(&mut self, _: &DewOptions) -> SlruWalk<'_> {
        SlruWalk {
            prot_len: &mut self.prot_len,
            settled: &mut self.settled,
        }
    }

    #[inline(always)]
    fn mra_stop<const INSTRUMENT: bool>(w: &mut SlruWalk<'_>, node: usize) -> bool {
        w.settled[node]
    }

    /// An MRA hit on an unsettled node updates by position, without a
    /// search, and settles the node; any other evaluation finds, per lane,
    /// the block's position or the end of the valid prefix through the
    /// arena's lane lookup.
    #[inline(always)]
    fn update<
        S: TagScan,
        T: Tag,
        const FIRST: usize,
        const NLANES: usize,
        const INSTRUMENT: bool,
    >(
        v: &mut SlruWalk<'_>,
        at: Site<'_, S, T, FIRST, NLANES>,
        lanes: &mut [DewCounters],
        work: &mut DewCounters,
        mra_hit: bool,
    ) {
        let (node, block, nk) = (at.node, at.block, at.nlanes());
        v.settled[node] = mra_hit;
        if mra_hit {
            if INSTRUMENT {
                work.mra_stops += 1;
            }
            for k in 0..nk {
                let (w, off) = at.lane(k);
                let lane = &mut at.region[off..off + w];
                let prot = &mut v.prot_len[node * nk + k];
                let p = *prot as usize;
                // The MRA block is the protected MRU (previous access was a
                // hit that promoted or refreshed it) or the probationary MRU
                // at index `prot_len` (previous access inserted it);
                // `prot_len == 0` makes the two slots coincide and the
                // access is a probationary hit.
                if p == 0 || lane[0] != block {
                    debug_assert_eq!(lane[p], block);
                    shift_in(&mut lane[..=p], block);
                    if p < w / 2 {
                        *prot += 1;
                    }
                }
            }
            return;
        }
        let masks = at.lookup::<true>(block);
        #[allow(clippy::needless_range_loop)] // k indexes parallel lanes
        for k in 0..nk {
            let (w, off) = at.lane(k);
            // The block's position or, failing that, the end of the valid
            // prefix (inserts keep valid tags contiguous).
            let found = at.find(&masks, off, w);
            if INSTRUMENT {
                search_work(&mut lanes[k], work, found);
            }
            let lane = &mut at.region[off..off + w];
            let prot = &mut v.prot_len[node * nk + k];
            let p = *prot as usize;
            match found {
                LaneScan::Hit(d) => {
                    // Protected hit (d < prot_len): refresh within the
                    // protected segment. Probationary hit: the same shift
                    // promotes the block to protected MRU and, when the
                    // protected segment is full, moves its LRU block to
                    // index `prot_len` — the probationary MRU — demoting it.
                    shift_in(&mut lane[..=d], block);
                    if d >= p && p < w / 2 {
                        *prot += 1;
                    }
                }
                LaneScan::Miss { valid_len } => {
                    at.misses[k] += 1;
                    // Insert at the probationary MRU slot. Not full: the
                    // invalid way at `valid_len` drops out. Full: the
                    // probationary LRU block at `w - 1` drops out — the
                    // victim (the probationary segment is nonempty when the
                    // lane is full, since `prot_len <= w / 2 < w`).
                    let end = valid_len.min(w - 1);
                    shift_in(&mut lane[p..=end], block);
                }
            }
        }
    }

    fn flags(_: &DewOptions, instrument: bool) -> u8 {
        u8::from(instrument)
    }

    fn parse_flags(flags: u8) -> Result<(DewOptions, bool), SnapshotError> {
        Ok((DewOptions::for_policy(TreePolicy::Slru), flags != 0))
    }

    fn body(d: ArenaDims, instrument: bool, version: u8) -> (u64, u64) {
        let settled = u64::from(version >= 2);
        (8 * u64::from(instrument) * d.lanes, 4 * d.lanes + settled)
    }

    fn encode_tallies(&self, lanes: &[DewCounters], instrument: bool, out: &mut Vec<u8>) {
        encode_search_cmps(lanes, instrument, out);
    }

    fn decode_tallies(
        &mut self,
        lanes: &mut [DewCounters],
        shared: &DewCounters,
        instrument: bool,
        _: u8,
        cur: &mut Cursor<'_>,
    ) -> Result<(), SnapshotError> {
        decode_search_cmps(lanes, shared, instrument, cur)
    }

    fn encode_lanes(&self, _: &Forest, _: bool, out: &mut Vec<u8>) {
        for &v in &self.prot_len {
            put_u32(out, v);
        }
        out.extend(self.settled.iter().map(|&s| u8::from(s)));
    }

    fn decode_lanes(
        &mut self,
        f: &Forest,
        tags: &Lanes<u64>,
        _: bool,
        version: u8,
        cur: &mut Cursor<'_>,
    ) -> Result<(), SnapshotError> {
        for (i, v) in self.prot_len.iter_mut().enumerate() {
            *v = cur.u32()?;
            if *v as usize > f.widths[i % f.widths.len()] / 2 {
                return Err(SnapshotError::Corrupt("protected length out of range"));
            }
        }
        if version >= 2 {
            for s in &mut self.settled {
                *s = match cur.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(SnapshotError::Corrupt("settled flag out of range")),
                };
            }
        }
        // The update rule relies on two lane invariants a damaged image can
        // break: the protected segment holds valid tags only, and a visited
        // node's MRA block is its lane's protected or probationary MRU.
        let nk = f.widths.len();
        for (node, &mra) in tags.mra.iter().enumerate() {
            for (k, (&w, &off)) in f.widths.iter().zip(&f.lane_off).enumerate() {
                let lane = &tags.tags[node * f.alloc + off..][..w];
                let p = self.prot_len[node * nk + k] as usize;
                if lane[..p].contains(&INVALID_TAG)
                    || (mra != INVALID_TAG && lane[0] != mra && lane[p] != mra)
                {
                    return Err(SnapshotError::Corrupt("lane inconsistent with its node"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dew_cachesim::{simulate_trace, CacheConfig, Replacement};
    use dew_trace::Record;

    #[test]
    fn snapshots_breaking_the_lane_invariants_are_refused() {
        // One 2-way lane over the root and two 2-set nodes; even blocks
        // leave node 2 (odd sets) untouched. After 2, 2, 4 each visited
        // lane is [2, 4]: 2 protected, 4 the probationary MRU and MRA.
        let options = DewOptions::for_policy(TreePolicy::Slru);
        let mut k = SlruTreeSimulator::new(0, (0, 1), (1, 1), options, false).expect("valid");
        k.run_blocks(&[2, 2, 4]);
        let image = k.to_snapshot();
        let decode = |edit: fn(&mut Slru)| {
            let mut d = SlruTreeSimulator::from_snapshot(&image).expect("valid image");
            edit(&mut d.lanes);
            SlruTreeSimulator::from_snapshot(&d.to_snapshot())
        };
        assert!(decode(|_| {}).is_ok());
        // A protected segment over an empty lane.
        assert!(decode(|l| l.prot_len[2] = 1).is_err());
        // The root's MRA block at neither the protected nor the
        // probationary MRU.
        assert!(decode(|l| l.prot_len[0] = 0).is_err());
    }

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

    fn oracle(sets: u32, assoc: u32, block: u32, addrs: &[u64]) -> u64 {
        let records: Vec<Record> = addrs.iter().map(|&a| Record::read(a)).collect();
        simulate_trace(
            CacheConfig::new(sets, assoc, block, Replacement::Slru).expect("valid"),
            &records,
        )
        .misses()
    }

    #[test]
    fn matches_reference_slru_for_all_configs() {
        let a = addrs(3000, 0x5EED_7001);
        for instrument in [false, true] {
            let mut sim = SlruTreeSimulator::new(
                2,
                (0, 5),
                (0, 3),
                DewOptions::for_policy(TreePolicy::Slru),
                instrument,
            )
            .expect("valid");
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
    fn repeated_accesses_promote_and_resist_scans() {
        // Two re-hit blocks survive a long one-shot scan: the protected
        // segment shields them, which plain LRU would not.
        let mut hot = vec![0u64, 64, 0, 64];
        for i in 0..64u64 {
            hot.push(4096 + i * 64); // one-shot scan, same set count rollover
        }
        hot.push(0);
        hot.push(64);
        let sets = 1u32;
        let assoc = 4u32;
        let slru = oracle(sets, assoc, 64, &hot);
        let records: Vec<Record> = hot.iter().map(|&a| Record::read(a)).collect();
        let lru = simulate_trace(
            CacheConfig::new(sets, assoc, 64, Replacement::Lru).expect("valid"),
            &records,
        )
        .misses();
        assert!(slru < lru, "slru={slru} lru={lru}");
        let mut sim = SlruTreeSimulator::new(
            6,
            (0, 0),
            (0, 2),
            DewOptions::for_policy(TreePolicy::Slru),
            false,
        )
        .expect("valid");
        for &x in &hot {
            sim.step(x);
        }
        assert_eq!(sim.results().misses(1, 4), Some(slru));
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let a = addrs(2000, 0x5EED_7004);
        for instrument in [false, true] {
            let mut sim = SlruTreeSimulator::new(
                2,
                (0, 4),
                (1, 3),
                DewOptions::for_policy(TreePolicy::Slru),
                instrument,
            )
            .expect("valid");
            for &x in &a[..1000] {
                sim.step(x);
            }
            let mut restored =
                SlruTreeSimulator::from_snapshot(&sim.to_snapshot()).expect("round trip");
            for &x in &a[1000..] {
                sim.step(x);
                restored.step(x);
            }
            assert_eq!(sim.results(), restored.results());
            assert_eq!(sim.counters(), restored.counters());
            assert_eq!(sim.to_snapshot(), restored.to_snapshot());
        }
    }

    #[test]
    fn foreign_magic_is_a_policy_mismatch() {
        use crate::snapshot::SnapshotError;
        let plru = crate::plru_tree::PlruTreeSimulator::new(
            2,
            (0, 2),
            (0, 1),
            DewOptions::for_policy(TreePolicy::Plru),
            false,
        )
        .expect("valid");
        match SlruTreeSimulator::from_snapshot(&plru.to_snapshot()) {
            Err(SnapshotError::PolicyMismatch { expected, found }) => {
                assert_eq!(expected, crate::arena::magic(TreePolicy::Slru));
                assert_eq!(found, crate::arena::magic(TreePolicy::Plru));
            }
            other => panic!("expected PolicyMismatch, got {other:?}"),
        }
        assert!(matches!(
            SlruTreeSimulator::from_snapshot(b"JUNKrest"),
            Err(SnapshotError::BadMagic)
        ));
    }

    // The checks themselves live in `arena::tests`, shared by every policy.

    #[test]
    fn pass_results_fan_out_matches_all_assoc_view() {
        for instrument in [false, true] {
            crate::arena::tests::check_pass_fan_out(crate::options::TreePolicy::Slru, instrument);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the supported range")]
    fn sentinel_block_panics_in_batches() {
        crate::arena::tests::run_sentinel_batch(crate::options::TreePolicy::Slru, false);
    }
}
