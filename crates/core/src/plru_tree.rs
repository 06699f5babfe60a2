//! Single-pass multi-configuration **tree-PLRU** simulation on the fused
//! arena skeleton: the policy real embedded L1s ship, running under the same
//! one-traversal-per-block-size contract as [`crate::MultiAssocTree`] (FIFO)
//! and [`crate::lru_tree::LruTreeSimulator`] (LRU).
//!
//! # A policy is a lane layout plus an update rule
//!
//! Tree-PLRU has neither FIFO's "hits change nothing" rule nor LRU's stack
//! property — a PLRU hit *mutates* per-set state (the direction bits), and
//! a hit at associativity `A` says nothing exact about associativity `2A`.
//! So the PLRU lane layout is the honest one: per `(node, associativity)`
//! lane, a way-tag region plus one word of direction bits, all updated in
//! the same shared walk. What *does* carry over from the paper's machinery:
//!
//! * the **MRA lane** is policy-agnostic (Property 2's precondition — the
//!   most recently accessed block of a set is resident at every
//!   associativity — holds under any policy), so the direct-mapped results
//!   are shared;
//! * the **MRA early stop** (Property 2) is exact here too. An MRA match
//!   means the node's last access was this block, so the last update to
//!   every lane's direction bits touched this block's way, and a touch is
//!   idempotent: the node needs no update. The block is then also the MRA
//!   of every finer node on its path (the finer set sees a subset of this
//!   set's accesses, this block's last access included), so the walk stops;
//! * **duplicate elision** stays sound for the same reason.
//!
//! A touch is constant-time: every `(lane, way)` has a precomputed
//! `(path, set)` mask pair, and touching is `bits & !path | set`.
//!
//! A node evaluation finds, per lane, the block's way or the first invalid
//! way. For the lane shapes every fused kernel instantiates (2 ways and up
//! with 1–4 lanes, or one lane of 4, 8 or 16 ways) the lane widths,
//! offsets and the stride are compile-time constants, and the node's whole
//! region is scanned twice, against the block and against the sentinel;
//! each lane then reads its window of the two masks. This replaces the two
//! scans per lane the kernel made before, and with the width constant the
//! victim walk has a constant depth. Other shapes, including every region
//! over 64 tags (32- and 64-way lanes), keep the per-lane scan.
//!
//! Within one lane the update rule is exactly the reference semantics of
//! `dew_cachesim`'s set (`crates/cachesim/src/set.rs`): victims follow the
//! direction bits root-to-leaf, touches point every bit on the way's path
//! away from it, and invalid ways fill in physical order first.
//!
//! # Examples
//!
//! ```
//! use dew_core::plru_tree::PlruTreeSimulator;
//! use dew_core::{DewOptions, TreePolicy};
//!
//! # fn main() -> Result<(), dew_core::DewError> {
//! // Sets 1..=8, associativities 1, 2 and 4, 4-byte blocks.
//! let options = DewOptions::for_policy(TreePolicy::Plru);
//! let mut sim = PlruTreeSimulator::new(2, (0, 3), (0, 2), options, false)?;
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
use crate::options::{DewOptions, TreePolicy};
use crate::simd::{lane_scan, window_scan, LaneScan, TagScan};
use crate::snapshot::{put_u64, ArenaDims, Cursor, SnapshotError};

/// Widest PLRU lane supported: the direction bits of one lane live in a
/// single `u64` heap (matching `dew_cachesim`'s `MAX_PLRU_ASSOC`).
pub const MAX_PLRU_ASSOC: u32 = 64;

/// Exact single-pass tree-PLRU simulator for all set counts in a range and
/// all power-of-two associativities in a range. See the module docs.
pub type PlruTreeSimulator = Arena<Plru>;

/// The tree-PLRU lanes: one word of direction bits per `(node, lane)`,
/// heap-indexed with the root at bit 1 (the reference layout of
/// `dew_cachesim`'s set). Way tags fill each lane in physical order, so
/// valid tags are always a prefix.
#[derive(Debug, Clone)]
pub struct Plru {
    /// [`touch_masks`] per `(lane, way)`, indexed like a node's tag region
    /// (`lane_off[k] + way`).
    touch: Vec<(u64, u64)>,
    /// Direction bits per `(node, lane)`.
    bits: Vec<u64>,
}

/// The tree-PLRU lanes as one walk uses them (see `Policy::Walk`).
#[derive(Debug)]
pub struct PlruWalk<'a> {
    touch: &'a [(u64, u64)],
    bits: &'a mut [u64],
}

/// Follows the direction bits of one lane from the root to the pseudo-LRU
/// way (`dew_cachesim`'s `plru_victim`, on an external bit word).
#[inline(always)]
fn plru_victim(bits: u64, assoc: usize) -> usize {
    let levels = assoc.trailing_zeros();
    let mut idx = 1usize;
    for _ in 0..levels {
        let bit = (bits >> idx) & 1;
        idx = 2 * idx + bit as usize;
    }
    idx - assoc
}

/// The touch of `way` as a `(path, set)` mask pair: `path` holds every
/// direction bit on the way's root-to-leaf path, `set` those of them that
/// must point right to point *away* from it. `bits & !path | set` is then
/// `dew_cachesim`'s `plru_touch` on an external bit word.
fn touch_masks(way: usize, assoc: usize) -> (u64, u64) {
    let (mut path, mut set) = (0u64, 0u64);
    let mut idx = 1usize;
    for level in (0..assoc.trailing_zeros()).rev() {
        let dir = (way >> level) & 1;
        path |= 1 << idx;
        if dir == 0 {
            set |= 1 << idx;
        }
        idx = 2 * idx + dir;
    }
    (path, set)
}

impl Policy for Plru {
    const POLICY: TreePolicy = TreePolicy::Plru;
    /// Version 1 also carried a per-`(node, lane)` MRA way pointer; it
    /// still decodes, the pointers are range-checked and dropped.
    const VERSION: u8 = 3;
    const SPARSE: u8 = 3;
    const COUNTERS: &'static [usize] = &[0, 1, 2, 7, 9];
    const MAX_ASSOC_BITS: u32 = MAX_PLRU_ASSOC.trailing_zeros();

    fn region(stride: u64, _: u64) -> u64 {
        stride.max(1)
    }

    fn new(f: &Forest, _: bool) -> Plru {
        let touch = f
            .widths
            .iter()
            .flat_map(|&w| (0..w).map(move |way| touch_masks(way, w)))
            .collect();
        Plru {
            touch,
            bits: vec![0; f.nodes() * f.widths.len()],
        }
    }

    fn footprint(&self) -> usize {
        self.bits.len() * 8
    }

    /// An MRA match means the node's last access was this block, so the last
    /// update to every lane's direction bits touched this block's way, and a
    /// touch is idempotent: the node needs no update, nor does any finer
    /// node on the block's path (see the module docs).
    type Walk<'a> = PlruWalk<'a>;

    #[inline(always)]
    fn walk(&mut self, _: &DewOptions) -> PlruWalk<'_> {
        PlruWalk {
            touch: &self.touch,
            bits: &mut self.bits,
        }
    }

    #[inline(always)]
    fn mra_stop<const INSTRUMENT: bool>(_: &mut PlruWalk<'_>, _: usize) -> bool {
        true
    }

    /// Each lane finds its hit way or first invalid way, touching the hit
    /// way or inserting at the first invalid way / the direction-bit victim.
    /// Under a const shape the node's whole region is scanned once against
    /// the block and once against the sentinel, and each lane reads its
    /// window of the two masks ([`window_scan`]); the runtime shape scans
    /// lane by lane ([`lane_scan`]; the only path for a region over 64
    /// tags).
    #[inline(always)]
    fn update<
        S: TagScan,
        T: Tag,
        const FIRST: usize,
        const NLANES: usize,
        const INSTRUMENT: bool,
    >(
        v: &mut PlruWalk<'_>,
        at: Site<'_, T>,
        lanes: &mut [DewCounters],
        work: &mut DewCounters,
        scan: S,
        block: T,
        _: bool,
    ) {
        let Site {
            node,
            region,
            misses,
            shape,
        } = at;
        let nk = shape.nlanes::<FIRST, NLANES>();
        let (hits, invalid) = if FIRST == 0 {
            (0, 0)
        } else {
            (
                scan.match_mask(region, block),
                scan.match_mask(region, T::SENTINEL),
            )
        };
        #[allow(clippy::needless_range_loop)] // k indexes parallel lanes
        for k in 0..nk {
            let (w, off) = shape.lane::<FIRST>(k);
            let lane = &mut region[off..off + w];
            let scanned = if FIRST == 0 {
                lane_scan(scan, lane, block, T::SENTINEL)
            } else {
                window_scan(hits, invalid, off, w)
            };
            let (hit, first_invalid) = match scanned {
                LaneScan::Hit(i) => (Some(i), w),
                LaneScan::Miss { valid_len } => (None, valid_len),
            };
            if INSTRUMENT {
                search_work(&mut lanes[k], work, hit, first_invalid);
            }
            let bits = &mut v.bits[node * nk + k];
            let way = match hit {
                Some(i) => i,
                None => {
                    misses[k] += 1;
                    let victim = if first_invalid < w {
                        first_invalid
                    } else {
                        plru_victim(*bits, w)
                    };
                    lane[victim] = block;
                    victim
                }
            };
            let (path, set) = v.touch[off + way];
            *bits = *bits & !path | set;
        }
    }

    fn flags(opts: &DewOptions, instrument: bool) -> u8 {
        u8::from(opts.dup_elision) | u8::from(instrument) << 1
    }

    fn parse_flags(flags: u8) -> Result<(DewOptions, bool), SnapshotError> {
        let opts = DewOptions {
            dup_elision: flags & 1 != 0,
            ..DewOptions::for_policy(TreePolicy::Plru)
        };
        Ok((opts, flags & 2 != 0))
    }

    fn body(d: ArenaDims, instrument: bool, version: u8) -> (u64, u64) {
        let way_pointers = if version == 1 { 4 * d.lanes } else { 0 };
        (
            8 * u64::from(instrument) * d.lanes,
            8 * d.lanes + way_pointers,
        )
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
        for &v in &self.bits {
            put_u64(out, v);
        }
    }

    fn decode_lanes(
        &mut self,
        f: &Forest,
        _: &Lanes<u64>,
        _: bool,
        version: u8,
        cur: &mut Cursor<'_>,
    ) -> Result<(), SnapshotError> {
        for v in &mut self.bits {
            *v = cur.u64()?;
        }
        if version == 1 {
            for i in 0..self.bits.len() {
                if cur.u32()? as usize >= f.widths[i % f.widths.len()] {
                    return Err(SnapshotError::Corrupt("way pointer out of range"));
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

    /// Tree-PLRU options with the CRCB-style duplicate elision on or off.
    fn elide(on: bool) -> DewOptions {
        DewOptions {
            dup_elision: on,
            ..DewOptions::for_policy(TreePolicy::Plru)
        }
    }

    fn oracle(sets: u32, assoc: u32, block: u32, addrs: &[u64]) -> u64 {
        let records: Vec<Record> = addrs.iter().map(|&a| Record::read(a)).collect();
        simulate_trace(
            CacheConfig::new(sets, assoc, block, Replacement::Plru).expect("valid"),
            &records,
        )
        .misses()
    }

    #[test]
    fn matches_reference_plru_for_all_configs() {
        let a = addrs(3000, 0x5EED_6001);
        for instrument in [false, true] {
            let mut sim =
                PlruTreeSimulator::new(2, (0, 5), (0, 3), elide(true), instrument).expect("valid");
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
    fn duplicate_elision_does_not_change_results() {
        let mut a = addrs(1500, 0x5EED_6002);
        // Salt the trace with consecutive duplicates.
        let mut salted = Vec::with_capacity(a.len() * 2);
        for (i, &x) in a.iter().enumerate() {
            salted.push(x);
            if i % 3 == 0 {
                salted.push(x);
            }
        }
        a = salted;
        let run = |on: bool| {
            let mut sim =
                PlruTreeSimulator::new(2, (0, 4), (0, 3), elide(on), false).expect("valid");
            for &x in &a {
                sim.step(x);
            }
            sim.results()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let a = addrs(2000, 0x5EED_6004);
        for instrument in [false, true] {
            let mut sim =
                PlruTreeSimulator::new(2, (0, 4), (1, 3), elide(true), instrument).expect("valid");
            for &x in &a[..1000] {
                sim.step(x);
            }
            let mut restored =
                PlruTreeSimulator::from_snapshot(&sim.to_snapshot()).expect("round trip");
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
        let lru = crate::lru_tree::LruTreeSimulator::new(
            2,
            (0, 2),
            (0, 1),
            DewOptions::for_policy(TreePolicy::Lru),
            false,
        )
        .expect("valid");
        match PlruTreeSimulator::from_snapshot(&lru.to_snapshot()) {
            Err(SnapshotError::PolicyMismatch { expected, found }) => {
                assert_eq!(expected, crate::arena::magic(TreePolicy::Plru));
                assert_eq!(found, crate::arena::magic(TreePolicy::Lru));
            }
            other => panic!("expected PolicyMismatch, got {other:?}"),
        }
        assert!(matches!(
            PlruTreeSimulator::from_snapshot(b"JUNKrest"),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn wide_lanes_are_bounded() {
        assert!(matches!(
            PlruTreeSimulator::new(2, (0, 2), (0, 7), elide(true), false),
            Err(crate::DewError::BadAssoc(128))
        ));
        assert!(PlruTreeSimulator::new(2, (0, 2), (0, 6), elide(true), false).is_ok());
    }

    // The checks themselves live in `arena::tests`, shared by every policy.

    #[test]
    fn pass_results_fan_out_matches_all_assoc_view() {
        for instrument in [false, true] {
            crate::arena::tests::check_pass_fan_out(crate::options::TreePolicy::Plru, instrument);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the supported range")]
    fn sentinel_block_panics_in_batches() {
        crate::arena::tests::run_sentinel_batch(crate::options::TreePolicy::Plru, false);
    }
}
