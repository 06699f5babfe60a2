//! The fused arena kernel skeleton every replacement policy runs on.
//!
//! DEW's speed comes from machinery that has nothing to do with the
//! replacement policy: the binomial forest over set counts, one walk per
//! request, the shared MRA comparison (which is also the direct-mapped
//! simulation) and Property 2's early stop. [`Arena`] holds that machinery
//! once, and a policy plugs into it as **a lane layout plus an update rule**
//! ([`Policy`]):
//!
//! * **forest and lanes** — the per-level node offsets and set masks, the
//!   dense MRA lane, the contiguous way-tag lane (node `i`'s region at
//!   `tags[i*alloc ..][..alloc]`, lane `k` of width `widths[k]` at
//!   `lane_off[k]`), and the per-`(level, lane)` and direct-mapped miss
//!   tallies;
//! * **the tag width** — the MRA and way-tag lanes hold 32-bit tags while
//!   every block fits below the 32-bit sentinel, and the first block that
//!   does not widens them to 64 bits, once, inside `run_blocks` ([`Tag`],
//!   [`TagLanes`]); every update rule is generic over the width;
//! * **driving a trace** — the scalar/sse2/avx2 `run_blocks` dispatch with
//!   its single `#[target_feature(enable = "avx2")]` compilation root, the
//!   const lane-shape dispatch ([`with_lane_shape`]), and the batch loop;
//! * **the walk** — request accounting, CRCB-style duplicate elision, one
//!   MRA comparison per level, and the policy's verdict on whether an MRA
//!   hit stops the walk;
//! * **fan-out** — [`Arena::results`], [`Arena::pass_results`] and
//!   [`Arena::pass_counters`], with every kernel counting in
//!   [`DewCounters`] (aggregate, plus one per-lane view);
//! * **the lane lookup** — [`Site`] finds a block in a node's lanes for
//!   every update rule: when the node's region fits one 64-tag mask it
//!   masks the region once and reads each lane's window off the mask,
//!   otherwise it scans lane by lane, and the region's length, a constant
//!   under every const lane shape, decides which;
//! * **snapshots** — the header codec (magic, version, geometry, counters,
//!   forest lanes, trailing bytes) under one table of the kernel magics
//!   ([`MAGICS`]), with the body length checked before anything is
//!   allocated ([`check_body_len`]).
//!
//! A policy supplies only its per-node lanes, its node-update rule (generic
//! over the scan backend, the tag width, the lane shape and `INSTRUMENT`,
//! and given the block's ways by the lookup), whether an MRA hit may stop
//! the walk, and the encoding of its own lanes.

use std::fmt;

use dew_trace::Record;

use crate::counters::DewCounters;
use crate::node::INVALID_TAG;
use crate::options::{DewOptions, TreePolicy};
use crate::results::{AllAssocResults, LevelResult, PassResults};
use crate::simd::{
    first_match, lane_scan, window_match, window_scan, with_lane_shape, KernelBackend, LaneScan,
    ScalarScan, TagScan,
};
use crate::snapshot::{check_body_len, put_u32, put_u64, SnapshotError};
use crate::space::{DewError, PassConfig};

/// The snapshot magic of every fused kernel. A kernel writes its own and
/// reports any other listed here as a [`SnapshotError::PolicyMismatch`].
pub(crate) const MAGICS: [(TreePolicy, [u8; 4]); 4] = [
    (TreePolicy::Fifo, *b"DEWM"),
    (TreePolicy::Lru, *b"DEWL"),
    (TreePolicy::Plru, *b"DEWP"),
    (TreePolicy::Slru, *b"DEWU"),
];

/// Bytes of a kernel snapshot's header: magic, version, five `u32`
/// geometry fields and the flags byte.
const HEADER_LEN: usize = 26;

/// The snapshot magic of `policy`'s kernel.
pub(crate) fn magic(policy: TreePolicy) -> [u8; 4] {
    MAGICS
        .iter()
        .find(|(p, _)| *p == policy)
        .map(|&(_, m)| m)
        .expect("every policy has a kernel magic")
}

/// Pads a node's way-lane stride up to a whole number of 8-tag groups (32
/// bytes of 32-bit tags, 64 of 64-bit ones). The FIFO kernel scans a node's
/// whole allocated region, so its 14- and 30-tag regions (associativities
/// 2..8 and 2..16) become 16 and 32 tags: whole AVX2 and SSE2 vectors with
/// no scalar tail, and node regions of whole cache lines. Removing it was
/// measured to make perfbench's `sweep_fifo` 9% and `sweep_checkpointed`
/// 6% slower (EXPERIMENTS.md, "Scan-path mechanisms that pay"; measured
/// with 64-bit tags). Strides under 8 tags stay exact — several small
/// nodes per line beats padding there. Padding lanes hold the invalid-tag sentinel forever; they are
/// scanned (harmlessly — requests never equal the sentinel) but never
/// written, and snapshots serialise only the logical region, so the byte
/// format is unchanged.
pub(crate) const fn padded_stride(stride: usize) -> usize {
    if stride >= 8 {
        stride.next_multiple_of(8)
    } else {
        stride
    }
}

/// A little-endian byte reader over a snapshot buffer (defined here, where
/// the kernel codec hooks name it, and shared by every decoder).
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Corrupt("unexpected end of snapshot"));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }
}

/// A width of the arena's MRA and way-tag lanes: `u32` while every block
/// fits below its sentinel, `u64` after the promotion (see [`TagLanes`]).
/// Halving the tag halves the bytes of every node evaluation and the
/// compares of every scan.
pub trait Tag: Copy + Eq + fmt::Debug + 'static {
    /// The invalid-tag sentinel at this width: cold MRA entries and invalid
    /// ways.
    const SENTINEL: Self;
    /// `block` at this width, or `None` when it does not fit below the
    /// sentinel.
    fn narrow(block: u64) -> Option<Self>;
    /// The tag at 64 bits, the sentinel mapped to the 64-bit one (`u64::MAX`).
    fn widen(self) -> u64;
    /// Position-exact match mask of `region` against `needle` on `scan`.
    fn mask<S: TagScan>(scan: S, region: &[Self], needle: Self) -> u64;
    /// The arena's lanes, when they are at this width.
    fn lanes(lanes: &mut TagLanes) -> Option<&mut Lanes<Self>>;
}

impl Tag for u32 {
    const SENTINEL: u32 = u32::MAX;

    #[inline(always)]
    fn narrow(block: u64) -> Option<u32> {
        u32::try_from(block).ok().filter(|&t| t != u32::MAX)
    }

    #[inline(always)]
    fn widen(self) -> u64 {
        if self == u32::MAX {
            INVALID_TAG
        } else {
            u64::from(self)
        }
    }

    #[inline(always)]
    fn mask<S: TagScan>(scan: S, region: &[u32], needle: u32) -> u64 {
        scan.mask32(region, needle)
    }

    fn lanes(lanes: &mut TagLanes) -> Option<&mut Lanes<u32>> {
        match lanes {
            TagLanes::Narrow(l) => Some(l),
            TagLanes::Wide(_) => None,
        }
    }
}

impl Tag for u64 {
    const SENTINEL: u64 = INVALID_TAG;

    #[inline(always)]
    fn narrow(block: u64) -> Option<u64> {
        (block != INVALID_TAG).then_some(block)
    }

    #[inline(always)]
    fn widen(self) -> u64 {
        self
    }

    #[inline(always)]
    fn mask<S: TagScan>(scan: S, region: &[u64], needle: u64) -> u64 {
        scan.mask64(region, needle)
    }

    fn lanes(lanes: &mut TagLanes) -> Option<&mut Lanes<u64>> {
        match lanes {
            TagLanes::Wide(l) => Some(l),
            TagLanes::Narrow(_) => None,
        }
    }
}

/// The MRA and way-tag lanes at one tag width.
#[derive(Debug, Clone)]
pub struct Lanes<T> {
    /// Dense per-node MRA tags: the direct-mapped cache contents and the
    /// operand of every node evaluation's first comparison.
    pub(crate) mra: Vec<T>,
    /// Way-tag regions, `alloc` entries per node, invalid ways holding the
    /// sentinel.
    pub(crate) tags: Vec<T>,
}

impl<T: Tag> Lanes<T> {
    /// All-sentinel lanes for `nodes` nodes of `alloc` ways each.
    fn cold(nodes: usize, alloc: usize) -> Self {
        Lanes {
            mra: vec![T::SENTINEL; nodes],
            tags: vec![T::SENTINEL; nodes * alloc],
        }
    }

    /// Heap bytes of both lanes.
    fn bytes(&self) -> usize {
        (self.mra.len() + self.tags.len()) * std::mem::size_of::<T>()
    }

    /// The number of valid (non-sentinel) tags in `node`'s region of
    /// `alloc` ways.
    pub(crate) fn valid_ways(&self, node: usize, alloc: usize) -> u32 {
        let region = &self.tags[node * alloc..][..alloc];
        region.iter().filter(|&&t| t != T::SENTINEL).count() as u32
    }
}

/// The arena's MRA and way-tag lanes at their current width. A kernel
/// starts [`TagLanes::Narrow`] and is promoted to [`TagLanes::Wide`] once,
/// by the first block at or above `u32::MAX` (the narrow sentinel); set
/// indices come from the 64-bit block either way, so the width changes no
/// result. Snapshots always carry 64-bit tags.
#[derive(Debug, Clone)]
pub enum TagLanes {
    /// 32-bit tags, [`u32::MAX`] the sentinel.
    Narrow(Lanes<u32>),
    /// 64-bit tags, `u64::MAX` the sentinel.
    Wide(Lanes<u64>),
}

impl TagLanes {
    /// Widens narrow lanes to 64 bits, the sentinel mapped to the sentinel.
    fn promote(&mut self) {
        if let TagLanes::Narrow(n) = self {
            let widen = |v: &[u32]| v.iter().map(|&t| t.widen()).collect();
            *self = TagLanes::Wide(Lanes {
                mra: widen(&n.mra),
                tags: widen(&n.tags),
            });
        }
    }

    /// `wide` at the narrowest width that holds every tag: narrow when each
    /// is the sentinel or fits below the narrow one.
    fn fit(wide: Lanes<u64>) -> TagLanes {
        let fits = |t: u64| t == INVALID_TAG || u32::narrow(t).is_some();
        if !wide.mra.iter().chain(&wide.tags).all(|&t| fits(t)) {
            return TagLanes::Wide(wide);
        }
        let narrow = |v: &[u64]| {
            v.iter()
                .map(|&t| u32::narrow(t).unwrap_or(u32::MAX))
                .collect()
        };
        TagLanes::Narrow(Lanes {
            mra: narrow(&wide.mra),
            tags: narrow(&wide.tags),
        })
    }

    /// Heap bytes of both lanes at the current width.
    fn bytes(&self) -> usize {
        match self {
            TagLanes::Narrow(l) => l.bytes(),
            TagLanes::Wide(l) => l.bytes(),
        }
    }
}

/// The per-node lane geometry a fused kernel's snapshot header describes:
/// associativities up to `2^assoc_bits.1`, one lane per associativity
/// above 1.
#[derive(Debug, Clone, Copy)]
pub struct ArenaDims {
    /// Lanes (associativities above 1).
    pub lanes: u64,
    /// Summed lane widths: tags per node in the per-lane layouts.
    pub stride: u64,
    /// Widest associativity: tags per node in the LRU stack layout.
    pub width: u64,
}

/// The fields of a [`DewCounters`] in their canonical snapshot order (the
/// order `DEWM` writes all ten); a policy's [`Policy::COUNTERS`] lists the
/// indices its format carries.
fn counter_slots(c: &mut DewCounters) -> [&mut u64; 10] {
    [
        &mut c.accesses,
        &mut c.node_evaluations,
        &mut c.mra_stops,
        &mut c.wave_hits,
        &mut c.wave_misses,
        &mut c.mre_misses,
        &mut c.searches,
        &mut c.duplicate_skips,
        &mut c.search_comparisons,
        &mut c.tag_comparisons,
    ]
}

/// A [`Policy::counters`] entry for a counter an older image carries but
/// no kernel keeps (the FIFO intersection link's): it must read zero.
pub(crate) const RETIRED: usize = usize::MAX;

/// The policy-independent state of a fused kernel: forest geometry, the
/// lane layout, the MRA and way-tag lanes, and the miss tallies. Update
/// rules read and write it through [`Policy::update`].
#[derive(Debug, Clone)]
pub struct Forest {
    /// Lane widths: the reported associativities above 1, ascending
    /// consecutive powers of two (associativity 1 is the MRA lane).
    pub(crate) widths: Vec<usize>,
    /// Offset of each lane inside a node's region, for policies that lay
    /// the lanes out back to back.
    pub(crate) lane_off: Vec<usize>,
    /// Logical way-tag entries per node (what snapshots carry).
    pub(crate) region: usize,
    /// Allocated way-tag entries per node (the region, line-padded when the
    /// policy asks for it).
    pub(crate) alloc: usize,
    /// Node-index base per level plus a final total.
    pub(crate) node_off: Vec<usize>,
    /// `(1 << set_bits) - 1` per level.
    pub(crate) set_mask: Vec<u64>,
    /// The MRA and way-tag lanes, at the arena's current tag width.
    pub(crate) lanes: TagLanes,
    /// Misses per `(level, lane)`, level-major, `widths.len().max(1)` per
    /// level (an assoc-1-only forest keeps a nonzero stride).
    pub(crate) misses: Vec<u64>,
    /// Direct-mapped misses per level (from the shared MRA comparisons).
    pub(crate) dm_misses: Vec<u64>,
}

impl Forest {
    /// Total nodes over every level.
    pub(crate) fn nodes(&self) -> usize {
        *self.node_off.last().expect("at least one level")
    }

    /// The number of valid (non-sentinel) tags in `node`'s allocated region.
    pub(crate) fn valid_ways(&self, node: usize) -> u32 {
        match &self.lanes {
            TagLanes::Narrow(l) => l.valid_ways(node, self.alloc),
            TagLanes::Wide(l) => l.valid_ways(node, self.alloc),
        }
    }
}

/// The runtime lane layout.
#[derive(Debug, Clone, Copy)]
struct Shape<'a> {
    widths: &'a [usize],
    lane_off: &'a [usize],
}

impl Shape<'_> {
    /// Number of lanes: `NLANES` under a const shape, else the runtime
    /// count.
    #[inline(always)]
    fn nlanes<const FIRST: usize, const NLANES: usize>(self) -> usize {
        debug_assert!(NLANES == 0 || NLANES == self.widths.len());
        if FIRST == 0 {
            self.widths.len()
        } else {
            NLANES
        }
    }

    /// Lane `k`'s `(width, offset)`. Under a const shape (lanes are
    /// consecutive powers of two from `FIRST`) lane `k` is `FIRST << k`
    /// ways at offset `FIRST·(2^k − 1)`, both compile-time constants.
    #[inline(always)]
    fn lane<const FIRST: usize>(self, k: usize) -> (usize, usize) {
        if FIRST == 0 {
            (self.widths[k], self.lane_off[k])
        } else {
            (FIRST << k, FIRST * ((1 << k) - 1))
        }
    }
}

/// One node evaluation as an update rule sees it: the node, its way-tag
/// region (at tag width `T`) and its level's miss tallies, as slices the
/// walk hoisted out of the forest (so stores through them never force the
/// forest's fields to be reloaded); the requested block; and the lane
/// layout, constant under a const shape (`FIRST`, `NLANES`).
///
/// The site also finds the block: [`Site::lookup`] and [`Site::way`] /
/// [`Site::find`] are the one lane lookup every update rule uses, so no
/// rule scans tags itself.
#[derive(Debug)]
pub struct Site<'a, S, T, const FIRST: usize, const NLANES: usize> {
    /// Forest-global node index.
    pub(crate) node: usize,
    /// The node's way-tag region (the allocated length).
    pub(crate) region: &'a mut [T],
    /// The level's misses, one per lane.
    pub(crate) misses: &'a mut [u64],
    /// The requested block, at the arena's tag width.
    pub(crate) block: T,
    /// The scan backend.
    scan: S,
    /// The lane layout.
    shape: Shape<'a>,
}

/// A needle's lookup in one node's region ([`Site::lookup`]): when the
/// region fits one 64-tag mask, its needle mask and, with `SENTINEL`, its
/// sentinel mask, each built once for every lane; otherwise only the
/// needle, and each lane is scanned on its own.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lookup<T, const SENTINEL: bool> {
    needle: T,
    hits: u64,
    invalid: u64,
}

impl<S: TagScan, T: Tag, const FIRST: usize, const NLANES: usize> Site<'_, S, T, FIRST, NLANES> {
    /// Number of lanes, a constant under a const shape.
    #[inline(always)]
    pub(crate) fn nlanes(&self) -> usize {
        self.shape.nlanes::<FIRST, NLANES>()
    }

    /// Lane `k`'s `(width, offset)` in the region, constants under a const
    /// shape.
    #[inline(always)]
    pub(crate) fn lane(&self, k: usize) -> (usize, usize) {
        self.shape.lane::<FIRST>(k)
    }

    /// Whether the region fits one mask. The region's length, and so this
    /// choice, is a compile-time constant under every const shape (at most
    /// 32 tags); a runtime shape decides per evaluation.
    #[inline(always)]
    fn one_mask(&self) -> bool {
        self.region.len() <= 64
    }

    /// Looks `needle` up in every lane at once: masks the whole region
    /// against it (and, with `SENTINEL`, against the sentinel) when the
    /// region fits one mask.
    #[inline(always)]
    pub(crate) fn lookup<const SENTINEL: bool>(&self, needle: T) -> Lookup<T, SENTINEL> {
        let (mut hits, mut invalid) = (0, 0);
        if self.one_mask() {
            hits = T::mask(self.scan, self.region, needle);
            if SENTINEL {
                invalid = T::mask(self.scan, self.region, T::SENTINEL);
            }
        }
        Lookup {
            needle,
            hits,
            invalid,
        }
    }

    /// The needle's way in the lane of `w` ways at `off`, if it is there.
    #[inline(always)]
    pub(crate) fn way<const SENTINEL: bool>(
        &self,
        found: &Lookup<T, SENTINEL>,
        off: usize,
        w: usize,
    ) -> Option<usize> {
        if self.one_mask() {
            window_match(found.hits, off, w)
        } else {
            first_match(self.scan, &self.region[off..off + w], found.needle)
        }
    }

    /// The needle's way in the lane of `w` ways at `off`, or the lane's
    /// valid-prefix length when it is not there.
    #[inline(always)]
    pub(crate) fn find(&self, found: &Lookup<T, true>, off: usize, w: usize) -> LaneScan {
        if self.one_mask() {
            window_scan(found.hits, found.invalid, off, w)
        } else {
            let lane = &self.region[off..off + w];
            lane_scan(self.scan, lane, found.needle, T::SENTINEL)
        }
    }
}

/// The allocated region length `alloc`, a constant under a const shape.
#[inline(always)]
fn const_alloc<P: Policy, const FIRST: usize, const NLANES: usize>(alloc: usize) -> usize {
    if FIRST == 0 {
        return alloc;
    }
    let shaped = alloc_len::<P>(FIRST * ((1 << NLANES) - 1), FIRST << (NLANES - 1));
    debug_assert_eq!(shaped, alloc);
    shaped
}

/// Allocated tag entries per node for lanes summing to `stride` ways whose
/// widest is `widest` ways.
#[inline(always)]
fn alloc_len<P: Policy>(stride: usize, widest: usize) -> usize {
    let region = P::region(stride as u64, widest as u64) as usize;
    if P::PAD {
        padded_stride(region)
    } else {
        region
    }
}

/// A replacement policy as the arena sees it: its per-node lanes and their
/// update rule. Implemented by `Fifo`, `Lru`, `Plru` and `Slru`.
pub trait Policy: Clone + fmt::Debug + Sized {
    /// The policy simulated.
    const POLICY: TreePolicy;
    /// Snapshot format version written; every version from 1 up decodes.
    const VERSION: u8;
    /// The first snapshot version whose way-tag regions are sparse
    /// ([`encode_region`]); older versions carry every word of them.
    const SPARSE: u8;
    /// Indices into the canonical counter order ([`counter_slots`]) of the
    /// counters the snapshot carries.
    const COUNTERS: &'static [usize];
    /// The counters a `version` image carries, as [`Policy::COUNTERS`]
    /// lists the current version's; [`RETIRED`] marks a retired one.
    fn counters(version: u8) -> &'static [usize] {
        let _ = version;
        Self::COUNTERS
    }
    /// Whether the snapshot carries the previous block (the duplicate
    /// elision state).
    const ELISION: bool = true;
    /// Whether node regions are padded to whole 8-tag groups
    /// ([`padded_stride`]); the FIFO kernel sets it.
    const PAD: bool = false;
    /// Whether one lane answers every associativity (the LRU stack), so
    /// every per-pass counter view is the aggregate one.
    const STACK: bool = false;
    /// `log2` of the widest associativity one lane can hold.
    const MAX_ASSOC_BITS: u32 = u32::BITS - 1;

    /// Logical way-tag entries per node for lanes summing to `stride` ways,
    /// the widest `widest` ways.
    fn region(stride: u64, widest: u64) -> u64;
    /// Builds the policy's per-node lanes for `forest`.
    fn new(forest: &Forest, instrument: bool) -> Self;
    /// Heap bytes of the policy's own lanes.
    fn footprint(&self) -> usize;

    /// The policy's lanes as the batch loop uses them: slices split out
    /// of the lanes once per batch, so they stay in registers across
    /// requests and levels instead of being reloaded after every store.
    type Walk<'a>
    where
        Self: 'a;
    /// Opens a batch's view of the lanes under `opts`.
    fn walk(&mut self, opts: &DewOptions) -> Self::Walk<'_>;
    /// Per-request hook, before the walk.
    #[inline(always)]
    fn begin<const INSTRUMENT: bool>(_: &mut Self::Walk<'_>) {}
    /// The MRA comparison at `node` matched: whether the walk stops here.
    fn mra_stop<const INSTRUMENT: bool>(w: &mut Self::Walk<'_>, node: usize) -> bool;
    /// Updates the node at `at` for its block (at the arena's tag width),
    /// finding the block through the site's lane lookup. The MRA lane and
    /// the direct-mapped tally are already settled; `mra_hit` says whether
    /// the node's MRA matched (and the walk did not stop). Work goes to
    /// `work` (the request's aggregate) and `lanes` (per lane),
    /// instrumented only.
    fn update<S: TagScan, T: Tag, const FIRST: usize, const NLANES: usize, const INSTRUMENT: bool>(
        w: &mut Self::Walk<'_>,
        at: Site<'_, S, T, FIRST, NLANES>,
        lanes: &mut [DewCounters],
        work: &mut DewCounters,
        mra_hit: bool,
    );

    /// The snapshot flags byte.
    fn flags(opts: &DewOptions, instrument: bool) -> u8;
    /// The policy's options and instrumentation from a snapshot flags byte.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] for flags no encoder writes.
    fn parse_flags(flags: u8) -> Result<(DewOptions, bool), SnapshotError>;
    /// Snapshot bytes of the policy's tallies (fixed) and lanes (per node,
    /// way tags excluded) for dimensions `d`; [`body_len`] adds the shared
    /// state and the way tags.
    fn body(d: ArenaDims, instrument: bool, version: u8) -> (u64, u64);
    /// Writes the policy's tallies (after the counters).
    fn encode_tallies(&self, lanes: &[DewCounters], instrument: bool, out: &mut Vec<u8>);
    /// Reads what [`Policy::encode_tallies`] wrote (any supported
    /// `version`).
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] for truncated input.
    fn decode_tallies(
        &mut self,
        lanes: &mut [DewCounters],
        shared: &DewCounters,
        instrument: bool,
        version: u8,
        cur: &mut Cursor<'_>,
    ) -> Result<(), SnapshotError>;
    /// Writes the policy's lanes (after the way tags).
    fn encode_lanes(&self, f: &Forest, instrument: bool, out: &mut Vec<u8>);
    /// Reads what [`Policy::encode_lanes`] wrote (any supported `version`),
    /// checked against the image's MRA and way tags in `tags`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] for truncated or out-of-range input.
    fn decode_lanes(
        &mut self,
        f: &Forest,
        tags: &Lanes<u64>,
        instrument: bool,
        version: u8,
        cur: &mut Cursor<'_>,
    ) -> Result<(), SnapshotError>;
}

/// Writes each lane's search comparisons (instrumented tree-PLRU and SLRU
/// images).
pub(crate) fn encode_search_cmps(lanes: &[DewCounters], instrument: bool, out: &mut Vec<u8>) {
    if instrument {
        for lc in lanes {
            put_u64(out, lc.search_comparisons);
        }
    }
}

/// Reads [`encode_search_cmps`]; every evaluation the MRA did not settle
/// searched every lane, and the aggregate comparisons are one MRA
/// comparison per evaluation plus every lane's search comparisons.
///
/// # Errors
///
/// [`SnapshotError::Corrupt`] when the lanes' comparisons do not add up to
/// the aggregate.
pub(crate) fn decode_search_cmps(
    lanes: &mut [DewCounters],
    shared: &DewCounters,
    instrument: bool,
    cur: &mut Cursor<'_>,
) -> Result<(), SnapshotError> {
    if instrument {
        let mut total = Some(shared.node_evaluations);
        for lc in lanes {
            let cmps = cur.u64()?;
            total = total.and_then(|t| t.checked_add(cmps));
            *lc = DewCounters {
                // `check_walk` has refused images with more stops than
                // evaluations.
                searches: shared.node_evaluations - shared.mra_stops,
                search_comparisons: cmps,
                tag_comparisons: cmps,
                ..DewCounters::new()
            };
        }
        if total != Some(shared.tag_comparisons) {
            return Err(SnapshotError::Corrupt(
                "lane comparisons do not add up to the aggregate",
            ));
        }
    }
    Ok(())
}

/// Refuses restored request and walk counters that no run produces: at
/// most every request is elided, an MRA stop ends one evaluation, and a
/// request that is not elided evaluates at most one node per level. The
/// lane tallies are decoded from these and every later access adds to
/// them, so a damaged image must stop here rather than underflow there.
fn check_walk(c: &DewCounters, levels: u64) -> Result<(), SnapshotError> {
    let walked = c.accesses.checked_sub(c.duplicate_skips);
    let bounded = walked.is_some_and(|w| c.node_evaluations <= w.saturating_mul(levels));
    if !bounded || c.mra_stops > c.node_evaluations {
        return Err(SnapshotError::Corrupt(
            "work counters break the walk identities",
        ));
    }
    Ok(())
}

/// The bytes a `version` image of `P` needs after its header, as
/// `(fixed, per level, per node)` for dimensions `d`: the counters, the
/// policy's tallies and the previous block; the misses per `(level, lane)`
/// and the direct-mapped misses; the MRA tag, the way tags and the
/// policy's own lanes. A sparse region counts at its least, one bitmap
/// word per 64 region words, so this is a lower bound for the versions
/// since [`Policy::SPARSE`] and exact for the older, dense ones.
fn body_len<P: Policy>(d: ArenaDims, instrument: bool, version: u8) -> (u64, u64, u64) {
    let (tallies, per_node) = P::body(d, instrument, version);
    let counters = P::counters(version).len() as u64 + u64::from(P::ELISION);
    let region = P::region(d.stride, d.width);
    let tags = if version >= P::SPARSE {
        region.div_ceil(64)
    } else {
        region
    };
    (
        8 * counters + tallies,
        8 * (d.lanes.max(1) + 1),
        8 * (1 + tags) + per_node,
    )
}

/// Writes a node's way-tag region sparsely: each 64-word chunk as an
/// occupancy bitmap (bit `i` set iff word `i` is not the sentinel), then
/// the chunk's set words in order, as 64-bit words at either tag width.
/// Ways that were never filled, most of a checkpointed forest's deep
/// levels, cost one bit each.
fn encode_region<T: Tag>(region: &[T], out: &mut Vec<u8>) {
    for chunk in region.chunks(64) {
        let occupied = chunk
            .iter()
            .rev()
            .fold(0u64, |bits, &t| bits << 1 | u64::from(t != T::SENTINEL));
        put_u64(out, occupied);
        for &t in chunk.iter().filter(|&&t| t != T::SENTINEL) {
            put_u64(out, t.widen());
        }
    }
}

/// Writes the MRA lane (widened) and every node's way-tag region at the
/// logical stride: regions are allocated at the padded stride, and the
/// padding is an immutable all-sentinel tail.
fn encode_tags<T: Tag>(f: &Forest, lanes: &Lanes<T>, out: &mut Vec<u8>) {
    for &t in &lanes.mra {
        put_u64(out, t.widen());
    }
    for node in 0..f.nodes() {
        encode_region(&lanes.tags[node * f.alloc..][..f.region], out);
    }
}

/// Reads what [`encode_region`] wrote into an all-sentinel `region`.
///
/// # Errors
///
/// [`SnapshotError::Corrupt`] for a bitmap bit past the region or a set
/// bit whose word is the sentinel (no encoder writes either, so every
/// kernel state has exactly one image), and for truncated input.
fn decode_region(region: &mut [u64], cur: &mut Cursor<'_>) -> Result<(), SnapshotError> {
    for chunk in region.chunks_mut(64) {
        let mut occupied = cur.u64()?;
        if chunk.len() < 64 && occupied >> chunk.len() != 0 {
            return Err(SnapshotError::Corrupt("way bitmap runs past the region"));
        }
        while occupied != 0 {
            let t = cur.u64()?;
            if t == INVALID_TAG {
                return Err(SnapshotError::Corrupt("way bitmap marks an invalid way"));
            }
            chunk[occupied.trailing_zeros() as usize] = t;
            occupied &= occupied - 1;
        }
    }
    Ok(())
}

/// Records one lane's search of the tree-PLRU and SLRU update rules. The
/// tallies are derived arithmetically -- a hit at depth `i` would have
/// inspected `i + 1` valid tags, a miss the whole valid prefix -- so they
/// stay bit-identical to the sequential scalar scan's.
#[inline(always)]
pub(crate) fn search_work(lane: &mut DewCounters, work: &mut DewCounters, found: LaneScan) {
    let spent = match found {
        LaneScan::Hit(i) => i + 1,
        LaneScan::Miss { valid_len } => valid_len,
    } as u64;
    lane.searches += 1;
    lane.search_comparisons += spent;
    lane.tag_comparisons += spent;
    work.tag_comparisons += spent;
}

/// A fused single-pass simulator: every power-of-two set count in a range
/// and every power-of-two associativity in a range, at one block size,
/// under policy `P`. See the module docs; the public names are
/// [`crate::MultiAssocTree`], [`crate::lru_tree::LruTreeSimulator`],
/// [`crate::plru_tree::PlruTreeSimulator`] and
/// [`crate::slru_tree::SlruTreeSimulator`].
#[derive(Debug, Clone)]
pub struct Arena<P: Policy> {
    /// Geometry; `assoc()` reports the widest simulated associativity.
    pass: PassConfig,
    /// Every reported associativity, ascending (includes 1 when the range
    /// starts there; associativity-1 results come from the MRA lane).
    assoc_list: Vec<u32>,
    forest: Forest,
    /// The policy's own lanes and options.
    pub(crate) lanes: P,
    /// Aggregate work counters: real work performed, MRA work counted once.
    counters: DewCounters,
    /// Per-lane work, indexed like the lanes (zero unless instrumented).
    lane_work: Vec<DewCounters>,
    /// Block of the previous request, for the duplicate elision.
    prev_block: u64,
    /// The behaviour toggles (`options.policy` is `P::POLICY`).
    options: DewOptions,
    /// Whether the kernel maintains the work counters.
    instrument: bool,
    /// The tag-scan backend the batch loop runs on.
    backend: KernelBackend,
}

impl<P: Policy> Arena<P> {
    /// Builds the kernel for set counts `2^set_bits.0 ..= 2^set_bits.1` and
    /// associativities `2^assoc_bits.0 ..= 2^assoc_bits.1` (inclusive `log2`
    /// ranges, so a sweep whose space starts above associativity 1 does not
    /// pay for lanes it will not report) at block size `2^block_bits` bytes,
    /// with every work counter live when `instrument` is set. Miss counts
    /// are bit-identical either way (property-tested). This is the entry
    /// point the fused sweep uses for its per-block-size passes.
    ///
    /// # Errors
    ///
    /// [`DewError::UnsoundOptions`] when `options` fails
    /// [`DewOptions::validate`] or names another policy, geometry errors as
    /// [`PassConfig::new`], [`DewError::BadAssoc`] for an associativity the
    /// policy cannot hold, and [`DewError::EmptySetRange`] when the
    /// associativity range is inverted.
    pub fn new(
        block_bits: u32,
        set_bits: (u32, u32),
        assoc_bits: (u32, u32),
        options: DewOptions,
        instrument: bool,
    ) -> Result<Self, DewError> {
        Self::build(block_bits, set_bits, assoc_bits, options, instrument, true)
    }

    /// [`Arena::new`], with cold narrow lanes when `cold` is set and empty
    /// wide ones (for a decoder to fill) otherwise.
    fn build(
        block_bits: u32,
        set_bits: (u32, u32),
        assoc_bits: (u32, u32),
        options: DewOptions,
        instrument: bool,
        cold: bool,
    ) -> Result<Self, DewError> {
        options.validate()?;
        if options.policy != P::POLICY {
            return Err(DewError::UnsoundOptions(
                "the options name another policy than the kernel simulates",
            ));
        }
        if assoc_bits.1 > P::MAX_ASSOC_BITS {
            let widest = 1u32.checked_shl(assoc_bits.1).unwrap_or(u32::MAX);
            return Err(DewError::BadAssoc(widest));
        }
        if assoc_bits.0 > assoc_bits.1 {
            return Err(DewError::EmptySetRange {
                min_set_bits: assoc_bits.0,
                max_set_bits: assoc_bits.1,
            });
        }
        let widest = 1u32 << assoc_bits.1;
        let pass = PassConfig::new(block_bits, set_bits.0, set_bits.1, widest)?;
        let widths: Vec<usize> = (assoc_bits.0.max(1)..=assoc_bits.1)
            .map(|b| 1 << b)
            .collect();
        let lane_off = widths
            .iter()
            .scan(0, |off, &w| {
                *off += w;
                Some(*off - w)
            })
            .collect();
        let stride: usize = widths.iter().sum();
        let region = P::region(stride as u64, u64::from(widest)) as usize;
        let alloc = alloc_len::<P>(stride, widest as usize);
        let mut node_off = Vec::with_capacity(pass.num_levels() as usize + 1);
        let mut set_mask = Vec::with_capacity(pass.num_levels() as usize);
        let mut total = 0usize;
        for bits in set_bits.0..=set_bits.1 {
            node_off.push(total);
            set_mask.push((1u64 << bits) - 1);
            total += 1usize << bits;
        }
        node_off.push(total);
        let levels = set_mask.len();
        let lanes = if cold {
            TagLanes::Narrow(Lanes::cold(total, alloc))
        } else {
            TagLanes::Wide(Lanes {
                mra: Vec::new(),
                tags: Vec::new(),
            })
        };
        let forest = Forest {
            misses: vec![0; levels * widths.len().max(1)],
            widths,
            lane_off,
            region,
            alloc,
            node_off,
            set_mask,
            lanes,
            dm_misses: vec![0; levels],
        };
        Ok(Arena {
            pass,
            assoc_list: (assoc_bits.0..=assoc_bits.1).map(|b| 1 << b).collect(),
            lane_work: vec![DewCounters::new(); forest.widths.len()],
            lanes: P::new(&forest, instrument),
            forest,
            counters: DewCounters::new(),
            prev_block: INVALID_TAG,
            options,
            instrument,
            backend: KernelBackend::active(),
        })
    }

    /// The paper's single pass: every set count of `pass` at the one
    /// associativity `pass.assoc()`, plus the direct-mapped results of the
    /// MRA lane. Read it back through [`Arena::pass_results`] and
    /// [`Arena::pass_counters`] at `pass.assoc()`.
    ///
    /// # Errors
    ///
    /// As [`Arena::new`].
    pub fn for_pass(
        pass: PassConfig,
        options: DewOptions,
        instrument: bool,
    ) -> Result<Self, DewError> {
        let sets = (pass.min_set_bits(), pass.max_set_bits());
        let bits = pass.assoc().trailing_zeros();
        Arena::new(pass.block_bits(), sets, (bits, bits), options, instrument)
    }

    /// The simulated associativities, ascending.
    #[must_use]
    pub fn assoc_list(&self) -> &[u32] {
        &self.assoc_list
    }

    /// The forest geometry (`assoc()` reports the widest associativity).
    #[must_use]
    pub fn pass(&self) -> &PassConfig {
        &self.pass
    }

    /// `true` when this kernel maintains the work counters.
    #[must_use]
    pub fn is_instrumented(&self) -> bool {
        self.instrument
    }

    /// Aggregate work counters: real work performed, with the per-node MRA
    /// comparison counted once however many lanes ride along. The fast
    /// kernel maintains only `accesses` and `duplicate_skips`. For FIFO
    /// the ladder work is summed over the lanes, so the
    /// [`DewCounters::is_consistent`] identity holds for the fanned-out
    /// [`Arena::pass_counters`] views, not for this aggregate.
    #[must_use]
    pub fn counters(&self) -> &DewCounters {
        &self.counters
    }

    /// The tag-scan backend the batch loop runs on
    /// ([`KernelBackend::active`] at construction).
    #[must_use]
    pub fn scan_backend(&self) -> KernelBackend {
        self.backend
    }

    /// Pins the batch loop to `backend`. Results, counters and snapshots
    /// are bit-identical under every backend (property-tested), so forcing
    /// [`KernelBackend::Scalar`] on one of two twin kernels turns any trace
    /// into an oracle check.
    ///
    /// # Errors
    ///
    /// [`DewError::UnsoundOptions`] when `backend` is not available on this
    /// build and machine (see [`KernelBackend::is_available`]).
    pub fn force_scan_backend(&mut self, backend: KernelBackend) -> Result<(), DewError> {
        if !backend.is_available() {
            return Err(DewError::UnsoundOptions(
                "requested scan backend is not available on this build/machine",
            ));
        }
        self.backend = backend;
        Ok(())
    }

    /// Simulates one record (only the address matters).
    pub fn step_record(&mut self, record: Record) {
        self.step(record.addr);
    }

    /// Simulates every record of an iterator.
    pub fn run<I>(&mut self, records: I)
    where
        I: IntoIterator<Item = Record>,
    {
        for r in records {
            self.step(r.addr);
        }
    }

    /// Simulates one request by byte address.
    ///
    /// # Panics
    ///
    /// Panics if the block number equals the internal sentinel
    /// (`u64::MAX`: only the top address with 1-byte blocks). A block at
    /// or above `u32::MAX` is no error: it widens the kernel's tags from 32
    /// to 64 bits, once.
    pub fn step(&mut self, addr: u64) {
        self.step_block(addr >> self.pass.block_bits());
    }

    /// Simulates one request given as a pre-decoded block number
    /// (`addr >> block_bits` for this kernel's block size): a one-block
    /// [`Arena::run_blocks`] batch, on the same scan backend.
    ///
    /// # Panics
    ///
    /// As [`Arena::step`], if `block` equals the internal sentinel.
    pub fn step_block(&mut self, block: u64) {
        self.run_blocks(std::slice::from_ref(&block));
    }

    /// Simulates a batch of pre-decoded block numbers (see
    /// `dew_trace::decode_blocks` / `dew_trace::BlockChunks`): the sweep's
    /// drive path. Running one batch or the same blocks split across many
    /// batches is bit-identical. The first block at or above `u32::MAX`
    /// widens the kernel's tags from 32 to 64 bits in place, once, wherever
    /// it falls; no result, counter or snapshot depends on where.
    ///
    /// # Panics
    ///
    /// As [`Arena::step`], if any block equals the internal sentinel.
    pub fn run_blocks(&mut self, blocks: &[u64]) {
        match self.backend {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            KernelBackend::Avx2 => {
                // SAFETY: `backend` is only `Avx2` after runtime detection
                // (`KernelBackend::is_available` gates the constructor and
                // `force_scan_backend`).
                #[allow(unsafe_code)]
                unsafe {
                    self.run_blocks_avx2(blocks);
                }
            }
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            KernelBackend::Sse2 => self.drive(crate::simd::Sse2Scan, blocks),
            _ => self.drive(ScalarScan, blocks),
        }
    }

    /// The AVX2 compilation root of the batch loop: rustc does not inline
    /// feature-gated code into plain callers, so this is where the whole
    /// loop gets compiled *as* AVX2 code.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    unsafe fn run_blocks_avx2(&mut self, blocks: &[u64]) {
        self.drive(crate::simd::Avx2Scan, blocks);
    }

    /// Lane-shape and instrumentation dispatch: one selection per batch.
    #[inline(always)]
    fn drive<S: TagScan>(&mut self, scan: S, blocks: &[u64]) {
        let shape = (
            self.forest.widths.first().copied().unwrap_or(0),
            self.forest.widths.len(),
        );
        with_lane_shape!(shape, |FIRST, NLANES| if self.instrument {
            self.drive_widths::<S, FIRST, NLANES, true>(scan, blocks)
        } else {
            self.drive_widths::<S, FIRST, NLANES, false>(scan, blocks)
        })
    }

    /// Tag-width dispatch: narrow lanes run the batch until a block does
    /// not fit them, are promoted to 64 bits in place, and the wide loop
    /// runs the rest (that block included).
    #[inline(always)]
    fn drive_widths<S: TagScan, const FIRST: usize, const NLANES: usize, const I: bool>(
        &mut self,
        scan: S,
        blocks: &[u64],
    ) {
        let mut rest = blocks;
        if let TagLanes::Narrow(_) = self.forest.lanes {
            let done = self.drive_shaped::<S, u32, FIRST, NLANES, I>(scan, rest);
            if done == rest.len() {
                return;
            }
            self.forest.lanes.promote();
            rest = &rest[done..];
        }
        self.drive_shaped::<S, u64, FIRST, NLANES, I>(scan, rest);
    }

    /// The batch loop. Everything a walk touches is split out of the kernel
    /// once per batch, so the lanes stay in registers across requests and
    /// levels. Per request: request accounting, duplicate elision, then one
    /// MRA comparison per level from the coarsest down, stopping where the
    /// policy allows (Property 2) and otherwise handing the node to the
    /// update rule. Instrumented work accumulates in a local and is flushed
    /// once per request: bumping the same counter fields from every level
    /// was measured to cost ~10% of the instrumented FIFO kernel's runtime
    /// in store-forwarding chains.
    ///
    /// Runs at tag width `T`, which the lanes must be at, and returns how
    /// many blocks it consumed: all of them, or up to the first that does
    /// not fit `T` (narrow lanes only; a wide kernel panics there instead).
    #[inline(always)]
    fn drive_shaped<S: TagScan, T: Tag, const FIRST: usize, const NLANES: usize, const I: bool>(
        &mut self,
        scan: S,
        blocks: &[u64],
    ) -> usize {
        let alloc = const_alloc::<P, FIRST, NLANES>(self.forest.alloc);
        let Arena {
            forest: f,
            lanes,
            lane_work,
            counters,
            prev_block,
            options,
            ..
        } = self;
        let elide = options.dup_elision;
        let mut w = lanes.walk(options);
        let lane_work: &mut [DewCounters] = lane_work;
        let shape = Shape {
            widths: &f.widths,
            lane_off: &f.lane_off,
        };
        // A constant chunk length under a const shape, so the update rules
        // index a level's misses without bounds checks.
        let stride = shape.nlanes::<FIRST, NLANES>().max(1);
        let (set_mask, node_off) = (&f.set_mask[..], &f.node_off[..]);
        let lanes = T::lanes(&mut f.lanes).expect("the lanes are at the driven width");
        let (mra, tags): (&mut [T], &mut [T]) = (&mut lanes.mra, &mut lanes.tags);
        let (misses, dm_misses) = (&mut f.misses[..], &mut f.dm_misses[..]);
        for (i, &block) in blocks.iter().enumerate() {
            let Some(tag) = T::narrow(block) else {
                assert_ne!(
                    block, INVALID_TAG,
                    "block {block:#x} exceeds the supported range"
                );
                return i;
            };
            counters.accesses += 1;
            if elide {
                if block == *prev_block {
                    // The block is the MRA of every set on its path, and
                    // re-handling it changes no policy's state.
                    counters.duplicate_skips += 1;
                    continue;
                }
                *prev_block = block;
            }
            let mut work = DewCounters::new();
            P::begin::<I>(&mut w);
            let levels = set_mask
                .iter()
                .zip(node_off)
                .zip(misses.chunks_exact_mut(stride).zip(dm_misses.iter_mut()));
            for ((&mask, &off), (misses, dm_misses)) in levels {
                let node = off + (block & mask) as usize;
                if I {
                    work.node_evaluations += 1;
                    work.tag_comparisons += 1;
                }
                let mra = &mut mra[node];
                let mra_hit = *mra == tag;
                if mra_hit {
                    if P::mra_stop::<I>(&mut w, node) {
                        if I {
                            work.mra_stops += 1;
                        }
                        break;
                    }
                } else {
                    *dm_misses += 1;
                    *mra = tag;
                }
                let at = Site {
                    node,
                    region: &mut tags[node * alloc..][..alloc],
                    misses,
                    block: tag,
                    scan,
                    shape,
                };
                P::update::<S, T, FIRST, NLANES, I>(&mut w, at, lane_work, &mut work, mra_hit);
            }
            if I {
                *counters += work;
            }
        }
        blocks.len()
    }

    /// Per-configuration miss counts (associativity 1, when simulated,
    /// comes from the shared direct-mapped accounting).
    #[must_use]
    pub fn results(&self) -> AllAssocResults {
        let f = &self.forest;
        let include_dm = self.assoc_list.first() == Some(&1);
        let (nk, stride) = (f.widths.len(), f.widths.len().max(1));
        let misses = (0..f.dm_misses.len())
            .map(|li| {
                let mut row = Vec::with_capacity(self.assoc_list.len());
                if include_dm {
                    row.push(f.dm_misses[li]);
                }
                row.extend_from_slice(&f.misses[li * stride..li * stride + nk]);
                row
            })
            .collect();
        AllAssocResults::new(
            self.pass,
            self.counters.accesses,
            self.assoc_list.clone(),
            misses,
        )
    }

    /// Fans the fused state out into the [`PassResults`] a standalone
    /// `(block size, assoc)` pass would have produced, or `None` when
    /// `assoc` was not simulated. This is how [`crate::SweepRequest`] keeps
    /// its per-pass result shape while traversing the trace once per block
    /// size.
    #[must_use]
    pub fn pass_results(&self, assoc: u32) -> Option<PassResults> {
        if !self.assoc_list.contains(&assoc) {
            return None;
        }
        let p = &self.pass;
        let pass =
            PassConfig::new(p.block_bits(), p.min_set_bits(), p.max_set_bits(), assoc).ok()?;
        let f = &self.forest;
        let stride = f.widths.len().max(1);
        let k = f.widths.iter().position(|&w| w == assoc as usize);
        let levels = f
            .dm_misses
            .iter()
            .enumerate()
            .map(|(li, &dm)| {
                let misses = match k {
                    Some(k) => f.misses[li * stride + k],
                    None => dm, // assoc 1: the MRA lane is the simulation
                };
                LevelResult::new(p.min_set_bits() + li as u32, misses, dm)
            })
            .collect();
        Some(PassResults::new(pass, self.counters.accesses, levels))
    }

    /// The [`DewCounters`] view a standalone pass at `assoc` is entitled to
    /// report, or `None` when `assoc` was not simulated. Walk-level
    /// quantities (evaluations, MRA stops, the per-evaluation MRA
    /// comparison) are shared verbatim; search and ladder quantities come
    /// from that associativity's lane. At associativity 1 the MRA
    /// comparison *is* the simulation: every evaluation it did not settle
    /// counts as a one-comparison search. Under LRU one lane answers every
    /// associativity, so every view is the aggregate. The
    /// [`DewCounters::is_consistent`] identity holds for every view. The
    /// fast kernel reports only the request-level counters.
    #[must_use]
    pub fn pass_counters(&self, assoc: u32) -> Option<DewCounters> {
        if !self.assoc_list.contains(&assoc) {
            return None;
        }
        let c = &self.counters;
        let requests = DewCounters {
            accesses: c.accesses,
            duplicate_skips: c.duplicate_skips,
            ..DewCounters::new()
        };
        if !self.instrument {
            return Some(requests);
        }
        let k = self.forest.widths.iter().position(|&w| w == assoc as usize);
        let lane = match k {
            Some(k) if !P::STACK => self.lane_work[k],
            _ => {
                let searches = c.node_evaluations - c.mra_stops;
                let cmps = if P::STACK {
                    c.tag_comparisons - c.node_evaluations
                } else {
                    searches
                };
                DewCounters {
                    searches,
                    search_comparisons: cmps,
                    tag_comparisons: cmps,
                    ..DewCounters::new()
                }
            }
        };
        Some(DewCounters {
            accesses: c.accesses,
            duplicate_skips: c.duplicate_skips,
            node_evaluations: c.node_evaluations,
            mra_stops: c.mra_stops,
            tag_comparisons: c.node_evaluations + lane.tag_comparisons,
            ..lane
        })
    }

    /// Actual heap footprint of the kernel's lanes in bytes (excludes
    /// counters and scratch): the MRA and way tags at their current width
    /// (4 bytes each until a block outgrows 32 bits, 8 after) plus the
    /// policy's own lanes.
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.forest.lanes.bytes() + self.lanes.footprint()
    }

    /// Serialises the complete kernel state (geometry, options, counters,
    /// every lane) under the policy's own magic. The checkpoint sidecars
    /// round-trip these buffers.
    #[must_use]
    pub fn to_snapshot(&self) -> Vec<u8> {
        let f = &self.forest;
        let dims = ArenaDims {
            lanes: f.widths.len() as u64,
            stride: f.widths.iter().sum::<usize>() as u64,
            width: u64::from(self.pass.assoc()),
        };
        // Reserved for every way valid, so the buffer never regrows; the
        // pages past what is written are never touched.
        let (fixed, per_level, per_node) = body_len::<P>(dims, self.instrument, P::VERSION);
        let dense = fixed as usize
            + f.set_mask.len() * per_level as usize
            + f.nodes() * (per_node as usize + 8 * f.region);
        let mut out = Vec::with_capacity(HEADER_LEN + dense);
        out.extend_from_slice(&magic(P::POLICY));
        out.push(P::VERSION);
        let p = &self.pass;
        for v in [
            p.block_bits(),
            p.min_set_bits(),
            p.max_set_bits(),
            self.assoc_list[0].trailing_zeros(),
            p.assoc().trailing_zeros(),
        ] {
            put_u32(&mut out, v);
        }
        out.push(P::flags(&self.options, self.instrument));
        let mut c = self.counters;
        let slots = counter_slots(&mut c);
        for &i in P::COUNTERS {
            put_u64(&mut out, *slots[i]);
        }
        self.lanes
            .encode_tallies(&self.lane_work, self.instrument, &mut out);
        if P::ELISION {
            put_u64(&mut out, self.prev_block);
        }
        for &v in f.misses.iter().chain(&f.dm_misses) {
            put_u64(&mut out, v);
        }
        // Tags are written at 64 bits whatever the width, so an image does
        // not depend on whether the kernel was promoted.
        match &f.lanes {
            TagLanes::Narrow(l) => encode_tags(f, l, &mut out),
            TagLanes::Wide(l) => encode_tags(f, l, &mut out),
        }
        self.lanes.encode_lanes(f, self.instrument, &mut out);
        debug_assert!(out.len() <= HEADER_LEN + dense);
        out
    }

    /// Restores a kernel from [`Arena::to_snapshot`] output. The snapshot
    /// is self-describing; continuing the restored kernel produces
    /// bit-identical results to the uninterrupted run (a property-tested
    /// invariant checkpoint resume relies on).
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] for foreign, truncated or internally inconsistent
    /// buffers; a valid buffer of another policy's kernel reports
    /// [`SnapshotError::PolicyMismatch`].
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut cur = Cursor::new(bytes);
        let found: [u8; 4] = cur.bytes(4)?.try_into().expect("4 bytes");
        let expected = magic(P::POLICY);
        if found != expected {
            // A sibling kernel's buffer is a policy mixup, not corruption.
            return Err(if MAGICS.iter().any(|&(_, m)| m == found) {
                SnapshotError::PolicyMismatch { expected, found }
            } else {
                SnapshotError::BadMagic
            });
        }
        let version = cur.u8()?;
        if !(1..=P::VERSION).contains(&version) {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let (block_bits, min_set_bits, max_set_bits) = (cur.u32()?, cur.u32()?, cur.u32()?);
        let assoc_bits = (cur.u32()?, cur.u32()?);
        let (opts, instrument) = P::parse_flags(cur.u8()?)?;
        let set_bits = (min_set_bits, max_set_bits);
        check_body_len(&cur, set_bits, assoc_bits, |d| {
            body_len::<P>(d, instrument, version)
        })?;
        let mut k = Arena::<P>::build(block_bits, set_bits, assoc_bits, opts, instrument, false)
            .map_err(|_| SnapshotError::Corrupt("invalid arena geometry"))?;
        for &i in P::counters(version) {
            let v = cur.u64()?;
            match counter_slots(&mut k.counters).into_iter().nth(i) {
                Some(slot) => *slot = v,
                None if v != 0 => return Err(SnapshotError::RetiredLink),
                None => {}
            }
        }
        check_walk(&k.counters, u64::from(k.pass.num_levels()))?;
        k.lanes
            .decode_tallies(&mut k.lane_work, &k.counters, instrument, version, &mut cur)?;
        if P::ELISION {
            k.prev_block = cur.u64()?;
        }
        let f = &mut k.forest;
        for v in f.misses.iter_mut().chain(&mut f.dm_misses) {
            *v = cur.u64()?;
        }
        // Decoded at 64 bits, checked by the policy, then narrowed when
        // every tag fits.
        let mut wide = Lanes::<u64>::cold(f.nodes(), f.alloc);
        for v in &mut wide.mra {
            *v = cur.u64()?;
        }
        for node in 0..f.nodes() {
            let region = &mut wide.tags[node * f.alloc..][..f.region];
            if version >= P::SPARSE {
                decode_region(region, &mut cur)?;
            } else {
                for v in region {
                    *v = cur.u64()?;
                }
            }
        }
        k.lanes
            .decode_lanes(&k.forest, &wide, instrument, version, &mut cur)?;
        if cur.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes(cur.remaining()));
        }
        k.forest.lanes = TagLanes::fit(wide);
        Ok(k)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    //! The sentinel, fan-out and bad-assoc checks, written once. The tests
    //! here run them for every policy in both modes; each policy module
    //! also runs them for its own policy under its own test names.

    use super::*;
    use crate::kernel::{FusedKernel, PolicyKernel};
    use crate::lru_tree::Lru;
    use crate::multi_assoc::Fifo;
    use crate::plru_tree::{Plru, MAX_PLRU_ASSOC};
    use crate::slru_tree::Slru;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn blocks(n: usize, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if i % 6 == 0 {
                    x % (1 << 10)
                } else {
                    x % 80
                }
            })
            .collect()
    }

    /// Every associativity's fanned-out pass agrees with the all-assoc
    /// view, and its counters are a consistent per-pass report.
    fn check_fan_out<P: Policy>(k: &Arena<P>, accesses: u64) {
        let all = k.results();
        for &assoc in k.assoc_list() {
            let pr = k.pass_results(assoc).expect("simulated");
            assert_eq!(pr.pass().assoc(), assoc);
            for set_bits in 1..=6u32 {
                let sets = 1 << set_bits;
                let at = |r: &AllAssocResults, a| r.misses(sets, a);
                assert_eq!(pr.misses(sets, assoc), at(&all, assoc), "{:?}", P::POLICY);
                assert_eq!(pr.misses(sets, 1), at(&all, 1), "DM via assoc={assoc}");
            }
            let c = k.pass_counters(assoc).expect("simulated");
            assert!(c.is_consistent(), "{:?} assoc={assoc}: {c}", P::POLICY);
            assert_eq!(c.accesses, accesses);
        }
        assert!(k.pass_results(16).is_none());
        assert!(k.pass_counters(16).is_none());
    }

    /// Runs a mixed trace through `policy`'s fused kernel in one mode and
    /// checks every pass's fan-out and counters.
    pub(crate) fn check_pass_fan_out(policy: TreePolicy, instrument: bool) {
        let trace = blocks(2500, 0x5EED_FA11);
        let options = DewOptions::for_policy(policy);
        let mut kernel = FusedKernel::build(3, (1, 6), (0, 3), options, instrument).expect("valid");
        kernel.run_blocks(&trace);
        let n = trace.len() as u64;
        match &kernel {
            FusedKernel::Fifo(k) => check_fan_out(k.as_ref(), n),
            FusedKernel::Lru(k) => check_fan_out(k.as_ref(), n),
            FusedKernel::Plru(k) => check_fan_out(k.as_ref(), n),
            FusedKernel::Slru(k) => check_fan_out(k.as_ref(), n),
        }
    }

    /// Feeds the reserved sentinel block to `policy`'s fused kernel in a
    /// batch; this panics.
    pub(crate) fn run_sentinel_batch(policy: TreePolicy, instrument: bool) {
        let options = DewOptions::for_policy(policy);
        let mut kernel = FusedKernel::build(0, (0, 1), (0, 1), options, instrument).expect("valid");
        kernel.run_blocks(&[0, 1, u64::MAX]);
    }

    #[test]
    fn pass_results_fan_out_matches_all_assoc_view() {
        for policy in TreePolicy::ALL {
            for instrument in [false, true] {
                check_pass_fan_out(policy, instrument);
            }
        }
    }

    #[test]
    fn sentinel_block_panics_in_batches() {
        for policy in TreePolicy::ALL {
            for instrument in [false, true] {
                let panic =
                    catch_unwind(AssertUnwindSafe(|| run_sentinel_batch(policy, instrument)))
                        .expect_err("the sentinel block must panic");
                let msg = panic.downcast_ref::<String>().expect("formatted message");
                assert!(
                    msg.contains("exceeds the supported range"),
                    "{policy}: {msg}"
                );
            }
        }
    }

    /// `policy`'s kernel refuses an inverted assoc range and lanes wider
    /// than the policy can hold (tree-PLRU's direction bits fill one word).
    pub(crate) fn check_bad_assoc_ranges(policy: TreePolicy) {
        let options = DewOptions::for_policy(policy);
        let inverted = FusedKernel::build(2, (0, 4), (3, 1), options, false);
        assert!(
            matches!(inverted, Err(DewError::EmptySetRange { .. })),
            "{policy}"
        );
        let (too_wide, reported) = match policy {
            TreePolicy::Plru => (MAX_PLRU_ASSOC.trailing_zeros() + 1, 2 * MAX_PLRU_ASSOC),
            _ => (u32::BITS, u32::MAX),
        };
        let wide = FusedKernel::build(2, (0, 4), (0, too_wide), options, false);
        assert!(
            matches!(wide, Err(DewError::BadAssoc(a)) if a == reported),
            "{policy}"
        );
    }

    /// `P`'s kernel refuses the options of every other policy, and takes
    /// its own.
    fn check_foreign_options<P: Policy>() {
        for policy in TreePolicy::ALL {
            let got = Arena::<P>::new(2, (0, 2), (0, 1), DewOptions::for_policy(policy), false);
            if policy == P::POLICY {
                assert!(got.is_ok(), "{policy}");
            } else {
                assert!(
                    matches!(got, Err(DewError::UnsoundOptions(_))),
                    "{:?} kernel, {policy} options",
                    P::POLICY
                );
            }
        }
    }

    #[test]
    fn every_kernel_refuses_other_policies_options() {
        check_foreign_options::<Fifo>();
        check_foreign_options::<Lru>();
        check_foreign_options::<Plru>();
        check_foreign_options::<Slru>();
    }

    #[test]
    fn bad_assoc_ranges_are_rejected() {
        for policy in TreePolicy::ALL {
            check_bad_assoc_ranges(policy);
        }
    }

    /// Runs `P`'s kernel, fast and instrumented, on each path of the lane
    /// lookup: a const shape (associativities 2..16), a runtime shape whose
    /// region fits one mask (8..32), and one whose region does not (2..64;
    /// 2..128 under LRU, whose region is only its widest lane). Each kernel
    /// must report the results and counters of single-width passes, and
    /// match a twin pinned to the scalar scan in results, counters and
    /// snapshot bytes.
    fn check_lookup_paths<P: Policy>() {
        let trace = blocks(3000, 0x100C_0DE5);
        let options = DewOptions::for_policy(P::POLICY);
        let widest = if P::STACK { 7 } else { 6 };
        for assoc_bits in [(1, 4), (3, 5), (1, widest)] {
            for instrument in [false, true] {
                let run = |bits, backend| {
                    let mut k =
                        Arena::<P>::new(2, (0, 4), bits, options, instrument).expect("valid");
                    k.force_scan_backend(backend).expect("available");
                    k.run_blocks(&trace);
                    k
                };
                let fused = run(assoc_bits, KernelBackend::active());
                let twin = run(assoc_bits, KernelBackend::Scalar);
                let at = format!("{:?} {assoc_bits:?} instrument={instrument}", P::POLICY);
                assert_eq!(fused.results(), twin.results(), "{at}");
                assert_eq!(fused.counters(), twin.counters(), "{at}");
                assert_eq!(fused.to_snapshot(), twin.to_snapshot(), "{at}");
                let alone = |assoc: u32| {
                    let bits = assoc.trailing_zeros();
                    run((bits, bits), KernelBackend::active())
                };
                // Under LRU one lane answers every associativity, so every
                // counter view is the widest pass's.
                let widest = 1 << assoc_bits.1;
                let stack = alone(widest).pass_counters(widest);
                for &assoc in fused.assoc_list() {
                    let single = alone(assoc);
                    let counters = if P::STACK {
                        stack
                    } else {
                        single.pass_counters(assoc)
                    };
                    let at = format!("{at} assoc={assoc}");
                    assert_eq!(
                        fused.pass_results(assoc),
                        single.pass_results(assoc),
                        "{at}"
                    );
                    assert_eq!(fused.pass_counters(assoc), counters, "{at}");
                }
            }
        }
    }

    #[test]
    fn fifo_lookup_paths_agree() {
        check_lookup_paths::<Fifo>();
    }

    #[test]
    fn lru_lookup_paths_agree() {
        check_lookup_paths::<Lru>();
    }

    #[test]
    fn plru_lookup_paths_agree() {
        check_lookup_paths::<Plru>();
    }

    #[test]
    fn slru_lookup_paths_agree() {
        check_lookup_paths::<Slru>();
    }
}
