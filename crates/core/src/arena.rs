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
//! * **driving a trace** — the scalar/sse2/avx2 `run_blocks` dispatch with
//!   its single `#[target_feature(enable = "avx2")]` compilation root, the
//!   const lane-shape dispatch ([`with_lane_shape`]), and the batch loop
//!   that prefetches the deepest level's lanes [`PF_DIST`] requests ahead;
//! * **the walk** — request accounting, CRCB-style duplicate elision, one
//!   MRA comparison per level, and the policy's verdict on whether an MRA
//!   hit stops the walk;
//! * **fan-out** — [`Arena::results`], [`Arena::pass_results`] and
//!   [`Arena::pass_counters`], with every kernel counting in
//!   [`DewCounters`] (aggregate, plus one per-lane view);
//! * **snapshots** — the header codec (magic, version, geometry, counters,
//!   forest lanes, trailing bytes) under one table of the kernel magics
//!   ([`MAGICS`]), with the body length checked before anything is
//!   allocated ([`check_body_len`]).
//!
//! A policy supplies only its per-node lanes, its node-update rule (generic
//! over the scan backend, the lane shape and `INSTRUMENT`), whether an MRA
//! hit may stop the walk, and the encoding of its own lanes.

use std::fmt;

use dew_trace::Record;

use crate::counters::DewCounters;
use crate::node::INVALID_TAG;
use crate::options::{DewOptions, TreePolicy};
use crate::results::{AllAssocResults, LevelResult, PassResults};
use crate::simd::{
    prefetch_read, with_lane_shape, KernelBackend, ScalarScan, TagLane, TagScan, PF_DIST,
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

/// The snapshot magic of `policy`'s kernel.
pub(crate) fn magic(policy: TreePolicy) -> [u8; 4] {
    MAGICS
        .iter()
        .find(|(p, _)| *p == policy)
        .map(|&(_, m)| m)
        .expect("every policy has a kernel magic")
}

/// Pads a node's way-lane stride up to a whole number of 8-tag (64-byte)
/// groups, so consecutive node regions start on cache-line boundaries when
/// the lane base is line-aligned (see [`TagLane`]) and the wide scans read
/// whole lines. Strides under one line stay exact — several small nodes per
/// line beats alignment there. Padding lanes hold the invalid-tag sentinel
/// forever; they are scanned (harmlessly — requests never equal the
/// sentinel) but never written, and snapshots serialise only the logical
/// region, so the byte format is unchanged.
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
/// order `DEWM` writes all twelve); a policy's [`Policy::COUNTERS`] lists
/// the indices its format carries.
fn counter_slots(c: &mut DewCounters) -> [&mut u64; 12] {
    [
        &mut c.accesses,
        &mut c.node_evaluations,
        &mut c.mra_stops,
        &mut c.wave_hits,
        &mut c.wave_misses,
        &mut c.mre_misses,
        &mut c.intersection_hits,
        &mut c.intersection_misses,
        &mut c.searches,
        &mut c.duplicate_skips,
        &mut c.search_comparisons,
        &mut c.tag_comparisons,
    ]
}

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
    /// Dense per-node MRA tags: the direct-mapped cache contents and the
    /// operand of every node evaluation's first comparison.
    pub(crate) mra: Vec<u64>,
    /// Way-tag regions, cache-line aligned, invalid ways holding the
    /// sentinel.
    pub(crate) tags: TagLane,
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
}

/// The runtime lane layout, as an update rule reads it.
#[derive(Debug, Clone, Copy)]
pub struct Shape<'a> {
    widths: &'a [usize],
    lane_off: &'a [usize],
}

impl Shape<'_> {
    /// Number of lanes: `NLANES` under a const shape, else the runtime
    /// count.
    #[inline(always)]
    pub(crate) fn nlanes<const FIRST: usize, const NLANES: usize>(self) -> usize {
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
    pub(crate) fn lane<const FIRST: usize>(self, k: usize) -> (usize, usize) {
        if FIRST == 0 {
            (self.widths[k], self.lane_off[k])
        } else {
            (FIRST << k, FIRST * ((1 << k) - 1))
        }
    }
}

/// One node evaluation as an update rule sees it: the node, its way-tag
/// region and its level's miss tallies, as slices the walk hoisted out of
/// the forest (so stores through them never force the forest's fields to
/// be reloaded).
#[derive(Debug)]
pub struct Site<'a> {
    /// Forest-global node index.
    pub(crate) node: usize,
    /// The node's way-tag region (the allocated length).
    pub(crate) region: &'a mut [u64],
    /// The level's misses, one per lane.
    pub(crate) misses: &'a mut [u64],
    /// The lane layout.
    pub(crate) shape: Shape<'a>,
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
    /// Indices into the canonical counter order ([`counter_slots`]) of the
    /// counters the snapshot carries.
    const COUNTERS: &'static [usize];
    /// Whether the snapshot carries the previous block (the duplicate
    /// elision state).
    const ELISION: bool = true;
    /// Whether node regions are padded to whole cache lines.
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
    /// Updates the node at `at` for `block`. The MRA lane and the
    /// direct-mapped tally are already settled; `mra_hit` says whether the
    /// node's MRA matched (and the walk did not stop). Work goes to `work`
    /// (the request's aggregate) and `lanes` (per lane), instrumented only.
    fn update<S: TagScan, const FIRST: usize, const NLANES: usize, const INSTRUMENT: bool>(
        w: &mut Self::Walk<'_>,
        at: Site<'_>,
        lanes: &mut [DewCounters],
        work: &mut DewCounters,
        scan: S,
        block: u64,
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
    /// way tags excluded) for dimensions `d`.
    fn body(d: ArenaDims, instrument: bool, version: u8) -> (u64, u64);
    /// Writes the policy's tallies (after the counters).
    fn encode_tallies(&self, lanes: &[DewCounters], instrument: bool, out: &mut Vec<u8>);
    /// Reads what [`Policy::encode_tallies`] wrote.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] for truncated input.
    fn decode_tallies(
        &mut self,
        lanes: &mut [DewCounters],
        shared: &DewCounters,
        instrument: bool,
        cur: &mut Cursor<'_>,
    ) -> Result<(), SnapshotError>;
    /// Writes the policy's lanes (after the way tags).
    fn encode_lanes(&self, f: &Forest, instrument: bool, out: &mut Vec<u8>);
    /// Reads what [`Policy::encode_lanes`] wrote (any supported `version`).
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] for truncated or out-of-range input.
    fn decode_lanes(
        &mut self,
        f: &Forest,
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
/// searched every lane.
pub(crate) fn decode_search_cmps(
    lanes: &mut [DewCounters],
    shared: &DewCounters,
    instrument: bool,
    cur: &mut Cursor<'_>,
) -> Result<(), SnapshotError> {
    if instrument {
        for lc in lanes {
            let cmps = cur.u64()?;
            *lc = DewCounters {
                searches: shared.node_evaluations.wrapping_sub(shared.mra_stops),
                search_comparisons: cmps,
                tag_comparisons: cmps,
                ..DewCounters::new()
            };
        }
    }
    Ok(())
}

/// Records one lane's search of the tree-PLRU and SLRU update rules. The
/// tallies are derived arithmetically -- a hit at depth `i` would have
/// inspected `i + 1` valid tags, a miss the whole valid prefix -- so they
/// stay bit-identical to the sequential scalar scan's.
#[inline(always)]
pub(crate) fn search_work(
    lane: &mut DewCounters,
    work: &mut DewCounters,
    hit: Option<usize>,
    valid_len: usize,
) {
    let spent = hit.map_or(valid_len, |i| i + 1) as u64;
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
        let forest = Forest {
            misses: vec![0; levels * widths.len().max(1)],
            widths,
            lane_off,
            region,
            alloc,
            node_off,
            set_mask,
            mra: vec![INVALID_TAG; total],
            tags: TagLane::filled(total * alloc, INVALID_TAG),
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
    /// (`u64::MAX`: only the top address with 1-byte blocks).
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
    /// batches is bit-identical.
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
            self.drive_shaped::<S, FIRST, NLANES, true>(scan, blocks)
        } else {
            self.drive_shaped::<S, FIRST, NLANES, false>(scan, blocks)
        })
    }

    /// The batch loop. Everything a walk touches is split out of the kernel
    /// once per batch, so the lanes stay in registers across requests and
    /// levels. Per request: software prefetch of the deepest (largest,
    /// least cache-resident) level's MRA word and tag region [`PF_DIST`]
    /// requests ahead (prefetching the policy lanes too was measured and
    /// does not pay: most evaluations land on small, cached levels), request
    /// accounting, duplicate elision, then one MRA comparison per level from
    /// the coarsest down, stopping where the policy allows (Property 2) and
    /// otherwise handing the node to the update rule. Instrumented work
    /// accumulates in a local and is flushed once per request: bumping the
    /// same counter fields from every level was measured to cost ~10% of
    /// the instrumented FIFO kernel's runtime in store-forwarding chains.
    #[inline(always)]
    fn drive_shaped<S: TagScan, const FIRST: usize, const NLANES: usize, const I: bool>(
        &mut self,
        scan: S,
        blocks: &[u64],
    ) {
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
        let (mra, tags): (&mut [u64], &mut [u64]) = (&mut f.mra, &mut f.tags);
        let (misses, dm_misses) = (&mut f.misses[..], &mut f.dm_misses[..]);
        let deepest = set_mask.len() - 1;
        let (d_off, d_mask) = (node_off[deepest], set_mask[deepest]);
        for (i, &block) in blocks.iter().enumerate() {
            assert_ne!(
                block, INVALID_TAG,
                "block {block:#x} exceeds the supported range"
            );
            if let Some(&ahead) = blocks.get(i + PF_DIST) {
                let node = d_off + (ahead & d_mask) as usize;
                prefetch_read(mra, node);
                prefetch_read(tags, node * alloc);
            }
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
                let mra_hit = *mra == block;
                if mra_hit {
                    if P::mra_stop::<I>(&mut w, node) {
                        if I {
                            work.mra_stops += 1;
                        }
                        break;
                    }
                } else {
                    *dm_misses += 1;
                    *mra = block;
                }
                let at = Site {
                    node,
                    region: &mut tags[node * alloc..][..alloc],
                    misses,
                    shape,
                };
                P::update::<S, FIRST, NLANES, I>(
                    &mut w, at, lane_work, &mut work, scan, block, mra_hit,
                );
            }
            if I {
                *counters += work;
            }
        }
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
    /// counters and scratch).
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        self.forest.mra.len() * 8 + self.forest.tags.len() * 8 + self.lanes.footprint()
    }

    /// Serialises the complete kernel state (geometry, options, counters,
    /// every lane) under the policy's own magic. The checkpoint sidecars
    /// round-trip these buffers.
    #[must_use]
    pub fn to_snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.footprint_bytes() * 2);
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
        let f = &self.forest;
        for &v in f.misses.iter().chain(&f.dm_misses).chain(&f.mra) {
            put_u64(&mut out, v);
        }
        // Regions are allocated at the padded stride but serialised at the
        // logical one: the padding is an immutable all-sentinel tail.
        for node in 0..f.nodes() {
            for &v in &f.tags[node * f.alloc..][..f.region] {
                put_u64(&mut out, v);
            }
        }
        self.lanes.encode_lanes(f, self.instrument, &mut out);
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
            let (tallies, per_node) = P::body(d, instrument, version);
            let counters = P::COUNTERS.len() as u64 + u64::from(P::ELISION);
            (
                8 * counters + tallies,
                8 * (d.lanes.max(1) + 1),
                8 * (1 + P::region(d.stride, d.width)) + per_node,
            )
        })?;
        let mut k = Arena::<P>::new(block_bits, set_bits, assoc_bits, opts, instrument)
            .map_err(|_| SnapshotError::Corrupt("invalid arena geometry"))?;
        for &i in P::COUNTERS {
            *counter_slots(&mut k.counters)[i] = cur.u64()?;
        }
        k.lanes
            .decode_tallies(&mut k.lane_work, &k.counters, instrument, &mut cur)?;
        if P::ELISION {
            k.prev_block = cur.u64()?;
        }
        let f = &mut k.forest;
        for v in f
            .misses
            .iter_mut()
            .chain(&mut f.dm_misses)
            .chain(&mut f.mra)
        {
            *v = cur.u64()?;
        }
        for node in 0..f.nodes() {
            for v in &mut f.tags[node * f.alloc..][..f.region] {
                *v = cur.u64()?;
            }
        }
        k.lanes
            .decode_lanes(&k.forest, instrument, version, &mut cur)?;
        if cur.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes(cur.remaining()));
        }
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
}
