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
//! # Storage
//!
//! Like [`crate::DewTree`] since the arena rebuild, the whole forest lives in
//! flat lanes: one dense MRA lane (shared by every associativity), and one
//! contiguous way-tag lane where node `i` holds the tag lists of *all*
//! associativities back to back (`tags[i*stride ..][..stride]`, list `k` at
//! its precomputed offset). A node evaluation therefore touches one
//! contiguous region regardless of how many associativities ride along.
//!
//! # The two kernels
//!
//! The step kernel is compiled twice, mirroring `DewTree`:
//!
//! * the **fast** kernel ([`MultiAssocTree::new`]) keeps no per-node
//!   counters and no wave/MRE/link state at all; each list's residency is
//!   decided by a branchless scan of its slice of the contiguous tag lane
//!   (invalid ways hold a sentinel), and FIFO hits mutate nothing;
//! * the **instrumented** kernel ([`MultiAssocTree::instrumented`])
//!   maintains the paper's full determination ladder per list — wave
//!   pointer, then the *intersection link* below, then MRE, then a
//!   stop-at-match search — with every [`DewCounters`] bucket live, both in
//!   aggregate and per associativity (so a fused pass can report the
//!   counters each per-associativity pass would have been entitled to).
//!
//! # The intersection link (CIPARSim-style pruning)
//!
//! CIPARSim (Haque et al., ICCAD 2011; see `PAPERS.md`) observed that FIFO
//! caches of the same block size and set count but different associativity
//! hold largely intersecting contents. This module exploits that
//! observation *exactly*, with a pointer that works like the paper's wave
//! pointers but across associativities instead of across set counts: each
//! way entry of list `k` carries the way its tag occupied in list `k+1` of
//! the same node when the tag was last handled there. When a request is
//! confirmed a **hit** in list `k`, one comparison at the linked way decides
//! hit *or* miss for list `k+1`, short-circuiting its search.
//!
//! Soundness is the wave-pointer argument transplanted: FIFO never moves a
//! resident block between ways, and a block's way in list `k+1` can only
//! change through an eviction followed by a re-insertion — and every
//! insertion into any list of a node happens while *handling that block at
//! that node*, which refreshes the link. So a consulted link is stale only
//! if the block left list `k+1` entirely, in which case the linked way now
//! holds a different tag and the comparison correctly reports a miss. The
//! consult is gated on list `k` *hitting*: after a fresh insert the entry's
//! link still describes the evicted victim and proves nothing about the
//! requested block (FIFO has no inclusion across associativities — Belady's
//! anomaly — which is exactly why the link carries a verifying comparison
//! instead of being trusted blindly).
//!
//! # Examples
//!
//! ```
//! use dew_core::{DewOptions, MultiAssocTree};
//! use dew_trace::Record;
//!
//! # fn main() -> Result<(), dew_core::DewError> {
//! // Set counts 1..=256, associativities 1/2/4/8, one pass.
//! let mut tree = MultiAssocTree::new(2, 0, 8, 8, DewOptions::default())?;
//! for i in 0..5_000u64 {
//!     tree.step_record(Record::read((i % 900) * 4));
//! }
//! let results = tree.results();
//! assert!(results.misses(64, 8).expect("simulated") <= results.accesses());
//! # Ok(())
//! # }
//! ```

use dew_trace::Record;

use crate::counters::DewCounters;
use crate::node::{EMPTY_WAVE, INVALID_TAG};
use crate::options::{DewOptions, TreePolicy};
use crate::results::{AllAssocResults, LevelResult, PassResults};
use crate::simd::{
    first_match, prefetch_read, with_lane_shape, KernelBackend, ScalarScan, TagLane, TagScan,
    PF_DIST,
};
use crate::space::{DewError, PassConfig};

/// Sentinel for "no matching entry" (root level, previous-list miss, …).
const NO_ENTRY: usize = usize::MAX;

/// Pads a node's way-lane stride up to a whole number of 8-tag (64-byte)
/// groups, so consecutive node regions start on cache-line boundaries when
/// the lane base is line-aligned (see [`TagLane`]) and the wide scans read
/// whole lines. Strides under one line stay exact — several small nodes per
/// line beats alignment there. Padding lanes hold the invalid-tag sentinel
/// forever; they are scanned (harmlessly — requests never equal the
/// sentinel) but never written, and snapshots serialise only the logical
/// stride, so the byte format is unchanged.
const fn padded_stride(stride: usize) -> usize {
    if stride >= 8 {
        stride.next_multiple_of(8)
    } else {
        stride
    }
}

/// Snapshot magic of the fused multi-associativity forest (the single-pass
/// [`crate::DewTree`] format `DEWS` describes a different layout).
pub(crate) const SNAP_MAGIC: [u8; 4] = *b"DEWM";
/// Snapshot format version of the fused forest.
const SNAP_VERSION: u8 = 1;

/// Per-associativity ladder tallies of the instrumented kernel, kept
/// separately from the aggregate [`DewCounters`] so a fused pass can be
/// fanned out into per-associativity counter reports.
#[derive(Debug, Clone, Copy, Default)]
struct ListCounters {
    wave_hits: u64,
    wave_misses: u64,
    mre_checks: u64,
    mre_misses: u64,
    intersection_hits: u64,
    intersection_misses: u64,
    searches: u64,
    search_comparisons: u64,
}

/// The fused forest: flat lanes over `total_nodes` nodes, each node carrying
/// every simulated associativity's tag list contiguously.
#[derive(Debug, Clone)]
struct FusedForest {
    /// Shared per-node MRA tags (also the direct-mapped cache contents).
    mra: Vec<u64>,
    /// Contiguous multi-width way-tag lane, cache-line aligned: node `i`'s
    /// region is `tags[i*pstride ..][..pstride]` (`pstride` the
    /// [`padded_stride`]), list `k` at `list_off[k]..+width[k]`.
    tags: TagLane,
    /// FIFO round-robin pointer per `(node, list)`:
    /// `fifo[i*num_lists + k]`.
    fifo: Vec<u32>,
    /// Valid-way count per `(node, list)`; instrumented only (the fast
    /// kernel's sentinel scan never needs it).
    valid: Vec<u32>,
    /// MRE tag per `(node, list)`; instrumented only.
    mre: Vec<u64>,
    /// Wave pointer preserved alongside the MRE tag; instrumented only.
    mre_wave: Vec<u32>,
    /// Wave-pointer lane, parallel to `tags` (padded stride included, so
    /// the two share indices); instrumented only.
    waves: Vec<u32>,
    /// Intersection-link lane, parallel to `tags`: the way this entry's tag
    /// occupied in the *next wider* list of the same node when last handled.
    /// Instrumented only.
    xlink: Vec<u32>,
    /// Node-index base per level plus a final total, as in `DewTree`.
    node_off: Vec<usize>,
    /// `(1 << set_bits) - 1` per level.
    set_mask: Vec<u64>,
    /// Misses per `(level, list)`, level-major.
    misses: Vec<u64>,
    /// Direct-mapped misses per level (from the shared MRA comparisons).
    dm_misses: Vec<u64>,
}

impl FusedForest {
    fn new(pass: &PassConfig, widths: &[usize], instrument: bool) -> Self {
        let mut node_off = Vec::with_capacity(pass.num_levels() as usize + 1);
        let mut set_mask = Vec::with_capacity(pass.num_levels() as usize);
        let mut total = 0usize;
        for set_bits in pass.min_set_bits()..=pass.max_set_bits() {
            node_off.push(total);
            set_mask.push((1u64 << set_bits) - 1);
            total += 1usize << set_bits;
        }
        node_off.push(total);
        let stride: usize = widths.iter().sum();
        let pstride = padded_stride(stride);
        let num_lists = widths.len();
        let num_levels = pass.num_levels() as usize;
        FusedForest {
            mra: vec![INVALID_TAG; total],
            tags: TagLane::filled(total * pstride, INVALID_TAG),
            fifo: vec![0; total * num_lists],
            valid: if instrument {
                vec![0; total * num_lists]
            } else {
                Vec::new()
            },
            mre: if instrument {
                vec![INVALID_TAG; total * num_lists]
            } else {
                Vec::new()
            },
            mre_wave: if instrument {
                vec![EMPTY_WAVE; total * num_lists]
            } else {
                Vec::new()
            },
            waves: if instrument {
                vec![EMPTY_WAVE; total * pstride]
            } else {
                Vec::new()
            },
            xlink: if instrument {
                vec![EMPTY_WAVE; total * pstride]
            } else {
                Vec::new()
            },
            node_off,
            set_mask,
            // `max(1)`: a DM-only tree (no lists) still iterates its levels
            // through `chunks_exact_mut`, which needs a nonzero stride.
            misses: vec![0; num_levels * num_lists.max(1)],
            dm_misses: vec![0; num_levels],
        }
    }
}

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
/// let mut tree = MultiAssocTree::new(3, 0, 4, 4, DewOptions::default())?;
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
#[derive(Debug, Clone)]
pub struct MultiAssocTree {
    /// Geometry; `assoc()` reports the largest simulated associativity.
    pass: PassConfig,
    opts: DewOptions,
    /// Every simulated associativity, ascending (includes 1 when the range
    /// starts there; associativity-1 results come from the MRA lane).
    assoc_list: Vec<u32>,
    /// Tag-list widths of the materialised lists (the associativities above
    /// 1), ascending powers of two.
    widths: Vec<usize>,
    /// Offset of each list inside a node's region of the way lane.
    list_off: Vec<usize>,
    /// Logical way-lane entries per node (`widths` summed).
    stride: usize,
    /// Allocated way-lane entries per node ([`padded_stride`] of `stride`).
    pstride: usize,
    /// Which tag-scan backend the batch drivers run
    /// ([`KernelBackend::active`] at construction; see
    /// [`MultiAssocTree::force_scan_backend`]).
    backend: KernelBackend,
    forest: FusedForest,
    /// Aggregate work counters (real work performed once).
    counters: DewCounters,
    /// Per-list ladder tallies, indexed like `widths`.
    list_counters: Vec<ListCounters>,
    /// Block of the previous request, for the CRCB-style elision extension.
    prev_block: u64,
    /// Which kernel instantiation `step` dispatches to.
    instrument: bool,
    /// `true` when `opts` matches the paper's default configuration.
    specialized: bool,
    /// Instrumented-walk scratch: per list, the global way-lane index of the
    /// parent node's matching entry (`NO_ENTRY` at the root).
    parent: Vec<usize>,
}

impl MultiAssocTree {
    /// Builds the fused forest for set counts
    /// `2^min_set_bits..=2^max_set_bits`, block size `2^block_bits`,
    /// associativities `1, 2, …, max_assoc`, using the fast
    /// (uninstrumented) kernel. Use [`MultiAssocTree::instrumented`] when
    /// the [`DewCounters`] breakdown matters.
    ///
    /// # Errors
    ///
    /// Geometry errors as [`PassConfig::new`];
    /// [`DewError::UnsoundOptions`] for LRU options (this extension is
    /// FIFO-only: LRU already gets all associativities from one list via the
    /// stack property — use [`crate::lru_tree::LruTreeSimulator`]).
    pub fn new(
        block_bits: u32,
        min_set_bits: u32,
        max_set_bits: u32,
        max_assoc: u32,
        opts: DewOptions,
    ) -> Result<Self, DewError> {
        if max_assoc == 0 || !max_assoc.is_power_of_two() {
            return Err(DewError::BadAssoc(max_assoc));
        }
        MultiAssocTree::with_instrumentation(
            block_bits,
            (min_set_bits, max_set_bits),
            (0, max_assoc.trailing_zeros()),
            opts,
            false,
        )
    }

    /// As [`MultiAssocTree::new`], but with the instrumented kernel: the
    /// full per-list determination ladder (wave pointers, intersection
    /// links, MRE entries) with every counter live. Miss counts are
    /// bit-identical to the fast kernel's — a property-tested invariant.
    ///
    /// # Errors
    ///
    /// As [`MultiAssocTree::new`].
    pub fn instrumented(
        block_bits: u32,
        min_set_bits: u32,
        max_set_bits: u32,
        max_assoc: u32,
        opts: DewOptions,
    ) -> Result<Self, DewError> {
        if max_assoc == 0 || !max_assoc.is_power_of_two() {
            return Err(DewError::BadAssoc(max_assoc));
        }
        MultiAssocTree::with_instrumentation(
            block_bits,
            (min_set_bits, max_set_bits),
            (0, max_assoc.trailing_zeros()),
            opts,
            true,
        )
    }

    /// Full-control constructor: inclusive `log2` ranges for the set counts
    /// and the associativities (so a sweep whose space starts above
    /// associativity 1 does not pay for lists it will not report), and a
    /// runtime kernel selection. This is the entry point
    /// [`crate::SweepRequest`] uses for its fused per-block-size passes.
    ///
    /// # Errors
    ///
    /// As [`MultiAssocTree::new`], plus [`DewError::EmptySetRange`] when the
    /// associativity range is inverted.
    pub fn with_instrumentation(
        block_bits: u32,
        set_bits: (u32, u32),
        assoc_bits: (u32, u32),
        opts: DewOptions,
        instrument: bool,
    ) -> Result<Self, DewError> {
        opts.validate()?;
        if opts.policy != TreePolicy::Fifo {
            return Err(DewError::UnsoundOptions(
                "multi-assoc lists are FIFO-only; every other policy runs its own \
                 fused arena kernel (lru_tree, plru_tree, slru_tree)",
            ));
        }
        if assoc_bits.0 > assoc_bits.1 {
            return Err(DewError::EmptySetRange {
                min_set_bits: assoc_bits.0,
                max_set_bits: assoc_bits.1,
            });
        }
        let pass = PassConfig::new(block_bits, set_bits.0, set_bits.1, 1 << assoc_bits.1)?;
        let assoc_list: Vec<u32> = (assoc_bits.0..=assoc_bits.1).map(|b| 1 << b).collect();
        let widths: Vec<usize> = (assoc_bits.0.max(1)..=assoc_bits.1)
            .map(|b| 1usize << b)
            .collect();
        let mut list_off = Vec::with_capacity(widths.len());
        let mut stride = 0usize;
        for &w in &widths {
            list_off.push(stride);
            stride += w;
        }
        let specialized = opts.mra_stop
            && opts.wave
            && opts.mre
            && !opts.dup_elision
            && opts.policy == TreePolicy::Fifo;
        let num_lists = widths.len();
        Ok(MultiAssocTree {
            forest: FusedForest::new(&pass, &widths, instrument),
            pass,
            opts,
            assoc_list,
            widths,
            list_off,
            stride,
            pstride: padded_stride(stride),
            backend: KernelBackend::active(),
            counters: DewCounters::new(),
            list_counters: vec![ListCounters::default(); num_lists],
            prev_block: INVALID_TAG,
            instrument,
            specialized,
            parent: vec![NO_ENTRY; num_lists],
        })
    }

    /// The simulated associativities, ascending.
    #[must_use]
    pub fn assoc_list(&self) -> &[u32] {
        &self.assoc_list
    }

    /// The forest geometry (`assoc()` reports the maximum).
    #[must_use]
    pub fn pass(&self) -> &PassConfig {
        &self.pass
    }

    /// `true` when this tree maintains the per-node work counters.
    #[must_use]
    pub fn is_instrumented(&self) -> bool {
        self.instrument
    }

    /// Aggregate work counters: real work performed, with per-node MRA work
    /// counted once while ladder work is summed over the associativity
    /// lists. The [`DewCounters::is_consistent`] identity of a
    /// single-associativity [`crate::DewTree`] does **not** apply to this
    /// aggregate (one node evaluation feeds several lists); the fanned-out
    /// [`MultiAssocTree::pass_counters`] views restore it.
    #[must_use]
    pub fn counters(&self) -> &DewCounters {
        &self.counters
    }

    /// The tag-scan backend the batch drivers run
    /// ([`KernelBackend::active`] at construction time).
    #[must_use]
    pub fn scan_backend(&self) -> KernelBackend {
        self.backend
    }

    /// Pins the batch drivers to `backend`, regardless of what
    /// [`KernelBackend::active`] detected. This is the differential-testing
    /// hook: results, counters and snapshots are bit-identical under every
    /// backend (property-tested), so forcing [`KernelBackend::Scalar`] on
    /// one of two twin kernels turns any trace into an oracle check.
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
    /// As [`crate::DewTree::step`]: the block number must not collide with
    /// the internal sentinel.
    pub fn step(&mut self, addr: u64) {
        self.step_block(addr >> self.pass.block_bits());
    }

    /// Simulates one request given as a pre-decoded block number
    /// (`addr >> block_bits` for this pass's block size).
    ///
    /// # Panics
    ///
    /// As [`MultiAssocTree::step`], if `block` equals the internal sentinel.
    pub fn step_block(&mut self, block: u64) {
        assert_ne!(
            block, INVALID_TAG,
            "block {block:#x} exceeds the supported range"
        );
        match (self.instrument, self.specialized) {
            (false, true) => self.step_block_fast::<true>(block),
            (false, false) => self.step_block_fast::<false>(block),
            (true, true) => self.kernel_instrumented::<true, 0, 0, _>(ScalarScan, block),
            (true, false) => self.kernel_instrumented::<false, 0, 0, _>(ScalarScan, block),
        }
    }

    /// Simulates a batch of pre-decoded block numbers (see
    /// `dew_trace::decode_blocks` / `dew_trace::BlockChunks`). This is the
    /// fastest way to drive a fused pass: the sweep decodes the trace once
    /// per block size and every associativity consumes the same lane.
    ///
    /// # Panics
    ///
    /// As [`MultiAssocTree::step`], if any block equals the internal
    /// sentinel.
    pub fn run_blocks(&mut self, blocks: &[u64]) {
        match (self.instrument, self.specialized) {
            (false, true) => self.run_blocks_fast::<true>(blocks),
            (false, false) => self.run_blocks_fast::<false>(blocks),
            (true, true) => self.run_blocks_instrumented::<true>(blocks),
            (true, false) => self.run_blocks_instrumented::<false>(blocks),
        }
    }

    /// Fast-kernel dispatch on the list shape. Consecutive power-of-two
    /// widths mean the whole shape is `(first width, list count)`; the
    /// shapes of [`with_lane_shape`] (first width 2 with up to four lists —
    /// the paper's sweep ranges — plus the single-list jobs) get their own
    /// instantiation so every scan width is a compile-time constant and the
    /// per-list loop unrolls into straight-line vectorisable compares.
    /// Anything else falls back to the runtime-shape loop (`FIRST = 0`).
    ///
    /// The single-record path always uses the scalar oracle (bit-identical
    /// to every backend); the wide backends pay off — and are dispatched —
    /// in the batch drivers below.
    fn step_block_fast<const DEFAULT_PATH: bool>(&mut self, block: u64) {
        with_lane_shape!(self.shape(), |FIRST, NLISTS| self
            .kernel_fast::<DEFAULT_PATH, FIRST, NLISTS, _>(ScalarScan, block))
    }

    /// The list shape `(first width, list count)` the kernels dispatch on
    /// ([`with_lane_shape`]).
    fn shape(&self) -> (usize, usize) {
        (self.widths.first().copied().unwrap_or(0), self.widths.len())
    }

    /// Batch-level backend dispatch: one selection per `run_blocks` call,
    /// so the per-scan compare/movemask stays a straight inlined sequence.
    /// The AVX2 arm routes through a `#[target_feature]` wrapper — rustc
    /// refuses to inline feature-gated code into plain callers, so the
    /// wrapper is where the whole batch loop gets compiled *as* AVX2 code.
    fn run_blocks_fast<const DEFAULT_PATH: bool>(&mut self, blocks: &[u64]) {
        match self.backend {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            KernelBackend::Avx2 => {
                // SAFETY: `backend` is only `Avx2` after runtime detection
                // (`KernelBackend::is_available` gates the constructor and
                // `force_scan_backend`).
                #[allow(unsafe_code)]
                unsafe {
                    self.run_blocks_fast_avx2::<DEFAULT_PATH>(blocks);
                }
            }
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            KernelBackend::Sse2 => {
                self.run_blocks_fast_impl::<DEFAULT_PATH, _>(crate::simd::Sse2Scan, blocks);
            }
            _ => self.run_blocks_fast_impl::<DEFAULT_PATH, _>(ScalarScan, blocks),
        }
    }

    /// The AVX2 compilation root of the fast batch loop (see
    /// [`MultiAssocTree::run_blocks_fast`]).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    unsafe fn run_blocks_fast_avx2<const DEFAULT_PATH: bool>(&mut self, blocks: &[u64]) {
        self.run_blocks_fast_impl::<DEFAULT_PATH, _>(crate::simd::Avx2Scan, blocks);
    }

    #[inline(always)]
    fn run_blocks_fast_impl<const DEFAULT_PATH: bool, S: TagScan>(
        &mut self,
        scan: S,
        blocks: &[u64],
    ) {
        with_lane_shape!(self.shape(), |FIRST, NLISTS| self
            .drive_fast::<DEFAULT_PATH, FIRST, NLISTS, S>(scan, blocks))
    }

    /// The fast batch loop: software prefetch of the deepest (largest,
    /// least cache-resident) level's MRA word and tag region [`PF_DIST`]
    /// requests ahead, then the per-request kernel.
    #[inline(always)]
    fn drive_fast<const DEFAULT_PATH: bool, const FIRST: usize, const NLISTS: usize, S: TagScan>(
        &mut self,
        scan: S,
        blocks: &[u64],
    ) {
        let deepest = self.forest.set_mask.len() - 1;
        let d_off = self.forest.node_off[deepest];
        let d_mask = self.forest.set_mask[deepest];
        let pstride = self.pstride;
        for (i, &b) in blocks.iter().enumerate() {
            assert_ne!(b, INVALID_TAG, "block {b:#x} exceeds the supported range");
            if let Some(&ahead) = blocks.get(i + PF_DIST) {
                let node = d_off + (ahead & d_mask) as usize;
                prefetch_read(&self.forest.mra, node);
                prefetch_read(&self.forest.tags, node * pstride);
            }
            self.kernel_fast::<DEFAULT_PATH, FIRST, NLISTS, S>(scan, b);
        }
    }

    /// Batch-level backend dispatch of the instrumented kernel; the same
    /// shape as [`MultiAssocTree::run_blocks_fast`].
    fn run_blocks_instrumented<const DEFAULT_PATH: bool>(&mut self, blocks: &[u64]) {
        match self.backend {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            KernelBackend::Avx2 => {
                // SAFETY: `backend` is only `Avx2` after runtime detection.
                #[allow(unsafe_code)]
                unsafe {
                    self.run_blocks_instrumented_avx2::<DEFAULT_PATH>(blocks);
                }
            }
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            KernelBackend::Sse2 => {
                self.drive_instrumented::<DEFAULT_PATH, _>(crate::simd::Sse2Scan, blocks);
            }
            _ => self.drive_instrumented::<DEFAULT_PATH, _>(ScalarScan, blocks),
        }
    }

    /// The AVX2 compilation root of the instrumented batch loop.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    unsafe fn run_blocks_instrumented_avx2<const DEFAULT_PATH: bool>(&mut self, blocks: &[u64]) {
        self.drive_instrumented::<DEFAULT_PATH, _>(crate::simd::Avx2Scan, blocks);
    }

    #[inline(always)]
    fn drive_instrumented<const DEFAULT_PATH: bool, S: TagScan>(
        &mut self,
        scan: S,
        blocks: &[u64],
    ) {
        with_lane_shape!(self.shape(), |FIRST, NLISTS| self
            .drive_instrumented_shaped::<DEFAULT_PATH, FIRST, NLISTS, S>(
                scan, blocks
            ))
    }

    #[inline(always)]
    fn drive_instrumented_shaped<
        const DEFAULT_PATH: bool,
        const FIRST: usize,
        const NLISTS: usize,
        S: TagScan,
    >(
        &mut self,
        scan: S,
        blocks: &[u64],
    ) {
        let deepest = self.forest.set_mask.len() - 1;
        let d_off = self.forest.node_off[deepest];
        let d_mask = self.forest.set_mask[deepest];
        let pstride = self.pstride;
        for (i, &b) in blocks.iter().enumerate() {
            assert_ne!(b, INVALID_TAG, "block {b:#x} exceeds the supported range");
            if let Some(&ahead) = blocks.get(i + PF_DIST) {
                // As in the fast loop: the deepest level's MRA word and tag
                // region. (Prefetching the ladder lanes too was measured and
                // does not pay — most evaluations land on small, cached
                // levels, and the extra prefetches only burn load slots.)
                let node = d_off + (ahead & d_mask) as usize;
                prefetch_read(&self.forest.mra, node);
                prefetch_read(&self.forest.tags, node * pstride);
            }
            self.kernel_instrumented::<DEFAULT_PATH, FIRST, NLISTS, S>(scan, b);
        }
    }

    /// Shared per-request prologue of both kernels: request accounting and
    /// the CRCB-style duplicate elision. Returns `true` when the request was
    /// elided whole.
    #[inline(always)]
    fn prologue<const DEFAULT_PATH: bool>(&mut self, block: u64) -> bool {
        debug_assert!(!DEFAULT_PATH || self.specialized, "dispatch mismatch");
        self.counters.accesses += 1;
        if !DEFAULT_PATH && self.opts.dup_elision {
            if block == self.prev_block {
                self.counters.duplicate_skips += 1;
                return true;
            }
            self.prev_block = block;
        }
        false
    }

    /// The fast fused kernel: no counters, no wave/MRE/link lanes. Each
    /// list's residency is a branchless scan of its slice of the node's
    /// contiguous tag region; FIFO hits mutate nothing, so an MRA match
    /// (hit in every list) skips the lists entirely even when the early
    /// stop is disabled.
    ///
    /// `FIRST`/`NLISTS` encode the list shape when positive (consecutive
    /// power-of-two widths starting at `FIRST`, so every width, offset and
    /// the stride are compile-time constants) and are both `0` for the
    /// runtime fallback. `S` is the tag-scan backend the whole-region
    /// compare runs on ([`TagScan`]).
    fn kernel_fast<
        const DEFAULT_PATH: bool,
        const FIRST: usize,
        const NLISTS: usize,
        S: TagScan,
    >(
        &mut self,
        scan: S,
        block: u64,
    ) {
        if self.prologue::<DEFAULT_PATH>(block) {
            return;
        }
        debug_assert!(NLISTS == 0 || NLISTS == self.widths.len());
        debug_assert!(FIRST == 0 || Some(&FIRST) == self.widths.first());
        let num_lists = if NLISTS == 0 {
            self.widths.len()
        } else {
            NLISTS
        };
        // Consecutive power-of-two widths: list `k` is `FIRST << k` wide at
        // offset `FIRST·(2^k − 1)`, and the stride is `FIRST·(2^NLISTS − 1)`.
        let pstride = if FIRST == 0 {
            self.pstride
        } else {
            padded_stride(FIRST * ((1 << NLISTS) - 1))
        };
        debug_assert_eq!(pstride, self.pstride);
        let mra_stop = DEFAULT_PATH || self.opts.mra_stop;
        let f = &mut self.forest;
        let levels = f.set_mask.iter().zip(f.node_off.iter()).zip(
            f.misses
                .chunks_exact_mut(num_lists.max(1))
                .zip(f.dm_misses.iter_mut()),
        );
        for ((&mask, &off), (level_misses, level_dm_misses)) in levels {
            let node = off + (block & mask) as usize;
            if f.mra[node] == block {
                if mra_stop {
                    // Property 2, sound for every associativity at once.
                    return;
                }
                // Hit in every list; FIFO hits change nothing.
                continue;
            }
            *level_dm_misses += 1;
            f.mra[node] = block;
            let region = &mut f.tags[node * pstride..(node + 1) * pstride];
            if FIRST == 0 {
                // Runtime shape: independent wide scans per list (widths may
                // exceed one 64-lane mask window).
                #[allow(clippy::needless_range_loop)] // k indexes parallel lanes
                for k in 0..num_lists {
                    let (w, o) = (self.widths[k], self.list_off[k]);
                    let lane = &mut region[o..o + w];
                    if first_match(scan, lane, block).is_none() {
                        level_misses[k] += 1;
                        let fp = &mut f.fifo[node * num_lists + k];
                        lane[*fp as usize] = block;
                        *fp = crate::node::fifo_advance(*fp, w);
                    }
                }
            } else {
                // Const shape (pstride ≤ 32): one wide compare/movemask of
                // the node's whole contiguous region — every list at once —
                // into a position bitmask; invalid ways (including the
                // padding tail) hold the sentinel and a resident block
                // occupies exactly one way per list, so a list hits iff its
                // window of the mask is nonzero.
                let hit_mask = scan.match_mask(region, block);
                #[allow(clippy::needless_range_loop)] // k indexes parallel lanes
                for k in 0..num_lists {
                    let (w, o) = (FIRST << k, FIRST * ((1 << k) - 1));
                    if hit_mask & (((1u64 << w) - 1) << o) == 0 {
                        level_misses[k] += 1;
                        let fp = &mut f.fifo[node * num_lists + k];
                        region[o + *fp as usize] = block;
                        *fp = crate::node::fifo_advance(*fp, w);
                    }
                }
            }
        }
    }

    /// The instrumented fused kernel: the full determination ladder per
    /// list — wave pointer, then intersection link, then MRE, then a
    /// stop-at-match search — with the aggregate *and* per-list counters
    /// maintained. Miss counts are bit-identical to the fast kernel's.
    ///
    /// The ladder rides the same wide compare as the fast kernel: under a
    /// const shape (`FIRST`/`NLISTS` as in [`MultiAssocTree::kernel_fast`])
    /// one position-exact scan of the node's whole region answers residency
    /// for every list up front — a block occupies at most one way per list,
    /// so "the wave's way holds the block" is "the scan's bit for that way
    /// is set" — and the ladder stages then only decide which stage gets
    /// the credit and what the sequential ladder would have spent. Every
    /// counter stays bit-identical to the stage-by-stage compare sequence
    /// it replaces. The runtime shape (`FIRST = 0`, widths that may exceed
    /// one mask window) scans per list instead.
    fn kernel_instrumented<
        const DEFAULT_PATH: bool,
        const FIRST: usize,
        const NLISTS: usize,
        S: TagScan,
    >(
        &mut self,
        scan: S,
        block: u64,
    ) {
        if self.prologue::<DEFAULT_PATH>(block) {
            return;
        }
        debug_assert!(NLISTS == 0 || NLISTS == self.widths.len());
        debug_assert!(FIRST == 0 || Some(&FIRST) == self.widths.first());
        let num_lists = if NLISTS == 0 {
            self.widths.len()
        } else {
            NLISTS
        };
        let pstride = if FIRST == 0 {
            self.pstride
        } else {
            padded_stride(FIRST * ((1 << NLISTS) - 1))
        };
        debug_assert_eq!(pstride, self.pstride);
        let mra_stop = DEFAULT_PATH || self.opts.mra_stop;
        let use_wave = DEFAULT_PATH || self.opts.wave;
        let use_mre = DEFAULT_PATH || self.opts.mre;
        for p in &mut self.parent {
            *p = NO_ENTRY;
        }
        // Aggregate counters accumulate in locals and flush once at the
        // single exit below. Bumping `self.counters` fields inline instead
        // hits the same per-field address on every handled list, and the
        // resulting store-to-load-forwarding RMW chains were measured to
        // cost ~10% of the instrumented kernel's runtime. (A fully
        // branchless ladder of masked adds was also tried and measured
        // *slower*: it must load every ladder lane unconditionally, while
        // the staged ladder below loads only what the settled stage needs
        // -- the wave pointer settles ~90% of list handles on real traces.)
        let mut a_node_evals = 0u64;
        let mut a_tag_cmp = 0u64;
        let mut a_mra_stops = 0u64;
        let mut a_wave_hits = 0u64;
        let mut a_wave_misses = 0u64;
        let mut a_x_hits = 0u64;
        let mut a_x_misses = 0u64;
        let mut a_mre_misses = 0u64;
        let mut a_searches = 0u64;
        let mut a_search_cmp = 0u64;
        let f = &mut self.forest;
        'walk: for li in 0..f.set_mask.len() {
            let node = f.node_off[li] + (block & f.set_mask[li]) as usize;
            a_node_evals += 1;
            a_tag_cmp += 1; // the one shared MRA comparison
            let mra_match = f.mra[node] == block;
            if mra_match {
                if mra_stop {
                    // Property 2: hit here and at every larger set count,
                    // in every list at once.
                    a_mra_stops += 1;
                    break 'walk;
                }
            } else {
                f.dm_misses[li] += 1;
            }
            f.mra[node] = block;
            let base = node * pstride;
            // Const shape: one wide compare of the node's whole region
            // answers residency for every list of this node at once -- the
            // ladder stages below then only decide which stage gets the
            // credit, each with its paper-exact comparison count.
            let node_mask = if FIRST == 0 {
                0
            } else {
                scan.match_mask(&f.tags[base..base + pstride], block)
            };
            // The block's way entry in the previous (narrower) list of this
            // node, and whether that list *hit* (the consult gate of the
            // intersection link; see the module docs).
            let mut prev_entry = NO_ENTRY;
            let mut prev_hit = false;
            for k in 0..num_lists {
                let (w, o) = if FIRST == 0 {
                    (self.widths[k], self.list_off[k])
                } else {
                    (FIRST << k, FIRST * ((1 << k) - 1))
                };
                let start = base + o;
                let ml = node * num_lists + k;

                // Residency, settled once by the wide compare (lanes past
                // the valid prefix hold the sentinel and never match).
                let resident = if FIRST == 0 {
                    first_match(scan, &f.tags[start..start + w], block)
                } else {
                    let window = (node_mask >> o) & ((1u64 << w) - 1);
                    if window == 0 {
                        None
                    } else {
                        Some(window.trailing_zeros() as usize)
                    }
                };

                // Determination ladder -- counter accounting only from
                // here. Every stage's *outcome* is implied by residency
                // (Properties 3/4 and the link argument: a consulted
                // pointer that misses, or a matching MRE, proves absence),
                // so the stages test `resident` instead of re-comparing
                // tags; the debug asserts pin the implication.
                let mut determined = false;
                if use_wave && self.parent[k] != NO_ENTRY {
                    let wave = f.waves[self.parent[k]];
                    if wave != EMPTY_WAVE {
                        // Property 3: one comparison decides.
                        a_tag_cmp += 1;
                        debug_assert!((wave as usize) < w, "wave pointer within tag list");
                        if resident.is_some() {
                            debug_assert_eq!(
                                resident,
                                Some(wave as usize),
                                "a resident block is where its wave pointer says"
                            );
                            a_wave_hits += 1;
                            self.list_counters[k].wave_hits += 1;
                        } else {
                            a_wave_misses += 1;
                            self.list_counters[k].wave_misses += 1;
                        }
                        determined = true;
                    }
                }
                if !determined && prev_hit {
                    let x = f.xlink[prev_entry];
                    if x != EMPTY_WAVE {
                        // Intersection link: the narrower list hit, so the
                        // link was refreshed at this block's last handling
                        // and one comparison decides (module docs).
                        a_tag_cmp += 1;
                        debug_assert!((x as usize) < w, "intersection link within tag list");
                        if resident.is_some() {
                            debug_assert_eq!(
                                resident,
                                Some(x as usize),
                                "a resident block is where its link says"
                            );
                            a_x_hits += 1;
                            self.list_counters[k].intersection_hits += 1;
                        } else {
                            a_x_misses += 1;
                            self.list_counters[k].intersection_misses += 1;
                        }
                        determined = true;
                    }
                }
                if !determined && use_mre {
                    // Property 4: the most recently evicted block is
                    // certainly absent.
                    a_tag_cmp += 1;
                    self.list_counters[k].mre_checks += 1;
                    if f.mre[ml] == block {
                        debug_assert!(resident.is_none(), "an MRE match implies absence");
                        a_mre_misses += 1;
                        self.list_counters[k].mre_misses += 1;
                        determined = true;
                    }
                }
                if !determined {
                    a_searches += 1;
                    // The sequential search stops at the match, because the
                    // paper's comparison counts do: a hit at depth `i`
                    // costs `i + 1` comparisons, a miss costs `valid`.
                    let spent = match resident {
                        Some(i) => (i + 1) as u64,
                        None => f.valid[ml] as u64,
                    };
                    a_search_cmp += spent;
                    a_tag_cmp += spent;
                    let lc = &mut self.list_counters[k];
                    lc.searches += 1;
                    lc.search_comparisons += spent;
                }
                debug_assert!(
                    !(mra_match && resident.is_none()),
                    "an MRA match implies residency; miss determination is wrong"
                );

                let n = match resident {
                    Some(n) => n, // Algorithm 1: FIFO hits change nothing.
                    None => {
                        // Algorithm 2: Handle_miss.
                        f.misses[li * num_lists + k] += 1;
                        let n = f.fifo[ml] as usize;
                        if use_mre && f.mre[ml] == block {
                            // Exchange the victim way with the MRE entry,
                            // restoring the block's preserved wave pointer.
                            debug_assert_eq!(
                                f.valid[ml] as usize, w,
                                "MRE only holds a tag after an eviction (full list)"
                            );
                            std::mem::swap(&mut f.tags[start + n], &mut f.mre[ml]);
                            std::mem::swap(&mut f.waves[start + n], &mut f.mre_wave[ml]);
                        } else {
                            let evicted_tag = std::mem::replace(&mut f.tags[start + n], block);
                            let evicted_wave =
                                std::mem::replace(&mut f.waves[start + n], EMPTY_WAVE);
                            if evicted_tag == INVALID_TAG {
                                f.valid[ml] += 1;
                            } else if use_mre {
                                f.mre[ml] = evicted_tag;
                                f.mre_wave[ml] = evicted_wave;
                            }
                        }
                        f.fifo[ml] = crate::node::fifo_advance(f.fifo[ml], w);
                        n
                    }
                };
                // Refresh the parent's matching entry's wave pointer
                // (Algorithm 1 line 3 / Algorithm 2 line 10) ...
                if use_wave && self.parent[k] != NO_ENTRY {
                    f.waves[self.parent[k]] = n as u32;
                }
                self.parent[k] = start + n;
                // ... and the previous list's intersection link. The refresh
                // is unconditional (hit or insert): the block is resident in
                // both lists after handling, which is what keeps a later
                // consult exact.
                if prev_entry != NO_ENTRY {
                    f.xlink[prev_entry] = n as u32;
                }
                prev_entry = start + n;
                prev_hit = resident.is_some();
            }
        }
        let c = &mut self.counters;
        c.node_evaluations += a_node_evals;
        c.tag_comparisons += a_tag_cmp;
        c.mra_stops += a_mra_stops;
        c.wave_hits += a_wave_hits;
        c.wave_misses += a_wave_misses;
        c.intersection_hits += a_x_hits;
        c.intersection_misses += a_x_misses;
        c.mre_misses += a_mre_misses;
        c.searches += a_searches;
        c.search_comparisons += a_search_cmp;
    }

    /// Snapshot of the per-configuration miss counts (associativity 1, when
    /// simulated, comes from the shared direct-mapped accounting).
    #[must_use]
    pub fn results(&self) -> AllAssocResults {
        let include_dm = self.assoc_list.first() == Some(&1);
        let num_lists = self.widths.len();
        let misses = (0..self.forest.dm_misses.len())
            .map(|li| {
                let mut row = Vec::with_capacity(self.assoc_list.len());
                if include_dm {
                    row.push(self.forest.dm_misses[li]);
                }
                row.extend_from_slice(&self.forest.misses[li * num_lists..(li + 1) * num_lists]);
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

    /// Fans this fused pass out into the [`PassResults`] a standalone
    /// `(block size, assoc)` DEW pass would have produced, or `None` when
    /// `assoc` was not simulated. This is how [`crate::SweepRequest`] keeps
    /// its per-pass result shape while traversing the trace once per block
    /// size.
    #[must_use]
    pub fn pass_results(&self, assoc: u32) -> Option<PassResults> {
        if !self.assoc_list.contains(&assoc) {
            return None;
        }
        let pass = PassConfig::new(
            self.pass.block_bits(),
            self.pass.min_set_bits(),
            self.pass.max_set_bits(),
            assoc,
        )
        .ok()?;
        let num_lists = self.widths.len();
        let k = self.widths.iter().position(|&w| w == assoc as usize);
        let levels = self
            .forest
            .dm_misses
            .iter()
            .enumerate()
            .map(|(li, &dm)| {
                let misses = match k {
                    Some(k) => self.forest.misses[li * num_lists + k],
                    None => dm, // assoc 1: the MRA lane is the simulation
                };
                LevelResult::new(self.pass.min_set_bits() + li as u32, misses, dm)
            })
            .collect();
        Some(PassResults::new(pass, self.counters.accesses, levels))
    }

    /// The [`DewCounters`] view a standalone pass at `assoc` is entitled to
    /// report, derived from the fused walk: walk-level quantities
    /// (evaluations, MRA stops, the per-evaluation MRA comparison) are
    /// shared verbatim, ladder quantities come from that associativity's
    /// list. The [`DewCounters::is_consistent`] identity holds for every
    /// fanned-out view. Returns `None` when `assoc` was not simulated.
    #[must_use]
    pub fn pass_counters(&self, assoc: u32) -> Option<DewCounters> {
        if !self.assoc_list.contains(&assoc) {
            return None;
        }
        let shared = DewCounters {
            accesses: self.counters.accesses,
            duplicate_skips: self.counters.duplicate_skips,
            node_evaluations: self.counters.node_evaluations,
            mra_stops: self.counters.mra_stops,
            ..DewCounters::new()
        };
        let mut c = match self.widths.iter().position(|&w| w == assoc as usize) {
            Some(k) => {
                let lc = &self.list_counters[k];
                DewCounters {
                    wave_hits: lc.wave_hits,
                    wave_misses: lc.wave_misses,
                    mre_misses: lc.mre_misses,
                    intersection_hits: lc.intersection_hits,
                    intersection_misses: lc.intersection_misses,
                    searches: lc.searches,
                    search_comparisons: lc.search_comparisons,
                    tag_comparisons: self.counters.node_evaluations
                        + lc.wave_hits
                        + lc.wave_misses
                        + lc.mre_checks
                        + lc.intersection_hits
                        + lc.intersection_misses
                        + lc.search_comparisons,
                    ..shared
                }
            }
            None => {
                // Associativity 1: the shared MRA comparison *is* the
                // simulation; report each non-stopped evaluation as a
                // one-comparison search of the single way.
                let searches = self.counters.node_evaluations - self.counters.mra_stops;
                DewCounters {
                    searches,
                    search_comparisons: searches,
                    tag_comparisons: self.counters.node_evaluations + searches,
                    ..shared
                }
            }
        };
        if !self.instrument {
            // The fast kernel maintains only the request-level counters,
            // exactly like `DewTree::new`.
            c = DewCounters {
                accesses: self.counters.accesses,
                duplicate_skips: self.counters.duplicate_skips,
                ..DewCounters::new()
            };
        }
        Some(c)
    }

    /// Actual heap footprint of the forest's lanes in bytes (excludes
    /// counters and scratch).
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        let f = &self.forest;
        f.mra.len() * 8
            + f.tags.len() * 8
            + f.fifo.len() * 4
            + f.valid.len() * 4
            + f.mre.len() * 8
            + f.mre_wave.len() * 4
            + f.waves.len() * 4
            + f.xlink.len() * 4
    }

    /// Serialises the complete fused-pass state (geometry, options,
    /// counters, every lane) to bytes, in the spirit of
    /// [`crate::DewTree::to_snapshot`] but under its own magic (`DEWM`)
    /// since the fused forest has no per-pass equivalent layout. The
    /// sharded sweep's exact snapshot-handoff mode rebuilds a fresh kernel
    /// from these bytes at every shard boundary.
    #[must_use]
    pub fn to_snapshot(&self) -> Vec<u8> {
        use crate::snapshot::{put_u32, put_u64};
        let mut out = Vec::with_capacity(64 + self.footprint_bytes() * 2);
        out.extend_from_slice(&SNAP_MAGIC);
        out.push(SNAP_VERSION);
        put_u32(&mut out, self.pass.block_bits());
        put_u32(&mut out, self.pass.min_set_bits());
        put_u32(&mut out, self.pass.max_set_bits());
        put_u32(&mut out, self.assoc_list[0].trailing_zeros());
        put_u32(&mut out, self.pass.assoc().trailing_zeros());
        let flags = u8::from(self.opts.mra_stop)
            | u8::from(self.opts.wave) << 1
            | u8::from(self.opts.mre) << 2
            | u8::from(self.opts.dup_elision) << 3
            | u8::from(self.instrument) << 4;
        out.push(flags);
        let c = &self.counters;
        for v in [
            c.accesses,
            c.node_evaluations,
            c.mra_stops,
            c.wave_hits,
            c.wave_misses,
            c.mre_misses,
            c.intersection_hits,
            c.intersection_misses,
            c.searches,
            c.duplicate_skips,
            c.search_comparisons,
            c.tag_comparisons,
        ] {
            put_u64(&mut out, v);
        }
        for lc in &self.list_counters {
            for v in [
                lc.wave_hits,
                lc.wave_misses,
                lc.mre_checks,
                lc.mre_misses,
                lc.intersection_hits,
                lc.intersection_misses,
                lc.searches,
                lc.search_comparisons,
            ] {
                put_u64(&mut out, v);
            }
        }
        put_u64(&mut out, self.prev_block);
        let f = &self.forest;
        for &v in f.misses.iter().chain(&f.dm_misses).chain(&f.mra) {
            put_u64(&mut out, v);
        }
        // The way lanes are allocated at the padded stride but serialised at
        // the logical one — the padding tail is an immutable all-sentinel
        // alignment artefact, and leaving it out keeps the byte format
        // identical to the unpadded layout.
        let total_nodes = *f.node_off.last().expect("at least one level");
        for node in 0..total_nodes {
            let base = node * self.pstride;
            for &v in &f.tags[base..base + self.stride] {
                put_u64(&mut out, v);
            }
        }
        for &v in &f.fifo {
            put_u32(&mut out, v);
        }
        if self.instrument {
            for &v in &f.valid {
                put_u32(&mut out, v);
            }
            for &v in &f.mre {
                put_u64(&mut out, v);
            }
            for &v in &f.mre_wave {
                put_u32(&mut out, v);
            }
            for lane in [&f.waves, &f.xlink] {
                for node in 0..total_nodes {
                    let base = node * self.pstride;
                    for &v in &lane[base..base + self.stride] {
                        put_u32(&mut out, v);
                    }
                }
            }
        }
        out
    }

    /// Restores a fused pass from [`MultiAssocTree::to_snapshot`] output.
    /// The snapshot is self-describing; continuing the restored tree
    /// produces bit-identical results to the uninterrupted run (a
    /// property-tested invariant the sharded sweep relies on).
    ///
    /// # Errors
    ///
    /// [`crate::snapshot::SnapshotError`] for foreign, truncated or
    /// internally inconsistent buffers.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::{check_body_len, Cursor, SnapshotError};
        let mut cur = Cursor::new(bytes);
        let magic = cur.bytes(4)?;
        if magic != SNAP_MAGIC {
            // A structurally valid buffer for a sibling policy kernel is a
            // policy mixup, not random corruption — report it as such.
            for sibling in [
                crate::lru_tree::SNAP_MAGIC,
                crate::plru_tree::SNAP_MAGIC,
                crate::slru_tree::SNAP_MAGIC,
            ] {
                if magic == sibling {
                    return Err(SnapshotError::PolicyMismatch {
                        expected: SNAP_MAGIC,
                        found: sibling,
                    });
                }
            }
            return Err(SnapshotError::BadMagic);
        }
        let version = cur.u8()?;
        if version != SNAP_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let (block_bits, min_set_bits, max_set_bits) = (cur.u32()?, cur.u32()?, cur.u32()?);
        let (assoc_lo_bits, assoc_hi_bits) = (cur.u32()?, cur.u32()?);
        let flags = cur.u8()?;
        let opts = DewOptions {
            mra_stop: flags & 1 != 0,
            wave: flags & 2 != 0,
            mre: flags & 4 != 0,
            dup_elision: flags & 8 != 0,
            policy: TreePolicy::Fifo,
        };
        let instrument = flags & 16 != 0;
        check_body_len(
            &cur,
            (min_set_bits, max_set_bits),
            (assoc_lo_bits, assoc_hi_bits),
            |d| {
                // Instrumented: valid counts, MRE tags and MRE waves per
                // list, wave and link lanes per way.
                let ladder = u64::from(instrument) * (16 * d.lanes + 8 * d.stride);
                (
                    8 * (13 + 8 * d.lanes),
                    8 * (d.lanes.max(1) + 1),
                    8 * (1 + d.stride) + 4 * d.lanes + ladder,
                )
            },
        )?;
        let mut tree = MultiAssocTree::with_instrumentation(
            block_bits,
            (min_set_bits, max_set_bits),
            (assoc_lo_bits, assoc_hi_bits),
            opts,
            instrument,
        )
        .map_err(|_| SnapshotError::Corrupt("invalid fused-pass geometry"))?;
        let c = &mut tree.counters;
        c.accesses = cur.u64()?;
        c.node_evaluations = cur.u64()?;
        c.mra_stops = cur.u64()?;
        c.wave_hits = cur.u64()?;
        c.wave_misses = cur.u64()?;
        c.mre_misses = cur.u64()?;
        c.intersection_hits = cur.u64()?;
        c.intersection_misses = cur.u64()?;
        c.searches = cur.u64()?;
        c.duplicate_skips = cur.u64()?;
        c.search_comparisons = cur.u64()?;
        c.tag_comparisons = cur.u64()?;
        for lc in &mut tree.list_counters {
            lc.wave_hits = cur.u64()?;
            lc.wave_misses = cur.u64()?;
            lc.mre_checks = cur.u64()?;
            lc.mre_misses = cur.u64()?;
            lc.intersection_hits = cur.u64()?;
            lc.intersection_misses = cur.u64()?;
            lc.searches = cur.u64()?;
            lc.search_comparisons = cur.u64()?;
        }
        tree.prev_block = cur.u64()?;
        let num_lists = tree.widths.len();
        let (stride, pstride) = (tree.stride, tree.pstride);
        let f = &mut tree.forest;
        for v in f
            .misses
            .iter_mut()
            .chain(&mut f.dm_misses)
            .chain(&mut f.mra)
        {
            *v = cur.u64()?;
        }
        // Snapshots carry the logical stride per node; the padding tail
        // keeps its construction-time sentinels (see `to_snapshot`).
        let total_nodes = *f.node_off.last().expect("at least one level");
        for node in 0..total_nodes {
            let base = node * pstride;
            for v in &mut f.tags[base..base + stride] {
                *v = cur.u64()?;
            }
        }
        for (i, v) in f.fifo.iter_mut().enumerate() {
            *v = cur.u32()?;
            if num_lists > 0 && *v as usize >= tree.widths[i % num_lists] {
                return Err(SnapshotError::Corrupt("fifo pointer out of range"));
            }
        }
        if instrument {
            for (i, v) in f.valid.iter_mut().enumerate() {
                *v = cur.u32()?;
                if num_lists > 0 && *v as usize > tree.widths[i % num_lists] {
                    return Err(SnapshotError::Corrupt("valid count out of range"));
                }
            }
            for v in &mut f.mre {
                *v = cur.u64()?;
            }
            for v in &mut f.mre_wave {
                *v = cur.u32()?;
            }
            for lane in [&mut f.waves, &mut f.xlink] {
                for node in 0..total_nodes {
                    let base = node * pstride;
                    for v in &mut lane[base..base + stride] {
                        *v = cur.u32()?;
                    }
                }
            }
        }
        if cur.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes(cur.remaining()));
        }
        Ok(tree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::DewTree;
    use dew_cachesim::{simulate_trace, CacheConfig, Replacement};

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
            let mut tree = MultiAssocTree::with_instrumentation(
                2,
                (0, 5),
                (0, 3),
                DewOptions::default(),
                instrument,
            )
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
            let mut fast = MultiAssocTree::new(2, 0, 6, 8, opts).expect("valid");
            let mut slow = MultiAssocTree::instrumented(2, 0, 6, 8, opts).expect("valid");
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
            let mut stepped = MultiAssocTree::with_instrumentation(
                2,
                (0, 5),
                (0, 3),
                DewOptions::default(),
                instrument,
            )
            .expect("valid");
            for &x in &a {
                stepped.step(x);
            }
            let mut batched = MultiAssocTree::with_instrumentation(
                2,
                (0, 5),
                (0, 3),
                DewOptions::default(),
                instrument,
            )
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
            MultiAssocTree::instrumented(2, 0, 8, 16, DewOptions::default()).expect("valid");
        for &x in &a {
            multi.step(x);
        }
        let mr = multi.results();

        let mut separate_comparisons = 0;
        for assoc in [2u32, 4, 8, 16] {
            let pass = PassConfig::new(2, 0, 8, assoc).expect("valid");
            let mut tree = DewTree::instrumented(pass, DewOptions::default()).expect("sound");
            for &x in &a {
                tree.step(x);
            }
            separate_comparisons += tree.counters().tag_comparisons;
            let r = tree.results();
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
            "sharing the walk, MRA and intersection links must cut total comparisons: {} vs {}",
            multi.counters().tag_comparisons,
            separate_comparisons
        );
    }

    #[test]
    fn intersection_links_fire_and_fanned_counters_are_consistent() {
        // The link sits *after* the paper's wave pointer in the ladder, so
        // with waves disabled it becomes the primary short-circuit: a loopy
        // working set gives the narrower lists plenty of hits to feed the
        // links of the wider ones.
        let a: Vec<u64> = (0..6000u64).map(|i| ((i * 13) % 200) * 4).collect();
        let opts = DewOptions {
            wave: false,
            ..DewOptions::default()
        };
        let mut tree = MultiAssocTree::instrumented(2, 0, 6, 8, opts).expect("valid");
        for &x in &a {
            tree.step(x);
        }
        assert!(
            tree.counters().intersection_total() > 0,
            "intersection links must settle some evaluations: {}",
            tree.counters()
        );
        for &assoc in tree.assoc_list() {
            let c = tree.pass_counters(assoc).expect("simulated");
            assert!(c.is_consistent(), "assoc={assoc}: {c}");
            assert_eq!(c.accesses, a.len() as u64);
            assert_eq!(c.node_evaluations, tree.counters().node_evaluations);
        }
        assert!(tree.pass_counters(32).is_none());
    }

    #[test]
    fn intersection_links_fire_at_the_root_under_default_options() {
        // With waves on, the link's exclusive territory is the root level
        // (which has no parent entry to hold a wave pointer): loop over a
        // working set that fits the wider root lists but not the narrowest.
        let a: Vec<u64> = (0..4000u64).map(|i| (i % 3) * 4).collect();
        let mut tree =
            MultiAssocTree::instrumented(2, 0, 4, 8, DewOptions::default()).expect("valid");
        for &x in &a {
            tree.step(x);
        }
        assert!(
            tree.counters().intersection_hits > 0,
            "the 4-way root hits must short-circuit the 8-way search: {}",
            tree.counters()
        );
        for &assoc in tree.assoc_list() {
            let c = tree.pass_counters(assoc).expect("simulated");
            assert!(c.is_consistent(), "assoc={assoc}: {c}");
        }
    }

    #[test]
    fn pass_results_fan_out_matches_all_assoc_view() {
        let a = addrs(2500, 0xFA11);
        let mut tree = MultiAssocTree::new(3, 1, 6, 8, DewOptions::default()).expect("valid");
        for &x in &a {
            tree.step(x);
        }
        let all = tree.results();
        for &assoc in tree.assoc_list() {
            let pr = tree.pass_results(assoc).expect("simulated");
            assert_eq!(pr.pass().assoc(), assoc);
            for set_bits in 1..=6u32 {
                let sets = 1 << set_bits;
                assert_eq!(
                    pr.misses(sets, assoc),
                    all.misses(sets, assoc),
                    "sets={sets} assoc={assoc}"
                );
            }
        }
        assert!(tree.pass_results(16).is_none());
    }

    #[test]
    fn assoc_range_above_one_skips_narrow_lists() {
        let a = addrs(2000, 0x404);
        let mut ranged =
            MultiAssocTree::with_instrumentation(2, (0, 4), (2, 3), DewOptions::default(), false)
                .expect("valid");
        let mut full = MultiAssocTree::new(2, 0, 4, 8, DewOptions::default()).expect("valid");
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
    fn wide_runtime_shapes_use_the_fallback_scan() {
        // Widths 2..=32 (stride 62) exceed the position bitmask of the
        // const-shape kernel, exercising the runtime fallback.
        let a = addrs(2500, 0x3C3C);
        let mut tree = MultiAssocTree::new(2, 0, 3, 32, DewOptions::default()).expect("valid");
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
            let mut tree = MultiAssocTree::instrumented(2, 0, 4, 4, opts).expect("valid");
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
            let mut t = MultiAssocTree::new(4, 0, 5, 8, DewOptions::default()).expect("valid");
            for &x in &a {
                t.step(x);
            }
            t.results()
        };
        let opts = DewOptions {
            dup_elision: true,
            ..DewOptions::default()
        };
        let mut t = MultiAssocTree::instrumented(4, 0, 5, 8, opts).expect("valid");
        for &x in &a {
            t.step(x);
        }
        assert_eq!(t.results(), plain, "elision must not change results");
        assert!(t.counters().duplicate_skips > 1000);
    }

    #[test]
    fn lru_options_are_rejected() {
        assert!(matches!(
            MultiAssocTree::new(2, 0, 4, 4, DewOptions::lru()),
            Err(DewError::UnsoundOptions(_))
        ));
    }

    #[test]
    fn bad_assoc_ranges_are_rejected() {
        assert!(matches!(
            MultiAssocTree::new(2, 0, 4, 3, DewOptions::default()),
            Err(DewError::BadAssoc(3))
        ));
        assert!(matches!(
            MultiAssocTree::new(2, 0, 4, 0, DewOptions::default()),
            Err(DewError::BadAssoc(0))
        ));
        assert!(MultiAssocTree::with_instrumentation(
            2,
            (0, 4),
            (3, 1),
            DewOptions::default(),
            false
        )
        .is_err());
    }

    #[test]
    fn assoc_one_only_still_works() {
        let a = addrs(1000, 0x11);
        for instrument in [false, true] {
            let mut tree = MultiAssocTree::with_instrumentation(
                2,
                (0, 4),
                (0, 0),
                DewOptions::default(),
                instrument,
            )
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

    #[test]
    #[should_panic(expected = "exceeds the supported range")]
    fn sentinel_block_panics_in_batches() {
        let mut t = MultiAssocTree::new(0, 0, 1, 2, DewOptions::default()).expect("valid");
        t.run_blocks(&[0, 1, u64::MAX]);
    }
}
