//! Single-pass multi-configuration **LRU** simulation over the same binomial
//! forest — the comparator family DEW is positioned against — on the same
//! flat-arena storage and two-kernel compilation scheme as [`crate::DewTree`]
//! and [`crate::MultiAssocTree`].
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
//!    the walk can stop with *no* state updates — the LRU analogue of DEW's
//!    Property 2.
//!
//! [`LruTreeSimulator`] implements this family in the spirit of Janapsatya's
//! method with the CRCB-style consecutive-duplicate elision of Tojo et al.
//! (both toggleable via [`LruTreeOptions`]): MRU-first searches exploit
//! temporal locality, and per-node move-to-front lists produce exact miss
//! counts for every power-of-two associativity up to the list depth, at every
//! set count, in one pass.
//!
//! # Storage
//!
//! The whole forest lives in flat lanes: one dense **MRA lane** holding every
//! node's depth-0 (MRU) tag — which is simultaneously the direct-mapped cache
//! contents and the operand of the stack-property early exit — and one
//! contiguous **recency lane** where node `i`'s move-to-front list occupies
//! `tags[i*width ..][..width]` in MRU-first order, sized to the widest
//! requested associativity. Cold ways hold a sentinel at the tail of the
//! list, so a miss update is one `rotate_right(1)` of the whole region
//! followed by a front store — no valid-count bookkeeping on the hot path.
//!
//! # The two kernels
//!
//! Mirroring [`crate::DewTree`], the step kernel is compiled twice:
//!
//! * the **fast** kernel ([`LruTreeSimulator::new`]) keeps no work counters;
//!   residency depth is a branchless scan of the node's whole recency region
//!   into a position bitmask, const-specialized over the common widths
//!   (1/2/4/8/16), and the per-associativity miss tallies are computed
//!   without branches from the depth;
//! * the **instrumented** kernel ([`LruTreeSimulator::instrumented`])
//!   performs the classic MRU-first stop-at-match search over the valid
//!   prefix with every [`LruTreeCounters`] bucket live, plus a per-depth hit
//!   histogram ([`LruTreeSimulator::depth_hits`]).
//!
//! Both kernels produce bit-identical miss counts — a property-tested
//! invariant, exactly like the FIFO kernels'.
//!
//! [`crate::SweepRequest`] drives this type for LRU spaces: all passes of one
//! block size fuse into a single streamed traversal, fanned back out through
//! [`LruTreeSimulator::pass_results`] / [`LruTreeSimulator::pass_counters`].
//!
//! # Examples
//!
//! ```
//! use dew_core::lru_tree::{LruTreeOptions, LruTreeSimulator};
//! use dew_trace::Record;
//!
//! # fn main() -> Result<(), dew_core::DewError> {
//! // Set counts 1..=8, associativities 1, 2 and 4, 4-byte blocks.
//! let mut sim = LruTreeSimulator::new(2, 0, 3, 4, LruTreeOptions::default())?;
//! for i in 0..100u64 {
//!     sim.step_record(Record::read((i % 10) * 4));
//! }
//! let misses_dm = sim.results().misses(8, 1).expect("simulated");
//! let misses_4w = sim.results().misses(8, 4).expect("simulated");
//! assert!(misses_4w <= misses_dm, "the LRU stack property");
//! # Ok(())
//! # }
//! ```

use std::fmt;

use dew_trace::Record;

use crate::counters::DewCounters;
use crate::node::INVALID_TAG;
use crate::results::{AllAssocResults, LevelResult, PassResults};
use crate::simd::{
    first_match, prefetch_read, KernelBackend, ScalarScan, TagLane, TagScan, PF_DIST,
};
use crate::space::{DewError, PassConfig};

/// Snapshot magic of the arena LRU simulator (the single-pass
/// [`crate::DewTree`] format `DEWS` describes a different layout).
pub(crate) const SNAP_MAGIC: [u8; 4] = *b"DEWL";
/// Snapshot format version of the arena LRU simulator.
const SNAP_VERSION: u8 = 1;

/// Behaviour toggles of the LRU comparator (both default to on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LruTreeOptions {
    /// Stop the walk when the request hits at depth 0 (it is the MRU block
    /// of the set): by set-refinement inclusion it is MRU at every larger
    /// set count, so no accounting or list update is needed below.
    pub depth_zero_stop: bool,
    /// CRCB-style elision: a request to the same block as the immediately
    /// preceding request hits at depth 0 everywhere and is skipped outright.
    pub duplicate_elision: bool,
}

impl Default for LruTreeOptions {
    fn default() -> Self {
        LruTreeOptions {
            depth_zero_stop: true,
            duplicate_elision: true,
        }
    }
}

/// Work counters of the LRU comparator (instrumented kernel only; the fast
/// kernel maintains just the request-level `accesses`/`duplicate_skips`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LruTreeCounters {
    /// Requests simulated (skipped duplicates included).
    pub accesses: u64,
    /// Tree nodes visited.
    pub node_evaluations: u64,
    /// Walks ended early by a depth-0 hit.
    pub depth_zero_stops: u64,
    /// Requests elided as consecutive duplicates.
    pub duplicate_skips: u64,
    /// Tag comparisons performed (the depth-0 MRA comparison of each node
    /// evaluation plus the MRU-first sequential search below it).
    pub tag_comparisons: u64,
}

impl fmt::Display for LruTreeCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} evaluations, {} depth-0 stops, {} duplicate skips, {} comparisons",
            self.accesses,
            self.node_evaluations,
            self.depth_zero_stops,
            self.duplicate_skips,
            self.tag_comparisons
        )
    }
}

/// The arena: flat lanes over all forest levels concatenated.
#[derive(Debug, Clone)]
struct LruArena {
    /// Dense per-node MRU tags (depth 0 of every recency list): the
    /// direct-mapped cache contents and the stack-property early-exit
    /// operand.
    mra: Vec<u64>,
    /// Contiguous recency lane, cache-line aligned ([`TagLane`]): node
    /// `i`'s move-to-front list is `tags[i*width ..][..width]`, MRU-first,
    /// sentinel-padded at the tail.
    tags: TagLane,
    /// Valid prefix length per node; instrumented only (the fast kernel's
    /// sentinel scan never needs it).
    valid: Vec<u32>,
    /// Node-index base per level plus a final total, as in `DewTree`.
    node_off: Vec<usize>,
    /// `(1 << set_bits) - 1` per level.
    set_mask: Vec<u64>,
    /// Misses per `(level, threshold)`, level-major (thresholds are the
    /// reported associativities above 1).
    misses: Vec<u64>,
    /// Direct-mapped misses per level (from the shared MRA comparisons).
    dm_misses: Vec<u64>,
}

impl LruArena {
    fn new(pass: &PassConfig, width: usize, num_thresholds: usize, instrument: bool) -> Self {
        let mut node_off = Vec::with_capacity(pass.num_levels() as usize + 1);
        let mut set_mask = Vec::with_capacity(pass.num_levels() as usize);
        let mut total = 0usize;
        for set_bits in pass.min_set_bits()..=pass.max_set_bits() {
            node_off.push(total);
            set_mask.push((1u64 << set_bits) - 1);
            total += 1usize << set_bits;
        }
        node_off.push(total);
        let num_levels = pass.num_levels() as usize;
        LruArena {
            mra: vec![INVALID_TAG; total],
            tags: TagLane::filled(total * width, INVALID_TAG),
            valid: if instrument {
                vec![0; total]
            } else {
                Vec::new()
            },
            node_off,
            set_mask,
            // `max(1)`: an assoc-1-only forest (no thresholds) still
            // iterates its levels through `chunks_exact_mut`, which needs a
            // nonzero stride.
            misses: vec![0; num_levels * num_thresholds.max(1)],
            dm_misses: vec![0; num_levels],
        }
    }
}

/// Exact single-pass LRU simulator for all set counts in a range and all
/// power-of-two associativities in a range. See the module docs.
///
/// # Examples
///
/// The stack property makes one move-to-front lane exact for every
/// associativity at once:
///
/// ```
/// use dew_core::lru_tree::{LruTreeOptions, LruTreeSimulator};
///
/// # fn main() -> Result<(), dew_core::DewError> {
/// // Sets 1..=16, associativities 1, 2 and 4, 8-byte blocks.
/// let mut sim = LruTreeSimulator::new(3, 0, 4, 4, LruTreeOptions::default())?;
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
#[derive(Debug, Clone)]
pub struct LruTreeSimulator {
    /// Geometry; `assoc()` reports the widest simulated associativity.
    pass: PassConfig,
    opts: LruTreeOptions,
    /// Every reported associativity, ascending (includes 1 when the range
    /// starts there; associativity-1 results come from the MRA lane).
    assoc_list: Vec<u32>,
    /// Reported associativities above 1: a hit at depth `d` misses exactly
    /// the thresholds `<= d` (the stack property).
    thresholds: Vec<u32>,
    /// Recency-lane entries per node (the widest associativity).
    width: usize,
    arena: LruArena,
    counters: LruTreeCounters,
    /// Hits per recency depth (`0..width`); instrumented only.
    depth_hits: Vec<u64>,
    /// Block of the previous request, for the CRCB-style elision.
    prev_block: u64,
    /// Which kernel instantiation `step` dispatches to.
    instrument: bool,
    /// The tag-scan backend batched fast scans run on, fixed at
    /// construction from [`KernelBackend::active`].
    backend: KernelBackend,
}

impl LruTreeSimulator {
    /// Builds a simulator for set counts `2^min_set_bits..=2^max_set_bits`,
    /// block size `2^block_bits` bytes, and associativities
    /// `1, 2, 4, …, max_assoc`, using the fast (uninstrumented) kernel. Use
    /// [`LruTreeSimulator::instrumented`] when the work counters matter.
    ///
    /// # Errors
    ///
    /// The same geometry validation as [`PassConfig::new`].
    pub fn new(
        block_bits: u32,
        min_set_bits: u32,
        max_set_bits: u32,
        max_assoc: u32,
        opts: LruTreeOptions,
    ) -> Result<Self, DewError> {
        if max_assoc == 0 || !max_assoc.is_power_of_two() {
            return Err(DewError::BadAssoc(max_assoc));
        }
        LruTreeSimulator::with_instrumentation(
            block_bits,
            (min_set_bits, max_set_bits),
            (0, max_assoc.trailing_zeros()),
            opts,
            false,
        )
    }

    /// As [`LruTreeSimulator::new`], but with the instrumented kernel: the
    /// classic MRU-first counted search with every [`LruTreeCounters`]
    /// bucket and the per-depth hit histogram live. Miss counts are
    /// bit-identical to the fast kernel's — a property-tested invariant.
    ///
    /// # Errors
    ///
    /// As [`LruTreeSimulator::new`].
    pub fn instrumented(
        block_bits: u32,
        min_set_bits: u32,
        max_set_bits: u32,
        max_assoc: u32,
        opts: LruTreeOptions,
    ) -> Result<Self, DewError> {
        if max_assoc == 0 || !max_assoc.is_power_of_two() {
            return Err(DewError::BadAssoc(max_assoc));
        }
        LruTreeSimulator::with_instrumentation(
            block_bits,
            (min_set_bits, max_set_bits),
            (0, max_assoc.trailing_zeros()),
            opts,
            true,
        )
    }

    /// Full-control constructor: inclusive `log2` ranges for the set counts
    /// and the reported associativities (so a sweep whose space starts above
    /// associativity 1 does not report lists it was not asked for — the
    /// recency lane is always sized to the widest), and a runtime kernel
    /// selection. This is the entry point [`crate::SweepRequest`] uses for
    /// its fused per-block-size LRU passes.
    ///
    /// # Errors
    ///
    /// As [`PassConfig::new`], plus [`DewError::EmptySetRange`] when the
    /// associativity range is inverted.
    pub fn with_instrumentation(
        block_bits: u32,
        set_bits: (u32, u32),
        assoc_bits: (u32, u32),
        opts: LruTreeOptions,
        instrument: bool,
    ) -> Result<Self, DewError> {
        if assoc_bits.0 > assoc_bits.1 {
            return Err(DewError::EmptySetRange {
                min_set_bits: assoc_bits.0,
                max_set_bits: assoc_bits.1,
            });
        }
        let pass = PassConfig::new(block_bits, set_bits.0, set_bits.1, 1 << assoc_bits.1)?;
        let assoc_list: Vec<u32> = (assoc_bits.0..=assoc_bits.1).map(|b| 1 << b).collect();
        let thresholds: Vec<u32> = (assoc_bits.0.max(1)..=assoc_bits.1)
            .map(|b| 1 << b)
            .collect();
        let width = 1usize << assoc_bits.1;
        Ok(LruTreeSimulator {
            arena: LruArena::new(&pass, width, thresholds.len(), instrument),
            pass,
            opts,
            assoc_list,
            thresholds,
            width,
            counters: LruTreeCounters::default(),
            depth_hits: if instrument {
                vec![0; width]
            } else {
                Vec::new()
            },
            prev_block: INVALID_TAG,
            instrument,
            backend: KernelBackend::active(),
        })
    }

    /// The simulated associativities, ascending.
    #[must_use]
    pub fn assoc_list(&self) -> &[u32] {
        &self.assoc_list
    }

    /// The geometry of the forest (`assoc()` reports the widest list).
    #[must_use]
    pub fn pass(&self) -> &PassConfig {
        &self.pass
    }

    /// `true` when this simulator maintains the work counters.
    #[must_use]
    pub fn is_instrumented(&self) -> bool {
        self.instrument
    }

    /// The tag-scan backend batched fast scans run on (fixed at
    /// construction from [`KernelBackend::active`]).
    #[must_use]
    pub fn scan_backend(&self) -> KernelBackend {
        self.backend
    }

    /// Pins the scan backend (the differential harness drives the same
    /// simulator once per backend to prove them bit-identical).
    ///
    /// # Errors
    ///
    /// [`DewError::UnsoundOptions`] when `backend` is not available on this
    /// build/machine.
    pub fn force_scan_backend(&mut self, backend: KernelBackend) -> Result<(), DewError> {
        if !backend.is_available() {
            return Err(DewError::UnsoundOptions(
                "requested scan backend is not available on this build/machine",
            ));
        }
        self.backend = backend;
        Ok(())
    }

    /// The work counters.
    #[must_use]
    pub fn counters(&self) -> &LruTreeCounters {
        &self.counters
    }

    /// Hits per recency depth (`depth_hits()[d]` counts hits whose stack
    /// distance was exactly `d`), maintained by the instrumented kernel;
    /// empty for fast simulators. Depth-0 hits elided as consecutive
    /// duplicates are tallied in
    /// [`LruTreeCounters::duplicate_skips`] instead, and a fired depth-0
    /// stop ends the walk, so deeper levels' depth-0 hits are — like every
    /// other saved evaluation — not re-counted.
    #[must_use]
    pub fn depth_hits(&self) -> &[u64] {
        &self.depth_hits
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
    /// As [`LruTreeSimulator::step`], if `block` equals the internal
    /// sentinel.
    pub fn step_block(&mut self, block: u64) {
        assert_ne!(
            block, INVALID_TAG,
            "block {block:#x} exceeds the supported range"
        );
        if self.instrument {
            self.kernel_instrumented(block);
        } else {
            self.dispatch_fast(block);
        }
    }

    /// Simulates a batch of pre-decoded block numbers (see
    /// `dew_trace::decode_blocks` / `dew_trace::BlockChunks`). This is the
    /// fastest way to drive a fused LRU pass: the sweep decodes the trace
    /// once per block size and every associativity consumes the same lane.
    ///
    /// # Panics
    ///
    /// As [`LruTreeSimulator::step`], if any block equals the internal
    /// sentinel.
    pub fn run_blocks(&mut self, blocks: &[u64]) {
        if self.instrument {
            for &b in blocks {
                assert_ne!(b, INVALID_TAG, "block {b:#x} exceeds the supported range");
                self.kernel_instrumented(b);
            }
        } else {
            match self.backend {
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                KernelBackend::Avx2 => {
                    // SAFETY: `backend` is only `Avx2` after runtime
                    // detection (`KernelBackend::is_available`).
                    #[allow(unsafe_code)]
                    unsafe {
                        self.run_blocks_fast_avx2(blocks);
                    }
                }
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                KernelBackend::Sse2 => self.drive_fast(crate::simd::Sse2Scan, blocks),
                _ => self.drive_fast(ScalarScan, blocks),
            }
        }
    }

    /// The AVX2 compilation root of the fast batch loop (see
    /// `crate::simd` module docs for the dispatch rules).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2")]
    #[allow(unsafe_code)]
    unsafe fn run_blocks_fast_avx2(&mut self, blocks: &[u64]) {
        self.drive_fast(crate::simd::Avx2Scan, blocks);
    }

    /// The fast batch loop: width dispatch, plus software prefetch of the
    /// deepest (largest, least cache-resident) level's MRA word and recency
    /// region [`PF_DIST`] requests ahead.
    #[inline(always)]
    fn drive_fast<S: TagScan>(&mut self, scan: S, blocks: &[u64]) {
        let deepest = self.arena.set_mask.len() - 1;
        let d_off = self.arena.node_off[deepest];
        let d_mask = self.arena.set_mask[deepest];
        let width = self.width;
        macro_rules! drive {
            ($w:literal) => {{
                for (i, &b) in blocks.iter().enumerate() {
                    assert_ne!(b, INVALID_TAG, "block {b:#x} exceeds the supported range");
                    if let Some(&ahead) = blocks.get(i + PF_DIST) {
                        let node = d_off + (ahead & d_mask) as usize;
                        prefetch_read(&self.arena.mra, node);
                        prefetch_read(&self.arena.tags, node * width);
                    }
                    self.kernel_fast::<$w, S>(scan, b);
                }
            }};
        }
        match self.width {
            1 => drive!(1),
            2 => drive!(2),
            4 => drive!(4),
            8 => drive!(8),
            16 => drive!(16),
            _ => drive!(0),
        }
    }

    /// Fast-kernel dispatch on the recency-lane width: the common widths
    /// (the paper's sweep ranges) get their own instantiation so the scan
    /// width is a compile-time constant and the position-bitmask loop
    /// unrolls into straight-line vectorisable compares. Anything wider
    /// falls back to the runtime-width scan (`W = 0`).
    fn dispatch_fast(&mut self, block: u64) {
        // Single steps always use the scalar scan: batch-level backend
        // dispatch is where the SIMD instantiations live (`crate::simd`
        // module docs), and the backends are bit-identical anyway.
        match self.width {
            1 => self.kernel_fast::<1, _>(ScalarScan, block),
            2 => self.kernel_fast::<2, _>(ScalarScan, block),
            4 => self.kernel_fast::<4, _>(ScalarScan, block),
            8 => self.kernel_fast::<8, _>(ScalarScan, block),
            16 => self.kernel_fast::<16, _>(ScalarScan, block),
            _ => self.kernel_fast::<0, _>(ScalarScan, block),
        }
    }

    /// Shared per-request prologue of both kernels: request accounting and
    /// the CRCB-style duplicate elision. Returns `true` when the request
    /// was elided whole.
    #[inline(always)]
    fn prologue(&mut self, block: u64) -> bool {
        self.counters.accesses += 1;
        if self.opts.duplicate_elision {
            if block == self.prev_block {
                // The block is the MRU entry of every set on its path: a hit
                // at depth 0 for every configuration, and move-to-front is a
                // no-op.
                self.counters.duplicate_skips += 1;
                return true;
            }
            self.prev_block = block;
        }
        false
    }

    /// The fast kernel: no counter traffic. Per level, one dense MRA
    /// comparison settles depth 0 (and the direct-mapped result); otherwise
    /// a branchless scan of the node's whole recency region yields the hit
    /// depth as a position bitmask, the per-threshold miss tallies fall out
    /// of the depth without branches, and the move-to-front update is a
    /// single prefix rotation (a whole-region rotation plus front store on
    /// a miss — the sentinel or true LRU victim wraps around and is
    /// overwritten).
    ///
    /// `W` is the compile-time lane width, or `0` for the runtime fallback;
    /// `S` is the tag-scan backend the wide compare runs on ([`TagScan`]).
    fn kernel_fast<const W: usize, S: TagScan>(&mut self, scan: S, block: u64) {
        if self.prologue(block) {
            return;
        }
        let width = if W == 0 { self.width } else { W };
        debug_assert_eq!(width, self.width);
        let stop = self.opts.depth_zero_stop;
        let nk = self.thresholds.len();
        let a = &mut self.arena;
        let levels = a.set_mask.iter().zip(a.node_off.iter()).zip(
            a.misses
                .chunks_exact_mut(nk.max(1))
                .zip(a.dm_misses.iter_mut()),
        );
        for ((&mask, &off), (level_misses, level_dm_misses)) in levels {
            let node = off + (block & mask) as usize;
            if a.mra[node] == block {
                if stop {
                    // Set-refinement inclusion: MRU here means MRU at every
                    // larger set count — no accounting or update below.
                    return;
                }
                continue;
            }
            *level_dm_misses += 1;
            a.mra[node] = block;
            let region = &mut a.tags[node * width..(node + 1) * width];
            // A resident block occupies exactly one way, so the bitmask has
            // at most one bit; depth `width` encodes a miss.
            let depth = if W == 0 {
                first_match(scan, region, block).unwrap_or(width)
            } else {
                let hit_mask = scan.match_mask(region, block);
                if hit_mask == 0 {
                    width
                } else {
                    hit_mask.trailing_zeros() as usize
                }
            };
            // Stack property: a hit at depth d misses every associativity
            // <= d; a miss (depth == width) misses them all.
            for (k, &thr) in self.thresholds.iter().enumerate() {
                level_misses[k] += u64::from(depth >= thr as usize);
            }
            // Move to front. On a hit the rotation carries the matching way
            // to the front (the store is then a no-op); on a miss the
            // whole-region rotation wraps the tail entry — a sentinel while
            // cold, the true LRU victim when full — to the front, where the
            // store replaces it.
            region[..=depth.min(width - 1)].rotate_right(1);
            region[0] = block;
        }
    }

    /// The instrumented kernel: the classic MRU-first stop-at-match search
    /// over the valid prefix, with every counter and the per-depth hit
    /// histogram live. Miss counts are bit-identical to the fast kernel's.
    fn kernel_instrumented(&mut self, block: u64) {
        if self.prologue(block) {
            return;
        }
        let width = self.width;
        let stop = self.opts.depth_zero_stop;
        let nk = self.thresholds.len();
        let stride = nk.max(1);
        let a = &mut self.arena;
        for li in 0..a.set_mask.len() {
            let node = a.node_off[li] + (block & a.set_mask[li]) as usize;
            self.counters.node_evaluations += 1;
            // Depth 0 is the dense MRA lane: one comparison, shared with the
            // direct-mapped simulation.
            self.counters.tag_comparisons += 1;
            if a.mra[node] == block {
                self.depth_hits[0] += 1;
                if stop {
                    self.counters.depth_zero_stops += 1;
                    return;
                }
                continue;
            }
            a.dm_misses[li] += 1;
            a.mra[node] = block;
            let valid = a.valid[node] as usize;
            let region = &mut a.tags[node * width..(node + 1) * width];
            // MRU-first search below depth 0 (Janapsatya's temporal-locality
            // order), stopping at the match; depth 0 was settled above.
            let mut found = None;
            for (d, &tag) in region.iter().enumerate().take(valid).skip(1) {
                self.counters.tag_comparisons += 1;
                if tag == block {
                    found = Some(d);
                    break;
                }
            }
            match found {
                Some(d) => {
                    self.depth_hits[d] += 1;
                    for (k, &thr) in self.thresholds.iter().enumerate() {
                        a.misses[li * stride + k] += u64::from(d >= thr as usize);
                    }
                    region[..=d].rotate_right(1);
                }
                None => {
                    for k in 0..nk {
                        a.misses[li * stride + k] += 1;
                    }
                    region[..=valid.min(width - 1)].rotate_right(1);
                    region[0] = block;
                    a.valid[node] = (valid + 1).min(width) as u32;
                }
            }
        }
    }

    /// Snapshot of the per-configuration miss counts (associativity 1, when
    /// simulated, comes from the shared direct-mapped accounting).
    #[must_use]
    pub fn results(&self) -> AllAssocResults {
        let include_dm = self.assoc_list.first() == Some(&1);
        let nk = self.thresholds.len();
        let stride = nk.max(1);
        let misses = (0..self.arena.dm_misses.len())
            .map(|li| {
                let mut row = Vec::with_capacity(self.assoc_list.len());
                if include_dm {
                    row.push(self.arena.dm_misses[li]);
                }
                row.extend_from_slice(&self.arena.misses[li * stride..li * stride + nk]);
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

    /// Fans this pass out into the [`PassResults`] a standalone
    /// `(block size, assoc)` pass would have produced, or `None` when
    /// `assoc` was not simulated. This is how [`crate::SweepRequest`] keeps
    /// its per-pass result shape while traversing the trace once per block
    /// size under LRU, exactly as the FIFO scheduler does through
    /// [`crate::MultiAssocTree::pass_results`].
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
        let stride = self.thresholds.len().max(1);
        let k = self.thresholds.iter().position(|&t| t == assoc);
        let levels = self
            .arena
            .dm_misses
            .iter()
            .enumerate()
            .map(|(li, &dm)| {
                let misses = match k {
                    Some(k) => self.arena.misses[li * stride + k],
                    None => dm, // assoc 1: the MRA lane is the simulation
                };
                LevelResult::new(self.pass.min_set_bits() + li as u32, misses, dm)
            })
            .collect();
        Some(PassResults::new(pass, self.counters.accesses, levels))
    }

    /// The [`DewCounters`] view a standalone pass at `assoc` is entitled to
    /// report, derived from the shared walk: one recency list serves every
    /// associativity, so — unlike the FIFO fan-out — *all* quantities are
    /// shared verbatim. The depth-0 stop maps onto the `mra_stops` bucket
    /// (it is the LRU analogue of Property 2) and every other evaluation is
    /// a search, so the [`DewCounters::is_consistent`] identity holds for
    /// every fanned-out view. Returns `None` when `assoc` was not
    /// simulated.
    #[must_use]
    pub fn pass_counters(&self, assoc: u32) -> Option<DewCounters> {
        if !self.assoc_list.contains(&assoc) {
            return None;
        }
        if !self.instrument {
            // The fast kernel maintains only the request-level counters,
            // exactly like `DewTree::new`.
            return Some(DewCounters {
                accesses: self.counters.accesses,
                duplicate_skips: self.counters.duplicate_skips,
                ..DewCounters::new()
            });
        }
        let searches = self.counters.node_evaluations - self.counters.depth_zero_stops;
        let search_comparisons = self.counters.tag_comparisons - self.counters.node_evaluations;
        Some(DewCounters {
            accesses: self.counters.accesses,
            duplicate_skips: self.counters.duplicate_skips,
            node_evaluations: self.counters.node_evaluations,
            mra_stops: self.counters.depth_zero_stops,
            searches,
            search_comparisons,
            tag_comparisons: self.counters.tag_comparisons,
            ..DewCounters::new()
        })
    }

    /// Actual heap footprint of the arena's lanes in bytes (excludes
    /// counters and scratch).
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        let a = &self.arena;
        a.mra.len() * 8 + a.tags.len() * 8 + a.valid.len() * 4
    }

    /// Serialises the complete arena state (geometry, options, counters,
    /// every recency lane) to bytes under its own magic (`DEWL`), mirroring
    /// [`crate::DewTree::to_snapshot`]. The sharded sweep's exact
    /// snapshot-handoff mode rebuilds a fresh simulator from these bytes at
    /// every shard boundary.
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
        let flags = u8::from(self.opts.depth_zero_stop)
            | u8::from(self.opts.duplicate_elision) << 1
            | u8::from(self.instrument) << 2;
        out.push(flags);
        let c = &self.counters;
        for v in [
            c.accesses,
            c.node_evaluations,
            c.depth_zero_stops,
            c.duplicate_skips,
            c.tag_comparisons,
        ] {
            put_u64(&mut out, v);
        }
        for &v in &self.depth_hits {
            put_u64(&mut out, v);
        }
        put_u64(&mut out, self.prev_block);
        let a = &self.arena;
        for &v in a
            .misses
            .iter()
            .chain(&a.dm_misses)
            .chain(&a.mra)
            .chain(&a.tags)
        {
            put_u64(&mut out, v);
        }
        for &v in &a.valid {
            put_u32(&mut out, v);
        }
        out
    }

    /// Restores a simulator from [`LruTreeSimulator::to_snapshot`] output.
    /// The snapshot is self-describing; continuing the restored simulator
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
                crate::multi_assoc::SNAP_MAGIC,
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
        let opts = LruTreeOptions {
            depth_zero_stop: flags & 1 != 0,
            duplicate_elision: flags & 2 != 0,
        };
        let instrument = flags & 4 != 0;
        check_body_len(
            &cur,
            (min_set_bits, max_set_bits),
            (assoc_lo_bits, assoc_hi_bits),
            |d| {
                (
                    8 * (6 + u64::from(instrument) * d.width),
                    8 * (d.lanes.max(1) + 1),
                    8 * (1 + d.width) + 4 * u64::from(instrument),
                )
            },
        )?;
        let mut sim = LruTreeSimulator::with_instrumentation(
            block_bits,
            (min_set_bits, max_set_bits),
            (assoc_lo_bits, assoc_hi_bits),
            opts,
            instrument,
        )
        .map_err(|_| SnapshotError::Corrupt("invalid arena geometry"))?;
        let c = &mut sim.counters;
        c.accesses = cur.u64()?;
        c.node_evaluations = cur.u64()?;
        c.depth_zero_stops = cur.u64()?;
        c.duplicate_skips = cur.u64()?;
        c.tag_comparisons = cur.u64()?;
        for v in &mut sim.depth_hits {
            *v = cur.u64()?;
        }
        sim.prev_block = cur.u64()?;
        let width = sim.width;
        let a = &mut sim.arena;
        for v in a
            .misses
            .iter_mut()
            .chain(&mut a.dm_misses)
            .chain(&mut a.mra)
        {
            *v = cur.u64()?;
        }
        for v in &mut a.tags {
            *v = cur.u64()?;
        }
        for v in &mut a.valid {
            *v = cur.u32()?;
            if *v as usize > width {
                return Err(SnapshotError::Corrupt("valid prefix out of range"));
            }
        }
        if cur.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes(cur.remaining()));
        }
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                    (x % 80) * 4
                }
            })
            .collect()
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
            let mut sim = LruTreeSimulator::with_instrumentation(
                2,
                (0, 5),
                (0, 3),
                LruTreeOptions::default(),
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
    fn fast_and_instrumented_kernels_are_bit_identical() {
        let a = addrs(4000, 0x5EED_F00D);
        let variants = [
            LruTreeOptions {
                depth_zero_stop: false,
                duplicate_elision: false,
            },
            LruTreeOptions {
                depth_zero_stop: true,
                duplicate_elision: false,
            },
            LruTreeOptions {
                depth_zero_stop: false,
                duplicate_elision: true,
            },
            LruTreeOptions::default(),
        ];
        for o in variants {
            let mut fast = LruTreeSimulator::new(2, 0, 6, 8, o).expect("valid");
            let mut slow = LruTreeSimulator::instrumented(2, 0, 6, 8, o).expect("valid");
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
            let mut stepped = LruTreeSimulator::with_instrumentation(
                2,
                (0, 5),
                (0, 3),
                LruTreeOptions::default(),
                instrument,
            )
            .expect("valid");
            for &x in &a {
                stepped.step(x);
            }
            let mut batched = LruTreeSimulator::with_instrumentation(
                2,
                (0, 5),
                (0, 3),
                LruTreeOptions::default(),
                instrument,
            )
            .expect("valid");
            batched.run_blocks(&blocks);
            assert_eq!(stepped.results(), batched.results());
            assert_eq!(stepped.counters(), batched.counters());
        }
    }

    #[test]
    fn options_do_not_change_results() {
        let a = addrs(2000, 0x5EED_2222);
        let variants = [
            LruTreeOptions {
                depth_zero_stop: false,
                duplicate_elision: false,
            },
            LruTreeOptions {
                depth_zero_stop: true,
                duplicate_elision: false,
            },
            LruTreeOptions {
                depth_zero_stop: false,
                duplicate_elision: true,
            },
            LruTreeOptions::default(),
        ];
        let runs: Vec<AllAssocResults> = variants
            .iter()
            .map(|&o| {
                let mut sim = LruTreeSimulator::new(2, 0, 4, 4, o).expect("valid");
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
        let run = |o: LruTreeOptions| {
            let mut sim = LruTreeSimulator::instrumented(2, 0, 6, 4, o).expect("valid");
            for &x in &a {
                sim.step(x);
            }
            *sim.counters()
        };
        let off = run(LruTreeOptions {
            depth_zero_stop: false,
            duplicate_elision: false,
        });
        let on = run(LruTreeOptions::default());
        assert!(on.node_evaluations < off.node_evaluations);
        assert!(on.tag_comparisons < off.tag_comparisons);
        assert!(on.duplicate_skips > 0);
    }

    #[test]
    fn depth_hits_histogram_tracks_stack_distances() {
        // A cyclic 3-block loop in one set: after warmup every hit has
        // stack distance 2 (the loop distance).
        let a: Vec<u64> = (0..300u64).map(|i| (i % 3) * 4).collect();
        let opts = LruTreeOptions {
            depth_zero_stop: false,
            duplicate_elision: false,
        };
        let mut sim = LruTreeSimulator::instrumented(2, 0, 0, 4, opts).expect("valid");
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
        let mut sim = LruTreeSimulator::new(2, 0, 5, 16, LruTreeOptions::default()).expect("valid");
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
        let mut sim = LruTreeSimulator::new(2, 0, 6, 4, LruTreeOptions::default()).expect("valid");
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
        // Width 32 exceeds the const-dispatch table, exercising the
        // runtime-width kernel.
        let a = addrs(2000, 0x5EED_3C3C);
        let mut sim = LruTreeSimulator::new(2, 0, 3, 32, LruTreeOptions::default()).expect("valid");
        for &x in &a {
            sim.step(x);
        }
        let r = sim.results();
        for set_bits in 0..=3u32 {
            for assoc in [1u32, 4, 32] {
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
        let mut ranged = LruTreeSimulator::with_instrumentation(
            2,
            (0, 4),
            (2, 3),
            LruTreeOptions::default(),
            false,
        )
        .expect("valid");
        let mut full = LruTreeSimulator::new(2, 0, 4, 8, LruTreeOptions::default()).expect("valid");
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
    fn pass_results_fan_out_matches_all_assoc_view() {
        let a = addrs(2500, 0x5EED_FA11);
        for instrument in [false, true] {
            let mut sim = LruTreeSimulator::with_instrumentation(
                3,
                (1, 6),
                (0, 3),
                LruTreeOptions::default(),
                instrument,
            )
            .expect("valid");
            for &x in &a {
                sim.step(x);
            }
            let all = sim.results();
            for &assoc in sim.assoc_list() {
                let pr = sim.pass_results(assoc).expect("simulated");
                assert_eq!(pr.pass().assoc(), assoc);
                for set_bits in 1..=6u32 {
                    let sets = 1 << set_bits;
                    assert_eq!(
                        pr.misses(sets, assoc),
                        all.misses(sets, assoc),
                        "sets={sets} assoc={assoc}"
                    );
                    assert_eq!(
                        pr.misses(sets, 1),
                        all.misses(sets, 1),
                        "DM via assoc={assoc}"
                    );
                }
                let c = sim.pass_counters(assoc).expect("simulated");
                assert!(c.is_consistent(), "assoc={assoc}: {c}");
                assert_eq!(c.accesses, a.len() as u64);
            }
            assert!(sim.pass_results(16).is_none());
            assert!(sim.pass_counters(16).is_none());
        }
    }

    #[test]
    fn unknown_configs_return_none() {
        let sim = LruTreeSimulator::new(2, 1, 3, 4, LruTreeOptions::default()).expect("valid");
        let r = sim.results();
        assert_eq!(r.misses(1, 4), None, "below min set count");
        assert_eq!(r.misses(8, 3), None, "unsimulated associativity");
        assert_eq!(r.misses(6, 2), None, "non power-of-two sets");
    }

    #[test]
    fn bad_assoc_ranges_are_rejected() {
        assert!(matches!(
            LruTreeSimulator::new(2, 0, 4, 3, LruTreeOptions::default()),
            Err(DewError::BadAssoc(3))
        ));
        assert!(matches!(
            LruTreeSimulator::new(2, 0, 4, 0, LruTreeOptions::default()),
            Err(DewError::BadAssoc(0))
        ));
        assert!(LruTreeSimulator::with_instrumentation(
            2,
            (0, 4),
            (3, 1),
            LruTreeOptions::default(),
            false
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "exceeds the supported range")]
    fn sentinel_block_panics_in_batches() {
        let mut sim = LruTreeSimulator::new(0, 0, 1, 2, LruTreeOptions::default()).expect("valid");
        sim.run_blocks(&[0, 1, u64::MAX]);
    }
}
