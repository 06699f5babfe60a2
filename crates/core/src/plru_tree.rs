//! Single-pass multi-configuration **tree-PLRU** simulation on the fused
//! arena: the policy real embedded L1s ship, running under the same
//! one-traversal-per-block-size contract as [`crate::MultiAssocTree`] (FIFO)
//! and [`crate::lru_tree::LruTreeSimulator`] (LRU).
//!
//! # A policy is a lane layout plus an update rule
//!
//! Tree-PLRU has neither FIFO's "blocks never move" invariant in a form that
//! admits intersection links, nor LRU's stack property — a PLRU hit *mutates*
//! per-set state (the direction bits), and a hit at associativity `A` says
//! nothing exact about associativity `2A`. So the PLRU lane layout is the
//! honest one: per `(node, associativity)` lane, a way-tag region plus one
//! word of direction bits, all updated in the same shared walk. What *does*
//! carry over from the paper's machinery:
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
//! use dew_core::plru_tree::{PlruTreeOptions, PlruTreeSimulator};
//!
//! # fn main() -> Result<(), dew_core::DewError> {
//! // Sets 1..=8, associativities 1, 2 and 4, 4-byte blocks.
//! let mut sim = PlruTreeSimulator::new(2, 0, 3, 4, PlruTreeOptions::default())?;
//! for i in 0..100u64 {
//!     sim.step((i % 40) * 4);
//! }
//! assert_eq!(sim.assoc_list(), &[1, 2, 4]);
//! assert!(sim.results().misses(8, 4).is_some());
//! # Ok(())
//! # }
//! ```

use std::fmt;

use dew_trace::Record;

use crate::counters::DewCounters;
use crate::node::INVALID_TAG;
use crate::results::{AllAssocResults, LevelResult, PassResults};
use crate::simd::{
    lane_scan, prefetch_read, window_scan, with_lane_shape, KernelBackend, LaneScan, ScalarScan,
    TagLane, TagScan, PF_DIST,
};
use crate::space::{DewError, PassConfig};

/// Snapshot magic of the arena tree-PLRU simulator.
pub(crate) const SNAP_MAGIC: [u8; 4] = *b"DEWP";
/// Snapshot format version of the arena tree-PLRU simulator. Version 1
/// also carried a per-`(node, lane)` MRA way pointer; it still decodes, the
/// pointers are skipped.
const SNAP_VERSION: u8 = 2;

/// Widest PLRU lane supported: the direction bits of one lane live in a
/// single `u64` heap (matching `dew_cachesim`'s `MAX_PLRU_ASSOC`).
pub const MAX_PLRU_ASSOC: u32 = 64;

/// Behaviour toggles of the tree-PLRU simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlruTreeOptions {
    /// CRCB-style elision: a request to the same block as the immediately
    /// preceding request hits at depth 0 everywhere, and re-touching the same
    /// way is idempotent on the direction bits, so the request can be skipped
    /// whole. Defaults to on.
    pub duplicate_elision: bool,
}

impl Default for PlruTreeOptions {
    fn default() -> Self {
        PlruTreeOptions {
            duplicate_elision: true,
        }
    }
}

/// Work counters of the tree-PLRU simulator (instrumented kernel only; the
/// fast kernel maintains just the request-level tallies).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlruTreeCounters {
    /// Requests simulated (skipped duplicates included).
    pub accesses: u64,
    /// Tree nodes visited.
    pub node_evaluations: u64,
    /// Evaluations settled by the MRA comparison: a hit in every lane and
    /// at every finer level, so the walk stops there.
    pub mra_hits: u64,
    /// Requests elided as consecutive duplicates.
    pub duplicate_skips: u64,
    /// Tag comparisons performed (the MRA comparison of each node evaluation
    /// plus the per-lane searches below it).
    pub tag_comparisons: u64,
}

impl fmt::Display for PlruTreeCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} evaluations, {} MRA hits, {} duplicate skips, {} comparisons",
            self.accesses,
            self.node_evaluations,
            self.mra_hits,
            self.duplicate_skips,
            self.tag_comparisons
        )
    }
}

/// The arena: flat lanes over all forest levels concatenated. Node `i`'s
/// lane `k` (associativity `lanes[k]`) occupies
/// `tags[i * stride + lane_off[k] ..][.. lanes[k]]`; scalar per-`(node,
/// lane)` state lives in dense `num_lanes`-strided vectors.
#[derive(Debug, Clone)]
struct PlruArena {
    /// Dense per-node MRA tags: the direct-mapped contents and the shared
    /// hit short-circuit, as in every fused kernel.
    mra: Vec<u64>,
    /// Way-tag regions, cache-line aligned ([`TagLane`]), invalid ways
    /// holding the sentinel. Ways fill in physical order, so valid tags are
    /// always a prefix of each lane.
    tags: TagLane,
    /// Direction bits per `(node, lane)`, heap-indexed with the root at
    /// bit 1 (the reference layout of `dew_cachesim`'s set).
    bits: Vec<u64>,
    /// Node-index base per level plus a final total.
    node_off: Vec<usize>,
    /// `(1 << set_bits) - 1` per level.
    set_mask: Vec<u64>,
    /// Misses per `(level, lane)`, level-major.
    misses: Vec<u64>,
    /// Direct-mapped misses per level (from the shared MRA comparisons).
    dm_misses: Vec<u64>,
}

impl PlruArena {
    fn new(pass: &PassConfig, stride: usize, num_lanes: usize) -> Self {
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
        PlruArena {
            mra: vec![INVALID_TAG; total],
            tags: TagLane::filled(total * stride, INVALID_TAG),
            bits: vec![0; total * num_lanes],
            node_off,
            set_mask,
            // `max(1)`: an assoc-1-only forest still iterates its levels
            // through `chunks_exact_mut`, which needs a nonzero stride.
            misses: vec![0; num_levels * num_lanes.max(1)],
            dm_misses: vec![0; num_levels],
        }
    }
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

/// Exact single-pass tree-PLRU simulator for all set counts in a range and
/// all power-of-two associativities in a range. See the module docs.
#[derive(Debug, Clone)]
pub struct PlruTreeSimulator {
    /// Geometry; `assoc()` reports the widest simulated associativity.
    pass: PassConfig,
    opts: PlruTreeOptions,
    /// Every reported associativity, ascending (includes 1 when the range
    /// starts there; associativity-1 results come from the MRA lane).
    assoc_list: Vec<u32>,
    /// Simulated lane associativities (the reported list above 1).
    lanes: Vec<u32>,
    /// Per-lane tag offset inside a node's region.
    lane_off: Vec<usize>,
    /// Tag-region entries per node (sum of the lane widths).
    stride: usize,
    /// [`touch_masks`] per `(lane, way)`, indexed like a node's tag region
    /// (`lane_off[k] + way`).
    touch: Vec<(u64, u64)>,
    arena: PlruArena,
    counters: PlruTreeCounters,
    /// Search comparisons per lane; instrumented only.
    lane_comparisons: Vec<u64>,
    /// Block of the previous request, for the CRCB-style elision.
    prev_block: u64,
    /// Whether the kernel maintains the work counters.
    instrument: bool,
    /// The tag-scan backend batched scans run on, fixed at construction
    /// ([`KernelBackend::active`]).
    backend: KernelBackend,
}

impl PlruTreeSimulator {
    /// Builds a simulator for set counts `2^min_set_bits..=2^max_set_bits`,
    /// block size `2^block_bits` bytes, and associativities
    /// `1, 2, 4, …, max_assoc`, using the fast (uninstrumented) kernel.
    ///
    /// # Errors
    ///
    /// As [`PassConfig::new`], plus [`DewError::BadAssoc`] for a
    /// non-power-of-two `max_assoc` or one above [`MAX_PLRU_ASSOC`].
    pub fn new(
        block_bits: u32,
        min_set_bits: u32,
        max_set_bits: u32,
        max_assoc: u32,
        opts: PlruTreeOptions,
    ) -> Result<Self, DewError> {
        if max_assoc == 0 || !max_assoc.is_power_of_two() {
            return Err(DewError::BadAssoc(max_assoc));
        }
        PlruTreeSimulator::with_instrumentation(
            block_bits,
            (min_set_bits, max_set_bits),
            (0, max_assoc.trailing_zeros()),
            opts,
            false,
        )
    }

    /// As [`PlruTreeSimulator::new`], but with the work counters live.
    ///
    /// # Errors
    ///
    /// As [`PlruTreeSimulator::new`].
    pub fn instrumented(
        block_bits: u32,
        min_set_bits: u32,
        max_set_bits: u32,
        max_assoc: u32,
        opts: PlruTreeOptions,
    ) -> Result<Self, DewError> {
        if max_assoc == 0 || !max_assoc.is_power_of_two() {
            return Err(DewError::BadAssoc(max_assoc));
        }
        PlruTreeSimulator::with_instrumentation(
            block_bits,
            (min_set_bits, max_set_bits),
            (0, max_assoc.trailing_zeros()),
            opts,
            true,
        )
    }

    /// Full-control constructor: inclusive `log2` ranges for the set counts
    /// and the reported associativities, and a runtime kernel selection.
    /// This is the entry point the fused sweep uses for its per-block-size
    /// PLRU passes.
    ///
    /// # Errors
    ///
    /// As [`PassConfig::new`], plus [`DewError::EmptySetRange`] when the
    /// associativity range is inverted and [`DewError::BadAssoc`] when the
    /// widest lane exceeds [`MAX_PLRU_ASSOC`].
    pub fn with_instrumentation(
        block_bits: u32,
        set_bits: (u32, u32),
        assoc_bits: (u32, u32),
        opts: PlruTreeOptions,
        instrument: bool,
    ) -> Result<Self, DewError> {
        if assoc_bits.0 > assoc_bits.1 {
            return Err(DewError::EmptySetRange {
                min_set_bits: assoc_bits.0,
                max_set_bits: assoc_bits.1,
            });
        }
        if assoc_bits.1 > MAX_PLRU_ASSOC.trailing_zeros() {
            return Err(DewError::BadAssoc(
                1u32.checked_shl(assoc_bits.1).unwrap_or(u32::MAX),
            ));
        }
        let pass = PassConfig::new(block_bits, set_bits.0, set_bits.1, 1 << assoc_bits.1)?;
        let assoc_list: Vec<u32> = (assoc_bits.0..=assoc_bits.1).map(|b| 1 << b).collect();
        let lanes: Vec<u32> = (assoc_bits.0.max(1)..=assoc_bits.1)
            .map(|b| 1 << b)
            .collect();
        let mut lane_off = Vec::with_capacity(lanes.len());
        let mut touch = Vec::new();
        for &w in &lanes {
            lane_off.push(touch.len());
            touch.extend((0..w as usize).map(|way| touch_masks(way, w as usize)));
        }
        let stride = touch.len();
        Ok(PlruTreeSimulator {
            arena: PlruArena::new(&pass, stride.max(1), lanes.len()),
            pass,
            opts,
            assoc_list,
            lane_comparisons: if instrument {
                vec![0; lanes.len()]
            } else {
                Vec::new()
            },
            lanes,
            lane_off,
            stride,
            touch,
            counters: PlruTreeCounters::default(),
            prev_block: INVALID_TAG,
            instrument,
            backend: KernelBackend::active(),
        })
    }

    /// The tag-scan backend batched scans run on (fixed at construction
    /// unless [`PlruTreeSimulator::force_scan_backend`] pins another).
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

    /// The simulated associativities, ascending.
    #[must_use]
    pub fn assoc_list(&self) -> &[u32] {
        &self.assoc_list
    }

    /// The geometry of the forest (`assoc()` reports the widest lane).
    #[must_use]
    pub fn pass(&self) -> &PassConfig {
        &self.pass
    }

    /// `true` when this simulator maintains the work counters.
    #[must_use]
    pub fn is_instrumented(&self) -> bool {
        self.instrument
    }

    /// The work counters.
    #[must_use]
    pub fn counters(&self) -> &PlruTreeCounters {
        &self.counters
    }

    /// Simulates one record (only the address matters).
    pub fn step_record(&mut self, record: Record) {
        self.step(record.addr);
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

    /// Simulates one request given as a pre-decoded block number.
    ///
    /// # Panics
    ///
    /// As [`PlruTreeSimulator::step`], if `block` equals the internal
    /// sentinel.
    pub fn step_block(&mut self, block: u64) {
        // Single steps always use the scalar scan: batch-level backend
        // dispatch is where the SIMD instantiations live (`crate::simd`
        // module docs), and the backends are bit-identical anyway.
        self.drive(ScalarScan, std::slice::from_ref(&block));
    }

    /// Simulates a batch of pre-decoded block numbers — the sweep's fused
    /// drive path.
    ///
    /// # Panics
    ///
    /// As [`PlruTreeSimulator::step`], if any block equals the sentinel.
    pub fn run_blocks(&mut self, blocks: &[u64]) {
        match self.backend {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            KernelBackend::Avx2 => {
                // SAFETY: `backend` is only `Avx2` after runtime detection
                // (`KernelBackend::is_available`).
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

    /// The AVX2 compilation root of the batch loop (see `crate::simd`
    /// module docs for the dispatch rules).
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

    /// Lane-shape dispatch ([`with_lane_shape`]): one selection per batch,
    /// then the batch loop of that shape's kernel.
    #[inline(always)]
    fn drive<S: TagScan>(&mut self, scan: S, blocks: &[u64]) {
        let shape = (
            self.lanes.first().map_or(0, |&w| w as usize),
            self.lanes.len(),
        );
        with_lane_shape!(shape, |FIRST, NLANES| self
            .drive_shaped::<S, FIRST, NLANES>(scan, blocks))
    }

    /// The batch loop: the kernel on every block, plus software prefetch of
    /// the deepest (largest, least cache-resident) level's MRA word and
    /// way-tag region [`PF_DIST`] requests ahead.
    #[inline(always)]
    fn drive_shaped<S: TagScan, const FIRST: usize, const NLANES: usize>(
        &mut self,
        scan: S,
        blocks: &[u64],
    ) {
        let deepest = self.arena.set_mask.len() - 1;
        let d_off = self.arena.node_off[deepest];
        let d_mask = self.arena.set_mask[deepest];
        let stride = self.stride.max(1);
        for (i, &b) in blocks.iter().enumerate() {
            assert_ne!(b, INVALID_TAG, "block {b:#x} exceeds the supported range");
            if let Some(&ahead) = blocks.get(i + PF_DIST) {
                let node = d_off + (ahead & d_mask) as usize;
                prefetch_read(&self.arena.mra, node);
                prefetch_read(&self.arena.tags, node * stride);
            }
            self.kernel::<S, FIRST, NLANES>(scan, b);
        }
    }

    /// The kernel. Per level: one MRA comparison settles the direct-mapped
    /// result; a match stops the walk (a hit in every lane here and below,
    /// whose touch would be a no-op — see the module docs). On a mismatch
    /// each lane finds its hit way or first invalid way, touching the hit
    /// way or inserting at the first invalid way / the direction-bit victim.
    ///
    /// `S` is the tag-scan backend the wide compares run on ([`TagScan`]).
    /// `FIRST`/`NLANES` are the lane shape when positive (lane `k` is
    /// `FIRST << k` ways at offset `FIRST·(2^k − 1)`): the node's whole
    /// region is then scanned once against the block and once against the
    /// sentinel, and each lane reads its window of the two masks
    /// ([`window_scan`]). Both `0` is the runtime shape, which scans lane by
    /// lane ([`lane_scan`]; the only path for a region over 64 tags).
    fn kernel<S: TagScan, const FIRST: usize, const NLANES: usize>(&mut self, scan: S, block: u64) {
        self.counters.accesses += 1;
        if self.opts.duplicate_elision {
            if block == self.prev_block {
                // The block is the MRA entry of every set on its path, and
                // re-touching the same way is idempotent on the bits.
                self.counters.duplicate_skips += 1;
                return;
            }
            self.prev_block = block;
        }
        debug_assert!(NLANES == 0 || NLANES == self.lanes.len());
        debug_assert!(FIRST == 0 || self.lanes.first() == Some(&(FIRST as u32)));
        let nk = if NLANES == 0 {
            self.lanes.len()
        } else {
            NLANES
        };
        let stride = if FIRST == 0 {
            self.stride.max(1)
        } else {
            FIRST * ((1 << NLANES) - 1)
        };
        debug_assert_eq!(stride, self.stride.max(1));
        let a = &mut self.arena;
        for li in 0..a.set_mask.len() {
            let node = a.node_off[li] + (block & a.set_mask[li]) as usize;
            if self.instrument {
                self.counters.node_evaluations += 1;
                self.counters.tag_comparisons += 1;
            }
            if a.mra[node] == block {
                if self.instrument {
                    self.counters.mra_hits += 1;
                }
                return;
            }
            a.dm_misses[li] += 1;
            a.mra[node] = block;
            let region = &mut a.tags[node * stride..(node + 1) * stride];
            let (hits, invalid) = if FIRST == 0 {
                (0, 0)
            } else {
                (
                    scan.match_mask(region, block),
                    scan.match_mask(region, INVALID_TAG),
                )
            };
            for k in 0..nk {
                let (w, off) = if FIRST == 0 {
                    (self.lanes[k] as usize, self.lane_off[k])
                } else {
                    (FIRST << k, FIRST * ((1 << k) - 1))
                };
                let lane = &mut region[off..off + w];
                // The block's way or, failing that, the first invalid way
                // (valid tags are a prefix: ways fill in physical order and
                // evictions overwrite in place). The comparison tallies are
                // derived arithmetically — a hit at depth `i` would have
                // inspected `i + 1` valid tags, a miss the whole valid
                // prefix — so the instrumented counters stay bit-identical
                // to the sequential scalar scan's.
                let scanned = if FIRST == 0 {
                    lane_scan(scan, lane, block, INVALID_TAG)
                } else {
                    window_scan(hits, invalid, off, w)
                };
                let (hit, first_invalid) = match scanned {
                    LaneScan::Hit(i) => (Some(i), w),
                    LaneScan::Miss { valid_len } => (None, valid_len),
                };
                if self.instrument {
                    let spent = match hit {
                        Some(i) => i as u64 + 1,
                        None => first_invalid as u64,
                    };
                    self.lane_comparisons[k] += spent;
                    self.counters.tag_comparisons += spent;
                }
                let bits = &mut a.bits[node * nk + k];
                let way = match hit {
                    Some(i) => i,
                    None => {
                        a.misses[li * nk.max(1) + k] += 1;
                        let victim = if first_invalid < w {
                            first_invalid
                        } else {
                            plru_victim(*bits, w)
                        };
                        lane[victim] = block;
                        victim
                    }
                };
                let (path, set) = self.touch[off + way];
                *bits = *bits & !path | set;
            }
        }
    }

    /// Snapshot of the per-configuration miss counts (associativity 1, when
    /// simulated, comes from the shared direct-mapped accounting).
    #[must_use]
    pub fn results(&self) -> AllAssocResults {
        let include_dm = self.assoc_list.first() == Some(&1);
        let nk = self.lanes.len();
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
    /// `assoc` was not simulated — the sweep's per-pass result shape, as in
    /// every fused kernel.
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
        let stride = self.lanes.len().max(1);
        let k = self.lanes.iter().position(|&a| a == assoc);
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
    /// report. The walk is shared, so the evaluation-level quantities are
    /// shared verbatim; an MRA hit stops the walk without a search and maps
    /// onto the `mra_stops` bucket, every other evaluation is a search in
    /// this lane.
    /// Per-lane search comparisons are tracked separately so each view
    /// reports its own lane's work. Returns `None` when `assoc` was not
    /// simulated.
    #[must_use]
    pub fn pass_counters(&self, assoc: u32) -> Option<DewCounters> {
        if !self.assoc_list.contains(&assoc) {
            return None;
        }
        if !self.instrument {
            return Some(DewCounters {
                accesses: self.counters.accesses,
                duplicate_skips: self.counters.duplicate_skips,
                ..DewCounters::new()
            });
        }
        let searches = self.counters.node_evaluations - self.counters.mra_hits;
        let search_comparisons = match self.lanes.iter().position(|&a| a == assoc) {
            Some(k) => self.lane_comparisons[k],
            // Associativity 1: the MRA mismatch *is* the decision, mirroring
            // the FIFO fan-out's direct-mapped accounting.
            None => searches,
        };
        Some(DewCounters {
            accesses: self.counters.accesses,
            duplicate_skips: self.counters.duplicate_skips,
            node_evaluations: self.counters.node_evaluations,
            mra_stops: self.counters.mra_hits,
            searches,
            search_comparisons,
            tag_comparisons: self.counters.node_evaluations + search_comparisons,
            ..DewCounters::new()
        })
    }

    /// Actual heap footprint of the arena's lanes in bytes (excludes
    /// counters and scratch).
    #[must_use]
    pub fn footprint_bytes(&self) -> usize {
        let a = &self.arena;
        a.mra.len() * 8 + a.tags.len() * 8 + a.bits.len() * 8
    }

    /// Serialises the complete arena state to bytes under its own magic
    /// (`DEWP`). The sharded sweep's snapshot-handoff mode and the
    /// checkpoint sidecars round-trip these buffers.
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
        let flags = u8::from(self.opts.duplicate_elision) | u8::from(self.instrument) << 1;
        out.push(flags);
        let c = &self.counters;
        for v in [
            c.accesses,
            c.node_evaluations,
            c.mra_hits,
            c.duplicate_skips,
            c.tag_comparisons,
        ] {
            put_u64(&mut out, v);
        }
        for &v in &self.lane_comparisons {
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
            .chain(&a.bits)
        {
            put_u64(&mut out, v);
        }
        out
    }

    /// Restores a simulator from [`PlruTreeSimulator::to_snapshot`] output;
    /// continuing it is bit-identical to the uninterrupted run. Version-1
    /// buffers decode too: their way pointers are range-checked and
    /// dropped.
    ///
    /// # Errors
    ///
    /// [`crate::snapshot::SnapshotError`] for foreign, truncated or
    /// internally inconsistent buffers; a valid buffer of one of the *other*
    /// policies' kernels reports [`crate::snapshot::SnapshotError::PolicyMismatch`].
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::{check_body_len, Cursor, SnapshotError};
        let mut cur = Cursor::new(bytes);
        let magic = cur.bytes(4)?;
        if magic != SNAP_MAGIC {
            for sibling in [
                crate::multi_assoc::SNAP_MAGIC,
                crate::lru_tree::SNAP_MAGIC,
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
        if version != 1 && version != SNAP_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let (block_bits, min_set_bits, max_set_bits) = (cur.u32()?, cur.u32()?, cur.u32()?);
        let (assoc_lo_bits, assoc_hi_bits) = (cur.u32()?, cur.u32()?);
        let flags = cur.u8()?;
        let opts = PlruTreeOptions {
            duplicate_elision: flags & 1 != 0,
        };
        let instrument = flags & 2 != 0;
        check_body_len(
            &cur,
            (min_set_bits, max_set_bits),
            (assoc_lo_bits, assoc_hi_bits),
            |d| {
                let way_pointers = if version == 1 { 4 * d.lanes } else { 0 };
                (
                    8 * (6 + u64::from(instrument) * d.lanes),
                    8 * (d.lanes.max(1) + 1),
                    8 * (1 + d.stride.max(1) + d.lanes) + way_pointers,
                )
            },
        )?;
        let mut sim = PlruTreeSimulator::with_instrumentation(
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
        c.mra_hits = cur.u64()?;
        c.duplicate_skips = cur.u64()?;
        c.tag_comparisons = cur.u64()?;
        for v in &mut sim.lane_comparisons {
            *v = cur.u64()?;
        }
        sim.prev_block = cur.u64()?;
        let a = &mut sim.arena;
        for v in a
            .misses
            .iter_mut()
            .chain(&mut a.dm_misses)
            .chain(&mut a.mra)
            .chain(&mut a.tags)
            .chain(&mut a.bits)
        {
            *v = cur.u64()?;
        }
        if version == 1 {
            for i in 0..a.bits.len() {
                if cur.u32()? >= sim.lanes[i % sim.lanes.len()] {
                    return Err(SnapshotError::Corrupt("way pointer out of range"));
                }
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
            CacheConfig::new(sets, assoc, block, Replacement::Plru).expect("valid"),
            &records,
        )
        .misses()
    }

    #[test]
    fn matches_reference_plru_for_all_configs() {
        let a = addrs(3000, 0x5EED_6001);
        for instrument in [false, true] {
            let mut sim = PlruTreeSimulator::with_instrumentation(
                2,
                (0, 5),
                (0, 3),
                PlruTreeOptions::default(),
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
        let run = |elide: bool| {
            let mut sim = PlruTreeSimulator::new(
                2,
                0,
                4,
                8,
                PlruTreeOptions {
                    duplicate_elision: elide,
                },
            )
            .expect("valid");
            for &x in &a {
                sim.step(x);
            }
            sim.results()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn pass_results_fan_out_matches_all_assoc_view() {
        let a = addrs(2500, 0x5EED_6003);
        for instrument in [false, true] {
            let mut sim = PlruTreeSimulator::with_instrumentation(
                3,
                (1, 5),
                (0, 3),
                PlruTreeOptions::default(),
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
                for set_bits in 1..=5u32 {
                    let sets = 1 << set_bits;
                    assert_eq!(pr.misses(sets, assoc), all.misses(sets, assoc));
                    assert_eq!(pr.misses(sets, 1), all.misses(sets, 1));
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
    fn snapshot_round_trip_is_bit_identical() {
        let a = addrs(2000, 0x5EED_6004);
        for instrument in [false, true] {
            let mut sim = PlruTreeSimulator::with_instrumentation(
                2,
                (0, 4),
                (1, 3),
                PlruTreeOptions::default(),
                instrument,
            )
            .expect("valid");
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
            0,
            2,
            2,
            crate::lru_tree::LruTreeOptions::default(),
        )
        .expect("valid");
        match PlruTreeSimulator::from_snapshot(&lru.to_snapshot()) {
            Err(SnapshotError::PolicyMismatch { expected, found }) => {
                assert_eq!(expected, SNAP_MAGIC);
                assert_eq!(found, crate::lru_tree::SNAP_MAGIC);
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
            PlruTreeSimulator::new(2, 0, 2, 128, PlruTreeOptions::default()),
            Err(DewError::BadAssoc(128))
        ));
        assert!(PlruTreeSimulator::new(2, 0, 2, 64, PlruTreeOptions::default()).is_ok());
    }

    #[test]
    #[should_panic(expected = "exceeds the supported range")]
    fn sentinel_block_panics_in_batches() {
        let mut sim = PlruTreeSimulator::new(0, 0, 1, 2, PlruTreeOptions::default()).expect("ok");
        sim.run_blocks(&[0, 1, u64::MAX]);
    }
}
