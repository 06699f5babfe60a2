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
//! promotes a probationary block — so this kernel has no elision option and
//! [`crate::DewOptions::validate`] rejects the flag for the policy.
//!
//! Within one lane the update rule matches the reference semantics of
//! `dew_cachesim`'s set (`crates/cachesim/src/set.rs`), which models the
//! segments with a per-way protected flag and access stamps; here the
//! segment order is held explicitly so hits and inserts are bounded shifts
//! (`shift_in`), like the LRU kernel's recency regions.
//!
//! A node evaluation that misses the MRA finds, per lane, the block's
//! position or the end of the valid prefix. For the lane shapes every fused
//! kernel instantiates (2 ways and up with 1–4 lanes, or one lane of 4, 8
//! or 16 ways) the lane widths, offsets and the stride are compile-time
//! constants, and the node's whole region is scanned twice, against the
//! block and against the sentinel; each lane then reads its window of the
//! two masks. This replaces the two scans per lane the kernel made before.
//! Other shapes, including every region over 64 tags (32- and 64-way
//! lanes), keep the per-lane scan. The shifts stay `shift_in`: a
//! branch-free select over the whole constant-width lane was measured no
//! faster.
//!
//! # Examples
//!
//! ```
//! use dew_core::slru_tree::SlruTreeSimulator;
//!
//! # fn main() -> Result<(), dew_core::DewError> {
//! // Sets 1..=8, associativities 1, 2 and 4, 4-byte blocks.
//! let mut sim = SlruTreeSimulator::new(2, 0, 3, 4)?;
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

/// Snapshot magic of the arena SLRU simulator.
pub(crate) const SNAP_MAGIC: [u8; 4] = *b"DEWU";
/// Snapshot format version of the arena SLRU simulator. Version 1 had no
/// settled flags; it still decodes, with every flag clear.
const SNAP_VERSION: u8 = 2;

/// Work counters of the SLRU simulator (instrumented kernel only; the fast
/// kernel maintains just the request tally).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlruTreeCounters {
    /// Requests simulated.
    pub accesses: u64,
    /// Tree nodes visited.
    pub node_evaluations: u64,
    /// Evaluations settled by the MRA comparison: a hit in every lane, which
    /// updates by position without a search, or stops the walk when the
    /// node is already settled.
    pub mra_hits: u64,
    /// Tag comparisons performed (the MRA comparison of each node evaluation
    /// plus the per-lane searches below it).
    pub tag_comparisons: u64,
}

impl fmt::Display for SlruTreeCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses, {} evaluations, {} MRA hits, {} comparisons",
            self.accesses, self.node_evaluations, self.mra_hits, self.tag_comparisons
        )
    }
}

/// The arena: flat lanes over all forest levels concatenated, as in the
/// other fused kernels.
#[derive(Debug, Clone)]
struct SlruArena {
    /// Dense per-node MRA tags (direct-mapped contents + hit short-circuit).
    mra: Vec<u64>,
    /// Ordered tag regions, cache-line aligned ([`TagLane`]): per `(node,
    /// lane)`, `[protected MRU→LRU | probationary MRU→LRU | sentinel…]`.
    tags: TagLane,
    /// Protected-segment length per `(node, lane)`; never exceeds half the
    /// lane width.
    prot_len: Vec<u32>,
    /// Per node: the last two accesses were both the MRA block, which is
    /// therefore the protected MRU of every lane (see the module docs).
    settled: Vec<bool>,
    /// Node-index base per level plus a final total.
    node_off: Vec<usize>,
    /// `(1 << set_bits) - 1` per level.
    set_mask: Vec<u64>,
    /// Misses per `(level, lane)`, level-major.
    misses: Vec<u64>,
    /// Direct-mapped misses per level (from the shared MRA comparisons).
    dm_misses: Vec<u64>,
}

impl SlruArena {
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
        SlruArena {
            mra: vec![INVALID_TAG; total],
            tags: TagLane::filled(total * stride, INVALID_TAG),
            prot_len: vec![0; total * num_lanes],
            settled: vec![false; total],
            node_off,
            set_mask,
            misses: vec![0; num_levels * num_lanes.max(1)],
            dm_misses: vec![0; num_levels],
        }
    }
}

/// Moves `region[..len - 1]` one slot toward the end and stores `block` at
/// the front; the last entry drops out. This is `rotate_right(1)` plus a
/// front store as an inline loop: lanes are a few ways wide, and the rotate
/// of a runtime-length slice lowers to a `memmove` call.
#[inline(always)]
fn shift_in(region: &mut [u64], block: u64) {
    for i in (1..region.len()).rev() {
        region[i] = region[i - 1];
    }
    region[0] = block;
}

/// Exact single-pass SLRU simulator for all set counts in a range and all
/// power-of-two associativities in a range. See the module docs.
#[derive(Debug, Clone)]
pub struct SlruTreeSimulator {
    /// Geometry; `assoc()` reports the widest simulated associativity.
    pass: PassConfig,
    /// Every reported associativity, ascending (includes 1 when the range
    /// starts there; associativity-1 results come from the MRA lane, and
    /// SLRU degenerates to plain LRU there).
    assoc_list: Vec<u32>,
    /// Simulated lane associativities (the reported list above 1).
    lanes: Vec<u32>,
    /// Per-lane tag offset inside a node's region.
    lane_off: Vec<usize>,
    /// Tag-region entries per node (sum of the lane widths).
    stride: usize,
    arena: SlruArena,
    counters: SlruTreeCounters,
    /// Search comparisons per lane; instrumented only.
    lane_comparisons: Vec<u64>,
    /// Whether the kernel maintains the work counters.
    instrument: bool,
    /// The tag-scan backend batched scans run on, fixed at construction
    /// ([`KernelBackend::active`]).
    backend: KernelBackend,
}

impl SlruTreeSimulator {
    /// Builds a simulator for set counts `2^min_set_bits..=2^max_set_bits`,
    /// block size `2^block_bits` bytes, and associativities
    /// `1, 2, 4, …, max_assoc`, using the fast (uninstrumented) kernel.
    ///
    /// # Errors
    ///
    /// As [`PassConfig::new`], plus [`DewError::BadAssoc`] for a
    /// non-power-of-two `max_assoc`.
    pub fn new(
        block_bits: u32,
        min_set_bits: u32,
        max_set_bits: u32,
        max_assoc: u32,
    ) -> Result<Self, DewError> {
        if max_assoc == 0 || !max_assoc.is_power_of_two() {
            return Err(DewError::BadAssoc(max_assoc));
        }
        SlruTreeSimulator::with_instrumentation(
            block_bits,
            (min_set_bits, max_set_bits),
            (0, max_assoc.trailing_zeros()),
            false,
        )
    }

    /// As [`SlruTreeSimulator::new`], but with the work counters live.
    ///
    /// # Errors
    ///
    /// As [`SlruTreeSimulator::new`].
    pub fn instrumented(
        block_bits: u32,
        min_set_bits: u32,
        max_set_bits: u32,
        max_assoc: u32,
    ) -> Result<Self, DewError> {
        if max_assoc == 0 || !max_assoc.is_power_of_two() {
            return Err(DewError::BadAssoc(max_assoc));
        }
        SlruTreeSimulator::with_instrumentation(
            block_bits,
            (min_set_bits, max_set_bits),
            (0, max_assoc.trailing_zeros()),
            true,
        )
    }

    /// Full-control constructor: inclusive `log2` ranges for the set counts
    /// and the reported associativities, and a runtime kernel selection.
    /// This is the entry point the fused sweep uses for its per-block-size
    /// SLRU passes.
    ///
    /// # Errors
    ///
    /// As [`PassConfig::new`], plus [`DewError::EmptySetRange`] when the
    /// associativity range is inverted.
    pub fn with_instrumentation(
        block_bits: u32,
        set_bits: (u32, u32),
        assoc_bits: (u32, u32),
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
        let lanes: Vec<u32> = (assoc_bits.0.max(1)..=assoc_bits.1)
            .map(|b| 1 << b)
            .collect();
        let mut lane_off = Vec::with_capacity(lanes.len());
        let mut stride = 0usize;
        for &w in &lanes {
            lane_off.push(stride);
            stride += w as usize;
        }
        Ok(SlruTreeSimulator {
            arena: SlruArena::new(&pass, stride.max(1), lanes.len()),
            pass,
            assoc_list,
            lane_comparisons: if instrument {
                vec![0; lanes.len()]
            } else {
                Vec::new()
            },
            lanes,
            lane_off,
            stride,
            counters: SlruTreeCounters::default(),
            instrument,
            backend: KernelBackend::active(),
        })
    }

    /// The tag-scan backend batched scans run on (fixed at construction
    /// unless [`SlruTreeSimulator::force_scan_backend`] pins another).
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
    pub fn counters(&self) -> &SlruTreeCounters {
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
    /// As [`SlruTreeSimulator::step`], if `block` equals the internal
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
    /// As [`SlruTreeSimulator::step`], if any block equals the sentinel.
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
    /// the deepest (largest, least cache-resident) level's MRA word and tag
    /// region [`PF_DIST`] requests ahead.
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
    /// result. On a match at a settled node the walk stops (see the module
    /// docs). On any other match the block sits at a known position in
    /// every lane — the protected MRU slot (re-hit is a no-op) or the
    /// probationary MRU slot (one shift promotes it) — so no lane searches.
    /// On a mismatch each lane finds the block in its valid prefix: a hit
    /// shifts the block to the protected or segment front (growing the
    /// protected segment on a probationary hit, demoting the protected LRU
    /// when it is full, both by the same shift); a miss inserts at the
    /// probationary MRU slot, evicting the probationary LRU block when the
    /// lane is full.
    ///
    /// `S` is the tag-scan backend the wide compares run on ([`TagScan`]).
    /// `FIRST`/`NLANES` are the lane shape when positive (lane `k` is
    /// `FIRST << k` ways at offset `FIRST·(2^k − 1)`): a mismatching node's
    /// whole region is then scanned once against the block and once
    /// against the sentinel, and each lane reads its window of the two
    /// masks ([`window_scan`]). Both `0` is the runtime shape, which scans
    /// lane by lane ([`lane_scan`]; the only path for a region over 64
    /// tags).
    fn kernel<S: TagScan, const FIRST: usize, const NLANES: usize>(&mut self, scan: S, block: u64) {
        self.counters.accesses += 1;
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
        let lane_shape = |k: usize| {
            if FIRST == 0 {
                (self.lanes[k] as usize, self.lane_off[k])
            } else {
                (FIRST << k, FIRST * ((1 << k) - 1))
            }
        };
        let a = &mut self.arena;
        for li in 0..a.set_mask.len() {
            let node = a.node_off[li] + (block & a.set_mask[li]) as usize;
            if self.instrument {
                self.counters.node_evaluations += 1;
                self.counters.tag_comparisons += 1;
            }
            let region = &mut a.tags[node * stride..(node + 1) * stride];
            if a.mra[node] == block {
                if self.instrument {
                    self.counters.mra_hits += 1;
                }
                if a.settled[node] {
                    return;
                }
                a.settled[node] = true;
                for k in 0..nk {
                    let (w, off) = lane_shape(k);
                    let cap = w / 2;
                    let lane = &mut region[off..off + w];
                    let prot = &mut a.prot_len[node * nk + k];
                    let p = *prot as usize;
                    // The MRA block is the protected MRU (previous access
                    // was a hit that promoted or refreshed it) or the
                    // probationary MRU at index `prot_len` (previous access
                    // inserted it); `prot_len == 0` makes the two slots
                    // coincide and the access is a probationary hit.
                    if p == 0 || lane[0] != block {
                        debug_assert_eq!(lane[p], block);
                        shift_in(&mut lane[..=p], block);
                        if p < cap {
                            *prot += 1;
                        }
                    }
                }
                continue;
            }
            a.dm_misses[li] += 1;
            a.mra[node] = block;
            a.settled[node] = false;
            let (hits, invalid) = if FIRST == 0 {
                (0, 0)
            } else {
                (
                    scan.match_mask(region, block),
                    scan.match_mask(region, INVALID_TAG),
                )
            };
            for k in 0..nk {
                let (w, off) = lane_shape(k);
                let cap = w / 2;
                let lane = &mut region[off..off + w];
                let prot = &mut a.prot_len[node * nk + k];
                let p = *prot as usize;
                // The block's position or, failing that, the end of the
                // valid prefix (inserts keep valid tags contiguous). The
                // comparison tallies are derived arithmetically — a hit at
                // depth `i` would have inspected `i + 1` valid tags, a miss
                // the whole valid prefix — so the instrumented counters stay
                // bit-identical to the sequential scalar scan's.
                let scanned = if FIRST == 0 {
                    lane_scan(scan, lane, block, INVALID_TAG)
                } else {
                    window_scan(hits, invalid, off, w)
                };
                let (hit, valid_len) = match scanned {
                    LaneScan::Hit(i) => (Some(i), w),
                    LaneScan::Miss { valid_len } => (None, valid_len),
                };
                if self.instrument {
                    let spent = match hit {
                        Some(i) => i as u64 + 1,
                        None => valid_len as u64,
                    };
                    self.lane_comparisons[k] += spent;
                    self.counters.tag_comparisons += spent;
                }
                match hit {
                    Some(d) => {
                        // Protected hit (d < prot_len): refresh within the
                        // protected segment. Probationary hit: the same
                        // shift promotes the block to protected MRU and,
                        // when the protected segment is full, moves its LRU
                        // block to index `prot_len` — the probationary MRU —
                        // demoting it.
                        shift_in(&mut lane[..=d], block);
                        if d >= p && p < cap {
                            *prot += 1;
                        }
                    }
                    None => {
                        a.misses[li * nk.max(1) + k] += 1;
                        // Insert at the probationary MRU slot. Not full: the
                        // invalid way at `valid_len` drops out. Full: the
                        // probationary LRU block at `w - 1` drops out — the
                        // victim (the probationary segment is nonempty when
                        // the lane is full, since `prot_len <= w / 2 < w`).
                        let end = valid_len.min(w - 1);
                        shift_in(&mut lane[p..=end], block);
                    }
                }
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
    /// `assoc` was not simulated.
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
    /// report, mirroring the tree-PLRU fan-out: MRA hits settle a node
    /// without a search and map onto the `mra_stops` bucket, every other
    /// evaluation is a search in this lane, and per-lane search comparisons
    /// are tracked separately. Returns `None` when `assoc` was not
    /// simulated.
    #[must_use]
    pub fn pass_counters(&self, assoc: u32) -> Option<DewCounters> {
        if !self.assoc_list.contains(&assoc) {
            return None;
        }
        if !self.instrument {
            return Some(DewCounters {
                accesses: self.counters.accesses,
                ..DewCounters::new()
            });
        }
        let searches = self.counters.node_evaluations - self.counters.mra_hits;
        let search_comparisons = match self.lanes.iter().position(|&a| a == assoc) {
            Some(k) => self.lane_comparisons[k],
            // Associativity 1: the MRA mismatch *is* the decision.
            None => searches,
        };
        Some(DewCounters {
            accesses: self.counters.accesses,
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
        a.mra.len() * 8 + a.tags.len() * 8 + a.prot_len.len() * 4 + a.settled.len()
    }

    /// Serialises the complete arena state to bytes under its own magic
    /// (`DEWU`). The sharded sweep's snapshot-handoff mode and the
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
        out.push(u8::from(self.instrument));
        let c = &self.counters;
        for v in [
            c.accesses,
            c.node_evaluations,
            c.mra_hits,
            c.tag_comparisons,
        ] {
            put_u64(&mut out, v);
        }
        for &v in &self.lane_comparisons {
            put_u64(&mut out, v);
        }
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
        for &v in &a.prot_len {
            put_u32(&mut out, v);
        }
        out.extend(a.settled.iter().map(|&s| u8::from(s)));
        out
    }

    /// Restores a simulator from [`SlruTreeSimulator::to_snapshot`] output;
    /// continuing it is bit-identical to the uninterrupted run. Version-1
    /// buffers decode with every settled flag clear, which changes no
    /// result (see the module docs).
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
                crate::plru_tree::SNAP_MAGIC,
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
        let instrument = cur.u8()? != 0;
        check_body_len(
            &cur,
            (min_set_bits, max_set_bits),
            (assoc_lo_bits, assoc_hi_bits),
            |d| {
                let settled = u64::from(version == SNAP_VERSION);
                (
                    8 * (4 + u64::from(instrument) * d.lanes),
                    8 * (d.lanes.max(1) + 1),
                    8 * (1 + d.stride.max(1)) + 4 * d.lanes + settled,
                )
            },
        )?;
        let mut sim = SlruTreeSimulator::with_instrumentation(
            block_bits,
            (min_set_bits, max_set_bits),
            (assoc_lo_bits, assoc_hi_bits),
            instrument,
        )
        .map_err(|_| SnapshotError::Corrupt("invalid arena geometry"))?;
        let c = &mut sim.counters;
        c.accesses = cur.u64()?;
        c.node_evaluations = cur.u64()?;
        c.mra_hits = cur.u64()?;
        c.tag_comparisons = cur.u64()?;
        for v in &mut sim.lane_comparisons {
            *v = cur.u64()?;
        }
        let a = &mut sim.arena;
        for v in a
            .misses
            .iter_mut()
            .chain(&mut a.dm_misses)
            .chain(&mut a.mra)
            .chain(&mut a.tags)
        {
            *v = cur.u64()?;
        }
        let nk = sim.lanes.len();
        for (i, v) in a.prot_len.iter_mut().enumerate() {
            *v = cur.u32()?;
            if nk > 0 && *v > sim.lanes[i % nk] / 2 {
                return Err(SnapshotError::Corrupt("protected length out of range"));
            }
        }
        if version == SNAP_VERSION {
            for s in &mut a.settled {
                *s = match cur.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(SnapshotError::Corrupt("settled flag out of range")),
                };
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
            CacheConfig::new(sets, assoc, block, Replacement::Slru).expect("valid"),
            &records,
        )
        .misses()
    }

    #[test]
    fn matches_reference_slru_for_all_configs() {
        let a = addrs(3000, 0x5EED_7001);
        for instrument in [false, true] {
            let mut sim = SlruTreeSimulator::with_instrumentation(2, (0, 5), (0, 3), instrument)
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
        let mut sim = SlruTreeSimulator::new(6, 0, 0, 4).expect("valid");
        for &x in &hot {
            sim.step(x);
        }
        assert_eq!(sim.results().misses(1, 4), Some(slru));
    }

    #[test]
    fn pass_results_fan_out_matches_all_assoc_view() {
        let a = addrs(2500, 0x5EED_7003);
        for instrument in [false, true] {
            let mut sim = SlruTreeSimulator::with_instrumentation(3, (1, 5), (0, 3), instrument)
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
        let a = addrs(2000, 0x5EED_7004);
        for instrument in [false, true] {
            let mut sim = SlruTreeSimulator::with_instrumentation(2, (0, 4), (1, 3), instrument)
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
            0,
            2,
            2,
            crate::plru_tree::PlruTreeOptions::default(),
        )
        .expect("valid");
        match SlruTreeSimulator::from_snapshot(&plru.to_snapshot()) {
            Err(SnapshotError::PolicyMismatch { expected, found }) => {
                assert_eq!(expected, SNAP_MAGIC);
                assert_eq!(found, crate::plru_tree::SNAP_MAGIC);
            }
            other => panic!("expected PolicyMismatch, got {other:?}"),
        }
        assert!(matches!(
            SlruTreeSimulator::from_snapshot(b"JUNKrest"),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    #[should_panic(expected = "exceeds the supported range")]
    fn sentinel_block_panics_in_batches() {
        let mut sim = SlruTreeSimulator::new(0, 0, 1, 2).expect("ok");
        sim.run_blocks(&[0, 1, u64::MAX]);
    }
}
