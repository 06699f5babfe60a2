//! Explicit wide-scan tag-compare primitives: the lane-wide compare /
//! movemask kernel behind every fused arena scan, with a mandatory scalar
//! fallback.
//!
//! The fused kernels' hot operation is always the same: compare a small
//! contiguous region of way tags against one requested block number and
//! learn *which* lane matched (FIFO and LRU need the position — FIFO for
//! its per-list windows, LRU for the stack depth — and PLRU/SLRU need the
//! first match or the first sentinel). Tags are 32-bit while every block of
//! a kernel fits below the 32-bit sentinel and 64-bit after the kernel's
//! one promotion (`crate::arena::Tag`), so every backend has a mask at each
//! width ([`TagScan::mask32`], [`TagScan::mask64`]) and `Tag::mask` picks
//! the one that matches the lanes. Until this module, the scan relied on
//! LLVM autovectorising the branchless `hit_mask |= (tag == block) << i`
//! loop; here it is explicit:
//!
//! * **scalar** — a branchless loop using the SWAR zero test
//!   `((x - 1) & !x) >> 63` (`>> 31` for 32-bit tags) on `tag ^ needle`, so
//!   even the fallback emits no per-lane branches. This path is the
//!   **oracle**: the SIMD paths are property-tested bit-identical to it
//!   (`tests/proptest_simd_kernels.rs`, [`crate::kernel::selftest`]);
//! * **sse2** — four 32-bit tags per step via `_mm_cmpeq_epi32` /
//!   `_mm_movemask_ps`, then a two-tag step on a 64-bit load; 64-bit tags
//!   two per step, movemasked through `_mm_movemask_ps` and paired in
//!   scalar bits (plain SSE2 has no 64-bit compare; equality of both 32-bit
//!   halves is 64-bit equality);
//! * **avx2** — eight 32-bit tags per step via `_mm256_cmpeq_epi32` /
//!   `_mm256_movemask_ps`, then four- and two-tag steps, so no region of a
//!   const lane shape (all even lengths, 6- and 30-tag regions included)
//!   reaches the scalar tail; 64-bit tags four per step via
//!   `_mm256_cmpeq_epi64` / `_mm256_movemask_pd`.
//!
//! Because a match mask is position-exact (bit `i` set iff lane `i` equals
//! the needle), every policy's semantics survive the translation: FIFO's
//! per-list windows test `mask & window`, LRU's depth is
//! `mask.trailing_zeros()`, and PLRU/SLRU's "first match or first invalid"
//! falls out of masking the region against the needle *and* the sentinel.
//! No update rule calls a mask itself: the arena's one lane lookup
//! (`crate::arena::Site`) masks a node's whole region once when it fits
//! one 64-tag mask and reads every lane's window off it ([`window_match`],
//! [`window_scan`]), and otherwise scans lane by lane ([`first_match`],
//! [`lane_scan`]). Which of the two runs follows the region's length, a
//! compile-time constant under every const lane shape.
//!
//! # Dispatch
//!
//! [`KernelBackend::active`] detects the widest usable backend **once per
//! process** (`OnceLock`): compiled out unless the `simd` cargo feature is
//! on and the target is `x86_64`, overridden by `DEW_FORCE_SCALAR=1` in the
//! environment, and downgraded for the rest of the process if the
//! [`crate::kernel::selftest`] differential check ever disagrees with the
//! scalar oracle. Kernels capture the backend at construction and dispatch
//! their *batch* loop (`run_blocks`), not each scan: the batch driver is
//! compiled once per backend under `#[target_feature]`, so the
//! `#[inline(always)]` scan below it inlines into feature-enabled codegen
//! and costs no per-scan call.
//!
//! # Safety
//!
//! This module is the only place `dew-core` touches `core::arch` (the crate
//! otherwise forbids unsafe code; with the `simd` feature it is demoted to
//! `deny` and allowed here and in the kernels' `#[target_feature]` batch
//! wrappers). The AVX2 intrinsics are only reachable through
//! [`KernelBackend::Avx2`], which [`KernelBackend::active`] and
//! [`KernelBackend::is_available`] hand out only after
//! `is_x86_feature_detected!("avx2")` succeeds; the SSE2 path is
//! unconditionally sound on `x86_64` (baseline ISA). The unaligned-load
//! intrinsics read only in-bounds lanes: full vectors while
//! `i + LANES <= region.len()`, then (32-bit tags) the narrower steps under
//! the same condition, then a scalar tail.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use crate::arena::Tag;

/// Which tag-scan implementation a kernel runs. See the module docs for the
/// dispatch rules; [`KernelBackend::active`] is the process-wide selection
/// every kernel captures at construction, and
/// [`crate::SweepOutcome::kernel_backend`] reports it per sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// The branchless SWAR loop — always available, and the oracle the
    /// SIMD paths are property-tested against.
    Scalar,
    /// Four 32-bit or two 64-bit tags per step through `core::arch` SSE2
    /// intrinsics (`x86_64` baseline; requires the `simd` cargo feature).
    Sse2,
    /// Eight 32-bit or four 64-bit tags per step through `core::arch` AVX2
    /// intrinsics (runtime detected; requires the `simd` cargo feature).
    Avx2,
}

/// Set when the startup selftest caught a divergence: every later
/// [`KernelBackend::active`] answers `Scalar`, so freshly built kernels
/// degrade to the oracle instead of trusting a miscompiled or misdetected
/// SIMD path.
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

impl KernelBackend {
    /// Stable lowercase name (`scalar` / `sse2` / `avx2`), as printed by
    /// `dew sweep` and recorded in bench JSON.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Sse2 => "sse2",
            KernelBackend::Avx2 => "avx2",
        }
    }

    /// The widest backend this build *and* this machine support, detected
    /// once per process. `DEW_FORCE_SCALAR=1` (any non-empty value other
    /// than `0`) pins it to `Scalar`; a failed [`crate::kernel::selftest`]
    /// downgrades it to `Scalar` for the rest of the process.
    #[must_use]
    pub fn active() -> KernelBackend {
        static ACTIVE: OnceLock<KernelBackend> = OnceLock::new();
        if FORCE_SCALAR.load(Ordering::Relaxed) {
            return KernelBackend::Scalar;
        }
        *ACTIVE.get_or_init(Self::detect)
    }

    /// `true` when this backend can run on this build and machine.
    #[must_use]
    pub fn is_available(self) -> bool {
        match self {
            KernelBackend::Scalar => true,
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            KernelBackend::Sse2 => true,
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            KernelBackend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
            _ => false,
        }
    }

    fn detect() -> KernelBackend {
        let forced =
            std::env::var_os("DEW_FORCE_SCALAR").is_some_and(|v| !v.is_empty() && v != *"0");
        if forced {
            return KernelBackend::Scalar;
        }
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return KernelBackend::Avx2;
            }
            return KernelBackend::Sse2;
        }
        #[allow(unreachable_code)]
        KernelBackend::Scalar
    }
}

impl fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Downgrades every subsequent [`KernelBackend::active`] call to `Scalar`.
/// Called by [`crate::kernel::selftest`] when a differential check fails.
pub(crate) fn force_scalar_globally() {
    FORCE_SCALAR.store(true, Ordering::Relaxed);
}

/// One scan backend as a zero-sized strategy type: kernels monomorphise
/// their batch loop over this, so the `#[inline(always)]` mask computation
/// inlines into each backend's `#[target_feature]` driver.
pub trait TagScan: Copy {
    /// Position-exact match mask over 64-bit tags: bit `i` is set iff
    /// `region[i] == needle`. `region.len()` must not exceed 64.
    fn mask64(self, region: &[u64], needle: u64) -> u64;
    /// [`TagScan::mask64`] over 32-bit tags.
    fn mask32(self, region: &[u32], needle: u32) -> u64;
}

/// Branchless scalar equality bit: `1` iff `a == b`, computed with the SWAR
/// zero test on the XOR (no `setcc` needed even without vector units).
#[inline(always)]
fn eq_bit(a: u64, b: u64) -> u64 {
    let x = a ^ b;
    (!x & x.wrapping_sub(1)) >> 63
}

/// [`eq_bit`] on 32-bit tags.
#[inline(always)]
fn eq_bit32(a: u32, b: u32) -> u64 {
    let x = a ^ b;
    u64::from((!x & x.wrapping_sub(1)) >> 31)
}

/// The scalar oracle. See [`TagScan`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScalarScan;

impl TagScan for ScalarScan {
    #[inline(always)]
    fn mask64(self, region: &[u64], needle: u64) -> u64 {
        debug_assert!(region.len() <= 64);
        let mut mask = 0u64;
        for (i, &tag) in region.iter().enumerate() {
            mask |= eq_bit(tag, needle) << i;
        }
        mask
    }

    #[inline(always)]
    fn mask32(self, region: &[u32], needle: u32) -> u64 {
        debug_assert!(region.len() <= 64);
        let mut mask = 0u64;
        for (i, &tag) in region.iter().enumerate() {
            mask |= eq_bit32(tag, needle) << i;
        }
        mask
    }
}

/// The SSE2 backend (x86_64 baseline). See [`TagScan`] and the module docs.
/// Kept because it pays where AVX2 is missing: perfbench's `sweep_fifo`
/// runs in 0.34 s on it against 0.51 s on the scalar loop (EXPERIMENTS.md,
/// "Scan-path mechanisms that pay").
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sse2Scan;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
impl TagScan for Sse2Scan {
    #[inline(always)]
    #[allow(unsafe_code)]
    fn mask64(self, region: &[u64], needle: u64) -> u64 {
        debug_assert!(region.len() <= 64);
        use core::arch::x86_64::{
            _mm_castsi128_ps, _mm_cmpeq_epi32, _mm_loadu_si128, _mm_movemask_ps, _mm_set1_epi64x,
        };
        let len = region.len();
        let mut mask = 0u64;
        let mut i = 0usize;
        // SAFETY: SSE2 is baseline on x86_64; the unaligned load reads lanes
        // `i..i+2`, in bounds by the loop condition.
        unsafe {
            let n = _mm_set1_epi64x(needle as i64);
            while i + 2 <= len {
                let v = _mm_loadu_si128(region.as_ptr().add(i).cast());
                // Plain SSE2 has no 64-bit compare: a u64 lane is equal iff
                // both of its 32-bit halves compare equal. The four 32-bit
                // sign bits come out as scalar bits and are paired there:
                // bit 0 of `both` is lane 0, bit 2 is lane 1. (Pairing them
                // in the vector, as `pshufd` + `pand` + `movmskpd`, is
                // miscompiled by LLVM 22 once the mask's zero test is
                // inlined into a caller: the "no match" branch is folded
                // away. See DESIGN.md, "Wide scans and the scalar oracle".)
                let halves = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, n))) as u64;
                let both = halves & (halves >> 1);
                mask |= ((both & 1) | (both >> 1 & 2)) << i;
                i += 2;
            }
        }
        if i < len {
            mask |= eq_bit(region[i], needle) << i;
        }
        mask
    }

    #[inline(always)]
    #[allow(unsafe_code)]
    fn mask32(self, region: &[u32], needle: u32) -> u64 {
        debug_assert!(region.len() <= 64);
        use core::arch::x86_64::{
            _mm_castsi128_ps, _mm_cmpeq_epi32, _mm_loadl_epi64, _mm_loadu_si128, _mm_movemask_ps,
            _mm_set1_epi32,
        };
        let len = region.len();
        let mut mask = 0u64;
        let mut i = 0usize;
        // SAFETY: SSE2 is baseline on x86_64; the unaligned loads read lanes
        // `i..i+4` and `i..i+2`, in bounds by their conditions.
        unsafe {
            let n = _mm_set1_epi32(needle as i32);
            while i + 4 <= len {
                let v = _mm_loadu_si128(region.as_ptr().add(i).cast());
                let eq = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, n))) as u64;
                mask |= eq << i;
                i += 4;
            }
            if i + 2 <= len {
                // Two tags in the low half; the zeroed high half may match a
                // zero needle, so only the low two bits count.
                let v = _mm_loadl_epi64(region.as_ptr().add(i).cast());
                let eq = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, n))) as u64;
                mask |= (eq & 3) << i;
                i += 2;
            }
        }
        if i < len {
            mask |= eq_bit32(region[i], needle) << i;
        }
        mask
    }
}

/// The AVX2 backend (runtime detected). See [`TagScan`] and the module docs.
/// Kept because the intrinsics pay over autovectorisation: the scalar SWAR
/// loop compiled under the same avx2 root makes perfbench's `sweep_fifo`
/// 17% slower (EXPERIMENTS.md, "Scan-path mechanisms that pay").
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[derive(Debug, Clone, Copy)]
pub(crate) struct Avx2Scan;

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
impl TagScan for Avx2Scan {
    #[inline(always)]
    #[allow(unsafe_code)]
    fn mask64(self, region: &[u64], needle: u64) -> u64 {
        debug_assert!(region.len() <= 64);
        debug_assert!(KernelBackend::Avx2.is_available());
        use core::arch::x86_64::{
            _mm256_castsi256_pd, _mm256_cmpeq_epi64, _mm256_loadu_si256, _mm256_movemask_pd,
            _mm256_set1_epi64x,
        };
        let len = region.len();
        let mut mask = 0u64;
        let mut i = 0usize;
        // SAFETY: this strategy is only constructed after
        // `is_x86_feature_detected!("avx2")` succeeded (and the kernels'
        // batch drivers carry `#[target_feature(enable = "avx2")]`, so the
        // intrinsics inline there); the unaligned load reads lanes
        // `i..i+4`, in bounds by the loop condition.
        unsafe {
            let n = _mm256_set1_epi64x(needle as i64);
            while i + 4 <= len {
                let v = _mm256_loadu_si256(region.as_ptr().add(i).cast());
                let eq = _mm256_cmpeq_epi64(v, n);
                mask |= ((_mm256_movemask_pd(_mm256_castsi256_pd(eq)) as u32) as u64) << i;
                i += 4;
            }
        }
        while i < len {
            mask |= eq_bit(region[i], needle) << i;
            i += 1;
        }
        mask
    }

    #[inline(always)]
    #[allow(unsafe_code)]
    fn mask32(self, region: &[u32], needle: u32) -> u64 {
        debug_assert!(region.len() <= 64);
        debug_assert!(KernelBackend::Avx2.is_available());
        use core::arch::x86_64::{
            _mm256_castsi256_ps, _mm256_castsi256_si128, _mm256_cmpeq_epi32, _mm256_loadu_si256,
            _mm256_movemask_ps, _mm256_set1_epi32, _mm_castsi128_ps, _mm_cmpeq_epi32,
            _mm_loadl_epi64, _mm_loadu_si128, _mm_movemask_ps,
        };
        let len = region.len();
        let mut mask = 0u64;
        let mut i = 0usize;
        // SAFETY: as for `mask64` (AVX2 detected before this strategy is
        // constructed); the unaligned loads read lanes `i..i+8`, `i..i+4`
        // and `i..i+2`, in bounds by their conditions.
        unsafe {
            let n = _mm256_set1_epi32(needle as i32);
            while i + 8 <= len {
                let v = _mm256_loadu_si256(region.as_ptr().add(i).cast());
                let eq = _mm256_cmpeq_epi32(v, n);
                mask |= ((_mm256_movemask_ps(_mm256_castsi256_ps(eq)) as u32) as u64) << i;
                i += 8;
            }
            // A 4-tag and a 2-tag step, so no const region shape (every
            // length even, e.g. 6- and 30-tag regions) reaches the scalar
            // tail.
            let n = _mm256_castsi256_si128(n);
            if i + 4 <= len {
                let v = _mm_loadu_si128(region.as_ptr().add(i).cast());
                let eq = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, n))) as u64;
                mask |= eq << i;
                i += 4;
            }
            if i + 2 <= len {
                // The zeroed high half may match a zero needle: keep two bits.
                let v = _mm_loadl_epi64(region.as_ptr().add(i).cast());
                let eq = _mm_movemask_ps(_mm_castsi128_ps(_mm_cmpeq_epi32(v, n))) as u64;
                mask |= (eq & 3) << i;
                i += 2;
            }
        }
        if i < len {
            mask |= eq_bit32(region[i], needle) << i;
        }
        mask
    }
}

/// Match mask over a region of any length, windowed in 64-lane pieces:
/// the first window with a match decides (callers only need the first
/// position). Returns the global position of the first matching lane.
/// The arena's lane lookup (`crate::arena::Site`) calls it per lane when a
/// node's region is too long for one mask.
#[inline(always)]
pub(crate) fn first_match<S: TagScan, T: Tag>(scan: S, region: &[T], needle: T) -> Option<usize> {
    let mut base = 0usize;
    for window in region.chunks(64) {
        let m = T::mask(scan, window, needle);
        if m != 0 {
            return Some(base + m.trailing_zeros() as usize);
        }
        base += window.len();
    }
    None
}

/// Outcome of a lane lookup: the needle's way, or the valid-prefix length
/// when the needle is absent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneScan {
    /// The needle is resident at this index (always inside the valid
    /// prefix: sentinels never equal a real block number).
    Hit(usize),
    /// The needle is absent; `valid_len` is the index of the first sentinel
    /// lane (== the lane's width when the lane is full).
    Miss {
        /// Length of the valid prefix.
        valid_len: usize,
    },
}

/// The PLRU/SLRU scan of one lane — first match or first sentinel,
/// whichever comes first — as two masks per 64-lane window: lanes equal to
/// `needle` and lanes equal to `sentinel`. Bit-identical to the sequential
/// "break at sentinel, stop at match" loop because the first set bit of the
/// combined mask is exactly where that loop stops.
///
/// The arena's lane lookup scans lane by lane with this only when a node's
/// region is too long for one mask (over 64 tags); otherwise it masks the
/// whole region once per needle and reads each lane off the masks
/// ([`window_scan`]).
#[inline(always)]
pub(crate) fn lane_scan<S: TagScan, T: Tag>(
    scan: S,
    region: &[T],
    needle: T,
    sentinel: T,
) -> LaneScan {
    let mut base = 0usize;
    for window in region.chunks(64) {
        let hits = T::mask(scan, window, needle);
        let invalid = T::mask(scan, window, sentinel);
        let combined = hits | invalid;
        if combined != 0 {
            let t = combined.trailing_zeros() as usize;
            if (hits >> t) & 1 == 1 {
                return LaneScan::Hit(base + t);
            }
            return LaneScan::Miss {
                valid_len: base + t,
            };
        }
        base += window.len();
    }
    LaneScan::Miss {
        valid_len: region.len(),
    }
}

/// The lane of `w` ways as bits of a whole-region mask, for `w` in
/// `1..=64`: its `w` low bits, and the stop bit just past them (none past
/// a 64-way lane). Branch-free at run-time widths, where `1 << w` would
/// overflow at 64.
#[inline(always)]
fn lane_bits(w: usize) -> (u64, u64) {
    debug_assert!((1..=64).contains(&w));
    let stop = 2u64 << (w - 1);
    (stop.wrapping_sub(1), stop)
}

/// The needle's way in the lane of `w` ways at `off`, read off `hits`, a
/// whole-region needle mask: a block occupies at most one way of a lane,
/// so the lowest bit of the lane's window is its way. `w` may be 64.
#[inline(always)]
pub(crate) fn window_match(hits: u64, off: usize, w: usize) -> Option<usize> {
    debug_assert!(off + w <= 64);
    let hit = (hits >> off) & lane_bits(w).0;
    (hit != 0).then(|| hit.trailing_zeros() as usize)
}

/// [`lane_scan`] read off two whole-region masks instead of scanning the
/// lane again: `hits` and `invalid` are the masks of a node's whole region
/// against the needle and the sentinel, and the lane is the `w` ways at
/// `off`. Valid tags are a prefix of every lane and a block occupies at
/// most one way, so the lowest needle bit of the window is the hit way
/// and, failing that, the lowest sentinel bit is the valid-prefix length
/// (`w` when the window has none). `w` may be 64.
#[inline(always)]
pub(crate) fn window_scan(hits: u64, invalid: u64, off: usize, w: usize) -> LaneScan {
    debug_assert!(off + w <= 64);
    let (window, stop) = lane_bits(w);
    let hit = (hits >> off) & window;
    if hit != 0 {
        return LaneScan::Hit(hit.trailing_zeros() as usize);
    }
    LaneScan::Miss {
        valid_len: (((invalid >> off) & window) | stop).trailing_zeros() as usize,
    }
}

/// The const lane shapes of the fused kernels, and the dispatch onto them.
/// A kernel's lanes are consecutive power-of-two widths, so its whole shape
/// is `(first width, lane count)`; for each shape listed here (every range
/// of two or more ways up to 16, plus the single-lane jobs) the body is
/// instantiated with `$first` and `$n` bound to that pair as constants, so
/// every width, offset, the stride and the region length are compile-time
/// constants (every region of these shapes, at most 32 tags, fits one
/// 64-lane mask). Any other shape binds both to `0`, the runtime
/// shape, which reads its widths and offsets from the forest: its lane
/// lookup masks the whole region too when the region fits one mask, and
/// scans lane by lane otherwise. The table pays: with every shape on the
/// runtime path, perfbench's `sweep_fifo` ran 2.6× and `explore_policies`
/// 1.8× slower (EXPERIMENTS.md, "Scan-path mechanisms that pay").
///
/// ```text
/// with_lane_shape!((first_width, num_lanes), |FIRST, NLANES| {
///     self.drive::<S, FIRST, NLANES>(scan, blocks)
/// })
/// ```
macro_rules! with_lane_shape {
    ($shape:expr, |$first:ident, $n:ident| $body:expr) => {
        $crate::simd::with_lane_shape!(@arms $shape, $first, $n, $body;
            (2, 1), (2, 2), (2, 3), (2, 4), (4, 1), (4, 2), (4, 3), (8, 1), (8, 2), (16, 1))
    };
    (@arms $shape:expr, $first:ident, $n:ident, $body:expr;
        $(($f:literal, $c:literal)),+) => {
        match $shape {
            $(($f, $c) => {
                const $first: usize = $f;
                const $n: usize = $c;
                $body
            })+
            _ => {
                const $first: usize = 0;
                const $n: usize = 0;
                $body
            }
        }
    };
}
pub(crate) use with_lane_shape;

#[cfg(test)]
mod tests {
    use super::*;

    fn backends() -> Vec<KernelBackend> {
        let mut b = vec![KernelBackend::Scalar];
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        {
            b.push(KernelBackend::Sse2);
            if KernelBackend::Avx2.is_available() {
                b.push(KernelBackend::Avx2);
            }
        }
        b
    }

    fn mask_via<T: Tag>(backend: KernelBackend, region: &[T], needle: T) -> u64 {
        match backend {
            KernelBackend::Scalar => T::mask(ScalarScan, region, needle),
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            KernelBackend::Sse2 => T::mask(Sse2Scan, region, needle),
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            KernelBackend::Avx2 => T::mask(Avx2Scan, region, needle),
            #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
            _ => unreachable!("backend unavailable in this build"),
        }
    }

    /// Every backend finds `needle` at every position of every region
    /// length up to 64 at width `T`, and nowhere in a region of `other`.
    fn check_every_length_and_position<T: Tag>(needle: T, other: T) {
        for backend in backends() {
            for len in 0..=64usize {
                let mut region = vec![other; len];
                assert_eq!(mask_via(backend, &region, needle), 0, "{backend} len={len}");
                for pos in 0..len {
                    region[pos] = needle;
                    let expected = 1u64 << pos;
                    assert_eq!(
                        mask_via(backend, &region, needle),
                        expected,
                        "{backend} len={len} pos={pos}"
                    );
                    region[pos] = other;
                }
            }
        }
    }

    #[test]
    fn every_backend_masks_every_length_and_position_identically() {
        check_every_length_and_position(7u64, 0xDEAD_BEEF);
    }

    #[test]
    fn every_backend_masks_every_narrow_length_and_position_identically() {
        check_every_length_and_position(7u32, 0xDEAD_BEEF);
        // A zero needle: the 2-tag step loads into a zeroed vector half,
        // which must not report matches past the region.
        check_every_length_and_position(0u32, u32::MAX);
        check_every_length_and_position(u32::MAX, 0);
    }

    #[test]
    fn narrow_masks_catch_high_bit_and_half_word_aliases() {
        // Values sharing a 16-bit half or differing only in the sign bit,
        // the sentinel and its neighbour, at every offset of each step
        // (8, 4, 2 and 1 tags) the vector scans take.
        let values = [
            0x0001_0002u32,
            0x0001_0003,
            0x0004_0002,
            0x8001_0002,
            0x7FFF_FFFF,
            u32::MAX - 1,
            u32::MAX,
        ];
        for backend in backends() {
            for len in [values.len(), 15, 30, 64] {
                let region: Vec<u32> = values.iter().copied().cycle().take(len).collect();
                for &needle in values.iter().chain(&[0x0002_0001, 0x8000_0000, 0]) {
                    let expected = region
                        .iter()
                        .enumerate()
                        .filter(|&(_, &t)| t == needle)
                        .fold(0u64, |m, (i, _)| m | 1 << i);
                    assert_eq!(
                        mask_via(backend, &region, needle),
                        expected,
                        "{backend} len={len} needle={needle:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn masks_catch_high_bit_and_half_word_aliases() {
        // Values whose 32-bit halves collide pairwise: the SSE2 half-compare
        // must not report a false positive.
        let region = [
            0x0000_0001_0000_0002u64,
            0x0000_0001_0000_0003,
            0x0000_0004_0000_0002,
            u64::MAX - 1,
            u64::MAX,
        ];
        for backend in backends() {
            assert_eq!(mask_via(backend, &region, 0x0000_0001_0000_0002), 1);
            assert_eq!(mask_via(backend, &region, 0x0000_0001_0000_0003), 2);
            assert_eq!(mask_via(backend, &region, 0x0000_0004_0000_0002), 4);
            assert_eq!(mask_via(backend, &region, u64::MAX), 16);
            assert_eq!(mask_via(backend, &region, 0x0000_0002_0000_0001), 0);
        }
    }

    #[test]
    fn narrow_lane_scan_matches_the_wide_one() {
        const S: u32 = u32::MAX;
        for (region, needle) in [
            (vec![2u32, 1, S], 1u32),
            (vec![2, 3, S], 1),
            (vec![2, 3, 4], 1),
            (vec![S, S], 1),
        ] {
            let wide: Vec<u64> = region.iter().map(|&t| t.widen()).collect();
            assert_eq!(
                lane_scan(ScalarScan, &region, needle, S),
                lane_scan(ScalarScan, &wide, u64::from(needle), u64::MAX),
                "region={region:?}"
            );
        }
    }

    #[test]
    fn lane_scan_matches_sequential_semantics() {
        const S: u64 = u64::MAX;
        let cases: Vec<(Vec<u64>, u64, LaneScan)> = vec![
            (vec![], 1, LaneScan::Miss { valid_len: 0 }),
            (vec![S, S], 1, LaneScan::Miss { valid_len: 0 }),
            (vec![2, 1, S], 1, LaneScan::Hit(1)),
            (vec![2, 3, S], 1, LaneScan::Miss { valid_len: 2 }),
            (vec![2, 3, 4], 1, LaneScan::Miss { valid_len: 3 }),
            (vec![1, S, S], 1, LaneScan::Hit(0)),
        ];
        for (region, needle, expected) in &cases {
            assert_eq!(
                lane_scan(ScalarScan, region, *needle, S),
                *expected,
                "region={region:?}"
            );
        }
        // A long lane exercises the windowing.
        let mut long = vec![9u64; 100];
        long[97] = 1;
        assert_eq!(lane_scan(ScalarScan, &long, 1, S), LaneScan::Hit(97));
        assert_eq!(first_match(ScalarScan, &long, 1), Some(97));
        assert_eq!(first_match(ScalarScan, &long, 8), None);
    }

    #[test]
    fn window_reads_equal_lane_scans_at_every_width_up_to_64() {
        // Lanes of every width at every offset of a 64-tag region, each a
        // valid prefix of distinct tags and a sentinel tail; the needle at
        // every position, and absent. The 64-way lane has no stop bit.
        const S: u64 = u64::MAX;
        for w in 1..=64usize {
            for off in [0, 64 - w, (64 - w) / 2] {
                for valid in [0, w / 2, w.saturating_sub(1), w] {
                    let mut region = vec![S; 64];
                    for (i, t) in region[off..off + valid].iter_mut().enumerate() {
                        *t = 100 + i as u64;
                    }
                    let invalid = u64::mask(ScalarScan, &region, S);
                    let lane = &region[off..off + w];
                    for needle in (100..100 + valid as u64).chain([7]) {
                        let hits = u64::mask(ScalarScan, &region, needle);
                        let expected = lane_scan(ScalarScan, lane, needle, S);
                        let at = format!("w={w} off={off} valid={valid} needle={needle}");
                        assert_eq!(window_scan(hits, invalid, off, w), expected, "{at}");
                        assert_eq!(
                            window_match(hits, off, w),
                            first_match(ScalarScan, lane, needle),
                            "{at}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn active_backend_is_available_and_stable() {
        let a = KernelBackend::active();
        assert!(a.is_available());
        assert_eq!(KernelBackend::active(), a, "cached per process");
        assert!(KernelBackend::Scalar.is_available());
        assert_eq!(a.name().to_string(), format!("{a}"));
    }
}
