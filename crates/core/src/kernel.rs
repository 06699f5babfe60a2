//! Pluggable policy kernels: the common surface every fused arena simulator
//! presents to the sweep drivers, and the enum that dispatches over the
//! registered policies.
//!
//! A replacement policy plugs into the fused sweep as **a lane layout plus
//! an update rule** behind one contract:
//!
//! * consume pre-decoded block numbers **one at a time** (chunk
//!   partitioning never affects results — the invariance behind exact
//!   checkpoint resume and retry replay);
//! * cover every associativity of a block size in **one traversal**;
//! * fan the fused state back out into per-pass [`PassResults`] /
//!   [`DewCounters`] views;
//! * serialise to a versioned snapshot under the policy's own magic
//!   (`DEWM` FIFO, `DEWL` LRU, `DEWP` tree-PLRU, `DEWU` SLRU) and reject a
//!   sibling's buffer as a [`SnapshotError::PolicyMismatch`].
//!
//! [`PolicyKernel`] is that contract as a trait, implemented once for every
//! arena kernel; [`FusedKernel`] is the concrete dispatcher the drivers hold
//! (enum, not `dyn`, so the hot `run_blocks` call is a direct jump).
//! Registering a policy means: a [`TreePolicy`] variant, a lane type
//! implementing the arena's `Policy` trait (its lanes, update rule, MRA-stop
//! verdict and lane codec), its magic in the arena's magic table, and a
//! build arm and a decode arm in [`FusedKernel`]. Every kernel takes the one
//! [`DewOptions`] type; a policy brings no options of its own.

use std::fmt;

use crate::arena::{Arena, Policy};
use crate::counters::DewCounters;
use crate::lru_tree::{Lru, LruTreeSimulator};
use crate::multi_assoc::{Fifo, MultiAssocTree};
use crate::options::{DewOptions, TreePolicy};
use crate::plru_tree::{Plru, PlruTreeSimulator};
use crate::results::PassResults;
use crate::simd::KernelBackend;
use crate::slru_tree::{Slru, SlruTreeSimulator};
use crate::snapshot::SnapshotError;
use crate::space::{DewError, PassConfig};

/// The surface a fused arena simulator exposes to the policy-generic sweep
/// drivers. See the module docs for the contract behind each method.
pub trait PolicyKernel {
    /// The replacement policy this kernel simulates.
    fn policy(&self) -> TreePolicy;

    /// Simulates a batch of pre-decoded block numbers. Kernels consume
    /// blocks one at a time: running one batch or the same blocks split
    /// across many batches is bit-identical.
    fn run_blocks(&mut self, blocks: &[u64]);

    /// Fans the fused state out into the results a standalone
    /// `(block size, assoc)` pass would have produced, or `None` when
    /// `assoc` is not covered.
    fn pass_results(&self, assoc: u32) -> Option<PassResults>;

    /// The per-pass work-counter view at `assoc`, or `None` when `assoc` is
    /// not covered.
    fn pass_counters(&self, assoc: u32) -> Option<DewCounters>;

    /// Serialises the complete kernel state under the policy's own magic.
    fn to_snapshot(&self) -> Vec<u8>;

    /// Actual heap footprint of the kernel's lanes in bytes, with the MRA
    /// and way tags at their current width: 4 bytes each until a block
    /// outgrows 32 bits, 8 after.
    fn footprint_bytes(&self) -> usize;

    /// The tag-scan backend this kernel's batched scans run on (fixed at
    /// construction from [`KernelBackend::active`] unless pinned).
    fn scan_backend(&self) -> KernelBackend;

    /// Pins the tag-scan backend. The differential harness
    /// ([`selftest`], `tests/proptest_simd_kernels.rs`) drives the same
    /// trace once per backend to prove them bit-identical; results never
    /// depend on the choice.
    ///
    /// # Errors
    ///
    /// [`DewError::UnsoundOptions`] when `backend` is not available on this
    /// build/machine.
    fn force_scan_backend(&mut self, backend: KernelBackend) -> Result<(), DewError>;
}

/// Every arena kernel presents the contract through its inherent methods.
impl<P: Policy> PolicyKernel for Arena<P> {
    fn policy(&self) -> TreePolicy {
        P::POLICY
    }
    fn run_blocks(&mut self, blocks: &[u64]) {
        Arena::run_blocks(self, blocks);
    }
    fn pass_results(&self, assoc: u32) -> Option<PassResults> {
        Arena::pass_results(self, assoc)
    }
    fn pass_counters(&self, assoc: u32) -> Option<DewCounters> {
        Arena::pass_counters(self, assoc)
    }
    fn to_snapshot(&self) -> Vec<u8> {
        Arena::to_snapshot(self)
    }
    fn footprint_bytes(&self) -> usize {
        Arena::footprint_bytes(self)
    }
    fn scan_backend(&self) -> KernelBackend {
        Arena::scan_backend(self)
    }
    fn force_scan_backend(&mut self, backend: KernelBackend) -> Result<(), DewError> {
        Arena::force_scan_backend(self, backend)
    }
}

/// One fused simulator, any registered policy: the concrete kernel every
/// sweep driver holds. Enum dispatch keeps the per-chunk call direct.
pub enum FusedKernel {
    /// FIFO on the [`MultiAssocTree`] (per-associativity tag lists, MRA
    /// early termination).
    Fifo(Box<MultiAssocTree>),
    /// LRU on the arena [`LruTreeSimulator`] (one move-to-front lane
    /// answers every associativity through the stack property).
    Lru(Box<LruTreeSimulator>),
    /// Tree-PLRU on the arena [`PlruTreeSimulator`] (per-lane direction
    /// bits, MRA early termination).
    Plru(Box<PlruTreeSimulator>),
    /// SLRU on the arena [`SlruTreeSimulator`] (per-lane segmented recency
    /// regions, MRA early termination at settled nodes).
    Slru(Box<SlruTreeSimulator>),
}

impl FusedKernel {
    /// Builds the kernel for `options.policy` covering set counts
    /// `2^set_bits.0 ..= 2^set_bits.1` and associativities
    /// `2^assoc_bits.0 ..= 2^assoc_bits.1` at one block size.
    ///
    /// # Errors
    ///
    /// As [`Arena::new`]: [`DewError::UnsoundOptions`] when `options` fails
    /// validation, plus geometry errors (e.g. [`DewError::BadAssoc`] for a
    /// tree-PLRU lane wider than [`crate::plru_tree::MAX_PLRU_ASSOC`]).
    pub fn build(
        block_bits: u32,
        set_bits: (u32, u32),
        assoc_bits: (u32, u32),
        options: DewOptions,
        instrument: bool,
    ) -> Result<FusedKernel, DewError> {
        let (b, s, a, o, i) = (block_bits, set_bits, assoc_bits, options, instrument);
        Ok(match options.policy {
            TreePolicy::Fifo => FusedKernel::Fifo(Box::new(Arena::new(b, s, a, o, i)?)),
            TreePolicy::Lru => FusedKernel::Lru(Box::new(Arena::new(b, s, a, o, i)?)),
            TreePolicy::Plru => FusedKernel::Plru(Box::new(Arena::new(b, s, a, o, i)?)),
            TreePolicy::Slru => FusedKernel::Slru(Box::new(Arena::new(b, s, a, o, i)?)),
        })
    }

    /// `log2` of the widest associativity `policy`'s kernel can hold
    /// ([`Arena::new`] refuses wider lanes with [`DewError::BadAssoc`]).
    pub(crate) fn max_assoc_bits(policy: TreePolicy) -> u32 {
        match policy {
            TreePolicy::Fifo => Fifo::MAX_ASSOC_BITS,
            TreePolicy::Lru => Lru::MAX_ASSOC_BITS,
            TreePolicy::Plru => Plru::MAX_ASSOC_BITS,
            TreePolicy::Slru => Slru::MAX_ASSOC_BITS,
        }
    }

    /// Restores the kernel of `policy` from its snapshot bytes.
    ///
    /// # Errors
    ///
    /// As the policy's own `from_snapshot` — in particular
    /// [`SnapshotError::PolicyMismatch`] when `bytes` carries a sibling
    /// kernel's magic.
    pub fn from_snapshot(policy: TreePolicy, bytes: &[u8]) -> Result<FusedKernel, SnapshotError> {
        Ok(match policy {
            TreePolicy::Fifo => FusedKernel::Fifo(Box::new(Arena::from_snapshot(bytes)?)),
            TreePolicy::Lru => FusedKernel::Lru(Box::new(Arena::from_snapshot(bytes)?)),
            TreePolicy::Plru => FusedKernel::Plru(Box::new(Arena::from_snapshot(bytes)?)),
            TreePolicy::Slru => FusedKernel::Slru(Box::new(Arena::from_snapshot(bytes)?)),
        })
    }

    /// The trait object view (read-only).
    fn as_kernel(&self) -> &dyn PolicyKernel {
        match self {
            FusedKernel::Fifo(k) => k.as_ref(),
            FusedKernel::Lru(k) => k.as_ref(),
            FusedKernel::Plru(k) => k.as_ref(),
            FusedKernel::Slru(k) => k.as_ref(),
        }
    }

    /// The kernel's geometry and progress: its widest pass, its narrowest
    /// associativity and the records simulated so far. Resume checks a
    /// checkpointed kernel against its job with it.
    pub(crate) fn shape(&self) -> (PassConfig, u32, u64) {
        fn of<P: Policy>(k: &Arena<P>) -> (PassConfig, u32, u64) {
            (*k.pass(), k.assoc_list()[0], k.counters().accesses)
        }
        match self {
            FusedKernel::Fifo(k) => of(k),
            FusedKernel::Lru(k) => of(k),
            FusedKernel::Plru(k) => of(k),
            FusedKernel::Slru(k) => of(k),
        }
    }

    /// Fans out one pass's results and counters; the sweep drivers call
    /// this once per `(block size, assoc)` pair a job covers.
    ///
    /// # Panics
    ///
    /// Panics when `assoc` is not covered by this kernel — drivers only ask
    /// for associativities of the job that built the kernel.
    pub(crate) fn fan_out(&self, assoc: u32) -> (PassResults, DewCounters) {
        let k = self.as_kernel();
        (
            k.pass_results(assoc).expect("job covers its passes"),
            k.pass_counters(assoc).expect("job covers its passes"),
        )
    }
}

impl fmt::Debug for FusedKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FusedKernel")
            .field("policy", &self.policy())
            .field("footprint_bytes", &self.footprint_bytes())
            .finish_non_exhaustive()
    }
}

impl PolicyKernel for FusedKernel {
    fn policy(&self) -> TreePolicy {
        self.as_kernel().policy()
    }
    fn run_blocks(&mut self, blocks: &[u64]) {
        match self {
            FusedKernel::Fifo(k) => k.run_blocks(blocks),
            FusedKernel::Lru(k) => k.run_blocks(blocks),
            FusedKernel::Plru(k) => k.run_blocks(blocks),
            FusedKernel::Slru(k) => k.run_blocks(blocks),
        }
    }
    fn pass_results(&self, assoc: u32) -> Option<PassResults> {
        self.as_kernel().pass_results(assoc)
    }
    fn pass_counters(&self, assoc: u32) -> Option<DewCounters> {
        self.as_kernel().pass_counters(assoc)
    }
    fn to_snapshot(&self) -> Vec<u8> {
        self.as_kernel().to_snapshot()
    }
    fn footprint_bytes(&self) -> usize {
        self.as_kernel().footprint_bytes()
    }
    fn scan_backend(&self) -> KernelBackend {
        self.as_kernel().scan_backend()
    }
    fn force_scan_backend(&mut self, backend: KernelBackend) -> Result<(), DewError> {
        match self {
            FusedKernel::Fifo(k) => k.force_scan_backend(backend),
            FusedKernel::Lru(k) => k.force_scan_backend(backend),
            FusedKernel::Plru(k) => k.force_scan_backend(backend),
            FusedKernel::Slru(k) => k.force_scan_backend(backend),
        }
    }
}

pub mod selftest {
    //! Startup differential check of the wide-scan backends.
    //!
    //! The SIMD tag scans are property-tested against the scalar oracle in
    //! CI (`tests/proptest_simd_kernels.rs`), but the machine running a
    //! sweep is not the machine that ran CI. This module re-proves the
    //! equivalence in-process, once, the first time a sweep driver
    //! validates a request: a deterministic trace is driven through every
    //! registered policy kernel, instrumented and fast, under the active
    //! backend and again under the pinned scalar backend, and the results,
    //! work counters and full state snapshots are compared bit-for-bit. On
    //! any mismatch the process permanently downgrades to the scalar
    //! backend ([`KernelBackend::active`] reports the downgrade) — wrong
    //! fast answers are never served. Debug builds panic instead, so the
    //! failure is loud where a developer can see it.

    use super::{DewOptions, FusedKernel, PolicyKernel, TreePolicy};
    use crate::simd::KernelBackend;
    use std::sync::OnceLock;

    /// Number of trace blocks driven per policy and mode: enough to fill
    /// and evict every lane of the self-test geometry many times over.
    const TRACE_LEN: usize = 2048;

    /// Blocks appended past the 32-bit tag range, starting at `u32::MAX`
    /// (the narrow sentinel): the kernels scan 32-bit tags up to there, are
    /// promoted mid-chunk, and scan 64-bit tags for the rest, so one run
    /// covers both widths of every backend and the promotion between them.
    const WIDE_TAIL: usize = 96;

    /// The `(log2 sets, log2 assoc)` ranges checked: a multi-level,
    /// multi-lane forest, and one set of a lone 2-way lane, whose const lane
    /// shape the first never reaches (an LLVM miscompile of the sse2 scan
    /// once showed only there).
    const GEOMETRIES: [((u32, u32), (u32, u32)); 2] = [((0, 4), (0, 3)), ((0, 0), (1, 1))];

    /// The deterministic self-test trace: an LCG mixing a hot working set
    /// (re-hits, promotions), a medium stream (evictions) and periodic
    /// cold scans (invalid-prefix fills), so every ladder stage and every
    /// lane-scan outcome is exercised; then the [`WIDE_TAIL`], whose blocks
    /// share their low 32 bits with the hot set or re-hit it.
    fn trace() -> Vec<u64> {
        let mut x = 0x5EED_CAFE_F00D_u64;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let mut blocks: Vec<u64> = (0..TRACE_LEN)
            .map(|i| match i % 7 {
                0..=2 => next() % 24,         // hot set: hits at every depth
                3 | 4 => next() % 160,        // medium: misses and evictions
                _ => 4096 + (i as u64) % 512, // cold scan: fills and pollution
            })
            .collect();
        blocks.push(u64::from(u32::MAX));
        blocks.extend((1..WIDE_TAIL).map(|i| match i % 3 {
            0 => next() % 24,             // narrow re-hits in wide lanes
            1 => (1 << 32) + next() % 24, // the hot set's high-bit aliases
            _ => (1 << 32) + next() % 160,
        }));
        blocks
    }

    /// Runs the differential check and reports the first divergence.
    ///
    /// Drives the self-test trace through every policy, instrumented and
    /// fast, under the active backend and under the pinned scalar oracle,
    /// in unequal chunk sizes (so wide-scan windows and the promotion to
    /// 64-bit tags straddle chunk boundaries differently), then compares
    /// per-associativity results, per-associativity counters and the
    /// complete state snapshots.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first mismatch.
    pub fn verify() -> Result<(), String> {
        let blocks = trace();
        for &policy in TreePolicy::ALL.iter() {
            for ((set_bits, assoc_bits), instrument) in
                GEOMETRIES.into_iter().flat_map(|g| [(g, false), (g, true)])
            {
                let who = format!(
                    "selftest {policy} (set bits {set_bits:?}, assoc bits {assoc_bits:?}, \
                     instrument={instrument})"
                );
                let options = DewOptions::for_policy(policy);
                let build = |tag: &str| {
                    FusedKernel::build(2, set_bits, assoc_bits, options, instrument)
                        .map_err(|e| format!("{who}/{tag}: build failed: {e}"))
                };
                let mut active = build("active")?;
                let mut oracle = build("scalar")?;
                oracle
                    .force_scan_backend(KernelBackend::Scalar)
                    .map_err(|e| format!("{who}: cannot pin scalar: {e}"))?;
                // Deliberately unequal chunking on the two sides.
                for chunk in blocks.chunks(97) {
                    active.run_blocks(chunk);
                }
                for chunk in blocks.chunks(61) {
                    oracle.run_blocks(chunk);
                }
                let backend = active.scan_backend().name();
                for assoc in [1u32, 2, 4, 8] {
                    if active.pass_results(assoc) != oracle.pass_results(assoc) {
                        return Err(format!(
                            "{who}: {backend} and scalar backends disagree on results at \
                             assoc {assoc}"
                        ));
                    }
                    if active.pass_counters(assoc) != oracle.pass_counters(assoc) {
                        return Err(format!(
                            "{who}: {backend} and scalar backends disagree on counters at \
                             assoc {assoc}"
                        ));
                    }
                }
                if active.to_snapshot() != oracle.to_snapshot() {
                    return Err(format!(
                        "{who}: {backend} and scalar backends diverge in snapshot state"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Ensures the active backend has passed the differential check this
    /// process, running it on first call (sub-millisecond; a no-op when the
    /// scalar backend is already active). On failure the process downgrades
    /// to the scalar backend for good — release builds log to stderr and
    /// carry on with the oracle, debug builds panic.
    ///
    /// Returns the backend sweeps will actually run on.
    pub fn ensure() -> KernelBackend {
        static CHECKED: OnceLock<()> = OnceLock::new();
        CHECKED.get_or_init(|| {
            if KernelBackend::active() == KernelBackend::Scalar {
                return;
            }
            if let Err(msg) = verify() {
                crate::simd::force_scalar_globally();
                if cfg!(debug_assertions) {
                    panic!("{msg}");
                }
                eprintln!("dew: {msg}; pinning the scalar backend for this process");
            }
        });
        KernelBackend::active()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_covers_every_policy_and_round_trips_snapshots() {
        for policy in TreePolicy::ALL {
            let options = DewOptions::for_policy(policy);
            let mut kernel =
                FusedKernel::build(2, (0, 3), (0, 2), options, false).expect("valid geometry");
            assert_eq!(kernel.policy(), policy);
            kernel.run_blocks(&[1, 2, 3, 1, 2, 9, 1]);
            let restored = FusedKernel::from_snapshot(policy, &kernel.to_snapshot())
                .expect("own snapshot restores");
            assert_eq!(restored.policy(), policy);
            assert_eq!(restored.to_snapshot(), kernel.to_snapshot());
            let (results, counters) = kernel.fan_out(4);
            assert_eq!(results.accesses(), 7);
            assert_eq!(counters.accesses, 7);
            assert!(kernel.footprint_bytes() > 0);
        }
    }

    #[test]
    fn mra_stop_fires_for_plru_and_slru() {
        // Short reuse (ping-pong, repeats, small loops) on a 4-level forest,
        // so coarse-level MRA hits are frequent.
        let mut blocks = Vec::new();
        for i in 0..200u64 {
            let (a, b) = (i % 13, 16 + i % 7);
            blocks.extend([a, b, a, b, a, a, b, a, i % 5, i % 5 + 3, i % 5]);
        }
        let levels = 4u64;
        let evals = |policy| {
            let mut k = FusedKernel::build(2, (0, 3), (0, 2), DewOptions::for_policy(policy), true)
                .expect("valid geometry");
            k.run_blocks(&blocks);
            k.pass_counters(4).expect("covered").node_evaluations
        };
        let lru = evals(TreePolicy::Lru);
        // Both stop at the first MRA hit of the walk.
        assert_eq!(evals(TreePolicy::Plru), lru);
        // SLRU re-processes a node's first MRA hit, but stops at settled ones.
        let slru = evals(TreePolicy::Slru);
        assert!(lru < slru, "lru={lru} slru={slru}");
        assert!(slru < levels * blocks.len() as u64, "slru={slru}");
    }

    #[test]
    fn selftest_passes_on_this_machine() {
        assert_eq!(selftest::verify(), Ok(()));
        // `ensure` must report the backend the verification actually ran.
        assert_eq!(selftest::ensure(), crate::simd::KernelBackend::active());
    }

    #[test]
    fn every_kernel_reports_and_pins_a_scan_backend() {
        for policy in TreePolicy::ALL {
            let mut kernel =
                FusedKernel::build(2, (0, 2), (0, 2), DewOptions::for_policy(policy), false)
                    .expect("valid geometry");
            assert_eq!(kernel.scan_backend(), crate::simd::KernelBackend::active());
            kernel
                .force_scan_backend(crate::simd::KernelBackend::Scalar)
                .expect("scalar is always available");
            assert_eq!(kernel.scan_backend(), crate::simd::KernelBackend::Scalar);
        }
    }

    #[test]
    fn every_kernel_rejects_every_sibling_snapshot_as_policy_mismatch() {
        let snapshots: Vec<(TreePolicy, Vec<u8>)> = TreePolicy::ALL
            .iter()
            .map(|&p| {
                let kernel =
                    FusedKernel::build(2, (0, 2), (0, 1), DewOptions::for_policy(p), false)
                        .expect("valid geometry");
                (p, kernel.to_snapshot())
            })
            .collect();
        for &(restore_as, _) in &snapshots {
            for (written_by, bytes) in &snapshots {
                let got = FusedKernel::from_snapshot(restore_as, bytes);
                if *written_by == restore_as {
                    assert!(got.is_ok(), "{restore_as} restores its own snapshot");
                } else {
                    assert!(
                        matches!(got, Err(SnapshotError::PolicyMismatch { .. })),
                        "{restore_as} kernel fed a {written_by} buffer"
                    );
                }
            }
        }
    }

    /// A lone 2-way LRU lane (shape `(2, 1)`) on every available backend:
    /// two cold blocks must both miss. The sse2 scan once reported hits
    /// here in release builds only.
    #[test]
    fn two_way_lru_lane_counts_cold_misses_on_every_backend() {
        use crate::simd::KernelBackend;
        for backend in [
            KernelBackend::Scalar,
            KernelBackend::Sse2,
            KernelBackend::Avx2,
        ] {
            if !backend.is_available() {
                continue;
            }
            let options = DewOptions::for_policy(TreePolicy::Lru);
            let mut kernel =
                FusedKernel::build(1, (0, 0), (1, 1), options, false).expect("valid geometry");
            kernel.force_scan_backend(backend).expect("available");
            kernel.run_blocks(&[3, 10]);
            let misses = kernel.pass_results(2).expect("assoc 2 simulated").levels()[0].misses();
            assert_eq!(misses, 2, "{backend}");
        }
    }
}
