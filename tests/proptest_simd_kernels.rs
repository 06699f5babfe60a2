//! Differential property tests of the wide-scan tag-compare kernels: every
//! available tag-scan backend (`sse2`, `avx2`) must be **bit-identical** to
//! the scalar SWAR oracle — same per-pass results, same work counters, same
//! complete state snapshots — for every registered policy, both
//! instrumentation modes, associativities 1..=16 (1..=64 for tree-PLRU and
//! SLRU), arbitrary traces and arbitrary (and deliberately *different*)
//! chunk boundaries on the two sides. This is the CI half of the guarantee; the in-process half is
//! `dew_core::kernel::selftest`, which re-proves it on the deployment
//! machine before the first sweep trusts a wide scan.
//!
//! Kernels scan 32-bit tags until a block outgrows them and 64-bit tags
//! after; the drawn traces run narrow throughout or turn wide at a drawn
//! point, so both scan widths and the promotion between them are covered.

use proptest::prelude::*;

use dew_core::{DewOptions, FusedKernel, KernelBackend, PolicyKernel, TreePolicy};
use dew_trace::{decode_blocks, Record};

/// Traces mixing tight locality (hits at shallow depths), a medium working
/// set (evictions, ladder consults) and scattered far references (misses,
/// lane fills), as in the exactness properties. In two of three traces,
/// every third record from a drawn point on moves up by 2^36 bytes — past
/// the 32-bit tag range at every drawn block size, with its set unchanged —
/// so the kernels scan narrow regions up to there and wide ones after.
fn trace_strategy() -> impl Strategy<Value = Vec<Record>> {
    let records = prop::collection::vec(
        prop_oneof![
            (0u64..256).prop_map(|a| Record::read(a * 4)), // hot words
            (0u64..65_536).prop_map(Record::read),         // scattered
            (0u64..64).prop_map(Record::write),            // hot bytes
        ],
        1..500,
    );
    (records, 0u32..3, 0usize..100).prop_map(|(mut records, kind, percent)| {
        if kind > 0 {
            let from = records.len() * percent / 100;
            for r in records.iter_mut().skip(from).step_by(3) {
                r.addr |= 1 << 36;
            }
        }
        records
    })
}

fn policy_strategy() -> impl Strategy<Value = TreePolicy> {
    prop_oneof![
        Just(TreePolicy::Fifo),
        Just(TreePolicy::Lru),
        Just(TreePolicy::Plru),
        Just(TreePolicy::Slru),
    ]
}

/// Every backend this build and machine can run. Always contains `Scalar`;
/// on an `x86_64` build with the `simd` feature it adds `Sse2` and, when
/// the CPU has it, `Avx2` — so on full hardware the property is proven for
/// all three, and the suite degrades gracefully elsewhere.
fn available_backends() -> Vec<KernelBackend> {
    [
        KernelBackend::Scalar,
        KernelBackend::Sse2,
        KernelBackend::Avx2,
    ]
    .into_iter()
    .filter(|b| b.is_available())
    .collect()
}

/// Feeds `blocks` through the kernel in chunks whose lengths cycle through
/// `lens` — wide-scan windows and prefetch lookahead straddle every chunk
/// boundary differently for different `lens`.
fn run_chunked(kernel: &mut FusedKernel, blocks: &[u64], lens: &[usize]) {
    let mut rest = blocks;
    let mut i = 0usize;
    while !rest.is_empty() {
        let n = lens[i % lens.len()].min(rest.len());
        let (head, tail) = rest.split_at(n);
        kernel.run_blocks(head);
        rest = tail;
        i += 1;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The headline property: for any policy, mode, geometry, trace and
    /// chunking, every available backend reproduces the scalar oracle's
    /// results, counters and full serialized state bit-for-bit.
    #[test]
    fn every_backend_is_bit_identical_to_scalar(
        records in trace_strategy(),
        block_bits in 0u32..4,
        max_set_bits in 0u32..5,
        assoc_bits in (0u32..=6, 0u32..=6),
        instrument in any::<bool>(),
        policy in policy_strategy(),
        fifo_toggles in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        lens_a in prop::collection::vec(1usize..96, 1..8),
        lens_b in prop::collection::vec(1usize..96, 1..8),
    ) {
        let mut options = DewOptions::for_policy(policy);
        if policy == TreePolicy::Fifo {
            // The FIFO ladder stages (MRA stop, wave, MRE, elision) gate
            // which scans run; exercise every combination.
            let (mra_stop, wave, mre, dup_elision) = fifo_toggles;
            options.mra_stop = mra_stop;
            options.wave = wave;
            options.mre = mre;
            options.dup_elision = dup_elision;
        }
        // Associativity ranges up to 16 ways reach every const lane shape
        // and some runtime ones; tree-PLRU and SLRU go to 64 ways, where a
        // node's region outgrows one 64-lane match mask.
        let widest = if matches!(policy, TreePolicy::Plru | TreePolicy::Slru) { 6 } else { 4 };
        let (lo, hi) = (
            assoc_bits.0.min(assoc_bits.1).min(widest),
            assoc_bits.0.max(assoc_bits.1).min(widest),
        );
        let blocks = decode_blocks(&records, block_bits);

        let build = || {
            FusedKernel::build(block_bits, (0, max_set_bits), (lo, hi), options, instrument)
                .expect("valid geometry and sound options")
        };
        let mut oracle = build();
        oracle
            .force_scan_backend(KernelBackend::Scalar)
            .expect("the scalar backend is always available");
        run_chunked(&mut oracle, &blocks, &lens_a);

        for backend in available_backends() {
            let mut kernel = build();
            kernel.force_scan_backend(backend).expect("listed as available");
            run_chunked(&mut kernel, &blocks, &lens_b);
            for bits in lo..=hi {
                let assoc = 1u32 << bits;
                prop_assert_eq!(
                    kernel.pass_results(assoc),
                    oracle.pass_results(assoc),
                    "{} results diverged from scalar: policy {}, assoc {}, instrument {}",
                    backend.name(), policy, assoc, instrument
                );
                prop_assert_eq!(
                    kernel.pass_counters(assoc),
                    oracle.pass_counters(assoc),
                    "{} counters diverged from scalar: policy {}, assoc {}, instrument {}",
                    backend.name(), policy, assoc, instrument
                );
            }
            prop_assert_eq!(
                kernel.to_snapshot(),
                oracle.to_snapshot(),
                "{} arena state diverged from scalar: policy {}, instrument {}",
                backend.name(), policy, instrument
            );
        }
    }
}

/// The in-process startup selftest — the deployment-machine half of the
/// guarantee — must pass wherever this suite runs.
#[test]
fn startup_selftest_accepts_this_machine() {
    assert_eq!(dew_core::kernel::selftest::verify(), Ok(()));
    assert_eq!(
        dew_core::kernel::selftest::ensure(),
        KernelBackend::active()
    );
}

/// `DEW_FORCE_SCALAR=1` pins the scalar backend; this suite is also run
/// under that pin in CI, and pinning an unavailable backend must fail
/// loudly rather than silently produce scalar results.
#[test]
fn forcing_an_unavailable_backend_is_an_error() {
    let mut kernel = FusedKernel::build(
        2,
        (0, 2),
        (0, 1),
        DewOptions::for_policy(TreePolicy::Fifo),
        false,
    )
    .expect("valid geometry");
    for backend in [KernelBackend::Sse2, KernelBackend::Avx2] {
        if !backend.is_available() {
            assert!(kernel.force_scan_backend(backend).is_err());
        }
    }
    assert!(kernel.force_scan_backend(KernelBackend::Scalar).is_ok());
    assert_eq!(kernel.scan_backend(), KernelBackend::Scalar);
}
