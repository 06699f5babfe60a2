//! Property-based contract of the pluggable policy kernels: every policy
//! registered in [`TreePolicy::ALL`] must honour the fused-arena bargain.
//!
//! * **Exactness** — the fused sweep (one traversal per block size, every
//!   associativity at once) equals an associativity-pinned kernel per pass
//!   and the brute-force per-configuration `dew_cachesim` oracle, across
//!   random traces, spaces and thread counts.
//! * **Truthful accounting** — `trace_traversals` is exactly the number of
//!   block sizes, for every policy.
//! * **Snapshots** — a kernel interrupted anywhere resumes bit-identically
//!   from its snapshot, and every kernel rejects every sibling's buffer as
//!   a [`SnapshotError::PolicyMismatch`] naming both magics.
//! * **The MRA early stop** of tree-PLRU and SLRU — on traces built from
//!   short reuse, where coarse-level MRA hits are frequent, both kernels
//!   stay exact in both instrumentation modes on every scan backend, and a
//!   kill at any chunk resumes with bit-identical results *and* counters.

use proptest::prelude::*;

use dew_cachesim::{simulate_trace, CacheConfig, Replacement};
use dew_core::kernel::{FusedKernel, PolicyKernel};
use dew_core::snapshot::SnapshotError;
use dew_core::{ConfigSpace, DewOptions, KernelBackend, SweepRequest, TreePolicy};
use dew_trace::{decode_blocks, Record};

/// Traces mixing tight locality with scattered far references, as in the
/// fused-sweep properties.
fn trace_strategy() -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..256).prop_map(|a| Record::read(a * 4)), // hot words
            (0u64..65_536).prop_map(Record::read),         // scattered
            (0u64..64).prop_map(Record::write),            // hot bytes
        ],
        1..300,
    )
}

/// Small but shape-diverse spaces: varying set ranges, 1-2 block sizes,
/// associativity ranges that may or may not include 1, up to
/// `2^max_assoc_bits` ways. Up to 16 ways this reaches every const lane
/// shape of the fused kernels (2 ways and up, 1-4 lanes; one lane of 4, 8
/// or 16) as well as runtime shapes such as 4 + 8 ways; tree-PLRU's cap is
/// 64 ways, whose 2..64-way node region (126 tags) is wider than one
/// 64-lane match mask.
fn space_strategy(max_assoc_bits: u32) -> impl Strategy<Value = ConfigSpace> {
    (
        0u32..3,
        0u32..4,
        0u32..4,
        0u32..2,
        0..=max_assoc_bits,
        0..=max_assoc_bits,
    )
        .prop_map(|(min_s, extra_s, min_b, extra_b, a, b)| {
            ConfigSpace::new(
                (min_s, min_s + extra_s),
                (min_b, min_b + extra_b),
                (a.min(b), a.max(b)),
            )
            .expect("ranges are non-inverted by construction")
        })
}

/// Traces heavy in short reuse: `ABAB`, `AABA`, loops of up to 16 blocks
/// (twice an 8-way lane) and the odd far reference.
/// Addresses are spaced 1, 4, 16 or 64 bytes apart, so they share or split
/// blocks differently at each block size of the space.
fn reuse_trace_strategy() -> impl Strategy<Value = Vec<Record>> {
    let motif = (0u64..24, 0u64..24, 0usize..4, 1u64..=16, 0u8..4).prop_map(
        |(a, b, spacing, len, kind)| {
            let s = [1u64, 4, 16, 64][spacing];
            let (a, b) = (a * s, b * s);
            match kind {
                0 => vec![a, b, a, b],
                1 => vec![a, a, b, a],
                2 => (0..2 * len).map(|i| a + (i % len) * s).collect(),
                _ => vec![4096 * (b + 1) + a],
            }
        },
    );
    prop::collection::vec(motif, 1..60)
        .prop_map(|ms| ms.into_iter().flatten().map(Record::read).collect())
}

/// Every scan backend this build and machine can run (always `Scalar`).
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

/// Builds a kernel pinned to `backend`.
fn pinned_kernel(
    policy: TreePolicy,
    block_bits: u32,
    set_bits: (u32, u32),
    assoc_bits: (u32, u32),
    instrument: bool,
    backend: KernelBackend,
) -> FusedKernel {
    let mut kernel = FusedKernel::build(
        block_bits,
        set_bits,
        assoc_bits,
        DewOptions::for_policy(policy),
        instrument,
    )
    .expect("valid geometry");
    kernel
        .force_scan_backend(backend)
        .expect("the backend is available");
    kernel
}

/// The reference simulator's policy matching each fused kernel.
fn oracle_replacement(policy: TreePolicy) -> Replacement {
    match policy {
        TreePolicy::Fifo => Replacement::Fifo,
        TreePolicy::Lru => Replacement::Lru,
        TreePolicy::Plru => Replacement::Plru,
        TreePolicy::Slru => Replacement::Slru,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// (a) Fused == per-pass == oracle, and (b) exactly one traversal per
    /// block size — for **every** registered policy on the same inputs.
    #[test]
    fn every_policy_is_exact_and_traverses_once_per_block_size(
        records in trace_strategy(),
        space in space_strategy(4),
        threads in 0usize..4,
    ) {
        for &policy in &TreePolicy::ALL {
            let outcome = SweepRequest::new(&space)
                .policy(policy)
                .threads(threads)
                .run(&records)
                .expect("sweep");

            // Truthful accounting: the fused kernels traverse the trace
            // once per block size, never once per (block, assoc) pass.
            let (blo, bhi) = space.block_bits();
            prop_assert_eq!(
                outcome.trace_traversals(),
                u64::from(bhi - blo + 1),
                "policy {}", policy
            );

            // Brute-force oracle: one reference simulation per point.
            let replacement = oracle_replacement(policy);
            for (sets, assoc, block) in space.configs() {
                let config =
                    CacheConfig::new(sets, assoc, block, replacement).expect("valid");
                let expected = simulate_trace(config, &records).misses();
                prop_assert_eq!(
                    outcome.misses(sets, assoc, block),
                    Some(expected),
                    "oracle mismatch at ({}, {}, {}) under {}",
                    sets, assoc, block, policy
                );
            }

            // Per-pass schedule: an associativity-pinned kernel per
            // (block size, assoc) pair must fan out the same counts the
            // fused all-associativity kernel produced.
            let options = DewOptions::for_policy(policy);
            let (alo, ahi) = space.assoc_bits();
            for block_bits in blo..=bhi {
                let blocks = decode_blocks(&records, block_bits);
                for assoc_bits in alo..=ahi {
                    let mut kernel = FusedKernel::build(
                        block_bits,
                        space.set_bits(),
                        (assoc_bits, assoc_bits),
                        options,
                        false,
                    )
                    .expect("valid geometry");
                    kernel.run_blocks(&blocks);
                    let pass = kernel
                        .pass_results(1 << assoc_bits)
                        .expect("pinned assoc is covered");
                    for level in pass.levels() {
                        prop_assert_eq!(
                            outcome.misses(level.sets(), 1 << assoc_bits, 1 << block_bits),
                            Some(level.misses()),
                            "per-pass mismatch at ({}, {}, {}) under {}",
                            level.sets(), 1 << assoc_bits, 1 << block_bits, policy
                        );
                    }
                }
            }
        }
    }

    /// (c) A kernel cut anywhere resumes from its snapshot bit-identically:
    /// same final snapshot, same fanned-out results as the uncut run.
    #[test]
    fn every_policy_snapshot_resumes_bit_identically(
        records in trace_strategy(),
        split_percent in 0usize..=100,
    ) {
        for &policy in &TreePolicy::ALL {
            let options = DewOptions::for_policy(policy);
            let blocks = decode_blocks(&records, 2);
            let split = blocks.len() * split_percent / 100;

            let mut straight =
                FusedKernel::build(2, (0, 3), (0, 2), options, false).expect("valid");
            straight.run_blocks(&blocks);

            let mut head =
                FusedKernel::build(2, (0, 3), (0, 2), options, false).expect("valid");
            head.run_blocks(&blocks[..split]);
            let mut resumed = FusedKernel::from_snapshot(policy, &head.to_snapshot())
                .expect("a kernel restores its own snapshot");
            prop_assert_eq!(resumed.policy(), policy);
            resumed.run_blocks(&blocks[split..]);

            prop_assert_eq!(
                resumed.to_snapshot(),
                straight.to_snapshot(),
                "split at {} diverged under {}", split, policy
            );
            for assoc in [1u32, 2, 4] {
                prop_assert_eq!(
                    resumed.pass_results(assoc),
                    straight.pass_results(assoc),
                    "fan-out at assoc {} diverged under {}", assoc, policy
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// (d) Under short reuse, tree-PLRU and SLRU stay exact with the MRA
    /// stop: fused == associativity-pinned per-pass == oracle, in both
    /// instrumentation modes and on every scan backend.
    #[test]
    fn plru_and_slru_mra_stop_is_exact_under_short_reuse(
        records in reuse_trace_strategy(),
        space in space_strategy(6),
    ) {
        for policy in [TreePolicy::Plru, TreePolicy::Slru] {
            let replacement = oracle_replacement(policy);
            let (alo, ahi) = space.assoc_bits();
            let (blo, bhi) = space.block_bits();
            for block_bits in blo..=bhi {
                let blocks = decode_blocks(&records, block_bits);
                for instrument in [false, true] {
                    for backend in available_backends() {
                        let mut fused = pinned_kernel(
                            policy, block_bits, space.set_bits(), (alo, ahi), instrument, backend,
                        );
                        fused.run_blocks(&blocks);
                        for assoc_bits in alo..=ahi {
                            let assoc = 1u32 << assoc_bits;
                            let mut pinned = pinned_kernel(
                                policy,
                                block_bits,
                                space.set_bits(),
                                (assoc_bits, assoc_bits),
                                instrument,
                                backend,
                            );
                            pinned.run_blocks(&blocks);
                            let got = fused.pass_results(assoc).expect("covered");
                            prop_assert_eq!(
                                Some(got.clone()),
                                pinned.pass_results(assoc),
                                "fused vs per-pass: {} assoc={} block_bits={} \
                                 instrument={} backend={}",
                                policy, assoc, block_bits, instrument, backend.name()
                            );
                            for level in got.levels() {
                                let config = CacheConfig::new(
                                    level.sets(), assoc, 1 << block_bits, replacement,
                                )
                                .expect("valid");
                                prop_assert_eq!(
                                    level.misses(),
                                    simulate_trace(config, &records).misses(),
                                    "oracle: {} sets={} assoc={} block_bits={} \
                                     instrument={} backend={}",
                                    policy, level.sets(), assoc, block_bits, instrument,
                                    backend.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// (e) Under short reuse, a tree-PLRU or SLRU kernel killed after any
    /// chunk resumes from its snapshot with bit-identical results,
    /// instrumented counters and final state.
    #[test]
    fn plru_and_slru_kill_at_any_chunk_resume_bit_identically(
        records in reuse_trace_strategy(),
        chunk in 1usize..64,
        kill_pick in 0usize..1000,
    ) {
        let blocks = decode_blocks(&records, 2);
        let chunks: Vec<&[u64]> = blocks.chunks(chunk).collect();
        let kill = kill_pick % (chunks.len() + 1);
        for policy in [TreePolicy::Plru, TreePolicy::Slru] {
            for instrument in [false, true] {
                for backend in available_backends() {
                    let build = || pinned_kernel(policy, 2, (0, 4), (0, 3), instrument, backend);
                    let mut straight = build();
                    for c in &chunks {
                        straight.run_blocks(c);
                    }
                    let mut head = build();
                    for c in &chunks[..kill] {
                        head.run_blocks(c);
                    }
                    let mut resumed = FusedKernel::from_snapshot(policy, &head.to_snapshot())
                        .expect("a kernel restores its own snapshot");
                    resumed.force_scan_backend(backend).expect("available");
                    for c in &chunks[kill..] {
                        resumed.run_blocks(c);
                    }
                    for assoc in [1u32, 2, 4, 8] {
                        prop_assert_eq!(
                            resumed.pass_results(assoc),
                            straight.pass_results(assoc),
                            "{} results at assoc {}: kill after chunk {}/{} \
                             instrument={} backend={}",
                            policy, assoc, kill, chunks.len(), instrument, backend.name()
                        );
                        prop_assert_eq!(
                            resumed.pass_counters(assoc),
                            straight.pass_counters(assoc),
                            "{} counters at assoc {}: kill after chunk {}/{} \
                             instrument={} backend={}",
                            policy, assoc, kill, chunks.len(), instrument, backend.name()
                        );
                    }
                    prop_assert_eq!(resumed.to_snapshot(), straight.to_snapshot());
                }
            }
        }
    }
}

/// (c) The full rejection matrix: restoring any policy's buffer as any
/// *other* policy fails as a `PolicyMismatch` that names both magics —
/// never a generic corruption error, never a silent success.
#[test]
fn every_kernel_rejects_every_foreign_snapshot_with_both_magics() {
    let snapshots: Vec<(TreePolicy, Vec<u8>)> = TreePolicy::ALL
        .iter()
        .map(|&policy| {
            let mut kernel =
                FusedKernel::build(2, (0, 2), (0, 1), DewOptions::for_policy(policy), false)
                    .expect("valid geometry");
            kernel.run_blocks(&[3, 1, 4, 1, 5, 9, 2, 6]);
            (policy, kernel.to_snapshot())
        })
        .collect();
    for &(restore_as, _) in &snapshots {
        for (written_by, bytes) in &snapshots {
            let got = FusedKernel::from_snapshot(restore_as, bytes);
            if *written_by == restore_as {
                assert!(got.is_ok(), "{restore_as} must restore its own snapshot");
                continue;
            }
            match got {
                Err(SnapshotError::PolicyMismatch { expected, found }) => {
                    assert_ne!(expected, found, "distinct kernels, distinct magics");
                    assert_eq!(
                        &found,
                        &bytes[..4],
                        "the error reports the magic actually found"
                    );
                }
                other => panic!(
                    "{restore_as} kernel fed a {written_by} buffer: \
                     expected PolicyMismatch, got {other:?}"
                ),
            }
        }
    }
}
