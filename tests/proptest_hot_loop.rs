//! Property-based equivalence of the hot-loop variants: for arbitrary
//! traces, geometries and both policies, the instrumented and fast
//! (uninstrumented) kernels of a single pass, and the per-record vs batched
//! (`run_blocks`) drive paths, must produce identical [`PassResults`] — and,
//! within an instrumentation mode, identical counters.
//!
//! [`PassResults`]: dew_core::PassResults

use proptest::prelude::*;

use dew_core::{DewOptions, FusedKernel, KernelBackend, PassConfig, PolicyKernel, TreePolicy};
use dew_trace::{decode_blocks, BlockChunks, Record};

/// The kernel of one single-associativity pass under `opts.policy`.
fn single_pass(pass: PassConfig, opts: DewOptions, instrument: bool) -> FusedKernel {
    let bits = pass.assoc().trailing_zeros();
    let sets = (pass.min_set_bits(), pass.max_set_bits());
    FusedKernel::build(pass.block_bits(), sets, (bits, bits), opts, instrument).expect("sound")
}

/// Feeds `blocks` one request at a time (the per-record drive path).
fn step_each(kernel: &mut FusedKernel, blocks: &[u64]) {
    for block in blocks {
        kernel.run_blocks(std::slice::from_ref(block));
    }
}

/// Traces mixing tight locality with scattered far references, as in the
/// exactness properties.
fn trace_strategy() -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..256).prop_map(|a| Record::read(a * 4)), // hot words
            (0u64..65_536).prop_map(Record::read),         // scattered
            (0u64..64).prop_map(Record::write),            // hot bytes
        ],
        1..500,
    )
}

fn options_strategy() -> impl Strategy<Value = DewOptions> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(lru, mra_stop, wave, mre, dup_elision)| DewOptions {
            // The MRA stop is unsound under LRU; mask it out there.
            mra_stop: mra_stop && !lru,
            wave,
            mre,
            dup_elision,
            policy: if lru {
                TreePolicy::Lru
            } else {
                TreePolicy::Fifo
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn instrumented_and_fast_kernels_agree(
        records in trace_strategy(),
        block_bits in 0u32..5,
        min_set_bits in 0u32..3,
        extra_set_bits in 0u32..5,
        assoc_bits in 0u32..4,
        opts in options_strategy(),
    ) {
        let pass = PassConfig::new(
            block_bits,
            min_set_bits,
            min_set_bits + extra_set_bits,
            1 << assoc_bits,
        )
        .expect("valid");
        let a = pass.assoc();
        let blocks = decode_blocks(&records, block_bits);
        let mut fast = single_pass(pass, opts, false);
        let mut slow = single_pass(pass, opts, true);
        step_each(&mut fast, &blocks);
        step_each(&mut slow, &blocks);
        let (fc, sc) = (fast.pass_counters(a).expect("simulated"), slow.pass_counters(a).expect("simulated"));
        prop_assert!(sc.is_consistent());
        prop_assert_eq!(fast.pass_results(a), slow.pass_results(a), "kernels diverged under {}", opts);
        // Request-level counters are maintained by both kernels.
        prop_assert_eq!(fc.accesses, sc.accesses);
        prop_assert_eq!(fc.duplicate_skips, sc.duplicate_skips);
    }

    #[test]
    fn batched_and_per_record_paths_agree(
        records in trace_strategy(),
        block_bits in 0u32..5,
        max_set_bits in 0u32..6,
        assoc_bits in 0u32..4,
        instrument in any::<bool>(),
        chunk_len in 1usize..300,
        opts in options_strategy(),
    ) {
        let pass = PassConfig::new(block_bits, 0, max_set_bits, 1 << assoc_bits)
            .expect("valid");
        let a = pass.assoc();
        let blocks = decode_blocks(&records, block_bits);
        // Per-record steps pinned to the scalar scan, batches on the active
        // backend: the comparison doubles as a backend check.
        let mut stepped = single_pass(pass, opts, instrument);
        stepped.force_scan_backend(KernelBackend::Scalar).expect("scalar is always available");
        step_each(&mut stepped, &blocks);

        // Whole-trace batch.
        let mut batched = single_pass(pass, opts, instrument);
        batched.run_blocks(&blocks);
        prop_assert_eq!(stepped.pass_results(a), batched.pass_results(a), "run_blocks diverged under {}", opts);
        prop_assert_eq!(stepped.pass_counters(a), batched.pass_counters(a));

        // Chunked streaming decode: same numbers through a bounded buffer.
        let mut chunked = single_pass(pass, opts, instrument);
        let mut chunks = BlockChunks::new(&records, block_bits, chunk_len);
        while let Some(chunk) = chunks.next_chunk() {
            chunked.run_blocks(chunk);
        }
        prop_assert_eq!(stepped.pass_results(a), chunked.pass_results(a), "chunked run diverged under {}", opts);
        prop_assert_eq!(stepped.pass_counters(a), chunked.pass_counters(a));
    }

    /// Chunk partitioning never affects results — the [`PolicyKernel`]
    /// contract behind checkpoint resume and retry replay —
    /// including at *adversarial* chunk sizes: 1 (every wide scan and
    /// prefetch window restarts per request), `assoc - 1` (chunks go out of
    /// phase with the widest lane), and the wide-scan window width ± 1
    /// (63/65: chunk boundaries straddle the 64-lane mask windows
    /// both ways). Every registered policy, both instrumentation modes.
    #[test]
    fn every_policy_kernel_is_chunk_invariant_at_adversarial_sizes(
        records in trace_strategy(),
        block_bits in 0u32..4,
        max_set_bits in 0u32..5,
        assoc_bits in 0u32..5,
        instrument in any::<bool>(),
    ) {
        let blocks = decode_blocks(&records, block_bits);
        let assoc = 1usize << assoc_bits;
        for policy in TreePolicy::ALL {
            let options = DewOptions::for_policy(policy);
            let build = || {
                FusedKernel::build(
                    block_bits,
                    (0, max_set_bits),
                    (0, assoc_bits),
                    options,
                    instrument,
                )
                .expect("valid geometry")
            };
            let mut whole = build();
            whole.run_blocks(&blocks);
            for chunk_len in [1, assoc.saturating_sub(1).max(1), 63, 65] {
                let mut chunked = build();
                for chunk in blocks.chunks(chunk_len) {
                    chunked.run_blocks(chunk);
                }
                for bits in 0..=assoc_bits {
                    let a = 1u32 << bits;
                    prop_assert_eq!(
                        chunked.pass_results(a),
                        whole.pass_results(a),
                        "{} results diverged re-chunked at {}, assoc {}, instrument {}",
                        policy, chunk_len, a, instrument
                    );
                    prop_assert_eq!(
                        chunked.pass_counters(a),
                        whole.pass_counters(a),
                        "{} counters diverged re-chunked at {}, assoc {}, instrument {}",
                        policy, chunk_len, a, instrument
                    );
                }
            }
        }
    }

    #[test]
    fn snapshots_round_trip_across_kernel_variants(
        records in trace_strategy(),
        split in 0usize..500,
        instrument in any::<bool>(),
        opts in options_strategy(),
    ) {
        let pass = PassConfig::new(2, 0, 4, 4).expect("valid");
        let blocks = decode_blocks(&records, 2);
        let split = split.min(blocks.len());
        let mut straight = single_pass(pass, opts, instrument);
        step_each(&mut straight, &blocks);
        let mut head = single_pass(pass, opts, instrument);
        step_each(&mut head, &blocks[..split]);
        let mut tail = FusedKernel::from_snapshot(opts.policy, &head.to_snapshot())
            .expect("restores");
        step_each(&mut tail, &blocks[split..]);
        prop_assert_eq!(tail.pass_results(4), straight.pass_results(4));
        prop_assert_eq!(tail.pass_counters(4), straight.pass_counters(4));
    }
}
