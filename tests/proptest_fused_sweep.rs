//! Property-based equivalence of the fused sweep scheduler: for arbitrary
//! traces, configuration spaces and thread counts, the fused
//! one-traversal-per-block-size sweep must be bit-identical to the
//! per-pass schedule (one single-associativity kernel per `(block size,
//! assoc)` pair) and to
//! the brute-force per-configuration FIFO oracle — and must report exactly
//! one trace traversal per block size.

use proptest::prelude::*;

use dew_cachesim::{simulate_trace, CacheConfig, Replacement};
use dew_core::{ConfigSpace, DewOptions, MultiAssocTree, SweepRequest, TreePolicy};
use dew_trace::Record;

/// Traces mixing tight locality with scattered far references, as in the
/// exactness properties.
fn trace_strategy() -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..256).prop_map(|a| Record::read(a * 4)), // hot words
            (0u64..65_536).prop_map(Record::read),         // scattered
            (0u64..64).prop_map(Record::write),            // hot bytes
        ],
        1..400,
    )
}

/// Small but shape-diverse spaces: varying set ranges, 1-2 block sizes,
/// associativity ranges that may or may not include 1.
fn space_strategy() -> impl Strategy<Value = ConfigSpace> {
    (0u32..3, 0u32..4, 0u32..4, 0u32..2, 0u32..3, 0u32..2).prop_map(
        |(min_s, extra_s, min_b, extra_b, min_a, extra_a)| {
            ConfigSpace::new(
                (min_s, min_s + extra_s),
                (min_b, min_b + extra_b),
                (min_a, min_a + extra_a),
            )
            .expect("ranges are non-inverted by construction")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn fused_sweep_matches_per_pass_and_oracle(
        records in trace_strategy(),
        space in space_strategy(),
        threads in 0usize..4,
    ) {
        let outcome = SweepRequest::new(&space).options(DewOptions::default()).threads(threads).run(&records)
            .expect("sweep");

        // One traversal (and one decode) per block size, never per pass.
        let (blo, bhi) = space.block_bits();
        prop_assert_eq!(outcome.trace_traversals(), u64::from(bhi - blo + 1));

        // Bit-identical to the per-pass schedule the paper describes …
        for pass in space.passes() {
            let mut tree =
                MultiAssocTree::for_pass(pass, DewOptions::default(), false).expect("sound");
            tree.run(records.iter().copied());
            let r = tree.pass_results(pass.assoc()).expect("the pass associativity");
            for level in r.levels() {
                prop_assert_eq!(
                    outcome.misses(level.sets(), pass.assoc(), pass.block_bytes()),
                    Some(level.misses()),
                    "{} diverged from the per-pass tree", pass
                );
            }
        }

        // … and exact against the brute-force FIFO oracle.
        for (sets, assoc, block) in space.configs() {
            let config = CacheConfig::new(sets, assoc, block, Replacement::Fifo)
                .expect("valid");
            let expected = simulate_trace(config, &records).misses();
            prop_assert_eq!(
                outcome.misses(sets, assoc, block),
                Some(expected),
                "oracle mismatch at ({}, {}, {})", sets, assoc, block
            );
        }
    }

    #[test]
    fn thread_count_and_instrumentation_do_not_change_results(
        records in trace_strategy(),
        space in space_strategy(),
    ) {
        let base = SweepRequest::new(&space).options(DewOptions::default()).threads(1).run(&records).expect("sweep");
        for threads in [0usize, 2, 3] {
            let par = SweepRequest::new(&space).options(DewOptions::default()).threads(threads).run(&records)
                .expect("sweep");
            prop_assert_eq!(base.sorted(), par.sorted(), "threads={}", threads);
            prop_assert_eq!(base.trace_traversals(), par.trace_traversals());
        }
        let slow = SweepRequest::new(&space).options(DewOptions::default()).threads(2).instrumented(true).run(&records)
            .expect("sweep");
        prop_assert_eq!(base.sorted(), slow.sorted(), "instrumentation changed results");
        prop_assert_eq!(base.trace_traversals(), slow.trace_traversals());
        for (pass, c) in slow.passes() {
            prop_assert!(c.is_consistent(), "{}: {}", pass, c);
            prop_assert_eq!(c.accesses, records.len() as u64);
        }
    }

    #[test]
    fn fused_kernels_agree_across_options_and_drive_paths(
        records in trace_strategy(),
        max_set_bits in 0u32..5,
        assoc_hi_bits in 0u32..4,
        block_bits in 0u32..4,
    ) {
        // Every ablation combination, both kernels, per-record stepping:
        // identical results (the fused analogue of proptest_hot_loop).
        let mut reference = None;
        for opts in DewOptions::ablation_grid(TreePolicy::Fifo) {
            for instrument in [false, true] {
                let mut tree = MultiAssocTree::new(block_bits, (0, max_set_bits), (0, assoc_hi_bits), opts, instrument)
                .expect("valid");
                tree.run(records.iter().copied());
                let r = tree.results();
                match &reference {
                    None => reference = Some(r),
                    Some(expected) => prop_assert_eq!(
                        &r, expected, "diverged under {} instrument={}", opts, instrument
                    ),
                }
            }
        }
        // The batched drive path matches per-record stepping.
        let blocks: Vec<u64> = records.iter().map(|r| r.addr >> block_bits).collect();
        let mut batched = MultiAssocTree::new(block_bits, (0, max_set_bits), (0, assoc_hi_bits), DewOptions::default(), true)
        .expect("valid");
        batched.run_blocks(&blocks);
        prop_assert_eq!(Some(batched.results()), reference);
    }
}

/// The acceptance criterion, spelled out: a sweep over associativities
/// 1..=8 at a fixed block size performs exactly one decode and one trace
/// traversal, verified through the instrumented walk counters (every pass
/// of the block size reports the *same* shared walk, whose access count
/// equals the trace length — i.e. the trace was iterated once).
#[test]
fn assoc_1_to_8_sweep_is_one_traversal() {
    let records: Vec<Record> = (0..4000u64)
        .map(|i| Record::read((i.wrapping_mul(2654435761) >> 7) % (1 << 13)))
        .collect();
    let space = ConfigSpace::new((0, 8), (2, 2), (0, 3)).expect("valid");
    let outcome = SweepRequest::new(&space)
        .options(DewOptions::default())
        .threads(0)
        .instrumented(true)
        .run(&records)
        .expect("sweep");
    assert_eq!(
        outcome.trace_traversals(),
        1,
        "one block size, one traversal"
    );
    assert_eq!(outcome.passes().len(), 3, "passes for assoc 2, 4, 8");
    let walks: Vec<_> = outcome
        .passes()
        .iter()
        .map(|(_, c)| (c.accesses, c.node_evaluations, c.mra_stops))
        .collect();
    for w in &walks {
        assert_eq!(w.0, records.len() as u64);
        assert_eq!(w, &walks[0], "all passes share the single fused walk");
    }
    // And the fused results remain exact against the reference oracle.
    for (sets, assoc, block) in space.configs() {
        let expected = simulate_trace(
            CacheConfig::new(sets, assoc, block, Replacement::Fifo).expect("valid"),
            &records,
        )
        .misses();
        assert_eq!(outcome.misses(sets, assoc, block), Some(expected));
    }
}
