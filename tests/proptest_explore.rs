//! Property-based guarantees of the design-space exploration engine: the
//! monotonicity-pruned Pareto frontier must be identical to the exhaustive
//! one for arbitrary traces, spaces, policy mixes and budgets, the
//! bookkeeping must add up, and the reported `trace_traversals` must be
//! truthful (one per block size per policy — the fused sweep schedule).

use proptest::prelude::*;

use dew_core::{ConfigSpace, TreePolicy};
use dew_explore::{explore_trace, EnergyModel, ExplorationPoint, ExplorationSpace, ParetoMode};
use dew_trace::Record;

/// Traces mixing tight locality with scattered far references (the same
/// shape the fused-sweep equivalence properties use).
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

/// Small but shape-diverse spaces, biased toward multi-associativity
/// ranges so the prefilter has columns to work on.
fn space_strategy() -> impl Strategy<Value = ConfigSpace> {
    (0u32..3, 0u32..4, 0u32..3, 0u32..2, 0u32..2, 0u32..3).prop_map(
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

fn policy_strategy() -> impl Strategy<Value = Vec<TreePolicy>> {
    prop_oneof![
        Just(vec![TreePolicy::Fifo]),
        Just(vec![TreePolicy::Lru]),
        Just(vec![TreePolicy::Fifo, TreePolicy::Lru]),
        Just(vec![TreePolicy::Plru, TreePolicy::Slru]),
        Just(TreePolicy::ALL.to_vec()),
    ]
}

/// Stable identity of a point for set comparison.
fn key(p: &ExplorationPoint) -> (u8, u32, u32, u32) {
    (
        p.policy as u8,
        p.evaluation.geometry.block_bytes,
        p.evaluation.geometry.assoc,
        p.evaluation.geometry.sets,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn pruned_frontier_equals_exhaustive_frontier(
        records in trace_strategy(),
        space in space_strategy(),
        policies in policy_strategy(),
        budget in prop_oneof![Just(None), (256u64..16_384).prop_map(Some)],
        threads in 0usize..3,
    ) {
        let exploration = ExplorationSpace::new(space)
            .with_policies(&policies)
            .with_budget(budget);
        let model = EnergyModel::default();
        let exhaustive = explore_trace(
            &exploration, &records, &model, ParetoMode::Exhaustive, threads,
        ).expect("exhaustive explore");
        let pruned = explore_trace(
            &exploration, &records, &model, ParetoMode::Pruned, threads,
        ).expect("pruned explore");

        // The frontiers are identical as sets of (policy, geometry) points
        // with identical figures of merit.
        let mut fa = exhaustive.frontier();
        let mut fb = pruned.frontier();
        fa.sort_by_key(key);
        fb.sort_by_key(key);
        prop_assert_eq!(
            fa, fb,
            "pruning changed the frontier (space {}, policies {:?}, budget {:?})",
            space, policies, budget
        );

        // Exhaustive mode never prunes; pruned mode accounts for every
        // candidate exactly once.
        prop_assert_eq!(exhaustive.pruned_dominated(), 0);
        prop_assert_eq!(
            exhaustive.points().len() as u64 + exhaustive.over_budget(),
            exploration.candidate_count()
        );
        prop_assert_eq!(
            pruned.points().len() as u64 + pruned.over_budget() + pruned.pruned_dominated(),
            exploration.candidate_count()
        );

        // Every pruned-away point must genuinely be off the frontier: the
        // pruned report's frontier flags agree with the exhaustive one's
        // on all surviving points.
        let frontier_keys: Vec<_> = fa.iter().map(key).collect();
        for p in pruned.points() {
            prop_assert_eq!(
                p.on_frontier,
                frontier_keys.contains(&key(p)),
                "{} flag disagrees with the exhaustive frontier", p
            );
        }
    }

    #[test]
    fn explore_reports_truthful_trace_traversals(
        records in trace_strategy(),
        space in space_strategy(),
        policies in policy_strategy(),
        threads in 0usize..3,
    ) {
        let exploration = ExplorationSpace::new(space).with_policies(&policies);
        let report = explore_trace(
            &exploration, &records, &EnergyModel::default(), ParetoMode::Pruned, threads,
        ).expect("explore");

        // The fused schedule: one traversal per block size per policy,
        // independent of set counts, associativities and thread counts.
        let (blo, bhi) = space.block_bits();
        let block_sizes = u64::from(bhi - blo + 1);
        prop_assert_eq!(
            report.trace_traversals(),
            block_sizes * policies.len() as u64
        );
        prop_assert_eq!(report.accesses(), records.len() as u64);
        prop_assert_eq!(report.candidates(), space.config_count() * policies.len() as u64);
    }
}
