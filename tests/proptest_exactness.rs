//! Property-based exactness: for *arbitrary* traces and geometries, DEW (in
//! every FIFO option combination, and single-width LRU passes) and the
//! LRU-tree comparator (at every associativity) agree exactly with the
//! per-configuration reference simulator.

use proptest::prelude::*;

use dew_cachesim::{simulate_trace, CacheConfig, Replacement};
use dew_core::lru_tree::LruTreeSimulator;
use dew_core::{DewOptions, MultiAssocTree, PassConfig, TreePolicy};
use dew_trace::Record;

/// LRU kernel options with the CRCB-style duplicate elision on or off.
fn lru_options(dup_elision: bool) -> DewOptions {
    DewOptions {
        dup_elision,
        ..DewOptions::for_policy(TreePolicy::Lru)
    }
}

/// Traces mixing tight locality (small hot region) with scattered far
/// references — the regime where the properties fire *and* miss.
fn trace_strategy() -> impl Strategy<Value = Vec<Record>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..256).prop_map(|a| Record::read(a * 4)), // hot words
            (0u64..65_536).prop_map(Record::read),         // scattered
            (0u64..64).prop_map(Record::write),            // hot bytes
        ],
        1..600,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The paper's single pass (a one-width arena) under every one of the
    /// 16 FIFO option combinations: the properties and the elision are
    /// optimisations, so every combination matches the reference, and every
    /// per-pass counter view satisfies the bucket identity.
    #[test]
    fn dew_fifo_matches_reference(
        addrs in trace_strategy(),
        block_bits in 0u32..5,
        max_set_bits in 0u32..7,
        assoc_bits in 0u32..4,
    ) {
        let assoc = 1u32 << assoc_bits;
        let pass = PassConfig::new(block_bits, 0, max_set_bits, assoc).expect("valid");
        let expected: Vec<(u32, u32, u64)> = (0..=max_set_bits)
            .flat_map(|set_bits| [(1u32 << set_bits, 1), (1u32 << set_bits, assoc)])
            .map(|(sets, a)| {
                let config = CacheConfig::new(sets, a, 1 << block_bits, Replacement::Fifo)
                    .expect("valid");
                (sets, a, simulate_trace(config, &addrs).misses())
            })
            .collect();
        for bits in 0..16u8 {
            let opts = DewOptions {
                mra_stop: bits & 1 != 0,
                wave: bits & 2 != 0,
                mre: bits & 4 != 0,
                dup_elision: bits & 8 != 0,
                policy: TreePolicy::Fifo,
            };
            let mut tree = MultiAssocTree::for_pass(pass, opts, true).expect("sound");
            for r in &addrs {
                tree.step(r.addr);
            }
            let counters = tree.pass_counters(assoc).expect("the pass associativity");
            prop_assert!(counters.is_consistent(), "{}: {}", opts, counters);
            let results = tree.pass_results(assoc).expect("the pass associativity");
            for &(sets, a, misses) in &expected {
                prop_assert_eq!(
                    results.misses(sets, a),
                    Some(misses),
                    "sets={} assoc={} opts={:?}", sets, a, opts
                );
            }
        }
    }

    /// DEW-LRU as `lru_compare` runs it: one single-width pass per
    /// associativity, with and without the duplicate elision.
    #[test]
    fn dew_lru_matches_reference(
        addrs in trace_strategy(),
        block_bits in 0u32..5,
        max_set_bits in 0u32..6,
        assoc_bits in 0u32..4,
        duplicate_elision in any::<bool>(),
    ) {
        let assoc = 1u32 << assoc_bits;
        let pass = PassConfig::new(block_bits, 0, max_set_bits, assoc).expect("valid");
        let opts = lru_options(duplicate_elision);
        let mut sim = LruTreeSimulator::for_pass(pass, opts, true).expect("valid");
        for r in &addrs {
            sim.step(r.addr);
        }
        prop_assert!(sim.pass_counters(assoc).expect("simulated").is_consistent());
        let results = sim.pass_results(assoc).expect("the pass associativity");
        for set_bits in 0..=max_set_bits {
            let sets = 1u32 << set_bits;
            for a in [1, assoc] {
                let config = CacheConfig::new(sets, a, 1 << block_bits, Replacement::Lru)
                    .expect("valid");
                let expected = simulate_trace(config, &addrs).misses();
                prop_assert_eq!(results.misses(sets, a), Some(expected));
            }
        }
    }

    #[test]
    fn lru_tree_matches_reference_for_all_assocs(
        addrs in trace_strategy(),
        block_bits in 0u32..4,
        max_set_bits in 0u32..6,
        max_assoc_bits in 0u32..4,
        duplicate_elision in any::<bool>(),
    ) {
        let max_assoc = 1u32 << max_assoc_bits;
        let opts = lru_options(duplicate_elision);
        let mut sim = LruTreeSimulator::new(block_bits, (0, max_set_bits), (0, max_assoc.trailing_zeros()), opts, false)
            .expect("valid");
        for r in &addrs {
            sim.step(r.addr);
        }
        let results = sim.results();
        for set_bits in 0..=max_set_bits {
            for ab in 0..=max_assoc_bits {
                let (sets, a) = (1u32 << set_bits, 1u32 << ab);
                let config = CacheConfig::new(sets, a, 1 << block_bits, Replacement::Lru)
                    .expect("valid");
                let expected = simulate_trace(config, &addrs).misses();
                prop_assert_eq!(results.misses(sets, a), Some(expected));
            }
        }
    }

    #[test]
    fn fifo_set_behaves_like_a_queue_model(
        addrs in prop::collection::vec(0u64..64, 1..400),
        assoc_bits in 0u32..4,
    ) {
        // Single-set cache vs a naive FIFO queue model.
        let assoc = 1usize << assoc_bits;
        let config = CacheConfig::new(1, assoc as u32, 1, Replacement::Fifo).expect("valid");
        let records: Vec<Record> = addrs.iter().map(|&a| Record::read(a)).collect();
        let sim_misses = simulate_trace(config, &records).misses();

        let mut queue: Vec<u64> = Vec::new();
        let mut misses = 0u64;
        for &a in &addrs {
            if !queue.contains(&a) {
                misses += 1;
                if queue.len() == assoc {
                    queue.remove(0);
                }
                queue.push(a);
            }
        }
        prop_assert_eq!(sim_misses, misses);
    }
}
