//! Property-based contract of the sharded sweep paths.
//!
//! The headline: snapshot-handoff sharding is **bit-identical** to the
//! sequential fused sweep — across random traces, spaces, shard counts,
//! thread counts, and both policies — and therefore also exact against the
//! brute-force per-configuration oracle. Periodic-cluster sampling must
//! honour its stated error bound: under LRU the reported cold-start slack
//! is a guaranteed envelope around the full trace's misses at the retained
//! positions. The streamed driver must match the in-memory one record for
//! record.

use proptest::prelude::*;

use dew_cachesim::{simulate_trace, Cache, CacheConfig, Replacement};
use dew_core::{ConfigSpace, DewOptions, SweepRequest, TreePolicy};
use dew_trace::{Record, SliceSource};

/// Traces mixing tight locality with scattered far references, as in the
/// fused-sweep properties.
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

fn options_for(policy: TreePolicy) -> DewOptions {
    DewOptions::for_policy(policy)
}

/// Misses of `config` over the *full* trace, counted only at the positions
/// a `(period, sample_len)` periodic sample retains: the quantity a sampled
/// sweep estimates and its slack bounds.
fn retained_misses(
    config: CacheConfig,
    records: &[Record],
    period: usize,
    sample_len: usize,
) -> u64 {
    let mut cache = Cache::new(config);
    let mut misses = 0;
    for (i, r) in records.iter().enumerate() {
        let hit = cache.access(*r).hit;
        if i % period < sample_len && !hit {
            misses += 1;
        }
    }
    misses
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn snapshot_handoff_is_bit_identical_to_sequential(
        records in trace_strategy(),
        space in space_strategy(),
        shards in 1usize..6,
        threads in 0usize..4,
        policy_idx in 0usize..4,
    ) {
        let policy = TreePolicy::ALL[policy_idx];
        let options = options_for(policy);
        let sequential = SweepRequest::new(&space).options(options).threads(1).run(&records).expect("sweep");
        let sharded = SweepRequest::new(&space).options(options).threads(threads).sharded(shards).run(&records)
            .expect("sharded sweep");

        prop_assert_eq!(sharded.sorted(), sequential.sorted(),
            "shards={} threads={} policy={}", shards, threads, policy);

        // Truthful accounting: handoff sharding neither adds traversals nor
        // replays records — the shards of a job partition one traversal.
        let (blo, bhi) = space.block_bits();
        prop_assert_eq!(sharded.trace_traversals(), u64::from(bhi - blo + 1));
        prop_assert_eq!(
            sharded.records_simulated(),
            records.len() as u64 * sharded.trace_traversals()
        );
        prop_assert!(sharded.bounds().is_none(), "handoff mode is exact");
    }

    #[test]
    fn snapshot_handoff_matches_the_oracle(
        records in trace_strategy(),
        space in space_strategy(),
        shards in 2usize..6,
        policy_idx in 0usize..4,
    ) {
        let policy = TreePolicy::ALL[policy_idx];
        let replacement = match policy {
            TreePolicy::Fifo => Replacement::Fifo,
            TreePolicy::Lru => Replacement::Lru,
            TreePolicy::Plru => Replacement::Plru,
            TreePolicy::Slru => Replacement::Slru,
        };
        let sharded = SweepRequest::new(&space).options(options_for(policy)).threads(0).sharded(shards).run(&records)
            .expect("sharded sweep");
        for (sets, assoc, block) in space.configs() {
            let config = CacheConfig::new(sets, assoc, block, replacement).expect("valid");
            let expected = simulate_trace(config, &records).misses();
            prop_assert_eq!(
                sharded.misses(sets, assoc, block),
                Some(expected),
                "oracle mismatch at ({}, {}, {}) under {}", sets, assoc, block, policy
            );
        }
    }

    #[test]
    fn sampled_sweep_slack_bounds_the_spliced_stream_under_lru(
        records in trace_strategy(),
        space in space_strategy(),
        period in 1usize..120,
        len_frac in 1usize..120,
    ) {
        let sample_len = len_frac.min(period);
        let options = DewOptions::for_policy(TreePolicy::Lru);
        let est = SweepRequest::new(&space).options(options).threads(0).sampled(period, sample_len).run(&records)
            .expect("sampled sweep");
        let sampled: Vec<Record> = records
            .iter()
            .enumerate()
            .filter(|(i, _)| i % period < sample_len)
            .map(|(_, r)| *r)
            .collect();
        prop_assert_eq!(est.accesses(), sampled.len() as u64);
        let exact = SweepRequest::new(&space).options(options).threads(1).run(&sampled).expect("sweep");
        match est.bounds() {
            None => {
                // Identity sampling degenerates to the exact sweep.
                prop_assert_eq!(sample_len, period);
                prop_assert_eq!(est.sorted(), exact.sorted());
            }
            Some(bounds) => {
                prop_assert!(bounds.guaranteed());
                for (sets, assoc, block) in space.configs() {
                    let config = CacheConfig::new(sets, assoc, block, Replacement::Lru).expect("valid");
                    let truth = retained_misses(config, &records, period, sample_len);
                    let guess = est.misses(sets, assoc, block).expect("covered");
                    let slack = bounds.slack(sets, assoc, block).expect("covered");
                    prop_assert!(
                        guess.abs_diff(truth) <= slack,
                        "({}, {}, {}): truth={} est={} slack={}",
                        sets, assoc, block, truth, guess, slack
                    );
                }
            }
        }
    }

    #[test]
    fn streamed_sweep_matches_the_in_memory_sweep(
        records in trace_strategy(),
        space in space_strategy(),
        threads in 0usize..4,
        policy_idx in 0usize..4,
    ) {
        let policy = TreePolicy::ALL[policy_idx];
        let options = options_for(policy);
        let in_memory = SweepRequest::new(&space).options(options).threads(1).run(&records).expect("sweep");
        let streamed = SweepRequest::new(&space).options(options).threads(threads).run_streamed(&SliceSource(&records))
            .expect("streamed sweep");
        prop_assert_eq!(streamed.sorted(), in_memory.sorted(), "policy={}", policy);
        prop_assert_eq!(streamed.accesses(), in_memory.accesses());
        prop_assert_eq!(streamed.trace_traversals(), in_memory.trace_traversals());
    }
}
