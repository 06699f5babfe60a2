//! Property-based contract of snapshot handoff and of the sampled and
//! streamed sweep paths.
//!
//! The headline: a fused kernel snapshotted and restored into a fresh
//! kernel at arbitrary record positions is **bit-identical** to the
//! uninterrupted kernel — across random traces, spaces, cut counts, all
//! four policies and both instrumentation modes — and therefore also exact
//! against the brute-force per-configuration oracle. That identity is what
//! checkpoint resume rests on. Periodic-cluster sampling must
//! honour its stated error bound: under LRU the reported cold-start slack
//! is a guaranteed envelope around the full trace's misses at the retained
//! positions. The streamed driver must match the in-memory one record for
//! record.

use proptest::prelude::*;

use dew_cachesim::{simulate_trace, Cache, CacheConfig, Replacement};
use dew_core::{ConfigSpace, DewOptions, FusedKernel, PolicyKernel, SweepRequest, TreePolicy};
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

/// Every associativity of `space`, ascending.
fn assocs(space: &ConfigSpace) -> impl Iterator<Item = u32> {
    let (lo, hi) = space.assoc_bits();
    (lo..=hi).map(|b| 1u32 << b)
}

/// One kernel per block size of `space`, each fed the whole trace in
/// `pieces` even intervals with a snapshot/restore into a fresh kernel
/// after every interval — at the positions `s * n / pieces`. `pieces == 0`
/// runs the trace uninterrupted. Returns `(block bits, kernel)` pairs.
fn kernels(
    space: &ConfigSpace,
    records: &[Record],
    policy: TreePolicy,
    instrument: bool,
    pieces: usize,
) -> Vec<(u32, FusedKernel)> {
    let (blo, bhi) = space.block_bits();
    (blo..=bhi)
        .map(|b| {
            let blocks: Vec<u64> = records.iter().map(|r| r.addr >> b).collect();
            let mut kernel = FusedKernel::build(
                b,
                space.set_bits(),
                space.assoc_bits(),
                options_for(policy),
                instrument,
            )
            .expect("valid geometry");
            if pieces == 0 {
                kernel.run_blocks(&blocks);
            }
            let mut at = 0;
            for s in 1..=pieces {
                let cut = s * blocks.len() / pieces;
                kernel.run_blocks(&blocks[at..cut]);
                at = cut;
                kernel = FusedKernel::from_snapshot(policy, &kernel.to_snapshot())
                    .expect("snapshots round-trip");
            }
            (b, kernel)
        })
        .collect()
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
        pieces in 1usize..7,
        instrument in any::<bool>(),
        policy_idx in 0usize..4,
    ) {
        let policy = TreePolicy::ALL[policy_idx];
        let sequential = kernels(&space, &records, policy, instrument, 0);
        let handed = kernels(&space, &records, policy, instrument, pieces);
        for ((b, seq), (_, hand)) in sequential.iter().zip(&handed) {
            prop_assert_eq!(hand.to_snapshot(), seq.to_snapshot(),
                "block bits {} pieces={} policy={} instrument={}", b, pieces, policy, instrument);
            for assoc in assocs(&space) {
                prop_assert_eq!(hand.pass_results(assoc), seq.pass_results(assoc));
                prop_assert_eq!(hand.pass_counters(assoc), seq.pass_counters(assoc));
            }
        }
    }

    #[test]
    fn snapshot_handoff_matches_the_oracle(
        records in trace_strategy(),
        space in space_strategy(),
        pieces in 1usize..7,
        instrument in any::<bool>(),
        policy_idx in 0usize..4,
    ) {
        let policy = TreePolicy::ALL[policy_idx];
        let replacement = match policy {
            TreePolicy::Fifo => Replacement::Fifo,
            TreePolicy::Lru => Replacement::Lru,
            TreePolicy::Plru => Replacement::Plru,
            TreePolicy::Slru => Replacement::Slru,
        };
        let handed = kernels(&space, &records, policy, instrument, pieces);
        for (sets, assoc, block) in space.configs() {
            let kernel = &handed.iter().find(|(b, _)| 1u32 << b == block).expect("block").1;
            let got = kernel.pass_results(assoc).and_then(|p| p.misses(sets, assoc));
            let config = CacheConfig::new(sets, assoc, block, replacement).expect("valid");
            let expected = simulate_trace(config, &records).misses();
            prop_assert_eq!(
                got,
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
