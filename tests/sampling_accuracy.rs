//! Fractional simulation (paper Section 2, related work): sampling a trace
//! trades accuracy for speed. These tests quantify the trade-off the paper
//! alludes to — and confirm that DEW itself never needs to make it, since a
//! full pass is exact by construction.

use dew_cachesim::{Cache, CacheConfig, Replacement};
use dew_core::{ConfigSpace, DewOptions, MultiAssocTree, PassConfig, SweepRequest};
use dew_trace::sample::{periodic, prefix, relative_error, retained_fraction, stratified};
use dew_trace::{Record, Trace};
use dew_workloads::mediabench::App;

/// Miss rate of a 4-way, 64-set, 16-byte-block cache over a trace, via DEW.
fn miss_rate(trace: &Trace) -> f64 {
    let pass = PassConfig::new(4, 6, 6, 4).expect("valid");
    let mut tree = MultiAssocTree::for_pass(pass, DewOptions::default(), false).expect("sound");
    tree.run(trace.iter().copied());
    let results = tree.pass_results(4).expect("the pass associativity");
    results.miss_rate(64, 4).expect("simulated")
}

#[test]
fn cluster_sampling_approximates_the_full_trace() {
    let full = App::JpegEncode.generate(200_000, 17);
    let full_rate = miss_rate(&full);
    assert!(full_rate > 0.0);

    // Keep 25% in clusters of 2500: locality within clusters survives.
    let sampled = periodic(&full, 10_000, 2_500);
    assert!((retained_fraction(&full, &sampled) - 0.25).abs() < 1e-9);
    let err = relative_error(full_rate, miss_rate(&sampled));
    assert!(
        err < 0.35,
        "cluster sampling should land near the full-trace miss rate, got {:.1}% error",
        err * 100.0
    );
}

#[test]
fn longer_samples_are_more_accurate_than_shorter_ones() {
    let full = App::G721Decode.generate(200_000, 23);
    let full_rate = miss_rate(&full);
    let coarse = relative_error(full_rate, miss_rate(&periodic(&full, 10_000, 500)));
    let fine = relative_error(full_rate, miss_rate(&periodic(&full, 10_000, 5_000)));
    assert!(
        fine <= coarse + 0.02,
        "more sample mass must not hurt accuracy much: fine {fine:.3} vs coarse {coarse:.3}"
    );
}

#[test]
fn stratified_sampling_is_far_less_accurate_than_cluster_sampling() {
    // Keeping every 16th request breaks the same-block runs that caches (and
    // DEW's MRA property) live on; at equal retention, contiguous clusters
    // preserve the miss rate far better — the known failure mode of naive
    // stride sampling.
    let full = App::JpegEncode.generate(200_000, 29);
    let full_rate = miss_rate(&full);
    let cluster = periodic(&full, 16_000, 1_000); // 1/16, contiguous
    let strided = stratified(&full, 16); // 1/16, shredded
    let ratio = cluster.len() as f64 / strided.len() as f64;
    assert!((0.9..1.1).contains(&ratio), "comparable retention: {ratio}");
    let cluster_err = relative_error(full_rate, miss_rate(&cluster));
    let strided_err = relative_error(full_rate, miss_rate(&strided));
    assert!(
        strided_err > 2.0 * cluster_err,
        "stride sampling should be far off while clusters stay close: \
         strided {strided_err:.3} vs cluster {cluster_err:.3} (full rate {full_rate:.4})"
    );
}

#[test]
fn prefix_sampling_overweights_cold_start() {
    // A short prefix is dominated by compulsory misses. The MPEG2 surrogates
    // are unsuitable here: their reference-frame initialisation is a tight,
    // cache-friendly phase, so their prefixes *under*-estimate the long-run
    // miss rate about as often as not. G721 streams steadily from the start,
    // which is exactly the regime this test is about.
    let full = App::G721Encode.generate(300_000, 31);
    let full_rate = miss_rate(&full);
    let head_rate = miss_rate(&prefix(&full, 10_000));
    assert!(
        head_rate >= full_rate,
        "cold-start prefix cannot under-estimate the long-run miss rate: \
         head {head_rate:.4} vs full {full_rate:.4}"
    );
}

/// Why the sampled FIFO slack is a diagnostic and not a bound: FIFO has no
/// inclusion property, so two start states of one set need never
/// reconverge, and the error a cluster inherits from its start state is not
/// capped by its first touches.
#[test]
fn sampled_fifo_slack_is_not_a_bound() {
    // One 2-way FIFO set, 1-byte blocks. After `0 1 2 3 1 4` a cold start
    // holds [1, 4] and a start holding [0, 2] holds [3, 4]. Each pair then
    // requests the block the warm run holds and the cold run lacks, then a
    // fresh block: the cold run misses both, the warm run only the fresh
    // one, and the two states stay one block apart.
    let mut seq: Vec<u64> = vec![0, 1, 2, 3, 1, 4];
    for k in 1..=1000u64 {
        seq.extend([k + 2, k + 4]);
    }
    let run = |warm: &[u64]| {
        let config = CacheConfig::new(1, 2, 1, Replacement::Fifo).expect("valid");
        let mut cache = Cache::new(config);
        for &b in warm.iter().chain(&seq) {
            cache.access(Record::read(b));
        }
        cache.stats().misses() - warm.len() as u64
    };
    assert_eq!(seq.len(), 2006);
    assert_eq!(run(&[]), 2006, "cold start");
    assert_eq!(run(&[0, 2]), 1003, "warm start holding [0, 2]");

    // As a sampled sweep sees it: a first cluster leaves the set holding
    // [0, 2]; two skipped records flush it with blocks never used again, so
    // the full trace reaches the sequence as good as cold; the sequence is
    // the second cluster.
    let len = seq.len();
    let mut head = vec![0u64; len - 1];
    head.push(2);
    let gap = [1 << 20, (1 << 20) + 1];
    let full: Vec<Record> = head
        .iter()
        .chain(&gap)
        .chain(&seq)
        .map(|&b| Record::read(b))
        .collect();
    let space = ConfigSpace::new((0, 0), (0, 0), (1, 1)).expect("valid");
    let outcome = SweepRequest::new(&space)
        .sampled(len + gap.len(), len)
        .run(&full)
        .expect("sweep");
    // The head costs two cold misses either way; the second cluster then
    // runs warm in the sampled stream and cold in the full trace.
    let estimate = outcome.misses(1, 2, 1).expect("swept");
    assert_eq!(estimate, 2 + 1003);
    let mut cache = Cache::new(CacheConfig::new(1, 2, 1, Replacement::Fifo).expect("valid"));
    let retained = |i: &usize| i % (len + gap.len()) < len;
    let truth_at_retained = (0..full.len())
        .filter(|&i| !cache.access(full[i]).hit && retained(&i))
        .count() as u64;
    assert_eq!(truth_at_retained, 2 + 2006);
    let bounds = outcome.bounds().expect("a sampled sweep reports bounds");
    assert!(
        !bounds.guaranteed(),
        "FIFO slack is reported as a heuristic"
    );
    assert_eq!(
        bounds.slack(1, 2, 1),
        Some(2),
        "min(first touches, sets x assoc)"
    );
    assert_eq!(
        truth_at_retained - estimate,
        1003,
        "far outside the slack of 2"
    );
}
