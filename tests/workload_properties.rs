//! Workload-level behaviour: the surrogates must exhibit the cache-relevant
//! structure their real counterparts are known for, and every workload must
//! flow through the full pipeline (generate → file round trip → simulate).

use dew_cachesim::classify::ThreeCClassifier;
use dew_cachesim::{simulate_trace, CacheConfig, Replacement};
use dew_core::{DewOptions, MultiAssocTree, PassConfig};
use dew_trace::Trace;
use dew_workloads::kernels::{Kernel, PointerChase, StridedStream};
use dew_workloads::mediabench::App;

fn miss_rate(app_trace: &Trace, sets: u32, assoc: u32, block: u32) -> f64 {
    let config = CacheConfig::new(sets, assoc, block, Replacement::Fifo).expect("valid");
    let stats = simulate_trace(config, app_trace.records());
    stats.miss_rate()
}

#[test]
fn g721_is_cache_friendlier_than_mpeg2_encode() {
    // G721: tiny hot state + streaming input. MPEG2 encode: large search
    // windows. At a small cache the ordering must be stark.
    let g721 = App::G721Encode.generate(60_000, 2);
    let mpeg2 = App::Mpeg2Encode.generate(60_000, 2);
    let (mr_g721, mr_mpeg2) = (miss_rate(&g721, 64, 2, 16), miss_rate(&mpeg2, 64, 2, 16));
    assert!(
        mr_g721 < mr_mpeg2,
        "g721 {mr_g721:.4} should miss less than mpeg2 encode {mr_mpeg2:.4}"
    );
}

#[test]
fn streaming_beats_pointer_chase_on_spatial_locality() {
    let stream = StridedStream {
        base: 0,
        count: 20_000,
        stride: 4,
        kind: dew_trace::AccessKind::Read,
        passes: 1,
    }
    .generate(1);
    let chase = PointerChase {
        base: 0,
        nodes: 20_000,
        node_bytes: 4,
        steps: 20_000,
    }
    .generate(1);
    // With 64-byte blocks, the stream amortises each miss over 16 accesses;
    // the chase's next node is (almost) never in the same block.
    let mr_stream = miss_rate(&stream, 16, 2, 64);
    let mr_chase = miss_rate(&chase, 16, 2, 64);
    assert!(mr_stream < 0.1, "streaming miss rate {mr_stream}");
    assert!(mr_chase > 0.5, "pointer chase miss rate {mr_chase}");
}

#[test]
fn bigger_blocks_help_streaming_workloads() {
    let trace = App::JpegEncode.generate(50_000, 6);
    let mr4 = miss_rate(&trace, 256, 4, 4);
    let mr64 = miss_rate(&trace, 256, 4, 64);
    assert!(
        mr64 < mr4,
        "sequential pixel/coefficient traffic rewards larger blocks: {mr64} !< {mr4}"
    );
}

#[test]
fn three_c_classification_runs_on_every_app() {
    for app in App::ALL {
        let trace = app.generate(20_000, 8);
        let config = CacheConfig::new(32, 2, 16, Replacement::Fifo).expect("valid");
        let mut classifier = ThreeCClassifier::new(config);
        for r in &trace {
            classifier.access(*r);
        }
        let c = classifier.counts();
        assert_eq!(c.total(), classifier.stats().misses(), "{app}");
        assert!(c.compulsory > 0, "{app} touches fresh blocks");
    }
}

#[test]
fn traces_survive_file_round_trips_and_simulate_identically() {
    let trace = App::JpegDecode.generate(10_000, 13);
    let dir = std::env::temp_dir().join("dew_workload_roundtrip");
    std::fs::create_dir_all(&dir).expect("tempdir");
    let path = dir.join(format!("t{}.dewt", std::process::id()));
    trace.write_bin_file(&path).expect("write");
    let back = Trace::read_bin_file(&path).expect("read");
    let _ = std::fs::remove_file(&path);

    let pass = PassConfig::new(2, 0, 8, 4).expect("valid");
    let mut a = MultiAssocTree::for_pass(pass, DewOptions::default(), true).expect("sound");
    a.run(trace.iter().copied());
    let mut b = MultiAssocTree::for_pass(pass, DewOptions::default(), true).expect("sound");
    b.run(back.iter().copied());
    assert_eq!(a.pass_results(4), b.pass_results(4));
    assert_eq!(a.pass_counters(4), b.pass_counters(4));
}

#[test]
fn dew_handles_every_app_with_consistent_counters() {
    for app in App::ALL {
        let trace = app.generate(25_000, 55);
        let pass = PassConfig::new(4, 0, 14, 8).expect("valid");
        let mut tree = MultiAssocTree::for_pass(pass, DewOptions::default(), true).expect("sound");
        tree.run(trace.iter().copied());
        let c = tree.pass_counters(8).expect("the pass associativity");
        assert!(c.is_consistent(), "{app}: {c}");
        assert_eq!(c.accesses, 25_000, "{app}");
        assert!(c.mra_stops > 0, "{app}: locality must trigger Property 2");
        // Results are bounded and non-trivial.
        let r = tree.pass_results(8).expect("the pass associativity");
        for level in r.levels() {
            assert!(level.misses() <= 25_000);
            assert!(
                level.dm_misses() >= level.misses() / 16,
                "{app}: DM plausibility"
            );
        }
    }
}
