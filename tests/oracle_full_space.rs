//! The headline exactness claim, end to end: DEW's single-pass results equal
//! the reference simulator's per-configuration results over the **entire**
//! Table 1 space (525 configurations), for a Mediabench-like workload.
//!
//! This is the integration-scale version of the paper's verification
//! ("hit and miss rates of DEW ... are exactly the same" as Dinero IV's).

use dew_cachesim::{simulate_trace, CacheConfig, Replacement};
use dew_core::{ConfigSpace, DewOptions, SweepRequest};
use dew_trace::Trace;
use dew_workloads::mediabench::App;

fn exact_match_over_space(trace: &Trace, space: &ConfigSpace) {
    let sweep = SweepRequest::new(space)
        .options(DewOptions::default())
        .threads(0)
        .run(trace.records())
        .expect("sweep runs");
    assert_eq!(sweep.config_count() as u64, space.config_count());
    for (sets, assoc, block) in space.configs() {
        let config = CacheConfig::new(sets, assoc, block, Replacement::Fifo).expect("valid");
        let expected = simulate_trace(config, trace.records()).misses();
        assert_eq!(
            sweep.misses(sets, assoc, block),
            Some(expected),
            "mismatch at sets={sets} assoc={assoc} block={block}"
        );
    }
}

#[test]
fn dew_matches_reference_on_all_525_paper_configurations() {
    let trace = App::JpegDecode.generate(25_000, 99);
    exact_match_over_space(&trace, &ConfigSpace::paper());
}

#[test]
fn dew_matches_reference_on_a_forest_subspace() {
    // min sets > 1: the structure is a forest of trees, not a single tree.
    let trace = App::G721Encode.generate(25_000, 77);
    let space = ConfigSpace::new((3, 9), (1, 3), (1, 3)).expect("valid");
    exact_match_over_space(&trace, &space);
}

#[test]
fn dew_matches_reference_for_every_app_spot_check() {
    // One cell per app over a smaller grid keeps the runtime modest while
    // covering all six workload shapes.
    let space = ConfigSpace::new((0, 8), (2, 2), (0, 2)).expect("valid");
    for app in App::ALL {
        let trace = app.generate(15_000, 1234);
        exact_match_over_space(&trace, &space);
    }
}

#[test]
fn sweep_totals_are_internally_consistent() {
    let trace = App::Mpeg2Decode.generate(20_000, 5);
    let space = ConfigSpace::new((0, 10), (0, 4), (2, 2)).expect("valid");
    let sweep = SweepRequest::new(&space)
        .options(DewOptions::default())
        .threads(0)
        .instrumented(true)
        .run(trace.records())
        .expect("sweep");
    // Misses never exceed accesses; larger associativity at fixed sets and
    // block is not guaranteed monotone for FIFO (Belady), but miss counts
    // must be positive for a non-trivial trace and bounded by accesses.
    for c in sweep.iter() {
        assert!(c.misses <= sweep.accesses());
        assert!(
            c.misses > 0,
            "a 20k-request trace cannot fit entirely cold in {c:?}"
        );
    }
    for (_, counters) in sweep.passes() {
        assert!(counters.is_consistent());
        assert_eq!(counters.accesses, 20_000);
    }
}
