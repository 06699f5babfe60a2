//! Extension benchmark: one fused multi-associativity pass versus the
//! paper's one-pass-per-associativity methodology.
//!
//! A [`MultiAssocTree`] carries independent FIFO tag lists for every
//! associativity in each node, sharing the walk, the MRA early stop and the
//! direct-mapped results; Table 1's 28 passes become 7 trace traversals.
//! This bench measures what that sharing is worth — the fast fused kernel
//! for wall time, the instrumented one for the comparison counts — with
//! results cross-checked between every strategy, and each fused list's
//! counters asserted equal to its per-associativity pass's.

use std::time::Instant;

use dew_bench::report::{thousands, TextTable};
use dew_bench::suite::SuiteScale;
use dew_core::{DewOptions, MultiAssocTree, PassConfig};
use dew_workloads::mediabench::App;

const SET_BITS: (u32, u32) = (0, 14);
const MAX_ASSOC: u32 = 16;

fn main() {
    let scale = SuiteScale::from_env();
    let app = App::JpegEncode;
    let requests = scale.requests_for(app);
    eprintln!("generating {app} trace ({requests} requests) ...");
    let trace = app.generate(requests, scale.seed);

    println!(
        "Fused multi-associativity extension on {app} ({requests} requests, sets 2^{}..2^{}, \
         assoc 1..{MAX_ASSOC}, block 4 B)\n",
        SET_BITS.0, SET_BITS.1
    );
    let mut t = TextTable::new(&["strategy", "traversals", "time(s)", "comparisons"]);

    // The paper's methodology: one instrumented single-associativity pass
    // per associativity above 1.
    let start = Instant::now();
    let mut per_assoc_comparisons = 0u64;
    let mut separate = Vec::new();
    let mut separate_counters = Vec::new();
    for assoc in [2u32, 4, 8, 16] {
        let pass = PassConfig::new(2, SET_BITS.0, SET_BITS.1, assoc).expect("valid");
        let mut tree = MultiAssocTree::for_pass(pass, DewOptions::default(), true).expect("sound");
        for r in trace.records() {
            tree.step(r.addr);
        }
        let counters = tree.pass_counters(assoc).expect("the pass associativity");
        per_assoc_comparisons += counters.tag_comparisons;
        separate_counters.push(counters);
        separate.push(tree.pass_results(assoc).expect("the pass associativity"));
    }
    let separate_secs = start.elapsed().as_secs_f64();
    t.row_owned(vec![
        "per-assoc passes (paper)".into(),
        "4".into(),
        format!("{separate_secs:.3}"),
        thousands(per_assoc_comparisons),
    ]);

    // The extension, instrumented: one traversal, full ladder, counted.
    let start = Instant::now();
    let mut multi = MultiAssocTree::new(
        2,
        SET_BITS,
        (0, MAX_ASSOC.trailing_zeros()),
        DewOptions::default(),
        true,
    )
    .expect("valid");
    for r in trace.records() {
        multi.step(r.addr);
    }
    let multi_secs = start.elapsed().as_secs_f64();
    t.row_owned(vec![
        "fused pass (instrumented)".into(),
        "1".into(),
        format!("{multi_secs:.3}"),
        thousands(multi.counters().tag_comparisons),
    ]);

    // The extension as the sweep runs it: the fast fused kernel.
    let start = Instant::now();
    let mut fast = MultiAssocTree::new(
        2,
        SET_BITS,
        (0, MAX_ASSOC.trailing_zeros()),
        DewOptions::default(),
        false,
    )
    .expect("valid");
    for r in trace.records() {
        fast.step(r.addr);
    }
    let fast_secs = start.elapsed().as_secs_f64();
    t.row_owned(vec![
        "fused pass (fast kernel)".into(),
        "1".into(),
        format!("{fast_secs:.3}"),
        "-".into(),
    ]);
    print!("{}", t.render());

    // Cross-check every configuration between the strategies.
    let mr = multi.results();
    assert_eq!(mr, fast.results(), "fused kernels diverged");
    for (i, assoc) in [2u32, 4, 8, 16].iter().enumerate() {
        for set_bits in SET_BITS.0..=SET_BITS.1 {
            let sets = 1u32 << set_bits;
            assert_eq!(
                mr.misses(sets, *assoc),
                separate[i].misses(sets, *assoc),
                "sets={sets} assoc={assoc}"
            );
            assert_eq!(
                mr.misses(sets, 1),
                separate[i].misses(sets, 1),
                "DM sets={sets}"
            );
        }
        assert_eq!(
            multi.pass_counters(*assoc),
            Some(separate_counters[i]),
            "fused list counters diverged from the pass at assoc={assoc}"
        );
    }
    println!("\nall 75 configurations agree between the strategies (asserted).");
    println!("each fused list's counters equal its per-assoc pass's (asserted).");
    println!(
        "comparison cut of the fused instrumented pass: {:.2}x; \
         wall-time speedup of the fast fused pass: {:.2}x",
        per_assoc_comparisons as f64 / multi.counters().tag_comparisons as f64,
        separate_secs / fast_secs
    );
}
