//! Extra ablation (beyond the paper's Table 4): the full on/off grid of
//! DEW's three properties, measuring wall time, node evaluations and tag
//! comparisons on one workload. Confirms each property's individual and
//! combined contribution — and that none of them changes the results.

use std::time::Instant;

use dew_bench::report::{thousands, TextTable};
use dew_bench::suite::SuiteScale;
use dew_bench::table3::SET_BITS;
use dew_core::{DewOptions, MultiAssocTree, PassConfig, TreePolicy};
use dew_trace::BlockChunks;
use dew_workloads::mediabench::App;

fn main() {
    let scale = SuiteScale::from_env();
    let app = App::JpegEncode;
    let requests = scale.requests_for(app);
    eprintln!("generating {app} trace ({requests} requests) ...");
    let trace = app.generate(requests, scale.seed);
    let pass = PassConfig::new(2, SET_BITS.0, SET_BITS.1, 4).expect("valid pass");

    println!("Property ablation on {app} (block 4 B, assoc 1 & 4, {requests} requests)\n");
    let mut t = TextTable::new(&[
        "mra_stop",
        "wave",
        "mre",
        "time(s)",
        "evaluations",
        "comparisons",
        "vs all-off",
    ]);
    let mut baseline_cmp = None;
    let mut reference_results = None;
    for opts in DewOptions::ablation_grid(TreePolicy::Fifo) {
        // Timed like Table 3: one instrumented pass, driven like the sweep.
        let start = Instant::now();
        let mut tree = MultiAssocTree::for_pass(pass, opts, true).expect("sound options");
        let mut chunks = BlockChunks::new(trace.records(), 2, BlockChunks::DEFAULT_CHUNK);
        while let Some(chunk) = chunks.next_chunk() {
            tree.run_blocks(chunk);
        }
        let secs = start.elapsed().as_secs_f64();
        let c = tree.pass_counters(4).expect("the pass associativity");
        assert!(c.is_consistent());
        // The properties are optimisations: all grids must agree exactly.
        let results = tree.pass_results(4).expect("the pass associativity");
        match &reference_results {
            None => reference_results = Some(results),
            Some(expected) => assert_eq!(&results, expected, "results changed under {opts}"),
        }
        let cmp = c.tag_comparisons;
        let baseline = *baseline_cmp.get_or_insert(cmp);
        let onoff = |b: bool| if b { "on" } else { "off" };
        t.row_owned(vec![
            onoff(opts.mra_stop).to_owned(),
            onoff(opts.wave).to_owned(),
            onoff(opts.mre).to_owned(),
            format!("{secs:.3}"),
            thousands(c.node_evaluations),
            thousands(cmp),
            format!("{:+.1}%", (cmp as f64 / baseline as f64 - 1.0) * 100.0),
        ]);
    }
    print!("{}", t.render());
    println!("\nall 8 grids produced identical miss counts (asserted).");
}
