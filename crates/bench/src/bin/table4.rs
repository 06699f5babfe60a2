//! Reproduces **Table 4**: effectiveness of each property used in DEW
//! (block size 4 bytes).
//!
//! Per application: the worst-case ("unoptimized") node-evaluation count,
//! the evaluations DEW actually performed, the MRA-stop count (Property 2,
//! associativity-independent), and — for associativity pairs 1&4 and 1&8 —
//! the number of tag-list searches plus the wave-pointer (Property 3) and
//! MRE (Property 4) determinations that avoided searches.

use dew_bench::report::TextTable;
use dew_bench::suite::{workload_suite, SuiteScale};
use dew_bench::table3::SET_BITS;
use dew_core::{DewCounters, DewOptions, MultiAssocTree, PassConfig};
use dew_trace::{BlockChunks, Trace};

/// One instrumented DEW pass at `assoc` (block 4 B), driven like the sweep.
fn run_pass(trace: &Trace, assoc: u32) -> DewCounters {
    let pass =
        PassConfig::new(2, SET_BITS.0, SET_BITS.1, assoc).expect("table 4 pass geometry is valid");
    let mut tree = MultiAssocTree::for_pass(pass, DewOptions::default(), true)
        .expect("default options are sound");
    let mut chunks = BlockChunks::new(trace.records(), 2, BlockChunks::DEFAULT_CHUNK);
    while let Some(chunk) = chunks.next_chunk() {
        tree.run_blocks(chunk);
    }
    let counters = tree.pass_counters(assoc).expect("the pass associativity");
    assert!(counters.is_consistent(), "counter identity violated");
    counters
}

fn main() {
    let scale = SuiteScale::from_env();
    eprintln!("generating workload suite ({scale:?}) ...");
    let suite = workload_suite(scale);
    let levels = SET_BITS.1 - SET_BITS.0 + 1;

    println!("Table 4: effectiveness of DEW's properties (block size 4 B, counts in millions)\n");
    let mut t = TextTable::new(&[
        "application",
        "unopt evals",
        "DEW evals",
        "MRA count",
        "searches A4",
        "wave A4",
        "MRE A4",
        "searches A8",
        "wave A8",
        "MRE A8",
    ]);
    let m = |v: u64| format!("{:.2}", v as f64 / 1e6);
    for (app, trace) in &suite {
        let c4 = run_pass(trace, 4);
        let c8 = run_pass(trace, 8);
        // The walk structure is associativity-independent (the stop rule only
        // consults MRA tags): both passes must agree on these columns.
        assert_eq!(
            c4.node_evaluations, c8.node_evaluations,
            "{app}: evals differ across assoc"
        );
        assert_eq!(
            c4.mra_stops, c8.mra_stops,
            "{app}: MRA stops differ across assoc"
        );
        t.row_owned(vec![
            app.name().to_owned(),
            m(c4.unoptimized_evaluations(levels)),
            m(c4.node_evaluations),
            m(c4.mra_stops),
            m(c4.searches),
            m(c4.wave_total()),
            m(c4.mre_misses),
            m(c8.searches),
            m(c8.wave_total()),
            m(c8.mre_misses),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nnotes: 'unopt evals' = requests x {levels} levels (every request visits every level \
         when Property 2 is off);"
    );
    println!(
        "the paper's unoptimized column equals requests x 30 for its traces — see \
         EXPERIMENTS.md for the factor-of-two discussion."
    );
}
