//! Property ablation: what each of DEW's three properties contributes.
//!
//! Runs the same pass over the same trace with every sound on/off
//! combination of Property 2 (MRA early stop), Property 3 (wave pointers)
//! and Property 4 (MRE entries), confirming that results never change while
//! the work shrinks — the library-level version of the paper's Table 4.
//!
//! Run with: `cargo run --release --example property_ablation`

use dew_core::{DewOptions, MultiAssocTree, PassConfig, TreePolicy};
use dew_workloads::mediabench::App;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace = App::JpegDecode.generate(300_000, 5);
    let pass = PassConfig::new(2, 0, 14, 4)?;
    println!(
        "ablating DEW properties on {} ({} requests, {})\n",
        App::JpegDecode,
        trace.len(),
        pass
    );

    println!(
        "{:>8} {:>6} {:>5} | {:>13} {:>11} {:>13} {:>9}",
        "mra_stop", "wave", "mre", "evaluations", "searches", "comparisons", "of worst"
    );
    let mut reference = None;
    for opts in DewOptions::ablation_grid(TreePolicy::Fifo) {
        let mut tree = MultiAssocTree::for_pass(pass, opts, true)?;
        tree.run(trace.iter().copied());
        let c = tree.pass_counters(4).expect("the pass associativity");
        assert!(c.is_consistent(), "counter identity");

        // The properties must not change any simulated result.
        let results = tree.pass_results(4);
        match &reference {
            None => reference = Some(results),
            Some(expected) => assert_eq!(&results, expected, "results changed under {opts}"),
        }

        let worst = c.unoptimized_evaluations(pass.num_levels());
        let onoff = |b: bool| if b { "on" } else { "off" };
        println!(
            "{:>8} {:>6} {:>5} | {:>13} {:>11} {:>13} {:>8.1}%",
            onoff(opts.mra_stop),
            onoff(opts.wave),
            onoff(opts.mre),
            c.node_evaluations,
            c.searches,
            c.tag_comparisons,
            c.node_evaluations as f64 / worst as f64 * 100.0
        );
    }
    println!("\nall 8 combinations produced identical miss counts (asserted).");
    Ok(())
}
