//! Quickstart: simulate 15 cache configurations in one pass.
//!
//! Generates a small JPEG-encode-like trace, runs a single DEW pass covering
//! set counts 1..=16384 at associativity 4 (direct-mapped results ride
//! along), and prints the per-configuration miss rates plus the work the
//! properties saved.
//!
//! Run with: `cargo run --example quickstart`

use dew_core::{DewOptions, MultiAssocTree, PassConfig};
use dew_workloads::mediabench::App;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A workload: 200k requests shaped like Mediabench's cjpeg.
    let trace = App::JpegEncode.generate(200_000, 42);
    println!("workload: {} ({} requests)", App::JpegEncode, trace.len());

    // 2. One DEW pass: block size 16 B, set counts 2^0..2^14, assoc 1 & 4.
    let pass = PassConfig::new(4, 0, 14, 4)?;
    //    Instrumented, so the work counters printed below are maintained.
    let mut tree = MultiAssocTree::for_pass(pass, DewOptions::default(), true)?;
    tree.run(trace.iter().copied());

    // 3. Exact miss rates for all 30 configurations, from that single pass.
    let results = tree.pass_results(4).expect("the pass associativity");
    println!(
        "\n{:>8} {:>12} {:>12}",
        "sets", "miss% (A=1)", "miss% (A=4)"
    );
    for level in results.levels() {
        let sets = level.sets();
        let dm = results.miss_rate(sets, 1).expect("simulated");
        let a4 = results.miss_rate(sets, 4).expect("simulated");
        println!("{:>8} {:>11.3}% {:>11.3}%", sets, dm * 100.0, a4 * 100.0);
    }

    // 4. What the properties saved.
    let c = tree.pass_counters(4).expect("the pass associativity");
    println!("\nwork: {c}");
    println!(
        "MRA early stops cut node evaluations to {:.1}% of the worst case.",
        c.node_evaluations as f64 / c.unoptimized_evaluations(pass.num_levels()) as f64 * 100.0
    );
    println!(
        "forest storage: {} KiB here vs {} KiB in the paper's 32-bit model",
        tree.footprint_bytes() / 1024,
        pass.paper_model_bits() / 8 / 1024
    );
    Ok(())
}
