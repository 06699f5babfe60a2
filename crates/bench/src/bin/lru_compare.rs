//! Extra comparison backing the paper's Section 2.1 limitation claim: DEW
//! *can* simulate LRU, but an LRU-specialised single-pass simulator (the
//! Janapsatya/CRCB-style stack-and-inclusion tree) is faster. What this
//! measures is pass count: without a stack property DEW runs one pass per
//! associativity (here A = 2 and A = 4, direct-mapped riding along), while
//! the LRU tree answers A = 1/2/4 in one pass.
//!
//! Times four exact simulators over the same trace — DEW-FIFO at A = 4,
//! DEW-LRU as one pass per associativity, the LRU tree, and the
//! per-configuration reference (LRU) — and cross-checks every LRU miss
//! count.

use std::time::Instant;

use dew_bench::report::{thousands, TextTable};
use dew_bench::suite::SuiteScale;
use dew_cachesim::{Cache, CacheConfig, Replacement};
use dew_core::lru_tree::LruTreeSimulator;
use dew_core::{DewCounters, DewOptions, MultiAssocTree, PassConfig, PassResults, TreePolicy};
use dew_workloads::mediabench::App;

const SET_BITS: (u32, u32) = (0, 10);
const ASSOC: u32 = 4;
/// The associativities DEW-LRU needs a pass for (1 rides along).
const DEW_LRU_PASSES: [u32; 2] = [2, 4];

fn main() {
    let scale = SuiteScale::from_env();
    let app = App::G721Encode;
    let requests = scale.requests_for(app);
    eprintln!("generating {app} trace ({requests} requests) ...");
    let trace = app.generate(requests, scale.seed);
    let pass = |assoc| PassConfig::new(2, SET_BITS.0, SET_BITS.1, assoc).expect("valid pass");
    // The LRU simulators skip consecutive duplicate requests (CRCB-style).
    let lru_opts = DewOptions {
        dup_elision: true,
        ..DewOptions::for_policy(TreePolicy::Lru)
    };

    let mut t = TextTable::new(&[
        "simulator",
        "policy",
        "passes",
        "time(s)",
        "evaluations",
        "comparisons",
    ]);
    let mut row = |name: &str, policy: &str, passes: usize, secs: f64, evals: Option<u64>, cmps| {
        t.row_owned(vec![
            name.into(),
            policy.into(),
            passes.to_string(),
            format!("{secs:.3}"),
            evals.map_or("-".into(), thousands),
            thousands(cmps),
        ]);
    };
    let work = |c: DewCounters| (Some(c.node_evaluations), c.tag_comparisons);

    // DEW with FIFO: full properties, one pass at A = 4.
    let start = Instant::now();
    let mut dew_fifo =
        MultiAssocTree::for_pass(pass(ASSOC), DewOptions::default(), true).expect("sound");
    dew_fifo.run(trace.iter().copied());
    let fifo_secs = start.elapsed().as_secs_f64();
    let (evals, cmps) = work(
        dew_fifo
            .pass_counters(ASSOC)
            .expect("the pass associativity"),
    );
    row("DEW", "FIFO", 1, fifo_secs, evals, cmps);

    // DEW with LRU: one single-associativity pass per associativity.
    // Instrumented so the evaluation/comparison columns are comparable.
    let start = Instant::now();
    let mut dew_lru: Vec<PassResults> = Vec::new();
    let mut dew_lru_work = DewCounters::new();
    for assoc in DEW_LRU_PASSES {
        let mut sim = LruTreeSimulator::for_pass(pass(assoc), lru_opts, true).expect("valid");
        sim.run(trace.iter().copied());
        dew_lru.push(sim.pass_results(assoc).expect("the pass associativity"));
        dew_lru_work += sim.pass_counters(assoc).expect("the pass associativity");
    }
    let dew_lru_secs = start.elapsed().as_secs_f64();
    let passes = DEW_LRU_PASSES.len();
    let (evals, cmps) = work(dew_lru_work);
    row("DEW", "LRU", passes, dew_lru_secs, evals, cmps);

    // The LRU-specialised tree (stack property + inclusion early stop):
    // every associativity up to A = 4 from one pass.
    let start = Instant::now();
    let mut lru_tree =
        LruTreeSimulator::new(2, SET_BITS, (0, ASSOC.trailing_zeros()), lru_opts, true)
            .expect("valid");
    lru_tree.run(trace.iter().copied());
    let tree_secs = start.elapsed().as_secs_f64();
    let (evals, cmps) = work(*lru_tree.counters());
    row(
        "LRU tree (Janapsatya/CRCB-style)",
        "LRU",
        1,
        tree_secs,
        evals,
        cmps,
    );

    // Reference: one pass per configuration.
    let start = Instant::now();
    let mut ref_comparisons = 0u64;
    let mut ref_misses = Vec::new();
    for assoc in [1, 2, ASSOC] {
        for set_bits in SET_BITS.0..=SET_BITS.1 {
            let config =
                CacheConfig::new(1 << set_bits, assoc, 4, Replacement::Lru).expect("valid");
            let mut cache = Cache::new(config);
            for r in trace.records() {
                cache.access(*r);
            }
            ref_comparisons += cache.stats().tag_comparisons();
            ref_misses.push((1u32 << set_bits, assoc, cache.stats().misses()));
        }
    }
    let ref_secs = start.elapsed().as_secs_f64();
    let configs = ref_misses.len();
    row(
        "reference (per config)",
        "LRU",
        configs,
        ref_secs,
        None,
        ref_comparisons,
    );

    // Cross-check every LRU result.
    let tree_results = lru_tree.results();
    for &(sets, assoc, expected) in &ref_misses {
        for dew in &dew_lru {
            if assoc == 1 || assoc == dew.pass().assoc() {
                let got = dew.misses(sets, assoc);
                assert_eq!(got, Some(expected), "DEW-LRU sets={sets} assoc={assoc}");
            }
        }
        let got = tree_results.misses(sets, assoc);
        assert_eq!(got, Some(expected), "LRU tree sets={sets} assoc={assoc}");
    }

    println!(
        "LRU comparison on {app} ({} requests, sets 2^{}..2^{}, assoc 1/2/{ASSOC}, block 4 B)\n",
        requests, SET_BITS.0, SET_BITS.1
    );
    print!("{}", t.render());
    println!("\nall three LRU simulators agree exactly with the reference (asserted).");
    println!(
        "DEW-LRU ({passes} passes) / LRU-tree (1 pass) time ratio: {:.2}x (the paper: DEW \
         supports LRU but is slower than LRU-specialised methods)",
        dew_lru_secs / tree_secs
    );
}
