//! Hot-loop throughput tracker: measures steps/sec of the DEW kernel
//! variants and writes `BENCH_hot_loop.json` so the perf trajectory is
//! comparable across PRs. It is the workspace's one kernel benchmark.
//!
//! Variants:
//!
//! * `step_instrumented` — per-record stepping with the counting kernel of
//!   the paper's single pass (a one-width FIFO arena at associativity 4);
//! * `step` — per-record stepping with the fast kernel of the same pass;
//! * `run_blocks` — the fast kernel fed pre-decoded block batches (the sweep
//!   path), decode time included in the measurement;
//! * `run_blocks_instrumented` — batched with counters, isolating the cost
//!   of instrumentation alone;
//! * the sweep-shape rows, one set per policy of [`TreePolicy::ALL`], every
//!   associativity 1..=8 at the pass's block size:
//!   * `per_assoc_run_blocks` / `per_assoc_{lru,plru,slru}_run_blocks` —
//!     the pre-fusion schedule: one single-associativity pass per
//!     associativity 2/4/8 back to back (3 trace traversals, one shared
//!     decode). FIFO's runs on `dew_bench::per_assoc`, the kernel the
//!     `speedup_fused_vs_per_assoc` gate was set against; the others on
//!     one-width arena kernels;
//!   * `fused_multi_assoc` / `fused_{lru,plru,slru}` — the fused arena
//!     kernel: every associativity in **one** traversal (decode included);
//!   * `fused_multi_assoc_instrumented` / `fused_lru_instrumented` — the
//!     fused FIFO and LRU walks with the full counter ladder;
//!
//!   every row is cross-checked against its policy's instrumented fused
//!   reference;
//! * `explore_pruned` / `explore_exhaustive` — the design-space exploration
//!   engine end-to-end (fused FIFO+LRU sweeps, energy scoring, Pareto
//!   frontier) over an 11×3×4×2 space; `ns_per_step`/`steps_per_sec` count
//!   *simulated accesses* (requests × trace traversals), so the rate is
//!   comparable to the kernel variants above;
//! * `fused_multi_assoc_wide` — `fused_multi_assoc` over the same blocks
//!   moved up by 2^32: the kernel holds 64-bit tags from its first block
//!   (the promoted path; set indices and miss counts unchanged). Measured
//!   after the rows above, so they run as they did before it was added;
//! * `fused_multi_assoc_a4_8` / `fused_{lru,plru}_a4_8` — the fused FIFO,
//!   LRU and tree-PLRU kernels over associativities 4..=8 only, a subset of
//!   the lanes of their 1..=8 rows; a narrower range must not run slower.
//!   Measured last.
//!
//! The JSON also records `trace_traversals` per sweep shape so the fusion
//! win stays visible in the perf trajectory, and the instrumented fused
//! walks' node evaluations per request for every policy
//! (`node_evals_per_req_<policy>`, next to the `node_evals_full_walk` level
//! count). Those are work counts, not times, so `bench_guard` can gate them
//! exactly: tree-PLRU must stop as early as LRU, SLRU below a full walk.
//! `plru_over_fused_fifo` is `fused_plru`'s ns/req over
//! `fused_multi_assoc`'s, a same-run ratio `bench_guard` caps on avx2 runs.
//!
//! Scale via `DEW_BENCH_QUICK=1` / `DEW_BENCH_MAX_REQUESTS=n`; the output
//! path defaults to `BENCH_hot_loop.json` and can be overridden with
//! `DEW_BENCH_JSON=path`.

use std::fmt::Write as _;
use std::time::Instant;

use dew_bench::per_assoc::PerAssocPass;
use dew_bench::report::thousands;
use dew_bench::suite::SuiteScale;
use dew_core::{
    ConfigSpace, DewOptions, FusedKernel, LevelResult, MultiAssocTree, PassConfig, PolicyKernel,
    TreePolicy,
};
use dew_explore::{explore_trace, EnergyModel, ExplorationSpace, ParetoMode};
use dew_trace::{decode_blocks, BlockChunks, Record};
use dew_workloads::mediabench::App;

/// The bench pass: the paper's full 15-level forest, 4-way, 4-byte blocks.
const BLOCK_BITS: u32 = 2;
const SET_BITS: (u32, u32) = (0, 14);
const ASSOC: u32 = 4;
/// The fused sweep shape: associativities 1..=8 at the same block size.
const FUSED_MAX_ASSOC: u32 = 8;
const FUSED_ASSOC_BITS: (u32, u32) = (0, FUSED_MAX_ASSOC.trailing_zeros());
/// Associativities needing their own pass pre-fusion (1 rides along).
const PER_ASSOC_PASSES: [u32; 3] = [2, 4, 8];
/// The narrow-range rows: associativities 4..=8 at the same block size.
const NARROW_ASSOC_BITS: (u32, u32) = (2, FUSED_ASSOC_BITS.1);
/// The narrow-range rows and the policy each runs, in the order of
/// [`TreePolicy::ALL`].
const NARROW_ROWS: [(&str, TreePolicy); 3] = [
    ("fused_multi_assoc_a4_8", TreePolicy::Fifo),
    ("fused_lru_a4_8", TreePolicy::Lru),
    ("fused_plru_a4_8", TreePolicy::Plru),
];

/// The variant names of one policy's sweep-shape rows.
struct ShapeRows {
    per_assoc: &'static str,
    fused: &'static str,
    /// Only the FIFO and LRU fused walks are also timed instrumented.
    fused_instrumented: Option<&'static str>,
}

/// The sweep-shape rows of each policy, in [`TreePolicy::ALL`] order.
const SHAPE_ROWS: [ShapeRows; 4] = [
    ShapeRows {
        per_assoc: "per_assoc_run_blocks",
        fused: "fused_multi_assoc",
        fused_instrumented: Some("fused_multi_assoc_instrumented"),
    },
    ShapeRows {
        per_assoc: "per_assoc_lru_run_blocks",
        fused: "fused_lru",
        fused_instrumented: Some("fused_lru_instrumented"),
    },
    ShapeRows {
        per_assoc: "per_assoc_plru_run_blocks",
        fused: "fused_plru",
        fused_instrumented: None,
    },
    ShapeRows {
        per_assoc: "per_assoc_slru_run_blocks",
        fused: "fused_slru",
        fused_instrumented: None,
    },
];

struct Variant {
    name: &'static str,
    ns_per_step: f64,
    steps_per_sec: f64,
}

/// Best-of-N wall time for `run`, in seconds.
fn best_of<F: FnMut()>(samples: u32, mut run: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Prints and records variant `name`, which took `secs` for `steps`
/// simulated accesses.
fn record(variants: &mut Vec<Variant>, name: &'static str, secs: f64, steps: f64) {
    let v = Variant {
        name,
        ns_per_step: secs * 1e9 / steps,
        steps_per_sec: steps / secs,
    };
    println!(
        "{:<30} {:>8.2} ns/step  {:>10} steps/s",
        v.name,
        v.ns_per_step,
        thousands(v.steps_per_sec as u64)
    );
    variants.push(v);
}

/// The fused kernel of `options.policy` over the sweep shape.
fn fused_kernel(options: DewOptions, instrument: bool) -> FusedKernel {
    FusedKernel::build(BLOCK_BITS, SET_BITS, FUSED_ASSOC_BITS, options, instrument).expect("valid")
}

/// Feeds `records` to `kernel` in the sweep's block chunks, every block
/// moved up by `offset`.
fn feed(kernel: &mut FusedKernel, records: &[Record], offset: u64) {
    let mut chunks = BlockChunks::new(records, BLOCK_BITS, BlockChunks::DEFAULT_CHUNK);
    let mut moved = Vec::new();
    while let Some(chunk) = chunks.next_chunk() {
        if offset == 0 {
            kernel.run_blocks(chunk);
        } else {
            moved.clear();
            moved.extend(chunk.iter().map(|&b| b + offset));
            kernel.run_blocks(&moved);
        }
    }
}

/// Misses per level at `assoc`, smallest set count first.
fn level_misses(kernel: &FusedKernel, assoc: u32) -> Vec<u64> {
    let results = kernel.pass_results(assoc).expect("covered associativity");
    results.levels().iter().map(LevelResult::misses).collect()
}

/// Asserts that a fused kernel over the associativities `2^bits.0 ..=
/// 2^bits.1` reproduces the reference's results at each of them.
fn assert_fused_eq(kernel: &FusedKernel, reference: &FusedKernel, bits: (u32, u32), name: &str) {
    for assoc in (bits.0..=bits.1).map(|bits| 1 << bits) {
        assert_eq!(
            kernel.pass_results(assoc),
            reference.pass_results(assoc),
            "{name}: miss counts diverged"
        );
    }
}

fn main() {
    let scale = SuiteScale::from_env();
    let app = App::JpegEncode;
    let requests = scale.requests_for(app).min(1_000_000);
    let samples = if std::env::var_os("DEW_BENCH_QUICK").is_some() {
        3
    } else {
        5
    };
    eprintln!("generating {app} trace ({requests} requests) ...");
    let trace = app.generate(requests, scale.seed);
    let records = trace.records();
    let pass = PassConfig::new(BLOCK_BITS, SET_BITS.0, SET_BITS.1, ASSOC).expect("valid pass");
    let n = records.len() as f64;

    // Exactness guard: all variants must produce identical miss counts.
    let single_pass = |instrument| {
        MultiAssocTree::for_pass(pass, DewOptions::default(), instrument).expect("sound")
    };
    let reference = {
        let mut t = single_pass(true);
        t.run(records.iter().copied());
        t.pass_results(ASSOC)
    };

    let mut variants = Vec::new();
    for (name, instrument, batched) in [
        ("step_instrumented", true, false),
        ("step", false, false),
        ("run_blocks", false, true),
        ("run_blocks_instrumented", true, true),
    ] {
        let secs = best_of(samples, || {
            let mut tree = single_pass(instrument);
            if batched {
                let blocks = decode_blocks(records, BLOCK_BITS);
                tree.run_blocks(&blocks);
            } else {
                for r in records {
                    tree.step(r.addr);
                }
            }
            let results = tree.pass_results(ASSOC);
            assert_eq!(results, reference, "{name}: miss counts diverged");
        });
        record(&mut variants, name, secs, n);
    }

    // The sweep-shape rows of every policy: every associativity 1..=8 at
    // this block size, as the pre-fusion schedule ran it (one pass per
    // associativity, back to back, sharing one decode) versus one fused
    // traversal. Options are the sweep presets (`DewOptions::for_policy`:
    // no duplicate elision — for SLRU it is unsound, a repeated access
    // promotes a probationary block). Every row is cross-checked against
    // the policy's instrumented fused reference, which also yields its
    // node evaluations.
    let mut references = Vec::new();
    let mut evals_per_req = Vec::new();
    for (policy, rows) in TreePolicy::ALL.into_iter().zip(&SHAPE_ROWS) {
        let options = DewOptions::for_policy(policy);
        let reference = {
            let mut k = fused_kernel(options, true);
            k.run_blocks(&decode_blocks(records, BLOCK_BITS));
            k
        };
        let evals = reference
            .pass_counters(1)
            .expect("covered")
            .node_evaluations;
        evals_per_req.push((policy.name(), evals as f64 / n));

        let secs = best_of(samples, || {
            let blocks = decode_blocks(records, BLOCK_BITS);
            for assoc in PER_ASSOC_PASSES {
                let misses = if policy == TreePolicy::Fifo {
                    let pass = PassConfig::new(BLOCK_BITS, SET_BITS.0, SET_BITS.1, assoc)
                        .expect("valid pass");
                    let mut tree = PerAssocPass::new(pass);
                    tree.run_blocks(&blocks);
                    tree.misses().to_vec()
                } else {
                    let bits = assoc.trailing_zeros();
                    let mut k =
                        FusedKernel::build(BLOCK_BITS, SET_BITS, (bits, bits), options, false)
                            .expect("valid");
                    k.run_blocks(&blocks);
                    level_misses(&k, assoc)
                };
                assert_eq!(
                    misses,
                    level_misses(&reference, assoc),
                    "{}: miss counts diverged",
                    rows.per_assoc
                );
            }
        });
        record(&mut variants, rows.per_assoc, secs, n);

        let fused = [(rows.fused, false)].into_iter();
        for (name, instrument) in fused.chain(rows.fused_instrumented.map(|name| (name, true))) {
            let secs = best_of(samples, || {
                let mut k = fused_kernel(options, instrument);
                feed(&mut k, records, 0);
                assert_fused_eq(&k, &reference, FUSED_ASSOC_BITS, name);
            });
            record(&mut variants, name, secs, n);
        }
        references.push(reference);
    }

    // The explore shape: design-space exploration end-to-end — fused
    // FIFO+LRU sweeps (one traversal per block size per policy), analytic
    // scoring, and Pareto-frontier extraction — over an 11 set counts ×
    // 3 block sizes × 4 associativities × 2 policies space. Steps are
    // *simulated accesses* (requests × trace traversals) so the rate is
    // comparable to the kernel variants; both modes are cross-checked to
    // produce the identical frontier.
    let explore_space =
        ExplorationSpace::new(ConfigSpace::new((0, 10), (2, 4), (0, 3)).expect("valid space"))
            .with_policies(&[TreePolicy::Fifo, TreePolicy::Lru]);
    let explore_model = EnergyModel::default();
    let frontier_reference = explore_trace(
        &explore_space,
        records,
        &explore_model,
        ParetoMode::Exhaustive,
        1,
    )
    .expect("explore")
    .frontier();
    let explore_traversals: u64 = 3 * 2; // block sizes x policies
    for (name, mode) in [
        ("explore_pruned", ParetoMode::Pruned),
        ("explore_exhaustive", ParetoMode::Exhaustive),
    ] {
        let secs = best_of(samples, || {
            let report =
                explore_trace(&explore_space, records, &explore_model, mode, 1).expect("explore");
            assert_eq!(report.trace_traversals(), explore_traversals);
            assert_eq!(
                report.frontier().len(),
                frontier_reference.len(),
                "{name}: frontier diverged"
            );
        });
        record(&mut variants, name, secs, n * explore_traversals as f64);
    }

    // The promoted path: every block moved up by 2^32, so the fused FIFO
    // kernel runs with 64-bit tags throughout. The same sets see the same
    // tag comparisons, so the results equal the narrow run's.
    let secs = best_of(samples, || {
        let mut k = fused_kernel(DewOptions::for_policy(TreePolicy::Fifo), false);
        feed(&mut k, records, 1 << 32);
        let name = "fused_multi_assoc_wide";
        assert_fused_eq(&k, &references[0], FUSED_ASSOC_BITS, name);
    });
    record(&mut variants, "fused_multi_assoc_wide", secs, n);

    // The narrow range: associativities 4..=8, the lanes of the 1..=8 rows
    // without the 2-way one, checked against the same references.
    for ((name, policy), reference) in NARROW_ROWS.into_iter().zip(&references) {
        let options = DewOptions::for_policy(policy);
        let secs = best_of(samples, || {
            let mut k = FusedKernel::build(BLOCK_BITS, SET_BITS, NARROW_ASSOC_BITS, options, false)
                .expect("valid");
            feed(&mut k, records, 0);
            assert_fused_eq(&k, reference, NARROW_ASSOC_BITS, name);
        });
        record(&mut variants, name, secs, n);
    }

    let rate = |name: &str| {
        variants
            .iter()
            .find(|v| v.name == name)
            .expect("measured above")
            .steps_per_sec
    };
    let speedup = rate("run_blocks") / rate("step_instrumented");
    println!("\nspeedup run_blocks vs step_instrumented: {speedup:.2}x");
    // Per policy: its JSON key infix (FIFO, the paper's policy, has none),
    // and its fused-over-per-assoc speedup.
    let fused_speedups: Vec<(String, f64)> = (TreePolicy::ALL.iter().zip(&SHAPE_ROWS))
        .map(|(&policy, rows)| {
            let x = rate(rows.fused) / rate(rows.per_assoc);
            println!("speedup {} vs {}: {x:.2}x", rows.fused, rows.per_assoc);
            let infix = match policy {
                TreePolicy::Fifo => String::new(),
                _ => format!("{}_", policy.name()),
            };
            (infix, x)
        })
        .collect();
    // The honest cost of the full counter ladder on the fused FIFO walk
    // (>1; tracked so instrumentation-overhead regressions are visible).
    let instr_overhead = rate("fused_multi_assoc") / rate("fused_multi_assoc_instrumented");
    println!("instrumented overhead on fused_multi_assoc: {instr_overhead:.2}x");
    // The fused tree-PLRU walk's cost per request relative to fused FIFO's
    // over the same forest (ns/req over ns/req).
    let plru_over_fifo = rate("fused_multi_assoc") / rate("fused_plru");
    println!("fused_plru over fused_multi_assoc: {plru_over_fifo:.2}x");
    let explore_ratio = rate("explore_pruned") / rate("explore_exhaustive");
    println!("explore throughput pruned vs exhaustive: {explore_ratio:.2}x");
    let backend = dew_core::KernelBackend::active();
    println!("tag-scan backend: {}", backend.name());
    // Work counts of the instrumented fused walks: a property of the
    // kernels and the trace, not of the machine, so exact and noise-free.
    let full_walk = SET_BITS.1 - SET_BITS.0 + 1;
    for (p, v) in &evals_per_req {
        println!("node evaluations per request, fused {p}: {v:.4} (full walk {full_walk})");
    }

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"hot_loop\",");
    let _ = writeln!(json, "  \"unix_time\": {unix_time},");
    let _ = writeln!(json, "  \"app\": \"{}\",", app.name());
    let _ = writeln!(json, "  \"requests\": {requests},");
    let _ = writeln!(json, "  \"samples\": {samples},");
    let _ = writeln!(json, "  \"kernel_backend\": \"{}\",", backend.name());
    let _ = writeln!(
        json,
        "  \"pass\": {{\"block_bits\": {BLOCK_BITS}, \"min_set_bits\": {}, \
         \"max_set_bits\": {}, \"assoc\": {ASSOC}}},",
        SET_BITS.0, SET_BITS.1
    );
    json.push_str("  \"variants\": [\n");
    for (i, v) in variants.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"ns_per_step\": {:.3}, \"steps_per_sec\": {:.0}}}{}",
            v.name,
            v.ns_per_step,
            v.steps_per_sec,
            if i + 1 < variants.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"sweep_shapes\": [\n");
    for (infix, _) in &fused_speedups {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{infix}per_assoc_passes_a1_{FUSED_MAX_ASSOC}\", \
             \"trace_traversals\": {}}},\n    \
             {{\"name\": \"{infix}fused_a1_{FUSED_MAX_ASSOC}\", \"trace_traversals\": 1}},",
            PER_ASSOC_PASSES.len()
        );
    }
    let _ = writeln!(
        json,
        "    {{\"name\": \"explore_s11_b3_a4_fifo_lru\", \
         \"trace_traversals\": {explore_traversals}}}\n  ],"
    );
    let _ = writeln!(
        json,
        "  \"speedup_run_blocks_vs_instrumented\": {speedup:.3},"
    );
    for (infix, x) in &fused_speedups {
        let _ = writeln!(json, "  \"speedup_fused_{infix}vs_per_assoc\": {x:.3},");
    }
    let _ = writeln!(
        json,
        "  \"instrumented_over_fast_fused_fifo\": {instr_overhead:.3},"
    );
    let _ = writeln!(json, "  \"plru_over_fused_fifo\": {plru_over_fifo:.3},");
    for (p, v) in &evals_per_req {
        let _ = writeln!(json, "  \"node_evals_per_req_{p}\": {v:.4},");
    }
    let _ = writeln!(json, "  \"node_evals_full_walk\": {full_walk},");
    let _ = writeln!(
        json,
        "  \"explore_pruned_vs_exhaustive\": {explore_ratio:.3}"
    );
    json.push_str("}\n");

    let path = std::env::var("DEW_BENCH_JSON").unwrap_or_else(|_| "BENCH_hot_loop.json".into());
    std::fs::write(&path, json).expect("write bench json");
    println!("wrote {path}");
}
