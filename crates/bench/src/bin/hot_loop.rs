//! Hot-loop throughput tracker: measures steps/sec of the DEW kernel
//! variants and writes `BENCH_hot_loop.json` so the perf trajectory is
//! comparable across PRs.
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
//! * `per_assoc_run_blocks` — the pre-fusion sweep schedule: one fast
//!   single-width pass per associativity 2/4/8 back to back (3 trace
//!   traversals, one shared decode) on `dew_bench::per_assoc`, the kernel
//!   the `speedup_fused_vs_per_assoc` gate was set against;
//! * `fused_multi_assoc` — the fused kernel: every associativity 1..=8 in
//!   **one** traversal of a `MultiAssocTree` (decode included);
//! * `fused_multi_assoc_instrumented` — fused with the full counter ladder;
//! * `per_assoc_lru_run_blocks` — the pre-fusion **LRU** sweep schedule:
//!   one single-associativity `LruTreeSimulator` pass per associativity
//!   2/4/8 back to back, one shared decode;
//! * `fused_lru` — the arena `LruTreeSimulator`: every associativity 1..=8
//!   in **one** traversal via the stack property (decode included);
//! * `fused_lru_instrumented` — fused LRU with the counted MRU-first search;
//! * `per_assoc_plru_run_blocks` / `per_assoc_slru_run_blocks` — the
//!   pre-fusion tree-PLRU and SLRU schedules: one single-associativity
//!   arena pass per associativity 2/4/8 back to back, one shared decode;
//! * `fused_plru` / `fused_slru` — the arena tree-PLRU and SLRU kernels:
//!   every associativity 1..=8 in **one** traversal (decode included), each
//!   cross-checked against its own instrumented sibling;
//! * `explore_pruned` / `explore_exhaustive` — the design-space exploration
//!   engine end-to-end (fused FIFO+LRU sweeps, energy scoring, Pareto
//!   frontier) over an 11×3×4×2 space; `ns_per_step`/`steps_per_sec` count
//!   *simulated accesses* (requests × trace traversals), so the rate is
//!   comparable to the kernel variants above;
//! * `fused_multi_assoc_wide` — `fused_multi_assoc` over the same blocks
//!   moved up by 2^32: the kernel holds 64-bit tags from its first block
//!   (the promoted path; set indices and miss counts unchanged). Measured
//!   last, so the rows above run as they did before it was added.
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
use dew_core::lru_tree::LruTreeSimulator;
use dew_core::plru_tree::PlruTreeSimulator;
use dew_core::slru_tree::SlruTreeSimulator;
use dew_core::{ConfigSpace, DewOptions, MultiAssocTree, PassConfig, TreePolicy};
use dew_explore::{explore_trace, EnergyModel, ExplorationSpace, ParetoMode};
use dew_trace::{decode_blocks, BlockChunks};
use dew_workloads::mediabench::App;

/// The bench pass: the paper's full 15-level forest, 4-way, 4-byte blocks
/// (the same shape `benches/dew_step.rs` uses).
const BLOCK_BITS: u32 = 2;
const SET_BITS: (u32, u32) = (0, 14);
const ASSOC: u32 = 4;
/// The fused sweep shape: associativities 1..=8 at the same block size.
const FUSED_MAX_ASSOC: u32 = 8;
const FUSED_ASSOC_BITS: (u32, u32) = (0, FUSED_MAX_ASSOC.trailing_zeros());
/// Associativities needing their own pass pre-fusion (1 rides along).
const PER_ASSOC_PASSES: [u32; 3] = [2, 4, 8];

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
    let mut measure = |name: &'static str, instrument: bool, batched: bool| {
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
        let v = Variant {
            name,
            ns_per_step: secs * 1e9 / n,
            steps_per_sec: n / secs,
        };
        println!(
            "{:<24} {:>8.2} ns/step  {:>10} steps/s",
            v.name,
            v.ns_per_step,
            thousands(v.steps_per_sec as u64)
        );
        variants.push(v);
    };

    measure("step_instrumented", true, false);
    measure("step", false, false);
    measure("run_blocks", false, true);
    measure("run_blocks_instrumented", true, true);

    // The sweep-shape pair: every associativity 1..=8 at this block size,
    // as the pre-fusion schedule ran it (one fast pass per associativity,
    // back to back, sharing one decode) versus one fused traversal. All
    // three fused/per-assoc variants are cross-checked against the fused
    // reference below.
    let (fused_reference, fifo_evals) = {
        let mut t = MultiAssocTree::new(
            BLOCK_BITS,
            SET_BITS,
            FUSED_ASSOC_BITS,
            DewOptions::default(),
            true,
        )
        .expect("valid");
        t.run(records.iter().copied());
        (t.results(), t.counters().node_evaluations)
    };
    let mut record_variant = |name: &'static str, secs: f64| {
        let v = Variant {
            name,
            ns_per_step: secs * 1e9 / n,
            steps_per_sec: n / secs,
        };
        println!(
            "{:<28} {:>8.2} ns/step  {:>10} steps/s",
            v.name,
            v.ns_per_step,
            thousands(v.steps_per_sec as u64)
        );
        variants.push(v);
    };

    let secs = best_of(samples, || {
        let blocks = decode_blocks(records, BLOCK_BITS);
        for assoc in PER_ASSOC_PASSES {
            let pass =
                PassConfig::new(BLOCK_BITS, SET_BITS.0, SET_BITS.1, assoc).expect("valid pass");
            let mut tree = PerAssocPass::new(pass);
            tree.run_blocks(&blocks);
            for (set_bits, &misses) in (SET_BITS.0..).zip(tree.misses()) {
                assert_eq!(
                    fused_reference.misses(1 << set_bits, assoc),
                    Some(misses),
                    "per_assoc_run_blocks: miss counts diverged"
                );
            }
        }
    });
    record_variant("per_assoc_run_blocks", secs);

    for (name, instrument) in [
        ("fused_multi_assoc", false),
        ("fused_multi_assoc_instrumented", true),
    ] {
        let secs = best_of(samples, || {
            let mut tree = MultiAssocTree::new(
                BLOCK_BITS,
                SET_BITS,
                FUSED_ASSOC_BITS,
                DewOptions::default(),
                instrument,
            )
            .expect("valid");
            let mut chunks = BlockChunks::new(records, BLOCK_BITS, BlockChunks::DEFAULT_CHUNK);
            while let Some(chunk) = chunks.next_chunk() {
                tree.run_blocks(chunk);
            }
            assert_eq!(
                tree.results(),
                fused_reference,
                "{name}: miss counts diverged"
            );
        });
        record_variant(name, secs);
    }

    // The LRU sweep-shape pair, mirroring the FIFO one: the pre-fusion
    // schedule (one single-associativity LRU pass per associativity,
    // sharing one decode) versus one fused traversal of the arena
    // LruTreeSimulator, whose stack property answers every associativity
    // from a single move-to-front lane. Options match what
    // `SweepRequest::run` uses for LRU spaces (no duplicate elision by
    // default).
    let lru_opts = DewOptions::for_policy(TreePolicy::Lru);
    let (lru_reference, lru_evals) = {
        let mut sim = LruTreeSimulator::new(BLOCK_BITS, SET_BITS, FUSED_ASSOC_BITS, lru_opts, true)
            .expect("valid");
        sim.run(records.iter().copied());
        (sim.results(), sim.counters().node_evaluations)
    };
    let secs = best_of(samples, || {
        let blocks = decode_blocks(records, BLOCK_BITS);
        for assoc in PER_ASSOC_PASSES {
            let pass =
                PassConfig::new(BLOCK_BITS, SET_BITS.0, SET_BITS.1, assoc).expect("valid pass");
            let mut tree = LruTreeSimulator::for_pass(pass, lru_opts, false).expect("valid");
            tree.run_blocks(&blocks);
            let r = tree.pass_results(assoc).expect("the pass associativity");
            for level in r.levels() {
                assert_eq!(
                    lru_reference.misses(level.sets(), assoc),
                    Some(level.misses()),
                    "per_assoc_lru_run_blocks: miss counts diverged"
                );
            }
        }
    });
    record_variant("per_assoc_lru_run_blocks", secs);

    for (name, instrument) in [("fused_lru", false), ("fused_lru_instrumented", true)] {
        let secs = best_of(samples, || {
            let mut sim =
                LruTreeSimulator::new(BLOCK_BITS, SET_BITS, FUSED_ASSOC_BITS, lru_opts, instrument)
                    .expect("valid");
            let mut chunks = BlockChunks::new(records, BLOCK_BITS, BlockChunks::DEFAULT_CHUNK);
            while let Some(chunk) = chunks.next_chunk() {
                sim.run_blocks(chunk);
            }
            assert_eq!(sim.results(), lru_reference, "{name}: miss counts diverged");
        });
        record_variant(name, secs);
    }

    // The newer arena policy kernels in the same fused sweep shape: every
    // associativity 1..=8 in one traversal. Each fast kernel is cross-checked
    // against its instrumented sibling, which recomputes the same miss
    // counts through the counted path. Options match the sweep presets
    // (`DewOptions::for_policy`: no duplicate elision — for SLRU it is
    // unsound, a repeated access promotes a probationary block).
    let plru_opts = DewOptions::for_policy(TreePolicy::Plru);
    let slru_opts = DewOptions::for_policy(TreePolicy::Slru);
    let (plru_reference, plru_evals) = {
        let mut sim =
            PlruTreeSimulator::new(BLOCK_BITS, SET_BITS, FUSED_ASSOC_BITS, plru_opts, true)
                .expect("valid");
        let blocks = decode_blocks(records, BLOCK_BITS);
        sim.run_blocks(&blocks);
        (sim.results(), sim.counters().node_evaluations)
    };
    // The pre-fusion PLRU schedule: one single-associativity arena pass per
    // associativity, back to back, sharing one decode — what a sweep would
    // cost without the fused walk.
    let secs = best_of(samples, || {
        let blocks = decode_blocks(records, BLOCK_BITS);
        for assoc in PER_ASSOC_PASSES {
            let bits = assoc.trailing_zeros();
            let mut sim =
                PlruTreeSimulator::new(BLOCK_BITS, SET_BITS, (bits, bits), plru_opts, false)
                    .expect("valid");
            sim.run_blocks(&blocks);
            let r = sim.results();
            for set_bits in SET_BITS.0..=SET_BITS.1 {
                let sets = 1 << set_bits;
                assert_eq!(
                    r.misses(sets, assoc),
                    plru_reference.misses(sets, assoc),
                    "per_assoc_plru_run_blocks: miss counts diverged"
                );
            }
        }
    });
    record_variant("per_assoc_plru_run_blocks", secs);

    let secs = best_of(samples, || {
        let mut sim =
            PlruTreeSimulator::new(BLOCK_BITS, SET_BITS, FUSED_ASSOC_BITS, plru_opts, false)
                .expect("valid");
        let mut chunks = BlockChunks::new(records, BLOCK_BITS, BlockChunks::DEFAULT_CHUNK);
        while let Some(chunk) = chunks.next_chunk() {
            sim.run_blocks(chunk);
        }
        assert_eq!(
            sim.results(),
            plru_reference,
            "fused_plru: miss counts diverged"
        );
    });
    record_variant("fused_plru", secs);

    let (slru_reference, slru_evals) = {
        let mut sim =
            SlruTreeSimulator::new(BLOCK_BITS, SET_BITS, FUSED_ASSOC_BITS, slru_opts, true)
                .expect("valid");
        let blocks = decode_blocks(records, BLOCK_BITS);
        sim.run_blocks(&blocks);
        (sim.results(), sim.counters().node_evaluations)
    };
    // The pre-fusion SLRU schedule, mirroring the PLRU one.
    let secs = best_of(samples, || {
        let blocks = decode_blocks(records, BLOCK_BITS);
        for assoc in PER_ASSOC_PASSES {
            let bits = assoc.trailing_zeros();
            let mut sim =
                SlruTreeSimulator::new(BLOCK_BITS, SET_BITS, (bits, bits), slru_opts, false)
                    .expect("valid");
            sim.run_blocks(&blocks);
            let r = sim.results();
            for set_bits in SET_BITS.0..=SET_BITS.1 {
                let sets = 1 << set_bits;
                assert_eq!(
                    r.misses(sets, assoc),
                    slru_reference.misses(sets, assoc),
                    "per_assoc_slru_run_blocks: miss counts diverged"
                );
            }
        }
    });
    record_variant("per_assoc_slru_run_blocks", secs);

    let secs = best_of(samples, || {
        let mut sim =
            SlruTreeSimulator::new(BLOCK_BITS, SET_BITS, FUSED_ASSOC_BITS, slru_opts, false)
                .expect("valid");
        let mut chunks = BlockChunks::new(records, BLOCK_BITS, BlockChunks::DEFAULT_CHUNK);
        while let Some(chunk) = chunks.next_chunk() {
            sim.run_blocks(chunk);
        }
        assert_eq!(
            sim.results(),
            slru_reference,
            "fused_slru: miss counts diverged"
        );
    });
    record_variant("fused_slru", secs);

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
        let steps = n * explore_traversals as f64;
        let v = Variant {
            name,
            ns_per_step: secs * 1e9 / steps,
            steps_per_sec: steps / secs,
        };
        println!(
            "{:<28} {:>8.2} ns/step  {:>10} steps/s",
            v.name,
            v.ns_per_step,
            thousands(v.steps_per_sec as u64)
        );
        variants.push(v);
    }

    // The promoted path: every block moved up by 2^32, so the fused FIFO
    // kernel runs with 64-bit tags throughout. The same sets see the same
    // tag comparisons, so the results equal the narrow run's.
    let secs = best_of(samples, || {
        let mut tree = MultiAssocTree::new(
            BLOCK_BITS,
            SET_BITS,
            FUSED_ASSOC_BITS,
            DewOptions::default(),
            false,
        )
        .expect("valid");
        let mut chunks = BlockChunks::new(records, BLOCK_BITS, BlockChunks::DEFAULT_CHUNK);
        let mut wide = Vec::with_capacity(BlockChunks::DEFAULT_CHUNK);
        while let Some(chunk) = chunks.next_chunk() {
            wide.clear();
            wide.extend(chunk.iter().map(|&b| b + (1 << 32)));
            tree.run_blocks(&wide);
        }
        assert_eq!(
            tree.results(),
            fused_reference,
            "fused_multi_assoc_wide: miss counts diverged"
        );
    });
    let v = Variant {
        name: "fused_multi_assoc_wide",
        ns_per_step: secs * 1e9 / n,
        steps_per_sec: n / secs,
    };
    println!(
        "{:<28} {:>8.2} ns/step  {:>10} steps/s",
        v.name,
        v.ns_per_step,
        thousands(v.steps_per_sec as u64)
    );
    variants.push(v);

    let rate = |name: &str| {
        variants
            .iter()
            .find(|v| v.name == name)
            .expect("measured above")
            .steps_per_sec
    };
    let speedup = rate("run_blocks") / rate("step_instrumented");
    println!("\nspeedup run_blocks vs step_instrumented: {speedup:.2}x");
    let fused_speedup = rate("fused_multi_assoc") / rate("per_assoc_run_blocks");
    println!("speedup fused_multi_assoc vs per_assoc_run_blocks: {fused_speedup:.2}x");
    let fused_lru_speedup = rate("fused_lru") / rate("per_assoc_lru_run_blocks");
    println!("speedup fused_lru vs per_assoc_lru_run_blocks: {fused_lru_speedup:.2}x");
    let fused_plru_speedup = rate("fused_plru") / rate("per_assoc_plru_run_blocks");
    println!("speedup fused_plru vs per_assoc_plru_run_blocks: {fused_plru_speedup:.2}x");
    let fused_slru_speedup = rate("fused_slru") / rate("per_assoc_slru_run_blocks");
    println!("speedup fused_slru vs per_assoc_slru_run_blocks: {fused_slru_speedup:.2}x");
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
    let evals_per_req = [
        ("fifo", fifo_evals),
        ("lru", lru_evals),
        ("plru", plru_evals),
        ("slru", slru_evals),
    ]
    .map(|(p, evals)| (p, evals as f64 / n));
    for (p, v) in evals_per_req {
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
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"sweep_shapes\": [\n    {{\"name\": \"per_assoc_passes_a1_{FUSED_MAX_ASSOC}\", \
         \"trace_traversals\": {n_passes}}},\n    {{\"name\": \"fused_a1_{FUSED_MAX_ASSOC}\", \
         \"trace_traversals\": 1}},\n    {{\"name\": \
         \"lru_per_assoc_passes_a1_{FUSED_MAX_ASSOC}\", \
         \"trace_traversals\": {n_passes}}},\n    {{\"name\": \
         \"lru_fused_a1_{FUSED_MAX_ASSOC}\", \"trace_traversals\": 1}},\n    \
         {{\"name\": \"plru_per_assoc_passes_a1_{FUSED_MAX_ASSOC}\", \
         \"trace_traversals\": {n_passes}}},\n    {{\"name\": \
         \"plru_fused_a1_{FUSED_MAX_ASSOC}\", \
         \"trace_traversals\": 1}},\n    {{\"name\": \
         \"slru_per_assoc_passes_a1_{FUSED_MAX_ASSOC}\", \
         \"trace_traversals\": {n_passes}}},\n    {{\"name\": \
         \"slru_fused_a1_{FUSED_MAX_ASSOC}\", \"trace_traversals\": 1}},\n    \
         {{\"name\": \"explore_s11_b3_a4_fifo_lru\", \
         \"trace_traversals\": {explore_traversals}}}\n  ],",
        n_passes = PER_ASSOC_PASSES.len()
    );
    let _ = writeln!(
        json,
        "  \"speedup_run_blocks_vs_instrumented\": {speedup:.3},"
    );
    let _ = writeln!(
        json,
        "  \"speedup_fused_vs_per_assoc\": {fused_speedup:.3},"
    );
    let _ = writeln!(
        json,
        "  \"speedup_fused_lru_vs_per_assoc\": {fused_lru_speedup:.3},"
    );
    let _ = writeln!(
        json,
        "  \"speedup_fused_plru_vs_per_assoc\": {fused_plru_speedup:.3},"
    );
    let _ = writeln!(
        json,
        "  \"speedup_fused_slru_vs_per_assoc\": {fused_slru_speedup:.3},"
    );
    let _ = writeln!(
        json,
        "  \"instrumented_over_fast_fused_fifo\": {instr_overhead:.3},"
    );
    let _ = writeln!(json, "  \"plru_over_fused_fifo\": {plru_over_fifo:.3},");
    for (p, v) in evals_per_req {
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
