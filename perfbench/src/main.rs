//! End-to-end benchmark of the DEW workspace.
//!
//! ```text
//! dew-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload through the public library APIs for `--seconds`,
//! checks its results against the `dew-cachesim` oracle, prints a readable
//! report and, as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. See README.md.

mod adapters;
mod oracle;
mod serve;
mod stats;
mod sweeps;

use std::path::PathBuf;
use std::process::ExitCode;

use dew_core::KernelBackend;

use crate::stats::Metrics;

/// Set-ups per run; their median is reported as `setup_s`.
pub const SETUP_REPEATS: usize = 15;

const WORKLOADS: [&str; 4] = [
    "sweep_fifo",
    "explore_policies",
    "sweep_checkpointed",
    "serve_jobs",
];

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 2] = [("wall_s", "s"), ("setup_s", "s")];

/// Per-layer metrics, reported with `--trace 1`; a layer a workload does
/// not enter reads 0.
const PER_LAYER: [(&str, &str); 67] = [
    ("process.peak_rss_mib", "MiB"),
    ("trace.load_s", "s"),
    ("trace.decode_s", "s"),
    ("trace.stream_s", "s"),
    ("trace.opens", "count"),
    ("trace.records", "count"),
    ("kernel.fifo.build_s", "s"),
    ("kernel.fifo.run_s", "s"),
    ("kernel.fifo.ns_per_req", "ns"),
    ("kernel.fifo.footprint_mib", "MiB"),
    ("kernel.fifo.tag_cmp_per_req", "count/req"),
    ("kernel.fifo.node_evals_per_req", "count/req"),
    ("kernel.fifo.mra_stop_frac", "ratio"),
    ("kernel.lru.build_s", "s"),
    ("kernel.lru.run_s", "s"),
    ("kernel.lru.ns_per_req", "ns"),
    ("kernel.lru.footprint_mib", "MiB"),
    ("kernel.lru.tag_cmp_per_req", "count/req"),
    ("kernel.lru.node_evals_per_req", "count/req"),
    ("kernel.lru.mra_stop_frac", "ratio"),
    ("kernel.plru.build_s", "s"),
    ("kernel.plru.run_s", "s"),
    ("kernel.plru.ns_per_req", "ns"),
    ("kernel.plru.footprint_mib", "MiB"),
    ("kernel.plru.tag_cmp_per_req", "count/req"),
    ("kernel.plru.node_evals_per_req", "count/req"),
    ("kernel.plru.mra_stop_frac", "ratio"),
    ("kernel.slru.build_s", "s"),
    ("kernel.slru.run_s", "s"),
    ("kernel.slru.ns_per_req", "ns"),
    ("kernel.slru.footprint_mib", "MiB"),
    ("kernel.slru.tag_cmp_per_req", "count/req"),
    ("kernel.slru.node_evals_per_req", "count/req"),
    ("kernel.slru.mra_stop_frac", "ratio"),
    ("results.fanout_s", "s"),
    ("sweep.run_s", "s"),
    ("sweep.driver_s", "s"),
    ("sweep.traversals", "count"),
    ("snapshot.encode_s", "s"),
    ("snapshot.decode_s", "s"),
    ("snapshot.bytes", "B"),
    ("checkpoint.saves", "count"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.image_mib", "MiB"),
    ("checkpoint.decode_s", "s"),
    ("explore.score_s", "s"),
    ("explore.frontier_s", "s"),
    ("explore.candidates", "count"),
    ("explore.pruned_frac", "ratio"),
    ("serve.job_ms_p90", "ms"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p90", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.run_ms_p90", "ms"),
    ("serve.submit_rtt_ms_p50", "ms"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.accepted", "count"),
    ("serve.rejected", "count"),
    ("serve.completed", "count"),
    ("workloads.gen_s", "s"),
    ("oracle.configs", "count"),
    ("oracle.mismatches", "count"),
    ("gen.late_ms_p90", "ms"),
    ("tracing_overhead_frac", "ratio"),
    ("traced.wall_s", "s"),
    ("traced.accounted_frac", "ratio"),
];

/// The parsed command line plus the run's work directory.
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub work_dir: PathBuf,
}

/// What one run measured.
#[derive(Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

fn parse_args() -> Result<RunArgs, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |key: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == key)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {key}"))
    };
    let number = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("{key} takes a whole number"))
    };
    let workload = get("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".to_owned()),
    };
    let seed = number("--seed")?;
    let work_dir =
        PathBuf::from(".perfbench_work").join(format!("{workload}-{seed}-{}", std::process::id()));
    Ok(RunArgs {
        workload,
        seed,
        seconds: number("--seconds")?.max(1),
        trace,
        work_dir,
    })
}

fn run(args: &RunArgs) -> Result<RunResult, String> {
    match args.workload.as_str() {
        "sweep_fifo" => sweeps::run(sweeps::Kind::Fifo, args),
        "explore_policies" => sweeps::run(sweeps::Kind::Explore, args),
        "sweep_checkpointed" => sweeps::run(sweeps::Kind::Checkpointed, args),
        "serve_jobs" => serve::run(args),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dew-perfbench: {e}");
            eprintln!(
                "usage: dew-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!(
            "dew-perfbench: cannot create {}: {e}",
            args.work_dir.display()
        );
        return ExitCode::FAILURE;
    }
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(&args.work_dir);
    if let Some(parent) = args.work_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let mut result = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dew-perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    result
        .metrics
        .set("process.peak_rss_mib", stats::peak_rss_mib());
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };

    println!(
        "# {} seed {} ({}s, trace {}), {} scan kernels, {} cores",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        KernelBackend::active().name(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for note in &result.notes {
        println!("# {note}");
    }
    println!(
        "# peak resident set {:.1} MiB",
        result.metrics.get("process.peak_rss_mib")
    );
    for &(name, unit) in names {
        println!("# {name:<32} {:>16.6} {unit}", result.metrics.get(name));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        result.failed == 0,
        result.attempted.max(1),
        result.failed,
        result.metrics.to_json(names)
    );
    ExitCode::SUCCESS
}
