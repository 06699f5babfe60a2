//! Command implementations. Each returns its report as a `String` so the
//! logic is directly testable; `main` only prints.

use std::path::Path;

use dew_cachesim::classify::ThreeCClassifier;
use dew_cachesim::{AllocatePolicy, Cache, CacheConfig, Replacement, WritePolicy};
use dew_core::{
    CancelToken, ConfigSpace, DewError, FileCheckpointStore, Resilience, RetryPolicy,
    SweepCheckpoint, SweepRequest, TreePolicy,
};
use dew_explore::{
    best_edp_under, evaluate_sweep, explore_trace, pareto_front, EnergyModel, ExplorationSpace,
    ParetoMode,
};
use dew_trace::{Trace, TraceError};
use dew_workloads::mediabench::App;

use crate::args::{Args, ArgsError};
use crate::error::CliError;
use crate::USAGE;

/// Executes a raw command line (without the program name) and returns the
/// report to print.
///
/// # Errors
///
/// [`CliError`] for unknown commands, bad arguments, or execution failures.
pub fn run<I, S>(raw: I) -> Result<String, CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let args = Args::parse(raw, &["classify", "counters", "fail-fast", "chaos", "help"])?;
    // `--help` and `-h` print the usage wherever they appear.
    if args.flag("help") || args.positional().iter().any(|p| p == "-h") {
        return Ok(USAGE.to_owned());
    }
    let command = args
        .positional()
        .first()
        .map(String::as_str)
        .unwrap_or("help");
    match command {
        "simulate" => simulate(&args),
        "sweep" => sweep(&args),
        "explore" => explore(&args),
        "verify" => verify(&args),
        "stats" => stats(&args),
        "convert" => convert(&args),
        "generate" => generate(&args),
        "serve" => serve(&args),
        "gen" => gen(&args),
        "help" => Ok(USAGE.to_owned()),
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}

/// Loads a trace, dispatching on the file extension (`.din` is text). An
/// I/O failure names the file.
fn load_trace(path: &str) -> Result<Trace, CliError> {
    let p = Path::new(path);
    let read = if p.extension().is_some_and(|e| e == "din") {
        Trace::read_din_file(p)
    } else {
        Trace::read_bin_file(p)
    };
    read.map_err(|e| match e {
        TraceError::Io(e) => TraceError::Io(at_path(path, e)).into(),
        e => e.into(),
    })
}

/// `e` with `path` in front of its message and its kind kept, so an input
/// that cannot be read names the file that was looked for.
fn at_path(path: &str, e: std::io::Error) -> std::io::Error {
    std::io::Error::new(e.kind(), format!("{path}: {e}"))
}

fn save_trace(trace: &Trace, path: &str) -> Result<(), CliError> {
    let p = Path::new(path);
    if p.extension().is_some_and(|e| e == "din") {
        trace.write_din_file(p)?;
    } else {
        trace.write_bin_file(p)?;
    }
    Ok(())
}

fn parse_policy(s: &str, seed: u64) -> Result<Replacement, CliError> {
    match s {
        "fifo" => Ok(Replacement::Fifo),
        "lru" => Ok(Replacement::Lru),
        "plru" => Ok(Replacement::Plru),
        "slru" => Ok(Replacement::Slru),
        "random" => Ok(Replacement::Random(seed)),
        other => Err(CliError::Args(ArgsError::BadValue {
            key: "policy".into(),
            value: other.into(),
            ty: "replacement policy (fifo|lru|plru|slru|random)",
        })),
    }
}

/// Parses one fused-sweep policy name (`fifo|lru|plru|slru`) for `key`.
fn parse_tree_policy(s: &str, key: &str) -> Result<TreePolicy, CliError> {
    TreePolicy::from_name(s).ok_or_else(|| {
        CliError::Args(ArgsError::BadValue {
            key: key.into(),
            value: s.into(),
            ty: "sweep policy (fifo|lru|plru|slru)",
        })
    })
}

/// Parses an inclusive `LO..HI` log2 range.
fn parse_range(s: &str, key: &str) -> Result<(u32, u32), CliError> {
    let bad = || {
        CliError::Args(ArgsError::BadValue {
            key: key.into(),
            value: s.into(),
            ty: "inclusive log2 range LO..HI",
        })
    };
    let (lo, hi) = s.split_once("..").ok_or_else(bad)?;
    Ok((
        lo.trim().parse().map_err(|_| bad())?,
        hi.trim().parse().map_err(|_| bad())?,
    ))
}

fn simulate(args: &Args) -> Result<String, CliError> {
    args.reject_unknown(&[
        "trace",
        "sets",
        "assoc",
        "block",
        "policy",
        "seed",
        "write-policy",
        "allocate",
    ])?;
    let trace = load_trace(&args.require::<String>("trace")?)?;
    let seed = args.get_or("seed", 0u64)?;
    let policy = parse_policy(args.get("policy").unwrap_or("fifo"), seed)?;
    let write = match args.get("write-policy").unwrap_or("wb") {
        "wt" => WritePolicy::WriteThrough,
        _ => WritePolicy::WriteBack,
    };
    let allocate = match args.get("allocate").unwrap_or("wa") {
        "nwa" => AllocatePolicy::NoWriteAllocate,
        _ => AllocatePolicy::WriteAllocate,
    };
    let config = CacheConfig::builder()
        .sets(args.require("sets")?)
        .assoc(args.require("assoc")?)
        .block_bytes(args.require("block")?)
        .replacement(policy)
        .write_policy(write)
        .allocate_policy(allocate)
        .build()?;

    let mut out = format!("config: {config}\n");
    if args.flag("classify") {
        let mut c = ThreeCClassifier::new(config);
        for r in &trace {
            c.access(*r);
        }
        let counts = c.counts();
        out.push_str(&format!("{}\n", c.stats()));
        out.push_str(&format!(
            "3C: {} compulsory, {} capacity, {} conflict\n",
            counts.compulsory, counts.capacity, counts.conflict
        ));
    } else {
        let mut cache = Cache::new(config);
        for r in &trace {
            cache.access(*r);
        }
        out.push_str(&format!("{}\n", cache.stats()));
    }
    Ok(out)
}

/// Parses the `--sample PERIOD:LEN` argument.
fn parse_sample(s: &str) -> Result<(usize, usize), CliError> {
    let bad = || {
        CliError::Args(ArgsError::BadValue {
            key: "sample".into(),
            value: s.into(),
            ty: "periodic sample spec PERIOD:LEN",
        })
    };
    let (period, len) = s.split_once(':').ok_or_else(bad)?;
    let period: usize = period.trim().parse().map_err(|_| bad())?;
    let len: usize = len.trim().parse().map_err(|_| bad())?;
    if period == 0 || len == 0 || len > period {
        return Err(bad());
    }
    Ok((period, len))
}

fn sweep(args: &Args) -> Result<String, CliError> {
    args.reject_unknown(&[
        "trace",
        "sets",
        "blocks",
        "assocs",
        "policy",
        "threads",
        "csv",
        "budget",
        "counters",
        "sample",
        "checkpoint",
        "checkpoint-every",
        "resume",
        "retries",
        "timeout",
    ])?;
    let trace_path: String = args.require("trace")?;
    let trace = load_trace(&trace_path)?;
    let sets = parse_range(args.get("sets").unwrap_or("0..14"), "sets")?;
    let blocks = parse_range(args.get("blocks").unwrap_or("0..6"), "blocks")?;
    let assocs = parse_range(args.get("assocs").unwrap_or("0..4"), "assocs")?;
    let space = ConfigSpace::new(sets, blocks, assocs)?;
    let policy = parse_tree_policy(args.get("policy").unwrap_or("fifo"), "policy")?;
    let threads = args.get_or("threads", 0usize)?;
    let with_counters = args.flag("counters");
    let sample = args.get("sample").map(parse_sample).transpose()?;
    if with_counters && sample.is_some() {
        return Err(CliError::Usage(
            "--counters needs the plain instrumented sweep; drop --sample".into(),
        ));
    }

    // Resilience flags select the fault-tolerant plan: periodic
    // checkpoints, bit-identical resume, retry with backoff, and degraded
    // partial results (exit code 3) instead of an all-or-nothing abort.
    let checkpoint_path = args.get("checkpoint");
    let checkpoint_every = args.get_or("checkpoint-every", 1_000_000u64)?;
    let resume_path = args.get("resume");
    let fail_fast = args.flag("fail-fast");
    let retries = args.get_or("retries", RetryPolicy::default().max_retries)?;
    let timeout_secs: Option<f64> = args
        .get("timeout")
        .map(|v| {
            v.parse().map_err(|_| {
                CliError::Args(ArgsError::BadValue {
                    key: "timeout".into(),
                    value: v.into(),
                    ty: "wall-clock budget in seconds",
                })
            })
        })
        .transpose()?;
    let resilient = checkpoint_path.is_some()
        || resume_path.is_some()
        || fail_fast
        || timeout_secs.is_some()
        || args.get("retries").is_some();
    if resilient && sample.is_some() {
        return Err(CliError::Usage(
            "--checkpoint/--resume/--fail-fast/--retries/--timeout need an exact sweep; \
             drop --sample"
                .into(),
        ));
    }
    if resilient && with_counters {
        return Err(CliError::Usage(
            "--counters needs the plain instrumented sweep; drop the resilience flags".into(),
        ));
    }
    let resume_image = match resume_path {
        None => None,
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| at_path(path, e))?;
            Some(
                SweepCheckpoint::from_bytes(&bytes)
                    .map_err(|e| CliError::Dew(DewError::Checkpoint(format!("{path}: {e}"))))?,
            )
        }
    };
    let store = checkpoint_path.map(FileCheckpointStore::new);
    // One token serves both interrupt paths: `--timeout` arms its deadline,
    // and (for checkpointing runs) a SIGINT watcher cancels it so Ctrl-C
    // flushes a final checkpoint instead of killing the run mid-job.
    let cancel_token = if timeout_secs.is_some() || checkpoint_path.is_some() {
        Some(match timeout_secs {
            Some(secs) => {
                CancelToken::with_deadline(std::time::Duration::from_secs_f64(secs.max(0.0)))
            }
            None => CancelToken::new(),
        })
    } else {
        None
    };
    let mut res = Resilience::new()
        .fail_fast(fail_fast)
        .with_retry(RetryPolicy {
            max_retries: retries,
            ..RetryPolicy::default()
        });
    if let Some(store) = &store {
        res = res.with_checkpoint(checkpoint_every, store);
    }
    if let Some(ckpt) = &resume_image {
        res = res.resume_from(ckpt);
    }
    if let Some(token) = &cancel_token {
        res = res.with_cancel(token);
    }
    // Graceful Ctrl-C only makes sense when there is a checkpoint to save;
    // without one, the default SIGINT disposition (die) loses nothing.
    let sigint_watch = cancel_token
        .clone()
        .filter(|_| checkpoint_path.is_some())
        .map(|token| {
            dew_serve::signal::install();
            let baseline = dew_serve::signal::hits();
            let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let stop_flag = std::sync::Arc::clone(&stop);
            let handle = std::thread::spawn(move || {
                while !stop_flag.load(std::sync::atomic::Ordering::Acquire) {
                    if dew_serve::signal::hits() > baseline {
                        token.cancel();
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(25));
                }
            });
            (stop, handle)
        });

    let start = std::time::Instant::now();
    // The default sweep drives the fast monomorphized kernel in batches —
    // under every policy the passes of a block size fuse into one kernel
    // traversal. The trace is resident, so each block size reads it on its
    // own whatever --threads says (a re-read costs nothing and the kernel
    // runs alone in the cache); --counters opts into the instrumented
    // kernel to report the per-pass work breakdown, and --sample keeps
    // periodic clusters only.
    let mut request = SweepRequest::new(&space)
        .policy(policy)
        .threads(threads)
        .instrumented(with_counters);
    if let Some((period, len)) = sample {
        request = request.sampled(period, len);
    }
    let outcome = if resilient {
        request.resilient(&res).run(trace.records())?
    } else {
        request.run(trace.records())?
    };
    let elapsed = start.elapsed().as_secs_f64();
    if let Some((stop, handle)) = sigint_watch {
        stop.store(true, std::sync::atomic::Ordering::Release);
        let _ = handle.join();
    }

    // Single-pass-per-block-size spaces report the plain shape.
    let schedule = if outcome.trace_traversals() < outcome.passes().len() as u64 {
        format!(
            "{} passes fused into {} trace traversals",
            outcome.passes().len(),
            outcome.trace_traversals()
        )
    } else {
        format!(
            "{} passes, {} trace traversals",
            outcome.passes().len(),
            outcome.trace_traversals()
        )
    };
    let mut out = format!(
        "swept {} configurations over {} requests in {:.2}s ({schedule}, policy {policy}, \
         {} scan kernels)\n",
        outcome.config_count(),
        outcome.accesses(),
        elapsed,
        outcome.kernel_backend().name(),
    );
    if let Some((period, len)) = sample {
        let total = trace.records().len();
        out.push_str(&format!(
            "periodic sample: kept {} of {} requests (leading {len} of every {period})\n",
            outcome.accesses(),
            total,
        ));
    }
    if let Some(bounds) = outcome.bounds() {
        out.push_str(&format!(
            "cold-start slack: at most {} misses per configuration ({} bound)\n",
            bounds.max_slack(),
            if bounds.guaranteed() {
                "guaranteed"
            } else {
                "heuristic"
            },
        ));
    }
    if let Some(path) = resume_path {
        out.push_str(&format!("resumed from checkpoint {path}\n"));
    }
    if let Some(path) = checkpoint_path {
        out.push_str(&format!(
            "checkpointing every {checkpoint_every} records to {path}\n"
        ));
    }
    if outcome.retries() > 0 {
        out.push_str(&format!(
            "recovered from {} transient source fault(s) via retry\n",
            outcome.retries()
        ));
    }
    if let Some(reason) = cancel_token.as_ref().and_then(CancelToken::cancelled) {
        out.push_str(&format!(
            "sweep interrupted ({reason}); every in-flight job flushed a final checkpoint\n"
        ));
        if let Some(path) = checkpoint_path {
            out.push_str(&format!(
                "resume with:\n  dew sweep --trace {trace_path} --resume {path} \
                 --checkpoint {path}\n"
            ));
        }
    }
    if outcome.is_partial() {
        out.push_str(&format!(
            "PARTIAL RESULTS: {} of {} block-size jobs failed, {} records lost\n",
            outcome.failed_jobs().len(),
            outcome.trace_traversals(),
            outcome.records_lost(),
        ));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:>8} {:>6} {:>7} {:>12} {:>10}\n",
        "sets", "assoc", "block", "misses", "miss rate"
    ));
    for c in outcome.sorted() {
        let rate = c.misses as f64 / outcome.accesses().max(1) as f64;
        out.push_str(&format!(
            "{:>8} {:>6} {:>7} {:>12} {:>9.4}%\n",
            c.sets,
            c.assoc,
            c.block_bytes,
            c.misses,
            rate * 100.0
        ));
    }
    if outcome.is_partial() {
        out.push_str("\nfailed jobs:\n");
        for f in outcome.failed_jobs() {
            out.push_str(&format!(
                "  {} (after {} records)\n",
                f.error, f.records_done
            ));
        }
    }

    if with_counters {
        out.push_str("\nper-pass work counters:\n");
        for (pass, c) in outcome.passes() {
            out.push_str(&format!("  {pass}: {c}\n"));
        }
    }

    if let Some(csv) = args.get("csv") {
        let mut text = String::from("sets,assoc,block_bytes,misses,accesses\n");
        for c in outcome.sorted() {
            text.push_str(&format!(
                "{},{},{},{},{}\n",
                c.sets,
                c.assoc,
                c.block_bytes,
                c.misses,
                outcome.accesses()
            ));
        }
        std::fs::write(csv, text)?;
        out.push_str(&format!("\ncsv written to {csv}\n"));
    }

    if let Some(budget) = args.get("budget") {
        let budget: u64 = budget.parse().map_err(|_| {
            CliError::Args(ArgsError::BadValue {
                key: "budget".into(),
                value: budget.into(),
                ty: "byte count",
            })
        })?;
        let evals = evaluate_sweep(&outcome, &EnergyModel::default());
        let front = pareto_front(&evals);
        out.push_str(&format!(
            "\nPareto front (energy vs cycles): {} configurations\n",
            front.len()
        ));
        match best_edp_under(&evals, budget) {
            Some(best) => out.push_str(&format!("best EDP within {budget} bytes: {best}\n")),
            None => out.push_str(&format!("no configuration fits within {budget} bytes\n")),
        }
    }
    // A degraded run still returns its report — through the Partial error,
    // so `main` can print the table and exit with the distinct code 3.
    if outcome.is_partial() {
        return Err(CliError::Partial(out));
    }
    Ok(out)
}

/// Parses a comma-separated policy list (any of `fifo`, `lru`, `plru`,
/// `slru`, e.g. `fifo,lru,plru,slru`).
fn parse_policies(s: &str) -> Result<Vec<TreePolicy>, CliError> {
    let mut policies = Vec::new();
    for part in s.split(',') {
        match TreePolicy::from_name(part.trim()) {
            Some(p) => policies.push(p),
            None => {
                return Err(CliError::Args(ArgsError::BadValue {
                    key: "policies".into(),
                    value: part.trim().into(),
                    ty: "comma-separated policy list (fifo|lru|plru|slru)",
                }))
            }
        }
    }
    Ok(policies)
}

fn explore(args: &Args) -> Result<String, CliError> {
    args.reject_unknown(&[
        "trace", "sets", "blocks", "assocs", "policies", "mode", "threads", "budget", "json",
        "csv", "top",
    ])?;
    let trace = load_trace(&args.require::<String>("trace")?)?;
    let sets = parse_range(args.get("sets").unwrap_or("0..14"), "sets")?;
    let blocks = parse_range(args.get("blocks").unwrap_or("0..6"), "blocks")?;
    let assocs = parse_range(args.get("assocs").unwrap_or("0..4"), "assocs")?;
    let space = ConfigSpace::new(sets, blocks, assocs)?;
    let policies = parse_policies(args.get("policies").unwrap_or("fifo"))?;
    let mode = match args.get("mode").unwrap_or("pruned") {
        "pruned" => ParetoMode::Pruned,
        "exhaustive" => ParetoMode::Exhaustive,
        other => {
            return Err(CliError::Args(ArgsError::BadValue {
                key: "mode".into(),
                value: other.into(),
                ty: "frontier extraction mode (pruned|exhaustive)",
            }))
        }
    };
    let budget = match args.get("budget") {
        None => None,
        Some(_) => Some(args.require::<u64>("budget")?),
    };
    let threads = args.get_or("threads", 0usize)?;
    let top = args.get_or("top", 12usize)?;

    let exploration = ExplorationSpace::new(space)
        .with_policies(&policies)
        .with_budget(budget);
    let start = std::time::Instant::now();
    let report = explore_trace(
        &exploration,
        trace.records(),
        &EnergyModel::default(),
        mode,
        threads,
    )?;
    let elapsed = start.elapsed().as_secs_f64();

    let policy_names: Vec<String> = exploration
        .policies()
        .iter()
        .map(ToString::to_string)
        .collect();
    let mut out = format!(
        "explored {} candidates ({space}; policies {}) over {} requests in {elapsed:.2}s\n",
        report.candidates(),
        policy_names.join("+"),
        report.accesses(),
    );
    out.push_str(&format!(
        "fused sweeps: {} trace traversals total (one per block size per policy), \
         {:.2}s in kernels ({} scans)\n",
        report.trace_traversals(),
        report.sweep_seconds(),
        dew_core::KernelBackend::active().name(),
    ));
    let frontier = report.frontier();
    out.push_str(&format!(
        "mode {}: {} over budget, {} pruned as dominated, {} points scored, \
         frontier size {}\n",
        report.mode(),
        report.over_budget(),
        report.pruned_dominated(),
        report.points().len(),
        frontier.len(),
    ));

    out.push_str(&format!(
        "\nPareto frontier (miss rate x energy x size), best {} by energy:\n",
        top.min(frontier.len())
    ));
    out.push_str(&format!(
        "{:>6} {:>8} {:>6} {:>7} {:>9} {:>10} {:>12} {:>12}\n",
        "policy", "sets", "assoc", "block", "bytes", "miss rate", "energy(nJ)", "cycles"
    ));
    for p in frontier.iter().take(top) {
        let e = &p.evaluation;
        out.push_str(&format!(
            "{:>6} {:>8} {:>6} {:>7} {:>9} {:>9.4}% {:>12.1} {:>12}\n",
            p.policy.to_string(),
            e.geometry.sets,
            e.geometry.assoc,
            e.geometry.block_bytes,
            e.geometry.total_bytes(),
            e.miss_rate() * 100.0,
            e.energy_nj,
            e.cycles,
        ));
    }
    if frontier.len() > top {
        out.push_str(&format!("  ... and {} more\n", frontier.len() - top));
    }

    if let Some(cap) = budget {
        for &policy in exploration.policies() {
            let evals = report.evaluations(policy);
            match best_edp_under(&evals, cap) {
                Some(best) => {
                    out.push_str(&format!("best EDP within {cap} B under {policy}: {best}\n"));
                }
                None => out.push_str(&format!(
                    "no {policy} configuration fits within {cap} bytes\n"
                )),
            }
        }
    }

    if let Some(path) = args.get("json") {
        std::fs::write(path, report.to_json())?;
        out.push_str(&format!("\njson written to {path}\n"));
    }
    if let Some(path) = args.get("csv") {
        std::fs::write(path, report.to_csv())?;
        out.push_str(&format!("csv written to {path}\n"));
    }
    Ok(out)
}

fn verify(args: &Args) -> Result<String, CliError> {
    args.reject_unknown(&["trace", "sets", "blocks", "assocs", "policy", "threads"])?;
    let trace = load_trace(&args.require::<String>("trace")?)?;
    let sets = parse_range(args.get("sets").unwrap_or("0..8"), "sets")?;
    let blocks = parse_range(args.get("blocks").unwrap_or("2..4"), "blocks")?;
    let assocs = parse_range(args.get("assocs").unwrap_or("0..2"), "assocs")?;
    let space = ConfigSpace::new(sets, blocks, assocs)?;
    let tree_policy = parse_tree_policy(args.get("policy").unwrap_or("fifo"), "policy")?;
    let policy = match tree_policy {
        TreePolicy::Fifo => Replacement::Fifo,
        TreePolicy::Lru => Replacement::Lru,
        TreePolicy::Plru => Replacement::Plru,
        TreePolicy::Slru => Replacement::Slru,
    };
    let threads = args.get_or("threads", 0usize)?;

    let start = std::time::Instant::now();
    let sweep = SweepRequest::new(&space)
        .policy(tree_policy)
        .threads(threads)
        .run(trace.records())?;
    let dew_time = start.elapsed().as_secs_f64();

    let start = std::time::Instant::now();
    let mut mismatches = Vec::new();
    for (s, a, b) in space.configs() {
        let config = CacheConfig::new(s, a, b, policy)?;
        let mut cache = Cache::new(config);
        for r in &trace {
            cache.access(*r);
        }
        let expected = cache.stats().misses();
        let got = sweep.misses(s, a, b);
        if got != Some(expected) {
            mismatches.push(format!(
                "  sets={s} assoc={a} block={b}: dew {got:?} != {expected}"
            ));
        }
    }
    let ref_time = start.elapsed().as_secs_f64();

    let mut out = format!(
        "verified {} configurations over {} requests (policy {})\n\
         DEW: {dew_time:.3}s ({} passes, {} trace traversals); \
         reference: {ref_time:.3}s ({} passes); speedup {:.1}x\n",
        space.config_count(),
        trace.len(),
        policy,
        sweep.passes().len(),
        sweep.trace_traversals(),
        space.config_count(),
        ref_time / dew_time.max(1e-9),
    );
    if mismatches.is_empty() {
        out.push_str("all miss counts match exactly.\n");
        Ok(out)
    } else {
        out.push_str(&mismatches.join("\n"));
        Err(CliError::Verification(format!(
            "{out}\nverification FAILED"
        )))
    }
}

fn stats(args: &Args) -> Result<String, CliError> {
    args.reject_unknown(&["trace"])?;
    let trace = load_trace(&args.require::<String>("trace")?)?;
    let s = trace.stats();
    let mut out = format!("{s}\n");
    for bits in dew_trace::TraceStats::FOOTPRINT_BLOCK_BITS {
        out.push_str(&format!(
            "unique {:>2}-byte blocks: {}\n",
            1u32 << bits,
            s.unique_blocks(bits).expect("tracked size")
        ));
    }
    Ok(out)
}

fn convert(args: &Args) -> Result<String, CliError> {
    args.reject_unknown(&["input", "output"])?;
    let input: String = args.require("input")?;
    let output: String = args.require("output")?;
    let trace = load_trace(&input)?;
    save_trace(&trace, &output)?;
    let in_size = std::fs::metadata(&input)?.len();
    let out_size = std::fs::metadata(&output)?.len();
    Ok(format!(
        "converted {} records: {input} ({in_size} B) -> {output} ({out_size} B)\n",
        trace.len()
    ))
}

fn generate(args: &Args) -> Result<String, CliError> {
    args.reject_unknown(&["app", "requests", "output", "seed"])?;
    let name: String = args.require("app")?;
    let app = match name.to_lowercase().as_str() {
        "cjpeg" | "jpeg_enc" => App::JpegEncode,
        "djpeg" | "jpeg_dec" => App::JpegDecode,
        "g721_enc" => App::G721Encode,
        "g721_dec" => App::G721Decode,
        "mpeg2_enc" => App::Mpeg2Encode,
        "mpeg2_dec" => App::Mpeg2Decode,
        other => {
            return Err(CliError::Args(ArgsError::BadValue {
                key: "app".into(),
                value: other.into(),
                ty: "application name (cjpeg|djpeg|g721_enc|g721_dec|mpeg2_enc|mpeg2_dec)",
            }))
        }
    };
    let requests = args.require::<u64>("requests")?;
    let seed = args.get_or("seed", 2010u64)?;
    let output: String = args.require("output")?;
    let trace = app.generate(requests, seed);
    save_trace(&trace, &output)?;
    Ok(format!(
        "generated {} ({requests} requests, seed {seed}) -> {output}\n",
        app.name()
    ))
}

fn serve(args: &Args) -> Result<String, CliError> {
    args.reject_unknown(&[
        "addr",
        "workers",
        "queue",
        "deadline-ms",
        "max-deadline-ms",
        "io-timeout-ms",
        "drain-ms",
        "sim-threads",
        "shutdown-after-ms",
    ])?;
    let cfg = dew_serve::ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:4960").to_owned(),
        workers: args.get_or("workers", 2usize)?,
        queue_capacity: args.get_or("queue", 16usize)?,
        default_deadline: std::time::Duration::from_millis(args.get_or("deadline-ms", 10_000u64)?),
        max_deadline: std::time::Duration::from_millis(args.get_or("max-deadline-ms", 60_000u64)?),
        io_timeout: std::time::Duration::from_millis(args.get_or("io-timeout-ms", 30_000u64)?),
        drain_timeout: std::time::Duration::from_millis(args.get_or("drain-ms", 5_000u64)?),
        sim_threads: args.get_or("sim-threads", 1usize)?,
    };
    // Tests and CI smoke runs set a self-shutdown; interactive runs don't.
    let shutdown_after = args
        .get("shutdown-after-ms")
        .map(|_| args.require::<u64>("shutdown-after-ms"))
        .transpose()?
        .map(std::time::Duration::from_millis);
    let workers = cfg.workers;
    let queue = cfg.queue_capacity;
    let server = dew_serve::Server::start(cfg)?;
    // Printed eagerly (not via the returned report) because the server now
    // blocks until shutdown and clients need the address to connect.
    println!(
        "dew serve listening on {} ({workers} workers, queue {queue}); \
         Ctrl-C or a `shutdown` request drains gracefully",
        server.addr()
    );
    dew_serve::signal::install();
    let baseline = dew_serve::signal::hits();
    let started = std::time::Instant::now();
    loop {
        if server.is_stopping() {
            break; // a protocol `shutdown` already drained
        }
        if dew_serve::signal::hits() > baseline {
            println!("SIGINT: draining (second Ctrl-C force-quits)...");
            break;
        }
        if shutdown_after.is_some_and(|d| started.elapsed() >= d) {
            break;
        }
        if dew_serve::signal::hits() > baseline + 1 {
            std::process::exit(130);
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let report = server.stop();
    Ok(format!(
        "server stopped after {:.1}s\n{report}\n",
        started.elapsed().as_secs_f64()
    ))
}

fn gen(args: &Args) -> Result<String, CliError> {
    args.reject_unknown(&[
        "addr",
        "jobs",
        "concurrency",
        "rate",
        "mix",
        "requests",
        "seed",
        "deadline-ms",
        "wait-timeout-ms",
        "json",
    ])?;
    let mix = args
        .get("mix")
        .unwrap_or("zipf")
        .parse::<dew_workloads::traffic::MixKind>()
        .map_err(|_| {
            CliError::Args(ArgsError::BadValue {
                key: "mix".into(),
                value: args.get("mix").unwrap_or_default().into(),
                ty: "request mix (zipf|loop|scan|mix)",
            })
        })?;
    let rate = args
        .get("rate")
        .map(|v| {
            v.parse::<f64>().ok().filter(|r| *r > 0.0).ok_or_else(|| {
                CliError::Args(ArgsError::BadValue {
                    key: "rate".into(),
                    value: v.into(),
                    ty: "positive jobs/second",
                })
            })
        })
        .transpose()?;
    let cfg = dew_serve::GenConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:4960").to_owned(),
        jobs: args.get_or("jobs", 16u64)?,
        concurrency: args.get_or("concurrency", 4usize)?,
        mix,
        requests: args.get_or("requests", 20_000u64)?,
        seed: args.get_or("seed", 1u64)?,
        rate,
        deadline_ms: args
            .get("deadline-ms")
            .map(|_| args.require::<u64>("deadline-ms"))
            .transpose()?,
        chaos: args.flag("chaos"),
        wait_timeout_ms: args.get_or("wait-timeout-ms", 60_000u64)?,
        io_timeout: std::time::Duration::from_secs(30),
    };
    let report = dew_serve::run_gen(&cfg);
    let mut out = format!("{report}\n");
    if !report.reconciles() {
        out.push_str("WARNING: client-side ledger does not reconcile (a response was lost)\n");
    }
    // The server's own counters, so one terminal shows both sides of the
    // reconciliation.
    if let Ok(stats) = dew_serve::gen::fetch_stats(&cfg.addr, std::time::Duration::from_secs(5)) {
        out.push_str(&format!("server stats: {}\n", stats.emit()));
    }
    if let Some(path) = args.get("json") {
        std::fs::write(path, report.to_json().emit())?;
        out.push_str(&format!("json written to {path}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("dew_cli_{}_{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn help_and_unknown_commands() {
        let help = run(["help"]).expect("help");
        assert!(help.contains("USAGE"));
        let empty: [&str; 0] = [];
        assert!(run(empty).expect("defaults to help").contains("USAGE"));
        assert!(matches!(run(["frobnicate"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn help_flags_print_usage_from_any_command() {
        for line in [
            &["--help"][..],
            &["-h"],
            &["sweep", "--help"],
            &["sweep", "-h"],
            &["explore", "--trace", "missing.dewt", "--help"],
            &["serve", "--help"],
        ] {
            let out = run(line.iter().copied()).unwrap_or_else(|e| panic!("{line:?}: {e}"));
            assert!(out.starts_with("dew — "), "{line:?}: {out}");
            assert!(out.contains("USAGE"), "{line:?}");
        }
    }

    #[test]
    fn generate_stats_simulate_convert_round_trip() {
        let bin = tmp("t.dewt");
        let din = tmp("t.din");

        let msg = run([
            "generate",
            "--app",
            "cjpeg",
            "--requests",
            "5000",
            "--output",
            &bin,
            "--seed",
            "3",
        ])
        .expect("generate");
        assert!(msg.contains("CJPEG"), "{msg}");

        let msg = run(["stats", "--trace", &bin]).expect("stats");
        assert!(msg.contains("5000 requests"), "{msg}");

        let msg = run([
            "simulate", "--trace", &bin, "--sets", "64", "--assoc", "2", "--block", "16",
        ])
        .expect("simulate");
        assert!(msg.contains("miss rate"), "{msg}");

        let msg = run([
            "simulate",
            "--trace",
            &bin,
            "--sets",
            "8",
            "--assoc",
            "2",
            "--block",
            "16",
            "--policy",
            "lru",
            "--classify",
        ])
        .expect("classify");
        assert!(msg.contains("3C:"), "{msg}");

        let msg = run(["convert", "--input", &bin, "--output", &din]).expect("convert");
        assert!(msg.contains("converted 5000 records"), "{msg}");
        let back = run(["stats", "--trace", &din]).expect("stats on din");
        assert!(back.contains("5000 requests"));

        let _ = std::fs::remove_file(&bin);
        let _ = std::fs::remove_file(&din);
    }

    #[test]
    fn sweep_reports_and_writes_csv() {
        let bin = tmp("s.dewt");
        let csv = tmp("s.csv");
        run([
            "generate",
            "--app",
            "g721_enc",
            "--requests",
            "8000",
            "--output",
            &bin,
        ])
        .expect("generate");
        let msg = run([
            "sweep", "--trace", &bin, "--sets", "0..4", "--blocks", "2..2", "--assocs", "0..1",
            "--csv", &csv, "--budget", "4096",
        ])
        .expect("sweep");
        assert!(msg.contains("swept 10 configurations"), "{msg}");
        assert!(
            msg.contains("1 passes, 1 trace traversals"),
            "one single-assoc block size is one pass, one traversal: {msg}"
        );
        let backend = dew_core::KernelBackend::active().name();
        assert!(
            msg.contains(&format!("{backend} scan kernels")),
            "sweep report names the tag-scan backend: {msg}"
        );
        assert!(msg.contains("Pareto front"), "{msg}");
        let csv_text = std::fs::read_to_string(&csv).expect("csv written");
        assert_eq!(csv_text.lines().count(), 11, "header + 10 rows");
        let _ = std::fs::remove_file(&bin);
        let _ = std::fs::remove_file(&csv);
    }

    /// The miss table lines of a sweep report (everything after the blank
    /// separator, before any trailing sections).
    fn miss_table(report: &str) -> &str {
        report.split("\n\n").nth(1).expect("table section")
    }

    #[test]
    fn sampled_sweep_flags() {
        let bin = tmp("sampled.dewt");
        run([
            "generate",
            "--app",
            "djpeg",
            "--requests",
            "9000",
            "--output",
            &bin,
        ])
        .expect("generate");
        let base = [
            "sweep", "--trace", &bin, "--sets", "0..4", "--blocks", "2..3", "--assocs", "0..2",
        ];

        let err = run(base.iter().copied().chain(["--shards", "4"])).expect_err("no --shards");
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("unknown option --shards"), "{err}");

        let lru = run(base
            .iter()
            .copied()
            .chain(["--sample", "100:25", "--policy", "lru"]))
        .expect("sampled lru");
        assert!(lru.contains("cold-start slack"), "{lru}");
        assert!(lru.contains("guaranteed bound"), "{lru}");

        let sampled = run(base.iter().copied().chain(["--sample", "100:25"])).expect("sampled");
        assert!(
            sampled.contains("periodic sample: kept 2250 of 9000 requests"),
            "{sampled}"
        );
        assert!(sampled.contains("heuristic bound"), "{sampled}");

        assert!(matches!(
            run(base.iter().copied().chain(["--sample", "25:100"])),
            Err(CliError::Args(_))
        ));
        assert!(matches!(
            run(base
                .iter()
                .copied()
                .chain(["--sample", "100:25", "--counters"])),
            Err(CliError::Usage(_))
        ));
        let _ = std::fs::remove_file(&bin);
    }

    #[test]
    fn resilient_sweep_checkpoints_and_resumes_bit_identically() {
        let bin = tmp("r.dewt");
        let ckpt = tmp("r.dewc");
        run([
            "generate",
            "--app",
            "cjpeg",
            "--requests",
            "8000",
            "--output",
            &bin,
        ])
        .expect("generate");
        let base = [
            "sweep", "--trace", &bin, "--sets", "0..4", "--blocks", "2..3", "--assocs", "0..2",
        ];
        let plain = run(base).expect("plain sweep");

        let ckpted =
            run(base
                .iter()
                .copied()
                .chain(["--checkpoint", &ckpt, "--checkpoint-every", "2000"]))
            .expect("checkpointed sweep");
        assert!(
            ckpted.contains("checkpointing every 2000 records"),
            "{ckpted}"
        );
        assert_eq!(miss_table(&ckpted), miss_table(&plain));
        assert!(
            std::path::Path::new(&ckpt).exists(),
            "checkpoint sidecar written"
        );

        let resumed = run(base.iter().copied().chain(["--resume", &ckpt])).expect("resumed");
        assert!(resumed.contains("resumed from checkpoint"), "{resumed}");
        assert_eq!(
            miss_table(&resumed),
            miss_table(&plain),
            "resume is bit-identical"
        );

        let retried = run(base.iter().copied().chain(["--retries", "2"])).expect("resilient");
        assert_eq!(miss_table(&retried), miss_table(&plain));

        // A checkpoint from a different configuration space is rejected
        // cleanly, before any simulation runs.
        let err = run([
            "sweep", "--trace", &bin, "--sets", "0..2", "--blocks", "2..3", "--assocs", "0..2",
            "--resume", &ckpt,
        ])
        .expect_err("fingerprint mismatch");
        assert!(matches!(err, CliError::Dew(_)), "{err}");
        assert!(err.to_string().contains("fingerprint"), "{err}");

        let _ = std::fs::remove_file(&bin);
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn resilience_flags_reject_incompatible_modes() {
        let bin = tmp("rx.dewt");
        run([
            "generate",
            "--app",
            "djpeg",
            "--requests",
            "2000",
            "--output",
            &bin,
        ])
        .expect("generate");
        let base = [
            "sweep", "--trace", &bin, "--sets", "0..2", "--blocks", "2..2", "--assocs", "0..1",
        ];
        assert!(matches!(
            run(base
                .iter()
                .copied()
                .chain(["--fail-fast", "--sample", "100:25"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(base.iter().copied().chain(["--retries", "2", "--counters"])),
            Err(CliError::Usage(_))
        ));
        // A missing resume file is an I/O error naming the file, not a
        // crash.
        let err = run(base
            .iter()
            .copied()
            .chain(["--resume", "/does/not/exist.dewc"]))
        .expect_err("the resume file is missing");
        assert!(matches!(err, CliError::Io(_)), "{err:?}");
        assert_eq!(err.exit_code(), 1, "{err}");
        assert!(err.to_string().contains("/does/not/exist.dewc"), "{err}");
        let _ = std::fs::remove_file(&bin);
    }

    #[test]
    fn explore_thread_counts_keep_the_frontier_identical() {
        let bin = tmp("exsh.dewt");
        run([
            "generate",
            "--app",
            "g721_dec",
            "--requests",
            "6000",
            "--output",
            &bin,
        ])
        .expect("generate");
        let base = [
            "explore",
            "--trace",
            &bin,
            "--sets",
            "0..4",
            "--blocks",
            "2..3",
            "--assocs",
            "0..1",
            "--policies",
            "fifo,lru",
        ];
        let one = run(base.iter().copied().chain(["--threads", "1"])).expect("explore");
        let two = run(base.iter().copied().chain(["--threads", "2"])).expect("explore");
        // Everything after the timing header must agree line for line.
        let tail = |s: &str| {
            s.lines()
                .skip(1)
                .filter(|l| !l.contains("s in kernels"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&two), tail(&one));
        let err = run(base.iter().copied().chain(["--shards", "3"])).expect_err("no --shards");
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("unknown option --shards"), "{err}");
        let _ = std::fs::remove_file(&bin);
    }

    #[test]
    fn sweep_counters_flag_reports_work_breakdown() {
        let bin = tmp("c.dewt");
        run([
            "generate",
            "--app",
            "g721_dec",
            "--requests",
            "4000",
            "--output",
            &bin,
        ])
        .expect("generate");
        let plain = run([
            "sweep", "--trace", &bin, "--sets", "0..3", "--blocks", "2..2", "--assocs", "0..1",
        ])
        .expect("sweep");
        assert!(!plain.contains("per-pass work counters"), "{plain}");
        let counted = run([
            "sweep",
            "--trace",
            &bin,
            "--sets",
            "0..3",
            "--blocks",
            "2..2",
            "--assocs",
            "0..1",
            "--counters",
        ])
        .expect("sweep with counters");
        assert!(counted.contains("per-pass work counters"), "{counted}");
        assert!(counted.contains("evaluations"), "{counted}");
        let _ = std::fs::remove_file(&bin);
    }

    #[test]
    fn explore_reports_frontier_and_emits_json_csv() {
        let bin = tmp("e.dewt");
        let json = tmp("e.json");
        let csv = tmp("e.csv");
        run([
            "generate",
            "--app",
            "mpeg2_dec",
            "--requests",
            "8000",
            "--output",
            &bin,
        ])
        .expect("generate");
        let msg = run([
            "explore",
            "--trace",
            &bin,
            "--sets",
            "0..4",
            "--blocks",
            "2..4",
            "--assocs",
            "0..2",
            "--policies",
            "fifo,lru",
            "--budget",
            "4096",
            "--json",
            &json,
            "--csv",
            &csv,
        ])
        .expect("explore");
        // 5 sets x 3 blocks x 3 assocs x 2 policies = 90 candidates …
        assert!(msg.contains("explored 90 candidates"), "{msg}");
        // … through 3 block sizes x 2 policies = 6 fused traversals.
        assert!(msg.contains("6 trace traversals total"), "{msg}");
        assert!(msg.contains("Pareto frontier"), "{msg}");
        assert!(msg.contains("best EDP within 4096 B under fifo"), "{msg}");
        assert!(msg.contains("best EDP within 4096 B under lru"), "{msg}");
        let json_text = std::fs::read_to_string(&json).expect("json written");
        assert!(json_text.contains("\"trace_traversals\": 6"), "{json_text}");
        assert!(json_text.contains("\"pareto\": true"));
        let csv_text = std::fs::read_to_string(&csv).expect("csv written");
        assert!(csv_text.starts_with("policy,sets,"));
        assert!(csv_text.lines().count() > 1);
        let _ = std::fs::remove_file(&bin);
        let _ = std::fs::remove_file(&json);
        let _ = std::fs::remove_file(&csv);
    }

    #[test]
    fn explore_modes_agree_and_bad_values_error() {
        let bin = tmp("em.dewt");
        run([
            "generate",
            "--app",
            "cjpeg",
            "--requests",
            "5000",
            "--output",
            &bin,
        ])
        .expect("generate");
        let base = [
            "explore", "--trace", &bin, "--sets", "0..3", "--blocks", "2..3", "--assocs", "0..2",
            "--top", "99",
        ];
        let pruned = run(base.iter().copied().chain(["--mode", "pruned"])).expect("pruned");
        let exhaustive =
            run(base.iter().copied().chain(["--mode", "exhaustive"])).expect("exhaustive");
        // The frontier tables (everything from the "Pareto frontier" header
        // to the end) must be identical across modes.
        let table = |s: &str| {
            let i = s.find("\nPareto frontier").expect("frontier section");
            s[i..].to_owned()
        };
        assert_eq!(table(&pruned), table(&exhaustive));
        assert!(pruned.contains("mode pruned"), "{pruned}");
        assert!(exhaustive.contains("0 pruned as dominated"), "{exhaustive}");

        assert!(matches!(
            run(["explore", "--trace", &bin, "--mode", "sideways"]),
            Err(CliError::Args(ArgsError::BadValue { key, .. })) if key == "mode"
        ));
        assert!(matches!(
            run(["explore", "--trace", &bin, "--policies", "belady"]),
            Err(CliError::Args(ArgsError::BadValue { key, .. })) if key == "policies"
        ));
        let _ = std::fs::remove_file(&bin);
    }

    #[test]
    fn verify_passes_on_real_traces() {
        let bin = tmp("v.dewt");
        run([
            "generate",
            "--app",
            "mpeg2_dec",
            "--requests",
            "6000",
            "--output",
            &bin,
        ])
        .expect("generate");
        let msg = run([
            "verify", "--trace", &bin, "--sets", "0..5", "--blocks", "2..3", "--assocs", "0..2",
        ])
        .expect("verify fifo");
        assert!(msg.contains("all miss counts match exactly"), "{msg}");
        let msg = run([
            "verify", "--trace", &bin, "--sets", "0..4", "--blocks", "2..2", "--assocs", "0..2",
            "--policy", "lru",
        ])
        .expect("verify lru");
        assert!(msg.contains("all miss counts match exactly"), "{msg}");
        assert!(
            msg.contains("2 passes, 1 trace traversals"),
            "LRU fuses one block size into one traversal: {msg}"
        );
        let _ = std::fs::remove_file(&bin);
    }

    #[test]
    fn explicit_thread_counts_are_honoured_and_agree() {
        let bin = tmp("th.dewt");
        run([
            "generate",
            "--app",
            "cjpeg",
            "--requests",
            "4000",
            "--output",
            &bin,
        ])
        .expect("generate");
        let one = run([
            "sweep",
            "--trace",
            &bin,
            "--sets",
            "0..3",
            "--blocks",
            "1..3",
            "--assocs",
            "0..2",
            "--threads",
            "1",
        ])
        .expect("single-threaded sweep");
        let many = run([
            "sweep",
            "--trace",
            &bin,
            "--sets",
            "0..3",
            "--blocks",
            "1..3",
            "--assocs",
            "0..2",
            "--threads",
            "4",
        ])
        .expect("multi-threaded sweep");
        // The result tables (everything after the header line with the
        // timing) must be identical regardless of the thread count.
        let table = |s: &str| s.split_once('\n').map(|(_, t)| t.to_owned()).unwrap();
        assert_eq!(table(&one), table(&many));
        assert!(one.contains("fused into 3 trace traversals"), "{one}");
        let verified = run([
            "verify",
            "--trace",
            &bin,
            "--sets",
            "0..3",
            "--blocks",
            "2..2",
            "--assocs",
            "0..1",
            "--threads",
            "2",
        ])
        .expect("verify with threads");
        assert!(verified.contains("1 trace traversals"), "{verified}");
        let _ = std::fs::remove_file(&bin);
    }

    #[test]
    fn sweep_lru_policy_selected() {
        let bin = tmp("l.dewt");
        run([
            "generate",
            "--app",
            "djpeg",
            "--requests",
            "3000",
            "--output",
            &bin,
        ])
        .expect("generate");
        let msg = run([
            "sweep", "--trace", &bin, "--sets", "0..2", "--blocks", "2..3", "--assocs", "0..2",
            "--policy", "lru",
        ])
        .expect("lru sweep");
        assert!(msg.contains("policy lru"), "{msg}");
        assert!(
            msg.contains("4 passes fused into 2 trace traversals"),
            "LRU sweeps fuse per block size like FIFO: {msg}"
        );
        let _ = std::fs::remove_file(&bin);
    }

    #[test]
    fn argument_errors_are_reported() {
        assert!(matches!(
            run(["simulate", "--sets", "64"]),
            Err(CliError::Args(ArgsError::Required(k))) if k == "trace"
        ));
        assert!(matches!(
            run(["simulate", "--trace", "x.dewt", "--sets", "64", "--assoc", "2", "--block",
                "16", "--bogus", "1"]),
            Err(CliError::Args(ArgsError::Unknown(k))) if k == "bogus"
        ));
        assert!(matches!(
            run(["stats", "--trace", "/does/not/exist"]),
            Err(CliError::Trace(_))
        ));
    }

    #[test]
    fn range_parsing() {
        assert_eq!(parse_range("0..14", "sets").expect("ok"), (0, 14));
        assert_eq!(parse_range("3 .. 5", "sets").expect("ok"), (3, 5));
        assert!(parse_range("5", "sets").is_err());
        assert!(parse_range("a..b", "sets").is_err());
    }

    #[test]
    fn bad_policy_and_app_names() {
        let bin = tmp("p.dewt");
        run([
            "generate",
            "--app",
            "cjpeg",
            "--requests",
            "100",
            "--output",
            &bin,
        ])
        .expect("generate");
        assert!(run([
            "simulate", "--trace", &bin, "--sets", "4", "--assoc", "1", "--block", "4", "--policy",
            "belady"
        ])
        .is_err());
        assert!(run([
            "generate",
            "--app",
            "quake",
            "--requests",
            "10",
            "--output",
            &bin
        ])
        .is_err());
        let _ = std::fs::remove_file(&bin);
    }

    #[test]
    fn sweep_timeout_exits_partial_with_a_resume_hint() {
        let bin = tmp("to.dewt");
        let ckpt = tmp("to.ckpt");
        run([
            "generate",
            "--app",
            "cjpeg",
            "--requests",
            "20000",
            "--output",
            &bin,
        ])
        .expect("generate");
        // A zero-second budget expires before the first chunk, so every job
        // is cut at its deadline and the sweep lands on the partial path.
        let err = run([
            "sweep",
            "--trace",
            &bin,
            "--sets",
            "0..4",
            "--blocks",
            "2..3",
            "--assocs",
            "0..2",
            "--timeout",
            "0",
            "--checkpoint",
            &ckpt,
        ])
        .expect_err("an expired budget is a partial run");
        match err {
            CliError::Partial(report) => {
                assert!(
                    report.contains("sweep interrupted (deadline exceeded)"),
                    "{report}"
                );
                assert!(report.contains("resume with:"), "{report}");
                assert!(
                    report.contains(&format!("--resume {ckpt}")),
                    "resume hint names the checkpoint: {report}"
                );
            }
            other => panic!("expected Partial, got {other:?}"),
        }
        assert!(
            std::fs::metadata(&ckpt).is_ok(),
            "the final checkpoint was flushed before exit"
        );
        let _ = std::fs::remove_file(&bin);
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn sweep_checkpoint_into_a_missing_directory_fails_naming_the_path() {
        let bin = tmp("nodir.dewt");
        let ckpt = tmp("no_such_dir/x.dewc");
        run([
            "generate",
            "--app",
            "cjpeg",
            "--requests",
            "5000",
            "--output",
            &bin,
        ])
        .expect("generate");
        let err = run([
            "sweep",
            "--trace",
            &bin,
            "--sets",
            "0..3",
            "--blocks",
            "2..3",
            "--assocs",
            "0..1",
            "--checkpoint",
            &ckpt,
        ])
        .expect_err("the checkpoint cannot be written");
        assert_eq!(err.exit_code(), 1, "{err}");
        assert!(
            matches!(err, CliError::Dew(DewError::Checkpoint(_))),
            "{err:?}"
        );
        assert!(err.to_string().contains(&ckpt), "{err}");
        let _ = std::fs::remove_file(&bin);
    }

    #[test]
    fn a_missing_trace_is_an_error_naming_the_file() {
        for path in ["/does/not/exist.dewt", "/does/not/exist.din"] {
            let err = run(["sweep", "--trace", path]).expect_err("the trace is missing");
            assert!(matches!(err, CliError::Trace(TraceError::Io(_))), "{err:?}");
            assert_eq!(err.exit_code(), 1, "{err}");
            assert!(err.to_string().contains(path), "{err}");
        }
    }

    #[test]
    fn sweep_timeout_generous_enough_still_completes() {
        let bin = tmp("tok.dewt");
        run([
            "generate",
            "--app",
            "cjpeg",
            "--requests",
            "3000",
            "--output",
            &bin,
        ])
        .expect("generate");
        let msg = run([
            "sweep",
            "--trace",
            &bin,
            "--sets",
            "0..2",
            "--blocks",
            "2..2",
            "--assocs",
            "0..1",
            "--timeout",
            "300",
        ])
        .expect("a generous budget changes nothing");
        assert!(msg.contains("swept 6 configurations"), "{msg}");
        assert!(!msg.contains("sweep interrupted"), "{msg}");
        let _ = std::fs::remove_file(&bin);
    }

    #[test]
    fn serve_self_shutdown_returns_a_drain_report() {
        let msg = run([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--queue",
            "2",
            "--shutdown-after-ms",
            "100",
        ])
        .expect("serve with a self-shutdown deadline");
        assert!(msg.contains("server stopped after"), "{msg}");
        assert!(msg.contains("drain: 0 in flight"), "idle drain: {msg}");
    }

    #[test]
    fn gen_drives_a_real_server_and_reports_both_ledgers() {
        let server = dew_serve::Server::start(dew_serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 8,
            ..Default::default()
        })
        .expect("server starts");
        let addr = server.addr().to_string();
        let json = tmp("gen.json");
        let msg = run([
            "gen",
            "--addr",
            &addr,
            "--jobs",
            "4",
            "--concurrency",
            "2",
            "--requests",
            "2000",
            "--mix",
            "loop",
            "--json",
            &json,
        ])
        .expect("gen against a live server");
        assert!(msg.contains("4 submitted"), "{msg}");
        assert!(msg.contains("server stats:"), "{msg}");
        assert!(!msg.contains("does not reconcile"), "{msg}");
        let blob = std::fs::read_to_string(&json).expect("json report written");
        assert!(blob.contains("\"completed\""), "{blob}");
        let report = server.stop();
        assert_eq!(report.in_flight, 0);
        let _ = std::fs::remove_file(&json);
    }

    #[test]
    fn serve_and_gen_reject_bad_arguments() {
        assert!(matches!(
            run(["gen", "--mix", "pareto"]),
            Err(CliError::Args(ArgsError::BadValue { key, .. })) if key == "mix"
        ));
        assert!(matches!(
            run(["gen", "--rate", "-3"]),
            Err(CliError::Args(ArgsError::BadValue { key, .. })) if key == "rate"
        ));
        assert!(matches!(
            run(["serve", "--port", "80"]),
            Err(CliError::Args(ArgsError::Unknown(k))) if k == "port"
        ));
    }
}
