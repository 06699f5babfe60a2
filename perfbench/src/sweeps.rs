//! The three batch workloads: `sweep_fifo`, `explore_policies` and
//! `sweep_checkpointed`. Each run sets up its trace file, makes one
//! untimed warm-up call that the oracle checks, then repeats the user's
//! call for the requested time, repeating the set-up between calls.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dew_core::{
    kernel::selftest, ConfigSpace, FileCheckpointStore, Resilience, SweepCheckpoint, SweepOutcome,
    SweepRequest, TreePolicy,
};
use dew_explore::{
    explore_trace, score_sweeps, EnergyModel, ExplorationReport, ExplorationSpace, ParetoMode,
};
use dew_trace::{binary::BinReader, Record, Trace, TraceError, TraceSource};
use dew_workloads::mediabench::App;

use crate::adapters::{count_work, replay, Layers, TimedSource, TimedStore};
use crate::oracle::{digest_outcome, policy_code, Gate};
use crate::stats::{interquartile_mean, median, quantile, Digest, Metrics};
use crate::{RunArgs, RunResult, SETUP_REPEATS};

/// Sweep threads, as `dew sweep --threads 2` on a two-core host.
pub const THREADS: usize = 2;
/// Requests in the CJPEG surrogate of `sweep_fifo`. Short calls put many
/// samples into each run's interquartile mean (see README.md, Noise).
pub const FIFO_REQUESTS: u64 = 500_000;
/// Requests in the CJPEG surrogate of `sweep_checkpointed`: two
/// checkpoint intervals at the CLI's default cadence.
pub const CHECKPOINTED_REQUESTS: u64 = 2_000_000;
/// Requests in the MPEG2-decode surrogate of `explore_policies`: each of a
/// call's 28 block-size jobs runs long enough that the workers' start and
/// join between the four policies stay a small share of the call.
pub const EXPLORE_REQUESTS: u64 = 100_000;
/// The CLI's default checkpoint cadence (`--checkpoint-every`).
pub const CHECKPOINT_EVERY: u64 = 1_000_000;
/// Calls made at least, however long they take.
const MIN_CALLS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fifo,
    Explore,
    Checkpointed,
}

impl Kind {
    fn app(self) -> App {
        match self {
            Kind::Explore => App::Mpeg2Decode,
            Kind::Fifo | Kind::Checkpointed => App::JpegEncode,
        }
    }

    fn requests(self) -> u64 {
        match self {
            Kind::Fifo => FIFO_REQUESTS,
            Kind::Explore => EXPLORE_REQUESTS,
            Kind::Checkpointed => CHECKPOINTED_REQUESTS,
        }
    }

    fn space(self) -> ConfigSpace {
        let (sets, blocks) = match self {
            Kind::Fifo => ((0, 14), (0, 6)),
            // Sets up to 2^10 keep each block-size job's arena (about
            // 0.6 MiB) in a core's private L2 (see README.md, Noise).
            Kind::Explore => ((0, 10), (0, 6)),
            Kind::Checkpointed => ((0, 14), (4, 6)),
        };
        ConfigSpace::new(sets, blocks, (0, 4)).expect("the space is valid")
    }

    fn policies(self) -> &'static [TreePolicy] {
        match self {
            Kind::Explore => &TreePolicy::ALL,
            Kind::Fifo | Kind::Checkpointed => &[TreePolicy::Fifo],
        }
    }
}

struct Ctx {
    kind: Kind,
    space: ConfigSpace,
    trace_path: PathBuf,
    ckpt_path: PathBuf,
    records: Vec<Record>,
}

/// One call of the user path.
struct Call {
    wall: f64,
    /// Fingerprint of everything the call returned; equal across calls.
    check: u64,
    /// The sweep outcomes, when the call exposes them.
    sweeps: Vec<SweepOutcome>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// A [`TraceSource`] re-opening the binary trace file on every traversal.
fn file_source(path: &Path) -> impl TraceSource + '_ {
    move || -> Result<BinReader<BufReader<File>>, TraceError> {
        BinReader::new(BufReader::new(File::open(path)?))
    }
}

fn report_digest(report: &ExplorationReport) -> u64 {
    let mut d = Digest::default();
    for p in report.points() {
        let g = p.evaluation.geometry;
        for w in [
            policy_code(p.policy),
            u64::from(g.sets),
            u64::from(g.assoc),
            u64::from(g.block_bytes),
            p.evaluation.misses,
            u64::from(p.on_frontier),
        ] {
            d.push(w);
        }
    }
    d.push(report.frontier().len() as u64);
    d.0
}

fn checked(out: SweepOutcome) -> Result<SweepOutcome, String> {
    if out.is_partial() {
        return Err(format!(
            "partial outcome: {} failed jobs",
            out.failed_jobs().len()
        ));
    }
    Ok(out)
}

fn exploration(space: ConfigSpace) -> ExplorationSpace {
    ExplorationSpace::new(space).with_policies(&TreePolicy::ALL)
}

/// The user's call, untraced: what `dew sweep` / `dew explore` run.
fn call(ctx: &Ctx) -> Result<Call, String> {
    let t = Instant::now();
    match ctx.kind {
        Kind::Fifo => {
            let trace = Trace::read_bin_file(&ctx.trace_path).map_err(|e| e.to_string())?;
            let out = SweepRequest::new(&ctx.space)
                .policy(TreePolicy::Fifo)
                .threads(THREADS)
                .run(trace.records())
                .map_err(|e| e.to_string())?;
            let wall = secs(t);
            let out = checked(out)?;
            let mut d = Digest::default();
            digest_outcome(&mut d, &out);
            Ok(Call {
                wall,
                check: d.0,
                sweeps: vec![out],
            })
        }
        Kind::Explore => {
            let trace = Trace::read_bin_file(&ctx.trace_path).map_err(|e| e.to_string())?;
            let report = explore_trace(
                &exploration(ctx.space),
                trace.records(),
                &EnergyModel::default(),
                ParetoMode::Pruned,
                THREADS,
            )
            .map_err(|e| e.to_string())?;
            std::hint::black_box(report.frontier());
            let wall = secs(t);
            Ok(Call {
                wall,
                check: report_digest(&report),
                sweeps: Vec::new(),
            })
        }
        Kind::Checkpointed => {
            let store = FileCheckpointStore::new(&ctx.ckpt_path);
            let res = Resilience::new().with_checkpoint(CHECKPOINT_EVERY, &store);
            let out = SweepRequest::new(&ctx.space)
                .policy(TreePolicy::Fifo)
                .threads(THREADS)
                .resilient(&res)
                .run_streamed(&file_source(&ctx.trace_path))
                .map_err(|e| e.to_string())?;
            let wall = secs(t);
            let out = checked(out)?;
            let mut d = Digest::default();
            digest_outcome(&mut d, &out);
            Ok(Call {
                wall,
                check: d.0,
                sweeps: vec![out],
            })
        }
    }
}

/// The same call with spans around each layer it enters. Explore is
/// decomposed into its public halves: one `SweepRequest` per policy, then
/// `score_sweeps`, then `frontier`.
fn traced_call(ctx: &Ctx, layers: &Layers) -> Result<Call, String> {
    let t = Instant::now();
    let (check, sweeps) = match ctx.kind {
        Kind::Fifo | Kind::Explore => {
            let trace = layers
                .time("trace.load_s", || Trace::read_bin_file(&ctx.trace_path))
                .map_err(|e| e.to_string())?;
            let mut sweeps = Vec::new();
            let mut sweep_s = 0.0;
            for &policy in ctx.kind.policies() {
                let ts = Instant::now();
                let out = SweepRequest::new(&ctx.space)
                    .policy(policy)
                    .threads(THREADS)
                    .run(trace.records())
                    .map_err(|e| e.to_string())?;
                sweep_s += secs(ts);
                layers.add("sweep.traversals", out.trace_traversals() as f64);
                sweeps.push(checked(out)?);
            }
            layers.add("sweep.run_s", sweep_s);
            if ctx.kind == Kind::Explore {
                let report = layers.time("explore.score_s", || {
                    score_sweeps(
                        &exploration(ctx.space),
                        &sweeps,
                        &EnergyModel::default(),
                        ParetoMode::Pruned,
                        sweep_s,
                    )
                });
                std::hint::black_box(layers.time("explore.frontier_s", || report.frontier()));
                layers.add("explore.candidates", report.candidates() as f64);
                layers.add(
                    "explore.pruned_frac",
                    report.pruned_dominated() as f64 / report.candidates() as f64,
                );
                (report_digest(&report), sweeps)
            } else {
                let mut d = Digest::default();
                digest_outcome(&mut d, &sweeps[0]);
                (d.0, sweeps)
            }
        }
        Kind::Checkpointed => {
            let store = TimedStore {
                inner: FileCheckpointStore::new(&ctx.ckpt_path),
                layers,
            };
            let res = Resilience::new().with_checkpoint(CHECKPOINT_EVERY, &store);
            let source = TimedSource {
                inner: file_source(&ctx.trace_path),
                layers,
            };
            let out = layers
                .time("sweep.run_s", || {
                    SweepRequest::new(&ctx.space)
                        .policy(TreePolicy::Fifo)
                        .threads(THREADS)
                        .resilient(&res)
                        .run_streamed(&source)
                })
                .map_err(|e| e.to_string())?;
            layers.add("sweep.traversals", out.trace_traversals() as f64);
            let out = checked(out)?;
            let mut d = Digest::default();
            digest_outcome(&mut d, &out);
            (d.0, vec![out])
        }
    };
    Ok(Call {
        wall: secs(t),
        check,
        sweeps,
    })
}

/// One set-up: generates the workload's trace, writes it where the user
/// path reads it and runs the kernel self-test. Returns the records and the
/// set-up and generation times.
fn set_up(kind: Kind, trace_path: &Path, seed: u64) -> Result<(Vec<Record>, f64, f64), String> {
    let t = Instant::now();
    let trace = kind.app().generate(kind.requests(), seed);
    let gen = secs(t);
    trace
        .write_bin_file(trace_path)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    selftest::verify()?;
    Ok((trace.into_records(), secs(t), gen))
}

/// Whether the next of [`SETUP_REPEATS`] set-ups is due: they are spread
/// evenly over the run, so that their median, like the calls, samples the
/// whole run and not the host's speed in its first second.
fn setup_due(done: usize, elapsed: Duration, budget: Duration) -> bool {
    done < SETUP_REPEATS && elapsed >= budget.mul_f64(done as f64 / SETUP_REPEATS as f64)
}

pub fn run(kind: Kind, args: &RunArgs) -> Result<RunResult, String> {
    let trace_path = args.work_dir.join("trace.dewt");
    let (records, total, gen) = set_up(kind, &trace_path, args.seed)?;
    let (mut setups, mut gens) = (vec![total], vec![gen]);
    let ctx = Ctx {
        kind,
        space: kind.space(),
        ckpt_path: args.work_dir.join("sweep.dewc"),
        trace_path,
        records,
    };
    let mut result = RunResult::default();

    // Untimed warm-up: its outcomes feed the oracle gate and the digest
    // every later call must reproduce.
    let warm = traced_call(&ctx, &Layers::default())?;
    let mut gate = Gate::default();
    let mut digest = Digest::default();
    for out in &warm.sweeps {
        gate.check(&ctx.space, out, &ctx.records);
        digest_outcome(&mut digest, out);
    }
    result.attempted += 1;
    result.failed += u64::from(gate.mismatches > 0);
    result.notes.push(format!(
        "miss digest {:016x} over {} sweep(s); oracle {} configs, {} mismatches",
        digest.0,
        warm.sweeps.len(),
        gate.configs,
        gate.mismatches
    ));

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut walls, mut traced_walls, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    let min_calls = if args.trace { 1 } else { MIN_CALLS };
    while walls.len() < min_calls || start.elapsed() < budget {
        if setup_due(setups.len(), start.elapsed(), budget) {
            let (_, total, gen) = set_up(kind, &ctx.trace_path, args.seed)?;
            setups.push(total);
            gens.push(gen);
        }
        let plain = call(&ctx);
        result.attempted += 1;
        match plain {
            Ok(c) if c.check == warm.check => walls.push(c.wall),
            Ok(_) => {
                result.failed += 1;
                eprintln!("call returned results that differ from the warm-up call");
            }
            Err(e) => {
                result.failed += 1;
                eprintln!("call failed: {e}");
            }
        }
        if args.trace {
            let layers = Layers::default();
            let traced = traced_call(&ctx, &layers);
            result.attempted += 1;
            match traced {
                Ok(c) if c.check == warm.check => {
                    traced_walls.push(c.wall);
                    spans.push(layers.into_map());
                }
                _ => result.failed += 1,
            }
        }
        if result.failed > 0 {
            break;
        }
    }
    while setups.len() < SETUP_REPEATS {
        let (_, total, gen) = set_up(kind, &ctx.trace_path, args.seed)?;
        setups.push(total);
        gens.push(gen);
    }
    let m = &mut result.metrics;
    m.set("setup_s", median(&setups));
    m.set("workloads.gen_s", median(&gens));
    m.set("oracle.configs", gate.configs as f64);
    m.set("oracle.mismatches", gate.mismatches as f64);
    m.set("wall_s", interquartile_mean(&walls));
    result.notes.push(format!(
        "{} untraced calls timed: fastest {:.4} s, interquartile mean {:.4} s, median {:.4} s, slowest {:.4} s",
        walls.len(),
        quantile(&walls, 0.0),
        interquartile_mean(&walls),
        median(&walls),
        quantile(&walls, 1.0)
    ));
    if args.trace {
        per_layer(&ctx, &walls, &traced_walls, &spans, m);
    }
    let _ = std::fs::remove_file(&ctx.ckpt_path);
    Ok(result)
}

/// Per-layer figures: medians of the traced calls' spans, one replay of
/// every policy's kernels, instrumented work counts, and for checkpointed
/// sweeps the snapshot and resume costs.
fn per_layer(
    ctx: &Ctx,
    walls: &[f64],
    traced_walls: &[f64],
    spans: &[BTreeMap<String, f64>],
    m: &mut Metrics,
) {
    let keys: std::collections::BTreeSet<&String> = spans.iter().flat_map(|s| s.keys()).collect();
    for key in keys {
        let v: Vec<f64> = spans
            .iter()
            .map(|s| s.get(key).copied().unwrap_or(0.0))
            .collect();
        m.set(key.as_str(), median(&v));
    }

    let once = Layers::default();
    let records = ctx.records.len() as f64;
    let jobs = f64::from(ctx.space.block_bits().1 - ctx.space.block_bits().0 + 1);
    let mut children = m.get("trace.stream_s") + m.get("checkpoint.save_s");
    for &policy in ctx.kind.policies() {
        let snapshot = ctx.kind == Kind::Checkpointed;
        replay(&ctx.space, policy, &ctx.records, THREADS, snapshot, &once);
        let p = policy.name();
        let run_s = once.get(&format!("kernel.{p}.run_s"));
        children += once.get(&format!("kernel.{p}.build_s")) + run_s;
        m.set(
            format!("kernel.{p}.ns_per_req"),
            run_s * 1e9 / (records * jobs),
        );
        let [tags, nodes, mra] = count_work(&ctx.space, policy, &ctx.records);
        m.set(format!("kernel.{p}.tag_cmp_per_req"), tags as f64 / records);
        m.set(
            format!("kernel.{p}.node_evals_per_req"),
            nodes as f64 / records,
        );
        m.set(
            format!("kernel.{p}.mra_stop_frac"),
            mra as f64 / nodes as f64,
        );
    }
    if ctx.kind == Kind::Checkpointed {
        if let Ok(bytes) = std::fs::read(&ctx.ckpt_path) {
            let ckpt = once.time("checkpoint.decode_s", || {
                SweepCheckpoint::from_bytes(&bytes)
            });
            assert!(ckpt.is_ok(), "the last checkpoint image decodes");
        }
    }
    children += once.get("trace.decode_s") + once.get("results.fanout_s");
    let encode_per_job = once.get("snapshot.encode_s") / jobs;
    for (k, v) in once.into_map() {
        m.set(k, v);
    }
    if ctx.kind == Kind::Checkpointed {
        // The driver encodes one job's kernel per save.
        let encode = encode_per_job * m.get("checkpoint.saves");
        m.set("snapshot.encode_s", encode);
        children += encode;
    }

    // Children of the sweep call are busy seconds summed over the worker
    // threads; inside the call they overlap `THREADS` ways.
    let driver = m.get("sweep.run_s") - children / THREADS as f64;
    m.set("sweep.driver_s", driver);
    let traced_wall = median(traced_walls);
    let self_times = m.get("trace.load_s")
        + children / THREADS as f64
        + driver
        + m.get("explore.score_s")
        + m.get("explore.frontier_s");
    m.set("traced.wall_s", traced_wall);
    m.set("traced.accounted_frac", self_times / traced_wall);
    m.set("tracing_overhead_frac", traced_wall / median(walls) - 1.0);
}
