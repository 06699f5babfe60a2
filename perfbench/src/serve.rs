//! The `serve_jobs` workload: an in-process `dew serve` fed open-loop.
//!
//! One connection submits job `i` at its due time `t0 + i / RATE` whatever
//! the server is doing; a second connection waits on the admitted jobs in
//! order. A job's latency runs from its due time to its terminal state:
//! the submit acknowledgement time plus the server's `queued_ms` and
//! `run_ms` from the terminal `wait` response, so a job that finishes
//! before the waiter reaches it is not charged for the waiter's delay.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use dew_core::{kernel::selftest, ConfigSpace, SweepRequest, TreePolicy};
use dew_explore::{best_edp_under, evaluate_sweep, pareto_front, EnergyModel};
use dew_serve::json::{num, obj, str, Json};
use dew_serve::{Client, ServeConfig, Server};
use dew_trace::Record;
use dew_workloads::traffic::{MixKind, TrafficSpec};

use crate::oracle::{digest_outcome, Gate};
use crate::stats::{median, quantile, Digest};
use crate::{RunArgs, RunResult, SETUP_REPEATS};

/// Open-loop submission rate in jobs per second.
pub const RATE: f64 = 6.0;
/// Requests per job of each mix, scaled so that every mix costs about the
/// same: a zipf or mix stream builds a 2^18-entry popularity table on each
/// open, a loop or scan stream costs only its records.
const JOB_REQUESTS: [u64; 4] = [50_000, 400_000, 80_000, 50_000];
/// Jobs submitted at least, so p90 keeps more than ten jobs beyond it.
const MIN_JOBS: u64 = 120;
const MIXES: [MixKind; 4] = [MixKind::Zipf, MixKind::Loop, MixKind::Scan, MixKind::Mix];
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// The server's default space (`dew serve` submit without sets/blocks/assocs).
const SPACE: ((u32, u32), (u32, u32), (u32, u32)) = ((4, 8), (5, 7), (0, 2));

/// Job `i` cycles through the four policies, then the four mixes.
fn job_kind(i: u64) -> (TreePolicy, usize) {
    (TreePolicy::ALL[(i % 4) as usize], ((i / 4) % 4) as usize)
}

fn traffic(seed: u64, mix: usize) -> TrafficSpec {
    TrafficSpec {
        kind: MIXES[mix],
        requests: JOB_REQUESTS[mix],
        seed: seed.wrapping_mul(16).wrapping_add(mix as u64),
    }
}

fn submit_body(policy: TreePolicy, spec: TrafficSpec) -> Json {
    obj([
        ("cmd", str("submit")),
        ("kind", str("explore")),
        ("policy", str(policy.name())),
        ("mix", str(spec.kind.name())),
        ("requests", num(spec.requests)),
        ("seed", num(spec.seed)),
    ])
}

/// What a completed job's summary must say, from a local sweep of the same
/// inputs that the oracle has checked.
fn expected_summary(
    policy: TreePolicy,
    spec: TrafficSpec,
    gate: &mut Gate,
    d: &mut Digest,
) -> Json {
    let space = ConfigSpace::new(SPACE.0, SPACE.1, SPACE.2).expect("the serve space is valid");
    let records: Vec<Record> = spec.records().collect();
    let out = SweepRequest::new(&space)
        .policy(policy)
        .threads(1)
        .run(&records)
        .expect("the serve space is sound for every policy");
    gate.check(&space, &out, &records);
    digest_outcome(d, &out);
    let evals = evaluate_sweep(&out, &EnergyModel::default());
    let best =
        best_edp_under(&evals, 64 * 1024).expect("the space has configurations under 64 KiB");
    obj([
        ("accesses", num(out.accesses())),
        ("configs", num(out.config_count() as u64)),
        ("pareto_front", num(pareto_front(&evals).len() as u64)),
        (
            "best_edp",
            obj([
                ("sets", num(u64::from(best.geometry.sets))),
                ("assoc", num(u64::from(best.geometry.assoc))),
                ("block_bytes", num(u64::from(best.geometry.block_bytes))),
            ]),
        ),
    ])
}

fn summary_matches(result: Option<&Json>, want: &Json) -> bool {
    let (Some(Json::Obj(got)), Json::Obj(want)) = (result, want) else {
        return false;
    };
    want.iter().all(|(k, v)| got.get(k) == Some(v))
}

fn request(client: &mut Client, body: &Json) -> Result<Json, String> {
    client
        .request(body)
        .map_err(|e| format!("serve protocol: {e}"))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Set-up as users pay it before the first answer at full speed: start
/// the server, run the kernel self-test, then submit one job per policy at
/// once and wait for all four, so both workers pay their lazy start-up
/// costs. Returns the server and the time taken.
fn start_server(seed: u64) -> Result<(Server, f64), String> {
    let t = Instant::now();
    let server = Server::start(ServeConfig::default()).map_err(|e| format!("serve: {e}"))?;
    selftest::verify()?;
    let mut client =
        Client::connect(&server.addr().to_string(), IO_TIMEOUT).map_err(|e| e.to_string())?;
    let mut ids = Vec::new();
    for policy in TreePolicy::ALL {
        let ack = request(&mut client, &submit_body(policy, traffic(seed, 0)))?;
        ids.push(
            ack.get("id")
                .and_then(Json::as_u64)
                .ok_or("warm-up job rejected")?,
        );
    }
    for id in ids {
        request(&mut client, &obj([("cmd", str("wait")), ("id", num(id))]))?;
    }
    Ok((server, t.elapsed().as_secs_f64()))
}

/// One admitted or refused submission, as the sender saw it.
struct Sent {
    index: u64,
    due: Instant,
    acked: Instant,
    id: Option<u64>,
}

/// One job's end as the waiter saw it.
struct Done {
    latency_ms: f64,
    queued_ms: f64,
    run_ms: f64,
    ok: bool,
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    // Half the set-ups before the jobs and half after them, so their
    // median samples the host at both ends of the run.
    let mut setups = Vec::new();
    for _ in 1..SETUP_REPEATS / 2 {
        let (server, secs) = start_server(args.seed)?;
        server.stop();
        setups.push(secs);
    }
    let (server, secs) = start_server(args.seed)?;
    setups.push(secs);
    let addr = server.addr().to_string();

    // Untimed: the expected summary of every (policy, mix) the jobs cycle
    // through, from oracle-checked local sweeps.
    let mut gate = Gate::default();
    let mut digest = Digest::default();
    let expected: Vec<Json> = (0..16)
        .map(|i| {
            let (policy, mix) = job_kind(i);
            expected_summary(policy, traffic(args.seed, mix), &mut gate, &mut digest)
        })
        .collect();

    let jobs = ((args.seconds as f64 * RATE).ceil() as u64).max(MIN_JOBS);
    let deadline = ServeConfig::default().default_deadline;
    let mut submitter = Client::connect(&addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
    let mut waiter = Client::connect(&addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
    let (tx, rx) = mpsc::channel::<Sent>();
    let (sent, done) = std::thread::scope(|s| {
        let waiting = s.spawn(move || {
            let mut done = Vec::new();
            for job in rx {
                let Some(id) = job.id else {
                    done.push(None);
                    continue;
                };
                let wait = obj([
                    ("cmd", str("wait")),
                    ("id", num(id)),
                    ("timeout_ms", num(60_000)),
                ]);
                let Ok(terminal) = request(&mut waiter, &wait) else {
                    done.push(None);
                    continue;
                };
                let field = |k: &str| terminal.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
                let (queued_ms, run_ms) = (field("queued_ms"), field("run_ms"));
                let latency_ms = ms(job.acked - job.due) + queued_ms + run_ms;
                let completed = terminal.get("status").and_then(Json::as_str) == Some("completed");
                let want = &expected[(job.index % 16) as usize];
                done.push(Some(Done {
                    latency_ms,
                    queued_ms,
                    run_ms,
                    ok: completed
                        && latency_ms <= ms(deadline)
                        && summary_matches(terminal.get("result"), want),
                }));
            }
            done
        });
        let t0 = Instant::now();
        let mut sent = Vec::new();
        for i in 0..jobs {
            let due = t0 + Duration::from_secs_f64(i as f64 / RATE);
            if let Some(pause) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(pause);
            }
            let (policy, mix) = job_kind(i);
            let sent_at = Instant::now();
            let ack = request(
                &mut submitter,
                &submit_body(policy, traffic(args.seed, mix)),
            );
            let acked = Instant::now();
            let id = ack.ok().and_then(|a| a.get("id").and_then(Json::as_u64));
            sent.push((ms(sent_at - due), ms(acked - sent_at), id.is_some()));
            let job = Sent {
                index: i,
                due,
                acked,
                id,
            };
            if tx.send(job).is_err() {
                break;
            }
        }
        drop(tx);
        (sent, waiting.join().expect("waiter thread panicked"))
    });
    drop(submitter);
    let report = server.stop();
    while setups.len() < SETUP_REPEATS {
        let (server, secs) = start_server(args.seed)?;
        server.stop();
        setups.push(secs);
    }

    let mut result = RunResult {
        attempted: sent.len() as u64,
        failed: done
            .iter()
            .filter(|d| !d.as_ref().is_some_and(|d| d.ok))
            .count() as u64
            + u64::from(gate.mismatches > 0),
        ..RunResult::default()
    };
    let ok: Vec<&Done> = done.iter().flatten().filter(|d| d.ok).collect();
    let latency: Vec<f64> = ok.iter().map(|d| d.latency_ms / 1e3).collect();
    let queued: Vec<f64> = ok.iter().map(|d| d.queued_ms).collect();
    let run: Vec<f64> = ok.iter().map(|d| d.run_ms).collect();
    let overhead: Vec<f64> = ok
        .iter()
        .map(|d| d.latency_ms - d.queued_ms - d.run_ms)
        .collect();
    let late: Vec<f64> = sent.iter().map(|s| s.0).collect();
    let rtt: Vec<f64> = sent.iter().map(|s| s.1).collect();
    let p90 = |v: &[f64]| quantile(v, 0.9);

    let m = &mut result.metrics;
    m.set("setup_s", median(&setups));
    m.set("wall_s", median(&latency));
    m.set("serve.job_ms_p90", p90(&latency) * 1e3);
    m.set("serve.queue_ms_p50", median(&queued));
    m.set("serve.queue_ms_p90", p90(&queued));
    m.set("serve.run_ms_p50", median(&run));
    m.set("serve.run_ms_p90", p90(&run));
    m.set("serve.submit_rtt_ms_p50", median(&rtt));
    m.set("serve.overhead_ms_p50", median(&overhead));
    m.set("serve.accepted", sent.iter().filter(|s| s.2).count() as f64);
    m.set(
        "serve.rejected",
        sent.iter().filter(|s| !s.2).count() as f64,
    );
    m.set("serve.completed", ok.len() as f64);
    m.set("gen.late_ms_p90", p90(&late));
    m.set("oracle.configs", gate.configs as f64);
    m.set("oracle.mismatches", gate.mismatches as f64);
    // The per-layer figures come from responses the untraced run already
    // receives, so tracing adds no work here. A job's latency splits into
    // client overhead, queue wait and run time.
    m.set("tracing_overhead_frac", 0.0);
    m.set("traced.wall_s", median(&latency));
    m.set(
        "traced.accounted_frac",
        (median(&overhead) + median(&queued) + median(&run)) / 1e3 / median(&latency),
    );
    result.notes.push(format!(
        "miss digest {:016x} over 16 reference sweeps; oracle {} configs, {} mismatches",
        digest.0, gate.configs, gate.mismatches
    ));
    result.notes.push(format!(
        "{} jobs at {RATE} jobs/s, {} completed, workers {:.0}% busy; {report}",
        sent.len(),
        ok.len(),
        run.iter().sum::<f64>() / 1e3 / (jobs as f64 / RATE) / 2.0 * 100.0,
    ));
    Ok(result)
}
