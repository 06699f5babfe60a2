//! Serve soak benchmark: drives a real in-process `dew serve` instance
//! with the `dew gen` load generator at a concurrency deliberately higher
//! than the worker pool, and asserts the service's core robustness
//! contract on every CI run:
//!
//! - **Zero lost responses.** Every submitted job is observed in exactly
//!   one terminal state (completed / deadline-exceeded / cancelled /
//!   rejected-overloaded / rejected-draining / shed), the client-side
//!   ledger reconciles, and the server's own counters agree with it.
//! - **Bounded shed rate.** The bounded admission queue is allowed to
//!   shed under pressure — that is the point — but shedding must stay a
//!   pressure valve, not the common case: the closed-loop phase must
//!   complete at least half of what it submits.
//! - **Graceful shutdown under load.** A second wave of deliberately
//!   long jobs is cut off mid-flight by a drain; the drain report must
//!   account for every in-flight job as drained or cancelled,
//!   and queued jobs as shed.
//!
//! Writes `BENCH_serve_soak.json` (override with `DEW_BENCH_JSON`) in the
//! same `{"name", "steps_per_sec"}` variant shape as the other benches so
//! `bench_guard` can track completed-jobs/sec, alongside the latency
//! percentiles. Scale: `DEW_BENCH_QUICK=1` runs a short soak; the full
//! run is larger. `DEW_BENCH_CHAOS=1` additionally asks the server to
//! wrap every job's trace source in the deterministic fault injector
//! (flaky opens + transient read faults + injected latency), which the
//! workers must absorb via retries without breaking any of the above.

use std::fmt::Write as _;
use std::time::Duration;

use dew_serve::gen::fetch_stats;
use dew_serve::{run_gen, GenConfig, GenReport, ServeConfig, Server};
use dew_workloads::traffic::MixKind;

/// Start a soak server: more client threads than these workers guarantees
/// queue pressure; the small queue guarantees shedding is exercised.
fn soak_server(workers: usize, queue: usize) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_capacity: queue,
        default_deadline: Duration::from_secs(30),
        max_deadline: Duration::from_secs(60),
        drain_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    })
    .expect("soak server starts")
}

/// Pull one named counter out of the server's `stats` response (the
/// counters live under the response's `"stats"` object).
fn stat(stats: &dew_serve::json::Json, key: &str) -> u64 {
    stats
        .get("stats")
        .and_then(|s| s.get(key))
        .and_then(dew_serve::json::Json::as_u64)
        .unwrap_or_else(|| panic!("stats response carries {key}"))
}

/// The closed-loop soak phase: returns the client ledger after asserting
/// it reconciles against itself *and* against the server's counters.
fn soak(server: &Server, jobs: u64, requests: u64, chaos: bool) -> GenReport {
    let addr = server.addr().to_string();
    let cfg = GenConfig {
        addr: addr.clone(),
        jobs,
        concurrency: 6, // > workers: sustained queue pressure by design
        mix: MixKind::Mix,
        requests,
        seed: 99,
        rate: None, // closed loop: each thread resubmits as soon as one ends
        deadline_ms: Some(30_000),
        chaos,
        wait_timeout_ms: 120_000,
        io_timeout: Duration::from_secs(30),
    };
    let report = run_gen(&cfg);
    println!("{report}");

    assert!(
        report.reconciles(),
        "a submitted job vanished without a terminal state: {report}"
    );
    assert_eq!(report.transport_errors, 0, "no connection may drop");
    assert_eq!(report.wait_timeouts, 0, "no response may be lost");
    assert_eq!(report.failed, 0, "no job may fail outright");
    assert!(
        report.completed * 2 >= report.submitted,
        "shedding must stay bounded: only {}/{} completed",
        report.completed,
        report.submitted
    );

    // The server's ledger must tell the same story as the client's.
    let stats = fetch_stats(&addr, Duration::from_secs(5)).expect("stats reachable");
    assert_eq!(stat(&stats, "submitted"), report.submitted);
    assert_eq!(stat(&stats, "completed"), report.completed);
    assert_eq!(
        stat(&stats, "rejected_overloaded"),
        report.rejected_overloaded
    );
    assert_eq!(stat(&stats, "deadline_exceeded"), report.deadline_exceeded);
    report
}

/// Graceful-shutdown-under-load phase: long jobs are in flight and queued
/// when the drain starts; the report must account for every one of them.
fn shutdown_under_load(chaos: bool) {
    let server = soak_server(1, 4);
    let addr = server.addr().to_string();
    let mut client =
        dew_serve::Client::connect(&addr, Duration::from_secs(30)).expect("client connects");
    let wave = 5u64;
    let mut ids = Vec::new();
    for i in 0..wave {
        let body = dew_serve::json::obj([
            ("cmd", dew_serve::json::str("submit")),
            ("mix", dew_serve::json::str("scan")),
            ("requests", dew_serve::json::num(4_000_000)),
            ("seed", dew_serve::json::num(100 + i)),
            ("chaos", dew_serve::json::Json::Bool(chaos)),
        ]);
        let resp = client.request(&body).expect("submit succeeds");
        if let Some(id) = resp.get("id").and_then(dew_serve::json::Json::as_u64) {
            ids.push(id);
        }
    }
    assert!(!ids.is_empty(), "at least one long job was admitted");
    // Give the single worker a moment to pick one up, then cut everything.
    std::thread::sleep(Duration::from_millis(150));
    let report = server.stop();
    println!("shutdown under load: {report}");
    assert_eq!(
        report.drained + report.cancelled,
        report.in_flight,
        "every in-flight job must drain or cancel at a chunk boundary: {report}"
    );
    assert_eq!(
        report.in_flight + report.shed,
        ids.len() as u64,
        "every admitted job is either in flight or shed at drain time: {report}"
    );
}

fn main() {
    let quick = std::env::var_os("DEW_BENCH_QUICK").is_some();
    let chaos = std::env::var_os("DEW_BENCH_CHAOS").is_some();
    let (jobs, requests): (u64, u64) = if quick { (24, 20_000) } else { (64, 100_000) };

    eprintln!(
        "serve soak: {jobs} jobs x {requests} requests, 6 client threads vs 2 workers{}",
        if chaos { ", chaos on" } else { "" }
    );
    let server = soak_server(2, 4);
    let report = soak(&server, jobs, requests, chaos);
    let drain = server.stop();
    assert_eq!(drain.in_flight, 0, "the soak left nothing in flight");
    shutdown_under_load(chaos);
    println!("serve soak passed: no lost responses, bounded shed, clean drain");

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"serve_soak\",");
    let _ = writeln!(json, "  \"unix_time\": {unix_time},");
    let _ = writeln!(json, "  \"jobs\": {jobs},");
    let _ = writeln!(json, "  \"requests_per_job\": {requests},");
    let _ = writeln!(json, "  \"chaos\": {chaos},");
    let _ = writeln!(json, "  \"completed\": {},", report.completed);
    let _ = writeln!(
        json,
        "  \"rejected_overloaded\": {},",
        report.rejected_overloaded
    );
    let _ = writeln!(json, "  \"p50_ms\": {:.1},", report.percentile_ms(50.0));
    let _ = writeln!(json, "  \"p95_ms\": {:.1},", report.percentile_ms(95.0));
    let _ = writeln!(json, "  \"p99_ms\": {:.1},", report.percentile_ms(99.0));
    json.push_str("  \"variants\": [\n");
    let _ = writeln!(
        json,
        "    {{\"name\": \"closed_loop_jobs\", \"steps_per_sec\": {:.3}}}",
        report.jobs_per_sec()
    );
    json.push_str("  ]\n}\n");

    let path = std::env::var("DEW_BENCH_JSON").unwrap_or_else(|_| "BENCH_serve_soak.json".into());
    std::fs::write(&path, json).expect("write bench json");
    println!("wrote {path}");
}
