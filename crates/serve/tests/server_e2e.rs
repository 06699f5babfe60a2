//! End-to-end protocol tests: a real `Server` on a loopback port, driven
//! through real sockets, asserting the robustness contracts the crate
//! exists for — one response per request, one terminal state per job,
//! counters that reconcile, shedding under overload, deadline and cancel
//! semantics, and graceful drain.

use std::time::Duration;

use dew_serve::gen::{fetch_stats, run_gen, Client, GenConfig};
use dew_serve::json::{num, obj, str, Json};
use dew_serve::server::{ServeConfig, Server};
use dew_workloads::traffic::MixKind;

fn start(cfg: ServeConfig) -> (Server, String) {
    let server = Server::start(cfg).expect("server binds on loopback");
    let addr = server.addr().to_string();
    (server, addr)
}

fn client(addr: &str) -> Client {
    Client::connect(addr, Duration::from_secs(30)).expect("client connects")
}

fn stat(stats: &Json, field: &str) -> u64 {
    stats
        .get("stats")
        .and_then(|s| s.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats field {field} missing in {}", stats.emit()))
}

#[test]
fn submit_wait_complete_and_counters_reconcile() {
    let (server, addr) = start(ServeConfig::default());
    let mut c = client(&addr);

    let sub = c
        .request(&Json::parse(r#"{"cmd":"submit","mix":"loop","requests":5000,"seed":3}"#).unwrap())
        .expect("submit");
    assert_eq!(
        sub.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        sub.emit()
    );
    let id = sub.get("id").and_then(Json::as_u64).expect("job id");

    let done = c
        .request(&obj([
            ("cmd", str("wait")),
            ("id", num(id)),
            ("timeout_ms", num(30_000)),
        ]))
        .expect("wait");
    assert_eq!(
        done.get("status").and_then(Json::as_str),
        Some("completed"),
        "{}",
        done.emit()
    );
    let result = done.get("result").expect("completed jobs carry a summary");
    // 5 set sizes × 3 block sizes × 3 assocs = 45 configurations.
    assert_eq!(result.get("configs").and_then(Json::as_u64), Some(45));
    assert_eq!(result.get("accesses").and_then(Json::as_u64), Some(5_000));

    // Status after the fact returns the same terminal state.
    let status = c
        .request(&obj([("cmd", str("status")), ("id", num(id))]))
        .expect("status");
    assert_eq!(
        status.get("status").and_then(Json::as_str),
        Some("completed")
    );

    let stats = fetch_stats(&addr, Duration::from_secs(5)).expect("stats");
    assert_eq!(stat(&stats, "submitted"), 1);
    assert_eq!(stat(&stats, "accepted"), 1);
    assert_eq!(stat(&stats, "completed"), 1);
    assert_eq!(stat(&stats, "rejected_overloaded"), 0);

    let health = c.request(&obj([("cmd", str("health"))])).expect("health");
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    server.stop();
}

#[test]
fn explore_jobs_return_a_pareto_summary() {
    let (server, addr) = start(ServeConfig::default());
    let mut c = client(&addr);
    let sub = c
        .request(
            &Json::parse(r#"{"cmd":"submit","kind":"explore","mix":"mix","requests":8000}"#)
                .unwrap(),
        )
        .expect("submit");
    let id = sub.get("id").and_then(Json::as_u64).expect("id");
    let done = c
        .request(&obj([
            ("cmd", str("wait")),
            ("id", num(id)),
            ("timeout_ms", num(30_000)),
        ]))
        .expect("wait");
    let result = done.get("result").expect("summary");
    assert!(
        result
            .get("pareto_front")
            .and_then(Json::as_u64)
            .expect("front size")
            >= 1
    );
    assert!(result.get("best_edp").is_some(), "{}", done.emit());
    server.stop();
}

#[test]
fn overload_sheds_with_structured_rejections_and_nothing_is_lost() {
    // One worker, a queue of one, and a closed-loop burst wider than both:
    // admission control must shed, and the ledger must still reconcile.
    let (server, addr) = start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let mut c = client(&addr);
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for seed in 0..8 {
        let line = format!(r#"{{"cmd":"submit","mix":"zipf","requests":150000,"seed":{seed}}}"#);
        let resp = c.request(&Json::parse(&line).unwrap()).expect("submit");
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            accepted.push(resp.get("id").and_then(Json::as_u64).expect("id"));
        } else {
            assert_eq!(
                resp.get("rejected").and_then(Json::as_str),
                Some("overloaded"),
                "rejections must be structured: {}",
                resp.emit()
            );
            assert!(resp.get("retry_after_ms").is_some());
            rejected += 1;
        }
    }
    assert!(rejected > 0, "8 bursts into a 1+1 pipeline must shed");
    assert!(!accepted.is_empty(), "the pipeline still admits work");

    for id in &accepted {
        let done = c
            .request(&obj([
                ("cmd", str("wait")),
                ("id", num(*id)),
                ("timeout_ms", num(60_000)),
            ]))
            .expect("wait");
        assert_eq!(
            done.get("status").and_then(Json::as_str),
            Some("completed"),
            "{}",
            done.emit()
        );
    }

    let stats = fetch_stats(&addr, Duration::from_secs(5)).expect("stats");
    assert_eq!(stat(&stats, "submitted"), 8);
    assert_eq!(stat(&stats, "accepted"), accepted.len() as u64);
    assert_eq!(stat(&stats, "rejected_overloaded"), rejected);
    assert_eq!(stat(&stats, "completed"), accepted.len() as u64);
    server.stop();
}

#[test]
fn cancel_reaches_a_cancelled_terminal_state() {
    let (server, addr) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut c = client(&addr);
    // A long job (5M zipf requests) so cancellation lands mid-flight.
    let sub = c
        .request(&Json::parse(r#"{"cmd":"submit","requests":5000000}"#).unwrap())
        .expect("submit");
    let id = sub.get("id").and_then(Json::as_u64).expect("id");

    let cancel = c
        .request(&obj([("cmd", str("cancel")), ("id", num(id))]))
        .expect("cancel");
    assert_eq!(cancel.get("ok").and_then(Json::as_bool), Some(true));

    let done = c
        .request(&obj([
            ("cmd", str("wait")),
            ("id", num(id)),
            ("timeout_ms", num(30_000)),
        ]))
        .expect("wait");
    assert_eq!(
        done.get("status").and_then(Json::as_str),
        Some("cancelled"),
        "{}",
        done.emit()
    );

    // Cancelling again reports the terminal state without double counting.
    let again = c
        .request(&obj([("cmd", str("cancel")), ("id", num(id))]))
        .expect("re-cancel");
    assert_eq!(
        again.get("already_terminal").and_then(Json::as_bool),
        Some(true)
    );

    let stats = fetch_stats(&addr, Duration::from_secs(5)).expect("stats");
    assert_eq!(stat(&stats, "cancelled"), 1);
    assert_eq!(stat(&stats, "completed"), 0);
    server.stop();
}

#[test]
fn deadlines_terminate_jobs_with_a_checkpointed_cut() {
    let (server, addr) = start(ServeConfig::default());
    let mut c = client(&addr);
    // 1 ms of deadline against 5M requests: the deadline always wins.
    let sub = c
        .request(&Json::parse(r#"{"cmd":"submit","requests":5000000,"deadline_ms":1}"#).unwrap())
        .expect("submit");
    let id = sub.get("id").and_then(Json::as_u64).expect("id");
    let done = c
        .request(&obj([
            ("cmd", str("wait")),
            ("id", num(id)),
            ("timeout_ms", num(30_000)),
        ]))
        .expect("wait");
    assert_eq!(
        done.get("status").and_then(Json::as_str),
        Some("deadline_exceeded"),
        "{}",
        done.emit()
    );
    // The cut reports the stream prefix it simulated, never more than the
    // job's requests however many block sizes the space holds; jobs keep
    // no checkpoint.
    let records_done = done.get("records_done").and_then(Json::as_u64);
    assert!(
        records_done.is_some_and(|r| r <= 5_000_000),
        "{}",
        done.emit()
    );
    assert!(done.get("checkpointed").is_none(), "{}", done.emit());
    let stats = fetch_stats(&addr, Duration::from_secs(5)).expect("stats");
    assert_eq!(stat(&stats, "deadline_exceeded"), 1);
    server.stop();
}

#[test]
fn chaos_jobs_complete_through_retries() {
    let (server, addr) = start(ServeConfig::default());
    let mut c = client(&addr);
    let sub = c
        .request(&Json::parse(r#"{"cmd":"submit","requests":20000,"chaos":true}"#).unwrap())
        .expect("submit");
    let id = sub.get("id").and_then(Json::as_u64).expect("id");
    let done = c
        .request(&obj([
            ("cmd", str("wait")),
            ("id", num(id)),
            ("timeout_ms", num(60_000)),
        ]))
        .expect("wait");
    assert_eq!(
        done.get("status").and_then(Json::as_str),
        Some("completed"),
        "chaos faults are transient, so the retry machinery must absorb them: {}",
        done.emit()
    );
    let retries = done
        .get("result")
        .and_then(|r| r.get("retries"))
        .and_then(Json::as_u64)
        .expect("retry tally");
    assert!(
        retries > 0,
        "the injected open fault must have forced a retry"
    );
    server.stop();
}

#[test]
fn graceful_shutdown_drains_and_sheds_with_a_report() {
    let (server, addr) = start(ServeConfig {
        workers: 1,
        queue_capacity: 8,
        drain_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let mut c = client(&addr);
    // Fill the pipeline: one long job runs, several queue behind it.
    let mut ids = Vec::new();
    for seed in 0..4 {
        let line = format!(r#"{{"cmd":"submit","requests":5000000,"seed":{seed}}}"#);
        let resp = c.request(&Json::parse(&line).unwrap()).expect("submit");
        ids.push(resp.get("id").and_then(Json::as_u64).expect("admitted"));
    }

    let down = c
        .request(&obj([("cmd", str("shutdown"))]))
        .expect("shutdown responds before the socket closes");
    assert_eq!(down.get("ok").and_then(Json::as_bool), Some(true));
    let drain = down.get("drain").expect("drain report");
    let in_flight = drain
        .get("in_flight")
        .and_then(Json::as_u64)
        .expect("in_flight");
    let drained = drain
        .get("drained")
        .and_then(Json::as_u64)
        .expect("drained");
    let cancelled = drain
        .get("cancelled")
        .and_then(Json::as_u64)
        .expect("cancelled");
    let shed = drain.get("shed").and_then(Json::as_u64).expect("shed");
    assert_eq!(
        in_flight + shed,
        4,
        "every admitted job is in the report: {}",
        down.emit()
    );
    assert_eq!(
        drained + cancelled,
        in_flight,
        "in-flight jobs drained or cancelled"
    );
    assert!(
        shed >= 2,
        "queued jobs behind a 5M-request job must be shed"
    );

    // Every job is in a terminal state; none lost.
    for id in &ids {
        let status = c
            .request(&obj([("cmd", str("status")), ("id", num(*id))]))
            .expect("status after shutdown");
        let s = status.get("status").and_then(Json::as_str).expect("state");
        assert!(
            ["completed", "cancelled", "deadline_exceeded", "shed"].contains(&s),
            "job {id} ended as {s}"
        );
    }

    // Admissions are now refused as draining.
    let refused = c
        .request(&Json::parse(r#"{"cmd":"submit","requests":1000}"#).unwrap())
        .expect("post-shutdown submit gets a response");
    assert_eq!(
        refused.get("rejected").and_then(Json::as_str),
        Some("draining")
    );

    let report = server.stop();
    assert_eq!(report.in_flight + report.shed, 4);
    server_stopped_is_idempotent(report.shed, shed);
}

fn server_stopped_is_idempotent(a: u64, b: u64) {
    assert_eq!(a, b, "stop() returns the same report the protocol saw");
}

#[test]
fn malformed_lines_and_unknown_ids_get_structured_errors() {
    let (server, addr) = start(ServeConfig::default());
    let mut c = client(&addr);
    let bad = c
        .request(&Json::parse(r#"{"cmd":"fly"}"#).unwrap())
        .expect("response");
    assert_eq!(bad.get("ok").and_then(Json::as_bool), Some(false));
    assert!(bad
        .get("error")
        .and_then(Json::as_str)
        .expect("msg")
        .contains("unknown cmd"));

    let missing = c
        .request(&obj([("cmd", str("status")), ("id", num(999))]))
        .expect("response");
    assert!(missing
        .get("error")
        .and_then(Json::as_str)
        .expect("msg")
        .contains("unknown job id 999"));

    // An invalid geometry is a submit-time error, not a failed job.
    let invalid = c
        .request(&Json::parse(r#"{"cmd":"submit","sets":"0..31"}"#).unwrap())
        .expect("response");
    assert!(invalid
        .get("error")
        .and_then(Json::as_str)
        .expect("msg")
        .contains("invalid space"));

    // Same for an unregistered policy: the submit response carries a
    // structured protocol error naming the valid set — the job never
    // reaches a worker, so no job id is allocated and nothing fails
    // worker-side.
    let unknown_policy = c
        .request(&Json::parse(r#"{"cmd":"submit","policy":"lfu"}"#).unwrap())
        .expect("response");
    assert_eq!(
        unknown_policy.get("ok").and_then(Json::as_bool),
        Some(false)
    );
    let msg = unknown_policy
        .get("error")
        .and_then(Json::as_str)
        .expect("msg");
    assert!(
        msg.contains("unknown policy `lfu`") && msg.contains("fifo|lru|plru|slru"),
        "unexpected error message: {msg}"
    );
    assert!(
        unknown_policy.get("id").is_none(),
        "a rejected submit must not allocate a job id"
    );
    server.stop();
}

#[test]
fn over_long_and_deeply_nested_lines_are_refused_while_others_are_served() {
    use std::io::{BufRead, BufReader, Read, Write};
    let (server, addr) = start(ServeConfig::default());
    let mut good = client(&addr);

    // A 1 MiB line of `[` on its own connection: longer than any request
    // line the server buffers, and nested far past the parser's bound.
    let hostile = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(&addr).expect("connects");
            s.set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            let mut line = "[".repeat(1 << 20);
            line.push('\n');
            s.write_all(line.as_bytes())
                .expect("the server drains the line");
            let mut reader = BufReader::new(s);
            let mut reply = String::new();
            reader.read_line(&mut reply).expect("a structured reply");
            let mut rest = Vec::new();
            let closed = reader.read_to_end(&mut rest).expect("then a clean close");
            (reply, closed)
        })
    };
    // The other client is served throughout.
    let mut served = 0;
    while !hostile.is_finished() || served == 0 {
        let stats = good
            .request(&obj([("cmd", str("stats"))]))
            .expect("served while the hostile line streams");
        assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));
        served += 1;
    }
    let (reply, closed) = hostile.join().expect("hostile client");
    let reply = Json::parse(reply.trim()).expect("the refusal is JSON");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    let msg = reply.get("error").and_then(Json::as_str).expect("msg");
    assert!(msg.contains("longer than 65536 bytes"), "{msg}");
    assert_eq!(closed, 0, "the connection is dropped after the refusal");

    // Deep nesting within the line cap is a positioned parse error on a
    // connection that stays open.
    let mut raw = std::net::TcpStream::connect(&addr).expect("connects");
    raw.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut exchange = |line: &str| {
        raw.write_all(format!("{line}\n").as_bytes()).expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        Json::parse(reply.trim()).expect("replies are JSON")
    };
    let deep = exchange(&"[".repeat(60_000));
    assert_eq!(deep.get("ok").and_then(Json::as_bool), Some(false));
    let msg = deep.get("error").and_then(Json::as_str).expect("msg");
    assert!(
        msg.contains("nesting deeper than 128 levels at byte 128"),
        "{msg}"
    );
    let stats = exchange(r#"{"cmd":"stats"}"#);
    assert_eq!(stats.get("ok").and_then(Json::as_bool), Some(true));

    // Jobs still run.
    let sub = good
        .request(&Json::parse(r#"{"cmd":"submit","mix":"zipf","requests":2000}"#).unwrap())
        .expect("submit");
    let id = sub.get("id").and_then(Json::as_u64).expect("job id");
    let done = good
        .request(&obj([
            ("cmd", str("wait")),
            ("id", num(id)),
            ("timeout_ms", num(30_000)),
        ]))
        .expect("wait");
    assert_eq!(
        done.get("status").and_then(Json::as_str),
        Some("completed"),
        "{}",
        done.emit()
    );
    let stats = fetch_stats(&addr, Duration::from_secs(30)).expect("stats");
    assert_eq!(stat(&stats, "malformed"), 2);
    server.stop();
}

#[test]
fn open_loop_gen_against_a_small_server_reconciles() {
    // Concurrency (6) far above workers (2) with a tiny queue: the classic
    // soak shape, shrunk to test size. Zero lost responses is the claim.
    let (server, addr) = start(ServeConfig {
        workers: 2,
        queue_capacity: 2,
        ..ServeConfig::default()
    });
    let report = run_gen(&GenConfig {
        addr,
        jobs: 24,
        concurrency: 6,
        mix: MixKind::Zipf,
        requests: 60_000,
        rate: Some(400.0),
        ..GenConfig::default()
    });
    assert_eq!(report.submitted, 24);
    assert!(report.reconciles(), "{report}");
    assert_eq!(report.transport_errors, 0, "{report}");
    assert_eq!(report.wait_timeouts, 0, "{report}");
    assert!(report.completed > 0, "{report}");

    // Server-side ledger agrees with the client-side log.
    let stats = fetch_stats(&server.addr().to_string(), Duration::from_secs(5)).expect("stats");
    assert_eq!(stat(&stats, "submitted"), 24);
    assert_eq!(stat(&stats, "completed"), report.completed);
    assert_eq!(
        stat(&stats, "rejected_overloaded"),
        report.rejected_overloaded
    );
    assert_eq!(
        stat(&stats, "accepted"),
        report.completed
            + report.deadline_exceeded
            + report.cancelled
            + report.failed
            + report.shed
    );
    server.stop();
}
