//! `dew gen`: a load generator for `dew serve`.
//!
//! Drives a server with a configurable request mix at a configurable
//! pressure, and — crucially for the soak harness — keeps a *client-side
//! log of every job's terminal outcome*, so the run can be reconciled
//! against the server's counters: every submitted job must end in exactly
//! one of completed / rejected / deadline-exceeded / cancelled / failed /
//! shed, with nothing lost and nothing double-counted.
//!
//! Two pressure modes:
//!
//! * **closed loop** (`rate: None`) — each client thread submits its next
//!   job as soon as the previous one reaches a terminal state; pressure
//!   adapts to service capacity (the classic saturation probe);
//! * **open loop** (`rate: Some(r)`) — jobs are released on a fixed
//!   schedule of `r` jobs/second across all threads regardless of
//!   completions, which is what actually exercises admission control: a
//!   slow server faces a growing backlog and must shed.
//!
//! The report carries jobs/sec plus p50/p95/p99 submit→terminal latency
//! over completed jobs, and every rejection/timeout tally.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use dew_workloads::traffic::MixKind;

use crate::json::{num, obj, str, Json};

/// One protocol connection: line out, line in.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects and applies `io_timeout` to reads and writes.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the connection cannot be established.
    pub fn connect(addr: &str, io_timeout: Duration) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Sends one request object, returns the one response object.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] on transport failure, a closed connection, or a
    /// response that is not valid JSON.
    pub fn request(&mut self, body: &Json) -> std::io::Result<Json> {
        let mut line = body.emit();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Json::parse(response.trim()).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad response JSON: {e}"),
            )
        })
    }
}

/// What one generated job's lifecycle ended as, from the client's view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum JobOutcome {
    /// Terminal `completed`.
    Completed,
    /// Terminal `deadline_exceeded`.
    DeadlineExceeded,
    /// Terminal `cancelled`.
    Cancelled,
    /// Terminal `failed`.
    Failed,
    /// Terminal `shed` (queued job dropped by a server drain).
    Shed,
    /// Never admitted: `rejected: overloaded`.
    RejectedOverloaded,
    /// Never admitted: `rejected: draining`.
    RejectedDraining,
    /// The wait timed out before a terminal state was observed.
    WaitTimeout,
    /// The connection failed mid-job.
    TransportError,
}

/// Load-generator parameters; the CLI maps `dew gen` flags onto these.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Total jobs to submit across all threads.
    pub jobs: u64,
    /// Client threads (each with its own connection).
    pub concurrency: usize,
    /// Request mix submitted with every job.
    pub mix: MixKind,
    /// Requests per job.
    pub requests: u64,
    /// Base seed; job `i` is submitted with `seed + i` so every job's
    /// stream is distinct yet the whole run replays deterministically.
    pub seed: u64,
    /// `Some(r)`: open-loop at `r` jobs/sec overall; `None`: closed loop.
    pub rate: Option<f64>,
    /// Per-job deadline forwarded to the server.
    pub deadline_ms: Option<u64>,
    /// Submit jobs with chaos (fault-injected sources) enabled.
    pub chaos: bool,
    /// Client-side cap on each terminal-state wait.
    pub wait_timeout_ms: u64,
    /// Connection I/O timeout.
    pub io_timeout: Duration,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            addr: String::new(),
            jobs: 16,
            concurrency: 4,
            mix: MixKind::Zipf,
            requests: 20_000,
            seed: 1,
            rate: None,
            deadline_ms: None,
            chaos: false,
            wait_timeout_ms: 60_000,
            io_timeout: Duration::from_secs(30),
        }
    }
}

/// The reconciled result of one generator run.
#[derive(Debug, Clone, Default)]
pub struct GenReport {
    /// Jobs the generator attempted to submit.
    pub submitted: u64,
    /// Terminal `completed` observations.
    pub completed: u64,
    /// Terminal `deadline_exceeded` observations.
    pub deadline_exceeded: u64,
    /// Terminal `cancelled` observations.
    pub cancelled: u64,
    /// Terminal `failed` observations.
    pub failed: u64,
    /// Terminal `shed` observations.
    pub shed: u64,
    /// `rejected: overloaded` responses.
    pub rejected_overloaded: u64,
    /// `rejected: draining` responses.
    pub rejected_draining: u64,
    /// Client-side wait timeouts (job never observed terminal).
    pub wait_timeouts: u64,
    /// Transport failures.
    pub transport_errors: u64,
    /// Wall-clock of the whole run.
    pub elapsed: Duration,
    /// Submit→terminal latencies of *completed* jobs, milliseconds,
    /// sorted ascending.
    pub latencies_ms: Vec<f64>,
}

impl GenReport {
    /// Every submitted job is accounted for exactly once.
    #[must_use]
    pub fn reconciles(&self) -> bool {
        self.completed
            + self.deadline_exceeded
            + self.cancelled
            + self.failed
            + self.shed
            + self.rejected_overloaded
            + self.rejected_draining
            + self.wait_timeouts
            + self.transport_errors
            == self.submitted
    }

    /// Completed jobs per second of wall clock.
    #[must_use]
    pub fn jobs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            #[allow(clippy::cast_precision_loss)]
            {
                self.completed as f64 / secs
            }
        } else {
            0.0
        }
    }

    /// Latency percentile (`p` in 0..=100) over completed jobs, by the
    /// nearest-rank method; 0.0 when nothing completed.
    #[must_use]
    pub fn percentile_ms(&self, p: f64) -> f64 {
        if self.latencies_ms.is_empty() {
            return 0.0;
        }
        let n = self.latencies_ms.len();
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        self.latencies_ms[rank - 1]
    }

    /// The report as a JSON object (the shape `dew gen --json` prints).
    #[must_use]
    pub fn to_json(&self) -> Json {
        obj([
            ("submitted", num(self.submitted)),
            ("completed", num(self.completed)),
            ("deadline_exceeded", num(self.deadline_exceeded)),
            ("cancelled", num(self.cancelled)),
            ("failed", num(self.failed)),
            ("shed", num(self.shed)),
            ("rejected_overloaded", num(self.rejected_overloaded)),
            ("rejected_draining", num(self.rejected_draining)),
            ("wait_timeouts", num(self.wait_timeouts)),
            ("transport_errors", num(self.transport_errors)),
            ("elapsed_ms", Json::Num(self.elapsed.as_secs_f64() * 1e3)),
            ("jobs_per_sec", Json::Num(self.jobs_per_sec())),
            ("p50_ms", Json::Num(self.percentile_ms(50.0))),
            ("p95_ms", Json::Num(self.percentile_ms(95.0))),
            ("p99_ms", Json::Num(self.percentile_ms(99.0))),
        ])
    }

    fn record(&mut self, outcome: JobOutcome, latency: Duration) {
        self.submitted += 1;
        match outcome {
            JobOutcome::Completed => {
                self.completed += 1;
                self.latencies_ms.push(latency.as_secs_f64() * 1e3);
            }
            JobOutcome::DeadlineExceeded => self.deadline_exceeded += 1,
            JobOutcome::Cancelled => self.cancelled += 1,
            JobOutcome::Failed => self.failed += 1,
            JobOutcome::Shed => self.shed += 1,
            JobOutcome::RejectedOverloaded => self.rejected_overloaded += 1,
            JobOutcome::RejectedDraining => self.rejected_draining += 1,
            JobOutcome::WaitTimeout => self.wait_timeouts += 1,
            JobOutcome::TransportError => self.transport_errors += 1,
        }
    }

    fn merge(&mut self, other: GenReport) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.deadline_exceeded += other.deadline_exceeded;
        self.cancelled += other.cancelled;
        self.failed += other.failed;
        self.shed += other.shed;
        self.rejected_overloaded += other.rejected_overloaded;
        self.rejected_draining += other.rejected_draining;
        self.wait_timeouts += other.wait_timeouts;
        self.transport_errors += other.transport_errors;
        self.latencies_ms.extend(other.latencies_ms);
    }
}

impl std::fmt::Display for GenReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "gen: {} submitted in {:.2}s ({:.1} completed jobs/s)",
            self.submitted,
            self.elapsed.as_secs_f64(),
            self.jobs_per_sec()
        )?;
        writeln!(
            f,
            "  completed {}  deadline {}  cancelled {}  failed {}  shed {}",
            self.completed, self.deadline_exceeded, self.cancelled, self.failed, self.shed
        )?;
        writeln!(
            f,
            "  rejected: overloaded {}  draining {}  wait-timeouts {}  transport {}",
            self.rejected_overloaded,
            self.rejected_draining,
            self.wait_timeouts,
            self.transport_errors
        )?;
        write!(
            f,
            "  latency ms: p50 {:.1}  p95 {:.1}  p99 {:.1}",
            self.percentile_ms(50.0),
            self.percentile_ms(95.0),
            self.percentile_ms(99.0)
        )
    }
}

fn submit_body(cfg: &GenConfig, job_index: u64) -> Json {
    let mut m = std::collections::BTreeMap::new();
    m.insert("cmd".to_owned(), str("submit"));
    m.insert("mix".to_owned(), str(cfg.mix.name()));
    m.insert("requests".to_owned(), num(cfg.requests));
    m.insert("seed".to_owned(), num(cfg.seed + job_index));
    if let Some(ms) = cfg.deadline_ms {
        m.insert("deadline_ms".to_owned(), num(ms));
    }
    if cfg.chaos {
        m.insert("chaos".to_owned(), Json::Bool(true));
    }
    Json::Obj(m)
}

/// Drives one job to its client-visible end state.
fn run_one(client: &mut Client, cfg: &GenConfig, job_index: u64) -> (JobOutcome, Duration) {
    let begin = Instant::now();
    let response = match client.request(&submit_body(cfg, job_index)) {
        Ok(r) => r,
        Err(_) => return (JobOutcome::TransportError, begin.elapsed()),
    };
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        let outcome = match response.get("rejected").and_then(Json::as_str) {
            Some("overloaded") => JobOutcome::RejectedOverloaded,
            Some("draining") => JobOutcome::RejectedDraining,
            _ => JobOutcome::Failed,
        };
        return (outcome, begin.elapsed());
    }
    let Some(id) = response.get("id").and_then(Json::as_u64) else {
        return (JobOutcome::TransportError, begin.elapsed());
    };
    let wait = obj([
        ("cmd", str("wait")),
        ("id", num(id)),
        ("timeout_ms", num(cfg.wait_timeout_ms)),
    ]);
    let terminal = match client.request(&wait) {
        Ok(r) => r,
        Err(_) => return (JobOutcome::TransportError, begin.elapsed()),
    };
    let latency = begin.elapsed();
    if terminal.get("timed_out").and_then(Json::as_bool) == Some(true) {
        return (JobOutcome::WaitTimeout, latency);
    }
    let outcome = match terminal.get("status").and_then(Json::as_str) {
        Some("completed") => JobOutcome::Completed,
        Some("deadline_exceeded") => JobOutcome::DeadlineExceeded,
        Some("cancelled") => JobOutcome::Cancelled,
        Some("shed") => JobOutcome::Shed,
        _ => JobOutcome::Failed,
    };
    (outcome, latency)
}

/// Runs the full generator: `cfg.jobs` submissions spread over
/// `cfg.concurrency` threads, each logged to a terminal outcome.
///
/// A connection that dies is reopened for the next job, so one reset does
/// not poison a whole thread's schedule.
#[must_use]
pub fn run_gen(cfg: &GenConfig) -> GenReport {
    let started = Instant::now();
    let threads = cfg.concurrency.max(1);
    let reports: Vec<GenReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut report = GenReport::default();
                    let mut client = Client::connect(&cfg.addr, cfg.io_timeout).ok();
                    let mut index = t as u64;
                    while index < cfg.jobs {
                        // Open loop: release job `index` at its scheduled
                        // instant regardless of past completions.
                        if let Some(rate) = cfg.rate {
                            let due =
                                started + Duration::from_secs_f64(index as f64 / rate.max(0.001));
                            if let Some(pause) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(pause);
                            }
                        }
                        if client.is_none() {
                            client = Client::connect(&cfg.addr, cfg.io_timeout).ok();
                        }
                        match client.as_mut() {
                            None => report.record(JobOutcome::TransportError, Duration::ZERO),
                            Some(c) => {
                                let (outcome, latency) = run_one(c, cfg, index);
                                if outcome == JobOutcome::TransportError {
                                    client = None; // reconnect next job
                                }
                                report.record(outcome, latency);
                            }
                        }
                        index += threads as u64;
                    }
                    report
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("gen thread panicked"))
            .collect()
    });
    let mut total = GenReport::default();
    for r in reports {
        total.merge(r);
    }
    total.elapsed = started.elapsed();
    total
        .latencies_ms
        .sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    total
}

/// Fetches the server's `stats` counters over a fresh connection —
/// the other half of the reconciliation the soak harness performs.
///
/// # Errors
///
/// [`std::io::Error`] on transport failure or a malformed response.
pub fn fetch_stats(addr: &str, io_timeout: Duration) -> std::io::Result<Json> {
    let mut client = Client::connect(addr, io_timeout)?;
    client.request(&obj([("cmd", str("stats"))]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_reconciles_and_ranks_percentiles() {
        let mut r = GenReport::default();
        for (i, outcome) in [
            JobOutcome::Completed,
            JobOutcome::Completed,
            JobOutcome::Completed,
            JobOutcome::Completed,
            JobOutcome::DeadlineExceeded,
            JobOutcome::RejectedOverloaded,
            JobOutcome::Cancelled,
        ]
        .into_iter()
        .enumerate()
        {
            r.record(outcome, Duration::from_millis(10 * (i as u64 + 1)));
        }
        r.elapsed = Duration::from_secs(2);
        r.latencies_ms
            .sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert!(r.reconciles());
        assert_eq!(r.submitted, 7);
        assert_eq!(r.completed, 4);
        assert!((r.jobs_per_sec() - 2.0).abs() < 1e-9);
        // Latencies 10,20,30,40 → p50 = 20, p99 = 40 by nearest rank.
        assert!((r.percentile_ms(50.0) - 20.0).abs() < 1e-9);
        assert!((r.percentile_ms(99.0) - 40.0).abs() < 1e-9);
        // One unaccounted job breaks reconciliation.
        r.submitted += 1;
        assert!(!r.reconciles());
    }

    #[test]
    fn empty_report_is_safe() {
        let r = GenReport::default();
        assert!(r.reconciles());
        assert_eq!(r.jobs_per_sec(), 0.0);
        assert_eq!(r.percentile_ms(99.0), 0.0);
        assert!(r.to_json().emit().contains("\"p99_ms\":0"));
    }

    #[test]
    fn submit_bodies_vary_seed_and_carry_flags() {
        let cfg = GenConfig {
            mix: MixKind::Mix,
            deadline_ms: Some(500),
            chaos: true,
            seed: 100,
            ..GenConfig::default()
        };
        let a = submit_body(&cfg, 0).emit();
        let b = submit_body(&cfg, 3).emit();
        assert!(a.contains("\"seed\":100"));
        assert!(b.contains("\"seed\":103"));
        assert!(a.contains("\"deadline_ms\":500"));
        assert!(a.contains("\"chaos\":true"));
        assert!(a.contains("\"mix\":\"mix\""));
    }
}
