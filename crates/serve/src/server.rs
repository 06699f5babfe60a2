//! The `dew serve` server: a bounded-admission, deadline-aware, drainable
//! simulation service over plain `std::net` TCP.
//!
//! Architecture (no async runtime — blocking threads end to end):
//!
//! ```text
//!             accept loop (nonblocking, 10 ms poll)
//!                  │ one thread per connection
//!                  ▼
//!   parse line → admission ──full──▶ rejected: overloaded   (shed, never queued)
//!                  │ try_push(id)
//!                  ▼
//!           BoundedQueue<u64> ◀── close_and_drain() at shutdown (→ shed)
//!                  │ pop()
//!                  ▼
//!            worker pool (fixed) ── per-job CancelToken (deadline at admission)
//!                  │ resilient SweepRequest::run_streamed (retries, cancel token)
//!                  ▼
//!        job table: exactly one terminal state per admitted job
//!        {completed | deadline_exceeded | cancelled | failed | shed}
//! ```
//!
//! Invariants the soak bench asserts:
//!
//! * every submission gets exactly one response: an id (admitted) or a
//!   structured rejection (shed) — the accept path never blocks on the
//!   worker pool;
//! * every admitted job reaches exactly one terminal state, and the
//!   server's counters reconcile with the client-side log;
//! * graceful shutdown stops admissions, drains in-flight jobs (bounded
//!   by the drain timeout, after which their tokens are cancelled and the
//!   jobs stop at their next chunk boundary), and reports drained vs
//!   cancelled vs shed.
//!
//! Jobs keep no checkpoints: no protocol command resumes a job, so an
//! image would be written only to be dropped with the job. A deadline or
//! cancel reports how many records the job simulated before its cut.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::{num, obj, str, Json};
use crate::protocol::{JobKind, Request, SubmitRequest};
use crate::queue::{BoundedQueue, PushError};
use dew_core::{
    CancelReason, CancelToken, ConfigSpace, DewOptions, FailureKind, Resilience, RetryPolicy,
    SweepOutcome, SweepRequest,
};
use dew_explore::{best_edp_under, evaluate_sweep, pareto_front, EnergyModel};
use dew_trace::{FaultPlan, FaultyTraceSource, Record, TraceError, TraceSource};

/// Tunables of one server instance. [`ServeConfig::default`] suits tests
/// and the soak bench; the CLI maps flags onto these fields.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Admission-queue capacity; submissions beyond it are shed.
    pub queue_capacity: usize,
    /// Deadline applied when a submit omits `deadline_ms`.
    pub default_deadline: Duration,
    /// Upper bound on client-requested deadlines.
    pub max_deadline: Duration,
    /// Per-connection read/write timeout.
    pub io_timeout: Duration,
    /// How long graceful shutdown waits for in-flight jobs before
    /// cancelling their tokens (they stop at their next chunk boundary).
    pub drain_timeout: Duration,
    /// Simulation threads per job (jobs are the unit of parallelism, so 1
    /// is the right default; the worker pool provides the concurrency).
    pub sim_threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_capacity: 16,
            default_deadline: Duration::from_secs(10),
            max_deadline: Duration::from_secs(60),
            io_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
            sim_threads: 1,
        }
    }
}

/// Aggregate counters; every field is monotonic, so a client can diff two
/// snapshots. `submitted == accepted + rejected_overloaded +
/// rejected_draining`, and every accepted job eventually lands in exactly
/// one of the five terminal counters.
#[derive(Debug, Default)]
struct Stats {
    submitted: AtomicU64,
    accepted: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_draining: AtomicU64,
    malformed: AtomicU64,
    completed: AtomicU64,
    deadline_exceeded: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
}

impl Stats {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> Json {
        obj([
            ("submitted", num(self.submitted.load(Ordering::Relaxed))),
            ("accepted", num(self.accepted.load(Ordering::Relaxed))),
            (
                "rejected_overloaded",
                num(self.rejected_overloaded.load(Ordering::Relaxed)),
            ),
            (
                "rejected_draining",
                num(self.rejected_draining.load(Ordering::Relaxed)),
            ),
            ("malformed", num(self.malformed.load(Ordering::Relaxed))),
            ("completed", num(self.completed.load(Ordering::Relaxed))),
            (
                "deadline_exceeded",
                num(self.deadline_exceeded.load(Ordering::Relaxed)),
            ),
            ("cancelled", num(self.cancelled.load(Ordering::Relaxed))),
            ("failed", num(self.failed.load(Ordering::Relaxed))),
            ("shed", num(self.shed.load(Ordering::Relaxed))),
        ])
    }
}

/// One admitted job's lifecycle state.
#[derive(Debug, Clone)]
enum JobState {
    Queued,
    Running,
    Completed { summary: Json },
    DeadlineExceeded { records_done: u64 },
    Cancelled { records_done: u64 },
    Failed { error: String },
    Shed,
}

impl JobState {
    fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Completed { .. } => "completed",
            JobState::DeadlineExceeded { .. } => "deadline_exceeded",
            JobState::Cancelled { .. } => "cancelled",
            JobState::Failed { .. } => "failed",
            JobState::Shed => "shed",
        }
    }

    fn is_terminal(&self) -> bool {
        !matches!(self, JobState::Queued | JobState::Running)
    }
}

#[derive(Debug)]
struct JobEntry {
    req: SubmitRequest,
    token: CancelToken,
    state: JobState,
    submitted: Instant,
    started: Option<Instant>,
    finished: Option<Instant>,
}

struct Inner {
    cfg: ServeConfig,
    queue: BoundedQueue<u64>,
    jobs: Mutex<HashMap<u64, JobEntry>>,
    job_done: Condvar,
    next_id: AtomicU64,
    stats: Stats,
    /// Admissions stopped (drain begun).
    draining: AtomicBool,
    /// Accept loop should exit.
    stopping: AtomicBool,
    /// Serialises shutdown; holds the one computed report.
    drain_report: Mutex<Option<DrainReport>>,
}

/// What graceful shutdown did, for the `shutdown` response and the CLI's
/// exit report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Jobs running or queued when the drain began.
    pub in_flight: u64,
    /// Of those, jobs that reached a natural terminal state
    /// (completed/deadline/failed) within the drain timeout.
    pub drained: u64,
    /// Jobs force-cancelled when the drain timeout expired; each stopped
    /// at its next chunk boundary.
    pub cancelled: u64,
    /// Queued jobs that never started and were shed at shutdown.
    pub shed: u64,
}

impl DrainReport {
    /// The report as a protocol JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        obj([
            ("in_flight", num(self.in_flight)),
            ("drained", num(self.drained)),
            ("cancelled", num(self.cancelled)),
            ("shed", num(self.shed)),
        ])
    }
}

impl std::fmt::Display for DrainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drain: {} in flight, {} drained, {} cancelled, {} shed",
            self.in_flight, self.drained, self.cancelled, self.shed
        )
    }
}

/// A running `dew serve` instance. Dropping without [`Server::stop`] leaks
/// the threads until process exit; call `stop` for an orderly teardown.
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and the accept loop, and returns.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] when the address cannot be bound.
    pub fn start(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            queue: BoundedQueue::new(cfg.queue_capacity),
            jobs: Mutex::new(HashMap::new()),
            job_done: Condvar::new(),
            next_id: AtomicU64::new(1),
            stats: Stats::default(),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            drain_report: Mutex::new(None),
            cfg,
        });
        let workers = (0..inner.cfg.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("dew-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("dew-serve-accept".to_owned())
                .spawn(move || accept_loop(&listener, &inner))
                .expect("spawn accept loop")
        };
        Ok(Server {
            inner,
            addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether shutdown has been initiated (locally or via the protocol).
    #[must_use]
    pub fn is_stopping(&self) -> bool {
        self.inner.stopping.load(Ordering::Acquire)
    }

    /// Graceful shutdown plus thread teardown. Returns the drain report.
    pub fn stop(mut self) -> DrainReport {
        let report = self.inner.shutdown();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        report
    }
}

impl Inner {
    fn shutdown(&self) -> DrainReport {
        let mut slot = self.drain_report.lock().expect("drain lock poisoned");
        if let Some(report) = *slot {
            return report;
        }
        self.draining.store(true, Ordering::Release);

        // Shed everything still queued; those jobs never started.
        let shed_ids = self.queue.close_and_drain();
        let (in_flight, shed) = {
            let mut jobs = self.jobs.lock().expect("job table poisoned");
            let mut shed = 0;
            for id in shed_ids {
                if let Some(entry) = jobs.get_mut(&id) {
                    if !entry.state.is_terminal() {
                        entry.state = JobState::Shed;
                        entry.finished = Some(Instant::now());
                        Stats::bump(&self.stats.shed);
                        shed += 1;
                    }
                }
            }
            let running: Vec<u64> = jobs
                .iter()
                .filter(|(_, e)| !e.state.is_terminal())
                .map(|(id, _)| *id)
                .collect();
            self.job_done.notify_all();
            (running, shed)
        };

        // Phase 1: let in-flight jobs drain naturally.
        let drain_deadline = Instant::now() + self.cfg.drain_timeout;
        self.await_terminal(&in_flight, Some(drain_deadline));

        // Phase 2: cancel stragglers; they exit at the next chunk boundary,
        // so this wait is short and unbounded on purpose.
        {
            let jobs = self.jobs.lock().expect("job table poisoned");
            for id in &in_flight {
                if let Some(e) = jobs.get(id) {
                    if !e.state.is_terminal() {
                        e.token.cancel();
                    }
                }
            }
        }
        self.await_terminal(&in_flight, None);

        let (drained, cancelled) = {
            let jobs = self.jobs.lock().expect("job table poisoned");
            let mut drained = 0;
            let mut cancelled = 0;
            for id in &in_flight {
                match jobs.get(id).map(|e| &e.state) {
                    Some(JobState::Cancelled { .. }) => cancelled += 1,
                    Some(s) if s.is_terminal() && !matches!(s, JobState::Shed) => drained += 1,
                    _ => {}
                }
            }
            (drained, cancelled)
        };
        let report = DrainReport {
            in_flight: in_flight.len() as u64,
            drained,
            cancelled,
            shed,
        };
        *slot = Some(report);
        self.stopping.store(true, Ordering::Release);
        report
    }

    /// Blocks until every id in `ids` is terminal, or `until` passes.
    fn await_terminal(&self, ids: &[u64], until: Option<Instant>) {
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        loop {
            let pending = ids
                .iter()
                .any(|id| jobs.get(id).is_some_and(|e| !e.state.is_terminal()));
            if !pending {
                return;
            }
            let wait = match until {
                Some(deadline) => match deadline.checked_duration_since(Instant::now()) {
                    Some(left) => left.min(Duration::from_millis(50)),
                    None => return,
                },
                None => Duration::from_millis(50),
            };
            jobs = self
                .job_done
                .wait_timeout(jobs, wait)
                .expect("job table poisoned")
                .0;
        }
    }

    fn handle(&self, req: Request) -> Json {
        match req {
            Request::Submit(submit) => self.submit(submit),
            Request::Status { id } => self.status(id),
            Request::Wait { id, timeout_ms } => self.wait(id, timeout_ms),
            Request::Cancel { id } => self.cancel(id),
            Request::Stats => obj([
                ("ok", Json::Bool(true)),
                ("stats", self.stats.snapshot()),
                ("queue_depth", num(self.queue.depth() as u64)),
                ("workers", num(self.cfg.workers as u64)),
                (
                    "draining",
                    Json::Bool(self.draining.load(Ordering::Acquire)),
                ),
            ]),
            Request::Health => obj([
                ("ok", Json::Bool(true)),
                (
                    "status",
                    str(if self.draining.load(Ordering::Acquire) {
                        "draining"
                    } else {
                        "ok"
                    }),
                ),
                ("queue_depth", num(self.queue.depth() as u64)),
            ]),
            Request::Shutdown => {
                let report = self.shutdown();
                obj([
                    ("ok", Json::Bool(true)),
                    ("status", str("stopped")),
                    ("drain", report.to_json()),
                ])
            }
        }
    }

    fn submit(&self, req: SubmitRequest) -> Json {
        Stats::bump(&self.stats.submitted);
        if self.draining.load(Ordering::Acquire) {
            Stats::bump(&self.stats.rejected_draining);
            return obj([("ok", Json::Bool(false)), ("rejected", str("draining"))]);
        }
        // Validate the space up front so a bad geometry is a submit error,
        // not a failed job.
        if let Err(e) = ConfigSpace::new(req.set_bits, req.block_bits, req.assoc_bits) {
            Stats::bump(&self.stats.malformed);
            return obj([
                ("ok", Json::Bool(false)),
                ("error", str(format!("invalid space: {e}"))),
            ]);
        }
        let deadline = req
            .deadline_ms
            .map_or(self.cfg.default_deadline, Duration::from_millis)
            .min(self.cfg.max_deadline);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let entry = JobEntry {
            req,
            // The deadline clock starts at admission: queueing time counts,
            // so a deadline bounds *response* time, not just compute time.
            token: CancelToken::with_deadline(deadline),
            state: JobState::Queued,
            submitted: Instant::now(),
            started: None,
            finished: None,
        };
        self.jobs
            .lock()
            .expect("job table poisoned")
            .insert(id, entry);
        match self.queue.try_push(id) {
            Ok(()) => {
                Stats::bump(&self.stats.accepted);
                obj([
                    ("ok", Json::Bool(true)),
                    ("id", num(id)),
                    ("status", str("queued")),
                ])
            }
            Err((why, _)) => {
                // Shed: withdraw the table entry — the job was never
                // admitted, and the client is told to back off.
                self.jobs.lock().expect("job table poisoned").remove(&id);
                let (counter, label) = match why {
                    PushError::Full => (&self.stats.rejected_overloaded, "overloaded"),
                    PushError::Closed => (&self.stats.rejected_draining, "draining"),
                };
                Stats::bump(counter);
                obj([
                    ("ok", Json::Bool(false)),
                    ("rejected", str(label)),
                    ("retry_after_ms", num(50)),
                ])
            }
        }
    }

    fn status(&self, id: u64) -> Json {
        let jobs = self.jobs.lock().expect("job table poisoned");
        match jobs.get(&id) {
            None => unknown_id(id),
            Some(entry) => status_json(id, entry),
        }
    }

    fn wait(&self, id: u64, timeout_ms: Option<u64>) -> Json {
        const MAX_WAIT: Duration = Duration::from_secs(300);
        let cap = timeout_ms
            .map_or(Duration::from_secs(60), Duration::from_millis)
            .min(MAX_WAIT);
        let deadline = Instant::now() + cap;
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        loop {
            match jobs.get(&id) {
                None => return unknown_id(id),
                Some(entry) if entry.state.is_terminal() => return status_json(id, entry),
                Some(entry) => {
                    let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                        let mut v = status_json(id, entry);
                        if let Json::Obj(m) = &mut v {
                            m.insert("timed_out".to_owned(), Json::Bool(true));
                        }
                        return v;
                    };
                    jobs = self
                        .job_done
                        .wait_timeout(jobs, left.min(Duration::from_millis(100)))
                        .expect("job table poisoned")
                        .0;
                }
            }
        }
    }

    fn cancel(&self, id: u64) -> Json {
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        match jobs.get_mut(&id) {
            None => unknown_id(id),
            Some(entry) => match &entry.state {
                JobState::Queued => {
                    // Never started: terminal immediately. The worker that
                    // later pops this id sees a terminal state and skips.
                    entry.state = JobState::Cancelled { records_done: 0 };
                    entry.finished = Some(Instant::now());
                    entry.token.cancel();
                    Stats::bump(&self.stats.cancelled);
                    self.job_done.notify_all();
                    obj([
                        ("ok", Json::Bool(true)),
                        ("id", num(id)),
                        ("status", str("cancelled")),
                    ])
                }
                JobState::Running => {
                    // Cooperative: the token fires at the job's next chunk
                    // boundary; the terminal state arrives via wait/status.
                    entry.token.cancel();
                    obj([
                        ("ok", Json::Bool(true)),
                        ("id", num(id)),
                        ("status", str("cancelling")),
                    ])
                }
                terminal => obj([
                    ("ok", Json::Bool(true)),
                    ("id", num(id)),
                    ("status", str(terminal.name())),
                    ("already_terminal", Json::Bool(true)),
                ]),
            },
        }
    }
}

fn unknown_id(id: u64) -> Json {
    obj([
        ("ok", Json::Bool(false)),
        ("error", str(format!("unknown job id {id}"))),
    ])
}

fn status_json(id: u64, entry: &JobEntry) -> Json {
    let mut m = match &entry.state {
        JobState::Completed { summary } => {
            let mut m = std::collections::BTreeMap::new();
            m.insert("result".to_owned(), summary.clone());
            m
        }
        JobState::DeadlineExceeded { records_done } | JobState::Cancelled { records_done } => {
            let mut m = std::collections::BTreeMap::new();
            m.insert("records_done".to_owned(), num(*records_done));
            m
        }
        JobState::Failed { error } => {
            let mut m = std::collections::BTreeMap::new();
            m.insert("error".to_owned(), str(error.clone()));
            m
        }
        _ => std::collections::BTreeMap::new(),
    };
    m.insert("ok".to_owned(), Json::Bool(true));
    m.insert("id".to_owned(), num(id));
    m.insert("status".to_owned(), str(entry.state.name()));
    #[allow(clippy::cast_possible_truncation)]
    if let Some(started) = entry.started {
        let queued_ms = started.duration_since(entry.submitted).as_millis() as u64;
        m.insert("queued_ms".to_owned(), num(queued_ms));
        if let Some(finished) = entry.finished {
            let run_ms = finished.duration_since(started).as_millis() as u64;
            m.insert("run_ms".to_owned(), num(run_ms));
        }
    }
    Json::Obj(m)
}

fn accept_loop(listener: &TcpListener, inner: &Arc<Inner>) {
    loop {
        if inner.stopping.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let inner = Arc::clone(inner);
                let _ = std::thread::Builder::new()
                    .name("dew-serve-conn".to_owned())
                    .spawn(move || serve_connection(stream, &inner));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// The longest request line a connection accepts, newline excluded.
/// Protocol requests are a few hundred bytes; a longer line is refused
/// before it is buffered whole.
const MAX_LINE_BYTES: usize = 64 * 1024;

fn serve_connection(stream: TcpStream, inner: &Arc<Inner>) {
    let _ = stream.set_read_timeout(Some(inner.cfg.io_timeout));
    let _ = stream.set_write_timeout(Some(inner.cfg.io_timeout));
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut line = Vec::new();
    loop {
        line.clear();
        let limit = MAX_LINE_BYTES as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut line) {
            Ok(0) => return, // client closed
            Ok(_) => {}
            Err(_) => return, // read timeout or reset: drop the connection
        }
        if line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n') {
            // The rest of the line cannot be parsed without buffering it:
            // answer, then drop the connection.
            Stats::bump(&inner.stats.malformed);
            let error = format!("request line longer than {MAX_LINE_BYTES} bytes");
            refuse(
                reader,
                writer,
                &obj([("ok", Json::Bool(false)), ("error", str(error))]),
            );
            return;
        }
        let text = std::str::from_utf8(&line).map_err(|_| "request line is not UTF-8".to_owned());
        if text.as_ref().is_ok_and(|t| t.trim().is_empty()) {
            continue;
        }
        let response = match text.and_then(|t| Request::parse(t.trim())) {
            Ok(req) => inner.handle(req),
            Err(msg) => {
                Stats::bump(&inner.stats.malformed);
                obj([("ok", Json::Bool(false)), ("error", str(msg))])
            }
        };
        let mut out = response.emit();
        out.push('\n');
        if writer.write_all(out.as_bytes()).is_err() {
            return;
        }
    }
}

/// Sends `reply` and closes a connection whose client broke the protocol.
/// The write side is shut first and the client's pending input drained
/// (at most 1 MiB, within the read timeout), so the close does not reset
/// the connection before the client reads the reply.
fn refuse(reader: BufReader<TcpStream>, mut writer: TcpStream, reply: &Json) {
    let mut out = reply.emit();
    out.push('\n');
    if writer.write_all(out.as_bytes()).is_err() {
        return;
    }
    let _ = writer.shutdown(std::net::Shutdown::Write);
    let _ = std::io::copy(
        &mut reader.take(16 * MAX_LINE_BYTES as u64),
        &mut std::io::sink(),
    );
}

fn worker_loop(inner: &Arc<Inner>) {
    while let Some(id) = inner.queue.pop() {
        // Claim the job; skip ids that were cancelled while queued.
        let claimed = {
            let mut jobs = inner.jobs.lock().expect("job table poisoned");
            match jobs.get_mut(&id) {
                Some(entry) if matches!(entry.state, JobState::Queued) => {
                    entry.state = JobState::Running;
                    entry.started = Some(Instant::now());
                    Some((entry.req, entry.token.clone()))
                }
                _ => None,
            }
        };
        let Some((req, token)) = claimed else {
            continue;
        };
        let result = run_job(&req, &token, inner.cfg.sim_threads);
        let mut jobs = inner.jobs.lock().expect("job table poisoned");
        if let Some(entry) = jobs.get_mut(&id) {
            // A cancel-while-queued cannot have raced us (we claimed the
            // Queued→Running transition under the lock), so the state here
            // is still Running; record the terminal outcome.
            let (state, counter) = match result {
                RunResult::Done(summary) => {
                    (JobState::Completed { summary }, &inner.stats.completed)
                }
                RunResult::Deadline { records_done } => (
                    JobState::DeadlineExceeded { records_done },
                    &inner.stats.deadline_exceeded,
                ),
                RunResult::Cancelled { records_done } => {
                    (JobState::Cancelled { records_done }, &inner.stats.cancelled)
                }
                RunResult::Failed(error) => (JobState::Failed { error }, &inner.stats.failed),
            };
            entry.state = state;
            entry.finished = Some(Instant::now());
            Stats::bump(counter);
        }
        inner.job_done.notify_all();
    }
}

enum RunResult {
    Done(Json),
    Deadline { records_done: u64 },
    Cancelled { records_done: u64 },
    Failed(String),
}

fn ok_record(r: Record) -> Result<Record, TraceError> {
    Ok(r)
}

/// The chaos plan a `"chaos": true` submission wraps its source in:
/// transient open/read faults exercising retry/backoff, plus latency
/// injection ([`FaultPlan::delay_every`]) so the retry path is also
/// exercised under a *slow* source, not just a failing one. The budgets
/// are within the worker's retry policy, so chaos jobs still complete.
fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan {
        seed: seed ^ 0x5eed_cafe,
        fail_opens: 1,
        transient_per_10k: 2,
        transient_budget: 6,
        delay_every: 4096,
        delay: Duration::from_micros(200),
        ..FaultPlan::none()
    }
}

fn run_job(req: &SubmitRequest, token: &CancelToken, sim_threads: usize) -> RunResult {
    let space = match ConfigSpace::new(req.set_bits, req.block_bits, req.assoc_bits) {
        Ok(s) => s,
        Err(e) => return RunResult::Failed(format!("invalid space: {e}")),
    };
    let options = DewOptions::for_policy(req.policy);
    let spec = req.traffic;
    let source = move || Ok(spec.records().map(ok_record));
    let outcome = if req.chaos {
        let faulty = FaultyTraceSource::new(source, chaos_plan(spec.seed));
        sweep_with(&space, &faulty, options, sim_threads, token)
    } else {
        sweep_with(&space, &source, options, sim_threads, token)
    };
    summarise(req, token, outcome)
}

fn sweep_with<S: TraceSource>(
    space: &ConfigSpace,
    source: &S,
    options: DewOptions,
    threads: usize,
    token: &CancelToken,
) -> Result<SweepOutcome, dew_core::DewError> {
    let res = Resilience::new()
        .with_retry(RetryPolicy {
            max_retries: 16,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(20),
        })
        .fail_fast(false)
        .with_cancel(token);
    SweepRequest::new(space)
        .options(options)
        .threads(threads)
        .resilient(&res)
        .run_streamed(source)
}

fn summarise(
    req: &SubmitRequest,
    token: &CancelToken,
    outcome: Result<SweepOutcome, dew_core::DewError>,
) -> RunResult {
    match outcome {
        Ok(out) if !out.is_partial() => RunResult::Done(summary_json(req, &out)),
        Ok(out) => {
            let cancelled_only = out
                .failed_jobs()
                .iter()
                .all(|f| f.kind == FailureKind::Cancelled);
            match token.cancelled() {
                Some(reason) if cancelled_only => {
                    let records_done = stream_position(&out);
                    match reason {
                        CancelReason::DeadlineExceeded => RunResult::Deadline { records_done },
                        CancelReason::Requested => RunResult::Cancelled { records_done },
                    }
                }
                // Partial for another reason (e.g. chaos exhausted its
                // retry budget): a failure, reported verbatim.
                _ => RunResult::Failed(
                    out.failed_jobs()
                        .first()
                        .map_or_else(|| "partial outcome".to_owned(), |f| f.error.clone()),
                ),
            }
        }
        Err(e) => match token.cancelled() {
            Some(CancelReason::DeadlineExceeded) => RunResult::Deadline { records_done: 0 },
            Some(CancelReason::Requested) => RunResult::Cancelled { records_done: 0 },
            None => RunResult::Failed(e.to_string()),
        },
    }
}

/// How far into the job's request stream a cut sweep got: the furthest
/// record any block size's kernel reached, or the whole stream when one
/// finished. `records_simulated` would sum over the block sizes instead.
fn stream_position(out: &SweepOutcome) -> u64 {
    out.failed_jobs()
        .iter()
        .map(|f| f.records_done)
        .fold(out.accesses(), u64::max)
}

fn summary_json(req: &SubmitRequest, out: &SweepOutcome) -> Json {
    let mut m = std::collections::BTreeMap::new();
    m.insert("configs".to_owned(), num(out.config_count() as u64));
    m.insert("accesses".to_owned(), num(out.accesses()));
    m.insert("records_simulated".to_owned(), num(out.records_simulated()));
    m.insert("traversals".to_owned(), num(out.trace_traversals()));
    m.insert("retries".to_owned(), num(out.retries()));
    if req.kind == JobKind::Explore {
        let evals = evaluate_sweep(out, &EnergyModel::default());
        let front = pareto_front(&evals);
        m.insert("pareto_front".to_owned(), num(front.len() as u64));
        if let Some(best) = best_edp_under(&evals, 64 * 1024) {
            m.insert(
                "best_edp".to_owned(),
                obj([
                    ("sets", num(u64::from(best.geometry.sets))),
                    ("assoc", num(u64::from(best.geometry.assoc))),
                    ("block_bytes", num(u64::from(best.geometry.block_bytes))),
                ]),
            );
        }
    }
    Json::Obj(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_report_renders_both_ways() {
        let r = DrainReport {
            in_flight: 3,
            drained: 2,
            cancelled: 1,
            shed: 4,
        };
        assert_eq!(
            r.to_json().emit(),
            r#"{"cancelled":1,"drained":2,"in_flight":3,"shed":4}"#
        );
        assert!(r.to_string().contains("2 drained"));
        assert!(r.to_string().contains("4 shed"));
    }

    #[test]
    fn a_cut_reports_its_stream_position_not_the_sum_over_block_sizes() {
        let Ok(Request::Submit(req)) = Request::parse(r#"{"cmd":"submit","requests":200000}"#)
        else {
            panic!("a submit parses");
        };
        let (lo, hi) = req.block_bits;
        assert!(hi > lo, "the default space spans several block sizes");
        let space = ConfigSpace::new(req.set_bits, req.block_bits, req.assoc_bits).expect("space");
        // One sim thread feeds every block size's kernel from one
        // traversal; the source trips the token mid-stream.
        let token = CancelToken::new();
        let spec = req.traffic;
        let cut_at = 150_000;
        let source = || {
            let token = &token;
            Ok(spec.records().enumerate().map(move |(i, r)| {
                if i == cut_at {
                    token.cancel();
                }
                ok_record(r)
            }))
        };
        let outcome = sweep_with(
            &space,
            &source,
            DewOptions::for_policy(req.policy),
            1,
            &token,
        );
        let RunResult::Cancelled { records_done } = summarise(&req, &token, outcome) else {
            panic!("the token cut the job");
        };
        assert!(records_done > cut_at as u64, "{records_done}");
        assert!(records_done <= spec.requests, "{records_done}");
    }

    #[test]
    fn job_states_name_and_terminality() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        for (s, name) in [
            (
                JobState::Completed {
                    summary: Json::Null,
                },
                "completed",
            ),
            (
                JobState::DeadlineExceeded { records_done: 1 },
                "deadline_exceeded",
            ),
            (JobState::Cancelled { records_done: 0 }, "cancelled"),
            (
                JobState::Failed {
                    error: "x".to_owned(),
                },
                "failed",
            ),
            (JobState::Shed, "shed"),
        ] {
            assert!(s.is_terminal());
            assert_eq!(s.name(), name);
        }
    }

    #[test]
    fn chaos_plan_is_deterministic_and_within_retry_budget() {
        assert_eq!(chaos_plan(9), chaos_plan(9));
        let plan = chaos_plan(9);
        assert!(plan.delay_every > 0, "latency injection is wired in");
        assert!(plan.transient_budget <= 16, "faults stay recoverable");
    }
}
