//! Sweep smoke benchmark: times the in-memory fused sweep on a large
//! synthetic Zipf trace, and proves on every CI run that a streamed sweep
//! covers a trace far larger than the documented memory bound without
//! materialising it — the process high-water mark (`VmHWM`) is asserted
//! below [`MEMORY_BOUND_MIB`].
//!
//! Writes `BENCH_sweep_smoke.json` (override with `DEW_BENCH_JSON`) in
//! the same `{"name", "steps_per_sec"}` variant shape as the hot-loop
//! bench so `bench_guard` can track the throughput trajectory.
//!
//! Scale: `DEW_BENCH_QUICK=1` runs 200k in-memory / 2M streamed requests;
//! the full run does 2M / 100M. `DEW_BENCH_STREAM_REQUESTS=n` overrides
//! the streamed length (this is the knob the EXPERIMENTS.md numbers use).
//!
//! `DEW_BENCH_CHAOS=1` runs the chaos smoke *instead* of the benchmark:
//! the resilient sweep plan under deterministic injected faults
//! (transient open failures + seeded read faults) must reproduce the
//! fault-free table bit for bit after retries, and a checkpoint image
//! captured mid-run and round-tripped through the `.dewc` sidecar must
//! resume to the same table as the uninterrupted baseline. The sidecar
//! (`chaos_checkpoint.dewc`) is left behind on failure for CI to upload.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use dew_bench::report::thousands;
use dew_core::{ConfigSpace, SweepRequest};
use dew_trace::{Record, TraceError};
use dew_workloads::zipf::Zipf;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The sweep space: 11 set counts × 3 block sizes × 3 associativities.
const SPACE: ((u32, u32), (u32, u32), (u32, u32)) = ((0, 10), (2, 4), (0, 2));
/// Zipf shape: ranks span 1 MiB of hot words, mildly heavy-tailed.
const ZIPF_RANKS: usize = 1 << 18;
const ZIPF_S: f64 = 0.8;
/// The documented bound the streamed phase must stay under, measured as the
/// process `VmHWM`. A 100M-request trace is ~1.9 GiB in memory; streaming
/// it must not take the process anywhere near that.
const MEMORY_BOUND_MIB: u64 = 512;

/// The popularity table every stream samples, built once per process
/// rather than on every open of a source.
fn zipf_table() -> &'static Zipf {
    static TABLE: OnceLock<Zipf> = OnceLock::new();
    TABLE.get_or_init(|| Zipf::new(ZIPF_RANKS, ZIPF_S))
}

/// Deterministic synthetic Zipf request stream; re-opens identically, which
/// is exactly what `SweepRequest::run_streamed` requires of a source.
struct ZipfStream {
    zipf: &'static Zipf,
    rng: SmallRng,
    remaining: u64,
}

impl ZipfStream {
    fn new(seed: u64, len: u64) -> Self {
        ZipfStream {
            zipf: zipf_table(),
            rng: SmallRng::seed_from_u64(seed),
            remaining: len,
        }
    }
}

impl Iterator for ZipfStream {
    type Item = Result<Record, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let rank = self.zipf.sample(&mut self.rng) as u64;
        Some(Ok(Record::read(rank * 4)))
    }
}

/// `VmHWM` (peak resident set) in KiB from `/proc/self/status`; 0 when the
/// platform does not expose it (the assertion is skipped then).
fn vm_hwm_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// The checkpoint sidecar the chaos smoke writes; removed on success, left
/// behind for the CI artifact upload when an assertion fails.
const CHAOS_CKPT: &str = "chaos_checkpoint.dewc";

/// Chaos smoke (`DEW_BENCH_CHAOS=1`): proves the resilience layer end to
/// end — (a) a streamed sweep over a fault-injecting source converges to
/// the fault-free table after retries, and (b) a kill+resume through the
/// checkpoint sidecar matches the uninterrupted baseline bit for bit.
fn chaos(requests: u64) {
    use dew_core::{MemoryCheckpointStore, Resilience, RetryPolicy, SweepCheckpoint};
    use dew_trace::{FaultPlan, FaultyTraceSource};
    use std::time::Duration;

    let space = ConfigSpace::new(SPACE.0, SPACE.1, SPACE.2).expect("valid space");
    eprintln!("chaos smoke: {requests} zipf requests under injected faults ...");
    let clean_source = move || Ok(ZipfStream::new(42, requests));
    let baseline = SweepRequest::new(&space)
        .run_streamed(&clean_source)
        .expect("fault-free baseline");

    // (a) Deterministic transient faults: two failed opens plus seeded read
    // faults, all within the retry budget, and a periodic injected stall so
    // the slow-source path (reads that hang, not fail) is exercised too.
    // The recovered table must be identical to the fault-free one, with the
    // retries accounted for.
    let plan = FaultPlan {
        seed: 7,
        fail_opens: 2,
        transient_per_10k: 3,
        transient_budget: 6,
        delay_every: 4096,
        delay: Duration::from_micros(100),
        ..FaultPlan::none()
    };
    let faulty = FaultyTraceSource::new(clean_source, plan);
    let retry = RetryPolicy {
        max_retries: 32,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(10),
    };
    let res = Resilience::new().with_retry(retry);
    let recovered = SweepRequest::new(&space)
        .resilient(&res)
        .run_streamed(&faulty)
        .expect("sweep under transient faults");
    assert!(
        !recovered.is_partial(),
        "every injected fault was transient"
    );
    assert!(recovered.retries() > 0, "faults were actually injected");
    assert_eq!(
        recovered.sorted(),
        baseline.sorted(),
        "chaos run diverged from the fault-free sweep"
    );
    println!(
        "chaos: {} injected faults absorbed by {} retries, table identical to fault-free run",
        faulty.faults_injected(),
        recovered.retries()
    );

    // (b) Kill + resume: checkpoint a run, pick a mid-run image,
    // round-trip it through the on-disk sidecar, resume, compare.
    let records: Vec<Record> = ZipfStream::new(42, requests)
        .map(|r| r.expect("synthetic stream never fails"))
        .collect();
    let store = MemoryCheckpointStore::new();
    let res = Resilience::new().with_checkpoint((requests / 4).max(1), &store);
    let ckpted = SweepRequest::new(&space)
        .resilient(&res)
        .run(&records)
        .expect("checkpointed sweep");
    assert_eq!(ckpted.sorted(), baseline.sorted());
    let history = store.history();
    assert!(!history.is_empty(), "checkpoints were taken");
    let kill_at = history.len() / 2;
    std::fs::write(CHAOS_CKPT, &history[kill_at]).expect("write checkpoint sidecar");
    let bytes = std::fs::read(CHAOS_CKPT).expect("read checkpoint sidecar");
    let ckpt = SweepCheckpoint::from_bytes(&bytes).expect("sidecar decodes");
    let res = Resilience::new().resume_from(&ckpt);
    let resumed = SweepRequest::new(&space)
        .resilient(&res)
        .run(&records)
        .expect("resumed sweep");
    assert_eq!(
        resumed.sorted(),
        baseline.sorted(),
        "resume from image {kill_at} diverged from the uninterrupted baseline"
    );
    println!(
        "chaos: killed at checkpoint image {kill_at}/{} and resumed bit-identically",
        history.len()
    );
    let _ = std::fs::remove_file(CHAOS_CKPT);
    println!("chaos smoke passed");
}

fn main() {
    let quick = std::env::var_os("DEW_BENCH_QUICK").is_some();
    let requests: u64 = if quick { 200_000 } else { 2_000_000 };
    if std::env::var_os("DEW_BENCH_CHAOS").is_some() {
        chaos(requests);
        return;
    }
    let stream_requests: u64 = std::env::var("DEW_BENCH_STREAM_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 2_000_000 } else { 100_000_000 });
    let space = ConfigSpace::new(SPACE.0, SPACE.1, SPACE.2).expect("valid space");

    eprintln!("generating zipf trace ({requests} requests) ...");
    let records: Vec<Record> = ZipfStream::new(42, requests)
        .map(|r| r.expect("synthetic stream never fails"))
        .collect();

    let mut variants: Vec<(&'static str, f64, f64)> = Vec::new();
    let mut record_variant = |name: &'static str, steps: f64, secs: f64| {
        println!(
            "{:<22} {:>8.2} ns/step  {:>12} steps/s",
            name,
            secs * 1e9 / steps,
            thousands((steps / secs) as u64)
        );
        variants.push((name, secs * 1e9 / steps, steps / secs));
    };

    // The in-memory fused sweep.
    let start = Instant::now();
    let swept = SweepRequest::new(&space).run(&records).expect("sweep");
    record_variant(
        "fifo_sequential",
        requests as f64,
        start.elapsed().as_secs_f64(),
    );
    assert_eq!(swept.accesses(), requests);

    // Bounded-memory streaming: sweep a stream that never lives in memory.
    drop(records);
    eprintln!("streaming zipf trace ({stream_requests} requests) ...");
    let source = move || Ok(ZipfStream::new(42, stream_requests));
    let start = Instant::now();
    let streamed = SweepRequest::new(&space)
        .run_streamed(&source)
        .expect("streamed sweep");
    let stream_secs = start.elapsed().as_secs_f64();
    record_variant(
        "zipf_streamed",
        stream_requests as f64 * streamed.trace_traversals() as f64,
        stream_secs,
    );
    assert_eq!(streamed.accesses(), stream_requests);

    let hwm_kib = vm_hwm_kib();
    println!(
        "peak RSS {} MiB (bound {MEMORY_BOUND_MIB} MiB), streamed {} requests in {stream_secs:.1}s",
        hwm_kib / 1024,
        thousands(stream_requests)
    );
    if hwm_kib > 0 {
        assert!(
            hwm_kib / 1024 < MEMORY_BOUND_MIB,
            "peak RSS {} MiB breached the {MEMORY_BOUND_MIB} MiB bound",
            hwm_kib / 1024
        );
    }

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"sweep_smoke\",");
    let _ = writeln!(json, "  \"unix_time\": {unix_time},");
    let _ = writeln!(json, "  \"requests\": {requests},");
    let _ = writeln!(json, "  \"stream_requests\": {stream_requests},");
    let _ = writeln!(json, "  \"vm_hwm_kib\": {hwm_kib},");
    let _ = writeln!(json, "  \"memory_bound_mib\": {MEMORY_BOUND_MIB},");
    json.push_str("  \"variants\": [\n");
    for (i, (name, ns, rate)) in variants.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"ns_per_step\": {ns:.3}, \"steps_per_sec\": {rate:.0}}}{}",
            if i + 1 < variants.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");

    let path = std::env::var("DEW_BENCH_JSON").unwrap_or_else(|_| "BENCH_sweep_smoke.json".into());
    std::fs::write(&path, json).expect("write bench json");
    println!("wrote {path}");
}
