//! The sweep driver: covers a whole [`ConfigSpace`] with the minimal number
//! of *trace traversals* — one per block size for **every** registered
//! policy — optionally in parallel.
//!
//! The scheduler is **fused**: all `(block size, assoc)` passes of one
//! block size are folded into a single traversal on the policy's
//! [`FusedKernel`] — FIFO multi-assoc lists, or the LRU / tree-PLRU / SLRU
//! arena lanes (see the `kernel` module docs for the pluggable-kernel
//! contract). A sweep performs exactly one kernel traversal per block size
//! instead of one per pass, and the fused results are fanned back out into
//! the per-pass [`PassResults`] shape, so [`SweepOutcome`] is unchanged for
//! callers.
//!
//! How often the *source* is read depends on the plan. One worker over a
//! streamed source owns every block size's kernel: it opens the source
//! once per attempt, fills one address buffer per fill and feeds each
//! kernel that fill shifted to its block numbers, so the trace is decoded
//! (or generated) once per sweep and every kernel is alive at once. Two or
//! more workers claim one block size per traversal instead, each opening
//! the source itself; that keeps them balanced, since block sizes differ
//! in cost several-fold. An in-memory trace is free to re-read, so it
//! keeps one traversal per block size on any worker count (see
//! [`plan_groups`]). Either way a block size is one kernel traversal
//! ([`SweepOutcome::trace_traversals`]), and results, counters and
//! checkpoint images are bit-identical.
//!
//! [`crate::SweepRequest`] is the one entry point, and one worker loop
//! ([`run_resilient`]) runs every plan it can describe:
//!
//! * an in-memory trace is read through [`dew_trace::SliceSource`], a streamed one
//!   through the caller's [`TraceSource`];
//! * a periodic cluster sample is spliced into one stream before the run,
//!   and its [`SampleBounds`] come from [`cluster_bounds`] afterwards;
//! * a request without `.resilient(..)` runs under the fixed
//!   `Resilience::PLAIN`: no retries, fail-fast, no checkpoint, no cancel
//!   token.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

use dew_trace::{BlockChunks, Record, TraceError, TraceSource};

use crate::cancel::CancelReason;
use crate::checkpoint::{sweep_fingerprint, CheckpointLog};
use crate::counters::DewCounters;
use crate::kernel::{FusedKernel, PolicyKernel};
use crate::options::{DewOptions, TreePolicy};
use crate::resilience::Resilience;
use crate::results::{FailureKind, JobFailure, PassResults, SampleBounds, SweepOutcome};
use crate::space::{ConfigSpace, DewError, PassConfig};

/// Upstream validation shared by every plan, before any worker starts:
/// the option flags must be sound for the policy, and the space's widest
/// associativity must fit the policy's kernel
/// ([`FusedKernel::max_assoc_bits`]).
fn validate_request(space: &ConfigSpace, options: DewOptions) -> Result<(), DewError> {
    // First sweep of the process: prove the active wide-scan backend
    // bit-identical to the scalar oracle before trusting it with results
    // (no-op afterwards, and when the scalar backend is already active).
    crate::kernel::selftest::ensure();
    options.validate()?;
    let (_, amax) = space.assoc_bits();
    if amax > FusedKernel::max_assoc_bits(options.policy) {
        return Err(DewError::BadAssoc(
            1u32.checked_shl(amax).unwrap_or(u32::MAX),
        ));
    }
    Ok(())
}

/// One fused unit of work: every pass of one block size.
struct FusedJob {
    block_bits: u32,
    /// Inclusive `log2` associativity range covered by the job's passes.
    assoc_bits: (u32, u32),
    /// Indices into the pass list (and the result slots) this job feeds.
    pass_idx: Vec<usize>,
}

fn worker_count(threads: usize, work_items: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        threads
    }
    .min(work_items.max(1))
}

/// Fans the completed per-pass slots out into a [`SweepOutcome`], one
/// traversal per job. Empty slots belong to failed jobs and are skipped —
/// the caller attaches the failure accounting via
/// [`SweepOutcome::failed_jobs`].
fn assemble(
    space: &ConfigSpace,
    passes: &[PassConfig],
    jobs: &[FusedJob],
    mut slots: Vec<Option<(PassResults, DewCounters)>>,
    accesses: u64,
    policy: TreePolicy,
) -> SweepOutcome {
    let include_dm = space.assoc_bits().0 == 0;
    let mut misses: HashMap<(u32, u32, u32), u64> = HashMap::new();
    let mut pass_counters = Vec::with_capacity(passes.len());
    for job in jobs {
        for (k, &i) in job.pass_idx.iter().enumerate() {
            let Some((results, counters)) = slots[i].take() else {
                continue;
            };
            let pass = passes[i];
            for level in results.levels() {
                let key = (level.sets(), pass.assoc(), pass.block_bytes());
                misses.insert(key, level.misses());
                // A job's passes share one MRA lane, so its first pass
                // carries the block size's direct-mapped results.
                if include_dm && k == 0 {
                    misses.insert((level.sets(), 1, pass.block_bytes()), level.dm_misses());
                }
            }
            pass_counters.push((pass, counters));
        }
    }

    SweepOutcome::new(accesses, misses, pass_counters, jobs.len() as u64, policy)
}

/// Groups the passes by block size through an indexed map built once per
/// sweep; the claim paths never scan.
fn group_by_block(passes: &[PassConfig]) -> Vec<FusedJob> {
    let mut job_of_block: HashMap<u32, usize> = HashMap::new();
    let mut jobs: Vec<FusedJob> = Vec::new();
    for (i, pass) in passes.iter().enumerate() {
        let j = *job_of_block.entry(pass.block_bits()).or_insert_with(|| {
            jobs.push(FusedJob {
                block_bits: pass.block_bits(),
                assoc_bits: (u32::MAX, 0),
                pass_idx: Vec::new(),
            });
            jobs.len() - 1
        });
        let job = &mut jobs[j];
        job.pass_idx.push(i);
        let ab = pass.assoc().trailing_zeros();
        job.assoc_bits = (job.assoc_bits.0.min(ab), job.assoc_bits.1.max(ab));
    }
    jobs
}

/// Cold-start slack of a sweep over a periodic cluster sample: `sampled`
/// is the spliced stream, made of consecutive clusters of `sample_len`
/// records (the last one may be shorter).
///
/// Each cluster is a contiguous window of the original trace, so an access
/// that is *not* its cluster's first touch of its block has its whole
/// reuse interval inside the cluster and is classified exactly. Only the
/// first touches of clusters after the first are unknowns, and each one
/// that hits maps to a distinct block resident at the cluster start —
/// at most `sets × assoc` of them. The slack per configuration is
/// `Σ_{clusters after the first} min(first_touches, sets × assoc)`,
/// guaranteed under LRU and a heuristic under every other policy (see
/// DESIGN.md, "Sampling and cold-start slack").
pub(crate) fn cluster_bounds(
    space: &ConfigSpace,
    sampled: &[Record],
    sample_len: usize,
    policy: TreePolicy,
) -> SampleBounds {
    // First-touch counting saturates at the largest configuration of the
    // space: beyond `max sets × max assoc` distinct blocks every
    // per-configuration `min(F, sets × assoc)` is already pinned, so the
    // seen-set stays bounded by the space geometry, not the cluster length.
    let cap_max = {
        let (_, smax) = space.set_bits();
        let (_, amax) = space.assoc_bits();
        (1u64 << smax) * (1u64 << amax)
    };
    let include_dm = space.assoc_bits().0 == 0;
    let passes = space.passes();
    let mut slack: HashMap<(u32, u32, u32), u64> = HashMap::new();
    let mut seen: HashSet<u64> = HashSet::new();
    for job in group_by_block(&passes) {
        let touches: Vec<u64> = sampled
            .chunks(sample_len)
            .skip(1)
            .map(|cluster| {
                seen.clear();
                let mut first = 0u64;
                for r in cluster {
                    if first >= cap_max {
                        break;
                    }
                    if seen.insert(r.addr >> job.block_bits) {
                        first += 1;
                    }
                }
                first
            })
            .collect();
        for &i in &job.pass_idx {
            let pass = &passes[i];
            for sb in pass.min_set_bits()..=pass.max_set_bits() {
                let sets = 1u32 << sb;
                let cap = u64::from(sets) * u64::from(pass.assoc());
                let total: u64 = touches.iter().map(|&f| f.min(cap)).sum();
                slack.insert((sets, pass.assoc(), pass.block_bytes()), total);
                if include_dm {
                    let dm_cap = u64::from(sets);
                    let dm_total: u64 = touches.iter().map(|&f| f.min(dm_cap)).sum();
                    slack.insert((sets, 1, pass.block_bytes()), dm_total);
                }
            }
        }
    }
    SampleBounds::new(slack, policy == TreePolicy::Lru)
}

/// Human-readable identity of a fused job for error messages: one fused
/// job covers every configuration of one block size.
fn job_label(block_bits: u32, policy: TreePolicy) -> String {
    format!("block {}B ({policy})", 1u64 << block_bits)
}

/// The traversal plan: which jobs each traversal of the source feeds.
///
/// One worker over a streamed source owns every job and feeds all their
/// kernels from a single traversal, so the source is opened (and decoded
/// or generated) once per attempt instead of once per block size. Several
/// workers claim one job per traversal dynamically instead: block-size
/// jobs differ in cost several-fold, and a static split of kernels between
/// workers would leave one idle while another finishes the expensive small
/// blocks. A `resident` (in-memory) trace costs nothing to re-read, so its
/// jobs keep one traversal each even on one worker, and each kernel runs
/// alone in the cache: one shared traversal of a resident 2M-record trace
/// over the default space ran 9–12% slower, with all seven kernels
/// alive at once.
fn plan_groups(workers: usize, jobs: usize, resident: bool) -> Vec<Vec<usize>> {
    if workers == 1 && !resident {
        vec![(0..jobs).collect()]
    } else {
        (0..jobs).map(|j| vec![j]).collect()
    }
}

/// Kernel state restored from a resume checkpoint for one job.
struct ResumeJob {
    kernel: FusedKernel,
    records_done: u64,
    complete: bool,
}

/// A completed job ready for fan-out: `(job index, records decoded,
/// per-pass fanned results)`.
type FinishedJob = (usize, u64, Vec<(PassResults, DewCounters)>);

/// What a worker records for its job.
enum JobOutcome {
    /// The job ran to the end of the stream; `decoded` records were
    /// consumed and `fanned` parallels `FusedJob::pass_idx`.
    Done {
        decoded: u64,
        fanned: Vec<(PassResults, DewCounters)>,
    },
    Failed(JobFailure),
}

/// Why a job stopped short of its results. A traversal that stops fails
/// every job it still feeds with the same cause, each at its own
/// position.
#[derive(Clone)]
enum Stop {
    /// The source failed fatally, or exhausted its retry budget; the
    /// message names the record.
    Source(String),
    /// Another job aborted the sweep (fail-fast or a broken checkpoint
    /// store); the traversal stopped cooperatively.
    Aborted,
    /// The sweep's [`crate::CancelToken`] fired (explicit cancel or an
    /// expired deadline); the job flushed a final checkpoint and stopped.
    Cancelled(CancelReason),
    /// The job's kernel, or the traversal feeding it, panicked.
    Panic(String),
}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// Runs `f`, turning a panic into [`Stop::Panic`]. The state a panic can
/// leave mid-update is the panicking job's own kernel, which is dropped,
/// or poison-tolerant (checkpoint mutex), so the unwind boundary is sound
/// to cross.
fn isolate<T>(f: impl FnOnce() -> T) -> Result<T, Stop> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|payload| Stop::Panic(panic_message(payload.as_ref())))
}

/// One job's kernel while a traversal feeds it.
struct Lane {
    /// Index of the job (into the plan's job list).
    j: usize,
    kernel: FusedKernel,
    /// Records the kernel has simulated. A lane resumed further along than
    /// the traversal is fed only the records past it.
    position: u64,
    /// The next checkpoint cadence point (a multiple of the cadence).
    next_ckpt: Option<u64>,
    /// A cadence point reached but not yet captured: it is taken at the
    /// start of the next fill that delivers anything, so a stream ending
    /// exactly there saves only its completion.
    pending: bool,
}

/// Shared state of one sweep, borrowed by every worker.
struct ResilientRun<'a, S> {
    space: &'a ConfigSpace,
    source: &'a S,
    passes: &'a [PassConfig],
    jobs: &'a [FusedJob],
    options: DewOptions,
    /// Build instrumented kernels (full [`DewCounters`] breakdown).
    instrument: bool,
    res: &'a Resilience<'a>,
    /// Per-job kernels restored from the resume checkpoint, taken by the
    /// worker that claims the job's group.
    resume: &'a [Mutex<Option<ResumeJob>>],
    /// Per-job terminal outcome, set exactly once.
    outcomes: &'a [OnceLock<JobOutcome>],
    /// Per-job records simulated so far, for the accounting of jobs that
    /// stop without reporting their own position.
    positions: &'a [AtomicU64],
    /// The latest per-job captures, drained by the sweep's checkpoint
    /// writer thread (present iff checkpointing is on).
    ckpt: Option<CheckpointLog>,
    /// First checkpoint-store failure; set once by the writer, aborts the
    /// sweep.
    ckpt_broken: OnceLock<String>,
    /// First *causal* job failure (fatal source error or panic) — abort
    /// echoes and never-started jobs do not land here.
    first_failure: OnceLock<JobFailure>,
    abort: AtomicBool,
    retries_total: AtomicU64,
}

impl<S: TraceSource> ResilientRun<'_, S> {
    /// The checkpoint cadence in records, if checkpointing is on.
    fn cadence(&self) -> Option<u64> {
        self.res.checkpoint.map(|c| c.every.max(1))
    }

    /// Whether the sweep's cancellation token (if any) has fired.
    fn cancel_fired(&self) -> Option<CancelReason> {
        self.res.cancel.and_then(|t| t.cancelled())
    }

    /// Captures the lane's kernel at its position for the checkpoint
    /// writer. The snapshot is encoded outside any lock and the worker
    /// carries on at once; the writer persists it with the next image it
    /// saves.
    fn capture(&self, lane: &Lane, complete: bool) {
        let Some(log) = &self.ckpt else {
            return;
        };
        if self.ckpt_broken.get().is_some() {
            return;
        }
        log.update_job(
            self.jobs[lane.j].block_bits,
            lane.position,
            lane.kernel.to_snapshot(),
            complete,
        );
    }

    /// Records job `j`'s terminal outcome at `position` records. A causal
    /// failure (source or panic) becomes the sweep's first failure if none
    /// came before, and aborts a fail-fast sweep.
    fn settle(
        &self,
        j: usize,
        position: u64,
        result: Result<Vec<(PassResults, DewCounters)>, Stop>,
    ) {
        let block_bits = self.jobs[j].block_bits;
        let label = job_label(block_bits, self.options.policy);
        let causal = matches!(result, Err(Stop::Source(_) | Stop::Panic(_)));
        let failure = |kind, error| JobFailure {
            block_bits,
            records_done: position,
            error,
            kind,
        };
        let outcome = match result {
            Ok(fanned) => JobOutcome::Done {
                decoded: position,
                fanned,
            },
            Err(Stop::Aborted) => JobOutcome::Failed(failure(
                FailureKind::Source,
                format!("{label}: abandoned after the sweep aborted"),
            )),
            // Cancellation is not causal — it never lands in
            // `first_failure` and never aborts the other jobs (the shared
            // token reaches each of them directly).
            Err(Stop::Cancelled(reason)) => JobOutcome::Failed(failure(
                FailureKind::Cancelled,
                format!("{label}: {reason} after {position} records"),
            )),
            Err(Stop::Source(why)) => {
                JobOutcome::Failed(failure(FailureKind::Source, format!("{label}: {why}")))
            }
            Err(Stop::Panic(why)) => JobOutcome::Failed(failure(
                FailureKind::Panic,
                format!("{label}: worker panicked: {why}"),
            )),
        };
        if let (true, JobOutcome::Failed(f)) = (causal, &outcome) {
            let _ = self.first_failure.set(f.clone());
            if self.res.fail_fast {
                self.abort.store(true, Ordering::Relaxed);
            }
        }
        let claimed = self.outcomes[j].set(outcome);
        assert!(claimed.is_ok(), "job {j} settled exactly once");
    }

    /// The per-pass results of job `j`'s finished kernel, parallel to its
    /// `pass_idx`.
    fn fan_out(&self, j: usize, kernel: &FusedKernel) -> Vec<(PassResults, DewCounters)> {
        self.jobs[j]
            .pass_idx
            .iter()
            .map(|&i| kernel.fan_out(self.passes[i].assoc()))
            .collect()
    }

    /// Opens the source and replays it to `position`, retrying transient
    /// failures (of the open *and* of reads during the replay) against the
    /// shared no-progress attempt budget.
    fn open_skip(&self, position: u64, attempts: &mut u32) -> Result<S::Iter, Stop> {
        let retry = self.res.retry;
        loop {
            match self.source.open() {
                Ok(mut iter) => {
                    let mut skipped = 0u64;
                    let mut fault: Option<TraceError> = None;
                    while skipped < position {
                        match iter.next() {
                            Some(Ok(_)) => skipped += 1,
                            Some(Err(e)) => {
                                fault = Some(e);
                                break;
                            }
                            None => {
                                return Err(Stop::Source(format!(
                                    "source ended at record {skipped} while replaying to \
                                     {position} — a resumable source must replay identically \
                                     on every open"
                                )))
                            }
                        }
                    }
                    match fault {
                        None => return Ok(iter),
                        Some(e) if e.is_transient() && *attempts < retry.max_retries => {
                            *attempts += 1;
                            self.retries_total.fetch_add(1, Ordering::Relaxed);
                            self.res.sleeper.sleep(retry.delay(*attempts));
                        }
                        Some(e) => {
                            return Err(Stop::Source(format!(
                                "replaying to record {position}: {e}"
                            )))
                        }
                    }
                }
                Err(e) if e.is_transient() && *attempts < retry.max_retries => {
                    *attempts += 1;
                    self.retries_total.fetch_add(1, Ordering::Relaxed);
                    self.res.sleeper.sleep(retry.delay(*attempts));
                }
                Err(e) => return Err(Stop::Source(format!("opening source: {e}"))),
            }
            if self.abort.load(Ordering::Relaxed) {
                return Err(Stop::Aborted);
            }
            if let Some(reason) = self.cancel_fired() {
                return Err(Stop::Cancelled(reason));
            }
        }
    }

    /// Runs one group of jobs to the end of the stream and settles each.
    /// A job resumed complete goes straight to fan-out; the others become
    /// lanes of one traversal.
    fn run_group(&self, group: &[usize]) {
        let every = self.cadence();
        let mut lanes = Vec::with_capacity(group.len());
        for &j in group {
            let job = &self.jobs[j];
            let resume = self.resume[j]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
            let (kernel, position, complete) = match resume {
                Some(r) => (r.kernel, r.records_done, r.complete),
                None => (
                    FusedKernel::build(
                        job.block_bits,
                        self.space.set_bits(),
                        job.assoc_bits,
                        self.options,
                        self.instrument,
                    )
                    .expect("pass geometry and options validated above"),
                    0,
                    false,
                ),
            };
            self.positions[j].store(position, Ordering::Relaxed);
            if complete {
                // The completion record makes a resume skip the job: its
                // kernel snapshot fans out the final results.
                self.settle(j, position, isolate(|| self.fan_out(j, &kernel)));
            } else {
                lanes.push(Lane {
                    j,
                    kernel,
                    position,
                    next_ckpt: every.map(|e| (position / e + 1) * e),
                    pending: false,
                });
            }
        }
        if lanes.is_empty() {
            return;
        }
        // Ascending block sizes let one buffer be shifted lane by lane.
        lanes.sort_by_key(|lane| self.jobs[lane.j].block_bits);
        match self.traverse(&mut lanes) {
            Ok(end) => {
                for lane in lanes {
                    if lane.position > end {
                        let why = format!(
                            "source ended at record {end} while replaying to {} — a resumable \
                             source must replay identically on every open",
                            lane.position
                        );
                        self.settle(lane.j, lane.position, Err(Stop::Source(why)));
                        continue;
                    }
                    // The completion record makes a resume skip this job
                    // entirely (its kernel snapshot still fans out the
                    // final results).
                    self.capture(&lane, true);
                    let fanned = isolate(|| self.fan_out(lane.j, &lane.kernel));
                    self.settle(lane.j, lane.position, fanned);
                }
            }
            Err(stop) => {
                for lane in lanes {
                    self.settle(lane.j, lane.position, Err(stop.clone()));
                }
            }
        }
    }

    /// Feeds every lane from one traversal of the source (re-opened on
    /// each retry) until the stream ends, returning its length. A lane
    /// whose kernel panics is settled and dropped; the others run on.
    ///
    /// The record loop fills one address buffer up to the next *stop* — a
    /// full chunk or a lane's checkpoint point — so it can capture at
    /// exact positions, and it flushes delivered records before handling
    /// a mid-fill fault. The stop checks run once per fill, not once per
    /// record. Each lane gets the fill shifted to its block numbers. The
    /// kernels consume blocks one at a time, so how the stream is cut into
    /// fills never affects results; that invariance is what makes
    /// checkpoint resume and retry replay bit-exact.
    fn traverse(&self, lanes: &mut Vec<Lane>) -> Result<u64, Stop> {
        let retry = self.res.retry;
        let every = self.cadence();
        // A token that fired before the traversal started (an
        // already-expired deadline, a drain in progress) stops it before
        // any decode; the resume state captured here is each job's honest
        // position.
        if let Some(reason) = self.cancel_fired() {
            for lane in lanes.iter() {
                self.capture(lane, false);
            }
            return Err(Stop::Cancelled(reason));
        }
        let mut position = lanes.iter().map(|l| l.position).min().unwrap_or(0);
        let mut attempts = 0u32;
        let mut last_fault: Option<u64> = None;
        let mut buf = vec![0u64; BlockChunks::DEFAULT_CHUNK];
        'stream: loop {
            let mut iter = self.open_skip(position, &mut attempts)?;
            loop {
                let full = position + buf.len() as u64;
                let next_stop = lanes
                    .iter()
                    .filter_map(|l| l.next_ckpt)
                    .fold(full, u64::min);
                // Every lane is at or past `position` and its cadence
                // point is beyond its own position, so `next_stop` is past
                // `position` by at most the buffer length.
                let want = (next_stop - position) as usize;
                // The fill holds the narrowest lane's block numbers; each
                // wider lane shifts them on (lanes ascend in block size).
                let base = self.jobs[lanes[0].j].block_bits;
                let mut filled = 0;
                let mut fault: Option<TraceError> = None;
                let mut ended = false;
                for slot in &mut buf[..want] {
                    match iter.next() {
                        Some(Ok(rec)) => *slot = rec.addr >> base,
                        Some(Err(e)) => {
                            fault = Some(e);
                            break;
                        }
                        None => {
                            ended = true;
                            break;
                        }
                    }
                    filled += 1;
                }
                // Delivered records are real progress: simulate them
                // before judging a fault, so a retry replays from the
                // exact failure point.
                let mut shifted = base;
                lanes.retain_mut(|lane| {
                    if lane.pending && (filled > 0 || fault.is_some()) {
                        self.capture(lane, false);
                    }
                    lane.pending = false;
                    let block_bits = self.jobs[lane.j].block_bits;
                    if block_bits > shifted {
                        for a in &mut buf[..filled] {
                            *a >>= block_bits - shifted;
                        }
                        shifted = block_bits;
                    }
                    let end = position + filled as u64;
                    if lane.position >= end {
                        return true;
                    }
                    let fresh = &buf[(lane.position - position) as usize..filled];
                    let fed = isolate(|| lane.kernel.run_blocks(fresh));
                    match fed {
                        Ok(()) => {
                            lane.position = end;
                            self.positions[lane.j].store(end, Ordering::Relaxed);
                            true
                        }
                        Err(stop) => {
                            self.settle(lane.j, lane.position, Err(stop));
                            false
                        }
                    }
                });
                position += filled as u64;
                if lanes.is_empty() {
                    break 'stream;
                }
                if let Some(e) = fault {
                    if !e.is_transient() {
                        return Err(Stop::Source(format!("at record {position}: {e}")));
                    }
                    // The attempt budget bounds *stalls*, not total faults
                    // over a long stream: progress since the previous
                    // fault earns a fresh budget.
                    if last_fault.is_some_and(|p| position > p) {
                        attempts = 0;
                    }
                    last_fault = Some(position);
                    if attempts >= retry.max_retries {
                        return Err(Stop::Source(format!(
                            "at record {position}: {e} \
                             (gave up after {attempts} retries without progress)"
                        )));
                    }
                    attempts += 1;
                    self.retries_total.fetch_add(1, Ordering::Relaxed);
                    self.res.sleeper.sleep(retry.delay(attempts));
                    continue 'stream;
                }
                if ended {
                    break 'stream;
                }
                for lane in lanes.iter_mut() {
                    if lane.next_ckpt == Some(lane.position) {
                        lane.pending = true;
                        lane.next_ckpt = every.map(|e| lane.position + e);
                    }
                }
                if self.abort.load(Ordering::Relaxed) {
                    for lane in lanes.iter().filter(|lane| lane.pending) {
                        self.capture(lane, false);
                    }
                    return Err(Stop::Aborted);
                }
                // Cooperative cancellation: the fill above was flushed
                // into the kernels, so the final checkpoints capture
                // exactly the simulated prefixes.
                if let Some(reason) = self.cancel_fired() {
                    for lane in lanes.iter() {
                        self.capture(lane, false);
                    }
                    return Err(Stop::Cancelled(reason));
                }
            }
        }
        Ok(position)
    }
}

/// The sweep driver behind every [`crate::SweepRequest`] plan: the same
/// fused kernels and bit-identical results on the happy path, plus the
/// contract of `res` — periodic [`SweepCheckpoint`]s, resume, retry with
/// bounded backoff for transient source failures, per-job panic
/// isolation, and graceful degradation (a partial [`SweepOutcome`] whose
/// [`SweepOutcome::failed_jobs`] / [`SweepOutcome::retries`] /
/// [`SweepOutcome::records_lost`] tell the truth about what was lost).
///
/// `resident` marks an in-memory `source`, which [`plan_groups`] never
/// shares between jobs.
///
/// Resuming from a checkpoint is **bit-identical** to the uninterrupted
/// sweep: a checkpoint stores each job's exact kernel snapshot at an exact
/// record position, restoring a snapshot is an identity (property-tested),
/// and the kernels are insensitive to how the replayed stream is chunked.
pub(crate) fn run_resilient<S: TraceSource>(
    space: &ConfigSpace,
    source: &S,
    resident: bool,
    options: DewOptions,
    threads: usize,
    instrument: bool,
    res: &Resilience<'_>,
) -> Result<SweepOutcome, DewError> {
    validate_request(space, options)?;
    let fingerprint = sweep_fingerprint(space, options);
    let passes = space.passes();
    let jobs = group_by_block(&passes);

    // Validate and restore the resume state up front, outside the workers,
    // so a rejected checkpoint is one clean error instead of N job deaths.
    let resume_slots: Vec<Mutex<Option<ResumeJob>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    if let Some(ckpt) = res.resume {
        if ckpt.policy() != options.policy {
            return Err(DewError::Checkpoint(format!(
                "checkpoint was taken under the {} policy, this sweep runs {}",
                ckpt.policy(),
                options.policy
            )));
        }
        if ckpt.fingerprint() != fingerprint {
            return Err(DewError::Checkpoint(format!(
                "checkpoint fingerprint {:#018x} does not match this sweep's {fingerprint:#018x} \
                 (different configuration space or options)",
                ckpt.fingerprint()
            )));
        }
        for (slot, job) in resume_slots.iter().zip(&jobs) {
            if let Some(jc) = ckpt.job(job.block_bits) {
                let label = job_label(job.block_bits, options.policy);
                let kernel = FusedKernel::from_snapshot(options.policy, &jc.kernel)
                    .map_err(|e| DewError::Checkpoint(format!("{label}: {e}")))?;
                // A kernel that covers another geometry, or that has not
                // simulated exactly the records the job claims, would
                // continue into wrong results or a fan-out panic.
                let found = kernel.shape();
                let widest = passes[job.pass_idx[job.pass_idx.len() - 1]];
                let wanted = (widest, 1 << job.assoc_bits.0, jc.records_done);
                if found != wanted {
                    return Err(DewError::Checkpoint(format!(
                        "{label}: checkpointed kernel (widest pass, narrowest assoc, records \
                         simulated) {found:?} does not match the job's {wanted:?}"
                    )));
                }
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(ResumeJob {
                    kernel,
                    records_done: jc.records_done,
                    complete: jc.complete,
                });
            }
        }
    }

    let outcomes: Vec<OnceLock<JobOutcome>> = jobs.iter().map(|_| OnceLock::new()).collect();
    let positions: Vec<AtomicU64> = jobs.iter().map(|_| AtomicU64::new(0)).collect();
    let state = ResilientRun {
        space,
        source,
        passes: &passes,
        jobs: &jobs,
        options,
        instrument,
        res,
        resume: &resume_slots,
        outcomes: &outcomes,
        positions: &positions,
        ckpt: res
            .checkpoint
            .map(|_| CheckpointLog::new(fingerprint, options.policy, res.resume)),
        ckpt_broken: OnceLock::new(),
        first_failure: OnceLock::new(),
        abort: AtomicBool::new(false),
        retries_total: AtomicU64::new(0),
    };

    let workers = worker_count(threads, jobs.len());
    let groups = plan_groups(workers, jobs.len(), resident);
    let next = AtomicUsize::new(0);
    let run = &state;
    let writer = run.ckpt.as_ref().zip(res.checkpoint);
    std::thread::scope(|s| {
        // One writer per checkpointing sweep persists the workers' captures
        // off their critical path. A failed (or panicking) save breaks the
        // checkpointing contract, so it aborts the sweep rather than let it
        // continue unprotected.
        if let Some((log, spec)) = writer {
            s.spawn(move || {
                let saved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    log.write_all(spec.store)
                }))
                .unwrap_or_else(|payload| {
                    Err(format!(
                        "checkpoint store panicked: {}",
                        panic_message(payload.as_ref())
                    ))
                });
                if let Err(why) = saved {
                    let _ = run.ckpt_broken.set(why);
                    run.abort.store(true, Ordering::Relaxed);
                }
            });
        }
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(s.spawn(|| loop {
                if run.abort.load(Ordering::Relaxed) {
                    break;
                }
                let g = next.fetch_add(1, Ordering::Relaxed);
                let Some(group) = groups.get(g) else { break };
                // Panic isolation: a kernel blow-up fails its own job
                // inside the traversal and the other lanes run on; a panic
                // anywhere else (the source, a snapshot) fails every job
                // of the group that has not settled, not the sweep.
                if let Err(stop) = isolate(|| run.run_group(group)) {
                    for &j in group {
                        if run.outcomes[j].get().is_none() {
                            let position = run.positions[j].load(Ordering::Relaxed);
                            run.settle(j, position, Err(stop.clone()));
                        }
                    }
                }
            }));
        }
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        // Every capture is in: the writer saves the newest image and exits,
        // and the scope joins it, so the checkpoint is durable on return.
        if let Some((log, _)) = writer {
            log.close();
        }
        for worker in joined {
            if let Err(payload) = worker {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let ResilientRun {
        ckpt_broken,
        first_failure,
        retries_total,
        ..
    } = state;
    if let Some(why) = ckpt_broken.get() {
        return Err(DewError::Checkpoint(why.clone()));
    }

    let mut failed: Vec<JobFailure> = Vec::new();
    let mut done: Vec<FinishedJob> = Vec::new();
    for (j, slot) in outcomes.into_iter().enumerate() {
        match slot.into_inner() {
            Some(JobOutcome::Done { decoded, fanned }) => done.push((j, decoded, fanned)),
            Some(JobOutcome::Failed(f)) => failed.push(f),
            None => {
                // Never started: a cancelled sweep sheds its unstarted jobs
                // as cancellations (they are resumable work, not errors).
                let (kind, why) = match res.cancel.and_then(|t| t.cancelled()) {
                    Some(reason) => (FailureKind::Cancelled, format!("never started ({reason})")),
                    None => (
                        FailureKind::Source,
                        "never started (sweep aborted first)".to_owned(),
                    ),
                };
                failed.push(JobFailure {
                    block_bits: jobs[j].block_bits,
                    records_done: positions[j].load(Ordering::Relaxed),
                    error: format!("{}: {why}", job_label(jobs[j].block_bits, options.policy)),
                    kind,
                });
            }
        }
    }
    let retries = retries_total.load(Ordering::Relaxed);

    // Fail-fast runs and total losses escalate to a sweep-level error; a
    // degraded run with at least one surviving job returns partial results.
    let escalate = |f: &JobFailure| match f.kind {
        FailureKind::Source => DewError::TraceRead(f.error.clone()),
        FailureKind::Panic => DewError::WorkerPanic(f.error.clone()),
        FailureKind::Cancelled => DewError::Cancelled(f.error.clone()),
    };
    if res.fail_fast {
        if let Some(f) = first_failure.get() {
            return Err(escalate(f));
        }
    }
    if done.is_empty() {
        // A cancellation that outran every job still degrades (the partial
        // outcome carries the resumable accounting the caller needs to
        // print a resume hint); genuine total losses stay hard errors.
        let cancelled_only = failed.iter().all(|f| f.kind == FailureKind::Cancelled);
        if res.fail_fast || !cancelled_only {
            let f = first_failure
                .get()
                .or_else(|| failed.first())
                .expect("a sweep with no surviving jobs recorded a failure");
            return Err(escalate(f));
        }
    }

    let accesses = done.first().map_or(0, |(_, d, _)| *d);
    if let Some((j, d, _)) = done.iter().find(|(_, d, _)| *d != accesses) {
        let why = format!(
            "{} ended at record {d}, another job at {accesses}",
            job_label(jobs[*j].block_bits, options.policy)
        );
        // A resumed job marked complete ends where its checkpoint says;
        // otherwise only a source that replays differently can disagree.
        return Err(match res.resume {
            Some(_) => DewError::Checkpoint(why),
            None => DewError::TraceRead(why),
        });
    }
    let done_jobs = done.len() as u64;
    let mut slots: Vec<Option<(PassResults, DewCounters)>> = passes.iter().map(|_| None).collect();
    for (j, _, fanned) in done {
        for (&i, f) in jobs[j].pass_idx.iter().zip(fanned) {
            slots[i] = Some(f);
        }
    }
    let records_lost: u64 = failed
        .iter()
        .map(|f| accesses.saturating_sub(f.records_done))
        .sum();
    let records_simulated =
        accesses * done_jobs + failed.iter().map(|f| f.records_done).sum::<u64>();
    Ok(
        assemble(space, &passes, &jobs, slots, accesses, options.policy)
            .with_records_simulated(records_simulated)
            .with_failures(failed, retries, records_lost),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::SweepCheckpoint;
    use crate::request::SweepRequest;
    use dew_cachesim::{simulate_trace, CacheConfig, Replacement};
    use dew_trace::TraceError;

    /// The request every test below starts from.
    fn req(space: &ConfigSpace, options: DewOptions, threads: usize) -> SweepRequest<'_> {
        SweepRequest::new(space).options(options).threads(threads)
    }

    fn trace(n: usize) -> Vec<Record> {
        let mut x = 0x9E37_79B9u64;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = if i % 5 == 0 {
                    x % (1 << 12)
                } else {
                    (x % 96) * 4
                };
                Record::read(addr)
            })
            .collect()
    }

    #[test]
    fn sweep_covers_every_config_exactly() {
        let space = ConfigSpace::new((0, 4), (0, 2), (0, 2)).expect("valid");
        let records = trace(1200);
        let outcome = req(&space, DewOptions::default(), 2)
            .run(&records)
            .expect("sweep");
        assert_eq!(outcome.config_count() as u64, space.config_count());
        assert_eq!(outcome.accesses(), 1200);
        for (sets, assoc, block) in space.configs() {
            let expected = simulate_trace(
                CacheConfig::new(sets, assoc, block, Replacement::Fifo).expect("valid"),
                &records,
            )
            .misses();
            assert_eq!(
                outcome.misses(sets, assoc, block),
                Some(expected),
                "({sets},{assoc},{block})"
            );
        }
    }

    #[test]
    fn fused_sweep_traverses_once_per_block_size() {
        // The headline of the fused scheduler: associativities 1..=8 at one
        // block size cost exactly one decode and one trace traversal.
        let records = trace(900);
        let single_block = ConfigSpace::new((0, 6), (2, 2), (0, 3)).expect("valid");
        let outcome = req(&single_block, DewOptions::default(), 0)
            .instrumented(true)
            .run(&records)
            .expect("sweep");
        assert_eq!(outcome.trace_traversals(), 1);
        // All walk-level counters of the block size's passes are the shared
        // single-walk quantities.
        let evals: Vec<u64> = outcome
            .passes()
            .iter()
            .map(|(_, c)| c.node_evaluations)
            .collect();
        assert!(evals.iter().all(|&e| e > 0 && e == evals[0]));

        let multi_block = ConfigSpace::new((0, 4), (0, 2), (0, 3)).expect("valid");
        let outcome = req(&multi_block, DewOptions::default(), 0)
            .instrumented(true)
            .run(&records)
            .expect("sweep");
        assert_eq!(outcome.trace_traversals(), 3, "one per block size");
    }

    #[test]
    fn fused_matches_manual_per_pass_trees_bit_identically() {
        let records = trace(1500);
        let space = ConfigSpace::new((0, 5), (1, 3), (0, 3)).expect("valid");
        let fused = req(&space, DewOptions::default(), 0)
            .run(&records)
            .expect("sweep");
        // Every pass's configurations, one reference simulation each.
        for pass in space.passes() {
            for set_bits in pass.min_set_bits()..=pass.max_set_bits() {
                let sets = 1u32 << set_bits;
                for assoc in [1, pass.assoc()] {
                    let config =
                        CacheConfig::new(sets, assoc, pass.block_bytes(), Replacement::Fifo)
                            .expect("valid");
                    assert_eq!(
                        fused.misses(sets, assoc, pass.block_bytes()),
                        Some(simulate_trace(config, &records).misses()),
                        "{pass} sets={sets} assoc={assoc}"
                    );
                }
            }
        }
    }

    #[test]
    fn lru_sweep_fuses_to_one_traversal_per_block_size() {
        let records = trace(400);
        let space = ConfigSpace::new((0, 3), (2, 3), (0, 2)).expect("valid");
        let outcome = req(&space, DewOptions::for_policy(TreePolicy::Lru), 2)
            .run(&records)
            .expect("sweep");
        assert_eq!(
            outcome.trace_traversals(),
            2,
            "two block sizes, two traversals — the stack property fuses the rest"
        );
        assert_eq!(outcome.passes().len(), 4, "per-pass shape is preserved");
        for (sets, assoc, block) in space.configs() {
            let expected = simulate_trace(
                CacheConfig::new(sets, assoc, block, Replacement::Lru).expect("valid"),
                &records,
            )
            .misses();
            assert_eq!(outcome.misses(sets, assoc, block), Some(expected));
        }
    }

    #[test]
    fn instrumented_lru_sweep_shares_the_walk_and_matches_fast() {
        let records = trace(700);
        let space = ConfigSpace::new((0, 4), (2, 2), (0, 3)).expect("valid");
        let fast = req(&space, DewOptions::for_policy(TreePolicy::Lru), 0)
            .run(&records)
            .expect("sweep");
        let slow = req(&space, DewOptions::for_policy(TreePolicy::Lru), 0)
            .instrumented(true)
            .run(&records)
            .expect("sweep");
        assert_eq!(slow.trace_traversals(), 1, "one block size, one traversal");
        let mut a = fast.sorted();
        let mut b = slow.sorted();
        a.sort_by_key(|c| (c.block_bytes, c.assoc, c.sets));
        b.sort_by_key(|c| (c.block_bytes, c.assoc, c.sets));
        assert_eq!(a, b, "instrumentation must not change LRU miss counts");
        // One recency lane serves every associativity: the fanned counters
        // are the shared single-walk quantities, and they are consistent.
        let walks: Vec<DewCounters> = slow.passes().iter().map(|(_, c)| *c).collect();
        for c in &walks {
            assert!(c.is_consistent(), "{c}");
            assert_eq!(c.accesses, 700);
            assert!(c.node_evaluations > 0);
            assert_eq!(c, &walks[0], "all passes share the single fused walk");
        }
        assert!(fast.passes().iter().all(|(_, c)| c.node_evaluations == 0));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let space = ConfigSpace::new((0, 5), (0, 3), (0, 3)).expect("valid");
        let records = trace(800);
        let seq = req(&space, DewOptions::default(), 1)
            .run(&records)
            .expect("sweep");
        let par = req(&space, DewOptions::default(), 0)
            .run(&records)
            .expect("sweep");
        let mut a = seq.sorted();
        let mut b = par.sorted();
        a.sort_by_key(|c| (c.block_bytes, c.assoc, c.sets));
        b.sort_by_key(|c| (c.block_bytes, c.assoc, c.sets));
        assert_eq!(a, b);
        assert_eq!(seq.trace_traversals(), par.trace_traversals());
    }

    #[test]
    fn instrumented_sweep_matches_fast_sweep() {
        let space = ConfigSpace::new((0, 4), (0, 2), (0, 2)).expect("valid");
        let records = trace(900);
        let fast = req(&space, DewOptions::default(), 0)
            .run(&records)
            .expect("sweep");
        let slow = req(&space, DewOptions::default(), 0)
            .instrumented(true)
            .run(&records)
            .expect("sweep");
        let mut a = fast.sorted();
        let mut b = slow.sorted();
        a.sort_by_key(|c| (c.block_bytes, c.assoc, c.sets));
        b.sort_by_key(|c| (c.block_bytes, c.assoc, c.sets));
        assert_eq!(a, b, "instrumentation must not change miss counts");
        // Only the instrumented sweep carries the per-node breakdown.
        assert!(fast.passes().iter().all(|(_, c)| c.node_evaluations == 0));
        assert!(slow.passes().iter().all(|(_, c)| c.node_evaluations > 0));
    }

    #[test]
    fn unsound_options_rejected() {
        let space = ConfigSpace::new((0, 2), (0, 0), (0, 1)).expect("valid");
        let opts = DewOptions {
            policy: crate::options::TreePolicy::Lru,
            ..DewOptions::default()
        };
        assert!(req(&space, opts, 1).run(&[]).is_err());
    }

    #[test]
    fn counters_reported_per_pass() {
        let space = ConfigSpace::new((0, 3), (1, 2), (0, 1)).expect("valid");
        let records = trace(300);
        let outcome = req(&space, DewOptions::default(), 1)
            .instrumented(true)
            .run(&records)
            .expect("sweep");
        assert_eq!(outcome.passes().len(), space.passes().len());
        for (_, c) in outcome.passes() {
            assert_eq!(c.accesses, 300);
            assert!(c.is_consistent());
        }
        assert_eq!(
            outcome.total_counters().accesses,
            300 * outcome.passes().len() as u64
        );
    }

    fn lru_options() -> DewOptions {
        DewOptions {
            policy: TreePolicy::Lru,
            mra_stop: false,
            ..DewOptions::default()
        }
    }

    /// A fresh kernel for `job` of `space`, as the sweep driver builds it.
    fn job_kernel(space: &ConfigSpace, job: &FusedJob, options: DewOptions) -> FusedKernel {
        FusedKernel::build(
            job.block_bits,
            space.set_bits(),
            job.assoc_bits,
            options,
            false,
        )
        .expect("valid")
    }

    /// Serialises `kernel` and restores the bytes into a fresh kernel.
    fn handoff(kernel: &FusedKernel) -> FusedKernel {
        FusedKernel::from_snapshot(kernel.policy(), &kernel.to_snapshot()).expect("round trip")
    }

    #[test]
    fn snapshot_handoff_is_bit_identical_to_sequential() {
        let space = ConfigSpace::new((0, 4), (0, 2), (0, 2)).expect("valid");
        let records = trace(1100);
        let passes = space.passes();
        for options in [DewOptions::default(), lru_options()] {
            for job in group_by_block(&passes) {
                let blocks: Vec<u64> = records.iter().map(|r| r.addr >> job.block_bits).collect();
                let mut sequential = job_kernel(&space, &job, options);
                sequential.run_blocks(&blocks);
                // Snapshot and restore at the cuts of 2, 3, 5 and 7 even
                // intervals: the restored kernel carries on exactly.
                for pieces in [2, 3, 5, 7] {
                    let mut kernel = job_kernel(&space, &job, options);
                    let mut at = 0;
                    for s in 1..=pieces {
                        let cut = s * blocks.len() / pieces;
                        kernel.run_blocks(&blocks[at..cut]);
                        at = cut;
                        kernel = handoff(&kernel);
                    }
                    assert_eq!(kernel.to_snapshot(), sequential.to_snapshot(), "{pieces}");
                    for &i in &job.pass_idx {
                        let assoc = passes[i].assoc();
                        assert_eq!(kernel.fan_out(assoc), sequential.fan_out(assoc));
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_handoffs_restore_identical_snapshots() {
        // The degenerate handoffs: a fresh kernel and a finished one each
        // restore to an identical snapshot.
        let space = ConfigSpace::new((0, 3), (0, 1), (0, 1)).expect("valid");
        let records = trace(400);
        for policy in TreePolicy::ALL {
            let options = DewOptions::for_policy(policy);
            for job in group_by_block(&space.passes()) {
                let mut kernel = job_kernel(&space, &job, options);
                assert_eq!(handoff(&kernel).to_snapshot(), kernel.to_snapshot());
                let blocks: Vec<u64> = records.iter().map(|r| r.addr >> job.block_bits).collect();
                kernel.run_blocks(&blocks);
                assert_eq!(handoff(&kernel).to_snapshot(), kernel.to_snapshot());
            }
        }
    }

    #[test]
    fn sampled_sweep_validates_and_degenerates_to_exact() {
        let space = ConfigSpace::new((0, 2), (0, 1), (0, 1)).expect("valid");
        let records = trace(500);
        assert!(req(&space, DewOptions::default(), 1)
            .sampled(0, 1)
            .run(&records)
            .is_err());
        assert!(req(&space, DewOptions::default(), 1)
            .sampled(8, 0)
            .run(&records)
            .is_err());
        assert!(req(&space, DewOptions::default(), 1)
            .sampled(8, 9)
            .run(&records)
            .is_err());
        let full = req(&space, DewOptions::default(), 1)
            .sampled(8, 8)
            .run(&records)
            .expect("identity sampling");
        let exact = req(&space, DewOptions::default(), 1)
            .run(&records)
            .expect("sweep");
        assert_eq!(full.sorted(), exact.sorted());
        assert!(full.bounds().is_none(), "identity sampling is exact");
    }

    #[test]
    fn sampled_sweep_reports_retained_accesses_and_bounds() {
        let space = ConfigSpace::new((0, 3), (0, 1), (0, 1)).expect("valid");
        let records = trace(1000);
        let est = req(&space, lru_options(), 0)
            .sampled(100, 25)
            .run(&records)
            .expect("est");
        assert_eq!(est.accesses(), 250, "10 clusters of 25");
        let bounds = est.bounds().expect("sampled mode reports bounds");
        assert!(bounds.guaranteed(), "LRU bound is guaranteed");
        // The sampled stream is itself a trace; per-config miss counts must
        // be within slack of an exact sweep over the same spliced stream.
        let sampled: Vec<Record> = records
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 100 < 25)
            .map(|(_, r)| *r)
            .collect();
        let exact = req(&space, lru_options(), 0).run(&sampled).expect("sweep");
        for (sets, assoc, block) in space.configs() {
            let truth = exact.misses(sets, assoc, block).expect("covered");
            let guess = est.misses(sets, assoc, block).expect("covered");
            let slack = bounds.slack(sets, assoc, block).expect("covered");
            assert!(
                guess.abs_diff(truth) <= slack,
                "({sets},{assoc},{block}): truth={truth} est={guess} slack={slack}"
            );
        }
    }

    #[test]
    fn streamed_sweep_matches_in_memory_sweep() {
        use dew_trace::SliceSource;
        let space = ConfigSpace::new((0, 4), (0, 2), (0, 2)).expect("valid");
        let records = trace(1300);
        for options in [DewOptions::default(), lru_options()] {
            let in_memory = req(&space, options, 0).run(&records).expect("sweep");
            let streamed = req(&space, options, 0)
                .run_streamed(&SliceSource(&records))
                .expect("stream");
            assert_eq!(streamed.sorted(), in_memory.sorted());
            assert_eq!(streamed.accesses(), in_memory.accesses());
            assert_eq!(streamed.trace_traversals(), in_memory.trace_traversals());
        }
    }

    #[test]
    fn streamed_sweep_reports_source_errors() {
        use dew_trace::TraceError;
        let space = ConfigSpace::new((0, 2), (0, 1), (0, 1)).expect("valid");
        // A source whose reader fails after two good records.
        let source = || {
            Ok([
                Ok(Record::read(0)),
                Ok(Record::read(64)),
                Err(TraceError::Truncated { position: 3 }),
            ]
            .into_iter())
        };
        let err = req(&space, DewOptions::default(), 1)
            .run_streamed(&source)
            .expect_err("truncation must surface");
        let DewError::TraceRead(msg) = &err else {
            panic!("expected TraceRead, got {err}");
        };
        // The message names the failing job and the decode position.
        assert!(msg.contains("block "), "{msg}");
        assert!(msg.contains("at record 2"), "{msg}");

        // A transient fault gets no retry under the plain plan: the source
        // is opened once (every retry re-opens it, after its backoff
        // sleep) and the error names the same job and position.
        let opens = AtomicU64::new(0);
        let flaky = || {
            opens.fetch_add(1, Ordering::Relaxed);
            Ok([
                Ok(Record::read(0)),
                Ok(Record::read(64)),
                Err(TraceError::Io(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "injected transient read failure",
                ))),
            ]
            .into_iter())
        };
        let err = req(&space, DewOptions::default(), 1)
            .run_streamed(&flaky)
            .expect_err("a plain run does not retry");
        let DewError::TraceRead(msg) = &err else {
            panic!("expected TraceRead, got {err}");
        };
        assert!(msg.contains("block "), "{msg}");
        assert!(msg.contains("at record 2"), "{msg}");
        assert_eq!(opens.load(Ordering::Relaxed), 1, "no retry was made");
    }

    #[test]
    fn resilient_defaults_match_plain_sweep_for_both_policies() {
        let space = ConfigSpace::new((0, 4), (0, 2), (0, 2)).expect("valid");
        let records = trace(1100);
        for options in [DewOptions::default(), lru_options()] {
            let plain = req(&space, options, 0).run(&records).expect("sweep");
            let res = Resilience::new().with_sleeper(&crate::resilience::NoSleep);
            let resilient = req(&space, options, 0)
                .resilient(&res)
                .run(&records)
                .expect("resilient");
            assert!(!resilient.is_partial());
            assert_eq!(resilient.retries(), 0);
            assert_eq!(resilient.sorted(), plain.sorted());
            assert_eq!(resilient.accesses(), plain.accesses());
        }
    }

    #[test]
    fn transient_open_failures_are_retried_and_recovered() {
        use dew_trace::TraceError;
        let space = ConfigSpace::new((0, 3), (2, 3), (0, 1)).expect("valid");
        let records = trace(600);
        let plain = req(&space, DewOptions::default(), 0)
            .run(&records)
            .expect("sweep");
        let fails = AtomicU64::new(2);
        let source = || {
            let failed = fails
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok();
            if failed {
                return Err(TraceError::Io(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "injected transient open failure",
                )));
            }
            Ok(records.iter().copied().map(Ok::<Record, TraceError>))
        };
        let res = Resilience::new().with_sleeper(&crate::resilience::NoSleep);
        let outcome = req(&space, DewOptions::default(), 1)
            .resilient(&res)
            .run_streamed(&source)
            .expect("recovered");
        assert!(!outcome.is_partial());
        assert_eq!(outcome.retries(), 2);
        assert_eq!(outcome.sorted(), plain.sorted());
    }

    /// A source that truncates to 100 records with a fatal error — but only
    /// on its second open (ordinal 1). Every other open replays the full
    /// trace cleanly. With one traversal per job (as many workers as
    /// jobs), exactly one job meets the truncation; which one depends on
    /// the order the workers open the source in.
    fn second_open_truncates<'a>(
        records: &'a [Record],
        opens: &'a AtomicU64,
    ) -> impl Fn() -> Result<
        std::vec::IntoIter<Result<Record, dew_trace::TraceError>>,
        dew_trace::TraceError,
    > + Sync
           + 'a {
        move || {
            let ordinal = opens.fetch_add(1, Ordering::Relaxed);
            let mut items: Vec<Result<Record, dew_trace::TraceError>> =
                records.iter().copied().map(Ok).collect();
            if ordinal == 1 {
                items.truncate(100);
                items.push(Err(dew_trace::TraceError::Truncated { position: 101 }));
            }
            Ok(items.into_iter())
        }
    }

    #[test]
    fn fatal_job_failures_degrade_to_partial_results() {
        let space = ConfigSpace::new((0, 2), (2, 4), (0, 1)).expect("valid");
        let records = trace(500);
        let opens = AtomicU64::new(0);
        let source = second_open_truncates(&records, &opens);
        let res = Resilience::new().with_sleeper(&crate::resilience::NoSleep);
        let outcome = req(&space, DewOptions::default(), 3)
            .resilient(&res)
            .run_streamed(&source)
            .expect("degraded mode returns partial results");
        assert_eq!(opens.load(Ordering::Relaxed), 3, "one traversal per job");
        assert!(outcome.is_partial());
        assert_eq!(outcome.retries(), 0, "fatal errors are not retried");
        let failed = outcome.failed_jobs();
        assert_eq!(failed.len(), 1);
        let dead = 1u32 << failed[0].block_bits;
        assert_eq!(failed[0].records_done, 100);
        assert_eq!(failed[0].kind, FailureKind::Source);
        assert!(
            failed[0].error.contains(&format!("block {dead}B")),
            "{}",
            failed[0].error
        );
        // The miss table is honest: surviving blocks answer, the dead one
        // does not.
        for block in [4, 8, 16] {
            assert_eq!(outcome.config_error(block).is_some(), block == dead);
            assert_eq!(outcome.misses(1, 2, block).is_none(), block == dead);
        }
        assert_eq!(outcome.records_lost(), outcome.accesses() - 100);
    }

    #[test]
    fn a_non_utf8_din_line_fails_without_retry_and_names_its_line() {
        use dew_trace::din::DinReader;
        // 201 `.din` lines; line 101 carries a byte that is not UTF-8.
        let mut text = Vec::new();
        for i in 0..201u64 {
            if i == 100 {
                text.extend_from_slice(b"0 \xff20\n");
            } else {
                text.extend_from_slice(format!("0 {:x}\n", i * 24).as_bytes());
            }
        }
        let opens = AtomicU64::new(0);
        let source = || {
            opens.fetch_add(1, Ordering::Relaxed);
            Ok(DinReader::new(text.as_slice()))
        };
        let space = ConfigSpace::new((0, 2), (2, 2), (0, 1)).expect("valid");
        let res = Resilience::new().with_sleeper(&crate::resilience::NoSleep);
        // The one job fails, so the sweep has nothing left to report.
        let err = req(&space, DewOptions::default(), 1)
            .resilient(&res)
            .run_streamed(&source)
            .expect_err("the only job fails");
        let DewError::TraceRead(msg) = &err else {
            panic!("expected TraceRead, got {err}");
        };
        // Every retry re-opens the source: one open means no retry.
        assert_eq!(opens.load(Ordering::Relaxed), 1, "{msg}");
        assert!(msg.contains("at record 100"), "{msg}");
        assert!(msg.contains("position 101"), "{msg}");
        assert!(msg.contains("UTF-8"), "{msg}");
        assert!(!msg.contains("retries"), "{msg}");
    }

    #[test]
    fn fail_fast_escalates_the_first_job_failure() {
        let space = ConfigSpace::new((0, 2), (2, 4), (0, 1)).expect("valid");
        let records = trace(500);
        let opens = AtomicU64::new(0);
        let source = second_open_truncates(&records, &opens);
        let res = Resilience::new()
            .fail_fast(true)
            .with_sleeper(&crate::resilience::NoSleep);
        let err = req(&space, DewOptions::default(), 3)
            .resilient(&res)
            .run_streamed(&source)
            .expect_err("fail-fast aborts");
        let DewError::TraceRead(msg) = &err else {
            panic!("expected TraceRead, got {err}");
        };
        assert!(
            msg.contains("block ") && msg.contains("at record 100"),
            "{msg}"
        );

        // One worker feeds every job from one traversal: a fatal fault
        // fails them all, and fail-fast escalates the first job's.
        let truncated = || {
            let mut items: Vec<Result<Record, dew_trace::TraceError>> =
                records.iter().copied().map(Ok).take(100).collect();
            items.push(Err(dew_trace::TraceError::Truncated { position: 101 }));
            Ok(items.into_iter())
        };
        let err = req(&space, DewOptions::default(), 1)
            .resilient(&res)
            .run_streamed(&truncated)
            .expect_err("fail-fast aborts");
        let DewError::TraceRead(msg) = &err else {
            panic!("expected TraceRead, got {err}");
        };
        assert!(
            msg.contains("block 4B") && msg.contains("at record 100"),
            "{msg}"
        );
    }

    #[test]
    fn worker_panics_are_isolated_into_job_failures() {
        let space = ConfigSpace::new((0, 2), (2, 4), (0, 1)).expect("valid");
        // The top address is the kernels' sentinel block at 1-byte blocks
        // only: the 1-byte kernel panics on it, the 2- and 4-byte ones do
        // not.
        let wide = ConfigSpace::new((0, 2), (0, 2), (0, 1)).expect("valid");
        let mut records = trace(400);
        records[50] = Record::read(u64::MAX);
        let res = Resilience::new().with_sleeper(&crate::resilience::NoSleep);
        // One worker feeds all three kernels from one traversal: the
        // 1-byte kernel's panic fails its own job, and the other kernels
        // run on to the same results the per-job schedule gives them.
        let opens = AtomicU64::new(0);
        let source = || {
            opens.fetch_add(1, Ordering::Relaxed);
            Ok(records.iter().copied().map(Ok::<Record, TraceError>))
        };
        let one = req(&wide, DewOptions::default(), 1)
            .resilient(&res)
            .run_streamed(&source)
            .expect("panic degrades, not aborts");
        assert_eq!(opens.load(Ordering::Relaxed), 1);
        assert!(one.is_partial());
        let failed = one.failed_jobs();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].kind, FailureKind::Panic);
        assert_eq!(failed[0].block_bits, 0);
        assert_eq!(failed[0].records_done, 0, "the panicking fill is lost");
        assert!(
            failed[0].error.contains("block 1B")
                && failed[0].error.contains("exceeds the supported range"),
            "{}",
            failed[0].error
        );
        assert_eq!(one.accesses(), 400);
        let per_job = req(&wide, DewOptions::default(), 3)
            .resilient(&res)
            .run_streamed(&source)
            .expect("panic degrades, not aborts");
        assert_eq!(one.sorted(), per_job.sorted());
        assert_eq!(one.failed_jobs(), per_job.failed_jobs());

        // A panic in the source itself, with one traversal per job, fails
        // the one job whose traversal met it.
        let clean = trace(400);
        let opens = AtomicU64::new(0);
        let source = move || {
            let ordinal = opens.fetch_add(1, Ordering::Relaxed);
            Ok(clean.clone().into_iter().enumerate().map(move |(i, r)| {
                if ordinal == 1 && i == 50 {
                    panic!("injected source panic");
                }
                Ok::<Record, dew_trace::TraceError>(r)
            }))
        };
        let outcome = req(&space, DewOptions::default(), 3)
            .resilient(&res)
            .run_streamed(&source)
            .expect("panic degrades, not aborts");
        assert!(outcome.is_partial());
        let failed = outcome.failed_jobs();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].kind, FailureKind::Panic);
        assert!(
            failed[0].error.contains("injected source panic"),
            "{}",
            failed[0].error
        );

        // The plain plan isolates the panic too, and fails fast with it
        // instead of unwinding through the caller.
        let stream = trace(400);
        let panicking = move || {
            Ok(stream.clone().into_iter().enumerate().map(|(i, r)| {
                if i == 50 {
                    panic!("injected source panic");
                }
                Ok::<Record, dew_trace::TraceError>(r)
            }))
        };
        let err = req(&space, DewOptions::default(), 1)
            .run_streamed(&panicking)
            .expect_err("a plain run fails fast");
        let DewError::WorkerPanic(msg) = &err else {
            panic!("expected WorkerPanic, got {err}");
        };
        assert!(msg.contains("injected source panic"), "{msg}");
    }

    #[test]
    fn checkpoint_resume_is_bit_identical() {
        let space = ConfigSpace::new((0, 4), (0, 2), (0, 2)).expect("valid");
        let records = trace(1000);
        for options in [DewOptions::default(), lru_options()] {
            let baseline = req(&space, options, 0).run(&records).expect("sweep");
            let store = crate::checkpoint::MemoryCheckpointStore::new();
            let res = Resilience::new()
                .with_checkpoint(300, &store)
                .with_sleeper(&crate::resilience::NoSleep);
            let full = req(&space, options, 0)
                .resilient(&res)
                .run(&records)
                .expect("checkpointed run");
            assert_eq!(full.sorted(), baseline.sorted());
            let history = store.history();
            assert!(!history.is_empty(), "checkpoints were taken");
            // Resume from the first, a middle, and the final image: every
            // resumed sweep reproduces the uninterrupted results exactly.
            for idx in [0, history.len() / 2, history.len() - 1] {
                let ckpt =
                    SweepCheckpoint::from_bytes(&history[idx]).expect("stored image decodes");
                let res = Resilience::new()
                    .resume_from(&ckpt)
                    .with_sleeper(&crate::resilience::NoSleep);
                let resumed = req(&space, options, 0)
                    .resilient(&res)
                    .run(&records)
                    .expect("resumed run");
                assert!(!resumed.is_partial());
                assert_eq!(resumed.sorted(), baseline.sorted(), "image {idx}");
                assert_eq!(resumed.accesses(), baseline.accesses());
            }
        }
    }

    /// A store that records every image and lets a source wait until a
    /// number of them were saved.
    #[derive(Default)]
    struct CountingStore {
        images: std::sync::Mutex<Vec<Vec<u8>>>,
        saved: std::sync::Condvar,
    }

    impl crate::checkpoint::CheckpointStore for CountingStore {
        fn save(&self, bytes: &[u8]) -> Result<(), String> {
            self.images
                .lock()
                .expect("no panic holds it")
                .push(bytes.to_vec());
            self.saved.notify_all();
            Ok(())
        }
    }

    #[test]
    fn a_stream_ending_at_a_cadence_point_captures_each_position_once() {
        let space = ConfigSpace::new((0, 4), (2, 2), (0, 2)).expect("valid");
        let records = trace(1000);
        let baseline = req(&space, DewOptions::default(), 1)
            .run(&records)
            .expect("sweep");
        let store = CountingStore::default();
        // The stream ends only once an image is through, so the writer
        // cannot coalesce the record-500 capture with the completion. It
        // also gives a second capture before the end (a duplicate at
        // record 1000) a while to reach the store, so one cannot hide in
        // the completion's image either.
        let source = || {
            let end = std::iter::from_fn(|| {
                let grace = std::time::Duration::from_millis(200);
                let images = store.images.lock().expect("no panic holds it");
                let images = store.saved.wait_while(images, |i| i.is_empty());
                let images = images.expect("no panic holds it");
                let _ = store
                    .saved
                    .wait_timeout_while(images, grace, |i| i.len() < 2);
                None
            });
            Ok(records.clone().into_iter().map(Ok).chain(end))
        };
        let res = Resilience::new()
            .with_checkpoint(500, &store)
            .with_sleeper(&crate::resilience::NoSleep);
        let full = req(&space, DewOptions::default(), 1)
            .resilient(&res)
            .run_streamed(&source)
            .expect("checkpointed run");
        assert_eq!(full.sorted(), baseline.sorted());
        let images = store.images.into_inner().expect("no panic holds it");
        let saved: Vec<(u64, bool)> = images
            .iter()
            .map(|image| {
                let ckpt = SweepCheckpoint::from_bytes(image).expect("stored image decodes");
                let job = &ckpt.jobs()[0];
                (job.records_done, job.complete)
            })
            .collect();
        assert_eq!(saved, [(500, false), (1000, true)]);
        for image in &images {
            let ckpt = SweepCheckpoint::from_bytes(image).expect("stored image decodes");
            let res = Resilience::new()
                .resume_from(&ckpt)
                .with_sleeper(&crate::resilience::NoSleep);
            let resumed = req(&space, DewOptions::default(), 1)
                .resilient(&res)
                .run(&records)
                .expect("resumed run");
            assert!(!resumed.is_partial());
            assert_eq!(resumed.sorted(), baseline.sorted());
        }
    }

    #[test]
    fn resume_rejects_mismatched_checkpoints() {
        let space = ConfigSpace::new((0, 3), (2, 3), (0, 1)).expect("valid");
        let records = trace(300);
        let store = crate::checkpoint::MemoryCheckpointStore::new();
        let res = Resilience::new()
            .with_checkpoint(100, &store)
            .with_sleeper(&crate::resilience::NoSleep);
        req(&space, DewOptions::default(), 0)
            .resilient(&res)
            .run(&records)
            .expect("sweep");
        let ckpt =
            SweepCheckpoint::from_bytes(&store.latest().expect("saved")).expect("image decodes");
        // Different space → fingerprint mismatch.
        let other = ConfigSpace::new((0, 4), (2, 3), (0, 1)).expect("valid");
        let res = Resilience::new()
            .resume_from(&ckpt)
            .with_sleeper(&crate::resilience::NoSleep);
        let err = req(&other, DewOptions::default(), 0)
            .resilient(&res)
            .run(&records)
            .expect_err("fingerprint mismatch");
        assert!(matches!(err, DewError::Checkpoint(_)), "{err}");
        // Different policy → rejected before fingerprints are compared.
        let err = req(&space, lru_options(), 0)
            .resilient(&res)
            .run(&records)
            .expect_err("policy mismatch");
        let DewError::Checkpoint(msg) = &err else {
            panic!("expected Checkpoint, got {err}");
        };
        assert!(msg.contains("policy"), "{msg}");
    }

    /// A one-job `DEWC` image: the header of `image` (whose job count must
    /// be one) followed by a job holding `records_done` and `kernel`.
    fn one_job_image(image: &[u8], records_done: u64, kernel: &[u8]) -> Vec<u8> {
        let mut out = image[..18].to_vec();
        assert_eq!(out[14..18], 1u32.to_le_bytes(), "one job");
        out.extend_from_slice(&image[18..22]); // block bits
        out.extend_from_slice(&records_done.to_le_bytes());
        out.push(0); // in flight
        out.extend_from_slice(&u32::try_from(kernel.len()).expect("len").to_le_bytes());
        out.extend_from_slice(kernel);
        out
    }

    /// The last image a checkpointing sweep of `space` (one block size)
    /// saves: its job is complete, at the end of `records`.
    fn final_image(space: &ConfigSpace, options: DewOptions, records: &[Record]) -> Vec<u8> {
        let store = crate::checkpoint::MemoryCheckpointStore::new();
        let res = Resilience::new()
            .with_checkpoint(1000, &store)
            .with_sleeper(&crate::resilience::NoSleep);
        req(space, options, 1)
            .resilient(&res)
            .run(records)
            .expect("checkpointed run");
        store.latest().expect("saved")
    }

    #[test]
    fn resume_rejects_a_kernel_whose_access_count_differs_from_the_job() {
        let space = ConfigSpace::new((0, 4), (2, 2), (0, 2)).expect("valid");
        let records = trace(4000);
        for policy in TreePolicy::ALL {
            let options = DewOptions::for_policy(policy);
            let image = final_image(&space, options, &records);
            let ckpt = SweepCheckpoint::from_bytes(&image).expect("decodes");
            let job = &ckpt.jobs()[0];
            assert_eq!(job.records_done, 4000);
            // The kernel simulated 4000 records; the job now claims 3500,
            // so a resume would simulate the last 500 twice.
            let bad = one_job_image(&image, 3500, &job.kernel);
            let ckpt = SweepCheckpoint::from_bytes(&bad).expect("decodes");
            let res = Resilience::new()
                .resume_from(&ckpt)
                .with_sleeper(&crate::resilience::NoSleep);
            let err = req(&space, options, 1)
                .resilient(&res)
                .run(&records)
                .expect_err("the kernel is 500 records ahead of its job");
            let DewError::Checkpoint(msg) = &err else {
                panic!("{policy}: expected Checkpoint, got {err}");
            };
            assert!(msg.contains("block 4B") && msg.contains("4000"), "{msg}");
        }
    }

    #[test]
    fn resume_rejects_a_kernel_of_another_geometry() {
        let space = ConfigSpace::new((0, 4), (2, 2), (0, 2)).expect("valid");
        let records = trace(2000);
        for policy in TreePolicy::ALL {
            let options = DewOptions::for_policy(policy);
            let image = final_image(&space, options, &records);
            for other in [
                ConfigSpace::new((0, 4), (2, 2), (0, 1)).expect("valid"),
                ConfigSpace::new((1, 5), (2, 2), (0, 2)).expect("valid"),
            ] {
                // A kernel of the same block size and progress, but another
                // set or associativity range, under this sweep's header.
                let foreign = final_image(&other, options, &records);
                let kernel = &SweepCheckpoint::from_bytes(&foreign)
                    .expect("decodes")
                    .jobs()[0]
                    .kernel
                    .clone();
                let bad = one_job_image(&image, 2000, kernel);
                let ckpt = SweepCheckpoint::from_bytes(&bad).expect("decodes");
                let res = Resilience::new()
                    .resume_from(&ckpt)
                    .with_sleeper(&crate::resilience::NoSleep);
                let err = req(&space, options, 1)
                    .resilient(&res)
                    .run(&records)
                    .expect_err("the kernel cannot fan out this job's passes");
                let DewError::Checkpoint(msg) = &err else {
                    panic!("{policy} {other}: expected Checkpoint, got {err}");
                };
                assert!(msg.contains("block 4B"), "{msg}");
            }
        }
    }

    #[test]
    fn cancellation_flushes_a_final_checkpoint_and_stays_resumable() {
        use crate::cancel::CancelToken;
        let space = ConfigSpace::new((0, 3), (2, 4), (0, 1)).expect("valid");
        let records = trace(1000);
        let baseline = req(&space, DewOptions::default(), 0)
            .run(&records)
            .expect("sweep");

        // The source itself trips the token while delivering record 400, so
        // cancellation lands mid-stream deterministically.
        let token = CancelToken::new();
        let trip = token.clone();
        let stream = records.clone();
        let source = move || {
            let trip = trip.clone();
            Ok(stream.clone().into_iter().enumerate().map(move |(i, r)| {
                if i == 400 {
                    trip.cancel();
                }
                Ok::<Record, dew_trace::TraceError>(r)
            }))
        };
        let store = crate::checkpoint::MemoryCheckpointStore::new();
        let res = Resilience::new()
            .with_checkpoint(250, &store)
            .with_cancel(&token)
            .with_sleeper(&crate::resilience::NoSleep);
        let outcome = req(&space, DewOptions::default(), 1)
            .resilient(&res)
            .run_streamed(&source)
            .expect("cancellation degrades, not errors");
        assert!(outcome.is_partial());
        let failed = outcome.failed_jobs();
        assert_eq!(failed.len(), 3, "all three block-size jobs stopped");
        // One worker feeds the three kernels from one traversal: all were
        // caught at the 500-record checkpoint stop after the token fired
        // at 400.
        for f in failed {
            assert_eq!(f.kind, FailureKind::Cancelled);
            assert_eq!(f.records_done, 500);
            assert!(f.error.contains("cancelled after 500"), "{}", f.error);
        }

        // The final checkpoint images make the interrupted sweep resumable:
        // a resume (without the token) completes bit-identically.
        let ckpt = SweepCheckpoint::from_bytes(&store.latest().expect("final checkpoint saved"))
            .expect("image decodes");
        let res = Resilience::new()
            .resume_from(&ckpt)
            .with_sleeper(&crate::resilience::NoSleep);
        let resumed = req(&space, DewOptions::default(), 1)
            .resilient(&res)
            .run_streamed(&source)
            .expect("resumed run");
        assert!(!resumed.is_partial());
        assert_eq!(resumed.sorted(), baseline.sorted());
    }

    /// A boxed record stream, so test sources can share one iterator type.
    type Stream<'a> = Box<dyn Iterator<Item = Result<Record, TraceError>> + 'a>;

    /// A source over `records` that counts its opens in `opens` and trips
    /// `token` (if any) as it delivers record `trip_at` of every open.
    fn counted<'a>(
        records: &'a [Record],
        opens: &'a AtomicU64,
        trip: Option<(&'a crate::cancel::CancelToken, usize)>,
    ) -> impl Fn() -> Result<Stream<'a>, TraceError> + Sync + 'a {
        move || {
            opens.fetch_add(1, Ordering::Relaxed);
            Ok(Box::new(records.iter().enumerate().map(move |(i, &r)| {
                if let Some((token, at)) = trip {
                    if i == at {
                        token.cancel();
                    }
                }
                Ok(r)
            })) as Stream<'a>)
        }
    }

    #[test]
    fn one_worker_opens_the_source_once_per_sweep() {
        // A resident trace keeps one traversal per job on one worker.
        assert_eq!(plan_groups(1, 3, false), [vec![0, 1, 2]]);
        assert_eq!(plan_groups(1, 3, true), [[0], [1], [2]]);
        assert_eq!(plan_groups(2, 3, false), [[0], [1], [2]]);
        let space = ConfigSpace::new((0, 4), (0, 2), (0, 2)).expect("valid");
        let records = trace(900);
        for options in [DewOptions::default(), lru_options()] {
            let baseline = req(&space, options, 1).run(&records).expect("sweep");
            for (threads, want) in [(1, 1), (3, 3), (8, 3)] {
                let opens = AtomicU64::new(0);
                let outcome = req(&space, options, threads)
                    .run_streamed(&counted(&records, &opens, None))
                    .expect("stream");
                assert_eq!(opens.load(Ordering::Relaxed), want, "threads {threads}");
                assert_eq!(outcome.trace_traversals(), 3, "one per block size");
                assert_eq!(outcome.sorted(), baseline.sorted(), "threads {threads}");
                assert_eq!(outcome.passes(), baseline.passes(), "threads {threads}");
            }
        }
    }

    #[test]
    fn a_transient_fault_mid_fill_retries_the_whole_group() {
        let space = ConfigSpace::new((0, 4), (0, 2), (0, 2)).expect("valid");
        let records = trace(1000);
        let baseline = req(&space, DewOptions::default(), 3)
            .run(&records)
            .expect("sweep");
        // The first open delivers 300 records and then a transient fault;
        // every later open replays the trace cleanly.
        let opens = AtomicU64::new(0);
        let source = || {
            let first = opens.fetch_add(1, Ordering::Relaxed) == 0;
            let delivered = if first { 300 } else { records.len() };
            let fault = first.then(|| {
                Err(TraceError::Io(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "injected transient read failure",
                )))
            });
            Ok(records[..delivered].iter().copied().map(Ok).chain(fault))
        };
        let store = crate::checkpoint::MemoryCheckpointStore::new();
        let res = Resilience::new()
            .with_checkpoint(200, &store)
            .with_sleeper(&crate::resilience::NoSleep);
        let outcome = req(&space, DewOptions::default(), 1)
            .resilient(&res)
            .run_streamed(&source)
            .expect("recovered");
        assert_eq!(opens.load(Ordering::Relaxed), 2, "one retry for the group");
        assert_eq!(outcome.retries(), 1);
        assert!(!outcome.is_partial());
        assert_eq!(outcome.sorted(), baseline.sorted());
        assert_eq!(outcome.passes(), baseline.passes());
        // Its final image holds the kernels the per-job schedule ends
        // with, byte for byte.
        let per_job = crate::checkpoint::MemoryCheckpointStore::new();
        let res = Resilience::new()
            .with_checkpoint(200, &per_job)
            .with_sleeper(&crate::resilience::NoSleep);
        req(&space, DewOptions::default(), 3)
            .resilient(&res)
            .run(&records)
            .expect("checkpointed run");
        let jobs = |image: Vec<u8>| {
            let ckpt = SweepCheckpoint::from_bytes(&image).expect("decodes");
            let mut jobs = ckpt.jobs().to_vec();
            jobs.sort_by_key(|j| j.block_bits);
            jobs
        };
        assert_eq!(
            jobs(store.latest().expect("saved")),
            jobs(per_job.latest().expect("saved"))
        );
    }

    /// A checkpoint of the sweep `image` belongs to, holding exactly
    /// `jobs`.
    fn compose(image: &[u8], jobs: &[&crate::checkpoint::JobCheckpoint]) -> SweepCheckpoint {
        let mut out = image[..14].to_vec();
        out.extend_from_slice(&u32::try_from(jobs.len()).expect("len").to_le_bytes());
        for job in jobs {
            out.extend_from_slice(&job.block_bits.to_le_bytes());
            out.extend_from_slice(&job.records_done.to_le_bytes());
            out.push(u8::from(job.complete));
            out.extend_from_slice(&u32::try_from(job.kernel.len()).expect("len").to_le_bytes());
            out.extend_from_slice(&job.kernel);
        }
        SweepCheckpoint::from_bytes(&out).expect("composed image decodes")
    }

    /// The space of the mixed-position resume tests: 4-, 8- and 16-byte
    /// blocks, checkpointed every 250 records of a 1000-record trace.
    fn mixed_space() -> ConfigSpace {
        ConfigSpace::new((0, 3), (2, 4), (0, 2)).expect("valid")
    }

    /// Runs a checkpointed (every 250) sweep of `mixed_space` over
    /// `records` at `threads`, optionally resumed from `from` and cancelled
    /// by a token its source trips at record `trip_at`. Returns the
    /// outcome and the last image saved.
    fn checkpointed(
        records: &[Record],
        threads: usize,
        from: Option<&SweepCheckpoint>,
        trip_at: Option<usize>,
    ) -> (SweepOutcome, Vec<u8>) {
        let token = crate::cancel::CancelToken::new();
        let opens = AtomicU64::new(0);
        let source = counted(records, &opens, trip_at.map(|at| (&token, at)));
        let store = crate::checkpoint::MemoryCheckpointStore::new();
        let mut res = Resilience::new()
            .with_checkpoint(250, &store)
            .with_cancel(&token)
            .with_sleeper(&crate::resilience::NoSleep);
        if let Some(ckpt) = from {
            res = res.resume_from(ckpt);
        }
        let outcome = req(&mixed_space(), DewOptions::default(), threads)
            .resilient(&res)
            .run_streamed(&source)
            .expect("checkpointed run");
        (outcome, store.latest().expect("saved"))
    }

    /// `(block bits, records done)` of every job in `image`, by block.
    fn positions_of(image: &[u8]) -> Vec<(u32, u64)> {
        let ckpt = SweepCheckpoint::from_bytes(image).expect("decodes");
        let mut at: Vec<_> = ckpt
            .jobs()
            .iter()
            .map(|j| (j.block_bits, j.records_done))
            .collect();
        at.sort_unstable();
        at
    }

    #[test]
    fn checkpoints_resume_across_worker_counts_with_jobs_at_different_positions() {
        let records = trace(1000);
        let baseline = req(&mixed_space(), DewOptions::default(), 3)
            .run(&records)
            .expect("sweep");
        // Two cancelled one-worker runs leave every job at 500 and at 750;
        // the mixed image takes the 4-byte job from the first and the
        // 8-byte job from the second, and has never run the 16-byte job.
        let (_, at_500) = checkpointed(&records, 1, None, Some(400));
        let (_, at_750) = checkpointed(&records, 1, None, Some(700));
        assert_eq!(positions_of(&at_500), [(2, 500), (3, 500), (4, 500)]);
        assert_eq!(positions_of(&at_750), [(2, 750), (3, 750), (4, 750)]);
        let early = SweepCheckpoint::from_bytes(&at_500).expect("decodes");
        let late = SweepCheckpoint::from_bytes(&at_750).expect("decodes");
        let mixed = compose(
            &at_500,
            &[early.job(2).expect("4B"), late.job(3).expect("8B")],
        );
        for threads in [1, 2, 3] {
            let (resumed, _) = checkpointed(&records, threads, Some(&mixed), None);
            assert!(!resumed.is_partial());
            assert_eq!(resumed.sorted(), baseline.sorted(), "threads {threads}");
        }

        // One worker, cancelled at record 400 of the traversal: the lanes
        // behind stop at 500, the 8-byte lane stays where it was resumed,
        // and each reports its own position. Two workers finish the image.
        let (cut, image) = checkpointed(&records, 1, Some(&mixed), Some(400));
        let mut done: Vec<(u32, u64)> = cut
            .failed_jobs()
            .iter()
            .map(|f| (f.block_bits, f.records_done))
            .collect();
        done.sort_unstable();
        assert_eq!(done, [(2, 500), (3, 750), (4, 500)]);
        assert_eq!(positions_of(&image), done);
        let ckpt = SweepCheckpoint::from_bytes(&image).expect("decodes");
        let (resumed, _) = checkpointed(&records, 2, Some(&ckpt), None);
        assert!(!resumed.is_partial());
        assert_eq!(resumed.sorted(), baseline.sorted());

        // Two workers, each traversal tripping the token at its record
        // 400: the 8-byte job stops at 750 or 1000 and the 16-byte job by
        // 500, whichever traversal trips the token first. One worker
        // finishes that image.
        let (_, image) = checkpointed(&records, 2, Some(&mixed), Some(400));
        let at = positions_of(&image);
        assert!(at[1].1 >= 750 && at[2].1 <= 500, "{at:?}");
        let ckpt = SweepCheckpoint::from_bytes(&image).expect("decodes");
        let (resumed, _) = checkpointed(&records, 1, Some(&ckpt), None);
        assert!(!resumed.is_partial());
        assert_eq!(resumed.sorted(), baseline.sorted());
    }

    #[test]
    fn a_fatal_fault_fails_each_job_of_the_traversal_at_its_own_position() {
        let records = trace(1000);
        let (_, at_500) = checkpointed(&records, 1, None, Some(400));
        let (_, at_750) = checkpointed(&records, 1, None, Some(700));
        let (_, done) = checkpointed(&records, 1, None, None);
        let early = SweepCheckpoint::from_bytes(&at_500).expect("decodes");
        let late = SweepCheckpoint::from_bytes(&at_750).expect("decodes");
        let complete = SweepCheckpoint::from_bytes(&done).expect("decodes");
        // The 16-byte job is complete, the 4-byte one at 500 and the
        // 8-byte one at 750; the source dies for good after record 600.
        let mixed = compose(
            &at_500,
            &[
                early.job(2).expect("4B"),
                late.job(3).expect("8B"),
                complete.job(4).expect("16B"),
            ],
        );
        let truncated = || {
            let fault = Err(TraceError::Truncated { position: 601 });
            Ok(records[..600].iter().copied().map(Ok).chain([fault]))
        };
        let res = Resilience::new()
            .resume_from(&mixed)
            .with_sleeper(&crate::resilience::NoSleep);
        let outcome = req(&mixed_space(), DewOptions::default(), 1)
            .resilient(&res)
            .run_streamed(&truncated)
            .expect("the complete job survives");
        let mut failed: Vec<(u32, u64)> = outcome
            .failed_jobs()
            .iter()
            .map(|f| (f.block_bits, f.records_done))
            .collect();
        failed.sort_unstable();
        assert_eq!(failed, [(2, 600), (3, 750)]);
        assert!(outcome
            .failed_jobs()
            .iter()
            .all(|f| f.kind == FailureKind::Source && f.error.contains("at record 600")));
        assert_eq!(outcome.accesses(), 1000);
        assert_eq!(outcome.records_lost(), 400 + 250);
        assert!(outcome.misses(1, 4, 16).is_some());
        assert!(outcome.misses(1, 4, 4).is_none());
    }

    #[test]
    fn expired_deadline_cancels_with_the_deadline_reason() {
        use crate::cancel::CancelToken;
        let space = ConfigSpace::new((0, 2), (2, 3), (0, 1)).expect("valid");
        let records = trace(300);
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let res = Resilience::new()
            .with_cancel(&token)
            .with_sleeper(&crate::resilience::NoSleep);
        let outcome = req(&space, DewOptions::default(), 0)
            .resilient(&res)
            .run(&records)
            .expect("deadline degrades, not errors");
        assert!(outcome.is_partial());
        assert!(outcome
            .failed_jobs()
            .iter()
            .all(|f| f.kind == FailureKind::Cancelled));
        assert!(
            outcome.failed_jobs()[0].error.contains("deadline exceeded"),
            "{}",
            outcome.failed_jobs()[0].error
        );

        // Under fail-fast a fully-cancelled sweep escalates to the named
        // error instead of a partial outcome.
        let res = Resilience::new()
            .with_cancel(&token)
            .fail_fast(true)
            .with_sleeper(&crate::resilience::NoSleep);
        let err = req(&space, DewOptions::default(), 0)
            .resilient(&res)
            .run(&records)
            .expect_err("fail-fast escalates cancellation");
        assert!(matches!(err, DewError::Cancelled(_)), "{err}");
    }
}
