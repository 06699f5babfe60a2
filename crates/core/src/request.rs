//! The unified sweep entry point: a [`SweepRequest`] names *what* to sweep
//! (a [`ConfigSpace`]), *how* ([`DewOptions`] — policy included — thread
//! count, instrumentation) and *under which execution plan* (sampling,
//! resilience). [`SweepRequest::run`] and
//! [`SweepRequest::run_streamed`] hand every plan to the one fused sweep
//! driver, reading an in-memory trace through [`SliceSource`].
//!
//! Every axis is orthogonal where soundness allows; the unsound
//! combinations are rejected up front with
//! [`DewError::UnsoundOptions`] instead of silently picking a plan:
//!
//! | plan              | sampled | instrumented | resilient |
//! |-------------------|---------|--------------|-----------|
//! | sampled           |    —    |      no      |    no     |
//! | instrumented      |   no    |      —       |    no     |
//! | resilient         |   no    |      no      |     —     |
//!
//! [`SweepRequest::run_streamed`] additionally rejects sampling and
//! instrumentation: a streamed trace has no slice to sample, and the
//! instrumented plan is in-memory only.

use dew_trace::sample::periodic;
use dew_trace::{Record, SliceSource, TraceSource};

use crate::options::{DewOptions, TreePolicy};
use crate::resilience::Resilience;
use crate::results::SweepOutcome;
use crate::space::{ConfigSpace, DewError};
use crate::sweep::{cluster_bounds, run_resilient};

/// A fully described sweep: configuration space × policy options × threads
/// × instrumentation × execution plan, built fluently and executed with
/// [`SweepRequest::run`] (in-memory trace) or [`SweepRequest::run_streamed`]
/// (re-openable [`TraceSource`]).
///
/// ```
/// use dew_core::{ConfigSpace, SweepRequest, TreePolicy};
/// use dew_trace::Record;
///
/// # fn main() -> Result<(), dew_core::DewError> {
/// let space = ConfigSpace::new((0, 4), (2, 4), (0, 2))?;
/// let trace: Vec<Record> = (0..500u64).map(|i| Record::read((i % 97) * 4)).collect();
/// let outcome = SweepRequest::new(&space)
///     .policy(TreePolicy::Plru)
///     .threads(1)
///     .run(&trace)?;
/// assert_eq!(outcome.config_count() as u64, space.config_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SweepRequest<'a> {
    space: &'a ConfigSpace,
    options: DewOptions,
    threads: usize,
    instrumented: bool,
    sample: Option<(usize, usize)>,
    resilience: Option<&'a Resilience<'a>>,
}

impl<'a> SweepRequest<'a> {
    /// Starts a request over `space` with default options (FIFO policy, all
    /// optimisations on), automatic thread count, no instrumentation and
    /// the plain execution plan.
    pub fn new(space: &'a ConfigSpace) -> Self {
        SweepRequest {
            space,
            options: DewOptions::default(),
            threads: 0,
            instrumented: false,
            sample: None,
            resilience: None,
        }
    }

    /// Replaces the policy options wholesale. Use this for fine-grained
    /// flag control; for the common case of "this policy with its sound
    /// defaults", [`SweepRequest::policy`] is shorter.
    #[must_use]
    pub fn options(mut self, options: DewOptions) -> Self {
        self.options = options;
        self
    }

    /// Selects a replacement policy with its preset sound options
    /// ([`DewOptions::for_policy`]). Overwrites any earlier
    /// [`SweepRequest::options`] call.
    #[must_use]
    pub fn policy(mut self, policy: TreePolicy) -> Self {
        self.options = DewOptions::for_policy(policy);
        self
    }

    /// Worker thread count; `0` (the default) means one per available core,
    /// capped at the job count.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Maintains the full [`crate::DewCounters`] breakdown per pass.
    /// Composes with neither sampling nor resilience.
    #[must_use]
    pub fn instrumented(mut self, on: bool) -> Self {
        self.instrumented = on;
        self
    }

    /// Sweeps a periodic cluster sample: the leading `sample_len` records
    /// of every `period`-record window (see `dew_trace::sample::periodic`),
    /// spliced into one continuous stream. Excludes every other plan axis.
    ///
    /// The outcome describes the *sampled* stream — `accesses()` is the
    /// retained record count and miss counts are raw counts over it;
    /// extrapolate by `period / sample_len` for full-trace estimates (that
    /// extrapolation error is statistical and not bounded here). What *is*
    /// bounded is the splice error: [`SweepOutcome::bounds`] carries
    /// `Σ_{clusters after the first} min(first_touches, sets × assoc)` per
    /// configuration, guaranteed under LRU and a heuristic otherwise.
    /// `sample_len == period` keeps everything and is the exact sweep.
    #[must_use]
    pub fn sampled(mut self, period: usize, sample_len: usize) -> Self {
        self.sample = Some((period, sample_len));
        self
    }

    /// Runs under the fault-tolerance contract of `res`: retry with
    /// bounded backoff, panic isolation, checkpoint/resume, graceful
    /// degradation. Without it a failed job fails the sweep; with it
    /// (unless `res.fail_fast`) the sweep returns a partial
    /// [`SweepOutcome`] whose [`SweepOutcome::failed_jobs`] /
    /// [`SweepOutcome::retries`] / [`SweepOutcome::records_lost`] tell the
    /// truth about what was lost.
    ///
    /// Resuming from a checkpoint is **bit-identical** to the
    /// uninterrupted sweep: a checkpoint stores each job's exact kernel
    /// snapshot at an exact record position, restoring a snapshot is an
    /// identity (property-tested), and the kernels are insensitive to how
    /// the replayed stream is chunked.
    ///
    /// # Examples
    ///
    /// ```
    /// use dew_core::{ConfigSpace, Resilience, SweepRequest};
    /// use dew_trace::Record;
    ///
    /// # fn main() -> Result<(), dew_core::DewError> {
    /// let space = ConfigSpace::new((0, 4), (2, 4), (0, 2))?;
    /// let trace: Vec<Record> = (0..500u64).map(|i| Record::read((i % 97) * 4)).collect();
    /// let plain = SweepRequest::new(&space).threads(1).run(&trace)?;
    /// let res = Resilience::new();
    /// let resilient = SweepRequest::new(&space).threads(1).resilient(&res).run(&trace)?;
    /// assert!(!resilient.is_partial());
    /// assert_eq!(resilient.sorted(), plain.sorted());
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn resilient(mut self, res: &'a Resilience<'a>) -> Self {
        self.resilience = Some(res);
        self
    }

    /// Rejects plan-axis combinations no plan implements soundly.
    fn check_combos(&self) -> Result<(), DewError> {
        if self.sample.is_some() && (self.instrumented || self.resilience.is_some()) {
            return Err(DewError::UnsoundOptions(
                "sampled sweeps compose with neither instrumentation nor resilience",
            ));
        }
        if self.instrumented && self.resilience.is_some() {
            return Err(DewError::UnsoundOptions(
                "instrumented sweeps run in-memory without resilience; drop resilience",
            ));
        }
        Ok(())
    }

    /// Runs the one sweep driver over `source` under this request's plan.
    fn drive<S: TraceSource>(&self, source: &S) -> Result<SweepOutcome, DewError> {
        run_resilient(
            self.space,
            source,
            self.options,
            self.threads,
            self.instrumented,
            self.resilience.unwrap_or(&Resilience::PLAIN),
        )
    }

    /// Executes the request over an in-memory trace.
    ///
    /// Without [`SweepRequest::resilient`] the sweep runs under a fixed
    /// plain plan: no retries, no checkpoint, and the first job failure
    /// (which an in-memory trace can only produce through a panic) fails
    /// the whole sweep.
    ///
    /// # Errors
    ///
    /// [`DewError::UnsoundOptions`] when the option flags are unsound for
    /// the policy, the sampling plan is malformed, or the plan axes
    /// conflict (see the module table); [`DewError::BadAssoc`] when the
    /// space exceeds a policy's lane capacity (tree-PLRU caps at
    /// [`crate::plru_tree::MAX_PLRU_ASSOC`] ways);
    /// [`DewError::WorkerPanic`], carrying the panic message, when a
    /// sweep job panics (the panic is caught in its worker and does not
    /// unwind through the caller); resilient plans may also return
    /// [`DewError::Checkpoint`], [`DewError::TraceRead`] or
    /// [`DewError::Cancelled`] per the [`Resilience`] contract.
    pub fn run(&self, records: &[Record]) -> Result<SweepOutcome, DewError> {
        self.check_combos()?;
        let Some((period, sample_len)) = self.sample else {
            return self.drive(&SliceSource(records));
        };
        if period == 0 || sample_len == 0 || sample_len > period {
            return Err(DewError::UnsoundOptions(
                "sampling needs 0 < sample_len <= period",
            ));
        }
        if sample_len == period {
            return self.drive(&SliceSource(records));
        }
        let sampled = periodic(records, period, sample_len);
        let outcome = self.drive(&SliceSource(sampled.records()))?;
        let bounds = cluster_bounds(
            self.space,
            sampled.records(),
            sample_len,
            self.options.policy,
        );
        Ok(outcome.with_bounds(bounds))
    }

    /// Executes the request over a re-openable [`TraceSource`] in bounded
    /// memory (the trace is never resident): peak memory per worker is the
    /// chunk buffer plus geometry-sized kernel state. The source is opened
    /// once per block size and must replay identically on every open.
    ///
    /// Streamed execution supports the plain and resilient plans only.
    /// Under the plain plan the first source error — transient or not —
    /// fails the sweep without a retry.
    ///
    /// # Errors
    ///
    /// As [`SweepRequest::run`], plus [`DewError::UnsoundOptions`] when the
    /// request carries sampling or instrumentation, and
    /// [`DewError::TraceRead`] naming the failing block size and record
    /// when the source fails.
    pub fn run_streamed<S: TraceSource>(&self, source: &S) -> Result<SweepOutcome, DewError> {
        self.check_combos()?;
        if self.sample.is_some() || self.instrumented {
            return Err(DewError::UnsoundOptions(
                "streamed sweeps support the plain and resilient plans only \
                 (no sampling or instrumentation)",
            ));
        }
        self.drive(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(n: usize) -> Vec<Record> {
        let mut x = 0xA5A5_5A5Au64;
        (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = if i % 7 == 0 {
                    x % (1 << 12)
                } else {
                    (x % 88) * 4
                };
                Record::read(addr)
            })
            .collect()
    }

    #[test]
    fn outcome_records_the_active_scan_backend() {
        let space = ConfigSpace::new((0, 2), (2, 2), (0, 1)).expect("valid");
        let outcome = SweepRequest::new(&space).run(&trace(200)).expect("sweep");
        assert_eq!(outcome.kernel_backend(), crate::KernelBackend::active());
        assert!(["scalar", "sse2", "avx2"].contains(&outcome.kernel_backend().name()));
    }

    #[test]
    fn every_plan_matches_the_plain_sweep_for_every_policy() {
        let space = ConfigSpace::new((0, 3), (1, 3), (0, 2)).expect("valid");
        let records = trace(900);
        for policy in TreePolicy::ALL {
            let options = DewOptions::for_policy(policy);
            let base = SweepRequest::new(&space).options(options).threads(2);

            let plain = base.run(&records).expect("plain");
            assert_eq!(
                plain.config_count() as u64,
                space.config_count(),
                "{policy}: plain"
            );

            let inst = base.instrumented(true).run(&records).expect("instrumented");
            assert_eq!(inst.sorted(), plain.sorted(), "{policy}: instrumented");

            // Sampling is the plain sweep over the spliced clusters.
            let sampled = base.sampled(64, 16).run(&records).expect("sampled");
            let spliced: Vec<Record> = records
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 64 < 16)
                .map(|(_, r)| *r)
                .collect();
            let manual = base.run(&spliced).expect("spliced");
            assert_eq!(sampled.sorted(), manual.sorted(), "{policy}: sampled");

            let res = Resilience::new();
            let resilient = base.resilient(&res).run(&records).expect("resilient");
            assert_eq!(
                resilient.sorted(),
                plain.sorted(),
                "{policy}: resilient exact"
            );

            let streamed = base.run_streamed(&SliceSource(&records)).expect("streamed");
            assert_eq!(
                streamed.sorted(),
                plain.sorted(),
                "{policy}: streamed exact"
            );
        }
    }

    #[test]
    fn unsound_plan_combinations_are_rejected_up_front() {
        let space = ConfigSpace::new((0, 2), (1, 2), (0, 1)).expect("valid");
        let records = trace(64);
        let res = Resilience::new();
        let bad = [
            SweepRequest::new(&space).sampled(8, 4).instrumented(true),
            SweepRequest::new(&space).sampled(8, 4).resilient(&res),
            SweepRequest::new(&space).instrumented(true).resilient(&res),
        ];
        for req in bad {
            assert!(
                matches!(req.run(&records), Err(DewError::UnsoundOptions(_))),
                "expected UnsoundOptions"
            );
        }
        for req in [
            SweepRequest::new(&space).sampled(8, 4),
            SweepRequest::new(&space).instrumented(true),
        ] {
            assert!(
                matches!(
                    req.run_streamed(&SliceSource(&records)),
                    Err(DewError::UnsoundOptions(_))
                ),
                "streamed must reject sampling/instrumentation"
            );
        }
    }

    #[test]
    fn plru_rejects_spaces_wider_than_its_lane_capacity() {
        let space = ConfigSpace::new((0, 2), (1, 2), (0, 7)).expect("valid");
        let records = trace(16);
        let err = SweepRequest::new(&space)
            .policy(TreePolicy::Plru)
            .run(&records)
            .expect_err("128-way PLRU must be rejected");
        assert!(matches!(err, DewError::BadAssoc(128)));
    }

    #[test]
    fn policy_builder_is_the_preset() {
        let space = ConfigSpace::new((0, 2), (1, 2), (0, 1)).expect("valid");
        for policy in TreePolicy::ALL {
            let req = SweepRequest::new(&space).policy(policy);
            assert_eq!(req.options, DewOptions::for_policy(policy));
        }
    }
}
