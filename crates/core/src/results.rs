//! Result types: per-level miss counts of a pass and aggregated sweep tables.

use std::collections::HashMap;
use std::fmt;

use crate::counters::DewCounters;
use crate::options::TreePolicy;
use crate::simd::KernelBackend;
use crate::space::PassConfig;

/// Miss counts for one forest level (one simulated set count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelResult {
    set_bits: u32,
    misses: u64,
    dm_misses: u64,
}

impl LevelResult {
    pub(crate) fn new(set_bits: u32, misses: u64, dm_misses: u64) -> Self {
        LevelResult {
            set_bits,
            misses,
            dm_misses,
        }
    }

    /// `log2` of the set count of this level.
    #[must_use]
    pub const fn set_bits(&self) -> u32 {
        self.set_bits
    }

    /// The set count of this level.
    #[must_use]
    pub const fn sets(&self) -> u32 {
        1 << self.set_bits
    }

    /// Misses of the cache with this set count at the pass associativity.
    #[must_use]
    pub const fn misses(&self) -> u64 {
        self.misses
    }

    /// Misses of the direct-mapped cache with this set count (the free
    /// associativity-1 results produced by the MRA comparisons).
    #[must_use]
    pub const fn dm_misses(&self) -> u64 {
        self.dm_misses
    }
}

/// The complete output of one DEW pass: per-level miss counts for the pass
/// associativity and for associativity 1.
///
/// # Examples
///
/// ```
/// use dew_core::{DewOptions, MultiAssocTree, PassConfig};
/// use dew_trace::Record;
///
/// # fn main() -> Result<(), dew_core::DewError> {
/// let pass = PassConfig::new(2, 0, 3, 4)?;
/// let mut tree = MultiAssocTree::for_pass(pass, DewOptions::default(), false)?;
/// for i in 0..100u64 {
///     tree.step_record(Record::read(i * 4));
/// }
/// let results = tree.pass_results(4).expect("the pass associativity");
/// // A pure streaming workload misses everywhere:
/// assert_eq!(results.misses(8, 4), Some(100));
/// assert_eq!(results.misses(8, 1), Some(100));
/// assert_eq!(results.misses(8, 2), None); // not simulated by this pass
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassResults {
    pass: PassConfig,
    accesses: u64,
    levels: Vec<LevelResult>,
}

impl PassResults {
    pub(crate) fn new(pass: PassConfig, accesses: u64, levels: Vec<LevelResult>) -> Self {
        PassResults {
            pass,
            accesses,
            levels,
        }
    }

    /// The pass this result belongs to.
    #[must_use]
    pub fn pass(&self) -> &PassConfig {
        &self.pass
    }

    /// Requests simulated.
    #[must_use]
    pub const fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Per-level results, smallest set count first.
    #[must_use]
    pub fn levels(&self) -> &[LevelResult] {
        &self.levels
    }

    /// Miss count of the cache with `sets` sets at `assoc` ways, if this pass
    /// simulated that combination (`assoc` must be 1 or the pass
    /// associativity; `sets` must be a simulated power of two).
    #[must_use]
    pub fn misses(&self, sets: u32, assoc: u32) -> Option<u64> {
        if !sets.is_power_of_two() {
            return None;
        }
        let set_bits = sets.trailing_zeros();
        if set_bits < self.pass.min_set_bits() || set_bits > self.pass.max_set_bits() {
            return None;
        }
        let level = &self.levels[(set_bits - self.pass.min_set_bits()) as usize];
        if assoc == self.pass.assoc() {
            Some(level.misses())
        } else if assoc == 1 {
            Some(level.dm_misses())
        } else {
            None
        }
    }

    /// Hit count, complementary to [`PassResults::misses`].
    #[must_use]
    pub fn hits(&self, sets: u32, assoc: u32) -> Option<u64> {
        self.misses(sets, assoc).map(|m| self.accesses - m)
    }

    /// Miss rate in `0.0..=1.0`; `None` for combinations this pass did not
    /// simulate, `0.0` for an empty run.
    #[must_use]
    pub fn miss_rate(&self, sets: u32, assoc: u32) -> Option<f64> {
        self.misses(sets, assoc).map(|m| {
            if self.accesses == 0 {
                0.0
            } else {
                m as f64 / self.accesses as f64
            }
        })
    }
}

impl fmt::Display for PassResults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pass {} over {} requests:", self.pass, self.accesses)?;
        for l in &self.levels {
            writeln!(
                f,
                "  sets {:>6}: misses(A={}) {:>10}, misses(A=1) {:>10}",
                l.sets(),
                self.pass.assoc(),
                l.misses(),
                l.dm_misses()
            )?;
        }
        Ok(())
    }
}

/// Miss counts for every `(set count, associativity)` pair produced by a
/// single pass of an all-associativity simulator ([`crate::lru_tree::LruTreeSimulator`]
/// or [`crate::MultiAssocTree`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllAssocResults {
    pass: PassConfig,
    accesses: u64,
    assoc_list: Vec<u32>,
    /// `misses[level][assoc_index]`.
    misses: Vec<Vec<u64>>,
}

impl AllAssocResults {
    pub(crate) fn new(
        pass: PassConfig,
        accesses: u64,
        assoc_list: Vec<u32>,
        misses: Vec<Vec<u64>>,
    ) -> Self {
        debug_assert_eq!(misses.len() as u32, pass.num_levels());
        debug_assert!(misses.iter().all(|m| m.len() == assoc_list.len()));
        AllAssocResults {
            pass,
            accesses,
            assoc_list,
            misses,
        }
    }

    /// Requests simulated.
    #[must_use]
    pub const fn accesses(&self) -> u64 {
        self.accesses
    }

    /// The simulated associativities, ascending.
    #[must_use]
    pub fn assoc_list(&self) -> &[u32] {
        &self.assoc_list
    }

    /// Miss count for `sets` sets at `assoc` ways, if simulated.
    #[must_use]
    pub fn misses(&self, sets: u32, assoc: u32) -> Option<u64> {
        if !sets.is_power_of_two() {
            return None;
        }
        let set_bits = sets.trailing_zeros();
        if set_bits < self.pass.min_set_bits() || set_bits > self.pass.max_set_bits() {
            return None;
        }
        let ai = self.assoc_list.iter().position(|&a| a == assoc)?;
        Some(self.misses[(set_bits - self.pass.min_set_bits()) as usize][ai])
    }

    /// Miss rate for `sets` sets at `assoc` ways, if simulated.
    #[must_use]
    pub fn miss_rate(&self, sets: u32, assoc: u32) -> Option<f64> {
        self.misses(sets, assoc).map(|m| {
            if self.accesses == 0 {
                0.0
            } else {
                m as f64 / self.accesses as f64
            }
        })
    }
}

/// One fully-specified configuration result inside a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigResult {
    /// Number of sets.
    pub sets: u32,
    /// Associativity.
    pub assoc: u32,
    /// Block size in bytes.
    pub block_bytes: u32,
    /// Total misses over the trace.
    pub misses: u64,
}

impl ConfigResult {
    /// Total cache capacity in bytes.
    #[must_use]
    pub const fn total_bytes(&self) -> u64 {
        self.sets as u64 * self.assoc as u64 * self.block_bytes as u64
    }
}

/// Per-configuration uncertainty of a sampled sweep
/// ([`crate::SweepRequest::sampled`]): how many accesses at retained trace
/// positions may have been misclassified because each cluster starts from
/// the state the previous cluster left, not from the skipped records.
///
/// For every cluster after the first, at most
/// `min(first-touch blocks in the cluster, sets × assoc)` accesses are
/// unknowns — an access that is *not* the cluster's first touch of its
/// block is classified exactly, because its reuse interval lies entirely
/// inside the contiguous cluster. Summing that cap over clusters gives the
/// reported slack.
///
/// Under **LRU** the slack is a guarantee ([`SampleBounds::guaranteed`] is
/// `true`): the stack property confines every divergence to the unknown
/// accesses, so the full trace's miss count at the retained positions lies
/// within `slack` of the estimate. Under **FIFO** there is no inclusion
/// property (Belady's anomaly) — a divergence can cascade past the
/// first-touch set — so the same figure is reported as a diagnostic with
/// `guaranteed == false`; see `DESIGN.md` ("Sampling and cold-start
/// slack").
#[derive(Debug, Clone)]
pub struct SampleBounds {
    slack: HashMap<(u32, u32, u32), u64>,
    guaranteed: bool,
}

impl SampleBounds {
    pub(crate) fn new(slack: HashMap<(u32, u32, u32), u64>, guaranteed: bool) -> Self {
        SampleBounds { slack, guaranteed }
    }

    /// Maximum possibly-misclassified accesses for `(sets, assoc,
    /// block_bytes)`, if in the swept space.
    #[must_use]
    pub fn slack(&self, sets: u32, assoc: u32, block_bytes: u32) -> Option<u64> {
        self.slack.get(&(sets, assoc, block_bytes)).copied()
    }

    /// Whether the slack is a sound bound (LRU) or a cold-start diagnostic
    /// (FIFO — no inclusion across boundaries).
    #[must_use]
    pub const fn guaranteed(&self) -> bool {
        self.guaranteed
    }

    /// The largest slack over all configurations (worst-case uncertainty).
    #[must_use]
    pub fn max_slack(&self) -> u64 {
        self.slack.values().copied().max().unwrap_or(0)
    }
}

/// What sank a fused sweep job in a resilient (degraded-mode) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The trace source failed fatally (or exhausted its retries).
    Source,
    /// The kernel panicked; the panic was isolated to this job.
    Panic,
    /// The job was cancelled cooperatively — an explicit
    /// [`crate::CancelToken::cancel`] or an expired deadline. The job's
    /// final state was checkpointed (when checkpointing was enabled), so a
    /// cancelled job is resumable, not lost.
    Cancelled,
}

/// One fused job that a resilient sweep could not complete. A fused job
/// covers every configuration sharing a block size, so a failure flags all
/// `(sets, assoc)` combinations at that block size
/// ([`SweepOutcome::config_error`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// log2 of the failed job's block size in bytes.
    pub block_bits: u32,
    /// Records the job had consumed when it failed.
    pub records_done: u64,
    /// Human-readable failure description (source error or panic message),
    /// including the job's block size and policy.
    pub error: String,
    /// Whether the source or the kernel failed.
    pub kind: FailureKind,
}

/// Aggregated results of a multi-pass sweep over a configuration space.
///
/// Built by [`crate::SweepRequest`]; maps every `(sets, assoc, block)` of
/// the space to its exact miss count, and retains the per-pass work
/// counters. A resilient sweep ([`crate::SweepRequest::resilient`]) may
/// return a *partial* outcome: [`SweepOutcome::is_partial`] flags it, and
/// [`SweepOutcome::failed_jobs`] / [`SweepOutcome::retries`] /
/// [`SweepOutcome::records_lost`] carry the honest accounting.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    accesses: u64,
    misses: HashMap<(u32, u32, u32), u64>,
    passes: Vec<(PassConfig, DewCounters)>,
    trace_traversals: u64,
    policy: TreePolicy,
    records_simulated: u64,
    bounds: Option<SampleBounds>,
    failed: Vec<JobFailure>,
    retries: u64,
    records_lost: u64,
    kernel_backend: KernelBackend,
}

impl SweepOutcome {
    pub(crate) fn new(
        accesses: u64,
        misses: HashMap<(u32, u32, u32), u64>,
        passes: Vec<(PassConfig, DewCounters)>,
        trace_traversals: u64,
        policy: TreePolicy,
    ) -> Self {
        SweepOutcome {
            accesses,
            misses,
            passes,
            trace_traversals,
            policy,
            records_simulated: accesses * trace_traversals,
            bounds: None,
            failed: Vec::new(),
            retries: 0,
            records_lost: 0,
            // The drivers build their kernels from the same process-wide
            // detection (after the startup selftest has vetted it), so the
            // active backend at completion is the backend the sweep ran on.
            kernel_backend: KernelBackend::active(),
        }
    }

    /// Attaches a degraded run's failure accounting.
    pub(crate) fn with_failures(
        mut self,
        failed: Vec<JobFailure>,
        retries: u64,
        records_lost: u64,
    ) -> Self {
        self.failed = failed;
        self.retries = retries;
        self.records_lost = records_lost;
        self
    }

    /// Overrides the records-simulated tally (a failed job simulated only
    /// part of the trace).
    pub(crate) fn with_records_simulated(mut self, records_simulated: u64) -> Self {
        self.records_simulated = records_simulated;
        self
    }

    /// Attaches the cold-start uncertainty of an approximate sweep.
    pub(crate) fn with_bounds(mut self, bounds: SampleBounds) -> Self {
        self.bounds = Some(bounds);
        self
    }

    /// Requests in the swept trace.
    #[must_use]
    pub const fn accesses(&self) -> u64 {
        self.accesses
    }

    /// The replacement policy every configuration was simulated under
    /// ([`crate::DewOptions::policy`] of the sweep's options). Downstream
    /// consumers — e.g. design-space exploration merging FIFO and LRU
    /// sweeps — use this to label results without carrying the options
    /// alongside the outcome.
    #[must_use]
    pub const fn policy(&self) -> TreePolicy {
        self.policy
    }

    /// The tag-scan backend the sweep's kernels ran their batched scans on
    /// (`scalar` / `sse2` / `avx2`). Purely diagnostic: the startup
    /// selftest and the differential test suite prove every backend
    /// bit-identical, so this never explains a result — only how fast it
    /// arrived. `dew sweep` and `dew explore` print it.
    #[must_use]
    pub const fn kernel_backend(&self) -> KernelBackend {
        self.kernel_backend
    }

    /// How many kernel traversals of the trace the sweep made: how many
    /// fused kernels each simulated the whole stream. Both fused
    /// schedulers — FIFO through [`crate::MultiAssocTree`]'s
    /// per-associativity tag lists, LRU through
    /// [`crate::lru_tree::LruTreeSimulator`]'s stack property — perform
    /// exactly one traversal per block size regardless of the
    /// associativity range. The count does not say how often the source
    /// was read: a one-worker sweep feeds every block size's kernel from
    /// one read.
    #[must_use]
    pub const fn trace_traversals(&self) -> u64 {
        self.trace_traversals
    }

    /// Total records fed through a kernel, across all traversals — the
    /// truthful work tally. A complete sweep simulates
    /// `accesses × trace_traversals`; in a partial outcome each failed job
    /// contributes only the records it simulated before it stopped.
    #[must_use]
    pub const fn records_simulated(&self) -> u64 {
        self.records_simulated
    }

    /// Cold-start uncertainty of a sampled sweep
    /// ([`crate::SweepRequest::sampled`]); `None` for exact sweeps.
    #[must_use]
    pub fn bounds(&self) -> Option<&SampleBounds> {
        self.bounds.as_ref()
    }

    /// Fused jobs a resilient sweep could not complete (empty for the
    /// plain plan, which fails instead, and for clean resilient runs).
    #[must_use]
    pub fn failed_jobs(&self) -> &[JobFailure] {
        &self.failed
    }

    /// Transient-failure retries performed across all jobs of a resilient
    /// sweep (each successful retry recovered the job without data loss).
    #[must_use]
    pub const fn retries(&self) -> u64 {
        self.retries
    }

    /// Records the failed jobs did *not* simulate, summed over
    /// [`SweepOutcome::failed_jobs`] — the truthful size of the hole in a
    /// partial outcome. Zero for complete runs.
    #[must_use]
    pub const fn records_lost(&self) -> u64 {
        self.records_lost
    }

    /// Whether this outcome is missing results for some configurations
    /// (degraded mode swallowed at least one job failure).
    #[must_use]
    pub fn is_partial(&self) -> bool {
        !self.failed.is_empty()
    }

    /// The failure covering `block_bytes`-byte-block configurations, if
    /// that fused job failed. Failures are per fused job — one job per
    /// block size — so every `(sets, assoc)` at this block size shares the
    /// same error.
    #[must_use]
    pub fn config_error(&self, block_bytes: u32) -> Option<&JobFailure> {
        self.failed
            .iter()
            .find(|f| 1u32 << f.block_bits == block_bytes)
    }

    /// Number of configurations with results.
    #[must_use]
    pub fn config_count(&self) -> usize {
        self.misses.len()
    }

    /// Miss count for `(sets, assoc, block_bytes)`, if in the swept space.
    #[must_use]
    pub fn misses(&self, sets: u32, assoc: u32, block_bytes: u32) -> Option<u64> {
        self.misses.get(&(sets, assoc, block_bytes)).copied()
    }

    /// Miss rate for `(sets, assoc, block_bytes)`, if in the swept space.
    #[must_use]
    pub fn miss_rate(&self, sets: u32, assoc: u32, block_bytes: u32) -> Option<f64> {
        self.misses(sets, assoc, block_bytes).map(|m| {
            if self.accesses == 0 {
                0.0
            } else {
                m as f64 / self.accesses as f64
            }
        })
    }

    /// Iterates every configuration result, in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = ConfigResult> + '_ {
        self.misses
            .iter()
            .map(|(&(sets, assoc, block_bytes), &misses)| ConfigResult {
                sets,
                assoc,
                block_bytes,
                misses,
            })
    }

    /// Every configuration result, sorted by (block, assoc, sets) for stable
    /// reporting.
    #[must_use]
    pub fn sorted(&self) -> Vec<ConfigResult> {
        let mut v: Vec<ConfigResult> = self.iter().collect();
        v.sort_by_key(|c| (c.block_bytes, c.assoc, c.sets));
        v
    }

    /// The per-pass work counters, in pass order.
    #[must_use]
    pub fn passes(&self) -> &[(PassConfig, DewCounters)] {
        &self.passes
    }

    /// Sum of all passes' work counters.
    #[must_use]
    pub fn total_counters(&self) -> DewCounters {
        self.passes
            .iter()
            .fold(DewCounters::new(), |acc, (_, c)| acc + *c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_result_capacity() {
        let c = ConfigResult {
            sets: 64,
            assoc: 4,
            block_bytes: 16,
            misses: 0,
        };
        assert_eq!(c.total_bytes(), 4096);
    }

    #[test]
    fn sweep_outcome_lookup_and_sort() {
        let mut m = HashMap::new();
        m.insert((1u32, 1u32, 4u32), 10u64);
        m.insert((2, 1, 4), 8);
        m.insert((1, 2, 4), 9);
        let o = SweepOutcome::new(100, m, Vec::new(), 2, TreePolicy::Fifo);
        assert_eq!(o.trace_traversals(), 2);
        assert_eq!(o.policy(), TreePolicy::Fifo);
        assert_eq!(o.misses(2, 1, 4), Some(8));
        assert_eq!(o.misses(4, 1, 4), None);
        assert_eq!(o.miss_rate(1, 1, 4), Some(0.1));
        assert_eq!(o.config_count(), 3);
        let sorted = o.sorted();
        assert_eq!(sorted.len(), 3);
        assert!(sorted.windows(2).all(|w| {
            (w[0].block_bytes, w[0].assoc, w[0].sets) <= (w[1].block_bytes, w[1].assoc, w[1].sets)
        }));
    }

    #[test]
    fn records_simulated_defaults_to_accesses_times_traversals() {
        let mut m = HashMap::new();
        m.insert((1u32, 1u32, 4u32), 1u64);
        let o = SweepOutcome::new(100, m, Vec::new(), 3, TreePolicy::Fifo);
        assert_eq!(o.records_simulated(), 300);
        assert!(o.bounds().is_none());
        let o = o.with_records_simulated(340);
        assert_eq!(o.records_simulated(), 340);
    }

    #[test]
    fn sample_bounds_lookup_and_flags() {
        let mut slack = HashMap::new();
        slack.insert((4u32, 2u32, 16u32), 7u64);
        slack.insert((8, 2, 16), 12);
        let b = SampleBounds::new(slack, true);
        assert_eq!(b.slack(4, 2, 16), Some(7));
        assert_eq!(b.slack(4, 4, 16), None);
        assert_eq!(b.max_slack(), 12);
        assert!(b.guaranteed());
        assert_eq!(SampleBounds::new(HashMap::new(), false).max_slack(), 0);
    }

    #[test]
    fn failure_accounting_flags_partial_outcomes() {
        let mut m = HashMap::new();
        m.insert((1u32, 1u32, 4u32), 10u64);
        let clean = SweepOutcome::new(100, m.clone(), Vec::new(), 1, TreePolicy::Fifo);
        assert!(!clean.is_partial());
        assert_eq!(clean.retries(), 0);
        assert_eq!(clean.records_lost(), 0);
        assert!(clean.failed_jobs().is_empty());

        let failure = JobFailure {
            block_bits: 3,
            records_done: 40,
            error: "block 8B (fifo): at record 40: boom".into(),
            kind: FailureKind::Source,
        };
        let partial = SweepOutcome::new(100, m, Vec::new(), 2, TreePolicy::Fifo).with_failures(
            vec![failure.clone()],
            5,
            60,
        );
        assert!(partial.is_partial());
        assert_eq!(partial.retries(), 5);
        assert_eq!(partial.records_lost(), 60);
        assert_eq!(partial.failed_jobs(), &[failure]);
        // Failures are keyed by the fused job's block size.
        assert_eq!(partial.config_error(8).expect("failed").records_done, 40);
        assert!(partial.config_error(4).is_none());
        assert_eq!(
            partial.config_error(8).expect("failed").kind,
            FailureKind::Source
        );
    }

    #[test]
    fn empty_outcome_miss_rate_is_zero() {
        let mut m = HashMap::new();
        m.insert((1u32, 1u32, 4u32), 0u64);
        let o = SweepOutcome::new(0, m, Vec::new(), 1, TreePolicy::Lru);
        assert_eq!(o.miss_rate(1, 1, 4), Some(0.0));
        assert_eq!(o.policy(), TreePolicy::Lru);
    }
}
