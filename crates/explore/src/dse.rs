//! The design-space exploration engine: enumerate, sweep, score, and
//! extract the Pareto frontier — the paper's actual use case.
//!
//! The DEW paper motivates fast simulation as the *inner loop* of cache
//! tuning (Section 1, citing Janapsatya's exploration flow); the related
//! CIPARSim/NVSim-family work frames single-pass simulation the same way.
//! This module is the outer loop: an [`ExplorationSpace`] names the
//! `(sets, assoc, block, policy)` candidates, [`explore_trace`] drives them
//! through the fused [`dew_core::SweepRequest`] scheduler (one decode and
//! one trace traversal per block size **per policy**, never per
//! configuration), scores every point under an [`EnergyModel`], and
//! extracts the three-objective Pareto frontier
//! (miss rate × energy × size).
//!
//! # Frontier extraction: exhaustive vs pruned
//!
//! [`ParetoMode::Exhaustive`] runs the textbook pairwise dominance scan
//! over all evaluated points. [`ParetoMode::Pruned`] first applies a
//! *monotonicity prefilter* that needs no pairwise work: at fixed
//! `(policy, sets, block)`, a higher associativity strictly increases
//! capacity, so whenever the fused sweep's exact counts show its misses
//! did **not** improve on a lower associativity whose energy is no worse,
//! the wider configuration is strictly dominated and can be dropped before
//! the quadratic scan. The rule checks the *measured* misses and energies
//! (FIFO can violate miss-rate monotonicity — Belady's anomaly — so
//! monotonicity is verified per point, never assumed), which makes the
//! pruned frontier provably identical to the exhaustive one: every pruned
//! point is strictly dominated by a surviving point, and removing strictly
//! dominated points never changes a Pareto frontier. The equality is also
//! property-tested across random traces and spaces
//! (`tests/proptest_explore.rs`).

use std::fmt;
use std::time::Instant;

use dew_core::{ConfigSpace, DewError, SweepOutcome, SweepRequest, TreePolicy};
use dew_trace::Record;

use crate::energy::EnergyModel;
use crate::explore::{evaluate_sweep, Evaluation};

/// How [`explore_trace`] extracts the Pareto frontier. See the module docs
/// for the soundness argument; both modes produce the identical frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParetoMode {
    /// Pairwise dominance scan over every evaluated point.
    Exhaustive,
    /// Associativity-monotonicity prefilter, then the pairwise scan over
    /// the survivors (the default).
    #[default]
    Pruned,
}

impl fmt::Display for ParetoMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParetoMode::Exhaustive => f.write_str("exhaustive"),
            ParetoMode::Pruned => f.write_str("pruned"),
        }
    }
}

/// The candidate set of an exploration: a geometric [`ConfigSpace`] crossed
/// with one or two replacement policies, optionally capped by a capacity
/// budget.
///
/// # Examples
///
/// ```
/// use dew_core::{ConfigSpace, TreePolicy};
/// use dew_explore::ExplorationSpace;
///
/// # fn main() -> Result<(), dew_core::DewError> {
/// let space = ExplorationSpace::new(ConfigSpace::new((0, 6), (2, 4), (0, 2))?)
///     .with_policies(&[TreePolicy::Fifo, TreePolicy::Lru])
///     .with_budget(Some(8 * 1024));
/// assert_eq!(space.candidate_count(), 2 * 7 * 3 * 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplorationSpace {
    space: ConfigSpace,
    policies: Vec<TreePolicy>,
    max_bytes: Option<u64>,
}

impl ExplorationSpace {
    /// An exploration over `space` under FIFO (the paper's policy), with no
    /// capacity budget.
    #[must_use]
    pub fn new(space: ConfigSpace) -> Self {
        ExplorationSpace {
            space,
            policies: vec![TreePolicy::Fifo],
            max_bytes: None,
        }
    }

    /// Replaces the policy list. Duplicates are removed, order is kept;
    /// an empty list falls back to FIFO.
    #[must_use]
    pub fn with_policies(mut self, policies: &[TreePolicy]) -> Self {
        self.policies.clear();
        for &p in policies {
            if !self.policies.contains(&p) {
                self.policies.push(p);
            }
        }
        if self.policies.is_empty() {
            self.policies.push(TreePolicy::Fifo);
        }
        self
    }

    /// Sets (or clears) the capacity budget: configurations whose total
    /// size exceeds `max_bytes` are filtered out after the sweep, before
    /// scoring — they still cost nothing extra to simulate, since the fused
    /// kernels cover whole set/associativity ranges at once.
    #[must_use]
    pub fn with_budget(mut self, max_bytes: Option<u64>) -> Self {
        self.max_bytes = max_bytes;
        self
    }

    /// The geometric space being explored.
    #[must_use]
    pub const fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// The policies being explored, in evaluation order.
    #[must_use]
    pub fn policies(&self) -> &[TreePolicy] {
        &self.policies
    }

    /// The capacity budget, if any.
    #[must_use]
    pub const fn budget(&self) -> Option<u64> {
        self.max_bytes
    }

    /// Number of `(geometry, policy)` candidates before budget filtering.
    #[must_use]
    pub fn candidate_count(&self) -> u64 {
        self.space.config_count() * self.policies.len() as u64
    }
}

/// One scored candidate of an exploration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExplorationPoint {
    /// The replacement policy this candidate was simulated under.
    pub policy: TreePolicy,
    /// The figures of merit (geometry, misses, energy, cycles).
    pub evaluation: Evaluation,
    /// `true` when the point is on the miss-rate × energy × size Pareto
    /// frontier of its exploration.
    pub on_frontier: bool,
}

impl ExplorationPoint {
    /// The objective triple the frontier minimises. Miss count stands in
    /// for miss rate: every point of one exploration shares the trace, so
    /// the orderings are identical and the comparison stays exact.
    fn objectives(&self) -> (u64, f64, u64) {
        (
            self.evaluation.misses,
            self.evaluation.energy_nj,
            self.evaluation.geometry.total_bytes(),
        )
    }

    /// `true` when `self` is at least as good as `other` on all three
    /// objectives and strictly better on at least one.
    fn dominates(&self, other: &ExplorationPoint) -> bool {
        let (m_a, e_a, b_a) = self.objectives();
        let (m_b, e_b, b_b) = other.objectives();
        m_a <= m_b && e_a <= e_b && b_a <= b_b && (m_a < m_b || e_a < e_b || b_a < b_b)
    }
}

impl fmt::Display for ExplorationPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]{}",
            self.evaluation,
            self.policy,
            if self.on_frontier { " *" } else { "" }
        )
    }
}

/// The complete output of one [`explore_trace`] run: every scored point,
/// the frontier, and an honest account of the work performed.
#[derive(Debug, Clone)]
pub struct ExplorationReport {
    mode: ParetoMode,
    accesses: u64,
    trace_traversals: u64,
    candidates: u64,
    over_budget: u64,
    pruned_dominated: u64,
    sweep_seconds: f64,
    /// All budget-surviving points, sorted by (policy order, block, assoc,
    /// sets); `on_frontier` marks the Pareto subset.
    points: Vec<ExplorationPoint>,
}

impl ExplorationReport {
    /// Requests in the explored trace.
    #[must_use]
    pub const fn accesses(&self) -> u64 {
        self.accesses
    }

    /// How [`explore_trace`] extracted the frontier.
    #[must_use]
    pub const fn mode(&self) -> ParetoMode {
        self.mode
    }

    /// Total trace traversals performed by the underlying fused sweeps —
    /// one per block size per policy, never per configuration
    /// ([`SweepOutcome::trace_traversals`] summed over policies).
    #[must_use]
    pub const fn trace_traversals(&self) -> u64 {
        self.trace_traversals
    }

    /// `(geometry, policy)` candidates enumerated (before the budget).
    #[must_use]
    pub const fn candidates(&self) -> u64 {
        self.candidates
    }

    /// Candidates filtered out by the capacity budget.
    #[must_use]
    pub const fn over_budget(&self) -> u64 {
        self.over_budget
    }

    /// Points the monotonicity prefilter removed before the pairwise scan
    /// (always 0 in [`ParetoMode::Exhaustive`]).
    #[must_use]
    pub const fn pruned_dominated(&self) -> u64 {
        self.pruned_dominated
    }

    /// Wall-clock seconds spent in the fused sweeps (simulation only, not
    /// scoring or frontier extraction).
    #[must_use]
    pub const fn sweep_seconds(&self) -> f64 {
        self.sweep_seconds
    }

    /// Every scored point, sorted by (policy order, block, assoc, sets).
    #[must_use]
    pub fn points(&self) -> &[ExplorationPoint] {
        &self.points
    }

    /// The Pareto-frontier points, sorted by ascending energy.
    #[must_use]
    pub fn frontier(&self) -> Vec<ExplorationPoint> {
        let mut front: Vec<ExplorationPoint> = self
            .points
            .iter()
            .filter(|p| p.on_frontier)
            .copied()
            .collect();
        front.sort_by(|a, b| {
            a.evaluation
                .energy_nj
                .partial_cmp(&b.evaluation.energy_nj)
                .expect("finite energies")
        });
        front
    }

    /// The scored points of one policy, for the per-policy selection
    /// helpers ([`crate::best_edp_under`], [`crate::fastest_under`]).
    #[must_use]
    pub fn evaluations(&self, policy: TreePolicy) -> Vec<Evaluation> {
        self.points
            .iter()
            .filter(|p| p.policy == policy)
            .map(|p| p.evaluation)
            .collect()
    }

    /// Renders the full report as a self-contained JSON document (points
    /// array with a `pareto` flag per point, plus the work accounting).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"mode\": \"{}\",", self.mode);
        let _ = writeln!(out, "  \"accesses\": {},", self.accesses);
        let _ = writeln!(out, "  \"trace_traversals\": {},", self.trace_traversals);
        let _ = writeln!(out, "  \"candidates\": {},", self.candidates);
        let _ = writeln!(out, "  \"over_budget\": {},", self.over_budget);
        let _ = writeln!(out, "  \"pruned_dominated\": {},", self.pruned_dominated);
        let _ = writeln!(out, "  \"sweep_seconds\": {:.6},", self.sweep_seconds);
        let _ = writeln!(
            out,
            "  \"frontier_size\": {},",
            self.points.iter().filter(|p| p.on_frontier).count()
        );
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let e = &p.evaluation;
            let _ = writeln!(
                out,
                "    {{\"policy\": \"{}\", \"sets\": {}, \"assoc\": {}, \
                 \"block_bytes\": {}, \"bytes\": {}, \"misses\": {}, \
                 \"miss_rate\": {:.6}, \"energy_nj\": {:.3}, \"cycles\": {}, \
                 \"pareto\": {}}}{}",
                p.policy,
                e.geometry.sets,
                e.geometry.assoc,
                e.geometry.block_bytes,
                e.geometry.total_bytes(),
                e.misses,
                e.miss_rate(),
                e.energy_nj,
                e.cycles,
                p.on_frontier,
                if i + 1 < self.points.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders every point as CSV
    /// (`policy,sets,assoc,block_bytes,bytes,misses,miss_rate,energy_nj,cycles,pareto`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(
            "policy,sets,assoc,block_bytes,bytes,misses,miss_rate,energy_nj,cycles,pareto\n",
        );
        for p in &self.points {
            let e = &p.evaluation;
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{:.6},{:.3},{},{}",
                p.policy,
                e.geometry.sets,
                e.geometry.assoc,
                e.geometry.block_bytes,
                e.geometry.total_bytes(),
                e.misses,
                e.miss_rate(),
                e.energy_nj,
                e.cycles,
                p.on_frontier
            );
        }
        out
    }
}

/// Explores every candidate of `exploration` over `records`: one fused
/// sweep per policy (one decode + one trace traversal per block size),
/// scoring under `model`, frontier extraction per `mode`.
///
/// `threads` is forwarded to [`dew_core::SweepRequest::threads`]
/// (0 = auto).
///
/// # Errors
///
/// [`DewError`] as [`dew_core::SweepRequest::run`] (unsound options are
/// impossible here — every policy preset validates — though a space wider
/// than a policy's lane capacity, e.g. beyond 64-way under tree-PLRU, is
/// still rejected).
///
/// # Examples
///
/// ```
/// use dew_core::ConfigSpace;
/// use dew_explore::{explore_trace, EnergyModel, ExplorationSpace, ParetoMode};
/// use dew_trace::Record;
///
/// # fn main() -> Result<(), dew_core::DewError> {
/// let trace: Vec<Record> = (0..3_000u64).map(|i| Record::read((i % 400) * 4)).collect();
/// let space = ExplorationSpace::new(ConfigSpace::new((0, 4), (2, 3), (0, 1))?);
/// let report = explore_trace(&space, &trace, &EnergyModel::default(), ParetoMode::Pruned, 1)?;
/// // 5 set counts x 2 block sizes x 2 associativities, FIFO only; the
/// // monotonicity prefilter drops strictly dominated points up front and
/// // accounts for them in `pruned_dominated`.
/// assert_eq!(
///     report.points().len() as u64 + report.pruned_dominated(),
///     space.candidate_count()
/// );
/// // Two block sizes, one policy: exactly two fused trace traversals.
/// assert_eq!(report.trace_traversals(), 2);
/// assert!(!report.frontier().is_empty());
/// # Ok(())
/// # }
/// ```
pub fn explore_trace(
    exploration: &ExplorationSpace,
    records: &[Record],
    model: &EnergyModel,
    mode: ParetoMode,
    threads: usize,
) -> Result<ExplorationReport, DewError> {
    let start = Instant::now();
    let mut sweeps: Vec<SweepOutcome> = Vec::with_capacity(exploration.policies.len());
    for &policy in &exploration.policies {
        let request = SweepRequest::new(&exploration.space)
            .policy(policy)
            .threads(threads);
        sweeps.push(request.run(records)?);
    }
    let sweep_seconds = start.elapsed().as_secs_f64();
    Ok(score_sweeps(
        exploration,
        &sweeps,
        model,
        mode,
        sweep_seconds,
    ))
}

/// The scoring + frontier half of [`explore_trace`], split out so callers
/// who already hold [`SweepOutcome`]s (one per policy, all over the same
/// trace) can re-score them under different models or modes without
/// re-simulating.
#[must_use]
pub fn score_sweeps(
    exploration: &ExplorationSpace,
    sweeps: &[SweepOutcome],
    model: &EnergyModel,
    mode: ParetoMode,
    sweep_seconds: f64,
) -> ExplorationReport {
    let mut points: Vec<ExplorationPoint> = Vec::new();
    let mut over_budget = 0u64;
    let mut trace_traversals = 0u64;
    for sweep in sweeps {
        trace_traversals += sweep.trace_traversals();
        for evaluation in evaluate_sweep(sweep, model) {
            if exploration
                .max_bytes
                .is_some_and(|cap| evaluation.geometry.total_bytes() > cap)
            {
                over_budget += 1;
                continue;
            }
            points.push(ExplorationPoint {
                policy: sweep.policy(),
                evaluation,
                on_frontier: false,
            });
        }
    }

    let pruned_dominated = match mode {
        ParetoMode::Exhaustive => 0,
        ParetoMode::Pruned => prune_by_assoc_monotonicity(&mut points),
    };
    mark_frontier(&mut points);

    // Stable report order: policy in evaluation order, then geometry.
    let policy_rank = |p: TreePolicy| {
        exploration
            .policies
            .iter()
            .position(|&q| q == p)
            .unwrap_or(usize::MAX)
    };
    points.sort_by_key(|p| {
        (
            policy_rank(p.policy),
            p.evaluation.geometry.block_bytes,
            p.evaluation.geometry.assoc,
            p.evaluation.geometry.sets,
        )
    });

    ExplorationReport {
        mode,
        accesses: sweeps.first().map_or(0, SweepOutcome::accesses),
        trace_traversals,
        candidates: exploration.candidate_count(),
        over_budget,
        pruned_dominated,
        sweep_seconds,
        points,
    }
}

/// The monotonicity prefilter: drop every point strictly dominated by a
/// lower-associativity point of the same `(policy, sets, block)` column —
/// the column shares its exact miss counts with one fused traversal, so
/// the check is a handful of comparisons per point. Returns how many
/// points were removed. Only *strictly* dominated points are dropped, so
/// equal-merit duplicates survive exactly as they do in the exhaustive
/// scan.
fn prune_by_assoc_monotonicity(points: &mut Vec<ExplorationPoint>) -> u64 {
    // Group columns by sorting: (policy, sets, block) together, ascending
    // associativity within.
    points.sort_by_key(|p| {
        (
            p.policy as u8,
            p.evaluation.geometry.sets,
            p.evaluation.geometry.block_bytes,
            p.evaluation.geometry.assoc,
        )
    });
    let before = points.len();
    let mut kept: Vec<ExplorationPoint> = Vec::with_capacity(before);
    let mut column_start = 0usize;
    let column_key = |p: &ExplorationPoint| {
        (
            p.policy,
            p.evaluation.geometry.sets,
            p.evaluation.geometry.block_bytes,
        )
    };
    for &p in points.iter() {
        let same_column = kept
            .get(column_start)
            .is_some_and(|q| column_key(q) == column_key(&p));
        if !same_column {
            column_start = kept.len();
        }
        // A narrower kept column member with no more misses and no more
        // energy strictly dominates `p` (capacity is strictly smaller).
        // Checking only kept members is enough: domination within a column
        // is transitive through the componentwise comparison.
        let dominated = kept[column_start..].iter().any(|q| {
            q.evaluation.misses <= p.evaluation.misses
                && q.evaluation.energy_nj <= p.evaluation.energy_nj
        });
        if !dominated {
            kept.push(p);
        }
    }
    let removed = (before - kept.len()) as u64;
    *points = kept;
    removed
}

/// Marks the Pareto-optimal points: a point survives unless another point
/// dominates it ([`ExplorationPoint::dominates`]); ties on all three
/// objectives keep both, matching [`crate::pareto_front`]'s semantics.
fn mark_frontier(points: &mut [ExplorationPoint]) {
    for i in 0..points.len() {
        let p = points[i];
        points[i].on_frontier = !points.iter().any(|q| q.dominates(&p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: u64, footprint: u64) -> Vec<Record> {
        (0..n).map(|i| Record::read((i % footprint) * 4)).collect()
    }

    fn space(set_hi: u32, block: (u32, u32), assoc_hi: u32) -> ExplorationSpace {
        ExplorationSpace::new(ConfigSpace::new((0, set_hi), block, (0, assoc_hi)).expect("valid"))
    }

    #[test]
    fn explore_covers_all_candidates_and_counts_traversals() {
        let trace = records(4_000, 700);
        let exploration = space(4, (2, 4), 2).with_policies(&[TreePolicy::Fifo, TreePolicy::Lru]);
        let report = explore_trace(
            &exploration,
            &trace,
            &EnergyModel::default(),
            ParetoMode::Exhaustive,
            1,
        )
        .expect("explore");
        assert_eq!(report.points().len() as u64, exploration.candidate_count());
        assert_eq!(report.candidates(), 2 * 5 * 3 * 3);
        // 3 block sizes x 2 policies, one fused traversal each.
        assert_eq!(report.trace_traversals(), 6);
        assert_eq!(report.over_budget(), 0);
        assert_eq!(report.pruned_dominated(), 0, "exhaustive never prunes");
        assert_eq!(report.accesses(), 4_000);
    }

    #[test]
    fn pruned_and_exhaustive_frontiers_are_identical() {
        let trace = records(6_000, 900);
        let exploration = space(5, (2, 4), 2).with_policies(&[TreePolicy::Fifo, TreePolicy::Lru]);
        let model = EnergyModel::default();
        let a = explore_trace(&exploration, &trace, &model, ParetoMode::Exhaustive, 1)
            .expect("exhaustive");
        let b = explore_trace(&exploration, &trace, &model, ParetoMode::Pruned, 1).expect("pruned");
        let key = |p: &ExplorationPoint| {
            (
                p.policy as u8,
                p.evaluation.geometry.block_bytes,
                p.evaluation.geometry.assoc,
                p.evaluation.geometry.sets,
            )
        };
        let mut fa: Vec<_> = a.frontier();
        let mut fb: Vec<_> = b.frontier();
        fa.sort_by_key(key);
        fb.sort_by_key(key);
        assert_eq!(fa, fb, "pruning must not change the frontier");
        assert!(
            b.pruned_dominated() > 0,
            "a multi-assoc space should prune something"
        );
        assert!(b.points().len() < a.points().len());
    }

    /// Every policy's columns are pruned when several policies share a
    /// space, exactly as when each policy is explored alone.
    #[test]
    fn pruning_covers_every_policy_of_a_mixed_space() {
        let trace = records(6_000, 900);
        let model = EnergyModel::default();
        let pruned = |policies: &[TreePolicy]| {
            let exploration = space(5, (2, 4), 2).with_policies(policies);
            explore_trace(&exploration, &trace, &model, ParetoMode::Pruned, 1)
                .expect("pruned")
                .pruned_dominated()
        };
        let alone: Vec<u64> = TreePolicy::ALL.iter().map(|&p| pruned(&[p])).collect();
        assert!(alone.iter().all(|&n| n > 0), "{alone:?}");
        assert_eq!(pruned(&TreePolicy::ALL), alone.iter().sum::<u64>());
    }

    #[test]
    fn every_off_frontier_point_is_dominated() {
        let trace = records(3_000, 300);
        let exploration = space(5, (2, 3), 2);
        let report = explore_trace(
            &exploration,
            &trace,
            &EnergyModel::default(),
            ParetoMode::Exhaustive,
            1,
        )
        .expect("explore");
        let frontier = report.frontier();
        assert!(!frontier.is_empty());
        for p in report.points() {
            if !p.on_frontier {
                assert!(
                    frontier.iter().any(|f| f.dominates(p)),
                    "{p} is off the frontier but undominated"
                );
            }
        }
    }

    #[test]
    fn budget_filters_and_is_counted() {
        let trace = records(1_000, 100);
        let cap = 1024u64;
        let capped = space(6, (2, 3), 2).with_budget(Some(cap));
        let report = explore_trace(
            &capped,
            &trace,
            &EnergyModel::default(),
            ParetoMode::Pruned,
            1,
        )
        .expect("explore");
        assert!(report.over_budget() > 0);
        assert_eq!(
            report.points().len() as u64 + report.over_budget() + report.pruned_dominated(),
            capped.candidate_count()
        );
        for p in report.points() {
            assert!(p.evaluation.geometry.total_bytes() <= cap);
        }
    }

    #[test]
    fn policies_deduplicate_and_default_to_fifo() {
        let s = ConfigSpace::new((0, 1), (2, 2), (0, 0)).expect("valid");
        let e = ExplorationSpace::new(s).with_policies(&[
            TreePolicy::Lru,
            TreePolicy::Lru,
            TreePolicy::Fifo,
        ]);
        assert_eq!(e.policies(), &[TreePolicy::Lru, TreePolicy::Fifo]);
        let empty = ExplorationSpace::new(s).with_policies(&[]);
        assert_eq!(empty.policies(), &[TreePolicy::Fifo]);
    }

    #[test]
    fn report_serialisations_are_well_formed() {
        let trace = records(2_000, 200);
        let exploration = space(3, (2, 3), 1).with_policies(&[TreePolicy::Fifo, TreePolicy::Lru]);
        let report = explore_trace(
            &exploration,
            &trace,
            &EnergyModel::default(),
            ParetoMode::Pruned,
            1,
        )
        .expect("explore");
        let json = report.to_json();
        assert!(json.starts_with("{\n") && json.trim_end().ends_with('}'));
        assert!(json.contains("\"trace_traversals\": 4"), "{json}");
        assert!(json.contains("\"pareto\": true"));
        assert_eq!(
            json.matches("\"policy\"").count(),
            report.points().len(),
            "one object per point"
        );
        let csv = report.to_csv();
        assert!(csv.starts_with("policy,sets,"));
        assert_eq!(csv.lines().count(), 1 + report.points().len());
        assert!(csv.lines().skip(1).all(|l| l.split(',').count() == 10));
    }

    #[test]
    fn evaluations_feed_the_selection_helpers() {
        let trace = records(2_000, 500);
        let exploration = space(5, (2, 3), 1).with_policies(&[TreePolicy::Fifo, TreePolicy::Lru]);
        let report = explore_trace(
            &exploration,
            &trace,
            &EnergyModel::default(),
            ParetoMode::Pruned,
            1,
        )
        .expect("explore");
        let fifo = report.evaluations(TreePolicy::Fifo);
        assert!(!fifo.is_empty());
        let best = crate::best_edp_under(&fifo, 1 << 20).expect("fits");
        assert!(best.geometry.total_bytes() <= 1 << 20);
    }

    #[test]
    fn display_marks_frontier_membership() {
        let trace = records(500, 50);
        let report = explore_trace(
            &space(2, (2, 2), 1),
            &trace,
            &EnergyModel::default(),
            ParetoMode::Pruned,
            1,
        )
        .expect("explore");
        let shown: Vec<String> = report.points().iter().map(ToString::to_string).collect();
        assert!(shown.iter().any(|s| s.ends_with(" *")));
    }
}
