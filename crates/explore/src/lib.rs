//! Cache design-space exploration on top of DEW sweeps.
//!
//! The DEW paper's motivation (Section 1) is tuning the level-1 cache of an
//! embedded processor: the exact per-configuration miss counts that DEW
//! produces in a single trace pass feed an energy/performance model, and the
//! designer picks from the resulting Pareto front. This crate supplies that
//! last mile:
//!
//! * [`ExplorationSpace`] / [`explore_trace`] — the exploration engine: one
//!   fused sweep per policy (one trace traversal per block size), analytic
//!   scoring, and the miss-rate × energy × size Pareto frontier with an
//!   exhaustive and a monotonicity-pruned extraction mode ([`ParetoMode`]),
//!   reported with JSON/CSV emitters ([`ExplorationReport`]);
//! * [`EnergyModel`] / [`Geometry`] — a transparent analytic energy & timing
//!   model (documented first-order formulas, recalibratable constants);
//! * [`evaluate_sweep`] — turns a [`dew_core::SweepOutcome`] into
//!   [`Evaluation`]s (energy, cycles, miss rate, EDP);
//! * [`pareto_front`], [`best_edp_under`], [`fastest_under`] — selection
//!   helpers for the usual embedded design questions;
//! * [`MissRateCurve`] — the designer's per-axis view (knee and saturation
//!   detection).
//!
//! # Examples
//!
//! End-to-end exploration — the one-call path (`dew explore` in the CLI):
//!
//! ```
//! use dew_core::{ConfigSpace, TreePolicy};
//! use dew_explore::{explore_trace, EnergyModel, ExplorationSpace, ParetoMode};
//! use dew_trace::Record;
//!
//! # fn main() -> Result<(), dew_core::DewError> {
//! let trace: Vec<Record> = (0..5_000u64).map(|i| Record::read((i % 700) * 4)).collect();
//! let space = ExplorationSpace::new(ConfigSpace::new((0, 4), (2, 4), (0, 1))?)
//!     .with_policies(&[TreePolicy::Fifo, TreePolicy::Lru])
//!     .with_budget(Some(16 * 1024));
//! let report = explore_trace(&space, &trace, &EnergyModel::default(), ParetoMode::Pruned, 1)?;
//! assert!(!report.frontier().is_empty());
//! // 3 block sizes x 2 policies: exactly 6 fused trace traversals.
//! assert_eq!(report.trace_traversals(), 6);
//! # Ok(())
//! # }
//! ```
//!
//! Or piecewise, when the sweep is shared with other consumers:
//!
//! ```
//! use dew_core::{ConfigSpace, SweepRequest};
//! use dew_explore::{evaluate_sweep, pareto_front, EnergyModel};
//! use dew_trace::Record;
//!
//! # fn main() -> Result<(), dew_core::DewError> {
//! let space = ConfigSpace::new((0, 4), (2, 4), (0, 1))?;
//! let trace: Vec<Record> = (0..5_000u64).map(|i| Record::read((i % 700) * 4)).collect();
//! let sweep = SweepRequest::new(&space).threads(1).run(&trace)?;
//! let evals = evaluate_sweep(&sweep, &EnergyModel::default());
//! let front = pareto_front(&evals);
//! assert!(!front.is_empty() && front.len() <= evals.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod curves;
mod dse;
mod energy;
mod explore;

pub use curves::{CurvePoint, MissRateCurve};
pub use dse::{
    explore_trace, score_sweeps, ExplorationPoint, ExplorationReport, ExplorationSpace, ParetoMode,
};
pub use energy::{EnergyModel, Geometry};
pub use explore::{best_edp_under, evaluate_sweep, fastest_under, pareto_front, Evaluation};
