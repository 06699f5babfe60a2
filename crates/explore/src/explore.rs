//! Turning sweep results into design decisions: evaluation, Pareto
//! filtering, and constrained selection.

use std::fmt;

use dew_core::SweepOutcome;

use crate::energy::{EnergyModel, Geometry};

/// One configuration's figures of merit under an [`EnergyModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// The cache geometry evaluated.
    pub geometry: Geometry,
    /// Requests simulated.
    pub accesses: u64,
    /// Exact misses from the sweep.
    pub misses: u64,
    /// Estimated total energy in nJ.
    pub energy_nj: f64,
    /// Estimated runtime in cycles.
    pub cycles: u64,
}

impl Evaluation {
    /// Miss rate in `0.0..=1.0` (`0.0` for an empty run).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Energy-delay product (nJ · cycles), the classic single-number
    /// embedded figure of merit.
    #[must_use]
    pub fn edp(&self) -> f64 {
        self.energy_nj * self.cycles as f64
    }
}

impl fmt::Display for Evaluation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: miss rate {:.4}, {:.1} nJ, {} cycles",
            self.geometry,
            self.miss_rate(),
            self.energy_nj,
            self.cycles
        )
    }
}

/// Evaluates every configuration of a DEW sweep under `model`.
///
/// # Examples
///
/// ```
/// use dew_core::{ConfigSpace, SweepRequest};
/// use dew_explore::{evaluate_sweep, EnergyModel};
/// use dew_trace::Record;
///
/// # fn main() -> Result<(), dew_core::DewError> {
/// let space = ConfigSpace::new((0, 3), (2, 3), (0, 1))?;
/// let trace: Vec<Record> = (0..2000u64).map(|i| Record::read((i % 300) * 4)).collect();
/// let sweep = SweepRequest::new(&space).threads(1).run(&trace)?;
/// let evals = evaluate_sweep(&sweep, &EnergyModel::default());
/// assert_eq!(evals.len() as u64, space.config_count());
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn evaluate_sweep(sweep: &SweepOutcome, model: &EnergyModel) -> Vec<Evaluation> {
    let mut evals: Vec<Evaluation> = sweep
        .iter()
        .map(|c| {
            let geometry = Geometry {
                sets: c.sets,
                assoc: c.assoc,
                block_bytes: c.block_bytes,
            };
            Evaluation {
                geometry,
                accesses: sweep.accesses(),
                misses: c.misses,
                energy_nj: model.total_energy_nj(geometry, sweep.accesses(), c.misses),
                cycles: model.total_cycles(geometry, sweep.accesses(), c.misses),
            }
        })
        .collect();
    evals.sort_by_key(|e| (e.geometry.block_bytes, e.geometry.assoc, e.geometry.sets));
    evals
}

/// The Pareto-optimal subset minimising `(energy, cycles)`.
///
/// A configuration survives unless some other configuration is at least as
/// good on both objectives and strictly better on one.
#[must_use]
pub fn pareto_front(evals: &[Evaluation]) -> Vec<Evaluation> {
    let mut front: Vec<Evaluation> = Vec::new();
    for &e in evals {
        let dominated = evals.iter().any(|o| {
            (o.energy_nj < e.energy_nj && o.cycles <= e.cycles)
                || (o.energy_nj <= e.energy_nj && o.cycles < e.cycles)
        });
        if !dominated {
            front.push(e);
        }
    }
    front.sort_by(|a, b| {
        a.energy_nj
            .partial_cmp(&b.energy_nj)
            .expect("finite energies")
    });
    front
}

/// The minimum-EDP configuration whose capacity does not exceed
/// `max_bytes`; `None` if nothing fits.
#[must_use]
pub fn best_edp_under(evals: &[Evaluation], max_bytes: u64) -> Option<Evaluation> {
    evals
        .iter()
        .filter(|e| e.geometry.total_bytes() <= max_bytes)
        .min_by(|a, b| a.edp().partial_cmp(&b.edp()).expect("finite edp"))
        .copied()
}

/// The fastest (fewest cycles) configuration within `max_bytes`; ties broken
/// by lower energy. `None` if nothing fits.
#[must_use]
pub fn fastest_under(evals: &[Evaluation], max_bytes: u64) -> Option<Evaluation> {
    evals
        .iter()
        .filter(|e| e.geometry.total_bytes() <= max_bytes)
        .min_by(|a, b| {
            a.cycles.cmp(&b.cycles).then(
                a.energy_nj
                    .partial_cmp(&b.energy_nj)
                    .expect("finite energies"),
            )
        })
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(sets: u32, energy: f64, cycles: u64) -> Evaluation {
        Evaluation {
            geometry: Geometry {
                sets,
                assoc: 1,
                block_bytes: 4,
            },
            accesses: 100,
            misses: 10,
            energy_nj: energy,
            cycles,
        }
    }

    #[test]
    fn pareto_front_filters_dominated_points() {
        let evals = vec![
            eval(1, 10.0, 100),  // on the front
            eval(2, 12.0, 90),   // on the front
            eval(4, 12.0, 95),   // dominated by (12.0, 90)
            eval(8, 9.0, 120),   // on the front
            eval(16, 20.0, 200), // dominated by everything
        ];
        let front = pareto_front(&evals);
        let sets: Vec<u32> = front.iter().map(|e| e.geometry.sets).collect();
        assert_eq!(sets, vec![8, 1, 2], "sorted by energy");
    }

    #[test]
    fn pareto_front_keeps_duplicates_of_equal_merit() {
        let evals = vec![eval(1, 10.0, 100), eval(2, 10.0, 100)];
        assert_eq!(pareto_front(&evals).len(), 2);
    }

    #[test]
    fn constrained_selection_respects_capacity() {
        let evals = vec![eval(1, 10.0, 100), eval(1024, 1.0, 10)];
        // 1024 sets x 4 B = 4096 B, over a 1 KiB budget:
        let best = best_edp_under(&evals, 1024).expect("something fits");
        assert_eq!(best.geometry.sets, 1);
        assert!(best_edp_under(&evals, 1).is_none());
        let fast = fastest_under(&evals, 1 << 20).expect("fits");
        assert_eq!(fast.geometry.sets, 1024);
    }

    #[test]
    fn metrics_are_consistent() {
        let e = eval(1, 5.0, 50);
        assert!((e.miss_rate() - 0.1).abs() < 1e-12);
        assert!((e.edp() - 250.0).abs() < 1e-9);
        let empty = Evaluation { accesses: 0, ..e };
        assert_eq!(empty.miss_rate(), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!eval(4, 1.0, 1).to_string().is_empty());
    }
}
