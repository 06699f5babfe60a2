//! Windowed miss-rate timelines: program-phase behaviour from a single pass.
//!
//! Because a DEW pass holds exact running miss counts for every set count,
//! snapshotting them every `window` requests yields the **miss-rate time
//! series of every configuration simultaneously** — the phase-behaviour view
//! used when sizing caches for multi-phase embedded applications, at no
//! extra simulation cost beyond the snapshots.
//!
//! # Examples
//!
//! ```
//! use dew_core::{DewOptions, MissTimeline, PassConfig};
//! use dew_trace::Record;
//!
//! # fn main() -> Result<(), dew_core::DewError> {
//! let pass = PassConfig::new(2, 0, 6, 2)?;
//! let records: Vec<Record> = (0..40_000u64)
//!     .map(|i| {
//!         // two phases: a tiny loop, then a streaming scan
//!         if i < 20_000 { Record::read((i % 32) * 4) } else { Record::read(i * 4) }
//!     })
//!     .collect();
//! let timeline = MissTimeline::collect(pass, DewOptions::default(), &records, 2_000)?;
//! let series = timeline.series(64, 2).expect("simulated");
//! let (head, tail) = (series[2], series[series.len() - 2]);
//! assert!(tail > head + 0.5, "the phase change is visible: {head} -> {tail}");
//! # Ok(())
//! # }
//! ```

use dew_trace::{BlockChunks, Record};

use crate::kernel::{FusedKernel, PolicyKernel};
use crate::options::DewOptions;
use crate::results::PassResults;
use crate::space::{DewError, PassConfig};

/// Per-window miss deltas for every simulated configuration of a pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowSample {
    /// Requests covered by this window (the last window may be shorter).
    pub requests: u64,
    /// Miss deltas per level, `(sets, assoc_misses, dm_misses)`.
    pub misses: Vec<(u32, u64, u64)>,
}

/// A windowed miss timeline produced by [`MissTimeline::collect`].
#[derive(Debug, Clone, PartialEq)]
pub struct MissTimeline {
    pass: PassConfig,
    window: u64,
    samples: Vec<WindowSample>,
    final_results: PassResults,
}

impl MissTimeline {
    /// Runs one DEW pass over `records` under `options.policy`'s fused
    /// kernel, at the pass associativity alone, snapshotting every `window`
    /// requests. A zero `window` yields one single sample covering
    /// everything.
    ///
    /// # Errors
    ///
    /// [`DewError`] as from [`FusedKernel::build`].
    pub fn collect(
        pass: PassConfig,
        options: DewOptions,
        records: &[Record],
        window: u64,
    ) -> Result<Self, DewError> {
        let bits = pass.assoc().trailing_zeros();
        let sets = (pass.min_set_bits(), pass.max_set_bits());
        let mut kernel = FusedKernel::build(pass.block_bits(), sets, (bits, bits), options, false)?;
        let window = if window == 0 {
            records.len() as u64
        } else {
            window
        };
        let chunk_len = usize::try_from(window).map_or(records.len(), |w| w.min(records.len()));
        let mut samples = Vec::new();
        let mut prev: Option<PassResults> = None;
        let mut chunks = BlockChunks::new(records, pass.block_bits(), chunk_len);
        while let Some(chunk) = chunks.next_chunk() {
            kernel.run_blocks(chunk);
            let now = kernel
                .pass_results(pass.assoc())
                .expect("the pass associativity");
            let misses = now
                .levels()
                .iter()
                .enumerate()
                .map(|(i, l)| {
                    let (pa, pd) = prev.as_ref().map_or((0, 0), |p| {
                        (p.levels()[i].misses(), p.levels()[i].dm_misses())
                    });
                    (l.sets(), l.misses() - pa, l.dm_misses() - pd)
                })
                .collect();
            samples.push(WindowSample {
                requests: chunk.len() as u64,
                misses,
            });
            prev = Some(now);
        }
        Ok(MissTimeline {
            pass,
            window,
            samples,
            final_results: kernel
                .pass_results(pass.assoc())
                .expect("the pass associativity"),
        })
    }

    /// The window length requested.
    #[must_use]
    pub const fn window(&self) -> u64 {
        self.window
    }

    /// The per-window samples, in time order.
    #[must_use]
    pub fn samples(&self) -> &[WindowSample] {
        &self.samples
    }

    /// The whole run's final results (identical to an unwindowed pass).
    #[must_use]
    pub fn final_results(&self) -> &PassResults {
        &self.final_results
    }

    /// Per-window miss *rate* series for one configuration; `None` when the
    /// pass did not simulate `(sets, assoc)`.
    #[must_use]
    pub fn series(&self, sets: u32, assoc: u32) -> Option<Vec<f64>> {
        if !sets.is_power_of_two() {
            return None;
        }
        let set_bits = sets.trailing_zeros();
        if set_bits < self.pass.min_set_bits() || set_bits > self.pass.max_set_bits() {
            return None;
        }
        let idx = (set_bits - self.pass.min_set_bits()) as usize;
        let pick: fn(&(u32, u64, u64)) -> u64 = if assoc == 1 {
            |t| t.2
        } else if assoc == self.pass.assoc() {
            |t| t.1
        } else {
            return None;
        };
        Some(
            self.samples
                .iter()
                .map(|s| {
                    if s.requests == 0 {
                        0.0
                    } else {
                        pick(&s.misses[idx]) as f64 / s.requests as f64
                    }
                })
                .collect(),
        )
    }

    /// Window indices where the miss rate of `(sets, assoc)` changes by more
    /// than `threshold` (absolute) against the previous window — a simple
    /// phase-change detector.
    #[must_use]
    pub fn phase_changes(&self, sets: u32, assoc: u32, threshold: f64) -> Option<Vec<usize>> {
        let series = self.series(sets, assoc)?;
        Some(
            series
                .windows(2)
                .enumerate()
                .filter(|(_, w)| (w[1] - w[0]).abs() > threshold)
                .map(|(i, _)| i + 1)
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::TreePolicy;
    use dew_cachesim::{simulate_trace, CacheConfig, Replacement};

    fn two_phase_records() -> Vec<Record> {
        (0..30_000u64)
            .map(|i| {
                if i < 15_000 {
                    Record::read((i % 64) * 4) // hot loop
                } else {
                    Record::read(0x10_0000 + i * 4) // cold stream
                }
            })
            .collect()
    }

    #[test]
    fn windows_partition_the_run_exactly() {
        let records = two_phase_records();
        let pass = PassConfig::new(2, 0, 5, 2).expect("valid");
        let t =
            MissTimeline::collect(pass, DewOptions::default(), &records, 4_000).expect("collect");
        let total: u64 = t.samples().iter().map(|s| s.requests).sum();
        assert_eq!(total, records.len() as u64);
        assert_eq!(t.samples().len(), 8, "7 full windows + 1 remainder");
        assert_eq!(t.samples()[7].requests, 2_000);
        // Summed deltas equal the final counts.
        for (i, level) in t.final_results().levels().iter().enumerate() {
            let sum: u64 = t.samples().iter().map(|s| s.misses[i].1).sum();
            assert_eq!(sum, level.misses());
        }
    }

    #[test]
    fn phase_change_is_detected() {
        let records = two_phase_records();
        let pass = PassConfig::new(2, 0, 6, 2).expect("valid");
        let t =
            MissTimeline::collect(pass, DewOptions::default(), &records, 1_000).expect("collect");
        let changes = t.phase_changes(64, 2, 0.3).expect("simulated");
        // The single real transition sits at window 15 (request 15,000).
        assert!(
            changes.iter().any(|&w| (14..=16).contains(&w)),
            "expected a change near window 15, got {changes:?}"
        );
        assert!(changes.len() <= 3, "no spurious flapping: {changes:?}");
    }

    #[test]
    fn zero_window_gives_one_sample() {
        let records = two_phase_records();
        let pass = PassConfig::new(2, 0, 3, 2).expect("valid");
        let t = MissTimeline::collect(pass, DewOptions::default(), &records, 0).expect("collect");
        assert_eq!(t.samples().len(), 1);
        let series = t.series(8, 2).expect("simulated");
        assert_eq!(series.len(), 1);
    }

    #[test]
    fn series_lookup_rules() {
        let records = two_phase_records();
        let pass = PassConfig::new(2, 1, 4, 4).expect("valid");
        let t =
            MissTimeline::collect(pass, DewOptions::default(), &records, 5_000).expect("collect");
        assert!(t.series(8, 4).is_some());
        assert!(t.series(8, 1).is_some(), "DM rides along");
        assert!(t.series(8, 2).is_none(), "unsimulated associativity");
        assert!(t.series(1, 4).is_none(), "below the forest");
        assert!(t.series(6, 4).is_none(), "non power of two");
    }

    #[test]
    fn timeline_matches_plain_run() {
        let records = two_phase_records();
        let pass = PassConfig::new(2, 0, 5, 2).expect("valid");
        let t =
            MissTimeline::collect(pass, DewOptions::default(), &records, 3_000).expect("collect");
        let mut plain =
            crate::MultiAssocTree::for_pass(pass, DewOptions::default(), false).expect("sound");
        plain.run(records.iter().copied());
        assert_eq!(Some(t.final_results()), plain.pass_results(2).as_ref());
    }

    #[test]
    fn every_policy_matches_the_reference() {
        let records: Vec<Record> = two_phase_records().into_iter().step_by(7).collect();
        let pass = PassConfig::new(2, 0, 4, 4).expect("valid");
        for (policy, replacement) in [
            (TreePolicy::Fifo, Replacement::Fifo),
            (TreePolicy::Lru, Replacement::Lru),
            (TreePolicy::Plru, Replacement::Plru),
            (TreePolicy::Slru, Replacement::Slru),
        ] {
            let options = DewOptions::for_policy(policy);
            let t = MissTimeline::collect(pass, options, &records, 700).expect("collect");
            for set_bits in 0..=4u32 {
                let sets = 1 << set_bits;
                for assoc in [1, 4] {
                    let config =
                        CacheConfig::new(sets, assoc, 4, replacement).expect("valid config");
                    let expected = simulate_trace(config, &records).misses();
                    let got = t.final_results().misses(sets, assoc);
                    assert_eq!(got, Some(expected), "{policy} sets={sets} assoc={assoc}");
                }
            }
        }
    }
}
