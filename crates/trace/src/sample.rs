//! Trace sampling — the "fractional simulation" of the paper's related work.
//!
//! The DEW paper (Section 2) contrasts exact simulation with *fractional
//! simulation* "which allows the simulation of a section of the trace, and
//! obtains results at the cost of accuracy" (citing Horiuchi et al. and
//! Li et al.). This module provides the standard samplers so that trade-off
//! can be reproduced and measured (see the `sampling_accuracy` integration
//! test):
//!
//! * [`prefix`] — simulate only the first `n` requests;
//! * [`periodic`] — systematic interval sampling: from every window of
//!   `period` requests keep the first `sample_len` (cluster sampling keeps
//!   intra-cluster locality intact, which matters for cache behaviour);
//! * [`stratified`] — keep every `k`-th request (destroys same-block runs;
//!   included as the known-bad baseline).
//!
//! # Examples
//!
//! ```
//! use dew_trace::sample::periodic;
//! use dew_trace::{Record, Trace};
//!
//! let trace: Trace = (0..100u64).map(Record::read).collect();
//! let sampled = periodic(trace.records(), 10, 3); // 3 of every 10
//! assert_eq!(sampled.len(), 30);
//! assert_eq!(sampled.records()[3].addr, 10); // second window starts at 10
//! ```

use crate::record::Record;
use crate::trace::Trace;

/// The first `n` requests of `trace` (truncation sampling).
#[must_use]
pub fn prefix(trace: &Trace, n: usize) -> Trace {
    trace.records().iter().take(n).copied().collect()
}

/// Systematic cluster sampling: from every `period`-request window of
/// `records`, keep the first `sample_len` requests.
///
/// # Panics
///
/// Panics if `period == 0` or `sample_len > period`.
#[must_use]
pub fn periodic(records: &[Record], period: usize, sample_len: usize) -> Trace {
    assert!(period > 0, "period must be positive");
    assert!(sample_len <= period, "sample_len must not exceed period");
    records
        .iter()
        .enumerate()
        .filter(|(i, _)| i % period < sample_len)
        .map(|(_, r)| *r)
        .collect()
}

/// Keep every `k`-th request (single-record strides; poor for caches, kept
/// as the known-bad baseline).
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn stratified(trace: &Trace, k: usize) -> Trace {
    assert!(k > 0, "k must be positive");
    trace.records().iter().step_by(k).copied().collect()
}

/// Relative error of a sampled miss-*rate* estimate against the full-trace
/// value: `|sampled - full| / full` (`0.0` when the full rate is zero).
#[must_use]
pub fn relative_error(full_rate: f64, sampled_rate: f64) -> f64 {
    if full_rate == 0.0 {
        0.0
    } else {
        (sampled_rate - full_rate).abs() / full_rate
    }
}

/// Convenience: which fraction of the original requests a sampled trace
/// retains.
#[must_use]
pub fn retained_fraction(full: &Trace, sampled: &Trace) -> f64 {
    if full.is_empty() {
        0.0
    } else {
        sampled.len() as f64 / full.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(n: u64) -> Trace {
        (0..n).map(Record::read).collect()
    }

    #[test]
    fn prefix_truncates() {
        let t = trace(10);
        assert_eq!(prefix(&t, 4).len(), 4);
        assert_eq!(
            prefix(&t, 100).len(),
            10,
            "prefix longer than trace is the trace"
        );
        assert_eq!(prefix(&t, 0).len(), 0);
    }

    #[test]
    fn periodic_keeps_cluster_heads() {
        let t = trace(10);
        let s = periodic(t.records(), 5, 2);
        let addrs: Vec<u64> = s.iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![0, 1, 5, 6]);
    }

    #[test]
    fn periodic_full_window_is_identity() {
        let t = trace(7);
        assert_eq!(periodic(t.records(), 3, 3), t);
    }

    #[test]
    #[should_panic(expected = "sample_len must not exceed period")]
    fn periodic_rejects_oversized_sample() {
        let _ = periodic(trace(5).records(), 2, 3);
    }

    #[test]
    fn stratified_strides() {
        let t = trace(9);
        let addrs: Vec<u64> = stratified(&t, 3).iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![0, 3, 6]);
        assert_eq!(stratified(&t, 1), t);
    }

    #[test]
    fn empty_trace_samples_to_empty() {
        let empty = Trace::new();
        assert!(prefix(&empty, 5).is_empty());
        assert!(periodic(empty.records(), 4, 2).is_empty());
        assert!(stratified(&empty, 3).is_empty());
        assert_eq!(retained_fraction(&empty, &empty), 0.0);
    }

    #[test]
    fn period_at_least_trace_length_keeps_one_cluster() {
        // A period covering the whole trace leaves exactly one cluster: the
        // head `sample_len` requests (or everything, if the cluster is
        // longer than the trace).
        let t = trace(6);
        assert_eq!(periodic(t.records(), 6, 2), prefix(&t, 2));
        assert_eq!(periodic(t.records(), 100, 4), prefix(&t, 4));
        assert_eq!(
            periodic(t.records(), 100, 100),
            t,
            "oversized cluster is identity"
        );
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn periodic_rejects_zero_period() {
        let _ = periodic(trace(5).records(), 0, 0);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn stratified_rejects_zero_stride() {
        let _ = stratified(&trace(5), 0);
    }

    #[test]
    fn stratified_stride_one_is_identity() {
        let t = trace(11);
        assert_eq!(stratified(&t, 1), t);
        assert!((retained_fraction(&t, &stratified(&t, 1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn error_and_fraction_helpers() {
        assert!((relative_error(0.5, 0.45) - 0.1).abs() < 1e-12);
        assert!((relative_error(0.2, 0.25) - 0.25).abs() < 1e-12);
        assert_eq!(relative_error(0.0, 0.3), 0.0);
        let t = trace(100);
        let s = periodic(t.records(), 10, 1);
        assert!((retained_fraction(&t, &s) - 0.1).abs() < 1e-12);
        assert_eq!(retained_fraction(&Trace::new(), &Trace::new()), 0.0);
    }
}
