//! Order statistics, the miss-count digest, the host memory probe and the
//! result line.

use std::collections::BTreeMap;

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `0.0..=1.0`; 0.0 for no samples.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Mean of the middle half of `v`: the sorted samples without the lowest
/// and the highest quarter (all of them below four samples); 0.0 for no
/// samples. It averages over the whole run like a mean, but one call stalled
/// by the host cannot move it.
pub fn interquartile_mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// FNV-1a over a stream of 64-bit words: the bit-for-bit fingerprint of a
/// run's `(configuration, misses)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// The process's resident-set high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Metric values by name; units live with the metric lists in `main.rs`.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The JSON object `{"name": {"value": v, "unit": u}, ...}` over
    /// `names`; a metric this run did not measure reads 0.
    pub fn to_json(&self, names: &[(&str, &str)]) -> String {
        let body: Vec<String> = names
            .iter()
            .map(|&(name, unit)| {
                let value = Some(self.get(name))
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(median(&v), 10.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 20.0);
    }

    #[test]
    fn interquartile_mean_drops_both_outer_quarters() {
        let mut v: Vec<f64> = (1..=8).map(f64::from).collect();
        v[7] = 1e9;
        assert_eq!(interquartile_mean(&v), 4.5);
        assert_eq!(interquartile_mean(&[2.0, 4.0, 9.0]), 5.0);
    }

    #[test]
    fn metrics_render_as_json_with_all_digits() {
        let mut m = Metrics::default();
        m.set("wall_s", 1.234_567_891);
        assert_eq!(
            m.to_json(&[("wall_s", "s"), ("zero", "count")]),
            "{\"wall_s\": {\"value\": 1.234567891, \"unit\": \"s\"}, \
             \"zero\": {\"value\": 0.0, \"unit\": \"count\"}}"
        );
    }
}
