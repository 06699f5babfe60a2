//! Deterministic request-mix generator for service traffic.
//!
//! `dew serve` jobs and the `dew gen` load generator describe their input
//! not as a trace file but as a tiny, reproducible *spec*: a mix kind, a
//! request count and a seed. The server regenerates the stream on demand
//! (and on every retry/resume — the iterator is a pure function of the
//! spec), which keeps job submissions a few bytes instead of megabytes.
//! Every zipf and mix stream draws from one immutable popularity table,
//! built on first use and shared process-wide (2 MiB of CDF plus a 1 MiB
//! guide table), so an open costs only its seed; see [`crate::zipf`].
//! This mirrors the traffic-generator-driven simulation runner pattern of
//! `cache-rs` (see SNIPPETS.md) with the re-openable-source contract the
//! resilient sweep drivers require.
//!
//! Three archetypes plus an interleaving:
//!
//! * [`MixKind::Zipf`] — heavy-tailed popularity over a hot footprint, the
//!   classic cache-friendly-but-not-trivial profile;
//! * [`MixKind::Loop`] — a sequential loop over the footprint, maximal
//!   spatial locality and periodic reuse;
//! * [`MixKind::Scan`] — a cold strided scan that never revisits a block,
//!   the worst case for any cache;
//! * [`MixKind::Mix`] — the three interleaved in phases, exercising phase
//!   changes the way real applications do.
//!
//! # Examples
//!
//! ```
//! use dew_workloads::traffic::{MixKind, TrafficSpec};
//!
//! let spec = TrafficSpec { kind: MixKind::Zipf, requests: 1_000, seed: 7 };
//! let a: Vec<_> = spec.records().collect();
//! let b: Vec<_> = spec.records().collect();
//! assert_eq!(a.len(), 1_000);
//! assert_eq!(a, b, "the stream replays identically on every open");
//! ```

use std::sync::OnceLock;

use dew_trace::Record;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::zipf::Zipf;

/// Hot-set footprint of the generated mixes, in 4-byte words. Spans 1 MiB,
/// comfortably larger than any swept level-1 configuration.
const FOOTPRINT_WORDS: u64 = 1 << 18;
/// Zipf exponent: mildly heavy-tailed, matching the sweep-smoke bench.
const ZIPF_S: f64 = 0.8;
/// Phase length of [`MixKind::Mix`]: the interleave switches archetype
/// every this many requests.
const MIX_PHASE: u64 = 1024;

/// The popularity table every zipf and mix stream samples, built once.
fn footprint_zipf() -> &'static Zipf {
    static TABLE: OnceLock<Zipf> = OnceLock::new();
    TABLE.get_or_init(|| Zipf::new(FOOTPRINT_WORDS as usize, ZIPF_S))
}

/// The request-mix archetypes a traffic spec can generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixKind {
    /// Zipf-popular word reads over the hot footprint.
    Zipf,
    /// A sequential loop over the footprint.
    Loop,
    /// A cold 64-byte-strided scan (no block is ever revisited).
    Scan,
    /// Phased interleave of the other three.
    Mix,
}

impl MixKind {
    /// The canonical lower-case name (`zipf`, `loop`, `scan`, `mix`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MixKind::Zipf => "zipf",
            MixKind::Loop => "loop",
            MixKind::Scan => "scan",
            MixKind::Mix => "mix",
        }
    }
}

impl std::fmt::Display for MixKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for MixKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "zipf" => Ok(MixKind::Zipf),
            "loop" => Ok(MixKind::Loop),
            "scan" => Ok(MixKind::Scan),
            "mix" => Ok(MixKind::Mix),
            other => Err(format!(
                "unknown mix `{other}` (expected zipf|loop|scan|mix)"
            )),
        }
    }
}

/// A complete, copyable description of one synthetic request stream.
///
/// Two specs with equal fields generate byte-identical streams; see the
/// [module docs](self) for why that matters to the serve layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficSpec {
    /// Which archetype to generate.
    pub kind: MixKind,
    /// Stream length in requests.
    pub requests: u64,
    /// Seed of the per-spec RNG (Zipf draws and mix interleaving).
    pub seed: u64,
}

impl TrafficSpec {
    /// A fresh iterator over the spec's stream, starting from the first
    /// request. Pure: every call replays the identical sequence.
    #[must_use]
    pub fn records(&self) -> TrafficIter {
        TrafficIter {
            kind: self.kind,
            zipf: match self.kind {
                MixKind::Zipf | MixKind::Mix => Some(footprint_zipf()),
                MixKind::Loop | MixKind::Scan => None,
            },
            rng: SmallRng::seed_from_u64(self.seed),
            index: 0,
            remaining: self.requests,
        }
    }
}

/// The deterministic record stream of a [`TrafficSpec`].
#[derive(Debug, Clone)]
pub struct TrafficIter {
    kind: MixKind,
    zipf: Option<&'static Zipf>,
    rng: SmallRng,
    index: u64,
    remaining: u64,
}

impl TrafficIter {
    fn zipf_addr(&mut self) -> u64 {
        let z = self.zipf.expect("zipf table built for this kind");
        z.sample(&mut self.rng) as u64 * 4
    }

    fn loop_addr(&self) -> u64 {
        (self.index % FOOTPRINT_WORDS) * 4
    }

    fn scan_addr(&self) -> u64 {
        // Past the footprint so the scan never aliases the hot set.
        FOOTPRINT_WORDS * 4 + self.index * 64
    }
}

impl Iterator for TrafficIter {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let addr = match self.kind {
            MixKind::Zipf => self.zipf_addr(),
            MixKind::Loop => self.loop_addr(),
            MixKind::Scan => self.scan_addr(),
            // NOTE: the RNG must advance identically regardless of phase,
            // or the zipf phases would depend on how many preceded them —
            // so every mixed step draws, and non-zipf phases discard.
            MixKind::Mix => {
                let drawn = self.zipf_addr();
                match (self.index / MIX_PHASE) % 3 {
                    0 => drawn,
                    1 => self.loop_addr(),
                    _ => self.scan_addr(),
                }
            }
        };
        self.index += 1;
        Some(Record::read(addr))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).unwrap_or(usize::MAX);
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_replays_identically_and_parses_by_name() {
        for kind in [MixKind::Zipf, MixKind::Loop, MixKind::Scan, MixKind::Mix] {
            let spec = TrafficSpec {
                kind,
                requests: 2_000,
                seed: 42,
            };
            let a: Vec<Record> = spec.records().collect();
            let b: Vec<Record> = spec.records().collect();
            assert_eq!(a.len(), 2_000);
            assert_eq!(a, b, "{kind} must replay identically");
            assert_eq!(kind.name().parse::<MixKind>().expect("round-trips"), kind);
        }
        assert!("belady".parse::<MixKind>().is_err());
    }

    #[test]
    fn seeds_differentiate_zipf_but_not_loop() {
        let at = |kind, seed| {
            TrafficSpec {
                kind,
                requests: 500,
                seed,
            }
            .records()
            .collect::<Vec<_>>()
        };
        assert_ne!(at(MixKind::Zipf, 1), at(MixKind::Zipf, 2));
        assert_eq!(at(MixKind::Loop, 1), at(MixKind::Loop, 2));
    }

    #[test]
    fn archetypes_have_their_shape() {
        // Scan: strictly increasing, never a repeat.
        let scan: Vec<u64> = TrafficSpec {
            kind: MixKind::Scan,
            requests: 1_000,
            seed: 0,
        }
        .records()
        .map(|r| r.addr)
        .collect();
        assert!(scan.windows(2).all(|w| w[1] > w[0]));

        // Loop: wraps around the footprint.
        let spec = TrafficSpec {
            kind: MixKind::Loop,
            requests: FOOTPRINT_WORDS + 5,
            seed: 0,
        };
        let first = spec.records().next().expect("nonempty");
        let wrapped = spec.records().nth(FOOTPRINT_WORDS as usize).expect("wraps");
        assert_eq!(first.addr, wrapped.addr);

        // Mix: contains scan-range addresses and hot-set addresses.
        let mix: Vec<u64> = TrafficSpec {
            kind: MixKind::Mix,
            requests: 4 * MIX_PHASE,
            seed: 3,
        }
        .records()
        .map(|r| r.addr)
        .collect();
        assert!(mix.iter().any(|&a| a >= FOOTPRINT_WORDS * 4));
        assert!(mix.iter().any(|&a| a < FOOTPRINT_WORDS * 4));
    }
}
