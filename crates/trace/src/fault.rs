//! Deterministic fault injection for [`TraceSource`]s.
//!
//! Resilient sweep drivers are only trustworthy if their retry, checkpoint
//! and degradation paths are *exercised*, and real I/O faults are neither
//! reproducible nor CI-friendly. [`FaultyTraceSource`] decorates any
//! [`TraceSource`] and injects a **seed-controlled, reproducible** fault
//! schedule into it:
//!
//! * **transient open failures** — the first [`FaultPlan::fail_opens`]
//!   calls to [`TraceSource::open`] fail with an interrupted-I/O error
//!   (transient per [`TraceError::is_transient`]);
//! * **transient read faults** — each delivered record rolls a per-open
//!   xorshift RNG; with probability [`FaultPlan::transient_per_10k`] /
//!   10 000 the iterator yields an interrupted-I/O error and fuses, as a
//!   failing reader would. Injection stops once the shared
//!   [`FaultPlan::transient_budget`] is spent, so retrying consumers always
//!   converge;
//! * **fatal faults** — a corrupt record ([`FaultPlan::corrupt_at`]) or a
//!   short read ([`FaultPlan::truncate_at`]) at a fixed record index, on
//!   every open: format errors reproduce on retry, exactly like a damaged
//!   file;
//! * **latency** — an optional [`FaultPlan::delay`] every
//!   [`FaultPlan::delay_every`] records, for soak-testing timeouts.
//!
//! The schedule is a pure function of `(seed, open ordinal, record index)`:
//! two decorators built from the same plan produce byte-identical fault
//! sequences, and [`FaultPlan::none`] is a byte-identical passthrough.
//! Successive opens derive *different* per-open schedules from the same
//! seed, so a retry that replays past a fault location is not doomed to
//! hit it again — that is what makes retry-with-reopen converge.
//!
//! # Examples
//!
//! ```
//! use dew_trace::{FaultPlan, FaultyTraceSource, Record, TraceError, TraceSource};
//!
//! let inner = || Ok((0..100u64).map(|i| Ok::<_, TraceError>(Record::read(i * 4))));
//! // A fault-free plan is a pure passthrough.
//! let clean = FaultyTraceSource::new(inner, FaultPlan::none());
//! assert_eq!(clean.open().expect("opens").count(), 100);
//!
//! // The first open fails transiently; the second succeeds.
//! let inner = || Ok((0..100u64).map(|i| Ok::<_, TraceError>(Record::read(i * 4))));
//! let flaky = FaultyTraceSource::new(
//!     inner,
//!     FaultPlan {
//!         fail_opens: 1,
//!         ..FaultPlan::none()
//!     },
//! );
//! assert!(flaky.open().expect_err("injected").is_transient());
//! assert_eq!(flaky.open().expect("opens").count(), 100);
//! ```

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::error::{ParseRecordError, TraceError};
use crate::record::Record;
use crate::stream::TraceSource;

/// A reproducible fault schedule for a [`FaultyTraceSource`].
///
/// All faults default to off ([`FaultPlan::none`]); enable each class by
/// setting its field. The plan is `Copy` so one plan can parameterise many
/// decorators identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the per-open fault RNG. Two sources built from equal plans
    /// (same seed included) inject identical schedules.
    pub seed: u64,
    /// The first `fail_opens` calls to `open()` fail with a transient
    /// (interrupted) I/O error.
    pub fail_opens: u32,
    /// Per-record probability, in units of 1/10 000, of injecting a
    /// transient read error (after which the iterator fuses). Requires a
    /// nonzero [`FaultPlan::transient_budget`] to take effect.
    pub transient_per_10k: u32,
    /// Total transient *read* faults the source may inject over its whole
    /// lifetime, shared across all opens. A bounded budget guarantees that
    /// retrying consumers eventually stop seeing injected faults.
    pub transient_budget: u64,
    /// Inject a fatal corrupt-record parse error at this 0-based record
    /// index, on every open (format damage reproduces on retry).
    pub corrupt_at: Option<u64>,
    /// Inject a fatal short read ([`TraceError::Truncated`], reporting
    /// 1-based position `index + 1`) at this 0-based record index, on
    /// every open.
    pub truncate_at: Option<u64>,
    /// Sleep [`FaultPlan::delay`] after every `delay_every` delivered
    /// records (`0` disables the latency fault).
    pub delay_every: u64,
    /// The artificial latency injected by [`FaultPlan::delay_every`].
    pub delay: Duration,
}

impl FaultPlan {
    /// The all-off plan: the decorator passes the inner source through
    /// byte-identically.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            fail_opens: 0,
            transient_per_10k: 0,
            transient_budget: 0,
            corrupt_at: None,
            truncate_at: None,
            delay_every: 0,
            delay: Duration::ZERO,
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// splitmix64 finaliser: turns `(seed, open ordinal)` into a well-mixed
/// nonzero xorshift state.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn rng_state(seed: u64, open_ordinal: u64) -> u64 {
    let s = mix(seed ^ mix(open_ordinal));
    if s == 0 {
        1
    } else {
        s
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// A [`TraceSource`] decorator injecting the deterministic fault schedule
/// described by a [`FaultPlan`], which documents the fault classes and the
/// determinism contract.
pub struct FaultyTraceSource<S> {
    inner: S,
    plan: FaultPlan,
    opens: AtomicU64,
    transients_left: Arc<AtomicU64>,
    injected: Arc<AtomicU64>,
}

impl<S> std::fmt::Debug for FaultyTraceSource<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyTraceSource")
            .field("plan", &self.plan)
            .field("opens", &self.opens)
            .field("transients_left", &self.transients_left)
            .field("injected", &self.injected)
            .finish_non_exhaustive()
    }
}

impl<S: TraceSource> FaultyTraceSource<S> {
    /// Decorates `inner` with the fault schedule of `plan`.
    #[must_use]
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultyTraceSource {
            inner,
            plan,
            opens: AtomicU64::new(0),
            transients_left: Arc::new(AtomicU64::new(plan.transient_budget)),
            injected: Arc::new(AtomicU64::new(0)),
        }
    }

    /// How many times `open()` has been called so far.
    #[must_use]
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    /// Total faults injected so far (open failures plus read faults; fatal
    /// faults count once per delivery).
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

impl<S: TraceSource> TraceSource for FaultyTraceSource<S> {
    type Iter = FaultyIter<S::Iter>;

    fn open(&self) -> Result<Self::Iter, TraceError> {
        let ordinal = self.opens.fetch_add(1, Ordering::Relaxed);
        if ordinal < u64::from(self.plan.fail_opens) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(TraceError::Io(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected transient open failure (open #{ordinal})"),
            )));
        }
        Ok(FaultyIter {
            inner: self.inner.open()?,
            plan: self.plan,
            state: rng_state(self.plan.seed, ordinal),
            index: 0,
            done: false,
            transients_left: Arc::clone(&self.transients_left),
            injected: Arc::clone(&self.injected),
        })
    }
}

/// The record iterator produced by a [`FaultyTraceSource`]: delivers the
/// inner records, interleaved with the plan's injected faults. Fuses after
/// any error, like a real failing reader.
pub struct FaultyIter<I> {
    inner: I,
    plan: FaultPlan,
    state: u64,
    index: u64,
    done: bool,
    transients_left: Arc<AtomicU64>,
    injected: Arc<AtomicU64>,
}

impl<I> std::fmt::Debug for FaultyIter<I> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyIter")
            .field("plan", &self.plan)
            .field("index", &self.index)
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl<I> FaultyIter<I> {
    /// Decrements the shared transient budget; `false` once it is spent.
    fn take_budget(&self) -> bool {
        self.transients_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
            .is_ok()
    }
}

impl<I> Iterator for FaultyIter<I>
where
    I: Iterator<Item = Result<Record, TraceError>>,
{
    type Item = Result<Record, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let i = self.index;
        if self.plan.truncate_at == Some(i) {
            self.done = true;
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Some(Err(TraceError::Truncated { position: i + 1 }));
        }
        if self.plan.corrupt_at == Some(i) {
            self.done = true;
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Some(Err(TraceError::Parse {
                position: i + 1,
                source: ParseRecordError::UnknownLabel(7),
            }));
        }
        if self.plan.transient_per_10k > 0 {
            self.state = xorshift(self.state);
            if self.state % 10_000 < u64::from(self.plan.transient_per_10k) && self.take_budget() {
                self.done = true;
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Some(Err(TraceError::Io(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!("injected transient read fault at record {i}"),
                ))));
            }
        }
        if self.plan.delay_every > 0 && i > 0 && i % self.plan.delay_every == 0 {
            std::thread::sleep(self.plan.delay);
        }
        match self.inner.next() {
            Some(Ok(record)) => {
                self.index += 1;
                Some(Ok(record))
            }
            Some(Err(e)) => {
                self.done = true;
                Some(Err(e))
            }
            None => {
                self.done = true;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inner() -> impl TraceSource {
        || Ok((0..500u64).map(|i| Ok::<_, TraceError>(Record::read(i * 4))))
    }

    /// Drains one open into a printable event schedule ("r" per record, or
    /// the error's Display); `TraceError` is not `PartialEq`, so schedules
    /// compare as strings.
    fn schedule_of_open(src: &impl TraceSource) -> Vec<String> {
        match src.open() {
            Err(e) => vec![format!("open error: {e}")],
            Ok(iter) => iter
                .map(|r| match r {
                    Ok(rec) => format!("r{:x}", rec.addr),
                    Err(e) => format!("err: {e}"),
                })
                .collect(),
        }
    }

    #[test]
    fn fault_free_plan_is_byte_identical_passthrough() {
        let plain = inner();
        let wrapped = FaultyTraceSource::new(inner(), FaultPlan::none());
        for _ in 0..3 {
            assert_eq!(schedule_of_open(&plain), schedule_of_open(&wrapped));
        }
        assert_eq!(wrapped.faults_injected(), 0);
        assert_eq!(wrapped.opens(), 3);
    }

    #[test]
    fn same_seed_means_identical_fault_schedule_across_runs() {
        let plan = FaultPlan {
            seed: 0xDECAF,
            fail_opens: 1,
            transient_per_10k: 120,
            transient_budget: 8,
            ..FaultPlan::none()
        };
        let a = FaultyTraceSource::new(inner(), plan);
        let b = FaultyTraceSource::new(inner(), plan);
        let runs_a: Vec<Vec<String>> = (0..6).map(|_| schedule_of_open(&a)).collect();
        let runs_b: Vec<Vec<String>> = (0..6).map(|_| schedule_of_open(&b)).collect();
        assert_eq!(runs_a, runs_b, "same plan, same schedule");
        // The schedule is not degenerate: at least one injected fault and
        // at least one successful record beyond the failing open.
        assert!(a.faults_injected() > 1, "{}", a.faults_injected());
        assert!(runs_a.iter().flatten().any(|e| e.starts_with('r')));
        // Different opens draw different per-open schedules (retry can make
        // progress past an earlier fault location).
        assert!(
            runs_a[1..].iter().any(|r| r != &runs_a[1]),
            "per-open schedules should vary across opens"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            FaultyTraceSource::new(
                inner(),
                FaultPlan {
                    seed,
                    transient_per_10k: 200,
                    transient_budget: 100,
                    ..FaultPlan::none()
                },
            )
        };
        let a = mk(1);
        let b = mk(2);
        let runs_a: Vec<Vec<String>> = (0..4).map(|_| schedule_of_open(&a)).collect();
        let runs_b: Vec<Vec<String>> = (0..4).map(|_| schedule_of_open(&b)).collect();
        assert_ne!(runs_a, runs_b);
    }

    #[test]
    fn failed_opens_are_transient_then_clear() {
        let src = FaultyTraceSource::new(
            inner(),
            FaultPlan {
                fail_opens: 2,
                ..FaultPlan::none()
            },
        );
        for _ in 0..2 {
            let err = src.open().expect_err("injected open failure");
            assert!(err.is_transient(), "{err}");
        }
        assert_eq!(src.open().expect("third open clears").count(), 500);
        assert_eq!(src.faults_injected(), 2);
    }

    #[test]
    fn fatal_faults_fire_at_their_index_on_every_open() {
        let src = FaultyTraceSource::new(
            inner(),
            FaultPlan {
                corrupt_at: Some(3),
                ..FaultPlan::none()
            },
        );
        for _ in 0..2 {
            let mut it = src.open().expect("opens");
            for _ in 0..3 {
                assert!(it.next().expect("record").is_ok());
            }
            let err = it.next().expect("fault").expect_err("corrupt");
            assert!(!err.is_transient(), "{err}");
            assert!(matches!(err, TraceError::Parse { position: 4, .. }));
            assert!(it.next().is_none(), "fused after the fault");
        }

        let src = FaultyTraceSource::new(
            inner(),
            FaultPlan {
                truncate_at: Some(0),
                ..FaultPlan::none()
            },
        );
        let mut it = src.open().expect("opens");
        assert!(matches!(
            it.next(),
            Some(Err(TraceError::Truncated { position: 1 }))
        ));
    }

    #[test]
    fn transient_budget_bounds_total_injection() {
        let src = FaultyTraceSource::new(
            inner(),
            FaultPlan {
                seed: 9,
                transient_per_10k: 5_000, // every other record, roughly
                transient_budget: 3,
                ..FaultPlan::none()
            },
        );
        let mut injected = 0;
        // Far more opens than the budget: once it is spent, every open
        // replays the full inner stream cleanly.
        for _ in 0..20 {
            let events = schedule_of_open(&src);
            if events.iter().any(|e| e.starts_with("err")) {
                injected += 1;
            } else {
                assert_eq!(events.len(), 500);
            }
        }
        assert_eq!(injected, 3);
        assert_eq!(src.faults_injected(), 3);
    }
}
