//! Resilience policy for long sweeps: retry/backoff parameters, injectable
//! sleeping (so tests never wait on a wall clock), and the combined
//! [`Resilience`] configuration the sweep driver in [`crate::sweep`]
//! consumes — checkpointing, resume, and the fail-fast/degraded-mode
//! switch.

use std::time::Duration;

use crate::cancel::CancelToken;
use crate::checkpoint::{CheckpointStore, SweepCheckpoint};

/// Bounded exponential backoff for transient trace-source failures.
///
/// Attempt `n` (1-based) sleeps `base_delay * 2^(n-1)`, capped at
/// `max_delay`; after `max_retries` consecutive failed attempts *without
/// progress* the job fails. The attempt counter resets whenever the job
/// advances past the position of the previous fault, so a long stream with
/// occasional transient faults is not bounded by `max_retries` overall —
/// only stalls are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Consecutive no-progress retries before the job gives up.
    pub max_retries: u32,
    /// Backoff of the first retry.
    pub base_delay: Duration,
    /// Upper clamp for the exponential backoff.
    pub max_delay: Duration,
}

impl RetryPolicy {
    /// Disables retrying: the first transient failure fails the job.
    #[must_use]
    pub const fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// The backoff before 1-based `attempt`: `base * 2^(attempt-1)`,
    /// saturating, clamped to `max_delay`.
    #[must_use]
    pub fn delay(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt.saturating_sub(1)).unwrap_or(0);
        let raw = if factor == 0 {
            self.max_delay
        } else {
            self.base_delay.saturating_mul(factor)
        };
        raw.min(self.max_delay)
    }
}

impl Default for RetryPolicy {
    /// Four retries, 10 ms initial backoff, 1 s cap.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(1),
        }
    }
}

/// How a sweep waits out a retry backoff. Injectable so tests drive the
/// retry path without wall-clock sleeps.
pub trait Sleeper: Sync {
    /// Blocks the calling worker for (about) `d`.
    fn sleep(&self, d: Duration);
}

/// The production [`Sleeper`]: [`std::thread::sleep`].
#[derive(Debug, Default, Clone, Copy)]
pub struct ThreadSleeper;

impl Sleeper for ThreadSleeper {
    fn sleep(&self, d: Duration) {
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// A no-op [`Sleeper`] for tests: backoff is requested but never waited.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoSleep;

impl Sleeper for NoSleep {
    fn sleep(&self, _d: Duration) {}
}

/// Periodic checkpointing: where to persist and how often.
#[derive(Clone, Copy)]
pub struct CheckpointSpec<'a> {
    /// Save a checkpoint every `every` records of per-job progress.
    pub every: u64,
    /// Destination of the serialised [`SweepCheckpoint`] images.
    pub store: &'a dyn CheckpointStore,
}

impl std::fmt::Debug for CheckpointSpec<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointSpec")
            .field("every", &self.every)
            .finish_non_exhaustive()
    }
}

/// The full resilience configuration of a fault-tolerant sweep.
///
/// The default is "resilient but quiet": retry transient source failures
/// with [`RetryPolicy::default`], keep going when individual jobs fail
/// (degraded mode), no checkpointing, real sleeping. Builder methods opt
/// into the rest.
pub struct Resilience<'a> {
    /// Retry/backoff behaviour for transient trace-source failures.
    pub retry: RetryPolicy,
    /// `true` aborts the whole sweep on the first job failure; `false`
    /// (default) returns partial results with honest failure accounting.
    pub fail_fast: bool,
    /// Periodic checkpointing, when enabled.
    pub checkpoint: Option<CheckpointSpec<'a>>,
    /// Resume from this previously captured checkpoint.
    pub resume: Option<&'a SweepCheckpoint>,
    /// Cooperative cancellation (explicit or deadline-driven), polled at
    /// chunk boundaries. A cancelled job flushes a final checkpoint before
    /// stopping, so the sweep stays resumable.
    pub cancel: Option<&'a CancelToken>,
    /// How retry backoff waits. Tests inject [`NoSleep`].
    pub sleeper: &'a dyn Sleeper,
}

impl Resilience<'static> {
    /// The fixed plan of a sweep requested without
    /// [`crate::SweepRequest::resilient`]: no retries, fail-fast (the first
    /// job failure is the sweep's error), no checkpoint, no resume and no
    /// cancel token.
    pub(crate) const PLAIN: Resilience<'static> = Resilience {
        retry: RetryPolicy::none(),
        fail_fast: true,
        checkpoint: None,
        resume: None,
        cancel: None,
        sleeper: &NoSleep,
    };

    /// The default configuration (see the type docs).
    #[must_use]
    pub fn new() -> Self {
        Resilience {
            retry: RetryPolicy::default(),
            fail_fast: false,
            checkpoint: None,
            resume: None,
            cancel: None,
            sleeper: &ThreadSleeper,
        }
    }
}

impl Default for Resilience<'static> {
    fn default() -> Self {
        Resilience::new()
    }
}

impl<'a> Resilience<'a> {
    /// Replaces the retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Sets the fail-fast/degraded switch.
    #[must_use]
    pub fn fail_fast(mut self, on: bool) -> Self {
        self.fail_fast = on;
        self
    }

    /// Enables periodic checkpointing every `every` records into `store`.
    /// The sweep saves from a writer thread of its own, so a slow store
    /// does not stall the workers (see [`CheckpointStore`]).
    #[must_use]
    pub fn with_checkpoint<'b>(self, every: u64, store: &'b dyn CheckpointStore) -> Resilience<'b>
    where
        'a: 'b,
    {
        Resilience {
            checkpoint: Some(CheckpointSpec { every, store }),
            ..self
        }
    }

    /// Resumes from `ckpt` instead of a cold start.
    #[must_use]
    pub fn resume_from<'b>(self, ckpt: &'b SweepCheckpoint) -> Resilience<'b>
    where
        'a: 'b,
    {
        Resilience {
            resume: Some(ckpt),
            ..self
        }
    }

    /// Attaches a cancellation token. The sweep driver polls it at
    /// chunk boundaries; once it fires, every in-flight job saves a final
    /// checkpoint (when checkpointing is on) and the sweep returns a
    /// degraded partial outcome whose failed jobs carry
    /// [`crate::FailureKind::Cancelled`].
    #[must_use]
    pub fn with_cancel<'b>(self, cancel: &'b CancelToken) -> Resilience<'b>
    where
        'a: 'b,
    {
        Resilience {
            cancel: Some(cancel),
            ..self
        }
    }

    /// Replaces the sleeper (tests: [`NoSleep`] or a recording fake).
    #[must_use]
    pub fn with_sleeper<'b>(self, sleeper: &'b dyn Sleeper) -> Resilience<'b>
    where
        'a: 'b,
    {
        Resilience { sleeper, ..self }
    }
}

impl std::fmt::Debug for Resilience<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Resilience")
            .field("retry", &self.retry)
            .field("fail_fast", &self.fail_fast)
            .field("checkpoint", &self.checkpoint)
            .field("resume", &self.resume.map(|c| c.fingerprint()))
            .field("cancel", &self.cancel.map(|t| t.cancelled()))
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_then_clamps() {
        let retry = RetryPolicy {
            max_retries: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(70),
        };
        assert_eq!(retry.delay(1), Duration::from_millis(10));
        assert_eq!(retry.delay(2), Duration::from_millis(20));
        assert_eq!(retry.delay(3), Duration::from_millis(40));
        assert_eq!(retry.delay(4), Duration::from_millis(70), "clamped");
        assert_eq!(retry.delay(40), Duration::from_millis(70), "shift overflow");
    }

    #[test]
    fn none_never_sleeps() {
        let retry = RetryPolicy::none();
        assert_eq!(retry.max_retries, 0);
        assert_eq!(retry.delay(1), Duration::ZERO);
    }

    #[test]
    fn builder_composes() {
        let store = crate::checkpoint::MemoryCheckpointStore::new();
        let res = Resilience::new()
            .with_retry(RetryPolicy::none())
            .fail_fast(true)
            .with_checkpoint(1_000, &store)
            .with_sleeper(&NoSleep);
        assert!(res.fail_fast);
        assert_eq!(res.retry, RetryPolicy::none());
        assert_eq!(res.checkpoint.expect("spec").every, 1_000);
        assert!(!format!("{res:?}").is_empty());
    }
}
