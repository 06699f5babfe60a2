//! Cooperative cancellation for long-running sweeps.
//!
//! A [`CancelToken`] is a cheap, cloneable handle shared between the party
//! running a sweep and any party that may want to stop it early — a service
//! enforcing a per-job wall-clock deadline, a `cancel` request from a
//! client, or a SIGINT handler in the batch CLI. A resilient sweep
//! ([`crate::SweepRequest::resilient`]) polls the token at chunk
//! boundaries via [`Resilience::with_cancel`](crate::Resilience::with_cancel);
//! on cancellation every in-flight job **flushes a final checkpoint** (when
//! checkpointing is enabled) and stops, so a cancelled sweep is always
//! resumable from exactly where it was interrupted.
//!
//! Cancellation is *cooperative*: nothing is interrupted mid-record, and
//! the chunk in flight (a few thousand records at most) finishes before the
//! job winds down. That bounded lag is what makes the final checkpoint
//! consistent.
//!
//! # Examples
//!
//! ```
//! use dew_core::{CancelReason, CancelToken};
//! use std::time::Duration;
//!
//! // Explicit cancellation.
//! let token = CancelToken::new();
//! assert!(token.cancelled().is_none());
//! token.cancel();
//! assert_eq!(token.cancelled(), Some(CancelReason::Requested));
//!
//! // A deadline that has already passed cancels immediately.
//! let token = CancelToken::with_deadline(Duration::ZERO);
//! assert_eq!(token.cancelled(), Some(CancelReason::DeadlineExceeded));
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a [`CancelToken`] fired.
///
/// An explicit [`CancelToken::cancel`] wins over an expired deadline: once a
/// caller has asked for cancellation, that is the reason reported even if
/// the deadline lapses while the sweep winds down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// [`CancelToken::cancel`] was called (client request, SIGINT, drain).
    Requested,
    /// The wall-clock deadline of [`CancelToken::with_deadline`] passed.
    DeadlineExceeded,
}

impl std::fmt::Display for CancelReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CancelReason::Requested => write!(f, "cancelled"),
            CancelReason::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

struct Inner {
    requested: AtomicBool,
    deadline: Option<Instant>,
}

/// A cloneable cancellation handle; all clones observe the same state.
///
/// The module docs above spell out the contract the sweep drivers uphold:
/// cooperative cuts at chunk boundaries, a final checkpoint flush, and a
/// partial (never silently wrong) outcome.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token with no deadline; fires only via [`CancelToken::cancel`].
    #[must_use]
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                requested: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that fires on its own once `timeout` has elapsed (measured
    /// from now, on the monotonic clock), and earlier if
    /// [`CancelToken::cancel`] is called.
    #[must_use]
    pub fn with_deadline(timeout: Duration) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                requested: AtomicBool::new(false),
                deadline: Some(Instant::now() + timeout),
            }),
        }
    }

    /// Requests cancellation. Idempotent; never blocks. Safe to call from
    /// any thread (the batch CLI calls it from a SIGINT watcher).
    pub fn cancel(&self) {
        self.inner.requested.store(true, Ordering::Release);
    }

    /// Whether the token has fired, and why. `None` while the sweep should
    /// keep running. Cheap enough to poll every few thousand records.
    #[must_use]
    pub fn cancelled(&self) -> Option<CancelReason> {
        if self.inner.requested.load(Ordering::Acquire) {
            return Some(CancelReason::Requested);
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => Some(CancelReason::DeadlineExceeded),
            _ => None,
        }
    }

    /// The absolute deadline, when one was set.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.cancelled())
            .field("deadline", &self.inner.deadline)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(b.cancelled().is_none());
        a.cancel();
        assert_eq!(b.cancelled(), Some(CancelReason::Requested));
        // Idempotent.
        b.cancel();
        assert_eq!(a.cancelled(), Some(CancelReason::Requested));
    }

    #[test]
    fn deadline_fires_and_explicit_cancel_wins() {
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(far.cancelled().is_none());
        assert!(far.deadline().is_some());

        let past = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(past.cancelled(), Some(CancelReason::DeadlineExceeded));

        // Requested takes precedence over an expired deadline.
        past.cancel();
        assert_eq!(past.cancelled(), Some(CancelReason::Requested));
    }

    #[test]
    fn debug_and_default() {
        let t = CancelToken::default();
        assert!(format!("{t:?}").contains("cancelled"));
        assert_eq!(CancelReason::Requested.to_string(), "cancelled");
        assert_eq!(
            CancelReason::DeadlineExceeded.to_string(),
            "deadline exceeded"
        );
    }
}
