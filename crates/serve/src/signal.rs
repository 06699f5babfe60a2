//! Minimal async-signal-safe SIGINT latching.
//!
//! The rest of the workspace forbids `unsafe`; this module is the single
//! exception, and the unsafety is two lines: declaring libc's `signal`
//! (std already links libc on every supported Unix) and registering a
//! handler whose body is one atomic store. Everything else — bridging the
//! latch to a [`dew_core::CancelToken`], drain timing, resume hints — is
//! ordinary safe code that *polls* [`hits`].
//!
//! Polling instead of relying on `EINTR` is deliberate: `signal(2)`
//! semantics around syscall restart differ across platforms, so the serve
//! accept loop and the CLI's batch sweep both run their own short-interval
//! polls and never depend on a blocking call being interrupted.
//!
//! On non-Unix targets [`install`] is a no-op and [`hits`] stays zero,
//! so callers need no `cfg` of their own (Ctrl-C then simply terminates
//! the process the default way).

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Once;

/// How many times SIGINT has been delivered since [`install`].
static HITS: AtomicU32 = AtomicU32::new(0);

static INSTALL: Once = Once::new();

#[cfg(unix)]
mod imp {
    use super::HITS;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_signum: i32) {
        // Async-signal-safe: a single atomic store, nothing else.
        HITS.fetch_add(1, Ordering::Relaxed);
    }

    pub fn install() {
        // SAFETY: `signal` is the libc function std itself links; the
        // handler does only an atomic increment, which is async-signal-
        // safe per POSIX.
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs the SIGINT latch (idempotent). After this, Ctrl-C no longer
/// kills the process; callers poll [`hits`] and shut down cooperatively.
pub fn install() {
    INSTALL.call_once(imp::install);
}

/// SIGINT deliveries since [`install`] (0 when never installed, or on
/// non-Unix targets). The first hit should trigger graceful shutdown; a
/// caller seeing ≥ 2 should treat it as "force quit now".
#[must_use]
pub fn hits() -> u32 {
    HITS.load(Ordering::Relaxed)
}

/// Test-only reset so independent tests see a clean counter.
#[cfg(test)]
pub(crate) fn reset_for_tests() {
    HITS.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard, PoisonError};

    /// Serialises the tests that touch the process-wide [`HITS`] counter:
    /// a reset racing a raise would hide the raised hit. A failed test
    /// poisons the lock, which must not fail the other one too.
    fn hits_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn starts_at_zero_and_install_is_idempotent() {
        let _hits = hits_lock();
        reset_for_tests();
        assert_eq!(hits(), 0);
        install();
        install();
        assert_eq!(hits(), 0, "installing must not count as a hit");
    }

    #[cfg(unix)]
    #[test]
    fn a_raised_sigint_is_latched_not_fatal() {
        // `raise` via the same extern mechanism; delivering SIGINT to
        // ourselves proves the handler is installed (otherwise the test
        // process would die here).
        extern "C" {
            fn raise(signum: i32) -> i32;
        }
        let _hits = hits_lock();
        install();
        let before = hits();
        // SAFETY: raise(SIGINT) delivers to this process; our handler is
        // installed and async-signal-safe.
        unsafe {
            raise(2);
        }
        // Delivery is synchronous for `raise` per POSIX.
        assert!(hits() > before, "handler latched the signal");
    }
}
