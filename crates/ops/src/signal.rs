//! Minimal SIGINT latch for graceful `kmatch serve` shutdown.
//!
//! The workspace vendors no `libc` crate, so this module declares the one
//! symbol it needs — POSIX `signal(2)` — directly against the C library
//! `std` already links on Unix. The handler only stores into an
//! `AtomicBool` (async-signal-safe); the serve loop polls
//! [`sigint_received`] between waves. On non-Unix targets arming is a
//! no-op and the latch can still be tripped programmatically via
//! [`trip_shutdown`] (also how tests exercise the path).

use std::sync::atomic::{AtomicBool, Ordering};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::{Ordering, SHUTDOWN};

    const SIGINT: i32 = 2;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_signum: i32) {
        // Async-signal-safe: a single atomic store, nothing else.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn arm() {
        // SAFETY: `signal` is the POSIX C-library call; the handler is a
        // plain `extern "C"` fn that only performs an atomic store, which
        // is async-signal-safe. Installing it cannot violate memory
        // safety regardless of when the signal arrives.
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn arm() {}
}

/// Install the SIGINT handler (idempotent). After this, Ctrl-C trips the
/// shutdown latch instead of killing the process, letting the serve loop
/// finish its wave, stop the HTTP server, and exit cleanly.
pub fn arm_sigint() {
    imp::arm();
}

/// Whether SIGINT (or a programmatic [`trip_shutdown`]) was received.
pub fn sigint_received() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Trip the shutdown latch programmatically (tests, non-Unix fallbacks).
pub fn trip_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Reset the latch (tests only; production arms once per process).
pub fn reset_shutdown_for_tests() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not several: the latch is process-global state and the
    // test harness runs functions in parallel.
    #[test]
    fn latch_trips_resets_and_catches_a_real_sigint() {
        reset_shutdown_for_tests();
        assert!(!sigint_received());
        trip_shutdown();
        assert!(sigint_received());
        reset_shutdown_for_tests();
        assert!(!sigint_received());

        #[cfg(unix)]
        {
            // Raise a real SIGINT at ourselves through the C library and
            // confirm the handler latches instead of killing the process.
            extern "C" {
                fn raise(signum: i32) -> i32;
            }
            arm_sigint();
            arm_sigint(); // idempotent
                          // SAFETY: raising a signal we just installed a latching
                          // handler for; the handler is async-signal-safe.
            unsafe {
                raise(2);
            }
            // raise() runs the handler on this thread before returning.
            assert!(sigint_received());
            reset_shutdown_for_tests();
        }
    }
}
