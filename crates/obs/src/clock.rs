//! Wall-clock / virtual-time source shared by spans and events.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

struct ClockInner {
    /// Wall-clock origin; `now_ns` in wall mode is nanoseconds since this.
    origin: Instant,
    /// When true, `now_ns` reads `virtual_ns` instead of the wall clock.
    use_virtual: AtomicBool,
    /// Current virtual time in nanoseconds (e.g. `SimTime::as_nanos()`).
    virtual_ns: AtomicU64,
}

/// A monotonic time source that reads either the process wall clock or a
/// caller-advanced virtual clock (for discrete-event simulations driven
/// by `lsdf-sim`).
///
/// Clones share the same underlying state, so a clock handed to a span
/// sees later `set_virtual_ns` updates.
#[derive(Clone)]
pub struct Clock {
    inner: Arc<ClockInner>,
}

impl Clock {
    /// A clock in wall mode, with its origin at the moment of creation.
    pub fn new() -> Self {
        Clock {
            inner: Arc::new(ClockInner {
                origin: Instant::now(),
                use_virtual: AtomicBool::new(false),
                virtual_ns: AtomicU64::new(0),
            }),
        }
    }

    /// Current time in nanoseconds: since the origin in wall mode, or the
    /// last value passed to [`Clock::set_virtual_ns`] in virtual mode.
    pub fn now_ns(&self) -> u64 {
        if self.inner.use_virtual.load(Ordering::Relaxed) {
            self.inner.virtual_ns.load(Ordering::Relaxed)
        } else {
            self.inner.origin.elapsed().as_nanos() as u64
        }
    }

    /// Switches the clock to virtual mode and advances it to `ns`
    /// (monotonically — a smaller value than the current virtual time is
    /// ignored, so concurrent advancers cannot move time backwards).
    pub fn set_virtual_ns(&self, ns: u64) {
        self.inner.virtual_ns.fetch_max(ns, Ordering::Relaxed);
        self.inner.use_virtual.store(true, Ordering::Relaxed);
    }

    /// True when the clock reads virtual time.
    pub fn is_virtual(&self) -> bool {
        self.inner.use_virtual.load(Ordering::Relaxed)
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Clock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Clock")
            .field("virtual", &self.is_virtual())
            .field("now_ns", &self.now_ns())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_mode_advances() {
        let c = Clock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
        assert!(!c.is_virtual());
    }

    #[test]
    fn virtual_mode_is_explicit_and_monotonic() {
        let c = Clock::new();
        c.set_virtual_ns(1_000);
        assert!(c.is_virtual());
        assert_eq!(c.now_ns(), 1_000);
        c.set_virtual_ns(500); // ignored: time never moves backwards
        assert_eq!(c.now_ns(), 1_000);
        c.set_virtual_ns(2_000);
        assert_eq!(c.now_ns(), 2_000);
    }

    #[test]
    fn clones_share_state() {
        let c = Clock::new();
        let d = c.clone();
        c.set_virtual_ns(42);
        assert_eq!(d.now_ns(), 42);
    }
}
