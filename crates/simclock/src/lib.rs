//! Virtual time for the DirectLoad simulators.
//!
//! Every component of the reproduction (the SSD device model, the WAN
//! simulator, the storage engines) advances a shared [`SimClock`] instead of
//! reading wall-clock time. This makes each figure in the paper's evaluation
//! a deterministic function of the workload and the model parameters.
//!
//! Time is measured in integer nanoseconds ([`SimTime`]); helper
//! constructors cover the units the paper uses (microseconds for read
//! latency, minutes for the throughput series, days for the update cycle).

mod stats;
mod time;

pub use stats::{percentile, SeriesStats};
pub use time::SimTime;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically advancing virtual clock.
///
/// The clock is cheap to clone (it is an `Arc` of an atomic counter) so a
/// single instance can be threaded through a device model, an engine, and a
/// workload driver. Advancing and reading are lock-free.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now_ns: Arc<AtomicU64>,
}

impl SimClock {
    /// Creates a clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns.load(Ordering::Acquire))
    }

    /// Advances the clock by `delta` and returns the new time.
    ///
    /// Concurrent advances accumulate; this models independent components
    /// each charging their own latency to shared time.
    pub fn advance(&self, delta: SimTime) -> SimTime {
        let new = self
            .now_ns
            .fetch_add(delta.as_nanos(), Ordering::AcqRel)
            .wrapping_add(delta.as_nanos());
        SimTime::from_nanos(new)
    }

    /// Moves the clock forward to `target` if it is currently behind it.
    ///
    /// Used by discrete-event loops that jump to the next event timestamp.
    /// Returns the (possibly unchanged) current time.
    pub fn advance_to(&self, target: SimTime) -> SimTime {
        let t = target.as_nanos();
        let mut cur = self.now_ns.load(Ordering::Acquire);
        while cur < t {
            match self
                .now_ns
                .compare_exchange_weak(cur, t, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return target,
                Err(actual) => cur = actual,
            }
        }
        SimTime::from_nanos(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero() {
        let c = SimClock::new();
        assert_eq!(c.now(), SimTime::ZERO);
    }

    #[test]
    fn advance_accumulates() {
        let c = SimClock::new();
        c.advance(SimTime::from_micros(5));
        c.advance(SimTime::from_micros(7));
        assert_eq!(c.now(), SimTime::from_micros(12));
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let c = SimClock::new();
        c.advance(SimTime::from_millis(10));
        let t = c.advance_to(SimTime::from_millis(3));
        assert_eq!(t, SimTime::from_millis(10));
        let t = c.advance_to(SimTime::from_millis(30));
        assert_eq!(t, SimTime::from_millis(30));
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(SimTime::from_secs(1));
        assert_eq!(b.now(), SimTime::from_secs(1));
    }

    #[test]
    fn concurrent_advances_sum() {
        let c = SimClock::new();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.advance(SimTime::from_nanos(3));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.now(), SimTime::from_nanos(8 * 1000 * 3));
    }
}
