//! Rate limiting for producing loops.
//!
//! The paper's edge data sources emit messages at a configurable rate; the
//! baseline experiments run "as fast as the pipeline drains" while dynamism
//! experiments use seasonal load patterns. [`RateLimiter`] supports both: a
//! target rate (messages/second) paced against wall-clock time, or
//! unlimited.

use std::time::{Duration, Instant};

/// Paces a loop at a target rate, absorbing jitter by tracking the ideal
/// schedule rather than sleeping a fixed interval (so a slow iteration is
/// followed by faster ones until the schedule catches up). A caller that
/// must not block (a reactor task) reads [`RateLimiter::next_due`], parks
/// on it itself, and accounts with [`RateLimiter::record`].
#[derive(Debug)]
pub struct RateLimiter {
    interval: Option<Duration>,
    start: Instant,
    emitted: u64,
}

impl RateLimiter {
    /// A limiter emitting `rate_per_sec` messages per second. A rate of 0 or
    /// a non-finite rate means unlimited.
    pub fn new(rate_per_sec: f64) -> Self {
        let interval = if rate_per_sec.is_finite() && rate_per_sec > 0.0 {
            Some(Duration::from_secs_f64(1.0 / rate_per_sec))
        } else {
            None
        };
        Self {
            interval,
            start: Instant::now(),
            emitted: 0,
        }
    }

    /// An unlimited limiter ([`RateLimiter::pace`] never sleeps).
    pub fn unlimited() -> Self {
        Self::new(0.0)
    }

    /// When the next emission slot opens: `start + interval × emitted`,
    /// computed at full width so the schedule does not restart after 2^32
    /// emissions. Unlimited limiters are always due (at `start`).
    pub fn next_due(&self) -> Instant {
        let Some(interval) = self.interval else {
            return self.start;
        };
        const NANOS: u128 = 1_000_000_000;
        let nanos = interval.as_nanos().saturating_mul(u128::from(self.emitted));
        let offset = Duration::new(
            u64::try_from(nanos / NANOS).unwrap_or(u64::MAX),
            (nanos % NANOS) as u32,
        );
        self.start + offset
    }

    /// Account for one emission without waiting for its slot.
    pub fn record(&mut self) {
        self.emitted += 1;
    }

    /// Block until the next emission slot, then account for it.
    pub fn pace(&mut self) {
        let due = self.next_due();
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        self.record();
    }

    /// Messages emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_sleeps() {
        let mut rl = RateLimiter::unlimited();
        let start = Instant::now();
        for _ in 0..10_000 {
            rl.pace();
        }
        assert!(start.elapsed() < Duration::from_millis(100));
        assert_eq!(rl.emitted(), 10_000);
    }

    #[test]
    fn paces_to_target_rate() {
        let mut rl = RateLimiter::new(200.0); // 5 ms interval
        let start = Instant::now();
        for _ in 0..20 {
            rl.pace();
        }
        let secs = start.elapsed().as_secs_f64();
        // 20 messages at 200/s should take ~95 ms (first is immediate).
        assert!(secs >= 0.09, "secs={secs}");
        assert!(secs < 0.5, "secs={secs}");
    }

    #[test]
    fn catches_up_after_slow_iteration() {
        let mut rl = RateLimiter::new(100.0); // 10 ms interval
        rl.pace();
        std::thread::sleep(Duration::from_millis(50)); // fall behind
        let t = Instant::now();
        for _ in 0..4 {
            rl.pace(); // all 4 are already due → no sleeping
        }
        assert!(t.elapsed() < Duration::from_millis(20));
    }

    #[test]
    fn schedule_does_not_wrap_after_2_pow_32_emissions() {
        // Slot 2^32 + 1 of a 1 ms schedule is 2^32 + 1 ms past the start,
        // not 1 ms (where a 32-bit multiplier would put it).
        let mut rl = RateLimiter::new(1000.0);
        rl.emitted = (1 << 32) + 1;
        let offset = rl.next_due() - rl.start;
        assert_eq!(offset, Duration::from_millis((1 << 32) + 1));
        rl.record();
        assert_eq!(
            rl.next_due() - rl.start,
            Duration::from_millis((1 << 32) + 2)
        );
    }

    #[test]
    fn unlimited_is_always_due() {
        let mut rl = RateLimiter::unlimited();
        rl.emitted = (1 << 32) + 1;
        assert_eq!(rl.next_due(), rl.start);
    }

    #[test]
    fn zero_and_nan_rates_are_unlimited() {
        assert!(RateLimiter::new(0.0).interval.is_none());
        assert!(RateLimiter::new(f64::NAN).interval.is_none());
        assert!(RateLimiter::new(f64::INFINITY).interval.is_none());
    }
}
