//! Arrival-rate patterns: the dynamism the paper designs for.
//!
//! "Pilot-Edge ... enables the effective handling of heterogeneous and
//! dynamic workloads arising in IoT environments (e.g., seasonal peak
//! loads, failures and other external events)" (Section I) and applications
//! must "respond to dynamism, e.g., external events, load peaks" (ibid.).
//! A [`RatePattern`] describes how a device's message rate evolves over the
//! run; [`PatternedRate`] turns it into a pacing loop compatible with
//! [`crate::RateLimiter`]'s usage.

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// How a device's message rate (messages/second) evolves over time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RatePattern {
    /// Fixed rate forever.
    Constant { rate: f64 },
    /// A burst: `base` rate, jumping to `burst` within `[start, start+len)`.
    /// Models a discrete external event (e.g. "the discovery of a
    /// significant data pattern").
    Burst {
        base: f64,
        burst: f64,
        start: Duration,
        len: Duration,
    },
    /// A step change at `at`: `before` → `after` (e.g. a sensor firmware
    /// update doubling the sampling rate).
    Step {
        before: f64,
        after: f64,
        at: Duration,
    },
}

impl RatePattern {
    /// The instantaneous rate at `elapsed` since the stream started.
    pub fn rate_at(&self, elapsed: Duration) -> f64 {
        match *self {
            RatePattern::Constant { rate } => rate,
            RatePattern::Burst {
                base,
                burst,
                start,
                len,
            } => {
                if elapsed >= start && elapsed < start + len {
                    burst
                } else {
                    base
                }
            }
            RatePattern::Step { before, after, at } => {
                if elapsed < at {
                    before
                } else {
                    after
                }
            }
        }
    }

    /// Peak rate over the pattern's lifetime (for capacity planning).
    pub fn peak_rate(&self) -> f64 {
        match *self {
            RatePattern::Constant { rate } => rate,
            RatePattern::Burst { base, burst, .. } => base.max(burst),
            RatePattern::Step { before, after, .. } => before.max(after),
        }
    }
}

/// Paces a producing loop according to a [`RatePattern`], integrating the
/// pattern so the *cumulative* message count tracks `∫rate·dt` (a burst
/// therefore emits its full volume even if individual iterations jitter).
#[derive(Debug)]
pub struct PatternedRate {
    pattern: RatePattern,
    start: Instant,
    emitted: u64,
}

impl PatternedRate {
    /// Start pacing now.
    pub fn new(pattern: RatePattern) -> Self {
        Self {
            pattern,
            start: Instant::now(),
            emitted: 0,
        }
    }

    /// Cumulative messages the pattern calls for by `elapsed`, approximated
    /// by 10 ms trapezoidal integration.
    fn due_by(&self, elapsed: Duration) -> f64 {
        const STEP: f64 = 0.01;
        let total = elapsed.as_secs_f64();
        let mut t = 0.0;
        let mut acc = 0.0;
        while t < total {
            let dt = STEP.min(total - t);
            let r0 = self.pattern.rate_at(Duration::from_secs_f64(t));
            let r1 = self.pattern.rate_at(Duration::from_secs_f64(t + dt));
            acc += (r0 + r1) / 2.0 * dt;
            t += dt;
        }
        acc
    }

    /// Block until the next message is due, then account for it.
    pub fn pace(&mut self) {
        loop {
            let due = self.due_by(self.start.elapsed());
            if due >= (self.emitted + 1) as f64 {
                self.emitted += 1;
                return;
            }
            // Sleep proportionally to the current rate (bounded for
            // responsiveness to bursts).
            let rate = self.pattern.rate_at(self.start.elapsed()).max(1e-3);
            let sleep = Duration::from_secs_f64((1.0 / rate).min(0.02));
            std::thread::sleep(sleep);
        }
    }

    /// Messages emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// The pattern being followed.
    pub fn pattern(&self) -> &RatePattern {
        &self.pattern
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_is_flat() {
        let p = RatePattern::Constant { rate: 50.0 };
        assert_eq!(p.rate_at(Duration::ZERO), 50.0);
        assert_eq!(p.rate_at(Duration::from_secs(100)), 50.0);
        assert_eq!(p.peak_rate(), 50.0);
    }

    #[test]
    fn burst_window() {
        let p = RatePattern::Burst {
            base: 5.0,
            burst: 500.0,
            start: Duration::from_secs(1),
            len: Duration::from_secs(2),
        };
        assert_eq!(p.rate_at(Duration::from_millis(500)), 5.0);
        assert_eq!(p.rate_at(Duration::from_millis(1500)), 500.0);
        assert_eq!(p.rate_at(Duration::from_millis(3500)), 5.0);
        assert_eq!(p.peak_rate(), 500.0);
    }

    #[test]
    fn step_change() {
        let p = RatePattern::Step {
            before: 10.0,
            after: 40.0,
            at: Duration::from_secs(2),
        };
        assert_eq!(p.rate_at(Duration::from_secs(1)), 10.0);
        assert_eq!(p.rate_at(Duration::from_secs(2)), 40.0);
    }

    #[test]
    fn patterned_pacing_tracks_integral() {
        // 200 msg/s constant for ~150 ms → ~30 messages.
        let mut pr = PatternedRate::new(RatePattern::Constant { rate: 200.0 });
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(150) {
            pr.pace();
        }
        let n = pr.emitted();
        assert!((25..=40).contains(&(n as usize)), "emitted {n}");
    }

    #[test]
    fn burst_emits_full_volume() {
        // base 20/s with a 100 ms burst at 400/s starting at 50 ms:
        // by 200 ms the integral is 20*0.2 + 380*0.1 ≈ 42.
        let mut pr = PatternedRate::new(RatePattern::Burst {
            base: 20.0,
            burst: 400.0,
            start: Duration::from_millis(50),
            len: Duration::from_millis(100),
        });
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(220) {
            pr.pace();
        }
        let n = pr.emitted();
        assert!((30..=55).contains(&(n as usize)), "emitted {n}");
    }
}
