//! The simulated link: latency + bandwidth + queueing.
//!
//! A [`Link`] models a single shared pipe between two sites. Each transfer
//! pays:
//!
//! 1. **queueing** — if earlier transfers have reserved the pipe, the new
//!    transfer waits until the pipe frees up (FIFO reservation);
//! 2. **transit** — serialization delay: `bytes ÷ bandwidth`, with the
//!    bandwidth sampled per transfer from `[bw_min, bw_max]` to reproduce the
//!    paper's fluctuating 60–100 Mbit/s measurement;
//! 3. **propagation** — a latency sample from the link's [`Delay`] model.
//!    Propagation overlaps for concurrent transfers (it is not capacity), so
//!    it is added after the reservation, per transfer.
//!
//! [`Link::transfer`] *actually blocks* the calling thread for the simulated
//! total, so pipelines built on the simulator experience real backpressure —
//! which is what makes the throughput crossovers of Fig. 3 emerge rather
//! than being computed.
//!
//! For pipelined transports, [`Link::reserve`] splits a transfer into a
//! non-blocking **reservation** (which charges the FIFO capacity horizon
//! immediately and fixes the completion deadline) and a separate
//! [`Reservation::wait`]. A sender can therefore overlap encoding or
//! processing with in-flight transfers while the link still applies exact
//! queueing/backpressure. [`Link::reserve_batch`] additionally amortizes
//! propagation: a batch pays transit for the summed bytes but propagation
//! only once — the simulated equivalent of Kafka's `linger.ms`/`batch.size`
//! producer batching.

use crate::delay::Delay;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Static description of a link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Human-readable name, used in metric span labels (`net:<name>`).
    pub name: String,
    /// One-way propagation latency model. Note: the paper reports 140–160 ms
    /// as a ping RTT; one-way delivery latency is modelled as RTT/2 (see
    /// [`crate::profiles::transatlantic`]).
    pub latency: Delay,
    /// Minimum bandwidth in bits per second.
    pub bw_min_bps: f64,
    /// Maximum bandwidth in bits per second. Sampled uniformly per transfer.
    pub bw_max_bps: f64,
    /// RNG seed so experiments are reproducible.
    pub seed: u64,
}

impl LinkSpec {
    /// A link with fixed bandwidth and a fixed latency.
    pub fn fixed(name: &str, latency_ms: f64, bw_bps: f64) -> Self {
        Self {
            name: name.to_string(),
            latency: if latency_ms == 0.0 {
                Delay::None
            } else {
                Delay::FixedMs(latency_ms)
            },
            bw_min_bps: bw_bps,
            bw_max_bps: bw_bps,
            seed: 0,
        }
    }

    /// Build the shareable runtime link.
    pub fn build(self) -> Link {
        Link::new(self)
    }

    /// Mean time for a transfer of `bytes` with no contention, in seconds.
    pub fn expected_secs(&self, bytes: u64) -> f64 {
        let bw = (self.bw_min_bps + self.bw_max_bps) / 2.0;
        let transit = if bw > 0.0 {
            (bytes as f64 * 8.0) / bw
        } else {
            0.0
        };
        transit + self.latency.mean_ms() / 1e3
    }

    /// The link's bandwidth-delay product in bytes: mean bandwidth ×
    /// (mean propagation + `extra`) — what a sender must keep in flight to
    /// fill the pipe when each send also waits `extra` (a linger window)
    /// before it leaves. A link without a finite positive bandwidth never
    /// fills, so its budget is unbounded (`u64::MAX`).
    pub fn bdp_bytes(&self, extra: Duration) -> u64 {
        let bw = (self.bw_min_bps + self.bw_max_bps) / 2.0;
        if !(bw.is_finite() && bw > 0.0) {
            return u64::MAX;
        }
        let secs = self.latency.mean_ms() / 1e3 + extra.as_secs_f64();
        (bw / 8.0 * secs).round() as u64
    }
}

/// What one transfer actually cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferReceipt {
    /// Time spent waiting for earlier transfers to release the pipe.
    pub queueing: Duration,
    /// Serialization time: bytes ÷ sampled bandwidth.
    pub transit: Duration,
    /// Propagation latency sample.
    pub propagation: Duration,
}

impl TransferReceipt {
    /// Total simulated transfer duration.
    pub fn total(&self) -> Duration {
        self.queueing + self.transit + self.propagation
    }
}

struct LinkState {
    /// FIFO reservation horizon: the instant at which the pipe frees up.
    next_free: Instant,
    rng: StdRng,
    /// Cumulative transit time reserved on the pipe since creation, µs.
    /// (Capacity actually consumed — the link's busy-time integral.)
    busy_us: u64,
    /// Reservations issued since creation (transfers + estimates excluded).
    reservations: u64,
}

/// A non-blocking claim on link capacity: the transfer's place in the FIFO
/// queue and its completion deadline are fixed at [`Link::reserve`] time;
/// the caller decides when (and whether) to block via [`Reservation::wait`].
///
/// Dropping a reservation without waiting does **not** release the reserved
/// capacity — the bytes were committed to the pipe, exactly as a real NIC
/// send queue would have accepted them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reservation {
    /// Time the transfer spends queued behind earlier reservations.
    pub queueing: Duration,
    /// Serialization time: bytes ÷ sampled bandwidth.
    pub transit: Duration,
    /// Propagation latency sample (once per reservation).
    pub propagation: Duration,
    /// Wall-clock instant at which the transfer completes (delivery).
    deadline: Instant,
}

impl Reservation {
    /// The instant the transfer completes (queueing + transit + propagation
    /// past the reservation call).
    pub fn deadline(&self) -> Instant {
        self.deadline
    }

    /// Whether the simulated transfer has already completed.
    pub fn is_complete(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// The receipt this reservation resolves to.
    pub fn receipt(&self) -> TransferReceipt {
        TransferReceipt {
            queueing: self.queueing,
            transit: self.transit,
            propagation: self.propagation,
        }
    }

    /// Block until the transfer completes. Work done between `reserve` and
    /// `wait` overlaps with the simulated flight time — only the remainder
    /// is slept off.
    pub fn wait(self) -> TransferReceipt {
        let now = Instant::now();
        if self.deadline > now {
            std::thread::sleep(self.deadline - now);
        }
        self.receipt()
    }
}

/// # Example
///
/// ```
/// use pilot_netsim::profiles;
///
/// // The paper's measured transatlantic path: 70-80 ms one-way,
/// // 60-100 Mbit/s.
/// let link = profiles::transatlantic("us->eu", 7).build();
/// let receipt = link.transfer(250_000); // one 250 KB message
/// assert!(receipt.propagation.as_millis() >= 70);
/// assert!(receipt.transit.as_millis() >= 20); // >= 2 Mbit / 100 Mbit/s
/// ```
/// A shared, thread-safe simulated link. Clone handles freely.
#[derive(Clone)]
pub struct Link {
    spec: Arc<LinkSpec>,
    state: Arc<Mutex<LinkState>>,
}

impl Link {
    /// Create a link from its spec.
    pub fn new(spec: LinkSpec) -> Self {
        let rng = StdRng::seed_from_u64(spec.seed ^ 0x9E37_79B9_7F4A_7C15);
        Self {
            spec: Arc::new(spec),
            state: Arc::new(Mutex::new(LinkState {
                next_free: Instant::now(),
                rng,
                busy_us: 0,
                reservations: 0,
            })),
        }
    }

    /// A zero-cost loopback link (no latency, effectively infinite bandwidth).
    pub fn loopback() -> Self {
        Link::new(LinkSpec {
            name: "loopback".to_string(),
            latency: Delay::None,
            bw_min_bps: f64::INFINITY,
            bw_max_bps: f64::INFINITY,
            seed: 0,
        })
    }

    /// The link's spec.
    pub fn spec(&self) -> &LinkSpec {
        &self.spec
    }

    /// The link's name (used in metric labels).
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Compute the cost of transferring `bytes` **without** blocking or
    /// reserving capacity. Queueing is reported as zero.
    pub fn estimate(&self, bytes: u64) -> TransferReceipt {
        let mut st = self.state.lock();
        let (transit, propagation) = self.sample_costs(bytes, &mut st.rng);
        TransferReceipt {
            queueing: Duration::ZERO,
            transit,
            propagation,
        }
    }

    fn sample_costs(&self, bytes: u64, rng: &mut StdRng) -> (Duration, Duration) {
        let bw = if self.spec.bw_max_bps <= self.spec.bw_min_bps {
            self.spec.bw_min_bps
        } else {
            rng.random_range(self.spec.bw_min_bps..=self.spec.bw_max_bps)
        };
        let transit = if bw.is_finite() && bw > 0.0 {
            Duration::from_secs_f64(bytes as f64 * 8.0 / bw)
        } else {
            Duration::ZERO
        };
        let propagation = self.spec.latency.sample(rng);
        (transit, propagation)
    }

    /// Reserve capacity for `bytes` without blocking. The transfer's FIFO
    /// position is claimed now (later reservations queue behind it); the
    /// returned [`Reservation`] carries the completion deadline. One
    /// bandwidth sample and one propagation sample are drawn, in the same
    /// order as [`Link::transfer`], so a `reserve` + `wait` pair is
    /// schedule-identical to a blocking transfer.
    pub fn reserve(&self, bytes: u64) -> Reservation {
        let now = Instant::now();
        let mut st = self.state.lock();
        let (transit, propagation) = self.sample_costs(bytes, &mut st.rng);
        // FIFO reservation of the pipe: transit consumes capacity,
        // propagation does not.
        let start = st.next_free.max(now);
        st.next_free = start + transit;
        st.busy_us += transit.as_micros() as u64;
        st.reservations += 1;
        Reservation {
            queueing: start.duration_since(now),
            transit,
            propagation,
            deadline: start + transit + propagation,
        }
    }

    /// Reserve capacity for a batch of messages shipped back-to-back: one
    /// bandwidth sample, transit charged for the **summed** bytes, and
    /// propagation charged **once** for the whole batch (the messages share
    /// the wire like one framed send, which is how producer batching
    /// amortizes WAN latency). A one-element batch draws the same RNG
    /// samples as [`Link::reserve`] of that size.
    pub fn reserve_batch(&self, sizes: &[u64]) -> Reservation {
        let total: u64 = sizes.iter().sum();
        self.reserve(total)
    }

    /// Transfer `bytes` over the link, blocking the calling thread for the
    /// simulated duration (queueing + transit + propagation). Returns a
    /// receipt describing the cost components. Equivalent to
    /// `reserve(bytes).wait()`.
    pub fn transfer(&self, bytes: u64) -> TransferReceipt {
        self.reserve(bytes).wait()
    }

    /// Observed one-way latency for a zero-byte probe (an `iPerf`-style
    /// measurement helper used by the `netperf` harness binary).
    pub fn probe_latency(&self) -> Duration {
        self.transfer(0).propagation
    }

    /// Remaining depth of the FIFO reservation queue in microseconds: how
    /// far ahead of *now* the pipe is already committed (0 when idle).
    /// This is the telemetry gauge for "how backed up is the WAN".
    pub fn pending_us(&self) -> u64 {
        let next_free = self.state.lock().next_free;
        next_free
            .saturating_duration_since(Instant::now())
            .as_micros() as u64
    }

    /// Cumulative transit time reserved on the pipe since creation, in
    /// microseconds — the busy-time integral a sampler differentiates into
    /// link utilization.
    pub fn busy_us(&self) -> u64 {
        self.state.lock().busy_us
    }

    /// Number of reservations issued since creation (blocking transfers
    /// included; estimates excluded).
    pub fn reservations(&self) -> u64 {
        self.state.lock().reservations
    }
}

impl std::fmt::Debug for Link {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Link").field("spec", &*self.spec).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_is_free() {
        let l = Link::loopback();
        let r = l.transfer(1 << 20);
        assert_eq!(r.total(), Duration::ZERO);
    }

    #[test]
    fn transit_matches_bandwidth() {
        // 1 MB over 80 Mbit/s = 0.1 s.
        let l = LinkSpec::fixed("t", 0.0, 80e6).build();
        let start = Instant::now();
        let r = l.transfer(1_000_000);
        let wall = start.elapsed();
        assert!((r.transit.as_secs_f64() - 0.1).abs() < 1e-6);
        assert!(wall.as_secs_f64() >= 0.099, "wall={wall:?}");
    }

    #[test]
    fn propagation_added_once() {
        let l = LinkSpec::fixed("t", 50.0, f64::INFINITY).build();
        let r = l.transfer(1_000);
        assert!((r.propagation.as_secs_f64() - 0.05).abs() < 1e-9);
        assert_eq!(r.transit, Duration::ZERO);
    }

    #[test]
    fn concurrent_transfers_queue_fifo() {
        // Two concurrent 0.05 s transfers on a shared pipe: combined wall
        // time must be ~0.1 s because transit serialises.
        let l = LinkSpec::fixed("t", 0.0, 160e6).build(); // 1 MB = 0.05 s
        let l2 = l.clone();
        let start = Instant::now();
        let h = std::thread::spawn(move || l2.transfer(1_000_000));
        let r1 = l.transfer(1_000_000);
        let r2 = h.join().unwrap();
        let wall = start.elapsed().as_secs_f64();
        assert!(wall >= 0.095, "wall={wall}");
        // One of the two must have queued behind the other.
        let queued = r1.queueing.max(r2.queueing);
        assert!(queued.as_secs_f64() > 0.03, "queued={queued:?}");
    }

    #[test]
    fn bandwidth_sampled_within_range() {
        let l = LinkSpec {
            name: "wan".into(),
            latency: Delay::None,
            bw_min_bps: 60e6,
            bw_max_bps: 100e6,
            seed: 11,
        }
        .build();
        for _ in 0..50 {
            let r = l.estimate(1_000_000);
            let bps = 8e6 / r.transit.as_secs_f64();
            assert!((59.9e6..=100.1e6).contains(&bps), "bps={bps}");
        }
    }

    #[test]
    fn estimate_does_not_reserve_capacity() {
        let l = LinkSpec::fixed("t", 0.0, 8e6).build(); // 1 B = 1 µs
        for _ in 0..100 {
            l.estimate(1_000_000);
        }
        // After many estimates, a real transfer still has no queueing.
        let r = l.transfer(1_000);
        assert_eq!(r.queueing, Duration::ZERO);
    }

    #[test]
    fn expected_secs_combines_components() {
        let spec = LinkSpec {
            name: "wan".into(),
            latency: Delay::FixedMs(75.0),
            bw_min_bps: 60e6,
            bw_max_bps: 100e6,
            seed: 0,
        };
        // 1 MB at mean 80 Mbit/s = 0.1 s + 0.075 s latency.
        assert!((spec.expected_secs(1_000_000) - 0.175).abs() < 1e-9);
    }

    #[test]
    fn bdp_of_the_transatlantic_path() {
        // Mean 80 Mbit/s = 10 MB/s over a mean 75 ms flight plus a 2 ms
        // linger: 770 KB.
        let spec = crate::profiles::transatlantic("wan", 0);
        assert_eq!(spec.bdp_bytes(Duration::ZERO), 750_000);
        assert_eq!(spec.bdp_bytes(Duration::from_millis(2)), 770_000);
    }

    #[test]
    fn bdp_of_an_infinite_link_is_unbounded() {
        let spec = crate::profiles::loopback("lo");
        assert_eq!(spec.bdp_bytes(Duration::ZERO), u64::MAX);
        assert_eq!(spec.bdp_bytes(Duration::from_millis(2)), u64::MAX);
        let fast = LinkSpec::fixed("t", 50.0, f64::INFINITY);
        assert_eq!(fast.bdp_bytes(Duration::ZERO), u64::MAX);
    }

    #[test]
    fn bdp_at_zero_latency_is_the_extra_window() {
        // 8 Mbit/s = 1 MB/s: nothing in flight without a window, 2 KB
        // across a 2 ms one.
        let spec = LinkSpec::fixed("t", 0.0, 8e6);
        assert_eq!(spec.bdp_bytes(Duration::ZERO), 0);
        assert_eq!(spec.bdp_bytes(Duration::from_millis(2)), 2_000);
    }

    #[test]
    fn reserve_matches_transfer_schedule() {
        // A seeded link driven by reserve+wait must produce the exact same
        // receipts as the same link driven by blocking transfers.
        let mk = || {
            LinkSpec {
                name: "wan".into(),
                latency: Delay::UniformMs {
                    min_ms: 1.0,
                    max_ms: 2.0,
                },
                bw_min_bps: 4e9,
                bw_max_bps: 8e9,
                seed: 99,
            }
            .build()
        };
        let (a, b) = (mk(), mk());
        for _ in 0..5 {
            let via_reserve = a.reserve(100_000).wait();
            let via_transfer = b.transfer(100_000);
            assert_eq!(via_reserve.transit, via_transfer.transit);
            assert_eq!(via_reserve.propagation, via_transfer.propagation);
        }
    }

    #[test]
    fn reservations_queue_fifo() {
        // Three back-to-back reservations on an idle pipe: each queues
        // behind the previous one's transit, and deadlines are ordered.
        let l = LinkSpec::fixed("t", 0.0, 160e6).build(); // 1 MB = 0.05 s
        let r1 = l.reserve(1_000_000);
        let r2 = l.reserve(1_000_000);
        let r3 = l.reserve(1_000_000);
        assert!(r1.queueing < Duration::from_millis(5));
        assert!(
            r2.queueing >= Duration::from_millis(45),
            "{:?}",
            r2.queueing
        );
        assert!(
            r3.queueing >= Duration::from_millis(95),
            "{:?}",
            r3.queueing
        );
        assert!(r1.deadline() < r2.deadline() && r2.deadline() < r3.deadline());
        // Waiting out of order still resolves to the FIFO deadlines.
        let t3 = r3.wait();
        assert!(r1.is_complete() && r2.is_complete());
        assert!(t3.queueing >= Duration::from_millis(95));
    }

    #[test]
    fn reserve_overlaps_compute_with_flight() {
        // Work done between reserve and wait is absorbed by the flight
        // time: the wait itself only sleeps the remainder.
        let l = LinkSpec::fixed("t", 40.0, f64::INFINITY).build();
        let r = l.reserve(1_000);
        std::thread::sleep(Duration::from_millis(20)); // overlapped "compute"
        let start = Instant::now();
        r.wait();
        let waited = start.elapsed();
        assert!(waited < Duration::from_millis(35), "waited {waited:?}");
    }

    #[test]
    fn batch_charges_propagation_once() {
        let l = LinkSpec::fixed("t", 50.0, 80e6).build();
        // 4 × 1 MB batched: transit for 4 MB, one 50 ms propagation.
        let r = l.reserve_batch(&[1_000_000; 4]);
        assert!((r.transit.as_secs_f64() - 0.4).abs() < 1e-6);
        assert!((r.propagation.as_secs_f64() - 0.05).abs() < 1e-9);
        // Serial equivalent pays propagation four times.
        let serial = LinkSpec::fixed("t", 50.0, 80e6).build();
        let mut total = Duration::ZERO;
        for _ in 0..4 {
            let r = serial.reserve(1_000_000);
            total += r.transit + r.propagation;
        }
        assert!(total > r.transit + r.propagation + Duration::from_millis(100));
    }

    #[test]
    fn seeded_reservations_are_reproducible() {
        // Identical seeds + identical reservation sequences → identical
        // transfer schedules (transit and propagation of every message),
        // whether issued per message or per batch.
        let mk = || {
            LinkSpec {
                name: "wan".into(),
                latency: Delay::UniformMs {
                    min_ms: 70.0,
                    max_ms: 80.0,
                },
                bw_min_bps: 60e6,
                bw_max_bps: 100e6,
                seed: 4242,
            }
            .build()
        };
        let (a, b) = (mk(), mk());
        for i in 0..10 {
            let (ra, rb) = if i % 2 == 0 {
                (a.reserve(1 << 18), b.reserve(1 << 18))
            } else {
                (
                    a.reserve_batch(&[1 << 16; 8]),
                    b.reserve_batch(&[1 << 16; 8]),
                )
            };
            assert_eq!(ra.transit, rb.transit);
            assert_eq!(ra.propagation, rb.propagation);
        }
    }

    #[test]
    fn busy_and_pending_track_reservations() {
        let l = LinkSpec::fixed("t", 0.0, 80e6).build(); // 1 MB = 0.1 s
        assert_eq!(l.busy_us(), 0);
        assert_eq!(l.pending_us(), 0);
        assert_eq!(l.reservations(), 0);
        let _r1 = l.reserve(1_000_000);
        let _r2 = l.reserve(1_000_000);
        assert_eq!(l.reservations(), 2);
        // 2 × 0.1 s of transit accumulated.
        assert!(
            (l.busy_us() as i64 - 200_000).abs() < 100,
            "{}",
            l.busy_us()
        );
        // Pipe committed ~0.2 s ahead of now.
        let pending = l.pending_us();
        assert!((150_000..=200_000).contains(&pending), "{pending}");
        // Pending decays back to zero as simulated time passes; busy does not.
        std::thread::sleep(Duration::from_millis(210));
        assert_eq!(l.pending_us(), 0);
        assert!(l.busy_us() >= 199_000);
    }

    #[test]
    fn estimates_do_not_count_as_reservations() {
        let l = LinkSpec::fixed("t", 0.0, 8e6).build();
        l.estimate(1_000_000);
        assert_eq!(l.reservations(), 0);
        assert_eq!(l.busy_us(), 0);
    }

    #[test]
    fn seeded_links_are_reproducible() {
        let mk = || {
            LinkSpec {
                name: "wan".into(),
                latency: Delay::UniformMs {
                    min_ms: 70.0,
                    max_ms: 80.0,
                },
                bw_min_bps: 60e6,
                bw_max_bps: 100e6,
                seed: 1234,
            }
            .build()
        };
        let a = mk();
        let b = mk();
        for _ in 0..10 {
            assert_eq!(a.estimate(1 << 16), b.estimate(1 << 16));
        }
    }
}
