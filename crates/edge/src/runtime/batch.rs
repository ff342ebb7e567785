//! The producer's transport — accumulate / flush / land, the one path
//! every encoded message takes from a device to its partition.
//!
//! Encoded messages accumulate in a [`Batcher`] until their summed size
//! reaches `batch_max_bytes` or the linger window closes; the batch then
//! ships over one non-blocking link reservation while the next batch
//! encodes. When the reservation's deadline passes, each message is
//! appended to the broker individually with its own Network and Broker
//! spans.
//!
//! How much may be in flight is the edge→broker link's business, not a
//! count: the pipeline's devices share one [`LinkCredit`] of the link's
//! bandwidth-delay product (mean bandwidth × (mean flight + linger)). A
//! batch takes its bytes when it ships and returns them when it lands. A
//! device due to send while the credit is spent registers its waker with
//! the credit and parks; the landing that returns credit wakes the waiting
//! devices in arrival order. A device with nothing in flight is always
//! admitted, so one batch larger than the credit cannot deadlock.
//!
//! The batcher never sleeps. [`Batcher::poll`] does whatever is possible
//! *now* — land the batches whose deadline passed, oldest first; ship the
//! open batch if it is full, its window closed, or the device's next send
//! falls after the window's close (nothing can join it, so it does not wait
//! out a timer that changes nothing) — and reports the instant it is
//! waiting for, which the device task hands to its reactor as a timer. A
//! batch therefore lands on its own deadline and a lingering batch ships by
//! the time its window closes, whether or not the device sends again.
//!
//! The serial transport (`batch_max_bytes == 0`, the default) is the
//! degenerate case, not a second path: every message ships as a full
//! one-message batch, and the device may not send again until it landed.
//! Offsets, ordering and the per-message span chain are therefore the same
//! at every threshold and every credit.

use super::Shared;
use bytes::Bytes;
use parking_lot::Mutex;
use pilot_broker::Record;
use pilot_metrics::Component;
use pilot_netsim::{LinkSpec, Reservation};
use std::collections::VecDeque;
use std::task::Waker;
use std::time::{Duration, Instant};

/// The byte credit of the edge→broker link, shared by every device of a
/// pipeline: its budget is the link's bandwidth-delay product at the live
/// linger window, so it follows a retuned window without a knob of its own.
pub(crate) struct LinkCredit {
    link: LinkSpec,
    state: Mutex<CreditState>,
}

struct CreditState {
    /// Bytes taken by shipped batches since the start; what is in flight is
    /// `acquired - released`.
    acquired: u64,
    /// Bytes returned by landed batches since the start.
    released: u64,
    /// Devices parked until credit returns, in arrival order, with whether
    /// each device is queued (a device re-parked by its own timer queues
    /// once).
    waiting: VecDeque<(usize, Waker)>,
    queued: Vec<bool>,
}

impl CreditState {
    fn in_flight(&self) -> u64 {
        self.acquired - self.released
    }
}

impl LinkCredit {
    pub(crate) fn new(link: &LinkSpec, devices: usize) -> Self {
        Self {
            link: link.clone(),
            state: Mutex::new(CreditState {
                acquired: 0,
                released: 0,
                waiting: VecDeque::new(),
                queued: vec![false; devices],
            }),
        }
    }

    /// Whether the link has credit left at the window `linger`. If it does
    /// not, `device` is queued to be woken by the landing that returns some.
    fn admit(&self, device: usize, linger: Duration, waker: &Waker) -> bool {
        let budget = self.link.bdp_bytes(linger);
        let mut st = self.state.lock();
        if st.in_flight() < budget {
            return true;
        }
        if !std::mem::replace(&mut st.queued[device], true) {
            st.waiting.push_back((device, waker.clone()));
        }
        false
    }

    fn acquire(&self, bytes: u64) {
        self.state.lock().acquired += bytes;
    }

    /// Return a landed batch's bytes; if that leaves credit at the window
    /// `linger`, wake every waiting device, oldest first.
    fn release(&self, bytes: u64, linger: Duration) {
        let budget = self.link.bdp_bytes(linger);
        let woken = {
            let mut st = self.state.lock();
            st.released += bytes;
            if st.waiting.is_empty() || st.in_flight() >= budget {
                return;
            }
            let woken = std::mem::take(&mut st.waiting);
            for (device, _) in &woken {
                st.queued[*device] = false;
            }
            woken
        };
        for (_, waker) in woken {
            waker.wake();
        }
    }

    /// Bytes aboard shipped batches that have not landed yet (the
    /// `producer.inflight_batch_bytes` gauge).
    pub(crate) fn in_flight_bytes(&self) -> u64 {
        self.state.lock().in_flight()
    }

    /// `(acquired, released)` bytes since the start: equal once nothing is
    /// in flight.
    #[cfg(test)]
    pub(crate) fn totals(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.acquired, st.released)
    }
}

/// An encoded message waiting inside (or in flight with) a producer batch.
pub(crate) struct PendingMsg {
    /// Encoded wire payload.
    pub(crate) payload: Bytes,
    /// Metric msg id (device packed into the high bits).
    pub(crate) mid: u64,
    /// Produce start timestamp (also the record timestamp).
    pub(crate) t0: u64,
}

/// A batch whose link reservation is in flight: the reservation, the
/// batch's network-span start, and the messages aboard.
struct InFlightBatch {
    reservation: Reservation,
    net_start_us: u64,
    msgs: Vec<PendingMsg>,
    /// Summed payload bytes aboard (the in-flight telemetry gauge's unit).
    bytes: u64,
}

/// What the transport is waiting for after a [`Batcher::poll`].
pub(crate) struct Transport {
    /// Whether the device may push another message now.
    pub(crate) open: bool,
    /// Closed because the link's credit is spent: the device's waker is
    /// queued with the credit.
    pub(crate) on_credit: bool,
    /// The earliest instant at which polling again makes progress: the
    /// oldest in-flight batch's deadline or the open batch's linger expiry.
    /// `None` when nothing is accumulated or in flight.
    pub(crate) wake_at: Option<Instant>,
}

/// One device's batching state: the open (accumulating) batch and the
/// batches in flight. Owned by a `DeviceProducer`, so devices interleaved
/// on the same edge thread can never mix batches.
pub(crate) struct Batcher {
    device: usize,
    pending: Vec<PendingMsg>,
    pending_bytes: usize,
    batch_open: Option<Instant>,
    in_flight: VecDeque<InFlightBatch>,
}

impl Batcher {
    pub(crate) fn new(device: usize) -> Self {
        Self {
            device,
            pending: Vec::new(),
            pending_bytes: 0,
            batch_open: None,
            in_flight: VecDeque::new(),
        }
    }

    /// Accumulate one encoded message (only after a poll reported `open`).
    pub(crate) fn push(&mut self, msg: PendingMsg) {
        self.pending_bytes += msg.payload.len();
        self.pending.push(msg);
        self.batch_open.get_or_insert_with(Instant::now);
    }

    /// Advance the transport as far as the clock allows. The threshold and
    /// linger window are live [`TuneTable`](super::TuneTable) cells, re-read
    /// here, so widening, narrowing or turning batching off takes effect
    /// mid-stream with nothing overtaken: older batches always land first.
    /// `next_push` is when the device can next push: a window that closes
    /// before then cannot gain a batch-mate, so the batch ships now instead
    /// of parking on a timer that changes nothing. With `close` the open
    /// batch ships regardless and the transport stays shut until everything
    /// landed — what precedes the sentinel. A device due to push (`next_push`
    /// has passed) while its batches are in flight asks the link's credit,
    /// and queues `waker` with it when the credit is spent.
    pub(crate) fn poll(
        &mut self,
        shared: &Shared,
        next_push: Instant,
        close: bool,
        waker: &Waker,
    ) -> Result<Transport, String> {
        self.land(shared)?;
        let max_bytes = shared.tune.batch_max_bytes();
        let linger = shared.tune.linger();
        // Serial transport and the close alike: ship at once, nothing may
        // stay in flight behind the device's next move.
        let drain = max_bytes == 0 || close;
        let window_end = self.batch_open.map(|t| t + linger);
        let now = Instant::now();
        if !self.pending.is_empty()
            && (drain
                || self.pending_bytes >= max_bytes
                || window_end.is_some_and(|t| t < next_push || t <= now))
        {
            self.flush(shared);
            // A zero-latency link delivers inline instead of bouncing
            // through the timer heap.
            self.land(shared)?;
        }
        let landing = self.in_flight.front().map(|b| b.reservation.deadline());
        let window_end = window_end.filter(|_| !self.pending.is_empty());
        // Nothing in flight: always open. Otherwise shut while draining,
        // and for a device due to push, open only on credit.
        let idle = self.in_flight.is_empty();
        let on_credit =
            !idle && !drain && next_push <= now && !shared.credit.admit(self.device, linger, waker);
        Ok(Transport {
            open: idle || !(drain || on_credit),
            on_credit,
            wake_at: landing.into_iter().chain(window_end).min(),
        })
    }

    /// Ship the accumulated batch over one link reservation (non-blocking).
    fn flush(&mut self, shared: &Shared) {
        let sizes: Vec<u64> = self
            .pending
            .iter()
            .map(|m| m.payload.len() as u64)
            .collect();
        let net_start_us = shared.metrics().now_us();
        let reservation = shared.link_edge_broker.reserve_batch(&sizes);
        let bytes: u64 = sizes.iter().sum();
        shared.credit.acquire(bytes);
        self.in_flight.push_back(InFlightBatch {
            reservation,
            net_start_us,
            msgs: std::mem::take(&mut self.pending),
            bytes,
        });
        self.pending_bytes = 0;
        self.batch_open = None;
    }

    /// Land every batch whose reservation completed, oldest first (a younger
    /// batch never overtakes an older one, whatever the link's jitter):
    /// append its messages individually, in order, with per-message Network
    /// and Broker spans.
    fn land(&mut self, shared: &Shared) -> Result<(), String> {
        let spans = shared.spans();
        while self
            .in_flight
            .front()
            .is_some_and(|b| b.reservation.is_complete())
        {
            let batch = self.in_flight.pop_front().expect("front checked above");
            shared.credit.release(batch.bytes, shared.tune.linger());
            let net_end_us = spans.now_us();
            for msg in batch.msgs {
                let bytes = msg.payload.len() as u64;
                spans.record(
                    msg.mid,
                    Component::Network(shared.link_edge_broker.name().to_string()),
                    batch.net_start_us,
                    net_end_us,
                    bytes,
                );
                let b0 = spans.now_us();
                shared
                    .broker
                    .append(
                        &shared.topic,
                        self.device,
                        Record::new(msg.payload).with_timestamp(msg.t0),
                    )
                    .map_err(|e| e.to_string())?;
                spans.record(msg.mid, Component::Broker, b0, spans.now_us(), bytes);
            }
        }
        Ok(())
    }
}
