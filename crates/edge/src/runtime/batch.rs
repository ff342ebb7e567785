//! The producer's transport — accumulate / flush / double-buffer, the one
//! path every encoded message takes from a device to its partition.
//!
//! Encoded messages accumulate in a [`Batcher`] until their summed size
//! reaches `batch_max_bytes` or the linger window closes; the batch then
//! ships over one non-blocking link reservation while the next batch
//! encodes (at most one batch stays in flight — a double buffer). When the
//! reservation completes, each message is appended to the broker
//! individually with its own Network and Broker spans.
//!
//! The serial transport (`batch_max_bytes == 0`, the default) is the
//! degenerate case, not a second path: every push is a full one-message
//! batch, and nothing stays in flight — the push returns once the message
//! has paid its own blocking transfer and landed in the partition. Offsets,
//! ordering and the per-message span chain are therefore the same at every
//! threshold.

use super::Shared;
use bytes::Bytes;
use pilot_broker::Record;
use pilot_metrics::Component;
use pilot_netsim::Reservation;
use std::collections::VecDeque;
use std::time::Instant;

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

/// One device's batching state: the open (accumulating) batch and the
/// in-flight double buffer. Owned by a `DeviceProducer`, so interleaved
/// stepping on multiplexed engine workers can never mix batches across
/// devices.
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

    /// Accumulate one encoded message; the batch ships when it is full or
    /// its linger window closed. The reservation completes (and the
    /// messages append) while later messages encode — except at threshold
    /// 0 (serial transport), where everything lands before this returns.
    /// The threshold and linger window are live
    /// [`TuneTable`](super::TuneTable) cells, re-read per push, so widening,
    /// narrowing or turning batching off takes effect mid-stream with
    /// nothing overtaken: older batches always complete first.
    pub(crate) fn push(&mut self, shared: &Shared, msg: PendingMsg) -> Result<(), String> {
        self.pending_bytes += msg.payload.len();
        self.pending.push(msg);
        let max_bytes = shared.tune.batch_max_bytes();
        if max_bytes == 0 {
            return self.drain(shared);
        }
        let opened = *self.batch_open.get_or_insert_with(Instant::now);
        if self.pending_bytes >= max_bytes || opened.elapsed() >= shared.tune.linger() {
            self.flush(shared)?;
        }
        Ok(())
    }

    /// Ship the accumulated batch over one link reservation (non-blocking)
    /// and complete older batches so at most one stays in flight.
    pub(crate) fn flush(&mut self, shared: &Shared) -> Result<(), String> {
        self.pending_bytes = 0;
        self.batch_open = None;
        if self.pending.is_empty() {
            return Ok(());
        }
        let sizes: Vec<u64> = self
            .pending
            .iter()
            .map(|m| m.payload.len() as u64)
            .collect();
        let net_start_us = shared.metrics().now_us();
        let reservation = shared.link_edge_broker.reserve_batch(&sizes);
        let bytes: u64 = sizes.iter().sum();
        if let Some(g) = shared.stage_gauges() {
            g.inflight_batch_bytes.add(bytes as i64);
        }
        self.in_flight.push_back(InFlightBatch {
            reservation,
            net_start_us,
            msgs: std::mem::take(&mut self.pending),
            bytes,
        });
        while self.in_flight.len() > 1 {
            self.complete_oldest(shared)?;
        }
        Ok(())
    }

    /// Flush and wait out everything still in flight: every push at
    /// threshold 0, and before the sentinel at any threshold, so every
    /// message lands in the partition first.
    pub(crate) fn drain(&mut self, shared: &Shared) -> Result<(), String> {
        self.flush(shared)?;
        while !self.in_flight.is_empty() {
            self.complete_oldest(shared)?;
        }
        Ok(())
    }

    /// Wait out the oldest in-flight batch's reservation, then append its
    /// messages individually, in order, with per-message Network and
    /// Broker spans.
    fn complete_oldest(&mut self, shared: &Shared) -> Result<(), String> {
        let Some(batch) = self.in_flight.pop_front() else {
            return Ok(());
        };
        let spans = shared.spans();
        batch.reservation.wait();
        if let Some(g) = shared.stage_gauges() {
            g.inflight_batch_bytes.sub(batch.bytes as i64);
        }
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
        Ok(())
    }
}
