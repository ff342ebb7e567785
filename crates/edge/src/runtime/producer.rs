//! The producer stage: one edge device as a polled state machine on the
//! pipeline's edge reactor — the only way a pipeline produces.
//!
//! A [`DeviceProducer`] holds everything that defines a device's stream —
//! message identity, the encode scratch, the batching state, the pacing
//! schedule, the sentinel — and is a [`ReactorTask`] on the edge
//! [`pilot_dataflow::LocalExecutor`] (the edge pilot's cores unless
//! `producer_threads` overrides it), the mirror of the consumer stage on the
//! cloud reactor. It never sleeps on a thread: between messages it parks on
//! the earliest of its next send deadline, its open batch's linger expiry
//! and its oldest in-flight batch's landing, so any number of devices share
//! the edge threads and a batch lands when it is due, not when the device
//! next sends.
//!
//! ```text
//!   spawn ──▶ step ──▶ step ──▶ … ──▶ end of stream ──▶ flush, land ──▶ sentinel ──▶ Ok(sent)
//!               │                          ▲
//!               │   stop ──────────────────┘   (a stopped device still drains:
//!               │                               flush its batch, append its sentinel)
//!               └──▶ Err ──▶ stop ──▶ Err(e)
//! ```
//!
//! Per-device FIFO ordering and byte-identical per-device message sets hold
//! at any thread count because a device is one task, polled by one thread
//! at a time. A user `produce_edge` that blocks holds the edge thread it
//! runs on — and no consumer, which has a reactor of its own.

use super::batch::{Batcher, PendingMsg};
use super::sentinel;
use super::spans::metric_msg_id;
use super::Shared;
use crate::faas::{EdgeFactory, ProduceFactory};
use pilot_dataflow::{ReactorPoll, ReactorTask};
use pilot_metrics::Component;
use std::sync::Arc;
use std::task::Waker;
use std::time::{Duration, Instant};

/// The complete producing state of one edge device, stepped one message per
/// poll.
pub(crate) struct DeviceProducer {
    shared: Arc<Shared>,
    device: usize,
    produce: crate::faas::ProduceFn,
    edge_fn: Option<crate::faas::EdgeFn>,
    sent: u64,
    // One long-lived encode scratch per producer: every message encodes
    // through it (`encode_with_into`), the producer-side mirror of the
    // consumer's decode scratch — steady state allocates nothing.
    enc_scratch: bytes::BytesMut,
    batcher: Batcher,
    /// Pacing schedule origin: message `n` is due at `epoch + interval × n`
    /// (the ideal-schedule pacing of `pilot_datagen::RateLimiter`).
    epoch: Instant,
    interval: Option<Duration>,
    /// The stream ended or the run is stopping: what is left is to flush,
    /// land everything in flight, and append the sentinel.
    ended: bool,
    /// Counted in `producer.deadline_queue_depth` (parked on a deadline).
    parked: bool,
}

impl DeviceProducer {
    /// Build a device's state; its pacing schedule starts now.
    pub(crate) fn new(
        shared: Arc<Shared>,
        device: usize,
        produce: &ProduceFactory,
        edge: &EdgeFactory,
    ) -> Self {
        let ctx = &shared.ctx;
        let rate = shared.config.rate_per_device;
        let interval =
            (rate.is_finite() && rate > 0.0).then(|| Duration::from_secs_f64(1.0 / rate));
        Self {
            device,
            produce: produce(ctx, device),
            edge_fn: shared
                .config
                .mode
                .edge_processing()
                .then(|| edge(ctx, device)),
            sent: 0,
            enc_scratch: bytes::BytesMut::new(),
            batcher: Batcher::new(device),
            epoch: Instant::now(),
            interval,
            ended: false,
            parked: false,
            shared,
        }
    }

    /// When this device's next message may be emitted. Unthrottled devices
    /// are always due.
    fn next_due(&self) -> Instant {
        match self.interval {
            Some(iv) => self.epoch + iv * self.sent as u32,
            None => self.epoch,
        }
    }

    /// Produce, (optionally) edge-process, encode, and hand one message to
    /// the transport. `Ok(false)` means the device's stream ended.
    fn step(&mut self, shared: &Shared) -> Result<bool, String> {
        let ctx = &shared.ctx;
        let spans = shared.spans();
        let t0 = spans.now_us();
        let Some(mut block) = (self.produce)(ctx) else {
            return Ok(false);
        };
        // The framework owns message identity ("a unique job identifier
        // ensures that progress and errors can be consistently tracked"):
        // a per-device sequence replaces whatever the produce function set,
        // so duplicate user-assigned ids cannot corrupt metric linking.
        block.msg_id = self.sent;
        let mid = metric_msg_id(self.device, block.msg_id);
        // Edge processing (hybrid / edge-centric deployments).
        let block = match self.edge_fn.as_mut() {
            Some(f) => {
                let e0 = spans.now_us();
                let out = f(ctx, block)?;
                spans.record(mid, Component::EdgeProcessor, e0, spans.now_us(), 0);
                out
            }
            None => block,
        };
        let payload =
            pilot_datagen::encode_with_into(shared.config.codec, &block, t0, &mut self.enc_scratch);
        let bytes = payload.len() as u64;
        spans.record(mid, Component::EdgeProducer, t0, spans.now_us(), bytes);
        self.batcher.push(PendingMsg { payload, mid, t0 });
        self.sent += 1;
        Ok(true)
    }

    /// One poll: move the transport along, then send if a message is due
    /// and the transport has room for it; otherwise say what to wait for.
    fn advance(&mut self) -> Result<ReactorPoll, String> {
        let shared = Arc::clone(&self.shared);
        let mut stepped = false;
        loop {
            self.ended |= shared.stopping();
            let due = self.next_due();
            let transport = self.batcher.poll(&shared, due, self.ended)?;
            if self.ended {
                // Everything accumulated or in flight lands in the
                // partition before the sentinel does.
                return match transport.wake_at {
                    Some(landing) => Ok(ReactorPoll::PendingUntil(landing)),
                    None => sentinel::append_sentinel(&shared, self.device)
                        .map(|()| ReactorPoll::Complete(Ok(self.sent))),
                };
            }
            let wait = if !transport.open {
                transport.wake_at
            } else if due > Instant::now() {
                Some(transport.wake_at.map_or(due, |at| at.min(due)))
            } else {
                None
            };
            if let Some(at) = wait {
                return Ok(ReactorPoll::PendingUntil(at));
            }
            if stepped {
                // One message per poll: an unthrottled device yields to its
                // thread's siblings between messages.
                return Ok(ReactorPoll::Ready);
            }
            stepped = true;
            self.ended = !self.step(&shared)?;
        }
    }

    /// Keep `producer.deadline_queue_depth` — device tasks parked on a
    /// deadline — in step with this device.
    fn set_parked(&mut self, parked: bool) {
        if parked != self.parked {
            self.parked = parked;
            if let Some(g) = self.shared.stage_gauges() {
                g.producer_queue_depth.add(if parked { 1 } else { -1 });
            }
        }
    }
}

impl ReactorTask for DeviceProducer {
    fn poll(&mut self, _waker: &Waker) -> ReactorPoll {
        self.set_parked(false);
        match self.advance() {
            Ok(poll) => {
                self.set_parked(matches!(poll, ReactorPoll::PendingUntil(_)));
                poll
            }
            Err(e) => {
                // The first device to fail stops the run: every other
                // device drains at its next poll, every member exits.
                self.shared.stop();
                ReactorPoll::Complete(Err(e))
            }
        }
    }
}
