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
//! and its oldest in-flight batch's landing — and, when it is due but the
//! edge→broker link's credit is spent, on the credit as well — so any
//! number of devices share the edge threads and a batch lands when it is
//! due, not when the device next sends.
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
use pilot_datagen::RateLimiter;
use pilot_metrics::Component;
use std::sync::Arc;
use std::task::Waker;
use std::time::Instant;

/// The complete producing state of one edge device, stepped one message per
/// poll.
pub(crate) struct DeviceProducer {
    shared: Arc<Shared>,
    device: usize,
    produce: crate::faas::ProduceFn,
    edge_fn: Option<crate::faas::EdgeFn>,
    // One long-lived encode scratch per producer: every message encodes
    // through it (`encode_with_into`), the producer-side mirror of the
    // consumer's decode scratch — steady state allocates nothing.
    enc_scratch: bytes::BytesMut,
    batcher: Batcher,
    /// The pacing schedule, which also counts the messages sent: message
    /// `n` is due at `start + interval × n`. The device parks on the due
    /// time instead of sleeping in `RateLimiter::pace`.
    pacing: RateLimiter,
    /// The stream ended or the run is stopping: what is left is to flush,
    /// land everything in flight, and append the sentinel.
    ended: bool,
    /// What the device is parked on, as counted in the stage gauges.
    parked: Option<Park>,
}

/// What a parked device waits for: a deadline (its next send, its batch's
/// linger expiry, a landing) or the link's credit.
#[derive(Clone, Copy, PartialEq)]
enum Park {
    Deadline,
    Credit,
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
        Self {
            device,
            produce: produce(ctx, device),
            edge_fn: shared
                .config
                .mode
                .edge_processing()
                .then(|| edge(ctx, device)),
            enc_scratch: bytes::BytesMut::new(),
            batcher: Batcher::new(device),
            pacing: RateLimiter::new(shared.config.rate_per_device),
            ended: false,
            parked: None,
            shared,
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
        block.msg_id = self.pacing.emitted();
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
        self.pacing.record();
        Ok(true)
    }

    /// One poll: move the transport along, then send if a message is due
    /// and the transport has room for it; otherwise say what to wait for.
    /// A device shut out by the link's credit still arms its own landing:
    /// the credit's wake only comes earlier.
    fn advance(&mut self, waker: &Waker) -> Result<ReactorPoll, String> {
        let shared = Arc::clone(&self.shared);
        let mut stepped = false;
        loop {
            self.ended |= shared.stopping();
            let due = self.pacing.next_due();
            let transport = self.batcher.poll(&shared, due, self.ended, waker)?;
            if self.ended {
                // Everything accumulated or in flight lands in the
                // partition before the sentinel does.
                return match transport.wake_at {
                    Some(landing) => self.park(Park::Deadline, landing),
                    None => sentinel::append_sentinel(&shared, self.device)
                        .map(|()| ReactorPoll::Complete(Ok(self.pacing.emitted()))),
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
                let park = if transport.on_credit {
                    Park::Credit
                } else {
                    Park::Deadline
                };
                return self.park(park, at);
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

    /// Park until `at` (or an earlier wake), counted as waiting on `park`.
    fn park(&mut self, park: Park, at: Instant) -> Result<ReactorPoll, String> {
        self.set_parked(Some(park));
        Ok(ReactorPoll::PendingUntil(at))
    }

    /// Keep `producer.deadline_queue_depth` and `producer.credit_wait_depth`
    /// — device tasks parked on a deadline, on the link's credit — in step
    /// with this device.
    fn set_parked(&mut self, parked: Option<Park>) {
        if parked == self.parked {
            return;
        }
        if let Some(g) = self.shared.stage_gauges() {
            let gauge = |park| match park {
                Park::Deadline => &g.producer_queue_depth,
                Park::Credit => &g.credit_wait_depth,
            };
            if let Some(old) = self.parked {
                gauge(old).add(-1);
            }
            if let Some(new) = parked {
                gauge(new).add(1);
            }
        }
        self.parked = parked;
    }
}

impl ReactorTask for DeviceProducer {
    fn poll(&mut self, waker: &Waker) -> ReactorPoll {
        self.set_parked(None);
        match self.advance(waker) {
            Ok(poll) => poll,
            Err(e) => {
                // The first device to fail stops the run: every other
                // device drains at its next poll, every member exits.
                self.shared.stop();
                ReactorPoll::Complete(Err(e))
            }
        }
    }
}
