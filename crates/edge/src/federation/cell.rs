//! The producer half of one edge cell.
//!
//! A cell is a self-contained ingest loop — its own broker (hosted by its
//! pooled pilot), one partition per device, a producer and a consumer —
//! but unlike [`crate::pipeline::EdgeToCloudPipeline`] it owns **no
//! threads**: both sides are [`ReactorTask`] state machines multiplexed
//! onto the federation's one [`pilot_dataflow::LocalExecutor`]. A
//! 1024-cell continuum is 2048 polled tasks on k reactor threads, not
//! 2048 OS threads.
//!
//! The cell's state is the pipeline's own (`runtime::Shared`, built by the
//! same constructor), and its consumer is the pipeline's `ConsumerStage`:
//! one member over every partition. What stays here is the producer, one
//! task for all of the cell's devices. The message protocol is therefore
//! byte-identical to the single-cell pipeline: blocks from the seeded
//! generator, framework-owned per-device `msg_id` sequence, codec-encoded
//! payloads, the pipeline's end-of-stream sentinel per partition. The
//! conservation test in `tests/federation.rs` leans on exactly this: a
//! federated cell delivers the same `(msg_id, payload)` set as the
//! equivalent standalone pipeline run.
//!
//! A cell's memory is bounded by its lag, not by the length of its run:
//! the cell topic trims at the consumer's commit floor, and a producer
//! at its backpressure watermark parks until the consumer's next commit
//! wakes it.

use crate::faas::ProduceFn;
use crate::runtime::{sentinel, Shared};
use pilot_broker::Record;
use pilot_dataflow::{ReactorPoll, ReactorTask};
use pilot_metrics::Counter;
use std::sync::Arc;
use std::task::Waker;

/// Messages a producer emits per poll before yielding (cooperative
/// fairness across cells sharing the reactor pool).
const PRODUCE_BUDGET: usize = 32;

/// One device's stream inside the producer task.
struct DeviceStream {
    produce: ProduceFn,
    /// Framework-owned per-device message sequence (matches the
    /// single-cell runtime's identity rule).
    sent: u64,
    done: bool,
}

/// The cell's producer side: every device's stream, multiplexed into one
/// reactor task appending to the cell's private broker.
pub(crate) struct CellProducerTask {
    shared: Arc<Shared>,
    streams: Vec<DeviceStream>,
    scratch: bytes::BytesMut,
    /// Round-robin cursor over devices.
    cursor: usize,
    /// Cell-local messages appended, for the backpressure watermark.
    appended: u64,
    /// Park while `appended - committed` is at or above this (0 =
    /// unbounded).
    backpressure: u64,
    produced_ctr: Arc<Counter>,
}

impl CellProducerTask {
    pub(crate) fn new(
        shared: Arc<Shared>,
        streams: Vec<ProduceFn>,
        backpressure: usize,
        produced_ctr: Arc<Counter>,
    ) -> Self {
        Self {
            shared,
            streams: streams
                .into_iter()
                .map(|produce| DeviceStream {
                    produce,
                    sent: 0,
                    done: false,
                })
                .collect(),
            scratch: bytes::BytesMut::new(),
            cursor: 0,
            appended: 0,
            backpressure: backpressure as u64,
            produced_ctr,
        }
    }

    fn fail(&self, e: String) -> ReactorPoll {
        self.shared.stop();
        ReactorPoll::Complete(Err(e))
    }

    fn at_watermark(&self) -> bool {
        self.backpressure > 0 && self.shared.progress.lag(self.appended) >= self.backpressure
    }
}

impl ReactorTask for CellProducerTask {
    fn poll(&mut self, waker: &Waker) -> ReactorPoll {
        if self.shared.stopping() {
            return ReactorPoll::Complete(Ok(self.appended));
        }
        let devices = self.streams.len();
        for _ in 0..PRODUCE_BUDGET {
            if self.streams.iter().all(|s| s.done) {
                return ReactorPoll::Complete(Ok(self.appended));
            }
            // Backpressure: a cell whose consumer lags keeps its broker
            // backlog bounded by parking instead of buffering the run. The
            // re-check after parking closes the window in which the
            // consumer's commit landed before the waker did.
            if self.at_watermark() {
                self.shared.progress.park(waker);
                if self.at_watermark() {
                    return ReactorPoll::Pending;
                }
            }
            // Advance to the next live device.
            while self.streams[self.cursor % devices].done {
                self.cursor += 1;
            }
            let device = self.cursor % devices;
            self.cursor += 1;
            let shared = &self.shared;
            let stream = &mut self.streams[device];
            let t0 = shared.metrics().now_us();
            match (stream.produce)(&shared.ctx) {
                Some(mut block) => {
                    // The framework owns message identity (same rule as
                    // the single-cell producer stage).
                    block.msg_id = stream.sent;
                    stream.sent += 1;
                    let payload = pilot_datagen::encode_with_into(
                        shared.config.codec,
                        &block,
                        t0,
                        &mut self.scratch,
                    );
                    if let Err(e) = shared.broker.append(
                        &shared.topic,
                        device,
                        Record::new(payload).with_timestamp(t0),
                    ) {
                        return self.fail(e.to_string());
                    }
                    self.appended += 1;
                    self.produced_ctr.add(1);
                }
                None => {
                    stream.done = true;
                    if let Err(e) = sentinel::append_sentinel(shared, device) {
                        return self.fail(e);
                    }
                }
            }
        }
        ReactorPoll::Ready
    }
}
