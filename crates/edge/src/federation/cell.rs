//! One edge cell as a pair of reactor tasks on the shared pool.
//!
//! A cell is a self-contained ingest loop — its own broker (hosted by its
//! pooled pilot), one partition per device, a producer and a consumer —
//! but unlike [`crate::pipeline::EdgeToCloudPipeline`] it owns **no
//! threads**: both sides are [`ReactorTask`] state machines multiplexed
//! onto the federation's one [`pilot_dataflow::LocalExecutor`]. A
//! 1024-cell continuum is 2048 polled tasks on k reactor threads, not
//! 2048 OS threads.
//!
//! The message protocol is byte-identical to the single-cell pipeline:
//! blocks from the seeded generator, framework-owned per-device
//! `msg_id` sequence, codec-encoded payloads, an empty-record sentinel
//! per partition at end of stream, commit-after-round at-least-once
//! consumption. The conservation test in `tests/federation.rs` leans on
//! exactly this: a federated cell delivers the same `(msg_id, payload)`
//! set as the equivalent standalone pipeline run.
//!
//! A cell's memory is bounded by its lag, not by the length of its run:
//! the cell topic trims at the consumer's commit floor, and a producer
//! at its backpressure watermark parks until the consumer's next committed
//! round wakes it.

use crate::faas::{CloudFn, Context, ProduceFn};
use crate::runtime::sentinel;
use bytes::{Bytes, BytesMut};
use parking_lot::Mutex;
use pilot_broker::{Broker, Consumer, Record};
use pilot_dataflow::{ReactorPoll, ReactorTask};
use pilot_datagen::{decode_any_into, Block, Codec};
use pilot_metrics::Counter;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::Waker;
use std::time::{Duration, Instant};

/// Messages a producer emits per poll before yielding (cooperative
/// fairness across cells sharing the reactor pool).
const PRODUCE_BUDGET: usize = 32;

/// What a cell's producer and consumer share for backpressure: the
/// consumer's processed count, and the slot a producer at its watermark
/// leaves its waker in. The consumer wakes the slot after each committed
/// round, so a blocked producer costs no timer poll.
#[derive(Default)]
pub(crate) struct CellProgress {
    processed: AtomicU64,
    parked: Mutex<Option<Waker>>,
}

impl CellProgress {
    /// Messages appended (`appended` of them so far) but not yet processed.
    fn lag(&self, appended: u64) -> u64 {
        appended.saturating_sub(self.processed.load(Ordering::Relaxed))
    }

    fn wake_producer(&self) {
        // Take under the lock, wake outside it.
        let parked = self.parked.lock().take();
        if let Some(w) = parked {
            w.wake();
        }
    }
}

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
    ctx: Context,
    broker: Broker,
    topic: String,
    streams: Vec<DeviceStream>,
    scratch: BytesMut,
    /// Round-robin cursor over devices.
    cursor: usize,
    /// Cell-local messages appended, for the backpressure watermark.
    appended: u64,
    /// Shared with the cell's consumer task.
    progress: Arc<CellProgress>,
    /// Park while `appended - processed` is at or above this (0 =
    /// unbounded).
    backpressure: u64,
    produced_ctr: Arc<Counter>,
    abort: Arc<AtomicBool>,
}

impl CellProducerTask {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ctx: Context,
        broker: Broker,
        topic: String,
        streams: Vec<ProduceFn>,
        progress: Arc<CellProgress>,
        backpressure: usize,
        produced_ctr: Arc<Counter>,
        abort: Arc<AtomicBool>,
    ) -> Self {
        Self {
            ctx,
            broker,
            topic,
            streams: streams
                .into_iter()
                .map(|produce| DeviceStream {
                    produce,
                    sent: 0,
                    done: false,
                })
                .collect(),
            scratch: BytesMut::new(),
            cursor: 0,
            appended: 0,
            progress,
            backpressure: backpressure as u64,
            produced_ctr,
            abort,
        }
    }

    fn fail(&self, e: String) -> ReactorPoll {
        self.abort.store(true, Ordering::Release);
        ReactorPoll::Complete(Err(e))
    }

    fn at_watermark(&self) -> bool {
        self.backpressure > 0 && self.progress.lag(self.appended) >= self.backpressure
    }
}

impl ReactorTask for CellProducerTask {
    fn poll(&mut self, waker: &Waker) -> ReactorPoll {
        if self.abort.load(Ordering::Acquire) {
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
            // consumer's round landed before the waker did.
            if self.at_watermark() {
                *self.progress.parked.lock() = Some(waker.clone());
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
            let stream = &mut self.streams[device];
            let t0 = self.ctx.metrics.now_us();
            match (stream.produce)(&self.ctx) {
                Some(mut block) => {
                    // The framework owns message identity (same rule as
                    // the single-cell producer stage).
                    block.msg_id = stream.sent;
                    stream.sent += 1;
                    let payload =
                        pilot_datagen::encode_with_into(Codec::F64, &block, t0, &mut self.scratch);
                    if let Err(e) = self.broker.append(
                        &self.topic,
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
                    if let Err(e) =
                        self.broker
                            .append(&self.topic, device, Record::new(Bytes::new()))
                    {
                        return self.fail(e.to_string());
                    }
                }
            }
        }
        ReactorPoll::Ready
    }
}

/// Completion bookkeeping shared between a cell's consumer and the
/// aggregation tiers above it.
pub(crate) struct CellCompletion {
    /// Completed cells in this cell's region (region aggregators run
    /// their final merge when this reaches the region's cell count).
    pub region_done: Arc<AtomicUsize>,
    /// Completed cells across the federation (drives the
    /// `federation.cells.active` gauge).
    pub cells_done: Arc<AtomicUsize>,
}

/// The cell's consumer side: one group member over every partition of the
/// cell's broker, decoding into a reusable scratch block and invoking the
/// cell's processing function.
pub(crate) struct CellConsumerTask {
    ctx: Context,
    consumer: Consumer,
    process: CloudFn,
    scratch: Block,
    fetch_max: usize,
    partitions: usize,
    finished: HashSet<usize>,
    processed: u64,
    progress: Arc<CellProgress>,
    processed_ctr: Arc<Counter>,
    completion: CellCompletion,
    abort: Arc<AtomicBool>,
}

impl CellConsumerTask {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ctx: Context,
        broker: Broker,
        topic: &str,
        group: &str,
        partitions: usize,
        process: CloudFn,
        fetch_max: usize,
        progress: Arc<CellProgress>,
        processed_ctr: Arc<Counter>,
        completion: CellCompletion,
        abort: Arc<AtomicBool>,
    ) -> Result<Self, String> {
        let parts: Vec<usize> = (0..partitions).collect();
        let consumer = Consumer::new(broker, topic, group, &parts).map_err(|e| e.to_string())?;
        Ok(Self {
            ctx,
            consumer,
            process,
            scratch: Block {
                msg_id: 0,
                points: 0,
                features: 0,
                data: Vec::new(),
                labels: Vec::new(),
            },
            fetch_max,
            partitions,
            finished: HashSet::new(),
            processed: 0,
            progress,
            processed_ctr,
            completion,
            abort,
        })
    }

    fn complete(&mut self) -> ReactorPoll {
        self.consumer.commit();
        self.completion.region_done.fetch_add(1, Ordering::AcqRel);
        self.completion.cells_done.fetch_add(1, Ordering::AcqRel);
        ReactorPoll::Complete(Ok(self.processed))
    }

    fn fail(&self, e: String) -> ReactorPoll {
        self.abort.store(true, Ordering::Release);
        self.progress.wake_producer();
        ReactorPoll::Complete(Err(e))
    }
}

impl ReactorTask for CellConsumerTask {
    fn poll(&mut self, waker: &Waker) -> ReactorPoll {
        if self.abort.load(Ordering::Acquire) {
            return ReactorPoll::Complete(Ok(self.processed));
        }
        if self.finished.len() >= self.partitions {
            return self.complete();
        }
        let batches = match self.consumer.poll_many_ready(self.fetch_max, waker) {
            // Waker armed on the cell broker's arrival registry: the
            // producer's next append to a watched partition re-queues us.
            Ok(None) => return ReactorPoll::Pending,
            Ok(Some(b)) => b,
            Err(e) => return self.fail(e.to_string()),
        };
        if batches.is_empty() {
            // Every live partition paused (sentinel consumed) but the
            // finished check above has not fired: defensive pacing.
            return ReactorPoll::PendingUntil(Instant::now() + Duration::from_millis(1));
        }
        for (p, records) in batches {
            for record in records {
                if sentinel::is_sentinel(&record) {
                    self.finished.insert(p);
                    let _ = self.consumer.pause(p);
                    continue;
                }
                if let Err(e) = decode_any_into(&record.value, &mut self.scratch) {
                    return self.fail(format!("cell {}: decode: {e}", self.ctx.job_id));
                }
                if let Err(e) = (self.process)(&self.ctx, &self.scratch) {
                    return self.fail(format!("cell {}: process: {e}", self.ctx.job_id));
                }
                self.processed += 1;
                self.progress.processed.fetch_add(1, Ordering::Relaxed);
                self.processed_ctr.add(1);
            }
        }
        // Commit only after the fetched round is fully processed
        // (at-least-once, same policy as the pipeline consumer). The
        // commit trims the cell topic to the new floor, and the round's
        // progress may release a producer parked at its watermark.
        self.consumer.commit();
        self.progress.wake_producer();
        if self.finished.len() >= self.partitions {
            return self.complete();
        }
        ReactorPoll::Ready
    }
}
