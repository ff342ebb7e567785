//! The producer stage: per-device producing state and the deadline-queue
//! engine that drives it.
//!
//! There is exactly one producer implementation. A [`DeviceProducer`] holds
//! everything that defines a device's stream — message identity, the encode
//! scratch, the batching state, the pacing schedule, the sentinel — and a
//! [`ProducerEngine`] schedules devices by their next send deadline across
//! one or more [`ProducerWorker`] stages:
//!
//! * **Dedicated** (the default): one worker task per device, each driving
//!   a degenerate one-device engine — the thread-per-device behaviour of
//!   the seed, bit-identical message sets included.
//! * **Multiplexed** (`producer_threads = Some(k)`): all devices share one
//!   engine and `k` worker tasks — the fan-in scale-out, where a
//!   1024-device cell needs `k` edge cores instead of 1024.
//!
//! Per-device FIFO ordering holds in both shapes because a device is owned
//! by exactly one worker while popped.

use super::batch::{Batcher, PendingMsg};
use super::config::ProducerEngineKind;
use super::sentinel;
use super::spans::metric_msg_id;
use super::{ProducerFns, Shared};
use parking_lot::{Condvar, Mutex};
use pilot_dataflow::{Client, Payload, Resources, TaskError, TaskFuture};
use pilot_metrics::{Component, Gauge};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The complete producing state of one edge device, stepped one message at
/// a time. Message identity (the per-device `msg_id` sequence), the
/// long-lived encode scratch, the batching double-buffer, and the sentinel
/// all live here — so any driver produces byte-identical per-device
/// message sets.
pub(crate) struct DeviceProducer {
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
}

impl DeviceProducer {
    /// Build a device's state. The pacing epoch is *now*, so construct
    /// inside the driving task when the schedule should start at task
    /// start (the dedicated engine does).
    pub(crate) fn new(shared: &Shared, device: usize, fns: &ProducerFns) -> Box<Self> {
        let ctx = &shared.ctx;
        let rate = shared.producer.rate_per_device;
        let interval =
            (rate.is_finite() && rate > 0.0).then(|| Duration::from_secs_f64(1.0 / rate));
        Box::new(Self {
            device,
            produce: (fns.produce)(ctx, device),
            edge_fn: shared
                .producer
                .mode
                .edge_processing()
                .then(|| (fns.edge)(ctx, device)),
            sent: 0,
            enc_scratch: bytes::BytesMut::new(),
            batcher: Batcher::new(device),
            epoch: Instant::now(),
            interval,
        })
    }

    /// When this device's next message may be emitted — the engine's
    /// deadline key. Unthrottled devices are always due.
    fn next_due(&self) -> Instant {
        match self.interval {
            Some(iv) => self.epoch + iv * self.sent as u32,
            None => self.epoch,
        }
    }

    /// Produce, (optionally) edge-process, encode, and ship one message.
    /// `Ok(false)` means the device's stream ended.
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
        let payload = pilot_datagen::encode_with_into(
            shared.transport.codec,
            &block,
            t0,
            &mut self.enc_scratch,
        );
        let bytes = payload.len() as u64;
        spans.record(mid, Component::EdgeProducer, t0, spans.now_us(), bytes);
        // One transport path: the batcher ships when its (live, re-read per
        // message) threshold is met — at threshold 0 that is every message,
        // transferred and appended before this returns.
        self.batcher.push(shared, PendingMsg { payload, mid, t0 })?;
        self.sent += 1;
        Ok(true)
    }

    /// Drain the batcher (everything accumulated or in flight must land in
    /// the partition first) and append the end-of-stream sentinel.
    fn finish(&mut self, shared: &Shared) -> Result<(), String> {
        self.batcher.drain(shared)?;
        sentinel::append_sentinel(shared, self.device)
    }
}

/// Devices parked until their next send deadline, ordered by `(due, seq)`.
/// The plain `BTreeMap` tuple-key ordering replaces the hand-written
/// `Ord`/`PartialOrd`/`Eq` boilerplate of the former `DueEntry` binary
/// heap; `seq` is a monotonic requeue counter that makes keys unique and
/// round-robins simultaneously-due devices fairly instead of starving one.
struct DueQueue {
    due: BTreeMap<(Instant, u64), Box<DeviceProducer>>,
    next_seq: u64,
}

/// What [`ProducerEngine::try_pop`] yielded.
enum Popped {
    /// The earliest-due device, owned by the caller until re-pushed or
    /// finished.
    Device(Box<DeviceProducer>),
    /// Nothing due (or every device held by another worker); try again.
    Idle,
    /// Every device has finished — workers may exit.
    Done,
}

/// The deadline-queue scheduler shared by a producer worker pool: every
/// device's [`DeviceProducer`] sits in a queue keyed by its next send
/// time; workers pop the earliest-due device, step it one message, and
/// requeue it.
pub(crate) struct ProducerEngine {
    q: Mutex<DueQueue>,
    work: Condvar,
    /// Devices whose sentinel has not been appended yet.
    active: AtomicUsize,
    /// Telemetry: devices currently parked in the queue. Dedicated engines
    /// all share one handle, so per-engine adds and subs sum into the
    /// cell-wide depth. `None` (telemetry off) costs one null check.
    depth: Option<Arc<Gauge>>,
}

impl ProducerEngine {
    pub(crate) fn new(devices: usize, depth: Option<Arc<Gauge>>) -> Self {
        Self {
            q: Mutex::new(DueQueue {
                due: BTreeMap::new(),
                next_seq: 0,
            }),
            work: Condvar::new(),
            active: AtomicUsize::new(devices),
            depth,
        }
    }

    /// (Re)queue a device at its next deadline and wake waiting workers.
    pub(crate) fn push(&self, state: Box<DeviceProducer>) {
        let mut q = self.q.lock();
        let seq = q.next_seq;
        q.next_seq += 1;
        q.due.insert((state.next_due(), seq), state);
        drop(q);
        if let Some(g) = &self.depth {
            g.incr();
        }
        self.work.notify_all();
    }

    /// A device appended its sentinel (or failed terminally).
    fn device_finished(&self) {
        if self.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last device done: wake idle workers so they can exit.
            self.work.notify_all();
        }
    }

    /// Pop the earliest-due device, or report why none came out. Blocks
    /// briefly (bounded condvar waits) so workers neither spin nor miss a
    /// stop: an empty queue waits for a requeue, a not-yet-due head waits
    /// until its deadline, and `stopping` pops regardless of deadlines so
    /// the caller can drain the device.
    fn try_pop(&self, stopping: bool) -> Popped {
        let mut q = self.q.lock();
        if self.active.load(Ordering::Acquire) == 0 {
            return Popped::Done;
        }
        match q.due.first_key_value() {
            // Every unfinished device is held by another worker: wait for
            // a requeue (bounded, so stop/finish without a notify are
            // still observed).
            None => {
                self.work.wait_for(&mut q, Duration::from_millis(10));
                Popped::Idle
            }
            Some((&(due, _), _)) => {
                let now = Instant::now();
                if stopping || due <= now {
                    let (_, state) = q.due.pop_first().expect("peeked entry");
                    if let Some(g) = &self.depth {
                        g.decr();
                    }
                    Popped::Device(state)
                } else {
                    // Sleep until the earliest deadline; a push with an
                    // earlier one notifies and we re-peek.
                    self.work.wait_for(&mut q, due - now);
                    Popped::Idle
                }
            }
        }
    }
}

/// One worker of a producer engine — a task on the edge pilot: pop the
/// earliest-due device, step it one message, requeue it.
///
/// ```text
///   spawn ──▶ step ──▶ step ──▶ … ──▶ done ──▶ drain ──▶ Ok(messages sent)
///               │                      ▲
///               │   stop_all ──────────┘   (a stopped worker still drains:
///               │                           flush batches, append sentinels)
///               └──▶ Err ──▶ stop_all ──▶ Err(e)
/// ```
///
/// The first worker to fail raises the shared `stop_all` flag, stopping
/// every other worker (and consumer member) at its next step boundary,
/// and surfaces the error through its task future to
/// `RunningPipeline::wait`.
pub(crate) struct ProducerWorker {
    shared: Arc<Shared>,
    engine: Arc<ProducerEngine>,
}

impl ProducerWorker {
    pub(crate) fn new(shared: Arc<Shared>, engine: Arc<ProducerEngine>) -> Self {
        Self { shared, engine }
    }

    /// Finish a popped device (flush + sentinel) and retire it from the
    /// engine, surfacing the finish error after the retirement so other
    /// workers never hang on the active count.
    fn retire(&self, state: &mut DeviceProducer) -> Result<(), String> {
        let res = state.finish(&self.shared);
        self.engine.device_finished();
        res
    }

    /// Run the worker through its lifecycle; returns the messages it sent.
    fn run(&self) -> Result<u64, String> {
        let mut sent = 0u64;
        let stepped = loop {
            if self.shared.stopping() {
                break Ok(());
            }
            match self.step() {
                Ok(Some(n)) => sent += n,
                Ok(None) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        match stepped.and_then(|()| self.drain()) {
            Ok(()) => Ok(sent),
            Err(e) => {
                self.shared.stop_all.store(true, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// One bounded unit of work: the messages sent (0 when no device was
    /// due), or `None` once every device of the engine has finished.
    fn step(&self) -> Result<Option<u64>, String> {
        match self.engine.try_pop(self.shared.stopping()) {
            Popped::Done => Ok(None),
            Popped::Idle => Ok(Some(0)),
            Popped::Device(mut state) => {
                if self.shared.stopping() {
                    // Raced with a stop after the pop: drain, don't step.
                    self.retire(&mut state)?;
                    return Ok(Some(0));
                }
                match state.step(&self.shared) {
                    Ok(true) => {
                        self.engine.push(state);
                        Ok(Some(1))
                    }
                    Ok(false) => {
                        self.retire(&mut state)?;
                        Ok(Some(0))
                    }
                    Err(e) => {
                        // A failed device fails the run; retire it first so
                        // the other workers can exit.
                        self.engine.device_finished();
                        Err(e)
                    }
                }
            }
        }
    }

    /// On stop (cooperative cancel) the queue still holds unfinished
    /// devices: drain every one — flush its batches, append its sentinel —
    /// exactly like the threaded seed path, so consumers terminate instead
    /// of waiting for sentinels that would never come.
    fn drain(&self) -> Result<(), String> {
        loop {
            match self.engine.try_pop(true) {
                Popped::Done => return Ok(()),
                // Devices held by other workers; wait for them to retire.
                Popped::Idle => continue,
                Popped::Device(mut state) => self.retire(&mut state)?,
            }
        }
    }
}

/// Submit a task that builds a worker and runs it. The worker is built
/// *inside* the task, so a dedicated device's pacing epoch starts when the
/// task starts, not when it was submitted.
fn spawn_worker(
    client: &Client,
    name: &str,
    shared: &Arc<Shared>,
    make: impl FnOnce(&Arc<Shared>) -> ProducerWorker + Send + 'static,
) -> Result<TaskFuture, TaskError> {
    let shared = Arc::clone(shared);
    client.submit_full(name, Resources::default(), &[], move |_| {
        make(&shared).run().map(|n| Arc::new(n) as Payload)
    })
}

/// Spawn the producer stage: one worker task per device (dedicated), or
/// `workers` tasks sharing one engine (multiplexed). Returns the task
/// futures in spawn order.
pub(crate) fn spawn_producers(
    client: &Client,
    shared: &Arc<Shared>,
    fns: &Arc<ProducerFns>,
) -> Result<Vec<TaskFuture>, TaskError> {
    let mut producers = Vec::new();
    // Telemetry: one shared depth gauge across every engine of this
    // pipeline (a dedicated engine per device still sums correctly).
    let depth = shared
        .stage_gauges()
        .map(|g| Arc::clone(&g.producer_queue_depth));
    match shared.producer.engine {
        ProducerEngineKind::Multiplexed { workers } => {
            // All devices enter one deadline queue up front (their pacing
            // epoch is engine creation) shared by `workers` worker tasks.
            let engine = Arc::new(ProducerEngine::new(shared.producer.devices, depth));
            for device in 0..shared.producer.devices {
                engine.push(DeviceProducer::new(shared, device, fns));
            }
            for w in 0..workers {
                let engine2 = Arc::clone(&engine);
                let fut = spawn_worker(client, &format!("produce-mux-{w}"), shared, |shared| {
                    ProducerWorker::new(Arc::clone(shared), engine2)
                })?;
                producers.push(fut);
            }
        }
        ProducerEngineKind::Dedicated => {
            // One task per device, each driving a degenerate one-device
            // engine built *inside* the task so the pacing epoch starts at
            // task start (the seed's thread-per-device schedule).
            producers.reserve(shared.producer.devices);
            for device in 0..shared.producer.devices {
                let fns2 = Arc::clone(fns);
                let depth2 = depth.clone();
                let fut = spawn_worker(
                    client,
                    &format!("produce-edge-{device}"),
                    shared,
                    move |shared| {
                        let engine = Arc::new(ProducerEngine::new(1, depth2));
                        engine.push(DeviceProducer::new(shared, device, &fns2));
                        ProducerWorker::new(Arc::clone(shared), engine)
                    },
                )?;
                producers.push(fut);
            }
        }
    }
    Ok(producers)
}
