//! The running pipeline: producer and consumer stages as polled tasks on
//! two reactors (task wiring, dataflow, termination, adaptation).
//!
//! What `start` builds (paper Fig. 1, step 2):
//!
//! ```text
//!  edge pilot                     broker pilot                cloud pilot
//!  ┌───────────────┐   link      ┌──────────────┐   link     ┌──────────────┐
//!  │ device task   ├────────────▶│ topic, 1 part│◀───────────┤ member task  │
//!  │  (per device) │  e→broker   │  per device  │  broker→c  │ (per proc.)  │
//!  ├───────────────┤             │ param server │            ├──────────────┤
//!  │ edge reactor  │             └──────────────┘            │ cloud reactor│
//!  └───────────────┘                                         └──────────────┘
//! ```
//!
//! Producers run `produce_edge` (and, in hybrid mode, `process_edge`),
//! serialize, cross the simulated edge→broker link, and append to their
//! device's partition. Consumers poll their assigned partitions (range
//! assignment via the consumer-group coordinator), cross the broker→cloud
//! link, decode, and run `process_cloud`. Every step records a linked
//! metric span keyed by `(job_id, msg_id)`.
//!
//! # Module map (DESIGN.md §10)
//!
//! There is one executor on the data path, instantiated twice: edge
//! devices are polled state machines on a reactor sized from the edge
//! pilot, consumer members are polled state machines on a reactor sized
//! from the cloud pilot. The two share no thread; both are stopped by the
//! same flag-and-wake, and a task of either that fails or panics ends the
//! run with its error. The cross-cutting concerns each live in exactly one
//! module:
//!
//! * [`config`] — validation of the flat [`PipelineConfig`]; the runtime
//!   keeps the validated config in `Shared`, and its live knobs seed the
//!   [`TuneTable`] — one atomic cell per knob of the knob table
//!   ([`crate::control::Knob`]), written by the controller, the gateway and
//!   applications alike;
//! * `producer` — the `DeviceProducer`, the pipeline's producer: produce,
//!   encode, pace and ship one device's stream as a state machine that
//!   parks on its next deadline;
//! * `consumer` — the `ConsumerStage`, the consumer of both entry points:
//!   membership, fetch, broker→cloud transport, processing and commit as
//!   a waker-based state machine on a fixed pool of reactor threads
//!   (DESIGN.md §12); the delivery contract is stated there, once;
//! * `batch` — producer-side batching (accumulate / flush / land) of the
//!   pipelined transport and the edge→broker link's byte credit; never
//!   sleeps, reports the deadline it waits on;
//! * `sentinel` — the end-of-stream protocol and per-partition tracker;
//! * `spans` — metric message identity and hot-path counters;
//! * `ctl` — `PipelineCtl` / [`RunningPipeline`]: scaling, hot-swap, the
//!   pipeline's one control journal (controller decisions and operator
//!   tunes on one clock), wait/abort/drop shutdown;
//! * `gateway` — the pipeline's control routes, served beside the
//!   read-only routes both entry points share (`crate::observe`).
//!
//! The state the stages share is one `Shared`, built by one constructor
//! for a pipeline and for every federation cell (DESIGN.md §14); members
//! join and spawn through one `consumer::spawn_members`. `ConsumerStage`
//! is the crate's only consumer. Only the producer is still second: a
//! federation cell's `CellProducerTask` (`federation/cell.rs`) multiplexes
//! the cell's devices into one task.
//!
//! **Spans are recorded only when something reads them** — one `bool`,
//! derived by the entry point: always for a pipeline, whose
//! [`RunSummary`](crate::summary::RunSummary) is folded from spans; for a
//! federation only when its gateway serves `/trace` and `/top`. The span
//! store has no bound yet, and 65,536 messages × 2 consumer spans × 80 B
//! is ≈ 10 MB per `federation-sat` burst that nothing would read.
//!
//! **Termination**: each producer appends an empty *sentinel* record after
//! its stream ends; a partition is complete once its sentinel is consumed;
//! the run is complete when every partition is.
//!
//! **Pipelined transport** (off by default; see
//! [`PipelineConfig::batch_max_bytes`](crate::pipeline::PipelineConfig::batch_max_bytes)
//! and
//! [`PipelineConfig::prefetch_depth`](crate::pipeline::PipelineConfig::prefetch_depth)):
//! producers batch encoded messages
//! and ship each batch over one non-blocking link reservation, which lands
//! (per-message append) on its own deadline while the next batches are
//! encoding — as many in flight as the link's bandwidth-delay product
//! allows; consumers fetch and reserve up to `prefetch_depth` batches
//! ahead of the one being processed — a look-ahead window over
//! non-blocking link reservations, no extra thread — so batch N+1 crosses
//! the link while batch N is in `process_cloud`. Per-message metric spans
//! are preserved in both modes:
//! every message of a batch gets its own Network/Broker/CloudProcessor
//! spans (network spans share the batch's wall-clock window, carrying the
//! message's own byte count).
//!
//! **Fan-in scale-out**: any number of devices share
//! [`producer_threads`](crate::pipeline::PipelineConfig::producer_threads)
//! edge threads (default: the edge pilot's cores) — a device waiting for
//! its send time, its linger window, a transfer or the link's credit is a
//! timer or a queued waker, not a thread
//! — so a 1024-device cell runs on 2 edge cores. Per-device message sets
//! are identical at every thread count under a fixed seed. Likewise any
//! number of members share
//! [`reactor_threads`](crate::pipeline::PipelineConfig::reactor_threads)
//! threads (default: the cloud pilot's cores); each member fetches all its
//! partitions in one non-blocking sweep and parks on the broker's arrival
//! registry, pausing partitions whose sentinel arrived.
//!
//! **Adaptation** (paper Section II-D): [`RunningPipeline::replace_cloud_function`]
//! hot-swaps the processing function (consumers re-instantiate on the next
//! message); [`RunningPipeline::scale_processors`] grows or shrinks the
//! consumer pool at runtime, rebalancing partitions across members.

pub mod config;

mod batch;
mod consumer;
mod ctl;
mod gateway;
mod producer;
pub(crate) mod sentinel;
mod spans;
pub mod telemetry;
pub mod tune;

#[cfg(test)]
mod tests;

pub(crate) use consumer::spawn_members;
pub(crate) use ctl::PipelineCtl;
pub use ctl::RunningPipeline;
pub use tune::TuneTable;

use crate::control::{Controller, Knob};
use crate::faas::{CloudFactory, Context, SwappableCloudFactory};
use crate::observe::Observability;
use crate::pipeline::{EdgeToCloudPipeline, PipelineConfig, PipelineError};
use parking_lot::Mutex;
use pilot_broker::{Broker, BrokerError, GroupCoordinator, RetentionPolicy};
use pilot_core::Pilot;
use pilot_dataflow::LocalExecutor;
use pilot_metrics::{JobSpans, MetricsRegistry, TelemetrySampler};
use pilot_netsim::Link;
use sentinel::SentinelTracker;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::Waker;
use std::time::Duration;
use telemetry::StageGauges;

/// Process-global job-id source so concurrent pipelines never collide.
static NEXT_JOB_ID: AtomicU64 = AtomicU64::new(1);

/// Everything the stages of one cell share — a pipeline, or one cell of a
/// federation: context, broker, links, the validated config, and the
/// termination state.
pub(crate) struct Shared {
    pub(crate) ctx: Context,
    pub(crate) broker: Broker,
    pub(crate) topic: String,
    /// The validated config; the live knobs are read from `tune` instead.
    pub(crate) config: PipelineConfig,
    pub(crate) link_edge_broker: Link,
    pub(crate) link_broker_cloud: Link,
    /// The edge→broker link's byte credit: what the devices may keep in
    /// flight on it together (its bandwidth-delay product).
    pub(crate) credit: batch::LinkCredit,
    pub(crate) cloud_slot: SwappableCloudFactory,
    pub(crate) coordinator: GroupCoordinator,
    pub(crate) sentinels: SentinelTracker,
    /// Which partitions have a batch between processing and commit.
    pub(crate) claims: consumer::Claims,
    /// Records committed so far, and where a producer at a backpressure
    /// watermark parks.
    pub(crate) progress: Progress,
    /// Raised to stop every task of the cell — and, when the flag is
    /// shared, of every cell that shares it.
    pub(crate) stop_all: Arc<AtomicBool>,
    /// Live knob cells the stages re-read at loop/poll boundaries; seeded
    /// from `config`, so an untouched table reads the configured values.
    pub(crate) tune: Arc<TuneTable>,
    /// Stage gauges of the live telemetry plane; `None` (the default, when
    /// `telemetry_sample_ms` is unset) keeps every hot-path update a single
    /// null check.
    pub(crate) gauges: Option<Arc<StageGauges>>,
    /// Whether the consumer stage records its spans (see the module docs).
    /// The one producer that records spans, `DeviceProducer`, runs only in
    /// pipelines, where this is always `true`.
    pub(crate) record_spans: bool,
    /// The reactor driving every device task.
    pub(crate) edge_reactor: Arc<LocalExecutor>,
    /// The reactor driving every consumer member.
    pub(crate) cloud_reactor: Arc<LocalExecutor>,
}

impl Shared {
    /// The one cell constructor: create the cell's topic (durable when
    /// `config.log_dir` is set) on `broker`, named after the job like its
    /// consumer group, and build the group coordinator, the sentinel
    /// tracker, the claims and the tune table over `config.devices`
    /// partitions. The entry point decides the rest: the context, the two
    /// links (edge→broker, broker→cloud), the cloud function, the two
    /// reactors (edge, cloud), the stop flag and whether spans are
    /// recorded.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        ctx: Context,
        broker: Broker,
        config: PipelineConfig,
        (link_edge_broker, link_broker_cloud): (Link, Link),
        cloud: CloudFactory,
        (edge_reactor, cloud_reactor): (Arc<LocalExecutor>, Arc<LocalExecutor>),
        stop_all: Arc<AtomicBool>,
        record_spans: bool,
    ) -> Result<Arc<Self>, BrokerError> {
        // The framework's "automatically created Kafka topic". It trims at
        // the consumer group's commit floor, so the log holds only what the
        // group has not processed yet. With `log_dir` set the topic persists
        // through the broker's segmented storage engine — group-commit
        // fsync, crash recovery, and segment files unlinked as the floor
        // passes them. Without it the topic is memory-only.
        let topic = format!("pilot-edge-{}", ctx.job_id);
        let partitions = config.devices;
        match config.durability() {
            Some(durability) => broker.create_topic_durable(
                &topic,
                partitions,
                RetentionPolicy::default(),
                &durability,
            )?,
            None => broker.create_topic(&topic, partitions, RetentionPolicy::default())?,
        }
        // Telemetry plane (off by default): register the stage gauges before
        // any stage runs, so the first sampler frame already has every name.
        let gauges = config
            .telemetry_sample_ms
            .map(|_| Arc::new(StageGauges::new(&ctx.metrics)));
        Ok(Arc::new(Self {
            ctx,
            broker,
            topic,
            credit: batch::LinkCredit::new(link_edge_broker.spec(), partitions),
            link_edge_broker,
            link_broker_cloud,
            cloud_slot: SwappableCloudFactory::new(cloud),
            coordinator: GroupCoordinator::new(partitions),
            sentinels: SentinelTracker::new(partitions),
            claims: consumer::Claims::new(partitions),
            progress: Progress::default(),
            stop_all,
            tune: Arc::new(TuneTable::new(&config)),
            gauges,
            record_spans,
            edge_reactor,
            cloud_reactor,
            config,
        }))
    }

    pub(crate) fn metrics(&self) -> &MetricsRegistry {
        &self.ctx.metrics
    }

    /// A span recorder bound to this cell's job id.
    pub(crate) fn spans(&self) -> JobSpans<'_> {
        self.ctx.metrics.for_job(self.ctx.job_id)
    }

    /// The consumer-group name of this cell.
    pub(crate) fn group(&self) -> String {
        format!("pilot-edge-{}", self.ctx.job_id)
    }

    /// Whether the stop flag is raised.
    pub(crate) fn stopping(&self) -> bool {
        self.stop_all.load(Ordering::Relaxed)
    }

    /// Raise the stop flag and re-queue every task of both reactors, so a
    /// device parked on its next send or on the link's credit and a member
    /// parked on the arrival registry observe it now.
    pub(crate) fn stop(&self) {
        self.stop_all.store(true, Ordering::Relaxed);
        self.edge_reactor.wake_all();
        self.cloud_reactor.wake_all();
    }

    /// The stage gauges, when the telemetry plane is on.
    pub(crate) fn stage_gauges(&self) -> Option<&StageGauges> {
        self.gauges.as_deref()
    }
}

/// A cell's backpressure state: the records its consumer has committed,
/// and the slot a producer at its watermark leaves its waker in. The
/// consumer stage advances it after every commit and wakes the slot, so a
/// blocked producer costs no timer poll.
#[derive(Default)]
pub(crate) struct Progress {
    committed: AtomicU64,
    parked: Mutex<Option<Waker>>,
}

impl Progress {
    /// Records appended (`appended` of them so far) but not yet committed.
    pub(crate) fn lag(&self, appended: u64) -> u64 {
        appended.saturating_sub(self.committed.load(Ordering::Relaxed))
    }

    /// Park `waker` until the next commit.
    pub(crate) fn park(&self, waker: &Waker) {
        *self.parked.lock() = Some(waker.clone());
    }

    /// `records` more were committed — failed ones too: wake a parked
    /// producer.
    pub(crate) fn advance(&self, records: u64) {
        self.committed.fetch_add(records, Ordering::Relaxed);
        // Take under the lock, wake outside it.
        let parked = self.parked.lock().take();
        if let Some(w) = parked {
            w.wake();
        }
    }
}

pub(crate) fn start(
    builder: EdgeToCloudPipeline,
    edge: Pilot,
    cloud: Pilot,
    broker_pilot: Pilot,
) -> Result<RunningPipeline, PipelineError> {
    let job_id = NEXT_JOB_ID.fetch_add(1, Ordering::Relaxed);
    let cfg = builder.config.clone();
    let broker = broker_pilot
        .start_broker()
        .map_err(|e| PipelineError::Task(e.to_string()))?;
    let params = broker_pilot
        .start_param_server()
        .map_err(|e| PipelineError::Task(e.to_string()))?;
    let metrics = builder.metrics.clone().unwrap_or_default();
    // One intra-task compute pool per cloud pilot, sized from its cores
    // unless overridden: a 1-core pilot gets a width-1 (inline) pool, a
    // multi-core one lets each model invocation fan out. All consumers of
    // this pipeline share the pool; concurrent jobs serialise inside it.
    let compute_width = cfg
        .compute_threads
        .unwrap_or_else(|| cloud.description().cores);
    // With a controller configured the pool is resizable up to the
    // controller's compute bound; without one it is the seed's fixed-width
    // pool, byte for byte.
    let compute_pool = match &cfg.controller {
        Some(ctl_cfg) => pilot_dataflow::ComputePool::resizable(
            compute_width,
            ctl_cfg.bounds.range(Knob::Compute).1.max(compute_width),
        ),
        None => pilot_dataflow::ComputePool::new(compute_width),
    };
    // Two fixed pools of reactor threads, one per pilot, drive every device
    // and every consumer member as polled state machines: the pilot's cores
    // unless overridden, however many tasks the pipeline runs on them. They
    // share no thread, so a `produce_edge` that blocks never stalls a
    // consumer.
    let reactor = |threads: Option<usize>, pilot: &Pilot| {
        Arc::new(LocalExecutor::new(
            threads.unwrap_or_else(|| pilot.description().cores),
        ))
    };
    let reactors = (
        reactor(cfg.producer_threads, &edge),
        reactor(cfg.reactor_threads, &cloud),
    );
    let ctx = Context::new(
        job_id,
        cfg.devices,
        params,
        metrics,
        builder.settings.clone(),
    )
    .with_compute_pool(Arc::new(compute_pool));
    // A pipeline always has a span reader: its run summary is folded from
    // them.
    let shared = Shared::new(
        ctx,
        broker,
        cfg,
        (
            builder.link_edge_broker.clone(),
            builder.link_broker_cloud.clone(),
        ),
        builder.cloud_factory.clone().expect("validated by builder"),
        reactors,
        Arc::new(AtomicBool::new(false)),
        true,
    )?;
    let cfg = &shared.config;
    // The sampler thread snapshots the gauges every `telemetry_sample_ms`;
    // the running pipeline's observability plane stops it on wait()/drop.
    let sampler = cfg.telemetry_sample_ms.map(|ms| {
        Arc::new(TelemetrySampler::spawn(
            shared.metrics().clone(),
            Duration::from_millis(ms),
            TelemetrySampler::DEFAULT_CAPACITY,
            StageGauges::probes(&shared),
        ))
    });

    let produce = builder.produce_factory.as_ref().expect("validated");
    let producers = shared
        .edge_reactor
        .spawn_all((0..cfg.devices).map(|device| {
            let task = producer::DeviceProducer::new(
                Arc::clone(&shared),
                device,
                produce,
                &builder.edge_factory,
            );
            (format!("produce-edge-{device}"), Box::new(task) as _)
        }));

    let ctl = Arc::new(PipelineCtl::new(
        Arc::clone(&shared),
        edge,
        cloud,
        sampler.clone(),
    ));
    ctl.spawn_consumers(cfg.processors)?;
    // Close the loop last: the controller's first tick already sees every
    // startup member and the seeded tune table.
    let controller = cfg
        .controller
        .clone()
        .map(|c| Controller::spawn(Arc::clone(&ctl), c));
    let mut running = RunningPipeline {
        ctl: Arc::clone(&ctl),
        producers,
        controller,
        observed: Observability::new(sampler),
    };
    // The tune endpoint reuses the controller's bounds when one is
    // configured (external tunes obey the same envelope), defaults
    // otherwise.
    if let Some(gw_cfg) = &cfg.gateway {
        let bounds = cfg
            .controller
            .as_ref()
            .map(|c| c.bounds.clone())
            .unwrap_or_default();
        gateway::serve(&mut running.observed, gw_cfg, &ctl, bounds)
            .map_err(|e| PipelineError::Task(format!("gateway: {e}")))?;
    }
    Ok(running)
}
