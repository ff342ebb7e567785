//! The `EdgeToCloudPipeline` builder — the Rust rendering of paper
//! Listing 2:
//!
//! ```text
//! pilot.EdgeToCloudPipeline(
//!   pilot_cloud_processing = pilot_job_cloud_processing,
//!   pilot_cloud_broker     = pilot_job_cloud_broker,
//!   pilot_edge             = pilot_job_edge,
//!   produce_function_handler       = produce_block_edge,
//!   process_edge_function_handler  = process_block_edge,
//!   process_cloud_function_handler = process_block_cloud,
//!   function_context = context, ...
//! ).run()
//! ```

use crate::deployment::DeploymentMode;
use crate::faas::{identity_edge_factory, CloudFactory, EdgeFactory, ProduceFactory};
use crate::runtime::{self, RunningPipeline};
use crate::summary::RunSummary;
use pilot_broker::BrokerError;
use pilot_core::{Pilot, PilotState};
use pilot_metrics::MetricsRegistry;
use pilot_netsim::Link;
use std::collections::HashMap;
use std::time::Duration;

/// Tuning knobs with paper-faithful defaults.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Edge devices = broker partitions ("every edge device is assigned a
    /// dedicated partition").
    pub devices: usize,
    /// Consumer tasks; defaults to `devices` ("we keep the ratio of
    /// partitions constant between Kafka and Dask").
    pub processors: usize,
    /// Deployment modality.
    pub mode: DeploymentMode,
    /// Producer rate per device in messages/second (0 = unthrottled).
    pub rate_per_device: f64,
    /// Max records per consumer fetch.
    pub fetch_max: usize,
    /// Wire codec for blocks crossing the network (paper Section II-D:
    /// "data compression to ensure that the amount of data movement is
    /// minimal"). Consumers auto-detect, so it can differ between runs.
    pub codec: pilot_datagen::Codec,
    /// Width of the cloud pilot's intra-task compute pool (threads a single
    /// model fit/score may fan out across). `None` (the default) sizes it
    /// from the cloud pilot's core count, so a 1-core pilot stays
    /// sequential and a multi-core pilot parallelises the ML hot path.
    /// Results are bit-identical at any width (see `pilot_dataflow::pool`).
    pub compute_threads: Option<usize>,
    /// Producer batching threshold in encoded bytes. `0` (the default)
    /// disables the batcher entirely: each message pays its own blocking
    /// edge→broker transfer, exactly as before. Any positive value turns
    /// on the pipelined transport: encoded messages accumulate until their
    /// summed size reaches this threshold (or [`Self::linger`] expires),
    /// then ship over one link reservation whose flight time overlaps the
    /// encoding of the next batches. Batches pay propagation once. How
    /// many may be in flight is not a knob: the devices share a byte
    /// credit of the edge→broker link's bandwidth-delay product.
    pub batch_max_bytes: usize,
    /// How long the first message of a producer batch may wait for
    /// batch-mates before the batch ships anyway (the `linger.ms` of
    /// Kafka's producer). `Duration::ZERO` (the default) ships every
    /// message immediately on its own reservation — still pipelined when
    /// `batch_max_bytes > 0`, just without coalescing. The window is a
    /// timer of the device's task, so a linger shorter than the send
    /// interval coalesces nothing across sends (a paced device whose next
    /// send falls after the window's close ships at once rather than wait
    /// the window out); on a high-latency link that trades batch size for
    /// latency. A positive linger
    /// with `batch_max_bytes == 0` is rejected by [`Self::validate`]
    /// (there is no batcher for the window to apply to, so it would
    /// silently do nothing).
    pub linger: Duration,
    /// Batches each consumer keeps in flight on the broker→cloud link
    /// ahead of the one it is processing. `0` (the default) fetches and
    /// transfers batch N+1 only after batch N is processed. At depth `d`
    /// the consumer fetches and reserves up to `d` further batches while
    /// the front one is in flight or being processed, so batch N+1 crosses
    /// the link while batch N is in `process_cloud`. The window is a queue
    /// of non-blocking link reservations inside the consumer's state
    /// machine — no extra thread — and the depth is re-read at every
    /// fetch, so it can be tuned live. Offsets are committed only through
    /// processed records at any depth.
    pub prefetch_depth: usize,
    /// Threads of the edge reactor that drives the devices. Every device
    /// is a polled state machine on this fixed pool (the paper's "edge
    /// devices are simulated with a Dask task", one core each): a device
    /// waiting for its next send time ([`Self::rate_per_device`]), for its
    /// batch's linger window or for a transfer to land parks on that
    /// deadline and costs no thread — so `devices` may exceed the pool by
    /// orders of magnitude. `None` (the default) sizes the pool from the
    /// edge pilot's core count; `Some(k)` overrides it and must not exceed
    /// that count. Per-device message content, ordering and sentinel
    /// semantics are the same at every `k`. `Some(0)` is rejected by
    /// [`Self::validate`].
    pub producer_threads: Option<usize>,
    /// Live-telemetry sampling interval in milliseconds. `None` (the
    /// default) disables the telemetry plane entirely: no gauges are
    /// registered, no sampler thread runs, and the per-message hot path
    /// carries zero extra instructions. `Some(ms)` registers per-stage
    /// gauges (producer deadline-queue and credit-wait depth, in-flight
    /// batch bytes,
    /// prefetch occupancy, per-partition consumer lag, link
    /// reservation-queue depth and busy time, compute-pool occupancy) and
    /// spawns a sampler thread snapshotting them every `ms` milliseconds
    /// into a frame ring retrievable mid-run from
    /// [`RunningPipeline::telemetry`]. `Some(0)` is rejected by
    /// [`Self::validate`].
    pub telemetry_sample_ms: Option<u64>,
    /// Threads of the reactor that drives the consumer members. Every
    /// member is a waker-based state machine on this fixed pool: a parked
    /// member costs no thread, fetch readiness comes from the broker's
    /// arrival registry (exact wakeups, no `notify_all` herd), and
    /// broker→cloud transfers park on the link reservation's deadline
    /// instead of sleeping — so `processors` may exceed the pool by orders
    /// of magnitude. `None` (the default) sizes the pool from the cloud
    /// pilot's core count; `Some(k)` overrides it and must not exceed
    /// that count. `Some(0)` is rejected by [`Self::validate`].
    pub reactor_threads: Option<usize>,
    /// Durable broker log. `None` (the default) keeps the seed's
    /// memory-only commit log: nothing touches disk, nothing survives the
    /// process. `Some(dir)` persists every partition of the pipeline topic
    /// under `dir` through the broker's segmented storage engine: appends
    /// mirror into per-partition segment files, a group-commit flusher
    /// fsyncs all partitions once per commit window (the engine defaults:
    /// 5 ms or 1 MiB, whichever comes first) and advances the durable
    /// watermark, cold segments are evicted from memory (bounding
    /// the resident footprint of unbounded runs), and reopening the same
    /// directory recovers the log — truncating any torn tail a crash left.
    /// See `pilot_broker::storage`.
    pub log_dir: Option<std::path::PathBuf>,
    /// The feedback controller (DESIGN.md §15). `None` (the default) runs
    /// no control loop: no controller thread, no `control.*` gauges, a
    /// fixed-width compute pool, and every stage knob frozen at its
    /// configured value — bit-identical to the pre-controller runtime.
    /// `Some(cfg)` spawns a controller thread with the pipeline that
    /// samples consumer lag (and, with the telemetry plane on, the
    /// bottleneck attribution) every `cfg.tick`, and turns the live knobs
    /// — consumer pool, compute-pool width, batching, prefetch depth,
    /// fetch budget, optionally model placement — within `cfg.bounds`.
    /// Decisions are journalled; read them via
    /// [`RunningPipeline::control_events`]. The compute pool is created
    /// resizable up to `cfg.bounds.max_compute`.
    pub controller: Option<crate::control::ControllerConfig>,
    /// `Some(cfg)` opens the observability front door (DESIGN.md §16): an
    /// HTTP/SSE gateway bound to `cfg.bind` serving live metrics,
    /// telemetry, traces, the control journal, tune ingestion, and record
    /// ingestion. `None` (the default) builds nothing — no socket, no
    /// threads, no `gateway.*` gauges.
    pub gateway: Option<pilot_gateway::GatewayConfig>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            devices: 1,
            processors: 1,
            mode: DeploymentMode::CloudCentric,
            rate_per_device: 0.0,
            fetch_max: 4,
            codec: pilot_datagen::Codec::F64,
            compute_threads: None,
            batch_max_bytes: 0,
            linger: Duration::ZERO,
            prefetch_depth: 0,
            producer_threads: None,
            telemetry_sample_ms: None,
            reactor_threads: None,
            log_dir: None,
            controller: None,
            gateway: None,
        }
    }
}

/// Pipeline construction / runtime errors.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// A required builder field was not set.
    Missing(&'static str),
    /// A pilot is not Active (activate pilots before building — step 1
    /// precedes step 2 in Fig. 1).
    PilotNotReady {
        which: &'static str,
        state: PilotState,
    },
    /// A pilot is too small for the requested topology.
    Capacity(String),
    /// The knob combination is inconsistent (see
    /// [`PipelineConfig::validate`]).
    Config(String),
    /// The broker rejected an operation.
    Broker(String),
    /// Task submission failed.
    Task(String),
    /// The run did not finish within the allotted time.
    Timeout,
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Missing(what) => write!(f, "builder field missing: {what}"),
            PipelineError::PilotNotReady { which, state } => {
                write!(f, "pilot '{which}' is not active (state: {state})")
            }
            PipelineError::Capacity(msg) => write!(f, "insufficient pilot capacity: {msg}"),
            PipelineError::Config(msg) => write!(f, "invalid pipeline config: {msg}"),
            PipelineError::Broker(msg) => write!(f, "broker error: {msg}"),
            PipelineError::Task(msg) => write!(f, "task error: {msg}"),
            PipelineError::Timeout => write!(f, "pipeline run timed out"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<BrokerError> for PipelineError {
    fn from(e: BrokerError) -> Self {
        PipelineError::Broker(e.to_string())
    }
}

/// Builder for an edge-to-cloud pipeline.
pub struct EdgeToCloudPipeline {
    pub(crate) pilot_edge: Option<Pilot>,
    pub(crate) pilot_cloud_processing: Option<Pilot>,
    pub(crate) pilot_cloud_broker: Option<Pilot>,
    pub(crate) produce_factory: Option<ProduceFactory>,
    pub(crate) edge_factory: EdgeFactory,
    pub(crate) cloud_factory: Option<CloudFactory>,
    pub(crate) settings: HashMap<String, String>,
    pub(crate) link_edge_broker: Link,
    pub(crate) link_broker_cloud: Link,
    pub(crate) metrics: Option<MetricsRegistry>,
    pub(crate) config: PipelineConfig,
}

impl EdgeToCloudPipeline {
    /// Start building a pipeline.
    pub fn builder() -> Self {
        Self {
            pilot_edge: None,
            pilot_cloud_processing: None,
            pilot_cloud_broker: None,
            produce_factory: None,
            edge_factory: identity_edge_factory(),
            cloud_factory: None,
            settings: HashMap::new(),
            link_edge_broker: Link::loopback(),
            link_broker_cloud: Link::loopback(),
            metrics: None,
            config: PipelineConfig::default(),
        }
    }

    /// The pilot hosting the edge devices (producer tasks).
    pub fn pilot_edge(mut self, p: Pilot) -> Self {
        self.pilot_edge = Some(p);
        self
    }

    /// The pilot hosting cloud processing (consumer tasks).
    pub fn pilot_cloud_processing(mut self, p: Pilot) -> Self {
        self.pilot_cloud_processing = Some(p);
        self
    }

    /// The pilot hosting the broker and parameter server. Defaults to the
    /// cloud-processing pilot.
    pub fn pilot_cloud_broker(mut self, p: Pilot) -> Self {
        self.pilot_cloud_broker = Some(p);
        self
    }

    /// The `produce_edge` handler factory.
    pub fn produce_function(mut self, f: ProduceFactory) -> Self {
        self.produce_factory = Some(f);
        self
    }

    /// The `process_edge` handler factory (identity by default).
    pub fn process_edge_function(mut self, f: EdgeFactory) -> Self {
        self.edge_factory = f;
        self
    }

    /// The `process_cloud` handler factory.
    pub fn process_cloud_function(mut self, f: CloudFactory) -> Self {
        self.cloud_factory = Some(f);
        self
    }

    /// Application settings exposed through the context object.
    pub fn function_context(mut self, settings: HashMap<String, String>) -> Self {
        self.settings = settings;
        self
    }

    /// The simulated link producers cross to reach the broker.
    pub fn link_edge_to_broker(mut self, link: Link) -> Self {
        self.link_edge_broker = link;
        self
    }

    /// The simulated link consumers cross to reach the broker.
    pub fn link_broker_to_cloud(mut self, link: Link) -> Self {
        self.link_broker_cloud = link;
        self
    }

    /// Use an existing metrics registry (so multiple runs share one
    /// clock); a fresh one is created otherwise.
    pub fn metrics(mut self, registry: MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Number of edge devices (= partitions). Also sets `processors` to
    /// match, preserving the paper's 1:1 ratio; call
    /// [`Self::processors`] afterwards to override.
    pub fn devices(mut self, n: usize) -> Self {
        self.config.devices = n;
        self.config.processors = n;
        self
    }

    /// Number of cloud consumer tasks.
    pub fn processors(mut self, n: usize) -> Self {
        self.config.processors = n;
        self
    }

    /// Deployment modality.
    pub fn mode(mut self, mode: DeploymentMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Per-device producer rate (messages/second; 0 = unthrottled).
    pub fn rate_per_device(mut self, rate: f64) -> Self {
        self.config.rate_per_device = rate;
        self
    }

    /// Wire codec for data crossing the network.
    pub fn codec(mut self, codec: pilot_datagen::Codec) -> Self {
        self.config.codec = codec;
        self
    }

    /// Width of the intra-task compute pool shared by the cloud processors
    /// (defaults to the cloud pilot's core count). `1` forces the ML hot
    /// path fully sequential; scores are bit-identical either way.
    pub fn compute_threads(mut self, n: usize) -> Self {
        self.config.compute_threads = Some(n);
        self
    }

    /// Producer batching threshold in encoded bytes (0 = off, the
    /// default). See [`PipelineConfig::batch_max_bytes`].
    pub fn batch_max_bytes(mut self, bytes: usize) -> Self {
        self.config.batch_max_bytes = bytes;
        self
    }

    /// Max time the first message of a producer batch waits for
    /// batch-mates. Requires `batch_max_bytes > 0` (a positive linger
    /// without batching is rejected at start). See
    /// [`PipelineConfig::linger`].
    pub fn linger(mut self, linger: Duration) -> Self {
        self.config.linger = linger;
        self
    }

    /// Batches each consumer keeps in flight ahead of processing (0 = none,
    /// the default). See [`PipelineConfig::prefetch_depth`].
    pub fn prefetch_depth(mut self, depth: usize) -> Self {
        self.config.prefetch_depth = depth;
        self
    }

    /// Drive the edge devices on `n` reactor threads instead of one per
    /// edge-pilot core. See [`PipelineConfig::producer_threads`].
    pub fn producer_threads(mut self, n: usize) -> Self {
        self.config.producer_threads = Some(n);
        self
    }

    /// Turn on the live telemetry plane, sampling stage gauges every `ms`
    /// milliseconds. See [`PipelineConfig::telemetry_sample_ms`] and
    /// [`RunningPipeline::telemetry`].
    pub fn telemetry_sample_ms(mut self, ms: u64) -> Self {
        self.config.telemetry_sample_ms = Some(ms);
        self
    }

    /// Drive the consumer members on `n` reactor threads instead of one
    /// per cloud-pilot core. See [`PipelineConfig::reactor_threads`].
    pub fn reactor_threads(mut self, n: usize) -> Self {
        self.config.reactor_threads = Some(n);
        self
    }

    /// Persist the broker log under `dir` (durable, crash-recoverable
    /// topic). See [`PipelineConfig::log_dir`].
    pub fn log_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.config.log_dir = Some(dir.into());
        self
    }

    /// Attach the feedback controller: a control loop spawned with the
    /// pipeline that closes the telemetry→knob loop (consumer pool,
    /// compute width, batching, prefetch, fetch budget, model placement).
    /// See [`PipelineConfig::controller`] and [`crate::control`].
    pub fn controller(mut self, config: crate::control::ControllerConfig) -> Self {
        self.config.controller = Some(config);
        self
    }

    /// Open the observability front door: an HTTP/SSE gateway serving this
    /// pipeline's metrics, telemetry, traces, and control journal, and
    /// accepting live tunes and record ingestion. See
    /// [`PipelineConfig::gateway`] and [`RunningPipeline::gateway_addr`].
    ///
    /// [`RunningPipeline::gateway_addr`]: crate::runtime::RunningPipeline::gateway_addr
    pub fn gateway(mut self, config: pilot_gateway::GatewayConfig) -> Self {
        self.config.gateway = Some(config);
        self
    }

    fn require_active(p: &Option<Pilot>, which: &'static str) -> Result<Pilot, PipelineError> {
        let p = p.as_ref().ok_or(PipelineError::Missing(which))?;
        if p.state() != PilotState::Active {
            return Err(PipelineError::PilotNotReady {
                which,
                state: p.state(),
            });
        }
        Ok(p.clone())
    }

    /// Validate and start the pipeline; returns a handle to the running
    /// system.
    pub fn start(self) -> Result<RunningPipeline, PipelineError> {
        let edge = Self::require_active(&self.pilot_edge, "pilot_edge")?;
        let cloud = Self::require_active(&self.pilot_cloud_processing, "pilot_cloud_processing")?;
        let broker_pilot = match &self.pilot_cloud_broker {
            Some(_) => Self::require_active(&self.pilot_cloud_broker, "pilot_cloud_broker")?,
            None => cloud.clone(),
        };
        if self.produce_factory.is_none() {
            return Err(PipelineError::Missing("produce_function"));
        }
        if self.cloud_factory.is_none() {
            return Err(PipelineError::Missing("process_cloud_function"));
        }
        let cfg = &self.config;
        // Knob consistency (devices/processors > 0, no zero-width pools,
        // no linger without batching) — see `PipelineConfig::validate`.
        cfg.validate()?;
        // Each reactor multiplexes its stage's tasks onto its threads (one
        // per core of its pilot unless overridden), so a pilot needs a core
        // per reactor thread, however many devices or processors run on
        // them.
        for (which, pilot, threads) in [
            ("edge", &edge, cfg.producer_threads),
            ("cloud", &cloud, cfg.reactor_threads),
        ] {
            let cores = pilot.description().cores;
            if let Some(k) = threads.filter(|&k| k > cores) {
                return Err(PipelineError::Capacity(format!(
                    "{which} pilot has {cores} cores but {k} reactor threads \
                     were requested"
                )));
            }
        }
        runtime::start(self, edge, cloud, broker_pilot)
    }

    /// Start, wait for completion, and return the run summary — the
    /// blocking `run()` of Listing 2.
    pub fn run(self, timeout: Duration) -> Result<RunSummary, PipelineError> {
        let running = self.start()?;
        running.wait(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processors::{baseline_factory, datagen_produce_factory};
    use pilot_core::{PilotComputeService, PilotDescription};
    use pilot_datagen::DataGenConfig;

    fn active_pilot(svc: &PilotComputeService, cores: usize) -> Pilot {
        svc.submit_and_wait(PilotDescription::local(cores, 8.0), Duration::from_secs(5))
            .unwrap()
    }

    #[test]
    fn builder_rejects_missing_fields() {
        let err = EdgeToCloudPipeline::builder().start().unwrap_err();
        assert_eq!(err, PipelineError::Missing("pilot_edge"));
    }

    #[test]
    fn builder_rejects_inactive_pilot() {
        let svc = PilotComputeService::new();
        // An edge pilot with a boot delay will not be Active immediately.
        let slow = svc
            .create_pilot(PilotDescription::edge_device("pi", "lab"))
            .unwrap();
        let cloud = active_pilot(&svc, 2);
        if slow.state() != PilotState::Active {
            let err = EdgeToCloudPipeline::builder()
                .pilot_edge(slow)
                .pilot_cloud_processing(cloud)
                .produce_function(datagen_produce_factory(DataGenConfig::paper(5), 1))
                .process_cloud_function(baseline_factory())
                .start()
                .unwrap_err();
            assert!(matches!(err, PipelineError::PilotNotReady { .. }));
        }
    }

    #[test]
    fn builder_rejects_undersized_pilots() {
        let svc = PilotComputeService::new();
        let edge = active_pilot(&svc, 1);
        let cloud = active_pilot(&svc, 1);
        // More edge reactor threads than edge cores is rejected; more
        // devices than cores is not (devices share the reactor).
        let err = EdgeToCloudPipeline::builder()
            .pilot_edge(edge.clone())
            .pilot_cloud_processing(cloud.clone())
            .produce_function(datagen_produce_factory(DataGenConfig::paper(5), 1))
            .process_cloud_function(baseline_factory())
            .devices(4)
            .producer_threads(2)
            .start()
            .unwrap_err();
        assert!(matches!(err, PipelineError::Capacity(_)), "{err}");
        let summary = EdgeToCloudPipeline::builder()
            .pilot_edge(edge.clone())
            .pilot_cloud_processing(cloud.clone())
            .produce_function(datagen_produce_factory(DataGenConfig::paper(5), 1))
            .process_cloud_function(baseline_factory())
            .devices(4)
            .run(Duration::from_secs(30))
            .unwrap();
        assert_eq!(summary.messages, 4, "4 devices × 1 message on 1 + 1 cores");
        // More reactor threads than cloud cores is rejected too; more
        // processors than cores is not (members share the reactor).
        let err = EdgeToCloudPipeline::builder()
            .pilot_edge(edge)
            .pilot_cloud_processing(cloud)
            .produce_function(datagen_produce_factory(DataGenConfig::paper(5), 1))
            .process_cloud_function(baseline_factory())
            .reactor_threads(2)
            .start()
            .unwrap_err();
        assert!(matches!(err, PipelineError::Capacity(_)), "{err}");
    }

    #[test]
    fn start_rejects_inconsistent_knobs() {
        // validate() runs inside start(): a linger without batching must
        // be rejected before any resource is provisioned.
        let svc = PilotComputeService::new();
        let edge = active_pilot(&svc, 1);
        let cloud = active_pilot(&svc, 1);
        let err = EdgeToCloudPipeline::builder()
            .pilot_edge(edge)
            .pilot_cloud_processing(cloud)
            .produce_function(datagen_produce_factory(DataGenConfig::paper(5), 1))
            .process_cloud_function(baseline_factory())
            .linger(Duration::from_millis(2))
            .start()
            .unwrap_err();
        assert!(matches!(err, PipelineError::Config(_)), "{err}");
    }

    #[test]
    fn devices_sets_processors_to_match() {
        let b = EdgeToCloudPipeline::builder().devices(4);
        assert_eq!(b.config.devices, 4);
        assert_eq!(b.config.processors, 4);
        let b = b.processors(2);
        assert_eq!(b.config.processors, 2);
    }

    #[test]
    fn error_display() {
        assert!(PipelineError::Missing("produce_function")
            .to_string()
            .contains("produce_function"));
        assert!(PipelineError::Timeout.to_string().contains("timed out"));
    }
}
