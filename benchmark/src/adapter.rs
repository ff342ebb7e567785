//! The only file that touches the repo's crates.
//!
//! Everything else in this package speaks plain types (`PipelineSpec`,
//! `Hooks`, `LayerCounts`, `LayerOp`), so when a later issue deletes a knob
//! or merges two runtime shapes, this file is retargeted and the workloads,
//! the statistics and the metric names stay put.
//!
//! Repo surface pinned here (a rename or removal of any of these breaks the
//! build of this package and nothing else):
//!
//! * `pilot_core`: `PilotComputeService::{new, submit_and_wait, submit_fleet}`,
//!   `PilotDescription::{local, pooled}`.
//! * `pilot_edge::EdgeToCloudPipeline` builder methods: `pilot_edge`,
//!   `pilot_cloud_processing`, `produce_function`, `process_cloud_function`,
//!   `devices`, `processors`, `rate_per_device`, `compute_threads`,
//!   `batch_max_bytes`, `linger`, `prefetch_depth`, `producer_threads`,
//!   `reactor_threads`, `log_dir`, `link_edge_to_broker`,
//!   `link_broker_to_cloud`, `metrics`, `start`; `RunningPipeline::{broker,
//!   context, wait}`; `RunSummary::{messages, errors}`;
//!   `PipelineConfig::default().fetch_max`;
//!   `processors::paper_model_factory`; the `ProduceFactory` / `CloudFactory`
//!   closure shapes and `Context::{params, compute}`.
//! * `pilot_edge::federation`: `FederationConfig` fields `cells`, `regions`,
//!   `devices_per_cell`, `messages_per_device`, `points`, `seed`, `skew`,
//!   `reactor_threads`, `compute_threads`, `round_every`, `merge_interval`,
//!   `cell_factory`; `start`, `streaming_mean_factory`,
//!   `RunningFederation::wait`, `FederationSummary::{processed, global,
//!   params_gets, params_puts, reactor_polls}`.
//! * Stats accessors: `Link::{busy_us, reservations}`,
//!   `ParameterServer::stats`, `Broker::log_stats`,
//!   `MetricsRegistry::span_count`, `ComputePool::jobs_started`.
//! * The durable log's group-commit threads are named `flusher-<topic>`
//!   (`storage_cpu_ns` finds them by that prefix).
//! * Layer probes: `DataGenerator::next_block`, `encode_with_into`,
//!   `decode_any_into`, `Link::{reserve_batch, transfer}`,
//!   `Broker::{create_topic, create_topic_durable, append}`,
//!   `Consumer::{new, poll, commit}`, `LocalExecutor::{new, spawn,
//!   shutdown}`, `ReactorHandle::wake`, `ComputePool::{new, run}`,
//!   `ParameterServer::{put, update, get_if_newer, get_many_if_newer}`,
//!   `MetricsRegistry::{record, counter}`.

use bytes::BytesMut;
use pilot_broker::{Broker, Consumer, DurabilityConfig, Record, RetentionPolicy};
use pilot_core::{PilotComputeService, PilotDescription};
use pilot_dataflow::{ComputePool, LocalExecutor, ReactorPoll, ReactorTask};
use pilot_datagen::{
    decode_any_into, encode_with_into, Block, Codec, DataGenConfig, DataGenerator,
};
use pilot_edge::federation::{self, FederationConfig, RunningFederation};
use pilot_edge::processors::paper_model_factory;
use pilot_edge::{
    CloudFactory, Context, EdgeToCloudPipeline, ProcessOutcome, ProduceFactory, RunningPipeline,
};
use pilot_metrics::{Component, MetricsRegistry};
use pilot_ml::ModelKind;
use pilot_netsim::{profiles, Link};
use pilot_params::{MergePolicy, ParameterServer};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::task::Waker;
use std::time::{Duration, Instant};

/// Features per point in every paper workload.
pub const FEATURES: usize = 32;

/// The three paper models a cloud function can run, in ensemble order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    KMeans,
    IsoForest,
    AutoEncoder,
}

/// What the benchmark's own closures report, in plain types. The ledger in
/// `workloads.rs` implements it.
pub trait Hooks: Send + Sync {
    /// Gate in front of `device`'s next message: may block (closed-loop
    /// window), returns the sequence number to stamp, or `None` to end the
    /// device's stream.
    fn next_seq(&self, device: usize) -> Option<u64>;
    /// A payload was generated for `(device, seq)`; stamp it in place.
    /// `gen_ns` is how long `DataGenerator::next_block` took.
    fn produced(&self, device: usize, seq: u64, data: &mut [f64], gen_ns: u64);
    /// `process_cloud` is about to return for this payload. `step_ns[i]` is
    /// how long the i-th model of the spec took (empty for the baseline).
    fn processed(&self, data: &[f64], step_ns: &[u64]);
}

/// One single-cell pipeline, in the knobs the four workloads need.
#[derive(Debug, Clone)]
pub struct PipelineSpec {
    pub devices: usize,
    pub points: usize,
    /// Messages per second per device; 0 = unthrottled.
    pub rate_per_device: f64,
    /// `Some(k)`: multiplex devices onto k producer workers; `None`: one
    /// dedicated producer task per device.
    pub producer_threads: Option<usize>,
    /// `Some(k)`: reactor consumer core on k threads; `None`: one
    /// thread-backed cloud task per processor.
    pub reactor_threads: Option<usize>,
    pub processors: usize,
    pub compute_threads: usize,
    /// `(batch_max_bytes, linger)`; `None` = serial per-message transport.
    pub batch: Option<(usize, Duration)>,
    pub prefetch_depth: usize,
    /// Edge→broker link: transatlantic when true, intra-cloud otherwise.
    pub wan: bool,
    /// Durable broker log under the run's scratch directory.
    pub durable: bool,
    /// Models run in turn on every message; empty = the paper's baseline.
    pub models: &'static [Model],
}

/// Counts read from public stats accessors after a run.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// Distinct messages the system's own report saw end to end.
    pub reported_messages: u64,
    /// Failed spans / process errors the system reported.
    pub errors: u64,
    pub edge_reservations: u64,
    pub edge_busy_us: u64,
    pub cloud_reservations: u64,
    pub cloud_busy_us: u64,
    pub fsyncs: u64,
    pub fsync_us: u64,
    /// `storage_cpu_ns()` when `wait()` returned.
    pub storage_cpu_ns: u64,
    pub pool_jobs: u64,
    pub param_puts: u64,
    pub param_gets: u64,
    pub spans: u64,
    pub reactor_polls: u64,
}

/// CPU time so far of this process's live durable-log flusher threads, in
/// nanoseconds: the first field of `/proc/self/task/<tid>/schedstat` for
/// every thread whose name starts with `flusher-`. 0 when there is none.
pub fn storage_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|name| name.starts_with("flusher-"))
        })
        .filter_map(|task| {
            let stat = std::fs::read_to_string(task.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

fn model_kind(m: Model) -> ModelKind {
    match m {
        Model::KMeans => ModelKind::KMeans,
        Model::IsoForest => ModelKind::IsolationForest,
        Model::AutoEncoder => ModelKind::AutoEncoder,
    }
}

fn edge_link(wan: bool, seed: u64) -> Link {
    if wan {
        profiles::transatlantic("edge->broker(wan)", seed).build()
    } else {
        profiles::cloud_local("edge->broker", seed).build()
    }
}

/// The benchmark's `produce_edge`: one seeded generator per device, gated and
/// stamped through the hooks.
fn produce_factory(points: usize, seed: u64, hooks: Arc<dyn Hooks>, trace: bool) -> ProduceFactory {
    Arc::new(move |_ctx: &Context, device: usize| {
        let cfg = DataGenConfig::paper(points).with_seed(seed ^ ((device as u64) << 32));
        let mut generator = DataGenerator::new(cfg);
        let hooks = Arc::clone(&hooks);
        Box::new(move |_ctx: &Context| {
            let seq = hooks.next_seq(device)?;
            let t0 = trace.then(Instant::now);
            let mut block = generator.next_block();
            let gen_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
            hooks.produced(device, seq, &mut block.data, gen_ns);
            Some(block)
        })
    })
}

/// The benchmark's `process_cloud`: the spec's models in turn (each the
/// repo's own paper-configured processor, doing its full update → score →
/// threshold → publish step), then the delivery record.
fn cloud_factory(models: &'static [Model], hooks: Arc<dyn Hooks>, trace: bool) -> CloudFactory {
    let inner: Vec<CloudFactory> = if models.is_empty() {
        vec![paper_model_factory(ModelKind::Baseline, FEATURES)]
    } else {
        models
            .iter()
            .map(|m| paper_model_factory(model_kind(*m), FEATURES))
            .collect()
    };
    Arc::new(move |ctx: &Context| {
        let mut steps: Vec<_> = inner.iter().map(|f| f(ctx)).collect();
        let mut step_ns = vec![0u64; if models.is_empty() { 0 } else { steps.len() }];
        let hooks = Arc::clone(&hooks);
        Box::new(move |ctx: &Context, block: &Block| {
            let mut outcome = ProcessOutcome::default();
            for (i, step) in steps.iter_mut().enumerate() {
                let t0 = trace.then(Instant::now);
                outcome = step(ctx, block)?;
                if let (Some(slot), Some(t0)) = (step_ns.get_mut(i), t0) {
                    *slot = t0.elapsed().as_nanos() as u64;
                }
            }
            hooks.processed(&block.data, &step_ns);
            Ok(outcome)
        })
    })
}

/// A started pipeline plus the handles its counts are read from.
pub struct LivePipeline {
    running: RunningPipeline,
    // Dropping the service cancels the pilots; keep it for the run.
    _svc: PilotComputeService,
    edge_link: Link,
    cloud_link: Link,
    registry: MetricsRegistry,
    broker: Broker,
    params: ParameterServer,
    compute: Arc<ComputePool>,
}

/// Everything `setup_s` covers for a pipeline: pilots to Active, topic
/// creation or durable-log open, link build, stage / member / device spawn.
/// With `trace` the closures also time their calls into `DataGenerator` and
/// the models; without it they only stamp and check.
pub fn start_pipeline(
    spec: &PipelineSpec,
    seed: u64,
    hooks: Arc<dyn Hooks>,
    trace: bool,
    log_dir: Option<&Path>,
) -> Result<LivePipeline, String> {
    let svc = PilotComputeService::new();
    let edge_cores = spec.producer_threads.unwrap_or(spec.devices);
    let cloud_cores = spec.reactor_threads.unwrap_or(spec.processors);
    let timeout = Duration::from_secs(10);
    let edge = svc
        .submit_and_wait(PilotDescription::local(edge_cores, 4.0), timeout)
        .map_err(|e| format!("edge pilot: {e}"))?;
    let cloud = svc
        .submit_and_wait(PilotDescription::local(cloud_cores, 8.0), timeout)
        .map_err(|e| format!("cloud pilot: {e}"))?;
    let edge_link = edge_link(spec.wan, seed);
    let cloud_link = profiles::cloud_local("broker->cloud", seed + 1).build();
    let registry = MetricsRegistry::new();
    let mut builder = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(produce_factory(
            spec.points,
            seed,
            Arc::clone(&hooks),
            trace,
        ))
        .process_cloud_function(cloud_factory(spec.models, hooks, trace))
        .devices(spec.devices)
        .processors(spec.processors)
        .rate_per_device(spec.rate_per_device)
        .compute_threads(spec.compute_threads)
        .prefetch_depth(spec.prefetch_depth)
        .link_edge_to_broker(edge_link.clone())
        .link_broker_to_cloud(cloud_link.clone())
        .metrics(registry.clone());
    if let Some((bytes, linger)) = spec.batch {
        builder = builder.batch_max_bytes(bytes).linger(linger);
    }
    if let Some(k) = spec.producer_threads {
        builder = builder.producer_threads(k);
    }
    if let Some(k) = spec.reactor_threads {
        builder = builder.reactor_threads(k);
    }
    if spec.durable {
        builder = builder.log_dir(log_dir.ok_or("durable pipeline without a log directory")?);
    }
    let running = builder
        .start()
        .map_err(|e| format!("pipeline start: {e}"))?;
    Ok(LivePipeline {
        broker: running.broker(),
        params: running.context().params.clone(),
        compute: Arc::clone(&running.context().compute),
        running,
        _svc: svc,
        edge_link,
        cloud_link,
        registry,
    })
}

impl LivePipeline {
    /// `wait()` for every stream to drain, then read the counts.
    pub fn finish(self, timeout: Duration) -> Result<LayerCounts, String> {
        let summary = self
            .running
            .wait(timeout)
            .map_err(|e| format!("pipeline wait: {e}"))?;
        // The flusher threads live as long as `self.broker` does.
        let storage_cpu_ns = storage_cpu_ns();
        let log = self.broker.log_stats();
        let params = self.params.stats();
        Ok(LayerCounts {
            reported_messages: summary.messages,
            errors: summary.errors,
            edge_reservations: self.edge_link.reservations(),
            edge_busy_us: self.edge_link.busy_us(),
            cloud_reservations: self.cloud_link.reservations(),
            cloud_busy_us: self.cloud_link.busy_us(),
            fsyncs: log.fsync_count,
            fsync_us: log.fsync_us,
            storage_cpu_ns,
            pool_jobs: self.compute.jobs_started(),
            param_puts: params.puts.load(Ordering::Relaxed),
            param_gets: params.gets.load(Ordering::Relaxed),
            spans: self.registry.span_count() as u64,
            reactor_polls: 0,
        })
    }
}

/// One federation repetition, in the knobs the workload needs.
#[derive(Debug, Clone)]
pub struct FederationSpec {
    pub cells: usize,
    pub regions: usize,
    pub devices_per_cell: usize,
    pub messages_per_device: usize,
    pub points: usize,
    pub reactor_threads: usize,
}

impl FederationSpec {
    pub fn messages(&self) -> u64 {
        (self.cells * self.devices_per_cell * self.messages_per_device) as u64
    }
}

/// Records per partition a pipeline consumer fetches per poll (the repo's
/// default; no workload overrides it).
pub fn pipeline_fetch_max() -> usize {
    pilot_edge::PipelineConfig::default().fetch_max
}

/// Records per partition a federation cell consumer fetches per poll.
pub fn federation_fetch_max() -> usize {
    FederationConfig::default().fetch_max
}

pub struct LiveFederation(RunningFederation);

/// What a federation repetition left behind.
pub struct FederationOutcome {
    pub processed: u64,
    /// Sample count of the final global model (0 if none was published).
    pub global_samples: f64,
    pub counts: LayerCounts,
}

/// Everything `setup_s` covers for the federation: the pooled fleet to
/// Active, per-cell brokers and topics, the shared reactor, every cell task.
/// `on_processed` runs after the built-in FedAvg participant handled a
/// message.
pub fn start_federation(
    spec: &FederationSpec,
    seed: u64,
    on_processed: Arc<dyn Fn() + Send + Sync>,
) -> Result<LiveFederation, String> {
    let round_every = 1;
    let participant = federation::streaming_mean_factory(round_every);
    let cell_factory: CloudFactory = Arc::new(move |ctx: &Context| {
        let mut inner = participant(ctx);
        let on_processed = Arc::clone(&on_processed);
        Box::new(move |ctx: &Context, block: &Block| {
            let outcome = inner(ctx, block)?;
            on_processed();
            Ok(outcome)
        })
    });
    federation::start(FederationConfig {
        cells: spec.cells,
        regions: spec.regions,
        devices_per_cell: spec.devices_per_cell,
        messages_per_device: spec.messages_per_device,
        points: spec.points,
        seed,
        skew: 1.0,
        reactor_threads: spec.reactor_threads,
        compute_threads: 1,
        round_every,
        merge_interval: Duration::from_micros(500),
        cell_factory: Some(cell_factory),
        ..FederationConfig::default()
    })
    .map(LiveFederation)
}

impl LiveFederation {
    pub fn finish(self, timeout: Duration) -> Result<FederationOutcome, String> {
        let s = self.0.wait(timeout)?;
        Ok(FederationOutcome {
            processed: s.processed,
            global_samples: s.global.map_or(0.0, |(samples, _)| samples),
            counts: LayerCounts {
                reported_messages: s.processed,
                param_puts: s.params_puts,
                param_gets: s.params_gets,
                reactor_polls: s.reactor_polls,
                ..LayerCounts::default()
            },
        })
    }
}

/// One isolated layer probe: `run` performs its un-timed preparation, times
/// exactly the public call named in the metric, and returns that time.
/// `per` divides it (records per fetch, pilots per fleet, keys per batch).
pub struct LayerOp {
    pub name: &'static str,
    pub iterations: usize,
    pub per: f64,
    pub run: Box<dyn FnMut() -> Duration>,
}

fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let t0 = Instant::now();
    std::hint::black_box(f());
    t0.elapsed()
}

/// Sizes the probes replay: the workload's own message, consumer-member
/// count, fetch width and published-model length.
#[derive(Debug, Clone)]
pub struct ProbeSizes {
    pub points: usize,
    pub members: usize,
    pub fetch_max: usize,
    pub model_len: usize,
    pub wan: bool,
    pub fleet: usize,
}

/// The isolated single-thread probes, one per `*_us` layer metric that is not
/// timed live. Inputs are generated from `seed` at the workload's sizes;
/// durable appends go under `scratch`.
pub fn layer_ops(sizes: &ProbeSizes, seed: u64, scratch: &Path) -> Result<Vec<LayerOp>, String> {
    let mut generator = DataGenerator::new(DataGenConfig::paper(sizes.points).with_seed(seed));
    let block = generator.next_block();
    let mut enc_scratch = BytesMut::new();
    let payload = encode_with_into(Codec::F64, &block, 0, &mut enc_scratch);
    let bytes = payload.len() as u64;
    let mut ops: Vec<LayerOp> = Vec::new();
    let mut op = |name, iterations, per: f64, run: Box<dyn FnMut() -> Duration>| {
        ops.push(LayerOp {
            name,
            iterations,
            per,
            run,
        })
    };

    // pilot-core
    let svc = PilotComputeService::new();
    let cores = sizes.members.min(2);
    op(
        "core.pilot_submit_us",
        9,
        1.0,
        Box::new(move || {
            let mut pilot = None;
            let took = timed(|| {
                pilot = svc
                    .submit_and_wait(PilotDescription::local(cores, 4.0), Duration::from_secs(10))
                    .ok()
            });
            if let Some(p) = pilot {
                p.cancel();
            }
            took
        }),
    );
    let fleet = sizes.fleet;
    op(
        "core.fleet_submit_us_per_pilot",
        5,
        fleet as f64,
        Box::new(move || {
            let svc = PilotComputeService::new();
            let descs = vec![PilotDescription::pooled(1, 0.5); fleet];
            timed(|| svc.submit_fleet(descs, Duration::from_secs(30)))
        }),
    );

    // pilot-datagen
    op(
        "datagen.generate_us",
        200,
        1.0,
        Box::new(move || timed(|| generator.next_block())),
    );
    let enc_block = block.clone();
    op(
        "datagen.encode_us",
        200,
        1.0,
        Box::new(move || timed(|| encode_with_into(Codec::F64, &enc_block, 0, &mut enc_scratch))),
    );
    let dec_payload = payload.clone();
    let mut dec_block = block.clone();
    op(
        "datagen.decode_us",
        200,
        1.0,
        Box::new(move || timed(|| decode_any_into(&dec_payload, &mut dec_block))),
    );

    // pilot-netsim
    let loopback = Link::loopback();
    op(
        "netsim.reserve_us",
        2000,
        1.0,
        Box::new(move || timed(|| loopback.reserve_batch(&[bytes]))),
    );
    let profile_link = edge_link(sizes.wan, seed);
    op(
        "netsim.edge_link_wait_ms",
        9,
        1000.0,
        Box::new(move || timed(|| profile_link.transfer(bytes))),
    );

    // pilot-broker
    let broker = Broker::new();
    broker
        .create_topic("mem", 1, RetentionPolicy::default())
        .map_err(|e| e.to_string())?;
    let (b, p) = (broker.clone(), payload.clone());
    op(
        "broker.append_us",
        2000,
        1.0,
        Box::new(move || timed(|| b.append("mem", 0, Record::new(p.clone())))),
    );
    broker
        .create_topic_durable(
            "disk",
            1,
            RetentionPolicy::default(),
            &DurabilityConfig::new(scratch.join("probe-log")),
        )
        .map_err(|e| e.to_string())?;
    let (b, p) = (broker.clone(), payload.clone());
    op(
        "broker.append_durable_us",
        500,
        1.0,
        Box::new(move || timed(|| b.append("disk", 0, Record::new(p.clone())))),
    );
    // Fetch and commit replay against a topic pre-filled with exactly the
    // records the iterations will read.
    let fetch_iters = 200;
    broker
        .create_topic("fetch", 1, RetentionPolicy::default())
        .map_err(|e| e.to_string())?;
    for _ in 0..fetch_iters * sizes.fetch_max {
        broker
            .append("fetch", 0, Record::new(payload.clone()))
            .map_err(|e| e.to_string())?;
    }
    let consumer = Arc::new(Mutex::new(
        Consumer::new(broker.clone(), "fetch", "probe", &[0]).map_err(|e| e.to_string())?,
    ));
    let (c, fetch_max) = (Arc::clone(&consumer), sizes.fetch_max);
    op(
        "broker.fetch_us_per_record",
        fetch_iters,
        fetch_max as f64,
        Box::new(move || {
            let mut c = c.lock().expect("probe consumer lock");
            timed(|| c.poll(fetch_max, Duration::ZERO))
        }),
    );
    op(
        "broker.commit_us",
        2000,
        1.0,
        Box::new(move || {
            let c = consumer.lock().expect("probe consumer lock");
            timed(|| c.commit())
        }),
    );

    // pilot-dataflow
    let members = sizes.members;
    op(
        "dataflow.spawn_us",
        5,
        members as f64,
        Box::new(move || {
            let executor = LocalExecutor::new(2);
            let took = timed(|| {
                for i in 0..members {
                    executor.spawn(&format!("noop-{i}"), Box::new(Noop));
                }
            });
            executor.shutdown();
            took
        }),
    );
    let pool = ComputePool::new(2);
    op(
        "dataflow.pool_run_us",
        2000,
        1.0,
        Box::new(move || timed(|| pool.run(2, |_| {}))),
    );

    // pilot-params
    let server = ParameterServer::new();
    let model = vec![0.5f64; sizes.model_len];
    let (s, m) = (server.clone(), model.clone());
    op(
        "params.put_us",
        1000,
        1.0,
        Box::new(move || {
            let value = m.clone();
            timed(|| s.put("probe:put", value))
        }),
    );
    let (s, m) = (server.clone(), model.clone());
    op(
        "params.update_us",
        1000,
        1.0,
        Box::new(move || timed(|| s.update("probe:update", MergePolicy::Assign, &m))),
    );
    let s = server.clone();
    s.put("probe:get", model.clone());
    op(
        "params.get_if_newer_us",
        2000,
        1.0,
        Box::new(move || timed(|| s.get_if_newer("probe:get", 0))),
    );
    let keys: Vec<(String, u64)> = (0..8).map(|i| (format!("cell:{i}"), 0)).collect();
    for (k, _) in &keys {
        server.put(k, model.clone());
    }
    op(
        "params.get_many_if_newer_us_per_key",
        1000,
        keys.len() as f64,
        Box::new(move || timed(|| server.get_many_if_newer(&keys))),
    );

    // pilot-metrics
    let registry = MetricsRegistry::new();
    let r = registry.clone();
    let mut msg = 0u64;
    op(
        "metrics.span_record_us",
        5000,
        1.0,
        Box::new(move || {
            msg += 1;
            timed(|| r.record(1, msg, Component::Broker, msg, msg + 1, bytes))
        }),
    );
    registry.counter("points_processed");
    op(
        "metrics.counter_lookup_us",
        5000,
        1.0,
        Box::new(move || timed(|| registry.counter("points_processed"))),
    );
    Ok(ops)
}

struct Noop;

impl ReactorTask for Noop {
    fn poll(&mut self, _waker: &Waker) -> ReactorPoll {
        ReactorPoll::Complete(Ok(0))
    }
}

/// A task that parks until woken and stamps the instant of every poll.
struct Parked {
    polled_ns: Arc<AtomicU64>,
    epoch: Instant,
    stop: Arc<std::sync::atomic::AtomicBool>,
}

impl ReactorTask for Parked {
    fn poll(&mut self, _waker: &Waker) -> ReactorPoll {
        self.polled_ns
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Release);
        if self.stop.load(Ordering::Acquire) {
            ReactorPoll::Complete(Ok(0))
        } else {
            ReactorPoll::Pending
        }
    }
}

/// `ReactorHandle::wake` → first poll, with `members` parked tasks on two
/// reactor threads: `samples` wakes of tasks spread across the parked set.
pub fn wake_to_poll_samples(members: usize, samples: usize) -> Vec<Duration> {
    let executor = LocalExecutor::new(2);
    let epoch = Instant::now();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let tasks: Vec<_> = (0..members.max(1))
        .map(|i| {
            let polled_ns = Arc::new(AtomicU64::new(0));
            let handle = executor.spawn(
                &format!("parked-{i}"),
                Box::new(Parked {
                    polled_ns: Arc::clone(&polled_ns),
                    epoch,
                    stop: Arc::clone(&stop),
                }),
            );
            (handle, polled_ns)
        })
        .collect();
    // Let every task take its first poll and park.
    while tasks.iter().any(|(_, p)| p.load(Ordering::Acquire) == 0) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut out = Vec::with_capacity(samples);
    for i in 0..samples {
        let (handle, polled_ns) = &tasks[(i * 7919) % tasks.len()];
        let before = polled_ns.load(Ordering::Acquire);
        let woke = epoch.elapsed().as_nanos() as u64;
        handle.wake();
        let polled = loop {
            let now = polled_ns.load(Ordering::Acquire);
            if now != before {
                break now;
            }
            std::thread::yield_now();
        };
        out.push(Duration::from_nanos(polled.saturating_sub(woke)));
    }
    stop.store(true, Ordering::Release);
    for (handle, _) in &tasks {
        handle.wake();
    }
    for (handle, _) in &tasks {
        handle.wait_timeout(Duration::from_secs(5));
    }
    executor.shutdown();
    out
}
