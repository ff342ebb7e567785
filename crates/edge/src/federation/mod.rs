//! Continuum scale-out: a 1024-cell federation on shared pools (DESIGN.md §14).
//!
//! This module runs **N edge cells** — each with its own broker shard and
//! its own (pooled) pilot — feeding **regional aggregators** feeding **one
//! cloud tier**, with continuous hierarchical FedAvg over the sharded
//! parameter plane under skewed per-cell data. It is the scale-out answer
//! to the single-cell [`crate::pipeline::EdgeToCloudPipeline`]: where the
//! pipeline spends OS threads per stage, the federation multiplexes every
//! cell onto shared infrastructure so cost grows O(k) in threads while the
//! cell count grows to 1024:
//!
//! * **One cell state, one consumer.** A cell is the pipeline's own cell
//!   state (`runtime::Shared`, built by the same constructor) with one
//!   group member — the pipeline's `ConsumerStage` — plus a producer task
//!   for all of its devices (`cell.rs`). A cell has finished once its
//!   sentinel tracker has seen every partition's sentinel; a failing
//!   invocation of the cell function counts in `process_errors` and the
//!   stream goes on, as in the pipeline.
//! * **One reactor.** All cells' producer and consumer tasks are
//!   [`pilot_dataflow::ReactorTask`] state machines on a single
//!   [`pilot_dataflow::LocalExecutor`] — `reactor_threads` OS threads
//!   total, not `cells × stages`.
//! * **One compute pool.** Every cell's processing function shares one
//!   [`ComputePool`] through its [`Context`].
//! * **Pooled pilots.** Each cell, region, and the cloud tier is backed by
//!   a [`pilot_core::PilotDescription::pooled`] pilot: it books capacity
//!   and hosts frameworks (broker / parameter server) but takes no compute
//!   units (`Pilot::client` refuses), and a cell's compute runs on the
//!   shared reactor, so a 1024-pilot fleet adds no threads. The whole
//!   fleet activates on **one** lifecycle thread
//!   ([`pilot_core::PilotComputeService::submit_fleet`]).
//! * **Per-cell brokers.** Each cell appends to its own [`pilot_broker::Broker`]
//!   instance — no cross-cell broker lock, and consumer wakeups stay exact
//!   (a cell's consumer is woken by its own producer's append, nothing
//!   else).
//! * **Sharded parameter plane with batched merges.** Cells publish to
//!   their *regional* parameter server; regions merge with one batched
//!   [`pilot_params::ParameterServer::get_many_if_newer`] per round (one
//!   shard-lock acquisition per shard per batch, not per cell) and push
//!   one model up to the cloud server; the cloud merges regions the same
//!   way and publishes the global model, which regions mirror back down
//!   with one batched `put_many` (see `aggregate.rs` for the key layout).
//!
//! Defaults elsewhere are untouched: the federation is opt-in via
//! [`FederationConfig`] / [`start`] / [`run`], and a single cell run this
//! way delivers exactly the same per-device message streams as the
//! standalone pipeline (see `tests/federation.rs`).

mod aggregate;
mod cell;

pub use aggregate::{GLOBAL_KEY, REGION_KEY};

use crate::faas::{CloudFactory, Context, ProcessOutcome, ProduceFn};
use crate::observe::{Observability, RunView};
use crate::pipeline::PipelineConfig;
use crate::processors::datagen_produce_factory;
use crate::runtime::{spawn_members, Shared};
use aggregate::{CloudAggregatorTask, RegionAggregatorTask};
use cell::CellProducerTask;
use pilot_core::{PilotComputeService, PilotDescription};
use pilot_dataflow::{ComputePool, LocalExecutor, ReactorHandle};
use pilot_datagen::DataGenConfig;
use pilot_gateway::GatewayConfig;
use pilot_metrics::{Counter, MetricsRegistry, Probe, TelemetrySampler};
use pilot_netsim::Link;
use pilot_params::ParameterServer;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Gauge: cloud merge rounds completed.
pub const GAUGE_FED_ROUNDS: &str = "federation.rounds";
/// Gauge: milliseconds between the last two cloud merge rounds.
pub const GAUGE_FED_ROUND_MS: &str = "federation.round_ms";
/// Gauge: cells still streaming (total − completed).
pub const GAUGE_FED_CELLS_ACTIVE: &str = "federation.cells.active";
/// Gauge: edge-tier lag — messages appended but not yet processed.
pub const GAUGE_FED_LAG_CELLS: &str = "federation.lag.cells";
/// Gauge: bytes the cell brokers still hold — records at or above each
/// partition's commit floor, summed over every cell.
pub const GAUGE_FED_RETAINED_BYTES: &str = "federation.retained_bytes";
/// Gauge: region-tier lag — cell updates published but not yet merged.
pub const GAUGE_FED_LAG_REGIONS: &str = "federation.lag.regions";
/// Gauge: cloud-tier lag — region publishes not yet merged globally.
pub const GAUGE_FED_LAG_CLOUD: &str = "federation.lag.cloud";
/// Gauge: total parameter-plane gets (all regional servers + cloud).
pub const GAUGE_PARAMS_GETS: &str = "params.gets";
/// Gauge: total parameter-plane puts (all regional servers + cloud).
pub const GAUGE_PARAMS_PUTS: &str = "params.puts";

/// Counter: messages appended across all cells.
pub const CTR_PRODUCED: &str = "fed.produced";
/// Counter: messages processed across all cells — the pipeline's
/// `messages_processed` counter, which every cell's consumer stage bumps
/// (a failed invocation counts in `process_errors` instead).
pub const CTR_PROCESSED: &str = "messages_processed";
/// Counter: model updates cells published to their regional server.
pub const CTR_UPDATES_PUBLISHED: &str = "fed.updates_published";
/// Counter: fresh cell updates folded by region aggregators.
pub const CTR_UPDATES_MERGED: &str = "fed.updates_merged";
/// Counter: regional models published to the cloud server.
pub const CTR_REGION_PUBLISHES: &str = "fed.region_publishes";
/// Counter: fresh regional models folded by the cloud aggregator.
pub const CTR_REGION_MERGES: &str = "fed.region_merges";
/// Counter: times a cell observed a newer global model.
pub const CTR_GLOBAL_REFRESHES: &str = "fed.global_refreshes";

/// The federation gauges shown in the live table, in display order — one
/// list consumed by both the `pilot_top` federation scenario and the
/// federation gateway's `GET /top`, so the two renderings cannot drift.
pub const FEDERATION_GAUGES: &[&str] = &[
    GAUGE_FED_CELLS_ACTIVE,
    GAUGE_FED_LAG_CELLS,
    GAUGE_FED_RETAINED_BYTES,
    GAUGE_FED_LAG_REGIONS,
    GAUGE_FED_LAG_CLOUD,
    GAUGE_FED_ROUNDS,
    GAUGE_FED_ROUND_MS,
    GAUGE_PARAMS_GETS,
    GAUGE_PARAMS_PUTS,
    "consumer.reactor.ready_queue_depth",
];

/// Configuration of a federation run. Everything is opt-in: constructing
/// one of these (and calling [`start`]/[`run`]) is the only way any of
/// this machinery activates.
#[derive(Clone)]
pub struct FederationConfig {
    /// Number of edge cells (each gets its own broker + pooled pilot).
    pub cells: usize,
    /// Number of regional aggregation tiers (each gets its own parameter
    /// server). Cells are assigned round-robin: `region = cell % regions`.
    pub regions: usize,
    /// Devices per cell (= partitions of the cell's topic).
    pub devices_per_cell: usize,
    /// Messages each device emits before its sentinel.
    pub messages_per_device: usize,
    /// Points per message (the paper's "message size").
    pub points: usize,
    /// Base RNG seed; per-cell generator seeds derive deterministically
    /// (see [`Self::cell_datagen`]).
    pub seed: u64,
    /// Data skew across cells: cell `c`'s outlier fraction is scaled by
    /// `1 + skew · c/(cells-1)` (clamped to 50%). 0 = iid cells.
    pub skew: f64,
    /// Worker threads of the one shared reactor.
    pub reactor_threads: usize,
    /// Width of the one shared compute pool (≤1 = sequential, zero
    /// threads).
    pub compute_threads: usize,
    /// A cell publishes its model update every this many messages
    /// (1 = every message, making the final cell state exact).
    pub round_every: usize,
    /// Pacing of the region/cloud merge loops.
    pub merge_interval: Duration,
    /// Max records per partition a cell consumer fetches per poll.
    pub fetch_max: usize,
    /// Per-cell producer watermark: park while `appended − committed`
    /// is at or above this (0 = unbounded). The consumer's next commit
    /// wakes a parked producer.
    pub backpressure: usize,
    /// Sample interval for the telemetry thread; `None` = no telemetry
    /// thread at all.
    pub telemetry_sample_ms: Option<u64>,
    /// Processing function factory for every cell (`job_id` = cell id).
    /// `None` = the built-in streaming-mean FedAvg participant.
    pub cell_factory: Option<CloudFactory>,
    /// `Some(cfg)` opens the observability front door over the federation
    /// (DESIGN.md §16): `GET /metrics`, `/telemetry/frames`,
    /// `/telemetry/stream`, `/top`, and `/trace` over the run's registry.
    /// It is also what makes the cells record their consumer spans, which
    /// `/trace` and `/top` read. `None` (the default) builds nothing and
    /// records no span.
    pub gateway: Option<GatewayConfig>,
}

impl Default for FederationConfig {
    fn default() -> Self {
        Self {
            cells: 4,
            regions: 2,
            devices_per_cell: 4,
            messages_per_device: 8,
            points: 25,
            seed: 42,
            skew: 0.0,
            reactor_threads: 4,
            compute_threads: 1,
            round_every: 1,
            merge_interval: Duration::from_millis(1),
            fetch_max: 64,
            backpressure: 1024,
            telemetry_sample_ms: None,
            cell_factory: None,
            gateway: None,
        }
    }
}

impl FederationConfig {
    /// Check the topology is well-formed.
    pub fn validate(&self) -> Result<(), String> {
        if self.cells == 0 {
            return Err("cells must be >= 1".into());
        }
        if self.regions == 0 || self.regions > self.cells {
            return Err(format!(
                "regions must be in 1..={} (got {})",
                self.cells, self.regions
            ));
        }
        if self.devices_per_cell == 0 {
            return Err("devices_per_cell must be >= 1".into());
        }
        if self.messages_per_device == 0 {
            return Err("messages_per_device must be >= 1".into());
        }
        if self.points == 0 {
            return Err("points must be >= 1".into());
        }
        if self.reactor_threads == 0 {
            return Err("reactor_threads must be >= 1".into());
        }
        if self.round_every == 0 {
            return Err("round_every must be >= 1".into());
        }
        if self.fetch_max == 0 {
            return Err("fetch_max must be >= 1".into());
        }
        if !self.skew.is_finite() || self.skew < 0.0 {
            return Err("skew must be finite and >= 0".into());
        }
        if let Some(gw) = &self.gateway {
            gw.validate().map_err(|e| format!("gateway: {e}"))?;
        }
        Ok(())
    }

    /// Region a cell belongs to (round-robin).
    pub fn region_of(&self, cell: usize) -> usize {
        cell % self.regions
    }

    /// The data-generator config of one cell: the paper's workload at
    /// `points` per message, seeded per cell, with the outlier fraction
    /// skewed up for later cells when `skew > 0`. Deterministic, so tests
    /// can reproduce any cell's stream independently of the federation.
    pub fn cell_datagen(&self, cell: usize) -> DataGenConfig {
        let mut cfg = DataGenConfig::paper(self.points)
            .with_seed(self.seed ^ (cell as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if self.skew > 0.0 && self.cells > 1 {
            let frac = cell as f64 / (self.cells - 1) as f64;
            cfg.outlier_fraction = (cfg.outlier_fraction * (1.0 + self.skew * frac)).min(0.5);
        }
        cfg
    }

    /// Total messages the run will deliver.
    pub fn expected_messages(&self) -> u64 {
        (self.cells * self.devices_per_cell * self.messages_per_device) as u64
    }
}

/// The built-in FedAvg participant: a streaming per-feature mean. Every
/// `round_every` messages the cell publishes `[points_seen, mean_0, ..]`
/// under `cell:<id>` on its regional server and polls the global model.
/// With `round_every = 1` the final published state is the cell's exact
/// mean over all of its data, which makes the hierarchical merge exact
/// (global = weighted mean over every point in the federation) — the
/// property `tests/federation.rs` pins down.
pub fn streaming_mean_factory(round_every: usize) -> CloudFactory {
    let round_every = round_every.max(1);
    Arc::new(move |ctx: &Context| {
        let key = format!("cell:{}", ctx.job_id);
        let published = ctx.counter(CTR_UPDATES_PUBLISHED);
        let refreshes = ctx.counter(CTR_GLOBAL_REFRESHES);
        let params = ctx.params.clone();
        let mut sums: Vec<f64> = Vec::new();
        let mut count: u64 = 0;
        let mut messages = 0usize;
        let mut global_since = 0;
        Box::new(move |_ctx: &Context, block| {
            if sums.len() != block.features {
                // First block fixes the model shape.
                sums = vec![0.0; block.features];
            }
            for point in block.data.chunks_exact(block.features) {
                for (s, v) in sums.iter_mut().zip(point) {
                    *s += v;
                }
            }
            count += block.points as u64;
            messages += 1;
            if messages.is_multiple_of(round_every) && count > 0 {
                let mut update = Vec::with_capacity(sums.len() + 1);
                update.push(count as f64);
                update.extend(sums.iter().map(|s| s / count as f64));
                params.put(&key, update);
                published.add(1);
                if let Some((_, version)) = params.get_if_newer(GLOBAL_KEY, global_since) {
                    global_since = version;
                    refreshes.add(1);
                }
            }
            Ok(ProcessOutcome::default())
        })
    })
}

/// Digest of a completed federation run.
#[derive(Debug, Clone)]
pub struct FederationSummary {
    /// Topology: cell count.
    pub cells: usize,
    /// Topology: region count.
    pub regions: usize,
    /// Topology: devices per cell.
    pub devices_per_cell: usize,
    /// Messages appended across all cells.
    pub produced: u64,
    /// Messages processed across all cells.
    pub processed: u64,
    /// Wall-clock time from [`start`] to the last task completing.
    pub wall: Duration,
    /// Cloud merge rounds.
    pub cloud_rounds: u64,
    /// Region merge rounds summed over regions.
    pub region_rounds: u64,
    /// Parameter-plane gets summed over every server.
    pub params_gets: u64,
    /// Parameter-plane puts summed over every server.
    pub params_puts: u64,
    /// Total reactor polls across all tasks.
    pub reactor_polls: u64,
    /// Bytes the cell brokers still held once every task completed (the
    /// `federation.retained_bytes` gauge's final value): 0 when every cell
    /// committed past its sentinels.
    pub retained_bytes: u64,
    /// Reactor worker threads the run used.
    pub reactor_threads: usize,
    /// Final global model as `(total_samples, per_feature_model)`.
    pub global: Option<(f64, Vec<f64>)>,
}

impl FederationSummary {
    /// Mean wall-clock microseconds per processed message.
    pub fn per_message_us(&self) -> f64 {
        if self.processed == 0 {
            return 0.0;
        }
        self.wall.as_secs_f64() * 1e6 / self.processed as f64
    }

    /// Messages per second.
    pub fn throughput(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.processed as f64 / self.wall.as_secs_f64()
    }
}

/// A live federation: every tier spawned, nothing joined yet. Obtain from
/// [`start`]; consume with [`Self::wait`].
pub struct RunningFederation {
    cfg: FederationConfig,
    // Dropping the service cancels the fleet; keep it alive for the run.
    _svc: PilotComputeService,
    executor: Arc<LocalExecutor>,
    registry: MetricsRegistry,
    /// The telemetry sampler and, when [`FederationConfig::gateway`] is
    /// set, the observability gateway.
    observed: Observability,
    abort: Arc<AtomicBool>,
    producers: Vec<ReactorHandle>,
    consumers: Vec<ReactorHandle>,
    region_tasks: Vec<ReactorHandle>,
    cloud_task: ReactorHandle,
    region_servers: Vec<ParameterServer>,
    cloud_server: ParameterServer,
    /// Every cell's state (index = cell).
    cells: Vec<Arc<Shared>>,
    produced: Arc<Counter>,
    processed: Arc<Counter>,
    started: Instant,
}

impl RunningFederation {
    /// Messages processed so far.
    pub fn processed(&self) -> u64 {
        self.processed.get()
    }

    /// Messages appended so far.
    pub fn produced(&self) -> u64 {
        self.produced.get()
    }

    /// Total messages the run will deliver.
    pub fn expected(&self) -> u64 {
        self.cfg.expected_messages()
    }

    /// The run's metrics registry (gauges live here).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The telemetry sampler, when `telemetry_sample_ms` was set.
    pub fn sampler(&self) -> Option<&TelemetrySampler> {
        self.observed.sampler()
    }

    /// The bound address of the observability gateway, when
    /// [`FederationConfig::gateway`] is set (resolves `:0` ephemeral ports).
    pub fn gateway_addr(&self) -> Option<std::net::SocketAddr> {
        self.observed.gateway_addr()
    }

    /// The shared reactor (thread count, poll stats).
    pub fn executor(&self) -> &LocalExecutor {
        &self.executor
    }

    /// Current global model on the cloud server.
    pub fn global_model(&self) -> Option<(f64, Vec<f64>)> {
        split_payload(self.cloud_server.get(GLOBAL_KEY).map(|(v, _)| v))
    }

    /// Regional parameter servers (index = region).
    pub fn region_servers(&self) -> &[ParameterServer] {
        &self.region_servers
    }

    /// The cloud parameter server.
    pub fn cloud_server(&self) -> &ParameterServer {
        &self.cloud_server
    }

    /// Block until every tier completes (producers → consumers → regions →
    /// cloud), then tear the run down and summarize it. On any task error
    /// (a failed append or decode; a failing cell function is not one) the
    /// whole federation aborts and the first error is returned.
    pub fn wait(mut self, timeout: Duration) -> Result<FederationSummary, String> {
        let deadline = Instant::now() + timeout;
        let mut first_error: Option<String> = None;
        let mut cloud_rounds = 0u64;
        let mut region_rounds = 0u64;

        let producers = std::mem::take(&mut self.producers);
        let consumers = std::mem::take(&mut self.consumers);
        let regions = std::mem::take(&mut self.region_tasks);
        for handle in producers.iter().chain(&consumers) {
            if let Err(e) = self.join(handle, deadline)? {
                first_error.get_or_insert(format!("{}: {e}", handle.name()));
            }
        }
        for handle in &regions {
            match self.join(handle, deadline)? {
                Ok(rounds) => region_rounds += rounds,
                Err(e) => {
                    first_error.get_or_insert(e);
                }
            }
        }
        match self.join(&self.cloud_task, deadline)? {
            Ok(rounds) => cloud_rounds = rounds,
            Err(e) => {
                first_error.get_or_insert(e);
            }
        }
        let wall = self.started.elapsed();
        let reactor_threads = self.executor.thread_count();
        self.observed.shutdown();
        self.executor.shutdown();
        if let Some(e) = first_error {
            return Err(e);
        }
        let (gets, puts) = param_traffic(&self.region_servers, &self.cloud_server);
        Ok(FederationSummary {
            cells: self.cfg.cells,
            regions: self.cfg.regions,
            devices_per_cell: self.cfg.devices_per_cell,
            produced: self.produced.get(),
            processed: self.processed.get(),
            wall,
            cloud_rounds,
            region_rounds,
            params_gets: gets,
            params_puts: puts,
            reactor_polls: self.executor.poll_count(),
            reactor_threads,
            retained_bytes: retained_bytes(&self.cells),
            global: self.global_model(),
        })
    }

    /// Wait for one handle in short slices so an abort raised elsewhere can
    /// be fanned out (parked consumers only observe `abort` when polled).
    fn join(
        &self,
        handle: &ReactorHandle,
        deadline: Instant,
    ) -> Result<Result<u64, String>, String> {
        loop {
            let now = Instant::now();
            if now >= deadline {
                self.abort.store(true, Ordering::Release);
                self.executor.wake_all();
                return Err(format!(
                    "federation timed out: {}/{} messages processed",
                    self.processed(),
                    self.expected()
                ));
            }
            let slice = (deadline - now).min(Duration::from_millis(50));
            if let Some(result) = handle.wait_timeout(slice) {
                return Ok(result);
            }
            if self.abort.load(Ordering::Acquire) {
                // Re-queue parked tasks so they can observe the abort.
                self.executor.wake_all();
            }
        }
    }
}

impl Drop for RunningFederation {
    /// Abort whatever still runs and join the reactor threads here: a task
    /// holds its cell, and the cell the executor, so the executor must not
    /// be left for a finishing task to drop on one of its own threads.
    /// After [`RunningFederation::wait`] every task has settled and this
    /// joins nothing.
    fn drop(&mut self) {
        self.abort.store(true, Ordering::Release);
        self.executor.shutdown();
    }
}

fn split_payload(value: Option<Arc<Vec<f64>>>) -> Option<(f64, Vec<f64>)> {
    let v = value?;
    if v.len() < 2 {
        return None;
    }
    Some((v[0], v[1..].to_vec()))
}

fn retained_bytes(cells: &[Arc<Shared>]) -> u64 {
    cells
        .iter()
        .map(|c| c.broker.log_stats().retained_bytes)
        .sum()
}

fn param_traffic(regions: &[ParameterServer], cloud: &ParameterServer) -> (u64, u64) {
    let mut gets = 0;
    let mut puts = 0;
    for server in regions.iter().chain(std::iter::once(cloud)) {
        let stats = server.stats();
        gets += stats.gets.load(Ordering::Relaxed);
        puts += stats.puts.load(Ordering::Relaxed);
    }
    (gets, puts)
}

/// Provision the fleet, spawn every tier on the shared pools, and return
/// the live run.
pub fn start(cfg: FederationConfig) -> Result<RunningFederation, String> {
    cfg.validate()?;
    let svc = PilotComputeService::new();
    // One pooled pilot per cell (hosts the cell's broker), one per region
    // (hosts the regional parameter server), one for the cloud tier — the
    // whole fleet activates on a single lifecycle thread and spawns no
    // per-pilot threads.
    let mut descs = Vec::with_capacity(cfg.cells + cfg.regions + 1);
    for _ in 0..cfg.cells {
        descs.push(PilotDescription::pooled(1, 0.5).with_site("edge"));
    }
    for _ in 0..cfg.regions {
        descs.push(PilotDescription::pooled(1, 1.0).with_site("region"));
    }
    descs.push(PilotDescription::pooled(1, 2.0).with_site("cloud"));
    let fleet = svc
        .submit_fleet(descs, Duration::from_secs(120))
        .map_err(|e| format!("fleet activation: {e}"))?;
    let (cell_pilots, upper) = fleet.split_at(cfg.cells);
    let (region_pilots, cloud_pilot) = upper.split_at(cfg.regions);

    let registry = MetricsRegistry::new();
    let executor = Arc::new(LocalExecutor::new(cfg.reactor_threads));
    let compute = Arc::new(if cfg.compute_threads > 1 {
        ComputePool::new(cfg.compute_threads)
    } else {
        ComputePool::sequential()
    });
    let region_servers: Vec<ParameterServer> = region_pilots
        .iter()
        .map(|p| p.start_param_server().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let cloud_server = cloud_pilot[0]
        .start_param_server()
        .map_err(|e| e.to_string())?;

    let produced = registry.counter(CTR_PRODUCED);
    let processed = registry.counter(CTR_PROCESSED);
    let abort = Arc::new(AtomicBool::new(false));
    let regions_done = Arc::new(AtomicUsize::new(0));
    let factory: CloudFactory = cfg
        .cell_factory
        .clone()
        .unwrap_or_else(|| streaming_mean_factory(cfg.round_every));
    // Spans are recorded only for a reader: the gateway's `/trace` and
    // `/top`. `federation-sat` (no gateway) stores none.
    let record_spans = cfg.gateway.is_some();
    let cell_config = PipelineConfig {
        devices: cfg.devices_per_cell,
        processors: 1,
        fetch_max: cfg.fetch_max,
        ..PipelineConfig::default()
    };

    let mut producers = Vec::with_capacity(cfg.cells);
    let mut consumers = Vec::with_capacity(cfg.cells);
    let mut cells = Vec::with_capacity(cfg.cells);
    for (cell, cell_pilot) in cell_pilots.iter().enumerate() {
        let ctx = Context::new(
            cell as u64,
            cfg.devices_per_cell,
            region_servers[cfg.region_of(cell)].clone(),
            registry.clone(),
            HashMap::new(),
        )
        .with_compute_pool(compute.clone());
        let produce_factory =
            datagen_produce_factory(cfg.cell_datagen(cell), cfg.messages_per_device);
        let streams: Vec<ProduceFn> = (0..cfg.devices_per_cell)
            .map(|d| produce_factory(&ctx, d))
            .collect();
        // The cell's member is its topic's only group: what it has
        // committed is gone from the cell's broker.
        let shared = Shared::new(
            ctx,
            cell_pilot.start_broker().map_err(|e| e.to_string())?,
            cell_config.clone(),
            (Link::loopback(), Link::loopback()),
            factory.clone(),
            (executor.clone(), executor.clone()),
            abort.clone(),
            record_spans,
        )
        .map_err(|e| e.to_string())?;
        let producer =
            CellProducerTask::new(shared.clone(), streams, cfg.backpressure, produced.clone());
        producers.push(executor.spawn(&format!("fed-cell-{cell}-produce"), Box::new(producer)));
        let member = spawn_members(&shared, vec![format!("cell-{cell}")])?;
        consumers.extend(member.into_iter().map(|(_, _, handle)| handle));
        cells.push(shared);
    }

    let mut region_tasks = Vec::with_capacity(cfg.regions);
    for (r, server) in region_servers.iter().enumerate() {
        let region_cells: Vec<Arc<Shared>> = cells
            .iter()
            .enumerate()
            .filter(|(c, _)| cfg.region_of(*c) == r)
            .map(|(_, shared)| shared.clone())
            .collect();
        let task = RegionAggregatorTask::new(
            r,
            server.clone(),
            cloud_server.clone(),
            region_cells,
            cfg.merge_interval,
            regions_done.clone(),
            registry.counter(CTR_UPDATES_MERGED),
            registry.counter(CTR_REGION_PUBLISHES),
            abort.clone(),
        );
        region_tasks.push(executor.spawn(&format!("fed-region-{r}"), Box::new(task)));
    }
    let cloud = CloudAggregatorTask::new(
        cloud_server.clone(),
        cfg.regions,
        cfg.merge_interval,
        regions_done,
        registry.gauge(GAUGE_FED_ROUNDS),
        registry.gauge(GAUGE_FED_ROUND_MS),
        registry.counter(CTR_REGION_MERGES),
        abort.clone(),
    );
    let cloud_task = executor.spawn("fed-cloud", Box::new(cloud));

    let sampler = cfg.telemetry_sample_ms.map(|ms| {
        let probes: Vec<Probe> = vec![federation_probe(
            &registry,
            executor.clone(),
            region_servers.clone(),
            cloud_server.clone(),
            cells.clone(),
        )];
        Arc::new(TelemetrySampler::spawn(
            registry.clone(),
            Duration::from_millis(ms.max(1)),
            TelemetrySampler::DEFAULT_CAPACITY,
            probes,
        ))
    });

    let mut observed = Observability::new(sampler);
    if let Some(gw_cfg) = &cfg.gateway {
        let (processed, expected) = (processed.clone(), cfg.expected_messages());
        let stopped = abort.clone();
        // The read-only routes alone: the federation has no tune table and
        // no external ingestion path. Its cells record their spans under
        // their cell ids in the run's private registry, so the run's spans
        // are the whole registry.
        let view = RunView {
            registry: registry.clone(),
            gauges: FEDERATION_GAUGES,
            job: None,
            progress: Box::new(move || (processed.get(), Some(expected))),
            stopped: Box::new(move || stopped.load(Ordering::Acquire)),
        };
        observed
            .serve(gw_cfg, view, |router| router)
            .map_err(|e| format!("gateway: {e}"))?;
    }

    Ok(RunningFederation {
        cfg,
        _svc: svc,
        executor,
        registry,
        observed,
        abort,
        producers,
        consumers,
        region_tasks,
        cloud_task,
        region_servers,
        cloud_server,
        cells,
        produced,
        processed,
        started: Instant::now(),
    })
}

/// One probe refreshing every federation gauge before each telemetry
/// snapshot (per-tier lag, retained broker bytes, live cells,
/// parameter-plane traffic, reactor health — the `pilot_top` federation
/// scenario reads these).
fn federation_probe(
    registry: &MetricsRegistry,
    executor: Arc<LocalExecutor>,
    region_servers: Vec<ParameterServer>,
    cloud_server: ParameterServer,
    cells: Vec<Arc<Shared>>,
) -> Probe {
    let produced = registry.counter(CTR_PRODUCED);
    let processed = registry.counter(CTR_PROCESSED);
    let published = registry.counter(CTR_UPDATES_PUBLISHED);
    let merged = registry.counter(CTR_UPDATES_MERGED);
    let region_pubs = registry.counter(CTR_REGION_PUBLISHES);
    let region_merges = registry.counter(CTR_REGION_MERGES);
    let lag_cells = registry.gauge(GAUGE_FED_LAG_CELLS);
    let retained = registry.gauge(GAUGE_FED_RETAINED_BYTES);
    let lag_regions = registry.gauge(GAUGE_FED_LAG_REGIONS);
    let lag_cloud = registry.gauge(GAUGE_FED_LAG_CLOUD);
    let cells_active = registry.gauge(GAUGE_FED_CELLS_ACTIVE);
    let params_gets = registry.gauge(GAUGE_PARAMS_GETS);
    let params_puts = registry.gauge(GAUGE_PARAMS_PUTS);
    let ready_depth = registry.gauge(crate::runtime::telemetry::GAUGE_REACTOR_READY_DEPTH);
    let poll_us = registry.gauge(crate::runtime::telemetry::GAUGE_REACTOR_POLL_US);
    Box::new(move || {
        lag_cells.set(produced.get().saturating_sub(processed.get()) as i64);
        retained.set(retained_bytes(&cells) as i64);
        lag_regions.set(published.get().saturating_sub(merged.get()) as i64);
        lag_cloud.set(region_pubs.get().saturating_sub(region_merges.get()) as i64);
        let active = cells.iter().filter(|c| !c.sentinels.all_done()).count();
        cells_active.set(active as i64);
        let (gets, puts) = param_traffic(&region_servers, &cloud_server);
        params_gets.set(gets as i64);
        params_puts.set(puts as i64);
        ready_depth.set(executor.ready_depth());
        poll_us.set(executor.poll_time_us() as i64);
    })
}

/// Convenience: [`start`] then [`RunningFederation::wait`].
pub fn run(cfg: FederationConfig, timeout: Duration) -> Result<FederationSummary, String> {
    start(cfg)?.wait(timeout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn small() -> FederationConfig {
        FederationConfig {
            cells: 4,
            regions: 2,
            devices_per_cell: 2,
            messages_per_device: 5,
            points: 10,
            reactor_threads: 2,
            ..FederationConfig::default()
        }
    }

    #[test]
    fn validate_rejects_bad_topologies() {
        let mut cfg = small();
        cfg.regions = 5; // > cells
        assert!(cfg.validate().is_err());
        cfg = small();
        cfg.cells = 0;
        assert!(cfg.validate().is_err());
        cfg = small();
        cfg.skew = f64::NAN;
        assert!(cfg.validate().is_err());
        assert!(small().validate().is_ok());
    }

    #[test]
    fn cell_datagen_is_deterministic_and_skewed() {
        let mut cfg = small();
        cfg.skew = 2.0;
        assert_eq!(cfg.cell_datagen(3).seed, cfg.cell_datagen(3).seed);
        // Cell 0 keeps the base workload; later cells drift upward.
        assert_eq!(cfg.cell_datagen(0).outlier_fraction, 0.05);
        assert!(cfg.cell_datagen(3).outlier_fraction > cfg.cell_datagen(1).outlier_fraction);
        // Distinct cells get distinct streams.
        assert_ne!(cfg.cell_datagen(0).seed, cfg.cell_datagen(1).seed);
    }

    #[test]
    fn federation_conserves_messages_and_merges_globally() {
        let cfg = small();
        let expected = cfg.expected_messages();
        let points = cfg.points as u64;
        let summary = run(cfg, Duration::from_secs(60)).expect("federation run");
        assert_eq!(summary.produced, expected);
        assert_eq!(summary.processed, expected);
        assert!(summary.cloud_rounds >= 1);
        assert!(summary.region_rounds >= 2);
        let (samples, model) = summary.global.expect("global model published");
        // Exact hierarchical accounting: every generated point is
        // represented in the final global model exactly once.
        assert_eq!(samples, (expected * points) as f64);
        assert_eq!(model.len(), 32); // paper feature width
        assert!(model.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn federation_reports_param_traffic_and_polls() {
        let summary = run(small(), Duration::from_secs(60)).expect("federation run");
        assert!(summary.params_puts > 0);
        assert!(summary.params_gets > 0);
        assert!(summary.reactor_polls > 0);
        assert_eq!(summary.reactor_threads, 2);
        assert!(summary.per_message_us() > 0.0);
        assert!(summary.throughput() > 0.0);
    }

    #[test]
    fn telemetry_probe_populates_federation_gauges() {
        let mut cfg = small();
        cfg.telemetry_sample_ms = Some(1);
        let running = start(cfg).expect("start");
        let registry = running.registry().clone();
        let summary = running.wait(Duration::from_secs(60)).expect("wait");
        assert_eq!(summary.processed, summary.produced);
        // The final stop() snapshot ran the probe at least once.
        assert!(registry.gauge_value(GAUGE_PARAMS_PUTS).unwrap_or(0) > 0);
        assert_eq!(registry.gauge_value(GAUGE_FED_CELLS_ACTIVE), Some(0));
        // Every cell committed past its sentinels: the brokers are empty.
        assert_eq!(registry.gauge_value(GAUGE_FED_RETAINED_BYTES), Some(0));
        assert_eq!(summary.retained_bytes, 0);
    }

    #[test]
    fn custom_cell_factory_and_unbalanced_regions() {
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = seen.clone();
        let mut cfg = small();
        cfg.cells = 3;
        cfg.regions = 2; // regions of 2 and 1 cells
        cfg.cell_factory = Some(Arc::new(move |_ctx: &Context| {
            let seen = seen2.clone();
            Box::new(move |_ctx: &Context, block: &pilot_datagen::Block| {
                seen.fetch_add(block.points as u64, Ordering::Relaxed);
                Ok(ProcessOutcome::default())
            })
        }));
        let expected = cfg.expected_messages();
        let points = cfg.points as u64;
        let summary = run(cfg, Duration::from_secs(60)).expect("federation run");
        assert_eq!(summary.processed, expected);
        assert_eq!(seen.load(Ordering::Relaxed), expected * points);
        // A factory that never publishes leaves no global model.
        assert!(summary.global.is_none());
    }
}
