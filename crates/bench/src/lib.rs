//! # pilot-bench — the experiment harness
//!
//! One function, [`run_cell`], runs a full Pilot-Edge pipeline for one cell
//! of the paper's evaluation grid — (message size × partitions × model ×
//! geography × deployment) — and returns its [`RunSummary`]. The harness
//! binaries sweep the grids of Fig. 2 and Fig. 3 and print CSV; the
//! Criterion benches reuse the same cells at reduced message counts.
//!
//! Scaling note: the paper sends 512 messages per run on real
//! infrastructure; the simulated runs default to fewer messages
//! (64 local / 16 transatlantic) because the WAN link model *actually
//! sleeps* for transfer time. Override with `PILOT_BENCH_MESSAGES`.
//! Throughput and latency are rates/quantiles, so the reduced count changes
//! noise, not shape.

use pilot_core::{Pilot, PilotComputeService, PilotDescription};
use pilot_datagen::DataGenConfig;
use pilot_edge::processors::{
    datagen_produce_factory, downsample_edge_factory, paper_model_factory,
};
use pilot_edge::{DeploymentMode, EdgeToCloudPipeline, RunSummary, RunningPipeline};
use pilot_ml::ModelKind;
use pilot_netsim::profiles;
use std::time::Duration;

/// Where the edge data source sits relative to broker + cloud processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geo {
    /// Everything on the LRZ cloud (the paper's baseline setup):
    /// intra-cloud links everywhere.
    Local,
    /// Data source on Jetstream (US), broker + processing on LRZ (EU):
    /// the edge→broker hop crosses the Atlantic.
    Transatlantic,
}

impl Geo {
    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            Geo::Local => "local",
            Geo::Transatlantic => "transatlantic",
        }
    }
}

/// One experiment cell.
#[derive(Debug, Clone)]
pub struct CellOpts {
    /// Points per message (the paper sweeps 25–10,000).
    pub points: usize,
    /// Edge devices = partitions.
    pub devices: usize,
    /// Consumer tasks (None = one per partition, the paper's ratio).
    pub processors: Option<usize>,
    /// Which model runs in `process_cloud`.
    pub model: ModelKind,
    /// Messages each device sends.
    pub messages_per_device: usize,
    /// Link layout.
    pub geo: Geo,
    /// Deployment modality.
    pub mode: DeploymentMode,
    /// Hybrid-mode downsampling factor for `process_edge`.
    pub downsample: usize,
    /// RNG seed for the generator and links.
    pub seed: u64,
    /// Producer batch threshold in bytes (0 = serial per-message transport).
    pub batch_max_bytes: usize,
    /// Producer batch linger window.
    pub linger: Duration,
    /// Consumer look-ahead depth (batches in flight ahead of processing).
    pub prefetch_depth: usize,
    /// Drive all devices from this many edge reactor threads (None = the
    /// edge pilot's cores: one per device). With it set, the edge pilot is
    /// provisioned with this many cores instead of one per device — how
    /// 1024-device cells run on small hosts.
    pub producer_threads: Option<usize>,
    /// Drive all consumer members from this many reactor threads (None =
    /// the cloud pilot's cores: one per processor, 10 at least). With it
    /// set, the cloud pilot is provisioned for the reactor pool rather
    /// than one core per member — how 64k-member cells (`processors =
    /// devices`, the paper's 1:1 ratio) run on small hosts. See DESIGN.md
    /// §12.
    pub reactor_threads: Option<usize>,
    /// Width of the intra-task compute pool shared by the cloud
    /// processors (None = one lane per cloud core, the default sizing).
    pub compute_threads: Option<usize>,
    /// Telemetry sampling interval in milliseconds (None = telemetry
    /// plane off, the default — zero instrumentation overhead).
    pub telemetry_sample_ms: Option<u64>,
    /// Root directory for the durable broker log (None = the seed's
    /// memory-only log, the default). With a directory set the topic
    /// persists through the storage engine under the group-commit fsync
    /// defaults (DESIGN.md §13).
    pub log_dir: Option<std::path::PathBuf>,
    /// Observability gateway config (None = no gateway, the default).
    /// See DESIGN.md §16; `gateway_load` drives this.
    pub gateway: Option<pilot_gateway::GatewayConfig>,
}

impl Default for CellOpts {
    fn default() -> Self {
        Self {
            points: 1000,
            devices: 4,
            processors: None,
            model: ModelKind::Baseline,
            messages_per_device: default_messages(Geo::Local),
            geo: Geo::Local,
            mode: DeploymentMode::CloudCentric,
            downsample: 4,
            seed: 42,
            batch_max_bytes: 0,
            linger: Duration::ZERO,
            prefetch_depth: 0,
            producer_threads: None,
            reactor_threads: None,
            compute_threads: None,
            telemetry_sample_ms: None,
            log_dir: None,
            gateway: None,
        }
    }
}

impl CellOpts {
    /// Turn on the pipelined transport: batch up to `batch_max_bytes`
    /// with a 2 ms linger on the producer side and look two batches
    /// ahead on the consumer side.
    pub fn pipelined(mut self, batch_max_bytes: usize) -> Self {
        self.batch_max_bytes = batch_max_bytes;
        self.linger = Duration::from_millis(2);
        self.prefetch_depth = 2;
        self
    }
}

/// Default messages per device, honouring `PILOT_BENCH_MESSAGES`.
pub fn default_messages(geo: Geo) -> usize {
    if let Ok(v) = std::env::var("PILOT_BENCH_MESSAGES") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    match geo {
        Geo::Local => 64,
        Geo::Transatlantic => 16,
    }
}

/// Provision the pilots for a cell: an edge pilot with one core per edge
/// reactor thread (`producer_threads`, or one per device when unset), and
/// the paper's "large" cloud envelope (10 cores / 44 GB)
/// or bigger if the cell needs more processors.
pub fn provision(svc: &PilotComputeService, opts: &CellOpts) -> (Pilot, Pilot) {
    let procs = opts.processors.unwrap_or(opts.devices);
    // The cloud pilot hosts the reactor's polling threads — not one task
    // per member — so with `reactor_threads` set its core count follows
    // the pool, however many members the cell runs.
    let cloud_tasks = opts.reactor_threads.unwrap_or(procs);
    let edge_cores = opts.producer_threads.unwrap_or(opts.devices);
    let edge = svc
        .submit_and_wait(
            PilotDescription::local(edge_cores, 4.0 * edge_cores as f64).with_site(
                if opts.geo == Geo::Transatlantic {
                    "jetstream"
                } else {
                    "lrz"
                },
            ),
            Duration::from_secs(10),
        )
        .expect("edge pilot");
    let cloud = svc
        .submit_and_wait(
            PilotDescription::local(cloud_tasks.max(10), 44.0).with_site("lrz"),
            Duration::from_secs(10),
        )
        .expect("cloud pilot");
    (edge, cloud)
}

/// A cell whose pipeline has been started but not yet awaited — what the
/// live tools (`pilot_top`) observe mid-run. Holds the pilot service so
/// the pilots outlive the run.
pub struct StartedCell {
    _svc: PilotComputeService,
    /// The live pipeline handle: poll [`RunningPipeline::telemetry`] /
    /// [`RunningPipeline::report`] mid-run, then
    /// [`StartedCell::wait`] for the summary.
    pub pipeline: RunningPipeline,
}

impl StartedCell {
    /// Wait for the run to finish and return its summary.
    pub fn wait(self, timeout: Duration) -> RunSummary {
        self.pipeline.wait(timeout).expect("pipeline run")
    }
}

/// Provision and start one cell's pipeline without waiting for it.
pub fn start_cell(opts: &CellOpts) -> StartedCell {
    let svc = PilotComputeService::new();
    let (edge, cloud) = provision(&svc, opts);
    let (link_eb, link_bc) = match opts.geo {
        Geo::Local => (
            profiles::cloud_local("edge->broker", opts.seed).build(),
            profiles::cloud_local("broker->cloud", opts.seed + 1).build(),
        ),
        Geo::Transatlantic => (
            profiles::transatlantic("edge->broker(wan)", opts.seed).build(),
            profiles::cloud_local("broker->cloud", opts.seed + 1).build(),
        ),
    };
    let mut builder = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(
            DataGenConfig::paper(opts.points).with_seed(opts.seed),
            opts.messages_per_device,
        ))
        .process_cloud_function(paper_model_factory(opts.model, 32))
        .devices(opts.devices)
        .processors(opts.processors.unwrap_or(opts.devices))
        .mode(opts.mode)
        .link_edge_to_broker(link_eb)
        .link_broker_to_cloud(link_bc)
        .batch_max_bytes(opts.batch_max_bytes)
        .linger(opts.linger)
        .prefetch_depth(opts.prefetch_depth);
    if let Some(n) = opts.producer_threads {
        builder = builder.producer_threads(n);
    }
    if let Some(n) = opts.reactor_threads {
        builder = builder.reactor_threads(n);
    }
    if let Some(n) = opts.compute_threads {
        builder = builder.compute_threads(n);
    }
    if let Some(ms) = opts.telemetry_sample_ms {
        builder = builder.telemetry_sample_ms(ms);
    }
    if let Some(dir) = &opts.log_dir {
        builder = builder.log_dir(dir.clone());
    }
    if let Some(gw) = &opts.gateway {
        builder = builder.gateway(gw.clone());
    }
    if opts.mode.edge_processing() {
        builder = builder.process_edge_function(downsample_edge_factory(opts.downsample));
    }
    StartedCell {
        _svc: svc,
        pipeline: builder.start().expect("pipeline start"),
    }
}

/// Run one cell end-to-end and return its summary.
pub fn run_cell(opts: &CellOpts) -> RunSummary {
    start_cell(opts).wait(Duration::from_secs(3600))
}

/// The paper's message-size sweep, honouring `PILOT_BENCH_QUICK` (which
/// trims it to the endpoints for CI).
pub fn message_sizes() -> Vec<usize> {
    if std::env::var("PILOT_BENCH_QUICK").is_ok() {
        vec![25, 1000]
    } else {
        pilot_datagen::PAPER_MESSAGE_SIZES.to_vec()
    }
}

/// CSV header for experiment rows.
pub fn csv_header() -> String {
    format!(
        "experiment,model,geo,partitions,points,msg_kb,{}",
        RunSummary::csv_header()
    )
}

/// One experiment CSV row.
pub fn csv_row(experiment: &str, opts: &CellOpts, s: &RunSummary) -> String {
    let msg_kb = pilot_datagen::serialized_size(opts.points, 32) as f64 / 1024.0;
    format!(
        "{},{},{},{},{},{:.1},{}",
        experiment,
        opts.model.label(),
        opts.geo.label(),
        opts.devices,
        opts.points,
        msg_kb,
        s.to_csv_row()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_cell_runs() {
        let opts = CellOpts {
            points: 25,
            devices: 1,
            messages_per_device: 3,
            ..CellOpts::default()
        };
        let s = run_cell(&opts);
        assert_eq!(s.messages, 3);
        assert_eq!(s.errors, 0);
    }

    #[test]
    fn csv_row_matches_header() {
        let opts = CellOpts {
            points: 25,
            devices: 1,
            messages_per_device: 2,
            ..CellOpts::default()
        };
        let s = run_cell(&opts);
        let header = csv_header();
        let row = csv_row("fig2", &opts, &s);
        assert_eq!(header.split(',').count(), row.split(',').count());
    }

    #[test]
    fn geo_labels() {
        assert_eq!(Geo::Local.label(), "local");
        assert_eq!(Geo::Transatlantic.label(), "transatlantic");
    }
}
