//! Federation acceptance (DESIGN.md §14): scale-out must change the
//! *cost* of running many cells, never the *data* any one cell sees.
//!
//! 1. **Conservation.** A federated run with identical per-cell workloads
//!    delivers, per cell, exactly the `(msg_id, payload-hash)` set that N
//!    independent single-cell pipeline runs produce at the same seeds —
//!    sharing one reactor, one compute pool, and a sharded parameter
//!    plane is observationally invisible to each cell.
//! 2. **Thread budget.** 1024 cells on shared pools add a bounded, O(k)
//!    number of OS threads (≤64), asserted via `/proc/self/status` —
//!    not O(cells × stages).
//! 3. **Hierarchical exactness.** With the built-in streaming-mean
//!    participant, the final global model is the sample-weighted mean of
//!    every point generated anywhere in the federation.
//! 4. **Bounded cells.** A producer at its backpressure watermark parks
//!    until its consumer's next committed round wakes it, so a cell's lag
//!    never passes the watermark; and once every cell has committed past
//!    its sentinels its broker holds nothing.
//! 5. **One consumer.** A cell consumes through the pipeline's consumer
//!    stage: a failing cell function is isolated as in the pipeline, and
//!    spans are recorded only when a gateway is there to read them.

use parking_lot::Mutex;
use pilot_core::{PilotComputeService, PilotDescription};
use pilot_datagen::DataGenConfig;
use pilot_edge::faas::{CloudFactory, Context, ProcessOutcome};
use pilot_edge::federation::{self, FederationConfig};
use pilot_edge::processors::datagen_produce_factory;
use pilot_edge::EdgeToCloudPipeline;
use pilot_gateway::GatewayConfig;
use pilot_metrics::MetricsRegistry;
use pilot_params::ParameterServer;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

/// FNV-style content hash over a block's payload (same scheme as the
/// knob-matrix suite): identifies exact data without retaining it.
fn block_hash(data: &[f64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in data {
        h = (h ^ v.to_bits()).wrapping_mul(0x100000001b3);
    }
    h
}

type SeenByCell = Arc<Mutex<HashMap<u64, BTreeSet<(u64, u64)>>>>;

/// A cell factory recording each cell's observed message set, keyed by
/// the cell id the federation passes as `ctx.job_id`.
fn capture_factory(seen: SeenByCell) -> CloudFactory {
    Arc::new(move |ctx: &Context| {
        let seen = Arc::clone(&seen);
        let cell = ctx.job_id;
        Box::new(move |_ctx: &Context, block: &pilot_datagen::Block| {
            seen.lock()
                .entry(cell)
                .or_default()
                .insert((block.msg_id, block_hash(&block.data)));
            Ok(ProcessOutcome::default())
        })
    })
}

/// One standalone single-cell pipeline run (the seed path, all defaults)
/// over the given generator config; returns its observed message set.
fn standalone_run(datagen: DataGenConfig, devices: usize, messages: usize) -> BTreeSet<(u64, u64)> {
    let svc = PilotComputeService::new();
    let edge = svc
        .submit_and_wait(PilotDescription::local(devices, 4.0 * devices as f64), WAIT)
        .unwrap();
    let cloud = svc
        .submit_and_wait(PilotDescription::local(2, 16.0), WAIT)
        .unwrap();
    std::mem::forget(svc);
    let seen = Arc::new(Mutex::new(BTreeSet::new()));
    let seen2 = Arc::clone(&seen);
    let capture: CloudFactory = Arc::new(move |_ctx| {
        let seen = Arc::clone(&seen2);
        Box::new(move |_ctx: &Context, block: &pilot_datagen::Block| {
            seen.lock().insert((block.msg_id, block_hash(&block.data)));
            Ok(ProcessOutcome::default())
        })
    });
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(datagen, messages))
        .process_cloud_function(capture)
        .devices(devices)
        .processors(2)
        .start()
        .unwrap();
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages as usize, devices * messages);
    assert_eq!(summary.errors, 0);
    Arc::try_unwrap(seen)
        .map(|m| m.into_inner())
        .unwrap_or_else(|arc| arc.lock().clone())
}

/// Conservation: each federated cell sees exactly what an independent
/// single-cell pipeline run at the same generator config sees.
#[test]
fn federated_cells_match_independent_pipeline_runs() {
    let mut cfg = FederationConfig {
        cells: 6,
        regions: 2,
        devices_per_cell: 3,
        messages_per_device: 5,
        points: 12,
        skew: 1.5, // per-cell data is deliberately non-iid
        reactor_threads: 3,
        ..FederationConfig::default()
    };
    let seen: SeenByCell = Arc::new(Mutex::new(HashMap::new()));
    cfg.cell_factory = Some(capture_factory(Arc::clone(&seen)));
    let expected = cfg.expected_messages();
    let summary = federation::run(cfg.clone(), WAIT).expect("federation run");
    assert_eq!(summary.processed, expected);
    assert_eq!(summary.produced, expected);

    let seen = seen.lock();
    assert_eq!(seen.len(), cfg.cells, "every cell processed something");
    for cell in 0..cfg.cells {
        let standalone = standalone_run(
            cfg.cell_datagen(cell),
            cfg.devices_per_cell,
            cfg.messages_per_device,
        );
        assert_eq!(
            seen[&(cell as u64)],
            standalone,
            "cell {cell}: federated message set diverged from the \
             equivalent standalone pipeline run"
        );
    }
}

#[cfg(target_os = "linux")]
fn os_thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status readable on linux")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line present")
        .trim()
        .parse()
        .expect("thread count parses")
}

/// The scale-out acceptance gate: 1024 cells — 1024 pooled pilots, 1024
/// brokers, 2048 reactor tasks, 8 regions, telemetry on — must add at
/// most 64 OS threads over the pre-start baseline.
#[cfg(target_os = "linux")]
#[test]
fn thousand_cell_federation_stays_within_thread_budget() {
    let before = os_thread_count();
    let cfg = FederationConfig {
        cells: 1024,
        regions: 8,
        devices_per_cell: 1,
        messages_per_device: 1,
        points: 4,
        reactor_threads: 4,
        merge_interval: Duration::from_micros(500),
        telemetry_sample_ms: Some(5),
        ..FederationConfig::default()
    };
    let expected = cfg.expected_messages();
    let running = federation::start(cfg).expect("1024-cell start");
    let during = os_thread_count();
    let summary = running.wait(WAIT).expect("1024-cell run");
    assert_eq!(summary.processed, expected);
    assert!(summary.global.is_some(), "global model published");
    let added = during.saturating_sub(before);
    assert!(
        added <= 64,
        "1024 cells added {added} OS threads (budget 64): scale-out must \
         cost O(reactor_threads), not O(cells)"
    );
}

/// Hierarchical exactness: cell means → region weighted means → global
/// weighted mean reproduces the direct mean over every generated point.
#[test]
fn hierarchical_fedavg_matches_direct_mean() {
    let cfg = FederationConfig {
        cells: 5,
        regions: 2,
        devices_per_cell: 2,
        messages_per_device: 4,
        points: 8,
        skew: 2.0,
        reactor_threads: 2,
        ..FederationConfig::default()
    };
    let summary = federation::run(cfg.clone(), WAIT).expect("federation run");
    let (samples, model) = summary.global.expect("global model");

    // Regenerate every cell's stream through the same factory the
    // federation uses and fold the direct per-feature mean.
    let ctx = Context::new(
        0,
        cfg.devices_per_cell,
        ParameterServer::new(),
        MetricsRegistry::new(),
        HashMap::new(),
    );
    let mut sums: Vec<f64> = Vec::new();
    let mut count = 0u64;
    for cell in 0..cfg.cells {
        let factory = datagen_produce_factory(cfg.cell_datagen(cell), cfg.messages_per_device);
        for device in 0..cfg.devices_per_cell {
            let mut produce = factory(&ctx, device);
            while let Some(block) = produce(&ctx) {
                if sums.len() != block.features {
                    sums.resize(block.features, 0.0);
                }
                for point in block.data.chunks_exact(block.features) {
                    for (s, v) in sums.iter_mut().zip(point) {
                        *s += v;
                    }
                }
                count += block.points as u64;
            }
        }
    }
    assert_eq!(samples, count as f64, "every point counted exactly once");
    assert_eq!(model.len(), sums.len());
    for (feature, (got, sum)) in model.iter().zip(&sums).enumerate() {
        let want = sum / count as f64;
        let tol = 1e-9 * want.abs().max(1.0);
        assert!(
            (got - want).abs() < tol,
            "feature {feature}: global {got} vs direct mean {want}"
        );
    }
}

/// Backpressure without a timer: on every processing call the cell's
/// `fed.produced − fed.processed` stays within the watermark (the message
/// being processed is counted as produced, not yet processed), and the
/// run still delivers every message.
#[test]
fn backpressure_bounds_cell_lag_and_completes() {
    const WATERMARK: u64 = 4;
    let max_lag = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&max_lag);
    let cfg = FederationConfig {
        cells: 1,
        regions: 1,
        devices_per_cell: 3,
        messages_per_device: 50,
        points: 4,
        reactor_threads: 2,
        backpressure: WATERMARK as usize,
        cell_factory: Some(Arc::new(move |ctx: &Context| {
            let produced = ctx.counter(federation::CTR_PRODUCED);
            let processed = ctx.counter(federation::CTR_PROCESSED);
            let seen = Arc::clone(&seen);
            Box::new(move |_ctx: &Context, _block: &pilot_datagen::Block| {
                let lag = produced.get().saturating_sub(processed.get());
                seen.fetch_max(lag, Ordering::Relaxed);
                Ok(ProcessOutcome::default())
            })
        })),
        ..FederationConfig::default()
    };
    let expected = cfg.expected_messages();
    let summary = federation::run(cfg, WAIT).expect("federation run");
    assert_eq!(summary.processed, expected);
    let lag = max_lag.load(Ordering::Relaxed);
    assert!(
        (1..=WATERMARK).contains(&lag),
        "cell lag reached {lag}; the watermark is {WATERMARK}"
    );
}

/// Commit-floor retention: after `wait`, every cell has committed past
/// its sentinels, so no cell broker retains a byte.
#[test]
fn cell_brokers_retain_nothing_once_committed() {
    let cfg = FederationConfig {
        cells: 3,
        regions: 1,
        devices_per_cell: 2,
        messages_per_device: 20,
        points: 6,
        reactor_threads: 2,
        ..FederationConfig::default()
    };
    let expected = cfg.expected_messages();
    let summary = federation::run(cfg, WAIT).expect("federation run");
    assert_eq!(summary.processed, expected);
    assert_eq!(summary.retained_bytes, 0);
}

/// Fault isolation, as in the pipeline: a cell function that fails on one
/// message costs that message — counted in `process_errors` — and the
/// stream, the cell and the run go on.
#[test]
fn failing_cell_function_is_isolated_like_the_pipeline() {
    let fired = Arc::new(AtomicBool::new(false));
    let cfg = FederationConfig {
        cells: 3,
        regions: 2,
        devices_per_cell: 2,
        messages_per_device: 10,
        points: 4,
        reactor_threads: 2,
        cell_factory: Some(Arc::new(move |ctx: &Context| {
            let fired = Arc::clone(&fired);
            let cell = ctx.job_id;
            Box::new(move |_ctx: &Context, block: &pilot_datagen::Block| {
                if cell == 1 && block.msg_id == 3 && !fired.swap(true, Ordering::Relaxed) {
                    return Err("injected fault".into());
                }
                Ok(ProcessOutcome::default())
            })
        })),
        ..FederationConfig::default()
    };
    let expected = cfg.expected_messages();
    let running = federation::start(cfg).expect("federation start");
    let registry = running.registry().clone();
    let summary = running
        .wait(WAIT)
        .expect("one failing invocation must not end the run");
    assert_eq!(summary.produced, expected);
    assert_eq!(summary.processed, expected - 1);
    assert_eq!(registry.counter("process_errors").get(), 1);
    assert_eq!(
        summary.retained_bytes, 0,
        "the failed message is committed too"
    );
}

/// Spans are recorded only when something reads them: without a gateway
/// a federation stores none (what keeps `federation-sat`'s memory flat);
/// with one, every message has its consumer's Network and CloudProcessor
/// spans for `/trace` and `/top`.
#[test]
fn cells_record_spans_only_when_a_gateway_reads_them() {
    let cfg = |gateway| FederationConfig {
        cells: 3,
        regions: 1,
        devices_per_cell: 2,
        messages_per_device: 8,
        points: 4,
        reactor_threads: 2,
        gateway,
        ..FederationConfig::default()
    };
    for gateway in [None, Some(GatewayConfig::default())] {
        let spans_per_message = if gateway.is_some() { 2 } else { 0 };
        let cfg = cfg(gateway);
        let expected = cfg.expected_messages();
        let running = federation::start(cfg).expect("federation start");
        let registry = running.registry().clone();
        let summary = running.wait(WAIT).expect("federation run");
        assert_eq!(summary.processed, expected);
        assert_eq!(
            registry.span_count() as u64,
            spans_per_message * summary.processed
        );
    }
}
