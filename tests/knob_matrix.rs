//! Knob-matrix equivalence (DESIGN.md §10, §12): the knobs that change
//! *how* a pipeline runs — the producer-engine shape (thread-per-device vs
//! multiplexed) and the consumer's look-ahead depth (0 vs 2 batches in
//! flight ahead of processing) — must be *observationally
//! interchangeable*, as must the durable log and a live controller. Every
//! combination at a fixed seed must process the identical message set —
//! ids, exact payload content — and record a complete five-span chain
//! (EdgeProducer, edge→broker Network, Broker, broker→cloud Network,
//! CloudProcessor) for every message. There is one consumer
//! implementation, so the matrix has no consumer-shape axis.

use parking_lot::Mutex;
use pilot_core::{Pilot, PilotComputeService, PilotDescription};
use pilot_datagen::DataGenConfig;
use pilot_edge::faas::{CloudFactory, ProcessOutcome};
use pilot_edge::processors::datagen_produce_factory;
use pilot_edge::EdgeToCloudPipeline;
use pilot_metrics::{Component, MetricsRegistry};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);
const DEVICES: usize = 4;
const MESSAGES: usize = 6;

fn pilots(edge_cores: usize, cloud_cores: usize) -> (Pilot, Pilot) {
    let svc = PilotComputeService::new();
    let edge = svc
        .submit_and_wait(
            PilotDescription::local(edge_cores, 4.0 * edge_cores as f64),
            WAIT,
        )
        .unwrap();
    let cloud = svc
        .submit_and_wait(PilotDescription::local(cloud_cores, 16.0), WAIT)
        .unwrap();
    std::mem::forget(svc);
    (edge, cloud)
}

/// FNV-style content hash over a block's payload: identifies a message's
/// exact data without retaining it.
fn block_hash(data: &[f64]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in data {
        h = (h ^ v.to_bits()).wrapping_mul(0x100000001b3);
    }
    h
}

/// One run of the seeded workload under a given engine/look-ahead combo.
/// Returns the sorted `(msg_id, content-hash)` set the cloud function saw.
fn run_combo(
    producer_threads: Option<usize>,
    prefetch_depth: usize,
    log_dir: Option<std::path::PathBuf>,
) -> BTreeSet<(u64, u64)> {
    run_combo_controlled(producer_threads, prefetch_depth, log_dir, None)
}

/// [`run_combo`] with an optional live feedback controller attached — the
/// controller axis of the matrix.
fn run_combo_controlled(
    producer_threads: Option<usize>,
    prefetch_depth: usize,
    log_dir: Option<std::path::PathBuf>,
    controller: Option<pilot_edge::ControllerConfig>,
) -> BTreeSet<(u64, u64)> {
    let combo = format!(
        "producer_threads={producer_threads:?} prefetch_depth={prefetch_depth} \
         log_dir={log_dir:?} controller={}",
        if controller.is_some() { "on" } else { "off" }
    );
    let edge_cores = producer_threads.unwrap_or(DEVICES);
    let (edge, cloud) = pilots(edge_cores, 2);
    let seen = Arc::new(Mutex::new(BTreeSet::new()));
    let seen2 = Arc::clone(&seen);
    let capture: CloudFactory = Arc::new(move |_ctx| {
        let seen = Arc::clone(&seen2);
        Box::new(
            move |_ctx: &pilot_edge::faas::Context, block: &pilot_datagen::Block| {
                seen.lock().insert((block.msg_id, block_hash(&block.data)));
                Ok(ProcessOutcome::default())
            },
        )
    });
    let registry = MetricsRegistry::new();
    let mut builder = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(20), MESSAGES))
        .process_cloud_function(capture)
        .metrics(registry.clone())
        .devices(DEVICES)
        .processors(2)
        .prefetch_depth(prefetch_depth);
    if let Some(n) = producer_threads {
        builder = builder.producer_threads(n);
    }
    if let Some(dir) = log_dir {
        builder = builder.log_dir(dir);
    }
    if let Some(cfg) = controller {
        builder = builder.telemetry_sample_ms(5).controller(cfg);
    }
    let running = builder.start().unwrap();
    let job_id = running.job_id();
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages as usize, DEVICES * MESSAGES, "{combo}");
    assert_eq!(summary.errors, 0, "{combo}");

    // Span-chain completeness: group this job's spans by metric msg id and
    // demand the full five-component chain for every one of them.
    let mut chains: HashMap<u64, Vec<Component>> = HashMap::new();
    for span in registry.snapshot() {
        if span.job_id == job_id {
            chains.entry(span.msg_id).or_default().push(span.component);
        }
    }
    assert_eq!(
        chains.len(),
        DEVICES * MESSAGES,
        "{combo}: distinct metric msg ids"
    );
    for (mid, components) in &chains {
        let count = |want: &Component| components.iter().filter(|c| *c == want).count();
        let networks = components
            .iter()
            .filter(|c| matches!(c, Component::Network(_)))
            .count();
        assert_eq!(
            count(&Component::EdgeProducer),
            1,
            "{combo}: msg {mid} EdgeProducer spans"
        );
        assert_eq!(
            count(&Component::Broker),
            1,
            "{combo}: msg {mid} Broker spans"
        );
        assert_eq!(
            networks, 2,
            "{combo}: msg {mid} Network spans (edge→broker + broker→cloud); chain: {components:?}"
        );
        assert_eq!(
            count(&Component::CloudProcessor),
            1,
            "{combo}: msg {mid} CloudProcessor spans"
        );
    }
    Arc::try_unwrap(seen)
        .map(|m| m.into_inner())
        .unwrap_or_else(|arc| arc.lock().clone())
}

#[test]
fn all_engine_lookahead_combos_process_identical_sets() {
    // The seed shape: thread-per-device producers, no look-ahead.
    let baseline = run_combo(None, 0, None);
    assert_eq!(baseline.len(), DEVICES * MESSAGES);
    for (producer_threads, prefetch_depth) in [(None, 2), (Some(2), 0), (Some(2), 2)] {
        let set = run_combo(producer_threads, prefetch_depth, None);
        assert_eq!(
            set, baseline,
            "producer_threads={producer_threads:?} prefetch_depth={prefetch_depth} \
             diverged from the threaded/depth-0 baseline"
        );
    }
}

/// The durability axis: turning on the durable broker log (`log_dir`) is a
/// storage-engine change only — the message set the cloud function sees is
/// identical to the memory-only baseline, and the run leaves a recoverable
/// on-disk log behind.
#[test]
fn durable_log_is_observationally_identical_to_memory() {
    let dir =
        std::env::temp_dir().join(format!("pilot-knob-matrix-durable-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let baseline = run_combo(None, 0, None);
    let durable = run_combo(None, 0, Some(dir.clone()));
    assert_eq!(
        durable, baseline,
        "log_dir changed the observable message set"
    );
    // The run persisted real segment files (one directory per partition).
    let partitions = std::fs::read_dir(&dir)
        .expect("durable run must create the log directory")
        .count();
    assert_eq!(partitions, DEVICES, "one p<N>/ directory per partition");
    std::fs::remove_dir_all(&dir).ok();
}

/// The controller axis: attaching a deliberately twitchy live controller
/// (2 ms tick, hysteresis 1, near-zero lag band — it will turn knobs
/// mid-run at every opportunity) must not change the observable message
/// set. Live resizes of the consumer pool, compute width, batching,
/// look-ahead, and fetch budget all preserve exactly-once delivery and
/// payload integrity.
#[test]
fn live_controller_is_observationally_identical_to_static_knobs() {
    let baseline = run_combo(None, 2, None);
    assert_eq!(baseline.len(), DEVICES * MESSAGES);
    let twitchy = pilot_edge::ControllerConfig {
        tick: Duration::from_millis(2),
        hysteresis: 1,
        cooldown: Duration::from_millis(5),
        lag_bound: 1,
        lag_low: 0,
        bounds: pilot_edge::ControlBounds {
            max_processors: 4,
            max_compute: 4,
            ..pilot_edge::ControlBounds::default()
        },
        ..pilot_edge::ControllerConfig::default()
    };
    let controlled = run_combo_controlled(None, 2, None, Some(twitchy));
    assert_eq!(
        controlled, baseline,
        "the live controller changed the observable message set"
    );
}
