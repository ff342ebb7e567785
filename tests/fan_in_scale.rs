//! Fan-in scale-out integration tests (DESIGN.md §9): devices multiplexed
//! onto a few edge reactor threads (`producer_threads`) and the
//! multi-partition consumer fetch must preserve every delivery and
//! determinism guarantee of a thread per device — identical per-device
//! message sets under a fixed seed, conservation across consumer-group
//! rebalances when `processors << devices`, and unchanged defaults.

use parking_lot::Mutex;
use pilot_core::{PilotComputeService, PilotDescription};
use pilot_datagen::DataGenConfig;
use pilot_edge::faas::{CloudFactory, ProcessOutcome};
use pilot_edge::processors::datagen_produce_factory;
use pilot_edge::{EdgeToCloudPipeline, PipelineConfig};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(120);

fn pilots(edge_cores: usize, cloud_cores: usize) -> (pilot_core::Pilot, pilot_core::Pilot) {
    let svc = PilotComputeService::new();
    let edge = svc
        .submit_and_wait(
            PilotDescription::local(edge_cores, 4.0 * edge_cores as f64),
            WAIT,
        )
        .unwrap();
    let cloud = svc
        .submit_and_wait(PilotDescription::local(cloud_cores, 44.0), WAIT)
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

/// A cloud function that records the `(msg_id, content-hash)` of every
/// message it sees into a shared set.
fn capturing_factory(seen: Arc<Mutex<HashSet<(u64, u64)>>>) -> CloudFactory {
    Arc::new(move |_ctx| {
        let seen = Arc::clone(&seen);
        Box::new(
            move |_ctx: &pilot_edge::faas::Context, block: &pilot_datagen::Block| {
                seen.lock().insert((block.msg_id, block_hash(&block.data)));
                Ok(ProcessOutcome::default())
            },
        )
    })
}

#[test]
fn defaults_leave_multiplexing_off() {
    // Both reactors are sized from their pilot's cores unless overridden.
    let cfg = PipelineConfig::default();
    assert_eq!(cfg.producer_threads, None);
    assert_eq!(cfg.reactor_threads, None);
}

#[test]
fn threaded_and_multiplexed_message_sets_match() {
    // The same seeded workload at both thread counts: per-device message
    // sets (msg_id sequence + exact payload content) must be identical.
    // Per-device seeding makes every device's stream distinct, so the set
    // of (msg_id, content-hash) pairs across devices captures the full
    // per-device grouping.
    const DEVICES: usize = 8;
    const MESSAGES: usize = 6;
    let run = |producer_threads: Option<usize>| {
        let edge_cores = producer_threads.unwrap_or(DEVICES);
        let (edge, cloud) = pilots(edge_cores, 2);
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let mut builder = EdgeToCloudPipeline::builder()
            .pilot_edge(edge)
            .pilot_cloud_processing(cloud)
            .produce_function(datagen_produce_factory(DataGenConfig::paper(20), MESSAGES))
            .process_cloud_function(capturing_factory(Arc::clone(&seen)))
            .devices(DEVICES)
            .processors(2);
        if let Some(n) = producer_threads {
            builder = builder.producer_threads(n);
        }
        let summary = builder.run(WAIT).unwrap();
        assert_eq!(summary.messages as usize, DEVICES * MESSAGES);
        assert_eq!(summary.errors, 0);
        let mut v: Vec<(u64, u64)> = seen.lock().iter().copied().collect();
        v.sort_unstable();
        v
    };
    let threaded = run(None);
    let multiplexed = run(Some(2));
    assert_eq!(threaded.len(), DEVICES * MESSAGES);
    assert_eq!(
        threaded, multiplexed,
        "sharing edge threads changed the message set"
    );
}

#[test]
fn multiplexed_with_batching_and_prefetch() {
    // Shared edge threads must compose with the pipelined transport:
    // per-device batching state lives inside each DeviceProducer, so
    // interleaved polling on two threads must not mix batches across devices.
    let (edge, cloud) = pilots(2, 4);
    let summary = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(50), 10))
        .process_cloud_function(pilot_edge::processors::baseline_factory())
        .devices(16)
        .processors(4)
        .producer_threads(2)
        .batch_max_bytes(32 * 1024)
        .linger(Duration::from_millis(2))
        .prefetch_depth(2)
        .run(WAIT)
        .unwrap();
    assert_eq!(summary.messages, 160, "16 devices × 10 messages");
    assert_eq!(summary.errors, 0);
}

#[test]
fn rebalance_with_few_processors_over_many_partitions() {
    // processors << devices at scale: 8 members over 256 partitions, with
    // a mid-run scale-up and scale-down. Range reassignment moves dozens
    // of partitions per member per generation; no message may be lost and
    // distinct-message accounting must be exact.
    const DEVICES: usize = 256;
    const MESSAGES: usize = 4;
    let (edge, cloud) = pilots(4, 12);
    let seen = Arc::new(Mutex::new(HashSet::new()));
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(5), MESSAGES))
        .process_cloud_function(capturing_factory(Arc::clone(&seen)))
        .devices(DEVICES)
        .processors(8)
        .producer_threads(4)
        .rate_per_device(100.0) // ~40 ms stream: time for two rebalances
        .start()
        .unwrap();
    std::thread::sleep(Duration::from_millis(10));
    running.scale_processors(12).unwrap();
    std::thread::sleep(Duration::from_millis(10));
    running.scale_processors(6).unwrap();
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages as usize, DEVICES * MESSAGES);
    assert_eq!(summary.errors, 0);
    // At-least-once redelivery across the rebalances may process a message
    // twice, but the distinct set must be complete.
    assert_eq!(seen.lock().len(), DEVICES * MESSAGES);
}

#[test]
fn multiplexed_respects_rate_pacing() {
    // Device timers must reproduce the RateLimiter schedule: message n
    // of a device is due at epoch + n × interval, so 4 messages at 50 /s
    // cannot finish faster than ~3 intervals.
    let (edge, cloud) = pilots(2, 2);
    let t = Instant::now();
    let summary = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(5), 4))
        .process_cloud_function(pilot_edge::processors::baseline_factory())
        .devices(4)
        .processors(2)
        .producer_threads(2)
        .rate_per_device(50.0)
        .run(WAIT)
        .unwrap();
    assert_eq!(summary.messages, 16);
    assert!(
        t.elapsed() >= Duration::from_millis(50),
        "4 messages at 50/s finished in {:?} — pacing ignored",
        t.elapsed()
    );
}

#[test]
fn multiplexed_abort_drains_sentinels() {
    // Abort mid-stream: every device task must drain (batch
    // flush + sentinel) so wait() completes instead of timing out.
    let (edge, cloud) = pilots(2, 2);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(5), 100_000))
        .process_cloud_function(pilot_edge::processors::baseline_factory())
        .devices(32)
        .processors(2)
        .producer_threads(2)
        .rate_per_device(50.0)
        .start()
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    running.abort();
    let summary = running.wait(Duration::from_secs(10)).unwrap();
    assert!((summary.messages as usize) < 32 * 100_000);
}

#[test]
fn small_edge_pilot_hosts_many_devices() {
    // The capacity check is about threads, not devices: 2 edge cores drive
    // 64 devices with `producer_threads` unset (2 edge reactor threads) as
    // well as with it set to 2 — but cannot lend 4 threads.
    let (edge, cloud) = pilots(2, 2);
    let summary = EdgeToCloudPipeline::builder()
        .pilot_edge(edge.clone())
        .pilot_cloud_processing(cloud.clone())
        .produce_function(datagen_produce_factory(DataGenConfig::paper(5), 2))
        .process_cloud_function(pilot_edge::processors::baseline_factory())
        .devices(64)
        .processors(2)
        .run(WAIT)
        .unwrap();
    assert_eq!(summary.messages, 128, "64 devices × 2 messages");
    assert_eq!(summary.errors, 0);
    let err = EdgeToCloudPipeline::builder()
        .pilot_edge(edge.clone())
        .pilot_cloud_processing(cloud.clone())
        .produce_function(datagen_produce_factory(DataGenConfig::paper(5), 2))
        .process_cloud_function(pilot_edge::processors::baseline_factory())
        .devices(64)
        .processors(2)
        .producer_threads(4)
        .start()
        .unwrap_err();
    assert!(matches!(err, pilot_edge::PipelineError::Capacity(_)));
    let summary = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(5), 2))
        .process_cloud_function(pilot_edge::processors::baseline_factory())
        .devices(64)
        .processors(2)
        .producer_threads(2)
        .run(WAIT)
        .unwrap();
    assert_eq!(summary.messages, 128, "64 devices × 2 messages");
    assert_eq!(summary.errors, 0);
}
