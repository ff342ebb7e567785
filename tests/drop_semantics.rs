//! Drop semantics of [`RunningPipeline`] (DESIGN.md §10): dropping a
//! mid-run pipeline must behave like an abort — every stage stops at its
//! next step boundary, drains (batch flush, sentinel append, group leave),
//! and is joined before `drop` returns. No leaked threads, no lost
//! sentinels, and the pilots' cores are immediately reusable.

mod common;

use common::Witness;
use pilot_core::{Pilot, PilotComputeService, PilotDescription};
use pilot_datagen::DataGenConfig;
use pilot_edge::processors::{baseline_factory, datagen_produce_factory};
use pilot_edge::EdgeToCloudPipeline;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(120);

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

/// Read each partition's raw log back from the broker and assert it ends
/// with exactly one end-of-stream sentinel (an empty record): producers
/// drained on drop, and no duplicate sentinel was appended.
fn assert_sentinels_conserved(broker: &pilot_broker::Broker, topic: &str, devices: usize) {
    for partition in 0..devices {
        let hw = broker.high_watermark(topic, partition).unwrap();
        assert!(hw >= 1, "partition {partition} has no records at all");
        let records = broker.fetch(topic, partition, 0, hw as usize).unwrap();
        let sentinels = records.iter().filter(|r| r.value.is_empty()).count();
        assert_eq!(
            sentinels, 1,
            "partition {partition} holds {sentinels} sentinels (want exactly 1)"
        );
        assert!(
            records.last().unwrap().value.is_empty(),
            "partition {partition} does not end with its sentinel"
        );
    }
}

/// Start a long rate-paced run with the given builder tweaks, drop it
/// mid-stream, and verify the drop is prompt and sentinel-conserving.
fn drop_mid_run(
    devices: usize,
    configure: impl FnOnce(EdgeToCloudPipeline) -> EdgeToCloudPipeline,
) {
    let (edge, cloud) = pilots(devices.min(4), 2);
    let witness = Witness::default();
    let builder = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud.clone())
        .produce_function(witness.gate(datagen_produce_factory(DataGenConfig::paper(10), 100_000)))
        .process_cloud_function(baseline_factory())
        .devices(devices)
        .processors(2)
        .rate_per_device(50.0); // ~2000 s stream: the drop is always mid-run
    let running = configure(builder).start().unwrap();
    witness.pin(&running, devices);
    let topic = running.topic().to_string();
    std::thread::sleep(Duration::from_millis(100));
    let t = Instant::now();
    drop(running);
    // Stages stop at their next step boundary; nothing should come close
    // to the 5 s per-task grace timeout.
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "drop took {:?} — a stage hit its join grace period",
        t.elapsed()
    );
    let broker = cloud.start_broker().unwrap(); // idempotent: same broker
    assert_sentinels_conserved(&broker, &topic, devices);
}

#[test]
fn drop_aborts_default_pipeline() {
    drop_mid_run(4, |b| b);
}

#[test]
fn drop_aborts_pipelined_multiplexed_pipeline() {
    // All the machinery at once: engine workers, producer-side batching
    // with a linger window, and consumer look-ahead. Drop must flush open
    // batches before the sentinel and abandon the batches in flight.
    drop_mid_run(8, |b| {
        b.producer_threads(2)
            .batch_max_bytes(16 * 1024)
            .linger(Duration::from_millis(2))
            .prefetch_depth(2)
    });
}

#[test]
fn drop_with_lookahead_in_flight_zeroes_occupancy() {
    // A slow cloud function behind unthrottled producers keeps each
    // consumer's look-ahead window full; dropping the pipeline then must
    // abandon those batches and hand their share of the
    // `consumer.prefetch_occupancy` gauge back.
    use pilot_edge::faas::{CloudFactory, Context, ProcessOutcome};
    use pilot_edge::runtime::telemetry::GAUGE_PREFETCH_OCCUPANCY;
    use std::sync::Arc;

    let (edge, cloud) = pilots(2, 2);
    let registry = pilot_metrics::MetricsRegistry::new();
    let slow: CloudFactory = Arc::new(|_ctx| {
        Box::new(|_ctx: &Context, _block| {
            std::thread::sleep(Duration::from_millis(5));
            Ok(ProcessOutcome::default())
        })
    });
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(10), 100_000))
        .process_cloud_function(slow)
        .metrics(registry.clone())
        .devices(2)
        .rate_per_device(2000.0)
        .prefetch_depth(2)
        .telemetry_sample_ms(5)
        .start()
        .unwrap();
    let t = Instant::now();
    while registry.gauge_value(GAUGE_PREFETCH_OCCUPANCY).unwrap_or(0) == 0 {
        assert!(
            t.elapsed() < Duration::from_secs(10),
            "look-ahead never filled"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(running);
    assert_eq!(registry.gauge_value(GAUGE_PREFETCH_OCCUPANCY), Some(0));
}

#[test]
fn dropped_pipeline_releases_cores() {
    // After a mid-run drop, the same pilots must be able to host a fresh
    // pipeline: if producer/consumer tasks leaked, the second run would
    // fail the capacity check or deadlock waiting for cores.
    let (edge, cloud) = pilots(2, 2);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge.clone())
        .pilot_cloud_processing(cloud.clone())
        .produce_function(datagen_produce_factory(DataGenConfig::paper(10), 100_000))
        .process_cloud_function(baseline_factory())
        .devices(2)
        .processors(2)
        .rate_per_device(50.0)
        .start()
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    drop(running);
    let summary = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(10), 5))
        .process_cloud_function(baseline_factory())
        .devices(2)
        .processors(2)
        .run(WAIT)
        .unwrap();
    assert_eq!(summary.messages, 10, "2 devices × 5 messages");
    assert_eq!(summary.errors, 0);
}
