//! Runtime integration tests: end-to-end runs, fault isolation, hot swap,
//! scaling, abort. (Stage- and module-level unit tests live next to their
//! modules; knob-composition and drop-semantics suites live in the
//! workspace `tests/` directory.)

use crate::faas::{CloudFactory, Context, ProcessOutcome, ProduceFactory};
use crate::pipeline::{EdgeToCloudPipeline, PipelineError};
use crate::processors::{baseline_factory, datagen_produce_factory};
use pilot_core::{Pilot, PilotComputeService, PilotDescription};
use pilot_datagen::DataGenConfig;
use pilot_metrics::Component;
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(30);

fn pilots(svc: &PilotComputeService, edge_cores: usize, cloud_cores: usize) -> (Pilot, Pilot) {
    let edge = svc
        .submit_and_wait(PilotDescription::local(edge_cores, 16.0), WAIT)
        .unwrap();
    let cloud = svc
        .submit_and_wait(PilotDescription::local(cloud_cores, 16.0), WAIT)
        .unwrap();
    (edge, cloud)
}

#[test]
fn end_to_end_baseline_run() {
    let svc = PilotComputeService::new();
    let (edge, cloud) = pilots(&svc, 2, 2);
    let summary = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(25), 8))
        .process_cloud_function(baseline_factory())
        .devices(2)
        .run(WAIT)
        .unwrap();
    assert_eq!(summary.messages, 16, "2 devices × 8 messages");
    assert_eq!(summary.errors, 0);
    assert!(summary.throughput_msgs > 0.0);
    // All expected components reported.
    assert!(summary.report.component(&Component::EdgeProducer).is_some());
    assert!(summary.report.component(&Component::Broker).is_some());
    assert!(summary
        .report
        .component(&Component::CloudProcessor)
        .is_some());
}

#[test]
fn per_message_point_counts_survive_transport() {
    let svc = PilotComputeService::new();
    let (edge, cloud) = pilots(&svc, 1, 1);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(40), 5))
        .process_cloud_function(baseline_factory())
        .devices(1)
        .start()
        .unwrap();
    let ctx_points = running.context().counter("points_processed");
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages, 5);
    assert_eq!(ctx_points.get(), 200, "5 messages × 40 points");
}

#[test]
fn processing_error_is_isolated() {
    let svc = PilotComputeService::new();
    let (edge, cloud) = pilots(&svc, 1, 1);
    // Fail on every other message; the stream must still complete.
    let flaky: CloudFactory = Arc::new(|_ctx| {
        let mut n = 0u64;
        Box::new(move |_ctx: &Context, _block| {
            n += 1;
            if n.is_multiple_of(2) {
                Err("synthetic failure".into())
            } else {
                Ok(ProcessOutcome::default())
            }
        })
    });
    let summary = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(10), 6))
        .process_cloud_function(flaky)
        .devices(1)
        .run(WAIT)
        .unwrap();
    assert_eq!(summary.errors, 3, "3 of 6 messages fail");
    // All 6 still linked end-to-end through producer/broker spans.
    assert_eq!(summary.messages, 6);
}

#[test]
fn hot_swap_changes_function_mid_run() {
    let svc = PilotComputeService::new();
    let (edge, cloud) = pilots(&svc, 1, 1);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(10), 30))
        .process_cloud_function(baseline_factory())
        .devices(1)
        .rate_per_device(100.0) // ~300 ms stream: time to swap
        .start()
        .unwrap();
    std::thread::sleep(Duration::from_millis(60));
    let swapped: CloudFactory = Arc::new(|_ctx| {
        Box::new(move |ctx: &Context, _block| {
            ctx.counter("swapped_invocations").incr();
            Ok(ProcessOutcome::default())
        })
    });
    let gen = running.replace_cloud_function(swapped);
    assert_eq!(gen, 2);
    let ctx_counter = running.context().counter("swapped_invocations");
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages, 30);
    let swapped_count = ctx_counter.get();
    assert!(
        swapped_count > 0 && swapped_count < 30,
        "swap must take effect mid-stream (got {swapped_count})"
    );
}

#[test]
fn scale_processors_up_and_down() {
    let svc = PilotComputeService::new();
    let (edge, cloud) = pilots(&svc, 4, 6);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(10), 20))
        .process_cloud_function(baseline_factory())
        .devices(4)
        .processors(1)
        .rate_per_device(100.0)
        .start()
        .unwrap();
    assert_eq!(running.processor_count(), 1);
    running.scale_processors(4).unwrap();
    assert_eq!(running.processor_count(), 4);
    std::thread::sleep(Duration::from_millis(50));
    running.scale_processors(2).unwrap();
    assert_eq!(running.processor_count(), 2);
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages, 80, "4 devices × 20 messages");
    assert_eq!(summary.errors, 0);
}

#[test]
fn scale_to_zero_rejected() {
    let svc = PilotComputeService::new();
    let (edge, cloud) = pilots(&svc, 1, 1);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(5), 2))
        .process_cloud_function(baseline_factory())
        .devices(1)
        .start()
        .unwrap();
    assert!(running.scale_processors(0).is_err());
    running.wait(WAIT).unwrap();
}

#[test]
fn more_members_than_reactor_threads() {
    let svc = PilotComputeService::new();
    let (edge, cloud) = pilots(&svc, 4, 2);
    let summary = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(25), 8))
        .process_cloud_function(baseline_factory())
        .devices(4)
        .reactor_threads(1) // override: 4 members share 1 of the 2 cores
        .run(WAIT)
        .unwrap();
    assert_eq!(summary.messages, 32, "4 devices × 8 messages");
    assert_eq!(summary.errors, 0);
    assert!(summary
        .report
        .component(&Component::CloudProcessor)
        .is_some());
    assert!(summary
        .report
        .component(&Component::Network("loopback".into()))
        .is_some());
}

#[test]
fn abort_stops_early() {
    let svc = PilotComputeService::new();
    let (edge, cloud) = pilots(&svc, 1, 1);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(10), 100_000))
        .process_cloud_function(baseline_factory())
        .devices(1)
        .rate_per_device(50.0) // would take ~2000 s to finish
        .start()
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    running.abort();
    // After abort the producers stop, append sentinels, and wait()
    // completes quickly.
    let summary = running.wait(Duration::from_secs(10)).unwrap();
    assert!(summary.messages < 100_000);
}

/// Run a two-device paced pipeline — its streams would last for minutes —
/// one of whose tasks panics: `wait` must name the panic well before its
/// timeout and join both reactors' threads on the way out.
fn assert_panic_is_reported(produce: ProduceFactory, cloud_fn: CloudFactory, panic_msg: &str) {
    let svc = PilotComputeService::new();
    let (edge, cloud) = pilots(&svc, 1, 1);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(produce)
        .process_cloud_function(cloud_fn)
        .devices(2)
        .rate_per_device(100.0)
        .start()
        .unwrap();
    let shared = Arc::clone(&running.ctl.shared);
    let t = std::time::Instant::now();
    let err = running.wait(WAIT).unwrap_err();
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "wait() took {:?} to report a panicked task",
        t.elapsed()
    );
    match &err {
        PipelineError::Task(msg) => {
            assert!(msg.contains("panicked") && msg.contains(panic_msg), "{msg}")
        }
        other => panic!("expected a task error, got {other}"),
    }
    let threads = shared.edge_reactor.thread_count() + shared.cloud_reactor.thread_count();
    assert_eq!(threads, 0, "reactor threads leaked");
}

#[test]
fn panicking_produce_edge_is_a_task_error() {
    // Device 1 panics at its third message. One edge thread serves both
    // devices, before and after the panic.
    let inner = datagen_produce_factory(DataGenConfig::paper(10), 100_000);
    let produce: ProduceFactory = Arc::new(move |ctx, device| {
        let mut produce = inner(ctx, device);
        let mut n = 0;
        Box::new(move |ctx: &Context| {
            n += 1;
            if device == 1 && n == 3 {
                panic!("sensor fell off");
            }
            produce(ctx)
        })
    });
    assert_panic_is_reported(produce, baseline_factory(), "sensor fell off");
}

#[test]
fn panicking_process_cloud_is_a_task_error() {
    let explosive: CloudFactory = Arc::new(|_ctx| {
        let mut n = 0u64;
        Box::new(move |_ctx: &Context, _block| {
            n += 1;
            if n == 3 {
                panic!("model diverged");
            }
            Ok(ProcessOutcome::default())
        })
    });
    let produce = datagen_produce_factory(DataGenConfig::paper(10), 100_000);
    assert_panic_is_reported(produce, explosive, "model diverged");
}

#[test]
fn link_credit_is_conserved() {
    // Two unthrottled devices batching over a 1 MB/s link whose
    // bandwidth-delay product (21 KB) holds about two of their batches:
    // devices park on the credit and are woken by landings. Every byte a
    // shipped batch took is returned when it lands.
    let svc = PilotComputeService::new();
    let (edge, cloud) = pilots(&svc, 1, 1);
    let link = pilot_netsim::LinkSpec::fixed("edge->broker", 20.0, 8e6);
    assert_eq!(link.bdp_bytes(Duration::from_millis(1)), 21_000);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(20), 20))
        .process_cloud_function(baseline_factory())
        .devices(2)
        .link_edge_to_broker(link.build())
        .batch_max_bytes(8 * 1024)
        .linger(Duration::from_millis(1))
        .start()
        .unwrap();
    let shared = Arc::clone(&running.ctl.shared);
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages, 40);
    let (acquired, released) = shared.credit.totals();
    let message = pilot_datagen::Codec::F64.serialized_size(20, pilot_datagen::PAPER_FEATURES);
    assert_eq!(acquired, 40 * message as u64, "every message shipped once");
    assert_eq!(acquired, released, "credit taken and never returned");
}
