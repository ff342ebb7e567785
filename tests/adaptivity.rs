//! Runtime-adaptation integration tests (paper Section II-D): function
//! replacement without new pilots, processor scaling, and fault isolation.

use pilot_core::{PilotComputeService, PilotDescription};
use pilot_datagen::{DataGenConfig, DataGenerator};
use pilot_edge::processors::{baseline_factory, datagen_produce_factory, paper_model_factory};
use pilot_edge::{CloudFactory, Context, EdgeToCloudPipeline, ProcessOutcome, ProduceFactory};
use pilot_metrics::{Component, MetricsRegistry};
use pilot_ml::ModelKind;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(120);

fn pilots(edge_cores: usize, cloud_cores: usize) -> (pilot_core::Pilot, pilot_core::Pilot) {
    let svc = PilotComputeService::new();
    let edge = svc
        .submit_and_wait(PilotDescription::local(edge_cores, 16.0), WAIT)
        .unwrap();
    let cloud = svc
        .submit_and_wait(PilotDescription::local(cloud_cores, 44.0), WAIT)
        .unwrap();
    // Leak the service so pilots outlive this helper (Drop cancels pilots).
    std::mem::forget(svc);
    (edge, cloud)
}

#[test]
fn swap_low_to_high_fidelity_model_mid_stream() {
    // The paper's canonical adaptation: "exchanging low vs high fidelity
    // models" at runtime. Start with the baseline (low fidelity), swap to
    // k-means (high fidelity); the parameter server must start receiving
    // model updates only after the swap.
    let (edge, cloud) = pilots(1, 1);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(200), 40))
        .process_cloud_function(baseline_factory())
        .devices(1)
        .rate_per_device(100.0)
        .start()
        .unwrap();
    let ctx = running.context().clone();
    std::thread::sleep(Duration::from_millis(100));
    assert!(
        ctx.params.get(&ctx.model_key()).is_none(),
        "baseline must not publish a model"
    );
    running.replace_cloud_function(paper_model_factory(ModelKind::KMeans, 32));
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages, 40);
    let (_, version) = ctx.params.get(&ctx.model_key()).expect("model after swap");
    assert!((1..40).contains(&version), "version={version}");
}

#[test]
fn repeated_swaps_are_safe() {
    let (edge, cloud) = pilots(1, 1);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(100), 30))
        .process_cloud_function(baseline_factory())
        .devices(1)
        .rate_per_device(200.0)
        .start()
        .unwrap();
    for i in 0..5 {
        std::thread::sleep(Duration::from_millis(20));
        let gen = running.replace_cloud_function(baseline_factory());
        assert_eq!(gen, i + 2);
    }
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages, 30);
    assert_eq!(summary.errors, 0);
}

#[test]
fn scale_up_during_burst() {
    // 8 partitions, 1 consumer; scale to 8 mid-run. Everything drains and
    // the consumer pool reflects the scale.
    let (edge, cloud) = pilots(8, 8);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(200), 12))
        .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
        .devices(8)
        .processors(1)
        .rate_per_device(200.0)
        .start()
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    running.scale_processors(8).unwrap();
    assert_eq!(running.processor_count(), 8);
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages, 96);
}

#[test]
fn scale_down_preserves_completeness() {
    // Scale 4 → 1 with the survivor idle: device 0 ends after two
    // messages, devices 1–3 keep streaming to members that a 10 ms
    // function keeps inside a batch. Those members leave the group only
    // after their batch — after `scale_processors` returned — and each
    // leave orphans a live partition. No message may be lost, and the
    // survivor has to take a partition over when its member leaves, not
    // when its own idle timer (1 s) next fires.
    const STREAMING: u64 = 30;
    let (edge, cloud) = pilots(4, 4);
    let registry = MetricsRegistry::new();
    let produce: ProduceFactory = Arc::new(|_ctx, device| {
        let mut generator = DataGenerator::new(DataGenConfig::paper(20).with_seed(device as u64));
        let mut remaining = if device == 0 { 2 } else { STREAMING };
        Box::new(move |_ctx| {
            if remaining == 0 {
                return None;
            }
            remaining -= 1;
            if device != 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
            Some(generator.next_block())
        })
    });
    let slow: CloudFactory = Arc::new(|_ctx| {
        Box::new(|_ctx: &Context, _block| {
            std::thread::sleep(Duration::from_millis(10));
            Ok(ProcessOutcome::default())
        })
    });
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(produce)
        .process_cloud_function(slow)
        .metrics(registry.clone())
        .devices(4)
        .start()
        .unwrap();
    let job_id = running.job_id();
    // Start times of a device's CloudProcessor spans (the metric id carries
    // the device above bit 40).
    let processed = |device: u64| -> Vec<u64> {
        let mut starts: Vec<u64> = registry
            .snapshot()
            .iter()
            .filter(|s| s.job_id == job_id && s.component == Component::CloudProcessor)
            .filter(|s| s.msg_id >> 40 == device)
            .map(|s| s.start_us)
            .collect();
        starts.sort_unstable();
        starts
    };
    let t0 = Instant::now();
    while processed(0).len() < 2 {
        assert!(t0.elapsed() < WAIT, "device 0 never finished");
        std::thread::sleep(Duration::from_millis(1));
    }
    // Let the survivor consume the sentinel and park idle.
    std::thread::sleep(Duration::from_millis(30));
    running.scale_processors(1).unwrap();
    assert_eq!(running.processor_count(), 1);
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages, 2 + 3 * STREAMING, "no message lost");
    for device in 1..4 {
        let stall_us = processed(device)
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap();
        assert!(
            stall_us < 500_000,
            "partition {device} sat unowned for {stall_us} µs after its member retired"
        );
    }
}

#[test]
fn poison_messages_do_not_stop_the_stream() {
    // Fault injection: the processing function fails on specific payloads.
    let (edge, cloud) = pilots(1, 1);
    let flaky: CloudFactory = Arc::new(|_ctx| {
        Box::new(move |_ctx: &Context, block| {
            if block.msg_id % 3 == 0 {
                Err(format!("poison at {}", block.msg_id))
            } else {
                Ok(ProcessOutcome::default())
            }
        })
    });
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(50), 9))
        .process_cloud_function(flaky)
        .devices(1)
        .start()
        .unwrap();
    let ctx = running.context().clone();
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages, 9);
    assert_eq!(summary.errors, 3, "msg ids 0, 3, 6 fail");
    assert_eq!(ctx.counter("process_errors").get(), 3);
    assert_eq!(ctx.counter("messages_processed").get(), 6);
}

#[test]
fn foreign_task_on_cloud_pilot_cannot_strand_a_member() {
    // Occupy all-but-one cloud core with a long foreign task, then ask for
    // 2 processors. Consumer members run on the pipeline's reactor, not in
    // the pilot's task slots, so both drain their partitions regardless.
    let (edge, cloud) = pilots(2, 2);
    let blocker = cloud
        .client()
        .unwrap()
        .submit("foreign-long-task", || {
            std::thread::sleep(Duration::from_secs(4));
            Ok(())
        })
        .unwrap();
    let summary = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(50), 6))
        .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
        .devices(2)
        .run(WAIT)
        .unwrap();
    assert_eq!(summary.messages, 12);
    blocker.wait().unwrap();
}
