//! Live-telemetry-plane integration tests (DESIGN.md §11): the stage
//! gauges, the sampler, the bottleneck attributor, and the Chrome trace
//! export — plus the zero-overhead contract when the plane is off.

use pilot_broker::{Record, RetentionPolicy};
use pilot_core::{PilotComputeService, PilotDescription};
use pilot_datagen::DataGenConfig;
use pilot_edge::processors::{datagen_produce_factory, paper_model_factory};
use pilot_edge::runtime::telemetry::{
    GAUGE_BROKER_LAG_TOTAL, GAUGE_CREDIT_WAIT_DEPTH, GAUGE_INFLIGHT_BATCH_BYTES,
    GAUGE_LOG_RETAINED_BYTES, GAUGE_PREFETCH_OCCUPANCY, GAUGE_PRODUCER_QUEUE_DEPTH,
};
use pilot_edge::{EdgeToCloudPipeline, PipelineConfig, PipelineError};
use pilot_metrics::{attribute, validate_trace_json, Component, MetricsRegistry};
use pilot_ml::ModelKind;
use pilot_netsim::profiles;
use std::collections::HashMap;
use std::time::Duration;

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

#[test]
fn defaults_leave_telemetry_off() {
    // The knob must be opt-in, and OFF must mean zero footprint: no gauge
    // registered in the registry, no frames, no sampler thread.
    assert_eq!(PipelineConfig::default().telemetry_sample_ms, None);
    let registry = MetricsRegistry::new();
    let (edge, cloud) = pilots(1, 1);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(50), 3))
        .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
        .metrics(registry.clone())
        .start()
        .unwrap();
    assert!(running.telemetry().is_empty(), "no sampler when off");
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages, 3);
    assert_eq!(registry.gauge_count(), 0, "no gauges registered when off");
}

#[test]
fn zero_interval_is_rejected() {
    let cfg = PipelineConfig {
        telemetry_sample_ms: Some(0),
        ..PipelineConfig::default()
    };
    assert!(matches!(cfg.validate(), Err(PipelineError::Config(_))));
}

#[test]
fn frames_arrive_mid_run_and_are_monotonic() {
    // A paced run long enough to observe mid-flight: frames must be
    // retrievable before completion and time-ordered.
    let (edge, cloud) = pilots(2, 2);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(100), 10))
        .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
        .devices(2)
        .rate_per_device(40.0)
        .telemetry_sample_ms(5)
        .start()
        .unwrap();
    std::thread::sleep(Duration::from_millis(80));
    let mid = running.telemetry();
    assert!(
        !mid.is_empty(),
        "sampler should have produced frames mid-run"
    );
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages, 20);
    assert!(mid.windows(2).all(|w| w[0].t_us <= w[1].t_us));
    // Every frame carries every registered stage gauge.
    for frame in &mid {
        assert!(frame.value(GAUGE_PRODUCER_QUEUE_DEPTH).is_some());
        assert!(frame.value(GAUGE_BROKER_LAG_TOTAL).is_some());
    }
}

#[test]
fn gauges_read_zero_after_drain() {
    // Every push gauge (queue depth, in-flight bytes, prefetch occupancy)
    // must return to zero once the run drains — increments and decrements
    // balance across batching, prefetch, and the multiplexed engine.
    let registry = MetricsRegistry::new();
    let (edge, cloud) = pilots(2, 2);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(200), 8))
        .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
        .metrics(registry.clone())
        .devices(4)
        .processors(2)
        .producer_threads(2)
        .batch_max_bytes(64 * 1024)
        .linger(Duration::from_millis(2))
        .prefetch_depth(2)
        .telemetry_sample_ms(5)
        .start()
        .unwrap();
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages, 32);
    for name in [
        GAUGE_PRODUCER_QUEUE_DEPTH,
        GAUGE_CREDIT_WAIT_DEPTH,
        GAUGE_INFLIGHT_BATCH_BYTES,
        GAUGE_PREFETCH_OCCUPANCY,
        GAUGE_BROKER_LAG_TOTAL,
    ] {
        assert_eq!(
            registry.gauge_value(name),
            Some(0),
            "{name} should drain to zero"
        );
    }
}

#[test]
fn pipeline_topic_retains_nothing_after_drain() {
    // The pipeline topic trims at the consumer group's commit floor: once
    // `wait()` returns, every record is committed and the log holds no
    // bytes — memory-only, and durable with its sealed segment files gone.
    // Over 1024 messages a partition, so each one seals a segment.
    const DEVICES: usize = 2;
    let dir = std::env::temp_dir().join(format!("pilot-retained-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for log_dir in [None, Some(dir.clone())] {
        let registry = MetricsRegistry::new();
        let (edge, cloud) = pilots(2, 2);
        let mut builder = EdgeToCloudPipeline::builder()
            .pilot_edge(edge)
            .pilot_cloud_processing(cloud)
            .produce_function(datagen_produce_factory(DataGenConfig::paper(10), 1100))
            .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
            .metrics(registry.clone())
            .devices(DEVICES)
            .batch_max_bytes(64 * 1024)
            .telemetry_sample_ms(5);
        if let Some(dir) = &log_dir {
            builder = builder.log_dir(dir.clone());
        }
        let running = builder.start().unwrap();
        let (broker, topic) = (running.broker(), running.topic().to_string());
        let summary = running.wait(WAIT).unwrap();
        assert_eq!(summary.messages as usize, DEVICES * 1100);
        let stats = broker.topic(&topic).unwrap().log_stats();
        assert_eq!(stats.retained_bytes, 0, "log_dir={log_dir:?}");
        assert_eq!(
            stats.segment_count, DEVICES as u64,
            "log_dir={log_dir:?}: only the active segments remain"
        );
        assert_eq!(
            registry.gauge_value(GAUGE_LOG_RETAINED_BYTES),
            Some(0),
            "log_dir={log_dir:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn storage_gauges_read_the_pipeline_topic_only() {
    // The `broker.log.*` gauges describe the pipeline's own topic: another
    // topic on the same broker pilot, holding records nobody consumes, must
    // not show up in them once the pipeline has drained.
    let registry = MetricsRegistry::new();
    let (edge, cloud) = pilots(2, 2);
    let broker = cloud.start_broker().unwrap();
    broker
        .create_topic("side", 1, RetentionPolicy::unbounded())
        .unwrap();
    for _ in 0..16 {
        broker
            .append("side", 0, Record::new(vec![7u8; 256]))
            .unwrap();
    }
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(10), 20))
        .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
        .metrics(registry.clone())
        .devices(2)
        .telemetry_sample_ms(5)
        .start()
        .unwrap();
    assert_eq!(
        running.broker().topic_names().len(),
        2,
        "one broker, two topics"
    );
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages, 40);
    assert!(broker.topic("side").unwrap().log_stats().retained_bytes > 0);
    assert_eq!(registry.gauge_value(GAUGE_LOG_RETAINED_BYTES), Some(0));
}

#[test]
fn frame_width_does_not_grow_with_devices() {
    // Every stage gauge is one per pipeline, so a frame is as wide at 64
    // devices as at 2.
    let width = |devices: usize| {
        let registry = MetricsRegistry::new();
        let (edge, cloud) = pilots(2, 2);
        let running = EdgeToCloudPipeline::builder()
            .pilot_edge(edge)
            .pilot_cloud_processing(cloud)
            .produce_function(datagen_produce_factory(DataGenConfig::paper(10), 2))
            .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
            .metrics(registry.clone())
            .devices(devices)
            .telemetry_sample_ms(5)
            .start()
            .unwrap();
        let mut frames = running.telemetry();
        while frames.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
            frames = running.telemetry();
        }
        running.wait(WAIT).unwrap();
        let widths: Vec<usize> = frames.iter().map(|f| f.values.len()).collect();
        (registry.gauge_count(), widths)
    };
    let (narrow_gauges, narrow_frames) = width(2);
    let (wide_gauges, wide_frames) = width(64);
    assert_eq!(wide_gauges, narrow_gauges);
    for w in narrow_frames.iter().chain(&wide_frames) {
        assert_eq!(*w, narrow_gauges, "a frame holds every gauge once");
    }
}

#[test]
fn attributor_names_wan_link_on_transatlantic_profile() {
    // Baseline model + transatlantic edge→broker hop: the WAN link must
    // dominate the critical path.
    let registry = MetricsRegistry::new();
    let (edge, cloud) = pilots(2, 2);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(200), 3))
        .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
        .metrics(registry.clone())
        .devices(2)
        .link_edge_to_broker(profiles::transatlantic("edge->broker(wan)", 7).build())
        .link_broker_to_cloud(profiles::cloud_local("broker->cloud", 8).build())
        .telemetry_sample_ms(5)
        .start()
        .unwrap();
    let job_id = running.job_id();
    running.wait(WAIT).unwrap();
    let spans: Vec<_> = registry
        .snapshot()
        .into_iter()
        .filter(|s| s.job_id == job_id)
        .collect();
    let attribution = attribute(&spans, 50_000);
    match attribution.dominant() {
        Some(Component::Network(name)) => assert!(name.contains("wan"), "{name}"),
        other => panic!("expected the WAN link to dominate, got {other:?}"),
    }
    let share = attribution.critical_path[0].1;
    assert!(share > 0.5, "WAN share should dominate, got {share}");
}

#[test]
fn attributor_names_processor_on_compute_heavy_cell() {
    // Auto-encoder training and scoring on large messages over local
    // links: cloud processing must dominate the critical path.
    let registry = MetricsRegistry::new();
    let (edge, cloud) = pilots(2, 2);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(2000), 3))
        .process_cloud_function(paper_model_factory(ModelKind::AutoEncoder, 32))
        .metrics(registry.clone())
        .devices(2)
        .link_edge_to_broker(profiles::cloud_local("edge->broker", 7).build())
        .link_broker_to_cloud(profiles::cloud_local("broker->cloud", 8).build())
        .telemetry_sample_ms(5)
        .start()
        .unwrap();
    let job_id = running.job_id();
    running.wait(WAIT).unwrap();
    let spans: Vec<_> = registry
        .snapshot()
        .into_iter()
        .filter(|s| s.job_id == job_id)
        .collect();
    let attribution = attribute(&spans, 50_000);
    assert_eq!(
        attribution.dominant(),
        Some(&Component::CloudProcessor),
        "critical path: {:?}",
        attribution.critical_path
    );
}

#[test]
fn chrome_trace_exports_complete_span_chains() {
    // The exported trace must be valid JSON with one complete 5-span chain
    // (produce → link → broker → link → process) per message, plus the
    // sampled gauge counter events.
    let registry = MetricsRegistry::new();
    let (edge, cloud) = pilots(2, 2);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(100), 4))
        .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
        .metrics(registry.clone())
        .devices(2)
        .telemetry_sample_ms(5)
        .start()
        .unwrap();
    let job_id = running.job_id();
    let frames = running.telemetry();
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages, 8);
    let spans: Vec<_> = registry
        .snapshot()
        .into_iter()
        .filter(|s| s.job_id == job_id)
        .collect();
    // Per-message chain completeness on the span stream itself.
    let mut chains: HashMap<u64, Vec<&Component>> = HashMap::new();
    for s in &spans {
        chains.entry(s.msg_id).or_default().push(&s.component);
    }
    assert_eq!(chains.len(), 8, "one chain per message");
    for (msg, comps) in &chains {
        assert_eq!(comps.len(), 5, "msg {msg} chain incomplete: {comps:?}");
        let networks = comps
            .iter()
            .filter(|c| matches!(c, Component::Network(_)))
            .count();
        assert_eq!(networks, 2, "msg {msg} must cross both links");
        for required in [
            Component::EdgeProducer,
            Component::Broker,
            Component::CloudProcessor,
        ] {
            assert!(comps.contains(&&required), "msg {msg} missing {required:?}");
        }
    }
    // And the JSON itself must parse with everything aboard.
    let json = pilot_metrics::chrome_trace_json(&spans, &frames);
    let events = validate_trace_json(&json).expect("valid Chrome trace JSON");
    assert!(
        events >= spans.len(),
        "{events} events cannot hold {} spans",
        spans.len()
    );
}
