//! Monitoring-fabric integration: the paper's "step 3" — comprehensive,
//! linked metrics across all components, bottleneck identification, shared
//! registries, and energy accounting, exercised end-to-end.

use pilot_core::{PilotComputeService, PilotDescription};
use pilot_datagen::DataGenConfig;
use pilot_edge::processors::{datagen_produce_factory, paper_model_factory};
use pilot_edge::{CloudFactory, Context, EdgeToCloudPipeline, ProcessOutcome, ProduceFactory};
use pilot_metrics::{Component, MetricsRegistry};
use pilot_ml::ModelKind;
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

fn pilots(svc: &PilotComputeService) -> (pilot_core::Pilot, pilot_core::Pilot) {
    let edge = svc
        .submit_and_wait(PilotDescription::local(2, 8.0), WAIT)
        .unwrap();
    let cloud = svc
        .submit_and_wait(PilotDescription::local(2, 44.0), WAIT)
        .unwrap();
    (edge, cloud)
}

#[test]
fn every_message_is_linked_across_all_components() {
    let svc = PilotComputeService::new();
    let (edge, cloud) = pilots(&svc);
    let registry = MetricsRegistry::new();
    let summary = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(100), 10))
        .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
        .devices(2)
        .metrics(registry.clone())
        .run(WAIT)
        .unwrap();
    assert_eq!(summary.messages, 20);
    // The raw span stream: every message must have a span in each of the
    // four mandatory components (producer, net×2, broker, processor).
    let spans = registry.snapshot();
    for comp in [
        Component::EdgeProducer,
        Component::Broker,
        Component::CloudProcessor,
    ] {
        let msgs: std::collections::HashSet<u64> = spans
            .iter()
            .filter(|s| s.component == comp)
            .map(|s| s.msg_id)
            .collect();
        assert_eq!(msgs.len(), 20, "{comp} missing messages");
    }
    // Two network hops per message.
    let net_spans = spans
        .iter()
        .filter(|s| matches!(s.component, Component::Network(_)))
        .count();
    assert_eq!(net_spans, 40);
}

#[test]
fn bottleneck_identifies_slow_processing() {
    // A deliberately slow cloud function must be named the bottleneck —
    // the paper's Fig. 2 diagnosis mechanism.
    let svc = PilotComputeService::new();
    let (edge, cloud) = pilots(&svc);
    let slow: CloudFactory = Arc::new(|_ctx| {
        Box::new(move |_ctx: &Context, _block| {
            std::thread::sleep(Duration::from_millis(10));
            Ok(ProcessOutcome::default())
        })
    });
    let summary = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(10), 10))
        .process_cloud_function(slow)
        .devices(1)
        .run(WAIT)
        .unwrap();
    assert_eq!(summary.bottleneck.as_deref(), Some("cloud_processor"));
    let cp = summary
        .report
        .component(&Component::CloudProcessor)
        .unwrap();
    assert!(cp.mean_service_ms() >= 10.0);
}

#[test]
fn shared_registry_separates_jobs() {
    // Two runs into one registry: per-job reports must not bleed into
    // each other, while the combined report sees both.
    let svc = PilotComputeService::new();
    let (edge, cloud) = pilots(&svc);
    let registry = MetricsRegistry::new();
    let mk = |messages: usize| {
        EdgeToCloudPipeline::builder()
            .pilot_edge(edge.clone())
            .pilot_cloud_processing(cloud.clone())
            .produce_function(datagen_produce_factory(DataGenConfig::paper(10), messages))
            .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
            .devices(1)
            .metrics(registry.clone())
            .start()
            .unwrap()
    };
    let a = mk(3);
    let job_a = a.job_id();
    let sa = a.wait(WAIT).unwrap();
    let b = mk(5);
    let job_b = b.job_id();
    let sb = b.wait(WAIT).unwrap();
    assert_eq!(sa.messages, 3);
    assert_eq!(sb.messages, 5);
    assert_eq!(registry.report_for_job(job_a).total_messages(), 3);
    assert_eq!(registry.report_for_job(job_b).total_messages(), 5);
    assert_eq!(registry.report().total_messages(), 8);
}

#[test]
fn timeline_covers_the_whole_run() {
    let svc = PilotComputeService::new();
    let (edge, cloud) = pilots(&svc);
    let registry = MetricsRegistry::new();
    let summary = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(10), 40))
        .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
        .devices(1)
        .rate_per_device(200.0)
        .metrics(registry.clone())
        .run(WAIT)
        .unwrap();
    assert_eq!(summary.messages, 40);
    let report = registry.report();
    let cloud = report
        .component(&Component::CloudProcessor)
        .expect("cloud processing spans recorded");
    assert_eq!(cloud.count, 40, "report must count every completion");
    // 40 messages at 200 msg/s complete over a ~200 ms run: several 50 ms
    // buckets of it, not one burst.
    assert!(cloud.window_us >= 2 * 50_000, "run spans multiple buckets");
}

#[test]
fn pilot_energy_grows_with_work() {
    let svc = PilotComputeService::new();
    let (edge, cloud) = pilots(&svc);
    let idle_joules = cloud.energy().joules();
    EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud.clone())
        .produce_function(datagen_produce_factory(DataGenConfig::paper(2000), 10))
        .process_cloud_function(paper_model_factory(ModelKind::KMeans, 32))
        .devices(2)
        .run(WAIT)
        .unwrap();
    let after = cloud.energy();
    assert!(after.joules() > idle_joules);
    assert!(after.busy_secs() > 0.0, "cluster busy time recorded");
    assert!(svc.fleet_energy_joules() >= after.joules());
}

#[test]
fn edge_pilot_is_billed_for_producing() {
    // The devices run on the edge pilot's cores: the time its reactor
    // spent producing, encoding and shipping is the pilot's busy time.
    let svc = PilotComputeService::new();
    let (edge, cloud) = pilots(&svc);
    assert_eq!(edge.energy().busy_secs(), 0.0);
    EdgeToCloudPipeline::builder()
        .pilot_edge(edge.clone())
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(2000), 10))
        .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
        .devices(2)
        .run(WAIT)
        .unwrap();
    assert!(
        edge.energy().busy_secs() > 0.0,
        "edge reactor poll time billed to the edge pilot"
    );
}

#[test]
fn custom_counters_flow_through_context() {
    let svc = PilotComputeService::new();
    let (edge, cloud) = pilots(&svc);
    let counting: CloudFactory = Arc::new(|_ctx| {
        Box::new(move |ctx: &Context, block| {
            ctx.counter("app_custom_metric").add(block.points as u64);
            Ok(ProcessOutcome::default())
        })
    });
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(7), 6))
        .process_cloud_function(counting)
        .devices(1)
        .start()
        .unwrap();
    let ctx = running.context().clone();
    running.wait(WAIT).unwrap();
    assert_eq!(ctx.counter("app_custom_metric").get(), 42);
}

#[test]
fn param_server_publishes_are_not_counted_as_messages() {
    // A model processor records its ParamServer span under the block's
    // per-device id, not the message's metric id: device 1's ids 0–3 name
    // device 0's message or none at all. The message count must still be
    // the messages the devices sent: 1 + 4.
    let svc = PilotComputeService::new();
    let (edge, cloud) = pilots(&svc);
    let produce: ProduceFactory = Arc::new(|ctx: &Context, device: usize| {
        let messages = if device == 0 { 1 } else { 4 };
        datagen_produce_factory(DataGenConfig::paper(50), messages)(ctx, device)
    });
    let summary = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(produce)
        .process_cloud_function(paper_model_factory(ModelKind::KMeans, 32))
        .devices(2)
        .run(WAIT)
        .unwrap();
    assert_eq!(summary.messages, 5);
    assert_eq!(summary.errors, 0);
    let published = summary
        .report
        .component(&Component::ParamServer)
        .expect("k-means publishes its centroids");
    assert_eq!(published.count, 5);
}
