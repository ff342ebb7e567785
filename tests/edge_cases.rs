//! Edge-case integration: empty streams, single-point messages, combined
//! feature stacks (Q16 + hybrid + scaling), and cross-substrate stress.

use pilot_core::{PilotComputeService, PilotDescription};
use pilot_datagen::{Codec, DataGenConfig};
use pilot_edge::processors::{
    datagen_produce_factory, downsample_edge_factory, paper_model_factory,
};
use pilot_edge::windows::{aggregate_points, AggKind};
use pilot_edge::{Context, DeploymentMode, EdgeToCloudPipeline, ProduceFactory};
use pilot_ml::ModelKind;
use pilot_netsim::profiles;
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

fn pilots(cores: usize) -> (PilotComputeService, pilot_core::Pilot, pilot_core::Pilot) {
    let svc = PilotComputeService::new();
    let edge = svc
        .submit_and_wait(PilotDescription::local(cores, 16.0), WAIT)
        .unwrap();
    let cloud = svc
        .submit_and_wait(PilotDescription::local(cores, 44.0), WAIT)
        .unwrap();
    (svc, edge, cloud)
}

#[test]
fn empty_stream_terminates_cleanly() {
    // A produce function that immediately ends: zero messages, no hang,
    // clean summary.
    let (_svc, edge, cloud) = pilots(1);
    let empty: ProduceFactory = Arc::new(|_ctx: &Context, _| Box::new(|_ctx: &Context| None));
    let summary = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(empty)
        .process_cloud_function(paper_model_factory(ModelKind::KMeans, 32))
        .devices(1)
        .run(WAIT)
        .unwrap();
    assert_eq!(summary.messages, 0);
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.throughput_msgs, 0.0);
}

#[test]
fn single_point_messages_flow() {
    // The smallest possible message: 1 point. Models must cope (k-means
    // seeds from a single row).
    let (_svc, edge, cloud) = pilots(1);
    let summary = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(1), 12))
        .process_cloud_function(paper_model_factory(ModelKind::KMeans, 32))
        .devices(1)
        .run(WAIT)
        .unwrap();
    assert_eq!(summary.messages, 12);
    assert_eq!(summary.errors, 0);
}

#[test]
fn q16_hybrid_and_scaling_compose() {
    // Feature stack: Q16 codec + hybrid downsampling + runtime scale-up in
    // one run. Everything must compose without loss.
    let (_svc, edge, cloud) = pilots(4);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(400), 10))
        .process_edge_function(downsample_edge_factory(4))
        .process_cloud_function(paper_model_factory(ModelKind::KMeans, 32))
        .devices(4)
        .processors(1)
        .mode(DeploymentMode::Hybrid)
        .codec(Codec::Q16)
        .rate_per_device(200.0)
        .start()
        .unwrap();
    std::thread::sleep(Duration::from_millis(30));
    running.scale_processors(3).unwrap();
    let ctx = running.context().clone();
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages, 40);
    assert_eq!(summary.errors, 0);
    // Downsampled (100 pts) + quantised wire size.
    let broker = summary
        .report
        .component(&pilot_metrics::Component::Broker)
        .unwrap();
    assert_eq!(
        broker.bytes / broker.count,
        Codec::Q16.serialized_size(100, 32) as u64
    );
    // 40 distinct messages × 100 surviving points each were processed;
    // the mid-run scale-up may redeliver a few in-flight messages
    // (at-least-once during rebalance), so the counter is a lower bound
    // with bounded slack.
    let points = ctx.counter("points_processed").get();
    assert!(
        (4_000..=4_800).contains(&points),
        "points_processed={points}"
    );
}

#[test]
fn window_aggregation_respects_feature_extremes() {
    // Aggregating blocks containing ±infinity-adjacent magnitudes must not
    // produce NaNs for min/max.
    let block = pilot_datagen::Block {
        msg_id: 0,
        points: 4,
        features: 1,
        data: vec![f64::MAX / 2.0, -f64::MAX / 2.0, 0.0, 1.0],
        labels: vec![false; 4],
    };
    let min = aggregate_points(&block, 4, AggKind::Min);
    let max = aggregate_points(&block, 4, AggKind::Max);
    assert_eq!(min.data[0], -f64::MAX / 2.0);
    assert_eq!(max.data[0], f64::MAX / 2.0);
    assert!(!min.data[0].is_nan() && !max.data[0].is_nan());
}

#[test]
fn wan_links_shared_by_two_pipelines_contend() {
    // Two pipelines over the SAME transatlantic link object: combined
    // goodput must stay within the single link's envelope (the pipe is a
    // shared resource, not per-pipeline).
    let svc = PilotComputeService::new();
    let shared_link = profiles::transatlantic("shared-wan", 77).build();
    let mk = |edge: pilot_core::Pilot, cloud: pilot_core::Pilot| {
        EdgeToCloudPipeline::builder()
            .pilot_edge(edge)
            .pilot_cloud_processing(cloud)
            .produce_function(datagen_produce_factory(DataGenConfig::paper(5_000), 3))
            .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
            .devices(1)
            .link_edge_to_broker(shared_link.clone())
            .start()
            .unwrap()
    };
    let e1 = svc
        .submit_and_wait(PilotDescription::local(1, 4.0), WAIT)
        .unwrap();
    let c1 = svc
        .submit_and_wait(PilotDescription::local(1, 44.0), WAIT)
        .unwrap();
    let e2 = svc
        .submit_and_wait(PilotDescription::local(1, 4.0), WAIT)
        .unwrap();
    let c2 = svc
        .submit_and_wait(PilotDescription::local(1, 44.0), WAIT)
        .unwrap();
    let start = std::time::Instant::now();
    let a = mk(e1, c1);
    let b = mk(e2, c2);
    let sa = a.wait(WAIT).unwrap();
    let sb = b.wait(WAIT).unwrap();
    let wall = start.elapsed().as_secs_f64();
    assert_eq!(sa.messages + sb.messages, 6);
    // 6 × 1.28 MB over one ≤100 Mbit/s pipe needs ≥ 0.6 s of transit alone.
    assert!(
        wall >= 0.6,
        "wall={wall:.2}s — link contention not modelled?"
    );
}
