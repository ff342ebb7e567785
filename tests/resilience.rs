//! Resilience integration: failures and degraded infrastructure (paper
//! Section I: dynamism includes "failures and other external events";
//! Section V: the ability to respond at runtime "is crucial").

use pilot_core::{PilotComputeService, PilotDescription};
use pilot_datagen::{Codec, DataGenConfig};
use pilot_edge::processors::{datagen_produce_factory, paper_model_factory};
use pilot_edge::{DeploymentMode, EdgeToCloudPipeline};
use pilot_ml::ModelKind;
use pilot_netsim::{profiles, FlakyLink, LinkSpec, Outage};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(300);

#[test]
fn wan_outage_stalls_then_recovers() {
    // A 150 ms outage in the middle of a transfer sequence: transfers
    // during the window stall, later ones are clean, nothing is lost.
    let flaky = std::sync::Arc::new(FlakyLink::new(
        LinkSpec::fixed("wan", 1.0, 1e9).build(),
        vec![Outage {
            start: Duration::from_millis(50),
            len: Duration::from_millis(150),
        }],
    ));
    let mut stalled = 0;
    let mut clean = 0;
    let start = Instant::now();
    for _ in 0..20 {
        let r = flaky.transfer(10_000);
        if r.queueing > Duration::from_millis(10) {
            stalled += 1;
        } else {
            clean += 1;
        }
        std::thread::sleep(Duration::from_millis(15));
    }
    assert!(stalled >= 1, "at least one transfer must hit the outage");
    assert!(clean >= 10, "transfers after recovery are clean");
    assert!(start.elapsed() >= Duration::from_millis(150));
}

#[test]
fn quantized_codec_survives_pipeline_and_detects_outliers() {
    // Q16 compression end-to-end: 4× fewer bytes cross the (local) wire
    // and the k-means detector still flags outliers on the lossy data.
    let svc = PilotComputeService::new();
    let edge = svc
        .submit_and_wait(PilotDescription::local(1, 4.0), WAIT)
        .unwrap();
    let cloud = svc
        .submit_and_wait(PilotDescription::local(1, 44.0), WAIT)
        .unwrap();
    let summary = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(1000), 8))
        .process_cloud_function(paper_model_factory(ModelKind::KMeans, 32))
        .devices(1)
        .codec(Codec::Q16)
        .run(WAIT)
        .unwrap();
    assert_eq!(summary.messages, 8);
    assert_eq!(summary.errors, 0);
    // Outliers still detected on quantised data (5% contamination of
    // 8 × 1000 points ≈ 400 flags).
    assert!(
        summary.outliers_detected >= 200,
        "outliers={}",
        summary.outliers_detected
    );
    // Bytes on the wire reflect the compressed size.
    let broker_stats = summary
        .report
        .component(&pilot_metrics::Component::Broker)
        .unwrap();
    let per_msg = broker_stats.bytes / broker_stats.count;
    let q16 = Codec::Q16.serialized_size(1000, 32) as u64;
    assert_eq!(per_msg, q16, "wire bytes must match the Q16 size");
}

#[test]
fn q16_beats_f64_on_wan_throughput() {
    // The compression ablation at integration level: same workload over
    // the transatlantic link, Q16 vs F64 — message throughput must rise
    // by roughly the compression factor.
    let run = |codec: Codec| {
        let svc = PilotComputeService::new();
        let edge = svc
            .submit_and_wait(PilotDescription::local(1, 4.0), WAIT)
            .unwrap();
        let cloud = svc
            .submit_and_wait(PilotDescription::local(1, 44.0), WAIT)
            .unwrap();
        EdgeToCloudPipeline::builder()
            .pilot_edge(edge)
            .pilot_cloud_processing(cloud)
            .produce_function(datagen_produce_factory(DataGenConfig::paper(5_000), 4))
            .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
            .devices(1)
            .codec(codec)
            .mode(DeploymentMode::CloudCentric)
            .link_edge_to_broker(profiles::transatlantic("wan", 5).build())
            .run(WAIT)
            .unwrap()
    };
    let plain = run(Codec::F64);
    let compressed = run(Codec::Q16);
    // Message throughput improves (how much depends on how compute-bound
    // the build is)...
    assert!(
        compressed.throughput_msgs > plain.throughput_msgs,
        "q16 {:.2} msgs/s vs f64 {:.2} msgs/s",
        compressed.throughput_msgs,
        plain.throughput_msgs
    );
    // ...and the WAN component itself — the paper's "amount of data
    // movement" — shrinks decisively: per-message network time drops by
    // well over a third (1.28 MB → 0.32 MB against a 70–80 ms latency
    // floor).
    let net = pilot_metrics::Component::Network("wan".into());
    let plain_net = plain.component_mean_ms(&net);
    let q16_net = compressed.component_mean_ms(&net);
    assert!(
        q16_net < plain_net * 0.65,
        "q16 wan {q16_net:.1} ms vs f64 wan {plain_net:.1} ms"
    );
}

#[test]
fn pipeline_survives_broker_pilot_hosting_many_topics() {
    // Robustness under namespace pressure: many pipelines have come and
    // gone (stale topics remain); a fresh pipeline must be unaffected.
    let svc = PilotComputeService::new();
    let edge = svc
        .submit_and_wait(PilotDescription::local(1, 4.0), WAIT)
        .unwrap();
    let cloud = svc
        .submit_and_wait(PilotDescription::local(1, 44.0), WAIT)
        .unwrap();
    let broker = cloud.start_broker().unwrap();
    for i in 0..200 {
        broker
            .create_topic(
                &format!("stale-{i}"),
                4,
                pilot_broker::RetentionPolicy::default(),
            )
            .unwrap();
    }
    let summary = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(50), 5))
        .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
        .devices(1)
        .run(WAIT)
        .unwrap();
    assert_eq!(summary.messages, 5);
}
