//! Pipelined-transport integration tests (DESIGN.md §8): producer batching
//! and consumer look-ahead must preserve every delivery and accounting
//! guarantee of the serial transport — distinct-message conservation
//! across rebalances, hot-swap mid-stream, commit-never-ahead-of-processing,
//! and complete per-message span chains — while only changing *when* the
//! link time is paid.

mod common;

use common::Witness;
use pilot_core::{PilotComputeService, PilotDescription};
use pilot_datagen::DataGenConfig;
use pilot_edge::faas::{CloudFactory, ProcessOutcome};
use pilot_edge::processors::{datagen_produce_factory, paper_model_factory};
use pilot_edge::runtime::telemetry::{GAUGE_CREDIT_WAIT_DEPTH, GAUGE_PREFETCH_OCCUPANCY};
use pilot_edge::{EdgeToCloudPipeline, PipelineConfig};
use pilot_metrics::{Component, MetricsRegistry};
use pilot_ml::ModelKind;
use pilot_netsim::{profiles, LinkSpec};
use std::collections::{BTreeMap, HashMap, HashSet};
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

/// A cloud function that takes `ms` per message.
fn slow_factory(ms: u64) -> CloudFactory {
    Arc::new(move |_ctx| {
        Box::new(move |_ctx: &pilot_edge::faas::Context, _block| {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(ProcessOutcome::default())
        })
    })
}

/// Messages sit in the low bits of the metric id, the device above them.
const DEVICE_SHIFT: u32 = 40;

#[test]
fn defaults_leave_pipelining_off() {
    // The new knobs must be opt-in: a default config is the serial seed
    // behaviour, bit for bit.
    let cfg = PipelineConfig::default();
    assert_eq!(cfg.batch_max_bytes, 0);
    assert_eq!(cfg.linger, Duration::ZERO);
    assert_eq!(cfg.prefetch_depth, 0);
}

#[test]
fn prefetch_scale_processors_mid_run() {
    // 4 partitions, 1 consumer looking two batches ahead behind a 10 ms
    // function, so it is inside a batch at any instant. Scale 1 → 4 while
    // that batch belongs to a partition that moves, then 4 → 2. The
    // batches a member had in flight are discarded — uncommitted, so the
    // new owners fetch them again — but a partition is handed over only
    // once the batch *in progress* is committed: every message is
    // processed exactly once.
    const MESSAGES: usize = 12;
    let (edge, cloud) = pilots(4, 4);
    let registry = MetricsRegistry::new();
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(20), MESSAGES))
        .process_cloud_function(slow_factory(10))
        .metrics(registry.clone())
        .devices(4)
        .processors(1)
        .batch_max_bytes(64 * 1024)
        .linger(Duration::from_millis(2))
        .prefetch_depth(2)
        .start()
        .unwrap();
    let job_id = running.job_id();
    let processed = || -> Vec<u64> {
        registry
            .snapshot()
            .iter()
            .filter(|s| s.job_id == job_id && s.component == Component::CloudProcessor)
            .map(|s| s.msg_id)
            .collect()
    };
    // Partition 0 stays with the first member; wait for a record of one
    // that will move.
    while !processed().iter().any(|m| m >> DEVICE_SHIFT != 0) {
        std::thread::sleep(Duration::from_millis(1));
    }
    running.scale_processors(4).unwrap();
    assert_eq!(running.processor_count(), 4);
    std::thread::sleep(Duration::from_millis(25));
    running.scale_processors(2).unwrap();
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages, 48, "no distinct message lost or invented");
    assert_eq!(summary.errors, 0);
    let mut deliveries: HashMap<u64, usize> = HashMap::new();
    for msg in processed() {
        *deliveries.entry(msg).or_default() += 1;
    }
    for (msg, n) in deliveries {
        assert_eq!(n, 1, "msg {msg:#x} was processed {n} times");
    }
}

#[test]
fn prefetch_scale_down_delivers_queued_committed_records() {
    // The inverse rebalance: scale 2 → 1 while the retired member has
    // look-ahead batches in flight behind a slow cloud function. Those
    // batches are dropped at retirement, so they must be *uncommitted* —
    // the successor resumes from the committed offset and redelivers them.
    // Two things are checked: every message is delivered at least once,
    // and at no sampled instant is a partition's committed offset ahead of
    // the records processed from it (commit-never-ahead-of-processing —
    // the property a commit-on-fetch would break).
    use parking_lot::Mutex;
    use std::collections::BTreeSet;

    const DEVICES: usize = 2;
    const MESSAGES: u64 = 16;
    let (edge, cloud) = pilots(2, 2);
    let registry = MetricsRegistry::new();
    let seen = Arc::new(Mutex::new(BTreeSet::new()));
    let seen2 = Arc::clone(&seen);
    let slow_capture: CloudFactory = Arc::new(move |_ctx| {
        let seen = Arc::clone(&seen2);
        Box::new(
            move |_ctx: &pilot_edge::faas::Context, block: &pilot_datagen::Block| {
                std::thread::sleep(Duration::from_millis(3));
                // (per-device msg id, content hash) — the content
                // distinguishes the two devices' streams.
                let mut h = 0xcbf29ce484222325u64;
                for v in &block.data {
                    h = (h ^ v.to_bits()).wrapping_mul(0x100000001b3);
                }
                seen.lock().insert((block.msg_id, h));
                Ok(ProcessOutcome::default())
            },
        )
    });
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(
            DataGenConfig::paper(20),
            MESSAGES as usize,
        ))
        .process_cloud_function(slow_capture)
        .metrics(registry.clone())
        .devices(DEVICES)
        .processors(2)
        .prefetch_depth(2)
        .start()
        .unwrap();
    let (broker, topic, job_id) = (
        running.broker(),
        running.topic().to_string(),
        running.job_id(),
    );
    let group = format!("pilot-edge-{job_id}");
    // Committed offset first, processed count second: the count only grows,
    // so `committed ≤ processed` observed in this order is a sound check.
    // The sentinel's own offset (= MESSAGES) is excluded by the `min`.
    let assert_commit_behind_processing = || {
        for p in 0..DEVICES {
            let committed = broker.committed(&group, &topic, p).unwrap_or(0);
            let processed = registry
                .snapshot()
                .iter()
                .filter(|s| {
                    s.job_id == job_id
                        && s.component == Component::CloudProcessor
                        && (s.msg_id >> DEVICE_SHIFT) as usize == p
                })
                .map(|s| s.msg_id)
                .collect::<HashSet<_>>()
                .len() as u64;
            assert!(
                committed.min(MESSAGES) <= processed,
                "partition {p}: committed offset {committed} is ahead of the \
                 {processed} records processed"
            );
        }
    };
    // Let the producers finish and the members fetch well ahead of the slow
    // processors, sampling the invariant up to and across the retirement.
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_millis(40) {
        assert_commit_behind_processing();
        std::thread::sleep(Duration::from_millis(2));
    }
    running.scale_processors(1).unwrap();
    assert_eq!(running.processor_count(), 1);
    for _ in 0..10 {
        assert_commit_behind_processing();
        std::thread::sleep(Duration::from_millis(2));
    }
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.errors, 0);
    assert_eq!(summary.messages, DEVICES as u64 * MESSAGES);
    assert_eq!(
        seen.lock().len(),
        DEVICES * MESSAGES as usize,
        "scale-down retirement lost records that were in flight"
    );
}

/// Group one device's broker→cloud Network spans into batches (records of
/// a batch share the transfer window) and pair each batch with the end of
/// its last CloudProcessor span. Returns `(net_start_us, processed_by_us)`
/// per batch, in transfer order.
fn batches_of_device_0(registry: &MetricsRegistry, job_id: u64, link: &str) -> Vec<(u64, u64)> {
    let spans = registry.snapshot();
    let processed_by: HashMap<u64, u64> = spans
        .iter()
        .filter(|s| s.job_id == job_id && s.component == Component::CloudProcessor)
        .map(|s| (s.msg_id, s.end_us))
        .collect();
    let mut batches: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for s in &spans {
        if s.job_id == job_id
            && s.component == Component::Network(link.into())
            && s.msg_id >> DEVICE_SHIFT == 0
        {
            let done = batches.entry((s.start_us, s.end_us)).or_default();
            *done = (*done).max(processed_by[&s.msg_id]);
        }
    }
    batches
        .into_iter()
        .map(|((start, _), done)| (start, done))
        .collect()
}

#[test]
fn lookahead_overlaps_transfer_with_processing_only_at_positive_depth() {
    // One device, one consumer, a 20 ms cloud function behind a 5 ms
    // broker→cloud link. Read off the spans, not the wall clock: at depth 2
    // batch N+1's transfer starts before batch N's processing ends; at
    // depth 0 it starts only after. The occupancy gauge follows: it rises
    // above zero only with look-ahead, and is back at zero after `wait()`.
    const LINK: &str = "broker->cloud(5ms)";
    let run = |depth: usize| {
        let (edge, cloud) = pilots(1, 1);
        let registry = MetricsRegistry::new();
        let running = EdgeToCloudPipeline::builder()
            .pilot_edge(edge)
            .pilot_cloud_processing(cloud)
            .produce_function(datagen_produce_factory(DataGenConfig::paper(20), 16))
            .process_cloud_function(slow_factory(20))
            .metrics(registry.clone())
            .devices(1)
            .link_broker_to_cloud(LinkSpec::fixed(LINK, 5.0, 1e9).build())
            .prefetch_depth(depth)
            .telemetry_sample_ms(2)
            .start()
            .unwrap();
        let job_id = running.job_id();
        // Let the stream finish, then read the sampler's frames while the
        // pipeline is still up: the peak look-ahead the run reached.
        while registry
            .snapshot()
            .iter()
            .filter(|s| s.component == Component::CloudProcessor)
            .count()
            < 16
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        let peak = running
            .telemetry()
            .iter()
            .filter_map(|f| f.value(GAUGE_PREFETCH_OCCUPANCY))
            .max()
            .unwrap_or(0);
        let summary = running.wait(WAIT).unwrap();
        assert_eq!(summary.messages, 16);
        assert_eq!(summary.errors, 0);
        assert_eq!(
            registry.gauge_value(GAUGE_PREFETCH_OCCUPANCY),
            Some(0),
            "depth {depth}: occupancy must drain to zero"
        );
        (batches_of_device_0(&registry, job_id, LINK), peak)
    };

    let (serial, peak) = run(0);
    assert!(serial.len() >= 4, "16 messages at fetch_max 4: {serial:?}");
    assert_eq!(peak, 0, "no look-ahead at depth 0");
    for pair in serial.windows(2) {
        assert!(
            pair[1].0 >= pair[0].1,
            "depth 0: a transfer started at {} before the previous batch \
             finished processing at {}",
            pair[1].0,
            pair[0].1
        );
    }

    let (ahead, peak) = run(2);
    assert!(ahead.len() >= 4, "{ahead:?}");
    assert!(peak >= 1, "depth 2 never had a batch in flight ahead");
    for pair in ahead.windows(2) {
        assert!(
            pair[1].0 < pair[0].1,
            "depth 2: batch transfer started at {} only after the previous \
             batch finished processing at {}",
            pair[1].0,
            pair[0].1
        );
    }
}

#[test]
fn paced_batch_lands_within_linger_plus_flight() {
    // One device at 2 msg/s, batching on, loopback links. A batch ships by
    // the time its linger window closes and lands when its transfer is due
    // — not when the device next sends, 500 ms later, and for the last
    // message not only at the end of the stream. Read off the spans:
    // processing starts well within one send interval of the message
    // leaving its producer. At a 400 ms linger the window closes before
    // the next send too, so nothing can join the batch and it ships at
    // once instead of waiting the window out.
    for linger_ms in [2, 400] {
        paced_messages_reach_their_processor_promptly(Duration::from_millis(linger_ms));
    }
}

fn paced_messages_reach_their_processor_promptly(linger: Duration) {
    const MESSAGES: usize = 4;
    let (edge, cloud) = pilots(1, 1);
    let registry = MetricsRegistry::new();
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(20), MESSAGES))
        .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
        .metrics(registry.clone())
        .devices(1)
        .rate_per_device(2.0)
        .batch_max_bytes(64 * 1024)
        .linger(linger)
        .start()
        .unwrap();
    let job_id = running.job_id();
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages as usize, MESSAGES);
    assert_eq!(summary.errors, 0);
    let mut produced = HashMap::new();
    let mut processing = HashMap::new();
    for span in registry.snapshot().iter().filter(|s| s.job_id == job_id) {
        match span.component {
            Component::EdgeProducer => produced.insert(span.msg_id, span.end_us),
            Component::CloudProcessor => processing.insert(span.msg_id, span.start_us),
            _ => None,
        };
    }
    assert_eq!(produced.len(), MESSAGES);
    for (msg, left_producer_us) in produced {
        let waited_us = processing[&msg].saturating_sub(left_producer_us);
        assert!(
            waited_us < 250_000,
            "linger {linger:?}: message {msg} reached its processor {waited_us} µs \
             after it was produced: its batch waited for the next send or for \
             a window nothing could join"
        );
    }
}

#[test]
fn paced_device_keeps_its_schedule_across_a_long_flight() {
    // One device sending every 10 ms over a link whose 60 ms flight is six
    // send intervals long. The link's bandwidth-delay product (775 KB) is
    // far above the 5 KB messages, so the device never waits on the
    // window: each message starts within 20 ms of its send time, ships at
    // once, and is processed one flight later — which takes six batches in
    // flight at a time. A fixed two-batch window would make the device fall
    // behind and catch up in bursts.
    const MESSAGES: usize = 40;
    const LINK: &str = "edge->broker(60ms)";
    const FLIGHT_US: u64 = 60_000;
    const INTERVAL_US: u64 = 10_000;
    let (edge, cloud) = pilots(1, 1);
    let registry = MetricsRegistry::new();
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(20), MESSAGES))
        .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
        .metrics(registry.clone())
        .devices(1)
        .rate_per_device(1e6 / INTERVAL_US as f64)
        .link_edge_to_broker(LinkSpec::fixed(LINK, 60.0, 100e6).build())
        .batch_max_bytes(64 * 1024)
        .linger(Duration::from_millis(2))
        .start()
        .unwrap();
    let job_id = running.job_id();
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages as usize, MESSAGES);
    assert_eq!(summary.errors, 0);
    let mut produced = BTreeMap::new();
    let mut processing = HashMap::new();
    let mut batches = HashSet::new();
    for span in registry.snapshot().iter().filter(|s| s.job_id == job_id) {
        match &span.component {
            Component::EdgeProducer => {
                produced.insert(span.msg_id, (span.start_us, span.end_us));
            }
            Component::CloudProcessor => {
                processing.insert(span.msg_id, span.start_us);
            }
            Component::Network(link) if link == LINK => {
                batches.insert((span.start_us, span.end_us));
            }
            _ => {}
        }
    }
    assert_eq!(produced.len(), MESSAGES);
    let first_us = produced.values().next().unwrap().0;
    for (n, (msg, (started_us, left_us))) in produced.iter().enumerate() {
        let due_us = first_us + n as u64 * INTERVAL_US;
        assert!(
            *started_us < due_us + 20_000,
            "message {n} started {} µs after its send time: the device fell \
             behind its schedule",
            started_us.saturating_sub(due_us)
        );
        let waited_us = processing[msg].saturating_sub(*left_us);
        assert!(
            waited_us < FLIGHT_US + 20_000,
            "message {n} reached its processor {waited_us} µs after it left \
             its producer; the flight is {FLIGHT_US} µs"
        );
    }
    // Peak batches in flight at once: sweep the transfer windows.
    let mut edges: Vec<(u64, i32)> = batches
        .iter()
        .flat_map(|&(start, end)| [(start, 1), (end, -1)])
        .collect();
    edges.sort_by_key(|&(t, delta)| (t, delta));
    let peak = edges
        .iter()
        .scan(0, |in_flight, &(_, delta)| {
            *in_flight += delta;
            Some(*in_flight)
        })
        .max()
        .unwrap_or(0);
    assert!(peak > 2, "at most {peak} batches were ever in flight");
}

/// Each partition's records in log order, decoded (sentinels dropped).
fn partition_logs(
    broker: &pilot_broker::Broker,
    topic: &str,
    devices: usize,
) -> Vec<Vec<pilot_datagen::Block>> {
    (0..devices)
        .map(|p| {
            let hw = broker.high_watermark(topic, p).unwrap();
            broker
                .fetch(topic, p, 0, hw as usize)
                .unwrap()
                .iter()
                .filter(|r| !r.value.is_empty())
                .map(|r| pilot_datagen::decode_any(&r.value).unwrap().0)
                .collect()
        })
        .collect()
}

#[test]
fn credit_smaller_than_one_message_delivers_the_serial_message_set() {
    // A 1 MB/s link with a 5 ms flight holds 6 KB at a 1 ms linger; every
    // message is 25 KB. A device with nothing in flight is always
    // admitted, so the credit cannot deadlock: each device keeps one batch
    // in flight, and every partition holds the same messages in the same
    // order as under the serial transport.
    const DEVICES: usize = 3;
    let link = LinkSpec::fixed("edge->broker(6KB)", 5.0, 8e6);
    assert_eq!(link.bdp_bytes(Duration::from_millis(1)), 6_000);
    let run = |batched: bool| {
        let (edge, cloud) = pilots(1, 1);
        let witness = Witness::default();
        let mut b = EdgeToCloudPipeline::builder()
            .pilot_edge(edge)
            .pilot_cloud_processing(cloud)
            .produce_function(witness.gate(datagen_produce_factory(
                DataGenConfig::paper(100).with_seed(5),
                8,
            )))
            .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
            .devices(DEVICES)
            .link_edge_to_broker(link.clone().build());
        if batched {
            b = b
                .batch_max_bytes(64 * 1024)
                .linger(Duration::from_millis(1));
        }
        let running = b.start().unwrap();
        witness.pin(&running, DEVICES);
        let (broker, topic) = (running.broker(), running.topic().to_string());
        let summary = running.wait(WAIT).unwrap();
        assert_eq!(summary.messages as usize, DEVICES * 8);
        assert_eq!(summary.errors, 0);
        partition_logs(&broker, &topic, DEVICES)
    };
    let serial = run(false);
    assert!(
        serial.iter().all(|log| log.len() == 8),
        "8 messages a device"
    );
    assert_eq!(serial, run(true));
}

#[test]
fn stop_drains_devices_parked_on_credit() {
    // Four unthrottled devices batching over a link that holds 52 KB: they
    // park on its credit. Stopping the run then must still drain each of
    // them — land what is in flight, append the sentinel — and `wait`
    // returns well within its timeout with the credit-wait gauge at zero.
    const DEVICES: usize = 4;
    let (edge, cloud) = pilots(2, 2);
    let registry = MetricsRegistry::new();
    let witness = Witness::default();
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(witness.gate(datagen_produce_factory(DataGenConfig::paper(20), 100_000)))
        .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
        .metrics(registry.clone())
        .devices(DEVICES)
        .processors(2)
        .link_edge_to_broker(LinkSpec::fixed("edge->broker(52KB)", 50.0, 8e6).build())
        .batch_max_bytes(16 * 1024)
        .linger(Duration::from_millis(2))
        .telemetry_sample_ms(5)
        .start()
        .unwrap();
    witness.pin(&running, DEVICES);
    let (broker, topic) = (running.broker(), running.topic().to_string());
    let t = Instant::now();
    while registry.gauge_value(GAUGE_CREDIT_WAIT_DEPTH).unwrap_or(0) == 0 {
        assert!(
            t.elapsed() < Duration::from_secs(10),
            "no device ever parked on the link's credit"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    running.abort();
    let t = Instant::now();
    running.wait(WAIT).unwrap();
    assert!(t.elapsed() < WAIT);
    assert_eq!(registry.gauge_value(GAUGE_CREDIT_WAIT_DEPTH), Some(0));
    for partition in 0..DEVICES {
        let hw = broker.high_watermark(&topic, partition).unwrap();
        let records = broker.fetch(&topic, partition, 0, hw as usize).unwrap();
        let sentinels = records.iter().filter(|r| r.value.is_empty()).count();
        assert_eq!(sentinels, 1, "partition {partition}: {sentinels} sentinels");
        assert!(
            records.last().unwrap().value.is_empty(),
            "partition {partition} does not end with its sentinel"
        );
    }
}

#[test]
fn prefetch_hot_swap_mid_stream() {
    // Function replacement while look-ahead batches are in flight: the
    // swap must take effect without dropping them.
    let (edge, cloud) = pilots(2, 2);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(100), 20))
        .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
        .devices(2)
        .rate_per_device(200.0)
        .batch_max_bytes(64 * 1024)
        .linger(Duration::from_millis(2))
        .prefetch_depth(2)
        .start()
        .unwrap();
    let ctx = running.context().clone();
    std::thread::sleep(Duration::from_millis(50));
    running.replace_cloud_function(paper_model_factory(ModelKind::KMeans, 32));
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages, 40);
    assert_eq!(summary.errors, 0);
    // The swapped-in k-means published a model from post-swap messages.
    assert!(
        ctx.params.get(&ctx.model_key()).is_some(),
        "swapped model must publish"
    );
}

#[test]
fn pipelined_wan_run_conserves_messages_with_complete_span_chains() {
    // A real WAN-profile run with both batching and look-ahead: every
    // distinct message must carry the full five-stage span chain —
    // EdgeProducer → Network(edge→broker) → Broker → Network(broker→cloud)
    // → CloudProcessor — i.e. batch-level transfers still attribute
    // network time to each message.
    let (edge, cloud) = pilots(2, 2);
    let registry = MetricsRegistry::new();
    let summary = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(
            DataGenConfig::paper(25).with_seed(7),
            4,
        ))
        .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
        .devices(2)
        .metrics(registry.clone())
        .link_edge_to_broker(profiles::transatlantic("edge->broker(wan)", 7).build())
        .link_broker_to_cloud(profiles::cloud_local("broker->cloud", 8).build())
        .batch_max_bytes(256 * 1024)
        .linger(Duration::from_millis(2))
        .prefetch_depth(2)
        .run(WAIT)
        .unwrap();
    assert_eq!(summary.messages, 8);
    assert_eq!(summary.errors, 0);

    let mut chains: HashMap<u64, HashSet<String>> = HashMap::new();
    for span in registry.snapshot() {
        if !span.error {
            chains
                .entry(span.msg_id)
                .or_default()
                .insert(span.component.to_string());
        }
    }
    // Messages only (parameter-server spans use synthetic ids tied to the
    // CloudProcessor's message, so every id with an EdgeProducer span is a
    // real message).
    let msgs: Vec<u64> = chains
        .iter()
        .filter(|(_, c)| c.contains(&Component::EdgeProducer.to_string()))
        .map(|(m, _)| *m)
        .collect();
    assert_eq!(msgs.len(), 8, "one chain per distinct message");
    for m in msgs {
        let chain = &chains[&m];
        for needed in [
            Component::EdgeProducer.to_string(),
            Component::Network("edge->broker(wan)".into()).to_string(),
            Component::Broker.to_string(),
            Component::Network("broker->cloud".into()).to_string(),
            Component::CloudProcessor.to_string(),
        ] {
            assert!(
                chain.contains(&needed),
                "msg {m} missing {needed}: {chain:?}"
            );
        }
    }
}

#[test]
fn pipelined_processes_the_same_message_set_as_serial() {
    // Same seed, same workload: the pipelined transport must deliver
    // exactly the message set the serial transport delivers — batching
    // changes the schedule, never the data.
    let run = |pipelined: bool| {
        let (edge, cloud) = pilots(2, 2);
        let registry = MetricsRegistry::new();
        let mut b = EdgeToCloudPipeline::builder()
            .pilot_edge(edge)
            .pilot_cloud_processing(cloud)
            .produce_function(datagen_produce_factory(
                DataGenConfig::paper(50).with_seed(11),
                6,
            ))
            .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
            .devices(2)
            .metrics(registry.clone());
        if pipelined {
            b = b
                .batch_max_bytes(64 * 1024)
                .linger(Duration::from_millis(1))
                .prefetch_depth(2);
        }
        let summary = b.run(WAIT).unwrap();
        assert_eq!(summary.errors, 0);
        let mids: HashSet<u64> = registry
            .snapshot()
            .into_iter()
            .filter(|s| s.component == Component::CloudProcessor && !s.error)
            .map(|s| s.msg_id)
            .collect();
        mids
    };
    assert_eq!(run(false), run(true));
}
