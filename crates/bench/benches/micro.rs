//! Substrate micro-benchmarks: the per-operation costs that compose into
//! the pipeline-level numbers of Fig. 2/3.
//!
//! * `broker_append` / `broker_fetch` — commit-log service time per record
//!   size (the Fig. 2 broker component).
//! * `model_per_message` — partial_fit + score cost of each evaluation
//!   model on a paper-sized message (the Fig. 3 model ordering, isolated
//!   from transport).
//! * `linalg_gemm` / `isoforest` — the kernels under `model_per_message`:
//!   the auto-encoder's three GEMM forms at its layer shapes, portable vs
//!   dispatched instantiation, and the forest's fit and score on their own.
//! * `codec` — f64 vs Q16 encode/decode per block.
//! * `histogram_record` — the monitoring fabric's hot-path cost.
//!
//! Run: `cargo bench -p pilot-bench --bench micro`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pilot_broker::{Broker, Record, RetentionPolicy};
use pilot_dataflow::ComputePool;
use pilot_datagen::{codec, DataGenConfig, DataGenerator};
use pilot_ml::{
    AutoEncoderConfig, Dataset, IsolationForestConfig, KMeansConfig, ModelKind, OutlierModel,
};
use pilot_netsim::profiles;
use std::sync::Arc;

/// Records a trailing consumer group stays behind the appends.
const TRAIL: u64 = 4096;

/// Append one record to partition 0 of `t`, a commit-floor topic, keeping
/// it bounded: once a segment, a group commits `TRAIL` records behind.
fn append_trailed(broker: &Broker, payload: &bytes::Bytes) -> u64 {
    let offset = broker.append("t", 0, Record::new(payload.clone())).unwrap();
    if offset.is_multiple_of(pilot_broker::log::SEGMENT_RECORDS as u64) {
        broker.commit_offset("trail", "t", 0, offset.saturating_sub(TRAIL));
    }
    offset
}

fn bench_broker(c: &mut Criterion) {
    let mut group = c.benchmark_group("broker_append");
    for &size in &[6_400usize, 256_000, 2_560_000] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let broker = Broker::new();
            broker
                .create_topic("t", 1, RetentionPolicy::default())
                .unwrap();
            let payload = bytes::Bytes::from(vec![7u8; size]);
            b.iter(|| append_trailed(&broker, &payload));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("broker_fetch");
    for &size in &[6_400usize, 256_000] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let broker = Broker::new();
            broker
                .create_topic("t", 1, RetentionPolicy::unbounded())
                .unwrap();
            for _ in 0..64 {
                broker.append("t", 0, Record::new(vec![7u8; size])).unwrap();
            }
            let mut offset = 0u64;
            b.iter(|| {
                let recs = broker.fetch("t", 0, offset % 64, 1).unwrap();
                offset += 1;
                recs
            });
        });
    }
    group.finish();
}

fn bench_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_per_message");
    group.sample_size(10);
    const POINTS: usize = 1000;
    let mut generator = DataGenerator::new(DataGenConfig::paper(POINTS));
    let block = generator.next_block();
    let bytes = (POINTS * 32 * 8) as u64;
    group.throughput(Throughput::Bytes(bytes));

    for kind in [
        ModelKind::KMeans,
        ModelKind::IsolationForest,
        ModelKind::AutoEncoder,
    ] {
        // `seq` is the paper's single-threaded per-message cost; `pool4`
        // fans the same invocation out across a 4-wide intra-task compute
        // pool. Scores are bit-identical between the two (the pool's
        // determinism contract), so the delta is pure speedup.
        for (variant, threads) in [("seq", 1usize), ("pool4", 4)] {
            group.bench_function(BenchmarkId::new(kind.label(), variant), |b| {
                // The paper's per-message protocol: update + score.
                let mut model: Box<dyn OutlierModel> = match kind {
                    ModelKind::KMeans => Box::new(pilot_ml::KMeans::new(KMeansConfig::paper())),
                    ModelKind::IsolationForest => Box::new(pilot_ml::IsolationForest::new(
                        IsolationForestConfig::paper(),
                    )),
                    ModelKind::AutoEncoder => {
                        Box::new(pilot_ml::AutoEncoder::new(AutoEncoderConfig::paper()))
                    }
                    ModelKind::Baseline => unreachable!(),
                };
                model.set_compute_pool(Arc::new(ComputePool::new(threads)));
                let ds = Dataset::new(&block.data, block.points, block.features);
                b.iter(|| {
                    model.partial_fit(&ds);
                    model.score(&ds)
                });
            });
        }
    }
    group.finish();
}

/// The auto-encoder's GEMMs at the paper's layer shapes: a 64-row training
/// mini-batch through every (in, out) the 32-feature PyOD network has, in the
/// three forms one training step uses, plus the forward form on a 128-row
/// scoring chunk. `portable` is the kernel body as written, `dispatched` the
/// instantiation `pilot_ml::linalg` picks on this host (named in the group
/// header); their outputs are bit-identical, so the delta is vector width.
fn bench_linalg(c: &mut Criterion) {
    use pilot_ml::linalg::{gemm_body, matmul, matmul_a_bt, matmul_at_b, transpose};
    let mut group = c.benchmark_group(format!(
        "linalg_gemm[dispatched={}]",
        pilot_ml::linalg::dispatched_path()
    ));
    group.sample_size(200);
    let fill = |len: usize| -> Vec<f64> { (0..len).map(|i| (i % 23) as f64 / 8.0 - 1.0).collect() };
    for (rows, inp, out) in [(64, 32, 32), (64, 32, 64), (64, 64, 32), (128, 32, 64)] {
        let shape = format!("{rows}x{inp}x{out}");
        let (x, w, delta) = (fill(rows * inp), fill(inp * out), fill(rows * out));
        group.throughput(Throughput::Elements((2 * rows * inp * out) as u64));
        // Forward: activations[rows×out] = x · W.
        let mut act = vec![0.0; rows * out];
        group.bench_function(BenchmarkId::new("forward/portable", &shape), |b| {
            b.iter(|| gemm_body::<false>(&x, &w, &mut act, rows, inp, out))
        });
        group.bench_function(BenchmarkId::new("forward/dispatched", &shape), |b| {
            b.iter(|| matmul(&x, &w, &mut act, rows, inp, out))
        });
        if rows != 64 {
            continue; // scoring only runs the forward form
        }
        // Weight gradient: grad[inp×out] = xᵀ · delta.
        let mut grad = vec![0.0; inp * out];
        group.bench_function(BenchmarkId::new("at_b/portable", &shape), |b| {
            b.iter(|| gemm_body::<true>(&x, &delta, &mut grad, inp, rows, out))
        });
        group.bench_function(BenchmarkId::new("at_b/dispatched", &shape), |b| {
            b.iter(|| matmul_at_b(&x, &delta, &mut grad, inp, rows, out))
        });
        // Back-propagated delta: prev[rows×inp] = delta · Wᵀ.
        let (mut wt, mut prev) = (vec![0.0; inp * out], vec![0.0; rows * inp]);
        group.bench_function(BenchmarkId::new("a_bt/portable", &shape), |b| {
            b.iter(|| {
                transpose(&w, &mut wt, inp, out);
                gemm_body::<false>(&delta, &wt, &mut prev, rows, out, inp)
            })
        });
        group.bench_function(BenchmarkId::new("a_bt/dispatched", &shape), |b| {
            b.iter(|| matmul_a_bt(&delta, &w, &mut wt, &mut prev, rows, out, inp))
        });
    }
    group.finish();
}

/// The isolation forest's two halves on a paper-sized message (1000×32,
/// 100 trees, ψ = 256), single-threaded: `fit` rebuilds the ensemble,
/// `score` walks every point down every tree.
fn bench_isoforest(c: &mut Criterion) {
    let mut group = c.benchmark_group("isoforest");
    group.sample_size(20);
    let block = DataGenerator::new(DataGenConfig::paper(1000)).next_block();
    let ds = Dataset::new(&block.data, block.points, block.features);
    let mut forest = pilot_ml::IsolationForest::new(IsolationForestConfig::paper());
    group.bench_function("fit", |b| b.iter(|| forest.fit(&ds)));
    group.bench_function("score", |b| b.iter(|| forest.score(&ds)));
    group.finish();
}

fn bench_compute_pool(c: &mut Criterion) {
    // The fixed cost of publishing one scoped job (empty closure): what the
    // per-message hot path pays for the *option* of fanning out. Persistent
    // workers keep this at one lock + condvar broadcast — no thread spawn.
    let mut group = c.benchmark_group("compute_pool");
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("scope_overhead", threads),
            &threads,
            |b, &threads| {
                let pool = ComputePool::new(threads);
                b.iter(|| pool.run(threads, |_| {}));
            },
        );
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    const POINTS: usize = 1000;
    let mut generator = DataGenerator::new(DataGenConfig::paper(POINTS));
    let block = generator.next_block();
    group.throughput(Throughput::Bytes((POINTS * 32 * 8) as u64));
    group.bench_function("encode_f64", |b| {
        b.iter(|| codec::encode_with(codec::Codec::F64, &block, 0))
    });
    group.bench_function("encode_q16", |b| {
        b.iter(|| codec::encode_with(codec::Codec::Q16, &block, 0))
    });
    let f64_wire = codec::encode_with(codec::Codec::F64, &block, 0);
    let q16_wire = codec::encode_with(codec::Codec::Q16, &block, 0);
    group.bench_function("decode_f64", |b| b.iter(|| codec::decode_any(&f64_wire)));
    group.bench_function("decode_q16", |b| b.iter(|| codec::decode_any(&q16_wire)));
    group.finish();
}

fn bench_link_transfer(c: &mut Criterion) {
    // Propagation delay is charged per `transfer` call; a batch reservation
    // charges it once for the whole batch (transit still scales with the
    // summed bytes). The LAN profile keeps the real sleeps benchmarkable —
    // the per-message/batched ratio only widens on the WAN profiles, where
    // propagation is ~75 ms instead of sub-millisecond.
    let mut group = c.benchmark_group("link_transfer");
    group.sample_size(10);
    const MSGS: usize = 16;
    const BYTES: u64 = 6_400;
    group.throughput(Throughput::Bytes(MSGS as u64 * BYTES));
    group.bench_function("per_message", |b| {
        let link = profiles::lan("lan", 1).build();
        b.iter(|| {
            for _ in 0..MSGS {
                link.transfer(BYTES);
            }
        });
    });
    group.bench_function("batched", |b| {
        let link = profiles::lan("lan", 1).build();
        let sizes = [BYTES; MSGS];
        b.iter(|| link.reserve_batch(&sizes).wait());
    });
    group.finish();
}

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics");
    group.bench_function("histogram_record", |b| {
        let mut h = pilot_metrics::Histogram::new();
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1) % 1_000_000;
            h.record(v);
        });
    });
    group.finish();
}

fn bench_span_record(c: &mut Criterion) {
    // The monitoring fabric at fan-in scale: recording must stay O(1) and
    // contention-free (thread-pinned shards), reporting must stream spans
    // by reference (a clone of a ~1M-span store would dwarf the runs it
    // measures), and the hot counters must be bumpable without a name
    // lookup per message.
    let mut group = c.benchmark_group("span_record");
    group.bench_function("record", |b| {
        let registry = pilot_metrics::MetricsRegistry::new();
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            registry.record(1, i, pilot_metrics::Component::Broker, i, i + 10, 1024);
        });
    });
    group.sample_size(10);
    group.bench_function("report_100k_spans", |b| {
        let registry = pilot_metrics::MetricsRegistry::new();
        for i in 0..100_000u64 {
            registry.record(1, i, pilot_metrics::Component::Broker, i, i + 10, 1024);
        }
        b.iter(|| registry.report());
    });
    group.bench_function("counter_lookup_per_event", |b| {
        let registry = pilot_metrics::MetricsRegistry::new();
        b.iter(|| registry.counter("messages_processed").incr());
    });
    group.bench_function("counter_cached_handle", |b| {
        let registry = pilot_metrics::MetricsRegistry::new();
        let handle = registry.counter("messages_processed");
        b.iter(|| handle.incr());
    });
    // The telemetry-plane ladder: what one stage-gauge update costs the
    // hot path. `gauge_off_option_check` is the telemetry-off shape (the
    // `Option` null check every stage pays when `telemetry_sample_ms` is
    // unset); `gauge_on_update` adds the relaxed atomic add behind a
    // cached handle; `gauge_lookup_per_event` shows why the stages cache
    // handles instead of resolving names per message.
    group.bench_function("gauge_off_option_check", |b| {
        let gauge: Option<Arc<pilot_metrics::Gauge>> = None;
        b.iter(|| {
            if let Some(g) = &gauge {
                g.incr();
            }
        });
    });
    group.bench_function("gauge_on_update", |b| {
        let registry = pilot_metrics::MetricsRegistry::new();
        let gauge = registry.gauge("producer.deadline_queue_depth");
        b.iter(|| gauge.incr());
    });
    group.bench_function("gauge_lookup_per_event", |b| {
        let registry = pilot_metrics::MetricsRegistry::new();
        b.iter(|| registry.gauge("producer.deadline_queue_depth").incr());
    });
    group.finish();
}

fn bench_offset_commit(c: &mut Criterion) {
    // The consumer-group commit path: the seed hashed (and on miss cloned)
    // the group and topic Strings per commit; interned ids make the key
    // Copy, and the batched variant takes the store lock once per poll
    // round instead of once per partition.
    let mut group = c.benchmark_group("offset_commit");
    const PARTS: usize = 64;
    let setup = || {
        let broker = Broker::new();
        broker
            .create_topic("fan-in-topic", PARTS, RetentionPolicy::unbounded())
            .unwrap();
        broker
    };
    group.bench_function("string_keys_per_partition", |b| {
        let broker = setup();
        let mut off = 0u64;
        b.iter(|| {
            off += 1;
            for p in 0..PARTS {
                broker.commit_offset("cloud-processors", "fan-in-topic", p, off);
            }
        });
    });
    group.bench_function("interned_per_partition", |b| {
        let broker = setup();
        let group_id = broker.group_id("cloud-processors");
        let topic_id = broker.topic_id("fan-in-topic");
        let mut off = 0u64;
        b.iter(|| {
            off += 1;
            for p in 0..PARTS {
                broker.commit_offset_by_id(group_id, topic_id, p, off);
            }
        });
    });
    group.bench_function("interned_batched", |b| {
        let broker = setup();
        let group_id = broker.group_id("cloud-processors");
        let topic_id = broker.topic_id("fan-in-topic");
        let mut off = 0u64;
        b.iter(|| {
            off += 1;
            broker.commit_offsets(group_id, topic_id, (0..PARTS).map(|p| (p, off)));
        });
    });
    group.finish();
}

/// The durable-log append ladder: the same 64 KiB append under each
/// storage shape, from the seed's memory-only log to fsync-per-append.
/// `group_commit` should sit within a small factor of `memory` (the
/// flusher thread absorbs the fsyncs); `fsync_each` shows the cliff the
/// group commit removes. Retention is bounded so the on-disk log recycles
/// segment files instead of filling the scratch disk.
fn bench_log_append(c: &mut Criterion) {
    use pilot_broker::{DurabilityConfig, SyncPolicy};
    const SIZE: usize = 65_536;
    let mut group = c.benchmark_group("log_append");
    group.throughput(Throughput::Bytes(SIZE as u64));
    let shapes: [(&str, Option<SyncPolicy>); 4] = [
        ("memory", None),
        ("durable_nofsync", Some(SyncPolicy::OsOnly)),
        ("group_commit", Some(SyncPolicy::group_commit_default())),
        ("fsync_each", Some(SyncPolicy::EachAppend)),
    ];
    for (label, policy) in shapes {
        group.bench_function(label, |b| {
            let dir = std::env::temp_dir()
                .join(format!("pilot-micro-log-{}-{label}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let broker = Broker::new();
            match policy {
                None => broker
                    .create_topic("t", 1, RetentionPolicy::default())
                    .unwrap(),
                Some(p) => broker
                    .create_topic_durable(
                        "t",
                        1,
                        RetentionPolicy::default(),
                        &DurabilityConfig::new(&dir).with_policy(p),
                    )
                    .unwrap(),
            }
            let payload = bytes::Bytes::from(vec![7u8; SIZE]);
            b.iter(|| append_trailed(&broker, &payload));
            drop(broker);
            std::fs::remove_dir_all(&dir).ok();
        });
    }
    group.finish();
}

/// The parameter-plane ladder behind the federation merge loop: reading
/// 64 cell keys per merge round, per-key vs batched. `get_many` and
/// `get_many_if_newer` group keys by shard and take each shard lock once
/// per batch — one lock round per *shard*, not per *cell* — which is what
/// keeps a 1024-cell parameter plane off the lock-acquisition cliff.
/// `put_many` is the regions' fan-down write-back path.
fn bench_params_ops(c: &mut Criterion) {
    use pilot_params::ParameterServer;
    const KEYS: usize = 64;
    const DIM: usize = 33; // [samples, 32-feature model]
    let keys: Vec<String> = (0..KEYS).map(|k| format!("cell:{k}")).collect();
    let seeded = || {
        let server = ParameterServer::new();
        for key in &keys {
            server.put(key, vec![1.0; DIM]);
        }
        server
    };
    let mut group = c.benchmark_group("params_ops");
    group.bench_function("get_per_key", |b| {
        let server = seeded();
        b.iter(|| keys.iter().map(|k| server.get(k)).collect::<Vec<_>>());
    });
    group.bench_function("get_many_batched", |b| {
        let server = seeded();
        b.iter(|| server.get_many(&keys));
    });
    group.bench_function("get_if_newer_per_key", |b| {
        let server = seeded();
        b.iter(|| {
            keys.iter()
                .map(|k| server.get_if_newer(k, 0))
                .collect::<Vec<_>>()
        });
    });
    group.bench_function("get_many_if_newer_batched", |b| {
        let server = seeded();
        let reqs: Vec<(String, u64)> = keys.iter().map(|k| (k.clone(), 0u64)).collect();
        b.iter(|| server.get_many_if_newer(&reqs));
    });
    group.bench_function("put_per_key", |b| {
        let server = seeded();
        b.iter(|| {
            for key in &keys {
                server.put(key, vec![1.0; DIM]);
            }
        });
    });
    group.bench_function("put_many_batched", |b| {
        let server = seeded();
        b.iter(|| {
            server.put_many(
                keys.iter()
                    .map(|k| (k.clone(), vec![1.0; DIM]))
                    .collect::<Vec<_>>(),
            )
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_broker,
    bench_log_append,
    bench_models,
    bench_linalg,
    bench_isoforest,
    bench_compute_pool,
    bench_codec,
    bench_link_transfer,
    bench_metrics,
    bench_span_record,
    bench_offset_commit,
    bench_params_ops
);
criterion_main!(benches);
