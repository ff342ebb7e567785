//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * `partitions`  — partition/device count beyond the paper's 4: where does
//!   broker-vs-processor crossover move? (extends Fig. 2's x-axis)
//! * `placement`   — cloud-centric vs hybrid (edge downsampling before the
//!   WAN) on the transatlantic profile, quantifying the paper's "would
//!   benefit from a hybrid deployment" remark.
//! * `params`      — parameter-server merge-policy cost at the
//!   auto-encoder's 11,552-weight payload.
//! * `codec`       — F64 vs Q16 wire codec over the transatlantic profile
//!   (the paper's "data compression ... to ensure that the amount of data
//!   movement is minimal").
//!
//! Run: `cargo bench -p pilot-bench --bench ablations`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pilot_bench::{run_cell, CellOpts, Geo};
use pilot_edge::DeploymentMode;
use pilot_ml::ModelKind;
use pilot_params::{MergePolicy, ParameterServer};
use std::time::Duration;

fn bench_partitions(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_partitions");
    group.sample_size(10);
    for &devices in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::from_parameter(devices),
            &devices,
            |b, &devices| {
                b.iter(|| {
                    run_cell(&CellOpts {
                        points: 500,
                        devices,
                        model: ModelKind::Baseline,
                        messages_per_device: 4,
                        geo: Geo::Local,
                        ..CellOpts::default()
                    })
                })
            },
        );
    }
    group.finish();
}

fn bench_placement(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_placement");
    group.sample_size(10);
    let cells = [
        ("cloud-centric", DeploymentMode::CloudCentric),
        ("hybrid-downsample4", DeploymentMode::Hybrid),
    ];
    for (label, mode) in cells {
        group.bench_function(label, |b| {
            b.iter(|| {
                run_cell(&CellOpts {
                    points: 1000,
                    devices: 1,
                    model: ModelKind::KMeans,
                    messages_per_device: 2,
                    geo: Geo::Transatlantic,
                    mode,
                    downsample: 4,
                    ..CellOpts::default()
                })
            })
        });
    }
    group.finish();
}

fn bench_params(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_params");
    const WEIGHTS: usize = 11_552; // the paper's auto-encoder size
    group.throughput(Throughput::Bytes((WEIGHTS * 8) as u64));
    let policies = [
        ("assign", MergePolicy::Assign),
        ("average", MergePolicy::Average),
        ("ema", MergePolicy::Ema { alpha: 0.1 }),
        ("sum", MergePolicy::Sum),
    ];
    for (label, policy) in policies {
        group.bench_function(label, |b| {
            let ps = ParameterServer::new();
            let weights = vec![0.5f64; WEIGHTS];
            ps.put("model", weights.clone());
            b.iter(|| ps.update("model", policy, &weights))
        });
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_codec");
    group.sample_size(10);
    for codec in [pilot_datagen::Codec::F64, pilot_datagen::Codec::Q16] {
        group.bench_function(codec.label(), |b| {
            b.iter(|| {
                let mut opts = CellOpts {
                    points: 2_000,
                    devices: 1,
                    model: ModelKind::Baseline,
                    messages_per_device: 2,
                    geo: Geo::Transatlantic,
                    ..CellOpts::default()
                };
                let _ = &mut opts;
                run_cell_with_codec(&opts, codec)
            })
        });
    }
    group.finish();
}

/// run_cell with a codec override (kept here: only the ablation needs it).
fn run_cell_with_codec(opts: &CellOpts, codec: pilot_datagen::Codec) -> pilot_edge::RunSummary {
    use pilot_edge::processors::{datagen_produce_factory, paper_model_factory};
    use pilot_netsim::profiles;
    let svc = pilot_core::PilotComputeService::new();
    let (edge, cloud) = pilot_bench::provision(&svc, opts);
    pilot_edge::EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(
            pilot_datagen::DataGenConfig::paper(opts.points).with_seed(opts.seed),
            opts.messages_per_device,
        ))
        .process_cloud_function(paper_model_factory(opts.model, 32))
        .devices(opts.devices)
        .codec(codec)
        .link_edge_to_broker(profiles::transatlantic("wan", opts.seed).build())
        .run(Duration::from_secs(600))
        .unwrap()
}

fn bench_pipeline_wan(c: &mut Criterion) {
    // End-to-end serial vs pipelined transport on the transatlantic
    // profile (DESIGN.md §8). Small paper messages (25 points) make
    // propagation — not bandwidth — the serial bottleneck, which is
    // exactly what producer batching + consumer prefetch reclaim; at
    // 10,000 points the link's transit capacity is the ceiling and the
    // two variants converge (see EXPERIMENTS.md).
    let mut group = c.benchmark_group("pipeline_wan");
    group.sample_size(10);
    let serial = CellOpts {
        points: 25,
        devices: 4,
        processors: Some(2),
        model: ModelKind::Baseline,
        messages_per_device: 8,
        geo: Geo::Transatlantic,
        ..CellOpts::default()
    };
    let pipelined = serial.clone().pipelined(256 * 1024);
    group.bench_function("serial", |b| b.iter(|| run_cell(&serial)));
    group.bench_function("pipelined", |b| b.iter(|| run_cell(&pipelined)));
    group.finish();
}

criterion_group!(
    benches,
    bench_partitions,
    bench_placement,
    bench_params,
    bench_codec,
    bench_pipeline_wan
);
criterion_main!(benches);
