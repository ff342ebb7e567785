//! The per-layer ladder of a traced run: live timings from the benchmark's
//! closures, counts from public accessors, and isolated single-thread probes
//! that replay the workload's input sizes against each crate's public
//! functions — then the budget that reconciles them with `cpu_us_per_msg`.

use crate::adapter::{self, LayerOp, Model};
use crate::stats::{median, percentile, Metric};
use crate::workloads::{Measured, Workload};
use std::collections::BTreeMap;
use std::path::Path;

/// Every per-layer metric, with its unit, in the order it is printed. Layers
/// are the workspace crates; `edge.*` is the runtime that ties them together.
/// A layer a workload does not exercise reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("core.pilot_submit_us", "us"),
    ("core.fleet_submit_us_per_pilot", "us"),
    ("datagen.generate_us", "us"),
    ("datagen.encode_us", "us"),
    ("datagen.decode_us", "us"),
    ("netsim.reserve_us", "us"),
    ("netsim.reservations_per_msg", "count"),
    ("netsim.edge_link_busy_frac", "ratio"),
    ("netsim.cloud_link_busy_frac", "ratio"),
    ("netsim.edge_link_wait_ms", "ms"),
    ("broker.append_us", "us"),
    ("broker.append_durable_us", "us"),
    ("broker.fetch_us_per_record", "us"),
    ("broker.commit_us", "us"),
    ("broker.fsyncs_per_msg", "count"),
    ("broker.fsync_us_per_msg", "us"),
    ("broker.flusher_cpu_us_per_msg", "us"),
    ("dataflow.spawn_us", "us"),
    ("dataflow.wake_to_poll_p50_us", "us"),
    ("dataflow.wake_to_poll_p99_us", "us"),
    ("dataflow.polls_per_msg", "count"),
    ("dataflow.pool_run_us", "us"),
    ("dataflow.pool_jobs_per_msg", "count"),
    ("dataflow.threads_peak", "count"),
    ("params.put_us", "us"),
    ("params.update_us", "us"),
    ("params.get_if_newer_us", "us"),
    ("params.get_many_if_newer_us_per_key", "us"),
    ("params.puts_per_msg", "count"),
    ("params.gets_per_msg", "count"),
    ("ml.kmeans_us", "us"),
    ("ml.isoforest_us", "us"),
    ("ml.autoencoder_us", "us"),
    ("metrics.span_record_us", "us"),
    ("metrics.counter_lookup_us", "us"),
    ("metrics.spans_per_msg", "count"),
    ("edge.start_ms", "ms"),
    ("edge.drain_ms", "ms"),
    ("edge.producer_lateness_p99_ms", "ms"),
    ("edge.offered_rate_frac", "ratio"),
    ("edge.attributed_us_per_msg", "us"),
    ("edge.unattributed_us_per_msg", "us"),
    ("edge.trace_overhead_frac", "ratio"),
];

/// Median time of one probe in microseconds per unit of `per`.
fn run_op(op: &mut LayerOp) -> f64 {
    for _ in 0..(op.iterations / 10).max(1) {
        (op.run)();
    }
    let mut us: Vec<f64> = (0..op.iterations)
        .map(|_| (op.run)().as_secs_f64() * 1e6)
        .collect();
    median(&mut us) / op.per
}

/// The ladder for one workload. `untraced` and `traced` are two passes of
/// the same configuration, the second with the closures timing their calls.
pub fn layer_metrics(
    w: &Workload,
    untraced: &Measured,
    traced: &Measured,
    seed: u64,
    scratch: &Path,
) -> Result<Vec<Metric>, String> {
    let sizes = &w.probe_sizes();
    let (models, open_loop, durable): (&[Model], _, _) = match w {
        Workload::Pipeline(p) => (p.spec.models, p.window == 0, p.spec.durable),
        Workload::Federation(_) => (&[], false, false),
    };
    let mut v: BTreeMap<&str, f64> = BTreeMap::new();
    for mut op in adapter::layer_ops(sizes, seed, scratch)? {
        let value = run_op(&mut op);
        v.insert(op.name, value);
    }
    let wakes = {
        let mut us: Vec<f64> = adapter::wake_to_poll_samples(sizes.members, 2000)
            .iter()
            .map(|d| d.as_secs_f64() * 1e6)
            .collect();
        us.sort_by(f64::total_cmp);
        us
    };
    v.insert("dataflow.wake_to_poll_p50_us", percentile(&wakes, 50.0));
    v.insert("dataflow.wake_to_poll_p99_us", percentile(&wakes, 99.0));

    // Live timings and counts of the traced pass.
    let msgs = traced.delivered.max(1) as f64;
    let c = &traced.counts;
    let span_us = (traced.span_s * 1e6).max(1.0);
    if traced.gen_us > 0.0 {
        v.insert("datagen.generate_us", traced.gen_us);
    }
    for (name, model) in [
        ("ml.kmeans_us", Model::KMeans),
        ("ml.isoforest_us", Model::IsoForest),
        ("ml.autoencoder_us", Model::AutoEncoder),
    ] {
        let live = models.iter().position(|m| *m == model);
        v.insert(name, live.map_or(0.0, |i| traced.step_us[i]));
    }
    let reservations = (c.edge_reservations + c.cloud_reservations) as f64 / msgs;
    v.insert("netsim.reservations_per_msg", reservations);
    v.insert(
        "netsim.edge_link_busy_frac",
        c.edge_busy_us as f64 / span_us,
    );
    v.insert(
        "netsim.cloud_link_busy_frac",
        c.cloud_busy_us as f64 / span_us,
    );
    v.insert("broker.fsyncs_per_msg", c.fsyncs as f64 / msgs);
    v.insert("broker.fsync_us_per_msg", c.fsync_us as f64 / msgs);
    v.insert(
        "broker.flusher_cpu_us_per_msg",
        traced.storage_cpu_us_per_msg,
    );
    v.insert("dataflow.polls_per_msg", c.reactor_polls as f64 / msgs);
    v.insert("dataflow.pool_jobs_per_msg", c.pool_jobs as f64 / msgs);
    v.insert("dataflow.threads_peak", traced.threads_peak);
    v.insert("params.puts_per_msg", c.param_puts as f64 / msgs);
    v.insert("params.gets_per_msg", c.param_gets as f64 / msgs);
    v.insert("metrics.spans_per_msg", c.spans as f64 / msgs);
    let mut starts: Vec<f64> = untraced
        .setup_s
        .iter()
        .chain(&traced.setup_s)
        .copied()
        .collect();
    v.insert("edge.start_ms", median(&mut starts) * 1e3);
    v.insert("edge.drain_ms", traced.drain_ms);
    v.insert("edge.producer_lateness_p99_ms", traced.lateness_p99_ms);
    v.insert("edge.offered_rate_frac", traced.offered_frac);

    // The per-message budget: each layer's cost per call times its calls per
    // message. The models' live step already contains their parameter
    // publish and counter lookups; the baseline pays one lookup; the
    // federation participant pays its puts and gets. Consumers commit once
    // per fetch round: one message on the paced workloads, `fetch_max` on
    // the saturating ones.
    let get = |name: &str| v.get(name).copied().unwrap_or(0.0);
    let append = if durable {
        "broker.append_durable_us"
    } else {
        "broker.append_us"
    };
    let commits_per_msg = if open_loop {
        1.0
    } else {
        1.0 / sizes.fetch_max as f64
    };
    let model_steps: f64 = ["ml.kmeans_us", "ml.isoforest_us", "ml.autoencoder_us"]
        .into_iter()
        .map(get)
        .sum();
    let function_cost = if !models.is_empty() {
        model_steps
    } else if matches!(w, Workload::Federation(..)) {
        get("params.put_us") * get("params.puts_per_msg")
            + get("params.get_if_newer_us") * get("params.gets_per_msg")
    } else {
        get("metrics.counter_lookup_us")
    };
    let attributed = get("datagen.generate_us")
        + get("datagen.encode_us")
        + get("datagen.decode_us")
        + get("netsim.reserve_us") * reservations
        + get(append)
        + get("broker.fetch_us_per_record")
        + get("broker.commit_us") * commits_per_msg
        + get("metrics.span_record_us") * get("metrics.spans_per_msg")
        + function_cost;
    v.insert("edge.attributed_us_per_msg", attributed);
    v.insert(
        "edge.unattributed_us_per_msg",
        traced.cpu_us_per_msg - attributed,
    );
    let overhead = if untraced.cpu_us_per_msg > 0.0 {
        traced.cpu_us_per_msg / untraced.cpu_us_per_msg - 1.0
    } else {
        0.0
    };
    v.insert("edge.trace_overhead_frac", overhead);

    LAYER_METRICS
        .iter()
        .map(|(name, unit)| {
            v.get(name)
                .map(|value| Metric::new(name, unit, *value))
                .ok_or_else(|| format!("layer metric {name} was not measured"))
        })
        .collect()
}
