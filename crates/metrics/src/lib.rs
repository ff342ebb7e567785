//! # pilot-metrics — the Pilot-Edge monitoring fabric
//!
//! The Pilot-Edge paper (Section II-B, "step 3") emphasises *comprehensive
//! monitoring*: every component of an edge-to-cloud pipeline — the edge data
//! generator, the broker, and the cloud processing service — captures metrics
//! that are **linked by a unique job identifier** so that "progress and errors
//! can be consistently tracked across all components" and bottlenecks are easy
//! to identify (e.g. Fig. 2's observation that with four partitions the Kafka
//! broker can process more data than the consuming cloud tasks).
//!
//! This crate provides that fabric:
//!
//! * [`MetricsRegistry`] — a sharded, thread-safe sink for [`Span`] records
//!   and named [`Counter`]s / [`Histogram`]s, with a single monotonic epoch so
//!   timestamps from different threads are comparable.
//! * [`Span`] — one timed unit of work in one [`Component`], keyed by
//!   `(job_id, msg_id)` so the end-to-end path of a message can be
//!   reconstructed across components.
//! * [`ComponentStats`] / [`PipelineReport`] — aggregation: per-component
//!   throughput (messages/s and MB/s), latency quantiles, end-to-end message
//!   latency (produce start → final process end), and a bottleneck verdict.
//! * [`Histogram`] — a log-bucketed latency histogram with cheap recording
//!   and quantile queries, mergeable across shards.
//! * [`EnergyModel`] — the simple active-time × wattage energy estimate the
//!   paper lists as future work.
//! * [`telemetry`] — the *live* plane: lock-free [`Gauge`]s, the
//!   [`TelemetrySampler`] frame ring, and the online bottleneck
//!   [`attribute`]-or over linked span chains.
//! * [`trace`] — Chrome `trace_event` JSON export
//!   (`chrome://tracing` / Perfetto-loadable) of span chains + gauge
//!   series, with a dependency-free validator for CI smokes.
//!
//! The registry is designed for the hot path of a streaming pipeline: span
//! recording takes one shard lock (sharded by thread to avoid contention) and
//! one `Vec::push`.

pub mod clock;
pub mod counter;
pub mod energy;
pub mod histogram;
pub mod json;
pub mod prometheus;
pub mod registry;
pub mod report;
pub mod span;
pub mod telemetry;
pub mod top;
pub mod trace;

pub use clock::Clock;
pub use counter::Counter;
pub use energy::{EnergyModel, ResourceClass};
pub use histogram::Histogram;
pub use json::{push_json_string, validate_json};
pub use prometheus::{prometheus_exposition, validate_prometheus};
pub use registry::{JobSpans, MetricsRegistry};
pub use report::{ComponentStats, EndToEnd, PipelineReport, ReportBuilder};
pub use span::{Component, JobId, MsgId, Span};
pub use telemetry::{
    attribute, frames_json, Attribution, Gauge, Probe, TelemetryFrame, TelemetrySampler,
    WindowAttribution,
};
pub use top::{TopView, PIPELINE_GAUGES};
pub use trace::{chrome_trace_json, validate_trace_json, write_chrome_trace_to};
