//! # pilot-edge — the paper's contribution: a FaaS abstraction and runtime
//! for edge-to-cloud pipelines
//!
//! Pilot-Edge lets an application express an edge-to-cloud workload as three
//! functions (paper Listing 1) —
//!
//! ```text
//! def produce_edge(context)                      # sensing / data generation
//! def process_edge(context, data)                # edge-side processing
//! def process_cloud(context, data)               # cloud-side processing
//! ```
//!
//! — and a binding of those functions to *pilots* (paper Listing 2:
//! `pilot_edge`, `pilot_cloud_broker`, `pilot_cloud_processing`). The
//! framework then handles everything in between: packaging functions into
//! tasks on each pilot's cluster, creating the broker topic (one partition
//! per edge device), moving data over the (simulated) network, sharing
//! model state through the parameter server, and recording linked metrics
//! in every component.
//!
//! The crate mirrors that design:
//!
//! * [`faas`] — the function traits, the [`Context`] object ("information on
//!   the resource topology and shared state are via a context object"), and
//!   hot-swappable function slots (Section II-D: "the processing functions
//!   can be programmatically replaced at runtime").
//! * [`pipeline`] — [`EdgeToCloudPipeline`], the Listing-2 builder, plus
//!   validation of pilot capacities against the paper's resource envelopes.
//! * [`runtime`] — the running pipeline: every task (a device on the edge
//!   pilot's reactor, a consumer member on the cloud pilot's,
//!   partition:consumer ratio 1:1 by default) is a polled state machine
//!   following one lifecycle — spawn → step → drain — with sentinel-based
//!   termination and dynamic processor scaling via consumer-group
//!   rebalancing. See DESIGN.md §10 for the module map.
//! * [`deployment`] — the paper's deployment modalities (cloud-centric /
//!   hybrid / edge-centric) deciding where `process_edge` runs and what
//!   crosses the WAN.
//! * [`processors`] — ready-made `process_cloud` implementations wrapping
//!   the `pilot-ml` models (baseline, k-means, isolation forest,
//!   auto-encoder) with parameter-server weight publication, used by the
//!   experiments.
//! * [`control`] — the feedback controller closing the telemetry→knob loop
//!   (DESIGN.md §15): a control thread maps lag + bottleneck attribution
//!   onto typed actions over the live knob table — consumer pool, compute
//!   width, batching, prefetch, fetch budget, model placement — with
//!   hysteresis, per-knob cooldowns, and an append-only action journal
//!   (Section V's "dynamically scale resources across the continuum at
//!   runtime based on the application's objectives").
//! * [`planner`] — analytic capacity planning: predict throughput,
//!   bottleneck, and the latency floor of a deployment before running it
//!   (the conclusion's "optimal resource layout").
//! * [`placement`] — placement advice: given a model's per-byte compute
//!   cost and a link, should processing sit at the edge or in the cloud?
//!   (the trade-off Fig. 3's geographic experiment probes).
//! * [`summary`] — [`RunSummary`], the per-run digest (throughput, latency
//!   quantiles, bottleneck) the experiment harness prints.

pub mod control;
pub mod deployment;
pub mod faas;
pub mod federation;
mod observe;
pub mod pipeline;
pub mod placement;
pub mod planner;
pub mod processors;
pub mod runtime;
pub mod summary;
pub mod windows;

pub use control::{
    Action, BottleneckStage, ControlBounds, ControlEvent, ControllerConfig, MigrationPolicy,
};
pub use deployment::DeploymentMode;
pub use faas::{CloudFactory, Context, EdgeFactory, ProcessOutcome, ProduceFactory};
pub use federation::{FederationConfig, FederationSummary, RunningFederation};
pub use pilot_dataflow::ComputePool;
pub use pipeline::{EdgeToCloudPipeline, PipelineConfig, PipelineError};
pub use runtime::RunningPipeline;
pub use summary::RunSummary;
