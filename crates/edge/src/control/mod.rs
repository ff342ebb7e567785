//! The feedback controller: closes the loop from the telemetry plane back
//! into the live knob table (DESIGN.md §15).
//!
//! ```text
//!   spans  ──▶ MetricsRegistry ──▶ observe::bottleneck() ─▶ dominant
//!   broker ──▶ total_lag ─────────────────────────────┐        │
//!                                                     ▼        ▼
//!                 ControllerCore (hysteresis, cooldowns, bounds)
//!                                                     │ Action
//!                     ┌───────────────┬───────────────┼──────────────┐
//!                     ▼               ▼               ▼              ▼
//!              scale_processors  ComputePool      TuneTable     cloud_slot
//!              (consumer pool)   set_width      (batch/prefetch  .replace
//!                                               /fetch cells)   (migration)
//! ```
//!
//! A controller thread ticks at `tick`, samples total consumer-group lag,
//! reads the run's bottleneck verdict — the one `GET /top` and the SSE
//! stream serve: the dominant component of the newest attribution window
//! over the recent spans — and feeds the [`ControllerCore`] decision
//! machine. Released actions are applied to the live pipeline and appended
//! to the pipeline's one journal of [`ControlEvent`]s — the same journal,
//! on the same clock, that operator tunes through the gateway append to.
//! Every knob is declared once, in the [`Knob`] table. Two gauges export
//! the loop's own
//! activity to the same telemetry plane it consumes:
//! [`GAUGE_CONTROL_ACTIONS`] (actions applied so far) and
//! [`GAUGE_CONTROL_LAST_CAUSE`] (coded cause of the most recent action).
//!
//! With `PipelineConfig::controller` unset (the default) none of this
//! exists: no thread, no gauges, a fixed-width compute pool, and stage
//! behaviour bit-identical to the frozen-config seed
//! (`tests/control.rs::defaults_leave_zero_footprint`).

mod action;
mod core;
mod knob;

pub use action::{Action, Cause, ControlEvent, Verdict};
pub use core::{BottleneckStage, ControlBounds, ControllerCore, Observation};
pub use knob::Knob;

use crate::faas::CloudFactory;
use crate::observe;
use crate::runtime::PipelineCtl;
use pilot_metrics::Component;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Gauge counting actions the controller has applied (monotonic).
pub const GAUGE_CONTROL_ACTIONS: &str = "control.actions";

/// Gauge holding the coded cause of the most recent action: 0 = none yet,
/// 1 = lag-over (unattributed), 2 = lag-under, 3–8 = lag-over attributed
/// to producers / edge link / broker / cloud link / processors / other,
/// 9 = externally requested (the gateway's `POST /control/tune`).
pub const GAUGE_CONTROL_LAST_CAUSE: &str = "control.last_cause";

/// Model-migration lever: the pair of processing factories the controller
/// may swap between when a WAN link becomes the bottleneck (paper Section
/// II-D adaptation). `to_edge` should be the cheaper/lossier edge-side
/// variant, `to_cloud` the full-fidelity one restored after recovery.
#[derive(Clone)]
pub struct MigrationPolicy {
    /// Factory swapped in by [`Action::MigrateToEdge`].
    pub to_edge: CloudFactory,
    /// Factory restored by [`Action::MigrateToCloud`].
    pub to_cloud: CloudFactory,
}

impl std::fmt::Debug for MigrationPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MigrationPolicy").finish_non_exhaustive()
    }
}

/// Controller tuning. Attach via
/// [`PipelineConfig::controller`](crate::pipeline::PipelineConfig): the
/// runtime spawns the controller with the pipeline.
#[derive(Debug, Clone)]
pub struct ControllerConfig {
    /// Sampling interval of the control loop.
    pub tick: Duration,
    /// Consecutive same-direction observations required before acting.
    pub hysteresis: usize,
    /// Minimum spacing between two actions on the *same* knob. Distinct
    /// knobs may fire on consecutive ticks (escalation).
    pub cooldown: Duration,
    /// Act (scale up) when total lag exceeds this many records.
    pub lag_bound: u64,
    /// Walk knobs back down when total lag falls to or below this.
    pub lag_low: u64,
    /// Per-knob bounds: no action ever leaves them.
    pub bounds: ControlBounds,
    /// Optional model-migration lever.
    pub migration: Option<MigrationPolicy>,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            tick: Duration::from_millis(50),
            hysteresis: 2,
            cooldown: Duration::from_millis(200),
            lag_bound: 16,
            lag_low: 2,
            bounds: ControlBounds::default(),
            migration: None,
        }
    }
}

impl ControllerConfig {
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.tick.is_zero() {
            return Err("controller tick must be > 0".into());
        }
        if self.hysteresis == 0 {
            return Err("controller hysteresis must be >= 1".into());
        }
        if self.lag_low > self.lag_bound {
            return Err(format!(
                "controller lag_low {} exceeds lag_bound {}",
                self.lag_low, self.lag_bound
            ));
        }
        self.bounds.validate()
    }
}

/// Handle to a running controller thread; dropping it stops and joins the
/// thread. The journal lives on the pipeline, not here.
pub(crate) struct ControllerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for ControllerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The controller loop, spawned by the runtime when
/// `PipelineConfig::controller` is set.
pub(crate) struct Controller;

impl Controller {
    pub(crate) fn spawn(ctl: Arc<PipelineCtl>, config: ControllerConfig) -> ControllerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("pilot-edge-controller".into())
            .spawn(move || Self::run(&ctl, &config, &stop2))
            .expect("spawn controller thread");
        ControllerHandle {
            stop,
            thread: Some(thread),
        }
    }

    fn run(ctl: &PipelineCtl, config: &ControllerConfig, stop: &AtomicBool) {
        let metrics = ctl.shared.metrics();
        let actions_gauge = metrics.gauge(GAUGE_CONTROL_ACTIONS);
        let cause_gauge = metrics.gauge(GAUGE_CONTROL_LAST_CAUSE);
        let tune = &ctl.shared.tune;
        let job = Some(ctl.shared.ctx.job_id);
        let mut core = ControllerCore::from_config(config);
        while !stop.load(Ordering::Relaxed) && !ctl.is_stopped() && !ctl.all_done() {
            std::thread::sleep(config.tick);
            // Attribution runs exactly when the telemetry plane is on;
            // without it the controller decides on lag alone.
            let dominant = ctl
                .telemetry_sampler()
                .and_then(|sampler| observe::bottleneck(metrics, sampler, job));
            let obs = Observation {
                now: ctl.elapsed(),
                lag: ctl.total_lag(),
                bottleneck: dominant.as_ref().map(|c| map_component(ctl, c)),
                bottleneck_label: dominant.map(|c| c.label()),
                processors: ctl.processor_count(),
                compute_width: ctl.shared.ctx.compute.threads(),
                batch_max_bytes: tune.batch_max_bytes(),
                prefetch_depth: tune.prefetch_depth(),
                fetch_max: tune.fetch_max(),
            };
            let Some((cause, action)) = core.observe(&obs) else {
                continue;
            };
            if Self::apply(ctl, config, &action) {
                actions_gauge.incr();
                cause_gauge.set(cause_code(cause.verdict, obs.bottleneck));
                ctl.journal(cause, &[action]);
            }
        }
    }

    /// Apply a released action to the live pipeline; `false` when it
    /// changed nothing (a migration without a policy, a pool already at
    /// the requested width).
    fn apply(ctl: &PipelineCtl, config: &ControllerConfig, action: &Action) -> bool {
        let migrate = |to: fn(&MigrationPolicy) -> &CloudFactory| match &config.migration {
            Some(policy) => {
                ctl.shared.cloud_slot.replace(Arc::clone(to(policy)));
                true
            }
            None => false,
        };
        match *action {
            Action::Set {
                knob: Knob::Processors,
                to,
                ..
            } => ctl.scale_processors(to).is_ok(),
            Action::Set {
                knob: Knob::Compute,
                from,
                to,
            } => ctl.shared.ctx.compute.set_width(to) != from,
            Action::Set { knob, to, .. } => ctl.shared.tune.set(knob, to),
            Action::MigrateToEdge => migrate(|p| &p.to_edge),
            Action::MigrateToCloud => migrate(|p| &p.to_cloud),
        }
    }
}

/// Map an attributed component onto the planner's stage model using this
/// pipeline's link names (the spans carry the names verbatim).
fn map_component(ctl: &PipelineCtl, c: &Component) -> BottleneckStage {
    let shared = &ctl.shared;
    match c {
        Component::EdgeProducer | Component::EdgeProcessor => BottleneckStage::Producers,
        Component::Broker => BottleneckStage::Broker,
        Component::CloudProcessor => BottleneckStage::Processors,
        Component::Network(name) if name == shared.link_edge_broker.name() => {
            BottleneckStage::EdgeLink
        }
        Component::Network(name) if name == shared.link_broker_cloud.name() => {
            BottleneckStage::CloudLink
        }
        _ => BottleneckStage::Other,
    }
}

/// The [`GAUGE_CONTROL_LAST_CAUSE`] encoding.
fn cause_code(verdict: Verdict, stage: Option<BottleneckStage>) -> i64 {
    match verdict {
        Verdict::External => 9,
        Verdict::LagUnder => 2,
        Verdict::LagOver => match stage {
            None => 1,
            Some(BottleneckStage::Producers) => 3,
            Some(BottleneckStage::EdgeLink) => 4,
            Some(BottleneckStage::Broker) => 5,
            Some(BottleneckStage::CloudLink) => 6,
            Some(BottleneckStage::Processors) => 7,
            Some(BottleneckStage::Other) => 8,
        },
    }
}
