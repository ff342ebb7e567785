//! Typed control actions and the append-only action journal.
//!
//! Every decision the controller makes — and every operator tune from the
//! gateway — is a value of [`Action`]; every applied one is journalled, in
//! the pipeline's one journal, as a [`ControlEvent`] carrying the
//! [`Cause`] (observed lag, hysteresis verdict, attributed bottleneck) and
//! the gauge snapshot that triggered it — so a run's adaptation history is
//! fully replayable from the journal alone.

use super::Knob;
use std::time::Duration;

/// One typed control decision. `from`/`to` carry the knob level before and
/// after, so the journal needs no out-of-band state to interpret.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Move `knob` from level `from` to level `to` (linger in µs).
    Set { knob: Knob, from: usize, to: usize },
    /// Hot-swap processing to the migration policy's edge-side factory
    /// (shed WAN bytes when the edge→broker link is the bottleneck).
    MigrateToEdge,
    /// Restore the cloud-side factory once the pressure passed.
    MigrateToCloud,
}

impl Action {
    /// The knob this action turns (for cooldown bookkeeping).
    pub fn knob(&self) -> Knob {
        match self {
            Action::Set { knob, .. } => *knob,
            Action::MigrateToEdge | Action::MigrateToCloud => Knob::Placement,
        }
    }

    /// Knob level before the action (placement encoded 0 = cloud, 1 = edge).
    pub fn before(&self) -> i64 {
        match self {
            Action::Set { from, .. } => *from as i64,
            Action::MigrateToEdge => 0,
            Action::MigrateToCloud => 1,
        }
    }

    /// Knob level after the action (placement encoded 0 = cloud, 1 = edge).
    pub fn after(&self) -> i64 {
        match self {
            Action::Set { to, .. } => *to as i64,
            Action::MigrateToEdge => 1,
            Action::MigrateToCloud => 0,
        }
    }

    /// Short stable label for CSV output and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Action::Set { knob, .. } => knob.label(),
            Action::MigrateToEdge => "migrate_to_edge",
            Action::MigrateToCloud => "migrate_to_cloud",
        }
    }
}

/// The hysteresis verdict that released an action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Lag stayed above the bound for `hysteresis` consecutive ticks.
    LagOver,
    /// Lag stayed at or below the low-water mark for `hysteresis` ticks.
    LagUnder,
    /// An external operator requested the action (the gateway's
    /// `POST /control/tune`), bypassing the hysteresis machine entirely —
    /// but never the bounds check.
    External,
}

impl Verdict {
    /// Short stable label for CSV/JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::LagOver => "lag_over",
            Verdict::LagUnder => "lag_under",
            Verdict::External => "external",
        }
    }
}

/// Why the controller acted: the lag sample, the verdict, and — when the
/// telemetry plane is on — the dominant component of the bottleneck
/// attribution at decision time.
#[derive(Debug, Clone, PartialEq)]
pub struct Cause {
    /// Observed total consumer-group lag (records).
    pub lag: u64,
    /// Which hysteresis threshold tripped.
    pub verdict: Verdict,
    /// Dominant component label from [`pilot_metrics::attribute`], when
    /// telemetry was on and recent spans existed (e.g. `"net:b->c"`).
    pub bottleneck: Option<String>,
}

/// One entry of a pipeline's append-only action journal.
#[derive(Debug, Clone)]
pub struct ControlEvent {
    /// Time since the pipeline started (one clock for the controller and
    /// operator tunes alike).
    pub at: Duration,
    /// What triggered the decision.
    pub cause: Cause,
    /// The typed decision.
    pub action: Action,
    /// The latest telemetry frame's gauge levels at decision time (empty
    /// when the telemetry plane is off).
    pub gauges: Vec<(String, i64)>,
}
