//! The pure decision core: hysteresis, per-knob cooldowns, and bounds.
//!
//! [`ControllerCore`] is deterministic and clock-injected — every input
//! arrives inside an [`Observation`] (including `now`), so the decision
//! logic is property-testable without threads, pipelines, or sleeps
//! (`tests/control.rs` drives it with adversarial gauge sequences).
//!
//! The bottleneck→action mapping (DESIGN.md §15): scale-up candidates are
//! tried in order, skipping knobs at their bound or still cooling down, so
//! the controller escalates to the next lever when the preferred one is
//! exhausted. Every list ends in the processor/compute levers — the only
//! ones that help regardless of attribution — which also makes the
//! lag-only legacy autoscaler a special case (no attribution, every other
//! knob pinned).
//!
//! | dominant bottleneck   | candidates (in order)                               |
//! |-----------------------|-----------------------------------------------------|
//! | edge→broker link      | widen batching, migrate to edge, +processor, +compute |
//! | broker→cloud link     | deepen prefetch, double fetch, +processor, +compute  |
//! | broker                | double fetch, +processor, +compute                   |
//! | processors / unknown  | +processor, +compute                                 |
//!
//! Scale-down (sustained lag ≤ `lag_low`) walks the knobs back toward
//! their minimum bounds in reverse-cost order: restore cloud placement,
//! −processor, −compute, shallower prefetch, halve fetch, halve batch.

use super::action::{Action, Cause, Knob, Verdict};
use crate::planner::{size_processors, Calibration, PlannerInput};
use std::time::Duration;

/// The pipeline stage a bottleneck attribution maps to (the planner's
/// five-stage tandem queue, plus `Other` for components outside it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BottleneckStage {
    /// `produce_edge` / `process_edge` dominate — the source is the limit.
    Producers,
    /// The edge→broker link dominates.
    EdgeLink,
    /// Broker append/fetch service time dominates.
    Broker,
    /// The broker→cloud link dominates.
    CloudLink,
    /// `process_cloud` dominates.
    Processors,
    /// Parameter server or application-defined components.
    Other,
}

/// Per-knob bounds the controller must stay within. An action whose target
/// would leave `[min, max]` is never emitted; when *every* candidate is at
/// its bound the controller is a guaranteed no-op (`tests/control.rs` pins
/// this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlBounds {
    /// Never shrink the consumer pool below this.
    pub min_processors: usize,
    /// Never grow the consumer pool beyond this.
    pub max_processors: usize,
    /// Never narrow the compute pool below this width.
    pub min_compute: usize,
    /// Never widen the compute pool beyond this width (also the resizable
    /// pool's spawn capacity — see `ComputePool::resizable`).
    pub max_compute: usize,
    /// Batch-threshold floor (0 = batching may be turned off).
    pub min_batch_bytes: usize,
    /// Batch-threshold ceiling.
    pub max_batch_bytes: usize,
    /// Prefetch-depth floor.
    pub min_prefetch: usize,
    /// Prefetch-depth ceiling.
    pub max_prefetch: usize,
    /// Fetch-budget floor (clamped to ≥ 1).
    pub min_fetch_max: usize,
    /// Fetch-budget ceiling.
    pub max_fetch_max: usize,
}

impl Default for ControlBounds {
    fn default() -> Self {
        Self {
            min_processors: 1,
            max_processors: 8,
            min_compute: 1,
            max_compute: 8,
            min_batch_bytes: 0,
            max_batch_bytes: 1 << 20,
            min_prefetch: 0,
            max_prefetch: 16,
            min_fetch_max: 1,
            max_fetch_max: 64,
        }
    }
}

impl ControlBounds {
    /// Derive bounds from an analytic plan: the processor ceiling comes
    /// from [`size_processors`] with 50% headroom (the controller may need
    /// more than the steady-state plan during a burst), everything else
    /// from the defaults.
    pub fn from_planner(input: &PlannerInput) -> Self {
        let max_processors = size_processors(input, 1.5)
            .unwrap_or_else(|| input.processors.max(Self::default().max_processors))
            .clamp(1, 64);
        Self {
            min_processors: 1,
            max_processors: max_processors.max(input.processors),
            ..Self::default()
        }
    }

    /// [`ControlBounds::from_planner`] with the plan corrected by measured
    /// telemetry: the processors-stage correction factor from
    /// [`crate::planner::Prediction::calibrate`] scales the per-message
    /// cost before sizing (a model measured 2× slower than planned doubles
    /// the ceiling).
    pub fn from_calibrated(input: &PlannerInput, calibration: &Calibration) -> Self {
        let mut corrected = input.clone();
        corrected.process_secs *= calibration.factor("processors").max(0.1);
        Self::from_planner(&corrected)
    }

    pub(crate) fn validate(&self) -> Result<(), String> {
        let pairs = [
            ("processors", self.min_processors, self.max_processors),
            ("compute", self.min_compute, self.max_compute),
            ("batch_bytes", self.min_batch_bytes, self.max_batch_bytes),
            ("prefetch", self.min_prefetch, self.max_prefetch),
            ("fetch_max", self.min_fetch_max, self.max_fetch_max),
        ];
        for (name, min, max) in pairs {
            if min > max {
                return Err(format!(
                    "controller bounds: min_{name} {min} > max_{name} {max}"
                ));
            }
        }
        if self.min_processors == 0 {
            return Err("controller bounds: min_processors must be >= 1".into());
        }
        Ok(())
    }
}

/// Everything the decision core sees on one tick. The caller (the
/// controller thread, or a test) samples the live pipeline and injects the
/// clock — the core itself never reads wall time.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Time since the controller started (the cooldown clock).
    pub now: Duration,
    /// Total consumer-group lag (records).
    pub lag: u64,
    /// Dominant stage from bottleneck attribution, when available.
    pub bottleneck: Option<BottleneckStage>,
    /// The dominant component's label, journalled verbatim.
    pub bottleneck_label: Option<String>,
    /// Current consumer-pool size.
    pub processors: usize,
    /// Current compute-pool width.
    pub compute_width: usize,
    /// Current batch threshold (0 = serial).
    pub batch_max_bytes: usize,
    /// Current prefetch admission depth.
    pub prefetch_depth: usize,
    /// Current per-partition fetch budget.
    pub fetch_max: usize,
}

/// Static configuration of the decision core (a subset of
/// [`super::ControllerConfig`], without the thread/plumbing fields).
#[derive(Debug, Clone)]
pub(crate) struct CoreConfig {
    pub(crate) lag_bound: u64,
    pub(crate) lag_low: u64,
    pub(crate) hysteresis: usize,
    pub(crate) cooldown: Duration,
    pub(crate) bounds: ControlBounds,
    pub(crate) migration_available: bool,
}

/// The deterministic decision state machine: hysteresis counters, per-knob
/// last-fired times, and the tracked placement.
pub struct ControllerCore {
    cfg: CoreConfig,
    over: usize,
    under: usize,
    placement_edge: bool,
    last_fired: [Option<Duration>; Knob::COUNT],
}

impl ControllerCore {
    pub(crate) fn new(cfg: CoreConfig) -> Self {
        Self {
            cfg,
            over: 0,
            under: 0,
            placement_edge: false,
            last_fired: [None; Knob::COUNT],
        }
    }

    /// Build a core directly from a controller config — the entry point
    /// for property tests driving the pure logic without a pipeline.
    pub fn from_config(config: &super::ControllerConfig) -> Self {
        Self::new(CoreConfig {
            lag_bound: config.lag_bound,
            lag_low: config.lag_low,
            hysteresis: config.hysteresis.max(1),
            cooldown: config.cooldown,
            bounds: config.bounds.clone(),
            migration_available: config.migration.is_some(),
        })
    }

    /// Whether the core currently believes processing runs at the edge.
    pub fn placement_edge(&self) -> bool {
        self.placement_edge
    }

    /// Feed one observation; returns the released decision, if any.
    ///
    /// Hysteresis mirrors the legacy autoscaler exactly: `lag > lag_bound`
    /// bumps the over-counter and clears the under-counter (and vice versa
    /// at `lag <= lag_low`; the mid-band clears both); a counter reaching
    /// `hysteresis` releases at most one action and is then reset. A knob
    /// that fired stays untouchable for `cooldown`; candidates at their
    /// bound are skipped; if every candidate is blocked nothing fires and
    /// the counter saturates (the next viable tick acts immediately,
    /// as the legacy scaler did at `max_processors`).
    pub fn observe(&mut self, obs: &Observation) -> Option<(Cause, Action)> {
        if obs.lag > self.cfg.lag_bound {
            self.over += 1;
            self.under = 0;
        } else if obs.lag <= self.cfg.lag_low {
            self.under += 1;
            self.over = 0;
        } else {
            self.over = 0;
            self.under = 0;
        }
        if self.over >= self.cfg.hysteresis {
            if let Some(action) = self.first_viable(obs, &self.up_candidates(obs)) {
                self.over = 0;
                return Some((self.release(obs, Verdict::LagOver, action.clone()), action));
            }
            self.over = self.cfg.hysteresis;
        } else if self.under >= self.cfg.hysteresis {
            if let Some(action) = self.first_viable(obs, &self.down_candidates(obs)) {
                self.under = 0;
                return Some((self.release(obs, Verdict::LagUnder, action.clone()), action));
            }
            self.under = self.cfg.hysteresis;
        }
        None
    }

    fn release(&mut self, obs: &Observation, verdict: Verdict, action: Action) -> Cause {
        self.last_fired[action.knob().index()] = Some(obs.now);
        match action {
            Action::MigrateToEdge => self.placement_edge = true,
            Action::MigrateToCloud => self.placement_edge = false,
            _ => {}
        }
        Cause {
            lag: obs.lag,
            verdict,
            bottleneck: obs.bottleneck_label.clone(),
        }
    }

    fn cooling(&self, knob: Knob, now: Duration) -> bool {
        self.last_fired[knob.index()]
            .map(|t| now < t + self.cfg.cooldown)
            .unwrap_or(false)
    }

    fn first_viable(&self, obs: &Observation, candidates: &[Option<Action>]) -> Option<Action> {
        candidates
            .iter()
            .flatten()
            .find(|a| !self.cooling(a.knob(), obs.now))
            .cloned()
    }

    fn up_candidates(&self, obs: &Observation) -> Vec<Option<Action>> {
        let tail = [self.grow_processors(obs), self.grow_compute(obs)];
        let mut list: Vec<Option<Action>> = match obs.bottleneck {
            Some(BottleneckStage::EdgeLink) => {
                vec![self.widen_batch(obs), self.migrate_to_edge()]
            }
            Some(BottleneckStage::CloudLink) => {
                vec![self.deepen_prefetch(obs), self.grow_fetch(obs)]
            }
            Some(BottleneckStage::Broker) => vec![self.grow_fetch(obs)],
            _ => Vec::new(),
        };
        list.extend(tail);
        list
    }

    fn down_candidates(&self, obs: &Observation) -> Vec<Option<Action>> {
        vec![
            self.migrate_to_cloud(),
            self.shrink_processors(obs),
            self.shrink_compute(obs),
            self.shallow_prefetch(obs),
            self.shrink_fetch(obs),
            self.narrow_batch(obs),
        ]
    }

    fn grow_processors(&self, obs: &Observation) -> Option<Action> {
        let to = (obs.processors + 1).min(self.cfg.bounds.max_processors);
        (to > obs.processors).then_some(Action::ScaleProcessors {
            from: obs.processors,
            to,
        })
    }

    fn shrink_processors(&self, obs: &Observation) -> Option<Action> {
        (obs.processors > self.cfg.bounds.min_processors).then_some(Action::ScaleProcessors {
            from: obs.processors,
            to: obs.processors - 1,
        })
    }

    fn grow_compute(&self, obs: &Observation) -> Option<Action> {
        let to = (obs.compute_width + 1).min(self.cfg.bounds.max_compute);
        (to > obs.compute_width).then_some(Action::ResizeComputePool {
            from: obs.compute_width,
            to,
        })
    }

    fn shrink_compute(&self, obs: &Observation) -> Option<Action> {
        (obs.compute_width > self.cfg.bounds.min_compute).then_some(Action::ResizeComputePool {
            from: obs.compute_width,
            to: obs.compute_width - 1,
        })
    }

    /// First widen turns batching on at 64 KiB; after that the threshold
    /// doubles up to the bound.
    fn widen_batch(&self, obs: &Observation) -> Option<Action> {
        let cur = obs.batch_max_bytes;
        let target = if cur == 0 {
            64 * 1024
        } else {
            cur.saturating_mul(2)
        };
        let to = target.clamp(
            self.cfg.bounds.min_batch_bytes.max(1),
            self.cfg.bounds.max_batch_bytes.max(1),
        );
        (self.cfg.bounds.max_batch_bytes > 0 && to > cur)
            .then_some(Action::SetBatchMaxBytes { from: cur, to })
    }

    fn narrow_batch(&self, obs: &Observation) -> Option<Action> {
        let cur = obs.batch_max_bytes;
        if cur <= self.cfg.bounds.min_batch_bytes {
            return None;
        }
        let to = (cur / 2).max(self.cfg.bounds.min_batch_bytes);
        (to < cur).then_some(Action::SetBatchMaxBytes { from: cur, to })
    }

    /// Policy: a pipeline configured without look-ahead keeps depth 0 —
    /// the controller deepens a window the operator opened, it does not
    /// open one (any member would honour a live depth at its next poll).
    fn deepen_prefetch(&self, obs: &Observation) -> Option<Action> {
        let cur = obs.prefetch_depth;
        let to = (cur + 1).min(self.cfg.bounds.max_prefetch);
        (cur > 0 && to > cur).then_some(Action::SetPrefetchDepth { from: cur, to })
    }

    fn shallow_prefetch(&self, obs: &Observation) -> Option<Action> {
        let cur = obs.prefetch_depth;
        let floor = self.cfg.bounds.min_prefetch.max(1);
        (cur > floor).then_some(Action::SetPrefetchDepth {
            from: cur,
            to: cur - 1,
        })
    }

    fn grow_fetch(&self, obs: &Observation) -> Option<Action> {
        let cur = obs.fetch_max.max(1);
        let to = cur.saturating_mul(2).min(self.cfg.bounds.max_fetch_max);
        (to > cur).then_some(Action::SetFetchMax { from: cur, to })
    }

    fn shrink_fetch(&self, obs: &Observation) -> Option<Action> {
        let cur = obs.fetch_max.max(1);
        let to = (cur / 2).max(self.cfg.bounds.min_fetch_max).max(1);
        (to < cur).then_some(Action::SetFetchMax { from: cur, to })
    }

    fn migrate_to_edge(&self) -> Option<Action> {
        (self.cfg.migration_available && !self.placement_edge).then_some(Action::MigrateToEdge)
    }

    fn migrate_to_cloud(&self) -> Option<Action> {
        self.placement_edge.then_some(Action::MigrateToCloud)
    }
}
