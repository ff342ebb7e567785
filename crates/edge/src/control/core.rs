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

use super::action::{Action, Cause, Verdict};
use super::{ControllerConfig, Knob};
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

/// Per-knob bounds the controller must stay within, read per knob through
/// [`ControlBounds::range`]. An action whose target would leave
/// `[min, max]` is never emitted; when *every* candidate is at its bound
/// the controller is a guaranteed no-op (`tests/control.rs` pins this).
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
    pub(crate) fn validate(&self) -> Result<(), String> {
        for knob in Knob::ALL {
            let (min, max) = self.range(knob);
            if min > max {
                return Err(format!("controller bounds: {knob:?} min {min} > max {max}"));
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
    /// The cooldown clock: time since the pipeline started, the journal's
    /// clock (any monotonic origin works for the core).
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

/// The deterministic decision state machine: hysteresis counters, per-knob
/// last-fired times, and the tracked placement.
pub struct ControllerCore {
    cfg: ControllerConfig,
    over: usize,
    under: usize,
    placement_edge: bool,
    last_fired: [Option<Duration>; Knob::COUNT],
}

impl ControllerCore {
    /// Build a core from a controller config — what the controller thread
    /// runs, and the entry point for property tests driving the pure logic
    /// without a pipeline.
    pub fn from_config(config: &ControllerConfig) -> Self {
        let mut cfg = config.clone();
        cfg.hysteresis = cfg.hysteresis.max(1);
        Self {
            cfg,
            over: 0,
            under: 0,
            placement_edge: false,
            last_fired: [None; Knob::COUNT],
        }
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
        let (_, max) = self.cfg.bounds.range(Knob::Processors);
        raise(
            Knob::Processors,
            obs.processors,
            (obs.processors + 1).min(max),
        )
    }

    fn shrink_processors(&self, obs: &Observation) -> Option<Action> {
        let (min, _) = self.cfg.bounds.range(Knob::Processors);
        (obs.processors > min).then(|| set(Knob::Processors, obs.processors, obs.processors - 1))
    }

    fn grow_compute(&self, obs: &Observation) -> Option<Action> {
        let (_, max) = self.cfg.bounds.range(Knob::Compute);
        raise(
            Knob::Compute,
            obs.compute_width,
            (obs.compute_width + 1).min(max),
        )
    }

    fn shrink_compute(&self, obs: &Observation) -> Option<Action> {
        let (min, _) = self.cfg.bounds.range(Knob::Compute);
        (obs.compute_width > min)
            .then(|| set(Knob::Compute, obs.compute_width, obs.compute_width - 1))
    }

    /// First widen turns batching on at 64 KiB; after that the threshold
    /// doubles up to the bound.
    fn widen_batch(&self, obs: &Observation) -> Option<Action> {
        let (min, max) = self.cfg.bounds.range(Knob::Batch);
        if max == 0 {
            return None;
        }
        let cur = obs.batch_max_bytes;
        let target = if cur == 0 {
            64 * 1024
        } else {
            cur.saturating_mul(2)
        };
        raise(Knob::Batch, cur, target.clamp(min.max(1), max))
    }

    fn narrow_batch(&self, obs: &Observation) -> Option<Action> {
        let (min, _) = self.cfg.bounds.range(Knob::Batch);
        let cur = obs.batch_max_bytes;
        if cur <= min {
            return None;
        }
        lower(Knob::Batch, cur, (cur / 2).max(min))
    }

    /// Policy: a pipeline configured without look-ahead keeps depth 0 —
    /// the controller deepens a window the operator opened, it does not
    /// open one (any member would honour a live depth at its next poll).
    fn deepen_prefetch(&self, obs: &Observation) -> Option<Action> {
        let (_, max) = self.cfg.bounds.range(Knob::Prefetch);
        let cur = obs.prefetch_depth;
        if cur == 0 {
            return None;
        }
        raise(Knob::Prefetch, cur, (cur + 1).min(max))
    }

    fn shallow_prefetch(&self, obs: &Observation) -> Option<Action> {
        let (min, _) = self.cfg.bounds.range(Knob::Prefetch);
        let cur = obs.prefetch_depth;
        (cur > min.max(1)).then(|| set(Knob::Prefetch, cur, cur - 1))
    }

    fn grow_fetch(&self, obs: &Observation) -> Option<Action> {
        let (_, max) = self.cfg.bounds.range(Knob::Fetch);
        let cur = obs.fetch_max.max(1);
        raise(Knob::Fetch, cur, cur.saturating_mul(2).min(max))
    }

    fn shrink_fetch(&self, obs: &Observation) -> Option<Action> {
        let (min, _) = self.cfg.bounds.range(Knob::Fetch);
        let cur = obs.fetch_max.max(1);
        lower(Knob::Fetch, cur, (cur / 2).max(min).max(1))
    }

    fn migrate_to_edge(&self) -> Option<Action> {
        (self.cfg.migration.is_some() && !self.placement_edge).then_some(Action::MigrateToEdge)
    }

    fn migrate_to_cloud(&self) -> Option<Action> {
        self.placement_edge.then_some(Action::MigrateToCloud)
    }
}

fn set(knob: Knob, from: usize, to: usize) -> Action {
    Action::Set { knob, from, to }
}

/// A `Set` when it raises the knob.
fn raise(knob: Knob, from: usize, to: usize) -> Option<Action> {
    (to > from).then(|| set(knob, from, to))
}

/// A `Set` when it lowers the knob.
fn lower(knob: Knob, from: usize, to: usize) -> Option<Action> {
    (to < from).then(|| set(knob, from, to))
}
