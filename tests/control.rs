//! Feedback-controller tests (DESIGN.md §15): property tests over the pure
//! decision core ([`ControllerCore`]) — cooldown spacing under adversarial
//! lag sequences, guaranteed no-op at the bounds, hysteresis strictness,
//! scale-down walk order — plus integration tests pinning the two ends of
//! the `PipelineConfig::controller` knob: `None` is bit-identical to the
//! seed (empty journal, no `control.*` gauges), `Some` closes the loop
//! (non-empty journal with causes, `control.actions` gauge advancing).

use pilot_core::{PilotComputeService, PilotDescription};
use pilot_datagen::DataGenConfig;
use pilot_edge::control::{
    Action, BottleneckStage, ControllerCore, Knob, Observation, Verdict, GAUGE_CONTROL_ACTIONS,
};
use pilot_edge::processors::datagen_produce_factory;
use pilot_edge::{ControlBounds, ControllerConfig, EdgeToCloudPipeline, PipelineConfig};
use proptest::prelude::*;
use std::collections::HashMap;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(120);

/// Virtual knob state: the property tests feed released actions back into
/// the next observation, emulating a pipeline that applies every decision.
#[derive(Clone, Copy, Debug)]
struct KnobState {
    processors: usize,
    compute: usize,
    batch: usize,
    prefetch: usize,
    fetch: usize,
}

impl KnobState {
    fn observe(&self, now: Duration, lag: u64, stage: Option<BottleneckStage>) -> Observation {
        Observation {
            now,
            lag,
            bottleneck: stage,
            bottleneck_label: stage.map(|s| format!("{s:?}")),
            processors: self.processors,
            compute_width: self.compute,
            batch_max_bytes: self.batch,
            prefetch_depth: self.prefetch,
            fetch_max: self.fetch,
        }
    }

    fn apply(&mut self, action: &Action) {
        let Action::Set { knob, to, .. } = *action else {
            return;
        };
        match knob {
            Knob::Processors => self.processors = to,
            Knob::Compute => self.compute = to,
            Knob::Batch => self.batch = to,
            Knob::Prefetch => self.prefetch = to,
            Knob::Fetch => self.fetch = to,
            Knob::Linger | Knob::Placement => {}
        }
    }
}

fn set(knob: Knob, from: usize, to: usize) -> Action {
    Action::Set { knob, from, to }
}

const STAGES: [Option<BottleneckStage>; 6] = [
    None,
    Some(BottleneckStage::EdgeLink),
    Some(BottleneckStage::CloudLink),
    Some(BottleneckStage::Broker),
    Some(BottleneckStage::Processors),
    Some(BottleneckStage::Producers),
];

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// Under an adversarial gauge sequence — lag jumping arbitrarily and
    /// the attributed bottleneck rotating every tick — no knob ever fires
    /// twice within one cooldown window. Hysteresis 1 makes every tick
    /// eligible, so this is the worst case for oscillation.
    #[test]
    fn prop_cooldown_spaces_actions_per_knob(
        lags in proptest::collection::vec(0u64..200, 40..160),
        stage_offset in 0usize..6,
    ) {
        let cooldown = Duration::from_millis(70);
        let config = ControllerConfig {
            hysteresis: 1,
            cooldown,
            lag_bound: 50,
            lag_low: 5,
            ..ControllerConfig::default()
        };
        let mut core = ControllerCore::from_config(&config);
        let mut state = KnobState { processors: 2, compute: 2, batch: 0, prefetch: 2, fetch: 4 };
        let mut fired: HashMap<Knob, Vec<Duration>> = HashMap::new();
        for (i, lag) in lags.iter().enumerate() {
            let now = Duration::from_millis(10 * i as u64);
            let stage = STAGES[(i + stage_offset) % STAGES.len()];
            if let Some((_cause, action)) = core.observe(&state.observe(now, *lag, stage)) {
                fired.entry(action.knob()).or_default().push(now);
                state.apply(&action);
            }
        }
        for (knob, times) in &fired {
            for pair in times.windows(2) {
                prop_assert!(
                    pair[1].saturating_sub(pair[0]) >= cooldown,
                    "{knob:?} fired at {:?} then {:?}, inside the {cooldown:?} cooldown",
                    pair[0], pair[1]
                );
            }
        }
    }

    /// With every knob pinned (min = max = current) the controller is a
    /// guaranteed no-op: whatever the lag says and whatever bottleneck is
    /// attributed, no action is ever released.
    #[test]
    fn prop_no_action_released_at_the_bounds(
        lags in proptest::collection::vec(0u64..10_000, 30..100),
        stage_offset in 0usize..6,
    ) {
        let state = KnobState { processors: 3, compute: 2, batch: 4096, prefetch: 2, fetch: 8 };
        let config = ControllerConfig {
            hysteresis: 1,
            cooldown: Duration::ZERO,
            lag_bound: 10,
            lag_low: 9,
            bounds: ControlBounds {
                min_processors: 3,
                max_processors: 3,
                min_compute: 2,
                max_compute: 2,
                min_batch_bytes: 4096,
                max_batch_bytes: 4096,
                min_prefetch: 2,
                max_prefetch: 2,
                min_fetch_max: 8,
                max_fetch_max: 8,
            },
            ..ControllerConfig::default()
        };
        let mut core = ControllerCore::from_config(&config);
        for (i, lag) in lags.iter().enumerate() {
            let now = Duration::from_millis(10 * i as u64);
            let stage = STAGES[(i + stage_offset) % STAGES.len()];
            let decision = core.observe(&state.observe(now, *lag, stage));
            prop_assert!(decision.is_none(), "released {decision:?} at the bounds");
        }
    }
}

/// The hysteresis counter only advances on *consecutive* same-direction
/// observations: a mid-band sample resets it, so an over/over/mid pattern
/// never releases, while the Nth consecutive over does.
#[test]
fn hysteresis_counts_consecutive_observations_only() {
    let config = ControllerConfig {
        hysteresis: 3,
        cooldown: Duration::ZERO,
        lag_bound: 10,
        lag_low: 2,
        ..ControllerConfig::default()
    };
    let mut core = ControllerCore::from_config(&config);
    let state = KnobState {
        processors: 2,
        compute: 2,
        batch: 0,
        prefetch: 2,
        fetch: 4,
    };
    let mut tick = 0u64;
    let mut obs = |core: &mut ControllerCore, lag: u64| {
        tick += 1;
        core.observe(&state.observe(Duration::from_millis(10 * tick), lag, None))
    };
    // over, over, mid — the reset keeps this pattern silent forever.
    for round in 0..10 {
        assert!(obs(&mut core, 100).is_none(), "round {round}");
        assert!(obs(&mut core, 100).is_none(), "round {round}");
        assert!(obs(&mut core, 5).is_none(), "round {round} (mid-band)");
    }
    // Three consecutive overs release exactly one scale-up.
    assert!(obs(&mut core, 100).is_none());
    assert!(obs(&mut core, 100).is_none());
    let (cause, action) = obs(&mut core, 100).expect("third consecutive over must fire");
    assert_eq!(cause.verdict, Verdict::LagOver);
    assert_eq!(cause.lag, 100);
    assert_eq!(action, set(Knob::Processors, 2, 3));
}

/// The attributed bottleneck picks the lever: edge link → batching, cloud
/// link → prefetch (or fetch when prefetch is off), broker → fetch budget,
/// processors / unattributed → consumer pool.
#[test]
fn bottleneck_routes_to_the_matching_knob() {
    let config = ControllerConfig {
        hysteresis: 1,
        cooldown: Duration::ZERO,
        lag_bound: 10,
        lag_low: 1,
        ..ControllerConfig::default()
    };
    let decide = |state: KnobState, stage: Option<BottleneckStage>| {
        let mut core = ControllerCore::from_config(&config);
        core.observe(&state.observe(Duration::from_millis(10), 100, stage))
            .map(|(_, action)| action)
    };
    let state = KnobState {
        processors: 2,
        compute: 2,
        batch: 0,
        prefetch: 2,
        fetch: 4,
    };
    assert_eq!(
        decide(state, Some(BottleneckStage::EdgeLink)),
        Some(set(Knob::Batch, 0, 64 * 1024)),
        "edge link pressure turns batching on"
    );
    assert_eq!(
        decide(state, Some(BottleneckStage::CloudLink)),
        Some(set(Knob::Prefetch, 2, 3)),
        "cloud link pressure deepens prefetch"
    );
    let no_prefetch = KnobState {
        prefetch: 0,
        ..state
    };
    assert_eq!(
        decide(no_prefetch, Some(BottleneckStage::CloudLink)),
        Some(set(Knob::Fetch, 4, 8)),
        "with prefetch off, cloud link pressure grows the fetch budget"
    );
    assert_eq!(
        decide(state, Some(BottleneckStage::Broker)),
        Some(set(Knob::Fetch, 4, 8))
    );
    assert_eq!(
        decide(state, Some(BottleneckStage::Processors)),
        Some(set(Knob::Processors, 2, 3))
    );
    assert_eq!(
        decide(state, None),
        Some(set(Knob::Processors, 2, 3)),
        "unattributed lag falls back to the consumer pool"
    );
}

/// Sustained low lag walks every knob back to its floor in reverse-cost
/// order (processors, compute, prefetch, fetch, batch), never raises
/// anything, and goes permanently silent once everything is at its floor.
#[test]
fn sustained_low_lag_walks_every_knob_to_its_floor() {
    let config = ControllerConfig {
        hysteresis: 1,
        cooldown: Duration::ZERO,
        lag_bound: 100,
        lag_low: 1,
        ..ControllerConfig::default()
    };
    let mut core = ControllerCore::from_config(&config);
    let mut state = KnobState {
        processors: 4,
        compute: 3,
        batch: 256 * 1024,
        prefetch: 4,
        fetch: 16,
    };
    let mut actions = Vec::new();
    for tick in 0..200u64 {
        let now = Duration::from_millis(10 * tick);
        if let Some((cause, action)) = core.observe(&state.observe(now, 0, None)) {
            assert_eq!(cause.verdict, Verdict::LagUnder);
            assert!(
                action.after() <= action.before(),
                "scale-down raised a knob: {action:?}"
            );
            state.apply(&action);
            actions.push(action);
        }
    }
    assert_eq!(state.processors, 1, "consumer pool at its floor");
    assert_eq!(state.compute, 1, "compute width at its floor");
    assert_eq!(state.prefetch, 1, "prefetch at its floor");
    assert_eq!(state.fetch, 1, "fetch budget at its floor");
    assert_eq!(state.batch, 0, "batching walked back off");
    // Reverse-cost order: all pool shrinks precede all prefetch/fetch/batch
    // trims, per the down-candidate priority.
    let rank = |a: &Action| match a.knob() {
        Knob::Processors => 0,
        Knob::Compute => 1,
        Knob::Prefetch => 2,
        Knob::Fetch => 3,
        Knob::Batch => 4,
        Knob::Placement => 5,
        Knob::Linger => 6,
    };
    let ranks: Vec<_> = actions.iter().map(rank).collect();
    let mut sorted = ranks.clone();
    sorted.sort_unstable();
    assert_eq!(ranks, sorted, "walk order violated: {actions:?}");
    // And once at the floor, the controller stays silent.
    let decision = core.observe(&state.observe(Duration::from_secs(10), 0, None));
    assert!(decision.is_none(), "fired at the floor: {decision:?}");
}

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

fn slow_processor(ms: u64) -> pilot_edge::CloudFactory {
    std::sync::Arc::new(move |_ctx| {
        Box::new(move |_ctx: &pilot_edge::Context, _block| {
            std::thread::sleep(Duration::from_millis(ms));
            Ok(pilot_edge::ProcessOutcome::default())
        })
    })
}

/// `controller: None` (the default) must be bit-identical to the seed:
/// no control thread, an empty journal, and no `control.*` gauge anywhere
/// in the telemetry stream.
#[test]
fn controller_off_leaves_zero_footprint() {
    assert!(PipelineConfig::default().controller.is_none());
    let registry = pilot_metrics::MetricsRegistry::new();
    let (edge, cloud) = pilots(2, 2);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(100), 6))
        .process_cloud_function(slow_processor(1))
        .devices(2)
        .processors(2)
        .metrics(registry.clone())
        .telemetry_sample_ms(5)
        .start()
        .unwrap();
    assert!(running.control_events().is_empty(), "journal must be empty");
    std::thread::sleep(Duration::from_millis(60));
    let frames = running.telemetry();
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(
        registry.gauge_value(GAUGE_CONTROL_ACTIONS),
        None,
        "no control gauge may be registered without a controller"
    );
    assert_eq!(summary.messages, 12);
    assert_eq!(summary.errors, 0);
    assert!(!frames.is_empty(), "telemetry itself was on");
    for frame in &frames {
        assert!(
            frame.values.iter().all(|(n, _)| !n.starts_with("control.")),
            "control gauge leaked into a controller-off run: {frame:?}"
        );
    }
}

/// Controller on: a deliberately slow consumer builds lag, the controller
/// must journal at least one scale-up with its cause, and the
/// `control.actions` gauge must advance in the telemetry stream.
#[test]
fn controller_scales_up_under_lag_and_journals_the_cause() {
    let (edge, cloud) = pilots(4, 4);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(10), 60))
        .process_cloud_function(slow_processor(5))
        .devices(4)
        .processors(1)
        .rate_per_device(100.0)
        .telemetry_sample_ms(10)
        .controller(ControllerConfig {
            tick: Duration::from_millis(25),
            hysteresis: 2,
            cooldown: Duration::from_millis(50),
            lag_bound: 10,
            lag_low: 1,
            bounds: ControlBounds {
                max_processors: 4,
                ..ControlBounds::default()
            },
            ..ControllerConfig::default()
        })
        .start()
        .unwrap();
    std::thread::sleep(Duration::from_millis(500));
    let events = running.control_events();
    assert!(
        events.iter().any(
            |e| matches!(e.action, Action::Set { knob: Knob::Processors, from, to } if to > from)
        ),
        "expected at least one scale-up in the journal, got {events:?}"
    );
    for e in &events {
        match e.cause.verdict {
            Verdict::LagOver => assert!(e.cause.lag > 10, "over-verdict with lag {}", e.cause.lag),
            Verdict::LagUnder => assert!(e.cause.lag <= 1),
            Verdict::External => panic!("controller never emits External verdicts"),
        }
    }
    assert!(
        events.iter().any(|e| !e.gauges.is_empty()),
        "telemetry was on, so journal entries must carry gauge snapshots"
    );
    // The sampler re-reads the gauge registry each frame, so the
    // controller's action counter must show up once it acted.
    let frames = running.telemetry();
    let acted = frames
        .iter()
        .filter_map(|f| f.value(GAUGE_CONTROL_ACTIONS))
        .max();
    assert!(
        acted.unwrap_or(0) >= 1,
        "control.actions gauge never advanced: {acted:?}"
    );
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages, 240);
    assert_eq!(summary.errors, 0);
}

/// The lag-only autoscaler as a controller config: every knob except the
/// consumer pool pinned (min = max = current), attribution off. Under lag
/// it may only grow the pool, never past `max_processors`, and it leaves
/// every other knob alone.
#[test]
fn pinned_bounds_controller_only_scales_processors_within_max() {
    let (edge, cloud) = pilots(2, 2);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(10), 40))
        .process_cloud_function(slow_processor(4))
        .devices(2)
        .processors(1)
        .compute_threads(1)
        .rate_per_device(150.0)
        .controller(ControllerConfig {
            tick: Duration::from_millis(20),
            hysteresis: 1,
            cooldown: Duration::ZERO,
            lag_bound: 5,
            lag_low: 0,
            bounds: ControlBounds {
                min_processors: 1,
                max_processors: 2,
                min_compute: 1,
                max_compute: 1,
                min_batch_bytes: 0,
                max_batch_bytes: 0,
                min_prefetch: 0,
                max_prefetch: 0,
                min_fetch_max: PipelineConfig::default().fetch_max,
                max_fetch_max: PipelineConfig::default().fetch_max,
            },
            ..ControllerConfig::default()
        })
        .start()
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));
    assert!(running.processor_count() <= 2);
    let events = running.control_events();
    assert!(
        events
            .iter()
            .any(|e| e.action == set(Knob::Processors, 1, 2)),
        "expected the scale-up to 2, got {events:?}"
    );
    for e in &events {
        assert!(
            matches!(e.action, Action::Set { knob: Knob::Processors, to, .. } if to <= 2),
            "pinned knob moved, or the pool passed its ceiling: {e:?}"
        );
        assert!(e.cause.bottleneck.is_none(), "attribution was off: {e:?}");
    }
    let summary = running.wait(WAIT).unwrap();
    assert_eq!(summary.messages, 80);
    assert_eq!(summary.errors, 0);
}
