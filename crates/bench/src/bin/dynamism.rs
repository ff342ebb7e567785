//! Dynamism experiment (EXPERIMENTS.md DY-1) — the paper's Section II-D
//! adaptation story as a measurable A/B run.
//!
//! One disturbance, two pipelines: at `shift` the per-device arrival rate
//! steps up 4× **and** the edge→broker link degrades (a cross-traffic
//! thread reserves ~half its capacity in bursty slabs). The controller-off
//! run rides it out on static knobs; the controller-on run closes the
//! telemetry→knob loop ([`ControllerConfig`]). Both runs sample consumer
//! lag on a 10 ms grid; the headline metric is the **time to recovery**
//! (TTR): from the shift until lag first returns to the bound and stays
//! there for a settle window.
//!
//! Output: `results_dynamism.csv` (one row per mode) plus the
//! controller-on action journal on stdout.
//!
//! Usage: `cargo run -p pilot-bench --release --bin dynamism`
//! (`PILOT_BENCH_QUICK=1` shrinks the workload for CI and skips the CSV
//! rewrite; the smoke assertions — controller-on recovers with a non-empty
//! journal, controller-off journals nothing — run in both modes.)

use pilot_core::{PilotComputeService, PilotDescription};
use pilot_datagen::{DataGenConfig, DataGenerator, PatternedRate, RatePattern};
use pilot_edge::faas::ProcessOutcome;
use pilot_edge::{
    Context, ControlBounds, ControlEvent, ControllerConfig, EdgeToCloudPipeline, ProduceFactory,
    RunSummary,
};
use pilot_netsim::profiles;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DEVICES: usize = 2;
/// Lag bound shared by the TTR measurement and the controller config.
const LAG_BOUND: u64 = 12;
/// Lag must stay at/below the bound this long to count as recovered.
const SETTLE: Duration = Duration::from_millis(400);
/// Cross-traffic slab reserved on the edge→broker link every 20 ms —
/// ~10 ms of transit per slab on the cloud-local profile, i.e. roughly
/// half the link.
const CROSS_SLAB_BYTES: u64 = 8 * 1024 * 1024;

struct Params {
    messages: usize,
    points: usize,
    base_rate: f64,
    shift: Duration,
    process_ms: u64,
}

fn params(quick: bool) -> Params {
    if quick {
        Params {
            messages: 60,
            points: 200,
            base_rate: 15.0,
            shift: Duration::from_millis(400),
            process_ms: 12,
        }
    } else {
        Params {
            messages: 300,
            points: 600,
            base_rate: 15.0,
            shift: Duration::from_millis(1_500),
            process_ms: 12,
        }
    }
}

/// A produce function paced by a step pattern: `base_rate` msg/s/device,
/// jumping 4× at `shift` (a sensor fleet reacting to an external event).
fn shifted_produce(p: &Params) -> ProduceFactory {
    let (messages, points, base, shift) = (p.messages, p.points, p.base_rate, p.shift);
    Arc::new(move |_ctx: &Context, device: usize| {
        let mut generator =
            DataGenerator::new(DataGenConfig::paper(points).with_seed(7 + device as u64));
        let mut pacer = PatternedRate::new(RatePattern::Step {
            before: base,
            after: base * 4.0,
            at: shift,
        });
        let mut remaining = messages;
        Box::new(move |_ctx: &Context| {
            if remaining == 0 {
                return None;
            }
            remaining -= 1;
            pacer.pace();
            Some(generator.next_block())
        })
    })
}

struct Outcome {
    summary: RunSummary,
    peak_lag: u64,
    /// `None` = lag never returned to the bound inside the horizon.
    ttr: Option<Duration>,
    events: Vec<ControlEvent>,
}

/// TTR from a lag timeline: first post-shift instant at/below the bound
/// from which lag stays there for the settle window. `Duration::ZERO` when
/// the disturbance never pushed lag past the bound.
fn time_to_recover(samples: &[(Duration, u64)], shift: Duration) -> (u64, Option<Duration>) {
    let peak = samples
        .iter()
        .filter(|(t, _)| *t >= shift)
        .map(|&(_, l)| l)
        .max()
        .unwrap_or(0);
    let Some(first_over) = samples
        .iter()
        .position(|&(t, l)| t >= shift && l > LAG_BOUND)
    else {
        return (peak, Some(Duration::ZERO));
    };
    for i in first_over..samples.len() {
        let (t0, lag) = samples[i];
        if lag > LAG_BOUND {
            continue;
        }
        let settled = samples[i..]
            .iter()
            .take_while(|&&(t, _)| t < t0 + SETTLE)
            .all(|&(_, l)| l <= LAG_BOUND);
        if settled {
            return (peak, Some(t0 - shift));
        }
    }
    (peak, None)
}

fn run_mode(p: &Params, controller_on: bool) -> Outcome {
    let svc = PilotComputeService::new();
    let edge = svc
        .submit_and_wait(
            PilotDescription::local(DEVICES, 8.0),
            Duration::from_secs(10),
        )
        .unwrap();
    let cloud = svc
        .submit_and_wait(PilotDescription::local(4, 44.0), Duration::from_secs(10))
        .unwrap();

    // Keep a clone of the edge→broker link: `Link` handles share state, so
    // the cross-traffic thread degrades the same simulated pipe the
    // producers send over.
    let wan = pilot_netsim::Link::new(profiles::cloud_local("edge->broker", 7));
    let wan_cross = wan.clone();

    let process_ms = p.process_ms;
    let slow: pilot_edge::CloudFactory = Arc::new(move |_ctx| {
        Box::new(move |_ctx: &Context, _block: &pilot_datagen::Block| {
            std::thread::sleep(Duration::from_millis(process_ms));
            Ok(ProcessOutcome::default())
        })
    });

    let mut builder = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(shifted_produce(p))
        .process_cloud_function(slow)
        .devices(DEVICES)
        .processors(1)
        .link_edge_to_broker(wan)
        .link_broker_to_cloud(pilot_netsim::Link::new(profiles::cloud_local(
            "broker->cloud",
            8,
        )));
    if controller_on {
        builder = builder
            .telemetry_sample_ms(10)
            .controller(ControllerConfig {
                tick: Duration::from_millis(25),
                hysteresis: 2,
                cooldown: Duration::from_millis(100),
                lag_bound: LAG_BOUND,
                lag_low: 2,
                bounds: ControlBounds {
                    max_processors: 4,
                    max_compute: 4,
                    ..ControlBounds::default()
                },
                ..ControllerConfig::default()
            });
    }

    let started = Instant::now();
    let running = builder.start().unwrap();

    // WAN degradation: from the shift until the run ends, burn ~half the
    // edge→broker link with cross-traffic reservations.
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let shift = p.shift;
    let cross = std::thread::spawn(move || {
        let t0 = Instant::now();
        while t0.elapsed() < shift {
            if stop2.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        while !stop2.load(Ordering::Relaxed) {
            let _ = wan_cross.reserve(CROSS_SLAB_BYTES);
            std::thread::sleep(Duration::from_millis(20));
        }
    });

    // Sample lag on a 10 ms grid until the backlog is demonstrably gone
    // (600 ms of zero lag after the shift) or the horizon expires.
    let mut samples: Vec<(Duration, u64)> = Vec::new();
    let horizon = Duration::from_secs(60);
    let mut zero_since: Option<Instant> = None;
    loop {
        let now = Instant::now();
        let t = now.duration_since(started);
        if t > horizon {
            break;
        }
        let lag = running.lag();
        samples.push((t, lag));
        if t > shift {
            if lag == 0 {
                let since = *zero_since.get_or_insert(now);
                if now.duration_since(since) > Duration::from_millis(600) {
                    break;
                }
            } else {
                zero_since = None;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    stop.store(true, Ordering::Relaxed);
    let events = running.control_events();
    let summary = running.wait(Duration::from_secs(120)).unwrap();
    cross.join().unwrap();
    let (peak_lag, ttr) = time_to_recover(&samples, p.shift);
    Outcome {
        summary,
        peak_lag,
        ttr,
        events,
    }
}

fn csv_row(mode: &str, p: &Params, o: &Outcome) -> String {
    let ttr_ms = o
        .ttr
        .map(|d| format!("{:.1}", d.as_secs_f64() * 1e3))
        .unwrap_or_else(|| "inf".into());
    format!(
        "{mode},{},{},{},{},{},{:.1},{:.1},{},{},{}\n",
        DEVICES,
        p.messages,
        p.shift.as_millis(),
        o.summary.messages,
        o.summary.errors,
        o.summary.throughput_msgs,
        o.summary.latency_mean_ms,
        o.peak_lag,
        ttr_ms,
        o.events.len(),
    )
}

fn main() {
    let quick = std::env::var("PILOT_BENCH_QUICK").is_ok();
    let p = params(quick);
    println!(
        "# dynamism — 4x load shift + WAN degradation at t={:?}",
        p.shift
    );
    println!(
        "# {DEVICES} devices x {} msgs; {} -> {} msg/s/device; {} ms/msg processor, 1 consumer to start",
        p.messages,
        p.base_rate,
        p.base_rate * 4.0,
        p.process_ms
    );

    println!("\n# controller off (static knobs):");
    let off = run_mode(&p, false);
    println!("#   peak lag {} records, ttr {:?}", off.peak_lag, off.ttr);

    println!("\n# controller on (feedback loop closed):");
    let on = run_mode(&p, true);
    println!("#   peak lag {} records, ttr {:?}", on.peak_lag, on.ttr);
    println!("#   action journal (t_ms, lag, verdict, action, before -> after, bottleneck):");
    for e in &on.events {
        println!(
            "#   {:>7.1}, {:>4}, {:?}, {}, {} -> {}, {}",
            e.at.as_secs_f64() * 1e3,
            e.cause.lag,
            e.cause.verdict,
            e.action.label(),
            e.action.before(),
            e.action.after(),
            e.cause.bottleneck.as_deref().unwrap_or("-"),
        );
    }

    // Smoke contract (CI runs this in quick mode): the closed loop must
    // recover and journal its actions; the open loop must journal nothing.
    let expected = (DEVICES * p.messages) as u64;
    assert_eq!(
        off.summary.messages, expected,
        "controller-off lost messages"
    );
    assert_eq!(on.summary.messages, expected, "controller-on lost messages");
    assert_eq!(off.summary.errors + on.summary.errors, 0);
    assert!(
        off.events.is_empty(),
        "controller-off run must journal nothing, got {:?}",
        off.events
    );
    assert!(
        !on.events.is_empty(),
        "controller-on run journalled no actions"
    );
    let ttr_on = on.ttr.expect("controller-on run must recover");

    let mut csv = String::from(
        "controller,devices,messages_per_device,shift_ms,messages,errors,\
         throughput_msgs,latency_mean_ms,peak_lag,ttr_ms,actions\n",
    );
    csv.push_str(&csv_row("off", &p, &off));
    csv.push_str(&csv_row("on", &p, &on));
    println!("\n{csv}");
    if !quick {
        // The acceptance bar: closing the loop at least halves the TTR.
        let ttr_off = off.ttr.unwrap_or(Duration::from_secs(60));
        assert!(
            ttr_on.as_secs_f64() <= 0.5 * ttr_off.as_secs_f64(),
            "controller-on ttr {ttr_on:?} not <= 0.5x controller-off {ttr_off:?}"
        );
        std::fs::write("results_dynamism.csv", &csv).expect("write results_dynamism.csv");
        println!("# wrote results_dynamism.csv");
    }
}
