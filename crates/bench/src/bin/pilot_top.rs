//! `pilot_top` — a live per-stage view of a running pipeline, driven by
//! the telemetry plane (DESIGN.md §11).
//!
//! Starts one experiment cell with `telemetry_sample_ms` on, prints a
//! `top`-style table of the stage gauges while the run is in flight, and
//! finishes with the online bottleneck attribution (critical-path share
//! per component) plus an optional Chrome `trace_event` export.
//!
//! ```text
//! pilot_top [wan|compute|federation]
//!
//!   wan        transatlantic edge→broker link, baseline model — the
//!              network link dominates (default)
//!   compute    local links, isolation-forest model on large messages —
//!              the cloud processors dominate
//!   federation 64 edge cells -> 4 regions -> cloud on one shared
//!              reactor: per-tier lag, merge rounds, and parameter-plane
//!              traffic (DESIGN.md §14)
//!
//! Env:
//!   PILOT_TOP_TRACE=<path>  write a Perfetto-loadable Chrome trace and
//!                           validate it (exit 1 on malformed JSON or an
//!                           empty event list)
//!   PILOT_BENCH_QUICK       shrink the cell for CI smoke runs
//!   PILOT_BENCH_MESSAGES=N  override messages per device
//! ```

use pilot_bench::{start_cell, CellOpts, Geo};
use pilot_edge::federation::FEDERATION_GAUGES;
use pilot_metrics::{attribute, validate_trace_json, TopView, PIPELINE_GAUGES};
use pilot_ml::ModelKind;
use std::time::{Duration, Instant};

fn scenario(name: &str) -> CellOpts {
    let quick = std::env::var("PILOT_BENCH_QUICK").is_ok();
    match name {
        "compute" => CellOpts {
            points: if quick { 1000 } else { 10_000 },
            devices: 2,
            model: ModelKind::IsolationForest,
            geo: Geo::Local,
            messages_per_device: pilot_bench::default_messages(Geo::Local),
            telemetry_sample_ms: Some(5),
            ..CellOpts::default()
        },
        _ => CellOpts {
            points: if quick { 100 } else { 1000 },
            devices: 2,
            model: ModelKind::Baseline,
            geo: Geo::Transatlantic,
            messages_per_device: pilot_bench::default_messages(Geo::Transatlantic),
            telemetry_sample_ms: Some(5),
            ..CellOpts::default()
        },
    }
}

/// The federation scenario: a live per-tier view of a 64-cell continuum
/// (cells → regions → cloud) on one shared reactor.
fn run_federation_scenario() {
    use pilot_edge::federation::{self, FederationConfig};
    let quick = std::env::var("PILOT_BENCH_QUICK").is_ok();
    let messages = std::env::var("PILOT_BENCH_MESSAGES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 8 } else { 64 });
    let cfg = FederationConfig {
        cells: 64,
        regions: 4,
        devices_per_cell: 2,
        messages_per_device: messages,
        points: if quick { 25 } else { 100 },
        skew: 1.0,
        reactor_threads: 4,
        telemetry_sample_ms: Some(5),
        ..FederationConfig::default()
    };
    let expected = cfg.expected_messages();
    eprintln!(
        "pilot_top: scenario 'federation' — {} cells × {} devices × {} msgs \
         -> {} regions -> cloud",
        cfg.cells, cfg.devices_per_cell, cfg.messages_per_device, cfg.regions
    );
    let running = federation::start(cfg).expect("federation start");

    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let processed = running.processed();
        if let Some(frame) = running.sampler().and_then(|s| s.latest()) {
            let view = TopView::from_frame(&frame, FEDERATION_GAUGES, processed, Some(expected));
            print!("{}", view.to_text());
        }
        if processed >= expected || Instant::now() > deadline {
            break;
        }
    }
    let sampled = running.sampler().map_or(0, |s| s.frame_count());
    let summary = running
        .wait(Duration::from_secs(600))
        .expect("federation run");
    assert!(sampled > 0, "telemetry plane was on but produced no frames");
    println!(
        "run complete: {} msgs in {:.1} ms ({:.1} msgs/s, {:.2} us/msg), \
         {} regional + {} cloud rounds, {} gets / {} puts",
        summary.processed,
        summary.wall.as_secs_f64() * 1e3,
        summary.throughput(),
        summary.per_message_us(),
        summary.region_rounds,
        summary.cloud_rounds,
        summary.params_gets,
        summary.params_puts,
    );
}

fn main() {
    let scenario_name = std::env::args().nth(1).unwrap_or_else(|| "wan".into());
    if scenario_name == "federation" {
        run_federation_scenario();
        return;
    }
    let opts = scenario(&scenario_name);
    let expected = (opts.devices * opts.messages_per_device) as u64;
    eprintln!(
        "pilot_top: scenario '{scenario_name}' — {} devices × {} msgs, {} points, {} geo",
        opts.devices,
        opts.messages_per_device,
        opts.points,
        opts.geo.label()
    );

    let cell = start_cell(&opts);
    let job_id = cell.pipeline.job_id();
    let registry = cell.pipeline.context().metrics.clone();

    // Live loop: one table per tick until every message is processed.
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let processed = cell.pipeline.report().total_messages();
        if let Some(frame) = cell.pipeline.sampler().and_then(|s| s.latest()) {
            let view = TopView::from_frame(&frame, PIPELINE_GAUGES, processed, Some(expected));
            print!("{}", view.to_text());
        }
        if processed >= expected || Instant::now() > deadline {
            break;
        }
    }

    // Grab the frames before `wait` consumes the handle, then finish.
    let frames = cell.pipeline.telemetry();
    let summary = cell.wait(Duration::from_secs(600));
    assert!(
        !frames.is_empty(),
        "telemetry plane was on but produced no frames"
    );
    println!("run complete: {}", summary.to_csv_row());

    // Offline half of the telemetry plane: fold the span stream into the
    // per-window bottleneck attribution.
    let spans: Vec<_> = registry
        .snapshot()
        .into_iter()
        .filter(|s| s.job_id == job_id)
        .collect();
    let attribution = attribute(&spans, 100_000);
    println!(
        "critical-path attribution ({} windows):",
        attribution.windows.len()
    );
    print!("{}", attribution.to_table());
    if let Some(c) = attribution.dominant() {
        println!("bottleneck: {}", c.label());
    }

    if let Ok(path) = std::env::var("PILOT_TOP_TRACE") {
        let json = pilot_metrics::chrome_trace_json(&spans, &frames);
        std::fs::write(&path, &json).expect("write trace");
        match validate_trace_json(&json) {
            Ok(events) if events > 0 => {
                println!("chrome trace: {events} events -> {path}");
            }
            Ok(_) => {
                eprintln!("chrome trace at {path} has no events");
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("chrome trace at {path} is malformed: {e}");
                std::process::exit(1);
            }
        }
    }
}
