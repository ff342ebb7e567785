//! All-knobs smoke run (DESIGN.md §10): one cell with every runtime knob
//! engaged simultaneously — devices sharing two edge threads, producer-side
//! batching with a linger window, consumer look-ahead, and an
//! explicitly-sized compute pool. The staged runtime must compose all of
//! them: the run must conserve every message and report zero errors.
//!
//! This is the CI canary for knob interactions: each knob's own suite
//! exercises it in isolation, while this binary fails fast if two knobs
//! regress only in combination (e.g. a batcher flush racing the
//! consumer's sentinel pause).
//!
//! Usage: `cargo run -p pilot-bench --release --bin all_knobs`
//! (honours `PILOT_BENCH_QUICK` / `PILOT_BENCH_MESSAGES`).

use pilot_bench::{csv_header, csv_row, run_cell, CellOpts, Geo};
use pilot_edge::DeploymentMode;
use std::time::{Duration, Instant};

const PRODUCER_THREADS: usize = 2;
const PROCESSORS: usize = 4;
const COMPUTE_THREADS: usize = 2;

fn devices() -> usize {
    if std::env::var("PILOT_BENCH_QUICK").is_ok() {
        8
    } else {
        64
    }
}

fn main() {
    println!("# all_knobs — every runtime knob on at once");
    println!("{}", csv_header());
    let devices = devices();
    let opts = CellOpts {
        points: 100,
        devices,
        processors: Some(PROCESSORS),
        messages_per_device: pilot_bench::default_messages(Geo::Local).min(16),
        mode: DeploymentMode::Hybrid, // edge processing on, too
        producer_threads: Some(PRODUCER_THREADS),
        compute_threads: Some(COMPUTE_THREADS),
        batch_max_bytes: 16 * 1024,
        linger: Duration::from_millis(2),
        prefetch_depth: 2,
        ..CellOpts::default()
    };
    let t0 = Instant::now();
    let s = run_cell(&opts);
    let wall = t0.elapsed();
    println!("{}", csv_row("all_knobs", &opts, &s));
    let expected = devices * opts.messages_per_device;
    assert_eq!(
        s.messages as usize, expected,
        "messages lost with all knobs on ({} of {expected})",
        s.messages
    );
    assert_eq!(s.errors, 0, "errors with all knobs on");
    eprintln!(
        "all_knobs ok: {} messages in {:.1} ms ({} devices, \
         {PRODUCER_THREADS} edge threads, {PROCESSORS} processors, \
         {COMPUTE_THREADS}-lane pool, batching+linger+prefetch on)",
        s.messages,
        wall.as_secs_f64() * 1e3,
        devices,
    );
}
