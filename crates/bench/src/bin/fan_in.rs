//! Cell fan-in sweep (DESIGN.md §9, §12): one cell scaled from 1k to 64k
//! edge devices at a **fixed aggregate message count** — the experiment
//! behind the `reactor` rows of `results_fan_in.csv`.
//!
//! Every run multiplexes its devices onto a small, constant producer
//! engine, so producer-side threads stay flat while the partition count
//! grows 64×. The consumer side runs one member *per partition* (the
//! paper's 1:1 ratio), all driven by a fixed pool of reactor threads.
//! Members park on the broker's arrival registry and on transfer
//! deadlines instead of blocking, so 64k members cost 64k state machines —
//! not 64k OS threads — and thousands of simulated transfers overlap.
//!
//! The acceptance curve: per-message overhead at 64k devices must stay
//! within 2× of the 1k-device anchor.
//!
//! Usage: `cargo run -p pilot-bench --release --bin fan_in`
//! (honours `PILOT_BENCH_QUICK`; `PILOT_BENCH_FAN_IN_TOTAL` overrides the
//! aggregate message count).

use pilot_bench::{run_cell, CellOpts};
use std::time::Instant;

/// Edge reactor threads — constant across the sweep.
const PRODUCER_THREADS: usize = 8;

/// Reactor pool width: small in CI smoke runs, 8 for the full sweep.
fn reactor_threads() -> usize {
    if std::env::var("PILOT_BENCH_QUICK").is_ok() {
        2
    } else {
        8
    }
}

fn device_sweep() -> Vec<usize> {
    if std::env::var("PILOT_BENCH_QUICK").is_ok() {
        vec![1024, 4096]
    } else {
        vec![1024, 4096, 16384, 65536]
    }
}

/// Aggregate messages per run, split evenly across devices.
fn total_messages() -> usize {
    if let Ok(v) = std::env::var("PILOT_BENCH_FAN_IN_TOTAL") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    if std::env::var("PILOT_BENCH_QUICK").is_ok() {
        4096
    } else {
        65536
    }
}

fn main() {
    println!(
        "# fan_in — device fan-in sweep at fixed aggregate messages, \
         multiplexed producers, one consumer member per device on the reactor"
    );
    println!(
        "devices,producer_threads,consumer,processors,reactor_threads,consumer_threads,\
         messages,points,wall_ms,overhead_us_per_msg,throughput_msgs_s,\
         latency_p50_ms,latency_p99_ms,errors"
    );
    let total = total_messages();
    let rt = reactor_threads();
    let mut rows: Vec<(usize, f64)> = Vec::new();
    for devices in device_sweep() {
        let messages_per_device = (total / devices).max(1);
        let opts = CellOpts {
            points: 25,
            devices,
            // One member per partition — the fan-in the reactor exists to
            // make affordable.
            processors: None,
            messages_per_device,
            producer_threads: Some(PRODUCER_THREADS),
            reactor_threads: Some(rt),
            ..CellOpts::default()
        };
        let t0 = Instant::now();
        let s = run_cell(&opts);
        let wall = t0.elapsed();
        let messages = devices * messages_per_device;
        let overhead_us = wall.as_micros() as f64 / messages as f64;
        println!(
            "{},{},reactor,{},{},{},{},{},{:.1},{:.2},{:.2},{:.2},{:.2},{}",
            devices,
            PRODUCER_THREADS,
            devices,
            rt,
            rt,
            messages,
            opts.points,
            wall.as_secs_f64() * 1e3,
            overhead_us,
            s.throughput_msgs,
            s.latency_p50_ms,
            s.latency_p99_ms,
            s.errors,
        );
        assert_eq!(s.messages as usize, messages, "messages lost at fan-in");
        assert_eq!(s.errors, 0, "errors at fan-in");
        rows.push((devices, overhead_us));
    }
    // The acceptance curve: overhead at the largest fan-in vs the smallest
    // (1k-device) anchor must stay within 2×.
    if let (Some(&(ad, a)), Some(&(ld, l))) = (rows.first(), rows.last()) {
        let ratio = l / a;
        eprintln!(
            "overhead {ld} devices / {ad} devices = {ratio:.2}x \
             ({l:.2} us vs {a:.2} us per message)"
        );
        if ld > ad {
            assert!(
                ratio <= 2.0,
                "per-message overhead grew {ratio:.2}x from {ad} to {ld} devices \
                 (acceptance bound: 2x)"
            );
        }
    }
}
