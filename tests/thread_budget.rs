//! The pipeline's thread budget, alone in its own test binary so no sibling
//! test's threads are in the process: a pipeline is its two reactors — the
//! edge pilot's cores driving the devices, the cloud pilot's cores driving
//! the consumer members — and nothing else. Pilots spawn no worker threads
//! at activation, and a device is a task, not a thread.
#![cfg(target_os = "linux")]

use pilot_core::{PilotComputeService, PilotDescription};
use pilot_datagen::DataGenConfig;
use pilot_edge::processors::{baseline_factory, datagen_produce_factory};
use pilot_edge::EdgeToCloudPipeline;
use std::time::{Duration, Instant};

/// The names of this process's threads that start with `prefix`.
fn threads_named(prefix: &str) -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task readable on linux")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .filter(|name| name.starts_with(prefix))
        .collect()
}

#[test]
fn pipeline_thread_budget() {
    const DEVICES: usize = 64;
    const MESSAGES: usize = 10;
    let wait = Duration::from_secs(60);
    let svc = PilotComputeService::new();
    let edge = svc
        .submit_and_wait(PilotDescription::local(2, 8.0), wait)
        .unwrap();
    let cloud = svc
        .submit_and_wait(PilotDescription::local(2, 8.0), wait)
        .unwrap();
    assert_eq!(
        threads_named("pilot-worker"),
        Vec::<String>::new(),
        "activating a pilot spawns nothing"
    );
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(5), MESSAGES))
        .process_cloud_function(baseline_factory())
        .devices(DEVICES) // 64 members: processors defaults to devices
        .compute_threads(1)
        .rate_per_device(20.0) // a 500 ms stream: sampled mid-run
        .start()
        .unwrap();
    // A thread names itself as it starts: give the four a moment to.
    let t = Instant::now();
    while threads_named("reactor-").len() < 4 && t.elapsed() < Duration::from_secs(5) {
        std::thread::yield_now();
    }
    let mut reactors = threads_named("reactor-");
    reactors.sort();
    assert_eq!(
        reactors,
        ["reactor-0", "reactor-0", "reactor-1", "reactor-1"],
        "64 devices and 64 members run on 2 edge + 2 cloud reactor threads"
    );
    assert_eq!(threads_named("pilot-worker"), Vec::<String>::new());
    let summary = running.wait(wait).unwrap();
    assert_eq!(summary.messages as usize, DEVICES * MESSAGES);
    assert_eq!(summary.errors, 0);
    assert_eq!(
        threads_named("reactor-"),
        Vec::<String>::new(),
        "wait() joins both reactors"
    );
}
