//! Event-driven consumer core stress tests (DESIGN.md §12).
//!
//! Three properties the consumer core rests on, attacked directly:
//!
//! 1. **No lost wakeups.** `Topic::read_many_or_register` closes the
//!    classic race between "the sweep saw nothing" and "the waker was
//!    armed" by snapshotting the arrival sequence number before the sweep
//!    and re-checking it under the registry lock. The stress test races
//!    appends against registration across 256 partitions for thousands of
//!    iterations: every append must be observed — either by the sweep or
//!    by the waker it arms — and the watcher lists must not accumulate
//!    stale entries.
//!
//! 2. **Fixed thread pool.** The consumer path spawns `reactor_threads`
//!    threads *total*, however many members the cell runs. Asserted at
//!    4096 members via `/proc/self/status`.
//!
//! 3. **No lost tail.** A partition is done when the records fetched ahead
//!    of its sentinel have been *processed*, not when the sentinel is
//!    fetched — so a run whose streams all end together, with transfers
//!    still parked on the broker→cloud link, delivers every message.

use parking_lot::Mutex;
use pilot_broker::record::Record;
use pilot_broker::topic::Topic;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::time::{Duration, Instant};

/// A waker that unparks a parked thread, with a notification flag so the
/// parked side can distinguish a real wake from a spurious unpark.
struct Unparker {
    thread: std::thread::Thread,
    notified: AtomicBool,
}

impl Wake for Unparker {
    fn wake(self: Arc<Self>) {
        self.notified.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

/// Appends racing waker registration: one appender thread writes one
/// record to a random-ish partition per iteration while the consumer
/// thread sweeps-or-registers over all 256 partitions. The consumer must
/// observe every single record (no lost wakeup ⇒ no deadlock, because the
/// appender stops producing and the consumer would otherwise park
/// forever), and the registry must stay clean.
#[test]
fn registration_never_loses_a_wakeup_under_append_races() {
    const PARTITIONS: usize = 256;
    const APPENDS: usize = 10_000;
    let topic = Arc::new(Topic::new("stress", PARTITIONS));
    let waiter = topic.arrival_waiter();

    let appender = {
        let topic = Arc::clone(&topic);
        std::thread::spawn(move || {
            let mut state = 0x9e3779b97f4a7c15u64;
            for i in 0..APPENDS {
                // xorshift over the partition space: adjacent appends land
                // far apart, maximising sweep/registration interleavings.
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let p = (state as usize) % PARTITIONS;
                topic
                    .append(p, Record::new(i.to_string().into_bytes()))
                    .expect("valid partition");
                if i % 64 == 0 {
                    std::thread::yield_now();
                }
            }
        })
    };

    // The consumer: sweep-or-register, park on "registered", tally every
    // record seen. Offsets advance per partition, so each record counts
    // exactly once.
    let unparker = Arc::new(Unparker {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let waker = Waker::from(Arc::clone(&unparker));
    let mut offsets = vec![0u64; PARTITIONS];
    let mut seen = 0usize;
    let deadline = Instant::now() + Duration::from_secs(60);
    while seen < APPENDS {
        assert!(
            Instant::now() < deadline,
            "lost wakeup: consumer stuck with {seen}/{APPENDS} records observed"
        );
        let requests: Vec<(usize, u64)> = offsets.iter().copied().enumerate().collect();
        let ready = topic.read_many_or_register(&requests, usize::MAX, &waiter, &waker);
        if ready.is_empty() {
            // Registered. Park until the waker fires — bounded so the
            // assertion above (not a hung test) reports a lost wakeup.
            while !unparker.notified.swap(false, Ordering::Acquire) {
                std::thread::park_timeout(Duration::from_millis(200));
                if Instant::now() >= deadline {
                    break;
                }
            }
            continue;
        }
        for (p, result) in ready {
            let records = result.expect("offsets never trimmed: no broker raises a floor");
            offsets[p] += records.len() as u64;
            seen += records.len();
        }
    }
    appender.join().unwrap();
    assert_eq!(seen, APPENDS);
    // Self-cleaning watcher lists: one waiter re-registering thousands of
    // times leaves at most one entry per partition, and releasing the
    // waiter leaves the slot reusable.
    assert!(
        topic.watcher_entries() <= PARTITIONS,
        "watcher lists accumulated {} entries for a single waiter",
        topic.watcher_entries()
    );
    topic.release_waiter(waiter);
}

/// Many concurrent waiters with distinct partition sets: each waiter must
/// only ever be woken for its own partitions, and every waiter must see
/// its records. Exercises the epoch invalidation across overlapping
/// registrations.
#[test]
fn concurrent_waiters_each_observe_their_own_partitions() {
    const WAITERS: usize = 8;
    const PER_WAITER: usize = 32; // partitions per waiter
    const APPENDS_PER_PARTITION: usize = 40;
    let topic = Arc::new(Topic::new("stress-multi", WAITERS * PER_WAITER));
    let observed: Arc<Mutex<HashSet<(usize, u64)>>> = Arc::new(Mutex::new(HashSet::new()));
    let consumers: Vec<_> = (0..WAITERS)
        .map(|w| {
            let topic = Arc::clone(&topic);
            let observed = Arc::clone(&observed);
            std::thread::spawn(move || {
                let waiter = topic.arrival_waiter();
                let unparker = Arc::new(Unparker {
                    thread: std::thread::current(),
                    notified: AtomicBool::new(false),
                });
                let waker = Waker::from(Arc::clone(&unparker));
                let parts: Vec<usize> = (w * PER_WAITER..(w + 1) * PER_WAITER).collect();
                let mut offsets = vec![0u64; PER_WAITER];
                let mut seen = 0usize;
                let deadline = Instant::now() + Duration::from_secs(60);
                while seen < PER_WAITER * APPENDS_PER_PARTITION {
                    assert!(Instant::now() < deadline, "waiter {w} lost a wakeup");
                    let requests: Vec<(usize, u64)> =
                        parts.iter().zip(&offsets).map(|(&p, &o)| (p, o)).collect();
                    let ready = topic.read_many_or_register(&requests, usize::MAX, &waiter, &waker);
                    if ready.is_empty() {
                        while !unparker.notified.swap(false, Ordering::Acquire) {
                            std::thread::park_timeout(Duration::from_millis(200));
                            if Instant::now() >= deadline {
                                break;
                            }
                        }
                        continue;
                    }
                    let mut obs = observed.lock();
                    for (p, result) in ready {
                        assert!(
                            parts.contains(&p),
                            "waiter {w} handed records for partition {p} it never requested"
                        );
                        let records = result.expect("never trimmed");
                        let base = offsets[p - w * PER_WAITER];
                        for (i, _) in records.iter().enumerate() {
                            obs.insert((p, base + i as u64));
                        }
                        offsets[p - w * PER_WAITER] += records.len() as u64;
                        seen += records.len();
                    }
                }
                topic.release_waiter(waiter);
            })
        })
        .collect();
    // One appender sprays all partitions round-robin.
    for i in 0..APPENDS_PER_PARTITION {
        for p in 0..WAITERS * PER_WAITER {
            topic
                .append(p, Record::new(i.to_string().into_bytes()))
                .unwrap();
        }
    }
    for c in consumers {
        c.join().unwrap();
    }
    assert_eq!(
        observed.lock().len(),
        WAITERS * PER_WAITER * APPENDS_PER_PARTITION,
        "every appended record observed exactly once across waiters"
    );
}

/// The tail-loss regression (benchmark/README.md, finding 1): 128 devices
/// finish within a few milliseconds of each other, so every member fetches
/// its sentinel together with its last records while the two reactor
/// threads are still working through a backlog of 1 ms invocations. When a
/// *fetched* sentinel ended the partition, `wait()` saw every partition
/// done and stopped the members before those last batches were processed
/// — about one message per device vanished with `errors == 0`.
#[test]
fn streams_ending_together_deliver_their_tails() {
    use pilot_core::{PilotComputeService, PilotDescription};
    use pilot_datagen::DataGenConfig;
    use pilot_edge::faas::{CloudFactory, Context, ProcessOutcome};
    use pilot_edge::processors::datagen_produce_factory;
    use pilot_edge::EdgeToCloudPipeline;
    use pilot_netsim::profiles;

    const DEVICES: usize = 128;
    const MESSAGES: usize = 3;
    let one_ms: CloudFactory = Arc::new(|_ctx| {
        Box::new(|_ctx: &Context, _block| {
            std::thread::sleep(Duration::from_millis(1));
            Ok(ProcessOutcome::default())
        })
    });
    let wait = Duration::from_secs(120);
    let svc = PilotComputeService::new();
    let edge = svc
        .submit_and_wait(PilotDescription::local(2, 16.0), wait)
        .unwrap();
    let cloud = svc
        .submit_and_wait(PilotDescription::local(2, 16.0), wait)
        .unwrap();
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(5), MESSAGES))
        .process_cloud_function(one_ms)
        .devices(DEVICES)
        .producer_threads(2)
        .reactor_threads(2)
        .link_broker_to_cloud(profiles::cloud_local("broker->cloud", 9).build())
        .start()
        .unwrap();
    let processed = running.context().counter("messages_processed");
    let summary = running.wait(wait).unwrap();
    assert_eq!(summary.messages as usize, DEVICES * MESSAGES);
    assert_eq!(summary.errors, 0);
    // `summary.messages` counts a message once any stage recorded a span
    // for it; the cloud function's own tally is what a lost tail shows in.
    assert_eq!(
        processed.get() as usize,
        DEVICES * MESSAGES,
        "the tail of a stream was dropped before it reached the cloud function"
    );
}

#[cfg(target_os = "linux")]
fn os_thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status readable on linux")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line present")
        .trim()
        .parse()
        .expect("thread count parses")
}

/// The acceptance gate for the reactor's whole point: 4096 consumer
/// members must cost the 2 reactor threads plus a constant for the rest
/// of the harness — not a thread per member.
#[cfg(target_os = "linux")]
#[test]
fn four_thousand_members_run_on_a_fixed_thread_pool() {
    use pilot_core::{PilotComputeService, PilotDescription};
    use pilot_datagen::DataGenConfig;
    use pilot_edge::processors::{baseline_factory, datagen_produce_factory};
    use pilot_edge::EdgeToCloudPipeline;

    const DEVICES: usize = 4096;
    let wait = Duration::from_secs(300);
    let svc = PilotComputeService::new();
    let edge = svc
        .submit_and_wait(PilotDescription::local(2, 16.0), wait)
        .unwrap();
    let cloud = svc
        .submit_and_wait(PilotDescription::local(2, 16.0), wait)
        .unwrap();
    let before = os_thread_count();
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(5), 1))
        .process_cloud_function(baseline_factory())
        .devices(DEVICES) // 4096 members (processors defaults to devices)
        .producer_threads(2)
        .start()
        .unwrap();
    let during = os_thread_count();
    let added = during.saturating_sub(before);
    // 2 producer engine workers + 2 reactor threads + harness constant
    // (pilot workers, broker plumbing). The bound is generous; the point
    // is that it does not scale with the 4096 members.
    assert!(
        added <= 64,
        "4096 reactor members added {added} OS threads — expected a small \
         constant (2 reactor threads + harness), got per-member threads"
    );
    let summary = running.wait(wait).unwrap();
    assert_eq!(summary.messages as usize, DEVICES, "one message per device");
    assert_eq!(summary.errors, 0);
}
