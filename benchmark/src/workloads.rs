//! The four workloads, the ledger their closures write into, and the
//! end-to-end measurements taken from it.
//!
//! Everything is measured from outside the system: the ledger stamps every
//! payload on the way in and checks it on the way out, the clocks around
//! `start()` / `wait()` are this file's own, and counts come from public
//! stats accessors through `adapter.rs`.

use crate::adapter::{
    self, FederationSpec, Hooks, LayerCounts, Model, PipelineSpec, ProbeSizes, FEATURES,
};
use crate::stats::{median, percentile};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "fanin-small-paced",
    "model-large-sat",
    "wan-durable-paced",
    "federation-sat",
];

/// Extra start-only passes per run; with the measured pass that makes an odd
/// number of `setup_s` samples, so the median is one of them.
const SETUP_REPEATS: usize = 20;

/// Shape of a single-pipeline workload.
pub struct PipelineWorkload {
    pub spec: PipelineSpec,
    /// 0 = open loop on the spec's rate; k = closed loop, at most k messages
    /// per device between `produce_edge` and `process_cloud`.
    pub window: usize,
    /// Messages per device per second of `--seconds`: the offered rate on an
    /// open loop; on a closed loop, about what this machine sustains, so the
    /// count is fixed by the arguments and memory does not grow with speed.
    pub msgs_per_device_s: f64,
    /// Add one unmeasured device that keeps its stream open until every
    /// measured message is delivered. The reactor consumer marks a partition
    /// done when it *fetches* the sentinel, and `wait()` stops every member
    /// once all partitions are marked — so records still parked on their
    /// broker→cloud transfer at that moment are never processed (README,
    /// "Findings"). With the closer, the only sentinel that can end the run
    /// early belongs to a stream with nothing to lose.
    pub closer: bool,
}

impl PipelineWorkload {
    /// The pipeline as the system sees it: the measured devices, plus the
    /// closer's device and consumer member when the workload has one.
    fn system_spec(&self) -> PipelineSpec {
        let extra = usize::from(self.closer);
        PipelineSpec {
            devices: self.spec.devices + extra,
            processors: self.spec.processors + extra,
            ..self.spec.clone()
        }
    }
}

pub enum Workload {
    Pipeline(PipelineWorkload),
    Federation(FederationSpec),
}

impl Workload {
    /// The sizes the isolated probes replay, read off the workload itself.
    pub fn probe_sizes(&self) -> ProbeSizes {
        // The pooled fleet `federation-sat` submits: 64 cells, 8 regions and
        // the cloud tier. Every workload times the same fleet.
        let fleet = 64 + 8 + 1;
        match self {
            Workload::Pipeline(p) => ProbeSizes {
                points: p.spec.points,
                members: p.spec.processors,
                fetch_max: adapter::pipeline_fetch_max(),
                // What the last publishing model of the function puts on the
                // parameter server; the federation participant's vector
                // where nothing is published.
                model_len: match p.spec.models.last() {
                    Some(Model::AutoEncoder) => 11_552,
                    Some(Model::KMeans) => 25 * FEATURES,
                    Some(Model::IsoForest) | None => FEATURES + 1,
                },
                wan: p.spec.wan,
                fleet,
            },
            Workload::Federation(spec) => ProbeSizes {
                points: spec.points,
                members: 2 * spec.cells,
                fetch_max: adapter::federation_fetch_max(),
                model_len: FEATURES + 1,
                wan: false,
                fleet,
            },
        }
    }
}

const ENSEMBLE: &[Model] = &[Model::KMeans, Model::IsoForest, Model::AutoEncoder];

/// The workload table. Every thread count is at most 2 (the machine's
/// `nproc`); all load is generated inside the workload process by the
/// pipeline's own producer tasks calling the benchmark's closures.
pub fn workload(name: &str) -> Option<Workload> {
    let linger = Duration::from_millis(2);
    Some(match name {
        // Open loop, 1536 msg/s offered: fixed per-message overhead with
        // almost no bytes or compute. The rate keeps the all-resident log of
        // a 30 s run near 335 MB: past about 550 MB of resident memory this
        // kind of machine charges some 26 µs for every new page (README,
        // "Findings"), which doubled the CPU per message from there on.
        "fanin-small-paced" => Workload::Pipeline(PipelineWorkload {
            spec: PipelineSpec {
                devices: 1024,
                points: 25,
                rate_per_device: 1.5,
                producer_threads: Some(2),
                reactor_threads: Some(2),
                processors: 1024,
                compute_threads: 1,
                batch: Some((64 * 1024, linger)),
                prefetch_depth: 0,
                wan: false,
                durable: false,
                models: &[],
            },
            window: 0,
            msgs_per_device_s: 1.5,
            closer: true,
        }),
        // Closed loop, compute-bound consumer: the three paper models in
        // turn on every 250 KB message.
        "model-large-sat" => Workload::Pipeline(PipelineWorkload {
            spec: PipelineSpec {
                devices: 2,
                points: 1000,
                rate_per_device: 0.0,
                producer_threads: None,
                reactor_threads: None,
                processors: 2,
                compute_threads: 2,
                batch: None,
                prefetch_depth: 0,
                wan: false,
                durable: false,
                models: ENSEMBLE,
            },
            window: 4,
            msgs_per_device_s: 24.0,
            closer: false,
        }),
        // Open loop, 80 msg/s over the transatlantic link into a durable
        // log: latency is simulated flight time, the broker's write path
        // runs beside its read path.
        "wan-durable-paced" => Workload::Pipeline(PipelineWorkload {
            spec: PipelineSpec {
                devices: 2,
                points: 100,
                rate_per_device: 40.0,
                producer_threads: None,
                reactor_threads: None,
                processors: 2,
                compute_threads: 1,
                batch: Some((256 * 1024, linger)),
                prefetch_depth: 2,
                wan: true,
                durable: true,
                models: &[Model::KMeans],
            },
            window: 0,
            msgs_per_device_s: 40.0,
            closer: false,
        }),
        // Closed loop, the other runtime shape: 64 cells as cooperative
        // tasks on one reactor, FedAvg over the parameter plane.
        "federation-sat" => Workload::Federation(FederationSpec {
            cells: 64,
            regions: 8,
            devices_per_cell: 4,
            messages_per_device: 256,
            points: 25,
            reactor_threads: 2,
        }),
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Clocks and process counters
// ---------------------------------------------------------------------------

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Process CPU time in nanoseconds (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for this target
    // (two 64-bit fields on 64-bit Linux) and outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A numeric field of `/proc/self/status` (`VmHWM` in kB, `Threads`).
pub fn proc_status(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':').map(str::to_string))
        })
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// A scratch directory for durable logs, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(path: PathBuf) -> Result<Self, String> {
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------------
// The ledger
// ---------------------------------------------------------------------------

/// Device and sequence ride in `data[0]` and `data[1]` divided by 2^16:
/// exact in f64, and small enough that the models see ordinary values.
const STAMP_SCALE: f64 = 65_536.0;

fn checksum(data: &[f64]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One scheduled message.
#[derive(Clone, Default)]
struct Slot {
    /// When the message was due: on the device's own schedule (open loop) or
    /// when its window slot opened (closed loop).
    due_ns: u64,
    /// How long after `due_ns` the produce closure was called.
    late_ns: u64,
    gen_ns: u64,
    checksum: u64,
    /// First return of `process_cloud` for this payload; 0 = not delivered.
    done_ns: u64,
    step_ns: [u64; 3],
}

#[derive(Default)]
struct DeviceState {
    first_call_ns: u64,
    /// Gate results waiting for `produced`.
    pending_due_ns: u64,
    pending_late_ns: u64,
    outstanding: usize,
    slots: Vec<Slot>,
}

#[derive(Default)]
struct DeviceLog {
    state: Mutex<DeviceState>,
    window_open: Condvar,
}

/// What the benchmark's closures record, and the schedule they follow.
pub struct Ledger {
    epoch: Instant,
    /// Nanoseconds between a device's messages; 0 = unthrottled.
    interval_ns: u64,
    /// Messages per device.
    per_device: u64,
    /// In-flight limit per device; 0 = none.
    window: usize,
    /// The `--seconds` the counts were sized for; only the give-up deadlines
    /// below derive from it.
    measure_ns: u64,
    devices: Vec<DeviceLog>,
    first_produce_ns: AtomicU64,
    /// Where the timed part of the run starts: the first produce call, moved
    /// forward to the delivery that completes the warm-up share.
    timed_from: Mutex<Mark>,
    last_processed_ns: AtomicU64,
    /// Payloads that reached `process_cloud` with an unknown stamp or a
    /// checksum that does not match what was produced.
    corrupt: AtomicU64,
    /// What the closer (device index `devices.len()`) watches: measured
    /// streams still open, messages scheduled, messages delivered, and its
    /// own filler count.
    streams_open: AtomicUsize,
    scheduled: AtomicU64,
    delivered: AtomicU64,
    closer_sent: AtomicU64,
}

/// The first tenth of a run is warm-up: its messages are sent, checked and
/// counted in the throughput, but their latency and the CPU time spent until
/// the last of them is delivered are not in the figures. On this machine the
/// first second of a pipeline costs about twice the CPU per message of the
/// rest (page faults, growing buffers, cold caches).
const WARMUP_SHARE: u64 = 10;

/// Process counters at the start of the timed part of a run.
#[derive(Clone, Copy, Default)]
struct Mark {
    delivered: u64,
    cpu_ns: u64,
    storage_cpu_ns: u64,
}

impl Mark {
    fn now(delivered: u64) -> Self {
        Self {
            delivered,
            cpu_ns: process_cpu_ns(),
            storage_cpu_ns: adapter::storage_cpu_ns(),
        }
    }
}

/// How long past the end of the schedule the closer waits for stragglers
/// before it lets the run end with messages missing.
const CLOSER_GRACE_NS: u64 = 10_000_000_000;

/// A closed-loop producer still waiting for a window slot after this many
/// times the nominal run length ends its stream; what it did not send is
/// missing from nothing, and what was sent but never came back is reported
/// as failed.
const STALLED_AFTER_RUNS: u64 = 4;

impl Ledger {
    pub fn new(
        devices: usize,
        rate: f64,
        per_device: u64,
        window: usize,
        measure: Duration,
    ) -> Self {
        Self {
            epoch: Instant::now(),
            interval_ns: if rate > 0.0 { (1e9 / rate) as u64 } else { 0 },
            per_device,
            window,
            measure_ns: measure.as_nanos() as u64,
            devices: (0..devices).map(|_| DeviceLog::default()).collect(),
            first_produce_ns: AtomicU64::new(u64::MAX),
            timed_from: Mutex::new(Mark::default()),
            last_processed_ns: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            streams_open: AtomicUsize::new(devices),
            scheduled: AtomicU64::new(0),
            delivered: AtomicU64::new(0),
            closer_sent: AtomicU64::new(0),
        }
    }

    /// A ledger whose streams end at once: what a start-only pass binds.
    pub fn empty(devices: usize) -> Self {
        Self::new(devices, 0.0, 0, 0, Duration::ZERO)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn mark_timed_from(&self, delivered: u64) {
        *self
            .timed_from
            .lock()
            .expect("a benchmark closure panicked while marking the run") = Mark::now(delivered);
    }

    /// Messages per device that are warm-up.
    fn warmup_per_device(&self) -> u64 {
        self.per_device / WARMUP_SHARE
    }

    fn lock(&self, device: usize) -> std::sync::MutexGuard<'_, DeviceState> {
        self.devices[device]
            .state
            .lock()
            .expect("a benchmark closure panicked while holding a device log")
    }

    /// Forget that `(device, seq)` was delivered — what a lost message looks
    /// like to the accounting.
    #[cfg(test)]
    pub fn forget_delivery(&self, device: usize, seq: usize) {
        self.lock(device).slots[seq].done_ns = 0;
    }
}

impl Ledger {
    /// The closer's gate: keep the unmeasured stream open (one filler per
    /// tick of the schedule) until every measured stream has ended and every
    /// scheduled message is delivered.
    fn closer_next(&self, called: u64) -> Option<u64> {
        // SeqCst: these three decide control flow across threads.
        let settled = self.streams_open.load(Ordering::SeqCst) == 0
            && self.delivered.load(Ordering::SeqCst) == self.scheduled.load(Ordering::SeqCst);
        let give_up = self
            .first_produce_ns
            .load(Ordering::Relaxed)
            .saturating_add(self.measure_ns + CLOSER_GRACE_NS);
        if settled || called > give_up {
            None
        } else {
            Some(self.closer_sent.fetch_add(1, Ordering::Relaxed))
        }
    }

    /// A measured device's gate; `None` ends its stream.
    fn device_next(&self, device: usize, called: u64) -> Option<u64> {
        let stalled_ns = self
            .first_produce_ns
            .load(Ordering::Relaxed)
            .saturating_add(self.measure_ns * STALLED_AFTER_RUNS + CLOSER_GRACE_NS);
        let mut st = self.lock(device);
        let seq = st.slots.len() as u64;
        if seq >= self.per_device {
            return None;
        }
        if seq == 0 {
            st.first_call_ns = called;
        }
        if self.window == 0 {
            st.pending_due_ns = st.first_call_ns + seq * self.interval_ns;
            st.pending_late_ns = called.saturating_sub(st.pending_due_ns);
            return Some(seq);
        }
        // Closed loop: wait for a window slot. The bounded wait re-reads the
        // clock, so a dead consumer cannot park a producer for ever.
        loop {
            if self.now_ns() >= stalled_ns {
                return None;
            }
            if st.outstanding < self.window {
                break;
            }
            st = self.devices[device]
                .window_open
                .wait_timeout(st, Duration::from_millis(20))
                .expect("a benchmark closure panicked while holding a device log")
                .0;
        }
        st.outstanding += 1;
        st.pending_due_ns = self.now_ns();
        st.pending_late_ns = 0;
        Some(seq)
    }
}

impl Hooks for Ledger {
    fn next_seq(&self, device: usize) -> Option<u64> {
        let called = self.now_ns();
        if self.per_device == 0 {
            return None;
        }
        // Relaxed: the first-produce instant is a statistic; nothing is
        // published through it.
        if self.first_produce_ns.load(Ordering::Relaxed) == u64::MAX
            && self
                .first_produce_ns
                .compare_exchange(u64::MAX, called, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.mark_timed_from(0);
        }
        if device == self.devices.len() {
            return self.closer_next(called);
        }
        let seq = self.device_next(device, called);
        if seq.is_none() {
            self.streams_open.fetch_sub(1, Ordering::SeqCst);
        }
        seq
    }

    fn produced(&self, device: usize, seq: u64, data: &mut [f64], gen_ns: u64) {
        data[0] = device as f64 / STAMP_SCALE;
        data[1] = seq as f64 / STAMP_SCALE;
        if device == self.devices.len() {
            return;
        }
        self.scheduled.fetch_add(1, Ordering::SeqCst);
        let mut st = self.lock(device);
        debug_assert_eq!(st.slots.len() as u64, seq);
        let slot = Slot {
            due_ns: st.pending_due_ns,
            late_ns: st.pending_late_ns,
            gen_ns,
            checksum: checksum(data),
            ..Slot::default()
        };
        st.slots.push(slot);
    }

    fn processed(&self, data: &[f64], step_ns: &[u64]) {
        let (device, seq) = (data[0] * STAMP_SCALE, data[1] * STAMP_SCALE);
        let known = device.fract() == 0.0
            && seq.fract() == 0.0
            && (0.0..=self.devices.len() as f64).contains(&device)
            && seq >= 0.0;
        if !known {
            self.corrupt.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if device as usize == self.devices.len() {
            // The closer's filler: processed like any message, not measured.
            return;
        }
        let sum = checksum(data);
        let now = self.now_ns();
        let mut delivered = 0;
        let mut st = self.lock(device as usize);
        match st.slots.get_mut(seq as usize) {
            Some(slot) if slot.checksum == sum => {
                // At-least-once: a redelivery keeps the first return.
                if slot.done_ns == 0 {
                    slot.done_ns = now.max(1);
                    for (dst, src) in slot.step_ns.iter_mut().zip(step_ns) {
                        *dst = *src;
                    }
                    st.outstanding = st.outstanding.saturating_sub(1);
                    self.devices[device as usize].window_open.notify_one();
                    delivered = self.delivered.fetch_add(1, Ordering::SeqCst) + 1;
                }
            }
            _ => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(st);
        // Exactly one first delivery completes the warm-up share (none in a
        // run too short to have one: `delivered` is 0 for anything else).
        if delivered != 0 && delivered == self.warmup_per_device() * self.devices.len() as u64 {
            self.mark_timed_from(delivered);
        }
        self.last_processed_ns.fetch_max(now, Ordering::Relaxed);
    }
}

/// What the ledger adds up to once the run is over.
pub struct Tally {
    pub attempted: u64,
    pub delivered: u64,
    /// Scheduled messages never delivered with a matching checksum.
    pub undelivered: u64,
    /// Payloads that arrived with an unknown stamp or a wrong checksum.
    pub corrupt: u64,
    /// First produce → last `process_cloud` return, seconds.
    pub span_s: f64,
    pub latency_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    pub gen_us: Vec<f64>,
    pub step_us: [Vec<f64>; 3],
}

impl Ledger {
    pub fn tally(&self) -> Tally {
        let mut t = Tally {
            attempted: 0,
            delivered: 0,
            undelivered: 0,
            corrupt: self.corrupt.load(Ordering::Relaxed),
            span_s: 0.0,
            latency_ms: Vec::new(),
            lateness_ms: Vec::new(),
            gen_us: Vec::new(),
            step_us: Default::default(),
        };
        let warmup = self.warmup_per_device() as usize;
        for device in 0..self.devices.len() {
            for (seq, slot) in self.lock(device).slots.iter().enumerate() {
                t.attempted += 1;
                if slot.done_ns == 0 {
                    t.undelivered += 1;
                    continue;
                }
                t.delivered += 1;
                if seq >= warmup {
                    t.latency_ms
                        .push(slot.done_ns.saturating_sub(slot.due_ns) as f64 / 1e6);
                    t.lateness_ms.push(slot.late_ns as f64 / 1e6);
                }
                t.gen_us.push(slot.gen_ns as f64 / 1e3);
                for (dst, ns) in t.step_us.iter_mut().zip(slot.step_ns) {
                    dst.push(ns as f64 / 1e3);
                }
            }
        }
        let first = self.first_produce_ns.load(Ordering::Relaxed);
        let last = self.last_processed_ns.load(Ordering::Relaxed);
        if first != u64::MAX && last > first {
            t.span_s = (last - first) as f64 / 1e9;
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Running a workload
// ---------------------------------------------------------------------------

/// The end-to-end figures of one measured pass, plus what the layer ladder
/// needs from it.
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub setup_s: Vec<f64>,
    pub throughput_msgs_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    /// Printed for information only: one scheduling stall moves it.
    pub latency_p99_ms: f64,
    pub latency_samples: usize,
    pub cpu_us_per_msg: f64,
    /// CPU of the durable log's flusher threads, which `cpu_us_per_msg`
    /// leaves out.
    pub storage_cpu_us_per_msg: f64,
    pub drain_ms: f64,
    pub lateness_p99_ms: f64,
    pub gen_us: f64,
    pub step_us: [f64; 3],
    /// Achieved ÷ offered rate (1.0 on closed-loop workloads).
    pub offered_frac: f64,
    /// Wall seconds the counts below were accumulated over.
    pub span_s: f64,
    pub delivered: u64,
    pub counts: LayerCounts,
    pub threads_peak: f64,
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile of an ascending sample, 0 when there is none.
fn pct(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        percentile(sorted, pct)
    }
}

/// Samples `Threads:` of this process until dropped.
struct ThreadSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicUsize>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ThreadSampler {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicUsize::new(0));
        let (stop2, peak2) = (Arc::clone(&stop), Arc::clone(&peak));
        let handle = std::thread::spawn(move || {
            // SeqCst pairs with the store in `finish`.
            while !stop2.load(Ordering::SeqCst) {
                peak2.fetch_max(proc_status("Threads") as usize, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        Self {
            stop,
            peak,
            handle: Some(handle),
        }
    }

    fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            h.join().expect("thread sampler panicked");
        }
        self.peak.load(Ordering::Relaxed) as f64
    }
}

fn setup_only(w: &PipelineWorkload, seed: u64, log_dir: &Path) -> Result<f64, String> {
    let t0 = Instant::now();
    let live = adapter::start_pipeline(
        &w.system_spec(),
        seed,
        Arc::new(Ledger::empty(w.spec.devices)),
        false,
        Some(log_dir),
    )?;
    let setup = t0.elapsed().as_secs_f64();
    live.finish(Duration::from_secs(30))?;
    Ok(setup)
}

/// One measured pass of a pipeline workload: the start-only passes, then
/// `msgs_per_device_s × seconds` messages per device and the drain.
pub fn run_pipeline(
    w: &PipelineWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_repeats: usize,
    scratch: &Path,
) -> Result<(Measured, Arc<Ledger>), String> {
    // Half of the start-only passes run before the measured pass and half
    // after it, so one slow spell of the machine cannot colour them all.
    let mut setup_s = Vec::new();
    for i in 0..setup_repeats / 2 {
        setup_s.push(setup_only(w, seed, &scratch.join(format!("setup-{i}")))?);
    }
    let per_device = (w.msgs_per_device_s * seconds).round().max(1.0) as u64;
    let ledger = Arc::new(Ledger::new(
        w.spec.devices,
        w.spec.rate_per_device,
        per_device,
        w.window,
        Duration::from_secs_f64(seconds),
    ));
    let sampler = trace.then(ThreadSampler::start);
    let t0 = Instant::now();
    let hooks: Arc<dyn Hooks> = ledger.clone();
    let live = adapter::start_pipeline(
        &w.system_spec(),
        seed,
        hooks,
        trace,
        Some(&scratch.join("run")),
    )?;
    setup_s.push(t0.elapsed().as_secs_f64());
    let counts = live.finish(Duration::from_secs_f64(seconds * 3.0 + 30.0))?;
    let waited_ns = ledger.now_ns();
    let cpu_end = process_cpu_ns();
    let threads_peak = sampler.map_or(0.0, ThreadSampler::finish);
    for i in setup_repeats / 2..setup_repeats {
        setup_s.push(setup_only(w, seed, &scratch.join(format!("setup-{i}")))?);
    }

    let mut t = ledger.tally();
    // CPU of the timed part, without the durable log's flusher threads: what
    // they burn is kernel time in the host's storage stack (positioned
    // writes and fdatasync), which on a shared machine swings threefold
    // between runs of the same code. It is a layer metric instead.
    let from = *ledger.timed_from.lock().expect("run mark");
    let storage_cpu_ns = counts.storage_cpu_ns.saturating_sub(from.storage_cpu_ns);
    let cpu_ns = cpu_end
        .saturating_sub(from.cpu_ns)
        .saturating_sub(storage_cpu_ns);
    let timed = t.delivered.saturating_sub(from.delivered).max(1) as f64;
    let throughput = if t.span_s > 0.0 {
        t.delivered as f64 / t.span_s
    } else {
        0.0
    };
    let offered = w.spec.rate_per_device * w.spec.devices as f64;
    let latency = sorted(t.latency_ms);
    let failed = t.undelivered + t.corrupt + counts.errors;
    if failed > 0 {
        eprintln!(
            "benchmark: {} undelivered, {} corrupt, {} errors reported by the system",
            t.undelivered, t.corrupt, counts.errors
        );
    }
    // The system's own report must have seen every measured message. It may
    // count more: the closer's fillers, and the model processors key their
    // ParamServer span on the per-device sequence alone (README, "Findings").
    let reported_ok = counts.reported_messages >= t.attempted;
    if !reported_ok {
        eprintln!(
            "benchmark: the system reported {} messages end to end, the ledger scheduled {}",
            counts.reported_messages, t.attempted
        );
    }
    let m = Measured {
        attempted: t.attempted,
        failed,
        correct: failed == 0 && t.attempted > 0 && reported_ok,
        setup_s,
        throughput_msgs_s: throughput,
        latency_p50_ms: pct(&latency, 50.0),
        latency_p95_ms: pct(&latency, 95.0),
        latency_p99_ms: pct(&latency, 99.0),
        latency_samples: latency.len(),
        cpu_us_per_msg: cpu_ns as f64 / 1e3 / timed,
        storage_cpu_us_per_msg: storage_cpu_ns as f64 / 1e3 / timed,
        drain_ms: waited_ns.saturating_sub(ledger.last_processed_ns.load(Ordering::Relaxed)) as f64
            / 1e6,
        lateness_p99_ms: pct(&sorted(t.lateness_ms), 99.0),
        gen_us: median(&mut t.gen_us),
        step_us: [0, 1, 2].map(|i| median(&mut t.step_us[i])),
        offered_frac: if offered > 0.0 {
            throughput / offered
        } else {
            1.0
        },
        span_s: t.span_s,
        delivered: t.delivered,
        counts,
        threads_peak,
    };
    Ok((m, ledger))
}

/// Back-to-back federation repetitions for about `seconds`. Every message of
/// a repetition is due when `federation::start` is entered (an unthrottled
/// burst), so latency is burst-to-processed time and cannot read a faster
/// producer as a regression.
pub fn run_federation(
    spec: &FederationSpec,
    seed: u64,
    seconds: f64,
    trace: bool,
    min_repeats: usize,
) -> Result<Measured, String> {
    let sampler = trace.then(ThreadSampler::start);
    let run_start = Instant::now();
    let (mut setup_s, mut throughput) = (vec![], vec![]);
    let (mut p50, mut p95, mut p99) = (vec![], vec![], vec![]);
    let (mut attempted, mut failed, mut delivered) = (0u64, 0u64, 0u64);
    let (mut cpu_ns, mut span_s, mut drain_ms) = (0u64, 0.0, vec![]);
    let mut counts = LayerCounts::default();
    let mut samples = 0;
    let mut correct = true;
    let mut rep = 0u64;
    loop {
        let expected = spec.messages();
        let done_ns: Arc<Vec<AtomicU64>> =
            Arc::new((0..expected).map(|_| AtomicU64::new(0)).collect());
        let next = Arc::new(AtomicUsize::new(0));
        let t0 = Instant::now();
        let cpu0 = process_cpu_ns();
        let (done2, next2) = (Arc::clone(&done_ns), Arc::clone(&next));
        let live = adapter::start_federation(
            spec,
            seed + rep,
            Arc::new(move || {
                // Relaxed: slots are read only after `finish` joined every
                // reactor thread.
                let i = next2.fetch_add(1, Ordering::Relaxed);
                if let Some(slot) = done2.get(i) {
                    slot.store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
            }),
        )?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let out = live.finish(Duration::from_secs(120))?;
        let waited = t0.elapsed();
        cpu_ns += process_cpu_ns().saturating_sub(cpu0);

        let lat = sorted(
            done_ns
                .iter()
                .map(|d| d.load(Ordering::Relaxed) as f64 / 1e6)
                .filter(|ms| *ms > 0.0)
                .collect(),
        );
        let seen = next.load(Ordering::Relaxed) as u64;
        attempted += expected;
        delivered += out.processed.min(expected);
        failed += expected.saturating_sub(out.processed.min(seen));
        // FedAvg sample conservation: every generated point is in the final
        // global model exactly once.
        correct &= out.processed == expected
            && seen == expected
            && out.global_samples == (expected * spec.points as u64) as f64;
        if let Some(last) = lat.last() {
            throughput.push(lat.len() as f64 / (last / 1e3));
            p50.push(percentile(&lat, 50.0));
            p95.push(percentile(&lat, 95.0));
            p99.push(percentile(&lat, 99.0));
            span_s += last / 1e3;
            drain_ms.push(waited.as_secs_f64() * 1e3 - last);
            samples += lat.len();
        }
        let c = out.counts;
        counts.param_puts += c.param_puts;
        counts.param_gets += c.param_gets;
        counts.reactor_polls += c.reactor_polls;
        counts.reported_messages += c.reported_messages;
        rep += 1;
        let per_rep = run_start.elapsed().as_secs_f64() / rep as f64;
        if rep as usize >= min_repeats && run_start.elapsed().as_secs_f64() + per_rep > seconds {
            break;
        }
    }
    Ok(Measured {
        attempted,
        failed,
        correct: correct && failed == 0,
        setup_s,
        throughput_msgs_s: median(&mut throughput),
        latency_p50_ms: median(&mut p50),
        latency_p95_ms: median(&mut p95),
        latency_p99_ms: median(&mut p99),
        latency_samples: samples,
        cpu_us_per_msg: cpu_ns as f64 / 1e3 / delivered.max(1) as f64,
        storage_cpu_us_per_msg: 0.0,
        drain_ms: median(&mut drain_ms),
        lateness_p99_ms: 0.0,
        gen_us: 0.0,
        step_us: [0.0; 3],
        offered_frac: 1.0,
        span_s,
        delivered,
        counts,
        threads_peak: sampler.map_or(0.0, ThreadSampler::finish),
    })
}

/// Run `name` once as the driver asks: `seconds` of measurement.
pub fn measure(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &Path,
) -> Result<Measured, String> {
    match w {
        Workload::Pipeline(p) => {
            run_pipeline(p, seed, seconds, trace, SETUP_REPEATS, scratch).map(|(m, _)| m)
        }
        Workload::Federation(spec) => run_federation(spec, seed, seconds, trace, 3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> ScratchDir {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{tag}-{}", std::process::id()));
        ScratchDir::create(dir).expect("scratch dir")
    }

    /// The four workloads at about 1/50 scale: correctness checks pass and
    /// nothing fails.
    #[test]
    fn quick_smoke_of_all_workloads() {
        for name in WORKLOADS {
            let dir = scratch(name);
            let m = match workload(name).expect("known workload") {
                Workload::Pipeline(p) => {
                    run_pipeline(&p, 42, 0.4, false, 1, dir.path())
                        .expect(name)
                        .0
                }
                Workload::Federation(mut spec) => {
                    spec.cells = 8;
                    spec.regions = 2;
                    spec.messages_per_device = 16;
                    run_federation(&spec, 42, 0.0, false, 2).expect(name)
                }
            };
            assert!(m.correct, "{name}: correctness check failed");
            assert_eq!(m.failed, 0, "{name}");
            assert!(m.attempted > 0 && m.delivered == m.attempted, "{name}");
            assert!(
                m.throughput_msgs_s > 0.0 && m.cpu_us_per_msg > 0.0,
                "{name}"
            );
            assert!(
                m.latency_p95_ms >= m.latency_p50_ms && m.latency_p50_ms > 0.0,
                "{name}"
            );
            assert!(m.setup_s.iter().all(|s| *s > 0.0), "{name}");
        }
    }

    /// A message that never reaches `process_cloud` shows up in `failed`.
    #[test]
    fn a_dropped_message_is_counted_as_failed() {
        let dir = scratch("drop");
        let Some(Workload::Pipeline(p)) = workload("wan-durable-paced") else {
            panic!("wan-durable-paced is a pipeline workload");
        };
        let (m, ledger) = run_pipeline(&p, 7, 0.3, false, 0, dir.path()).expect("run");
        assert_eq!(m.failed, 0);
        ledger.forget_delivery(1, 3);
        let t = ledger.tally();
        assert_eq!((t.undelivered, t.corrupt), (1, 0));
        assert_eq!(t.delivered + 1, t.attempted);
    }

    /// A payload altered in flight fails its checksum and is counted.
    #[test]
    fn a_corrupted_payload_is_counted_as_failed() {
        let ledger = Ledger::new(1, 10.0, 4, 0, Duration::from_secs(1));
        let mut data = vec![0.25; 64];
        let seq = ledger.next_seq(0).expect("first message");
        ledger.produced(0, seq, &mut data, 0);
        data[5] += 1.0;
        ledger.processed(&data, &[]);
        let t = ledger.tally();
        assert_eq!(
            (t.attempted, t.delivered, t.undelivered, t.corrupt),
            (1, 0, 1, 1)
        );
    }

    /// The first tenth of the messages is warm-up: delivered and counted, but
    /// the timed part starts at the delivery that completes it.
    #[test]
    fn warm_up_is_delivered_but_not_timed() {
        let ledger = Ledger::new(2, 1000.0, 20, 0, Duration::from_secs(1));
        let mut data = vec![0.5; 8];
        for n in 0..40 {
            let device = n % 2;
            let seq = ledger.next_seq(device).expect("scheduled");
            ledger.produced(device, seq, &mut data, 0);
            ledger.processed(&data, &[]);
            let from = ledger.timed_from.lock().unwrap().delivered;
            assert_eq!(from, if n < 3 { 0 } else { 4 }, "after delivery {n}");
        }
        let t = ledger.tally();
        assert_eq!((t.attempted, t.delivered, t.latency_ms.len()), (40, 40, 36));
    }

    #[test]
    fn process_counters_read() {
        assert!(process_cpu_ns() > 0);
        assert!(proc_status("VmHWM") > 0.0);
        assert!(proc_status("Threads") >= 1.0);
    }
}
