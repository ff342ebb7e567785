//! The live telemetry plane: gauges, the sampler, and the online
//! bottleneck attributor.
//!
//! The paper's "step 3" monitoring service captures *linked*
//! producer→broker→processor measurements keyed by job id precisely so
//! that "bottlenecks are identifiable per component" — but span records
//! alone are post-hoc: they tell you where time went only after the run.
//! This module adds the *online* half:
//!
//! * [`Gauge`] — a lock-free instantaneous level (queue depth, in-flight
//!   bytes, occupancy), registered under a stable name in the
//!   [`MetricsRegistry`](crate::MetricsRegistry) so samplers and
//!   dashboards can enumerate them without knowing the producer.
//! * [`TelemetrySampler`] — a background thread that runs optional
//!   *probes* (callbacks that refresh pull-style gauges, e.g. consumer
//!   lag read from the broker) and snapshots every registered gauge into
//!   a bounded ring of [`TelemetryFrame`]s, retrievable mid-run.
//! * [`attribute`] — the online bottleneck attributor: folds the span
//!   stream into per-window per-component busy time and the
//!   critical-path share over the linked per-message span chains, naming
//!   the dominant component — the paper's bottleneck-identification
//!   claim, made executable.

use crate::span::{Component, Span};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A lock-free instantaneous level: queue depth, in-flight bytes,
/// occupancy. Unlike a [`Counter`](crate::Counter) (monotonic), a gauge
/// goes up *and* down; `Relaxed` ordering because gauges are statistics,
/// not synchronisation.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Create a gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` (may be negative) to the level.
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n` from the level.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Decrement by one.
    #[inline]
    pub fn decr(&self) {
        self.sub(1);
    }

    /// Overwrite the level (for pull-style gauges refreshed by a probe).
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// One sampler snapshot: every registered gauge's level at `t_us`
/// (microseconds since the registry's clock epoch). Gauge names are
/// shared `Arc<str>`s, so a long frame history does not re-allocate the
/// inventory per frame.
#[derive(Debug, Clone)]
pub struct TelemetryFrame {
    /// Snapshot time, µs since the registry clock epoch.
    pub t_us: u64,
    /// `(gauge name, level)` in registration order — stable across the
    /// frames of one run.
    pub values: Vec<(Arc<str>, i64)>,
}

impl TelemetryFrame {
    /// Level of the named gauge in this frame, if registered.
    pub fn value(&self, name: &str) -> Option<i64> {
        self.values
            .iter()
            .find(|(n, _)| &**n == name)
            .map(|(_, v)| *v)
    }

    /// Render the frame as a JSON object:
    /// `{"t_us":N,"values":{"gauge.name":level,...}}` (gauge names escaped
    /// per RFC 8259). The gateway's `/telemetry/frames` and SSE stream
    /// both emit this shape.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 + self.values.len() * 24);
        out.push_str("{\"t_us\":");
        out.push_str(&self.t_us.to_string());
        out.push_str(",\"values\":{");
        for (i, (name, value)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::json::push_json_string(&mut out, name);
            out.push(':');
            out.push_str(&value.to_string());
        }
        out.push_str("}}");
        out
    }
}

/// Render a slice of frames as a JSON array of [`TelemetryFrame::to_json`]
/// objects.
pub fn frames_json(frames: &[TelemetryFrame]) -> String {
    let mut out = String::with_capacity(2 + frames.len() * 64);
    out.push('[');
    for (i, frame) in frames.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&frame.to_json());
    }
    out.push(']');
    out
}

/// A callback run by the sampler before each snapshot — refreshes
/// pull-style gauges (consumer lag, link horizon, pool occupancy) that
/// no event-driven code path updates.
pub type Probe = Box<dyn Fn() + Send>;

struct SamplerShared {
    frames: Mutex<VecDeque<TelemetryFrame>>,
    stop: AtomicBool,
    wake: Mutex<()>,
    wake_cv: Condvar,
}

/// The telemetry sampler: a background thread snapshotting every gauge of
/// a [`MetricsRegistry`](crate::MetricsRegistry) into a bounded frame
/// ring. Opt-in — when no sampler runs, gauges cost nothing beyond the
/// atomic updates of whoever feeds them (and nothing at all when no gauge
/// is registered).
pub struct TelemetrySampler {
    shared: Arc<SamplerShared>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl TelemetrySampler {
    /// Default frame-ring capacity: at a 10 ms sample interval this holds
    /// the most recent ~82 s of telemetry.
    pub const DEFAULT_CAPACITY: usize = 8192;

    /// Spawn a sampler over `registry`'s gauges, snapshotting every
    /// `interval` into a ring of at most `capacity` frames (oldest frames
    /// are dropped first). `probes` run before each snapshot.
    pub fn spawn(
        registry: crate::MetricsRegistry,
        interval: Duration,
        capacity: usize,
        probes: Vec<Probe>,
    ) -> Self {
        let shared = Arc::new(SamplerShared {
            frames: Mutex::new(VecDeque::new()),
            stop: AtomicBool::new(false),
            wake: Mutex::new(()),
            wake_cv: Condvar::new(),
        });
        let shared2 = Arc::clone(&shared);
        let capacity = capacity.max(1);
        let thread = std::thread::Builder::new()
            .name("pilot-telemetry".into())
            .spawn(move || {
                loop {
                    if shared2.stop.load(Ordering::Acquire) {
                        break;
                    }
                    sample_once(&registry, &probes, &shared2.frames, capacity);
                    let mut guard = shared2.wake.lock();
                    if shared2.stop.load(Ordering::Acquire) {
                        break;
                    }
                    shared2.wake_cv.wait_for(&mut guard, interval);
                }
                // One final probe + snapshot so the frame history (and the
                // pull-style gauges) reflect the drained end state.
                sample_once(&registry, &probes, &shared2.frames, capacity);
            })
            .expect("spawn telemetry sampler");
        Self {
            shared,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// All frames captured so far, oldest first. Callable mid-run.
    pub fn frames(&self) -> Vec<TelemetryFrame> {
        self.shared.frames.lock().iter().cloned().collect()
    }

    /// The frames stamped strictly after `t_us`, oldest first: a reader
    /// that remembers the last frame it saw copies only what is new, not
    /// the ring.
    pub fn frames_since(&self, t_us: u64) -> Vec<TelemetryFrame> {
        let frames = self.shared.frames.lock();
        let first = frames.partition_point(|f| f.t_us <= t_us);
        frames.range(first..).cloned().collect()
    }

    /// The most recent frame, if any.
    pub fn latest(&self) -> Option<TelemetryFrame> {
        self.shared.frames.lock().back().cloned()
    }

    /// Number of frames currently held.
    pub fn frame_count(&self) -> usize {
        self.shared.frames.lock().len()
    }

    /// Stop the sampler thread and join it (idempotent). The thread takes
    /// one final probe + snapshot on its way out, so post-drain gauge
    /// levels are visible in the last frame.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::Release);
        {
            let _guard = self.shared.wake.lock();
            self.shared.wake_cv.notify_all();
        }
        if let Some(t) = self.thread.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for TelemetrySampler {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for TelemetrySampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetrySampler")
            .field("frames", &self.frame_count())
            .finish()
    }
}

fn sample_once(
    registry: &crate::MetricsRegistry,
    probes: &[Probe],
    frames: &Mutex<VecDeque<TelemetryFrame>>,
    capacity: usize,
) {
    for probe in probes {
        probe();
    }
    let frame = TelemetryFrame {
        t_us: registry.now_us(),
        values: registry
            .gauges()
            .into_iter()
            .map(|(name, g)| (name, g.get()))
            .collect(),
    };
    let mut guard = frames.lock();
    if guard.len() >= capacity {
        guard.pop_front();
    }
    guard.push_back(frame);
}

// ---------------------------------------------------------------------------
// Online bottleneck attribution
// ---------------------------------------------------------------------------

/// Per-component busy time within one attribution window.
#[derive(Debug, Clone)]
pub struct WindowAttribution {
    /// Window start, µs since the clock epoch.
    pub start_us: u64,
    /// Busy microseconds per component within the window (span durations
    /// clipped to the window), descending.
    pub busy_us: Vec<(Component, u64)>,
}

impl WindowAttribution {
    /// The component with the most busy time in this window.
    pub fn dominant(&self) -> Option<&Component> {
        self.busy_us.first().map(|(c, _)| c)
    }

    /// Busy-time share of `component` within the window (0 when the
    /// window is empty).
    pub fn utilization(&self, component: &Component, window_us: u64) -> f64 {
        if window_us == 0 {
            return 0.0;
        }
        self.busy_us
            .iter()
            .find(|(c, _)| c == component)
            .map(|(_, b)| *b as f64 / window_us as f64)
            .unwrap_or(0.0)
    }
}

/// The attributor's verdict over a span stream: windowed busy time and
/// the critical-path share of each component over the linked per-message
/// chains.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Window width used, µs.
    pub window_us: u64,
    /// Consecutive windows from the first to the last span.
    pub windows: Vec<WindowAttribution>,
    /// Share of the summed per-message chain time spent in each
    /// component, descending. Because the chain of one message is
    /// sequential (produce → link → broker → link → process), this is the
    /// critical-path decomposition of the pipeline.
    pub critical_path: Vec<(Component, f64)>,
}

impl Attribution {
    /// The component dominating the critical path — the pipeline's
    /// bottleneck verdict.
    pub fn dominant(&self) -> Option<&Component> {
        self.critical_path.first().map(|(c, _)| c)
    }

    /// Render a compact per-component table (share of chain time).
    pub fn to_table(&self) -> String {
        let mut out = String::from("component,critical_path_share\n");
        for (c, share) in &self.critical_path {
            out.push_str(&format!("{},{:.4}\n", c.label(), share));
        }
        out
    }
}

/// Fold spans into an [`Attribution`]: busy time per component per
/// `window_us` window, and the critical-path share over the linked
/// `(job_id, msg_id)` chains. Error spans count toward busy time (a
/// component drowning in failures is busy) but windows and shares are
/// otherwise insensitive to span order.
pub fn attribute(spans: &[Span], window_us: u64) -> Attribution {
    assert!(window_us > 0, "attribution window must be > 0");
    if spans.is_empty() {
        return Attribution {
            window_us,
            windows: Vec::new(),
            critical_path: Vec::new(),
        };
    }
    // A span ending exactly on a window boundary belongs to the window it
    // ran in, not the next one — so the last window is derived from
    // `end_us - 1` (clamped for zero-length spans) and no empty trailing
    // window is emitted.
    let span_last = |s: &Span| s.end_us.saturating_sub(1).max(s.start_us);
    let first = spans.iter().map(|s| s.start_us).min().unwrap() / window_us;
    let last = spans.iter().map(span_last).max().unwrap() / window_us;
    let n = (last - first + 1) as usize;
    let mut windows: Vec<BTreeMap<Component, u64>> = vec![BTreeMap::new(); n];
    let mut chain_total: BTreeMap<Component, u64> = BTreeMap::new();
    for s in spans {
        // Critical-path accumulation: every span of a chain contributes
        // its full duration (chains are sequential per message).
        *chain_total.entry(s.component.clone()).or_insert(0) += s.duration_us();
        // Windowed busy time: clip the span to each window it overlaps.
        let wa = (s.start_us / window_us).max(first) - first;
        let wb = (span_last(s) / window_us).min(last) - first;
        for w in wa..=wb {
            let w_start = (first + w) * window_us;
            let w_end = w_start + window_us;
            let overlap = s.end_us.min(w_end).saturating_sub(s.start_us.max(w_start));
            if overlap > 0 || s.start_us == s.end_us {
                *windows[w as usize].entry(s.component.clone()).or_insert(0) += overlap;
            }
        }
    }
    let windows = windows
        .into_iter()
        .enumerate()
        .map(|(w, busy)| {
            let mut busy_us: Vec<(Component, u64)> = busy.into_iter().collect();
            busy_us.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            WindowAttribution {
                start_us: (first + w as u64) * window_us,
                busy_us,
            }
        })
        .collect();
    let total: u64 = chain_total.values().sum();
    let mut critical_path: Vec<(Component, f64)> = chain_total
        .into_iter()
        .map(|(c, b)| {
            (
                c,
                if total == 0 {
                    0.0
                } else {
                    b as f64 / total as f64
                },
            )
        })
        .collect();
    critical_path.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
    Attribution {
        window_us,
        windows,
        critical_path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    fn span(component: Component, start: u64, end: u64) -> Span {
        Span {
            job_id: 1,
            msg_id: start,
            component,
            start_us: start,
            end_us: end,
            bytes: 0,
            error: false,
        }
    }

    #[test]
    fn gauge_up_down_set() {
        let g = Gauge::new();
        g.add(5);
        g.decr();
        assert_eq!(g.get(), 4);
        g.sub(10);
        assert_eq!(g.get(), -6);
        g.set(0);
        assert_eq!(g.get(), 0);
    }

    #[test]
    fn registry_gauges_are_shared_and_ordered() {
        let reg = MetricsRegistry::new();
        let a = reg.gauge("b_second");
        let b = reg.gauge("a_first");
        assert!(Arc::ptr_eq(&a, &reg.gauge("b_second")));
        a.add(2);
        b.add(7);
        let snap = reg.gauges();
        // Registration order, not alphabetical.
        assert_eq!(&*snap[0].0, "b_second");
        assert_eq!(&*snap[1].0, "a_first");
        assert_eq!(reg.gauge_value("b_second"), Some(2));
        assert_eq!(reg.gauge_value("missing"), None);
        assert_eq!(reg.gauge_count(), 2);
    }

    #[test]
    fn sampler_captures_monotonic_frames_and_runs_probes() {
        let reg = MetricsRegistry::new();
        let depth = reg.gauge("queue_depth");
        let lag = reg.gauge("lag");
        depth.set(3);
        let lag2 = Arc::clone(&lag);
        let probe: Probe = Box::new(move || lag2.set(42));
        let sampler =
            TelemetrySampler::spawn(reg.clone(), Duration::from_millis(1), 64, vec![probe]);
        while sampler.frame_count() < 5 {
            std::thread::sleep(Duration::from_millis(1));
        }
        sampler.stop();
        let frames = sampler.frames();
        assert!(frames.len() >= 5);
        assert!(frames.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        assert!(frames.iter().all(|f| f.value("lag") == Some(42)));
        assert!(frames.iter().all(|f| f.value("queue_depth") == Some(3)));
    }

    #[test]
    fn sampler_ring_is_bounded() {
        let reg = MetricsRegistry::new();
        reg.gauge("g");
        let sampler = TelemetrySampler::spawn(reg, Duration::from_micros(100), 4, Vec::new());
        std::thread::sleep(Duration::from_millis(20));
        sampler.stop();
        assert!(sampler.frame_count() <= 4);
        let frames = sampler.frames();
        assert!(frames.windows(2).all(|w| w[0].t_us <= w[1].t_us));
    }

    #[test]
    fn frames_since_copies_only_newer_frames() {
        let reg = MetricsRegistry::new();
        reg.gauge("g");
        let sampler = TelemetrySampler::spawn(reg, Duration::from_micros(100), 64, Vec::new());
        while sampler.frame_count() < 8 {
            std::thread::sleep(Duration::from_millis(1));
        }
        sampler.stop();
        let ring = sampler.frames();
        let newer =
            |t: u64| -> Vec<u64> { ring.iter().map(|f| f.t_us).filter(|&f| f > t).collect() };
        let stamps =
            |frames: Vec<TelemetryFrame>| -> Vec<u64> { frames.iter().map(|f| f.t_us).collect() };
        let (mid, last) = (ring[ring.len() / 2].t_us, ring[ring.len() - 1].t_us);
        for t in [0, ring[0].t_us, mid, last - 1, last] {
            assert_eq!(stamps(sampler.frames_since(t)), newer(t), "since {t}");
        }
        assert!(sampler.frames_since(last).is_empty());
    }

    #[test]
    fn stop_is_idempotent_and_takes_final_frame() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("g");
        let sampler = TelemetrySampler::spawn(
            reg,
            Duration::from_secs(3600), // never ticks on its own again
            16,
            Vec::new(),
        );
        while sampler.frame_count() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        g.set(99);
        sampler.stop();
        sampler.stop();
        let last = sampler.latest().unwrap();
        assert_eq!(last.value("g"), Some(99), "final snapshot on stop");
    }

    #[test]
    fn attributor_names_the_skewed_component() {
        // 10 chains: producer 10 µs, network 900 µs, processor 90 µs.
        let mut spans = Vec::new();
        for m in 0..10u64 {
            let base = m * 1000;
            spans.push(Span {
                msg_id: m,
                ..span(Component::EdgeProducer, base, base + 10)
            });
            spans.push(Span {
                msg_id: m,
                ..span(Component::Network("wan".into()), base + 10, base + 910)
            });
            spans.push(Span {
                msg_id: m,
                ..span(Component::CloudProcessor, base + 910, base + 1000)
            });
        }
        let a = attribute(&spans, 1000);
        assert_eq!(a.dominant(), Some(&Component::Network("wan".into())));
        assert!(a.critical_path[0].1 > 0.8, "{:?}", a.critical_path);
        assert_eq!(a.windows.len(), 10);
        assert_eq!(
            a.windows[0].dominant(),
            Some(&Component::Network("wan".into()))
        );
        // Shares sum to 1.
        let sum: f64 = a.critical_path.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn attributor_busy_time_clips_to_windows() {
        // One 3-window span: busy time must split 500/1000/1000 with no
        // empty trailing window for the boundary-exact end.
        let spans = vec![span(Component::Broker, 500, 3000)];
        let a = attribute(&spans, 1000);
        assert_eq!(a.windows.len(), 3);
        let busy: Vec<u64> = a
            .windows
            .iter()
            .map(|w| w.busy_us.first().map(|(_, b)| *b).unwrap_or(0))
            .collect();
        assert_eq!(busy, vec![500, 1000, 1000]);
        assert!((a.windows[1].utilization(&Component::Broker, 1000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_spans_empty_attribution() {
        let a = attribute(&[], 1000);
        assert!(a.windows.is_empty());
        assert!(a.dominant().is_none());
    }

    #[test]
    fn to_table_lists_components() {
        let spans = vec![
            span(Component::Broker, 0, 100),
            span(Component::CloudProcessor, 100, 400),
        ];
        let table = attribute(&spans, 1000).to_table();
        assert!(table.starts_with("component,"));
        assert!(table.contains("cloud_processor,0.75"));
    }
}
