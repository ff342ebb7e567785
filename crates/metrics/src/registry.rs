//! The metrics registry: a sharded, thread-safe sink for spans and named
//! counters, sharing one clock epoch.

use crate::clock::Clock;
use crate::counter::Counter;
use crate::report::{PipelineReport, ReportBuilder};
use crate::span::{Component, JobId, MsgId, Span};
use crate::telemetry::Gauge;
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of span shards. Each recording thread is pinned to one shard
/// (round-robin assignment on first record), so the hot path takes an
/// uncontended lock instead of rotating every call through every shard.
/// Ordering within a shard is irrelevant because spans carry timestamps.
const SHARDS: usize = 64;

/// Spans reserved in a shard on its first push, so a 1M-span run grows each
/// shard O(log n) times instead of reallocating from 4 elements up.
const SHARD_RESERVE: usize = 4096;

thread_local! {
    /// This thread's shard index (assigned lazily from `next_shard`).
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// A thread-safe registry of spans and named counters.
///
/// Cloning an handle is cheap (`Arc` inside). All components of a pipeline
/// share one registry so their timestamps are comparable and their spans can
/// be joined by `(job_id, msg_id)`.
/// # Example
///
/// ```
/// use pilot_metrics::{Component, MetricsRegistry};
///
/// let registry = MetricsRegistry::new();
/// registry.for_job(1).record(1, Component::Broker, 0, 250, 1024);
/// let report = registry.report();
/// assert_eq!(report.component(&Component::Broker).unwrap().count, 1);
/// ```
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

struct Inner {
    clock: Clock,
    shards: Vec<Mutex<Vec<Span>>>,
    next_shard: AtomicUsize,
    counters: Mutex<HashMap<String, Arc<Counter>>>,
    gauges: Mutex<GaugeStore>,
}

/// Insertion-ordered gauge inventory: samplers and dashboards enumerate
/// gauges in registration order, so the columns of a frame series stay
/// stable across a run.
#[derive(Default)]
struct GaugeStore {
    by_name: HashMap<Arc<str>, usize>,
    ordered: Vec<(Arc<str>, Arc<Gauge>)>,
}

impl MetricsRegistry {
    /// Create an empty registry with a fresh clock epoch.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                clock: Clock::new(),
                shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
                next_shard: AtomicUsize::new(0),
                counters: Mutex::new(HashMap::new()),
                gauges: Mutex::new(GaugeStore::default()),
            }),
        }
    }

    /// The registry's shared clock.
    pub fn clock(&self) -> Clock {
        self.inner.clock
    }

    /// Microseconds since the registry epoch.
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.inner.clock.now_micros()
    }

    /// Record a fully-formed span (e.g. reconstructed from simulated time).
    pub fn record_span(&self, span: Span) {
        let shard = MY_SHARD.with(|s| {
            let mut idx = s.get();
            if idx == usize::MAX {
                idx = self.inner.next_shard.fetch_add(1, Ordering::Relaxed) % SHARDS;
                s.set(idx);
            }
            idx
        });
        let mut guard = self.inner.shards[shard].lock();
        if guard.is_empty() {
            guard.reserve(SHARD_RESERVE);
        }
        guard.push(span);
    }

    /// Convenience: record a span of known start/duration for `(job, msg)`.
    pub fn record(
        &self,
        job_id: JobId,
        msg_id: MsgId,
        component: Component,
        start_us: u64,
        end_us: u64,
        bytes: u64,
    ) {
        self.record_span(Span {
            job_id,
            msg_id,
            component,
            start_us,
            end_us,
            bytes,
            error: false,
        });
    }

    /// A [`JobSpans`] recorder pre-bound to one job — the span-chain helper
    /// pipeline stages use so every component span of a message is keyed by
    /// the same `(job_id, msg_id)` without threading the job id through
    /// every call site.
    pub fn for_job(&self, job_id: JobId) -> JobSpans<'_> {
        JobSpans {
            registry: self,
            job_id,
        }
    }

    /// Fetch (creating if absent) the named counter.
    ///
    /// The returned handle is cheap to clone and updates lock-free — hot
    /// paths should fetch it once and cache it rather than re-looking the
    /// name up per event. Lookup hits do not allocate.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut guard = self.inner.counters.lock();
        if let Some(c) = guard.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        guard.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// Current value of a named counter (0 if it does not exist).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .counters
            .lock()
            .get(name)
            .map(|c| c.get())
            .unwrap_or(0)
    }

    /// Snapshot the counter inventory `(name, handle)`, sorted by name.
    /// Counters live in a hash map (unlike the insertion-ordered gauges),
    /// so exporters get a deterministic enumeration by sorting here.
    pub fn counters(&self) -> Vec<(String, Arc<Counter>)> {
        let guard = self.inner.counters.lock();
        let mut out: Vec<(String, Arc<Counter>)> = guard
            .iter()
            .map(|(n, c)| (n.clone(), Arc::clone(c)))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Fetch (creating if absent) the named gauge.
    ///
    /// Like [`Self::counter`], the returned handle is cheap to clone and
    /// updates lock-free — hot paths fetch it once and cache it. Gauges
    /// are enumerated by the telemetry sampler in registration order.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut guard = self.inner.gauges.lock();
        if let Some(&idx) = guard.by_name.get(name) {
            return Arc::clone(&guard.ordered[idx].1);
        }
        let name: Arc<str> = Arc::from(name);
        let g = Arc::new(Gauge::new());
        let idx = guard.ordered.len();
        guard.by_name.insert(Arc::clone(&name), idx);
        guard.ordered.push((name, Arc::clone(&g)));
        g
    }

    /// Current level of a named gauge (`None` if it was never registered).
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        let guard = self.inner.gauges.lock();
        guard
            .by_name
            .get(name)
            .map(|&idx| guard.ordered[idx].1.get())
    }

    /// Snapshot the gauge inventory `(name, handle)` in registration order.
    pub fn gauges(&self) -> Vec<(Arc<str>, Arc<Gauge>)> {
        self.inner.gauges.lock().ordered.clone()
    }

    /// Number of registered gauges.
    pub fn gauge_count(&self) -> usize {
        self.inner.gauges.lock().ordered.len()
    }

    /// Snapshot all spans recorded so far (cloned, in no particular order).
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans_where(|_| true)
    }

    /// The spans recorded so far that satisfy `keep` (cloned, in no
    /// particular order). Each shard is filtered under its own lock, so a
    /// reader that wants one job or one recent window copies only that,
    /// not the whole store.
    pub fn spans_where(&self, keep: impl Fn(&Span) -> bool) -> Vec<Span> {
        let mut out = Vec::new();
        for shard in &self.inner.shards {
            out.extend(shard.lock().iter().filter(|s| keep(s)).cloned());
        }
        out
    }

    /// Total number of spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.inner.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Drop all recorded spans (counters are kept).
    pub fn clear(&self) {
        for shard in &self.inner.shards {
            shard.lock().clear();
        }
    }

    /// Remove and return all recorded spans (counters are kept).
    ///
    /// For callers that genuinely want to take ownership — e.g. archiving
    /// a finished run — without paying [`Self::snapshot`]'s clone.
    pub fn drain(&self) -> Vec<Span> {
        let mut out = Vec::new();
        for shard in &self.inner.shards {
            out.append(&mut shard.lock());
        }
        out
    }

    /// Aggregate everything recorded so far into a [`PipelineReport`].
    ///
    /// Spans are streamed out of the shards by reference — no clone of the
    /// span store is made, so this stays cheap at ~1M spans. Recorded spans
    /// are left in place (the report is non-destructive; see
    /// [`Self::drain`] to take them).
    pub fn report(&self) -> PipelineReport {
        self.build_report(|_| true)
    }

    /// Aggregate spans of a single job into a [`PipelineReport`].
    pub fn report_for_job(&self, job_id: JobId) -> PipelineReport {
        self.build_report(|s| s.job_id == job_id)
    }

    fn build_report(&self, keep: impl Fn(&Span) -> bool) -> PipelineReport {
        let mut builder = ReportBuilder::new();
        for shard in &self.inner.shards {
            for span in shard.lock().iter().filter(|s| keep(s)) {
                builder.add(span);
            }
        }
        builder.finish()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("spans", &self.span_count())
            .finish()
    }
}

/// A span recorder bound to one job (see [`MetricsRegistry::for_job`]).
///
/// Every record call keys its span by the bound `job_id`, so a pipeline
/// stage recording the per-message chain (EdgeProducer → Network → Broker →
/// Network → CloudProcessor) only supplies the message id — one fewer
/// argument to get wrong per call site, and the reason span-chain recording
/// can live in exactly one place.
#[derive(Clone, Copy)]
pub struct JobSpans<'a> {
    registry: &'a MetricsRegistry,
    job_id: JobId,
}

impl JobSpans<'_> {
    /// The job this recorder is bound to.
    pub fn job_id(&self) -> JobId {
        self.job_id
    }

    /// Microseconds since the registry epoch (see [`MetricsRegistry::now_us`]).
    #[inline]
    pub fn now_us(&self) -> u64 {
        self.registry.now_us()
    }

    /// Record a successful span of known window for `msg_id`.
    pub fn record(
        &self,
        msg_id: MsgId,
        component: Component,
        start_us: u64,
        end_us: u64,
        bytes: u64,
    ) {
        self.registry
            .record(self.job_id, msg_id, component, start_us, end_us, bytes);
    }

    /// Record a failed span of known window for `msg_id`.
    pub fn record_error(
        &self,
        msg_id: MsgId,
        component: Component,
        start_us: u64,
        end_us: u64,
        bytes: u64,
    ) {
        self.registry.record_span(Span {
            job_id: self.job_id,
            msg_id,
            component,
            start_us,
            end_us,
            bytes,
            error: true,
        });
    }
}

impl std::fmt::Debug for JobSpans<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpans")
            .field("job_id", &self.job_id)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spans_records_under_bound_job() {
        let reg = MetricsRegistry::new();
        let spans = reg.for_job(7);
        assert_eq!(spans.job_id(), 7);
        spans.record(3, Component::Broker, 10, 20, 64);
        spans.record_error(3, Component::CloudProcessor, 20, 30, 64);
        let all = reg.snapshot();
        assert_eq!(all.len(), 2);
        assert!(all.iter().all(|s| s.job_id == 7 && s.msg_id == 3));
        assert_eq!(all.iter().filter(|s| s.error).count(), 1);
    }

    #[test]
    fn counters_are_shared_by_name() {
        let reg = MetricsRegistry::new();
        reg.counter("msgs").add(3);
        reg.counter("msgs").add(4);
        assert_eq!(reg.counter_value("msgs"), 7);
        assert_eq!(reg.counter_value("other"), 0);
    }

    #[test]
    fn clear_drops_spans_but_keeps_counters() {
        let reg = MetricsRegistry::new();
        reg.record(1, 1, Component::Broker, 0, 1, 0);
        reg.counter("c").incr();
        reg.clear();
        assert_eq!(reg.span_count(), 0);
        assert_eq!(reg.counter_value("c"), 1);
    }

    #[test]
    fn report_for_job_filters() {
        let reg = MetricsRegistry::new();
        reg.record(1, 1, Component::Broker, 0, 10, 100);
        reg.record(2, 1, Component::Broker, 0, 10, 100);
        let r = reg.report_for_job(1);
        assert_eq!(r.total_messages(), 1);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let reg = MetricsRegistry::new();
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let reg = reg.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    reg.record(t, i, Component::Broker, i, i + 1, 8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.span_count(), 8000);
    }

    #[test]
    fn spans_where_equals_snapshot_then_filter() {
        let reg = MetricsRegistry::new();
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let reg = reg.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        reg.record(t % 2, i, Component::Broker, i, i + t, 8);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let keep = |s: &Span| s.job_id == 1 && s.end_us >= 250;
        let key = |s: &Span| (s.job_id, s.msg_id, s.start_us, s.end_us);
        let mut expected: Vec<Span> = reg.snapshot().into_iter().filter(keep).collect();
        let mut got = reg.spans_where(keep);
        expected.sort_by_key(key);
        got.sort_by_key(key);
        assert!(!got.is_empty());
        assert_eq!(got, expected);
    }

    #[test]
    fn clones_share_state() {
        let reg = MetricsRegistry::new();
        let reg2 = reg.clone();
        reg2.record(1, 1, Component::Broker, 0, 1, 0);
        assert_eq!(reg.span_count(), 1);
    }

    #[test]
    fn report_is_nondestructive_and_matches_from_spans() {
        let reg = MetricsRegistry::new();
        for i in 0..100u64 {
            reg.record(1, i, Component::Broker, i, i + 5, 64);
        }
        let direct = PipelineReport::from_spans(&reg.snapshot());
        let streamed = reg.report();
        assert_eq!(streamed.total_messages(), direct.total_messages());
        assert_eq!(reg.span_count(), 100, "report must not consume spans");
        // And again — repeated reports see the same data.
        assert_eq!(reg.report().total_messages(), 100);
    }

    #[test]
    fn drain_takes_spans_and_keeps_counters() {
        let reg = MetricsRegistry::new();
        reg.record(1, 1, Component::Broker, 0, 1, 8);
        reg.record(1, 2, Component::Broker, 1, 2, 8);
        reg.counter("kept").incr();
        let spans = reg.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(reg.span_count(), 0);
        assert_eq!(reg.counter_value("kept"), 1);
    }

    #[test]
    fn same_thread_spans_share_a_shard() {
        // Thread-pinned sharding: a single thread's spans all land in one
        // shard, so draining preserves that thread's recording order.
        let reg = MetricsRegistry::new();
        for i in 0..50u64 {
            reg.record(7, i, Component::Broker, i, i + 1, 0);
        }
        let ids: Vec<u64> = reg
            .drain()
            .into_iter()
            .filter(|s| s.job_id == 7)
            .map(|s| s.msg_id)
            .collect();
        assert_eq!(ids, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn counter_lookup_returns_same_instance() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hot");
        let b = reg.counter("hot");
        assert!(Arc::ptr_eq(&a, &b));
        a.add(2);
        assert_eq!(reg.counter_value("hot"), 2);
    }
}
