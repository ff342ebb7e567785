//! Topics: named sets of partitions plus the arrival registry — the one
//! mechanism by which anything waits for data. A reactor task arms its own
//! [`Waker`] through [`Topic::read_many_or_register`]; a blocking caller
//! ([`Topic::read_many`]) arms one that unparks its thread.
//!
//! A topic takes no retention policy: its logs trim only when the broker,
//! which registered the topic as trimming, raises a partition's commit
//! floor (see [`retention`](crate::retention)).

use crate::error::BrokerError;
use crate::log::{PartitionLog, ReadError};
use crate::record::{Offset, Record};
use crate::storage::flusher::{sync_partition, FlushScheduler};
use crate::storage::{DurabilityConfig, LogStats, PartitionHandle, StoreStats, SyncPolicy};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::time::{Duration, Instant};

/// One partition's log, behind an `Arc` so a durable topic's flusher can
/// reach it without holding a reference into the topic itself.
type Partition = Arc<Mutex<PartitionLog>>;

/// The durable half of a topic: shared storage counters, per-partition
/// flusher handles, and (for group commit) the scheduler thread itself.
struct TopicStore {
    stats: Arc<StoreStats>,
    handles: Vec<PartitionHandle>,
    /// `Some` only under [`SyncPolicy::GroupCommit`]; the other policies
    /// sync inline (`EachAppend`) or on demand (`OsOnly`).
    scheduler: Option<FlushScheduler>,
}

/// A registered readiness slot in a topic's arrival registry.
///
/// Obtained from [`Topic::arrival_waiter`]; passed to
/// [`Topic::read_many_or_register`] to arm a [`Waker`] that fires when any
/// watched partition receives an append. The handle is *owned*: callers that
/// keep one across polls (e.g. a consumer driving a reactor task) must give
/// it back via [`Topic::release_waiter`] so the slot can be reused.
///
/// The handle is deliberately not `Clone`: one slot, one logical waiter.
#[derive(Debug)]
pub struct ArrivalWaiter {
    slot: usize,
}

/// One waiter's slot: the armed waker plus an epoch that invalidates stale
/// watcher-list entries lazily (no O(partitions) cleanup on wake).
#[derive(Default)]
struct WaiterSlot {
    epoch: u64,
    waker: Option<Waker>,
}

/// The arrival registry: which waiter watches which partition.
///
/// `seq` is bumped under the lock on every append so registration can detect
/// an append that raced the caller's (lock-free) partition sweep — the
/// classic lost-wakeup window. `watchers[p]` holds `(slot, epoch)` pairs;
/// an entry is live only while the slot's epoch still matches, so a wake (or
/// a re-registration) invalidates every other entry of that waiter in O(1)
/// and stale pairs are discarded the next time something walks the list.
struct ArrivalState {
    seq: u64,
    slots: Vec<WaiterSlot>,
    free: Vec<usize>,
    watchers: Vec<Vec<(usize, u64)>>,
}

impl ArrivalState {
    fn new(partitions: usize) -> Self {
        Self {
            seq: 0,
            slots: Vec::new(),
            free: Vec::new(),
            watchers: (0..partitions).map(|_| Vec::new()).collect(),
        }
    }
}

/// Wakes a parked thread: the [`Waker`] backing [`Topic::read_many`], so a
/// blocking caller rides the same exact-wake registry as a reactor task.
struct ThreadUnparker(std::thread::Thread);

impl Wake for ThreadUnparker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// A named topic with a fixed number of partitions.
///
/// The paper keeps "one partition per edge device for simplicity and ... the
/// ratio of partitions constant between Kafka and Dask" — partition count is
/// therefore fixed at creation, like Kafka's.
///
/// Multi-partition waits are event-driven: a waiter registers a [`Waker`]
/// for exactly the partitions it reads ([`Topic::read_many_or_register`]),
/// and an append wakes *only* the waiters registered on that partition —
/// not every blocked consumer on the topic. With tens of thousands of cell
/// members this replaces an O(members) `notify_all` broadcast per append
/// with O(watchers-of-one-partition) targeted wakes (usually one).
pub struct Topic {
    name: String,
    partitions: Vec<Partition>,
    arrivals: Mutex<ArrivalState>,
    /// `Some` when the topic persists to disk (see [`Topic::new_durable`]).
    store: Option<TopicStore>,
}

impl Topic {
    /// Create a memory-only topic with `partitions` empty partitions.
    pub fn new(name: &str, partitions: usize) -> Self {
        assert!(partitions > 0, "a topic needs at least one partition");
        Self {
            name: name.to_string(),
            partitions: (0..partitions)
                .map(|_| Arc::new(Mutex::new(PartitionLog::new())))
                .collect(),
            arrivals: Mutex::new(ArrivalState::new(partitions)),
            store: None,
        }
    }

    /// Create (or reopen) a durable topic: each partition persists to
    /// `cfg.dir/p{n}/` through the [`storage`](crate::storage) engine, and
    /// under [`SyncPolicy::GroupCommit`] one flusher thread advances every
    /// partition's durable watermark on the commit-window boundary.
    ///
    /// Reopening a directory with existing segment files recovers them:
    /// torn tails are truncated and the clean prefix becomes the log.
    pub fn new_durable(
        name: &str,
        partitions: usize,
        cfg: &DurabilityConfig,
    ) -> std::io::Result<Self> {
        assert!(partitions > 0, "a topic needs at least one partition");
        let stats = Arc::new(StoreStats::default());
        let mut parts = Vec::with_capacity(partitions);
        let mut handles = Vec::with_capacity(partitions);
        for p in 0..partitions {
            let durable = Arc::new(AtomicU64::new(0));
            let mark = Arc::new(crate::storage::DurableMark::default());
            let log = Arc::new(Mutex::new(PartitionLog::open_durable(
                cfg.dir.join(format!("p{p}")),
                cfg.policy,
                Arc::clone(&stats),
                Arc::clone(&durable),
                Arc::clone(&mark),
            )?));
            handles.push(PartitionHandle {
                log: Arc::clone(&log),
                durable,
                mark,
                sync_mu: Arc::new(Mutex::new(())),
            });
            parts.push(log);
        }
        let scheduler = match cfg.policy {
            SyncPolicy::GroupCommit {
                interval,
                batch_bytes,
            } => Some(FlushScheduler::start(
                name,
                handles.clone(),
                Arc::clone(&stats),
                interval,
                batch_bytes,
            )),
            SyncPolicy::EachAppend | SyncPolicy::OsOnly => None,
        };
        Ok(Self {
            name: name.to_string(),
            partitions: parts,
            arrivals: Mutex::new(ArrivalState::new(partitions)),
            store: Some(TopicStore {
                stats,
                handles,
                scheduler,
            }),
        })
    }

    /// True when the topic persists to disk.
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// Topic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Partition count.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Append to a partition, waking blocked fetchers. Returns the offset.
    ///
    /// Wakes exactly the waiters registered on this partition; wakers are
    /// invoked *outside* the registry lock so a woken reactor thread never
    /// contends with the publisher still holding it.
    pub fn append(&self, partition: usize, record: Record) -> Option<Offset> {
        let offset = self.partitions.get(partition)?.lock().append(record);
        let mut wakers: Vec<Waker> = Vec::new();
        {
            let mut st = self.arrivals.lock();
            st.seq += 1;
            let ArrivalState {
                slots, watchers, ..
            } = &mut *st;
            for (slot, epoch) in watchers[partition].drain(..) {
                let s = &mut slots[slot];
                if s.epoch == epoch {
                    // Live registration: consume it. Bumping the epoch
                    // invalidates this waiter's entries on every *other*
                    // partition it watched, without touching their lists.
                    s.epoch = s.epoch.wrapping_add(1);
                    if let Some(w) = s.waker.take() {
                        wakers.push(w);
                    }
                }
            }
        }
        for w in wakers {
            w.wake();
        }
        if let Some(store) = &self.store {
            if let Some(sched) = &store.scheduler {
                // Cheap atomic check: only the append crossing the
                // dirty-bytes threshold pays a notify.
                sched.maybe_kick();
            }
        }
        Some(offset)
    }

    /// Allocate a readiness slot for [`Topic::read_many_or_register`].
    ///
    /// Long-lived callers (one per consumer) should hold one across polls
    /// and hand it back with [`Topic::release_waiter`] when done.
    pub fn arrival_waiter(&self) -> ArrivalWaiter {
        let mut st = self.arrivals.lock();
        let slot = match st.free.pop() {
            Some(s) => s,
            None => {
                st.slots.push(WaiterSlot::default());
                st.slots.len() - 1
            }
        };
        ArrivalWaiter { slot }
    }

    /// Return a readiness slot; any armed waker is dropped un-fired and
    /// stale watcher entries die lazily via the epoch bump.
    pub fn release_waiter(&self, waiter: ArrivalWaiter) {
        let mut st = self.arrivals.lock();
        let s = &mut st.slots[waiter.slot];
        s.epoch = s.epoch.wrapping_add(1);
        s.waker = None;
        st.free.push(waiter.slot);
    }

    /// Diagnostic: total `(slot, epoch)` entries across all partition
    /// watcher lists, including stale ones awaiting lazy cleanup. Stress
    /// tests use this to show the registry doesn't leak under churn.
    pub fn watcher_entries(&self) -> usize {
        let st = self.arrivals.lock();
        st.watchers.iter().map(Vec::len).sum()
    }

    /// Registry slots ever allocated (live or on the free list).
    #[cfg(test)]
    pub(crate) fn waiter_slots(&self) -> usize {
        self.arrivals.lock().slots.len()
    }

    /// Non-blocking read. `Err(ReadError::Trimmed)` when `offset` was
    /// trimmed; `Err(ReadError::Storage)` when a cold segment failed to
    /// read back.
    pub fn read(
        &self,
        partition: usize,
        offset: Offset,
        max: usize,
    ) -> Option<Result<Vec<Record>, ReadError>> {
        let p = self.partitions.get(partition)?;
        Some(p.lock().read(offset, max))
    }

    /// [`Topic::read`] with log-level failures mapped to broker errors: the
    /// single-partition fetch behind [`Broker::fetch`](crate::Broker::fetch)
    /// and the consumer's auto-reset re-read.
    pub(crate) fn fetch(
        &self,
        partition: usize,
        offset: Offset,
        max: usize,
    ) -> Result<Vec<Record>, BrokerError> {
        match self.read(partition, offset, max) {
            None => Err(BrokerError::UnknownPartition {
                topic: self.name.clone(),
                partition,
            }),
            Some(Ok(recs)) => Ok(recs),
            Some(Err(ReadError::Trimmed(log_start))) => Err(BrokerError::OffsetOutOfRange {
                requested: offset,
                log_start,
                high_watermark: self.high_watermark(partition).unwrap_or(log_start),
            }),
            Some(Err(ReadError::Storage(msg))) => Err(BrokerError::Storage(msg)),
        }
    }

    /// One non-blocking pass over `requests`: every partition that has
    /// records or a read error, in request order (unknown partitions
    /// skipped). Touches nothing but the partition logs.
    fn sweep(
        &self,
        requests: &[(usize, Offset)],
        max_per_partition: usize,
    ) -> Vec<(usize, Result<Vec<Record>, ReadError>)> {
        let mut out = Vec::new();
        for &(p, offset) in requests {
            let Some(part) = self.partitions.get(p) else {
                continue;
            };
            match part.lock().read(offset, max_per_partition) {
                Ok(recs) if recs.is_empty() => {}
                other => out.push((p, other)),
            }
        }
        out
    }

    /// Multi-partition fetch *or* waker registration: the non-blocking core
    /// of both [`Topic::read_many`] and the reactor consumer.
    ///
    /// Sweeps every `(partition, offset)` request once (unknown partitions
    /// skipped). If anything is ready it is returned, in request order, and
    /// any previous registration of `waiter` is cancelled. If nothing is
    /// ready, `waker` is armed on `waiter`'s slot and the slot is enrolled on each
    /// requested partition's watcher list — the next append to any of them
    /// fires the waker exactly once. Returning empty therefore means
    /// "registered": the caller can park/yield without a lost-wakeup
    /// window, because registration re-checks the arrival sequence number
    /// captured before the sweep and restarts if an append raced it.
    ///
    /// Spurious wakes are possible (an append at offsets the caller already
    /// read still fires the waker); callers must tolerate a wake followed
    /// by another empty sweep.
    pub fn read_many_or_register(
        &self,
        requests: &[(usize, Offset)],
        max_per_partition: usize,
        waiter: &ArrivalWaiter,
        waker: &Waker,
    ) -> Vec<(usize, Result<Vec<Record>, ReadError>)> {
        loop {
            // Snapshot the arrival sequence *before* the sweep: an append
            // landing mid-sweep bumps it, so the registration-time re-check
            // below cannot miss a wakeup between "sweep saw nothing" and
            // "armed the waker".
            let seq = self.arrivals.lock().seq;
            let out = self.sweep(requests, max_per_partition);
            let mut st = self.arrivals.lock();
            if !out.is_empty() {
                // Data found: cancel any previous registration so a later
                // append can't deliver a wake for a poll that already
                // completed.
                let s = &mut st.slots[waiter.slot];
                s.epoch = s.epoch.wrapping_add(1);
                s.waker = None;
                return out;
            }
            if st.seq != seq {
                continue; // an append raced the sweep — re-read immediately
            }
            let ArrivalState {
                slots, watchers, ..
            } = &mut *st;
            let s = &mut slots[waiter.slot];
            s.epoch = s.epoch.wrapping_add(1); // invalidate prior registration
            s.waker = Some(waker.clone());
            let epoch = s.epoch;
            for &(p, _) in requests {
                if let Some(list) = watchers.get_mut(p) {
                    // Self-clean: this waiter keeps at most one entry per
                    // partition list no matter how often it re-registers.
                    list.retain(|&(sl, _)| sl != waiter.slot);
                    list.push((waiter.slot, epoch));
                }
            }
            return Vec::new();
        }
    }

    /// Multi-partition fetch: read up to `max_per_partition` records from
    /// each `(partition, offset)` request in one pass, blocking up to
    /// `timeout` for *any* of them to have data.
    ///
    /// Returns one `(partition, result)` pair per partition that yielded
    /// records or a read error ([`ReadError::Trimmed`] /
    /// [`ReadError::Storage`]); partitions that are merely empty are
    /// omitted, and unknown partitions are skipped. When the first pass
    /// finds data, or there is nothing to wait for (zero `timeout`, no
    /// requests), that pass is the whole call: no registry slot, no waker.
    /// Otherwise the calling thread parks on
    /// [`Topic::read_many_or_register`] with a thread-unparking waker: it
    /// is woken only by appends to partitions it actually reads, so ten
    /// thousand parked members cost an appender exactly as much as one, and
    /// the deadline (not the number of wakes) bounds the total block time.
    pub fn read_many(
        &self,
        requests: &[(usize, Offset)],
        max_per_partition: usize,
        timeout: Duration,
    ) -> Vec<(usize, Result<Vec<Record>, ReadError>)> {
        let out = self.sweep(requests, max_per_partition);
        if !out.is_empty() || timeout.is_zero() || requests.is_empty() {
            return out;
        }
        let deadline = Instant::now() + timeout;
        let waiter = self.arrival_waiter();
        let waker = Waker::from(Arc::new(ThreadUnparker(std::thread::current())));
        let out = loop {
            let out = self.read_many_or_register(requests, max_per_partition, &waiter, &waker);
            let remaining = deadline.saturating_duration_since(Instant::now());
            if !out.is_empty() || remaining.is_zero() {
                break out;
            }
            // Registered: an append on a watched partition unparks this
            // thread (the park token covers a wake that lands before the
            // park). A spurious return only costs another sweep; the
            // absolute deadline bounds the total block time.
            std::thread::park_timeout(remaining);
        };
        self.release_waiter(waiter);
        out
    }

    /// High watermark of a partition.
    pub fn high_watermark(&self, partition: usize) -> Option<Offset> {
        Some(self.partitions.get(partition)?.lock().high_watermark())
    }

    /// Log-start offset of a partition.
    pub fn log_start(&self, partition: usize) -> Option<Offset> {
        Some(self.partitions.get(partition)?.lock().log_start())
    }

    /// Raise a partition's commit floor: trim its log up to `floor` (see
    /// [`retention`](crate::retention)). A floor at or below the log start
    /// changes nothing. The broker calls this after a commit on a topic
    /// it registered as trimming.
    pub(crate) fn raise_floor(&self, partition: usize, floor: Offset) {
        if let Some(p) = self.partitions.get(partition) {
            p.lock().advance_start(floor);
        }
    }

    /// Durable watermark of a partition: the offset below which every
    /// record survives a crash. Equals the high watermark for a
    /// memory-only topic (nothing stronger exists to wait for); lags it by
    /// at most one commit window for a durable one. Lock-free for durable
    /// topics (one atomic load).
    pub fn durable_watermark(&self, partition: usize) -> Option<Offset> {
        if partition >= self.partitions.len() {
            return None;
        }
        match &self.store {
            Some(store) => Some(store.handles[partition].durable.load(Ordering::Acquire)),
            None => Some(self.partitions[partition].lock().high_watermark()),
        }
    }

    /// Block until everything below `offset` in `partition` is durable, or
    /// `timeout` passes. Returns whether durability was reached. Producers
    /// that need an fsync-acknowledged send call this after `append`; the
    /// wait kicks the group-commit scheduler, so it resolves in one commit
    /// cycle, not a full interval.
    pub fn wait_durable(
        &self,
        partition: usize,
        offset: Offset,
        timeout: Duration,
    ) -> Option<bool> {
        if partition >= self.partitions.len() {
            return None;
        }
        let Some(store) = &self.store else {
            return Some(self.partitions[partition].lock().high_watermark() >= offset);
        };
        let handle = &store.handles[partition];
        if handle.durable.load(Ordering::Acquire) >= offset {
            return Some(true);
        }
        match &store.scheduler {
            Some(sched) => Some(sched.wait_for(Instant::now() + timeout, || {
                handle.durable.load(Ordering::Acquire) >= offset
            })),
            None => {
                // EachAppend is durable at append time; OsOnly syncs on
                // demand — either way one explicit cycle settles it.
                let _ = sync_partition(handle, &store.stats);
                Some(handle.durable.load(Ordering::Acquire) >= offset)
            }
        }
    }

    /// Force an fsync cycle over every partition now (clean-shutdown and
    /// test hook). Returns the bytes retired. No-op for memory-only topics.
    pub fn sync(&self) -> u64 {
        let Some(store) = &self.store else { return 0 };
        store
            .handles
            .iter()
            .map(|h| sync_partition(h, &store.stats).unwrap_or(0))
            .sum()
    }

    /// The durable *file* frontier of a partition: `(segment base offset,
    /// fsynced bytes within that segment's file)`. Crash simulations may
    /// truncate the partition's tail anywhere at or beyond this mark
    /// without breaking the durability contract. `None` for memory-only
    /// topics or unknown partitions.
    pub fn durable_file_mark(&self, partition: usize) -> Option<(u64, u64)> {
        let store = self.store.as_ref()?;
        Some(store.handles.get(partition)?.mark.get())
    }

    /// Point-in-time storage-engine stats for this topic (all zeros for a
    /// memory-only topic except `segment_count`).
    pub fn log_stats(&self) -> LogStats {
        let mut out = LogStats::default();
        for p in &self.partitions {
            let log = p.lock();
            out.segment_count += log.segment_count() as u64;
            out.durable_lag += log.high_watermark() - log.durable_watermark();
            out.retained_bytes += log.bytes();
        }
        if let Some(store) = &self.store {
            out.dirty_bytes = store.stats.dirty_bytes.load(Ordering::Relaxed);
            out.fsync_us = store.stats.fsync_us.load(Ordering::Relaxed);
            out.fsync_count = store.stats.fsync_count.load(Ordering::Relaxed);
        }
        out
    }

    /// Records currently resident in memory across partitions (diagnostic:
    /// durable topics evict cold segments, so this stays bounded while the
    /// log grows).
    pub fn resident_records(&self) -> u64 {
        self.partitions
            .iter()
            .map(|p| p.lock().resident_records())
            .sum()
    }

    /// First offset at/after a timestamp in a partition (see
    /// [`PartitionLog::offset_for_timestamp`]).
    pub fn offset_for_timestamp(&self, partition: usize, ts_us: u64) -> Option<Offset> {
        Some(
            self.partitions
                .get(partition)?
                .lock()
                .offset_for_timestamp(ts_us),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    fn topic(parts: usize) -> Topic {
        Topic::new("t", parts)
    }

    /// A waker that counts its invocations.
    struct CountingWake(AtomicUsize);

    impl Wake for CountingWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting_waker() -> (Arc<CountingWake>, Waker) {
        let c = Arc::new(CountingWake(AtomicUsize::new(0)));
        let w = Waker::from(Arc::clone(&c));
        (c, w)
    }

    #[test]
    fn partitions_are_independent() {
        let t = topic(3);
        t.append(0, Record::new(&b"a"[..])).unwrap();
        t.append(2, Record::new(&b"b"[..])).unwrap();
        assert_eq!(t.high_watermark(0), Some(1));
        assert_eq!(t.high_watermark(1), Some(0));
        assert_eq!(t.high_watermark(2), Some(1));
    }

    #[test]
    fn unknown_partition_is_none() {
        let t = topic(1);
        assert!(t.append(5, Record::new(&b"x"[..])).is_none());
        assert!(t.read(5, 0, 1).is_none());
    }

    #[test]
    fn read_many_single_request_times_out_empty() {
        let t = topic(1);
        let start = Instant::now();
        let got = t.read_many(&[(0, 0)], 10, Duration::from_millis(20));
        assert!(got.is_empty());
        assert!(
            start.elapsed() >= Duration::from_millis(20),
            "returned early"
        );
        assert_eq!(t.watcher_entries(), 1, "the stale entry dies lazily …");
        t.append(0, Record::new(&b"x"[..])).unwrap();
        assert_eq!(t.watcher_entries(), 0, "… on the next append");
    }

    #[test]
    fn read_many_single_request_wakes_on_append() {
        let t = Arc::new(topic(1));
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || t2.read_many(&[(0, 0)], 10, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(30));
        t.append(0, Record::new(&b"wake"[..])).unwrap();
        let mut got = h.join().unwrap();
        assert_eq!(got.len(), 1);
        let recs = got.remove(0).1.unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].value.as_ref(), b"wake");
    }

    #[test]
    fn per_partition_fifo_order_under_concurrency() {
        let t = Arc::new(topic(2));
        let mut handles = Vec::new();
        for p in 0..2usize {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u32 {
                    t.append(
                        p,
                        Record::new(bytes::Bytes::copy_from_slice(&i.to_le_bytes())),
                    )
                    .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for p in 0..2 {
            let recs = t.read(p, 0, 500).unwrap().unwrap();
            let values: Vec<u32> = recs
                .iter()
                .map(|r| u32::from_le_bytes(r.value.as_ref().try_into().unwrap()))
                .collect();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            assert_eq!(values, sorted, "partition {p} not FIFO");
        }
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_panics() {
        topic(0);
    }

    #[test]
    fn read_many_deadline_survives_unrelated_wakes() {
        // Appends at offsets below the requested one keep waking the
        // parked reader without satisfying the read; the total block time
        // must still be bounded by the timeout, not reset on every wake.
        let t = Arc::new(topic(1));
        let t2 = Arc::clone(&t);
        let keep_waking = Arc::new(AtomicBool::new(true));
        let kw = Arc::clone(&keep_waking);
        let waker = std::thread::spawn(move || {
            while kw.load(Ordering::Relaxed) {
                // Wakes the waiter but never reaches offset 100.
                t2.append(0, Record::new(&b"x"[..])).unwrap();
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let start = Instant::now();
        let got = t.read_many(&[(0, 100)], 10, Duration::from_millis(60));
        let elapsed = start.elapsed();
        keep_waking.store(false, Ordering::Relaxed);
        waker.join().unwrap();
        assert!(got.is_empty());
        assert!(
            elapsed < Duration::from_millis(400),
            "read_many blocked {elapsed:?} — timeout reset on every wake?"
        );
    }

    #[test]
    fn read_many_collects_across_partitions() {
        let t = topic(4);
        t.append(1, Record::new(&b"a"[..])).unwrap();
        t.append(3, Record::new(&b"b"[..])).unwrap();
        t.append(3, Record::new(&b"c"[..])).unwrap();
        let reqs = [(0, 0), (1, 0), (2, 0), (3, 0)];
        let mut got = t.read_many(&reqs, 10, Duration::ZERO);
        got.sort_by_key(|(p, _)| *p);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].0, 1);
        assert_eq!(got[0].1.as_ref().unwrap().len(), 1);
        assert_eq!(got[1].0, 3);
        assert_eq!(got[1].1.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn read_many_wakes_on_any_partition() {
        let t = Arc::new(topic(8));
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || {
            let reqs: Vec<(usize, u64)> = (0..8).map(|p| (p, 0)).collect();
            t2.read_many(&reqs, 10, Duration::from_secs(5))
        });
        std::thread::sleep(Duration::from_millis(30));
        t.append(6, Record::new(&b"late"[..])).unwrap();
        let got = h.join().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 6);
    }

    #[test]
    fn read_many_times_out_empty_and_skips_unknown() {
        let t = topic(2);
        let got = t.read_many(&[(0, 0), (9, 0)], 5, Duration::from_millis(10));
        assert!(got.is_empty());
    }

    #[test]
    fn register_returns_data_without_arming() {
        let t = topic(2);
        t.append(1, Record::new(&b"a"[..])).unwrap();
        let waiter = t.arrival_waiter();
        let (count, waker) = counting_waker();
        let got = t.read_many_or_register(&[(0, 0), (1, 0)], 10, &waiter, &waker);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 1);
        // Data was ready: the waker must not have been armed, so a later
        // append fires nothing.
        t.append(0, Record::new(&b"b"[..])).unwrap();
        assert_eq!(count.0.load(Ordering::SeqCst), 0);
        t.release_waiter(waiter);
    }

    #[test]
    fn armed_waker_fires_once_on_watched_partition() {
        let t = topic(4);
        let waiter = t.arrival_waiter();
        let (count, waker) = counting_waker();
        let empty = t.read_many_or_register(&[(1, 0), (2, 0)], 10, &waiter, &waker);
        assert!(empty.is_empty(), "nothing appended yet");
        // Appends on unwatched partitions must not wake.
        t.append(0, Record::new(&b"x"[..])).unwrap();
        t.append(3, Record::new(&b"x"[..])).unwrap();
        assert_eq!(count.0.load(Ordering::SeqCst), 0);
        // First append on a watched partition wakes exactly once …
        t.append(2, Record::new(&b"hit"[..])).unwrap();
        assert_eq!(count.0.load(Ordering::SeqCst), 1);
        // … and the registration is consumed: further appends are silent.
        t.append(1, Record::new(&b"late"[..])).unwrap();
        t.append(2, Record::new(&b"late"[..])).unwrap();
        assert_eq!(count.0.load(Ordering::SeqCst), 1);
        t.release_waiter(waiter);
    }

    #[test]
    fn append_wakes_only_the_partitions_waiters() {
        // Two waiters on disjoint partitions: an append wakes its own
        // watcher and leaves the other parked — the no-thundering-herd
        // property the registry exists for.
        let t = topic(2);
        let w0 = t.arrival_waiter();
        let w1 = t.arrival_waiter();
        let (c0, k0) = counting_waker();
        let (c1, k1) = counting_waker();
        assert!(t.read_many_or_register(&[(0, 0)], 10, &w0, &k0).is_empty());
        assert!(t.read_many_or_register(&[(1, 0)], 10, &w1, &k1).is_empty());
        t.append(0, Record::new(&b"x"[..])).unwrap();
        assert_eq!(c0.0.load(Ordering::SeqCst), 1);
        assert_eq!(c1.0.load(Ordering::SeqCst), 0);
        t.release_waiter(w0);
        t.release_waiter(w1);
    }

    #[test]
    fn reregistration_replaces_not_accumulates() {
        let t = topic(1);
        let waiter = t.arrival_waiter();
        let (count, waker) = counting_waker();
        for _ in 0..100 {
            // Future offset: never satisfied, registers every time.
            assert!(t
                .read_many_or_register(&[(0, 1_000)], 10, &waiter, &waker)
                .is_empty());
        }
        assert_eq!(
            t.watcher_entries(),
            1,
            "re-registration must replace the old entry, not pile up"
        );
        // One append: exactly one (spurious, offset-wise) wake.
        t.append(0, Record::new(&b"x"[..])).unwrap();
        assert_eq!(count.0.load(Ordering::SeqCst), 1);
        t.release_waiter(waiter);
    }

    #[test]
    fn released_waiter_never_fires() {
        let t = topic(1);
        let waiter = t.arrival_waiter();
        let (count, waker) = counting_waker();
        assert!(t
            .read_many_or_register(&[(0, 0)], 10, &waiter, &waker)
            .is_empty());
        t.release_waiter(waiter);
        t.append(0, Record::new(&b"x"[..])).unwrap();
        assert_eq!(
            count.0.load(Ordering::SeqCst),
            0,
            "a released slot's stale watcher entry must not fire"
        );
        // The slot is reusable and the stale entry got cleaned lazily.
        let w2 = t.arrival_waiter();
        t.release_waiter(w2);
        assert_eq!(t.watcher_entries(), 0);
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pilot-topic-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_topic_durable_watermark_is_high_watermark() {
        let t = topic(1);
        assert!(!t.is_durable());
        t.append(0, Record::new(&b"x"[..])).unwrap();
        assert_eq!(t.durable_watermark(0), Some(1));
        assert_eq!(t.wait_durable(0, 1, Duration::ZERO), Some(true));
        assert_eq!(t.wait_durable(9, 0, Duration::ZERO), None);
        assert_eq!(t.durable_file_mark(0), None);
        assert_eq!(t.sync(), 0);
        let stats = t.log_stats();
        assert_eq!(stats.dirty_bytes, 0);
        assert_eq!(stats.durable_lag, 0);
        assert_eq!(stats.segment_count, 1);
    }

    #[test]
    fn durable_topic_group_commit_reaches_watermark() {
        let dir = tmp_dir("group-commit");
        let cfg = crate::storage::DurabilityConfig::new(&dir).with_policy(
            crate::storage::SyncPolicy::GroupCommit {
                interval: Duration::from_millis(2),
                batch_bytes: 1 << 20,
            },
        );
        let t = Topic::new_durable("d", 2, &cfg).unwrap();
        assert!(t.is_durable());
        for p in 0..2 {
            for _ in 0..10 {
                t.append(p, Record::new(vec![7u8; 64])).unwrap();
            }
        }
        assert!(
            t.wait_durable(0, 10, Duration::from_secs(5)).unwrap(),
            "group commit never covered partition 0"
        );
        assert!(t.wait_durable(1, 10, Duration::from_secs(5)).unwrap());
        assert_eq!(t.durable_watermark(0), Some(10));
        let stats = t.log_stats();
        assert_eq!(stats.durable_lag, 0);
        assert!(stats.fsync_count >= 1);
        drop(t);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_topic_survives_reopen_with_same_records() {
        let dir = tmp_dir("reopen");
        let cfg = crate::storage::DurabilityConfig::new(&dir);
        let mut expect = Vec::new();
        {
            let t = Topic::new_durable("d", 1, &cfg).unwrap();
            for i in 0..50u64 {
                let payload = vec![(i % 256) as u8; 10 + (i as usize % 20)];
                expect.push(payload.clone());
                t.append(0, Record::new(payload).with_timestamp(i)).unwrap();
            }
            t.sync();
        }
        let t = Topic::new_durable("d", 1, &cfg).unwrap();
        assert_eq!(t.high_watermark(0), Some(50));
        assert_eq!(t.durable_watermark(0), Some(50));
        let recs = t.read(0, 0, 100).unwrap().unwrap();
        assert_eq!(recs.len(), 50);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.offset, i as u64);
            assert_eq!(r.value.as_ref(), &expect[i][..], "record {i}");
            assert_eq!(r.timestamp_us, i as u64);
        }
        // Appending after reopen continues the offset sequence.
        assert_eq!(t.append(0, Record::new(&b"next"[..])), Some(50));
        drop(t);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn blocked_reader_wakes_on_durable_topic_append() {
        // The arrival registry path is policy-independent; pin it anyway.
        let dir = tmp_dir("wake");
        let cfg = crate::storage::DurabilityConfig::new(&dir);
        let t = Arc::new(Topic::new_durable("d", 1, &cfg).unwrap());
        let t2 = Arc::clone(&t);
        let h = std::thread::spawn(move || t2.read_many(&[(0, 0)], 10, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        t.append(0, Record::new(&b"wake"[..])).unwrap();
        let got = h.join().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1.as_ref().unwrap().len(), 1);
        drop(t);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
