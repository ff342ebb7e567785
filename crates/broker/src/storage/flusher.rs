//! The group-commit scheduler: one thread per durable topic, many
//! partitions per fsync window.
//!
//! Naive durability fsyncs on every append and dies by syscall: ~ms-scale
//! latency on the hot path, once per message. Group commit inverts the
//! deal — appends only memcpy into the writer's buffer, and a single
//! scheduler thread wakes once per commit window (the
//! [`SyncPolicy::GroupCommit`](super::SyncPolicy::GroupCommit) interval,
//! sized to the producer linger so durability rides the batching boundary
//! the transport already pays for), captures every partition's dirty state,
//! and retires it with one `fdatasync` per touched file. The cost of the
//! fsync is amortised over every append of every partition in the window.
//!
//! Locking discipline: the capture (`PartitionLog::prepare_sync`) runs
//! under the partition lock — pure bookkeeping, a buffer handoff. The file
//! writes *and* the fsync run outside the lock, against cloned file
//! handles, so producers keep appending (and rolling segments, and even
//! retiring them) while the platter catches up. Cycles for one partition
//! serialise on `PartitionHandle::sync_mu` — a later capture must not
//! publish durability while an earlier cycle's writes are in flight. Only
//! after the writes land and the sync completes does the partition's
//! durable watermark advance.

use super::writer::SyncBatch;
use super::{DurableMark, PartitionHandle, StoreStats};
use parking_lot::{Condvar, Mutex};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retire a captured batch: perform its buffered writes, fsync the touched
/// files, then publish durability. Order matters — the watermark may only
/// advance *after* every write has landed and the sync returned.
pub(crate) fn sync_now(
    batch: &SyncBatch,
    stats: &StoreStats,
    durable: &AtomicU64,
    mark: &DurableMark,
) -> io::Result<()> {
    for w in &batch.writes {
        w.perform()?;
    }
    let t0 = Instant::now();
    for w in &batch.writes {
        w.file().sync_data()?;
    }
    let us = t0.elapsed().as_micros() as u64;
    stats.fsync_us.fetch_add(us, Ordering::Relaxed);
    stats.fsync_count.fetch_add(1, Ordering::Relaxed);
    stats.dirty_bytes.fetch_sub(batch.bytes, Ordering::Relaxed);
    // fetch_max, not store: cycles are serialised per partition, but the
    // watermark must stay monotonic even against a misuse of the API.
    durable.fetch_max(batch.hwm, Ordering::Release);
    mark.set(batch.seg_base, batch.file_len);
    Ok(())
}

/// One full capture-and-sync cycle for a single partition. Shared by the
/// scheduler loop and the explicit [`Topic::sync`](crate::Topic::sync)
/// path. Returns the bytes retired (0 if the partition was clean).
///
/// On failure the captured batch is handed back to the writer
/// ([`PartitionLog::requeue_failed_sync`](crate::log::PartitionLog)) so the
/// next cycle retries the same positioned writes. Dropping it would punch a
/// hole in the segment file that a *later* successful cycle's
/// `fetch_max(hwm)` would then claim durable — recovery would truncate at
/// the hole, losing records the watermark promised, and a cold fetch of an
/// evicted segment spanning it would fail. The bytes also stay accounted in
/// `dirty_bytes` (never decremented on the failed path), keeping the
/// early-kick threshold honest while the disk misbehaves.
pub(crate) fn sync_partition(handle: &PartitionHandle, stats: &StoreStats) -> io::Result<u64> {
    let _cycle = handle.sync_mu.lock();
    let batch = handle.log.lock().prepare_sync();
    match batch {
        Some(b) => match sync_now(&b, stats, &handle.durable, &handle.mark) {
            Ok(()) => Ok(b.bytes),
            Err(e) => {
                handle.log.lock().requeue_failed_sync(b);
                Err(e)
            }
        },
        None => Ok(0),
    }
}

struct SchedState {
    kick: bool,
    stop: bool,
}

struct FlushInner {
    partitions: Vec<PartitionHandle>,
    stats: Arc<StoreStats>,
    interval: Duration,
    batch_bytes: u64,
    state: Mutex<SchedState>,
    wakeup: Condvar,
    /// Broadcast after every completed cycle, for durability waiters.
    cycle_mu: Mutex<()>,
    cycle_cv: Condvar,
}

/// The per-topic group-commit thread. Owns nothing but handles: the logs
/// themselves belong to the topic's partitions. Dropping the scheduler runs
/// one final full sync so a clean shutdown leaves everything durable.
pub(crate) struct FlushScheduler {
    inner: Arc<FlushInner>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl FlushScheduler {
    pub(crate) fn start(
        name: &str,
        partitions: Vec<PartitionHandle>,
        stats: Arc<StoreStats>,
        interval: Duration,
        batch_bytes: u64,
    ) -> Self {
        let inner = Arc::new(FlushInner {
            partitions,
            stats,
            interval,
            batch_bytes,
            state: Mutex::new(SchedState {
                kick: false,
                stop: false,
            }),
            wakeup: Condvar::new(),
            cycle_mu: Mutex::new(()),
            cycle_cv: Condvar::new(),
        });
        let run_inner = Arc::clone(&inner);
        let thread = std::thread::Builder::new()
            .name(format!("flusher-{name}"))
            .spawn(move || run_loop(&run_inner))
            .expect("spawn flusher thread");
        Self {
            inner,
            thread: Some(thread),
        }
    }

    /// Wake the scheduler now instead of at the next interval tick.
    pub(crate) fn kick(&self) {
        let mut st = self.inner.state.lock();
        st.kick = true;
        self.inner.wakeup.notify_one();
    }

    /// Early-kick check for the append path: cheap atomic load, and only
    /// the append that crosses the dirty-bytes threshold pays the notify.
    pub(crate) fn maybe_kick(&self) {
        if self.inner.batch_bytes > 0
            && self.inner.stats.dirty_bytes.load(Ordering::Relaxed) >= self.inner.batch_bytes
        {
            self.kick();
        }
    }

    /// Block until `ready()` holds or `deadline` passes, kicking the
    /// scheduler once up front. Re-checks after every completed cycle.
    pub(crate) fn wait_for(&self, deadline: Instant, ready: impl Fn() -> bool) -> bool {
        if ready() {
            return true;
        }
        self.kick();
        let mut guard = self.inner.cycle_mu.lock();
        loop {
            if ready() {
                return true;
            }
            if self
                .inner
                .cycle_cv
                .wait_until(&mut guard, deadline)
                .timed_out()
            {
                return ready();
            }
        }
    }
}

impl Drop for FlushScheduler {
    fn drop(&mut self) {
        self.inner.state.lock().stop = true;
        self.inner.wakeup.notify_one();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn run_loop(inner: &FlushInner) {
    loop {
        let stop;
        {
            let mut st = inner.state.lock();
            if !st.stop && !st.kick {
                inner.wakeup.wait_for(&mut st, inner.interval);
            }
            stop = st.stop;
            st.kick = false;
        }
        for handle in &inner.partitions {
            if let Err(e) = sync_partition(handle, &inner.stats) {
                // A failing disk can't be handled from here; surface it.
                // The batch was re-queued and the watermark held back, so
                // the next cycle retries the same writes.
                eprintln!("pilot-broker flusher: sync failed: {e}");
            }
        }
        {
            let _g = inner.cycle_mu.lock();
            inner.cycle_cv.notify_all();
        }
        if stop {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::PartitionLog;
    use crate::record::Record;
    use crate::storage::SyncPolicy;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pilot-flusher-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn durable_handle(dir: PathBuf, stats: &Arc<StoreStats>) -> PartitionHandle {
        let durable = Arc::new(AtomicU64::new(0));
        let mark = Arc::new(DurableMark::default());
        let log = PartitionLog::open_durable(
            dir,
            SyncPolicy::OsOnly,
            Arc::clone(stats),
            Arc::clone(&durable),
            Arc::clone(&mark),
        )
        .unwrap();
        PartitionHandle {
            log: Arc::new(parking_lot::Mutex::new(log)),
            durable,
            mark,
            sync_mu: Arc::new(parking_lot::Mutex::new(())),
        }
    }

    #[test]
    fn sync_partition_advances_watermark_and_retires_dirty() {
        let dir = tmp_dir("sync");
        let stats = Arc::new(StoreStats::default());
        let h = durable_handle(dir.clone(), &stats);
        for _ in 0..5 {
            h.log.lock().append(Record::new(vec![1u8; 100]));
        }
        assert!(stats.dirty_bytes.load(Ordering::Relaxed) > 0);
        assert_eq!(h.durable.load(Ordering::Relaxed), 0);
        let retired = sync_partition(&h, &stats).unwrap();
        assert!(retired > 0);
        assert_eq!(h.durable.load(Ordering::Relaxed), 5);
        assert_eq!(stats.dirty_bytes.load(Ordering::Relaxed), 0);
        assert_eq!(stats.fsync_count.load(Ordering::Relaxed), 1);
        // Clean partition: a second cycle is a no-op.
        assert_eq!(sync_partition(&h, &stats).unwrap(), 0);
        assert_eq!(stats.fsync_count.load(Ordering::Relaxed), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scheduler_syncs_on_interval_and_kick() {
        let dir = tmp_dir("sched");
        let stats = Arc::new(StoreStats::default());
        let h = durable_handle(dir.clone(), &stats);
        let sched = FlushScheduler::start(
            "test",
            vec![h.clone()],
            Arc::clone(&stats),
            Duration::from_millis(2),
            0,
        );
        h.log.lock().append(Record::new(vec![1u8; 64]));
        let deadline = Instant::now() + Duration::from_secs(5);
        assert!(
            sched.wait_for(deadline, || h.durable.load(Ordering::Acquire) >= 1),
            "interval cycle never made the append durable"
        );
        drop(sched);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_runs_a_final_sync() {
        let dir = tmp_dir("drop-sync");
        let stats = Arc::new(StoreStats::default());
        let h = durable_handle(dir.clone(), &stats);
        let sched = FlushScheduler::start(
            "test",
            vec![h.clone()],
            Arc::clone(&stats),
            Duration::from_secs(3600), // interval never fires in this test
            0,
        );
        h.log.lock().append(Record::new(vec![2u8; 64]));
        drop(sched);
        assert_eq!(
            h.durable.load(Ordering::Acquire),
            1,
            "drop must leave appended data durable"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wait_for_times_out_when_never_ready() {
        let dir = tmp_dir("timeout");
        let stats = Arc::new(StoreStats::default());
        let h = durable_handle(dir.clone(), &stats);
        let sched = FlushScheduler::start(
            "test",
            vec![h.clone()],
            Arc::clone(&stats),
            Duration::from_millis(2),
            0,
        );
        let deadline = Instant::now() + Duration::from_millis(30);
        assert!(!sched.wait_for(deadline, || false));
        drop(sched);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
