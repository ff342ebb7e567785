//! Intra-task compute pool: scoped data parallelism inside one pilot task.
//!
//! The [`LocalExecutor`](crate::LocalExecutor) is *inter*-task concurrency —
//! one thread per core the pilot lends, each polling one task (a whole FaaS
//! invocation) at a time. This module adds the orthogonal *intra*-task axis: a cloud
//! pilot that owns many cores can fan a single model fit/score out across
//! them instead of leaving all but one idle (the paper's Fig. 3 bottleneck
//! is exactly such a single-threaded 100-tree refit). In the spirit of
//! game-engine task pools, the [`ComputePool`] keeps persistent worker
//! threads alive for the lifetime of the pilot, so the per-message hot path
//! pays no thread-spawn cost — publishing a scoped job is one mutex lock
//! and a condvar broadcast.
//!
//! Design rules:
//!
//! * **Scoped**: jobs borrow caller data. [`ComputePool::run`] blocks until
//!   every worker has finished the job, so non-`'static` borrows are sound.
//! * **Deterministic by construction**: the primitives only distribute
//!   *which thread* executes unit `i`; callers own unit granularity (fixed
//!   chunk boundaries) and merge order (by unit index). A pool of width 1
//!   and width N therefore produce bit-identical results for the same
//!   inputs — the property the ML kernels rely on.
//! * **Panic-safe**: a panicking unit is caught on the worker, the scope
//!   still joins, and the panic is re-raised on the caller — no deadlocks,
//!   no poisoned pool.
//!
//! Width 0/1 pools spawn no threads at all and execute inline; a simulated
//! 1-core edge device (the paper's Raspberry-Pi-class Dask task) keeps the
//! exact sequential behaviour for free.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Lifetime-erased pointer to the scoped job closure. Sound because
/// [`ComputePool::run`] does not return until every worker has dropped its
/// copy (tracked by the `finished` counter).
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` (shared calls are fine) and outlives every
// worker's use of it because `run` joins the scope before returning.
unsafe impl Send for Job {}

impl Job {
    /// # Safety
    /// The caller must keep the pointee alive and unmoved until all workers
    /// have finished calling it.
    unsafe fn new(f: &(dyn Fn() + Sync)) -> Self {
        // Erase the borrow's lifetime; the join protocol reinstates it.
        Job(std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(f) as *const _)
    }

    fn call(&self) {
        // SAFETY: guaranteed live by the `run` join protocol.
        unsafe { (*self.0)() }
    }
}

/// State shared between the caller and the persistent workers.
struct State {
    /// Monotonic job counter; a changed epoch tells a worker a new job is
    /// published. Each worker runs each epoch exactly once.
    epoch: u64,
    /// The current job, valid while `finished < n_workers` for this epoch.
    job: Option<Job>,
    /// Workers that drain units this epoch (the live width minus the
    /// caller). Workers with a higher index check in without claiming any
    /// unit, so `finished == n_workers` still joins the scope after a
    /// resize.
    active: usize,
    /// Workers done with the current epoch.
    finished: usize,
    /// A worker's unit panicked during the current epoch.
    panicked: bool,
    /// Pool is being dropped.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for a new epoch.
    work_cv: Condvar,
    /// The caller waits here for `finished == n_workers`.
    done_cv: Condvar,
}

struct Inner {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Serialises concurrent callers: one scoped job owns the workers at a
    /// time. The pool models the pilot's physical cores, so overlapping
    /// fan-outs from different tasks queue instead of oversubscribing.
    run_lock: Mutex<()>,
}

impl Drop for Inner {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// A pool of persistent worker threads executing scoped data-parallel jobs.
///
/// Cheap to share: wrap in an [`Arc`] and hand one clone to every model or
/// processor of the owning pilot. See the module docs for the determinism
/// contract.
pub struct ComputePool {
    /// `None` → capacity ≤ 1: no threads, inline execution.
    inner: Option<Inner>,
    /// Live parallel width ≤ `capacity`; jobs published after a
    /// [`ComputePool::set_width`] fan out over the new width.
    width: AtomicUsize,
    /// Workers spawned at construction (+1 for the caller). Fixed for the
    /// pool's lifetime; resizing only changes how many of them participate.
    capacity: usize,
    /// Callers currently inside [`ComputePool::run`] (inline path
    /// included) — the telemetry occupancy gauge. Queued callers waiting
    /// on the run lock count too: occupancy > 1 means the pool is the
    /// contended resource.
    active: AtomicUsize,
    /// Scoped jobs started since creation.
    jobs: AtomicU64,
}

impl std::fmt::Debug for ComputePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComputePool")
            .field("threads", &self.threads())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl Default for ComputePool {
    fn default() -> Self {
        Self::sequential()
    }
}

impl ComputePool {
    /// A pool of total width `threads` (the caller participates, so
    /// `threads - 1` workers are spawned). `threads <= 1` spawns nothing
    /// and executes every job inline on the caller.
    pub fn new(threads: usize) -> Self {
        Self::resizable(threads, threads)
    }

    /// A pool that starts at width `threads` but can be resized live up to
    /// `max_threads` via [`ComputePool::set_width`]. All `max_threads - 1`
    /// workers are spawned up front; a resize only changes how many of them
    /// claim units per job, so the epoch join protocol (every spawned
    /// worker checks in once per job) is untouched and resizing is safe
    /// even while a job is being published. `max_threads <= 1` spawns
    /// nothing and executes inline, exactly like [`ComputePool::new`] with one thread.
    pub fn resizable(threads: usize, max_threads: usize) -> Self {
        let capacity = max_threads.max(threads).max(1);
        let width = threads.clamp(1, capacity);
        if capacity == 1 {
            return Self {
                inner: None,
                width: AtomicUsize::new(1),
                capacity,
                active: AtomicUsize::new(0),
                jobs: AtomicU64::new(0),
            };
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                active: 0,
                finished: 0,
                panicked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let n_workers = capacity - 1;
        let workers = (0..n_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("compute-{i}"))
                    .spawn(move || worker_loop(&shared, n_workers, i))
                    .expect("spawn compute worker")
            })
            .collect();
        Self {
            inner: Some(Inner {
                shared,
                workers,
                run_lock: Mutex::new(()),
            }),
            width: AtomicUsize::new(width),
            capacity,
            active: AtomicUsize::new(0),
            jobs: AtomicU64::new(0),
        }
    }

    /// A width-1 pool: no threads, every job runs inline on the caller.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Total parallel width (participating worker threads + the caller).
    pub fn threads(&self) -> usize {
        self.width.load(Ordering::Relaxed)
    }

    /// The resize ceiling: `set_width` clamps into `1..=capacity()`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Set the live width, clamped into `1..=capacity()`; returns the
    /// effective width. Takes effect for the next published job — units
    /// claimed atomically within a running job keep their fixed chunk
    /// boundaries, so results stay bit-identical across any resize
    /// schedule (the module's determinism contract).
    pub fn set_width(&self, threads: usize) -> usize {
        let w = threads.clamp(1, self.capacity);
        self.width.store(w, Ordering::Relaxed);
        w
    }

    /// Callers currently inside (or queued on) [`ComputePool::run`]. 0 when
    /// idle, 1 while one task fans out, >1 when concurrent tasks contend
    /// for the pool — the level the telemetry sampler snapshots.
    pub fn occupancy(&self) -> usize {
        self.active.load(Ordering::Relaxed)
    }

    /// Scoped jobs started since creation (a monotonic activity counter a
    /// sampler can differentiate into a job rate).
    pub fn jobs_started(&self) -> u64 {
        self.jobs.load(Ordering::Relaxed)
    }

    /// Execute `f(i)` for every `i in 0..n_units`, distributing units over
    /// the pool. Blocks until all units are done; the caller thread
    /// participates. Units are claimed atomically, so `f` must tolerate any
    /// execution order — determinism comes from keeping unit boundaries and
    /// merge order fixed, not from scheduling.
    ///
    /// Safe to call from several threads sharing one pool: concurrent jobs
    /// serialise (the pool is the pilot's core budget, so overlapping
    /// fan-outs queue rather than oversubscribe).
    ///
    /// If any unit panics the panic is re-raised here after the scope joins.
    pub fn run(&self, n_units: usize, f: impl Fn(usize) + Sync) {
        if n_units == 0 {
            return;
        }
        // Occupancy bracket around the whole call (queueing on the run
        // lock included), restored by a guard so a panicking unit cannot
        // leave the gauge stuck non-zero.
        self.active.fetch_add(1, Ordering::Relaxed);
        self.jobs.fetch_add(1, Ordering::Relaxed);
        let _occupancy = OccupancyGuard(&self.active);
        let next = AtomicUsize::new(0);
        let drain = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_units {
                break;
            }
            f(i);
        };
        let Some(inner) = &self.inner else {
            drain();
            return;
        };
        let n_workers = inner.workers.len();
        // One scoped job at a time: a second caller (another consumer task
        // sharing the pilot's pool) blocks here until the first job joins.
        // The lock guards no data (only exclusivity), so a caller that
        // panicked out of a previous job must not poison it for the rest.
        let _exclusive = inner
            .run_lock
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        // SAFETY: `drain` (and everything it borrows) stays alive and
        // unmoved until the join loop below observes all workers finished.
        let job = unsafe { Job::new(&drain) };
        {
            let mut st = inner.shared.state.lock().unwrap();
            st.epoch += 1;
            st.job = Some(job);
            // The live width is latched per job: workers beyond it check in
            // without draining, so a concurrent `set_width` affects the
            // next job, never a half-published one.
            st.active = (self.threads() - 1).min(n_workers);
            st.finished = 0;
            st.panicked = false;
            inner.shared.work_cv.notify_all();
        }
        // The caller is one of the pool's threads: drain units too.
        let caller_result = catch_unwind(AssertUnwindSafe(&drain));
        // Join the scope: all workers must check in before `drain` may drop.
        let mut st = inner.shared.state.lock().unwrap();
        while st.finished < n_workers {
            st = inner.shared.done_cv.wait(st).unwrap();
        }
        st.job = None;
        let worker_panicked = st.panicked;
        drop(st);
        if let Err(payload) = caller_result {
            resume_unwind(payload);
        }
        if worker_panicked {
            panic!("compute pool job panicked on a worker thread");
        }
    }

    /// Map `f` over `0..n`, returning results in index order. Slots are
    /// written in place, so output order never depends on scheduling.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let mut out: Vec<Option<T>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        let slots = SendPtr(out.as_mut_ptr());
        // `move` so the closure captures the `SendPtr` wrapper, not the raw
        // pointer field (which is neither `Send` nor `Sync` on its own).
        self.run(n, move |i| {
            // SAFETY: each unit index is claimed exactly once, so writes to
            // `slots[i]` are disjoint; the Vec outlives the (joined) scope.
            unsafe { *slots.get().add(i) = Some(f(i)) };
        });
        out.into_iter()
            .map(|slot| slot.expect("every unit index runs exactly once"))
            .collect()
    }

    /// Split `data` into consecutive chunks of `chunk_len` (the last may be
    /// short) and run `f(chunk_index, chunk)` over them in parallel. Chunk
    /// boundaries depend only on `data.len()` and `chunk_len` — never on
    /// pool width — which is what keeps chunked kernels bit-deterministic.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be > 0");
        let len = data.len();
        let n_chunks = len.div_ceil(chunk_len);
        let base = SendPtr(data.as_mut_ptr());
        self.run(n_chunks, move |ci| {
            let start = ci * chunk_len;
            let end = (start + chunk_len).min(len);
            // SAFETY: chunks [start, end) are pairwise disjoint across unit
            // indices and in bounds; `data` outlives the joined scope.
            let slice =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
            f(ci, slice);
        });
    }
}

/// Decrements the pool's active count on drop (normal return or unwind).
struct OccupancyGuard<'a>(&'a AtomicUsize);

impl Drop for OccupancyGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Raw pointer wrapper shared by scoped jobs. Soundness of each use is
/// argued at the call site (disjoint per-unit access + scope join).
struct SendPtr<T>(*mut T);

unsafe impl<T> Sync for SendPtr<T> {}
unsafe impl<T> Send for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor instead of direct field reads: closures touching `.0` would
    /// capture the bare raw pointer (edition-2021 disjoint capture) and lose
    /// the wrapper's `Send + Sync`.
    fn get(&self) -> *mut T {
        self.0
    }
}

fn worker_loop(shared: &Shared, n_workers: usize, idx: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    // Workers outside the epoch's live width check in
                    // immediately: the scope join still counts every
                    // spawned worker, so resizing can never deadlock it.
                    break (st.active > idx).then(|| st.job.expect("job published with epoch"));
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        let result = match &job {
            Some(job) => catch_unwind(AssertUnwindSafe(|| job.call())),
            None => Ok(()),
        };
        let mut st = shared.state.lock().unwrap();
        if result.is_err() {
            st.panicked = true;
        }
        st.finished += 1;
        if st.finished == n_workers {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn sequential_pool_runs_inline() {
        let pool = ComputePool::sequential();
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        let mut same_thread = true;
        let flag = Mutex::new(&mut same_thread);
        pool.run(8, |_| {
            if std::thread::current().id() != caller {
                **flag.lock().unwrap() = false;
            }
        });
        assert!(same_thread);
    }

    #[test]
    fn zero_width_behaves_like_sequential() {
        let pool = ComputePool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.map(3, |i| i * 2), vec![0, 2, 4]);
    }

    #[test]
    fn run_covers_every_unit_exactly_once() {
        let pool = ComputePool::new(4);
        let n = 10_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        pool.run(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_preserves_index_order() {
        for width in [1, 2, 4, 7] {
            let pool = ComputePool::new(width);
            let out = pool.map(1000, |i| i as u64 * 3 + 1);
            let expect: Vec<u64> = (0..1000).map(|i| i * 3 + 1).collect();
            assert_eq!(out, expect, "width={width}");
        }
    }

    #[test]
    fn chunks_are_fixed_and_disjoint() {
        for width in [1, 3, 8] {
            let pool = ComputePool::new(width);
            let mut data = vec![0u32; 103];
            pool.for_each_chunk_mut(&mut data, 10, |ci, chunk| {
                assert!(chunk.len() == 10 || (ci == 10 && chunk.len() == 3));
                for v in chunk.iter_mut() {
                    *v += 1 + ci as u32;
                }
            });
            for (i, v) in data.iter().enumerate() {
                assert_eq!(*v, 1 + (i / 10) as u32, "width={width} i={i}");
            }
        }
    }

    #[test]
    fn empty_job_is_noop() {
        let pool = ComputePool::new(4);
        pool.run(0, |_| panic!("no units"));
        assert!(pool.map(0, |_| 0u8).is_empty());
        pool.for_each_chunk_mut(&mut [0u8; 0], 4, |_, _| panic!("no chunks"));
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let pool = ComputePool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, |i| {
                if i == 13 {
                    panic!("unit 13 exploded");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must still work after the panic.
        assert_eq!(pool.map(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn borrows_caller_state() {
        let pool = ComputePool::new(3);
        let input: Vec<u64> = (0..512).collect();
        let sum: u64 = pool
            .map(8, |ci| input[ci * 64..(ci + 1) * 64].iter().sum::<u64>())
            .into_iter()
            .sum();
        assert_eq!(sum, (0..512).sum::<u64>());
    }

    #[test]
    fn back_to_back_jobs_reuse_workers() {
        let pool = ComputePool::new(4);
        for round in 0..100 {
            let out = pool.map(16, move |i| i + round);
            assert_eq!(out[0], round);
            assert_eq!(out[15], 15 + round);
        }
    }

    #[test]
    fn concurrent_callers_share_one_pool() {
        // Two tasks of the same pilot fan out through one shared pool:
        // jobs serialise, results stay correct for both callers.
        let pool = Arc::new(ComputePool::new(4));
        let handles: Vec<_> = (0..3)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for round in 0..50u64 {
                        let out = pool.map(32, move |i| i as u64 + round * 1000 + t * 100_000);
                        for (i, v) in out.iter().enumerate() {
                            assert_eq!(*v, i as u64 + round * 1000 + t * 100_000);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn width_reporting() {
        assert_eq!(ComputePool::new(6).threads(), 6);
        assert_eq!(ComputePool::default().threads(), 1);
        assert_eq!(ComputePool::new(6).capacity(), 6);
    }

    #[test]
    fn set_width_clamps_to_capacity() {
        let pool = ComputePool::resizable(2, 4);
        assert_eq!(pool.threads(), 2);
        assert_eq!(pool.capacity(), 4);
        assert_eq!(pool.set_width(9), 4);
        assert_eq!(pool.threads(), 4);
        assert_eq!(pool.set_width(0), 1);
        assert_eq!(pool.threads(), 1);
        // A fixed pool clamps to its construction width.
        let fixed = ComputePool::new(3);
        assert_eq!(fixed.set_width(16), 3);
    }

    #[test]
    fn inline_pool_ignores_resize() {
        let pool = ComputePool::resizable(1, 1);
        assert_eq!(pool.set_width(8), 1);
        assert_eq!(pool.map(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn results_identical_across_live_resizes() {
        // The determinism contract under resize: the same chunked kernel
        // produces bit-identical output at every width, including widths
        // changed between (and raced with) jobs.
        let pool = ComputePool::resizable(1, 8);
        let expect: Vec<u64> = (0..1000).map(|i| i * 7 + 3).collect();
        for width in [1, 4, 8, 2, 5, 1, 8] {
            pool.set_width(width);
            assert_eq!(
                pool.map(1000, |i| i as u64 * 7 + 3),
                expect,
                "width={width}"
            );
        }
        let mut data = vec![0u32; 103];
        pool.set_width(3);
        pool.for_each_chunk_mut(&mut data, 10, |ci, chunk| {
            for v in chunk.iter_mut() {
                *v += 1 + ci as u32;
            }
        });
        for (i, v) in data.iter().enumerate() {
            assert_eq!(*v, 1 + (i / 10) as u32);
        }
    }

    #[test]
    fn resized_down_pool_still_joins_every_job() {
        // Shrinking to width 1 parks all workers but each job must still
        // join (all spawned workers check in per epoch).
        let pool = ComputePool::resizable(4, 4);
        pool.set_width(1);
        for round in 0..50u64 {
            let out = pool.map(16, move |i| i as u64 + round);
            assert_eq!(out[0], round);
        }
        pool.set_width(4);
        assert_eq!(pool.map(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn concurrent_resize_and_run() {
        let pool = Arc::new(ComputePool::resizable(2, 8));
        let stop = Arc::new(AtomicUsize::new(0));
        let resizer = {
            let (pool, stop) = (Arc::clone(&pool), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut w = 1;
                while stop.load(Ordering::Relaxed) == 0 {
                    w = w % 8 + 1;
                    pool.set_width(w);
                    std::thread::yield_now();
                }
            })
        };
        for round in 0..300u64 {
            let out = pool.map(64, move |i| i as u64 * 3 + round);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, i as u64 * 3 + round);
            }
        }
        stop.store(1, Ordering::Relaxed);
        resizer.join().unwrap();
    }

    #[test]
    fn occupancy_tracks_running_jobs() {
        for width in [1, 4] {
            let pool = Arc::new(ComputePool::new(width));
            assert_eq!(pool.occupancy(), 0, "width={width}");
            let seen = Arc::new(AtomicUsize::new(0));
            let (pool2, seen2) = (Arc::clone(&pool), Arc::clone(&seen));
            pool.run(8, |_| {
                // Sampled from inside the job: the pool is occupied.
                seen2.fetch_max(pool2.occupancy(), Ordering::Relaxed);
            });
            assert_eq!(seen.load(Ordering::Relaxed), 1, "width={width}");
            assert_eq!(pool.occupancy(), 0, "width={width}");
            assert_eq!(pool.jobs_started(), 1, "width={width}");
        }
    }

    #[test]
    fn occupancy_recovers_after_panic() {
        let pool = ComputePool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        assert_eq!(pool.occupancy(), 0, "guard must restore the gauge");
    }

    #[test]
    fn concurrent_callers_raise_occupancy() {
        let pool = Arc::new(ComputePool::new(2));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let (pool, peak) = (Arc::clone(&pool), Arc::clone(&peak));
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let p2 = Arc::clone(&pool);
                        let peak = Arc::clone(&peak);
                        pool.run(4, move |_| {
                            peak.fetch_max(p2.occupancy(), Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // With 3 callers racing, at least once two were in run() at the
        // same time (one running, one queued on the run lock).
        assert!(peak.load(Ordering::Relaxed) >= 2);
        assert_eq!(pool.occupancy(), 0);
        assert_eq!(pool.jobs_started(), 600);
    }
}
