//! A small waker-based executor for polled state machines.
//!
//! The pilot abstraction multiplexes many small tasks onto a fixed resource
//! pool; after the fan-in scale-out the consumer side still burned one OS
//! thread per group member, each parked on a broker condvar. This module is
//! the structural fix: a [`LocalExecutor`] owns N worker threads and drives
//! an arbitrary number of [`ReactorTask`] state machines over them. A task
//! that cannot make progress returns [`ReactorPoll::Pending`] after handing
//! a [`Waker`] to whatever it is waiting on (broker readiness registration,
//! a link reservation deadline, a timer); the waker reschedules exactly that
//! task, so tens of thousands of idle members cost zero threads and zero
//! wakeups.
//!
//! The design follows the classic `Runnable` idiom (a run queue of
//! schedulable task cells, a per-task wake state machine) but is hand-rolled
//! on `std::task::Wake` — no async runtime, no futures, no `Pin`: tasks are
//! plain `poll(&mut self, &Waker)` objects, which keeps the broker and edge
//! state machines ordinary synchronous code.
//!
//! ## Task wake states
//!
//! Each spawned task lives in a `TaskCell` whose `state` word serializes the
//! race between wakers and workers:
//!
//! ```text
//!   IDLE ── wake ──▶ SCHEDULED ── worker pops ──▶ RUNNING ──┬─ Pending ─▶ IDLE
//!     ▲                                             │ wake  ├─ Ready ───▶ SCHEDULED
//!     └──────────── (no wake arrived) ◀─────────────┘       │
//!                                        NOTIFIED ◀─ wake ──┤
//!                                            │              └─ Complete ─▶ DONE
//!                                            └─▶ SCHEDULED (re-queued)
//! ```
//!
//! A wake during `RUNNING` parks in `NOTIFIED` and re-queues the task after
//! its poll returns — the lost-wakeup window between "poll found nothing"
//! and "task went idle" is closed by the compare-and-swap on `state`, not by
//! holding any lock across the poll.

use parking_lot::{Condvar, Mutex};
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};
use std::task::{Wake, Waker};
use std::time::{Duration, Instant};

/// What a [`ReactorTask::poll`] observed.
pub enum ReactorPoll {
    /// No progress possible; the task registered its waker with whatever it
    /// is waiting on and must not be re-polled until woken.
    Pending,
    /// Progress was made and more work is immediately available: re-queue
    /// behind the other ready tasks (cooperative yield).
    Ready,
    /// No progress until (at latest) the given instant: go idle, but arm a
    /// timer so the task is re-polled even if no wake arrives. Used for
    /// poll-timeout fallbacks and simulated-link transfer deadlines.
    PendingUntil(Instant),
    /// The task is finished; the result is surfaced through its handle.
    Complete(Result<u64, String>),
}

/// A polled state machine drivable by a [`LocalExecutor`].
///
/// `poll` must be non-blocking: any wait is expressed by registering `waker`
/// with the event source and returning [`ReactorPoll::Pending`] (or
/// [`ReactorPoll::PendingUntil`] when a deadline bounds the wait).
pub trait ReactorTask: Send {
    fn poll(&mut self, waker: &Waker) -> ReactorPoll;
}

/// The error a task's handle yields when its executor shut down before the
/// task finished (or before it was ever spawned).
pub const CANCELLED: &str = "cancelled (executor shut down)";

const IDLE: u8 = 0;
const SCHEDULED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// One spawned task: the state word, the task object, and its result slot.
struct TaskCell {
    name: String,
    state: AtomicU8,
    exec: Weak<ExecState>,
    /// The task itself; taken (dropped) on completion so held resources
    /// (consumers, channels) release as soon as the task finishes.
    inner: Mutex<Option<Box<dyn ReactorTask>>>,
    result: Mutex<Option<Result<u64, String>>>,
    done_cv: Condvar,
}

impl TaskCell {
    /// Wake-side state transition. Returns `true` when the caller must push
    /// the cell onto the ready queue (IDLE → SCHEDULED won the race);
    /// `false` when the task is already queued, running (NOTIFIED parked the
    /// wake), or done.
    fn try_schedule(&self) -> bool {
        loop {
            match self.state.load(Ordering::Acquire) {
                IDLE => {
                    if self
                        .state
                        .compare_exchange(IDLE, SCHEDULED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return true;
                    }
                }
                RUNNING => {
                    if self
                        .state
                        .compare_exchange(RUNNING, NOTIFIED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        return false;
                    }
                }
                SCHEDULED | NOTIFIED | DONE => return false,
                _ => unreachable!("invalid reactor task state"),
            }
        }
    }

    fn schedule(self: &Arc<Self>) {
        if self.try_schedule() {
            if let Some(exec) = self.exec.upgrade() {
                exec.push_ready(Arc::clone(self));
            }
        }
    }

    /// Settle the task: drop the task object (so what it holds — consumers,
    /// channels — is released now), publish the result, wake the waiters.
    fn finish(&self, res: Result<u64, String>) {
        *self.inner.lock() = None;
        let mut result = self.result.lock();
        *result = Some(res);
        self.state.store(DONE, Ordering::Release);
        self.done_cv.notify_all();
    }
}

impl Wake for TaskCell {
    fn wake(self: Arc<Self>) {
        self.schedule();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.schedule();
    }
}

/// A timer entry: re-poll `cell` at `at`. Ordered as a min-heap on `at`
/// (ties broken by insertion sequence) inside the max-heap `BinaryHeap`.
struct Timer {
    at: Instant,
    seq: u64,
    cell: Arc<TaskCell>,
}

impl PartialEq for Timer {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Timer {}
impl PartialOrd for Timer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Timer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at).then(other.seq.cmp(&self.seq))
    }
}

struct RunQueue {
    ready: VecDeque<Arc<TaskCell>>,
    timers: BinaryHeap<Timer>,
    timer_seq: u64,
}

struct ExecState {
    queue: Mutex<RunQueue>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// Instantaneous ready-queue depth (telemetry gauge source).
    ready_depth: AtomicI64,
    /// Cumulative microseconds spent inside task polls (telemetry).
    poll_us: AtomicU64,
    /// Cumulative number of polls executed.
    polls: AtomicU64,
    /// Tasks that completed with an error (a panicking poll included).
    failed: AtomicU64,
    /// Every spawned task, for [`LocalExecutor::wake_all`]. Dead entries are
    /// pruned when the list doubles past its high-water mark — an amortized
    /// O(1) per spawn, so registering 64k members stays linear instead of
    /// re-sweeping the whole list on every spawn.
    tasks: Mutex<TaskRegistry>,
}

struct TaskRegistry {
    list: Vec<Weak<TaskCell>>,
    prune_at: usize,
}

impl TaskRegistry {
    fn prune(&mut self) {
        self.list
            .retain(|w| w.upgrade().is_some_and(|c| !is_done(&c)));
        self.prune_at = (self.list.len() * 2).max(64);
    }
}

impl ExecState {
    fn push_ready(&self, cell: Arc<TaskCell>) {
        let mut q = self.queue.lock();
        q.ready.push_back(cell);
        self.ready_depth.fetch_add(1, Ordering::Relaxed);
        drop(q);
        self.cv.notify_one();
    }
}

/// Handle to a spawned reactor task.
pub struct ReactorHandle {
    cell: Arc<TaskCell>,
}

impl ReactorHandle {
    /// Block until the task completes. It always does: a task its executor
    /// never finished is settled with [`CANCELLED`] at shutdown.
    pub fn wait(&self) -> Result<u64, String> {
        self.wait_until(None)
            .expect("an untimed wait ends in a result")
    }

    /// Block until the task completes or the timeout elapses. Returns
    /// `None` on timeout; the task keeps running.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<u64, String>> {
        self.wait_until(Some(Instant::now() + timeout))
    }

    fn wait_until(&self, deadline: Option<Instant>) -> Option<Result<u64, String>> {
        let done = &self.cell.done_cv;
        let mut result = self.cell.result.lock();
        while result.is_none() {
            match deadline {
                None => done.wait(&mut result),
                Some(at) => {
                    if Instant::now() >= at || done.wait_until(&mut result, at).timed_out() {
                        break;
                    }
                }
            }
        }
        result.clone()
    }

    /// Whether the task has completed.
    pub fn is_finished(&self) -> bool {
        self.cell.state.load(Ordering::Acquire) == DONE
    }

    /// The name the task was spawned under.
    pub fn name(&self) -> &str {
        &self.cell.name
    }

    /// Re-schedule the task (e.g. after raising a stop flag it checks).
    pub fn wake(&self) {
        self.cell.schedule();
    }
}

/// A fixed pool of worker threads driving spawned [`ReactorTask`]s.
///
/// Thread count is fixed at construction and independent of the number of
/// spawned tasks: this is the property the consumer path's thread-count
/// acceptance test asserts.
pub struct LocalExecutor {
    shared: Arc<ExecState>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl LocalExecutor {
    /// Start an executor with `threads` worker threads (must be > 0).
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a reactor needs at least one worker thread");
        let shared = Arc::new(ExecState {
            queue: Mutex::new(RunQueue {
                ready: VecDeque::new(),
                timers: BinaryHeap::new(),
                timer_seq: 0,
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            ready_depth: AtomicI64::new(0),
            poll_us: AtomicU64::new(0),
            polls: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            tasks: Mutex::new(TaskRegistry {
                list: Vec::new(),
                prune_at: 64,
            }),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("reactor-{i}"))
                    .spawn(move || worker(shared))
                    .expect("spawn reactor worker")
            })
            .collect();
        Self {
            shared,
            threads: Mutex::new(handles),
        }
    }

    /// Spawn a task; it is polled for the first time as soon as a worker is
    /// free. The handle observes completion; dropping it detaches the task.
    /// On a shut-down executor the task is never polled and its handle
    /// yields [`CANCELLED`] at once.
    pub fn spawn(&self, name: &str, task: Box<dyn ReactorTask>) -> ReactorHandle {
        let cell = self.new_cell(name.to_string(), task);
        if self.register(std::slice::from_ref(&cell)) {
            self.shared.push_ready(Arc::clone(&cell));
        }
        ReactorHandle { cell }
    }

    /// Spawn a stage of named tasks, handles in the order given. The stage
    /// is queued under one lock and announced once: a thousand single
    /// spawns wake — and then contend with — the workers a thousand times.
    pub fn spawn_all(
        &self,
        tasks: impl IntoIterator<Item = (String, Box<dyn ReactorTask>)>,
    ) -> Vec<ReactorHandle> {
        let cells: Vec<Arc<TaskCell>> = tasks
            .into_iter()
            .map(|(name, task)| self.new_cell(name, task))
            .collect();
        if self.register(&cells) {
            self.shared.queue.lock().ready.extend(cells.iter().cloned());
            self.shared
                .ready_depth
                .fetch_add(cells.len() as i64, Ordering::Relaxed);
            self.shared.cv.notify_all();
        }
        cells
            .into_iter()
            .map(|cell| ReactorHandle { cell })
            .collect()
    }

    fn new_cell(&self, name: String, task: Box<dyn ReactorTask>) -> Arc<TaskCell> {
        Arc::new(TaskCell {
            name,
            state: AtomicU8::new(SCHEDULED),
            exec: Arc::downgrade(&self.shared),
            inner: Mutex::new(Some(task)),
            result: Mutex::new(None),
            done_cv: Condvar::new(),
        })
    }

    /// Enter `cells` in the registry [`LocalExecutor::wake_all`] and
    /// `shutdown` walk. `false` on a shut-down executor, the cells
    /// cancelled: the flag is read under the lock `shutdown` empties the
    /// registry through, so a task is either registered before that sweep
    /// — and cancelled by it — or refused here.
    fn register(&self, cells: &[Arc<TaskCell>]) -> bool {
        let mut tasks = self.shared.tasks.lock();
        if self.shared.shutdown.load(Ordering::Acquire) {
            drop(tasks);
            for cell in cells {
                cell.finish(Err(CANCELLED.into()));
            }
            return false;
        }
        if tasks.list.len() >= tasks.prune_at {
            tasks.prune();
        }
        tasks.list.extend(cells.iter().map(Arc::downgrade));
        true
    }

    /// Schedule every live task for a poll. Used when raising an
    /// out-of-band flag (stop/abort) that tasks only observe inside `poll`.
    pub fn wake_all(&self) {
        let cells: Vec<Arc<TaskCell>> = {
            let mut tasks = self.shared.tasks.lock();
            tasks.prune();
            tasks.list.iter().filter_map(Weak::upgrade).collect()
        };
        for cell in cells {
            cell.schedule();
        }
    }

    /// Instantaneous ready-queue depth.
    pub fn ready_depth(&self) -> i64 {
        self.shared.ready_depth.load(Ordering::Relaxed)
    }

    /// Cumulative microseconds spent inside task polls.
    pub fn poll_time_us(&self) -> u64 {
        self.shared.poll_us.load(Ordering::Relaxed)
    }

    /// Cumulative number of polls executed.
    pub fn poll_count(&self) -> u64 {
        self.shared.polls.load(Ordering::Relaxed)
    }

    /// Tasks that completed with an error so far — a panicking poll
    /// included, cancellations at shutdown not.
    pub fn failed_count(&self) -> u64 {
        self.shared.failed.load(Ordering::Relaxed)
    }

    /// Number of worker threads.
    pub fn thread_count(&self) -> usize {
        self.threads.lock().len()
    }

    /// Stop the workers and join them: a poll in progress runs to its end,
    /// nothing is polled after it. Tasks still unfinished then are settled
    /// with [`CANCELLED`], so no handle waits for ever; callers that want
    /// results drive their tasks to completion (stop flag +
    /// [`LocalExecutor::wake_all`]) first.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.cv_broadcast();
        for t in self.threads.lock().drain(..) {
            let _ = t.join();
        }
        // Taken out under the lock, settled outside it: a task object may
        // wake other tasks as it is dropped.
        let abandoned = std::mem::take(&mut self.shared.tasks.lock().list);
        for cell in abandoned.iter().filter_map(Weak::upgrade) {
            if !is_done(&cell) {
                cell.finish(Err(CANCELLED.into()));
            }
        }
    }

    fn cv_broadcast(&self) {
        // Take the lock so a worker between its shutdown check and its
        // cv.wait cannot miss the notify.
        let _q = self.shared.queue.lock();
        self.shared.cv.notify_all();
    }
}

impl Drop for LocalExecutor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn is_done(cell: &TaskCell) -> bool {
    cell.state.load(Ordering::Acquire) == DONE
}

fn worker(shared: Arc<ExecState>) {
    loop {
        // Pop phase: fire due timers, take the next ready cell, or sleep
        // until the earliest timer / a notify.
        let cell = {
            let mut q = shared.queue.lock();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let now = Instant::now();
                while q.timers.peek().is_some_and(|t| t.at <= now) {
                    let t = q.timers.pop().expect("peeked timer");
                    if t.cell.try_schedule() {
                        q.ready.push_back(t.cell);
                        shared.ready_depth.fetch_add(1, Ordering::Relaxed);
                        // Another worker may be sleeping while we hold the
                        // only runnable work: hand the surplus over.
                        shared.cv.notify_one();
                    }
                }
                if let Some(c) = q.ready.pop_front() {
                    shared.ready_depth.fetch_sub(1, Ordering::Relaxed);
                    break c;
                }
                match q.timers.peek().map(|t| t.at) {
                    Some(at) => {
                        shared.cv.wait_until(&mut q, at);
                    }
                    None => shared.cv.wait(&mut q),
                }
            }
        };

        // Run phase: poll outside the queue lock.
        cell.state.store(RUNNING, Ordering::Release);
        let waker = Waker::from(Arc::clone(&cell));
        let start = Instant::now();
        let polled = {
            let mut inner = cell.inner.lock();
            // A panicking poll is that task's error, not this thread's end:
            // the worker keeps serving the queue.
            inner.as_mut().map(|task| {
                catch_unwind(AssertUnwindSafe(|| task.poll(&waker))).unwrap_or_else(|panic| {
                    let msg = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "<non-string panic>".to_string());
                    ReactorPoll::Complete(Err(format!("panicked: {msg}")))
                })
            })
        };
        shared
            .poll_us
            .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        shared.polls.fetch_add(1, Ordering::Relaxed);

        match polled {
            None => {
                // Task object already gone (completed elsewhere): nothing
                // to do beyond marking done.
                cell.state.store(DONE, Ordering::Release);
            }
            Some(ReactorPoll::Ready) => {
                // Cooperative yield: overwrite a possible NOTIFIED — both
                // mean "queued again".
                cell.state.store(SCHEDULED, Ordering::Release);
                shared.push_ready(cell);
            }
            Some(ReactorPoll::Pending) => {
                if cell
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // A wake arrived during the poll (NOTIFIED): the event
                    // may have landed after the poll's last look — re-queue.
                    cell.state.store(SCHEDULED, Ordering::Release);
                    shared.push_ready(cell);
                }
            }
            Some(ReactorPoll::PendingUntil(at)) => {
                if cell
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    let mut q = shared.queue.lock();
                    let seq = q.timer_seq;
                    q.timer_seq += 1;
                    q.timers.push(Timer {
                        at,
                        seq,
                        cell: Arc::clone(&cell),
                    });
                    drop(q);
                    // The new timer may be the earliest deadline; wake a
                    // sleeper so it re-computes its wait.
                    shared.cv.notify_one();
                } else {
                    // NOTIFIED raced: skip the timer, run now. A stale
                    // timer from an earlier cycle firing later is harmless:
                    // `try_schedule` on a queued/running task is a no-op,
                    // and on an idle one it causes one spurious poll.
                    cell.state.store(SCHEDULED, Ordering::Release);
                    shared.push_ready(cell);
                }
            }
            Some(ReactorPoll::Complete(res)) => {
                if res.is_err() {
                    shared.failed.fetch_add(1, Ordering::Relaxed);
                }
                cell.finish(res);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Counts down `n` polls, yielding between each, then completes.
    struct CountDown {
        left: u64,
        polls: Arc<AtomicUsize>,
    }

    impl ReactorTask for CountDown {
        fn poll(&mut self, _waker: &Waker) -> ReactorPoll {
            self.polls.fetch_add(1, Ordering::SeqCst);
            if self.left == 0 {
                ReactorPoll::Complete(Ok(0))
            } else {
                self.left -= 1;
                ReactorPoll::Ready
            }
        }
    }

    #[test]
    fn tasks_complete_and_report_results() {
        let exec = LocalExecutor::new(2);
        let polls = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..16)
            .map(|i| {
                exec.spawn(
                    &format!("t{i}"),
                    Box::new(CountDown {
                        left: 3,
                        polls: Arc::clone(&polls),
                    }),
                )
            })
            .collect();
        for h in &handles {
            assert_eq!(
                h.wait_timeout(Duration::from_secs(5)),
                Some(Ok(0)),
                "{} did not finish",
                h.name()
            );
            assert!(h.is_finished());
        }
        assert_eq!(polls.load(Ordering::SeqCst), 16 * 4);
        assert_eq!(exec.poll_count(), 16 * 4);
        assert_eq!(exec.ready_depth(), 0);
        assert_eq!(exec.thread_count(), 2);
    }

    /// Parks Pending until an external waker fires, then completes.
    struct WaitForFlag {
        flag: Arc<AtomicBool>,
        waker_slot: Arc<Mutex<Option<Waker>>>,
        polls: Arc<AtomicUsize>,
    }

    impl ReactorTask for WaitForFlag {
        fn poll(&mut self, waker: &Waker) -> ReactorPoll {
            self.polls.fetch_add(1, Ordering::SeqCst);
            if self.flag.load(Ordering::SeqCst) {
                ReactorPoll::Complete(Ok(1))
            } else {
                *self.waker_slot.lock() = Some(waker.clone());
                ReactorPoll::Pending
            }
        }
    }

    #[test]
    fn external_wake_resumes_a_pending_task() {
        let exec = LocalExecutor::new(1);
        let flag = Arc::new(AtomicBool::new(false));
        let slot: Arc<Mutex<Option<Waker>>> = Arc::new(Mutex::new(None));
        let polls = Arc::new(AtomicUsize::new(0));
        let h = exec.spawn(
            "waiter",
            Box::new(WaitForFlag {
                flag: Arc::clone(&flag),
                waker_slot: Arc::clone(&slot),
                polls: Arc::clone(&polls),
            }),
        );
        // First poll parks the task.
        let t = Instant::now();
        while slot.lock().is_none() {
            assert!(t.elapsed() < Duration::from_secs(5), "task never polled");
            std::thread::yield_now();
        }
        assert!(h.wait_timeout(Duration::from_millis(50)).is_none());
        // Raise the flag, then wake: exactly one more poll completes it.
        flag.store(true, Ordering::SeqCst);
        slot.lock().take().unwrap().wake();
        assert_eq!(h.wait_timeout(Duration::from_secs(5)), Some(Ok(1)));
        assert_eq!(polls.load(Ordering::SeqCst), 2);
    }

    /// Completes after its deadline passes, with no external wake at all.
    struct TimerOnly {
        deadline: Option<Instant>,
        delay: Duration,
    }

    impl ReactorTask for TimerOnly {
        fn poll(&mut self, _waker: &Waker) -> ReactorPoll {
            match self.deadline {
                None => {
                    let at = Instant::now() + self.delay;
                    self.deadline = Some(at);
                    ReactorPoll::PendingUntil(at)
                }
                Some(at) if Instant::now() >= at => ReactorPoll::Complete(Ok(2)),
                Some(at) => ReactorPoll::PendingUntil(at),
            }
        }
    }

    #[test]
    fn pending_until_fires_without_external_wakes() {
        let exec = LocalExecutor::new(1);
        let t = Instant::now();
        let h = exec.spawn(
            "timer",
            Box::new(TimerOnly {
                deadline: None,
                delay: Duration::from_millis(40),
            }),
        );
        assert_eq!(h.wait_timeout(Duration::from_secs(5)), Some(Ok(2)));
        let elapsed = t.elapsed();
        assert!(
            elapsed >= Duration::from_millis(40),
            "timer fired early: {elapsed:?}"
        );
    }

    #[test]
    fn wake_during_poll_requeues_instead_of_losing_the_event() {
        // The task spins inside poll until its waker has been fired by the
        // main thread; the NOTIFIED transition must re-queue it so the
        // post-wake state is observed by a second poll.
        struct SpinOnce {
            woken: Arc<AtomicBool>,
            phase: usize,
        }
        impl ReactorTask for SpinOnce {
            fn poll(&mut self, waker: &Waker) -> ReactorPoll {
                self.phase += 1;
                match self.phase {
                    1 => {
                        // Fire our own waker *while running*: must park in
                        // NOTIFIED and re-queue us after this poll returns.
                        waker.wake_by_ref();
                        self.woken.store(true, Ordering::SeqCst);
                        ReactorPoll::Pending
                    }
                    _ => ReactorPoll::Complete(Ok(self.phase as u64)),
                }
            }
        }
        let exec = LocalExecutor::new(1);
        let h = exec.spawn(
            "spin",
            Box::new(SpinOnce {
                woken: Arc::new(AtomicBool::new(false)),
                phase: 0,
            }),
        );
        // Completes only if the in-poll wake re-queued it (phase 2).
        assert_eq!(h.wait_timeout(Duration::from_secs(5)), Some(Ok(2)));
    }

    #[test]
    fn wake_all_reaches_idle_tasks() {
        let exec = LocalExecutor::new(2);
        let flag = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                exec.spawn(
                    &format!("w{i}"),
                    Box::new(WaitForFlag {
                        flag: Arc::clone(&flag),
                        waker_slot: Arc::new(Mutex::new(None)),
                        polls: Arc::new(AtomicUsize::new(0)),
                    }),
                )
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        flag.store(true, Ordering::SeqCst);
        exec.wake_all();
        for h in handles {
            assert_eq!(h.wait_timeout(Duration::from_secs(5)), Some(Ok(1)));
        }
    }

    #[test]
    fn errors_surface_through_the_handle() {
        struct Fails;
        impl ReactorTask for Fails {
            fn poll(&mut self, _w: &Waker) -> ReactorPoll {
                ReactorPoll::Complete(Err("boom".into()))
            }
        }
        let exec = LocalExecutor::new(1);
        let h = exec.spawn("fails", Box::new(Fails));
        assert_eq!(
            h.wait_timeout(Duration::from_secs(5)),
            Some(Err("boom".into()))
        );
        assert_eq!(exec.failed_count(), 1);
    }

    #[test]
    fn panicking_poll_is_an_error_and_the_worker_survives() {
        struct Panics(Arc<AtomicBool>);
        impl ReactorTask for Panics {
            fn poll(&mut self, _w: &Waker) -> ReactorPoll {
                panic!("kaput")
            }
        }
        impl Drop for Panics {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        // One thread: the sibling only completes if the thread that caught
        // the panic keeps serving the queue.
        let exec = LocalExecutor::new(1);
        let dropped = Arc::new(AtomicBool::new(false));
        let bad = exec.spawn("panics", Box::new(Panics(Arc::clone(&dropped))));
        let good = exec.spawn(
            "sibling",
            Box::new(CountDown {
                left: 2,
                polls: Arc::new(AtomicUsize::new(0)),
            }),
        );
        assert_eq!(bad.wait(), Err("panicked: kaput".into()));
        assert!(dropped.load(Ordering::SeqCst), "task object not dropped");
        assert_eq!(good.wait_timeout(Duration::from_secs(5)), Some(Ok(0)));
        assert_eq!(exec.failed_count(), 1);
        assert_eq!(exec.thread_count(), 1);
    }

    #[test]
    fn shutdown_cancels_what_it_abandons() {
        let exec = LocalExecutor::new(1);
        let parked = exec.spawn(
            "parked",
            Box::new(WaitForFlag {
                flag: Arc::new(AtomicBool::new(false)),
                waker_slot: Arc::new(Mutex::new(None)),
                polls: Arc::new(AtomicUsize::new(0)),
            }),
        );
        let timed = exec.spawn(
            "timed",
            Box::new(TimerOnly {
                deadline: None,
                delay: Duration::from_secs(3600),
            }),
        );
        exec.shutdown();
        assert_eq!(parked.wait(), Err(CANCELLED.into()));
        assert_eq!(timed.wait(), Err(CANCELLED.into()));
        // Spawned too late: never polled, cancelled at once.
        let polls = Arc::new(AtomicUsize::new(0));
        let late = exec.spawn(
            "late",
            Box::new(CountDown {
                left: 0,
                polls: Arc::clone(&polls),
            }),
        );
        assert_eq!(late.wait(), Err(CANCELLED.into()));
        assert_eq!(polls.load(Ordering::SeqCst), 0);
        assert_eq!(exec.failed_count(), 0, "a cancellation is not a failure");
    }
}
