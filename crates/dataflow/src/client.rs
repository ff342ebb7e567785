//! Compute units: one-shot closures on a pilot's cores.
//!
//! P\* keeps three things of a pilot system — the pilot, the compute unit
//! and late binding. This is the compute unit: [`Client::submit`] hands a
//! closure to the [`LocalExecutor`] its pilot owns, where it runs as a
//! reactor task that completes at its first poll. The executor's thread
//! count is the pilot's core count, so at most that many units run at once
//! and the rest start in submission order; a unit that panics is its own
//! error (the reactor's guard); units still queued when the pilot goes away
//! are cancelled.

use crate::reactor::{LocalExecutor, ReactorHandle, ReactorPoll, ReactorTask, CANCELLED};
use parking_lot::Mutex;
use std::any::Any;
use std::sync::Arc;
use std::task::Waker;
use std::time::Duration;

/// Type-erased output of a compute unit.
pub type Payload = Arc<dyn Any + Send + Sync>;

/// Why a compute unit has no output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The closure returned an error, or panicked (`"panicked: <message>"`).
    Failed(String),
    /// The executor shut down before the unit ran.
    Cancelled,
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Failed(msg) => write!(f, "task failed: {msg}"),
            TaskError::Cancelled => f.write_str(CANCELLED),
        }
    }
}

impl std::error::Error for TaskError {}

/// Result of a finished compute unit.
pub type TaskResult = Result<Payload, TaskError>;

type UnitFn = Box<dyn FnOnce() -> Result<Payload, String> + Send>;

/// A unit on the executor: runs its closure at the first (only) poll.
struct Unit {
    run: Option<UnitFn>,
    out: Arc<Mutex<Option<Payload>>>,
}

impl ReactorTask for Unit {
    fn poll(&mut self, _waker: &Waker) -> ReactorPoll {
        let run = self.run.take().expect("a compute unit is polled once");
        ReactorPoll::Complete(run().map(|payload| {
            *self.out.lock() = Some(payload);
            0
        }))
    }
}

/// Submits compute units to one executor. Cheap to clone.
///
/// ```
/// use pilot_dataflow::{Client, LocalExecutor};
/// use std::sync::Arc;
///
/// let client = Client::from(Arc::new(LocalExecutor::new(2)));
/// let a = client.submit("a", || Ok(20_i64)).unwrap();
/// let b = client.submit("b", || Ok(22_i64)).unwrap();
/// assert_eq!(a.wait_as::<i64>().unwrap() + b.wait_as::<i64>().unwrap(), 42);
/// ```
#[derive(Clone)]
pub struct Client {
    exec: Arc<LocalExecutor>,
}

impl From<Arc<LocalExecutor>> for Client {
    fn from(exec: Arc<LocalExecutor>) -> Self {
        Self { exec }
    }
}

impl Client {
    /// Run `f` as one compute unit. [`TaskError::Cancelled`] when the
    /// executor has shut down.
    pub fn submit<F, T>(&self, name: &str, f: F) -> Result<TaskFuture, TaskError>
    where
        F: FnOnce() -> Result<T, String> + Send + 'static,
        T: Send + Sync + 'static,
    {
        let out = Arc::new(Mutex::new(None));
        let unit = Unit {
            run: Some(Box::new(move || f().map(|v| Arc::new(v) as Payload))),
            out: Arc::clone(&out),
        };
        let future = TaskFuture {
            handle: self.exec.spawn(name, Box::new(unit)),
            out,
        };
        match future.wait_timeout(Duration::ZERO) {
            Some(Err(TaskError::Cancelled)) => Err(TaskError::Cancelled),
            _ => Ok(future),
        }
    }
}

/// A handle to a submitted unit's eventual result.
pub struct TaskFuture {
    handle: ReactorHandle,
    out: Arc<Mutex<Option<Payload>>>,
}

impl TaskFuture {
    fn resolve(&self, result: Result<u64, String>) -> TaskResult {
        match result {
            Ok(_) => Ok(self.out.lock().clone().expect("a finished unit stored")),
            Err(e) if e == CANCELLED => Err(TaskError::Cancelled),
            Err(e) => Err(TaskError::Failed(e)),
        }
    }

    /// Block until the unit finishes (or is cancelled).
    pub fn wait(&self) -> TaskResult {
        self.resolve(self.handle.wait())
    }

    /// Block up to `timeout`; `None` if the unit is still queued or running.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<TaskResult> {
        self.handle.wait_timeout(timeout).map(|r| self.resolve(r))
    }

    /// Wait and downcast the payload to `T`. `Err` on failure, cancellation
    /// or a type mismatch.
    pub fn wait_as<T: 'static + Send + Sync + Clone>(&self) -> Result<T, String> {
        let payload = self.wait().map_err(|e| e.to_string())?;
        payload
            .downcast_ref::<T>()
            .cloned()
            .ok_or_else(|| format!("payload of {} has unexpected type", self.handle.name()))
    }

    /// True once the unit finished, failed or was cancelled.
    pub fn is_finished(&self) -> bool {
        self.handle.is_finished()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn client(threads: usize) -> (Arc<LocalExecutor>, Client) {
        let exec = Arc::new(LocalExecutor::new(threads));
        let client = Client::from(Arc::clone(&exec));
        (exec, client)
    }

    #[test]
    fn submit_and_wait() {
        let (_exec, c) = client(2);
        let f = c.submit("answer", || Ok(21 * 2)).unwrap();
        assert_eq!(f.wait_as::<i32>().unwrap(), 42);
        assert!(f.is_finished());
        assert!(f.wait_as::<String>().unwrap_err().contains("answer"));
    }

    #[test]
    fn parallel_execution_uses_all_workers() {
        let (_exec, c) = client(4);
        let start = Instant::now();
        let futures: Vec<_> = (0..4)
            .map(|i| {
                c.submit(&format!("sleep{i}"), || {
                    std::thread::sleep(Duration::from_millis(100));
                    Ok(())
                })
                .unwrap()
            })
            .collect();
        for f in &futures {
            f.wait().unwrap();
        }
        // 4 × 100 ms on 4 workers ≈ 100 ms, not 400 ms.
        assert!(start.elapsed() < Duration::from_millis(320));
    }

    #[test]
    fn panic_is_captured_not_fatal() {
        let (_exec, c) = client(1);
        let p = c
            .submit("panics", || -> Result<(), String> { panic!("kaput") })
            .unwrap();
        assert_eq!(
            p.wait().unwrap_err(),
            TaskError::Failed("panicked: kaput".into())
        );
        // The worker survives and runs the next unit.
        let ok = c.submit("ok", || Ok(5u8)).unwrap();
        assert_eq!(ok.wait_as::<u8>().unwrap(), 5);
        let bad = c
            .submit("bad", || -> Result<(), String> { Err("boom".into()) })
            .unwrap();
        assert_eq!(bad.wait().unwrap_err(), TaskError::Failed("boom".into()));
    }

    #[test]
    fn wait_timeout_on_long_task() {
        let (_exec, c) = client(1);
        let f = c
            .submit("slow", || {
                std::thread::sleep(Duration::from_millis(200));
                Ok(())
            })
            .unwrap();
        assert!(f.wait_timeout(Duration::from_millis(20)).is_none());
        assert!(!f.is_finished());
        assert!(f.wait_timeout(Duration::from_secs(5)).is_some());
    }

    #[test]
    fn shutdown_cancels_queued_tasks() {
        let (exec, c) = client(1);
        let running = c
            .submit("running", || {
                std::thread::sleep(Duration::from_millis(100));
                Ok(())
            })
            .unwrap();
        let queued = c
            .submit("queued", || {
                std::thread::sleep(Duration::from_secs(10));
                Ok(())
            })
            .unwrap();
        std::thread::sleep(Duration::from_millis(20)); // let `running` start
        exec.shutdown();
        // The unit in progress ran to its end; the one behind it never ran.
        assert!(running.wait().is_ok());
        assert_eq!(queued.wait().unwrap_err(), TaskError::Cancelled);
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let (exec, c) = client(1);
        exec.shutdown();
        assert!(matches!(
            c.submit("late", || Ok(())),
            Err(TaskError::Cancelled)
        ));
    }

    #[test]
    fn busy_time_is_accounted() {
        let (exec, c) = client(2);
        let futures: Vec<_> = (0..4)
            .map(|i| {
                c.submit(&format!("t{i}"), || {
                    std::thread::sleep(Duration::from_millis(20));
                    Ok(())
                })
                .unwrap()
            })
            .collect();
        for f in futures {
            f.wait().unwrap();
        }
        assert!(exec.poll_time_us() >= 70_000, "{}", exec.poll_time_us());
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            TaskError::Failed("boom".into()).to_string(),
            "task failed: boom"
        );
        assert_eq!(TaskError::Cancelled.to_string(), CANCELLED);
    }
}
