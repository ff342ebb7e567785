//! # pilot-dataflow — the two executors a pilot's cores run
//!
//! Pilot-Edge executes its FaaS tasks "using a managed Dask cluster on the
//! specified location" (paper Section II-B), and simulates each edge device
//! "with a Dask task, allocating one core" (Section III.1). Dask is a Python
//! system; what this crate keeps of it is the part the paper relies on — *a
//! pilot's cores drive the tasks placed on it* — in two shapes:
//!
//! * [`LocalExecutor`] — the **reactor**: a fixed pool of threads (one per
//!   core the pilot lends) driving any number of waker-based
//!   [`ReactorTask`] state machines. A pipeline's edge devices and consumer
//!   members, a federation's cells and aggregators are all reactor tasks: a
//!   parked task costs no thread, a panicking poll is that task's error and
//!   nothing else's (see [`reactor`]).
//! * [`ComputePool`] — the orthogonal *intra*-task axis: persistent scoped
//!   worker threads that fan one hot kernel (a model fit/score) out across
//!   the cores a single cloud pilot owns, with deterministic chunked
//!   primitives (see [`pool`]).
//!
//! P\*'s *compute unit* — a closure handed to a pilot and late-bound to one
//! of its cores — is not a third executor: [`Client::submit`] runs it as a
//! one-shot task on a [`LocalExecutor`] and returns a blocking
//! [`TaskFuture`] (see [`client`]).
//!
//! What is deliberately *not* modelled from Dask: task graphs (dependencies,
//! transitive failure), per-task memory accounting, priorities, retries,
//! `gather`, data locality and work stealing. Nothing on the data path ever
//! submitted a task with a dependency, a memory figure or a priority — the
//! paper's workloads pin one long-running task per device and per
//! partition, so those mechanisms would never fire.

pub mod client;
pub mod pool;
pub mod reactor;

pub use client::{Client, Payload, TaskError, TaskFuture};
pub use pool::ComputePool;
pub use reactor::{LocalExecutor, ReactorHandle, ReactorPoll, ReactorTask};
