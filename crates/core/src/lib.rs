//! # pilot-core — the pilot abstraction
//!
//! "The term pilot refers to a placeholder job in a queuing system that
//! allocates resources on which the application can execute tasks. A pilot
//! generally refers to a dedicated resource set that an application owns,
//! e.g., a virtual machine, a job partition (HPC), or a Lambda function"
//! (paper Section II-A, citing the P* model \[10\]). The pilot abstraction
//! *decouples resource and workload management*: acquiring the resource
//! (step 1 of Fig. 1) is separate from running tasks on it (step 2).
//!
//! This crate implements that abstraction over simulated resources:
//!
//! * [`PilotDescription`] — what to allocate: a resource URL
//!   (`local://`, `ssh://host`, `openstack://site/flavor`, `batch://queue`),
//!   cores, memory, walltime, and the site it lives on. Presets mirror the
//!   paper's testbed (LRZ medium 4 cores/18 GB, LRZ large 10 cores/44 GB,
//!   Jetstream medium 6 cores/16 GB, RasPi-class edge devices).
//! * [`ResourceBackend`] — the plugin interface ("supports various resource
//!   types via a plugin-based architecture"). Shipped plugins simulate the
//!   lifecycle cost of each class: instant local processes, SSH-bootstrapped
//!   edge devices, cloud VMs with boot delays, and an HPC [`BatchQueue`]
//!   with capacity-limited FIFO scheduling and real queue-wait behaviour.
//! * [`Pilot`] — the placeholder job: a state machine
//!   (`New → Submitted → Queued → Active → Done/Failed/Cancelled`) that,
//!   once active, lends its cores to what is placed on it: compute units
//!   submitted through [`Pilot::client`] (one-shot tasks on a
//!   `pilot-dataflow` executor of `cores` threads, built at the first
//!   call), a pipeline's reactor, a `pilot-broker` broker or a
//!   `pilot-params` parameter server — "the pilot abstraction can manage
//!   brokering and data processing frameworks, e.g., Kafka and Dask".
//! * [`PilotComputeService`] — the application-facing factory that routes
//!   descriptions to backends by URL scheme and tracks every pilot it made.
//!
//! Energy accounting (`pilot-metrics`' future-work hook) is wired through:
//! each pilot knows its hardware class and reports joules from the busy
//! time of its compute units and of the frameworks it hosts.

pub mod backend;
pub mod description;
pub mod error;
pub mod pilot;
pub mod queue;
pub mod service;
pub mod state;

pub use backend::{
    BatchQueueBackend, CloudVmBackend, LocalBackend, ProvisionedResource, ResourceBackend,
    ServerlessBackend, SshEdgeBackend,
};
pub use description::PilotDescription;
pub use error::PilotError;
pub use pilot::Pilot;
pub use queue::BatchQueue;
pub use service::PilotComputeService;
pub use state::PilotState;
