//! # pilot-broker — an in-process Kafka-style partitioned commit log
//!
//! Pilot-Edge "extensively utilizes message brokering based on Kafka to
//! manage edge-to-cloud streaming topologies" (paper Section II-B): every
//! edge device produces into a dedicated partition of an automatically
//! created topic, and the cloud processing tasks consume those partitions
//! with a 1:1 partition-to-consumer ratio. Kafka itself is not available in
//! this environment, so this crate implements the subset of its semantics
//! the runtime exercises, from scratch — a commit log and nothing else:
//!
//! * [`Record`]s appended to per-partition, segmented, append-only
//!   [`log::PartitionLog`]s with dense offsets, optionally persisted
//!   through the [`storage`] engine ([`DurabilityConfig`], [`SyncPolicy`]);
//! * a [`Broker`] managing named [`topic::Topic`]s: one append path
//!   ([`Broker::append`]), a non-blocking single-partition
//!   [`Broker::fetch`], high watermarks, and consumer-group offset commits;
//! * one retention rule, the commit floor ([`RetentionPolicy`]): a topic
//!   keeps only what its committing consumer groups have not committed;
//! * one way to wait for data — the topic's arrival registry
//!   ([`topic::Topic::read_many_or_register`]): an append wakes exactly the
//!   waiters registered on its partition, whether that is a reactor task's
//!   waker or a thread parked in [`topic::Topic::read_many`];
//! * a [`Consumer`] with per-partition positions, pause/resume, a blocking
//!   [`Consumer::poll`] and an event-driven [`Consumer::poll_many_ready`]
//!   over one fetch body, and a [`group::GroupCoordinator`] doing Kafka's
//!   range assignment with generations.
//!
//! There is no client-side producer here: the runtime's producer (encode,
//! batch, link reservation, append) lives in `pilot-edge`, and devices
//! outside the process ingest through `pilot-gateway`'s `POST /produce`.
//!
//! The substitution preserves what matters for Fig. 2/3: per-partition FIFO
//! ordering, partition-parallel consumption, and an append/fetch service
//! time proportional to bytes moved. Network cost between clients and the
//! broker is *not* modelled here — the Pilot-Edge runtime charges
//! `pilot-netsim` links around every produce/fetch, mirroring the paper's
//! separation of broker and transport.

pub mod broker;
pub mod consumer;
pub mod error;
pub mod group;
pub mod log;
pub mod record;
pub mod retention;
pub mod storage;
pub mod topic;

pub use broker::{Broker, GroupId, PartitionLag, TopicId};
pub use consumer::Consumer;
pub use error::BrokerError;
pub use group::GroupCoordinator;
pub use log::ReadError;
pub use record::{Offset, Record};
pub use retention::RetentionPolicy;
pub use storage::{DurabilityConfig, LogStats, SyncPolicy};
