//! The live knob table: one shared `TuneTable` of atomic knob cells
//! replaces the per-stage config *values* on the hot paths.
//!
//! [`PipelineConfig::resolve`](crate::pipeline::PipelineConfig::resolve)
//! still validates and splits the flat config at `start()` — but where the
//! stages used to read the frozen copies (`shared.transport.batch_max_bytes`
//! and friends), they now re-read the corresponding [`TuneTable`] cell at
//! their loop/poll boundaries:
//!
//! | cell              | re-read at                                         |
//! |-------------------|----------------------------------------------------|
//! | `batch_max_bytes` | every `DeviceProducer::step` / `Batcher::push`     |
//! | `linger_us`       | every `Batcher::push`                              |
//! | `prefetch_depth`  | every `ConsumerStage` poll (look-ahead window size)|
//! | `fetch_max`       | every `Fetcher::poll_ready`                        |
//! | `compute_width`   | every published `ComputePool` job (via `set_width`)|
//! | `processors`      | mirror of the live consumer count (`scale_processors`) |
//!
//! so a change lands within one stage round without restarting anything.
//! All cells use relaxed atomics: each is an independent scalar, readers
//! need freshness (not ordering), and an un-touched table is bit-identical
//! to the seed's frozen-config behaviour — the default when no controller
//! runs.
//!
//! Writers are the feedback controller ([`crate::control`]) and
//! applications via [`RunningPipeline::tune`](super::RunningPipeline::tune).

use super::config::StageConfigs;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Shared atomic knob cells read by the stages at loop/poll boundaries.
/// See the module docs for which stage reads which cell and when.
#[derive(Debug)]
pub struct TuneTable {
    /// Producer batch threshold in encoded bytes (0 = serial transfers).
    batch_max_bytes: AtomicUsize,
    /// Linger window in microseconds for the first message of a batch.
    linger_us: AtomicU64,
    /// Look-ahead depth (batches a consumer keeps in flight ahead of the
    /// one it is processing).
    prefetch_depth: AtomicUsize,
    /// Max records per partition per fetch (clamped to ≥ 1 on read).
    fetch_max: AtomicUsize,
    /// Live compute-pool width; mirrors `ComputePool::threads()`.
    compute_width: AtomicUsize,
    /// Live consumer-member count; mirrors `PipelineCtl::scale_processors`.
    processors: AtomicUsize,
}

impl TuneTable {
    /// Seed the table from the resolved per-stage configs: until something
    /// writes a cell, every stage reads exactly the values `resolve()`
    /// produced.
    pub(crate) fn from_stages(stages: &StageConfigs, compute_width: usize) -> Self {
        Self {
            batch_max_bytes: AtomicUsize::new(stages.transport.batch_max_bytes),
            linger_us: AtomicU64::new(stages.transport.linger.as_micros() as u64),
            prefetch_depth: AtomicUsize::new(stages.consumer.prefetch_depth),
            fetch_max: AtomicUsize::new(stages.consumer.fetch_max),
            compute_width: AtomicUsize::new(compute_width),
            processors: AtomicUsize::new(stages.consumer.processors),
        }
    }

    /// Current batch threshold; 0 means serial per-message transfers.
    pub fn batch_max_bytes(&self) -> usize {
        self.batch_max_bytes.load(Ordering::Relaxed)
    }

    /// Set the batch threshold. Setting 0 live is safe: a producer's next
    /// push ships its open batch and lands everything in flight first.
    pub fn set_batch_max_bytes(&self, bytes: usize) {
        self.batch_max_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Current linger window.
    pub fn linger(&self) -> Duration {
        Duration::from_micros(self.linger_us.load(Ordering::Relaxed))
    }

    /// Set the linger window (only meaningful while batching is on).
    pub fn set_linger(&self, linger: Duration) {
        self.linger_us
            .store(linger.as_micros() as u64, Ordering::Relaxed);
    }

    /// Current look-ahead depth.
    pub fn prefetch_depth(&self) -> usize {
        self.prefetch_depth.load(Ordering::Relaxed)
    }

    /// Set the look-ahead depth. Every consumer re-reads it at its next
    /// poll: a deeper window fetches and reserves further ahead at once, a
    /// shallower one (0 included) stops fetching until the batches already
    /// in flight are processed.
    pub fn set_prefetch_depth(&self, depth: usize) {
        self.prefetch_depth.store(depth, Ordering::Relaxed);
    }

    /// Current per-partition fetch budget (≥ 1).
    pub fn fetch_max(&self) -> usize {
        self.fetch_max.load(Ordering::Relaxed).max(1)
    }

    /// Set the per-partition fetch budget (stored as given; reads clamp to
    /// ≥ 1 so a misconfigured 0 cannot stall fetching).
    pub fn set_fetch_max(&self, n: usize) {
        self.fetch_max.store(n, Ordering::Relaxed);
    }

    /// The compute-pool width mirror (authoritative value lives on the
    /// pool; `PipelineCtl` keeps the two in sync).
    pub fn compute_width(&self) -> usize {
        self.compute_width.load(Ordering::Relaxed)
    }

    pub(crate) fn set_compute_width(&self, width: usize) {
        self.compute_width.store(width, Ordering::Relaxed);
    }

    /// The live consumer-member count mirror (authoritative value is the
    /// ctl's member list; `scale_processors` keeps the two in sync).
    pub fn processors(&self) -> usize {
        self.processors.load(Ordering::Relaxed)
    }

    pub(crate) fn set_processors(&self, n: usize) {
        self.processors.store(n, Ordering::Relaxed);
    }
}
