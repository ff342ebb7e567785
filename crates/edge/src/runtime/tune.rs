//! The live knob table: one array of atomic cells, indexed by
//! [`Knob`], that the stages re-read at their loop/poll boundaries.
//!
//! Which knobs have a cell, and which cell, is declared once in the knob
//! table ([`crate::control::Knob`]). The cells are seeded from the
//! validated [`PipelineConfig`] at `start()`; their readers:
//!
//! | cell              | re-read at                                         |
//! |-------------------|----------------------------------------------------|
//! | `batch_max_bytes` | every `Batcher::poll`                              |
//! | `linger_us`       | every `Batcher::poll` (also sizes the link credit) |
//! | `prefetch_depth`  | every `ConsumerStage` poll (look-ahead window size)|
//! | `fetch_max`       | every `Fetcher::poll_ready`                        |
//!
//! so a change lands within one stage round without restarting anything.
//! Each read is one relaxed atomic load: every cell is an independent
//! scalar, readers need freshness (not ordering), and an untouched table
//! reads exactly the configured values — the default when no controller
//! runs.
//!
//! Writers are the feedback controller ([`crate::control`]), the gateway's
//! `POST /control/tune`, and applications via
//! [`RunningPipeline::tune`](super::RunningPipeline::tune). The consumer
//! pool and the compute pool hold their own levels; they have no cell.

use crate::control::Knob;
use crate::pipeline::PipelineConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Shared atomic knob cells read by the stages at loop/poll boundaries.
/// See the module docs for which stage reads which cell and when.
#[derive(Debug)]
pub struct TuneTable {
    cells: [AtomicUsize; Knob::CELLS],
}

impl TuneTable {
    /// Seed every cell from the validated config: until something writes a
    /// cell, every stage reads exactly the configured value.
    pub(crate) fn new(cfg: &PipelineConfig) -> Self {
        let table = Self {
            cells: Default::default(),
        };
        table.set(Knob::Batch, cfg.batch_max_bytes);
        table.set(Knob::Linger, cfg.linger.as_micros() as usize);
        table.set(Knob::Prefetch, cfg.prefetch_depth);
        table.set(Knob::Fetch, cfg.fetch_max);
        table
    }

    /// The knob's current level, or `None` when it has no cell here.
    pub fn get(&self, knob: Knob) -> Option<usize> {
        knob.cell().map(|c| self.cells[c].load(Ordering::Relaxed))
    }

    /// Set the knob's level; `false` (and nothing stored) when it has no
    /// cell here. Setting batching to 0 live is safe: a producer's next
    /// poll ships its open batch and lands everything in flight first. A
    /// shallower look-ahead (0 included) stops fetching until the batches
    /// already in flight are processed.
    pub fn set(&self, knob: Knob, level: usize) -> bool {
        knob.cell()
            .map(|c| self.cells[c].store(level, Ordering::Relaxed))
            .is_some()
    }

    fn load(&self, knob: Knob) -> usize {
        self.get(knob).expect("knob has a cell")
    }

    /// Current batch threshold; 0 means serial per-message transfers.
    pub fn batch_max_bytes(&self) -> usize {
        self.load(Knob::Batch)
    }

    /// Current linger window.
    pub fn linger(&self) -> Duration {
        Duration::from_micros(self.load(Knob::Linger) as u64)
    }

    /// Current look-ahead depth.
    pub fn prefetch_depth(&self) -> usize {
        self.load(Knob::Prefetch)
    }

    /// Current per-partition fetch budget, clamped to ≥ 1 so a stored 0
    /// cannot stall fetching.
    pub fn fetch_max(&self) -> usize {
        self.load(Knob::Fetch).max(1)
    }
}
