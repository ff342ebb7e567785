//! Region and cloud aggregation tiers of the federation.
//!
//! Both tiers are timer-paced reactor tasks over the sharded parameter
//! plane. A region aggregator merges its cells' published updates with
//! **one batched freshness read per merge round**
//! ([`ParameterServer::get_many_if_newer`] takes each underlying shard
//! lock at most once per batch, not once per cell), folds them through a
//! streaming [`FedAvgAccumulator`], and publishes the regional model to
//! the cloud server. The cloud aggregator does the same one tier up and
//! publishes the global model, which regions then fan back down into
//! their own shard with one batched [`ParameterServer::put_many`].
//!
//! Parameter-plane key layout (all values are `[samples, mean_0, ..]`):
//!
//! | server   | key         | writer            | reader            |
//! |----------|-------------|-------------------|-------------------|
//! | regional | `cell:<id>` | cell process fn   | region aggregator |
//! | regional | `global`    | region aggregator | cell process fn   |
//! | regional | `region`    | region aggregator | cells / observers |
//! | cloud    | `region:<r>`| region aggregator | cloud aggregator  |
//! | cloud    | `global`    | cloud aggregator  | region aggregators|

use crate::runtime::Shared;
use pilot_dataflow::{ReactorPoll, ReactorTask};
use pilot_metrics::{Counter, Gauge};
use pilot_ml::federated::FedAvgAccumulator;
use pilot_params::{ParameterServer, Version};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::Waker;
use std::time::{Duration, Instant};

/// Key the global model is published under (cloud server, and mirrored
/// into each regional server).
pub const GLOBAL_KEY: &str = "global";
/// Key a region aggregator mirrors its own latest model under in the
/// regional server.
pub const REGION_KEY: &str = "region";

/// Cached state of one downstream participant (a cell for regions, a
/// region for the cloud): last seen version plus the latest update, kept
/// so a merge round always folds every participant, fresh or not.
struct Member {
    key: String,
    since: Version,
    latest: Option<Arc<Vec<f64>>>,
}

/// Shared merge core for both tiers: batch-poll members for freshness,
/// fold all cached updates, produce a `[samples, model..]` payload.
struct MergeCore {
    members: Vec<Member>,
    acc: FedAvgAccumulator,
    model: Vec<f64>,
    /// Reusable batched-request scratch.
    reqs: Vec<(String, Version)>,
}

impl MergeCore {
    fn new(keys: Vec<String>) -> Self {
        Self {
            members: keys
                .into_iter()
                .map(|key| Member {
                    key,
                    since: 0,
                    latest: None,
                })
                .collect(),
            acc: FedAvgAccumulator::new(),
            model: Vec::new(),
            reqs: Vec::new(),
        }
    }

    /// One batched freshness read. Returns the number of upstream puts
    /// absorbed (versions are per-key put counts, so a coalesced read of
    /// version `v` after `since` absorbs `v − since` published updates —
    /// this keeps the published-vs-merged lag gauges honest).
    fn refresh(&mut self, server: &ParameterServer) -> u64 {
        self.reqs.clear();
        self.reqs
            .extend(self.members.iter().map(|m| (m.key.clone(), m.since)));
        let fresh = server.get_many_if_newer(&self.reqs);
        let mut absorbed = 0;
        for (member, got) in self.members.iter_mut().zip(fresh) {
            if let Some((value, version)) = got {
                absorbed += version - member.since;
                member.since = version;
                member.latest = Some(value);
            }
        }
        absorbed
    }

    /// Fold every cached update into `model`; returns the merged payload
    /// `[samples, model..]`, or `None` when nothing has arrived yet.
    fn merge(&mut self) -> Option<Vec<f64>> {
        for update in self.members.iter().filter_map(|m| m.latest.as_deref()) {
            if update.len() >= 2 {
                self.acc.push(&update[1..], update[0] as u64);
            }
        }
        let samples = self.acc.total_samples();
        if !self.acc.finish_into(&mut self.model) {
            return None;
        }
        let mut payload = Vec::with_capacity(self.model.len() + 1);
        payload.push(samples as f64);
        payload.extend_from_slice(&self.model);
        Some(payload)
    }
}

/// Middle tier: merges one region's cells, publishes upward to the cloud
/// server and mirrors the global model downward into the regional shard.
pub(crate) struct RegionAggregatorTask {
    regional: ParameterServer,
    cloud: ParameterServer,
    core: MergeCore,
    publish_key: String,
    merge_interval: Duration,
    /// This region's cells. A cell has finished once its sentinel tracker
    /// has seen every partition's sentinel, which is marked only after the
    /// partition's last batch is processed and committed — so after the
    /// cell's last publish.
    cells: Vec<Arc<Shared>>,
    /// `cells[..finished]` have finished (cells finish in any order; this
    /// is the longest finished prefix, so a poll re-reads one tracker).
    finished: usize,
    /// Regions that have fully completed (read by the cloud task).
    regions_done: Arc<AtomicUsize>,
    global_since: Version,
    rounds: u64,
    merged_ctr: Arc<Counter>,
    published_ctr: Arc<Counter>,
    abort: Arc<AtomicBool>,
}

impl RegionAggregatorTask {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        region: usize,
        regional: ParameterServer,
        cloud: ParameterServer,
        cells: Vec<Arc<Shared>>,
        merge_interval: Duration,
        regions_done: Arc<AtomicUsize>,
        merged_ctr: Arc<Counter>,
        published_ctr: Arc<Counter>,
        abort: Arc<AtomicBool>,
    ) -> Self {
        Self {
            regional,
            cloud,
            core: MergeCore::new(
                cells
                    .iter()
                    .map(|c| format!("cell:{}", c.ctx.job_id))
                    .collect(),
            ),
            publish_key: format!("region:{region}"),
            merge_interval,
            cells,
            finished: 0,
            regions_done,
            global_since: 0,
            rounds: 0,
            merged_ctr,
            published_ctr,
            abort,
        }
    }
}

impl ReactorTask for RegionAggregatorTask {
    fn poll(&mut self, _waker: &Waker) -> ReactorPoll {
        if self.abort.load(Ordering::Acquire) {
            return ReactorPoll::Complete(Ok(self.rounds));
        }
        // Observe completion *before* the freshness read: a cell publishes
        // its final update before its last sentinel is marked, so a
        // `final_round` pass is guaranteed to see every last update.
        while self
            .cells
            .get(self.finished)
            .is_some_and(|c| c.sentinels.all_done())
        {
            self.finished += 1;
        }
        let final_round = self.finished == self.cells.len();
        let news = self.core.refresh(&self.regional);
        self.merged_ctr.add(news);
        if news > 0 || final_round {
            if let Some(payload) = self.core.merge() {
                // Mirror the regional model locally, then publish upward.
                let mirror = payload.clone();
                self.cloud.put(&self.publish_key, payload);
                self.published_ctr.add(1);
                self.rounds += 1;
                // One batched write-back per round: regional mirror plus
                // (when fresh) the global model fanned back down.
                let mut writes = vec![(REGION_KEY.to_string(), mirror)];
                if let Some((global, version)) =
                    self.cloud.get_if_newer(GLOBAL_KEY, self.global_since)
                {
                    self.global_since = version;
                    writes.push((GLOBAL_KEY.to_string(), (*global).clone()));
                }
                self.regional.put_many(writes);
            }
        }
        if final_round {
            self.regions_done.fetch_add(1, Ordering::AcqRel);
            return ReactorPoll::Complete(Ok(self.rounds));
        }
        ReactorPoll::PendingUntil(Instant::now() + self.merge_interval)
    }
}

/// Top tier: merges all regional models on the cloud server into the
/// global model.
pub(crate) struct CloudAggregatorTask {
    cloud: ParameterServer,
    core: MergeCore,
    merge_interval: Duration,
    regions_done: Arc<AtomicUsize>,
    regions: usize,
    rounds: u64,
    last_round: Option<Instant>,
    rounds_gauge: Arc<Gauge>,
    round_ms_gauge: Arc<Gauge>,
    merged_ctr: Arc<Counter>,
    abort: Arc<AtomicBool>,
}

impl CloudAggregatorTask {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cloud: ParameterServer,
        regions: usize,
        merge_interval: Duration,
        regions_done: Arc<AtomicUsize>,
        rounds_gauge: Arc<Gauge>,
        round_ms_gauge: Arc<Gauge>,
        merged_ctr: Arc<Counter>,
        abort: Arc<AtomicBool>,
    ) -> Self {
        Self {
            cloud,
            core: MergeCore::new((0..regions).map(|r| format!("region:{r}")).collect()),
            merge_interval,
            regions_done,
            regions,
            rounds: 0,
            last_round: None,
            rounds_gauge,
            round_ms_gauge,
            merged_ctr,
            abort,
        }
    }
}

impl ReactorTask for CloudAggregatorTask {
    fn poll(&mut self, _waker: &Waker) -> ReactorPoll {
        if self.abort.load(Ordering::Acquire) {
            return ReactorPoll::Complete(Ok(self.rounds));
        }
        // Regions publish their final model before bumping regions_done,
        // so a final_round pass folds every region's last word and the
        // global model it leaves behind is the complete weighted mean.
        let final_round = self.regions_done.load(Ordering::Acquire) >= self.regions;
        let news = self.core.refresh(&self.cloud);
        self.merged_ctr.add(news);
        if news > 0 || final_round {
            if let Some(payload) = self.core.merge() {
                self.cloud.put(GLOBAL_KEY, payload);
                self.rounds += 1;
                self.rounds_gauge.set(self.rounds as i64);
                let now = Instant::now();
                if let Some(prev) = self.last_round.replace(now) {
                    self.round_ms_gauge
                        .set((now - prev).as_millis().min(i64::MAX as u128) as i64);
                }
            }
        }
        if final_round {
            return ReactorPoll::Complete(Ok(self.rounds));
        }
        ReactorPoll::PendingUntil(Instant::now() + self.merge_interval)
    }
}
