//! The consumer stage: one group member as a polled state machine on a
//! reactor — the only consumer there is, for a pipeline's members and for
//! every federation cell's one member alike.
//!
//! Every member is a [`ConsumerStage`], a [`ReactorTask`] driven by the
//! cell's cloud [`pilot_dataflow::LocalExecutor`]: a fixed pool of threads
//! (the cloud pilot's cores unless `reactor_threads` overrides it, or the
//! federation's one executor). Members join and spawn through
//! [`spawn_members`]. The stage never
//! blocks a reactor thread waiting for data or for a link reservation:
//!
//! * **Fetch** goes through [`Fetcher::poll_ready`] → the broker's arrival
//!   registry. No data means the member's waker is armed on exactly the
//!   partitions it watches and the task returns `Pending`; the append that
//!   makes a watched partition non-empty re-queues it. Ten thousand parked
//!   members cost an appender one waker, not a `notify_all` herd.
//! * **Broker→cloud transport** reserves the link for a whole batch and
//!   parks on the reservation's *deadline* (`PendingUntil`) — the reactor
//!   thread is free to poll other members while the simulated bytes are in
//!   flight.
//!
//! A poll round is sync → fetch → reserve → (park) → process → commit over
//! a FIFO window of fetched batches. `prefetch_depth` (a live
//! [`TuneTable`](super::TuneTable) cell, re-read every poll) is the
//! look-ahead of that window: at depth 0 the next batch is fetched and
//! reserved only after the current one is processed; at depth `d` up to
//! `d` further batches are fetched and reserved while the front one is in
//! flight or being processed, so batch N+1 crosses the link while batch N
//! is in `process_cloud`.
//!
//! # Delivery contract (at-least-once)
//!
//! * A partition's sentinel travels through the window in order: the
//!   partition is marked done only after every record fetched ahead of the
//!   sentinel has been processed.
//! * Offsets are committed only through processed records — one commit
//!   per processed batch. A member stopped (scale-down, abort, failure)
//!   with batches still in the window leaves them uncommitted, so its
//!   successor redelivers them.
//! * A partition changes hands only between batches: a member holds the
//!   partition's [`Claims`] entry from before it processes a batch until
//!   the commit, and a member handed new partitions by a rebalance reads
//!   their committed offsets only once none of them is claimed. A resize
//!   of a healthy pool therefore delivers nothing twice; redelivery is
//!   left to members that fail or are aborted mid-batch.
//! * After each commit the cell's backpressure progress advances by the
//!   batch's record count, failed records included, and a producer parked
//!   at its watermark is woken.

use super::sentinel;
use super::spans::{metric_msg_id, HotCounters};
use super::Shared;
use crate::faas::CloudFn;
use pilot_broker::consumer::PartitionBatches;
use pilot_broker::{Consumer, GroupId, Offset, Record, TopicId};
use pilot_dataflow::{ReactorHandle, ReactorPoll, ReactorTask};
use pilot_metrics::Component;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::task::Waker;
use std::time::{Duration, Instant};

/// Per partition, how many members are between "about to process a batch
/// of it" and "committed that batch". It is what orders a rebalance
/// against a batch in progress: the processing side claims the partition
/// and *then* re-checks the group generation; the side taking a partition
/// over reads the generation and *then* checks the claim. Whichever way
/// the two interleave, either the old owner sees the new generation and
/// drops the batch, or the new owner sees the claim and waits for the
/// commit.
pub(crate) struct Claims(Vec<AtomicU32>);

impl Claims {
    pub(crate) fn new(partitions: usize) -> Self {
        Self((0..partitions).map(|_| AtomicU32::new(0)).collect())
    }

    fn claim(&self, partition: usize) -> Claim<'_> {
        let slot = &self.0[partition];
        slot.fetch_add(1, Ordering::SeqCst);
        Claim(slot)
    }

    fn claimed(&self, partition: usize) -> bool {
        self.0[partition].load(Ordering::SeqCst) > 0
    }
}

/// One held entry of [`Claims`]; dropping it releases the partition.
struct Claim<'a>(&'a AtomicU32);

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What a generation check found.
enum Membership {
    /// Same generation, same assignment.
    Unchanged,
    /// The group rebalanced, but a former owner of one of this member's
    /// new partitions is still inside a batch of it: not subscribed yet,
    /// check again shortly.
    HandingOver,
    /// The group rebalanced: the consumer was rebuilt from the committed
    /// offsets, so anything fetched but uncommitted will be fetched again.
    Reassigned,
}

/// One member's view of the consumer group: assignment, rebalance
/// tracking, the multi-partition fetch, and the offset commit.
struct Fetcher {
    shared: Arc<Shared>,
    member: String,
    group: String,
    group_id: GroupId,
    topic_id: TopicId,
    consumer: Consumer,
    my_gen: u64,
    parts: Vec<usize>,
}

impl Fetcher {
    /// A fetcher for `member`, which the control plane has already joined
    /// to the group. It starts with no partitions and a generation no
    /// group ever has, so the first [`Fetcher::sync`] — at the member's
    /// first poll, not at spawn — reads the assignment and the committed
    /// offsets as they are *then*: whatever the previous owner of a
    /// partition commits between this member's spawn and its first poll is
    /// not fetched again.
    fn new(shared: Arc<Shared>, member: String) -> Result<Self, String> {
        let group = shared.group();
        let consumer = Self::subscribe(&shared, &group, &[])?;
        Ok(Self {
            group_id: shared.broker.group_id(&group),
            topic_id: shared.broker.topic_id(&shared.topic),
            shared,
            member,
            group,
            consumer,
            my_gen: 0,
            parts: Vec::new(),
        })
    }

    /// Build a consumer over `parts`, pausing every partition whose
    /// sentinel was already consumed — a fresh consumer after a rebalance
    /// may be handed partitions an earlier owner finished.
    fn subscribe(shared: &Shared, group: &str, parts: &[usize]) -> Result<Consumer, String> {
        let mut consumer = Consumer::new(shared.broker.clone(), &shared.topic, group, parts)
            .map_err(|e| e.to_string())?;
        for &p in parts {
            if shared.sentinels.is_done(p) {
                let _ = consumer.pause(p);
            }
        }
        Ok(consumer)
    }

    /// Re-subscribe if the group generation moved.
    fn sync(&mut self) -> Result<Membership, String> {
        if self.current() {
            return Ok(Membership::Unchanged);
        }
        match self.shared.coordinator.assignment(&self.member) {
            Some((_, p)) if p.iter().any(|&p| self.shared.claims.claimed(p)) => {
                Ok(Membership::HandingOver)
            }
            Some((g, p)) => {
                // No former owner is mid-batch, and none can start one now
                // (it would see the new generation first): the committed
                // offsets read below are final.
                self.my_gen = g;
                self.parts = p;
                self.consumer = Self::subscribe(&self.shared, &self.group, &self.parts)?;
                Ok(Membership::Reassigned)
            }
            // Only the member itself leaves the group, as its last act.
            None => Err(format!("{} is polled but not in its group", self.member)),
        }
    }

    /// Whether the group still is at the generation this member last
    /// synced to.
    fn current(&self) -> bool {
        self.shared.coordinator.generation() == self.my_gen
    }

    /// Nothing to fetch: no assignment, or every assigned partition
    /// already finished.
    fn idle(&self) -> bool {
        self.parts.is_empty() || self.consumer.all_paused()
    }

    /// One non-blocking multi-partition fetch for everything this member
    /// owns. `Ok(None)` means no data was ready and `waker` is armed on
    /// the topic's arrival registry — the next append to a watched
    /// partition wakes it (exact wake, no timeout polling). The fetch
    /// budget is a live [`TuneTable`](super::TuneTable) cell, re-read per
    /// poll.
    fn poll_ready(&mut self, waker: &Waker) -> Result<Option<PartitionBatches>, String> {
        self.consumer
            .poll_many_ready(self.shared.tune.fetch_max(), waker)
            .map_err(|e| e.to_string())
    }

    /// Commit `partition` through `next_offset` (exclusive): every record
    /// below it has been processed.
    fn commit_through(&self, partition: usize, next_offset: Offset) {
        self.shared.broker.commit_offset_by_id(
            self.group_id,
            self.topic_id,
            partition,
            next_offset,
        );
    }
}

/// The cloud-side processing state: the hot-swappable function, cached
/// counters, and the decode scratch.
struct Processor {
    fn_gen: u64,
    func: CloudFn,
    counters: HotCounters,
    // One scratch block per consumer: every message decodes into it
    // (`decode_any_into`), so the steady state allocates nothing even for
    // the paper's 2.6 MB messages — the data Vec reaches its high-water
    // capacity after the first message and is reused thereafter.
    scratch: pilot_datagen::Block,
}

impl Processor {
    fn new(shared: &Shared) -> Self {
        let (fn_gen, factory) = shared.cloud_slot.current();
        Self {
            fn_gen,
            func: factory(&shared.ctx),
            counters: HotCounters::new(&shared.ctx),
            scratch: pilot_datagen::Block::default(),
        }
    }

    /// Re-instantiate the cloud function if it was hot-swapped.
    fn refresh(&mut self, shared: &Shared) {
        let (g, factory) = shared.cloud_slot.current();
        if g != self.fn_gen {
            self.fn_gen = g;
            self.func = factory(&shared.ctx);
        }
    }

    /// Decode one non-sentinel record and run the cloud function on it,
    /// recording — when the run records spans — the Network span over the
    /// batch's transfer window and a CloudProcessor span covering decode +
    /// invoke. Returns 1 on success, 0 when the invocation failed (counted
    /// in `process_errors`; the stream continues — fault isolation).
    fn process(
        &mut self,
        shared: &Shared,
        partition: usize,
        record: &Record,
        flight: &Flight,
    ) -> Result<u64, String> {
        let ctx = &shared.ctx;
        let spans = shared.record_spans.then(|| shared.spans());
        let bytes = record.value.len() as u64;
        // Cloud processing: deserialization is part of the processing
        // service time (it is what the paper's Dask consumer tasks spend
        // their floor cost on).
        let p0 = spans.as_ref().map_or(0, |s| s.now_us());
        if let Err(e) = pilot_datagen::decode_any_into(&record.value, &mut self.scratch) {
            self.counters.decode_errors.incr();
            return Err(format!("wire decode failed: {e}"));
        }
        let mid = metric_msg_id(partition, self.scratch.msg_id);
        if let Some(spans) = &spans {
            spans.record(
                mid,
                Component::Network(shared.link_broker_cloud.name().to_string()),
                flight.net_start_us,
                flight.net_end_us,
                bytes,
            );
        }
        // A failing function invocation is counted (and its error span
        // recorded) and the stream continues — one bad message must not
        // kill the processor (fault isolation).
        let ok = (self.func)(ctx, &self.scratch).is_ok();
        if let Some(spans) = &spans {
            let p1 = spans.now_us();
            if ok {
                spans.record(mid, Component::CloudProcessor, p0, p1, bytes);
            } else {
                spans.record_error(mid, Component::CloudProcessor, p0, p1, bytes);
            }
        }
        if ok {
            self.counters.messages_processed.incr();
        } else {
            self.counters.process_errors.incr();
        }
        Ok(ok as u64)
    }
}

/// A batch's reserved broker→cloud transfer: when it lands, and the
/// simulated window it occupies on the link (the Network span of every
/// record aboard).
#[derive(Clone, Copy)]
struct Flight {
    deadline: Instant,
    net_start_us: u64,
    net_end_us: u64,
}

/// Records fetched from one partition, on their way to the processor.
struct Batch {
    partition: usize,
    /// The non-sentinel records, in offset order.
    records: Vec<Record>,
    /// One past the last fetched record (sentinel included): the offset to
    /// commit once the batch is processed.
    next_offset: Offset,
    /// The partition's end-of-stream sentinel followed `records`.
    ends_stream: bool,
    /// `Some` once the transfer is reserved on the link.
    flight: Option<Flight>,
}

/// Idle members re-poll at least this often even if no wake reaches them.
/// Rebalances, completion, and shutdown all `wake_all` the executor, so
/// the timer is only a coarse backstop — at 64k members a tighter idle
/// pace would saturate the pool with no-op polls during the drain tail.
const IDLE_BACKSTOP: Duration = Duration::from_secs(1);

/// How soon a member waiting for a former owner's batch to commit looks
/// again. The wait lasts one batch of one other member at most.
const HANDOVER_RETRY: Duration = Duration::from_millis(1);

/// One consumer member as a reactor task. Polling advances the round
/// state machine by one bounded step; the first poll resolves the group
/// assignment and subscribes.
pub(crate) struct ConsumerStage {
    shared: Arc<Shared>,
    member: String,
    stop: Arc<AtomicBool>,
    fetcher: Fetcher,
    /// Built at the first batch, on a reactor thread: instantiating the
    /// cloud function (a model ensemble, say) is the member's work, not
    /// `start()`'s.
    proc: Option<Processor>,
    /// Fetched batches in delivery order; the reserved ones are a prefix.
    window: VecDeque<Batch>,
    /// Reserved batches not yet processed: the reserved prefix of
    /// `window`, plus the popped batch while it is being processed.
    reserved: usize,
    processed: u64,
}

impl ConsumerStage {
    pub(crate) fn new(
        shared: Arc<Shared>,
        member: String,
        stop: Arc<AtomicBool>,
    ) -> Result<Self, String> {
        let fetcher = Fetcher::new(Arc::clone(&shared), member.clone())?;
        Ok(Self {
            shared,
            member,
            stop,
            fetcher,
            proc: None,
            window: VecDeque::new(),
            reserved: 0,
            processed: 0,
        })
    }

    /// Record how many batches are reserved, keeping the shared
    /// `consumer.prefetch_occupancy` gauge (batches reserved *ahead of*
    /// the one being waited for or processed, summed over members) in
    /// step.
    fn set_reserved(&mut self, reserved: usize) {
        if let Some(g) = self.shared.stage_gauges() {
            let ahead = |n: usize| n.saturating_sub(1) as i64;
            g.prefetch_occupancy
                .add(ahead(reserved) - ahead(self.reserved));
        }
        self.reserved = reserved;
    }

    /// Drop every fetched-but-unprocessed batch. They are uncommitted, so
    /// whoever owns their partitions next fetches them again.
    fn discard_window(&mut self) {
        self.window.clear();
        self.set_reserved(0);
    }

    /// Finish the task: leave the group, and on failure raise the shared
    /// stop flag so one failing member stops the pipeline. Nothing is
    /// committed here — processed batches already are, and the window's
    /// remainder must stay uncommitted for a successor to redeliver.
    fn complete(&mut self, result: Result<u64, String>) -> ReactorPoll {
        if result.is_err() {
            self.shared.stop();
        }
        self.discard_window();
        self.shared.coordinator.leave(&self.member);
        ReactorPoll::Complete(result)
    }

    /// Fetch one round into the window. `Ok(Some(park))` means the round
    /// added nothing, and how to park if the window is empty as well.
    fn fetch(&mut self, waker: &Waker) -> Result<Option<ReactorPoll>, String> {
        if self.fetcher.idle() {
            // Nothing assigned (or all assigned partitions finished): no
            // arrival can wake us.
            return Ok(Some(ReactorPoll::PendingUntil(
                Instant::now() + IDLE_BACKSTOP,
            )));
        }
        let Some(batches) = self.fetcher.poll_ready(waker)? else {
            // Waker armed on the arrival registry: the next append to a
            // watched partition re-queues us.
            return Ok(Some(ReactorPoll::Pending));
        };
        let fetched_into = self.window.len();
        for (partition, mut records) in batches {
            let Some(last) = records.last() else { continue };
            let next_offset = last.offset + 1;
            let fetched = records.len();
            records.retain(|r| !sentinel::is_sentinel(r));
            let ends_stream = records.len() < fetched;
            if ends_stream {
                // Nothing follows a sentinel: stop polling the partition
                // now; it is marked done when the batch is processed.
                let _ = self.fetcher.consumer.pause(partition);
            }
            self.window.push_back(Batch {
                partition,
                records,
                next_offset,
                ends_stream,
                flight: None,
            });
        }
        if self.window.len() == fetched_into {
            // The broker had something for us, but no record (an
            // auto-reset retry that read nothing): yield instead of
            // fetching again inside this poll.
            return Ok(Some(ReactorPoll::Ready));
        }
        Ok(None)
    }

    /// Reserve the broker→cloud link for every unreserved batch among the
    /// first `1 + depth` of the window. The reservation object is dropped
    /// immediately — the link accounted the busy window at reserve time;
    /// only the deadline matters here. A sentinel-only batch carries no
    /// bytes and lands at once.
    fn reserve_window(&mut self, depth: usize) {
        let limit = self.window.len().min(1 + depth);
        if self.reserved >= limit {
            return;
        }
        let spans = self.shared.spans();
        for batch in self.window.range_mut(self.reserved..limit) {
            let bytes: u64 = batch.records.iter().map(|r| r.value.len() as u64).sum();
            let now = Instant::now();
            let net_start_us = spans.now_us();
            let deadline = if batch.records.is_empty() {
                now
            } else {
                self.shared.link_broker_cloud.reserve(bytes).deadline()
            };
            batch.flight = Some(Flight {
                deadline,
                net_start_us,
                net_end_us: net_start_us
                    + deadline.saturating_duration_since(now).as_micros() as u64,
            });
        }
        self.set_reserved(limit);
    }
}

impl ReactorTask for ConsumerStage {
    fn poll(&mut self, waker: &Waker) -> ReactorPoll {
        loop {
            if self.shared.stopping() || self.shared.sentinels.all_done() {
                return self.complete(Ok(self.processed));
            }
            if self.stop.load(Ordering::Relaxed) {
                // Retired by a scale-down. Leaving bumped the generation:
                // wake the survivors so they pick the orphaned partitions
                // up now — one that is idle would otherwise sleep out its
                // backstop first.
                let done = self.complete(Ok(self.processed));
                self.shared.cloud_reactor.wake_all();
                return done;
            }
            // Checked before every batch, not only before a fetch: after a
            // rebalance the window may hold partitions that now belong to
            // another member.
            match self.fetcher.sync() {
                Ok(Membership::Unchanged) => {}
                Ok(Membership::Reassigned) => self.discard_window(),
                Ok(Membership::HandingOver) => {
                    self.discard_window();
                    return ReactorPoll::PendingUntil(Instant::now() + HANDOVER_RETRY);
                }
                Err(e) => return self.complete(Err(e)),
            }
            let depth = self.shared.tune.prefetch_depth();
            // Top the window up to one batch plus the look-ahead.
            let mut park = None;
            while self.window.len() <= depth {
                match self.fetch(waker) {
                    Ok(None) => {}
                    Ok(Some(until)) => {
                        park = Some(until);
                        break;
                    }
                    Err(e) => return self.complete(Err(e)),
                }
            }
            self.reserve_window(depth);
            let Some(flight) = self.window.front().and_then(|b| b.flight) else {
                return park.expect("an empty window left the fetch loop by parking");
            };
            if Instant::now() < flight.deadline {
                return ReactorPoll::PendingUntil(flight.deadline);
            }
            // The front batch landed (a zero-latency link completes inline
            // instead of bouncing through the timer heap): claim its
            // partition, process it, commit through it, and only then
            // honour its sentinel.
            let shared = Arc::clone(&self.shared);
            let partition = self.window.front().expect("front checked above").partition;
            let _claim = shared.claims.claim(partition);
            if !self.fetcher.current() {
                // Rebalanced since the sync above; the partition may be
                // another member's by now. Back to the top to find out.
                continue;
            }
            let batch = self.window.pop_front().expect("front checked above");
            let proc = self.proc.get_or_insert_with(|| Processor::new(&shared));
            proc.refresh(&shared);
            for record in &batch.records {
                match proc.process(&shared, partition, record, &flight) {
                    Ok(n) => self.processed += n,
                    Err(e) => return self.complete(Err(e)),
                }
            }
            // Only now does the batch stop counting as reserved: while it
            // was being processed the rest of the window was ahead of it.
            self.set_reserved(self.reserved - 1);
            self.fetcher.commit_through(partition, batch.next_offset);
            shared.progress.advance(batch.records.len() as u64);
            // Marked done only once processed and committed: whoever reads
            // the tracker sees every effect of the partition's last batch.
            if batch.ends_stream {
                shared.sentinels.mark_done(partition);
            }
            // A poll that processed a batch yields before it fetches again
            // (Ready, not another fetch), so a hot member cannot starve its
            // reactor thread's siblings; the window keeps flying meanwhile.
            if self.window.len() <= depth {
                return ReactorPoll::Ready;
            }
        }
    }
}

/// A spawned member: its name, its stop flag (raised to retire it), and
/// its task handle.
pub(crate) type Member = (String, Arc<AtomicBool>, ReactorHandle);

/// Add `members` to the cell's consumer group. All of them join in **one**
/// coordinator rebalance — O(n), where n sequential joins cost O(n²)
/// assignment writes (minutes at 64k members) — and *before* any of their
/// tasks is spawned, so a member's first poll already sees the final
/// assignment (no startup rebalance, no redelivery). Each member then runs
/// as a [`ConsumerStage`] task on the cell's cloud reactor.
pub(crate) fn spawn_members(
    shared: &Arc<Shared>,
    members: Vec<String>,
) -> Result<Vec<Member>, String> {
    shared.coordinator.join_many(&members);
    let mut stops = Vec::with_capacity(members.len());
    let mut stages = Vec::with_capacity(members.len());
    for member in &members {
        let stop = Arc::new(AtomicBool::new(false));
        let stage = ConsumerStage::new(Arc::clone(shared), member.clone(), Arc::clone(&stop))?;
        stops.push(stop);
        stages.push((format!("process-cloud-{member}"), Box::new(stage) as _));
    }
    let handles = shared.cloud_reactor.spawn_all(stages);
    Ok(members
        .into_iter()
        .zip(stops)
        .zip(handles)
        .map(|((member, stop), handle)| (member, stop, handle))
        .collect())
}
