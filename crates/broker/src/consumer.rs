//! The consumer: position tracking, one fetch body behind a blocking and an
//! event-driven poll, group commits.

use crate::broker::{Broker, GroupId, TopicId};
use crate::error::BrokerError;
use crate::log::ReadError;
use crate::record::{Offset, Record};
use crate::topic::{ArrivalWaiter, Topic};
use std::collections::HashMap;
use std::sync::Arc;
use std::task::Waker;
use std::time::Duration;

/// Batches returned by a multi-partition poll round: `(partition,
/// records)` pairs, sorted by partition, empty partitions omitted.
pub type PartitionBatches = Vec<(usize, Vec<Record>)>;

/// A consumer bound to one topic, reading an explicit set of partitions on
/// behalf of a consumer group.
///
/// Like a Kafka consumer it is single-threaded (`!Sync` use pattern): the
/// Pilot-Edge runtime creates one consumer per processing task, one task per
/// partition ("we keep the ratio of partitions constant between Kafka and
/// Dask").
///
/// The topic handle and the interned group/topic ids are resolved once at
/// construction: polls read straight off the `Arc<Topic>` (no registry
/// lookup per fetch) and commits use `Copy` keys (no string hashing per
/// message) — the hot path is O(1) in allocations.
pub struct Consumer {
    broker: Broker,
    topic: String,
    /// Cached handle: polls skip the broker's topic-registry lock.
    handle: Arc<Topic>,
    group: String,
    group_id: GroupId,
    topic_id: TopicId,
    /// partition → next offset to read.
    positions: HashMap<usize, Offset>,
    /// Paused partitions are skipped by [`Consumer::poll`] /
    /// [`Consumer::poll_many_ready`] but keep their positions (Kafka's
    /// pause/resume flow-control primitive).
    paused: std::collections::HashSet<usize>,
    /// Lazily-allocated readiness slot for [`Consumer::poll_many_ready`];
    /// held for the consumer's lifetime and released on drop.
    waiter: Option<ArrivalWaiter>,
}

impl Consumer {
    /// Create a consumer over `partitions` of `topic`. Positions resume
    /// from the group's committed offsets (or the log start).
    pub fn new(
        broker: Broker,
        topic: &str,
        group: &str,
        partitions: &[usize],
    ) -> Result<Self, BrokerError> {
        let t = broker.topic(topic)?;
        let mut positions = HashMap::with_capacity(partitions.len());
        for &p in partitions {
            if p >= t.partition_count() {
                return Err(BrokerError::UnknownPartition {
                    topic: topic.to_string(),
                    partition: p,
                });
            }
            let start = broker
                .committed(group, topic, p)
                .unwrap_or_else(|| t.log_start(p).unwrap_or(0));
            positions.insert(p, start);
        }
        let group_id = broker.group_id(group);
        let topic_id = broker.topic_id(topic);
        Ok(Self {
            broker,
            topic: topic.to_string(),
            handle: t,
            group: group.to_string(),
            group_id,
            topic_id,
            positions,
            paused: std::collections::HashSet::new(),
            waiter: None,
        })
    }

    /// The topic this consumer reads.
    pub fn topic(&self) -> &str {
        &self.topic
    }

    /// The consumer group this consumer commits on behalf of.
    pub fn group(&self) -> &str {
        &self.group
    }

    /// Partitions this consumer reads.
    pub fn partitions(&self) -> Vec<usize> {
        let mut p: Vec<usize> = self.positions.keys().copied().collect();
        p.sort_unstable();
        p
    }

    /// Next offset to read for a partition.
    pub fn position(&self, partition: usize) -> Option<Offset> {
        self.positions.get(&partition).copied()
    }

    /// This round's fetch requests: every non-paused assigned partition at
    /// its current position, sorted by partition.
    fn requests(&self) -> Vec<(usize, Offset)> {
        let mut reqs: Vec<(usize, Offset)> = self
            .positions
            .iter()
            .filter(|(p, _)| !self.paused.contains(p))
            .map(|(&p, &off)| (p, off))
            .collect();
        reqs.sort_unstable_by_key(|&(p, _)| p);
        reqs
    }

    /// The one fetch body: turn a topic sweep (which keeps the request
    /// order, i.e. sorted by partition) into per-partition batches. Positions advance past what is returned (commit
    /// is separate, like Kafka); a trimmed offset auto-resets to the
    /// earliest retained one (Kafka's `auto.offset.reset = earliest`) and
    /// is re-read once, non-blocking.
    fn advance(
        &mut self,
        ready: Vec<(usize, Result<Vec<Record>, ReadError>)>,
        max_per_partition: usize,
    ) -> Result<PartitionBatches, BrokerError> {
        let mut out = Vec::with_capacity(ready.len());
        for (p, res) in ready {
            let recs = match res {
                Ok(recs) => recs,
                Err(ReadError::Trimmed(log_start)) => {
                    self.positions.insert(p, log_start);
                    self.handle.fetch(p, log_start, max_per_partition)?
                }
                Err(ReadError::Storage(msg)) => return Err(BrokerError::Storage(msg)),
            };
            if let Some(last) = recs.last() {
                self.positions.insert(p, last.offset + 1);
                out.push((p, recs));
            }
        }
        Ok(out)
    }

    /// Non-blocking, event-driven poll for reactor-driven consumers.
    ///
    /// Sweeps every non-paused assigned partition once. If anything is
    /// ready, returns `Ok(Some(batches))`: `(partition, records)` pairs
    /// sorted by partition, up to `max_per_partition` records each,
    /// positions advanced. If nothing is ready, `waker` is registered with
    /// the topic's arrival registry — the next append to any polled
    /// partition fires it — and `Ok(None)` is returned, meaning *parked, a
    /// wake is guaranteed*.
    ///
    /// When there is nothing to poll (no assignment, or every partition
    /// paused), returns `Ok(Some(vec![]))` **without registering**: no
    /// append is expected to wake the caller, so the caller must pace
    /// itself (check [`Consumer::all_paused`]) instead of waiting on the
    /// broker. Spurious wakes are possible; treat a wake as "poll again",
    /// not "data present".
    pub fn poll_many_ready(
        &mut self,
        max_per_partition: usize,
        waker: &Waker,
    ) -> Result<Option<PartitionBatches>, BrokerError> {
        let reqs = self.requests();
        if reqs.is_empty() {
            return Ok(Some(Vec::new()));
        }
        let waiter = self
            .waiter
            .get_or_insert_with(|| self.handle.arrival_waiter());
        let ready = self
            .handle
            .read_many_or_register(&reqs, max_per_partition, waiter, waker);
        if ready.is_empty() {
            return Ok(None);
        }
        self.advance(ready, max_per_partition).map(Some)
    }

    /// Blocking poll: up to `max_per_partition` records from every
    /// non-paused assigned partition, in partition order, waiting up to
    /// `timeout` for *any* of them to have data (one wait on the arrival
    /// registry, see [`Topic::read_many`] — an idle partition cannot hold
    /// back another's records). A zero `timeout` is a plain sweep that
    /// registers nothing.
    pub fn poll(
        &mut self,
        max_per_partition: usize,
        timeout: Duration,
    ) -> Result<Vec<Record>, BrokerError> {
        let ready = self
            .handle
            .read_many(&self.requests(), max_per_partition, timeout);
        let mut batches = self.advance(ready, max_per_partition)?.into_iter();
        // The first batch's buffer is the result; later ones move onto it.
        let mut out = batches.next().map_or_else(Vec::new, |(_, recs)| recs);
        for (_, recs) in batches {
            out.extend(recs);
        }
        Ok(out)
    }

    /// Pause a partition: subsequent [`Consumer::poll`] calls skip it.
    pub fn pause(&mut self, partition: usize) -> Result<(), BrokerError> {
        if !self.positions.contains_key(&partition) {
            return Err(BrokerError::NotAssigned {
                topic: self.topic.clone(),
                partition,
            });
        }
        self.paused.insert(partition);
        Ok(())
    }

    /// Resume a paused partition.
    pub fn resume(&mut self, partition: usize) {
        self.paused.remove(&partition);
    }

    /// Currently paused partitions.
    pub fn paused(&self) -> Vec<usize> {
        let mut p: Vec<usize> = self.paused.iter().copied().collect();
        p.sort_unstable();
        p
    }

    /// Whether every assigned partition is paused (`false` when nothing is
    /// assigned). The consumer's idle condition: with all partitions paused
    /// a poll would return nothing, so callers should sleep instead of
    /// spinning. Allocation-free, unlike comparing [`Consumer::paused`]
    /// against the assignment length.
    pub fn all_paused(&self) -> bool {
        !self.positions.is_empty() && self.paused.len() == self.positions.len()
    }

    /// Commit current positions for the group: one batched write under
    /// interned ids, regardless of how many partitions this member owns.
    pub fn commit(&self) {
        self.broker.commit_offsets(
            self.group_id,
            self.topic_id,
            self.positions.iter().map(|(&p, &off)| (p, off)),
        );
    }

    /// Seek a partition to an absolute offset.
    pub fn seek(&mut self, partition: usize, offset: Offset) -> Result<(), BrokerError> {
        if !self.positions.contains_key(&partition) {
            return Err(BrokerError::NotAssigned {
                topic: self.topic.clone(),
                partition,
            });
        }
        self.positions.insert(partition, offset);
        Ok(())
    }

    /// Seek a partition to the first record at/after `ts_us` (Kafka's
    /// `offsetsForTimes` + `seek` flow: "start from messages newer than T").
    pub fn seek_to_timestamp(&mut self, partition: usize, ts_us: u64) -> Result<(), BrokerError> {
        if !self.positions.contains_key(&partition) {
            return Err(BrokerError::NotAssigned {
                topic: self.topic.clone(),
                partition,
            });
        }
        let offset = self
            .broker
            .offset_for_timestamp(&self.topic, partition, ts_us)?;
        self.positions.insert(partition, offset);
        Ok(())
    }

    /// Total lag across assigned partitions (records behind the watermark).
    pub fn lag(&self) -> Result<u64, BrokerError> {
        let mut total = 0;
        for (&p, &pos) in &self.positions {
            let hwm =
                self.handle
                    .high_watermark(p)
                    .ok_or_else(|| BrokerError::UnknownPartition {
                        topic: self.topic.clone(),
                        partition: p,
                    })?;
            total += hwm.saturating_sub(pos);
        }
        Ok(total)
    }
}

impl Drop for Consumer {
    fn drop(&mut self) {
        if let Some(w) = self.waiter.take() {
            self.handle.release_waiter(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::retention::RetentionPolicy;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::task::{Wake, Waker};
    use std::time::Instant;

    fn setup(partitions: usize) -> Broker {
        let b = Broker::new();
        b.create_topic("t", partitions, RetentionPolicy::unbounded())
            .unwrap();
        b
    }

    fn rec(s: &str) -> Record {
        Record::new(bytes::Bytes::copy_from_slice(s.as_bytes()))
    }

    #[test]
    fn all_paused_tracks_assignment() {
        let b = setup(2);
        let mut c = Consumer::new(b, "t", "g", &[0, 1]).unwrap();
        assert!(!c.all_paused());
        c.pause(0).unwrap();
        assert!(!c.all_paused());
        c.pause(1).unwrap();
        assert!(c.all_paused());
        c.resume(0);
        assert!(!c.all_paused());
    }

    #[test]
    fn poll_advances_position() {
        let b = setup(1);
        b.append("t", 0, rec("a")).unwrap();
        b.append("t", 0, rec("b")).unwrap();
        let mut c = Consumer::new(b, "t", "g", &[0]).unwrap();
        let r1 = c.poll(1, Duration::ZERO).unwrap();
        assert_eq!(r1[0].value.as_ref(), b"a");
        let r2 = c.poll(1, Duration::ZERO).unwrap();
        assert_eq!(r2[0].value.as_ref(), b"b");
        assert_eq!(c.position(0), Some(2));
    }

    #[test]
    fn resume_from_committed_offset() {
        let b = setup(1);
        for s in ["a", "b", "c"] {
            b.append("t", 0, rec(s)).unwrap();
        }
        {
            let mut c = Consumer::new(b.clone(), "t", "g", &[0]).unwrap();
            c.poll(2, Duration::ZERO).unwrap();
            c.commit();
        }
        let mut c2 = Consumer::new(b, "t", "g", &[0]).unwrap();
        let r = c2.poll(10, Duration::ZERO).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].value.as_ref(), b"c");
    }

    #[test]
    fn different_groups_are_independent() {
        let b = setup(1);
        b.append("t", 0, rec("a")).unwrap();
        let mut c1 = Consumer::new(b.clone(), "t", "g1", &[0]).unwrap();
        c1.poll(10, Duration::ZERO).unwrap();
        c1.commit();
        let mut c2 = Consumer::new(b, "t", "g2", &[0]).unwrap();
        assert_eq!(c2.poll(10, Duration::ZERO).unwrap().len(), 1);
    }

    #[test]
    fn poll_all_partitions() {
        let b = setup(3);
        for p in 0..3 {
            b.append("t", p, rec("x")).unwrap();
        }
        let mut c = Consumer::new(b, "t", "g", &[0, 1, 2]).unwrap();
        let recs = c.poll(10, Duration::ZERO).unwrap();
        assert_eq!(recs.len(), 3);
    }

    #[test]
    fn unassigned_partition_rejected() {
        let b = setup(2);
        let mut c = Consumer::new(b, "t", "g", &[0]).unwrap();
        assert!(matches!(c.seek(1, 0), Err(BrokerError::NotAssigned { .. })));
    }

    #[test]
    fn lag_counts_unread() {
        let b = setup(1);
        for _ in 0..5 {
            b.append("t", 0, rec("x")).unwrap();
        }
        let mut c = Consumer::new(b, "t", "g", &[0]).unwrap();
        assert_eq!(c.lag().unwrap(), 5);
        c.poll(2, Duration::ZERO).unwrap();
        assert_eq!(c.lag().unwrap(), 3);
    }

    #[test]
    fn auto_reset_on_trimmed_offset() {
        let b = Broker::new();
        b.create_topic("t", 1, RetentionPolicy::committed())
            .unwrap();
        let mut c = Consumer::new(b.clone(), "t", "g", &[0]).unwrap();
        for _ in 0..(crate::log::SEGMENT_RECORDS * 2 + 1) {
            b.append("t", 0, rec("x")).unwrap();
        }
        // Another group commits past the head segment; "g" never
        // committed, so it pins nothing.
        b.commit_offset("ahead", "t", 0, crate::log::SEGMENT_RECORDS as u64 + 3);
        // Position 0 was trimmed; the poll auto-resets to log start.
        let recs = c.poll(5, Duration::ZERO).unwrap();
        assert!(!recs.is_empty());
        assert!(recs[0].offset >= crate::log::SEGMENT_RECORDS as u64);
        assert_eq!(recs[0].offset, b.topic("t").unwrap().log_start(0).unwrap());
    }

    #[test]
    fn seek_rewinds() {
        let b = setup(1);
        for s in ["a", "b"] {
            b.append("t", 0, rec(s)).unwrap();
        }
        let mut c = Consumer::new(b, "t", "g", &[0]).unwrap();
        c.poll(10, Duration::ZERO).unwrap();
        c.seek(0, 0).unwrap();
        let r = c.poll(10, Duration::ZERO).unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn paused_partition_skipped_by_poll() {
        let b = setup(2);
        b.append("t", 0, rec("a")).unwrap();
        b.append("t", 1, rec("b")).unwrap();
        let mut c = Consumer::new(b, "t", "g", &[0, 1]).unwrap();
        c.pause(0).unwrap();
        let recs = c.poll(10, Duration::ZERO).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].value.as_ref(), b"b");
        assert_eq!(c.paused(), vec![0]);
        c.resume(0);
        let recs = c.poll(10, Duration::ZERO).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].value.as_ref(), b"a");
    }

    #[test]
    fn pause_unassigned_rejected() {
        let b = setup(1);
        let mut c = Consumer::new(b, "t", "g", &[0]).unwrap();
        assert!(c.pause(5).is_err());
    }

    #[test]
    fn seek_to_timestamp_skips_old_records() {
        let b = setup(1);
        for ts in [100u64, 200, 300] {
            b.append("t", 0, Record::new(vec![1u8]).with_timestamp(ts))
                .unwrap();
        }
        let mut c = Consumer::new(b, "t", "g", &[0]).unwrap();
        c.seek_to_timestamp(0, 150).unwrap();
        let recs = c.poll(10, Duration::ZERO).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].timestamp_us, 200);
        assert!(c.seek_to_timestamp(3, 0).is_err());
    }

    #[test]
    fn bad_partition_at_construction() {
        let b = setup(1);
        assert!(Consumer::new(b, "t", "g", &[7]).is_err());
    }

    #[test]
    fn poll_returns_records_in_partition_order() {
        let b = setup(4);
        b.append("t", 2, rec("b")).unwrap();
        b.append("t", 2, rec("c")).unwrap();
        b.append("t", 0, rec("a")).unwrap();
        let mut c = Consumer::new(b, "t", "g", &[0, 1, 2, 3]).unwrap();
        let got = c.poll(10, Duration::ZERO).unwrap();
        let values: Vec<&[u8]> = got.iter().map(|r| r.value.as_ref()).collect();
        assert_eq!(values, [b"a", b"b", b"c"]);
        // Positions advanced: a second poll sees nothing.
        assert!(c.poll(10, Duration::ZERO).unwrap().is_empty());
        assert_eq!(c.position(0), Some(1));
        assert_eq!(c.position(1), Some(0));
        assert_eq!(c.position(2), Some(2));
    }

    #[test]
    fn blocking_poll_skips_paused() {
        // Partition 0 holds data but is paused: a blocking poll must wait
        // on partition 1 only, and return without partition 0's record.
        let b = setup(2);
        b.append("t", 0, rec("a")).unwrap();
        let mut c = Consumer::new(b.clone(), "t", "g", &[0, 1]).unwrap();
        c.pause(0).unwrap();
        let appender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            b.append("t", 1, rec("b")).unwrap();
        });
        let got = c.poll(10, Duration::from_secs(2)).unwrap();
        appender.join().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value.as_ref(), b"b");
        assert_eq!(c.position(0), Some(0));
        // Everything paused: nothing to wait for, so no blocking either.
        c.pause(1).unwrap();
        let start = Instant::now();
        assert!(c.poll(10, Duration::from_secs(2)).unwrap().is_empty());
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn poll_auto_resets_trimmed_offsets_on_every_partition() {
        let b = Broker::new();
        b.create_topic("t", 2, RetentionPolicy::committed())
            .unwrap();
        let mut c = Consumer::new(b.clone(), "t", "g", &[0, 1]).unwrap();
        for p in 0..2 {
            for _ in 0..(crate::log::SEGMENT_RECORDS * 2 + 3) {
                b.append("t", p, Record::new(vec![p as u8])).unwrap();
            }
            b.commit_offset("ahead", "t", p, crate::log::SEGMENT_RECORDS as u64 + 1);
        }
        // Position 0 was trimmed on both partitions; one poll resets both
        // to their log start and returns what is retained from there.
        let got = c.poll(2, Duration::ZERO).unwrap();
        assert_eq!(got.len(), 4, "2 records from each reset partition");
        for (p, recs) in got.chunks(2).enumerate() {
            assert!(recs.iter().all(|r| r.value[0] as usize == p));
            assert_eq!(recs[0].offset, b.topic("t").unwrap().log_start(p).unwrap());
            assert!(recs[0].offset >= crate::log::SEGMENT_RECORDS as u64);
            assert_eq!(c.position(p), Some(recs[1].offset + 1));
        }
    }

    #[test]
    fn poll_returns_when_a_later_partition_has_data() {
        // Partition 0 stays idle; the record lands on partition 1 shortly
        // after the poll parked. The poll must return on that append, not
        // sit out its timeout on partition 0 first.
        let b = setup(2);
        let mut c = Consumer::new(b.clone(), "t", "g", &[0, 1]).unwrap();
        let appender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            b.append("t", 1, rec("late")).unwrap();
        });
        let start = Instant::now();
        let got = c.poll(10, Duration::from_secs(2)).unwrap();
        let elapsed = start.elapsed();
        appender.join().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].value.as_ref(), b"late");
        assert!(
            elapsed < Duration::from_secs(1),
            "poll took {elapsed:?}: head-of-line blocked on idle partition 0"
        );
    }

    #[test]
    fn blocking_poll_races_appender_without_lost_wakeup() {
        // An appender spraying four partitions against a loop of short
        // blocking polls: every record is seen exactly once and in
        // per-partition order, and a lost wakeup would show as a poll that
        // sat out its whole timeout while data was already there.
        const PARTS: usize = 4;
        const PER_PART: u64 = 2_000;
        const TIMEOUT: Duration = Duration::from_millis(500);
        const SLACK: Duration = Duration::from_millis(250);
        let b = setup(PARTS);
        let parts: Vec<usize> = (0..PARTS).collect();
        let mut c = Consumer::new(b.clone(), "t", "g", &parts).unwrap();
        let appender = std::thread::spawn(move || {
            for i in 0..PER_PART {
                for p in 0..PARTS {
                    b.append("t", p, Record::new(vec![p as u8])).unwrap();
                }
                if i % 64 == 0 {
                    // Let the consumer drain and park again, so the race
                    // between "sweep saw nothing" and "armed" recurs.
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
        });
        let mut next = [0u64; PARTS];
        let mut polls = 0u64;
        let mut slowest = Duration::ZERO;
        while next.iter().sum::<u64>() < PER_PART * PARTS as u64 {
            let start = Instant::now();
            let got = c.poll(64, TIMEOUT).unwrap();
            slowest = slowest.max(start.elapsed());
            polls += 1;
            assert!(!got.is_empty(), "poll {polls} timed out with {next:?} seen");
            for r in got {
                let p = r.value[0] as usize;
                assert_eq!(r.offset, next[p], "partition {p} skipped or repeated");
                next[p] += 1;
            }
        }
        appender.join().unwrap();
        assert_eq!(next, [PER_PART; PARTS], "every record exactly once");
        assert!(
            slowest < TIMEOUT + SLACK,
            "a poll outlived its deadline: {slowest:?}"
        );
        assert!(c.poll(64, Duration::ZERO).unwrap().is_empty());
        println!("blocking_poll race: {polls} polls, slowest {slowest:?}");
    }

    #[test]
    fn poll_zero_timeout_registers_nothing() {
        let b = setup(2);
        let t = b.topic("t").unwrap();
        let mut c = Consumer::new(b.clone(), "t", "g", &[0, 1]).unwrap();
        assert!(c.poll(10, Duration::ZERO).unwrap().is_empty());
        assert_eq!(t.watcher_entries(), 0, "zero timeout must not enrol");
        assert_eq!(t.waiter_slots(), 0, "nor allocate a registry slot");
        assert!(c.waiter.is_none());
    }

    struct CountingWake(AtomicUsize);

    impl Wake for CountingWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
        fn wake_by_ref(self: &Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn counting_waker() -> (Arc<CountingWake>, Waker) {
        let c = Arc::new(CountingWake(AtomicUsize::new(0)));
        let w = Waker::from(Arc::clone(&c));
        (c, w)
    }

    #[test]
    fn poll_many_ready_returns_data_immediately() {
        let b = setup(2);
        b.append("t", 1, rec("a")).unwrap();
        let mut c = Consumer::new(b, "t", "g", &[0, 1]).unwrap();
        let (count, waker) = counting_waker();
        let got = c.poll_many_ready(10, &waker).unwrap().expect("data ready");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 1);
        assert_eq!(c.position(1), Some(1));
        assert_eq!(
            count.0.load(Ordering::SeqCst),
            0,
            "no wake when data was ready"
        );
    }

    #[test]
    fn poll_many_ready_registers_then_wakes_on_append() {
        let b = setup(2);
        let mut c = Consumer::new(b.clone(), "t", "g", &[0, 1]).unwrap();
        let (count, waker) = counting_waker();
        assert!(c.poll_many_ready(10, &waker).unwrap().is_none(), "parked");
        assert_eq!(count.0.load(Ordering::SeqCst), 0);
        b.append("t", 0, rec("x")).unwrap();
        assert_eq!(count.0.load(Ordering::SeqCst), 1, "append fired the waker");
        // Re-poll after the wake: the data is there.
        let got = c
            .poll_many_ready(10, &waker)
            .unwrap()
            .expect("data after wake");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 0);
    }

    #[test]
    fn poll_many_ready_all_paused_does_not_register() {
        let b = setup(1);
        let mut c = Consumer::new(b.clone(), "t", "g", &[0]).unwrap();
        c.pause(0).unwrap();
        let (count, waker) = counting_waker();
        let got = c.poll_many_ready(10, &waker).unwrap();
        assert_eq!(got, Some(Vec::new()), "nothing to poll, not parked");
        b.append("t", 0, rec("x")).unwrap();
        assert_eq!(
            count.0.load(Ordering::SeqCst),
            0,
            "a fully-paused consumer must not be woken by appends"
        );
    }

    #[test]
    fn dropped_consumer_releases_its_waiter() {
        let b = setup(1);
        let t = b.topic("t").unwrap();
        {
            let mut c = Consumer::new(b.clone(), "t", "g", &[0]).unwrap();
            let (_count, waker) = counting_waker();
            assert!(c.poll_many_ready(10, &waker).unwrap().is_none());
        }
        // The registration died with the consumer: appends wake nobody and
        // the stale entry is cleaned up lazily.
        b.append("t", 0, rec("x")).unwrap();
        assert_eq!(t.watcher_entries(), 0);
    }

    #[test]
    fn poll_commit_roundtrip_covers_every_partition() {
        let b = setup(3);
        for p in 0..3 {
            b.append("t", p, rec("x")).unwrap();
        }
        {
            let mut c = Consumer::new(b.clone(), "t", "g", &[0, 1, 2]).unwrap();
            assert_eq!(c.poll(10, Duration::ZERO).unwrap().len(), 3);
            c.commit();
        }
        // Batched commit landed for every partition: a successor sees
        // nothing left.
        let mut c2 = Consumer::new(b, "t", "g", &[0, 1, 2]).unwrap();
        assert!(c2.poll(10, Duration::ZERO).unwrap().is_empty());
    }
}
