//! The broker: topic registry + consumer-group offset store.
//!
//! It is also where retention lives. A topic created under
//! [`RetentionPolicy::committed`] (the default) is registered as a floor
//! topic; every commit on one raises the committed partitions' floors — the
//! lowest offset any committing group has committed there — and the log
//! trims up to it. The logs themselves read no policy.

use crate::error::BrokerError;
use crate::record::{Offset, Record};
use crate::retention::RetentionPolicy;
use crate::topic::Topic;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// A shareable in-process broker. Clone handles freely (`Arc` inside).
///
/// In the paper's architecture the broker runs inside its own pilot (e.g. a
/// dedicated LRZ VM, allocated in "step 1"); here the broker is an object
/// that the `pilot-core` broker-plugin hosts on a simulated pilot, with
/// `pilot-netsim` links charging the transport to and from it.
/// # Example
///
/// ```
/// use pilot_broker::{Broker, Record, RetentionPolicy};
///
/// let broker = Broker::new();
/// broker.create_topic("sensors", 2, RetentionPolicy::default()).unwrap();
/// broker.append("sensors", 0, Record::new(&b"reading"[..])).unwrap();
/// let records = broker.fetch("sensors", 0, 0, 10).unwrap();
/// assert_eq!(records[0].value.as_ref(), b"reading");
/// ```
#[derive(Clone)]
pub struct Broker {
    inner: Arc<Inner>,
}

/// An interned topic name: a stable, `Copy` key for the hot-path offset
/// store. Ids survive topic deletion and re-creation (like the names they
/// intern), so committed offsets behave exactly as with string keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TopicId(u32);

/// An interned consumer-group name (see [`TopicId`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId(u32);

/// The offset store's key: one partition of one topic, two machine words
/// hashed without touching a heap allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PartitionKey {
    topic: TopicId,
    partition: u32,
}

/// Intern `name` into `map`, assigning the next dense id on first sight.
/// Entries are never removed, so `len()` is a valid id source.
fn intern(map: &RwLock<HashMap<String, u32>>, name: &str) -> u32 {
    if let Some(&id) = map.read().get(name) {
        return id;
    }
    let mut w = map.write();
    let next = w.len() as u32;
    *w.entry(name.to_string()).or_insert(next)
}

struct Inner {
    topics: RwLock<HashMap<String, Arc<Topic>>>,
    /// Interned topic names. Insert-only: ids stay valid across topic
    /// deletion, preserving the string-keyed offset semantics.
    topic_ids: RwLock<HashMap<String, u32>>,
    /// Interned consumer-group names. Insert-only.
    group_ids: RwLock<HashMap<String, u32>>,
    /// (topic, partition) → every group that has committed there, with its
    /// committed offset — usually one entry. The partition's commit floor
    /// is the lowest of them, found without scanning other partitions.
    offsets: RwLock<HashMap<PartitionKey, Vec<(GroupId, Offset)>>>,
    /// Topics created with [`RetentionPolicy::committed`], by interned id:
    /// the ones a commit trims.
    floor_topics: RwLock<HashMap<TopicId, Arc<Topic>>>,
}

impl Broker {
    /// Create an empty broker.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(Inner {
                topics: RwLock::new(HashMap::new()),
                topic_ids: RwLock::new(HashMap::new()),
                group_ids: RwLock::new(HashMap::new()),
                offsets: RwLock::new(HashMap::new()),
                floor_topics: RwLock::new(HashMap::new()),
            }),
        }
    }

    /// Intern a topic name into a stable [`TopicId`]. Cheap after the first
    /// call for a given name; consumers cache the id and commit offsets
    /// without re-hashing strings.
    pub fn topic_id(&self, name: &str) -> TopicId {
        TopicId(intern(&self.inner.topic_ids, name))
    }

    /// Intern a consumer-group name into a stable [`GroupId`].
    pub fn group_id(&self, name: &str) -> GroupId {
        GroupId(intern(&self.inner.group_ids, name))
    }

    /// Create a topic. Errors if it already exists with a different
    /// partition count; re-creating with the same count is a no-op
    /// (mirroring the framework's "automatically created Kafka topic").
    /// An existing *durable* topic of the same name is a
    /// [`BrokerError::DurabilityMismatch`], not a silent no-op — the caller
    /// asked for memory-only semantics it would not get.
    pub fn create_topic(
        &self,
        name: &str,
        partitions: usize,
        retention: RetentionPolicy,
    ) -> Result<(), BrokerError> {
        let mut topics = self.inner.topics.write();
        if let Some(existing) = topics.get(name) {
            if existing.partition_count() != partitions {
                return Err(BrokerError::TopicExists {
                    topic: name.to_string(),
                    partitions: existing.partition_count(),
                });
            }
            if existing.is_durable() {
                return Err(BrokerError::DurabilityMismatch {
                    topic: name.to_string(),
                    existing_durable: true,
                });
            }
            return Ok(());
        }
        let topic = Arc::new(Topic::new(name, partitions));
        self.register(&mut topics, topic, retention);
        Ok(())
    }

    /// Create a *durable* topic: partitions persist to
    /// `cfg.dir/p{n}/` through the storage engine (see
    /// [`Topic::new_durable`]). Re-creation semantics match
    /// [`Broker::create_topic`] — an existing *durable* topic with the same
    /// partition count is left as-is (its open log keeps running; it is
    /// **not** re-recovered), while an existing memory-only topic is a
    /// [`BrokerError::DurabilityMismatch`]: returning `Ok` would let the
    /// caller believe its appends persist when nothing reaches disk.
    /// Reopening after a restart recovers the on-disk log, truncating any
    /// torn tail.
    pub fn create_topic_durable(
        &self,
        name: &str,
        partitions: usize,
        retention: RetentionPolicy,
        cfg: &crate::storage::DurabilityConfig,
    ) -> Result<(), BrokerError> {
        let mut topics = self.inner.topics.write();
        if let Some(existing) = topics.get(name) {
            if existing.partition_count() != partitions {
                return Err(BrokerError::TopicExists {
                    topic: name.to_string(),
                    partitions: existing.partition_count(),
                });
            }
            if !existing.is_durable() {
                return Err(BrokerError::DurabilityMismatch {
                    topic: name.to_string(),
                    existing_durable: false,
                });
            }
            return Ok(());
        }
        let topic = Topic::new_durable(name, partitions, cfg)
            .map_err(|e| BrokerError::Storage(format!("open durable topic '{name}': {e}")))?;
        self.register(&mut topics, Arc::new(topic), retention);
        Ok(())
    }

    /// Enter a new topic in the registry (the caller holds its write lock)
    /// and, under [`RetentionPolicy::committed`], in the set of topics a
    /// commit trims.
    fn register(
        &self,
        topics: &mut HashMap<String, Arc<Topic>>,
        topic: Arc<Topic>,
        retention: RetentionPolicy,
    ) {
        if retention.committed {
            self.inner
                .floor_topics
                .write()
                .insert(self.topic_id(topic.name()), Arc::clone(&topic));
        }
        topics.insert(topic.name().to_string(), topic);
    }

    /// Aggregate storage-engine stats across every topic (the
    /// `broker.log.*` telemetry gauges sample this). Cheap for memory-only
    /// brokers: per-topic segment counts plus a handful of atomic loads.
    pub fn log_stats(&self) -> crate::storage::LogStats {
        let topics: Vec<Arc<Topic>> = self.inner.topics.read().values().cloned().collect();
        let mut out = crate::storage::LogStats::default();
        for t in topics {
            out.merge(&t.log_stats());
        }
        out
    }

    /// Look up a topic handle.
    pub fn topic(&self, name: &str) -> Result<Arc<Topic>, BrokerError> {
        self.inner
            .topics
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| BrokerError::UnknownTopic(name.to_string()))
    }

    /// Topic names currently registered.
    pub fn topic_names(&self) -> Vec<String> {
        self.inner.topics.read().keys().cloned().collect()
    }

    /// Append a record to `topic`/`partition`.
    pub fn append(
        &self,
        topic: &str,
        partition: usize,
        record: Record,
    ) -> Result<Offset, BrokerError> {
        let t = self.topic(topic)?;
        t.append(partition, record)
            .ok_or_else(|| BrokerError::UnknownPartition {
                topic: topic.to_string(),
                partition,
            })
    }

    /// Fetch up to `max` records at `offset` (non-blocking; empty when the
    /// partition holds nothing there yet). Waiting for data is the
    /// [`Consumer`](crate::Consumer)'s job.
    pub fn fetch(
        &self,
        topic: &str,
        partition: usize,
        offset: Offset,
        max: usize,
    ) -> Result<Vec<Record>, BrokerError> {
        self.topic(topic)?.fetch(partition, offset, max)
    }

    /// High watermark of a partition.
    pub fn high_watermark(&self, topic: &str, partition: usize) -> Result<Offset, BrokerError> {
        let t = self.topic(topic)?;
        t.high_watermark(partition)
            .ok_or_else(|| BrokerError::UnknownPartition {
                topic: topic.to_string(),
                partition,
            })
    }

    /// Delete a topic (consumers with open handles keep theirs; new
    /// lookups fail). Returns true if the topic existed.
    pub fn delete_topic(&self, name: &str) -> bool {
        let removed = self.inner.topics.write().remove(name).is_some();
        if removed {
            self.inner.floor_topics.write().remove(&self.topic_id(name));
        }
        removed
    }

    /// First offset at/after `ts_us` in a partition (Kafka's
    /// `offsetsForTimes`) — lets consumers start from "messages newer than
    /// T" instead of an offset.
    pub fn offset_for_timestamp(
        &self,
        topic: &str,
        partition: usize,
        ts_us: u64,
    ) -> Result<Offset, BrokerError> {
        let t = self.topic(topic)?;
        t.offset_for_timestamp(partition, ts_us)
            .ok_or_else(|| BrokerError::UnknownPartition {
                topic: topic.to_string(),
                partition,
            })
    }

    /// Commit a consumer-group offset (the *next* offset to read).
    ///
    /// Interns the group and topic names (a read-lock hash of `&str`, no
    /// allocation after first use). Hot loops should intern once via
    /// [`Broker::group_id`]/[`Broker::topic_id`] and use
    /// [`Broker::commit_offset_by_id`] or [`Broker::commit_offsets`].
    pub fn commit_offset(&self, group: &str, topic: &str, partition: usize, offset: Offset) {
        self.commit_offsets(
            self.group_id(group),
            self.topic_id(topic),
            [(partition, offset)],
        );
    }

    /// Commit an offset under pre-interned ids (see
    /// [`Broker::commit_offsets`]).
    pub fn commit_offset_by_id(
        &self,
        group: GroupId,
        topic: TopicId,
        partition: usize,
        offset: Offset,
    ) {
        self.commit_offsets(group, topic, [(partition, offset)]);
    }

    /// Batched commit: all of a member's partition offsets land under one
    /// write lock — a member owning 128 partitions pays one lock instead
    /// of 128.
    ///
    /// On a topic created with [`RetentionPolicy::committed`] each
    /// committed partition's floor — the lowest offset among the groups
    /// that have committed on it — is read under that lock, and the log is
    /// trimmed up to it after the lock is released: O(groups on the
    /// partition) per entry, no scan of the offset store.
    pub fn commit_offsets(
        &self,
        group: GroupId,
        topic: TopicId,
        entries: impl IntoIterator<Item = (usize, Offset)>,
    ) {
        let floor_topic = self.inner.floor_topics.read().get(&topic).cloned();
        let mut floors = Vec::new();
        {
            let mut offsets = self.inner.offsets.write();
            for (partition, offset) in entries {
                let key = PartitionKey {
                    topic,
                    partition: partition as u32,
                };
                let groups = offsets.entry(key).or_default();
                match groups.iter_mut().find(|(g, _)| *g == group) {
                    Some(slot) => slot.1 = offset,
                    None => groups.push((group, offset)),
                }
                if floor_topic.is_some() {
                    let floor = groups.iter().map(|&(_, o)| o).min().unwrap_or(offset);
                    floors.push((partition, floor));
                }
            }
        }
        if let Some(t) = floor_topic {
            for (partition, floor) in floors {
                t.raise_floor(partition, floor);
            }
        }
    }

    /// Last committed offset for a group (None if never committed).
    pub fn committed(&self, group: &str, topic: &str, partition: usize) -> Option<Offset> {
        let group = GroupId(*self.inner.group_ids.read().get(group)?);
        let topic = TopicId(*self.inner.topic_ids.read().get(topic)?);
        self.committed_by_id(group, topic, partition)
    }

    /// Last committed offset under pre-interned ids.
    pub fn committed_by_id(
        &self,
        group: GroupId,
        topic: TopicId,
        partition: usize,
    ) -> Option<Offset> {
        self.inner
            .offsets
            .read()
            .get(&PartitionKey {
                topic,
                partition: partition as u32,
            })?
            .iter()
            .find_map(|&(g, offset)| (g == group).then_some(offset))
    }

    /// Consumer-group lag: high watermark − committed, per partition.
    pub fn lag(&self, group: &str, topic: &str) -> Result<Vec<u64>, BrokerError> {
        Ok(self
            .partition_lags(group, topic)?
            .into_iter()
            .map(|p| p.lag())
            .collect())
    }

    /// Per-partition consumer position detail: committed offset vs. head
    /// offset (high watermark) for every partition of `topic` under
    /// `group`. This is the accessor the telemetry sampler's lag probe
    /// uses — unlike [`Self::lag`] it keeps both sides of the subtraction,
    /// so a dashboard can distinguish "idle, fully caught up" from "idle,
    /// nothing produced yet".
    pub fn partition_lags(
        &self,
        group: &str,
        topic: &str,
    ) -> Result<Vec<PartitionLag>, BrokerError> {
        let t = self.topic(topic)?;
        Ok((0..t.partition_count())
            .map(|partition| PartitionLag {
                partition,
                committed: self.committed(group, topic, partition).unwrap_or(0),
                head: t.high_watermark(partition).unwrap_or(0),
            })
            .collect())
    }
}

/// One partition's consumer position: committed vs. head offset (see
/// [`Broker::partition_lags`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionLag {
    /// Partition index within the topic.
    pub partition: usize,
    /// Last committed offset of the consumer group (0 if none).
    pub committed: u64,
    /// Head offset (high watermark) of the partition.
    pub head: u64,
}

impl PartitionLag {
    /// Records appended but not yet committed by the group.
    pub fn lag(&self) -> u64 {
        self.head.saturating_sub(self.committed)
    }
}

impl Default for Broker {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Broker")
            .field("topics", &self.topic_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(s: &str) -> Record {
        Record::new(bytes::Bytes::copy_from_slice(s.as_bytes()))
    }

    #[test]
    fn create_and_append_fetch() {
        let b = Broker::new();
        b.create_topic("t", 2, RetentionPolicy::unbounded())
            .unwrap();
        assert_eq!(b.append("t", 0, rec("hello")).unwrap(), 0);
        assert_eq!(b.append("t", 0, rec("world")).unwrap(), 1);
        let recs = b.fetch("t", 0, 0, 10).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].value.as_ref(), b"world");
    }

    #[test]
    fn recreate_same_partitions_ok() {
        let b = Broker::new();
        b.create_topic("t", 4, RetentionPolicy::unbounded())
            .unwrap();
        assert!(b.create_topic("t", 4, RetentionPolicy::unbounded()).is_ok());
        assert_eq!(
            b.create_topic("t", 8, RetentionPolicy::unbounded()),
            Err(BrokerError::TopicExists {
                topic: "t".into(),
                partitions: 4
            })
        );
    }

    #[test]
    fn unknown_topic_errors() {
        let b = Broker::new();
        assert_eq!(
            b.append("nope", 0, rec("x")),
            Err(BrokerError::UnknownTopic("nope".into()))
        );
        assert!(matches!(
            b.fetch("nope", 0, 0, 1),
            Err(BrokerError::UnknownTopic(_))
        ));
    }

    #[test]
    fn unknown_partition_errors() {
        let b = Broker::new();
        b.create_topic("t", 1, RetentionPolicy::unbounded())
            .unwrap();
        assert!(matches!(
            b.append("t", 3, rec("x")),
            Err(BrokerError::UnknownPartition { .. })
        ));
    }

    #[test]
    fn offset_commit_roundtrip() {
        let b = Broker::new();
        b.create_topic("t", 1, RetentionPolicy::unbounded())
            .unwrap();
        assert_eq!(b.committed("g", "t", 0), None);
        b.commit_offset("g", "t", 0, 42);
        assert_eq!(b.committed("g", "t", 0), Some(42));
        // Groups are independent.
        assert_eq!(b.committed("other", "t", 0), None);
    }

    #[test]
    fn lag_reflects_unconsumed() {
        let b = Broker::new();
        b.create_topic("t", 2, RetentionPolicy::unbounded())
            .unwrap();
        for _ in 0..5 {
            b.append("t", 0, rec("x")).unwrap();
        }
        b.append("t", 1, rec("x")).unwrap();
        b.commit_offset("g", "t", 0, 3);
        assert_eq!(b.lag("g", "t").unwrap(), vec![2, 1]);
    }

    #[test]
    fn partition_lags_expose_both_sides() {
        let b = Broker::new();
        b.create_topic("t", 2, RetentionPolicy::unbounded())
            .unwrap();
        for _ in 0..5 {
            b.append("t", 0, rec("x")).unwrap();
        }
        b.commit_offset("g", "t", 0, 3);
        let lags = b.partition_lags("g", "t").unwrap();
        assert_eq!(
            lags[0],
            PartitionLag {
                partition: 0,
                committed: 3,
                head: 5
            }
        );
        assert_eq!(lags[0].lag(), 2);
        // "Idle, nothing produced" is distinguishable from "caught up":
        // both lag 0, but committed/head differ.
        assert_eq!(
            lags[1],
            PartitionLag {
                partition: 1,
                committed: 0,
                head: 0
            }
        );
        assert!(b.partition_lags("g", "missing").is_err());
    }

    #[test]
    fn clones_share_state() {
        let a = Broker::new();
        let b = a.clone();
        a.create_topic("t", 1, RetentionPolicy::unbounded())
            .unwrap();
        assert!(b.topic("t").is_ok());
    }

    #[test]
    fn delete_topic_removes_lookup() {
        let b = Broker::new();
        b.create_topic("t", 1, RetentionPolicy::unbounded())
            .unwrap();
        assert!(b.delete_topic("t"));
        assert!(!b.delete_topic("t"));
        assert!(b.topic("t").is_err());
    }

    #[test]
    fn recreate_with_different_durability_errors() {
        let dir = std::env::temp_dir().join(format!(
            "pilot-broker-durability-mismatch-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = crate::storage::DurabilityConfig::new(&dir);
        let b = Broker::new();
        b.create_topic("mem", 1, RetentionPolicy::unbounded())
            .unwrap();
        // Memory-only exists: a durable create must not claim persistence.
        assert_eq!(
            b.create_topic_durable("mem", 1, RetentionPolicy::unbounded(), &cfg),
            Err(BrokerError::DurabilityMismatch {
                topic: "mem".into(),
                existing_durable: false
            })
        );
        b.create_topic_durable("dur", 1, RetentionPolicy::unbounded(), &cfg)
            .unwrap();
        // Durable exists: idempotent durable re-create is fine …
        assert!(b
            .create_topic_durable("dur", 1, RetentionPolicy::unbounded(), &cfg)
            .is_ok());
        // … but a memory-only create of the same name is a mismatch.
        assert_eq!(
            b.create_topic("dur", 1, RetentionPolicy::unbounded()),
            Err(BrokerError::DurabilityMismatch {
                topic: "dur".into(),
                existing_durable: true
            })
        );
        // Partition-count mismatch still reports TopicExists first.
        assert!(matches!(
            b.create_topic_durable("mem", 2, RetentionPolicy::unbounded(), &cfg),
            Err(BrokerError::TopicExists { .. })
        ));
        drop(b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn offset_for_timestamp_via_broker() {
        let b = Broker::new();
        b.create_topic("t", 1, RetentionPolicy::unbounded())
            .unwrap();
        for ts in [100u64, 200, 300] {
            b.append("t", 0, Record::new(vec![1u8]).with_timestamp(ts))
                .unwrap();
        }
        assert_eq!(b.offset_for_timestamp("t", 0, 150).unwrap(), 1);
        assert_eq!(b.offset_for_timestamp("t", 0, 301).unwrap(), 3);
        assert!(b.offset_for_timestamp("t", 9, 0).is_err());
    }

    #[test]
    fn interned_ids_are_stable_and_interoperate_with_strings() {
        let b = Broker::new();
        b.create_topic("t", 1, RetentionPolicy::unbounded())
            .unwrap();
        let g = b.group_id("g");
        let t = b.topic_id("t");
        assert_eq!(b.group_id("g"), g);
        assert_eq!(b.topic_id("t"), t);
        assert_ne!(b.topic_id("other"), t);
        // Commit by id, read by string (and vice versa).
        b.commit_offset_by_id(g, t, 0, 7);
        assert_eq!(b.committed("g", "t", 0), Some(7));
        b.commit_offset("g", "t", 0, 9);
        assert_eq!(b.committed_by_id(g, t, 0), Some(9));
    }

    #[test]
    fn batched_commit_covers_all_partitions() {
        let b = Broker::new();
        b.create_topic("t", 4, RetentionPolicy::unbounded())
            .unwrap();
        let g = b.group_id("g");
        let t = b.topic_id("t");
        b.commit_offsets(g, t, (0..4).map(|p| (p, p as u64 * 10)));
        for p in 0..4 {
            assert_eq!(b.committed("g", "t", p), Some(p as u64 * 10));
        }
    }

    #[test]
    fn offsets_survive_topic_recreation() {
        // Ids intern names, not topic instances: delete + recreate keeps
        // the committed offsets, exactly as the string-keyed store did.
        let b = Broker::new();
        b.create_topic("t", 1, RetentionPolicy::unbounded())
            .unwrap();
        b.commit_offset("g", "t", 0, 5);
        b.delete_topic("t");
        b.create_topic("t", 1, RetentionPolicy::unbounded())
            .unwrap();
        assert_eq!(b.committed("g", "t", 0), Some(5));
    }

    #[test]
    fn fetch_out_of_range_after_retention() {
        let b = Broker::new();
        b.create_topic("t", 1, RetentionPolicy::default()).unwrap();
        for _ in 0..(crate::log::SEGMENT_RECORDS * 2 + 1) {
            b.append("t", 0, rec("x")).unwrap();
        }
        b.commit_offset("g", "t", 0, crate::log::SEGMENT_RECORDS as u64 + 1);
        let err = b.fetch("t", 0, 0, 1).unwrap_err();
        assert!(matches!(err, BrokerError::OffsetOutOfRange { .. }));
    }

    #[test]
    fn commit_floor_trims_to_the_slowest_group() {
        let b = Broker::new();
        b.create_topic("t", 2, RetentionPolicy::committed())
            .unwrap();
        for _ in 0..10 {
            b.append("t", 0, rec("x")).unwrap();
        }
        let t = b.topic("t").unwrap();
        let size = rec("x").wire_size() as u64;
        b.commit_offset("fast", "t", 0, 2);
        assert_eq!(t.log_start(0), Some(2));
        assert_eq!(t.log_stats().retained_bytes, 8 * size);
        // The slower group pins the floor …
        b.commit_offset("slow", "t", 0, 2);
        b.commit_offset("fast", "t", 0, 9);
        assert_eq!(t.log_start(0), Some(2));
        // … until it moves too.
        b.commit_offset("slow", "t", 0, 7);
        assert_eq!(t.log_start(0), Some(7));
        assert_eq!(t.log_stats().retained_bytes, 3 * size);
        assert!(matches!(
            b.fetch("t", 0, 6, 1),
            Err(BrokerError::OffsetOutOfRange { log_start: 7, .. })
        ));
        assert_eq!(b.fetch("t", 0, 7, 10).unwrap().len(), 3);
        // Other partitions are untouched by a commit elsewhere.
        assert_eq!(t.log_start(1), Some(0));
    }

    #[test]
    fn group_that_never_committed_pins_nothing() {
        let b = Broker::new();
        b.create_topic("t", 1, RetentionPolicy::committed())
            .unwrap();
        for _ in 0..5 {
            b.append("t", 0, rec("x")).unwrap();
        }
        // A member of "idle" reads but never commits.
        let mut idle = crate::Consumer::new(b.clone(), "t", "idle", &[0]).unwrap();
        assert_eq!(idle.poll(10, std::time::Duration::ZERO).unwrap().len(), 5);
        b.commit_offset("g", "t", 0, 5);
        let t = b.topic("t").unwrap();
        assert_eq!(t.log_start(0), Some(5));
        assert_eq!(t.log_stats().retained_bytes, 0);
        // A group joining later starts at the log start.
        let mut late = crate::Consumer::new(b.clone(), "t", "late", &[0]).unwrap();
        assert_eq!(late.position(0), Some(5));
        b.append("t", 0, rec("y")).unwrap();
        assert_eq!(late.poll(10, std::time::Duration::ZERO).unwrap().len(), 1);
    }

    #[test]
    fn commits_do_not_trim_other_policies() {
        let b = Broker::new();
        b.create_topic("t", 1, RetentionPolicy::unbounded())
            .unwrap();
        for _ in 0..5 {
            b.append("t", 0, rec("x")).unwrap();
        }
        b.commit_offset("g", "t", 0, 5);
        assert_eq!(b.fetch("t", 0, 0, 10).unwrap().len(), 5);
        // Re-created under another policy, a topic stops trimming too.
        b.delete_topic("t");
        b.create_topic("t", 1, RetentionPolicy::committed())
            .unwrap();
        b.delete_topic("t");
        b.create_topic("t", 1, RetentionPolicy::unbounded())
            .unwrap();
        b.append("t", 0, rec("x")).unwrap();
        b.commit_offset("g", "t", 0, 1);
        assert_eq!(b.fetch("t", 0, 0, 10).unwrap().len(), 1);
    }
}
