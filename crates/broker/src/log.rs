//! The per-partition segmented commit log.
//!
//! A [`PartitionLog`] is an append-only sequence of [`Record`]s with dense
//! offsets, stored in fixed-capacity segments. The log reads no retention
//! policy: its start moves forward only when the broker raises the
//! partition's commit floor (see [`retention`](crate::retention)). The
//! records below the new start have their payloads released at once (the
//! log start may sit inside a segment, like Kafka's `DeleteRecords`), and
//! segments wholly below it are dropped whole — O(1) each, however many
//! records they hold.
//!
//! A log is either **memory-only** (the seed structure: every record
//! resident, nothing survives the process) or **durable**
//! ([`PartitionLog::open_durable`]): each segment is mirrored to an
//! append-only file through the [`storage`](crate::storage) engine, cold
//! segments are *evicted* — records dropped from memory, served back from
//! the page cache on fetch — and a dropped segment's file is unlinked.
//! The append hot path is identical in shape either way; durability adds
//! one frame encode into a user-space buffer (see
//! [`storage::writer`](crate::storage::writer)) and *never* a syscall —
//! the buffered bytes move to the files on the sync cycle, outside the
//! partition lock. A sealed segment is only evicted once the durable
//! watermark covers it, so a cold fetch never reads a file region whose
//! write is still pending.
//!
//! Disk I/O failures on the append path (segment-file creation at a roll)
//! panic with context rather than propagate: the append API is infallible
//! by design (every producer and reactor path assumes it), and a broker
//! whose disk is gone has no useful degraded mode in this simulation.

use crate::record::{Offset, Record};
use crate::storage::flusher::sync_now;
use crate::storage::writer::{DiskSegment, PartitionWriter, SyncBatch};
use crate::storage::{DurableMark, StoreStats, SyncPolicy};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Records per segment. Small enough that a dropped head segment frees
/// memory promptly, large enough that segment bookkeeping is negligible.
pub const SEGMENT_RECORDS: usize = 1024;

/// Why a [`PartitionLog::read`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// The requested offset precedes the retained log: the commit floor
    /// (the lowest offset committed by a group that has committed on the
    /// partition, see [`RetentionPolicy::committed`](crate::RetentionPolicy::committed))
    /// passed it. Carries the current log start, so callers can auto-reset
    /// (Kafka's `auto.offset.reset = earliest`).
    Trimmed(Offset),
    /// A cold segment's file could not be read back, or its frames no
    /// longer decode — an I/O fault or latent corruption discovered after
    /// recovery. Only durable logs can produce this.
    Storage(String),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Trimmed(start) => write!(f, "offset trimmed; log starts at {start}"),
            ReadError::Storage(msg) => write!(f, "cold segment read failed: {msg}"),
        }
    }
}

/// Sealed segments kept fully in memory behind the active one (a durable
/// log's hot tail). Older sealed segments are evicted: their records drop
/// to disk-backed form and fetches read them back through the page cache.
pub const RESIDENT_SEALED_SEGMENTS: usize = 1;

#[derive(Debug)]
struct Segment {
    base_offset: Offset,
    /// Resident records. Empty for an evicted segment (`count` still
    /// reflects the segment's true population).
    records: Vec<Record>,
    /// Records in the segment, resident or not (trimmed ones included:
    /// offsets stay dense).
    count: usize,
    /// Wire bytes of the segment's records at or above the log start.
    bytes: u64,
    /// Largest record timestamp (0 while empty).
    max_ts: u64,
    /// On-disk identity, once sealed in a durable log.
    disk: Option<DiskSegment>,
}

impl Segment {
    fn new(base_offset: Offset) -> Self {
        Self {
            base_offset,
            records: Vec::with_capacity(SEGMENT_RECORDS.min(64)),
            count: 0,
            bytes: 0,
            max_ts: 0,
            disk: None,
        }
    }

    fn next_offset(&self) -> Offset {
        self.base_offset + self.count as u64
    }

    fn is_full(&self) -> bool {
        self.count >= SEGMENT_RECORDS
    }

    fn is_evicted(&self) -> bool {
        self.count > 0 && self.records.is_empty()
    }

    /// Release the records at in-segment indices `from..to`: drop their
    /// payloads if resident, and return the wire bytes they leave `bytes`.
    fn release(&mut self, from: usize, to: usize) -> u64 {
        let released = match &self.disk {
            Some(d) if self.is_evicted() => d.wire_bytes(from, to),
            _ => self.records[from..to]
                .iter_mut()
                .map(|r| {
                    let size = r.wire_size() as u64;
                    r.value = bytes::Bytes::new();
                    size
                })
                .sum(),
        };
        self.bytes -= released;
        released
    }
}

/// The durable half of a [`PartitionLog`]: the buffered file appender plus
/// the shared handles through which the flusher publishes durability.
struct Store {
    writer: PartitionWriter,
    policy: SyncPolicy,
    stats: Arc<StoreStats>,
    durable: Arc<AtomicU64>,
    mark: Arc<DurableMark>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

/// An append-only partition log whose start the commit floor advances.
#[derive(Debug)]
pub struct PartitionLog {
    segments: Vec<Segment>,
    /// Wire bytes of the retained records.
    total_bytes: u64,
    /// Offset of the first retained record; `segments[0]` holds it (or it
    /// equals the high watermark).
    log_start: Offset,
    /// `Some` for a durable log; `None` is the seed memory-only structure.
    store: Option<Store>,
}

impl Default for PartitionLog {
    fn default() -> Self {
        Self::new()
    }
}

impl PartitionLog {
    /// Create an empty memory-only log.
    pub fn new() -> Self {
        Self {
            segments: vec![Segment::new(0)],
            total_bytes: 0,
            log_start: 0,
            store: None,
        }
    }

    /// Open (or create) a durable log rooted at `dir`, recovering any
    /// existing segment files: torn tails are truncated, the clean prefix
    /// becomes the log (see [`storage::recovery`](crate::storage::recovery)).
    /// Recovered segments come back evicted — reopening costs one
    /// sequential scan, not the log's RAM footprint. `durable` and `mark`
    /// are initialised to the recovered high watermark (everything
    /// recovered is on disk by definition).
    pub fn open_durable(
        dir: PathBuf,
        policy: SyncPolicy,
        stats: Arc<StoreStats>,
        durable: Arc<AtomicU64>,
        mark: Arc<DurableMark>,
    ) -> std::io::Result<Self> {
        let recovered = crate::storage::recovery::recover_partition(&dir)?;
        let next = recovered.next_offset;
        let mut segments: Vec<Segment> = Vec::with_capacity(recovered.segments.len() + 1);
        let mut total_bytes = 0u64;
        for seg in recovered.segments {
            let count = seg.disk.positions.len();
            total_bytes += seg.wire_bytes;
            segments.push(Segment {
                base_offset: seg.base_offset,
                records: Vec::new(),
                count,
                bytes: seg.wire_bytes,
                max_ts: seg.max_ts,
                disk: Some(seg.disk),
            });
        }
        let log_start = segments.first().map_or(next, |s| s.base_offset);
        // A fresh active segment (and file) always starts at the recovered
        // high watermark — recovered segments are sealed even when short,
        // so a crash-heavy history shows up as variable-length segments.
        segments.push(Segment::new(next));
        let writer = PartitionWriter::create(dir, next, Arc::clone(&stats))?;
        durable.store(next, Ordering::Release);
        mark.set(next, 0);
        Ok(Self {
            segments,
            total_bytes,
            log_start,
            store: Some(Store {
                writer,
                policy,
                stats,
                durable,
                mark,
            }),
        })
    }

    /// Offset of the first retained record.
    pub fn log_start(&self) -> Offset {
        self.log_start
    }

    /// Offset one past the last record (next offset to be assigned).
    pub fn high_watermark(&self) -> Offset {
        self.segments
            .last()
            .map(|s| s.next_offset())
            .unwrap_or(self.log_start)
    }

    /// Offset below which every record survives a crash. For a memory-only
    /// log this is the high watermark (there is no stronger durability to
    /// wait for); for a durable log it advances when the flusher's fsync
    /// covers the appends.
    pub fn durable_watermark(&self) -> Offset {
        match &self.store {
            Some(s) => s.durable.load(Ordering::Acquire),
            None => self.high_watermark(),
        }
    }

    /// Retained records (offsets are dense, so this is the high watermark
    /// minus the log start).
    pub fn len(&self) -> u64 {
        self.high_watermark() - self.log_start
    }

    /// True if no records are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Retained payload bytes.
    pub fn bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Retained segments (resident and evicted alike).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Records currently resident in memory (diagnostic: shows eviction
    /// bounding the footprint of a long durable run). Trimmed records of a
    /// segment still in use count, though their payloads are released.
    pub fn resident_records(&self) -> u64 {
        self.segments.iter().map(|s| s.records.len() as u64).sum()
    }

    /// Append a record; the log assigns and returns its offset.
    pub fn append(&mut self, mut record: Record) -> Offset {
        let offset = self.high_watermark();
        record.offset = offset;
        let size = record.wire_size() as u64;
        if self.segments.last().is_none_or(|s| s.is_full()) {
            self.roll_segment(offset);
        }
        if let Some(store) = &mut self.store {
            store.writer.append(&record);
            if matches!(store.policy, SyncPolicy::EachAppend) {
                // The measured counterfactual: capture + write + fsync
                // inline, under the partition lock, once per record. The
                // lock itself serialises these cycles (no `sync_mu` here —
                // taking it under the partition lock would invert the
                // ordering `sync_partition` uses), and an explicit sync
                // racing this path always captures an empty batch.
                if let Some(b) = store.writer.prepare_sync(offset + 1) {
                    sync_now(&b, &store.stats, &store.durable, &store.mark)
                        .unwrap_or_else(|e| panic!("inline fsync: {e}"));
                }
            }
        }
        let seg = self.segments.last_mut().expect("segment just ensured");
        seg.max_ts = seg.max_ts.max(record.timestamp_us);
        seg.records.push(record);
        seg.count += 1;
        seg.bytes += size;
        self.total_bytes += size;
        offset
    }

    /// Seal the active segment (mirroring the roll to the segment file in a
    /// durable log) and open the next one, evicting whatever sealed segment
    /// fell off the resident tail.
    fn roll_segment(&mut self, next_base: Offset) {
        if let Some(store) = &mut self.store {
            let disk = store
                .writer
                .seal_and_roll(next_base)
                .unwrap_or_else(|e| panic!("segment roll at offset {next_base}: {e}"));
            if let Some(last) = self.segments.last_mut() {
                last.disk = Some(disk);
            }
        }
        self.segments.push(Segment::new(next_base));
        // Eviction only changes state on a roll (one new sealed segment),
        // so the scan happens here, not per-append. The durable gate: a
        // segment may only drop its resident records once the watermark
        // covers it — its file bytes are guaranteed on disk — so a cold
        // fetch never races the write-behind. Segments that miss the gate
        // now are re-examined at the next roll.
        if let Some(store) = &self.store {
            let durable = store.durable.load(Ordering::Acquire);
            let keep_from = self
                .segments
                .len()
                .saturating_sub(1 + RESIDENT_SEALED_SEGMENTS);
            for seg in &mut self.segments[..keep_from] {
                if seg.disk.is_some() && !seg.records.is_empty() && seg.next_offset() <= durable {
                    seg.records = Vec::new();
                }
            }
        }
    }

    /// Move the log start up to `to` (clamped to the high watermark): the
    /// one trim routine, driven by the commit floor
    /// ([`Topic::raise_floor`](crate::topic::Topic::raise_floor)). Segments
    /// wholly below `to` are dropped, except the active one; in a durable
    /// log their files are unlinked, one `unlink` each. In the segment `to`
    /// lands in, the records below it have their payloads released. A `to`
    /// at or below the current start is a no-op: the start never moves
    /// back.
    pub(crate) fn advance_start(&mut self, to: Offset) {
        let to = to.min(self.high_watermark());
        if to <= self.log_start {
            return;
        }
        let whole = self.segments[..self.segments.len() - 1]
            .iter()
            .take_while(|s| s.next_offset() <= to)
            .count();
        for seg in self.segments.drain(..whole) {
            self.total_bytes -= seg.bytes;
            if let Some(disk) = seg.disk {
                // An unsynced sealed file may still sit in the writer's
                // pending list; its handle stays valid (fsync of a deleted
                // file is harmless), only the name goes away.
                let _ = std::fs::remove_file(&disk.path);
            }
        }
        let seg = &mut self.segments[0];
        let from = self.log_start.saturating_sub(seg.base_offset) as usize;
        self.total_bytes -= seg.release(from, (to - seg.base_offset) as usize);
        self.log_start = to;
    }

    /// Capture what the next sync cycle must write and fsync (see
    /// [`storage::flusher`](crate::storage::flusher)). `None` for a
    /// memory-only or clean log. Pure bookkeeping — safe under the lock.
    pub(crate) fn prepare_sync(&mut self) -> Option<SyncBatch> {
        let hwm = self.high_watermark();
        match &mut self.store {
            Some(s) => s.writer.prepare_sync(hwm),
            None => None,
        }
    }

    /// Hand a *failed* sync cycle's batch back to the writer so the next
    /// cycle retries the same positioned writes (see
    /// [`storage::flusher`](crate::storage::flusher)). Without this the
    /// batch's bytes would never reach the file, and a later successful
    /// cycle would advance the durable watermark over the hole.
    pub(crate) fn requeue_failed_sync(&mut self, batch: SyncBatch) {
        if let Some(s) = &mut self.store {
            s.writer.requeue_failed_sync(batch);
        }
    }

    /// Test-only inline sync cycle: capture, write, fsync, publish —
    /// what `Topic::sync` does through the flusher plumbing.
    #[cfg(test)]
    fn test_sync(&mut self) {
        if let Some(b) = self.prepare_sync() {
            let s = self.store.as_ref().expect("durable log");
            sync_now(&b, &s.stats, &s.durable, &s.mark).expect("test sync");
        }
    }

    /// First retained offset whose record timestamp is `>= ts_us`, or the
    /// high watermark if every retained record is older (Kafka's
    /// `offsetsForTimes`). Binary search — segments by their max timestamp,
    /// then records within the hit segment — O(log n), assuming per-
    /// partition timestamps are non-decreasing (the same assumption
    /// Kafka's time index makes; every producer in this repo stamps
    /// monotonically).
    pub fn offset_for_timestamp(&self, ts_us: u64) -> Offset {
        // Trailing empty segment (a fresh active) has max_ts == 0 and would
        // break the predicate's monotonicity; it holds nothing anyway.
        let mut upper = self.segments.len();
        while upper > 0 && self.segments[upper - 1].count == 0 {
            upper -= 1;
        }
        let segs = &self.segments[..upper];
        let i = segs.partition_point(|s| s.max_ts < ts_us);
        let Some(seg) = segs.get(i) else {
            return self.high_watermark();
        };
        // max_ts >= ts_us, so some record in `seg` qualifies: j < count.
        let j = match &seg.disk {
            Some(d) if seg.is_evicted() => d.timestamps.partition_point(|&t| t < ts_us),
            _ => seg.records.partition_point(|r| r.timestamp_us < ts_us),
        };
        // Trimmed records keep their timestamps; never answer below them.
        (seg.base_offset + j as u64).max(self.log_start)
    }

    /// Read up to `max` records starting at `offset`. An offset below
    /// `log_start` is [`ReadError::Trimmed`]; an offset at or above the
    /// high watermark returns an empty vec (nothing there *yet*); a cold
    /// segment whose file fails to read back is [`ReadError::Storage`].
    ///
    /// Resident segments clone records (a `Bytes` refcount bump); evicted
    /// segments are read back from their file in one buffered read — the
    /// page cache serves anything recent — and decoded zero-copy.
    pub fn read(&self, offset: Offset, max: usize) -> Result<Vec<Record>, ReadError> {
        if offset < self.log_start {
            return Err(ReadError::Trimmed(self.log_start));
        }
        let hwm = self.high_watermark();
        if offset >= hwm || max == 0 {
            return Ok(Vec::new());
        }
        // Binary search for the segment containing `offset`.
        let seg_idx = match self
            .segments
            .binary_search_by(|s| s.base_offset.cmp(&offset))
        {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let mut out = Vec::with_capacity(max.min(1024));
        let mut idx = seg_idx;
        let mut pos = (offset - self.segments[seg_idx].base_offset) as usize;
        while out.len() < max && idx < self.segments.len() {
            let seg = &self.segments[idx];
            let take = (max - out.len()).min(seg.count - pos);
            if seg.is_evicted() {
                let disk = seg.disk.as_ref().expect("evicted segment has disk");
                out.extend(
                    disk.read_records(pos, take)
                        .map_err(|e| ReadError::Storage(e.to_string()))?,
                );
            } else {
                out.extend_from_slice(&seg.records[pos..pos + take]);
            }
            pos = 0;
            idx += 1;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(n: usize) -> Record {
        Record::new(vec![0u8; n])
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pilot-log-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: PathBuf) -> PartitionLog {
        PartitionLog::open_durable(
            dir,
            SyncPolicy::OsOnly,
            Arc::new(StoreStats::default()),
            Arc::new(AtomicU64::new(0)),
            Arc::new(DurableMark::default()),
        )
        .unwrap()
    }

    #[test]
    fn offsets_are_dense() {
        let mut log = PartitionLog::new();
        for i in 0..10 {
            assert_eq!(log.append(rec(8)), i);
        }
        assert_eq!(log.high_watermark(), 10);
        assert_eq!(log.len(), 10);
    }

    #[test]
    fn read_returns_requested_window() {
        let mut log = PartitionLog::new();
        for _ in 0..100 {
            log.append(rec(8));
        }
        let recs = log.read(10, 5).unwrap();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[0].offset, 10);
        assert_eq!(recs[4].offset, 14);
    }

    #[test]
    fn read_at_high_watermark_is_empty() {
        let mut log = PartitionLog::new();
        log.append(rec(8));
        assert!(log.read(1, 10).unwrap().is_empty());
        assert!(log.read(100, 10).unwrap().is_empty());
    }

    #[test]
    fn read_spans_segments() {
        let mut log = PartitionLog::new();
        let n = SEGMENT_RECORDS * 2 + 10;
        for _ in 0..n {
            log.append(rec(1));
        }
        let recs = log.read(SEGMENT_RECORDS as u64 - 5, 10).unwrap();
        assert_eq!(recs.len(), 10);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.offset, SEGMENT_RECORDS as u64 - 5 + i as u64);
        }
    }

    #[test]
    fn zero_max_read_is_empty() {
        let mut log = PartitionLog::new();
        log.append(rec(8));
        assert!(log.read(0, 0).unwrap().is_empty());
    }

    #[test]
    fn offset_for_timestamp_finds_first_at_or_after() {
        let mut log = PartitionLog::new();
        for ts in [10u64, 20, 30, 40] {
            log.append(Record::new(vec![0u8; 4]).with_timestamp(ts));
        }
        assert_eq!(log.offset_for_timestamp(0), 0);
        assert_eq!(log.offset_for_timestamp(20), 1);
        assert_eq!(log.offset_for_timestamp(25), 2);
        assert_eq!(log.offset_for_timestamp(99), log.high_watermark());
    }

    #[test]
    fn offset_for_timestamp_spans_segments() {
        let mut log = PartitionLog::new();
        let n = SEGMENT_RECORDS * 3 + 7;
        for i in 0..n {
            log.append(Record::new(vec![0u8; 4]).with_timestamp(i as u64 * 2));
        }
        // Exact hits, between-records hits, segment boundaries.
        for probe in [
            0u64,
            5,
            (SEGMENT_RECORDS as u64) * 2,
            (SEGMENT_RECORDS as u64) * 2 + 1,
            (n as u64 - 1) * 2,
        ] {
            let expect = probe.div_ceil(2).min(n as u64);
            assert_eq!(log.offset_for_timestamp(probe), expect, "probe {probe}");
        }
        assert_eq!(log.offset_for_timestamp(u64::MAX), log.high_watermark());
    }

    #[test]
    fn durable_log_reads_match_memory_log() {
        let dir = tmp_dir("parity");
        let mut mem = PartitionLog::new();
        let mut dur = open(dir.clone());
        let n = SEGMENT_RECORDS * 3 + 100; // forces eviction of early segments
        for i in 0..n {
            let r = Record::new(vec![(i % 251) as u8; 1 + i % 60]).with_timestamp(i as u64);
            assert_eq!(mem.append(r.clone()), dur.append(r));
            if i % 512 == 511 {
                // Advance the durable watermark so the eviction gate opens
                // (resident records only drop once their bytes are synced).
                dur.test_sync();
            }
        }
        assert!(dur.resident_records() < n as u64, "cold segments evicted");
        for (offset, max) in [(0u64, 10usize), (500, 2000), (2047, 3), (0, n + 10)] {
            assert_eq!(
                mem.read(offset, max).unwrap(),
                dur.read(offset, max).unwrap(),
                "read({offset},{max})"
            );
        }
        assert_eq!(
            mem.offset_for_timestamp(1234),
            dur.offset_for_timestamp(1234)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_log_survives_reopen() {
        let dir = tmp_dir("reopen");
        let n = SEGMENT_RECORDS + 77;
        {
            let mut log = open(dir.clone());
            for i in 0..n {
                log.append(Record::new(vec![i as u8; 33]).with_timestamp(i as u64));
            }
        } // drop flushes the writer buffer (clean shutdown)
        let log = open(dir.clone());
        assert_eq!(log.high_watermark(), n as u64);
        assert_eq!(log.durable_watermark(), n as u64);
        assert_eq!(log.len(), n as u64);
        let recs = log.read(SEGMENT_RECORDS as u64 - 2, 5).unwrap();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[0].offset, SEGMENT_RECORDS as u64 - 2);
        assert_eq!(
            recs[0].value.as_ref(),
            &[(SEGMENT_RECORDS - 2) as u8; 33][..]
        );
        assert_eq!(log.offset_for_timestamp(500), 500);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn durable_floor_unlinks_segment_files() {
        let dir = tmp_dir("retention");
        let mut log = open(dir.clone());
        for _ in 0..(SEGMENT_RECORDS * 3) {
            log.append(rec(8));
        }
        log.advance_start(SEGMENT_RECORDS as u64 * 2);
        assert_eq!(log.segment_count(), 1);
        let files = std::fs::read_dir(&dir).unwrap().count();
        // Only the retained segments' files remain.
        assert!(
            files <= log.segment_count(),
            "{files} files on disk for {} segments",
            log.segment_count()
        );
        // Reopen sees the same trimmed log.
        drop(log);
        let log = open(dir.clone());
        assert_eq!(log.high_watermark(), (SEGMENT_RECORDS * 3) as u64);
        assert!(log.log_start() > 0);
        assert_eq!(log.read(0, 1), Err(ReadError::Trimmed(log.log_start())));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_sync_requeues_no_hole_and_honest_watermark() {
        let dir = tmp_dir("requeue");
        let n = 10u64;
        {
            let mut log = open(dir.clone());
            for i in 0..n {
                log.append(Record::new(vec![i as u8; 24]).with_timestamp(i));
            }
            // Simulate a failed cycle: the batch is captured but none of
            // its writes land (what sync_partition does on an I/O error).
            let batch = log.prepare_sync().expect("dirty");
            log.requeue_failed_sync(batch);
            assert_eq!(
                log.durable_watermark(),
                0,
                "a failed cycle must not publish durability"
            );
            for i in n..2 * n {
                log.append(Record::new(vec![i as u8; 24]).with_timestamp(i));
            }
            // The retry cycle covers the requeued bytes AND the new ones.
            log.test_sync();
            assert_eq!(log.durable_watermark(), 2 * n);
        }
        // Reopen: no hole — the full record set is a clean prefix.
        let log = open(dir.clone());
        assert_eq!(log.high_watermark(), 2 * n);
        let recs = log.read(0, 2 * n as usize).unwrap();
        assert_eq!(recs.len(), 2 * n as usize);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.offset, i as u64);
            assert_eq!(r.value.as_ref(), &[i as u8; 24][..]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn each_append_policy_is_immediately_durable() {
        let dir = tmp_dir("each-append");
        let durable = Arc::new(AtomicU64::new(0));
        let mut log = PartitionLog::open_durable(
            dir.clone(),
            SyncPolicy::EachAppend,
            Arc::new(StoreStats::default()),
            Arc::clone(&durable),
            Arc::new(DurableMark::default()),
        )
        .unwrap();
        for i in 0..5u64 {
            log.append(rec(16));
            assert_eq!(durable.load(Ordering::Acquire), i + 1);
            assert_eq!(log.durable_watermark(), i + 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_below_commit_floor_is_trimmed() {
        let mut log = PartitionLog::new();
        for i in 0..10u8 {
            log.append(Record::new(vec![i; 8]));
        }
        log.advance_start(4);
        assert_eq!(log.log_start(), 4);
        assert_eq!(log.read(3, 1), Err(ReadError::Trimmed(4)));
        let recs = log.read(4, 100).unwrap();
        assert_eq!(recs.len(), 6);
        assert_eq!(recs[0].offset, 4);
        assert_eq!(
            recs[0].value.as_ref(),
            &[4u8; 8][..],
            "payload above the floor kept"
        );
    }

    #[test]
    fn bytes_and_len_fall_as_commit_floor_rises() {
        let mut log = PartitionLog::new();
        let n = SEGMENT_RECORDS as u64 * 2 + 10;
        for _ in 0..n {
            log.append(rec(8));
        }
        let size = rec(8).wire_size() as u64;
        assert_eq!((log.len(), log.bytes()), (n, n * size));
        // Inside the head segment: payloads released, segment kept.
        log.advance_start(5);
        assert_eq!((log.len(), log.bytes()), (n - 5, (n - 5) * size));
        assert_eq!(log.segment_count(), 3);
        // Wholly past the head segment: it is dropped.
        let floor = SEGMENT_RECORDS as u64 + 1;
        log.advance_start(floor);
        assert_eq!((log.len(), log.bytes()), (n - floor, (n - floor) * size));
        assert_eq!(log.segment_count(), 2);
        // The floor never moves back …
        log.advance_start(2);
        assert_eq!(log.log_start(), floor);
        // … and stops at the high watermark; the active segment stays.
        log.advance_start(u64::MAX);
        assert_eq!((log.len(), log.bytes()), (0, 0));
        assert_eq!(log.log_start(), n);
        assert_eq!(log.segment_count(), 1);
        // Appends after a full trim read back normally.
        assert_eq!(log.append(rec(8)), n);
        assert_eq!(log.read(n, 10).unwrap().len(), 1);
        assert_eq!(log.bytes(), size);
    }

    #[test]
    fn offset_for_timestamp_never_below_log_start() {
        let mut log = PartitionLog::new();
        for ts in 0..20u64 {
            log.append(Record::new(vec![0u8; 4]).with_timestamp(ts * 10));
        }
        log.advance_start(7);
        assert_eq!(log.offset_for_timestamp(0), 7);
        assert_eq!(log.offset_for_timestamp(65), 7);
        assert_eq!(log.offset_for_timestamp(75), 8);
        assert_eq!(log.offset_for_timestamp(u64::MAX), log.high_watermark());
    }

    #[test]
    fn durable_head_file_unlinked_only_once_floor_passes_it() {
        let dir = tmp_dir("floor");
        let mut mem = PartitionLog::new();
        let mut log = open(dir.clone());
        let n = SEGMENT_RECORDS * 3 + 5; // the head segment gets evicted
        for i in 0..n {
            let r = Record::new(vec![(i % 251) as u8; 1 + i % 40]);
            mem.append(r.clone());
            log.append(r);
            if i % 512 == 511 {
                log.test_sync();
            }
        }
        log.test_sync();
        assert!(log.segments[0].is_evicted());
        let files = || std::fs::read_dir(&dir).unwrap().count();
        let head = SEGMENT_RECORDS as u64;
        let before = files();
        // A floor inside the (evicted) head segment keeps its file, and
        // counts the released bytes exactly as a memory log does.
        for l in [&mut log, &mut mem] {
            l.advance_start(head - 1);
        }
        assert_eq!(files(), before);
        assert_eq!(log.bytes(), mem.bytes());
        assert_eq!(log.read(head - 2, 1), Err(ReadError::Trimmed(head - 1)));
        assert_eq!(
            log.read(head - 1, 2).unwrap(),
            mem.read(head - 1, 2).unwrap()
        );
        // Wholly past it: one unlink.
        for l in [&mut log, &mut mem] {
            l.advance_start(head + 3);
        }
        assert_eq!(files(), before - 1);
        assert_eq!(log.bytes(), mem.bytes());
        drop(log);
        // Reopen recovers from the next file (the floor itself is not
        // persisted: the log starts at that file's base).
        let log = open(dir.clone());
        assert_eq!(log.log_start(), head);
        assert_eq!(log.high_watermark(), n as u64);
        let h = head as usize;
        assert_eq!(
            log.read(head, 1).unwrap()[0].value.as_ref(),
            &vec![(h % 251) as u8; 1 + h % 40][..]
        );
        assert_eq!(
            log.read(head + 3, 5).unwrap(),
            mem.read(head + 3, 5).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        /// Any sequence of appends yields dense offsets and reads return
        /// exactly the records asked for, in order.
        #[test]
        fn prop_append_read_consistent(sizes in proptest::collection::vec(1usize..64, 1..200)) {
            let mut log = PartitionLog::new();
            for (i, &s) in sizes.iter().enumerate() {
                let off = log.append(rec(s));
                prop_assert_eq!(off, i as u64);
            }
            let all = log.read(0, sizes.len()).unwrap();
            prop_assert_eq!(all.len(), sizes.len());
            for (i, r) in all.iter().enumerate() {
                prop_assert_eq!(r.offset, i as u64);
                prop_assert_eq!(r.value.len(), sizes[i]);
            }
        }

        /// Under any commit floors raised along the way, the high
        /// watermark is monotonic, the log start never moves back and
        /// never passes it, `len`/`bytes` count exactly the records from
        /// the log start on, reads below the start are `Trimmed` and reads
        /// from it succeed.
        #[test]
        fn prop_retention_invariants(
            n in 1usize..4000,
            commits in proptest::collection::vec((0usize..4000, 0u64..4000), 0..20),
        ) {
            let mut log = PartitionLog::new();
            let size = rec(4).wire_size() as u64;
            let (mut prev_hwm, mut prev_start) = (0, 0);
            for i in 0..n {
                log.append(rec(4));
                for &(_, floor) in commits.iter().filter(|&&(at, _)| at == i) {
                    log.advance_start(floor);
                }
                let hwm = log.high_watermark();
                prop_assert!(hwm > prev_hwm);
                prev_hwm = hwm;
                let start = log.log_start();
                prop_assert!(start >= prev_start);
                prev_start = start;
                prop_assert!(start <= hwm);
                prop_assert_eq!(log.len(), hwm - start);
                prop_assert_eq!(log.bytes(), (hwm - start) * size);
            }
            let start = log.log_start();
            if start > 0 {
                prop_assert_eq!(log.read(start - 1, 1), Err(ReadError::Trimmed(start)));
            }
            let from_start = log.read(start, 10).unwrap();
            prop_assert_eq!(from_start.is_empty(), log.is_empty());
            if let Some(first) = from_start.first() {
                prop_assert_eq!(first.offset, start);
                prop_assert_eq!(first.value.len(), 4);
            }
        }

        /// Monotonic timestamps: the binary-search `offset_for_timestamp`
        /// agrees with a reference linear scan at every probe.
        #[test]
        fn prop_offset_for_timestamp_matches_linear_scan(
            gaps in proptest::collection::vec(0u64..5, 1..300),
            probes in proptest::collection::vec(0u64..800, 1..20),
        ) {
            let mut log = PartitionLog::new();
            let mut ts = 0u64;
            let mut stamps = Vec::new();
            for g in &gaps {
                ts += g; // non-decreasing, duplicates allowed
                stamps.push(ts);
                log.append(Record::new(vec![0u8; 4]).with_timestamp(ts));
            }
            for &probe in &probes {
                let linear = stamps
                    .iter()
                    .position(|&t| t >= probe)
                    .map_or(log.high_watermark(), |i| i as u64);
                prop_assert_eq!(log.offset_for_timestamp(probe), linear, "probe {}", probe);
            }
        }
    }
}
