//! The per-partition write-behind appender.
//!
//! One [`PartitionWriter`] per durable partition, owned by its
//! [`PartitionLog`](crate::log::PartitionLog) and driven under the same
//! mutex as the in-memory append — so the file order is the offset order by
//! construction. Appends *only encode* into a user-space buffer: no
//! syscall, ever, on the append path. The buffered bytes move to the
//! segment files later, as [`PendingWrite`]s captured by
//! [`PartitionWriter::prepare_sync`] under the log lock and performed
//! *outside* it by whoever runs the sync cycle (the
//! [flusher](super::flusher) thread under group commit, the caller for an
//! explicit sync, the append itself for the
//! [`SyncPolicy::EachAppend`](super::SyncPolicy::EachAppend)
//! counterfactual). Producers therefore pay memory speed — one frame
//! memcpy — while the disk catches up on another thread.
//!
//! When the in-memory segment seals, [`PartitionWriter::seal_and_roll`]
//! moves the sealed file's uncaptured bytes onto the pending list, hands
//! back the file's metadata as a [`DiskSegment`] (record positions +
//! timestamps, the index a cold fetch needs), and opens the next file. A
//! sealed segment may only be served from disk once the durable watermark
//! covers it — the eviction gate in
//! [`PartitionLog`](crate::log::PartitionLog) — so a fetch never reads a
//! file region whose write is still pending.

use super::segment_file::{decode_frame, encode_frame, segment_file_name, FRAME_HEADER};
use super::StoreStats;
use crate::record::{Offset, Record};
use bytes::Bytes;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Initial capacity of the append buffer (it grows as a commit window's
/// traffic demands; `prepare_sync` recycles the allocation).
pub const APPEND_BUF_CAPACITY: usize = 64 * 1024;

/// A sealed segment's on-disk identity and index: everything a fetch needs
/// to serve the segment after its records are evicted from memory.
#[derive(Debug)]
pub struct DiskSegment {
    /// Segment file path (unlinked on retention).
    pub path: PathBuf,
    /// Open read handle (kept so retention's unlink never races a read).
    pub file: Arc<File>,
    /// File position of each record's frame, by index within the segment.
    pub positions: Vec<u64>,
    /// Each record's timestamp, by index — kept resident so
    /// `offset_for_timestamp` binary-searches cold segments without I/O.
    pub timestamps: Vec<u64>,
    /// Total encoded bytes in the file.
    pub data_len: u64,
}

impl DiskSegment {
    /// Summed `wire_size` of the records at in-segment indices `from..to`,
    /// from the frame positions alone (a frame is a fixed header plus a
    /// body of exactly the record's wire size) — no I/O.
    pub fn wire_bytes(&self, from: usize, to: usize) -> u64 {
        let at = |i: usize| self.positions.get(i).copied().unwrap_or(self.data_len);
        at(to) - at(from) - (FRAME_HEADER * (to - from)) as u64
    }

    /// Read `take` records starting at in-segment index `rel` — one
    /// buffered read covering exactly the wanted frames (served from the
    /// page cache for anything recent), then zero-copy frame decode.
    ///
    /// Errors (a bad sector, corruption that slipped past recovery) are
    /// returned, not panicked: a fetch hitting latent damage must surface
    /// it to the caller, not take down the consumer thread.
    pub fn read_records(&self, rel: usize, take: usize) -> io::Result<Vec<Record>> {
        let take = take.min(self.positions.len().saturating_sub(rel));
        if take == 0 {
            return Ok(Vec::new());
        }
        let start = self.positions[rel];
        let end = self
            .positions
            .get(rel + take)
            .copied()
            .unwrap_or(self.data_len);
        let mut buf = vec![0u8; (end - start) as usize];
        read_exact_at(&self.file, &mut buf, start).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("segment read {}@{start}: {e}", self.path.display()),
            )
        })?;
        let data = Bytes::from(buf);
        let mut out = Vec::with_capacity(take);
        let mut pos = 0usize;
        for _ in 0..take {
            let (rec, next) = decode_frame(&data, pos).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "segment {} corrupt at file pos {}: {e}",
                        self.path.display(),
                        start + pos as u64
                    ),
                )
            })?;
            out.push(rec);
            pos = next;
        }
        Ok(out)
    }
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], pos: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, pos)
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], pos: u64) -> io::Result<()> {
    // Non-unix fallback: a positioned read via a cloned handle (the clone
    // shares the descriptor but seeking it does not disturb appends, which
    // track their own length).
    use std::io::{Read, Seek, SeekFrom};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(pos))?;
    f.read_exact(buf)
}

#[cfg(unix)]
fn write_all_at(file: &File, buf: &[u8], pos: u64) -> io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(file, buf, pos)
}

#[cfg(not(unix))]
fn write_all_at(file: &File, buf: &[u8], pos: u64) -> io::Result<()> {
    use std::io::{Seek, SeekFrom, Write};
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(pos))?;
    f.write_all(buf)
}

/// Buffered bytes captured for the write path: a run of encoded frames and
/// the exact file position they belong at. Positioned writes make pending
/// writes order-independent across batches — the sync serialisation (one
/// cycle at a time per partition) supplies the durability ordering.
pub struct PendingWrite {
    file: Arc<File>,
    offset: u64,
    data: Vec<u8>,
}

impl PendingWrite {
    /// Write the bytes to their file position (page cache; no fsync).
    pub fn perform(&self) -> io::Result<()> {
        write_all_at(&self.file, &self.data, self.offset)
    }

    /// The file this write lands in (for the covering fsync).
    pub fn file(&self) -> &Arc<File> {
        &self.file
    }
}

/// What one sync cycle must cover for a partition: captured under the log
/// lock by [`PartitionWriter::prepare_sync`], written and fsynced *outside*
/// it.
pub struct SyncBatch {
    /// Buffered bytes to write before the fsync, with their positions.
    /// Handles are clones, so retention or a concurrent roll cannot
    /// invalidate them mid-cycle. Usually one entry per file; a batch
    /// re-queued after a failed cycle may contribute additional entries
    /// for the same file (harmless — writes are positioned, the covering
    /// fsync just runs once more).
    pub writes: Vec<PendingWrite>,
    /// High watermark at capture time — the durable watermark once the
    /// writes land and their files are synced.
    pub hwm: Offset,
    /// Dirty bytes this batch retires.
    pub bytes: u64,
    /// Active segment's base offset at capture time.
    pub seg_base: Offset,
    /// Active file's captured length at capture time (the durable file
    /// position within `seg_base`'s file once this batch completes).
    pub file_len: u64,
}

/// The write-behind appender for one partition's active segment file.
pub struct PartitionWriter {
    dir: PathBuf,
    stats: Arc<StoreStats>,
    file: Arc<File>,
    path: PathBuf,
    base: Offset,
    /// Bytes of the active file already captured for the write path.
    captured_len: u64,
    /// Encoded frames not yet captured (the active file's tail).
    buf: Vec<u8>,
    positions: Vec<u64>,
    timestamps: Vec<u64>,
    /// Sealed files' uncaptured bytes, awaiting the next sync cycle.
    pending: Vec<PendingWrite>,
    /// Bytes appended (across seals) since the last `prepare_sync`.
    dirty: u64,
}

impl PartitionWriter {
    /// Open a fresh active segment file whose first record will be `base`.
    /// `dir` must already exist.
    pub fn create(dir: PathBuf, base: Offset, stats: Arc<StoreStats>) -> io::Result<Self> {
        let path = dir.join(segment_file_name(base));
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .read(true)
            .open(&path)?;
        Ok(Self {
            dir,
            stats,
            file: Arc::new(file),
            path,
            base,
            captured_len: 0,
            buf: Vec::with_capacity(APPEND_BUF_CAPACITY),
            positions: Vec::new(),
            timestamps: Vec::new(),
            pending: Vec::new(),
            dirty: 0,
        })
    }

    /// Base offset of the active segment file.
    pub fn base(&self) -> Offset {
        self.base
    }

    /// Append `record`'s frame (offset already assigned). Returns the frame
    /// size. Pure memcpy — never a syscall.
    pub fn append(&mut self, record: &Record) -> usize {
        self.positions
            .push(self.captured_len + self.buf.len() as u64);
        self.timestamps.push(record.timestamp_us);
        let n = encode_frame(&mut self.buf, record);
        self.dirty += n as u64;
        self.stats
            .dirty_bytes
            .fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// Move the active buffer onto the pending list (no I/O). The bytes
    /// keep their file position; performing them later is order-free.
    fn capture_buf(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let data = std::mem::replace(&mut self.buf, Vec::with_capacity(APPEND_BUF_CAPACITY));
        let len = data.len() as u64;
        self.pending.push(PendingWrite {
            file: Arc::clone(&self.file),
            offset: self.captured_len,
            data,
        });
        self.captured_len += len;
    }

    /// Seal the active segment and open the next one at `next_base`.
    /// Returns the sealed segment's [`DiskSegment`] metadata; its
    /// uncaptured bytes join the pending list for the next sync cycle.
    pub fn seal_and_roll(&mut self, next_base: Offset) -> io::Result<DiskSegment> {
        self.capture_buf();
        let next_path = self.dir.join(segment_file_name(next_base));
        let next_file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .read(true)
            .open(&next_path)?;
        let sealed = DiskSegment {
            path: std::mem::replace(&mut self.path, next_path),
            file: std::mem::replace(&mut self.file, Arc::new(next_file)),
            positions: std::mem::take(&mut self.positions),
            timestamps: std::mem::take(&mut self.timestamps),
            data_len: self.captured_len,
        };
        self.base = next_base;
        self.captured_len = 0;
        Ok(sealed)
    }

    /// Capture everything the next sync cycle must write and fsync, or
    /// `None` when the partition is clean. Called under the log lock; pure
    /// bookkeeping (buffer handoff, no I/O). The returned batch is
    /// performed outside the lock.
    pub fn prepare_sync(&mut self, hwm: Offset) -> Option<SyncBatch> {
        self.capture_buf();
        if self.dirty == 0 {
            return None;
        }
        Some(SyncBatch {
            writes: std::mem::take(&mut self.pending),
            hwm,
            bytes: std::mem::take(&mut self.dirty),
            seg_base: self.base,
            file_len: self.captured_len,
        })
    }

    /// Hand a *failed* sync cycle's batch back for retry: its positioned
    /// writes rejoin the pending list (order-free — every write carries its
    /// own file position) and the dirty count is restored so the next
    /// [`PartitionWriter::prepare_sync`] captures them again. Dropping the
    /// batch instead would leave a hole in the segment file that a later
    /// successful cycle's watermark would then claim durable.
    ///
    /// `StoreStats::dirty_bytes` is deliberately untouched: the failed
    /// cycle never decremented it, so the bytes are still accounted dirty.
    pub fn requeue_failed_sync(&mut self, batch: SyncBatch) {
        let SyncBatch {
            mut writes, bytes, ..
        } = batch;
        writes.append(&mut self.pending);
        self.pending = writes;
        self.dirty += bytes;
    }
}

impl Drop for PartitionWriter {
    fn drop(&mut self) {
        // Clean shutdown keeps every append readable on reopen (the frames
        // reach the files, and process exit cannot lose page-cache writes).
        // Deliberately *no* fsync here: crash durability is the watermark's
        // contract, not Drop's.
        self.capture_buf();
        for w in &self.pending {
            if let Err(e) = w.perform() {
                // Can't propagate from Drop; make the lost tail observable
                // (reopen will recover only what reached the files).
                eprintln!(
                    "pilot-broker writer: shutdown flush of {} failed: {e}",
                    self.path.display()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pilot-writer-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn file_len(p: &Path) -> u64 {
        std::fs::metadata(p).map(|m| m.len()).unwrap_or(0)
    }

    fn rec(offset: u64, size: usize) -> Record {
        let mut r = Record::new(vec![offset as u8; size]).with_timestamp(offset);
        r.offset = offset;
        r
    }

    #[test]
    fn appends_never_touch_the_file_until_a_cycle_performs_them() {
        let dir = tmp_dir("buffered");
        let stats = Arc::new(StoreStats::default());
        let mut w = PartitionWriter::create(dir.clone(), 0, Arc::clone(&stats)).unwrap();
        let seg_path = dir.join(segment_file_name(0));
        w.append(&rec(0, 16));
        w.append(&rec(1, APPEND_BUF_CAPACITY)); // even past the buf capacity
        assert_eq!(file_len(&seg_path), 0, "append path must stay syscall-free");
        let batch = w.prepare_sync(2).expect("dirty");
        assert_eq!(file_len(&seg_path), 0, "capture is bookkeeping only");
        for pw in &batch.writes {
            pw.perform().unwrap();
        }
        assert!(file_len(&seg_path) > APPEND_BUF_CAPACITY as u64);
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seal_produces_readable_disk_segment_once_writes_land() {
        let dir = tmp_dir("seal");
        let stats = Arc::new(StoreStats::default());
        let mut w = PartitionWriter::create(dir.clone(), 0, stats).unwrap();
        for i in 0..10 {
            w.append(&rec(i, 64));
        }
        let sealed = w.seal_and_roll(10).unwrap();
        assert_eq!(sealed.positions.len(), 10);
        assert_eq!(w.base(), 10);
        // The sealed bytes are still pending; a sync cycle lands them.
        let batch = w.prepare_sync(10).expect("dirty");
        for pw in &batch.writes {
            pw.perform().unwrap();
        }
        let recs = sealed.read_records(3, 4).unwrap();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0].offset, 3);
        assert_eq!(recs[3].offset, 6);
        assert_eq!(recs[1].value.as_ref(), &[4u8; 64][..]);
        // Reading past the end clamps.
        assert_eq!(sealed.read_records(8, 10).unwrap().len(), 2);
        assert!(sealed.read_records(10, 1).unwrap().is_empty());
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prepare_sync_covers_sealed_and_active() {
        let dir = tmp_dir("prepare");
        let stats = Arc::new(StoreStats::default());
        let mut w = PartitionWriter::create(dir.clone(), 0, Arc::clone(&stats)).unwrap();
        for i in 0..4 {
            w.append(&rec(i, 32));
        }
        let _sealed = w.seal_and_roll(4).unwrap();
        w.append(&rec(4, 32));
        let batch = w.prepare_sync(5).expect("dirty");
        assert_eq!(batch.writes.len(), 2, "sealed bytes + active bytes");
        assert_eq!(batch.hwm, 5);
        assert_eq!(batch.seg_base, 4);
        assert!(batch.bytes > 0);
        assert!(w.prepare_sync(5).is_none(), "clean after capture");
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn requeue_failed_sync_retries_the_same_bytes() {
        let dir = tmp_dir("requeue");
        let stats = Arc::new(StoreStats::default());
        let seg_path = dir.join(segment_file_name(0));
        let mut w = PartitionWriter::create(dir.clone(), 0, Arc::clone(&stats)).unwrap();
        for i in 0..4 {
            w.append(&rec(i, 32));
        }
        let batch = w.prepare_sync(4).expect("dirty");
        let first_bytes = batch.bytes;
        // Simulate a failed cycle: none of the writes performed. The batch
        // goes back; the writer must stay dirty with the same bytes.
        w.requeue_failed_sync(batch);
        w.append(&rec(4, 32));
        let retry = w.prepare_sync(5).expect("still dirty after requeue");
        assert!(
            retry.bytes > first_bytes,
            "retry covers the requeued bytes plus the new append"
        );
        for pw in &retry.writes {
            pw.perform().unwrap();
        }
        // No hole: the sealed file decodes end to end.
        let sealed = w.seal_and_roll(5).unwrap();
        assert_eq!(file_len(&seg_path), sealed.data_len);
        let recs = sealed.read_records(0, 5).unwrap();
        assert_eq!(recs.len(), 5);
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.offset, i as u64);
        }
        assert!(
            w.prepare_sync(5).is_none(),
            "clean once the retry performed"
        );
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cold_segment_read_errors_instead_of_panicking() {
        let dir = tmp_dir("corrupt-read");
        let stats = Arc::new(StoreStats::default());
        let mut w = PartitionWriter::create(dir.clone(), 0, stats).unwrap();
        for i in 0..3 {
            w.append(&rec(i, 48));
        }
        let sealed = w.seal_and_roll(3).unwrap();
        let batch = w.prepare_sync(3).expect("dirty");
        for pw in &batch.writes {
            pw.perform().unwrap();
        }
        assert_eq!(sealed.read_records(0, 3).unwrap().len(), 3);
        // Latent corruption after recovery: flip a body byte of record 1.
        write_all_at(&sealed.file, &[0xFF], sealed.positions[1] + 20).unwrap();
        let err = sealed.read_records(0, 3).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Undamaged records before the corruption still read fine.
        assert_eq!(sealed.read_records(0, 1).unwrap().len(), 1);
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_lands_pending_bytes_without_fsync() {
        let dir = tmp_dir("drop");
        let stats = Arc::new(StoreStats::default());
        let seg_path = dir.join(segment_file_name(0));
        {
            let mut w = PartitionWriter::create(dir.clone(), 0, stats).unwrap();
            for i in 0..6 {
                w.append(&rec(i, 40));
            }
            assert_eq!(file_len(&seg_path), 0);
        }
        assert!(file_len(&seg_path) > 0, "Drop must hand bytes to the OS");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
