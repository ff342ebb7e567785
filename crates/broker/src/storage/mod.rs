//! The durable storage engine under [`PartitionLog`](crate::log::PartitionLog).
//!
//! Kafka's durability story — and the one the paper's reference deployment
//! leans on — is an on-disk segmented log per partition: appends go to an
//! append-only file, fsyncs are batched, fetches of recent data are served
//! from memory (the page cache), and retention unlinks whole segment files
//! (here: once the commit floor passes them, see [`retention`](crate::retention)).
//! This module reproduces that engine for the in-process broker:
//!
//! * [`segment_file`] — the on-disk record framing: length- and
//!   CRC32C-prefixed frames appended to one file per segment, named by the
//!   segment's base offset;
//! * [`writer`] — the per-partition write-behind appender: encodes frames
//!   into a user-space buffer (no syscall on the append path), hands the
//!   buffer off to the flusher as positioned writes, seals and rolls
//!   segment files on the in-memory segment boundary;
//! * [`flusher`] — the shared group-commit scheduler: one thread per
//!   durable topic coalesces fsyncs across *all* its partitions on the
//!   producer linger boundary (or a dirty-bytes threshold) and advances
//!   each partition's **durable watermark** — the offset below which data
//!   survives process death;
//! * [`recovery`] — the reopen path: scan segment files front to back,
//!   validate CRCs and offset continuity, truncate the torn tail a crash
//!   mid-write leaves behind, and rebuild the per-segment indexes.
//!
//! The hot path stays hot: an append pays one extra memcpy (the frame
//! encode into the writer's buffer) and *no* syscall in the common case;
//! fsync cost is amortised across every append of every partition in the
//! commit window. The engine is opt-in per topic
//! ([`Broker::create_topic_durable`](crate::Broker::create_topic_durable));
//! without it the log is byte-for-byte the seed's memory-only structure.

pub mod flusher;
pub mod recovery;
pub mod segment_file;
pub mod writer;

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// When the engine moves appended bytes from the page cache to the platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// Group commit (the default): a shared flusher thread fsyncs every
    /// dirty partition file once per `interval`, or as soon as the topic's
    /// un-synced bytes reach `batch_bytes` — whichever comes first. One
    /// fsync covers every append of every partition in the window, so the
    /// per-message durable cost converges on the append memcpy.
    GroupCommit {
        /// The commit window — align with the producer linger so a batch's
        /// fsync rides the same boundary as its network flush.
        interval: Duration,
        /// Early-kick threshold in bytes (0 disables the early kick).
        batch_bytes: u64,
    },
    /// fsync inline on **every** append, under the partition lock — the
    /// naive durable path. Orders of magnitude slower for small records;
    /// exists as the measured counterfactual (`log_durability` bench).
    EachAppend,
    /// Never fsync: appends reach the file (page cache) but the kernel
    /// decides when they reach the disk. The durable watermark only
    /// advances on an explicit [`Topic::sync`](crate::topic::Topic::sync).
    /// Isolates file-write cost from fsync cost in the bench ladder.
    OsOnly,
}

impl SyncPolicy {
    /// The default group-commit window: 5 ms interval, 1 MiB early kick.
    pub fn group_commit_default() -> Self {
        SyncPolicy::GroupCommit {
            interval: Duration::from_millis(5),
            batch_bytes: 1 << 20,
        }
    }
}

/// Where and how a topic persists its partitions.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory for this topic's partition subdirectories
    /// (`p0/`, `p1/`, …). Created if absent; existing segment files are
    /// recovered on open.
    pub dir: PathBuf,
    /// fsync scheduling policy.
    pub policy: SyncPolicy,
}

impl DurabilityConfig {
    /// Group-commit durability (the default policy) rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            policy: SyncPolicy::group_commit_default(),
        }
    }

    /// Override the sync policy.
    pub fn with_policy(mut self, policy: SyncPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// Shared per-topic storage counters, updated by writers and the flusher
/// and sampled by the telemetry plane's `broker.log.*` gauges.
#[derive(Debug, Default)]
pub struct StoreStats {
    /// Bytes appended but not yet covered by an fsync.
    pub dirty_bytes: AtomicU64,
    /// Cumulative µs spent inside `fsync`/`fdatasync`.
    pub fsync_us: AtomicU64,
    /// Completed group-commit cycles (or per-append syncs).
    pub fsync_count: AtomicU64,
}

/// The durable frontier of one partition, as a *file* position: everything
/// in segment files with a base offset below `seg_base` is fsynced, and the
/// first `file_bytes` bytes of the file named by `seg_base` are fsynced.
/// Crash simulations (the chaos suite's torn-tail injector,
/// `tests/log_recovery.rs`) may truncate anywhere **at or beyond** this
/// mark without violating the durability contract.
#[derive(Debug, Default)]
pub struct DurableMark {
    seg_base: AtomicU64,
    file_bytes: AtomicU64,
}

impl DurableMark {
    pub(crate) fn set(&self, seg_base: u64, file_bytes: u64) {
        // Two relaxed stores: readers (tests) only consult the mark in
        // quiescence, never racing a flush cycle.
        self.seg_base.store(seg_base, Ordering::Release);
        self.file_bytes.store(file_bytes, Ordering::Release);
    }

    /// `(segment base offset, fsynced bytes within that segment's file)`.
    pub fn get(&self) -> (u64, u64) {
        (
            self.seg_base.load(Ordering::Acquire),
            self.file_bytes.load(Ordering::Acquire),
        )
    }
}

/// A point-in-time aggregate of a topic's (or broker's) storage engine —
/// what the `broker.log.*` telemetry gauges publish.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Bytes appended but not yet fsynced (0 for memory-only topics).
    pub dirty_bytes: u64,
    /// Cumulative µs spent in fsync.
    pub fsync_us: u64,
    /// Completed fsync cycles.
    pub fsync_count: u64,
    /// Log segments across all partitions (in-memory and on-disk alike).
    pub segment_count: u64,
    /// Records appended but not yet durable, summed over partitions
    /// (high watermark − durable watermark; 0 for memory-only topics).
    pub durable_lag: u64,
    /// Wire bytes of the records at or above each partition's log start,
    /// summed over partitions: what the commit floor still holds.
    pub retained_bytes: u64,
}

impl LogStats {
    /// Accumulate another topic's stats (for broker-wide aggregation).
    pub fn merge(&mut self, other: &LogStats) {
        self.dirty_bytes += other.dirty_bytes;
        self.fsync_us += other.fsync_us;
        self.fsync_count += other.fsync_count;
        self.segment_count += other.segment_count;
        self.durable_lag += other.durable_lag;
        self.retained_bytes += other.retained_bytes;
    }
}

/// Handle bundle the flusher (and `Topic::sync`) uses to reach one
/// partition's log and publish its durable watermark.
#[derive(Clone)]
pub(crate) struct PartitionHandle {
    pub(crate) log: Arc<parking_lot::Mutex<crate::log::PartitionLog>>,
    pub(crate) durable: Arc<AtomicU64>,
    pub(crate) mark: Arc<DurableMark>,
    /// Serialises sync cycles (capture → write → fsync → publish): a later
    /// capture must not fsync-and-publish while an earlier cycle's writes
    /// are still in flight, or the watermark would cover unwritten bytes.
    /// Never taken while holding `log` (the append path stays lock-cheap).
    pub(crate) sync_mu: Arc<parking_lot::Mutex<()>>,
}

// ---------------------------------------------------------------------------
// CRC32C (Castagnoli polynomial, reflected) — the frame checksum. The same
// polynomial Kafka uses for its record-batch checksum, and the one the
// x86 SSE4.2 `crc32` instruction implements: on the append path the
// checksum must run at memory speed, not table-lookup speed, or it becomes
// the dominant CPU cost of durability at large message sizes. Hardware
// path when the CPU has SSE4.2 (runtime-detected), slicing-by-8 tables
// otherwise. No external crate needed.
// ---------------------------------------------------------------------------

const fn crc32c_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0x82F6_3B78 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = (t[j - 1][i] >> 8) ^ t[0][(t[j - 1][i] & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
}

static CRC32C_TABLES: [[u32; 256]; 8] = crc32c_tables();

/// Slicing-by-8 software path: eight table lookups retire eight bytes.
fn crc32c_update_soft(mut c: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = CRC32C_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC32C_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC32C_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC32C_TABLES[4][(lo >> 24) as usize]
            ^ CRC32C_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC32C_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC32C_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC32C_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC32C_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// SSE4.2 hardware path: one `crc32` instruction retires eight bytes.
///
/// # Safety
/// Caller must have verified SSE4.2 is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
unsafe fn crc32c_update_hw(c: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut chunks = data.chunks_exact(8);
    let mut c64 = u64::from(c);
    for chunk in &mut chunks {
        c64 = _mm_crc32_u64(c64, u64::from_le_bytes(chunk.try_into().unwrap()));
    }
    let mut c = c64 as u32;
    for &b in chunks.remainder() {
        c = _mm_crc32_u8(c, b);
    }
    c
}

/// Streaming CRC32C so recovery can checksum a frame body chunk by chunk.
#[derive(Debug, Clone, Copy)]
pub struct Crc32c(u32);

impl Crc32c {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Self(0xFFFF_FFFF)
    }

    /// Fold `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("sse4.2") {
            // SAFETY: feature presence just checked (std caches the cpuid).
            self.0 = unsafe { crc32c_update_hw(self.0, data) };
            return;
        }
        self.0 = crc32c_update_soft(self.0, data);
    }

    /// Final checksum value.
    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_known_vectors() {
        // Standard CRC32C (Castagnoli) test vectors — RFC 3720 §B.4 et al.
        assert_eq!(crc32c(b""), 0x0000_0000);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
    }

    #[test]
    fn crc32c_streaming_matches_oneshot() {
        let data = b"segmented durable log";
        let mut c = Crc32c::new();
        c.update(&data[..7]);
        c.update(&data[7..]);
        assert_eq!(c.finish(), crc32c(data));
    }

    #[test]
    fn crc32c_hardware_and_software_paths_agree() {
        // Exercise every alignment tail and a multi-chunk body.
        let data: Vec<u8> = (0..1021u32).map(|i| (i * 31 + 7) as u8).collect();
        for len in [0, 1, 7, 8, 9, 63, 64, 65, data.len()] {
            let soft = crc32c_update_soft(0xFFFF_FFFF, &data[..len]) ^ 0xFFFF_FFFF;
            assert_eq!(crc32c(&data[..len]), soft, "len {len}");
        }
    }

    #[test]
    fn durable_mark_roundtrip() {
        let m = DurableMark::default();
        assert_eq!(m.get(), (0, 0));
        m.set(1024, 77);
        assert_eq!(m.get(), (1024, 77));
    }

    #[test]
    fn log_stats_merge_sums_fields() {
        let mut a = LogStats {
            dirty_bytes: 1,
            fsync_us: 2,
            fsync_count: 3,
            segment_count: 4,
            durable_lag: 5,
            retained_bytes: 6,
        };
        a.merge(&a.clone());
        assert_eq!(a.dirty_bytes, 2);
        assert_eq!(a.durable_lag, 10);
        assert_eq!(a.retained_bytes, 12);
    }
}
