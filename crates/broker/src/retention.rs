//! Log retention policies.
//!
//! Kafka bounds partition logs by size and age; in a long streaming run
//! (the paper sends 512 messages of up to 2.6 MB per partition, repeatedly)
//! an unbounded in-memory log would grow without limit. Two kinds of
//! criteria advance a partition's log start — consumed data disappears,
//! offsets stay stable:
//!
//! * **Size limits** (`max_bytes`, `max_records`), checked on append: whole
//!   head segments are dropped while the partition exceeds a limit.
//! * **The commit floor** (`committed`), raised on every consumer-group
//!   commit: the log start moves up to the lowest offset committed by any
//!   group that has committed on the partition, record by record (Kafka's
//!   `DeleteRecords`). Payloads below the floor are released at once;
//!   segments wholly below it are dropped. A group that has never
//!   committed holds nothing back (Pulsar's subscription rule).
//!
//! Either way, a read below the new start is
//! [`ReadError::Trimmed`](crate::ReadError::Trimmed).

use serde::{Deserialize, Serialize};

/// When to discard old log records.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetentionPolicy {
    /// Maximum total payload bytes retained per partition (`None` = unbounded).
    pub max_bytes: Option<u64>,
    /// Maximum records retained per partition (`None` = unbounded).
    pub max_records: Option<u64>,
    /// Trim each partition up to the lowest offset its committing groups
    /// have committed (see the module docs).
    pub committed: bool,
}

impl RetentionPolicy {
    /// Keep everything.
    pub fn unbounded() -> Self {
        Self {
            max_bytes: None,
            max_records: None,
            committed: false,
        }
    }

    /// Keep at most `bytes` of payload per partition.
    pub fn by_bytes(bytes: u64) -> Self {
        Self {
            max_bytes: Some(bytes),
            ..Self::unbounded()
        }
    }

    /// Keep at most `records` per partition.
    pub fn by_records(records: u64) -> Self {
        Self {
            max_records: Some(records),
            ..Self::unbounded()
        }
    }

    /// Keep only what some committing consumer group has not committed yet:
    /// the commit floor, and no size limit.
    pub fn committed() -> Self {
        Self {
            committed: true,
            ..Self::unbounded()
        }
    }

    /// True if a partition at (`bytes`, `records`) exceeds a size limit.
    pub fn exceeded(&self, bytes: u64, records: u64) -> bool {
        self.max_bytes.is_some_and(|m| bytes > m) || self.max_records.is_some_and(|m| records > m)
    }
}

impl Default for RetentionPolicy {
    /// Default: bounded at 1 GiB per partition — enough for every paper
    /// experiment while keeping memory safe for long runs.
    fn default() -> Self {
        Self::by_bytes(1 << 30)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_exceeded() {
        let p = RetentionPolicy::unbounded();
        assert!(!p.exceeded(u64::MAX, u64::MAX));
    }

    #[test]
    fn byte_limit() {
        let p = RetentionPolicy::by_bytes(100);
        assert!(!p.exceeded(100, 10));
        assert!(p.exceeded(101, 10));
    }

    #[test]
    fn record_limit() {
        let p = RetentionPolicy::by_records(5);
        assert!(!p.exceeded(1 << 40, 5) || p.exceeded(1 << 40, 5)); // bytes alone irrelevant
        assert!(p.exceeded(0, 6));
        assert!(!p.exceeded(0, 5));
    }

    #[test]
    fn committed_sets_no_size_limit() {
        let p = RetentionPolicy::committed();
        assert!(p.committed);
        assert!(!p.exceeded(u64::MAX, u64::MAX));
        assert!(!RetentionPolicy::default().committed);
    }

    #[test]
    fn default_is_one_gib() {
        assert_eq!(RetentionPolicy::default().max_bytes, Some(1 << 30));
    }
}
