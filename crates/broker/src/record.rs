//! Records: the unit of brokered data.

use bytes::Bytes;

/// Position of a record within a partition (dense, starting at 0).
pub type Offset = u64;

/// A brokered record. `Bytes` payloads make cloning between the log and
/// consumers cheap (refcount bump, no copy) — important because Fig. 2's
/// broker service time should be dominated by the append memcpy, not by
/// artificial clone costs.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Optional partitioning key.
    pub key: Option<Bytes>,
    /// Payload.
    pub value: Bytes,
    /// Producer-assigned timestamp (µs since the pipeline epoch).
    pub timestamp_us: u64,
    /// Assigned by the log at append time.
    pub offset: Offset,
}

impl Record {
    /// A record with just a payload.
    pub fn new(value: impl Into<Bytes>) -> Self {
        Self {
            key: None,
            value: value.into(),
            timestamp_us: 0,
            offset: 0,
        }
    }

    /// Builder: set the key.
    pub fn with_key(mut self, key: impl Into<Bytes>) -> Self {
        self.key = Some(key.into());
        self
    }

    /// Builder: set the timestamp.
    pub fn with_timestamp(mut self, ts_us: u64) -> Self {
        self.timestamp_us = ts_us;
        self
    }

    /// Approximate in-log size in bytes (payload + key + fixed overhead).
    pub fn wire_size(&self) -> usize {
        const OVERHEAD: usize = 24; // offset + timestamp + lengths
        self.value.len() + self.key.as_ref().map_or(0, |k| k.len()) + OVERHEAD
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let r = Record::new(&b"payload"[..])
            .with_key(&b"k"[..])
            .with_timestamp(99);
        assert_eq!(r.value.as_ref(), b"payload");
        assert_eq!(r.key.as_deref(), Some(&b"k"[..]));
        assert_eq!(r.timestamp_us, 99);
    }

    #[test]
    fn wire_size_counts_key_and_value() {
        let r = Record::new(vec![0u8; 100]);
        assert_eq!(r.wire_size(), 124);
        let r = r.with_key(vec![0u8; 10]);
        assert_eq!(r.wire_size(), 134);
    }

    #[test]
    fn clone_shares_payload() {
        let r = Record::new(vec![0u8; 1024]);
        let c = r.clone();
        // Bytes clones share the same backing buffer.
        assert_eq!(r.value.as_ptr(), c.value.as_ptr());
    }
}
