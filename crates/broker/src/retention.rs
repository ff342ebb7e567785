//! Log retention: the commit floor.
//!
//! The paper runs Kafka as an ordered queue between edge and cloud, so a
//! record every consumer group has committed is dead weight. A topic under
//! [`RetentionPolicy::committed`] (the default) trims each partition at its
//! **commit floor**: on every consumer-group commit the broker moves the
//! partition's log start up to the lowest offset committed by any group
//! that has committed there, record by record (Kafka's `DeleteRecords`).
//! Payloads below the floor are released at once; segments wholly below it
//! are dropped, and in a durable log their files unlinked. A group that has
//! never committed holds nothing back (Pulsar's subscription rule), so a
//! reader that must see the whole log commits offset 0 first and pins the
//! floor there. Offsets stay stable; a read below the log start is
//! [`ReadError::Trimmed`](crate::ReadError::Trimmed).
//!
//! There is no size cap (Kafka's own `retention.bytes` is off by default):
//! what a log holds is what its consumers have not yet committed. The log
//! itself reads no policy — only the [`Broker`](crate::Broker) knows which
//! topics trim, because it registers them at creation.

/// Whether a topic trims at its commit floor: [`Self::committed`] (the
/// default) or [`Self::unbounded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Trim each partition up to the lowest offset its committing groups
    /// have committed (see the module docs). `false` keeps everything.
    pub(crate) committed: bool,
}

impl RetentionPolicy {
    /// Keep only what some committing consumer group has not committed
    /// yet: the commit floor.
    pub fn committed() -> Self {
        Self { committed: true }
    }

    /// Keep everything.
    pub fn unbounded() -> Self {
        Self { committed: false }
    }
}

impl Default for RetentionPolicy {
    /// The commit floor.
    fn default() -> Self {
        Self::committed()
    }
}
