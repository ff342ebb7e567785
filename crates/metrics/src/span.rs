//! Span records: one timed unit of work in one pipeline component.
//!
//! A [`Span`] is the atom of the Pilot-Edge monitoring model. Every message
//! that flows through the pipeline produces one span per component it
//! touches; the `(job_id, msg_id)` key links them back together into an
//! end-to-end trace (paper Section II-B: "A unique job identifier ensures
//! that progress and errors can be consistently tracked across all
//! components").

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies one pipeline run (one `EdgeToCloudPipeline.run()` invocation).
pub type JobId = u64;

/// Identifies one message within a job. Message ids are assigned by the
/// producing edge device and carried through broker and processors.
pub type MsgId = u64;

/// The pipeline component a span was recorded in.
///
/// The variants mirror the components of Fig. 1 of the paper.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Component {
    /// The edge data source (`produce_edge`).
    EdgeProducer,
    /// Edge-side processing (`process_edge`), used in hybrid deployments.
    EdgeProcessor,
    /// The message broker (append + fetch service time).
    Broker,
    /// Network transfer time on a named link (e.g. "edge->broker").
    Network(String),
    /// Cloud-side processing (`process_cloud`): pre-processing, training,
    /// inference.
    CloudProcessor,
    /// Parameter-server operations (model get/put/merge).
    ParamServer,
}

impl Component {
    /// Short, stable label used in CSV output and reports.
    pub fn label(&self) -> String {
        match self {
            Component::EdgeProducer => "edge_producer".to_string(),
            Component::EdgeProcessor => "edge_processor".to_string(),
            Component::Broker => "broker".to_string(),
            Component::Network(link) => format!("net:{link}"),
            Component::CloudProcessor => "cloud_processor".to_string(),
            Component::ParamServer => "param_server".to_string(),
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// One timed unit of work: `component` handled message `(job_id, msg_id)`
/// between `start_us` and `end_us` (microseconds from the registry epoch),
/// touching `bytes` bytes of payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    pub job_id: JobId,
    pub msg_id: MsgId,
    pub component: Component,
    /// Start timestamp, µs since the registry's clock epoch.
    pub start_us: u64,
    /// End timestamp, µs since the registry's clock epoch. `end_us >= start_us`.
    pub end_us: u64,
    /// Payload bytes handled by this span (0 for control work).
    pub bytes: u64,
    /// Whether the unit of work failed. Failed spans are excluded from
    /// throughput but surfaced in error counts.
    pub error: bool,
}

impl Span {
    /// Service time of this span in microseconds.
    #[inline]
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// Service time in seconds.
    #[inline]
    pub fn duration_secs(&self) -> f64 {
        self.duration_us() as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_is_end_minus_start() {
        let s = Span {
            job_id: 1,
            msg_id: 2,
            component: Component::Broker,
            start_us: 100,
            end_us: 350,
            bytes: 1024,
            error: false,
        };
        assert_eq!(s.duration_us(), 250);
        assert!((s.duration_secs() - 250e-6).abs() < 1e-12);
    }

    #[test]
    fn duration_saturates_on_clock_skew() {
        let s = Span {
            job_id: 1,
            msg_id: 2,
            component: Component::Broker,
            start_us: 400,
            end_us: 100,
            bytes: 0,
            error: false,
        };
        assert_eq!(s.duration_us(), 0);
    }

    #[test]
    fn component_labels_are_stable() {
        assert_eq!(Component::EdgeProducer.label(), "edge_producer");
        assert_eq!(Component::Network("wan".into()).label(), "net:wan");
    }
}
