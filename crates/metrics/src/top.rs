//! The shared `pilot_top` view: one implementation of the live per-stage
//! table, consumed by both the `pilot_top` bin (text) and the gateway's
//! `GET /top` endpoint (JSON) — so the two renderings can never drift.
//!
//! A [`TopView`] is one tick of the table: the latest telemetry frame's
//! levels for a chosen gauge set (in display order), the processed/expected
//! message counts, and — when the caller ran the bottleneck attributor —
//! the dominant component label.

use crate::json::push_json_string;
use crate::telemetry::TelemetryFrame;

/// The pipeline stage gauges shown in the live table, in display order
/// (the `pilot_top` wan/compute scenarios and the pipeline gateway's
/// `GET /top` both show exactly these).
pub const PIPELINE_GAUGES: &[&str] = &[
    "producer.deadline_queue_depth",
    "producer.credit_wait_depth",
    "producer.inflight_batch_bytes",
    "consumer.prefetch_occupancy",
    "broker.lag.total",
    "broker.log.retained_bytes",
    "net.edge_broker.pending_us",
    "net.broker_cloud.pending_us",
    "cloud.compute_pool_occupancy",
];

/// One tick of the live per-stage table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopView {
    /// Frame timestamp, µs since the registry epoch.
    pub t_us: u64,
    /// Messages fully processed so far.
    pub processed: u64,
    /// Expected message total, when the caller knows the stream length.
    pub expected: Option<u64>,
    /// `(gauge name, level)` rows, in display order; gauges absent from
    /// the frame are dropped.
    pub rows: Vec<(String, i64)>,
    /// Dominant component label from the bottleneck attributor, when the
    /// caller ran it (e.g. `"net:b->c"`).
    pub bottleneck: Option<String>,
}

impl TopView {
    /// Build the view for one frame: `gauge_names` picks the rows and
    /// their order.
    pub fn from_frame(
        frame: &TelemetryFrame,
        gauge_names: &[&str],
        processed: u64,
        expected: Option<u64>,
    ) -> Self {
        let rows = gauge_names
            .iter()
            .filter_map(|name| frame.value(name).map(|v| (name.to_string(), v)))
            .collect();
        Self {
            t_us: frame.t_us,
            processed,
            expected,
            rows,
            bottleneck: None,
        }
    }

    /// The `pilot_top` text rendering: a header line and one aligned row
    /// per gauge, terminated by a blank line.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(64 + self.rows.len() * 52);
        match self.expected {
            Some(expected) => out.push_str(&format!(
                "t={:>9}µs  processed {}/{}\n",
                self.t_us, self.processed, expected
            )),
            None => out.push_str(&format!(
                "t={:>9}µs  processed {}\n",
                self.t_us, self.processed
            )),
        }
        for (name, value) in &self.rows {
            out.push_str(&format!("  {name:<34} {value:>12}\n"));
        }
        if let Some(b) = &self.bottleneck {
            out.push_str(&format!("  bottleneck: {b}\n"));
        }
        out.push('\n');
        out
    }

    /// The JSON rendering served by `GET /top`:
    /// `{"t_us":N,"processed":N,"expected":N|null,
    ///   "rows":[{"name":"...","value":N},...],"bottleneck":"..."|null}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96 + self.rows.len() * 48);
        out.push_str("{\"t_us\":");
        out.push_str(&self.t_us.to_string());
        out.push_str(",\"processed\":");
        out.push_str(&self.processed.to_string());
        out.push_str(",\"expected\":");
        match self.expected {
            Some(e) => out.push_str(&e.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"rows\":[");
        for (i, (name, value)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_string(&mut out, name);
            out.push_str(",\"value\":");
            out.push_str(&value.to_string());
            out.push('}');
        }
        out.push_str("],\"bottleneck\":");
        match &self.bottleneck {
            Some(b) => push_json_string(&mut out, b),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_json;
    use std::sync::Arc;

    fn frame() -> TelemetryFrame {
        TelemetryFrame {
            t_us: 1234,
            values: vec![
                (Arc::from("broker.lag.total"), 7),
                (Arc::from("cloud.compute_pool_occupancy"), 2),
                (Arc::from("unrelated.gauge"), 99),
            ],
        }
    }

    #[test]
    fn from_frame_keeps_display_order_and_drops_missing() {
        let view = TopView::from_frame(&frame(), PIPELINE_GAUGES, 10, Some(20));
        assert_eq!(
            view.rows,
            vec![
                ("broker.lag.total".to_string(), 7),
                ("cloud.compute_pool_occupancy".to_string(), 2),
            ]
        );
    }

    #[test]
    fn text_matches_the_pilot_top_format() {
        let view = TopView::from_frame(&frame(), &["broker.lag.total"], 10, Some(20));
        assert_eq!(
            view.to_text(),
            "t=     1234µs  processed 10/20\n  broker.lag.total                              7\n\n"
        );
    }

    #[test]
    fn text_without_expected_omits_the_denominator() {
        let view = TopView::from_frame(&frame(), &[], 10, None);
        assert!(view.to_text().starts_with("t=     1234µs  processed 10\n"));
    }

    #[test]
    fn json_is_valid_and_carries_all_fields() {
        let mut view = TopView::from_frame(&frame(), PIPELINE_GAUGES, 10, None);
        view.bottleneck = Some("net:b->c \"quoted\"".to_string());
        let json = view.to_json();
        validate_json(&json).expect("valid JSON");
        assert!(json.contains("\"expected\":null"));
        assert!(json.contains("\"name\":\"broker.lag.total\",\"value\":7"));
        assert!(json.contains("\"bottleneck\":\"net:b->c \\\"quoted\\\"\""));
    }
}
