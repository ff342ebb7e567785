//! Aggregation of raw spans into the per-component and end-to-end statistics
//! the paper's figures plot: throughput (messages/s and MB/s), latency
//! quantiles, and a bottleneck verdict.
//!
//! The *linking* step joins spans by `(job_id, msg_id)`: a message's
//! end-to-end latency is the gap between the earliest span start (the edge
//! producer picking it up) and the latest span end (the cloud processor
//! finishing it). This is exactly how the paper attributes Fig. 2/3 latency,
//! and how it diagnoses that "the Kafka broker can process more data than
//! the consuming processing tasks" at four partitions.

use crate::histogram::Histogram;
use crate::span::{Component, Span};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate statistics for one component.
#[derive(Debug, Clone)]
pub struct ComponentStats {
    pub component: Component,
    /// Successful spans.
    pub count: u64,
    /// Failed spans.
    pub errors: u64,
    /// Total payload bytes across successful spans.
    pub bytes: u64,
    /// Service-time histogram (µs) of successful spans.
    pub service_us: Histogram,
    /// Wall-clock busy window: earliest start to latest end (µs).
    pub window_us: u64,
}

impl ComponentStats {
    /// Messages per second over the component's busy window.
    pub fn throughput_msgs(&self) -> f64 {
        if self.window_us == 0 {
            return 0.0;
        }
        self.count as f64 / (self.window_us as f64 / 1e6)
    }

    /// Megabytes per second over the component's busy window.
    pub fn throughput_mb(&self) -> f64 {
        if self.window_us == 0 {
            return 0.0;
        }
        (self.bytes as f64 / 1e6) / (self.window_us as f64 / 1e6)
    }

    /// Mean service time in milliseconds.
    pub fn mean_service_ms(&self) -> f64 {
        self.service_us.mean() / 1e3
    }
}

/// End-to-end (cross-component) message statistics for one job.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Number of messages with at least one span.
    pub messages: u64,
    /// Histogram of end-to-end latency (µs): first span start → last span end
    /// per message.
    pub latency_us: Histogram,
    /// Pipeline throughput in messages/s over the whole job window.
    pub throughput_msgs: f64,
    /// Pipeline throughput in MB/s (bytes = max bytes seen for the message
    /// across components, i.e. the payload size, counted once).
    pub throughput_mb: f64,
}

/// A full report over a set of spans: per-component stats plus end-to-end
/// linkage.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    pub components: Vec<ComponentStats>,
    pub end_to_end: EndToEnd,
}

/// Incremental report aggregation: feed spans one at a time ([`Self::add`])
/// and [`Self::finish`]. One pass, no span clones — the registry's report
/// paths stream shard contents through this instead of materialising a
/// cloned `Vec<Span>` (ruinous at ~1M spans).
#[derive(Debug, Default)]
pub struct ReportBuilder {
    /// component → (hist, count, errors, bytes, min_start, max_end)
    per_comp: BTreeMap<Component, (Histogram, u64, u64, u64, u64, u64)>,
    /// (job_id, msg_id) → (first_start, last_end, payload_bytes)
    per_msg: BTreeMap<(u64, u64), (u64, u64, u64)>,
}

impl ReportBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one span into the aggregate.
    pub fn add(&mut self, s: &Span) {
        let e = self
            .per_comp
            .entry(s.component.clone())
            .or_insert_with(|| (Histogram::new(), 0, 0, 0, u64::MAX, 0));
        if s.error {
            e.2 += 1;
        } else {
            e.0.record(s.duration_us());
            e.1 += 1;
            e.3 += s.bytes;
        }
        e.4 = e.4.min(s.start_us);
        e.5 = e.5.max(s.end_us);

        // ParamServer spans stay in their component row but out of the
        // message join. A processing function records them under the
        // block's own per-device id, not the message's metric id, so on a
        // multi-device run they would join other devices' messages or make
        // phantom ones; and they carry model weights, not the message
        // payload (an 11,552-weight auto-encoder publishes 92 KB per 6 KB
        // message).
        if !s.error && s.component != Component::ParamServer {
            let e = self
                .per_msg
                .entry((s.job_id, s.msg_id))
                .or_insert((u64::MAX, 0, 0));
            e.0 = e.0.min(s.start_us);
            e.1 = e.1.max(s.end_us);
            // Per-message payload size: the max bytes any transport or
            // processing span carried.
            e.2 = e.2.max(s.bytes);
        }
    }

    /// Aggregate everything folded so far into the final report.
    pub fn finish(self) -> PipelineReport {
        let components = self
            .per_comp
            .into_iter()
            .map(
                |(component, (service_us, count, errors, bytes, min_s, max_e))| ComponentStats {
                    component,
                    count,
                    errors,
                    bytes,
                    service_us,
                    window_us: max_e.saturating_sub(if min_s == u64::MAX { 0 } else { min_s }),
                },
            )
            .collect();

        let mut latency_us = Histogram::new();
        let mut total_bytes = 0u64;
        let mut job_start = u64::MAX;
        let mut job_end = 0u64;
        for &(first, last, bytes) in self.per_msg.values() {
            latency_us.record(last.saturating_sub(first));
            total_bytes += bytes;
            job_start = job_start.min(first);
            job_end = job_end.max(last);
        }
        let messages = self.per_msg.len() as u64;
        let window = job_end.saturating_sub(if job_start == u64::MAX { 0 } else { job_start });
        let (throughput_msgs, throughput_mb) = if window == 0 {
            (0.0, 0.0)
        } else {
            let secs = window as f64 / 1e6;
            (messages as f64 / secs, total_bytes as f64 / 1e6 / secs)
        };

        PipelineReport {
            components,
            end_to_end: EndToEnd {
                messages,
                latency_us,
                throughput_msgs,
                throughput_mb,
            },
        }
    }
}

impl PipelineReport {
    /// Build a report from raw spans.
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut b = ReportBuilder::new();
        for s in spans {
            b.add(s);
        }
        b.finish()
    }

    /// Number of distinct messages observed.
    pub fn total_messages(&self) -> u64 {
        self.end_to_end.messages
    }

    /// Stats for one component, if present.
    pub fn component(&self, c: &Component) -> Option<&ComponentStats> {
        self.components.iter().find(|s| &s.component == c)
    }

    /// The bottleneck: the component with the highest mean service time
    /// (weighted by how saturated it is, i.e. busy fraction of its window).
    /// Returns `None` when no spans were recorded.
    pub fn bottleneck(&self) -> Option<&ComponentStats> {
        self.components
            .iter()
            .filter(|c| c.count > 0)
            .max_by(|a, b| {
                let load_a = a.service_us.sum() as f64 / a.window_us.max(1) as f64;
                let load_b = b.service_us.sum() as f64 / b.window_us.max(1) as f64;
                load_a.partial_cmp(&load_b).unwrap()
            })
    }

    /// Total errors across components.
    pub fn total_errors(&self) -> u64 {
        self.components.iter().map(|c| c.errors).sum()
    }

    /// Render a per-component CSV table:
    /// `component,count,errors,bytes,mean_ms,p50_ms,p99_ms,msgs_per_s,mb_per_s`
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "component,count,errors,bytes,mean_ms,p50_ms,p99_ms,msgs_per_s,mb_per_s\n",
        );
        for c in &self.components {
            let _ = writeln!(
                out,
                "{},{},{},{},{:.3},{:.3},{:.3},{:.2},{:.3}",
                c.component.label(),
                c.count,
                c.errors,
                c.bytes,
                c.mean_service_ms(),
                c.service_us.median() as f64 / 1e3,
                c.service_us.p99() as f64 / 1e3,
                c.throughput_msgs(),
                c.throughput_mb(),
            );
        }
        let e = &self.end_to_end;
        let _ = writeln!(
            out,
            "end_to_end,{},{},-,{:.3},{:.3},{:.3},{:.2},{:.3}",
            e.messages,
            self.total_errors(),
            e.latency_us.mean() / 1e3,
            e.latency_us.median() as f64 / 1e3,
            e.latency_us.p99() as f64 / 1e3,
            e.throughput_msgs,
            e.throughput_mb,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Component as C;

    fn span(job: u64, msg: u64, c: C, s: u64, e: u64, b: u64) -> Span {
        Span {
            job_id: job,
            msg_id: msg,
            component: c,
            start_us: s,
            end_us: e,
            bytes: b,
            error: false,
        }
    }

    #[test]
    fn empty_report() {
        let r = PipelineReport::from_spans(&[]);
        assert_eq!(r.total_messages(), 0);
        assert!(r.bottleneck().is_none());
        assert_eq!(r.end_to_end.throughput_msgs, 0.0);
    }

    #[test]
    fn end_to_end_latency_spans_components() {
        // msg 1: producer 0-100, broker 150-200, cloud 300-1000 → e2e = 1000 µs
        let spans = vec![
            span(1, 1, C::EdgeProducer, 0, 100, 64),
            span(1, 1, C::Broker, 150, 200, 64),
            span(1, 1, C::CloudProcessor, 300, 1000, 64),
        ];
        let r = PipelineReport::from_spans(&spans);
        assert_eq!(r.total_messages(), 1);
        assert_eq!(r.end_to_end.latency_us.max(), 1000);
    }

    #[test]
    fn payload_bytes_counted_once_per_message() {
        let spans = vec![
            span(1, 1, C::EdgeProducer, 0, 100, 64),
            span(1, 1, C::Broker, 100, 200, 64),
            span(1, 2, C::EdgeProducer, 200, 300, 64),
            span(1, 2, C::Broker, 300, 1_000_000, 64),
        ];
        let r = PipelineReport::from_spans(&spans);
        // 2 msgs * 64 B over 1 s = 128 B/s = 0.000128 MB/s
        assert!((r.end_to_end.throughput_mb - 0.000128).abs() < 1e-9);
        assert!((r.end_to_end.throughput_msgs - 2.0).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_is_most_loaded_component() {
        // Broker does 10 µs of work per message; cloud does 900 µs.
        let mut spans = Vec::new();
        for m in 0..10u64 {
            let t = m * 1000;
            spans.push(span(1, m, C::Broker, t, t + 10, 8));
            spans.push(span(1, m, C::CloudProcessor, t + 10, t + 910, 8));
        }
        let r = PipelineReport::from_spans(&spans);
        assert_eq!(r.bottleneck().unwrap().component, C::CloudProcessor);
    }

    #[test]
    fn errors_excluded_from_throughput_but_counted() {
        let mut spans = vec![span(1, 1, C::Broker, 0, 10, 8)];
        spans.push(Span {
            error: true,
            ..span(1, 2, C::Broker, 0, 10, 8)
        });
        let r = PipelineReport::from_spans(&spans);
        let b = r.component(&C::Broker).unwrap();
        assert_eq!(b.count, 1);
        assert_eq!(b.errors, 1);
        assert_eq!(r.total_errors(), 1);
        assert_eq!(r.total_messages(), 1); // errored msg had no ok spans
    }

    #[test]
    fn component_throughput_uses_busy_window() {
        // 100 messages of 1 KB each, broker busy from 0 to 1 s.
        let mut spans = Vec::new();
        for m in 0..100u64 {
            let t = m * 10_000;
            spans.push(span(1, m, C::Broker, t, t + 10_000, 1000));
        }
        let r = PipelineReport::from_spans(&spans);
        let b = r.component(&C::Broker).unwrap();
        assert!((b.throughput_msgs() - 100.0).abs() < 1.0);
        assert!((b.throughput_mb() - 0.1).abs() < 0.01);
    }

    #[test]
    fn csv_has_header_and_all_rows() {
        let spans = vec![
            span(1, 1, C::EdgeProducer, 0, 100, 64),
            span(1, 1, C::Broker, 100, 200, 64),
        ];
        let r = PipelineReport::from_spans(&spans);
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 4); // header + 2 components + end_to_end
        assert!(lines[0].starts_with("component,"));
        assert!(lines[3].starts_with("end_to_end,"));
    }

    #[test]
    fn param_server_spans_do_not_inflate_payload_bytes() {
        let spans = vec![
            span(1, 1, C::EdgeProducer, 0, 100, 6_400),
            span(1, 1, C::ParamServer, 100, 200, 92_416),
            span(1, 2, C::EdgeProducer, 200, 1_000_000, 6_400),
            span(1, 2, C::ParamServer, 300, 400, 92_416),
        ];
        let r = PipelineReport::from_spans(&spans);
        // 2 msgs * 6,400 B over 1 s — the 92 KB weight uploads are not
        // message payload.
        assert!((r.end_to_end.throughput_mb - 0.0128).abs() < 1e-6);
    }

    #[test]
    fn param_server_spans_stay_out_of_the_message_join() {
        // A processing function keys its ParamServer span by the block's
        // per-device id, which need not be any message's metric id.
        let spans = vec![
            span(1, 1, C::CloudProcessor, 0, 100, 6_400),
            span(1, 1, C::ParamServer, 100, 5_000, 92_416),
            span(1, 2, C::ParamServer, 200, 300, 92_416),
        ];
        let r = PipelineReport::from_spans(&spans);
        assert_eq!(r.total_messages(), 1, "no phantom message 2");
        assert_eq!(r.end_to_end.latency_us.max(), 100);
        let ps = r.component(&C::ParamServer).expect("param_server row");
        assert_eq!((ps.count, ps.bytes), (2, 2 * 92_416));
    }

    #[test]
    fn messages_from_different_jobs_not_linked() {
        let spans = vec![
            span(1, 7, C::EdgeProducer, 0, 100, 8),
            span(2, 7, C::CloudProcessor, 100, 50_000, 8),
        ];
        let r = PipelineReport::from_spans(&spans);
        assert_eq!(r.total_messages(), 2);
        // Neither message's latency is 50 000 µs end-to-end.
        assert!(r.end_to_end.latency_us.max() < 50_000);
    }
}
