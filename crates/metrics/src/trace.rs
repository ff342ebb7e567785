//! Chrome `trace_event` export: serialize span chains and gauge frames to
//! the JSON Array Format loadable by `chrome://tracing` and Perfetto.
//!
//! Each [`Span`] becomes a complete (`"ph":"X"`) event whose `pid` is the
//! job id and whose `tid` is a stable per-component row, so a loaded trace
//! shows one horizontal track per pipeline component with the linked
//! per-message chain (EdgeProducer → Network → Broker → Network →
//! CloudProcessor) readable left to right. Each gauge series from the
//! [`TelemetryFrame`] ring becomes a counter
//! (`"ph":"C"`) track. Metadata (`"ph":"M"`) events name the rows.
//!
//! The writer streams: [`write_chrome_trace_to`] emits through any
//! `io::Write` sink in bounded chunks, so the gateway's `GET /trace` can
//! serialize a million-span run straight to the socket without ever
//! materializing the full JSON, and [`chrome_trace_json`] is a thin
//! wrapper over the same code path. No JSON library is taken on as a
//! dependency — the events are hand-rolled via [`crate::json`], and
//! [`validate_trace_json`] proves the export well-formed in tests and CI.

use crate::json::{push_json_string, validate_json_counting};
use crate::span::Span;
use crate::telemetry::TelemetryFrame;
use std::collections::BTreeMap;
use std::io::Write;

/// Flush the chunk buffer to the sink once it grows past this.
const CHUNK_BYTES: usize = 32 * 1024;

/// Stream spans + telemetry frames as a Chrome `trace_event` JSON object
/// (`{"traceEvents": [...], "displayTimeUnit": "ms"}`) into `w`.
///
/// Output is written in ≤ ~32 KiB chunks: peak memory is bounded by the
/// chunk size, not the trace size. The byte stream is identical to
/// [`chrome_trace_json`]'s.
pub fn write_chrome_trace_to(
    w: &mut dyn Write,
    spans: &[Span],
    frames: &[TelemetryFrame],
) -> std::io::Result<()> {
    let mut chunk = String::with_capacity(CHUNK_BYTES + 1024);
    chunk.push_str("{\"traceEvents\":[");
    let mut first = true;
    // Stable per-component rows: tid by first appearance, named via
    // metadata events so the viewer shows labels instead of numbers.
    let mut tids: BTreeMap<String, u64> = BTreeMap::new();
    for s in spans {
        let label = s.component.label();
        let next = tids.len() as u64 + 1;
        let tid = *tids.entry(label.clone()).or_insert(next);
        push_event(&mut chunk, &mut first, |e| {
            e.push_str("\"name\":");
            push_json_string(e, &label);
            e.push_str(",\"cat\":\"span\",\"ph\":\"X\",\"ts\":");
            e.push_str(&s.start_us.to_string());
            e.push_str(",\"dur\":");
            e.push_str(&s.duration_us().to_string());
            e.push_str(",\"pid\":");
            e.push_str(&s.job_id.to_string());
            e.push_str(",\"tid\":");
            e.push_str(&tid.to_string());
            e.push_str(",\"args\":{\"msg_id\":");
            e.push_str(&s.msg_id.to_string());
            e.push_str(",\"bytes\":");
            e.push_str(&s.bytes.to_string());
            e.push_str(",\"error\":");
            e.push_str(if s.error { "true" } else { "false" });
            e.push('}');
        });
        flush_chunk(w, &mut chunk)?;
    }
    for (label, tid) in &tids {
        push_event(&mut chunk, &mut first, |e| {
            e.push_str("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":");
            e.push_str(&tid.to_string());
            e.push_str(",\"args\":{\"name\":");
            push_json_string(e, label);
            e.push('}');
        });
        flush_chunk(w, &mut chunk)?;
    }
    // Gauge series as counter tracks: one "C" event per gauge per frame.
    for f in frames {
        for (name, value) in &f.values {
            push_event(&mut chunk, &mut first, |e| {
                e.push_str("\"name\":");
                push_json_string(e, name);
                e.push_str(",\"cat\":\"gauge\",\"ph\":\"C\",\"ts\":");
                e.push_str(&f.t_us.to_string());
                e.push_str(",\"pid\":0,\"args\":{\"value\":");
                e.push_str(&value.to_string());
                e.push('}');
            });
        }
        flush_chunk(w, &mut chunk)?;
    }
    chunk.push_str("],\"displayTimeUnit\":\"ms\"}");
    w.write_all(chunk.as_bytes())
}

fn flush_chunk(w: &mut dyn Write, chunk: &mut String) -> std::io::Result<()> {
    if chunk.len() >= CHUNK_BYTES {
        w.write_all(chunk.as_bytes())?;
        chunk.clear();
    }
    Ok(())
}

/// Render spans + telemetry frames as one in-memory JSON string (the
/// buffered convenience wrapper over [`write_chrome_trace_to`]).
pub fn chrome_trace_json(spans: &[Span], frames: &[TelemetryFrame]) -> String {
    let mut out: Vec<u8> = Vec::with_capacity(128 + spans.len() * 160);
    write_chrome_trace_to(&mut out, spans, frames).expect("writing to a Vec cannot fail");
    String::from_utf8(out).expect("trace writer emits UTF-8")
}

fn push_event(out: &mut String, first: &mut bool, body: impl FnOnce(&mut String)) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push('{');
    body(out);
    out.push('}');
}

/// Validate `text` as Chrome-trace JSON: it must parse as a JSON value
/// (full grammar — objects, arrays, strings with escapes, numbers, bools,
/// null) and contain a `traceEvents` array. Returns the number of events.
///
/// This is deliberately a *validator*, not a parser into a document tree —
/// it exists so tests and the CI smoke can assert "the export is loadable"
/// without taking a JSON crate dependency. The grammar checker itself is
/// [`crate::json::validate_json`], shared with the gateway's JSON
/// endpoints.
pub fn validate_trace_json(text: &str) -> Result<usize, String> {
    validate_json_counting(text, Some("traceEvents"))?
        .ok_or_else(|| "no traceEvents array found".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Component;
    use std::sync::Arc;

    fn span(component: Component, msg_id: u64, start: u64, end: u64) -> Span {
        Span {
            job_id: 3,
            msg_id,
            component,
            start_us: start,
            end_us: end,
            bytes: 64,
            error: false,
        }
    }

    #[test]
    fn empty_trace_is_valid_with_zero_events() {
        let json = chrome_trace_json(&[], &[]);
        assert_eq!(validate_trace_json(&json), Ok(0));
    }

    #[test]
    fn spans_and_frames_counted_as_events() {
        let spans = vec![
            span(Component::EdgeProducer, 1, 0, 10),
            span(Component::Broker, 1, 10, 20),
        ];
        let frames = vec![TelemetryFrame {
            t_us: 5,
            values: vec![(Arc::from("depth"), 3), (Arc::from("lag"), 7)],
        }];
        let json = chrome_trace_json(&spans, &frames);
        // 2 span events + 2 thread_name metadata + 2 counter events.
        assert_eq!(validate_trace_json(&json), Ok(6));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"M\""));
    }

    #[test]
    fn hostile_component_labels_are_escaped() {
        let nasty = Component::Network("a,\"b\"\n\\c\td\u{1}".to_string());
        let json = chrome_trace_json(&[span(nasty, 9, 0, 5)], &[]);
        let n = validate_trace_json(&json).expect("escaped output must validate");
        assert_eq!(n, 2); // span + its thread_name metadata
    }

    #[test]
    fn same_component_shares_a_tid() {
        let spans = vec![
            span(Component::Broker, 1, 0, 1),
            span(Component::Broker, 2, 1, 2),
            span(Component::CloudProcessor, 1, 2, 3),
        ];
        let json = chrome_trace_json(&spans, &[]);
        // 3 spans but only 2 distinct rows → 2 metadata events.
        assert_eq!(validate_trace_json(&json), Ok(5));
    }

    #[test]
    fn streamed_output_is_byte_identical_to_buffered_across_chunks() {
        // Enough spans that the streaming path flushes several chunks.
        let spans: Vec<Span> = (0..2000)
            .map(|i| span(Component::Broker, i, i, i + 1))
            .collect();
        let frames: Vec<TelemetryFrame> = (0..50)
            .map(|t| TelemetryFrame {
                t_us: t,
                values: vec![(Arc::from("lag"), t as i64)],
            })
            .collect();
        let buffered = chrome_trace_json(&spans, &frames);
        assert!(buffered.len() > CHUNK_BYTES * 2, "must exercise chunking");
        let mut streamed: Vec<u8> = Vec::new();
        write_chrome_trace_to(&mut streamed, &spans, &frames).unwrap();
        assert_eq!(streamed, buffered.as_bytes());
        assert!(validate_trace_json(&buffered).unwrap() > 2000);
    }

    #[test]
    fn validator_rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "{\"traceEvents\":[}",
            "{\"traceEvents\":[]} trailing",
            "{\"traceEvents\":[{\"a\":01}]}",
            "{\"traceEvents\":[\"unterminated]}",
            "{'traceEvents':[]}",
        ] {
            assert!(validate_trace_json(bad).is_err(), "accepted: {bad:?}");
        }
        // Valid JSON without the required array is also rejected.
        assert!(validate_trace_json("{\"other\":[]}").is_err());
        assert!(validate_trace_json("[1,2,3]").is_err());
    }

    #[test]
    fn validator_accepts_full_grammar() {
        let json = "{\"traceEvents\":[{\"s\":\"\\u00e9\\n\",\"n\":-1.5e+3,\
                    \"b\":true,\"x\":null,\"a\":[1,[2,{}]]}],\"k\":false}";
        assert_eq!(validate_trace_json(json), Ok(1));
    }
}
