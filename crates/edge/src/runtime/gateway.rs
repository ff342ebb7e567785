//! The observability front door of a running pipeline (DESIGN.md §16):
//! wires the generic [`pilot_gateway`] HTTP server onto a live
//! [`PipelineCtl`].
//!
//! The gateway crate knows sockets, HTTP framing, routing, and SSE — it
//! has never heard of pipelines. This module is the other half: it builds
//! the endpoint handlers as closures over the pipeline control surface and
//! hands them to [`pilot_gateway::Gateway::start`]. Opt-in via
//! [`PipelineConfig::gateway`](crate::pipeline::PipelineConfig::gateway);
//! with the knob unset (the default) none of this exists — no listener, no
//! threads, no `gateway.*` gauges.
//!
//! | endpoint                 | serves                                          |
//! |--------------------------|-------------------------------------------------|
//! | `GET /metrics`           | Prometheus text exposition of every gauge/counter |
//! | `GET /telemetry/frames`  | the telemetry frame ring as a JSON array        |
//! | `GET /telemetry/stream`  | SSE: each new frame + periodic bottleneck verdict |
//! | `GET /top`               | the `pilot_top` table as JSON ([`TopView`])     |
//! | `GET /trace`             | Chrome `trace_event` JSON, streamed to the socket |
//! | `GET /control/journal`   | the pipeline's control journal (controller + tunes) |
//! | `POST /control/tune`     | set `TuneTable` knobs live, bounds-checked      |
//! | `POST /produce`          | append a record to a topic partition            |
//!
//! External tunes are journalled as [`ControlEvent`]s with
//! [`Verdict::External`] into the pipeline's one journal, on the clock the
//! controller's decisions use, so `GET /control/journal` shows one causal
//! history: what the controller did, what an operator did, interleaved.
//! The tune grammar is the knob table's wire names ([`Knob`]).

use super::ctl::PipelineCtl;
use crate::control::{Action, Cause, ControlBounds, ControlEvent, Knob, Verdict};
use pilot_broker::{BrokerError, Record};
use pilot_gateway::{Gateway, GatewayConfig, Request, Response, Router, StopFlag};
use pilot_metrics::{
    attribute, frames_json, prometheus_exposition, push_json_string, write_chrome_trace_to, Span,
    TelemetryFrame, TopView, PIPELINE_GAUGES,
};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// SSE frame poll interval.
const STREAM_POLL: Duration = Duration::from_millis(25);
/// Minimum spacing between two SSE bottleneck verdicts.
const VERDICT_EVERY: Duration = Duration::from_millis(250);
/// Attribution window for `/top` and the SSE verdict events.
const ATTRIBUTION_WINDOW_US: u64 = 250_000;

/// Start the pipeline's gateway: build every endpoint around `ctl` and
/// serve on `cfg.bind`. `bounds` gates `POST /control/tune`.
pub(crate) fn start(
    cfg: &GatewayConfig,
    ctl: &Arc<PipelineCtl>,
    bounds: ControlBounds,
) -> io::Result<Gateway> {
    let stop = StopFlag::new();
    let registry = ctl.shared.metrics().clone();
    let job_id = ctl.shared.ctx.job_id;

    let metrics_registry = registry.clone();
    let frames_ctl = Arc::clone(ctl);
    let stream_ctl = Arc::clone(ctl);
    let stream_stop = stop.clone();
    let top_ctl = Arc::clone(ctl);
    let trace_ctl = Arc::clone(ctl);
    let journal_ctl = Arc::clone(ctl);
    let tune_ctl = Arc::clone(ctl);
    let produce_ctl = Arc::clone(ctl);

    let router = Router::new()
        .get(
            "/metrics",
            Box::new(move |_req: &Request| Response::Full {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                body: prometheus_exposition(&metrics_registry).into_bytes(),
            }),
        )
        .get(
            "/telemetry/frames",
            Box::new(move |_req: &Request| {
                let frames = frames_ctl
                    .telemetry_sampler()
                    .map(|s| s.frames())
                    .unwrap_or_default();
                Response::json(frames_json(&frames))
            }),
        )
        .get(
            "/telemetry/stream",
            Box::new(move |_req: &Request| {
                if stream_ctl.telemetry_sampler().is_none() {
                    return telemetry_off();
                }
                let ctl = Arc::clone(&stream_ctl);
                let stop = stream_stop.clone();
                Response::Stream {
                    content_type: "text/event-stream",
                    write: Box::new(move |w| stream_telemetry(&ctl, &stop, w)),
                }
            }),
        )
        .get(
            "/top",
            Box::new(move |_req: &Request| {
                let Some(sampler) = top_ctl.telemetry_sampler() else {
                    return telemetry_off();
                };
                let frames = sampler.frames();
                let Some(latest) = frames.last() else {
                    return Response::text(503, "no telemetry frame sampled yet\n");
                };
                let processed = top_ctl
                    .shared
                    .metrics()
                    .report_for_job(job_id)
                    .total_messages();
                let mut view = TopView::from_frame(latest, PIPELINE_GAUGES, processed, None);
                view.bottleneck = attribute_dominant(&top_ctl, &frames);
                Response::json(view.to_json())
            }),
        )
        .get(
            "/trace",
            Box::new(move |_req: &Request| {
                let ctl = Arc::clone(&trace_ctl);
                Response::Stream {
                    content_type: "application/json",
                    write: Box::new(move |w| {
                        let spans = job_spans(&ctl);
                        let frames = ctl
                            .telemetry_sampler()
                            .map(|s| s.frames())
                            .unwrap_or_default();
                        write_chrome_trace_to(w, &spans, &frames)
                    }),
                }
            }),
        )
        .get(
            "/control/journal",
            Box::new(move |_req: &Request| {
                Response::json(events_json(&journal_ctl.journal_events()))
            }),
        )
        .post(
            "/control/tune",
            Box::new(move |req: &Request| apply_tune(req, &tune_ctl, &bounds)),
        )
        .post(
            "/produce",
            Box::new(move |req: &Request| produce(req, &produce_ctl)),
        );

    Gateway::start(cfg, router, &registry, stop)
}

fn telemetry_off() -> Response {
    Response::text(
        404,
        "telemetry plane is off (set telemetry_sample_ms on the pipeline)\n",
    )
}

/// Spans of this pipeline's job (other jobs sharing the registry are not
/// this gateway's business).
fn job_spans(ctl: &PipelineCtl) -> Vec<Span> {
    let job_id = ctl.shared.ctx.job_id;
    ctl.shared
        .metrics()
        .snapshot()
        .into_iter()
        .filter(|s| s.job_id == job_id)
        .collect()
}

/// Dominant component of the most recent attribution window, when enough
/// signal exists.
fn attribute_dominant(ctl: &PipelineCtl, frames: &[TelemetryFrame]) -> Option<String> {
    if frames.len() < 2 {
        return None;
    }
    let spans = job_spans(ctl);
    if spans.is_empty() {
        return None;
    }
    let attr = attribute(&spans, frames, ATTRIBUTION_WINDOW_US);
    attr.windows
        .last()
        .and_then(|w| w.dominant())
        .or_else(|| attr.dominant())
        .map(|c| c.label())
}

/// The SSE loop: push every new telemetry frame (`event: frame`) and a
/// periodic bottleneck verdict (`event: verdict`) until the subscriber
/// hangs up or the gateway stops. The cursor starts one frame back so a
/// new subscriber sees data immediately instead of waiting a sample tick.
fn stream_telemetry(ctl: &PipelineCtl, stop: &StopFlag, w: &mut dyn io::Write) -> io::Result<()> {
    let sampler = ctl.telemetry_sampler().expect("checked by handler");
    let mut cursor = {
        let frames = sampler.frames();
        frames
            .len()
            .checked_sub(2)
            .and_then(|i| frames.get(i))
            .map(|f| f.t_us)
            .unwrap_or(0)
    };
    let mut last_verdict = Instant::now();
    let mut first = true;
    while !stop.is_stopped() && !ctl.is_stopped() {
        let frames = sampler.frames();
        for frame in frames.iter() {
            if frame.t_us <= cursor {
                continue;
            }
            pilot_gateway::write_sse_event(w, Some("frame"), &frame.to_json())?;
            cursor = frame.t_us;
        }
        if first || last_verdict.elapsed() >= VERDICT_EVERY {
            first = false;
            last_verdict = Instant::now();
            let mut data = String::from("{\"t_us\":");
            data.push_str(&ctl.shared.metrics().now_us().to_string());
            data.push_str(",\"bottleneck\":");
            match attribute_dominant(ctl, &frames) {
                Some(label) => push_json_string(&mut data, &label),
                None => data.push_str("null"),
            }
            data.push('}');
            pilot_gateway::write_sse_event(w, Some("verdict"), &data)?;
        }
        std::thread::sleep(STREAM_POLL);
    }
    Ok(())
}

/// Render a journal as a JSON array (one object per [`ControlEvent`]).
fn events_json(events: &[ControlEvent]) -> String {
    let mut out = String::with_capacity(2 + events.len() * 160);
    out.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"at_us\":");
        out.push_str(&(e.at.as_micros() as u64).to_string());
        out.push_str(",\"action\":");
        push_json_string(&mut out, e.action.label());
        out.push_str(",\"before\":");
        out.push_str(&e.action.before().to_string());
        out.push_str(",\"after\":");
        out.push_str(&e.action.after().to_string());
        out.push_str(",\"cause\":{\"lag\":");
        out.push_str(&e.cause.lag.to_string());
        out.push_str(",\"verdict\":");
        push_json_string(&mut out, e.cause.verdict.label());
        out.push_str(",\"bottleneck\":");
        match &e.cause.bottleneck {
            Some(b) => push_json_string(&mut out, b),
            None => out.push_str("null"),
        }
        out.push_str("},\"gauges\":{");
        for (j, (name, value)) in e.gauges.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push(':');
            out.push_str(&value.to_string());
        }
        out.push_str("}}");
    }
    out.push(']');
    out
}

/// `POST /control/tune?batch_max_bytes=..&linger_us=..&prefetch_depth=..&fetch_max=..`
///
/// One loop over the knob table: each query parameter names a tunable
/// [`Knob`], checked against its `bounds.range` while tracking the
/// would-be state (so `batch_max_bytes=65536&linger_us=2000` in one request
/// is legal). Any unknown knob, unparsable value, or out-of-bounds target
/// rejects the request whole — nothing is applied. Then every action is
/// applied and journalled, in request order.
fn apply_tune(req: &Request, ctl: &PipelineCtl, bounds: &ControlBounds) -> Response {
    if req.query.is_empty() {
        return Response::bad_request(format!("no knobs given; supported: {}", Knob::supported()));
    }
    let tune = &ctl.shared.tune;
    // Validation pass over the planned state.
    let mut planned = Knob::ALL.map(|k| tune.get(k).unwrap_or_default());
    let mut actions: Vec<Action> = Vec::with_capacity(req.query.len());
    for (name, value) in &req.query {
        let v: u64 = match value.parse() {
            Ok(v) => v,
            Err(_) => {
                return Response::bad_request(format!("knob {name}: not an integer: {value:?}"))
            }
        };
        let Some(knob) = Knob::parse(name) else {
            return Response::bad_request(format!(
                "unknown knob {name:?}; supported: {}",
                Knob::supported()
            ));
        };
        let (min, max) = bounds.range(knob);
        if v < min as u64 || v > max as u64 {
            return out_of_bounds(name, v, min, max);
        }
        if knob == Knob::Linger && v > 0 && planned[Knob::Batch.index()] == 0 {
            return Response::bad_request(
                "linger_us requires batching on (set batch_max_bytes > 0 first, \
                 or in the same request)",
            );
        }
        let to = v as usize;
        let from = std::mem::replace(&mut planned[knob.index()], to);
        actions.push(Action::Set { knob, from, to });
    }
    // Apply pass: everything validated, nothing can fail now.
    for action in &actions {
        if let Action::Set { knob, to, .. } = *action {
            tune.set(knob, to);
        }
    }
    let cause = Cause {
        lag: ctl.total_lag(),
        verdict: Verdict::External,
        bottleneck: None,
    };
    ctl.journal(cause, &actions);
    let mut body = String::from("{\"applied\":[");
    for (i, action) in actions.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str("{\"action\":");
        push_json_string(&mut body, action.label());
        body.push_str(",\"before\":");
        body.push_str(&action.before().to_string());
        body.push_str(",\"after\":");
        body.push_str(&action.after().to_string());
        body.push('}');
    }
    body.push_str("]}");
    Response::json(body)
}

fn out_of_bounds(knob: &str, v: u64, min: usize, max: usize) -> Response {
    Response::bad_request(format!("knob {knob}: {v} outside bounds [{min}, {max}]"))
}

/// `POST /produce?topic=<name>&partition=<n>` with the record payload as
/// the request body. The topic defaults to the pipeline's own; the
/// partition to 0. Empty bodies are rejected: an empty payload *is* the
/// end-of-stream sentinel of the pipeline protocol, and letting one in
/// through the front door would terminate the partition.
fn produce(req: &Request, ctl: &PipelineCtl) -> Response {
    if req.body.is_empty() {
        return Response::bad_request(
            "empty payload (an empty record is the end-of-stream sentinel)",
        );
    }
    let topic = req
        .query_param("topic")
        .unwrap_or(ctl.shared.topic.as_str())
        .to_string();
    let partition: usize = match req.query_param("partition").unwrap_or("0").parse() {
        Ok(p) => p,
        Err(_) => return Response::bad_request("partition: not an integer"),
    };
    let record = Record::new(req.body.clone()).with_timestamp(ctl.shared.metrics().now_us());
    match ctl.shared.broker.append(&topic, partition, record) {
        Ok(offset) => {
            let mut body = String::from("{\"topic\":");
            push_json_string(&mut body, &topic);
            body.push_str(",\"partition\":");
            body.push_str(&partition.to_string());
            body.push_str(",\"offset\":");
            body.push_str(&offset.to_string());
            body.push('}');
            Response::json(body)
        }
        Err(e @ (BrokerError::UnknownTopic(_) | BrokerError::UnknownPartition { .. })) => {
            Response::text(404, format!("{e}\n"))
        }
        Err(e) => Response::text(500, format!("{e}\n")),
    }
}
