//! The pipeline's half of the observability front door (DESIGN.md §16):
//! its [`RunView`] and its control routes, added to the read-only route
//! set both entry points serve ([`crate::observe`]).
//!
//! | endpoint                 | serves                                          |
//! |--------------------------|-------------------------------------------------|
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
use crate::observe::{Observability, RunView};
use pilot_broker::{BrokerError, Record};
use pilot_gateway::{GatewayConfig, Request, Response};
use pilot_metrics::{push_json_string, PIPELINE_GAUGES};
use std::io;
use std::sync::Arc;

/// Serve the pipeline's gateway on `cfg.bind`: the read-only routes over
/// this job's spans and report, plus the control routes around `ctl`.
/// `bounds` gates `POST /control/tune`.
pub(crate) fn serve(
    observed: &mut Observability,
    cfg: &GatewayConfig,
    ctl: &Arc<PipelineCtl>,
    bounds: ControlBounds,
) -> io::Result<()> {
    let job_id = ctl.shared.ctx.job_id;
    let (progress_ctl, stopped_ctl) = (Arc::clone(ctl), Arc::clone(ctl));
    let view = RunView {
        registry: ctl.shared.metrics().clone(),
        gauges: PIPELINE_GAUGES,
        job: Some(job_id),
        progress: Box::new(move || {
            let report = progress_ctl.shared.metrics().report_for_job(job_id);
            (report.total_messages(), None)
        }),
        stopped: Box::new(move || stopped_ctl.is_stopped()),
    };
    let (journal_ctl, tune_ctl, produce_ctl) = (Arc::clone(ctl), Arc::clone(ctl), Arc::clone(ctl));
    observed.serve(cfg, view, |router| {
        router
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
            )
    })
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
