//! The observability front door of a run (DESIGN.md §16): the one
//! read-only route set both entry points serve, the one value that owns a
//! run's telemetry sampler and gateway, and the one bottleneck verdict the
//! controller, the SSE stream and `GET /top` all read ([`bottleneck`]).
//!
//! The gateway crate knows sockets, HTTP framing, routing and SSE — it has
//! never heard of pipelines or federations. This module builds the
//! read-only endpoints as closures over a [`RunView`]; what differs between
//! a pipeline and a federation is only the view's parameters (the `/top`
//! gauge rows, the progress source, which spans are the run's, when the
//! run has stopped).
//!
//! | endpoint                 | serves                                            |
//! |--------------------------|---------------------------------------------------|
//! | `GET /metrics`           | Prometheus text exposition of every gauge/counter |
//! | `GET /telemetry/frames`  | the telemetry frame ring as a JSON array          |
//! | `GET /telemetry/stream`  | SSE: each new frame + periodic bottleneck verdict |
//! | `GET /top`               | the `pilot_top` table as JSON ([`TopView`])       |
//! | `GET /trace`             | Chrome `trace_event` JSON, streamed to the socket |
//!
//! The pipeline adds its control routes to the same router (see
//! `runtime/gateway.rs`); the federation serves these five alone. Opt-in
//! via the entry point's `gateway` config; with it unset no listener, no
//! threads and no `gateway.*` gauges exist.

use pilot_gateway::{Gateway, GatewayConfig, Handler, Request, Response, Router, StopFlag};
use pilot_metrics::{
    attribute, frames_json, prometheus_exposition, push_json_string, write_chrome_trace_to,
    Component, JobId, MetricsRegistry, Span, TelemetryFrame, TelemetrySampler, TopView,
};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// SSE frame poll interval.
const STREAM_POLL: Duration = Duration::from_millis(25);
/// Minimum spacing between two SSE bottleneck verdicts.
const VERDICT_EVERY: Duration = Duration::from_millis(250);
/// Attribution window of the bottleneck verdict, µs: the verdict reads
/// the spans that ended within the last four windows.
const ATTRIBUTION_WINDOW_US: u64 = 250_000;

/// The run's bottleneck now: the dominant component of the newest
/// attribution window over the spans of `job` (every span with `None`)
/// that ended within the last four windows. Only recent spans, so a
/// drained early phase cannot outvote the current one — and an idle or
/// finished run has no verdict. `None` until the sampler holds two frames.
/// Copies no frame.
pub(crate) fn bottleneck(
    registry: &MetricsRegistry,
    sampler: &TelemetrySampler,
    job: Option<JobId>,
) -> Option<Component> {
    if sampler.frame_count() < 2 {
        return None;
    }
    let cutoff = registry.now_us().saturating_sub(4 * ATTRIBUTION_WINDOW_US);
    let spans =
        registry.spans_where(|s| s.end_us >= cutoff && job.is_none_or(|job| s.job_id == job));
    // The newest window holds the span that ended last, so it always has
    // a dominant component.
    attribute(&spans, ATTRIBUTION_WINDOW_US)
        .windows
        .last()?
        .dominant()
        .cloned()
}

/// What the read-only routes read of one run.
pub(crate) struct RunView {
    /// The run's registry: gauges, counters and spans.
    pub(crate) registry: MetricsRegistry,
    /// The gauge rows of `GET /top`, in display order.
    pub(crate) gauges: &'static [&'static str],
    /// The run's spans: those of one job (other jobs may share the
    /// registry), or — `None` — every span in the registry.
    pub(crate) job: Option<JobId>,
    /// `(processed, expected)` messages, for `GET /top`.
    pub(crate) progress: Box<dyn Fn() -> (u64, Option<u64>) + Send + Sync>,
    /// Whether the run has stopped; ends `GET /telemetry/stream`.
    pub(crate) stopped: Box<dyn Fn() -> bool + Send + Sync>,
}

impl RunView {
    fn spans(&self) -> Vec<Span> {
        self.registry
            .spans_where(|s| self.job.is_none_or(|job| s.job_id == job))
    }

    /// The [`bottleneck`] verdict's label.
    fn verdict(&self, sampler: &TelemetrySampler) -> Option<String> {
        bottleneck(&self.registry, sampler, self.job).map(|c| c.label())
    }
}

/// A run's telemetry sampler and observability gateway, shut down in the
/// one order: the gateway first — its streams poll the sampler, and its
/// shutdown joins every handler thread — then the sampler, after the run
/// drained, so its final frame records the quiesced gauge levels.
pub(crate) struct Observability {
    sampler: Option<Arc<TelemetrySampler>>,
    gateway: Option<Gateway>,
}

impl Observability {
    pub(crate) fn new(sampler: Option<Arc<TelemetrySampler>>) -> Self {
        Self {
            sampler,
            gateway: None,
        }
    }

    /// The telemetry sampler, when the run's telemetry plane is on.
    pub(crate) fn sampler(&self) -> Option<&TelemetrySampler> {
        self.sampler.as_deref()
    }

    /// The bound address of the gateway, when one is serving.
    pub(crate) fn gateway_addr(&self) -> Option<SocketAddr> {
        self.gateway.as_ref().map(|g| g.addr())
    }

    /// Serve the read-only routes over `view` on `cfg.bind`, plus whatever
    /// routes `extend` adds to the router.
    pub(crate) fn serve(
        &mut self,
        cfg: &GatewayConfig,
        view: RunView,
        extend: impl FnOnce(Router) -> Router,
    ) -> io::Result<()> {
        let registry = view.registry.clone();
        let served = Arc::new(Served {
            view,
            sampler: self.sampler.clone(),
            stop: StopFlag::new(),
        });
        let stop = served.stop.clone();
        let router = extend(read_only_routes(served));
        self.gateway = Some(Gateway::start(cfg, router, &registry, stop)?);
        Ok(())
    }

    /// Stop the gateway, then the sampler. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        if let Some(mut gw) = self.gateway.take() {
            gw.shutdown();
        }
        if let Some(sampler) = &self.sampler {
            sampler.stop();
        }
    }
}

impl Drop for Observability {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What every read-only handler holds: the view, the sampler, and the
/// gateway's stop flag (which ends live streams).
struct Served {
    view: RunView,
    sampler: Option<Arc<TelemetrySampler>>,
    stop: StopFlag,
}

impl Served {
    /// The whole frame ring, for the outputs that are the whole ring.
    fn frames(&self) -> Vec<TelemetryFrame> {
        self.sampler
            .as_ref()
            .map(|s| s.frames())
            .unwrap_or_default()
    }
}

/// The five read-only endpoints, each a function of the shared state.
fn read_only_routes(served: Arc<Served>) -> Router {
    let route = |handler: fn(&Arc<Served>) -> Response| -> Handler {
        let served = Arc::clone(&served);
        Box::new(move |_req: &Request| handler(&served))
    };
    Router::new()
        .get("/metrics", route(metrics))
        .get(
            "/telemetry/frames",
            route(|s| Response::json(frames_json(&s.frames()))),
        )
        .get("/telemetry/stream", route(telemetry_stream))
        .get("/top", route(top))
        .get("/trace", route(trace))
}

fn metrics(served: &Arc<Served>) -> Response {
    Response::Full {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        body: prometheus_exposition(&served.view.registry).into_bytes(),
    }
}

fn telemetry_stream(served: &Arc<Served>) -> Response {
    let Some(sampler) = served.sampler.clone() else {
        return telemetry_off();
    };
    let served = Arc::clone(served);
    Response::Stream {
        content_type: "text/event-stream",
        write: Box::new(move |w| stream_telemetry(&served, &sampler, w)),
    }
}

fn top(served: &Arc<Served>) -> Response {
    let Some(sampler) = served.sampler.as_deref() else {
        return telemetry_off();
    };
    let Some(latest) = sampler.latest() else {
        return Response::text(503, "no telemetry frame sampled yet\n");
    };
    let view = &served.view;
    let (processed, expected) = (view.progress)();
    let mut top = TopView::from_frame(&latest, view.gauges, processed, expected);
    top.bottleneck = view.verdict(sampler);
    Response::json(top.to_json())
}

fn trace(served: &Arc<Served>) -> Response {
    let served = Arc::clone(served);
    Response::Stream {
        content_type: "application/json",
        write: Box::new(move |w| write_chrome_trace_to(w, &served.view.spans(), &served.frames())),
    }
}

fn telemetry_off() -> Response {
    Response::text(
        404,
        "telemetry plane is off (set telemetry_sample_ms on the run)\n",
    )
}

/// The SSE loop: push every new telemetry frame (`event: frame`) and a
/// periodic bottleneck verdict (`event: verdict`) until the subscriber
/// hangs up, the gateway stops or the run stops. Each poll copies only the
/// frames after the cursor, which starts just before the newest frame so a
/// new subscriber sees data immediately instead of waiting a sample tick.
fn stream_telemetry(
    served: &Served,
    sampler: &TelemetrySampler,
    w: &mut dyn io::Write,
) -> io::Result<()> {
    let view = &served.view;
    let mut cursor = sampler.latest().map_or(0, |f| f.t_us.saturating_sub(1));
    let mut last_verdict = Instant::now();
    let mut first = true;
    while !served.stop.is_stopped() && !(view.stopped)() {
        for frame in sampler.frames_since(cursor) {
            pilot_gateway::write_sse_event(w, Some("frame"), &frame.to_json())?;
            cursor = frame.t_us;
        }
        if first || last_verdict.elapsed() >= VERDICT_EVERY {
            first = false;
            last_verdict = Instant::now();
            let mut data = String::from("{\"t_us\":");
            data.push_str(&view.registry.now_us().to_string());
            data.push_str(",\"bottleneck\":");
            match view.verdict(sampler) {
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
