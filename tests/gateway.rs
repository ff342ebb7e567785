//! Observability-gateway integration tests (DESIGN.md §16): the HTTP/SSE
//! front door over a live pipeline and a live federation — plus the
//! zero-footprint contract when the knob is off.

use pilot_core::{PilotComputeService, PilotDescription};
use pilot_datagen::DataGenConfig;
use pilot_edge::control::Verdict;
use pilot_edge::federation::{self, FederationConfig};
use pilot_edge::processors::{datagen_produce_factory, paper_model_factory};
use pilot_edge::{EdgeToCloudPipeline, PipelineConfig, PipelineError, RunningPipeline};
use pilot_gateway::{GatewayConfig, HttpClient};
use pilot_metrics::{validate_json, validate_prometheus, validate_trace_json, MetricsRegistry};
use pilot_ml::ModelKind;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(120);

fn pilots(edge_cores: usize, cloud_cores: usize) -> (pilot_core::Pilot, pilot_core::Pilot) {
    let svc = PilotComputeService::new();
    let edge = svc
        .submit_and_wait(
            PilotDescription::local(edge_cores, 4.0 * edge_cores as f64),
            WAIT,
        )
        .unwrap();
    let cloud = svc
        .submit_and_wait(PilotDescription::local(cloud_cores, 44.0), WAIT)
        .unwrap();
    std::mem::forget(svc);
    (edge, cloud)
}

/// A paced cell with the gateway and telemetry on — slow enough that the
/// run is still in flight while the endpoints are probed.
fn start_gateway_pipeline(registry: &MetricsRegistry) -> RunningPipeline {
    let (edge, cloud) = pilots(2, 2);
    EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(100), 20))
        .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
        .metrics(registry.clone())
        .devices(2)
        .rate_per_device(50.0)
        .telemetry_sample_ms(5)
        .gateway(GatewayConfig::default())
        .start()
        .unwrap()
}

#[test]
fn defaults_leave_gateway_off() {
    // The knob must be opt-in, and OFF must mean zero footprint: no
    // listener, no gateway gauges in the registry.
    assert!(PipelineConfig::default().gateway.is_none());
    assert!(FederationConfig::default().gateway.is_none());
    let registry = MetricsRegistry::new();
    let (edge, cloud) = pilots(1, 1);
    let running = EdgeToCloudPipeline::builder()
        .pilot_edge(edge)
        .pilot_cloud_processing(cloud)
        .produce_function(datagen_produce_factory(DataGenConfig::paper(50), 3))
        .process_cloud_function(paper_model_factory(ModelKind::Baseline, 32))
        .metrics(registry.clone())
        .start()
        .unwrap();
    assert!(running.gateway_addr().is_none(), "no listener when off");
    running.wait(WAIT).unwrap();
    assert_eq!(
        registry.gauge_value("gateway.requests"),
        None,
        "no gateway gauges registered when off"
    );
}

#[test]
fn invalid_gateway_config_is_rejected() {
    for bad in [
        GatewayConfig {
            workers: 0,
            ..GatewayConfig::default()
        },
        GatewayConfig {
            bind: String::new(),
            ..GatewayConfig::default()
        },
        GatewayConfig {
            max_body_bytes: 0,
            ..GatewayConfig::default()
        },
    ] {
        let cfg = PipelineConfig {
            gateway: Some(bad),
            ..PipelineConfig::default()
        };
        assert!(matches!(cfg.validate(), Err(PipelineError::Config(_))));
    }
}

#[test]
fn metrics_endpoint_is_valid_prometheus_even_with_hostile_names() {
    let registry = MetricsRegistry::new();
    // A gauge name carrying every character the exposition format must
    // escape inside label values: backslash, double quote, newline.
    let hostile = "evil\"name\nwith\\stuff";
    registry.gauge(hostile).set(7);
    let running = start_gateway_pipeline(&registry);
    let addr = running.gateway_addr().expect("gateway is on");
    let mut client = HttpClient::connect(addr).unwrap();
    let response = client.get("/metrics").unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(
        response.header("content-type"),
        Some("text/plain; version=0.0.4")
    );
    let text = response.text();
    validate_prometheus(&text).expect("valid Prometheus exposition");
    assert!(
        text.contains("evil\\\"name\\nwith\\\\stuff"),
        "hostile label must be escaped, got:\n{text}"
    );
    assert!(text.contains("pilot_gauge{"), "gauge family present");
    running.wait(WAIT).unwrap();
}

#[test]
fn endpoints_serve_the_live_pipeline() {
    let registry = MetricsRegistry::new();
    let running = start_gateway_pipeline(&registry);
    let addr = running.gateway_addr().expect("gateway is on");
    let mut client = HttpClient::connect(addr).unwrap();

    // /telemetry/frames: a JSON array of frames (possibly still empty on
    // the first tick — poll until one arrives).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let r = client.get("/telemetry/frames").unwrap();
        assert_eq!(r.status, 200);
        validate_json(&r.text()).expect("frames are valid JSON");
        if r.text().contains("\"t_us\"") || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // /top: the shared TopView JSON with gauge rows.
    let top = loop {
        let r = client.get("/top").unwrap();
        if r.status == 200 || Instant::now() > deadline {
            break r;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(top.status, 200, "body: {}", top.text());
    validate_json(&top.text()).unwrap();
    assert!(top.text().contains("\"rows\""));
    assert!(top.text().contains("\"processed\""));

    // /trace: a Perfetto-loadable Chrome trace, streamed.
    let trace = client.get("/trace").unwrap();
    assert_eq!(trace.status, 200);
    validate_trace_json(&trace.text()).expect("valid Chrome trace");

    // /control/tune: bounds-checked external tunes, journalled with the
    // External verdict; bad knobs rejected whole.
    let tuned = client
        .post(
            "/control/tune?fetch_max=8&batch_max_bytes=65536&linger_us=2000",
            b"",
        )
        .unwrap();
    assert_eq!(tuned.status, 200, "body: {}", tuned.text());
    validate_json(&tuned.text()).unwrap();
    for label in ["set_fetch_max", "set_batch_max_bytes", "set_linger"] {
        assert!(
            tuned.text().contains(label),
            "missing {label}: {}",
            tuned.text()
        );
    }
    assert_eq!(
        running.tune().fetch_max(),
        8,
        "tune applied to the live table"
    );
    assert_eq!(running.tune().batch_max_bytes(), 65536);
    for bad in [
        "/control/tune",                       // no knobs
        "/control/tune?fetch_max=100000",      // out of bounds
        "/control/tune?fetch_max=abc",         // not an integer
        "/control/tune?warp_factor=9",         // unknown knob
        "/control/tune?linger_us=99999999999", // over the linger ceiling
    ] {
        let r = client.post(bad, b"").unwrap();
        assert_eq!(r.status, 400, "{bad} should be rejected: {}", r.text());
    }
    let journal = client.get("/control/journal").unwrap();
    assert_eq!(journal.status, 200);
    validate_json(&journal.text()).unwrap();
    assert!(
        journal.text().contains("\"verdict\":\"external\""),
        "external tunes must be journalled: {}",
        journal.text()
    );
    // One journal, one clock: the tunes are in the pipeline's journal in
    // request order, and the endpoint serves exactly its `at` stamps.
    let events = running.control_events();
    let external: Vec<&str> = events
        .iter()
        .filter(|e| e.cause.verdict == Verdict::External)
        .map(|e| e.action.label())
        .collect();
    assert_eq!(
        external,
        ["set_fetch_max", "set_batch_max_bytes", "set_linger"],
        "journal: {events:?}"
    );
    let journal_text = journal.text();
    let served: Vec<&str> = journal_text
        .split("\"at_us\":")
        .skip(1)
        .map(|rest| rest.split(',').next().unwrap())
        .collect();
    let stamped: Vec<String> = events
        .iter()
        .map(|e| (e.at.as_micros() as u64).to_string())
        .collect();
    assert_eq!(
        served, stamped,
        "/control/journal serves the journal's clock"
    );

    // /produce: ingestion round-trips through the broker; the empty
    // payload (the end-of-stream sentinel) is refused at the door.
    let broker = running.broker();
    broker
        .create_topic("ingest", 1, pilot_broker::RetentionPolicy::unbounded())
        .unwrap();
    let produced = client
        .post("/produce?topic=ingest", b"hello-gateway")
        .unwrap();
    assert_eq!(produced.status, 200, "body: {}", produced.text());
    validate_json(&produced.text()).unwrap();
    assert!(produced.text().contains("\"offset\":0"));
    let records = broker.fetch("ingest", 0, 0, 16).unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].value.as_ref(), b"hello-gateway");
    assert_eq!(
        client.post("/produce?topic=ingest", b"").unwrap().status,
        400
    );
    assert_eq!(
        client.post("/produce?topic=nope", b"x").unwrap().status,
        404
    );
    assert_eq!(
        client
            .post("/produce?topic=ingest&partition=99", b"x")
            .unwrap()
            .status,
        404
    );

    // Routing errors: unknown path, wrong method, oversized body,
    // malformed head — all clean errors, none kill the worker.
    assert_eq!(client.get("/nope").unwrap().status, 404);
    assert_eq!(client.get("/produce").unwrap().status, 405);
    let huge = vec![b'x'; 300 * 1024];
    assert_eq!(
        client.post("/produce?topic=ingest", &huge).unwrap().status,
        413
    );
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(b"GARBAGE\r\n\r\n").unwrap();
    let mut reply = String::new();
    let _ = raw.read_to_string(&mut reply);
    assert!(reply.starts_with("HTTP/1.1 400"), "got: {reply:?}");
    drop(raw);
    assert_eq!(
        client.get("/metrics").unwrap().status,
        200,
        "worker survived"
    );

    // The gateway accounted for its traffic.
    assert!(registry.gauge_value("gateway.requests").unwrap_or(0) > 0);

    // wait() tears the listener down with the rest of the run.
    running.wait(WAIT).unwrap();
    assert!(
        HttpClient::connect(addr).is_err(),
        "gateway must be down after wait()"
    );
}

#[test]
fn sse_stream_pushes_monotonic_frames() {
    let registry = MetricsRegistry::new();
    let running = start_gateway_pipeline(&registry);
    let addr = running.gateway_addr().expect("gateway is on");
    let (status, mut stream) = HttpClient::connect(addr)
        .unwrap()
        .open_stream("GET", "/telemetry/stream")
        .unwrap();
    assert_eq!(status, 200);
    let mut last_t = 0u64;
    let mut frames = 0;
    let mut verdicts = 0;
    let deadline = Instant::now() + Duration::from_secs(20);
    while frames < 3 && Instant::now() < deadline {
        match stream.next_event(Duration::from_secs(2)).unwrap() {
            Some(ev) if ev.event.as_deref() == Some("frame") => {
                validate_json(&ev.data).expect("frame event is valid JSON");
                let t = ev
                    .data
                    .split("\"t_us\":")
                    .nth(1)
                    .and_then(|s| s.split(',').next())
                    .and_then(|s| s.parse::<u64>().ok())
                    .expect("frame carries t_us");
                assert!(t > last_t, "frame timestamps must be strictly monotonic");
                last_t = t;
                frames += 1;
            }
            Some(ev) if ev.event.as_deref() == Some("verdict") => {
                validate_json(&ev.data).expect("verdict event is valid JSON");
                assert!(ev.data.contains("\"bottleneck\""));
                verdicts += 1;
            }
            Some(_) | None => {}
        }
    }
    assert!(frames >= 2, "expected >= 2 SSE frames, saw {frames}");
    assert!(verdicts >= 1, "expected >= 1 bottleneck verdict");
    running.wait(WAIT).unwrap();
    // The stream ends once the pipeline (and its gateway) shut down.
    let ended = Instant::now() + Duration::from_secs(5);
    loop {
        match stream.next_event(Duration::from_millis(200)) {
            Ok(Some(_)) if Instant::now() < ended => continue,
            _ => break,
        }
    }
}

#[test]
fn federation_gateway_serves_the_read_only_subset() {
    let cfg = FederationConfig {
        cells: 4,
        regions: 2,
        devices_per_cell: 2,
        messages_per_device: 16,
        telemetry_sample_ms: Some(5),
        gateway: Some(GatewayConfig::default()),
        ..FederationConfig::default()
    };
    let expected = cfg.expected_messages();
    let running = federation::start(cfg).unwrap();
    let addr = running.gateway_addr().expect("gateway is on");
    let mut client = HttpClient::connect(addr).unwrap();

    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    validate_prometheus(&metrics.text()).unwrap();
    assert!(metrics.text().contains("federation.rounds"));

    let deadline = Instant::now() + Duration::from_secs(10);
    let top = loop {
        let r = client.get("/top").unwrap();
        if r.status == 200 || Instant::now() > deadline {
            break r;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(top.status, 200, "body: {}", top.text());
    validate_json(&top.text()).unwrap();
    assert!(
        top.text().contains("federation.lag.cells"),
        "federation gauge rows expected: {}",
        top.text()
    );
    assert!(top.text().contains(&format!("\"expected\":{expected}")));

    let frames = client.get("/telemetry/frames").unwrap();
    assert_eq!(frames.status, 200);
    validate_json(&frames.text()).unwrap();

    let trace = client.get("/trace").unwrap();
    assert_eq!(trace.status, 200);
    validate_trace_json(&trace.text()).unwrap();

    // The pipeline-only endpoints do not exist on a federation gateway.
    assert_eq!(client.get("/control/journal").unwrap().status, 404);
    assert_eq!(client.post("/produce", b"x").unwrap().status, 404);

    // The stream: monotonic frames and bottleneck verdicts until wait().
    let (status, mut stream) = HttpClient::connect(addr)
        .unwrap()
        .open_stream("GET", "/telemetry/stream")
        .unwrap();
    assert_eq!(status, 200);
    let mut last_t = 0u64;
    let mut frames = 0;
    let mut verdicts = 0;
    let deadline = Instant::now() + Duration::from_secs(20);
    while (frames < 3 || verdicts < 1) && Instant::now() < deadline {
        match stream.next_event(Duration::from_secs(2)).unwrap() {
            Some(ev) if ev.event.as_deref() == Some("frame") => {
                validate_json(&ev.data).expect("frame event is valid JSON");
                let t = ev
                    .data
                    .split("\"t_us\":")
                    .nth(1)
                    .and_then(|s| s.split(',').next())
                    .and_then(|s| s.parse::<u64>().ok())
                    .expect("frame carries t_us");
                assert!(t > last_t, "frame timestamps must be strictly monotonic");
                last_t = t;
                frames += 1;
            }
            Some(ev) if ev.event.as_deref() == Some("verdict") => {
                validate_json(&ev.data).expect("verdict event is valid JSON");
                assert!(ev.data.contains("\"bottleneck\""));
                verdicts += 1;
            }
            Some(_) | None => {}
        }
    }
    assert!(frames >= 2, "expected >= 2 SSE frames, saw {frames}");
    assert!(verdicts >= 1, "expected >= 1 bottleneck verdict");

    running.wait(WAIT).unwrap();
    assert!(
        HttpClient::connect(addr).is_err(),
        "gateway must be down after wait()"
    );
    // The stream has ended: what is left is events already sent, then the
    // server's close — well before a read would time out.
    const IDLE: Duration = Duration::from_secs(10);
    loop {
        let read_at = Instant::now();
        match stream.next_event(IDLE) {
            Ok(Some(_)) => continue,
            Ok(None) => {
                assert!(read_at.elapsed() < IDLE, "stream still open after wait()");
                break;
            }
            Err(_) => break,
        }
    }
}
