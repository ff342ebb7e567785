//! `gateway_load` — GW-1: the observability front door under load
//! (DESIGN.md §16, EXPERIMENTS.md "Gateway throughput and latency").
//!
//! Starts one experiment cell with the gateway and the telemetry plane on,
//! then sweeps concurrent HTTP clients hammering a 50/50 mix of
//! `GET /metrics` (Prometheus scrape) and `POST /produce` (record
//! ingestion) over keep-alive connections, while one SSE subscriber holds
//! `/telemetry/stream` for the whole sweep. Reports per-configuration
//! request latency percentiles as CSV on stdout.
//!
//! ```text
//! cargo run -p pilot-bench --release --bin gateway_load > results_gateway.csv
//!
//! Env:
//!   PILOT_BENCH_QUICK           run the self-asserting endpoint smoke
//!                               instead of the sweep (CI mode; exits 1 on
//!                               any wrong status, invalid payload, or a
//!                               worker killed by a hostile request)
//!   PILOT_GATEWAY_REQUESTS=N    requests per client in the sweep
//!                               (default 8000 → 120k total)
//! ```

use pilot_bench::{start_cell, CellOpts, Geo, StartedCell};
use pilot_broker::RetentionPolicy;
use pilot_gateway::{GatewayConfig, HttpClient};
use pilot_metrics::{validate_json, validate_prometheus, validate_trace_json};
use pilot_ml::ModelKind;
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Client counts swept in full mode.
const CLIENT_SWEEP: &[usize] = &[1, 2, 4, 8];
/// Topic `POST /produce` ingests into (separate from the pipeline's own
/// topic, so load records never race the sentinel protocol).
const INGEST_TOPIC: &str = "ingest";

fn start_gateway_cell() -> StartedCell {
    let quick = std::env::var("PILOT_BENCH_QUICK").is_ok();
    let opts = CellOpts {
        points: 100,
        devices: 2,
        model: ModelKind::Baseline,
        geo: Geo::Local,
        messages_per_device: if quick { 8 } else { 16 },
        telemetry_sample_ms: Some(5),
        gateway: Some(GatewayConfig {
            // Every concurrent client pins a worker (keep-alive), plus the
            // SSE subscriber and headroom for the hostile-request probes.
            workers: CLIENT_SWEEP.iter().copied().max().unwrap_or(1) + 4,
            ..GatewayConfig::default()
        }),
        ..CellOpts::default()
    };
    let cell = start_cell(&opts);
    cell.pipeline
        .broker()
        .create_topic(
            INGEST_TOPIC,
            CLIENT_SWEEP.iter().copied().max().unwrap_or(1),
            RetentionPolicy::unbounded(),
        )
        .expect("create ingest topic");
    cell
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One sweep configuration: `clients` threads, each issuing
/// `requests_per_client` alternating scrape/ingest requests on its own
/// keep-alive connection. Returns every request's latency in µs.
fn run_config(addr: SocketAddr, clients: usize, requests_per_client: usize) -> Vec<u64> {
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(addr).expect("connect");
                let produce_path = format!("/produce?topic={INGEST_TOPIC}&partition={c}");
                let mut lat = Vec::with_capacity(requests_per_client);
                for i in 0..requests_per_client {
                    let t0 = Instant::now();
                    let response = if i % 2 == 0 {
                        client.get("/metrics")
                    } else {
                        client.post(&produce_path, format!("load-{c}-{i}").as_bytes())
                    }
                    .expect("request");
                    assert_eq!(response.status, 200, "body: {}", response.text());
                    lat.push(t0.elapsed().as_micros() as u64);
                }
                lat
            })
        })
        .collect();
    handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect()
}

/// Full mode: the GW-1 sweep. ≥100k total requests, latency percentiles
/// per client count, one SSE subscription held throughout.
fn run_sweep(cell: &StartedCell, addr: SocketAddr) {
    let requests_per_client: usize = std::env::var("PILOT_GATEWAY_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8000);

    // One subscriber holds the stream for the whole sweep; its event count
    // lands in the trailer comment.
    let subscriber = HttpClient::connect(addr).expect("sse connect");
    let (status, mut stream) = subscriber
        .open_stream("GET", "/telemetry/stream")
        .expect("sse open");
    assert_eq!(status, 200);
    let sse = std::thread::spawn(move || {
        let mut frames = 0u64;
        while let Ok(Some(ev)) = stream.next_event(Duration::from_secs(5)) {
            if ev.event.as_deref() == Some("frame") {
                frames += 1;
            }
        }
        frames
    });

    println!("# gateway_load — GW-1: observability gateway under concurrent scrape+ingest");
    println!("# mix: 50% GET /metrics, 50% POST /produce, keep-alive, 1 SSE subscriber held");
    println!("clients,requests,elapsed_ms,reqs_per_s,p50_us,p99_us,max_us");
    let mut total_requests = 0u64;
    for &clients in CLIENT_SWEEP {
        let t0 = Instant::now();
        let mut lat = run_config(addr, clients, requests_per_client);
        let elapsed = t0.elapsed();
        lat.sort_unstable();
        let n = lat.len() as u64;
        total_requests += n;
        println!(
            "{clients},{n},{:.1},{:.0},{},{},{}",
            elapsed.as_secs_f64() * 1e3,
            n as f64 / elapsed.as_secs_f64(),
            percentile(&lat, 0.50),
            percentile(&lat, 0.99),
            lat.last().copied().unwrap_or(0),
        );
        eprintln!(
            "gateway_load: {clients} clients done ({n} requests in {:.1} ms)",
            elapsed.as_secs_f64() * 1e3
        );
    }
    // The gateway's own accounting should have seen every request (the SSE
    // subscription and the sweep's; never fewer than the sweep alone).
    let gw_requests = cell
        .pipeline
        .context()
        .metrics
        .gauge_value("gateway.requests")
        .unwrap_or(0);
    assert!(
        gw_requests >= total_requests as i64,
        "gateway counted {gw_requests} requests, sweep sent {total_requests}"
    );
    let sse_frames = {
        // Shutting the pipeline down ends the stream; the subscriber
        // thread then reports how many frames it saw live.
        cell.pipeline.abort();
        sse.join().expect("sse thread")
    };
    println!(
        "# total_requests={total_requests} gateway_counted={gw_requests} sse_frames={sse_frames}"
    );
    assert!(
        total_requests >= 100_000,
        "GW-1 requires >= 100k total requests, sent {total_requests}"
    );
}

/// Quick mode: the self-asserting endpoint smoke CI runs. Every endpoint
/// is exercised against a live cell and its payload validated; hostile
/// requests (malformed head, oversized body, empty record) must produce
/// clean errors without killing the worker that served them.
fn run_smoke(cell: &StartedCell, addr: SocketAddr) {
    let mut client = HttpClient::connect(addr).expect("connect");

    let metrics = client.get("/metrics").expect("/metrics");
    assert_eq!(metrics.status, 200);
    validate_prometheus(&metrics.text()).expect("/metrics is valid Prometheus text");

    let frames = client.get("/telemetry/frames").expect("/telemetry/frames");
    assert_eq!(frames.status, 200);
    validate_json(&frames.text()).expect("/telemetry/frames is valid JSON");

    // /top needs at least one sampled frame; poll briefly.
    let deadline = Instant::now() + Duration::from_secs(10);
    let top = loop {
        let r = client.get("/top").expect("/top");
        if r.status == 200 || Instant::now() > deadline {
            break r;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(top.status, 200, "body: {}", top.text());
    validate_json(&top.text()).expect("/top is valid JSON");
    assert!(top.text().contains("\"rows\""), "body: {}", top.text());

    let trace = client.get("/trace").expect("/trace");
    assert_eq!(trace.status, 200);
    validate_trace_json(&trace.text()).expect("/trace is a valid Chrome trace");

    // External tune: applied, bounds-checked, journalled with its cause.
    let tuned = client.post("/control/tune?fetch_max=8", b"").expect("tune");
    assert_eq!(tuned.status, 200, "body: {}", tuned.text());
    assert!(tuned.text().contains("set_fetch_max"));
    let rejected = client
        .post("/control/tune?fetch_max=100000", b"")
        .expect("tune out of bounds");
    assert_eq!(rejected.status, 400, "body: {}", rejected.text());
    let journal = client.get("/control/journal").expect("journal");
    assert_eq!(journal.status, 200);
    validate_json(&journal.text()).expect("/control/journal is valid JSON");
    assert!(
        journal.text().contains("\"external\""),
        "journal: {}",
        journal.text()
    );

    // Ingestion round-trip: the posted record must be fetchable.
    let produced = client
        .post(
            &format!("/produce?topic={INGEST_TOPIC}&partition=0"),
            b"smoke-payload",
        )
        .expect("produce");
    assert_eq!(produced.status, 200, "body: {}", produced.text());
    let records = cell
        .pipeline
        .broker()
        .fetch(INGEST_TOPIC, 0, 0, 16)
        .expect("fetch back");
    assert!(
        records.iter().any(|r| r.value.as_ref() == b"smoke-payload"),
        "posted record not found in {INGEST_TOPIC}"
    );
    let empty = client
        .post(&format!("/produce?topic={INGEST_TOPIC}&partition=0"), b"")
        .expect("empty produce");
    assert_eq!(empty.status, 400, "empty payload must be rejected");
    let bad_topic = client.post("/produce?topic=nope", b"x").expect("bad topic");
    assert_eq!(bad_topic.status, 404);

    // SSE: at least two frames, strictly monotonic timestamps.
    let (status, mut stream) = HttpClient::connect(addr)
        .expect("sse connect")
        .open_stream("GET", "/telemetry/stream")
        .expect("sse open");
    assert_eq!(status, 200);
    let mut last_t = 0u64;
    let mut seen = 0;
    let deadline = Instant::now() + Duration::from_secs(10);
    while seen < 2 && Instant::now() < deadline {
        match stream.next_event(Duration::from_secs(2)).expect("sse read") {
            Some(ev) if ev.event.as_deref() == Some("frame") => {
                let t = ev
                    .data
                    .split("\"t_us\":")
                    .nth(1)
                    .and_then(|s| s.split(',').next())
                    .and_then(|s| s.parse::<u64>().ok())
                    .expect("frame carries t_us");
                assert!(t > last_t, "frame timestamps must be monotonic");
                last_t = t;
                seen += 1;
            }
            Some(_) => {}
            None => {}
        }
    }
    assert!(seen >= 2, "expected >= 2 SSE frames, saw {seen}");

    // Hostile requests: clean errors, and the worker that served them
    // keeps serving.
    assert_eq!(client.get("/nope").expect("404 path").status, 404);
    let too_big = vec![b'x'; 300 * 1024];
    let huge = client
        .post(&format!("/produce?topic={INGEST_TOPIC}"), &too_big)
        .expect("oversized");
    assert_eq!(huge.status, 413);
    let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
    raw.write_all(b"NOT A REQUEST\r\n\r\n").expect("raw write");
    let mut reply = String::new();
    let _ = raw.read_to_string(&mut reply);
    assert!(reply.starts_with("HTTP/1.1 400"), "got: {reply:?}");
    drop(raw);
    let after = client.get("/metrics").expect("worker survived");
    assert_eq!(after.status, 200);

    println!("# gateway_load quick smoke: all endpoints OK");
}

fn main() {
    let quick = std::env::var("PILOT_BENCH_QUICK").is_ok();
    let cell = start_gateway_cell();
    let addr = cell.pipeline.gateway_addr().expect("gateway is on");
    eprintln!("gateway_load: gateway at http://{addr}/");
    if quick {
        run_smoke(&cell, addr);
    } else {
        run_sweep(&cell, addr);
    }
    drop(cell);
}
