//! Integration tests against a real listener on an ephemeral port: every
//! test starts its own [`HttpServer`] on `127.0.0.1:0` and talks to it over
//! actual TCP with the minimal [`HttpClient`].

use diffusionpipe_core::Planner;
use dpipe_http::{HttpClient, HttpServer, Limits, ServerConfig};
use dpipe_serve::json::{parse, plan_response_doc, JsonValue};
use dpipe_serve::{PlanRequest, ServiceConfig};
use dpipe_spec::PlanSpec;
use std::sync::Arc;
use std::time::Duration;

fn start(config: ServerConfig) -> HttpServer {
    HttpServer::start(config).expect("bind 127.0.0.1:0")
}

fn default_server() -> HttpServer {
    start(ServerConfig::default())
}

/// The smallest committed spec, used wherever the test needs *a* valid
/// spec rather than all of them.
fn sd_spec_text() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/specs/sd_8gpu_b256.json"
    ))
    .expect("committed sd spec")
}

/// The committed example PlanSpec documents (sweep_mixed.json is a
/// SweepSpec and exercised via `POST /sweep`; faults_*.json are FaultSpec
/// documents for `POST /simulate`).
fn committed_plan_specs() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/specs");
    let mut specs: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("examples/specs exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .filter(|p| {
            !p.file_name().is_some_and(|n| {
                let name = n.to_string_lossy();
                name.starts_with("sweep") || name.starts_with("faults")
            })
        })
        .map(|p| {
            (
                p.file_name().unwrap().to_string_lossy().into_owned(),
                std::fs::read_to_string(&p).expect("readable spec"),
            )
        })
        .collect();
    specs.sort();
    assert!(
        specs.len() >= 4,
        "expected the committed example specs, found {specs:?}"
    );
    specs
}

#[test]
fn healthz_answers() {
    let server = default_server();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let response = client.request("GET", "/healthz", b"").unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.text(), "{\"status\":\"ok\"}\n");
}

/// Removes the server-only trailing `timing` field from a `POST /plan`
/// response body, leaving the exact CLI document.
fn strip_timing(body: &str) -> String {
    match body.rfind(",\"timing\":") {
        Some(idx) => format!("{}}}\n", &body[..idx]),
        None => body.to_owned(),
    }
}

#[test]
fn plan_responses_are_byte_identical_to_the_cli_document() {
    let server = default_server();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    for (name, text) in committed_plan_specs() {
        let spec = PlanSpec::from_json(&text).expect("committed spec parses");
        let request = PlanRequest::from_spec(spec.clone()).expect("spec resolves");
        let plan = Planner::plan_spec(&spec).expect("committed spec plans");
        // `dpipe plan --json --spec` prints this document plus a newline;
        // the HTTP response appends one server-only `timing` field.
        let expected = format!("{}\n", plan_response_doc(&spec, &request, &plan));
        let response = client.request("POST", "/plan", text.as_bytes()).unwrap();
        assert_eq!(response.status, 200, "{name}: {}", response.text());
        let body = response.text();
        assert_eq!(
            strip_timing(&body),
            expected,
            "{name} body differs from CLI"
        );

        // The timing breakdown is present and self-consistent.
        let doc = parse(&body).expect("response is JSON");
        let timing = doc.get("timing").expect("timing field");
        assert_eq!(
            timing.get("cache").and_then(JsonValue::as_str),
            Some("miss"),
            "{name}: first plan of a spec must be a cache miss"
        );
        assert!(timing
            .get("plan_ms")
            .and_then(JsonValue::as_f64)
            .is_some_and(|ms| ms >= 0.0));
        assert!(timing
            .get("queue_ms")
            .and_then(JsonValue::as_f64)
            .is_some_and(|ms| ms >= 0.0));
    }
}

#[test]
fn sweep_endpoint_runs_the_committed_sweep_spec() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/specs/sweep_mixed.json"
    ))
    .expect("committed sweep spec");
    let server = default_server();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let response = client.request("POST", "/sweep", text.as_bytes()).unwrap();
    assert_eq!(response.status, 200, "{}", response.text());
    let doc = parse(&response.text()).expect("sweep response is JSON");
    let ranking = doc.get("ranking").and_then(JsonValue::as_array);
    assert!(
        ranking.is_some_and(|r| !r.is_empty()),
        "no ranked points in {}",
        response.text()
    );
}

#[test]
fn malformed_json_gets_400_with_position() {
    let server = default_server();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let response = client
        .request("POST", "/plan", b"{\"version\": 1,\n  nope}")
        .unwrap();
    assert_eq!(response.status, 400);
    let text = response.text();
    assert!(
        text.contains("line 2"),
        "error should carry the position: {text}"
    );
    // The connection survives a client error (keep-alive).
    let again = client.request("GET", "/healthz", b"").unwrap();
    assert_eq!(again.status, 200);
}

#[test]
fn unknown_model_is_a_client_error() {
    let server = default_server();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let body = sd_spec_text().replace("\"sd\"", "\"no-such-model\"");
    let response = client.request("POST", "/plan", body.as_bytes()).unwrap();
    // Spec-resolution errors are the client's fault: 400, not a 5xx.
    assert_eq!(response.status, 400, "{}", response.text());
    assert!(
        response.text().contains("no-such-model"),
        "{}",
        response.text()
    );
}

#[test]
fn oversized_body_gets_413_before_planning() {
    let server = start(ServerConfig {
        limits: Limits {
            max_body_bytes: 1024,
            ..Limits::default()
        },
        ..ServerConfig::default()
    });
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let big = vec![b'x'; 4096];
    let response = client.request("POST", "/plan", &big).unwrap();
    assert_eq!(response.status, 413);
    assert!(response.text().contains("1024"), "{}", response.text());
}

#[test]
fn full_plan_backlog_sheds_503_then_recovers() {
    let server = start(ServerConfig {
        max_in_flight_plans: 1,
        service: ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    });
    // Pre-load the single planning worker with a deep backlog of distinct
    // cold requests, so the queue depth stays above the in-flight cap for
    // far longer than one local HTTP round trip.
    let backlog: Vec<PlanRequest> = (0..48u32)
        .map(|i| {
            PlanRequest::new(
                dpipe_model::zoo::stable_diffusion_v2_1(),
                dpipe_cluster::ClusterSpec::single_node(8),
                64 + 8 * i,
            )
        })
        .collect();
    let spec_text = sd_spec_text();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let service = server.service();
    std::thread::scope(|scope| {
        let planning = scope.spawn(move || service.plan_batch(backlog));
        while service.queue_depth() == 0 && !planning.is_finished() {
            std::thread::yield_now();
        }
        let shed = client
            .request("POST", "/plan", spec_text.as_bytes())
            .unwrap();
        assert_eq!(shed.status, 503, "{}", shed.text());
        assert!(shed.text().contains("retry"), "{}", shed.text());
        // Drain the backlog; the same request must then succeed.
        assert_eq!(planning.join().unwrap().len(), 48);
    });
    let ok = client
        .request("POST", "/plan", spec_text.as_bytes())
        .unwrap();
    assert_eq!(ok.status, 200, "{}", ok.text());
}

#[test]
fn full_connection_queue_sheds_503_without_dropping() {
    let server = start(ServerConfig {
        conn_workers: 1,
        queue_capacity: 1,
        limits: Limits {
            read_timeout: Duration::from_secs(5),
            ..Limits::default()
        },
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    // Occupy the single worker: a connection with a half-sent request head
    // parks it in `read_request` until the read timeout.
    let parked = std::net::TcpStream::connect(addr).unwrap();
    std::io::Write::write_all(&mut (&parked), b"GET /healthz HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(150));
    // Fill the one queue slot with a second (idle) connection.
    let _queued = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // The third connection must get a well-formed 503, not a hang or a
    // silent close.
    let mut client = HttpClient::connect(addr).unwrap();
    let response = client.request("GET", "/healthz", b"").unwrap();
    assert_eq!(response.status, 503);
    assert!(
        response.text().contains("queue full"),
        "{}",
        response.text()
    );
}

#[test]
fn concurrent_identical_specs_plan_once() {
    let server = Arc::new(default_server());
    let spec_text = Arc::new(sd_spec_text());
    let clients: u64 = 8;
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let server = Arc::clone(&server);
            let spec_text = Arc::clone(&spec_text);
            std::thread::spawn(move || {
                let mut client = HttpClient::connect(server.local_addr()).unwrap();
                client
                    .request("POST", "/plan", spec_text.as_bytes())
                    .unwrap()
            })
        })
        .collect();
    // The `timing` field legitimately differs per request (latency, cache
    // status); everything else must be byte-identical across all clients.
    let mut bodies: Vec<String> = handles
        .into_iter()
        .map(|h| {
            let response = h.join().expect("client thread");
            assert_eq!(response.status, 200, "{}", response.text());
            strip_timing(&response.text())
        })
        .collect();
    bodies.dedup();
    assert_eq!(
        bodies.len(),
        1,
        "hits must be byte-identical to the cold plan"
    );

    // The cache planned the spec exactly once: /metrics shows one miss and
    // clients-1 single-flight/warm hits.
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let metrics = client.request("GET", "/metrics", b"").unwrap();
    assert_eq!(metrics.status, 200);
    let doc = parse(&metrics.text()).expect("metrics is JSON");
    let cache = doc.get("cache").expect("cache section");
    assert_eq!(cache.get("misses").and_then(JsonValue::as_u64), Some(1));
    assert_eq!(
        cache.get("hits").and_then(JsonValue::as_u64),
        Some(clients - 1)
    );
    assert_eq!(
        doc.get("plans_total").and_then(JsonValue::as_u64),
        Some(clients)
    );
}

#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let mut server = default_server();
    let addr = server.local_addr();
    let spec_text = sd_spec_text();
    let in_flight = std::thread::spawn(move || {
        let mut client = HttpClient::connect(addr).unwrap();
        client
            .request("POST", "/plan", spec_text.as_bytes())
            .unwrap()
    });
    // Let the request reach a worker, then drain while it is in flight.
    std::thread::sleep(Duration::from_millis(30));
    server.shutdown();
    let response = in_flight.join().expect("client thread");
    assert_eq!(
        response.status,
        200,
        "in-flight request must be answered, not dropped: {}",
        response.text()
    );
    // After the drain the listener is gone.
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err()
            || HttpClient::connect(addr)
                .and_then(|mut c| c.request("GET", "/healthz", b""))
                .is_err(),
        "listener should be closed after shutdown"
    );
}

#[test]
fn shutdown_endpoint_drains_the_foreground_loop() {
    let server = default_server();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let response = client.request("POST", "/shutdown", b"").unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.text(), "{\"status\":\"draining\"}\n");
    assert!(server.shutdown_requested());
    // `run_until_shutdown` consumes the server and joins everything; it
    // must return promptly once the flag is set.
    let start = std::time::Instant::now();
    server.run_until_shutdown();
    assert!(start.elapsed() < Duration::from_secs(5));
}

#[test]
fn metrics_prometheus_format_renders_text_exposition() {
    let server = default_server();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    // One plan so the latency histogram has an observation.
    let planned = client
        .request("POST", "/plan", sd_spec_text().as_bytes())
        .unwrap();
    assert_eq!(planned.status, 200, "{}", planned.text());
    let response = client
        .request("GET", "/metrics?format=prometheus", b"")
        .unwrap();
    assert_eq!(response.status, 200);
    let text = response.text();
    assert!(text.ends_with('\n'));
    for needle in [
        "# TYPE dpipe_requests_total counter",
        "# TYPE dpipe_plan_latency_seconds histogram",
        "dpipe_plans_total 1",
        "dpipe_plan_latency_seconds_bucket{le=\"+Inf\"} 1",
        "dpipe_plan_latency_seconds_count 1",
    ] {
        assert!(
            needle.lines().all(|l| text.contains(l)),
            "missing {needle} in:\n{text}"
        );
    }
    // The JSON document is still the default.
    let json = client.request("GET", "/metrics", b"").unwrap();
    assert!(parse(&json.text()).is_ok(), "{}", json.text());
}

#[test]
fn trace_dir_writes_chrome_trace_files_per_request() {
    let dir = std::env::temp_dir().join(format!("dpipe-http-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let server = start(ServerConfig {
        trace_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let planned = client
        .request("POST", "/plan", sd_spec_text().as_bytes())
        .unwrap();
    assert_eq!(planned.status, 200, "{}", planned.text());
    // The trace file is written by the connection worker after the /plan
    // response but before it reads the next keep-alive request, so a second
    // round trip on the same connection is a deterministic barrier. The
    // /plan request is the sink's first record, so its file name is known;
    // the /healthz trace may not exist yet.
    let health = client.request("GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);

    let plan_trace = dir.join("request-000000-200.json");
    let text = std::fs::read_to_string(&plan_trace)
        .unwrap_or_else(|e| panic!("no /plan trace at {}: {e}", plan_trace.display()));
    let doc = parse(&text).expect("trace file is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
        .collect();
    // The whole request lifecycle is on the timeline: HTTP accept through
    // the planner's partition DP.
    for expected in [
        "request",
        "queue_wait",
        "read_request",
        "handle",
        "parse_spec",
        "plan_service",
        "plan_execute",
        "plan",
        "partition",
        "write_response",
    ] {
        assert!(
            names.contains(&expected),
            "span {expected} missing from {names:?}"
        );
    }
    // Close the keep-alive connection first: drain would otherwise wait
    // out the server's read timeout on it.
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_sampling_skips_unselected_requests() {
    let dir = std::env::temp_dir().join(format!("dpipe-http-sample-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let server = start(ServerConfig {
        trace_dir: Some(dir.clone()),
        trace_sample: 1000,
        ..ServerConfig::default()
    });
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    for _ in 0..3 {
        let response = client.request("GET", "/healthz", b"").unwrap();
        assert_eq!(response.status, 200);
    }
    // Barrier as above: one more round trip so prior records completed.
    let _ = client.request("GET", "/healthz", b"").unwrap();
    // Request 0 is sampled (0 % 1000 == 0); the rest are skipped.
    let files = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(files, 1, "sample=1000 must keep only the first request");
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_route_and_method_are_clean_errors() {
    let server = default_server();
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    let missing = client.request("GET", "/nope", b"").unwrap();
    assert_eq!(missing.status, 404);
    let bad_method = client.request("DELETE", "/plan", b"").unwrap();
    assert_eq!(bad_method.status, 405);
}
