//! Chaos tests: hostile and unlucky clients against a real listener.
//!
//! Each test starts its own [`HttpServer`] on an ephemeral port and attacks
//! it over actual TCP — trickled request heads, half-closed sockets,
//! mid-body disconnects, and an armed panic failpoint inside
//! `POST /simulate`. The invariant under test is always the same: one bad
//! connection (or one panicking request) costs at most one worker for one
//! bounded timeout, and the server keeps answering everyone else.

use dpipe_http::{HttpClient, HttpServer, Limits, ServerConfig};
use dpipe_serve::json::{parse, JsonValue};
use dpipe_serve::ServiceConfig;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn sd_spec_text() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/specs/sd_8gpu_b256.json"
    ))
    .expect("committed sd spec")
}

fn straggler_faults_text() -> String {
    std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/specs/faults_straggler.json"
    ))
    .expect("committed straggler fault spec")
}

fn simulate_body() -> String {
    format!(
        "{{\"spec\":{},\"faults\":{}}}",
        sd_spec_text(),
        straggler_faults_text()
    )
}

/// A server with a short read timeout and a deliberately small worker
/// pool, so a wedged worker would be observable fast.
fn small_server(
    conn_workers: usize,
    read_timeout: Duration,
    failpoint: Option<&str>,
) -> HttpServer {
    HttpServer::start(ServerConfig {
        conn_workers,
        limits: Limits {
            read_timeout,
            ..Limits::default()
        },
        failpoint: failpoint.map(str::to_owned),
        service: ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    })
    .expect("bind 127.0.0.1:0")
}

/// Reads whatever the server sends until it closes the connection.
fn read_to_close(stream: &mut TcpStream) -> String {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut buf = Vec::new();
    let _ = stream.read_to_end(&mut buf);
    String::from_utf8_lossy(&buf).into_owned()
}

#[test]
fn slow_loris_trickle_gets_408_and_frees_the_worker() {
    let server = small_server(1, Duration::from_millis(300), None);
    let addr = server.local_addr();
    // Trickle a request head one byte at a time, slower than the server's
    // patience. The worker must cut the connection with a well-formed 408
    // after the read timeout, not hang on the half-request forever.
    let mut loris = TcpStream::connect(addr).unwrap();
    for byte in b"GET /healthz HT" {
        loris.write_all(&[*byte]).unwrap();
        std::thread::sleep(Duration::from_millis(40));
    }
    let response = read_to_close(&mut loris);
    assert!(
        response.starts_with("HTTP/1.1 408"),
        "slow-loris must get 408, got: {response:?}"
    );
    // The single worker is free again: a well-behaved client is served.
    let mut client = HttpClient::connect(addr).unwrap();
    let health = client.request("GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
}

#[test]
fn half_closed_and_mid_body_disconnects_never_wedge_workers() {
    let server = small_server(2, Duration::from_millis(500), None);
    let addr = server.local_addr();
    // One connection per worker, each abandoned in a different nasty way:
    // a half-close (FIN with the request unfinished) and a full disconnect
    // mid-body with content-length promising more.
    let half_closed = TcpStream::connect(addr).unwrap();
    (&half_closed)
        .write_all(b"POST /plan HTTP/1.1\r\ncontent-length: 999\r\n\r\n{\"par")
        .unwrap();
    half_closed.shutdown(std::net::Shutdown::Write).unwrap();

    let mid_body = TcpStream::connect(addr).unwrap();
    (&mid_body)
        .write_all(b"POST /simulate HTTP/1.1\r\ncontent-length: 4096\r\n\r\n{\"spec\":")
        .unwrap();
    drop(mid_body);

    // Both workers must come back. A keep-alive connection pins a worker
    // for its whole lifetime, so two clients answered while both are held
    // open proves *both* workers were freed, not just one.
    std::thread::sleep(Duration::from_millis(700));
    let mut first = HttpClient::connect(addr).unwrap();
    let health = first.request("GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    let mut second = HttpClient::connect(addr).unwrap();
    let health = second.request("GET", "/healthz", b"").unwrap();
    assert_eq!(health.status, 200);
    drop(first);
    // The half-closed socket got either a 408 or a silent close — never a
    // wedged worker. (Which one depends on whether the FIN or the timeout
    // is observed first; both are clean outcomes.)
    drop(half_closed);
}

#[test]
fn simulate_failpoint_panic_is_a_contained_500_and_spares_the_cache() {
    let server = small_server(2, Duration::from_secs(5), Some("simulate-panic"));
    let addr = server.local_addr();
    let body = simulate_body();
    let mut client = HttpClient::connect(addr).unwrap();
    // Two panicking requests in a row: each is its own clean 500, the
    // connection survives (keep-alive), and no worker dies.
    for _ in 0..2 {
        let response = client
            .request("POST", "/simulate", body.as_bytes())
            .unwrap();
        assert_eq!(response.status, 500, "{}", response.text());
        assert!(
            response.text().contains("panicked"),
            "500 body should say the simulation panicked: {}",
            response.text()
        );
    }
    // The panic happened before any planning, so the cache saw nothing:
    // a follow-up /plan on the same spec is a clean cold-then-warm pair.
    let spec = sd_spec_text();
    let cold = client.request("POST", "/plan", spec.as_bytes()).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.text());
    let warm = client.request("POST", "/plan", spec.as_bytes()).unwrap();
    assert_eq!(warm.status, 200, "{}", warm.text());
    let doc = parse(&warm.text()).expect("plan response is JSON");
    assert_eq!(
        doc.get("timing")
            .and_then(|t| t.get("cache"))
            .and_then(JsonValue::as_str),
        Some("hit"),
        "second plan must be a cache hit: {}",
        warm.text()
    );
    // And the panics were counted as server errors, not shed or 4xx.
    let metrics = client.request("GET", "/metrics", b"").unwrap();
    let mdoc = parse(&metrics.text()).expect("metrics is JSON");
    assert_eq!(
        mdoc.get("responses_500").and_then(JsonValue::as_u64),
        Some(2),
        "{}",
        metrics.text()
    );
}

/// Lock witness under fire: concurrent plan/simulate/metrics load plus
/// a server torn down mid-flight, with every production lock
/// acquisition registered with [`dpipe_sync::witness`] (debug builds).
/// No thread may take a tagged lock while holding one. The witness
/// panics at the nested acquisition, and the server answers that
/// panic with a 500, so the count it keeps is asserted here as well:
/// zero across the whole suite.
#[test]
fn concurrent_load_and_shutdown_observe_no_lock_inversions() {
    // Phase 1: strict concurrent load, every response checked.
    let server = small_server(4, Duration::from_secs(5), None);
    let addr = server.local_addr();
    let plan_body = sd_spec_text();
    let sim_body = simulate_body();
    let mut clients = Vec::new();
    for t in 0..4usize {
        let plan = plan_body.clone();
        let sim = sim_body.clone();
        clients.push(std::thread::spawn(move || {
            let mut client = HttpClient::connect(addr).unwrap();
            for i in 0..6usize {
                let (method, path, body) = match (t + i) % 4 {
                    0 => ("POST", "/plan", plan.as_bytes()),
                    1 => ("POST", "/simulate", sim.as_bytes()),
                    2 => ("GET", "/metrics", &b""[..]),
                    _ => ("GET", "/healthz", &b""[..]),
                };
                let response = client.request(method, path, body).unwrap();
                assert_eq!(response.status, 200, "{method} {path}: {}", response.text());
            }
        }));
    }
    for c in clients {
        c.join().unwrap();
    }
    drop(server);

    // Phase 2: shutdown races live traffic. Requests may fail (the
    // server is going away) but every lock taken on the way down is
    // still witnessed.
    let server = small_server(2, Duration::from_secs(5), None);
    let addr = server.local_addr();
    let mut stragglers = Vec::new();
    for _ in 0..2 {
        let plan = plan_body.clone();
        stragglers.push(std::thread::spawn(move || {
            while let Ok(mut client) = HttpClient::connect(addr) {
                if client.request("POST", "/plan", plan.as_bytes()).is_err() {
                    break;
                }
            }
        }));
    }
    std::thread::sleep(Duration::from_millis(100));
    drop(server);
    for s in stragglers {
        s.join().unwrap();
    }

    assert_eq!(
        dpipe_sync::witness::inversions(),
        0,
        "nested tagged acquisitions observed"
    );
    // In debug builds the witness is armed and must have actually seen
    // the serving stack's locks — the check above is vacuous otherwise.
    if cfg!(debug_assertions) {
        let nodes = dpipe_sync::witness::observed_nodes();
        for expected in ["sync::Bounded::state", "serve::Shard::map"] {
            assert!(
                nodes.contains(&expected),
                "witness never saw `{expected}`; observed: {nodes:?}"
            );
        }
    }
}

#[test]
fn bad_fault_spec_is_422_not_500() {
    let server = small_server(2, Duration::from_secs(5), None);
    let mut client = HttpClient::connect(server.local_addr()).unwrap();
    // Device 999 does not exist on an 8-GPU cluster: a deterministic
    // verdict about the request, so 422 — a 500 would misfile client error
    // as server fault (and poison alerting).
    let body = format!(
        "{{\"spec\":{},\"faults\":{{\"schema_version\":1,\"seed\":1,\
         \"stragglers\":[{{\"device\":999,\"scale\":2.0}}],\"links\":[],\"node_drops\":[]}}}}",
        sd_spec_text()
    );
    let response = client
        .request("POST", "/simulate", body.as_bytes())
        .unwrap();
    assert_eq!(response.status, 422, "{}", response.text());
    assert!(response.text().contains("999"), "{}", response.text());
    // Malformed fault-spec *shape* is 400 (the request never parsed).
    let malformed = format!("{{\"spec\":{},\"faults\":{{\"nope\":1}}}}", sd_spec_text());
    let response = client
        .request("POST", "/simulate", malformed.as_bytes())
        .unwrap();
    assert_eq!(response.status, 400, "{}", response.text());
}
