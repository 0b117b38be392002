//! The networked planning frontend: a `TcpListener` acceptor, a bounded
//! connection queue, a pool of connection workers, and the route handlers
//! that bridge HTTP to the in-process [`PlanService`].
//!
//! Robustness properties, all enforced here rather than hoped for:
//!
//! * **Admission control.** Accepted connections go through a bounded
//!   queue; when it is full the acceptor answers `503` itself and closes —
//!   load is *shed*, never silently dropped. A second bound
//!   ([`ServerConfig::max_in_flight_plans`]) sheds `POST /plan` requests
//!   once the planning backlog is deep enough that waiting would be worse
//!   than retrying.
//! * **Bounded reads.** Header size, body size and socket read time are all
//!   capped ([`Limits`]); the worst a slow or hostile client can pin is one
//!   worker for one timeout.
//! * **Per-client rate limiting.** A token bucket per peer IP answers `429`
//!   past the configured rate.
//! * **Graceful shutdown.** [`HttpServer::shutdown`] (or `POST /shutdown`)
//!   stops accepting, drains every queued connection and in-flight plan,
//!   then joins all threads — no request that got a TCP accept is ever
//!   abandoned mid-flight.

use crate::http1::{write_oneshot, HttpConn, HttpError, Limits, Request};
use crate::metrics::Metrics;
use crate::ratelimit::RateLimiter;
use diffusionpipe_core::{FaultSpec, PlanError};
use dpipe_serve::json::{parse, plan_response_doc, simulate_response_doc, JsonValue};
use dpipe_serve::{panic_message, PlanRequest, PlanService, ServiceConfig, TraceCtx};
use dpipe_spec::{PlanSpec, SweepSpec};
use dpipe_sync::{Bounded, PushError};
use dpipe_trace::{SpanId, Tracer};
use std::net::{IpAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything `dpipe serve --listen` can tune.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (`:0` picks an ephemeral port).
    pub addr: String,
    /// Connection-handler threads (each owns one connection at a time).
    pub conn_workers: usize,
    /// Accepted connections waiting for a handler before the acceptor
    /// starts shedding with 503.
    pub queue_capacity: usize,
    /// Plan jobs (queued + planning) before `POST /plan` sheds with 503.
    pub max_in_flight_plans: usize,
    /// Wire-read limits (head/body size, read timeout).
    pub limits: Limits,
    /// Sustained per-client requests/second (0 disables rate limiting).
    pub rate_per_s: f64,
    /// Per-client burst allowance on top of the sustained rate.
    pub rate_burst: f64,
    /// Directory for per-request Chrome trace-event files (`None`, the
    /// default, disables request tracing entirely).
    pub trace_dir: Option<PathBuf>,
    /// With `trace_dir` set, write every Nth request's trace (1 = all).
    pub trace_sample: u64,
    /// Chaos-testing hook: a named fault armed inside a route handler
    /// (`"simulate-panic"` panics in `POST /simulate`). `None` (the
    /// default, and the only production setting) disables every failpoint;
    /// the chaos tests use this to prove panics are contained as 500s
    /// without poisoning workers or the plan cache.
    pub failpoint: Option<String>,
    /// The planning worker pool + cache this server fronts.
    pub service: ServiceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            conn_workers: (2 * cores).clamp(8, 64),
            queue_capacity: 128,
            max_in_flight_plans: 256,
            limits: Limits::default(),
            rate_per_s: 0.0,
            rate_burst: 0.0,
            trace_dir: None,
            trace_sample: 1,
            failpoint: None,
            service: ServiceConfig::default(),
        }
    }
}

/// What a route handler produced: a status, a body (already
/// newline-terminated where the CLI equivalent prints one), its content
/// type, and — for the plan route — how the cache resolved it (surfaced
/// as a span attribute on the request trace).
struct Reply {
    status: u16,
    body: String,
    content_type: &'static str,
    cache: Option<&'static str>,
}

impl Reply {
    fn json_error(status: u16, message: &str) -> Reply {
        let body = JsonValue::Object(vec![(
            "error".to_owned(),
            JsonValue::Str(message.to_owned()),
        )]);
        Reply {
            status,
            body: format!("{body}\n"),
            content_type: "application/json",
            cache: None,
        }
    }

    fn ok(body: String) -> Reply {
        Reply {
            status: 200,
            body,
            content_type: "application/json",
            cache: None,
        }
    }

    fn text(body: String, content_type: &'static str) -> Reply {
        Reply {
            status: 200,
            body,
            content_type,
            cache: None,
        }
    }
}

/// Per-request trace context threaded from the connection loop into the
/// route handlers: the request's tracer (disabled unless the server has a
/// trace sink), the handler span to parent under, and how long the
/// connection waited in the accept queue (first request only).
struct RequestTrace<'a> {
    tracer: &'a Tracer,
    parent: Option<SpanId>,
    queue_wait: Option<Duration>,
}

impl RequestTrace<'_> {
    fn ctx(&self) -> Option<TraceCtx> {
        self.tracer.is_enabled().then(|| TraceCtx {
            tracer: self.tracer.clone(),
            parent: self.parent,
        })
    }
}

/// Where sampled request traces are written (`--trace-dir`).
struct TraceSink {
    dir: PathBuf,
    /// Write every Nth request's trace (1 = all).
    sample: u64,
    seq: AtomicU64,
}

impl TraceSink {
    /// Persists one finished request trace if the sampling counter selects
    /// it; the tracer is drained either way so keep-alive connections do
    /// not accumulate spans across requests.
    fn record(&self, tracer: &Tracer, status: u16) {
        let trace = tracer.take();
        if trace.is_empty() {
            return;
        }
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(self.sample.max(1)) {
            return;
        }
        let path = self.dir.join(format!("request-{n:06}-{status}.json"));
        // Tracing is best-effort observability: a full disk or a removed
        // directory must not fail the request that was being traced.
        let _ = std::fs::write(path, trace.to_chrome_json());
    }
}

/// Shared state every connection worker routes against.
struct Router {
    service: PlanService,
    metrics: Metrics,
    limiter: RateLimiter,
    max_in_flight_plans: usize,
    shutdown: AtomicBool,
    trace_sink: Option<TraceSink>,
    failpoint: Option<String>,
}

impl Router {
    fn handle(&self, request: &Request, peer: Option<IpAddr>, trace: &RequestTrace<'_>) -> Reply {
        // The path may carry a query string (`/metrics?format=prometheus`);
        // routing matches on the path alone.
        let (path, query) = request
            .path
            .split_once('?')
            .unwrap_or((request.path.as_str(), ""));
        match (request.method.as_str(), path) {
            ("GET", "/healthz") => Reply::ok("{\"status\":\"ok\"}\n".to_owned()),
            ("GET", "/metrics") => {
                let cache = self.service.cache_stats();
                let depth = self.service.queue_depth();
                if query.split('&').any(|kv| kv == "format=prometheus") {
                    Reply::text(
                        self.metrics.to_prometheus(&cache, depth),
                        "text/plain; version=0.0.4",
                    )
                } else {
                    let doc = self.metrics.to_json(&cache, depth);
                    Reply::ok(format!("{doc}\n"))
                }
            }
            ("POST", "/plan") => self.handle_plan(&request.body, peer, trace),
            ("POST", "/simulate") => self.handle_simulate(&request.body, peer, trace),
            ("POST", "/sweep") => self.handle_sweep(&request.body, peer),
            ("POST", "/shutdown") => {
                self.shutdown.store(true, Ordering::SeqCst);
                Reply::ok("{\"status\":\"draining\"}\n".to_owned())
            }
            ("GET" | "POST", _) => {
                Reply::json_error(404, &format!("no such endpoint: {}", request.path))
            }
            (method, _) => Reply::json_error(405, &format!("method {method} not supported")),
        }
    }

    /// Shared entry checks for the planning endpoints: per-client rate
    /// limit, then backlog admission. `None` means "go ahead".
    fn admit(&self, peer: Option<IpAddr>) -> Option<Reply> {
        if let Some(ip) = peer {
            if !self.limiter.allow(ip) {
                return Some(Reply::json_error(429, "client request rate exceeded"));
            }
        }
        let depth = self.service.queue_depth();
        if depth >= self.max_in_flight_plans {
            return Some(Reply::json_error(
                503,
                &format!("planning backlog full ({depth} in flight); retry later"),
            ));
        }
        None
    }

    fn handle_plan(&self, body: &[u8], peer: Option<IpAddr>, trace: &RequestTrace<'_>) -> Reply {
        if let Some(reply) = self.admit(peer) {
            return reply;
        }
        let mut parse_span = trace.tracer.child_span("parse_spec", trace.parent);
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => return Reply::json_error(400, "request body is not UTF-8"),
        };
        let spec = match PlanSpec::from_json(text) {
            Ok(s) => s,
            Err(e) => return Reply::json_error(400, &e.to_string()),
        };
        let request = match PlanRequest::from_spec(spec.clone()) {
            Ok(r) => r,
            Err(e) => return Reply::json_error(400, &e.to_string()),
        };
        parse_span.set("bytes", body.len() as u64);
        parse_span.finish();
        let started = Instant::now();
        let response = self
            .service
            .plan_one_traced(request.clone(), 1, trace.ctx());
        let plan_ms = started.elapsed().as_secs_f64() * 1e3;
        let cache = if response.cache_hit { "hit" } else { "miss" };
        let mut reply = match response.outcome {
            Ok(plan) => {
                // The exact `dpipe plan --json --spec` stdout, built by the
                // same function (`plan_response_doc`), plus a server-only
                // trailing `timing` field, newline included.
                let mut doc = plan_response_doc(&spec, &request, &plan);
                if let JsonValue::Object(fields) = &mut doc {
                    let queue_ms = trace.queue_wait.map_or(0.0, |w| w.as_secs_f64() * 1e3);
                    fields.push((
                        "timing".to_owned(),
                        JsonValue::Object(vec![
                            ("queue_ms".to_owned(), JsonValue::Num(queue_ms)),
                            ("plan_ms".to_owned(), JsonValue::Num(plan_ms)),
                            ("cache".to_owned(), JsonValue::Str(cache.to_owned())),
                        ]),
                    ));
                }
                self.metrics
                    .plans_total
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Reply::ok(format!("{doc}\n"))
            }
            Err(e @ PlanError::Internal(_)) => Reply::json_error(500, &e.to_string()),
            Err(e) => Reply::json_error(422, &e.to_string()),
        };
        reply.cache = Some(cache);
        self.metrics
            .plan_latency
            .record_us(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        reply
    }

    /// `POST /simulate`: a `{"spec": PlanSpec, "faults": FaultSpec}` body
    /// plans the spec through the cache, replays it under the fault spec,
    /// and answers with the exact `dpipe simulate --json` document. A
    /// degraded re-plan (node drops) routes back through the plan cache.
    /// Error discipline matches `/plan`: malformed input is 400, a
    /// deterministic verdict about the request is 422, and only genuine
    /// internal failures (including a contained panic) are 500.
    fn handle_simulate(
        &self,
        body: &[u8],
        peer: Option<IpAddr>,
        trace: &RequestTrace<'_>,
    ) -> Reply {
        if let Some(reply) = self.admit(peer) {
            return reply;
        }
        let mut parse_span = trace.tracer.child_span("parse_simulate", trace.parent);
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => return Reply::json_error(400, "request body is not UTF-8"),
        };
        let doc = match parse(text) {
            Ok(d) => d,
            Err(e) => return Reply::json_error(400, &e.to_string()),
        };
        let Some(spec_value) = doc.get("spec") else {
            return Reply::json_error(
                400,
                "missing `spec` field (expected {\"spec\": <PlanSpec>, \"faults\": <FaultSpec>})",
            );
        };
        let spec = match PlanSpec::from_json_value(spec_value) {
            Ok(s) => s,
            Err(e) => return Reply::json_error(400, &e.to_string()),
        };
        let faults = match doc.get("faults") {
            None | Some(JsonValue::Null) => FaultSpec::none(),
            Some(v) => match FaultSpec::from_json_value(v) {
                Ok(f) => f,
                Err(e) => return Reply::json_error(400, &e.to_string()),
            },
        };
        let request = match PlanRequest::from_spec(spec.clone()) {
            Ok(r) => r,
            Err(e) => return Reply::json_error(400, &e.to_string()),
        };
        parse_span.set("bytes", body.len() as u64);
        parse_span.finish();
        let started = Instant::now();
        // The replay is contained like the planning workers contain the
        // planner: a panic inside (or the armed chaos failpoint) becomes a
        // clean 500 on this request alone — the worker survives, and
        // nothing about the panicking request enters the plan cache.
        let armed = self.failpoint.as_deref() == Some("simulate-panic");
        let response = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            #[expect(
                clippy::panic,
                reason = "the chaos failpoint exists to panic; catch_unwind right here contains it"
            )]
            if armed {
                panic!("failpoint simulate-panic armed");
            }
            self.service
                .simulate_traced(&request, &faults, 1, trace.ctx())
        })) {
            Ok(r) => r,
            Err(payload) => {
                return Reply::json_error(
                    500,
                    &format!("simulation panicked: {}", panic_message(payload.as_ref())),
                )
            }
        };
        let sim_ms = started.elapsed().as_secs_f64() * 1e3;
        let cache = if response.cache_hit { "hit" } else { "miss" };
        let mut reply = match response.outcome {
            Ok(outcome) => {
                // The exact `dpipe simulate --json` stdout, built by the
                // same function (`simulate_response_doc`), plus a
                // server-only trailing `timing` field.
                let mut doc = simulate_response_doc(&spec, &request, &faults, &outcome);
                if let JsonValue::Object(fields) = &mut doc {
                    let queue_ms = trace.queue_wait.map_or(0.0, |w| w.as_secs_f64() * 1e3);
                    fields.push((
                        "timing".to_owned(),
                        JsonValue::Object(vec![
                            ("queue_ms".to_owned(), JsonValue::Num(queue_ms)),
                            ("simulate_ms".to_owned(), JsonValue::Num(sim_ms)),
                            ("cache".to_owned(), JsonValue::Str(cache.to_owned())),
                        ]),
                    ));
                }
                self.metrics
                    .simulations_total
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Reply::ok(format!("{doc}\n"))
            }
            Err(e @ PlanError::Internal(_)) => Reply::json_error(500, &e.to_string()),
            Err(e) => Reply::json_error(422, &e.to_string()),
        };
        reply.cache = Some(cache);
        reply
    }

    fn handle_sweep(&self, body: &[u8], peer: Option<IpAddr>) -> Reply {
        if let Some(reply) = self.admit(peer) {
            return reply;
        }
        let text = match std::str::from_utf8(body) {
            Ok(t) => t,
            Err(_) => return Reply::json_error(400, "request body is not UTF-8"),
        };
        let sweep = match SweepSpec::from_json(text) {
            Ok(s) => s,
            Err(e) => return Reply::json_error(400, &e.to_string()),
        };
        if sweep.is_empty() {
            return Reply::json_error(422, "empty sweep grid");
        }
        match self.service.sweep(&sweep) {
            Ok(report) => {
                self.metrics
                    .sweeps_total
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                // The exact `dpipe sweep --json --spec` stdout.
                Reply::ok(format!("{}\n", report.to_json()))
            }
            Err(e) => Reply::json_error(400, &e.to_string()),
        }
    }
}

/// An accepted connection waiting for a handler, stamped at accept time
/// so the request trace can account for queue wait.
struct Accepted {
    stream: TcpStream,
    accepted_at: Instant,
}

/// A running HTTP frontend. Dropping it performs a graceful shutdown.
pub struct HttpServer {
    addr: std::net::SocketAddr,
    router: Arc<Router>,
    queue: Arc<Bounded<Accepted>>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `config.addr` and starts the acceptor + worker threads.
    ///
    /// # Errors
    ///
    /// Whatever [`TcpListener::bind`] reports (address in use, permission).
    pub fn start(config: ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let router = Arc::new(Router {
            service: PlanService::new(config.service),
            metrics: Metrics::new(),
            limiter: RateLimiter::new(config.rate_per_s, config.rate_burst),
            max_in_flight_plans: config.max_in_flight_plans.max(1),
            shutdown: AtomicBool::new(false),
            trace_sink: config.trace_dir.map(|dir| TraceSink {
                dir,
                sample: config.trace_sample.max(1),
                seq: AtomicU64::new(0),
            }),
            failpoint: config.failpoint,
        });
        let queue: Arc<Bounded<Accepted>> = Arc::new(Bounded::new(config.queue_capacity));

        let acceptor = {
            let router = Arc::clone(&router);
            let queue = Arc::clone(&queue);
            std::thread::Builder::new()
                .name("dpipe-http-accept".to_owned())
                .spawn(move || {
                    loop {
                        if router.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                let _ = stream.set_nonblocking(false);
                                let _ = stream.set_nodelay(true);
                                let accepted = Accepted {
                                    stream,
                                    accepted_at: Instant::now(),
                                };
                                match queue.try_push(accepted) {
                                    Ok(()) => {}
                                    Err((Accepted { mut stream, .. }, why)) => {
                                        // Shed, never drop: the client gets a
                                        // well-formed 503 before the close.
                                        let body = match why {
                                            PushError::Full => {
                                                b"{\"error\":\"connection queue full; retry later\"}\n".to_vec()
                                            }
                                            PushError::Closed => {
                                                b"{\"error\":\"server is draining\"}\n".to_vec()
                                            }
                                        };
                                        write_oneshot(&mut stream, 503, &body);
                                        router.metrics.count_status(503);
                                    }
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(2)),
                        }
                    }
                    // Stop feeding workers; queued connections still drain.
                    queue.close();
                })
?
        };

        let limits = config.limits;
        let workers = (0..config.conn_workers.max(1))
            .map(|i| {
                let router = Arc::clone(&router);
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("dpipe-http-{i}"))
                    .spawn(move || {
                        while let Some(accepted) = queue.pop() {
                            handle_connection(&router, accepted, &limits);
                        }
                    })
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        Ok(HttpServer {
            addr,
            router,
            queue,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (the real port when `:0` was requested).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The planning service behind the routes (e.g. for cache stats).
    pub fn service(&self) -> &PlanService {
        &self.router.service
    }

    /// True once shutdown was requested (locally or via `POST /shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.router.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown without waiting (acceptor stops within ~2 ms).
    pub(crate) fn request_shutdown(&self) {
        self.router.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until shutdown is requested, then drains and joins
    /// everything. This is the CLI's foreground loop.
    pub fn run_until_shutdown(mut self) {
        while !self.shutdown_requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.join_all();
    }

    /// Graceful shutdown: stop accepting, drain queued connections and
    /// in-flight requests, join every thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.request_shutdown();
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // The acceptor closed the queue on exit; closing again is harmless
        // and covers the (impossible today) case of an acceptor panic.
        self.queue.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one connection until close, error, timeout or server shutdown.
/// In-flight requests always get their response before the connection
/// closes — shutdown only suppresses *further* keep-alive rounds.
fn handle_connection(router: &Router, accepted: Accepted, limits: &Limits) {
    let Accepted {
        stream,
        accepted_at,
    } = accepted;
    let peer = stream.peer_addr().ok().map(|a| a.ip());
    let mut conn = HttpConn::new(stream);
    router
        .metrics
        .open_connections
        .fetch_add(1, Ordering::Relaxed);
    // Only the connection's first request waited in the accept queue;
    // later keep-alive rounds start when their bytes arrive.
    let mut queue_wait: Option<Duration> = Some(accepted_at.elapsed());
    loop {
        // Each request on the connection gets its own tracer (and thus its
        // own trace file). With no sink configured this is `Tracer::off()`
        // and every span call below is a no-op.
        let tracer = match (&router.trace_sink, queue_wait) {
            (Some(_), Some(_)) => Tracer::starting_at(accepted_at),
            (Some(_), None) => Tracer::new(),
            (None, _) => Tracer::off(),
        };
        let mut root = match queue_wait {
            Some(wait) => {
                let root = tracer.span_at("request", accepted_at);
                tracer.record_between("queue_wait", root.id(), accepted_at, accepted_at + wait);
                root
            }
            None => tracer.span("request"),
        };
        let mut read_span = tracer.child_span("read_request", root.id());
        match conn.read_request(limits) {
            Ok(request) => {
                read_span.set("bytes", request.body.len() as u64);
                read_span.finish();
                router
                    .metrics
                    .requests_total
                    .fetch_add(1, Ordering::Relaxed);
                router.metrics.in_flight.fetch_add(1, Ordering::Relaxed);
                let mut handle_span = tracer.child_span("handle", root.id());
                let trace = RequestTrace {
                    tracer: &tracer,
                    parent: handle_span.id(),
                    queue_wait,
                };
                let reply = router.handle(&request, peer, &trace);
                handle_span.set("method", request.method.as_str());
                handle_span.set("path", request.path.as_str());
                handle_span.set("status", u64::from(reply.status));
                handle_span.finish();
                router.metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
                router.metrics.count_status(reply.status);
                let keep_alive = request.keep_alive && !router.shutdown.load(Ordering::SeqCst);
                let write_span = tracer.child_span("write_response", root.id());
                let write_ok = conn
                    .write_response(
                        reply.status,
                        reply.content_type,
                        reply.body.as_bytes(),
                        keep_alive,
                    )
                    .is_ok();
                write_span.finish();
                root.set("status", u64::from(reply.status));
                root.set(
                    "outcome",
                    match reply.status {
                        503 => "shed",
                        429 => "rate_limited",
                        s if s >= 500 => "error",
                        s if s >= 400 => "client_error",
                        _ => "ok",
                    },
                );
                if let Some(cache) = reply.cache {
                    root.set("cache", cache);
                }
                root.finish();
                if let Some(sink) = &router.trace_sink {
                    sink.record(&tracer, reply.status);
                }
                queue_wait = None;
                if !write_ok || !keep_alive {
                    break;
                }
            }
            // Clean end of a keep-alive session, idle timeout, or transport
            // failure: nothing to answer, just release the worker.
            Err(HttpError::Closed) | Err(HttpError::Io(_)) => break,
            Err(HttpError::Timeout) => {
                let _ = conn.write_response(
                    408,
                    "application/json",
                    b"{\"error\":\"read timed out\"}\n",
                    false,
                );
                router.metrics.count_status(408);
                break;
            }
            Err(e) => {
                let (status, message) = match &e {
                    HttpError::PayloadTooLarge(n) => (
                        413,
                        format!(
                            "body of {n} bytes exceeds limit of {} bytes",
                            limits.max_body_bytes
                        ),
                    ),
                    HttpError::HeadTooLarge => (431, "request head too large".to_owned()),
                    HttpError::LengthRequired => (
                        411,
                        "transfer-encoding unsupported; send content-length".to_owned(),
                    ),
                    _ => (400, e.to_string()),
                };
                router
                    .metrics
                    .requests_total
                    .fetch_add(1, Ordering::Relaxed);
                let body = JsonValue::Object(vec![("error".to_owned(), JsonValue::Str(message))]);
                let _ = conn.write_response(
                    status,
                    "application/json",
                    format!("{body}\n").as_bytes(),
                    false,
                );
                router.metrics.count_status(status);
                break;
            }
        }
    }
    router
        .metrics
        .open_connections
        .fetch_sub(1, Ordering::Relaxed);
}
