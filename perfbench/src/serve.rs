//! `serve_hit` and `serve_mix`: an in-process `HttpServer` with the default
//! `ServerConfig`, driven over two persistent keep-alive connections.
//!
//! * `serve_hit` — closed loop; every `POST /plan` is a cache hit on the
//!   working set planned during set-up.
//! * `serve_mix` — open loop at fixed rates, each request timed from when
//!   it was due. A `read` connection sends working-set hits; a `write`
//!   connection sends fresh cache misses and `POST /simulate` requests.
//!
//! Every response body is checked after the window against the in-process
//! document (`plan_response_doc` / `simulate_response_doc`), with the
//! server's trailing `timing` field stripped.

use crate::calib::{self, Speed};
use crate::fold::{layer_metrics, parse_chrome, ClientSide, Fold, LayerInputs, SearchCounts};
use crate::specs::{self, Case, SimCase};
use crate::stats::{at_reference, median, peak_rss_mb, pooled, Samples, Slice};
use crate::{Args, Metric, Outcome};
use dpipe_http::{HttpClient, HttpServer, ServerConfig};
use dpipe_serve::json::{parse, plan_response_doc, simulate_response_doc, JsonValue};
use dpipe_serve::{PlanRequest, PlanService, ServiceConfig};
use dpipe_spec::PlanSpec;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// `serve_mix` read-connection rate (working-set hits), requests/s.
pub const READ_RATE: f64 = 400.0;
/// `serve_mix` write-connection rate (misses and simulations), requests/s.
pub const WRITE_RATE: f64 = 20.0;
/// Every this-many-th write request is a `/simulate`; the rest are misses.
pub const SIMULATE_EVERY: usize = 5;
/// Closed-loop windows are cut into slices this long, keeping at most
/// `SLICE_KEEP` latencies each. `SLICE_PROBES` times, evenly through each
/// slice, both client threads stop together and time a kernel run each
/// (see `calib`).
const SLICE_S: f64 = 0.5;
const SLICE_KEEP: usize = 4096;
const SLICE_PROBES: usize = 10;
/// In the open loop, a connection times one kernel run after a response
/// when the next request is due at least `PROBE_SLACK_MS` later: the write
/// connection after every response, the read one after every
/// `READ_PROBE_EVERY`-th.
const PROBE_SLACK_MS: f64 = 1.0;
const READ_PROBE_EVERY: usize = 10;
/// Traced trials keep every Nth request's trace file. The server writes
/// each kept file on the connection's own thread, which for a cold plan's
/// trace takes milliseconds, so `serve_mix` keeps fewer.
const TRACE_SAMPLE_HIT: u64 = 20;
const TRACE_SAMPLE_MIX: u64 = 5;

#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Kind {
    Hit,
    Miss,
    Sim,
}

impl Kind {
    fn path(self) -> &'static str {
        match self {
            Kind::Sim => "/simulate",
            _ => "/plan",
        }
    }
}

/// One connection's results.
#[derive(Default)]
struct Tally {
    /// Latency per kind, ms (from when due in the open loop).
    latency: BTreeMap<Kind, Samples>,
    /// Send-to-receive round trips, ms.
    rtt: BTreeMap<Kind, Samples>,
    /// How late each open-loop request was sent, ms.
    lag: Samples,
    /// Idle time on the connection before each request after the first:
    /// the server's `read_request` span waits through it.
    idle: BTreeMap<Kind, Samples>,
    attempted: u64,
    ok: u64,
    /// Non-200 answers by exact status code.
    status: BTreeMap<u16, u64>,
    transport: u64,
    /// Responses that differed from the first body for the same input.
    mismatched: u64,
    /// First body (timing stripped) per input, and how many matched it.
    seen: HashMap<(Kind, usize), (Vec<u8>, u64)>,
    /// Closed loop only: the window's `SLICE_S` slices.
    slices: Vec<Slice>,
    /// Open loop only: per request, when it was due (seconds into the
    /// window), its kind and latency (ms); per kernel probe, when it ran
    /// and its time (ms).
    timeline: Vec<(f64, Kind, f64)>,
    probes: Vec<(f64, f64)>,
    /// When the last response arrived.
    done: Option<Instant>,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        for (k, s) in &other.latency {
            self.latency.entry(*k).or_default().extend(s);
        }
        for (k, s) in &other.rtt {
            self.rtt.entry(*k).or_default().extend(s);
        }
        self.lag.extend(&other.lag);
        for (k, s) in &other.idle {
            self.idle.entry(*k).or_default().extend(s);
        }
        if self.slices.len() < other.slices.len() {
            self.slices
                .resize_with(other.slices.len(), || Slice::new(0.0, SLICE_KEEP));
        }
        // The two connections' slices run side by side.
        for (mine, theirs) in self.slices.iter_mut().zip(&other.slices) {
            mine.ops += theirs.ops;
            mine.seconds = mine.seconds.max(theirs.seconds);
            mine.latency.extend(&theirs.latency);
            mine.speed.extend(&theirs.speed);
        }
        self.timeline.extend(other.timeline);
        self.probes.extend(other.probes);
        self.attempted += other.attempted;
        self.ok += other.ok;
        for (code, n) in other.status {
            *self.status.entry(code).or_default() += n;
        }
        self.transport += other.transport;
        self.mismatched += other.mismatched;
        for (key, (body, n)) in other.seen {
            match self.seen.get_mut(&key) {
                Some(mine) if mine.0 == body => mine.1 += n,
                Some(_) => self.mismatched += n,
                None => {
                    self.seen.insert(key, (body, n));
                }
            }
        }
        self.done = self.done.max(other.done);
    }

    fn latency(&mut self, kind: Kind) -> &mut Samples {
        self.latency.entry(kind).or_default()
    }

    fn mean(&self, kind: Kind) -> f64 {
        self.latency.get(&kind).map_or(0.0, Samples::mean)
    }
}

/// The body without the server's trailing `,"timing":{...}}\n`.
fn strip_timing(body: &[u8]) -> Option<&[u8]> {
    const KEY: &[u8] = b",\"timing\":";
    let at = body.windows(KEY.len()).rposition(|w| w == KEY)?;
    Some(&body[..at])
}

/// One persistent client connection that reconnects after a transport error.
struct Conn {
    addr: SocketAddr,
    client: Option<HttpClient>,
    /// When the previous response arrived.
    last_done: Option<Instant>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Result<Self, String> {
        let client = HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        Ok(Conn {
            addr,
            client: Some(client),
            last_done: None,
        })
    }

    /// Sends one request; `due` is when it was due (the send time in a
    /// closed loop). Records latency, status and the body check, and
    /// returns the latency, ms.
    fn exchange(
        &mut self,
        tally: &mut Tally,
        kind: Kind,
        index: usize,
        body: &[u8],
        due: Instant,
    ) -> f64 {
        let sent = Instant::now();
        tally.attempted += 1;
        tally.lag.push((sent - due).as_secs_f64() * 1e3);
        if let Some(prev) = self.last_done {
            let idle = (sent - prev).as_secs_f64() * 1e3;
            tally.idle.entry(kind).or_default().push(idle);
        }
        let response = match self.client.take() {
            Some(c) => Ok(c),
            None => HttpClient::connect(self.addr),
        }
        .and_then(|mut c| {
            let r = c.request("POST", kind.path(), body);
            if r.is_ok() {
                self.client = Some(c);
            }
            r
        });
        let done = Instant::now();
        tally.done = Some(done);
        self.last_done = Some(done);
        // Every attempt counts: a failed request has missed every latency
        // bound, so it enters the samples too.
        let ms = (done - due).as_secs_f64() * 1e3;
        tally.latency(kind).push(ms);
        let rtt = (done - sent).as_secs_f64() * 1e3;
        tally.rtt.entry(kind).or_default().push(rtt);
        let response = match response {
            Ok(r) => r,
            Err(_) => {
                tally.transport += 1;
                return ms;
            }
        };
        if response.status != 200 {
            *tally.status.entry(response.status).or_default() += 1;
            return ms;
        }
        let Some(stripped) = strip_timing(&response.body) else {
            tally.mismatched += 1;
            return ms;
        };
        match tally.seen.get_mut(&(kind, index)) {
            Some((first, n)) if first.as_slice() == stripped => *n += 1,
            Some(_) => {
                tally.mismatched += 1;
                return ms;
            }
            None => {
                tally.seen.insert((kind, index), (stripped.to_vec(), 1));
            }
        }
        tally.ok += 1;
        ms
    }

    fn get(&mut self, path: &str) -> Result<Vec<u8>, String> {
        let client = self.client.as_mut().ok_or("connection lost")?;
        let r = client
            .request("GET", path, b"")
            .map_err(|e| format!("GET {path}: {e}"))?;
        if r.status != 200 {
            return Err(format!("GET {path} answered {}", r.status));
        }
        Ok(r.body)
    }
}

/// A server, planned through its working set.
struct Served {
    _server: HttpServer,
    addr: SocketAddr,
}

/// Starts a server with the default config (plus a trace sink when
/// `trace` is given) and plans every working-set spec through it once, in
/// order over one connection (two would make set-up time depend on how
/// the two plans in flight share the cores).
fn start_and_warm(bodies: &[String], trace: Option<(&Path, u64)>) -> Result<Served, String> {
    let mut config = ServerConfig::default();
    if let Some((dir, sample)) = trace {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        config.trace_dir = Some(dir.to_path_buf());
        config.trace_sample = sample;
    }
    let server = HttpServer::start(config).map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr();
    let mut conn = Conn::new(addr)?;
    let client = conn.client.as_mut().ok_or("connection lost")?;
    for body in bodies {
        let r = client
            .request("POST", "/plan", body.as_bytes())
            .map_err(|e| format!("warm-up: {e}"))?;
        if r.status != 200 {
            return Err(format!("warm-up /plan answered {}", r.status));
        }
    }
    // A connection's requests are traced in order, so once this answers,
    // every warm-up trace has been written.
    conn.get("/healthz")?;
    drop(conn);
    if let Some((dir, _)) = trace {
        // Only the timed window's traces are folded.
        clear_dir(dir)?;
    }
    Ok(Served {
        _server: server,
        addr,
    })
}

fn clear_dir(dir: &Path) -> Result<(), String> {
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// The server's cache counters: hits, misses, evictions.
fn cache_counters(addr: SocketAddr) -> Result<(f64, f64, f64), String> {
    let body = Conn::new(addr)?.get("/metrics")?;
    let doc = parse(&String::from_utf8_lossy(&body)).map_err(|e| e.to_string())?;
    let cache = doc.get("cache").ok_or("/metrics without cache")?;
    let field = |k: &str| {
        cache
            .get(k)
            .and_then(JsonValue::as_f64)
            .ok_or(format!("/metrics cache without {k}"))
    };
    Ok((field("hits")?, field("misses")?, field("evictions")?))
}

/// Runs `per_conn` on two connections at once, from a common start, and
/// merges their tallies. Returns the tally and the start instant.
fn two_connections(
    addr: SocketAddr,
    per_conn: impl Fn(usize, &mut Conn, &mut Tally, Instant) + Sync,
) -> Result<(Tally, Instant), String> {
    let barrier = Barrier::new(2);
    let start = std::sync::OnceLock::new();
    let tallies = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|c| {
                let (barrier, start, per_conn) = (&barrier, &start, &per_conn);
                s.spawn(move || -> Result<Tally, String> {
                    let mut conn = Conn::new(addr)?;
                    barrier.wait();
                    let t0 = *start.get_or_init(Instant::now);
                    let mut tally = Tally::default();
                    per_conn(c, &mut conn, &mut tally, t0);
                    Ok(tally)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().map_err(|_| "client thread panicked".to_owned())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut tally = Tally::default();
    for t in tallies {
        tally.merge(t);
    }
    let t0 = *start.get().ok_or("no client ran")?;
    Ok((tally, t0))
}

/// Where a traced run's server writes its request traces.
fn trace_dir() -> PathBuf {
    PathBuf::from(format!(
        ".bench_build/perfbench-traces-{}",
        std::process::id()
    ))
}

/// Folds the window's `/plan` and `/simulate` traces, counting them by
/// kind into `folded`, then removes them.
fn fold_traces(
    dir: &Path,
    fold: &mut Fold,
    folded: &mut BTreeMap<Kind, u64>,
) -> Result<(), String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .map(|e| e.map(|e| e.path()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    paths.sort();
    for path in &paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let spans = parse_chrome(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let str_attr = |span: &str, key: &str| {
            spans
                .iter()
                .filter(|s| s.name == span)
                .find_map(|s| match s.attr(key) {
                    Some(dpipe_trace::AttrValue::Str(v)) => Some(v.clone()),
                    _ => None,
                })
        };
        let kind = match str_attr("handle", "path").as_deref() {
            Some("/simulate") => Kind::Sim,
            Some("/plan") if str_attr("request", "cache").as_deref() == Some("hit") => Kind::Hit,
            Some("/plan") => Kind::Miss,
            _ => continue,
        };
        *folded.entry(kind).or_default() += 1;
        fold.add(&spans);
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// The in-process `POST /plan` document for a spec body.
fn plan_doc(json: &str) -> Result<String, String> {
    let spec = PlanSpec::from_json(json).map_err(|e| e.to_string())?;
    let request = PlanRequest::from_spec(spec.clone()).map_err(|e| e.to_string())?;
    let plan = request.plan().map_err(|e| e.to_string())?;
    Ok(format!("{}\n", plan_response_doc(&spec, &request, &plan)))
}

/// The in-process `POST /simulate` document.
fn simulate_doc(service: &PlanService, case: &SimCase) -> Result<String, String> {
    let spec = PlanSpec::from_json(&case.spec_json).map_err(|e| e.to_string())?;
    let request = PlanRequest::from_spec(spec.clone()).map_err(|e| e.to_string())?;
    let outcome = service
        .simulate_traced(&request, &case.faults, 1, None)
        .outcome
        .map_err(|e| e.to_string())?;
    Ok(format!(
        "{}\n",
        simulate_response_doc(&spec, &request, &case.faults, &outcome)
    ))
}

/// Checks every first body against the in-process document; a mismatch
/// fails every response that matched that body.
fn check_bodies(
    tally: &Tally,
    expected: impl Fn(Kind, usize) -> Result<String, String>,
    label: impl Fn(Kind, usize) -> String,
    out: &mut Outcome,
) {
    let mut keys: Vec<_> = tally.seen.keys().copied().collect();
    keys.sort();
    for key in keys {
        let (body, n) = &tally.seen[&key];
        let want = expected(key.0, key.1);
        let ok = match &want {
            Ok(doc) => doc
                .strip_suffix("}\n")
                .is_some_and(|prefix| prefix.as_bytes() == body.as_slice()),
            Err(_) => false,
        };
        if !ok {
            let why = want.err().unwrap_or_else(|| "body differs".to_owned());
            out.failed += n;
            out.errors
                .push(format!("{}: {why} ({n} responses)", label(key.0, key.1)));
        }
    }
}

/// Failure accounting shared by both workloads.
fn account(tally: &Tally, out: &mut Outcome) {
    out.attempted += tally.attempted;
    out.failed += tally.transport + tally.mismatched + tally.status.values().sum::<u64>();
    for (code, n) in &tally.status {
        out.errors.push(format!("{n} responses with status {code}"));
    }
    if tally.transport > 0 {
        out.errors
            .push(format!("{} transport errors", tally.transport));
    }
    if tally.mismatched > 0 {
        out.errors.push(format!(
            "{} responses differed from an earlier body for the same input",
            tally.mismatched
        ));
    }
}

fn non200(tally: &Tally) -> u64 {
    tally.status.values().sum::<u64>() + tally.transport
}

/// One open-loop trial's latencies.
struct Latencies {
    raw: BTreeMap<Kind, Samples>,
    at_reference: BTreeMap<Kind, Samples>,
    lag: Samples,
}

/// An open-loop window's latencies at the reference host speed (see
/// `calib`): each request's latency is scaled by the kernel times probed
/// in its `SLICE_S` stretch of the window (by due time), or over the whole
/// window when none was probed in that stretch.
fn open_loop_at_reference(tally: &Tally) -> BTreeMap<Kind, Samples> {
    let stretch = |t: f64| (t / SLICE_S) as usize;
    let n = tally
        .timeline
        .iter()
        .map(|e| stretch(e.0) + 1)
        .max()
        .unwrap_or(0);
    let mut speeds = vec![Speed::default(); n];
    let mut whole = Speed::default();
    for &(t, ms) in &tally.probes {
        if let Some(speed) = speeds.get_mut(stretch(t)) {
            speed.push(ms);
        }
        whole.push(ms);
    }
    let mut out: BTreeMap<Kind, Samples> = BTreeMap::new();
    for &(t, kind, ms) in &tally.timeline {
        let speed = &speeds[stretch(t)];
        let factor = if speed.is_empty() {
            whole.scale()
        } else {
            speed.scale()
        };
        out.entry(kind).or_default().push(ms * factor);
    }
    out
}

/// One kind of trial's results (untraced or traced), over a whole run.
#[derive(Default)]
struct Trials {
    tally: Tally,
    /// Open loop only: each trial's latencies by kind, raw and at the
    /// reference host speed, and its generator lag.
    each: Vec<Latencies>,
    /// Closed loop only.
    slices: Vec<Slice>,
    /// Summed window length.
    seconds: f64,
    /// `/metrics` cache counters summed over the windows: hits, misses,
    /// evictions.
    cache: (f64, f64, f64),
    fold: Fold,
    /// Folded request traces by kind.
    folded: BTreeMap<Kind, u64>,
}

impl Trials {
    /// The mean of a client-side figure kept by kind, weighted like the
    /// folded traces: the server samples which requests it traces, so the
    /// kinds' shares there differ from the client's.
    fn traced_mean(&self, by_kind: &BTreeMap<Kind, Samples>) -> f64 {
        let (mut sum, mut n) = (0.0, 0.0);
        for (kind, count) in &self.folded {
            if let Some(s) = by_kind.get(kind) {
                sum += s.mean() * *count as f64;
                n += *count as f64;
            }
        }
        if n > 0.0 {
            sum / n
        } else {
            0.0
        }
    }
}

/// Runs `crate::trials` trials of: generate the run's inputs (`make`, from
/// the trial count and window length) and start and warm a server (timed
/// together as one set-up), then measure one window with `window` (from
/// the trial index and window length). Returns the untraced and traced
/// trials, the set-up times and the inputs.
fn run_trials<I>(
    args: &Args,
    trace_sample: u64,
    make: impl Fn(usize, f64) -> Result<I, String>,
    working_set: impl Fn(&I) -> &[String],
    window: impl Fn(&I, SocketAddr, usize, f64) -> Result<(Tally, Vec<Slice>, f64), String>,
) -> Result<(Trials, Trials, Vec<f64>, I), String> {
    let (mut untraced, mut traced) = (Trials::default(), Trials::default());
    let mut setups = Vec::new();
    let mut last = None;
    let trials = crate::trials(args.trace);
    let per = args.seconds / trials as f64;
    let dir = trace_dir();
    for trial in 0..trials {
        let is_traced = crate::traced_trial(args.trace, trial);
        let ((inputs, served), setup) = calib::timed(|| {
            let inputs = make(trials, per)?;
            let served = start_and_warm(
                working_set(&inputs),
                is_traced.then_some((dir.as_path(), trace_sample)),
            )?;
            Ok((inputs, served))
        })?;
        setups.push(setup);
        let before = cache_counters(served.addr)?;
        let (tally, slices, seconds) = window(&inputs, served.addr, trial, per)?;
        let after = cache_counters(served.addr)?;
        drop(served);
        let into = if is_traced {
            &mut traced
        } else {
            &mut untraced
        };
        into.each.push(Latencies {
            raw: tally.latency.clone(),
            at_reference: open_loop_at_reference(&tally),
            lag: tally.lag.clone(),
        });
        into.tally.merge(tally);
        into.slices.extend(slices);
        into.seconds += seconds;
        into.cache.0 += after.0 - before.0;
        into.cache.1 += after.1 - before.1;
        into.cache.2 += after.2 - before.2;
        if is_traced {
            fold_traces(&dir, &mut into.fold, &mut into.folded)?;
        }
        last = Some(inputs);
    }
    let inputs = last.ok_or("no trial ran")?;
    Ok((untraced, traced, setups, inputs))
}

/// The per-layer metrics of a run's traced trials.
fn traced_layers(traced: &Trials, overhead_frac: f64, gen_lag_p99_ms: f64) -> Vec<Metric> {
    traced.fold.print_self_times();
    layer_metrics(
        &traced.fold,
        &LayerInputs {
            counts: SearchCounts::from_spans(&traced.fold),
            client: Some(ClientSide {
                rtt_us: traced.traced_mean(&traced.tally.rtt) * 1e3,
                idle_us: traced.traced_mean(&traced.tally.idle) * 1e3,
            }),
            cache: traced.cache,
            non200: non200(&traced.tally),
            overhead_frac,
            gen_lag_p99_ms,
        },
    )
}

fn working_set_bodies() -> Result<Vec<String>, String> {
    Ok(specs::working_set()?.into_iter().map(|c| c.json).collect())
}

fn ws_label(ws: &[Case], index: usize) -> String {
    ws.get(index).map_or("?".to_owned(), |c| c.label.clone())
}

// ---------------------------------------------------------------- serve_hit

/// The closed-loop hit window: its tally, its whole slices, their length.
fn hit_window(
    addr: SocketAddr,
    bodies: &[String],
    seed: u64,
    seconds: f64,
) -> Result<(Tally, Vec<Slice>, f64), String> {
    let slices = ((seconds / SLICE_S) as usize).max(1);
    let probe = Barrier::new(2);
    let (mut tally, _) = two_connections(addr, |c, conn, tally, _| {
        let order = specs::order(seed, c as u64, bodies.len());
        let mut i = 0;
        for _ in 0..slices {
            let mut slice = Slice::new(0.0, SLICE_KEEP);
            let (mut probes, mut probing) = (0, 0.0);
            let start = Instant::now();
            loop {
                let elapsed = start.elapsed().as_secs_f64();
                if probes < SLICE_PROBES && elapsed >= probes as f64 * SLICE_S / SLICE_PROBES as f64
                {
                    // Both threads time the kernel together, with no
                    // request in flight; the pause is not load time.
                    let t = Instant::now();
                    probe.wait();
                    slice.speed.sample(1);
                    probe.wait();
                    probing += t.elapsed().as_secs_f64();
                    probes += 1;
                    continue;
                }
                if elapsed >= SLICE_S && probes == SLICE_PROBES {
                    break;
                }
                let index = order[i % order.len()];
                let ms = conn.exchange(
                    tally,
                    Kind::Hit,
                    index,
                    bodies[index].as_bytes(),
                    Instant::now(),
                );
                slice.ops += 1;
                slice.latency.push(ms);
                i += 1;
            }
            slice.seconds = start.elapsed().as_secs_f64() - probing;
            tally.slices.push(slice);
        }
    })?;
    let cut = std::mem::take(&mut tally.slices);
    let seconds = cut.iter().map(|s| s.seconds).sum();
    Ok((tally, cut, seconds))
}

pub fn run_hit(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ws = specs::working_set()?;
    let (untraced, traced, setups, bodies) = run_trials(
        args,
        TRACE_SAMPLE_HIT,
        |_, _| working_set_bodies(),
        |bodies| bodies.as_slice(),
        |bodies, addr, _, seconds| hit_window(addr, bodies, args.seed, seconds),
    )?;
    let rss = peak_rss_mb()?;

    for trials in [&untraced, &traced] {
        check_bodies(
            &trials.tally,
            |_, i| plan_doc(&bodies[i]),
            |_, i| ws_label(&ws, i),
            &mut out,
        );
        account(&trials.tally, &mut out);
    }
    let slices = untraced.slices.len();
    let mut raw = pooled(&untraced.slices);
    println!(
        "raw: {slices} slices of {SLICE_S} s, {:.4} ops/s, p50 {:.4} ms, p99 {:.4} ms (n={})",
        raw.ops as f64 / raw.seconds,
        raw.latency.percentile(0.5),
        raw.latency.percentile(0.99),
        raw.ops
    );
    let mut window = at_reference(&untraced.slices);
    let n = window.latency.len();
    println!(
        "reported: every slice at the reference host speed (host speed x{:.3} median)",
        window.speed.scale()
    );
    // The tail is the median over slices of each slice's p99, so a stall
    // of the shared host that lasts a few slices does not set it.
    let mut slice_p99 = Vec::new();
    for slice in &untraced.slices {
        let mut latency = slice.at_reference().latency;
        if !args.trace && !latency.reportable(0.99) {
            out.errors.push(format!(
                "latency_p99_ms: a slice has fewer than ten samples beyond it (n={})",
                latency.len()
            ));
        }
        slice_p99.push(latency.percentile(0.99));
    }
    println!(
        "pooled p99 {:.4} ms; median over {slices} slices of each slice's p99 {:.4} ms",
        window.latency.percentile(0.99),
        median(&slice_p99)
    );
    out.end_to_end = vec![
        Metric::new("setup_s", median(&setups), "s", Some(setups.len())),
        Metric::new(
            "ops_per_s",
            window.ops as f64 / window.seconds,
            "ops/s",
            Some(n),
        ),
        Metric::new(
            "latency_p50_ms",
            window.latency.percentile(0.5),
            "ms",
            Some(n),
        ),
        Metric::new("latency_tail_ms", median(&slice_p99), "ms", Some(n)),
        Metric::new("peak_rss_mb", rss, "MB", None),
    ];
    println!(
        "latency_tail_ms is the median over slices of the p99 of cache-hit round trips; latency_p50_ms their median"
    );

    if args.trace {
        let traced_window = at_reference(&traced.slices);
        let overhead = traced_window.latency.mean() / window.latency.mean() - 1.0;
        out.per_layer = traced_layers(&traced, overhead, 0.0);
    }
    out.record = vec![
        ("working_set", bodies.len().to_string()),
        ("spec_digest", format!("{:016x}", specs::digest(&bodies))),
        ("connections", "2 (closed loop, keep-alive)".to_owned()),
    ];
    Ok(out)
}

// ---------------------------------------------------------------- serve_mix

/// Times one kernel run into `tally.probes` when the connection's next
/// request, due `next_s` after `t0`, leaves time for it.
fn probe_if_idle(tally: &mut Tally, t0: Instant, next_s: f64) {
    let now = t0.elapsed().as_secs_f64();
    if (next_s - now) * 1e3 >= PROBE_SLACK_MS {
        tally.probes.push((now, calib::probe()));
    }
}

/// Sleeps until `due` (returns at once when already late).
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// A run's `serve_mix` inputs. Trial `t` sends the `t`-th stretch of the
/// miss and simulation sequences, so the run covers `trials` times as
/// many distinct inputs as one window.
struct MixInputs {
    hits: Vec<String>,
    misses: Vec<String>,
    sims: Vec<SimCase>,
    sim_order: Vec<usize>,
    /// Misses and simulations per window.
    window_misses: usize,
    window_sims: usize,
}

/// The inputs of `trials` windows of `seconds` each.
fn mix_inputs(seed: u64, trials: usize, seconds: f64) -> Result<MixInputs, String> {
    let ws = specs::working_set()?;
    let writes = (WRITE_RATE * seconds) as usize;
    let window_sims = writes / SIMULATE_EVERY;
    let window_misses = writes - window_sims;
    let misses = window_misses * trials;
    if misses > specs::MISS_SPACE {
        return Err(format!(
            "{misses} misses exceed the {} distinct miss specs",
            specs::MISS_SPACE
        ));
    }
    let sims = specs::sim_cases(&ws)?;
    Ok(MixInputs {
        hits: ws.into_iter().map(|c| c.json).collect(),
        misses: specs::misses(seed, misses),
        sim_order: specs::strided(seed, sims.len(), window_sims * trials),
        sims,
        window_misses,
        window_sims,
    })
}

/// The open-loop window: its tally and its length.
fn mix_window(
    addr: SocketAddr,
    inputs: &MixInputs,
    seed: u64,
    trial: usize,
    seconds: f64,
) -> Result<(Tally, Vec<Slice>, f64), String> {
    let (tally, t0) = two_connections(addr, |c, conn, tally, t0| {
        if c == 0 {
            // The read connection: working-set hits.
            let order = specs::order(seed, 0, inputs.hits.len());
            let n = (READ_RATE * seconds) as usize;
            for i in 0..n {
                let due = t0 + Duration::from_secs_f64(i as f64 / READ_RATE);
                wait_until(due);
                let index = order[i % order.len()];
                let ms = conn.exchange(tally, Kind::Hit, index, inputs.hits[index].as_bytes(), due);
                tally
                    .timeline
                    .push(((due - t0).as_secs_f64(), Kind::Hit, ms));
                if i % READ_PROBE_EVERY == 0 {
                    probe_if_idle(tally, t0, (i + 1) as f64 / READ_RATE);
                }
            }
        } else {
            // The write connection: misses, and every SIMULATE_EVERY-th a simulation.
            let (mut miss, mut sim) = (trial * inputs.window_misses, trial * inputs.window_sims);
            for j in 0..(WRITE_RATE * seconds) as usize {
                let due = t0 + Duration::from_secs_f64(j as f64 / WRITE_RATE);
                wait_until(due);
                if j % SIMULATE_EVERY == SIMULATE_EVERY - 1 {
                    let index = inputs.sim_order[sim];
                    let ms = conn.exchange(
                        tally,
                        Kind::Sim,
                        index,
                        inputs.sims[index].body.as_bytes(),
                        due,
                    );
                    tally
                        .timeline
                        .push(((due - t0).as_secs_f64(), Kind::Sim, ms));
                    sim += 1;
                } else {
                    let ms =
                        conn.exchange(tally, Kind::Miss, miss, inputs.misses[miss].as_bytes(), due);
                    tally
                        .timeline
                        .push(((due - t0).as_secs_f64(), Kind::Miss, ms));
                    miss += 1;
                }
                probe_if_idle(tally, t0, (j + 1) as f64 / WRITE_RATE);
            }
        }
    })?;
    let elapsed = tally.done.map_or(0.0, |d| (d - t0).as_secs_f64());
    Ok((tally, Vec::new(), elapsed))
}

fn check_mix(tally: &Tally, inputs: &MixInputs, out: &mut Outcome) {
    // Every miss needs its own in-process plan: two threads make them.
    let mut misses: Vec<usize> = tally
        .seen
        .keys()
        .filter(|k| k.0 == Kind::Miss)
        .map(|k| k.1)
        .collect();
    misses.sort_unstable();
    let miss_docs: HashMap<usize, Result<String, String>> = std::thread::scope(|s| {
        let halves: Vec<_> = (0..2)
            .map(|t| {
                let misses = &misses;
                s.spawn(move || {
                    misses
                        .iter()
                        .skip(t)
                        .step_by(2)
                        .map(|&i| (i, plan_doc(&inputs.misses[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    });
    let service = PlanService::new(ServiceConfig::with_workers(1));
    check_bodies(
        tally,
        |kind, i| match kind {
            Kind::Hit => plan_doc(&inputs.hits[i]),
            Kind::Miss => miss_docs
                .get(&i)
                .cloned()
                .unwrap_or_else(|| Err("no in-process document".to_owned())),
            Kind::Sim => simulate_doc(&service, &inputs.sims[i]),
        },
        |kind, i| match kind {
            Kind::Hit => format!("hit {i}"),
            Kind::Miss => format!("miss {i}"),
            Kind::Sim => inputs.sims[i].label.clone(),
        },
        out,
    );
}

/// Every trial's latencies of `kind` (`None`: the generator lag) pooled,
/// at the reference host speed when `at_reference`.
fn pooled_trials(trials: &Trials, kind: Option<Kind>, at_reference: bool) -> Samples {
    let mut all = Samples::default();
    for trial in &trials.each {
        let by_kind = if at_reference {
            &trial.at_reference
        } else {
            &trial.raw
        };
        match kind {
            Some(k) => all.extend(&by_kind.get(&k).cloned().unwrap_or_default()),
            None => all.extend(&trial.lag),
        }
    }
    all
}

pub fn run_mix(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (untraced, traced, setups, inputs) = run_trials(
        args,
        TRACE_SAMPLE_MIX,
        |trials, seconds| mix_inputs(args.seed, trials, seconds),
        |inputs| inputs.hits.as_slice(),
        |inputs, addr, trial, seconds| mix_window(addr, inputs, args.seed, trial, seconds),
    )?;
    let rss = peak_rss_mb()?;

    for trials in [&untraced, &traced] {
        check_mix(&trials.tally, &inputs, &mut out);
        account(&trials.tally, &mut out);
    }

    // Open-loop figures pool every trial, at the reference host speed.
    let mut raw: Vec<String> = Vec::new();
    for (kind, q) in [(Kind::Hit, 0.5), (Kind::Hit, 0.99), (Kind::Miss, 0.5)] {
        let value = pooled_trials(&untraced, Some(kind), false).percentile(q);
        raw.push(format!("{value:.4}"));
    }
    println!(
        "raw: hit p50 {} ms, hit p99 {} ms, miss p50 {} ms",
        raw[0], raw[1], raw[2]
    );
    let mut report = Vec::new();
    for (name, kind, q) in [
        ("hit_p50_ms", Some(Kind::Hit), 0.5),
        ("hit_p99_ms", Some(Kind::Hit), 0.99),
        ("miss_p50_ms", Some(Kind::Miss), 0.5),
        ("miss_p90_ms", Some(Kind::Miss), 0.9),
        ("simulate_p50_ms", Some(Kind::Sim), 0.5),
        ("bench.gen_lag_p99_ms", None, 0.99),
    ] {
        let mut s = pooled_trials(&untraced, kind, kind.is_some());
        if !args.trace && !s.reportable(q) {
            out.errors.push(format!(
                "{name}: fewer than ten samples beyond it (n={})",
                s.len()
            ));
        }
        report.push(Metric::new(name, s.percentile(q), "ms", Some(s.len())));
    }
    crate::print_metrics(
        "== serve_mix latencies from when each request was due (trials pooled, at reference speed) ==",
        &report,
    );
    println!("latency_p50_ms is miss_p50_ms; latency_tail_ms is miss_p90_ms");
    let ok = untraced.tally.ok;
    out.end_to_end = vec![
        Metric::new("setup_s", median(&setups), "s", Some(setups.len())),
        Metric::new(
            "ops_per_s",
            ok as f64 / untraced.seconds,
            "ops/s",
            Some(ok as usize),
        ),
        Metric::new("latency_p50_ms", report[2].value, "ms", report[2].samples),
        Metric::new("latency_tail_ms", report[3].value, "ms", report[3].samples),
        Metric::new("peak_rss_mb", rss, "MB", None),
    ];

    if args.trace {
        let overhead = traced.tally.mean(Kind::Hit) / untraced.tally.mean(Kind::Hit) - 1.0;
        let lag = pooled_trials(&traced, None, false).percentile(0.99);
        out.per_layer = traced_layers(&traced, overhead, lag);
    }
    out.record = vec![
        ("working_set", inputs.hits.len().to_string()),
        ("simulate_pairs", inputs.sims.len().to_string()),
        (
            "rates",
            format!(
                "read {READ_RATE}/s hits; write {WRITE_RATE}/s ({} misses, 1 simulate in {SIMULATE_EVERY})",
                SIMULATE_EVERY - 1
            ),
        ),
        (
            "spec_digest",
            format!(
                "{:016x}",
                specs::digest(inputs.hits.iter().chain(&inputs.misses))
            ),
        ),
    ];
    Ok(out)
}
