//! Folding `dpipe_trace` spans into per-layer figures.
//!
//! A span's self time is its duration minus the part of it that its
//! direct children cover. Self times are summed by span name over every
//! traced op, then divided by the op count. Spans listed in [`ATTRIBUTED`]
//! belong to a layer; the self time of every other span (the bench `op`
//! and server `request` roots, the planner's `plan` and `config_search`
//! containers, `simulate`'s own body) is unattributed.

use crate::Metric;
use dpipe_spec::json::{parse, JsonValue};
use dpipe_trace::{AttrValue, SpanRecord};
use std::collections::{BTreeMap, HashMap};

const ATTRIBUTED: [&str; 23] = [
    "decode",
    "render",
    "parse_spec",
    "parse_simulate",
    "validate",
    "profile",
    "enumerate_configs",
    "cost_prefixes",
    "partition",
    "schedule",
    "fill",
    "config",
    "select",
    "handle",
    "plan_service",
    "single_flight_wait",
    "plan_execute",
    "queue_wait",
    "read_request",
    "write_response",
    "simulate.lower",
    "simulate.replay",
    "simulate.replan",
];

/// Numeric span attributes summed over a run: (span, attribute).
const SUMMED_ATTRS: [(&str, &str); 5] = [
    ("plan", "configs"),
    ("config_search", "feasible"),
    ("config_search", "dp_candidates"),
    ("config_search", "dp_pruned"),
    ("simulate.lower", "instructions"),
];

/// Span sums over every op folded so far.
#[derive(Default)]
pub struct Fold {
    pub ops: u64,
    /// Summed duration of root spans.
    pub root_us: f64,
    pub self_us: BTreeMap<String, f64>,
    pub dur_us: BTreeMap<String, f64>,
    pub count: BTreeMap<String, u64>,
    /// [`SUMMED_ATTRS`] keyed by attribute name.
    pub attrs: BTreeMap<&'static str, f64>,
    /// `plan_service` self time on cache hits.
    pub hit_lookup_us: f64,
    pub unattributed_us: f64,
}

impl Fold {
    /// Folds the spans of one op.
    pub fn add(&mut self, spans: &[SpanRecord]) {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans {
            if let Some(parent) = s.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((s.start_us, s.end_us));
            }
        }
        self.ops += 1;
        for s in spans {
            let dur = s.duration_us();
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |iv| union_within(iv, s.start_us, s.end_us));
            let own = dur.saturating_sub(covered) as f64;
            if s.parent.is_none() {
                self.root_us += dur as f64;
            }
            *self.self_us.entry(s.name.clone()).or_default() += own;
            *self.dur_us.entry(s.name.clone()).or_default() += dur as f64;
            *self.count.entry(s.name.clone()).or_default() += 1;
            if !ATTRIBUTED.contains(&s.name.as_str()) {
                self.unattributed_us += own;
            }
            if s.name == "plan_service"
                && matches!(s.attr("cache"), Some(AttrValue::Str(c)) if c == "hit")
            {
                self.hit_lookup_us += own;
            }
            for (span, key) in SUMMED_ATTRS {
                if s.name == span {
                    if let Some(v) = s.attr(key).and_then(attr_f64) {
                        *self.attrs.entry(key).or_default() += v;
                    }
                }
            }
        }
    }

    fn per_op(&self, total: f64) -> f64 {
        total / self.ops.max(1) as f64
    }

    fn dur(&self, name: &str) -> f64 {
        self.dur_us.get(name).copied().unwrap_or(0.0)
    }

    fn own(&self, name: &str) -> f64 {
        self.self_us.get(name).copied().unwrap_or(0.0)
    }

    fn n(&self, name: &str) -> f64 {
        self.count.get(name).copied().unwrap_or(0) as f64
    }

    /// The self-time table: per span name, spans and self/total µs per op.
    pub fn print_self_times(&self) {
        println!(
            "self time per span, per op ({} ops folded; self = duration minus child coverage):",
            self.ops
        );
        println!(
            "  {:<20} {:>10} {:>14} {:>14}",
            "span", "spans/op", "self_us/op", "total_us/op"
        );
        let mut rows: Vec<_> = self.self_us.iter().collect();
        rows.sort_by(|a, b| b.1.total_cmp(a.1));
        for (name, own) in rows {
            println!(
                "  {:<20} {:>10.2} {:>14.2} {:>14.2}",
                name,
                self.per_op(self.n(name)),
                self.per_op(*own),
                self.per_op(self.dur(name)),
            );
        }
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cursor) = (0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.clamp(lo, hi), end.clamp(lo, hi));
        let from = start.max(cursor);
        if end > from {
            covered += end - from;
            cursor = end;
        }
    }
    covered
}

fn attr_f64(v: &AttrValue) -> Option<f64> {
    match v {
        AttrValue::UInt(n) => Some(*n as f64),
        AttrValue::Int(n) => Some(*n as f64),
        AttrValue::Float(x) => Some(*x),
        AttrValue::Bool(b) => Some(f64::from(u8::from(*b))),
        AttrValue::Str(_) => None,
    }
}

/// Reads one Chrome trace-event file as written by the server's trace sink.
pub fn parse_chrome(text: &str) -> Result<Vec<SpanRecord>, String> {
    let doc = parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("trace file without traceEvents")?;
    events
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k).and_then(JsonValue::as_u64);
            let args = e.get("args").and_then(JsonValue::as_object).unwrap_or(&[]);
            let arg = |k: &str| {
                args.iter()
                    .find(|(n, _)| n == k)
                    .and_then(|(_, v)| v.as_u64())
            };
            let (Some(ts), Some(dur), Some(id)) = (field("ts"), field("dur"), arg("span_id"))
            else {
                return Err("trace event without ts/dur/span_id".to_owned());
            };
            let attrs = args
                .iter()
                .filter(|(k, _)| k != "span_id" && k != "parent_id")
                .filter_map(|(k, v)| {
                    let value = match v {
                        JsonValue::UInt(n) => AttrValue::UInt(*n),
                        JsonValue::Num(x) => AttrValue::Float(*x),
                        JsonValue::Str(s) => AttrValue::Str(s.clone()),
                        JsonValue::Bool(b) => AttrValue::Bool(*b),
                        _ => return None,
                    };
                    Some((k.clone(), value))
                })
                .collect();
            Ok(SpanRecord {
                id,
                parent: arg("parent_id"),
                name: e
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_owned(),
                start_us: ts,
                end_us: ts + dur,
                thread: field("tid").unwrap_or(0),
                attrs,
            })
        })
        .collect()
}

/// Planner search counters summed over the traced ops.
#[derive(Default, Clone, Copy)]
pub struct SearchCounts {
    pub configs: f64,
    pub feasible: f64,
    pub candidates: f64,
    pub pruned: f64,
}

impl SearchCounts {
    /// The counters the planner's `plan` / `config_search` spans carry.
    pub fn from_spans(fold: &Fold) -> Self {
        let a = |k: &str| fold.attrs.get(k).copied().unwrap_or(0.0);
        SearchCounts {
            configs: a("configs"),
            feasible: a("feasible"),
            candidates: a("dp_candidates"),
            pruned: a("dp_pruned"),
        }
    }
}

/// What the HTTP client saw of the traced ops, as means in µs.
pub struct ClientSide {
    /// Send to last response byte.
    pub rtt_us: f64,
    /// Connection idle time before a request: the server's keep-alive
    /// `read_request` span opens before the request is sent, so it holds
    /// this wait too.
    pub idle_us: f64,
}

/// Everything besides the spans that the per-layer metrics need.
pub struct LayerInputs {
    pub counts: SearchCounts,
    /// HTTP workloads only.
    pub client: Option<ClientSide>,
    /// `/metrics` cache counters over the traced window: hits, misses, evictions.
    pub cache: (f64, f64, f64),
    /// Non-200 answers and transport errors in the traced trials.
    pub non200: u64,
    /// Mean latency of the workload's main op, traced over untraced, minus
    /// one. In a closed loop that equals untraced over traced `ops_per_s`,
    /// minus one; an open loop's throughput is fixed by its rates.
    pub overhead_frac: f64,
    /// Open loop only: how late the generator sent, p99.
    pub gen_lag_p99_ms: f64,
}

fn ratio(num: f64, base: f64) -> f64 {
    if base > 0.0 {
        num / base
    } else {
        0.0
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order, all per traced op.
pub fn layer_metrics(fold: &Fold, inputs: &LayerInputs) -> Vec<Metric> {
    let ops = fold.ops as usize;
    let per_op = |total: f64| fold.per_op(total);
    let c = inputs.counts;
    let (hits, misses, evictions) = inputs.cache;
    // Over HTTP the op is the client's round trip. The server's `request`
    // span covers it except the response's way back to the client, and
    // also covers the idle wait before the request was sent.
    let (read_us, wire_us, op_us) = match &inputs.client {
        Some(client) => (
            per_op(fold.dur("read_request")) - client.idle_us,
            client.rtt_us - (per_op(fold.dur("request")) - client.idle_us),
            client.rtt_us * fold.ops as f64,
        ),
        None => (0.0, 0.0, fold.root_us),
    };
    let m = |name, value, unit| Metric::new(name, value, unit, Some(ops));
    vec![
        m(
            "spec.decode_us",
            per_op(fold.dur("decode") + fold.dur("parse_spec") + fold.dur("parse_simulate")),
            "us",
        ),
        m("profile.profile_us", per_op(fold.dur("profile")), "us"),
        m(
            "profile.cost_prefixes_us",
            per_op(fold.dur("cost_prefixes")),
            "us",
        ),
        m("partition.dp_ms", per_op(fold.dur("partition")) / 1e3, "ms"),
        m("partition.configs", per_op(c.configs), "count"),
        m("partition.dp_candidates", per_op(c.candidates), "count"),
        m(
            "partition.dp_prune_ratio",
            ratio(c.pruned, c.candidates),
            "ratio",
        ),
        m(
            "partition.feasible_ratio",
            ratio(c.feasible, c.configs),
            "ratio",
        ),
        m(
            "schedule.build_ms",
            per_op(fold.dur("schedule")) / 1e3,
            "ms",
        ),
        m("fill.fill_ms", per_op(fold.dur("fill")) / 1e3, "ms"),
        m(
            "fill.reach_ratio",
            ratio(fold.n("fill"), c.configs),
            "ratio",
        ),
        m(
            "core.config_self_ms",
            per_op(fold.own("config")) / 1e3,
            "ms",
        ),
        m(
            "core.render_us",
            per_op(fold.dur("render") + fold.own("handle")),
            "us",
        ),
        m("serve.lookup_us", per_op(fold.hit_lookup_us), "us"),
        m("serve.hit_ratio", ratio(hits, hits + misses), "ratio"),
        m("serve.evictions", evictions, "count"),
        m(
            "serve.plan_execute_ms",
            per_op(fold.dur("plan_execute")) / 1e3,
            "ms",
        ),
        m("http.queue_wait_us", per_op(fold.dur("queue_wait")), "us"),
        m("http.read_us", read_us, "us"),
        m("http.write_us", per_op(fold.dur("write_response")), "us"),
        m("http.wire_us", wire_us, "us"),
        m("http.non200", inputs.non200 as f64, "count"),
        m("sim.lower_us", per_op(fold.dur("simulate.lower")), "us"),
        m("sim.replay_us", per_op(fold.dur("simulate.replay")), "us"),
        m(
            "sim.replan_ms",
            per_op(fold.dur("simulate.replan")) / 1e3,
            "ms",
        ),
        m(
            "sim.instructions",
            per_op(fold.attrs.get("instructions").copied().unwrap_or(0.0)),
            "count",
        ),
        m("trace.overhead_frac", inputs.overhead_frac, "ratio"),
        m("bench.gen_lag_p99_ms", inputs.gen_lag_p99_ms, "ms"),
        m(
            "bench.unattributed_frac",
            ratio(fold.unattributed_us, op_us),
            "ratio",
        ),
    ]
}
