//! Server-side observability: request/response counters, admission
//! (shed/rate-limit) counters and log-bucketed latency histograms, all
//! lock-free atomics so the hot path never serialises on a metrics mutex.
//! `GET /metrics` renders the whole registry as one JSON document.

use dpipe_serve::CacheStats;
use dpipe_spec::json::JsonValue;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Upper bounds (microseconds) of the latency histogram buckets; the last
/// bucket is open-ended. Log-ish spacing covers 50 µs cache hits through
/// 30 s pathological plans in 19 buckets.
const BOUNDS_US: [u64; 19] = [
    50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000,
    1_000_000, 2_000_000, 5_000_000, 10_000_000, 20_000_000, 30_000_000,
];

/// A fixed-bucket latency histogram with atomic counters.
pub(crate) struct LatencyHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub(crate) fn new() -> Self {
        LatencyHistogram {
            buckets: (0..=BOUNDS_US.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one observation in microseconds.
    pub(crate) fn record_us(&self, us: u64) {
        let idx = BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(BOUNDS_US.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Number of observations.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The upper bound (microseconds) of the bucket containing the `q`
    /// quantile (0.0–1.0), or 0 with no observations. The answer for the
    /// open-ended last bucket is the observed maximum.
    pub(crate) fn quantile_us(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= target {
                return BOUNDS_US
                    .get(idx)
                    .copied()
                    .unwrap_or_else(|| self.max_us.load(Ordering::Relaxed));
            }
        }
        self.max_us.load(Ordering::Relaxed)
    }

    /// Cumulative bucket counts as `(upper_bound_seconds, count_at_or_below)`
    /// pairs, ending with the open-ended `(f64::INFINITY, total)` bucket —
    /// exactly the shape the Prometheus text format wants.
    pub(crate) fn cumulative_buckets_s(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::with_capacity(self.buckets.len());
        let mut cumulative = 0u64;
        for (idx, bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket.load(Ordering::Relaxed);
            let bound = BOUNDS_US
                .get(idx)
                .map_or(f64::INFINITY, |&us| us as f64 / 1e6);
            out.push((bound, cumulative));
        }
        out
    }

    /// Sum of all observations in microseconds.
    pub(crate) fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// The histogram as a JSON object (`count`, `mean_ms`, `p50_ms`,
    /// `p90_ms`, `p99_ms`, `max_ms`).
    pub(crate) fn to_json(&self) -> JsonValue {
        let count = self.count();
        let mean_ms = if count == 0 {
            0.0
        } else {
            self.sum_us.load(Ordering::Relaxed) as f64 / count as f64 / 1_000.0
        };
        let ms = |us: u64| us as f64 / 1_000.0;
        JsonValue::Object(vec![
            ("count".to_owned(), JsonValue::UInt(count)),
            ("mean_ms".to_owned(), JsonValue::Num(mean_ms)),
            (
                "p50_ms".to_owned(),
                JsonValue::Num(ms(self.quantile_us(0.50))),
            ),
            (
                "p90_ms".to_owned(),
                JsonValue::Num(ms(self.quantile_us(0.90))),
            ),
            (
                "p99_ms".to_owned(),
                JsonValue::Num(ms(self.quantile_us(0.99))),
            ),
            (
                "max_ms".to_owned(),
                JsonValue::Num(ms(self.max_us.load(Ordering::Relaxed))),
            ),
        ])
    }
}

/// The server's counter registry.
pub(crate) struct Metrics {
    started: Instant,
    /// Requests fully parsed off the wire.
    pub requests_total: AtomicU64,
    /// Responses by status code class we actually emit.
    pub ok_200: AtomicU64,
    /// 4xx total (400/404/405/408/411/413/422/429/431).
    pub client_errors: AtomicU64,
    /// 500s (internal/service failures).
    pub server_errors: AtomicU64,
    /// 503s from admission control — load shed, never a dropped connection.
    pub shed_total: AtomicU64,
    /// 429s from the per-client token bucket.
    pub rate_limited_total: AtomicU64,
    /// Successful `POST /plan` responses.
    pub plans_total: AtomicU64,
    /// Successful `POST /sweep` responses.
    pub sweeps_total: AtomicU64,
    /// Successful `POST /simulate` responses.
    pub simulations_total: AtomicU64,
    /// Requests currently being handled (gauge).
    pub in_flight: AtomicUsize,
    /// Connections currently open (gauge).
    pub open_connections: AtomicUsize,
    /// End-to-end `POST /plan` service time.
    pub plan_latency: LatencyHistogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// A zeroed registry started now.
    pub(crate) fn new() -> Self {
        Metrics {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            ok_200: AtomicU64::new(0),
            client_errors: AtomicU64::new(0),
            server_errors: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            rate_limited_total: AtomicU64::new(0),
            plans_total: AtomicU64::new(0),
            sweeps_total: AtomicU64::new(0),
            simulations_total: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            open_connections: AtomicUsize::new(0),
            plan_latency: LatencyHistogram::new(),
        }
    }

    /// Seconds since the registry was created.
    pub(crate) fn uptime_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Tallies a response's status code into the right counter.
    pub(crate) fn count_status(&self, status: u16) {
        match status {
            200 => {
                self.ok_200.fetch_add(1, Ordering::Relaxed);
            }
            503 => {
                self.shed_total.fetch_add(1, Ordering::Relaxed);
            }
            429 => {
                self.rate_limited_total.fetch_add(1, Ordering::Relaxed);
                self.client_errors.fetch_add(1, Ordering::Relaxed);
            }
            500 => {
                self.server_errors.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                self.client_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The whole registry as the `GET /metrics` JSON document. Cache and
    /// queue figures come from the [`PlanService`] the server fronts.
    ///
    /// [`PlanService`]: dpipe_serve::PlanService
    pub(crate) fn to_json(&self, cache: &CacheStats, queue_depth: usize) -> JsonValue {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let uptime = self.uptime_s();
        let plans = load(&self.plans_total);
        JsonValue::Object(vec![
            ("uptime_s".to_owned(), JsonValue::Num(uptime)),
            (
                "requests_total".to_owned(),
                JsonValue::UInt(load(&self.requests_total)),
            ),
            (
                "responses_200".to_owned(),
                JsonValue::UInt(load(&self.ok_200)),
            ),
            (
                "responses_4xx".to_owned(),
                JsonValue::UInt(load(&self.client_errors)),
            ),
            (
                "responses_500".to_owned(),
                JsonValue::UInt(load(&self.server_errors)),
            ),
            (
                "shed_503_total".to_owned(),
                JsonValue::UInt(load(&self.shed_total)),
            ),
            (
                "rate_limited_429_total".to_owned(),
                JsonValue::UInt(load(&self.rate_limited_total)),
            ),
            ("plans_total".to_owned(), JsonValue::UInt(plans)),
            (
                "sweeps_total".to_owned(),
                JsonValue::UInt(load(&self.sweeps_total)),
            ),
            (
                "simulations_total".to_owned(),
                JsonValue::UInt(load(&self.simulations_total)),
            ),
            (
                "plans_per_s".to_owned(),
                JsonValue::Num(plans as f64 / uptime.max(1e-9)),
            ),
            (
                "in_flight".to_owned(),
                JsonValue::UInt(self.in_flight.load(Ordering::Relaxed) as u64),
            ),
            (
                "open_connections".to_owned(),
                JsonValue::UInt(self.open_connections.load(Ordering::Relaxed) as u64),
            ),
            (
                "queue_depth".to_owned(),
                JsonValue::UInt(queue_depth as u64),
            ),
            (
                "cache".to_owned(),
                JsonValue::Object(vec![
                    ("hits".to_owned(), JsonValue::UInt(cache.hits)),
                    ("misses".to_owned(), JsonValue::UInt(cache.misses)),
                    ("hit_rate".to_owned(), JsonValue::Num(cache.hit_rate())),
                    ("entries".to_owned(), JsonValue::UInt(cache.entries as u64)),
                    ("evictions".to_owned(), JsonValue::UInt(cache.evictions)),
                    ("uncached".to_owned(), JsonValue::UInt(cache.uncached)),
                ]),
            ),
            ("plan_latency".to_owned(), self.plan_latency.to_json()),
        ])
    }

    /// The whole registry in the Prometheus text exposition format
    /// (version 0.0.4), served by `GET /metrics?format=prometheus`.
    /// Counters get a `_total` suffix, gauges none, and the plan latency
    /// histogram is rendered with cumulative `le` buckets in seconds.
    pub(crate) fn to_prometheus(&self, cache: &CacheStats, queue_depth: usize) -> String {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut out = String::with_capacity(2048);
        let mut scalar = |name: &str, kind: &str, help: &str, value: String| {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        };
        let counters: [(&str, &str, u64); 10] = [
            (
                "dpipe_requests_total",
                "Requests fully parsed off the wire.",
                load(&self.requests_total),
            ),
            (
                "dpipe_responses_200_total",
                "Responses with status 200.",
                load(&self.ok_200),
            ),
            (
                "dpipe_responses_4xx_total",
                "Responses with a 4xx status.",
                load(&self.client_errors),
            ),
            (
                "dpipe_responses_500_total",
                "Responses with status 500.",
                load(&self.server_errors),
            ),
            (
                "dpipe_shed_503_total",
                "Requests shed by admission control with 503.",
                load(&self.shed_total),
            ),
            (
                "dpipe_rate_limited_429_total",
                "Requests rejected by the per-client rate limiter.",
                load(&self.rate_limited_total),
            ),
            (
                "dpipe_plans_total",
                "Successful POST /plan responses.",
                load(&self.plans_total),
            ),
            (
                "dpipe_sweeps_total",
                "Successful POST /sweep responses.",
                load(&self.sweeps_total),
            ),
            (
                "dpipe_simulations_total",
                "Successful POST /simulate responses.",
                load(&self.simulations_total),
            ),
            (
                "dpipe_cache_evictions_total",
                "Plan cache LRU evictions.",
                cache.evictions,
            ),
        ];
        for (name, help, value) in counters {
            scalar(name, "counter", help, value.to_string());
        }
        let gauges: [(&str, &str, f64); 7] = [
            (
                "dpipe_uptime_seconds",
                "Seconds since the server started.",
                self.uptime_s(),
            ),
            (
                "dpipe_in_flight_requests",
                "Requests currently being handled.",
                self.in_flight.load(Ordering::Relaxed) as f64,
            ),
            (
                "dpipe_open_connections",
                "Connections currently open.",
                self.open_connections.load(Ordering::Relaxed) as f64,
            ),
            (
                "dpipe_plan_queue_depth",
                "Plan jobs queued or planning.",
                queue_depth as f64,
            ),
            (
                "dpipe_cache_entries",
                "Plans resident in the cache.",
                cache.entries as f64,
            ),
            ("dpipe_cache_hits", "Plan cache hits.", cache.hits as f64),
            (
                "dpipe_cache_misses",
                "Plan cache misses.",
                cache.misses as f64,
            ),
        ];
        for (name, help, value) in gauges {
            scalar(name, "gauge", help, format_prom_f64(value));
        }
        let name = "dpipe_plan_latency_seconds";
        out.push_str(&format!(
            "# HELP {name} End-to-end POST /plan service time.\n# TYPE {name} histogram\n"
        ));
        for (bound, cumulative) in self.plan_latency.cumulative_buckets_s() {
            let le = if bound.is_infinite() {
                "+Inf".to_owned()
            } else {
                format_prom_f64(bound)
            };
            out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!(
            "{name}_sum {}\n",
            format_prom_f64(self.plan_latency.sum_us() as f64 / 1e6)
        ));
        out.push_str(&format!("{name}_count {}\n", self.plan_latency.count()));
        out
    }
}

/// Prometheus floats: plain decimal, no exponent for the magnitudes we
/// emit, and integral values without a trailing `.0` (both are accepted,
/// but the integer form matches common exposition output).
fn format_prom_f64(value: f64) -> String {
    if value == value.trunc() && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        let s = format!("{value:.9}");
        s.trim_end_matches('0').trim_end_matches('.').to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_us(0.5), 0);
        // 90 fast (≤100 µs bucket), 10 slow (≤50 ms bucket).
        for _ in 0..90 {
            h.record_us(80);
        }
        for _ in 0..10 {
            h.record_us(42_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.50), 100);
        assert_eq!(h.quantile_us(0.99), 50_000);
        let json = h.to_json().to_string();
        assert!(json.contains("\"p99_ms\":50"), "{json}");
    }

    #[test]
    fn overflow_bucket_reports_observed_max() {
        let h = LatencyHistogram::new();
        h.record_us(99_000_000);
        assert_eq!(h.quantile_us(0.5), 99_000_000);
    }

    #[test]
    fn metrics_json_carries_cache_and_queue() {
        let m = Metrics::new();
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        m.count_status(200);
        m.count_status(503);
        m.count_status(429);
        let cache = CacheStats {
            hits: 5,
            misses: 2,
            entries: 2,
            evictions: 1,
            uncached: 0,
        };
        let doc = m.to_json(&cache, 7).to_string();
        for needle in [
            "\"requests_total\":3",
            "\"responses_200\":1",
            "\"shed_503_total\":1",
            "\"rate_limited_429_total\":1",
            "\"queue_depth\":7",
            "\"hits\":5",
            "\"evictions\":1",
            "\"plan_latency\"",
        ] {
            assert!(doc.contains(needle), "missing {needle} in {doc}");
        }
    }

    #[test]
    fn empty_histogram_reports_zeroes_everywhere() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum_us(), 0);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 0, "q={q}");
        }
        let json = h.to_json().to_string();
        for needle in [
            "\"count\":0",
            "\"mean_ms\":0",
            "\"p50_ms\":0",
            "\"p90_ms\":0",
            "\"p99_ms\":0",
            "\"max_ms\":0",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        let buckets = h.cumulative_buckets_s();
        assert_eq!(buckets.len(), BOUNDS_US.len() + 1);
        assert!(buckets.iter().all(|&(_, n)| n == 0));
        assert!(buckets.last().unwrap().0.is_infinite());
    }

    #[test]
    fn single_sample_histogram_puts_every_quantile_in_its_bucket() {
        let h = LatencyHistogram::new();
        h.record_us(300); // lands in the (200, 500] bucket
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum_us(), 300);
        // With one observation every quantile resolves to the same bucket
        // upper bound, including the degenerate q=0.
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), 500, "q={q}");
        }
        let cumulative: Vec<u64> = h.cumulative_buckets_s().iter().map(|&(_, n)| n).collect();
        // Zero below the bucket, one from the bucket onward.
        assert_eq!(cumulative[2], 0);
        assert!(cumulative[3..].iter().all(|&n| n == 1));
    }

    #[test]
    fn concurrent_increments_lose_nothing() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 500;
        let m = std::sync::Arc::new(Metrics::new());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        m.requests_total.fetch_add(1, Ordering::Relaxed);
                        m.count_status(if (t + i) % 2 == 0 { 200 } else { 503 });
                        m.plan_latency.record_us(100 * (1 + (i % 10) as u64));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let total = (THREADS * PER_THREAD) as u64;
        assert_eq!(m.requests_total.load(Ordering::Relaxed), total);
        assert_eq!(
            m.ok_200.load(Ordering::Relaxed) + m.shed_total.load(Ordering::Relaxed),
            total
        );
        assert_eq!(m.plan_latency.count(), total);
        let (_, inf_count) = *m.plan_latency.cumulative_buckets_s().last().unwrap();
        assert_eq!(inf_count, total);
    }

    /// A hand-rolled lint for the Prometheus text exposition format: every
    /// sample line must parse as `name{labels} value`, every series must be
    /// preceded by HELP/TYPE for its family, histogram buckets must be
    /// cumulative and end at `+Inf == _count`.
    #[test]
    fn prometheus_exposition_passes_text_format_lint() {
        let m = Metrics::new();
        m.requests_total.fetch_add(4, Ordering::Relaxed);
        m.count_status(200);
        m.count_status(429);
        m.plan_latency.record_us(80);
        m.plan_latency.record_us(42_000);
        let cache = CacheStats {
            hits: 3,
            misses: 1,
            entries: 1,
            evictions: 0,
            uncached: 0,
        };
        let text = m.to_prometheus(&cache, 2);
        assert!(text.ends_with('\n'), "exposition must end with a newline");

        // (metric name, label k/v pairs, value)
        type Sample = (String, Vec<(String, String)>, f64);
        let mut typed: std::collections::HashMap<String, String> = Default::default();
        let mut samples: Vec<Sample> = Vec::new();
        for line in text.lines() {
            assert!(!line.trim().is_empty(), "blank line in exposition");
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE line shape");
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "bad metric type {kind}"
                );
                typed.insert(name.to_owned(), kind.to_owned());
                continue;
            }
            if line.starts_with("# HELP ") {
                continue;
            }
            assert!(!line.starts_with('#'), "unknown comment line: {line}");
            let (series, value) = line.rsplit_once(' ').expect("sample line shape");
            let (name, labels) = match series.split_once('{') {
                Some((name, rest)) => {
                    let body = rest.strip_suffix('}').expect("unterminated label set");
                    let labels = body
                        .split(',')
                        .map(|kv| {
                            let (k, v) = kv.split_once('=').expect("label shape");
                            let v = v
                                .strip_prefix('"')
                                .and_then(|v| v.strip_suffix('"'))
                                .expect("label value must be quoted");
                            (k.to_owned(), v.to_owned())
                        })
                        .collect();
                    (name.to_owned(), labels)
                }
                None => (series.to_owned(), Vec::new()),
            };
            let value: f64 = if value == "+Inf" {
                f64::INFINITY
            } else {
                value
                    .parse()
                    .unwrap_or_else(|_| panic!("bad value {value}"))
            };
            let family = name
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            assert!(
                typed.contains_key(&name) || typed.contains_key(family),
                "sample {name} has no TYPE"
            );
            samples.push((name, labels, value));
        }

        // Histogram invariants: buckets cumulative, +Inf equals _count.
        let buckets: Vec<&Sample> = samples
            .iter()
            .filter(|(n, _, _)| n == "dpipe_plan_latency_seconds_bucket")
            .collect();
        assert!(!buckets.is_empty());
        let mut last = 0.0;
        for (_, labels, value) in &buckets {
            assert_eq!(labels.len(), 1);
            assert_eq!(labels[0].0, "le");
            assert!(*value >= last, "buckets must be cumulative");
            last = *value;
        }
        assert_eq!(buckets.last().unwrap().1[0].1, "+Inf");
        let count = samples
            .iter()
            .find(|(n, _, _)| n == "dpipe_plan_latency_seconds_count")
            .expect("_count sample")
            .2;
        assert_eq!(buckets.last().unwrap().2, count);
        assert_eq!(count, 2.0);

        for needle in ["dpipe_requests_total 4", "dpipe_plan_queue_depth 2"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }
}
