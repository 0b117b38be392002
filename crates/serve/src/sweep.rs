//! Parallel configuration sweeps: a declarative [`SweepSpec`] (template
//! spec + axes) fanned across the service and ranked deterministically.

use crate::request::PlanRequest;
use crate::service::{PlanOutcome, PlanService};
use diffusionpipe_core::plan_json;
use dpipe_spec::json::JsonValue;
use dpipe_spec::{cluster_label, SpecError, SweepSpec};
use std::cmp::Ordering;
use std::fmt::Write as _;
use std::sync::Arc;

/// Materialises a sweep as requests, in deterministic model-major /
/// cluster / batch-minor order.
///
/// # Errors
///
/// The first axis point that fails to resolve (unknown zoo model, bad
/// machine spec).
fn requests(sweep: &SweepSpec) -> Result<Vec<PlanRequest>, SpecError> {
    sweep
        .specs()?
        .into_iter()
        .map(PlanRequest::from_spec)
        .collect()
}

impl PlanService {
    /// Fans every point of `sweep` across the worker pool and returns the
    /// ranked report. The cluster axis takes GPU counts *and* mixed-fleet
    /// machine specs like `a100:4,h100:4`, so heterogeneous fleets sweep
    /// like any other point.
    ///
    /// # Errors
    ///
    /// The first axis point that fails to resolve (unknown zoo model, bad
    /// machine spec); nothing is planned then.
    pub fn sweep(&self, sweep: &SweepSpec) -> Result<SweepReport, SpecError> {
        let requests = requests(sweep)?;
        let responses = self.plan_batch(requests.clone());
        let points = requests
            .iter()
            .zip(responses)
            .map(|(r, resp)| SweepPoint::at(r, resp.fingerprint, resp.cache_hit, resp.outcome))
            .collect();
        Ok(SweepReport::ranked(points))
    }
}

/// One evaluated grid point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Model name.
    pub model: String,
    /// Total GPU count.
    pub gpus: usize,
    /// Cluster label: `16gpu` for homogeneous shapes, the `a100:4,h100:4`
    /// class spec for mixed fleets.
    pub cluster: String,
    /// Global batch size.
    pub global_batch: u32,
    /// Request fingerprint (the cache key).
    pub fingerprint: u64,
    /// Whether the service answered from its cache.
    pub cache_hit: bool,
    /// The plan or the planning error.
    pub outcome: PlanOutcome,
}

impl SweepPoint {
    /// The point `request` stands for, with how it was answered.
    fn at(request: &PlanRequest, fingerprint: u64, cache_hit: bool, outcome: PlanOutcome) -> Self {
        SweepPoint {
            model: request.model().name.clone(),
            gpus: request.cluster().world_size(),
            cluster: cluster_label(request.cluster()),
            global_batch: request.global_batch(),
            fingerprint,
            cache_hit,
            outcome,
        }
    }

    /// Simulated cluster throughput, if planning succeeded.
    pub fn throughput(&self) -> Option<f64> {
        self.outcome.as_ref().ok().map(|p| p.throughput)
    }

    /// Residual bubble ratio, if planning succeeded.
    pub fn bubble_ratio(&self) -> Option<f64> {
        self.outcome.as_ref().ok().map(|p| p.bubble_ratio)
    }

    /// `model × cluster × batch` coordinates as a display string
    /// (`sd@16gpu/b128`, `sd@a100:2,h100:2/b128`).
    pub fn coords(&self) -> String {
        format!("{}@{}/b{}", self.model, self.cluster, self.global_batch)
    }
}

/// Sweep outcomes ranked best-first.
///
/// Feasible points come first, ordered by throughput (descending), then
/// bubble ratio (ascending), then coordinates — a total order, so a
/// parallel sweep ranks identically to a sequential one.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// All evaluated points, best first; infeasible points at the end.
    pub points: Vec<SweepPoint>,
}

impl SweepReport {
    /// Plans every point of `sweep` on the calling thread with no service
    /// and no cache: the reference a parallel [`PlanService::sweep`] must
    /// reproduce exactly.
    ///
    /// # Errors
    ///
    /// See [`PlanService::sweep`].
    pub fn sequential(sweep: &SweepSpec) -> Result<SweepReport, SpecError> {
        let points = requests(sweep)?
            .iter()
            .map(|r| SweepPoint::at(r, r.fingerprint(), false, r.plan().map(Arc::new)))
            .collect();
        Ok(SweepReport::ranked(points))
    }

    fn ranked(mut points: Vec<SweepPoint>) -> Self {
        points.sort_by(Self::rank);
        SweepReport { points }
    }

    fn rank(a: &SweepPoint, b: &SweepPoint) -> Ordering {
        // `sort_by` requires a *total* order: `partial_cmp(..).unwrap_or`
        // on raw floats is not one (NaN compares "equal" to everything,
        // breaking transitivity), and unwrapping an absent bubble ratio
        // panics mid-sort. Normalise both metrics to values `f64::total_cmp`
        // orders deterministically instead: a missing or NaN throughput
        // ranks as worst-possible, a missing or NaN bubble ratio likewise.
        fn worst_if_nan(x: Option<f64>, worst: f64) -> f64 {
            match x {
                Some(v) if !v.is_nan() => v,
                _ => worst,
            }
        }
        let key = |p: &SweepPoint| (p.model.clone(), p.gpus, p.cluster.clone(), p.global_batch);
        let feasible = |p: &SweepPoint| p.outcome.is_ok();
        // Feasible points strictly before infeasible ones, regardless of
        // what their metrics contain.
        feasible(b)
            .cmp(&feasible(a))
            .then_with(|| {
                let (ta, tb) = (
                    worst_if_nan(a.throughput(), f64::NEG_INFINITY),
                    worst_if_nan(b.throughput(), f64::NEG_INFINITY),
                );
                tb.total_cmp(&ta)
            })
            .then_with(|| {
                let (ra, rb) = (
                    worst_if_nan(a.bubble_ratio(), f64::INFINITY),
                    worst_if_nan(b.bubble_ratio(), f64::INFINITY),
                );
                ra.total_cmp(&rb)
            })
            .then_with(|| key(a).cmp(&key(b)))
    }

    /// The best feasible point, if any.
    pub fn best(&self) -> Option<&SweepPoint> {
        self.points.first().filter(|p| p.outcome.is_ok())
    }

    /// The best feasible point for each model, in overall rank order.
    pub fn best_per_model(&self) -> Vec<&SweepPoint> {
        let mut seen: Vec<&str> = Vec::new();
        let mut out = Vec::new();
        for p in self.points.iter().filter(|p| p.outcome.is_ok()) {
            if !seen.contains(&p.model.as_str()) {
                seen.push(&p.model);
                out.push(p);
            }
        }
        out
    }

    /// Fraction of points answered from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().filter(|p| p.cache_hit).count() as f64 / self.points.len() as f64
    }

    /// Renders the ranked table as human-readable text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<4} {:<28} {:>16} {:>7} {:>12} {:>9} {:>5}",
            "rank", "model", "cluster", "batch", "samples/s", "bubbles", "hit"
        );
        for (i, p) in self.points.iter().enumerate() {
            match &p.outcome {
                Ok(plan) => {
                    let _ = writeln!(
                        out,
                        "{:<4} {:<28} {:>16} {:>7} {:>12.1} {:>8.1}% {:>5}",
                        i + 1,
                        p.model,
                        p.cluster,
                        p.global_batch,
                        plan.throughput,
                        plan.bubble_ratio * 100.0,
                        if p.cache_hit { "yes" } else { "no" }
                    );
                }
                Err(e) => {
                    let _ = writeln!(
                        out,
                        "{:<4} {:<28} {:>16} {:>7} {:>12} ({e})",
                        i + 1,
                        p.model,
                        p.cluster,
                        p.global_batch,
                        "-"
                    );
                }
            }
        }
        out
    }

    /// The report as a JSON value (see [`dpipe_spec::json`]).
    pub fn to_json(&self) -> JsonValue {
        let points = self
            .points
            .iter()
            .map(|p| {
                let mut fields = vec![
                    ("model".to_owned(), JsonValue::Str(p.model.clone())),
                    ("gpus".to_owned(), JsonValue::UInt(p.gpus as u64)),
                    ("cluster".to_owned(), JsonValue::Str(p.cluster.clone())),
                    (
                        "global_batch".to_owned(),
                        JsonValue::UInt(u64::from(p.global_batch)),
                    ),
                    (
                        "fingerprint".to_owned(),
                        JsonValue::Str(format!("{:016x}", p.fingerprint)),
                    ),
                    ("cache_hit".to_owned(), JsonValue::Bool(p.cache_hit)),
                ];
                match &p.outcome {
                    Ok(plan) => fields.push(("plan".to_owned(), plan_json(plan))),
                    Err(e) => fields.push(("error".to_owned(), JsonValue::Str(e.to_string()))),
                }
                JsonValue::Object(fields)
            })
            .collect();
        JsonValue::Object(vec![
            (
                "points".to_owned(),
                JsonValue::UInt(self.points.len() as u64),
            ),
            (
                "cache_hit_rate".to_owned(),
                JsonValue::Num(self.cache_hit_rate()),
            ),
            ("ranking".to_owned(), JsonValue::Array(points)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use dpipe_spec::{cluster_for_gpus, ClusterAxis, ModelRef, PlanSpec};

    /// Zoo models × GPU counts × batches over a default template.
    fn grid(models: &[&str], gpus: &[usize], batches: &[u32]) -> SweepSpec {
        SweepSpec::new(PlanSpec::zoo(
            models[0],
            cluster_for_gpus(gpus[0]),
            batches[0],
        ))
        .with_models(
            models
                .iter()
                .map(|&m| ModelRef::Zoo(m.to_owned()))
                .collect(),
        )
        .with_clusters(gpus.iter().map(|&g| ClusterAxis::GpuCount(g)).collect())
        .with_batches(batches.to_vec())
    }

    #[test]
    fn cluster_for_picks_shapes() {
        // GPU-count axis points plan on `cluster_for_gpus` shapes; 12 is
        // not a multiple of 8, so it is one wide machine.
        let shapes: Vec<_> = requests(&grid(&["sd"], &[4, 16, 12], &[64]))
            .unwrap()
            .iter()
            .map(|r| (r.cluster().machines, r.cluster().world_size()))
            .collect();
        assert_eq!(shapes, vec![(1, 4), (2, 16), (1, 12)]);
    }

    #[test]
    fn grid_is_cartesian_and_deterministic() {
        let grid = grid(&["sd", "dit"], &[4, 8], &[64, 128]);
        assert_eq!(grid.len(), 8);
        let fps = |g: &SweepSpec| -> Vec<u64> {
            requests(g)
                .unwrap()
                .iter()
                .map(|r| r.fingerprint())
                .collect()
        };
        let a = fps(&grid);
        let b = fps(&grid);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 8, "grid points must have distinct keys");
    }

    #[test]
    fn mixed_fleet_axis_points_sweep() {
        let template = PlanSpec::zoo("sd", cluster_for_gpus(8), 64);
        let grid = SweepSpec::new(template)
            .with_clusters(vec![
                ClusterAxis::GpuCount(8),
                ClusterAxis::MachineClasses("a100:1,h100:1".to_owned()),
            ])
            .with_batches(vec![64]);
        assert_eq!(grid.len(), 2);
        let requests = requests(&grid).unwrap();
        assert!(!requests[0].cluster().is_heterogeneous());
        assert!(requests[1].cluster().is_heterogeneous());
        assert_ne!(requests[0].fingerprint(), requests[1].fingerprint());

        let service = PlanService::new(ServiceConfig {
            workers: 2,
            cache_shards: 4,
            ..ServiceConfig::default()
        });
        let report = service.sweep(&grid).unwrap();
        assert_eq!(report.points.len(), 2);
        assert!(report.points.iter().all(|p| p.outcome.is_ok()));
        let mixed = report
            .points
            .iter()
            .find(|p| p.cluster == "a100:1,h100:1")
            .expect("mixed point in report");
        assert!(mixed.coords().contains("a100:1,h100:1"));
        let text = report.render_text();
        assert!(text.contains("a100:1,h100:1"), "{text}");
    }

    #[test]
    fn bad_axis_points_are_typed_errors() {
        let template = PlanSpec::zoo("sd", cluster_for_gpus(8), 64);
        let grid = SweepSpec::new(template.clone())
            .with_clusters(vec![ClusterAxis::MachineClasses("v100:2".to_owned())]);
        assert_eq!(
            SweepReport::sequential(&grid).unwrap_err(),
            SpecError::UnknownClass("v100".to_owned())
        );
        let grid =
            SweepSpec::new(template).with_models(vec![ModelRef::Zoo("warpdrive".to_owned())]);
        assert_eq!(
            requests(&grid).unwrap_err(),
            SpecError::UnknownModel("warpdrive".to_owned())
        );
    }

    #[test]
    fn ranking_is_total_and_panic_free_with_nan_metrics() {
        use diffusionpipe_core::{PlanError, Planner};
        use dpipe_cluster::ClusterSpec;
        use dpipe_model::zoo;

        let base = Planner::new(zoo::stable_diffusion_v2_1(), ClusterSpec::single_node(8))
            .plan(64)
            .unwrap();
        let point = |name: &str, throughput: f64, bubble_ratio: f64| {
            let mut plan = base.clone();
            plan.throughput = throughput;
            plan.bubble_ratio = bubble_ratio;
            SweepPoint {
                model: name.to_owned(),
                gpus: 8,
                cluster: "8gpu".to_owned(),
                global_batch: 64,
                fingerprint: 0,
                cache_hit: false,
                outcome: Ok(Arc::new(plan)),
            }
        };
        let infeasible = SweepPoint {
            model: "zz-broken".to_owned(),
            gpus: 8,
            cluster: "8gpu".to_owned(),
            global_batch: 64,
            fingerprint: 0,
            cache_hit: false,
            outcome: Err(PlanError::NoFeasibleConfig),
        };
        // NaN throughput, NaN bubble ratio, ordinary points and an
        // infeasible point, shuffled: sorting must not panic, must be a
        // total order (exercised across many permutations by sort_by's
        // internal checks), and must rank NaN metrics as worst-feasible.
        let points = vec![
            point("a-nan-tp", f64::NAN, 0.1),
            point("b-fast", 100.0, 0.1),
            point("c-nan-ratio", 100.0, f64::NAN),
            point("d-slow", 1.0, 0.9),
            infeasible.clone(),
            point("e-nan-both", f64::NAN, f64::NAN),
        ];
        for rotation in 0..points.len() {
            let mut shuffled = points.clone();
            shuffled.rotate_left(rotation);
            let report = SweepReport::ranked(shuffled);
            let order: Vec<&str> = report.points.iter().map(|p| p.model.as_str()).collect();
            // Finite throughput first (NaN ratio loses its tie-break),
            // NaN-throughput points next (by coords), infeasible last.
            assert_eq!(
                order,
                vec![
                    "b-fast",
                    "c-nan-ratio",
                    "d-slow",
                    "a-nan-tp",
                    "e-nan-both",
                    "zz-broken"
                ],
                "rotation {rotation}"
            );
        }
        // The comparator itself is antisymmetric over every pair, NaNs and
        // errors included — the property `sort_by` relies on.
        for x in &points {
            assert_eq!(SweepReport::rank(x, x), Ordering::Equal);
            for y in &points {
                assert_eq!(
                    SweepReport::rank(x, y),
                    SweepReport::rank(y, x).reverse(),
                    "{} vs {}",
                    x.model,
                    y.model
                );
            }
        }
    }

    #[test]
    fn report_ranks_by_throughput_and_finds_best_per_model() {
        let service = PlanService::new(ServiceConfig {
            workers: 2,
            cache_shards: 8,
            ..ServiceConfig::default()
        });
        let report = service
            .sweep(&grid(&["sd", "dit"], &[8], &[64, 128]))
            .unwrap();
        assert_eq!(report.points.len(), 4);
        let tps: Vec<f64> = report
            .points
            .iter()
            .filter_map(|p| p.throughput())
            .collect();
        assert!(tps.windows(2).all(|w| w[0] >= w[1]), "not ranked: {tps:?}");
        let best = report.best_per_model();
        assert_eq!(best.len(), 2);
        assert_ne!(best[0].model, best[1].model);
        let text = report.render_text();
        assert!(text.contains("samples/s"));
        assert!(text.contains("dit-xl-2"));
    }
}
