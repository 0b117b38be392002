//! `plan_cold`: the `dpipe plan --spec --json` path in process, one thread,
//! closed loop. Each op decodes a spec document, builds the planner with
//! one search worker, plans, and renders the response document to bytes.

use crate::calib;
use crate::fold::{layer_metrics, Fold, LayerInputs, SearchCounts};
use crate::specs::{self, Case};
use crate::stats::{at_reference, median, peak_rss_mb, pooled, Slice};
use crate::{Args, Metric, Outcome};
use diffusionpipe_core::{Plan, PlanStats, Planner};
use dpipe_serve::json::plan_response_doc;
use dpipe_serve::PlanRequest;
use dpipe_spec::PlanSpec;
use dpipe_trace::Tracer;
use std::time::Instant;

/// Passes per trial at least, so that even a short run holds the 100 ops
/// its p90 needs.
const MIN_PASSES: usize = 2;
/// Planned untimed in set-up, one per zoo model (single-backbone and
/// bidirectional), so the timed window starts warm.
const WARMUP_GPUS: usize = 8;
const WARMUP_BATCH: &str = "/b64";

/// One op. Returns the plan, its search counters and the rendered size.
/// The bench's own `decode` span covers the spec document and the planner
/// built from it, `render` the response document; the planner's spans nest
/// under the same `op` root.
fn plan_op(json: &str, tracer: &Tracer) -> Result<(Plan, PlanStats, usize), String> {
    let root = tracer.span("op");
    let root_id = root.id();
    let decode = tracer.child_span("decode", root_id);
    let spec = PlanSpec::from_json(json).map_err(|e| e.to_string())?;
    let planner = Planner::from_spec(&spec).map_err(|e| e.to_string())?;
    decode.finish();
    let (plan, stats) = planner
        .with_tracer(tracer.clone())
        .with_trace_parent(root_id)
        .plan_with_stats(spec.global_batch)
        .map_err(|e| e.to_string())?;
    let render = tracer.child_span("render", root_id);
    let request = PlanRequest::from_spec(spec.clone()).map_err(|e| e.to_string())?;
    let bytes = format!("{}\n", plan_response_doc(&spec, &request, &plan)).into_bytes();
    render.finish();
    root.finish();
    Ok((plan, stats, std::hint::black_box(bytes).len()))
}

/// One timed window over whole passes of the case list.
#[derive(Default)]
struct Phase {
    /// One slice per pass: correct ops, wall time, their latencies.
    passes: Vec<Slice>,
    counts: SearchCounts,
    fold: Fold,
}

/// First plan summary and throughput seen per case.
struct Seen {
    summary: Vec<Option<String>>,
    throughput: Vec<f64>,
}

/// Plans whole passes over `cases` for `seconds`, into `phase`.
fn measure(
    cases: &[Case],
    seconds: f64,
    traced: bool,
    seen: &mut Seen,
    out: &mut Outcome,
    phase: &mut Phase,
) {
    let start = Instant::now();
    let first_pass = phase.passes.len();
    loop {
        let mut pass = Slice::default();
        let pass_start = Instant::now();
        let mut calibrating = 0.0;
        for (i, case) in cases.iter().enumerate() {
            let tracer = if traced { Tracer::new() } else { Tracer::off() };
            let t = Instant::now();
            let result = plan_op(&case.json, &tracer);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1;
            match result {
                Ok((plan, stats, _)) => {
                    // Oracle, outside the timed op: the committed golden
                    // line, or (mixed fleet) the first plan, which is checked
                    // against the reference planner after the window.
                    let summary = plan.summary();
                    let want = case.expected_summary.as_ref().or(seen.summary[i].as_ref());
                    if want.is_some_and(|w| *w != summary) {
                        out.fail(format!("{}: plan `{summary}` != expected", case.label));
                    } else {
                        pass.ops += 1;
                        pass.latency.push(ms);
                    }
                    if seen.summary[i].is_none() {
                        seen.summary[i] = Some(summary);
                        seen.throughput[i] = plan.throughput;
                    }
                    phase.counts.configs += stats.configs as f64;
                    phase.counts.feasible += stats.feasible as f64;
                    phase.counts.candidates += stats.dp.candidates as f64;
                    phase.counts.pruned += stats.dp.pruned as f64;
                }
                Err(e) => out.fail(format!("{}: {e}", case.label)),
            }
            if traced {
                phase.fold.add(&tracer.take().spans);
            }
            calibrating += pass.speed.sample(1);
        }
        pass.seconds = pass_start.elapsed().as_secs_f64() - calibrating;
        phase.passes.push(pass);
        if start.elapsed().as_secs_f64() >= seconds && phase.passes.len() - first_pass >= MIN_PASSES
        {
            break;
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut cases = Vec::new();
    let mut seen = None;
    let (mut untraced, mut traced) = (Phase::default(), Phase::default());
    let trials = crate::trials(args.trace);
    for trial in 0..trials {
        let (generated, setup) = calib::timed(|| {
            let cases = specs::plan_cold_cases(args.seed)?;
            for warmup in cases
                .iter()
                .filter(|c| c.gpus == WARMUP_GPUS && c.label.ends_with(WARMUP_BATCH))
            {
                plan_op(&warmup.json, &Tracer::off())?;
            }
            Ok(cases)
        })?;
        cases = generated;
        setups.push(setup);
        let seen = seen.get_or_insert_with(|| Seen {
            summary: vec![None; cases.len()],
            throughput: vec![0.0; cases.len()],
        });
        let is_traced = crate::traced_trial(args.trace, trial);
        let phase = if is_traced {
            &mut traced
        } else {
            &mut untraced
        };
        let per = args.seconds / trials as f64;
        measure(&cases, per, is_traced, seen, &mut out, phase);
    }
    let seen = seen.ok_or("no trial ran")?;
    let rss = peak_rss_mb()?;

    // Mixed-fleet oracle: the reference planner, after the timed window.
    for (i, case) in cases.iter().enumerate() {
        if case.expected_summary.is_some() {
            continue;
        }
        let spec = PlanSpec::from_json(&case.json).map_err(|e| e.to_string())?;
        let reference = Planner::from_spec(&spec)
            .and_then(|p| p.plan_reference(spec.global_batch))
            .map_err(|e| format!("{}: reference planner: {e}", case.label))?
            .summary();
        if seen.summary[i].as_deref() != Some(reference.as_str()) {
            out.fail(format!("{}: plan differs from plan_reference", case.label));
        }
    }

    // The paper's own end-to-end figure: the chosen plans' throughput.
    let geo = (seen
        .throughput
        .iter()
        .map(|t| t.max(1e-300).ln())
        .sum::<f64>()
        / seen.throughput.len().max(1) as f64)
        .exp();
    println!(
        "planned_samples_per_s {geo:.4} samples/s (geometric mean over {} specs)",
        cases.len()
    );
    let passes = untraced.passes.len();
    let mut raw = pooled(&untraced.passes);
    println!(
        "raw: {passes} passes, {:.4} ops/s, p50 {:.4} ms, p90 {:.4} ms (n={})",
        raw.ops as f64 / raw.seconds,
        raw.latency.percentile(0.5),
        raw.latency.percentile(0.9),
        raw.latency.len()
    );
    let mut window = at_reference(&untraced.passes);
    let n = window.latency.len();
    println!(
        "reported: every pass at the reference host speed (host speed x{:.3} median, x{:.3}..x{:.3} over passes)",
        window.speed.scale(),
        untraced.passes.iter().map(|p| p.speed.scale()).fold(f64::INFINITY, f64::min),
        untraced.passes.iter().map(|p| p.speed.scale()).fold(0.0, f64::max),
    );
    for (name, q) in [("latency_p50_ms", 0.5), ("latency_p90_ms", 0.9)] {
        if !args.trace && !window.latency.reportable(q) {
            out.errors
                .push(format!("{name}: fewer than ten samples beyond it (n={n})"));
        }
    }
    out.end_to_end = vec![
        Metric::new("setup_s", median(&setups), "s", Some(setups.len())),
        Metric::new(
            "ops_per_s",
            window.ops as f64 / window.seconds,
            "ops/s",
            Some(window.ops as usize),
        ),
        Metric::new(
            "latency_p50_ms",
            window.latency.percentile(0.5),
            "ms",
            Some(n),
        ),
        Metric::new(
            "latency_tail_ms",
            window.latency.percentile(0.9),
            "ms",
            Some(n),
        ),
        Metric::new("peak_rss_mb", rss, "MB", None),
    ];
    println!("latency_tail_ms is the p90 of cold plans; latency_p50_ms their median");

    if args.trace {
        traced.fold.print_self_times();
        let traced_window = at_reference(&traced.passes);
        out.per_layer = layer_metrics(
            &traced.fold,
            &LayerInputs {
                counts: traced.counts,
                client: None,
                cache: (0.0, 0.0, 0.0),
                non200: 0,
                overhead_frac: traced_window.latency.mean() / window.latency.mean() - 1.0,
                gen_lag_p99_ms: 0.0,
            },
        );
    }
    out.record = vec![
        ("specs", cases.len().to_string()),
        (
            "spec_digest",
            format!("{:016x}", specs::digest(cases.iter().map(|c| &c.json))),
        ),
        (
            "spec_order",
            cases
                .iter()
                .map(|c| c.label.as_str())
                .collect::<Vec<_>>()
                .join(","),
        ),
    ];
    Ok(out)
}
