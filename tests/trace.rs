//! Integration tests for the end-to-end tracing layer: the Chrome
//! trace-event export must be valid JSON with the planner's phase spans on
//! it, the root `plan` span must be almost entirely covered by its phase
//! children (no untraced gaps), and — the invariant everything else leans
//! on — attaching a tracer must never change the selected plan.

use diffusionpipe::prelude::*;
use diffusionpipe::spec::json::{parse, JsonValue};

fn committed_spec() -> PlanSpec {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/specs/sd_8gpu_b256.json"
    ))
    .expect("committed sd spec");
    PlanSpec::from_json(&text).expect("committed spec parses")
}

#[test]
fn chrome_export_is_valid_trace_event_json() {
    let spec = committed_spec();
    let tracer = Tracer::new();
    let request = PlanRequest::from_spec(spec).expect("spec resolves");
    request
        .plan_traced(1, &tracer, None)
        .expect("committed spec plans");
    let trace = tracer.take();
    assert!(!trace.is_empty());

    let doc = parse(&trace.to_chrome_json()).expect("chrome export parses as JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(JsonValue::as_str),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len(), trace.len());
    for event in events {
        // Complete events: the fields chrome://tracing and Perfetto demand.
        assert_eq!(event.get("ph").and_then(JsonValue::as_str), Some("X"));
        assert!(event.get("name").and_then(JsonValue::as_str).is_some());
        assert!(event.get("ts").and_then(JsonValue::as_u64).is_some());
        assert!(event.get("dur").and_then(JsonValue::as_u64).is_some());
        assert!(event.get("pid").and_then(JsonValue::as_u64).is_some());
        assert!(event.get("tid").and_then(JsonValue::as_u64).is_some());
        assert!(event.get("args").and_then(|a| a.get("span_id")).is_some());
    }
    // The planner phases are all on the timeline.
    for name in [
        "plan",
        "validate",
        "profile",
        "enumerate_configs",
        "cost_prefixes",
        "config_search",
        "config",
        "partition",
        "schedule",
        "select",
    ] {
        assert!(trace.find(name).is_some(), "span {name} missing");
    }
}

#[test]
fn plan_span_is_covered_by_phase_children() {
    // A preempted thread opens a gap between child spans that no code
    // caused, so each bound takes the best of three traced plans. A direct
    // child that lost its span leaves the same gap in all three.
    let request = PlanRequest::from_spec(committed_spec()).expect("spec resolves");
    let (mut coverage, mut search_coverage) = (0.0f64, 0.0f64);
    for _ in 0..3 {
        let tracer = Tracer::new();
        request
            .plan_traced(1, &tracer, None)
            .expect("committed spec plans");
        let trace = tracer.take();
        let plan_span = trace.find("plan").expect("plan span");
        coverage = coverage.max(trace.child_coverage(plan_span.id));
        // The same holds one level down: the config search is covered by
        // the per-config spans it fans out.
        let search = trace.find("config_search").expect("config_search span");
        search_coverage = search_coverage.max(trace.child_coverage(search.id));
    }
    assert!(
        coverage >= 0.95,
        "plan span must be >=95% covered by phase children, got {:.1}%",
        coverage * 100.0
    );
    assert!(
        search_coverage >= 0.90,
        "config_search coverage {:.1}%",
        search_coverage * 100.0
    );
}

#[test]
fn tracing_never_changes_the_selected_plan() {
    let spec = committed_spec();
    let untraced = Planner::plan_spec(&spec).expect("untraced plan");
    let tracer = Tracer::new();
    let request = PlanRequest::from_spec(spec).expect("spec resolves");
    let traced = request.plan_traced(1, &tracer, None).expect("traced plan");
    assert_eq!(traced, untraced);
    // The trace really was recorded (it is not equality-by-no-op).
    assert!(tracer.take().len() > 10);
}

#[test]
fn parallel_search_produces_one_connected_trace() {
    let tracer = Tracer::new();
    let request = PlanRequest::from_spec(committed_spec()).expect("spec resolves");
    request
        .plan_traced(3, &tracer, None)
        .expect("committed spec plans");
    let trace = tracer.take();
    // Every config span is parented under the one config_search span, even
    // though they ran on scoped worker threads.
    let search = trace.find("config_search").expect("config_search span");
    let configs: Vec<_> = trace.spans_named("config").collect();
    assert!(!configs.is_empty());
    assert!(configs.iter().all(|c| c.parent == Some(search.id)));
    // More than one worker thread actually recorded spans.
    let threads: std::collections::HashSet<u64> = configs.iter().map(|c| c.thread).collect();
    assert!(
        threads.len() > 1,
        "expected config spans from multiple workers, got {threads:?}"
    );
}
