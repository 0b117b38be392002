//! Golden equivalence suite for the optimised planner fast path.
//!
//! The fast planner (prefix-sum cost tables, parent-pointer DPs,
//! branch-and-bound pruning, parallel config search, fill
//! short-circuiting) must produce plans *byte-identical* to the naive
//! reference loop preserved as `Planner::plan_reference`. Two layers of
//! protection:
//!
//! * `golden_summaries_match_committed_file` pins `Plan::summary()` —
//!   including the plan id / fingerprint — for every zoo model ×
//!   {8, 16, 64} devices × {64, 256} global batch against
//!   `tests/goldens/plan_summaries.txt`. Any drift in planner output
//!   fails; regenerate deliberately with `DPIPE_UPDATE_GOLDENS=1`.
//! * `fast_matches_reference_planner_end_to_end` re-derives a subset of
//!   those plans through the reference loop and compares whole plans,
//!   not just the summary.
//!
//! The committed goldens were produced by the reference planner; the fast
//! planner reproducing them *is* the optimisation's correctness proof.

use diffusionpipe::core::Planner;
use diffusionpipe::model::ModelSpec;
use diffusionpipe::prelude::*;

const GOLDEN_PATH: &str = "tests/goldens/plan_summaries.txt";
const DEVICE_COUNTS: [usize; 3] = [8, 16, 64];
const BATCHES: [u32; 2] = [64, 256];

fn zoo_models() -> Vec<(&'static str, ModelSpec)> {
    vec![
        ("sd", zoo::stable_diffusion_v2_1()),
        ("controlnet", zoo::controlnet_v1_0()),
        ("cdm-lsun", zoo::cdm_lsun()),
        ("cdm-imagenet", zoo::cdm_imagenet()),
        ("dit", zoo::dit_xl_2()),
        ("sdxl", zoo::sdxl_base()),
        ("imagen", zoo::imagen_base()),
    ]
}

fn cluster_for(gpus: usize) -> ClusterSpec {
    if gpus > 8 && gpus.is_multiple_of(8) {
        ClusterSpec::p4de(gpus / 8)
    } else {
        ClusterSpec::single_node(gpus)
    }
}

/// One golden line: `<model>@<gpus>gpu/b<batch>\t<OK summary | ERR error>`.
fn golden_line(name: &str, gpus: usize, batch: u32, planner: &Planner) -> String {
    match planner.plan(batch) {
        Ok(plan) => format!("{name}@{gpus}gpu/b{batch}\tOK\t{}", plan.summary()),
        Err(e) => format!("{name}@{gpus}gpu/b{batch}\tERR\t{e}"),
    }
}

/// Regeneration cross-checks the fast plan against the reference loop, so
/// the committed file always reflects the reference planner's output.
fn checked_golden_line(name: &str, gpus: usize, batch: u32, planner: &Planner) -> String {
    let line = golden_line(name, gpus, batch, planner);
    let reference = match planner.plan_reference(batch) {
        Ok(plan) => format!("{name}@{gpus}gpu/b{batch}\tOK\t{}", plan.summary()),
        Err(e) => format!("{name}@{gpus}gpu/b{batch}\tERR\t{e}"),
    };
    assert_eq!(line, reference, "fast and reference diverged during regen");
    line
}

#[test]
fn golden_summaries_match_committed_file() {
    let update = std::env::var("DPIPE_UPDATE_GOLDENS").is_ok();
    let mut lines = Vec::new();
    for (name, _model) in zoo_models() {
        for gpus in DEVICE_COUNTS {
            for batch in BATCHES {
                // The planner is built from a declarative spec — the grid
                // names *are* zoo references — so matching the committed
                // goldens proves the spec path is byte-identical to the
                // legacy builder path that produced them. Parallelism 2
                // deliberately exercises the threaded search; the output
                // is identical for any worker count.
                let spec = PlanSpec::zoo(name, cluster_for(gpus), batch).with_parallelism(2);
                // An *enabled* tracer rides along on every golden plan:
                // instrumentation must never change the selected plan, and
                // this suite is the byte-identity gate for that claim.
                let planner = Planner::from_spec(&spec)
                    .expect("golden spec resolves")
                    .with_tracer(Tracer::new());
                lines.push(if update {
                    checked_golden_line(name, gpus, batch, &planner)
                } else {
                    golden_line(name, gpus, batch, &planner)
                });
            }
        }
    }
    let rendered = format!("{}\n", lines.join("\n"));

    if update {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write goldens");
        return;
    }
    let committed = std::fs::read_to_string(GOLDEN_PATH)
        .expect("committed goldens present; regenerate with DPIPE_UPDATE_GOLDENS=1");
    let committed_lines: Vec<&str> = committed.lines().collect();
    assert_eq!(
        committed_lines.len(),
        lines.len(),
        "golden line count drifted"
    );
    for (got, want) in lines.iter().zip(committed_lines) {
        assert_eq!(got, want, "plan summary drifted from committed golden");
    }
}

#[test]
fn fast_matches_reference_planner_end_to_end() {
    // Whole-plan equality (partition, schedule, bubbles, fill, metrics) on
    // a cross-section: single-backbone small + large, bidirectional, and a
    // multi-node shape. The reference loop is slow, so the full grid is
    // covered by the summary goldens above instead.
    let cases: [(&str, ModelSpec, usize, u32); 4] = [
        ("sd", zoo::stable_diffusion_v2_1(), 8, 64),
        ("cdm-lsun", zoo::cdm_lsun(), 8, 64),
        ("dit", zoo::dit_xl_2(), 16, 256),
        ("imagen", zoo::imagen_base(), 64, 64),
    ];
    for (name, model, gpus, batch) in cases {
        let planner = Planner::new(model, cluster_for(gpus)).with_parallelism(3);
        let fast = planner.plan(batch).unwrap();
        let reference = planner.plan_reference(batch).unwrap();
        assert_eq!(fast, reference, "{name}@{gpus}/b{batch}");
    }
}

#[test]
fn spec_path_is_byte_identical_to_builder_path() {
    // Cross-section of the golden grid, planned twice: once through the
    // declarative spec (zoo reference + JSON round trip) and once through
    // the legacy builder. Whole plans must match bit for bit.
    let cases: [(&str, ModelSpec, usize, u32); 3] = [
        ("sd", zoo::stable_diffusion_v2_1(), 8, 256),
        ("cdm-lsun", zoo::cdm_lsun(), 8, 64),
        ("sdxl", zoo::sdxl_base(), 16, 128),
    ];
    for (name, model, gpus, batch) in cases {
        let spec = PlanSpec::zoo(name, cluster_for(gpus), batch).with_parallelism(2);
        let reloaded = PlanSpec::from_json(&spec.to_json()).expect("canonical spec parses");
        let via_spec = Planner::plan_spec(&reloaded).unwrap();
        let via_builder = Planner::new(model, cluster_for(gpus))
            .with_parallelism(2)
            .plan(batch)
            .unwrap();
        assert_eq!(via_spec, via_builder, "{name}");
    }
}

#[test]
fn parallelism_never_changes_the_selected_plan() {
    let model = zoo::sdxl_base();
    let cluster = cluster_for(16);
    let baseline = Planner::new(model.clone(), cluster.clone())
        .plan(128)
        .unwrap();
    for workers in [2usize, 5, 32] {
        let plan = Planner::new(model.clone(), cluster.clone())
            .with_parallelism(workers)
            .plan(128)
            .unwrap();
        assert_eq!(plan, baseline, "workers={workers}");
    }
}
