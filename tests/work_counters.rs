//! Work-counter golden: how much search work a cold plan does, counted
//! exactly instead of timed.
//!
//! Plans the `plan_cold` benchmark's specs (every golden shape of
//! `tests/goldens/plan_summaries.txt` plus the committed mixed A100/H100
//! fleet) with one search worker and writes one line of [`PlanStats`]
//! counters per spec, then a total line. The lines must equal
//! `tests/goldens/work_counters.txt`, so any change to planner work shows
//! up as a diff of that file. Counts are pinned at parallelism 1 only:
//! with more workers each keeps its own incumbent, and the skip counters
//! depend on thread timing. Regenerate deliberately with
//! `DPIPE_UPDATE_GOLDENS=1`.

use diffusionpipe::core::{PlanStats, Planner};

mod common;

const GOLDEN_PATH: &str = "tests/goldens/work_counters.txt";

fn counter_line(label: &str, s: &PlanStats) -> String {
    format!(
        "{label}\tconfigs={} bound_skipped={} partitions={} dp_candidates={} dp_pruned={} \
         dp_priced={} floor_skipped={} schedules={} fills={} fill_skipped={} feasible={}",
        s.configs,
        s.bound_skipped,
        s.partitions_run,
        s.dp.candidates,
        s.dp.pruned,
        s.dp.priced,
        s.floor_skipped,
        s.schedules_built,
        s.fills_run,
        s.fill_skipped,
        s.feasible,
    )
}

#[test]
fn work_counters_match_committed_file() {
    let mut lines = Vec::new();
    let mut total = PlanStats::default();
    for (label, spec) in common::plan_cold_cases() {
        let planner = Planner::from_spec(&spec)
            .expect("spec resolves")
            .with_parallelism(1);
        let (_, stats) = planner
            .plan_with_stats(spec.global_batch)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(stats.parallelism, 1);
        lines.push(counter_line(&label, &stats));
        total.configs += stats.configs;
        total.bound_skipped += stats.bound_skipped;
        total.partitions_run += stats.partitions_run;
        total.dp.merge(&stats.dp);
        total.floor_skipped += stats.floor_skipped;
        total.schedules_built += stats.schedules_built;
        total.fills_run += stats.fills_run;
        total.fill_skipped += stats.fill_skipped;
        total.feasible += stats.feasible;
    }
    lines.push(counter_line(
        &format!("total ({} specs)", lines.len()),
        &total,
    ));
    let rendered = format!("{}\n", lines.join("\n"));

    if std::env::var("DPIPE_UPDATE_GOLDENS").is_ok() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write work-counter golden");
        return;
    }
    let committed = std::fs::read_to_string(GOLDEN_PATH)
        .expect("committed work counters present; regenerate with DPIPE_UPDATE_GOLDENS=1");
    let committed_lines: Vec<&str> = committed.lines().collect();
    assert_eq!(committed_lines.len(), lines.len(), "spec count drifted");
    for (got, want) in lines.iter().zip(committed_lines) {
        assert_eq!(got, want, "planner work drifted from the committed counts");
    }
}
