//! The `plan_cold` benchmark's specs, shared by the counter goldens.

use diffusionpipe::prelude::*;

const SUMMARY_PATH: &str = "tests/goldens/plan_summaries.txt";
const MIXED_SPEC: &str = "examples/specs/sd_mixed_a100_h100_b256.json";

fn cluster_for(gpus: usize) -> ClusterSpec {
    if gpus > 8 && gpus.is_multiple_of(8) {
        ClusterSpec::p4de(gpus / 8)
    } else {
        ClusterSpec::single_node(gpus)
    }
}

/// `(label, spec)` for every golden shape of `plan_summaries.txt`, in file
/// order, then the committed mixed A100/H100 fleet.
pub fn plan_cold_cases() -> Vec<(String, PlanSpec)> {
    let summaries = std::fs::read_to_string(SUMMARY_PATH).expect("plan goldens present");
    let mut cases: Vec<(String, PlanSpec)> = summaries
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let label = line.split('\t').next().expect("labelled golden line");
            let (model, rest) = label.split_once('@').expect("model@shape label");
            let (gpus, batch) = rest.split_once("gpu/b").expect("<gpus>gpu/b<batch>");
            let gpus: usize = gpus.parse().expect("gpu count");
            let batch: u32 = batch.parse().expect("batch");
            (
                label.to_owned(),
                PlanSpec::zoo(model, cluster_for(gpus), batch),
            )
        })
        .collect();
    let mixed = std::fs::read_to_string(MIXED_SPEC).expect("mixed spec present");
    cases.push((
        MIXED_SPEC.to_owned(),
        PlanSpec::from_json(&mixed).expect("mixed spec parses"),
    ));
    cases
}
