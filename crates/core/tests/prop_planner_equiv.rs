//! Property test: the fast planner selects exactly the plan the naive
//! reference loop selects.
//!
//! The fast path skips configs whose throughput bound loses, visits the
//! rest best-bound first on any number of workers, and prunes both
//! partition DPs with a lookahead bound. None of that may change the
//! selected plan. This draws random zoo models, clusters (one node, p4de
//! multi-node, mixed A100/H100 fleets in both orders, and one A100, one
//! H100 and one A10G machine), batches of at
//! least the world size, both single-backbone schedules, ablation options,
//! record-backed profiles, search-space bounds and worker counts, and
//! compares whole plans with `Planner::plan_reference`. Two-backbone
//! models are also drawn on whole 8-GPU machines (one node, and two p4de
//! nodes). Set `PROPTEST_RNG_SEED` to draw other specs.

use diffusionpipe_core::Planner;
use dpipe_cluster::{ClusterSpec, DeviceClass};
use dpipe_model::zoo;
use dpipe_partition::SearchSpace;
use dpipe_schedule::ScheduleKind;
use dpipe_spec::{PlanSpec, PlannerOptions};
use proptest::prelude::*;

/// `kind` picks the cluster family and `size` (1..=8) its scale: one node
/// of `size` GPUs, 2–8 p4de nodes, 2–4 mixed A100/H100 nodes in either
/// order, or one A100, one H100 and one A10G machine of `size` GPUs each.
/// `per_node` shrinks the multi-node machines from 8 GPUs.
fn cluster(kind: usize, size: usize, per_node: Option<usize>) -> ClusterSpec {
    let (a100, h100) = (DeviceClass::a100(), DeviceClass::h100());
    let (first, second) = (1 + (size - 1) % 2, 1 + (size - 1) / 4);
    let cluster = match kind {
        0 => return ClusterSpec::single_node(size),
        1 => ClusterSpec::p4de(size.max(2)),
        2 => ClusterSpec::mixed(&[(a100, first), (h100, second)]),
        3 => ClusterSpec::mixed(&[(h100, first), (a100, second)]),
        _ => ClusterSpec {
            devices_per_machine: size,
            ..ClusterSpec::mixed(&[(a100, 1), (h100, 1), (DeviceClass::a10g(), 1)])
        },
    };
    ClusterSpec {
        devices_per_machine: per_node.unwrap_or(cluster.devices_per_machine),
        ..cluster
    }
}

/// The reference planner is the slow side, about ten times slower again
/// in debug builds: tier-1 (debug) draws a few specs, release runs many.
const CASES: u32 = if cfg!(debug_assertions) { 4 } else { 64 };

/// Two-backbone specs on whole 8-GPU machines: the reference's
/// bidirectional DP takes 0.3–0.9 s on each in release.
const WHOLE_MACHINE_CASES: u32 = if cfg!(debug_assertions) { 2 } else { 8 };

/// Plans `spec` both ways and compares the whole plans, or both errors.
fn check_against_reference(spec: &PlanSpec, label: &str) -> TestCaseResult {
    let planner = Planner::from_spec(spec).expect("zoo spec resolves");
    let global_batch = spec.global_batch;
    match (
        planner.plan(global_batch),
        planner.plan_reference(global_batch),
    ) {
        (Ok(fast), Ok(reference)) => prop_assert_eq!(fast, reference, "{}", label),
        (fast, reference) => prop_assert_eq!(
            fast.map(|p| p.summary()).map_err(|e| e.to_string()),
            reference.map(|p| p.summary()).map_err(|e| e.to_string()),
            "{}",
            label
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn fast_plan_matches_reference(
        model in 0usize..7,
        shape in (0usize..5, 1usize..9),
        batch in (1u32..4, 0u32..32),
        flags in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
        workers in 1usize..4,
        search in (1usize..9, 1usize..9),
    ) {
        let name = zoo::NAMES[model];
        // The reference bidirectional DP walks every predecessor of every
        // state, O(L⁴) per level and config: two-backbone models plan here
        // on one node or on two machines of 1–3 GPUs, and on whole 8-GPU
        // machines only in the test below, which draws fewer cases.
        let two_backbones = zoo::by_name(name).is_some_and(|m| m.backbones().count() > 1);
        let cluster = if two_backbones && shape.0 > 0 {
            cluster(shape.0, 1, Some(1 + shape.1 / 3))
        } else {
            cluster(shape.0, shape.1, None)
        };
        let world = cluster.world_size() as u32;
        let global_batch = world * batch.0 + batch.1;
        let (bubble_filling, partial_batch, gpipe, record_backed) = flags;
        let spec = PlanSpec::zoo(name, cluster, global_batch)
            .with_options(PlannerOptions { bubble_filling, partial_batch })
            .with_schedule(if gpipe { ScheduleKind::GPipe } else { ScheduleKind::Fifo1F1B })
            .with_record_backed(record_backed)
            .with_search_space(SearchSpace { max_stages: search.0, max_micro_batches: search.1 })
            .with_parallelism(workers);
        let label = format!("{} workers={workers}", spec.label());
        check_against_reference(&spec, &label)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(WHOLE_MACHINE_CASES))]

    #[test]
    fn two_backbone_plan_on_whole_machines_matches_reference(
        imagenet in any::<bool>(),
        machines in 1usize..3,
        batch in (1u32..3, 0u32..32),
        flags in (any::<bool>(), any::<bool>(), any::<bool>()),
        workers in 1usize..4,
    ) {
        let name = if imagenet { "cdm-imagenet" } else { "cdm-lsun" };
        let cluster = if machines == 1 {
            ClusterSpec::single_node(8)
        } else {
            ClusterSpec::p4de(machines)
        };
        let global_batch = cluster.world_size() as u32 * batch.0 + batch.1;
        let (bubble_filling, partial_batch, record_backed) = flags;
        let spec = PlanSpec::zoo(name, cluster, global_batch)
            .with_options(PlannerOptions { bubble_filling, partial_batch })
            .with_record_backed(record_backed)
            .with_parallelism(workers);
        let label = format!("{} workers={workers}", spec.label());
        check_against_reference(&spec, &label)?;
    }
}
