//! Property tests for the partitioning DP, including optimality against
//! brute-force enumeration on small instances.

use dpipe_cluster::{ClusterSpec, DataParallelLayout};
use dpipe_model::{zoo, ComponentId};
use dpipe_partition::{CostModel, PartitionConfig, Partitioner, StageCost};
use dpipe_profile::{DeviceModel, ProfileDb, Profiler};
use proptest::prelude::*;
use std::sync::Arc;

/// Builds a synthetic backbone whose per-layer times follow `weights`.
fn db_for(weights: &[f64]) -> ProfileDb {
    let mut model = zoo::synthetic_model(weights.len(), 10.0, &[1.0], false);
    {
        let bb = model
            .components
            .iter_mut()
            .find(|c| c.is_trainable())
            .unwrap();
        for (l, &w) in bb.layers.iter_mut().zip(weights) {
            l.flops_per_sample *= w;
        }
    }
    let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 16);
    db
}

fn backbone(db: &ProfileDb) -> ComponentId {
    db.model().backbones().next().unwrap().0
}

/// Brute-force minimum of the Eqn. (2) objective over all 2-stage splits.
fn brute_force_two_stages(
    db: &ProfileDb,
    cluster: &ClusterSpec,
    micro: f64,
    m_count: usize,
) -> f64 {
    let layout = DataParallelLayout::new(cluster, 2).unwrap();
    let model = CostModel::new(vec![db.clone()], cluster);
    let cost = StageCost::new(&model, &layout);
    let bb = backbone(db);
    let layers = db.model().component(bb).num_layers();
    let coeff = (m_count + 2 * 2 - 2) as f64;
    let mut best = f64::INFINITY;
    for cut in 1..layers {
        let t_a = cost.stage_terms(bb, 0..cut, 1, &[0], micro, 0.0, 1.0);
        let t_b = cost.stage_terms(bb, cut..layers, 1, &[1], micro, 0.0, 1.0);
        let w = t_a.t0.max(t_b.t0);
        let y = t_a.sync_gap.max(t_b.sync_gap);
        best = best.min(coeff * w + y);
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The DP matches exhaustive search for 2 stages on 2 devices.
    #[test]
    fn dp_matches_brute_force_two_stages(
        weights in proptest::collection::vec(0.2f64..5.0, 4..10),
        m_count in 1usize..5,
    ) {
        let db = db_for(&weights);
        let cluster = ClusterSpec::single_node(2);
        let layout = DataParallelLayout::new(&cluster, 2).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let p = Partitioner::new(&cost, &layout);
        let cfg = PartitionConfig::new(2, m_count, 16.0);
        let plan = p.partition_single(backbone(&db), &cfg).unwrap();
        let brute = brute_force_two_stages(&db, &cluster, cfg.micro_batch(), m_count);
        prop_assert!(
            (plan.t_max - brute).abs() <= 1e-9 * brute.max(1.0),
            "dp {} vs brute {}",
            plan.t_max,
            brute
        );
    }

    /// Plans always cover the layer chain exactly and use every device.
    #[test]
    fn plans_always_cover(
        weights in proptest::collection::vec(0.2f64..5.0, 4..12),
        stages in 1usize..5,
        m_count in 1usize..4,
    ) {
        let db = db_for(&weights);
        let layers = weights.len();
        if stages > layers { return Ok(()); }
        let cluster = ClusterSpec::single_node(stages * 2);
        let layout = DataParallelLayout::new(&cluster, stages * 2).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let p = Partitioner::new(&cost, &layout);
        let cfg = PartitionConfig::new(stages, m_count, 32.0);
        let plan = p.partition_single(backbone(&db), &cfg).unwrap();
        prop_assert!(plan.covers(layers));
        prop_assert_eq!(plan.devices_used(), stages * 2);
        prop_assert!(plan.stages.iter().all(|s| s.replication == 2));
        prop_assert!(plan.t_max.is_finite() && plan.t_max > 0.0);
    }

    /// T0 is a true upper bound on every stage's compute time.
    #[test]
    fn t0_dominates_every_stage(
        weights in proptest::collection::vec(0.2f64..5.0, 6..12),
        stages in 2usize..4,
    ) {
        let db = db_for(&weights);
        if stages > weights.len() { return Ok(()); }
        let cluster = ClusterSpec::single_node(stages);
        let layout = DataParallelLayout::new(&cluster, stages).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let p = Partitioner::new(&cost, &layout);
        let cfg = PartitionConfig::new(stages, 2, 16.0);
        let plan = p.partition_single(backbone(&db), &cfg).unwrap();
        let bb = backbone(&db);
        for st in &plan.stages {
            let local = st.local_batch(plan.micro_batch);
            let compute = db.fwd_time_range(bb, st.layers.clone(), local)
                + db.bwd_time_range(bb, st.layers.clone(), local);
            prop_assert!(compute <= plan.t0 + 1e-12, "stage {:?} compute {compute} > t0 {}", st.layers, plan.t0);
        }
    }

    /// Scaling all layer times scales T_max by the same factor (the DP is
    /// scale-equivariant given zero overheads and no comm binding).
    #[test]
    fn dp_is_monotone_in_cost_scale(
        weights in proptest::collection::vec(0.5f64..2.0, 4..8),
    ) {
        let db1 = db_for(&weights);
        let double: Vec<f64> = weights.iter().map(|w| w * 2.0).collect();
        let db2 = db_for(&double);
        let cluster = ClusterSpec::single_node(2);
        let layout = DataParallelLayout::new(&cluster, 2).unwrap();
        let cfg = PartitionConfig::new(2, 2, 16.0);
        let t1 = Partitioner::new(&CostModel::new(vec![db1.clone()], &cluster), &layout)
            .partition_single(backbone(&db1), &cfg).unwrap().t_max;
        let t2 = Partitioner::new(&CostModel::new(vec![db2.clone()], &cluster), &layout)
            .partition_single(backbone(&db2), &cfg).unwrap().t_max;
        prop_assert!(t2 > t1);
    }
}

/// The tiny-model Arc keeps the ProfileDb constructor honest (regression
/// for the Arc-based API).
#[test]
fn profile_db_from_arc() {
    let model = Arc::new(zoo::tiny_model());
    let db = ProfileDb::new(model, DeviceModel::a100_like());
    assert!(db.fwd_time(ComponentId(1), dpipe_model::LayerId(0), 4.0) > 0.0);
}
