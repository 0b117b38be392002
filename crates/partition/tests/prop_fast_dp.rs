//! Property tests for the partitioning fast path: prefix-table exactness
//! and selection-preserving pruning across randomised models and configs.

use dpipe_cluster::{ClusterSpec, DataParallelLayout, DeviceClass};
use dpipe_model::zoo;
use dpipe_partition::{CostModel, DpStats, PartitionConfig, Partitioner};
use dpipe_profile::{CostPrefix, DeviceModel, NoiseConfig, ProfileDb, Profiler};
use proptest::prelude::*;

/// A randomised single-backbone model: layer count, per-layer weight skew
/// and self-conditioning toggle.
fn model_strategy() -> impl Strategy<Value = (usize, f64, bool)> {
    (4usize..20, 2.0f64..40.0, any::<bool>())
}

fn profiled(
    layers: usize,
    ms: f64,
    self_cond: bool,
    devices: usize,
    batch: u32,
) -> (ProfileDb, ClusterSpec) {
    let model = zoo::synthetic_model(layers, ms, &[1.0, 2.0], self_cond);
    let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, batch);
    (db, ClusterSpec::single_node(devices))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `CostPrefix` interval queries are bit-identical to naive `ProfileDb`
    /// summation for every interval, on a noisy record-free database.
    #[test]
    fn cost_prefix_equals_naive_summation(
        spec in model_strategy(),
        batch in 1u32..96,
        sigma in 0.0f64..0.08,
    ) {
        let (layers, ms, self_cond) = spec;
        let model = zoo::synthetic_model(layers, ms, &[1.0], self_cond);
        let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 64);
        let db = db.with_noise(NoiseConfig { sigma, seed: 7 });
        let bb = db.model().backbones().next().unwrap().0;
        let mut prefix = CostPrefix::new(&db, bb);
        let b = batch as f64 / 3.0; // fractional batches included
        prefix.ensure_batch(&db, b);
        let n = prefix.num_layers();
        let view = prefix.batch_view(b);
        for l in 0..n {
            for l2 in l..=n {
                prop_assert_eq!(
                    view.fwd_range(&(l..l2)),
                    db.fwd_time_range(bb, l..l2, b)
                );
                prop_assert_eq!(
                    view.bwd_range(&(l..l2)),
                    db.bwd_time_range(bb, l..l2, b)
                );
                prop_assert_eq!(
                    view.grad_bytes_range(&(l..l2)),
                    db.grad_bytes_range(bb, l..l2)
                );
            }
        }
        for l in 0..n {
            prop_assert_eq!(
                view.boundary_bytes(l),
                db.boundary_bytes(bb, dpipe_model::LayerId(l), b)
            );
        }
    }

    /// The pruned, prefix-backed, parent-pointer DP selects exactly the
    /// partition the unpruned naive reference selects, on one node of
    /// 1–12 GPUs at any stage count that divides the group: replication
    /// degrees such as 3, 5 and 6, and odd stage counts, are drawn too.
    #[test]
    fn pruned_dp_matches_reference_uniform(
        spec in model_strategy(),
        devices in 1usize..13,
        stages_pick in 0usize..12,
        micro in 1usize..9,
        batch in 8u32..256,
    ) {
        let (layers, ms, self_cond) = spec;
        let divisors: Vec<usize> = (1..=devices).filter(|s| devices % s == 0).collect();
        let stages = divisors[stages_pick % divisors.len()];
        prop_assume!(stages <= layers);
        let (db, cluster) = profiled(layers, ms, self_cond, devices, batch);
        let layout = DataParallelLayout::new(&cluster, devices).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let part = Partitioner::new(&cost, &layout);
        let bb = db.model().backbones().next().unwrap().0;
        let cfg = PartitionConfig::new(stages, micro, batch as f64);
        let fast = part.partition_single(bb, &cfg).unwrap();
        let reference = part.partition_single_reference(bb, &cfg).unwrap();
        prop_assert_eq!(fast, reference);
    }

    /// Pruning only ever discards candidates — and never the winner: the
    /// prune counter stays within the candidate count and the bound's
    /// effect is invisible in the output (already asserted above); here we
    /// additionally pin the stats invariants.
    #[test]
    fn prune_counters_are_consistent(
        spec in model_strategy(),
        batch in 8u32..256,
    ) {
        let (layers, ms, self_cond) = spec;
        prop_assume!(layers >= 4);
        let (db, cluster) = profiled(layers, ms, self_cond, 8, batch);
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let part = Partitioner::new(&cost, &layout);
        let bb = db.model().backbones().next().unwrap().0;
        let cfg = PartitionConfig::new(4, 4, batch as f64);
        let prefixes = part.build_prefixes(bb, &cfg);
        let mut stats = DpStats::default();
        let plan = part.partition_single_with(bb, &cfg, &prefixes, &mut stats).unwrap();
        prop_assert!(plan.covers(layers));
        prop_assert!(stats.candidates > 0);
        prop_assert!(stats.pruned <= stats.candidates);
        prop_assert!((0.0..=1.0).contains(&stats.prune_rate()));
    }

    /// Heterogeneous clusters: the pruned, prefix-backed DP with per-class
    /// cost tables selects exactly the partition the naive reference
    /// (class-dispatching `stage_terms`) selects, on a mixed a100 + h100
    /// two-machine cluster (either order) or an a100 + h100 + a10g
    /// three-machine fleet, across random models and configs.
    #[test]
    fn pruned_dp_matches_reference_on_mixed_cluster(
        spec in model_strategy(),
        stages_pow in 0u32..4,
        micro in 1usize..6,
        batch in 8u32..192,
        fleet in 0usize..3,
    ) {
        let (layers, ms, self_cond) = spec;
        let stages = 1usize << stages_pow; // divides the 8- and 24-wide groups
        prop_assume!(stages <= layers);
        let (a100, h100) = (DeviceClass::a100(), DeviceClass::h100());
        let cluster = match fleet {
            // 24 GPUs, one machine per class: stages of 3, 6, 12 or 24
            // devices, some spanning two classes.
            2 => ClusterSpec::mixed(&[(a100, 1), (h100, 1), (DeviceClass::a10g(), 1)]),
            // 8 GPUs total, classes split 4/4.
            _ => {
                let classes = if fleet == 1 { [h100, a100] } else { [a100, h100] };
                let mut cluster = ClusterSpec::mixed(&classes.map(|c| (c, 1)));
                cluster.devices_per_machine = 4;
                cluster
            }
        };
        let group = cluster.world_size();
        let model = zoo::synthetic_model(layers, ms, &[1.0, 2.0], self_cond);
        let profiler = Profiler::new(DeviceModel::a100_like());
        let scales = cluster.class_map().compute_scales();
        let (dbs, _) = profiler.profile_classes(&model, batch, &scales);
        let layout = DataParallelLayout::new(&cluster, group).unwrap();
        let bb = dbs[0].model().backbones().next().unwrap().0;
        let cost = CostModel::new(dbs, &cluster);
        let part = Partitioner::new(&cost, &layout);
        let cfg = PartitionConfig::new(stages, micro, batch as f64);
        let fast = part.partition_single(bb, &cfg).unwrap();
        let reference = part.partition_single_reference(bb, &cfg).unwrap();
        prop_assert_eq!(fast, reference);
    }
}

/// Bidirectional fast path vs reference on the CDM zoo models (fixed cases
/// rather than random models: two-backbone synthesis isn't randomised yet).
#[test]
fn bidirectional_fast_matches_reference_on_zoo() {
    for (model, batch) in [(zoo::cdm_lsun(), 128u32), (zoo::cdm_imagenet(), 64)] {
        let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, batch);
        let cluster = ClusterSpec::single_node(8);
        let layout = DataParallelLayout::new(&cluster, 8).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let part = Partitioner::new(&cost, &layout);
        let mut bbs = db.model().backbones().map(|(id, _)| id);
        let b0 = bbs.next().unwrap();
        let b1 = bbs.next().unwrap();
        for (s, m) in [(2usize, 2usize), (4, 1), (8, 4)] {
            let cfg = PartitionConfig::new(s, m, batch as f64);
            let fast = part.partition_bidirectional(b0, b1, &cfg).unwrap();
            let reference = part
                .partition_bidirectional_reference(b0, b1, &cfg)
                .unwrap();
            assert_eq!(fast, reference, "{} S={s} M={m}", db.model().name);
        }
    }
}
