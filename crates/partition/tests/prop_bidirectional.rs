//! Property tests for the bidirectional (two-backbone) DP.

use dpipe_cluster::{ClusterSpec, DataParallelLayout, DeviceClass};
use dpipe_model::{zoo, ComponentId, ModelSpec, SelfConditioning};
use dpipe_partition::{CostModel, DpStats, PartitionConfig, Partitioner};
use dpipe_profile::{CostPrefix, DeviceModel, ProfileDb, Profiler};
use proptest::prelude::*;

/// Two synthetic backbones with the given per-layer weight profiles.
fn two_backbone_model(down: &[f64], up: &[f64]) -> ModelSpec {
    use dpipe_model::{ModelSpecBuilder, Role};
    let mut b = ModelSpecBuilder::new("two-bb");
    let mk = |name: &str, weights: &[f64]| {
        let mut c = zoo::synthetic_backbone(name, weights.len(), 1_000_000, 10.0);
        for (l, &w) in c.layers.iter_mut().zip(weights) {
            l.flops_per_sample *= w;
        }
        c
    };
    let _ = b.push_component({
        let mut c = mk("down", down);
        c.role = Role::Backbone;
        c
    });
    let _ = b.push_component({
        let mut c = mk("up", up);
        c.role = Role::Backbone;
        c
    });
    b.build()
}

fn db_for(model: &ModelSpec) -> ProfileDb {
    Profiler::new(DeviceModel::a100_like()).profile(model, 32).0
}

/// The oracle's four cluster families: one node of `machines` × `per_node`
/// GPUs; `machines` p4de machines of `per_node` GPUs joined by inter-node
/// links, so levels differ in input link and in the machines their sync
/// spans; as many machines alternating A100 and H100, so levels also
/// differ in device class; or three machines of `per_node` GPUs, one each
/// of A100, H100 and A10G (rotated by `h100_first`), so a third class has
/// its own table.
fn cluster(kind: usize, machines: usize, per_node: usize, h100_first: bool) -> ClusterSpec {
    let cluster = match kind {
        0 => return ClusterSpec::single_node(machines * per_node),
        1 => ClusterSpec::p4de(machines),
        3 => {
            let mut classes = vec![
                DeviceClass::a100(),
                DeviceClass::h100(),
                DeviceClass::a10g(),
            ];
            if h100_first {
                classes.rotate_left(1);
            }
            ClusterSpec::p4de(3).with_machine_classes(classes)
        }
        _ => ClusterSpec::p4de(machines).with_machine_classes(
            (0..machines)
                .map(|m| {
                    if (m % 2 == 0) == h100_first {
                        DeviceClass::h100()
                    } else {
                        DeviceClass::a100()
                    }
                })
                .collect(),
        ),
    };
    ClusterSpec {
        devices_per_machine: per_node,
        ..cluster
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bidirectional plans cover both backbones, pair stages on shared
    /// offsets, and place up's stage 0 at the chain end.
    #[test]
    fn bidirectional_structure_invariants(
        down in proptest::collection::vec(0.3f64..3.0, 4..10),
        up in proptest::collection::vec(0.3f64..3.0, 4..10),
        stages in 2usize..4,
    ) {
        prop_assume!(stages <= down.len().min(up.len()));
        let model = two_backbone_model(&down, &up);
        let db = db_for(&model);
        let cluster = ClusterSpec::single_node(stages);
        let layout = DataParallelLayout::new(&cluster, stages).unwrap();
        let cost = CostModel::new(vec![db.clone()], &cluster);
        let p = Partitioner::new(&cost, &layout);
        let plan = p
            .partition_bidirectional(ComponentId(0), ComponentId(1), &PartitionConfig::new(stages, 2, 32.0))
            .unwrap();

        // Coverage.
        prop_assert!(plan.down.covers(down.len()));
        let mut up_ranges: Vec<_> = plan.up.stages.iter().map(|s| s.layers.clone()).collect();
        up_ranges.sort_by_key(|r| r.start);
        let mut next = 0;
        for r in up_ranges {
            prop_assert_eq!(r.start, next);
            next = r.end;
        }
        prop_assert_eq!(next, up.len());

        // Offset pairing: stage i of down and stage (S-1-i) of up share a
        // device block.
        for (i, d) in plan.down.stages.iter().enumerate() {
            let u = &plan.up.stages[stages - 1 - i];
            prop_assert_eq!(&d.device_offsets, &u.device_offsets);
        }
        // Up's pipeline stage 0 (its first layers) sits at the chain end.
        prop_assert_eq!(plan.up.stages[0].layers.start, 0);
        let max_off = plan.up.stages.iter().map(|s| s.device_offsets[0]).max().unwrap();
        prop_assert_eq!(plan.up.stages[0].device_offsets[0], max_off);
        prop_assert!(plan.t_max.is_finite() && plan.t_max > 0.0);
    }

    /// Swapping the two backbones cannot change the bound by more than the
    /// comm asymmetry allows (the construction is near-symmetric).
    #[test]
    fn swap_symmetry(
        down in proptest::collection::vec(0.5f64..2.0, 4..8),
        up in proptest::collection::vec(0.5f64..2.0, 4..8),
    ) {
        let stages = 2usize;
        let model_a = two_backbone_model(&down, &up);
        let model_b = two_backbone_model(&up, &down);
        let (db_a, db_b) = (db_for(&model_a), db_for(&model_b));
        let cluster = ClusterSpec::single_node(stages);
        let layout = DataParallelLayout::new(&cluster, stages).unwrap();
        let cfg = PartitionConfig::new(stages, 2, 32.0);
        let ta = Partitioner::new(&CostModel::new(vec![db_a.clone()], &cluster), &layout)
            .partition_bidirectional(ComponentId(0), ComponentId(1), &cfg)
            .unwrap()
            .t_max;
        let tb = Partitioner::new(&CostModel::new(vec![db_b.clone()], &cluster), &layout)
            .partition_bidirectional(ComponentId(0), ComponentId(1), &cfg)
            .unwrap()
            .t_max;
        prop_assert!((ta - tb).abs() < 0.05 * ta.max(tb), "{ta} vs {tb}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The pruned, row-walking DP with per-level interval tables selects
    /// exactly the plan the naive reference selects, for every stage count
    /// that divides the group. Multi-machine and mixed fleets give each
    /// level its own link, sync shape and class, so a table entry left over
    /// from an earlier level would change the result.
    #[test]
    fn fast_dp_matches_reference_on_every_cluster_family(
        down in proptest::collection::vec(0.3f64..3.0, 4..13),
        up in proptest::collection::vec(0.3f64..3.0, 4..13),
        self_cond in any::<bool>(),
        shape in (0usize..4, 2usize..4, 1usize..5, any::<bool>()),
        micro_batches in 1usize..7,
        batch in 8u32..64,
    ) {
        let (kind, machines, per_node, h100_first) = shape;
        let mut model = two_backbone_model(&down, &up);
        if self_cond {
            model.self_conditioning = Some(SelfConditioning::default());
        }
        let cluster = cluster(kind, machines, per_node, h100_first);
        let scales = cluster.class_map().compute_scales();
        let (dbs, _) = Profiler::new(DeviceModel::a100_like()).profile_classes(&model, batch, &scales);
        let group = cluster.world_size();
        let layout = DataParallelLayout::new(&cluster, group).unwrap();
        let cost = CostModel::new(dbs, &cluster);
        let p = Partitioner::new(&cost, &layout);
        let (b0, b1) = (ComponentId(0), ComponentId(1));
        for stages in (1..=group.min(down.len()).min(up.len())).filter(|&s| group.is_multiple_of(s)) {
            let cfg = PartitionConfig::new(stages, micro_batches, f64::from(batch));
            let local = cfg.micro_batch() / (group / stages) as f64;
            let prefixes = |comp: ComponentId| -> Vec<CostPrefix> {
                (0..cost.num_classes())
                    .map(|class| {
                        let db = cost.db_for(class);
                        let mut prefix = CostPrefix::new(db, comp);
                        prefix.ensure_batch(db, local);
                        prefix
                    })
                    .collect()
            };
            let mut stats = DpStats::default();
            let fast = p.partition_bidirectional_with(b0, b1, &cfg, &prefixes(b0), &prefixes(b1), &mut stats);
            let reference = p.partition_bidirectional_reference(b0, b1, &cfg);
            prop_assert_eq!(
                fast, reference,
                "kind={} {}x{} S={}", kind, cluster.machines, cluster.devices_per_machine, stages
            );
            prop_assert!(stats.pruned <= stats.candidates);
        }
    }
}
