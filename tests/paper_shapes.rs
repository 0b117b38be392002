//! Integration tests asserting the paper's headline *shapes* end-to-end
//! (DESIGN.md §5). Absolute numbers are simulation outputs; what must hold
//! is who wins, by roughly what factor, and where trends bend.

use diffusionpipe::baselines::{ddp, gpipe, spp, zero3};
use diffusionpipe::partition::SearchSpace;
use diffusionpipe::prelude::*;

fn profile(model: &ModelSpec, cluster: &ClusterSpec, batch: u32) -> ProfileDb {
    Profiler::new(DeviceModel::a100_like())
        .with_world_size(cluster.world_size())
        .profile(model, batch)
        .0
}

/// Table 1: non-trainable/trainable time ratio grows with batch size and is
/// far higher for ControlNet than for Stable Diffusion.
#[test]
fn table1_ratio_shapes() {
    let sd = zoo::stable_diffusion_v2_1();
    let cn = zoo::controlnet_v1_0();
    let cluster = ClusterSpec::single_node(1);
    let sd_db = profile(&sd, &cluster, 64);
    let cn_db = profile(&cn, &cluster, 64);
    let ratio =
        |db: &ProfileDb, b: f64| db.total_frozen_fwd_time(b) / db.total_trainable_fwd_bwd_time(b);
    for b in [8.0, 16.0, 32.0] {
        assert!(ratio(&sd_db, b) < ratio(&sd_db, 2.0 * b) + 1e-9);
    }
    assert!(ratio(&cn_db, 64.0) > 1.7 * ratio(&sd_db, 64.0));
}

/// Fig. 13 single-backbone ordering at one machine: DiffusionPipe >= SPP >=
/// GPipe, and DiffusionPipe beats DDP.
#[test]
fn fig13_single_backbone_ordering() {
    for model in [zoo::stable_diffusion_v2_1(), zoo::controlnet_v1_0()] {
        let cluster = ClusterSpec::single_node(8);
        let batch = 256;
        let plan = Planner::new(model.clone(), cluster.clone())
            .plan(batch)
            .unwrap();
        let db = profile(&model, &cluster, batch);
        let bb = model.backbones().next().unwrap().0;
        let r_spp = spp(&db, &cluster, bb, batch, &SearchSpace::default()).unwrap();
        let r_gpipe = gpipe(&db, &cluster, bb, batch, 2, 4).unwrap();
        let r_ddp = ddp(&db, &cluster, batch);
        assert!(
            plan.throughput > r_spp.throughput,
            "{}: dpipe {} !> spp {}",
            model.name,
            plan.throughput,
            r_spp.throughput
        );
        assert!(r_spp.throughput >= 0.95 * r_gpipe.throughput);
        assert!(
            plan.throughput > r_ddp.throughput,
            "{}: dpipe {} !> ddp {}",
            model.name,
            plan.throughput,
            r_ddp.throughput
        );
    }
}

/// Fig. 13 speedup magnitudes at scale: DiffusionPipe's advantage over DDP
/// grows with the cluster (sync overhead) and lands in the paper's ballpark
/// (up to ~1.3-1.4x over data parallel, more over GPipe).
#[test]
fn fig13_speedups_grow_with_scale() {
    let model = zoo::controlnet_v1_0();
    let mut speedups = Vec::new();
    for machines in [1usize, 4] {
        let cluster = ClusterSpec::p4de(machines);
        let batch = 32 * cluster.world_size() as u32;
        let plan = Planner::new(model.clone(), cluster.clone())
            .plan(batch)
            .unwrap();
        let db = profile(&model, &cluster, batch);
        let r_ddp = ddp(&db, &cluster, batch);
        speedups.push(plan.throughput / r_ddp.throughput);
    }
    assert!(speedups[1] > speedups[0], "{speedups:?}");
    assert!(speedups[1] > 1.10 && speedups[1] < 2.5, "{speedups:?}");
}

/// Fig. 14: DiffusionPipe's residual bubble ratio is a small fraction of
/// GPipe's / SPP's.
#[test]
fn fig14_bubble_ratios() {
    for model in [zoo::stable_diffusion_v2_1(), zoo::controlnet_v1_0()] {
        let cluster = ClusterSpec::single_node(8);
        let batch = 256;
        let plan = Planner::new(model.clone(), cluster.clone())
            .plan(batch)
            .unwrap();
        let db = profile(&model, &cluster, batch);
        let bb = model.backbones().next().unwrap().0;
        let r_gpipe = gpipe(&db, &cluster, bb, batch, 2, 4).unwrap();
        assert!(
            plan.bubble_ratio < 0.08,
            "{}: {}",
            model.name,
            plan.bubble_ratio
        );
        assert!(
            plan.bubble_ratio < 0.5 * r_gpipe.bubble_ratio,
            "{}: dpipe {} vs gpipe {}",
            model.name,
            plan.bubble_ratio,
            r_gpipe.bubble_ratio
        );
    }
}

/// Fig. 15 ablation ordering at batch 384: full >= no-partial >= no-fill,
/// with no-partial collapsing toward no-fill (the extra-long layer blocks
/// everything).
#[test]
fn fig15_ablation_ordering() {
    let model = zoo::controlnet_v1_0();
    let cluster = ClusterSpec::single_node(8);
    let batch = 384;
    let plan = |bubble_filling, partial_batch| {
        Planner::plan_spec(
            &PlanSpec::new(model.clone(), cluster.clone(), batch).with_options(PlannerOptions {
                bubble_filling,
                partial_batch,
            }),
        )
        .unwrap()
    };
    let full = plan(true, true);
    let no_partial = plan(true, false);
    let no_fill = plan(false, false);
    assert!(full.throughput >= no_partial.throughput);
    assert!(no_partial.throughput >= 0.95 * no_fill.throughput);
    assert!(full.throughput > 1.05 * no_fill.throughput);
}

/// CDM: DiffusionPipe is comparable to DeepSpeed-P (within a factor) while
/// using less per-device memory than DeepSpeed-P.
#[test]
fn fig13_cdm_comparable_to_deepspeed_p() {
    use diffusionpipe::baselines::{cdm_data_parallel, CdmMode};
    let model = zoo::cdm_lsun();
    let cluster = ClusterSpec::single_node(8);
    let batch = 256;
    let plan = Planner::new(model.clone(), cluster.clone())
        .plan(batch)
        .unwrap();
    let db = profile(&model, &cluster, batch);
    let p = cdm_data_parallel(&db, &cluster, batch, CdmMode::Parallel, false);
    let ratio = plan.throughput / p.throughput;
    assert!((0.6..1.8).contains(&ratio), "ratio {ratio}");
    assert!(plan.peak_memory_bytes < p.peak_memory_bytes);
}

/// ZeRO-3 trades speed for memory relative to DDP on single-backbone models.
#[test]
fn zero3_tradeoff_holds_end_to_end() {
    let model = zoo::stable_diffusion_v2_1();
    let cluster = ClusterSpec::p4de(2);
    let batch = 8 * 16;
    let db = profile(&model, &cluster, batch);
    let r_ddp = ddp(&db, &cluster, batch);
    let r_z3 = zero3(&db, &cluster, batch);
    assert!(r_z3.throughput < r_ddp.throughput);
    assert!(r_z3.peak_memory_bytes < r_ddp.peak_memory_bytes);
}
