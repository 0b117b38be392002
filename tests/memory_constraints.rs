//! Memory-driven planning: pipeline parallelism must unlock configurations
//! that data parallelism cannot reach (the paper's "DiffusionPipe enables
//! larger training batch sizes" claim, §6.1).

use diffusionpipe::baselines::ddp;
use diffusionpipe::model::MemoryModel;
use diffusionpipe::prelude::*;

#[test]
fn tight_memory_forces_pipelining() {
    // SDXL on GPUs with only 32 GiB: full-model DDP states (~42 GiB for a
    // 2.6 B-param backbone) cannot fit, but pipeline stages can.
    let model = zoo::sdxl_base();
    let mut cluster = ClusterSpec::single_node(8);
    cluster.device_memory_bytes = 32 * (1 << 30);
    let batch = 64u32;

    let mm = MemoryModel::new(&model);
    assert!(
        mm.ddp_peak((batch / 8) as f64) > cluster.device_memory_bytes,
        "test premise: DDP should not fit"
    );

    let plan = Planner::new(model.clone(), cluster.clone())
        .plan(batch)
        .unwrap();
    assert!(
        plan.hyper.num_stages >= 2,
        "expected a multi-stage pipeline, got {}",
        plan.summary()
    );
    assert!(plan.peak_memory_bytes <= cluster.device_memory_bytes);

    // And the DDP baseline indeed reports OOM on the same hardware.
    let db = Profiler::new(DeviceModel::a100_like())
        .with_world_size(8)
        .profile(&model, batch);
    let r = ddp(&db.0, &cluster, batch);
    assert!(r.oom, "DDP baseline should OOM at 32 GiB");
}

#[test]
fn pipeline_reaches_larger_batches_than_ddp() {
    // On A100-80GB, scan batch sizes: the largest feasible DDP batch must
    // be smaller than the largest feasible DiffusionPipe batch.
    let model = zoo::sdxl_base();
    let cluster = ClusterSpec::single_node(8);
    let db = Profiler::new(DeviceModel::a100_like())
        .with_world_size(8)
        .profile(&model, 64)
        .0;
    let mut max_ddp = 0u32;
    let mut max_pipe = 0u32;
    for batch in [64u32, 128, 192, 256, 320, 384, 448, 512] {
        if !ddp(&db, &cluster, batch).oom {
            max_ddp = batch;
        }
        if Planner::new(model.clone(), cluster.clone())
            .plan(batch)
            .is_ok()
        {
            max_pipe = batch;
        }
    }
    assert!(
        max_pipe > max_ddp,
        "pipe max {max_pipe} should exceed ddp max {max_ddp}"
    );
}

#[test]
fn plan_memory_never_exceeds_budget() {
    for (model, batch) in [
        (zoo::stable_diffusion_v2_1(), 384u32),
        (zoo::controlnet_v1_0(), 384),
        (zoo::cdm_lsun(), 512),
    ] {
        let cluster = ClusterSpec::single_node(8);
        let plan = Planner::new(model.clone(), cluster.clone())
            .plan(batch)
            .unwrap();
        assert!(
            plan.peak_memory_bytes <= cluster.device_memory_bytes,
            "{}: {} bytes over budget",
            model.name,
            plan.peak_memory_bytes
        );
    }
}
