//! Record-backed planning and robustness to profiling noise.
//!
//! The paper drives all planning from measured profile records (Fig. 7,
//! step 1) and attributes the residual unfilled bubble time to the gap
//! between profiled and actual execution times (§6.2). These tests exercise
//! both: planning from interpolated records must agree closely with
//! planning from the analytic model, and moderate profiling noise must
//! degrade the fill only mildly.

use diffusionpipe::partition::StageCost;
use diffusionpipe::prelude::*;
use diffusionpipe::profile::NoiseConfig;
use diffusionpipe::sim::CombinedIteration;
use dpipe_model::LayerId;

#[test]
fn record_backed_times_interpolate_close_to_analytic() {
    let model = zoo::stable_diffusion_v2_1();
    let profiler = Profiler::new(DeviceModel::a100_like());
    let (analytic, _) = profiler.profile(&model, 64);
    let (recorded, _) = profiler
        .profile_records(&model, 64)
        .expect("complete records");
    assert!(recorded.is_record_backed());
    // At profiled batches: exact. Between them: close (the true curve is
    // mildly convex, the interpolation is piecewise linear).
    for (cid, comp) in model.components_enumerated() {
        for (lid, _) in comp.layers_enumerated() {
            for &b in &[8.0, 16.0, 64.0] {
                let a = analytic.fwd_time(cid, lid, b);
                let r = recorded.fwd_time(cid, lid, b);
                assert!((a - r).abs() <= 1e-12 * a.max(1e-12), "exact at {b}");
            }
            for &b in &[10.0, 20.0, 40.0] {
                let a = analytic.fwd_time(cid, lid, b);
                let r = recorded.fwd_time(cid, lid, b);
                assert!(
                    (a - r).abs() <= 0.05 * a.max(1e-9),
                    "layer {cid}/{lid} at batch {b}: analytic {a} vs interpolated {r}"
                );
            }
        }
    }
}

#[test]
fn planning_from_records_matches_analytic_planning() {
    let model = zoo::controlnet_v1_0();
    let cluster = ClusterSpec::single_node(8);
    let batch = 256u32;
    let profiler = Profiler::new(DeviceModel::a100_like()).with_world_size(8);
    let (recorded, _) = profiler
        .profile_records(&model, batch)
        .expect("complete records");

    // Re-run the per-config pipeline manually with the record-backed db and
    // compare against the planner's analytic result.
    let analytic_plan = Planner::new(model.clone(), cluster.clone())
        .plan(batch)
        .unwrap();
    let hp = analytic_plan.hyper;
    let layout = DataParallelLayout::new(&cluster, hp.group_size).unwrap();
    let cost = CostModel::new(vec![recorded], &cluster);
    let part = Partitioner::new(&cost, &layout);
    let bb = model.backbones().next().unwrap().0;
    let cfg = PartitionConfig::new(
        hp.num_stages,
        hp.num_micro_batches,
        hp.group_batch(batch, 8),
    );
    let plan = part.partition_single(bb, &cfg).unwrap();
    let sched = ScheduleBuilder::new(part.cost())
        .build_single(&plan, ScheduleKind::Fifo1F1B)
        .unwrap();
    let bubbles = sched.bubbles(0.010);
    let fill = Filler::new(cost.db(), FillConfig::default())
        .fill(&bubbles, sched.group_batch, hp.group_size)
        .unwrap();
    let combined = CombinedIteration::new(&sched, &bubbles, &fill);
    let rec_throughput = combined.cluster_throughput(8 / hp.group_size);
    let rel = (rec_throughput - analytic_plan.throughput).abs() / analytic_plan.throughput;
    assert!(
        rel < 0.03,
        "record-backed {rec_throughput} vs analytic {}",
        analytic_plan.throughput
    );
}

#[test]
fn noise_degrades_fill_gracefully() {
    // Plan with noisy profile data but evaluate against true times: the
    // residual bubble ratio grows with sigma yet stays moderate at ±5%
    // (the paper's §6.2 explanation for its <5% residual bubbles).
    let model = zoo::controlnet_v1_0();
    let cluster = ClusterSpec::single_node(8);
    let batch = 384u32;
    let profiler = Profiler::new(DeviceModel::a100_like()).with_world_size(8);
    let (true_db, _) = profiler.profile(&model, batch);
    let truth = CostModel::new(vec![true_db], &cluster);

    let layout = DataParallelLayout::new(&cluster, 2).unwrap();
    let true_times = StageCost::new(&truth, &layout);
    let bb = model.backbones().next().unwrap().0;
    let cfg = PartitionConfig::new(2, 1, 96.0);

    let mut ratios = Vec::new();
    for sigma in [0.0, 0.05] {
        let noisy_db = truth
            .db()
            .clone()
            .with_noise(NoiseConfig { sigma, seed: 7 });
        let noisy = CostModel::new(vec![noisy_db], &cluster);
        // Plan from noisy view.
        let plan = Partitioner::new(&noisy, &layout)
            .partition_single(bb, &cfg)
            .unwrap();
        // Evaluate with true times: the schedule realises true durations,
        // but the *fill decisions* were made from the noisy view. We model
        // the §6.2 effect by filling with noisy times and measuring the
        // overrun/underrun against the true bubble capacity.
        let sched = ScheduleBuilder::new(&true_times)
            .build_single(&plan, ScheduleKind::Fifo1F1B)
            .unwrap();
        let bubbles = sched.bubbles(0.010);
        let fill = Filler::new(noisy.db(), FillConfig::default())
            .fill(&bubbles, sched.group_batch, 2)
            .unwrap();
        let combined = CombinedIteration::new(&sched, &bubbles, &fill);
        ratios.push(combined.bubble_ratio());
    }
    assert!(ratios[0] <= ratios[1] + 0.02, "{ratios:?}");
    assert!(
        ratios[1] < 0.15,
        "noisy residual bubbles too large: {ratios:?}"
    );
}

#[test]
fn layer_id_display_in_errors() {
    // Smoke: LayerId implements Display as used in record panics.
    assert_eq!(LayerId(3).to_string(), "l3");
}
