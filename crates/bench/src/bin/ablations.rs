//! Design-choice ablations beyond the paper's Fig. 15 (the DESIGN.md §3
//! list): cross-iteration overlap, bidirectional vs. separate-device CDM
//! training, DP partitioning vs. equal split, and the minimum-bubble
//! threshold.
//!
//! Run with: `cargo run --release -p dpipe_bench --bin ablations`

use dpipe_bench::profile;
use dpipe_cluster::{ClusterSpec, DataParallelLayout};
use dpipe_fill::{FillConfig, Filler};
use dpipe_model::zoo;
use dpipe_partition::{CostModel, PartitionConfig, PartitionPlan, Partitioner, StagePlan};
use dpipe_schedule::{ScheduleBuilder, ScheduleKind};
use dpipe_sim::CombinedIteration;

/// Ablation 1 — cross-iteration overlap: the same pipeline plan with the
/// frozen part (a) filled into bubbles cross-iteration vs. (b) run serially
/// before the pipeline (Fig. 9 top vs. bottom).
fn cross_iteration_overlap() {
    println!("\n[1] cross-iteration overlap (ControlNet, 8 GPUs, batch 384)");
    let model = zoo::controlnet_v1_0();
    let cluster = ClusterSpec::single_node(8);
    let cost = CostModel::new(vec![profile(&model, &cluster, 384)], &cluster);
    let layout = DataParallelLayout::new(&cluster, 2).unwrap();
    let bb = model.backbones().next().unwrap().0;
    let part = Partitioner::new(&cost, &layout);
    let plan = part
        .partition_single(bb, &PartitionConfig::new(2, 1, 96.0))
        .unwrap();
    let sched = ScheduleBuilder::new(part.cost())
        .build_single(&plan, ScheduleKind::Fifo1F1B)
        .unwrap();
    let bubbles = sched.bubbles(0.010);
    let filler = Filler::new(cost.db(), FillConfig::default());
    let fill = filler.fill(&bubbles, sched.group_batch, 2).unwrap();
    let overlapped = CombinedIteration::new(&sched, &bubbles, &fill);
    let serial_tail = filler.baseline_frozen_time(sched.group_batch, 2);
    let serial = CombinedIteration::without_filling(&sched, serial_tail);
    println!(
        "  cross-iteration fill : {:>7.1} samples/s (iter {:.0} ms)",
        overlapped.cluster_throughput(4),
        overlapped.iteration_time() * 1e3
    );
    println!(
        "  serial frozen part   : {:>7.1} samples/s (iter {:.0} ms)",
        serial.cluster_throughput(4),
        serial.iteration_time() * 1e3
    );
}

/// Ablation 2 — bidirectional CDM pipelines on all devices vs. one
/// unidirectional pipeline per backbone on half the devices each.
fn bidirectional_vs_separate() {
    println!("\n[2] CDM-LSUN: bidirectional (shared devices) vs separate pipelines");
    let model = zoo::cdm_lsun();
    let cluster = ClusterSpec::single_node(8);
    let batch = 256u32;
    let cost = CostModel::new(vec![profile(&model, &cluster, batch)], &cluster);
    let mut bbs = model.backbones().map(|(id, _)| id);
    let b0 = bbs.next().unwrap();
    let b1 = bbs.next().unwrap();

    // Bidirectional on all 8 devices (one group).
    let layout8 = DataParallelLayout::new(&cluster, 8).unwrap();
    let part = Partitioner::new(&cost, &layout8);
    let bi = part
        .partition_bidirectional(b0, b1, &PartitionConfig::new(4, 4, batch as f64))
        .unwrap();
    let bi_sched = ScheduleBuilder::new(part.cost())
        .build_bidirectional(&bi)
        .unwrap();
    let bi_throughput = bi_sched.group_batch / bi_sched.iteration_time();

    // Separate: each backbone on 4 devices, both running concurrently.
    let cluster4 = ClusterSpec::single_node(4);
    let cost4 = CostModel::new(vec![profile(&model, &cluster4, batch)], &cluster4);
    let layout4 = DataParallelLayout::new(&cluster4, 4).unwrap();
    let part4 = Partitioner::new(&cost4, &layout4);
    let mut worst = 0.0f64;
    for b in [b0, b1] {
        let p = part4
            .partition_single(b, &PartitionConfig::new(4, 4, batch as f64))
            .unwrap();
        let s = ScheduleBuilder::new(part4.cost())
            .build_single(&p, ScheduleKind::Fifo1F1B)
            .unwrap();
        worst = worst.max(s.iteration_time());
    }
    let sep_throughput = 2.0 * batch as f64 / worst;
    println!("  bidirectional shared : {bi_throughput:>7.1} samples/s");
    println!("  separate device halves: {sep_throughput:>6.1} samples/s");
}

/// Ablation 3 — the §4 DP partitioner vs. an equal-layer split at the same
/// (S, M). SD's U-Net has nearly uniform blocks where equal split is
/// already fine; skewing the first blocks (as in higher-resolution front
/// ends) is where the DP earns its keep.
fn partition_quality() {
    // 8 micro-batches: enough pipelining depth that stage balance governs
    // the makespan (at tiny M a front-loaded bottleneck can paradoxically
    // win because other stages drain inside its busy time).
    println!("\n[3] partition quality (skewed SD v2.1, 4 stages, 8 micro-batches)");
    let mut model = zoo::stable_diffusion_v2_1();
    model.self_conditioning = None;
    {
        let bb = model
            .components
            .iter_mut()
            .find(|c| c.is_trainable())
            .unwrap();
        for l in bb.layers.iter_mut().take(6) {
            l.flops_per_sample *= 2.5;
        }
    }
    let cluster = ClusterSpec::single_node(4);
    let cost = CostModel::new(vec![profile(&model, &cluster, 64)], &cluster);
    let layout = DataParallelLayout::new(&cluster, 4).unwrap();
    let bb = model.backbones().next().unwrap().0;
    let part = Partitioner::new(&cost, &layout);
    let builder = ScheduleBuilder::new(part.cost());

    let dp_plan = part
        .partition_single(bb, &PartitionConfig::new(4, 8, 64.0))
        .unwrap();
    let dp_sched = builder
        .build_single(&dp_plan, ScheduleKind::Fifo1F1B)
        .unwrap();

    // Equal split: 7 layers per stage.
    let layers = model.component(bb).num_layers();
    let per = layers / 4;
    let equal_plan = PartitionPlan {
        stages: (0..4)
            .map(|s| StagePlan {
                component: bb,
                layers: s * per..(s + 1) * per,
                replication: 1,
                device_offsets: vec![s],
            })
            .collect(),
        num_micro_batches: 8,
        micro_batch: 8.0,
        t0: 0.0,
        t_sync_gap: 0.0,
        t_max: 0.0,
    };
    let eq_sched = builder
        .build_single(&equal_plan, ScheduleKind::Fifo1F1B)
        .unwrap();
    println!(
        "  DP partitioner  : makespan {:.0} ms  (layer cuts {:?})",
        dp_sched.compute_end() * 1e3,
        dp_plan
            .stages
            .iter()
            .map(|s| s.layers.clone())
            .collect::<Vec<_>>()
    );
    println!(
        "  equal split     : makespan {:.0} ms",
        eq_sched.compute_end() * 1e3
    );
}

/// Ablation 4 — minimum-bubble threshold sweep (the paper uses 10 ms).
fn bubble_threshold() {
    println!("\n[4] minimum-bubble threshold (ControlNet, 8 GPUs, batch 384)");
    let model = zoo::controlnet_v1_0();
    let cluster = ClusterSpec::single_node(8);
    let cost = CostModel::new(vec![profile(&model, &cluster, 384)], &cluster);
    let layout = DataParallelLayout::new(&cluster, 2).unwrap();
    let bb = model.backbones().next().unwrap().0;
    let part = Partitioner::new(&cost, &layout);
    let plan = part
        .partition_single(bb, &PartitionConfig::new(2, 2, 96.0))
        .unwrap();
    let sched = ScheduleBuilder::new(part.cost())
        .build_single(&plan, ScheduleKind::Fifo1F1B)
        .unwrap();
    for min_ms in [1.0, 10.0, 50.0, 100.0] {
        let bubbles = sched.bubbles(min_ms * 1e-3);
        // The setup cost grows with smaller thresholds in practice; the
        // default config charges it per item either way.
        let fill = Filler::new(
            cost.db(),
            FillConfig {
                min_bubble_seconds: min_ms * 1e-3,
                ..FillConfig::default()
            },
        )
        .fill(&bubbles, sched.group_batch, 2)
        .unwrap();
        let combined = CombinedIteration::new(&sched, &bubbles, &fill);
        println!(
            "  threshold {min_ms:>5.0} ms: {} bubbles considered, fill ratio {:>5.1}%, iter {:.0} ms",
            bubbles.len(),
            fill.fill_ratio() * 100.0,
            combined.iteration_time() * 1e3
        );
    }
}

fn main() {
    println!("DiffusionPipe design-choice ablations (DESIGN.md §3)");
    cross_iteration_overlap();
    bidirectional_vs_separate();
    partition_quality();
    bubble_threshold();
}
