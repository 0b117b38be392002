//! Fig. 4: pipeline bubble ratio (upper) and the ratio of bubble time to
//! non-trainable execution time (lower) for FIFO-1F1B at batch 64, across
//! stage counts 2–4 and micro-batch counts 1–4.
//!
//! Run with: `cargo run --release -p dpipe_bench --bin fig4`

use dpipe_bench::profile;
use dpipe_cluster::{ClusterSpec, DataParallelLayout};
use dpipe_fill::{FillConfig, Filler};
use dpipe_model::zoo;
use dpipe_partition::{CostModel, PartitionConfig, Partitioner};
use dpipe_schedule::{Bubble, ScheduleBuilder, ScheduleKind};

fn main() {
    for (mut model, name) in [
        (zoo::stable_diffusion_v2_1(), "(a) Stable Diffusion v2.1"),
        (zoo::controlnet_v1_0(), "(b) ControlNet v1.0"),
    ] {
        // Fig. 4 profiles the models without self-conditioning.
        model.self_conditioning = None;
        println!(
            "\nFig. 4 {name}: bubble%% of iteration (upper) / bubble vs non-trainable time (lower)"
        );
        println!("batch 64, FIFO-1F1B; rows = stages, cols = micro-batches\n");
        print!("{:>8}", "S\\M");
        for m in 1..=4 {
            print!("{m:>16}");
        }
        println!();
        let batch = 64u32;
        for stages in [4usize, 3, 2] {
            // One pipeline group spanning `stages` devices (r = 1), as in the
            // paper's profiling setup.
            let cluster = ClusterSpec::single_node(stages);
            let cost = CostModel::new(vec![profile(&model, &cluster, batch)], &cluster);
            let layout = DataParallelLayout::new(&cluster, stages).unwrap();
            let part = Partitioner::new(&cost, &layout);
            let bb = model.backbones().next().unwrap().0;
            print!("{stages:>8}");
            for micro in 1..=4 {
                let cfg = PartitionConfig::new(stages, micro, batch as f64);
                let plan = part.partition_single(bb, &cfg).unwrap();
                let sched = ScheduleBuilder::new(part.cost())
                    .build_single(&plan, ScheduleKind::Fifo1F1B)
                    .unwrap();
                // Iteration = non-trainable (data parallel, before pipeline)
                // + pipeline, as in the paper's Fig. 4 measurement.
                let filler = Filler::new(cost.db(), FillConfig::default());
                let frozen = filler.baseline_frozen_time(batch as f64, stages);
                let iter = frozen + sched.iteration_time();
                let idle: f64 = sched.bubbles(0.0).iter().map(Bubble::device_seconds).sum();
                let upper = idle / (iter * stages as f64);
                let lower = idle / (frozen * stages as f64);
                print!("{:>8.1}%{:>6.0}%", upper * 100.0, lower * 100.0);
            }
            println!();
        }
    }
    println!(
        "\npaper fig4a (upper-left, S=4 M=1): 67.6% / 684%; (lower-right, S=2 M=4): 14.8% / 57%"
    );
}
