//! Fig. 6: execution time of the top-3 longest frozen layers versus batch
//! size, compared to the longest pipeline bubble at 4 micro-batches for 2–4
//! stages (batch 64, FIFO-1F1B).
//!
//! Run with: `cargo run --release -p dpipe_bench --bin fig6`

use dpipe_bench::profile;
use dpipe_cluster::{ClusterSpec, DataParallelLayout};
use dpipe_model::{zoo, LayerId};
use dpipe_partition::{CostModel, PartitionConfig, Partitioner};
use dpipe_schedule::{ScheduleBuilder, ScheduleKind};

fn main() {
    for (mut model, name) in [
        (zoo::stable_diffusion_v2_1(), "(a) Stable Diffusion v2.1"),
        (zoo::controlnet_v1_0(), "(b) ControlNet v1.0"),
    ] {
        model.self_conditioning = None;
        println!("\nFig. 6 {name}");
        let cluster = ClusterSpec::single_node(4);
        let db = profile(&model, &cluster, 64);

        // Top-3 frozen layers by time at batch 64.
        let mut layers: Vec<(String, dpipe_model::ComponentId, LayerId, f64)> = model
            .frozen_components()
            .flat_map(|(cid, comp)| {
                comp.layers_enumerated()
                    .map(move |(lid, l)| (l.name.clone(), cid, lid, 0.0))
            })
            .collect();
        for e in &mut layers {
            e.3 = db.fwd_time(e.1, e.2, 64.0);
        }
        layers.sort_by(|a, b| b.3.partial_cmp(&a.3).unwrap());
        println!("top-3 frozen layer times (ms) by batch size:");
        print!("{:<20}", "layer \\ batch");
        let batches = [4.0, 8.0, 16.0, 32.0, 48.0, 64.0];
        for b in batches {
            print!("{b:>9}");
        }
        println!();
        for (lname, cid, lid, _) in layers.iter().take(3) {
            print!("{lname:<20}");
            for b in batches {
                print!("{:>9.0}", db.fwd_time(*cid, *lid, b) * 1e3);
            }
            println!();
        }

        // Longest bubble for 2-4 stages at 4 micro-batches, batch 64.
        println!("\nlongest pipeline bubble at M=4, batch 64 (ms):");
        let bb = model.backbones().next().unwrap().0;
        for stages in [2usize, 3, 4] {
            let cluster = ClusterSpec::single_node(stages);
            let cost = CostModel::new(vec![profile(&model, &cluster, 64)], &cluster);
            let layout = DataParallelLayout::new(&cluster, stages).unwrap();
            let part = Partitioner::new(&cost, &layout);
            let plan = part
                .partition_single(bb, &PartitionConfig::new(stages, 4, 64.0))
                .unwrap();
            let sched = ScheduleBuilder::new(part.cost())
                .build_single(&plan, ScheduleKind::Fifo1F1B)
                .unwrap();
            let longest = sched
                .bubbles(0.0)
                .iter()
                .map(|b| b.duration())
                .fold(0.0, f64::max);
            println!("  {stages} stages: {:.0} ms", longest * 1e3);
        }
    }
    println!("\npaper: top layers ~400ms at batch 64, dropping under the longest bubble");
    println!("(~100-200ms) once the batch shrinks to ~16 — motivating partial-batch layers");
}
