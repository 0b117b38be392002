//! Fig. 14: pipeline bubble ratio on 8 GPUs — DiffusionPipe vs GPipe vs SPP.
//!
//! Run with: `cargo run --release -p dpipe_bench --bin fig14`

use diffusionpipe_core::Planner;
use dpipe_baselines::{gpipe, spp};
use dpipe_bench::profile;
use dpipe_cluster::ClusterSpec;
use dpipe_model::zoo;
use dpipe_partition::SearchSpace;

fn main() {
    println!("Fig. 14: pipeline bubble ratio on 8 GPUs (% of iteration device-time)\n");
    println!(
        "{:<14} {:>6} {:>15} {:>8} {:>8}",
        "model", "batch", "diffusionpipe", "gpipe", "spp"
    );
    let cluster = ClusterSpec::single_node(8);
    for (model, name) in [
        (zoo::stable_diffusion_v2_1(), "sd-v2.1"),
        (zoo::controlnet_v1_0(), "controlnet"),
    ] {
        for batch in [256u32, 384] {
            let plan = Planner::new(model.clone(), cluster.clone())
                .plan(batch)
                .unwrap();
            let db = profile(&model, &cluster, batch);
            let bb = model.backbones().next().unwrap().0;
            let g = gpipe(&db, &cluster, bb, batch, 2, 4).unwrap();
            let s = spp(&db, &cluster, bb, batch, &SearchSpace::default()).unwrap();
            println!(
                "{:<14} {:>6} {:>14.1}% {:>7.1}% {:>7.1}%",
                name,
                batch,
                plan.bubble_ratio * 100.0,
                g.bubble_ratio * 100.0,
                s.bubble_ratio * 100.0
            );
        }
    }
    println!("\npaper: DiffusionPipe < 5%, GPipe/SPP in the 15-40% range");
}
