//! Fig. 15: ablation study on 8 GPUs — DiffusionPipe with the partial-batch
//! layer design disabled, and with bubble filling disabled entirely.
//!
//! Run with: `cargo run --release -p dpipe_bench --bin fig15`

use diffusionpipe_core::{PlanSpec, Planner, PlannerOptions};
use dpipe_cluster::ClusterSpec;
use dpipe_model::zoo;

fn main() {
    println!("Fig. 15: ablation on 8 GPUs (samples/s)\n");
    println!(
        "{:<14} {:>6} {:>15} {:>18} {:>16}",
        "model", "batch", "diffusionpipe", "partial disabled", "fill disabled"
    );
    let cluster = ClusterSpec::single_node(8);
    for (model, name) in [
        (zoo::stable_diffusion_v2_1(), "sd-v2.1"),
        (zoo::controlnet_v1_0(), "controlnet"),
    ] {
        for batch in [256u32, 384] {
            let plan = |bubble_filling, partial_batch| {
                Planner::plan_spec(
                    &PlanSpec::new(model.clone(), cluster.clone(), batch).with_options(
                        PlannerOptions {
                            bubble_filling,
                            partial_batch,
                        },
                    ),
                )
                .unwrap()
            };
            let full = plan(true, true);
            let no_partial = plan(true, false);
            let no_fill = plan(false, false);
            println!(
                "{:<14} {:>6} {:>15.1} {:>18.1} {:>16.1}",
                name, batch, full.throughput, no_partial.throughput, no_fill.throughput
            );
        }
    }
    println!("\npaper (controlnet@256): partial-batch off -10.9%, filling off -17.6%;");
    println!("at batch 384 partial-batch-off collapses toward filling-off (the extra-long");
    println!("frozen layer blocks every layer behind it)");
}
