//! Ablation study (paper Fig. 15): DiffusionPipe with partial-batch layers
//! disabled, and with bubble filling disabled entirely.
//!
//! Run with: `cargo run --release --example ablation`

use diffusionpipe::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = ClusterSpec::single_node(8);
    println!(
        "{:<22} {:>10} {:>16} {:>16}",
        "model/batch", "full", "no partial-batch", "no filling"
    );
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
            };
            let full = plan(true, true)?;
            let no_partial = plan(true, false)?;
            let no_fill = plan(false, false)?;
            println!(
                "{:<22} {:>10.1} {:>16.1} {:>16.1}",
                format!("{name}/{batch}"),
                full.throughput,
                no_partial.throughput,
                no_fill.throughput
            );
        }
    }
    println!("\n(samples/second; expect full > no-partial > no-filling, and at batch 384");
    println!(" no-partial collapsing toward no-filling as the extra-long frozen layer");
    println!(" blocks everything behind it — the paper's Fig. 15 observation)");
    Ok(())
}
