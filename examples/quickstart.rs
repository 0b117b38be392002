//! Quickstart: plan ControlNet v1.0 training on one 8-GPU machine and
//! print what DiffusionPipe decided. ControlNet's frozen part is ~90% of
//! its trainable time (Table 1), so bubble filling shines even at a single
//! node; try `zoo::stable_diffusion_v2_1()` to see the planner fall back to
//! an overlap-only layout when pipelining has nothing to win.
//!
//! Run with: `cargo run --release --example quickstart`

use diffusionpipe::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = zoo::controlnet_v1_0();
    let cluster = ClusterSpec::single_node(8);
    println!(
        "planning {} on {} GPUs (batch 384)...",
        model.name,
        cluster.world_size()
    );

    let plan = Planner::new(model, cluster.clone()).plan(384)?;

    println!("\nbest configuration: {}", plan.summary());
    println!(
        "data parallel degree: {}",
        plan.data_parallel_degree(cluster.world_size())
    );

    match &plan.partition {
        BackbonePartition::Single(p) => {
            println!("\nbackbone partition ({} stages):", p.stages.len());
            for (i, s) in p.stages.iter().enumerate() {
                println!(
                    "  stage {i}: layers {:>2}..{:>2}  x{} replicas (chain offsets {:?})",
                    s.layers.start, s.layers.end, s.replication, s.device_offsets
                );
            }
        }
        BackbonePartition::Bidirectional(_) => unreachable!("ControlNet has one backbone"),
    }

    println!("\nbubble filling:");
    println!("  bubbles considered : {}", plan.fill.bubbles.len());
    println!(
        "  filled time        : {:.1} ms of frozen work placed in bubbles",
        plan.fill.filled_time() * 1e3
    );
    println!(
        "  leftover tail      : {:.1} ms (runs after the pipeline)",
        plan.fill.leftover_time * 1e3
    );
    println!(
        "  fill ratio         : {:.1}% of bubble device-seconds recovered",
        plan.fill.fill_ratio() * 100.0
    );
    println!(
        "\npre-processing: profiling {:.1}s (simulated, parallel); \
         `dpipe plan --trace-tree` times partitioning and filling",
        plan.profiling_seconds
    );
    Ok(())
}
