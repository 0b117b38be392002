//! §6.4: pre-processing overhead — profiling, partitioning and bubble
//! filling costs of the offline planning pass. Profiling is simulated and
//! comes with the plan; partitioning and filling are wall time in
//! milliseconds, summed from the planner's `partition` spans and its
//! `schedule` and `fill` spans.
//!
//! Run with: `cargo run --release -p dpipe_bench --bin preprocessing`

use diffusionpipe_core::{Planner, Trace, Tracer};
use dpipe_cluster::ClusterSpec;
use dpipe_model::zoo;

/// The summed wall time of the spans named `names`, milliseconds.
fn millis_in(trace: &Trace, names: &[&str]) -> f64 {
    let micros: u64 = names
        .iter()
        .flat_map(|name| trace.spans_named(name))
        .map(|span| span.duration_us())
        .sum();
    micros as f64 / 1e3
}

fn main() {
    println!("§6.4: pre-processing overhead\n");
    println!(
        "{:<14} {:>6} {:>6} {:>18} {:>16} {:>12}",
        "model", "gpus", "batch", "profiling (sim s)", "partition (ms)", "fill (ms)"
    );
    for (model, name) in [
        (zoo::stable_diffusion_v2_1(), "sd-v2.1"),
        (zoo::controlnet_v1_0(), "controlnet"),
    ] {
        for machines in [2usize, 8] {
            let cluster = ClusterSpec::p4de(machines);
            let world = cluster.world_size();
            let batch = 32 * world as u32;
            let tracer = Tracer::new();
            let plan = Planner::new(model.clone(), cluster.clone())
                .with_tracer(tracer.clone())
                .plan(batch)
                .unwrap();
            let trace = tracer.take();
            println!(
                "{:<14} {:>6} {:>6} {:>18.1} {:>16.3} {:>12.3}",
                name,
                world,
                batch,
                plan.profiling_seconds,
                millis_in(&trace, &["partition"]),
                millis_in(&trace, &["schedule", "fill"])
            );
        }
    }
    println!("\npaper: profiling ~55 s (SD v2.1, 2 machines, batch 512, parallel),");
    println!("partitioning ~0.5 s, bubble filling < 1 s — all one-off offline costs");
}
