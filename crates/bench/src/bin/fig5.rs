//! Fig. 5: execution time of every non-trainable (frozen) layer at batch 64.
//!
//! Run with: `cargo run --release -p dpipe_bench --bin fig5`

use dpipe_bench::profile;
use dpipe_cluster::ClusterSpec;
use dpipe_model::zoo;

/// Renders a crude log-scale dot for a value in milliseconds.
fn bar(ms: f64) -> String {
    let pos = ((ms.log10() + 1.0) * 12.0).clamp(0.0, 60.0) as usize;
    let mut s = " ".repeat(pos);
    s.push('*');
    s
}

fn main() {
    let cluster = ClusterSpec::single_node(1);
    for (model, name) in [
        (zoo::stable_diffusion_v2_1(), "(a) Stable Diffusion v2.1"),
        (zoo::controlnet_v1_0(), "(b) ControlNet v1.0"),
    ] {
        println!("\nFig. 5 {name}: frozen layer times at batch 64 (log scale 0.1ms .. 1s)");
        let db = profile(&model, &cluster, 64);
        let mut index = 0usize;
        for (cid, comp) in model.frozen_components() {
            for (lid, layer) in comp.layers_enumerated() {
                let ms = db.fwd_time(cid, lid, 64.0) * 1e3;
                println!(
                    "{index:>3} {:<24} {:>9.2} ms |{}",
                    format!("{}/{}", comp.name, layer.name),
                    ms,
                    bar(ms)
                );
                index += 1;
            }
        }
    }
    println!("\npaper: many sub-ms text-encoder layers (indices 0-21), moderate 1-30ms");
    println!("VAE layers, and a few extra-long (>100ms, up to ~400ms) layers");
}
