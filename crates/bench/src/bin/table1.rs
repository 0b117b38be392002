//! Table 1: ratio of the frozen (non-trainable) part's forward time to the
//! trainable part's forward+backward time, per batch size.
//!
//! Run with: `cargo run --release -p dpipe_bench --bin table1`

use dpipe_bench::{header, profile, row};
use dpipe_cluster::ClusterSpec;
use dpipe_model::zoo;

fn main() {
    println!("Table 1: non-trainable / trainable time ratio on the A100-like device\n");
    header(&["model", "b=8", "b=16", "b=32", "b=64"]);
    let cluster = ClusterSpec::single_node(1);
    for (model, name) in [
        (zoo::stable_diffusion_v2_1(), "sd-v2.1"),
        (zoo::controlnet_v1_0(), "controlnet"),
    ] {
        let db = profile(&model, &cluster, 64);
        let mut cells = vec![name.to_owned()];
        for b in [8.0, 16.0, 32.0, 64.0] {
            let r = db.total_frozen_fwd_time(b) / db.total_trainable_fwd_bwd_time(b);
            cells.push(format!("{:.0}%", r * 100.0));
        }
        row(&cells);
    }
    println!("\npaper: sd 38/41/43/44%, controlnet 76/81/86/89%");
}
