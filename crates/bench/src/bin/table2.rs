//! Table 2: proportion of parameter synchronisation in DDP iteration time
//! at local batch 8, versus cluster size.
//!
//! Run with: `cargo run --release -p dpipe_bench --bin table2`

use dpipe_baselines::ddp;
use dpipe_bench::{header, profile, row};
use dpipe_cluster::ClusterSpec;
use dpipe_model::zoo;

fn main() {
    println!("Table 2: synchronisation share of DDP iteration time (local batch 8)\n");
    header(&["model", "8 gpus", "16 gpus", "32 gpus", "64 gpus"]);
    for (mut model, name) in [
        (zoo::stable_diffusion_v2_1(), "sd-v2.1"),
        (zoo::controlnet_v1_0(), "controlnet"),
    ] {
        // Table 2 measures the vanilla training loop.
        model.self_conditioning = None;
        let mut cells = vec![name.to_owned()];
        for machines in [1usize, 2, 4, 8] {
            let cluster = ClusterSpec::p4de(machines);
            let global = 8 * cluster.world_size() as u32;
            let db = profile(&model, &cluster, 8);
            let r = ddp(&db, &cluster, global);
            cells.push(format!("{:.1}%", r.sync_fraction * 100.0));
        }
        row(&cells);
    }
    println!("\npaper: sd 5.2/19.3/36.1/38.1%, controlnet 6.9/22.7/39.1/40.1%");
}
