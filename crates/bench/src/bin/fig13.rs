//! Fig. 13: training throughput (samples/second) across cluster scales and
//! batch sizes, DiffusionPipe vs all baselines.
//!
//! Run with: `cargo run --release -p dpipe_bench --bin fig13 [sd|controlnet|cdm-lsun|cdm-imagenet|all]`
//!
//! Single-backbone models sweep the paper's per-scale batch ladder in both
//! the vanilla and self-conditioning cases; CDMs compare against the
//! DeepSpeed(-ZeRO-3)-S/-P modes.

use diffusionpipe_core::Planner;
use dpipe_baselines::{cdm_data_parallel, ddp, gpipe, spp, zero3, CdmMode};
use dpipe_bench::{cell, profile};
use dpipe_cluster::ClusterSpec;
use dpipe_model::{zoo, ModelSpec};
use dpipe_partition::SearchSpace;

/// Batch ladder per world size: the paper scales {8, 16, 32, 48}x world for
/// single-backbone models (64..3072 across 8..64 GPUs).
fn batches(world: usize) -> Vec<u32> {
    [8u32, 16, 32, 48]
        .iter()
        .map(|m| m * world as u32)
        .collect()
}

fn single_backbone(model: &ModelSpec, label: &str) {
    for self_cond in [false, true] {
        let mut model = model.clone();
        if !self_cond {
            model.self_conditioning = None;
        }
        let case = if self_cond {
            "self-conditioning"
        } else {
            "vanilla case"
        };
        for machines in [1usize, 2, 4, 8] {
            let cluster = ClusterSpec::p4de(machines);
            let world = cluster.world_size();
            println!("\n=== Fig. 13 {label}: {world} GPUs, {case} (samples/s) ===");
            println!(
                "{:>7} {:>13} {:>10} {:>10} {:>10} {:>10}",
                "batch", "diffusionpipe", "spp", "gpipe", "deepspeed", "zero3"
            );
            for batch in batches(world) {
                let plan = Planner::new(model.clone(), cluster.clone()).plan(batch);
                let db = profile(&model, &cluster, batch);
                let bb = model.backbones().next().expect("backbone").0;
                let r_spp = spp(&db, &cluster, bb, batch, &SearchSpace::default());
                let r_gpipe = gpipe(&db, &cluster, bb, batch, 2, 4);
                let r_ddp = ddp(&db, &cluster, batch);
                let r_z3 = zero3(&db, &cluster, batch);
                println!(
                    "{:>7} {:>13} {:>10} {:>10} {:>10} {:>10}",
                    batch,
                    plan.map(|p| cell(p.throughput, false))
                        .unwrap_or_else(|_| "OOM".into()),
                    r_spp
                        .map(|r| cell(r.throughput, r.oom))
                        .unwrap_or_else(|e| e.chars().take(6).collect()),
                    r_gpipe
                        .map(|r| cell(r.throughput, r.oom))
                        .unwrap_or_else(|e| e.chars().take(6).collect()),
                    cell(r_ddp.throughput, r_ddp.oom),
                    cell(r_z3.throughput, r_z3.oom),
                );
            }
        }
    }
}

fn cdm(model: &ModelSpec, label: &str) {
    for machines in [1usize, 2, 4, 8] {
        let cluster = ClusterSpec::p4de(machines);
        let world = cluster.world_size();
        println!("\n=== Fig. 13 {label}: {world} GPUs (samples/s, batch per backbone) ===");
        println!(
            "{:>7} {:>13} {:>12} {:>12} {:>12} {:>12}",
            "batch", "diffusionpipe", "ds-s", "ds-p", "zero3-s", "zero3-p"
        );
        for mult in [16u32, 32, 48, 64] {
            let batch = mult * world as u32;
            let plan = Planner::new(model.clone(), cluster.clone()).plan(batch);
            let db = profile(model, &cluster, batch);
            let rows = [
                cdm_data_parallel(&db, &cluster, batch, CdmMode::Sequential, false),
                cdm_data_parallel(&db, &cluster, batch, CdmMode::Parallel, false),
                cdm_data_parallel(&db, &cluster, batch, CdmMode::Sequential, true),
                cdm_data_parallel(&db, &cluster, batch, CdmMode::Parallel, true),
            ];
            println!(
                "{:>7} {:>13} {:>12} {:>12} {:>12} {:>12}",
                batch,
                plan.map(|p| cell(p.throughput, false))
                    .unwrap_or_else(|_| "OOM".into()),
                cell(rows[0].throughput, rows[0].oom),
                cell(rows[1].throughput, rows[1].oom),
                cell(rows[2].throughput, rows[2].oom),
                cell(rows[3].throughput, rows[3].oom),
            );
        }
    }
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    if matches!(which.as_str(), "sd" | "all") {
        single_backbone(&zoo::stable_diffusion_v2_1(), "(a) Stable Diffusion v2.1");
    }
    if matches!(which.as_str(), "controlnet" | "all") {
        single_backbone(&zoo::controlnet_v1_0(), "(b) ControlNet v1.0");
    }
    if matches!(which.as_str(), "cdm-lsun" | "all") {
        cdm(&zoo::cdm_lsun(), "(c) CDM-LSUN");
    }
    if matches!(which.as_str(), "cdm-imagenet" | "all") {
        cdm(&zoo::cdm_imagenet(), "(d) CDM-ImageNet");
    }
    println!("\npaper headlines: up to 1.41x over pipeline baselines, up to 1.28x over");
    println!("data parallel at scale; CDMs comparable to DeepSpeed-P with lower memory");
}
