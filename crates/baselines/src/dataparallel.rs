//! Data-parallel baselines: DeepSpeed DDP and ZeRO-3.

use crate::report::BaselineReport;
use dpipe_cluster::{ClusterSpec, DeviceId};
use dpipe_model::MemoryModel;
use dpipe_profile::ProfileDb;

/// Compute time of one DDP iteration on a device: frozen forward plus
/// trainable forward+backward (with the self-conditioning extra forward in
/// expectation), at the per-device batch.
fn compute_time(db: &ProfileDb, local_batch: f64) -> f64 {
    let frozen = db.total_frozen_fwd_time(local_batch);
    let sc_prob = db
        .model()
        .self_conditioning
        .map_or(0.0, |sc| sc.probability);
    let trainable: f64 = db
        .model()
        .backbones()
        .map(|(id, c)| {
            let n = c.num_layers();
            let fwd = db.fwd_time_range(id, 0..n, local_batch);
            let bwd = db.bwd_time_range(id, 0..n, local_batch);
            (1.0 + sc_prob) * fwd + bwd
        })
        .sum();
    frozen + trainable
}

/// Gradient volume of all backbones, bytes.
fn grad_bytes(db: &ProfileDb) -> u64 {
    db.model()
        .backbones()
        .map(|(id, c)| db.grad_bytes_range(id, 0..c.num_layers()))
        .sum()
}

/// Vanilla distributed data parallelism (DeepSpeed default): every device
/// holds the full model; gradients are all-reduced at the end of backward
/// (unoverlapped, matching the paper's Table 2 accounting).
pub fn ddp(db: &ProfileDb, cluster: &ClusterSpec, global_batch: u32) -> BaselineReport {
    let world = cluster.world_size();
    let local = global_batch as f64 / world as f64;
    let compute = compute_time(db, local);
    let devices: Vec<DeviceId> = cluster.devices().collect();
    let sync = cluster
        .comm_model()
        .allreduce_time(grad_bytes(db), &devices);
    let iteration = compute + sync;
    let peak = MemoryModel::new(db.model()).ddp_peak(local);
    BaselineReport {
        name: "deepspeed".to_owned(),
        iteration_time: iteration,
        throughput: global_batch as f64 / iteration,
        bubble_ratio: 0.0,
        peak_memory_bytes: 0,
        oom: false,
        sync_fraction: sync / iteration,
    }
    .with_memory(peak, cluster.device_memory_bytes)
}

/// ZeRO-3: optimizer/gradient/parameter sharding. Parameters are
/// all-gathered before forward and backward and gradients reduce-scattered,
/// tripling the synchronisation volume relative to DDP's single all-reduce;
/// half of it overlaps with compute (prefetching).
pub fn zero3(db: &ProfileDb, cluster: &ClusterSpec, global_batch: u32) -> BaselineReport {
    let world = cluster.world_size();
    let local = global_batch as f64 / world as f64;
    let compute = compute_time(db, local);
    let devices: Vec<DeviceId> = cluster.devices().collect();
    let comm = cluster.comm_model();
    let volume = grad_bytes(db);
    // Two all-gathers (forward + backward) and one reduce-scatter. In ring
    // terms each all-gather or reduce-scatter is half an all-reduce, so the
    // raw traffic is 1.5x DDP's single all-reduce; per-layer gather latency
    // prevents meaningful overlap at scale, so it is all exposed.
    let exposed = 1.5 * comm.allreduce_time(volume, &devices);
    let iteration = compute + exposed;
    let peak = MemoryModel::new(db.model()).zero3_peak(local, world);
    BaselineReport {
        name: "deepspeed-zero3".to_owned(),
        iteration_time: iteration,
        throughput: global_batch as f64 / iteration,
        bubble_ratio: 0.0,
        peak_memory_bytes: 0,
        oom: false,
        sync_fraction: exposed / iteration,
    }
    .with_memory(peak, cluster.device_memory_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpipe_model::zoo;
    use dpipe_profile::{DeviceModel, Profiler};

    fn db(model: dpipe_model::ModelSpec, batch: u32) -> ProfileDb {
        Profiler::new(DeviceModel::a100_like())
            .profile(&model, batch)
            .0
    }

    #[test]
    fn table2_sync_fraction_shape() {
        // Table 2: SD v2.1 DDP sync share ~5% at 8 GPUs rising to ~38% at
        // 64 GPUs (local batch 8).
        let mut m = zoo::stable_diffusion_v2_1();
        m.self_conditioning = None;
        let mut fractions = Vec::new();
        for machines in [1usize, 2, 4, 8] {
            let cluster = ClusterSpec::p4de(machines);
            let global = 8 * cluster.world_size() as u32;
            let r = ddp(&db(m.clone(), 8), &cluster, global);
            fractions.push(r.sync_fraction);
        }
        assert!((0.02..0.12).contains(&fractions[0]), "{fractions:?}");
        assert!((0.28..0.50).contains(&fractions[3]), "{fractions:?}");
        assert!(fractions.windows(2).all(|w| w[0] < w[1]), "{fractions:?}");
    }

    #[test]
    fn controlnet_sync_fraction_slightly_higher() {
        let mut sd = zoo::stable_diffusion_v2_1();
        sd.self_conditioning = None;
        let mut cn = zoo::controlnet_v1_0();
        cn.self_conditioning = None;
        let cluster = ClusterSpec::p4de(2);
        let global = 8 * 16;
        let r_sd = ddp(&db(sd, 8), &cluster, global);
        let r_cn = ddp(&db(cn, 8), &cluster, global);
        // ControlNet has a shorter compute iteration (smaller trainable
        // part), so sync takes a slightly larger share (Table 2).
        assert!(r_cn.sync_fraction > 0.8 * r_sd.sync_fraction);
    }

    #[test]
    fn zero3_trades_memory_for_comm() {
        let m = zoo::stable_diffusion_v2_1();
        let cluster = ClusterSpec::p4de(2);
        let d = db(m, 8);
        let r_ddp = ddp(&d, &cluster, 128);
        let r_z3 = zero3(&d, &cluster, 128);
        assert!(r_z3.peak_memory_bytes < r_ddp.peak_memory_bytes);
        assert!(r_z3.iteration_time > r_ddp.iteration_time);
    }

    #[test]
    fn throughput_zero_when_oom() {
        // Absurd batch size forces OOM.
        let m = zoo::stable_diffusion_v2_1();
        let cluster = ClusterSpec::single_node(8);
        let r = ddp(&db(m, 64), &cluster, 8 * 2000);
        assert!(r.oom);
        assert_eq!(r.throughput, 0.0);
    }

    #[test]
    fn self_conditioning_slows_ddp() {
        let sc = zoo::stable_diffusion_v2_1();
        let mut vanilla = sc.clone();
        vanilla.self_conditioning = None;
        let cluster = ClusterSpec::single_node(8);
        let r_sc = ddp(&db(sc, 8), &cluster, 64);
        let r_v = ddp(&db(vanilla, 8), &cluster, 64);
        assert!(r_sc.iteration_time > r_v.iteration_time);
    }
}
