//! Data-parallel training modes for cascaded diffusion models (CDMs).

use crate::report::BaselineReport;
use dpipe_cluster::{ClusterSpec, DeviceId};
use dpipe_model::MemoryModel;
use dpipe_profile::ProfileDb;

/// How a CDM's backbones share the cluster (paper §6 "Baselines").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CdmMode {
    /// `DeepSpeed(-ZeRO-3)-S`: backbones trained one after another, each on
    /// every device. Throughput = total batch / summed iteration times.
    Sequential,
    /// `DeepSpeed(-ZeRO-3)-P`: backbones trained concurrently on evenly
    /// partitioned device sets. Throughput = summed batch / max iteration
    /// time.
    Parallel,
}

/// One backbone's DDP iteration time on a device subset.
fn backbone_iter(
    db: &ProfileDb,
    comm: &dpipe_cluster::CommModel,
    backbone: dpipe_model::ComponentId,
    devices: &[DeviceId],
    local_batch: f64,
    zero3: bool,
) -> (f64, f64) {
    let comp = db.model().component(backbone);
    let n = comp.num_layers();
    let frozen = db.total_frozen_fwd_time(local_batch);
    let compute = frozen
        + db.fwd_time_range(backbone, 0..n, local_batch)
        + db.bwd_time_range(backbone, 0..n, local_batch);
    let volume = db.grad_bytes_range(backbone, 0..n);
    // ZeRO-3 swaps the all-reduce for two all-gathers plus a reduce-scatter
    // (1.5x the ring traffic, unoverlapped; see `dataparallel::zero3`).
    let sync = if zero3 {
        1.5 * comm.allreduce_time(volume, devices)
    } else {
        comm.allreduce_time(volume, devices)
    };
    (compute + sync, sync)
}

/// Data-parallel CDM training.
///
/// `batch_per_backbone` is the per-backbone global batch (the paper trains
/// all backbones of a CDM at the same batch size).
pub fn cdm_data_parallel(
    db: &ProfileDb,
    cluster: &ClusterSpec,
    batch_per_backbone: u32,
    mode: CdmMode,
    zero3: bool,
) -> BaselineReport {
    let comm = cluster.comm_model();
    let backbones: Vec<_> = db.model().backbones().map(|(id, _)| id).collect();
    let world = cluster.world_size();
    let k = backbones.len();
    let mm = MemoryModel::new(db.model());

    let (iteration, sync_total, local_batch) = match mode {
        CdmMode::Sequential => {
            let devices: Vec<DeviceId> = cluster.devices().collect();
            let local = batch_per_backbone as f64 / world as f64;
            let mut total = 0.0;
            let mut sync = 0.0;
            for &b in &backbones {
                let (t, s) = backbone_iter(db, &comm, b, &devices, local, zero3);
                total += t;
                sync += s;
            }
            (total, sync, local)
        }
        CdmMode::Parallel => {
            let per = world / k.max(1);
            let local = batch_per_backbone as f64 / per.max(1) as f64;
            let mut worst = 0.0f64;
            let mut sync = 0.0f64;
            for (i, &b) in backbones.iter().enumerate() {
                let devices: Vec<DeviceId> = (i * per..(i + 1) * per).map(DeviceId).collect();
                let (t, s) = backbone_iter(db, &comm, b, &devices, local, zero3);
                if t > worst {
                    worst = t;
                    sync = s;
                }
            }
            (worst, sync, local)
        }
    };

    let total_batch = batch_per_backbone as f64 * k as f64;
    // Memory: the heaviest backbone's full states at the mode's local batch.
    let peak = backbones
        .iter()
        .map(|&b| {
            let comp = db.model().component(b);
            let n = comp.num_layers();
            if zero3 {
                let shard = match mode {
                    CdmMode::Sequential => world,
                    CdmMode::Parallel => world / k.max(1),
                };
                mm.pipeline_stage_peak(b, 0..n, local_batch, 1) / shard.max(1) as u64
                    + comp.param_bytes()
            } else {
                mm.pipeline_stage_peak(b, 0..n, local_batch, 1)
            }
        })
        .max()
        .unwrap_or(0);
    let name = match (mode, zero3) {
        (CdmMode::Sequential, false) => "deepspeed-s",
        (CdmMode::Parallel, false) => "deepspeed-p",
        (CdmMode::Sequential, true) => "deepspeed-zero3-s",
        (CdmMode::Parallel, true) => "deepspeed-zero3-p",
    };
    BaselineReport {
        name: name.to_owned(),
        iteration_time: iteration,
        throughput: total_batch / iteration,
        bubble_ratio: 0.0,
        peak_memory_bytes: 0,
        oom: false,
        sync_fraction: sync_total / iteration,
    }
    .with_memory(peak, cluster.device_memory_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpipe_model::zoo;
    use dpipe_profile::{DeviceModel, Profiler};

    fn db(batch: u32) -> ProfileDb {
        Profiler::new(DeviceModel::a100_like())
            .profile(&zoo::cdm_lsun(), batch)
            .0
    }

    #[test]
    fn parallel_mode_overlaps_backbones() {
        let d = db(128);
        let cluster = ClusterSpec::single_node(8);
        let s = cdm_data_parallel(&d, &cluster, 128, CdmMode::Sequential, false);
        let p = cdm_data_parallel(&d, &cluster, 128, CdmMode::Parallel, false);
        // CDM-LSUN's backbones are balanced, so parallel halves the span and
        // roughly matches sequential throughput (paper: DeepSpeed-S already
        // balanced); both must be positive and the same order of magnitude.
        assert!(s.throughput > 0.0 && p.throughput > 0.0);
        let ratio = p.throughput / s.throughput;
        assert!((0.5..2.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn parallel_needs_more_memory_per_device() {
        let d = db(128);
        let cluster = ClusterSpec::single_node(8);
        let s = cdm_data_parallel(&d, &cluster, 128, CdmMode::Sequential, false);
        let p = cdm_data_parallel(&d, &cluster, 128, CdmMode::Parallel, false);
        // Parallel packs a backbone onto half the devices: higher local
        // batch, more activation memory.
        assert!(p.peak_memory_bytes > s.peak_memory_bytes);
    }

    #[test]
    fn zero3_variants_report_distinct_names() {
        let d = db(128);
        let cluster = ClusterSpec::single_node(8);
        let r = cdm_data_parallel(&d, &cluster, 128, CdmMode::Parallel, true);
        assert_eq!(r.name, "deepspeed-zero3-p");
    }

    #[test]
    fn throughput_counts_all_backbones() {
        let d = db(128);
        let cluster = ClusterSpec::single_node(8);
        let r = cdm_data_parallel(&d, &cluster, 128, CdmMode::Sequential, false);
        assert!((r.throughput * r.iteration_time - 256.0).abs() < 1e-6);
    }
}
