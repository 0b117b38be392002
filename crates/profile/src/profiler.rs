//! Parallel profiling pass (Fig. 7, step 1).

use crate::db::ProfileDb;
use crate::device::DeviceModel;
use crate::records::RecordTable;
use dpipe_model::{ComponentId, LayerId, ModelSpec};
use std::sync::Arc;

/// One profiled measurement: a layer at one batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRecord {
    /// Component owning the layer.
    pub component: ComponentId,
    /// Layer within the component.
    pub layer: LayerId,
    /// Batch size the measurement was taken at.
    pub batch: u32,
    /// Forward time in seconds.
    pub fwd_time: f64,
    /// Backward time in seconds (0 for frozen components).
    pub bwd_time: f64,
    /// Activation output bytes at this batch.
    pub out_bytes: u64,
}

/// Summary of a profiling run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfilingReport {
    /// Simulated wall-clock duration of the profiling pass, assuming it runs
    /// data-parallel on `world_size` devices with three timed repetitions
    /// per measurement (the paper reports ~55 s for SD v2.1 on 16 GPUs).
    pub wall_time_seconds: f64,
    /// All records gathered.
    pub records: Vec<ProfileRecord>,
    /// Batch sizes profiled.
    pub batch_sizes: Vec<u32>,
}

/// Timed repetitions per profiled measurement.
const REPEATS: u32 = 3;

/// Profiler configuration.
///
/// # Example
///
/// ```
/// use dpipe_model::zoo;
/// use dpipe_profile::{DeviceModel, Profiler};
///
/// let (db, report) = Profiler::new(DeviceModel::a100_like())
///     .with_world_size(16)
///     .profile(&zoo::tiny_model(), 64);
/// assert!(!report.records.is_empty());
/// assert!(db.fwd_time(dpipe_model::ComponentId(0), dpipe_model::LayerId(0), 8.0) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Profiler {
    device: DeviceModel,
    world_size: usize,
    extra_batch_sizes: Vec<u32>,
}

impl Profiler {
    /// Creates a profiler for the given device model.
    pub fn new(device: DeviceModel) -> Self {
        Profiler {
            device,
            world_size: 1,
            extra_batch_sizes: Vec::new(),
        }
    }

    /// Number of devices profiling runs on in parallel.
    pub fn with_world_size(mut self, world_size: usize) -> Self {
        assert!(world_size > 0, "world size must be positive");
        self.world_size = world_size;
        self
    }

    /// Additional batch sizes to profile beyond the default ladder.
    pub fn with_extra_batch_sizes(mut self, sizes: impl IntoIterator<Item = u32>) -> Self {
        self.extra_batch_sizes.extend(sizes);
        self
    }

    /// The batch-size ladder profiled for a training batch `b`: the paper's
    /// partial-batch candidates {4, 8, 12, 16, 24, 32, 48, 64, 96} capped at
    /// `b`, plus `b` itself and any extras.
    pub fn batch_ladder(&self, training_batch: u32) -> Vec<u32> {
        let mut sizes: Vec<u32> = [4u32, 8, 12, 16, 24, 32, 48, 64, 96]
            .into_iter()
            .filter(|&s| s <= training_batch)
            .collect();
        sizes.push(training_batch);
        sizes.extend(self.extra_batch_sizes.iter().copied());
        sizes.sort_unstable();
        sizes.dedup();
        sizes
    }

    /// Runs the profiling pass for `model` at training batch size
    /// `training_batch`, producing the queryable [`ProfileDb`] and a
    /// [`ProfilingReport`] with per-record data and simulated cost.
    pub fn profile(&self, model: &ModelSpec, training_batch: u32) -> (ProfileDb, ProfilingReport) {
        let model = Arc::new(model.clone());
        let db = ProfileDb::new(Arc::clone(&model), self.device.clone());
        let batch_sizes = self.batch_ladder(training_batch);
        let mut records = Vec::new();
        let mut total_device_seconds = 0.0;
        for (cid, comp) in model.components_enumerated() {
            for (lid, layer) in comp.layers_enumerated() {
                for &b in &batch_sizes {
                    let fwd = db.fwd_time(cid, lid, b as f64);
                    let bwd = if comp.is_trainable() {
                        db.bwd_time(cid, lid, b as f64)
                    } else {
                        0.0
                    };
                    total_device_seconds += (fwd + bwd) * REPEATS as f64;
                    records.push(ProfileRecord {
                        component: cid,
                        layer: lid,
                        batch: b,
                        fwd_time: fwd,
                        bwd_time: bwd,
                        out_bytes: layer.out_bytes(b as u64),
                    });
                }
            }
        }
        // Profiling parallelises over devices; add a fixed setup cost per
        // measured layer for graph capture / warmup.
        let setup = 0.02 * records.len() as f64 / self.world_size as f64;
        let report = ProfilingReport {
            wall_time_seconds: total_device_seconds / self.world_size as f64 + setup,
            records,
            batch_sizes,
        };
        (db, report)
    }

    /// Like [`Profiler::profile`], but returns a *record-backed* database:
    /// planning queries are answered by interpolating the measured samples
    /// (the paper's mode of operation). Backward times for frozen layers
    /// are profiled too so stage-cost queries remain well-defined.
    ///
    /// # Errors
    ///
    /// [`crate::ProfileError`] if the recorded table fails coverage
    /// validation against the model (cannot happen for tables built here,
    /// but the typed contract is shared with
    /// [`ProfileDb::with_records`]).
    pub fn profile_records(
        &self,
        model: &ModelSpec,
        training_batch: u32,
    ) -> Result<(ProfileDb, ProfilingReport), crate::ProfileError> {
        let (analytic_db, report) = self.profile(model, training_batch);
        let mut table = RecordTable::new();
        for (cid, comp) in model.components_enumerated() {
            for (lid, _) in comp.layers_enumerated() {
                for &b in &report.batch_sizes {
                    let fwd = analytic_db.fwd_time(cid, lid, b as f64);
                    let bwd = analytic_db.bwd_time(cid, lid, b as f64);
                    table.record(cid, lid, b as f64, fwd, bwd);
                }
            }
        }
        Ok((analytic_db.with_records(table)?, report))
    }

    /// Profiles `model` once per device class, given each class's compute
    /// scale relative to this profiler's device (the heterogeneous-cluster
    /// entry point): `dbs[c]` answers timing queries as measured on class
    /// `c`. A scale of exactly 1.0 reuses the reference database, so the
    /// single-class call is bit-identical to [`Profiler::profile`].
    ///
    /// The report models one profiling pass on the reference class — in a
    /// real mixed fleet each class profiles its own layers concurrently, so
    /// the reference wall time is the (conservative) upper bound.
    pub fn profile_classes(
        &self,
        model: &ModelSpec,
        training_batch: u32,
        compute_scales: &[f64],
    ) -> (Vec<ProfileDb>, ProfilingReport) {
        let (reference, report) = self.profile(model, training_batch);
        let dbs = compute_scales
            .iter()
            .map(|&scale| {
                if scale == 1.0 {
                    reference.clone()
                } else {
                    ProfileDb::new(Arc::new(model.clone()), self.device.scaled(scale))
                }
            })
            .collect();
        (dbs, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpipe_model::zoo;

    #[test]
    fn ladder_is_sorted_unique_and_capped() {
        let p = Profiler::new(DeviceModel::a100_like());
        assert_eq!(p.batch_ladder(16), vec![4, 8, 12, 16]);
        assert_eq!(p.batch_ladder(64), vec![4, 8, 12, 16, 24, 32, 48, 64]);
        let l = p.batch_ladder(100);
        assert!(l.contains(&96) && l.contains(&100));
    }

    #[test]
    fn record_count_matches_layers_times_batches() {
        let m = zoo::tiny_model();
        let p = Profiler::new(DeviceModel::a100_like());
        let (_, report) = p.profile(&m, 16);
        let layers: usize = m.components.iter().map(|c| c.num_layers()).sum();
        assert_eq!(report.records.len(), layers * report.batch_sizes.len());
    }

    #[test]
    fn frozen_layers_have_zero_bwd() {
        let m = zoo::tiny_model();
        let (_, report) = Profiler::new(DeviceModel::a100_like()).profile(&m, 8);
        for r in &report.records {
            let frozen = !m.component(r.component).is_trainable();
            if frozen {
                assert_eq!(r.bwd_time, 0.0);
            } else {
                assert!(r.bwd_time > 0.0);
            }
        }
    }

    #[test]
    fn more_devices_profile_faster() {
        let m = zoo::stable_diffusion_v2_1();
        let (_, r1) = Profiler::new(DeviceModel::a100_like()).profile(&m, 64);
        let (_, r16) = Profiler::new(DeviceModel::a100_like())
            .with_world_size(16)
            .profile(&m, 64);
        assert!(r16.wall_time_seconds < r1.wall_time_seconds);
    }

    #[test]
    fn sd_profiling_takes_tens_of_seconds_on_16_gpus() {
        // §6.4: "a typical profiling time of SD v2.1 on 2 machines at batch
        // size 512 is 55 seconds". Same order of magnitude here.
        let m = zoo::stable_diffusion_v2_1();
        let (_, r) = Profiler::new(DeviceModel::a100_like())
            .with_world_size(16)
            .with_extra_batch_sizes([128, 256, 512])
            .profile(&m, 512);
        assert!(
            (5.0..300.0).contains(&r.wall_time_seconds),
            "{}",
            r.wall_time_seconds
        );
    }
}
