//! Profile database: the query interface used by every planning algorithm.

use crate::device::DeviceModel;
use crate::records::RecordTable;
use dpipe_model::{ComponentId, LayerId, ModelSpec};
use std::ops::Range;
use std::sync::Arc;

/// Deterministic multiplicative noise emulating profiling measurement error.
///
/// A layer's *profiled* time is its true analytic time scaled by
/// `1 + sigma * u` where `u ∈ [-1, 1]` is a hash of (component, layer).
/// This reproduces the paper's observation (§6.2) that the gap between
/// profiled and actual execution time leaves a little bubble time unfilled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Relative noise amplitude (e.g. 0.03 for ±3%).
    pub sigma: f64,
    /// Seed mixed into the hash.
    pub seed: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

impl NoiseConfig {
    fn factor(&self, c: ComponentId, l: LayerId) -> f64 {
        let h = splitmix64(
            self.seed ^ (c.index() as u64).wrapping_mul(0x9e37) ^ ((l.index() as u64) << 32),
        );
        let u = (h as f64 / u64::MAX as f64) * 2.0 - 1.0;
        1.0 + self.sigma * u
    }
}

/// Queryable per-layer execution times, communication sizes and gradient
/// sizes — the paper's "profile records" (Fig. 7, step 1 output).
#[derive(Debug, Clone)]
pub struct ProfileDb {
    model: Arc<ModelSpec>,
    device: DeviceModel,
    noise: Option<NoiseConfig>,
    /// When present, layer times come from interpolated measurements
    /// instead of the analytic device model (the paper's record-driven
    /// mode).
    records: Option<Arc<RecordTable>>,
}

impl ProfileDb {
    /// Builds a database for `model` timed on `device`.
    pub fn new(model: Arc<ModelSpec>, device: DeviceModel) -> Self {
        ProfileDb {
            model,
            device,
            noise: None,
            records: None,
        }
    }

    /// Switches the database to record-backed timing: every layer query is
    /// answered by piecewise-linear interpolation over the given profiled
    /// samples. The table is validated against the model up front, so a
    /// model/profile mismatch is a typed error here rather than a panic
    /// inside a later timing query.
    ///
    /// # Errors
    ///
    /// [`crate::ProfileError`] if any model layer lacks samples.
    pub(crate) fn with_records(
        mut self,
        records: RecordTable,
    ) -> Result<Self, crate::ProfileError> {
        records.validate_covers(&self.model)?;
        self.records = Some(Arc::new(records));
        Ok(self)
    }

    /// True when timing comes from interpolated records.
    pub fn is_record_backed(&self) -> bool {
        self.records.is_some()
    }

    /// Adds deterministic measurement noise.
    pub fn with_noise(mut self, noise: NoiseConfig) -> Self {
        self.noise = Some(noise);
        self
    }

    /// The profiled model.
    pub fn model(&self) -> &ModelSpec {
        &self.model
    }

    fn noise_factor(&self, c: ComponentId, l: LayerId) -> f64 {
        self.noise.map_or(1.0, |n| n.factor(c, l))
    }

    /// Forward time `P^f_l(B)` of one layer at a (possibly fractional) local
    /// batch size. Record-backed lookups are total: coverage is validated
    /// when the records are attached, and a layer that somehow still lacks
    /// samples falls back to the analytic model instead of panicking.
    pub fn fwd_time(&self, c: ComponentId, l: LayerId, batch: f64) -> f64 {
        if let Some(records) = &self.records {
            if let Some(samples) = records.layer(c, l) {
                return samples.fwd(batch) * self.noise_factor(c, l);
            }
        }
        let layer = self.model.component(c).layer(l);
        self.device
            .kernel_time(layer.flops_per_sample, layer.overhead_us, batch)
            * self.noise_factor(c, l)
    }

    /// Backward time `P^b_l(B)` (same lookup contract as
    /// [`ProfileDb::fwd_time`]).
    pub(crate) fn bwd_time(&self, c: ComponentId, l: LayerId, batch: f64) -> f64 {
        if let Some(records) = &self.records {
            if let Some(samples) = records.layer(c, l) {
                return samples.bwd(batch) * self.noise_factor(c, l);
            }
        }
        let layer = self.model.component(c).layer(l);
        self.device.kernel_time(
            layer.flops_per_sample * layer.backward_mult,
            layer.overhead_us * layer.backward_mult,
            batch,
        ) * self.noise_factor(c, l)
    }

    /// Sum of forward times over a layer range of a component.
    pub fn fwd_time_range(&self, c: ComponentId, layers: Range<usize>, batch: f64) -> f64 {
        layers.map(|l| self.fwd_time(c, LayerId(l), batch)).sum()
    }

    /// Sum of backward times over a layer range.
    pub fn bwd_time_range(&self, c: ComponentId, layers: Range<usize>, batch: f64) -> f64 {
        layers.map(|l| self.bwd_time(c, LayerId(l), batch)).sum()
    }

    /// Forward time of a whole component (frozen encoders run forward only).
    pub(crate) fn component_fwd_time(&self, c: ComponentId, batch: f64) -> f64 {
        self.fwd_time_range(c, 0..self.model.component(c).num_layers(), batch)
    }

    /// Forward + backward time of a whole component.
    pub(crate) fn component_fwd_bwd_time(&self, c: ComponentId, batch: f64) -> f64 {
        let n = self.model.component(c).num_layers();
        self.fwd_time_range(c, 0..n, batch) + self.bwd_time_range(c, 0..n, batch)
    }

    /// Activation bytes crossing a stage boundary placed *after* layer `l`
    /// of component `c`, for a whole local batch — the paper's
    /// `C^f_{l,l+1}(B)`. Backward traffic `C^b_{l+1,l}` is the gradient of
    /// the same activation, i.e. the same byte count.
    pub fn boundary_bytes(&self, c: ComponentId, l: LayerId, batch: f64) -> u64 {
        let layer = self.model.component(c).layer(l);
        (layer.out_bytes_per_sample as f64 * batch).ceil() as u64
    }

    /// Gradient bytes `G_l` of a layer (batch independent for f32 training).
    pub(crate) fn grad_bytes(&self, c: ComponentId, l: LayerId) -> u64 {
        self.model.component(c).layer(l).grad_bytes()
    }

    /// Gradient bytes summed over a layer range.
    pub fn grad_bytes_range(&self, c: ComponentId, layers: Range<usize>) -> u64 {
        layers.map(|l| self.grad_bytes(c, LayerId(l))).sum()
    }

    /// Output bytes `O_L(B)` of a component's final layer for a local batch
    /// (used for the self-conditioning feedback transfer, Eqn. 18).
    pub fn output_bytes(&self, c: ComponentId, batch: f64) -> u64 {
        let comp = self.model.component(c);
        (comp.output_bytes_per_sample() as f64 * batch).ceil() as u64
    }

    /// Total frozen (non-trainable) forward time at a local batch size —
    /// numerator of the paper's Table 1 ratio.
    pub fn total_frozen_fwd_time(&self, batch: f64) -> f64 {
        self.model
            .frozen_components()
            .map(|(id, _)| self.component_fwd_time(id, batch))
            .sum()
    }

    /// Total trainable forward+backward time at a local batch size —
    /// denominator of the paper's Table 1 ratio.
    pub fn total_trainable_fwd_bwd_time(&self, batch: f64) -> f64 {
        self.model
            .backbones()
            .map(|(id, _)| self.component_fwd_bwd_time(id, batch))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpipe_model::zoo;

    fn db() -> ProfileDb {
        ProfileDb::new(Arc::new(zoo::tiny_model()), DeviceModel::a100_like())
    }

    #[test]
    fn bwd_is_twice_fwd_minus_overhead_effects() {
        let db = db();
        let (bb, _) = db.model().backbones().next().unwrap();
        let f = db.fwd_time(bb, LayerId(0), 64.0);
        let b = db.bwd_time(bb, LayerId(0), 64.0);
        assert!((b / f - 2.0).abs() < 1e-9, "b/f = {}", b / f);
    }

    #[test]
    fn range_sums_match_single_layers() {
        let db = db();
        let (bb, comp) = db.model().backbones().next().unwrap();
        let n = comp.num_layers();
        let total: f64 = (0..n).map(|l| db.fwd_time(bb, LayerId(l), 8.0)).sum();
        assert!((db.fwd_time_range(bb, 0..n, 8.0) - total).abs() < 1e-12);
    }

    #[test]
    fn fractional_batch_is_supported() {
        let db = db();
        let (bb, _) = db.model().backbones().next().unwrap();
        let t_half = db.fwd_time(bb, LayerId(0), 32.0);
        let t_full = db.fwd_time(bb, LayerId(0), 64.0);
        assert!(t_half < t_full);
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        let base = db();
        let noisy = db().with_noise(NoiseConfig {
            sigma: 0.05,
            seed: 42,
        });
        let noisy2 = db().with_noise(NoiseConfig {
            sigma: 0.05,
            seed: 42,
        });
        let (bb, comp) = base.model().backbones().next().unwrap();
        for l in 0..comp.num_layers() {
            let t0 = base.fwd_time(bb, LayerId(l), 16.0);
            let t1 = noisy.fwd_time(bb, LayerId(l), 16.0);
            let t2 = noisy2.fwd_time(bb, LayerId(l), 16.0);
            assert_eq!(t1, t2);
            assert!((t1 / t0 - 1.0).abs() <= 0.05 + 1e-12);
        }
    }

    #[test]
    fn table1_ratio_shape_for_sd() {
        // Table 1: SD v2.1 non-trainable/trainable ratio grows from ~38% at
        // batch 8 to ~44% at batch 64.
        let db = ProfileDb::new(
            Arc::new(zoo::stable_diffusion_v2_1()),
            DeviceModel::a100_like(),
        );
        let r8 = db.total_frozen_fwd_time(8.0) / db.total_trainable_fwd_bwd_time(8.0);
        let r64 = db.total_frozen_fwd_time(64.0) / db.total_trainable_fwd_bwd_time(64.0);
        assert!((0.33..0.43).contains(&r8), "r8 = {r8}");
        assert!((0.40..0.49).contains(&r64), "r64 = {r64}");
        assert!(r64 > r8);
    }

    #[test]
    fn table1_ratio_shape_for_controlnet() {
        let db = ProfileDb::new(Arc::new(zoo::controlnet_v1_0()), DeviceModel::a100_like());
        let r8 = db.total_frozen_fwd_time(8.0) / db.total_trainable_fwd_bwd_time(8.0);
        let r64 = db.total_frozen_fwd_time(64.0) / db.total_trainable_fwd_bwd_time(64.0);
        assert!((0.68..0.84).contains(&r8), "r8 = {r8}");
        assert!((0.82..0.96).contains(&r64), "r64 = {r64}");
        assert!(r64 > r8);
    }

    #[test]
    fn boundary_and_grad_bytes() {
        let db = db();
        let (bb, comp) = db.model().backbones().next().unwrap();
        let l0 = comp.layer(LayerId(0));
        assert_eq!(
            db.boundary_bytes(bb, LayerId(0), 4.0),
            l0.out_bytes_per_sample * 4
        );
        assert_eq!(db.grad_bytes(bb, LayerId(0)), l0.grad_bytes());
        assert_eq!(
            db.grad_bytes_range(bb, 0..comp.num_layers()),
            comp.param_bytes()
        );
    }
}
