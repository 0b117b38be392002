//! Analytical device model.

/// A compute device characterised by an effective sustained throughput and
/// a batch-efficiency curve.
///
/// Layer execution time is modelled as
/// `overhead + flops_per_sample * batch * φ(batch) / peak_flops`, where
/// `φ(B) = (1 + c/√B) / (1 + c/√B_ref)` captures the kernel-efficiency gain
/// of larger local batches (small batches under-utilise the device). `φ` is
/// normalised to 1 at the reference batch (64), so zoo calibrations quoted
/// "at batch 64" are exact. This nonlinearity is what lets DiffusionPipe
/// out-run data parallelism even without synchronisation overhead: pipeline
/// stages and bubble-filled frozen layers process larger local batches than
/// a fully data-parallel layout (paper §6.1).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    /// Device name, informational.
    pub name: String,
    /// Effective sustained throughput in FLOP/s at the reference batch.
    pub peak_flops: f64,
    /// Batch-efficiency coefficient `c` (0 disables the effect).
    pub efficiency_coeff: f64,
    /// Reference batch at which `φ = 1`.
    pub reference_batch: f64,
}

impl DeviceModel {
    /// An A100-80GB-like device: 1e14 FLOP/s effective at batch 64 (about a
    /// third of the fp16 tensor-core peak, accounting for memory-bound
    /// layers), with a moderate small-batch penalty.
    pub fn a100_like() -> Self {
        DeviceModel {
            name: "a100-80gb".to_owned(),
            peak_flops: 1.0e14,
            efficiency_coeff: 8.0,
            reference_batch: 64.0,
        }
    }

    /// A device with perfectly linear batch scaling (φ ≡ 1), useful for
    /// tests that need exact proportionality.
    pub fn linear() -> Self {
        DeviceModel {
            efficiency_coeff: 0.0,
            name: "linear".to_owned(),
            ..DeviceModel::a100_like()
        }
    }

    /// A device `factor`× faster/slower than this one.
    pub fn scaled(&self, factor: f64) -> Self {
        DeviceModel {
            name: format!("{}-x{factor}", self.name),
            peak_flops: self.peak_flops * factor,
            ..self.clone()
        }
    }

    /// The efficiency multiplier `φ(batch)` (1 at the reference batch,
    /// larger for smaller batches, smaller for bigger ones).
    pub fn efficiency_factor(&self, batch: f64) -> f64 {
        if self.efficiency_coeff == 0.0 || batch <= 0.0 {
            return 1.0;
        }
        let phi = (1.0 + self.efficiency_coeff / batch.sqrt())
            / (1.0 + self.efficiency_coeff / self.reference_batch.sqrt());
        // Kernels saturate: beyond a few hundred samples per device the
        // per-sample time stops improving.
        phi.max(0.65)
    }

    /// Execution time of a kernel with the given per-sample FLOPs and fixed
    /// overhead for a (possibly fractional) local batch.
    ///
    /// Fractional batches arise from the paper's `B/r` terms when a stage is
    /// replicated on `r` devices.
    pub fn kernel_time(&self, flops_per_sample: f64, overhead_us: f64, batch: f64) -> f64 {
        debug_assert!(batch >= 0.0);
        overhead_us * 1e-6
            + flops_per_sample * batch * self.efficiency_factor(batch) / self.peak_flops
    }
}

impl Default for DeviceModel {
    fn default() -> Self {
        DeviceModel::a100_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_time_linear_for_linear_device() {
        let d = DeviceModel::linear();
        let t1 = d.kernel_time(1e12, 0.0, 1.0);
        let t2 = d.kernel_time(1e12, 0.0, 2.0);
        assert!((t2 - 2.0 * t1).abs() < 1e-12);
        assert!((t1 - 0.01).abs() < 1e-12); // 1 TFLOP at 1e14 FLOP/s = 10 ms
    }

    #[test]
    fn efficiency_normalised_at_reference_batch() {
        let d = DeviceModel::a100_like();
        assert!((d.efficiency_factor(64.0) - 1.0).abs() < 1e-12);
        // Smaller batches pay a penalty, larger ones a bonus.
        assert!(d.efficiency_factor(8.0) > 1.2);
        assert!(d.efficiency_factor(256.0) < 1.0);
        assert_eq!(d.efficiency_factor(0.0), 1.0);
    }

    #[test]
    fn per_sample_time_decreases_with_batch() {
        let d = DeviceModel::a100_like();
        let per = |b: f64| d.kernel_time(1e12, 0.0, b) / b;
        assert!(per(8.0) > per(32.0));
        assert!(per(32.0) > per(128.0));
    }

    #[test]
    fn overhead_is_batch_independent() {
        let d = DeviceModel::a100_like();
        let t0 = d.kernel_time(0.0, 100.0, 0.0);
        let t64 = d.kernel_time(0.0, 100.0, 64.0);
        assert_eq!(t0, t64);
        assert!((t0 - 1e-4).abs() < 1e-15);
    }

    #[test]
    fn scaled_device() {
        let d = DeviceModel::linear().scaled(2.0);
        assert_eq!(d.peak_flops, 2.0e14);
        let t = d.kernel_time(1e12, 0.0, 1.0);
        assert!((t - 0.005).abs() < 1e-12);
    }
}
