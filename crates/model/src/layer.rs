//! Per-layer cost metadata.

use std::fmt;

/// Coarse operator category of a layer.
///
/// The kind does not affect planning directly; it feeds the profiler's cost
/// model (e.g. attention layers have worse small-batch efficiency than convs)
/// and makes timelines and plans human-readable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Convolution (or conv-dominated residual block).
    Conv,
    /// Self/cross attention block.
    Attention,
    /// Transformer encoder layer (attention + MLP).
    Transformer,
    /// Fully connected / projection layer.
    Linear,
    /// Token or timestep embedding.
    Embedding,
    /// Normalisation / activation glue.
    Norm,
    /// Resolution change (up/downsample).
    Resample,
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LayerKind::Conv => "conv",
            LayerKind::Attention => "attn",
            LayerKind::Transformer => "xfmr",
            LayerKind::Linear => "linear",
            LayerKind::Embedding => "embed",
            LayerKind::Norm => "norm",
            LayerKind::Resample => "resample",
        };
        f.write_str(s)
    }
}

/// Cost metadata for one layer.
///
/// All quantities are *per sample* except `overhead_us`, which is a
/// batch-independent kernel-launch / framework overhead paid once per layer
/// invocation. The profiler combines these with a device model to produce
/// execution times; see `dpipe_profile`.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSpec {
    /// Human-readable name, e.g. `"down.3.resblock"`.
    pub name: String,
    /// Operator category.
    pub kind: LayerKind,
    /// Number of trainable parameters (0 for frozen layers is *not* implied;
    /// frozen components simply never produce gradients).
    pub param_count: u64,
    /// Forward FLOPs per sample.
    pub flops_per_sample: f64,
    /// Backward/forward FLOP ratio (typically 2.0).
    pub backward_mult: f64,
    /// Bytes of activation output per sample (what must be sent to the next
    /// stage if a pipeline boundary is placed after this layer).
    pub out_bytes_per_sample: u64,
    /// Fixed per-invocation overhead in microseconds.
    pub overhead_us: f64,
}

impl LayerSpec {
    /// Creates a layer with the given name/kind and cost numbers, using the
    /// default backward multiplier of 2.0.
    pub fn new(
        name: impl Into<String>,
        kind: LayerKind,
        param_count: u64,
        flops_per_sample: f64,
        out_bytes_per_sample: u64,
    ) -> Self {
        LayerSpec {
            name: name.into(),
            kind,
            param_count,
            flops_per_sample,
            backward_mult: 2.0,
            out_bytes_per_sample,
            overhead_us: 50.0,
        }
    }

    /// Sets the fixed per-invocation overhead (µs), returning `self` for
    /// chaining.
    pub(crate) fn with_overhead_us(mut self, overhead_us: f64) -> Self {
        self.overhead_us = overhead_us;
        self
    }

    /// Parameter bytes assuming 4-byte (f32) parameters.
    pub(crate) fn param_bytes(&self) -> u64 {
        self.param_count * 4
    }

    /// Gradient bytes — equal to parameter bytes for f32 training.
    pub fn grad_bytes(&self) -> u64 {
        self.param_bytes()
    }

    /// Activation output bytes for a whole batch.
    pub fn out_bytes(&self, batch: u64) -> u64 {
        self.out_bytes_per_sample * batch
    }

    /// Returns true if this layer's cost numbers are internally consistent
    /// (non-negative, finite).
    pub(crate) fn is_valid(&self) -> bool {
        self.flops_per_sample.is_finite()
            && self.flops_per_sample >= 0.0
            && self.backward_mult.is_finite()
            && self.backward_mult >= 0.0
            && self.overhead_us.is_finite()
            && self.overhead_us >= 0.0
            && !self.name.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LayerSpec {
        LayerSpec::new("block", LayerKind::Conv, 1_000_000, 2.0e9, 1 << 20)
    }

    #[test]
    fn param_and_grad_bytes_are_f32_sized() {
        let l = sample();
        assert_eq!(l.param_bytes(), 4_000_000);
        assert_eq!(l.grad_bytes(), l.param_bytes());
    }

    #[test]
    fn out_bytes_scale_with_batch() {
        let l = sample();
        assert_eq!(l.out_bytes(8), 8 << 20);
        assert_eq!(l.out_bytes(0), 0);
    }

    #[test]
    fn builder_style_setters() {
        let l = sample().with_overhead_us(10.0);
        assert_eq!(l.overhead_us, 10.0);
    }

    #[test]
    fn validity_checks() {
        assert!(sample().is_valid());
        let mut bad = sample();
        bad.flops_per_sample = f64::NAN;
        assert!(!bad.is_valid());
        let mut bad = sample();
        bad.name.clear();
        assert!(!bad.is_valid());
        let mut bad = sample();
        bad.backward_mult = -1.0;
        assert!(!bad.is_valid());
    }

    #[test]
    fn kind_display() {
        assert_eq!(LayerKind::Attention.to_string(), "attn");
        assert_eq!(LayerKind::Resample.to_string(), "resample");
    }
}
