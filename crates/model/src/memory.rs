//! Peak device memory estimation.

use crate::{ComponentId, ModelSpec};
use std::ops::Range;

/// Bytes per trainable parameter under mixed-precision Adam: fp32 master
/// weight (4) + gradient (4) + two optimizer moments (8).
const TRAINABLE_STATE_BYTES: f64 = 16.0;

/// Multiplier converting a layer's *output* activation bytes into the total
/// intermediate activation footprint its backward pass retains (convs,
/// norms and attention keep several intermediates besides the block
/// output). Calibrated so Stable Diffusion v2.1 training at local batch 8
/// lands near the ~24 GB the paper cites (§2.3).
const ACTIVATION_FACTOR: f64 = 8.0;

/// Estimates peak per-device memory for the training strategies compared in
/// the paper.
#[derive(Debug, Clone)]
pub struct MemoryModel<'a> {
    model: &'a ModelSpec,
}

impl<'a> MemoryModel<'a> {
    /// Creates an estimator for one model.
    pub fn new(model: &'a ModelSpec) -> Self {
        MemoryModel { model }
    }

    fn trainable_param_bytes(&self) -> f64 {
        self.model
            .backbones()
            .map(|(_, c)| c.param_bytes() as f64)
            .sum()
    }

    fn frozen_param_bytes(&self) -> f64 {
        self.model
            .frozen_components()
            .map(|(_, c)| c.param_bytes() as f64)
            .sum()
    }

    /// Retained activation bytes of the full trainable part at a local
    /// batch (the backward graph holds every layer's intermediates).
    fn trainable_activation_bytes(&self, local_batch: f64) -> f64 {
        let out: f64 = self
            .model
            .backbones()
            .flat_map(|(_, c)| c.layers.iter())
            .map(|l| l.out_bytes_per_sample as f64)
            .sum();
        out * ACTIVATION_FACTOR * local_batch
    }

    /// Transient frozen-part peak: frozen layers run forward-only, so only
    /// the widest pair of adjacent activations is alive at once.
    fn frozen_activation_bytes(&self, local_batch: f64) -> f64 {
        let max_out = self
            .model
            .frozen_components()
            .flat_map(|(_, c)| c.layers.iter())
            .map(|l| l.out_bytes_per_sample as f64)
            .fold(0.0, f64::max);
        2.0 * max_out * local_batch
    }

    /// Peak bytes for vanilla DDP at a per-device batch.
    pub fn ddp_peak(&self, local_batch: f64) -> u64 {
        (self.trainable_param_bytes() / 4.0 * TRAINABLE_STATE_BYTES
            + self.frozen_param_bytes()
            + self.trainable_activation_bytes(local_batch)
            + self.frozen_activation_bytes(local_batch)) as u64
    }

    /// Peak bytes for ZeRO-3 (trainable states sharded over `world`).
    pub fn zero3_peak(&self, local_batch: f64, world: usize) -> u64 {
        // Sharded states plus one full layer's gathered parameters.
        let max_layer_params = self
            .model
            .backbones()
            .flat_map(|(_, c)| c.layers.iter())
            .map(|l| l.param_bytes() as f64)
            .fold(0.0, f64::max);
        (self.trainable_param_bytes() / 4.0 * TRAINABLE_STATE_BYTES / world as f64
            + max_layer_params
            + self.frozen_param_bytes()
            + self.trainable_activation_bytes(local_batch)
            + self.frozen_activation_bytes(local_batch)) as u64
    }

    /// Peak bytes for one pipeline stage holding `layers` of `component`,
    /// replicated `r`-way, with `in_flight` micro-batch activations alive
    /// (1F1B keeps at most `min(M, S - s)` per stage).
    pub fn pipeline_stage_peak(
        &self,
        component: ComponentId,
        layers: Range<usize>,
        local_micro_batch: f64,
        in_flight: usize,
    ) -> u64 {
        let comp = self.model.component(component);
        let params: f64 = layers
            .clone()
            .map(|l| comp.layers[l].param_bytes() as f64)
            .sum();
        let act: f64 = layers
            .map(|l| comp.layers[l].out_bytes_per_sample as f64)
            .sum::<f64>()
            * ACTIVATION_FACTOR
            * local_micro_batch
            * in_flight as f64;
        (params / 4.0 * TRAINABLE_STATE_BYTES
            + act
            + self.frozen_param_bytes()
            + self.frozen_activation_bytes(local_micro_batch)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    const GB: f64 = 1024.0 * 1024.0 * 1024.0;

    #[test]
    fn sd_ddp_memory_near_paper_value() {
        // §2.3: SD v2.1 at local batch 8 consumes about 24.3 GB.
        let m = zoo::stable_diffusion_v2_1();
        let mm = MemoryModel::new(&m);
        let gb = mm.ddp_peak(8.0) as f64 / GB;
        assert!((15.0..35.0).contains(&gb), "{gb} GB");
    }

    #[test]
    fn ddp_memory_grows_with_batch() {
        let m = zoo::stable_diffusion_v2_1();
        let mm = MemoryModel::new(&m);
        assert!(mm.ddp_peak(48.0) > mm.ddp_peak(8.0));
    }

    #[test]
    fn zero3_beats_ddp_on_states() {
        let m = zoo::stable_diffusion_v2_1();
        let mm = MemoryModel::new(&m);
        assert!(mm.zero3_peak(8.0, 64) < mm.ddp_peak(8.0));
    }

    #[test]
    fn pipeline_stage_lighter_than_full_model() {
        let m = zoo::stable_diffusion_v2_1();
        let mm = MemoryModel::new(&m);
        let bb = m.backbones().next().unwrap().0;
        let stage = mm.pipeline_stage_peak(bb, 0..14, 8.0, 2);
        assert!(stage < mm.ddp_peak(8.0));
    }

    #[test]
    fn in_flight_micro_batches_scale_activations() {
        let m = zoo::stable_diffusion_v2_1();
        let mm = MemoryModel::new(&m);
        let bb = m.backbones().next().unwrap().0;
        let one = mm.pipeline_stage_peak(bb, 0..14, 8.0, 1);
        let four = mm.pipeline_stage_peak(bb, 0..14, 8.0, 4);
        assert!(four > one);
    }
}
