//! Model zoo: structural descriptions of the diffusion models evaluated in
//! the paper, plus synthetic models for tests.
//!
//! # Calibration
//!
//! The FLOP/byte numbers here are calibrated so that, under the default
//! device model of `dpipe_profile` (an A100-like device with an effective
//! sustained throughput of 1e14 FLOP/s), the *shapes* reported by the paper
//! hold:
//!
//! * Table 1 — non-trainable forward time / trainable forward+backward time:
//!   ~38→44% for Stable Diffusion v2.1 and ~76→89% for ControlNet v1.0 as the
//!   batch grows from 8 to 64;
//! * Fig. 5 — frozen-layer time distribution: many sub-millisecond text
//!   encoder layers, a body of 1–30 ms VAE layers, and a few extra-long
//!   (>100 ms, up to ~400 ms at batch 64) VAE layers;
//! * Fig. 6 — layer time scales near-linearly with batch size, so halving or
//!   quartering the batch brings the extra-long layers under the longest
//!   pipeline bubble.
//!
//! Absolute wall-clock values are a simulation, not an A100 measurement; see
//! `DESIGN.md` for the substitution rationale.

mod cdm;
mod controlnet;
mod dit;
mod sd;
mod sdxl;
mod synthetic;

pub use cdm::{cdm_imagenet, cdm_lsun};
pub use controlnet::controlnet_v1_0;
pub use dit::dit_xl_2;
pub use sd::stable_diffusion_v2_1;
pub use sdxl::{imagen_base, sdxl_base};
pub use synthetic::{synthetic_backbone, synthetic_model, tiny_model};

use crate::{LayerKind, LayerSpec, ModelSpec};

/// Short names of the paper-evaluated zoo models, in `dpipe models` order.
/// [`by_name`] resolves each of them (and the models' full names).
pub const NAMES: [&str; 7] = [
    "sd",
    "controlnet",
    "cdm-lsun",
    "cdm-imagenet",
    "dit",
    "sdxl",
    "imagen",
];

/// Looks a zoo model up by its short CLI/spec name or its full model name.
/// This is the single registry behind `dpipe plan --model`, `model=` serve
/// request lines and `PlanSpec` `{"model":{"zoo":...}}` references.
pub fn by_name(name: &str) -> Option<ModelSpec> {
    Some(match name {
        "sd" | "stable-diffusion" | "stable-diffusion-v2.1" => stable_diffusion_v2_1(),
        "controlnet" | "controlnet-v1.0" => controlnet_v1_0(),
        "cdm-lsun" => cdm_lsun(),
        "cdm-imagenet" => cdm_imagenet(),
        "dit" | "dit-xl-2" => dit_xl_2(),
        "sdxl" | "sdxl-base" => sdxl_base(),
        "imagen" | "imagen-base" => imagen_base(),
        _ => return None,
    })
}

/// FLOPs that take one millisecond at the default device peak of 1e14 FLOP/s.
pub(crate) const FLOPS_PER_MS: f64 = 1.0e11;

/// Builds a layer whose forward pass takes roughly `ms_at_64` milliseconds
/// for a 64-sample batch on the default device (ignoring the fixed overhead,
/// which is set separately).
pub(crate) fn layer_ms64(
    name: impl Into<String>,
    kind: LayerKind,
    param_count: u64,
    ms_at_64: f64,
    out_bytes_per_sample: u64,
) -> LayerSpec {
    let flops_per_sample = ms_at_64 * FLOPS_PER_MS / 64.0;
    LayerSpec::new(
        name,
        kind,
        param_count,
        flops_per_sample,
        out_bytes_per_sample,
    )
    .with_overhead_us(100.0)
}

/// Evenly spreads `total` into `n` parts that still sum to `total`.
pub(crate) fn spread(total: u64, n: usize) -> Vec<u64> {
    let base = total / n as u64;
    let rem = (total % n as u64) as usize;
    (0..n).map(|i| base + u64::from(i < rem)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every zoo model passes [`ModelSpec::validate`], so a structural
    /// mistake in a constructor fails here rather than inside a caller's
    /// planning run. A model added to [`NAMES`] is checked without editing
    /// this test.
    #[test]
    fn all_zoo_models_validate() {
        let models = NAMES
            .iter()
            .map(|name| by_name(name).unwrap_or_else(|| panic!("{name} must resolve")))
            .chain([tiny_model()]);
        for m in models {
            let result = m.validate();
            assert!(result.is_ok(), "{}: {:?}", m.name, result.err());
        }
    }

    #[test]
    fn by_name_resolves_every_listed_model_and_full_names() {
        for name in NAMES {
            let m = by_name(name).unwrap_or_else(|| panic!("{name} must resolve"));
            // The full model name resolves to the same spec.
            let full = by_name(&m.name).unwrap_or_else(|| panic!("{} must resolve", m.name));
            assert_eq!(m.fingerprint(), full.fingerprint(), "{name}");
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn spread_sums_to_total() {
        let parts = spread(100, 7);
        assert_eq!(parts.iter().sum::<u64>(), 100);
        assert_eq!(parts.len(), 7);
        assert!(parts.iter().all(|&p| p == 14 || p == 15));
    }

    #[test]
    fn layer_ms64_flops_match_target() {
        let l = layer_ms64("x", LayerKind::Conv, 0, 400.0, 0);
        // 400 ms at batch 64 => 400e-3 * 1e14 / 64 flops per sample.
        let expected = 400.0e-3 * 1.0e14 / 64.0;
        assert!((l.flops_per_sample - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn sd_has_single_backbone_and_self_conditioning() {
        let m = stable_diffusion_v2_1();
        assert_eq!(m.backbones().count(), 1);
        assert!(m.self_conditioning.is_some());
    }

    #[test]
    fn cdms_have_multiple_backbones_without_self_conditioning() {
        assert_eq!(cdm_lsun().backbones().count(), 2);
        assert_eq!(cdm_imagenet().backbones().count(), 2);
        assert!(cdm_lsun().self_conditioning.is_none());
    }

    #[test]
    fn frozen_layer_counts_match_paper_figure5() {
        // Fig. 5a: SD v2.1 has ~42 frozen layers; Fig. 5b: ControlNet ~60+.
        let sd = stable_diffusion_v2_1();
        assert!(
            (40..=44).contains(&sd.num_frozen_layers()),
            "{}",
            sd.num_frozen_layers()
        );
        let cn = controlnet_v1_0();
        assert!(
            (60..=70).contains(&cn.num_frozen_layers()),
            "{}",
            cn.num_frozen_layers()
        );
    }

    #[test]
    fn trainable_param_counts_are_model_scale() {
        // SD v2.1 U-Net is ~0.87B parameters.
        let sd = stable_diffusion_v2_1();
        let p = sd.trainable_param_count();
        assert!((700_000_000..=1_000_000_000).contains(&p), "{p}");
    }
}
