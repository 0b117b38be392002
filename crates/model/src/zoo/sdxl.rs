//! SDXL and Imagen-style structural descriptions (the larger-backbone trend
//! the paper's introduction motivates).

use super::sd::{unet_blocks, vae_encoder};
use super::{layer_ms64, spread};
use crate::{ComponentBuilder, LayerKind, ModelSpec, ModelSpecBuilder, Role, SelfConditioning};

const MB: u64 = 1 << 20;
const KB: u64 = 1 << 10;

/// SDXL-base-like model: a ~2.6 B-parameter U-Net with two frozen text
/// encoders (CLIP-L + OpenCLIP-bigG) and the frozen VAE. The backbone is
/// ~3x Stable Diffusion v2.1's, stressing stage partitioning and memory.
pub fn sdxl_base() -> ModelSpec {
    let mut b = ModelSpecBuilder::new("sdxl-base");
    // CLIP-L text encoder: 12 fast transformer blocks.
    let mut clip_l = ComponentBuilder::new("text_encoder_l", Role::Frozen);
    for (i, p) in spread(123_000_000, 12).into_iter().enumerate() {
        clip_l = clip_l.layer(layer_ms64(
            format!("clipl.block{i}"),
            LayerKind::Transformer,
            p,
            0.35,
            310 * KB,
        ));
    }
    let clip_l = b.push_component(clip_l.build());
    // OpenCLIP-bigG: 32 heavier blocks.
    let mut big_g = ComponentBuilder::new("text_encoder_bigg", Role::Frozen);
    for (i, p) in spread(694_000_000, 32).into_iter().enumerate() {
        big_g = big_g.layer(layer_ms64(
            format!("bigg.block{i}"),
            LayerKind::Transformer,
            p,
            1.1,
            512 * KB,
        ));
    }
    let big_g = b.push_component(big_g.build());
    let vae = b.push_component(vae_encoder(1.0).build());

    // SDXL U-Net: 36 blocks, heavier mid/low-res attention.
    let ms64: Vec<f64> = [
        vec![26.0; 4],
        vec![32.0; 6],
        vec![44.0; 6],
        vec![50.0; 4], // down + mid
        vec![44.0; 8],
        vec![32.0; 5],
        vec![26.0; 3], // up
    ]
    .concat();
    let params = spread(2_600_000_000, 36);
    let out: Vec<u64> = vec![3 * MB; 36];
    let mut unet = ComponentBuilder::new("unet_xl", Role::Backbone)
        .layers(unet_blocks("xl", &ms64, &params, &out))
        .build();
    unet.deps = vec![clip_l, big_g, vae];
    b.push_component(unet);

    b.self_conditioning(SelfConditioning::default())
        .input_shape(1024, 1024)
        .build()
}

/// Imagen-style base model: a 2 B-parameter 64×64 backbone conditioned on a
/// frozen T5-XXL text encoder whose forward time rivals the backbone's —
/// the extreme bubble-filling opportunity.
pub fn imagen_base() -> ModelSpec {
    let mut b = ModelSpecBuilder::new("imagen-base");
    // T5-XXL encoder: 24 blocks, ~4.7 B params, heavy per-block time.
    let mut t5 = ComponentBuilder::new("t5_xxl", Role::Frozen);
    for (i, p) in spread(4_700_000_000, 24).into_iter().enumerate() {
        t5 = t5.layer(layer_ms64(
            format!("t5.block{i}"),
            LayerKind::Transformer,
            p,
            28.0,
            2 * MB,
        ));
    }
    let t5 = b.push_component(t5.build());

    let ms64: Vec<f64> = (0..24)
        .map(|i| {
            let center = 11.5f64;
            16.0 * (1.0 + 0.4 * (1.0 - ((i as f64 - center).abs() / center)))
        })
        .collect();
    let params = spread(2_000_000_000, 24);
    let out: Vec<u64> = vec![MB; 24];
    let mut backbone = ComponentBuilder::new("efficient_unet", Role::Backbone)
        .layers(unet_blocks("imagen", &ms64, &params, &out))
        .build();
    backbone.deps = vec![t5];
    b.push_component(backbone);

    b.input_shape(64, 64).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sdxl_is_much_bigger_than_sd() {
        let xl = sdxl_base();
        let sd = super::super::stable_diffusion_v2_1();
        assert!(xl.trainable_param_count() > 2 * sd.trainable_param_count());
        assert_eq!(xl.frozen_components().count(), 3);
        xl.validate().unwrap();
    }

    #[test]
    fn imagen_frozen_part_rivals_backbone() {
        let m = imagen_base();
        m.validate().unwrap();
        let frozen: f64 = m
            .frozen_components()
            .map(|(_, c)| c.flops_per_sample())
            .sum();
        let trainable: f64 = m.backbones().map(|(_, c)| c.flops_per_sample()).sum();
        // T5-XXL forward ~ half the backbone's fwd+bwd (ratio ~0.5).
        let ratio = frozen / (3.0 * trainable);
        assert!((0.3..0.8).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn imagen_frozen_params_dominate() {
        let m = imagen_base();
        assert!(m.frozen_param_count() > 2 * m.trainable_param_count());
    }
}
