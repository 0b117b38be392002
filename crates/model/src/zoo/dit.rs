//! DiT-XL/2: transformer-backbone diffusion model (extension target the
//! paper's conclusion calls out).

use super::sd::{clip_text_encoder, vae_encoder};
use super::spread;
use crate::{ComponentBuilder, LayerKind, ModelSpec, ModelSpecBuilder, Role};

const KB: u64 = 1 << 10;

/// DiT-XL/2 at 256×256: frozen CLIP text encoder and VAE encoder (scaled for
/// the lower resolution) plus a 28-layer transformer backbone (~0.68 B
/// parameters). Demonstrates that the planner handles transformer backbones,
/// whose per-layer times are uniform (unlike the U-Net's resolution ladder).
pub fn dit_xl_2() -> ModelSpec {
    let mut b = ModelSpecBuilder::new("dit-xl-2");
    let text = b.push_component(clip_text_encoder().build());
    // 256x256 inputs: the VAE is ~4x cheaper than at 512x512.
    let vae = b.push_component(vae_encoder(0.25).build());

    let layers = 28usize;
    let params = spread(675_000_000, layers);
    let mut bb = ComponentBuilder::new("dit", Role::Backbone);
    for (i, p) in params.into_iter().enumerate() {
        bb = bb.layer(
            super::layer_ms64(
                format!("dit.layer{i}"),
                LayerKind::Transformer,
                p,
                5.25,
                1152 * KB,
            )
            .with_overhead_us(300.0),
        );
    }
    let mut bb = bb.build();
    bb.deps = vec![text, vae];
    b.push_component(bb);

    b.input_shape(256, 256).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dit_layers_are_uniform() {
        let m = dit_xl_2();
        let (_, dit) = m.backbones().next().unwrap();
        assert_eq!(dit.num_layers(), 28);
        let f0 = dit.layers[0].flops_per_sample;
        for l in &dit.layers {
            assert!((l.flops_per_sample - f0).abs() / f0 < 1e-9);
        }
    }

    #[test]
    fn vae_is_scaled_down() {
        let dit = dit_xl_2();
        let sd = super::super::stable_diffusion_v2_1();
        let dvae = dit
            .frozen_components()
            .find(|(_, c)| c.name == "vae_encoder")
            .unwrap()
            .1
            .flops_per_sample();
        let svae = sd
            .frozen_components()
            .find(|(_, c)| c.name == "vae_encoder")
            .unwrap()
            .1
            .flops_per_sample();
        assert!((dvae / svae - 0.25).abs() < 1e-9);
    }
}
