//! Stable Diffusion v2.1 structural description.

use super::{layer_ms64, spread};
use crate::{ComponentBuilder, LayerKind, ModelSpec, ModelSpecBuilder, Role, SelfConditioning};

const MB: u64 = 1 << 20;
const KB: u64 = 1 << 10;

/// OpenCLIP-H-style frozen text encoder: token embedding, 20 transformer
/// blocks and a final projection — 22 layers, all fast (sub-millisecond at
/// batch 64), matching indices 0–21 of Fig. 5a.
pub(crate) fn clip_text_encoder() -> ComponentBuilder {
    let mut b = ComponentBuilder::new("text_encoder", Role::Frozen).layer(layer_ms64(
        "tok_embed",
        LayerKind::Embedding,
        50_000_000,
        0.15,
        310 * KB,
    ));
    for (i, p) in spread(300_000_000, 20).into_iter().enumerate() {
        b = b.layer(layer_ms64(
            format!("text.block{i}"),
            LayerKind::Transformer,
            p,
            0.45,
            310 * KB,
        ));
    }
    b.layer(layer_ms64(
        "text_proj",
        LayerKind::Linear,
        1_000_000,
        0.12,
        4 * KB,
    ))
}

/// Frozen VAE encoder at 512×512: 20 layers with the heavy-tailed time
/// distribution of Fig. 5a — three extra-long layers (the full-resolution
/// residual blocks) followed by a body of moderate 2–30 ms layers.
pub(crate) fn vae_encoder(scale: f64) -> ComponentBuilder {
    // Forward milliseconds at batch 64 for each encoder layer, heaviest
    // first (the 512x512-resolution conv blocks dominate).
    const MS64: [f64; 20] = [
        400.0, 190.0, 95.0, 28.0, 25.0, 22.0, 20.0, 18.0, 15.0, 12.0, 10.0, 9.0, 8.0, 7.0, 6.0,
        5.0, 4.0, 3.0, 2.5, 2.0,
    ];
    // Output bytes per sample shrink as resolution drops; the final layer
    // emits the 64x64x4 latent.
    let mut b = ComponentBuilder::new("vae_encoder", Role::Frozen);
    let params = spread(34_000_000, 20);
    for (i, (&ms, p)) in MS64.iter().zip(params).enumerate() {
        let out = match i {
            0..=2 => 128 * MB,
            3..=8 => 32 * MB,
            9..=14 => 8 * MB,
            15..=18 => 2 * MB,
            _ => 64 * KB,
        };
        b = b.layer(layer_ms64(
            format!("vae.enc{i}"),
            LayerKind::Conv,
            p,
            ms * scale,
            out,
        ));
    }
    b
}

/// U-Net backbone block layout shared by SD-like models: `(name, ms64,
/// params, out_bytes)` per block.
pub(crate) fn unet_blocks(
    prefix: &str,
    ms64: &[f64],
    params: &[u64],
    out_bytes: &[u64],
) -> Vec<crate::LayerSpec> {
    assert_eq!(ms64.len(), params.len());
    assert_eq!(ms64.len(), out_bytes.len());
    ms64.iter()
        .zip(params)
        .zip(out_bytes)
        .enumerate()
        .map(|(i, ((&ms, &p), &o))| {
            layer_ms64(format!("{prefix}.block{i}"), LayerKind::Conv, p, ms, o)
                .with_overhead_us(680.0)
        })
        .collect()
}

/// Stable Diffusion v2.1: frozen CLIP text encoder + frozen VAE encoder +
/// one trainable U-Net backbone (~0.89 B parameters), trained with
/// self-conditioning (Table 5 of the paper).
pub fn stable_diffusion_v2_1() -> ModelSpec {
    let mut b = ModelSpecBuilder::new("stable-diffusion-v2.1");
    let text = b.push_component(clip_text_encoder().build());
    let vae = b.push_component(vae_encoder(1.0).build());

    // 28 U-Net blocks: 12 down, 2 mid, 14 up. Per-level compute is roughly
    // balanced (standard U-Net channel doubling), params concentrate at low
    // resolution.
    let ms64: Vec<f64> = [
        vec![20.0; 3],
        vec![22.0; 3],
        vec![24.0; 3],
        vec![26.0; 3], // down
        vec![28.0; 2], // mid
        vec![26.0; 4],
        vec![24.0; 4],
        vec![22.0; 3],
        vec![20.0; 3], // up
    ]
    .concat();
    let params: Vec<u64> = [
        vec![8_000_000; 3],
        vec![20_000_000; 3],
        vec![40_000_000; 3],
        vec![50_000_000; 3],
        vec![45_000_000; 2],
        vec![50_000_000; 4],
        vec![40_000_000; 4],
        vec![20_000_000; 3],
        vec![8_000_000; 3],
    ]
    .concat();
    let out: Vec<u64> = [
        vec![5 * MB + 256 * KB; 3],
        vec![2 * MB + 640 * KB; 3],
        vec![MB + 320 * KB; 3],
        vec![344 * KB; 3],
        vec![344 * KB; 2],
        vec![344 * KB; 4],
        vec![MB + 320 * KB; 4],
        vec![2 * MB + 640 * KB; 3],
        vec![5 * MB + 256 * KB; 3],
    ]
    .concat();
    let unet = ComponentBuilder::new("unet", Role::Backbone)
        .layers(unet_blocks("unet", &ms64, &params, &out))
        .depends_on(text)
        .depends_on(vae)
        .build();
    b.push_component(unet);

    b.self_conditioning(SelfConditioning::default())
        .input_shape(512, 512)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unet_block_count_and_params() {
        let m = stable_diffusion_v2_1();
        let (_, unet) = m.backbones().next().unwrap();
        assert_eq!(unet.num_layers(), 28);
        let p = unet.param_count();
        assert!((850_000_000..950_000_000).contains(&p), "{p}");
    }

    #[test]
    fn vae_has_extra_long_layers() {
        let m = stable_diffusion_v2_1();
        let vae = m
            .frozen_components()
            .find(|(_, c)| c.name == "vae_encoder")
            .unwrap()
            .1;
        // The heaviest frozen layer is ~25x the median one — the Fig. 5
        // heavy tail that motivates partial-batch layers.
        let mut flops: Vec<f64> = vae.layers.iter().map(|l| l.flops_per_sample).collect();
        flops.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = flops[flops.len() / 2];
        let max = *flops.last().unwrap();
        assert!(max / median > 20.0, "max/median = {}", max / median);
    }

    #[test]
    fn text_encoder_layers_are_fast() {
        let m = stable_diffusion_v2_1();
        let text = m
            .frozen_components()
            .find(|(_, c)| c.name == "text_encoder")
            .unwrap()
            .1;
        assert_eq!(text.num_layers(), 22);
        for l in &text.layers {
            // < 1 ms at batch 64 under the default device.
            assert!(l.flops_per_sample * 64.0 / 1e14 < 1e-3);
        }
    }

    #[test]
    fn unet_depends_on_both_encoders() {
        let m = stable_diffusion_v2_1();
        let (_, unet) = m.backbones().next().unwrap();
        assert_eq!(unet.deps.len(), 2);
    }
}
