//! ControlNet v1.0 structural description.

use super::sd::{clip_text_encoder, unet_blocks, vae_encoder};
use super::{layer_ms64, spread};
use crate::{ComponentBuilder, LayerKind, ModelSpec, ModelSpecBuilder, Role, SelfConditioning};

const MB: u64 = 1 << 20;

/// ControlNet v1.0: the trainable part is the control branch (a copy of the
/// U-Net encoder with zero-convs, plus the decoder it feeds); the frozen part
/// is much larger than Stable Diffusion's — text encoder, VAE encoder, the
/// condition ("hint") encoder, and the locked U-Net encoder+mid blocks.
/// This is why its non-trainable/trainable ratio reaches ~89% (Table 1).
pub fn controlnet_v1_0() -> ModelSpec {
    let mut b = ModelSpecBuilder::new("controlnet-v1.0");
    let text = b.push_component(clip_text_encoder().build());
    let vae = b.push_component(vae_encoder(1.0).build());

    // Condition (canny-edge / pose) hint encoder: 8 small convolutions
    // operating on the 512x512 hint image.
    let hint_ms = [14.0, 12.0, 10.0, 8.0, 6.0, 4.0, 3.0, 3.0];
    let mut hint = ComponentBuilder::new("hint_encoder", Role::Frozen);
    for (i, (&ms, p)) in hint_ms.iter().zip(spread(12_000_000, 8)).enumerate() {
        hint = hint.layer(layer_ms64(
            format!("hint.conv{i}"),
            LayerKind::Conv,
            p,
            ms,
            4 * MB,
        ));
    }
    let hint = b.push_component(hint.build());

    // Locked (frozen) Stable Diffusion U-Net encoder + mid: 14 blocks.
    let locked_ms = [
        30.0, 30.0, 30.0, 30.0, 28.0, 28.0, 28.0, 28.0, 25.0, 25.0, 25.0, 22.0, 22.0, 22.0,
    ];
    let mut locked = ComponentBuilder::new("locked_unet_encoder", Role::Frozen);
    for (i, (&ms, p)) in locked_ms.iter().zip(spread(430_000_000, 14)).enumerate() {
        locked = locked.layer(layer_ms64(
            format!("locked.block{i}"),
            LayerKind::Conv,
            p,
            ms,
            2 * MB,
        ));
    }
    let locked = b.push_component(
        // The locked encoder consumes the VAE latent and the hint features.
        {
            let mut c = locked.build();
            c.deps = vec![vae, hint, text];
            c
        },
    );

    // Trainable control branch + the decoder it drives: 26 blocks, ~0.76 B
    // synchronised parameters (the branch copy plus the decoder half whose
    // gradients flow during ControlNet training).
    let ms64: Vec<f64> = [vec![20.0; 8], vec![18.0; 10], vec![17.0; 8]].concat();
    let params: Vec<u64> = spread(760_000_000, 26);
    let out: Vec<u64> = [vec![2 * MB; 8], vec![MB + 512 * 1024; 10], vec![5 * MB; 8]].concat();
    let branch = ComponentBuilder::new("control_branch", Role::Backbone)
        .layers(unet_blocks("ctrl", &ms64, &params, &out))
        .depends_on(locked)
        .depends_on(text)
        .build();
    b.push_component(branch);

    b.self_conditioning(SelfConditioning::default())
        .input_shape(512, 512)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_four_frozen_components() {
        let m = controlnet_v1_0();
        assert_eq!(m.frozen_components().count(), 4);
        assert_eq!(m.backbones().count(), 1);
    }

    #[test]
    fn frozen_part_is_heavier_than_sd() {
        let cn = controlnet_v1_0();
        let sd = super::super::stable_diffusion_v2_1();
        let cn_frozen: f64 = cn
            .frozen_components()
            .map(|(_, c)| c.flops_per_sample())
            .sum();
        let sd_frozen: f64 = sd
            .frozen_components()
            .map(|(_, c)| c.flops_per_sample())
            .sum();
        assert!(cn_frozen > 1.3 * sd_frozen);
    }

    #[test]
    fn frozen_topo_order_puts_locked_unet_last() {
        let m = controlnet_v1_0();
        let order = m.frozen_topological_order().unwrap();
        let locked = m
            .frozen_components()
            .find(|(_, c)| c.name == "locked_unet_encoder")
            .unwrap()
            .0;
        assert_eq!(*order.last().unwrap(), locked);
    }
}
