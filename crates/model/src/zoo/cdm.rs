//! Cascaded diffusion models (Ho et al., 2022).

use super::sd::unet_blocks;
use super::{layer_ms64, spread};
use crate::{ComponentBuilder, LayerKind, ModelSpec, ModelSpecBuilder, Role};

const MB: u64 = 1 << 20;
const KB: u64 = 1 << 10;

fn cdm_backbone(
    name: &str,
    blocks: usize,
    total_params: u64,
    total_ms64: f64,
    out_bytes: u64,
) -> crate::Component {
    let ms64: Vec<f64> = {
        // Slight mid-heavy profile so partitioning is non-trivial.
        (0..blocks)
            .map(|i| {
                let center = (blocks as f64 - 1.0) / 2.0;

                1.0 + 0.3 * (1.0 - ((i as f64 - center).abs() / center).min(1.0))
            })
            .collect()
    };
    let wsum: f64 = ms64.iter().sum();
    let ms64: Vec<f64> = ms64.iter().map(|w| w / wsum * total_ms64).collect();
    let params = spread(total_params, blocks);
    let out = vec![out_bytes; blocks];
    ComponentBuilder::new(name, Role::Backbone)
        .layers(unet_blocks(name, &ms64, &params, &out))
        .build()
}

/// CDM-LSUN: a 64×64 base backbone cascaded with a 64→128 super-resolution
/// backbone. Both are class-conditional, so the non-trainable part is tiny —
/// a small low-resolution conditioning stack — which is why bubble filling
/// brings little benefit on CDMs (Fig. 13c discussion).
pub fn cdm_lsun() -> ModelSpec {
    let mut b = ModelSpecBuilder::new("cdm-lsun");
    // Tiny frozen conditioning stack (downsampling + class embedding).
    let cond = ComponentBuilder::new("lowres_cond", Role::Frozen)
        .layer(layer_ms64("cond.down", LayerKind::Resample, 0, 2.0, MB))
        .layer(layer_ms64(
            "cond.embed",
            LayerKind::Embedding,
            2_000_000,
            1.5,
            256 * KB,
        ))
        .layer(layer_ms64(
            "cond.proj",
            LayerKind::Linear,
            1_000_000,
            1.0,
            256 * KB,
        ))
        .build();
    let cond = b.push_component(cond);

    let base = cdm_backbone("base64", 16, 300_000_000, 120.0, 512 * KB);
    let mut base = base;
    base.deps.push(cond);
    b.push_component(base);

    let sr = cdm_backbone("sr128", 18, 390_000_000, 180.0, 2 * MB);
    let mut sr = sr;
    sr.deps.push(cond);
    b.push_component(sr);

    b.input_shape(64, 64).input_shape(128, 128).build()
}

/// CDM-ImageNet: following the paper's evaluation we describe only the
/// second and third backbones of the cascade (training all three exceeds
/// device memory on the paper's testbed).
pub fn cdm_imagenet() -> ModelSpec {
    let mut b = ModelSpecBuilder::new("cdm-imagenet");
    let cond = ComponentBuilder::new("lowres_cond", Role::Frozen)
        .layer(layer_ms64("cond.down", LayerKind::Resample, 0, 2.5, MB))
        .layer(layer_ms64(
            "cond.embed",
            LayerKind::Embedding,
            3_000_000,
            2.0,
            256 * KB,
        ))
        .build();
    let cond = b.push_component(cond);

    let mut mid = cdm_backbone("sr64_128", 18, 400_000_000, 260.0, 2 * MB);
    mid.deps.push(cond);
    b.push_component(mid);

    let mut hi = cdm_backbone("sr128_256", 20, 550_000_000, 420.0, 8 * MB);
    hi.deps.push(cond);
    b.push_component(hi);

    b.input_shape(64, 64).input_shape(128, 128).build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsun_backbones_are_similar_size() {
        let m = cdm_lsun();
        let sizes: Vec<u64> = m.backbones().map(|(_, c)| c.param_count()).collect();
        assert_eq!(sizes.len(), 2);
        let ratio = sizes[1] as f64 / sizes[0] as f64;
        assert!((0.5..=2.0).contains(&ratio), "{ratio}");
    }

    #[test]
    fn frozen_part_is_tiny() {
        let m = cdm_lsun();
        let frozen: f64 = m
            .frozen_components()
            .map(|(_, c)| c.flops_per_sample())
            .sum();
        let trainable: f64 = m.backbones().map(|(_, c)| c.flops_per_sample()).sum();
        assert!(frozen / trainable < 0.05, "{}", frozen / trainable);
    }

    #[test]
    fn imagenet_third_backbone_is_heaviest() {
        let m = cdm_imagenet();
        let flops: Vec<f64> = m.backbones().map(|(_, c)| c.flops_per_sample()).collect();
        assert!(flops[1] > flops[0]);
    }

    #[test]
    fn backbone_block_profile_is_mid_heavy() {
        let m = cdm_lsun();
        let (_, base) = m.backbones().next().unwrap();
        let first = base.layers.first().unwrap().flops_per_sample;
        let mid = base.layers[base.num_layers() / 2].flops_per_sample;
        assert!(mid > first);
    }
}
