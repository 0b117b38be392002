//! Synthetic models for unit tests, property tests and the execution engine.

use super::layer_ms64;
use crate::{
    Component, ComponentBuilder, LayerKind, ModelSpec, ModelSpecBuilder, Role, SelfConditioning,
};

const KB: u64 = 1 << 10;

/// A synthetic backbone with `layers` equally sized blocks.
///
/// Each block takes `ms64_per_layer` milliseconds at batch 64 on the default
/// device and holds `params_per_layer` parameters.
pub fn synthetic_backbone(
    name: &str,
    layers: usize,
    params_per_layer: u64,
    ms64_per_layer: f64,
) -> Component {
    let mut b = ComponentBuilder::new(name, Role::Backbone);
    for i in 0..layers {
        b = b.layer(layer_ms64(
            format!("{name}.block{i}"),
            LayerKind::Conv,
            params_per_layer,
            ms64_per_layer,
            256 * KB,
        ));
    }
    b.build()
}

/// A synthetic single-backbone model with one frozen encoder.
///
/// `frozen_ms64` lists the frozen layer forward times (at batch 64); the
/// backbone has `backbone_layers` uniform blocks of `backbone_ms64_per_layer`
/// milliseconds each.
pub fn synthetic_model(
    backbone_layers: usize,
    backbone_ms64_per_layer: f64,
    frozen_ms64: &[f64],
    self_cond: bool,
) -> ModelSpec {
    let mut b = ModelSpecBuilder::new("synthetic");
    let mut enc = ComponentBuilder::new("encoder", Role::Frozen);
    for (i, &ms) in frozen_ms64.iter().enumerate() {
        enc = enc.layer(layer_ms64(
            format!("enc.layer{i}"),
            LayerKind::Conv,
            1_000_000,
            ms,
            64 * KB,
        ));
    }
    let enc = b.push_component(enc.build());
    let mut bb = synthetic_backbone("bb", backbone_layers, 10_000_000, backbone_ms64_per_layer);
    bb.deps.push(enc);
    b.push_component(bb);
    let b = if self_cond {
        b.self_conditioning(SelfConditioning::default())
    } else {
        b
    };
    b.input_shape(64, 64).build()
}

/// The smallest interesting model: 4 backbone blocks, 3 frozen layers.
/// Used across the workspace's unit tests.
pub fn tiny_model() -> ModelSpec {
    synthetic_model(4, 10.0, &[4.0, 2.0, 1.0], false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_model_shape() {
        let m = synthetic_model(6, 5.0, &[1.0, 2.0], true);
        assert_eq!(m.backbones().count(), 1);
        assert_eq!(m.num_frozen_layers(), 2);
        assert!(m.self_conditioning.is_some());
        m.validate().unwrap();
    }

    #[test]
    fn tiny_model_is_valid() {
        tiny_model().validate().unwrap();
        assert_eq!(tiny_model().backbones().next().unwrap().1.num_layers(), 4);
    }

    #[test]
    fn synthetic_backbone_uniform() {
        let bb = synthetic_backbone("x", 5, 100, 2.0);
        assert_eq!(bb.num_layers(), 5);
        assert_eq!(bb.param_count(), 500);
    }
}
