//! Model components: trainable backbones and frozen encoders.

use crate::{ComponentId, LayerId, LayerSpec};
use std::fmt;

/// Whether a component is pipelined-and-trained or frozen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Trainable backbone (e.g. U-Net): partitioned into pipeline stages,
    /// runs forward and backward, participates in gradient synchronisation.
    Backbone,
    /// Frozen component (e.g. text/image encoder): forward only, executed in
    /// pipeline bubbles (or ahead of the pipeline when bubbles run out).
    Frozen,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::Backbone => f.write_str("backbone"),
            Role::Frozen => f.write_str("frozen"),
        }
    }
}

/// A linearly ordered group of layers with a single role.
///
/// Layers within a component are linearly dependent (layer `i+1` consumes
/// layer `i`'s output); components themselves form a DAG via [`Component::deps`].
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Human-readable name, e.g. `"unet"` or `"vae_encoder"`.
    pub name: String,
    /// Trainable or frozen.
    pub role: Role,
    /// Layers in execution order.
    pub layers: Vec<LayerSpec>,
    /// Components whose *final* output this component consumes.
    pub deps: Vec<ComponentId>,
}

impl Component {
    /// Creates a component; prefer [`ComponentBuilder`] for non-trivial ones.
    pub(crate) fn new(name: impl Into<String>, role: Role, layers: Vec<LayerSpec>) -> Self {
        Component {
            name: name.into(),
            role,
            layers,
            deps: Vec::new(),
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// True for [`Role::Backbone`].
    pub fn is_trainable(&self) -> bool {
        self.role == Role::Backbone
    }

    /// Total trainable parameter count across all layers.
    pub(crate) fn param_count(&self) -> u64 {
        self.layers.iter().map(|l| l.param_count).sum()
    }

    /// Total parameter bytes (f32).
    pub fn param_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.param_bytes()).sum()
    }

    /// Layer spec by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn layer(&self, id: LayerId) -> &LayerSpec {
        &self.layers[id.index()]
    }

    /// Iterator over `(LayerId, &LayerSpec)` pairs in execution order.
    pub fn layers_enumerated(&self) -> impl Iterator<Item = (LayerId, &LayerSpec)> {
        self.layers.iter().enumerate().map(|(i, l)| (LayerId(i), l))
    }

    /// Activation bytes produced by the component's last layer per sample
    /// (what downstream components consume).
    pub fn output_bytes_per_sample(&self) -> u64 {
        self.layers
            .last()
            .map(|l| l.out_bytes_per_sample)
            .unwrap_or(0)
    }
}

/// Builder for [`Component`].
///
/// # Example
///
/// ```
/// use dpipe_model::{ComponentBuilder, LayerKind, LayerSpec, Role};
///
/// let enc = ComponentBuilder::new("text_encoder", Role::Frozen)
///     .layer(LayerSpec::new("embed", LayerKind::Embedding, 1_000, 1e6, 1024))
///     .layer(LayerSpec::new("block0", LayerKind::Transformer, 10_000, 1e8, 2048))
///     .build();
/// assert_eq!(enc.num_layers(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ComponentBuilder {
    component: Component,
}

impl ComponentBuilder {
    /// Starts building a component with the given name and role.
    pub fn new(name: impl Into<String>, role: Role) -> Self {
        ComponentBuilder {
            component: Component::new(name, role, Vec::new()),
        }
    }

    /// Appends a layer.
    pub fn layer(mut self, layer: LayerSpec) -> Self {
        self.component.layers.push(layer);
        self
    }

    /// Appends many layers.
    pub(crate) fn layers(mut self, layers: impl IntoIterator<Item = LayerSpec>) -> Self {
        self.component.layers.extend(layers);
        self
    }

    /// Declares a dependency on another component's final output.
    pub(crate) fn depends_on(mut self, dep: ComponentId) -> Self {
        self.component.deps.push(dep);
        self
    }

    /// Finishes building.
    pub fn build(self) -> Component {
        self.component
    }
}

#[cfg(test)]
impl Component {
    /// Total forward FLOPs per sample.
    pub(crate) fn flops_per_sample(&self) -> f64 {
        self.layers.iter().map(|l| l.flops_per_sample).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerKind;

    fn comp() -> Component {
        ComponentBuilder::new("enc", Role::Frozen)
            .layer(LayerSpec::new("a", LayerKind::Conv, 100, 1e6, 64))
            .layer(LayerSpec::new("b", LayerKind::Conv, 200, 2e6, 128))
            .build()
    }

    #[test]
    fn aggregates_sum_over_layers() {
        let c = comp();
        assert_eq!(c.param_count(), 300);
        assert_eq!(c.param_bytes(), 1200);
        assert_eq!(c.flops_per_sample(), 3e6);
        assert_eq!(c.output_bytes_per_sample(), 128);
    }

    #[test]
    fn role_predicates() {
        assert!(!comp().is_trainable());
        let b = Component::new("bb", Role::Backbone, vec![]);
        assert!(b.is_trainable());
        assert_eq!(b.output_bytes_per_sample(), 0);
    }

    #[test]
    fn builder_records_deps() {
        let c = ComponentBuilder::new("x", Role::Frozen)
            .depends_on(ComponentId(0))
            .depends_on(ComponentId(2))
            .build();
        assert_eq!(c.deps, vec![ComponentId(0), ComponentId(2)]);
    }

    #[test]
    fn layer_lookup_and_enumeration() {
        let c = comp();
        assert_eq!(c.layer(LayerId(1)).name, "b");
        let ids: Vec<_> = c.layers_enumerated().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn role_display() {
        assert_eq!(Role::Backbone.to_string(), "backbone");
        assert_eq!(Role::Frozen.to_string(), "frozen");
    }
}
