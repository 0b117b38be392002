//! Whole-model specification and validation.

use crate::{Component, ComponentId, LayerKind, ModelError, Role, StableHasher};

/// Self-conditioning configuration (Chen et al., 2022).
///
/// When enabled, each training step runs an *extra* forward pass of the
/// backbone with probability `probability`, whose output is fed back as a
/// conditional input (the `Cf` edge in Fig. 10 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfConditioning {
    /// Probability that a given iteration performs the extra forward pass.
    /// The paper's reference value is 0.5.
    pub probability: f64,
}

impl SelfConditioning {
    /// Self-conditioning always on (probability 1.0) — used when a worst-case
    /// schedule bound is wanted.
    pub fn always() -> Self {
        SelfConditioning { probability: 1.0 }
    }
}

impl Default for SelfConditioning {
    fn default() -> Self {
        SelfConditioning { probability: 0.5 }
    }
}

/// A complete diffusion model: components, roles, dependencies and training
/// options.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Model name (e.g. `"stable-diffusion-v2.1"`).
    pub name: String,
    /// All components; [`ComponentId`]s index into this vector.
    pub components: Vec<Component>,
    /// Self-conditioning configuration, if the model trains with it.
    pub self_conditioning: Option<SelfConditioning>,
    /// Input resolution(s), informational only.
    pub input_shapes: Vec<(u32, u32)>,
}

impl ModelSpec {
    /// Creates a model spec; prefer [`ModelSpecBuilder`].
    pub fn new(name: impl Into<String>, components: Vec<Component>) -> Self {
        ModelSpec {
            name: name.into(),
            components,
            self_conditioning: None,
            input_shapes: Vec::new(),
        }
    }

    /// Component by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn component(&self, id: ComponentId) -> &Component {
        &self.components[id.index()]
    }

    /// Iterator over `(ComponentId, &Component)`.
    pub fn components_enumerated(&self) -> impl Iterator<Item = (ComponentId, &Component)> {
        self.components
            .iter()
            .enumerate()
            .map(|(i, c)| (ComponentId(i), c))
    }

    /// Trainable backbone components, in declaration order.
    pub fn backbones(&self) -> impl Iterator<Item = (ComponentId, &Component)> {
        self.components_enumerated()
            .filter(|(_, c)| c.role == Role::Backbone)
    }

    /// Frozen (non-trainable) components, in declaration order.
    pub fn frozen_components(&self) -> impl Iterator<Item = (ComponentId, &Component)> {
        self.components_enumerated()
            .filter(|(_, c)| c.role == Role::Frozen)
    }

    /// Ids of the frozen components in a valid topological order of the
    /// dependency DAG restricted to frozen components.
    ///
    /// Bubble filling schedules frozen components in this order (§5).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CyclicDependency`] if the frozen subgraph is
    /// cyclic.
    pub fn frozen_topological_order(&self) -> Result<Vec<ComponentId>, ModelError> {
        let frozen: Vec<ComponentId> = self.frozen_components().map(|(id, _)| id).collect();
        let in_frozen = |id: ComponentId| frozen.contains(&id);
        // Kahn's algorithm over the frozen-only subgraph.
        let mut indegree: Vec<usize> = frozen
            .iter()
            .map(|&id| {
                self.component(id)
                    .deps
                    .iter()
                    .filter(|&&d| in_frozen(d))
                    .count()
            })
            .collect();
        let mut order = Vec::with_capacity(frozen.len());
        let mut queue: Vec<usize> = indegree
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        while let Some(i) = queue.pop() {
            order.push(frozen[i]);
            for (j, &cand) in frozen.iter().enumerate() {
                if self.component(cand).deps.contains(&frozen[i]) {
                    indegree[j] -= 1;
                    if indegree[j] == 0 {
                        queue.push(j);
                    }
                }
            }
        }
        if order.len() != frozen.len() {
            return Err(ModelError::CyclicDependency);
        }
        order.sort_by_key(|id| {
            // Stable order: topological rank first (already guaranteed by
            // construction), break ties by declaration order for determinism.
            id.index()
        });
        // Re-run a simple topo sort preserving declaration order among ready
        // components, for deterministic output.
        let mut result = Vec::with_capacity(frozen.len());
        let mut done = vec![false; self.components.len()];
        while result.len() < frozen.len() {
            let mut progressed = false;
            for &id in &frozen {
                if done[id.index()] {
                    continue;
                }
                let ready = self
                    .component(id)
                    .deps
                    .iter()
                    .filter(|&&d| in_frozen(d))
                    .all(|&d| done[d.index()]);
                if ready {
                    done[id.index()] = true;
                    result.push(id);
                    progressed = true;
                }
            }
            if !progressed {
                return Err(ModelError::CyclicDependency);
            }
        }
        Ok(result)
    }

    /// Stable 64-bit content fingerprint of the whole spec.
    ///
    /// Two specs that are structurally identical (same names, roles,
    /// dependencies and per-layer cost numbers) fingerprint identically
    /// across processes and platforms; any planning-relevant edit changes
    /// the digest. `dpipe_serve` keys its plan cache on this.
    pub fn fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_str("dpipe_model::ModelSpec");
        h.write_str(&self.name);
        h.write_usize(self.components.len());
        for c in &self.components {
            h.write_str(&c.name);
            h.write_bytes(&[role_tag(c.role)]);
            h.write_usize(c.deps.len());
            for d in &c.deps {
                h.write_usize(d.index());
            }
            h.write_usize(c.layers.len());
            for l in &c.layers {
                h.write_str(&l.name);
                h.write_bytes(&[layer_kind_tag(l.kind)]);
                h.write_u64(l.param_count);
                h.write_f64(l.flops_per_sample);
                h.write_f64(l.backward_mult);
                h.write_u64(l.out_bytes_per_sample);
                h.write_f64(l.overhead_us);
            }
        }
        match self.self_conditioning {
            Some(sc) => {
                h.write_bool(true);
                h.write_f64(sc.probability);
            }
            None => h.write_bool(false),
        }
        h.write_usize(self.input_shapes.len());
        for &(height, width) in &self.input_shapes {
            h.write_u32(height);
            h.write_u32(width);
        }
        h.finish()
    }

    /// Total trainable parameter count (all backbones).
    pub fn trainable_param_count(&self) -> u64 {
        self.backbones().map(|(_, c)| c.param_count()).sum()
    }

    /// Total frozen parameter count.
    pub fn frozen_param_count(&self) -> u64 {
        self.frozen_components().map(|(_, c)| c.param_count()).sum()
    }

    /// Total number of frozen layers across all frozen components
    /// (the x-axis of Fig. 5 in the paper).
    pub fn num_frozen_layers(&self) -> usize {
        self.frozen_components().map(|(_, c)| c.num_layers()).sum()
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: dangling or cyclic dependencies,
    /// missing backbone, empty components, invalid layer metadata, or an
    /// out-of-range self-conditioning probability.
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.backbones().next().is_none() {
            return Err(ModelError::NoBackbone);
        }
        for (id, c) in self.components_enumerated() {
            if c.layers.is_empty() {
                return Err(ModelError::EmptyComponent(id));
            }
            for (li, l) in c.layers.iter().enumerate() {
                if !l.is_valid() {
                    return Err(ModelError::InvalidLayer {
                        component: id,
                        layer: li,
                    });
                }
            }
            for &d in &c.deps {
                if d.index() >= self.components.len() {
                    return Err(ModelError::DanglingDependency {
                        component: id,
                        dep: d,
                    });
                }
            }
        }
        // Cycle check over the full component graph.
        self.full_topological_order()?;
        if let Some(sc) = self.self_conditioning {
            if !(0.0..=1.0).contains(&sc.probability) || !sc.probability.is_finite() {
                return Err(ModelError::InvalidSelfCondProbability(sc.probability));
            }
        }
        Ok(())
    }

    /// Topological order over *all* components.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::CyclicDependency`] on cycles.
    pub fn full_topological_order(&self) -> Result<Vec<ComponentId>, ModelError> {
        let n = self.components.len();
        let mut done = vec![false; n];
        let mut result = Vec::with_capacity(n);
        while result.len() < n {
            let mut progressed = false;
            for i in 0..n {
                if done[i] {
                    continue;
                }
                let ready = self.components[i]
                    .deps
                    .iter()
                    .all(|d| d.index() < n && done[d.index()]);
                if ready {
                    done[i] = true;
                    result.push(ComponentId(i));
                    progressed = true;
                }
            }
            if !progressed {
                return Err(ModelError::CyclicDependency);
            }
        }
        Ok(result)
    }
}

/// Stable one-byte tag for [`Role`] (never reorder: fingerprints depend on it).
fn role_tag(role: Role) -> u8 {
    match role {
        Role::Backbone => 0,
        Role::Frozen => 1,
    }
}

/// Stable one-byte tag for [`LayerKind`] (never reorder: fingerprints depend
/// on it; append new kinds at the end).
fn layer_kind_tag(kind: LayerKind) -> u8 {
    match kind {
        LayerKind::Conv => 0,
        LayerKind::Attention => 1,
        LayerKind::Transformer => 2,
        LayerKind::Linear => 3,
        LayerKind::Embedding => 4,
        LayerKind::Norm => 5,
        LayerKind::Resample => 6,
    }
}

/// Builder for [`ModelSpec`].
///
/// # Example
///
/// ```
/// use dpipe_model::{ModelSpecBuilder, ComponentBuilder, LayerSpec, LayerKind, Role};
///
/// let model = ModelSpecBuilder::new("demo")
///     .component(
///         ComponentBuilder::new("encoder", Role::Frozen)
///             .layer(LayerSpec::new("e0", LayerKind::Conv, 10, 1e6, 64))
///             .build(),
///     )
///     .component(
///         ComponentBuilder::new("unet", Role::Backbone)
///             .layer(LayerSpec::new("b0", LayerKind::Conv, 10, 1e6, 64))
///             .build(),
///     )
///     .build();
/// assert!(model.validate().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct ModelSpecBuilder {
    spec: ModelSpec,
}

impl ModelSpecBuilder {
    /// Starts building a model with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        ModelSpecBuilder {
            spec: ModelSpec::new(name, Vec::new()),
        }
    }

    /// Appends a component, returning its id through `Vec` ordering
    /// (first added component is `ComponentId(0)` and so on).
    pub fn component(mut self, component: Component) -> Self {
        self.spec.components.push(component);
        self
    }

    /// Appends a component and reports its id.
    pub fn push_component(&mut self, component: Component) -> ComponentId {
        self.spec.components.push(component);
        ComponentId(self.spec.components.len() - 1)
    }

    /// Enables self-conditioning.
    pub fn self_conditioning(mut self, sc: SelfConditioning) -> Self {
        self.spec.self_conditioning = Some(sc);
        self
    }

    /// Records an input shape (informational).
    pub fn input_shape(mut self, h: u32, w: u32) -> Self {
        self.spec.input_shapes.push((h, w));
        self
    }

    /// Finishes building.
    pub fn build(self) -> ModelSpec {
        self.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ComponentBuilder, LayerKind, LayerSpec};

    fn layer(name: &str) -> LayerSpec {
        LayerSpec::new(name, LayerKind::Conv, 10, 1e6, 64)
    }

    fn two_encoder_model() -> ModelSpec {
        let mut b = ModelSpecBuilder::new("m");
        let text = b.push_component(
            ComponentBuilder::new("text", Role::Frozen)
                .layer(layer("t0"))
                .build(),
        );
        let _vae = b.push_component(
            ComponentBuilder::new("vae", Role::Frozen)
                .layer(layer("v0"))
                .depends_on(text)
                .build(),
        );
        b.push_component(
            ComponentBuilder::new("unet", Role::Backbone)
                .layer(layer("u0"))
                .build(),
        );
        b.build()
    }

    #[test]
    fn validate_accepts_well_formed_model() {
        assert!(two_encoder_model().validate().is_ok());
    }

    #[test]
    fn validate_rejects_no_backbone() {
        let m = ModelSpecBuilder::new("m")
            .component(
                ComponentBuilder::new("e", Role::Frozen)
                    .layer(layer("x"))
                    .build(),
            )
            .build();
        assert_eq!(m.validate(), Err(ModelError::NoBackbone));
    }

    #[test]
    fn validate_rejects_empty_component() {
        let m = ModelSpecBuilder::new("m")
            .component(ComponentBuilder::new("b", Role::Backbone).build())
            .build();
        assert_eq!(
            m.validate(),
            Err(ModelError::EmptyComponent(ComponentId(0)))
        );
    }

    #[test]
    fn validate_rejects_dangling_dep() {
        let m = ModelSpecBuilder::new("m")
            .component(
                ComponentBuilder::new("b", Role::Backbone)
                    .layer(layer("x"))
                    .depends_on(ComponentId(5))
                    .build(),
            )
            .build();
        assert!(matches!(
            m.validate(),
            Err(ModelError::DanglingDependency { .. })
        ));
    }

    #[test]
    fn validate_rejects_cycle() {
        let mut m = two_encoder_model();
        // text (c0) depends on vae (c1) while vae already depends on text.
        m.components[0].deps.push(ComponentId(1));
        assert_eq!(m.validate(), Err(ModelError::CyclicDependency));
    }

    #[test]
    fn validate_rejects_bad_self_cond_probability() {
        let mut m = two_encoder_model();
        m.self_conditioning = Some(SelfConditioning { probability: 1.5 });
        assert_eq!(
            m.validate(),
            Err(ModelError::InvalidSelfCondProbability(1.5))
        );
    }

    #[test]
    fn frozen_topo_order_respects_deps() {
        let m = two_encoder_model();
        let order = m.frozen_topological_order().unwrap();
        assert_eq!(order, vec![ComponentId(0), ComponentId(1)]);
    }

    #[test]
    fn counts() {
        let m = two_encoder_model();
        assert_eq!(m.trainable_param_count(), 10);
        assert_eq!(m.frozen_param_count(), 20);
        assert_eq!(m.num_frozen_layers(), 2);
    }

    #[test]
    fn fingerprint_is_deterministic_and_content_sensitive() {
        let m = two_encoder_model();
        assert_eq!(m.fingerprint(), m.fingerprint());
        assert_eq!(m.fingerprint(), m.clone().fingerprint());

        // Zoo models are pairwise distinct.
        let zoo_prints = [
            crate::zoo::stable_diffusion_v2_1().fingerprint(),
            crate::zoo::controlnet_v1_0().fingerprint(),
            crate::zoo::cdm_lsun().fingerprint(),
            crate::zoo::dit_xl_2().fingerprint(),
        ];
        for (i, a) in zoo_prints.iter().enumerate() {
            for b in zoo_prints.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }

        // Any planning-relevant edit changes the digest.
        let mut renamed = m.clone();
        renamed.name.push('!');
        assert_ne!(renamed.fingerprint(), m.fingerprint());
        let mut edited = m.clone();
        edited.components[0].layers[0].flops_per_sample *= 2.0;
        assert_ne!(edited.fingerprint(), m.fingerprint());
        let mut sc = m.clone();
        sc.self_conditioning = Some(SelfConditioning::default());
        assert_ne!(sc.fingerprint(), m.fingerprint());
    }

    #[test]
    fn self_conditioning_defaults_to_half() {
        assert_eq!(SelfConditioning::default().probability, 0.5);
        assert_eq!(SelfConditioning::always().probability, 1.0);
    }
}
