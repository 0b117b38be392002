//! [`PlanSpec`]: the one declarative description of a planning run.

use crate::decode::{self, f64_field, str_field, u32_field, u64_field, Fields};
use crate::error::SpecError;
use crate::json::{parse, JsonValue};
use crate::options::PlannerOptions;
use crate::SCHEMA_VERSION;
use dpipe_cluster::{ClusterSpec, DeviceClass, LinkParams};
use dpipe_fill::FillConfig;
use dpipe_model::{
    Component, ComponentId, LayerKind, LayerSpec, ModelSpec, Role, SelfConditioning,
};
use dpipe_partition::SearchSpace;
use dpipe_schedule::ScheduleKind;
use dpipe_stablehash::StableHasher;

/// The model a spec plans: a zoo name (resolved through
/// [`dpipe_model::zoo::by_name`]) or a complete inline [`ModelSpec`].
///
/// A zoo reference keeps spec files short and stable; an inline spec makes
/// arbitrary user models expressible as pure data. Both forms of the same
/// model produce the same [`PlanSpec::fingerprint`], so a spec file that
/// says `{"zoo":"sd"}` hits the same serve-cache entry as a programmatic
/// request built from `zoo::stable_diffusion_v2_1()`.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelRef {
    /// A name in the model zoo (short or full form).
    Zoo(String),
    /// A complete model description.
    Inline(ModelSpec),
}

impl ModelRef {
    /// Resolves the reference to a concrete model.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownModel`] for a zoo name with no entry.
    pub fn resolve(&self) -> Result<ModelSpec, SpecError> {
        match self {
            ModelRef::Zoo(name) => {
                dpipe_model::zoo::by_name(name).ok_or_else(|| SpecError::UnknownModel(name.clone()))
            }
            ModelRef::Inline(spec) => Ok(spec.clone()),
        }
    }

    /// The reference's display name without resolving (zoo name or the
    /// inline model's name).
    pub(crate) fn name(&self) -> &str {
        match self {
            ModelRef::Zoo(name) => name,
            ModelRef::Inline(spec) => &spec.name,
        }
    }
}

impl From<ModelSpec> for ModelRef {
    fn from(spec: ModelSpec) -> Self {
        ModelRef::Inline(spec)
    }
}

/// Everything one plan depends on, as a single versioned value.
///
/// This is the system's *only* planning input: every field that can change
/// the selected plan is set here and nowhere else. `Planner::from_spec`,
/// `dpipe_serve::PlanRequest`, [`SweepSpec`](crate::SweepSpec) sweeps,
/// `dpipe plan --spec`, `POST /plan` and the bench scenarios all consume
/// exactly this type, and
/// [`to_json`](PlanSpec::to_json) / [`from_json`](PlanSpec::from_json)
/// round-trip it byte-stably so any run is reproducible as data.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSpec {
    /// Schema version of the serialized form (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The model to plan.
    pub model: ModelRef,
    /// The cluster to plan for, including per-machine device classes.
    pub cluster: ClusterSpec,
    /// Global batch size (per-backbone batch for cascaded models).
    pub global_batch: u32,
    /// Ablation toggles (Fig. 15).
    pub options: PlannerOptions,
    /// Hyper-parameter search bounds (Table 3).
    pub search: SearchSpace,
    /// Bubble-filling knobs (§5).
    pub fill: FillConfig,
    /// Single-backbone pipeline schedule family. Cascaded (two-backbone)
    /// models always use the bidirectional schedule and ignore it.
    pub schedule: ScheduleKind,
    /// Worker threads for the per-configuration search; `0` means "all
    /// cores". Deliberately *not* part of the fingerprint: the selected
    /// plan is identical for any worker count.
    pub parallelism: usize,
    /// Plan from record-backed (interpolated-sample) profiles instead of
    /// the analytic device model. A model/profile mismatch is a typed
    /// planning error, never a panic.
    pub record_backed: bool,
}

impl PlanSpec {
    /// A spec with default options, search space, fill config and
    /// schedule — the exact configuration `Planner::new(model, cluster)
    /// .plan(batch)` uses.
    pub fn new(model: impl Into<ModelRef>, cluster: ClusterSpec, global_batch: u32) -> Self {
        PlanSpec {
            schema_version: SCHEMA_VERSION,
            model: model.into(),
            cluster,
            global_batch,
            options: PlannerOptions::default(),
            search: SearchSpace::default(),
            fill: FillConfig::default(),
            schedule: ScheduleKind::Fifo1F1B,
            parallelism: 0,
            record_backed: false,
        }
    }

    /// A spec referencing a zoo model by name (unresolved; resolution
    /// happens at plan/fingerprint time and can fail with
    /// [`SpecError::UnknownModel`]).
    pub fn zoo(name: impl Into<String>, cluster: ClusterSpec, global_batch: u32) -> Self {
        PlanSpec::new(ModelRef::Zoo(name.into()), cluster, global_batch)
    }

    /// Overrides the planner options.
    pub fn with_options(mut self, options: PlannerOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides the hyper-parameter search space.
    pub fn with_search_space(mut self, search: SearchSpace) -> Self {
        self.search = search;
        self
    }

    /// Overrides the bubble-filling configuration.
    pub fn with_fill_config(mut self, fill: FillConfig) -> Self {
        self.fill = fill;
        self
    }

    /// Overrides the single-backbone schedule family.
    pub fn with_schedule(mut self, schedule: ScheduleKind) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the per-configuration search parallelism (`0` = all cores).
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers;
        self
    }

    /// Switches to record-backed profiling.
    pub fn with_record_backed(mut self, record_backed: bool) -> Self {
        self.record_backed = record_backed;
        self
    }

    /// The `parallelism` field with `0` resolved to the host's available
    /// parallelism.
    pub fn effective_parallelism(&self) -> usize {
        if self.parallelism == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.parallelism
        }
    }

    /// Short human-readable label, e.g. `sd@8gpu/b256`.
    pub fn label(&self) -> String {
        format!(
            "{}@{}gpu/b{}",
            self.model.name(),
            self.cluster.world_size(),
            self.global_batch
        )
    }

    /// Checks the spec describes a plannable run: supported schema
    /// version, resolvable + valid model, non-degenerate cluster/batch and
    /// search bounds, sane fill knobs.
    ///
    /// # Errors
    ///
    /// The first violated invariant as a typed [`SpecError`].
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(SpecError::UnsupportedVersion(u64::from(
                self.schema_version,
            )));
        }
        if self.global_batch == 0 {
            return Err(SpecError::invalid("global_batch", "must be positive"));
        }
        if self.cluster.world_size() == 0 {
            return Err(SpecError::invalid("cluster", "cluster has no devices"));
        }
        self.cluster
            .validate_classes()
            .map_err(|e| SpecError::invalid("cluster.machine_classes", e))?;
        if self.search.max_stages == 0 {
            return Err(SpecError::invalid("search.max_stages", "must be positive"));
        }
        if self.search.max_micro_batches == 0 {
            return Err(SpecError::invalid(
                "search.max_micro_batches",
                "must be positive",
            ));
        }
        if !(self.fill.min_bubble_seconds.is_finite() && self.fill.min_bubble_seconds >= 0.0) {
            return Err(SpecError::invalid(
                "fill.min_bubble_seconds",
                "must be finite and non-negative",
            ));
        }
        if !(self.fill.item_setup_seconds.is_finite() && self.fill.item_setup_seconds >= 0.0) {
            return Err(SpecError::invalid(
                "fill.item_setup_seconds",
                "must be finite and non-negative",
            ));
        }
        let model = self.model.resolve()?;
        model
            .validate()
            .map_err(|e| SpecError::invalid("model", e.to_string()))?;
        Ok(())
    }

    /// Stable 64-bit content fingerprint of the spec — the serve-layer
    /// plan-cache key.
    ///
    /// The digest is a pure function of the spec's planning-relevant
    /// content: zoo and inline references to the same model hash
    /// identically, and `parallelism` is excluded (any worker count
    /// selects the same plan). The byte layout deliberately reproduces the
    /// pre-spec `dpipe_serve::PlanRequest` fingerprint — including its
    /// domain string — and only *extends* the digest when fill config or
    /// schedule differ from their defaults, so every fingerprint minted
    /// before this API existed (homogeneous and mixed-class alike) is
    /// unchanged: warm serve caches and committed goldens survive.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownModel`] if a zoo reference does not resolve.
    pub fn fingerprint(&self) -> Result<u64, SpecError> {
        Ok(self.fingerprint_with_model(&self.model.resolve()?))
    }

    /// [`PlanSpec::fingerprint`] with the model already resolved (callers
    /// that hold a resolved model avoid re-resolution and the error path).
    pub fn fingerprint_with_model(&self, model: &ModelSpec) -> u64 {
        let mut h = StableHasher::new();
        h.write_str("dpipe_serve::PlanRequest");
        h.write_u64(model.fingerprint());
        h.write_u64(self.cluster.fingerprint());
        h.write_u32(self.global_batch);
        h.write_bool(self.options.bubble_filling);
        h.write_bool(self.options.partial_batch);
        h.write_usize(self.search.max_stages);
        h.write_usize(self.search.max_micro_batches);
        h.write_bool(self.record_backed);
        if self.fill != FillConfig::default() {
            h.write_str("fill");
            h.write_f64(self.fill.min_bubble_seconds);
            h.write_bool(self.fill.partial_batch);
            h.write_usize(self.fill.local_batch_candidates.len());
            for &c in &self.fill.local_batch_candidates {
                h.write_u32(c);
            }
            h.write_f64(self.fill.item_setup_seconds);
        }
        if self.schedule != ScheduleKind::Fifo1F1B {
            h.write_str("schedule");
            h.write_str(schedule_str(self.schedule));
        }
        h.finish()
    }

    /// The canonical JSON tree: every field explicit, insertion order
    /// fixed, floats in shortest round-trippable form. Rendering this tree
    /// is byte-deterministic, which is what makes "the spec" a stable
    /// artifact to commit, diff and fingerprint.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "schema_version".to_owned(),
                JsonValue::UInt(u64::from(self.schema_version)),
            ),
            ("model".to_owned(), model_ref_to_json(&self.model)),
            ("cluster".to_owned(), cluster_to_json(&self.cluster)),
            (
                "global_batch".to_owned(),
                JsonValue::UInt(u64::from(self.global_batch)),
            ),
            ("options".to_owned(), options_to_json(&self.options)),
            ("search".to_owned(), search_to_json(&self.search)),
            ("fill".to_owned(), fill_to_json(&self.fill)),
            (
                "schedule".to_owned(),
                JsonValue::Str(schedule_str(self.schedule).to_owned()),
            ),
            (
                "parallelism".to_owned(),
                JsonValue::UInt(self.parallelism as u64),
            ),
            (
                "record_backed".to_owned(),
                JsonValue::Bool(self.record_backed),
            ),
        ])
    }

    /// The canonical JSON encoding as a string (no trailing newline).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// Parses a spec from its JSON encoding. Unknown fields are rejected
    /// (never silently ignored); absent optional fields take the same
    /// defaults as [`PlanSpec::new`]; `schema_version`, `model`, `cluster`
    /// and `global_batch` are required.
    ///
    /// # Errors
    ///
    /// [`SpecError::Json`] for malformed JSON, otherwise a typed
    /// diagnostic naming the offending field.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        Self::from_json_value(&parse(text)?)
    }

    /// [`PlanSpec::from_json`] over an already-parsed tree.
    ///
    /// # Errors
    ///
    /// See [`PlanSpec::from_json`].
    pub fn from_json_value(value: &JsonValue) -> Result<Self, SpecError> {
        let fields = Fields::new(value, "")?;
        fields.allow(&[
            "schema_version",
            "model",
            "cluster",
            "global_batch",
            "options",
            "search",
            "fill",
            "schedule",
            "parallelism",
            "record_backed",
        ])?;
        let version = u64_field(&fields, "schema_version")?;
        if version != u64::from(SCHEMA_VERSION) {
            return Err(SpecError::UnsupportedVersion(version));
        }
        let model = model_ref_from_json(fields.require("model")?, "model")?;
        let cluster = cluster_from_json(fields.require("cluster")?, "cluster")?;
        let global_batch = u32_field(&fields, "global_batch")?;
        let options = match fields.get("options") {
            Some(v) => options_from_json(v, "options")?,
            None => PlannerOptions::default(),
        };
        let search = match fields.get("search") {
            Some(v) => search_from_json(v, "search")?,
            None => SearchSpace::default(),
        };
        let fill = match fields.get("fill") {
            Some(v) => fill_from_json(v, "fill")?,
            None => FillConfig::default(),
        };
        let schedule = match fields.get("schedule") {
            Some(v) => schedule_from_json(v, "schedule")?,
            None => ScheduleKind::Fifo1F1B,
        };
        let parallelism = match fields.get("parallelism") {
            Some(v) => decode::as_usize(v, "parallelism")?,
            None => 0,
        };
        let record_backed = match fields.get("record_backed") {
            Some(v) => decode::as_bool(v, "record_backed")?,
            None => false,
        };
        Ok(PlanSpec {
            schema_version: SCHEMA_VERSION,
            model,
            cluster,
            global_batch,
            options,
            search,
            fill,
            schedule,
            parallelism,
            record_backed,
        })
    }
}

// ---------------------------------------------------------------------------
// Field codecs. Emission is canonical (every field, fixed order); parsing
// accepts shorthands (zoo names as strings, `"a100:4,h100:4"` class specs)
// and rejects unknown fields.
// ---------------------------------------------------------------------------

/// Serialized name of a [`ScheduleKind`].
pub fn schedule_str(kind: ScheduleKind) -> &'static str {
    match kind {
        ScheduleKind::Fifo1F1B => "1f1b",
        ScheduleKind::GPipe => "gpipe",
    }
}

fn schedule_from_json(v: &JsonValue, path: &str) -> Result<ScheduleKind, SpecError> {
    match decode::as_str(v, path)? {
        "1f1b" => Ok(ScheduleKind::Fifo1F1B),
        "gpipe" => Ok(ScheduleKind::GPipe),
        other => Err(SpecError::invalid(
            path,
            format!("unknown schedule `{other}` (1f1b, gpipe)"),
        )),
    }
}

/// Encodes a [`ModelRef`] (`{"zoo":name}` or `{"inline":{...}}`).
pub fn model_ref_to_json(m: &ModelRef) -> JsonValue {
    match m {
        ModelRef::Zoo(name) => {
            JsonValue::Object(vec![("zoo".to_owned(), JsonValue::Str(name.clone()))])
        }
        ModelRef::Inline(spec) => {
            JsonValue::Object(vec![("inline".to_owned(), model_to_json(spec))])
        }
    }
}

/// Parses a [`ModelRef`]: a bare zoo-name string, `{"zoo":name}` or
/// `{"inline":{...}}`.
///
/// # Errors
///
/// A typed [`SpecError`] naming the offending field.
pub fn model_ref_from_json(v: &JsonValue, path: &str) -> Result<ModelRef, SpecError> {
    // Shorthand: a bare string is a zoo reference.
    if let Some(name) = v.as_str() {
        return Ok(ModelRef::Zoo(name.to_owned()));
    }
    let fields = Fields::new(v, path)?;
    fields.allow(&["zoo", "inline"])?;
    match (fields.get("zoo"), fields.get("inline")) {
        (Some(name), None) => Ok(ModelRef::Zoo(
            decode::as_str(name, &format!("{path}.zoo"))?.to_owned(),
        )),
        (None, Some(spec)) => Ok(ModelRef::Inline(model_from_json(
            spec,
            &format!("{path}.inline"),
        )?)),
        _ => Err(SpecError::invalid(
            path,
            "exactly one of `zoo` or `inline` must be set",
        )),
    }
}

/// Serialized name of a [`Role`].
fn role_str(role: Role) -> &'static str {
    match role {
        Role::Backbone => "backbone",
        Role::Frozen => "frozen",
    }
}

fn role_from_json(v: &JsonValue, path: &str) -> Result<Role, SpecError> {
    match decode::as_str(v, path)? {
        "backbone" => Ok(Role::Backbone),
        "frozen" => Ok(Role::Frozen),
        other => Err(SpecError::invalid(
            path,
            format!("unknown role `{other}` (backbone, frozen)"),
        )),
    }
}

/// Serialized name of a [`LayerKind`] (the `Display` strings).
fn kind_str(kind: LayerKind) -> &'static str {
    match kind {
        LayerKind::Conv => "conv",
        LayerKind::Attention => "attn",
        LayerKind::Transformer => "xfmr",
        LayerKind::Linear => "linear",
        LayerKind::Embedding => "embed",
        LayerKind::Norm => "norm",
        LayerKind::Resample => "resample",
    }
}

fn kind_from_json(v: &JsonValue, path: &str) -> Result<LayerKind, SpecError> {
    match decode::as_str(v, path)? {
        "conv" => Ok(LayerKind::Conv),
        "attn" => Ok(LayerKind::Attention),
        "xfmr" => Ok(LayerKind::Transformer),
        "linear" => Ok(LayerKind::Linear),
        "embed" => Ok(LayerKind::Embedding),
        "norm" => Ok(LayerKind::Norm),
        "resample" => Ok(LayerKind::Resample),
        other => Err(SpecError::invalid(
            path,
            format!("unknown layer kind `{other}`"),
        )),
    }
}

fn layer_to_json(l: &LayerSpec) -> JsonValue {
    JsonValue::Object(vec![
        ("name".to_owned(), JsonValue::Str(l.name.clone())),
        (
            "kind".to_owned(),
            JsonValue::Str(kind_str(l.kind).to_owned()),
        ),
        ("param_count".to_owned(), JsonValue::UInt(l.param_count)),
        (
            "flops_per_sample".to_owned(),
            JsonValue::Num(l.flops_per_sample),
        ),
        ("backward_mult".to_owned(), JsonValue::Num(l.backward_mult)),
        (
            "out_bytes_per_sample".to_owned(),
            JsonValue::UInt(l.out_bytes_per_sample),
        ),
        ("overhead_us".to_owned(), JsonValue::Num(l.overhead_us)),
    ])
}

fn layer_from_json(v: &JsonValue, path: &str) -> Result<LayerSpec, SpecError> {
    let fields = Fields::new(v, path)?;
    fields.allow(&[
        "name",
        "kind",
        "param_count",
        "flops_per_sample",
        "backward_mult",
        "out_bytes_per_sample",
        "overhead_us",
    ])?;
    Ok(LayerSpec {
        name: str_field(&fields, "name")?,
        kind: kind_from_json(fields.require("kind")?, &fields.path("kind"))?,
        param_count: u64_field(&fields, "param_count")?,
        flops_per_sample: f64_field(&fields, "flops_per_sample")?,
        backward_mult: match fields.get("backward_mult") {
            Some(v) => decode::as_f64(v, &fields.path("backward_mult"))?,
            None => 2.0,
        },
        out_bytes_per_sample: u64_field(&fields, "out_bytes_per_sample")?,
        overhead_us: match fields.get("overhead_us") {
            Some(v) => decode::as_f64(v, &fields.path("overhead_us"))?,
            None => 50.0,
        },
    })
}

fn component_to_json(c: &Component) -> JsonValue {
    JsonValue::Object(vec![
        ("name".to_owned(), JsonValue::Str(c.name.clone())),
        (
            "role".to_owned(),
            JsonValue::Str(role_str(c.role).to_owned()),
        ),
        (
            "deps".to_owned(),
            JsonValue::Array(
                c.deps
                    .iter()
                    .map(|d| JsonValue::UInt(d.index() as u64))
                    .collect(),
            ),
        ),
        (
            "layers".to_owned(),
            JsonValue::Array(c.layers.iter().map(layer_to_json).collect()),
        ),
    ])
}

fn component_from_json(v: &JsonValue, path: &str) -> Result<Component, SpecError> {
    let fields = Fields::new(v, path)?;
    fields.allow(&["name", "role", "deps", "layers"])?;
    let deps = match fields.get("deps") {
        Some(v) => decode::as_array(v, &fields.path("deps"))?
            .iter()
            .enumerate()
            .map(|(i, d)| {
                decode::as_usize(d, &format!("{}[{i}]", fields.path("deps"))).map(ComponentId)
            })
            .collect::<Result<Vec<_>, _>>()?,
        None => Vec::new(),
    };
    let layers_path = fields.path("layers");
    let layers = decode::as_array(fields.require("layers")?, &layers_path)?
        .iter()
        .enumerate()
        .map(|(i, l)| layer_from_json(l, &format!("{layers_path}[{i}]")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Component {
        name: str_field(&fields, "name")?,
        role: role_from_json(fields.require("role")?, &fields.path("role"))?,
        layers,
        deps,
    })
}

/// Full inline encoding of a [`ModelSpec`].
pub fn model_to_json(m: &ModelSpec) -> JsonValue {
    let mut fields = vec![
        ("name".to_owned(), JsonValue::Str(m.name.clone())),
        (
            "components".to_owned(),
            JsonValue::Array(m.components.iter().map(component_to_json).collect()),
        ),
    ];
    if let Some(sc) = m.self_conditioning {
        fields.push((
            "self_conditioning".to_owned(),
            JsonValue::Object(vec![(
                "probability".to_owned(),
                JsonValue::Num(sc.probability),
            )]),
        ));
    }
    if !m.input_shapes.is_empty() {
        fields.push((
            "input_shapes".to_owned(),
            JsonValue::Array(
                m.input_shapes
                    .iter()
                    .map(|&(h, w)| {
                        JsonValue::Array(vec![
                            JsonValue::UInt(u64::from(h)),
                            JsonValue::UInt(u64::from(w)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    JsonValue::Object(fields)
}

/// Parses an inline [`ModelSpec`].
///
/// # Errors
///
/// A typed [`SpecError`] naming the offending field.
pub fn model_from_json(v: &JsonValue, path: &str) -> Result<ModelSpec, SpecError> {
    let fields = Fields::new(v, path)?;
    fields.allow(&["name", "components", "self_conditioning", "input_shapes"])?;
    let components_path = fields.path("components");
    let components = decode::as_array(fields.require("components")?, &components_path)?
        .iter()
        .enumerate()
        .map(|(i, c)| component_from_json(c, &format!("{components_path}[{i}]")))
        .collect::<Result<Vec<_>, _>>()?;
    let self_conditioning = match fields.get("self_conditioning") {
        None | Some(JsonValue::Null) => None,
        Some(v) => {
            let sc_path = fields.path("self_conditioning");
            let sc = Fields::new(v, &sc_path)?;
            sc.allow(&["probability"])?;
            Some(SelfConditioning {
                probability: f64_field(&sc, "probability")?,
            })
        }
    };
    let input_shapes = match fields.get("input_shapes") {
        Some(v) => {
            let shapes_path = fields.path("input_shapes");
            decode::as_array(v, &shapes_path)?
                .iter()
                .enumerate()
                .map(|(i, pair)| {
                    let pair_path = format!("{shapes_path}[{i}]");
                    let items = decode::as_array(pair, &pair_path)?;
                    if items.len() != 2 {
                        return Err(SpecError::invalid(&pair_path, "expected [height, width]"));
                    }
                    let h = decode::as_u32(&items[0], &pair_path)?;
                    let w = decode::as_u32(&items[1], &pair_path)?;
                    Ok((h, w))
                })
                .collect::<Result<Vec<_>, _>>()?
        }
        None => Vec::new(),
    };
    Ok(ModelSpec {
        name: str_field(&fields, "name")?,
        components,
        self_conditioning,
        input_shapes,
    })
}

fn link_to_json(l: &LinkParams) -> JsonValue {
    JsonValue::Object(vec![
        ("bandwidth".to_owned(), JsonValue::Num(l.bandwidth)),
        ("latency".to_owned(), JsonValue::Num(l.latency)),
    ])
}

fn link_from_json(v: &JsonValue, path: &str, default: LinkParams) -> Result<LinkParams, SpecError> {
    let fields = Fields::new(v, path)?;
    fields.allow(&["bandwidth", "latency"])?;
    Ok(LinkParams {
        bandwidth: match fields.get("bandwidth") {
            Some(v) => decode::as_f64(v, &fields.path("bandwidth"))?,
            None => default.bandwidth,
        },
        latency: match fields.get("latency") {
            Some(v) => decode::as_f64(v, &fields.path("latency"))?,
            None => default.latency,
        },
    })
}

fn class_to_json(c: &DeviceClass) -> JsonValue {
    JsonValue::Object(vec![
        ("name".to_owned(), JsonValue::Str(c.name.clone())),
        ("compute_scale".to_owned(), JsonValue::Num(c.compute_scale)),
        ("memory_bytes".to_owned(), JsonValue::UInt(c.memory_bytes)),
        ("link_scale".to_owned(), JsonValue::Num(c.link_scale)),
    ])
}

fn class_from_json(v: &JsonValue, path: &str) -> Result<DeviceClass, SpecError> {
    // Shorthand: a preset name.
    if let Some(name) = v.as_str() {
        return DeviceClass::by_name(name).ok_or_else(|| SpecError::UnknownClass(name.to_owned()));
    }
    let fields = Fields::new(v, path)?;
    fields.allow(&["name", "compute_scale", "memory_bytes", "link_scale"])?;
    Ok(DeviceClass {
        name: str_field(&fields, "name")?,
        compute_scale: f64_field(&fields, "compute_scale")?,
        memory_bytes: u64_field(&fields, "memory_bytes")?,
        link_scale: f64_field(&fields, "link_scale")?,
    })
}

/// Full encoding of a [`ClusterSpec`] (classes as explicit objects).
pub fn cluster_to_json(c: &ClusterSpec) -> JsonValue {
    JsonValue::Object(vec![
        ("machines".to_owned(), JsonValue::UInt(c.machines as u64)),
        (
            "devices_per_machine".to_owned(),
            JsonValue::UInt(c.devices_per_machine as u64),
        ),
        ("intra_link".to_owned(), link_to_json(&c.intra_link)),
        ("inter_link".to_owned(), link_to_json(&c.inter_link)),
        (
            "spine_oversubscription".to_owned(),
            JsonValue::Num(c.spine_oversubscription),
        ),
        (
            "device_memory_bytes".to_owned(),
            JsonValue::UInt(c.device_memory_bytes),
        ),
        (
            "machine_classes".to_owned(),
            JsonValue::Array(c.machine_classes.iter().map(class_to_json).collect()),
        ),
    ])
}

/// Parses a [`ClusterSpec`]. Absent link/memory fields default to the
/// p4de-class calibration (the values every constructor uses);
/// `machine_classes` accepts explicit class objects, preset-name strings,
/// or — for the whole field — a `"a100:4,h100:4"` machine spec string.
///
/// # Errors
///
/// A typed [`SpecError`]; unknown class names surface as
/// [`SpecError::UnknownClass`].
pub fn cluster_from_json(v: &JsonValue, path: &str) -> Result<ClusterSpec, SpecError> {
    let fields = Fields::new(v, path)?;
    fields.allow(&[
        "machines",
        "devices_per_machine",
        "intra_link",
        "inter_link",
        "spine_oversubscription",
        "device_memory_bytes",
        "machine_classes",
    ])?;
    let machine_classes = match fields.get("machine_classes") {
        None => Vec::new(),
        Some(JsonValue::Str(spec)) => DeviceClass::parse_machine_spec(spec).map_err(|e| {
            if e.starts_with("unknown device class") {
                // Extract the offending name for the typed variant.
                let name = e.split('`').nth(1).unwrap_or("?").to_owned();
                SpecError::UnknownClass(name)
            } else {
                SpecError::invalid(fields.path("machine_classes"), e)
            }
        })?,
        Some(v) => {
            let classes_path = fields.path("machine_classes");
            decode::as_array(v, &classes_path)?
                .iter()
                .enumerate()
                .map(|(i, c)| class_from_json(c, &format!("{classes_path}[{i}]")))
                .collect::<Result<Vec<_>, _>>()?
        }
    };
    // The machine count defaults to the class list's length (one class per
    // machine) and otherwise to 1.
    let machines = match fields.get("machines") {
        Some(v) => decode::as_usize(v, &fields.path("machines"))?,
        None if !machine_classes.is_empty() => machine_classes.len(),
        None => 1,
    };
    let reference = ClusterSpec::p4de(machines.max(1));
    Ok(ClusterSpec {
        machines,
        devices_per_machine: match fields.get("devices_per_machine") {
            Some(v) => decode::as_usize(v, &fields.path("devices_per_machine"))?,
            None => 8,
        },
        intra_link: match fields.get("intra_link") {
            Some(v) => link_from_json(v, &fields.path("intra_link"), reference.intra_link)?,
            None => reference.intra_link,
        },
        inter_link: match fields.get("inter_link") {
            Some(v) => link_from_json(v, &fields.path("inter_link"), reference.inter_link)?,
            None => reference.inter_link,
        },
        spine_oversubscription: match fields.get("spine_oversubscription") {
            Some(v) => decode::as_f64(v, &fields.path("spine_oversubscription"))?,
            None => reference.spine_oversubscription,
        },
        device_memory_bytes: match fields.get("device_memory_bytes") {
            Some(v) => decode::as_u64(v, &fields.path("device_memory_bytes"))?,
            None => reference.device_memory_bytes,
        },
        machine_classes,
    })
}

fn options_to_json(o: &PlannerOptions) -> JsonValue {
    JsonValue::Object(vec![
        (
            "bubble_filling".to_owned(),
            JsonValue::Bool(o.bubble_filling),
        ),
        ("partial_batch".to_owned(), JsonValue::Bool(o.partial_batch)),
    ])
}

fn options_from_json(v: &JsonValue, path: &str) -> Result<PlannerOptions, SpecError> {
    let fields = Fields::new(v, path)?;
    fields.allow(&["bubble_filling", "partial_batch"])?;
    let default = PlannerOptions::default();
    Ok(PlannerOptions {
        bubble_filling: match fields.get("bubble_filling") {
            Some(v) => decode::as_bool(v, &fields.path("bubble_filling"))?,
            None => default.bubble_filling,
        },
        partial_batch: match fields.get("partial_batch") {
            Some(v) => decode::as_bool(v, &fields.path("partial_batch"))?,
            None => default.partial_batch,
        },
    })
}

fn search_to_json(s: &SearchSpace) -> JsonValue {
    JsonValue::Object(vec![
        (
            "max_stages".to_owned(),
            JsonValue::UInt(s.max_stages as u64),
        ),
        (
            "max_micro_batches".to_owned(),
            JsonValue::UInt(s.max_micro_batches as u64),
        ),
    ])
}

fn search_from_json(v: &JsonValue, path: &str) -> Result<SearchSpace, SpecError> {
    let fields = Fields::new(v, path)?;
    fields.allow(&["max_stages", "max_micro_batches"])?;
    let default = SearchSpace::default();
    Ok(SearchSpace {
        max_stages: match fields.get("max_stages") {
            Some(v) => decode::as_usize(v, &fields.path("max_stages"))?,
            None => default.max_stages,
        },
        max_micro_batches: match fields.get("max_micro_batches") {
            Some(v) => decode::as_usize(v, &fields.path("max_micro_batches"))?,
            None => default.max_micro_batches,
        },
    })
}

fn fill_to_json(f: &FillConfig) -> JsonValue {
    JsonValue::Object(vec![
        (
            "min_bubble_seconds".to_owned(),
            JsonValue::Num(f.min_bubble_seconds),
        ),
        ("partial_batch".to_owned(), JsonValue::Bool(f.partial_batch)),
        (
            "local_batch_candidates".to_owned(),
            JsonValue::Array(
                f.local_batch_candidates
                    .iter()
                    .map(|&c| JsonValue::UInt(u64::from(c)))
                    .collect(),
            ),
        ),
        (
            "item_setup_seconds".to_owned(),
            JsonValue::Num(f.item_setup_seconds),
        ),
    ])
}

fn fill_from_json(v: &JsonValue, path: &str) -> Result<FillConfig, SpecError> {
    let fields = Fields::new(v, path)?;
    fields.allow(&[
        "min_bubble_seconds",
        "partial_batch",
        "local_batch_candidates",
        "item_setup_seconds",
    ])?;
    let default = FillConfig::default();
    Ok(FillConfig {
        min_bubble_seconds: match fields.get("min_bubble_seconds") {
            Some(v) => decode::as_f64(v, &fields.path("min_bubble_seconds"))?,
            None => default.min_bubble_seconds,
        },
        partial_batch: match fields.get("partial_batch") {
            Some(v) => decode::as_bool(v, &fields.path("partial_batch"))?,
            None => default.partial_batch,
        },
        local_batch_candidates: match fields.get("local_batch_candidates") {
            Some(v) => {
                let list_path = fields.path("local_batch_candidates");
                decode::as_array(v, &list_path)?
                    .iter()
                    .enumerate()
                    .map(|(i, c)| decode::as_u32(c, &format!("{list_path}[{i}]")))
                    .collect::<Result<Vec<_>, _>>()?
            }
            None => default.local_batch_candidates,
        },
        item_setup_seconds: match fields.get("item_setup_seconds") {
            Some(v) => decode::as_f64(v, &fields.path("item_setup_seconds"))?,
            None => default.item_setup_seconds,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpipe_model::zoo;

    fn mixed_cluster() -> ClusterSpec {
        ClusterSpec::mixed(&[(DeviceClass::a100(), 2), (DeviceClass::h100(), 2)])
    }

    #[test]
    fn canonical_json_round_trips_zoo_and_inline_specs() {
        let specs = [
            PlanSpec::zoo("sd", ClusterSpec::single_node(8), 256),
            PlanSpec::new(zoo::dit_xl_2(), ClusterSpec::p4de(2), 128)
                .with_options(PlannerOptions {
                    bubble_filling: false,
                    partial_batch: true,
                })
                .with_search_space(SearchSpace {
                    max_stages: 4,
                    max_micro_batches: 6,
                })
                .with_schedule(ScheduleKind::GPipe)
                .with_parallelism(4)
                .with_record_backed(true),
            PlanSpec::zoo("sdxl", mixed_cluster(), 512)
                .with_fill_config(FillConfig::default().without_partial_batch()),
        ];
        for spec in specs {
            let text = spec.to_json();
            let back = PlanSpec::from_json(&text).unwrap();
            assert_eq!(back, spec, "round trip changed the spec:\n{text}");
            // Byte-stable: re-encoding the parsed spec reproduces the text.
            assert_eq!(back.to_json(), text);
        }
    }

    #[test]
    fn zoo_and_inline_forms_of_the_same_model_share_a_fingerprint() {
        let cluster = ClusterSpec::single_node(8);
        let by_name = PlanSpec::zoo("sd", cluster.clone(), 256);
        let inline = PlanSpec::new(zoo::stable_diffusion_v2_1(), cluster, 256);
        assert_eq!(
            by_name.fingerprint().unwrap(),
            inline.fingerprint().unwrap()
        );
        // But the JSON encodings differ (the reference is preserved).
        assert_ne!(by_name.to_json(), inline.to_json());
    }

    #[test]
    fn fingerprint_extends_only_for_non_default_fill_and_schedule() {
        let base = PlanSpec::zoo("sd", ClusterSpec::single_node(8), 256);
        let fp = base.fingerprint().unwrap();
        let with_fill = base
            .clone()
            .with_fill_config(FillConfig::default().without_partial_batch());
        let with_sched = base.clone().with_schedule(ScheduleKind::GPipe);
        let with_workers = base.clone().with_parallelism(7);
        assert_ne!(with_fill.fingerprint().unwrap(), fp);
        assert_ne!(with_sched.fingerprint().unwrap(), fp);
        assert_ne!(
            with_fill.fingerprint().unwrap(),
            with_sched.fingerprint().unwrap()
        );
        // Parallelism is a sizing knob, never a cache key.
        assert_eq!(with_workers.fingerprint().unwrap(), fp);
    }

    #[test]
    fn shorthand_forms_parse() {
        let text = r#"{
            "schema_version": 1,
            "model": "sd",
            "cluster": {"machine_classes": "a100:2,h100:2"},
            "global_batch": 256
        }"#;
        let spec = PlanSpec::from_json(text).unwrap();
        assert_eq!(spec.model, ModelRef::Zoo("sd".to_owned()));
        assert_eq!(spec.cluster.machines, 4);
        assert_eq!(spec.cluster.world_size(), 32);
        assert!(spec.cluster.is_heterogeneous());
        assert_eq!(spec.cluster, mixed_cluster());
        assert_eq!(spec.options, PlannerOptions::default());
        assert_eq!(spec.fill, FillConfig::default());
        assert_eq!(spec.schedule, ScheduleKind::Fifo1F1B);
        spec.validate().unwrap();
        // The shorthand and the canonical encoding are the same spec.
        assert_eq!(PlanSpec::from_json(&spec.to_json()).unwrap(), spec);
    }

    #[test]
    fn typed_errors_name_the_problem() {
        let base = |model: &str, extra: &str| {
            format!(
                r#"{{"schema_version":1,"model":{model},"cluster":{{"machines":1}},"global_batch":64{extra}}}"#
            )
        };
        // Unknown field.
        let err = PlanSpec::from_json(&base("\"sd\"", ",\"warp\":1")).unwrap_err();
        assert_eq!(err, SpecError::UnknownField("warp".to_owned()));
        // Unknown schema version.
        let err = PlanSpec::from_json(
            r#"{"schema_version":99,"model":"sd","cluster":{},"global_batch":64}"#,
        )
        .unwrap_err();
        assert_eq!(err, SpecError::UnsupportedVersion(99));
        // Unknown zoo model resolves lazily.
        let spec = PlanSpec::from_json(&base("\"warpdrive\"", "")).unwrap();
        assert_eq!(
            spec.validate().unwrap_err(),
            SpecError::UnknownModel("warpdrive".to_owned())
        );
        // Bad class name.
        let err = PlanSpec::from_json(
            r#"{"schema_version":1,"model":"sd","cluster":{"machine_classes":"v100:2"},"global_batch":64}"#,
        )
        .unwrap_err();
        assert_eq!(err, SpecError::UnknownClass("v100".to_owned()));
        let err = PlanSpec::from_json(
            r#"{"schema_version":1,"model":"sd","cluster":{"machine_classes":["v100"]},"global_batch":64}"#,
        )
        .unwrap_err();
        assert_eq!(err, SpecError::UnknownClass("v100".to_owned()));
        // Zero batch is a validation error, not a parse error.
        let spec = PlanSpec::from_json(
            r#"{"schema_version":1,"model":"sd","cluster":{"machines":1},"global_batch":0}"#,
        )
        .unwrap();
        assert!(matches!(
            spec.validate().unwrap_err(),
            SpecError::InvalidValue { field, .. } if field == "global_batch"
        ));
        // Missing required field.
        let err =
            PlanSpec::from_json(r#"{"schema_version":1,"model":"sd","cluster":{}}"#).unwrap_err();
        assert_eq!(err, SpecError::MissingField("global_batch".to_owned()));
        // Malformed JSON is a positioned Json error.
        assert!(matches!(
            PlanSpec::from_json("{\"schema_version\":").unwrap_err(),
            SpecError::Json(_)
        ));
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        let ok = PlanSpec::zoo("sd", ClusterSpec::single_node(8), 64);
        ok.validate().unwrap();
        let no_devices = PlanSpec::zoo("sd", ClusterSpec::single_node(0), 64);
        assert!(no_devices.validate().is_err());
        let bad_classes = PlanSpec::zoo(
            "sd",
            ClusterSpec::p4de(4).with_machine_classes(vec![DeviceClass::h100()]),
            64,
        );
        assert!(matches!(
            bad_classes.validate().unwrap_err(),
            SpecError::InvalidValue { field, .. } if field.contains("machine_classes")
        ));
        let zero_search = ok.clone().with_search_space(SearchSpace {
            max_stages: 0,
            max_micro_batches: 8,
        });
        assert!(zero_search.validate().is_err());
        let mut bad_version = ok;
        bad_version.schema_version = 2;
        assert_eq!(
            bad_version.validate().unwrap_err(),
            SpecError::UnsupportedVersion(2)
        );
    }

    #[test]
    fn inline_model_encoding_preserves_every_cost_number() {
        let model = zoo::cdm_lsun();
        let v = model_to_json(&model);
        let back = model_from_json(&v, "model").unwrap();
        assert_eq!(back, model);
        assert_eq!(back.fingerprint(), model.fingerprint());
        // Through text, too.
        let back = model_from_json(&parse(&v.to_string()).unwrap(), "model").unwrap();
        assert_eq!(back, model);
    }

    #[test]
    fn cluster_encoding_preserves_classes_and_links() {
        for cluster in [
            ClusterSpec::single_node(4),
            ClusterSpec::p4de(8),
            mixed_cluster(),
            ClusterSpec::mixed(&[(DeviceClass::a10g(), 3)]),
        ] {
            let v = cluster_to_json(&cluster);
            let back = cluster_from_json(&parse(&v.to_string()).unwrap(), "cluster").unwrap();
            assert_eq!(back, cluster);
            assert_eq!(back.fingerprint(), cluster.fingerprint());
        }
    }

    #[test]
    fn labels_are_readable() {
        let spec = PlanSpec::zoo("dit", ClusterSpec::single_node(4), 64);
        assert_eq!(spec.label(), "dit@4gpu/b64");
        assert_eq!(spec.model.name(), "dit");
        assert_eq!(
            PlanSpec::new(zoo::dit_xl_2(), ClusterSpec::single_node(4), 64)
                .model
                .name(),
            "dit-xl-2"
        );
    }
}
