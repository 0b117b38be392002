//! [`SweepSpec`]: a declarative sweep — one template [`PlanSpec`] plus the
//! axes that vary, expanding to concrete specs.

use crate::decode::{self, Fields};
use crate::error::SpecError;
use crate::json::{parse, JsonValue};
use crate::plan_spec::{cluster_from_json, cluster_to_json, model_ref_to_json, ModelRef, PlanSpec};
use crate::SCHEMA_VERSION;
use dpipe_cluster::{ClusterSpec, DeviceClass};

/// One point of a sweep's cluster axis.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterAxis {
    /// A total GPU count, resolved through [`cluster_for_gpus`]: `p4de`
    /// nodes for multiples of 8 above 8, one wide machine otherwise.
    GpuCount(usize),
    /// A mixed-fleet machine spec like `a100:4,h100:4` (8-GPU nodes, one
    /// class per machine) — the heterogeneous fleets of
    /// [`ClusterSpec::mixed`] as a sweep axis.
    MachineClasses(String),
    /// An explicit cluster (anything the other two shorthands cannot say).
    Cluster(ClusterSpec),
}

impl ClusterAxis {
    /// Resolves the axis point to a concrete cluster.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownClass`] / [`SpecError::InvalidValue`] for a bad
    /// machine spec.
    pub fn resolve(&self) -> Result<ClusterSpec, SpecError> {
        match self {
            ClusterAxis::GpuCount(gpus) => Ok(cluster_for_gpus(*gpus)),
            ClusterAxis::MachineClasses(spec) => {
                let classes = DeviceClass::parse_machine_spec(spec).map_err(|e| {
                    if e.starts_with("unknown device class") {
                        SpecError::UnknownClass(e.split('`').nth(1).unwrap_or("?").to_owned())
                    } else {
                        SpecError::invalid("clusters", e)
                    }
                })?;
                Ok(ClusterSpec {
                    machine_classes: classes.clone(),
                    ..ClusterSpec::p4de(classes.len())
                })
            }
            ClusterAxis::Cluster(cluster) => Ok(cluster.clone()),
        }
    }

    fn to_json(&self) -> JsonValue {
        match self {
            ClusterAxis::GpuCount(gpus) => JsonValue::UInt(*gpus as u64),
            ClusterAxis::MachineClasses(spec) => JsonValue::Str(spec.clone()),
            ClusterAxis::Cluster(cluster) => cluster_to_json(cluster),
        }
    }

    fn from_json(v: &JsonValue, path: &str) -> Result<Self, SpecError> {
        match v {
            JsonValue::UInt(_) => Ok(ClusterAxis::GpuCount(decode::as_usize(v, path)?)),
            JsonValue::Str(spec) => Ok(ClusterAxis::MachineClasses(spec.clone())),
            JsonValue::Object(_) => Ok(ClusterAxis::Cluster(cluster_from_json(v, path)?)),
            other => Err(SpecError::invalid(
                path,
                format!(
                    "expected a GPU count, a machine spec string or a cluster object, found {}",
                    other.type_name()
                ),
            )),
        }
    }
}

/// The cluster shape used for a bare GPU count: `p4de(n/8)` for multiples
/// of 8 above 8, otherwise one machine with that many devices.
pub fn cluster_for_gpus(gpus: usize) -> ClusterSpec {
    if gpus > 8 && gpus.is_multiple_of(8) {
        ClusterSpec::p4de(gpus / 8)
    } else {
        ClusterSpec::single_node(gpus)
    }
}

/// A run-length label for a cluster: `8gpu` when homogeneous, the
/// `a100:4,h100:4` class spec when mixed. Used for sweep coordinates and
/// report rows.
pub fn cluster_label(cluster: &ClusterSpec) -> String {
    if !cluster.is_heterogeneous() {
        return format!("{}gpu", cluster.world_size());
    }
    let mut runs: Vec<(String, usize)> = Vec::new();
    for class in &cluster.machine_classes {
        match runs.last_mut() {
            Some((name, count)) if *name == class.name => *count += 1,
            _ => runs.push((class.name.clone(), 1)),
        }
    }
    runs.iter()
        .map(|(name, count)| format!("{name}:{count}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// A declarative sweep: a template spec plus the axes that vary.
///
/// Expansion is a cartesian product in deterministic model-major /
/// cluster / batch-minor order; every expanded point is the template with
/// the axis values substituted, so options, search bounds, fill config,
/// schedule and profiling mode apply uniformly.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Schema version of the serialized form (see [`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Everything the axes do not override.
    pub template: PlanSpec,
    /// Model axis.
    pub models: Vec<ModelRef>,
    /// Cluster axis.
    pub clusters: Vec<ClusterAxis>,
    /// Global-batch axis.
    pub batches: Vec<u32>,
}

impl SweepSpec {
    /// A one-point sweep: every axis is the template's own value.
    pub fn new(template: PlanSpec) -> Self {
        SweepSpec {
            schema_version: SCHEMA_VERSION,
            models: vec![template.model.clone()],
            clusters: vec![ClusterAxis::Cluster(template.cluster.clone())],
            batches: vec![template.global_batch],
            template,
        }
    }

    /// Replaces the model axis.
    pub fn with_models(mut self, models: Vec<ModelRef>) -> Self {
        self.models = models;
        self
    }

    /// Replaces the cluster axis.
    pub fn with_clusters(mut self, clusters: Vec<ClusterAxis>) -> Self {
        self.clusters = clusters;
        self
    }

    /// Replaces the batch axis.
    pub fn with_batches(mut self, batches: Vec<u32>) -> Self {
        self.batches = batches;
        self
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.models.len() * self.clusters.len() * self.batches.len()
    }

    /// True when any axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the axes into concrete specs (model-major, then cluster,
    /// then batch).
    ///
    /// # Errors
    ///
    /// The first axis point that fails to resolve (bad machine spec).
    /// Unknown *zoo names* resolve lazily at plan time, like everywhere
    /// else.
    pub fn specs(&self) -> Result<Vec<PlanSpec>, SpecError> {
        let clusters: Vec<ClusterSpec> = self
            .clusters
            .iter()
            .map(ClusterAxis::resolve)
            .collect::<Result<_, _>>()?;
        let mut out = Vec::with_capacity(self.len());
        for model in &self.models {
            for cluster in &clusters {
                for &batch in &self.batches {
                    let mut spec = self.template.clone();
                    spec.model = model.clone();
                    spec.cluster = cluster.clone();
                    spec.global_batch = batch;
                    out.push(spec);
                }
            }
        }
        Ok(out)
    }

    /// The canonical JSON tree (axes explicit, template complete).
    pub(crate) fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            (
                "schema_version".to_owned(),
                JsonValue::UInt(u64::from(self.schema_version)),
            ),
            ("template".to_owned(), self.template.to_json_value()),
            (
                "models".to_owned(),
                JsonValue::Array(
                    self.models
                        .iter()
                        .map(|m| match m {
                            // Zoo refs stay compact strings on the axis.
                            ModelRef::Zoo(name) => JsonValue::Str(name.clone()),
                            inline => model_ref_to_json(inline),
                        })
                        .collect(),
                ),
            ),
            (
                "clusters".to_owned(),
                JsonValue::Array(self.clusters.iter().map(ClusterAxis::to_json).collect()),
            ),
            (
                "batches".to_owned(),
                JsonValue::Array(
                    self.batches
                        .iter()
                        .map(|&b| JsonValue::UInt(u64::from(b)))
                        .collect(),
                ),
            ),
        ])
    }

    /// The canonical JSON encoding as a string (no trailing newline).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// Parses a sweep spec. `template` is required; absent axes default to
    /// the template's own model/cluster/batch (a one-point axis).
    ///
    /// # Errors
    ///
    /// See [`PlanSpec::from_json`].
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        Self::from_json_value(&parse(text)?)
    }

    /// [`SweepSpec::from_json`] over an already-parsed tree.
    ///
    /// # Errors
    ///
    /// See [`PlanSpec::from_json`].
    pub(crate) fn from_json_value(value: &JsonValue) -> Result<Self, SpecError> {
        let fields = Fields::new(value, "")?;
        fields.allow(&[
            "schema_version",
            "template",
            "models",
            "clusters",
            "batches",
        ])?;
        let version = decode::u64_field(&fields, "schema_version")?;
        if version != u64::from(SCHEMA_VERSION) {
            return Err(SpecError::UnsupportedVersion(version));
        }
        let template =
            PlanSpec::from_json_value(fields.require("template")?).map_err(|e| match e {
                // Re-root nested paths under `template.`.
                SpecError::MissingField(f) => SpecError::MissingField(format!("template.{f}")),
                SpecError::UnknownField(f) => SpecError::UnknownField(format!("template.{f}")),
                SpecError::InvalidValue { field, reason } => SpecError::InvalidValue {
                    field: format!("template.{field}"),
                    reason,
                },
                other => other,
            })?;
        let models = match fields.get("models") {
            Some(v) => decode::as_array(v, "models")?
                .iter()
                .enumerate()
                .map(|(i, m)| {
                    if let Some(name) = m.as_str() {
                        Ok(ModelRef::Zoo(name.to_owned()))
                    } else {
                        crate::plan_spec::model_ref_from_json(m, &format!("models[{i}]"))
                    }
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => vec![template.model.clone()],
        };
        let clusters = match fields.get("clusters") {
            Some(v) => decode::as_array(v, "clusters")?
                .iter()
                .enumerate()
                .map(|(i, c)| ClusterAxis::from_json(c, &format!("clusters[{i}]")))
                .collect::<Result<Vec<_>, _>>()?,
            None => vec![ClusterAxis::Cluster(template.cluster.clone())],
        };
        let batches = match fields.get("batches") {
            Some(v) => decode::as_array(v, "batches")?
                .iter()
                .enumerate()
                .map(|(i, b)| decode::as_u32(b, &format!("batches[{i}]")))
                .collect::<Result<Vec<_>, _>>()?,
            None => vec![template.global_batch],
        };
        Ok(SweepSpec {
            schema_version: SCHEMA_VERSION,
            template,
            models,
            clusters,
            batches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpipe_cluster::DeviceClass;

    fn template() -> PlanSpec {
        PlanSpec::zoo("sd", ClusterSpec::single_node(8), 64)
    }

    #[test]
    fn cluster_for_gpus_picks_shapes() {
        assert_eq!(cluster_for_gpus(4).world_size(), 4);
        assert_eq!(cluster_for_gpus(4).machines, 1);
        let multi = cluster_for_gpus(16);
        assert_eq!((multi.machines, multi.world_size()), (2, 16));
        // 12 is not a multiple of 8: one wide machine.
        assert_eq!(cluster_for_gpus(12).machines, 1);
    }

    #[test]
    fn mixed_axis_resolves_to_a_heterogeneous_fleet() {
        let axis = ClusterAxis::MachineClasses("a100:2,h100:2".to_owned());
        let cluster = axis.resolve().unwrap();
        assert_eq!(
            cluster,
            ClusterSpec::mixed(&[(DeviceClass::a100(), 2), (DeviceClass::h100(), 2)])
        );
        assert_eq!(cluster_label(&cluster), "a100:2,h100:2");
        assert_eq!(cluster_label(&cluster_for_gpus(16)), "16gpu");
        assert_eq!(
            ClusterAxis::MachineClasses("v100:2".to_owned())
                .resolve()
                .unwrap_err(),
            SpecError::UnknownClass("v100".to_owned())
        );
    }

    #[test]
    fn expansion_is_cartesian_and_template_knobs_apply_everywhere() {
        let mut t = template();
        t.record_backed = true;
        let sweep = SweepSpec::new(t)
            .with_models(vec![
                ModelRef::Zoo("sd".to_owned()),
                ModelRef::Zoo("dit".to_owned()),
            ])
            .with_clusters(vec![
                ClusterAxis::GpuCount(8),
                ClusterAxis::MachineClasses("a100:1,h100:1".to_owned()),
            ])
            .with_batches(vec![64, 128]);
        assert_eq!(sweep.len(), 8);
        let specs = sweep.specs().unwrap();
        assert_eq!(specs.len(), 8);
        assert!(specs.iter().all(|s| s.record_backed));
        assert_eq!(specs[0].model.name(), "sd");
        assert_eq!(specs[7].model.name(), "dit");
        assert_eq!(specs[0].global_batch, 64);
        assert_eq!(specs[1].global_batch, 128);
        assert!(specs[2].cluster.is_heterogeneous());
    }

    #[test]
    fn json_round_trip_including_mixed_axis() {
        let sweep = SweepSpec::new(template())
            .with_models(vec![ModelRef::Zoo("sd".to_owned())])
            .with_clusters(vec![
                ClusterAxis::GpuCount(16),
                ClusterAxis::MachineClasses("a100:2,h100:2".to_owned()),
                ClusterAxis::Cluster(ClusterSpec::single_node(3)),
            ])
            .with_batches(vec![256]);
        let text = sweep.to_json();
        let back = SweepSpec::from_json(&text).unwrap();
        assert_eq!(back, sweep);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn absent_axes_default_to_the_template() {
        let text = format!(
            r#"{{"schema_version":1,"template":{}}}"#,
            template().to_json()
        );
        let sweep = SweepSpec::from_json(&text).unwrap();
        assert_eq!(sweep.len(), 1);
        let specs = sweep.specs().unwrap();
        assert_eq!(specs, vec![template()]);
        // And the defaulted form re-encodes canonically (axes explicit).
        assert_eq!(SweepSpec::from_json(&sweep.to_json()).unwrap(), sweep);
    }

    #[test]
    fn template_errors_are_re_rooted() {
        let err = SweepSpec::from_json(
            r#"{"schema_version":1,"template":{"schema_version":1,"model":"sd","cluster":{}}}"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SpecError::MissingField("template.global_batch".to_owned())
        );
        let err = SweepSpec::from_json(r#"{"schema_version":7,"template":{}}"#).unwrap_err();
        assert_eq!(err, SpecError::UnsupportedVersion(7));
    }
}
