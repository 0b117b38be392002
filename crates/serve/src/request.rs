//! One planning request: a thin wrapper over the declarative [`PlanSpec`].
//!
//! Since the spec redesign, the request no longer duplicates the planner's
//! knobs — it *is* a [`PlanSpec`] plus the resolved model, and its cache
//! fingerprint is derived from the canonical spec
//! ([`PlanSpec::fingerprint_with_model`]). Homogeneous-cluster requests
//! keep the exact fingerprints they had before the redesign, so warm
//! caches and committed goldens survive.

use diffusionpipe_core::{Plan, PlanError, Planner};
use dpipe_cluster::ClusterSpec;
use dpipe_model::ModelSpec;
use dpipe_spec::{PlanSpec, SpecError};

/// Everything the planner needs for one plan, as a submit-able value.
///
/// A request is a *value*; submitting the same value twice yields the same
/// [`fingerprint`](PlanRequest::fingerprint) and therefore at most one
/// planning run through the service's cache. Zoo-name and inline forms of
/// the same model are the same value in this sense — they fingerprint
/// identically.
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// The canonical declarative spec (the single source of truth).
    spec: PlanSpec,
    /// The resolution of a `ModelRef::Zoo` reference, cached at
    /// construction so fingerprinting and labelling stay infallible.
    /// `None` for inline specs — an inline ref resolves to itself, and
    /// duplicating it would double every request's model memory on the
    /// serve hot path.
    zoo_model: Option<ModelSpec>,
}

impl PlanRequest {
    /// Creates a request with default planner options and search space
    /// (an inline-model spec under the hood). Build a [`PlanSpec`] and use
    /// [`PlanRequest::from_spec`] to set anything else.
    pub fn new(model: ModelSpec, cluster: ClusterSpec, global_batch: u32) -> Self {
        PlanRequest {
            spec: PlanSpec::new(model, cluster, global_batch),
            zoo_model: None,
        }
    }

    /// Wraps a declarative spec, resolving its model reference.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownModel`] when a zoo reference does not resolve.
    pub fn from_spec(spec: PlanSpec) -> Result<Self, SpecError> {
        let zoo_model = match &spec.model {
            dpipe_spec::ModelRef::Zoo(_) => Some(spec.model.resolve()?),
            dpipe_spec::ModelRef::Inline(_) => None,
        };
        Ok(PlanRequest { spec, zoo_model })
    }

    /// The canonical spec this request wraps.
    pub(crate) fn spec(&self) -> &PlanSpec {
        &self.spec
    }

    /// The resolved model.
    pub fn model(&self) -> &ModelSpec {
        match (&self.spec.model, &self.zoo_model) {
            (dpipe_spec::ModelRef::Inline(m), _) => m,
            (dpipe_spec::ModelRef::Zoo(_), Some(m)) => m,
            // Both constructors resolve zoo references eagerly.
            (dpipe_spec::ModelRef::Zoo(_), None) => {
                unreachable!("zoo reference resolved at construction")
            }
        }
    }

    /// The cluster to plan for.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.spec.cluster
    }

    /// Global batch size (per-backbone batch for cascaded models).
    pub fn global_batch(&self) -> u32 {
        self.spec.global_batch
    }

    /// Stable 64-bit content fingerprint of the whole request — the
    /// plan-cache key, derived from the canonical spec through
    /// [`PlanSpec::fingerprint_with_model`]. Pre-redesign fingerprints
    /// (homogeneous and mixed-class) are preserved bit-for-bit.
    pub fn fingerprint(&self) -> u64 {
        self.spec.fingerprint_with_model(self.model())
    }

    /// Short human-readable label, e.g. `stable-diffusion-v2.1@8gpu/b256`.
    pub(crate) fn label(&self) -> String {
        format!(
            "{}@{}gpu/b{}",
            self.model().name,
            self.spec.cluster.world_size(),
            self.spec.global_batch
        )
    }

    /// Runs the planner synchronously on the calling thread. This is the
    /// single source of truth for what one request costs; the service's
    /// workers call exactly this.
    ///
    /// Degenerate requests (no devices, zero batch) return
    /// [`PlanError::InvalidRequest`] instead of reaching the planner's
    /// internal assertions, so serving layers never panic on caller input.
    ///
    /// # Errors
    ///
    /// See [`PlanError`].
    pub fn plan(&self) -> Result<Plan, PlanError> {
        self.plan_traced(1, &dpipe_trace::Tracer::off(), None)
    }

    /// [`PlanRequest::plan`] with the planner's per-configuration search
    /// fanned across `workers` threads and its phase spans recorded into
    /// `tracer` under `parent`. Neither changes the plan: it is identical
    /// for any worker count ([`Planner::with_parallelism`]), so parallelism
    /// is a service-side sizing knob and deliberately *not* part of the
    /// request's fingerprint (nor is the spec's own `parallelism` field),
    /// and tracing is observation only.
    ///
    /// # Errors
    ///
    /// See [`PlanError`].
    pub fn plan_traced(
        &self,
        workers: usize,
        tracer: &dpipe_trace::Tracer,
        parent: Option<dpipe_trace::SpanId>,
    ) -> Result<Plan, PlanError> {
        if self.spec.cluster.world_size() == 0 {
            return Err(PlanError::InvalidRequest(
                "cluster has no devices".to_owned(),
            ));
        }
        if self.spec.global_batch == 0 {
            return Err(PlanError::InvalidRequest(
                "global batch must be positive".to_owned(),
            ));
        }
        if let Err(e) = self.spec.cluster.validate_classes() {
            return Err(PlanError::InvalidRequest(e));
        }
        Planner::from_spec(&self.spec)?
            .with_parallelism(workers)
            .with_tracer(tracer.clone())
            .with_trace_parent(parent)
            .plan(self.spec.global_batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diffusionpipe_core::PlannerOptions;
    use dpipe_model::zoo;
    use dpipe_partition::SearchSpace;
    use dpipe_spec::ModelRef;

    #[test]
    fn fingerprint_covers_every_knob() {
        let base = PlanRequest::new(
            zoo::stable_diffusion_v2_1(),
            ClusterSpec::single_node(8),
            256,
        );
        assert_eq!(base.fingerprint(), base.clone().fingerprint());

        let other_model =
            PlanRequest::new(zoo::dit_xl_2(), base.cluster().clone(), base.global_batch());
        let other_cluster = PlanRequest::new(
            base.model().clone(),
            ClusterSpec::single_node(4),
            base.global_batch(),
        );
        let other_batch = PlanRequest::new(base.model().clone(), base.cluster().clone(), 128);
        let with =
            |f: fn(PlanSpec) -> PlanSpec| PlanRequest::from_spec(f(base.spec().clone())).unwrap();
        let other_options = with(|s| {
            s.with_options(PlannerOptions {
                bubble_filling: false,
                partial_batch: true,
            })
        });
        let other_search = with(|s| {
            s.with_search_space(SearchSpace {
                max_stages: 4,
                max_micro_batches: 8,
            })
        });
        let other_profiles = with(|s| s.with_record_backed(true));
        let prints = [
            base.fingerprint(),
            other_model.fingerprint(),
            other_cluster.fingerprint(),
            other_batch.fingerprint(),
            other_options.fingerprint(),
            other_search.fingerprint(),
            other_profiles.fingerprint(),
        ];
        for (i, a) in prints.iter().enumerate() {
            for b in prints.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn zoo_spec_and_builder_request_share_a_cache_key() {
        let builder = PlanRequest::new(
            zoo::stable_diffusion_v2_1(),
            ClusterSpec::single_node(8),
            256,
        );
        let spec =
            PlanRequest::from_spec(PlanSpec::zoo("sd", ClusterSpec::single_node(8), 256)).unwrap();
        assert_eq!(builder.fingerprint(), spec.fingerprint());
        assert_eq!(builder.label(), spec.label());
        // And through a JSON round trip of the spec.
        let reloaded =
            PlanRequest::from_spec(PlanSpec::from_json(&spec.spec().to_json()).unwrap()).unwrap();
        assert_eq!(reloaded.fingerprint(), spec.fingerprint());
    }

    #[test]
    fn unknown_zoo_reference_is_a_typed_spec_error() {
        let err =
            PlanRequest::from_spec(PlanSpec::zoo("warpdrive", ClusterSpec::single_node(8), 64))
                .unwrap_err();
        assert_eq!(err, SpecError::UnknownModel("warpdrive".to_owned()));
    }

    #[test]
    fn heterogeneous_cluster_changes_the_cache_key() {
        use dpipe_cluster::DeviceClass;
        let model = zoo::stable_diffusion_v2_1();
        let homo = PlanRequest::new(model.clone(), ClusterSpec::p4de(2), 256);
        let mixed = PlanRequest::new(
            model.clone(),
            ClusterSpec::mixed(&[(DeviceClass::a100(), 1), (DeviceClass::h100(), 1)]),
            256,
        );
        let swapped = PlanRequest::new(
            model,
            ClusterSpec::mixed(&[(DeviceClass::h100(), 1), (DeviceClass::a100(), 1)]),
            256,
        );
        assert_ne!(homo.fingerprint(), mixed.fingerprint());
        assert_ne!(mixed.fingerprint(), swapped.fingerprint());
    }

    #[test]
    fn inconsistent_classes_are_an_invalid_request_not_a_panic() {
        use dpipe_cluster::DeviceClass;
        let cluster = ClusterSpec::p4de(4).with_machine_classes(vec![DeviceClass::h100()]);
        let err = PlanRequest::new(zoo::stable_diffusion_v2_1(), cluster, 256)
            .plan()
            .unwrap_err();
        assert!(matches!(err, PlanError::InvalidRequest(_)), "{err:?}");
    }

    #[test]
    fn record_backed_requests_plan() {
        let r = PlanRequest::from_spec(
            PlanSpec::zoo("sd", ClusterSpec::single_node(8), 64).with_record_backed(true),
        )
        .unwrap();
        assert!(r.spec().record_backed);
        let plan = r.plan().unwrap();
        assert!(plan.throughput > 0.0);
    }

    #[test]
    fn label_is_readable() {
        let r = PlanRequest::new(zoo::dit_xl_2(), ClusterSpec::single_node(4), 64);
        assert_eq!(r.label(), "dit-xl-2@4gpu/b64");
        assert_eq!(r.spec().model, ModelRef::Inline(zoo::dit_xl_2()));
    }

    #[test]
    fn plan_matches_direct_planner_call() {
        let r = PlanRequest::new(
            zoo::stable_diffusion_v2_1(),
            ClusterSpec::single_node(8),
            64,
        );
        let via_request = r.plan().unwrap();
        let direct = Planner::new(r.model().clone(), r.cluster().clone())
            .plan(64)
            .unwrap();
        assert_eq!(via_request.summary(), direct.summary());
        // The spec path is the same plan again.
        let via_spec = Planner::plan_spec(r.spec()).unwrap();
        assert_eq!(via_spec.summary(), direct.summary());
    }
}
