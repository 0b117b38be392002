//! The declarative planning API: one versioned, JSON-round-trippable spec
//! that every entry point consumes.
//!
//! [`PlanSpec`] is the one place a planning input is set: the planner,
//! the serving layer, sweeps, the CLI and the HTTP frontend have no
//! setters of their own. It is a single value:
//!
//! * **model** — a zoo name or a complete inline [`dpipe_model::ModelSpec`]
//!   ([`ModelRef`]);
//! * **cluster** — shape, links, and the per-machine [`DeviceClass`]
//!   assignments of mixed-GPU fleets;
//! * **knobs** — global batch, [`PlannerOptions`], search space, fill
//!   config, schedule family, parallelism, record-backed-profile mode.
//!
//! [`PlanSpec::to_json`] / [`PlanSpec::from_json`] round-trip the spec
//! byte-stably (`spec -> json -> spec` is identity and re-encoding is
//! byte-identical), [`PlanSpec::validate`] produces typed [`SpecError`]
//! diagnostics, and [`PlanSpec::fingerprint`] is the serve-layer cache key
//! — bit-compatible with every fingerprint minted before this API existed.
//! [`SweepSpec`] lifts the same idea to sweeps: a template spec plus axes
//! (models × clusters × batches, with `"a100:4,h100:4"` mixed fleets as
//! first-class axis points).
//!
//! The [`json`] module is the crate's foundation: a dependency-free JSON
//! tree with an emitter *and* a hand-written parser, re-homed here from
//! `dpipe_serve` so the core planner can consume specs without a
//! dependency cycle.
//!
//! # Example
//!
//! ```
//! use dpipe_spec::{PlanSpec, SCHEMA_VERSION};
//! use dpipe_cluster::ClusterSpec;
//!
//! let spec = PlanSpec::zoo("sd", ClusterSpec::single_node(8), 256);
//! let text = spec.to_json();
//! let back = PlanSpec::from_json(&text).unwrap();
//! assert_eq!(back, spec);
//! assert_eq!(back.schema_version, SCHEMA_VERSION);
//! assert_eq!(back.fingerprint().unwrap(), spec.fingerprint().unwrap());
//! ```
//!
//! [`DeviceClass`]: dpipe_cluster::DeviceClass

pub mod decode;
pub mod json;

mod error;
mod options;
mod plan_spec;
mod sweep_spec;

pub use error::SpecError;
pub use options::PlannerOptions;
pub use plan_spec::{
    cluster_from_json, cluster_to_json, model_from_json, model_ref_from_json, model_ref_to_json,
    model_to_json, schedule_str, ModelRef, PlanSpec,
};
pub use sweep_spec::{cluster_for_gpus, cluster_label, ClusterAxis, SweepSpec};

/// The schema version this build reads and writes. Documents carrying any
/// other version are rejected with [`SpecError::UnsupportedVersion`];
/// additive, default-carrying fields do *not* bump this, renames and
/// semantic changes do.
pub const SCHEMA_VERSION: u32 = 1;
