//! # DiffusionPipe (Rust reproduction)
//!
//! Pipeline-parallel training of large diffusion models with pipeline-bubble
//! filling, reproducing *"DiffusionPipe: Training Large Diffusion Models
//! with Efficient Pipelines"* (MLSys 2024).
//!
//! Diffusion models have a trainable backbone (U-Net / DiT) and a large
//! *frozen* part (text/image encoders). DiffusionPipe pipelines the backbone
//! across devices and fills the resulting pipeline bubbles with the frozen
//! part's forward computation of the *next* iteration, nearly eliminating
//! idle time while remaining mathematically equivalent to synchronous
//! data-parallel training.
//!
//! This workspace substitutes the paper's 64×A100 testbed with calibrated
//! analytical cost models and a deterministic simulator, plus a real
//! multi-threaded execution engine over a CPU tensor substrate that
//! validates the equivalence claim numerically. See `README.md` for the
//! substitution and the `dpipe_bench` binaries for paper-vs-measured results.
//!
//! ## Quickstart
//!
//! Planning inputs are one declarative, versioned, JSON-round-trippable
//! value: [`PlanSpec`](crate::spec::PlanSpec). The planner, the serving
//! layer, sweeps, the CLI (`dpipe plan --spec`) and the bench harness all
//! consume exactly this type.
//!
//! ```
//! use diffusionpipe::prelude::*;
//!
//! // Plan Stable Diffusion v2.1 training on one 8-GPU machine.
//! let spec = PlanSpec::zoo("sd", ClusterSpec::single_node(8), 256);
//! let plan = Planner::plan_spec(&spec).unwrap();
//! println!("{}", plan.summary());
//! assert!(plan.bubble_ratio < 0.10);
//!
//! // The spec round-trips through JSON byte-stably, so every run is
//! // reproducible as data (`dpipe plan --emit-spec | dpipe plan --spec -`).
//! let reloaded = PlanSpec::from_json(&spec.to_json()).unwrap();
//! assert_eq!(reloaded, spec);
//! assert_eq!(Planner::plan_spec(&reloaded).unwrap().summary(), plan.summary());
//! ```
//!
//! `PlanSpec` is the only place an input that changes the plan is set:
//! ablation options, search bounds, fill settings, schedule family and
//! record-backed profiling are its fields, and the planner, requests,
//! sweeps and the CLI have no setters of their own.
//! `Planner::new(model, cluster).plan(batch)` is the short form of a
//! default spec.
//!
//! ## Crate map
//!
//! | Module | Crate | Role |
//! |---|---|---|
//! | [`model`] | `dpipe-model` | model structure + zoo |
//! | [`cluster`] | `dpipe-cluster` | topology + comm costs |
//! | [`profile`] | `dpipe-profile` | layer profiler |
//! | [`partition`] | `dpipe-partition` | §4 dynamic programming |
//! | [`schedule`] | `dpipe-schedule` | 1F1B/GPipe/bidirectional schedules |
//! | [`fill`] | `dpipe-fill` | §5 bubble filling |
//! | [`sim`] | `dpipe-sim` | iteration simulation |
//! | [`tensor`] | `dpipe-engine` | CPU tensor substrate |
//! | [`engine`] | `dpipe-engine` | threaded back-end + equivalence |
//! | [`baselines`] | `dpipe-baselines` | DDP / ZeRO-3 / GPipe / SPP |
//! | [`core`] | `diffusionpipe-core` | the planner |
//! | [`spec`] | `dpipe-spec` | declarative PlanSpec/SweepSpec + JSON |
//! | [`serve`] | `dpipe-serve` | concurrent planning service + sweeps |
//! | [`http`] | `dpipe-http` | HTTP/1.1 frontend (`dpipe serve --listen`) |
//! | [`trace`] | `dpipe-trace` | structured tracing (Chrome trace export) |

pub use diffusionpipe_core as core;
pub use dpipe_baselines as baselines;
pub use dpipe_cluster as cluster;
pub use dpipe_engine as engine;
pub use dpipe_engine::tensor;
pub use dpipe_fill as fill;
pub use dpipe_http as http;
pub use dpipe_model as model;
pub use dpipe_partition as partition;
pub use dpipe_profile as profile;
pub use dpipe_schedule as schedule;
pub use dpipe_serve as serve;
pub use dpipe_sim as sim;
pub use dpipe_spec as spec;
pub use dpipe_trace as trace;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::cluster::{ClusterSpec, DataParallelLayout, DeviceClass, DeviceId};
    pub use crate::core::{BackbonePartition, Plan, PlanError, Planner, PlannerOptions};
    pub use crate::fill::{FillConfig, Filler};
    pub use crate::http::{HttpClient, HttpServer, ServerConfig};
    pub use crate::model::{zoo, ModelSpec};
    pub use crate::partition::{CostModel, PartitionConfig, Partitioner, SearchSpace};
    pub use crate::profile::{DeviceModel, ProfileDb, Profiler};
    pub use crate::schedule::{ScheduleBuilder, ScheduleKind};
    pub use crate::serve::{PlanRequest, PlanService, ServiceConfig, SweepReport};
    pub use crate::sim::CombinedIteration;
    pub use crate::spec::{
        json, ClusterAxis, ModelRef, PlanSpec, SpecError, SweepSpec, SCHEMA_VERSION,
    };
    pub use crate::trace::{Trace, Tracer};
}
