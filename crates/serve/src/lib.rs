//! Concurrent planning service for DiffusionPipe.
//!
//! The planner (`diffusionpipe_core::Planner::plan`) is a one-shot,
//! single-threaded call, but a training-platform control plane asks the same
//! question thousands of times per hour across model zoos, cluster shapes
//! and batch sizes. This crate makes the five-stage planning workflow
//! (profile → partition → schedule → fill → select, paper Fig. 7) a
//! *serveable* subsystem:
//!
//! * [`PlanRequest`] — one planning question: a thin wrapper over the
//!   declarative [`dpipe_spec::PlanSpec`], the only place its inputs are
//!   set, with a stable content
//!   [`fingerprint`] derived from the canonical spec (built on
//!   [`ModelSpec::fingerprint`] / [`ClusterSpec::fingerprint`]);
//! * [`ShardedCache`] — a sharded plan cache with *single-flight*
//!   deduplication: a burst of identical requests plans exactly once, and
//!   every hit returns the very same `Arc<Plan>` as the cold run;
//! * [`PlanService`] — a worker pool consuming requests from one MPMC
//!   queue ([`dpipe_sync::Bounded`]), with in-order batch submission;
//! * [`PlanService::sweep`] / [`SweepReport`] — parallel configuration
//!   sweeps over a declarative [`dpipe_spec::SweepSpec`] (template spec +
//!   model/cluster/batch axes, mixed `a100:4,h100:4` fleets included),
//!   ranked deterministically so an N-worker sweep reproduces
//!   [`SweepReport::sequential`] exactly;
//! * [`json`] — re-exports of the JSON emitter/parser (now in
//!   [`dpipe_spec::json`]) and the shared plan summary
//!   (`diffusionpipe_core::plan_json`) used by the machine-readable CLI
//!   output (`dpipe plan --json`, `dpipe sweep --json`).
//!
//! [`fingerprint`]: PlanRequest::fingerprint
//! [`ModelSpec::fingerprint`]: dpipe_model::ModelSpec::fingerprint
//! [`ClusterSpec::fingerprint`]: dpipe_cluster::ClusterSpec::fingerprint
//!
//! # Example
//!
//! ```
//! use dpipe_serve::{PlanRequest, PlanService, ServiceConfig};
//! use dpipe_cluster::ClusterSpec;
//! use dpipe_model::zoo;
//!
//! let service = PlanService::new(ServiceConfig::with_workers(2));
//! let request = PlanRequest::new(zoo::stable_diffusion_v2_1(), ClusterSpec::single_node(8), 64);
//!
//! let cold = service.plan_one(request.clone());
//! let warm = service.plan_one(request);
//! assert!(!cold.cache_hit && warm.cache_hit);
//!
//! // A cache hit is byte-identical to the cold plan.
//! let (cold, warm) = (cold.outcome.unwrap(), warm.outcome.unwrap());
//! assert_eq!(cold.summary(), warm.summary());
//! assert!(cold.throughput > 0.0);
//! ```

mod cache;
pub mod json;
mod request;
mod service;
mod sweep;

pub use cache::{CacheResolution, CacheStats, ShardedCache};
pub use request::PlanRequest;
pub use service::{
    PlanOutcome, PlanResponse, PlanService, ServiceConfig, SimulateResponse, TraceCtx,
};
pub use sweep::{SweepPoint, SweepReport};
// The declarative layer requests and sweeps are built on.
pub use dpipe_spec::{ClusterAxis, ModelRef, PlanSpec, SpecError, SweepSpec};
