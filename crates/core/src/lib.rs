//! DiffusionPipe front-end: the planning workflow of Fig. 7.
//!
//! [`Planner`] wires the whole system together:
//!
//! 1. **Profile** the model on the cluster ([`dpipe_profile::Profiler`],
//!    step 1);
//! 2. **Enumerate** pipeline hyper-parameters (S, M, D) (Table 3);
//! 3. **Partition** the backbone(s) with the §4 dynamic program
//!    ([`dpipe_partition::Partitioner`], step 2) — single-backbone,
//!    bidirectional for cascaded models, self-conditioning-aware;
//! 4. **Schedule** FIFO-1F1B / bidirectional pipelines
//!    ([`dpipe_schedule::ScheduleBuilder`], step 3) and extract bubbles;
//! 5. **Fill** bubbles with the frozen part ([`dpipe_fill::Filler`], §5,
//!    step 4) under cross-iteration pipelining (§3.2);
//! 6. **Select** the configuration with the best simulated throughput
//!    (step 5) subject to device memory.
//!
//! Every input that can change the selected plan is a field of one
//! [`PlanSpec`]; [`Planner::from_spec`] is the way in. [`Planner::new`]
//! covers the common case of a model, a cluster and default settings.
//!
//! # Example
//!
//! ```
//! use diffusionpipe_core::Planner;
//! use dpipe_cluster::ClusterSpec;
//! use dpipe_model::zoo;
//!
//! let plan = Planner::new(zoo::stable_diffusion_v2_1(), ClusterSpec::single_node(8))
//!     .plan(256)
//!     .unwrap();
//! assert!(plan.throughput > 0.0);
//! assert!(plan.bubble_ratio < 0.25);
//! ```

mod error;
mod instructions;
mod json;
mod plan;
mod planner;
mod simulate;

pub use error::PlanError;
pub use instructions::{lower_plan, Lowered};
pub use json::plan_json;
pub use plan::{BackbonePartition, Plan};
pub use planner::{PlanStats, Planner, PlannerOptions};
pub use simulate::{
    degraded_spec, render_sim_timeline, simulate_plan, simulation_json, stage_layouts,
    MigrationDiff, Replan, SimReport, SimulationOutcome, SlotTimeline, StageEdit, StageLayout,
    TimelineSpan,
};
// Fault-spec types, re-exported so simulate callers stay on one dependency.
pub use dpipe_sim::{FaultSpec, LinkFault, NodeDropFault, StragglerFault};
// The declarative spec layer, re-exported so planner callers can stay on
// one dependency: `Planner::from_spec(&PlanSpec::from_json(text)?)`.
pub use dpipe_spec::{ModelRef, PlanSpec, SpecError, SweepSpec};
// Tracing handle types, re-exported so callers can attach a tracer
// (`Planner::with_tracer`) without depending on `dpipe_trace` directly.
pub use dpipe_trace::{SpanId, Trace, Tracer};
