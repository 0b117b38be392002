//! Pipeline schedules and bubble extraction.
//!
//! Builds the per-device operation orders for FIFO-1F1B (paper Fig. 2),
//! GPipe, and bidirectional (Chimera-style, Fig. 3) pipelines — including
//! the self-conditioning double-forward of Fig. 10 — and simulates them with
//! a deterministic list scheduler to obtain exact start/end times, iteration
//! time, and the pipeline bubbles as `(start, end, idle devices)` tuples
//! (paper §5).
//!
//! A [`ScheduleBuilder`] times each stage through the
//! [`dpipe_partition::StageCost`] the plan was partitioned with, so the DP's
//! bound and the simulated schedule read one cost model: the same per-class
//! profile databases, class map and communication model, built once per
//! plan.
//!
//! Pricing and scheduling are two steps. [`ScheduleBuilder::time_single`]
//! and [`ScheduleBuilder::time_bidirectional`] price a plan's stages once,
//! into [`TimedPipelines`]; its [`TimedPipelines::makespan_floor`] bounds
//! the schedule's makespan from those prices alone, and
//! [`TimedPipelines::schedule`] builds the schedule from the same prices.
//! The planner skips every config whose floor already loses to its best
//! plan, so only the rest pay for the kernels below.
//!
//! # Cost
//!
//! Each kernel is linear in the `n` ops of a schedule up to a factor of
//! its `S` slots, and allocates a fixed number of buffers rather than one
//! per op:
//!
//! - Stage times ([`dpipe_partition::StageCost::stage_times`]): one pass
//!   over the stages, reading the config's shared cost tables and its
//!   levels' sync shapes and classes, resolved once per config.
//! - Makespan floor: one pass over the stages (two pipelines add a pass
//!   per slot pairing), with no allocation.
//! - Op graph: O(n). Each [`Op`] holds its at most two dependencies inline
//!   ([`Deps`]), and its priority is numbered as the op is placed.
//! - List scheduler: O(n·S + e) for `e` dependencies under the strict order
//!   of FIFO-1F1B and GPipe; the work-conserving merge of a bidirectional
//!   schedule adds the scan of each slot's ready ops, kept in priority
//!   order and fed by a reverse-dependency count.
//! - Gradient syncs and slot replication: one pass over the scheduled ops.
//! - [`extract_bubbles`]: O(n log n + n·S) with one cursor per slot. It
//!   requires each slot's busy intervals sorted by start, as
//!   [`PipelineSchedule::busy_intervals`] returns them.
//!
//! # Example
//!
//! ```
//! use dpipe_cluster::{ClusterSpec, DataParallelLayout};
//! use dpipe_model::zoo;
//! use dpipe_partition::{CostModel, PartitionConfig, Partitioner};
//! use dpipe_profile::{DeviceModel, Profiler};
//! use dpipe_schedule::{ScheduleBuilder, ScheduleKind};
//!
//! let model = zoo::stable_diffusion_v2_1();
//! let cluster = ClusterSpec::single_node(8);
//! let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 64);
//! let cost = CostModel::new(vec![db], &cluster);
//! let layout = DataParallelLayout::new(&cluster, 8).unwrap();
//! let part = Partitioner::new(&cost, &layout);
//! let bb = model.backbones().next().unwrap().0;
//! let plan = part
//!     .partition_single(bb, &PartitionConfig::new(4, 4, 64.0))
//!     .unwrap();
//! // The schedule times its stages through the partitioner's stage costs.
//! let sched = ScheduleBuilder::new(part.cost())
//!     .build_single(&plan, ScheduleKind::Fifo1F1B)
//!     .unwrap();
//! assert!(sched.iteration_time() > 0.0);
//! assert!(!sched.bubbles(0.0).is_empty());
//! ```

mod bubble;
mod builder;
mod op;
mod render;
mod schedule;
mod simulate;

pub use bubble::{extract_bubbles, Bubble};
pub use builder::{ScheduleBuilder, ScheduleError, ScheduleKind, TimedPipelines};
pub use op::{Deps, Op, OpId, OpKind, PipelineDirection};
pub use render::render_timeline;
pub use schedule::{PipelineSchedule, ScheduledOp};
