//! Discrete-event simulation of full DiffusionPipe iterations.
//!
//! Two layers of simulation:
//!
//! * [`CombinedIteration`] merges a backbone [`dpipe_schedule::PipelineSchedule`]
//!   with a [`dpipe_fill::FillPlan`] into the complete cross-iteration
//!   timeline of §3.2 — frozen work inside bubbles, the leftover frozen tail
//!   after the pipeline, and gradient synchronisation overlapped with both —
//!   yielding iteration time, throughput, and the residual bubble ratio
//!   reported in the paper's Fig. 14.
//! * [`InstructionSim`] is an instruction-level discrete-event simulator:
//!   per-device instruction streams with rendezvous send/recv and
//!   all-reduce, used to validate that generated back-end instruction
//!   streams realise the analytic schedule (and to catch deadlocks).
//!
//! The [`fault`] module turns the instruction layer into a failure-mode
//! laboratory: a seeded, JSON-round-trippable [`FaultSpec`] (stragglers,
//! degraded/flaky links, node drops) compiles to a [`FaultPlan`] that
//! [`InstructionSim::run_faulted`] consults per instruction, producing a
//! reproducible degraded timeline ([`FaultedRun`]).
//!
//! # Example
//!
//! ```
//! use dpipe_sim::CombinedIteration;
//! use dpipe_fill::{FillConfig, Filler};
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
//! let bb = model.backbones().next().unwrap().0;
//! let part = Partitioner::new(&cost, &layout);
//! let plan = part
//!     .partition_single(bb, &PartitionConfig::new(4, 4, 64.0))
//!     .unwrap();
//! let sched = ScheduleBuilder::new(part.cost())
//!     .build_single(&plan, ScheduleKind::Fifo1F1B)
//!     .unwrap();
//! let bubbles = sched.bubbles(0.010);
//! let fill = Filler::new(cost.db(), FillConfig::default())
//!     .fill(&bubbles, sched.group_batch, 8)
//!     .unwrap();
//! let combined = CombinedIteration::new(&sched, &bubbles, &fill);
//! assert!(combined.bubble_ratio() < sched.bubble_ratio());
//! ```

mod combine;
mod des;
pub mod fault;
mod instr;

pub use combine::{CombinedIteration, IterationTiming};
pub use des::SimError;
pub use fault::{FaultPlan, FaultSpec, LinkFault, NodeDropFault, StragglerFault};
pub use instr::{FaultedRun, InstrError, Instruction, InstructionSim, InstructionTrace};
