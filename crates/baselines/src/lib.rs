//! Baseline training systems the paper compares against (§6):
//!
//! * **DeepSpeed DDP** — vanilla distributed data parallelism: frozen part
//!   forward, backbone forward+backward, full-gradient all-reduce.
//! * **DeepSpeed ZeRO-3** — stage-3 sharding: optimizer/gradient/parameter
//!   states partitioned across the world, at the cost of parameter
//!   all-gathers in both passes.
//! * **GPipe** — pipeline parallelism with an equal-layer split (the paper
//!   evaluates it at 2 stages × 4 micro-batches).
//! * **SPP** — DP-optimised pipeline partitioning (reusing DiffusionPipe's
//!   partitioner and hyper-parameter search) *without* bubble filling.
//! * **CDM modes** — `DeepSpeed(-ZeRO-3)-S` (backbones trained sequentially
//!   on all devices) and `-P` (backbones trained concurrently on disjoint
//!   device halves).
//!
//! Every baseline returns a [`BaselineReport`] with iteration time,
//! throughput, bubble ratio, and an estimated peak device memory with an
//! out-of-memory flag (the "Out of memory" markers of Fig. 13).

mod cdm;
mod dataparallel;
mod pipeline;
mod report;

pub use cdm::{cdm_data_parallel, CdmMode};
pub use dataparallel::{ddp, zero3};
pub use pipeline::{gpipe, spp};
pub use report::BaselineReport;
