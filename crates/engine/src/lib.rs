//! Back-end execution engine (paper Fig. 7, right half).
//!
//! Generates per-device pipeline instruction streams from a stage layout and
//! executes them on *threads as simulated devices* with channels as the
//! interconnect, running real [`tensor`] math. This provides the
//! strongest form of validation available without GPUs: the claim of §3.2 —
//! that DiffusionPipe's cross-iteration pipelining (frozen part of iteration
//! `t+1` computed during iteration `t`, 1F1B micro-batching, per-stage
//! gradient all-reduce) is **mathematically equivalent** to synchronous
//! data-parallel training — is checked numerically against a single-device
//! reference trainer.
//!
//! The engine supports pipeline stages (one device per stage) combined with
//! data-parallel groups (each group a full pipeline replica); intra-group
//! stage replication is a planning-level concept that folds into the same
//! all-reduce and is not separately materialised here.
//!
//! # Example
//!
//! ```
//! use dpipe_engine::{EngineConfig, PipelineEngine, SyntheticTask};
//!
//! let task = SyntheticTask::new(2, 8, 16, 42); // frozen blocks, dim, batch, seed
//! let cfg = EngineConfig {
//!     stage_layers: vec![2, 2],
//!     micro_batches: 4,
//!     dp_groups: 1,
//!     lr: 0.05,
//!     optimizer: None,
//! };
//! let stats = PipelineEngine::train(&task, &cfg, 3).unwrap();
//! assert_eq!(stats.losses.len(), 3);
//! ```

mod data;
mod exec;
mod layers;
mod matrix;
mod net;
mod optim;
mod program;
mod reference;
mod rng;
pub mod tensor;

pub use data::SyntheticTask;
pub use exec::{EngineError, PipelineEngine, TrainStats};
pub use program::{generate_program, EngineConfig, EngineInstr};
pub use reference::ReferenceTrainer;
