//! Pipeline bubble filling (paper §5).
//!
//! Fills each pipeline bubble — `(start, end, idle devices)` tuples extracted
//! from the backbone schedule — with forward computation of the model's
//! frozen (non-trainable) components:
//!
//! * **Algorithm 2 (FFC)** recursively enumerates *full-batch* candidate
//!   layer sets across the ready components, bounded by the bubble time.
//! * **Algorithm 1** augments each candidate with at most one
//!   *partial-batch* layer (processing `b` of the batch's samples, with
//!   `b/d` drawn from the paper's ladder {4, 8, 12, 16, 24, 32, 48, 64, 96})
//!   and picks the candidate with the longest execution not exceeding the
//!   bubble time.
//! * A layer split by a partial batch re-enters subsequent bubbles as a
//!   full-batch layer on its *remaining* samples (paper Fig. 12).
//!
//! Components are scheduled in topological order of their dependency DAG;
//! whatever cannot be placed in bubbles runs after the pipeline (the
//! leftover tail). Filling is always planned in the cross-iteration style of
//! §3.2 — the bubbles of iteration `t` host the non-trainable work of
//! iteration `t+1`.
//!
//! # Example
//!
//! ```
//! use dpipe_fill::{FillConfig, Filler};
//! use dpipe_model::zoo;
//! use dpipe_profile::{DeviceModel, Profiler};
//! use dpipe_schedule::Bubble;
//!
//! let model = zoo::stable_diffusion_v2_1();
//! let (db, _) = Profiler::new(DeviceModel::a100_like()).profile(&model, 64);
//! let bubbles = vec![Bubble { start: 0.0, end: 0.5, slots: vec![1], devices: 4 }];
//! let plan = Filler::new(&db, FillConfig::default())
//!     .fill(&bubbles, 64.0, 8)
//!     .unwrap();
//! assert!(plan.filled_time() > 0.0);
//! ```

mod config;
mod ffc;
mod filler;
mod plan;
mod state;

pub use config::FillConfig;
pub use filler::{FillError, Filler};
pub use plan::{BubbleFill, FillItem, FillPlan};
