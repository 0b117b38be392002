//! Layer profiling and execution-time cost models.
//!
//! Step 1 of DiffusionPipe's workflow (Fig. 7) profiles every model layer at
//! a set of batch sizes on the real cluster. This crate substitutes the CUDA
//! profiler with a deterministic analytical device model (an A100-like
//! device with ~1e14 FLOP/s effective throughput), optionally perturbed with
//! reproducible noise to emulate measurement error — the cause of residual
//! unfilled bubble time the paper reports in §6.2.
//!
//! All downstream algorithms (partitioning, scheduling, bubble filling)
//! consume a [`ProfileDb`], never the model directly, mirroring the paper's
//! profile-record-driven design.
//!
//! # Example
//!
//! ```
//! use dpipe_model::zoo;
//! use dpipe_profile::{DeviceModel, Profiler};
//!
//! let model = zoo::stable_diffusion_v2_1();
//! let (db, report) = Profiler::new(DeviceModel::a100_like())
//!     .profile(&model, 64);
//! assert!(report.wall_time_seconds > 0.0);
//! let (cid, unet) = model.backbones().next().unwrap();
//! let t = db.fwd_time(cid, dpipe_model::LayerId(0), 64.0);
//! assert!(t > 0.0);
//! # let _ = unet;
//! ```

mod db;
mod device;
mod error;
mod prefix;
mod profiler;
mod records;

pub use db::{NoiseConfig, ProfileDb};
pub use device::DeviceModel;
pub use error::ProfileError;
pub use prefix::{BatchCosts, CostPrefix};
pub use profiler::{ProfileRecord, Profiler, ProfilingReport};
