//! Structural descriptions of diffusion models for pipeline planning.
//!
//! DiffusionPipe's algorithms never look at weights: they consume the *shape*
//! of a model — which components exist, which are trainable (backbones) and
//! which are frozen (encoders), how components depend on each other, and the
//! per-layer cost metadata (FLOPs, parameter bytes, activation bytes) that the
//! profiler turns into execution times.
//!
//! The [`zoo`] module provides descriptions of the four models evaluated in
//! the paper (Stable Diffusion v2.1, ControlNet v1.0, CDM-LSUN and
//! CDM-ImageNet) plus small synthetic models used by tests and the execution
//! engine.
//!
//! # Example
//!
//! ```
//! use dpipe_model::zoo;
//!
//! let model = zoo::stable_diffusion_v2_1();
//! assert_eq!(model.backbones().count(), 1);
//! assert!(model.frozen_components().count() >= 2);
//! model.validate().unwrap();
//! ```

mod component;
mod error;
mod ids;
mod layer;
mod memory;
mod spec;
pub mod zoo;

pub use component::{Component, ComponentBuilder, Role};
pub use dpipe_stablehash::StableHasher;
pub use error::ModelError;
pub use ids::{ComponentId, LayerId};
pub use layer::{LayerKind, LayerSpec};
pub use memory::MemoryModel;
pub use spec::{ModelSpec, ModelSpecBuilder, SelfConditioning};
