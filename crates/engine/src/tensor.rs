//! Minimal deterministic CPU tensor and neural-network substrate.
//!
//! The execution engine runs *real* numerical training on simulated
//! devices to validate the paper's §3.2 claim that cross-iteration
//! pipelining is mathematically equivalent to data-parallel synchronous
//! training. This module provides what that needs and nothing more: a 2-D
//! `f32` matrix type, linear/activation layers with explicit
//! forward/backward, an MSE loss, and SGD — all bit-deterministic given a
//! seed.
//!
//! # Example
//!
//! ```
//! use dpipe_engine::tensor::{Linear, Layer, Matrix, mse_loss, mse_grad};
//!
//! let mut layer = Linear::new(4, 2, 42);
//! let x = Matrix::randn(3, 4, 7);
//! let y = layer.forward(&x);
//! let target = Matrix::zeros(3, 2);
//! let loss = mse_loss(&y, &target);
//! let gout = mse_grad(&y, &target);
//! let _gin = layer.backward(&gout);
//! layer.apply_sgd(0.01);
//! assert!(loss >= 0.0);
//! ```

pub use crate::layers::{Layer, Linear, Silu};
pub use crate::matrix::Matrix;
pub use crate::net::{mse_grad, mse_grad_scaled, mse_loss, Mlp};
pub use crate::optim::Optimizer;
pub(crate) use crate::optim::OptimizerState;
