//! Synthetic training task: frozen encoder + trainable backbone + data.

use crate::tensor::{Matrix, Mlp};

/// A self-contained training task mirroring a diffusion model's structure:
/// a frozen encoder whose outputs feed a trainable backbone, plus a
/// deterministic synthetic dataset.
pub struct SyntheticTask {
    /// Frozen encoder (never updated).
    pub frozen_blocks: usize,
    /// Hidden width.
    pub dim: usize,
    /// Global batch size per iteration.
    pub batch: usize,
    /// Seed for weights and data.
    pub seed: u64,
    /// Train with self-conditioning: an extra detached forward pass whose
    /// output conditions the main pass (paper §2.1 / Fig. 10).
    pub self_cond: bool,
}

impl SyntheticTask {
    /// Creates a task description (self-conditioning off).
    pub fn new(frozen_blocks: usize, dim: usize, batch: usize, seed: u64) -> Self {
        SyntheticTask {
            frozen_blocks,
            dim,
            batch,
            seed,
            self_cond: false,
        }
    }

    /// Enables self-conditioning.
    pub fn with_self_conditioning(mut self) -> Self {
        self.self_cond = true;
        self
    }

    /// The conditioning mix: the main pass input is
    /// `encoded + SC_MIX * first_pass_output` (first pass detached).
    pub const SC_MIX: f32 = 0.5;

    /// The frozen encoder (same weights every call).
    pub fn build_frozen(&self) -> Mlp {
        Mlp::uniform(
            self.frozen_blocks,
            self.dim,
            self.seed.wrapping_mul(31).wrapping_add(5),
        )
    }

    /// A fresh backbone with `blocks` Linear+SiLU blocks (same weights every
    /// call — both the engine and the reference start identically).
    pub fn build_backbone(&self, blocks: usize) -> Mlp {
        Mlp::uniform(blocks, self.dim, self.seed)
    }

    /// Raw input and regression target for iteration `iter`. The target is
    /// a fixed function of the input (`y = 0.1·x`) so the task is learnable
    /// and losses trend downward across iterations.
    pub fn batch_for(&self, iter: usize) -> (Matrix, Matrix) {
        let x = Matrix::randn(self.batch, self.dim, self.seed ^ ((iter as u64) << 1));
        let y = x.scale(0.1);
        (x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_are_deterministic() {
        let t = SyntheticTask::new(1, 4, 8, 7);
        assert_eq!(t.build_backbone(2).params(), t.build_backbone(2).params());
        assert_eq!(t.build_frozen().params(), t.build_frozen().params());
        let (x1, _) = t.batch_for(3);
        let (x2, _) = t.batch_for(3);
        assert_eq!(x1, x2);
    }

    #[test]
    fn different_iterations_differ() {
        let t = SyntheticTask::new(1, 4, 8, 7);
        let (x1, y1) = t.batch_for(0);
        let (x2, y2) = t.batch_for(1);
        assert_ne!(x1, x2);
        assert_ne!(y1, y2);
        assert!(y1.max_abs_diff(&x1.scale(0.1)) < 1e-7);
    }

    #[test]
    fn frozen_and_backbone_have_distinct_weights() {
        let t = SyntheticTask::new(2, 4, 8, 7);
        assert_ne!(t.build_frozen().params(), t.build_backbone(2).params());
    }
}
