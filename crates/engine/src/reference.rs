//! Single-device reference trainer: the ground truth for equivalence tests.

use crate::data::SyntheticTask;
use crate::tensor::{mse_grad_scaled, mse_loss, Matrix, Mlp, Optimizer, OptimizerState};

/// Trains the task's backbone on one device with plain micro-batched
/// gradient accumulation (mathematically: synchronous full-batch SGD),
/// computing the frozen encoder inline every iteration.
pub struct ReferenceTrainer {
    frozen: Mlp,
    backbone: Mlp,
    optimizer: OptimizerState,
    micro_batches: usize,
}

impl ReferenceTrainer {
    /// Builds the reference from the same task/backbone shape as the
    /// pipeline engine, training with SGD.
    pub fn new(
        task: &SyntheticTask,
        backbone_blocks: usize,
        micro_batches: usize,
        lr: f32,
    ) -> Self {
        Self::with_optimizer(task, backbone_blocks, micro_batches, Optimizer::Sgd { lr })
    }

    /// Builds the reference with an explicit optimiser.
    pub(crate) fn with_optimizer(
        task: &SyntheticTask,
        backbone_blocks: usize,
        micro_batches: usize,
        optimizer: Optimizer,
    ) -> Self {
        let backbone = task.build_backbone(backbone_blocks);
        let optimizer = OptimizerState::new(optimizer, backbone.params().len());
        ReferenceTrainer {
            frozen: task.build_frozen(),
            backbone,
            optimizer,
            micro_batches,
        }
    }

    /// Runs `iterations` training steps, returning the per-iteration losses.
    /// With self-conditioning, a detached full forward produces the
    /// conditioning signal mixed into the main pass input (Fig. 10).
    pub fn train(&mut self, task: &SyntheticTask, iterations: usize) -> Vec<f32> {
        let mut losses = Vec::with_capacity(iterations);
        for iter in 0..iterations {
            let (x, y) = task.batch_for(iter);
            let mut encoded = self.frozen.forward_inference(&x);
            if task.self_cond {
                let p1 = self.backbone.forward_inference(&encoded);
                encoded = &encoded + &p1.scale(SyntheticTask::SC_MIX);
            }
            let xs = encoded.split_rows(self.micro_batches);
            let ys = y.split_rows(self.micro_batches);
            let global_elems = y.rows() * y.cols();
            self.backbone.zero_grads();
            let mut preds = Vec::with_capacity(self.micro_batches);
            for (xm, ym) in xs.iter().zip(&ys) {
                let (pred, cache) = self.backbone.forward_cached(xm);
                let g = mse_grad_scaled(&pred, ym, global_elems);
                self.backbone.backward_cached(&cache, &g);
                preds.push(pred);
            }
            let pred_full = Matrix::vstack(&preds);
            losses.push(mse_loss(&pred_full, &y));
            self.optimizer.step(&mut self.backbone);
        }
        losses
    }

    /// Final backbone parameters.
    pub fn params(&self) -> Vec<f32> {
        self.backbone.params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_learns() {
        let task = SyntheticTask::new(1, 8, 16, 3);
        let mut r = ReferenceTrainer::new(&task, 2, 4, 1.0);
        let losses = r.train(&task, 200);
        let head: f32 = losses[..10].iter().sum::<f32>() / 10.0;
        let tail: f32 = losses[losses.len() - 10..].iter().sum::<f32>() / 10.0;
        assert!(tail < 0.5 * head, "head {head} tail {tail}");
    }

    #[test]
    fn micro_batch_count_does_not_change_math() {
        let task = SyntheticTask::new(1, 8, 16, 3);
        let mut a = ReferenceTrainer::new(&task, 2, 1, 0.05);
        let mut b = ReferenceTrainer::new(&task, 2, 4, 0.05);
        let la = a.train(&task, 5);
        let lb = b.train(&task, 5);
        for (x, y) in la.iter().zip(&lb) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
        let diff: f32 = a
            .params()
            .iter()
            .zip(b.params())
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f32::max);
        assert!(diff < 1e-4, "params diverged by {diff}");
    }
}
