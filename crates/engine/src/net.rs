//! Small sequential networks and losses.

use crate::layers::{Layer, Linear, Silu};
use crate::matrix::Matrix;

/// A sequential MLP of alternating `Linear`/`SiLU` blocks, usable both as a
/// full model and as a pipeline stage (a contiguous slice of blocks).
pub struct Mlp {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Mlp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mlp({} layers)", self.layers.len())
    }
}

impl Mlp {
    /// Builds `blocks` Linear+SiLU blocks of uniform width `dim`
    /// (deterministic per-block seeds derived from `seed`).
    pub fn uniform(blocks: usize, dim: usize, seed: u64) -> Self {
        let mut layers: Vec<Box<dyn Layer>> = Vec::with_capacity(blocks * 2);
        for b in 0..blocks {
            layers.push(Box::new(Linear::new(dim, dim, seed.wrapping_add(b as u64))));
            layers.push(Box::new(Silu::new()));
        }
        Mlp { layers }
    }

    /// Splits into `n` contiguous stages with the given per-stage layer
    /// counts (in *blocks* of the original construction — each entry counts
    /// raw layers here).
    ///
    /// # Panics
    ///
    /// Panics if the counts do not sum to the layer count.
    pub fn split(self, counts: &[usize]) -> Vec<Mlp> {
        assert_eq!(
            counts.iter().sum::<usize>(),
            self.layers.len(),
            "split counts must cover all layers"
        );
        let mut layers = self.layers;
        let mut out = Vec::with_capacity(counts.len());
        for &c in counts {
            let rest = layers.split_off(c);
            out.push(Mlp { layers });
            layers = rest;
        }
        out
    }

    /// Number of raw layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Forward with caching.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for l in &mut self.layers {
            h = l.forward(&h);
        }
        h
    }

    /// Forward without caching.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut h = x.clone();
        for l in &self.layers {
            h = l.forward_inference(&h);
        }
        h
    }

    /// Backward; returns input gradient.
    pub fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let mut g = grad_out.clone();
        for l in self.layers.iter_mut().rev() {
            g = l.backward(&g);
        }
        g
    }

    /// Forward returning the per-layer input cache, so several
    /// micro-batches can be in flight simultaneously (1F1B pipelining).
    pub fn forward_cached(&self, x: &Matrix) -> (Matrix, Vec<Matrix>) {
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut h = x.clone();
        for l in &self.layers {
            inputs.push(h.clone());
            h = l.forward_inference(&h);
        }
        (h, inputs)
    }

    /// Backward from an explicit cache produced by [`Mlp::forward_cached`],
    /// accumulating parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` does not match the layer count.
    pub fn backward_cached(&mut self, inputs: &[Matrix], grad_out: &Matrix) -> Matrix {
        assert_eq!(inputs.len(), self.layers.len(), "cache/layer mismatch");
        let mut g = grad_out.clone();
        for (l, x) in self.layers.iter_mut().rev().zip(inputs.iter().rev()) {
            g = l.backward_from(x, &g);
        }
        g
    }

    /// Concatenated parameter vector.
    pub fn params(&self) -> Vec<f32> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Concatenated gradient vector.
    pub fn grads(&self) -> Vec<f32> {
        self.layers.iter().flat_map(|l| l.grads()).collect()
    }

    /// Overwrites gradients from a concatenated vector.
    ///
    /// # Panics
    ///
    /// Panics on size mismatch.
    pub fn set_grads(&mut self, grads: &[f32]) {
        let mut off = 0;
        for l in &mut self.layers {
            let n = l.grads().len();
            l.set_grads(&grads[off..off + n]);
            off += n;
        }
        assert_eq!(off, grads.len(), "gradient vector size mismatch");
    }

    /// Overwrites parameters from a concatenated vector.
    ///
    /// # Panics
    ///
    /// Panics on size mismatch.
    pub fn set_params(&mut self, params: &[f32]) {
        let mut off = 0;
        for l in &mut self.layers {
            let n = l.params().len();
            l.set_params(&params[off..off + n]);
            off += n;
        }
        assert_eq!(off, params.len(), "parameter vector size mismatch");
    }

    /// Zeroes all gradients.
    pub fn zero_grads(&mut self) {
        for l in &mut self.layers {
            l.zero_grads();
        }
    }

    /// SGD step on every layer.
    pub fn apply_sgd(&mut self, lr: f32) {
        for l in &mut self.layers {
            l.apply_sgd(lr);
        }
    }
}

/// Mean-squared-error loss (mean over all elements).
pub fn mse_loss(pred: &Matrix, target: &Matrix) -> f32 {
    let n = (pred.rows() * pred.cols()) as f32;
    pred.data()
        .iter()
        .zip(target.data())
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f32>()
        / n
}

/// Gradient of [`mse_loss`] w.r.t. `pred`, scaled for a *global* batch of
/// `pred.rows()` rows (so micro-batch gradients sum correctly when the
/// loss normalisation uses the global element count: pass the global count
/// via `mse_grad_scaled` when splitting).
pub fn mse_grad(pred: &Matrix, target: &Matrix) -> Matrix {
    let n = (pred.rows() * pred.cols()) as f32;
    (pred - target).scale(2.0 / n)
}

/// [`mse_grad`] with an explicit global element count, for micro-batched
/// training where each micro-batch must be normalised by the full batch.
pub fn mse_grad_scaled(pred: &Matrix, target: &Matrix, global_elems: usize) -> Matrix {
    (pred - target).scale(2.0 / global_elems as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_reduces_loss() {
        let mut net = Mlp::uniform(2, 8, 42);
        let x = Matrix::randn(16, 8, 1);
        let y = Matrix::randn(16, 8, 2).scale(0.1);
        let mut losses = Vec::new();
        for _ in 0..50 {
            net.zero_grads();
            let pred = net.forward(&x);
            losses.push(mse_loss(&pred, &y));
            let g = mse_grad(&pred, &y);
            net.backward(&g);
            net.apply_sgd(0.05);
        }
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.7),
            "loss did not drop: {losses:?}"
        );
    }

    #[test]
    fn split_preserves_function() {
        let net = Mlp::uniform(3, 4, 7);
        let x = Matrix::randn(5, 4, 9);
        let full = net.forward_inference(&x);
        let stages = net.split(&[2, 2, 2]);
        let mut h = x;
        for s in &stages {
            h = s.forward_inference(&h);
        }
        assert!(h.max_abs_diff(&full) < 1e-6);
    }

    #[test]
    fn split_backward_chains_like_full() {
        let mut full = Mlp::uniform(2, 4, 3);
        let x = Matrix::randn(3, 4, 5);
        let t = Matrix::zeros(3, 4);
        let pred = full.forward(&x);
        let g = mse_grad(&pred, &t);
        full.backward(&g);
        let full_grads = full.grads();

        let net = Mlp::uniform(2, 4, 3);
        let mut stages = net.split(&[2, 2]);
        let h1 = {
            let (s0, rest) = stages.split_at_mut(1);
            let h1 = s0[0].forward(&x);
            let h2 = rest[0].forward(&h1);
            let g2 = mse_grad(&h2, &t);
            let g1 = rest[0].backward(&g2);
            s0[0].backward(&g1);
            h1
        };
        let _ = h1;
        let mut staged_grads = stages[0].grads();
        staged_grads.extend(stages[1].grads());
        let diff: f32 = staged_grads
            .iter()
            .zip(&full_grads)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(diff < 1e-6, "diff {diff}");
    }

    #[test]
    fn mse_grad_scaled_sums_across_micro_batches() {
        let pred = Matrix::randn(4, 2, 1);
        let target = Matrix::zeros(4, 2);
        let full = mse_grad(&pred, &target);
        let parts_p = pred.split_rows(2);
        let parts_t = target.split_rows(2);
        let micro: Vec<Matrix> = parts_p
            .iter()
            .zip(&parts_t)
            .map(|(p, t)| mse_grad_scaled(p, t, 8))
            .collect();
        let stacked = Matrix::vstack(&micro);
        assert!(stacked.max_abs_diff(&full) < 1e-7);
    }

    #[test]
    fn params_and_grads_align() {
        let mut net = Mlp::uniform(2, 3, 1);
        let n = net.params().len();
        assert_eq!(net.grads().len(), n);
        let fake: Vec<f32> = (0..n).map(|i| i as f32 * 0.5).collect();
        net.set_grads(&fake);
        assert_eq!(net.grads(), fake);
    }
}
