//! Layers with explicit forward/backward — the natural shape for pipeline
//! stage execution.

use crate::matrix::Matrix;

/// A trainable (or stateless) layer with explicit reverse-mode methods.
///
/// `forward` caches whatever `backward` needs; `backward` consumes the
/// gradient w.r.t. the output and returns the gradient w.r.t. the input,
/// accumulating parameter gradients internally.
pub trait Layer: Send {
    /// Forward pass, caching activations for backward.
    fn forward(&mut self, x: &Matrix) -> Matrix;
    /// Backward pass; returns the input gradient.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, grad_out: &Matrix) -> Matrix;
    /// Backward pass from an explicitly supplied cached input — enables
    /// multiple in-flight micro-batches (1F1B keeps several activations
    /// alive per stage, so the single internal cache of `forward` is not
    /// enough for pipeline execution).
    fn backward_from(&mut self, input: &Matrix, grad_out: &Matrix) -> Matrix;
    /// Forward pass without caching (inference / frozen execution).
    fn forward_inference(&self, x: &Matrix) -> Matrix;
    /// Flattened view of parameters (empty if stateless).
    fn params(&self) -> Vec<f32>;
    /// Flattened accumulated gradients (same layout as `params`).
    fn grads(&self) -> Vec<f32>;
    /// Overwrites gradients (used after all-reduce averaging).
    fn set_grads(&mut self, grads: &[f32]);
    /// Overwrites parameters (used by external optimisers such as Adam).
    fn set_params(&mut self, params: &[f32]);
    /// Zeroes accumulated gradients.
    fn zero_grads(&mut self);
    /// SGD step: `p -= lr * g`.
    fn apply_sgd(&mut self, lr: f32);
}

/// Fully connected layer `y = x·W + b` with gradient accumulation.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Matrix,    // in x out
    b: Vec<f32>,  // out
    gw: Matrix,   // grad W
    gb: Vec<f32>, // grad b
    cache_x: Option<Matrix>,
}

impl Linear {
    /// Creates a layer with seeded Xavier-ish initialisation.
    pub fn new(inp: usize, out: usize, seed: u64) -> Self {
        let scale = (2.0 / (inp + out) as f32).sqrt();
        Linear {
            w: Matrix::randn(inp, out, seed).scale(scale),
            b: vec![0.0; out],
            gw: Matrix::zeros(inp, out),
            gb: vec![0.0; out],
            cache_x: None,
        }
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        self.cache_x = Some(x.clone());
        x.matmul(&self.w).add_row(&self.b)
    }

    fn forward_inference(&self, x: &Matrix) -> Matrix {
        x.matmul(&self.w).add_row(&self.b)
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        // dpipe-analyze: allow(no-panic) -- Layer contract: backward without a prior forward is a caller bug worth a loud stop
        let x = self.cache_x.take().expect("backward called before forward");
        self.backward_from(&x, grad_out)
    }

    fn backward_from(&mut self, input: &Matrix, grad_out: &Matrix) -> Matrix {
        // Accumulate parameter grads.
        let gw = input.transpose().matmul(grad_out);
        self.gw = &self.gw + &gw;
        for (acc, g) in self.gb.iter_mut().zip(grad_out.col_sums()) {
            *acc += g;
        }
        grad_out.matmul(&self.w.transpose())
    }

    fn params(&self) -> Vec<f32> {
        let mut p = self.w.data().to_vec();
        p.extend_from_slice(&self.b);
        p
    }

    fn grads(&self) -> Vec<f32> {
        let mut g = self.gw.data().to_vec();
        g.extend_from_slice(&self.gb);
        g
    }

    fn set_grads(&mut self, grads: &[f32]) {
        let nw = self.gw.data().len();
        assert_eq!(grads.len(), nw + self.gb.len(), "gradient size mismatch");
        self.gw.data_mut().copy_from_slice(&grads[..nw]);
        self.gb.copy_from_slice(&grads[nw..]);
    }

    fn set_params(&mut self, params: &[f32]) {
        let nw = self.w.data().len();
        assert_eq!(params.len(), nw + self.b.len(), "parameter size mismatch");
        self.w.data_mut().copy_from_slice(&params[..nw]);
        self.b.copy_from_slice(&params[nw..]);
    }

    fn zero_grads(&mut self) {
        self.gw = Matrix::zeros(self.gw.rows(), self.gw.cols());
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }

    fn apply_sgd(&mut self, lr: f32) {
        let gw = self.gw.clone();
        for (p, g) in self.w.data_mut().iter_mut().zip(gw.data()) {
            *p -= lr * g;
        }
        for (p, g) in self.b.iter_mut().zip(&self.gb) {
            *p -= lr * g;
        }
    }
}

/// SiLU activation `x * sigmoid(x)` (stateless).
#[derive(Debug, Clone, Default)]
pub struct Silu {
    cache_x: Option<Matrix>,
}

impl Silu {
    /// Creates the activation.
    pub fn new() -> Self {
        Silu::default()
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Layer for Silu {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        self.cache_x = Some(x.clone());
        x.map(|v| v * sigmoid(v))
    }

    fn forward_inference(&self, x: &Matrix) -> Matrix {
        x.map(|v| v * sigmoid(v))
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        // dpipe-analyze: allow(no-panic) -- Layer contract: backward without a prior forward is a caller bug worth a loud stop
        let x = self.cache_x.take().expect("backward called before forward");
        self.backward_from(&x, grad_out)
    }

    fn backward_from(&mut self, input: &Matrix, grad_out: &Matrix) -> Matrix {
        let deriv = input.map(|v| {
            let s = sigmoid(v);
            s + v * s * (1.0 - s)
        });
        Matrix::from_vec(
            grad_out.rows(),
            grad_out.cols(),
            grad_out
                .data()
                .iter()
                .zip(deriv.data())
                .map(|(g, d)| g * d)
                .collect(),
        )
    }

    fn params(&self) -> Vec<f32> {
        Vec::new()
    }
    fn grads(&self) -> Vec<f32> {
        Vec::new()
    }
    fn set_grads(&mut self, grads: &[f32]) {
        assert!(grads.is_empty());
    }
    fn set_params(&mut self, params: &[f32]) {
        assert!(params.is_empty());
    }
    fn zero_grads(&mut self) {}
    fn apply_sgd(&mut self, _lr: f32) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerical gradient check of Linear via finite differences on a
    /// scalar loss `sum(y)`.
    #[test]
    fn linear_gradient_check() {
        let mut layer = Linear::new(3, 2, 11);
        let x = Matrix::randn(4, 3, 5);
        let y = layer.forward(&x);
        let ones = Matrix::from_vec(4, 2, vec![1.0; 8]);
        let gin = layer.backward(&ones);
        // d sum(y) / dx = W^T broadcast: check one element numerically.
        let eps = 1e-3f32;
        let mut x2 = x.clone();
        x2.data_mut()[0] += eps;
        let y2 = layer.forward_inference(&x2);
        let num = (y2.data().iter().sum::<f32>() - y.data().iter().sum::<f32>()) / eps;
        assert!(
            (num - gin.at(0, 0)).abs() < 1e-2,
            "num {num} vs {}",
            gin.at(0, 0)
        );
    }

    #[test]
    fn linear_weight_gradient_check() {
        let mut layer = Linear::new(2, 2, 3);
        let x = Matrix::randn(3, 2, 8);
        let y = layer.forward(&x);
        let ones = Matrix::from_vec(3, 2, vec![1.0; 6]);
        layer.backward(&ones);
        let analytic = layer.grads()[0]; // dL/dW[0,0]
        let eps = 1e-3f32;
        let mut perturbed = layer.clone();
        perturbed.w.data_mut()[0] += eps;
        let y2 = perturbed.forward_inference(&x);
        let num = (y2.data().iter().sum::<f32>() - y.data().iter().sum::<f32>()) / eps;
        assert!((num - analytic).abs() < 1e-2, "num {num} vs {analytic}");
    }

    #[test]
    fn silu_gradient_check() {
        let mut act = Silu::new();
        let x = Matrix::randn(2, 3, 21);
        let y = act.forward(&x);
        let ones = Matrix::from_vec(2, 3, vec![1.0; 6]);
        let gin = act.backward(&ones);
        let eps = 1e-3f32;
        let mut x2 = x.clone();
        x2.data_mut()[1] += eps;
        let y2 = act.forward_inference(&x2);
        let num = (y2.data().iter().sum::<f32>() - y.data().iter().sum::<f32>()) / eps;
        assert!((num - gin.data()[1]).abs() < 1e-2);
    }

    #[test]
    fn gradient_accumulation_over_micro_batches() {
        // Two backward calls accumulate; equals one backward on the stacked
        // batch.
        let x = Matrix::randn(4, 3, 5);
        let parts = x.split_rows(2);
        let mut acc = Linear::new(3, 2, 11);
        for p in &parts {
            let _ = acc.forward(p);
            let ones = Matrix::from_vec(p.rows(), 2, vec![1.0; p.rows() * 2]);
            acc.backward(&ones);
        }
        let mut full = Linear::new(3, 2, 11);
        let _ = full.forward(&x);
        let ones = Matrix::from_vec(4, 2, vec![1.0; 8]);
        full.backward(&ones);
        let diff: f32 = acc
            .grads()
            .iter()
            .zip(full.grads())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max);
        assert!(diff < 1e-4, "diff {diff}");
    }

    #[test]
    fn sgd_moves_params_against_gradient() {
        let mut layer = Linear::new(2, 2, 1);
        let before = layer.params();
        let x = Matrix::randn(1, 2, 2);
        let _ = layer.forward(&x);
        layer.backward(&Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        layer.apply_sgd(0.1);
        let after = layer.params();
        assert_ne!(before, after);
        // p_new = p_old - lr*g.
        let g = layer.grads();
        for ((b, a), g) in before.iter().zip(&after).zip(&g) {
            assert!((b - a - 0.1 * g).abs() < 1e-6);
        }
    }

    #[test]
    fn set_grads_round_trip() {
        let mut layer = Linear::new(2, 3, 1);
        let fake: Vec<f32> = (0..9).map(|i| i as f32).collect();
        layer.set_grads(&fake);
        assert_eq!(layer.grads(), fake);
        layer.zero_grads();
        assert!(layer.grads().iter().all(|&g| g == 0.0));
    }
}
