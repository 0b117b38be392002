//! Property tests for the tensor substrate.

use dpipe_engine::tensor::{mse_grad_scaled, Layer, Linear, Matrix, Mlp};
use proptest::prelude::*;

fn small_dim() -> impl Strategy<Value = usize> {
    1usize..6
}

proptest! {
    // Pinned case count for a fast, deterministic CI run.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Transposition is an involution.
    #[test]
    fn transpose_involution(r in small_dim(), c in small_dim(), seed in 0u64..1000) {
        let m = Matrix::randn(r, c, seed);
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    /// vstack inverts split_rows for any chunk count.
    #[test]
    fn split_vstack_roundtrip(r in 1usize..12, c in small_dim(), n in 1usize..6, seed in 0u64..1000) {
        let n = n.min(r);
        let m = Matrix::randn(r, c, seed);
        let parts = m.split_rows(n);
        prop_assert_eq!(parts.len(), n);
        prop_assert_eq!(Matrix::vstack(&parts), m);
    }

    /// Matmul distributes over addition: (A+B)C = AC + BC.
    #[test]
    fn matmul_distributes(n in 1usize..5, seed in 0u64..1000) {
        let a = Matrix::randn(n, n, seed);
        let b = Matrix::randn(n, n, seed ^ 0xffff);
        let x = Matrix::randn(n, n, seed.wrapping_add(7));
        let lhs = (&a + &b).matmul(&x);
        let rhs = &a.matmul(&x) + &b.matmul(&x);
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }

    /// Micro-batched gradient accumulation equals the full-batch gradient
    /// regardless of the split.
    #[test]
    fn gradient_accumulation_linear(
        rows in 2usize..10,
        splits in 1usize..5,
        seed in 0u64..500,
    ) {
        let splits = splits.min(rows);
        let dim = 3;
        let x = Matrix::randn(rows, dim, seed);
        let t = Matrix::zeros(rows, dim);
        let elems = rows * dim;

        let mut full = Linear::new(dim, dim, 42);
        let y = full.forward(&x);
        full.backward(&mse_grad_scaled(&y, &t, elems));
        let g_full = full.grads();

        let mut acc = Linear::new(dim, dim, 42);
        for (xm, tm) in x.split_rows(splits).iter().zip(t.split_rows(splits)) {
            let y = acc.forward(xm);
            acc.backward(&mse_grad_scaled(&y, &tm, elems));
        }
        let g_acc = acc.grads();
        let diff = g_full
            .iter()
            .zip(&g_acc)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        prop_assert!(diff < 1e-4, "diff {diff}");
    }

    /// Splitting an MLP into arbitrary contiguous stages preserves the
    /// forward function.
    #[test]
    fn mlp_split_preserves_function(blocks in 1usize..5, cut in 0usize..10, seed in 0u64..200) {
        let dim = 4;
        let net = Mlp::uniform(blocks, dim, seed);
        let x = Matrix::randn(3, dim, seed ^ 99);
        let full = net.forward_inference(&x);
        let raw = blocks * 2;
        let cut = (cut % raw.max(1)).max(1).min(raw - 1).max(1);
        if cut >= raw { return Ok(()); }
        let stages = net.split(&[cut, raw - cut]);
        let mut h = x;
        for s in &stages {
            h = s.forward_inference(&h);
        }
        prop_assert!(h.max_abs_diff(&full) < 1e-5);
    }
}
