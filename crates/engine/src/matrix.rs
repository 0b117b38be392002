//! Row-major 2-D `f32` matrices.

use crate::rng::DetRng;
use std::fmt;
use std::ops::{Add, Sub};

/// A dense row-major matrix of `f32` (rows = batch, cols = features).
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Seeded standard-normal matrix.
    pub fn randn(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = DetRng::new(seed);
        Matrix {
            rows,
            cols,
            data: (0..rows * cols).map(|_| rng.next_normal()).collect(),
        }
    }

    /// Builds from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Raw data slice.
    pub(crate) fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    pub(crate) fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Matrix product `self (r×k) · other (k×c)`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul inner dims");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise map.
    pub(crate) fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Adds a row vector (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != cols`.
    pub(crate) fn add_row(&self, bias: &[f32]) -> Matrix {
        assert_eq!(bias.len(), self.cols);
        let mut out = self.clone();
        for row in out.data.chunks_exact_mut(self.cols) {
            for (o, b) in row.iter_mut().zip(bias) {
                *o += b;
            }
        }
        out
    }

    /// Column sums (gradient of a broadcast bias).
    pub(crate) fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for row in self.data.chunks_exact(self.cols) {
            for (o, v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        out
    }

    /// Scales all elements.
    pub(crate) fn scale(&self, s: f32) -> Matrix {
        self.map(|x| x * s)
    }

    /// Stacks matrices vertically (concatenating micro-batches).
    ///
    /// # Panics
    ///
    /// Panics if column counts differ or the input is empty.
    pub fn vstack(parts: &[Matrix]) -> Matrix {
        assert!(!parts.is_empty(), "vstack of nothing");
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&p.data);
        }
        Matrix { rows, cols, data }
    }

    /// Splits into `n` row chunks (micro-batches); the first `rows % n`
    /// chunks get an extra row.
    pub fn split_rows(&self, n: usize) -> Vec<Matrix> {
        assert!(n > 0);
        let base = self.rows / n;
        let rem = self.rows % n;
        let mut out = Vec::with_capacity(n);
        let mut r = 0;
        for i in 0..n {
            let take = base + usize::from(i < rem);
            let data = self.data[r * self.cols..(r + take) * self.cols].to_vec();
            out.push(Matrix::from_vec(take, self.cols, data));
            r += take;
        }
        out
    }

    /// Maximum absolute difference to another matrix.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

#[cfg(test)]
impl Matrix {
    /// Element access.
    pub(crate) fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known_values() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::randn(3, 5, 1);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn vstack_then_split_round_trips() {
        let a = Matrix::randn(4, 3, 1);
        let parts = a.split_rows(3); // 2 + 1 + 1 rows
        assert_eq!(
            parts.iter().map(Matrix::rows).collect::<Vec<_>>(),
            vec![2, 1, 1]
        );
        assert_eq!(Matrix::vstack(&parts), a);
    }

    #[test]
    fn bias_and_col_sums_are_adjoint() {
        let x = Matrix::zeros(3, 2);
        let y = x.add_row(&[1.0, -2.0]);
        assert_eq!(y.at(2, 1), -2.0);
        assert_eq!(y.col_sums(), vec![3.0, -6.0]);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::randn(2, 2, 1);
        let b = Matrix::randn(2, 2, 2);
        let c = &(&a + &b) - &b;
        assert!(c.max_abs_diff(&a) < 1e-6);
        assert_eq!(a.scale(2.0).at(0, 0), 2.0 * a.at(0, 0));
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_associates_with_identity() {
        let a = Matrix::randn(3, 3, 9);
        let mut eye = Matrix::zeros(3, 3);
        for i in 0..3 {
            eye.data_mut()[i * 3 + i] = 1.0;
        }
        assert!(a.matmul(&eye).max_abs_diff(&a) < 1e-6);
    }
}
