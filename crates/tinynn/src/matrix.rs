//! A minimal row-major `f32` matrix.
//!
//! The SSMDVFS networks are tiny (at most 9 layers × 20 neurons), but the
//! RFE/ablation pipelines retrain them thousands of times, so the two
//! product kernels ([`Matrix::matmul`] for the forward pass and `delta @ W`,
//! [`Matrix::transposed_matmul`] for `dW`) are branch-free and blocked for
//! cache and instruction-level parallelism. Every blocked kernel
//! accumulates each output element over `k` in ascending order from `0.0`,
//! which makes [`Matrix::matmul`] **bit-identical** to the naive reference
//! [`Matrix::matmul_naive`] — a property the `tinynn` property tests
//! enforce on random shapes. The `*_into` variants write into caller-owned
//! buffers so training epochs run without heap allocation.

use std::fmt;
use std::ops::{Index, IndexMut};

use serde::{Deserialize, Serialize};

/// A dense row-major matrix of `f32`.
///
/// # Examples
///
/// ```
/// use tinynn::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
/// let c = a.matmul(&b);
/// assert_eq!(c[(1, 0)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "buffer length must equal rows*cols");
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths or there are no rows.
    pub fn from_rows(rows: &[&[f32]]) -> Matrix {
        assert!(!rows.is_empty(), "a matrix needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "all rows must have equal length");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrows the flat row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the flat row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of range ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reshapes in place, reusing the existing buffer. Contents after the
    /// call are unspecified (callers are expected to overwrite them); no
    /// allocation happens unless the new shape exceeds the buffer capacity.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// `self @ other` — standard matrix product.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul`] into a caller-owned buffer (resized as needed).
    ///
    /// The kernel is branch-free (no zero-skip test — sparsity belongs to
    /// the CSR programs of the compiled decision plan), blocks the output columns so a
    /// tile of `other` stays cache-resident across all rows of `self`, and
    /// unrolls `k` by four: the four contributions are added to the output
    /// element *sequentially*, so each output still accumulates over `k`
    /// in ascending order and the result is bit-identical to
    /// [`Matrix::matmul_naive`] — while the inner loop runs vectorizable
    /// row-wise updates instead of one serial dot-product chain.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "inner dimensions must agree: ({}x{}) @ ({}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        const JBLOCK: usize = 64;
        out.reshape(self.rows, other.cols);
        out.data.iter_mut().for_each(|v| *v = 0.0);
        let n = other.cols;
        let kk = self.cols;
        let mut j0 = 0;
        while j0 < n {
            let j1 = (j0 + JBLOCK).min(n);
            for i in 0..self.rows {
                let arow = &self.data[i * kk..(i + 1) * kk];
                let orow = &mut out.data[i * n + j0..i * n + j1];
                let mut k = 0;
                while k + 4 <= kk {
                    let (a0, a1, a2, a3) = (arow[k], arow[k + 1], arow[k + 2], arow[k + 3]);
                    let b0 = &other.data[k * n + j0..k * n + j1];
                    let b1 = &other.data[(k + 1) * n + j0..(k + 1) * n + j1];
                    let b2 = &other.data[(k + 2) * n + j0..(k + 2) * n + j1];
                    let b3 = &other.data[(k + 3) * n + j0..(k + 3) * n + j1];
                    for ((((o, &v0), &v1), &v2), &v3) in
                        orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                    {
                        let mut s = *o;
                        s += a0 * v0;
                        s += a1 * v1;
                        s += a2 * v2;
                        s += a3 * v3;
                        *o = s;
                    }
                    k += 4;
                }
                while k < kk {
                    let a = arow[k];
                    let brow = &other.data[k * n + j0..k * n + j1];
                    for (o, &b) in orow.iter_mut().zip(brow) {
                        *o += a * b;
                    }
                    k += 1;
                }
            }
            j0 = j1;
        }
    }

    /// Reference `self @ other`: the textbook triple loop, kept as the
    /// ground truth the blocked kernel is property-tested against.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_naive(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "inner dimensions must agree: ({}x{}) @ ({}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for j in 0..other.cols {
                let mut acc = 0.0f32;
                for k in 0..self.cols {
                    acc += self.data[i * self.cols + k] * other.data[k * other.cols + j];
                }
                out.data[i * other.cols + j] = acc;
            }
        }
        out
    }

    /// `selfᵀ @ other`.
    ///
    /// # Panics
    ///
    /// Panics unless `self.rows == other.rows`.
    pub fn transposed_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transposed_matmul_into(other, &mut out);
        out
    }

    /// [`Matrix::transposed_matmul`] into a caller-owned buffer.
    ///
    /// This is the backward-pass kernel (`deltaᵀ @ input` for `dW`); like
    /// [`Matrix::matmul_into`] it is branch-free with a vectorizable inner
    /// loop and an `r`-unroll of four whose contributions are added
    /// sequentially, so each output accumulates its `r` terms in ascending
    /// order.
    ///
    /// # Panics
    ///
    /// Panics unless `self.rows == other.rows`.
    pub fn transposed_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "transposed_matmul needs matching row counts");
        let n = other.cols;
        let m = self.cols;
        out.reshape(m, n);
        out.data.iter_mut().for_each(|v| *v = 0.0);
        let mut r = 0;
        while r + 4 <= self.rows {
            let b0 = &other.data[r * n..(r + 1) * n];
            let b1 = &other.data[(r + 1) * n..(r + 2) * n];
            let b2 = &other.data[(r + 2) * n..(r + 3) * n];
            let b3 = &other.data[(r + 3) * n..(r + 4) * n];
            for i in 0..m {
                let a0 = self.data[r * m + i];
                let a1 = self.data[(r + 1) * m + i];
                let a2 = self.data[(r + 2) * m + i];
                let a3 = self.data[(r + 3) * m + i];
                let orow = &mut out.data[i * n..(i + 1) * n];
                for ((((o, &v0), &v1), &v2), &v3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    let mut s = *o;
                    s += a0 * v0;
                    s += a1 * v1;
                    s += a2 * v2;
                    s += a3 * v3;
                    *o = s;
                }
            }
            r += 4;
        }
        while r < self.rows {
            let arow = &self.data[r * m..(r + 1) * m];
            let brow = &other.data[r * n..(r + 1) * n];
            for (i, &a) in arow.iter().enumerate() {
                let orow = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
            r += 1;
        }
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// [`Matrix::transpose`] into a caller-owned buffer — lets the batched
    /// forward pass re-lay the weights once per call and run the product
    /// through the fast [`Matrix::matmul_into`] kernel without allocating.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.reshape(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Extracts the sub-matrix keeping only the listed columns, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn select_columns(&self, cols: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, cols.len());
        for i in 0..self.rows {
            for (j, &c) in cols.iter().enumerate() {
                assert!(c < self.cols, "column {c} out of range ({} cols)", self.cols);
                out.data[i * cols.len() + j] = self.data[i * self.cols + c];
            }
        }
        out
    }

    /// Extracts the sub-matrix keeping only the listed rows, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.select_rows_into(rows, &mut out);
        out
    }

    /// [`Matrix::select_rows`] into a caller-owned buffer (resized as
    /// needed) — the minibatch gather of the training loop, allocation-free
    /// after warm-up.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn select_rows_into(&self, rows: &[usize], out: &mut Matrix) {
        out.reshape(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
    }

    /// Appends the rows of `other`.
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack needs equal column counts");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// Appends the columns of `other`.
    ///
    /// # Panics
    ///
    /// Panics on row-count mismatch.
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hstack needs equal row counts");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for i in 0..self.rows {
            out.data[i * out.cols..i * out.cols + self.cols].copy_from_slice(self.row(i));
            out.data[i * out.cols + self.cols..(i + 1) * out.cols].copy_from_slice(other.row(i));
        }
        out
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}:", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(12) {
                write!(f, "{:8.4} ", self.data[i * self.cols + j])?;
            }
            writeln!(f, "{}]", if self.cols > 12 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 1);
        assert_eq!(c.cols(), 1);
        assert_eq!(c[(0, 0)], 14.0);
    }

    #[test]
    fn transposed_matmul_agrees_with_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[2.0, -1.0], &[0.0, 3.0]]);
        assert_eq!(a.transposed_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn select_columns_and_rows() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let c = a.select_columns(&[2, 0]);
        assert_eq!(c.row(0), &[3.0, 1.0]);
        assert_eq!(c.row(1), &[6.0, 4.0]);
        let r = a.select_rows(&[1]);
        assert_eq!(r.row(0), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn stacking() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        let v = a.vstack(&b);
        assert_eq!(v.rows(), 2);
        assert_eq!(v.row(1), &[3.0, 4.0]);
        let h = a.hstack(&b);
        assert_eq!(h.cols(), 4);
        assert_eq!(h.row(0), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn map_inplace() {
        let mut a = Matrix::from_rows(&[&[-1.0, 2.0]]);
        a.map_inplace(|v| v.max(0.0));
        assert_eq!(a.row(0), &[0.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_matmul_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_index_rejected() {
        let a = Matrix::zeros(2, 2);
        let _ = a[(2, 0)];
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn zeros_and_from_vec_agree() {
        let z = Matrix::zeros(3, 2);
        let v = Matrix::from_vec(3, 2, vec![0.0; 6]);
        assert_eq!(z, v);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 2);
    }

    #[test]
    fn row_accessors_are_consistent() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        m.row_mut(0)[1] = 9.0;
        assert_eq!(m[(0, 1)], 9.0);
        assert_eq!(m.as_slice(), &[1.0, 9.0, 3.0, 4.0]);
    }

    #[test]
    fn matmul_with_zero_rows_is_exact() {
        // The kernel is branch-free (no zero-skip); zero multipliers must
        // still produce the exact result.
        let a = Matrix::from_rows(&[&[0.0, 2.0]]);
        let b = Matrix::from_rows(&[&[5.0, 7.0], &[1.0, 1.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[2.0, 2.0]);
    }

    #[test]
    fn blocked_kernels_match_naive_references() {
        // Shapes straddling the 4-deep k-unroll and the 64-wide cache block.
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f32) / (u32::MAX / 2) as f32 - 1.0
        };
        for &(m, k, n) in &[(1usize, 1usize, 1usize), (3, 5, 7), (8, 20, 66), (65, 3, 4)] {
            let a = Matrix::from_vec(m, k, (0..m * k).map(|_| next()).collect());
            let b = Matrix::from_vec(k, n, (0..k * n).map(|_| next()).collect());
            assert_eq!(a.matmul(&b), a.matmul_naive(&b), "matmul {m}x{k}x{n}");
            assert_eq!(
                a.transposed_matmul(&a),
                a.transpose().matmul_naive(&a),
                "transposed_matmul {m}x{k}"
            );
        }
    }

    #[test]
    fn into_variants_reuse_buffers_across_shapes() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let mut out = Matrix::zeros(0, 0);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul_naive(&b));
        // Shrinking reuse: stale contents must not leak into the result.
        let a1 = Matrix::from_rows(&[&[2.0, 0.5]]);
        a1.matmul_into(&b, &mut out);
        assert_eq!(out, a1.matmul_naive(&b));
        let mut sel = Matrix::zeros(0, 0);
        b.select_rows_into(&[1, 0], &mut sel);
        assert_eq!(sel, b.select_rows(&[1, 0]));
    }

    #[test]
    fn transpose_of_nonsquare() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let t = a.transpose();
        assert_eq!((t.rows(), t.cols()), (3, 1));
        assert_eq!(t[(2, 0)], 3.0);
    }

    #[test]
    fn display_truncates_large_matrices() {
        let big = Matrix::zeros(20, 20);
        let s = format!("{big}");
        assert!(s.contains("Matrix 20x20"));
        assert!(s.contains("..."));
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_vec_length_mismatch_rejected() {
        Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_rows_rejected() {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }
}
