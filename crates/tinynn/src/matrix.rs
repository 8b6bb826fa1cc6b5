//! A minimal row-major `f32` matrix.
//!
//! The SSMDVFS networks are tiny (at most 9 layers × 20 neurons), but the
//! RFE/ablation pipelines retrain them thousands of times, so both products
//! ([`Matrix::matmul`] for the forward pass and `delta @ W`,
//! [`Matrix::transposed_matmul`] for `dW`) run through one branch-free,
//! register-tiled kernel: each 4-row × 8-column output tile (4- and
//! 1-column tiles at the right edge, 1-row tiles at the bottom) keeps its
//! 32 accumulators in registers for the whole reduction and is stored once.
//! Every accumulator sums its terms over `k` in ascending order from `0.0`,
//! one rounded multiply and one rounded add per term (never a fused
//! multiply-add), which makes both products **bit-identical** to the naive
//! triple loop [`Matrix::matmul_naive`] — a property the `tinynn` tests
//! check by `f32::to_bits` on every tile edge and on random shapes. The
//! `*_into` variants write into caller-owned buffers so training epochs run
//! without heap allocation.

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
    /// The product runs through the register-tiled kernel shared with
    /// [`Matrix::transposed_matmul_into`]: each 4-row × 8-column output tile
    /// (4- and 1-column tiles at the right edge, 1-row tiles at the bottom)
    /// accumulates in registers over `k` in ascending order from `0.0`, with
    /// one rounded multiply and one rounded add per term, and is stored
    /// once. So every output is bit-identical to [`Matrix::matmul_naive`],
    /// while the inner loop keeps a tile of `other`'s row in vector
    /// registers across four rows of `self` and never reloads the output.
    /// It is branch-free (no zero-skip test: sparsity belongs to the CSR
    /// programs of the compiled decision plan).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        self.matmul_map_into(other, out, |_, v| v);
    }

    /// [`Matrix::matmul_into`] that passes each output element through
    /// `store(column, value)` as the tile is written: the dense layer folds
    /// its bias add and activation into the product this way, with the
    /// same arithmetic as applying them to the finished product.
    pub(crate) fn matmul_map_into(
        &self,
        other: &Matrix,
        out: &mut Matrix,
        store: impl Fn(usize, f32) -> f32,
    ) {
        assert_eq!(
            self.cols, other.rows,
            "inner dimensions must agree: ({}x{}) @ ({}x{})",
            self.rows, self.cols, other.rows, other.cols
        );
        out.reshape(self.rows, other.cols);
        let lhs = RowMajor { a: &self.data, kk: self.cols };
        product(lhs, &other.data, self.rows, other.cols, &mut out.data, &store);
    }

    /// Reference `self @ other`: the textbook triple loop, kept as the
    /// ground truth the tiled kernel is property-tested against.
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
    /// This is the backward-pass kernel (`deltaᵀ @ input` for `dW`). It
    /// reads `self` in place as the transposed left operand of the same
    /// register-tiled kernel as [`Matrix::matmul_into`], so each output
    /// accumulates its `r` terms in ascending order and equals the naive
    /// triple loop bit for bit.
    ///
    /// # Panics
    ///
    /// Panics unless `self.rows == other.rows`.
    pub fn transposed_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "transposed_matmul needs matching row counts");
        out.reshape(self.cols, other.cols);
        let lhs = ColMajor { a: &self.data, m: self.cols };
        product(lhs, &other.data, self.cols, other.cols, &mut out.data, &|_, v| v);
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// [`Matrix::transpose`] into a caller-owned buffer — how the batched
    /// forward pass re-lays each layer's `out × in` weights as `in × out`
    /// (once per optimizer step in training) so the product runs through
    /// [`Matrix::matmul_into`] without allocating.
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

/// Rows of an output tile.
const TILE_ROWS: usize = 4;
/// Columns of the widest output tile; narrower column tails use 4 and 1.
const TILE_COLS: usize = 8;

/// The left operand `A` (`m × kk`) of a product, as the kernel reads it: a
/// panel of `R` consecutive rows, one `k` at a time.
trait Lhs: Copy {
    /// The accessor of rows `i0..i0 + R`: given `k`, returns
    /// `[A(i0, k), …, A(i0 + R − 1, k)]`.
    fn panel<const R: usize>(self, i0: usize) -> impl Fn(usize) -> [f32; R];
}

/// `A` stored row-major (`m × kk`): the forward `x · Wᵀ` and backward
/// `delta · W` products.
#[derive(Clone, Copy)]
struct RowMajor<'a> {
    a: &'a [f32],
    kk: usize,
}

impl Lhs for RowMajor<'_> {
    #[inline(always)]
    fn panel<const R: usize>(self, i0: usize) -> impl Fn(usize) -> [f32; R] {
        let mut rows = [&self.a[..0]; R];
        for (r, row) in rows.iter_mut().enumerate() {
            *row = &self.a[(i0 + r) * self.kk..][..self.kk];
        }
        move |k| {
            let mut col = [0.0; R];
            for (v, row) in col.iter_mut().zip(&rows) {
                *v = row[k];
            }
            col
        }
    }
}

/// `A` stored transposed (`kk × m`, so `A(i, k)` sits at `k * m + i`): the
/// `deltaᵀ · input` product of `dW`.
#[derive(Clone, Copy)]
struct ColMajor<'a> {
    a: &'a [f32],
    m: usize,
}

impl Lhs for ColMajor<'_> {
    #[inline(always)]
    fn panel<const R: usize>(self, i0: usize) -> impl Fn(usize) -> [f32; R] {
        move |k| {
            let col: &[f32; R] =
                self.a[k * self.m + i0..][..R].try_into().expect("a panel column holds R rows");
            *col
        }
    }
}

/// One `R × C` output tile at `(i0, j0)`: every element accumulates its
/// products in registers, over `k` in ascending order from `0.0`, with one
/// rounded multiply and one rounded add per term — the exact arithmetic of
/// [`Matrix::matmul_naive`] — and is written once, through `store`.
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    lhs: impl Lhs,
    b: &[f32],
    n: usize,
    i0: usize,
    j0: usize,
    out: &mut [f32],
    store: &impl Fn(usize, f32) -> f32,
) {
    let a_at = lhs.panel::<R>(i0);
    let mut acc = [[0.0f32; C]; R];
    for (k, brow) in b.chunks_exact(n).enumerate() {
        let av = a_at(k);
        let bv: &[f32; C] = brow[j0..j0 + C].try_into().expect("a tile row holds C columns");
        for r in 0..R {
            for c in 0..C {
                acc[r][c] += av[r] * bv[c];
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        let o = &mut out[(i0 + r) * n + j0..][..C];
        for (c, (o, &v)) in o.iter_mut().zip(row).enumerate() {
            *o = store(j0 + c, v);
        }
    }
}

/// The tiles of output rows `i0..i0 + R`: 8-wide, then one 4-wide, then
/// single columns.
#[inline(always)]
fn row_panel<const R: usize>(
    lhs: impl Lhs,
    b: &[f32],
    n: usize,
    i0: usize,
    out: &mut [f32],
    store: &impl Fn(usize, f32) -> f32,
) {
    let mut j = 0;
    while j + TILE_COLS <= n {
        tile::<R, TILE_COLS>(lhs, b, n, i0, j, out, store);
        j += TILE_COLS;
    }
    if j + 4 <= n {
        tile::<R, 4>(lhs, b, n, i0, j, out, store);
        j += 4;
    }
    while j < n {
        tile::<R, 1>(lhs, b, n, i0, j, out, store);
        j += 1;
    }
}

/// `out[i][j] = store(j, Σₖ A(i, k) · B(k, j))` for an `m × kk` left
/// operand and a row-major `kk × n` right operand `b`: the one body behind
/// every product.
fn product(
    lhs: impl Lhs,
    b: &[f32],
    m: usize,
    n: usize,
    out: &mut [f32],
    store: &impl Fn(usize, f32) -> f32,
) {
    if m == 0 || n == 0 {
        return;
    }
    let mut i = 0;
    while i + TILE_ROWS <= m {
        row_panel::<TILE_ROWS>(lhs, b, n, i, out, store);
        i += TILE_ROWS;
    }
    while i < m {
        row_panel::<1>(lhs, b, n, i, out, store);
        i += 1;
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
        // Shapes straddling the 4-row and 8/4/1-column tiles.
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

    /// The tiled kernel, for both operand layouts and with and without a
    /// fused store, equals the triple loop bit for bit on every shape
    /// around the tile edges.
    #[test]
    fn tiled_kernel_matches_the_triple_loop() {
        let mut state = 0x9E37_79B9u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            match (state >> 60) as u8 {
                0 => 0.0,
                1 => -0.0,
                _ => ((state >> 33) as f32) / (u32::MAX / 2) as f32 - 1.0,
            }
        };
        let bias: Vec<f32> = (0..17).map(|_| next()).collect();
        let relu = |j: usize, v: f32| (v + bias[j]).max(0.0);
        let id = |_: usize, v: f32| v;
        for m in 0..10usize {
            for kk in [0usize, 1, 2, 3, 7, 8, 9] {
                for n in 0..18usize {
                    let a: Vec<f32> = (0..m * kk).map(|_| next()).collect();
                    let b: Vec<f32> = (0..kk * n).map(|_| next()).collect();
                    let reference =
                        |at: &dyn Fn(usize, usize) -> f32, store: &dyn Fn(usize, f32) -> f32| {
                            let mut out = Vec::with_capacity(m * n);
                            for i in 0..m {
                                for j in 0..n {
                                    let mut acc = 0.0f32;
                                    for k in 0..kk {
                                        acc += at(i, k) * b[k * n + j];
                                    }
                                    out.push(store(j, acc).to_bits());
                                }
                            }
                            out
                        };
                    let tiled = |lhs: &dyn Fn(&mut [f32])| {
                        let mut out = vec![f32::NAN; m * n];
                        lhs(&mut out);
                        out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                    };
                    let row_major = RowMajor { a: &a, kk };
                    // The same buffer read as a `kk × m` operand, transposed.
                    let col_major = ColMajor { a: &a, m };
                    let shape = format!("{m}x{kk}x{n}");
                    assert_eq!(
                        tiled(&|o| product(row_major, &b, m, n, o, &id)),
                        reference(&|i, k| a[i * kk + k], &id),
                        "row-major {shape}"
                    );
                    assert_eq!(
                        tiled(&|o| product(col_major, &b, m, n, o, &id)),
                        reference(&|i, k| a[k * m + i], &id),
                        "transposed {shape}"
                    );
                    assert_eq!(
                        tiled(&|o| product(row_major, &b, m, n, o, &relu)),
                        reference(&|i, k| a[i * kk + k], &relu),
                        "fused store {shape}"
                    );
                }
            }
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
