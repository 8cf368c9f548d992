//! Dense row-major `f32` matrices — the value type of the autodiff tape and
//! of eager inference.

use std::fmt;

/// A dense row-major matrix of `f32`.
///
/// # Examples
///
/// ```
/// use neuro::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::eye(2);
/// assert_eq!(a.matmul(&b), a);
/// assert_eq!(a.get(1, 0), 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have unequal lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// The flat row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · other`.
    ///
    /// Each output element is summed over `k` in ascending order, starting
    /// from `0.0` and skipping every `self[i][k] == 0.0`. Inputs are mostly
    /// zeros (29 of 32 initial channels, and many post-ReLU values), so
    /// the skip pays for its branch. At the paper's width of 32
    /// output columns the row accumulates in a fixed-size local array the
    /// compiler keeps in registers; the order, and so every bit, is the
    /// same as the general path.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        if self.cols == 0 || other.cols == 0 {
            return out;
        }
        let rows = self.data.chunks_exact(self.cols);
        let out_rows = out.data.chunks_exact_mut(other.cols);
        if other.cols == 32 {
            for (arow, orow) in rows.zip(out_rows) {
                let mut acc = [0.0f32; 32];
                accumulate_row(arow, &other.data, &mut acc);
                orow.copy_from_slice(&acc);
            }
        } else {
            for (arow, orow) in rows.zip(out_rows) {
                accumulate_row(arow, &other.data, orow);
            }
        }
        out
    }

    /// `selfᵀ · other` without materializing the transpose.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn dimension mismatch");
        let mut out = Matrix::zeros(self.cols, other.cols);
        for k in 0..self.rows {
            let arow = &self.data[k * self.cols..(k + 1) * self.cols];
            let brow = &other.data[k * other.cols..(k + 1) * other.cols];
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// `self · otherᵀ` without materializing the transpose.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let arow = &self.data[i * self.cols..(i + 1) * self.cols];
            for j in 0..other.rows {
                let brow = &other.data[j * other.cols..(j + 1) * other.cols];
                out.data[i * other.rows + j] = arow.iter().zip(brow).map(|(&a, &b)| a * b).sum();
            }
        }
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Element-wise combination with another matrix of the same shape.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// In-place element-wise accumulation `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place element-wise map `x ← f(x)`.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Adds the `1 × cols` row `row` to every row (the bias of an affine
    /// layer).
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `1 × cols`.
    pub fn add_row_in_place(&mut self, row: &Matrix) {
        assert_eq!(row.shape(), (1, self.cols), "row must be 1 × d");
        if self.cols == 0 {
            return;
        }
        for chunk in self.data.chunks_exact_mut(self.cols) {
            for (x, &b) in chunk.iter_mut().zip(&row.data) {
                *x += b;
            }
        }
    }

    /// Rectified linear unit `x ← max(x, 0)`.
    pub fn relu_in_place(&mut self) {
        self.map_in_place(|x| x.max(0.0));
    }

    /// Multiplies every element by `c`.
    pub fn scale_in_place(&mut self, c: f32) {
        self.map_in_place(|x| x * c);
    }

    /// Adds `c` to every element.
    pub fn add_scalar_in_place(&mut self, c: f32) {
        self.map_in_place(|x| x + c);
    }

    /// Frobenius normalization `x ← x / ‖x‖_F` (Equation 8's `Q̃`, `K̃`),
    /// returning the norm it divided by. A floor of 1e-12 keeps the
    /// all-zero matrix finite.
    pub fn frob_normalize_in_place(&mut self) -> f32 {
        let norm = self.frob_norm().max(1e-12);
        self.map_in_place(|x| x / norm);
        norm
    }

    /// Divides every row `r` by `d[r]`, where `d` is `rows × 1` (the `D⁻¹`
    /// of Equation 9). Divisors pass through [`clamp_divisor`] first.
    ///
    /// # Panics
    ///
    /// Panics if `d` is not `rows × 1`.
    pub fn div_cols_in_place(&mut self, d: &Matrix) {
        assert_eq!(d.shape(), (self.rows, 1), "divisor must be n × 1");
        if self.cols == 0 {
            return;
        }
        for (chunk, &dr) in self.data.chunks_exact_mut(self.cols).zip(&d.data) {
            let dr = clamp_divisor(dr);
            for x in chunk {
                *x /= dr;
            }
        }
    }

    /// Sparse–dense product `a · x` for a constant CSR operator `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != x.rows()`.
    pub fn spmm(a: &sat_graph::CsrMatrix, x: &Matrix) -> Matrix {
        assert_eq!(a.cols(), x.rows, "spmm dimension mismatch");
        Matrix::from_vec(a.rows(), x.cols, a.matmul_dense(&x.data, x.cols))
    }

    /// Frobenius norm `sqrt(Σ x²)`.
    pub fn frob_norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean over rows: a `1 × cols` matrix.
    pub fn mean_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.data[r * self.cols + c];
            }
        }
        let n = self.rows.max(1) as f32;
        for v in &mut out.data {
            *v /= n;
        }
        out
    }
}

/// `out += Σ_k arow[k] · b[k]` over the rows `b[k]` of the row-major `b`
/// (rows of `out.len()` elements), `k` ascending, skipping zero `arow[k]`.
#[inline(always)]
fn accumulate_row(arow: &[f32], b: &[f32], out: &mut [f32]) {
    for (&a, brow) in arow.iter().zip(b.chunks_exact(out.len())) {
        if a == 0.0 {
            continue;
        }
        for (o, &b) in out.iter_mut().zip(brow) {
            *o += a * b;
        }
    }
}

/// Clamps a divisor's magnitude to at least 1e-6, preserving its sign
/// (`0.0` counts as positive).
///
/// The paper's `D = 1 + (1/N)·Q̃(K̃ᵀ1)` is almost always ≈ 1, but for
/// degenerate inputs (e.g. a single node with anti-aligned query/key) it
/// can reach zero, and an unguarded division would poison the whole
/// forward pass with NaNs.
#[inline]
pub(crate) fn clamp_divisor(d: f32) -> f32 {
    if d.abs() >= 1e-6 {
        d
    } else if d.is_sign_negative() {
        -1e-6
    } else {
        1e-6
    }
}

/// The logistic function `1 / (1 + e^{-x})`.
#[inline]
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &Matrix, b: &Matrix, tol: f32) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn matmul_basic() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_width_32_matches_the_general_path_bit_for_bit() {
        // Zeros and negative zeros in `a` exercise the skip.
        let a = Matrix::from_vec(
            5,
            7,
            (0..35)
                .map(|i| match i % 4 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => (i as f32 * 0.37).sin(),
                })
                .collect(),
        );
        let b = Matrix::from_vec(7, 32, (0..224).map(|i| (i as f32 * 0.11).cos()).collect());
        let wide = a.matmul(&b);
        for j in 0..32 {
            // A one-column product takes the general path.
            let col = Matrix::from_vec(7, 1, (0..7).map(|k| b.get(k, j)).collect());
            let narrow = a.matmul(&col);
            for i in 0..5 {
                assert_eq!(wide.get(i, j).to_bits(), narrow.get(i, 0).to_bits());
            }
        }
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[-1.0, 2.0]]);
        assert!(approx_eq(&a.matmul_tn(&b), &a.transpose().matmul(&b), 1e-6));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, -1.0], &[0.5, 2.0]]);
        assert!(approx_eq(&a.matmul_nt(&b), &a.matmul(&b.transpose()), 1e-6));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn frobenius_norm() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.frob_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn mean_rows_averages() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 6.0]]);
        assert_eq!(a.mean_rows(), Matrix::from_rows(&[&[2.0, 4.0]]));
    }

    #[test]
    fn map_and_zip() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        assert_eq!(a.map(f32::abs), Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        assert_eq!(a.zip(&b, |x, y| x + y), Matrix::from_rows(&[&[11.0, 18.0]]));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
