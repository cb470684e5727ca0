//! Minimal row-major matrix type for the MLP's forward/backward passes.
//!
//! All three products dispatch to the shared micro-kernel layer in
//! [`crate::gemm`]: register-blocked by default, bit-identical to the naive
//! reference loops. None of the kernels takes a sparsity shortcut, so
//! non-finite inputs propagate exactly as IEEE-754 dictates — `0.0 × NaN`
//! is NaN, never silently dropped.

use crate::gemm;

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// `rows × cols` with an explicit panic on `usize` overflow: a hostile or
/// corrupted shape must fail loudly here, in release builds too, instead of
/// wrapping into a small allocation that later indexes out of bounds.
fn shape_len(rows: usize, cols: usize) -> usize {
    rows.checked_mul(cols)
        .unwrap_or_else(|| panic!("matrix shape {rows}x{cols} overflows usize"))
}

impl Matrix {
    /// Creates a zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; shape_len(rows, cols)],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`, or if that product overflows
    /// `usize`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), shape_len(rows, cols), "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Mutable element access.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r`.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat parameter slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat parameter slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reshapes in place, reusing the backing allocation. Contents are
    /// unspecified afterwards (the GEMM kernels overwrite every element);
    /// grows the buffer only when the new shape needs more room.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        let len = shape_len(rows, cols);
        self.rows = rows;
        self.cols = cols;
        self.data.resize(len, 0.0);
    }

    /// Overwrites `self` with `other`'s shape and contents, reusing the
    /// backing allocation.
    pub fn copy_from(&mut self, other: &Matrix) {
        self.reshape(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Writes this matrix's transpose into `dst` (reshaped to
    /// `cols × rows`, backing allocation reused). Values are copied
    /// bit-for-bit — this is how the training scratch seeds its persistent
    /// `Wᵀ` shadow. Cache-blocked so the strided reads and contiguous
    /// writes both stay L1-resident on the paper's 100×100 layers.
    pub fn transpose_into(&self, dst: &mut Matrix) {
        dst.reshape(self.cols, self.rows);
        let (rows, cols) = (self.rows, self.cols);
        const TB: usize = 32;
        let mut c0 = 0;
        while c0 < cols {
            let ce = (c0 + TB).min(cols);
            let mut r0 = 0;
            while r0 < rows {
                let re = (r0 + TB).min(rows);
                for c in c0..ce {
                    let drow = &mut dst.data[c * rows + r0..c * rows + re];
                    for (dv, r) in drow.iter_mut().zip(r0..re) {
                        *dv = self.data[r * cols + c];
                    }
                }
                r0 = re;
            }
            c0 = ce;
        }
    }

    /// Stages the selected rows of a row collection into `self` (reshaped
    /// to `idx.len() × cols`, backing allocation reused): row `r` of the
    /// result is `rows[idx[r]]`. This is the minibatch-gather primitive the
    /// training loop uses — one pass over the index list instead of
    /// per-row slicing at each call site.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds or a selected row's length is
    /// not `cols`.
    pub fn gather_rows(&mut self, cols: usize, rows: &[Vec<f64>], idx: &[usize]) {
        self.reshape(idx.len(), cols);
        if cols == 0 {
            for &i in idx {
                assert_eq!(rows[i].len(), 0, "gathered row {i} has the wrong width");
            }
            return;
        }
        for (dst, &i) in self.data.chunks_exact_mut(cols).zip(idx) {
            let src = &rows[i];
            assert_eq!(src.len(), cols, "gathered row {i} has the wrong width");
            dst.copy_from_slice(src);
        }
    }

    /// `self × other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, &mut out);
        out
    }

    /// `self × other` into a caller-held output matrix (reshaped and
    /// overwritten; the backing allocation is reused).
    ///
    /// Every output element accumulates its contributions strictly in
    /// ascending inner-index order, with no zero-skip: results are
    /// bit-identical across [`gemm::GemmMode::Blocked`] and
    /// [`gemm::GemmMode::Naive`], and non-finite inputs propagate
    /// (`0.0 × NaN = NaN`).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        out.reshape(self.rows, other.cols);
        gemm::nn(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
    }

    /// `selfᵀ × other` (used for weight gradients).
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.t_matmul_into(other, &mut out);
        out
    }

    /// `selfᵀ × other` into a caller-held output matrix (reshaped and
    /// overwritten). The accumulation order is identical to
    /// [`Matrix::t_matmul`], so results are bit-identical; like every
    /// kernel in [`gemm`], no zero-skip is taken, so NaN and ±∞ gradients
    /// propagate instead of being laundered into finite values.
    ///
    /// # Panics
    ///
    /// Panics on row-count mismatch.
    pub fn t_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "t_matmul shape mismatch");
        out.reshape(self.cols, other.cols);
        gemm::tn(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
    }

    /// `self × otherᵀ` (used to backpropagate through weights).
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_t_into(other, &mut out);
        out
    }

    /// `self × otherᵀ` into a caller-held output matrix (reshaped and
    /// overwritten). Each output element is one strictly index-ordered dot
    /// product, so results are bit-identical to [`Matrix::matmul_t`] in
    /// every non-reordering [`gemm::GemmMode`].
    ///
    /// This is the training-forward / batched-inference kernel: the default
    /// register-blocked implementation keeps a 4×4 tile of independent
    /// accumulator chains in flight (instruction-level parallelism hides
    /// the FP-add latency) without reassociating any single chain — see
    /// [`gemm::nt_blocked`].
    ///
    /// # Panics
    ///
    /// Panics on column-count mismatch.
    pub fn matmul_t_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_t shape mismatch");
        out.reshape(self.rows, other.rows);
        gemm::nt(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            other.rows,
            self.cols,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    }

    #[test]
    fn matmul_basic() {
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a().matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.row(0), &[58.0, 64.0]);
        assert_eq!(c.row(1), &[139.0, 154.0]);
    }

    #[test]
    fn t_matmul_equals_transpose_then_matmul() {
        let b = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        // aᵀ (3×2) × b (2×2) = 3×2
        let c = a().t_matmul(&b);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.row(0), &[13.0, 18.0]); // [1,4]·cols of b
    }

    #[test]
    fn matmul_t_matches_manual() {
        let b = Matrix::from_vec(2, 3, vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        let c = a().matmul_t(&b); // 2×3 × 3×2 = 2×2
        assert_eq!(c.row(0), &[4.0, 2.0]);
        assert_eq!(c.row(1), &[10.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let b = Matrix::zeros(2, 2);
        let _ = a().matmul(&b);
    }

    #[test]
    fn into_kernels_match_allocating_kernels() {
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut out = Matrix::zeros(5, 5); // wrong shape + stale garbage
        out.as_mut_slice().fill(9e9);
        a().matmul_into(&b, &mut out);
        assert_eq!(out, a().matmul(&b));

        let c = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        a().t_matmul_into(&c, &mut out);
        assert_eq!(out, a().t_matmul(&c));

        let d = Matrix::from_vec(2, 3, vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0]);
        a().matmul_t_into(&d, &mut out);
        assert_eq!(out, a().matmul_t(&d));
    }

    /// Regression for the non-IEEE sparsity shortcut: the old kernels
    /// skipped `a == 0.0` rows, so `0.0 × NaN` and `0.0 × ∞` contributions
    /// vanished instead of producing NaN. A NaN entering the backward pass
    /// must reach the output.
    #[test]
    fn zero_times_nonfinite_propagates_nan() {
        // matmul (nn): [0, 1] × [[NaN], [5]] — the 0·NaN term poisons the dot.
        let a = Matrix::from_vec(1, 2, vec![0.0, 1.0]);
        let b = Matrix::from_vec(2, 1, vec![f64::NAN, 5.0]);
        assert!(a.matmul(&b).get(0, 0).is_nan(), "matmul laundered 0*NaN");

        let binf = Matrix::from_vec(2, 1, vec![f64::INFINITY, 5.0]);
        assert!(a.matmul(&binf).get(0, 0).is_nan(), "matmul laundered 0*inf");

        // t_matmul (tn): zero row in the left operand against a NaN row.
        let d = Matrix::from_vec(2, 1, vec![0.0, 1.0]);
        let x = Matrix::from_vec(2, 2, vec![f64::NAN, f64::INFINITY, 2.0, 3.0]);
        let g = d.t_matmul(&x);
        assert!(g.get(0, 0).is_nan(), "t_matmul laundered 0*NaN");
        assert!(g.get(0, 1).is_nan(), "t_matmul laundered 0*inf");

        // matmul_t (nt) was already a plain ordered dot; keep it pinned.
        let e = Matrix::from_vec(1, 2, vec![0.0, 0.0]);
        let w = Matrix::from_vec(1, 2, vec![f64::NAN, 1.0]);
        assert!(e.matmul_t(&w).get(0, 0).is_nan(), "matmul_t laundered NaN");
    }

    /// Signed zeros follow IEEE-754 addition exactly: a `+0.0` accumulator
    /// plus a `-0.0` contribution is `+0.0`, and a negative-product zero row
    /// yields the same bits as the scalar expression would.
    #[test]
    fn signed_zero_contributions_follow_ieee() {
        let a = Matrix::from_vec(1, 1, vec![-0.0]);
        let b = Matrix::from_vec(1, 1, vec![5.0]);
        // 0.0 (start) + (-0.0 × 5.0) = +0.0 under round-to-nearest.
        let got = a.matmul(&b).get(0, 0);
        assert_eq!(got.to_bits(), (0.0f64 + (-0.0f64 * 5.0)).to_bits());

        let c = Matrix::from_vec(1, 2, vec![0.0, -0.0]);
        let d = Matrix::from_vec(1, 2, vec![-3.0, 4.0]);
        let got = c.matmul_t(&d).get(0, 0);
        let want = 0.0f64 + 0.0 * -3.0 + -0.0 * 4.0;
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn zeros_overflowing_shape_panics() {
        let _ = Matrix::zeros(usize::MAX, 2);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn from_vec_overflowing_shape_panics() {
        // Without the checked multiply this wraps to a tiny length in release
        // builds and "succeeds" with a catastrophically wrong shape.
        let _ = Matrix::from_vec(usize::MAX / 2 + 1, 4, vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn reshape_overflowing_shape_panics() {
        let mut m = Matrix::zeros(1, 1);
        m.reshape(usize::MAX, usize::MAX);
    }

    #[test]
    fn zero_dimension_shapes_are_fine() {
        let m = Matrix::zeros(0, 5);
        assert_eq!((m.rows(), m.cols()), (0, 5));
        let n = Matrix::from_vec(3, 0, Vec::new());
        assert_eq!(n.as_slice().len(), 0);
        let p = m.matmul(&Matrix::zeros(5, 0));
        assert_eq!((p.rows(), p.cols()), (0, 0));
    }

    #[test]
    fn reshape_reuses_and_copy_from_clones() {
        let mut m = Matrix::zeros(2, 2);
        m.reshape(3, 1);
        assert_eq!((m.rows(), m.cols()), (3, 1));
        let src = a();
        m.copy_from(&src);
        assert_eq!(m, src);
    }

    #[test]
    fn gather_rows_stages_selected_rows() {
        let rows = vec![
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
            vec![7.0, 8.0],
        ];
        let mut m = Matrix::from_vec(1, 1, vec![9e9]); // stale shape + garbage
        m.gather_rows(2, &rows, &[3, 1, 1]);
        assert_eq!((m.rows(), m.cols()), (3, 2));
        assert_eq!(m.row(0), &[7.0, 8.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.row(2), &[3.0, 4.0]);

        m.gather_rows(2, &rows, &[]);
        assert_eq!((m.rows(), m.cols()), (0, 2));
    }

    #[test]
    #[should_panic(expected = "wrong width")]
    fn gather_rows_rejects_ragged_rows() {
        let rows = vec![vec![1.0, 2.0], vec![3.0]];
        let mut m = Matrix::zeros(0, 0);
        m.gather_rows(2, &rows, &[0, 1]);
    }

    #[test]
    #[should_panic]
    fn gather_rows_rejects_out_of_bounds_index() {
        let rows = vec![vec![1.0, 2.0]];
        let mut m = Matrix::zeros(0, 0);
        m.gather_rows(2, &rows, &[1]);
    }

    #[test]
    fn row_accessors() {
        let mut m = a();
        m.set(1, 2, 42.0);
        assert_eq!(m.get(1, 2), 42.0);
        m.row_mut(0)[0] = -1.0;
        assert_eq!(m.row(0), &[-1.0, 2.0, 3.0]);
    }
}
