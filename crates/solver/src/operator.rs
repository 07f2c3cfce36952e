//! The [`LinearOperator`] abstraction every Krylov method is written
//! against.
//!
//! An operator only needs to apply `y = A x`; the HODLR matrix applies in
//! `O(N log N)`, a dense baseline in `O(N^2)`, and a matrix-free kernel
//! source in `O(N^2)` entry evaluations without ever materialising the
//! matrix.  Preconditioners are the same trait applied to `M^{-1}`; the
//! HODLR one is the `hodlr` façade's `Factorization`.

use hodlr_compress::MatrixEntrySource;
use hodlr_core::HodlrMatrix;
use hodlr_la::{gemv, DenseMatrix, Op, Scalar};

/// A square linear operator `A: C^n -> C^n` (or real), applied without
/// exposing its representation.
pub trait LinearOperator<T: Scalar> {
    /// The dimension `n` of the (square) operator.
    fn dim(&self) -> usize;

    /// `y = A x`.
    ///
    /// # Panics
    /// Implementations panic when `x` or `y` have length != `dim()`.
    fn apply(&self, x: &[T], y: &mut [T]);

    /// `A x` into a fresh vector.
    fn apply_vec(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::zero(); self.dim()];
        self.apply(x, &mut y);
        y
    }

    /// `Y = A X` for a block of vectors.  The default loops over columns;
    /// implementations with a faster blocked path (one gemm sweep, one
    /// batched launch) override it.
    fn apply_to_block(&self, x: &DenseMatrix<T>) -> DenseMatrix<T> {
        assert_eq!(x.rows(), self.dim(), "block has the wrong row count");
        let mut y = DenseMatrix::zeros(self.dim(), x.cols());
        for j in 0..x.cols() {
            self.apply(x.col(j), y.col_mut(j));
        }
        y
    }
}

impl<T: Scalar, A: LinearOperator<T> + ?Sized> LinearOperator<T> for &A {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn apply(&self, x: &[T], y: &mut [T]) {
        (**self).apply(x, y)
    }
    fn apply_to_block(&self, x: &DenseMatrix<T>) -> DenseMatrix<T> {
        (**self).apply_to_block(x)
    }
}

impl<T: Scalar> LinearOperator<T> for HodlrMatrix<T> {
    fn dim(&self) -> usize {
        self.n()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        self.matvec_into(x, y);
    }

    fn apply_to_block(&self, x: &DenseMatrix<T>) -> DenseMatrix<T> {
        self.matmat(x)
    }
}

impl<T: Scalar> LinearOperator<T> for DenseMatrix<T> {
    fn dim(&self) -> usize {
        assert_eq!(self.rows(), self.cols(), "operator matrices are square");
        self.rows()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        gemv(T::one(), self.as_ref(), Op::None, x, T::zero(), y);
    }

    fn apply_to_block(&self, x: &DenseMatrix<T>) -> DenseMatrix<T> {
        self.matmul(x)
    }
}

/// The identity "preconditioner": turns a preconditioned method into its
/// unpreconditioned variant without a second code path.
pub(crate) struct IdentityPreconditioner(pub(crate) usize);

impl<T: Scalar> LinearOperator<T> for IdentityPreconditioner {
    fn dim(&self) -> usize {
        self.0
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        y.copy_from_slice(x);
    }
}

/// Matrix-free operator over any [`MatrixEntrySource`] — in particular the
/// kernel [`BlockSource`](hodlr_core::BlockSource)s the HODLR builder
/// compresses from.  Applies in `O(n^2)` entry evaluations; the honest
/// baseline the HODLR-accelerated apply is measured against.
pub struct SourceOperator<'a, T: Scalar, S: MatrixEntrySource<T> + ?Sized> {
    source: &'a S,
    _marker: std::marker::PhantomData<T>,
}

impl<'a, T: Scalar, S: MatrixEntrySource<T> + ?Sized> SourceOperator<'a, T, S> {
    /// Wrap a square entry source.
    ///
    /// # Panics
    /// Panics if the source is not square.
    pub fn new(source: &'a S) -> Self {
        assert_eq!(
            source.nrows(),
            source.ncols(),
            "operator sources are square"
        );
        SourceOperator {
            source,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T: Scalar, S: MatrixEntrySource<T> + ?Sized> LinearOperator<T> for SourceOperator<'_, T, S> {
    fn dim(&self) -> usize {
        self.source.nrows()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        let n = self.dim();
        assert_eq!(x.len(), n, "apply: x has the wrong length");
        assert_eq!(y.len(), n, "apply: y has the wrong length");
        for (i, yi) in y.iter_mut().enumerate() {
            let mut acc = T::zero();
            for (j, &xj) in x.iter().enumerate() {
                acc += self.source.entry(i, j) * xj;
            }
            *yi = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hodlr_compress::ClosureSource;
    use hodlr_core::matrix::random_hodlr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn hodlr_and_dense_operators_agree() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = random_hodlr::<f64, _>(&mut rng, 48, 2, 3);
        let dense = m.to_dense();
        let x: Vec<f64> = (0..48).map(|i| (i as f64 * 0.3).sin()).collect();
        let y_h = m.apply_vec(&x);
        let y_d = dense.apply_vec(&x);
        for (a, b) in y_h.iter().zip(&y_d) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn source_operator_matches_dense_apply() {
        let src = ClosureSource::new(20, 20, |i, j| 1.0 / (1.0 + (i as f64 - j as f64).abs()));
        let op = SourceOperator::new(&src);
        assert_eq!(op.dim(), 20);
        let dense = src.to_dense();
        let x: Vec<f64> = (0..20).map(|i| i as f64 - 10.0).collect();
        let y_s = op.apply_vec(&x);
        let y_d = dense.apply_vec(&x);
        for (a, b) in y_s.iter().zip(&y_d) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn block_apply_matches_column_apply() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = random_hodlr::<f64, _>(&mut rng, 32, 2, 2);
        let x = hodlr_la::random::random_matrix(&mut rng, 32, 4);
        let y = m.apply_to_block(&x);
        for j in 0..4 {
            let yj = m.apply_vec(x.col(j));
            for i in 0..32 {
                assert!((y[(i, j)] - yj[i]).abs() < 1e-12);
            }
        }
    }
}
