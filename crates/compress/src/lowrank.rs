//! The `U V^*` factor pair produced by compression.

use hodlr_la::qr::thin_qr;
use hodlr_la::svd::jacobi_svd;
use hodlr_la::{gemm, DenseMatrix, Op, RealScalar, Scalar};

/// A low-rank representation `A ~= U V^*` of an `m x n` block
/// (Eq. 5 of the paper): `U` is `m x r` and `V` is `n x r`.
#[derive(Clone, Debug)]
pub struct LowRank<T: Scalar> {
    /// Left factor (`m x r`).
    pub u: DenseMatrix<T>,
    /// Right factor (`n x r`); the block is `U V^*`, not `U V`.
    pub v: DenseMatrix<T>,
}

impl<T: Scalar> LowRank<T> {
    /// Wrap a factor pair.
    ///
    /// # Panics
    /// Panics if `U` and `V` have different numbers of columns.
    pub fn new(u: DenseMatrix<T>, v: DenseMatrix<T>) -> Self {
        assert_eq!(u.cols(), v.cols(), "U and V must share the rank dimension");
        LowRank { u, v }
    }

    /// The zero block of the given shape (rank 0).
    pub fn zero(m: usize, n: usize) -> Self {
        LowRank {
            u: DenseMatrix::zeros(m, 0),
            v: DenseMatrix::zeros(n, 0),
        }
    }

    /// The rank of the representation (number of columns of `U`).
    pub fn rank(&self) -> usize {
        self.u.cols()
    }

    /// Rows of the represented block.
    pub fn nrows(&self) -> usize {
        self.u.rows()
    }

    /// Columns of the represented block.
    pub fn ncols(&self) -> usize {
        self.v.rows()
    }

    /// Number of scalar entries stored by the factors.
    pub fn storage(&self) -> usize {
        self.u.rows() * self.u.cols() + self.v.rows() * self.v.cols()
    }

    /// Materialise `U V^*` densely.
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut a = DenseMatrix::zeros(self.nrows(), self.ncols());
        if self.rank() > 0 {
            gemm(
                T::one(),
                self.u.as_ref(),
                Op::None,
                self.v.as_ref(),
                Op::ConjTrans,
                T::zero(),
                a.as_mut(),
            );
        }
        a
    }

    /// `y <- U (V^* x)` for a single vector.
    pub fn apply(&self, x: &[T]) -> Vec<T> {
        let mut tmp = vec![T::zero(); self.rank()];
        hodlr_la::gemv(
            T::one(),
            self.v.as_ref(),
            Op::ConjTrans,
            x,
            T::zero(),
            &mut tmp,
        );
        let mut y = vec![T::zero(); self.nrows()];
        hodlr_la::gemv(T::one(), self.u.as_ref(), Op::None, &tmp, T::zero(), &mut y);
        y
    }

    /// Frobenius-norm error `||A - U V^*||_F` against a dense reference.
    pub fn reconstruction_error(&self, reference: &DenseMatrix<T>) -> T::Real {
        reference.sub(&self.to_dense()).norm_fro()
    }

    /// Recompress the pair to a (possibly) smaller rank at relative
    /// tolerance `tol`: QR-factorize both factors, SVD the small core, and
    /// truncate.  This is how an ACA or randomized factorization is squeezed
    /// to its numerical rank before entering `Ubig`/`Vbig`.
    pub fn recompress(&self, tol: T::Real) -> LowRank<T> {
        let r = self.rank();
        if r == 0 {
            return self.clone();
        }
        let (qu, ru) = thin_qr(&self.u);
        let (qv, rv) = thin_qr(&self.v);
        // Core = R_u R_v^*, size r x r (cheap).
        let mut core = DenseMatrix::zeros(ru.rows(), rv.rows());
        gemm(
            T::one(),
            ru.as_ref(),
            Op::None,
            rv.as_ref(),
            Op::ConjTrans,
            T::zero(),
            core.as_mut(),
        );
        let svd = jacobi_svd(&core);
        let k = svd.rank(tol);
        let (cu, cv) = svd.truncate(k);
        // U_new = Q_u * (core U factor), V_new = Q_v * (core V factor).
        let mut u = DenseMatrix::zeros(self.nrows(), k);
        let mut v = DenseMatrix::zeros(self.ncols(), k);
        if k > 0 {
            gemm(
                T::one(),
                qu.as_ref(),
                Op::None,
                cu.as_ref(),
                Op::None,
                T::zero(),
                u.as_mut(),
            );
            gemm(
                T::one(),
                qv.as_ref(),
                Op::None,
                cv.as_ref(),
                Op::None,
                T::zero(),
                v.as_mut(),
            );
        }
        LowRank { u, v }
    }

    /// Relative Frobenius error estimated by sampling random probe vectors:
    /// `||(A - UV^*) x|| / ||A x||` averaged over `samples` Gaussian probes.
    /// Used when the reference block is only available as an entry source.
    pub fn sampled_error<S, R>(&self, source: &S, rng: &mut R, samples: usize) -> T::Real
    where
        S: crate::source::MatrixEntrySource<T> + ?Sized,
        R: rand::Rng + ?Sized,
    {
        let n = self.ncols();
        let m = self.nrows();
        let mut num = T::Real::zero();
        let mut den = T::Real::zero();
        let mut col = vec![T::zero(); m];
        for _ in 0..samples.max(1) {
            let x: Vec<T> = (0..n)
                .map(|_| hodlr_la::random::random_scalar(rng))
                .collect();
            // Exact product column by column.
            let mut ax = vec![T::zero(); m];
            for (j, &xj) in x.iter().enumerate() {
                source.col(j, &mut col);
                for i in 0..m {
                    ax[i] += col[i] * xj;
                }
            }
            let approx = self.apply(&x);
            let mut diff = T::Real::zero();
            let mut norm = T::Real::zero();
            for i in 0..m {
                diff += (ax[i] - approx[i]).abs_sqr();
                norm += ax[i].abs_sqr();
            }
            num += diff.sqrt_real();
            den += norm.sqrt_real();
        }
        if den == T::Real::zero() {
            T::Real::zero()
        } else {
            num / den
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::DenseSource;
    use hodlr_la::random::{gaussian_matrix, random_low_rank};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_block_has_rank_zero() {
        let lr = LowRank::<f64>::zero(5, 7);
        assert_eq!(lr.rank(), 0);
        assert_eq!(lr.to_dense(), DenseMatrix::zeros(5, 7));
        assert_eq!(lr.apply(&[1.0; 7]), vec![0.0; 5]);
        assert_eq!(lr.storage(), 0);
    }

    #[test]
    fn apply_matches_dense_product() {
        let mut rng = StdRng::seed_from_u64(5);
        let u: DenseMatrix<f64> = gaussian_matrix(&mut rng, 12, 3);
        let v: DenseMatrix<f64> = gaussian_matrix(&mut rng, 9, 3);
        let lr = LowRank::new(u, v);
        let x: Vec<f64> = (0..9).map(|i| i as f64 * 0.3 - 1.0).collect();
        let y = lr.apply(&x);
        let y_ref = lr.to_dense().matvec(&x);
        for (a, b) in y.iter().zip(y_ref.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn recompress_reduces_inflated_rank() {
        let mut rng = StdRng::seed_from_u64(6);
        // Build a rank-4 block stored with rank 10 (duplicate columns).
        let base: DenseMatrix<f64> = random_low_rank(&mut rng, 30, 20, 4);
        let svd = hodlr_la::svd::jacobi_svd(&base);
        let (u4, v4) = svd.truncate(4);
        let inflated = LowRank::new(
            u4.hcat(&u4).hcat(&u4.sub_matrix(0, 0, 30, 2)),
            v4.hcat(&v4).hcat(&v4.sub_matrix(0, 0, 20, 2)),
        );
        assert_eq!(inflated.rank(), 10);
        let lr = inflated.recompress(1e-12);
        assert!(lr.rank() <= 5, "rank after recompression: {}", lr.rank());
        let err = lr.reconstruction_error(&inflated.to_dense());
        assert!(err < 1e-10 * inflated.to_dense().norm_fro().max(1.0));
    }

    #[test]
    fn sampled_error_is_small_for_exact_representation() {
        let mut rng = StdRng::seed_from_u64(8);
        let a: DenseMatrix<f64> = random_low_rank(&mut rng, 25, 25, 5);
        let svd = hodlr_la::svd::jacobi_svd(&a);
        let (u, v) = svd.truncate(5);
        let lr = LowRank::new(u, v);
        let err = lr.sampled_error(&DenseSource::new(&a), &mut rng, 4);
        assert!(err < 1e-10, "sampled error {err}");
    }

    #[test]
    #[should_panic(expected = "rank dimension")]
    fn mismatched_factor_ranks_panic() {
        let u = DenseMatrix::<f64>::zeros(4, 2);
        let v = DenseMatrix::<f64>::zeros(4, 3);
        let _ = LowRank::new(u, v);
    }
}
