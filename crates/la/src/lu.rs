//! LU factorization with partial (row) pivoting and associated solves.
//!
//! This is the workhorse of the HODLR solver: every leaf diagonal block and
//! every 2r x 2r coefficient matrix `K` (Eq. 11) is factorized with `getrf`
//! and solved with `getrs`.  The routines operate in place on views so that
//! the batched engine in `hodlr-batch` can run them on sub-blocks of one big
//! buffer, mirroring cuBLAS `getrfBatched`/`getrsBatched`.

use crate::blas::{axpy_slice_body, Op};
use crate::dense::{DenseMatrix, MatMut, MatRef};
use crate::isa::multiversion;
use crate::scalar::{RealScalar, Scalar};

/// Error returned when a factorization encounters an exactly singular pivot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingularError {
    /// Zero pivot position (0-based), mirroring LAPACK's `info` convention.
    pub pivot: usize,
}

impl std::fmt::Display for SingularError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is singular: zero pivot at position {}",
            self.pivot
        )
    }
}

impl std::error::Error for SingularError {}

/// Panel width of the blocked factorization (LAPACK's `NB`).
const GETRF_NB: usize = 64;

/// Below this order the unblocked kernel runs directly (the blocked
/// bookkeeping does not pay off on the small `2r x 2r` HODLR blocks).
const GETRF_BLOCK_MIN: usize = 128;

/// In-place LU factorization with partial pivoting (LAPACK `getrf`).
///
/// Blocked right-looking algorithm: panels of `GETRF_NB` columns are
/// factorized with the unblocked kernel, then the trailing submatrix is
/// updated with one triangular solve and one [`crate::blas::gemm`] — so the
/// bulk of the flops run through the BLAS-3 microkernel and inherit its
/// thread-count-independent determinism.  Matrices below
/// `GETRF_BLOCK_MIN` use the unblocked kernel directly.
///
/// On success the strictly lower triangle of `a` holds `L` (unit diagonal
/// implicit), the upper triangle holds `U`, and the returned vector holds the
/// pivot rows: at step `k` row `k` was swapped with row `piv[k]`.
///
/// Returns [`SingularError`] when a pivot is exactly zero; the factorization
/// is left in a partially updated state in that case.
pub fn getrf_in_place<T: Scalar>(mut a: MatMut<'_, T>) -> Result<Vec<usize>, SingularError> {
    let m = a.rows();
    let n_cols = a.cols();
    let n = m.min(n_cols);
    if n <= GETRF_BLOCK_MIN {
        return getrf_unblocked(a);
    }

    let mut piv = Vec::with_capacity(n);
    let mut k = 0;
    while k < n {
        let ib = GETRF_NB.min(n - k);

        // Factor the current panel (full remaining height) unblocked.
        let panel_piv = match getrf_unblocked(a.block_mut(k, k, m - k, ib)) {
            Ok(p) => p,
            Err(e) => {
                return Err(SingularError { pivot: k + e.pivot });
            }
        };
        // Replay the panel's row interchanges on the columns outside it and
        // record them globally.
        for (j, &p) in panel_piv.iter().enumerate() {
            piv.push(k + p);
            if p != j {
                let mut left = a.block_mut(k, 0, m - k, k);
                swap_rows(&mut left, j, p);
                if k + ib < n_cols {
                    let mut right = a.block_mut(k, k + ib, m - k, n_cols - k - ib);
                    swap_rows(&mut right, j, p);
                }
            }
        }

        if k + ib < n_cols {
            let nt = n_cols - k - ib;
            // Split so the factored panel (left) can be read while the
            // trailing columns (right) are updated in place.
            let (left, mut right) = a.reborrow().split_at_col_mut(k + ib);
            let left = left.as_ref();

            // U12 <- L11^{-1} A12 (unit lower triangular solve).
            crate::triangular::solve_triangular_in_place(
                left.block(k, k, ib, ib),
                crate::triangular::Triangle::Lower,
                crate::triangular::Diag::Unit,
                right.block_mut(k, 0, ib, nt),
            );

            if k + ib < m {
                // A22 -= L21 * U12.  U12 is copied out so the trailing block
                // can be borrowed mutably; the copy is one panel row-slab
                // (ib x nt) and gemm would repack it anyway.
                let u12 = right.as_ref().block(k, 0, ib, nt).to_owned();
                crate::blas::gemm(
                    -T::one(),
                    left.block(k + ib, k, m - k - ib, ib),
                    Op::None,
                    u12.as_ref(),
                    Op::None,
                    T::one(),
                    right.block_mut(k + ib, 0, m - k - ib, nt),
                );
            }
        }
        k += ib;
    }
    Ok(piv)
}

multiversion! {
    /// The unblocked right-looking kernel (also the panel factorization of
    /// the blocked path).  Pivot rows are local to the view.
    pub(crate) fn getrf_unblocked<T: Scalar>(
        a: MatMut<'_, T>,
    ) -> Result<Vec<usize>, SingularError> = getrf_unblocked_body;
}

#[inline(always)]
pub(crate) fn getrf_unblocked_body<T: Scalar>(
    mut a: MatMut<'_, T>,
) -> Result<Vec<usize>, SingularError> {
    let m = a.rows();
    let n = m.min(a.cols());
    let mut piv = Vec::with_capacity(n);
    // Scratch for the pivot column, so the rank-1 trailing update can run on
    // contiguous column slices.
    let mut lcol: Vec<T> = Vec::with_capacity(m);

    for k in 0..n {
        // Pivot search: largest modulus in column k at or below the diagonal.
        let col_k = a.col_mut(k);
        let mut p = k;
        let mut best = col_k[k].abs();
        for (i, v) in col_k.iter().enumerate().skip(k + 1) {
            let v = v.abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        piv.push(p);
        if best == <T::Real as Scalar>::zero() {
            return Err(SingularError { pivot: k });
        }
        if p != k {
            swap_rows(&mut a, k, p);
        }
        // Scale the subdiagonal of column k and stash it for the update.
        let col_k = a.col_mut(k);
        let pivot_inv = col_k[k].recip();
        for v in col_k[k + 1..].iter_mut() {
            *v *= pivot_inv;
        }
        lcol.clear();
        lcol.extend_from_slice(&col_k[k + 1..]);
        // Rank-1 trailing update: A[k+1.., j] -= U[k, j] * L[k+1.., k].
        for j in (k + 1)..a.cols() {
            let col_j = a.col_mut(j);
            let ukj = col_j[k];
            if ukj == T::zero() {
                continue;
            }
            axpy_slice_body(-ukj, &lcol, &mut col_j[k + 1..]);
        }
    }
    Ok(piv)
}

fn swap_rows<T: Scalar>(a: &mut MatMut<'_, T>, r1: usize, r2: usize) {
    for j in 0..a.cols() {
        let t = a.get(r1, j);
        let v = a.get(r2, j);
        a.set(r1, j, v);
        a.set(r2, j, t);
    }
}

/// Apply the row interchanges recorded by [`getrf_in_place`] to a right-hand
/// side (LAPACK `laswp` forward direction).
pub fn apply_pivots_forward<T: Scalar>(piv: &[usize], mut b: MatMut<'_, T>) {
    for (k, &p) in piv.iter().enumerate() {
        if p != k {
            swap_rows(&mut b, k, p);
        }
    }
}

/// Solve `A X = B` in place given the in-place LU factors and pivots
/// (LAPACK `getrs`, no-transpose).  `B` is overwritten with the solution.
pub fn getrs_in_place<T: Scalar>(lu: MatRef<'_, T>, piv: &[usize], mut b: MatMut<'_, T>) {
    assert_eq!(lu.rows(), lu.cols(), "getrs: factor must be square");
    assert_eq!(lu.rows(), b.rows(), "getrs: rhs has wrong row count");
    apply_pivots_forward(piv, b.reborrow());
    crate::triangular::solve_triangular_in_place(
        lu,
        crate::triangular::Triangle::Lower,
        crate::triangular::Diag::Unit,
        b.reborrow(),
    );
    crate::triangular::solve_triangular_in_place(
        lu,
        crate::triangular::Triangle::Upper,
        crate::triangular::Diag::NonUnit,
        b,
    );
}

/// An owned LU factorization of a square matrix.
#[derive(Clone)]
pub struct LuFactor<T> {
    lu: DenseMatrix<T>,
    piv: Vec<usize>,
}

impl<T: Scalar> std::fmt::Debug for LuFactor<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LuFactor")
            .field("order", &self.lu.rows())
            .field("piv", &self.piv)
            .finish()
    }
}

impl<T: Scalar> LuFactor<T> {
    /// Factorize a square matrix (copying it).
    pub fn new(a: &DenseMatrix<T>) -> Result<Self, SingularError> {
        assert_eq!(a.rows(), a.cols(), "LuFactor requires a square matrix");
        let mut lu = a.clone();
        let piv = getrf_in_place(lu.as_mut())?;
        Ok(Self { lu, piv })
    }

    /// Factorize, taking ownership of the matrix storage.
    pub fn from_matrix(mut a: DenseMatrix<T>) -> Result<Self, SingularError> {
        assert_eq!(a.rows(), a.cols(), "LuFactor requires a square matrix");
        let piv = getrf_in_place(a.as_mut())?;
        Ok(Self { lu: a, piv })
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.lu.rows()
    }

    /// Solve `A x = b`, returning the solution.
    pub fn solve_vec(&self, b: &[T]) -> Vec<T> {
        assert_eq!(b.len(), self.order());
        let mut x = b.to_vec();
        let n = x.len();
        getrs_in_place(
            self.lu.as_ref(),
            &self.piv,
            MatMut::from_parts(&mut x, n, 1, n.max(1)),
        );
        x
    }

    /// Solve `A X = B` for a multi-column right-hand side in place.
    pub fn solve_in_place(&self, b: MatMut<'_, T>) {
        getrs_in_place(self.lu.as_ref(), &self.piv, b);
    }

    /// Solve `A X = B`, returning the solution matrix.
    pub fn solve_matrix(&self, b: &DenseMatrix<T>) -> DenseMatrix<T> {
        let mut x = b.clone();
        self.solve_in_place(x.as_mut());
        x
    }

    /// Logarithm of the absolute determinant plus the sign/phase factor.
    ///
    /// Returns `(log|det|, s)` where `det = s * exp(log|det|)` and `|s| = 1`.
    pub fn log_det(&self) -> (T::Real, T) {
        let n = self.order();
        log_det_from_parts((0..n).map(|i| self.lu[(i, i)]), &self.piv)
    }

    /// The factored matrix data (L and U packed), useful for testing.
    pub fn factors(&self) -> (&DenseMatrix<T>, &[usize]) {
        (&self.lu, &self.piv)
    }

    /// Explicitly form the inverse (for small matrices / testing only).
    pub fn inverse(&self) -> DenseMatrix<T> {
        let n = self.order();
        let id = DenseMatrix::identity(n);
        self.solve_matrix(&id)
    }
}

/// Log-determinant contribution of one packed LU factor, given its diagonal
/// entries (in order) and its pivot rows.
///
/// Returns `(log|det|, s)` with `det = s * exp(log|det|)` and `|s| = 1`.
/// This is the *one* accumulation both solver backends use — the serial
/// factorization through [`LuFactor::log_det`] and the batched device
/// through the diagonals gathered by its extraction kernel — so the
/// product-form `log_det` of the two backends agrees bitwise whenever the
/// underlying LU factors do.
pub fn log_det_from_parts<T: Scalar>(diag: impl Iterator<Item = T>, piv: &[usize]) -> (T::Real, T) {
    let mut log_abs = T::Real::zero();
    let mut phase = T::one();
    let mut swaps = 0usize;
    for (k, &p) in piv.iter().enumerate() {
        if p != k {
            swaps += 1;
        }
    }
    for d in diag {
        log_abs += d.abs().ln();
        phase *= d.scale(d.abs().recip_or_one());
    }
    if swaps % 2 == 1 {
        phase = -phase;
    }
    (log_abs, phase)
}

/// Internal helper: `1 / x` but 1 when `x == 0`, used to normalise phases.
trait RecipOrOne {
    fn recip_or_one(self) -> Self;
}
impl<R: RealScalar> RecipOrOne for R {
    fn recip_or_one(self) -> Self {
        if self == R::zero() {
            R::one()
        } else {
            R::one() / self
        }
    }
}

/// Solve a dense system `A x = b` with a fresh LU factorization.
pub fn solve_dense<T: Scalar>(a: &DenseMatrix<T>, b: &[T]) -> Result<Vec<T>, SingularError> {
    Ok(LuFactor::new(a)?.solve_vec(b))
}

/// Reconstruct `P * A` from packed LU factors: used by tests to check
/// `P A = L U`.
pub fn reconstruct_pa<T: Scalar>(a: &DenseMatrix<T>, piv: &[usize]) -> DenseMatrix<T> {
    let mut pa = a.clone();
    let mut view = pa.as_mut();
    for (k, &p) in piv.iter().enumerate() {
        if p != k {
            swap_rows(&mut view, k, p);
        }
    }
    pa
}

/// Multiply the packed `L` and `U` factors back together (testing helper).
pub fn multiply_lu<T: Scalar>(lu: &DenseMatrix<T>) -> DenseMatrix<T> {
    let n = lu.rows();
    let m = lu.cols();
    let k = n.min(m);
    let l = DenseMatrix::from_fn(n, k, |i, j| {
        if i > j {
            lu[(i, j)]
        } else if i == j {
            T::one()
        } else {
            T::zero()
        }
    });
    let u = DenseMatrix::from_fn(k, m, |i, j| if i <= j { lu[(i, j)] } else { T::zero() });
    let mut c = DenseMatrix::zeros(n, m);
    crate::blas::gemm(
        T::one(),
        l.as_ref(),
        Op::None,
        u.as_ref(),
        Op::None,
        T::zero(),
        c.as_mut(),
    );
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_matrix;
    use crate::Complex64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lu_reconstructs_pa() {
        let mut rng = StdRng::seed_from_u64(7);
        let a: DenseMatrix<f64> = random_matrix(&mut rng, 8, 8);
        let mut lu = a.clone();
        let piv = getrf_in_place(lu.as_mut()).unwrap();
        let pa = reconstruct_pa(&a, &piv);
        let prod = multiply_lu(&lu);
        assert!(pa.sub(&prod).norm_max() < 1e-12);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let mut rng = StdRng::seed_from_u64(11);
        let a: DenseMatrix<f64> = random_matrix(&mut rng, 12, 12);
        let x_true: Vec<f64> = (0..12).map(|i| (i as f64) - 5.5).collect();
        let b = a.matvec(&x_true);
        let f = LuFactor::new(&a).unwrap();
        let x = f.solve_vec(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn complex_solve() {
        let mut rng = StdRng::seed_from_u64(13);
        let a: DenseMatrix<Complex64> = random_matrix(&mut rng, 9, 9);
        let x_true: Vec<Complex64> = (0..9)
            .map(|i| Complex64::new(i as f64, -(i as f64) / 2.0))
            .collect();
        let b = a.matvec(&x_true);
        let x = solve_dense(&a, &b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((*xi - *ti).abs() < 1e-9);
        }
    }

    #[test]
    fn multi_rhs_solve() {
        let mut rng = StdRng::seed_from_u64(17);
        let a: DenseMatrix<f64> = random_matrix(&mut rng, 10, 10);
        let x_true: DenseMatrix<f64> = random_matrix(&mut rng, 10, 4);
        let b = a.matmul(&x_true);
        let f = LuFactor::new(&a).unwrap();
        let x = f.solve_matrix(&b);
        assert!(x.sub(&x_true).norm_max() < 1e-10);
    }

    #[test]
    fn singular_matrix_reports_error() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        let err = LuFactor::new(&a).unwrap_err();
        assert_eq!(err.pivot, 1);
        assert!(err.to_string().contains("singular"));
    }

    #[test]
    fn log_det_matches_known_determinant() {
        // det = 2 * 3 * 4 = 24 for a triangular matrix.
        let a: DenseMatrix<f64> = DenseMatrix::from_rows(&[
            vec![2.0, 1.0, 0.0],
            vec![0.0, 3.0, 5.0],
            vec![0.0, 0.0, 4.0],
        ]);
        let f = LuFactor::new(&a).unwrap();
        let (log_abs, sign) = f.log_det();
        assert!((log_abs - 24.0_f64.ln()).abs() < 1e-12);
        assert!((sign - 1.0).abs() < 1e-12);

        // Swap two rows: determinant flips sign.
        let b: DenseMatrix<f64> = DenseMatrix::from_rows(&[
            vec![0.0, 3.0, 5.0],
            vec![2.0, 1.0, 0.0],
            vec![0.0, 0.0, 4.0],
        ]);
        let f = LuFactor::new(&b).unwrap();
        let (log_abs, sign) = f.log_det();
        assert!((log_abs - 24.0_f64.ln()).abs() < 1e-12);
        assert!((sign + 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let mut rng = StdRng::seed_from_u64(23);
        let a: DenseMatrix<f64> = random_matrix(&mut rng, 6, 6);
        let inv = LuFactor::new(&a).unwrap().inverse();
        let id = a.matmul(&inv);
        assert!(id.sub(&DenseMatrix::identity(6)).norm_max() < 1e-10);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let f = LuFactor::new(&a).unwrap();
        let x = f.solve_vec(&[2.0, 3.0]);
        assert_eq!(x, vec![3.0, 2.0]);
    }
}
