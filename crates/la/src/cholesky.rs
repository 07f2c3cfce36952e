//! Symmetric/Hermitian factorizations: blocked Cholesky (`potrf`), unpivoted
//! LDL^H, and a Bunch-Kaufman symmetric-indefinite fallback.
//!
//! Every GP covariance and every SPD HODLR leaf block is Hermitian positive
//! definite, so factorizing it as `L L^H` costs `n^3/3` flops — half of
//! pivoted LU — and its `log_det` reads off the Cholesky diagonal with no
//! pivot signs to fold.  The HODLR coupling matrices `K = [[T_a, I], [I,
//! T_b]]` are Hermitian but *indefinite* even when the matrix is SPD, so the
//! solver ladders down: `L L^H` first, unpivoted `L D L^H` with a growth
//! guard second, Bunch-Kaufman partial pivoting last.  All three kernels
//! read and write **only the lower triangle** of their input (the strictly
//! upper triangle is never referenced and is left unspecified), operate in
//! place on views, and are deterministic at every thread count because their
//! blocked updates route through [`crate::blas::gemm`].

use crate::blas::{axpy_slice_body, Op};
use crate::dense::{DenseMatrix, MatMut, MatRef};
use crate::error::HodlrError;
use crate::isa::multiversion;
use crate::scalar::{RealScalar, Scalar};
use crate::triangular::{
    pack_lanes, solve_triangular_in_place, unpack_lanes, Diag, Triangle, LANES,
};

/// Error from a symmetric factorization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymmetricError {
    /// A leading minor was found to be not positive definite (an `L L^H`
    /// pivot was zero, negative, or non-finite), mirroring LAPACK `potrf`'s
    /// positive `info`.
    NotPositiveDefinite {
        /// Position of the failing pivot (0-based).
        pivot: usize,
    },
    /// The matrix is singular (a zero pivot that no fallback can repair).
    Singular {
        /// Position of the zero pivot (0-based).
        pivot: usize,
    },
}

impl std::fmt::Display for SymmetricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymmetricError::NotPositiveDefinite { pivot } => write!(
                f,
                "matrix is not positive definite: non-positive pivot at position {pivot}"
            ),
            SymmetricError::Singular { pivot } => write!(
                f,
                "matrix is singular: zero pivot at position {pivot} in symmetric factorization"
            ),
        }
    }
}

impl std::error::Error for SymmetricError {}

impl SymmetricError {
    /// Promote to a [`HodlrError`] naming the matrix that failed (e.g.
    /// `"diagonal block of leaf 3"`).
    pub fn into_hodlr(self, context: impl Into<String>) -> HodlrError {
        match self {
            SymmetricError::NotPositiveDefinite { pivot } => HodlrError::NotPositiveDefinite {
                context: format!("{} (Cholesky pivot {pivot})", context.into()),
            },
            SymmetricError::Singular { pivot } => HodlrError::SingularPivot {
                context: context.into(),
                pivot,
                batch_index: None,
            },
        }
    }
}

/// Panel width of the blocked Cholesky (LAPACK's `NB`), matching the LU
/// panel width so the two factorizations hit the packed gemm identically.
const POTRF_NB: usize = 64;

/// Below this order the unblocked kernel runs directly.
const POTRF_BLOCK_MIN: usize = 128;

/// In-place lower Cholesky factorization `A = L L^H` (LAPACK `potrf`,
/// `uplo = 'L'`).
///
/// Blocked right-looking algorithm: a panel of `POTRF_NB` columns (full
/// remaining height) is factorized unblocked — which folds the panel's
/// triangular solve into the same column sweep — and the trailing submatrix
/// receives a syrk-shaped update `A22 -= L21 L21^H` evaluated on the lower
/// trapezoid only, as one [`crate::blas::gemm`] per column panel (half the
/// flops of the full rectangular product).
///
/// Only the lower triangle of `a` is read; on success it holds `L` and the
/// strictly upper triangle is unspecified.
///
/// # Errors
/// [`SymmetricError::NotPositiveDefinite`] when a pivot is zero, negative,
/// or non-finite; `a` is left partially updated in that case.
pub fn potrf_in_place<T: Scalar>(mut a: MatMut<'_, T>) -> Result<(), SymmetricError> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "potrf: matrix must be square");
    if n <= POTRF_BLOCK_MIN {
        return potf2_unblocked(a);
    }

    let mut k = 0;
    while k < n {
        let ib = POTRF_NB.min(n - k);
        potf2_unblocked(a.block_mut(k, k, n - k, ib)).map_err(|e| match e {
            SymmetricError::NotPositiveDefinite { pivot } => {
                SymmetricError::NotPositiveDefinite { pivot: k + pivot }
            }
            other => other,
        })?;

        let kt = k + ib;
        if kt < n {
            let mt = n - kt;
            // Split so the factored panel (left) can be read while the
            // trailing columns (right) are updated in place.
            let (left, mut right) = a.reborrow().split_at_col_mut(kt);
            let left = left.as_ref();
            let l21 = left.block(kt, k, mt, ib);

            // A22 -= L21 L21^H on the lower trapezoid: one gemm per column
            // panel of the trailing matrix, rows j0.. only.
            let mut j0 = 0;
            while j0 < mt {
                let jb = POTRF_NB.min(mt - j0);
                crate::blas::gemm(
                    -T::one(),
                    l21.block(j0, 0, mt - j0, ib),
                    Op::None,
                    l21.block(j0, 0, jb, ib),
                    Op::ConjTrans,
                    T::one(),
                    right.block_mut(kt + j0, j0, mt - j0, jb),
                );
                j0 += jb;
            }
        }
        k += ib;
    }
    Ok(())
}

multiversion! {
    /// The unblocked kernel (also the panel factorization of the blocked
    /// path): for an `m x n` panel with `n <= m`, computes the
    /// lower-trapezoidal `L` with `panel = L_panel L11^H`, sweeping columns
    /// left to right with one contiguous axpy per trailing column.
    pub(crate) fn potf2_unblocked<T: Scalar>(
        a: MatMut<'_, T>,
    ) -> Result<(), SymmetricError> = potf2_unblocked_body;
}

#[inline(always)]
pub(crate) fn potf2_unblocked_body<T: Scalar>(mut a: MatMut<'_, T>) -> Result<(), SymmetricError> {
    let m = a.rows();
    let n = a.cols();
    debug_assert!(n <= m, "potf2: panel must be at least as tall as wide");
    // Scratch for the pivot column, so trailing updates run on contiguous
    // column slices.
    let mut lcol: Vec<T> = Vec::with_capacity(m);

    for k in 0..n {
        let col_k = a.col_mut(k);
        let d = col_k[k].real();
        if !d.is_finite() || d <= T::Real::zero() {
            return Err(SymmetricError::NotPositiveDefinite { pivot: k });
        }
        let lkk = d.sqrt_real();
        col_k[k] = T::from_real(lkk);
        let inv = T::Real::one() / lkk;
        for v in col_k[k + 1..].iter_mut() {
            *v = v.scale(inv);
        }
        lcol.clear();
        lcol.extend_from_slice(&col_k[k + 1..]);
        // Trailing update on the lower trapezoid:
        // A[j.., j] -= conj(L[j, k]) * L[j.., k].
        for j in (k + 1)..n {
            let ljk = lcol[j - k - 1];
            if ljk == T::zero() {
                continue;
            }
            let col_j = a.col_mut(j);
            axpy_slice_body(-ljk.conj(), &lcol[j - k - 1..], &mut col_j[j..]);
        }
    }
    Ok(())
}

/// Solve `L^H X = B` in place by backward substitution, where `L` is the
/// lower-triangular factor (the transpose solve [`crate::triangular`] does
/// not provide).  Full groups of eight columns are solved side by side,
/// bitwise as one at a time (see [`crate::triangular`]).
pub fn solve_conj_transpose_lower_in_place<T: Scalar>(
    l: MatRef<'_, T>,
    diag: Diag,
    mut b: MatMut<'_, T>,
) {
    let n = l.rows();
    assert_eq!(n, l.cols(), "conj-transpose solve: factor must be square");
    assert_eq!(n, b.rows(), "conj-transpose solve: rhs has wrong row count");
    if n == 0 {
        return;
    }

    let grouped = b.cols() - b.cols() % LANES;
    if grouped > 0 {
        solve_conj_transpose_lower_lanes(l, diag, b.block_mut(0, 0, n, grouped));
    }
    for c in grouped..b.cols() {
        solve_conj_transpose_lower_col(l, diag, b.col_mut(c));
    }
}

multiversion! {
    /// The lane kernel of [`solve_conj_transpose_lower_in_place`]: solves
    /// every column of `b`, whose count is a multiple of eight.
    pub(crate) fn solve_conj_transpose_lower_lanes<T: Scalar>(
        l: MatRef<'_, T>,
        diag: Diag,
        b: MatMut<'_, T>,
    ) = solve_conj_transpose_lower_lanes_body;
}

#[inline(always)]
pub(crate) fn solve_conj_transpose_lower_lanes_body<T: Scalar>(
    l: MatRef<'_, T>,
    diag: Diag,
    mut b: MatMut<'_, T>,
) {
    let n = l.rows();
    debug_assert_eq!(b.cols() % LANES, 0);
    let mut x = vec![[T::zero(); LANES]; n];
    for j0 in (0..b.cols()).step_by(LANES) {
        pack_lanes(&b, j0, &mut x);
        // Each lane runs `solve_conj_transpose_lower_col`'s steps.
        for k in (0..n).rev() {
            let lk = l.col(k);
            let mut s = [T::zero(); LANES];
            for (&lik, xi) in lk[k + 1..].iter().zip(&x[k + 1..]) {
                let c = lik.conj();
                for (sl, &xil) in s.iter_mut().zip(xi) {
                    *sl += c * xil;
                }
            }
            let mut v = x[k];
            for (vl, sl) in v.iter_mut().zip(s) {
                *vl -= sl;
            }
            if matches!(diag, Diag::NonUnit) {
                let r = lk[k].conj().recip();
                for vl in &mut v {
                    *vl *= r;
                }
            }
            x[k] = v;
        }
        unpack_lanes(&x, &mut b, j0);
    }
}

/// One column of [`solve_conj_transpose_lower_in_place`].
pub(crate) fn solve_conj_transpose_lower_col<T: Scalar>(l: MatRef<'_, T>, diag: Diag, x: &mut [T]) {
    for k in (0..x.len()).rev() {
        let lk = l.col(k);
        let s = crate::blas::dot_conj(&lk[k + 1..], &x[k + 1..]);
        let mut v = x[k] - s;
        if matches!(diag, Diag::NonUnit) {
            v *= lk[k].conj().recip();
        }
        x[k] = v;
    }
}

/// Solve `A X = B` in place given the Cholesky factor from
/// [`potrf_in_place`] (LAPACK `potrs`): forward solve with `L`, backward
/// solve with `L^H`.
pub fn potrs_in_place<T: Scalar>(l: MatRef<'_, T>, mut b: MatMut<'_, T>) {
    assert_eq!(l.rows(), l.cols(), "potrs: factor must be square");
    assert_eq!(l.rows(), b.rows(), "potrs: rhs has wrong row count");
    solve_triangular_in_place(l, Triangle::Lower, Diag::NonUnit, b.reborrow());
    solve_conj_transpose_lower_in_place(l, Diag::NonUnit, b);
}

/// In-place unpivoted `A = L D L^H` with unit lower-triangular `L` and real
/// diagonal `D` (stored on the diagonal).
///
/// Unpivoted LDL^H is backward stable only when no pivot is small relative
/// to the entries below it; the ladder in [`SymmetricFactor`] therefore
/// runs it with a growth guard and falls through to Bunch-Kaufman.  Only the
/// lower triangle is referenced.
///
/// # Errors
/// [`SymmetricError::Singular`] on an exactly zero (or non-finite) pivot.
pub fn ldlt_in_place<T: Scalar>(a: MatMut<'_, T>) -> Result<(), SymmetricError> {
    ldlt_guarded_in_place(a, T::Real::INFINITY)
}

multiversion! {
    /// The guarded worker behind [`ldlt_in_place`]: fails (for the ladder
    /// to catch) when any computed multiplier exceeds `growth_limit`.
    pub(crate) fn ldlt_guarded_in_place<T: Scalar>(
        a: MatMut<'_, T>,
        growth_limit: T::Real,
    ) -> Result<(), SymmetricError> = ldlt_guarded_in_place_body;
}

#[inline(always)]
pub(crate) fn ldlt_guarded_in_place_body<T: Scalar>(
    mut a: MatMut<'_, T>,
    growth_limit: T::Real,
) -> Result<(), SymmetricError> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "ldlt: matrix must be square");
    let mut lcol: Vec<T> = Vec::with_capacity(n);

    for k in 0..n {
        let col_k = a.col_mut(k);
        let d = col_k[k].real();
        if !d.is_finite() || d == T::Real::zero() {
            return Err(SymmetricError::Singular { pivot: k });
        }
        col_k[k] = T::from_real(d);
        let inv = T::Real::one() / d;
        for v in col_k[k + 1..].iter_mut() {
            *v = v.scale(inv);
            if v.abs() > growth_limit {
                return Err(SymmetricError::Singular { pivot: k });
            }
        }
        lcol.clear();
        lcol.extend_from_slice(&col_k[k + 1..]);
        // A[j.., j] -= L[j.., k] * d * conj(L[j, k]).
        for j in (k + 1)..n {
            let ljk = lcol[j - k - 1];
            if ljk == T::zero() {
                continue;
            }
            let alpha = -ljk.conj().scale(d);
            let col_j = a.col_mut(j);
            axpy_slice_body(alpha, &lcol[j - k - 1..], &mut col_j[j..]);
        }
    }
    Ok(())
}

/// Solve `A X = B` in place given the packed `L D L^H` factors.
pub fn ldlt_solve_in_place<T: Scalar>(f: MatRef<'_, T>, mut b: MatMut<'_, T>) {
    let n = f.rows();
    assert_eq!(n, b.rows(), "ldlt solve: rhs has wrong row count");
    solve_triangular_in_place(f, Triangle::Lower, Diag::Unit, b.reborrow());
    for c in 0..b.cols() {
        let x = b.col_mut(c);
        for (k, xk) in x.iter_mut().enumerate() {
            *xk = xk.scale(T::Real::one() / f.get(k, k).real());
        }
    }
    solve_conj_transpose_lower_in_place(f, Diag::Unit, b);
}

/// One pivoting step of a Bunch-Kaufman factorization.
///
/// Steps are recorded in column order; a `Single` covers one column, a
/// `Double` covers two.  The recorded index is the row/column interchanged
/// with the step's column (`k` for `Single`, `k + 1` for `Double`),
/// mirroring LAPACK's `ipiv` convention for `uplo = 'L'`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BkPivot {
    /// A 1x1 pivot; rows/columns `k` and the index were interchanged.
    Single(usize),
    /// A 2x2 pivot over columns `k, k + 1`; rows/columns `k + 1` and the
    /// index were interchanged.
    Double(usize),
}

multiversion! {
    /// In-place Bunch-Kaufman factorization `A = P L D L^H P^T` with partial
    /// (rook-free) pivoting, `uplo = 'L'` (LAPACK `hetf2` / `sytf2`): `D` is
    /// block diagonal with 1x1 and 2x2 blocks, `L` is unit lower triangular.
    /// Only the lower triangle is referenced.
    ///
    /// # Errors
    /// [`SymmetricError::Singular`] when a diagonal block of `D` is exactly
    /// singular (the trailing submatrix was identically zero, or a 2x2 block
    /// has zero determinant).
    pub fn bunch_kaufman_in_place<T: Scalar>(
        a: MatMut<'_, T>,
    ) -> Result<Vec<BkPivot>, SymmetricError> = bunch_kaufman_in_place_body;
}

#[inline(always)]
pub(crate) fn bunch_kaufman_in_place_body<T: Scalar>(
    mut a: MatMut<'_, T>,
) -> Result<Vec<BkPivot>, SymmetricError> {
    let n = a.rows();
    assert_eq!(n, a.cols(), "bunch-kaufman: matrix must be square");
    // alpha = (1 + sqrt(17)) / 8, the growth-minimizing threshold.
    let alpha = (T::Real::one() + T::Real::from_f64_real(17.0).sqrt_real())
        * (T::Real::one() / T::Real::from_f64_real(8.0));
    let mut piv = Vec::with_capacity(n);
    let mut col: Vec<T> = Vec::with_capacity(n);

    let mut k = 0;
    while k < n {
        let mut kstep = 1;
        let absakk = a.get(k, k).real().abs_real();
        // Largest off-diagonal modulus in column k below the diagonal.
        let mut imax = k;
        let mut colmax = T::Real::zero();
        for i in (k + 1)..n {
            let v = a.get(i, k).abs();
            if v > colmax {
                colmax = v;
                imax = i;
            }
        }
        if absakk.max_real(colmax) == T::Real::zero() {
            return Err(SymmetricError::Singular { pivot: k });
        }

        let kp;
        if absakk >= alpha * colmax {
            kp = k;
        } else {
            // Largest modulus in row imax outside column k (stored lower:
            // the row segment A(imax, k..imax) and the column segment
            // A(imax+1.., imax)).
            let mut rowmax = T::Real::zero();
            for j in k..imax {
                rowmax = rowmax.max_real(a.get(imax, j).abs());
            }
            for i in (imax + 1)..n {
                rowmax = rowmax.max_real(a.get(i, imax).abs());
            }
            if absakk * rowmax >= alpha * colmax * colmax {
                kp = k;
            } else if a.get(imax, imax).real().abs_real() >= alpha * rowmax {
                kp = imax;
            } else {
                kp = imax;
                kstep = 2;
            }
        }

        // Interchange rows/columns kk and kp of the trailing submatrix,
        // where kk is the step's last column (Hermitian swap on the lower
        // triangle, LAPACK hetf2 style).
        let kk = k + kstep - 1;
        if kp != kk {
            for i in (kp + 1)..n {
                let t = a.get(i, kk);
                a.set(i, kk, a.get(i, kp));
                a.set(i, kp, t);
            }
            for j in (kk + 1)..kp {
                let t = a.get(j, kk).conj();
                a.set(j, kk, a.get(kp, j).conj());
                a.set(kp, j, t);
            }
            a.set(kp, kk, a.get(kp, kk).conj());
            let r1 = a.get(kk, kk).real();
            a.set(kk, kk, T::from_real(a.get(kp, kp).real()));
            a.set(kp, kp, T::from_real(r1));
            if kstep == 2 {
                a.set(k, k, T::from_real(a.get(k, k).real()));
                let t = a.get(k + 1, k);
                a.set(k + 1, k, a.get(kp, k));
                a.set(kp, k, t);
            }
        }

        if kstep == 1 {
            // 1x1 pivot: rank-1 update of the trailing submatrix, then
            // store the multipliers in column k.
            let d = a.get(k, k).real();
            if !d.is_finite() || d == T::Real::zero() {
                return Err(SymmetricError::Singular { pivot: k });
            }
            let r1 = T::Real::one() / d;
            col.clear();
            col.extend_from_slice(&a.col_mut(k)[k + 1..]);
            for j in (k + 1)..n {
                let ajk = col[j - k - 1];
                if ajk != T::zero() {
                    let beta = -ajk.conj().scale(r1);
                    let col_j = a.col_mut(j);
                    axpy_slice_body(beta, &col[j - k - 1..], &mut col_j[j..]);
                }
            }
            for v in a.col_mut(k)[k + 1..].iter_mut() {
                *v = v.scale(r1);
            }
            piv.push(BkPivot::Single(kp));
        } else {
            // 2x2 pivot over columns (k, k+1): eliminate the trailing
            // columns against the 2x2 block (LAPACK hetf2's D11/D22/D21
            // formulation), then replace the eliminated entries by the
            // multipliers W.
            if k + 2 < n {
                let e = a.get(k + 1, k);
                let d_abs = e.abs();
                let d11 = a.get(k + 1, k + 1).real() * (T::Real::one() / d_abs);
                let d22 = a.get(k, k).real() * (T::Real::one() / d_abs);
                let tt = T::Real::one() / (d11 * d22 - T::Real::one());
                let d21 = e.scale(T::Real::one() / d_abs);
                let dd = tt * (T::Real::one() / d_abs);
                for j in (k + 2)..n {
                    let ajk = a.get(j, k);
                    let ajk1 = a.get(j, k + 1);
                    let wk = (ajk.scale(d11) - d21 * ajk1).scale(dd);
                    let wkp1 = (ajk1.scale(d22) - d21.conj() * ajk).scale(dd);
                    for i in j..n {
                        let v =
                            a.get(i, j) - a.get(i, k) * wk.conj() - a.get(i, k + 1) * wkp1.conj();
                        a.set(i, j, v);
                    }
                    a.set(j, k, wk);
                    a.set(j, k + 1, wkp1);
                    a.set(j, j, T::from_real(a.get(j, j).real()));
                }
            }
            let det = a.get(k, k).real() * a.get(k + 1, k + 1).real() - a.get(k + 1, k).abs_sqr();
            if !det.is_finite() || det == T::Real::zero() {
                return Err(SymmetricError::Singular { pivot: k });
            }
            piv.push(BkPivot::Double(kp));
        }
        k += kstep;
    }
    Ok(piv)
}

multiversion! {
    /// Solve `A X = B` in place given packed Bunch-Kaufman factors and their
    /// pivot steps (LAPACK `hetrs`, `uplo = 'L'`).
    pub fn bunch_kaufman_solve_in_place<T: Scalar>(
        f: MatRef<'_, T>,
        piv: &[BkPivot],
        b: MatMut<'_, T>,
    ) = bunch_kaufman_solve_in_place_body;
}

#[inline(always)]
pub(crate) fn bunch_kaufman_solve_in_place_body<T: Scalar>(
    f: MatRef<'_, T>,
    piv: &[BkPivot],
    mut b: MatMut<'_, T>,
) {
    let n = f.rows();
    assert_eq!(n, b.rows(), "bunch-kaufman solve: rhs has wrong row count");

    // Forward sweep: x <- D^{-1} L^{-1} P^T b, step by step.
    let mut k = 0;
    for p in piv {
        match *p {
            BkPivot::Single(kp) => {
                if kp != k {
                    swap_b_rows(&mut b, k, kp);
                }
                let d = T::Real::one() / f.get(k, k).real();
                for c in 0..b.cols() {
                    let x = b.col_mut(c);
                    let xk = x[k];
                    if xk != T::zero() {
                        axpy_slice_body(-xk, &f.col(k)[k + 1..], &mut x[k + 1..]);
                    }
                    x[k] = x[k].scale(d);
                }
                k += 1;
            }
            BkPivot::Double(kp) => {
                if kp != k + 1 {
                    swap_b_rows(&mut b, k + 1, kp);
                }
                let akm1k = f.get(k + 1, k);
                let akm1 = f.get(k, k) * akm1k.conj().recip();
                let ak = f.get(k + 1, k + 1) * akm1k.recip();
                let denom = (akm1 * ak - T::one()).recip();
                for c in 0..b.cols() {
                    let x = b.col_mut(c);
                    let xk = x[k];
                    let xk1 = x[k + 1];
                    if xk != T::zero() {
                        axpy_slice_body(-xk, &f.col(k)[k + 2..], &mut x[k + 2..]);
                    }
                    if xk1 != T::zero() {
                        axpy_slice_body(-xk1, &f.col(k + 1)[k + 2..], &mut x[k + 2..]);
                    }
                    let bkm1 = xk * akm1k.conj().recip();
                    let bk = xk1 * akm1k.recip();
                    x[k] = (ak * bkm1 - bk) * denom;
                    x[k + 1] = (akm1 * bk - bkm1) * denom;
                }
                k += 2;
            }
        }
    }

    // Backward sweep: x <- P L^{-H} x, steps in reverse.
    let mut k = n;
    for p in piv.iter().rev() {
        match *p {
            BkPivot::Single(kp) => {
                k -= 1;
                for c in 0..b.cols() {
                    let x = b.col_mut(c);
                    let s = crate::blas::dot_conj(&f.col(k)[k + 1..], &x[k + 1..]);
                    x[k] -= s;
                }
                if kp != k {
                    swap_b_rows(&mut b, k, kp);
                }
            }
            BkPivot::Double(kp) => {
                k -= 2;
                for c in 0..b.cols() {
                    let x = b.col_mut(c);
                    let s0 = crate::blas::dot_conj(&f.col(k)[k + 2..], &x[k + 2..]);
                    let s1 = crate::blas::dot_conj(&f.col(k + 1)[k + 2..], &x[k + 2..]);
                    x[k] -= s0;
                    x[k + 1] -= s1;
                }
                if kp != k + 1 {
                    swap_b_rows(&mut b, k + 1, kp);
                }
            }
        }
    }
}

fn swap_b_rows<T: Scalar>(b: &mut MatMut<'_, T>, r1: usize, r2: usize) {
    for j in 0..b.cols() {
        let t = b.get(r1, j);
        b.set(r1, j, b.get(r2, j));
        b.set(r2, j, t);
    }
}

/// Which kernel of the symmetric ladder produced a packed factor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymmetricKind {
    /// `A = L L^H` (Cholesky).
    Llt,
    /// `A = L D L^H`, unit `L`, real diagonal `D`.
    Ldlt,
    /// `A = P L D L^H P^T` with the recorded pivot steps.
    BunchKaufman(Vec<BkPivot>),
}

/// How a symmetric factorization reacts to a non-positive-definite input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymmetricPolicy {
    /// `L L^H` only; a non-positive pivot is a typed
    /// [`SymmetricError::NotPositiveDefinite`] error.
    Strict,
    /// The full ladder: `L L^H`, then growth-guarded unpivoted `L D L^H`,
    /// then Bunch-Kaufman.
    Fallback,
}

/// Growth bound for the unpivoted LDL^H rung of the ladder: multipliers
/// beyond `1/sqrt(eps)` mean element growth has destroyed the factorization
/// and Bunch-Kaufman must take over.
fn ldlt_growth_limit<T: Scalar>() -> T::Real {
    (T::Real::one() / T::epsilon()).sqrt_real()
}

/// Factorize a Hermitian matrix in place under `policy`, returning which
/// rung of the ladder succeeded.  This is the one entry point both solver
/// backends use — the serial factorization through [`SymmetricFactor`] and
/// the batched device per batch entry — so the two backends produce
/// bitwise-identical factors.
///
/// # Errors
/// Under [`SymmetricPolicy::Strict`],
/// [`SymmetricError::NotPositiveDefinite`]; under
/// [`SymmetricPolicy::Fallback`], [`SymmetricError::Singular`] when even
/// Bunch-Kaufman finds a singular block.
pub fn factorize_symmetric_in_place<T: Scalar>(
    mut a: MatMut<'_, T>,
    policy: SymmetricPolicy,
) -> Result<SymmetricKind, SymmetricError> {
    match policy {
        SymmetricPolicy::Strict => {
            potrf_in_place(a)?;
            Ok(SymmetricKind::Llt)
        }
        SymmetricPolicy::Fallback => {
            let backup = a.to_owned();
            if potrf_in_place(a.reborrow()).is_ok() {
                return Ok(SymmetricKind::Llt);
            }
            a.copy_from(backup.as_ref());
            if ldlt_guarded_in_place(a.reborrow(), ldlt_growth_limit::<T>()).is_ok() {
                return Ok(SymmetricKind::Ldlt);
            }
            a.copy_from(backup.as_ref());
            let piv = bunch_kaufman_in_place(a)?;
            Ok(SymmetricKind::BunchKaufman(piv))
        }
    }
}

/// Solve `A X = B` in place against a packed factor of the given kind (the
/// symmetric analogue of `getrs`, shared by both backends).
pub fn solve_symmetric_in_place<T: Scalar>(
    f: MatRef<'_, T>,
    kind: &SymmetricKind,
    b: MatMut<'_, T>,
) {
    match kind {
        SymmetricKind::Llt => potrs_in_place(f, b),
        SymmetricKind::Ldlt => ldlt_solve_in_place(f, b),
        SymmetricKind::BunchKaufman(piv) => bunch_kaufman_solve_in_place(f, piv, b),
    }
}

/// Log-determinant contribution of one packed symmetric factor, from its
/// diagonal `diag` and (for Bunch-Kaufman 2x2 blocks) subdiagonal `sub`.
///
/// Returns `(log|det|, s)` with `det = s * exp(log|det|)` and `s = ±1`
/// (Hermitian determinants are real).  Like
/// [`log_det_from_parts`](crate::lu::log_det_from_parts) for LU, this is
/// the *one* accumulation both solver backends use — serial through
/// [`SymmetricFactor::log_det`], batched through the diagonals gathered by
/// its extraction kernel — so the two backends agree bitwise whenever the
/// underlying factors do.  Symmetric permutations (`P X P^T`) contribute no
/// sign.
pub fn sym_log_det_from_parts<T: Scalar>(
    kind: &SymmetricKind,
    diag: &[T],
    sub: &[T],
) -> (T::Real, T) {
    let mut log_abs = T::Real::zero();
    let mut negative = false;
    match kind {
        SymmetricKind::Llt => {
            let two = T::Real::from_f64_real(2.0);
            for d in diag {
                log_abs += two * d.real().ln();
            }
        }
        SymmetricKind::Ldlt => {
            for d in diag {
                let v = d.real();
                log_abs += v.abs_real().ln();
                if v < T::Real::zero() {
                    negative = !negative;
                }
            }
        }
        SymmetricKind::BunchKaufman(piv) => {
            let mut k = 0;
            for p in piv {
                match p {
                    BkPivot::Single(_) => {
                        let v = diag[k].real();
                        log_abs += v.abs_real().ln();
                        if v < T::Real::zero() {
                            negative = !negative;
                        }
                        k += 1;
                    }
                    BkPivot::Double(_) => {
                        let det = diag[k].real() * diag[k + 1].real() - sub[k].abs_sqr();
                        log_abs += det.abs_real().ln();
                        if det < T::Real::zero() {
                            negative = !negative;
                        }
                        k += 2;
                    }
                }
            }
        }
    }
    let sign = if negative { -T::one() } else { T::one() };
    (log_abs, sign)
}

/// An owned symmetric factorization of a square Hermitian matrix — the
/// symmetric counterpart of [`LuFactor`](crate::lu::LuFactor), produced by
/// the ladder `L L^H` → guarded `L D L^H` → Bunch-Kaufman under a
/// [`SymmetricPolicy`].
#[derive(Clone)]
pub struct SymmetricFactor<T> {
    f: DenseMatrix<T>,
    kind: SymmetricKind,
}

impl<T: Scalar> std::fmt::Debug for SymmetricFactor<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymmetricFactor")
            .field("order", &self.f.rows())
            .field("kind", &self.kind)
            .finish()
    }
}

impl<T: Scalar> SymmetricFactor<T> {
    /// Factorize a square Hermitian matrix (copying it).  Only the lower
    /// triangle of `a` is read.
    ///
    /// # Errors
    /// As [`factorize_symmetric_in_place`].
    pub fn new(a: &DenseMatrix<T>, policy: SymmetricPolicy) -> Result<Self, SymmetricError> {
        Self::from_matrix(a.clone(), policy)
    }

    /// Factorize, taking ownership of the matrix storage.
    ///
    /// # Errors
    /// As [`factorize_symmetric_in_place`].
    pub fn from_matrix(
        mut a: DenseMatrix<T>,
        policy: SymmetricPolicy,
    ) -> Result<Self, SymmetricError> {
        assert_eq!(
            a.rows(),
            a.cols(),
            "SymmetricFactor requires a square matrix"
        );
        let kind = factorize_symmetric_in_place(a.as_mut(), policy)?;
        Ok(SymmetricFactor { f: a, kind })
    }

    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.f.rows()
    }

    /// Which rung of the ladder produced this factor.
    pub fn kind(&self) -> &SymmetricKind {
        &self.kind
    }

    /// The packed factor data (for tests and diagnostics).
    pub fn factors(&self) -> (&DenseMatrix<T>, &SymmetricKind) {
        (&self.f, &self.kind)
    }

    /// Solve `A x = b`, returning the solution.
    pub fn solve_vec(&self, b: &[T]) -> Vec<T> {
        assert_eq!(b.len(), self.order());
        let mut x = b.to_vec();
        let n = x.len();
        solve_symmetric_in_place(
            self.f.as_ref(),
            &self.kind,
            MatMut::from_parts(&mut x, n, 1, n.max(1)),
        );
        x
    }

    /// Solve `A X = B` for a multi-column right-hand side in place.
    pub fn solve_in_place(&self, b: MatMut<'_, T>) {
        solve_symmetric_in_place(self.f.as_ref(), &self.kind, b);
    }

    /// Solve `A X = B`, returning the solution matrix.
    pub fn solve_matrix(&self, b: &DenseMatrix<T>) -> DenseMatrix<T> {
        let mut x = b.clone();
        self.solve_in_place(x.as_mut());
        x
    }

    /// Logarithm of the absolute determinant plus its sign (`±1`; Hermitian
    /// determinants are real), via [`sym_log_det_from_parts`].
    pub fn log_det(&self) -> (T::Real, T) {
        let n = self.order();
        let diag: Vec<T> = (0..n).map(|i| self.f[(i, i)]).collect();
        let sub: Vec<T> = (0..n.saturating_sub(1))
            .map(|i| self.f[(i + 1, i)])
            .collect();
        sym_log_det_from_parts(&self.kind, &diag, &sub)
    }

    /// Scalar entries of factor payload: the lower triangle (including the
    /// diagonal), which is all the solve ever reads — the symmetric
    /// factor's resident footprint is half a square LU factor's.
    pub fn storage_entries(&self) -> usize {
        let n = self.order();
        n * (n + 1) / 2
    }

    /// The explicit lower-triangular Cholesky factor `L` with the strictly
    /// upper triangle zeroed (only for [`SymmetricKind::Llt`] factors; used
    /// by samplers that need `L z` products and by tests).
    ///
    /// # Panics
    /// Panics if this factor is not an `L L^H` factorization.
    pub fn lower_factor(&self) -> DenseMatrix<T> {
        assert!(
            matches!(self.kind, SymmetricKind::Llt),
            "lower_factor is only defined for L L^H factors"
        );
        let n = self.order();
        DenseMatrix::from_fn(n, n, |i, j| if i >= j { self.f[(i, j)] } else { T::zero() })
    }
}

/// Flop count of a symmetric factorization of order `n` (`n^3/3` — half of
/// LU's `2n^3/3`), used by the batched device metering and the analytic
/// complexity model.
pub fn sym_factorization_flops(n: u64) -> u64 {
    n * n * n / 3
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::LuFactor;
    use crate::random::random_matrix;
    use crate::Complex64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A random Hermitian positive-definite matrix `G G^H + n I`.
    fn random_spd<T: Scalar>(rng: &mut StdRng, n: usize) -> DenseMatrix<T> {
        let g: DenseMatrix<T> = random_matrix(rng, n, n);
        let mut a = DenseMatrix::<T>::zeros(n, n);
        crate::blas::gemm(
            T::one(),
            g.as_ref(),
            Op::None,
            g.as_ref(),
            Op::ConjTrans,
            T::zero(),
            a.as_mut(),
        );
        for i in 0..n {
            a[(i, i)] += T::from_f64(n as f64);
        }
        a
    }

    /// A random Hermitian indefinite matrix `(G + G^H) / 2` with a spread
    /// spectrum.
    fn random_indefinite<T: Scalar>(rng: &mut StdRng, n: usize) -> DenseMatrix<T> {
        let g: DenseMatrix<T> = random_matrix(rng, n, n);
        let gh = g.conj_transpose();
        let mut a = g;
        a.axpy(T::one(), &gh);
        a.scale_in_place(T::from_f64(0.5));
        a
    }

    fn check_llt<T: Scalar>(n: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: DenseMatrix<T> = random_spd(&mut rng, n);
        let f = SymmetricFactor::new(&a, SymmetricPolicy::Strict).unwrap();
        assert!(matches!(f.kind(), SymmetricKind::Llt));
        // Reconstruction: L L^H == A.
        let l = f.lower_factor();
        let mut rec = DenseMatrix::<T>::zeros(n, n);
        crate::blas::gemm(
            T::one(),
            l.as_ref(),
            Op::None,
            l.as_ref(),
            Op::ConjTrans,
            T::zero(),
            rec.as_mut(),
        );
        let err = rec.sub(&a).norm_max().to_f64();
        assert!(err < 1e-8 * n as f64, "reconstruction error {err}");
        // Solve.
        let x_true: Vec<T> = (0..n).map(|i| T::from_f64(i as f64 - 2.5)).collect();
        let b = a.matvec(&x_true);
        let x = f.solve_vec(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((*xi - *ti).abs().to_f64() < 1e-8);
        }
        // log_det matches LU.
        let (ld, sign) = f.log_det();
        let (ld_lu, sign_lu) = LuFactor::new(&a).unwrap().log_det();
        assert!(
            (ld - ld_lu).abs_real().to_f64() < 1e-9,
            "{ld:?} vs {ld_lu:?}"
        );
        assert!((sign - sign_lu).abs().to_f64() < 1e-9);
    }

    #[test]
    fn llt_real_and_complex() {
        check_llt::<f64>(13, 1);
        check_llt::<f64>(64, 2);
        check_llt::<Complex64>(17, 3);
    }

    #[test]
    fn blocked_llt_matches_unblocked_bitwise_structure() {
        // Above POTRF_BLOCK_MIN the blocked path runs; its factor must agree
        // with the small-order contract (reconstruction) at large n too.
        check_llt::<f64>(200, 4);
        check_llt::<Complex64>(150, 5);
    }

    #[test]
    fn llt_rejects_indefinite_without_nan() {
        let mut rng = StdRng::seed_from_u64(6);
        let a: DenseMatrix<f64> = random_indefinite(&mut rng, 12);
        let err = SymmetricFactor::new(&a, SymmetricPolicy::Strict).unwrap_err();
        assert!(matches!(err, SymmetricError::NotPositiveDefinite { .. }));
        assert!(err.to_string().contains("not positive definite"));
    }

    #[test]
    fn fallback_ladder_handles_indefinite() {
        let mut rng = StdRng::seed_from_u64(7);
        let a: DenseMatrix<f64> = random_indefinite(&mut rng, 15);
        let f = SymmetricFactor::new(&a, SymmetricPolicy::Fallback).unwrap();
        let x_true: Vec<f64> = (0..15).map(|i| (i as f64).cos()).collect();
        let b = a.matvec(&x_true);
        let x = f.solve_vec(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-7, "{xi} vs {ti}");
        }
        let (ld, sign) = f.log_det();
        let (ld_lu, sign_lu) = LuFactor::new(&a).unwrap().log_det();
        assert!((ld - ld_lu).abs() < 1e-8);
        assert!((sign - sign_lu).abs() < 1e-8);
    }

    #[test]
    fn bunch_kaufman_on_hard_indefinite_block() {
        // The HODLR coupling shape [[eps I, I], [I, eps I]]: unpivoted LDL^H
        // sees 1/eps growth, Bunch-Kaufman must take over in the ladder.
        let w = 4;
        let eps = 1e-12;
        let n = 2 * w;
        let mut a = DenseMatrix::<f64>::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = eps;
        }
        for i in 0..w {
            a[(i, w + i)] = 1.0;
            a[(w + i, i)] = 1.0;
        }
        let f = SymmetricFactor::new(&a, SymmetricPolicy::Fallback).unwrap();
        assert!(
            matches!(f.kind(), SymmetricKind::BunchKaufman(_)),
            "expected the Bunch-Kaufman rung, got {:?}",
            f.kind()
        );
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let x = f.solve_vec(&b);
        let ax = a.matvec(&x);
        for (v, bi) in ax.iter().zip(&b) {
            assert!((v - bi).abs() < 1e-9, "{v} vs {bi}");
        }
        // det = (eps^2 - 1)^w > 0 for even sign pattern; check vs LU.
        let (ld, sign) = f.log_det();
        let (ld_lu, sign_lu) = LuFactor::new(&a).unwrap().log_det();
        assert!((ld - ld_lu).abs() < 1e-8, "{ld} vs {ld_lu}");
        assert!((sign - sign_lu).abs() < 1e-8);
    }

    #[test]
    fn bunch_kaufman_complex_hermitian() {
        let mut rng = StdRng::seed_from_u64(8);
        let a: DenseMatrix<Complex64> = random_indefinite(&mut rng, 11);
        let mut packed = a.clone();
        let piv = bunch_kaufman_in_place(packed.as_mut()).unwrap();
        let x_true: Vec<Complex64> = (0..11)
            .map(|i| Complex64::new(i as f64, -(i as f64) / 3.0))
            .collect();
        let b = a.matvec(&x_true);
        let mut x = b.clone();
        let nb = x.len();
        bunch_kaufman_solve_in_place(packed.as_ref(), &piv, MatMut::from_parts(&mut x, nb, 1, nb));
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((*xi - *ti).abs() < 1e-7);
        }
    }

    #[test]
    fn ldlt_solves_spd_and_matches_log_det() {
        let mut rng = StdRng::seed_from_u64(9);
        let a: DenseMatrix<f64> = random_spd(&mut rng, 10);
        let mut packed = a.clone();
        ldlt_in_place(packed.as_mut()).unwrap();
        let diag: Vec<f64> = (0..10).map(|i| packed[(i, i)]).collect();
        let (ld, sign) = sym_log_det_from_parts(&SymmetricKind::Ldlt, &diag, &[]);
        let (ld_lu, _) = LuFactor::new(&a).unwrap().log_det();
        assert!((ld - ld_lu).abs() < 1e-9);
        assert_eq!(sign, 1.0);
        let b: Vec<f64> = (0..10).map(|i| (i as f64).sin()).collect();
        let mut x = b.clone();
        ldlt_solve_in_place(packed.as_ref(), MatMut::from_parts(&mut x, 10, 1, 10));
        let ax = a.matvec(&x);
        for (v, bi) in ax.iter().zip(&b) {
            assert!((v - bi).abs() < 1e-8);
        }
    }

    #[test]
    fn zero_order_factorization_is_trivial() {
        let a = DenseMatrix::<f64>::zeros(0, 0);
        let f = SymmetricFactor::new(&a, SymmetricPolicy::Fallback).unwrap();
        assert_eq!(f.order(), 0);
        let (ld, sign) = f.log_det();
        assert_eq!(ld, 0.0);
        assert_eq!(sign, 1.0);
        assert!(f.solve_vec(&[]).is_empty());
    }

    #[test]
    fn strided_views_factor_correctly() {
        // Factor a block embedded in a larger buffer (ld > n).
        let mut rng = StdRng::seed_from_u64(10);
        let n = 9;
        let ld = 14;
        let a: DenseMatrix<f64> = random_spd(&mut rng, n);
        let mut buf = vec![f64::NAN; ld * n];
        for j in 0..n {
            for i in 0..n {
                buf[j * ld + i] = a[(i, j)];
            }
        }
        let view = MatMut::from_parts(&mut buf, n, n, ld);
        let mut view = view;
        potrf_in_place(view.reborrow()).unwrap();
        let mut x: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
        let b = a.matvec(&x.clone());
        x.copy_from_slice(&b);
        potrs_in_place(
            MatRef::from_parts(&buf, n, n, ld),
            MatMut::from_parts(&mut x, n, 1, n),
        );
        let ax = a.matvec(&x);
        for (v, bi) in ax.iter().zip(&b) {
            assert!((v - bi).abs() < 1e-9);
        }
    }
}
