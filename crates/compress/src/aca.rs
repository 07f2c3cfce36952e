//! Adaptive cross approximation (ACA).
//!
//! ACA builds `A ~= U V^*` one rank-1 cross at a time, touching only the
//! rows and columns it pivots on — `O((m + n) r)` kernel evaluations instead
//! of `O(mn)`.  Two pivot strategies are provided:
//!
//! * **partial pivoting** — the classical scheme: take the next unused row,
//!   pivot on the largest entry of its residual;
//! * **rook pivoting** — alternate row/column maximisation until the pivot
//!   is the largest entry of both its residual row *and* column.  This is
//!   the `LowRank::rookPiv()` strategy HODLRlib uses in the paper's
//!   Table III benchmark and is considerably more robust on kernels with
//!   strong diagonal decay.
//!
//! # Cost per cross
//!
//! Each accepted cross evaluates one residual row and one residual column
//! of `A`, plus the rook alternations: one more row for every step that
//! moves the pivot row, one more column for every step that moves the
//! pivot column.  No residual is evaluated twice in one pivot search: the
//! search ends holding the row of its final pivot, and its column too
//! unless its last step moved the column.  Turning an evaluated row or
//! column into a residual subtracts the `k` earlier crosses, and the norm
//! update takes `2k` dot products with them.  That `O(k (m + n))`
//! arithmetic runs in the [`hodlr_la::columns`] kernels: the subtraction
//! reads and writes the residual once per four crosses, the dots run
//! eight side by side, both on the x86-64-v3 copy where the CPU has one,
//! and long vectors are split over the current rayon pool.  Neither
//! changes a bit of what the one-column loops compute.  The entries
//! themselves are evaluated on the calling thread.

use crate::lowrank::LowRank;
use crate::randomized::dense_bytes;
use crate::source::MatrixEntrySource;
use hodlr_la::columns::{dot_columns, sub_columns};
use hodlr_la::{AllocMeter, DenseMatrix, RealScalar, Scalar};

/// Pivot selection strategy for [`aca_compress`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AcaPivoting {
    /// Classical partial (row-cycling) pivoting.
    Partial,
    /// Rook pivoting (row/column alternation until a local maximum).
    Rook,
}

/// Maximum number of row/column alternations in a rook-pivot search.
pub(crate) const ROOK_ITERATIONS: usize = 4;

/// Compress `source` with ACA to relative tolerance `tol`, with an optional
/// hard rank cap.
///
/// The returned factors satisfy `A ~= U V^*`.  The tolerance is relative to
/// a running estimate of `||A||_F` built from the crosses themselves, as is
/// standard for ACA.
pub fn aca_compress<T: Scalar, S: MatrixEntrySource<T> + ?Sized>(
    source: &S,
    tol: T::Real,
    max_rank: Option<usize>,
    pivoting: AcaPivoting,
) -> LowRank<T> {
    aca_compress_metered(source, tol, max_rank, pivoting, None)
}

/// [`aca_compress`] with live/peak scratch accounting on `meter`: one
/// `(m + n)`-sized buffer pair plus `(m + n)` entries per accepted cross.
pub fn aca_compress_metered<T: Scalar, S: MatrixEntrySource<T> + ?Sized>(
    source: &S,
    tol: T::Real,
    max_rank: Option<usize>,
    pivoting: AcaPivoting,
    meter: Option<&AllocMeter>,
) -> LowRank<T> {
    let m = source.nrows();
    let n = source.ncols();
    if m == 0 || n == 0 {
        return LowRank::zero(m, n);
    }
    let rank_cap = max_rank.unwrap_or(usize::MAX).min(m).min(n);
    if rank_cap == 0 {
        return LowRank::zero(m, n);
    }
    if let Some(meter) = meter {
        // row_buf + col_buf live for the whole compression.
        meter.record_alloc(dense_bytes::<T>(m + n, 1));
    }

    // Crosses accumulated so far: us[k] has length m, vs[k] has length n and
    // the approximation is sum_k us[k] * vs[k]^*.
    let mut us: Vec<Vec<T>> = Vec::new();
    let mut vs: Vec<Vec<T>> = Vec::new();
    let mut used_rows = vec![false; m];
    let mut used_cols = vec![false; n];
    // Running estimate of ||A||_F^2 (Frobenius norm of the approximation).
    let mut norm_sq = T::Real::zero();

    let mut row_buf = vec![T::zero(); n];
    let mut col_buf = vec![T::zero(); m];
    // Per-cross scratch of the residual updates and the norm update, one
    // entry per earlier cross.
    let mut coefs: Vec<T> = Vec::new();
    let mut uu: Vec<T> = Vec::new();
    let mut vv: Vec<T> = Vec::new();
    let mut next_row = 0usize;

    while us.len() < rank_cap {
        // --- choose a pivot (i, j) ----------------------------------------
        let mut i = match next_unused(&used_rows, next_row) {
            Some(i) => i,
            None => break,
        };
        residual_row(source, &us, &vs, i, &mut row_buf, &mut coefs);
        let mut j = match argmax_abs(&row_buf, &used_cols) {
            Some(j) => j,
            None => break,
        };
        // The column whose residual `col_buf` holds for this cross, if
        // any.  `row_buf` always holds the residual of row `i`: every move
        // of `i` evaluates the new row.
        let mut col_j = None;

        if pivoting == AcaPivoting::Rook {
            // Alternate row/column maximisation.
            for _ in 0..ROOK_ITERATIONS {
                residual_col(source, &us, &vs, j, &mut col_buf, &mut coefs);
                col_j = Some(j);
                let i_new = match argmax_abs(&col_buf, &used_rows) {
                    Some(i_new) => i_new,
                    None => break,
                };
                if i_new == i {
                    break;
                }
                i = i_new;
                residual_row(source, &us, &vs, i, &mut row_buf, &mut coefs);
                let j_new = match argmax_abs(&row_buf, &used_cols) {
                    Some(j_new) => j_new,
                    None => break,
                };
                if j_new == j {
                    break;
                }
                j = j_new;
            }
        }

        let delta = row_buf[j];
        if delta.abs() == T::Real::zero() {
            // The whole residual row is zero: retire it and try the next one.
            used_rows[i] = true;
            next_row = i + 1;
            if used_rows.iter().all(|&u| u) {
                break;
            }
            continue;
        }

        // --- build the rank-1 cross ----------------------------------------
        if col_j != Some(j) {
            residual_col(source, &us, &vs, j, &mut col_buf, &mut coefs);
        }
        let u: Vec<T> = col_buf.clone();
        let inv_delta = delta.recip();
        let v: Vec<T> = row_buf.iter().map(|&r| (r * inv_delta).conj()).collect();

        // Norm bookkeeping: ||A_k||^2 = ||A_{k-1}||^2
        //   + 2 Re sum_l (u_l^* u)(v^* v_l) + ||u||^2 ||v||^2.
        let u_norm_sq: T::Real = u.iter().map(|x| x.abs_sqr()).sum();
        let v_norm_sq: T::Real = v.iter().map(|x| x.abs_sqr()).sum();
        uu.resize(us.len(), T::zero());
        vv.resize(vs.len(), T::zero());
        dot_columns(&us, &u, true, &mut uu);
        dot_columns(&vs, &v, false, &mut vv);
        let mut cross_terms = T::Real::zero();
        for (&a, &b) in uu.iter().zip(&vv) {
            cross_terms += (a * b).real();
        }
        norm_sq += T::Real::from_f64_real(2.0) * cross_terms + u_norm_sq * v_norm_sq;

        used_rows[i] = true;
        used_cols[j] = true;
        next_row = i + 1;
        if let Some(meter) = meter {
            meter.record_alloc(dense_bytes::<T>(m + n, 1));
        }
        us.push(u);
        vs.push(v);

        // --- convergence test ----------------------------------------------
        let cross_norm = (u_norm_sq * v_norm_sq).sqrt_real();
        let total_norm = norm_sq.max_real(T::Real::zero()).sqrt_real();
        if cross_norm <= tol * total_norm {
            break;
        }
    }

    let lr = factors_from_crosses(m, n, &us, &vs);
    if let Some(meter) = meter {
        // Copying the crosses into the returned factors briefly doubles
        // them, then every buffer this function owns retires.  Compression
        // is metered net-zero: the caller records the bytes of the factors
        // it decides to retain.
        meter.record_alloc(dense_bytes::<T>(m + n, us.len()));
        meter.record_free(dense_bytes::<T>(m + n, 2 * us.len() + 1));
    }
    lr
}

/// Residual row `i`: `A(i, :) - sum_k us[k][i] * vs[k]^*`.  `coefs` is
/// scratch for the `us[k][i]`.
fn residual_row<T: Scalar, S: MatrixEntrySource<T> + ?Sized>(
    source: &S,
    us: &[Vec<T>],
    vs: &[Vec<T>],
    i: usize,
    out: &mut [T],
    coefs: &mut Vec<T>,
) {
    source.row(i, out);
    coefs.clear();
    coefs.extend(us.iter().map(|u| u[i]));
    sub_columns(out, vs, coefs, true);
}

/// Residual column `j`: `A(:, j) - sum_k us[k] * conj(vs[k][j])`.
/// `coefs` is scratch for the `conj(vs[k][j])`.
fn residual_col<T: Scalar, S: MatrixEntrySource<T> + ?Sized>(
    source: &S,
    us: &[Vec<T>],
    vs: &[Vec<T>],
    j: usize,
    out: &mut [T],
    coefs: &mut Vec<T>,
) {
    source.col(j, out);
    coefs.clear();
    coefs.extend(vs.iter().map(|v| v[j].conj()));
    sub_columns(out, us, coefs, false);
}

fn next_unused(used: &[bool], start: usize) -> Option<usize> {
    (start..used.len()).chain(0..start).find(|&i| !used[i])
}

fn argmax_abs<T: Scalar>(values: &[T], excluded: &[bool]) -> Option<usize> {
    let mut best: Option<(usize, T::Real)> = None;
    for (j, &v) in values.iter().enumerate() {
        if excluded[j] {
            continue;
        }
        let a = v.abs();
        match best {
            Some((_, b)) if b >= a => {}
            _ => best = Some((j, a)),
        }
    }
    best.map(|(j, _)| j)
}

fn factors_from_crosses<T: Scalar>(m: usize, n: usize, us: &[Vec<T>], vs: &[Vec<T>]) -> LowRank<T> {
    let r = us.len();
    let mut u = DenseMatrix::zeros(m, r);
    let mut v = DenseMatrix::zeros(n, r);
    for k in 0..r {
        u.col_mut(k).copy_from_slice(&us[k]);
        v.col_mut(k).copy_from_slice(&vs[k]);
    }
    LowRank::new(u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{ClosureSource, DenseSource};
    use hodlr_la::columns::COLUMN_CHUNK;
    use hodlr_la::random::random_low_rank;
    use hodlr_la::{Complex64, DenseMatrix};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn exact_low_rank_is_recovered() {
        let mut rng = StdRng::seed_from_u64(11);
        let a: DenseMatrix<f64> = random_low_rank(&mut rng, 50, 35, 4);
        for piv in [AcaPivoting::Partial, AcaPivoting::Rook] {
            let lr = aca_compress(&DenseSource::new(&a), 1e-12, None, piv);
            assert!(
                lr.rank() >= 4 && lr.rank() <= 6,
                "{piv:?}: rank {}",
                lr.rank()
            );
            assert!(lr.reconstruction_error(&a) < 1e-10 * a.norm_fro());
        }
    }

    #[test]
    fn complex_low_rank_is_recovered() {
        let mut rng = StdRng::seed_from_u64(12);
        let a: DenseMatrix<Complex64> = random_low_rank(&mut rng, 30, 30, 5);
        let lr = aca_compress(&DenseSource::new(&a), 1e-12, None, AcaPivoting::Rook);
        assert!(lr.reconstruction_error(&a).to_f64() < 1e-9 * a.norm_fro().to_f64());
    }

    #[test]
    fn smooth_kernel_block_compresses_far_below_full_rank() {
        // 1D separated clusters interacting through 1/(1 + |x - y|): the
        // numerical rank at 1e-8 is far below min(m, n) = 60.
        let src = ClosureSource::new(60, 60, |i, j| {
            let x = i as f64 / 60.0;
            let y = 2.0 + j as f64 / 60.0;
            1.0 / (1.0 + (x - y).abs())
        });
        let dense = src.to_dense();
        let lr = aca_compress(&src, 1e-8, None, AcaPivoting::Rook);
        assert!(lr.rank() < 20, "rank {}", lr.rank());
        assert!(lr.reconstruction_error(&dense) < 1e-6 * dense.norm_fro());
    }

    #[test]
    fn zero_matrix_gives_rank_zero() {
        let a = DenseMatrix::<f64>::zeros(10, 8);
        let lr = aca_compress(&DenseSource::new(&a), 1e-10, None, AcaPivoting::Partial);
        assert_eq!(lr.rank(), 0);
    }

    #[test]
    fn rank_cap_is_respected() {
        let mut rng = StdRng::seed_from_u64(13);
        let a: DenseMatrix<f64> = random_low_rank(&mut rng, 30, 30, 10);
        let lr = aca_compress(&DenseSource::new(&a), 1e-14, Some(3), AcaPivoting::Rook);
        assert_eq!(lr.rank(), 3);
    }

    #[test]
    fn empty_block_is_handled() {
        let a = DenseMatrix::<f64>::zeros(0, 5);
        let lr = aca_compress(&DenseSource::new(&a), 1e-10, None, AcaPivoting::Partial);
        assert_eq!(lr.rank(), 0);
        assert_eq!(lr.nrows(), 0);
        assert_eq!(lr.ncols(), 5);
    }

    /// Reference ACA in plain sequential loops that re-evaluates the final
    /// row of every rook search and the column of every cross.  The
    /// compressor must reproduce its factors bit for bit.
    mod reference {
        use super::super::{argmax_abs, factors_from_crosses, next_unused, ROOK_ITERATIONS};
        use crate::{AcaPivoting, LowRank, MatrixEntrySource};
        use hodlr_la::{RealScalar, Scalar};

        pub fn aca<T: Scalar, S: MatrixEntrySource<T>>(
            source: &S,
            tol: T::Real,
            pivoting: AcaPivoting,
        ) -> LowRank<T> {
            let (m, n) = (source.nrows(), source.ncols());
            let rank_cap = m.min(n);
            let mut us: Vec<Vec<T>> = Vec::new();
            let mut vs: Vec<Vec<T>> = Vec::new();
            let mut used_rows = vec![false; m];
            let mut used_cols = vec![false; n];
            let mut norm_sq = T::Real::zero();
            let mut row_buf = vec![T::zero(); n];
            let mut col_buf = vec![T::zero(); m];
            let mut next_row = 0usize;
            while us.len() < rank_cap {
                let Some(mut i) = next_unused(&used_rows, next_row) else {
                    break;
                };
                residual_row(source, &us, &vs, i, &mut row_buf);
                let Some(mut j) = argmax_abs(&row_buf, &used_cols) else {
                    break;
                };
                if pivoting == AcaPivoting::Rook {
                    for _ in 0..ROOK_ITERATIONS {
                        residual_col(source, &us, &vs, j, &mut col_buf);
                        let Some(i_new) = argmax_abs(&col_buf, &used_rows) else {
                            break;
                        };
                        if i_new == i {
                            break;
                        }
                        i = i_new;
                        residual_row(source, &us, &vs, i, &mut row_buf);
                        let Some(j_new) = argmax_abs(&row_buf, &used_cols) else {
                            break;
                        };
                        if j_new == j {
                            break;
                        }
                        j = j_new;
                    }
                    residual_row(source, &us, &vs, i, &mut row_buf);
                }
                let delta = row_buf[j];
                if delta.abs() == T::Real::zero() {
                    used_rows[i] = true;
                    next_row = i + 1;
                    if used_rows.iter().all(|&u| u) {
                        break;
                    }
                    continue;
                }
                residual_col(source, &us, &vs, j, &mut col_buf);
                let u: Vec<T> = col_buf.clone();
                let inv_delta = delta.recip();
                let v: Vec<T> = row_buf.iter().map(|&r| (r * inv_delta).conj()).collect();
                let u_norm_sq: T::Real = u.iter().map(|x| x.abs_sqr()).sum();
                let v_norm_sq: T::Real = v.iter().map(|x| x.abs_sqr()).sum();
                let mut cross_terms = T::Real::zero();
                for l in 0..us.len() {
                    let uu: T = us[l].iter().zip(&u).map(|(&a, &b)| a.conj() * b).sum();
                    let vv: T = v.iter().zip(&vs[l]).map(|(&a, &b)| a.conj() * b).sum();
                    cross_terms += (uu * vv).real();
                }
                norm_sq += T::Real::from_f64_real(2.0) * cross_terms + u_norm_sq * v_norm_sq;
                used_rows[i] = true;
                used_cols[j] = true;
                next_row = i + 1;
                us.push(u);
                vs.push(v);
                let cross_norm = (u_norm_sq * v_norm_sq).sqrt_real();
                let total_norm = norm_sq.max_real(T::Real::zero()).sqrt_real();
                if cross_norm <= tol * total_norm {
                    break;
                }
            }
            factors_from_crosses(m, n, &us, &vs)
        }

        fn residual_row<T: Scalar, S: MatrixEntrySource<T>>(
            source: &S,
            us: &[Vec<T>],
            vs: &[Vec<T>],
            i: usize,
            out: &mut [T],
        ) {
            source.row(i, out);
            for (u, v) in us.iter().zip(vs) {
                let ui = u[i];
                if ui == T::zero() {
                    continue;
                }
                for (o, &vj) in out.iter_mut().zip(v) {
                    *o -= ui * vj.conj();
                }
            }
        }

        fn residual_col<T: Scalar, S: MatrixEntrySource<T>>(
            source: &S,
            us: &[Vec<T>],
            vs: &[Vec<T>],
            j: usize,
            out: &mut [T],
        ) {
            source.col(j, out);
            for (u, v) in us.iter().zip(vs) {
                let vj = v[j].conj();
                if vj == T::zero() {
                    continue;
                }
                for (o, &ui) in out.iter_mut().zip(u) {
                    *o -= ui * vj;
                }
            }
        }
    }

    /// Counts the entries evaluated through it.
    struct Counting<'a, S> {
        inner: &'a S,
        count: AtomicU64,
    }

    impl<T: Scalar, S: MatrixEntrySource<T>> MatrixEntrySource<T> for Counting<'_, S> {
        fn nrows(&self) -> usize {
            self.inner.nrows()
        }

        fn ncols(&self) -> usize {
            self.inner.ncols()
        }

        fn entry(&self, i: usize, j: usize) -> T {
            self.count.fetch_add(1, Ordering::Relaxed);
            self.inner.entry(i, j)
        }
    }

    /// Bit patterns of the real and imaginary parts of every entry.
    fn bits<T: Scalar>(a: &DenseMatrix<T>) -> Vec<(u64, u64)> {
        a.data()
            .iter()
            .map(|x| (x.real().to_f64().to_bits(), x.imag().to_f64().to_bits()))
            .collect()
    }

    /// Compress `source` with both implementations and both pivotings:
    /// equal factors bit for bit, fewer entries for rook pivoting, as many
    /// for partial pivoting.
    fn check_against_reference<T: Scalar, S: MatrixEntrySource<T>>(name: &str, source: &S) {
        let tol = T::Real::from_f64_real(1e-10);
        for piv in [AcaPivoting::Partial, AcaPivoting::Rook] {
            let counted = |_| Counting {
                inner: source,
                count: AtomicU64::new(0),
            };
            let (reference, optimized) = (counted(()), counted(()));
            let expect = reference::aca(&reference, tol, piv);
            let got = aca_compress(&optimized, tol, None, piv);
            let (expect_entries, entries) =
                (reference.count.into_inner(), optimized.count.into_inner());
            let at = format!("{name}, {piv:?}");
            assert!(expect.rank() > 0, "{at}: the block must not be zero");
            assert_eq!(got.rank(), expect.rank(), "{at}: rank");
            assert_eq!(bits(&got.u), bits(&expect.u), "{at}: U");
            assert_eq!(bits(&got.v), bits(&expect.v), "{at}: V");
            match piv {
                AcaPivoting::Rook => assert!(
                    entries < expect_entries,
                    "{at}: {entries} entries, reference {expect_entries}"
                ),
                AcaPivoting::Partial => assert_eq!(entries, expect_entries, "{at}"),
            }
        }
    }

    /// `1 / (1 + |x - y|)` between separated 1-D clusters, times
    /// `e^{i |x - y|}` when `T` is complex.
    fn smooth<T: Scalar>(m: usize, n: usize) -> impl MatrixEntrySource<T> {
        ClosureSource::new(m, n, move |i, j| {
            let d = (i as f64 / m as f64 - 2.0 - j as f64 / n as f64).abs();
            T::from_parts(
                T::Real::from_f64_real(d.cos() / (1.0 + d)),
                T::Real::from_f64_real(d.sin() / (1.0 + d)),
            )
        })
    }

    fn reference_cases<T: Scalar>(seed: u64) {
        check_against_reference::<T, _>("smooth", &smooth::<T>(70, 50));
        let mut rng = StdRng::seed_from_u64(seed);
        let a: DenseMatrix<T> = random_low_rank(&mut rng, 50, 35, 5);
        check_against_reference("random low rank", &DenseSource::new(&a));
        // Rows and columns longer than two chunks of the kernels' split.
        let long = 2 * COLUMN_CHUNK + 37;
        check_against_reference::<T, _>("long", &smooth::<T>(long, long + 5));
        // Three zero rows, then a rank-1 block whose residual rows are
        // exactly zero after the first cross.
        let zero_rows = ClosureSource::new(40, 30, |i, j| {
            if i < 3 {
                T::zero()
            } else {
                T::from_f64(((i % 7) + 1) as f64 * ((j % 5) + 2) as f64)
            }
        });
        check_against_reference("zero residual rows", &zero_rows);
    }

    #[test]
    fn factors_match_the_reference_bitwise_with_fewer_rook_entries() {
        reference_cases::<f64>(21);
        reference_cases::<Complex64>(22);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn aca_error_meets_tolerance_on_random_low_rank(
            m in 10usize..40,
            n in 10usize..40,
            r in 1usize..6,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a: DenseMatrix<f64> = random_low_rank(&mut rng, m, n, r.min(m).min(n));
            let lr = aca_compress(&DenseSource::new(&a), 1e-10, None, AcaPivoting::Rook);
            let err = lr.reconstruction_error(&a);
            prop_assert!(err < 1e-7 * a.norm_fro().max(1e-30));
        }
    }
}
