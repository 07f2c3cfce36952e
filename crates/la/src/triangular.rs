//! Triangular solves (forward / backward substitution) on matrix views.
//!
//! # Eight-lane path
//!
//! A substitution is one dependent chain per right-hand side: entry `i` of
//! a column waits on every entry solved before it.  The solves here (and
//! the `L^H` solve in [`crate::cholesky`] and the dot form of `gemm`'s
//! direct path, which follow the same contract) therefore run eight
//! columns side by side.  Each full group of eight columns is packed row
//! by row into `[T; 8]`, and lane `l` runs exactly the operation
//! sequence its column runs on its own: the same operands in the same
//! order, unfused.  The lanes are independent chains that the CPU overlaps
//! and the compiler vectorizes, and no column's reduction is reordered, so
//! every entry is bitwise what the per-column loop produces.  The leftover
//! `cols % 8` columns, and with them every single-right-hand-side
//! solve, take the per-column loop; the lane buffer is allocated only when
//! a full group exists.  The lane kernels are ISA-dispatched
//! ([`crate::isa_level`]); the per-column loops of the solves are not.

use crate::dense::{MatMut, MatRef};
use crate::isa::multiversion;
use crate::scalar::Scalar;

/// Right-hand sides the lane kernels solve side by side.
pub(crate) const LANES: usize = 8;

/// Which triangle of the coefficient matrix is referenced.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Triangle {
    /// Lower triangular.
    Lower,
    /// Upper triangular.
    Upper,
}

/// Whether the diagonal is stored or implicitly unit.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Diag {
    /// The diagonal entries are taken from the matrix.
    NonUnit,
    /// The diagonal entries are implicitly one (as in the `L` factor of LU).
    Unit,
}

/// Solve `op(T) * X = B` in place, where `T` is triangular and `B` (the
/// right-hand sides, one per column) is overwritten with the solution.
///
/// This corresponds to BLAS `trsm` with `side = Left`, `alpha = 1`.  Full
/// groups of eight columns are solved side by side, bitwise as one at a
/// time (see the module docs).
///
/// # Panics
/// Panics if `t` is not square or shapes do not match.
pub fn solve_triangular_in_place<T: Scalar>(
    t: MatRef<'_, T>,
    triangle: Triangle,
    diag: Diag,
    mut b: MatMut<'_, T>,
) {
    let n = t.rows();
    assert_eq!(t.cols(), n, "triangular matrix must be square");
    assert_eq!(b.rows(), n, "right-hand side has wrong row count");
    if n == 0 {
        return;
    }

    let grouped = b.cols() - b.cols() % LANES;
    if grouped > 0 {
        solve_triangular_lanes(t, triangle, diag, b.block_mut(0, 0, n, grouped));
    }
    for j in grouped..b.cols() {
        let col = b.col_mut(j);
        match triangle {
            Triangle::Lower => solve_lower_col(t, diag, col),
            Triangle::Upper => solve_upper_col(t, diag, col),
        }
    }
}

multiversion! {
    /// The lane kernel of [`solve_triangular_in_place`]: solves every
    /// column of `b`, whose count is a multiple of [`LANES`].
    pub(crate) fn solve_triangular_lanes<T: Scalar>(
        t: MatRef<'_, T>,
        triangle: Triangle,
        diag: Diag,
        b: MatMut<'_, T>,
    ) = solve_triangular_lanes_body;
}

#[inline(always)]
pub(crate) fn solve_triangular_lanes_body<T: Scalar>(
    t: MatRef<'_, T>,
    triangle: Triangle,
    diag: Diag,
    mut b: MatMut<'_, T>,
) {
    let n = t.rows();
    debug_assert_eq!(b.cols() % LANES, 0);
    // Row `i` of `T` is read once per lane group: copy `T` row-major once,
    // so those reads are contiguous rather than `ld` apart.
    let mut rows = vec![T::zero(); n * n];
    for k in 0..n {
        for (i, &v) in t.col(k).iter().enumerate() {
            rows[i * n + k] = v;
        }
    }
    let row = |i: usize| &rows[i * n..(i + 1) * n];
    let mut x = vec![[T::zero(); LANES]; n];
    for j0 in (0..b.cols()).step_by(LANES) {
        pack_lanes(&b, j0, &mut x);
        match triangle {
            Triangle::Lower => {
                (0..n).for_each(|i| solve_lanes_row(row(i), diag, i, 0..i, &mut x));
            }
            Triangle::Upper => {
                (0..n)
                    .rev()
                    .for_each(|i| solve_lanes_row(row(i), diag, i, i + 1..n, &mut x));
            }
        }
        unpack_lanes(&x, &mut b, j0);
    }
}

/// Copy columns `j0..j0 + LANES` of `b` into `x`, row `i` into `x[i]`.
#[inline(always)]
pub(crate) fn pack_lanes<T: Scalar>(b: &MatMut<'_, T>, j0: usize, x: &mut [[T; LANES]]) {
    let b = b.as_ref();
    for l in 0..LANES {
        for (xi, &v) in x.iter_mut().zip(b.col(j0 + l)) {
            xi[l] = v;
        }
    }
}

/// Copy `x` back into columns `j0..j0 + LANES` of `b`.
#[inline(always)]
pub(crate) fn unpack_lanes<T: Scalar>(x: &[[T; LANES]], b: &mut MatMut<'_, T>, j0: usize) {
    for l in 0..LANES {
        for (v, xi) in b.col_mut(j0 + l).iter_mut().zip(x) {
            *v = xi[l];
        }
    }
}

/// Row `i` of a lane solve: each lane runs [`solve_lower_col`]'s (or
/// [`solve_upper_col`]'s) step for row `i` (`row` is row `i` of `T`),
/// subtracting `t[i, k] * x[k]` over the already solved rows `known` in
/// ascending `k`.
#[inline(always)]
fn solve_lanes_row<T: Scalar>(
    row: &[T],
    diag: Diag,
    i: usize,
    known: std::ops::Range<usize>,
    x: &mut [[T; LANES]],
) {
    let mut acc = x[i];
    for (&tik, xk) in row[known.clone()].iter().zip(&x[known]) {
        for (a, &xkl) in acc.iter_mut().zip(xk) {
            *a -= tik * xkl;
        }
    }
    if diag == Diag::NonUnit {
        let r = row[i].recip();
        for a in &mut acc {
            *a *= r;
        }
    }
    x[i] = acc;
}

#[allow(clippy::needless_range_loop)] // k indexes both t and x
pub(crate) fn solve_lower_col<T: Scalar>(t: MatRef<'_, T>, diag: Diag, x: &mut [T]) {
    let n = x.len();
    for i in 0..n {
        let mut acc = x[i];
        for k in 0..i {
            acc -= t.get(i, k) * x[k];
        }
        x[i] = match diag {
            Diag::Unit => acc,
            Diag::NonUnit => acc * t.get(i, i).recip(),
        };
    }
}

#[allow(clippy::needless_range_loop)] // k indexes both t and x
pub(crate) fn solve_upper_col<T: Scalar>(t: MatRef<'_, T>, diag: Diag, x: &mut [T]) {
    let n = x.len();
    for ii in 0..n {
        let i = n - 1 - ii;
        let mut acc = x[i];
        for k in (i + 1)..n {
            acc -= t.get(i, k) * x[k];
        }
        x[i] = match diag {
            Diag::Unit => acc,
            Diag::NonUnit => acc * t.get(i, i).recip(),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{dot_form_columns, gemm_direct_body};
    use crate::cholesky::{solve_conj_transpose_lower_col, solve_conj_transpose_lower_in_place};
    use crate::dense::DenseMatrix;
    use crate::random::random_matrix;
    use crate::scalar::RealScalar;
    use crate::{gemm, Complex64, Op};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Bit patterns of the real and imaginary parts (`f32` widens exactly).
    fn bits<T: Scalar>(m: &DenseMatrix<T>) -> Vec<(u64, u64)> {
        m.data()
            .iter()
            .map(|x| (x.real().to_f64().to_bits(), x.imag().to_f64().to_bits()))
            .collect()
    }

    /// Right-hand-side counts: empty, below, at and above one lane group,
    /// two groups with and without a leftover, and the leaf widths `W` of
    /// the laplace-surface-2d and gp-se-3d benchmark matrices.
    const WIDTHS: [usize; 9] = [0, 1, 7, 8, 9, 16, 17, 138, 578];
    /// Order of the triangle; rows of the taller buffers the views live in.
    const N: usize = 64;
    const LD: usize = 3 * N;
    const OFF: usize = N;

    /// A random `LD x cols` buffer whose rows `OFF..OFF + N` are viewed with
    /// `ld = LD > rows`, as a leaf's rows of `Ybig` are.
    fn tall<T: Scalar>(rng: &mut StdRng, cols: usize) -> DenseMatrix<T> {
        random_matrix(rng, LD, cols)
    }

    /// A triangle with small off-diagonal entries and a dominant diagonal,
    /// so every solve stays finite at `N = 64`.
    fn triangle_buffer<T: Scalar>(rng: &mut StdRng) -> DenseMatrix<T> {
        let mut t: DenseMatrix<T> = tall(rng, N);
        for j in 0..N {
            for i in OFF..OFF + N {
                let v = t[(i, j)];
                t[(i, j)] = if i - OFF == j {
                    v + T::from_f64(2.0)
                } else {
                    v.scale(T::Real::from_f64_real(0.25))
                };
            }
        }
        t
    }

    /// Run `solve` on the strided view and `column` on each of its columns
    /// of a copy; both must leave the whole buffer bitwise the same.
    fn check_against_columns<T: Scalar>(
        what: &str,
        b: &DenseMatrix<T>,
        solve: impl Fn(MatMut<'_, T>),
        column: impl Fn(&mut [T]),
    ) {
        let (mut lanes, mut columns) = (b.clone(), b.clone());
        let w = b.cols();
        solve(lanes.block_mut(OFF, 0, N, w));
        let mut view = columns.block_mut(OFF, 0, N, w);
        for j in 0..w {
            column(view.col_mut(j));
        }
        assert_eq!(bits(&lanes), bits(&columns), "{what}, {w} columns");
    }

    fn check_lanes<T: Scalar>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tb = triangle_buffer::<T>(&mut rng);
        let t = tb.block(OFF, 0, N, N);
        for w in WIDTHS {
            let b: DenseMatrix<T> = tall(&mut rng, w);
            for diag in [Diag::Unit, Diag::NonUnit] {
                check_against_columns(
                    &format!("lower {diag:?}"),
                    &b,
                    |x| solve_triangular_in_place(t, Triangle::Lower, diag, x),
                    |x| solve_lower_col(t, diag, x),
                );
                check_against_columns(
                    &format!("upper {diag:?}"),
                    &b,
                    |x| solve_triangular_in_place(t, Triangle::Upper, diag, x),
                    |x| solve_upper_col(t, diag, x),
                );
                check_against_columns(
                    &format!("conj-transpose lower {diag:?}"),
                    &b,
                    |x| solve_conj_transpose_lower_in_place(t, diag, x),
                    |x| solve_conj_transpose_lower_col(t, diag, x),
                );
            }

            // gemm's direct path, dot form: op_a(A) is 27 x N (the width
            // of a deep `V^H Y` projection), op_b(B) is N x w.
            let m = 27;
            let alpha = T::from_f64(-0.75);
            let ab: DenseMatrix<T> = tall(&mut rng, m);
            let a = ab.block(OFF, 0, N, m);
            let b_stored = [b.clone(), random_matrix(&mut rng, w, N)];
            let c: DenseMatrix<T> = random_matrix(&mut rng, m + 5, w);
            for op_a in [Op::Trans, Op::ConjTrans] {
                for op_b in [Op::None, Op::Trans, Op::ConjTrans] {
                    let bm = if op_b == Op::None {
                        b_stored[0].block(OFF, 0, N, w)
                    } else {
                        b_stored[1].as_ref()
                    };
                    let (mut lanes, mut columns) = (c.clone(), c.clone());
                    gemm_direct_body(alpha, &a, op_a, &bm, op_b, &mut lanes.block_mut(2, 0, m, w));
                    let conj_a = op_a == Op::ConjTrans;
                    let mut view = columns.block_mut(2, 0, m, w);
                    dot_form_columns(alpha, &a, conj_a, &bm, op_b, &mut view, 0);
                    assert_eq!(
                        bits(&lanes),
                        bits(&columns),
                        "gemm direct {op_a:?}/{op_b:?}, {w} columns"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_order_solves_are_noops() {
        let t = DenseMatrix::<f64>::zeros(0, 0);
        let mut b = DenseMatrix::<f64>::zeros(0, 9);
        solve_triangular_in_place(t.as_ref(), Triangle::Lower, Diag::NonUnit, b.as_mut());
        solve_triangular_in_place(t.as_ref(), Triangle::Upper, Diag::Unit, b.as_mut());
        solve_conj_transpose_lower_in_place(t.as_ref(), Diag::NonUnit, b.as_mut());
        assert_eq!((b.rows(), b.cols()), (0, 9));
    }

    #[test]
    fn lane_kernels_match_per_column_loops_bitwise() {
        check_lanes::<f64>(11);
        check_lanes::<f32>(12);
        check_lanes::<Complex64>(13);
    }

    #[test]
    fn lower_nonunit_roundtrip() {
        let l = DenseMatrix::from_rows(&[
            vec![2.0, 0.0, 0.0],
            vec![1.0, 3.0, 0.0],
            vec![-1.0, 0.5, 4.0],
        ]);
        let x_true = DenseMatrix::from_rows(&[vec![1.0, -2.0], vec![0.5, 3.0], vec![-1.5, 0.0]]);
        let mut b = DenseMatrix::zeros(3, 2);
        gemm(
            1.0,
            l.as_ref(),
            Op::None,
            x_true.as_ref(),
            Op::None,
            0.0,
            b.as_mut(),
        );
        solve_triangular_in_place(l.as_ref(), Triangle::Lower, Diag::NonUnit, b.as_mut());
        assert!(b.sub(&x_true).norm_max() < 1e-13);
    }

    #[test]
    fn upper_nonunit_roundtrip() {
        let u = DenseMatrix::from_rows(&[
            vec![2.0, -1.0, 3.0],
            vec![0.0, 1.5, 0.25],
            vec![0.0, 0.0, -4.0],
        ]);
        let x_true = DenseMatrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let mut b = DenseMatrix::zeros(3, 1);
        gemm(
            1.0,
            u.as_ref(),
            Op::None,
            x_true.as_ref(),
            Op::None,
            0.0,
            b.as_mut(),
        );
        solve_triangular_in_place(u.as_ref(), Triangle::Upper, Diag::NonUnit, b.as_mut());
        assert!(b.sub(&x_true).norm_max() < 1e-13);
    }

    #[test]
    fn lower_unit_ignores_diagonal() {
        // Diagonal entries are garbage; Unit solve must ignore them.
        let l = DenseMatrix::from_rows(&[vec![99.0, 0.0], vec![2.0, -7.0]]);
        let mut b = DenseMatrix::from_rows(&[vec![1.0], vec![5.0]]);
        solve_triangular_in_place(l.as_ref(), Triangle::Lower, Diag::Unit, b.as_mut());
        // x1 = 1, x2 = 5 - 2*1 = 3
        assert_eq!(b[(0, 0)], 1.0);
        assert_eq!(b[(1, 0)], 3.0);
    }
}
