//! Triangular solves (forward / backward substitution) on matrix views.
//!
//! # Fused lanes
//!
//! A substitution is one dependent chain per right-hand side: entry `i` of
//! a column waits on every entry solved before it.  The solves here
//! therefore run many columns side by side.  Each group of eight columns
//! is packed row by row into `[T; 8]`, and lane `l` runs exactly the
//! operation sequence its column runs on its own: the same operands, the
//! same fused multiply-adds ([`Scalar::mul_add`]), in the same order.  The
//! lanes are independent chains that the CPU overlaps and the compiler
//! vectorizes, and no column's reduction is reordered, so every entry is
//! bitwise what the per-column loop produces (but for the sign and payload
//! of a NaN, which Rust leaves unspecified and the two compiled paths do
//! set differently).
//!
//! A fused chain is as long as an unfused one, so eight lanes (two AVX2
//! vectors of `f64`) leave most of the FMA units idle.  With real scalars
//! a row pass therefore runs `GROUPS` (four) groups at once (`WIDE`, 32
//! lanes, eight `f64` vectors in flight) while that many full groups
//! remain, and the columns left after those passes in one more pass,
//! padded to whole groups; complex solves run one group per pass
//! (`solve_in_lanes` gives the measurements).  Each lane still runs its
//! own column's operations, so the pass width changes no bit.
//!
//! The leftover `cols % 8` columns run as one more, padded group when
//! there are at least `PADDED_GROUP_MIN` of them (three; six for complex
//! scalars, `PADDED_GROUP_MIN_COMPLEX`): the lanes past the last real
//! column repeat that column, and only the real lanes are written back.
//! Each real lane still runs its own column's operations, so the padding
//! changes no bit, and a padding lane holds a copy of a real column, so a
//! kernel that branches on its lanes' values (the Bunch-Kaufman update's
//! zero test) sees the real lanes' pattern.  Fewer leftover columns, and
//! with them every single-right-hand-side solve, take the per-column loop
//! (`lane_columns` draws the line); the lane buffer is allocated only
//! when a group exists.  The lane kernels and the per-column loops are
//! both ISA-dispatched ([`crate::isa_level`]), so neither pays an
//! out-of-line `fma` call per multiply-add.
//!
//! Each column of a triangular solve subtracts `t[i, k] * x[k]` from
//! `x[i]` over `k` in one order: ascending for the lower triangle,
//! descending for the upper one, then scales by the reciprocal of
//! `t[i, i]` unless the diagonal is unit.  The lanes run it row by row
//! from a row-major copy of the triangle; the per-column loop runs it
//! column by column as fused `axpy`s over contiguous columns, which gives
//! every entry the same operations in the same order.
//!
//! Two kinds of lane kernels in the crate follow this contract.
//! *Right-hand-side lanes* run columns of the right-hand side side by
//! side: the solves here, the `L^H` solve and the Bunch-Kaufman solve in
//! [`crate::cholesky`] (whose forward updates skip a lane where its column
//! skips a zero), all through `solve_in_lanes`, and the dot form of
//! `gemm`'s direct path (eight columns of `alpha * op_b(B)`); all four pad
//! their last group.
//! *Output lanes* run eight entries of one output column side by side:
//! `gemm`'s one-column kernel with transposed `A`, one stored column of
//! `A` per lane (see "One column" in [`crate::blas`]); its leftover
//! entries run one at a time.  Either way a lane's chain is the one its
//! entry runs alone.

use crate::blas::axpy_slice_body;
use crate::dense::{MatMut, MatRef};
use crate::isa::multiversion;
use crate::scalar::Scalar;

/// Right-hand sides one lane group solves side by side.
pub(crate) const LANES: usize = 8;

/// Lane groups one row pass runs while at least that many full groups of
/// right-hand sides remain (real scalars).  In a standalone copy of the
/// lane kernel (64x64 lower triangle, 578 right-hand sides, Intel Xeon,
/// AVX2 + FMA) fused lanes read 9.9 GFLOP/s at one group per pass, no
/// faster than the 9.3-10.0 of unfused ones, and 14.5 at four.  In the
/// `kernels` bench's order-64 f64 solves (one thread, one binary linking
/// both builds, two runs of 41 interleaved samples), two groups per pass
/// took 1.03-1.11x the time of four for `getrs` and `potrs` at 31 and 32
/// right-hand sides.  For the Bunch-Kaufman solve (`sytrs`) the sign
/// flipped between two such binaries (two groups 0.89-0.94x the time of
/// four at 31 to 578 right-hand sides in one, 1.08-1.10x at 138 and 578
/// and 1.36-1.56x at 31 in the other): code layout, not width, so it keeps
/// four.
pub(crate) const GROUPS: usize = 4;

/// Right-hand sides of one wide pass: [`GROUPS`] lane groups.
pub(crate) const WIDE: usize = GROUPS * LANES;

/// Fewest leftover columns (`cols % LANES`) that run as one more, padded
/// lane group with real scalars; fewer take the per-column loop.
/// Measured through the facade's `solve_block` on the n = 4096 GP and
/// Laplace operators of the serve-mixed benchmark (Intel Xeon, 2 vCPUs,
/// medians of 5 runs, before the solves were fused): padding two leftover
/// columns read 3.02 -> 3.20 ms (GP) and 1.21 -> 1.68 ms (Laplace), and
/// one leftover after a full group 5.39 -> 5.95 ms (GP, 9 columns);
/// padding three read 3.87 -> 3.34 ms (GP) and 1.63 -> 1.59 ms (Laplace),
/// and five to seven 0.71-0.76x (GP, 13-15 columns).
pub(crate) const PADDED_GROUP_MIN: usize = 3;

/// [`PADDED_GROUP_MIN`] for complex scalars, whose eight-lane group costs
/// about five to nine one-column solves where a real one costs two to
/// four.  In the `kernels` bench's order-64 `c64` rows (same host, three
/// alternating sweeps against the one-column loops, before the solves were
/// fused), padding three leftover columns read 1.16-2.06x (`getrs`,
/// `potrs`, `sytrs` and the dot form at 3 right-hand sides) and up to
/// 1.22x at 11; six and seven read 0.57-0.96x at 14 and 15.
pub(crate) const PADDED_GROUP_MIN_COMPLEX: usize = 6;

/// How many of `cols` right-hand sides the lane kernels take: every full
/// group of [`LANES`], and the leftover columns too when there are at
/// least [`PADDED_GROUP_MIN`] of them ([`PADDED_GROUP_MIN_COMPLEX`] for
/// complex `T`).  The rest take the per-column loop.
pub(crate) fn lane_columns<T: Scalar>(cols: usize) -> usize {
    let min = if T::IS_COMPLEX {
        PADDED_GROUP_MIN_COMPLEX
    } else {
        PADDED_GROUP_MIN
    };
    let rest = cols % LANES;
    if rest < min {
        cols - rest
    } else {
        cols
    }
}

/// A lane kernel: solves every lane of a packed group of `W` right-hand
/// sides, `x[i][l]` being entry `i` of lane `l`, each lane running its
/// column's operations.
pub(crate) trait LaneSolve<T: Scalar> {
    /// Solve the lanes of `x` in place.
    fn solve_lanes<const W: usize>(&self, x: &mut [[T; W]]);
}

/// Solve every column of `b` with `kernel` (the module docs): with real
/// scalars, passes of [`WIDE`] columns while that many remain, then one
/// pass over the rest, padded to whole lane groups (so 29 columns run one
/// 32-lane pass); with complex scalars, one lane group per pass, the last
/// one padded.  A plain function over a trait, not a closure, so that a
/// dispatched caller's whole loop nest runs in its ISA copy.
///
/// Complex lanes gain nothing from width: a complex multiply-add ends in
/// a plain add, and 32 complex lanes fill every vector register.  In the
/// `kernels` bench's order-64 `c64` solves (one thread, one binary linking
/// both builds, two runs of 41 interleaved samples), four groups per pass
/// took 1.3-1.55x the time of one for `getrs` and `potrs` and 1.1-1.2x for
/// `sytrs` at 31, 32, 138 and 578 right-hand sides; two groups took
/// 1.0-1.5x.
#[inline(always)]
pub(crate) fn solve_in_lanes<T: Scalar, K: LaneSolve<T>>(kernel: &K, b: &mut MatMut<'_, T>) {
    let cols = b.cols();
    if T::IS_COMPLEX {
        solve_passes::<T, K, LANES>(kernel, b, 0..cols);
        return;
    }
    let wide = cols - cols % WIDE;
    solve_passes::<T, K, WIDE>(kernel, b, 0..wide);
    match (cols - wide).div_ceil(LANES) {
        0 => {}
        1 => solve_passes::<T, K, LANES>(kernel, b, wide..cols),
        2 => solve_passes::<T, K, { 2 * LANES }>(kernel, b, wide..cols),
        3 => solve_passes::<T, K, { 3 * LANES }>(kernel, b, wide..cols),
        _ => solve_passes::<T, K, WIDE>(kernel, b, wide..cols),
    }
}

/// Solve columns `cols` of `b` with `kernel`, `W` of them per pass, the
/// last pass padded.
#[inline(always)]
fn solve_passes<T: Scalar, K: LaneSolve<T>, const W: usize>(
    kernel: &K,
    b: &mut MatMut<'_, T>,
    cols: std::ops::Range<usize>,
) {
    if cols.is_empty() {
        return;
    }
    let mut x = vec![[T::zero(); W]; b.rows()];
    for j0 in cols.step_by(W) {
        pack_lanes(b, j0, &mut x);
        kernel.solve_lanes(&mut x);
        unpack_lanes(&x, b, j0);
    }
}

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
/// This corresponds to BLAS `trsm` with `side = Left`, `alpha = 1`.
/// Groups of eight columns, the last one padded, are solved side by side,
/// four groups per pass with real scalars, bitwise as one at a time (see
/// the module docs).
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

    let cols = b.cols();
    let laned = lane_columns::<T>(cols);
    if laned > 0 {
        solve_triangular_lanes(t, triangle, diag, b.block_mut(0, 0, n, laned));
    }
    if laned < cols {
        solve_triangular_columns(t, triangle, diag, b.block_mut(0, laned, n, cols - laned));
    }
}

multiversion! {
    /// The lane kernel of [`solve_triangular_in_place`]: solves every
    /// column of `b` in lane groups, the last one padded.
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
    // Row `i` of the referenced triangle is read once per lane pass: copy
    // it row-major once, so those reads are contiguous rather than `ld`
    // apart.
    let mut kernel = TriangleRows {
        rows: vec![T::zero(); n * (n + 1) / 2],
        n,
        triangle,
        diag,
    };
    for k in 0..n {
        let col = t.col(k);
        match triangle {
            Triangle::Lower => {
                for (i, &v) in col.iter().enumerate().skip(k) {
                    let at = kernel.start(i) + k;
                    kernel.rows[at] = v;
                }
            }
            Triangle::Upper => {
                for (i, &v) in col[..=k].iter().enumerate() {
                    let at = kernel.start(i) + k - i;
                    kernel.rows[at] = v;
                }
            }
        }
    }
    solve_in_lanes(&kernel, &mut b);
}

/// A triangle copied row-major for the lane kernel: row `i` holds
/// `t[i, ..=i]` (lower) or `t[i, i..]` (upper), the diagonal included,
/// and starts at `start(i)`.
struct TriangleRows<T> {
    rows: Vec<T>,
    n: usize,
    triangle: Triangle,
    diag: Diag,
}

impl<T> TriangleRows<T> {
    #[inline(always)]
    fn start(&self, i: usize) -> usize {
        match self.triangle {
            Triangle::Lower => i * (i + 1) / 2,
            Triangle::Upper => i * self.n - i * i.saturating_sub(1) / 2,
        }
    }
}

impl<T: Scalar> LaneSolve<T> for TriangleRows<T> {
    #[inline(always)]
    fn solve_lanes<const W: usize>(&self, x: &mut [[T; W]]) {
        let n = self.n;
        match self.triangle {
            Triangle::Lower => {
                for i in 0..n {
                    let row = &self.rows[self.start(i)..=self.start(i) + i];
                    let mut acc = x[i];
                    for (&tik, xk) in row[..i].iter().zip(&x[..i]) {
                        subtract_lanes(&mut acc, tik, xk);
                    }
                    x[i] = scale_lanes(acc, row[i], self.diag);
                }
            }
            Triangle::Upper => {
                for i in (0..n).rev() {
                    let row = &self.rows[self.start(i)..self.start(i) + n - i];
                    let mut acc = x[i];
                    for (&tik, xk) in row[1..].iter().zip(&x[i + 1..]).rev() {
                        subtract_lanes(&mut acc, tik, xk);
                    }
                    x[i] = scale_lanes(acc, row[0], self.diag);
                }
            }
        }
    }
}

/// `acc[l] <- fma(-c, x[l], acc[l])` in every lane: one subtraction of a
/// substitution.
#[inline(always)]
pub(crate) fn subtract_lanes<T: Scalar, const W: usize>(acc: &mut [T; W], c: T, x: &[T; W]) {
    let c = -c;
    for (a, &v) in acc.iter_mut().zip(x) {
        *a = c.mul_add(v, *a);
    }
}

/// `acc` times the reciprocal of `tii` in every lane, or `acc` itself when
/// the diagonal is unit.
#[inline(always)]
fn scale_lanes<T: Scalar, const W: usize>(mut acc: [T; W], tii: T, diag: Diag) -> [T; W] {
    if diag == Diag::NonUnit {
        let r = tii.recip();
        for a in &mut acc {
            *a *= r;
        }
    }
    acc
}

/// Copy columns `j0..` of `b`, at most `W` of them, into `x`, row `i` into
/// `x[i]`.  When fewer than `W` columns are left, the lanes past the last
/// one repeat it.
#[inline(always)]
pub(crate) fn pack_lanes<T: Scalar, const W: usize>(
    b: &MatMut<'_, T>,
    j0: usize,
    x: &mut [[T; W]],
) {
    let b = b.as_ref();
    let last = b.cols().min(j0 + W) - 1;
    for l in 0..W {
        for (xi, &v) in x.iter_mut().zip(b.col((j0 + l).min(last))) {
            xi[l] = v;
        }
    }
}

/// Copy the lanes of `x` that hold columns `j0..` of `b` (at most `W`)
/// back into them; padding lanes are dropped.
#[inline(always)]
pub(crate) fn unpack_lanes<T: Scalar, const W: usize>(
    x: &[[T; W]],
    b: &mut MatMut<'_, T>,
    j0: usize,
) {
    for l in 0..W.min(b.cols() - j0) {
        for (v, xi) in b.col_mut(j0 + l).iter_mut().zip(x) {
            *v = xi[l];
        }
    }
}

multiversion! {
    /// The per-column loop of [`solve_triangular_in_place`]: solves every
    /// column of `b` on its own.
    pub(crate) fn solve_triangular_columns<T: Scalar>(
        t: MatRef<'_, T>,
        triangle: Triangle,
        diag: Diag,
        b: MatMut<'_, T>,
    ) = solve_triangular_columns_body;
}

#[inline(always)]
pub(crate) fn solve_triangular_columns_body<T: Scalar>(
    t: MatRef<'_, T>,
    triangle: Triangle,
    diag: Diag,
    mut b: MatMut<'_, T>,
) {
    for j in 0..b.cols() {
        let col = b.col_mut(j);
        match triangle {
            Triangle::Lower => solve_lower_col(t, diag, col),
            Triangle::Upper => solve_upper_col(t, diag, col),
        }
    }
}

/// One column of a lower solve, column by column: once `x[k]` is final,
/// `x[k + 1..] <- fma(t[k + 1.., k], -x[k], x[k + 1..])`, so each entry
/// takes its subtractions in ascending `k`, as its lane does.
#[inline(always)]
pub(crate) fn solve_lower_col<T: Scalar>(t: MatRef<'_, T>, diag: Diag, x: &mut [T]) {
    let n = x.len();
    for k in 0..n {
        let tk = t.col(k);
        let xk = match diag {
            Diag::Unit => x[k],
            Diag::NonUnit => x[k] * tk[k].recip(),
        };
        x[k] = xk;
        axpy_slice_body(-xk, &tk[k + 1..n], &mut x[k + 1..]);
    }
}

/// One column of an upper solve, column by column from the last: each
/// entry takes its subtractions in descending `k`, as its lane does.
#[inline(always)]
pub(crate) fn solve_upper_col<T: Scalar>(t: MatRef<'_, T>, diag: Diag, x: &mut [T]) {
    for k in (0..x.len()).rev() {
        let tk = t.col(k);
        let xk = match diag {
            Diag::Unit => x[k],
            Diag::NonUnit => x[k] * tk[k].recip(),
        };
        x[k] = xk;
        axpy_slice_body(-xk, &tk[..k], &mut x[..k]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::gemm_direct_body;
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

    /// Right-hand-side counts: every count up to one wide pass and a lane
    /// group past it, so each leftover count after zero to four full
    /// groups, on both sides of [`PADDED_GROUP_MIN`] and
    /// [`PADDED_GROUP_MIN_COMPLEX`]; and the leaf widths `W` of the
    /// laplace-surface-2d and gp-se-3d benchmark matrices.
    fn widths() -> impl Iterator<Item = usize> {
        (0..=WIDE + LANES).chain([138, 578])
    }
    /// Order of the triangle; rows of the taller buffers the views live in.
    const N: usize = 64;
    const LD: usize = 3 * N;
    const OFF: usize = N;

    /// A random `LD x cols` buffer whose rows `OFF..OFF + N` are viewed with
    /// `ld = LD > rows`, as a leaf's rows of `Ybig` are.
    fn tall<T: Scalar>(rng: &mut StdRng, cols: usize) -> DenseMatrix<T> {
        random_matrix(rng, LD, cols)
    }

    /// Columns past the solved view in a right-hand-side buffer: a kernel
    /// that wrote a padding lane back would change them.
    const SPARE: usize = LANES;

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

    /// Run `solve` on the strided view of the first `w` columns and
    /// `column` on each of them in a copy; both must leave the whole
    /// buffer, [`SPARE`] columns included, bitwise the same.
    fn check_against_columns<T: Scalar>(
        what: &str,
        b: &DenseMatrix<T>,
        solve: impl Fn(MatMut<'_, T>),
        column: impl Fn(&mut [T]),
    ) {
        let (mut lanes, mut columns) = (b.clone(), b.clone());
        let w = b.cols() - SPARE;
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
        for w in widths() {
            let b: DenseMatrix<T> = tall(&mut rng, w + SPARE);
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
            let c: DenseMatrix<T> = random_matrix(&mut rng, m + 5, w + SPARE);
            for op_a in [Op::Trans, Op::ConjTrans] {
                for op_b in [Op::None, Op::Trans, Op::ConjTrans] {
                    let bm = if op_b == Op::None {
                        b_stored[0].block(OFF, 0, N, w)
                    } else {
                        b_stored[1].as_ref()
                    };
                    let (mut lanes, mut columns) = (c.clone(), c.clone());
                    gemm_direct_body(alpha, &a, op_a, &bm, op_b, &mut lanes.block_mut(2, 0, m, w));
                    // Each column alone: `gemm`'s one-column kernel.
                    for j in 0..w {
                        let bj = if op_b == Op::None {
                            bm.block(0, j, N, 1)
                        } else {
                            bm.block(j, 0, 1, N)
                        };
                        let cj = columns.block_mut(2, j, m, 1);
                        gemm(alpha, a, op_a, bj, op_b, T::one(), cj);
                    }
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

    /// A lane kernel that solves nothing and records each pass's width.
    #[derive(Default)]
    struct PassWidths(std::cell::RefCell<Vec<usize>>);

    impl<T: Scalar> LaneSolve<T> for PassWidths {
        fn solve_lanes<const W: usize>(&self, _: &mut [[T; W]]) {
            self.0.borrow_mut().push(W);
        }
    }

    /// The pass widths `solve_in_lanes` runs on `cols` columns of `T`.
    fn pass_widths<T: Scalar>(cols: usize) -> Vec<usize> {
        let kernel = PassWidths::default();
        let mut b = DenseMatrix::<T>::zeros(2, cols);
        solve_in_lanes(&kernel, &mut b.as_mut());
        kernel.0.into_inner()
    }

    /// Real scalars run full passes of [`GROUPS`] groups, then one pass
    /// over the rest, padded to whole groups; complex scalars one group
    /// per pass.
    #[test]
    fn lane_passes_run_full_widths_then_one_padded_pass() {
        for cols in 0..=3 * WIDE {
            let mut want = vec![WIDE; cols / WIDE];
            if cols % WIDE > 0 {
                want.push((cols % WIDE).div_ceil(LANES) * LANES);
            }
            assert_eq!(pass_widths::<f64>(cols), want, "f64, {cols} columns");
            assert_eq!(pass_widths::<f32>(cols), want, "f32, {cols} columns");
            let want = vec![LANES; cols.div_ceil(LANES)];
            assert_eq!(pass_widths::<Complex64>(cols), want, "c64, {cols} columns");
        }
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
