//! Level-2/3 BLAS style kernels: `gemm`, `gemv` and friends.
//!
//! # One recipe per entry
//!
//! Every product here gives entry `(i, j)` of `C` the same floating-point
//! operations, whichever path computes it:
//!
//! 1. `c_ij <- beta * c_ij` (`beta = 0` writes zero, `beta = 1` leaves
//!    `c_ij` as it is);
//! 2. then `c_ij <- fma(op_a(A)[i, p], alpha * op_b(B)[p, j], c_ij)` for
//!    `p` ascending, with no term skipped,
//!
//! where `fma(a, b, c)` is [`Scalar::mul_add`]: one correctly rounded fused
//! multiply-add for real scalars, the complex product and sum for complex
//! ones.  `alpha = 0` or `k = 0` stops after step 1, as in BLAS.
//! [`gemm_reference`] writes the recipe out as one `axpy` per term; the
//! packed microkernel, the direct path with its dot form, the two
//! one-column kernels and [`gemv`] run it too.  An entry's bits therefore
//! depend on none of: the path that computes it, how many columns `C` has,
//! [`GEMM_KC`], the microtile shape, the thread count.  A column of a
//! coalesced block solve is bitwise the column solved alone, and the tile
//! shapes and path thresholds below are pure performance choices.  No zero
//! term is skipped, so `0 * inf` makes a NaN, as in IEEE arithmetic.
//!
//! # Kernel design
//!
//! [`gemm`] is a packed, register-tiled, cache-blocked BLAS-3 kernel in the
//! GotoBLAS/BLIS/faer style.  Large products run through three layers:
//!
//! 1. **Register microkernel** — an `MR x NR` tile of `C` is loaded into
//!    unrolled accumulators (`[[T; MR]; NR]` locals) at the start of each
//!    `k` slab, takes one fused multiply-add per entry for each column of
//!    packed `A` and row of packed `B`, and is stored back at the end of
//!    the slab.  The fixed-size inner loops vectorize for `f32`/`f64` and
//!    stay correct (scalar) for complex fields.
//! 2. **Packing** — `op_a(A)` is repacked into column-major micro-panels of
//!    `MR` rows and `alpha * op_b(B)` into row-major micro-panels of `NR`
//!    columns, so the microkernel reads both operands contiguously
//!    regardless of the requested [`Op`] or the view strides.  Conjugation
//!    and `alpha` are folded into the packs.  The pack buffers are
//!    allocated once per parallel tile task and reused across every `k`
//!    slab of that tile.
//! 3. **Cache blocking** — the `k` dimension is processed in slabs of
//!    [`GEMM_KC`], each tile packs at most [`GEMM_MC`]`x`[`GEMM_KC`] of `A`
//!    (sized for L2) and [`GEMM_KC`]`x`[`GEMM_NC`] of `B` (sized for L3).
//!
//! **Tuning:** [`GEMM_MR`]`x`[`GEMM_NR`] sets the register footprint of the
//! real microkernel: 8x6 `f64` accumulators take twelve of the sixteen
//! AVX2 registers, leaving room for a column of `A` and a broadcast of `B`.
//! Fused 8x6 beat a fused 8x4 at `1024^3` and matched it at the 14-column
//! products of a coalesced solve (the `gemm` and `gemm_rhs` rows of the
//! `kernels` bench), so one tile serves both.
//! `GEMM_KC` bounds the packed panel depth so an `MR x KC` A-strip plus an
//! `NR x KC` B-strip stay L1-resident; `GEMM_MC` (a multiple of `MR`) sizes
//! the packed A panel for L2; `GEMM_NC` (a multiple of `NR`) sets the width
//! of a parallel column tile.  Raise `GEMM_MC`/`GEMM_KC` on machines with
//! larger private caches; shrink `GEMM_NC` to expose more parallel tiles for
//! wide products.
//!
//! # Parallelism
//!
//! Products above [`GEMM_DIRECT_THRESHOLD`] multiply-adds are split over a
//! grid of `GEMM_MC x GEMM_NC` tiles of `C`, one pool task each.  Because
//! the grid covers rows as well as columns, tall-skinny products (the
//! rank-width `V^H * Y` updates that dominate HODLR factorization)
//! parallelize too.  Whatever task computes an entry runs the recipe, so
//! results are bitwise identical at any thread count, as the repo-wide
//! determinism contract requires (see ARCHITECTURE.md).
//!
//! # Small products
//!
//! Below [`GEMM_DIRECT_THRESHOLD`] the kernel uses an unpacked direct path
//! that reads `A` in place (columns of a strided view are always
//! contiguous), so small products do no repacking at all.  With
//! `op_a == Op::None` each column of `C` runs the one-column kernel below.
//! Transposed operands use dot-product form on the contiguous columns of
//! `A`: eight columns of `alpha * op_b(B)` at a time are packed into
//! `[T; 8]` lanes, each lane running its column's chain (the lane contract
//! of [`crate::triangular`]).  Three or more leftover columns (six or more
//! with complex scalars) run as one more group padded with copies of the
//! last one, whose lanes are not written back; fewer take the one-column
//! kernel.
//!
//! The axpy-per-term kernel is retained as [`gemm_reference`]: it is the
//! oracle for property tests and the baseline the `kernels` bench bin
//! (BENCH_kernels.json) measures speedups against.
//!
//! # One column
//!
//! A single-right-hand-side HODLR solve (the paper's Algorithm 4, once per
//! Krylov iteration when HODLR preconditions) calls `gemm` with `op_b(B)`
//! one column wide at every level: `w = V^H x` and `x -= Y w`.  The packed
//! path would copy all of `A` into panels for that one column, so `gemm`
//! copies `alpha * op_b(B)` out instead and reads `A` in place, once.  With
//! `op_a == Op::None` the rows of `C` go in chunks of 512, and each chunk
//! takes eight columns of `A` per pass, each row its terms in order:
//! contiguous reads that vectorize across rows.  With `A` transposed,
//! eight outputs run side by side from eight stored columns of `A`, each
//! lane its own chain (the output lanes of [`crate::triangular`]);
//! leftover outputs run one at a time.  From [`GEMM_DIRECT_THRESHOLD`]
//! multiply-adds on, the row chunks and groups of eight outputs are pool
//! tasks.  [`gemv`] runs the same two kernels on one thread.
//!
//! # ISA dispatch
//!
//! The workspace builds for baseline x86-64, where every `mul_add` is an
//! out-of-line call into the `fma` routine and loops vectorize only to
//! SSE2.  The kernels that carry the flops — one `gemm` tile, the direct
//! path with its eight-lane dot form, the two one-column kernels, [`gemv`]
//! and [`axpy_slice`] here; the unblocked LU, Cholesky, `L D L^H` and
//! Bunch-Kaufman kernels, the Bunch-Kaufman solve, and the lane kernels and
//! per-column loops of the triangular and `L^H` solves elsewhere in the
//! crate — are each compiled a second time for AVX2 + FMA (x86-64-v3), and
//! every call picks the copy the running CPU supports ([`crate::isa_level`]
//! names it).  Inside a dispatched kernel the loops call only
//! `#[inline(always)]` bodies and no closure holds a loop, so the whole
//! kernel runs in one copy with `vfmadd` and no per-element call.  For
//! `gemm` the dispatch sits in the per-tile (or per-chunk) function that
//! the parallel closure calls, not around `gemm` itself: a closure is
//! compiled with the target features of the function it is written in, so
//! dispatching `gemm` alone would leave the microkernel at SSE2.  The
//! copies differ only in instruction selection, so results are bitwise
//! identical at every ISA level.

use crate::dense::{MatMut, MatRef};
use crate::isa::multiversion;
use crate::scalar::Scalar;
use crate::triangular::{lane_columns, LANES};
use rayon::prelude::*;

/// Operation applied to an input operand of [`gemm`]/[`gemv`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Use the matrix as stored.
    None,
    /// Use the transpose.
    Trans,
    /// Use the conjugate transpose (equals `Trans` for real scalars).
    ConjTrans,
}

impl Op {
    /// Rows of `op(A)` given the stored shape of `A`.
    #[inline]
    pub fn rows_of<T: Scalar>(self, a: &MatRef<'_, T>) -> usize {
        match self {
            Op::None => a.rows(),
            _ => a.cols(),
        }
    }

    /// Columns of `op(A)` given the stored shape of `A`.
    #[inline]
    pub fn cols_of<T: Scalar>(self, a: &MatRef<'_, T>) -> usize {
        match self {
            Op::None => a.cols(),
            _ => a.rows(),
        }
    }

    /// Element `(i, j)` of `op(A)`.
    #[inline]
    pub fn at<T: Scalar>(self, a: &MatRef<'_, T>, i: usize, j: usize) -> T {
        match self {
            Op::None => a.get(i, j),
            Op::Trans => a.get(j, i),
            Op::ConjTrans => a.get(j, i).conj(),
        }
    }
}

/// Number of flops of a real/complex multiply-add counted as 2 operations, as
/// in the paper's complexity analysis (Sec. III-D, footnote 3).
#[inline]
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

/// Rows of one register microtile for real scalars (the unit of A packing).
pub const GEMM_MR: usize = 8;
/// Columns of one register microtile for real scalars (the unit of B
/// packing).
pub const GEMM_NR: usize = 6;
/// Microtile rows for complex scalars (half-size: a complex accumulator is
/// two reals wide, and an 8x4 complex tile would spill to the stack).
pub const GEMM_MR_COMPLEX: usize = 4;
/// Microtile columns for complex scalars.
pub const GEMM_NR_COMPLEX: usize = 2;
/// Depth of one cache slab: an `MR x KC` A-strip + `NR x KC` B-strip fit L1.
pub const GEMM_KC: usize = 256;
/// Rows of one packed A panel (multiple of [`GEMM_MR`]; sized for L2).
pub const GEMM_MC: usize = 96;
/// Columns of one parallel tile (multiple of [`GEMM_NR`]; sized for L3).
pub const GEMM_NC: usize = 516;

/// Multiply-add count below which [`gemm`] runs the unpacked direct path.
pub const GEMM_DIRECT_THRESHOLD: usize = 64 * 64 * 64;

/// General matrix-matrix multiply:
/// `C <- alpha * op_a(A) * op_b(B) + beta * C`.
///
/// Shapes must satisfy `op_a(A): m x k`, `op_b(B): k x n`, `C: m x n`.
///
/// Every entry runs the one recipe of the module docs, so results are
/// bitwise those of [`gemm_reference`] at any thread count and for any
/// split of `C` by columns.
///
/// # Panics
/// Panics on dimension mismatch.
pub fn gemm<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    op_a: Op,
    b: MatRef<'_, T>,
    op_b: Op,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let m = op_a.rows_of(&a);
    let k = op_a.cols_of(&a);
    let k2 = op_b.rows_of(&b);
    let n = op_b.cols_of(&b);
    assert_eq!(k, k2, "gemm: inner dimensions differ ({k} vs {k2})");
    assert_eq!(c.rows(), m, "gemm: C has wrong row count");
    assert_eq!(c.cols(), n, "gemm: C has wrong column count");

    if m == 0 || n == 0 {
        return;
    }
    for j in 0..n {
        scale_by_beta(beta, c.col_mut(j));
    }
    if k == 0 || alpha == T::zero() {
        return;
    }

    if n == 1 {
        gemm_one_column(alpha, &a, op_a, &b, op_b, c.col_mut(0));
    } else if m * n * k < GEMM_DIRECT_THRESHOLD {
        gemm_direct(alpha, &a, op_a, &b, op_b, &mut c);
    } else if T::IS_COMPLEX {
        // Complex accumulators are twice as wide; a smaller register tile
        // avoids spilling the accumulator block to the stack.
        gemm_blocked::<T, GEMM_MR_COMPLEX, GEMM_NR_COMPLEX>(alpha, &a, op_a, &b, op_b, &mut c);
    } else {
        gemm_blocked::<T, GEMM_MR, GEMM_NR>(alpha, &a, op_a, &b, op_b, &mut c);
    }
}

/// Step 1 of the recipe: `c <- beta * c`, where `beta = 0` writes zero.
fn scale_by_beta<T: Scalar>(beta: T, c: &mut [T]) {
    if beta == T::zero() {
        c.fill(T::zero());
    } else if beta != T::one() {
        for x in c {
            *x *= beta;
        }
    }
}

/// `alpha * op_b(B)[:, j]` into `x`: the scaled `B` column of the recipe.
#[inline(always)]
fn scaled_column<T: Scalar>(alpha: T, b: &MatRef<'_, T>, op_b: Op, j: usize, x: &mut Vec<T>) {
    x.clear();
    for p in 0..op_b.rows_of(b) {
        x.push(alpha * op_b.at(b, p, j));
    }
}

/// `v`, conjugated when `conj`.
#[inline(always)]
fn conj_if<T: Scalar>(v: T, conj: bool) -> T {
    if conj {
        v.conj()
    } else {
        v
    }
}

// ---------------------------------------------------------------------------
// Direct path: small products, no packing.
// ---------------------------------------------------------------------------

multiversion! {
    /// Unpacked kernel for small products (C already beta-scaled).
    ///
    /// For `op_a == Op::None` each column of `C` runs the one-column kernel
    /// on the columns of `A` in place.  For transposed `A` the product is
    /// computed in dot form over the contiguous columns of `A` as stored.
    pub(crate) fn gemm_direct<T: Scalar>(
        alpha: T,
        a: &MatRef<'_, T>,
        op_a: Op,
        b: &MatRef<'_, T>,
        op_b: Op,
        c: &mut MatMut<'_, T>,
    ) = gemm_direct_body;
}

#[inline(always)]
pub(crate) fn gemm_direct_body<T: Scalar>(
    alpha: T,
    a: &MatRef<'_, T>,
    op_a: Op,
    b: &MatRef<'_, T>,
    op_b: Op,
    c: &mut MatMut<'_, T>,
) {
    let n = c.cols();
    let conj_a = op_a == Op::ConjTrans;
    let laned = if op_a == Op::None {
        0
    } else {
        lane_columns::<T>(n)
    };
    if laned > 0 {
        dot_form_lanes(alpha, a, conj_a, b, op_b, c, laned);
    }
    let mut x = Vec::with_capacity(op_b.rows_of(b));
    for j in laned..n {
        scaled_column(alpha, b, op_b, j, &mut x);
        if op_a == Op::None {
            one_column_rows_body(a, 0, &x, c.col_mut(j));
        } else {
            one_column_dots_body(a, conj_a, 0, &x, c.col_mut(j));
        }
    }
}

/// Rows of `C` the dot form runs side by side: four rows of eight lanes
/// keep eight vector chains of `f64` in flight, enough to cover the
/// latency of a fused multiply-add.
const DOT_ROWS: usize = 4;

/// The dot form of the direct path for columns `0..laned` of `C`: eight
/// columns of `alpha * op_b(B)` are packed row by row into `[T; LANES]`,
/// and lane `l` of row `i` runs the recipe's chain of entry `(i, j0 + l)`,
/// starting from that entry, [`DOT_ROWS`] rows at a time.  A last group of
/// fewer than [`LANES`] columns is padded with copies of its last column,
/// whose lanes are not written back.
#[inline(always)]
fn dot_form_lanes<T: Scalar>(
    alpha: T,
    a: &MatRef<'_, T>,
    conj_a: bool,
    b: &MatRef<'_, T>,
    op_b: Op,
    c: &mut MatMut<'_, T>,
    laned: usize,
) {
    let (m, k) = (c.rows(), op_b.rows_of(b));
    let mut b_lanes = vec![[T::zero(); LANES]; k];
    for j0 in (0..laned).step_by(LANES) {
        let last = laned.min(j0 + LANES) - 1;
        for l in 0..LANES {
            let j = (j0 + l).min(last);
            for (p, row) in b_lanes.iter_mut().enumerate() {
                row[l] = alpha * op_b.at(b, p, j);
            }
        }
        let full = m - m % DOT_ROWS;
        for i in (0..full).step_by(DOT_ROWS) {
            dot_form_rows::<T, DOT_ROWS>(a, conj_a, &b_lanes, c, i, j0..=last);
        }
        for i in full..m {
            dot_form_rows::<T, 1>(a, conj_a, &b_lanes, c, i, j0..=last);
        }
    }
}

/// Rows `i0..i0 + R` of one lane group of the dot form: columns `cols` of
/// `C`, padded to [`LANES`] with the last one.
#[inline(always)]
fn dot_form_rows<T: Scalar, const R: usize>(
    a: &MatRef<'_, T>,
    conj_a: bool,
    b_lanes: &[[T; LANES]],
    c: &mut MatMut<'_, T>,
    i0: usize,
    cols: std::ops::RangeInclusive<usize>,
) {
    let (j0, last) = (*cols.start(), *cols.end());
    let k = b_lanes.len();
    let a_rows: [&[T]; R] = std::array::from_fn(|r| &a.col(i0 + r)[..k]);
    let mut acc = [[T::zero(); LANES]; R];
    for (r, acc_r) in acc.iter_mut().enumerate() {
        for (l, s) in acc_r.iter_mut().enumerate() {
            *s = c.get(i0 + r, (j0 + l).min(last));
        }
    }
    for (p, bp) in b_lanes.iter().enumerate() {
        for (acc_r, a_r) in acc.iter_mut().zip(&a_rows) {
            let aip = conj_if(a_r[p], conj_a);
            for (s, &v) in acc_r.iter_mut().zip(bp) {
                *s = aip.mul_add(v, *s);
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        for (j, &s) in cols.clone().zip(acc_r) {
            c.col_mut(j)[i0 + r] = s;
        }
    }
}

// ---------------------------------------------------------------------------
// One column: `op_b(B)` is a single vector, `A` is read in place, once.
// ---------------------------------------------------------------------------

/// Rows of `C` per task (and per pass over eight columns of `A`) of the
/// one-column kernel with `A` as stored.
const ONE_COLUMN_ROWS: usize = 512;

/// `gemm` with one column (`c` already beta-scaled, `alpha != 0`,
/// `k > 0`): the module docs' "One column".
fn gemm_one_column<T: Scalar>(
    alpha: T,
    a: &MatRef<'_, T>,
    op_a: Op,
    b: &MatRef<'_, T>,
    op_b: Op,
    c: &mut [T],
) {
    let mut x = Vec::with_capacity(op_b.rows_of(b));
    scaled_column(alpha, b, op_b, 0, &mut x);
    let x = &x[..];
    let parallel = c.len() * x.len() >= GEMM_DIRECT_THRESHOLD;
    let conj = op_a == Op::ConjTrans;
    // The closures only forward, as in `gemm_blocked`: the dispatch sits in
    // the kernels.
    match op_a {
        Op::None if parallel => c
            .par_chunks_mut(ONE_COLUMN_ROWS)
            .enumerate()
            .for_each(|(t, c)| one_column_rows(a, t * ONE_COLUMN_ROWS, x, c)),
        Op::None => one_column_rows(a, 0, x, c),
        _ if parallel => c
            .par_chunks_mut(LANES)
            .enumerate()
            .for_each(|(t, c)| one_column_dots(a, conj, t * LANES, x, c)),
        _ => one_column_dots(a, conj, 0, x, c),
    }
}

multiversion! {
    /// `c[r] <- fma(A[i0 + r, p], x[p], c[r])` for `p` ascending: the
    /// recipe with `x` the scaled `B` column.  The columns of `A` are read
    /// in place, eight per pass over a chunk of rows.
    pub(crate) fn one_column_rows<T: Scalar>(
        a: &MatRef<'_, T>,
        i0: usize,
        x: &[T],
        c: &mut [T],
    ) = one_column_rows_body;
}

#[inline(always)]
pub(crate) fn one_column_rows_body<T: Scalar>(a: &MatRef<'_, T>, i0: usize, x: &[T], c: &mut [T]) {
    for (r0, c) in (i0..)
        .step_by(ONE_COLUMN_ROWS)
        .zip(c.chunks_mut(ONE_COLUMN_ROWS))
    {
        let rows = r0..r0 + c.len();
        // Eight columns per pass: each row takes their terms in order.
        let mut groups = x.chunks_exact(LANES);
        for (p, xs) in (0..).step_by(LANES).zip(&mut groups) {
            let cols: [&[T]; LANES] = std::array::from_fn(|l| &a.col(p + l)[rows.clone()]);
            for (r, ci) in c.iter_mut().enumerate() {
                let mut t = *ci;
                for (col, &xp) in cols.iter().zip(xs) {
                    t = col[r].mul_add(xp, t);
                }
                *ci = t;
            }
        }
        let p1 = x.len() - groups.remainder().len();
        for (p, &xp) in (p1..).zip(groups.remainder()) {
            axpy_slice_body(xp, &a.col(p)[rows.clone()], c);
        }
    }
}

multiversion! {
    /// `c[r] <- fma(op(A[p, i0 + r]), x[p], c[r])` for `p` ascending, where
    /// `op` conjugates when `conj`: the recipe with `x` the scaled `B`
    /// column and `A` transposed.  Eight outputs run side by side from
    /// eight stored columns, each lane its own chain; leftover outputs run
    /// one at a time.
    pub(crate) fn one_column_dots<T: Scalar>(
        a: &MatRef<'_, T>,
        conj: bool,
        i0: usize,
        x: &[T],
        c: &mut [T],
    ) = one_column_dots_body;
}

#[inline(always)]
pub(crate) fn one_column_dots_body<T: Scalar>(
    a: &MatRef<'_, T>,
    conj: bool,
    i0: usize,
    x: &[T],
    c: &mut [T],
) {
    let k = x.len();
    let i1 = i0 + c.len() - c.len() % LANES;
    let mut groups = c.chunks_exact_mut(LANES);
    for (i, c) in (i0..).step_by(LANES).zip(&mut groups) {
        let cols: [&[T]; LANES] = std::array::from_fn(|l| &a.col(i + l)[..k]);
        let mut acc = [T::zero(); LANES];
        acc.copy_from_slice(c);
        for (p, &xp) in x.iter().enumerate() {
            for (s, col) in acc.iter_mut().zip(&cols) {
                *s = conj_if(col[p], conj).mul_add(xp, *s);
            }
        }
        c.copy_from_slice(&acc);
    }
    for (i, ci) in (i1..).zip(groups.into_remainder()) {
        let mut s = *ci;
        for (&v, &xp) in a.col(i).iter().zip(x) {
            s = conj_if(v, conj).mul_add(xp, s);
        }
        *ci = s;
    }
}

// ---------------------------------------------------------------------------
// Blocked path: packed panels + register microkernel.
// ---------------------------------------------------------------------------

#[inline]
fn round_up(x: usize, to: usize) -> usize {
    x.div_ceil(to) * to
}

/// One tile of the grid over `C`: its first row `i0` and column `j0`, and
/// its column segments `C[i0..i0 + ib, j]`, one per tile column `j`.
pub(crate) struct CTile<'c, T> {
    i0: usize,
    j0: usize,
    cols: Vec<&'c mut [T]>,
}

/// Split `C` into the grid of `GEMM_MC x GEMM_NC` tiles.  The tiles
/// partition `C`, so their column segments are disjoint and each tile can
/// go to its own task.
pub(crate) fn c_tiles<'c, T: Scalar>(c: &'c mut MatMut<'_, T>) -> Vec<CTile<'c, T>> {
    let (m, n) = (c.rows(), c.cols());
    let row_tiles = m.div_ceil(GEMM_MC);
    let col_tiles = n.div_ceil(GEMM_NC);
    let mut tiles: Vec<CTile<'c, T>> = (0..row_tiles * col_tiles)
        .map(|t| {
            let j0 = (t % col_tiles) * GEMM_NC;
            CTile {
                i0: (t / col_tiles) * GEMM_MC,
                j0,
                cols: Vec::with_capacity(GEMM_NC.min(n - j0)),
            }
        })
        .collect();
    for (j, mut col) in c.reborrow().into_cols().enumerate() {
        for r in 0..row_tiles {
            let (segment, rest) = col.split_at_mut(GEMM_MC.min(col.len()));
            tiles[r * col_tiles + j / GEMM_NC].cols.push(segment);
            col = rest;
        }
    }
    tiles
}

/// Blocked kernel (C already beta-scaled, `alpha != 0`, `k > 0`).
fn gemm_blocked<T: Scalar, const MR: usize, const NR: usize>(
    alpha: T,
    a: &MatRef<'_, T>,
    op_a: Op,
    b: &MatRef<'_, T>,
    op_b: Op,
    c: &mut MatMut<'_, T>,
) {
    let mut tiles = c_tiles(c);
    // The closure only forwards: the dispatch sits in `gemm_tile`, because a
    // closure is compiled with the target features of the function it is
    // written in.
    let run_tile = |tile: &mut CTile<'_, T>| gemm_tile::<T, MR, NR>(alpha, a, op_a, b, op_b, tile);
    if tiles.len() > 1 {
        tiles.par_iter_mut().for_each(run_tile);
    } else {
        tiles.iter_mut().for_each(run_tile);
    }
}

multiversion! {
    /// `tile += alpha * op_a(A)[tile rows, :] * op_b(B)[:, tile columns]`,
    /// one `k` slab at a time in ascending order.
    pub(crate) fn gemm_tile<T: Scalar, const MR: usize, const NR: usize>(
        alpha: T,
        a: &MatRef<'_, T>,
        op_a: Op,
        b: &MatRef<'_, T>,
        op_b: Op,
        tile: &mut CTile<'_, T>,
    ) = gemm_tile_body;
}

#[inline(always)]
pub(crate) fn gemm_tile_body<T: Scalar, const MR: usize, const NR: usize>(
    alpha: T,
    a: &MatRef<'_, T>,
    op_a: Op,
    b: &MatRef<'_, T>,
    op_b: Op,
    tile: &mut CTile<'_, T>,
) {
    let (i0, j0) = (tile.i0, tile.j0);
    let ib = tile.cols[0].len();
    let jb = tile.cols.len();
    let k = op_a.cols_of(a);
    let kc = GEMM_KC.min(k);
    // Per-task pack workspaces, reused across every k slab of the tile.
    let mut a_buf = vec![T::zero(); round_up(ib, MR) * kc];
    let mut b_buf = vec![T::zero(); round_up(jb, NR) * kc];

    let mut p0 = 0;
    while p0 < k {
        let pb = GEMM_KC.min(k - p0);
        pack_a::<T, MR>(a, op_a, i0, ib, p0, pb, &mut a_buf);
        pack_b::<T, NR>(alpha, b, op_b, p0, pb, j0, jb, &mut b_buf);
        for (jr, cols) in (0..).step_by(NR).zip(tile.cols.chunks_mut(NR)) {
            let bp = &b_buf[jr * pb..][..pb * NR];
            for ir in (0..ib).step_by(MR) {
                let ap = &a_buf[ir * pb..][..pb * MR];
                // Load the valid region of the C tile, run the slab, store
                // it back; padded rows and columns are dropped.
                let mrv = MR.min(ib - ir);
                let mut acc = [[T::zero(); MR]; NR];
                for (acc_col, col) in acc.iter_mut().zip(cols.iter()) {
                    if mrv == MR {
                        *acc_col = col[ir..ir + MR].try_into().unwrap();
                    } else {
                        acc_col[..mrv].copy_from_slice(&col[ir..ir + mrv]);
                    }
                }
                let acc = microkernel::<T, MR, NR>(pb, ap, bp, acc);
                for (acc_col, col) in acc.iter().zip(cols.iter_mut()) {
                    col[ir..ir + mrv].copy_from_slice(&acc_col[..mrv]);
                }
            }
        }
        p0 += pb;
    }
}

/// The register microkernel: `acc[j][i] <- fma(ap[p*MR + i], bp[p*NR + j],
/// acc[j][i])` for each `p` of one packed k slab, in ascending order.
///
/// The fixed-size accumulator array lives in registers; the `MR`-wide inner
/// loop reads packed A contiguously and vectorizes for real scalars.
#[inline(always)]
fn microkernel<T: Scalar, const MR: usize, const NR: usize>(
    pb: usize,
    ap: &[T],
    bp: &[T],
    mut acc: [[T; MR]; NR],
) -> [[T; MR]; NR] {
    for (av, bv) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)).take(pb) {
        for (acc_col, &bj) in acc.iter_mut().zip(bv.iter()) {
            for (acc_ij, &ai) in acc_col.iter_mut().zip(av.iter()) {
                *acc_ij = ai.mul_add(bj, *acc_ij);
            }
        }
    }
    acc
}

/// Pack `op(A)[i0..i0+ib, p0..p0+pb]` into micro-panels of `MR` rows: panel
/// `ir/MR` stores, for each `p`, `MR` consecutive rows (zero-padded at the
/// ragged edge).  Conjugation is applied here so the microkernel never
/// branches on the op.
fn pack_a<T: Scalar, const MR: usize>(
    a: &MatRef<'_, T>,
    op: Op,
    i0: usize,
    ib: usize,
    p0: usize,
    pb: usize,
    buf: &mut [T],
) {
    let mut off = 0;
    let mut ir = 0;
    while ir < ib {
        let mrv = MR.min(ib - ir);
        match op {
            Op::None => {
                for p in 0..pb {
                    let src = &a.col(p0 + p)[i0 + ir..i0 + ir + mrv];
                    let dst = &mut buf[off + p * MR..off + p * MR + MR];
                    dst[..mrv].copy_from_slice(src);
                    dst[mrv..].fill(T::zero());
                }
            }
            Op::Trans | Op::ConjTrans => {
                let conj = op == Op::ConjTrans;
                // op(A)[i0+ir+i, p0+p] = a[p0+p, i0+ir+i]: row `i` of the
                // panel is the contiguous stored column `i0+ir+i` of A.
                for i in 0..mrv {
                    let src = &a.col(i0 + ir + i)[p0..p0 + pb];
                    for (p, &v) in src.iter().enumerate() {
                        buf[off + p * MR + i] = conj_if(v, conj);
                    }
                }
                for i in mrv..MR {
                    for p in 0..pb {
                        buf[off + p * MR + i] = T::zero();
                    }
                }
            }
        }
        off += pb * MR;
        ir += MR;
    }
}

/// Pack `alpha * op(B)[p0..p0+pb, j0..j0+jb]` into micro-panels of `NR`
/// columns: panel `jr/NR` stores, for each `p`, `NR` consecutive columns
/// (zero-padded at the ragged edge), conjugated as requested.
#[allow(clippy::too_many_arguments)]
fn pack_b<T: Scalar, const NR: usize>(
    alpha: T,
    b: &MatRef<'_, T>,
    op: Op,
    p0: usize,
    pb: usize,
    j0: usize,
    jb: usize,
    buf: &mut [T],
) {
    let mut off = 0;
    let mut jr = 0;
    while jr < jb {
        let nrv = NR.min(jb - jr);
        match op {
            Op::None => {
                for j in 0..nrv {
                    let src = &b.col(j0 + jr + j)[p0..p0 + pb];
                    for (p, &v) in src.iter().enumerate() {
                        buf[off + p * NR + j] = alpha * v;
                    }
                }
                for j in nrv..NR {
                    for p in 0..pb {
                        buf[off + p * NR + j] = T::zero();
                    }
                }
            }
            Op::Trans | Op::ConjTrans => {
                let conj = op == Op::ConjTrans;
                // op(B)[p0+p, j0+jr+j] = b[j0+jr+j, p0+p]: column `p` of the
                // packed slab is the contiguous stored column `p0+p` of B.
                for p in 0..pb {
                    let src = &b.col(p0 + p)[j0 + jr..j0 + jr + nrv];
                    let dst = &mut buf[off + p * NR..off + p * NR + NR];
                    for (d, &v) in dst[..nrv].iter_mut().zip(src) {
                        *d = alpha * conj_if(v, conj);
                    }
                    dst[nrv..].fill(T::zero());
                }
            }
        }
        off += pb * NR;
        jr += NR;
    }
}

// ---------------------------------------------------------------------------
// Reference kernel (retained) and level-1/2 helpers.
// ---------------------------------------------------------------------------

/// The recipe of the module docs written out: `C <- beta * C`, then one
/// fused `axpy` per term, `C[:, j] += op_a(A)[:, p] * (alpha *
/// op_b(B)[p, j])` for `p` ascending.  Sequential, packs all of `op_a(A)`
/// per call, no register or cache blocking.  It is the oracle every path of
/// [`gemm`] and [`gemv`] must match bitwise, and the baseline of the
/// `kernels` bench bin.
pub fn gemm_reference<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    op_a: Op,
    b: MatRef<'_, T>,
    op_b: Op,
    beta: T,
    mut c: MatMut<'_, T>,
) {
    let m = op_a.rows_of(&a);
    let k = op_a.cols_of(&a);
    let k2 = op_b.rows_of(&b);
    let n = op_b.cols_of(&b);
    assert_eq!(k, k2, "gemm_reference: inner dimensions differ");
    assert_eq!(c.rows(), m, "gemm_reference: C has wrong row count");
    assert_eq!(c.cols(), n, "gemm_reference: C has wrong column count");

    if m == 0 || n == 0 {
        return;
    }
    for j in 0..n {
        scale_by_beta(beta, c.col_mut(j));
    }
    if k == 0 || alpha == T::zero() {
        return;
    }

    // Pack op_a(A) once into a column-major m x k buffer.
    let mut a_packed = Vec::with_capacity(m * k);
    for p in 0..k {
        for i in 0..m {
            a_packed.push(op_a.at(&a, i, p));
        }
    }
    for j in 0..n {
        let c_col = c.col_mut(j);
        for p in 0..k {
            let scale = alpha * op_b.at(&b, p, j);
            axpy_slice(scale, &a_packed[p * m..(p + 1) * m], c_col);
        }
    }
}

multiversion! {
    /// `y += alpha * x` over slices of equal length (the hot inner loop).
    pub fn axpy_slice<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) = axpy_slice_body;
}

/// The body of [`axpy_slice`], for kernels that are dispatched as a whole.
#[inline(always)]
pub(crate) fn axpy_slice_body<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = xi.mul_add(alpha, *yi);
    }
}

/// Dot product `sum_i conj(x_i) * y_i` (the complex inner product),
/// accumulated unfused from zero.  For the Krylov methods and norms: no
/// product path of [`gemm`] or [`gemv`] calls it.
#[inline]
pub fn dot_conj<T: Scalar>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = T::zero();
    for (&xi, &yi) in x.iter().zip(y) {
        acc += xi.conj() * yi;
    }
    acc
}

/// Dot product without conjugation `sum_i x_i * y_i`, accumulated unfused
/// from zero, like [`dot_conj`].
#[inline]
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = T::zero();
    for (&xi, &yi) in x.iter().zip(y) {
        acc += xi * yi;
    }
    acc
}

multiversion! {
    /// General matrix-vector multiply `y <- alpha * op(A) * x + beta * y`:
    /// [`gemm`] with one column, bitwise, on the calling thread.
    pub fn gemv<T: Scalar>(
        alpha: T,
        a: MatRef<'_, T>,
        op: Op,
        x: &[T],
        beta: T,
        y: &mut [T],
    ) = gemv_body;
}

#[inline(always)]
pub(crate) fn gemv_body<T: Scalar>(
    alpha: T,
    a: MatRef<'_, T>,
    op: Op,
    x: &[T],
    beta: T,
    y: &mut [T],
) {
    let m = op.rows_of(&a);
    let k = op.cols_of(&a);
    assert_eq!(x.len(), k, "gemv: x has wrong length");
    assert_eq!(y.len(), m, "gemv: y has wrong length");

    scale_by_beta(beta, y);
    if alpha == T::zero() || k == 0 {
        return;
    }
    let mut ax = Vec::with_capacity(k);
    for &v in x {
        ax.push(alpha * v);
    }
    match op {
        Op::None => one_column_rows_body(&a, 0, &ax, y),
        Op::Trans | Op::ConjTrans => one_column_dots_body(&a, op == Op::ConjTrans, 0, &ax, y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::scalar::RealScalar;
    use crate::Complex64;

    fn naive_gemm<T: Scalar>(
        alpha: T,
        a: &DenseMatrix<T>,
        op_a: Op,
        b: &DenseMatrix<T>,
        op_b: Op,
        beta: T,
        c: &DenseMatrix<T>,
    ) -> DenseMatrix<T> {
        let ar = a.as_ref();
        let br = b.as_ref();
        let m = op_a.rows_of(&ar);
        let k = op_a.cols_of(&ar);
        let n = op_b.cols_of(&br);
        DenseMatrix::from_fn(m, n, |i, j| {
            let mut acc = T::zero();
            for p in 0..k {
                acc += op_a.at(&ar, i, p) * op_b.at(&br, p, j);
            }
            alpha * acc + beta * c[(i, j)]
        })
    }

    fn rand_mat(rows: usize, cols: usize, seed: u64) -> DenseMatrix<f64> {
        // Simple deterministic LCG so this test has no rand dependency.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        DenseMatrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        })
    }

    #[test]
    fn gemm_matches_naive_all_ops() {
        let a = rand_mat(7, 5, 1);
        let b = rand_mat(5, 6, 2);
        let mut c = rand_mat(7, 6, 3);
        let expect = naive_gemm(2.0, &a, Op::None, &b, Op::None, 0.5, &c);
        gemm(
            2.0,
            a.as_ref(),
            Op::None,
            b.as_ref(),
            Op::None,
            0.5,
            c.as_mut(),
        );
        assert!(c.sub(&expect).norm_max() < 1e-13);

        // Transposed operands.
        let a = rand_mat(5, 7, 4); // op_a = T -> 7x5
        let b = rand_mat(6, 5, 5); // op_b = T -> 5x6
        let mut c = rand_mat(7, 6, 6);
        let expect = naive_gemm(1.0, &a, Op::Trans, &b, Op::Trans, -1.0, &c);
        gemm(
            1.0,
            a.as_ref(),
            Op::Trans,
            b.as_ref(),
            Op::Trans,
            -1.0,
            c.as_mut(),
        );
        assert!(c.sub(&expect).norm_max() < 1e-13);
    }

    #[test]
    fn gemm_conj_trans_complex() {
        let a = DenseMatrix::from_fn(3, 4, |i, j| Complex64::new(i as f64, j as f64 + 1.0));
        let b = DenseMatrix::from_fn(3, 2, |i, j| Complex64::new(j as f64 - 1.0, i as f64));
        let mut c = DenseMatrix::<Complex64>::zeros(4, 2);
        let expect = naive_gemm(
            Complex64::new(1.0, 0.0),
            &a,
            Op::ConjTrans,
            &b,
            Op::None,
            Complex64::new(0.0, 0.0),
            &c,
        );
        gemm(
            Complex64::new(1.0, 0.0),
            a.as_ref(),
            Op::ConjTrans,
            b.as_ref(),
            Op::None,
            Complex64::new(0.0, 0.0),
            c.as_mut(),
        );
        assert!(c.sub(&expect).norm_max() < 1e-13);
    }

    #[test]
    fn gemm_large_blocked_path() {
        // 96 * 80 * 112 exceeds GEMM_DIRECT_THRESHOLD: exercises packing,
        // the microkernel, ragged edge tiles and the parallel tile grid.
        let a = rand_mat(96, 80, 11);
        let b = rand_mat(80, 112, 12);
        let mut c = DenseMatrix::<f64>::zeros(96, 112);
        let expect = naive_gemm(1.0, &a, Op::None, &b, Op::None, 0.0, &c);
        gemm(
            1.0,
            a.as_ref(),
            Op::None,
            b.as_ref(),
            Op::None,
            0.0,
            c.as_mut(),
        );
        assert!(c.sub(&expect).norm_max() < 1e-11);
    }

    #[test]
    fn gemm_blocked_all_ops_match_reference() {
        // Odd dims straddling the blocking boundaries, every op combo, both
        // alpha/beta non-trivial.
        let (m, n, k) = (101, 67, 129);
        for op_a in [Op::None, Op::Trans, Op::ConjTrans] {
            for op_b in [Op::None, Op::Trans, Op::ConjTrans] {
                let (ar, ac) = if op_a == Op::None { (m, k) } else { (k, m) };
                let (br, bc) = if op_b == Op::None { (k, n) } else { (n, k) };
                let a = rand_mat(ar, ac, 101);
                let b = rand_mat(br, bc, 202);
                let mut c = rand_mat(m, n, 303);
                let mut c_ref = c.clone();
                gemm(1.5, a.as_ref(), op_a, b.as_ref(), op_b, -0.5, c.as_mut());
                gemm_reference(
                    1.5,
                    a.as_ref(),
                    op_a,
                    b.as_ref(),
                    op_b,
                    -0.5,
                    c_ref.as_mut(),
                );
                assert!(
                    c.sub(&c_ref).norm_max() < 1e-11,
                    "blocked vs reference mismatch for {op_a:?}/{op_b:?}"
                );
            }
        }
    }

    #[test]
    fn gemm_on_block_views() {
        // Multiply sub-blocks addressed through strided views.
        let big_a = rand_mat(10, 10, 21);
        let big_b = rand_mat(10, 10, 22);
        let mut big_c = DenseMatrix::<f64>::zeros(10, 10);
        let a = big_a.block(2, 3, 4, 5);
        let b = big_b.block(1, 0, 5, 3);
        gemm(
            1.0,
            a,
            Op::None,
            b,
            Op::None,
            0.0,
            big_c.block_mut(0, 0, 4, 3),
        );
        let expect = a.to_owned().matmul(&b.to_owned());
        assert!(big_c.sub_matrix(0, 0, 4, 3).sub(&expect).norm_max() < 1e-13);
    }

    /// Bit patterns of the real and imaginary parts (`f32` widens exactly).
    fn bits<T: Scalar>(xs: &[T]) -> Vec<(u64, u64)> {
        xs.iter()
            .map(|x| (x.real().to_f64().to_bits(), x.imag().to_f64().to_bits()))
            .collect()
    }

    /// `gemm` at `n = 1` through the general paths, called directly: the
    /// beta scaling, then `gemm_direct` below the threshold or every tile
    /// of the blocked grid at or above it.
    fn general_one_column<T: Scalar>(
        alpha: T,
        a: &MatRef<'_, T>,
        op_a: Op,
        b: &MatRef<'_, T>,
        op_b: Op,
        beta: T,
        c: &mut MatMut<'_, T>,
    ) {
        for x in c.col_mut(0) {
            *x = if beta == T::zero() {
                T::zero()
            } else {
                *x * beta
            };
        }
        if op_a.rows_of(a) * op_a.cols_of(a) < GEMM_DIRECT_THRESHOLD {
            gemm_direct(alpha, a, op_a, b, op_b, c);
        } else {
            for tile in &mut c_tiles(c) {
                if T::IS_COMPLEX {
                    gemm_tile_body::<T, GEMM_MR_COMPLEX, GEMM_NR_COMPLEX>(
                        alpha, a, op_a, b, op_b, tile,
                    );
                } else {
                    gemm_tile_body::<T, GEMM_MR, GEMM_NR>(alpha, a, op_a, b, op_b, tile);
                }
            }
        }
    }

    /// Every `op_a` x `op_b` at `n = 1`, in both regimes (one below and
    /// exactly at the threshold among them), with leftover outputs, several
    /// slabs and row chunks, on strided views, against the general paths.
    fn check_one_column<T: Scalar>(seed: u64) {
        use crate::random::random_matrix;
        use rand::{rngs::StdRng, SeedableRng};
        let ops = [Op::None, Op::Trans, Op::ConjTrans];
        let mut rng = StdRng::seed_from_u64(seed);
        let pools: Vec<_> = [1, 2, 8]
            .map(|t| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .unwrap()
            })
            .into();
        let mut shapes = vec![(513, 511), (512, 512), (1100, 300)];
        for m in [1, 7, 8, 9, 95, 96, 97, 177] {
            for k in [1, 255, 256, 257, 600] {
                shapes.push((m, k));
            }
            // The smallest blocked-regime k at this m: several slabs.
            shapes.push((m, GEMM_DIRECT_THRESHOLD.div_ceil(m)));
        }
        for (m, k) in shapes {
            for op_a in ops {
                for op_b in ops {
                    // Operands stored inside larger matrices, so ld > rows.
                    let stored = |rng: &mut StdRng, op: Op, rows: usize, cols: usize| {
                        let (r, c) = if op == Op::None {
                            (rows, cols)
                        } else {
                            (cols, rows)
                        };
                        let big: DenseMatrix<T> = random_matrix(rng, r + 3, c + 1);
                        (big, r, c)
                    };
                    let (a, ar, ac) = stored(&mut rng, op_a, m, k);
                    let (b, br, bc) = stored(&mut rng, op_b, k, 1);
                    let c0: DenseMatrix<T> = random_matrix(&mut rng, m + 2, 1);
                    let (a, b) = (a.block(2, 1, ar, ac), b.block(1, 0, br, bc));
                    for (alpha, beta) in [(1.0, 0.0), (-1.0, 1.0), (0.5, 2.0)] {
                        let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
                        let mut want = c0.clone();
                        let mut c = want.block_mut(1, 0, m, 1);
                        general_one_column(alpha, &a, op_a, &b, op_b, beta, &mut c);
                        for pool in &pools {
                            let mut got = c0.clone();
                            pool.install(|| {
                                gemm(alpha, a, op_a, b, op_b, beta, got.block_mut(1, 0, m, 1))
                            });
                            assert_eq!(
                                bits(got.data()),
                                bits(want.data()),
                                "{m}x1x{k} {op_a:?}/{op_b:?} alpha {alpha:?} beta {beta:?} \
                                 at {} threads",
                                pool.current_num_threads()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one_column_path_matches_general_paths_bitwise() {
        check_one_column::<f64>(41);
        check_one_column::<f32>(42);
        check_one_column::<Complex64>(43);
    }

    #[test]
    fn gemv_all_ops() {
        let a = rand_mat(6, 4, 31);
        let x4: Vec<f64> = (0..4).map(|i| i as f64 + 1.0).collect();
        let x6: Vec<f64> = (0..6).map(|i| 0.5 * i as f64 - 1.0).collect();

        let mut y = vec![0.0; 6];
        gemv(1.0, a.as_ref(), Op::None, &x4, 0.0, &mut y);
        let expect = a.matvec(&x4);
        for i in 0..6 {
            assert!((y[i] - expect[i]).abs() < 1e-13);
        }

        let mut yt = vec![1.0; 4];
        gemv(2.0, a.as_ref(), Op::Trans, &x6, 3.0, &mut yt);
        let expect_t = a.transpose().matvec(&x6);
        for i in 0..4 {
            assert!((yt[i] - (2.0 * expect_t[i] + 3.0)).abs() < 1e-13);
        }
    }

    #[test]
    fn dot_products() {
        let x = vec![Complex64::new(1.0, 2.0), Complex64::new(0.0, -1.0)];
        let y = vec![Complex64::new(3.0, 0.0), Complex64::new(1.0, 1.0)];
        let d = dot_conj(&x, &y);
        // conj(1+2i)*3 + conj(-i)*(1+i) = (3-6i) + i(1+i) = (3-6i) + (i-1) = 2 - 5i
        assert!((d - Complex64::new(2.0, -5.0)).abs() < 1e-14);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn gemm_flop_count() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }

    #[test]
    fn empty_dimensions_are_noops() {
        let a = DenseMatrix::<f64>::zeros(0, 3);
        let b = DenseMatrix::<f64>::zeros(3, 0);
        let mut c = DenseMatrix::<f64>::zeros(0, 0);
        gemm(
            1.0,
            a.as_ref(),
            Op::None,
            b.as_ref(),
            Op::None,
            0.0,
            c.as_mut(),
        );
        let a = DenseMatrix::<f64>::zeros(2, 0);
        let b = DenseMatrix::<f64>::zeros(0, 2);
        let mut c = DenseMatrix::from_fn(2, 2, |_, _| 5.0);
        gemm(
            1.0,
            a.as_ref(),
            Op::None,
            b.as_ref(),
            Op::None,
            1.0,
            c.as_mut(),
        );
        assert_eq!(c[(0, 0)], 5.0);
    }

    /// Operands for the recipe tests: `op_a(A)` is `m x k` and `op_b(B)`
    /// is `k x n`, each stored inside a larger matrix so that `ld > rows`;
    /// `C` is `m x n` inside a larger buffer too.
    struct Operands<T> {
        a: DenseMatrix<T>,
        b: DenseMatrix<T>,
        c: DenseMatrix<T>,
        a_shape: (usize, usize),
        b_shape: (usize, usize),
    }

    impl<T: Scalar> Operands<T> {
        fn new(
            rng: &mut rand::rngs::StdRng,
            (m, n, k): (usize, usize, usize),
            op_a: Op,
            op_b: Op,
        ) -> Self {
            use crate::random::random_matrix;
            let stored = |op: Op, rows: usize, cols: usize| {
                if op == Op::None {
                    (rows, cols)
                } else {
                    (cols, rows)
                }
            };
            let a_shape = stored(op_a, m, k);
            let b_shape = stored(op_b, k, n);
            Operands {
                a: random_matrix(rng, a_shape.0 + 3, a_shape.1 + 1),
                b: random_matrix(rng, b_shape.0 + 2, b_shape.1),
                c: random_matrix(rng, m + 2, n + 1),
                a_shape,
                b_shape,
            }
        }

        fn a(&self) -> MatRef<'_, T> {
            self.a.block(2, 1, self.a_shape.0, self.a_shape.1)
        }

        fn b(&self) -> MatRef<'_, T> {
            self.b.block(1, 0, self.b_shape.0, self.b_shape.1)
        }

        /// Run `product` on the `C` view of a copy of the `C` buffer.
        fn run(&self, product: impl FnOnce(MatMut<'_, T>)) -> DenseMatrix<T> {
            let mut c = self.c.clone();
            let (m, n) = (self.c.rows() - 2, self.c.cols() - 1);
            product(c.block_mut(1, 0, m, n));
            c
        }
    }

    fn thread_pools() -> Vec<rayon::ThreadPool> {
        [1, 2, 8]
            .map(|t| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .unwrap()
            })
            .into()
    }

    /// Every `op_a x op_b`, on both sides of `GEMM_KC` and of
    /// `GEMM_DIRECT_THRESHOLD`: at 87 x 2048 (the level-1 `V^H x` of an
    /// n = 4096 GP operator) `m * k` is under the threshold and `m * n * k`
    /// over it from two columns on; the 33-row shapes cross it between 30
    /// and 32 columns.  Every column count up to 40 (every lane-group
    /// remainder, padded or not) and 138, at 1, 2 and 8 threads, against
    /// `gemm_reference`, with the whole `C` buffer compared so a write
    /// outside the view shows too.
    fn check_recipe<T: Scalar>(seed: u64) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pools = thread_pools();
        let widths: Vec<usize> = (1..=40).chain([138]).collect();
        let cases: [(usize, usize, &[usize]); 6] = [
            (87, 2048, &[1, 2, 3, 8, 13, 14, 16]),
            (33, 255, &widths),
            (33, 256, &widths),
            (33, 257, &widths),
            (20, 515, &[1, 2, 7, 11, 26, 27, 40]),
            (101, 3, &[1, 2, 9, 40, 138]),
        ];
        let (alpha, beta) = (T::from_f64(-0.75), T::from_f64(1.5));
        for (m, k, ns) in cases {
            for &n in ns {
                for op_a in [Op::None, Op::Trans, Op::ConjTrans] {
                    for op_b in [Op::None, Op::Trans, Op::ConjTrans] {
                        let ops = Operands::<T>::new(&mut rng, (m, n, k), op_a, op_b);
                        let (a, b) = (ops.a(), ops.b());
                        let want = ops.run(|c| gemm_reference(alpha, a, op_a, b, op_b, beta, c));
                        for pool in &pools {
                            let got = pool
                                .install(|| ops.run(|c| gemm(alpha, a, op_a, b, op_b, beta, c)));
                            assert_eq!(
                                bits(got.data()),
                                bits(want.data()),
                                "{m}x{n}x{k} {op_a:?}/{op_b:?} at {} threads",
                                pool.current_num_threads()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_gemm_path_runs_the_reference_recipe_bitwise() {
        check_recipe::<f64>(51);
        check_recipe::<f32>(52);
        check_recipe::<Complex64>(53);
    }

    /// `C` computed whole is bitwise `C` computed one block of columns at a
    /// time, for splits that move columns between the one-column kernels,
    /// the direct path's lanes and the blocked path.
    fn check_column_splits<T: Scalar>(seed: u64) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let splits: [&[usize]; 5] = [&[1; 14], &[2, 12], &[13, 1], &[3, 8, 3], &[5, 6, 1, 2]];
        for (m, k) in [(87, 2048), (2048, 87), (64, 257)] {
            for op_a in [Op::None, Op::ConjTrans] {
                for op_b in [Op::None, Op::Trans] {
                    let ops = Operands::<T>::new(&mut rng, (m, 14, k), op_a, op_b);
                    let (a, b) = (ops.a(), ops.b());
                    let alpha = T::from_f64(-1.0);
                    let whole = ops.run(|c| gemm(alpha, a, op_a, b, op_b, T::one(), c));
                    for split in splits {
                        let pieces = ops.run(|mut c| {
                            let mut j0 = 0;
                            for &w in split {
                                let b_piece = if op_b == Op::None {
                                    b.block(0, j0, k, w)
                                } else {
                                    b.block(j0, 0, w, k)
                                };
                                let c_piece = c.block_mut(0, j0, m, w);
                                gemm(alpha, a, op_a, b_piece, op_b, T::one(), c_piece);
                                j0 += w;
                            }
                        });
                        assert_eq!(
                            bits(pieces.data()),
                            bits(whole.data()),
                            "{m}x14x{k} {op_a:?}/{op_b:?} split {split:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn c_computed_whole_equals_c_computed_by_column_blocks_bitwise() {
        check_column_splits::<f64>(61);
        check_column_splits::<Complex64>(62);
    }

    /// `gemv` is `gemm` with one column: bitwise `gemm_reference`, every
    /// `op`, both sides of the threshold, with `beta` zero, one and other.
    fn check_gemv<T: Scalar>(seed: u64) {
        use crate::random::{random_matrix, random_vector};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for (rows, cols) in [(1, 1), (13, 7), (9, 300), (300, 9), (87, 2048), (2048, 87)] {
            let a: DenseMatrix<T> = random_matrix(&mut rng, rows + 2, cols);
            let a = a.block(1, 0, rows, cols);
            for op in [Op::None, Op::Trans, Op::ConjTrans] {
                let (m, k) = (op.rows_of(&a), op.cols_of(&a));
                let x: Vec<T> = random_vector(&mut rng, k);
                let y: Vec<T> = random_vector(&mut rng, m);
                for beta in [0.0, 1.0, -0.5] {
                    let (alpha, beta) = (T::from_f64(0.625), T::from_f64(beta));
                    let mut got = y.clone();
                    gemv(alpha, a, op, &x, beta, &mut got);
                    let mut want = y.clone();
                    gemm_reference(
                        alpha,
                        a,
                        op,
                        MatRef::from_parts(&x, k, 1, k.max(1)),
                        Op::None,
                        beta,
                        MatMut::from_parts(&mut want, m, 1, m.max(1)),
                    );
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "gemv {rows}x{cols} {op:?} {beta:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemv_runs_the_reference_recipe_bitwise() {
        check_gemv::<f64>(71);
        check_gemv::<f32>(72);
        check_gemv::<Complex64>(73);
    }

    /// No path skips a zero term: a zero in `B` against an infinity in `A`
    /// makes a NaN, on the one-column kernels, the direct path (both
    /// forms) and the blocked path, as in `gemm_reference`.  One infinity
    /// sits in a full group of eight terms, one in the last, short group.
    #[test]
    fn zero_times_infinity_is_nan_on_every_path() {
        for (m, n, k) in [(9, 1, 20), (2048, 1, 203), (9, 12, 20), (200, 12, 301)] {
            for op_a in [Op::None, Op::Trans] {
                let (ar, ac) = if op_a == Op::None { (m, k) } else { (k, m) };
                let mut a = rand_mat(ar, ac, 81);
                let b = DenseMatrix::<f64>::zeros(k, n);
                let infinities = [(m / 2, k / 3), (m / 3, k - 1)];
                for (i, p) in infinities {
                    if op_a == Op::None {
                        a[(i, p)] = f64::INFINITY;
                    } else {
                        a[(p, i)] = f64::INFINITY;
                    }
                }
                let mut want = DenseMatrix::<f64>::zeros(m, n);
                gemm_reference(
                    1.0,
                    a.as_ref(),
                    op_a,
                    b.as_ref(),
                    Op::None,
                    0.0,
                    want.as_mut(),
                );
                let mut got = DenseMatrix::<f64>::zeros(m, n);
                gemm(
                    1.0,
                    a.as_ref(),
                    op_a,
                    b.as_ref(),
                    Op::None,
                    0.0,
                    got.as_mut(),
                );
                for j in 0..n {
                    for (i, _) in infinities {
                        assert!(
                            want[(i, j)].is_nan() && got[(i, j)].is_nan(),
                            "{m}x{n}x{k} {op_a:?}: entry ({i}, {j})"
                        );
                    }
                }
                assert_eq!(
                    got.data().iter().filter(|v| v.is_nan()).count(),
                    2 * n,
                    "{m}x{n}x{k} {op_a:?}"
                );
            }
        }
    }
}
