//! Level-2/3 BLAS style kernels: `gemm`, `gemv` and friends.
//!
//! # Kernel design
//!
//! [`gemm`] is a packed, register-tiled, cache-blocked BLAS-3 kernel in the
//! GotoBLAS/BLIS/faer style.  Large products run through three layers:
//!
//! 1. **Register microkernel** — an [`GEMM_MR`]`x`[`GEMM_NR`] tile of `C` is
//!    held in unrolled accumulators (`[[T; MR]; NR]` locals) while streaming
//!    one column of packed `A` and one row of packed `B` per `k` step.  The
//!    fixed-size inner loops autovectorize for `f32`/`f64` and stay correct
//!    (scalar) for complex fields.  Accumulation is unfused
//!    (`acc += a * b`).
//! 2. **Packing** — `op_a(A)` is repacked into column-major micro-panels of
//!    [`GEMM_MR`] rows and `op_b(B)` into row-major micro-panels of
//!    [`GEMM_NR`] columns, so the microkernel reads both operands
//!    contiguously regardless of the requested [`Op`] or the view strides.
//!    Conjugation is folded into the pack.  The pack buffers are allocated
//!    once per parallel tile task and reused across every `k` block of that
//!    tile (the previous kernel copied all of `op_a(A)` on every call).
//! 3. **Cache blocking** — the `k` dimension is processed in slabs of
//!    [`GEMM_KC`], each tile packs at most [`GEMM_MC`]`x`[`GEMM_KC`] of `A`
//!    (sized for L2) and [`GEMM_KC`]`x`[`GEMM_NC`] of `B` (sized for L3).
//!
//! **Tuning:** `GEMM_MR`/`GEMM_NR` set the register footprint of the
//! microkernel (`MR*NR` accumulators; 8x4 fills a 16-register SIMD file at
//! f64x2 and still fits when the compiler promotes to wider vectors);
//! `GEMM_KC` bounds the packed panel depth so an `MR x KC` A-strip plus an
//! `NR x KC` B-strip stay L1-resident; `GEMM_MC` (a multiple of `MR`) sizes
//! the packed A panel for L2; `GEMM_NC` (a multiple of `NR`) sets the width
//! of a parallel column tile.  Raise `GEMM_MC`/`GEMM_KC` on machines with
//! larger private caches; shrink `GEMM_NC` to expose more parallel tiles for
//! wide products.
//!
//! # Parallelism and determinism
//!
//! Products above [`GEMM_DIRECT_THRESHOLD`] multiply-adds are split over a
//! fixed grid of `GEMM_MC x GEMM_NC` tiles of `C`.  Tile boundaries depend
//! only on `(m, n)` — never on the thread count — and each tile accumulates
//! its `k` slabs sequentially in ascending order, so every entry of `C` sees
//! the same floating-point operation order at any pool size: results are
//! **bitwise identical at any thread count**, preserving the repo-wide
//! determinism contract (see ARCHITECTURE.md).  Because the grid covers rows
//! as well as columns, tall-skinny products (the rank-width `V^H * Y`
//! updates that dominate HODLR factorization) parallelize too.
//!
//! # Small products
//!
//! Below [`GEMM_DIRECT_THRESHOLD`] the kernel uses an unpacked direct path:
//! when `op_a == Op::None` the columns of `A` are read in place (columns of
//! a strided view are always contiguous), so small products do **no**
//! repacking at all; transposed operands use dot-product form on contiguous
//! columns.  The dot form packs eight columns of `op_b(B)` at a time into
//! `[T; 8]` lanes, each lane running its column's dot products in their
//! own order, so the result is bitwise that of one column at a time (the
//! lane contract of [`crate::triangular`]); leftover columns take the
//! one-column loop.  The previous implementation copied all of `op_a(A)`
//! even when it was already stored exactly as needed.
//!
//! The old axpy-per-column kernel is retained as [`gemm_reference`]: it is
//! the oracle for property tests and the baseline the `kernels` bench bin
//! (BENCH_kernels.json) measures speedups against.
//!
//! # ISA dispatch
//!
//! The workspace builds for baseline x86-64, where every `mul_add` in
//! [`axpy_slice`] is an out-of-line call into the `fma` routine and loops
//! vectorize only to SSE2.  The kernels that carry the flops — one `gemm`
//! tile, the direct path with its eight-lane dot form, [`gemv`] and
//! [`axpy_slice`] here; the unblocked LU, Cholesky, `L D L^H` and
//! Bunch-Kaufman kernels, the Bunch-Kaufman solve and the eight-lane
//! kernels of the triangular and `L^H` solves elsewhere in the crate — are
//! each compiled a second time for AVX2 + FMA (x86-64-v3), and every call
//! picks the copy the running CPU supports ([`crate::isa_level`] names it).  Inside a dispatched kernel the
//! inner loops call the non-dispatching `axpy` body, so the whole kernel
//! runs in one copy with `vfmadd` and no per-element call.  For `gemm` the
//! dispatch sits in the per-tile function that the parallel tile closure
//! calls, not around `gemm` itself: a closure is compiled with the target
//! features of the function it is written in, so dispatching `gemm` alone
//! would leave the microkernel at SSE2.  The copies differ only in
//! instruction selection, so results are bitwise identical at every ISA
//! level.

use crate::dense::{MatMut, MatRef};
use crate::isa::multiversion;
use crate::scalar::Scalar;
use crate::triangular::LANES;
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
pub const GEMM_NR: usize = 4;
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
pub const GEMM_NC: usize = 512;

/// Multiply-add count below which [`gemm`] runs the unpacked direct path.
pub const GEMM_DIRECT_THRESHOLD: usize = 64 * 64 * 64;

/// General matrix-matrix multiply:
/// `C <- alpha * op_a(A) * op_b(B) + beta * C`.
///
/// Shapes must satisfy `op_a(A): m x k`, `op_b(B): k x n`, `C: m x n`.
///
/// Results are bitwise identical at any thread count (see the module docs).
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

    // Scale C by beta first.
    if beta == T::zero() {
        c.fill(T::zero());
    } else if beta != T::one() {
        for j in 0..n {
            for x in c.col_mut(j) {
                *x *= beta;
            }
        }
    }
    if k == 0 || alpha == T::zero() {
        return;
    }

    if m * n * k < GEMM_DIRECT_THRESHOLD {
        gemm_direct(alpha, &a, op_a, &b, op_b, &mut c);
    } else if T::IS_COMPLEX {
        // Complex accumulators are twice as wide; a smaller register tile
        // avoids spilling the accumulator block to the stack.
        gemm_blocked::<T, GEMM_MR_COMPLEX, GEMM_NR_COMPLEX>(alpha, &a, op_a, &b, op_b, &mut c);
    } else {
        gemm_blocked::<T, GEMM_MR, GEMM_NR>(alpha, &a, op_a, &b, op_b, &mut c);
    }
}

// ---------------------------------------------------------------------------
// Direct path: small products, no packing.
// ---------------------------------------------------------------------------

multiversion! {
    /// Unpacked kernel for small products (C already beta-scaled).
    ///
    /// For `op_a == Op::None` the columns of `A` are used in place — no
    /// repack.  For transposed `A` the product is computed in dot form over
    /// the contiguous columns of `A` as stored.
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
    let k = op_a.cols_of(a);
    match op_a {
        Op::None => {
            for j in 0..n {
                let c_col = c.col_mut(j);
                for p in 0..k {
                    let scale = alpha * op_b.at(b, p, j);
                    if scale == T::zero() {
                        continue;
                    }
                    axpy_slice_body(scale, a.col(p), c_col);
                }
            }
        }
        Op::Trans | Op::ConjTrans => {
            let conj_a = op_a == Op::ConjTrans;
            let grouped = n - n % LANES;
            if grouped > 0 {
                dot_form_lanes(alpha, a, conj_a, b, op_b, c, grouped);
            }
            dot_form_columns(alpha, a, conj_a, b, op_b, c, grouped);
        }
    }
}

/// The dot form of the direct path for columns `0..grouped` of `C` (a
/// multiple of [`LANES`]): eight columns of `op_b(B)` are packed row by row
/// into `[T; LANES]`, and lane `l` accumulates entry `(i, j0 + l)` exactly
/// as [`dot_form_columns`]'s `dot` does, so every entry is bitwise the same.
#[inline(always)]
fn dot_form_lanes<T: Scalar>(
    alpha: T,
    a: &MatRef<'_, T>,
    conj_a: bool,
    b: &MatRef<'_, T>,
    op_b: Op,
    c: &mut MatMut<'_, T>,
    grouped: usize,
) {
    let k = op_b.rows_of(b);
    let mut b_lanes = vec![[T::zero(); LANES]; k];
    for j0 in (0..grouped).step_by(LANES) {
        for (l, j) in (j0..j0 + LANES).enumerate() {
            if op_b == Op::None {
                for (row, &v) in b_lanes.iter_mut().zip(b.col(j)) {
                    row[l] = v;
                }
            } else {
                for (p, row) in b_lanes.iter_mut().enumerate() {
                    row[l] = op_b.at(b, p, j);
                }
            }
        }
        for i in 0..c.rows() {
            let mut acc = [T::zero(); LANES];
            for (&aip, bp) in a.col(i).iter().zip(&b_lanes) {
                let aip = if conj_a { aip.conj() } else { aip };
                for (s, &v) in acc.iter_mut().zip(bp) {
                    *s += aip * v;
                }
            }
            for (j, s) in (j0..j0 + LANES).zip(acc) {
                c.col_mut(j)[i] += alpha * s;
            }
        }
    }
}

/// The dot form of the direct path for columns `from..` of `C`, one column
/// at a time: `C[i, j] += alpha * dot(op_a(A)[i, :], op_b(B)[:, j])`.
#[inline(always)]
pub(crate) fn dot_form_columns<T: Scalar>(
    alpha: T,
    a: &MatRef<'_, T>,
    conj_a: bool,
    b: &MatRef<'_, T>,
    op_b: Op,
    c: &mut MatMut<'_, T>,
    from: usize,
) {
    // op_a(A)[i, p] = (conj?) a[p, i]: row i of op_a(A) is the contiguous
    // stored column i of A.
    let k = op_b.rows_of(b);
    let mut b_col: Vec<T> = Vec::new();
    for j in from..c.cols() {
        let b_slice: &[T] = if op_b == Op::None {
            b.col(j)
        } else {
            b_col.clear();
            b_col.extend((0..k).map(|p| op_b.at(b, p, j)));
            &b_col
        };
        let c_col = c.col_mut(j);
        for (i, ci) in c_col.iter_mut().enumerate() {
            let acc = if conj_a {
                dot_conj(a.col(i), b_slice)
            } else {
                dot(a.col(i), b_slice)
            };
            *ci += alpha * acc;
        }
    }
}

// ---------------------------------------------------------------------------
// Blocked path: packed panels + register microkernel.
// ---------------------------------------------------------------------------

#[inline]
fn round_up(x: usize, to: usize) -> usize {
    x.div_ceil(to) * to
}

/// One tile of the fixed grid over `C`: its first row `i0` and column `j0`,
/// and its column segments `C[i0..i0 + ib, j]`, one per tile column `j`.
pub(crate) struct CTile<'c, T> {
    i0: usize,
    j0: usize,
    cols: Vec<&'c mut [T]>,
}

/// Split `C` into the grid of `GEMM_MC x GEMM_NC` tiles.  Tile boundaries
/// depend only on `(m, n)`, never on the thread count, so the
/// floating-point accumulation order per entry of `C` is invariant under
/// the pool size.  The tiles partition `C`, so their column segments are
/// disjoint and each tile can go to its own task.
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
        pack_b::<T, NR>(b, op_b, p0, pb, j0, jb, &mut b_buf);

        let mut jr = 0;
        while jr < jb {
            let bp = &b_buf[(jr / NR) * pb * NR..][..pb * NR];
            let mut ir = 0;
            while ir < ib {
                let mrv = MR.min(ib - ir);
                let ap = &a_buf[(ir / MR) * pb * MR..][..pb * MR];
                let acc = microkernel::<T, MR, NR>(pb, ap, bp);
                // C[i0+ir.., j0+jr..] += alpha * acc (valid region only).
                for (col, acc_col) in tile.cols[jr..].iter_mut().zip(&acc) {
                    for (ci, &v) in col[ir..ir + mrv].iter_mut().zip(acc_col) {
                        *ci += alpha * v;
                    }
                }
                ir += MR;
            }
            jr += NR;
        }
        p0 += pb;
    }
}

/// The register microkernel: accumulate
/// `acc[j][i] = sum_p ap[p*MR + i] * bp[p*NR + j]` over one packed k slab.
///
/// The fixed-size accumulator array lives in registers; the `MR`-wide inner
/// loop reads packed A contiguously and autovectorizes for real scalars.
#[inline(always)]
fn microkernel<T: Scalar, const MR: usize, const NR: usize>(
    pb: usize,
    ap: &[T],
    bp: &[T],
) -> [[T; MR]; NR] {
    let mut acc = [[T::zero(); MR]; NR];
    for p in 0..pb {
        let av: &[T; MR] = ap[p * MR..p * MR + MR].try_into().unwrap();
        let bv: &[T; NR] = bp[p * NR..p * NR + NR].try_into().unwrap();
        for (acc_col, &bj) in acc.iter_mut().zip(bv.iter()) {
            for (acc_ij, &ai) in acc_col.iter_mut().zip(av.iter()) {
                *acc_ij += ai * bj;
            }
        }
    }
    acc
}

/// Pack `op(A)[i0..i0+ib, p0..p0+pb]` into micro-panels of [`GEMM_MR`] rows:
/// panel `ir/MR` stores, for each `p`, `MR` consecutive rows (zero-padded at
/// the ragged edge).  Conjugation is applied here so the microkernel never
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
                        buf[off + p * MR + i] = if conj { v.conj() } else { v };
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

/// Pack `op(B)[p0..p0+pb, j0..j0+jb]` into micro-panels of [`GEMM_NR`]
/// columns: panel `jr/NR` stores, for each `p`, `NR` consecutive columns
/// (zero-padded at the ragged edge), conjugated as requested.
fn pack_b<T: Scalar, const NR: usize>(
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
                        buf[off + p * NR + j] = v;
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
                        *d = if conj { v.conj() } else { v };
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

/// The retained naive reference kernel: the axpy-per-column loop that used
/// to be `gemm`.  Sequential, packs all of `op_a(A)` per call, no register
/// or cache blocking.  It is the oracle for the blocked-vs-reference
/// property tests and the baseline of the `kernels` bench bin.
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
    if beta == T::zero() {
        c.fill(T::zero());
    } else if beta != T::one() {
        for j in 0..n {
            for x in c.col_mut(j) {
                *x *= beta;
            }
        }
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
            if scale == T::zero() {
                continue;
            }
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

/// Dot product `sum_i conj(x_i) * y_i` (the complex inner product).
#[inline]
pub fn dot_conj<T: Scalar>(x: &[T], y: &[T]) -> T {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = T::zero();
    for (&xi, &yi) in x.iter().zip(y) {
        acc += xi.conj() * yi;
    }
    acc
}

/// Dot product without conjugation `sum_i x_i * y_i`.
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
    /// General matrix-vector multiply `y <- alpha * op(A) * x + beta * y`.
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

    if beta == T::zero() {
        y.fill(T::zero());
    } else if beta != T::one() {
        for v in y.iter_mut() {
            *v *= beta;
        }
    }
    if alpha == T::zero() || k == 0 {
        return;
    }

    match op {
        Op::None => {
            for (p, &xp) in x.iter().enumerate() {
                let scale = alpha * xp;
                if scale == T::zero() {
                    continue;
                }
                axpy_slice_body(scale, a.col(p), y);
            }
        }
        Op::Trans => {
            for (i, yi) in y.iter_mut().enumerate() {
                *yi += alpha * dot(a.col(i), x);
            }
        }
        Op::ConjTrans => {
            for (i, yi) in y.iter_mut().enumerate() {
                *yi += alpha * dot_conj(a.col(i), x);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
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
}
