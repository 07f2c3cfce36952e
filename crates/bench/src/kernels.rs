//! Dense-kernel microbenchmarks: gemm / LU / QR / leaf-solve GFLOP/s by
//! size, scalar type and thread count, plus the blocked-vs-reference
//! speedup and the bitwise-determinism check across pool sizes.  Each
//! row's time is the median of its timed runs, reported with their
//! interquartile range.  The
//! one-column `gemm` rows (`gemm_1col`, the products of a single-RHS HODLR
//! solve) also report the bytes of `A` they read per second, next to a
//! `stream_read` row: a plain read of as many bytes, the ceiling those
//! rates are read against.  The column-list rows (`sub_columns`,
//! `dot_columns`, the per-cross passes of adaptive cross approximation)
//! report the bytes of the columns they read per second the same way.
//! The `gemm_rhs` rows time the blocked products of a coalesced solve.
//!
//! The `kernels` binary turns these rows into `BENCH_kernels.json`, the perf
//! trajectory every kernel-touching PR is measured against: the headline
//! number is single-thread f64 `gemm` throughput at `1024^3` relative to the
//! retained naive reference kernel
//! ([`hodlr_la::blas::gemm_reference`]).

use crate::harness::percentile;
use hodlr_la::blas::{gemm_flops, gemm_reference};
use hodlr_la::cholesky::{
    bunch_kaufman_in_place, bunch_kaufman_solve_in_place, potrf_in_place, potrs_in_place, BkPivot,
};
use hodlr_la::columns::{dot_columns, sub_columns};
use hodlr_la::lu::{getrf_in_place, getrs_in_place};
use hodlr_la::qr::thin_qr;
use hodlr_la::random::{random_matrix, random_vector};
use hodlr_la::{gemm, isa_level, Complex64, DenseMatrix, Op, Scalar};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::time::Instant;

/// One measured kernel configuration.
#[derive(Clone, Debug)]
pub struct KernelRow {
    /// Kernel name: `gemm`, `gemm_reference`, `gemm_1col`, `gemm_rhs`,
    /// `stream_read`, `sub_columns`, `dot_columns`, `getrf`, `thin_qr`,
    /// `getrs`, `potrs`, `sytrs`.
    pub kernel: String,
    /// Scalar type: `f64` or `c64`.
    pub scalar: String,
    /// Rows of `C` / order of the factorized matrix / length of the
    /// columns of a column-list row.
    pub m: usize,
    /// Columns of `C` / right-hand sides of a solve.
    pub n: usize,
    /// Inner dimension / columns of a column-list row.
    pub k: usize,
    /// Pool size the row was measured with.
    pub threads: usize,
    /// Median wall time of the timed runs, in seconds.
    pub time_s: f64,
    /// Interquartile range of the timed runs' wall times, in seconds (0
    /// for a single run).
    pub time_iqr_s: f64,
    /// Achieved GFLOP/s (real-flop convention: complex multiply-add = 4x;
    /// 0 for `stream_read`, which does no flops).
    pub gflops: f64,
    /// Speedup against the naive reference kernel at the same size (one
    /// thread), when the reference was measured.
    pub speedup_vs_reference: Option<f64>,
    /// `Some(true)` when this row's output was bitwise identical to the
    /// 1-thread run of the same problem.
    pub bitwise_vs_1thread: Option<bool>,
    /// Instruction-set level the dispatched kernels ran at
    /// ([`hodlr_la::isa_level`]).
    pub isa: &'static str,
    /// `op_a` of a `gemm_1col` or `gemm_rhs` row.
    pub op_a: Option<Op>,
    /// Bytes read per second: of `A` in a `gemm_1col` row, of the summed
    /// array in a `stream_read` row, of the columns in a `sub_columns` or
    /// `dot_columns` row; `None` in every other row.
    pub bytes_per_s: Option<f64>,
}

/// Real-flop multiplier (complex multiply-add = 4 real multiply-adds).
fn flop_factor<T: Scalar>() -> f64 {
    if T::IS_COMPLEX {
        4.0
    } else {
        1.0
    }
}

fn scalar_name<T: Scalar>() -> &'static str {
    if T::IS_COMPLEX {
        "c64"
    } else {
        "f64"
    }
}

/// Median and interquartile range of a row's timed runs, in seconds.
#[derive(Clone, Copy, Debug)]
struct Timing {
    median: f64,
    iqr: f64,
}

impl Timing {
    /// Per call, when each timed run made `calls` calls.
    fn per_call(self, calls: usize) -> Timing {
        Timing {
            median: self.median / calls as f64,
            iqr: self.iqr / calls as f64,
        }
    }
}

/// Time `reps` runs of `f`.
fn timed_runs(reps: usize, mut f: impl FnMut()) -> Timing {
    let secs: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    Timing {
        median: percentile(&secs, 50.0),
        iqr: percentile(&secs, 75.0) - percentile(&secs, 25.0),
    }
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("bench pool")
}

/// Time one gemm (`C = A * B`) at `m x n x k`; returns `(time, C data)`.
fn time_gemm<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    reps: usize,
    reference: bool,
) -> (Timing, Vec<T>) {
    let mut rng = StdRng::seed_from_u64((m * 31 + n * 7 + k) as u64);
    let a: DenseMatrix<T> = random_matrix(&mut rng, m, k);
    let b: DenseMatrix<T> = random_matrix(&mut rng, k, n);
    let mut c = DenseMatrix::<T>::zeros(m, n);
    let t = timed_runs(reps, || {
        if reference {
            gemm_reference(
                T::one(),
                a.as_ref(),
                Op::None,
                b.as_ref(),
                Op::None,
                T::zero(),
                c.as_mut(),
            );
        } else {
            gemm(
                T::one(),
                a.as_ref(),
                Op::None,
                b.as_ref(),
                Op::None,
                T::zero(),
                c.as_mut(),
            );
        }
    });
    (t, c.into_data())
}

/// Elements one timing of [`time_gemm_1col`] or [`time_stream_read`] reads
/// at least, so a small product times enough calls to be read.
const READ_ELEMENTS: usize = 1 << 24;

/// Time one one-column product `c = op_a(A) x` with `A` stored
/// `rows x cols`; returns `(time per call, c)`.
fn time_gemm_1col<T: Scalar>(rows: usize, cols: usize, op_a: Op, reps: usize) -> (Timing, Vec<T>) {
    let mut rng = StdRng::seed_from_u64((rows * 31 + cols) as u64);
    let a: DenseMatrix<T> = random_matrix(&mut rng, rows, cols);
    let (m, k) = (op_a.rows_of(&a.as_ref()), op_a.cols_of(&a.as_ref()));
    let x: DenseMatrix<T> = random_matrix(&mut rng, k, 1);
    let mut c = DenseMatrix::<T>::zeros(m, 1);
    let calls = (READ_ELEMENTS / (rows * cols)).max(1);
    let t = timed_runs(reps, || {
        for _ in 0..calls {
            gemm(
                T::one(),
                a.as_ref(),
                op_a,
                x.as_ref(),
                Op::None,
                T::zero(),
                c.as_mut(),
            );
        }
    });
    (t.per_call(calls), c.into_data())
}

/// Time the blocked update `C -= op_a(A) B` with `A` stored
/// `rows x cols` and `nrhs` columns in `B` and `C`: a coalesced solve's
/// `V^H X` (`op_a` transposed) or `X -= Y W` (`Op::None`).  Returns
/// `(time per call, C)`.
fn time_gemm_rhs<T: Scalar>(
    rows: usize,
    cols: usize,
    op_a: Op,
    nrhs: usize,
    reps: usize,
) -> (Timing, Vec<T>) {
    let mut rng = StdRng::seed_from_u64((rows * 31 + cols * 7 + nrhs) as u64);
    let a: DenseMatrix<T> = random_matrix(&mut rng, rows, cols);
    let (m, k) = (op_a.rows_of(&a.as_ref()), op_a.cols_of(&a.as_ref()));
    let b: DenseMatrix<T> = random_matrix(&mut rng, k, nrhs);
    let mut c: DenseMatrix<T> = random_matrix(&mut rng, m, nrhs);
    let calls = (READ_ELEMENTS / (rows * cols)).max(1);
    let t = timed_runs(reps, || {
        for _ in 0..calls {
            gemm(
                -T::one(),
                a.as_ref(),
                op_a,
                b.as_ref(),
                Op::None,
                T::one(),
                c.as_mut(),
            );
        }
    });
    (t.per_call(calls), c.into_data())
}

/// Words one pool task of [`time_stream_read`] sums (512 KB).
const STREAM_TASK_WORDS: usize = 1 << 16;

/// Time a plain streaming read of `bytes` bytes, as often as
/// [`time_gemm_1col`] reads an `A` of `elements` elements: a wrapping sum
/// of `u64` words, split into pool tasks.  Returns `(time per read, sum)`.
fn time_stream_read(bytes: usize, elements: usize, reps: usize) -> (Timing, u64) {
    let words: Vec<u64> = (0..bytes / 8)
        .map(|i| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let calls = (READ_ELEMENTS / elements).max(1);
    let mut sum = 0;
    let t = timed_runs(reps, || {
        for _ in 0..calls {
            let parts: Vec<u64> = (0..words.len().div_ceil(STREAM_TASK_WORDS))
                .into_par_iter()
                .map(|t| {
                    let end = (t + 1) * STREAM_TASK_WORDS;
                    words[t * STREAM_TASK_WORDS..end.min(words.len())]
                        .iter()
                        .fold(0u64, |s, &w| s.wrapping_add(w))
                })
                .collect();
            sum = parts.iter().fold(0u64, |s, &p| s.wrapping_add(p));
        }
    });
    (t.per_call(calls), sum)
}

/// Which column-list kernel [`time_column_list`] times.
#[derive(Clone, Copy, Debug)]
enum ColumnList {
    /// `sub_columns(y, xs, coefs, false)`: an ACA residual column.
    Sub,
    /// `dot_columns(xs, y, true, out)`: the dots of its norm update.
    Dot,
}

/// Time one call of a column-list kernel over `cols` random columns of
/// `len` entries (every coefficient nonzero); returns `(time per call,
/// output)`.
fn time_column_list<T: Scalar>(
    kernel: ColumnList,
    len: usize,
    cols: usize,
    reps: usize,
) -> (Timing, Vec<T>) {
    let mut rng = StdRng::seed_from_u64((len * 37 + cols) as u64);
    let xs: Vec<Vec<T>> = (0..cols).map(|_| random_vector(&mut rng, len)).collect();
    let y0: Vec<T> = random_vector(&mut rng, len);
    let coefs: Vec<T> = random_vector(&mut rng, cols);
    let mut out = match kernel {
        ColumnList::Sub => y0.clone(),
        ColumnList::Dot => vec![T::zero(); cols],
    };
    let calls = (READ_ELEMENTS / (len * cols)).max(1);
    let t = timed_runs(reps, || {
        for _ in 0..calls {
            match kernel {
                ColumnList::Sub => {
                    out.copy_from_slice(&y0);
                    sub_columns(&mut out, &xs, &coefs, false);
                }
                ColumnList::Dot => dot_columns(&xs, &y0, true, &mut out),
            }
        }
    });
    (t.per_call(calls), out)
}

/// Time one in-place LU at order `n`; returns `(time, packed factors)`.
fn time_getrf<T: Scalar>(n: usize, reps: usize) -> (Timing, Vec<T>) {
    let mut rng = StdRng::seed_from_u64(n as u64 ^ 0x5eed);
    let a: DenseMatrix<T> = random_matrix(&mut rng, n, n);
    let mut out = Vec::new();
    let t = timed_runs(reps, || {
        let mut lu = a.clone();
        getrf_in_place(lu.as_mut()).expect("bench matrix is nonsingular");
        out = lu.into_data();
    });
    (t, out)
}

/// Time one thin QR at `m x n`; returns `(time, Q data)`.
fn time_qr<T: Scalar>(m: usize, n: usize, reps: usize) -> (Timing, Vec<T>) {
    let mut rng = StdRng::seed_from_u64((m * 13 + n) as u64);
    let a: DenseMatrix<T> = random_matrix(&mut rng, m, n);
    let mut out = Vec::new();
    let t = timed_runs(reps, || {
        let (q, _r) = thin_qr(&a);
        out = q.into_data();
    });
    (t, out)
}

/// The leaf solves: `getrs` with an LU factor, `potrs` with a Cholesky
/// factor, and `sytrs` with a Bunch-Kaufman factor of a Hermitian
/// indefinite matrix (the batched coupling solves' kernel).
#[derive(Clone, Copy)]
enum LeafSolve {
    Getrs,
    Potrs,
    Sytrs,
}

/// Order of the factor in the `getrs` / `potrs` rows: a HODLR leaf.
const LEAF_ORDER: usize = 64;

/// Right-hand-side columns one timing of [`time_leaf_solve`] covers, so a
/// one-column row times enough calls to be read.
const SOLVE_COLUMNS: usize = 4096;

/// Time one [`LEAF_ORDER`]-order leaf solve against `nrhs` right-hand
/// sides; returns `(time per solve, solution)`.  Each call solves a fresh
/// copy of the same right-hand sides.  The factor depends on `kind` and
/// `T` only, so the rows of one kernel compare across `nrhs`.
fn time_leaf_solve<T: Scalar>(kind: LeafSolve, nrhs: usize, reps: usize) -> (Timing, Vec<T>) {
    let order = LEAF_ORDER;
    let mut rng = StdRng::seed_from_u64((order * 17) as u64);
    let mut f: DenseMatrix<T> = random_matrix(&mut rng, order, order);
    let mut piv = Vec::new();
    let mut bk_piv = Vec::new();
    match kind {
        LeafSolve::Getrs => piv = getrf_in_place(f.as_mut()).expect("bench matrix is nonsingular"),
        LeafSolve::Sytrs => {
            // G + G^H with a diagonal of 8 on every third row and 0
            // elsewhere: Hermitian indefinite, and Bunch-Kaufman takes
            // both pivot sizes.
            let g = f.conj_transpose();
            f.axpy(T::one(), &g);
            for i in 0..order {
                f[(i, i)] = T::from_f64(if i % 3 == 0 { 8.0 } else { 0.0 });
            }
            bk_piv = bunch_kaufman_in_place(f.as_mut()).expect("bench matrix is nonsingular");
            assert!(
                bk_piv.iter().any(|p| matches!(p, BkPivot::Single(_)))
                    && bk_piv.iter().any(|p| matches!(p, BkPivot::Double(_))),
                "the sytrs factor must take both pivot sizes"
            );
        }
        LeafSolve::Potrs => {
            // G G^H + order * I is Hermitian positive definite.
            let g = f.clone();
            let g = g.as_ref();
            gemm(
                T::one(),
                g,
                Op::None,
                g,
                Op::ConjTrans,
                T::zero(),
                f.as_mut(),
            );
            for i in 0..order {
                f[(i, i)] += T::from_f64(order as f64);
            }
            potrf_in_place(f.as_mut()).expect("bench matrix is positive definite");
        }
    }
    let b: DenseMatrix<T> = random_matrix(&mut rng, order, nrhs);
    let calls = (SOLVE_COLUMNS / nrhs.max(1)).max(1);
    let mut x = b.clone();
    let t = timed_runs(reps, || {
        for _ in 0..calls {
            x.data_mut().copy_from_slice(b.data());
            match kind {
                LeafSolve::Getrs => getrs_in_place(f.as_ref(), &piv, x.as_mut()),
                LeafSolve::Potrs => potrs_in_place(f.as_ref(), x.as_mut()),
                LeafSolve::Sytrs => bunch_kaufman_solve_in_place(f.as_ref(), &bk_piv, x.as_mut()),
            }
        }
    });
    (t.per_call(calls), x.into_data())
}

/// Flop counts of the factorizations (real multiply-add = 2 flops).
fn getrf_flops(n: usize) -> f64 {
    2.0 * (n as f64).powi(3) / 3.0
}

fn qr_flops(m: usize, n: usize) -> f64 {
    // Householder thin QR + explicit thin-Q formation: ~4mn^2 - 4n^3/3.
    4.0 * m as f64 * (n as f64) * (n as f64) - 4.0 * (n as f64).powi(3) / 3.0
}

/// Two triangular solves of order `n` per right-hand side: `2 n^2` flops
/// each (the unit diagonals of `getrs`'s and `sytrs`'s `L` are not
/// discounted, nor `sytrs`'s block-diagonal `D` counted).
fn leaf_solve_flops(n: usize, nrhs: usize) -> f64 {
    2.0 * (n as f64) * (n as f64) * nrhs as f64
}

/// The sweep configuration of the `kernels` binary.
#[derive(Clone, Debug)]
pub struct KernelBenchConfig {
    /// GEMM cube sizes (`m = n = k`).
    pub gemm_sizes: Vec<usize>,
    /// Cube sizes at which the naive reference kernel is also timed.
    pub reference_sizes: Vec<usize>,
    /// LU orders.
    pub lu_sizes: Vec<usize>,
    /// QR shapes `(m, n)`.
    pub qr_sizes: Vec<(usize, usize)>,
    /// Right-hand-side counts of the `getrs` / `potrs` / `sytrs` rows.
    pub solve_nrhs: Vec<usize>,
    /// Stored shapes `(rows, cols)` and `op_a` of the `A` of the
    /// `gemm_1col` rows.
    pub one_column: Vec<(usize, usize, Op)>,
    /// Stored shape `(rows, cols)` and `op_a` of the `A` of the `gemm_rhs`
    /// rows, and their right-hand-side counts.
    pub rhs_products: Vec<(usize, usize, Op, usize)>,
    /// Column length and column count of the `sub_columns` and
    /// `dot_columns` rows.
    pub column_list: Vec<(usize, usize)>,
    /// Thread counts to sweep (the first is the baseline for bitwise
    /// comparisons and must be 1).
    pub threads: Vec<usize>,
    /// Timed runs per row (the row reports their median and IQR).
    pub reps: usize,
}

impl KernelBenchConfig {
    /// The committed-trajectory sweep: includes the headline
    /// 1024^3 f64 gemm-vs-reference measurement.
    pub fn full() -> Self {
        KernelBenchConfig {
            gemm_sizes: vec![256, 512, 1024],
            reference_sizes: vec![256, 512, 1024],
            lu_sizes: vec![256, 512, 1024],
            qr_sizes: vec![(512, 256), (1024, 512)],
            // One column, one lane group, serve's coalesced group sizes
            // (13-15 pad a second group, 16 fills it; one pass of two
            // groups each), with real scalars a pass padded to four groups
            // (31) and a full one (32), and the leaf widths W of the
            // laplace-surface-2d (138) and gp-se-3d (578) benchmarks.
            solve_nrhs: vec![1, 8, 13, 14, 15, 16, 31, 32, 138, 578],
            // gp-se-3d's top level (8192 child rows, max rank 177) read as
            // `V^H x` and as `Y w`, both blocked; a laplace-surface-2d
            // leaf-level `V^H x`, direct.
            one_column: vec![
                (8192, 177, Op::ConjTrans),
                (8192, 177, Op::None),
                (64, 16, Op::ConjTrans),
            ],
            // The level-1 products of serve-mixed's n = 4096 GP tenant
            // (2048 child rows, rank 87) against a hot burst of 14 and
            // the 32-column block probe: `V^H X`, then `X -= Y W`.
            rhs_products: vec![
                (2048, 87, Op::ConjTrans, 14),
                (2048, 87, Op::None, 14),
                (2048, 87, Op::ConjTrans, 32),
                (2048, 87, Op::None, 32),
            ],
            // gp-se-3d's root block: 8192-entry crosses, rank about 190.
            column_list: vec![(8192, 190)],
            threads: vec![1, 2, 8],
            reps: 7,
        }
    }

    /// A seconds-scale smoke sweep for CI: tiny sizes, same code paths
    /// (every size still crosses the blocked thresholds).
    pub fn smoke() -> Self {
        KernelBenchConfig {
            gemm_sizes: vec![160],
            reference_sizes: vec![160],
            lu_sizes: vec![160],
            qr_sizes: vec![(128, 100)],
            // One column, then a full lane group with two per-column
            // leftovers (10) and with a padded group of three (11): both
            // sides of the padding cut-off; then one wide pass (32).
            solve_nrhs: vec![1, 9, 10, 11, 32],
            one_column: vec![
                (2048, 177, Op::ConjTrans),
                (2048, 177, Op::None),
                (64, 16, Op::ConjTrans),
            ],
            rhs_products: vec![(2048, 87, Op::ConjTrans, 14), (2048, 87, Op::None, 14)],
            // Two chunks of entries, groups of four and eight with
            // leftovers.
            column_list: vec![(2048, 45)],
            threads: vec![1, 2],
            reps: 1,
        }
    }
}

/// Run one scalar type's sweep, appending to `rows`.
fn sweep_scalar<T: Scalar>(config: &KernelBenchConfig, rows: &mut Vec<KernelRow>) {
    let scalar = scalar_name::<T>().to_string();
    let ff = flop_factor::<T>();
    let isa = isa_level();

    // GEMM: reference baseline (1 thread), then the blocked kernel over the
    // thread sweep with bitwise comparison against its own 1-thread output.
    for &s in &config.gemm_sizes {
        let reference_t = if config.reference_sizes.contains(&s) {
            let (t, _) = pool(1).install(|| time_gemm::<T>(s, s, s, config.reps, true));
            let flops = ff * gemm_flops(s, s, s) as f64;
            rows.push(KernelRow {
                kernel: "gemm_reference".into(),
                scalar: scalar.clone(),
                m: s,
                n: s,
                k: s,
                threads: 1,
                time_s: t.median,
                time_iqr_s: t.iqr,
                gflops: flops / t.median / 1e9,
                speedup_vs_reference: None,
                bitwise_vs_1thread: None,
                isa,
                op_a: None,
                bytes_per_s: None,
            });
            Some(t.median)
        } else {
            None
        };

        let mut base_out: Option<Vec<T>> = None;
        for &nt in &config.threads {
            let (t, out) = pool(nt).install(|| time_gemm::<T>(s, s, s, config.reps, false));
            let bitwise = base_out.as_ref().map(|b| bitwise_eq(b, &out));
            if base_out.is_none() {
                base_out = Some(out);
            }
            let flops = ff * gemm_flops(s, s, s) as f64;
            rows.push(KernelRow {
                kernel: "gemm".into(),
                scalar: scalar.clone(),
                m: s,
                n: s,
                k: s,
                threads: nt,
                time_s: t.median,
                time_iqr_s: t.iqr,
                gflops: flops / t.median / 1e9,
                speedup_vs_reference: if nt == 1 {
                    reference_t.map(|rt| rt / t.median)
                } else {
                    None
                },
                bitwise_vs_1thread: bitwise,
                isa,
                op_a: None,
                bytes_per_s: None,
            });
        }
    }

    // The blocked products of a coalesced solve.
    for &(a_rows, a_cols, op_a, nrhs) in &config.rhs_products {
        let (m, k) = if op_a == Op::None {
            (a_rows, a_cols)
        } else {
            (a_cols, a_rows)
        };
        let mut base_out: Option<Vec<T>> = None;
        for &nt in &config.threads {
            let (t, out) =
                pool(nt).install(|| time_gemm_rhs::<T>(a_rows, a_cols, op_a, nrhs, config.reps));
            let bitwise = base_out.as_ref().map(|b| bitwise_eq(b, &out));
            if base_out.is_none() {
                base_out = Some(out);
            }
            rows.push(KernelRow {
                kernel: "gemm_rhs".into(),
                scalar: scalar.clone(),
                m,
                n: nrhs,
                k,
                threads: nt,
                time_s: t.median,
                time_iqr_s: t.iqr,
                gflops: ff * gemm_flops(m, nrhs, k) as f64 / t.median / 1e9,
                speedup_vs_reference: None,
                bitwise_vs_1thread: bitwise,
                isa,
                op_a: Some(op_a),
                bytes_per_s: None,
            });
        }
    }

    // One-column products (a single-RHS solve's `V^H x` and `x -= Y w`),
    // then a plain read of as many bytes as the largest `A`.
    let size = std::mem::size_of::<T>();
    for &(a_rows, a_cols, op_a) in &config.one_column {
        let (m, k) = if op_a == Op::None {
            (a_rows, a_cols)
        } else {
            (a_cols, a_rows)
        };
        let mut base_out: Option<Vec<T>> = None;
        for &nt in &config.threads {
            let (t, out) =
                pool(nt).install(|| time_gemm_1col::<T>(a_rows, a_cols, op_a, config.reps));
            let bitwise = base_out.as_ref().map(|b| bitwise_eq(b, &out));
            if base_out.is_none() {
                base_out = Some(out);
            }
            rows.push(KernelRow {
                kernel: "gemm_1col".into(),
                scalar: scalar.clone(),
                m,
                n: 1,
                k,
                threads: nt,
                time_s: t.median,
                time_iqr_s: t.iqr,
                gflops: ff * gemm_flops(m, 1, k) as f64 / t.median / 1e9,
                speedup_vs_reference: None,
                bitwise_vs_1thread: bitwise,
                isa,
                op_a: Some(op_a),
                bytes_per_s: Some((a_rows * a_cols * size) as f64 / t.median),
            });
        }
    }
    if let Some(&(a_rows, a_cols, _)) = config.one_column.iter().max_by_key(|s| s.0 * s.1) {
        let mut base_sum = None;
        for &nt in &config.threads {
            let elements = a_rows * a_cols;
            let (t, sum) =
                pool(nt).install(|| time_stream_read(elements * size, elements, config.reps));
            let bitwise = base_sum.map(|b| b == sum);
            base_sum.get_or_insert(sum);
            rows.push(KernelRow {
                kernel: "stream_read".into(),
                scalar: scalar.clone(),
                m: a_rows,
                n: 1,
                k: a_cols,
                threads: nt,
                time_s: t.median,
                time_iqr_s: t.iqr,
                gflops: 0.0,
                speedup_vs_reference: None,
                bitwise_vs_1thread: bitwise,
                isa,
                op_a: None,
                bytes_per_s: Some((elements * size) as f64 / t.median),
            });
        }
    }

    // The two passes adaptive cross approximation makes over its earlier
    // crosses for every new one.
    for &(len, cols) in &config.column_list {
        for (kernel, name) in [
            (ColumnList::Sub, "sub_columns"),
            (ColumnList::Dot, "dot_columns"),
        ] {
            let mut base_out: Option<Vec<T>> = None;
            for &nt in &config.threads {
                let (t, out) =
                    pool(nt).install(|| time_column_list::<T>(kernel, len, cols, config.reps));
                let bitwise = base_out.as_ref().map(|b| bitwise_eq(b, &out));
                if base_out.is_none() {
                    base_out = Some(out);
                }
                rows.push(KernelRow {
                    kernel: name.into(),
                    scalar: scalar.clone(),
                    m: len,
                    n: 1,
                    k: cols,
                    threads: nt,
                    time_s: t.median,
                    time_iqr_s: t.iqr,
                    gflops: ff * gemm_flops(len, 1, cols) as f64 / t.median / 1e9,
                    speedup_vs_reference: None,
                    bitwise_vs_1thread: bitwise,
                    isa,
                    op_a: None,
                    bytes_per_s: Some((len * cols * size) as f64 / t.median),
                });
            }
        }
    }

    // LU over the thread sweep (the trailing gemm updates parallelize).
    for &s in &config.lu_sizes {
        let mut base_out: Option<Vec<T>> = None;
        for &nt in &config.threads {
            let (t, out) = pool(nt).install(|| time_getrf::<T>(s, config.reps));
            let bitwise = base_out.as_ref().map(|b| bitwise_eq(b, &out));
            if base_out.is_none() {
                base_out = Some(out);
            }
            rows.push(KernelRow {
                kernel: "getrf".into(),
                scalar: scalar.clone(),
                m: s,
                n: s,
                k: s,
                threads: nt,
                time_s: t.median,
                time_iqr_s: t.iqr,
                gflops: ff * getrf_flops(s) / t.median / 1e9,
                speedup_vs_reference: None,
                bitwise_vs_1thread: bitwise,
                isa,
                op_a: None,
                bytes_per_s: None,
            });
        }
    }

    // QR at 1 thread and the largest thread count.
    for &(m, n) in &config.qr_sizes {
        let mut base_out: Option<Vec<T>> = None;
        for &nt in &config.threads {
            let (t, out) = pool(nt).install(|| time_qr::<T>(m, n, config.reps));
            let bitwise = base_out.as_ref().map(|b| bitwise_eq(b, &out));
            if base_out.is_none() {
                base_out = Some(out);
            }
            rows.push(KernelRow {
                kernel: "thin_qr".into(),
                scalar: scalar.clone(),
                m,
                n,
                k: n,
                threads: nt,
                time_s: t.median,
                time_iqr_s: t.iqr,
                gflops: ff * qr_flops(m, n) / t.median / 1e9,
                speedup_vs_reference: None,
                bitwise_vs_1thread: bitwise,
                isa,
                op_a: None,
                bytes_per_s: None,
            });
        }
    }

    // The leaf solves of Algorithms 1 and 3, and the Bunch-Kaufman solve of
    // their coupling matrices: one factor against `nrhs` columns.  One
    // column runs the per-column loop, eight or more the eight-lane path.
    for (kind, name) in [
        (LeafSolve::Getrs, "getrs"),
        (LeafSolve::Potrs, "potrs"),
        (LeafSolve::Sytrs, "sytrs"),
    ] {
        for &nrhs in &config.solve_nrhs {
            let mut base_out: Option<Vec<T>> = None;
            for &nt in &config.threads {
                let (t, out) = pool(nt).install(|| time_leaf_solve::<T>(kind, nrhs, config.reps));
                let bitwise = base_out.as_ref().map(|b| bitwise_eq(b, &out));
                if base_out.is_none() {
                    base_out = Some(out);
                }
                rows.push(KernelRow {
                    kernel: name.into(),
                    scalar: scalar.clone(),
                    m: LEAF_ORDER,
                    n: nrhs,
                    k: LEAF_ORDER,
                    threads: nt,
                    time_s: t.median,
                    time_iqr_s: t.iqr,
                    gflops: ff * leaf_solve_flops(LEAF_ORDER, nrhs) / t.median / 1e9,
                    speedup_vs_reference: None,
                    bitwise_vs_1thread: bitwise,
                    isa,
                    op_a: None,
                    bytes_per_s: None,
                });
            }
        }
    }
}

/// Bitwise equality of two result buffers.
fn bitwise_eq<T: Scalar>(a: &[T], b: &[T]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x == y)
}

/// Run the configured sweep over f64 and Complex64.
pub fn run_kernel_bench(config: &KernelBenchConfig) -> Vec<KernelRow> {
    assert_eq!(
        config.threads.first(),
        Some(&1),
        "thread sweep must start at 1 (bitwise baseline)"
    );
    let mut rows = Vec::new();
    sweep_scalar::<f64>(config, &mut rows);
    sweep_scalar::<Complex64>(config, &mut rows);
    rows
}

/// Print the rows as an aligned table.
pub fn print_kernel_table(rows: &[KernelRow]) {
    println!(
        "{:<16} {:>6} {:>6} {:>6} {:>6} {:>9} {:>8} {:>12} {:>10} {:>10} {:>9} {:>8} {:>7}",
        "kernel",
        "scalar",
        "m",
        "n",
        "k",
        "op_a",
        "threads",
        "time [s]",
        "IQR [s]",
        "GFLOP/s",
        "speedup",
        "bitwise",
        "GB/s"
    );
    for r in rows {
        println!(
            "{:<16} {:>6} {:>6} {:>6} {:>6} {:>9} {:>8} {:>12.4e} {:>10.2e} {:>10.3} {:>9} {:>8} {:>7}",
            r.kernel,
            r.scalar,
            r.m,
            r.n,
            r.k,
            r.op_a.map_or("-".into(), |op| format!("{op:?}")),
            r.threads,
            r.time_s,
            r.time_iqr_s,
            r.gflops,
            r.speedup_vs_reference
                .map(|s| format!("{s:.2}x"))
                .unwrap_or_else(|| "-".into()),
            r.bitwise_vs_1thread
                .map(|b| if b { "yes" } else { "NO" }.to_string())
                .unwrap_or_else(|| "-".into()),
            r.bytes_per_s
                .map(|b| format!("{:.2}", b / 1e9))
                .unwrap_or_else(|| "-".into()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_produces_consistent_rows() {
        let mut config = KernelBenchConfig::smoke();
        // Keep the unit test fast: one small gemm + LU + QR per scalar.
        config.gemm_sizes = vec![96];
        config.reference_sizes = vec![96];
        config.lu_sizes = vec![96];
        config.qr_sizes = vec![(64, 48)];
        config.one_column = vec![
            (1024, 300, Op::ConjTrans),
            (1024, 300, Op::None),
            (64, 16, Op::ConjTrans),
        ];
        config.column_list = vec![(1500, 13)];
        config.threads = vec![1, 2];
        let rows = run_kernel_bench(&config);
        assert!(rows.iter().any(|r| r.kernel == "gemm" && r.scalar == "f64"));
        assert!(rows.iter().any(|r| r.kernel == "gemm_reference"));
        assert!(rows
            .iter()
            .any(|r| r.kernel == "getrf" && r.scalar == "c64"));
        assert!(rows.iter().any(|r| r.kernel == "thin_qr"));
        for kernel in ["getrs", "potrs", "sytrs"] {
            for nrhs in [1, 9, 10, 11, 32] {
                assert!(rows.iter().any(|r| r.kernel == kernel && r.n == nrhs));
            }
        }
        // Every one-column shape for both scalars, and the read ceiling;
        // only those rows carry a rate.
        for scalar in ["f64", "c64"] {
            for op in [Op::ConjTrans, Op::None] {
                assert!(rows
                    .iter()
                    .any(|r| r.kernel == "gemm_1col" && r.scalar == scalar && r.op_a == Some(op)));
            }
            for kernel in ["stream_read", "sub_columns", "dot_columns", "gemm_rhs"] {
                assert!(rows
                    .iter()
                    .any(|r| r.kernel == kernel && r.scalar == scalar));
            }
        }
        for r in &rows {
            let rated = matches!(
                r.kernel.as_str(),
                "gemm_1col" | "stream_read" | "sub_columns" | "dot_columns"
            );
            assert_eq!(r.bytes_per_s.is_some(), rated, "{}", r.kernel);
            let product = matches!(r.kernel.as_str(), "gemm_1col" | "gemm_rhs");
            assert_eq!(r.op_a.is_some(), product, "{}", r.kernel);
        }
        // Every multi-thread row must report a bitwise verdict, and it must
        // be "identical".
        for r in &rows {
            assert!(r.time_s > 0.0 && r.time_iqr_s >= 0.0);
            assert!(r.gflops.is_finite());
            if r.threads > 1 {
                assert_eq!(
                    r.bitwise_vs_1thread,
                    Some(true),
                    "{} {}x{}x{} at {} threads not bitwise-identical",
                    r.kernel,
                    r.m,
                    r.n,
                    r.k,
                    r.threads
                );
            }
        }
    }
}
