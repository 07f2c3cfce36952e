//! Dense-kernel microbenchmarks: gemm / LU / QR / leaf-solve GFLOP/s by
//! size, scalar type and thread count, plus the blocked-vs-reference
//! speedup and the bitwise-determinism check across pool sizes.
//!
//! The `kernels` binary turns these rows into `BENCH_kernels.json`, the perf
//! trajectory every kernel-touching PR is measured against: the headline
//! number is single-thread f64 `gemm` throughput at `1024^3` relative to the
//! retained naive reference kernel
//! ([`hodlr_la::blas::gemm_reference`]).

use hodlr_la::blas::{gemm_flops, gemm_reference};
use hodlr_la::cholesky::{potrf_in_place, potrs_in_place};
use hodlr_la::lu::{getrf_in_place, getrs_in_place};
use hodlr_la::qr::thin_qr;
use hodlr_la::random::random_matrix;
use hodlr_la::{gemm, isa_level, Complex64, DenseMatrix, Op, Scalar};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One measured kernel configuration.
#[derive(Clone, Debug)]
pub struct KernelRow {
    /// Kernel name: `gemm`, `gemm_reference`, `getrf`, `thin_qr`, `getrs`,
    /// `potrs`.
    pub kernel: String,
    /// Scalar type: `f64` or `c64`.
    pub scalar: String,
    /// Rows of `C` / order of the factorized matrix.
    pub m: usize,
    /// Columns of `C` / right-hand sides of a solve.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Pool size the row was measured with.
    pub threads: usize,
    /// Best-of-reps wall time in seconds.
    pub time_s: f64,
    /// Achieved GFLOP/s (real-flop convention: complex multiply-add = 4x).
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

/// Best-of-`reps` wall time of `f`.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
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
) -> (f64, Vec<T>) {
    let mut rng = StdRng::seed_from_u64((m * 31 + n * 7 + k) as u64);
    let a: DenseMatrix<T> = random_matrix(&mut rng, m, k);
    let b: DenseMatrix<T> = random_matrix(&mut rng, k, n);
    let mut c = DenseMatrix::<T>::zeros(m, n);
    let t = best_of(reps, || {
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

/// Time one in-place LU at order `n`; returns `(time, packed factors)`.
fn time_getrf<T: Scalar>(n: usize, reps: usize) -> (f64, Vec<T>) {
    let mut rng = StdRng::seed_from_u64(n as u64 ^ 0x5eed);
    let a: DenseMatrix<T> = random_matrix(&mut rng, n, n);
    let mut out = Vec::new();
    let t = best_of(reps, || {
        let mut lu = a.clone();
        getrf_in_place(lu.as_mut()).expect("bench matrix is nonsingular");
        out = lu.into_data();
    });
    (t, out)
}

/// Time one thin QR at `m x n`; returns `(time, Q data)`.
fn time_qr<T: Scalar>(m: usize, n: usize, reps: usize) -> (f64, Vec<T>) {
    let mut rng = StdRng::seed_from_u64((m * 13 + n) as u64);
    let a: DenseMatrix<T> = random_matrix(&mut rng, m, n);
    let mut out = Vec::new();
    let t = best_of(reps, || {
        let (q, _r) = thin_qr(&a);
        out = q.into_data();
    });
    (t, out)
}

/// The leaf solves: `getrs` with an LU factor, `potrs` with a Cholesky
/// factor.
#[derive(Clone, Copy)]
enum LeafSolve {
    Getrs,
    Potrs,
}

/// Order of the factor in the `getrs` / `potrs` rows: a HODLR leaf.
const LEAF_ORDER: usize = 64;

/// Right-hand-side columns one timing of [`time_leaf_solve`] covers, so a
/// one-column row times enough calls to be read.
const SOLVE_COLUMNS: usize = 4096;

/// Time one [`LEAF_ORDER`]-order leaf solve against `nrhs` right-hand
/// sides; returns `(time per solve, solution)`.  Each call solves a fresh
/// copy of the same right-hand sides.
fn time_leaf_solve<T: Scalar>(kind: LeafSolve, nrhs: usize, reps: usize) -> (f64, Vec<T>) {
    let order = LEAF_ORDER;
    let mut rng = StdRng::seed_from_u64((order * 17 + nrhs) as u64);
    let mut f: DenseMatrix<T> = random_matrix(&mut rng, order, order);
    let mut piv = Vec::new();
    match kind {
        LeafSolve::Getrs => piv = getrf_in_place(f.as_mut()).expect("bench matrix is nonsingular"),
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
    let t = best_of(reps, || {
        for _ in 0..calls {
            x.data_mut().copy_from_slice(b.data());
            match kind {
                LeafSolve::Getrs => getrs_in_place(f.as_ref(), &piv, x.as_mut()),
                LeafSolve::Potrs => potrs_in_place(f.as_ref(), x.as_mut()),
            }
        }
    });
    (t / calls as f64, x.into_data())
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
/// each (the unit diagonal of `getrs`'s `L` is not discounted).
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
    /// Right-hand-side counts of the `getrs` / `potrs` rows.
    pub solve_nrhs: Vec<usize>,
    /// Thread counts to sweep (the first is the baseline for bitwise
    /// comparisons and must be 1).
    pub threads: Vec<usize>,
    /// Timing repetitions (best-of).
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
            // One column, one lane group, and the leaf widths W of the
            // laplace-surface-2d (138) and gp-se-3d (578) benchmarks.
            solve_nrhs: vec![1, 8, 138, 578],
            threads: vec![1, 2, 8],
            reps: 2,
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
            solve_nrhs: vec![1, 9],
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
                time_s: t,
                gflops: flops / t / 1e9,
                speedup_vs_reference: None,
                bitwise_vs_1thread: None,
                isa,
            });
            Some(t)
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
                time_s: t,
                gflops: flops / t / 1e9,
                speedup_vs_reference: if nt == 1 {
                    reference_t.map(|rt| rt / t)
                } else {
                    None
                },
                bitwise_vs_1thread: bitwise,
                isa,
            });
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
                time_s: t,
                gflops: ff * getrf_flops(s) / t / 1e9,
                speedup_vs_reference: None,
                bitwise_vs_1thread: bitwise,
                isa,
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
                time_s: t,
                gflops: ff * qr_flops(m, n) / t / 1e9,
                speedup_vs_reference: None,
                bitwise_vs_1thread: bitwise,
                isa,
            });
        }
    }

    // The leaf solves of Algorithms 1 and 3: one factor against `nrhs`
    // columns.  One column runs the per-column loop, eight or more the
    // eight-lane path.
    for (kind, name) in [(LeafSolve::Getrs, "getrs"), (LeafSolve::Potrs, "potrs")] {
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
                    time_s: t,
                    gflops: ff * leaf_solve_flops(LEAF_ORDER, nrhs) / t / 1e9,
                    speedup_vs_reference: None,
                    bitwise_vs_1thread: bitwise,
                    isa,
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
        "{:<16} {:>6} {:>6} {:>6} {:>6} {:>8} {:>12} {:>10} {:>9} {:>8}",
        "kernel", "scalar", "m", "n", "k", "threads", "time [s]", "GFLOP/s", "speedup", "bitwise"
    );
    for r in rows {
        println!(
            "{:<16} {:>6} {:>6} {:>6} {:>6} {:>8} {:>12.4e} {:>10.3} {:>9} {:>8}",
            r.kernel,
            r.scalar,
            r.m,
            r.n,
            r.k,
            r.threads,
            r.time_s,
            r.gflops,
            r.speedup_vs_reference
                .map(|s| format!("{s:.2}x"))
                .unwrap_or_else(|| "-".into()),
            r.bitwise_vs_1thread
                .map(|b| if b { "yes" } else { "NO" }.to_string())
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
        config.threads = vec![1, 2];
        let rows = run_kernel_bench(&config);
        assert!(rows.iter().any(|r| r.kernel == "gemm" && r.scalar == "f64"));
        assert!(rows.iter().any(|r| r.kernel == "gemm_reference"));
        assert!(rows
            .iter()
            .any(|r| r.kernel == "getrf" && r.scalar == "c64"));
        assert!(rows.iter().any(|r| r.kernel == "thin_qr"));
        for kernel in ["getrs", "potrs"] {
            for nrhs in [1, 9] {
                assert!(rows.iter().any(|r| r.kernel == kernel && r.n == nrhs));
            }
        }
        // Every multi-thread row must report a bitwise verdict, and it must
        // be "identical".
        for r in &rows {
            assert!(r.time_s > 0.0);
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
