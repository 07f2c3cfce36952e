//! Timing harness of the paper's solver tables: every solver on one HODLR
//! matrix, one [`SolverRow`] each.

use hodlr_baselines::HodlrlibStyleSolver;
use hodlr_batch::Device;
use hodlr_core::{ComplexityReport, GpuSolver, HodlrMatrix};
use hodlr_la::{RealScalar, Scalar};
use hodlr_sparse::ExtendedSystem;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// What to measure for one problem size.
#[derive(Copy, Clone, Debug)]
pub struct MeasureConfig {
    /// Run the serial flattened HODLR solver (Algorithms 1–2).
    pub serial_hodlr: bool,
    /// Run the HODLRlib-style recursive solver.
    pub hodlrlib: bool,
    /// Run the sequential block-sparse solver.
    pub block_sparse_seq: bool,
    /// Run the parallel block-sparse solver.
    pub block_sparse_par: bool,
    /// Run the GPU-style batched solver on the virtual device.
    pub gpu_hodlr: bool,
}

/// `solver` label of the serial flattened HODLR solver's rows.
pub const SERIAL_HODLR: &str = "Serial HODLR Solver";
/// `solver` label of the HODLRlib-style recursive solver's rows.
pub const HODLRLIB: &str = "HODLRlib-style Solver";
/// `solver` label of the sequential block-sparse solver's rows.
pub const SERIAL_BLOCK_SPARSE: &str = "Serial Block-Sparse Solver";
/// `solver` label of the parallel block-sparse solver's rows.
pub const PARALLEL_BLOCK_SPARSE: &str = "Parallel Block-Sparse Solver";
/// `solver` label of the batched solver's rows.
pub const GPU_HODLR: &str = "GPU HODLR Solver";

/// One row of a paper-style table: a solver's timings, memory and residual
/// at one problem size.
#[derive(Clone, Debug)]
pub struct SolverRow {
    /// Workload label distinguishing row sets that share a problem size —
    /// the problem family plus whatever the binary sweeps besides `n`
    /// (e.g. `"laplace/tol=1e-12"` vs `"laplace/tol=1e-4"` in the Table IV
    /// output, which previously emitted two indistinguishable row sets).
    pub workload: String,
    /// Solver label, e.g. [`GPU_HODLR`].
    pub solver: String,
    /// Problem size `N`.
    pub n: usize,
    /// Factorization time in seconds (`t_f`).  The serial HODLR row's
    /// clock includes the upload of the matrix to its private device; the
    /// GPU row's starts after `GpuSolver::new` has uploaded it, the
    /// paper's convention of reporting the PCIe copy apart.  At equal
    /// metered flops the serial row's `factor_gflops` therefore reads
    /// below the GPU row's.
    pub t_factor: f64,
    /// Solve time for one right-hand side in seconds (`t_s`).
    pub t_solve: f64,
    /// Memory of the factorization in GiB (`mem`): every entry the
    /// solver holds to solve with.
    pub mem_gib: f64,
    /// Relative residual of the computed solution (`relres`).
    pub relres: f64,
    /// Flops per second achieved during factorization: the device's
    /// metered flops for the serial and GPU HODLR solvers (the same sweep),
    /// the analytic model of [`ComplexityReport`] for the HODLRlib-style
    /// solver, `None` for the block-sparse solvers.
    pub factor_gflops: Option<f64>,
    /// Flops per second achieved during the solve, counted as
    /// [`SolverRow::factor_gflops`] is.
    pub solve_gflops: Option<f64>,
    /// Rayon pool size (participating threads) the row was measured with.
    pub threads: usize,
}

/// Measure every requested solver on one HODLR matrix; the right-hand side
/// is random (as in the paper) and the residual is evaluated with the HODLR
/// matrix-vector product.
pub fn measure_solvers<T: Scalar>(
    workload: &str,
    matrix: &HodlrMatrix<T>,
    config: &MeasureConfig,
) -> Vec<SolverRow> {
    let n = matrix.n();
    let threads = rayon::current_num_threads();
    let mut rng = StdRng::seed_from_u64(n as u64 ^ 0x9e3779b9);
    let b: Vec<T> = hodlr_la::random::random_vector(&mut rng, n);
    let mut rows = Vec::new();

    if config.serial_hodlr {
        let start = Instant::now();
        let factor = matrix.factorize_serial().expect("serial factorization");
        let t_factor = start.elapsed().as_secs_f64();
        // The factorization's own device metered only its factorization.
        let factor_flops = factor.device().counters().flops;
        let start = Instant::now();
        let (x, solve) = factor.device().meter(|| factor.solve(&b));
        let t_solve = start.elapsed().as_secs_f64();
        rows.push(SolverRow {
            workload: workload.into(),
            solver: SERIAL_HODLR.into(),
            n,
            t_factor,
            t_solve,
            mem_gib: factor.memory_gib(),
            relres: matrix.relative_residual(&x, &b).to_f64(),
            factor_gflops: Some(factor_flops as f64 / t_factor / 1e9),
            solve_gflops: Some(solve.flops as f64 / t_solve / 1e9),
            threads,
        });
    }

    if config.hodlrlib {
        let report = ComplexityReport::for_matrix(matrix);
        let start = Instant::now();
        let factor = HodlrlibStyleSolver::factorize(matrix).expect("hodlrlib factorization");
        let t_factor = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let x = factor.solve(&b);
        let t_solve = start.elapsed().as_secs_f64();
        rows.push(SolverRow {
            workload: workload.into(),
            solver: HODLRLIB.into(),
            n,
            t_factor,
            t_solve,
            mem_gib: gib::<T>(factor.storage_entries()),
            relres: matrix.relative_residual(&x, &b).to_f64(),
            factor_gflops: Some(report.factorization_flops as f64 / t_factor / 1e9),
            solve_gflops: Some(report.solve_flops as f64 / t_solve / 1e9),
            threads,
        });
    }

    for (label, parallel, enabled) in [
        (SERIAL_BLOCK_SPARSE, false, config.block_sparse_seq),
        (PARALLEL_BLOCK_SPARSE, true, config.block_sparse_par),
    ] {
        if !enabled {
            continue;
        }
        let start = Instant::now();
        let ext = ExtendedSystem::new(matrix);
        let factor = ext.factorize(parallel).expect("block-sparse factorization");
        let t_factor = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let x = factor.solve(&b);
        let t_solve = start.elapsed().as_secs_f64();
        rows.push(SolverRow {
            workload: workload.into(),
            solver: label.into(),
            n,
            t_factor,
            t_solve,
            mem_gib: factor.memory_gib(),
            relres: matrix.relative_residual(&x, &b).to_f64(),
            factor_gflops: None,
            solve_gflops: None,
            threads,
        });
    }

    if config.gpu_hodlr {
        let device = Device::new();
        let mut gpu = GpuSolver::new(&device, matrix);
        let before_factor = device.counters();
        let start = Instant::now();
        gpu.factorize().expect("batched factorization");
        let t_factor = start.elapsed().as_secs_f64();
        let factor_flops = device.counters().since(&before_factor).flops;
        let before_solve = device.counters();
        let start = Instant::now();
        let x = gpu.solve(&b).expect("batched solve");
        let t_solve = start.elapsed().as_secs_f64();
        let solve_flops = device.counters().since(&before_solve).flops;
        rows.push(SolverRow {
            workload: workload.into(),
            solver: GPU_HODLR.into(),
            n,
            t_factor,
            t_solve,
            mem_gib: gib::<T>(gpu.storage_entries()),
            relres: matrix.relative_residual(&x, &b).to_f64(),
            factor_gflops: Some(factor_flops as f64 / t_factor / 1e9),
            solve_gflops: Some(solve_flops as f64 / t_solve / 1e9),
            threads,
        });
    }

    rows
}

/// `entries` scalars of type `T` in GiB.
fn gib<T: Scalar>(entries: usize) -> f64 {
    (entries * std::mem::size_of::<T>()) as f64 / (1u64 << 30) as f64
}

/// Print rows in the paper's table layout.
pub fn print_table(title: &str, rows: &[SolverRow]) {
    println!("== {title}");
    println!(
        "{:<22} {:<10} {:<28} {:>8} {:>12} {:>12} {:>10} {:>12}",
        "workload", "N", "solver", "threads", "t_f [s]", "t_s [s]", "mem [GiB]", "relres"
    );
    for row in rows {
        println!(
            "{:<22} {:<10} {:<28} {:>8} {:>12.4e} {:>12.4e} {:>10.4} {:>12.3e}",
            row.workload,
            row.n,
            row.solver,
            row.threads,
            row.t_factor,
            row.t_solve,
            row.mem_gib,
            row.relres
        );
    }
    println!();
}

/// Least-squares slope of `log(time)` against `log(N)`, printed next to
/// the paper's `O(N log^2 N)` / `O(N)` guide lines (Figs. 5 and 7).
pub fn fitted_exponent(points: &[(usize, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(_, t)| t > 0.0)
        .map(|&(n, t)| ((n as f64).ln(), t.ln()))
        .collect();
    if pts.len() < 2 {
        return f64::NAN;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

/// Percentile over a copy of `values` (nearest-rank); 0 when empty.
pub(crate) fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::LEAF_SIZE;
    use hodlr::Hodlr;
    use hodlr_compress::CompressionMethod;
    use hodlr_kernels::{GaussianKernel, ScalarKernelSource};
    use hodlr_tree::{partition_points, uniform_cube_points};

    /// A scalar Gaussian kernel matrix: `n` points in `[-1, 1]^3`, unit
    /// length-scale, diagonal shift 1.
    fn kernel_hodlr(n: usize, tol: f64) -> HodlrMatrix<f64> {
        let mut rng = StdRng::seed_from_u64(0xabcd + n as u64);
        let cloud = uniform_cube_points(&mut rng, n, 3);
        let part = partition_points(&cloud, LEAF_SIZE).expect("non-empty cloud");
        let source =
            ScalarKernelSource::with_shift(GaussianKernel { length_scale: 1.0 }, &part.points, 1.0);
        Hodlr::builder()
            .source(&source)
            .tree(part.tree.clone())
            .tolerance(tol)
            .method(CompressionMethod::AcaRook)
            .build()
            .expect("Gaussian kernel workload construction")
            .into_matrix()
            .expect("a full-precision build")
    }

    #[test]
    fn measure_all_solvers_on_a_small_problem() {
        let matrix = kernel_hodlr(512, 1e-8);
        let config = MeasureConfig {
            serial_hodlr: true,
            hodlrlib: true,
            block_sparse_seq: true,
            block_sparse_par: true,
            gpu_hodlr: true,
        };
        let rows = measure_solvers("gaussian-kernel", &matrix, &config);
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(row.relres < 1e-6, "{}: relres {}", row.solver, row.relres);
            assert!(row.t_factor > 0.0 && row.t_solve >= 0.0);
            assert!(row.mem_gib > 0.0);
            assert_eq!(row.workload, "gaussian-kernel");
        }
        // Both backends hold the same LU factors and bases, coupling
        // factors included.
        let mem = |solver: &str| rows.iter().find(|r| r.solver == solver).unwrap().mem_gib;
        assert_eq!(mem(SERIAL_HODLR), mem(GPU_HODLR));
        print_table("smoke", &rows);
    }

    /// Both backends run one sweep, so the serial and the GPU row of one
    /// matrix carry the same metered flops (rate times time).
    #[test]
    fn serial_and_gpu_rows_carry_the_same_metered_flops() {
        let config = MeasureConfig {
            serial_hodlr: true,
            hodlrlib: false,
            block_sparse_seq: false,
            block_sparse_par: false,
            gpu_hodlr: true,
        };
        let rows = measure_solvers("gaussian-kernel", &kernel_hodlr(512, 1e-8), &config);
        let flops = |solver: &str| {
            let r = rows.iter().find(|r| r.solver == solver).unwrap();
            [
                r.factor_gflops.unwrap() * r.t_factor * 1e9,
                r.solve_gflops.unwrap() * r.t_solve * 1e9,
            ]
        };
        let (serial, gpu) = (flops(SERIAL_HODLR), flops(GPU_HODLR));
        for (s, g) in serial.into_iter().zip(gpu) {
            assert!(
                s > 0.0 && (s - g).abs() <= 1e-9 * g,
                "serial {s} vs GPU {g}"
            );
        }
    }

    #[test]
    fn fitted_exponent_recovers_a_power_law() {
        let pts: Vec<(usize, f64)> = (10..15).map(|k| (1 << k, (1 << k) as f64 * 3.0)).collect();
        let slope = fitted_exponent(&pts);
        assert!((slope - 1.0).abs() < 1e-12);
        let quad: Vec<(usize, f64)> = (10..15)
            .map(|k| (1 << k, ((1 << k) as f64).powi(2)))
            .collect();
        assert!((fitted_exponent(&quad) - 2.0).abs() < 1e-12);
    }
}
