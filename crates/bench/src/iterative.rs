//! The iterative-solve scenario family: preconditioned Krylov methods over
//! the paper's three workloads (Laplace BIE, Helmholtz BIE, RPY kernel
//! matrices), sweeping the preconditioner tolerance.
//!
//! This regenerates the *robust preconditioner* use case of Table V(b): a
//! loose HODLR factorization on the batched device whose one-time cost is
//! amortized across many right-hand sides, with iteration-count and
//! time-per-RHS columns per (workload, tolerance, method).  Every
//! preconditioner is the façade's [`Factorization`](hodlr::Factorization)
//! of the loose matrix, adopted into a [`Backend::Batched`] handle.  The
//! Krylov rows solve each right-hand side independently (one Krylov space
//! per RHS); the `direct-block` baseline is the path that batches all
//! right-hand sides through one [`GpuSolver::solve_block`] sweep.

use hodlr::{Backend, Factorize, Hodlr, Precision, SolveScalar};
use hodlr_batch::Device;
use hodlr_core::{GpuSolver, HodlrMatrix};
use hodlr_la::{RealScalar, Scalar};
use hodlr_solver::{iterative_refinement, BiCgStab, Gmres, RefinementOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One row of the iterative-solve table.
#[derive(Clone, Debug)]
pub struct IterativeRow {
    /// Workload label (`laplace`, `helmholtz`, `rpy`).
    pub workload: String,
    /// Problem size `N`.
    pub n: usize,
    /// Compression tolerance of the HODLR preconditioner.
    pub precond_tol: f64,
    /// Method label (`gmres`, `bicgstab`, `mixed-refine`).
    pub method: String,
    /// Krylov/refinement iterations for the first right-hand side.
    pub iterations: usize,
    /// Final relative residual for the first right-hand side.
    pub relres: f64,
    /// Wall-clock seconds spent factorizing the preconditioner.
    pub t_factor: f64,
    /// Wall-clock seconds per right-hand side across the batch.
    pub t_per_rhs: f64,
    /// Whether the requested tolerance was reached.
    pub converged: bool,
    /// Rayon pool size (participating threads) the row was measured with.
    pub threads: usize,
    /// Batched-kernel launches metered on the [`Device`] during the solve
    /// phase.  Every method row is device-metered: the Krylov rows through
    /// their batched preconditioner, the mixed-refine row through its
    /// lower-precision batched factorization, the direct row through
    /// [`GpuSolver::solve_block`].
    pub launches: u64,
    /// Flops metered on the [`Device`] during the solve phase (non-zero
    /// for every method row).
    pub flops: u64,
}

/// The default preconditioner-tolerance sweep of the `iterative` binary.
pub const DEFAULT_PRECOND_TOLS: [f64; 3] = [1e-2, 1e-4, 1e-6];

/// Configuration of one scenario run (one workload at one preconditioner
/// tolerance; the tolerance sweep itself is the caller's loop).
#[derive(Clone, Debug)]
pub struct IterativeConfig {
    /// Right-hand sides per timing batch.
    pub nrhs: usize,
    /// Relative-residual target of the Krylov methods.
    pub tol: f64,
    /// Iteration cap.
    pub max_iters: usize,
    /// Also run the mixed-precision factorize-low/refine-high row.
    pub mixed_precision: bool,
}

impl Default for IterativeConfig {
    fn default() -> Self {
        IterativeConfig {
            nrhs: 4,
            tol: 1e-8,
            max_iters: 200,
            mixed_precision: true,
        }
    }
}

/// The timing batch of right-hand sides for a size-`n` workload.  Shared
/// by [`measure_iterative`] and [`measure_block_direct`] so every row of a
/// table solves exactly the same systems.
fn bench_rhs<T: Scalar>(n: usize, nrhs: usize) -> Vec<Vec<T>> {
    let mut rng = StdRng::seed_from_u64(n as u64 ^ 0x17e2a71);
    (0..nrhs)
        .map(|_| hodlr_la::random::random_vector(&mut rng, n))
        .collect()
}

/// Measure GMRES, BiCGStab and (optionally) mixed-precision refinement on
/// one workload: `exact` is the tightly compressed operator, `rough` the
/// loose preconditioner approximation built at `precond_tol`.
pub fn measure_iterative<T: SolveScalar>(
    workload: &str,
    exact: &HodlrMatrix<T>,
    rough: &HodlrMatrix<T>,
    precond_tol: f64,
    config: &IterativeConfig,
) -> Vec<IterativeRow> {
    let n = exact.n();
    let threads = rayon::current_num_threads();
    let rhs = bench_rhs::<T>(n, config.nrhs);
    let mut rows = Vec::new();
    let adopt = || {
        Hodlr::builder()
            .matrix(rough.clone())
            .backend(Backend::Batched)
    };

    let hodlr = adopt().build().expect("adopted preconditioner matrix");
    let device = hodlr.device();
    let start = Instant::now();
    let precond = hodlr.factorize().expect("preconditioner factorization");
    let t_factor = start.elapsed().as_secs_f64();

    let gmres = Gmres::new().tol(config.tol).max_iters(config.max_iters);
    let before = device.counters();
    let start = Instant::now();
    let outs: Vec<_> = rhs
        .iter()
        .map(|b| {
            gmres
                .solve_preconditioned(exact, &precond, b)
                .expect("gmres dimensions agree by construction")
        })
        .collect();
    let t_gmres = start.elapsed().as_secs_f64() / config.nrhs as f64;
    let metered = device.counters().since(&before);
    rows.push(IterativeRow {
        workload: workload.into(),
        n,
        precond_tol,
        method: "gmres".into(),
        iterations: outs[0].iterations,
        relres: outs[0].relative_residual,
        t_factor,
        t_per_rhs: t_gmres,
        converged: outs.iter().all(|o| o.converged),
        threads,
        launches: metered.kernel_launches,
        flops: metered.flops,
    });

    let bicgstab = BiCgStab::new().tol(config.tol).max_iters(config.max_iters);
    let before = device.counters();
    let start = Instant::now();
    let outs: Vec<_> = rhs
        .iter()
        .map(|b| {
            bicgstab
                .solve_preconditioned(exact, &precond, b)
                .expect("bicgstab dimensions agree by construction")
        })
        .collect();
    let t_bicg = start.elapsed().as_secs_f64() / config.nrhs as f64;
    let metered = device.counters().since(&before);
    rows.push(IterativeRow {
        workload: workload.into(),
        n,
        precond_tol,
        method: "bicgstab".into(),
        iterations: outs[0].iterations,
        relres: outs[0].relative_residual,
        t_factor,
        t_per_rhs: t_bicg,
        converged: outs.iter().all(|o| o.converged),
        threads,
        launches: metered.kernel_launches,
        flops: metered.flops,
    });

    if config.mixed_precision {
        // The lower-precision factorization runs on a batched device like
        // the Krylov preconditioners (the regime of the paper's
        // single-precision GPU runs), so every refinement sweep's
        // lower-precision solve is a metered launch sequence and the
        // mixed-refine row carries the same real launch/flop accounting
        // as the other method rows.  With one inner sweep, each
        // application of the handle's factorization is exactly one
        // demote -> lower-precision solve -> promote.
        let hodlr = adopt()
            .precision(Precision::MixedRefine)
            .refine_max_iters(1)
            .build()
            .expect("adopted preconditioner matrix");
        let device = hodlr.device();
        let start = Instant::now();
        let mixed = hodlr.factorize().expect("mixed-precision factorization");
        let t_factor_mixed = start.elapsed().as_secs_f64();
        let opts = RefinementOptions {
            tol: config.tol,
            max_iters: config.max_iters,
        };
        let before = device.counters();
        let start = Instant::now();
        let outs: Vec<_> = rhs
            .iter()
            .map(|b| {
                iterative_refinement(exact, &mixed, b, opts)
                    .expect("refinement dimensions agree by construction")
            })
            .collect();
        let t_mixed = start.elapsed().as_secs_f64() / config.nrhs as f64;
        let metered = device.counters().since(&before);
        rows.push(IterativeRow {
            workload: workload.into(),
            n,
            precond_tol,
            method: "mixed-refine".into(),
            iterations: outs[0].iterations,
            relres: outs[0].relative_residual,
            t_factor: t_factor_mixed,
            t_per_rhs: t_mixed,
            converged: outs.iter().all(|o| o.converged),
            threads,
            launches: metered.kernel_launches,
            flops: metered.flops,
        });
    }

    rows
}

/// Time-per-RHS of the blocked direct path ([`GpuSolver::solve_block`])
/// through a tight factorization, the row the Krylov rows are compared
/// against.
pub fn measure_block_direct<T: Scalar>(
    workload: &str,
    exact: &HodlrMatrix<T>,
    nrhs: usize,
) -> IterativeRow {
    let n = exact.n();
    let threads = rayon::current_num_threads();
    let rhs = bench_rhs::<T>(n, nrhs);
    let device = Device::new();
    let start = Instant::now();
    let mut solver = GpuSolver::new(&device, exact);
    solver.factorize().expect("direct factorization");
    let t_factor = start.elapsed().as_secs_f64();
    let before = device.counters();
    let start = Instant::now();
    let xs = solver.solve_block(&rhs).expect("direct block solve");
    let t_per_rhs = start.elapsed().as_secs_f64() / nrhs as f64;
    let metered = device.counters().since(&before);
    let relres = exact.relative_residual(&xs[0], &rhs[0]).to_f64();
    IterativeRow {
        workload: workload.into(),
        n,
        precond_tol: 0.0,
        method: "direct-block".into(),
        iterations: 1,
        relres,
        t_factor,
        t_per_rhs,
        converged: true,
        threads,
        launches: metered.kernel_launches,
        flops: metered.flops,
    }
}

/// Print rows in the same aligned layout as the paper-table harnesses.
pub fn print_iterative_table(title: &str, rows: &[IterativeRow]) {
    println!("== {title}");
    println!(
        "{:<12} {:<8} {:<8} {:<12} {:<14} {:>6} {:>12} {:>12} {:>12} {:>10} {:>6}",
        "workload",
        "N",
        "threads",
        "precond_tol",
        "method",
        "iters",
        "relres",
        "t_f [s]",
        "t/rhs [s]",
        "launches",
        "conv"
    );
    for row in rows {
        println!(
            "{:<12} {:<8} {:<8} {:<12.1e} {:<14} {:>6} {:>12.3e} {:>12.4e} {:>12.4e} {:>10} {:>6}",
            row.workload,
            row.n,
            row.threads,
            row.precond_tol,
            row.method,
            row.iterations,
            row.relres,
            row.t_factor,
            row.t_per_rhs,
            row.launches,
            if row.converged { "yes" } else { "no" }
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::laplace_hodlr;

    #[test]
    fn laplace_scenario_produces_converged_rows() {
        let (_bie, exact) = laplace_hodlr(512, 1e-10);
        let (_bie, rough) = laplace_hodlr(512, 1e-3);
        let config = IterativeConfig {
            nrhs: 2,
            tol: 1e-8,
            max_iters: 100,
            mixed_precision: true,
        };
        let rows = measure_iterative("laplace", &exact, &rough, 1e-3, &config);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.converged, "{}: relres {}", row.method, row.relres);
            assert!(row.iterations >= 1);
        }
        let direct = measure_block_direct("laplace", &exact, 2);
        assert!(direct.relres < 1e-6);
        print_iterative_table("smoke", &rows);
    }

    /// Regression lock: mixed-refine rows used to report `launches: 0,
    /// flops: 0` because the lower-precision refinement ran unmetered on
    /// the host.  Every method row must carry real device metering.
    #[test]
    fn every_method_row_is_device_metered() {
        let (_bie, exact) = laplace_hodlr(512, 1e-10);
        let (_bie, rough) = laplace_hodlr(512, 1e-2);
        let config = IterativeConfig {
            nrhs: 2,
            tol: 1e-8,
            max_iters: 100,
            mixed_precision: true,
        };
        let mut rows = measure_iterative("laplace", &exact, &rough, 1e-2, &config);
        rows.push(measure_block_direct("laplace", &exact, 2));
        for row in &rows {
            assert!(row.launches > 0, "{}: zero launches", row.method);
            assert!(row.flops > 0, "{}: zero flops", row.method);
        }
        assert!(rows.iter().any(|r| r.method == "mixed-refine"));
    }
}
