//! Integration tests for the `hodlr-solver` subsystem: Krylov methods
//! cross-checked against the recursive oracle, blocked multi-RHS solves
//! against per-RHS loops (values and launch counts), mixed precision
//! against full double precision, and the paper's Table V(b) scenario
//! (loose HODLR preconditioner on the ill-conditioned Helmholtz system).
//! Every preconditioner is the `hodlr` façade's `Factorization`.

use hodlr::{Backend, Factorize, Hodlr, Precision, SolveScalar};
use hodlr_batch::Device;
use hodlr_bench::workloads::resolved_kappa;
use hodlr_bench::{helmholtz_hodlr, laplace_hodlr};
use hodlr_core::{solve_recursive, GpuSolver, HodlrMatrix};
use hodlr_la::{Complex64, DenseMatrix, RealScalar};
use hodlr_solver::{iterative_refinement, BiCgStab, Gmres, RefinementOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Adopt `matrix` into a façade handle on `backend`.
fn handle<T: SolveScalar>(matrix: HodlrMatrix<T>, backend: Backend) -> Hodlr<T> {
    Hodlr::builder()
        .matrix(matrix)
        .backend(backend)
        .build()
        .unwrap()
}

/// An exact factorization as `M^{-1}` makes `A M^{-1} = I`: GMRES,
/// BiCGStab and refinement each converge in one step, on both backends.
#[test]
fn exact_preconditioner_converges_at_once() {
    let mut rng = StdRng::seed_from_u64(12);
    let matrix = hodlr_core::matrix::random_hodlr::<f64, _>(&mut rng, 96, 2, 3);
    let b: Vec<f64> = hodlr_la::random::random_vector(&mut rng, 96);
    let once = RefinementOptions {
        tol: 1e-10,
        max_iters: 1,
    };
    for backend in [Backend::Serial, Backend::Batched] {
        let hodlr = handle(matrix.clone(), backend);
        let m = hodlr.factorize().unwrap();
        let outs = [
            (
                "gmres",
                Gmres::new()
                    .tol(1e-10)
                    .solve_preconditioned(&matrix, &m, &b),
            ),
            (
                "bicgstab",
                BiCgStab::new()
                    .tol(1e-10)
                    .solve_preconditioned(&matrix, &m, &b),
            ),
            ("refinement", iterative_refinement(&matrix, &m, &b, once)),
        ];
        for (method, out) in outs {
            let out = out.unwrap();
            assert!(
                out.converged && out.iterations == 1,
                "{backend:?} / {method}: {} iterations, relres {:.3e}",
                out.iterations,
                out.relative_residual
            );
        }
    }
}

/// Preconditioned GMRES on the Laplace BIE agrees with the recursive
/// oracle of Theorem 1.
#[test]
fn gmres_matches_the_recursive_oracle_on_laplace() {
    let n = 1024;
    let (_bie, exact) = laplace_hodlr(n, 1e-11);
    let (_bie, rough) = laplace_hodlr(n, 1e-4);
    let b: Vec<f64> = (0..n).map(|i| (0.07 * i as f64).sin()).collect();

    let rough = handle(rough, Backend::Serial);
    let precond = rough.factorize().unwrap();
    let out = Gmres::new()
        .tol(1e-10)
        .solve_preconditioned(&exact, &precond, &b)
        .unwrap()
        .expect_converged("laplace gmres");

    let b_mat = DenseMatrix::from_col_major(n, 1, b.clone());
    let oracle = solve_recursive(&exact, &b_mat).unwrap();
    let scale = oracle.data().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for (xi, oi) in out.x.iter().zip(oracle.data()) {
        assert!(
            (xi - oi).abs() < 1e-7 * scale.max(1.0),
            "{xi} vs oracle {oi}"
        );
    }
}

/// BiCGStab converges on the same Laplace system and agrees with the
/// oracle.
#[test]
fn bicgstab_converges_on_laplace() {
    let n = 1024;
    let (_bie, exact) = laplace_hodlr(n, 1e-11);
    let (_bie, rough) = laplace_hodlr(n, 1e-4);
    let b: Vec<f64> = (0..n).map(|i| (0.03 * i as f64).cos()).collect();

    let rough = handle(rough, Backend::Serial);
    let precond = rough.factorize().unwrap();
    let out = BiCgStab::new()
        .tol(1e-10)
        .solve_preconditioned(&exact, &precond, &b)
        .unwrap()
        .expect_converged("laplace bicgstab");
    assert!(out.relative_residual < 1e-10);

    let b_mat = DenseMatrix::from_col_major(n, 1, b.clone());
    let oracle = solve_recursive(&exact, &b_mat).unwrap();
    for (xi, oi) in out.x.iter().zip(oracle.data()) {
        assert!((xi - oi).abs() < 1e-6, "{xi} vs oracle {oi}");
    }
}

/// The blocked multi-RHS solve returns, column for column, exactly what a
/// loop of single-RHS solves returns — on both factorization backends.
#[test]
fn solve_block_matches_per_rhs_solves_column_for_column() {
    let mut rng = StdRng::seed_from_u64(0xb10c);
    let matrix = hodlr_core::matrix::random_hodlr::<f64, _>(&mut rng, 256, 3, 3);
    let rhs: Vec<Vec<f64>> = (0..5)
        .map(|_| hodlr_la::random::random_vector(&mut rng, 256))
        .collect();

    // Serial backend.
    let serial = matrix.factorize_serial().unwrap();
    let block = serial.solve_block(&rhs);
    for (j, b) in rhs.iter().enumerate() {
        let single = serial.solve(b);
        assert_eq!(block[j], single, "serial column {j} differs");
    }

    // Batched backend on the virtual device.
    let device = Device::new();
    let mut gpu = GpuSolver::new(&device, &matrix);
    gpu.factorize().unwrap();
    let block = gpu.solve_block(&rhs).unwrap();
    for (j, b) in rhs.iter().enumerate() {
        let single = gpu.solve(b).unwrap();
        assert_eq!(block[j], single, "gpu column {j} differs");
    }
}

/// The blocked solve sweeps all right-hand sides through each level in one
/// batched launch: strictly fewer kernel launches than the equivalent
/// per-RHS loop, for the same answers (acceptance criterion).
#[test]
fn solve_block_issues_fewer_launches_than_a_per_rhs_loop() {
    let mut rng = StdRng::seed_from_u64(0xc0de);
    let matrix = hodlr_core::matrix::random_hodlr::<f64, _>(&mut rng, 512, 3, 2);
    let nrhs = 8;
    let rhs: Vec<Vec<f64>> = (0..nrhs)
        .map(|_| hodlr_la::random::random_vector(&mut rng, 512))
        .collect();

    let device = Device::new();
    let mut gpu = GpuSolver::new(&device, &matrix);
    gpu.factorize().unwrap();

    let before = device.counters();
    let block = gpu.solve_block(&rhs).unwrap();
    let blocked = device.counters().since(&before);

    let before = device.counters();
    let looped: Vec<Vec<f64>> = rhs.iter().map(|b| gpu.solve(b).unwrap()).collect();
    let per_rhs = device.counters().since(&before);

    assert_eq!(block, looped, "blocked and looped solves disagree");
    assert!(
        blocked.kernel_launches * (nrhs as u64) <= per_rhs.kernel_launches,
        "blocked path: {} launches, per-RHS loop: {} launches",
        blocked.kernel_launches,
        per_rhs.kernel_launches
    );
    // The per-RHS loop replays the launch sequence once per RHS.
    assert_eq!(
        per_rhs.kernel_launches,
        blocked.kernel_launches * nrhs as u64
    );
}

/// Mixed precision: factorize the HODLR approximation in f32, refine the
/// solve to full double-precision accuracy (acceptance criterion: 1e-12
/// relative residual).  With one inner sweep, each application of the
/// `MixedRefine` factorization is one f32 solve, so the outer loop counts
/// the sweeps.
#[test]
fn mixed_precision_refinement_reaches_double_precision() {
    let n = 1024;
    let (_bie, matrix) = laplace_hodlr(n, 1e-11);
    let b: Vec<f64> = (0..n).map(|i| (0.05 * i as f64).sin()).collect();
    let mixed = Hodlr::builder()
        .matrix(matrix.clone())
        .precision(Precision::MixedRefine)
        .refine_max_iters(1)
        .build()
        .unwrap();
    let m = mixed.factorize().unwrap();
    let out = iterative_refinement(
        &matrix,
        &m,
        &b,
        RefinementOptions {
            tol: 1e-12,
            max_iters: 30,
        },
    )
    .unwrap();
    assert!(
        out.converged,
        "stalled at {:.3e} after {} sweeps",
        out.relative_residual, out.iterations
    );
    assert!(out.relative_residual <= 1e-12);
    assert!(
        out.iterations <= 8,
        "f32 factorization should gain ~7 digits per sweep, took {}",
        out.iterations
    );
}

/// The Table V(b) acceptance scenario: N = 2048 Helmholtz combined-field
/// system, 1e-3 HODLR preconditioner, GMRES to 1e-8 relative residual in
/// at most 25 iterations.
#[test]
fn helmholtz_2048_converges_within_25_iterations() {
    let n = 2048;
    let kappa = resolved_kappa(n);
    let (_bie, exact) = helmholtz_hodlr(n, kappa, 1e-10);
    let (_bie, rough) = helmholtz_hodlr(n, kappa, 1e-3);

    let rough = handle(rough, Backend::Batched);
    let precond = rough.factorize().unwrap();
    let b: Vec<Complex64> = (0..n)
        .map(|i| Complex64::cis(kappa * (i as f64 / n as f64)))
        .collect();

    let out = Gmres::new()
        .tol(1e-8)
        .max_iters(100)
        .solve_preconditioned(&exact, &precond, &b)
        .unwrap()
        .expect_converged("helmholtz 2048 gmres");
    assert!(
        out.iterations <= 25,
        "needed {} iterations (residual history {:?})",
        out.iterations,
        out.residual_history
    );
    assert!(exact.relative_residual(&out.x, &b).to_f64() < 1e-7);
}

/// Complex-arithmetic BiCGStab and plain preconditioned refinement also
/// solve the Helmholtz system, at a smaller size.
#[test]
fn helmholtz_bicgstab_and_refinement_converge() {
    let n = 768;
    let kappa = resolved_kappa(n);
    let (_bie, exact) = helmholtz_hodlr(n, kappa, 1e-10);
    let (_bie, rough) = helmholtz_hodlr(n, kappa, 1e-4);
    let rough = handle(rough, Backend::Serial);
    let precond = rough.factorize().unwrap();
    let b: Vec<Complex64> = (0..n)
        .map(|i| Complex64::new((0.04 * i as f64).cos(), (0.09 * i as f64).sin()))
        .collect();

    let out = BiCgStab::new()
        .tol(1e-9)
        .solve_preconditioned(&exact, &precond, &b)
        .unwrap()
        .expect_converged("helmholtz bicgstab");
    assert!(out.relative_residual < 1e-9);

    let refined = iterative_refinement(
        &exact,
        &precond,
        &b,
        RefinementOptions {
            tol: 1e-9,
            max_iters: 50,
        },
    )
    .unwrap();
    assert!(
        refined.converged,
        "refinement relres {}",
        refined.relative_residual
    );
}
