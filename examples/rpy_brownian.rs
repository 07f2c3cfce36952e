//! Brownian-dynamics style example (Section IV-A): solve mobility systems
//! with the Rotne-Prager-Yamakawa kernel over a cloud of particles, the
//! workload of Table III, and compare the façade's batched backend against
//! the HODLRlib-style baseline.

use hodlr::prelude::*;
use hodlr_baselines::HodlrlibStyleSolver;
use hodlr_bench::rpy_hodlr;
use std::time::Instant;

fn main() {
    let particles: usize = hodlr_examples::arg("--particles", 2048);
    let tol: f64 = hodlr_examples::arg("--tol", 1e-10);
    let n = 3 * particles;
    println!("RPY mobility problem: {particles} particles, matrix size N = {n}, tol = {tol:.1e}");

    let hodlr = Hodlr::builder()
        .matrix(rpy_hodlr(n, tol))
        .backend(Backend::Batched)
        .build()
        .expect("adopting the RPY matrix");
    println!(
        "rank profile (level 1 -> leaves): {:?}",
        hodlr
            .matrix()
            .expect("built in working precision")
            .rank_profile()
    );

    // Force vector: unit force in x on every particle.
    let mut b = vec![0.0; hodlr.n()];
    for i in (0..hodlr.n()).step_by(3) {
        b[i] = 1.0;
    }

    let start = Instant::now();
    let factorization = hodlr.factorize().expect("factorization");
    let t_factor = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let x = factorization.solve(&b).expect("solve");
    let t_solve = start.elapsed().as_secs_f64();
    println!(
        "batched solver: factorization {t_factor:.3} s, solve {t_solve:.4} s, relres {:.2e}",
        hodlr.relative_residual(&x, &b)
    );

    let start = Instant::now();
    let lib = HodlrlibStyleSolver::factorize(hodlr.matrix().expect("built in working precision"))
        .expect("factorization");
    let t_factor_lib = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let x_lib = lib.solve(&b);
    let t_solve_lib = start.elapsed().as_secs_f64();
    println!(
        "HODLRlib-style: factorization {t_factor_lib:.3} s, solve {t_solve_lib:.4} s, relres {:.2e}",
        hodlr.relative_residual(&x_lib, &b)
    );
}
