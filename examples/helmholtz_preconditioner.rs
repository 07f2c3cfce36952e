//! Helmholtz scattering example (Section IV-C): build a low-accuracy HODLR
//! factorization of the combined-field operator and use it as a right
//! preconditioner for restarted GMRES — the "robust preconditioner" use
//! case of Table V(b), through the façade's [`IterativeSolver`] adapter.

use hodlr::prelude::*;
use hodlr_bench::helmholtz_hodlr;
use hodlr_bench::workloads::resolved_kappa;

fn main() {
    let n: usize = hodlr_examples::arg("--n", 2048);
    let kappa: f64 = hodlr_examples::arg("--kappa", resolved_kappa(n));
    let tol: f64 = hodlr_examples::arg("--tol", 1e-8);
    println!("Helmholtz combined-field BIE: N = {n}, kappa = eta = {kappa:.1}");

    // The "exact" operator is compressed tightly; the preconditioner loosely.
    let (_bie, exact) = helmholtz_hodlr(n, kappa, 1e-10);
    let (_bie2, rough_matrix) = helmholtz_hodlr(n, kappa, 1e-3);
    println!(
        "operator ranks: accurate {:?} / preconditioner {:?}",
        exact.max_rank(),
        rough_matrix.max_rank()
    );

    // The loose approximation becomes the preconditioner: adopt it into the
    // façade with the batched backend and bundle it with the accurate
    // operator behind one `Solve` implementation.
    let rough = Hodlr::builder()
        .matrix(rough_matrix)
        .backend(Backend::Batched)
        .build()
        .expect("adopting the preconditioner matrix");
    let solver = rough
        .iterative(KrylovMethod::Gmres { restart: 50 })
        .expect("preconditioner factorization")
        .with_operator(&exact)
        .expect("operator dimensions")
        .tol(tol)
        .max_iters(100);

    // Right-hand side: a plane wave sampled on the contour.
    let b: Vec<Complex64> = (0..n)
        .map(|i| Complex64::cis(kappa * (i as f64 / n as f64)))
        .collect();

    // `run` exposes the full iteration report; `solve` would return the
    // typed NonConvergence error instead of a flag.
    let out = solver.run(&b).expect("gmres dimensions");
    for (iter, res) in out.residual_history.iter().enumerate() {
        println!("iteration {iter}: relative residual {res:.3e}");
    }
    println!(
        "GMRES {} in {} iterations; final relative residual {:.3e}",
        if out.converged {
            "converged"
        } else {
            "did NOT converge"
        },
        out.iterations,
        out.relative_residual
    );
    // A loose (1e-3) preconditioner must still drive GMRES to the requested
    // tolerance in a couple dozen iterations.
    assert!(
        out.converged,
        "GMRES failed to reach {tol:.1e} (relative residual {:.3e})",
        out.relative_residual
    );
    let checked = exact.relative_residual(&out.x, &b);
    println!("recomputed relative residual: {checked:.3e}");
    assert!(
        checked < tol * 10.0,
        "recomputed residual {checked:.3e} inconsistent with the reported one"
    );

    // Metered preconditioner traffic on the handle's virtual device.
    let counters = rough.device().counters();
    println!(
        "device counters: {} kernel launches, {:.2} Gflop, {:.1} MiB peak device memory",
        counters.kernel_launches,
        counters.flops as f64 / 1e9,
        counters.peak_allocated_bytes as f64 / (1 << 20) as f64
    );
}
