//! Laplace exterior Dirichlet problem (Section IV-B): discretize the
//! boundary integral equation (21) on the star contour, solve it with the
//! HODLR direct solver through the façade, and verify the reconstructed
//! exterior field against a manufactured exact solution.

use hodlr::prelude::*;
use hodlr_bench::laplace_hodlr;
use hodlr_bie::laplace::potential_from_sources;

fn main() {
    let n: usize = hodlr_examples::arg("--n", 4096);
    let tol: f64 = hodlr_examples::arg("--tol", 1e-10);
    println!("Laplace exterior BIE on the star contour: N = {n}, compression tol = {tol:.1e}");

    let (bie, matrix) = laplace_hodlr(n, tol);
    println!("max off-diagonal rank: {}", matrix.max_rank());

    // Manufactured boundary data from interior log sources.
    let sources = vec![([0.2, 0.1], 1.0), ([-0.4, 0.0], -0.3), ([0.1, -0.25], 0.6)];
    let f = bie.dirichlet_data_from_sources(&sources);

    let hodlr = Hodlr::builder()
        .matrix(matrix)
        .backend(Backend::Batched)
        .build()
        .expect("adopting the BIE matrix");
    let sigma = hodlr
        .factorize()
        .expect("factorization")
        .solve(&f)
        .expect("solve");
    println!(
        "linear-system residual: {:.2e}",
        hodlr.relative_residual(&sigma, &f)
    );

    // Evaluate the exterior field and compare with the exact potential.
    for x in [[3.0, 1.0], [0.0, 5.0], [-4.0, -2.0]] {
        let u = bie.evaluate_exterior(x, &sigma);
        let exact = potential_from_sources(x, &sources);
        println!(
            "u({x:?}) = {u:+.8e}   exact {exact:+.8e}   error {:.2e}",
            (u - exact).abs()
        );
    }
}
