//! The iterative-solve scenario family (the Table V(b) "robust
//! preconditioner" use case, extended to all three workloads): iteration
//! counts and time-per-RHS for preconditioned GMRES, BiCGStab and
//! mixed-precision refinement at several HODLR preconditioner tolerances,
//! against the blocked direct solve as the baseline.

use hodlr_bench::iterative::{
    measure_block_direct, measure_iterative, print_iterative_table, IterativeConfig,
    DEFAULT_PRECOND_TOLS,
};
use hodlr_bench::workloads::resolved_kappa;
use hodlr_bench::{helmholtz_hodlr, laplace_hodlr, rpy_hodlr, write_bench_json};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = hodlr_bench::parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("iterative: {e}");
        std::process::exit(2)
    });
    let n = args.sizes_or(&[1 << 10], &[1 << 13])[0];
    let config = IterativeConfig::default();
    let mut all_rows = Vec::new();

    // Laplace exterior BIE.
    let (_bie, exact) = laplace_hodlr(n, 1e-10);
    let mut rows = vec![measure_block_direct("laplace", &exact, config.nrhs)];
    for &ptol in &DEFAULT_PRECOND_TOLS {
        let (_bie, rough) = laplace_hodlr(n, ptol);
        rows.extend(measure_iterative("laplace", &exact, &rough, ptol, &config));
    }
    print_iterative_table(&format!("Iterative solves, Laplace BIE, N = {n}"), &rows);
    all_rows.extend(rows);

    // Helmholtz combined-field BIE (complex arithmetic).
    let kappa = resolved_kappa(n);
    let (_bie, exact) = helmholtz_hodlr(n, kappa, 1e-10);
    let mut rows = vec![measure_block_direct("helmholtz", &exact, config.nrhs)];
    for &ptol in &DEFAULT_PRECOND_TOLS {
        let (_bie, rough) = helmholtz_hodlr(n, kappa, ptol);
        rows.extend(measure_iterative(
            "helmholtz",
            &exact,
            &rough,
            ptol,
            &config,
        ));
    }
    print_iterative_table(
        &format!("Iterative solves, Helmholtz BIE, N = {n}, kappa = {kappa:.1}"),
        &rows,
    );
    all_rows.extend(rows);

    // RPY kernel matrix.
    let exact = rpy_hodlr(n, 1e-10);
    let rpy_n = exact.n();
    let mut rows = vec![measure_block_direct("rpy", &exact, config.nrhs)];
    for &ptol in &DEFAULT_PRECOND_TOLS {
        let rough = rpy_hodlr(n, ptol);
        rows.extend(measure_iterative("rpy", &exact, &rough, ptol, &config));
    }
    print_iterative_table(&format!("Iterative solves, RPY kernel, N = {rpy_n}"), &rows);
    all_rows.extend(rows);

    // Machine-readable perf trajectory for cross-PR comparison; the
    // output path resolves through the shared helper like every bench bin.
    write_bench_json("iterative", &all_rows);
}
