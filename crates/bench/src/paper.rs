//! The paper's evaluation (Section IV) in one sweep: Tables III–V, the
//! fitted scaling exponents of Figs. 5 and 7, the speedups of Fig. 8, the
//! GFLOP/s of Fig. 9 and the appendix rank profiles.
//!
//! The sweep builds each (workload, tolerance, `N`) matrix once and runs
//! every solver its table compares on it; the figures and the rank
//! profiles are read off the same matrices and rows:
//!
//! | `workload` | Solvers | Paper artefacts |
//! |---|---|---|
//! | `rpy/tol=1e-12` | serial, HODLRlib-style, GPU | Table III, Fig. 5 |
//! | `laplace/tol=1e-12`, `laplace/tol=1e-4` | serial, serial and parallel block-sparse, GPU | Table IV (a)/(b), Fig. 7 |
//! | `helmholtz/tol=1e-10`, `helmholtz/tol=1e-4` | the same four | Table V (a)/(b), Fig. 8; Fig. 9 from (a) |
//!
//! The HODLRlib-style and block-sparse baselines run only up to
//! [`SweepArgs::baseline_cap`].  The Helmholtz wavenumber is
//! [`resolved_kappa`]`(N)` at the default sizes and the paper's 100 under
//! `--full`.

use crate::harness::{
    fitted_exponent, measure_solvers, print_table, MeasureConfig, SolverRow, GPU_HODLR, HODLRLIB,
    PARALLEL_BLOCK_SPARSE, SERIAL_BLOCK_SPARSE, SERIAL_HODLR,
};
use crate::workloads::{helmholtz_hodlr, laplace_hodlr, resolved_kappa, rpy_hodlr, SweepArgs};
use hodlr_core::HodlrMatrix;
use hodlr_la::Scalar;

/// Default and `--full` sizes of the RPY workload (Table III, Fig. 5).
const RPY_SIZES: [&[usize]; 2] = [
    &[3 * 512, 3 * 1024, 3 * 2048, 3 * 4096],
    &[1 << 17, 1 << 18, 1 << 19, 1 << 20, 1 << 21],
];
/// Default and `--full` sizes of the Laplace workloads (Table IV, Fig. 7).
const LAPLACE_SIZES: [&[usize]; 2] = [
    &[1 << 10, 1 << 11, 1 << 12, 1 << 13],
    &[1 << 18, 1 << 19, 1 << 20, 1 << 21, 1 << 22],
];
/// Default and `--full` sizes of the Helmholtz workloads (Table V,
/// Figs. 8 and 9).
const HELMHOLTZ_SIZES: [&[usize]; 2] = [
    &[1 << 10, 1 << 11, 1 << 12],
    &[1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20],
];

/// One matrix of the sweep: the table it belongs to, its per-level ranks
/// and the solver rows measured on it.
#[derive(Clone, Debug)]
pub struct PaperMatrix {
    /// Table heading, e.g. `Table IV (a) high accuracy, tol 1e-12`.
    pub title: String,
    /// Matrix size (the RPY workload rounds `N` down to a multiple of 3).
    pub n: usize,
    /// Largest off-diagonal rank per tree level, level 1 first (the
    /// appendix tables).
    pub ranks: Vec<usize>,
    /// One row per solver, in [`measure_solvers`] order.
    pub rows: Vec<SolverRow>,
}

fn measure<T: Scalar>(
    title: String,
    workload: &str,
    matrix: &HodlrMatrix<T>,
    config: &MeasureConfig,
) -> PaperMatrix {
    PaperMatrix {
        title,
        n: matrix.n(),
        ranks: matrix.rank_profile(),
        rows: measure_solvers(workload, matrix, config),
    }
}

/// Build every matrix of the sweep `args` selects, in table order, and
/// measure its solvers.
pub fn run_paper_bench(args: &SweepArgs) -> Vec<PaperMatrix> {
    let baselines = |n: usize| n <= args.baseline_cap;
    let sizes = |[default, full]: [&[usize]; 2]| args.sizes_or(default, full);
    let bie_solvers = |n: usize| MeasureConfig {
        serial_hodlr: true,
        hodlrlib: false,
        block_sparse_seq: baselines(n),
        block_sparse_par: baselines(n),
        gpu_hodlr: true,
    };
    let mut matrices = Vec::new();
    for n in sizes(RPY_SIZES) {
        let config = MeasureConfig {
            serial_hodlr: true,
            hodlrlib: baselines(n),
            block_sparse_seq: false,
            block_sparse_par: false,
            gpu_hodlr: true,
        };
        let title = "Table III RPY kernel, tol 1e-12".to_string();
        matrices.push(measure(
            title,
            "rpy/tol=1e-12",
            &rpy_hodlr(n, 1e-12),
            &config,
        ));
    }
    for (table, tol) in [
        ("Table IV (a) high accuracy", 1e-12),
        ("Table IV (b) low accuracy", 1e-4),
    ] {
        for n in sizes(LAPLACE_SIZES) {
            let (_bie, matrix) = laplace_hodlr(n, tol);
            let workload = format!("laplace/tol={tol:.0e}");
            let title = format!("{table}, tol {tol:.0e}");
            matrices.push(measure(title, &workload, &matrix, &bie_solvers(n)));
        }
    }
    for (table, tol) in [
        ("Table V (a) high accuracy", 1e-10),
        ("Table V (b) low accuracy", 1e-4),
    ] {
        for n in sizes(HELMHOLTZ_SIZES) {
            let kappa = if args.full { 100.0 } else { resolved_kappa(n) };
            let (_bie, matrix) = helmholtz_hodlr(n, kappa, tol);
            let workload = format!("helmholtz/tol={tol:.0e}");
            let title = format!("{table}, tol {tol:.0e}, kappa = eta = {kappa:.1}");
            matrices.push(measure(title, &workload, &matrix, &bie_solvers(n)));
        }
    }
    matrices
}

/// The rows of one (workload, solver) series, in sweep order.
fn series<'a>(
    matrices: &'a [PaperMatrix],
    workload: &'a str,
    solver: &'a str,
) -> impl Iterator<Item = &'a SolverRow> + 'a {
    matrices
        .iter()
        .flat_map(|m| &m.rows)
        .filter(move |r| r.workload == workload && r.solver == solver)
}

/// Fitted exponent of one series' factorization or solve times.
fn exponent(
    matrices: &[PaperMatrix],
    workload: &str,
    solver: &str,
    time: fn(&SolverRow) -> f64,
) -> f64 {
    let points: Vec<(usize, f64)> = series(matrices, workload, solver)
        .map(|r| (r.n, time(r)))
        .collect();
    fitted_exponent(&points)
}

/// `slow`'s factorization and solve times over `fast`'s, at every size of
/// `workload` where both ran.
fn print_speedups(matrices: &[PaperMatrix], workload: &str, slow: &str, fast: &str) {
    for s in series(matrices, workload, slow) {
        if let Some(f) = series(matrices, workload, fast).find(|f| f.n == s.n) {
            println!(
                "{workload:<20} N = {:>9}: factorization {:.2}x, solve {:.2}x",
                s.n,
                s.t_factor / f.t_factor,
                s.t_solve / f.t_solve
            );
        }
    }
}

/// Print Tables III–V with each matrix's rank profile, then the figures
/// read off the same rows.
///
/// On the virtual device both the GPU-style and the CPU solvers run on
/// the same CPU, so the speedups reflect data-structure overhead only
/// (the paper reports 20–27x factorization and 51–128x solve for Table
/// III's GPU over HODLRlib).
pub fn print_paper_report(matrices: &[PaperMatrix]) {
    for m in matrices {
        print_table(&format!("{}, N = {}", m.title, m.n), &m.rows);
        let ranks: Vec<String> = m.ranks.iter().map(usize::to_string).collect();
        println!(
            "appendix ranks by level, level 1 first ({} levels): {}\n",
            m.ranks.len(),
            ranks.join(" ")
        );
    }

    println!("== Table III speedups, GPU-style over HODLRlib-style");
    print_speedups(matrices, "rpy/tol=1e-12", HODLRLIB, GPU_HODLR);

    println!(
        "\n== Fig. 5 fitted exponents, RPY kernel (paper guides: factorization N log^2 N, solve N)"
    );
    for solver in [SERIAL_HODLR, HODLRLIB, GPU_HODLR] {
        println!(
            "{solver:<28} factorization ~ N^{:.2}, solve ~ N^{:.2}",
            exponent(matrices, "rpy/tol=1e-12", solver, |r| r.t_factor),
            exponent(matrices, "rpy/tol=1e-12", solver, |r| r.t_solve)
        );
    }

    println!("\n== Fig. 7 fitted factorization exponents, Laplace BIE");
    for workload in ["laplace/tol=1e-12", "laplace/tol=1e-4"] {
        for solver in [SERIAL_BLOCK_SPARSE, PARALLEL_BLOCK_SPARSE, GPU_HODLR] {
            println!(
                "{workload:<20} {solver:<28} ~ N^{:.2}",
                exponent(matrices, workload, solver, |r| r.t_factor)
            );
        }
    }

    println!("\n== Fig. 8 speedups, GPU-style over parallel block-sparse, Helmholtz BIE");
    for workload in ["helmholtz/tol=1e-10", "helmholtz/tol=1e-4"] {
        print_speedups(matrices, workload, PARALLEL_BLOCK_SPARSE, GPU_HODLR);
    }

    println!("\n== Fig. 9 GFLOP/s, helmholtz/tol=1e-10 (metered device flops on both backends)");
    println!("   (the serial factorization time includes its upload; the GPU one starts after it)");
    println!(
        "{:<28} {:>9} {:>14} {:>14}",
        "solver", "N", "factorization", "solve"
    );
    for solver in [SERIAL_HODLR, GPU_HODLR] {
        for r in series(matrices, "helmholtz/tol=1e-10", solver) {
            println!(
                "{:<28} {:>9} {:>14.3} {:>14.3}",
                r.solver,
                r.n,
                r.factor_gflops.unwrap_or(f64::NAN),
                r.solve_gflops.unwrap_or(f64::NAN)
            );
        }
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::parse_args;

    #[test]
    fn a_one_size_sweep_runs_every_table_solver_once() {
        let args = parse_args(&["--sizes", "256"]).expect("valid arguments");
        let matrices = run_paper_bench(&args);
        assert_eq!(matrices.len(), 5, "one matrix per (workload, tolerance)");
        let bie = [
            SERIAL_HODLR,
            SERIAL_BLOCK_SPARSE,
            PARALLEL_BLOCK_SPARSE,
            GPU_HODLR,
        ];
        let mut want = [SERIAL_HODLR, HODLRLIB, GPU_HODLR]
            .map(|s| ("rpy/tol=1e-12", 255, s))
            .to_vec();
        for workload in [
            "laplace/tol=1e-12",
            "laplace/tol=1e-4",
            "helmholtz/tol=1e-10",
            "helmholtz/tol=1e-4",
        ] {
            want.extend(bie.map(|s| (workload, 256, s)));
        }
        let cells: Vec<(&str, usize, &str)> = matrices
            .iter()
            .flat_map(|m| &m.rows)
            .map(|r| (r.workload.as_str(), r.n, r.solver.as_str()))
            .collect();
        assert_eq!(cells, want);
        for m in &matrices {
            assert!(m.rows.iter().all(|r| r.n == m.n));
            assert!(!m.ranks.is_empty(), "{}: no rank profile", m.title);
        }
    }

    #[test]
    fn the_baseline_cap_drops_only_the_baselines() {
        let args = parse_args(&["--sizes", "256", "--baseline-cap", "128"]).expect("valid");
        let solvers: Vec<String> = run_paper_bench(&args)
            .into_iter()
            .flat_map(|m| m.rows)
            .map(|r| r.solver)
            .collect();
        assert_eq!(solvers.len(), 10);
        assert!(solvers.iter().all(|s| s == SERIAL_HODLR || s == GPU_HODLR));
    }
}
