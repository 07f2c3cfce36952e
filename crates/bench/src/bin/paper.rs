//! The paper's evaluation in one sweep (`hodlr_bench::paper`): Tables
//! III–V, the fitted exponents of Figs. 5 and 7, the speedups of Fig. 8,
//! the GFLOP/s of Fig. 9 and the appendix rank profiles, with every solver
//! row written to `BENCH_paper.json`.
//!
//! Usage: `paper [--full] [--sizes a,b,...] [--baseline-cap K]`.  A
//! malformed argument exits with status 2 before anything is built or
//! written.

use hodlr_bench::{parse_args, print_paper_report, run_paper_bench, write_bench_json, SolverRow};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("paper: {e}");
        std::process::exit(2)
    });
    let matrices = run_paper_bench(&args);
    print_paper_report(&matrices);
    let rows: Vec<SolverRow> = matrices.into_iter().flat_map(|m| m.rows).collect();
    write_bench_json("paper", &rows);
}
