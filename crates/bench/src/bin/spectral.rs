//! Spectral-subsystem trajectory: dense EVD/SVD kernel accuracy,
//! HODLR-accelerated Lanczos eigenpairs (largest and shift-invert
//! smallest of a GP covariance, serial and batched backends) and the SLQ
//! log-determinant against the product-form route, written to
//! `BENCH_spectral.json`.
//!
//! Usage: `spectral [--smoke]` — `--smoke` runs the seconds-scale CI
//! sweep.  Exits non-zero if any row carries a non-finite residual, a
//! residual above its gate (for SLQ: three reported standard errors plus
//! a small relative floor), a failed 1/2/8-thread bitwise-determinism
//! verdict, or an SLQ row with zero probes / steps / a non-finite
//! standard error.

use hodlr_bench::{
    print_spectral_table, run_spectral_bench, write_bench_json, SpectralBenchConfig,
};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let config = if smoke {
        SpectralBenchConfig::smoke()
    } else {
        SpectralBenchConfig::full()
    };
    let rows = run_spectral_bench(&config);
    print_spectral_table(
        "Spectral subsystem (dense EVD/SVD, Lanczos eigenpairs, SLQ log-det)",
        &rows,
    );
    write_bench_json("spectral", &rows);

    let mut broken = false;
    for row in &rows {
        if !(row.residual.is_finite() && row.residual <= row.tolerance) {
            eprintln!(
                "RESIDUAL OVER GATE: {} {} n={}: {:.3e} vs {:.3e}",
                row.scenario, row.backend, row.n, row.residual, row.tolerance
            );
            broken = true;
        }
        if !row.deterministic {
            eprintln!(
                "NOT BITWISE-DETERMINISTIC ACROSS POOLS: {} {} n={}",
                row.scenario, row.backend, row.n
            );
            broken = true;
        }
        if row.scenario == "slq-logdet" {
            if row.probes == 0 || row.steps == 0 {
                eprintln!("ZERO SLQ WORK: {} n={}", row.backend, row.n);
                broken = true;
            }
            match row.slq_stderr {
                Some(e) if e.is_finite() => {}
                _ => {
                    eprintln!("MISSING SLQ STDERR: {} n={}", row.backend, row.n);
                    broken = true;
                }
            }
        }
    }
    let slq_rows = rows.iter().filter(|r| r.scenario == "slq-logdet").count();
    if slq_rows == 0 {
        eprintln!("NO SLQ ROWS");
        broken = true;
    }
    if broken {
        std::process::exit(1);
    }
}
