//! Gaussian-process log-likelihood trajectory: `n x kernel x path x
//! backend x tolerance` rows (factorization / log-det / likelihood times,
//! likelihood error against the dense Cholesky oracle, launch/flop
//! metering, factorization bytes) plus the posterior-sampling scenario,
//! written to `BENCH_gp.json`.
//!
//! Usage: `gp [--smoke]` — `--smoke` runs the seconds-scale CI sweep.
//! Exits non-zero if any row carries a non-finite likelihood, a zero flop
//! count, an oracle error out of proportion to its compression tolerance
//! at the oracle-checked sizes, or an SPD-path row that fails to undercut
//! its LU twin on flops or factorization bytes.

use hodlr_bench::{print_gp_table, run_gp_bench, write_bench_json, GpBenchConfig};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let config = if smoke {
        GpBenchConfig::smoke()
    } else {
        GpBenchConfig::full()
    };
    let rows = run_gp_bench(&config);
    print_gp_table(
        "GP log-marginal likelihood (solve + product-form log_det)",
        &rows,
    );
    write_bench_json("gp", &rows);

    let mut broken = false;
    for row in &rows {
        if !row.log_likelihood.is_finite() {
            eprintln!(
                "NON-FINITE LIKELIHOOD: {} {} n={}",
                row.kernel, row.backend, row.n
            );
            broken = true;
        }
        if row.flops == 0 {
            eprintln!("ZERO FLOPS: {} {} n={}", row.kernel, row.backend, row.n);
            broken = true;
        }
        if let Some(err) = row.loglik_err_vs_dense {
            // The likelihood inherits the compression error; gate at a
            // comfortable multiple of tol * n.
            if err > (row.tol * row.n as f64 * 100.0).max(1e-8) {
                eprintln!(
                    "ORACLE MISMATCH: {} {} {} n={} err={err:.3e}",
                    row.kernel, row.backend, row.path, row.n
                );
                broken = true;
            }
        }
    }
    // The Cholesky fast path must undercut its LU twin on flops for every
    // (kernel, backend, n, tol) cell and never cost more factorization
    // bytes (the serial path stores triangular factors and shared bases;
    // the batched device working set matches LU's in-place square
    // buffers) — this is the paper-level claim the SPD rows exist to
    // demonstrate.
    for lu in rows.iter().filter(|r| r.path == "lu") {
        let twin = rows.iter().find(|r| {
            r.path == "spd"
                && r.kernel == lu.kernel
                && r.backend == lu.backend
                && r.n == lu.n
                && r.tol == lu.tol
        });
        match twin {
            None => {
                eprintln!(
                    "MISSING SPD TWIN: {} {} n={} tol={}",
                    lu.kernel, lu.backend, lu.n, lu.tol
                );
                broken = true;
            }
            Some(spd) if spd.flops >= lu.flops || spd.factor_bytes > lu.factor_bytes => {
                eprintln!(
                    "SPD PATH NOT CHEAPER: {} {} n={}: flops {} vs {}, bytes {} vs {}",
                    spd.kernel,
                    spd.backend,
                    spd.n,
                    spd.flops,
                    lu.flops,
                    spd.factor_bytes,
                    lu.factor_bytes
                );
                broken = true;
            }
            Some(_) => {}
        }
    }
    if rows.iter().filter(|r| r.path == "sampling").count() == 0 {
        eprintln!("NO SAMPLING ROWS");
        broken = true;
    }
    if broken {
        std::process::exit(1);
    }
}
