//! Scale-out trajectory: streaming, memory-budgeted HODLR assembly over
//! 2-D / 3-D surface and GP workloads, both storage precisions, written
//! to `BENCH_scale.json`.
//!
//! Usage: `scale [--smoke]` — `--smoke` runs the seconds-scale CI sweep;
//! the default sweep includes the `n >= 10^5` acceptance row.  Exits
//! non-zero if any build fails (a budget violation is a failure of the
//! streaming pipeline), any row carries an unmetered build
//! (`peak_bytes == 0`), a peak over the stated budget, a non-finite or
//! loose solve residual, or an `f32-storage` row that does not hold
//! strictly fewer bytes than its `f64` twin.

use hodlr_bench::{print_scale_table, run_scale_bench, write_bench_json, ScaleBenchConfig};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let config = if smoke {
        ScaleBenchConfig::smoke()
    } else {
        ScaleBenchConfig::full()
    };
    let rows = match run_scale_bench(&config) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("SCALE SWEEP FAILED: {e}");
            std::process::exit(1);
        }
    };
    print_scale_table(
        "Scale-out (streaming memory-budgeted assembly, 2-D/3-D)",
        &rows,
    );
    write_bench_json("scale", &rows);

    let mut broken = false;
    for row in &rows {
        if row.peak_bytes == 0 {
            eprintln!(
                "UNMETERED BUILD: {} dim={} n={} {}",
                row.workload, row.dim, row.n, row.precision
            );
            broken = true;
        }
        if row.peak_bytes > row.budget_bytes {
            eprintln!(
                "PEAK OVER BUDGET: {} dim={} n={} {}: {} > {}",
                row.workload, row.dim, row.n, row.precision, row.peak_bytes, row.budget_bytes
            );
            broken = true;
        }
        if !(row.relres.is_finite() && row.relres < 1e-7) {
            eprintln!(
                "LOOSE SOLVE: {} dim={} n={} {}: relres {:.3e}",
                row.workload, row.dim, row.n, row.precision, row.relres
            );
            broken = true;
        }
        if let Some(err) = row.compress_err {
            if !(err.is_finite() && err < 1e-4) {
                eprintln!(
                    "COMPRESSION DRIFT: {} dim={} n={} {}: {err:.3e}",
                    row.workload, row.dim, row.n, row.precision
                );
                broken = true;
            }
        }
    }
    // Every f32-storage row must store strictly fewer bytes than the f64
    // row of the same workload cell.
    for compact in rows.iter().filter(|r| r.precision == "f32-storage") {
        match rows.iter().find(|r| {
            r.precision == "f64"
                && r.workload == compact.workload
                && r.dim == compact.dim
                && r.n == compact.n
        }) {
            Some(full) if compact.storage_bytes < full.storage_bytes => {}
            Some(full) => {
                eprintln!(
                    "COMPACT NOT SMALLER: {} dim={} n={}: {} vs {}",
                    compact.workload,
                    compact.dim,
                    compact.n,
                    compact.storage_bytes,
                    full.storage_bytes
                );
                broken = true;
            }
            None => {
                eprintln!(
                    "COMPACT ROW WITHOUT F64 TWIN: {} dim={} n={}",
                    compact.workload, compact.dim, compact.n
                );
                broken = true;
            }
        }
    }
    if broken {
        std::process::exit(1);
    }
}
