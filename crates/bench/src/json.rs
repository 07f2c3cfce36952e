//! Machine-readable bench output: a tiny hand-rolled JSON emitter (no
//! serde in the offline container) for every bench family.
//!
//! Each bench binary writes a `BENCH_<name>.json` next to its table output
//! so successive PRs accumulate a perf trajectory that tooling can diff:
//!
//! * the `iterative` binary emits [`IterativeRow`]s (workload, method,
//!   problem size, thread count, wall-clock times, device-metered
//!   launch/flop totals — every method row carries real metering,
//!   including the mixed-refine rows);
//! * the fig/table binaries emit [`SolverRow`]s (**workload** — the
//!   problem family plus whatever the binary sweeps besides `n`, so row
//!   sets sharing a size stay distinguishable —, solver, size, threads,
//!   factor/solve times, memory, residual, metered GFLOP/s);
//! * the `kernels` binary emits [`KernelRow`]s (kernel, scalar type, dims,
//!   threads, GFLOP/s, blocked-vs-reference speedup, bitwise-determinism
//!   verdict, and the ISA level the dispatched kernels ran at);
//! * the `gp` binary emits [`GpRow`]s (kernel family, backend, size,
//!   compression tolerance, factor/log-det/log-likelihood times, the
//!   likelihood value, its error against the dense Cholesky oracle, and
//!   launch/flop metering).
//!
//! * the `scale` binary emits [`ScaleRow`](crate::scale::ScaleRow)s
//!   (workload, dimension, size, storage precision, the budget the build
//!   ran under, build/factor/solve wall clocks, the **measured** peak
//!   build bytes from the allocation meter, stored bytes, max rank, the
//!   solve residual and the small-`n` dense-matvec check);
//!
//! * the `serve` binary emits [`ServeRow`]s (scenario, tenant mix,
//!   throughput, p50/p99 latency, cache hit-rate, launches-per-request,
//!   and a determinism checksum);
//! * the `spectral` binary emits [`SpectralRow`]s (scenario, backend,
//!   size, requested pairs / probe counts, the scenario residual and its
//!   gate, the SLQ standard error, estimator-vs-dense-oracle wall clocks
//!   and the 1/2/8-thread bitwise-determinism verdict).
//!
//! Every bench family resolves its output path through the one shared
//! helper, [`bench_json_path`]: `HODLR_BENCH_JSON` overrides the default
//! `BENCH_<name>.json` in the working directory, identically for every
//! binary.

use crate::gp::GpRow;
use crate::harness::SolverRow;
use crate::iterative::IterativeRow;
use crate::kernels::KernelRow;
use crate::serve::ServeRow;
use crate::spectral::SpectralRow;
use std::io::Write;
use std::path::PathBuf;

/// Escape a string for inclusion in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Format a float as JSON (finite values only; NaN/inf become `null`,
/// which plain JSON cannot represent).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_string()
    }
}

/// Render the iterative rows as a JSON array (pretty-printed, one object
/// per row, stable key order).
pub fn iterative_rows_to_json(rows: &[IterativeRow]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        let scenario = format!("{}/{}", row.workload, row.method);
        out.push_str("  {");
        out.push_str(&format!("\"scenario\": \"{}\", ", escape(&scenario)));
        out.push_str(&format!("\"workload\": \"{}\", ", escape(&row.workload)));
        out.push_str(&format!("\"method\": \"{}\", ", escape(&row.method)));
        out.push_str(&format!("\"n\": {}, ", row.n));
        out.push_str(&format!("\"threads\": {}, ", row.threads));
        out.push_str(&format!("\"precond_tol\": {}, ", number(row.precond_tol)));
        out.push_str(&format!("\"iterations\": {}, ", row.iterations));
        out.push_str(&format!("\"relres\": {}, ", number(row.relres)));
        out.push_str(&format!("\"t_factor_s\": {}, ", number(row.t_factor)));
        out.push_str(&format!("\"t_per_rhs_s\": {}, ", number(row.t_per_rhs)));
        out.push_str(&format!("\"launches\": {}, ", row.launches));
        out.push_str(&format!("\"flops\": {}, ", row.flops));
        out.push_str(&format!("\"converged\": {}", row.converged));
        out.push('}');
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Write iterative rows to the family's JSON path (see
/// [`bench_json_path`]).
pub fn write_iterative_json(name: &str, rows: &[IterativeRow]) {
    write_bench_json(name, &iterative_rows_to_json(rows), rows.len());
}

/// An optional float as JSON (`null` when absent or non-finite).
fn opt_number(v: Option<f64>) -> String {
    match v {
        Some(v) => number(v),
        None => "null".to_string(),
    }
}

/// Render solver-table rows (the fig/table binaries) as a JSON array.
pub fn solver_rows_to_json(rows: &[SolverRow]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("  {");
        out.push_str(&format!("\"workload\": \"{}\", ", escape(&row.workload)));
        out.push_str(&format!("\"solver\": \"{}\", ", escape(&row.solver)));
        out.push_str(&format!("\"n\": {}, ", row.n));
        out.push_str(&format!("\"threads\": {}, ", row.threads));
        out.push_str(&format!("\"t_factor_s\": {}, ", number(row.t_factor)));
        out.push_str(&format!("\"t_solve_s\": {}, ", number(row.t_solve)));
        out.push_str(&format!("\"mem_gib\": {}, ", number(row.mem_gib)));
        out.push_str(&format!("\"relres\": {}, ", number(row.relres)));
        out.push_str(&format!(
            "\"factor_gflops\": {}, ",
            opt_number(row.factor_gflops)
        ));
        out.push_str(&format!(
            "\"solve_gflops\": {}",
            opt_number(row.solve_gflops)
        ));
        out.push('}');
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Resolve the output path for a bench family: `HODLR_BENCH_JSON` wins,
/// otherwise `BENCH_<name>.json` in the working directory.
pub fn bench_json_path(name: &str) -> PathBuf {
    std::env::var_os("HODLR_BENCH_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("BENCH_{name}.json")))
}

/// Write rendered JSON to the family's path, reporting the outcome on
/// stdout/stderr (bench bins must not fail the run on an unwritable path).
fn write_bench_json(name: &str, rendered: &str, row_count: usize) {
    let path = bench_json_path(name);
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(rendered.as_bytes())) {
        Ok(()) => println!("wrote {row_count} rows to {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

/// Write fig/table solver rows to the family's JSON path.
pub fn write_solver_json(name: &str, rows: &[SolverRow]) {
    write_bench_json(name, &solver_rows_to_json(rows), rows.len());
}

/// Render kernel-bench rows as a JSON array.
pub fn kernel_rows_to_json(rows: &[KernelRow]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("  {");
        out.push_str(&format!("\"kernel\": \"{}\", ", escape(&row.kernel)));
        out.push_str(&format!("\"scalar\": \"{}\", ", escape(&row.scalar)));
        out.push_str(&format!("\"m\": {}, ", row.m));
        out.push_str(&format!("\"n\": {}, ", row.n));
        out.push_str(&format!("\"k\": {}, ", row.k));
        out.push_str(&format!("\"threads\": {}, ", row.threads));
        out.push_str(&format!("\"time_s\": {}, ", number(row.time_s)));
        out.push_str(&format!("\"time_iqr_s\": {}, ", number(row.time_iqr_s)));
        out.push_str(&format!("\"gflops\": {}, ", number(row.gflops)));
        out.push_str(&format!(
            "\"speedup_vs_reference\": {}, ",
            opt_number(row.speedup_vs_reference)
        ));
        out.push_str(&format!(
            "\"bitwise_vs_1thread\": {}, ",
            match row.bitwise_vs_1thread {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            }
        ));
        out.push_str(&format!("\"isa\": \"{}\", ", escape(row.isa)));
        out.push_str(&format!(
            "\"op_a\": {}, ",
            match row.op_a {
                Some(op) => format!("\"{op:?}\""),
                None => "null".to_string(),
            }
        ));
        out.push_str(&format!("\"bytes_per_s\": {}", opt_number(row.bytes_per_s)));
        out.push('}');
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Write kernel rows to the family's JSON path (see [`bench_json_path`]).
pub fn write_kernel_json(name: &str, rows: &[KernelRow]) {
    write_bench_json(name, &kernel_rows_to_json(rows), rows.len());
}

/// Render GP log-likelihood rows (the `gp` binary) as a JSON array.
pub fn gp_rows_to_json(rows: &[GpRow]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("  {");
        out.push_str(&format!("\"kernel\": \"{}\", ", escape(&row.kernel)));
        out.push_str(&format!("\"backend\": \"{}\", ", escape(&row.backend)));
        out.push_str(&format!("\"path\": \"{}\", ", escape(&row.path)));
        out.push_str(&format!("\"n\": {}, ", row.n));
        out.push_str(&format!("\"threads\": {}, ", row.threads));
        out.push_str(&format!("\"tol\": {}, ", number(row.tol)));
        out.push_str(&format!("\"t_build_s\": {}, ", number(row.t_build)));
        out.push_str(&format!("\"t_factor_s\": {}, ", number(row.t_factor)));
        out.push_str(&format!("\"t_logdet_s\": {}, ", number(row.t_logdet)));
        out.push_str(&format!("\"t_loglik_s\": {}, ", number(row.t_loglik)));
        out.push_str(&format!(
            "\"log_likelihood\": {}, ",
            number(row.log_likelihood)
        ));
        out.push_str(&format!(
            "\"loglik_err_vs_dense\": {}, ",
            opt_number(row.loglik_err_vs_dense)
        ));
        out.push_str(&format!("\"launches\": {}, ", row.launches));
        out.push_str(&format!("\"flops\": {}, ", row.flops));
        out.push_str(&format!("\"factor_bytes\": {}", row.factor_bytes));
        out.push('}');
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Write GP rows to the family's JSON path (see [`bench_json_path`]).
pub fn write_gp_json(name: &str, rows: &[GpRow]) {
    write_bench_json(name, &gp_rows_to_json(rows), rows.len());
}

/// Render spectral rows (the `spectral` binary) as a JSON array.
pub fn spectral_rows_to_json(rows: &[SpectralRow]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("  {");
        out.push_str(&format!("\"scenario\": \"{}\", ", escape(&row.scenario)));
        out.push_str(&format!("\"backend\": \"{}\", ", escape(&row.backend)));
        out.push_str(&format!("\"n\": {}, ", row.n));
        out.push_str(&format!("\"k\": {}, ", row.k));
        out.push_str(&format!("\"probes\": {}, ", row.probes));
        out.push_str(&format!("\"steps\": {}, ", row.steps));
        out.push_str(&format!("\"threads\": {}, ", row.threads));
        out.push_str(&format!("\"residual\": {}, ", number(row.residual)));
        out.push_str(&format!("\"tolerance\": {}, ", number(row.tolerance)));
        out.push_str(&format!("\"slq_stderr\": {}, ", opt_number(row.slq_stderr)));
        out.push_str(&format!("\"t_s\": {}, ", number(row.t_s)));
        out.push_str(&format!("\"t_dense_s\": {}, ", opt_number(row.t_dense_s)));
        out.push_str(&format!("\"deterministic\": {}", row.deterministic));
        out.push('}');
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Write spectral rows to the family's JSON path (see [`bench_json_path`]).
pub fn write_spectral_json(name: &str, rows: &[SpectralRow]) {
    write_bench_json(name, &spectral_rows_to_json(rows), rows.len());
}

/// Render scale rows (the `scale` binary) as a JSON array.
pub fn scale_rows_to_json(rows: &[crate::scale::ScaleRow]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("  {");
        out.push_str(&format!("\"workload\": \"{}\", ", escape(&row.workload)));
        out.push_str(&format!("\"dim\": {}, ", row.dim));
        out.push_str(&format!("\"n\": {}, ", row.n));
        out.push_str(&format!("\"precision\": \"{}\", ", escape(&row.precision)));
        out.push_str(&format!("\"budget_bytes\": {}, ", row.budget_bytes));
        out.push_str(&format!("\"t_build_s\": {}, ", number(row.t_build)));
        out.push_str(&format!("\"t_factor_s\": {}, ", number(row.t_factor)));
        out.push_str(&format!("\"t_solve_s\": {}, ", number(row.t_solve)));
        out.push_str(&format!("\"peak_bytes\": {}, ", row.peak_bytes));
        out.push_str(&format!("\"storage_bytes\": {}, ", row.storage_bytes));
        out.push_str(&format!("\"max_rank\": {}, ", row.max_rank));
        out.push_str(&format!("\"relres\": {}, ", number(row.relres)));
        out.push_str(&format!(
            "\"compress_err\": {}, ",
            opt_number(row.compress_err)
        ));
        out.push_str(&format!("\"threads\": {}", row.threads));
        out.push('}');
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Write scale rows to the family's JSON path (see [`bench_json_path`]).
pub fn write_scale_json(name: &str, rows: &[crate::scale::ScaleRow]) {
    write_bench_json(name, &scale_rows_to_json(rows), rows.len());
}

/// Render serving rows (the `serve` binary) as a JSON array.
pub fn serve_rows_to_json(rows: &[ServeRow]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str("  {");
        out.push_str(&format!("\"scenario\": \"{}\", ", escape(&row.scenario)));
        out.push_str(&format!("\"tenants\": {}, ", row.tenants));
        out.push_str(&format!("\"requests\": {}, ", row.requests));
        out.push_str(&format!("\"n\": {}, ", row.n));
        out.push_str(&format!("\"burst\": {}, ", row.burst));
        out.push_str(&format!("\"drains\": {}, ", row.drains));
        out.push_str(&format!(
            "\"throughput_rps\": {}, ",
            number(row.throughput_rps)
        ));
        out.push_str(&format!("\"p50_ms\": {}, ", number(row.p50_ms)));
        out.push_str(&format!("\"p99_ms\": {}, ", number(row.p99_ms)));
        out.push_str(&format!("\"hit_rate\": {}, ", number(row.hit_rate)));
        out.push_str(&format!("\"evictions\": {}, ", row.evictions));
        out.push_str(&format!(
            "\"launches_per_request\": {}, ",
            number(row.launches_per_request)
        ));
        out.push_str(&format!("\"failed\": {}, ", row.failed));
        out.push_str(&format!(
            "\"recovered_requests\": {}, ",
            row.recovered_requests
        ));
        out.push_str(&format!("\"retries\": {}, ", row.retries));
        out.push_str(&format!("\"degraded_solves\": {}, ", row.degraded_solves));
        out.push_str(&format!("\"breaker_trips\": {}, ", row.breaker_trips));
        out.push_str(&format!("\"unaccounted\": {}, ", row.unaccounted));
        out.push_str(&format!("\"fault_seed\": {}, ", row.fault_seed));
        out.push_str(&format!("\"deterministic\": {}, ", row.deterministic));
        out.push_str(&format!("\"checksum\": {}", number(row.checksum)));
        out.push('}');
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Write serving rows to the family's JSON path (see [`bench_json_path`]).
pub fn write_serve_json(name: &str, rows: &[ServeRow]) {
    write_bench_json(name, &serve_rows_to_json(rows), rows.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> IterativeRow {
        IterativeRow {
            workload: "laplace".into(),
            n: 1024,
            precond_tol: 1e-4,
            method: "gmres".into(),
            iterations: 7,
            relres: 3.2e-9,
            t_factor: 0.5,
            t_per_rhs: 0.0125,
            converged: true,
            threads: 8,
            launches: 42,
            flops: 1_000_000,
        }
    }

    #[test]
    fn rows_render_with_every_required_field() {
        let json = iterative_rows_to_json(&[sample_row()]);
        for key in [
            "\"scenario\": \"laplace/gmres\"",
            "\"n\": 1024",
            "\"threads\": 8",
            "\"launches\": 42",
            "\"flops\": 1000000",
            "\"converged\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.starts_with("[\n"));
        assert!(json.ends_with("]\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn multiple_rows_are_comma_separated() {
        let json = iterative_rows_to_json(&[sample_row(), sample_row()]);
        assert_eq!(json.matches("},").count(), 1);
    }

    #[test]
    fn solver_rows_render_required_fields() {
        let row = SolverRow {
            workload: "laplace/tol=1e-12".into(),
            solver: "GPU HODLR Solver".into(),
            n: 4096,
            t_factor: 1.25,
            t_solve: 0.03,
            mem_gib: 0.5,
            relres: 2e-11,
            factor_gflops: Some(3.5),
            solve_gflops: None,
            threads: 2,
        };
        let json = solver_rows_to_json(&[row]);
        for key in [
            "\"workload\": \"laplace/tol=1e-12\"",
            "\"solver\": \"GPU HODLR Solver\"",
            "\"n\": 4096",
            "\"threads\": 2",
            "\"solve_gflops\": null",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn gp_rows_render_required_fields() {
        let row = GpRow {
            kernel: "matern-3/2".into(),
            backend: "batched".into(),
            path: "spd".into(),
            n: 512,
            tol: 1e-10,
            t_build: 0.2,
            t_factor: 0.05,
            t_logdet: 0.001,
            t_loglik: 0.01,
            log_likelihood: -312.5,
            loglik_err_vs_dense: Some(3e-10),
            launches: 17,
            flops: 123456,
            factor_bytes: 7890,
            threads: 1,
        };
        let json = gp_rows_to_json(&[row]);
        for key in [
            "\"kernel\": \"matern-3/2\"",
            "\"backend\": \"batched\"",
            "\"path\": \"spd\"",
            "\"n\": 512",
            "\"t_logdet_s\": 1e-3",
            "\"loglik_err_vs_dense\": 3e-10",
            "\"launches\": 17",
            "\"flops\": 123456",
            "\"factor_bytes\": 7890",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn kernel_rows_render_required_fields() {
        let row = KernelRow {
            kernel: "gemm".into(),
            scalar: "f64".into(),
            m: 1024,
            n: 1024,
            k: 1024,
            threads: 8,
            time_s: 0.25,
            time_iqr_s: 0.01,
            gflops: 8.6,
            speedup_vs_reference: Some(5.0),
            bitwise_vs_1thread: Some(true),
            isa: "x86-64-v3",
            op_a: Some(hodlr_la::Op::ConjTrans),
            bytes_per_s: None,
        };
        let json = kernel_rows_to_json(&[row]);
        for key in [
            "\"kernel\": \"gemm\"",
            "\"scalar\": \"f64\"",
            "\"m\": 1024",
            "\"threads\": 8",
            "\"time_iqr_s\": 1e-2",
            "\"speedup_vs_reference\": 5e0",
            "\"bitwise_vs_1thread\": true",
            "\"isa\": \"x86-64-v3\"",
            "\"op_a\": \"ConjTrans\"",
            "\"bytes_per_s\": null",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn spectral_rows_render_required_fields() {
        let row = SpectralRow {
            scenario: "slq-logdet".into(),
            backend: "batched".into(),
            n: 2048,
            k: 0,
            probes: 24,
            steps: 128,
            residual: 0.5,
            tolerance: 1.5,
            slq_stderr: Some(0.5),
            t_s: 0.25,
            t_dense_s: Some(1e-3),
            deterministic: true,
            threads: 8,
        };
        let json = spectral_rows_to_json(&[row]);
        for key in [
            "\"scenario\": \"slq-logdet\"",
            "\"backend\": \"batched\"",
            "\"n\": 2048",
            "\"k\": 0",
            "\"probes\": 24",
            "\"steps\": 128",
            "\"threads\": 8",
            "\"residual\": 5e-1",
            "\"tolerance\": 1.5e0",
            "\"slq_stderr\": 5e-1",
            "\"t_dense_s\": 1e-3",
            "\"deterministic\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn scale_rows_render_required_fields() {
        let row = crate::scale::ScaleRow {
            workload: "laplace-surface".into(),
            dim: 3,
            n: 131072,
            precision: "f32-storage".into(),
            budget_bytes: 6 << 30,
            t_build: 120.5,
            t_factor: 80.25,
            t_solve: 0.75,
            peak_bytes: 1_500_000_000,
            storage_bytes: 900_000_000,
            max_rank: 41,
            relres: 2.5e-9,
            compress_err: None,
            threads: 8,
        };
        let json = scale_rows_to_json(&[row]);
        for key in [
            "\"workload\": \"laplace-surface\"",
            "\"dim\": 3",
            "\"n\": 131072",
            "\"precision\": \"f32-storage\"",
            "\"budget_bytes\": 6442450944",
            "\"peak_bytes\": 1500000000",
            "\"storage_bytes\": 900000000",
            "\"max_rank\": 41",
            "\"relres\": 2.5e-9",
            "\"compress_err\": null",
            "\"threads\": 8",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn serve_rows_render_required_fields() {
        let row = ServeRow {
            scenario: "coalesce".into(),
            tenants: 1,
            requests: 48,
            n: 192,
            burst: 24,
            drains: 2,
            throughput_rps: 850.0,
            p50_ms: 1.2,
            p99_ms: 4.5,
            hit_rate: 0.96,
            evictions: 0,
            launches_per_request: 0.4,
            failed: 0,
            recovered_requests: 3,
            retries: 5,
            degraded_solves: 2,
            breaker_trips: 1,
            unaccounted: 0,
            fault_seed: 0xC4A0_5EED,
            deterministic: true,
            checksum: 0.125,
        };
        let json = serve_rows_to_json(&[row]);
        for key in [
            "\"scenario\": \"coalesce\"",
            "\"requests\": 48",
            "\"burst\": 24",
            "\"throughput_rps\": 8.5e2",
            "\"hit_rate\": 9.6e-1",
            "\"launches_per_request\": 4e-1",
            "\"recovered_requests\": 3",
            "\"retries\": 5",
            "\"degraded_solves\": 2",
            "\"breaker_trips\": 1",
            "\"unaccounted\": 0",
            "\"fault_seed\": 3298844397",
            "\"deterministic\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn strings_are_escaped_and_non_finite_numbers_become_null() {
        let mut row = sample_row();
        row.workload = "we\"ird\\label".into();
        row.relres = f64::NAN;
        let json = iterative_rows_to_json(&[row]);
        assert!(json.contains("we\\\"ird\\\\label"));
        assert!(json.contains("\"relres\": null"));
    }
}
