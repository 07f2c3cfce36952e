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
//! * the `paper` binary emits [`SolverRow`]s (**workload** — the problem
//!   family plus its compression tolerance, so row sets sharing a size
//!   stay distinguishable —, solver, size, threads, factor/solve times,
//!   memory, residual, metered GFLOP/s);
//! * the `kernels` binary emits [`KernelRow`]s (kernel, scalar type, dims,
//!   threads, GFLOP/s, blocked-vs-reference speedup, bitwise-determinism
//!   verdict, and the ISA level the dispatched kernels ran at);
//! * the `gp` binary emits [`GpRow`]s (kernel family, backend, size,
//!   compression tolerance, factor/log-det/log-likelihood times, the
//!   likelihood value, its error against the dense Cholesky oracle, and
//!   launch/flop metering).
//!
//! * the `scale` binary emits [`ScaleRow`]s
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
//! Each row type lists its fields once ([`BenchRow`]); one renderer,
//! [`rows_to_json`], frames them, and one writer, [`write_bench_json`],
//! resolves the output path through [`bench_json_path`]:
//! `HODLR_BENCH_JSON` overrides the default `BENCH_<name>.json` in the
//! working directory, identically for every binary.

use crate::gp::GpRow;
use crate::harness::SolverRow;
use crate::iterative::IterativeRow;
use crate::kernels::KernelRow;
use crate::scale::ScaleRow;
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

/// An optional float as JSON (`null` when absent or non-finite).
fn opt_number(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), number)
}

/// A string as a JSON string literal.
fn text(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// A bench row as JSON: its fields in output order, each value already
/// rendered as a JSON literal.
pub trait BenchRow {
    /// `(key, JSON value)` pairs, in the order they are written.
    fn fields(&self) -> Vec<(&'static str, String)>;
}

/// Render rows as a JSON array: one object per line, keys in
/// [`BenchRow::fields`] order.
pub fn rows_to_json<R: BenchRow>(rows: &[R]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        let fields: Vec<String> = row
            .fields()
            .into_iter()
            .map(|(key, value)| format!("\"{key}\": {value}"))
            .collect();
        out.push_str(&format!("  {{{}}}", fields.join(", ")));
        out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
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

/// Write rows to the family's path (see [`bench_json_path`]), reporting
/// the outcome on stdout/stderr (bench bins must not fail the run on an
/// unwritable path).
pub fn write_bench_json<R: BenchRow>(name: &str, rows: &[R]) {
    let path = bench_json_path(name);
    let rendered = rows_to_json(rows);
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(rendered.as_bytes())) {
        Ok(()) => println!("wrote {} rows to {}", rows.len(), path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

impl BenchRow for IterativeRow {
    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "scenario",
                text(&format!("{}/{}", self.workload, self.method)),
            ),
            ("workload", text(&self.workload)),
            ("method", text(&self.method)),
            ("n", self.n.to_string()),
            ("threads", self.threads.to_string()),
            ("precond_tol", number(self.precond_tol)),
            ("iterations", self.iterations.to_string()),
            ("relres", number(self.relres)),
            ("t_factor_s", number(self.t_factor)),
            ("t_per_rhs_s", number(self.t_per_rhs)),
            ("launches", self.launches.to_string()),
            ("flops", self.flops.to_string()),
            ("converged", self.converged.to_string()),
        ]
    }
}

impl BenchRow for SolverRow {
    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("workload", text(&self.workload)),
            ("solver", text(&self.solver)),
            ("n", self.n.to_string()),
            ("threads", self.threads.to_string()),
            ("t_factor_s", number(self.t_factor)),
            ("t_solve_s", number(self.t_solve)),
            ("mem_gib", number(self.mem_gib)),
            ("relres", number(self.relres)),
            ("factor_gflops", opt_number(self.factor_gflops)),
            ("solve_gflops", opt_number(self.solve_gflops)),
        ]
    }
}

impl BenchRow for KernelRow {
    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("kernel", text(&self.kernel)),
            ("scalar", text(&self.scalar)),
            ("m", self.m.to_string()),
            ("n", self.n.to_string()),
            ("k", self.k.to_string()),
            ("threads", self.threads.to_string()),
            ("time_s", number(self.time_s)),
            ("time_iqr_s", number(self.time_iqr_s)),
            ("gflops", number(self.gflops)),
            (
                "speedup_vs_reference",
                opt_number(self.speedup_vs_reference),
            ),
            (
                "bitwise_vs_1thread",
                self.bitwise_vs_1thread
                    .map_or_else(|| "null".to_string(), |b| b.to_string()),
            ),
            ("isa", text(self.isa)),
            (
                "op_a",
                self.op_a
                    .map_or_else(|| "null".to_string(), |op| text(&format!("{op:?}"))),
            ),
            ("bytes_per_s", opt_number(self.bytes_per_s)),
        ]
    }
}

impl BenchRow for GpRow {
    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("kernel", text(&self.kernel)),
            ("backend", text(&self.backend)),
            ("path", text(&self.path)),
            ("n", self.n.to_string()),
            ("threads", self.threads.to_string()),
            ("tol", number(self.tol)),
            ("t_build_s", number(self.t_build)),
            ("t_factor_s", number(self.t_factor)),
            ("t_logdet_s", number(self.t_logdet)),
            ("t_loglik_s", number(self.t_loglik)),
            ("log_likelihood", number(self.log_likelihood)),
            ("loglik_err_vs_dense", opt_number(self.loglik_err_vs_dense)),
            ("launches", self.launches.to_string()),
            ("flops", self.flops.to_string()),
            ("factor_bytes", self.factor_bytes.to_string()),
        ]
    }
}

impl BenchRow for SpectralRow {
    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("scenario", text(&self.scenario)),
            ("backend", text(&self.backend)),
            ("n", self.n.to_string()),
            ("k", self.k.to_string()),
            ("probes", self.probes.to_string()),
            ("steps", self.steps.to_string()),
            ("threads", self.threads.to_string()),
            ("residual", number(self.residual)),
            ("tolerance", number(self.tolerance)),
            ("slq_stderr", opt_number(self.slq_stderr)),
            ("t_s", number(self.t_s)),
            ("t_dense_s", opt_number(self.t_dense_s)),
            ("deterministic", self.deterministic.to_string()),
        ]
    }
}

impl BenchRow for ScaleRow {
    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("workload", text(&self.workload)),
            ("dim", self.dim.to_string()),
            ("n", self.n.to_string()),
            ("precision", text(&self.precision)),
            ("budget_bytes", self.budget_bytes.to_string()),
            ("t_build_s", number(self.t_build)),
            ("t_factor_s", number(self.t_factor)),
            ("t_solve_s", number(self.t_solve)),
            ("peak_bytes", self.peak_bytes.to_string()),
            ("storage_bytes", self.storage_bytes.to_string()),
            ("max_rank", self.max_rank.to_string()),
            ("relres", number(self.relres)),
            ("compress_err", opt_number(self.compress_err)),
            ("threads", self.threads.to_string()),
        ]
    }
}

impl BenchRow for ServeRow {
    fn fields(&self) -> Vec<(&'static str, String)> {
        vec![
            ("scenario", text(&self.scenario)),
            ("tenants", self.tenants.to_string()),
            ("requests", self.requests.to_string()),
            ("n", self.n.to_string()),
            ("burst", self.burst.to_string()),
            ("drains", self.drains.to_string()),
            ("throughput_rps", number(self.throughput_rps)),
            ("p50_ms", number(self.p50_ms)),
            ("p99_ms", number(self.p99_ms)),
            ("hit_rate", number(self.hit_rate)),
            ("evictions", self.evictions.to_string()),
            ("launches_per_request", number(self.launches_per_request)),
            ("failed", self.failed.to_string()),
            ("recovered_requests", self.recovered_requests.to_string()),
            ("retries", self.retries.to_string()),
            ("degraded_solves", self.degraded_solves.to_string()),
            ("breaker_trips", self.breaker_trips.to_string()),
            ("unaccounted", self.unaccounted.to_string()),
            ("fault_seed", self.fault_seed.to_string()),
            ("deterministic", self.deterministic.to_string()),
            ("checksum", number(self.checksum)),
        ]
    }
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
        let json = rows_to_json(&[sample_row()]);
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
        let json = rows_to_json(&[sample_row(), sample_row()]);
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
        let json = rows_to_json(&[row]);
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
        let json = rows_to_json(&[row]);
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
        let json = rows_to_json(&[row]);
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
        let json = rows_to_json(&[row]);
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
        let row = ScaleRow {
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
        let json = rows_to_json(&[row]);
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
        let json = rows_to_json(&[row]);
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
        let json = rows_to_json(&[row]);
        assert!(json.contains("we\\\"ird\\\\label"));
        assert!(json.contains("\"relres\": null"));
    }
}
