//! The Gaussian-process scenario family: log-marginal likelihood via
//! HODLR `solve` + `log_det` across kernel families, backends, compression
//! tolerances **and factorization paths** (LU vs the SPD Cholesky fast
//! path), plus a posterior-sampling scenario, validated against the dense
//! Cholesky oracle where that is affordable.
//!
//! This is the workload the product-form determinant of Section III-E (a)
//! exists for: one factorization yields both `y^T K^{-1} y` and `log|K|`
//! in `O(N log^2 N)`, on the serial backend or the batched device (the
//! `log_det` of the two agrees bitwise).  The SPD rows factorize the same
//! covariance through the symmetric path (`path: "spd"`) and land at
//! measurably lower flop and byte counts than their LU twins; the
//! `path: "sampling"` rows exercise the `K = L L^T` payoff — Matheron
//! pathwise posterior draws plus predictive variance.  Every row reports
//! wall-clock times plus launch/flop metering: real device counters for
//! the batched backend, the analytic Theorem 2–4 (and its symmetric
//! variant) flop model for the serial one — so no row ever carries a zero
//! flop count.

use hodlr::{Backend, Solve, Symmetry};
use hodlr_core::ComplexityReport;
use hodlr_gp::{
    covariance_source, dense_log_likelihood, regular_grid_1d, GpConfig, GpModel, GpPosterior,
    KernelFamily, StationaryKernel,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One row of the GP likelihood table.
#[derive(Clone, Debug)]
pub struct GpRow {
    /// Kernel family label (`squared-exponential`, `matern-3/2`, ...).
    pub kernel: String,
    /// Backend label (`serial`, `batched`).
    pub backend: String,
    /// Factorization path: `lu` (general), `spd` (Cholesky fast path) or
    /// `sampling` (posterior draws + predictive variance on the SPD path).
    pub path: String,
    /// Number of observations `n`.
    pub n: usize,
    /// Compression tolerance of the covariance approximation.
    pub tol: f64,
    /// Wall-clock seconds compressing the covariance into HODLR form (for
    /// `sampling` rows: including the dense joint-prior Cholesky).
    pub t_build: f64,
    /// Wall-clock seconds factorizing (`t_factor`).
    pub t_factor: f64,
    /// Wall-clock seconds for the product-form `log_det` (for `sampling`
    /// rows: the blocked predictive-variance solve).
    pub t_logdet: f64,
    /// Wall-clock seconds scoring one observation vector (for `sampling`
    /// rows: drawing the posterior sample block).
    pub t_loglik: f64,
    /// The evaluated log-marginal likelihood.
    pub log_likelihood: f64,
    /// `|loglik_hodlr - loglik_dense_cholesky|` (for `sampling` rows: the
    /// max predictive-variance error against the dense posterior), when
    /// the dense oracle was affordable at this size.
    pub loglik_err_vs_dense: Option<f64>,
    /// Device kernel launches metered across factorize + likelihood
    /// (0 on the serial backend, which launches nothing).
    pub launches: u64,
    /// Flops: device-metered for the batched backend, the analytic
    /// factorization + solve model for the serial one.  Non-zero for every
    /// row.
    pub flops: u64,
    /// Bytes held by the factorization (the SPD path stores triangular
    /// factors and shares sibling bases, so its rows undercut LU's).
    pub factor_bytes: u64,
    /// Rayon pool size the row was measured with.
    pub threads: usize,
}

/// Sweep configuration of the `gp` binary.
#[derive(Clone, Debug)]
pub struct GpBenchConfig {
    /// Observation counts to sweep.
    pub sizes: Vec<usize>,
    /// Compression tolerances to sweep.
    pub tols: Vec<f64>,
    /// Run the dense `O(n^3)` Cholesky oracle up to this size.
    pub dense_oracle_cap: usize,
    /// Run the posterior-sampling scenario up to this size (its joint
    /// prior needs a dense `O((n+m)^3)` Cholesky).
    pub sampling_cap: usize,
    /// Posterior draws per sampling row.
    pub sampling_draws: usize,
}

impl GpBenchConfig {
    /// The seconds-scale CI sweep (`--smoke`).
    pub fn smoke() -> Self {
        GpBenchConfig {
            sizes: vec![256],
            tols: vec![1e-6, 1e-10],
            dense_oracle_cap: 512,
            sampling_cap: 512,
            sampling_draws: 64,
        }
    }

    /// The default laptop-scale sweep.
    pub fn full() -> Self {
        GpBenchConfig {
            sizes: vec![1 << 10, 1 << 12, 1 << 14],
            tols: vec![1e-6, 1e-10],
            dense_oracle_cap: 1 << 11,
            sampling_cap: 1 << 11,
            sampling_draws: 256,
        }
    }
}

/// The kernel families every sweep visits.
pub const GP_BENCH_FAMILIES: [KernelFamily; 5] = [
    KernelFamily::SquaredExponential,
    KernelFamily::MaternHalf,
    KernelFamily::MaternThreeHalves,
    KernelFamily::MaternFiveHalves,
    KernelFamily::RationalQuadratic { alpha: 2.0 },
];

/// Deterministic synthetic observations: a two-scale smooth signal.
fn bench_observations(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let x = 4.0 * i as f64 / (n - 1).max(1) as f64;
            (2.0 * x).sin() + 0.3 * (7.0 * x).cos()
        })
        .collect()
}

fn backend_label(backend: Backend) -> &'static str {
    match backend {
        Backend::Serial => "serial",
        Backend::Batched => "batched",
    }
}

/// Analytic serial flop model for one factorization + `rhs_cols` solve
/// columns on the given path.
fn serial_flops(model: &GpModel, symmetry: Symmetry, rhs_cols: u64) -> u64 {
    let report = ComplexityReport::for_matrix(
        model
            .hodlr()
            .matrix()
            .expect("benchmark models are built in working precision"),
    );
    let factor = match symmetry {
        Symmetry::General => report.factorization_flops,
        _ => report.model.symmetric_factorization_flops(),
    };
    factor + report.solve_flops * rhs_cols
}

/// Run the sweep: `n x kernel x path x backend x tolerance`, plus one
/// posterior-sampling row per backend at sizes within `sampling_cap`.
pub fn run_gp_bench(config: &GpBenchConfig) -> Vec<GpRow> {
    let threads = rayon::current_num_threads();
    let noise = 1e-2;
    let mut rows = Vec::new();
    for &n in &config.sizes {
        let points = regular_grid_1d(n, 0.0, 4.0);
        let y = bench_observations(n);
        for family in GP_BENCH_FAMILIES {
            let kernel = family.kernel(1.0, 0.5);
            // The dense oracle depends only on (kernel, n): evaluate it
            // once and compare every (path, backend, tol) row against it.
            let oracle = if n <= config.dense_oracle_cap {
                let source = covariance_source(&kernel, &points, noise);
                let dense = hodlr_compress::MatrixEntrySource::to_dense(&source);
                Some(dense_log_likelihood(&dense, &y).expect("oracle covariance is SPD"))
            } else {
                None
            };
            for &tol in &config.tols {
                for symmetry in [Symmetry::General, Symmetry::PositiveDefinite] {
                    let path = match symmetry {
                        Symmetry::General => "lu",
                        _ => "spd",
                    };
                    // Compression is backend-independent: build once per
                    // (kernel, tol, path) and hand the same compressed
                    // covariance to the batched backend via `with_backend`.
                    let gp_config = GpConfig {
                        backend: Backend::Serial,
                        tolerance: tol,
                        symmetry,
                        ..GpConfig::default()
                    };
                    let start = Instant::now();
                    let base = GpModel::build(&kernel, &points, noise, &gp_config)
                        .expect("GP covariance construction");
                    let t_compress = start.elapsed().as_secs_f64();
                    for backend in [Backend::Serial, Backend::Batched] {
                        let (model, t_build) = match backend {
                            Backend::Serial => (None, t_compress),
                            Backend::Batched => {
                                let start = Instant::now();
                                let m = base.with_backend(backend).expect("backend rewrap");
                                (Some(m), t_compress + start.elapsed().as_secs_f64())
                            }
                        };
                        let model = model.as_ref().unwrap_or(&base);

                        // The metered window is exactly one likelihood
                        // evaluation: factorize, one determinant term, one
                        // solve — nothing is evaluated twice for timing.
                        let device = model.hodlr().device();
                        let before = device.counters();
                        let start = Instant::now();
                        let factorization = model.factorize().expect("GP covariance is SPD");
                        let t_factor = start.elapsed().as_secs_f64();

                        let start = Instant::now();
                        let log_det = model
                            .log_det_term(&factorization)
                            .expect("covariance is SPD");
                        let t_logdet = start.elapsed().as_secs_f64();

                        let start = Instant::now();
                        let ll = model
                            .log_likelihood_terms(&factorization, log_det, &y)
                            .expect("GP likelihood");
                        let t_loglik = start.elapsed().as_secs_f64();
                        let metered = device.counters().since(&before);

                        let flops = match backend {
                            Backend::Batched => metered.flops,
                            // The serial backend launches nothing on the
                            // device; report the analytic Theorem 2-4
                            // model (or its symmetric-path variant).
                            Backend::Serial => serial_flops(model, symmetry, 1),
                        };
                        rows.push(GpRow {
                            kernel: family.name().to_string(),
                            backend: backend_label(backend).to_string(),
                            path: path.to_string(),
                            n,
                            tol,
                            t_build,
                            t_factor,
                            t_logdet,
                            t_loglik,
                            log_likelihood: ll.value,
                            loglik_err_vs_dense: oracle
                                .as_ref()
                                .map(|o| (ll.value - o.value).abs()),
                            launches: metered.kernel_launches,
                            flops,
                            factor_bytes: factorization.factor_bytes(),
                            threads,
                        });
                    }
                }
            }
        }
        if n <= config.sampling_cap {
            rows.extend(run_sampling_rows(config, n, &points, &y, noise, threads));
        }
    }
    rows
}

/// The posterior-sampling scenario: predictive variance + Matheron draws
/// through the SPD fast path, one row per backend.
fn run_sampling_rows(
    config: &GpBenchConfig,
    n: usize,
    points: &hodlr_tree::PointCloud,
    y: &[f64],
    noise: f64,
    threads: usize,
) -> Vec<GpRow> {
    let family = KernelFamily::SquaredExponential;
    let kernel = family.kernel(1.0, 0.5);
    let tol = *config.tols.last().expect("at least one tolerance");
    let test = regular_grid_1d(16, 0.1, 3.9);
    let m = test.len();
    // Dense posterior-variance oracle at oracle-affordable sizes.
    let oracle_var = if n <= config.dense_oracle_cap {
        let k =
            hodlr_compress::MatrixEntrySource::to_dense(&covariance_source(&kernel, points, noise));
        let factor = hodlr_la::SymmetricFactor::new(&k, hodlr_la::SymmetricPolicy::Strict)
            .expect("oracle covariance is SPD");
        let cross = hodlr_la::DenseMatrix::from_fn(n, m, |i, j| {
            let d = (points.point(i)[0] - test.point(j)[0]).abs();
            kernel.eval(d)
        });
        let w = factor.solve_matrix(&cross);
        Some(
            (0..m)
                .map(|j| {
                    let explained: f64 =
                        cross.col(j).iter().zip(w.col(j)).map(|(a, b)| a * b).sum();
                    kernel.variance() - explained
                })
                .collect::<Vec<f64>>(),
        )
    } else {
        None
    };
    let mut rows = Vec::new();
    for backend in [Backend::Serial, Backend::Batched] {
        let gp_config = GpConfig {
            backend,
            tolerance: tol,
            symmetry: Symmetry::PositiveDefinite,
            ..GpConfig::default()
        };
        let start = Instant::now();
        let posterior = GpPosterior::new(&kernel, points, &test, noise, &gp_config)
            .expect("posterior construction");
        let t_build = start.elapsed().as_secs_f64();

        let device = posterior.model().hodlr().device();
        let before = device.counters();
        let start = Instant::now();
        let factorization = posterior.factorize().expect("GP covariance is SPD");
        let t_factor = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let variance = posterior.variance(&factorization).expect("variance solve");
        let t_variance = start.elapsed().as_secs_f64();

        let mut rng = StdRng::seed_from_u64(0x5eed + n as u64);
        let start = Instant::now();
        let draws = posterior
            .draws(&factorization, y, &mut rng, config.sampling_draws)
            .expect("posterior draws");
        let t_draws = start.elapsed().as_secs_f64();
        let metered = device.counters().since(&before);

        // A finite summary statistic for the shared `log_likelihood`
        // column: the mean drawn value across test points and draws.
        let mean_draw = draws.data().iter().sum::<f64>() / (draws.rows() * draws.cols()) as f64;
        let var_err = oracle_var.as_ref().map(|exact| {
            variance
                .iter()
                .zip(exact)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max)
        });
        let flops = match backend {
            Backend::Batched => metered.flops,
            Backend::Serial => serial_flops(
                posterior.model(),
                Symmetry::PositiveDefinite,
                (m + config.sampling_draws) as u64,
            ),
        };
        rows.push(GpRow {
            kernel: family.name().to_string(),
            backend: backend_label(backend).to_string(),
            path: "sampling".to_string(),
            n,
            tol,
            t_build,
            t_factor,
            t_logdet: t_variance,
            t_loglik: t_draws,
            log_likelihood: mean_draw,
            loglik_err_vs_dense: var_err,
            launches: metered.kernel_launches,
            flops,
            factor_bytes: factorization.factor_bytes(),
            threads,
        });
    }
    rows
}

/// Print rows in the aligned table layout of the other harnesses.
pub fn print_gp_table(title: &str, rows: &[GpRow]) {
    println!("== {title}");
    println!(
        "{:<22} {:<8} {:<8} {:<9} {:<10} {:>12} {:>12} {:>12} {:>16} {:>14} {:>10}",
        "kernel",
        "N",
        "backend",
        "path",
        "tol",
        "t_f [s]",
        "t_logdet [s]",
        "t_loglik [s]",
        "loglik",
        "err vs dense",
        "launches"
    );
    for row in rows {
        println!(
            "{:<22} {:<8} {:<8} {:<9} {:<10.1e} {:>12.4e} {:>12.4e} {:>12.4e} {:>16.6} {:>14} {:>10}",
            row.kernel,
            row.n,
            row.backend,
            row.path,
            row.tol,
            row.t_factor,
            row.t_logdet,
            row.t_loglik,
            row.log_likelihood,
            row.loglik_err_vs_dense
                .map_or("-".to_string(), |e| format!("{e:.3e}")),
            row.launches
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_produces_metered_accurate_rows() {
        let config = GpBenchConfig {
            sizes: vec![192],
            tols: vec![1e-10],
            dense_oracle_cap: 256,
            sampling_cap: 256,
            sampling_draws: 32,
        };
        let rows = run_gp_bench(&config);
        // 5 kernels x 2 paths x 2 backends x 1 tolerance + 2 sampling rows.
        assert_eq!(rows.len(), 22);
        for row in &rows {
            assert!(row.flops > 0, "{} {}: zero flops", row.kernel, row.backend);
            assert!(row.factor_bytes > 0);
            assert!(row.log_likelihood.is_finite());
            let err = row.loglik_err_vs_dense.expect("oracle runs at n=192");
            assert!(
                err < 1e-6,
                "{} {} {}: err {err}",
                row.kernel,
                row.backend,
                row.path
            );
            if row.backend == "batched" {
                assert!(row.launches > 0);
            }
        }
        // The SPD path beats LU on flops for every matching (kernel,
        // backend) pair — metered counters on the batched backend, the
        // analytic model on the serial one.  Factorization bytes shrink
        // strictly on both backends: one sweep counts its symmetric factors
        // as triangles, whichever device it ran on.
        let lu: Vec<&GpRow> = rows.iter().filter(|r| r.path == "lu").collect();
        let spd: Vec<&GpRow> = rows.iter().filter(|r| r.path == "spd").collect();
        assert_eq!(lu.len(), spd.len());
        for (l, s) in lu.iter().zip(&spd) {
            assert_eq!((&l.kernel, &l.backend), (&s.kernel, &s.backend));
            assert!(
                s.flops < l.flops,
                "{}/{}: {} !< {}",
                s.kernel,
                s.backend,
                s.flops,
                l.flops
            );
            assert!(s.factor_bytes < l.factor_bytes);
            // Same likelihood through either factorization path.
            assert!((l.log_likelihood - s.log_likelihood).abs() < 1e-8);
        }
        assert_eq!(rows.iter().filter(|r| r.path == "sampling").count(), 2);
        print_gp_table("smoke", &rows);
    }
}
