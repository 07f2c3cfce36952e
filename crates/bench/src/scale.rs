//! The scale-out family: streaming, memory-budgeted assembly at
//! `n >= 10^5` over 2-D / 3-D geometries, written to `BENCH_scale.json`.
//!
//! Every row builds one HODLR operator *from its entry source* under an
//! explicit memory budget (the build fails, typed, if the metered live
//! footprint would exceed it), factorizes it, solves one right-hand side
//! and reports wall clocks together with the **measured** peak build
//! footprint from the allocation meter — the number the streaming
//! assembly pipeline exists to bound.  Workloads:
//!
//! * `laplace-surface` — the regularized single-layer operator of
//!   [`hodlr_bie::surface`] over the unit circle (2-D) or the Fibonacci
//!   sphere (3-D), clouds deliberately shuffled so the d-dimensional
//!   partitioner does the spatial ordering;
//! * `helmholtz-surface` — its complex oscillatory variant at a resolved
//!   wavenumber;
//! * `gp-se` — a squared-exponential GP covariance (with nugget) over
//!   uniform points in `[0, 1]^d`, reordered by the same partitioner.
//!
//! Rows come in two storage precisions: `f64` (working) and
//! `f32-storage` ([`Precision::CompactLower`] — the operator is
//! assembled straight into `f32` through the demoting source view, so the
//! `f64` matrix never exists, and solves recover working accuracy by
//! iterative refinement).  The `f32-storage` twin of a row must hold
//! strictly fewer bytes; CI checks that from the JSON.
//!
//! Accuracy is `relres`, the relative residual of the solved system
//! against the operator's own matvec (meaningful at any size); rows with
//! `n <= dense_check_cap` additionally compare the HODLR matvec against
//! the dense source on a fixed vector (`compress_err`) — above the cap no
//! dense oracle is ever formed.

use crate::workloads::LEAF_SIZE;
use hodlr::{Factorize, Hodlr, Precision, Solve, SolveScalar};
use hodlr_bie::{
    circle_cloud, fibonacci_sphere_cloud, surface_resolved_kappa, HelmholtzSurfaceSource,
    LaplaceSurfaceSource,
};
use hodlr_compress::{CompressionMethod, MatrixEntrySource};
use hodlr_gp::spatial_points;
use hodlr_la::{HodlrError, RealScalar};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One row of the scale table.
#[derive(Clone, Debug)]
pub struct ScaleRow {
    /// Workload label (`laplace-surface`, `helmholtz-surface`, `gp-se`).
    pub workload: String,
    /// Spatial dimension of the point cloud (2 or 3).
    pub dim: usize,
    /// Matrix size.
    pub n: usize,
    /// Storage precision: `f64` (working) or `f32-storage` (compact).
    pub precision: String,
    /// The memory budget the build ran under, in bytes.
    pub budget_bytes: u64,
    /// Wall-clock seconds of the streaming build.
    pub t_build: f64,
    /// Wall-clock seconds of the factorization.
    pub t_factor: f64,
    /// Wall-clock seconds of one right-hand-side solve.
    pub t_solve: f64,
    /// Measured peak bytes live during the build (allocation meter).
    pub peak_bytes: u64,
    /// Bytes held by the finished HODLR representation.
    pub storage_bytes: u64,
    /// Largest off-diagonal block rank.
    pub max_rank: usize,
    /// Relative residual of the solve against the operator's matvec.
    pub relres: f64,
    /// HODLR-vs-dense matvec error (rows with `n <= dense_check_cap`
    /// only; no dense oracle is formed above the cap).
    pub compress_err: Option<f64>,
    /// Rayon pool size of the run.
    pub threads: usize,
}

/// Sweep configuration of the `scale` binary.
#[derive(Clone, Debug)]
pub struct ScaleBenchConfig {
    /// `(dim, n)` cells of the Laplace surface workload, run at both
    /// storage precisions.
    pub laplace_cells: Vec<(usize, usize)>,
    /// `(dim, n)` cells of the Helmholtz surface workload (`f64` only).
    pub helmholtz_cells: Vec<(usize, usize)>,
    /// `(dim, n)` cells of the GP covariance workload (`f64` only).
    pub gp_cells: Vec<(usize, usize)>,
    /// Compression tolerance.
    pub tol: f64,
    /// Memory budget every build runs under, in bytes.
    pub budget_bytes: u64,
    /// Compare against the dense source up to this size — never above.
    pub dense_check_cap: usize,
}

impl ScaleBenchConfig {
    /// The seconds-scale CI sweep (`--smoke`).
    pub fn smoke() -> Self {
        ScaleBenchConfig {
            laplace_cells: vec![(2, 1024), (3, 2048)],
            helmholtz_cells: vec![(3, 1024)],
            gp_cells: vec![(2, 1024)],
            tol: 1e-6,
            budget_bytes: 512 << 20,
            dense_check_cap: 2048,
        }
    }

    /// The scale-out sweep with the `n >= 10^5` acceptance row.
    pub fn full() -> Self {
        ScaleBenchConfig {
            laplace_cells: vec![(2, 1 << 17), (3, 1 << 14)],
            helmholtz_cells: vec![(3, 1 << 13)],
            gp_cells: vec![(2, 1 << 16), (3, 1 << 17)],
            tol: 1e-6,
            // The 2-D Laplace cell at n = 2^17 peaks at ~7.6 GB during
            // the flattened-base copy (the build transiently holds the
            // per-node factors and the flattened bases at once, ~2x the
            // resident storage); 12 GiB leaves that cell real headroom
            // while still being a meaningful ceiling the meter must
            // prove it stayed under.
            budget_bytes: 12 << 30,
            dense_check_cap: 1 << 13,
        }
    }
}

/// Everything `run_case` needs from a workload, independent of scalar
/// type.
struct CaseResult {
    t_build: f64,
    t_factor: f64,
    t_solve: f64,
    peak_bytes: u64,
    storage_bytes: u64,
    max_rank: usize,
    relres: f64,
    compress_err: Option<f64>,
}

/// Build / factorize / solve one operator and measure everything.
fn run_case<T: SolveScalar>(
    build: impl FnOnce() -> Result<Hodlr<T>, HodlrError>,
    source: &dyn MatrixEntrySource<T>,
    dense_check: bool,
) -> Result<CaseResult, HodlrError> {
    let start = Instant::now();
    let hodlr = build()?;
    let t_build = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let factorization = hodlr.factorize()?;
    let t_factor = start.elapsed().as_secs_f64();

    let n = hodlr.n();
    let b: Vec<T> = (0..n)
        .map(|i| T::from_f64((i as f64 * 0.37).sin() + 1.5))
        .collect();
    let start = Instant::now();
    let x = factorization.solve(&b)?;
    let t_solve = start.elapsed().as_secs_f64();
    let relres = hodlr.relative_residual(&x, &b).to_f64();

    // The HODLR-vs-source check never materializes the dense matrix above
    // the cap; at small sizes it compares matvecs entry-source-exactly.
    let compress_err = if dense_check {
        let dense = source.to_dense();
        let probe: Vec<T> = (0..n)
            .map(|i| T::from_f64(((i as f64) * 0.61).cos()))
            .collect();
        let exact = dense.matvec(&probe);
        let approx = hodlr.matvec(&probe);
        let mut diff = 0.0f64;
        let mut norm = 0.0f64;
        for (e, a) in exact.iter().zip(&approx) {
            diff += (*e - *a).abs_sqr().to_f64();
            norm += e.abs_sqr().to_f64();
        }
        Some((diff / norm.max(f64::MIN_POSITIVE)).sqrt())
    } else {
        None
    };

    Ok(CaseResult {
        t_build,
        t_factor,
        t_solve,
        peak_bytes: hodlr.build_peak_bytes(),
        storage_bytes: hodlr.storage_bytes(),
        max_rank: hodlr.max_rank(),
        relres,
        compress_err,
    })
}

fn row_from(
    workload: &str,
    dim: usize,
    n: usize,
    precision: &str,
    config: &ScaleBenchConfig,
    result: CaseResult,
) -> ScaleRow {
    ScaleRow {
        workload: workload.to_string(),
        dim,
        n,
        precision: precision.to_string(),
        budget_bytes: config.budget_bytes,
        t_build: result.t_build,
        t_factor: result.t_factor,
        t_solve: result.t_solve,
        peak_bytes: result.peak_bytes,
        storage_bytes: result.storage_bytes,
        max_rank: result.max_rank,
        relres: result.relres,
        compress_err: result.compress_err,
        threads: rayon::current_num_threads(),
    }
}

fn surface_cloud(dim: usize, n: usize) -> hodlr_tree::PointCloud {
    if dim == 2 {
        circle_cloud(n)
    } else {
        fibonacci_sphere_cloud(n)
    }
}

/// The Laplace surface cell at one storage precision.
fn laplace_row(
    dim: usize,
    n: usize,
    precision: Precision,
    config: &ScaleBenchConfig,
) -> Result<ScaleRow, HodlrError> {
    let source = LaplaceSurfaceSource::new(&surface_cloud(dim, n), LEAF_SIZE)?;
    let tree = source.tree().clone();
    let result = run_case(
        || {
            Hodlr::builder()
                .source(&source)
                .tree(tree)
                .tolerance(config.tol)
                .method(CompressionMethod::AcaRook)
                .memory_budget(config.budget_bytes)
                .precision(precision)
                .build()
        },
        &source,
        n <= config.dense_check_cap,
    )?;
    let label = match precision {
        Precision::Full | Precision::MixedRefine => "f64",
        Precision::CompactLower => "f32-storage",
    };
    Ok(row_from("laplace-surface", dim, n, label, config, result))
}

/// The Helmholtz surface cell (complex, working precision).
fn helmholtz_row(dim: usize, n: usize, config: &ScaleBenchConfig) -> Result<ScaleRow, HodlrError> {
    let kappa = surface_resolved_kappa(n, dim);
    let source = HelmholtzSurfaceSource::new(&surface_cloud(dim, n), LEAF_SIZE, kappa)?;
    let tree = source.tree().clone();
    let result = run_case(
        || {
            Hodlr::builder()
                .source(&source)
                .tree(tree)
                .tolerance(config.tol)
                .method(CompressionMethod::AcaRook)
                .memory_budget(config.budget_bytes)
                .build()
        },
        &source,
        n <= config.dense_check_cap,
    )?;
    Ok(row_from("helmholtz-surface", dim, n, "f64", config, result))
}

/// The GP covariance cell: squared-exponential kernel with nugget over
/// uniform points in `[0, 1]^dim`, spatially reordered.
fn gp_row(dim: usize, n: usize, config: &ScaleBenchConfig) -> Result<ScaleRow, HodlrError> {
    let mut rng = StdRng::seed_from_u64(0x5ca1e + ((dim as u64) << 32) + n as u64);
    let part = spatial_points(&mut rng, n, dim, LEAF_SIZE);
    let kernel = hodlr_gp::SquaredExponential {
        variance: 1.0,
        // Length scale tied to the mean spacing so ranks stay bounded as
        // the cloud refines (a fixed scale over a fixed domain makes the
        // matrix numerically low-rank globally, which measures nothing).
        // The 8x multiplier balances two opposing pressures: interface
        // ranks grow like (cluster diameter / length scale)^(d-1), so a
        // tighter scale inflates every off-diagonal rank, while a wider
        // scale inflates the top eigenvalue and with it the compression
        // noise the nugget has to dominate.
        length_scale: 8.0 * (1.0 / (n as f64)).powf(1.0 / dim as f64),
    };
    // The nugget has to dominate the compression noise for the factorized
    // solve to stay tight: truncating off-diagonal blocks at `tol`
    // relative to their norm perturbs the operator by ~`tol * lambda_max`
    // (hundreds of times `tol` at n ~ 1e5), and a nugget below that
    // perturbation leaves the compressed covariance near-singular.  A 10%
    // noise floor is also the realistic regime for spatial regression at
    // this scale.
    let source = hodlr_gp::covariance_source(&kernel, &part.points, 1e-2);
    let result = run_case(
        || {
            Hodlr::builder()
                .source(&source)
                .tree(part.tree.clone())
                .tolerance(config.tol)
                .method(CompressionMethod::AcaRook)
                .memory_budget(config.budget_bytes)
                .build()
        },
        &source,
        n <= config.dense_check_cap,
    )?;
    Ok(row_from("gp-se", dim, n, "f64", config, result))
}

/// Run the sweep: every Laplace cell at both storage precisions, then the
/// Helmholtz and GP cells.
///
/// # Errors
/// The first build / factorization / budget error aborts the sweep (a
/// budget violation is a real failure of the streaming pipeline, not a
/// row to skip).
pub fn run_scale_bench(config: &ScaleBenchConfig) -> Result<Vec<ScaleRow>, HodlrError> {
    let mut rows = Vec::new();
    for &(dim, n) in &config.laplace_cells {
        rows.push(laplace_row(dim, n, Precision::Full, config)?);
        rows.push(laplace_row(dim, n, Precision::CompactLower, config)?);
    }
    for &(dim, n) in &config.helmholtz_cells {
        rows.push(helmholtz_row(dim, n, config)?);
    }
    for &(dim, n) in &config.gp_cells {
        rows.push(gp_row(dim, n, config)?);
    }
    Ok(rows)
}

/// Print rows in the aligned table layout of the other harnesses.
pub fn print_scale_table(title: &str, rows: &[ScaleRow]) {
    println!("== {title}");
    println!(
        "{:<18} {:>3} {:>8} {:<12} {:>11} {:>11} {:>10} {:>10} {:>10} {:>5} {:>11} {:>12}",
        "workload",
        "dim",
        "N",
        "precision",
        "t_build[s]",
        "t_factor[s]",
        "peak[MiB]",
        "store[MiB]",
        "t_solve[s]",
        "rank",
        "relres",
        "compress_err"
    );
    for row in rows {
        println!(
            "{:<18} {:>3} {:>8} {:<12} {:>11.3} {:>11.3} {:>10.1} {:>10.1} {:>10.4} {:>5} {:>11.3e} {:>12}",
            row.workload,
            row.dim,
            row.n,
            row.precision,
            row.t_build,
            row.t_factor,
            row.peak_bytes as f64 / (1 << 20) as f64,
            row.storage_bytes as f64 / (1 << 20) as f64,
            row.t_solve,
            row.max_rank,
            row.relres,
            row.compress_err
                .map_or("-".to_string(), |e| format!("{e:.3e}")),
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_meters_budgets_and_stays_accurate() {
        let config = ScaleBenchConfig {
            laplace_cells: vec![(2, 512), (3, 512)],
            helmholtz_cells: vec![(3, 384)],
            gp_cells: vec![(2, 384)],
            tol: 1e-6,
            budget_bytes: 256 << 20,
            dense_check_cap: 512,
        };
        let rows = run_scale_bench(&config).expect("smoke sweep");
        // 2 Laplace cells x 2 precisions + 1 Helmholtz + 1 GP.
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.peak_bytes > 0, "{}: unmetered build", row.workload);
            assert!(
                row.peak_bytes <= row.budget_bytes,
                "{}: peak over budget",
                row.workload
            );
            assert!(
                row.relres.is_finite() && row.relres < 1e-7,
                "{} {}: relres {}",
                row.workload,
                row.precision,
                row.relres
            );
            let err = row.compress_err.expect("all smoke rows under the cap");
            assert!(err < 1e-4, "{}: compress_err {err}", row.workload);
        }
        // The compact twin stores strictly fewer bytes than its f64 row.
        for pair in rows.chunks(2).take(2) {
            assert_eq!(pair[0].precision, "f64");
            assert_eq!(pair[1].precision, "f32-storage");
            assert!(
                pair[1].storage_bytes < pair[0].storage_bytes,
                "compact twin not smaller: {} vs {}",
                pair[1].storage_bytes,
                pair[0].storage_bytes
            );
        }
        print_scale_table("smoke", &rows);
    }
}
