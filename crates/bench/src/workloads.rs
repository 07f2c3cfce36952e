//! Workload generators: the three problem families of the evaluation.

use hodlr::Hodlr;
use hodlr_bie::{HelmholtzExteriorBie, LaplaceExteriorBie, StarContour};
use hodlr_compress::CompressionMethod;
use hodlr_core::HodlrMatrix;
use hodlr_kernels::{RpyKernel, RpyMatrixSource};
use hodlr_la::Complex64;
use hodlr_tree::{partition_points, ClusterTree};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Leaf (diagonal block) size used throughout, matching the paper's 64.
pub const LEAF_SIZE: usize = 64;

/// Command-line arguments of the `paper` and `iterative` binaries.
#[derive(Clone, Debug)]
pub struct SweepArgs {
    /// The `--sizes` list, which replaces every default sweep.
    pub sizes: Option<Vec<usize>>,
    /// Whether the paper's original sizes were requested (`--full`).
    pub full: bool,
    /// Skip the slowest solvers (HODLRlib-style and block-sparse) above
    /// this size.
    pub baseline_cap: usize,
}

impl SweepArgs {
    /// The sizes to sweep: the `--sizes` list if one was given, else
    /// `full_sizes` under `--full`, else `default_sizes`.
    pub fn sizes_or(&self, default_sizes: &[usize], full_sizes: &[usize]) -> Vec<usize> {
        match &self.sizes {
            Some(sizes) => sizes.clone(),
            None if self.full => full_sizes.to_vec(),
            None => default_sizes.to_vec(),
        }
    }
}

/// Parse `--full`, `--sizes a,b,c` and `--baseline-cap K` from `args`, the
/// command line without the program name.
///
/// # Errors
/// Names the offending argument when a size is not a positive integer,
/// the `--sizes` list is empty or missing, the cap is missing or not a
/// non-negative integer, or an argument is none of the three.
pub fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<SweepArgs, String> {
    let mut parsed = SweepArgs {
        sizes: None,
        full: false,
        baseline_cap: 1 << 14,
    };
    let mut args = args.iter().map(AsRef::as_ref);
    while let Some(arg) = args.next() {
        match arg {
            "--full" => parsed.full = true,
            "--sizes" => {
                let list = args.next().ok_or("--sizes needs a list of sizes")?;
                if list.trim().is_empty() {
                    return Err("--sizes: the list is empty".into());
                }
                let sizes = list
                    .split(',')
                    .map(|size| match size.trim().parse::<usize>() {
                        Ok(n) if n > 0 => Ok(n),
                        _ => Err(format!("--sizes: {size:?} is not a positive integer")),
                    })
                    .collect::<Result<_, _>>()?;
                parsed.sizes = Some(sizes);
            }
            "--baseline-cap" => {
                let cap = args.next().ok_or("--baseline-cap needs a size")?;
                parsed.baseline_cap = cap.trim().parse().map_err(|_| {
                    format!("--baseline-cap: {cap:?} is not a non-negative integer")
                })?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// Build the Table III workload: the RPY kernel matrix over `n / 3`
/// particles uniformly distributed in `[-1, 1]^3`, spatially ordered, and
/// compressed at `tol` (the paper uses `1e-12`).
///
/// Returns the HODLR approximation; `n` is rounded down to a multiple of 3.
pub fn rpy_hodlr(n: usize, tol: f64) -> HodlrMatrix<f64> {
    let particles = (n / 3).max(2);
    let mut rng = StdRng::seed_from_u64(0x5eed + particles as u64);
    // Particles drawn uniformly from the interval [-1, 1] (embedded in 3-D),
    // the distribution of the HODLRlib benchmark the paper compares against;
    // it is what gives the near-constant per-level ranks of the appendix.
    let coords: Vec<f64> = (0..particles)
        .flat_map(|_| {
            let x: f64 = rand::Rng::gen_range(&mut rng, -1.0..1.0);
            [x, 0.0, 0.0]
        })
        .collect();
    let cloud = hodlr_tree::PointCloud::new(3, coords);
    let part = partition_points(&cloud, (LEAF_SIZE / 3).max(2)).expect("non-empty cloud");
    // Particle radius a = r_min / 2, estimated on a subsample for large
    // clouds (exact minimum distance is quadratic in the cloud size).
    let sample = if particles > 2000 {
        let coords: Vec<f64> = (0..2000 * 3)
            .map(|i| part.points.point(i / 3)[i % 3])
            .collect();
        hodlr_tree::PointCloud::new(3, coords)
    } else {
        part.points.clone()
    };
    let kernel = RpyKernel::paper_benchmark(sample.min_distance());
    let source = RpyMatrixSource::new(kernel, &part.points);
    // The matrix size is 3 * particles; build a tree over it that keeps the
    // three components of one particle in the same leaf.
    let matrix_size = 3 * particles;
    let tree = ClusterTree::with_leaf_size(matrix_size, LEAF_SIZE);
    Hodlr::builder()
        .source(&source)
        .tree(tree)
        .tolerance(tol)
        .method(CompressionMethod::AcaRook)
        .build()
        .expect("RPY workload construction")
        .into_matrix()
        .expect("benchmark workloads build in working precision")
}

/// Build the Table IV workload: the Laplace exterior BIE (Eq. 21) on the
/// star contour, discretized with the trapezoidal rule on `n` nodes and
/// compressed at `tol` (`1e-12` for Table IV(a), `1e-4` for Table IV(b)).
pub fn laplace_hodlr(n: usize, tol: f64) -> (LaplaceExteriorBie<StarContour>, HodlrMatrix<f64>) {
    let bie = LaplaceExteriorBie::new(StarContour::paper_contour(), n);
    let matrix = Hodlr::builder()
        .source(&bie)
        .leaf_size(LEAF_SIZE)
        .tolerance(tol)
        .method(CompressionMethod::AcaRook)
        .build()
        .expect("Laplace BIE workload construction")
        .into_matrix()
        .expect("benchmark workloads build in working precision");
    (bie, matrix)
}

/// Build the Table V workload: the Helmholtz combined-field BIE (Eq. 24)
/// with `eta = kappa`, discretized with the 6th-order Kapur–Rokhlin rule on
/// `n` nodes and compressed at `tol`.
///
/// The paper uses `kappa = 100`; at the scaled-down default sizes the
/// wavenumber is reduced proportionally so the boundary stays resolved
/// (about 10 points per wavelength), which preserves the qualitative
/// behaviour (higher ranks than Laplace, complex arithmetic).
pub fn helmholtz_hodlr(
    n: usize,
    kappa: f64,
    tol: f64,
) -> (HelmholtzExteriorBie<StarContour>, HodlrMatrix<Complex64>) {
    let bie = HelmholtzExteriorBie::with_paper_parameters(StarContour::paper_contour(), n, kappa);
    let matrix = Hodlr::builder()
        .source(&bie)
        .leaf_size(LEAF_SIZE)
        .tolerance(tol)
        .method(CompressionMethod::AcaRook)
        .build()
        .expect("Helmholtz BIE workload construction")
        .into_matrix()
        .expect("benchmark workloads build in working precision");
    (bie, matrix)
}

/// A wavenumber that keeps roughly ten discretization points per wavelength
/// on the paper's contour (perimeter about 11) for a given `n`; capped at
/// the paper's `kappa = 100`.
pub fn resolved_kappa(n: usize) -> f64 {
    let perimeter = 11.0;
    let kappa = 2.0 * std::f64::consts::PI * n as f64 / (10.0 * perimeter);
    kappa.min(100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpy_workload_builds_and_is_accurate() {
        let matrix = rpy_hodlr(3 * 256, 1e-8);
        assert_eq!(matrix.n(), 3 * 256);
        assert!(matrix.max_rank() > 0);
        // Spot-check the solve pipeline end to end.
        let f = matrix.factorize_serial().unwrap();
        let b = vec![1.0; matrix.n()];
        let x = f.solve(&b);
        assert!(matrix.relative_residual(&x, &b) < 1e-6);
    }

    #[test]
    fn laplace_workload_builds_and_is_accurate() {
        let (_bie, matrix) = laplace_hodlr(512, 1e-10);
        assert_eq!(matrix.n(), 512);
        let f = matrix.factorize_serial().unwrap();
        let b: Vec<f64> = (0..512).map(|i| (i as f64 * 0.01).sin()).collect();
        let x = f.solve(&b);
        assert!(matrix.relative_residual(&x, &b) < 1e-8);
    }

    #[test]
    fn helmholtz_workload_builds_and_is_accurate() {
        let kappa = resolved_kappa(512);
        let (_bie, matrix) = helmholtz_hodlr(512, kappa, 1e-8);
        assert_eq!(matrix.n(), 512);
        let f = matrix.factorize_serial().unwrap();
        let b: Vec<Complex64> = (0..512)
            .map(|i| Complex64::new((i as f64 * 0.02).cos(), (i as f64 * 0.03).sin()))
            .collect();
        let x = f.solve(&b);
        assert!(matrix.relative_residual(&x, &b) < 1e-6);
    }

    #[test]
    fn parse_args_defaults() {
        let args = parse_args::<&str>(&[]).expect("no arguments is valid");
        assert_eq!(args.sizes_or(&[1024, 2048], &[1 << 17]), vec![1024, 2048]);
        assert!(!args.full);
        assert_eq!(args.baseline_cap, 1 << 14);
    }

    #[test]
    fn parse_args_reads_every_flag() {
        let args = parse_args(&["--full", "--baseline-cap", "4096", "--sizes", "512, 1024"])
            .expect("valid arguments");
        assert_eq!(args.sizes_or(&[1], &[2]), vec![512, 1024]);
        assert!(args.full);
        assert_eq!(args.baseline_cap, 4096);
        let full = parse_args(&["--full"]).expect("valid arguments");
        assert_eq!(full.sizes_or(&[1], &[2]), vec![2]);
    }

    #[test]
    fn a_size_that_is_not_a_positive_integer_is_an_error() {
        for bad in ["3o72", "1024,abc", "0", "-8", "1024,"] {
            let err = parse_args(&["--sizes", bad]).expect_err(bad);
            assert!(err.contains("is not a positive integer"), "{bad}: {err}");
        }
        let err = parse_args(&["--sizes", "3o72"]).unwrap_err();
        assert!(err.contains("3o72"), "{err}");
    }

    #[test]
    fn an_empty_or_missing_size_list_is_an_error() {
        for args in [&["--sizes", ""][..], &["--sizes", "  "], &["--sizes"]] {
            let err = parse_args(args).expect_err("no sizes");
            assert!(err.starts_with("--sizes"), "{args:?}: {err}");
        }
    }

    #[test]
    fn a_bad_baseline_cap_is_an_error() {
        let err = parse_args(&["--baseline-cap", "lots"]).unwrap_err();
        assert!(err.contains("\"lots\""), "{err}");
        assert!(parse_args(&["--baseline-cap", "-1"]).is_err());
        assert!(parse_args(&["--baseline-cap"]).is_err());
    }

    #[test]
    fn an_unknown_argument_is_an_error() {
        let err = parse_args(&["--size", "1024"]).unwrap_err();
        assert!(err.contains("\"--size\""), "{err}");
    }

    #[test]
    fn resolved_kappa_is_capped() {
        assert!(resolved_kappa(1 << 20) <= 100.0);
        assert!(resolved_kappa(512) > 1.0);
    }
}
