//! The Gaussian-process log-marginal likelihood on a HODLR covariance.
//!
//! For observations `y ~ N(0, K)` with `K = K_f + sigma_n^2 I`, the
//! log-marginal likelihood is
//!
//! ```text
//! log p(y) = -1/2 y^T K^{-1} y - 1/2 log|K| - n/2 log(2 pi)
//! ```
//!
//! — exactly the `solve` + `log_det` pair the HODLR factorization provides
//! in `O(N log^2 N)`: the quadratic form comes from one
//! [`Solve::solve`](hodlr::Solve::solve()) and the log-determinant from the
//! product form of the paper's Section III-E (a), on either the serial or
//! the batched backend (the two agree bitwise).

use crate::kernels::StationaryKernel;
use crate::source::covariance_source;
use hodlr::{Backend, Factorization, Factorize, Hodlr, Solve, Symmetry};
use hodlr_la::HodlrError;
use hodlr_tree::{ClusterTree, PointCloud};

/// Configuration of the HODLR approximation behind a [`GpModel`].
#[derive(Clone, Debug)]
pub struct GpConfig {
    /// Factorization backend (default [`Backend::Serial`]).
    pub backend: Backend,
    /// Relative compression tolerance of the covariance approximation
    /// (default `1e-10`; the likelihood inherits this error level).
    pub tolerance: f64,
    /// Leaf size of the cluster tree (default 64, the paper's choice).
    pub leaf_size: usize,
    /// Explicit cluster tree (e.g. from
    /// [`clustered_points_1d`](crate::clustered_points_1d)); overrides
    /// `leaf_size` when set.
    pub tree: Option<ClusterTree>,
    /// Declared symmetry of the covariance (default [`Symmetry::General`],
    /// the LU path).  A GP covariance `K + sigma_n^2 I` is symmetric
    /// positive definite by construction, so
    /// [`Symmetry::PositiveDefinite`] is always sound here and routes the
    /// factorization through the Cholesky fast path: half the low-rank
    /// storage, roughly half the factorization flops, and a typed
    /// [`HodlrError::NotPositiveDefinite`] if compression error ever
    /// pushes a leaf indefinite.
    pub symmetry: Symmetry,
}

impl Default for GpConfig {
    fn default() -> Self {
        GpConfig {
            backend: Backend::Serial,
            tolerance: 1e-10,
            leaf_size: 64,
            tree: None,
            symmetry: Symmetry::General,
        }
    }
}

impl GpConfig {
    /// A configuration on the given backend with defaults otherwise.
    pub fn with_backend(backend: Backend) -> Self {
        GpConfig {
            backend,
            ..GpConfig::default()
        }
    }

    /// This configuration with the Cholesky/LDL^T fast path enabled
    /// ([`Symmetry::PositiveDefinite`]).
    pub fn positive_definite(mut self) -> Self {
        self.symmetry = Symmetry::PositiveDefinite;
        self
    }
}

/// The three terms of the log-marginal likelihood, kept separate so
/// hyperparameter drivers and benches can report them individually.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct LogLikelihood {
    /// `log p(y)` itself.
    pub value: f64,
    /// The data-fit term `y^T K^{-1} y`.
    pub quadratic_form: f64,
    /// The complexity penalty `log|K|` (`log_abs`; the sign is checked to
    /// be positive).
    pub log_det: f64,
    /// Number of observations `n`.
    pub n: usize,
}

impl LogLikelihood {
    /// Assemble `log p(y) = -½ q - ½ log|K| - n/2·log 2π` from its terms
    /// — the one place the density formula lives (the dense Cholesky
    /// oracle and the HODLR path both call this).
    pub fn from_terms(quadratic_form: f64, log_det: f64, n: usize) -> Self {
        LogLikelihood {
            value: -0.5 * quadratic_form
                - 0.5 * log_det
                - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln(),
            quadratic_form,
            log_det,
            n,
        }
    }
}

/// A zero-mean GP prior over a point set: the HODLR approximation of its
/// covariance matrix plus the machinery to evaluate the log-marginal
/// likelihood of observation vectors on either backend.
pub struct GpModel {
    hodlr: Hodlr<f64>,
    kernel_name: &'static str,
    noise: f64,
}

impl GpModel {
    /// Compress `k(|x_i - x_j|) + noise * delta_ij` over `points` into a
    /// HODLR approximation per `config`.
    ///
    /// # Errors
    /// [`HodlrError::InvalidConfig`] for a negative or non-finite noise
    /// nugget; builder errors propagate ([`HodlrError::InvalidConfig`]
    /// for bad tolerances, [`HodlrError::DimensionMismatch`] for a tree
    /// that does not match the cloud, ...).
    pub fn build<K: StationaryKernel + ?Sized>(
        kernel: &K,
        points: &PointCloud,
        noise: f64,
        config: &GpConfig,
    ) -> Result<Self, HodlrError> {
        // Domain errors surface here as typed InvalidConfig, not as a late
        // NotPositiveDefinite from the factorization.
        kernel.validate()?;
        // Typed-error variant of covariance_source's panic contract.
        if noise < 0.0 || !noise.is_finite() {
            return Err(HodlrError::config(format!(
                "noise variance must be non-negative and finite, got {noise}"
            )));
        }
        let source = covariance_source(kernel, points, noise);
        let builder = Hodlr::builder()
            .source(&source)
            .tolerance(config.tolerance)
            .backend(config.backend)
            .symmetry(config.symmetry);
        let builder = match &config.tree {
            Some(tree) => builder.tree(tree.clone()),
            None => builder.leaf_size(config.leaf_size),
        };
        Ok(GpModel {
            hodlr: builder.build()?,
            kernel_name: kernel.name(),
            noise,
        })
    }

    /// The HODLR approximation of the covariance matrix.
    pub fn hodlr(&self) -> &Hodlr<f64> {
        &self.hodlr
    }

    /// Number of observations `n`.
    pub fn n(&self) -> usize {
        self.hodlr.n()
    }

    /// The kernel family this model was built from.
    pub fn kernel_name(&self) -> &'static str {
        self.kernel_name
    }

    /// The noise nugget `sigma_n^2`.
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// A model over the same kernel and point set with a different noise
    /// nugget, **reusing this model's compression**: only the main
    /// diagonal changes between nuggets (`K + a I -> K + b I`), and the
    /// diagonal lives entirely inside the dense leaf blocks, so the
    /// off-diagonal low-rank factors are carried over instead of being
    /// recompressed.  This is what makes a noise grid scan cost one
    /// compression per kernel candidate rather than one per grid point
    /// (the shifted diagonal differs from a from-scratch build only by
    /// one rounding of the nugget addition).
    ///
    /// # Errors
    /// [`HodlrError::InvalidConfig`] for a negative or non-finite nugget;
    /// builder errors propagate.
    pub fn with_noise(&self, noise: f64) -> Result<GpModel, HodlrError> {
        if noise < 0.0 || !noise.is_finite() {
            return Err(HodlrError::config(format!(
                "noise variance must be non-negative and finite, got {noise}"
            )));
        }
        let mut matrix = self
            .hodlr
            .matrix()
            .expect("GP models store the covariance in working precision")
            .clone();
        matrix.shift_diagonal(noise - self.noise);
        let hodlr = Hodlr::builder()
            .matrix(matrix)
            .backend(self.hodlr.backend())
            .precision(self.hodlr.precision())
            .symmetry(self.hodlr.symmetry())
            .build()?;
        Ok(GpModel {
            hodlr,
            kernel_name: self.kernel_name,
            noise,
        })
    }

    /// A model over the same compressed covariance on a different
    /// backend.  Compression is backend-independent, so the matrix is
    /// carried over; only the factorization path changes.
    ///
    /// # Errors
    /// Builder errors propagate.
    pub fn with_backend(&self, backend: Backend) -> Result<GpModel, HodlrError> {
        let hodlr = Hodlr::builder()
            .matrix(
                self.hodlr
                    .matrix()
                    .expect("GP models store the covariance in working precision")
                    .clone(),
            )
            .backend(backend)
            .precision(self.hodlr.precision())
            .symmetry(self.hodlr.symmetry())
            .build()?;
        Ok(GpModel {
            hodlr,
            kernel_name: self.kernel_name,
            noise: self.noise,
        })
    }

    /// Factorize the covariance on the configured backend.
    ///
    /// # Errors
    /// Propagates [`HodlrError::SingularPivot`] from the factorization.
    pub fn factorize(&self) -> Result<Factorization<f64>, HodlrError> {
        self.hodlr.factorize()
    }

    /// Factorize and evaluate `log p(y)` in one call.  When scoring many
    /// observation vectors against one kernel, factorize once and call
    /// [`GpModel::log_likelihood_with`] instead.
    ///
    /// # Errors
    /// As [`GpModel::factorize`] and [`GpModel::log_likelihood_with`].
    pub fn log_likelihood(&self, y: &[f64]) -> Result<LogLikelihood, HodlrError> {
        let factorization = self.factorize()?;
        self.log_likelihood_with(&factorization, y)
    }

    /// Evaluate `log p(y)` against an existing factorization: one solve
    /// for the quadratic form, one product-form `log_det`.
    ///
    /// When scoring *many* observation vectors against one factorization,
    /// compute the determinant term once with [`GpModel::log_det_term`]
    /// and call [`GpModel::log_likelihood_terms`] per vector instead —
    /// `log|K|` depends only on the factorization, not on `y`.
    ///
    /// # Errors
    /// [`HodlrError::DimensionMismatch`] when `y` has the wrong length and
    /// [`HodlrError::NotPositiveDefinite`] when the factored covariance
    /// has a non-positive determinant sign (the kernel + nugget pair does
    /// not form a valid Gaussian density; a larger nugget or a smaller
    /// compression tolerance is the usual fix).
    pub fn log_likelihood_with(
        &self,
        factorization: &Factorization<f64>,
        y: &[f64],
    ) -> Result<LogLikelihood, HodlrError> {
        let log_det = self.log_det_term(factorization)?;
        self.log_likelihood_terms(factorization, log_det, y)
    }

    /// The complexity-penalty term `log|K|` of the factorized covariance.
    /// Compute it once per factorization when scoring many observation
    /// vectors.
    ///
    /// Positive definiteness is screened through the determinant sign —
    /// which catches an odd number of negative eigenvalues; an even
    /// number evades it, so [`GpModel::log_likelihood_terms`]
    /// additionally rejects a negative data-fit term (impossible for SPD
    /// `K`).  A covariance that fails either check needs a larger nugget
    /// or a tighter compression tolerance.
    ///
    /// # Errors
    /// [`HodlrError::NotPositiveDefinite`] as on
    /// [`GpModel::log_likelihood_with`].
    pub fn log_det_term(&self, factorization: &Factorization<f64>) -> Result<f64, HodlrError> {
        let (log_abs, sign) = factorization.log_det()?;
        if !log_abs.is_finite() || sign.is_nan() || sign <= 0.0 {
            return Err(HodlrError::NotPositiveDefinite {
                context: format!(
                    "GP covariance matrix ({} kernel, noise {:.3e})",
                    self.kernel_name, self.noise
                ),
            });
        }
        Ok(log_abs)
    }

    /// Score one observation vector against a precomputed `log|K|` (from
    /// [`GpModel::log_det_term`]): one solve, no repeated determinant
    /// work.
    ///
    /// # Errors
    /// [`HodlrError::DimensionMismatch`] when `y` has the wrong length,
    /// and [`HodlrError::NotPositiveDefinite`] when the data-fit term
    /// `y^T K^{-1} y` comes out negative or non-finite — an indefinite
    /// covariance (with an even number of negative eigenvalues) that the
    /// determinant-sign screen of [`GpModel::log_det_term`] cannot see.
    pub fn log_likelihood_terms(
        &self,
        factorization: &Factorization<f64>,
        log_det: f64,
        y: &[f64],
    ) -> Result<LogLikelihood, HodlrError> {
        let n = self.n();
        HodlrError::check_dims("observation vector", n, y.len())?;
        let alpha = factorization.solve(y)?;
        let quadratic_form: f64 = y.iter().zip(&alpha).map(|(a, b)| a * b).sum();
        if quadratic_form < 0.0 || !quadratic_form.is_finite() {
            return Err(HodlrError::NotPositiveDefinite {
                context: format!(
                    "GP covariance matrix ({} kernel, noise {:.3e}): \
                     y^T K^-1 y = {quadratic_form:e}",
                    self.kernel_name, self.noise
                ),
            });
        }
        Ok(LogLikelihood::from_terms(quadratic_form, log_det, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{Matern, SquaredExponential};
    use crate::oracle::dense_log_likelihood;
    use crate::source::regular_grid_1d;

    fn sample_y(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.13).sin() + 0.2 * (i as f64 * 0.41).cos())
            .collect()
    }

    #[test]
    fn with_noise_reuses_the_compression_and_matches_a_fresh_build() {
        let points = regular_grid_1d(128, 0.0, 2.0);
        let kernel = SquaredExponential {
            variance: 1.0,
            length_scale: 0.4,
        };
        let y = sample_y(128);
        let base = GpModel::build(&kernel, &points, 1e-3, &GpConfig::default()).unwrap();
        let shifted = base.with_noise(1e-1).unwrap();
        assert_eq!(shifted.noise(), 1e-1);
        let fresh = GpModel::build(&kernel, &points, 1e-1, &GpConfig::default()).unwrap();
        // Off-diagonal factors are carried over; only the nugget addition
        // rounds differently, so the likelihoods agree to rounding.
        let ll_shifted = shifted.log_likelihood(&y).unwrap();
        let ll_fresh = fresh.log_likelihood(&y).unwrap();
        assert!(
            (ll_shifted.value - ll_fresh.value).abs() < 1e-9 * ll_fresh.value.abs().max(1.0),
            "{} vs {}",
            ll_shifted.value,
            ll_fresh.value
        );
        assert!((ll_shifted.log_det - ll_fresh.log_det).abs() < 1e-9);
        assert!(base.with_noise(-1.0).is_err());
        assert!(base.with_noise(f64::NAN).is_err());
    }

    #[test]
    fn hodlr_likelihood_matches_the_dense_oracle_on_both_backends() {
        let n = 256;
        let points = regular_grid_1d(n, 0.0, 4.0);
        let kernel = SquaredExponential {
            variance: 1.3,
            length_scale: 0.5,
        };
        let y = sample_y(n);
        let dense = covariance_source(&kernel, &points, 0.1);
        let oracle =
            dense_log_likelihood(&hodlr_compress::MatrixEntrySource::to_dense(&dense), &y).unwrap();
        for backend in [Backend::Serial, Backend::Batched] {
            let mut config = GpConfig::with_backend(backend);
            config.tolerance = 1e-12;
            config.leaf_size = 32;
            let model = GpModel::build(&kernel, &points, 0.1, &config).unwrap();
            let ll = model.log_likelihood(&y).unwrap();
            assert!(
                (ll.value - oracle.value).abs() < 1e-8,
                "{backend:?}: {} vs {}",
                ll.value,
                oracle.value
            );
            assert!((ll.log_det - oracle.log_det).abs() < 1e-8);
            assert!((ll.quadratic_form - oracle.quadratic_form).abs() < 1e-8);
        }
    }

    #[test]
    fn serial_and_batched_likelihoods_agree_to_machine_precision() {
        let n = 200;
        let points = regular_grid_1d(n, 0.0, 2.0);
        let kernel = Matern::three_halves(0.8, 0.3);
        let y = sample_y(n);
        let serial = GpModel::build(&kernel, &points, 0.05, &GpConfig::default())
            .unwrap()
            .log_likelihood(&y)
            .unwrap();
        let batched = GpModel::build(
            &kernel,
            &points,
            0.05,
            &GpConfig::with_backend(Backend::Batched),
        )
        .unwrap()
        .log_likelihood(&y)
        .unwrap();
        // log_det is bitwise identical across backends; the quadratic form
        // goes through the respective solve sweeps and matches to rounding.
        assert_eq!(serial.log_det.to_bits(), batched.log_det.to_bits());
        assert!((serial.value - batched.value).abs() < 1e-9);
    }

    #[test]
    fn spd_fast_path_matches_the_lu_path_on_both_backends() {
        let n = 192;
        let points = regular_grid_1d(n, 0.0, 3.0);
        let kernel = SquaredExponential {
            variance: 1.1,
            length_scale: 0.4,
        };
        let y = sample_y(n);
        for backend in [Backend::Serial, Backend::Batched] {
            let lu_config = GpConfig::with_backend(backend);
            let spd_config = GpConfig::with_backend(backend).positive_definite();
            let lu = GpModel::build(&kernel, &points, 0.1, &lu_config).unwrap();
            let spd = GpModel::build(&kernel, &points, 0.1, &spd_config).unwrap();
            assert_eq!(spd.hodlr().symmetry(), Symmetry::PositiveDefinite);
            // Sibling pairs share one low-rank factor on the SPD path.
            assert!(spd.hodlr().matrix().unwrap().shares_bases());
            let ll_lu = lu.log_likelihood(&y).unwrap();
            let ll_spd = spd.log_likelihood(&y).unwrap();
            assert!(
                (ll_lu.value - ll_spd.value).abs() < 1e-8 * ll_lu.value.abs().max(1.0),
                "{backend:?}: {} vs {}",
                ll_lu.value,
                ll_spd.value
            );
            assert!((ll_lu.log_det - ll_spd.log_det).abs() < 1e-8);
        }
        // with_noise keeps the declared symmetry (and the shared bases).
        let spd = GpModel::build(
            &kernel,
            &points,
            0.1,
            &GpConfig::default().positive_definite(),
        )
        .unwrap();
        let shifted = spd.with_noise(0.2).unwrap();
        assert_eq!(shifted.hodlr().symmetry(), Symmetry::PositiveDefinite);
        assert!(shifted.log_likelihood(&y).is_ok());
    }

    #[test]
    fn wrong_length_observation_vector_is_named() {
        let points = regular_grid_1d(64, 0.0, 1.0);
        let kernel = SquaredExponential {
            variance: 1.0,
            length_scale: 0.2,
        };
        let model = GpModel::build(&kernel, &points, 0.1, &GpConfig::default()).unwrap();
        let err = model.log_likelihood(&vec![0.0; 63]).unwrap_err();
        assert_eq!(err, HodlrError::dims("observation vector", 64, 63));
    }
}
