//! Posterior sampling and predictive variance — the `K = L L^T` payoff.
//!
//! Once the covariance factors as a product of Cholesky pieces (the SPD
//! fast path, [`Symmetry::PositiveDefinite`](hodlr::Symmetry)), the GP
//! stops being a scoring machine and becomes a *generative* model:
//!
//! * **predictive mean / variance** at test points `X*`:
//!   `mu_* = K_*^T K^{-1} y` and
//!   `var_i = k(0) - k_i^T K^{-1} k_i` — one blocked solve against the
//!   cross-covariance columns;
//! * **posterior draws** by Matheron's rule (pathwise conditioning):
//!   sample `(f_X, f_*)` jointly from the prior through a dense Cholesky
//!   `C = L L^T` of the joint covariance (`L z` with `z ~ N(0, I)`), then
//!   correct with one HODLR solve per draw batch,
//!
//!   ```text
//!   f_* | y  =  f_*  +  K_*^T K^{-1} (y - f_X - eps),   eps ~ N(0, sigma_n^2 I)
//!   ```
//!
//!   so the `O((n+m)^3)` dense work is confined to the (small) joint prior
//!   factor while every conditioning solve runs through the
//!   `O(N log^2 N)` HODLR factorization.
//!
//! Both the dense joint factor and the HODLR path route through the *same*
//! [`hodlr_la`] Cholesky kernels, so a draw pipeline exercises the blocked
//! `potrf` at both scales.

use crate::kernels::StationaryKernel;
use crate::likelihood::{GpConfig, GpModel};
use hodlr::{Factorization, Solve};
use hodlr_la::random::gaussian_matrix;
use hodlr_la::{gemm, DenseMatrix, HodlrError, Op, SymmetricFactor, SymmetricPolicy};
use hodlr_tree::PointCloud;
use rand::Rng;

/// Euclidean distance between a point of one cloud and a point of another.
fn cross_distance(a: &PointCloud, i: usize, b: &PointCloud, j: usize) -> f64 {
    a.point(i)
        .iter()
        .zip(b.point(j))
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Factor the (noise-free) joint prior covariance `C = L L^T`, escalating
/// a diagonal jitter when compression-free rounding leaves `C` numerically
/// semidefinite (smooth kernels on dense grids are famously close to
/// singular).  The jitter ladder is the standard GP-library treatment; the
/// final jitter is orders of magnitude below any practical noise nugget.
fn joint_prior_lower(
    mut c: DenseMatrix<f64>,
    signal_variance: f64,
) -> Result<DenseMatrix<f64>, HodlrError> {
    let n = c.rows();
    let mut jitter = 1e-12 * signal_variance.max(f64::MIN_POSITIVE);
    for attempt in 0..5 {
        if attempt > 0 {
            for i in 0..n {
                c[(i, i)] += jitter;
            }
            jitter *= 100.0;
        }
        match SymmetricFactor::new(&c, SymmetricPolicy::Strict) {
            Ok(f) => return Ok(f.lower_factor()),
            Err(e) if attempt == 4 => return Err(e.into_hodlr("joint prior covariance matrix")),
            Err(_) => {}
        }
    }
    unreachable!("jitter ladder returns on its last attempt")
}

/// A GP posterior over explicit test points: the HODLR-factorizable
/// training covariance plus the dense cross- and joint-prior pieces needed
/// for prediction and pathwise sampling.
///
/// Built once per `(kernel, train, test, noise)` tuple; factorize with
/// [`GpPosterior::factorize`] and reuse the factorization across
/// [`mean`](GpPosterior::mean), [`variance`](GpPosterior::variance) and
/// [`draws`](GpPosterior::draws).
pub struct GpPosterior {
    model: GpModel,
    /// Cross-covariance `K(X, X*)`, `n x m`.
    cross: DenseMatrix<f64>,
    /// Lower Cholesky factor of the joint prior covariance over
    /// `[X; X*]`, `(n + m) x (n + m)`.
    joint_lower: DenseMatrix<f64>,
    /// Signal variance `k(0)` (the prior predictive variance).
    signal_variance: f64,
    n: usize,
    m: usize,
}

impl GpPosterior {
    /// Assemble the posterior machinery for `kernel` over training points
    /// `train` (with noise nugget `noise`) and test points `test`.
    ///
    /// The training covariance `K = K_XX + noise * I` is compressed per
    /// `config` — pass a [`GpConfig`] with
    /// [`positive_definite`](GpConfig::positive_definite) to factorize it
    /// on the Cholesky fast path.  The `O((n+m)^2)` dense joint prior and
    /// its `O((n+m)^3)` Cholesky factor are formed here, once.
    ///
    /// # Errors
    /// [`HodlrError::InvalidConfig`] for mismatched point dimensions, bad
    /// kernel parameters or a bad nugget; [`HodlrError::NotPositiveDefinite`]
    /// when the joint prior stays indefinite through the jitter ladder;
    /// builder errors propagate.
    pub fn new<K: StationaryKernel + ?Sized>(
        kernel: &K,
        train: &PointCloud,
        test: &PointCloud,
        noise: f64,
        config: &GpConfig,
    ) -> Result<Self, HodlrError> {
        if train.dim() != test.dim() {
            return Err(HodlrError::config(format!(
                "training points have dimension {} but test points have dimension {}",
                train.dim(),
                test.dim()
            )));
        }
        if test.is_empty() {
            return Err(HodlrError::config(
                "posterior needs at least one test point".to_string(),
            ));
        }
        let model = GpModel::build(kernel, train, noise, config)?;
        let (n, m) = (train.len(), test.len());
        let cross =
            DenseMatrix::from_fn(n, m, |i, j| kernel.eval(cross_distance(train, i, test, j)));
        // Joint prior covariance over the concatenated cloud [X; X*].
        let joint = DenseMatrix::from_fn(n + m, n + m, |i, j| {
            let r = match (i < n, j < n) {
                (true, true) => train.distance(i, j),
                (true, false) => cross_distance(train, i, test, j - n),
                (false, true) => cross_distance(train, j, test, i - n),
                (false, false) => test.distance(i - n, j - n),
            };
            kernel.eval(r)
        });
        let signal_variance = kernel.variance();
        let joint_lower = joint_prior_lower(joint, signal_variance)?;
        Ok(GpPosterior {
            model,
            cross,
            joint_lower,
            signal_variance,
            n,
            m,
        })
    }

    /// The underlying [`GpModel`] of the training covariance.
    pub fn model(&self) -> &GpModel {
        &self.model
    }

    /// Number of training points `n`.
    pub fn train_len(&self) -> usize {
        self.n
    }

    /// Number of test points `m`.
    pub fn test_len(&self) -> usize {
        self.m
    }

    /// Factorize the training covariance on the configured backend (the
    /// Cholesky fast path when the config declared
    /// [`Symmetry::PositiveDefinite`](hodlr::Symmetry)).
    ///
    /// # Errors
    /// As [`GpModel::factorize`].
    pub fn factorize(&self) -> Result<Factorization<f64>, HodlrError> {
        self.model.factorize()
    }

    /// Posterior mean `mu_* = K_*^T K^{-1} y` at the test points.
    ///
    /// # Errors
    /// [`HodlrError::DimensionMismatch`] when `y` has the wrong length.
    pub fn mean(
        &self,
        factorization: &Factorization<f64>,
        y: &[f64],
    ) -> Result<Vec<f64>, HodlrError> {
        HodlrError::check_dims("observation vector", self.n, y.len())?;
        let alpha = factorization.solve(y)?;
        let mu = (0..self.m)
            .map(|j| {
                self.cross
                    .col(j)
                    .iter()
                    .zip(&alpha)
                    .map(|(k, a)| k * a)
                    .sum()
            })
            .collect();
        Ok(mu)
    }

    /// Predictive (latent-function) variance
    /// `var_i = k(0) - k_i^T K^{-1} k_i` at each test point: one blocked
    /// HODLR solve against all cross-covariance columns.  Add the noise
    /// nugget for the observation-space variance.  Values are clamped at
    /// zero (rounding can push a tiny variance negative).
    ///
    /// # Errors
    /// Solve errors propagate.
    pub fn variance(&self, factorization: &Factorization<f64>) -> Result<Vec<f64>, HodlrError> {
        let w = factorization.solve_block(&self.cross)?;
        let var = (0..self.m)
            .map(|j| {
                let explained: f64 = self
                    .cross
                    .col(j)
                    .iter()
                    .zip(w.col(j))
                    .map(|(k, s)| k * s)
                    .sum();
                (self.signal_variance - explained).max(0.0)
            })
            .collect();
        Ok(var)
    }

    /// Draw `count` samples from the posterior `f_* | y` by Matheron's
    /// rule, returned as an `m x count` matrix (one draw per column).
    ///
    /// All draws share one blocked pipeline: a `(n + m) x count` block of
    /// `L z` prior paths (dense triangular factor), one `n x count` noise
    /// block, one blocked HODLR solve for the corrections, and one `gemm`
    /// to map corrections to the test points.  With a fixed-seed `rng` the
    /// output is deterministic.
    ///
    /// # Errors
    /// [`HodlrError::DimensionMismatch`] when `y` has the wrong length,
    /// [`HodlrError::InvalidConfig`] for `count == 0`; solve errors
    /// propagate.
    pub fn draws<R: Rng + ?Sized>(
        &self,
        factorization: &Factorization<f64>,
        y: &[f64],
        rng: &mut R,
        count: usize,
    ) -> Result<DenseMatrix<f64>, HodlrError> {
        HodlrError::check_dims("observation vector", self.n, y.len())?;
        if count == 0 {
            return Err(HodlrError::config(
                "posterior draw count must be positive".to_string(),
            ));
        }
        let (n, m) = (self.n, self.m);
        // Joint prior paths P = L Z over [X; X*], one column per draw.
        let z = gaussian_matrix::<f64, _>(rng, n + m, count);
        let mut paths = DenseMatrix::<f64>::zeros(n + m, count);
        gemm(
            1.0,
            self.joint_lower.as_ref(),
            Op::None,
            z.as_ref(),
            Op::None,
            0.0,
            paths.as_mut(),
        );
        // Residuals y - f_X - eps, eps ~ N(0, sigma_n^2 I).
        let noise_std = self.model.noise().sqrt();
        let eps = gaussian_matrix::<f64, _>(rng, n, count);
        let mut residuals = DenseMatrix::<f64>::zeros(n, count);
        for c in 0..count {
            for i in 0..n {
                residuals[(i, c)] = y[i] - paths[(i, c)] - noise_std * eps[(i, c)];
            }
        }
        // Corrections A = K^{-1} residuals through the HODLR factorization.
        let corrections = factorization.solve_block(&residuals)?;
        // Draws = f_* + K_*^T A.
        let mut out = DenseMatrix::<f64>::zeros(m, count);
        for c in 0..count {
            for i in 0..m {
                out[(i, c)] = paths[(n + i, c)];
            }
        }
        gemm(
            1.0,
            self.cross.as_ref(),
            Op::Trans,
            corrections.as_ref(),
            Op::None,
            1.0,
            out.as_mut(),
        );
        Ok(out)
    }
}
