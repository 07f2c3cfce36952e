//! Spectral cross-checks on the GP covariance: SLQ vs the product-form
//! determinant, and the smallest-eigenvalue probe.
//!
//! The likelihood path screens positive definiteness twice — determinant
//! sign (odd negative-eigenvalue counts) and the sign of the data-fit
//! term — but an indefinite covariance with an *even* number of negative
//! eigenvalues and a benign observation vector can slip past both.  The
//! spectral subsystem closes that blind spot from the matvec side:
//! stochastic Lanczos quadrature inspects actual Ritz values of
//! `K + sigma_n^2 I`, so any probe that touches the negative part of the
//! spectrum surfaces a typed
//! [`NotPositiveDefinite`](HodlrError::NotPositiveDefinite).  As a bonus
//! the SLQ estimate is an independent `O(probes * steps * n log n)`
//! cross-check on the `O(N log^2 N)` product-form `log|K|`.

use crate::likelihood::GpModel;
use hodlr::Factorization;
use hodlr_la::HodlrError;
use hodlr_spectral::{
    lanczos_report, slq_log_det, LanczosConfig, PartialEigen, SlqConfig, SlqEstimate,
    SpectrumTarget,
};

/// The verdict of [`GpModel::spectral_check`]: both determinant routes
/// plus an agreement judgement within the stochastic error.
#[derive(Clone, Debug)]
pub struct SpectralCheck {
    /// `log|K|` from the factorization's product form (Section III-E (a)).
    pub product_log_det: f64,
    /// The independent SLQ estimate of the same quantity (with its
    /// standard error and the smallest Ritz value seen).
    pub slq: SlqEstimate,
    /// Absolute difference between the two routes.
    pub discrepancy: f64,
    /// `true` when the discrepancy is within `3 * stderr` of the SLQ
    /// estimate (plus a small relative floor for the zero-variance case).
    pub agrees: bool,
}

impl GpModel {
    /// Cross-check the factorization's product-form `log|K|` against a
    /// matvec-only SLQ estimate on the same covariance.
    ///
    /// Disagreement beyond the stochastic error indicates one of the two
    /// paths is wrong about the spectrum — typically a compression
    /// artifact that pushed the approximation indefinite.
    ///
    /// # Errors
    /// [`HodlrError::NotPositiveDefinite`] from either route: the
    /// product form's sign screen, or an SLQ probe surfacing a
    /// non-positive Ritz value (the even-negative-count case the sign
    /// screen cannot see).  Config errors propagate from
    /// [`slq_log_det`].
    pub fn spectral_check(
        &self,
        factorization: &Factorization<f64>,
        cfg: &SlqConfig,
    ) -> Result<SpectralCheck, HodlrError> {
        let product_log_det = self.log_det_term(factorization)?;
        let slq = slq_log_det(self.hodlr(), cfg)?;
        let discrepancy = (slq.value - product_log_det).abs();
        let agrees = discrepancy <= 3.0 * slq.stderr + 1e-6 * product_log_det.abs().max(1.0);
        Ok(SpectralCheck {
            product_log_det,
            slq,
            discrepancy,
            agrees,
        })
    }

    /// The `k` smallest eigenvalues of the covariance by Lanczos over the
    /// HODLR matvec — the margin by which `K + sigma_n^2 I` clears zero,
    /// i.e. how much compression error the density can absorb before the
    /// likelihood becomes meaningless.
    ///
    /// # Errors
    /// See [`lanczos_report`] (config validation).
    pub fn smallest_eigenvalues(
        &self,
        k: usize,
        cfg: &LanczosConfig,
    ) -> Result<PartialEigen<f64>, HodlrError> {
        lanczos_report(self.hodlr(), k, SpectrumTarget::Smallest, cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::SquaredExponential;
    use crate::likelihood::GpConfig;
    use crate::source::regular_grid_1d;
    use hodlr::{Factorize, Hodlr, Solve};
    use hodlr_compress::ClosureSource;

    fn model(n: usize) -> GpModel {
        let points = regular_grid_1d(n, 0.0, 4.0);
        let kernel = SquaredExponential {
            variance: 1.2,
            length_scale: 0.4,
        };
        GpModel::build(&kernel, &points, 0.1, &GpConfig::default()).unwrap()
    }

    #[test]
    fn slq_cross_checks_the_product_form_determinant() {
        let m = model(256);
        let f = m.factorize().unwrap();
        let cfg = SlqConfig {
            probes: 24,
            steps: 48,
            seed: 42,
        };
        let check = m.spectral_check(&f, &cfg).unwrap();
        assert!(check.slq.min_ritz > 0.0);
        assert!(
            check.agrees,
            "SLQ {} +/- {} vs product {}",
            check.slq.value, check.slq.stderr, check.product_log_det
        );
    }

    #[test]
    fn smallest_eigenvalue_is_at_least_the_nugget() {
        let m = model(128);
        let got = m
            .smallest_eigenvalues(1, &LanczosConfig::default())
            .unwrap();
        // K_f is PSD, so the smallest eigenvalue of K_f + 0.1 I clears 0.1
        // (up to compression error).
        assert!(
            got.values[0] >= 0.1 - 1e-6,
            "smallest eigenvalue {}",
            got.values[0]
        );
    }

    #[test]
    fn slq_catches_even_count_indefiniteness_the_sign_screen_misses() {
        // A diagonal "covariance" with exactly two negative entries: the
        // determinant sign is positive, so the factorization's sign screen
        // passes — the SLQ node inspection must still refuse it.
        let n = 64;
        let source = ClosureSource::new(n, n, move |i, j| {
            if i != j {
                0.0
            } else if i < 2 {
                -1.0
            } else {
                2.0
            }
        });
        let hodlr = Hodlr::<f64>::builder()
            .source(&source)
            .leaf_size(16)
            .tolerance(1e-12)
            .build()
            .unwrap();
        let f = hodlr.factorize().unwrap();
        let (log_abs, sign) = f.log_det().unwrap();
        assert!(log_abs.is_finite());
        assert!(sign > 0.0, "even negative count keeps the sign positive");
        let err = slq_log_det(&hodlr, &SlqConfig::default()).unwrap_err();
        assert!(
            matches!(err, HodlrError::NotPositiveDefinite { .. }),
            "{err}"
        );
    }
}
