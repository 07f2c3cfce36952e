//! Numerical self-verification of solves: verdicts, thresholds, and the
//! scaled-residual computation.
//!
//! A fast direct solver can "succeed" and still return garbage — a
//! poisoned device buffer, an ill-conditioned factorization, a stale
//! cache entry.  The a-posteriori check here is cheap relative to the
//! solve it guards: one HODLR matvec (`O(N log N)`) for the scaled
//! residual
//!
//! ```text
//! r = ‖A x − b‖₂ / (‖A‖₁ᵉˢᵗ · ‖x‖₂)
//! ```
//!
//! plus, only when the residual is suspicious, a Hager/Higham estimate of
//! `‖A⁻¹‖₁` from a handful of extra solves, giving the condition estimate
//! `κ₁(A) ≈ ‖A‖₁ᵉˢᵗ · ‖A⁻¹‖₁ᵉˢᵗ` that distinguishes "the solver is
//! broken" from "the problem is hopeless".
//!
//! The verdict is surfaced as a [`Solve`](crate::Solve) trait capability
//! ([`Solve::verify_solution`](crate::Solve::verify_solution)) so every
//! backend — serial, batched, mixed-precision, type-erased — reports
//! through the same three-state [`SolveVerdict`], and `hodlr-serve`'s
//! degradation ladder keys its escalation decisions off it.

use hodlr_la::{RealScalar, Scalar};

/// The outcome of verifying a candidate solution `x` of `A x = b`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum SolveVerdict {
    /// The scaled residual is finite and within threshold.
    Verified {
        /// The scaled residual `‖Ax−b‖₂ / (‖A‖₁ᵉˢᵗ‖x‖₂)`.
        residual: f64,
    },
    /// The solution is finite but its residual exceeds the threshold.
    Suspect {
        /// The offending scaled residual.
        residual: f64,
        /// Condition estimate `κ₁(A) ≈ ‖A‖₁ᵉˢᵗ · ‖A⁻¹‖₁ᵉˢᵗ`
        /// (`f64::INFINITY` when the estimate itself failed).
        cond_est: f64,
    },
    /// The solution (or its residual) contains NaN or infinity.
    NonFinite,
}

impl SolveVerdict {
    /// Whether the solution passed verification.
    pub fn is_verified(&self) -> bool {
        matches!(self, SolveVerdict::Verified { .. })
    }

    /// Whether the solution contains non-finite entries.
    pub fn is_non_finite(&self) -> bool {
        matches!(self, SolveVerdict::NonFinite)
    }

    /// The scaled residual, when one was computable.
    pub fn residual(&self) -> Option<f64> {
        match self {
            SolveVerdict::Verified { residual } | SolveVerdict::Suspect { residual, .. } => {
                Some(*residual)
            }
            SolveVerdict::NonFinite => None,
        }
    }
}

/// Thresholds for [`Solve::verify_solution`](crate::Solve::verify_solution).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct VerifyConfig {
    /// Largest scaled residual accepted as `Verified`.  The default of
    /// `1e-6` sits comfortably above the `1e-8`-ish residuals an exact or
    /// tightly compressed HODLR factorization produces in `f64`, while
    /// catching mixed-precision drift and corrupted factors.
    pub residual_threshold: f64,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig {
            residual_threshold: 1e-6,
        }
    }
}

impl VerifyConfig {
    /// A config accepting residuals up to `threshold`.
    pub fn with_threshold(threshold: f64) -> Self {
        VerifyConfig {
            residual_threshold: threshold,
        }
    }
}

/// The scaled residual `‖ax − b‖₂ / (‖A‖₁ᵉˢᵗ · ‖x‖₂)` from a precomputed
/// operator application `ax = A x`.
///
/// Degenerate denominators are resolved conservatively: a zero `x` (or a
/// zero/non-finite norm estimate) with a nonzero residual yields
/// `f64::INFINITY` (never `Verified`), while an exactly zero residual is
/// `0.0` regardless of scaling.  NaN anywhere propagates into a NaN
/// result, which [`Solve::verify_solution`](crate::Solve::verify_solution)
/// maps to [`SolveVerdict::NonFinite`].
///
/// # Panics
/// Panics unless `ax`, `x` and `b` have one length.
pub fn scaled_residual<T: Scalar>(ax: &[T], x: &[T], b: &[T], norm1_est: f64) -> f64 {
    assert_eq!(x.len(), ax.len(), "scaled_residual: x has the wrong length");
    assert_eq!(b.len(), ax.len(), "scaled_residual: b has the wrong length");
    let mut rr = 0.0f64;
    for (&a, &bi) in ax.iter().zip(b.iter()) {
        rr += (a - bi).abs_sqr().to_f64();
    }
    let rnorm = rr.sqrt();
    if rnorm.is_nan() {
        return f64::NAN;
    }
    if rnorm == 0.0 {
        return 0.0;
    }
    let xnorm = hodlr_la::norms::norm2(x).to_f64();
    let denom = norm1_est * xnorm;
    if !denom.is_finite() || denom <= 0.0 {
        return f64::INFINITY;
    }
    rnorm / denom
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_accessors() {
        let v = SolveVerdict::Verified { residual: 1e-12 };
        assert!(v.is_verified() && !v.is_non_finite());
        assert_eq!(v.residual(), Some(1e-12));
        let s = SolveVerdict::Suspect {
            residual: 0.5,
            cond_est: 1e9,
        };
        assert!(!s.is_verified());
        assert_eq!(s.residual(), Some(0.5));
        assert_eq!(SolveVerdict::NonFinite.residual(), None);
    }

    #[test]
    fn scaled_residual_basics() {
        // Exact solution: zero residual regardless of scaling.
        assert_eq!(
            scaled_residual(&[1.0, 2.0], &[1.0, 2.0], &[1.0, 2.0], 0.0),
            0.0
        );
        // ‖ax-b‖ = 1, ‖A‖ = 2, ‖x‖ = 5 → 0.1.
        let r = scaled_residual(&[4.0, 0.0], &[3.0, 4.0], &[3.0, 0.0], 2.0);
        assert!((r - 0.1).abs() < 1e-15, "{r}");
        // Zero x with nonzero residual can never verify.
        assert_eq!(
            scaled_residual(&[0.0, 0.0], &[0.0, 0.0], &[1.0, 0.0], 2.0),
            f64::INFINITY
        );
        // NaN propagates.
        assert!(scaled_residual(&[f64::NAN], &[1.0], &[1.0], 1.0).is_nan());
    }
}
