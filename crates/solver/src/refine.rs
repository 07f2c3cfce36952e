//! Preconditioned iterative refinement: the simplest way to turn an
//! approximate factorization into full-accuracy solves,
//! `x_{k+1} = x_k + M^{-1} (b - A x_k)`.
//!
//! Converges whenever `||I - A M^{-1}|| < 1`, i.e. whenever the HODLR
//! approximation behind `M` is accurate enough; the contraction factor is
//! the approximation error, so a 1e-3 preconditioner gains roughly three
//! digits per sweep.  It is also the loop behind the `hodlr` façade's
//! `Precision::MixedRefine` and `Precision::CompactLower` solves.

use crate::operator::LinearOperator;
use crate::report::IterativeSolution;
use hodlr_la::norms::norm2;
use hodlr_la::{HodlrError, RealScalar, Scalar};

/// Configuration for [`iterative_refinement`].
#[derive(Copy, Clone, Debug)]
pub struct RefinementOptions {
    /// Relative-residual target.
    pub tol: f64,
    /// Sweep cap.
    pub max_iters: usize,
}

impl Default for RefinementOptions {
    fn default() -> Self {
        RefinementOptions {
            tol: 1e-12,
            max_iters: 50,
        }
    }
}

/// Solve `A x = b` by refinement sweeps with `m` applying `M^{-1}`.
///
/// Each sweep costs one preconditioner and one operator application; the
/// zero starting guess costs none.  The loop stops at the first non-finite
/// residual, and the iterate after the last sweep is always measured.
///
/// # Errors
/// Returns [`HodlrError::DimensionMismatch`] when the operator, the
/// preconditioner and `b` disagree on their dimension.  Non-convergence is
/// reported in the returned [`IterativeSolution`], not as an error.
pub fn iterative_refinement<T, A, M>(
    a: &A,
    m: &M,
    b: &[T],
    options: RefinementOptions,
) -> Result<IterativeSolution<T>, HodlrError>
where
    T: Scalar,
    A: LinearOperator<T>,
    M: LinearOperator<T>,
{
    let n = b.len();
    HodlrError::check_dims("refinement operator vs right-hand side", a.dim(), n)?;
    HodlrError::check_dims("refinement preconditioner vs right-hand side", m.dim(), n)?;
    let bnorm = norm2(b).to_f64();
    if bnorm == 0.0 {
        return Ok(IterativeSolution::zero_rhs(n));
    }

    // The zero starting guess has residual `b`: no operator application.
    let mut x = vec![T::zero(); n];
    let mut r = b.to_vec();
    let mut history = Vec::new();
    let mut iters = 0usize;
    // Best iterate seen so far, so a correction that made things worse (a
    // non-contracting preconditioner) is rolled back instead of returned.
    let mut best_x = x.clone();
    let mut best_res = f64::INFINITY;
    loop {
        let res = norm2(&r).to_f64() / bnorm;
        if res < best_res {
            best_res = res;
            best_x.copy_from_slice(&x);
        }
        // Stop on convergence, on a non-finite residual (no sweep can
        // repair it), on the sweep cap (the last correction has just been
        // measured), or when the residual stopped improving at all
        // (approximation error of M too large to gain further digits, or a
        // non-contracting preconditioner).  Slow but genuine contraction
        // is left to run against the sweep cap.
        let stalled = history.last().is_some_and(|&prev| res >= prev);
        if res <= options.tol || !res.is_finite() || iters == options.max_iters || stalled {
            break;
        }
        history.push(res);
        let correction = m.apply_vec(&r);
        for (xi, ci) in x.iter_mut().zip(&correction) {
            *xi += *ci;
        }
        iters += 1;
        let ax = a.apply_vec(&x);
        for ((ri, &bi), &ai) in r.iter_mut().zip(b).zip(&ax) {
            *ri = bi - ai;
        }
    }

    Ok(IterativeSolution {
        x: best_x,
        iterations: iters,
        converged: best_res <= options.tol,
        relative_residual: best_res,
        residual_history: history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::SerialInverse;
    use hodlr_core::matrix::random_hodlr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cell::Cell;

    /// `y = D x` for a diagonal `D`, counting its applications.
    struct Diagonal {
        d: Vec<f64>,
        applies: Cell<usize>,
    }

    impl Diagonal {
        fn new(d: impl IntoIterator<Item = f64>) -> Self {
            Diagonal {
                d: d.into_iter().collect(),
                applies: Cell::new(0),
            }
        }
    }

    impl LinearOperator<f64> for Diagonal {
        fn dim(&self) -> usize {
            self.d.len()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.applies.set(self.applies.get() + 1);
            for ((yi, &xi), &di) in y.iter_mut().zip(x).zip(&self.d) {
                *yi = di * xi;
            }
        }
    }

    #[test]
    fn sweeps_apply_each_operator_once_and_measure_the_last_correction() {
        let d: Vec<f64> = (0..32).map(|i| 1.0 + i as f64).collect();
        let b: Vec<f64> = (0..32).map(|i| (0.3 * i as f64).sin() + 2.0).collect();
        let options = |max_iters| RefinementOptions {
            tol: 1e-12,
            max_iters,
        };

        // An exact preconditioner converges in its one permitted sweep.
        let a = Diagonal::new(d.clone());
        let exact = Diagonal::new(d.iter().map(|v| 1.0 / v));
        let out = iterative_refinement(&a, &exact, &b, options(1)).unwrap();
        assert!(out.converged, "relres {}", out.relative_residual);
        assert_eq!(out.iterations, 1);

        // A non-finite residual stops the loop before the first sweep.
        let mut nan_b = b.clone();
        nan_b[3] = f64::NAN;
        let m = Diagonal::new(d.iter().map(|v| 1.0 / v));
        let out = iterative_refinement(&a, &m, &nan_b, options(50)).unwrap();
        assert!(!out.converged);
        assert_eq!(m.applies.get(), 0);

        // A contracting preconditioner (residual x 0.1 per sweep) costs one
        // operator application per sweep, none for the zero start.
        let a = Diagonal::new(d.clone());
        let m = Diagonal::new(d.iter().map(|v| 0.9 / v));
        let out = iterative_refinement(&a, &m, &b, options(50)).unwrap();
        assert!(out.converged && out.iterations > 1, "{out:?}");
        assert_eq!(a.applies.get(), out.iterations);
        assert_eq!(m.applies.get(), out.iterations);
    }

    #[test]
    fn exact_preconditioner_converges_in_one_sweep() {
        let mut rng = StdRng::seed_from_u64(30);
        let matrix = random_hodlr::<f64, _>(&mut rng, 64, 2, 2);
        let b: Vec<f64> = hodlr_la::random::random_vector(&mut rng, 64);
        let m = SerialInverse::new(&matrix);
        let out = iterative_refinement(&matrix, &m, &b, RefinementOptions::default()).unwrap();
        assert!(out.converged, "relres {}", out.relative_residual);
        assert!(out.iterations <= 2);
    }

    #[test]
    fn stalls_gracefully_when_the_preconditioner_does_not_contract() {
        use hodlr_la::DenseMatrix;

        // M^{-1} = -2 I against A = I: the iteration matrix I - A M^{-1} =
        // 3 I expands the residual, so refinement must stop early instead
        // of burning its full iteration budget.
        struct Expanding(usize);
        impl LinearOperator<f64> for Expanding {
            fn dim(&self) -> usize {
                self.0
            }
            fn apply(&self, x: &[f64], y: &mut [f64]) {
                for (yi, &xi) in y.iter_mut().zip(x) {
                    *yi = -2.0 * xi;
                }
            }
        }

        let a = DenseMatrix::<f64>::identity(16);
        let b = vec![1.0; 16];
        let out = iterative_refinement(
            &a,
            &Expanding(16),
            &b,
            RefinementOptions {
                tol: 1e-12,
                max_iters: 50,
            },
        )
        .unwrap();
        assert!(!out.converged);
        assert!(out.iterations < 5, "stall detection did not trigger");
        // The harmful correction is rolled back: the returned iterate is the
        // best one measured (here the zero initial guess, residual 1).
        assert!(out.relative_residual <= 1.0 + 1e-12);
        assert!(out.x.iter().all(|&v| v == 0.0));
    }
}
