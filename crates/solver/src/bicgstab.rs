//! BiCGStab with right preconditioning (van der Vorst's stabilised
//! bi-conjugate gradients), the short-recurrence alternative to GMRES:
//! constant memory instead of a growing Krylov basis, at the price of a
//! less monotone residual.

use crate::operator::{IdentityPreconditioner, LinearOperator};
use crate::report::IterativeSolution;
use hodlr_la::blas::{axpy_slice, dot_conj};
use hodlr_la::norms::norm2;
use hodlr_la::HodlrError;
use hodlr_la::{RealScalar, Scalar};

/// The BiCGStab method.
#[derive(Copy, Clone, Debug)]
pub struct BiCgStab {
    max_iters: usize,
    tol: f64,
}

impl Default for BiCgStab {
    fn default() -> Self {
        BiCgStab {
            max_iters: 500,
            tol: 1e-10,
        }
    }
}

impl BiCgStab {
    /// BiCGStab with the default configuration (500 iterations, relative
    /// tolerance 1e-10).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the iteration cap.
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Set the relative-residual tolerance.
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Solve `A x = b` without preconditioning.
    ///
    /// # Errors
    /// Returns [`HodlrError::DimensionMismatch`] when `b` and the operator
    /// disagree.  Non-convergence is reported in the returned
    /// [`IterativeSolution`], not as an error.
    pub fn solve<T, A>(&self, a: &A, b: &[T]) -> Result<IterativeSolution<T>, HodlrError>
    where
        T: Scalar,
        A: LinearOperator<T>,
    {
        self.solve_preconditioned(a, &IdentityPreconditioner(b.len()), b)
    }

    /// Solve `A x = b` with `m` applying `M^{-1}` as a right
    /// preconditioner.  One iteration performs two operator and two
    /// preconditioner applications.
    /// # Errors
    /// See [`BiCgStab::solve`].
    pub fn solve_preconditioned<T, A, M>(
        &self,
        a: &A,
        m: &M,
        b: &[T],
    ) -> Result<IterativeSolution<T>, HodlrError>
    where
        T: Scalar,
        A: LinearOperator<T>,
        M: LinearOperator<T>,
    {
        let n = b.len();
        HodlrError::check_dims("bicgstab operator vs right-hand side", a.dim(), n)?;
        HodlrError::check_dims("bicgstab preconditioner vs right-hand side", m.dim(), n)?;
        if self.tol <= 0.0 || !self.tol.is_finite() {
            return Err(HodlrError::config(format!(
                "bicgstab tolerance must be positive and finite, got {:e}",
                self.tol
            )));
        }
        let bnorm = norm2(b).to_f64();
        let mut x = vec![T::zero(); n];
        let mut history = Vec::new();
        if bnorm == 0.0 {
            return Ok(IterativeSolution::zero_rhs(n));
        }

        let mut r: Vec<T> = b.to_vec();
        // Shadow residual, fixed to r0 (the standard choice).
        let r_hat = r.clone();
        let mut rho = T::one();
        let mut alpha = T::one();
        let mut omega = T::one();
        let mut v = vec![T::zero(); n];
        let mut p = vec![T::zero(); n];
        let mut iters = 0usize;
        // Live-residual convergence is handled by the breaks inside the
        // loop (at the half step and after the full update); the loop
        // itself only guards the iteration budget.
        let mut res = norm2(&r).to_f64() / bnorm;

        while res > self.tol && iters < self.max_iters {
            let rho_new = dot_conj(&r_hat, &r);
            if rho_new.abs().to_f64() == 0.0 {
                break; // Lanczos breakdown.
            }
            let beta = (rho_new * rho.recip()) * (alpha * omega.recip());
            rho = rho_new;
            // p = r + beta (p - omega v).
            for i in 0..n {
                p[i] = r[i] + beta * (p[i] - omega * v[i]);
            }
            let p_hat = m.apply_vec(&p);
            v = a.apply_vec(&p_hat);
            let denom = dot_conj(&r_hat, &v);
            if denom.abs().to_f64() == 0.0 {
                break;
            }
            alpha = rho * denom.recip();

            // s = r - alpha v; first convergence check at the half step.
            let mut s = r.clone();
            axpy_slice(-alpha, &v, &mut s);
            iters += 1;
            let s_res = norm2(&s).to_f64() / bnorm;
            if s_res <= self.tol {
                axpy_slice(alpha, &p_hat, &mut x);
                history.push(s_res);
                break;
            }

            let s_hat = m.apply_vec(&s);
            let t = a.apply_vec(&s_hat);
            let t_dot_t = dot_conj(&t, &t);
            if t_dot_t.abs().to_f64() == 0.0 {
                break; // Stagnation.
            }
            omega = dot_conj(&t, &s) * t_dot_t.recip();
            axpy_slice(alpha, &p_hat, &mut x);
            axpy_slice(omega, &s_hat, &mut x);
            r = s;
            axpy_slice(-omega, &t, &mut r);

            res = norm2(&r).to_f64() / bnorm;
            history.push(res);
            if omega.abs().to_f64() == 0.0 {
                break; // omega breakdown: cannot continue the recurrence.
            }
        }

        // Report against the true residual, not the recurrence.
        Ok(IterativeSolution::from_candidate(
            a, b, bnorm, self.tol, x, iters, history,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::SerialInverse;
    use hodlr_core::matrix::random_hodlr;
    use hodlr_la::{Complex64, DenseMatrix};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn converges_on_a_diagonally_dominant_system() {
        let mut rng = StdRng::seed_from_u64(20);
        let a: DenseMatrix<f64> = hodlr_la::random::random_diag_dominant(&mut rng, 48);
        let x_true: Vec<f64> = (0..48).map(|i| (i as f64 * 0.17).cos()).collect();
        let b = a.matvec(&x_true);
        let out = BiCgStab::new()
            .tol(1e-12)
            .solve(&a, &b)
            .unwrap()
            .expect_converged("bicgstab");
        for (xi, ei) in out.x.iter().zip(&x_true) {
            assert!((xi - ei).abs() < 1e-8);
        }
    }

    #[test]
    fn complex_system_converges() {
        let mut rng = StdRng::seed_from_u64(21);
        let a: DenseMatrix<Complex64> = hodlr_la::random::random_diag_dominant(&mut rng, 36);
        let b: Vec<Complex64> = hodlr_la::random::random_vector(&mut rng, 36);
        let out = BiCgStab::new()
            .tol(1e-11)
            .solve(&a, &b)
            .unwrap()
            .expect_converged("complex bicgstab");
        assert!(out.relative_residual < 1e-11);
    }

    #[test]
    fn exact_preconditioner_converges_immediately() {
        let mut rng = StdRng::seed_from_u64(22);
        let matrix = random_hodlr::<f64, _>(&mut rng, 64, 2, 2);
        let b: Vec<f64> = hodlr_la::random::random_vector(&mut rng, 64);
        let precond = SerialInverse::new(&matrix);
        let out = BiCgStab::new()
            .tol(1e-10)
            .solve_preconditioned(&matrix, &precond, &b)
            .unwrap()
            .expect_converged("preconditioned bicgstab");
        assert!(out.iterations <= 2, "took {} iterations", out.iterations);
    }

    #[test]
    fn zero_rhs_is_trivial() {
        let mut rng = StdRng::seed_from_u64(23);
        let a: DenseMatrix<f64> = hodlr_la::random::random_diag_dominant(&mut rng, 8);
        let out = BiCgStab::new().solve(&a, &[0.0; 8]).unwrap();
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
    }
}
