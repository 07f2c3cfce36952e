//! Restarted GMRES(m) with right preconditioning.
//!
//! Arnoldi with modified Gram–Schmidt, Givens rotations on the Hessenberg
//! matrix (complex-capable), and the standard right-preconditioned
//! formulation: solve `A M^{-1} u = b`, then `x = M^{-1} u`, so the
//! residual recurrence tracks the residual of the *original* system and
//! the preconditioner only has to be applied, never transposed.

use crate::operator::{IdentityPreconditioner, LinearOperator};
use crate::report::IterativeSolution;
use hodlr_la::blas::{axpy_slice, dot_conj};
use hodlr_la::norms::norm2;
use hodlr_la::{HodlrError, RealScalar, Scalar};

/// Restarted GMRES(m).
#[derive(Copy, Clone, Debug)]
pub struct Gmres {
    restart: usize,
    max_iters: usize,
    tol: f64,
}

impl Default for Gmres {
    fn default() -> Self {
        Gmres {
            restart: 50,
            max_iters: 500,
            tol: 1e-10,
        }
    }
}

impl Gmres {
    /// GMRES with the default configuration (restart 50, 500 iterations,
    /// relative tolerance 1e-10).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the restart length `m` (a zero restart is reported as
    /// [`HodlrError::InvalidConfig`] at solve time).
    pub fn restart(mut self, m: usize) -> Self {
        self.restart = m;
        self
    }

    /// Set the total iteration cap (across restarts).
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
    /// disagree, or [`HodlrError::InvalidConfig`] for a bad configuration.
    /// Non-convergence is *not* an error at this layer: the returned
    /// [`IterativeSolution`] reports it (the `hodlr` façade's `Solve`
    /// implementation converts it into [`HodlrError::NonConvergence`]).
    pub fn solve<T, A>(&self, a: &A, b: &[T]) -> Result<IterativeSolution<T>, HodlrError>
    where
        T: Scalar,
        A: LinearOperator<T>,
    {
        self.solve_preconditioned(a, &IdentityPreconditioner(b.len()), b)
    }

    /// Solve `A x = b` with `m` as a right preconditioner (`m` applies
    /// `M^{-1}`, e.g. the `hodlr` façade's `Factorization` of a loose
    /// HODLR approximation).
    /// # Errors
    /// See [`Gmres::solve`].
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
        HodlrError::check_dims("gmres operator vs right-hand side", a.dim(), n)?;
        HodlrError::check_dims("gmres preconditioner vs right-hand side", m.dim(), n)?;
        if self.restart == 0 {
            return Err(HodlrError::config("gmres restart length must be positive"));
        }
        if self.tol <= 0.0 || !self.tol.is_finite() {
            return Err(HodlrError::config(format!(
                "gmres tolerance must be positive and finite, got {:e}",
                self.tol
            )));
        }
        let bnorm = norm2(b).to_f64();
        let mut x = vec![T::zero(); n];
        let mut history = Vec::new();
        let mut iters = 0usize;
        if bnorm == 0.0 {
            return Ok(IterativeSolution::zero_rhs(n));
        }

        'outer: while iters < self.max_iters {
            // True residual at every (re)start.
            let ax = a.apply_vec(&x);
            let r: Vec<T> = b.iter().zip(&ax).map(|(&bi, &ai)| bi - ai).collect();
            let beta = norm2(&r).to_f64();
            if beta / bnorm <= self.tol {
                break 'outer;
            }

            let m_dim = self.restart.min(self.max_iters - iters);
            let inv_beta = T::Real::from_f64_real(1.0 / beta);
            let mut v: Vec<Vec<T>> = Vec::with_capacity(m_dim + 1);
            v.push(r.iter().map(|&ri| ri.scale(inv_beta)).collect());
            // Hessenberg columns after rotation; column j holds j + 2 rows.
            let mut h: Vec<Vec<T>> = Vec::with_capacity(m_dim);
            let mut cs: Vec<T> = Vec::with_capacity(m_dim);
            let mut sn: Vec<T> = Vec::with_capacity(m_dim);
            let mut g = vec![T::zero(); m_dim + 1];
            g[0] = T::from_f64(beta);
            let mut k = 0usize;

            for j in 0..m_dim {
                // w = A M^{-1} v_j.
                let z = m.apply_vec(&v[j]);
                let mut w = a.apply_vec(&z);

                // Modified Gram–Schmidt against the basis so far.
                let mut hcol = Vec::with_capacity(j + 2);
                for vi in v.iter().take(j + 1) {
                    let hij = dot_conj(vi, &w);
                    axpy_slice(-hij, vi, &mut w);
                    hcol.push(hij);
                }
                let wnorm = norm2(&w).to_f64();
                hcol.push(T::from_f64(wnorm));

                // Apply the accumulated Givens rotations to the new column.
                for i in 0..j {
                    let hi = hcol[i];
                    let hi1 = hcol[i + 1];
                    hcol[i] = cs[i].conj() * hi + sn[i].conj() * hi1;
                    hcol[i + 1] = cs[i] * hi1 - sn[i] * hi;
                }

                // The rotation eliminating the subdiagonal entry.
                let t = (hcol[j].abs_sqr() + hcol[j + 1].abs_sqr()).sqrt_real();
                if t.to_f64() == 0.0 {
                    // Exact breakdown: the Krylov space stopped growing and
                    // the column is zero; solve with the columns we have.
                    break;
                }
                let tinv = T::from_real(t).recip();
                let c = hcol[j] * tinv;
                let s = hcol[j + 1] * tinv;
                cs.push(c);
                sn.push(s);
                hcol[j] = T::from_real(t);
                hcol[j + 1] = T::zero();
                h.push(hcol);
                let gj = g[j];
                g[j] = c.conj() * gj;
                g[j + 1] = -(s * gj);

                k = j + 1;
                iters += 1;
                let res = g[j + 1].abs().to_f64() / bnorm;
                history.push(res);
                if res <= self.tol || wnorm == 0.0 || iters >= self.max_iters {
                    break;
                }
                let inv_wnorm = T::Real::from_f64_real(1.0 / wnorm);
                v.push(w.iter().map(|&wi| wi.scale(inv_wnorm)).collect());
            }

            if k == 0 {
                // Immediate breakdown: no progress is possible.
                break 'outer;
            }

            // Back substitution on the k x k triangle.
            let mut y = vec![T::zero(); k];
            for i in (0..k).rev() {
                let mut acc = g[i];
                for (l, yl) in y.iter().enumerate().take(k).skip(i + 1) {
                    acc -= h[l][i] * *yl;
                }
                y[i] = acc * h[i][i].recip();
            }

            // x += M^{-1} (V y).
            let mut u = vec![T::zero(); n];
            for (l, yl) in y.iter().enumerate() {
                axpy_slice(*yl, &v[l], &mut u);
            }
            let correction = m.apply_vec(&u);
            for (xi, ci) in x.iter_mut().zip(&correction) {
                *xi += *ci;
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
    fn converges_on_a_small_spd_like_system() {
        // Diagonally dominant dense system: GMRES without restart pressure.
        let mut rng = StdRng::seed_from_u64(10);
        let a: DenseMatrix<f64> = hodlr_la::random::random_diag_dominant(&mut rng, 40);
        let x_true: Vec<f64> = (0..40).map(|i| (i as f64 * 0.21).sin()).collect();
        let b = a.matvec(&x_true);
        let out = Gmres::new()
            .tol(1e-12)
            .solve(&a, &b)
            .unwrap()
            .expect_converged("dense gmres");
        for (xi, ei) in out.x.iter().zip(&x_true) {
            assert!((xi - ei).abs() < 1e-8, "{xi} vs {ei}");
        }
        assert!(out.relative_residual < 1e-12);
        assert!(!out.residual_history.is_empty());
    }

    #[test]
    fn complex_system_converges() {
        let mut rng = StdRng::seed_from_u64(11);
        let a: DenseMatrix<Complex64> = hodlr_la::random::random_diag_dominant(&mut rng, 32);
        let x_true: Vec<Complex64> = (0..32)
            .map(|i| Complex64::new((i as f64).cos(), (i as f64 * 0.4).sin()))
            .collect();
        let b = a.matvec(&x_true);
        let out = Gmres::new()
            .tol(1e-12)
            .solve(&a, &b)
            .unwrap()
            .expect_converged("complex gmres");
        for (xi, ei) in out.x.iter().zip(&x_true) {
            assert!((*xi - *ei).abs() < 1e-8);
        }
    }

    #[test]
    fn exact_hodlr_preconditioner_converges_in_one_iteration() {
        // Preconditioning with an exact factorization of A makes
        // A M^{-1} = I: GMRES must converge in a single iteration.
        let mut rng = StdRng::seed_from_u64(12);
        let matrix = random_hodlr::<f64, _>(&mut rng, 96, 2, 3);
        let b: Vec<f64> = hodlr_la::random::random_vector(&mut rng, 96);
        let precond = SerialInverse::new(&matrix);
        let out = Gmres::new()
            .tol(1e-10)
            .solve_preconditioned(&matrix, &precond, &b)
            .unwrap()
            .expect_converged("exactly preconditioned gmres");
        assert!(out.iterations <= 2, "took {} iterations", out.iterations);
    }

    #[test]
    fn restart_still_converges() {
        let mut rng = StdRng::seed_from_u64(13);
        let a: DenseMatrix<f64> = hodlr_la::random::random_diag_dominant(&mut rng, 60);
        let b: Vec<f64> = hodlr_la::random::random_vector(&mut rng, 60);
        let out = Gmres::new()
            .restart(5)
            .max_iters(400)
            .tol(1e-10)
            .solve(&a, &b)
            .unwrap()
            .expect_converged("restarted gmres");
        assert!(out.relative_residual < 1e-10);
    }

    #[test]
    fn zero_rhs_returns_zero_immediately() {
        let mut rng = StdRng::seed_from_u64(14);
        let a: DenseMatrix<f64> = hodlr_la::random::random_diag_dominant(&mut rng, 8);
        let out = Gmres::new().solve(&a, &[0.0; 8]).unwrap();
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert!(out.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn iteration_cap_is_respected() {
        let mut rng = StdRng::seed_from_u64(15);
        // An ill-conditioned random matrix that will not converge in 3 steps.
        let a: DenseMatrix<f64> = hodlr_la::random::random_matrix(&mut rng, 50, 50);
        let b: Vec<f64> = hodlr_la::random::random_vector(&mut rng, 50);
        let out = Gmres::new().max_iters(3).tol(1e-14).solve(&a, &b).unwrap();
        assert!(!out.converged);
        assert_eq!(out.iterations, 3);
    }
}
