//! The [`IterativeSolver`] adapter: GMRES / BiCGStab with a HODLR
//! preconditioner, speaking the same [`Solve`] trait as the direct
//! backends.
//!
//! The paper's Table V(b) use case behind one type: factorize a *loose*
//! HODLR approximation (cheap — ranks shrink with the tolerance), hand it
//! to a Krylov method as a right preconditioner, and amortize it over
//! heavy solve traffic.  Non-convergence is a typed
//! [`HodlrError::NonConvergence`] carrying the iteration report, not a
//! silent flag.

use crate::build::Hodlr;
use crate::scalar::SolveScalar;
use crate::solve::{Factorization, Factorize, Solve};
use hodlr_la::{DenseMatrix, HodlrError, Scalar};
use hodlr_solver::{BiCgStab, Gmres, IterativeSolution, LinearOperator};

/// Which Krylov method drives the iteration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum KrylovMethod {
    /// Restarted GMRES(m) with the given restart length (the paper uses
    /// full-memory GMRES; 50 is a safe default).
    Gmres {
        /// Restart length `m`.
        restart: usize,
    },
    /// The short-recurrence alternative (two operator applications per
    /// iteration, constant memory).
    BiCgStab,
}

impl Default for KrylovMethod {
    fn default() -> Self {
        KrylovMethod::Gmres { restart: 50 }
    }
}

/// A Krylov method, an operator, and a HODLR preconditioner bundled behind
/// the [`Solve`] trait.
///
/// Built with [`Hodlr::iterative`]; by default the HODLR approximation
/// itself is the operator and its factorization (on the configured
/// backend) is the preconditioner.  [`IterativeSolver::with_operator`]
/// swaps in the *exact* operator — e.g. a matrix-free
/// [`SourceOperator`](hodlr_solver::SourceOperator) over the original
/// kernel — so the HODLR approximation only serves as `M^{-1}`.
pub struct IterativeSolver<'m, T: Scalar> {
    operator: &'m dyn LinearOperator<T>,
    precond: Factorization<T>,
    method: KrylovMethod,
    tol: f64,
    max_iters: usize,
}

impl<'m, T: Scalar> IterativeSolver<'m, T> {
    /// Bundle an explicit operator and preconditioner factorization.
    ///
    /// # Errors
    /// [`HodlrError::DimensionMismatch`] when they disagree on dimension.
    pub fn new(
        operator: &'m dyn LinearOperator<T>,
        precond: Factorization<T>,
        method: KrylovMethod,
    ) -> Result<Self, HodlrError> {
        HodlrError::check_dims(
            "iterative operator vs preconditioner",
            Solve::dim(&precond),
            operator.dim(),
        )?;
        Ok(IterativeSolver {
            operator,
            precond,
            method,
            tol: 1e-10,
            max_iters: 500,
        })
    }

    /// Solve against this operator instead of the HODLR approximation
    /// (typically the exact matrix-free source the approximation was
    /// compressed from).
    ///
    /// # Errors
    /// [`HodlrError::DimensionMismatch`] when the dimensions disagree.
    pub fn with_operator(
        mut self,
        operator: &'m dyn LinearOperator<T>,
    ) -> Result<Self, HodlrError> {
        HodlrError::check_dims(
            "iterative operator vs preconditioner",
            Solve::dim(&self.precond),
            operator.dim(),
        )?;
        self.operator = operator;
        Ok(self)
    }

    /// Relative-residual tolerance (default `1e-10`).
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Iteration cap (default 500).
    pub fn max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// The preconditioner factorization.
    pub fn preconditioner(&self) -> &Factorization<T> {
        &self.precond
    }

    /// Run the configured method, returning the full iteration report
    /// (residual history included) whether or not it converged.
    ///
    /// # Errors
    /// [`HodlrError::DimensionMismatch`] when `b` has the wrong length.
    pub fn run(&self, b: &[T]) -> Result<IterativeSolution<T>, HodlrError> {
        // The factorization IS the `M^{-1}` operator (see the
        // `LinearOperator` impl on `Factorization`); no adapter needed.
        // The whole Krylov loop runs on the factorization's dedicated pool
        // (when one was configured with `threads(..)`), so the operator
        // matvecs parallelize there too, not on the global pool.
        self.precond.run(|| match self.method {
            KrylovMethod::Gmres { restart } => Gmres::new()
                .restart(restart)
                .tol(self.tol)
                .max_iters(self.max_iters)
                .solve_preconditioned(&self.operator, &self.precond, b),
            KrylovMethod::BiCgStab => BiCgStab::new()
                .tol(self.tol)
                .max_iters(self.max_iters)
                .solve_preconditioned(&self.operator, &self.precond, b),
        })
    }
}

impl<T: Scalar> Solve<T> for IterativeSolver<'_, T> {
    fn dim(&self) -> usize {
        Solve::dim(&self.precond)
    }

    fn solve_in_place(&self, x: &mut [T]) -> Result<(), HodlrError> {
        HodlrError::check_dims("right-hand side", self.dim(), x.len())?;
        let out = self.run(x)?;
        // The best iterate is written back even on non-convergence, so the
        // typed error's "partial answer" is actually reachable.
        x.copy_from_slice(&out.x);
        if !out.converged {
            return Err(HodlrError::NonConvergence {
                iterations: out.iterations,
                relative_residual: out.relative_residual,
                context: match self.method {
                    KrylovMethod::Gmres { restart } => format!("gmres({restart})"),
                    KrylovMethod::BiCgStab => "bicgstab".to_string(),
                },
            });
        }
        Ok(())
    }

    fn solve_block_in_place(&self, x: &mut DenseMatrix<T>) -> Result<(), HodlrError> {
        HodlrError::check_dims("right-hand side block rows", self.dim(), x.rows())?;
        // Each right-hand side builds its own Krylov space; the
        // preconditioner applications still run blocked on the backend.
        // Every column is solved (best effort) before the first
        // non-convergence is reported.
        let mut first_err = None;
        for j in 0..x.cols() {
            if let Err(e) = self.solve_in_place(x.col_mut(j)) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl<T: SolveScalar> Hodlr<T> {
    /// An [`IterativeSolver`] over this matrix: the configured backend's
    /// factorization becomes the right preconditioner and the HODLR
    /// apply (`O(N log N)`) the operator.
    ///
    /// # Errors
    /// Factorization errors propagate (see [`Factorize::factorize`]).
    pub fn iterative(&self, method: KrylovMethod) -> Result<IterativeSolver<'_, T>, HodlrError> {
        IterativeSolver::new(self, self.factorize()?, method)
    }
}
