//! The backend-agnostic [`Factorize`] / [`Solve`] traits and the
//! [`Factorization`] handle that erases the backend type.
//!
//! Every solver in the workspace speaks the same four-method [`Solve`]
//! vocabulary — single right-hand side, blocked multi-RHS, and in-place
//! variants of both — and every fallible path returns
//! [`HodlrError`] instead of panicking.  Callers pick a backend with
//! [`Backend`](crate::Backend) on the builder and never name a concrete
//! solver type again.

use crate::verify::{SolveVerdict, VerifyConfig};
use hodlr_core::{BatchedSolver, FactorKind, SerialSolver};
use hodlr_la::{DenseMatrix, HodlrError, Scalar};
use hodlr_solver::LinearOperator;
use std::sync::Arc;

/// Backend-agnostic solving against a completed factorization.
///
/// Implemented by [`BatchedSolver`] (Algorithms 3–4 on the virtual
/// batched device) and [`SerialSolver`] (Algorithms 1–2, the same batched
/// sweep on a device of the solver's own) — each once, for both factor
/// kinds (LU and symmetric) — the
/// [`IterativeSolver`](crate::IterativeSolver) Krylov adapter, and the
/// type-erased [`Factorization`] handle.
///
/// The in-place variants are the primitive operations; the allocating
/// variants have default implementations on top of them (one copy of the
/// right-hand sides, then the in-place solve).  The batched sweep
/// overrides `solve` and `solve_block` to upload `b` without that copy, and
/// its in-place blocked solve takes the caller's block over as device
/// memory instead of copying it.
pub trait Solve<T: Scalar> {
    /// The dimension `n` of the (square) factorized operator.
    fn dim(&self) -> usize;

    /// Solve `A x = b` in place: on entry `x` holds `b`, on exit the
    /// solution.
    ///
    /// # Errors
    /// [`HodlrError::DimensionMismatch`] when `x` has length `!= dim()`,
    /// [`HodlrError::NotFactorized`] when no factorization is available,
    /// and [`HodlrError::NonConvergence`] from iterative backends.
    fn solve_in_place(&self, x: &mut [T]) -> Result<(), HodlrError>;

    /// Blocked multi-RHS solve in place: every column of `x` is a
    /// right-hand side on entry and a solution on exit.  One sweep
    /// processes all columns (one gemm / one batched launch per tree node
    /// instead of one sweep per column).
    ///
    /// # Errors
    /// As [`Solve::solve_in_place`], judged against the row count of `x`.
    fn solve_block_in_place(&self, x: &mut DenseMatrix<T>) -> Result<(), HodlrError>;

    /// Solve `A x = b` into a fresh vector.
    ///
    /// # Errors
    /// As [`Solve::solve_in_place`].
    fn solve(&self, b: &[T]) -> Result<Vec<T>, HodlrError> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Blocked multi-RHS solve `A X = B` into a fresh matrix.
    ///
    /// # Errors
    /// As [`Solve::solve_block_in_place`].
    fn solve_block(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>, HodlrError> {
        let mut x = b.clone();
        self.solve_block_in_place(&mut x)?;
        Ok(x)
    }

    /// Convenience multi-RHS entry point over a slice of right-hand-side
    /// vectors; packs them into one block, runs a single blocked sweep,
    /// and unpacks.
    ///
    /// # Errors
    /// As [`Solve::solve_block_in_place`]; additionally names the first
    /// right-hand side whose length is wrong.
    fn solve_many(&self, rhs: &[Vec<T>]) -> Result<Vec<Vec<T>>, HodlrError> {
        let n = self.dim();
        let k = rhs.len();
        let mut b = DenseMatrix::<T>::zeros(n, k);
        for (j, col) in rhs.iter().enumerate() {
            HodlrError::check_dims(format!("right-hand side {j}"), n, col.len())?;
            b.col_mut(j).copy_from_slice(col);
        }
        let x = self.solve_block(&b)?;
        Ok((0..k).map(|j| x.col(j).to_vec()).collect())
    }

    /// Log-determinant capability: `(log|det(A)|, sign)` with
    /// `det(A) = sign * exp(log|det(A)|)` and `|sign| = 1`, evaluated from
    /// the stored factors via the product form of the paper's Section
    /// III-E (a).
    ///
    /// Supported by the direct backends ([`SerialSolver`],
    /// [`BatchedSolver`], and the type-erased [`Factorization`] over either),
    /// where serial and batched results agree **bitwise**.  The
    /// mixed-precision backend reports the log-determinant of its
    /// *lower-precision* factors (~`1e-7` relative accuracy for `f64`
    /// scalars); iterative solvers have no determinant and keep this
    /// default.
    ///
    /// # Errors
    /// [`HodlrError::NotFactorized`] when the backend has no completed
    /// factorization, and [`HodlrError::InvalidConfig`] for backends with
    /// no determinant (the default implementation).
    fn log_det(&self) -> Result<(T::Real, T), HodlrError> {
        Err(HodlrError::config(
            "this solver does not expose a log-determinant (only factorization \
             backends do)",
        ))
    }

    /// Approximate size of the stored factors in bytes — cache-key
    /// material for admission and eviction decisions in a factorization
    /// cache (e.g. `hodlr-serve`'s memory budget).
    ///
    /// Counts factor payload (`O(N log N)` scalar entries), not control
    /// metadata; backends without stored factors (iterative adapters) keep
    /// the default of 0.  The count is the device model's: the direct
    /// backends count `Vbig` in full, although they read it in place from
    /// the matrix's own allocation, so a caller that adds the matrix's
    /// storage counts a shared `Vbig` twice, once in each.
    fn factor_bytes(&self) -> u64 {
        0
    }

    /// Hager/Higham estimate of `‖A⁻¹‖₁` driven by this solver's own
    /// solves — a handful of `O(N log N)` applications instead of an
    /// inverse.  Combined with the operator's `‖A‖₁` estimate this gives
    /// the condition estimate attached to [`SolveVerdict::Suspect`].
    ///
    /// The estimator needs `A⁻ᴴ` applications too; this default reuses the
    /// forward solve for them, which is **exact for Hermitian operators**
    /// (`A⁻ᴴ = A⁻¹`) — the GP-covariance and symmetrized-BIE workloads
    /// this system serves — and a documented heuristic otherwise (the
    /// estimate stays a valid order-of-magnitude indicator because
    /// `‖A⁻ᵀ‖₁ = ‖A⁻¹‖_∞` is within a factor `n` of `‖A⁻¹‖₁`).
    ///
    /// # Errors
    /// Propagates the first solve failure ([`HodlrError::NotFactorized`],
    /// [`HodlrError::NonConvergence`], ...).
    fn inv_norm1_est(&self) -> Result<f64, HodlrError> {
        let mut apply = |x: &mut [T]| self.solve_in_place(x);
        let mut apply_adjoint = |x: &mut [T]| self.solve_in_place(x);
        hodlr_la::one_norm_est(self.dim(), &mut apply, &mut apply_adjoint)
    }

    /// Judge a candidate solution `x` from its precomputed scaled residual
    /// `‖Ax−b‖₂ / (‖A‖₁ᵉˢᵗ‖x‖₂)` (see
    /// [`scaled_residual`](crate::verify::scaled_residual); the caller
    /// supplies it because only the caller holds the operator for the
    /// matvec).  `norm1_est` is the same `‖A‖₁` estimate used to scale the
    /// residual, reused for the condition estimate.
    ///
    /// Verdict semantics:
    /// * non-finite entries in `x` or a non-finite residual →
    ///   [`SolveVerdict::NonFinite`];
    /// * residual within the threshold → [`SolveVerdict::Verified`]
    ///   (no extra work);
    /// * otherwise → [`SolveVerdict::Suspect`] carrying the residual and a
    ///   condition estimate computed via [`Solve::inv_norm1_est`]
    ///   (`f64::INFINITY` when that fails — an unestimatable operator is
    ///   maximally suspect).
    fn verify_solution(
        &self,
        x: &[T],
        residual: f64,
        norm1_est: f64,
        cfg: &VerifyConfig,
    ) -> SolveVerdict {
        if residual.is_nan() || x.iter().any(|v| !v.is_finite()) {
            return SolveVerdict::NonFinite;
        }
        if residual <= cfg.residual_threshold {
            return SolveVerdict::Verified { residual };
        }
        let cond_est = match self.inv_norm1_est() {
            Ok(inv) => norm1_est * inv,
            Err(_) => f64::INFINITY,
        };
        SolveVerdict::Suspect { residual, cond_est }
    }
}

/// The serial backend solves on the batched solver it owns, and counts its
/// bytes; only its log-determinant (infallible) is its own.
impl<T: Scalar, K: FactorKind<T>> Solve<T> for SerialSolver<T, K> {
    fn dim(&self) -> usize {
        self.batched().dim()
    }

    fn solve_in_place(&self, x: &mut [T]) -> Result<(), HodlrError> {
        self.batched().solve_in_place(x)
    }

    fn solve(&self, b: &[T]) -> Result<Vec<T>, HodlrError> {
        Solve::solve(self.batched(), b)
    }

    fn solve_block_in_place(&self, x: &mut DenseMatrix<T>) -> Result<(), HodlrError> {
        self.batched().solve_matrix_in_place(x)
    }

    fn log_det(&self) -> Result<(T::Real, T), HodlrError> {
        Ok(SerialSolver::log_det(self))
    }

    fn factor_bytes(&self) -> u64 {
        self.batched().factor_bytes()
    }
}

impl<T: Scalar, K: FactorKind<T>> Solve<T> for BatchedSolver<'_, T, K> {
    fn dim(&self) -> usize {
        self.n()
    }

    fn solve_in_place(&self, x: &mut [T]) -> Result<(), HodlrError> {
        let out = BatchedSolver::solve(self, x)?;
        x.copy_from_slice(&out);
        Ok(())
    }

    fn solve(&self, b: &[T]) -> Result<Vec<T>, HodlrError> {
        BatchedSolver::solve(self, b)
    }

    fn solve_block_in_place(&self, x: &mut DenseMatrix<T>) -> Result<(), HodlrError> {
        self.solve_matrix_in_place(x)
    }

    fn solve_block(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>, HodlrError> {
        BatchedSolver::solve_matrix(self, b)
    }

    fn log_det(&self) -> Result<(T::Real, T), HodlrError> {
        BatchedSolver::log_det(self)
    }

    fn factor_bytes(&self) -> u64 {
        (self.storage_entries() * std::mem::size_of::<T>()) as u64
    }
}

/// Anything that can be factorized into a backend-agnostic
/// [`Factorization`].
///
/// Implemented by [`Hodlr`](crate::Hodlr) (dispatching on the configured
/// [`Backend`](crate::Backend) and [`Precision`](crate::Precision)) and by
/// a bare [`HodlrMatrix`](hodlr_core::HodlrMatrix) (always the serial
/// full-precision backend).
pub trait Factorize<T: Scalar> {
    /// Factorize, producing a handle that solves through the [`Solve`]
    /// trait.
    ///
    /// # Errors
    /// [`HodlrError::SingularPivot`] when a diagonal or coupling block is
    /// singular, plus configuration errors from exotic backend /
    /// precision combinations.
    fn factorize(&self) -> Result<Factorization<T>, HodlrError>;
}

impl<T: Scalar> Factorize<T> for hodlr_core::HodlrMatrix<T> {
    fn factorize(&self) -> Result<Factorization<T>, HodlrError> {
        Ok(Factorization {
            inner: Box::new(self.factorize_serial()?),
            backend: crate::Backend::Serial,
            precision: crate::Precision::Full,
            pool: None,
        })
    }
}

/// A completed factorization with the backend erased: solve through the
/// [`Solve`] trait without knowing whether Algorithms 1–2, Algorithms 3–4,
/// or a mixed-precision refinement loop run underneath.
///
/// A factorization owns what it solves with: its factors, a clone of the
/// handle's device, the handle's dedicated pool and, under the
/// lower-precision policies, the stored representation it refines against.
/// It borrows nothing, so it may outlive the [`Hodlr`](crate::Hodlr) it
/// came from, and it is `Send + Sync`: one factorization can serve solves
/// from many threads concurrently (every [`Solve`] method takes `&self`).
/// The `hodlr-serve` crate relies on this to share cached factorizations
/// across request handlers.
pub struct Factorization<T: Scalar> {
    pub(crate) inner: Box<dyn Solve<T> + Send + Sync>,
    pub(crate) backend: crate::Backend,
    pub(crate) precision: crate::Precision,
    /// Dedicated worker pool of the [`Hodlr`](crate::Hodlr) it came from,
    /// when one was configured with `threads(..)`.
    pub(crate) pool: Option<Arc<rayon::ThreadPool>>,
}

impl<T: Scalar> Factorization<T> {
    /// The backend that produced this factorization.
    pub fn backend(&self) -> crate::Backend {
        self.backend
    }

    /// The precision policy of this factorization.
    pub fn precision(&self) -> crate::Precision {
        self.precision
    }

    pub(crate) fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.pool {
            Some(pool) => pool.install(f),
            None => f(),
        }
    }
}

impl<T: Scalar> Solve<T> for Factorization<T> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn solve_in_place(&self, x: &mut [T]) -> Result<(), HodlrError> {
        self.run(|| self.inner.solve_in_place(x))
    }

    fn solve_block_in_place(&self, x: &mut DenseMatrix<T>) -> Result<(), HodlrError> {
        self.run(|| self.inner.solve_block_in_place(x))
    }

    fn solve(&self, b: &[T]) -> Result<Vec<T>, HodlrError> {
        self.run(|| self.inner.solve(b))
    }

    fn solve_block(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>, HodlrError> {
        self.run(|| self.inner.solve_block(b))
    }

    fn solve_many(&self, rhs: &[Vec<T>]) -> Result<Vec<Vec<T>>, HodlrError> {
        self.run(|| self.inner.solve_many(rhs))
    }

    fn log_det(&self) -> Result<(T::Real, T), HodlrError> {
        self.run(|| self.inner.log_det())
    }

    fn factor_bytes(&self) -> u64 {
        self.inner.factor_bytes()
    }

    fn inv_norm1_est(&self) -> Result<f64, HodlrError> {
        self.run(|| self.inner.inv_norm1_est())
    }

    fn verify_solution(
        &self,
        x: &[T],
        residual: f64,
        norm1_est: f64,
        cfg: &VerifyConfig,
    ) -> SolveVerdict {
        self.run(|| self.inner.verify_solution(x, residual, norm1_est, cfg))
    }
}

/// A factorization applies `A^{-1}` as a [`LinearOperator`]: the Krylov
/// methods consume it directly as a right preconditioner, and the
/// spectral subsystem iterates on it for shift-invert interior
/// eigenvalues.
impl<T: Scalar> LinearOperator<T> for Factorization<T> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        y.copy_from_slice(x);
        match self.solve_in_place(y) {
            Ok(()) => {}
            // A best-effort correction (mixed-precision refinement that hit
            // its sweep cap) is still a valid operator application; the
            // caller's residual check decides what it was worth.
            Err(HodlrError::NonConvergence { .. }) => {}
            Err(e) => panic!("factorization apply failed: {e}"),
        }
    }

    fn apply_to_block(&self, x: &DenseMatrix<T>) -> DenseMatrix<T> {
        let mut y = x.clone();
        match self.solve_block_in_place(&mut y) {
            Ok(()) | Err(HodlrError::NonConvergence { .. }) => y,
            Err(e) => panic!("factorization apply failed: {e}"),
        }
    }
}

// Compile-time proof of the ownership and concurrency contract: a
// `Factorization` borrows nothing and can cross threads, so N handlers may
// solve against one cached factorization at once.
const _: () = {
    const fn assert_owned<S: Send + Sync + 'static>() {}
    assert_owned::<Factorization<f64>>();
    assert_owned::<Factorization<hodlr_la::Complex64>>();
};
