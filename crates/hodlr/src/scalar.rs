//! The sealed [`SolveScalar`] extension trait: per-scalar dispatch of the
//! two lower-precision [`Precision`] policies, `MixedRefine` and
//! `CompactLower`.
//!
//! Both factorize a HODLR matrix in the *companion lower precision*
//! (`f64 -> f32`, `Complex64 -> Complex32`) on whichever [`Backend`] and
//! [`Symmetry`](crate::Symmetry) the builder selected — through the one
//! factor path every factorization of the handle takes — and recover
//! working-precision accuracy by iterative refinement.  `MixedRefine`
//! demotes the built working-precision matrix (shared bases stay shared)
//! and takes its residuals from it, so `Backend::Batched` +
//! `Precision::MixedRefine` demotes, uploads and factorizes on the virtual
//! device in `f32`.  `CompactLower` *builds* the representation in the
//! lower precision (the working-precision matrix never exists) and takes
//! the residuals from the promoted operator instead.  For the scalars that
//! *are* the lower precision (`f32`, `Complex32`) both policies are
//! rejected with a typed error instead of a compile failure, keeping
//! [`Hodlr`] generic over every [`Scalar`].
//!
//! [`Backend`]: crate::Backend

use crate::build::{Hodlr, HodlrBuilder, Precision, Store};
use crate::compact::{build_compact_store, CompactOps};
use crate::solve::Solve;
use hodlr_compress::MatrixEntrySource;
use hodlr_core::{BuildOptions, HodlrMatrix};
use hodlr_la::{Complex32, Complex64, DemoteScalar, DenseMatrix, HodlrError, RealScalar, Scalar};
use hodlr_solver::{iterative_refinement, LinearOperator, RefinementOptions};
use hodlr_tree::ClusterTree;
use std::sync::Arc;

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
    impl Sealed for super::Complex32 {}
    impl Sealed for super::Complex64 {}
}

/// A [`Scalar`] the façade can factorize under every precision policy.
///
/// Sealed: implemented for exactly `f32`, `f64`, `Complex32` and
/// `Complex64`.  The methods are implementation details of
/// [`Factorize`](crate::Factorize) for [`Hodlr`] and of
/// [`HodlrBuilder::build`].
pub trait SolveScalar: Scalar + sealed::Sealed {
    /// Build the mixed-precision solver for `hodlr`'s working-precision
    /// `matrix`, or explain why the scalar cannot be demoted.
    #[doc(hidden)]
    fn mixed_factorization(
        hodlr: &Hodlr<Self>,
        matrix: &HodlrMatrix<Self>,
    ) -> Result<Box<dyn Solve<Self> + Send + Sync>, HodlrError>;

    /// Compress `source` straight into compact lower-precision storage
    /// with `builder`'s settings, or explain why the scalar cannot be
    /// demoted.
    #[doc(hidden)]
    fn build_compact(
        builder: &HodlrBuilder<'_, Self>,
        source: &(dyn MatrixEntrySource<Self> + '_),
        tree: ClusterTree,
        options: BuildOptions<'_>,
    ) -> Result<Arc<dyn CompactOps<Self>>, HodlrError>;
}

/// The two scalars with a lower companion: demote, or build demoted.
macro_rules! demotable {
    ($($t:ty),*) => {$(
        impl SolveScalar for $t {
            fn mixed_factorization(
                hodlr: &Hodlr<Self>,
                matrix: &HodlrMatrix<Self>,
            ) -> Result<Box<dyn Solve<Self> + Send + Sync>, HodlrError> {
                let low = matrix.map(Self::demote);
                refined_factorization(hodlr, &low, "mixed-precision iterative refinement")
            }

            fn build_compact(
                builder: &HodlrBuilder<'_, Self>,
                source: &(dyn MatrixEntrySource<Self> + '_),
                tree: ClusterTree,
                options: BuildOptions<'_>,
            ) -> Result<Arc<dyn CompactOps<Self>>, HodlrError> {
                build_compact_store(builder, source, tree, options)
            }
        }
    )*};
}
demotable!(f64, Complex64);

/// The two scalars that are the lower precision: a typed rejection.
macro_rules! lowest {
    ($($t:ty),*) => {$(
        impl SolveScalar for $t {
            fn mixed_factorization(
                _: &Hodlr<Self>,
                _: &HodlrMatrix<Self>,
            ) -> Result<Box<dyn Solve<Self> + Send + Sync>, HodlrError> {
                Err(no_lower_precision(Precision::MixedRefine, stringify!($t)))
            }

            fn build_compact(
                _: &HodlrBuilder<'_, Self>,
                _: &(dyn MatrixEntrySource<Self> + '_),
                _: ClusterTree,
                _: BuildOptions<'_>,
            ) -> Result<Arc<dyn CompactOps<Self>>, HodlrError> {
                Err(no_lower_precision(Precision::CompactLower, stringify!($t)))
            }
        }
    )*};
}
lowest!(f32, Complex32);

/// The typed rejection of a lower-precision policy on a scalar that already
/// is the lower precision.
fn no_lower_precision(precision: Precision, scalar: &str) -> HodlrError {
    HodlrError::config(format!(
        "Precision::{precision:?} requires a double-precision scalar (f64 or Complex64); \
         {scalar} has no lower companion precision"
    ))
}

/// Factorize the lower-precision `low` through `hodlr`'s one factor path
/// and wrap it in working-precision refinement against `hodlr`'s stored
/// representation (shared, not copied), to `hodlr`'s refinement tolerance
/// and sweep cap.
pub(crate) fn refined_factorization<T: DemoteScalar>(
    hodlr: &Hodlr<T>,
    low: &HodlrMatrix<T::Lower>,
    context: &'static str,
) -> Result<Box<dyn Solve<T> + Send + Sync>, HodlrError> {
    Ok(Box::new(RefinedSolver {
        op: hodlr.store.clone(),
        inner: hodlr.factorize_matrix(low)?,
        options: RefinementOptions {
            tol: hodlr.refine_tol(),
            max_iters: hodlr.refine_max_iters(),
        },
        context,
    }))
}

/// A lower-precision factorization plus working-precision iterative
/// refinement to the configured tolerance — the solver behind both
/// lower-precision [`Precision`] policies.
struct RefinedSolver<T: DemoteScalar> {
    /// The working-precision residual operator.
    op: Store<T>,
    inner: Box<dyn Solve<T::Lower> + Send + Sync>,
    options: RefinementOptions,
    context: &'static str,
}

/// The lower-precision factorization exposed as a working-precision
/// `M^{-1}` operator: residuals are demoted, solved, and the correction
/// promoted back.
struct DemotedPrecondOp<'a, T: DemoteScalar> {
    inner: &'a dyn Solve<T::Lower>,
}

impl<T: DemoteScalar> LinearOperator<T> for DemotedPrecondOp<'_, T> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        let demoted: Vec<T::Lower> = x.iter().map(|&v| v.demote()).collect();
        let solved = self
            .inner
            .solve(&demoted)
            .expect("refinement residual has the factorization's dimension");
        for (yi, lo) in y.iter_mut().zip(solved) {
            *yi = T::promote(lo);
        }
    }
}

impl<T: DemoteScalar> Solve<T> for RefinedSolver<T> {
    fn dim(&self) -> usize {
        self.op.dim()
    }

    fn solve_in_place(&self, x: &mut [T]) -> Result<(), HodlrError> {
        HodlrError::check_dims("right-hand side", self.dim(), x.len())?;
        let m = DemotedPrecondOp::<T> {
            inner: self.inner.as_ref(),
        };
        let out = iterative_refinement(&self.op, &m, x, self.options)?;
        // The best iterate is written back even when refinement stalls, so
        // callers that can live with a best-effort answer (e.g. a Krylov
        // method applying this as a preconditioner) still get one alongside
        // the typed error.
        x.copy_from_slice(&out.x);
        if !out.converged {
            return Err(HodlrError::NonConvergence {
                iterations: out.iterations,
                relative_residual: out.relative_residual,
                context: self.context.to_string(),
            });
        }
        Ok(())
    }

    fn solve_block_in_place(&self, x: &mut DenseMatrix<T>) -> Result<(), HodlrError> {
        HodlrError::check_dims("right-hand side block rows", self.dim(), x.rows())?;
        // Refinement tracks one residual per right-hand side; sweep columns.
        // Every column is refined (best effort) before the first
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

    /// The log-determinant of the *lower-precision* factors, promoted to
    /// the working precision.  Accurate to the lower precision's epsilon
    /// (~`1e-7` relative for `f64`/`Complex64` scalars) — refinement
    /// improves solves, not determinants.
    fn log_det(&self) -> Result<(T::Real, T), HodlrError> {
        let (log_abs, sign) = self.inner.log_det()?;
        Ok((
            <T::Real as RealScalar>::from_f64_real(RealScalar::to_f64(log_abs)),
            T::promote(sign),
        ))
    }

    /// Resident bytes of the *lower-precision* factors (half the
    /// full-precision footprint — the point of the policy).
    fn factor_bytes(&self) -> u64 {
        self.inner.factor_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hodlr_core::matrix::random_hodlr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn demoted_matrix_halves_storage_and_stays_close() {
        let mut rng = StdRng::seed_from_u64(40);
        let m = random_hodlr::<f64, _>(&mut rng, 64, 2, 2);
        let lo = m.map(f64::demote);
        assert_eq!(lo.storage_bytes() * 2, m.storage_bytes());
        let x: Vec<f32> = (0..64).map(|i| (i as f64 * 0.2).sin() as f32).collect();
        let x64: Vec<f64> = x.iter().map(|&v| v as f64).collect();
        let y_lo = lo.matvec(&x);
        let y_hi = m.matvec(&x64);
        for (a, b) in y_lo.iter().zip(&y_hi) {
            // f32 arithmetic against f64 arithmetic on O(100)-sized sums.
            assert!((*a as f64 - b).abs() < 1e-2 * (1.0 + b.abs()));
        }
    }
}
