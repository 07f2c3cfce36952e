//! An owned, shareable factorization: the unit the cache stores.
//!
//! A [`CachedFactorization`] keeps a [`Hodlr`] handle and the
//! [`Factorization`] made from it side by side, as two plain fields.  The
//! factorization owns what it solves with (its factors and clones of the
//! handle's device, thread pool and store), so the entry can be moved,
//! boxed and `Arc`'d freely and is `Send + Sync` like its fields.  The
//! handle stays for the residual matvecs of verification and for the
//! device counters the service meters with.

use crate::ServeError;
use hodlr::{Factorization, Factorize, Hodlr, Solve, SolveScalar, SolveVerdict, VerifyConfig};
use hodlr_la::HodlrError;
use std::sync::OnceLock;

/// A factorization next to the handle it came from: safe to park in a
/// cache and to share across request-handler threads (every solve entry
/// point takes `&self`).
pub struct CachedFactorization<T: SolveScalar> {
    hodlr: Hodlr<T>,
    factorization: Factorization<T>,
    bytes: u64,
    /// Cached `‖A‖₁` estimate — one Hager/Higham run per entry, shared by
    /// every verification against it.
    norm1: OnceLock<f64>,
    /// Cached `‖A⁻¹‖₁` estimate (a handful of solves); only computed when
    /// a verdict needs the condition estimate.
    inv_norm1: OnceLock<f64>,
}

impl<T: SolveScalar> CachedFactorization<T> {
    /// Factorize `hodlr` and keep both.
    ///
    /// # Errors
    /// Factorization errors ([`HodlrError::SingularPivot`], configuration
    /// rejections from exotic backend/precision combinations) propagate.
    pub fn build(hodlr: Hodlr<T>) -> Result<Self, HodlrError> {
        let factorization = hodlr.factorize()?;
        let bytes = factorization.factor_bytes() + hodlr.storage_bytes();
        Ok(CachedFactorization {
            hodlr,
            factorization,
            bytes,
            norm1: OnceLock::new(),
            inv_norm1: OnceLock::new(),
        })
    }

    /// The completed factorization.
    pub fn solver(&self) -> &Factorization<T> {
        &self.factorization
    }

    /// The handle it came from (device counters, matrix, residual checks).
    pub fn hodlr(&self) -> &Hodlr<T> {
        &self.hodlr
    }

    /// Resident bytes this entry charges against the cache budget: factor
    /// payload plus the compressed matrix it keeps alive.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Matrix size `N`.
    pub fn dim(&self) -> usize {
        self.factorization.dim()
    }

    /// Cached `‖A‖₁` estimate of the entry's operator (computed once, on
    /// first use).
    pub fn norm1_est(&self) -> f64 {
        *self.norm1.get_or_init(|| self.hodlr().norm1_est())
    }

    /// Cached condition estimate `κ₁(A) ≈ ‖A‖₁ᵉˢᵗ · ‖A⁻¹‖₁ᵉˢᵗ`
    /// (`INFINITY` when either estimate failed, e.g. on a poisoned
    /// factorization).
    pub fn cond_estimate(&self) -> f64 {
        let inv = *self
            .inv_norm1
            .get_or_init(|| self.solver().inv_norm1_est().unwrap_or(f64::INFINITY));
        self.norm1_est() * inv
    }

    /// Verify a candidate solution of `A x = b` against this entry's
    /// operator: one HODLR matvec for the scaled residual, then
    /// [`CachedFactorization::verdict`].
    pub fn verify(&self, x: &[T], b: &[T], cfg: &VerifyConfig) -> SolveVerdict {
        let ax = self.hodlr().matvec(x);
        let residual = hodlr::scaled_residual(&ax, x, b, self.norm1_est());
        self.verdict(x, residual, cfg)
    }

    /// Classify a precomputed scaled residual, using the entry's cached
    /// norms so repeated suspects do not pay repeated Hager/Higham solves.
    pub fn verdict(&self, x: &[T], residual: f64, cfg: &VerifyConfig) -> SolveVerdict {
        if residual.is_nan() || x.iter().any(|v| !v.is_finite()) {
            return SolveVerdict::NonFinite;
        }
        if residual <= cfg.residual_threshold {
            return SolveVerdict::Verified { residual };
        }
        SolveVerdict::Suspect {
            residual,
            cond_est: self.cond_estimate(),
        }
    }
}

impl<T: SolveScalar> std::fmt::Debug for CachedFactorization<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedFactorization")
            .field("n", &self.dim())
            .field("backend", &self.factorization.backend())
            .field("precision", &self.factorization.precision())
            .field("bytes", &self.bytes)
            .finish()
    }
}

/// Convenience: build the entry straight from a builder closure, mapping
/// the failure into the per-request error type.
pub(crate) fn build_entry<T: SolveScalar>(
    build: impl FnOnce() -> Result<Hodlr<T>, HodlrError>,
) -> Result<CachedFactorization<T>, ServeError> {
    let hodlr = build().map_err(ServeError::Solver)?;
    CachedFactorization::build(hodlr).map_err(ServeError::Solver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hodlr::{Backend, Solve};
    use hodlr_compress::ClosureSource;

    fn diagonally_dominant(n: usize) -> ClosureSource<f64, impl Fn(usize, usize) -> f64> {
        ClosureSource::new(n, n, move |i, j| {
            let d = (i as f64 - j as f64).abs() / n as f64;
            1.0 / (1.0 + 8.0 * d) + if i == j { 4.0 } else { 0.0 }
        })
    }

    fn entry_sized(backend: Backend, n: usize, leaf: usize) -> CachedFactorization<f64> {
        let source = diagonally_dominant(n);
        let hodlr = Hodlr::builder()
            .source(&source)
            .leaf_size(leaf)
            .tolerance(1e-10)
            .backend(backend)
            .build()
            .unwrap();
        CachedFactorization::build(hodlr).unwrap()
    }

    fn entry(backend: Backend) -> CachedFactorization<f64> {
        entry_sized(backend, 128, 32)
    }

    #[test]
    fn owns_and_solves_on_both_backends() {
        for backend in [Backend::Serial, Backend::Batched] {
            let e = entry(backend);
            assert_eq!(e.dim(), 128);
            assert!(e.bytes() > 0, "{backend:?} must report resident bytes");
            let b = vec![1.0; 128];
            let x = e.solver().solve(&b).unwrap();
            let r = e.hodlr().relative_residual(&x, &b);
            assert!(r < 1e-8, "{backend:?}: residual {r:e}");
        }
    }

    #[test]
    fn entry_outlives_the_scope_that_built_it() {
        // The entry must be movable (returned from functions, pushed into
        // maps) and still solve afterwards.
        let moved = {
            let e = entry(Backend::Batched);
            let boxed = Box::new(e);
            *boxed
        };
        let x = moved.solver().solve(&vec![1.0; 128]).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn batched_entries_meter_on_their_own_device() {
        let e = entry(Backend::Batched);
        let before = e.hodlr().device().counters();
        e.solver().solve(&vec![1.0; 128]).unwrap();
        let delta = e.hodlr().device().counters().since(&before);
        assert!(delta.kernel_launches > 0);
    }

    /// Interpreter-scale exercise of an entry's life — build, move (by
    /// value, through a `Box`, into and out of an `Arc`), solve after every
    /// move, then drop.  CI runs the `miri_*` filter under Miri; keep this
    /// test tiny and serial so the interpreter finishes in seconds.
    #[test]
    fn miri_moves_boxes_and_arcs_stay_sound() {
        let e = entry_sized(Backend::Serial, 16, 8);
        let b = vec![1.0; 16];
        let baseline = e.solver().solve(&b).unwrap();

        // Move by value out of a block.
        let moved = { e };
        assert_eq!(moved.solver().solve(&b).unwrap(), baseline);

        // Through a Box round-trip (heap → stack move).
        let unboxed = *Box::new(moved);
        assert_eq!(unboxed.solver().solve(&b).unwrap(), baseline);

        // The cache's actual usage: Arc-shared, cloned, dropped.
        let shared = std::sync::Arc::new(unboxed);
        let clone = std::sync::Arc::clone(&shared);
        drop(shared);
        assert_eq!(clone.solver().solve(&b).unwrap(), baseline);
    }

    /// The error path must free the handle (Miri flags leaks).
    #[test]
    fn miri_failed_factorization_does_not_leak() {
        // A singular 2x2 (rank one, zero pivot after elimination).
        let source = ClosureSource::new(4, 4, |_, _| 1.0);
        let hodlr = Hodlr::builder()
            .source(&source)
            .leaf_size(2)
            .tolerance(1e-12)
            .build()
            .unwrap();
        assert!(CachedFactorization::build(hodlr).is_err());
    }
}
