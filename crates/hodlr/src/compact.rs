//! Compact lower-precision storage behind the façade
//! ([`Precision::CompactLower`](crate::Precision)).
//!
//! The HODLR representation is *built and stored* in the companion lower
//! precision (`f64 -> f32`, `Complex64 -> Complex32`) — half the resident
//! bytes, and the compression itself runs at the lower precision's cost —
//! while every apply *accumulates in the working precision*: the store is a
//! [`HodlrMatrix`] of the lower scalar, applied through `hodlr-core`'s one
//! walk with every block promoted on the fly
//! ([`HodlrMatrix::apply_promoted_into`]), bitwise the working-precision
//! apply of the matrix with every entry promoted.  That makes the handle a
//! working-precision operator whose entries merely happen to be rounded to
//! the lower precision, so the refinement behind
//! [`Precision::MixedRefine`](crate::Precision) recovers working-precision
//! solve accuracy from it exactly as from a demoted copy: the
//! lower-precision factorization is the preconditioner, and the promoted
//! operator supplies the residuals.
//!
//! Everything here is an implementation detail of [`Hodlr`]; the only
//! public surface is the builder's `precision(Precision::CompactLower)`.

use crate::build::{Hodlr, HodlrBuilder};
use crate::scalar::refined_factorization;
use crate::solve::Solve;
use hodlr_compress::MatrixEntrySource;
use hodlr_core::{BuildOptions, DemotedSource, HodlrMatrix};
use hodlr_la::{DemoteScalar, HodlrError, RealScalar, Scalar};
use hodlr_tree::ClusterTree;
use std::sync::Arc;

/// A compact store with its lower scalar erased, so [`Hodlr`] can hold one
/// without being generic over the lower precision: what the handle reads
/// of a [`HodlrMatrix<T::Lower>`](HodlrMatrix), in the working precision.
pub trait CompactOps<T: Scalar>: Send + Sync {
    fn tree(&self) -> &ClusterTree;
    fn max_rank(&self) -> usize;
    /// Resident bytes of the lower-precision representation.
    fn storage_bytes(&self) -> u64;
    /// `y = A x`, or `y = A^H x` when `adjoint`, promoting every block.
    fn apply_into(&self, adjoint: bool, x: &[T], y: &mut [T]);
    /// Factorize the stored matrix on `hodlr`'s backend and wrap it in
    /// working-precision iterative refinement against the promoted
    /// operator (`hodlr`'s store, which is `self`).
    fn factorize(&self, hodlr: &Hodlr<T>) -> Result<Box<dyn Solve<T> + Send + Sync>, HodlrError>;
}

impl<T: DemoteScalar> CompactOps<T> for HodlrMatrix<T::Lower> {
    fn tree(&self) -> &ClusterTree {
        HodlrMatrix::tree(self)
    }

    fn max_rank(&self) -> usize {
        HodlrMatrix::max_rank(self)
    }

    fn storage_bytes(&self) -> u64 {
        HodlrMatrix::storage_bytes(self)
    }

    fn apply_into(&self, adjoint: bool, x: &[T], y: &mut [T]) {
        self.apply_promoted_into(adjoint, x, y);
    }

    fn factorize(&self, hodlr: &Hodlr<T>) -> Result<Box<dyn Solve<T> + Send + Sync>, HodlrError> {
        refined_factorization(hodlr, self, "compact-storage iterative refinement")
    }
}

/// Build a compact store: compress `source` straight into the lower
/// precision (the working-precision matrix is never formed) with
/// `builder`'s compression settings and symmetry, under the caller's meter
/// and budget.
pub fn build_compact_store<T: DemoteScalar>(
    builder: &HodlrBuilder<'_, T>,
    source: &(dyn MatrixEntrySource<T> + '_),
    tree: ClusterTree,
    options: BuildOptions<'_>,
) -> Result<Arc<dyn CompactOps<T>>, HodlrError> {
    // A tolerance below the lower precision's resolution would make the
    // compressors chase noise and blow the ranks (the opposite of what
    // compact storage is for): clamp it to a few lower-precision ulps.
    // Refinement against the promoted operator recovers the rest.
    let floor = 8.0 * <<T::Lower as Scalar>::Real as RealScalar>::EPSILON.to_f64();
    let view = DemotedSource::<T, _>::new(source);
    Ok(Arc::new(builder.compress(&view, tree, floor, options)?))
}
