//! Compact lower-precision storage behind the façade
//! ([`Precision::CompactLower`](crate::Precision)).
//!
//! The HODLR representation is *built and stored* in the companion lower
//! precision (`f64 -> f32`, `Complex64 -> Complex32`) — half the resident
//! bytes, and the compression itself runs at the lower precision's cost —
//! while every apply *accumulates in the working precision*.  Promoting the
//! stored entries on the fly makes the handle a working-precision operator
//! whose entries merely happen to be rounded to the lower precision, so the
//! existing iterative-refinement machinery recovers working-precision solve
//! accuracy exactly as the paper's mixed-precision regime does: the
//! lower-precision factorization is the preconditioner, and the promoted
//! operator supplies the residuals.
//!
//! Everything here is an implementation detail of [`Hodlr`]; the only
//! public surface is the builder's `precision(Precision::CompactLower)`.

use crate::build::Hodlr;
use crate::scalar::refined_factorization;
use crate::solve::Solve;
use hodlr_compress::{CompressionConfig, CompressionMethod, MatrixEntrySource};
use hodlr_core::{build_from_source_with, BuildOptions, DemotedSource, HodlrMatrix};
use hodlr_la::{DemoteScalar, HodlrError, RealScalar, Scalar};
use hodlr_tree::{ClusterTree, NodeId};
use std::sync::Arc;

/// The compression knobs of a compact build, in precision-free form (the
/// tolerance is re-anchored in the lower precision's real type).
pub struct CompactConfig {
    pub tol: f64,
    pub max_rank: Option<usize>,
    pub strict_rank: bool,
    pub method: CompressionMethod,
}

/// Object-safe view of a compact store, so [`Hodlr`] can hold one without
/// being generic over the lower precision.
pub trait CompactOps<T: Scalar>: Send + Sync {
    fn n(&self) -> usize;
    fn levels(&self) -> usize;
    fn max_rank(&self) -> usize;
    /// Resident bytes of the lower-precision representation.
    fn storage_bytes(&self) -> u64;
    /// `y = A x` with working-precision accumulation.
    fn matvec_into(&self, x: &[T], y: &mut [T]);
    /// `y = A^H x` with working-precision accumulation.
    fn matvec_adjoint_into(&self, x: &[T], y: &mut [T]);
    /// Hager/Higham `‖A‖₁` estimate through the promoted operator.
    fn norm1_est(&self) -> f64;
    /// Factorize the stored lower-precision representation on `hodlr`'s
    /// backend and wrap it in working-precision iterative refinement
    /// against the promoted operator (`hodlr`'s store, which is `self`).
    fn factorize(&self, hodlr: &Hodlr<T>) -> Result<Box<dyn Solve<T> + Send + Sync>, HodlrError>;
}

/// Build a compact store: compress `source` straight into the lower
/// precision (the working-precision matrix is never formed) under the
/// caller's meter and budget.
pub fn build_compact_store<T: DemoteScalar>(
    source: &(dyn MatrixEntrySource<T> + '_),
    tree: ClusterTree,
    config: &CompactConfig,
    options: BuildOptions<'_>,
) -> Result<Arc<dyn CompactOps<T>>, HodlrError> {
    // Validate before the clamp below, which would turn a zero, negative or
    // NaN tolerance into the floor.
    CompressionConfig::with_tol(config.tol).validate()?;
    let view = DemotedSource::<T, _>::new(source);
    // A tolerance below the lower precision's resolution would make the
    // compressors chase noise and blow the ranks (the opposite of what
    // compact storage is for): clamp it to a few lower-precision ulps.
    // Refinement against the promoted operator recovers the rest.
    let floor = 8.0 * <<T::Lower as Scalar>::Real as RealScalar>::EPSILON.to_f64();
    let mut cc = CompressionConfig::with_tol(
        <<T::Lower as Scalar>::Real as RealScalar>::from_f64_real(config.tol.max(floor)),
    )
    .method(config.method);
    if let Some(cap) = config.max_rank {
        cc = cc.max_rank(cap);
    }
    if config.strict_rank {
        cc = cc.strict_rank();
    }
    let low = build_from_source_with(&view, tree, &cc, options)?;
    Ok(Arc::new(CompactStore { low }))
}

/// A HODLR matrix resident in the lower precision, applied in the working
/// precision.
struct CompactStore<T: DemoteScalar> {
    low: HodlrMatrix<T::Lower>,
}

impl<T: DemoteScalar> CompactStore<T> {
    /// `y[I_row] += U_row (V_col^* x[I_col])`, promoting every stored
    /// entry and accumulating in the working precision.
    fn apply_off_diag(&self, row_node: NodeId, col_node: NodeId, x: &[T], y: &mut [T]) {
        let tree = self.low.tree();
        let row_range = tree.range(row_node);
        let col_range = tree.range(col_node);
        let u = self.low.u_block(row_node);
        let v = self.low.v_block(col_node);
        let width = u.cols();
        let mut tmp = vec![T::zero(); width];
        for (k, t) in tmp.iter_mut().enumerate() {
            let mut acc = T::zero();
            for (local, i) in col_range.clone().enumerate() {
                acc += T::promote(v.get(local, k)).conj() * x[i];
            }
            *t = acc;
        }
        for (local, i) in row_range.enumerate() {
            let mut acc = T::zero();
            for (k, t) in tmp.iter().enumerate() {
                acc += T::promote(u.get(local, k)) * *t;
            }
            y[i] += acc;
        }
    }

    /// Adjoint of the `(row_node, col_node)` block:
    /// `y[I_col] += V_col (U_row^H x[I_row])`.
    fn apply_off_diag_adjoint(&self, row_node: NodeId, col_node: NodeId, x: &[T], y: &mut [T]) {
        let tree = self.low.tree();
        let row_range = tree.range(row_node);
        let col_range = tree.range(col_node);
        let u = self.low.u_block(row_node);
        let v = self.low.v_block(col_node);
        let width = u.cols();
        let mut tmp = vec![T::zero(); width];
        for (k, t) in tmp.iter_mut().enumerate() {
            let mut acc = T::zero();
            for (local, i) in row_range.clone().enumerate() {
                acc += T::promote(u.get(local, k)).conj() * x[i];
            }
            *t = acc;
        }
        for (local, i) in col_range.enumerate() {
            let mut acc = T::zero();
            for (k, t) in tmp.iter().enumerate() {
                acc += T::promote(v.get(local, k)) * *t;
            }
            y[i] += acc;
        }
    }

    fn matvec(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::zero(); self.low.n()];
        CompactOps::matvec_into(self, x, &mut y);
        y
    }

    fn matvec_adjoint(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::zero(); self.low.n()];
        CompactOps::matvec_adjoint_into(self, x, &mut y);
        y
    }
}

impl<T: DemoteScalar> CompactOps<T> for CompactStore<T> {
    fn n(&self) -> usize {
        self.low.n()
    }

    fn levels(&self) -> usize {
        self.low.levels()
    }

    fn max_rank(&self) -> usize {
        self.low.max_rank()
    }

    fn storage_bytes(&self) -> u64 {
        self.low.storage_bytes()
    }

    fn matvec_into(&self, x: &[T], y: &mut [T]) {
        let tree = self.low.tree();
        assert_eq!(x.len(), tree.n(), "matvec: x has the wrong length");
        assert_eq!(y.len(), tree.n(), "matvec: y has the wrong length");
        y.fill(T::zero());
        for (leaf_idx, leaf) in tree.leaves().enumerate() {
            let range = tree.range(leaf);
            let d = self.low.diag_block(leaf_idx);
            for j in 0..d.cols() {
                let xj = x[range.start + j];
                for i in 0..d.rows() {
                    y[range.start + i] += T::promote(d[(i, j)]) * xj;
                }
            }
        }
        for gamma in tree.internal_nodes() {
            let (alpha, beta) = tree.children(gamma).expect("internal node");
            self.apply_off_diag(alpha, beta, x, y);
            self.apply_off_diag(beta, alpha, x, y);
        }
    }

    fn matvec_adjoint_into(&self, x: &[T], y: &mut [T]) {
        let tree = self.low.tree();
        assert_eq!(x.len(), tree.n(), "matvec_adjoint: x has the wrong length");
        assert_eq!(y.len(), tree.n(), "matvec_adjoint: y has the wrong length");
        y.fill(T::zero());
        for (leaf_idx, leaf) in tree.leaves().enumerate() {
            let range = tree.range(leaf);
            let d = self.low.diag_block(leaf_idx);
            for j in 0..d.cols() {
                let mut acc = T::zero();
                for i in 0..d.rows() {
                    acc += T::promote(d[(i, j)]).conj() * x[range.start + i];
                }
                y[range.start + j] += acc;
            }
        }
        for gamma in tree.internal_nodes() {
            let (alpha, beta) = tree.children(gamma).expect("internal node");
            self.apply_off_diag_adjoint(alpha, beta, x, y);
            self.apply_off_diag_adjoint(beta, alpha, x, y);
        }
    }

    fn norm1_est(&self) -> f64 {
        let mut apply = |x: &mut [T]| -> Result<(), std::convert::Infallible> {
            let y = self.matvec(x);
            x.copy_from_slice(&y);
            Ok(())
        };
        let mut apply_adjoint = |x: &mut [T]| -> Result<(), std::convert::Infallible> {
            let y = self.matvec_adjoint(x);
            x.copy_from_slice(&y);
            Ok(())
        };
        let Ok(est) = hodlr_la::one_norm_est(self.low.n(), &mut apply, &mut apply_adjoint);
        est
    }

    fn factorize(&self, hodlr: &Hodlr<T>) -> Result<Box<dyn Solve<T> + Send + Sync>, HodlrError> {
        refined_factorization(hodlr, &self.low, "compact-storage iterative refinement")
    }
}
