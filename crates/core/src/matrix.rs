//! The [`HodlrMatrix`] storage type: flattened bases plus leaf diagonal
//! blocks (Figs. 3–4 of the paper).
//!
//! Its products run one walk over the tree, written once for the forward
//! and the adjoint apply and for either stored precision: a matrix stored
//! in the working precision applies every block with the dispatched
//! `gemv` ([`HodlrMatrix::apply_into`]), and one stored in the lower
//! companion precision promotes each block a row panel at a time and
//! applies the panels with the same `gemv`
//! ([`HodlrMatrix::apply_promoted_into`]), bitwise the working-precision
//! apply of the promoted matrix.

use crate::layout::LevelLayout;
use hodlr_la::{gemm, norms, DemoteScalar, DenseMatrix, HodlrError, MatRef, Op, Scalar};
use hodlr_tree::{ClusterTree, NodeId};
use std::sync::Arc;

/// Rows of a lower-precision block promoted at a time by
/// [`HodlrMatrix::apply_promoted_into`]: a panel of the widest levels stays
/// in cache while its `gemv` reads it.
pub const PROMOTED_PANEL_ROWS: usize = 256;

/// A HODLR matrix stored in the paper's flattened format.
///
/// * `ubig` / `vbig` are `N x W` matrices (`W =` [`LevelLayout::total_cols`])
///   holding, for every non-root node `alpha`, its left basis `U_alpha` (rows
///   `I_alpha`, columns of `alpha`'s level) and right basis `V_alpha`;
/// * `diag` holds the dense leaf diagonal blocks `D_alpha` in leaf order;
/// * every sibling off-diagonal block is `A(I_alpha, I_beta) = U_alpha
///   V_beta^*` (Eq. 5).
///
/// Bases narrower than their level block are zero-padded on the right; the
/// true per-node ranks are kept in `node_ranks` for reporting (the appendix
/// rank tables).
///
/// Nothing changes the bases after assembly, so they sit behind [`Arc`]:
/// a clone shares them, and a batched solver reads `Vbig` in place from
/// this allocation instead of copying it to the device.
#[derive(Clone, Debug)]
pub struct HodlrMatrix<T: Scalar> {
    tree: ClusterTree,
    layout: LevelLayout,
    node_ranks: Vec<usize>,
    ubig: Arc<DenseMatrix<T>>,
    /// `None` for Hermitian matrices, whose right bases are shared with
    /// `ubig` (`V_alpha = U_alpha`), halving the basis storage.
    vbig: Option<Arc<DenseMatrix<T>>>,
    diag: Vec<DenseMatrix<T>>,
}

impl<T: Scalar> HodlrMatrix<T> {
    /// Assemble a HODLR matrix from its parts.  Intended for the builder and
    /// for tests that construct exactly-representable matrices; most users
    /// should go through [`crate::build_from_source`] or the `hodlr` façade.
    ///
    /// # Errors
    /// Returns [`HodlrError::DimensionMismatch`] naming the offending part
    /// (big basis, per-leaf diagonal block, or rank table entry) when the
    /// shapes are inconsistent with the tree and layout.
    pub fn from_parts(
        tree: ClusterTree,
        layout: LevelLayout,
        node_ranks: Vec<usize>,
        ubig: DenseMatrix<T>,
        vbig: DenseMatrix<T>,
        diag: Vec<DenseMatrix<T>>,
    ) -> Result<Self, HodlrError> {
        Self::assemble(tree, layout, node_ranks, ubig, Some(vbig), diag)
    }

    /// Assemble a Hermitian HODLR matrix whose right bases are shared with
    /// the left ones (`V_alpha = U_alpha` for every node), so every sibling
    /// off-diagonal block is `A(I_alpha, I_beta) = U_alpha U_beta^*` and the
    /// matrix satisfies `A = A^H` whenever the diagonal blocks do.  Stores
    /// half the basis entries of the general format.
    ///
    /// # Errors
    /// As [`HodlrMatrix::from_parts`], minus the `Vbig` checks.
    pub fn from_parts_symmetric(
        tree: ClusterTree,
        layout: LevelLayout,
        node_ranks: Vec<usize>,
        ubig: DenseMatrix<T>,
        diag: Vec<DenseMatrix<T>>,
    ) -> Result<Self, HodlrError> {
        Self::assemble(tree, layout, node_ranks, ubig, None, diag)
    }

    /// The shape checks of both constructors; `vbig: None` shares the right
    /// bases with `ubig`.
    pub(crate) fn assemble(
        tree: ClusterTree,
        layout: LevelLayout,
        node_ranks: Vec<usize>,
        ubig: DenseMatrix<T>,
        vbig: Option<DenseMatrix<T>>,
        diag: Vec<DenseMatrix<T>>,
    ) -> Result<Self, HodlrError> {
        let n = tree.n();
        HodlrError::check_dims("layout levels", tree.levels(), layout.levels())?;
        HodlrError::check_dims("Ubig rows", n, ubig.rows())?;
        if let Some(vbig) = &vbig {
            HodlrError::check_dims("Vbig rows", n, vbig.rows())?;
        }
        HodlrError::check_dims("Ubig columns", layout.total_cols(), ubig.cols())?;
        if let Some(vbig) = &vbig {
            HodlrError::check_dims("Vbig columns", layout.total_cols(), vbig.cols())?;
        }
        HodlrError::check_dims(
            "node rank table (one entry per node id)",
            tree.num_nodes() + 1,
            node_ranks.len(),
        )?;
        HodlrError::check_dims(
            "diagonal blocks (one per leaf)",
            tree.num_leaves(),
            diag.len(),
        )?;
        for (leaf_idx, leaf) in tree.leaves().enumerate() {
            let size = tree.node_size(leaf);
            HodlrError::check_dims(
                format!("rows of diagonal block of leaf {leaf_idx} (node {leaf})"),
                size,
                diag[leaf_idx].rows(),
            )?;
            HodlrError::check_dims(
                format!("columns of diagonal block of leaf {leaf_idx} (node {leaf})"),
                size,
                diag[leaf_idx].cols(),
            )?;
        }
        for level in 1..=tree.levels() {
            for node in tree.level_nodes(level) {
                if node_ranks[node] > layout.width(level) {
                    return Err(HodlrError::dims(
                        format!("rank of node {node} vs its level-{level} width"),
                        layout.width(level),
                        node_ranks[node],
                    ));
                }
            }
        }
        Ok(HodlrMatrix {
            tree,
            layout,
            node_ranks,
            ubig: Arc::new(ubig),
            vbig: vbig.map(Arc::new),
            diag,
        })
    }

    /// Matrix size `N`.
    pub fn n(&self) -> usize {
        self.tree.n()
    }

    /// The underlying cluster tree.
    pub fn tree(&self) -> &ClusterTree {
        &self.tree
    }

    /// The column layout of the flattened bases.
    pub fn layout(&self) -> &LevelLayout {
        &self.layout
    }

    /// Number of tree levels `L`.
    pub fn levels(&self) -> usize {
        self.tree.levels()
    }

    /// The flattened left bases (`Ubig` in the paper).
    pub fn ubig(&self) -> &DenseMatrix<T> {
        &self.ubig
    }

    /// The flattened right bases (`Vbig` in the paper).  When the bases are
    /// shared ([`HodlrMatrix::shares_bases`]) this is the same storage as
    /// [`HodlrMatrix::ubig`].
    pub fn vbig(&self) -> &DenseMatrix<T> {
        self.shared_vbig()
    }

    /// [`HodlrMatrix::vbig`] as the [`Arc`] that owns it, for a batched
    /// solver to read in place.
    pub(crate) fn shared_vbig(&self) -> &Arc<DenseMatrix<T>> {
        self.vbig.as_ref().unwrap_or(&self.ubig)
    }

    /// `true` when the right bases are shared with the left ones (the
    /// matrix was assembled as Hermitian and stores half the basis data).
    pub fn shares_bases(&self) -> bool {
        self.vbig.is_none()
    }

    /// The true (unpadded) rank of a node's low-rank basis.
    pub fn node_rank(&self, node: NodeId) -> usize {
        self.node_ranks[node]
    }

    /// Leaf diagonal blocks, in leaf order.
    pub fn diag_blocks(&self) -> &[DenseMatrix<T>] {
        &self.diag
    }

    /// The dense diagonal block of the `idx`-th leaf.
    pub fn diag_block(&self, idx: usize) -> &DenseMatrix<T> {
        &self.diag[idx]
    }

    /// Add `shift` to every entry of the main diagonal, in place.
    ///
    /// The main diagonal lives entirely inside the leaf diagonal blocks,
    /// so the off-diagonal low-rank factors are untouched — callers that
    /// sweep a diagonal regularisation (a GP noise nugget, a Tikhonov
    /// term) can reuse one compression across candidates instead of
    /// recompressing per shift.
    pub fn shift_diagonal(&mut self, shift: T) {
        for block in &mut self.diag {
            let n = block.rows();
            for i in 0..n {
                block[(i, i)] += shift;
            }
        }
    }

    /// View of `U_alpha` (padded to the level width) inside `Ubig`.
    pub fn u_block(&self, node: NodeId) -> MatRef<'_, T> {
        self.basis_block(&self.ubig, node)
    }

    /// View of `V_alpha` (padded to the level width) inside `Vbig`.
    pub fn v_block(&self, node: NodeId) -> MatRef<'_, T> {
        self.basis_block(self.vbig(), node)
    }

    fn basis_block<'a>(&'a self, big: &'a DenseMatrix<T>, node: NodeId) -> MatRef<'a, T> {
        let level = self.tree.level_of(node);
        assert!(level >= 1, "the root has no off-diagonal basis");
        let rows = self.tree.range(node);
        let cols = self.layout.col_range(level);
        if cols.is_empty() {
            // A zero-rank level: hand back an empty view of the right height.
            return MatRef::from_parts(&[], rows.len(), 0, rows.len().max(1));
        }
        big.block(rows.start, cols.start, rows.len(), cols.len())
    }

    /// Maximum off-diagonal rank over all nodes (the paper's "rank of the
    /// HODLR matrix", Definition 2).
    pub fn max_rank(&self) -> usize {
        self.node_ranks.iter().copied().max().unwrap_or(0)
    }

    /// Per-level maximum off-diagonal rank, shallowest level (level 1)
    /// first — the format of the appendix rank tables.
    pub fn rank_profile(&self) -> Vec<usize> {
        (1..=self.levels())
            .map(|l| {
                self.tree
                    .level_nodes(l)
                    .map(|node| self.node_ranks[node])
                    .max()
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Number of scalar entries stored (diagonal blocks + padded bases;
    /// shared-basis Hermitian matrices count `Ubig` once).
    pub fn storage_entries(&self) -> usize {
        let diag: usize = self.diag.iter().map(|d| d.rows() * d.cols()).sum();
        let vbig: usize = self.vbig.as_ref().map_or(0, |v| v.rows() * v.cols());
        diag + self.ubig.rows() * self.ubig.cols() + vbig
    }

    /// Storage in bytes.
    pub fn storage_bytes(&self) -> u64 {
        (self.storage_entries() * std::mem::size_of::<T>()) as u64
    }

    /// Storage in GiB (the `mem` column of the paper's tables).
    pub fn memory_gib(&self) -> f64 {
        self.storage_bytes() as f64 / (1u64 << 30) as f64
    }

    /// Matrix-vector product `y = A x` using the HODLR structure
    /// (`O(N log N)` work).
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::zero(); self.n()];
        self.matvec_into(x, &mut y);
        y
    }

    /// In-place matrix-vector product `y = A x`, for callers (e.g. Krylov
    /// hot loops) that reuse the output buffer.
    pub fn matvec_into(&self, x: &[T], y: &mut [T]) {
        self.apply_into(false, x, y);
    }

    /// Adjoint matrix-vector product `y = A^H x`, also `O(N log N)`: the
    /// leaf blocks apply conjugate-transposed and each low-rank block
    /// `U_row V_col^H` contributes `V_col (U_row^H x)` to the mirrored
    /// index range.  The condition estimator drives this as the
    /// `apply_adjoint` side of Hager/Higham.
    pub fn matvec_adjoint(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::zero(); self.n()];
        self.matvec_adjoint_into(x, &mut y);
        y
    }

    /// In-place adjoint matrix-vector product `y = A^H x`.
    pub fn matvec_adjoint_into(&self, x: &[T], y: &mut [T]) {
        self.apply_into(true, x, y);
    }

    /// `y = A x`, or `y = A^H x` when `adjoint`: the one HODLR walk (the
    /// leaf diagonal blocks in leaf order, then every internal node's two
    /// sibling blocks through one scratch vector) with every stored block
    /// applied by `hodlr-la`'s dispatched [`gemv`](hodlr_la::gemv).
    pub fn apply_into(&self, adjoint: bool, x: &[T], y: &mut [T]) {
        self.walk(adjoint, x, y, |b, op, x, beta, y| {
            hodlr_la::gemv(T::one(), b, op, x, beta, y)
        });
    }

    /// Hager/Higham estimate of `‖A‖₁` from a handful of matvec /
    /// adjoint-matvec pairs (`O(N log N)` each) — the `‖A‖` of the
    /// verification layer's scaled residual, without densifying.
    pub fn norm1_est(&self) -> f64 {
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
        let Ok(est) = hodlr_la::one_norm_est(self.n(), &mut apply, &mut apply_adjoint);
        est
    }

    /// Matrix-matrix product `Y = A X` column by column.
    pub fn matmat(&self, x: &DenseMatrix<T>) -> DenseMatrix<T> {
        assert_eq!(x.rows(), self.n());
        let mut y = DenseMatrix::zeros(self.n(), x.cols());
        for j in 0..x.cols() {
            let yj = self.matvec(x.col(j));
            y.col_mut(j).copy_from_slice(&yj);
        }
        y
    }

    /// Materialise the matrix densely (tests and small problems only).
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let n = self.n();
        let mut a = DenseMatrix::zeros(n, n);
        for (leaf_idx, leaf) in self.tree.leaves().enumerate() {
            let range = self.tree.range(leaf);
            a.set_block(range.start, range.start, &self.diag[leaf_idx]);
        }
        for gamma in self.tree.internal_nodes() {
            let (alpha, beta) = self.tree.children(gamma).expect("internal node");
            self.write_off_diag(&mut a, alpha, beta);
            self.write_off_diag(&mut a, beta, alpha);
        }
        a
    }

    fn write_off_diag(&self, a: &mut DenseMatrix<T>, row_node: NodeId, col_node: NodeId) {
        let row_range = self.tree.range(row_node);
        let col_range = self.tree.range(col_node);
        let u = self.u_block(row_node);
        let v = self.v_block(col_node);
        let mut block = DenseMatrix::zeros(row_range.len(), col_range.len());
        gemm(
            T::one(),
            u,
            Op::None,
            v,
            Op::ConjTrans,
            T::zero(),
            block.as_mut(),
        );
        a.set_block(row_range.start, col_range.start, &block);
    }

    /// Relative residual `||b - A x|| / ||b||` of a candidate solution
    /// (the `relres` column of the paper's tables).
    ///
    /// # Panics
    /// Panics if `x` or `b` has the wrong length.
    pub fn relative_residual(&self, x: &[T], b: &[T]) -> T::Real {
        assert_eq!(
            b.len(),
            self.n(),
            "relative_residual: b has the wrong length"
        );
        norms::relative_residual(norms::dist2(b, &self.matvec(x)), norms::norm2(b))
    }

    /// Every part of the matrix mapped entry by entry through `f` (the
    /// tree, layout, ranks and basis sharing stay), e.g. to demote or
    /// promote its stored precision.
    pub fn map<U: Scalar>(&self, f: impl Fn(T) -> U) -> HodlrMatrix<U> {
        let map = |a: &DenseMatrix<T>| {
            DenseMatrix::from_col_major(
                a.rows(),
                a.cols(),
                a.data().iter().map(|&v| f(v)).collect(),
            )
        };
        HodlrMatrix::assemble(
            self.tree.clone(),
            self.layout.clone(),
            self.node_ranks.clone(),
            map(&self.ubig),
            self.vbig.as_deref().map(map),
            self.diag.iter().map(map).collect(),
        )
        .expect("mapping the entries keeps the shape of every part")
    }
}

impl<S: Scalar> HodlrMatrix<S> {
    /// The one HODLR apply: `y = A x`, or `y = A^H x` when `adjoint`, with
    /// every stored block `B` applied by `product(B, op, x_part, beta,
    /// y_part)` as `y_part <- op(B) x_part + beta y_part`, in the working
    /// precision `T` of `x` and `y`.
    ///
    /// The leaf diagonal blocks come first, in leaf order; then, for every
    /// internal node, its two sibling blocks `(alpha, beta)` and `(beta,
    /// alpha)`, each as two products through one scratch vector `t`: `t =
    /// V_col^H x[I_col]` and `y[I_row] += U_row t`, or for the adjoint `t =
    /// U_row^H x[I_row]` and `y[I_col] += V_col t`.  The order of the terms
    /// of every entry of `y` is therefore the product's alone.
    fn walk<T: Scalar>(
        &self,
        adjoint: bool,
        x: &[T],
        y: &mut [T],
        mut product: impl FnMut(MatRef<'_, S>, Op, &[T], T, &mut [T]),
    ) {
        let name = if adjoint { "matvec_adjoint" } else { "matvec" };
        assert_eq!(x.len(), self.n(), "{name}: x has the wrong length");
        assert_eq!(y.len(), self.n(), "{name}: y has the wrong length");
        y.fill(T::zero());
        let leaf_op = if adjoint { Op::ConjTrans } else { Op::None };
        for (d, leaf) in self.diag.iter().zip(self.tree.leaves()) {
            let range = self.tree.range(leaf);
            product(
                d.as_ref(),
                leaf_op,
                &x[range.clone()],
                T::one(),
                &mut y[range],
            );
        }
        let mut t = Vec::new();
        for gamma in self.tree.internal_nodes() {
            let (alpha, beta) = self.tree.children(gamma).expect("internal node");
            for (row, col) in [(alpha, beta), (beta, alpha)] {
                let (from, into) = if adjoint { (row, col) } else { (col, row) };
                let (read, write) = if adjoint {
                    (self.u_block(row), self.v_block(col))
                } else {
                    (self.v_block(col), self.u_block(row))
                };
                t.clear();
                t.resize(read.cols(), T::zero());
                let x_from = &x[self.tree.range(from)];
                product(read, Op::ConjTrans, x_from, T::zero(), &mut t);
                product(write, Op::None, &t, T::one(), &mut y[self.tree.range(into)]);
            }
        }
    }

    /// `y = A x`, or `y = A^H x` when `adjoint`, in the working precision
    /// `T` of a matrix stored in its lower companion `S`: the walk of
    /// [`HodlrMatrix::apply_into`] with every block promoted, up to
    /// [`PROMOTED_PANEL_ROWS`] rows at a time, into one reused buffer, and
    /// each panel applied by the dispatched [`gemv`](hodlr_la::gemv).  Each
    /// output row of `op(B) = B` is its own chain and each output of `B^H`
    /// one chain over the rows, which the next panel continues with `beta
    /// = 1`, so the result is bitwise that of `apply_into` on the matrix
    /// with every entry promoted.
    pub fn apply_promoted_into<T: DemoteScalar<Lower = S>>(
        &self,
        adjoint: bool,
        x: &[T],
        y: &mut [T],
    ) {
        let mut panel: Vec<T> = Vec::new();
        self.walk(adjoint, x, y, |b, op, x, mut beta, y| {
            for r0 in (0..b.rows()).step_by(PROMOTED_PANEL_ROWS) {
                let rows = PROMOTED_PANEL_ROWS.min(b.rows() - r0);
                panel.clear();
                for j in 0..b.cols() {
                    panel.extend(b.col(j)[r0..r0 + rows].iter().map(|&v| T::promote(v)));
                }
                let p = MatRef::from_parts(&panel, rows, b.cols(), rows);
                if op == Op::None {
                    hodlr_la::gemv(T::one(), p, op, x, beta, &mut y[r0..r0 + rows]);
                } else {
                    hodlr_la::gemv(T::one(), p, op, &x[r0..r0 + rows], beta, y);
                    beta = T::one();
                }
            }
        });
    }
}

/// Build a random, exactly-representable, strictly diagonally dominant HODLR
/// matrix — the workhorse of the solver correctness tests (an exact HODLR
/// matrix means the solvers must reproduce the dense solution to machine
/// precision, Theorem 1).
pub fn random_hodlr<T: Scalar, R: rand::Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    levels: usize,
    rank: usize,
) -> HodlrMatrix<T> {
    let tree = ClusterTree::uniform(n, levels);
    let layout = LevelLayout::uniform(levels, rank);
    let w = layout.total_cols();
    let mut ubig: DenseMatrix<T> = DenseMatrix::zeros(n, w);
    let mut vbig: DenseMatrix<T> = DenseMatrix::zeros(n, w);
    let mut node_ranks = vec![0usize; tree.num_nodes() + 1];

    for level in 1..=levels {
        let cols = layout.col_range(level);
        for node in tree.level_nodes(level) {
            node_ranks[node] = rank;
            let rows = tree.range(node);
            for j in cols.clone() {
                for i in rows.clone() {
                    ubig[(i, j)] = hodlr_la::random::random_scalar(rng);
                    vbig[(i, j)] = hodlr_la::random::random_scalar(rng);
                }
            }
        }
    }

    // Diagonal blocks shifted to make the whole matrix strictly diagonally
    // dominant: off-diagonal row sums are bounded by L * rank * max|U||V|
    // * N, so a shift proportional to that is comfortably sufficient.
    let shift = T::from_f64((levels.max(1) * rank.max(1)) as f64 * n as f64);
    let diag: Vec<DenseMatrix<T>> = tree
        .leaves()
        .map(|leaf| {
            let size = tree.node_size(leaf);
            let mut d: DenseMatrix<T> = hodlr_la::random::random_matrix(rng, size, size);
            for i in 0..size {
                d[(i, i)] += shift;
            }
            d
        })
        .collect();

    HodlrMatrix::from_parts(tree, layout, node_ranks, ubig, vbig, diag)
        .expect("random_hodlr assembles consistent parts")
}

/// Build a random, exactly-representable Hermitian positive-definite HODLR
/// matrix with shared bases (`V_alpha = U_alpha`) — the workhorse of the
/// symmetric-solver tests.
///
/// Hermitian symmetry comes from the shared bases plus Hermitian leaf
/// blocks; positive definiteness from a diagonal shift that makes the whole
/// matrix strictly diagonally dominant with a positive real diagonal
/// (Gershgorin).
pub fn random_hodlr_spd<T: Scalar, R: rand::Rng + ?Sized>(
    rng: &mut R,
    n: usize,
    levels: usize,
    rank: usize,
) -> HodlrMatrix<T> {
    let tree = ClusterTree::uniform(n, levels);
    let layout = LevelLayout::uniform(levels, rank);
    let w = layout.total_cols();
    let mut ubig: DenseMatrix<T> = DenseMatrix::zeros(n, w);
    let mut node_ranks = vec![0usize; tree.num_nodes() + 1];

    for level in 1..=levels {
        let cols = layout.col_range(level);
        for node in tree.level_nodes(level) {
            node_ranks[node] = rank;
            let rows = tree.range(node);
            for j in cols.clone() {
                for i in rows.clone() {
                    ubig[(i, j)] = hodlr_la::random::random_scalar(rng);
                }
            }
        }
    }

    let shift = T::from_f64((levels.max(1) * rank.max(1)) as f64 * n as f64);
    let diag: Vec<DenseMatrix<T>> = tree
        .leaves()
        .map(|leaf| {
            let size = tree.node_size(leaf);
            let g: DenseMatrix<T> = hodlr_la::random::random_matrix(rng, size, size);
            let gh = g.conj_transpose();
            let mut d = g;
            d.axpy(T::one(), &gh);
            d.scale_in_place(T::from_f64(0.5));
            for i in 0..size {
                d[(i, i)] += shift;
            }
            d
        })
        .collect();

    HodlrMatrix::from_parts_symmetric(tree, layout, node_ranks, ubig, diag)
        .expect("random_hodlr_spd assembles consistent parts")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hodlr_la::Complex64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_hodlr_shapes_and_profile() {
        let mut rng = StdRng::seed_from_u64(1);
        let m: HodlrMatrix<f64> = random_hodlr(&mut rng, 64, 3, 4);
        assert_eq!(m.n(), 64);
        assert_eq!(m.levels(), 3);
        assert_eq!(m.max_rank(), 4);
        assert_eq!(m.rank_profile(), vec![4, 4, 4]);
        assert_eq!(m.ubig().cols(), 12);
        assert_eq!(m.diag_blocks().len(), 8);
        assert_eq!(m.node_rank(5), 4);
        // Storage: 8 leaf blocks of 8x8 plus two 64x12 bases.
        assert_eq!(m.storage_entries(), 8 * 64 + 2 * 64 * 12);
        assert!(m.memory_gib() > 0.0);
    }

    #[test]
    fn symmetric_storage_shares_bases_and_is_hermitian() {
        let mut rng = StdRng::seed_from_u64(11);
        let m: HodlrMatrix<Complex64> = random_hodlr_spd(&mut rng, 64, 3, 4);
        assert!(m.shares_bases());
        // Half the basis entries of the general format.
        assert_eq!(m.storage_entries(), 8 * 64 + 64 * 12);
        let dense = m.to_dense();
        let diff = dense.sub(&dense.conj_transpose()).norm_max();
        assert!(diff < 1e-14, "not Hermitian: {diff}");
        // matvec still agrees with dense through the shared-basis views.
        let x: Vec<Complex64> = (0..64)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let y = m.matvec(&x);
        let y_ref = dense.matvec(&x);
        for (a, b) in y.iter().zip(y_ref.iter()) {
            assert!((*a - *b).abs() < 1e-10);
        }
        let general: HodlrMatrix<f64> = random_hodlr(&mut rng, 64, 3, 4);
        assert!(!general.shares_bases());
    }

    #[test]
    fn matvec_matches_dense() {
        let mut rng = StdRng::seed_from_u64(2);
        let m: HodlrMatrix<f64> = random_hodlr(&mut rng, 48, 3, 3);
        let dense = m.to_dense();
        let x: Vec<f64> = (0..48).map(|i| (i as f64 * 0.37).sin()).collect();
        let y = m.matvec(&x);
        let y_ref = dense.matvec(&x);
        for (a, b) in y.iter().zip(y_ref.iter()) {
            assert!((a - b).abs() < 1e-10, "{a} vs {b}");
        }
    }

    #[test]
    fn matvec_matches_dense_complex() {
        let mut rng = StdRng::seed_from_u64(3);
        let m: HodlrMatrix<Complex64> = random_hodlr(&mut rng, 32, 2, 2);
        let dense = m.to_dense();
        let x: Vec<Complex64> = (0..32)
            .map(|i| Complex64::new((i as f64).cos(), (i as f64 * 0.5).sin()))
            .collect();
        let y = m.matvec(&x);
        let y_ref = dense.matvec(&x);
        for (a, b) in y.iter().zip(y_ref.iter()) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }

    #[test]
    fn matvec_adjoint_matches_dense_conj_transpose() {
        let mut rng = StdRng::seed_from_u64(51);
        let m: HodlrMatrix<Complex64> = random_hodlr(&mut rng, 48, 3, 3);
        let dense_h = m.to_dense().conj_transpose();
        let x: Vec<Complex64> = (0..48)
            .map(|i| Complex64::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let y = m.matvec_adjoint(&x);
        let y_ref = dense_h.matvec(&x);
        for (a, b) in y.iter().zip(y_ref.iter()) {
            assert!((*a - *b).abs() < 1e-10);
        }

        let mr: HodlrMatrix<f64> = random_hodlr(&mut rng, 40, 2, 3);
        let dense_t = mr.to_dense().conj_transpose();
        let xr: Vec<f64> = (0..40).map(|i| (i as f64 * 0.31).cos()).collect();
        let yr = mr.matvec_adjoint(&xr);
        let yr_ref = dense_t.matvec(&xr);
        for (a, b) in yr.iter().zip(yr_ref.iter()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn norm1_est_tracks_the_dense_one_norm() {
        let mut rng = StdRng::seed_from_u64(52);
        let m: HodlrMatrix<f64> = random_hodlr(&mut rng, 64, 3, 4);
        let exact = hodlr_la::norms::norm_one(m.to_dense().as_ref());
        let est = m.norm1_est();
        assert!(est <= exact * (1.0 + 1e-12), "est {est} > exact {exact}");
        assert!(est >= exact / 3.0, "est {est} too small vs {exact}");
    }

    #[test]
    fn matmat_matches_repeated_matvec() {
        let mut rng = StdRng::seed_from_u64(4);
        let m: HodlrMatrix<f64> = random_hodlr(&mut rng, 40, 2, 3);
        let x: DenseMatrix<f64> = hodlr_la::random::random_matrix(&mut rng, 40, 3);
        let y = m.matmat(&x);
        for j in 0..3 {
            let yj = m.matvec(x.col(j));
            for i in 0..40 {
                assert!((y[(i, j)] - yj[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        let m: HodlrMatrix<f64> = random_hodlr(&mut rng, 32, 2, 2);
        let x: Vec<f64> = (0..32).map(|i| i as f64 - 16.0).collect();
        let b = m.matvec(&x);
        assert!(m.relative_residual(&x, &b) < 1e-14);
        // A perturbed solution has a visible residual.
        let mut x2 = x.clone();
        x2[0] += 1.0;
        assert!(m.relative_residual(&x2, &b) > 1e-6);
    }

    #[test]
    fn single_level_tree_is_just_a_dense_block() {
        let mut rng = StdRng::seed_from_u64(6);
        let m: HodlrMatrix<f64> = random_hodlr(&mut rng, 10, 0, 0);
        assert_eq!(m.levels(), 0);
        assert_eq!(m.ubig().cols(), 0);
        let dense = m.to_dense();
        assert_eq!(dense.rows(), 10);
        let x = vec![1.0; 10];
        let y = m.matvec(&x);
        let y_ref = dense.matvec(&x);
        for (a, b) in y.iter().zip(y_ref.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn from_parts_validates_diag_count() {
        let tree = ClusterTree::uniform(8, 1);
        let layout = LevelLayout::uniform(1, 1);
        let ubig = DenseMatrix::zeros(8, 1);
        let diag = vec![DenseMatrix::zeros(4, 4)];
        let general = HodlrMatrix::<f64>::from_parts(
            tree.clone(),
            layout.clone(),
            vec![0; 4],
            ubig.clone(),
            DenseMatrix::zeros(8, 1),
            diag.clone(),
        );
        let shared = HodlrMatrix::<f64>::from_parts_symmetric(tree, layout, vec![0; 4], ubig, diag);
        for err in [general.unwrap_err(), shared.unwrap_err()] {
            match err {
                HodlrError::DimensionMismatch {
                    context,
                    expected: 2,
                    found: 1,
                } => assert!(context.contains("diagonal blocks"), "{context}"),
                other => panic!("unexpected error {other}"),
            }
        }
    }

    #[test]
    fn from_parts_names_the_offending_leaf_block() {
        let mut rng = StdRng::seed_from_u64(7);
        let m: HodlrMatrix<f64> = random_hodlr(&mut rng, 16, 1, 1);
        let bad_diag = vec![m.diag_block(0).clone(), DenseMatrix::zeros(5, 5)];
        let ranks: Vec<usize> = (0..=m.tree().num_nodes()).map(|_| 1).collect();
        let general = HodlrMatrix::from_parts(
            m.tree().clone(),
            m.layout().clone(),
            ranks.clone(),
            m.ubig().clone(),
            m.vbig().clone(),
            bad_diag.clone(),
        );
        let shared = HodlrMatrix::from_parts_symmetric(
            m.tree().clone(),
            m.layout().clone(),
            ranks,
            m.ubig().clone(),
            bad_diag,
        );
        for err in [general.unwrap_err(), shared.unwrap_err()] {
            let msg = err.to_string();
            assert!(msg.contains("leaf 1"), "{msg}");
            assert!(msg.contains("expected 8, found 5"), "{msg}");
        }
    }
}
