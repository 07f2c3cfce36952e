//! The non-recursive, level-by-level factorization and solve
//! (Algorithms 1 and 2 of the paper) — the "Serial HODLR Solver" column of
//! the evaluation tables.
//!
//! The factorization walks the tree bottom-up.  At the leaf level every
//! diagonal block is factorized and applied to its rows of `Ybig` (which
//! starts as a copy of `Ubig`).  At every internal level the small coupling
//! matrices `K_gamma` (Eq. 11) are formed from the already computed `Y`
//! bases, factorized, and used to update the columns of `Ybig` belonging to
//! shallower levels (Eqs. 13–14).  The solve stage replays the same sweep
//! on a right-hand side (Eqs. 15–16).
//!
//! The sweep is written once, generic over the [`FactorKind`] that
//! factorizes each block: pivoted LU ([`SerialFactorization`]) or the
//! symmetric ladder ([`SerialSymmetricFactorization`]).  Tree nodes are
//! processed one at a time; the dense kernels inside each node inherit
//! `hodlr-la`'s tile parallelism.

use crate::layout::LevelLayout;
use crate::matrix::HodlrMatrix;
use crate::symmetric::{Block, FactorKind, Lu, Symmetric};
use hodlr_la::{gemm, DenseMatrix, HodlrError, MatRef, Op, Scalar};
use hodlr_tree::ClusterTree;

/// The output of Algorithm 1: the transformed bases `Ybig`, the (copied)
/// right bases `Vbig`, and the stored factorizations of every leaf
/// diagonal block and every coupling matrix `K_gamma`.
#[derive(Clone, Debug)]
pub struct SerialSolver<T: Scalar, K: FactorKind<T>> {
    tree: ClusterTree,
    layout: LevelLayout,
    pub(crate) kind: K,
    ybig: DenseMatrix<T>,
    vbig: DenseMatrix<T>,
    pub(crate) diag: Vec<K::Factor>,
    /// `coupling[l]` holds, for every node at level `l` (in node order), the
    /// factorization of its coupling matrix `K` (levels `0..L`; empty at a
    /// zero-rank level).
    coupling: Vec<Vec<K::Factor>>,
}

/// Algorithms 1–2 with pivoted LU factors, from
/// [`HodlrMatrix::factorize_serial`].
pub type SerialFactorization<T> = SerialSolver<T, Lu>;

/// Algorithms 1–2 with symmetric factors, from
/// [`HodlrMatrix::factorize_symmetric`].
pub type SerialSymmetricFactorization<T> = SerialSolver<T, Symmetric>;

impl<T: Scalar, K: FactorKind<T>> SerialSolver<T, K> {
    /// Algorithm 1 (sequential) with every block factorized by `kind`.
    pub(crate) fn factorize(matrix: &HodlrMatrix<T>, kind: K) -> Result<Self, HodlrError> {
        let tree = matrix.tree().clone();
        let layout = matrix.layout().clone();
        let n = matrix.n();
        let total_cols = layout.total_cols();
        let levels = tree.levels();

        // Ybig starts as a copy of Ubig (the paper overwrites Ubig in place;
        // we keep the original matrix intact so residuals can be computed).
        let mut ybig = matrix.ubig().clone();
        let vbig = matrix.vbig().clone();

        // --- leaf level: factorize D_alpha and solve its rows of Ybig ------
        let mut diag = Vec::with_capacity(tree.num_leaves());
        for (leaf_idx, leaf) in tree.leaves().enumerate() {
            let range = tree.range(leaf);
            let f = kind.factor(Block::Leaf, matrix.diag_block(leaf_idx).clone(), || {
                format!("diagonal block of leaf {leaf_idx}")
            })?;
            if total_cols > 0 {
                let block = ybig.block_mut(range.start, 0, range.len(), total_cols);
                K::solve(&f, block);
            }
            diag.push(f);
        }

        // --- internal levels, deepest first -------------------------------
        let mut coupling: Vec<Vec<K::Factor>> = vec![Vec::new(); levels];
        for level in (0..levels).rev() {
            let child_level = level + 1;
            let w = layout.width(child_level);
            let prefix = layout.prefix_cols(level);
            let child_cols = layout.col_range(child_level);
            if w == 0 {
                // Zero-rank level: no coupling matrices and no update.
                continue;
            }
            let mut level_factors = Vec::with_capacity(1 << level);

            for gamma in tree.level_nodes(level) {
                let (alpha, beta) = tree.children(gamma).expect("internal node");
                let ra = tree.range(alpha);
                let rb = tree.range(beta);

                // T_alpha = V_alpha^* Y_alpha and T_beta = V_beta^* Y_beta.
                let v_a = matrix.vbig().block(ra.start, child_cols.start, ra.len(), w);
                let v_b = matrix.vbig().block(rb.start, child_cols.start, rb.len(), w);
                let y_a = ybig
                    .block(ra.start, child_cols.start, ra.len(), w)
                    .to_owned();
                let y_b = ybig
                    .block(rb.start, child_cols.start, rb.len(), w)
                    .to_owned();

                let k = build_coupling_matrix(&v_a, &v_b, &y_a, &y_b);
                let k_fact = kind.factor(Block::Coupling, k, || {
                    format!("coupling matrix of node {gamma}")
                })?;

                if prefix > 0 {
                    // Right-hand sides (13): stack V_alpha^* Ybig(I_alpha, 1:prefix)
                    // over V_beta^* Ybig(I_beta, 1:prefix).
                    let mut rhs = DenseMatrix::<T>::zeros(2 * w, prefix);
                    {
                        let yb_a = ybig.block(ra.start, 0, ra.len(), prefix);
                        let mut top = rhs.block_mut(0, 0, w, prefix);
                        gemm(
                            T::one(),
                            v_a,
                            Op::ConjTrans,
                            yb_a,
                            Op::None,
                            T::zero(),
                            top.reborrow(),
                        );
                    }
                    {
                        let yb_b = ybig.block(rb.start, 0, rb.len(), prefix);
                        let mut bottom = rhs.block_mut(w, 0, w, prefix);
                        gemm(
                            T::one(),
                            v_b,
                            Op::ConjTrans,
                            yb_b,
                            Op::None,
                            T::zero(),
                            bottom.reborrow(),
                        );
                    }
                    K::solve(&k_fact, rhs.as_mut());

                    // Update (14): Ybig(I_gamma, 1:prefix) -= [Y_a W_a; Y_b W_b].
                    let w_a = rhs.block(0, 0, w, prefix);
                    let w_b = rhs.block(w, 0, w, prefix);
                    let mut upd_a = ybig.block_mut(ra.start, 0, ra.len(), prefix);
                    gemm(
                        -T::one(),
                        y_a.as_ref(),
                        Op::None,
                        w_a,
                        Op::None,
                        T::one(),
                        upd_a.reborrow(),
                    );
                    let mut upd_b = ybig.block_mut(rb.start, 0, rb.len(), prefix);
                    gemm(
                        -T::one(),
                        y_b.as_ref(),
                        Op::None,
                        w_b,
                        Op::None,
                        T::one(),
                        upd_b.reborrow(),
                    );
                }

                level_factors.push(k_fact);
            }
            coupling[level] = level_factors;
        }

        debug_assert_eq!(ybig.rows(), n);
        Ok(SerialSolver {
            tree,
            layout,
            kind,
            ybig,
            vbig,
            diag,
            coupling,
        })
    }
}

/// Assemble `K = [[V_a^* Y_a, I], [I, V_b^* Y_b]]` (Eq. 11).  When the
/// matrix is Hermitian with shared bases, `K` itself is Hermitian.
fn build_coupling_matrix<T: Scalar>(
    v_a: &MatRef<'_, T>,
    v_b: &MatRef<'_, T>,
    y_a: &DenseMatrix<T>,
    y_b: &DenseMatrix<T>,
) -> DenseMatrix<T> {
    let w = y_a.cols();
    let mut k = DenseMatrix::<T>::zeros(2 * w, 2 * w);
    {
        let mut top_left = k.block_mut(0, 0, w, w);
        gemm(
            T::one(),
            *v_a,
            Op::ConjTrans,
            y_a.as_ref(),
            Op::None,
            T::zero(),
            top_left.reborrow(),
        );
    }
    {
        let mut bottom_right = k.block_mut(w, w, w, w);
        gemm(
            T::one(),
            *v_b,
            Op::ConjTrans,
            y_b.as_ref(),
            Op::None,
            T::zero(),
            bottom_right.reborrow(),
        );
    }
    for i in 0..w {
        k[(i, w + i)] = T::one();
        k[(w + i, i)] = T::one();
    }
    k
}

impl<T: Scalar, K: FactorKind<T>> SerialSolver<T, K> {
    /// The transformed bases `Ybig` (Algorithm 1's main output).
    pub fn ybig(&self) -> &DenseMatrix<T> {
        &self.ybig
    }

    /// The cluster tree the factorization was computed over.
    pub fn tree(&self) -> &ClusterTree {
        &self.tree
    }

    /// The column layout shared with the original matrix.
    pub fn layout(&self) -> &LevelLayout {
        &self.layout
    }

    /// Solve `A x = b` for a single right-hand side (Algorithm 2).
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        let b_mat = DenseMatrix::from_col_major(b.len(), 1, b.to_vec());
        self.solve_matrix(&b_mat).into_data()
    }

    /// Blocked multi-RHS solve: pack `rhs` into one `N x k` matrix and run
    /// a single Algorithm-2 sweep, so every level processes all right-hand
    /// sides in one gemm per node instead of one sweep per RHS.
    ///
    /// # Panics
    /// Panics if any right-hand side has the wrong length.
    pub fn solve_block(&self, rhs: &[impl AsRef<[T]>]) -> Vec<Vec<T>> {
        let n = self.tree.n();
        let k = rhs.len();
        let mut b = DenseMatrix::<T>::zeros(n, k);
        for (j, col) in rhs.iter().enumerate() {
            let col = col.as_ref();
            assert_eq!(col.len(), n, "right-hand side {j} has the wrong length");
            b.col_mut(j).copy_from_slice(col);
        }
        let x = self.solve_matrix(&b);
        (0..k).map(|j| x.col(j).to_vec()).collect()
    }

    /// Solve `A X = B` for multiple right-hand sides (Algorithm 2).
    ///
    /// # Panics
    /// Panics if `b` has the wrong number of rows.
    pub fn solve_matrix(&self, b: &DenseMatrix<T>) -> DenseMatrix<T> {
        assert_eq!(
            b.rows(),
            self.tree.n(),
            "right-hand side has the wrong row count"
        );
        let nrhs = b.cols();
        let mut x = b.clone();
        if nrhs == 0 {
            return x;
        }
        let levels = self.tree.levels();

        // Leaf sweep (line 3 of Algorithm 2).
        for (leaf_idx, leaf) in self.tree.leaves().enumerate() {
            let range = self.tree.range(leaf);
            let block = x.block_mut(range.start, 0, range.len(), nrhs);
            K::solve(&self.diag[leaf_idx], block);
        }

        // Level sweep, deepest first (lines 5–10).
        for level in (0..levels).rev() {
            let child_level = level + 1;
            let w = self.layout.width(child_level);
            if w == 0 {
                continue;
            }
            let child_cols = self.layout.col_range(child_level);
            for (node_idx, gamma) in self.tree.level_nodes(level).enumerate() {
                let (alpha, beta) = self.tree.children(gamma).expect("internal node");
                let ra = self.tree.range(alpha);
                let rb = self.tree.range(beta);

                // w_rhs = [V_a^* x_a; V_b^* x_b] (Eq. 15).
                let v_a = self.vbig.block(ra.start, child_cols.start, ra.len(), w);
                let v_b = self.vbig.block(rb.start, child_cols.start, rb.len(), w);
                let mut rhs = DenseMatrix::<T>::zeros(2 * w, nrhs);
                {
                    let x_a = x.block(ra.start, 0, ra.len(), nrhs);
                    let mut top = rhs.block_mut(0, 0, w, nrhs);
                    gemm(
                        T::one(),
                        v_a,
                        Op::ConjTrans,
                        x_a,
                        Op::None,
                        T::zero(),
                        top.reborrow(),
                    );
                }
                {
                    let x_b = x.block(rb.start, 0, rb.len(), nrhs);
                    let mut bottom = rhs.block_mut(w, 0, w, nrhs);
                    gemm(
                        T::one(),
                        v_b,
                        Op::ConjTrans,
                        x_b,
                        Op::None,
                        T::zero(),
                        bottom.reborrow(),
                    );
                }
                K::solve(&self.coupling[level][node_idx], rhs.as_mut());

                // x(I_gamma) -= [Y_a w_a; Y_b w_b] (Eq. 16).
                let y_a = self.ybig.block(ra.start, child_cols.start, ra.len(), w);
                let y_b = self.ybig.block(rb.start, child_cols.start, rb.len(), w);
                let w_a = rhs.block(0, 0, w, nrhs).to_owned();
                let w_b = rhs.block(w, 0, w, nrhs).to_owned();
                let mut x_a = x.block_mut(ra.start, 0, ra.len(), nrhs);
                gemm(
                    -T::one(),
                    y_a,
                    Op::None,
                    w_a.as_ref(),
                    Op::None,
                    T::one(),
                    x_a.reborrow(),
                );
                let mut x_b = x.block_mut(rb.start, 0, rb.len(), nrhs);
                gemm(
                    -T::one(),
                    y_b,
                    Op::None,
                    w_b.as_ref(),
                    Op::None,
                    T::one(),
                    x_b.reborrow(),
                );
            }
        }
        x
    }

    /// Log-determinant of the factorized matrix via the product form of
    /// Section III-E (a): `A = A^(L+1) ... A^(1)`, where the determinant of
    /// every leaf block comes from its factor and the determinant of every
    /// 2x2 coupling block equals `(-1)^w det(K_gamma)` (Sylvester /
    /// Schur-complement identity).
    ///
    /// Returns `(log|det(A)|, sign)` where `sign` is a unit-modulus scalar
    /// (`1` for a positive-definite matrix).  The per-factor accumulation is
    /// the kind's shared fold, and the factor order here (leaves first, then
    /// coupling levels from the top split down) is mirrored exactly by
    /// [`BatchedSolver::log_det`](crate::BatchedSolver::log_det) — the two
    /// backends agree bitwise.
    pub fn log_det(&self) -> (T::Real, T) {
        let mut log_abs = T::Real::zero();
        let mut sign = T::one();
        for f in &self.diag {
            let (la, s) = K::log_det(f);
            log_abs += la;
            sign *= s;
        }
        for (level, factors) in self.coupling.iter().enumerate() {
            let w = self.layout.width(level + 1);
            if w == 0 {
                continue;
            }
            for f in factors {
                let (la, s) = K::log_det(f);
                log_abs += la;
                sign *= s;
                if w % 2 == 1 {
                    sign = -sign;
                }
            }
        }
        (log_abs, sign)
    }

    /// Storage used by the factorization in scalar entries (the `mem`
    /// column): the transformed bases, the right bases, and the leaf and
    /// coupling-matrix factors — square for LU, triangular for the
    /// symmetric kind.
    pub fn storage_entries(&self) -> usize {
        let bases = 2 * self.ybig.rows() * self.ybig.cols();
        let diags: usize = self.diag.iter().map(K::storage_entries).sum();
        let ks: usize = self
            .coupling
            .iter()
            .flat_map(|level| level.iter().map(K::storage_entries))
            .sum();
        bases + diags + ks
    }

    /// Storage in GiB.
    pub fn memory_gib(&self) -> f64 {
        (self.storage_entries() * std::mem::size_of::<T>()) as f64 / (1u64 << 30) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::random_hodlr;
    use crate::recursive::solve_recursive_vec;
    use hodlr_la::lu::solve_dense;
    use hodlr_la::{Complex64, LuFactor, RealScalar};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check<T: Scalar>(n: usize, levels: usize, rank: usize, seed: u64, tol: f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m: HodlrMatrix<T> = random_hodlr(&mut rng, n, levels, rank);
        let f = m.factorize_serial().expect("invertible");
        let b: Vec<T> = hodlr_la::random::random_vector(&mut rng, n);
        let x = f.solve(&b);
        assert!(
            m.relative_residual(&x, &b).to_f64() < tol,
            "residual too large"
        );
        // Agreement with the recursive oracle.
        let x_rec = solve_recursive_vec(&m, &b).unwrap();
        for (a, r) in x.iter().zip(x_rec.iter()) {
            assert!((*a - *r).abs().to_f64() < tol);
        }
    }

    #[test]
    fn solves_match_recursive_and_have_small_residuals() {
        check::<f64>(64, 3, 3, 51, 1e-10);
        check::<f64>(80, 2, 4, 52, 1e-10);
        check::<Complex64>(48, 2, 2, 53, 1e-10);
    }

    #[test]
    fn non_power_of_two_and_deep_trees() {
        check::<f64>(101, 3, 2, 54, 1e-10);
        check::<f64>(256, 5, 1, 55, 1e-9);
    }

    #[test]
    fn multiple_right_hand_sides_match_dense() {
        let mut rng = StdRng::seed_from_u64(56);
        let m: HodlrMatrix<f64> = random_hodlr(&mut rng, 48, 2, 3);
        let dense = m.to_dense();
        let f = m.factorize_serial().unwrap();
        let b: DenseMatrix<f64> = hodlr_la::random::random_matrix(&mut rng, 48, 5);
        let x = f.solve_matrix(&b);
        for j in 0..5 {
            let xj_ref = solve_dense(&dense, b.col(j)).unwrap();
            for i in 0..48 {
                assert!((x[(i, j)] - xj_ref[i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn zero_level_matrix_is_a_dense_solve() {
        let mut rng = StdRng::seed_from_u64(57);
        let m: HodlrMatrix<f64> = random_hodlr(&mut rng, 20, 0, 0);
        let f = m.factorize_serial().unwrap();
        let b: Vec<f64> = hodlr_la::random::random_vector(&mut rng, 20);
        let x = f.solve(&b);
        assert!(m.relative_residual(&x, &b) < 1e-12);
    }

    #[test]
    fn log_det_matches_dense_determinant() {
        let mut rng = StdRng::seed_from_u64(58);
        let m: HodlrMatrix<f64> = random_hodlr(&mut rng, 32, 2, 2);
        let dense = m.to_dense();
        let f = m.factorize_serial().unwrap();
        let (log_abs, sign) = f.log_det();
        let dense_lu = LuFactor::new(&dense).unwrap();
        let (ref_log, ref_sign) = dense_lu.log_det();
        assert!((log_abs - ref_log).abs() < 1e-8, "{log_abs} vs {ref_log}");
        assert!((sign - ref_sign).abs() < 1e-8);
    }

    #[test]
    fn log_det_complex() {
        let mut rng = StdRng::seed_from_u64(59);
        let m: HodlrMatrix<Complex64> = random_hodlr(&mut rng, 32, 2, 2);
        let dense = m.to_dense();
        let f = m.factorize_serial().unwrap();
        let (log_abs, sign) = f.log_det();
        let dense_lu = LuFactor::new(&dense).unwrap();
        let (ref_log, ref_sign) = dense_lu.log_det();
        assert!((log_abs - ref_log).abs() < 1e-8);
        assert!((sign - ref_sign).abs().to_f64() < 1e-8);
    }

    #[test]
    fn singular_diagonal_block_is_reported() {
        let mut rng = StdRng::seed_from_u64(60);
        let m: HodlrMatrix<f64> = random_hodlr(&mut rng, 16, 1, 1);
        let diag = vec![DenseMatrix::zeros(8, 8), m.diag_block(1).clone()];
        let singular = HodlrMatrix::from_parts(
            m.tree().clone(),
            m.layout().clone(),
            (0..=m.tree().num_nodes()).map(|_| 1).collect(),
            m.ubig().clone(),
            m.vbig().clone(),
            diag,
        )
        .unwrap();
        let err = singular.factorize_serial().unwrap_err();
        assert!(
            err.to_string().contains("diagonal block of leaf 0"),
            "{err}"
        );
    }

    #[test]
    fn factorization_storage_is_close_to_matrix_storage() {
        let mut rng = StdRng::seed_from_u64(61);
        let m: HodlrMatrix<f64> = random_hodlr(&mut rng, 256, 4, 3);
        let f = m.factorize_serial().unwrap();
        // In-place factorization adds only the K factors, which are small.
        let extra = f.storage_entries() as f64 / m.storage_entries() as f64;
        assert!(
            extra < 1.2,
            "factorization uses {extra}x the matrix storage"
        );
    }
}
