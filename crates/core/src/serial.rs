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
//! symmetric ladder ([`SerialSymmetricFactorization`]).
//!
//! # Parallelism
//!
//! The nodes of one level are independent, and every level runs them as
//! tasks on the rayon pool, one task per node.  The leaf factors and the
//! coupling matrices are formed and factorized in parallel, then each
//! node's solve or update runs on its own row window (`I_alpha` at the
//! leaves, `I_gamma` above) through `hodlr-batch`'s
//! [`process_windows_mut`], which proves the windows disjoint.  A node's
//! task makes the same `gemm`, factor and solve calls as a one-node-at-a-time
//! sweep, on the same operands, so the results are bitwise independent of
//! the pool size.
//!
//! Windows of one column (a single right-hand side) are disjoint slices and
//! run in place.  Wider windows interleave in memory, and the executor
//! copies each one into task scratch; such a level runs as tasks only while
//! `min(threads, nodes) x widest window <= n / 4` rows, so the scratch in
//! flight stays within a quarter of the matrix.  Otherwise (the few widest
//! levels near the root, whose large products are tile-parallel inside
//! `hodlr-la` anyway) its nodes run one at a time in place.

use crate::layout::LevelLayout;
use crate::matrix::HodlrMatrix;
use crate::symmetric::{Block, FactorKind, Lu, Symmetric};
use hodlr_batch::{process_windows_mut, MatWindow};
use hodlr_la::{gemm, DenseMatrix, HodlrError, MatMut, MatRef, Op, Scalar};
use hodlr_tree::ClusterTree;
use rayon::prelude::*;
use std::ops::Range;

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
    /// Algorithm 1 with every block factorized by `kind`.
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

        // --- leaf level: factorize every D_alpha, then solve its rows of Ybig
        let diag = (0..tree.num_leaves())
            .into_par_iter()
            .map(|leaf_idx| {
                kind.factor(Block::Leaf, matrix.diag_block(leaf_idx).clone(), || {
                    format!("diagonal block of leaf {leaf_idx}")
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let leaves = Nodes::of(&tree, levels);
        for_each_row_window(
            ybig.data_mut(),
            n,
            total_cols,
            &leaves.rows,
            |leaf_idx, rows| {
                K::solve(&diag[leaf_idx], rows);
            },
        );

        // --- internal levels, deepest first -------------------------------
        let mut coupling: Vec<Vec<K::Factor>> = vec![Vec::new(); levels];
        for level in (0..levels).rev() {
            let w = layout.width(level + 1);
            if w == 0 {
                // Zero-rank level: no coupling matrices and no update.
                continue;
            }
            // The child level's columns start where the prefix ends.
            let prefix = layout.prefix_cols(level);
            let nodes = Nodes::of(&tree, level);

            // Form and factorize every node's K (Eq. 11) from its Y.
            let factors = (0..nodes.ids.len())
                .into_par_iter()
                .map(|i| {
                    let r = &nodes.rows[i];
                    let v = vbig.block(r.start, prefix, r.len(), w);
                    let y = ybig.block(r.start, prefix, r.len(), w);
                    let k = build_coupling_matrix(v, y, nodes.splits[i]);
                    kind.factor(Block::Coupling, k, || {
                        format!("coupling matrix of node {}", nodes.ids[i])
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;

            if prefix > 0 {
                // Eqs. 13–14 on each node's rows I_gamma: the window holds
                // Ybig(I_gamma, 1:prefix) and, right of it, the node's Y.
                for_each_row_window(ybig.data_mut(), n, prefix + w, &nodes.rows, |i, window| {
                    let r = &nodes.rows[i];
                    let (target, y) = window.split_at_col_mut(prefix);
                    let v = vbig.block(r.start, prefix, r.len(), w);
                    apply_coupling::<T, K>(&factors[i], v, y.as_ref(), nodes.splits[i], target);
                });
            }
            coupling[level] = factors;
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

/// The nodes of one tree level, in node order: their ids, their rows, and
/// for an internal node `gamma` how many of its rows `I_gamma` belong to
/// its first child (`I_gamma = I_alpha ∪ I_beta`, `I_alpha` first).
struct Nodes {
    ids: Vec<usize>,
    rows: Vec<Range<usize>>,
    splits: Vec<usize>,
}

impl Nodes {
    fn of(tree: &ClusterTree, level: usize) -> Self {
        let ids: Vec<usize> = tree.level_nodes(level).collect();
        let rows = ids.iter().map(|&id| tree.range(id)).collect();
        let splits = ids
            .iter()
            .map(|&id| {
                tree.children(id)
                    .map_or(0, |(alpha, _)| tree.node_size(alpha))
            })
            .collect();
        Nodes { ids, rows, splits }
    }
}

/// Run `task(i, window)` on the window `rows[i] x (0..cols)` of the
/// column-major `n x cols` matrix stored in `data`, for every `i`.
///
/// The windows are disjoint, so they run as pool tasks through
/// [`process_windows_mut`]: in place when they span one column, through a
/// scratch copy per task otherwise.  Copied windows run as tasks only while
/// `min(threads, windows) x widest <= n / 4` rows; a wider level runs its
/// windows one at a time in place.  Either way every task sees the same
/// values, so the schedule never changes a bit.
fn for_each_row_window<T: Scalar>(
    data: &mut [T],
    n: usize,
    cols: usize,
    rows: &[Range<usize>],
    task: impl Fn(usize, MatMut<'_, T>) + Sync,
) {
    if cols == 0 {
        return;
    }
    let widest = rows.iter().map(Range::len).max().unwrap_or(0);
    let in_flight = rayon::current_num_threads().min(rows.len()) * widest;
    if cols == 1 || 4 * in_flight <= n {
        let windows: Vec<MatWindow> = rows
            .iter()
            .map(|r| MatWindow {
                offset: r.start,
                rows: r.len(),
                cols,
                ld: n,
            })
            .collect();
        process_windows_mut(data, &windows, true, task);
    } else {
        for (i, r) in rows.iter().enumerate() {
            let whole = MatMut::from_parts(&mut *data, n, cols, n);
            task(i, whole.into_block(r.start, 0, r.len(), cols));
        }
    }
}

/// `(first row, row count)` of `I_alpha` and of `I_beta` within the `rows`
/// rows `I_gamma` of a node whose first `split` rows are `I_alpha`.
fn children(split: usize, rows: usize) -> [(usize, usize); 2] {
    [(0, split), (split, rows - split)]
}

/// Assemble `K = [[V_a^* Y_a, I], [I, V_b^* Y_b]]` (Eq. 11) from a node's
/// rows `I_gamma` of `V` and `Y`, the first `split` of which are `I_alpha`.
/// When the matrix is Hermitian with shared bases, `K` itself is Hermitian.
fn build_coupling_matrix<T: Scalar>(
    v: MatRef<'_, T>,
    y: MatRef<'_, T>,
    split: usize,
) -> DenseMatrix<T> {
    let w = v.cols();
    let mut k = DenseMatrix::<T>::zeros(2 * w, 2 * w);
    for (c, (start, len)) in children(split, v.rows()).into_iter().enumerate() {
        gemm(
            T::one(),
            v.block(start, 0, len, w),
            Op::ConjTrans,
            y.block(start, 0, len, w),
            Op::None,
            T::zero(),
            k.block_mut(c * w, c * w, w, w),
        );
    }
    for i in 0..w {
        k[(i, w + i)] = T::one();
        k[(w + i, i)] = T::one();
    }
    k
}

/// One node's elimination step on its rows `I_gamma` of `x`, the first
/// `split` of which are `I_alpha`: stack `[V_a^* x_a; V_b^* x_b]`, solve
/// with the node's factorized `K`, and subtract `[Y_a W_a; Y_b W_b]` from
/// `x`.  With `x = Ybig(I_gamma, 1:prefix)` this is Eqs. 13–14 of the
/// factorization; with `x` a right-hand side it is Eqs. 15–16 of the solve.
fn apply_coupling<T: Scalar, K: FactorKind<T>>(
    k: &K::Factor,
    v: MatRef<'_, T>,
    y: MatRef<'_, T>,
    split: usize,
    mut x: MatMut<'_, T>,
) {
    let (w, cols) = (v.cols(), x.cols());
    let halves = children(split, x.rows());
    let mut rhs = DenseMatrix::<T>::zeros(2 * w, cols);
    for (c, &(start, len)) in halves.iter().enumerate() {
        gemm(
            T::one(),
            v.block(start, 0, len, w),
            Op::ConjTrans,
            x.as_ref().block(start, 0, len, cols),
            Op::None,
            T::zero(),
            rhs.block_mut(c * w, 0, w, cols),
        );
    }
    K::solve(k, rhs.as_mut());
    for (c, &(start, len)) in halves.iter().enumerate() {
        gemm(
            -T::one(),
            y.block(start, 0, len, w),
            Op::None,
            rhs.block(c * w, 0, w, cols),
            Op::None,
            T::one(),
            x.block_mut(start, 0, len, cols),
        );
    }
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
    ///
    /// # Panics
    /// Panics if `b` has the wrong length.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        assert_eq!(
            b.len(),
            self.tree.n(),
            "right-hand side has the wrong row count"
        );
        let mut x = b.to_vec();
        self.solve_columns_in_place(&mut x);
        x
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
        let mut x = DenseMatrix::<T>::zeros(n, k);
        for (j, col) in rhs.iter().enumerate() {
            let col = col.as_ref();
            assert_eq!(col.len(), n, "right-hand side {j} has the wrong length");
            x.col_mut(j).copy_from_slice(col);
        }
        self.solve_columns_in_place(x.data_mut());
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
        let mut x = b.clone();
        self.solve_columns_in_place(x.data_mut());
        x
    }

    /// Algorithm 2 in place: `x` holds right-hand sides of length `N`
    /// one after another (an `N x k` column-major block) on entry, and
    /// their solutions on exit.  The other solves are a copy plus this.
    ///
    /// # Panics
    /// Panics if the length of `x` is not a multiple of `N`.
    pub fn solve_columns_in_place(&self, x: &mut [T]) {
        let n = self.tree.n();
        assert_eq!(x.len() % n, 0, "right-hand sides have the wrong row count");
        let nrhs = x.len() / n;

        // Leaf sweep (line 3 of Algorithm 2).
        let leaves = Nodes::of(&self.tree, self.tree.levels());
        for_each_row_window(x, n, nrhs, &leaves.rows, |leaf_idx, rows| {
            K::solve(&self.diag[leaf_idx], rows);
        });

        // Level sweep, deepest first (lines 5–10): Eqs. 15–16 on each
        // node's rows I_gamma.
        for level in (0..self.tree.levels()).rev() {
            let w = self.layout.width(level + 1);
            if w == 0 {
                continue;
            }
            let child_cols = self.layout.col_range(level + 1).start;
            let nodes = Nodes::of(&self.tree, level);
            let factors = &self.coupling[level];
            for_each_row_window(x, n, nrhs, &nodes.rows, |i, target| {
                let r = &nodes.rows[i];
                let v = self.vbig.block(r.start, child_cols, r.len(), w);
                let y = self.ybig.block(r.start, child_cols, r.len(), w);
                apply_coupling::<T, K>(&factors[i], v, y, nodes.splits[i], target);
            });
        }
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

    /// The error of factorizing `m` in 1-, 2- and 8-thread pools.
    fn errors_at_every_pool_size(m: &HodlrMatrix<f64>) -> Vec<String> {
        [1, 2, 8]
            .map(|threads| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                pool.install(|| m.factorize_serial().unwrap_err().to_string())
            })
            .to_vec()
    }

    #[test]
    fn singular_diagonal_block_is_reported() {
        let mut rng = StdRng::seed_from_u64(60);
        let m: HodlrMatrix<f64> = random_hodlr(&mut rng, 64, 3, 1);
        // Leaves 0 and 5 are singular; their tasks may finish in either
        // order, and the error names leaf 0.
        let mut diag = m.diag_blocks().to_vec();
        diag[0] = DenseMatrix::zeros(8, 8);
        diag[5] = DenseMatrix::zeros(8, 8);
        let singular = HodlrMatrix::from_parts(
            m.tree().clone(),
            m.layout().clone(),
            (0..=m.tree().num_nodes()).map(|_| 1).collect(),
            m.ubig().clone(),
            m.vbig().clone(),
            diag,
        )
        .unwrap();
        for err in errors_at_every_pool_size(&singular) {
            assert!(err.contains("diagonal block of leaf 0"), "{err}");
        }
    }

    #[test]
    fn singular_coupling_matrix_is_reported() {
        // Identity leaves and every rank-1 basis equal to e_1 (the first row
        // of its node) make every deepest K = [[1, 1], [1, 1]]: the error
        // names that level's first node, node 4.
        let tree = ClusterTree::uniform(64, 3);
        let mut ubig = DenseMatrix::<f64>::zeros(64, 3);
        for level in 1..=3 {
            for node in tree.level_nodes(level) {
                ubig[(tree.range(node).start, level - 1)] = 1.0;
            }
        }
        let diag = tree
            .leaves()
            .map(|leaf| DenseMatrix::identity(tree.node_size(leaf)))
            .collect();
        let singular = HodlrMatrix::from_parts(
            tree.clone(),
            LevelLayout::uniform(3, 1),
            (0..=tree.num_nodes()).map(|_| 1).collect(),
            ubig.clone(),
            ubig,
            diag,
        )
        .unwrap();
        for err in errors_at_every_pool_size(&singular) {
            assert!(err.contains("coupling matrix of node 4"), "{err}");
        }
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
