//! The serial backend: the level-by-level factorization and solve
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
//! Algorithms 1–2 and their batched form, Algorithms 3–4, are one sweep:
//! the same levels, deepest first, each level's nodes issued together.  It
//! is written once, in [`crate::gpu`].  A [`SerialSolver`] uploads the
//! matrix to a [`Device`] of its own, runs the batched sweep there and owns
//! the factored [`BatchedSolver`], so both backends compute the same bits
//! and hold the same memory: copies of the leaf blocks and of `Ubig` (which
//! become the factors and `Ybig`), and the host matrix's own `Vbig`, read
//! in place and kept alive by the solver, so it may outlive the matrix.
//! The private device meters the serial backend's launches where no
//! caller's device sees them ([`SerialSolver::device`]), and no fault plan
//! reaches it.  The solver is factored by construction, which is why it is
//! a type of its own: its solves and [`SerialSolver::log_det`] cannot fail,
//! and a right-hand side of the wrong length panics.

use crate::gpu::BatchedSolver;
use crate::layout::LevelLayout;
use crate::matrix::HodlrMatrix;
use crate::symmetric::{FactorKind, Lu, Symmetric};
use hodlr_batch::{Device, DeviceBuffer};
use hodlr_la::{DenseMatrix, HodlrError, Scalar};
use hodlr_tree::ClusterTree;

/// Why the solves of a [`SerialSolver`] cannot return an error.
const FACTORED: &str = "a SerialSolver is factored by construction";

/// The output of Algorithm 1: the factored [`BatchedSolver`] holding the
/// transformed bases `Ybig`, the host matrix's right bases `Vbig` (read in
/// place), and the factors of every leaf diagonal block and every coupling
/// matrix `K_gamma`.
pub struct SerialSolver<T: Scalar, K: FactorKind<T>> {
    /// Factored by construction, on a device of its own.
    batched: BatchedSolver<'static, T, K>,
}

impl<T: Scalar, K: FactorKind<T>> std::fmt::Debug for SerialSolver<T, K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SerialSolver")
            .field("n", &self.tree().n())
            .field("kind", &self.batched.kind)
            .finish_non_exhaustive()
    }
}

/// Algorithms 1–2 with pivoted LU factors, from
/// [`HodlrMatrix::factorize_serial`].
pub type SerialFactorization<T> = SerialSolver<T, Lu>;

/// Algorithms 1–2 with symmetric factors, from
/// [`HodlrMatrix::factorize_symmetric`].
pub type SerialSymmetricFactorization<T> = SerialSolver<T, Symmetric>;

impl<T: Scalar, K: FactorKind<T>> SerialSolver<T, K> {
    /// Algorithm 1 with every block factorized by `kind`, as the batched
    /// sweep on a fresh device.
    pub(crate) fn factorize(matrix: &HodlrMatrix<T>, kind: K) -> Result<Self, HodlrError> {
        let mut batched = BatchedSolver::upload(&Device::new(), matrix, kind);
        batched.factorize()?;
        Ok(SerialSolver { batched })
    }

    /// The factored batched solver this solver runs on.
    pub fn batched(&self) -> &BatchedSolver<'static, T, K> {
        &self.batched
    }

    /// The device of this solver's own that meters its sweeps.
    pub fn device(&self) -> &Device {
        self.batched.device()
    }

    /// The transformed bases `Ybig` (Algorithm 1's main output).
    pub fn ybig(&self) -> &DeviceBuffer<T> {
        &self.batched.ybig
    }

    /// The cluster tree the factorization was computed over.
    pub fn tree(&self) -> &ClusterTree {
        &self.batched.tree
    }

    /// The column layout shared with the original matrix.
    pub fn layout(&self) -> &LevelLayout {
        &self.batched.layout
    }

    /// Solve `A x = b` for a single right-hand side (Algorithm 2).
    ///
    /// # Panics
    /// Panics if `b` has the wrong length.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        assert_eq!(
            b.len(),
            self.tree().n(),
            "right-hand side has the wrong row count"
        );
        self.batched.solve(b).expect(FACTORED)
    }

    /// Blocked multi-RHS solve: pack `rhs` into one `N x k` matrix and run
    /// a single Algorithm-2 sweep, so every level processes all right-hand
    /// sides in one launch per kernel instead of one sweep per RHS.
    ///
    /// # Panics
    /// Panics if any right-hand side has the wrong length.
    pub fn solve_block(&self, rhs: &[impl AsRef<[T]>]) -> Vec<Vec<T>> {
        let n = self.tree().n();
        let mut x = DenseMatrix::<T>::zeros(n, rhs.len());
        for (j, col) in rhs.iter().enumerate() {
            let col = col.as_ref();
            assert_eq!(col.len(), n, "right-hand side {j} has the wrong length");
            x.col_mut(j).copy_from_slice(col);
        }
        self.batched.solve_matrix_in_place(&mut x).expect(FACTORED);
        (0..rhs.len()).map(|j| x.col(j).to_vec()).collect()
    }

    /// Solve `A X = B` for multiple right-hand sides (Algorithm 2).
    ///
    /// # Panics
    /// Panics if `b` has the wrong number of rows.
    pub fn solve_matrix(&self, b: &DenseMatrix<T>) -> DenseMatrix<T> {
        assert_eq!(
            b.rows(),
            self.tree().n(),
            "right-hand side has the wrong row count"
        );
        self.batched.solve_matrix(b).expect(FACTORED)
    }

    /// Log-determinant of the factorized matrix via the product form of
    /// Section III-E (a); see [`BatchedSolver::log_det`].
    ///
    /// Returns `(log|det(A)|, sign)` where `sign` is a unit-modulus scalar
    /// (`1` for a positive-definite matrix).
    pub fn log_det(&self) -> (T::Real, T) {
        self.batched.log_det().expect(FACTORED)
    }

    /// Storage used by the factorization in scalar entries (the `mem`
    /// column): [`BatchedSolver::storage_entries`] of the sweep it owns.
    pub fn storage_entries(&self) -> usize {
        self.batched.storage_entries()
    }

    /// Storage in GiB.
    pub fn memory_gib(&self) -> f64 {
        (self.storage_entries() * std::mem::size_of::<T>()) as f64 / (1u64 << 30) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::LevelLayout;
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
