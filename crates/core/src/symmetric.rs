//! LU versus symmetric: the factor kind of Algorithms 1–4.
//!
//! The level sweeps are written once — serially in [`crate::serial`]
//! (Algorithms 1–2) and batched in [`crate::gpu`] (Algorithms 3–4).  Every
//! place where the general and the Hermitian path differ is a method of the
//! [`FactorKind`] strategy: which kernel factorizes a leaf diagonal block
//! or a coupling matrix, solves with the factor, folds its determinant, and
//! how many entries it keeps.  [`Lu`] is the pivoted-LU path; [`Symmetric`]
//! is the Hermitian fast path.
//!
//! When the HODLR matrix is Hermitian — shared off-diagonal bases
//! (`V_alpha = U_alpha`, see
//! [`HodlrMatrix::from_parts_symmetric`](crate::matrix::HodlrMatrix::from_parts_symmetric))
//! plus Hermitian leaf diagonal blocks — every small factorization of
//! Algorithm 1 can be replaced by a symmetric one at half the flops:
//!
//! * every **leaf diagonal block** is a principal submatrix of `A`, so for a
//!   positive-definite `A` it is positive definite and admits a Cholesky
//!   (`L L^*`) factorization at `n^3/3` flops instead of LU's `2 n^3/3`;
//! * every **coupling matrix** `K_gamma = [[U_a^* Y_a, I], [I, U_b^* Y_b]]`
//!   is Hermitian but *indefinite* (its off-diagonal identity blocks give it
//!   eigenvalues on both sides of zero), so it is factorized through the
//!   fallback ladder `LL^* -> LDL^* -> Bunch-Kaufman` of
//!   [`hodlr_la::cholesky`] — in practice Bunch-Kaufman, still a symmetric
//!   `n^3/3` cost.
//!
//! The [`Symmetry`] knob selects how *leaf* failures are handled:
//! [`Symmetry::PositiveDefinite`] demands Cholesky and surfaces
//! [`HodlrError::NotPositiveDefinite`] if a pivot fails, while
//! [`Symmetry::Hermitian`] quietly walks down the same fallback ladder.
//!
//! Each kind runs the *same* per-block kernels on both backends (the serial
//! [`LuFactor`] / [`SymmetricFactor`] and every batch entry of
//! `getrf`/`potrf` call the same in-place routines, and both backends fold
//! the log-determinant with the same per-factor accumulation), so serial and
//! batched factors, solutions and log-determinants agree bitwise.

use crate::gpu::{BatchedSolver, GpuSolver, GpuSymmetricSolver};
use crate::matrix::HodlrMatrix;
use crate::serial::{SerialFactorization, SerialSolver, SerialSymmetricFactorization};
use hodlr_batch::{
    extract_diagonals_batched, extract_tridiagonals_batched, getrf_batched_varied,
    getrs_batched_varied, potrf_batched_varied, potrs_batched_varied, Device, DeviceBuffer, LuDesc,
    LuSolveDesc, Stream,
};
use hodlr_la::{
    log_det_from_parts, sym_log_det_from_parts, DenseMatrix, HodlrError, LuFactor, MatMut, Scalar,
    SymmetricFactor, SymmetricKind, SymmetricPolicy,
};
use std::fmt::Debug;

/// Declared symmetry structure of a HODLR matrix, selecting the
/// factorization path.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Symmetry {
    /// No symmetry is assumed; the pivoted-LU path ([`Lu`]) is used.
    #[default]
    General,
    /// Hermitian positive definite: leaf diagonal blocks are factorized with
    /// a strict Cholesky, and a failed pivot is reported as
    /// [`HodlrError::NotPositiveDefinite`].
    PositiveDefinite,
    /// Hermitian but possibly indefinite: leaf diagonal blocks walk the
    /// fallback ladder `LL^* -> LDL^* -> Bunch-Kaufman` instead of erroring.
    Hermitian,
}

impl Symmetry {
    /// Whether this symmetry selects the symmetric factorization path.
    pub fn is_symmetric(self) -> bool {
        !matches!(self, Symmetry::General)
    }

    /// The [`SymmetricPolicy`] applied to *leaf* diagonal blocks.  Coupling
    /// matrices are Hermitian indefinite by construction and always use
    /// [`SymmetricPolicy::Fallback`] regardless of this value.
    pub fn leaf_policy(self) -> SymmetricPolicy {
        match self {
            Symmetry::PositiveDefinite => SymmetricPolicy::Strict,
            Symmetry::General | Symmetry::Hermitian => SymmetricPolicy::Fallback,
        }
    }

    /// Stable lowercase label used by benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            Symmetry::General => "general",
            Symmetry::PositiveDefinite => "positive_definite",
            Symmetry::Hermitian => "hermitian",
        }
    }
}

/// The role of a block in the sweep: a kind may factorize leaf diagonal
/// blocks and coupling matrices under different policies.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Block {
    /// A leaf diagonal block `D_alpha`.
    Leaf,
    /// A coupling matrix `K_gamma` (Eq. 11).
    Coupling,
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::Lu {}
    impl Sealed for super::Symmetric {}
}

/// How the sweeps factorize every leaf diagonal block and coupling matrix,
/// solve with the factors, and fold them into the log-determinant — on the
/// host (serial sweep) and as batched launches (batched sweep).
///
/// Implemented by [`Lu`] and [`Symmetric`] only.
pub trait FactorKind<T: Scalar>: sealed::Sealed + Copy + Debug + Send + Sync {
    /// A factorized block held by the serial sweep.
    type Factor: Clone + Debug + Send + Sync;
    /// Host-side metadata of one batched factor: the LU pivots, or the
    /// ladder rung of a symmetric factor.
    type Meta: Clone + Debug + Send + Sync;

    /// Factorize one block on the host; `context` names it in the error.
    ///
    /// # Errors
    /// The block is singular, or (for a strict symmetric leaf) not
    /// positive definite.
    fn factor(
        self,
        block: Block,
        a: DenseMatrix<T>,
        context: impl FnOnce() -> String,
    ) -> Result<Self::Factor, HodlrError>;

    /// Solve `A X = B` in place with a host factor.
    fn solve(f: &Self::Factor, b: MatMut<'_, T>);

    /// `(log|det|, sign)` of a host factor.
    fn log_det(f: &Self::Factor) -> (T::Real, T);

    /// Scalar entries a host factor keeps resident.
    fn storage_entries(f: &Self::Factor) -> usize;

    /// Factorize the blocks `descs` of `a` in place in one batched launch.
    ///
    /// # Errors
    /// As [`FactorKind::factor`], naming the failing batch entry, or an
    /// injected launch fault.
    fn factor_batched(
        self,
        device: &Device,
        stream: Stream,
        block: Block,
        descs: &[LuDesc],
        a: &mut DeviceBuffer<T>,
        context: impl FnOnce() -> String,
    ) -> Result<Vec<Self::Meta>, HodlrError>;

    /// Solve with the factors of `a` in place in `b` in one batched launch.
    fn solve_batched(
        device: &Device,
        stream: Stream,
        descs: &[LuSolveDesc],
        a: &DeviceBuffer<T>,
        meta: &[Self::Meta],
        b: &mut DeviceBuffer<T>,
    );

    /// Gather the determinant parts of the factors `descs` of `a` in one
    /// launch and hand each factor's `(log|det|, sign)` to `add`, in order.
    fn log_det_batched(
        device: &Device,
        stream: Stream,
        descs: &[LuDesc],
        a: &DeviceBuffer<T>,
        meta: &[Self::Meta],
        add: impl FnMut(T::Real, T),
    );
}

/// Pivoted LU for every block: the general path.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Lu;

impl<T: Scalar> FactorKind<T> for Lu {
    type Factor = LuFactor<T>;
    type Meta = Vec<usize>;

    fn factor(
        self,
        _: Block,
        a: DenseMatrix<T>,
        context: impl FnOnce() -> String,
    ) -> Result<LuFactor<T>, HodlrError> {
        LuFactor::from_matrix(a).map_err(|e| e.into_hodlr(context()))
    }

    fn solve(f: &LuFactor<T>, b: MatMut<'_, T>) {
        f.solve_in_place(b);
    }

    fn log_det(f: &LuFactor<T>) -> (T::Real, T) {
        f.log_det()
    }

    fn storage_entries(f: &LuFactor<T>) -> usize {
        f.order() * f.order()
    }

    fn factor_batched(
        self,
        device: &Device,
        stream: Stream,
        _: Block,
        descs: &[LuDesc],
        a: &mut DeviceBuffer<T>,
        context: impl FnOnce() -> String,
    ) -> Result<Vec<Vec<usize>>, HodlrError> {
        getrf_batched_varied(device, stream, descs, a).map_err(|e| e.into_hodlr(context()))
    }

    fn solve_batched(
        device: &Device,
        stream: Stream,
        descs: &[LuSolveDesc],
        a: &DeviceBuffer<T>,
        pivots: &[Vec<usize>],
        b: &mut DeviceBuffer<T>,
    ) {
        getrs_batched_varied(device, stream, descs, a, pivots, b);
    }

    fn log_det_batched(
        device: &Device,
        stream: Stream,
        descs: &[LuDesc],
        a: &DeviceBuffer<T>,
        pivots: &[Vec<usize>],
        mut add: impl FnMut(T::Real, T),
    ) {
        let diags = extract_diagonals_batched(device, stream, descs, a);
        for (diag, piv) in diags.iter().zip(pivots) {
            let (la, s) = log_det_from_parts(diag.iter().copied(), piv);
            add(la, s);
        }
    }
}

/// The Hermitian fast path for a symmetric [`Symmetry`]: leaf diagonal
/// blocks under [`Symmetry::leaf_policy`], coupling matrices always through
/// the fallback ladder.  The ladder rung of each factor stays host-side,
/// exactly as LU pivots do.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Symmetric(Symmetry);

impl Symmetric {
    /// The symmetric kind for `symmetry`; [`HodlrError::InvalidConfig`]
    /// for [`Symmetry::General`], which selects the [`Lu`] path.
    pub(crate) fn new(symmetry: Symmetry) -> Result<Self, HodlrError> {
        if !symmetry.is_symmetric() {
            return Err(HodlrError::config(
                "the symmetric factorization requires Symmetry::PositiveDefinite or \
                 Symmetry::Hermitian; use the LU path (factorize_serial / GpuSolver) for \
                 Symmetry::General",
            ));
        }
        Ok(Symmetric(symmetry))
    }

    pub(crate) fn symmetry(self) -> Symmetry {
        self.0
    }

    fn policy(self, block: Block) -> SymmetricPolicy {
        match block {
            Block::Leaf => self.0.leaf_policy(),
            // K is Hermitian indefinite by construction: always the ladder.
            Block::Coupling => SymmetricPolicy::Fallback,
        }
    }
}

impl<T: Scalar> FactorKind<T> for Symmetric {
    type Factor = SymmetricFactor<T>;
    type Meta = SymmetricKind;

    fn factor(
        self,
        block: Block,
        a: DenseMatrix<T>,
        context: impl FnOnce() -> String,
    ) -> Result<SymmetricFactor<T>, HodlrError> {
        SymmetricFactor::from_matrix(a, self.policy(block)).map_err(|e| e.into_hodlr(context()))
    }

    fn solve(f: &SymmetricFactor<T>, b: MatMut<'_, T>) {
        f.solve_in_place(b);
    }

    fn log_det(f: &SymmetricFactor<T>) -> (T::Real, T) {
        f.log_det()
    }

    fn storage_entries(f: &SymmetricFactor<T>) -> usize {
        f.storage_entries()
    }

    fn factor_batched(
        self,
        device: &Device,
        stream: Stream,
        block: Block,
        descs: &[LuDesc],
        a: &mut DeviceBuffer<T>,
        context: impl FnOnce() -> String,
    ) -> Result<Vec<SymmetricKind>, HodlrError> {
        potrf_batched_varied(device, stream, descs, self.policy(block), a)
            .map_err(|e| e.into_hodlr(context()))
    }

    fn solve_batched(
        device: &Device,
        stream: Stream,
        descs: &[LuSolveDesc],
        a: &DeviceBuffer<T>,
        kinds: &[SymmetricKind],
        b: &mut DeviceBuffer<T>,
    ) {
        potrs_batched_varied(device, stream, descs, a, kinds, b);
    }

    fn log_det_batched(
        device: &Device,
        stream: Stream,
        descs: &[LuDesc],
        a: &DeviceBuffer<T>,
        kinds: &[SymmetricKind],
        mut add: impl FnMut(T::Real, T),
    ) {
        let parts = extract_tridiagonals_batched(device, stream, descs, a);
        for ((diag, sub), kind) in parts.iter().zip(kinds) {
            let (la, s) = sym_log_det_from_parts(kind, diag, sub);
            add(la, s);
        }
    }
}

impl<T: Scalar> HodlrMatrix<T> {
    /// Factorize the matrix with Algorithm 1 (sequential) and pivoted LU.
    ///
    /// # Errors
    /// Returns [`HodlrError::SingularPivot`] naming the leaf diagonal block
    /// or coupling matrix that is numerically singular (the invertibility
    /// assumptions of Theorem 1).
    pub fn factorize_serial(&self) -> Result<SerialFactorization<T>, HodlrError> {
        SerialSolver::factorize(self, Lu)
    }

    /// Factorize a Hermitian matrix with the symmetric variant of
    /// Algorithm 1 (sequential).
    ///
    /// The caller asserts the matrix is Hermitian-valued; the symmetric
    /// kernels read only the lower triangles of the small blocks, so a
    /// non-Hermitian input silently factorizes its "Hermitian part".
    /// Matrices built with
    /// [`build_from_source_symmetric`](crate::builder::build_from_source_symmetric)
    /// or [`from_parts_symmetric`](HodlrMatrix::from_parts_symmetric) are
    /// Hermitian by construction.
    ///
    /// # Errors
    /// * [`HodlrError::InvalidConfig`] if `symmetry` is
    ///   [`Symmetry::General`] (use
    ///   [`factorize_serial`](HodlrMatrix::factorize_serial) instead);
    /// * [`HodlrError::NotPositiveDefinite`] if `symmetry` is
    ///   [`Symmetry::PositiveDefinite`] and a leaf Cholesky pivot fails,
    ///   naming the offending leaf and pivot;
    /// * [`HodlrError::SingularPivot`] if even the Bunch-Kaufman rung of the
    ///   fallback ladder hits a numerically singular pivot.
    pub fn factorize_symmetric(
        &self,
        symmetry: Symmetry,
    ) -> Result<SerialSymmetricFactorization<T>, HodlrError> {
        SerialSolver::factorize(self, Symmetric::new(symmetry)?)
    }
}

impl<T: Scalar> SerialSymmetricFactorization<T> {
    /// The [`Symmetry`] the factorization was requested with.
    pub fn symmetry(&self) -> Symmetry {
        self.kind.symmetry()
    }

    /// Which factorization rung each leaf diagonal block landed on, in leaf
    /// order (all [`SymmetricKind::Llt`] for an SPD matrix).
    pub fn leaf_kinds(&self) -> Vec<&SymmetricKind> {
        self.diag.iter().map(|f| f.kind()).collect()
    }
}

impl<'d, T: Scalar> GpuSolver<'d, T> {
    /// Upload a HODLR matrix to the device.  The transferred bytes are
    /// metered by the device counters (the paper reports using ~12 GB/s of
    /// the PCIe link for this copy).  The solver keeps a clone of `device`,
    /// so it may outlive the borrow.
    pub fn new(device: &Device, matrix: &HodlrMatrix<T>) -> Self {
        BatchedSolver::upload(device, matrix, Lu)
    }
}

impl<'d, T: Scalar> GpuSymmetricSolver<'d, T> {
    /// Upload a Hermitian HODLR matrix to the device.
    ///
    /// The caller asserts the matrix is Hermitian-valued (matrices from
    /// [`build_from_source_symmetric`](crate::builder::build_from_source_symmetric)
    /// or
    /// [`from_parts_symmetric`](crate::matrix::HodlrMatrix::from_parts_symmetric)
    /// are, by construction).
    ///
    /// # Errors
    /// [`HodlrError::InvalidConfig`] if `symmetry` is [`Symmetry::General`]
    /// — use [`GpuSolver`] for unsymmetric matrices.
    pub fn new(
        device: &Device,
        matrix: &HodlrMatrix<T>,
        symmetry: Symmetry,
    ) -> Result<Self, HodlrError> {
        Ok(BatchedSolver::upload(
            device,
            matrix,
            Symmetric::new(symmetry)?,
        ))
    }

    /// The [`Symmetry`] the solver was created with.
    pub fn symmetry(&self) -> Symmetry {
        self.kind.symmetry()
    }

    /// Which factorization rung each leaf diagonal block landed on, in leaf
    /// order (empty before [`factorize`](BatchedSolver::factorize)).
    pub fn leaf_kinds(&self) -> &[SymmetricKind] {
        &self.diag_meta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{random_hodlr_spd, HodlrMatrix};
    use hodlr_la::{Complex64, LuFactor, RealScalar};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_spd<T: Scalar>(n: usize, levels: usize, rank: usize, seed: u64, tol: f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m: HodlrMatrix<T> = random_hodlr_spd(&mut rng, n, levels, rank);
        let f = m.factorize_symmetric(Symmetry::PositiveDefinite).unwrap();
        // Every leaf of an SPD matrix is SPD: strict Cholesky must succeed.
        assert!(f.leaf_kinds().iter().all(|k| **k == SymmetricKind::Llt));
        let b: Vec<T> = hodlr_la::random::random_vector(&mut rng, n);
        let x = f.solve(&b);
        assert!(
            m.relative_residual(&x, &b).to_f64() < tol,
            "residual too large"
        );
        // Agreement with the general (LU) serial path.
        let x_lu = m.factorize_serial().unwrap().solve(&b);
        for (a, r) in x.iter().zip(x_lu.iter()) {
            assert!((*a - *r).abs().to_f64() < tol);
        }
    }

    #[test]
    fn spd_solves_match_lu_path() {
        check_spd::<f64>(64, 3, 3, 71, 1e-9);
        check_spd::<f64>(101, 3, 2, 72, 1e-9);
        check_spd::<Complex64>(48, 2, 2, 73, 1e-9);
    }

    #[test]
    fn log_det_matches_dense_and_has_positive_sign() {
        let mut rng = StdRng::seed_from_u64(74);
        let m: HodlrMatrix<f64> = random_hodlr_spd(&mut rng, 64, 3, 2);
        let dense = m.to_dense();
        let f = m.factorize_symmetric(Symmetry::PositiveDefinite).unwrap();
        let (log_abs, sign) = f.log_det();
        let dense_lu = LuFactor::new(&dense).unwrap();
        let (ref_log, ref_sign) = dense_lu.log_det();
        assert!(
            (log_abs - ref_log).abs() < 1e-8 * ref_log.abs().max(1.0),
            "{log_abs} vs {ref_log}"
        );
        assert!((sign - ref_sign).abs() < 1e-8);
        assert!(sign > 0.0, "SPD determinant must be positive");
    }

    #[test]
    fn log_det_complex_hermitian() {
        let mut rng = StdRng::seed_from_u64(75);
        let m: HodlrMatrix<Complex64> = random_hodlr_spd(&mut rng, 48, 2, 2);
        let dense = m.to_dense();
        let f = m.factorize_symmetric(Symmetry::Hermitian).unwrap();
        let (log_abs, sign) = f.log_det();
        let dense_lu = LuFactor::new(&dense).unwrap();
        let (ref_log, ref_sign) = dense_lu.log_det();
        assert!((log_abs - ref_log).abs() < 1e-8 * ref_log.abs().max(1.0));
        assert!((sign - ref_sign).abs().to_f64() < 1e-8);
    }

    #[test]
    fn general_symmetry_is_rejected() {
        let mut rng = StdRng::seed_from_u64(76);
        let m: HodlrMatrix<f64> = random_hodlr_spd(&mut rng, 16, 1, 1);
        let err = m.factorize_symmetric(Symmetry::General).unwrap_err();
        assert!(matches!(err, HodlrError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn indefinite_leaf_errors_strictly_but_falls_back_for_hermitian() {
        let mut rng = StdRng::seed_from_u64(77);
        let m: HodlrMatrix<f64> = random_hodlr_spd(&mut rng, 32, 1, 1);
        // Flip a diagonal entry of leaf 1 far negative: still Hermitian,
        // but no longer positive definite.
        let mut diag: Vec<_> = m.diag_blocks().to_vec();
        let sz = diag[1].rows();
        diag[1][(sz / 2, sz / 2)] = -1e6;
        let indef = HodlrMatrix::from_parts_symmetric(
            m.tree().clone(),
            m.layout().clone(),
            (0..=m.tree().num_nodes()).map(|_| 1).collect(),
            m.ubig().clone(),
            diag,
        )
        .unwrap();

        let err = indef
            .factorize_symmetric(Symmetry::PositiveDefinite)
            .unwrap_err();
        match &err {
            HodlrError::NotPositiveDefinite { context } => {
                assert!(context.contains("leaf 1"), "{context}");
            }
            other => panic!("expected NotPositiveDefinite, got {other}"),
        }

        // The Hermitian policy walks the fallback ladder and still solves.
        let f = indef.factorize_symmetric(Symmetry::Hermitian).unwrap();
        assert!(f.leaf_kinds().iter().any(|k| **k != SymmetricKind::Llt));
        let b: Vec<f64> = hodlr_la::random::random_vector(&mut rng, 32);
        let x = f.solve(&b);
        assert!(indef.relative_residual(&x, &b) < 1e-8);
        // log_det sign must come out negative (one negative eigenvalue
        // direction dominates the flipped pivot).
        let dense_lu = LuFactor::new(&indef.to_dense()).unwrap();
        let (ref_log, ref_sign) = dense_lu.log_det();
        let (log_abs, sign) = f.log_det();
        assert!((log_abs - ref_log).abs() < 1e-8 * ref_log.abs().max(1.0));
        assert!((sign - ref_sign).abs() < 1e-8);
    }

    #[test]
    fn multiple_right_hand_sides_match_dense() {
        let mut rng = StdRng::seed_from_u64(78);
        let m: HodlrMatrix<f64> = random_hodlr_spd(&mut rng, 48, 2, 3);
        let dense = m.to_dense();
        let f = m.factorize_symmetric(Symmetry::PositiveDefinite).unwrap();
        let b: DenseMatrix<f64> = hodlr_la::random::random_matrix(&mut rng, 48, 5);
        let x = f.solve_matrix(&b);
        for j in 0..5 {
            let xj_ref = hodlr_la::lu::solve_dense(&dense, b.col(j)).unwrap();
            for i in 0..48 {
                assert!((x[(i, j)] - xj_ref[i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn symmetric_factorization_stores_less_than_lu() {
        let mut rng = StdRng::seed_from_u64(79);
        let m: HodlrMatrix<f64> = random_hodlr_spd(&mut rng, 256, 4, 3);
        let sym = m.factorize_symmetric(Symmetry::PositiveDefinite).unwrap();
        let lu = m.factorize_serial().unwrap();
        // The bases dominate, but the triangular factors strictly undercut
        // LU's square ones.
        assert!(sym.storage_entries() < lu.storage_entries());
    }

    #[test]
    fn zero_level_matrix_is_a_dense_cholesky() {
        let mut rng = StdRng::seed_from_u64(80);
        let m: HodlrMatrix<f64> = random_hodlr_spd(&mut rng, 20, 0, 0);
        let f = m.factorize_symmetric(Symmetry::PositiveDefinite).unwrap();
        let b: Vec<f64> = hodlr_la::random::random_vector(&mut rng, 20);
        let x = f.solve(&b);
        assert!(m.relative_residual(&x, &b) < 1e-12);
    }

    fn check_gpu_symmetric<T: Scalar>(n: usize, levels: usize, rank: usize, seed: u64, tol: f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m: HodlrMatrix<T> = random_hodlr_spd(&mut rng, n, levels, rank);
        let device = Device::new();
        let mut gpu = GpuSymmetricSolver::new(&device, &m, Symmetry::PositiveDefinite).unwrap();
        gpu.factorize().expect("SPD HODLR is invertible");
        assert!(gpu.leaf_kinds().iter().all(|k| *k == SymmetricKind::Llt));
        let b: Vec<T> = hodlr_la::random::random_vector(&mut rng, n);
        let x = gpu.solve(&b).unwrap();
        assert!(
            m.relative_residual(&x, &b).to_f64() < tol,
            "residual {}",
            m.relative_residual(&x, &b).to_f64()
        );
        // Bitwise agreement with the serial symmetric factorization.
        let serial = m.factorize_symmetric(Symmetry::PositiveDefinite).unwrap();
        let x_serial = serial.solve(&b);
        for (a, s) in x.iter().zip(x_serial.iter()) {
            assert_eq!(a.real().to_f64().to_bits(), s.real().to_f64().to_bits());
            assert_eq!(a.imag().to_f64().to_bits(), s.imag().to_f64().to_bits());
        }
    }

    #[test]
    fn gpu_symmetric_matches_serial_bitwise_real() {
        check_gpu_symmetric::<f64>(64, 3, 3, 91, 1e-9);
        check_gpu_symmetric::<f64>(101, 3, 2, 92, 1e-9);
    }

    #[test]
    fn gpu_symmetric_matches_serial_bitwise_complex() {
        check_gpu_symmetric::<Complex64>(48, 2, 2, 93, 1e-9);
    }

    #[test]
    fn log_det_matches_serial_symmetric_bitwise() {
        fn check<T: Scalar>(n: usize, levels: usize, rank: usize, seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m: HodlrMatrix<T> = random_hodlr_spd(&mut rng, n, levels, rank);
            let serial = m.factorize_symmetric(Symmetry::PositiveDefinite).unwrap();
            let (log_serial, sign_serial) = serial.log_det();
            let device = Device::new();
            let mut gpu = GpuSymmetricSolver::new(&device, &m, Symmetry::PositiveDefinite).unwrap();
            gpu.factorize().unwrap();
            let (log_gpu, sign_gpu) = gpu.log_det().unwrap();
            assert_eq!(
                log_serial.to_f64().to_bits(),
                log_gpu.to_f64().to_bits(),
                "{log_serial:?} vs {log_gpu:?}"
            );
            assert_eq!(sign_serial, sign_gpu);
        }
        check::<f64>(64, 3, 3, 94);
        check::<f64>(101, 3, 2, 95);
        check::<Complex64>(48, 2, 2, 96);
    }

    #[test]
    fn general_symmetry_is_rejected_at_construction() {
        let mut rng = StdRng::seed_from_u64(97);
        let m: HodlrMatrix<f64> = random_hodlr_spd(&mut rng, 16, 1, 1);
        let device = Device::new();
        let err = match GpuSymmetricSolver::new(&device, &m, Symmetry::General) {
            Ok(_) => panic!("General symmetry must be rejected"),
            Err(e) => e,
        };
        assert!(matches!(err, HodlrError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn solving_before_factorizing_is_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(98);
        let m: HodlrMatrix<f64> = random_hodlr_spd(&mut rng, 32, 2, 1);
        let device = Device::new();
        let gpu = GpuSymmetricSolver::new(&device, &m, Symmetry::PositiveDefinite).unwrap();
        assert_eq!(
            gpu.solve(&vec![1.0; 32]).unwrap_err(),
            HodlrError::NotFactorized
        );
        assert_eq!(
            gpu.solve_matrix(&DenseMatrix::zeros(32, 2)).unwrap_err(),
            HodlrError::NotFactorized
        );
        assert_eq!(
            gpu.solve_block(&[vec![1.0; 32]]).unwrap_err(),
            HodlrError::NotFactorized
        );
        assert_eq!(gpu.log_det().unwrap_err(), HodlrError::NotFactorized);
    }

    #[test]
    fn indefinite_leaf_reports_not_positive_definite_with_batch_entry() {
        let mut rng = StdRng::seed_from_u64(99);
        let m: HodlrMatrix<f64> = random_hodlr_spd(&mut rng, 32, 1, 1);
        let mut diag: Vec<_> = m.diag_blocks().to_vec();
        let sz = diag[1].rows();
        diag[1][(sz / 2, sz / 2)] = -1e6;
        let indef = HodlrMatrix::from_parts_symmetric(
            m.tree().clone(),
            m.layout().clone(),
            (0..=m.tree().num_nodes()).map(|_| 1).collect(),
            m.ubig().clone(),
            diag,
        )
        .unwrap();
        let device = Device::new();
        let mut gpu = GpuSymmetricSolver::new(&device, &indef, Symmetry::PositiveDefinite).unwrap();
        let err = gpu.factorize().expect_err("second leaf is indefinite");
        match &err {
            HodlrError::NotPositiveDefinite { context } => {
                assert!(context.contains("batch entry 1"), "{context}");
            }
            other => panic!("unexpected error {other}"),
        }

        // The Hermitian symmetry falls back and solves.
        let mut gpu = GpuSymmetricSolver::new(&device, &indef, Symmetry::Hermitian).unwrap();
        gpu.factorize().unwrap();
        let b: Vec<f64> = hodlr_la::random::random_vector(&mut rng, 32);
        let x = gpu.solve(&b).unwrap();
        assert!(indef.relative_residual(&x, &b) < 1e-8);
    }

    #[test]
    fn counters_record_cholesky_flops_below_lu() {
        let mut rng = StdRng::seed_from_u64(100);
        let m: HodlrMatrix<f64> = random_hodlr_spd(&mut rng, 64, 2, 2);
        let dev_sym = Device::new();
        let mut sym = GpuSymmetricSolver::new(&dev_sym, &m, Symmetry::PositiveDefinite).unwrap();
        let before = dev_sym.counters();
        sym.factorize().unwrap();
        let sym_counters = dev_sym.counters().since(&before);

        let dev_lu = Device::new();
        let mut lu = GpuSolver::new(&dev_lu, &m);
        let before = dev_lu.counters();
        lu.factorize().unwrap();
        let lu_counters = dev_lu.counters().since(&before);

        assert!(sym_counters.flops > 0);
        assert!(
            sym_counters.flops < lu_counters.flops,
            "symmetric {} vs LU {}",
            sym_counters.flops,
            lu_counters.flops
        );
        // No host/device traffic during the factorization itself.
        assert_eq!(sym_counters.h2d_bytes, 0);
    }
}
