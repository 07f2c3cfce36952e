//! LU versus symmetric: the factor kind of Algorithms 1–4.
//!
//! The level sweep is written once, batched in [`crate::gpu`]; the serial
//! backend ([`crate::serial`]) runs it on a device of its own.  Every place
//! where the general and the Hermitian path differ is an item of the
//! [`FactorKind`] strategy, and nowhere else: `hodlr-batch`'s factor,
//! solve and band-gather launches are kind-agnostic, and the kind supplies
//! the dense kernels they run on each leaf diagonal block or coupling
//! matrix, their launch labels and per-block flops, the determinant fold,
//! the [`HodlrError`] a rejected block becomes, and how many entries a
//! factor counts as stored.  [`Lu`] is the pivoted-LU path
//! (`getrf_batched` / `getrs_batched` / `extract_diagonals_batched`);
//! [`Symmetric`] is the Hermitian fast path (`potrf_batched` /
//! `potrs_batched` / `extract_tridiagonals_batched`).
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
//! The symmetric factors are held square, like LU's, but count as the
//! `m(m+1)/2` entries of their lower triangle, which is all a solve reads:
//! [`BatchedSolver::storage_entries`] reports that count on both backends,
//! and a cache layer budgets factorizations by it.

use crate::gpu::{BatchedSolver, GpuSolver, GpuSymmetricSolver};
use crate::matrix::HodlrMatrix;
use crate::serial::{SerialFactorization, SerialSolver, SerialSymmetricFactorization};
use hodlr_batch::{
    factor_batched_varied, gather_bands_batched, scalar_flop_factor, solve_batched_varied, Device,
    DeviceBuffer, FactorDesc, FactorError, SolveDesc, Stream,
};
use hodlr_la::cholesky::{factorize_symmetric_in_place, solve_symmetric_in_place};
use hodlr_la::lu::{getrf_in_place, getrs_in_place, SingularError};
use hodlr_la::{
    log_det_from_parts, sym_log_det_from_parts, HodlrError, MatMut, MatRef, Scalar, SymmetricError,
    SymmetricKind, SymmetricPolicy,
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

/// How the sweep factorizes the leaf diagonal blocks and coupling
/// matrices, solves with the factors, and folds them into the
/// log-determinant: the dense kernels, launch labels and flops a kind
/// hands to `hodlr-batch`'s kind-agnostic factor, solve and band-gather
/// launches, and the [`HodlrError`] each dense failure becomes.
///
/// Implemented by [`Lu`] and [`Symmetric`] only.
pub trait FactorKind<T: Scalar>: sealed::Sealed + Copy + Debug + Send + Sync {
    /// Host-side metadata of one batched factor: the LU pivots, or the
    /// ladder rung of a symmetric factor.
    type Meta: Clone + Debug + Send + Sync;

    /// Why the dense kernel could not factorize a block.
    type Error: Send;

    /// Label of the factor launch.
    const FACTOR: &'static str;
    /// Label of the solve launch.
    const SOLVE: &'static str;
    /// Label of the launch gathering the determinant parts.
    const GATHER: &'static str;

    /// Diagonals of a factor its determinant reads: the main diagonal, and
    /// for the symmetric kind the first subdiagonal too.
    const BANDS: usize;

    /// Scalar entries an order-`m` factor counts as stored: `m^2` for LU,
    /// `m(m+1)/2` (the lower triangle) for the symmetric kind.
    fn factor_entries(m: usize) -> usize;

    /// Flops the device meters for factorizing one order-`n` block.
    fn factor_flops(n: usize) -> u64;

    /// Factorize one `block` in place: the factor launch's dense kernel.
    ///
    /// # Errors
    /// The dense kernel's error for a block it cannot factorize.
    fn factor(self, block: Block, a: MatMut<'_, T>) -> Result<Self::Meta, Self::Error>;

    /// Solve in place in `b` with one factor: the solve launch's kernel.
    fn solve(f: MatRef<'_, T>, meta: &Self::Meta, b: MatMut<'_, T>);

    /// `(log|det|, sign)` of one factor from its gathered `bands`.
    fn log_det(meta: &Self::Meta, bands: &[Vec<T>]) -> (T::Real, T);

    /// The [`HodlrError`] for batch entry `entry`, named by `context`,
    /// whose block the dense kernel rejected with `error`.
    fn entry_error(error: Self::Error, entry: usize, context: String) -> HodlrError;

    /// Factorize the blocks `descs` of `a` in place in one batched launch;
    /// `context` names the failing batch entry, or the launch as a whole
    /// (`None`) when the launch itself failed.
    ///
    /// # Errors
    /// The block is singular, or (for a strict symmetric leaf) not
    /// positive definite; or an injected launch fault.
    fn factor_batched(
        self,
        device: &Device,
        stream: Stream,
        block: Block,
        descs: &[FactorDesc],
        a: &mut DeviceBuffer<T>,
        context: impl FnOnce(Option<usize>) -> String,
    ) -> Result<Vec<Self::Meta>, HodlrError> {
        let flops = Self::factor_flops;
        factor_batched_varied(device, stream, Self::FACTOR, descs, a, flops, |f| {
            self.factor(block, f)
        })
        .map_err(|e| match e {
            FactorError::Entry { entry, error } => {
                Self::entry_error(error, entry, context(Some(entry)))
            }
            FactorError::Fault(fault) => fault.into_hodlr(context(None)),
        })
    }

    /// Solve with the factors of `a` in place in `b` in one batched launch.
    fn solve_batched(
        device: &Device,
        stream: Stream,
        descs: &[SolveDesc],
        a: &DeviceBuffer<T>,
        meta: &[Self::Meta],
        b: &mut DeviceBuffer<T>,
    ) {
        solve_batched_varied(device, stream, Self::SOLVE, descs, a, b, |i, f, x| {
            Self::solve(f, &meta[i], x)
        });
    }

    /// Gather the determinant parts of the factors `descs` of `a` in one
    /// launch and hand each factor's `(log|det|, sign)` to `add`, in order.
    fn log_det_batched(
        device: &Device,
        stream: Stream,
        descs: &[FactorDesc],
        a: &DeviceBuffer<T>,
        meta: &[Self::Meta],
        mut add: impl FnMut(T::Real, T),
    ) {
        let bands = gather_bands_batched(device, stream, Self::GATHER, descs, Self::BANDS, a);
        for (bands, meta) in bands.iter().zip(meta) {
            let (la, s) = Self::log_det(meta, bands);
            add(la, s);
        }
    }
}

/// Pivoted LU for every block: the general path.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Lu;

impl<T: Scalar> FactorKind<T> for Lu {
    type Meta = Vec<usize>;
    type Error = SingularError;
    const FACTOR: &'static str = "getrf_batched";
    const SOLVE: &'static str = "getrs_batched";
    const GATHER: &'static str = "extract_diagonals_batched";
    const BANDS: usize = 1;

    fn factor_entries(m: usize) -> usize {
        m * m
    }

    /// `2n^3/3`.
    fn factor_flops(n: usize) -> u64 {
        let n = n as u64;
        scalar_flop_factor::<T>() * 2 * n * n * n / 3
    }

    fn factor(self, _: Block, a: MatMut<'_, T>) -> Result<Vec<usize>, SingularError> {
        getrf_in_place(a)
    }

    fn solve(f: MatRef<'_, T>, pivots: &Vec<usize>, b: MatMut<'_, T>) {
        getrs_in_place(f, pivots, b);
    }

    fn log_det(pivots: &Vec<usize>, bands: &[Vec<T>]) -> (T::Real, T) {
        log_det_from_parts(bands[0].iter().copied(), pivots)
    }

    fn entry_error(error: SingularError, entry: usize, context: String) -> HodlrError {
        HodlrError::SingularPivot {
            context,
            pivot: error.pivot,
            batch_index: Some(entry),
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
    type Meta = SymmetricKind;
    type Error = SymmetricError;
    const FACTOR: &'static str = "potrf_batched";
    const SOLVE: &'static str = "potrs_batched";
    const GATHER: &'static str = "extract_tridiagonals_batched";
    const BANDS: usize = 2;

    fn factor_entries(m: usize) -> usize {
        m * (m + 1) / 2
    }

    /// `n^3/3`, half of LU's.
    fn factor_flops(n: usize) -> u64 {
        let n = n as u64;
        scalar_flop_factor::<T>() * n * n * n / 3
    }

    fn factor(self, block: Block, a: MatMut<'_, T>) -> Result<SymmetricKind, SymmetricError> {
        factorize_symmetric_in_place(a, self.policy(block))
    }

    fn solve(f: MatRef<'_, T>, kind: &SymmetricKind, b: MatMut<'_, T>) {
        solve_symmetric_in_place(f, kind, b);
    }

    fn log_det(kind: &SymmetricKind, bands: &[Vec<T>]) -> (T::Real, T) {
        sym_log_det_from_parts(kind, &bands[0], &bands[1])
    }

    fn entry_error(error: SymmetricError, entry: usize, context: String) -> HodlrError {
        match error {
            SymmetricError::NotPositiveDefinite { pivot } => HodlrError::NotPositiveDefinite {
                context: format!("{context} (batch entry {entry}, Cholesky pivot {pivot})"),
            },
            SymmetricError::Singular { pivot } => HodlrError::SingularPivot {
                context,
                pivot,
                batch_index: Some(entry),
            },
        }
    }
}

impl<T: Scalar> HodlrMatrix<T> {
    /// Factorize the matrix with pivoted LU: the batched sweep of
    /// Algorithm 3 on a device of the factorization's own, so nothing is
    /// metered on a caller's device.
    ///
    /// # Errors
    /// Returns [`HodlrError::SingularPivot`] naming the leaf diagonal block
    /// or coupling matrix that is numerically singular (the invertibility
    /// assumptions of Theorem 1).
    pub fn factorize_serial(&self) -> Result<SerialFactorization<T>, HodlrError> {
        SerialSolver::factorize(self, Lu)
    }

    /// Factorize a Hermitian matrix with the symmetric variant of
    /// Algorithm 3, on a device of the factorization's own.
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
        self.batched().symmetry()
    }

    /// Which factorization rung each leaf diagonal block landed on, in leaf
    /// order (all [`SymmetricKind::Llt`] for an SPD matrix).
    pub fn leaf_kinds(&self) -> Vec<&SymmetricKind> {
        self.batched().leaf_kinds().iter().collect()
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
    use hodlr_la::{Complex64, DenseMatrix, LuFactor, RealScalar};
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
