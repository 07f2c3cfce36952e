//! The [`Hodlr`] handle and its fluent [`HodlrBuilder`].
//!
//! ```
//! use hodlr::prelude::*;
//!
//! let a = DenseMatrix::from_col_major(4, 4, vec![
//!     5.0, 1.0, 0.5, 0.2,
//!     1.0, 5.0, 1.0, 0.5,
//!     0.5, 1.0, 5.0, 1.0,
//!     0.2, 0.5, 1.0, 5.0,
//! ]);
//! let hodlr = Hodlr::builder()
//!     .dense(&a)
//!     .leaf_size(2)
//!     .tolerance(1e-12)
//!     .backend(Backend::Serial)
//!     .build()
//!     .unwrap();
//! let x = hodlr.factorize().unwrap().solve(&[1.0, 2.0, 3.0, 4.0]).unwrap();
//! assert!(hodlr.relative_residual(&x, &[1.0, 2.0, 3.0, 4.0]) < 1e-10);
//! ```

use crate::compact::CompactOps;
use crate::scalar::SolveScalar;
use crate::solve::{Factorization, Factorize, Solve};
use hodlr_batch::Device;
use hodlr_compress::{CompressionConfig, CompressionMethod, DenseSource, MatrixEntrySource};
use hodlr_core::{
    build_from_source_symmetric_with, build_from_source_with, BuildOptions, GpuSolver,
    GpuSymmetricSolver, HodlrMatrix, Symmetry,
};
use hodlr_la::{norms, AllocMeter, DenseMatrix, HodlrError, RealScalar, Scalar};
use hodlr_solver::LinearOperator;
use hodlr_tree::ClusterTree;
use std::convert::Infallible;
use std::sync::Arc;

/// Which factorization backend serves this matrix.
///
/// `Hash` is derived so the pair can participate in cache keys (e.g. the
/// `hodlr-serve` factorization cache keys on backend + precision).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The level-by-level serial factorization (Algorithms 1–2), the
    /// paper's single-core baseline: the batched sweep of Algorithms 3–4
    /// on a device of the factorization's own, so the handle's device
    /// meters nothing for it and no fault plan armed there reaches it.
    Serial,
    /// The batched factorization on the virtual batched-BLAS device
    /// (Algorithms 3–4), the paper's "GPU HODLR solver", metered on the
    /// handle's device.
    Batched,
}

/// The arithmetic policy of the representation and its factorization.
///
/// Both lower-precision policies factorize in the companion lower
/// precision (`f64 -> f32`, `Complex64 -> Complex32`; half the memory and
/// flop width) on the configured [`Backend`] and [`Symmetry`], and recover
/// working-precision accuracy by iterative refinement — the paper's Table
/// IV(b) regime.  They differ in what is stored: `MixedRefine` demotes an
/// already-built working-precision matrix, while `CompactLower` never
/// builds it in the first place.  Both require an `f64`/`Complex64`
/// scalar.
///
/// Refinement improves solves, not determinants: under both, a
/// factorization's [`log_det`](crate::Solve::log_det) — and with it the
/// Gaussian-process log-likelihood that reads it — is the lower factors'
/// value, promoted, with their ~`1e-7` relative accuracy.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Store, factorize and solve in the working precision.
    Full,
    /// Store in the working precision; factorize a demoted copy and refine
    /// its solves against the working-precision matrix.
    MixedRefine,
    /// Store in the companion lower precision: compression streams
    /// straight into it, halving both the resident bytes and the assembly
    /// peak.  Matvecs promote entries on the fly and accumulate in the
    /// working precision, and [`Factorize::factorize`] wraps the
    /// lower-precision factorization in working-precision iterative
    /// refinement against that promoted operator, recovering working
    /// accuracy on solves (the `MixedRefine` recovery argument applied to
    /// the storage itself).  The compression tolerance is clamped to a few
    /// lower-precision ulps (asking `f32` storage for `1e-10` blocks would
    /// only blow the ranks chasing noise; refinement recovers the accuracy
    /// instead).
    CompactLower,
}

/// How the cluster tree over `0..n` is chosen.
#[derive(Clone, Debug)]
pub enum TreePolicy {
    /// Deepest tree whose leaves hold at least this many indices (the
    /// paper fixes 64 and lets `L = O(log N)` grow).
    LeafSize(usize),
    /// Exactly this many levels, splitting every range as evenly as
    /// possible.
    Levels(usize),
    /// An explicit tree (e.g. from
    /// [`partition_points`](hodlr_tree::partition_points), which reorders
    /// a point cloud by recursive bisection first).
    Explicit(ClusterTree),
}

enum BuilderInput<'a, T: Scalar> {
    Dense(&'a DenseMatrix<T>),
    Source(&'a dyn MatrixEntrySource<T>),
    Matrix(HodlrMatrix<T>),
}

/// Fluent configuration for [`Hodlr`]; see [`Hodlr::builder`].
pub struct HodlrBuilder<'a, T: Scalar> {
    input: Option<BuilderInput<'a, T>>,
    tree: TreePolicy,
    method: CompressionMethod,
    tol: f64,
    max_rank: Option<usize>,
    strict_rank: bool,
    backend: Backend,
    precision: Precision,
    memory_budget: Option<u64>,
    symmetry: Symmetry,
    threads: Option<usize>,
    refine_tol: f64,
    refine_max_iters: usize,
}

impl<T: Scalar> Default for HodlrBuilder<'_, T> {
    fn default() -> Self {
        HodlrBuilder {
            input: None,
            tree: TreePolicy::LeafSize(64),
            method: CompressionMethod::AcaRook,
            tol: 1e-8,
            max_rank: None,
            strict_rank: false,
            backend: Backend::Serial,
            precision: Precision::Full,
            memory_budget: None,
            symmetry: Symmetry::General,
            threads: None,
            refine_tol: 1e-12,
            refine_max_iters: 50,
        }
    }
}

impl<'a, T: Scalar> HodlrBuilder<'a, T> {
    /// Compress this lazily evaluated entry source (kernel matrix,
    /// discretized integral operator, ...); the matrix is never formed
    /// densely.
    pub fn source(mut self, source: &'a (impl MatrixEntrySource<T> + 'a)) -> Self {
        self.input = Some(BuilderInput::Source(source));
        self
    }

    /// Compress this dense matrix (tests and problems small enough to
    /// materialise).
    pub fn dense(mut self, a: &'a DenseMatrix<T>) -> Self {
        self.input = Some(BuilderInput::Dense(a));
        self
    }

    /// Adopt an already built [`HodlrMatrix`] (migration path from the
    /// low-level API); the tree policy and compression settings are
    /// ignored.
    pub fn matrix(mut self, matrix: HodlrMatrix<T>) -> Self {
        self.input = Some(BuilderInput::Matrix(matrix));
        self
    }

    /// Tree policy: deepest tree with at least this leaf size (default 64,
    /// the paper's choice).
    pub fn leaf_size(mut self, leaf_size: usize) -> Self {
        self.tree = TreePolicy::LeafSize(leaf_size);
        self
    }

    /// Tree policy: exactly this many levels.
    pub fn levels(mut self, levels: usize) -> Self {
        self.tree = TreePolicy::Levels(levels);
        self
    }

    /// Tree policy: an explicit cluster tree.
    pub fn tree(mut self, tree: ClusterTree) -> Self {
        self.tree = TreePolicy::Explicit(tree);
        self
    }

    /// Compression algorithm (default rook-pivoted ACA, the scheme of the
    /// paper's kernel benchmarks).
    pub fn method(mut self, method: CompressionMethod) -> Self {
        self.method = method;
        self
    }

    /// Relative compression tolerance (default `1e-8`).
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Hard cap on the off-diagonal rank.
    pub fn max_rank(mut self, max_rank: usize) -> Self {
        self.max_rank = Some(max_rank);
        self
    }

    /// Make the rank cap strict: hitting it before the tolerance is
    /// certified fails the build with
    /// [`HodlrError::CompressionRankOverflow`].
    pub fn strict_rank(mut self) -> Self {
        self.strict_rank = true;
        self
    }

    /// Factorization backend (default [`Backend::Serial`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Precision policy (default [`Precision::Full`]).
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Fail the build with a typed [`HodlrError::BudgetExceeded`] the
    /// moment the metered live bytes of the assembly (retained factors,
    /// flattened bases, leaf blocks, compression scratch) would cross
    /// `bytes`.
    ///
    /// The budget covers construction only — factorization and solves are
    /// governed by the representation this build produced.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Declared symmetry structure (default [`Symmetry::General`]).
    ///
    /// [`Symmetry::PositiveDefinite`] and [`Symmetry::Hermitian`] switch
    /// both construction and factorization to the symmetric fast path: the
    /// two off-diagonal blocks of every sibling pair share one low-rank
    /// factor (one compression instead of two, half the basis storage), and
    /// the factorization replaces every LU with a Cholesky-family
    /// factorization at half the flops.  Under
    /// [`Symmetry::PositiveDefinite`] a failed Cholesky pivot surfaces as
    /// the typed [`HodlrError::NotPositiveDefinite`]; under
    /// [`Symmetry::Hermitian`] it falls back to `LDL^*` and then
    /// Bunch-Kaufman instead.
    ///
    /// The caller asserts the input is Hermitian-valued: only its lower
    /// off-diagonal blocks are read, and the upper ones are taken to be
    /// their conjugate transposes.
    pub fn symmetry(mut self, symmetry: Symmetry) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// Run construction, factorization and solves on a dedicated
    /// work-stealing pool with this many participants instead of the
    /// global pool (which honours `HODLR_NUM_THREADS`).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Target relative residual of the refinement sweeps behind
    /// [`Precision::MixedRefine`] and [`Precision::CompactLower`] (default
    /// `1e-12`).
    pub fn refine_tolerance(mut self, tol: f64) -> Self {
        self.refine_tol = tol;
        self
    }

    /// Sweep cap of the refinement behind [`Precision::MixedRefine`] and
    /// [`Precision::CompactLower`] (default 50).
    pub fn refine_max_iters(mut self, max_iters: usize) -> Self {
        self.refine_max_iters = max_iters;
        self
    }

    /// Compress `source` into a HODLR matrix of its own scalar `S` with this
    /// builder's compression method, rank cap and symmetry (shared bases
    /// for a symmetric structure), its tolerance raised to at least
    /// `floor`.
    pub(crate) fn compress<S: Scalar>(
        &self,
        source: &(dyn MatrixEntrySource<S> + '_),
        tree: ClusterTree,
        floor: f64,
        options: BuildOptions<'_>,
    ) -> Result<HodlrMatrix<S>, HodlrError> {
        // Validate before the clamp, which would turn a zero, negative or
        // NaN tolerance into the floor.
        CompressionConfig::with_tol(self.tol).validate()?;
        let tol = S::Real::from_f64_real(self.tol.max(floor));
        let mut config = CompressionConfig::with_tol(tol).method(self.method);
        if let Some(cap) = self.max_rank {
            config = config.max_rank(cap);
        }
        if self.strict_rank {
            config = config.strict_rank();
        }
        if self.symmetry.is_symmetric() {
            build_from_source_symmetric_with(source, tree, &config, options)
        } else {
            build_from_source_with(source, tree, &config, options)
        }
    }
}

impl<'a, T: SolveScalar> HodlrBuilder<'a, T> {
    /// Build the HODLR approximation.
    ///
    /// Construction streams level by level from the input — only the
    /// compression scratch and the retained factors are ever resident —
    /// and is metered throughout; the peak is available afterwards as
    /// [`Hodlr::build_peak_bytes`].
    ///
    /// # Errors
    /// [`HodlrError::InvalidConfig`] for a missing input, a zero-size
    /// problem, a non-positive tolerance, a zero leaf size or thread
    /// count, a level count deeper than the index set, a lower
    /// [`Precision`] with a single-precision scalar, or
    /// [`Precision::CompactLower`] with an adopted matrix;
    /// [`HodlrError::DimensionMismatch`] for a non-square input or a tree
    /// that does not match it; [`HodlrError::BudgetExceeded`] when a
    /// [`memory_budget`](HodlrBuilder::memory_budget) is crossed;
    /// compression errors (e.g. [`HodlrError::CompressionRankOverflow`]
    /// under a strict rank cap) propagate.
    pub fn build(mut self) -> Result<Hodlr<T>, HodlrError> {
        let input = self.input.take().ok_or_else(|| {
            HodlrError::config(
                "no input given: call .source(..), .dense(..) or .matrix(..) before .build()",
            )
        })?;
        let n = match &input {
            BuilderInput::Dense(a) => a.rows(),
            BuilderInput::Source(s) => s.nrows(),
            BuilderInput::Matrix(m) => m.n(),
        };
        if n == 0 {
            return Err(HodlrError::config(
                "cannot build a HODLR matrix over a zero-size tree",
            ));
        }

        if self.refine_tol <= 0.0 || !self.refine_tol.is_finite() {
            return Err(HodlrError::config(format!(
                "refinement tolerance must be positive and finite, got {:e}",
                self.refine_tol
            )));
        }
        if self.refine_max_iters == 0 {
            return Err(HodlrError::config(
                "refinement sweep cap must be at least 1",
            ));
        }
        let compact = self.precision == Precision::CompactLower;

        let pool = match self.threads {
            None => None,
            Some(0) => {
                return Err(HodlrError::config("thread count must be at least 1"));
            }
            Some(t) => Some(Arc::new(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .map_err(|e| HodlrError::config(format!("cannot build thread pool: {e}")))?,
            )),
        };

        // Every build is metered: the peak is cheap to track and the scale
        // benchmarks report it as the measured assembly footprint.
        let meter = AllocMeter::new();
        let options = BuildOptions {
            meter: Some(&meter),
            budget_bytes: self.memory_budget,
        };

        // One store from an entry source, built on the handle's pool.
        let from_source = |source: &dyn MatrixEntrySource<T>| {
            let tree = match &self.tree {
                TreePolicy::LeafSize(0) => {
                    return Err(HodlrError::config("leaf size must be at least 1"));
                }
                TreePolicy::LeafSize(s) => ClusterTree::with_leaf_size(n, *s),
                TreePolicy::Levels(l) => {
                    // The shift below is UB-guarded: l >= usize::BITS can
                    // never fit n >= 2^l indices either.
                    if *l >= usize::BITS as usize || n < (1usize << l) {
                        return Err(HodlrError::config(format!(
                            "cannot build {l} levels over {n} indices: a leaf would be empty"
                        )));
                    }
                    ClusterTree::uniform(n, *l)
                }
                TreePolicy::Explicit(t) => {
                    HodlrError::check_dims("explicit tree vs input", n, t.n())?;
                    t.clone()
                }
            };
            let build = || {
                Ok(if compact {
                    Store::Compact(T::build_compact(&self, source, tree, options)?)
                } else {
                    Store::Full(Arc::new(self.compress(source, tree, 0.0, options)?))
                })
            };
            match &pool {
                Some(pool) => pool.install(build),
                None => build(),
            }
        };

        let store = match input {
            BuilderInput::Matrix(m) => {
                if compact {
                    return Err(HodlrError::config(
                        ".matrix(..) adopts prebuilt working-precision storage; build from \
                         .source(..) or .dense(..) to use Precision::CompactLower",
                    ));
                }
                if let Some(budget) = self.memory_budget {
                    let resident = m.storage_bytes();
                    if resident > budget {
                        return Err(HodlrError::BudgetExceeded {
                            budget_bytes: budget,
                            needed_bytes: resident,
                            context: "adopted HodlrMatrix".to_string(),
                        });
                    }
                }
                Store::Full(Arc::new(m))
            }
            BuilderInput::Dense(a) => {
                HodlrError::check_dims(
                    "dense input (HODLR matrices are square)",
                    a.rows(),
                    a.cols(),
                )?;
                from_source(&DenseSource::new(a))?
            }
            BuilderInput::Source(s) => from_source(s)?,
        };

        Ok(Hodlr {
            store,
            backend: self.backend,
            precision: self.precision,
            symmetry: self.symmetry,
            device: Device::new(),
            pool,
            refine_tol: self.refine_tol,
            refine_max_iters: self.refine_max_iters,
            build_peak_bytes: meter.peak_bytes(),
        })
    }
}

/// The representation behind a [`Hodlr`] handle: either the
/// working-precision flattened matrix, or a compact lower-precision store
/// applied through on-the-fly promotion.  Clones share it.
#[derive(Clone)]
pub(crate) enum Store<T: Scalar> {
    Full(Arc<HodlrMatrix<T>>),
    Compact(Arc<dyn CompactOps<T>>),
}

impl<T: Scalar> Store<T> {
    /// The cluster tree of the stored matrix.
    fn tree(&self) -> &ClusterTree {
        match self {
            Store::Full(m) => m.tree(),
            Store::Compact(c) => c.tree(),
        }
    }

    /// `y = A x`, or `y = A^H x` when `adjoint`: `hodlr-core`'s one walk
    /// over the stored matrix, its blocks promoted when they are stored in
    /// the lower precision.  Every product of the handle runs it.
    fn apply_into(&self, adjoint: bool, x: &[T], y: &mut [T]) {
        match self {
            Store::Full(m) => m.apply_into(adjoint, x, y),
            Store::Compact(c) => c.apply_into(adjoint, x, y),
        }
    }
}

/// The stored representation as a working-precision operator: the
/// residual side of the lower-precision policies' refinement.
impl<T: Scalar> LinearOperator<T> for Store<T> {
    fn dim(&self) -> usize {
        self.tree().n()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        self.apply_into(false, x, y);
    }
}

/// A HODLR approximation plus its backend configuration: the one front
/// door of the workspace.
///
/// Built with [`Hodlr::builder`]; factorized through the
/// [`Factorize`] trait; solved through the [`Solve`] trait.
/// The handle owns a virtual batched device, so its launch/flop counters
/// meter every [`Backend::Batched`] factorization made from it.  It shares
/// what a factorization needs — a clone of that device, the dedicated
/// thread pool and the stored representation — with every
/// [`Factorization`] it produces, so a factorization may outlive it.
pub struct Hodlr<T: Scalar> {
    pub(crate) store: Store<T>,
    backend: Backend,
    precision: Precision,
    symmetry: Symmetry,
    device: Device,
    pool: Option<Arc<rayon::ThreadPool>>,
    refine_tol: f64,
    refine_max_iters: usize,
    build_peak_bytes: u64,
}

impl<T: Scalar> Hodlr<T> {
    /// Start configuring a HODLR approximation.
    ///
    /// ```
    /// use hodlr::prelude::*;
    ///
    /// let source = ClosureSource::new(64, 64, |i, j| {
    ///     1.0 / (1.0 + (i as f64 - j as f64).abs()) + if i == j { 3.0 } else { 0.0 }
    /// });
    /// let hodlr = Hodlr::builder()
    ///     .source(&source)
    ///     .leaf_size(16)
    ///     .tolerance(1e-10)
    ///     .method(CompressionMethod::AcaRook)
    ///     .backend(Backend::Batched)
    ///     .precision(Precision::Full)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(hodlr.n(), 64);
    /// assert!(hodlr.max_rank() < 16);
    /// ```
    pub fn builder<'a>() -> HodlrBuilder<'a, T> {
        HodlrBuilder::default()
    }

    /// The underlying flattened HODLR matrix, when this handle stores one
    /// in the working precision; `None` for [`Precision::CompactLower`]
    /// handles, whose storage lives in the companion lower precision.
    pub fn matrix(&self) -> Option<&HodlrMatrix<T>> {
        match &self.store {
            Store::Full(m) => Some(m),
            Store::Compact(_) => None,
        }
    }

    /// Consume the handle, returning the working-precision matrix
    /// (migration path to the low-level API; a copy of its leaf blocks,
    /// sharing its bases, while a [`Precision::MixedRefine`] factorization
    /// still shares it); `None` for compact handles.
    pub fn into_matrix(self) -> Option<HodlrMatrix<T>> {
        match self.store {
            Store::Full(m) => Some(Arc::unwrap_or_clone(m)),
            Store::Compact(_) => None,
        }
    }

    /// Resident bytes of the stored representation (bases + leaf blocks,
    /// in whichever precision they live in).
    pub fn storage_bytes(&self) -> u64 {
        match &self.store {
            Store::Full(m) => m.storage_bytes(),
            Store::Compact(c) => c.storage_bytes(),
        }
    }

    /// Measured peak live bytes of the assembly (factors, flattened bases,
    /// leaf blocks and compression scratch), from the meter every build
    /// runs under.  Zero for handles that adopted a prebuilt matrix.
    pub fn build_peak_bytes(&self) -> u64 {
        self.build_peak_bytes
    }

    /// The configured backend.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// The configured precision policy; [`Precision::CompactLower`] exactly
    /// when the representation is stored in the lower precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The declared symmetry structure.
    pub fn symmetry(&self) -> Symmetry {
        self.symmetry
    }

    /// The virtual batched device this handle owns (its counters meter all
    /// [`Backend::Batched`] work done through this handle and the
    /// factorizations made from it).
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Matrix size `N`.
    pub fn n(&self) -> usize {
        self.store.dim()
    }

    /// Number of tree levels.
    pub fn levels(&self) -> usize {
        self.store.tree().levels()
    }

    /// Maximum off-diagonal rank.
    pub fn max_rank(&self) -> usize {
        match &self.store {
            Store::Full(m) => m.max_rank(),
            Store::Compact(c) => c.max_rank(),
        }
    }

    /// Storage in GiB.
    pub fn memory_gib(&self) -> f64 {
        self.storage_bytes() as f64 / (1u64 << 30) as f64
    }

    /// `y = A x` in `O(N log N)`.
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::zero(); self.n()];
        self.matvec_into(x, &mut y);
        y
    }

    /// `y = A x` into a caller-owned buffer (no per-call allocation).
    pub fn matvec_into(&self, x: &[T], y: &mut [T]) {
        self.run_in_pool(|| self.store.apply_into(false, x, y))
    }

    /// `y = A^H x` in `O(N log N)`.
    pub fn matvec_adjoint(&self, x: &[T]) -> Vec<T> {
        let mut y = vec![T::zero(); self.n()];
        self.matvec_adjoint_into(x, &mut y);
        y
    }

    /// `y = A^H x` into a caller-owned buffer (no per-call allocation).
    pub fn matvec_adjoint_into(&self, x: &[T], y: &mut [T]) {
        self.run_in_pool(|| self.store.apply_into(true, x, y))
    }

    /// `Y = A X` for a block of vectors, column by column.
    pub fn matmat(&self, x: &DenseMatrix<T>) -> DenseMatrix<T> {
        assert_eq!(x.rows(), self.n(), "matmat: block has the wrong row count");
        let mut y = DenseMatrix::zeros(self.n(), x.cols());
        self.run_in_pool(|| {
            for j in 0..x.cols() {
                self.store.apply_into(false, x.col(j), y.col_mut(j));
            }
        });
        y
    }

    /// Relative residual `||b - A x|| / ||b||` of a candidate solution.
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

    /// Hager/Higham estimate of `‖A‖₁` (a handful of `O(N log N)`
    /// matvec/adjoint-matvec pairs) — the operator-norm side of the
    /// verification layer's scaled residual.
    pub fn norm1_est(&self) -> f64 {
        let apply = |adjoint| {
            move |x: &mut [T]| -> Result<(), Infallible> {
                let mut y = vec![T::zero(); x.len()];
                self.store.apply_into(adjoint, x, &mut y);
                x.copy_from_slice(&y);
                Ok(())
            }
        };
        self.run_in_pool(|| {
            let Ok(est) = hodlr_la::one_norm_est(self.n(), &mut apply(false), &mut apply(true));
            est
        })
    }

    /// Verify a candidate solution `x` of `A x = b` against this operator
    /// using `solver` for the condition estimate: one matvec for the
    /// scaled residual `‖Ax−b‖₂ / (‖A‖₁ᵉˢᵗ‖x‖₂)`, then
    /// [`Solve::verify_solution`] for the verdict.  `norm1_est` is
    /// recomputed per call; callers in a solve loop should cache it (as
    /// `hodlr-serve`'s cache entries do) and use
    /// [`verify::scaled_residual`](crate::verify::scaled_residual)
    /// directly.
    ///
    /// # Panics
    /// Panics if `x` or `b` has the wrong length.
    pub fn verify_solve(
        &self,
        solver: &(impl Solve<T> + ?Sized),
        x: &[T],
        b: &[T],
        cfg: &crate::VerifyConfig,
    ) -> crate::SolveVerdict {
        assert_eq!(b.len(), self.n(), "verify_solve: b has the wrong length");
        self.run_in_pool(|| {
            let norm1 = self.norm1_est();
            let residual = crate::scaled_residual(&self.matvec(x), x, b, norm1);
            solver.verify_solution(x, residual, norm1, cfg)
        })
    }

    /// Factorize `matrix`, stored in this handle's scalar or in its lower
    /// companion, on the handle's backend under its declared symmetry: the
    /// one factor path of every factorization the handle makes.  Call it
    /// inside the handle's pool; the batched upload's copies are pool
    /// tasks too.
    pub(crate) fn factorize_matrix<S: Scalar>(
        &self,
        matrix: &HodlrMatrix<S>,
    ) -> Result<Box<dyn Solve<S> + Send + Sync>, HodlrError> {
        let symmetry = self.symmetry;
        Ok(match (self.backend, symmetry.is_symmetric()) {
            (Backend::Serial, false) => Box::new(matrix.factorize_serial()?),
            (Backend::Serial, true) => Box::new(matrix.factorize_symmetric(symmetry)?),
            (Backend::Batched, false) => {
                let mut solver = GpuSolver::new(&self.device, matrix);
                solver.factorize()?;
                Box::new(solver)
            }
            (Backend::Batched, true) => {
                let mut solver = GpuSymmetricSolver::new(&self.device, matrix, symmetry)?;
                solver.factorize()?;
                Box::new(solver)
            }
        })
    }

    pub(crate) fn refine_tol(&self) -> f64 {
        self.refine_tol
    }

    pub(crate) fn refine_max_iters(&self) -> usize {
        self.refine_max_iters
    }

    fn run_in_pool<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.pool {
            Some(pool) => pool.install(f),
            None => f(),
        }
    }
}

/// The façade is itself a [`LinearOperator`]: Krylov methods and the
/// spectral subsystem (`hodlr-spectral`) consume it directly, with every
/// apply routed through the handle's dedicated thread pool so the
/// workspace determinism contract holds at any thread count.
impl<T: Scalar> LinearOperator<T> for Hodlr<T> {
    fn dim(&self) -> usize {
        self.n()
    }

    fn apply(&self, x: &[T], y: &mut [T]) {
        self.matvec_into(x, y);
    }

    fn apply_to_block(&self, x: &DenseMatrix<T>) -> DenseMatrix<T> {
        self.matmat(x)
    }
}

impl<T: SolveScalar> Factorize<T> for Hodlr<T> {
    /// Factorize with the configured backend, symmetry and precision
    /// policy: the lower-precision policies factorize their lower-precision
    /// matrix and refine against the stored operator.
    fn factorize(&self) -> Result<Factorization<T>, HodlrError> {
        let inner = self.run_in_pool(|| match &self.store {
            Store::Compact(c) => c.factorize(self),
            Store::Full(m) if self.precision == Precision::MixedRefine => {
                T::mixed_factorization(self, m)
            }
            Store::Full(m) => self.factorize_matrix(m),
        })?;
        Ok(Factorization {
            inner,
            backend: self.backend,
            precision: self.precision,
            pool: self.pool.clone(),
        })
    }
}
