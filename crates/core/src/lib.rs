//! # hodlr-core — HODLR matrices and their factorization
//!
//! This crate implements the primary contribution of Chen & Martinsson,
//! *"Solving Linear Systems on a GPU with Hierarchically Off-Diagonal
//! Low-Rank Approximations"* (SC 2022):
//!
//! * the **flattened data structure** for HODLR matrices where all left and
//!   right low-rank bases are concatenated into two big matrices
//!   `Ubig` / `Vbig`, all leaf diagonal blocks into `Dbig`, and all
//!   Schur-complement coefficient matrices into per-level `Kbig` blocks
//!   (Figs. 3–4 of the paper) — see [`HodlrMatrix`] and [`LevelLayout`];
//! * the **recursive solver** of Section III-A (Theorem 1), used as the
//!   correctness oracle — see [`recursive`];
//! * the **non-recursive level-by-level factorization and solve**
//!   (Algorithms 1–2), the "serial HODLR solver" of the evaluation — see
//!   [`SerialSolver`];
//! * the **batched factorization and solve** (Algorithms 3–4) running on the
//!   virtual batched-BLAS device of `hodlr-batch`, the "GPU HODLR solver" of
//!   the evaluation — see [`BatchedSolver`];
//! * the **factor kind** both sweeps are generic over: pivoted LU or the
//!   symmetric fast path for Hermitian matrices — see [`FactorKind`] and
//!   [`symmetric`];
//! * the **complexity model** of Theorems 2–4 (storage, factorization cost,
//!   solve cost) used to cross-check the metered flop counters — see
//!   [`report`].
//!
//! Construction of the HODLR approximation itself (compressing every sibling
//! off-diagonal block) lives in [`builder`], on top of `hodlr-compress`.
//!
//! # Where this crate parallelizes
//!
//! [`builder`] compresses the two off-diagonal blocks of every sibling pair
//! and densifies every leaf diagonal block as independent tasks on the
//! rayon work-stealing pool (`HODLR_NUM_THREADS` participants).  The
//! batched solver ([`BatchedSolver`]) inherits parallelism from
//! `hodlr-batch`, whose kernels shard their batch entries across the same
//! pool, and its blocked multi-RHS entry point
//! [`BatchedSolver::solve_block`] scatters and gathers the right-hand-side
//! columns in parallel too.  The serial solver ([`SerialSolver`]) runs the
//! nodes of each tree level as pool tasks on their own row windows, through
//! scratch copies only while those stay within a quarter of the matrix (see
//! [`serial`]); the dense kernels inside each node inherit `hodlr-la`'s tile
//! parallelism (gemms above its direct-call threshold run tile-parallel on
//! the pool).  Every parallel path writes each task's
//! output to a task-private slot and runs each task's arithmetic
//! sequentially inside, so factorizations and solves are bitwise
//! reproducible at any thread count.

pub mod builder;
pub mod gpu;
pub mod layout;
pub mod matrix;
pub mod recursive;
pub mod report;
pub mod serial;
pub mod symmetric;

pub use builder::{
    build_from_dense, build_from_dense_symmetric, build_from_source, build_from_source_symmetric,
    build_from_source_symmetric_with, build_from_source_with, BlockSource, BuildOptions,
    DemotedSource,
};
pub use gpu::{BatchedSolver, GpuSolver, GpuSymmetricSolver};
pub use layout::LevelLayout;
pub use matrix::HodlrMatrix;
pub use recursive::solve_recursive;
pub use report::{ComplexityReport, CostModel};
pub use serial::{SerialFactorization, SerialSolver, SerialSymmetricFactorization};
pub use symmetric::{FactorKind, Symmetry};
