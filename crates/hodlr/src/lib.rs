//! # hodlr — the unified façade of the hodlr-rs workspace
//!
//! The workspace implements Chen & Martinsson, *"Solving Linear Systems on
//! a GPU with Hierarchically Off-Diagonal Low-Rank Approximations"*
//! (SC 2022), as a stack of focused crates (`hodlr-la`, `hodlr-compress`,
//! `hodlr-core`, `hodlr-batch`, `hodlr-solver`, ...).  This crate is the one
//! front door: the paper's pitch is that *one* flattened HODLR
//! representation serves every downstream consumer — serial factorization,
//! batched "GPU" factorization, and Krylov preconditioning — so the public
//! API should let callers pick a backend by *value*, not by hunting down a
//! struct in the right crate.
//!
//! * [`Hodlr::builder`] — a fluent builder: entry source or dense input,
//!   tree policy, compression method/tolerance/rank cap, backend
//!   ([`Backend::Serial`] or [`Backend::Batched`]), precision policy
//!   ([`Precision::Full`], [`Precision::MixedRefine`] or
//!   [`Precision::CompactLower`]), thread count.
//!   Returns `Result<Hodlr<T>, HodlrError>` — no panicking entry points.
//! * [`Factorize`] — anything that can produce a [`Factorization`].
//! * [`Solve`] — backend-agnostic solving: single right-hand side,
//!   blocked multi-RHS, and in-place variants, each returning
//!   `Result<_, HodlrError>`.  Implemented by
//!   [`SerialFactorization`](hodlr_core::SerialFactorization) (Algorithms
//!   1–2), [`GpuSolver`](hodlr_core::GpuSolver) (Algorithms 3–4 on the
//!   virtual batched device), and the [`IterativeSolver`] adapter wrapping
//!   GMRES / BiCGStab with a HODLR preconditioner.
//! * [`HodlrError`] — the workspace-wide typed error enum (dimension
//!   mismatch, singular pivot, compression rank overflow, non-convergence
//!   with an iteration report, invalid configuration).
//! * [`prelude`] — one import for applications.
//!
//! ```
//! use hodlr::prelude::*;
//!
//! // A smooth kernel matrix given by a closure — never formed densely.
//! let n = 256;
//! let source = ClosureSource::new(n, n, move |i, j| {
//!     let d = (i as f64 - j as f64).abs() / n as f64;
//!     1.0 / (1.0 + 8.0 * d) + if i == j { 4.0 } else { 0.0 }
//! });
//!
//! let hodlr = Hodlr::builder()
//!     .source(&source)
//!     .leaf_size(32)
//!     .tolerance(1e-10)
//!     .backend(Backend::Batched)
//!     .build()
//!     .unwrap();
//!
//! let factorization = hodlr.factorize().unwrap();
//! let b = vec![1.0; n];
//! let x = factorization.solve(&b).unwrap();
//! assert!(hodlr.relative_residual(&x, &b) < 1e-8);
//! ```

pub mod build;
mod compact;
pub mod iterative;
pub mod scalar;
pub mod solve;
pub mod verify;

pub use build::{Backend, Hodlr, HodlrBuilder, Precision, TreePolicy};
pub use iterative::{IterativeSolver, KrylovMethod};
pub use scalar::SolveScalar;
pub use solve::{Factorization, Factorize, Solve};
pub use verify::{scaled_residual, SolveVerdict, VerifyConfig};

pub use hodlr_core::Symmetry;
pub use hodlr_la::HodlrError;

/// Everything an application needs, in one import.
///
/// ```
/// use hodlr::prelude::*;
///
/// let a = DenseMatrix::from_col_major(2, 2, vec![4.0, 1.0, 1.0, 3.0]);
/// let hodlr = Hodlr::builder().dense(&a).build().unwrap();
/// let x = hodlr.factorize().unwrap().solve(&[1.0, 0.0]).unwrap();
/// assert!((a.matvec(&x)[0] - 1.0).abs() < 1e-12);
/// ```
pub mod prelude {
    pub use crate::build::{Backend, Hodlr, HodlrBuilder, Precision, TreePolicy};
    pub use crate::iterative::{IterativeSolver, KrylovMethod};
    pub use crate::scalar::SolveScalar;
    pub use crate::solve::{Factorization, Factorize, Solve};
    pub use crate::verify::{SolveVerdict, VerifyConfig};
    pub use hodlr_batch::Device;
    pub use hodlr_compress::{
        ClosureSource, CompressionConfig, CompressionMethod, DenseSource, MatrixEntrySource,
    };
    pub use hodlr_core::{
        GpuSolver, GpuSymmetricSolver, HodlrMatrix, SerialFactorization,
        SerialSymmetricFactorization, Symmetry,
    };
    pub use hodlr_kernels::{
        ExponentialKernel, GaussianKernel, MaternKernel, RpyKernel, RpyMatrixSource, ScalarKernel,
        ScalarKernelSource,
    };
    pub use hodlr_la::{Complex32, Complex64, DenseMatrix, HodlrError, RealScalar, Scalar};
    pub use hodlr_solver::{
        BiCgStab, Gmres, IterativeSolution, LinearOperator, RefinementOptions, SourceOperator,
    };
    pub use hodlr_tree::{
        partition_points, uniform_cube_points, ClusterTree, PointCloud, PointPartition,
    };
    pub use rand::rngs::StdRng;
    pub use rand::{Rng, SeedableRng};
}
