//! # hodlr-la — dense linear-algebra substrate
//!
//! A small, self-contained dense linear-algebra library used by every other
//! crate in the `hodlr-rs` workspace.  It provides:
//!
//! * a [`Scalar`] abstraction over `f32`, `f64`, [`Complex32`] and
//!   [`Complex64`] so that every solver in the workspace is generic
//!   over real and complex fields (the paper solves both Laplace — real — and
//!   Helmholtz — complex — boundary integral equations);
//! * a column-major [`DenseMatrix`] with borrowed strided views
//!   ([`MatRef`]/[`MatMut`]) so that sub-blocks of the big concatenated
//!   `Ubig`/`Vbig`/`Dbig` matrices can be addressed without copies;
//! * level-3 BLAS style kernels ([`gemm`], triangular solves) with
//!   cache blocking and optional rayon parallelism;
//! * level-2 kernels over a list of columns ([`columns`]): the per-cross
//!   arithmetic of adaptive cross approximation, spread over the pool;
//! * LAPACK-style factorizations: LU with partial pivoting ([`lu`]),
//!   symmetric Cholesky / LDL^H / Bunch-Kaufman ([`cholesky`]),
//!   Householder QR and column-pivoted QR ([`qr`]), and a one-sided Jacobi
//!   SVD ([`svd`]) used for low-rank recompression.
//!
//! Everything is written from scratch: no external BLAS, LAPACK or GPU
//! libraries are used anywhere in the workspace.

pub mod bidiag;
pub mod blas;
pub mod cholesky;
pub mod columns;
pub mod complex;
pub mod condition;
pub mod demote;
pub mod dense;
pub mod error;
pub mod evd;
mod isa;
pub mod lu;
pub mod meter;
pub mod norms;
pub mod qr;
pub mod random;
pub mod scalar;
pub mod svd;
pub mod triangular;

pub use bidiag::{bidiagonalize, golub_kahan_svd, Bidiagonal};
pub use blas::{gemm, gemv, Op};
pub use cholesky::{
    sym_log_det_from_parts, BkPivot, SymmetricError, SymmetricFactor, SymmetricKind,
    SymmetricPolicy,
};
pub use complex::Complex;
pub use condition::one_norm_est;
pub use demote::{demote_dense, DemoteScalar};
pub use dense::{DenseMatrix, MatMut, MatRef};
pub use error::HodlrError;
pub use evd::{steqr, symmetric_evd, tridiagonalize, SymmetricEvd, Tridiagonal};
pub use isa::isa_level;
pub use lu::{log_det_from_parts, LuFactor};
pub use meter::AllocMeter;
pub use scalar::{RealScalar, Scalar};

/// Single-precision complex number.
pub type Complex32 = Complex<f32>;
/// Double-precision complex number.
pub type Complex64 = Complex<f64>;
