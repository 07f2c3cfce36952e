//! # hodlr-solver — Krylov iterative solves and iterative refinement
//!
//! The paper positions the GPU HODLR factorization not only as a fast
//! direct solver but as a *robust preconditioner* for ill-conditioned
//! boundary-integral systems (Table V(b)): factorize a loose-tolerance
//! HODLR approximation once — cheap, because the off-diagonal ranks shrink
//! with the tolerance — and amortize it over heavy solve traffic.  This
//! crate is that subsystem:
//!
//! * [`LinearOperator`] — the matrix-free operator abstraction, with
//!   implementations for [`HodlrMatrix`](hodlr_core::HodlrMatrix)
//!   (`O(N log N)` apply), dense matrices, and arbitrary
//!   [`MatrixEntrySource`](hodlr_compress::MatrixEntrySource)s via
//!   [`SourceOperator`];
//! * [`Gmres`] — restarted GMRES(m) with right preconditioning, generic
//!   over real and complex [`Scalar`](hodlr_la::Scalar)s;
//! * [`BiCgStab`] — the short-recurrence alternative;
//! * [`iterative_refinement`] — preconditioned refinement sweeps.
//!
//! A preconditioner is any [`LinearOperator`] applying `M^{-1}`.  The HODLR
//! one is the `hodlr` façade's `Factorization` (from `Hodlr::factorize`,
//! Algorithms 1–2 or 3–4): GMRES, BiCGStab and refinement take it as `m`,
//! and its batched applications are metered by the handle's device like
//! any other batched work.  The façade's `Precision::MixedRefine` and
//! `Precision::CompactLower` factor in the lower precision and refine to
//! working accuracy with [`iterative_refinement`].
//!
//! The Krylov methods solve one right-hand side per call (each RHS builds
//! its own Krylov space); multi-RHS *direct* traffic goes through the
//! blocked `solve_block` entry points of the factorizations instead.
//!
//! # Threading
//!
//! The Krylov iterations in this crate are sequential — a Krylov space is
//! a serial recurrence — but every heavy operation they invoke lands on
//! the rayon work-stealing pool: the HODLR matrix-vector product's gemms
//! and the preconditioner's factorized sweeps.  The pool size comes
//! from `HODLR_NUM_THREADS`; iteration counts, residuals, and the metered
//! [`Device`](hodlr_batch::Device) counters are identical at every thread
//! count because each parallel task computes into its own output slot in a
//! fixed order.
//!
//! ```
//! use hodlr_core::matrix::random_hodlr;
//! use hodlr_solver::Gmres;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let matrix = random_hodlr::<f64, _>(&mut rng, 128, 3, 2);
//! let b = vec![1.0; 128];
//!
//! // GMRES against the O(N log N) HODLR apply; `solve_preconditioned`
//! // takes an `M^{-1}` operator as well.
//! let out = Gmres::new().tol(1e-10).solve(&matrix, &b).unwrap();
//! assert!(out.converged);
//! assert!(matrix.relative_residual(&out.x, &b) < 1e-9);
//! ```

pub mod bicgstab;
pub mod gmres;
pub mod operator;
#[cfg(test)]
mod precond;
pub mod refine;
pub mod report;

pub use bicgstab::BiCgStab;
pub use gmres::Gmres;
pub use operator::{LinearOperator, SourceOperator};
pub use refine::{iterative_refinement, RefinementOptions};
pub use report::IterativeSolution;
