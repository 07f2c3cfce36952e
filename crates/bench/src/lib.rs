//! # hodlr-bench — harnesses that regenerate the paper's evaluation
//!
//! | Binary | What it measures |
//! |---|---|
//! | `paper` | the paper's evaluation in one sweep ([`paper`]): Tables III–V, the fitted exponents of Figs. 5 and 7, the speedups of Fig. 8, the GFLOP/s of Fig. 9 and the appendix rank profiles, over the RPY kernel (Section IV-A), Laplace BIE (IV-B) and Helmholtz BIE (IV-C) workloads |
//! | `iterative` | Table V(b) extension: preconditioned GMRES/BiCGStab/mixed-precision over all three workloads |
//! | `kernels` | (infrastructure) gemm/LU/QR GFLOP/s by size, scalar and thread count vs the naive reference kernel |
//! | `gp` | Section III-E(a) application: GP log-marginal likelihood (solve + product-form `log_det`) by kernel family, backend and tolerance, vs the dense Cholesky oracle |
//! | `serve` | (serving subsystem) cache hit-rate, coalescing, latency and fault recovery under a seeded multi-tenant load |
//! | `spectral` | (spectral subsystem) dense EVD/SVD kernel accuracy, HODLR-accelerated Lanczos eigenpairs and the SLQ log-determinant vs the product form, with 1/2/8-thread bitwise-determinism verdicts |
//! | `scale` | (scale-out) streaming, memory-budgeted assembly at `n >= 10^5` in 2-D and 3-D |
//!
//! `paper` and `iterative` accept `--full` to run the paper's original
//! problem sizes (hours on a laptop; the defaults are scaled down so a
//! sweep finishes in seconds), `--sizes 4096,8192,...` to override the
//! sweep explicitly and `--baseline-cap K`; a malformed argument exits
//! with status 2 before anything runs ([`parse_args`]).  The other
//! binaries take `--smoke` for their seconds-scale CI sweep.  The paper's
//! tables print the same row layout as the paper — `N`, factorization
//! time `t_f`, solve time `t_s`, memory `mem`, relative residual `relres`
//! per solver — so paper-vs-measured comparisons are line-by-line.
//!
//! The wall-clock columns are measured on the virtual batched-BLAS device of
//! `hodlr-batch`; absolute numbers therefore reflect CPU execution, while
//! the *shape* — scaling slopes, memory footprints, residuals, who wins and
//! where the crossovers are among the CPU solvers — is what reproduces the
//! paper (see ARCHITECTURE.md, section "The virtual device (`hodlr-batch`)",
//! for the substitution argument).
//!
//! Every row records the rayon pool size in a `threads` column (set
//! `HODLR_NUM_THREADS` to sweep it), and every binary additionally emits a
//! machine-readable `BENCH_<name>.json` (see [`json`]; override the path
//! with `HODLR_BENCH_JSON`) so successive PRs accumulate a comparable perf
//! trajectory.  The `kernels` binary (`--smoke` for the CI-sized sweep) is
//! the dense-kernel trajectory: gemm/LU/QR GFLOP/s, blocked-vs-reference
//! speedup, and bitwise-determinism verdicts across 1/2/8-thread pools.

pub mod gp;
pub mod harness;
pub mod iterative;
pub mod json;
pub mod kernels;
pub mod paper;
pub mod scale;
pub mod serve;
pub mod spectral;
pub mod workloads;

pub use gp::{print_gp_table, run_gp_bench, GpBenchConfig, GpRow};
pub use harness::{measure_solvers, print_table, MeasureConfig, SolverRow};
pub use iterative::{
    measure_block_direct, measure_iterative, print_iterative_table, IterativeConfig, IterativeRow,
};
pub use json::write_bench_json;
pub use kernels::{print_kernel_table, run_kernel_bench, KernelBenchConfig, KernelRow};
pub use paper::{print_paper_report, run_paper_bench, PaperMatrix};
pub use scale::{print_scale_table, run_scale_bench, ScaleBenchConfig, ScaleRow};
pub use serve::{print_serve_table, run_serve_bench, ServeBenchConfig, ServeRow};
pub use spectral::{print_spectral_table, run_spectral_bench, SpectralBenchConfig, SpectralRow};
pub use workloads::{helmholtz_hodlr, laplace_hodlr, parse_args, rpy_hodlr, SweepArgs};
