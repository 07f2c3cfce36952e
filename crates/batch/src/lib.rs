//! # hodlr-batch — a virtual batched-BLAS device
//!
//! The paper's GPU solver maps Algorithms 3–4 onto a few batched cuBLAS
//! primitives over pointer arrays: `gemmBatched`, `getrfBatched` and
//! `getrsBatched` (Section III-C).  This crate provides a **virtual
//! device** with those launches, in the pointer-array (per-problem
//! descriptor) form, executed on the CPU with rayon data parallelism:
//!
//! * [`Device`] — a cheap handle to the counters (kernel launches, flops,
//!   transferred bytes), the launch log and the armed fault plan, all
//!   shared by its clones.  Every launch makes one [`Device::launch`] call,
//!   which meters it and consults the fault plan together;
//! * [`DeviceBuffer`] — "device memory": an allocation that can only be
//!   filled and read back through explicit host-to-device / device-to-host
//!   copies, which are metered; and its read-only form [`SharedBuffer`],
//!   which reads a host matrix in place, metered as its upload.  A launch
//!   reads either through [`DeviceRead`];
//! * [`Stream`] — a labelled launch queue.  On the virtual device streams
//!   only affect bookkeeping (the paper launches independent gemms on
//!   separate CUDA streams at the top tree levels);
//! * batched launches on per-problem descriptors: [`gemm_batched_varied`]
//!   and its in-place form [`gemm_batched_aliased`] in [`gemm`], and in
//!   [`factor`] one in-place factor launch, one solve launch and one band
//!   gather, each running a dense kernel its caller supplies.  The HODLR
//!   sweep supplies LU kernels (launch labels `getrf_batched`,
//!   `getrs_batched`, `extract_diagonals_batched`) or symmetric ones
//!   (`potrf_batched`, `potrs_batched`, `extract_tridiagonals_batched`),
//!   so this crate knows nothing of either.  A descriptor batch covers
//!   both of the paper's Section III-C code paths: one shape at every
//!   entry, where `gemmStridedBatched` would serve, and ranks that vary
//!   within a level.
//!
//! The substitution (real GPU → virtual device) is documented in
//! ARCHITECTURE.md, section "The virtual device (`hodlr-batch`)":
//! the paper's contribution is the *mapping* of the HODLR factorization onto
//! large batched kernels, and that mapping — launch counts, batch sizes, flop
//! counts, memory traffic — is preserved exactly here; only the absolute
//! wall-clock constants differ.
//!
//! # Threading and metering under concurrency
//!
//! A batched kernel is *one* launch whose batch entries are sharded across
//! the rayon work-stealing pool, after the output windows are proven
//! disjoint; `HODLR_NUM_THREADS` controls the pool size and
//! [`Device::sequential`] forces a kernel's entries onto the calling thread
//! regardless.  Outputs that are row blocks of one matrix (rows `I_alpha`
//! of `Ybig` or of a right-hand-side block) run through task scratch while
//! it stays within a quarter of the buffer or below 512 KiB, and one window
//! at a time in place otherwise, so one bound decides for every kernel.  Every [`Device`] counter is an atomic, so
//! entries executing on different workers meter their work without locking,
//! and — because each entry's flop count is a pure function of its shape —
//! the counter totals are **identical at every thread count**:
//!
//! ```
//! use hodlr_batch::{Device, Stream};
//! use rayon::prelude::*;
//!
//! let device = Device::new();
//! // Eight tasks on the worker pool record into the same counters
//! // concurrently, as batched kernels do during a factorization.
//! (0..8usize).into_par_iter().for_each(|stream| {
//!     let poison = device.launch("gemm_batched", Stream::with_id(stream), 4, 1_000);
//!     assert_eq!(poison, Ok(false)); // no fault plan is armed
//! });
//! let counters = device.counters();
//! assert_eq!(counters.kernel_launches, 8);
//! assert_eq!(counters.batch_entries, 32);
//! assert_eq!(counters.flops, 8_000);
//! ```

pub mod buffer;
pub mod device;
pub mod factor;
pub mod fault;
pub mod gemm;
pub mod slices;
pub mod stream;
mod windows;

// Test-only: the launches of `factor` with `hodlr-la`'s LU and symmetric
// kernels.
mod cholesky;
mod lu;

pub use buffer::{DeviceBuffer, DeviceRead, SharedBuffer};
pub use device::{scalar_flop_factor, CounterSnapshot, Device, TransferDirection};
pub use factor::{
    factor_batched_varied, gather_bands_batched, solve_batched_varied, FactorDesc, FactorError,
    SolveDesc,
};
pub use fault::{FaultAction, FaultEvent, FaultPlan, LaunchFault};
pub use gemm::{gemm_batched_aliased, gemm_batched_varied, GemmDesc};
pub use stream::{Stream, StreamPool};
