//! # hodlr-batch — a virtual batched-BLAS device
//!
//! The paper's GPU solver is built on four cuBLAS primitives: `gemmBatched`,
//! `gemmStridedBatched`, `getrfBatched` and `getrsBatched`.  This crate
//! provides a **virtual device** with the same API surface, executed on the
//! CPU with rayon data parallelism:
//!
//! * [`Device`] — owns the counters (kernel launches, flops, transferred
//!   bytes) and the PCIe bandwidth model used to regenerate the Flop/s and
//!   transfer figures of the paper;
//! * [`DeviceBuffer`] — "device memory": an allocation that can only be
//!   filled and read back through explicit host-to-device / device-to-host
//!   copies, which are metered;
//! * [`Stream`] — a labelled launch queue.  On the virtual device streams
//!   only affect bookkeeping (the paper launches independent gemms on
//!   separate CUDA streams at the top tree levels);
//! * batched kernels in [`gemm`] and [`lu`], in both the *uniform* flavour
//!   (all problems in the batch share one shape, the `gemmStridedBatched`
//!   fast path) and the *varied* flavour (per-problem descriptors, the
//!   pointer-array `gemmBatched` path), mirroring the two code paths of the
//!   paper's Section III-C.
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
//! the rayon work-stealing pool ([`windows::process_windows_mut`] proves the
//! output windows disjoint first); `HODLR_NUM_THREADS` controls the pool
//! size and [`Device::sequential`] forces a kernel's entries onto the
//! calling thread regardless.  Every [`Device`] counter is an atomic, so
//! entries executing on different workers meter their work without locking,
//! and — because each entry's flop count is a pure function of its shape —
//! the counter totals are **identical at every thread count**:
//!
//! ```
//! use hodlr_batch::Device;
//! use rayon::prelude::*;
//!
//! let device = Device::new();
//! // Eight tasks on the worker pool record into the same counters
//! // concurrently, as batched kernels do during a factorization.
//! (0..8usize).into_par_iter().for_each(|stream| {
//!     device.record_launch("gemm_batched", 4, 1_000, stream);
//! });
//! let counters = device.counters();
//! assert_eq!(counters.kernel_launches, 8);
//! assert_eq!(counters.batch_entries, 32);
//! assert_eq!(counters.flops, 8_000);
//! ```

pub mod buffer;
pub mod cholesky;
pub mod device;
pub mod fault;
pub mod gemm;
pub mod lu;
pub mod slices;
pub mod stream;
pub mod windows;

pub use buffer::DeviceBuffer;
pub use cholesky::{
    extract_tridiagonals_batched, potrf_batched_varied, potrs_batched_varied, BatchSymmetricError,
    SymBatchError,
};
pub use device::{CounterSnapshot, Device, TransferDirection};
pub use fault::{FaultAction, FaultEvent, FaultPlan, LaunchFault};
pub use gemm::{gemm_batched_aliased, gemm_batched_varied, gemm_strided_batched, GemmDesc};
pub use lu::{
    extract_diagonals_batched, getrf_batched_varied, getrf_strided_batched, getrs_batched_varied,
    getrs_strided_batched, BatchSingularError, LuBatchError, LuDesc, LuSolveDesc,
};
pub use stream::{Stream, StreamPool};
pub use windows::{process_windows_mut, MatWindow};
