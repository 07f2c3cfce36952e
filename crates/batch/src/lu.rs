//! Batched LU factorization and solve (`getrfBatched` / `getrsBatched`).
//!
//! The factorization is performed in place (the `L` and `U` factors
//! overwrite the input block, exactly as cuBLAS does) and the pivot indices
//! are returned to the host.  The solve overwrites the right-hand sides with
//! the solution.  Both take per-problem descriptors, so one launch covers
//! blocks of different orders (the pointer-array `getrfBatched` /
//! `getrsBatched` path).

use crate::buffer::DeviceBuffer;
use crate::device::Device;
use crate::fault::{poison_span, FaultAction, LaunchFault};
use crate::gemm::scalar_flop_factor;
use crate::stream::Stream;
use crate::windows::{process_windows_mut, MatWindow};
use hodlr_la::lu::{getrf_in_place, getrs_in_place, SingularError};
use hodlr_la::{MatRef, Scalar};
use parking_lot::Mutex;
use std::fmt;

/// Descriptor of one square block to factorize in place — by the LU
/// kernels here and the symmetric ones in [`crate::cholesky`] alike.
#[derive(Copy, Clone, Debug)]
pub struct LuDesc {
    /// Order of the block.
    pub n: usize,
    /// Element offset of the block in the buffer.
    pub offset: usize,
    /// Leading dimension of the block as stored.
    pub ld: usize,
}

impl LuDesc {
    pub(crate) fn span(&self) -> usize {
        if self.n == 0 {
            0
        } else {
            self.ld * (self.n - 1) + self.n
        }
    }

    fn flops<T: Scalar>(&self) -> u64 {
        let n = self.n as u64;
        scalar_flop_factor::<T>() * 2 * n * n * n / 3
    }
}

/// Descriptor of one solve `A X = B` with precomputed factors (LU or
/// symmetric).
#[derive(Copy, Clone, Debug)]
pub struct LuSolveDesc {
    /// Order of the factorized block.
    pub n: usize,
    /// Number of right-hand sides.
    pub nrhs: usize,
    /// Element offset of the LU factors in the factor buffer.
    pub a_offset: usize,
    /// Leading dimension of the factors.
    pub lda: usize,
    /// Element offset of the right-hand sides in the RHS buffer.
    pub b_offset: usize,
    /// Leading dimension of the right-hand sides.
    pub ldb: usize,
}

impl LuSolveDesc {
    pub(crate) fn a_span(&self) -> usize {
        if self.n == 0 {
            0
        } else {
            self.lda * (self.n - 1) + self.n
        }
    }

    pub(crate) fn b_span(&self) -> usize {
        if self.n == 0 || self.nrhs == 0 {
            0
        } else {
            self.ldb * (self.nrhs - 1) + self.n
        }
    }

    pub(crate) fn flops<T: Scalar>(&self) -> u64 {
        scalar_flop_factor::<T>() * 2 * (self.n as u64) * (self.n as u64) * self.nrhs as u64
    }
}

/// A singular diagonal block encountered while factorizing a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSingularError {
    /// Which batch entry failed.
    pub batch_index: usize,
    /// The underlying dense-LU error.
    pub inner: SingularError,
}

impl fmt::Display for BatchSingularError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "batch entry {}: {}", self.batch_index, self.inner)
    }
}

impl std::error::Error for BatchSingularError {}

impl From<BatchSingularError> for hodlr_la::HodlrError {
    fn from(e: BatchSingularError) -> Self {
        hodlr_la::HodlrError::SingularPivot {
            context: "batched block".to_string(),
            pivot: e.inner.pivot,
            batch_index: Some(e.batch_index),
        }
    }
}

impl BatchSingularError {
    /// Promote to a [`HodlrError`](hodlr_la::HodlrError) naming the failing
    /// batch (e.g. `"leaf diagonal block"`, `"coupling matrix at level 2"`).
    pub fn into_hodlr(self, context: impl Into<String>) -> hodlr_la::HodlrError {
        hodlr_la::HodlrError::SingularPivot {
            context: context.into(),
            pivot: self.inner.pivot,
            batch_index: Some(self.batch_index),
        }
    }
}

/// How a batched LU factorization can fail: a genuinely singular block, or
/// an injected launch fault from an armed [`FaultPlan`](crate::FaultPlan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LuBatchError {
    /// A batch entry's block is singular.
    Singular(BatchSingularError),
    /// The launch itself was made to fail by fault injection.
    Fault(LaunchFault),
}

impl fmt::Display for LuBatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LuBatchError::Singular(e) => e.fmt(f),
            LuBatchError::Fault(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for LuBatchError {}

impl From<BatchSingularError> for LuBatchError {
    fn from(e: BatchSingularError) -> Self {
        LuBatchError::Singular(e)
    }
}

impl From<LuBatchError> for hodlr_la::HodlrError {
    fn from(e: LuBatchError) -> Self {
        e.into_hodlr("batched block")
    }
}

impl LuBatchError {
    /// Promote to a [`HodlrError`](hodlr_la::HodlrError) naming the failing
    /// batch, preserving whichever failure kind occurred.
    pub fn into_hodlr(self, context: impl Into<String>) -> hodlr_la::HodlrError {
        match self {
            LuBatchError::Singular(e) => e.into_hodlr(context),
            LuBatchError::Fault(e) => e.into_hodlr(context),
        }
    }

    /// The batch entry whose block failed; `None` for a failed launch.
    pub fn batch_index(&self) -> Option<usize> {
        match self {
            LuBatchError::Singular(e) => Some(e.batch_index),
            LuBatchError::Fault(_) => None,
        }
    }

    /// The singular-block failure, if that is what this error is.
    pub fn singular(self) -> Option<BatchSingularError> {
        match self {
            LuBatchError::Singular(e) => Some(e),
            LuBatchError::Fault(_) => None,
        }
    }
}

/// Factorize every block described by `descs` in place and return one pivot
/// vector per block (`getrfBatched`).
///
/// # Errors
/// Returns the index of the first batch entry whose block is singular, or
/// a [`LaunchFault`] when an armed fault plan fails this launch.
///
/// # Panics
/// Panics if blocks overlap or reach past the end of the buffer.
pub fn getrf_batched_varied<T: Scalar>(
    device: &Device,
    stream: Stream,
    descs: &[LuDesc],
    a: &mut DeviceBuffer<T>,
) -> Result<Vec<Vec<usize>>, LuBatchError> {
    if descs.is_empty() {
        return Ok(Vec::new());
    }
    for d in descs {
        assert!(
            d.offset + d.span() <= a.len(),
            "getrf_batched: block out of bounds"
        );
    }
    let flops: u64 = descs.iter().map(|d| d.flops::<T>()).sum();
    device.record_launch("getrf_batched", descs.len(), flops, stream.id());
    let mut poison = false;
    match device.take_launch_fault("getrf_batched") {
        Some((FaultAction::FailLaunch, launch)) => {
            return Err(LuBatchError::Fault(LaunchFault {
                kernel: "getrf_batched",
                launch,
            }))
        }
        Some((FaultAction::PoisonNan, _)) => poison = true,
        Some((FaultAction::Delay { micros }, _)) => {
            std::thread::sleep(std::time::Duration::from_micros(micros))
        }
        None => {}
    }

    let windows: Vec<MatWindow> = descs
        .iter()
        .map(|d| MatWindow {
            offset: d.offset,
            rows: d.n,
            cols: d.n,
            ld: d.ld,
        })
        .collect();
    type BatchResults = Mutex<Vec<Option<Result<Vec<usize>, SingularError>>>>;
    let results: BatchResults = Mutex::new(vec![None; descs.len()]);
    process_windows_mut(a.data_mut(), &windows, device.is_parallel(), |i, block| {
        let r = getrf_in_place(block);
        results.lock()[i] = Some(r);
    });

    let mut pivots = Vec::with_capacity(descs.len());
    for (i, r) in results.into_inner().into_iter().enumerate() {
        match r.expect("every batch entry factored") {
            Ok(p) => pivots.push(p),
            Err(inner) => {
                return Err(LuBatchError::Singular(BatchSingularError {
                    batch_index: i,
                    inner,
                }))
            }
        }
    }
    if poison {
        for d in descs {
            poison_span(a.data_mut(), d.offset, d.span());
        }
    }
    Ok(pivots)
}

/// Solve every system described by `descs` in place using the LU factors
/// produced by [`getrf_batched_varied`] (`getrsBatched`, no-transpose).
///
/// `pivots[i]` must be the pivot vector returned for the factors addressed
/// by `descs[i]`.
///
/// # Panics
/// Panics if the number of pivot vectors differs from the number of
/// descriptors, if RHS windows overlap, or if any window is out of bounds.
pub fn getrs_batched_varied<T: Scalar>(
    device: &Device,
    stream: Stream,
    descs: &[LuSolveDesc],
    a: &DeviceBuffer<T>,
    pivots: &[Vec<usize>],
    b: &mut DeviceBuffer<T>,
) {
    if descs.is_empty() {
        return;
    }
    assert_eq!(
        descs.len(),
        pivots.len(),
        "getrs_batched: one pivot vector per batch entry required"
    );
    for d in descs {
        assert!(
            d.a_offset + d.a_span() <= a.len(),
            "getrs_batched: factors out of bounds"
        );
        assert!(
            d.b_offset + d.b_span() <= b.len(),
            "getrs_batched: rhs out of bounds"
        );
    }
    let flops: u64 = descs.iter().map(|d| d.flops::<T>()).sum();
    device.record_launch("getrs_batched", descs.len(), flops, stream.id());
    // No error channel here (cuBLAS solves report async failures only
    // through garbage output), so FailLaunch degrades to NaN poisoning.
    let poison = device.take_poison("getrs_batched");

    let a_data = a.data();
    let windows: Vec<MatWindow> = descs
        .iter()
        .map(|d| MatWindow {
            offset: d.b_offset,
            rows: d.n,
            cols: d.nrhs,
            ld: d.ldb,
        })
        .collect();
    process_windows_mut(b.data_mut(), &windows, device.is_parallel(), |i, rhs| {
        let d = &descs[i];
        if d.n == 0 || d.nrhs == 0 {
            return;
        }
        let lu = MatRef::from_parts(
            &a_data[d.a_offset..d.a_offset + d.a_span()],
            d.n,
            d.n,
            d.lda.max(1),
        );
        getrs_in_place(lu, &pivots[i], rhs);
    });
    if poison {
        for d in descs {
            poison_span(b.data_mut(), d.b_offset, d.b_span());
        }
    }
}

/// Gather the main diagonal of every block described by `descs`, returning
/// one host vector per block.
///
/// On a real device this is a tiny gather kernel followed by one
/// `cudaMemcpy` of the packed diagonals; here the launch is metered with
/// zero flops (pure data movement) and the packed diagonals are metered as
/// a device-to-host transfer.  The product-form `log_det` of the batched
/// HODLR solver uses this to read the `U` diagonals of its leaf and
/// coupling-matrix LU factors without downloading whole buffers.
///
/// # Panics
/// Panics if any block reaches past the end of the buffer.
pub fn extract_diagonals_batched<T: Scalar>(
    device: &Device,
    stream: Stream,
    descs: &[LuDesc],
    a: &DeviceBuffer<T>,
) -> Vec<Vec<T>> {
    if descs.is_empty() {
        return Vec::new();
    }
    for d in descs {
        assert!(
            d.offset + d.span() <= a.len(),
            "extract_diagonals: block out of bounds"
        );
    }
    device.record_launch("extract_diagonals_batched", descs.len(), 0, stream.id());
    // No error channel: FailLaunch degrades to NaN poisoning of the
    // gathered diagonals.
    let poison = device.take_poison("extract_diagonals_batched");
    let data = a.data();
    let mut out: Vec<Vec<T>> = descs
        .iter()
        .map(|d| (0..d.n).map(|i| data[d.offset + i * (d.ld + 1)]).collect())
        .collect();
    if poison {
        let nan = T::from_f64(f64::NAN);
        out.iter_mut().for_each(|diag| diag.fill(nan));
    }
    let total: usize = descs.iter().map(|d| d.n).sum();
    device.record_transfer(
        crate::device::TransferDirection::DeviceToHost,
        (total * std::mem::size_of::<T>()) as u64,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hodlr_la::random::{random_diag_dominant, random_matrix};
    use hodlr_la::{Complex64, DenseMatrix, RealScalar};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `batch` blocks of order `n`, packed `n * n` elements apart.
    fn packed_blocks(n: usize, batch: usize) -> Vec<LuDesc> {
        (0..batch)
            .map(|i| LuDesc {
                n,
                offset: i * n * n,
                ld: n,
            })
            .collect()
    }

    /// Solves against [`packed_blocks`] factors, `nrhs` columns per block
    /// packed `n * nrhs` elements apart.
    fn packed_solves(n: usize, nrhs: usize, batch: usize) -> Vec<LuSolveDesc> {
        (0..batch)
            .map(|i| LuSolveDesc {
                n,
                nrhs,
                a_offset: i * n * n,
                lda: n,
                b_offset: i * n * nrhs,
                ldb: n,
            })
            .collect()
    }

    fn factor_solve_roundtrip<T: Scalar>(parallel: bool) {
        let mut rng = StdRng::seed_from_u64(21);
        let n = 12;
        let nrhs = 4;
        let batch = 5;
        let mats: Vec<DenseMatrix<T>> = (0..batch)
            .map(|_| random_diag_dominant(&mut rng, n))
            .collect();
        let rhs: Vec<DenseMatrix<T>> = (0..batch)
            .map(|_| random_matrix(&mut rng, n, nrhs))
            .collect();

        let dev = if parallel {
            Device::new()
        } else {
            Device::sequential()
        };
        let mut a_host = vec![T::zero(); n * n * batch];
        let mut b_host = vec![T::zero(); n * nrhs * batch];
        for i in 0..batch {
            a_host[i * n * n..(i + 1) * n * n].copy_from_slice(mats[i].data());
            b_host[i * n * nrhs..(i + 1) * n * nrhs].copy_from_slice(rhs[i].data());
        }
        let mut a_buf = DeviceBuffer::from_host(&dev, &a_host);
        let mut b_buf = DeviceBuffer::from_host(&dev, &b_host);

        let pivots = getrf_batched_varied(
            &dev,
            Stream::default(),
            &packed_blocks(n, batch),
            &mut a_buf,
        )
        .expect("diag-dominant blocks are invertible");
        getrs_batched_varied(
            &dev,
            Stream::default(),
            &packed_solves(n, nrhs, batch),
            &a_buf,
            &pivots,
            &mut b_buf,
        );

        let x_host = b_buf.download();
        for i in 0..batch {
            let x = DenseMatrix::from_col_major(
                n,
                nrhs,
                x_host[i * n * nrhs..(i + 1) * n * nrhs].to_vec(),
            );
            let ax = mats[i].matmul(&x);
            let err = ax.sub(&rhs[i]).norm_max().to_f64();
            assert!(err < 1e-9, "batch {i}: residual {err}");
        }
        assert_eq!(dev.counters().kernel_launches, 2);
    }

    #[test]
    fn batched_lu_real() {
        factor_solve_roundtrip::<f64>(true);
        factor_solve_roundtrip::<f64>(false);
    }

    #[test]
    fn batched_lu_complex() {
        factor_solve_roundtrip::<Complex64>(true);
    }

    #[test]
    fn varied_block_sizes() {
        let mut rng = StdRng::seed_from_u64(22);
        let dev = Device::new();
        let sizes = [3usize, 7, 5];
        let mats: Vec<DenseMatrix<f64>> = sizes
            .iter()
            .map(|&n| random_diag_dominant(&mut rng, n))
            .collect();
        let mut host = Vec::new();
        let mut descs = Vec::new();
        for (i, m) in mats.iter().enumerate() {
            descs.push(LuDesc {
                n: sizes[i],
                offset: host.len(),
                ld: sizes[i],
            });
            host.extend_from_slice(m.data());
        }
        let mut a_buf = DeviceBuffer::from_host(&dev, &host);
        let pivots = getrf_batched_varied(&dev, Stream::default(), &descs, &mut a_buf).unwrap();
        assert_eq!(pivots.len(), 3);

        // Solve one RHS per block and verify against a dense solve.
        let mut b_host = Vec::new();
        let mut solve_descs = Vec::new();
        let rhs: Vec<Vec<f64>> = sizes
            .iter()
            .map(|&n| (0..n).map(|i| i as f64 + 1.0).collect())
            .collect();
        for (i, r) in rhs.iter().enumerate() {
            solve_descs.push(LuSolveDesc {
                n: sizes[i],
                nrhs: 1,
                a_offset: descs[i].offset,
                lda: sizes[i],
                b_offset: b_host.len(),
                ldb: sizes[i],
            });
            b_host.extend_from_slice(r);
        }
        let mut b_buf = DeviceBuffer::from_host(&dev, &b_host);
        getrs_batched_varied(
            &dev,
            Stream::default(),
            &solve_descs,
            &a_buf,
            &pivots,
            &mut b_buf,
        );
        let x_host = b_buf.download();
        for (i, d) in solve_descs.iter().enumerate() {
            let x = &x_host[d.b_offset..d.b_offset + sizes[i]];
            let ax = mats[i].matvec(x);
            for (j, &v) in ax.iter().enumerate() {
                assert!((v - rhs[i][j]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn singular_block_reports_batch_index() {
        let dev = Device::new();
        let good = DenseMatrix::<f64>::identity(3);
        let singular = DenseMatrix::<f64>::zeros(3, 3);
        let mut host = good.data().to_vec();
        host.extend_from_slice(singular.data());
        let mut a_buf = DeviceBuffer::from_host(&dev, &host);
        let err = getrf_batched_varied(&dev, Stream::default(), &packed_blocks(3, 2), &mut a_buf)
            .expect_err("second block is singular");
        assert!(err.to_string().contains("batch entry 1"));
        let singular = err.singular().expect("a singular block, not a fault");
        assert_eq!(singular.batch_index, 1);
    }

    #[test]
    fn injected_fault_fails_the_scheduled_getrf_launch() {
        let dev = Device::new();
        dev.arm_faults(crate::FaultPlan::new().fail_launch(2));
        let a = random_diag_dominant::<f64, _>(&mut StdRng::seed_from_u64(40), 4);

        // Launch 1: no rule, factors fine.
        let mut buf = DeviceBuffer::from_host(&dev, a.data());
        getrf_batched_varied(&dev, Stream::default(), &packed_blocks(4, 1), &mut buf)
            .expect("launch 1 is clean");

        // Launch 2: scheduled to fail with a typed fault.
        let mut buf = DeviceBuffer::from_host(&dev, a.data());
        let err = getrf_batched_varied(&dev, Stream::default(), &packed_blocks(4, 1), &mut buf)
            .expect_err("launch 2 is scheduled to fail");
        match err {
            LuBatchError::Fault(ref f) => {
                assert_eq!(f.kernel, "getrf_batched");
                assert_eq!(f.launch, 2);
            }
            other => panic!("expected a fault, got {other}"),
        }
        let promoted = err.clone().into_hodlr("leaf diagonal block");
        assert!(promoted.to_string().contains("leaf diagonal block"));

        // Launch 3: clean again; the plan only fires on its ordinal.
        let mut buf = DeviceBuffer::from_host(&dev, a.data());
        getrf_batched_varied(&dev, Stream::default(), &packed_blocks(4, 1), &mut buf)
            .expect("launch 3 is clean");
        assert_eq!(dev.disarm_faults().len(), 1);
    }

    #[test]
    fn injected_poison_makes_the_solve_output_non_finite() {
        let dev = Device::new();
        let a = random_diag_dominant::<f64, _>(&mut StdRng::seed_from_u64(41), 4);
        let mut a_buf = DeviceBuffer::from_host(&dev, a.data());
        let pivots =
            getrf_batched_varied(&dev, Stream::default(), &packed_blocks(4, 1), &mut a_buf)
                .unwrap();

        // FailLaunch on the (infallible) solve degrades to poisoning.
        dev.arm_faults(crate::FaultPlan::new().fail_launch(1));
        let mut b_buf = DeviceBuffer::from_host(&dev, &[1.0, 2.0, 3.0, 4.0]);
        getrs_batched_varied(
            &dev,
            Stream::default(),
            &packed_solves(4, 1, 1),
            &a_buf,
            &pivots,
            &mut b_buf,
        );
        assert!(b_buf.download().iter().all(|v| v.is_nan()));
        dev.disarm_faults();

        // With the plan disarmed the same solve is clean again.
        let mut b_buf = DeviceBuffer::from_host(&dev, &[1.0, 2.0, 3.0, 4.0]);
        getrs_batched_varied(
            &dev,
            Stream::default(),
            &packed_solves(4, 1, 1),
            &a_buf,
            &pivots,
            &mut b_buf,
        );
        assert!(b_buf.download().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn flop_accounting_for_lu() {
        let dev = Device::new();
        let a = random_diag_dominant::<f64, _>(&mut StdRng::seed_from_u64(23), 8);
        let mut a_buf = DeviceBuffer::from_host(&dev, a.data());
        let _ = getrf_batched_varied(&dev, Stream::default(), &packed_blocks(8, 1), &mut a_buf)
            .unwrap();
        assert_eq!(dev.counters().flops, 2 * 8 * 8 * 8 / 3);
    }

    #[test]
    fn diagonal_extraction_gathers_and_meters() {
        let dev = Device::new();
        // Two blocks of different orders packed back to back.
        let a = DenseMatrix::<f64>::from_rows(&[vec![1.0, 3.0], vec![2.0, 4.0]]);
        let b = DenseMatrix::<f64>::from_rows(&[
            vec![5.0, 0.0, 0.0],
            vec![0.0, 6.0, 0.0],
            vec![0.0, 0.0, 7.0],
        ]);
        let mut host = a.data().to_vec();
        host.extend_from_slice(b.data());
        let buf = DeviceBuffer::from_host(&dev, &host);
        let descs = [
            LuDesc {
                n: 2,
                offset: 0,
                ld: 2,
            },
            LuDesc {
                n: 3,
                offset: 4,
                ld: 3,
            },
        ];
        let before = dev.counters();
        let diags = extract_diagonals_batched(&dev, Stream::default(), &descs, &buf);
        assert_eq!(diags, vec![vec![1.0, 4.0], vec![5.0, 6.0, 7.0]]);
        let metered = dev.counters().since(&before);
        assert_eq!(metered.kernel_launches, 1);
        assert_eq!(metered.batch_entries, 2);
        assert_eq!(metered.flops, 0);
        assert_eq!(metered.d2h_bytes, 5 * 8);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let dev = Device::new();
        let mut a_buf = DeviceBuffer::<f64>::zeros(&dev, 0);
        let pivots = getrf_batched_varied(&dev, Stream::default(), &[], &mut a_buf).unwrap();
        assert!(pivots.is_empty());
        assert_eq!(dev.counters().kernel_launches, 0);
    }
}
