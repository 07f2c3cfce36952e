//! Batched symmetric factorization and solve (`potrfBatched` and friends).
//!
//! The symmetric counterpart of [`crate::lu`], on the same [`LuDesc`] /
//! [`LuSolveDesc`] descriptors: every block described by a descriptor is
//! factorized in place by the *same* ladder the serial path
//! uses — [`hodlr_la::cholesky::factorize_symmetric_in_place`], `L L^H` →
//! guarded `L D L^H` → Bunch-Kaufman — so batched and serial factors are
//! bitwise identical and a shared `log_det` fold gives bitwise-equal
//! determinants.  Which rung each entry landed on is returned to the host
//! as a [`SymmetricKind`] (like LU pivots, kinds are host-side metadata).
//!
//! A Cholesky factorization costs `n^3/3` flops — half of LU's `2n^3/3` —
//! and the metering records exactly that, which is where the SPD path's
//! flop advantage in `BENCH_gp.json` comes from.

use crate::buffer::DeviceBuffer;
use crate::device::Device;
use crate::fault::{poison_span, FaultAction, LaunchFault};
use crate::gemm::scalar_flop_factor;
use crate::lu::{LuDesc, LuSolveDesc};
use crate::stream::Stream;
use crate::windows::{process_windows_mut, MatWindow};
use hodlr_la::cholesky::{
    factorize_symmetric_in_place, solve_symmetric_in_place, SymmetricError, SymmetricKind,
    SymmetricPolicy,
};
use hodlr_la::{MatRef, Scalar};
use parking_lot::Mutex;
use std::fmt;

/// Cholesky flops of one block: `n^3/3`, half of LU's `2n^3/3`.
fn potrf_flops<T: Scalar>(d: &LuDesc) -> u64 {
    let n = d.n as u64;
    scalar_flop_factor::<T>() * n * n * n / 3
}

/// A batch entry whose block could not be factorized symmetrically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSymmetricError {
    /// Which batch entry failed.
    pub batch_index: usize,
    /// The underlying symmetric-factorization error.
    pub inner: SymmetricError,
}

impl fmt::Display for BatchSymmetricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "batch entry {}: {}", self.batch_index, self.inner)
    }
}

impl std::error::Error for BatchSymmetricError {}

impl BatchSymmetricError {
    /// Promote to a [`HodlrError`](hodlr_la::HodlrError) naming the failing
    /// batch (e.g. `"leaf diagonal block"`).
    pub fn into_hodlr(self, context: impl Into<String>) -> hodlr_la::HodlrError {
        match self.inner {
            SymmetricError::NotPositiveDefinite { pivot } => {
                hodlr_la::HodlrError::NotPositiveDefinite {
                    context: format!(
                        "{} (batch entry {}, Cholesky pivot {pivot})",
                        context.into(),
                        self.batch_index
                    ),
                }
            }
            SymmetricError::Singular { pivot } => hodlr_la::HodlrError::SingularPivot {
                context: context.into(),
                pivot,
                batch_index: Some(self.batch_index),
            },
        }
    }
}

/// How a batched symmetric factorization can fail: a block that resists the
/// symmetric ladder, or an injected launch fault from an armed
/// [`FaultPlan`](crate::FaultPlan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymBatchError {
    /// A batch entry's block could not be factorized symmetrically.
    Symmetric(BatchSymmetricError),
    /// The launch itself was made to fail by fault injection.
    Fault(LaunchFault),
}

impl fmt::Display for SymBatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymBatchError::Symmetric(e) => e.fmt(f),
            SymBatchError::Fault(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for SymBatchError {}

impl From<BatchSymmetricError> for SymBatchError {
    fn from(e: BatchSymmetricError) -> Self {
        SymBatchError::Symmetric(e)
    }
}

impl SymBatchError {
    /// Promote to a [`HodlrError`](hodlr_la::HodlrError) naming the failing
    /// batch, preserving whichever failure kind occurred.
    pub fn into_hodlr(self, context: impl Into<String>) -> hodlr_la::HodlrError {
        match self {
            SymBatchError::Symmetric(e) => e.into_hodlr(context),
            SymBatchError::Fault(e) => e.into_hodlr(context),
        }
    }

    /// The batch entry whose block failed; `None` for a failed launch.
    pub fn batch_index(&self) -> Option<usize> {
        match self {
            SymBatchError::Symmetric(e) => Some(e.batch_index),
            SymBatchError::Fault(_) => None,
        }
    }

    /// The symmetric-factorization failure, if that is what this error is.
    pub fn symmetric(self) -> Option<BatchSymmetricError> {
        match self {
            SymBatchError::Symmetric(e) => Some(e),
            SymBatchError::Fault(_) => None,
        }
    }
}

/// Factorize every Hermitian block described by `descs` in place under
/// `policy`, returning the ladder rung each entry landed on
/// (`potrfBatched`; with [`SymmetricPolicy::Fallback`] it generalizes to
/// `sytrfBatched`).
///
/// # Errors
/// Returns the index of the first batch entry that could not be factorized
/// (not positive definite under the strict policy, singular otherwise), or
/// a [`LaunchFault`] when an armed fault plan fails this launch.
///
/// # Panics
/// Panics if blocks overlap or reach past the end of the buffer.
pub fn potrf_batched_varied<T: Scalar>(
    device: &Device,
    stream: Stream,
    descs: &[LuDesc],
    policy: SymmetricPolicy,
    a: &mut DeviceBuffer<T>,
) -> Result<Vec<SymmetricKind>, SymBatchError> {
    if descs.is_empty() {
        return Ok(Vec::new());
    }
    for d in descs {
        assert!(
            d.offset + d.span() <= a.len(),
            "potrf_batched: block out of bounds"
        );
    }
    let flops: u64 = descs.iter().map(potrf_flops::<T>).sum();
    device.record_launch("potrf_batched", descs.len(), flops, stream.id());
    let mut poison = false;
    match device.take_launch_fault("potrf_batched") {
        Some((FaultAction::FailLaunch, launch)) => {
            return Err(SymBatchError::Fault(LaunchFault {
                kernel: "potrf_batched",
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
    type BatchResults = Mutex<Vec<Option<Result<SymmetricKind, SymmetricError>>>>;
    let results: BatchResults = Mutex::new(vec![None; descs.len()]);
    process_windows_mut(a.data_mut(), &windows, device.is_parallel(), |i, block| {
        let r = factorize_symmetric_in_place(block, policy);
        results.lock()[i] = Some(r);
    });

    let mut kinds = Vec::with_capacity(descs.len());
    for (i, r) in results.into_inner().into_iter().enumerate() {
        match r.expect("every batch entry factored") {
            Ok(k) => kinds.push(k),
            Err(inner) => {
                return Err(SymBatchError::Symmetric(BatchSymmetricError {
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
    Ok(kinds)
}

/// Solve every system described by `descs` in place using the factors and
/// kinds produced by [`potrf_batched_varied`] (`potrsBatched`).
///
/// `kinds[i]` must be the [`SymmetricKind`] returned for the factors
/// addressed by `descs[i]`.
///
/// # Panics
/// Panics if the number of kinds differs from the number of descriptors,
/// if RHS windows overlap, or if any window is out of bounds.
pub fn potrs_batched_varied<T: Scalar>(
    device: &Device,
    stream: Stream,
    descs: &[LuSolveDesc],
    a: &DeviceBuffer<T>,
    kinds: &[SymmetricKind],
    b: &mut DeviceBuffer<T>,
) {
    if descs.is_empty() {
        return;
    }
    assert_eq!(
        descs.len(),
        kinds.len(),
        "potrs_batched: one factor kind per batch entry required"
    );
    for d in descs {
        assert!(
            d.a_offset + d.a_span() <= a.len(),
            "potrs_batched: factors out of bounds"
        );
        assert!(
            d.b_offset + d.b_span() <= b.len(),
            "potrs_batched: rhs out of bounds"
        );
    }
    let flops: u64 = descs.iter().map(|d| d.flops::<T>()).sum();
    device.record_launch("potrs_batched", descs.len(), flops, stream.id());
    // No error channel (see `getrs_batched_varied`): FailLaunch degrades
    // to NaN poisoning.
    let poison = device.take_poison("potrs_batched");

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
        let f = MatRef::from_parts(
            &a_data[d.a_offset..d.a_offset + d.a_span()],
            d.n,
            d.n,
            d.lda.max(1),
        );
        solve_symmetric_in_place(f, &kinds[i], rhs);
    });
    if poison {
        for d in descs {
            poison_span(b.data_mut(), d.b_offset, d.b_span());
        }
    }
}

/// Gather the main diagonal and the first subdiagonal of every block
/// described by `descs`, returning `(diag, sub)` host vectors per block —
/// exactly the inputs [`hodlr_la::sym_log_det_from_parts`] needs, so the
/// batched `log_det` runs the same fold as the serial one.
///
/// Like [`crate::lu::extract_diagonals_batched`], the launch is metered
/// with zero flops (pure gather) and the packed values as a device-to-host
/// transfer.
///
/// # Panics
/// Panics if any block reaches past the end of the buffer.
pub fn extract_tridiagonals_batched<T: Scalar>(
    device: &Device,
    stream: Stream,
    descs: &[LuDesc],
    a: &DeviceBuffer<T>,
) -> Vec<(Vec<T>, Vec<T>)> {
    if descs.is_empty() {
        return Vec::new();
    }
    for d in descs {
        assert!(
            d.offset + d.span() <= a.len(),
            "extract_tridiagonals: block out of bounds"
        );
    }
    device.record_launch("extract_tridiagonals_batched", descs.len(), 0, stream.id());
    // No error channel: FailLaunch degrades to NaN poisoning of the
    // gathered values.
    let poison = device.take_poison("extract_tridiagonals_batched");
    let data = a.data();
    let mut out: Vec<(Vec<T>, Vec<T>)> = descs
        .iter()
        .map(|d| {
            let diag = (0..d.n).map(|i| data[d.offset + i * (d.ld + 1)]).collect();
            let sub = (0..d.n.saturating_sub(1))
                .map(|i| data[d.offset + i * (d.ld + 1) + 1])
                .collect();
            (diag, sub)
        })
        .collect();
    if poison {
        let nan = T::from_f64(f64::NAN);
        for (diag, sub) in &mut out {
            diag.fill(nan);
            sub.fill(nan);
        }
    }
    let total: usize = descs.iter().map(|d| d.n + d.n.saturating_sub(1)).sum();
    device.record_transfer(
        crate::device::TransferDirection::DeviceToHost,
        (total * std::mem::size_of::<T>()) as u64,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hodlr_la::random::random_matrix;
    use hodlr_la::{gemm, Complex64, DenseMatrix, Op, RealScalar, SymmetricFactor};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spd<T: Scalar>(rng: &mut StdRng, n: usize) -> DenseMatrix<T> {
        let g: DenseMatrix<T> = random_matrix(rng, n, n);
        let mut a = DenseMatrix::<T>::zeros(n, n);
        gemm(
            T::one(),
            g.as_ref(),
            Op::None,
            g.as_ref(),
            Op::ConjTrans,
            T::zero(),
            a.as_mut(),
        );
        for i in 0..n {
            a[(i, i)] += T::from_f64(n as f64);
        }
        a
    }

    fn factor_solve_roundtrip<T: Scalar>(parallel: bool) {
        let mut rng = StdRng::seed_from_u64(31);
        let n = 12;
        let nrhs = 3;
        let batch = 4;
        let mats: Vec<DenseMatrix<T>> = (0..batch).map(|_| spd(&mut rng, n)).collect();
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

        let descs: Vec<LuDesc> = (0..batch)
            .map(|i| LuDesc {
                n,
                offset: i * n * n,
                ld: n,
            })
            .collect();
        let kinds = potrf_batched_varied(
            &dev,
            Stream::default(),
            &descs,
            SymmetricPolicy::Strict,
            &mut a_buf,
        )
        .expect("SPD blocks factor under the strict policy");
        assert!(kinds.iter().all(|k| matches!(k, SymmetricKind::Llt)));

        let solve_descs: Vec<LuSolveDesc> = (0..batch)
            .map(|i| LuSolveDesc {
                n,
                nrhs,
                a_offset: i * n * n,
                lda: n,
                b_offset: i * n * nrhs,
                ldb: n,
            })
            .collect();
        potrs_batched_varied(
            &dev,
            Stream::default(),
            &solve_descs,
            &a_buf,
            &kinds,
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
    }

    #[test]
    fn batched_cholesky_real() {
        factor_solve_roundtrip::<f64>(true);
        factor_solve_roundtrip::<f64>(false);
    }

    #[test]
    fn batched_cholesky_complex() {
        factor_solve_roundtrip::<Complex64>(true);
    }

    #[test]
    fn batched_factors_match_serial_bitwise() {
        let mut rng = StdRng::seed_from_u64(32);
        let n = 10;
        let a: DenseMatrix<f64> = spd(&mut rng, n);
        let dev = Device::new();
        let mut buf = DeviceBuffer::from_host(&dev, a.data());
        let descs = [LuDesc {
            n,
            offset: 0,
            ld: n,
        }];
        let kinds = potrf_batched_varied(
            &dev,
            Stream::default(),
            &descs,
            SymmetricPolicy::Fallback,
            &mut buf,
        )
        .unwrap();
        let serial = SymmetricFactor::new(&a, SymmetricPolicy::Fallback).unwrap();
        assert_eq!(&kinds[0], serial.kind());
        let dev_data = buf.download();
        let (host_f, _) = serial.factors();
        // Compare the lower triangles (the upper is unspecified on both
        // sides but comes from the same untouched input here).
        for j in 0..n {
            for i in j..n {
                assert_eq!(dev_data[j * n + i].to_bits(), host_f[(i, j)].to_bits());
            }
        }
    }

    #[test]
    fn strict_failure_reports_batch_index() {
        let dev = Device::new();
        let good = DenseMatrix::<f64>::identity(3);
        let mut bad = DenseMatrix::<f64>::identity(3);
        bad[(1, 1)] = -1.0;
        let mut host = good.data().to_vec();
        host.extend_from_slice(bad.data());
        let mut buf = DeviceBuffer::from_host(&dev, &host);
        let descs = [
            LuDesc {
                n: 3,
                offset: 0,
                ld: 3,
            },
            LuDesc {
                n: 3,
                offset: 9,
                ld: 3,
            },
        ];
        let err = potrf_batched_varied(
            &dev,
            Stream::default(),
            &descs,
            SymmetricPolicy::Strict,
            &mut buf,
        )
        .expect_err("second block is indefinite");
        let promoted = err.clone().into_hodlr("leaf diagonal block");
        assert!(promoted.to_string().contains("not positive definite"));
        let err = err.symmetric().expect("an indefinite block, not a fault");
        assert_eq!(err.batch_index, 1);
        assert!(matches!(
            err.inner,
            SymmetricError::NotPositiveDefinite { pivot: 1 }
        ));
    }

    #[test]
    fn injected_fault_fails_the_scheduled_potrf_launch() {
        let dev = Device::new();
        dev.arm_faults(crate::FaultPlan::new().fail_launch(1));
        let a = spd::<f64>(&mut StdRng::seed_from_u64(44), 4);
        let mut buf = DeviceBuffer::from_host(&dev, a.data());
        let descs = [LuDesc {
            n: 4,
            offset: 0,
            ld: 4,
        }];
        let err = potrf_batched_varied(
            &dev,
            Stream::default(),
            &descs,
            SymmetricPolicy::Strict,
            &mut buf,
        )
        .expect_err("launch 1 is scheduled to fail");
        assert!(matches!(err, SymBatchError::Fault(_)));
        assert!(err
            .into_hodlr("leaf diagonal block")
            .to_string()
            .contains("potrf_batched"));
    }

    #[test]
    fn flop_accounting_for_cholesky_is_half_of_lu() {
        let dev = Device::new();
        let a = spd::<f64>(&mut StdRng::seed_from_u64(33), 8);
        let mut buf = DeviceBuffer::from_host(&dev, a.data());
        let descs = [LuDesc {
            n: 8,
            offset: 0,
            ld: 8,
        }];
        let before = dev.counters();
        potrf_batched_varied(
            &dev,
            Stream::default(),
            &descs,
            SymmetricPolicy::Strict,
            &mut buf,
        )
        .unwrap();
        let metered = dev.counters().since(&before);
        assert_eq!(metered.flops, 8 * 8 * 8 / 3);
        // Half of what the LU kernel meters for the same order.
        assert_eq!(metered.flops, (2 * 8 * 8 * 8 / 3) / 2);
    }

    #[test]
    fn tridiagonal_extraction_gathers_and_meters() {
        let dev = Device::new();
        let a = DenseMatrix::<f64>::from_rows(&[
            vec![1.0, 0.0, 0.0],
            vec![4.0, 2.0, 0.0],
            vec![0.0, 5.0, 3.0],
        ]);
        let buf = DeviceBuffer::from_host(&dev, a.data());
        let descs = [LuDesc {
            n: 3,
            offset: 0,
            ld: 3,
        }];
        let before = dev.counters();
        let parts = extract_tridiagonals_batched(&dev, Stream::default(), &descs, &buf);
        assert_eq!(parts, vec![(vec![1.0, 2.0, 3.0], vec![4.0, 5.0])]);
        let metered = dev.counters().since(&before);
        assert_eq!(metered.kernel_launches, 1);
        assert_eq!(metered.flops, 0);
        assert_eq!(metered.d2h_bytes, 5 * 8);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let dev = Device::new();
        let mut buf = DeviceBuffer::<f64>::zeros(&dev, 0);
        let kinds = potrf_batched_varied(
            &dev,
            Stream::default(),
            &[],
            SymmetricPolicy::Strict,
            &mut buf,
        )
        .unwrap();
        assert!(kinds.is_empty());
        assert_eq!(dev.counters().kernel_launches, 0);
    }
}
