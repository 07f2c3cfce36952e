//! The factor, solve and gather launches of [`crate::factor`] with
//! `hodlr-la`'s symmetric kernels, under the labels and flops the HODLR
//! sweep's symmetric kind gives them (`potrfBatched` / `potrsBatched`).
//!
//! Every block is factorized in place by the ladder the dense path uses —
//! `L L^H` → guarded `L D L^H` → Bunch-Kaufman — and the rung each entry
//! landed on comes back to the host as a [`SymmetricKind`], like LU pivots.
//! A Cholesky factorization costs `n^3/3` flops, half of LU's `2n^3/3`.

#![cfg(test)]

use crate::factor::{factor_batched_varied, solve_batched_varied, FactorDesc, SolveDesc};
use crate::{scalar_flop_factor, Device, DeviceBuffer, FactorError, Stream};
use hodlr_la::cholesky::{
    factorize_symmetric_in_place, solve_symmetric_in_place, SymmetricError, SymmetricKind,
    SymmetricPolicy,
};
use hodlr_la::random::random_matrix;
use hodlr_la::{gemm, DenseMatrix, Op, Scalar};
use rand::rngs::StdRng;

/// `n^3/3` flops per order-`n` block, in real flops.
pub(crate) fn potrf_flops<T: Scalar>(n: usize) -> u64 {
    let n = n as u64;
    scalar_flop_factor::<T>() * n * n * n / 3
}

/// Factorize the Hermitian blocks `descs` of `a` in place under `policy`,
/// returning the ladder rung of every block.
pub(crate) fn potrf<T: Scalar>(
    device: &Device,
    descs: &[FactorDesc],
    policy: SymmetricPolicy,
    a: &mut DeviceBuffer<T>,
) -> Result<Vec<SymmetricKind>, FactorError<SymmetricError>> {
    factor_batched_varied(
        device,
        Stream::default(),
        "potrf_batched",
        descs,
        a,
        potrf_flops::<T>,
        |block| factorize_symmetric_in_place(block, policy),
    )
}

/// Solve in place in `b` with the symmetric factors of `a` and their
/// `kinds`.
pub(crate) fn potrs<T: Scalar>(
    device: &Device,
    descs: &[SolveDesc],
    a: &DeviceBuffer<T>,
    kinds: &[SymmetricKind],
    b: &mut DeviceBuffer<T>,
) {
    solve_batched_varied(
        device,
        Stream::default(),
        "potrs_batched",
        descs,
        a,
        b,
        |i, f, x| solve_symmetric_in_place(f, &kinds[i], x),
    );
}

/// A random Hermitian positive-definite matrix of order `n`.
pub(crate) fn spd<T: Scalar>(rng: &mut StdRng, n: usize) -> DenseMatrix<T> {
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

mod tests {
    use super::*;
    use crate::factor::gather_bands_batched;
    use crate::lu::{getrf_flops, packed_blocks, packed_solves};
    use hodlr_la::{Complex64, RealScalar, SymmetricFactor};
    use rand::SeedableRng;

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

        let descs = packed_blocks(n, batch);
        let kinds = potrf(&dev, &descs, SymmetricPolicy::Strict, &mut a_buf)
            .expect("SPD blocks factor under the strict policy");
        assert!(kinds.iter().all(|k| matches!(k, SymmetricKind::Llt)));
        potrs(
            &dev,
            &packed_solves(n, nrhs, batch),
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
        factor_solve_roundtrip::<Complex64>(false);
    }

    #[test]
    fn batched_factors_match_serial_bitwise() {
        let mut rng = StdRng::seed_from_u64(32);
        let n = 10;
        let a: DenseMatrix<f64> = spd(&mut rng, n);
        let dev = Device::new();
        let mut buf = DeviceBuffer::from_host(&dev, a.data());
        let kinds = potrf(
            &dev,
            &packed_blocks(n, 1),
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
        let err = potrf(
            &dev,
            &packed_blocks(3, 2),
            SymmetricPolicy::Strict,
            &mut buf,
        )
        .expect_err("second block is indefinite");
        assert!(err.to_string().contains("batch entry 1"), "{err}");
        assert!(
            matches!(
                err,
                FactorError::Entry {
                    entry: 1,
                    error: SymmetricError::NotPositiveDefinite { pivot: 1 }
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn injected_fault_fails_the_scheduled_potrf_launch() {
        let dev = Device::new();
        dev.arm_faults(crate::FaultPlan::new().fail_launch(1));
        let a = spd::<f64>(&mut StdRng::seed_from_u64(44), 4);
        let mut buf = DeviceBuffer::from_host(&dev, a.data());
        let err = potrf(
            &dev,
            &packed_blocks(4, 1),
            SymmetricPolicy::Strict,
            &mut buf,
        )
        .expect_err("launch 1 is scheduled to fail");
        match err {
            FactorError::Fault(fault) => assert!(fault
                .into_hodlr("leaf diagonal block")
                .to_string()
                .contains("potrf_batched")),
            other => panic!("expected a fault, got {other}"),
        }
    }

    #[test]
    fn flop_accounting_for_cholesky_is_half_of_lu() {
        let dev = Device::new();
        let a = spd::<f64>(&mut StdRng::seed_from_u64(33), 8);
        let mut buf = DeviceBuffer::from_host(&dev, a.data());
        let (_, metered) = dev.meter(|| {
            potrf(
                &dev,
                &packed_blocks(8, 1),
                SymmetricPolicy::Strict,
                &mut buf,
            )
            .unwrap()
        });
        assert_eq!(metered.flops, 8 * 8 * 8 / 3);
        // Half of what the LU kind meters for the same order.
        assert_eq!(metered.flops, getrf_flops::<f64>(8) / 2);
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
        let label = "extract_tridiagonals_batched";
        let descs = packed_blocks(3, 1);
        let (parts, metered) =
            dev.meter(|| gather_bands_batched(&dev, Stream::default(), label, &descs, 2, &buf));
        assert_eq!(parts, vec![vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0]]]);
        assert_eq!(metered.kernel_launches, 1);
        assert_eq!(metered.flops, 0);
        assert_eq!(metered.d2h_bytes, 5 * 8);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let dev = Device::new();
        let mut buf = DeviceBuffer::<f64>::zeros(&dev, 0);
        let kinds = potrf(&dev, &[], SymmetricPolicy::Strict, &mut buf).unwrap();
        assert!(kinds.is_empty());
        potrs(&dev, &[], &buf, &kinds, &mut DeviceBuffer::zeros(&dev, 0));
        assert_eq!(dev.counters().kernel_launches, 0);
    }
}
