//! The factor, solve and gather launches of [`crate::factor`] with
//! `hodlr-la`'s pivoted-LU kernels, under the labels and flops the HODLR
//! sweep's LU kind gives them (`getrfBatched` / `getrsBatched`).

#![cfg(test)]

use crate::factor::{factor_batched_varied, solve_batched_varied, FactorDesc, SolveDesc};
use crate::{scalar_flop_factor, Device, DeviceBuffer, FactorError, Stream};
use hodlr_la::lu::{getrf_in_place, getrs_in_place, SingularError};
use hodlr_la::Scalar;

/// `2n^3/3` flops per order-`n` block, in real flops.
pub(crate) fn getrf_flops<T: Scalar>(n: usize) -> u64 {
    let n = n as u64;
    scalar_flop_factor::<T>() * 2 * n * n * n / 3
}

/// LU-factorize the blocks `descs` of `a` in place, returning the pivots.
pub(crate) fn getrf<T: Scalar>(
    device: &Device,
    descs: &[FactorDesc],
    a: &mut DeviceBuffer<T>,
) -> Result<Vec<Vec<usize>>, FactorError<SingularError>> {
    factor_batched_varied(
        device,
        Stream::default(),
        "getrf_batched",
        descs,
        a,
        getrf_flops::<T>,
        getrf_in_place,
    )
}

/// Solve in place in `b` with the LU factors of `a` and their `pivots`.
pub(crate) fn getrs<T: Scalar>(
    device: &Device,
    descs: &[SolveDesc],
    a: &DeviceBuffer<T>,
    pivots: &[Vec<usize>],
    b: &mut DeviceBuffer<T>,
) {
    solve_batched_varied(
        device,
        Stream::default(),
        "getrs_batched",
        descs,
        a,
        b,
        |i, lu, x| getrs_in_place(lu, &pivots[i], x),
    );
}

/// `batch` blocks of order `n`, packed `n * n` elements apart.
pub(crate) fn packed_blocks(n: usize, batch: usize) -> Vec<FactorDesc> {
    (0..batch)
        .map(|i| FactorDesc {
            n,
            offset: i * n * n,
            ld: n,
        })
        .collect()
}

/// Solves against [`packed_blocks`] factors, `nrhs` columns per block
/// packed `n * nrhs` elements apart.
pub(crate) fn packed_solves(n: usize, nrhs: usize, batch: usize) -> Vec<SolveDesc> {
    (0..batch)
        .map(|i| SolveDesc {
            n,
            nrhs,
            a_offset: i * n * n,
            lda: n,
            b_offset: i * n * nrhs,
            ldb: n,
        })
        .collect()
}

mod tests {
    use super::*;
    use crate::factor::gather_bands_batched;
    use crate::FaultPlan;
    use hodlr_la::random::{random_diag_dominant, random_matrix};
    use hodlr_la::{Complex64, DenseMatrix, RealScalar};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

        let pivots = getrf(&dev, &packed_blocks(n, batch), &mut a_buf)
            .expect("diag-dominant blocks are invertible");
        getrs(
            &dev,
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
        factor_solve_roundtrip::<Complex64>(false);
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
            descs.push(FactorDesc {
                n: sizes[i],
                offset: host.len(),
                ld: sizes[i],
            });
            host.extend_from_slice(m.data());
        }
        let mut a_buf = DeviceBuffer::from_host(&dev, &host);
        let pivots = getrf(&dev, &descs, &mut a_buf).unwrap();
        assert_eq!(pivots.len(), 3);

        // Solve one RHS per block and verify against a dense solve.
        let mut b_host = Vec::new();
        let mut solve_descs = Vec::new();
        let rhs: Vec<Vec<f64>> = sizes
            .iter()
            .map(|&n| (0..n).map(|i| i as f64 + 1.0).collect())
            .collect();
        for (i, r) in rhs.iter().enumerate() {
            solve_descs.push(SolveDesc {
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
        getrs(&dev, &solve_descs, &a_buf, &pivots, &mut b_buf);
        let x_host = b_buf.download();
        for (i, d) in solve_descs.iter().enumerate() {
            let x = &x_host[d.b_offset..d.b_offset + sizes[i]];
            let ax = mats[i].matvec(x);
            for (j, &v) in ax.iter().enumerate() {
                assert!((v - rhs[i][j]).abs() < 1e-9);
            }
        }
    }

    /// The first failing entry is named, and its error comes back before
    /// a poisoning fault touches the buffer.
    #[test]
    fn singular_block_reports_batch_index() {
        let good = DenseMatrix::<f64>::identity(3);
        let singular = DenseMatrix::<f64>::zeros(3, 3);
        let mut host = good.data().to_vec();
        host.extend_from_slice(singular.data());
        for poisoned in [false, true] {
            let dev = Device::new();
            if poisoned {
                dev.arm_faults(FaultPlan::new().poison_launch(1));
            }
            let mut a_buf = DeviceBuffer::from_host(&dev, &host);
            let err = getrf(&dev, &packed_blocks(3, 2), &mut a_buf)
                .expect_err("second block is singular");
            assert!(err.to_string().contains("batch entry 1"), "{err}");
            assert!(
                matches!(
                    err,
                    FactorError::Entry {
                        entry: 1,
                        error: SingularError { pivot: 0 }
                    }
                ),
                "{err:?}"
            );
            assert!(a_buf.data().iter().all(|v| v.is_finite()));
            assert_eq!(dev.disarm_faults().len(), usize::from(poisoned));
        }
    }

    #[test]
    fn injected_fault_fails_the_scheduled_getrf_launch() {
        let dev = Device::new();
        dev.arm_faults(FaultPlan::new().fail_launch(2));
        let a = random_diag_dominant::<f64, _>(&mut StdRng::seed_from_u64(40), 4);

        // Launch 1: no rule, factors fine.
        let mut buf = DeviceBuffer::from_host(&dev, a.data());
        getrf(&dev, &packed_blocks(4, 1), &mut buf).expect("launch 1 is clean");

        // Launch 2: scheduled to fail with a typed fault.
        let mut buf = DeviceBuffer::from_host(&dev, a.data());
        let err =
            getrf(&dev, &packed_blocks(4, 1), &mut buf).expect_err("launch 2 is scheduled to fail");
        match err {
            FactorError::Fault(fault) => {
                assert_eq!(fault.kernel, "getrf_batched");
                assert_eq!(fault.launch, 2);
                let promoted = fault.into_hodlr("leaf diagonal block");
                assert!(promoted.to_string().contains("leaf diagonal block"));
            }
            other => panic!("expected a fault, got {other}"),
        }

        // Launch 3: clean again; the plan only fires on its ordinal.
        let mut buf = DeviceBuffer::from_host(&dev, a.data());
        getrf(&dev, &packed_blocks(4, 1), &mut buf).expect("launch 3 is clean");
        assert_eq!(dev.disarm_faults().len(), 1);
    }

    #[test]
    fn injected_poison_makes_the_solve_output_non_finite() {
        let dev = Device::new();
        let a = random_diag_dominant::<f64, _>(&mut StdRng::seed_from_u64(41), 4);
        let mut a_buf = DeviceBuffer::from_host(&dev, a.data());
        let pivots = getrf(&dev, &packed_blocks(4, 1), &mut a_buf).unwrap();

        // FailLaunch on the (infallible) solve degrades to poisoning.
        dev.arm_faults(FaultPlan::new().fail_launch(1));
        let mut b_buf = DeviceBuffer::from_host(&dev, &[1.0, 2.0, 3.0, 4.0]);
        getrs(&dev, &packed_solves(4, 1, 1), &a_buf, &pivots, &mut b_buf);
        assert!(b_buf.download().iter().all(|v| v.is_nan()));
        dev.disarm_faults();

        // With the plan disarmed the same solve is clean again.
        let mut b_buf = DeviceBuffer::from_host(&dev, &[1.0, 2.0, 3.0, 4.0]);
        getrs(&dev, &packed_solves(4, 1, 1), &a_buf, &pivots, &mut b_buf);
        assert!(b_buf.download().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn flop_accounting_for_lu() {
        let dev = Device::new();
        let a = random_diag_dominant::<f64, _>(&mut StdRng::seed_from_u64(23), 8);
        let mut a_buf = DeviceBuffer::from_host(&dev, a.data());
        let pivots = getrf(&dev, &packed_blocks(8, 1), &mut a_buf).unwrap();
        assert_eq!(dev.counters().flops, 2 * 8 * 8 * 8 / 3);

        // The solve meters 2 n^2 flops per right-hand side.
        let mut b_buf = DeviceBuffer::<f64>::zeros(&dev, 8 * 3);
        let (_, metered) =
            dev.meter(|| getrs(&dev, &packed_solves(8, 3, 1), &a_buf, &pivots, &mut b_buf));
        assert_eq!(metered.flops, 2 * 8 * 8 * 3);

        // Complex arithmetic counts four real flops per multiply-add,
        // before the division by three.
        assert_eq!(getrf_flops::<Complex64>(8), 4 * 2 * 8 * 8 * 8 / 3);
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
            FactorDesc {
                n: 2,
                offset: 0,
                ld: 2,
            },
            FactorDesc {
                n: 3,
                offset: 4,
                ld: 3,
            },
        ];
        let label = "extract_diagonals_batched";
        let (diags, metered) =
            dev.meter(|| gather_bands_batched(&dev, Stream::default(), label, &descs, 1, &buf));
        assert_eq!(diags, vec![vec![vec![1.0, 4.0]], vec![vec![5.0, 6.0, 7.0]]]);
        assert_eq!(metered.kernel_launches, 1);
        assert_eq!(metered.batch_entries, 2);
        assert_eq!(metered.flops, 0);
        assert_eq!(metered.d2h_bytes, 5 * 8);
    }

    /// An empty batch launches nothing, whichever of the three launches.
    #[test]
    fn empty_batch_is_a_no_op() {
        let dev = Device::new();
        let mut a_buf = DeviceBuffer::<f64>::zeros(&dev, 0);
        let pivots = getrf(&dev, &[], &mut a_buf).unwrap();
        assert!(pivots.is_empty());
        getrs(
            &dev,
            &[],
            &a_buf,
            &pivots,
            &mut DeviceBuffer::zeros(&dev, 0),
        );
        let label = "extract_diagonals_batched";
        let bands = gather_bands_batched(&dev, Stream::default(), label, &[], 1, &a_buf);
        assert!(bands.is_empty());
        assert_eq!(dev.counters().kernel_launches, 0);
    }
}
