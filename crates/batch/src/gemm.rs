//! Batched general matrix-matrix multiplication.
//!
//! Two kernels, both on per-problem descriptors with independent shapes
//! and offsets (`cublasGemmBatched` with pointer arrays), so a tree level
//! whose off-diagonal ranks vary is one launch:
//!
//! * [`gemm_batched_varied`] — every operand in its own window of the `a`,
//!   `b` and `c` buffers;
//! * [`gemm_batched_aliased`] — the same with `A` read in place
//!   from the *same* device buffer as the output `C`, above every `C` window
//!   (the in-place update `Ybig(:,1:rl) -= Y ⊙ W` of Algorithm 3, line 10).

use crate::buffer::{DeviceBuffer, DeviceRead};
use crate::device::{scalar_flop_factor, Device};
use crate::stream::Stream;
use crate::windows::{launch_on_windows, MatWindow};
use hodlr_la::blas::gemm_flops;
use hodlr_la::{gemm, MatMut, MatRef, Op, Scalar};

/// Descriptor of one problem inside a varied batch:
/// `C <- alpha * op_a(A) * op_b(B) + beta * C` where the operands are
/// column-major windows into device buffers.
#[derive(Copy, Clone, Debug)]
pub struct GemmDesc<T: Scalar> {
    /// Rows of `op_a(A)` and of `C`.
    pub m: usize,
    /// Columns of `op_b(B)` and of `C`.
    pub n: usize,
    /// Columns of `op_a(A)` / rows of `op_b(B)`.
    pub k: usize,
    /// Scale applied to the product.
    pub alpha: T,
    /// Scale applied to the existing contents of `C`.
    pub beta: T,
    /// Operation applied to `A`.
    pub op_a: Op,
    /// Operation applied to `B`.
    pub op_b: Op,
    /// Element offset of `A` in its buffer.
    pub a_offset: usize,
    /// Leading dimension of `A` as stored.
    pub lda: usize,
    /// Element offset of `B` in its buffer.
    pub b_offset: usize,
    /// Leading dimension of `B` as stored.
    pub ldb: usize,
    /// Element offset of `C` in its buffer.
    pub c_offset: usize,
    /// Leading dimension of `C`.
    pub ldc: usize,
}

impl<T: Scalar> GemmDesc<T> {
    /// The `A` operand as stored.
    fn a_window(&self) -> MatWindow {
        let (rows, cols) = match self.op_a {
            Op::None => (self.m, self.k),
            Op::Trans | Op::ConjTrans => (self.k, self.m),
        };
        MatWindow {
            offset: self.a_offset,
            rows,
            cols,
            ld: self.lda,
        }
    }

    /// The `B` operand as stored.
    fn b_window(&self) -> MatWindow {
        let (rows, cols) = match self.op_b {
            Op::None => (self.k, self.n),
            Op::Trans | Op::ConjTrans => (self.n, self.k),
        };
        MatWindow {
            offset: self.b_offset,
            rows,
            cols,
            ld: self.ldb,
        }
    }

    /// The output `C`.
    fn c_window(&self) -> MatWindow {
        MatWindow {
            offset: self.c_offset,
            rows: self.m,
            cols: self.n,
            ld: self.ldc,
        }
    }

    fn flops(&self) -> u64 {
        scalar_flop_factor::<T>() * gemm_flops(self.m, self.n, self.k)
    }

    /// `C <- alpha op_a(A) op_b(B) + beta C`, reading `B` from `b_data`.
    fn run(&self, a: MatRef<'_, T>, b_data: &[T], c: MatMut<'_, T>) {
        let b = self.b_window().view(b_data);
        gemm(self.alpha, a, self.op_a, b, self.op_b, self.beta, c);
    }
}

/// `cublasGemmBatched` with per-problem shapes: every descriptor addresses
/// its own windows of the `a`, `b` and `c` buffers.  The operands `a` and
/// `b` are read only, so either may be a
/// [`SharedBuffer`](crate::SharedBuffer).
///
/// # Panics
/// Panics if output windows overlap or any window is out of bounds.
pub fn gemm_batched_varied<T: Scalar>(
    device: &Device,
    stream: Stream,
    descs: &[GemmDesc<T>],
    a: &impl DeviceRead<T>,
    b: &impl DeviceRead<T>,
    c: &mut DeviceBuffer<T>,
) {
    if descs.is_empty() {
        return;
    }
    let (a_data, b_data) = (a.data(), b.data());
    for d in descs {
        assert!(
            d.a_window().fits(a_data.len()),
            "gemm_batched_varied: A out of bounds"
        );
        assert!(
            d.b_window().fits(b_data.len()),
            "gemm_batched_varied: B out of bounds"
        );
        assert!(
            d.c_window().fits(c.len()),
            "gemm_batched_varied: C out of bounds"
        );
    }
    let flops = descs.iter().map(GemmDesc::flops).sum();
    let windows: Vec<MatWindow> = descs.iter().map(GemmDesc::c_window).collect();
    launch_on_windows(
        device,
        "gemm_batched",
        stream,
        flops,
        c.data_mut(),
        &windows,
        |i, c_view| descs[i].run(descs[i].a_window().view(a_data), b_data, c_view),
    );
}

/// Varied batched gemm whose `A` operand lives in the same buffer as the
/// output `C` (used for the in-place low-rank update of Algorithm 3/4:
/// `Ybig(:, 1:rl) <- Ybig(:, 1:rl) - Y^{l+1} ⊙ W`).
///
/// The buffer is split at the smallest `A` offset: every `C` window must end
/// at or before it, and each product reads its `A` window in place above the
/// split, with its stored `lda`.  In `Ybig` the split is the column boundary
/// between the prefix (the `C` windows) and the next level's block (`A`).
/// The operand `b` is read only, so it may be a
/// [`SharedBuffer`](crate::SharedBuffer).
///
/// # Panics
/// Panics if any window is out of bounds, a `C` window reaches past the
/// smallest `A` offset, or the `C` windows overlap.
pub fn gemm_batched_aliased<T: Scalar>(
    device: &Device,
    stream: Stream,
    descs: &[GemmDesc<T>],
    ac: &mut DeviceBuffer<T>,
    b: &impl DeviceRead<T>,
) {
    let Some(split) = descs.iter().map(|d| d.a_offset).min() else {
        return;
    };
    let b_data = b.data();
    for d in descs {
        assert!(
            d.a_window().fits(ac.len()),
            "gemm_batched_aliased: A out of bounds"
        );
        assert!(
            d.b_window().fits(b_data.len()),
            "gemm_batched_aliased: B out of bounds"
        );
        assert!(
            d.c_window().fits(ac.len()),
            "gemm_batched_aliased: C out of bounds"
        );
        assert!(
            d.c_window().fits(split),
            "gemm_batched_aliased: C window reaches past the smallest A offset {split}"
        );
    }
    let flops = descs.iter().map(GemmDesc::flops).sum();
    let windows: Vec<MatWindow> = descs.iter().map(GemmDesc::c_window).collect();
    let (c_data, a_data) = ac.data_mut().split_at_mut(split);
    launch_on_windows(
        device,
        "gemm_batched_aliased",
        stream,
        flops,
        c_data,
        &windows,
        |i, c_view| {
            let d = &descs[i];
            let a = MatWindow {
                offset: d.a_offset - split,
                ..d.a_window()
            };
            d.run(a.view(a_data), b_data, c_view);
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use hodlr_la::random::random_matrix;
    use hodlr_la::{Complex64, DenseMatrix, RealScalar};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn upload_matrices<T: Scalar>(
        dev: &Device,
        mats: &[DenseMatrix<T>],
    ) -> (DeviceBuffer<T>, usize) {
        let stride = mats.iter().map(|m| m.data().len()).max().unwrap_or(0);
        let mut host = vec![T::zero(); stride * mats.len()];
        for (i, m) in mats.iter().enumerate() {
            host[i * stride..i * stride + m.data().len()].copy_from_slice(m.data());
        }
        (DeviceBuffer::from_host(dev, &host), stride)
    }

    /// Descriptors of `batch` products `C_i <- alpha A_i B_i + beta C_i`
    /// of one shape: operand `X_i` at offset `i * stride_x` with leading
    /// dimension `ldx`.
    fn strided_descs<T: Scalar>(
        (m, n, k): (usize, usize, usize),
        alpha: T,
        beta: T,
        (lda, stride_a): (usize, usize),
        (ldb, stride_b): (usize, usize),
        (ldc, stride_c): (usize, usize),
        batch: usize,
    ) -> Vec<GemmDesc<T>> {
        (0..batch)
            .map(|i| GemmDesc {
                m,
                n,
                k,
                alpha,
                beta,
                op_a: Op::None,
                op_b: Op::None,
                a_offset: i * stride_a,
                lda,
                b_offset: i * stride_b,
                ldb,
                c_offset: i * stride_c,
                ldc,
            })
            .collect()
    }

    /// A batch of one shape laid out at uniform strides, through the
    /// varied kernel.
    fn strided_batched_matches_reference<T: Scalar>(parallel: bool) {
        let mut rng = StdRng::seed_from_u64(7);
        let (m, n, k, batch) = (9, 5, 7, 6);
        let a_mats: Vec<DenseMatrix<T>> =
            (0..batch).map(|_| random_matrix(&mut rng, m, k)).collect();
        let b_mats: Vec<DenseMatrix<T>> =
            (0..batch).map(|_| random_matrix(&mut rng, k, n)).collect();

        let dev = if parallel {
            Device::new()
        } else {
            Device::sequential()
        };
        let (a_buf, stride_a) = upload_matrices(&dev, &a_mats);
        let (b_buf, stride_b) = upload_matrices(&dev, &b_mats);
        let mut c_buf = DeviceBuffer::<T>::zeros(&dev, m * n * batch);

        let descs = strided_descs(
            (m, n, k),
            T::one(),
            T::zero(),
            (m, stride_a),
            (k, stride_b),
            (m, m * n),
            batch,
        );
        gemm_batched_varied(&dev, Stream::default(), &descs, &a_buf, &b_buf, &mut c_buf);

        let c_host = c_buf.download();
        for i in 0..batch {
            let reference = a_mats[i].matmul(&b_mats[i]);
            let got =
                DenseMatrix::from_col_major(m, n, c_host[i * m * n..(i + 1) * m * n].to_vec());
            assert!(got.sub(&reference).norm_max().to_f64() < 1e-12);
        }
        assert_eq!(dev.counters().kernel_launches, 1);
        assert_eq!(dev.counters().batch_entries, batch as u64);
    }

    #[test]
    fn strided_batched_real_parallel_and_sequential() {
        strided_batched_matches_reference::<f64>(true);
        strided_batched_matches_reference::<f64>(false);
    }

    #[test]
    fn strided_batched_complex() {
        strided_batched_matches_reference::<Complex64>(true);
    }

    #[test]
    fn varied_batched_transpose_ops() {
        let mut rng = StdRng::seed_from_u64(8);
        let dev = Device::new();
        // Two problems of different shapes, with op_a = ConjTrans.
        let a0: DenseMatrix<f64> = random_matrix(&mut rng, 6, 4); // used as A^T: 4x6
        let b0: DenseMatrix<f64> = random_matrix(&mut rng, 6, 3);
        let a1: DenseMatrix<f64> = random_matrix(&mut rng, 5, 2);
        let b1: DenseMatrix<f64> = random_matrix(&mut rng, 5, 7);

        let mut a_host = a0.data().to_vec();
        let a1_off = a_host.len();
        a_host.extend_from_slice(a1.data());
        let mut b_host = b0.data().to_vec();
        let b1_off = b_host.len();
        b_host.extend_from_slice(b1.data());

        let a_buf = DeviceBuffer::from_host(&dev, &a_host);
        let b_buf = DeviceBuffer::from_host(&dev, &b_host);
        let mut c_buf = DeviceBuffer::<f64>::zeros(&dev, 4 * 3 + 2 * 7);

        let descs = vec![
            GemmDesc {
                m: 4,
                n: 3,
                k: 6,
                alpha: 1.0,
                beta: 0.0,
                op_a: Op::ConjTrans,
                op_b: Op::None,
                a_offset: 0,
                lda: 6,
                b_offset: 0,
                ldb: 6,
                c_offset: 0,
                ldc: 4,
            },
            GemmDesc {
                m: 2,
                n: 7,
                k: 5,
                alpha: 1.0,
                beta: 0.0,
                op_a: Op::ConjTrans,
                op_b: Op::None,
                a_offset: a1_off,
                lda: 5,
                b_offset: b1_off,
                ldb: 5,
                c_offset: 12,
                ldc: 2,
            },
        ];
        gemm_batched_varied(&dev, Stream::default(), &descs, &a_buf, &b_buf, &mut c_buf);

        let c_host = c_buf.download();
        let r0 = a0.conj_transpose().matmul(&b0);
        let r1 = a1.conj_transpose().matmul(&b1);
        let got0 = DenseMatrix::from_col_major(4, 3, c_host[0..12].to_vec());
        let got1 = DenseMatrix::from_col_major(2, 7, c_host[12..26].to_vec());
        assert!(got0.sub(&r0).norm_max() < 1e-12);
        assert!(got1.sub(&r1).norm_max() < 1e-12);
    }

    #[test]
    fn aliased_update_subtracts_in_place() {
        let mut rng = StdRng::seed_from_u64(9);
        let dev = Device::new();
        // Buffer layout: [ C (8x3) | A (8x2) ], update C <- C - A * B.
        let c0: DenseMatrix<f64> = random_matrix(&mut rng, 8, 3);
        let a: DenseMatrix<f64> = random_matrix(&mut rng, 8, 2);
        let b: DenseMatrix<f64> = random_matrix(&mut rng, 2, 3);

        let mut host = c0.data().to_vec();
        let a_off = host.len();
        host.extend_from_slice(a.data());
        let mut ac_buf = DeviceBuffer::from_host(&dev, &host);
        let b_buf = DeviceBuffer::from_host(&dev, b.data());

        let descs = vec![GemmDesc {
            m: 8,
            n: 3,
            k: 2,
            alpha: -1.0,
            beta: 1.0,
            op_a: Op::None,
            op_b: Op::None,
            a_offset: a_off,
            lda: 8,
            b_offset: 0,
            ldb: 2,
            c_offset: 0,
            ldc: 8,
        }];
        gemm_batched_aliased(&dev, Stream::default(), &descs, &mut ac_buf, &b_buf);

        let got = DenseMatrix::from_col_major(8, 3, ac_buf.download()[0..24].to_vec());
        let mut expect = c0.clone();
        let upd = a.matmul(&b);
        expect.axpy(-1.0, &upd);
        assert!(got.sub(&expect).norm_max() < 1e-12);
    }

    /// The `Ybig` update of Algorithm 3: a tall buffer whose leading
    /// dimension is much larger than any window, row-block `C` windows over
    /// the first `prefix` columns and their `A` windows in the next `w`
    /// columns.  Reading `A` in place must give exactly the bits of the
    /// varied kernel with `A` copied into a separate buffer.
    #[test]
    fn aliased_ybig_update_matches_varied_bitwise() {
        let (ld, prefix, w) = (96, 5, 3);
        let ranges = [0..10, 10..24, 24..48, 48..96];
        let mut rng = StdRng::seed_from_u64(10);
        // One spare column after the A block, so the A windows do not end
        // the buffer.
        let host: DenseMatrix<f64> = random_matrix(&mut rng, ld, prefix + w + 1);
        // Two parents, each with its children's (w x prefix) blocks stacked.
        let w_host: DenseMatrix<f64> = random_matrix(&mut rng, 2 * w, 2 * prefix);
        let descs: Vec<GemmDesc<f64>> = ranges
            .iter()
            .enumerate()
            .map(|(i, range)| GemmDesc {
                m: range.len(),
                n: prefix,
                k: w,
                alpha: -1.0,
                beta: 1.0,
                op_a: Op::None,
                op_b: Op::None,
                a_offset: prefix * ld + range.start,
                lda: ld,
                b_offset: (i / 2) * 2 * w * prefix + (i % 2) * w,
                ldb: 2 * w,
                c_offset: range.start,
                ldc: ld,
            })
            .collect();

        for dev in [Device::new(), Device::sequential()] {
            let b_buf = DeviceBuffer::from_host(&dev, w_host.data());
            let mut ac_buf = DeviceBuffer::from_host(&dev, host.data());
            gemm_batched_aliased(&dev, Stream::default(), &descs, &mut ac_buf, &b_buf);

            let a_buf = DeviceBuffer::from_host(&dev, host.data());
            let mut c_buf = DeviceBuffer::from_host(&dev, host.data());
            gemm_batched_varied(&dev, Stream::default(), &descs, &a_buf, &b_buf, &mut c_buf);

            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(ac_buf.download()), bits(c_buf.download()));
            assert_ne!(ac_buf.download(), host.data(), "the update wrote C");
        }
    }

    #[test]
    #[should_panic(expected = "past the smallest A offset")]
    fn aliased_c_window_past_a_offset_panics() {
        let dev = Device::new();
        // Buffer layout: [ C (8x3) | A (8x2) ], but C claims four columns.
        let mut ac_buf = DeviceBuffer::<f64>::zeros(&dev, 8 * 5);
        let b_buf = DeviceBuffer::<f64>::zeros(&dev, 2 * 4);
        let descs = vec![GemmDesc {
            m: 8,
            n: 4,
            k: 2,
            alpha: -1.0,
            beta: 1.0,
            op_a: Op::None,
            op_b: Op::None,
            a_offset: 8 * 3,
            lda: 8,
            b_offset: 0,
            ldb: 2,
            c_offset: 0,
            ldc: 8,
        }];
        gemm_batched_aliased(&dev, Stream::default(), &descs, &mut ac_buf, &b_buf);
    }

    #[test]
    fn beta_scaling_accumulates() {
        let dev = Device::new();
        let a = DenseMatrix::<f64>::identity(3);
        let b = DenseMatrix::<f64>::identity(3);
        let a_buf = DeviceBuffer::from_host(&dev, a.data());
        let b_buf = DeviceBuffer::from_host(&dev, b.data());
        let c0 = DenseMatrix::<f64>::from_fn(3, 3, |i, j| (i + j) as f64);
        let mut c_buf = DeviceBuffer::from_host(&dev, c0.data());
        let descs = strided_descs((3, 3, 3), 2.0, 3.0, (3, 9), (3, 9), (3, 9), 1);
        gemm_batched_varied(&dev, Stream::default(), &descs, &a_buf, &b_buf, &mut c_buf);
        let got = DenseMatrix::from_col_major(3, 3, c_buf.download());
        for i in 0..3 {
            for j in 0..3 {
                let expect = 3.0 * (i + j) as f64 + if i == j { 2.0 } else { 0.0 };
                assert!((got[(i, j)] - expect).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn flop_counter_matches_formula() {
        let dev = Device::new();
        let a_buf = DeviceBuffer::<f64>::from_host(&dev, &[1.0; 4 * 5]);
        let b_buf = DeviceBuffer::<f64>::from_host(&dev, &[1.0; 5 * 3]);
        let mut c_buf = DeviceBuffer::<f64>::zeros(&dev, 4 * 3 * 2);
        let descs = strided_descs((4, 3, 5), 1.0, 0.0, (4, 0), (5, 0), (4, 12), 2);
        gemm_batched_varied(&dev, Stream::default(), &descs, &a_buf, &b_buf, &mut c_buf);
        assert_eq!(dev.counters().flops, 2 * 2 * 4 * 3 * 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let dev = Device::new();
        let a_buf = DeviceBuffer::<f64>::zeros(&dev, 4);
        let b_buf = DeviceBuffer::<f64>::zeros(&dev, 4);
        let mut c_buf = DeviceBuffer::<f64>::zeros(&dev, 1);
        let descs = strided_descs((2, 2, 2), 1.0, 0.0, (2, 4), (2, 4), (2, 4), 1);
        gemm_batched_varied(&dev, Stream::default(), &descs, &a_buf, &b_buf, &mut c_buf);
    }
}
