//! Batched general matrix-matrix multiplication.
//!
//! Three flavours mirror the cuBLAS kernels the paper uses:
//!
//! * [`gemm_strided_batched`] — every problem in the batch has the same
//!   shape and consecutive problems are a fixed stride apart
//!   (`cublasGemmStridedBatched`), the fast path when all ranks at a tree
//!   level are equal;
//! * [`gemm_batched_varied`] — per-problem descriptors with independent
//!   shapes and offsets (`cublasGemmBatched` with pointer arrays), used when
//!   the off-diagonal ranks vary;
//! * [`gemm_batched_aliased`] — the varied flavour with `A` read in place
//!   from the *same* device buffer as the output `C`, above every `C` window
//!   (the in-place update `Ybig(:,1:rl) -= Y ⊙ W` of Algorithm 3, line 10).

use crate::buffer::DeviceBuffer;
use crate::device::Device;
use crate::fault::{poison_span, FaultAction};
use crate::stream::Stream;
use crate::windows::{process_windows_mut, MatWindow};
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
    /// Stored extent (rows, cols) of the `A` operand.
    fn a_dims(&self) -> (usize, usize) {
        match self.op_a {
            Op::None => (self.m, self.k),
            Op::Trans | Op::ConjTrans => (self.k, self.m),
        }
    }

    /// Stored extent (rows, cols) of the `B` operand.
    fn b_dims(&self) -> (usize, usize) {
        match self.op_b {
            Op::None => (self.k, self.n),
            Op::Trans | Op::ConjTrans => (self.n, self.k),
        }
    }

    fn a_span(&self) -> usize {
        let (r, c) = self.a_dims();
        span(r, c, self.lda)
    }

    fn b_span(&self) -> usize {
        let (r, c) = self.b_dims();
        span(r, c, self.ldb)
    }

    fn c_span(&self) -> usize {
        span(self.m, self.n, self.ldc)
    }

    fn flops(&self) -> u64 {
        scalar_flop_factor::<T>() * gemm_flops(self.m, self.n, self.k)
    }
}

/// Number of elements a column-major `rows x cols` window with leading
/// dimension `ld` spans in its buffer (zero for an empty window).
fn span(rows: usize, cols: usize, ld: usize) -> usize {
    if rows == 0 || cols == 0 {
        0
    } else {
        ld * (cols - 1) + rows
    }
}

/// Real-flop multiplier: a complex multiply-add costs 4x the real one.
pub(crate) fn scalar_flop_factor<T: Scalar>() -> u64 {
    if T::IS_COMPLEX {
        4
    } else {
        1
    }
}

fn gemm_into<T: Scalar>(desc: &GemmDesc<T>, a: &[T], b: &[T], c: MatMut<'_, T>) {
    let (ar, ac) = desc.a_dims();
    let (br, bc) = desc.b_dims();
    let a_ref = MatRef::from_parts(a, ar, ac, desc.lda.max(1));
    let b_ref = MatRef::from_parts(b, br, bc, desc.ldb.max(1));
    gemm(desc.alpha, a_ref, desc.op_a, b_ref, desc.op_b, desc.beta, c);
}

/// `cublasGemmStridedBatched`: `batch` problems of identical shape, with
/// operand `i` located at `i * stride_x` in its buffer.
///
/// # Panics
/// Panics if any operand window reaches past the end of its buffer or if the
/// output windows overlap.
#[allow(clippy::too_many_arguments)]
pub fn gemm_strided_batched<T: Scalar>(
    device: &Device,
    stream: Stream,
    op_a: Op,
    op_b: Op,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &DeviceBuffer<'_, T>,
    lda: usize,
    stride_a: usize,
    b: &DeviceBuffer<'_, T>,
    ldb: usize,
    stride_b: usize,
    beta: T,
    c: &mut DeviceBuffer<'_, T>,
    ldc: usize,
    stride_c: usize,
    batch: usize,
) {
    if batch == 0 || m == 0 || n == 0 {
        return;
    }
    let desc0 = GemmDesc {
        m,
        n,
        k,
        alpha,
        beta,
        op_a,
        op_b,
        a_offset: 0,
        lda,
        b_offset: 0,
        ldb,
        c_offset: 0,
        ldc,
    };
    let c_span = desc0.c_span();
    assert!(
        stride_c >= c_span || batch == 1,
        "gemm_strided_batched: output stride {stride_c} smaller than the output window {c_span}"
    );
    assert!(
        (batch - 1) * stride_a + desc0.a_span() <= a.len(),
        "gemm_strided_batched: A out of bounds"
    );
    assert!(
        (batch - 1) * stride_b + desc0.b_span() <= b.len(),
        "gemm_strided_batched: B out of bounds"
    );
    assert!(
        (batch - 1) * stride_c + c_span <= c.len(),
        "gemm_strided_batched: C out of bounds"
    );

    let flops: u64 = desc0.flops() * batch as u64;
    device.record_launch("gemm_strided_batched", batch, flops, stream.id());
    // No error channel on gemm (see `getrs_batched_varied`): FailLaunch
    // degrades to NaN poisoning of the output windows.
    let mut poison = false;
    match device.take_launch_fault("gemm_strided_batched") {
        Some((FaultAction::FailLaunch | FaultAction::PoisonNan, _)) => poison = true,
        Some((FaultAction::Delay { micros }, _)) => {
            std::thread::sleep(std::time::Duration::from_micros(micros))
        }
        None => {}
    }

    let a_data = a.data();
    let b_data = b.data();
    let windows: Vec<MatWindow> = (0..batch)
        .map(|i| MatWindow {
            offset: i * stride_c,
            rows: m,
            cols: n,
            ld: ldc,
        })
        .collect();
    process_windows_mut(c.data_mut(), &windows, device.is_parallel(), |i, c_view| {
        let a_off = i * stride_a;
        let b_off = i * stride_b;
        gemm_into(
            &desc0,
            &a_data[a_off..a_off + desc0.a_span()],
            &b_data[b_off..b_off + desc0.b_span()],
            c_view,
        );
    });
    if poison {
        for i in 0..batch {
            poison_span(c.data_mut(), i * stride_c, c_span);
        }
    }
}

/// `cublasGemmBatched` with per-problem shapes: every descriptor addresses
/// its own windows of the `a`, `b` and `c` buffers.
///
/// # Panics
/// Panics if output windows overlap or any window is out of bounds.
pub fn gemm_batched_varied<T: Scalar>(
    device: &Device,
    stream: Stream,
    descs: &[GemmDesc<T>],
    a: &DeviceBuffer<'_, T>,
    b: &DeviceBuffer<'_, T>,
    c: &mut DeviceBuffer<'_, T>,
) {
    if descs.is_empty() {
        return;
    }
    for d in descs {
        assert!(
            d.a_offset + d.a_span() <= a.len(),
            "gemm_batched_varied: A out of bounds"
        );
        assert!(
            d.b_offset + d.b_span() <= b.len(),
            "gemm_batched_varied: B out of bounds"
        );
        assert!(
            d.c_offset + d.c_span() <= c.len(),
            "gemm_batched_varied: C out of bounds"
        );
    }
    let flops: u64 = descs.iter().map(|d| d.flops()).sum();
    device.record_launch("gemm_batched", descs.len(), flops, stream.id());
    // No error channel on gemm (see `getrs_batched_varied`): FailLaunch
    // degrades to NaN poisoning of the output windows.
    let mut poison = false;
    match device.take_launch_fault("gemm_batched") {
        Some((FaultAction::FailLaunch | FaultAction::PoisonNan, _)) => poison = true,
        Some((FaultAction::Delay { micros }, _)) => {
            std::thread::sleep(std::time::Duration::from_micros(micros))
        }
        None => {}
    }

    let a_data = a.data();
    let b_data = b.data();
    let windows: Vec<MatWindow> = descs
        .iter()
        .map(|d| MatWindow {
            offset: d.c_offset,
            rows: d.m,
            cols: d.n,
            ld: d.ldc,
        })
        .collect();
    process_windows_mut(c.data_mut(), &windows, device.is_parallel(), |i, c_view| {
        let d = &descs[i];
        gemm_into(
            d,
            &a_data[d.a_offset..d.a_offset + d.a_span()],
            &b_data[d.b_offset..d.b_offset + d.b_span()],
            c_view,
        );
    });
    if poison {
        for d in descs {
            poison_span(c.data_mut(), d.c_offset, d.c_span());
        }
    }
}

/// Varied batched gemm whose `A` operand lives in the same buffer as the
/// output `C` (used for the in-place low-rank update of Algorithm 3/4:
/// `Ybig(:, 1:rl) <- Ybig(:, 1:rl) - Y^{l+1} ⊙ W`).
///
/// The buffer is split at the smallest `A` offset: every `C` window must end
/// at or before it, and each product reads its `A` window in place above the
/// split, with its stored `lda`.  In `Ybig` the split is the column boundary
/// between the prefix (the `C` windows) and the next level's block (`A`).
///
/// # Panics
/// Panics if any window is out of bounds, a `C` window reaches past the
/// smallest `A` offset, or the `C` windows overlap.
pub fn gemm_batched_aliased<T: Scalar>(
    device: &Device,
    stream: Stream,
    descs: &[GemmDesc<T>],
    ac: &mut DeviceBuffer<'_, T>,
    b: &DeviceBuffer<'_, T>,
) {
    let Some(split) = descs.iter().map(|d| d.a_offset).min() else {
        return;
    };
    for d in descs {
        assert!(
            d.a_offset + d.a_span() <= ac.len(),
            "gemm_batched_aliased: A out of bounds"
        );
        assert!(
            d.b_offset + d.b_span() <= b.len(),
            "gemm_batched_aliased: B out of bounds"
        );
        assert!(
            d.c_offset + d.c_span() <= ac.len(),
            "gemm_batched_aliased: C out of bounds"
        );
        assert!(
            d.c_offset + d.c_span() <= split,
            "gemm_batched_aliased: C window reaches past the smallest A offset {split}"
        );
    }
    let flops: u64 = descs.iter().map(|d| d.flops()).sum();
    device.record_launch("gemm_batched_aliased", descs.len(), flops, stream.id());
    // No error channel on gemm (see `getrs_batched_varied`): FailLaunch
    // degrades to NaN poisoning of the output windows.
    let mut poison = false;
    match device.take_launch_fault("gemm_batched_aliased") {
        Some((FaultAction::FailLaunch | FaultAction::PoisonNan, _)) => poison = true,
        Some((FaultAction::Delay { micros }, _)) => {
            std::thread::sleep(std::time::Duration::from_micros(micros))
        }
        None => {}
    }

    let b_data = b.data();
    let windows: Vec<MatWindow> = descs
        .iter()
        .map(|d| MatWindow {
            offset: d.c_offset,
            rows: d.m,
            cols: d.n,
            ld: d.ldc,
        })
        .collect();
    let (c_data, a_data) = ac.data_mut().split_at_mut(split);
    process_windows_mut(c_data, &windows, device.is_parallel(), |i, c_view| {
        let d = &descs[i];
        let a_off = d.a_offset - split;
        gemm_into(
            d,
            &a_data[a_off..a_off + d.a_span()],
            &b_data[d.b_offset..d.b_offset + d.b_span()],
            c_view,
        );
    });
    if poison {
        for d in descs {
            poison_span(ac.data_mut(), d.c_offset, d.c_span());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hodlr_la::random::random_matrix;
    use hodlr_la::{Complex64, DenseMatrix, RealScalar};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn upload_matrices<'d, T: Scalar>(
        dev: &'d Device,
        mats: &[DenseMatrix<T>],
    ) -> (DeviceBuffer<'d, T>, usize) {
        let stride = mats.iter().map(|m| m.data().len()).max().unwrap_or(0);
        let mut host = vec![T::zero(); stride * mats.len()];
        for (i, m) in mats.iter().enumerate() {
            host[i * stride..i * stride + m.data().len()].copy_from_slice(m.data());
        }
        (DeviceBuffer::from_host(dev, &host), stride)
    }

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

        gemm_strided_batched(
            &dev,
            Stream::default(),
            Op::None,
            Op::None,
            m,
            n,
            k,
            T::one(),
            &a_buf,
            m,
            stride_a,
            &b_buf,
            k,
            stride_b,
            T::zero(),
            &mut c_buf,
            m,
            m * n,
            batch,
        );

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
        gemm_strided_batched(
            &dev,
            Stream::default(),
            Op::None,
            Op::None,
            3,
            3,
            3,
            2.0,
            &a_buf,
            3,
            9,
            &b_buf,
            3,
            9,
            3.0,
            &mut c_buf,
            3,
            9,
            1,
        );
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
        gemm_strided_batched(
            &dev,
            Stream::default(),
            Op::None,
            Op::None,
            4,
            3,
            5,
            1.0,
            &a_buf,
            4,
            0,
            &b_buf,
            5,
            0,
            0.0,
            &mut c_buf,
            4,
            12,
            2,
        );
        assert_eq!(dev.counters().flops, 2 * 2 * 4 * 3 * 5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let dev = Device::new();
        let a_buf = DeviceBuffer::<f64>::zeros(&dev, 4);
        let b_buf = DeviceBuffer::<f64>::zeros(&dev, 4);
        let mut c_buf = DeviceBuffer::<f64>::zeros(&dev, 1);
        gemm_strided_batched(
            &dev,
            Stream::default(),
            Op::None,
            Op::None,
            2,
            2,
            2,
            1.0,
            &a_buf,
            2,
            4,
            &b_buf,
            2,
            4,
            0.0,
            &mut c_buf,
            2,
            4,
            1,
        );
    }
}
