//! The batched factorization and solve (Algorithms 3–4) on the virtual
//! batched-BLAS device — the "GPU HODLR Solver" of the paper's evaluation.
//!
//! The solver uploads `Dbig`, `Ubig` and `Vbig` to the device once (the
//! paper measures this PCIe copy separately from the factorization).  The
//! factorization overwrites `Dbig` with the leaf factors and `Ubig` with
//! `Ybig`, so those two are copied: the leaf blocks straight into their
//! offsets of `Dbig`, with no host staging copy, and every copy as pool
//! tasks over fixed pieces ([`DeviceBuffer::from_host_blocks`]), since the
//! cost of writing a fresh allocation is its first-touch page faults.
//! Nothing writes `Vbig`, so the device reads it in place from the host
//! matrix's allocation, a [`SharedBuffer`] metered as the same upload: the
//! device's counts are those of a copy, and only resident memory and upload
//! time differ.  The solver then runs
//! exactly the kernel sequence of Algorithm 3: per level, two batched
//! gemms to form the coupling matrices and the work matrix `W`, a batched
//! factorization, a batched solve, and one batched gemm update of `Ybig`.
//! The solve stage (Algorithm 4) reuses the stored factors with one batched
//! solve and two batched gemms per level.  At the top few levels, where
//! the batch size is tiny, launches are issued on a round-robin pool of
//! streams, mirroring the paper's use of CUDA streams.
//!
//! The sweep is written once, generic over the [`FactorKind`] that hands
//! its dense kernels to the kind-agnostic factor and solve launches of
//! `hodlr-batch`: `hodlr-la`'s LU kernels under the labels `getrf` /
//! `getrs` for [`GpuSolver`], its symmetric ones under `potrf` / `potrs`
//! for [`GpuSymmetricSolver`].  The per-entry pivots or ladder rungs stay
//! host-side.  It is the one sweep of both backends:
//! [`SerialSolver`](crate::SerialSolver) runs it on a device of its own.

use crate::layout::LevelLayout;
use crate::matrix::HodlrMatrix;
use crate::symmetric::{Block, FactorKind, Lu, Symmetric};
use hodlr_batch::{
    gemm_batched_aliased, gemm_batched_varied, Device, DeviceBuffer, FactorDesc, GemmDesc,
    SharedBuffer, SolveDesc, Stream, StreamPool,
};
use hodlr_la::{DenseMatrix, HodlrError, Op, Scalar};
use hodlr_tree::ClusterTree;
use rayon::prelude::*;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

/// Below this many nodes in a level, independent kernels are cycled over a
/// stream pool instead of one big batch (Section III-C).
const STREAM_THRESHOLD: usize = 4;

/// The GPU-style HODLR solver: device-resident data plus the stored
/// factorization state.  It keeps a clone of its [`Device`] handle, owns
/// its buffers and holds a reference count on the host matrix's `Vbig`, so
/// it borrows nothing and may outlive the matrix.
pub struct BatchedSolver<'d, T: Scalar, K: FactorKind<T>> {
    device: Device,
    pub(crate) kind: K,
    pub(crate) tree: ClusterTree,
    pub(crate) layout: LevelLayout,
    /// Row range of every leaf, in leaf order.
    leaf_ranges: Vec<Range<usize>>,
    /// Element offset of every leaf block inside `dbig`.
    diag_offsets: Vec<usize>,
    /// Leaf diagonal blocks, factorized in place by
    /// [`BatchedSolver::factorize`].
    dbig: DeviceBuffer<T>,
    /// The flattened bases; overwritten with `Ybig` by the factorization.
    pub(crate) ybig: DeviceBuffer<T>,
    /// The flattened right bases, read in place from the host matrix.
    vbig: SharedBuffer<T>,
    /// Host-side metadata (pivots or ladder rungs) of the leaf factors.
    pub(crate) diag_meta: Vec<K::Meta>,
    /// Per level: the coupling matrices `Kbig` (factorized in place).
    k_bufs: Vec<DeviceBuffer<T>>,
    /// Per level: host-side metadata of every coupling factor.
    k_meta: Vec<Vec<K::Meta>>,
    progress: Progress,
    streams: StreamPool,
    /// Vestigial: the solver borrows nothing.  `'d` stays only because
    /// perfbench (`perfbench/src/solver.rs`) names `GpuSolver<'d, f64>` /
    /// `GpuSymmetricSolver<'d, f64>` inside an `enum Batched<'d>`, which
    /// must use its lifetime.
    _lifetime: PhantomData<&'d ()>,
}

/// How far a solver has got with its one factorization.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Progress {
    /// Uploaded; not factorized yet.
    Uploaded,
    /// Factorized: the buffers hold the factors.
    Factored,
    /// A factorization failed part-way, leaving `Dbig` / `Ybig` partly
    /// overwritten.
    Failed,
}

/// Algorithms 3–4 with batched LU (`getrf` / `getrs`).
pub type GpuSolver<'d, T> = BatchedSolver<'d, T, Lu>;

/// Algorithms 3–4 with batched symmetric factors (`potrf` / `potrs`).
pub type GpuSymmetricSolver<'d, T> = BatchedSolver<'d, T, Symmetric>;

impl<'d, T: Scalar, K: FactorKind<T>> BatchedSolver<'d, T, K> {
    /// Upload a HODLR matrix to the device, metering the transferred bytes.
    /// Each leaf block is copied into its offset of `Dbig` directly, and
    /// both copies run as pool tasks on the current pool (on the calling
    /// thread for a [`Device::sequential`] device).
    pub(crate) fn upload(device: &Device, matrix: &HodlrMatrix<T>, kind: K) -> Self {
        let tree = matrix.tree().clone();
        let layout = matrix.layout().clone();
        let n = matrix.n();
        let total_cols = layout.total_cols();

        let leaf_ranges: Vec<Range<usize>> = tree.leaves().map(|leaf| tree.range(leaf)).collect();
        let mut diag_offsets = Vec::with_capacity(leaf_ranges.len());
        let mut blocks: Vec<&[T]> = Vec::with_capacity(leaf_ranges.len());
        let mut offset = 0;
        for (leaf_idx, range) in leaf_ranges.iter().enumerate() {
            debug_assert_eq!(matrix.diag_block(leaf_idx).rows(), range.len());
            let block = matrix.diag_block(leaf_idx).data();
            diag_offsets.push(offset);
            blocks.push(block);
            offset += block.len();
        }

        let dbig = DeviceBuffer::from_host_blocks(device, &blocks);
        // The factorization overwrites Ybig, so it is a copy of Ubig; it
        // only reads Vbig, so the device reads Vbig in place, for shared
        // (Hermitian) bases the very allocation Ybig was copied from.
        let ybig = DeviceBuffer::from_host(device, matrix.ubig().data());
        let vbig = SharedBuffer::new(device, Arc::clone(matrix.shared_vbig()));
        debug_assert_eq!(ybig.len(), n * total_cols);

        BatchedSolver {
            device: device.clone(),
            kind,
            tree,
            layout,
            leaf_ranges,
            diag_offsets,
            dbig,
            ybig,
            vbig,
            diag_meta: Vec::new(),
            k_bufs: Vec::new(),
            k_meta: Vec::new(),
            progress: Progress::Uploaded,
            streams: StreamPool::new(4),
            _lifetime: PhantomData,
        }
    }

    /// The device this solver runs on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// `true` once [`BatchedSolver::factorize`] has completed successfully.
    pub fn is_factored(&self) -> bool {
        self.progress == Progress::Factored
    }

    /// Matrix size `N`.
    pub fn n(&self) -> usize {
        self.tree.n()
    }

    /// Storage of the factorization in scalar entries (the `mem` column):
    /// both basis stacks, and the leaf factors and (after factorization)
    /// the per-level coupling factors, each counted by
    /// [`FactorKind::factor_entries`] — square for LU, the lower triangle
    /// for the symmetric kind, which is all its solve reads although its
    /// device buffers hold the square.  This is the device model's count,
    /// so `Vbig` counts in full although the device reads it in place from
    /// the host matrix.
    pub fn storage_entries(&self) -> usize {
        let leaves: usize = (self.leaf_ranges.iter())
            .map(|r| K::factor_entries(r.len()))
            .sum();
        let coupling: usize = (self.k_meta.iter().enumerate())
            .map(|(level, meta)| meta.len() * K::factor_entries(2 * self.layout.width(level + 1)))
            .sum();
        self.ybig.len() + self.vbig.len() + leaves + coupling
    }

    /// Stream to issue a launch of `batch` problems on: the default stream
    /// for large batches, a pooled stream for the tiny top-level batches.
    fn stream_for(&self, batch: usize) -> Stream {
        if batch < STREAM_THRESHOLD {
            self.streams.next_stream()
        } else {
            Stream::default_stream()
        }
    }

    /// One descriptor per leaf diagonal block in `dbig`.
    fn leaf_descs(&self) -> Vec<FactorDesc> {
        self.leaf_ranges
            .iter()
            .zip(&self.diag_offsets)
            .map(|(range, &offset)| FactorDesc {
                n: range.len(),
                offset,
                ld: range.len(),
            })
            .collect()
    }

    /// Solve descriptors pairing every leaf factor with its rows of an
    /// `N x nrhs` right-hand side.
    fn leaf_solve_descs(&self, nrhs: usize) -> Vec<SolveDesc> {
        self.leaf_ranges
            .iter()
            .zip(&self.diag_offsets)
            .map(|(range, &offset)| SolveDesc {
                n: range.len(),
                nrhs,
                a_offset: offset,
                lda: range.len(),
                b_offset: range.start,
                ldb: self.n(),
            })
            .collect()
    }

    /// One gemm descriptor per child of every parent, in (parent, child)
    /// order; `desc` receives the parent's batch index, the child's index
    /// within the pair, and the child's row range.
    fn per_child(
        &self,
        parents: &[usize],
        desc: impl Fn(usize, usize, Range<usize>) -> GemmDesc<T>,
    ) -> Vec<GemmDesc<T>> {
        let mut descs = Vec::with_capacity(2 * parents.len());
        for (p, &gamma) in parents.iter().enumerate() {
            let (alpha, beta) = self.tree.children(gamma).expect("internal node");
            for (child_idx, child) in [alpha, beta].into_iter().enumerate() {
                descs.push(desc(p, child_idx, self.tree.range(child)));
            }
        }
        descs
    }

    /// `W = V^* ⊙ X` for the `cols` columns of an `N`-row `X`, stacked
    /// child-over-child per parent so each parent's right-hand side is a
    /// contiguous `2w x cols` block.
    fn project_descs(
        &self,
        parents: &[usize],
        child_level: usize,
        cols: usize,
    ) -> Vec<GemmDesc<T>> {
        let n = self.n();
        let w = self.layout.width(child_level);
        let col_start = self.layout.col_range(child_level).start;
        self.per_child(parents, |p, child_idx, range| GemmDesc {
            m: w,
            n: cols,
            k: range.len(),
            alpha: T::one(),
            beta: T::zero(),
            op_a: Op::ConjTrans,
            op_b: Op::None,
            a_offset: col_start * n + range.start,
            lda: n,
            b_offset: range.start,
            ldb: n,
            c_offset: p * 2 * w * cols + child_idx * w,
            ldc: 2 * w,
        })
    }

    /// `X -= Y ⊙ W`, the update reading the stacked `W` of
    /// [`project_descs`](Self::project_descs).
    fn update_descs(&self, parents: &[usize], child_level: usize, cols: usize) -> Vec<GemmDesc<T>> {
        let n = self.n();
        let w = self.layout.width(child_level);
        let col_start = self.layout.col_range(child_level).start;
        self.per_child(parents, |p, child_idx, range| GemmDesc {
            m: range.len(),
            n: cols,
            k: w,
            alpha: -T::one(),
            beta: T::one(),
            op_a: Op::None,
            op_b: Op::None,
            a_offset: col_start * n + range.start,
            lda: n,
            b_offset: p * 2 * w * cols + child_idx * w,
            ldb: 2 * w,
            c_offset: range.start,
            ldc: n,
        })
    }

    /// Algorithm 3: batched factorization, in place in the uploaded
    /// buffers, so it runs at most once per upload: once it has succeeded,
    /// a further call returns `Ok(())` without a launch.
    ///
    /// # Errors
    /// [`HodlrError::SingularPivot`] naming the batch entry whose block was
    /// singular; for [`GpuSymmetricSolver`] with
    /// [`Symmetry::PositiveDefinite`](crate::Symmetry::PositiveDefinite),
    /// [`HodlrError::NotPositiveDefinite`] if a leaf Cholesky pivot fails;
    /// [`HodlrError::DeviceFault`] from an injected launch fault.  A failed
    /// call leaves the buffers partly factorized, so every later call
    /// returns [`HodlrError::InvalidConfig`] without a launch: upload the
    /// matrix again to retry.
    pub fn factorize(&mut self) -> Result<(), HodlrError> {
        match self.progress {
            // `Failed` until the sweep below completes, so an early `?`
            // return leaves it that way.
            Progress::Uploaded => self.progress = Progress::Failed,
            Progress::Factored => return Ok(()),
            Progress::Failed => {
                return Err(HodlrError::config(
                    "a failed batched factorization left its buffers partly overwritten; \
                     upload the matrix again to retry",
                ))
            }
        }
        let n = self.n();
        let levels = self.tree.levels();
        let total_cols = self.layout.total_cols();

        // --- leaf level (lines 2-3) ----------------------------------------
        let leaf_descs = self.leaf_descs();
        let stream = self.stream_for(leaf_descs.len());
        self.diag_meta = self.kind.factor_batched(
            &self.device,
            stream,
            Block::Leaf,
            &leaf_descs,
            &mut self.dbig,
            |entry| {
                entry.map_or("leaf diagonal blocks".into(), |leaf| {
                    format!("diagonal block of leaf {leaf}")
                })
            },
        )?;

        if total_cols > 0 {
            let solve_descs = self.leaf_solve_descs(total_cols);
            let stream = self.stream_for(solve_descs.len());
            K::solve_batched(
                &self.device,
                stream,
                &solve_descs,
                &self.dbig,
                &self.diag_meta,
                &mut self.ybig,
            );
        }

        // --- internal levels, deepest first (lines 4-11) -------------------
        let mut k_bufs_rev: Vec<DeviceBuffer<T>> = Vec::with_capacity(levels);
        let mut k_meta_rev: Vec<Vec<K::Meta>> = Vec::with_capacity(levels);

        for level in (0..levels).rev() {
            let child_level = level + 1;
            let w = self.layout.width(child_level);
            let prefix = self.layout.prefix_cols(level);
            let child_col_start = self.layout.col_range(child_level).start;
            let parents: Vec<usize> = self.tree.level_nodes(level).collect();
            let batch = parents.len();

            if w == 0 {
                k_bufs_rev.push(DeviceBuffer::zeros(&self.device, 0));
                k_meta_rev.push(Vec::new());
                continue;
            }

            // Coupling-matrix buffer: one (2w x 2w) block per parent, with
            // the identity blocks written by a small device-side kernel.
            let k_stride = 4 * w * w;
            let mut k_buf = DeviceBuffer::<T>::zeros(&self.device, batch * k_stride);
            write_coupling_identities(&self.device, &mut k_buf, batch, w);

            // Line 5: T = V^* ⊙ Y for every child, written straight into the
            // diagonal blocks of K.
            let t_descs = self.per_child(&parents, |p, child_idx, range| GemmDesc {
                m: w,
                n: w,
                k: range.len(),
                alpha: T::one(),
                beta: T::zero(),
                op_a: Op::ConjTrans,
                op_b: Op::None,
                a_offset: child_col_start * n + range.start,
                lda: n,
                b_offset: child_col_start * n + range.start,
                ldb: n,
                c_offset: p * k_stride + child_idx * (w * 2 * w + w),
                ldc: 2 * w,
            });
            let stream = self.stream_for(batch);
            gemm_batched_varied(
                &self.device,
                stream,
                &t_descs,
                &self.vbig,
                &self.ybig,
                &mut k_buf,
            );

            // Line 6: W = V^* ⊙ Ybig(:, 1:prefix).
            let mut w_buf = DeviceBuffer::<T>::zeros(&self.device, batch * 2 * w * prefix);
            if prefix > 0 {
                let w_descs = self.project_descs(&parents, child_level, prefix);
                let stream = self.stream_for(batch);
                gemm_batched_varied(
                    &self.device,
                    stream,
                    &w_descs,
                    &self.vbig,
                    &self.ybig,
                    &mut w_buf,
                );
            }

            // Line 8: batched factorization of the coupling matrices.
            let k_descs = coupling_descs(batch, w);
            let stream = self.stream_for(batch);
            let meta = self.kind.factor_batched(
                &self.device,
                stream,
                Block::Coupling,
                &k_descs,
                &mut k_buf,
                |entry| match entry {
                    Some(p) => format!("coupling matrix of node {}", parents[p]),
                    None => format!("coupling matrices at level {level}"),
                },
            )?;

            if prefix > 0 {
                // Line 9: W <- K^{-1} ⊙ W.
                let solve_descs = coupling_solve_descs(batch, w, prefix);
                let stream = self.stream_for(batch);
                K::solve_batched(
                    &self.device,
                    stream,
                    &solve_descs,
                    &k_buf,
                    &meta,
                    &mut w_buf,
                );

                // Line 10: Ybig(:, 1:prefix) -= Y^{l+1} ⊙ W (A and C alias Ybig).
                let update_descs = self.update_descs(&parents, child_level, prefix);
                let stream = self.stream_for(batch);
                gemm_batched_aliased(&self.device, stream, &update_descs, &mut self.ybig, &w_buf);
            }

            k_bufs_rev.push(k_buf);
            k_meta_rev.push(meta);
        }

        // Stored deepest-level first in the loop above; store per level index.
        k_bufs_rev.reverse();
        k_meta_rev.reverse();
        self.k_bufs = k_bufs_rev;
        self.k_meta = k_meta_rev;
        self.progress = Progress::Factored;
        Ok(())
    }

    /// Log-determinant of the factorized matrix via the product form of
    /// Section III-E (a): `A = A^(L+1) ... A^(1)`, where the determinant of
    /// every leaf block comes from its factor and the determinant of every
    /// 2x2 coupling block equals `(-1)^w det(K_gamma)` (Sylvester /
    /// Schur-complement identity).  The determinant parts of every leaf
    /// block and coupling matrix are gathered with one launch per buffer
    /// and folded in a fixed order: leaves first, then coupling levels from
    /// the top of the tree down.
    ///
    /// Returns `(log|det(A)|, sign)` where `sign` is a unit-modulus scalar
    /// (`1` for a positive-definite matrix).
    ///
    /// # Errors
    /// [`HodlrError::NotFactorized`] when [`BatchedSolver::factorize`] has
    /// not completed yet.
    pub fn log_det(&self) -> Result<(T::Real, T), HodlrError> {
        if !self.is_factored() {
            return Err(HodlrError::NotFactorized);
        }
        let mut log_abs = <T::Real as Scalar>::zero();
        let mut sign = T::one();

        // Leaf diagonal blocks, in leaf order.
        let leaf_descs = self.leaf_descs();
        let stream = self.stream_for(leaf_descs.len());
        K::log_det_batched(
            &self.device,
            stream,
            &leaf_descs,
            &self.dbig,
            &self.diag_meta,
            |la, s| {
                log_abs += la;
                sign *= s;
            },
        );

        // Coupling matrices, level 0 (top split) downwards, node order
        // within a level.
        for level in 0..self.tree.levels() {
            let w = self.layout.width(level + 1);
            if w == 0 {
                continue;
            }
            let meta = &self.k_meta[level];
            let descs = coupling_descs(meta.len(), w);
            let stream = self.stream_for(meta.len());
            K::log_det_batched(
                &self.device,
                stream,
                &descs,
                &self.k_bufs[level],
                meta,
                |la, s| {
                    log_abs += la;
                    sign *= s;
                    // det([[A, I], [I, B]]) = (-1)^w det(K): the 2x2
                    // coupling block's determinant differs from det(K_gamma)
                    // by the permutation that swaps the two identity blocks.
                    if w % 2 == 1 {
                        sign = -sign;
                    }
                },
            );
        }
        Ok((log_abs, sign))
    }

    /// Algorithm 4: batched solve of `A x = b` for one right-hand side.
    ///
    /// # Errors
    /// [`HodlrError::NotFactorized`] before [`BatchedSolver::factorize`],
    /// and [`HodlrError::DimensionMismatch`] when `b` has length `!= n`.
    pub fn solve(&self, b: &[T]) -> Result<Vec<T>, HodlrError> {
        if !self.is_factored() {
            return Err(HodlrError::NotFactorized);
        }
        HodlrError::check_dims("right-hand side", self.n(), b.len())?;
        Ok(self.solve_matrix_host(b, 1))
    }

    /// Algorithm 4 with multiple right-hand sides given as an `N x k` matrix.
    ///
    /// # Errors
    /// [`HodlrError::NotFactorized`] before [`BatchedSolver::factorize`],
    /// and [`HodlrError::DimensionMismatch`] when `b` has `!= n` rows.
    pub fn solve_matrix(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>, HodlrError> {
        if !self.is_factored() {
            return Err(HodlrError::NotFactorized);
        }
        HodlrError::check_dims("right-hand side block rows", self.n(), b.rows())?;
        let data = self.solve_matrix_host(b.data(), b.cols());
        Ok(DenseMatrix::from_col_major(b.rows(), b.cols(), data))
    }

    /// Blocked multi-RHS solve: pack `rhs` into one `N x k` device matrix
    /// and run a single Algorithm-4 sweep.  Every level then issues one
    /// batched gemm / batched solve launch covering all `k` right-hand
    /// sides, instead of the `k` separate launch sequences a per-RHS
    /// [`BatchedSolver::solve`] loop would issue — the difference is
    /// visible in the [`Device`] launch counters.
    ///
    /// # Errors
    /// [`HodlrError::NotFactorized`] before [`BatchedSolver::factorize`],
    /// and [`HodlrError::DimensionMismatch`] naming the first right-hand
    /// side whose length is `!= n`.
    pub fn solve_block(&self, rhs: &[impl AsRef<[T]> + Sync]) -> Result<Vec<Vec<T>>, HodlrError> {
        if !self.is_factored() {
            return Err(HodlrError::NotFactorized);
        }
        let n = self.n();
        let k = rhs.len();
        for (j, col) in rhs.iter().enumerate() {
            HodlrError::check_dims(format!("right-hand side {j}"), n, col.as_ref().len())?;
        }
        // Pack the right-hand sides into one column-major N x k host matrix;
        // the columns are disjoint, so the scatter runs on the worker pool.
        let mut packed = vec![T::zero(); n * k];
        packed
            .par_chunks_mut(n)
            .enumerate()
            .for_each(|(j, col)| col.copy_from_slice(rhs[j].as_ref()));
        let x = self.solve_matrix_host(&packed, k);
        let mut out = vec![Vec::new(); k];
        out.par_iter_mut()
            .enumerate()
            .for_each(|(j, col)| *col = x[j * n..(j + 1) * n].to_vec());
        Ok(out)
    }

    /// Algorithm 4 in place on the `N x k` block `x`, which the device
    /// takes over ([`DeviceBuffer::adopt`]) and hands back: no copy of it.
    ///
    /// # Errors
    /// [`HodlrError::NotFactorized`] before [`BatchedSolver::factorize`],
    /// and [`HodlrError::DimensionMismatch`] when `x` has `!= n` rows.
    pub fn solve_matrix_in_place(&self, x: &mut DenseMatrix<T>) -> Result<(), HodlrError> {
        if !self.is_factored() {
            return Err(HodlrError::NotFactorized);
        }
        HodlrError::check_dims("right-hand side block rows", self.n(), x.rows())?;
        let (n, nrhs) = (x.rows(), x.cols());
        if nrhs > 0 {
            let block = std::mem::replace(x, DenseMatrix::zeros(0, 0)).into_data();
            let solved = self.sweep(DeviceBuffer::adopt(&self.device, block));
            *x = DenseMatrix::from_col_major(n, nrhs, solved);
        }
        Ok(())
    }

    /// Upload `b`, an `N x nrhs` block, and run the sweep on it; the public
    /// entry points have already validated the factorization state and the
    /// right-hand-side shape.  No right-hand sides means no launch and no
    /// transfer.
    fn solve_matrix_host(&self, b: &[T], nrhs: usize) -> Vec<T> {
        debug_assert_eq!(b.len(), self.n() * nrhs);
        if nrhs == 0 {
            return Vec::new();
        }
        self.sweep(DeviceBuffer::from_host(&self.device, b))
    }

    /// The shared Algorithm-4 sweep on the right-hand sides in `x_buf`,
    /// whose solutions it downloads (metered D2H transfer).
    fn sweep(&self, mut x_buf: DeviceBuffer<T>) -> Vec<T> {
        debug_assert!(self.is_factored());
        let nrhs = x_buf.len() / self.n();
        let levels = self.tree.levels();

        // Leaf sweep (line 2).
        let solve_descs = self.leaf_solve_descs(nrhs);
        let stream = self.stream_for(solve_descs.len());
        K::solve_batched(
            &self.device,
            stream,
            &solve_descs,
            &self.dbig,
            &self.diag_meta,
            &mut x_buf,
        );

        // Level sweep, deepest first (lines 3-7).
        for level in (0..levels).rev() {
            let child_level = level + 1;
            let w = self.layout.width(child_level);
            if w == 0 {
                continue;
            }
            let parents: Vec<usize> = self.tree.level_nodes(level).collect();
            let batch = parents.len();

            // w = V^* ⊙ x (line 4), stacked per parent.
            let mut w_buf = DeviceBuffer::<T>::zeros(&self.device, batch * 2 * w * nrhs);
            let w_descs = self.project_descs(&parents, child_level, nrhs);
            let stream = self.stream_for(batch);
            gemm_batched_varied(
                &self.device,
                stream,
                &w_descs,
                &self.vbig,
                &x_buf,
                &mut w_buf,
            );

            // w <- K^{-1} ⊙ w (line 5).
            let solve_descs = coupling_solve_descs(batch, w, nrhs);
            let stream = self.stream_for(batch);
            K::solve_batched(
                &self.device,
                stream,
                &solve_descs,
                &self.k_bufs[level],
                &self.k_meta[level],
                &mut w_buf,
            );

            // x <- x - Y ⊙ w (line 6).
            let update_descs = self.update_descs(&parents, child_level, nrhs);
            let stream = self.stream_for(batch);
            gemm_batched_varied(
                &self.device,
                stream,
                &update_descs,
                &self.ybig,
                &w_buf,
                &mut x_buf,
            );
        }

        x_buf.into_host()
    }
}

/// One descriptor per `(2w x 2w)` coupling matrix of a level's `Kbig`.
fn coupling_descs(batch: usize, w: usize) -> Vec<FactorDesc> {
    (0..batch)
        .map(|p| FactorDesc {
            n: 2 * w,
            offset: p * 4 * w * w,
            ld: 2 * w,
        })
        .collect()
}

/// Solve descriptors pairing every coupling factor with its parent's
/// contiguous `2w x nrhs` block of the stacked `W`.
fn coupling_solve_descs(batch: usize, w: usize, nrhs: usize) -> Vec<SolveDesc> {
    (0..batch)
        .map(|p| SolveDesc {
            n: 2 * w,
            nrhs,
            a_offset: p * 4 * w * w,
            lda: 2 * w,
            b_offset: p * 2 * w * nrhs,
            ldb: 2 * w,
        })
        .collect()
}

/// Write the two identity blocks of every coupling matrix
/// `K = [[T_a, I], [I, T_b]]` (a small device-side kernel in the real
/// implementation; here a direct write into device memory, metered as one
/// kernel launch with no flops).
fn write_coupling_identities<T: Scalar>(
    device: &Device,
    k_buf: &mut DeviceBuffer<T>,
    batch: usize,
    w: usize,
) {
    // No error channel: FailLaunch degrades to NaN poisoning of the
    // identity entries.
    let poison = device
        .launch("assemble_coupling_identity", Stream::default(), batch, 0)
        .unwrap_or(true);
    let one = if poison {
        T::from_f64(f64::NAN)
    } else {
        T::one()
    };
    let k_stride = 4 * w * w;
    let data = k_buf.data_mut();
    for p in 0..batch {
        let base = p * k_stride;
        for i in 0..w {
            // Block (0, 1): entry (i, w + i).
            data[base + (w + i) * 2 * w + i] = one;
            // Block (1, 0): entry (w + i, i).
            data[base + i * 2 * w + w + i] = one;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::random_hodlr;
    use hodlr_batch::DeviceRead;
    use hodlr_la::{Complex64, RealScalar};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_gpu_solver<T: Scalar>(n: usize, levels: usize, rank: usize, seed: u64, tol: f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m: HodlrMatrix<T> = random_hodlr(&mut rng, n, levels, rank);
        let device = Device::new();
        let mut gpu = GpuSolver::new(&device, &m);
        gpu.factorize().expect("diag dominant HODLR is invertible");
        let b: Vec<T> = hodlr_la::random::random_vector(&mut rng, n);
        let x = gpu.solve(&b).unwrap();
        assert!(
            m.relative_residual(&x, &b).to_f64() < tol,
            "residual {}",
            m.relative_residual(&x, &b).to_f64()
        );
        // Agreement with the serial factorization (Algorithms 1-2).
        let serial = m.factorize_serial().unwrap();
        let x_serial = serial.solve(&b);
        for (a, s) in x.iter().zip(x_serial.iter()) {
            assert!((*a - *s).abs().to_f64() < tol, "{a:?} vs {s:?}");
        }
    }

    #[test]
    fn gpu_solver_matches_serial_real() {
        check_gpu_solver::<f64>(64, 3, 3, 71, 1e-9);
        check_gpu_solver::<f64>(96, 2, 4, 72, 1e-9);
    }

    #[test]
    fn gpu_solver_matches_serial_complex() {
        check_gpu_solver::<Complex64>(48, 2, 2, 73, 1e-9);
    }

    #[test]
    fn gpu_solver_non_power_of_two_and_deep() {
        check_gpu_solver::<f64>(100, 3, 2, 74, 1e-9);
        check_gpu_solver::<f64>(256, 5, 1, 75, 1e-8);
    }

    #[test]
    fn gpu_solver_on_sequential_device_matches_parallel_device() {
        let mut rng = StdRng::seed_from_u64(76);
        let m: HodlrMatrix<f64> = random_hodlr(&mut rng, 64, 3, 2);
        let b: Vec<f64> = hodlr_la::random::random_vector(&mut rng, 64);

        let dev_par = Device::new();
        let mut gpu_par = GpuSolver::new(&dev_par, &m);
        gpu_par.factorize().unwrap();
        let x_par = gpu_par.solve(&b).unwrap();

        let dev_seq = Device::sequential();
        let mut gpu_seq = GpuSolver::new(&dev_seq, &m);
        gpu_seq.factorize().unwrap();
        let x_seq = gpu_seq.solve(&b).unwrap();

        for (a, s) in x_par.iter().zip(x_seq.iter()) {
            assert!((a - s).abs() < 1e-12);
        }
    }

    #[test]
    fn multiple_right_hand_sides() {
        let mut rng = StdRng::seed_from_u64(77);
        let m: HodlrMatrix<f64> = random_hodlr(&mut rng, 48, 2, 3);
        let device = Device::new();
        let mut gpu = GpuSolver::new(&device, &m);
        gpu.factorize().unwrap();
        let b: DenseMatrix<f64> = hodlr_la::random::random_matrix(&mut rng, 48, 3);
        let x = gpu.solve_matrix(&b).unwrap();
        let residual = m.matmat(&x).sub(&b).norm_max();
        assert!(residual < 1e-9, "residual {residual}");
    }

    #[test]
    fn counters_record_transfers_and_launches() {
        let mut rng = StdRng::seed_from_u64(78);
        let m: HodlrMatrix<f64> = random_hodlr(&mut rng, 64, 2, 2);
        let device = Device::new();
        let before_upload = device.counters();
        let mut gpu = GpuSolver::new(&device, &m);
        let after_upload = device.counters().since(&before_upload);
        // Dbig + Ubig + Vbig were copied host to device.
        let expected_upload = (m.storage_entries() * std::mem::size_of::<f64>()) as u64;
        assert_eq!(after_upload.h2d_bytes, expected_upload);

        let before_factor = device.counters();
        gpu.factorize().unwrap();
        let factor_counters = device.counters().since(&before_factor);
        assert!(factor_counters.kernel_launches > 0);
        assert!(factor_counters.flops > 0);
        // No host/device traffic during the factorization itself.
        assert_eq!(factor_counters.h2d_bytes, 0);

        let before_solve = device.counters();
        let b = vec![1.0; 64];
        let _ = gpu.solve(&b).unwrap();
        let solve_counters = device.counters().since(&before_solve);
        // b up, x down.
        assert_eq!(solve_counters.h2d_bytes, 64 * 8);
        assert_eq!(solve_counters.d2h_bytes, 64 * 8);
    }

    #[test]
    fn solving_before_factorizing_is_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(79);
        let m: HodlrMatrix<f64> = random_hodlr(&mut rng, 32, 2, 1);
        let device = Device::new();
        let mut gpu = GpuSolver::new(&device, &m);
        assert_eq!(
            gpu.solve(&vec![1.0; 32]).unwrap_err(),
            HodlrError::NotFactorized
        );
        assert_eq!(
            gpu.solve_matrix(&DenseMatrix::zeros(32, 2)).unwrap_err(),
            HodlrError::NotFactorized
        );
        assert_eq!(
            gpu.solve_block(&[vec![1.0; 32]]).unwrap_err(),
            HodlrError::NotFactorized
        );
        assert_eq!(gpu.log_det().unwrap_err(), HodlrError::NotFactorized);

        // After factorizing, wrong-size right-hand sides are named.
        gpu.factorize().unwrap();
        let err = gpu.solve(&vec![1.0; 31]).unwrap_err();
        assert_eq!(err, HodlrError::dims("right-hand side", 32, 31));
        let err = gpu
            .solve_matrix(&DenseMatrix::<f64>::zeros(30, 2))
            .unwrap_err();
        assert_eq!(err, HodlrError::dims("right-hand side block rows", 32, 30));
        let err = gpu.solve_block(&[vec![1.0; 32], vec![1.0; 3]]).unwrap_err();
        assert_eq!(err, HodlrError::dims("right-hand side 1", 32, 3));
    }

    #[test]
    fn log_det_matches_serial_bitwise() {
        fn check<T: Scalar>(n: usize, levels: usize, rank: usize, seed: u64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m: HodlrMatrix<T> = random_hodlr(&mut rng, n, levels, rank);
            let serial = m.factorize_serial().unwrap();
            let (log_serial, sign_serial) = serial.log_det();
            let device = Device::new();
            let mut gpu = GpuSolver::new(&device, &m);
            gpu.factorize().unwrap();
            let (log_gpu, sign_gpu) = gpu.log_det().unwrap();
            assert_eq!(
                log_serial.to_f64().to_bits(),
                log_gpu.to_f64().to_bits(),
                "{log_serial:?} vs {log_gpu:?}"
            );
            assert_eq!(sign_serial, sign_gpu);
        }
        check::<f64>(64, 3, 3, 81);
        check::<f64>(101, 3, 2, 82);
        check::<Complex64>(48, 2, 2, 83);
    }

    #[test]
    fn log_det_extraction_is_metered() {
        let mut rng = StdRng::seed_from_u64(84);
        let m: HodlrMatrix<f64> = random_hodlr(&mut rng, 64, 2, 2);
        let device = Device::new();
        let mut gpu = GpuSolver::new(&device, &m);
        gpu.factorize().unwrap();
        let before = device.counters();
        let _ = gpu.log_det().unwrap();
        let metered = device.counters().since(&before);
        // One gather launch for the leaves plus one per coupling level.
        assert_eq!(metered.kernel_launches, 1 + 2);
        assert!(metered.d2h_bytes > 0);
        assert_eq!(metered.h2d_bytes, 0);
    }

    /// The factorization overwrites `Dbig` and `Ybig` in place, so it runs
    /// once per upload: a second call after success launches nothing and
    /// keeps the factors, and after a launch fault part-way through (a
    /// coupling-level `getrf` or `potrf`: launch 6, 12 or 17 here) a retry
    /// is a typed error that launches nothing, instead of re-factoring the
    /// factors.
    #[test]
    fn factorize_runs_at_most_once_per_upload() {
        use crate::matrix::random_hodlr_spd;
        use crate::symmetric::Symmetry;
        use hodlr_batch::FaultPlan;

        fn check<K: FactorKind<f64>>(
            device: &Device,
            m: &HodlrMatrix<f64>,
            upload: impl Fn() -> BatchedSolver<'static, f64, K>,
        ) {
            let b: Vec<f64> = (0..m.n()).map(|i| (0.3 * i as f64).sin()).collect();
            let mut gpu = upload();
            gpu.factorize().unwrap();
            let x = gpu.solve(&b).unwrap();
            assert!(m.relative_residual(&x, &b) < 1e-12);
            let (again, c) = device.meter(|| gpu.factorize());
            assert_eq!((again, c.kernel_launches), (Ok(()), 0));
            assert_eq!(gpu.solve(&b).unwrap(), x);

            for k in [6, 12, 17] {
                let mut gpu = upload();
                device.arm_faults(FaultPlan::new().fail_launch(k));
                let first = gpu.factorize();
                assert!(
                    matches!(first, Err(HodlrError::DeviceFault { .. })),
                    "launch {k}: {first:?}"
                );
                device.disarm_faults();
                let (retry, c) = device.meter(|| gpu.factorize());
                assert!(
                    matches!(retry, Err(HodlrError::InvalidConfig { .. })),
                    "launch {k}: {retry:?}"
                );
                assert_eq!(c.kernel_launches, 0, "launch {k}");
                assert!(!gpu.is_factored());
                assert_eq!(gpu.solve(&b).unwrap_err(), HodlrError::NotFactorized);
            }
        }

        let mut rng = StdRng::seed_from_u64(7);
        let lu: HodlrMatrix<f64> = random_hodlr(&mut rng, 128, 3, 3);
        let spd: HodlrMatrix<f64> = random_hodlr_spd(&mut rng, 128, 3, 3);
        let device = Device::new();
        check(&device, &lu, || GpuSolver::new(&device, &lu));
        check(&device, &spd, || {
            GpuSymmetricSolver::new(&device, &spd, Symmetry::PositiveDefinite).unwrap()
        });
    }

    /// Every launch of a factorization, its `log_det`, a solve and a
    /// 3-column `solve_matrix` consults the fault plan once, as it is
    /// logged: a `PoisonNan` armed at ordinal `i` fires on the `i`-th
    /// logged launch, whatever its kernel (the coupling identities, the
    /// log-det gathers and every solve-sweep launch included).
    #[test]
    fn fault_ordinals_follow_the_launch_log() {
        use crate::matrix::random_hodlr_spd;
        use crate::symmetric::Symmetry;
        use hodlr_batch::FaultPlan;

        fn check<K: FactorKind<f64>>(upload: impl Fn(&Device) -> BatchedSolver<'static, f64, K>) {
            // Upload first, then log and count launches from a clean slate.
            let run = |plan: FaultPlan| {
                let device = Device::new().with_launch_log();
                let mut gpu = upload(&device);
                device.reset_counters();
                device.arm_faults(plan);
                if gpu.factorize().is_ok() {
                    let _ = gpu.log_det();
                    let b = DenseMatrix::from_fn(gpu.n(), 3, |i, j| (0.1 * (i + j) as f64).sin());
                    let _ = gpu.solve(b.col(0));
                    let _ = gpu.solve_matrix(&b);
                }
                (device.launch_log(), device.disarm_faults())
            };
            let (log, fired) = run(FaultPlan::new());
            assert!(fired.is_empty());
            for kernel in ["assemble_coupling_identity", "extract_"] {
                assert!(log.iter().any(|l| l.kernel.starts_with(kernel)), "{kernel}");
            }
            // Two solve sweeps follow the gathers, each a leaf solve and
            // three launches per level.
            let gathers = log.iter().rposition(|l| l.kernel.starts_with("extract_"));
            let sweeps = &log[gathers.expect("a gather") + 1..];
            let solves = sweeps.iter().filter(|l| l.kernel == K::SOLVE).count();
            assert_eq!((sweeps.len(), solves), (2 * (1 + 3 * 3), 2 * (1 + 3)));
            for (i, launch) in (1..).zip(&log) {
                let (_, fired) = run(FaultPlan::new().poison_launch(i));
                let fired: Vec<_> = fired.iter().map(|f| (f.launch, f.kernel)).collect();
                assert_eq!(fired, [(i, launch.kernel)], "ordinal {i}");
            }
        }

        let mut rng = StdRng::seed_from_u64(9);
        let lu: HodlrMatrix<f64> = random_hodlr(&mut rng, 128, 3, 3);
        let spd: HodlrMatrix<f64> = random_hodlr_spd(&mut rng, 128, 3, 3);
        check(|device| GpuSolver::new(device, &lu));
        check(|device| GpuSymmetricSolver::new(device, &spd, Symmetry::PositiveDefinite).unwrap());
    }

    /// The upload writes `Dbig` and `Ybig` bit for bit as the host holds
    /// them, reads `Vbig` in place, and meters exactly what a reference
    /// upload of the staged leaf blocks and the two bases does, on a
    /// parallel and a sequential device in pools of 1, 2 and 8 threads.
    /// `n = 4099` gives leaves of 512 and 513 rows, and the 2 MiB leaf
    /// blocks and 3 MiB bases span several copy pieces.
    #[test]
    fn upload_copies_bitwise_and_meters_as_a_reference_upload() {
        use crate::matrix::random_hodlr_spd;
        use crate::symmetric::Symmetry;

        fn bits(xs: &[f64]) -> Vec<u64> {
            xs.iter().map(|x| x.to_bits()).collect()
        }

        fn check<K: FactorKind<f64>>(
            m: &HodlrMatrix<f64>,
            upload: impl Fn(&Device) -> BatchedSolver<'static, f64, K> + Sync,
        ) {
            let leaves = m.tree().leaves().count();
            let staged: Vec<f64> = (0..leaves)
                .flat_map(|leaf| m.diag_block(leaf).data().to_vec())
                .collect();
            let reference = Device::sequential();
            let _held = [&staged, m.ubig().data(), m.vbig().data()]
                .map(|host| DeviceBuffer::from_host(&reference, host));
            for threads in [1, 2, 8] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("test pool");
                for device in [Device::new(), Device::sequential()] {
                    let gpu = pool.install(|| upload(&device));
                    let what = format!("{threads} threads, parallel {}", device.is_parallel());
                    assert_eq!(device.counters(), reference.counters(), "{what}");
                    assert_eq!(bits(gpu.dbig.data()), bits(&staged), "Dbig, {what}");
                    assert_eq!(bits(gpu.ybig.data()), bits(m.ubig().data()), "Ybig, {what}");
                    let vbig = gpu.vbig.data().as_ptr();
                    assert_eq!(vbig, m.vbig().data().as_ptr(), "Vbig, {what}");
                    let mut offset = 0;
                    for (leaf, &o) in gpu.diag_offsets.iter().enumerate() {
                        assert_eq!(o, offset, "leaf {leaf}, {what}");
                        offset += m.diag_block(leaf).data().len();
                    }
                }
            }
        }

        let mut rng = StdRng::seed_from_u64(10);
        let lu: HodlrMatrix<f64> = random_hodlr(&mut rng, 4099, 3, 48);
        let spd: HodlrMatrix<f64> = random_hodlr_spd(&mut rng, 4099, 3, 48);
        let sizes: Vec<usize> = lu.tree().leaves().map(|l| lu.tree().node_size(l)).collect();
        assert!(sizes.iter().any(|&s| s != sizes[0]), "leaves {sizes:?}");
        check(&lu, |device| GpuSolver::new(device, &lu));
        check(&spd, |device| {
            GpuSymmetricSolver::new(device, &spd, Symmetry::PositiveDefinite).unwrap()
        });
    }

    /// A factored solver reads the host matrix's own `Vbig` allocation (for
    /// shared bases, the `Ubig` one), while `Ybig`, which the factorization
    /// overwrites, is a copy; through both batched solvers and both serial
    /// factorizations.
    #[test]
    fn factored_solvers_read_the_hosts_vbig_in_place() {
        use crate::matrix::random_hodlr_spd;
        use crate::symmetric::Symmetry;

        fn check<K: FactorKind<f64>>(
            what: &str,
            m: &HodlrMatrix<f64>,
            solver: &BatchedSolver<'_, f64, K>,
        ) {
            assert!(solver.is_factored(), "{what}");
            let (vbig, ybig) = (solver.vbig.data(), solver.ybig.data());
            assert_eq!(vbig.as_ptr(), m.vbig().data().as_ptr(), "{what}: Vbig");
            assert_ne!(ybig.as_ptr(), m.ubig().data().as_ptr(), "{what}: Ybig");
        }

        let mut rng = StdRng::seed_from_u64(12);
        let lu: HodlrMatrix<f64> = random_hodlr(&mut rng, 128, 3, 3);
        let spd: HodlrMatrix<f64> = random_hodlr_spd(&mut rng, 128, 3, 3);
        assert_eq!(spd.vbig().data().as_ptr(), spd.ubig().data().as_ptr());
        let device = Device::new();
        for m in [&lu, &spd] {
            let mut gpu = GpuSolver::new(&device, m);
            gpu.factorize().unwrap();
            check("GpuSolver", m, &gpu);
            let serial = m.factorize_serial().unwrap();
            check("factorize_serial", m, serial.batched());
        }
        let pd = Symmetry::PositiveDefinite;
        let mut gpu = GpuSymmetricSolver::new(&device, &spd, pd).unwrap();
        gpu.factorize().unwrap();
        check("GpuSymmetricSolver", &spd, &gpu);
        let serial = spd.factorize_symmetric(pd).unwrap();
        check("factorize_symmetric", &spd, serial.batched());
    }

    #[test]
    fn singular_leaf_reports_batch_index() {
        let mut rng = StdRng::seed_from_u64(80);
        let m: HodlrMatrix<f64> = random_hodlr(&mut rng, 32, 1, 1);
        let diag = vec![m.diag_block(0).clone(), DenseMatrix::zeros(16, 16)];
        let singular = HodlrMatrix::from_parts(
            m.tree().clone(),
            m.layout().clone(),
            (0..=m.tree().num_nodes()).map(|_| 1).collect(),
            m.ubig().clone(),
            m.vbig().clone(),
            diag,
        )
        .unwrap();
        let device = Device::new();
        let mut gpu = GpuSolver::new(&device, &singular);
        let err = gpu.factorize().expect_err("second leaf is singular");
        match err {
            HodlrError::SingularPivot {
                batch_index: Some(b),
                ref context,
                ..
            } => {
                assert_eq!(b, 1);
                assert!(context.contains("diagonal block of leaf 1"), "{context}");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    /// The batched twin of `serial::tests::singular_coupling_matrix_is_reported`:
    /// identity leaves and every rank-1 basis equal to `e_1` make every
    /// deepest `K = [[1, 1], [1, 1]]`, and the error names that level's
    /// first node, node 4, at batch entry 0.
    #[test]
    fn singular_coupling_matrix_names_its_node() {
        let tree = ClusterTree::uniform(64, 3);
        let mut ubig = DenseMatrix::<f64>::zeros(64, 3);
        for level in 1..=3 {
            for node in tree.level_nodes(level) {
                ubig[(tree.range(node).start, level - 1)] = 1.0;
            }
        }
        let diag = tree
            .leaves()
            .map(|leaf| DenseMatrix::identity(tree.node_size(leaf)))
            .collect();
        let singular = HodlrMatrix::from_parts(
            tree.clone(),
            LevelLayout::uniform(3, 1),
            (0..=tree.num_nodes()).map(|_| 1).collect(),
            ubig.clone(),
            ubig,
            diag,
        )
        .unwrap();
        let device = Device::new();
        let err = GpuSolver::new(&device, &singular)
            .factorize()
            .expect_err("every deepest coupling matrix is singular");
        match err {
            HodlrError::SingularPivot {
                batch_index: Some(0),
                ref context,
                ..
            } => assert!(context.contains("coupling matrix of node 4"), "{context}"),
            other => panic!("unexpected error {other}"),
        }
    }
}
