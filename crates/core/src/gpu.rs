//! The batched factorization and solve (Algorithms 3–4) on the virtual
//! batched-BLAS device — the "GPU HODLR Solver" of the paper's evaluation.
//!
//! The solver uploads `Dbig`, `Ubig` and `Vbig` to the device once (the
//! paper measures this PCIe copy separately from the factorization), then
//! runs exactly the kernel sequence of Algorithm 3: per level, two batched
//! gemms to form the coupling matrices and the work matrix `W`, a batched
//! factorization, a batched solve, and one batched gemm update of `Ybig`.
//! The solve stage (Algorithm 4) reuses the stored factors with one batched
//! solve and two batched gemms per level.  At the top few levels, where
//! the batch size is tiny, launches are issued on a round-robin pool of
//! streams, mirroring the paper's use of CUDA streams.
//!
//! The sweep is written once, generic over the [`FactorKind`] whose batched
//! kernels factorize and solve with each block: `getrf` / `getrs` for
//! [`GpuSolver`], `potrf` / `potrs` for [`GpuSymmetricSolver`].  The
//! per-entry pivots or ladder rungs stay host-side.

use crate::layout::LevelLayout;
use crate::matrix::HodlrMatrix;
use crate::symmetric::{Block, FactorKind, Lu, Symmetric};
use hodlr_batch::{
    gemm_batched_aliased, gemm_batched_varied, Device, DeviceBuffer, GemmDesc, LuDesc, LuSolveDesc,
    Stream, StreamPool,
};
use hodlr_la::{DenseMatrix, HodlrError, Op, Scalar};
use hodlr_tree::ClusterTree;
use rayon::prelude::*;
use std::marker::PhantomData;
use std::ops::Range;

/// Below this many nodes in a level, independent kernels are cycled over a
/// stream pool instead of one big batch (Section III-C).
const STREAM_THRESHOLD: usize = 4;

/// The GPU-style HODLR solver: device-resident data plus the stored
/// factorization state.  It keeps a clone of its [`Device`] handle and owns
/// its buffers, so it borrows nothing.
pub struct BatchedSolver<'d, T: Scalar, K: FactorKind<T>> {
    device: Device,
    pub(crate) kind: K,
    tree: ClusterTree,
    layout: LevelLayout,
    /// Row range of every leaf, in leaf order.
    leaf_ranges: Vec<Range<usize>>,
    /// Element offset of every leaf block inside `dbig`.
    diag_offsets: Vec<usize>,
    /// Leaf diagonal blocks, factorized in place by
    /// [`BatchedSolver::factorize`].
    dbig: DeviceBuffer<T>,
    /// The flattened bases; overwritten with `Ybig` by the factorization.
    ybig: DeviceBuffer<T>,
    /// The flattened right bases.
    vbig: DeviceBuffer<T>,
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
    pub(crate) fn upload(device: &Device, matrix: &HodlrMatrix<T>, kind: K) -> Self {
        let tree = matrix.tree().clone();
        let layout = matrix.layout().clone();
        let n = matrix.n();
        let total_cols = layout.total_cols();

        let leaf_ranges: Vec<Range<usize>> = tree.leaves().map(|leaf| tree.range(leaf)).collect();
        let mut diag_offsets = Vec::with_capacity(leaf_ranges.len());
        let mut dbig_host: Vec<T> = Vec::new();
        for (leaf_idx, range) in leaf_ranges.iter().enumerate() {
            diag_offsets.push(dbig_host.len());
            debug_assert_eq!(matrix.diag_block(leaf_idx).rows(), range.len());
            dbig_host.extend_from_slice(matrix.diag_block(leaf_idx).data());
        }

        let dbig = DeviceBuffer::from_host(device, &dbig_host);
        // Ybig is overwritten by the factorization while Vbig must stay
        // pristine for the solve sweep, so shared (Hermitian) bases are
        // uploaded twice even though the host matrix stores them once.
        let ybig = DeviceBuffer::from_host(device, matrix.ubig().data());
        let vbig = DeviceBuffer::from_host(device, matrix.vbig().data());
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

    /// Scalar entries resident in device buffers: the packed diagonal
    /// blocks, both basis stacks, and (after factorization) the per-level
    /// coupling factors.  Mirrors
    /// [`SerialSolver::storage_entries`](crate::SerialSolver::storage_entries)
    /// so cache layers can budget either backend the same way.
    pub fn storage_entries(&self) -> usize {
        self.dbig.len()
            + self.ybig.len()
            + self.vbig.len()
            + self.k_bufs.iter().map(|b| b.len()).sum::<usize>()
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
    fn leaf_descs(&self) -> Vec<LuDesc> {
        self.leaf_ranges
            .iter()
            .zip(&self.diag_offsets)
            .map(|(range, &offset)| LuDesc {
                n: range.len(),
                offset,
                ld: range.len(),
            })
            .collect()
    }

    /// Solve descriptors pairing every leaf factor with its rows of an
    /// `N x nrhs` right-hand side.
    fn leaf_solve_descs(&self, nrhs: usize) -> Vec<LuSolveDesc> {
        self.leaf_ranges
            .iter()
            .zip(&self.diag_offsets)
            .map(|(range, &offset)| LuSolveDesc {
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
            || "leaf diagonal block".into(),
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
                || format!("coupling matrix at level {level}"),
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
    /// Section III-E (a), evaluated from the batched factors: the
    /// determinant parts of every leaf block and coupling matrix are
    /// gathered with one launch per buffer, then folded with the *same*
    /// per-factor accumulation as
    /// [`SerialSolver::log_det`](crate::SerialSolver::log_det) — same
    /// factor order (leaves first, then coupling levels from the top of the
    /// tree down), same `(-1)^w` Sylvester correction — so the two backends
    /// agree **bitwise**.
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
        // within a level — the iteration order of the serial sweep.
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

    /// The shared Algorithm-4 sweep; the public entry points have already
    /// validated the factorization state and the right-hand-side shape.
    /// No right-hand sides means no launch and no transfer.
    fn solve_matrix_host(&self, b: &[T], nrhs: usize) -> Vec<T> {
        debug_assert!(self.is_factored());
        let n = self.n();
        debug_assert_eq!(b.len(), n * nrhs);
        if nrhs == 0 {
            return Vec::new();
        }
        let levels = self.tree.levels();

        // Upload the right-hand side (metered H2D transfer).
        let mut x_buf = DeviceBuffer::from_host(&self.device, b);

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

        // Download the solution (metered D2H transfer).
        x_buf.download()
    }
}

/// One descriptor per `(2w x 2w)` coupling matrix of a level's `Kbig`.
fn coupling_descs(batch: usize, w: usize) -> Vec<LuDesc> {
    (0..batch)
        .map(|p| LuDesc {
            n: 2 * w,
            offset: p * 4 * w * w,
            ld: 2 * w,
        })
        .collect()
}

/// Solve descriptors pairing every coupling factor with its parent's
/// contiguous `2w x nrhs` block of the stacked `W`.
fn coupling_solve_descs(batch: usize, w: usize, nrhs: usize) -> Vec<LuSolveDesc> {
    (0..batch)
        .map(|p| LuSolveDesc {
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
    device.record_launch("assemble_coupling_identity", batch, 0, 0);
    let k_stride = 4 * w * w;
    let data = k_buf.data_mut();
    for p in 0..batch {
        let base = p * k_stride;
        for i in 0..w {
            // Block (0, 1): entry (i, w + i).
            data[base + (w + i) * 2 * w + i] = T::one();
            // Block (1, 0): entry (w + i, i).
            data[base + i * 2 * w + w + i] = T::one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::random_hodlr;
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
    /// coupling-level `getrf`: launch 5, 10 or 14 here) a retry is a typed
    /// error that launches nothing, instead of re-factoring the factors.
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

            for k in [5, 10, 14] {
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
                assert!(context.contains("leaf diagonal block"), "{context}");
            }
            other => panic!("unexpected error {other}"),
        }
    }
}
