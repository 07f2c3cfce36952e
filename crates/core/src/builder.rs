//! Construction of a HODLR approximation from an entry source.
//!
//! Construction is "straightforward" in the paper's words (Section II-B):
//! every sibling off-diagonal block is compressed into `U V^*` and every
//! leaf diagonal block is materialised densely.  The two compressions of a
//! sibling pair `(alpha, beta)` yield `U_alpha, V_beta` (from
//! `A(I_alpha, I_beta)`) and `U_beta, V_alpha` (from `A(I_beta, I_alpha)`),
//! which is exactly what the per-node concatenation of `Ubig` / `Vbig`
//! needs.  A Hermitian build with shared bases compresses only the first
//! block, `A(I_alpha, I_beta) = U V^*`, and keeps `U_alpha := U` and
//! `U_beta := V` in a single `Ubig`.  Both builds are one walk.
//!
//! The build streams: it walks the tree level by level, compressing every
//! off-diagonal block it needs at one level as its own parallel task
//! directly from the entry source (the compressors themselves stream
//! through bounded scratch — see `hodlr-compress`), so no off-diagonal
//! block is ever materialised densely; only leaf diagonal blocks are.  A
//! block's entries are evaluated on the thread that compresses it; the
//! compressor spreads only the arithmetic of long blocks over the pool.
//! Every allocation the build retains is recorded on an optional
//! [`AllocMeter`], and an optional byte budget is enforced between levels
//! with a typed [`HodlrError::BudgetExceeded`] naming the level or stage
//! that crossed it.

use crate::layout::LevelLayout;
use crate::matrix::HodlrMatrix;
use hodlr_compress::{compress_metered, CompressionConfig, LowRank, MatrixEntrySource};
use hodlr_la::{AllocMeter, DemoteScalar, DenseMatrix, HodlrError, MatMut, Scalar};
use hodlr_tree::{ClusterTree, NodeId};
use rayon::prelude::*;

/// Options threading the allocation meter and memory budget through a
/// build.
#[derive(Clone, Copy, Default)]
pub struct BuildOptions<'m> {
    /// Records live/peak bytes of compression scratch, retained factors,
    /// leaf blocks and the flattened bases.  At a successful return the
    /// meter's live count equals the storage bytes of the returned matrix.
    pub meter: Option<&'m AllocMeter>,
    /// Hard ceiling on live bytes, checked after every level of
    /// off-diagonal compression, after the leaf blocks, and before the
    /// flattened `Ubig`/`Vbig` bases are allocated.  Exceeding it aborts
    /// the build with [`HodlrError::BudgetExceeded`].
    pub budget_bytes: Option<u64>,
}

/// Bytes retained by a low-rank factor pair.
fn lowrank_bytes<T: Scalar>(lr: &LowRank<T>) -> u64 {
    ((lr.u.rows() * lr.u.cols() + lr.v.rows() * lr.v.cols()) * std::mem::size_of::<T>()) as u64
}

/// Bytes of a `rows x cols` dense matrix of `T`.
fn matrix_bytes<T>(rows: usize, cols: usize) -> u64 {
    (rows * cols * std::mem::size_of::<T>()) as u64
}

/// Fail with a typed [`HodlrError::BudgetExceeded`] if the metered live
/// count plus the `upcoming` bytes of an allocation not yet made crosses
/// the budget.
fn check_budget(
    meter: Option<&AllocMeter>,
    budget: Option<u64>,
    upcoming: u64,
    context: impl FnOnce() -> String,
) -> Result<(), HodlrError> {
    if let (Some(meter), Some(budget)) = (meter, budget) {
        let needed = meter.live_bytes() + upcoming;
        if needed > budget {
            return Err(HodlrError::BudgetExceeded {
                budget_bytes: budget,
                needed_bytes: needed,
                context: context(),
            });
        }
    }
    Ok(())
}

/// Compress the off-diagonal block `A(I_row, I_col)` and record the bytes
/// of its factors on the meter.
fn compress_block<T: Scalar, S: MatrixEntrySource<T> + Sync + ?Sized>(
    source: &S,
    tree: &ClusterTree,
    row: NodeId,
    col: NodeId,
    config: &CompressionConfig<T::Real>,
    meter: Option<&AllocMeter>,
) -> Result<LowRank<T>, HodlrError> {
    let (rows, cols) = (tree.range(row), tree.range(col));
    let block = BlockSource::new(source, rows.start, cols.start, rows.len(), cols.len())?;
    let lr = compress_metered(&block, config, meter).map_err(|e| annotate_block(e, row, col))?;
    if let Some(meter) = meter {
        meter.record_alloc(lowrank_bytes(&lr));
    }
    Ok(lr)
}

/// The flattened `n x total` basis of Fig. 3: column `j` of level `l`'s
/// block holds column `j` of every level-`l` node's factor on that node's
/// rows, zero where the factor is narrower.  One pool task per column, so
/// the fresh allocation's first-touch page faults are taken on every
/// worker.
fn flatten_bases<T: Scalar>(
    tree: &ClusterTree,
    layout: &LevelLayout,
    factors: &[Option<DenseMatrix<T>>],
) -> DenseMatrix<T> {
    let n = tree.n();
    let mut big = DenseMatrix::zeros(n, layout.total_cols());
    let columns: Vec<(usize, usize)> = (1..=layout.levels())
        .flat_map(|level| (0..layout.width(level)).map(move |j| (level, j)))
        .collect();
    big.data_mut()
        .par_chunks_mut(n.max(1))
        .enumerate()
        .for_each(|(c, dst)| {
            let (level, j) = columns[c];
            for node in tree.level_nodes(level) {
                if let Some(f) = factors[node].as_ref().filter(|f| j < f.cols()) {
                    dst[tree.range(node)].copy_from_slice(f.col(j));
                }
            }
        });
    big
}

/// Name the widest sibling block hanging off the given parents, for budget
/// error messages.
fn widest_block(tree: &ClusterTree, parents: &[NodeId]) -> usize {
    parents
        .iter()
        .filter_map(|&gamma| tree.children(gamma))
        .map(|(alpha, beta)| tree.node_size(alpha).max(tree.node_size(beta)))
        .max()
        .unwrap_or(0)
}

/// A rectangular sub-block of another entry source, addressed by row and
/// column offsets.  This is what lets one `N x N` kernel source serve every
/// off-diagonal block compression without materialising anything.
pub struct BlockSource<'a, T: Scalar, S: MatrixEntrySource<T> + ?Sized> {
    inner: &'a S,
    row_offset: usize,
    col_offset: usize,
    nrows: usize,
    ncols: usize,
    _marker: std::marker::PhantomData<T>,
}

impl<'a, T: Scalar, S: MatrixEntrySource<T> + ?Sized> BlockSource<'a, T, S> {
    /// The sub-block `inner[row..row+nrows, col..col+ncols]`.
    ///
    /// # Errors
    /// Returns [`HodlrError::DimensionMismatch`] naming the offending block
    /// when the requested window reaches past the underlying source.
    pub fn new(
        inner: &'a S,
        row: usize,
        col: usize,
        nrows: usize,
        ncols: usize,
    ) -> Result<Self, HodlrError> {
        if row + nrows > inner.nrows() {
            return Err(HodlrError::dims(
                format!(
                    "rows of block [{row}..{}, {col}..{}]",
                    row + nrows,
                    col + ncols
                ),
                inner.nrows(),
                row + nrows,
            ));
        }
        if col + ncols > inner.ncols() {
            return Err(HodlrError::dims(
                format!(
                    "columns of block [{row}..{}, {col}..{}]",
                    row + nrows,
                    col + ncols
                ),
                inner.ncols(),
                col + ncols,
            ));
        }
        Ok(BlockSource {
            inner,
            row_offset: row,
            col_offset: col,
            nrows,
            ncols,
            _marker: std::marker::PhantomData,
        })
    }
}

impl<T: Scalar, S: MatrixEntrySource<T> + ?Sized> MatrixEntrySource<T> for BlockSource<'_, T, S> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn entry(&self, i: usize, j: usize) -> T {
        self.inner.entry(self.row_offset + i, self.col_offset + j)
    }

    /// The inner source's tile, shifted by the block's offsets: one bulk
    /// call per row, column or leaf block of the build.
    fn tile(&self, row0: usize, col0: usize, out: &mut MatMut<'_, T>) {
        debug_assert!(row0 + out.rows() <= self.nrows && col0 + out.cols() <= self.ncols);
        self.inner
            .tile(self.row_offset + row0, self.col_offset + col0, out);
    }
}

/// Build a HODLR approximation of `source` over the given cluster tree,
/// compressing every sibling off-diagonal block with `config`.
///
/// # Errors
/// Returns [`HodlrError::DimensionMismatch`] when `source` is not square or
/// does not match the tree size, [`HodlrError::InvalidConfig`] for an empty
/// tree or invalid compression settings, and propagates compression errors
/// (e.g. a strict rank-cap overflow).
pub fn build_from_source<T: Scalar, S: MatrixEntrySource<T> + Sync + ?Sized>(
    source: &S,
    tree: ClusterTree,
    config: &CompressionConfig<T::Real>,
) -> Result<HodlrMatrix<T>, HodlrError> {
    build_from_source_with(source, tree, config, BuildOptions::default())
}

/// [`build_from_source`] with metering and an optional memory budget; see
/// [`BuildOptions`].
///
/// # Errors
/// As [`build_from_source`], plus [`HodlrError::BudgetExceeded`] when the
/// metered live bytes cross `options.budget_bytes`.
pub fn build_from_source_with<T: Scalar, S: MatrixEntrySource<T> + Sync + ?Sized>(
    source: &S,
    tree: ClusterTree,
    config: &CompressionConfig<T::Real>,
    options: BuildOptions<'_>,
) -> Result<HodlrMatrix<T>, HodlrError> {
    build_walk(source, tree, config, options, false)
}

/// Build a Hermitian HODLR approximation of `source` with shared bases:
/// each sibling pair is compressed **once** — `A(I_alpha, I_beta) = U V^*`
/// gives `U_alpha := U` and `U_beta := V`, so the mirror block `A(I_beta,
/// I_alpha) = U_beta U_alpha^*` is the conjugate transpose by construction.
/// Half the compression work and half the basis storage of
/// [`build_from_source`].
///
/// The caller asserts that `source` is Hermitian; only the blocks on and
/// below the diagonal are ever read (the symmetric factorizations
/// downstream likewise read only lower triangles of the leaf blocks).
///
/// # Errors
/// As [`build_from_source`].
pub fn build_from_source_symmetric<T: Scalar, S: MatrixEntrySource<T> + Sync + ?Sized>(
    source: &S,
    tree: ClusterTree,
    config: &CompressionConfig<T::Real>,
) -> Result<HodlrMatrix<T>, HodlrError> {
    build_from_source_symmetric_with(source, tree, config, BuildOptions::default())
}

/// [`build_from_source_symmetric`] with metering and an optional memory
/// budget; see [`BuildOptions`].
///
/// # Errors
/// As [`build_from_source_symmetric`], plus [`HodlrError::BudgetExceeded`]
/// when the metered live bytes cross `options.budget_bytes`.
pub fn build_from_source_symmetric_with<T: Scalar, S: MatrixEntrySource<T> + Sync + ?Sized>(
    source: &S,
    tree: ClusterTree,
    config: &CompressionConfig<T::Real>,
    options: BuildOptions<'_>,
) -> Result<HodlrMatrix<T>, HodlrError> {
    build_walk(source, tree, config, options, true)
}

/// The one build walk behind both entry points.  With `shared` bases each
/// sibling pair compresses one block and keeps no right bases; otherwise
/// it compresses both blocks and keeps `Vbig`.
fn build_walk<T: Scalar, S: MatrixEntrySource<T> + Sync + ?Sized>(
    source: &S,
    tree: ClusterTree,
    config: &CompressionConfig<T::Real>,
    options: BuildOptions<'_>,
    shared: bool,
) -> Result<HodlrMatrix<T>, HodlrError> {
    let n = tree.n();
    if n == 0 {
        return Err(HodlrError::config(
            "cannot build a HODLR matrix over a zero-size tree",
        ));
    }
    config.validate()?;
    HodlrError::check_dims("source rows (must be N x N)", n, source.nrows())?;
    HodlrError::check_dims("source columns (must be N x N)", n, source.ncols())?;

    // A budget needs a meter to compare against even when the caller did
    // not ask for one.
    let fallback = AllocMeter::new();
    let meter = match (options.meter, options.budget_bytes) {
        (None, Some(_)) => Some(&fallback),
        (m, _) => m,
    };
    let budget = options.budget_bytes;

    // Per-node factors: the (row, col) block gives U_row and V_col.  With
    // separate bases both blocks of a pair are compressed, so the ranks of
    // the (alpha, beta) and (beta, alpha) blocks may differ and a node's
    // bookkeeping rank is the wider of its U and V factors (both are
    // zero-padded to the level width when written into Ubig/Vbig).  Shared
    // bases keep no V: the one (alpha, beta) block stores U_beta := V.
    let num_nodes = tree.num_nodes();
    let mut u_of: Vec<Option<DenseMatrix<T>>> = vec![None; num_nodes + 1];
    let mut v_of = (!shared).then(|| vec![None; num_nodes + 1]);
    // Blocks compressed per sibling pair, and flattened bases kept.
    let bases = if shared { 1 } else { 2 };
    let mut node_ranks = vec![0usize; num_nodes + 1];
    let mut factor_bytes = 0u64;

    // Walk the tree level by level, compressing the off-diagonal blocks of
    // every sibling pair of one level, each block its own parallel task.
    // The level-wise order bounds the live set and gives the budget check
    // a natural granularity.
    let levels = tree.levels();
    for parent_level in 0..levels {
        let parents: Vec<NodeId> = tree
            .level_nodes(parent_level)
            .filter(|&gamma| !tree.is_leaf(gamma))
            .collect();
        if parents.is_empty() {
            continue;
        }
        let blocks: Vec<(NodeId, NodeId)> = parents
            .iter()
            .flat_map(|&gamma| {
                let (alpha, beta) = tree.children(gamma).expect("internal node");
                [(alpha, beta), (beta, alpha)].into_iter().take(bases)
            })
            .collect();
        let compressed: Vec<LowRank<T>> = blocks
            .par_iter()
            .map(|&(row, col)| compress_block(source, &tree, row, col, config, meter))
            .collect::<Result<Vec<_>, HodlrError>>()?;
        for (&(row, col), lr) in blocks.iter().zip(compressed) {
            let rank = lr.rank();
            node_ranks[row] = node_ranks[row].max(rank);
            node_ranks[col] = node_ranks[col].max(rank);
            factor_bytes += lowrank_bytes(&lr);
            u_of[row] = Some(lr.u);
            v_of.as_mut().unwrap_or(&mut u_of)[col] = Some(lr.v);
        }
        check_budget(meter, budget, 0, || {
            format!(
                "off-diagonal factors at level {} (widest block {w} x {w})",
                parent_level + 1,
                w = widest_block(&tree, &parents)
            )
        })?;
    }

    // Level widths = maximum factor width at each level.
    let cols = |factors: &[Option<DenseMatrix<T>>], node: NodeId| {
        factors[node].as_ref().map_or(0, |m| m.cols())
    };
    let widths = (1..=levels)
        .map(|level| {
            tree.level_nodes(level)
                .map(|node| cols(&u_of, node).max(v_of.as_ref().map_or(0, |v| cols(v, node))))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let layout = LevelLayout::new(widths);

    // Assemble Ubig (and Vbig) with zero padding to the level width.  The
    // flattened bases are the largest single allocation of the build, so
    // they get a budget check *before* they exist.
    let total = layout.total_cols();
    let flattened_bytes = bases as u64 * matrix_bytes::<T>(n, total);
    check_budget(meter, budget, flattened_bytes, || {
        if shared {
            format!("flattened level basis (shared Ubig, {n} x {total})")
        } else {
            format!("flattened level bases (Ubig/Vbig, {n} x {total} each)")
        }
    })?;
    if let Some(meter) = meter {
        meter.record_alloc(flattened_bytes);
    }
    let ubig = flatten_bases(&tree, &layout, &u_of);
    let vbig = v_of.map(|v_of| flatten_bases(&tree, &layout, &v_of));
    // The per-node factors are consumed by the flattened bases.
    drop(u_of);
    if let Some(meter) = meter {
        meter.record_free(factor_bytes);
    }

    // Dense leaf diagonal blocks — the only densely materialised blocks of
    // the whole build.
    let leaf_ids: Vec<NodeId> = tree.leaves().collect();
    let diag: Vec<DenseMatrix<T>> = leaf_ids
        .par_iter()
        .map(|&leaf| {
            let range = tree.range(leaf);
            let block =
                BlockSource::new(source, range.start, range.start, range.len(), range.len())?;
            let dense = block.to_dense();
            if let Some(meter) = meter {
                meter.record_alloc(matrix_bytes::<T>(dense.rows(), dense.cols()));
            }
            Ok(dense)
        })
        .collect::<Result<Vec<_>, HodlrError>>()?;
    check_budget(meter, budget, 0, || "leaf diagonal blocks".to_string())?;

    HodlrMatrix::assemble(tree, layout, node_ranks, ubig, vbig, diag)
}

/// An adapter demoting every entry of a source to the lower precision:
/// `entry(i, j) = inner.entry(i, j).demote()`.  This is what the compact
/// (`f32`-storage) build path compresses from — demotion happens at
/// evaluation time, so the compact build's scratch is *also* in the lower
/// precision and of the working-precision block only the tile being
/// demoted ever exists.
pub struct DemotedSource<'a, T: DemoteScalar, S: MatrixEntrySource<T> + ?Sized> {
    inner: &'a S,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<'a, T: DemoteScalar, S: MatrixEntrySource<T> + ?Sized> DemotedSource<'a, T, S> {
    /// View `inner` in the lower precision.
    pub fn new(inner: &'a S) -> Self {
        DemotedSource {
            inner,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<T, S> MatrixEntrySource<T::Lower> for DemotedSource<'_, T, S>
where
    T: DemoteScalar,
    S: MatrixEntrySource<T> + ?Sized,
{
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
    }

    fn entry(&self, i: usize, j: usize) -> T::Lower {
        self.inner.entry(i, j).demote()
    }

    /// The inner source's bulk tile, demoted: the bits of
    /// [`entry`](Self::entry) wherever the inner tile has the inner
    /// entries' bits.
    fn tile(&self, row0: usize, col0: usize, out: &mut MatMut<'_, T::Lower>) {
        let mut tile = DenseMatrix::<T>::zeros(out.rows(), out.cols());
        self.inner.tile(row0, col0, &mut tile.as_mut());
        for j in 0..out.cols() {
            for (lower, &x) in out.col_mut(j).iter_mut().zip(tile.col(j)) {
                *lower = x.demote();
            }
        }
    }
}

/// Attribute a compression error to the off-diagonal block it came from.
fn annotate_block(e: HodlrError, row_node: NodeId, col_node: NodeId) -> HodlrError {
    match e {
        HodlrError::CompressionRankOverflow {
            max_rank,
            tol,
            context,
        } => HodlrError::CompressionRankOverflow {
            max_rank,
            tol,
            context: format!("off-diagonal block (node {row_node}, node {col_node}): {context}"),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hodlr_compress::{ClosureSource, CompressionMethod, DenseSource};
    use hodlr_la::RealScalar;
    use hodlr_tree::ClusterTree;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A smooth 1-D kernel matrix: K(i, j) = 1 / (1 + |x_i - x_j|) plus a
    /// diagonal shift, which is HODLR-compressible and well conditioned.
    fn kernel_source(n: usize) -> ClosureSource<f64, impl Fn(usize, usize) -> f64 + Sync> {
        ClosureSource::new(n, n, move |i, j| {
            let x = i as f64 / n as f64;
            let y = j as f64 / n as f64;
            let k = 1.0 / (1.0 + (x - y).abs() * n as f64 / 8.0);
            if i == j {
                k + 4.0
            } else {
                k
            }
        })
    }

    #[test]
    fn built_matrix_approximates_the_source() {
        let n = 128;
        let src = kernel_source(n);
        let tree = ClusterTree::with_leaf_size(n, 16);
        let config = CompressionConfig::with_tol(1e-9);
        let hodlr = build_from_source(&src, tree, &config).unwrap();

        let dense = src.to_dense();
        let approx = hodlr.to_dense();
        let err = dense.sub(&approx).norm_fro();
        assert!(err < 1e-7 * dense.norm_fro(), "approximation error {err}");
        // The off-diagonal blocks really are low rank.
        assert!(hodlr.max_rank() < 16, "max rank {}", hodlr.max_rank());
    }

    #[test]
    fn tolerance_steers_rank_and_error() {
        let n = 96;
        let src = kernel_source(n);
        let tree = ClusterTree::with_leaf_size(n, 12);
        let loose =
            build_from_source(&src, tree.clone(), &CompressionConfig::with_tol(1e-3)).unwrap();
        let tight = build_from_source(&src, tree, &CompressionConfig::with_tol(1e-11)).unwrap();
        assert!(loose.max_rank() <= tight.max_rank());
        let dense = src.to_dense();
        let err_loose = dense.sub(&loose.to_dense()).norm_fro() / dense.norm_fro();
        let err_tight = dense.sub(&tight.to_dense()).norm_fro() / dense.norm_fro();
        assert!(err_tight < err_loose);
        assert!(err_tight < 1e-9);
    }

    #[test]
    fn symmetric_build_shares_bases_and_matches_general_build() {
        let n = 128;
        let src = kernel_source(n);
        let tree = ClusterTree::with_leaf_size(n, 16);
        let config = CompressionConfig::with_tol(1e-9);
        let general = build_from_source(&src, tree.clone(), &config).unwrap();
        let sym = build_from_source_symmetric(&src, tree, &config).unwrap();

        assert!(sym.shares_bases());
        assert!(!general.shares_bases());
        // Half the basis storage (same leaf blocks on both sides).
        let diag_entries: usize = sym.diag_blocks().iter().map(|d| d.rows() * d.cols()).sum();
        let sym_basis = sym.storage_entries() - diag_entries;
        let gen_basis = general.storage_entries() - diag_entries;
        assert!(
            sym_basis * 2 <= gen_basis + sym.n(),
            "symmetric bases {sym_basis} vs general {gen_basis}"
        );

        let dense = src.to_dense();
        let approx = sym.to_dense();
        let err = dense.sub(&approx).norm_fro();
        assert!(err < 1e-7 * dense.norm_fro(), "approximation error {err}");
        // The approximation is exactly Hermitian by construction.
        let asym = approx.sub(&approx.conj_transpose()).norm_max();
        assert!(asym < 1e-14, "not Hermitian: {asym}");
    }

    #[test]
    fn every_compression_method_builds_a_valid_matrix() {
        let n = 64;
        let src = kernel_source(n);
        let dense = src.to_dense();
        let tree = ClusterTree::with_leaf_size(n, 16);
        for method in [
            CompressionMethod::AcaPartial,
            CompressionMethod::AcaRook,
            CompressionMethod::RandomizedSvd,
            CompressionMethod::TruncatedSvd,
        ] {
            let cfg = CompressionConfig::with_tol(1e-8).method(method);
            let hodlr = build_from_source(&src, tree.clone(), &cfg).unwrap();
            let err = dense.sub(&hodlr.to_dense()).norm_fro();
            assert!(err < 1e-6 * dense.norm_fro(), "{method:?}: error {err}");
        }
    }

    #[test]
    fn build_from_dense_matches_build_from_source() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 48;
        // An exactly HODLR matrix of rank 2 recovered from its dense form.
        let exact: HodlrMatrix<f64> = crate::matrix::random_hodlr(&mut rng, n, 2, 2);
        let dense = exact.to_dense();
        let tree = ClusterTree::uniform(n, 2);
        let cfg = CompressionConfig::with_tol(1e-11);
        let rebuilt = build_from_source(&DenseSource::new(&dense), tree, &cfg).unwrap();
        assert!(rebuilt.max_rank() <= 3);
        let err = dense.sub(&rebuilt.to_dense()).norm_fro();
        assert!(err < 1e-8 * dense.norm_fro().to_f64());
    }

    #[test]
    fn zero_level_tree_stores_one_dense_block() {
        let src = kernel_source(10);
        let tree = ClusterTree::uniform(10, 0);
        let hodlr = build_from_source(&src, tree, &CompressionConfig::with_tol(1e-10)).unwrap();
        assert_eq!(hodlr.levels(), 0);
        assert_eq!(hodlr.diag_blocks().len(), 1);
        let err = src.to_dense().sub(&hodlr.to_dense()).norm_fro();
        assert!(err < 1e-12);
    }

    #[test]
    fn block_source_delegates_entries() {
        let src = ClosureSource::new(6, 6, |i, j| (10 * i + j) as f64);
        let block = BlockSource::new(&src, 2, 3, 3, 2).unwrap();
        assert_eq!(block.nrows(), 3);
        assert_eq!(block.ncols(), 2);
        assert_eq!(block.entry(0, 0), 23.0);
        assert_eq!(block.entry(2, 1), 44.0);
    }

    #[test]
    fn block_source_out_of_bounds_is_a_dimension_mismatch() {
        let src = ClosureSource::new(6, 6, |i, j| (10 * i + j) as f64);
        let err = BlockSource::new(&src, 4, 0, 3, 2).err().unwrap();
        assert!(err.to_string().contains("rows of block"), "{err}");
        let err = BlockSource::new(&src, 0, 5, 2, 3).err().unwrap();
        assert!(err.to_string().contains("columns of block"), "{err}");
    }

    #[test]
    fn metered_build_accounts_for_exactly_the_retained_storage() {
        let n = 512;
        let src = kernel_source(n);
        let tree = ClusterTree::with_leaf_size(n, 64);
        let meter = AllocMeter::new();
        let options = BuildOptions {
            meter: Some(&meter),
            budget_bytes: None,
        };
        let hodlr = build_from_source_with(&src, tree, &CompressionConfig::with_tol(1e-9), options)
            .unwrap();
        // At return the live count is exactly the storage of the matrix:
        // all compression scratch and intermediate factors have retired.
        assert_eq!(meter.live_bytes(), hodlr.storage_bytes());
        assert!(meter.peak_bytes() >= meter.live_bytes());
        // The peak never approached the n x n dense matrix the streaming
        // assembly replaced.
        let dense_bytes = (n * n * std::mem::size_of::<f64>()) as u64;
        assert!(
            meter.peak_bytes() < dense_bytes / 2,
            "peak {} vs dense {}",
            meter.peak_bytes(),
            dense_bytes
        );
    }

    #[test]
    fn symmetric_metered_build_accounts_for_exactly_the_retained_storage() {
        let n = 192;
        let src = kernel_source(n);
        let tree = ClusterTree::with_leaf_size(n, 24);
        let meter = AllocMeter::new();
        let options = BuildOptions {
            meter: Some(&meter),
            budget_bytes: None,
        };
        let hodlr = build_from_source_symmetric_with(
            &src,
            tree,
            &CompressionConfig::with_tol(1e-9),
            options,
        )
        .unwrap();
        assert_eq!(meter.live_bytes(), hodlr.storage_bytes());
    }

    #[test]
    fn tiny_budget_fails_with_a_typed_error_naming_the_stage() {
        let n = 128;
        let src = kernel_source(n);
        let tree = ClusterTree::with_leaf_size(n, 16);
        let config = CompressionConfig::with_tol(1e-9);
        type Build<S> = fn(
            &S,
            ClusterTree,
            &CompressionConfig<f64>,
            BuildOptions<'_>,
        ) -> Result<HodlrMatrix<f64>, HodlrError>;
        let builds: [Build<_>; 2] = [build_from_source_with, build_from_source_symmetric_with];
        for build in builds {
            let budget = |bytes| BuildOptions {
                meter: None,
                budget_bytes: Some(bytes),
            };
            let err = build(&src, tree.clone(), &config, budget(1024)).unwrap_err();
            match &err {
                HodlrError::BudgetExceeded {
                    budget_bytes,
                    needed_bytes,
                    context,
                } => {
                    assert_eq!(*budget_bytes, 1024);
                    assert!(*needed_bytes > 1024);
                    assert!(
                        context.contains("level")
                            || context.contains("leaf")
                            || context.contains("Ubig"),
                        "context: {context}"
                    );
                }
                other => panic!("expected BudgetExceeded, got {other:?}"),
            }

            // A budget that fits the real footprint succeeds and the build
            // is identical to the unbudgeted one.
            let free = build(&src, tree.clone(), &config, BuildOptions::default()).unwrap();
            let budgeted = build(&src, tree.clone(), &config, budget(64 << 20)).unwrap();
            let bits = |m: &HodlrMatrix<f64>| -> Vec<u64> {
                let leaves = m.diag_blocks().iter().flat_map(|d| d.data());
                let parts = m.ubig().data().iter().chain(m.vbig().data()).chain(leaves);
                parts.map(|x| x.to_bits()).collect()
            };
            assert!(
                bits(&free) == bits(&budgeted),
                "budgeted build must be bitwise identical"
            );
            assert_eq!(free.rank_profile(), budgeted.rank_profile());
        }
    }

    #[test]
    fn demoted_source_views_entries_in_the_lower_precision() {
        let src = ClosureSource::new(4, 4, |i, j| 1.0 + (i + 10 * j) as f64 * 1e-9);
        let lo = DemotedSource::new(&src);
        assert_eq!(lo.nrows(), 4);
        assert_eq!(lo.ncols(), 4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(lo.entry(i, j), src.entry(i, j) as f32);
            }
        }
        // A full compact-precision build goes through the generic builder.
        let n = 64;
        let kernel = kernel_source(n);
        let view = DemotedSource::new(&kernel);
        let tree = ClusterTree::with_leaf_size(n, 16);
        let cfg = CompressionConfig::with_tol(1e-5f32);
        let low = build_from_source(&view, tree, &cfg).unwrap();
        let lo_dense = low.to_dense();
        let dense = kernel.to_dense();
        for i in 0..n {
            for j in 0..n {
                let got = lo_dense[(i, j)] as f64;
                assert!((got - dense[(i, j)]).abs() < 1e-3 * (1.0 + dense[(i, j)].abs()));
            }
        }
    }

    /// Regression test for the duplicated `node_ranks` assignment block: with
    /// *asymmetric* sibling blocks — `A(I_alpha, I_beta)` of rank 1 but
    /// `A(I_beta, I_alpha)` of rank 3 — both siblings must report the wider
    /// rank, and the reconstruction must still match the source.
    #[test]
    fn asymmetric_rank_sibling_blocks_report_the_max_rank() {
        let n = 16;
        let mut a: DenseMatrix<f64> = DenseMatrix::zeros(n, n);
        let h = n / 2;
        for i in 0..n {
            a[(i, i)] = 10.0 + i as f64;
        }
        // Upper-right block (alpha, beta): exactly rank 1.
        for i in 0..h {
            for j in 0..h {
                a[(i, h + j)] = (1.0 + i as f64) * (2.0 + j as f64) / 16.0;
            }
        }
        // Lower-left block (beta, alpha): exactly rank 3 — the outer
        // products x ⊗ y, x² ⊗ y² and 1 ⊗ 1 have independent factors.
        for i in 0..h {
            for j in 0..h {
                let (x, y) = (i as f64, j as f64);
                a[(h + i, j)] = (x * y + (x * x) * (y * y) / 8.0 + 1.0) / 32.0;
            }
        }
        let tree = ClusterTree::uniform(n, 1);
        // Truncated SVD so the recovered ranks are exactly the block ranks.
        let cfg = CompressionConfig::with_tol(1e-12).method(CompressionMethod::TruncatedSvd);
        let hodlr = build_from_source(&DenseSource::new(&a), tree, &cfg).unwrap();

        let (alpha, beta) = hodlr.tree().children(hodlr.tree().root()).unwrap();
        assert_eq!(hodlr.node_rank(alpha), 3, "alpha must carry the max rank");
        assert_eq!(hodlr.node_rank(beta), 3, "beta must carry the max rank");
        assert_eq!(hodlr.max_rank(), 3);
        assert_eq!(hodlr.rank_profile(), vec![3]);

        let err = a.sub(&hodlr.to_dense()).norm_fro();
        assert!(err < 1e-10 * a.norm_fro(), "reconstruction error {err}");
    }
}
