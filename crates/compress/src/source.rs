//! Lazy entry access to the block being compressed.

use hodlr_la::{DenseMatrix, MatMut, Scalar};

/// A matrix block whose entries can be evaluated on demand.
///
/// Kernel matrices and Nyström-discretized integral operators implement this
/// trait directly from their analytic kernel, so an `N x N` operator is never
/// formed densely — only the entries the compression algorithm actually
/// touches are evaluated.  Everything is `Sync` so blocks can be compressed
/// in parallel.
///
/// Only [`entry`](Self::entry) (with the shape) is required; three rules
/// govern the rest:
///
/// * **[`tile`](Self::tile) is the bulk primitive.**  [`row`](Self::row),
///   [`col`](Self::col) and [`to_dense`](Self::to_dense) hand their
///   buffer to it as a `1 x k`, `k x 1` or full view, so a source with a
///   cheaper bulk path overrides `tile` alone; the default evaluates
///   `entry` once per element.
/// * **An override equals `entry` bit for bit.**  A bulk path may hoist
///   loop-invariant work and split the evaluation into passes over the
///   run, but every element keeps the exact operation sequence of
///   `entry`, so what a compressor builds does not depend on which path
///   served it.
/// * **One block's entries stay on the calling thread.**  A compressor
///   evaluates all of one block's entries on the thread that called it,
///   even when it spreads its own arithmetic over the rayon pool, and a
///   bulk path evaluates its run there too, so a source that serves a
///   single block sees its calls from one thread only.  A build still
///   compresses different blocks of one source on different threads at
///   once.  Spreading one block's entry runs (and the copy of its factors)
///   over the pool as well was measured and not kept: it took 0.01–0.04 s
///   more off gp-se-3d's build, but raised laplace-surface-2d's peak RSS
///   from 395–407 MB to 462–482 MB (Intel Xeon, 2 vCPUs), and it needs
///   rayon in this crate.
///
/// The trait is object safe: the `hodlr` facade holds its input as
/// `&dyn MatrixEntrySource<T>`, so every bulk call crosses one dynamic
/// dispatch instead of one per entry.
pub trait MatrixEntrySource<T: Scalar>: Sync {
    /// Number of rows of the block.
    fn nrows(&self) -> usize;
    /// Number of columns of the block.
    fn ncols(&self) -> usize;
    /// Entry `(i, j)` of the block.
    fn entry(&self, i: usize, j: usize) -> T;

    /// Evaluate row `i` into `out` (length `ncols`), as a `1 x ncols`
    /// [`tile`](Self::tile).
    fn row(&self, i: usize, out: &mut [T]) {
        debug_assert_eq!(out.len(), self.ncols());
        let k = out.len();
        self.tile(i, 0, &mut MatMut::from_parts(out, 1, k, 1));
    }

    /// Evaluate column `j` into `out` (length `nrows`), as an `nrows x 1`
    /// [`tile`](Self::tile).
    fn col(&self, j: usize, out: &mut [T]) {
        debug_assert_eq!(out.len(), self.nrows());
        let k = out.len();
        self.tile(0, j, &mut MatMut::from_parts(out, k, 1, k.max(1)));
    }

    /// Evaluate the tile `[row0 .. row0 + out.rows()) x [col0 .. col0 +
    /// out.cols())` into `out`.  This is the unit of access of every
    /// compressor: the streaming ones walk the block tile by tile with one
    /// bounded scratch buffer instead of materialising it densely, and
    /// rows, columns and dense leaf blocks arrive here as tiles too.
    fn tile(&self, row0: usize, col0: usize, out: &mut MatMut<'_, T>) {
        debug_assert!(row0 + out.rows() <= self.nrows());
        debug_assert!(col0 + out.cols() <= self.ncols());
        for jj in 0..out.cols() {
            for ii in 0..out.rows() {
                out.set(ii, jj, self.entry(row0 + ii, col0 + jj));
            }
        }
    }

    /// Materialise the whole block densely, as one [`tile`](Self::tile).
    fn to_dense(&self) -> DenseMatrix<T> {
        let mut a = DenseMatrix::zeros(self.nrows(), self.ncols());
        self.tile(0, 0, &mut a.as_mut());
        a
    }
}

/// Fill the tile of `out` at `(row0, col0)` from contiguous runs of a
/// source whose entries are symmetric bit for bit (`entry(i, j)` and
/// `entry(j, i)` have the same bits, as for a kernel of the distance
/// between two points).
///
/// `run(p, start, values)` must write `entry(p, start + k)` into
/// `values[k]`.  A one-row tile over a contiguous buffer (a
/// [`MatrixEntrySource::row`]) is one run along the row; any other tile is
/// one run per column, each the run of its column's point over the tile's
/// rows — which is the column itself because the entries are symmetric.
pub fn symmetric_tile<T: Scalar>(
    row0: usize,
    col0: usize,
    out: &mut MatMut<'_, T>,
    mut run: impl FnMut(usize, usize, &mut [T]),
) {
    if out.rows() == 1 {
        if let Some(row) = out.contiguous_mut() {
            run(row0, col0, row);
            return;
        }
    }
    for jj in 0..out.cols() {
        run(col0 + jj, row0, out.col_mut(jj));
    }
}

/// A dense matrix (or sub-block of one) used as an entry source.
#[derive(Clone, Debug)]
pub struct DenseSource<'a, T: Scalar> {
    matrix: &'a DenseMatrix<T>,
    row_offset: usize,
    col_offset: usize,
    nrows: usize,
    ncols: usize,
}

impl<'a, T: Scalar> DenseSource<'a, T> {
    /// The whole matrix as a source.
    pub fn new(matrix: &'a DenseMatrix<T>) -> Self {
        DenseSource {
            matrix,
            row_offset: 0,
            col_offset: 0,
            nrows: matrix.rows(),
            ncols: matrix.cols(),
        }
    }

    /// A rectangular sub-block `matrix[row..row+nrows, col..col+ncols]`.
    pub fn block(
        matrix: &'a DenseMatrix<T>,
        row: usize,
        col: usize,
        nrows: usize,
        ncols: usize,
    ) -> Self {
        assert!(row + nrows <= matrix.rows() && col + ncols <= matrix.cols());
        DenseSource {
            matrix,
            row_offset: row,
            col_offset: col,
            nrows,
            ncols,
        }
    }
}

impl<T: Scalar> MatrixEntrySource<T> for DenseSource<'_, T> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn entry(&self, i: usize, j: usize) -> T {
        self.matrix[(self.row_offset + i, self.col_offset + j)]
    }

    fn tile(&self, row0: usize, col0: usize, out: &mut MatMut<'_, T>) {
        let view = self.matrix.block(
            self.row_offset + row0,
            self.col_offset + col0,
            out.rows(),
            out.cols(),
        );
        out.copy_from(view);
    }
}

/// An entry source defined by a closure `(i, j) -> T`.
pub struct ClosureSource<T, F>
where
    F: Fn(usize, usize) -> T + Sync,
{
    nrows: usize,
    ncols: usize,
    f: F,
}

impl<T: Scalar, F: Fn(usize, usize) -> T + Sync> ClosureSource<T, F> {
    /// Wrap a closure as an `nrows x ncols` entry source.
    pub fn new(nrows: usize, ncols: usize, f: F) -> Self {
        ClosureSource { nrows, ncols, f }
    }
}

impl<T: Scalar, F: Fn(usize, usize) -> T + Sync> MatrixEntrySource<T> for ClosureSource<T, F> {
    fn nrows(&self) -> usize {
        self.nrows
    }

    fn ncols(&self) -> usize {
        self.ncols
    }

    fn entry(&self, i: usize, j: usize) -> T {
        (self.f)(i, j)
    }
}

/// A diagonal-shift adapter: `entry(i, j) = inner(i, j) + shift * delta_ij`.
///
/// This is the "nugget" / regularisation term every kernel method adds to
/// its covariance or system matrix (`K + sigma_n^2 I`); wrapping the shift
/// around an arbitrary inner source keeps the inner kernel source pure and
/// reusable.  The adapter owns its inner source so composed sources can be
/// returned by value.
pub struct ShiftedSource<T: Scalar, S: MatrixEntrySource<T>> {
    inner: S,
    shift: T,
}

impl<T: Scalar, S: MatrixEntrySource<T>> ShiftedSource<T, S> {
    /// Shift the diagonal of `inner` by `shift`.
    ///
    /// # Panics
    /// Panics if `inner` is not square (a diagonal shift of a rectangular
    /// block is not defined).
    pub fn new(inner: S, shift: T) -> Self {
        assert_eq!(
            inner.nrows(),
            inner.ncols(),
            "ShiftedSource requires a square inner source"
        );
        ShiftedSource { inner, shift }
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The diagonal shift.
    pub fn shift(&self) -> T {
        self.shift
    }
}

impl<T: Scalar, S: MatrixEntrySource<T>> MatrixEntrySource<T> for ShiftedSource<T, S> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
    }

    fn entry(&self, i: usize, j: usize) -> T {
        let v = self.inner.entry(i, j);
        if i == j {
            v + self.shift
        } else {
            v
        }
    }

    /// The inner tile, then the shift on the diagonal entries the tile
    /// covers.
    fn tile(&self, row0: usize, col0: usize, out: &mut MatMut<'_, T>) {
        self.inner.tile(row0, col0, out);
        let end = (row0 + out.rows()).min(col0 + out.cols());
        for d in row0.max(col0)..end {
            let (ii, jj) = (d - row0, d - col0);
            out.set(ii, jj, out.get(ii, jj) + self.shift);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifted_source_adds_to_the_diagonal_only() {
        let a = DenseMatrix::<f64>::from_fn(3, 3, |i, j| (i + 10 * j) as f64);
        let shifted = ShiftedSource::new(DenseSource::new(&a), 5.0);
        assert_eq!(shifted.nrows(), 3);
        assert_eq!(shifted.entry(1, 1), 16.0);
        assert_eq!(shifted.entry(1, 2), 21.0);
        let mut col = vec![0.0; 3];
        shifted.col(2, &mut col);
        assert_eq!(col, vec![20.0, 21.0, 27.0]);
        assert_eq!(shifted.shift(), 5.0);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn shifted_source_rejects_rectangular_blocks() {
        let a = DenseMatrix::<f64>::zeros(3, 4);
        let _ = ShiftedSource::new(DenseSource::new(&a), 1.0);
    }

    #[test]
    fn dense_source_full_and_block() {
        let a = DenseMatrix::<f64>::from_fn(4, 5, |i, j| (10 * i + j) as f64);
        let full = DenseSource::new(&a);
        assert_eq!(full.nrows(), 4);
        assert_eq!(full.ncols(), 5);
        assert_eq!(full.entry(2, 3), 23.0);
        assert_eq!(full.to_dense(), a);

        let block = DenseSource::block(&a, 1, 2, 2, 3);
        assert_eq!(block.entry(0, 0), 12.0);
        assert_eq!(block.entry(1, 2), 24.0);
        let d = block.to_dense();
        assert_eq!(d.rows(), 2);
        assert_eq!(d.cols(), 3);
        assert_eq!(d[(1, 1)], 23.0);
    }

    #[test]
    fn closure_source_rows_and_cols() {
        let src = ClosureSource::new(3, 2, |i, j| (i + 10 * j) as f64);
        let mut row = vec![0.0; 2];
        src.row(1, &mut row);
        assert_eq!(row, vec![1.0, 11.0]);
        let mut col = vec![0.0; 3];
        src.col(1, &mut col);
        assert_eq!(col, vec![10.0, 11.0, 12.0]);
    }

    #[test]
    fn tile_matches_entries_for_default_and_dense_override() {
        let f = |i: usize, j: usize| (100 * i + j) as f64;
        let src = ClosureSource::new(7, 9, f);
        let mut got = DenseMatrix::<f64>::zeros(3, 4);
        let mut view = got.as_mut();
        src.tile(2, 5, &mut view);
        for jj in 0..4 {
            for ii in 0..3 {
                assert_eq!(got[(ii, jj)], f(ii + 2, jj + 5));
            }
        }
        let a = DenseMatrix::<f64>::from_fn(7, 9, f);
        let dense = DenseSource::new(&a);
        let mut got2 = DenseMatrix::<f64>::zeros(3, 4);
        let mut view2 = got2.as_mut();
        dense.tile(2, 5, &mut view2);
        assert_eq!(got, got2);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_block_panics() {
        let a = DenseMatrix::<f64>::zeros(3, 3);
        let _ = DenseSource::block(&a, 2, 2, 2, 2);
    }
}
