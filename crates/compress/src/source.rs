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
/// A compressor evaluates all of one block's entries on the thread that
/// called it, even when it spreads its own arithmetic over the rayon pool,
/// so a source that serves a single block sees its entry calls from one
/// thread only.  A build still compresses different blocks of one source
/// on different threads at once.
pub trait MatrixEntrySource<T: Scalar>: Sync {
    /// Number of rows of the block.
    fn nrows(&self) -> usize;
    /// Number of columns of the block.
    fn ncols(&self) -> usize;
    /// Entry `(i, j)` of the block.
    fn entry(&self, i: usize, j: usize) -> T;

    /// Evaluate row `i` into `out` (length `ncols`).
    fn row(&self, i: usize, out: &mut [T]) {
        debug_assert_eq!(out.len(), self.ncols());
        for (j, o) in out.iter_mut().enumerate() {
            *o = self.entry(i, j);
        }
    }

    /// Evaluate column `j` into `out` (length `nrows`).
    fn col(&self, j: usize, out: &mut [T]) {
        debug_assert_eq!(out.len(), self.nrows());
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.entry(i, j);
        }
    }

    /// Evaluate the tile `[row0 .. row0 + out.rows()) x [col0 .. col0 +
    /// out.cols())` into `out`.  This is the unit of access of the
    /// streaming compressors: they walk the block tile by tile with one
    /// bounded scratch buffer instead of materialising it densely.
    fn tile(&self, row0: usize, col0: usize, out: &mut MatMut<'_, T>) {
        debug_assert!(row0 + out.rows() <= self.nrows());
        debug_assert!(col0 + out.cols() <= self.ncols());
        for jj in 0..out.cols() {
            for ii in 0..out.rows() {
                out.set(ii, jj, self.entry(row0 + ii, col0 + jj));
            }
        }
    }

    /// Materialise the whole block densely.  The default implementation
    /// evaluates column by column; sources with cheaper bulk access may
    /// override it.
    fn to_dense(&self) -> DenseMatrix<T> {
        let mut a = DenseMatrix::zeros(self.nrows(), self.ncols());
        for j in 0..self.ncols() {
            let col = a.col_mut(j);
            self.col(j, col);
        }
        a
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

    fn col(&self, j: usize, out: &mut [T]) {
        let col = self.matrix.col(self.col_offset + j);
        out.copy_from_slice(&col[self.row_offset..self.row_offset + self.nrows]);
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

    fn col(&self, j: usize, out: &mut [T]) {
        self.inner.col(j, out);
        out[j] += self.shift;
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
