//! Column-major dense matrices and borrowed strided views.
//!
//! [`DenseMatrix`] owns its storage; [`MatRef`] / [`MatMut`] borrow a
//! rectangular window of some column-major buffer with an explicit leading
//! dimension, exactly like the `(pointer, ld)` convention of BLAS/LAPACK.
//! The HODLR solver relies on views to address sub-blocks of the big
//! concatenated `Ubig`/`Vbig`/`Dbig` matrices without copying.

use crate::scalar::Scalar;

/// An owning, column-major, dense `rows x cols` matrix.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Build a matrix by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Wrap an existing column-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "column-major buffer has wrong length"
        );
        Self { rows, cols, data }
    }

    /// Build from a row-major nested slice (convenient in tests).
    pub fn from_rows(rows: &[Vec<T>]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Self::from_fn(r, c, |i, j| rows[i][j])
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `true` when the matrix has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// The underlying column-major buffer.
    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable access to the underlying column-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consume the matrix, returning its column-major buffer.
    #[inline]
    pub fn into_data(self) -> Vec<T> {
        self.data
    }

    /// Borrow column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutably borrow column `j` as a contiguous slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Immutable view of the whole matrix.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_, T> {
        MatRef {
            data: &self.data,
            rows: self.rows,
            cols: self.cols,
            ld: self.rows.max(1),
        }
    }

    /// Mutable view of the whole matrix.
    #[inline]
    pub fn as_mut(&mut self) -> MatMut<'_, T> {
        MatMut {
            ld: self.rows.max(1),
            rows: self.rows,
            cols: self.cols,
            data: &mut self.data,
        }
    }

    /// Immutable view of the sub-block starting at `(row, col)` with shape
    /// `nrows x ncols`.
    pub fn block(&self, row: usize, col: usize, nrows: usize, ncols: usize) -> MatRef<'_, T> {
        self.as_ref().block(row, col, nrows, ncols)
    }

    /// Mutable view of the sub-block starting at `(row, col)` with shape
    /// `nrows x ncols`.
    pub fn block_mut(
        &mut self,
        row: usize,
        col: usize,
        nrows: usize,
        ncols: usize,
    ) -> MatMut<'_, T> {
        self.as_mut().into_block(row, col, nrows, ncols)
    }

    /// Split into two mutable views at column `at`: columns `[0, at)` and
    /// `[at, cols)`.  Both halves are full-height and contiguous.
    pub fn split_cols_mut(&mut self, at: usize) -> (MatMut<'_, T>, MatMut<'_, T>) {
        assert!(at <= self.cols);
        let rows = self.rows;
        let cols = self.cols;
        let (left, right) = self.data.split_at_mut(at * rows);
        (
            MatMut {
                data: left,
                rows,
                cols: at,
                ld: rows.max(1),
            },
            MatMut {
                data: right,
                rows,
                cols: cols - at,
                ld: rows.max(1),
            },
        )
    }

    /// Copy of the sub-block as an owned matrix.
    pub fn sub_matrix(&self, row: usize, col: usize, nrows: usize, ncols: usize) -> Self {
        self.block(row, col, nrows, ncols).to_owned()
    }

    /// Owned transpose.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Owned conjugate transpose (`A^H`).
    pub fn conj_transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self[(j, i)].conj())
    }

    /// Set every entry to `value`.
    pub fn fill(&mut self, value: T) {
        self.data.fill(value);
    }

    /// Multiply every entry by `alpha`.
    pub fn scale_in_place(&mut self, alpha: T) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// `self += alpha * other` (entrywise).
    ///
    /// # Panics
    /// Panics when the shapes differ.
    pub fn axpy(&mut self, alpha: T, other: &Self) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (x, y) in self.data.iter_mut().zip(other.data.iter()) {
            *x += alpha * *y;
        }
    }

    /// Entry-wise difference `self - other` as a new matrix.
    pub fn sub(&self, other: &Self) -> Self {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        let data = self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(&a, &b)| a - b)
            .collect();
        Self {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn hcat(&self, other: &Self) -> Self {
        assert_eq!(self.rows, other.rows, "hcat: row mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Self {
            rows: self.rows,
            cols: self.cols + other.cols,
            data,
        }
    }

    /// Vertical concatenation `[self; other]`.
    pub fn vcat(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.cols, "vcat: column mismatch");
        Self::from_fn(self.rows + other.rows, self.cols, |i, j| {
            if i < self.rows {
                self[(i, j)]
            } else {
                other[(i - self.rows, j)]
            }
        })
    }

    /// Copy the contents of `src` into the sub-block starting at `(row, col)`.
    pub fn set_block(&mut self, row: usize, col: usize, src: &Self) {
        assert!(row + src.rows <= self.rows && col + src.cols <= self.cols);
        for j in 0..src.cols {
            for i in 0..src.rows {
                self[(row + i, col + j)] = src[(i, j)];
            }
        }
    }

    /// Matrix-matrix product `self * other` (unblocked convenience wrapper;
    /// the performance path is [`crate::blas::gemm`]).
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.rows, "matmul: inner dimension mismatch");
        let mut c = Self::zeros(self.rows, other.cols);
        crate::blas::gemm(
            T::one(),
            self.as_ref(),
            crate::blas::Op::None,
            other.as_ref(),
            crate::blas::Op::None,
            T::zero(),
            c.as_mut(),
        );
        c
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(self.cols, x.len());
        let mut y = vec![T::zero(); self.rows];
        crate::blas::gemv(
            T::one(),
            self.as_ref(),
            crate::blas::Op::None,
            x,
            T::zero(),
            &mut y,
        );
        y
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> T::Real {
        crate::norms::norm_fro(self.as_ref())
    }

    /// Largest entry modulus.
    pub fn norm_max(&self) -> T::Real {
        crate::norms::norm_max(self.as_ref())
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for DenseMatrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &self.data[j * self.rows + i]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for DenseMatrix<T> {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols, "index out of bounds");
        &mut self.data[j * self.rows + i]
    }
}

impl<T: Scalar> std::fmt::Debug for DenseMatrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        let show_cols = self.cols.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            for j in 0..show_cols {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if show_cols < self.cols { "..." } else { "" })?;
        }
        if show_rows < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// An immutable column-major view with leading dimension `ld`.
#[derive(Copy, Clone)]
pub struct MatRef<'a, T> {
    data: &'a [T],
    rows: usize,
    cols: usize,
    ld: usize,
}

impl<'a, T: Scalar> MatRef<'a, T> {
    /// Construct a view from raw parts.
    ///
    /// # Panics
    /// Panics when the described window does not fit inside `data`.
    pub fn from_parts(data: &'a [T], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= rows.max(1));
        if rows > 0 && cols > 0 {
            assert!(
                (cols - 1) * ld + rows <= data.len(),
                "view window exceeds buffer"
            );
        }
        Self {
            data,
            rows,
            cols,
            ld,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }
    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }
    /// Leading dimension (stride between consecutive columns).
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }
    /// Underlying slice (starting at the view origin).
    #[inline]
    pub fn data(&self) -> &'a [T] {
        self.data
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.ld + i]
    }

    /// Column `j` as a contiguous slice of length `rows` (empty when the
    /// view has no rows, whose buffer may be empty).
    #[inline]
    pub fn col(&self, j: usize) -> &'a [T] {
        debug_assert!(j < self.cols);
        if self.rows == 0 {
            return &self.data[..0];
        }
        &self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// Sub-view starting at `(row, col)` with shape `nrows x ncols`.  An
    /// empty window (`nrows == 0 || ncols == 0`) is an empty view, wherever
    /// it starts.
    pub fn block(&self, row: usize, col: usize, nrows: usize, ncols: usize) -> MatRef<'a, T> {
        assert!(row + nrows <= self.rows && col + ncols <= self.cols);
        let data = if nrows == 0 || ncols == 0 {
            &self.data[..0]
        } else {
            &self.data[col * self.ld + row..]
        };
        MatRef {
            data,
            rows: nrows,
            cols: ncols,
            ld: self.ld,
        }
    }

    /// Copy the view into an owned matrix.
    pub fn to_owned(&self) -> DenseMatrix<T> {
        DenseMatrix::from_fn(self.rows, self.cols, |i, j| self.get(i, j))
    }

    /// `true` when the view window is contiguous in memory (ld == rows).
    #[inline]
    pub fn is_contiguous(&self) -> bool {
        self.ld == self.rows || self.cols <= 1
    }
}

/// A mutable column-major view with leading dimension `ld`.
pub struct MatMut<'a, T> {
    data: &'a mut [T],
    rows: usize,
    cols: usize,
    ld: usize,
}

impl<'a, T: Scalar> MatMut<'a, T> {
    /// Construct a mutable view from raw parts.
    ///
    /// # Panics
    /// Panics when the described window does not fit inside `data`.
    pub fn from_parts(data: &'a mut [T], rows: usize, cols: usize, ld: usize) -> Self {
        assert!(ld >= rows.max(1));
        if rows > 0 && cols > 0 {
            assert!(
                (cols - 1) * ld + rows <= data.len(),
                "view window exceeds buffer"
            );
        }
        Self {
            data,
            rows,
            cols,
            ld,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }
    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }
    /// Leading dimension.
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.ld + i]
    }

    /// Set entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, value: T) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.ld + i] = value;
    }

    /// Mutable column `j` as a contiguous slice of length `rows` (empty
    /// when the view has no rows, whose buffer may be empty).
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        debug_assert!(j < self.cols);
        if self.rows == 0 {
            return &mut self.data[..0];
        }
        &mut self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// The view's entries as one column-major slice of length `rows *
    /// cols`, when they are contiguous in memory (see
    /// [`MatRef::is_contiguous`]): a `1 x k` view with `ld == 1` is its
    /// row, a `k x 1` view its column.
    pub fn contiguous_mut(&mut self) -> Option<&mut [T]> {
        if self.ld == self.rows || self.cols <= 1 {
            Some(&mut self.data[..self.rows * self.cols])
        } else {
            None
        }
    }

    /// Reborrow immutably.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_, T> {
        MatRef {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
        }
    }

    /// Reborrow mutably with a shorter lifetime.
    #[inline]
    pub fn reborrow(&mut self) -> MatMut<'_, T> {
        MatMut {
            data: self.data,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
        }
    }

    /// Consume the view and return the sub-view starting at `(row, col)` with
    /// shape `nrows x ncols`.  An empty window is an empty view, as in
    /// [`MatRef::block`].
    pub fn into_block(self, row: usize, col: usize, nrows: usize, ncols: usize) -> MatMut<'a, T> {
        assert!(row + nrows <= self.rows && col + ncols <= self.cols);
        let data = if nrows == 0 || ncols == 0 {
            &mut self.data[..0]
        } else {
            &mut self.data[col * self.ld + row..]
        };
        MatMut {
            data,
            rows: nrows,
            cols: ncols,
            ld: self.ld,
        }
    }

    /// Short-lived sub-view (borrows `self`).
    pub fn block_mut(
        &mut self,
        row: usize,
        col: usize,
        nrows: usize,
        ncols: usize,
    ) -> MatMut<'_, T> {
        self.reborrow().into_block(row, col, nrows, ncols)
    }

    /// Split the view into two mutable views at column `at`: columns
    /// `[0, at)` and `[at, cols)`.  Both halves keep the leading dimension,
    /// so this is a safe split (each column lives entirely on one side).
    ///
    /// The blocked LU factorization uses this to read the already-factored
    /// panel while updating the trailing submatrix in place.
    pub fn split_at_col_mut(self, at: usize) -> (MatMut<'a, T>, MatMut<'a, T>) {
        assert!(at <= self.cols, "split_at_col_mut: column out of range");
        // The final column may be shorter than `ld` in the backing buffer, so
        // splitting at `cols * ld` could reach past the end.
        let split = if at == self.cols {
            self.data.len()
        } else {
            at * self.ld
        };
        let (left, right) = self.data.split_at_mut(split);
        (
            MatMut {
                data: left,
                rows: self.rows,
                cols: at,
                ld: self.ld,
            },
            MatMut {
                data: right,
                rows: self.rows,
                cols: self.cols - at,
                ld: self.ld,
            },
        )
    }

    /// Consume the view into its columns, each a contiguous slice of length
    /// `rows` (the view must have at least one row).  The slices are
    /// disjoint, so different tasks may own them.
    pub(crate) fn into_cols(self) -> impl Iterator<Item = &'a mut [T]> {
        let rows = self.rows;
        self.data
            .chunks_mut(self.ld)
            .take(self.cols)
            .map(move |col| &mut col[..rows])
    }

    /// Copy entries from a view of the same shape.
    pub fn copy_from(&mut self, src: MatRef<'_, T>) {
        assert_eq!(self.rows, src.rows());
        assert_eq!(self.cols, src.cols());
        for j in 0..self.cols {
            self.col_mut(j).copy_from_slice(src.col(j));
        }
    }

    /// Set every entry of the view to `value`.
    pub fn fill(&mut self, value: T) {
        for j in 0..self.cols {
            for x in self.col_mut(j) {
                *x = value;
            }
        }
    }

    /// `self += alpha * other` (entrywise) over the view window.
    pub fn axpy(&mut self, alpha: T, other: MatRef<'_, T>) {
        assert_eq!(self.rows, other.rows());
        assert_eq!(self.cols, other.cols());
        for j in 0..self.cols {
            let src = other.col(j);
            let dst = &mut self.data[j * self.ld..j * self.ld + self.rows];
            for (d, s) in dst.iter_mut().zip(src) {
                *d += alpha * *s;
            }
        }
    }

    /// Copy the view into an owned matrix.
    pub fn to_owned(&self) -> DenseMatrix<T> {
        self.as_ref().to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix<f64> {
        // [ 1 4 7 ]
        // [ 2 5 8 ]
        // [ 3 6 9 ]
        DenseMatrix::from_fn(3, 3, |i, j| (j * 3 + i + 1) as f64)
    }

    #[test]
    fn construction_and_indexing() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(2, 1)], 6.0);
        assert_eq!(m.col(2), &[7.0, 8.0, 9.0]);
        assert_eq!(m.data().len(), 9);
    }

    #[test]
    fn identity_and_zeros() {
        let i3 = DenseMatrix::<f64>::identity(3);
        assert_eq!(i3[(1, 1)], 1.0);
        assert_eq!(i3[(0, 1)], 0.0);
        let z = DenseMatrix::<f64>::zeros(2, 4);
        assert!(z.data().iter().all(|&x| x == 0.0));
        assert!(DenseMatrix::<f64>::zeros(0, 0).is_empty());
    }

    #[test]
    fn from_rows_matches_from_fn() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a[(0, 1)], 2.0);
        assert_eq!(a[(1, 0)], 3.0);
    }

    #[test]
    fn transpose_and_conj_transpose() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t[(0, 2)], m[(2, 0)]);
        use crate::Complex64;
        let c = DenseMatrix::from_fn(2, 2, |i, j| Complex64::new(i as f64, j as f64));
        let h = c.conj_transpose();
        assert_eq!(h[(1, 0)], Complex64::new(0.0, -1.0));
    }

    #[test]
    fn block_views() {
        let m = sample();
        let b = m.block(1, 1, 2, 2);
        assert_eq!(b.get(0, 0), 5.0);
        assert_eq!(b.get(1, 1), 9.0);
        assert_eq!(b.ld(), 3);
        assert!(!b.is_contiguous());
        let owned = b.to_owned();
        assert_eq!(owned[(1, 0)], 6.0);
    }

    #[test]
    fn block_mut_and_copy_from() {
        let mut m = DenseMatrix::<f64>::zeros(4, 4);
        let src = DenseMatrix::from_fn(2, 2, |i, j| (i + j) as f64 + 1.0);
        m.block_mut(1, 2, 2, 2).copy_from(src.as_ref());
        assert_eq!(m[(1, 2)], 1.0);
        assert_eq!(m[(2, 3)], 3.0);
        assert_eq!(m[(0, 0)], 0.0);
    }

    #[test]
    fn split_cols_mut_disjoint() {
        let mut m = sample();
        let (mut l, mut r) = m.split_cols_mut(1);
        assert_eq!(l.cols(), 1);
        assert_eq!(r.cols(), 2);
        l.set(0, 0, -1.0);
        r.set(2, 1, -9.0);
        assert_eq!(m[(0, 0)], -1.0);
        assert_eq!(m[(2, 2)], -9.0);
    }

    #[test]
    fn concatenation() {
        let a = sample();
        let h = a.hcat(&a);
        assert_eq!(h.cols(), 6);
        assert_eq!(h[(0, 3)], 1.0);
        let v = a.vcat(&a);
        assert_eq!(v.rows(), 6);
        assert_eq!(v[(3, 0)], 1.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = sample();
        let b = sample();
        a.axpy(-1.0, &b);
        assert!(a.norm_max() == 0.0);
        let mut c = sample();
        c.scale_in_place(2.0);
        assert_eq!(c[(2, 2)], 18.0);
    }

    #[test]
    fn matmul_matches_manual() {
        let a = sample();
        let b = DenseMatrix::<f64>::identity(3);
        let c = a.matmul(&b);
        assert_eq!(c, a);
        let x = vec![1.0, 0.0, 0.0];
        assert_eq!(a.matvec(&x), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn set_block_and_sub_matrix() {
        let mut m = DenseMatrix::<f64>::zeros(3, 3);
        let s = DenseMatrix::from_fn(2, 2, |i, j| (i * 2 + j) as f64);
        m.set_block(1, 1, &s);
        assert_eq!(m[(2, 2)], 3.0);
        let back = m.sub_matrix(1, 1, 2, 2);
        assert_eq!(back, s);
    }

    #[test]
    #[should_panic]
    fn from_col_major_wrong_len_panics() {
        let _ = DenseMatrix::from_col_major(2, 2, vec![1.0_f64; 3]);
    }

    #[test]
    fn empty_windows_are_empty_views() {
        let mut wide = DenseMatrix::<f64>::zeros(8, 0);
        let v = wide.block_mut(4, 0, 4, 0);
        assert_eq!((v.rows(), v.cols()), (4, 0));
        let v = wide.block(4, 0, 4, 0);
        assert_eq!((v.rows(), v.cols(), v.data().len()), (4, 0, 0));
        let flat = DenseMatrix::<f64>::zeros(0, 5);
        let v = flat.block(0, 2, 0, 3);
        assert_eq!((v.rows(), v.cols(), v.data().len()), (0, 3, 0));
        // A strided view (`ld > rows`) whose empty window starts past the
        // end of its buffer.
        let tall = DenseMatrix::<f64>::zeros(4, 3);
        let strided = tall.block(1, 0, 2, 3);
        assert_eq!(strided.ld(), 4);
        let v = strided.block(0, 3, 2, 0);
        assert_eq!((v.rows(), v.cols(), v.data().len()), (2, 0, 0));
    }

    #[test]
    fn contiguous_views_expose_one_slice() {
        let mut m = sample();
        assert_eq!(m.as_mut().contiguous_mut().map(|s| s.len()), Some(9));
        assert_eq!(
            m.block_mut(1, 1, 2, 1).contiguous_mut(),
            Some(&mut [5.0, 6.0][..])
        );
        assert!(m.block_mut(0, 0, 2, 2).contiguous_mut().is_none());
        assert!(m.block_mut(1, 0, 1, 3).contiguous_mut().is_none());
        let mut row = vec![1.0, 2.0, 3.0];
        let mut view = MatMut::from_parts(&mut row, 1, 3, 1);
        assert_eq!(view.contiguous_mut(), Some(&mut [1.0, 2.0, 3.0][..]));
    }

    /// A view with no rows has empty columns and copies nothing, wherever
    /// its (possibly empty) buffer ends.
    #[test]
    fn rowless_views_have_empty_columns() {
        let mut m = sample();
        let mut flat = DenseMatrix::<f64>::zeros(0, 5);
        let mut v = flat.block_mut(0, 1, 0, 4);
        assert!(v.col_mut(3).is_empty());
        v.copy_from(MatRef::from_parts(&[], 0, 4, 1));
        let mut v = m.block_mut(3, 1, 0, 2);
        assert!(v.col_mut(1).is_empty() && v.as_ref().col(1).is_empty());
        v.copy_from(MatRef::from_parts(&[], 0, 2, 1));
        let mut none: [f64; 0] = [];
        assert!(MatMut::from_parts(&mut none, 0, 6, 1).col_mut(5).is_empty());
    }

    #[test]
    #[should_panic]
    fn block_out_of_bounds_panics() {
        let m = sample();
        let _ = m.block(2, 2, 2, 2);
    }
}
