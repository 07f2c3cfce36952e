//! The bulk paths of the entry sources against `entry`, bit for bit.
//!
//! `MatrixEntrySource::tile` is the bulk primitive (`row`, `col` and
//! `to_dense` go through it), and a source that overrides it must produce
//! exactly the bits of `entry`.  Every source that overrides it (the GP
//! covariance, through its correlation kernel and the nugget adapter, the
//! Laplace surface operator, the lower-precision adapter `DemotedSource`,
//! the shift adapter and the dense source), the Helmholtz surface operator
//! on the per-entry default, and the `BlockSource` view over each of them
//! are checked here on every row and column, the whole block, and tiles
//! that cross the diagonal, end at the last row or column, are one row or
//! one column, or are empty, each both in a buffer of its own and inside a
//! larger strided buffer.  The `f32` build that `Precision::CompactLower`
//! stores is checked whole too: from `DemotedSource`'s tiles and entry by
//! entry, it has the same bits.

use hodlr_bie::{
    circle_cloud, fibonacci_sphere_cloud, HelmholtzSurfaceSource, LaplaceSurfaceSource,
};
use hodlr_compress::{
    CompressionConfig, CompressionMethod, DenseSource, MatrixEntrySource, ShiftedSource,
};
use hodlr_core::{build_from_source, BlockSource, DemotedSource};
use hodlr_gp::{covariance_source, spatial_points, CorrelationSource, Matern, SquaredExponential};
use hodlr_la::random::random_matrix;
use hodlr_la::{Complex64, DenseMatrix, MatMut, RealScalar, Scalar};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Bit patterns of the real and imaginary part.
fn bits<T: Scalar>(x: T) -> (u64, u64) {
    (x.real().to_f64().to_bits(), x.imag().to_f64().to_bits())
}

/// Tiles `(row0, col0, rows, cols)` of an `m x n` source (both at least
/// 16): the whole block, across the diagonal, ending at the last row and
/// column, one row, one column and empty.
fn windows(m: usize, n: usize) -> Vec<(usize, usize, usize, usize)> {
    vec![
        (0, 0, m, n),
        (m / 4, m / 8, m / 2, n / 2),
        (3, 1, 9, 13),
        (m - 7, n - 5, 7, 5),
        (m / 2, 0, 1, n),
        (m - 1, n / 3, 1, n - n / 3),
        (5, 5, 1, 1),
        (0, n / 2, m, 1),
        (m / 3, n - 1, m - m / 3, 1),
        (3, 4, 0, 6),
        (3, 4, 6, 0),
        (m, n, 0, 0),
    ]
}

/// Every bulk path of `src` equals `entry` bit for bit.
fn check<T: Scalar>(name: &str, src: &(impl MatrixEntrySource<T> + ?Sized)) {
    let (m, n) = (src.nrows(), src.ncols());
    let want = |i: usize, j: usize| bits(src.entry(i, j));

    let mut row = vec![T::zero(); n];
    for i in 0..m {
        src.row(i, &mut row);
        for (j, &x) in row.iter().enumerate() {
            assert_eq!(bits(x), want(i, j), "{name}: row {i}, column {j}");
        }
    }
    let mut col = vec![T::zero(); m];
    for j in 0..n {
        src.col(j, &mut col);
        for (i, &x) in col.iter().enumerate() {
            assert_eq!(bits(x), want(i, j), "{name}: column {j}, row {i}");
        }
    }
    let dense = src.to_dense();
    for j in 0..n {
        for i in 0..m {
            assert_eq!(
                bits(dense[(i, j)]),
                want(i, j),
                "{name}: to_dense ({i}, {j})"
            );
        }
    }

    let sentinel = T::from_f64(-7.25);
    for (row0, col0, rows, cols) in windows(m, n) {
        let tag = format!("{name}: tile at ({row0}, {col0}) of {rows} x {cols}");
        // A buffer of its own, then the same tile two rows and one column
        // into a buffer with three extra rows, which must keep its border.
        let mut own = DenseMatrix::from_fn(rows, cols, |_, _| sentinel);
        src.tile(row0, col0, &mut own.as_mut());
        let mut big = DenseMatrix::from_fn(rows + 3, cols + 2, |_, _| sentinel);
        src.tile(row0, col0, &mut big.block_mut(2, 1, rows, cols));
        for jj in 0..cols {
            for ii in 0..rows {
                let w = want(row0 + ii, col0 + jj);
                assert_eq!(bits(own[(ii, jj)]), w, "{tag}: ({ii}, {jj})");
                assert_eq!(
                    bits(big[(ii + 2, jj + 1)]),
                    w,
                    "{tag}, strided: ({ii}, {jj})"
                );
            }
        }
        for j in 0..cols + 2 {
            for i in 0..rows + 3 {
                let inside = (2..rows + 2).contains(&i) && (1..cols + 1).contains(&j);
                if !inside {
                    assert_eq!(
                        bits(big[(i, j)]),
                        bits(sentinel),
                        "{tag}: border ({i}, {j})"
                    );
                }
            }
        }
        // The tile as a view built from raw parts, as `row` and `col` do.
        if rows == 1 {
            let mut flat = vec![sentinel; cols];
            src.tile(row0, col0, &mut MatMut::from_parts(&mut flat, 1, cols, 1));
            for (jj, &x) in flat.iter().enumerate() {
                assert_eq!(bits(x), want(row0, col0 + jj), "{tag}: 1 x k view, {jj}");
            }
        }
    }
}

/// `check` on `src` and on `BlockSource` windows of it: one on its
/// diagonal, one across it, one off it, and one ending at its last row and
/// column.
fn check_with_blocks<T: Scalar>(name: &str, src: &(impl MatrixEntrySource<T> + ?Sized)) {
    check(name, src);
    let n = src.nrows();
    assert_eq!(n, src.ncols(), "{name}: square sources only");
    for (row, col, rows, cols) in [
        (n / 5, n / 5, n / 2, n / 2),
        (n / 8, n / 3, n / 2, n / 3),
        (0, n / 2, n / 3, n / 2),
        (n - n / 3, n - n / 4, n / 3, n / 4),
    ] {
        let block = BlockSource::new(src, row, col, rows, cols).unwrap();
        check(&format!("{name} [{row}.., {col}..]"), &block);
    }
}

#[test]
fn covariance_sources_match_entries_bitwise() {
    let part = spatial_points(&mut StdRng::seed_from_u64(5), 300, 3, 32);
    let se = SquaredExponential {
        variance: 1.3,
        length_scale: 0.2,
    };
    let matern = Matern::three_halves(0.8, 0.3);
    check_with_blocks("SE correlation", &CorrelationSource::new(&se, &part.points));
    check_with_blocks("SE covariance", &covariance_source(&se, &part.points, 1e-2));
    check_with_blocks(
        "Matern-3/2 covariance",
        &covariance_source(&matern, &part.points, 0.5),
    );
    let part_2d = spatial_points(&mut StdRng::seed_from_u64(6), 200, 2, 32);
    check_with_blocks(
        "SE covariance 2-D",
        &covariance_source(&se, &part_2d.points, 1e-2),
    );
    let covariance = covariance_source(&se, &part.points, 1e-2);
    check_with_blocks("SE covariance, f32", &DemotedSource::new(&covariance));
}

#[test]
fn laplace_surface_sources_match_entries_bitwise() {
    let circle = LaplaceSurfaceSource::new(&circle_cloud(300), 32).unwrap();
    check_with_blocks("Laplace 2-D", &circle);
    check_with_blocks("Laplace 2-D, f32", &DemotedSource::new(&circle));
    let sphere = LaplaceSurfaceSource::new(&fibonacci_sphere_cloud(300), 32).unwrap();
    check_with_blocks("Laplace 3-D", &sphere);
}

#[test]
fn helmholtz_surface_source_matches_entries_bitwise() {
    let sphere = HelmholtzSurfaceSource::new(&fibonacci_sphere_cloud(300), 32, 12.0).unwrap();
    check_with_blocks::<Complex64>("Helmholtz 3-D", &sphere);
    check_with_blocks("Helmholtz 3-D, complex f32", &DemotedSource::new(&sphere));
    let circle = HelmholtzSurfaceSource::new(&circle_cloud(300), 32, 30.0).unwrap();
    check_with_blocks::<Complex64>("Helmholtz 2-D", &circle);
}

#[test]
fn dense_and_shifted_sources_match_entries_bitwise() {
    let a: DenseMatrix<f64> = random_matrix(&mut StdRng::seed_from_u64(7), 90, 90);
    check_with_blocks("dense", &DenseSource::new(&a));
    check_with_blocks(
        "shifted dense",
        &ShiftedSource::new(DenseSource::new(&a), 2.5),
    );
    let c: DenseMatrix<Complex64> = random_matrix(&mut StdRng::seed_from_u64(8), 70, 70);
    let shift = Complex64::new(0.5, -1.5);
    check_with_blocks(
        "shifted complex dense",
        &ShiftedSource::new(DenseSource::new(&c), shift),
    );
    let rect: DenseMatrix<f64> = random_matrix(&mut StdRng::seed_from_u64(9), 40, 64);
    check("dense block", &DenseSource::block(&rect, 3, 5, 30, 50));
}

/// A source with only `entry` forwarded, so that rows, columns and tiles
/// take the trait's per-entry defaults.
struct PerEntry<'a, S>(&'a S);

impl<T: Scalar, S: MatrixEntrySource<T>> MatrixEntrySource<T> for PerEntry<'_, S> {
    fn nrows(&self) -> usize {
        self.0.nrows()
    }

    fn ncols(&self) -> usize {
        self.0.ncols()
    }

    fn entry(&self, i: usize, j: usize) -> T {
        self.0.entry(i, j)
    }
}

/// The `f32` matrix a `Precision::CompactLower` store holds for the
/// Laplace operator over 2048 circle points: built from the demoted bulk
/// tiles of the source and from its demoted entries one by one, `Ubig`,
/// `Vbig`, the leaf blocks and the rank profile have the same bits.
#[test]
fn demoted_build_from_tiles_matches_the_entry_by_entry_build_bitwise() {
    let source = LaplaceSurfaceSource::new(&circle_cloud(2048), 64).unwrap();
    let config = CompressionConfig::with_tol(1e-6_f32).method(CompressionMethod::AcaRook);
    let build = |src: &dyn MatrixEntrySource<f32>| {
        build_from_source(src, source.tree().clone(), &config).unwrap()
    };
    let tiled = build(&DemotedSource::new(&source));
    let per_entry = build(&DemotedSource::new(&PerEntry(&source)));
    assert_eq!(tiled.rank_profile(), per_entry.rank_profile());
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let bases = [
        ("Ubig", tiled.ubig(), per_entry.ubig()),
        ("Vbig", tiled.vbig(), per_entry.vbig()),
    ];
    let leaves = (tiled.diag_blocks().iter())
        .zip(per_entry.diag_blocks())
        .map(|(a, b)| ("a leaf", a, b));
    for (part, a, b) in bases.into_iter().chain(leaves) {
        assert!(bits(a.data()) == bits(b.data()), "{part} differs");
    }
}
