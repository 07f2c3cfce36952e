//! Pins the bits of HODLR builds from kernel sources.
//!
//! Each working-precision case builds one operator through the `hodlr`
//! facade from an analytic entry source twice: from the source itself,
//! whose bulk `tile` path serves rows, columns and leaf blocks as runs, and
//! from a wrapper that forwards `entry` alone, so that every bulk call
//! takes the trait's per-entry default.  The two builds must have the same
//! bits in `Ubig`, `Vbig`, the leaf blocks and the rank profile, on every
//! platform: a reordered sum of squares in the distances or a fused
//! multiply-add in a kernel's bulk path shows up here as a diff.  One more
//! case pins the `f32` build that `Precision::CompactLower` stores, which
//! reads its source entry by entry through `DemotedSource`.
//! `crates/core/tests/bits.rs` pins what the factorizations make of a
//! matrix; this file pins the matrix a build makes of a source.
//!
//! Each case also holds FNV-1a hashes of those parts, so a changed pivot
//! anywhere in the compressor or the build walk shows up as well.  The
//! working-precision hashes were recorded before the sources had bulk
//! paths, the `f32` one before the separate-basis and shared-basis builds
//! became one walk.  The kernels call libm (`exp`, `ln`, `sin`, `cos`),
//! whose last bits depend on the libm build and, in glibc on x86-64, on
//! whether the CPU runs its FMA code.  The hashes were recorded with glibc
//! 2.36 on an x86-64 CPU with AVX2 and FMA; they are checked only on
//! x86-64 Linux with glibc and a CPU with AVX2 and FMA, and are valid only
//! on that machine class.

use hodlr::prelude::*;
use hodlr_bie::{
    circle_cloud, fibonacci_sphere_cloud, surface_resolved_kappa, HelmholtzSurfaceSource,
    LaplaceSurfaceSource,
};
use hodlr_compress::CompressionMethod;
use hodlr_core::{build_from_source, DemotedSource};
use hodlr_gp::{covariance_source, spatial_points, SquaredExponential};
use hodlr_tree::ClusterTree;

/// Minimum leaf size of every tree.
const LEAF: usize = 64;
/// Compression tolerance of every build.
const TOL: f64 = 1e-6;

/// 64-bit FNV-1a over the little-endian bytes of each value's real and
/// imaginary bit patterns.
fn fnv1a<T: Scalar>(values: impl IntoIterator<Item = T>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for part in [v.real().to_f64(), v.imag().to_f64()] {
            for byte in part.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// One line per part of the built matrix: `Ubig`, `Vbig` (the same
/// storage as `Ubig` when the bases are shared), the leaf blocks and the
/// rank profile.
fn record<T: Scalar>(m: &HodlrMatrix<T>) -> String {
    let leaves = m
        .diag_blocks()
        .iter()
        .flat_map(|d| d.data().iter().copied());
    let ranks = m.rank_profile();
    let rank_values = ranks.iter().map(|&r| T::from_f64(r as f64));
    format!(
        "ubig {:016x}\nvbig {:016x}\nleaves {:016x}\nranks {:016x} {ranks:?}\n",
        fnv1a(m.ubig().data().iter().copied()),
        fnv1a(m.vbig().data().iter().copied()),
        fnv1a(leaves),
        fnv1a(rank_values),
    )
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

/// The build of every case: rook ACA at `TOL` over `tree`.
fn build<T: SolveScalar>(
    source: &impl MatrixEntrySource<T>,
    tree: &ClusterTree,
    symmetry: Symmetry,
) -> Hodlr<T> {
    Hodlr::builder()
        .source(source)
        .tree(tree.clone())
        .tolerance(TOL)
        .method(CompressionMethod::AcaRook)
        .symmetry(symmetry)
        .build()
        .unwrap()
}

/// The real and imaginary bit patterns of `values`.
fn bits<T: Scalar>(values: &[T]) -> Vec<(u64, u64)> {
    values
        .iter()
        .map(|v| (v.real().to_f64().to_bits(), v.imag().to_f64().to_bits()))
        .collect()
}

/// Build `source` from its own bulk paths and entry by entry, check that
/// the two builds have the same bits and, on the machine class the hashes
/// were recorded on, that their record is `expected`.
fn check_build<T: SolveScalar>(
    name: &str,
    source: &impl MatrixEntrySource<T>,
    tree: &ClusterTree,
    symmetry: Symmetry,
    expected: &str,
) {
    let bulk = build(source, tree, symmetry);
    let per_entry = build(&PerEntry(source), tree, symmetry);
    let (a, b) = (bulk.matrix().unwrap(), per_entry.matrix().unwrap());
    assert_eq!(a.rank_profile(), b.rank_profile(), "{name}: rank profile");
    let bases = [("Ubig", a.ubig(), b.ubig()), ("Vbig", a.vbig(), b.vbig())];
    let leaves = a
        .diag_blocks()
        .iter()
        .zip(b.diag_blocks())
        .map(|(x, y)| ("a leaf", x, y));
    for (part, x, y) in bases.into_iter().chain(leaves) {
        assert!(
            bits(x.data()) == bits(y.data()),
            "{name}: the per-entry build differs in {part}"
        );
    }
    check_record(name, a, expected);
}

/// On the machine class the hashes were recorded on, check that the record
/// of `m` is `expected`.
fn check_record<T: Scalar>(name: &str, m: &HodlrMatrix<T>, expected: &str) {
    if recorded_hashes_hold() {
        let got = record(m);
        assert_eq!(
            got, expected,
            "{name}: the built bits moved; got\n{got}expected\n{expected}"
        );
    }
}

/// Whether this machine is of the class the hashes were recorded on:
/// x86-64 Linux with glibc, on a CPU with AVX2 and FMA.
#[cfg(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu"))]
fn recorded_hashes_hold() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux", target_env = "gnu")))]
fn recorded_hashes_hold() -> bool {
    false
}

/// A squared-exponential GP covariance over 2048 uniform points in the
/// unit cube (length scale 8x the mean spacing, nugget 1e-2), built as a
/// positive definite matrix with shared bases.
#[test]
fn gp_se_3d_build_keeps_its_bits() {
    const N: usize = 2048;
    let part = spatial_points(&mut StdRng::seed_from_u64(2048), N, 3, LEAF);
    let kernel = SquaredExponential {
        variance: 1.0,
        length_scale: 8.0 * (1.0 / N as f64).cbrt(),
    };
    let source = covariance_source(&kernel, &part.points, 1e-2);
    check_build(
        "gp-se-3d n = 2048",
        &source,
        &part.tree,
        Symmetry::PositiveDefinite,
        "\
         ubig 20ea0687900b0b23\n\
         vbig 20ea0687900b0b23\n\
         leaves 9b8a37e643a3e845\n\
         ranks 5b8e5fdcb4f576ae [58, 44, 35, 28, 21]\n",
    );
}

/// The regularized Laplace single layer over 4096 points on the unit
/// circle, built as a general matrix.
#[test]
fn laplace_surface_2d_build_keeps_its_bits() {
    let source = LaplaceSurfaceSource::new(&circle_cloud(4096), LEAF).unwrap();
    check_build(
        "laplace-surface-2d n = 4096",
        &source,
        source.tree(),
        Symmetry::General,
        "\
         ubig 8fb1f97bf52a4fc8\n\
         vbig 39de5a3bfa7365f6\n\
         leaves 62fcccbe1ffa63c5\n\
         ranks 9f0ccdab160cf0fa [17, 14, 13, 11, 10, 9]\n",
    );
}

/// The Laplace case's source demoted entry by entry to `f32`, as
/// `Precision::CompactLower` builds it: rook ACA at an `f32` tolerance of
/// `TOL` over the same tree.
#[test]
fn laplace_surface_2d_f32_build_keeps_its_bits() {
    let source = LaplaceSurfaceSource::new(&circle_cloud(4096), LEAF).unwrap();
    let config = CompressionConfig::with_tol(TOL as f32).method(CompressionMethod::AcaRook);
    let built =
        build_from_source(&DemotedSource::new(&source), source.tree().clone(), &config).unwrap();
    check_record(
        "laplace-surface-2d n = 4096, f32",
        &built,
        "\
         ubig 851b399383697c39\n\
         vbig 982373e8893fb05a\n\
         leaves 7adcd4b7f08c4c01\n\
         ranks 9f0ccdab160cf0fa [17, 14, 13, 11, 10, 9]\n",
    );
}

/// The regularized Helmholtz single layer over 1024 points on the unit
/// sphere at the resolved wavenumber, built as a general complex matrix.
#[test]
fn helmholtz_surface_3d_build_keeps_its_bits() {
    const N: usize = 1024;
    let source = HelmholtzSurfaceSource::new(
        &fibonacci_sphere_cloud(N),
        LEAF,
        surface_resolved_kappa(N, 3),
    )
    .unwrap();
    check_build::<Complex64>(
        "helmholtz-surface-3d n = 1024",
        &source,
        source.tree(),
        Symmetry::General,
        "\
         ubig 1123af47c6565682\n\
         vbig c43410138c275432\n\
         leaves ff69a1766072781d\n\
         ranks 2c3d93f7fdb9fc71 [183, 107, 61, 45]\n",
    );
}
