//! A column of a blocked solve is bitwise the same column solved alone.
//!
//! The operators are the n = 4096 tenants of the serve-mixed benchmark: a
//! squared-exponential GP covariance over uniform points in the unit cube
//! (symmetric positive definite) and the regularized Laplace single layer
//! on the unit circle (general LU).  At this size the products of a solve
//! reach `hodlr-la`'s blocked gemm path: the GP operator's level-1 `V^H x`
//! is 87 x 2048, under `GEMM_DIRECT_THRESHOLD` multiply-adds at one column
//! and over it from two.  Every product runs one per-entry recipe on every
//! path, so the number of columns a serve drain coalesces cannot change an
//! answer; this test pins that on both backends, at the column counts a
//! drain produces (2, 3, one lane group, the 13-16 of a hot tenant's
//! burst, and 32).

use hodlr::prelude::*;
use hodlr_bie::{circle_cloud, LaplaceSurfaceSource};
use hodlr_compress::CompressionMethod;
use hodlr_gp::{covariance_source, spatial_points, SquaredExponential};
use hodlr_la::random::random_matrix;
use hodlr_tree::ClusterTree;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 4096;
const LEAF: usize = 64;
const TOL: f64 = 1e-6;
/// Column counts of the blocked solves.
const WIDTHS: [usize; 7] = [2, 3, 8, 13, 14, 16, 32];

fn build(
    source: &impl MatrixEntrySource<f64>,
    tree: &ClusterTree,
    symmetry: Symmetry,
    backend: Backend,
) -> Hodlr<f64> {
    Hodlr::builder()
        .source(source)
        .tree(tree.clone())
        .tolerance(TOL)
        .method(CompressionMethod::AcaRook)
        .symmetry(symmetry)
        .backend(backend)
        .build()
        .unwrap()
}

/// Solve every column of a seeded `N x 32` block alone, then the first
/// `k` columns as one block for each `k` of [`WIDTHS`]; every column must
/// have the same bits both ways.
fn check(name: &str, hodlr: &Hodlr<f64>) {
    let factorization = hodlr.factorize().unwrap();
    let rhs: DenseMatrix<f64> = random_matrix(&mut StdRng::seed_from_u64(4096), N, 32);
    let singles: Vec<Vec<f64>> = (0..32)
        .map(|j| factorization.solve(rhs.col(j)).unwrap())
        .collect();
    for k in WIDTHS {
        let block = factorization
            .solve_block(&rhs.sub_matrix(0, 0, N, k))
            .unwrap();
        for (j, single) in singles.iter().take(k).enumerate() {
            let same = block
                .col(j)
                .iter()
                .zip(single)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(
                same,
                "{name} on {:?}: column {j} of a {k}-column block differs from its single solve",
                hodlr.backend()
            );
        }
    }
}

#[test]
fn gp_se_3d_blocked_columns_are_their_single_solves() {
    let part = spatial_points(&mut StdRng::seed_from_u64(4096), N, 3, LEAF);
    let kernel = SquaredExponential {
        variance: 1.0,
        length_scale: 8.0 * (1.0 / N as f64).cbrt(),
    };
    let source = covariance_source(&kernel, &part.points, 1e-2);
    for backend in [Backend::Serial, Backend::Batched] {
        let hodlr = build(&source, &part.tree, Symmetry::PositiveDefinite, backend);
        check("gp-se-3d n = 4096", &hodlr);
    }
}

#[test]
fn laplace_surface_2d_blocked_columns_are_their_single_solves() {
    let source = LaplaceSurfaceSource::new(&circle_cloud(N), LEAF).unwrap();
    for backend in [Backend::Serial, Backend::Batched] {
        let hodlr = build(&source, source.tree(), Symmetry::General, backend);
        check("laplace-surface-2d n = 4096", &hodlr);
    }
}
