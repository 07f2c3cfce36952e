//! Covariance-matrix entry sources over point sets, plus point-set
//! helpers for the common 1-D GP regression layouts.

use crate::kernels::StationaryKernel;
use hodlr_compress::{symmetric_tile, MatrixEntrySource, ShiftedSource};
use hodlr_la::MatMut;
use hodlr_tree::{partition_points, PointCloud, PointPartition};
use rand::Rng;

/// The noise-free correlation matrix `K_ij = k(|x_i - x_j|)` over a point
/// cloud, evaluated lazily through the existing
/// [`MatrixEntrySource`] vocabulary (so the HODLR builder, the ACA
/// compressors and [`BlockSource`](hodlr_core::BlockSource) all accept it
/// unchanged).
pub struct CorrelationSource<'a, K: StationaryKernel + ?Sized> {
    kernel: &'a K,
    points: &'a PointCloud,
}

impl<'a, K: StationaryKernel + ?Sized> CorrelationSource<'a, K> {
    /// The kernel matrix of `kernel` over `points`.
    pub fn new(kernel: &'a K, points: &'a PointCloud) -> Self {
        CorrelationSource { kernel, points }
    }
}

impl<K: StationaryKernel + ?Sized> MatrixEntrySource<f64> for CorrelationSource<'_, K> {
    fn nrows(&self) -> usize {
        self.points.len()
    }

    fn ncols(&self) -> usize {
        self.points.len()
    }

    fn entry(&self, i: usize, j: usize) -> f64 {
        self.kernel.eval(self.points.distance(i, j))
    }

    /// Each run is one [`PointCloud::distances`] pass, then the kernel
    /// over the run.
    fn tile(&self, row0: usize, col0: usize, out: &mut MatMut<'_, f64>) {
        symmetric_tile(row0, col0, out, |p, start, run| {
            self.points.distances(p, start, run);
            for v in run.iter_mut() {
                *v = self.kernel.eval(*v);
            }
        });
    }
}

/// The full GP covariance source `K + sigma_n^2 I`: the stationary kernel
/// matrix with the noise nugget on the diagonal, composed from
/// [`CorrelationSource`] and the generic
/// [`ShiftedSource`] diagonal adapter of `hodlr-compress`.
pub type CovarianceSource<'a, K> = ShiftedSource<f64, CorrelationSource<'a, K>>;

/// Build the covariance source `K + noise * I` for `kernel` over `points`.
///
/// `noise` is the nugget `sigma_n^2` (observation-noise variance); every
/// practical GP adds one, and it is also what keeps the covariance matrix
/// far enough from singular for the HODLR factorization.
///
/// # Panics
/// Panics if `noise` is negative or non-finite.
pub fn covariance_source<'a, K: StationaryKernel + ?Sized>(
    kernel: &'a K,
    points: &'a PointCloud,
    noise: f64,
) -> CovarianceSource<'a, K> {
    assert!(
        noise >= 0.0 && noise.is_finite(),
        "noise variance must be non-negative and finite, got {noise}"
    );
    ShiftedSource::new(CorrelationSource::new(kernel, points), noise)
}

/// A regular 1-D grid of `n` points on `[lo, hi]` (inclusive endpoints):
/// the canonical time-series / spatial-transect GP layout.  Already in
/// spatial order, so [`ClusterTree::with_leaf_size`](hodlr_tree::ClusterTree)
/// over the natural index order exposes the HODLR structure directly.
///
/// # Panics
/// Panics if `n < 2` or `hi <= lo`.
pub fn regular_grid_1d(n: usize, lo: f64, hi: f64) -> PointCloud {
    assert!(n >= 2, "a 1-D grid needs at least two points");
    assert!(hi > lo, "grid interval must have positive length");
    let h = (hi - lo) / (n - 1) as f64;
    PointCloud::new(1, (0..n).map(|i| lo + h * i as f64).collect())
}

/// `n` points drawn from `clusters` uniform bumps on `[0, 1]` (cluster
/// centers evenly spaced, jitter uniform within each bump) — the
/// clustered observation layout (sensor groups, sampling campaigns) where
/// spatial reordering matters.  Returns the recursive-bisection
/// [`PointPartition`] (reordered cloud + matching cluster tree), ready for
/// the HODLR builder's explicit-tree policy.
///
/// # Panics
/// Panics if `n == 0`, `clusters == 0` or `leaf_size == 0`.
pub fn clustered_points_1d(
    rng: &mut impl Rng,
    n: usize,
    clusters: usize,
    leaf_size: usize,
) -> PointPartition {
    assert!(n > 0 && clusters > 0 && leaf_size > 0);
    let coords: Vec<f64> = (0..n)
        .map(|i| {
            let c = i % clusters;
            let center = (c as f64 + 0.5) / clusters as f64;
            let spread = 0.1 / clusters as f64;
            center + spread * (rng.gen_range(-0.5..0.5))
        })
        .collect();
    partition_points(&PointCloud::new(1, coords), leaf_size)
        .expect("clustered_points always produces a non-empty cloud")
}

/// `n` points drawn uniformly from `[0, 1]^dim` and spatially reordered by
/// recursive coordinate bisection: the d-dimensional observation layout
/// (sensor fields, spatial surveys) of the scale-out benchmark.  Returns
/// the [`PointPartition`] (reordered cloud + matching cluster tree), ready
/// for the HODLR builder's explicit-tree policy; stationary kernels only
/// see pairwise distances, so [`CorrelationSource`] works over the result
/// unchanged in any dimension.
///
/// # Panics
/// Panics if `n == 0`, `dim == 0` or `leaf_size == 0`.
pub fn spatial_points(
    rng: &mut impl Rng,
    n: usize,
    dim: usize,
    leaf_size: usize,
) -> PointPartition {
    assert!(n > 0 && dim > 0 && leaf_size > 0);
    let coords: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(0.0..1.0)).collect();
    partition_points(&PointCloud::new(dim, coords), leaf_size)
        .expect("spatial_points always produces a non-empty cloud")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::SquaredExponential;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn covariance_source_is_symmetric_with_nugget_on_the_diagonal() {
        let points = regular_grid_1d(16, 0.0, 1.0);
        let kernel = SquaredExponential {
            variance: 1.5,
            length_scale: 0.3,
        };
        let src = covariance_source(&kernel, &points, 0.25);
        assert_eq!(src.nrows(), 16);
        for i in 0..6 {
            for j in 0..6 {
                assert!((src.entry(i, j) - src.entry(j, i)).abs() < 1e-15);
            }
            assert!((src.entry(i, i) - (1.5 + 0.25)).abs() < 1e-15);
        }
        assert!(src.entry(0, 15) < src.entry(0, 1));
    }

    #[test]
    fn regular_grid_endpoints_and_spacing() {
        let g = regular_grid_1d(5, -1.0, 1.0);
        assert_eq!(g.len(), 5);
        assert_eq!(g.point(0)[0], -1.0);
        assert_eq!(g.point(4)[0], 1.0);
        assert!((g.distance(1, 2) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn clustered_points_come_reordered_with_a_matching_tree() {
        let mut rng = StdRng::seed_from_u64(7);
        let part = clustered_points_1d(&mut rng, 128, 4, 16);
        assert_eq!(part.points.len(), 128);
        assert_eq!(part.tree.n(), 128);
        // Recursive bisection puts each leaf in a compact interval: the
        // first leaf's spread is much smaller than the full domain.
        let first_leaf = part.tree.range(part.tree.leaves().next().unwrap());
        let xs: Vec<f64> = first_leaf
            .clone()
            .map(|i| part.points.point(i)[0])
            .collect();
        let spread = xs.iter().cloned().fold(f64::MIN, f64::max)
            - xs.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 0.5, "leaf spread {spread}");
    }

    #[test]
    #[should_panic(expected = "noise variance")]
    fn negative_noise_is_rejected() {
        let points = regular_grid_1d(4, 0.0, 1.0);
        let kernel = SquaredExponential {
            variance: 1.0,
            length_scale: 1.0,
        };
        let _ = covariance_source(&kernel, &points, -1.0);
    }
}
