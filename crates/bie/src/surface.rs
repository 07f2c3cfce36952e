//! Regularized single-layer surfaces in 2-D and 3-D: the scale-out
//! geometry family.
//!
//! The contour problems of [`laplace`](crate::laplace) and
//! [`helmholtz`](crate::helmholtz) parameterize a 1-D curve, so their
//! nodes are already in spatial order and the natural index tree is the
//! right cluster tree.  To exercise the d-dimensional partitioner (and to
//! reach `n >= 10^5` without a global parameterization) this module
//! discretizes the *single-layer* operator over an unordered point cloud
//! sampled from a closed surface:
//!
//! `(A sigma)_i = 1/2 sigma_i + sum_j w S_delta(|x_i - x_j|) sigma_j`
//!
//! with the vertex-regularized single-layer kernel
//!
//! * 2-D: `S_delta(r) = -log sqrt(r^2 + delta^2) / (2 pi)`,
//! * 3-D: `S_delta(r) = 1 / (4 pi sqrt(r^2 + delta^2))`,
//!
//! equal quadrature weights `w = |Gamma| / n`, and the regularization
//! length `delta` tied to the mean node spacing.  Regularization stands in
//! for a product quadrature rule: it keeps the diagonal finite while
//! preserving the off-diagonal kernel (and hence the low-rank structure
//! HODLR compresses) wherever clusters are separated by more than a few
//! `delta`.  The `1/2 I` shift keeps the operator second-kind-like and
//! well away from singular, so direct factorization is meaningful at any
//! size.
//!
//! The Helmholtz variant multiplies the Laplace kernel by the oscillatory
//! factor `exp(i kappa r)`, giving complex entries and the rank growth
//! with `kappa` that Table V studies on the contour.
//!
//! Construction goes through [`partition_points`]: the sources own the
//! *tree-ordered* cloud and the matching [`ClusterTree`], so row `i` of
//! the matrix is node `i` of the reordered cloud and the HODLR builder can
//! consume the pair directly.

use hodlr_compress::{symmetric_tile, MatrixEntrySource};
use hodlr_la::{Complex64, HodlrError, MatMut};
use hodlr_tree::{partition_points, ClusterTree, PointCloud};

/// `n` equispaced points on the unit circle (a closed curve in 2-D),
/// deliberately *not* in angular order: indices are bit-reversal shuffled
/// so that the spatial partitioner, not the generator, has to recover
/// locality.
pub fn circle_cloud(n: usize) -> PointCloud {
    let mut coords = Vec::with_capacity(2 * n);
    for k in shuffled_indices(n) {
        let theta = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
        coords.push(theta.cos());
        coords.push(theta.sin());
    }
    PointCloud::new(2, coords)
}

/// `n` points on the unit sphere placed by the Fibonacci (golden-angle)
/// lattice — the standard quasi-uniform sphere sampling — with the same
/// index shuffle as [`circle_cloud`].
pub fn fibonacci_sphere_cloud(n: usize) -> PointCloud {
    let golden_angle = std::f64::consts::PI * (3.0 - 5.0f64.sqrt());
    let mut coords = Vec::with_capacity(3 * n);
    for k in shuffled_indices(n) {
        let z = 1.0 - 2.0 * (k as f64 + 0.5) / n as f64;
        let r = (1.0 - z * z).max(0.0).sqrt();
        let phi = golden_angle * k as f64;
        coords.push(r * phi.cos());
        coords.push(r * phi.sin());
        coords.push(z);
    }
    PointCloud::new(3, coords)
}

/// `0..n` with the bits of each index reversed (within the smallest
/// enclosing power of two), dropping values `>= n`: a deterministic
/// permutation that destroys the generator's spatial ordering.
fn shuffled_indices(n: usize) -> Vec<usize> {
    let bits = usize::BITS - n.next_power_of_two().leading_zeros() - 1;
    if bits == 0 {
        return (0..n).collect();
    }
    (0..n.next_power_of_two())
        .map(|i| i.reverse_bits() >> (usize::BITS - bits.max(1)))
        .filter(|&i| i < n)
        .take(n)
        .collect()
}

/// Shared geometry of the regularized surface discretizations: the
/// tree-ordered cloud, its cluster tree, the uniform quadrature weight and
/// the regularization length.
struct SurfaceGeometry {
    points: PointCloud,
    tree: ClusterTree,
    weight: f64,
    delta: f64,
}

impl SurfaceGeometry {
    fn new(cloud: &PointCloud, leaf_size: usize) -> Result<Self, HodlrError> {
        let dim = cloud.dim();
        if dim != 2 && dim != 3 {
            return Err(HodlrError::config(format!(
                "regularized surface sources support 2-D curves and 3-D \
                 surfaces, got a {dim}-dimensional cloud"
            )));
        }
        let part = partition_points(cloud, leaf_size)?;
        let n = part.points.len() as f64;
        // Total measure of the unit circle / unit sphere; equal weights.
        let (measure, spacing) = if dim == 2 {
            let m = 2.0 * std::f64::consts::PI;
            (m, m / n)
        } else {
            let m = 4.0 * std::f64::consts::PI;
            (m, (m / n).sqrt())
        };
        Ok(SurfaceGeometry {
            points: part.points,
            tree: part.tree,
            weight: measure / n,
            delta: spacing,
        })
    }

    /// The regularized Laplace single-layer kernel at distance `r`.
    fn laplace_kernel(&self, r: f64) -> f64 {
        let pi = std::f64::consts::PI;
        let reg = (r * r + self.delta * self.delta).sqrt();
        if self.points.dim() == 2 {
            -reg.ln() / (2.0 * pi)
        } else {
            1.0 / (4.0 * pi * reg)
        }
    }
}

/// The identity term of entry `(i, j)` of `1/2 I + S_delta`.
fn identity(i: usize, j: usize) -> f64 {
    if i == j {
        0.5
    } else {
        0.0
    }
}

/// The regularized Laplace single-layer operator `1/2 I + S_delta` over a
/// closed surface point cloud (unit circle in 2-D, unit sphere in 3-D, or
/// any cloud sampled from a closed surface).
///
/// Owns the tree-ordered cloud; feed [`Self::tree`] and the source itself
/// to the HODLR builder.
pub struct LaplaceSurfaceSource {
    geometry: SurfaceGeometry,
}

impl LaplaceSurfaceSource {
    /// Spatially reorder `cloud` (leaves of at least `leaf_size` points)
    /// and discretize the regularized single-layer operator over it.
    ///
    /// # Errors
    /// [`HodlrError::InvalidConfig`] when the cloud is empty or not 2-D /
    /// 3-D.
    pub fn new(cloud: &PointCloud, leaf_size: usize) -> Result<Self, HodlrError> {
        Ok(LaplaceSurfaceSource {
            geometry: SurfaceGeometry::new(cloud, leaf_size)?,
        })
    }

    /// The cluster tree matching the reordered cloud.
    pub fn tree(&self) -> &ClusterTree {
        &self.geometry.tree
    }

    /// The tree-ordered point cloud (row `i` of the matrix is point `i`).
    pub fn points(&self) -> &PointCloud {
        &self.geometry.points
    }

    /// The regularization length `delta` (about one node spacing).
    pub fn delta(&self) -> f64 {
        self.geometry.delta
    }
}

impl MatrixEntrySource<f64> for LaplaceSurfaceSource {
    fn nrows(&self) -> usize {
        self.geometry.points.len()
    }

    fn ncols(&self) -> usize {
        self.geometry.points.len()
    }

    fn entry(&self, i: usize, j: usize) -> f64 {
        let r = self.geometry.points.distance(i, j);
        identity(i, j) + self.geometry.weight * self.geometry.laplace_kernel(r)
    }

    /// Each run is one [`PointCloud::distances`] pass, then the entries
    /// from the distances.
    fn tile(&self, row0: usize, col0: usize, out: &mut MatMut<'_, f64>) {
        let g = &self.geometry;
        symmetric_tile(row0, col0, out, |p, start, run| {
            g.points.distances(p, start, run);
            for (k, v) in run.iter_mut().enumerate() {
                *v = identity(p, start + k) + g.weight * g.laplace_kernel(*v);
            }
        });
    }
}

/// The regularized Helmholtz single-layer operator
/// `1/2 I + S_delta^kappa` with `S_delta^kappa(r) = S_delta(r) e^{i kappa r}`
/// over a closed surface point cloud.  Complex-valued; ranks grow with
/// `kappa` exactly as in the contour benchmark.
pub struct HelmholtzSurfaceSource {
    geometry: SurfaceGeometry,
    kappa: f64,
}

impl HelmholtzSurfaceSource {
    /// Spatially reorder `cloud` and discretize the regularized Helmholtz
    /// single-layer operator at wavenumber `kappa`.
    ///
    /// # Errors
    /// [`HodlrError::InvalidConfig`] when the cloud is empty, not 2-D /
    /// 3-D, or `kappa` is not finite and non-negative.
    pub fn new(cloud: &PointCloud, leaf_size: usize, kappa: f64) -> Result<Self, HodlrError> {
        if !kappa.is_finite() || kappa < 0.0 {
            return Err(HodlrError::config(format!(
                "Helmholtz wavenumber must be finite and non-negative, got {kappa}"
            )));
        }
        Ok(HelmholtzSurfaceSource {
            geometry: SurfaceGeometry::new(cloud, leaf_size)?,
            kappa,
        })
    }

    /// The cluster tree matching the reordered cloud.
    pub fn tree(&self) -> &ClusterTree {
        &self.geometry.tree
    }

    /// The tree-ordered point cloud.
    pub fn points(&self) -> &PointCloud {
        &self.geometry.points
    }

    /// The wavenumber.
    pub fn kappa(&self) -> f64 {
        self.kappa
    }
}

impl MatrixEntrySource<Complex64> for HelmholtzSurfaceSource {
    fn nrows(&self) -> usize {
        self.geometry.points.len()
    }

    fn ncols(&self) -> usize {
        self.geometry.points.len()
    }

    fn entry(&self, i: usize, j: usize) -> Complex64 {
        let identity = if i == j { 0.5 } else { 0.0 };
        let r = self.geometry.points.distance(i, j);
        let amplitude = self.geometry.weight * self.geometry.laplace_kernel(r);
        let phase = self.kappa * r;
        Complex64::new(identity + amplitude * phase.cos(), amplitude * phase.sin())
    }
}

/// A wavenumber resolved by `n` quasi-uniform points on the unit sphere /
/// circle: about ten points per wavelength along the surface, capped at
/// the paper's `kappa = 100`.
pub fn surface_resolved_kappa(n: usize, dim: usize) -> f64 {
    let spacing = if dim == 2 {
        2.0 * std::f64::consts::PI / n as f64
    } else {
        (4.0 * std::f64::consts::PI / n as f64).sqrt()
    };
    let kappa = 2.0 * std::f64::consts::PI / (10.0 * spacing);
    kappa.min(100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn circle_cloud_lies_on_the_unit_circle_and_is_shuffled() {
        let cloud = circle_cloud(128);
        assert_eq!(cloud.len(), 128);
        assert_eq!(cloud.dim(), 2);
        for i in 0..cloud.len() {
            let p = cloud.point(i);
            let r = (p[0] * p[0] + p[1] * p[1]).sqrt();
            assert!((r - 1.0).abs() < 1e-12);
        }
        // The shuffle did its job: consecutive indices are not neighbours
        // on the circle for at least some pairs.
        let d01 = cloud.distance(0, 1);
        let min = cloud.min_distance();
        assert!(d01 > 10.0 * min, "generator order leaked: {d01} vs {min}");
    }

    #[test]
    fn fibonacci_sphere_is_quasi_uniform() {
        let cloud = fibonacci_sphere_cloud(500);
        assert_eq!(cloud.len(), 500);
        assert_eq!(cloud.dim(), 3);
        for i in 0..cloud.len() {
            let p = cloud.point(i);
            let r = (p[0] * p[0] + p[1] * p[1] + p[2] * p[2]).sqrt();
            assert!((r - 1.0).abs() < 1e-12);
        }
        // Quasi-uniform: the minimum spacing is within a small factor of
        // the mean spacing sqrt(4 pi / n).
        let mean = (4.0 * std::f64::consts::PI / 500.0f64).sqrt();
        let min = cloud.min_distance();
        assert!(min > 0.2 * mean, "spacing collapsed: {min} vs mean {mean}");
    }

    #[test]
    fn laplace_surface_source_is_symmetric_and_second_kind() {
        for cloud in [circle_cloud(200), fibonacci_sphere_cloud(200)] {
            let src = LaplaceSurfaceSource::new(&cloud, 32).unwrap();
            assert_eq!(src.nrows(), 200);
            assert_eq!(src.tree().n(), 200);
            for i in (0..200).step_by(37) {
                for j in (0..200).step_by(41) {
                    assert!((src.entry(i, j) - src.entry(j, i)).abs() < 1e-15);
                }
                assert!((src.entry(i, i) - 0.5).abs() < 0.5);
            }
        }
    }

    #[test]
    fn helmholtz_surface_reduces_to_laplace_at_kappa_zero() {
        let cloud = fibonacci_sphere_cloud(150);
        let lap = LaplaceSurfaceSource::new(&cloud, 32).unwrap();
        let helm = HelmholtzSurfaceSource::new(&cloud, 32, 0.0).unwrap();
        for i in (0..150).step_by(13) {
            for j in (0..150).step_by(17) {
                let h = helm.entry(i, j);
                assert!((h.re - lap.entry(i, j)).abs() < 1e-15);
                assert!(h.im.abs() < 1e-15);
            }
        }
    }

    #[test]
    fn invalid_configurations_are_typed_errors() {
        let cloud_1d = PointCloud::new(1, vec![0.0, 1.0, 2.0]);
        assert!(matches!(
            LaplaceSurfaceSource::new(&cloud_1d, 2),
            Err(HodlrError::InvalidConfig { .. })
        ));
        let empty = PointCloud::new(2, vec![]);
        assert!(matches!(
            LaplaceSurfaceSource::new(&empty, 2),
            Err(HodlrError::InvalidConfig { .. })
        ));
        let sphere = fibonacci_sphere_cloud(32);
        assert!(matches!(
            HelmholtzSurfaceSource::new(&sphere, 8, f64::NAN),
            Err(HodlrError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn surface_kappa_is_resolved_and_capped() {
        assert!(surface_resolved_kappa(1 << 22, 3) <= 100.0);
        assert!(surface_resolved_kappa(2000, 3) > 1.0);
        assert!(surface_resolved_kappa(2000, 2) > 1.0);
    }
}
