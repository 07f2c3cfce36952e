//! Point clouds and geometry-aware cluster trees.
//!
//! Kernel matrices and discretized boundary integral operators are HODLR
//! because *spatially separated* clusters of points interact through a
//! numerically low-rank block.  To expose that structure the points must be
//! ordered so that every tree node owns a geometrically compact, consecutive
//! chunk; [`partition_points`] produces exactly that ordering by recursive
//! coordinate bisection (a k-d tree built top-down, always splitting at the
//! median of the widest coordinate).

use crate::tree::ClusterTree;
use hodlr_la::HodlrError;
use std::ops::Range;

/// A set of `len` points in `dim` dimensions, stored point-major
/// (`coords[i * dim + d]` is coordinate `d` of point `i`).
#[derive(Clone, Debug, PartialEq)]
pub struct PointCloud {
    dim: usize,
    coords: Vec<f64>,
}

impl PointCloud {
    /// Build a cloud from point-major coordinates.
    ///
    /// # Panics
    /// Panics if `coords.len()` is not a multiple of `dim` or `dim == 0`.
    pub fn new(dim: usize, coords: Vec<f64>) -> Self {
        assert!(dim > 0, "points must have at least one coordinate");
        assert_eq!(
            coords.len() % dim,
            0,
            "coordinate buffer length must be a multiple of dim"
        );
        PointCloud { dim, coords }
    }

    /// Build a cloud from a slice of fixed-dimension points.
    pub fn from_points<const D: usize>(points: &[[f64; D]]) -> Self {
        let mut coords = Vec::with_capacity(points.len() * D);
        for p in points {
            coords.extend_from_slice(p);
        }
        PointCloud::new(D, coords)
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.coords.len() / self.dim
    }

    /// `true` when the cloud holds no points.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// Spatial dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Coordinates of point `i`.
    pub fn point(&self, i: usize) -> &[f64] {
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }

    /// Euclidean distance between points `i` and `j`.
    pub fn distance(&self, i: usize, j: usize) -> f64 {
        euclidean(self.point(i), self.point(j))
    }

    /// Distances from point `i` to the run of points `j0 .. j0 +
    /// out.len()`: `out[k]` gets `distance(i, j0 + k)`, bit for bit.
    ///
    /// This is the bulk form a kernel source evaluates a matrix row or
    /// column through: point `i` is read once, and in 2-D and 3-D the sum
    /// of squares is written out in the order `distance` adds it, as a
    /// plain loop over the run.  Every distance is symmetric bit for bit
    /// (`(a - b)^2` and `(b - a)^2` are equal in IEEE arithmetic), so the
    /// run also holds `distance(j0 + k, i)`.
    ///
    /// # Panics
    /// Panics if point `i` or a point of the run is not in the cloud.
    pub fn distances(&self, i: usize, j0: usize, out: &mut [f64]) {
        let p = self.point(i);
        let run = &self.coords[j0 * self.dim..(j0 + out.len()) * self.dim];
        match *p {
            [x, y] => {
                for (o, q) in out.iter_mut().zip(run.chunks_exact(2)) {
                    let (dx, dy) = (x - q[0], y - q[1]);
                    *o = (dx * dx + dy * dy).sqrt();
                }
            }
            [x, y, z] => {
                for (o, q) in out.iter_mut().zip(run.chunks_exact(3)) {
                    let (dx, dy, dz) = (x - q[0], y - q[1], z - q[2]);
                    *o = (dx * dx + dy * dy + dz * dz).sqrt();
                }
            }
            _ => {
                for (o, q) in out.iter_mut().zip(run.chunks_exact(self.dim)) {
                    *o = euclidean(p, q);
                }
            }
        }
    }

    /// Minimum pairwise distance (used by the RPY benchmark, where the
    /// particle radius is set to half the minimum distance).
    ///
    /// Computed by a sorted-axis sweep: points are ordered along the widest
    /// coordinate and each inner scan stops as soon as the separation along
    /// that single axis already reaches the best distance seen — for
    /// spatially spread clouds this visits `O(k)` neighbours per point
    /// instead of all `n`.  The answer is the minimum of exactly the same
    /// pairwise distances as the plain double loop, so it is bitwise
    /// identical to it.
    pub fn min_distance(&self) -> f64 {
        let n = self.len();
        if n < 2 {
            return f64::INFINITY;
        }
        if !self.coords.iter().all(|c| c.is_finite()) {
            // Non-finite coordinates break the sortedness argument of the
            // sweep; fall back to the exhaustive scan.
            return self.min_distance_exhaustive();
        }
        let idx_all: Vec<usize> = (0..n).collect();
        let (lo, hi) = self.bounding_box(&idx_all);
        let axis = (0..self.dim)
            .max_by(|&a, &b| {
                (hi[a] - lo[a])
                    .partial_cmp(&(hi[b] - lo[b]))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(0);
        let mut order = idx_all;
        order.sort_by(|&a, &b| {
            self.point(a)[axis]
                .partial_cmp(&self.point(b)[axis])
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut best = f64::INFINITY;
        for i in 0..n {
            let xi = self.point(order[i])[axis];
            for &oj in &order[(i + 1)..] {
                let dx = self.point(oj)[axis] - xi;
                // Along the sorted axis dx only grows with j, and the full
                // distance is at least |dx|: nothing further right can
                // still beat `best`.
                if dx * dx >= best * best {
                    break;
                }
                let d = self.distance(order[i], oj);
                if d < best {
                    best = d;
                }
            }
        }
        best
    }

    /// The plain `O(n^2)` double loop behind [`PointCloud::min_distance`];
    /// kept as the fallback for non-finite coordinates and as the test
    /// oracle for the sweep.
    fn min_distance_exhaustive(&self) -> f64 {
        let n = self.len();
        let mut best = f64::INFINITY;
        for i in 0..n {
            for j in (i + 1)..n {
                let d = self.distance(i, j);
                if d < best {
                    best = d;
                }
            }
        }
        best
    }

    /// Reorder the points by `perm` (`perm[new] = old`), returning a new
    /// cloud.
    ///
    /// # Errors
    /// [`HodlrError::InvalidConfig`] when `perm` does not have one entry
    /// per point or names a point index out of range.
    pub fn permuted(&self, perm: &[usize]) -> Result<PointCloud, HodlrError> {
        if perm.len() != self.len() {
            return Err(HodlrError::config(format!(
                "permutation has {} entries for a cloud of {} points",
                perm.len(),
                self.len()
            )));
        }
        let mut coords = Vec::with_capacity(self.coords.len());
        for &old in perm {
            if old >= self.len() {
                return Err(HodlrError::config(format!(
                    "permutation names point {old} of a cloud of {} points",
                    self.len()
                )));
            }
            coords.extend_from_slice(self.point(old));
        }
        Ok(PointCloud::new(self.dim, coords))
    }

    /// Bounding-box extents `(min, max)` per coordinate of a subset of
    /// points.
    fn bounding_box(&self, idx: &[usize]) -> (Vec<f64>, Vec<f64>) {
        let mut lo = vec![f64::INFINITY; self.dim];
        let mut hi = vec![f64::NEG_INFINITY; self.dim];
        for &i in idx {
            for d in 0..self.dim {
                let x = self.point(i)[d];
                if x < lo[d] {
                    lo[d] = x;
                }
                if x > hi[d] {
                    hi[d] = x;
                }
            }
        }
        (lo, hi)
    }
}

/// The Euclidean distance between two points, summing the squared
/// coordinate differences in coordinate order.  The sum starts from zero,
/// which adds nothing to a square (a square is `+0` or more), so in 2-D and
/// 3-D it equals the plain `dx * dx + dy * dy (+ dz * dz)` bit for bit.
fn euclidean(p: &[f64], q: &[f64]) -> f64 {
    p.iter()
        .zip(q)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt()
}

/// Result of [`partition_points`]: the cluster tree plus the permutation
/// that maps tree ordering back to the caller's original point indices.
#[derive(Clone, Debug)]
pub struct PointPartition {
    /// The geometry-aware cluster tree.
    pub tree: ClusterTree,
    /// `perm[new_index] = original_index`: position `new_index` in the tree
    /// ordering holds the caller's point `original_index`.
    pub perm: Vec<usize>,
    /// The points reordered into tree order (row `i` of the matrix
    /// corresponds to `points.point(i)`).
    pub points: PointCloud,
}

/// Build a cluster tree over a point cloud by recursive coordinate
/// bisection with `levels` levels chosen so that every leaf holds at least
/// `min_leaf_size` points.
///
/// # Errors
/// [`HodlrError::InvalidConfig`] for an empty point cloud.
pub fn partition_points(
    cloud: &PointCloud,
    min_leaf_size: usize,
) -> Result<PointPartition, HodlrError> {
    let n = cloud.len();
    if n == 0 {
        return Err(HodlrError::config("cannot partition an empty point cloud"));
    }
    let min_leaf = min_leaf_size.max(1);
    let mut levels = 0usize;
    while n >> (levels + 1) >= min_leaf && (1usize << (levels + 1)) <= n {
        levels += 1;
    }

    let num_nodes = (1usize << (levels + 1)) - 1;
    let mut ranges: Vec<Range<usize>> = vec![0..0; num_nodes];
    let mut perm: Vec<usize> = (0..n).collect();
    ranges[0] = 0..n;

    // Breadth-first split: for every internal node sort its slice of the
    // permutation along the widest coordinate and cut at the median.
    for id in 1..=num_nodes {
        let range = ranges[id - 1].clone();
        if 2 * id + 1 > num_nodes {
            continue;
        }
        let slice = &mut perm[range.clone()];
        let (lo, hi) = cloud.bounding_box(slice);
        let split_dim = (0..cloud.dim())
            .max_by(|&a, &b| {
                (hi[a] - lo[a])
                    .partial_cmp(&(hi[b] - lo[b]))
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(0);
        let mid_local = range.len().div_ceil(2);
        slice.select_nth_unstable_by(
            mid_local.saturating_sub(1).min(range.len() - 1),
            |&a, &b| {
                cloud.point(a)[split_dim]
                    .partial_cmp(&cloud.point(b)[split_dim])
                    .unwrap_or(std::cmp::Ordering::Equal)
            },
        );
        // `select_nth_unstable_by` leaves everything <= pivot on the left,
        // which is all we need for a median split.
        let mid = range.start + mid_local;
        ranges[2 * id - 1] = range.start..mid;
        ranges[2 * id] = mid..range.end;
    }

    let tree = ClusterTree::from_ranges(n, levels, ranges);
    let points = cloud.permuted(&perm)?;
    Ok(PointPartition { tree, perm, points })
}

/// Generate `n` points distributed uniformly in the cube `[-1, 1]^dim`
/// (the point distribution of the paper's kernel-matrix benchmark,
/// Section IV-A).
pub fn uniform_cube_points<R: rand::Rng + ?Sized>(rng: &mut R, n: usize, dim: usize) -> PointCloud {
    let coords = (0..n * dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    PointCloud::new(dim, coords)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn point_cloud_accessors() {
        let cloud = PointCloud::from_points(&[[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]]);
        assert_eq!(cloud.len(), 3);
        assert_eq!(cloud.dim(), 2);
        assert_eq!(cloud.point(1), &[3.0, 4.0]);
        assert!((cloud.distance(0, 1) - 5.0).abs() < 1e-15);
        assert!((cloud.min_distance() - 2.0_f64.sqrt()).abs() < 1e-15);
    }

    /// `distances` is `distance` bit for bit, both ways round, in every
    /// dimension up to 4: runs over the whole cloud, from the point
    /// itself, ending at the last point, of one point and empty.
    #[test]
    fn distances_match_distance_bitwise() {
        let mut rng = StdRng::seed_from_u64(17);
        let n = 97;
        for dim in 1..=4 {
            // Coordinates of mixed sign and magnitude, so that a reordered
            // or fused sum of squares rounds differently somewhere.
            let coords = (0..n * dim).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let cloud = PointCloud::new(dim, coords);
            for i in [0, 1, 48, n - 1] {
                for (j0, len) in [(0, n), (i, n - i), (n - 5, 5), (i, 1), (n, 0), (30, 0)] {
                    let mut out = vec![f64::NAN; len];
                    cloud.distances(i, j0, &mut out);
                    for (k, &d) in out.iter().enumerate() {
                        let j = j0 + k;
                        let want = cloud.distance(i, j);
                        assert_eq!(d.to_bits(), want.to_bits(), "dim {dim}: ({i}, {j})");
                        assert_eq!(want.to_bits(), cloud.distance(j, i).to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn permuted_reorders_points() {
        let cloud = PointCloud::from_points(&[[1.0], [2.0], [3.0]]);
        let p = cloud.permuted(&[2, 0, 1]).unwrap();
        assert_eq!(p.point(0), &[3.0]);
        assert_eq!(p.point(1), &[1.0]);
        assert_eq!(p.point(2), &[2.0]);
    }

    #[test]
    fn partition_produces_valid_tree_and_permutation() {
        let mut rng = StdRng::seed_from_u64(42);
        let cloud = uniform_cube_points(&mut rng, 500, 3);
        let part = partition_points(&cloud, 32).unwrap();
        part.tree.check_invariants().unwrap();
        assert!(part.tree.leaves().all(|id| part.tree.node_size(id) >= 32));
        // perm is a permutation of 0..n.
        let mut sorted = part.perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..500).collect::<Vec<_>>());
        // The reordered cloud holds the same points.
        for (new, &old) in part.perm.iter().enumerate() {
            assert_eq!(part.points.point(new), cloud.point(old));
        }
    }

    #[test]
    fn partition_separates_two_clusters() {
        // Two well separated blobs on the x axis: the level-1 split must
        // isolate them (all of one blob left, all of the other right).
        let mut pts = Vec::new();
        for i in 0..40 {
            pts.push([-10.0 + 0.01 * i as f64, 0.0]);
        }
        for i in 0..40 {
            pts.push([10.0 + 0.01 * i as f64, 0.0]);
        }
        let cloud = PointCloud::from_points(&pts);
        let part = partition_points(&cloud, 10).unwrap();
        let left = part.tree.range(2);
        let originals: Vec<usize> = left.map(|i| part.perm[i]).collect();
        assert!(originals.iter().all(|&o| o < 40) || originals.iter().all(|&o| o >= 40));
    }

    #[test]
    fn single_point_cloud() {
        let cloud = PointCloud::from_points(&[[0.5, 0.5]]);
        let part = partition_points(&cloud, 16).unwrap();
        assert_eq!(part.tree.levels(), 0);
        assert_eq!(part.perm, vec![0]);
    }

    #[test]
    #[should_panic(expected = "multiple of dim")]
    fn mismatched_coordinate_buffer_panics() {
        let _ = PointCloud::new(3, vec![1.0, 2.0]);
    }

    #[test]
    fn invalid_permutations_are_typed_errors() {
        let cloud = PointCloud::from_points(&[[1.0], [2.0], [3.0]]);
        assert!(matches!(
            cloud.permuted(&[0, 1]),
            Err(HodlrError::InvalidConfig { .. })
        ));
        assert!(matches!(
            cloud.permuted(&[0, 1, 7]),
            Err(HodlrError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn empty_cloud_partition_is_a_typed_error() {
        let empty = PointCloud::new(2, vec![]);
        assert!(matches!(
            partition_points(&empty, 8),
            Err(HodlrError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn partition_balances_leaves_in_2d_and_3d() {
        for dim in [2usize, 3] {
            let mut rng = StdRng::seed_from_u64(7 + dim as u64);
            let cloud = uniform_cube_points(&mut rng, 1000, dim);
            let part = partition_points(&cloud, 32).unwrap();
            assert!(part.tree.levels() >= 3, "dim {dim}: tree too shallow");
            let sizes: Vec<usize> = part
                .tree
                .leaves()
                .map(|id| part.tree.node_size(id))
                .collect();
            let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
            // Median splits keep every leaf within one point of its
            // sibling, so globally leaves differ by at most the number of
            // levels.
            assert!(
                max - min <= part.tree.levels(),
                "dim {dim}: leaf sizes {min}..{max}"
            );
        }
    }

    #[test]
    fn duplicate_coordinates_still_split_on_the_widest_axis() {
        // All points share x; the spread lives on y.  The split must pick
        // y (the widest axis) and still produce a balanced partition.
        let pts: Vec<[f64; 2]> = (0..64).map(|i| [5.0, i as f64]).collect();
        let cloud = PointCloud::from_points(&pts);
        let part = partition_points(&cloud, 16).unwrap();
        assert!(part.tree.levels() >= 1);
        let left: Vec<usize> = part.tree.range(2).map(|i| part.perm[i]).collect();
        let right: Vec<usize> = part.tree.range(3).map(|i| part.perm[i]).collect();
        // The split separates low-y from high-y points.
        let left_max = left.iter().map(|&o| pts[o][1]).fold(f64::MIN, f64::max);
        let right_min = right.iter().map(|&o| pts[o][1]).fold(f64::MAX, f64::min);
        assert!(left_max <= right_min);
        // A fully degenerate cloud (every point identical) still
        // partitions without panicking.
        let same = PointCloud::from_points(&[[1.0, 2.0]; 50]);
        let part = partition_points(&same, 8).unwrap();
        part.tree.check_invariants().unwrap();
    }

    #[test]
    fn min_distance_handles_non_finite_coordinates() {
        let cloud = PointCloud::from_points(&[[0.0, 0.0], [f64::NAN, 1.0], [0.0, 3.0]]);
        // The sweep falls back to the exhaustive scan; the finite pair
        // still wins.
        assert_eq!(cloud.min_distance(), 3.0);
        let single = PointCloud::from_points(&[[1.0]]);
        assert_eq!(single.min_distance(), f64::INFINITY);
    }

    proptest! {
        #[test]
        fn partition_is_always_a_permutation(n in 1usize..400, dim in 1usize..4, leaf in 1usize..64) {
            let mut rng = StdRng::seed_from_u64(n as u64 * 31 + dim as u64);
            let cloud = uniform_cube_points(&mut rng, n, dim);
            let part = partition_points(&cloud, leaf).unwrap();
            let mut sorted = part.perm.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
            prop_assert!(part.tree.check_invariants().is_ok());
        }

        #[test]
        fn min_distance_sweep_is_bitwise_exhaustive(n in 2usize..200, dim in 1usize..4) {
            let mut rng = StdRng::seed_from_u64(n as u64 * 131 + dim as u64);
            let cloud = uniform_cube_points(&mut rng, n, dim);
            // The sweep minimizes over the same multiset of distances as
            // the double loop, so the answers are bitwise identical.
            prop_assert_eq!(
                cloud.min_distance().to_bits(),
                cloud.min_distance_exhaustive().to_bits()
            );
        }

        #[test]
        fn leaves_are_geometrically_tighter_than_root(n in 64usize..300) {
            let mut rng = StdRng::seed_from_u64(n as u64);
            let cloud = uniform_cube_points(&mut rng, n, 2);
            let part = partition_points(&cloud, 8).unwrap();
            prop_assume!(part.tree.levels() >= 1);
            // Diameter of each level-1 cluster along the split axis is at
            // most the root diameter (sanity of the bisection).
            let idx_all: Vec<usize> = (0..n).collect();
            let (root_lo, root_hi) = part.points.bounding_box(&idx_all);
            let root_width: f64 = (0..2).map(|d| root_hi[d] - root_lo[d]).fold(0.0, f64::max);
            for node in part.tree.level_nodes(1) {
                let idx: Vec<usize> = part.tree.range(node).collect();
                let (l, h) = part.points.bounding_box(&idx);
                let w: f64 = (0..2).map(|d| h[d] - l[d]).fold(0.0, f64::max);
                prop_assert!(w <= root_width + 1e-12);
            }
        }
    }
}
