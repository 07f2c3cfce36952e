//! The operators the workloads run on, generated from the run's seed.

use crate::trace::Tracer;
use hodlr::{Backend, Hodlr, HodlrError, Symmetry};
use hodlr_compress::CompressionMethod;
use hodlr_gp::SquaredExponential;
use hodlr_tree::PointCloud;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Minimum leaf size of every cluster tree.
pub const LEAF: usize = 64;
/// Compression tolerance of every build.
pub const TOL: f64 = 1e-6;
/// GP observation-noise nugget: it has to dominate the `~tol * lambda_max`
/// truncation noise for the factorized solve to stay tight.
pub const NUGGET: f64 = 1e-2;

/// Generate the problem's points, order them and bind its entry source
/// and cluster tree to `$source` / `$tree` for `$body` (the source types
/// differ per family, so this expands once per family).  Partitioning and
/// source construction run in `$tracer` spans; the expansion site must
/// return `Result<_, HodlrError>`.
macro_rules! with_source {
    ($problem:expr, $tracer:expr, |$source:ident, $tree:ident| $body:expr) => {{
        let problem: &$crate::problem::Problem = &$problem;
        let cloud = problem.cloud();
        match problem.kind {
            $crate::problem::Kind::GpSe3d => {
                let part = $tracer.span("tree.partition", || {
                    hodlr_tree::partition_points(&cloud, $crate::problem::LEAF)
                })?;
                let kernel = problem.kernel();
                let $source = $tracer.span("source.new", || {
                    hodlr_gp::covariance_source(&kernel, &part.points, $crate::problem::NUGGET)
                });
                let $tree = part.tree.clone();
                $body
            }
            $crate::problem::Kind::LaplaceSurface2d => {
                let $source = $tracer.span("source.new", || {
                    hodlr_bie::LaplaceSurfaceSource::new(&cloud, $crate::problem::LEAF)
                })?;
                let $tree = $source.tree().clone();
                $body
            }
        }
    }};
}
pub(crate) use with_source;

/// Operator family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Squared-exponential GP covariance over uniform points in `[0, 1]^3`,
    /// length scale 8x the mean spacing, symmetric positive definite.
    GpSe3d,
    /// Regularized single-layer Laplace operator on a shuffled circle
    /// cloud, general LU.
    LaplaceSurface2d,
}

/// One operator: its family, size, input seed and backend.
#[derive(Clone, Copy, Debug)]
pub struct Problem {
    pub kind: Kind,
    pub n: usize,
    pub seed: u64,
    pub backend: Backend,
}

impl Problem {
    pub fn symmetry(&self) -> Symmetry {
        match self.kind {
            Kind::GpSe3d => Symmetry::PositiveDefinite,
            Kind::LaplaceSurface2d => Symmetry::General,
        }
    }

    /// The unordered point cloud.  GP points are uniform in the unit cube;
    /// circle points are equispaced, rotated by a seeded angle and listed
    /// in a seeded random order, so the partitioner has to recover
    /// locality and each seed yields a different cluster tree.
    pub fn cloud(&self) -> PointCloud {
        let mut rng = StdRng::seed_from_u64(self.seed);
        match self.kind {
            Kind::GpSe3d => PointCloud::new(
                3,
                (0..3 * self.n).map(|_| rng.gen_range(0.0..1.0)).collect(),
            ),
            Kind::LaplaceSurface2d => {
                let phase = rng.gen_range(0.0..std::f64::consts::TAU);
                let mut order: Vec<usize> = (0..self.n).collect();
                shuffle(&mut order, &mut rng);
                let mut coords = Vec::with_capacity(2 * self.n);
                for k in order {
                    let theta = phase + std::f64::consts::TAU * k as f64 / self.n as f64;
                    coords.push(theta.cos());
                    coords.push(theta.sin());
                }
                PointCloud::new(2, coords)
            }
        }
    }

    /// The GP kernel (unused by the Laplace family).
    pub fn kernel(&self) -> SquaredExponential {
        SquaredExponential {
            variance: 1.0,
            length_scale: 8.0 * (1.0 / self.n as f64).cbrt(),
        }
    }

    /// Generate the inputs and build the operator through the facade:
    /// the whole set-up a user of the library pays.
    pub fn build(&self) -> Result<Hodlr<f64>, HodlrError> {
        let tracer = Tracer::off();
        with_source!(self, tracer, |source, tree| {
            Hodlr::builder()
                .source(&source)
                .tree(tree)
                .tolerance(TOL)
                .method(CompressionMethod::AcaRook)
                .symmetry(self.symmetry())
                .backend(self.backend)
                .build()
        })
    }

    /// `count` seeded right-hand sides of length `n`.
    pub fn rhs(&self, count: usize) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed_0fb5);
        (0..count)
            .map(|_| (0..self.n).map(|_| rng.gen_range(-1.0..1.0)).collect())
            .collect()
    }
}

/// Fisher-Yates shuffle driven by `rng`.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_pure_functions_of_the_seed() {
        for kind in [Kind::GpSe3d, Kind::LaplaceSurface2d] {
            let p = Problem {
                kind,
                n: 64,
                seed: 7,
                backend: Backend::Serial,
            };
            let q = Problem { seed: 8, ..p };
            assert_eq!(p.cloud().point(5), p.cloud().point(5));
            assert_ne!(p.cloud().point(5), q.cloud().point(5));
            assert_eq!(p.rhs(2), p.rhs(2));
            assert_ne!(p.rhs(1), q.rhs(1));
        }
    }
}
