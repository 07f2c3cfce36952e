//! Probes of single layers, called from outside the library: the sibling
//! compressions of `hodlr-compress`, entry evaluation of the sources, and
//! the dense kernels of `hodlr-la`.

use crate::problem::{LEAF, TOL};
use crate::trace::Tracer;
use hodlr_compress::{compress, CompressionConfig, CompressionMethod, MatrixEntrySource};
use hodlr_core::BlockSource;
use hodlr_la::blas::gemm_flops;
use hodlr_la::cholesky::potrf_in_place;
use hodlr_la::lu::getrf_in_place;
use hodlr_la::{gemm, DenseMatrix, HodlrError, Op};
use hodlr_tree::ClusterTree;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// An entry source that counts the entries evaluated through it.
pub struct CountingSource<'a, S: ?Sized> {
    inner: &'a S,
    count: AtomicU64,
}

impl<'a, S: ?Sized> CountingSource<'a, S> {
    pub fn new(inner: &'a S) -> Self {
        CountingSource {
            inner,
            count: AtomicU64::new(0),
        }
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

impl<S: MatrixEntrySource<f64> + ?Sized> MatrixEntrySource<f64> for CountingSource<'_, S> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
    }

    fn entry(&self, i: usize, j: usize) -> f64 {
        // The compressors evaluate one block on one thread, so a plain
        // load/store keeps the count exact without a locked increment in
        // the hot loop.
        self.count
            .store(self.count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.inner.entry(i, j)
    }
}

/// What compressing every sibling block of the tree cost and yielded.
#[derive(Debug, Default)]
pub struct CompressStats {
    /// Seconds inside `compress`, summed over blocks.
    pub secs: f64,
    /// Entries evaluated.
    pub entries: u64,
    /// `sum rank * (m + n)`: the entries of the factors kept.
    pub useful: u64,
    pub max_rank: usize,
    pub rank_sum: usize,
}

/// Compress the sibling blocks of every level one at a time, exactly as
/// the builder asks for them: both blocks of a pair for a general
/// operator, the `(alpha, beta)` block alone for a symmetric one.
pub fn compress_sweep<S: MatrixEntrySource<f64>>(
    source: &S,
    tree: &ClusterTree,
    symmetric: bool,
    tracer: &Tracer,
) -> Result<CompressStats, HodlrError> {
    let config = CompressionConfig::with_tol(TOL).method(CompressionMethod::AcaRook);
    let mut stats = CompressStats::default();
    tracer.span("compress.sweep", || {
        for level in 0..tree.levels() {
            for gamma in tree.level_nodes(level) {
                let Some((alpha, beta)) = tree.children(gamma) else {
                    continue;
                };
                let (ra, rb) = (tree.range(alpha), tree.range(beta));
                let mut blocks = vec![(ra.start, rb.start, ra.len(), rb.len())];
                if !symmetric {
                    blocks.push((rb.start, ra.start, rb.len(), ra.len()));
                }
                for (row, col, m, n) in blocks {
                    let block = BlockSource::new(source, row, col, m, n)?;
                    let counted = CountingSource::new(&block);
                    let start = Instant::now();
                    let lr = compress(&counted, &config)?;
                    stats.secs += start.elapsed().as_secs_f64();
                    stats.entries += counted.count();
                    stats.useful += (lr.rank() * (m + n)) as u64;
                    stats.max_rank = stats.max_rank.max(lr.rank());
                    stats.rank_sum += lr.rank();
                }
            }
        }
        Ok(stats)
    })
}

/// Nanoseconds per entry over a fixed seeded set of scattered entries.
pub fn entry_ns<S: MatrixEntrySource<f64>>(source: &S, seed: u64) -> f64 {
    const SAMPLES: usize = 1 << 20;
    let n = source.nrows();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xe47);
    let picks: Vec<(usize, usize)> = (0..SAMPLES)
        .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
        .collect();
    let start = Instant::now();
    let mut acc = 0.0;
    for &(i, j) in &picks {
        acc += source.entry(black_box(i), black_box(j));
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e9 / SAMPLES as f64
}

/// Dense-kernel rates of `hodlr-la`, in GFLOP/s.
pub struct KernelRates {
    /// Best square gemm rate: the ceiling the factorization is read against.
    pub gemm_peak: f64,
    /// gemm at the coupling shape `w x w x leaf`.
    pub gemm_coupling: f64,
    pub getrf_leaf: f64,
    pub potrf_leaf: f64,
}

/// Measure the dense kernels; `width` is the widest coupling (max rank).
pub fn kernel_rates(width: usize, tracer: &Tracer) -> KernelRates {
    tracer.span("la.kernels", || {
        let mut rng = StdRng::seed_from_u64(0x1a);
        let mut random =
            |m: usize, n: usize| DenseMatrix::from_fn(m, n, |_, _| rng.gen_range(-1.0..1.0));
        let square = 768;
        let (a, b) = (random(square, square), random(square, square));
        let gemm_peak = best_rate(gemm_flops(square, square, square), || {
            let mut c = DenseMatrix::zeros(square, square);
            gemm(
                1.0,
                a.as_ref(),
                Op::None,
                b.as_ref(),
                Op::None,
                0.0,
                c.as_mut(),
            );
            black_box(c);
        });

        let w = width.max(1);
        let (u, v) = (random(w, LEAF), random(LEAF, w));
        let gemm_coupling = best_rate(gemm_flops(w, w, LEAF), || {
            let mut c = DenseMatrix::zeros(w, w);
            gemm(
                1.0,
                u.as_ref(),
                Op::None,
                v.as_ref(),
                Op::None,
                0.0,
                c.as_mut(),
            );
            black_box(c);
        });

        let leaf_flops = (LEAF * LEAF * LEAF) as u64;
        let mut general = random(LEAF, LEAF);
        let mut spd = DenseMatrix::zeros(LEAF, LEAF);
        gemm(
            1.0,
            general.as_ref(),
            Op::None,
            general.as_ref(),
            Op::Trans,
            0.0,
            spd.as_mut(),
        );
        for i in 0..LEAF {
            general[(i, i)] += LEAF as f64;
            spd[(i, i)] += LEAF as f64;
        }
        let getrf_leaf = best_rate(2 * leaf_flops / 3, || {
            let mut lu = general.clone();
            black_box(getrf_in_place(lu.as_mut()).expect("diagonally dominant"));
        });
        let potrf_leaf = best_rate(leaf_flops / 3, || {
            let mut l = spd.clone();
            potrf_in_place(l.as_mut()).expect("positive definite");
            black_box(l);
        });
        KernelRates {
            gemm_peak,
            gemm_coupling,
            getrf_leaf,
            potrf_leaf,
        }
    })
}

/// GFLOP/s of the fastest of five batches of calls, each batch about
/// `BATCH_FLOPS` of work.
fn best_rate(flops: u64, mut call: impl FnMut()) -> f64 {
    const BATCH_FLOPS: u64 = 30_000_000;
    let reps = (BATCH_FLOPS / flops).max(1);
    (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                call();
            }
            (reps * flops) as f64 / start.elapsed().as_secs_f64() / 1e9
        })
        .fold(0.0, f64::max)
}
