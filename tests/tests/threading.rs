//! Determinism and metering across thread counts.
//!
//! The threading model (README, "Threading model") promises that every
//! parallel path writes task-private output slots in a fixed order, so
//! construction, factorization and solves are **bitwise identical** at any
//! thread count, and that the `Device` counters — atomics fed by per-entry
//! flop counts that are pure functions of block shapes — total identically
//! whatever the pool size.  These tests run the full pipeline inside
//! explicit 1-, 2- and 8-thread pools and assert exactly that.

use hodlr_baselines::HodlrlibStyleSolver;
use hodlr_batch::{CounterSnapshot, Device};
use hodlr_compress::CompressionConfig;
use hodlr_core::{
    build_from_source, build_from_source_symmetric, GpuSolver, GpuSymmetricSolver, HodlrMatrix,
    Symmetry,
};
use hodlr_kernels::{GaussianKernel, ScalarKernelSource};
use hodlr_sparse::ExtendedSystem;
use hodlr_tree::{partition_points, uniform_cube_points};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 512;
const NRHS: usize = 3;

/// The deterministic test operator: a shifted Gaussian kernel matrix over a
/// seeded point cloud, compressed at 1e-10.
fn test_matrix() -> HodlrMatrix<f64> {
    let mut rng = StdRng::seed_from_u64(42);
    let cloud = uniform_cube_points(&mut rng, N, 3);
    let part = partition_points(&cloud, 48).unwrap();
    let source =
        ScalarKernelSource::with_shift(GaussianKernel { length_scale: 0.8 }, &part.points, 2.0);
    build_from_source(&source, part.tree, &CompressionConfig::with_tol(1e-10)).unwrap()
}

fn rhs_block() -> Vec<Vec<f64>> {
    (0..NRHS)
        .map(|j| (0..N).map(|i| (0.1 * i as f64 + j as f64).cos()).collect())
        .collect()
}

/// Everything the pipeline produces at one thread count, bitwise-comparable.
struct PipelineOutput {
    /// Flattened storage of the constructed HODLR approximation.
    dense: Vec<f64>,
    /// Serial LU-path solve.
    x_serial: Vec<f64>,
    /// Serial blocked multi-RHS solve (flattened storage).
    x_serial_block: Vec<f64>,
    /// Serial product-form log-determinant.
    log_det_serial: (f64, f64),
    /// Single-RHS batched solve.
    x_gpu: Vec<f64>,
    /// Blocked multi-RHS solve.
    x_block: Vec<Vec<f64>>,
    /// HODLRlib-style recursive solve (exercises `rayon::join`).
    x_hodlrlib: Vec<f64>,
    /// Device counters after upload + factorization + both solves.
    counters: CounterSnapshot,
}

fn run_pipeline(threads: usize) -> PipelineOutput {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    pool.install(|| {
        assert_eq!(rayon::current_num_threads(), threads);
        let matrix = test_matrix();
        let rhs = rhs_block();
        let block = hodlr_la::DenseMatrix::from_fn(N, NRHS, |i, j| rhs[j][i]);

        let serial = matrix.factorize_serial().expect("serial factorization");
        let x_serial = serial.solve(&rhs[0]);
        let x_serial_block = serial.solve_matrix(&block).into_data();
        let log_det_serial = serial.log_det();

        let device = Device::new();
        let mut gpu = GpuSolver::new(&device, &matrix);
        gpu.factorize().expect("batched factorization");
        let x_gpu = gpu.solve(&rhs[0]).expect("batched solve");
        let x_block = gpu.solve_block(&rhs).expect("batched block solve");

        let lib = HodlrlibStyleSolver::factorize(&matrix).expect("hodlrlib factorization");
        let x_hodlrlib = lib.solve(&rhs[0]);

        PipelineOutput {
            dense: matrix.to_dense().data().to_vec(),
            x_serial,
            x_serial_block,
            log_det_serial,
            x_gpu,
            x_block,
            x_hodlrlib,
            counters: device.counters(),
        }
    })
}

/// The headline guarantee: 1, 2 and 8 threads produce bitwise-identical
/// construction, factorization and solve results, and identical metering.
///
/// Both backends run one sweep.  Its row-block windows run as tasks on
/// scratch copies, or one at a time in place once the scratch in flight
/// passes `hodlr-batch`'s bound, which depends on the pool size; the two
/// schedules give the same bits (`hodlr-batch` checks that directly in
/// `wide_row_blocks_run_in_place_bitwise_as_through_scratch`).
#[test]
fn pipeline_is_bitwise_deterministic_across_thread_counts() {
    let base = run_pipeline(1);
    for threads in [2, 8] {
        let other = run_pipeline(threads);
        assert_eq!(base.dense, other.dense, "{threads}-thread construction");
        assert_eq!(base.x_serial, other.x_serial, "{threads}-thread serial");
        assert_eq!(
            base.x_serial_block, other.x_serial_block,
            "{threads}-thread serial block"
        );
        assert_eq!(
            base.log_det_serial, other.log_det_serial,
            "{threads}-thread serial log_det"
        );
        assert_eq!(base.x_gpu, other.x_gpu, "{threads}-thread solve");
        assert_eq!(base.x_block, other.x_block, "{threads}-thread solve_block");
        assert_eq!(
            base.x_hodlrlib, other.x_hodlrlib,
            "{threads}-thread hodlrlib solve"
        );
        assert_eq!(
            base.counters, other.counters,
            "{threads}-thread device counters"
        );
    }
    // Serial and batched LU paths agree bitwise, as the symmetric twin
    // below asserts for its pair.
    assert_eq!(base.x_serial, base.x_gpu);
    assert_eq!(base.x_serial_block, base.x_block.concat());
    // Sanity: the metering actually measured something.
    assert!(base.counters.kernel_launches > 0);
    assert!(base.counters.flops > 0);
}

/// The Gaussian kernel matrix of [`test_matrix`] is SPD, so the same cloud
/// also pins down the symmetric fast path: one shared-basis compression.
fn test_matrix_symmetric() -> HodlrMatrix<f64> {
    let mut rng = StdRng::seed_from_u64(42);
    let cloud = uniform_cube_points(&mut rng, N, 3);
    let part = partition_points(&cloud, 48).unwrap();
    let source =
        ScalarKernelSource::with_shift(GaussianKernel { length_scale: 0.8 }, &part.points, 2.0);
    build_from_source_symmetric(&source, part.tree, &CompressionConfig::with_tol(1e-10)).unwrap()
}

/// Everything the symmetric pipeline produces at one thread count.
struct SymmetricOutput {
    /// Serial Cholesky-path solve.
    x_serial: Vec<f64>,
    /// Serial blocked multi-RHS solve (flattened storage).
    x_serial_block: Vec<f64>,
    /// Serial product-form log-determinant.
    log_det_serial: (f64, f64),
    /// Batched Cholesky-path solve.
    x_gpu: Vec<f64>,
    /// Batched blocked multi-RHS solve (flattened storage).
    x_gpu_block: Vec<f64>,
    /// Batched product-form log-determinant.
    log_det_gpu: (f64, f64),
    /// Device counters after upload + symmetric factorization + solves.
    counters: CounterSnapshot,
}

fn run_symmetric_pipeline(threads: usize) -> SymmetricOutput {
    use hodlr_la::DenseMatrix;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    pool.install(|| {
        assert_eq!(rayon::current_num_threads(), threads);
        let matrix = test_matrix_symmetric();
        assert!(matrix.shares_bases(), "symmetric build shares bases");
        let rhs = rhs_block();
        let block = DenseMatrix::from_fn(N, NRHS, |i, j| rhs[j][i]);

        let serial = matrix
            .factorize_symmetric(Symmetry::PositiveDefinite)
            .expect("serial symmetric factorization");
        let x_serial = serial.solve(&rhs[0]);
        let x_serial_block = serial.solve_matrix(&block);
        let log_det_serial = serial.log_det();

        let device = Device::new();
        let mut gpu = GpuSymmetricSolver::new(&device, &matrix, Symmetry::PositiveDefinite)
            .expect("solver construction");
        gpu.factorize().expect("batched symmetric factorization");
        let x_gpu = gpu.solve(&rhs[0]).expect("batched symmetric solve");
        let x_gpu_block = gpu.solve_matrix(&block).expect("batched block solve");
        let log_det_gpu = gpu.log_det().expect("batched log_det");

        SymmetricOutput {
            x_serial,
            x_serial_block: x_serial_block.data().to_vec(),
            log_det_serial,
            x_gpu,
            x_gpu_block: x_gpu_block.data().to_vec(),
            log_det_gpu,
            counters: device.counters(),
        }
    })
}

/// The symmetric fast path inherits the determinism contract: 1, 2 and 8
/// threads produce bitwise-identical Cholesky-path factorization, solve
/// and `log_det` results on both backends, with identical metering — and
/// the two backends agree bitwise with each other at every thread count.
#[test]
fn symmetric_pipeline_is_bitwise_deterministic_across_thread_counts() {
    let base = run_symmetric_pipeline(1);
    for threads in [2, 8] {
        let other = run_symmetric_pipeline(threads);
        assert_eq!(base.x_serial, other.x_serial, "{threads}-thread serial");
        assert_eq!(
            base.x_serial_block, other.x_serial_block,
            "{threads}-thread serial block"
        );
        assert_eq!(
            base.log_det_serial, other.log_det_serial,
            "{threads}-thread serial log_det"
        );
        assert_eq!(base.x_gpu, other.x_gpu, "{threads}-thread batched");
        assert_eq!(
            base.x_gpu_block, other.x_gpu_block,
            "{threads}-thread batched block"
        );
        assert_eq!(
            base.log_det_gpu, other.log_det_gpu,
            "{threads}-thread batched log_det"
        );
        assert_eq!(
            base.counters, other.counters,
            "{threads}-thread device counters"
        );
    }
    // Serial and batched symmetric paths agree bitwise by construction
    // (same blocked kernels, same iteration order).
    assert_eq!(base.x_serial, base.x_gpu);
    assert_eq!(base.x_serial_block, base.x_gpu_block);
    assert_eq!(
        base.log_det_serial.0.to_bits(),
        base.log_det_gpu.0.to_bits()
    );
    assert_eq!(
        base.log_det_serial.1.to_bits(),
        base.log_det_gpu.1.to_bits()
    );
    assert!(base.counters.flops > 0);
}

/// Everything a build produces, bit for bit.
#[derive(PartialEq)]
struct BuildBits {
    /// `Ubig`, `Vbig` (unless the bases are shared), then the leaf blocks.
    bits: Vec<u64>,
    ranks: Vec<usize>,
}

impl BuildBits {
    fn of(matrix: &HodlrMatrix<f64>) -> Self {
        let mut parts = vec![matrix.ubig().data()];
        if !matrix.shares_bases() {
            parts.push(matrix.vbig().data());
        }
        parts.extend(matrix.diag_blocks().iter().map(|d| d.data()));
        BuildBits {
            bits: parts
                .iter()
                .flat_map(|p| p.iter().map(|x| x.to_bits()))
                .collect(),
            ranks: matrix.rank_profile(),
        }
    }
}

/// At N = 4096 the top-level blocks are two output chunks of the
/// compressor's per-cross arithmetic long, so that arithmetic runs split
/// over the pool; the general and the symmetric build must still be
/// bitwise identical in 1-, 2- and 8-thread pools.
#[test]
fn long_block_builds_are_bitwise_deterministic_across_thread_counts() {
    const N_LONG: usize = 4096;
    let mut rng = StdRng::seed_from_u64(4096);
    let cloud = uniform_cube_points(&mut rng, N_LONG, 3);
    let part = partition_points(&cloud, 64).unwrap();
    let (alpha, _) = part.tree.children(part.tree.root()).unwrap();
    assert!(part.tree.node_size(alpha) >= 2 * hodlr_la::columns::COLUMN_CHUNK);
    let source =
        ScalarKernelSource::with_shift(GaussianKernel { length_scale: 0.8 }, &part.points, 1.0);
    let config = CompressionConfig::with_tol(1e-6);
    let run = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            let general = build_from_source(&source, part.tree.clone(), &config).unwrap();
            let symmetric =
                build_from_source_symmetric(&source, part.tree.clone(), &config).unwrap();
            (BuildBits::of(&general), BuildBits::of(&symmetric))
        })
    };
    let (general, symmetric) = run(1);
    assert!(general.ranks[0] > 0 && symmetric.ranks[0] > 0);
    for threads in [2, 8] {
        let (g, s) = run(threads);
        assert!(g == general, "{threads}-thread general build");
        assert!(s == symmetric, "{threads}-thread symmetric build");
    }
}

/// The block-sparse comparator's parallel Schur updates are computed on the
/// pool but applied in fixed order: parallel and sequential factorizations
/// of the same extended system solve to bitwise-equal vectors.
#[test]
fn block_sparse_parallel_matches_sequential_bitwise() {
    let matrix = test_matrix();
    let b: Vec<f64> = (0..N).map(|i| (0.05 * i as f64).sin()).collect();
    let ext = ExtendedSystem::new(&matrix);
    let x_seq = ext.factorize(false).expect("sequential").solve(&b);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build()
        .expect("pool");
    let x_par = pool.install(|| ext.factorize(true).expect("parallel").solve(&b));
    assert_eq!(x_seq, x_par);
}

/// Multi-RHS blocked solves agree column-for-column with per-RHS solves —
/// batching changes the launch count, not the arithmetic per column.
#[test]
fn solve_block_matches_per_rhs_solves() {
    let matrix = test_matrix();
    let rhs = rhs_block();
    let device = Device::new();
    let mut gpu = GpuSolver::new(&device, &matrix);
    gpu.factorize().expect("factorization");
    let block = gpu.solve_block(&rhs).unwrap();
    for (j, b) in rhs.iter().enumerate() {
        let single = gpu.solve(b).unwrap();
        let err: f64 = block[j]
            .iter()
            .zip(&single)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-12, "column {j}: max deviation {err}");
    }
}

/// A panic inside a parallel compression task propagates to the caller and
/// leaves the pool usable for the next factorization.
#[test]
fn panics_in_parallel_tasks_propagate_and_pool_survives() {
    use hodlr_compress::ClosureSource;
    use hodlr_tree::ClusterTree;
    let poisoned = ClosureSource::new(256, 256, |i, j| {
        assert!(i < 200 || j < 200, "poisoned block");
        let x = i as f64 / 256.0;
        let y = j as f64 / 256.0;
        let k = 1.0 / (1.0 + (x - y).abs() * 32.0);
        if i == j {
            k + 4.0
        } else {
            k
        }
    });
    let result = std::panic::catch_unwind(|| {
        build_from_source(
            &poisoned,
            ClusterTree::with_leaf_size(256, 32),
            &CompressionConfig::with_tol(1e-8),
        )
    });
    assert!(result.is_err(), "the poisoned entry must panic the build");
    // The pool survives and the next build succeeds.
    let matrix = test_matrix();
    assert_eq!(matrix.n(), N);
}

/// The dense kernel layer itself is bitwise deterministic across pool
/// sizes: the blocked `gemm` splits `C` into tiles whose boundaries depend
/// only on the problem dims, and the blocked LU / Cholesky / compact-WY QR
/// inherit that by routing their trailing updates through `gemm`.  This
/// pins the contract at the layer below the solver pipeline.
#[test]
fn dense_kernels_bitwise_deterministic_across_thread_counts() {
    use hodlr_la::blas::Op;
    use hodlr_la::cholesky::potrf_in_place;
    use hodlr_la::lu::getrf_in_place;
    use hodlr_la::qr::thin_qr;
    use hodlr_la::random::random_matrix;
    use hodlr_la::DenseMatrix;

    // Big enough to cross the blocked/parallel thresholds in every kernel.
    let (m, n, k) = (260, 200, 300);
    let run = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("pool");
        pool.install(|| {
            let mut rng = StdRng::seed_from_u64(99);
            let a: DenseMatrix<f64> = random_matrix(&mut rng, m, k);
            let b: DenseMatrix<f64> = random_matrix(&mut rng, k, n);
            let mut c = DenseMatrix::<f64>::zeros(m, n);
            hodlr_la::gemm(
                1.0,
                a.as_ref(),
                Op::None,
                b.as_ref(),
                Op::None,
                0.0,
                c.as_mut(),
            );
            // A^T * B exercises the packed transpose path.
            let mut ct = DenseMatrix::<f64>::zeros(k, k);
            hodlr_la::gemm(
                1.0,
                a.as_ref(),
                Op::Trans,
                a.as_ref(),
                Op::None,
                0.0,
                ct.as_mut(),
            );
            let square: DenseMatrix<f64> = random_matrix(&mut rng, m, m);
            let mut lu = square.clone();
            let piv = getrf_in_place(lu.as_mut()).expect("nonsingular");
            // A^T A + m I is SPD: the blocked Cholesky must match bitwise
            // too (its trailing updates also route through gemm).
            let mut spd = ct.clone();
            for i in 0..k {
                spd[(i, i)] += m as f64;
            }
            potrf_in_place(spd.as_mut()).expect("SPD by construction");
            let (q, r) = thin_qr(&a);
            (
                c.into_data(),
                ct.into_data(),
                lu.into_data(),
                piv,
                spd.into_data(),
                q.into_data(),
                r.into_data(),
            )
        })
    };
    let base = run(1);
    for threads in [2, 8] {
        let other = run(threads);
        assert_eq!(base.0, other.0, "{threads}-thread gemm");
        assert_eq!(base.1, other.1, "{threads}-thread gemm (trans)");
        assert_eq!(base.2, other.2, "{threads}-thread LU factors");
        assert_eq!(base.3, other.3, "{threads}-thread LU pivots");
        assert_eq!(base.4, other.4, "{threads}-thread Cholesky factors");
        assert_eq!(base.5, other.5, "{threads}-thread QR Q factor");
        assert_eq!(base.6, other.6, "{threads}-thread QR R factor");
    }
}

/// Wall-clock speedup of the batched factorization at 1 vs. many threads.
/// Only meaningful on a multi-core runner, hence ignored by default; run
/// with `cargo test -p hodlr-tests -- --ignored threading_speedup`.
#[test]
#[ignore = "timing assertion; requires a multi-core runner"]
fn threading_speedup_on_multicore() {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert!(threads >= 2, "speedup needs a multi-core machine");
    let time_at = |t: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .unwrap();
        pool.install(|| {
            let mut rng = StdRng::seed_from_u64(7);
            let cloud = uniform_cube_points(&mut rng, 4096, 3);
            let part = partition_points(&cloud, 64).unwrap();
            let source = ScalarKernelSource::with_shift(
                GaussianKernel { length_scale: 0.8 },
                &part.points,
                2.0,
            );
            let start = std::time::Instant::now();
            let matrix =
                build_from_source(&source, part.tree, &CompressionConfig::with_tol(1e-8)).unwrap();
            let device = Device::new();
            let mut gpu = GpuSolver::new(&device, &matrix);
            gpu.factorize().expect("factorization");
            start.elapsed().as_secs_f64()
        })
    };
    let t1 = time_at(1);
    let tn = time_at(threads);
    assert!(
        tn < 0.8 * t1,
        "expected speedup over 1 thread: t1 = {t1:.3}s, t{threads} = {tn:.3}s"
    );
}

/// The scale-out path end to end — shuffled 3-D surface cloud, spatial
/// partitioning, streaming budgeted facade build, factorization, solve —
/// is bitwise identical in 1-, 2- and 8-thread pools, under every
/// precision policy, and under both lower precisions with a
/// positive-definite structure too.
#[test]
fn surface_scale_pipeline_is_bitwise_deterministic_across_thread_counts() {
    use hodlr::prelude::*;
    use hodlr_bie::LaplaceSurfaceSource;

    let run = |threads: usize, precision: Precision, symmetry: Symmetry| -> Vec<u64> {
        let cloud = hodlr_bie::fibonacci_sphere_cloud(400);
        let source = LaplaceSurfaceSource::new(&cloud, 32).unwrap();
        let tree = source.tree().clone();
        let hodlr = Hodlr::builder()
            .source(&source)
            .tree(tree)
            .tolerance(1e-8)
            .memory_budget(256 << 20)
            .precision(precision)
            .symmetry(symmetry)
            .threads(threads)
            .build()
            .unwrap();
        let f = hodlr.factorize().unwrap();
        let b: Vec<f64> = (0..400).map(|i| (0.21 * i as f64).sin() + 1.5).collect();
        let x = f.solve(&b).unwrap();
        let mut sig: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
        sig.push(hodlr.storage_bytes());
        sig.push(hodlr.build_peak_bytes());
        sig
    };
    let cases = [
        (Precision::Full, Symmetry::General),
        (Precision::MixedRefine, Symmetry::General),
        (Precision::CompactLower, Symmetry::General),
        (Precision::MixedRefine, Symmetry::PositiveDefinite),
        (Precision::CompactLower, Symmetry::PositiveDefinite),
    ];
    for (precision, symmetry) in cases {
        let sigs: Vec<Vec<u64>> = [1usize, 2, 8].map(|t| run(t, precision, symmetry)).to_vec();
        let label = format!("{precision:?} / {symmetry:?}");
        assert_eq!(sigs[0], sigs[1], "{label}: 1 vs 2 threads");
        assert_eq!(sigs[1], sigs[2], "{label}: 2 vs 8 threads");
    }
}
