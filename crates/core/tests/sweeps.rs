//! Edge cases of the level sweeps, for both factor kinds on both backends:
//! levels whose coupling rank is zero, and solves with no right-hand sides.

use hodlr_batch::Device;
use hodlr_compress::CompressionConfig;
use hodlr_core::matrix::{random_hodlr, random_hodlr_spd};
use hodlr_core::{
    build_from_dense, build_from_dense_symmetric, GpuSolver, GpuSymmetricSolver, HodlrMatrix,
    LevelLayout, Symmetry,
};
use hodlr_la::{DenseMatrix, LuFactor};
use hodlr_tree::ClusterTree;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 128;
const LEVELS: usize = 3;
const RANK: usize = 3;

/// `m` re-laid out with per-level `widths` (each `0` or `m`'s own width):
/// a zero-width level keeps no basis columns, so its off-diagonal blocks
/// vanish and its coupling matrices are empty.
fn with_widths(m: &HodlrMatrix<f64>, widths: &[usize]) -> HodlrMatrix<f64> {
    let tree = m.tree().clone();
    let layout = LevelLayout::new(widths.to_vec());
    let mut ubig = DenseMatrix::zeros(N, layout.total_cols());
    let mut vbig = DenseMatrix::zeros(N, layout.total_cols());
    let mut ranks = vec![0; tree.num_nodes() + 1];
    for level in 1..=tree.levels() {
        for (from, to) in m.layout().col_range(level).zip(layout.col_range(level)) {
            ubig.col_mut(to).copy_from_slice(m.ubig().col(from));
            vbig.col_mut(to).copy_from_slice(m.vbig().col(from));
        }
        for node in tree.level_nodes(level) {
            ranks[node] = layout.width(level);
        }
    }
    let diag = m.diag_blocks().to_vec();
    if m.shares_bases() {
        HodlrMatrix::from_parts_symmetric(tree, layout, ranks, ubig, diag).unwrap()
    } else {
        HodlrMatrix::from_parts(tree, layout, ranks, ubig, vbig, diag).unwrap()
    }
}

/// A compressed `m` whose dense form is zeroed across the top split, so the
/// builder finds rank 0 at level 1.
fn block_diagonal_at_top(m: &HodlrMatrix<f64>) -> HodlrMatrix<f64> {
    let mut dense = m.to_dense();
    let tree = m.tree();
    let (left, _) = tree.children(tree.root()).expect("at least one level");
    let half = tree.range(left).len();
    for i in 0..N {
        for j in 0..N {
            if (i < half) != (j < half) {
                dense[(i, j)] = 0.0;
            }
        }
    }
    let tree = ClusterTree::uniform(N, LEVELS);
    let config = CompressionConfig::with_tol(1e-12);
    let built = if m.shares_bases() {
        build_from_dense_symmetric(&dense, tree, &config)
    } else {
        build_from_dense(&dense, tree, &config)
    };
    let built = built.unwrap();
    assert_eq!(
        built.layout().width(1),
        0,
        "top split must compress to rank 0"
    );
    built
}

/// The matrices of the zero-rank test: every zero-width layout of interest
/// and a built matrix that is block diagonal at the top split.
fn zero_rank_matrices(m: &HodlrMatrix<f64>) -> Vec<HodlrMatrix<f64>> {
    let mut out: Vec<_> = [[0, 3, 3], [3, 0, 3], [3, 3, 0], [0, 0, 0]]
        .iter()
        .map(|w| with_widths(m, w))
        .collect();
    out.push(block_diagonal_at_top(m));
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// What one backend computes for a zero-rank matrix: a solve, a 3-RHS
/// `solve_matrix` and the log-determinant.
struct Results {
    x: Vec<f64>,
    block: DenseMatrix<f64>,
    log_det: (f64, f64),
}

fn check_zero_rank(m: &HodlrMatrix<f64>, serial: Results, batched: Results, label: &str) {
    assert_eq!(bits(&serial.x), bits(&batched.x), "{label}: solve");
    assert_eq!(
        bits(serial.block.data()),
        bits(batched.block.data()),
        "{label}: solve_matrix"
    );
    assert_eq!(
        (serial.log_det.0.to_bits(), serial.log_det.1.to_bits()),
        (batched.log_det.0.to_bits(), batched.log_det.1.to_bits()),
        "{label}: log_det"
    );
    let b = rhs(N);
    let res = m.relative_residual(&serial.x, &b);
    assert!(res < 1e-10, "{label}: residual {res:.3e}");
    let (ref_log, ref_sign) = LuFactor::new(&m.to_dense()).unwrap().log_det();
    let (log_abs, sign) = serial.log_det;
    assert!(
        (log_abs - ref_log).abs() < 1e-8 * ref_log.abs().max(1.0),
        "{label}: log_det {log_abs} vs dense {ref_log}"
    );
    assert!((sign - ref_sign).abs() < 1e-8, "{label}: sign");
}

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| (0.37 * i as f64).sin() + 0.5).collect()
}

fn rhs_block(n: usize) -> DenseMatrix<f64> {
    DenseMatrix::from_fn(n, 3, |i, j| ((j + 1) as f64 * 0.11 * i as f64).cos())
}

#[test]
fn zero_rank_levels_lu() {
    let m = random_hodlr::<f64, _>(&mut StdRng::seed_from_u64(1601), N, LEVELS, RANK);
    for (i, m) in zero_rank_matrices(&m).iter().enumerate() {
        let f = m.factorize_serial().unwrap();
        let serial = Results {
            x: f.solve(&rhs(N)),
            block: f.solve_matrix(&rhs_block(N)),
            log_det: f.log_det(),
        };
        let device = Device::new();
        let mut gpu = GpuSolver::new(&device, m);
        gpu.factorize().unwrap();
        let batched = Results {
            x: gpu.solve(&rhs(N)).unwrap(),
            block: gpu.solve_matrix(&rhs_block(N)).unwrap(),
            log_det: gpu.log_det().unwrap(),
        };
        check_zero_rank(m, serial, batched, &format!("LU case {i}"));
    }
}

#[test]
fn zero_rank_levels_spd() {
    let m = random_hodlr_spd::<f64, _>(&mut StdRng::seed_from_u64(1602), N, LEVELS, RANK);
    for (i, m) in zero_rank_matrices(&m).iter().enumerate() {
        let f = m.factorize_symmetric(Symmetry::PositiveDefinite).unwrap();
        let serial = Results {
            x: f.solve(&rhs(N)),
            block: f.solve_matrix(&rhs_block(N)),
            log_det: f.log_det(),
        };
        let device = Device::new();
        let mut gpu = GpuSymmetricSolver::new(&device, m, Symmetry::PositiveDefinite).unwrap();
        gpu.factorize().unwrap();
        let batched = Results {
            x: gpu.solve(&rhs(N)).unwrap(),
            block: gpu.solve_matrix(&rhs_block(N)).unwrap(),
            log_det: gpu.log_det().unwrap(),
        };
        check_zero_rank(m, serial, batched, &format!("SPD case {i}"));
    }
}

#[test]
fn zero_right_hand_sides_give_empty_results() {
    let none: &[Vec<f64>] = &[];
    let empty = DenseMatrix::<f64>::zeros(N, 0);
    let lu = random_hodlr::<f64, _>(&mut StdRng::seed_from_u64(1603), N, LEVELS, RANK);
    let spd = random_hodlr_spd::<f64, _>(&mut StdRng::seed_from_u64(1604), N, LEVELS, RANK);

    let f = lu.factorize_serial().unwrap();
    assert!(f.solve_block(none).is_empty());
    assert_eq!(f.solve_matrix(&empty).cols(), 0);
    let f = spd.factorize_symmetric(Symmetry::PositiveDefinite).unwrap();
    assert!(f.solve_block(none).is_empty());
    assert_eq!(f.solve_matrix(&empty).cols(), 0);

    // Batched: an empty result with no launch and no transfer.
    let device = Device::new();
    let mut gpu = GpuSolver::new(&device, &lu);
    gpu.factorize().unwrap();
    let (x, c) = device.meter(|| (gpu.solve_block(none), gpu.solve_matrix(&empty)));
    assert!(x.0.unwrap().is_empty());
    assert_eq!(x.1.unwrap().cols(), 0);
    assert_eq!((c.kernel_launches, c.h2d_bytes, c.d2h_bytes), (0, 0, 0));

    let device = Device::new();
    let mut gpu = GpuSymmetricSolver::new(&device, &spd, Symmetry::PositiveDefinite).unwrap();
    gpu.factorize().unwrap();
    let (x, c) = device.meter(|| (gpu.solve_block(none), gpu.solve_matrix(&empty)));
    assert!(x.0.unwrap().is_empty());
    assert_eq!(x.1.unwrap().cols(), 0);
    assert_eq!((c.kernel_launches, c.h2d_bytes, c.d2h_bytes), (0, 0, 0));
}
