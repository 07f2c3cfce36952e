//! Integration tests for the `hodlr` façade: round-trip
//! build → factorize → solve across every backend × precision combination,
//! bitwise parity with the pre-redesign direct calls, and the typed error
//! paths (wrong-size RHS, zero-size tree, non-positive tolerance, strict
//! rank caps, solving before factorizing).

use hodlr::prelude::*;

/// A smooth, diagonally shifted 1-D kernel source: HODLR-compressible and
/// well conditioned.
fn kernel_source(n: usize) -> ClosureSource<f64, impl Fn(usize, usize) -> f64 + Sync> {
    ClosureSource::new(n, n, move |i, j| {
        let x = i as f64 / n as f64;
        let y = j as f64 / n as f64;
        let k = 1.0 / (1.0 + (x - y).abs() * n as f64 / 8.0);
        if i == j {
            k + 4.0
        } else {
            k
        }
    })
}

fn complex_source(n: usize) -> ClosureSource<Complex64, impl Fn(usize, usize) -> Complex64 + Sync> {
    ClosureSource::new(n, n, move |i, j| {
        let x = i as f64 / n as f64;
        let y = j as f64 / n as f64;
        let k = 1.0 / (1.0 + (x - y).abs() * n as f64 / 8.0);
        let phase = 0.3 * (x - y);
        let base = Complex64::new(k * phase.cos(), k * phase.sin());
        if i == j {
            base + Complex64::new(6.0, 0.0)
        } else {
            base
        }
    })
}

fn rhs_f64(n: usize) -> Vec<f64> {
    (0..n).map(|i| (0.11 * i as f64).sin()).collect()
}

fn rhs_c64(n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|i| Complex64::new((0.07 * i as f64).cos(), (0.13 * i as f64).sin()))
        .collect()
}

/// Round trip through every backend × precision combination, real scalars.
#[test]
fn backend_precision_matrix_round_trips_f64() {
    let n = 256;
    let source = kernel_source(n);
    let b = rhs_f64(n);
    for backend in [Backend::Serial, Backend::Batched] {
        for precision in [
            Precision::Full,
            Precision::MixedRefine,
            Precision::CompactLower,
        ] {
            let hodlr = Hodlr::builder()
                .source(&source)
                .leaf_size(32)
                .tolerance(1e-10)
                .backend(backend)
                .precision(precision)
                .build()
                .unwrap();
            let f = hodlr.factorize().unwrap();
            assert_eq!(f.backend(), backend);
            assert_eq!(f.precision(), precision);
            let x = f.solve(&b).unwrap();
            let res = hodlr.relative_residual(&x, &b);
            let tol = match precision {
                Precision::Full => 1e-8,
                Precision::MixedRefine => 1e-11,
                Precision::CompactLower => 1e-9,
            };
            assert!(res < tol, "{backend:?} / {precision:?}: residual {res:.3e}");
        }
    }
}

/// The same matrix for complex scalars.
#[test]
fn backend_precision_matrix_round_trips_complex64() {
    let n = 192;
    let source = complex_source(n);
    let b = rhs_c64(n);
    for backend in [Backend::Serial, Backend::Batched] {
        for precision in [
            Precision::Full,
            Precision::MixedRefine,
            Precision::CompactLower,
        ] {
            let hodlr = Hodlr::builder()
                .source(&source)
                .leaf_size(32)
                .tolerance(1e-10)
                .backend(backend)
                .precision(precision)
                .build()
                .unwrap();
            let f = hodlr.factorize().unwrap();
            assert_eq!(f.precision(), precision);
            let x = f.solve(&b).unwrap();
            let res = hodlr.relative_residual(&x, &b).to_f64();
            let tol = match precision {
                Precision::Full => 1e-8,
                Precision::MixedRefine => 1e-11,
                Precision::CompactLower => 1e-9,
            };
            assert!(res < tol, "{backend:?} / {precision:?}: residual {res:.3e}");
        }
    }
}

/// Acceptance criterion: both backend paths through the `Solve` trait
/// produce solutions matching the pre-redesign direct calls *bitwise*.
#[test]
fn facade_solves_match_direct_backend_calls_bitwise() {
    let n = 320;
    let source = kernel_source(n);
    let b = rhs_f64(n);

    let hodlr = Hodlr::builder()
        .source(&source)
        .leaf_size(32)
        .tolerance(1e-10)
        .build()
        .unwrap();

    // Pre-redesign serial spelling: factorize_serial + solve.
    let direct_serial = hodlr
        .matrix()
        .unwrap()
        .factorize_serial()
        .unwrap()
        .solve(&b);
    let facade_serial = hodlr.factorize().unwrap().solve(&b).unwrap();
    assert_eq!(facade_serial, direct_serial, "serial path must be bitwise");

    // Pre-redesign batched spelling: GpuSolver::new + factorize + solve.
    let device = Device::new();
    let mut gpu = GpuSolver::new(&device, hodlr.matrix().unwrap());
    gpu.factorize().unwrap();
    let direct_gpu = gpu.solve(&b).unwrap();
    let batched = Hodlr::builder()
        .source(&source)
        .leaf_size(32)
        .tolerance(1e-10)
        .backend(Backend::Batched)
        .build()
        .unwrap();
    let facade_gpu = batched.factorize().unwrap().solve(&b).unwrap();
    assert_eq!(facade_gpu, direct_gpu, "batched path must be bitwise");

    // And the block variants, column for column.
    let k = 3;
    let mut bm = DenseMatrix::<f64>::zeros(n, k);
    for j in 0..k {
        let col: Vec<f64> = (0..n)
            .map(|i| ((j + 1) as f64 * 0.05 * i as f64).cos())
            .collect();
        bm.col_mut(j).copy_from_slice(&col);
    }
    let direct_block = gpu.solve_matrix(&bm).unwrap();
    let facade_block = batched.factorize().unwrap().solve_block(&bm).unwrap();
    for j in 0..k {
        assert_eq!(facade_block.col(j), direct_block.col(j), "column {j}");
    }
}

/// `solve_many` packs, runs one blocked sweep, and unpacks — identical to
/// per-RHS solves on the same factorization.
#[test]
fn solve_many_matches_per_rhs_solves() {
    let n = 256;
    let source = kernel_source(n);
    let hodlr = Hodlr::builder()
        .source(&source)
        .leaf_size(32)
        .tolerance(1e-10)
        .backend(Backend::Batched)
        .build()
        .unwrap();
    let f = hodlr.factorize().unwrap();
    let rhs: Vec<Vec<f64>> = (0..4)
        .map(|j| {
            (0..n)
                .map(|i| ((j + 1) as f64 * 0.03 * i as f64).sin())
                .collect()
        })
        .collect();
    let many = f.solve_many(&rhs).unwrap();
    for (j, b) in rhs.iter().enumerate() {
        assert_eq!(many[j], f.solve(b).unwrap(), "column {j}");
    }
}

/// The `IterativeSolver` adapter speaks `Solve` too, and converges through
/// a loose preconditioner.
#[test]
fn iterative_adapter_solves_through_a_loose_preconditioner() {
    let n = 384;
    let source = kernel_source(n);
    let b = rhs_f64(n);

    let loose = Hodlr::builder()
        .source(&source)
        .leaf_size(32)
        .tolerance(1e-3)
        .backend(Backend::Batched)
        .build()
        .unwrap();
    for method in [KrylovMethod::Gmres { restart: 30 }, KrylovMethod::BiCgStab] {
        let solver = loose.iterative(method).unwrap().tol(1e-10);
        let x = solver.solve(&b).unwrap();
        let res = loose.relative_residual(&x, &b);
        assert!(res < 1e-9, "{method:?}: residual {res:.3e}");
        // The full report is available through `run`.
        let report = solver.run(&b).unwrap();
        assert!(report.converged);
        assert!(!report.residual_history.is_empty());
    }
}

/// Krylov non-convergence is a typed error carrying the iteration report.
#[test]
fn iterative_non_convergence_is_a_typed_error() {
    let n = 256;
    // A pseudo-random (full-rank off-diagonal) matrix: a rank-1-capped
    // HODLR preconditioner is a genuinely poor M^{-1} for it.
    let source = ClosureSource::new(n, n, |i, j| {
        // sin(c * i * j) is non-separable: effectively full-rank blocks.
        let noise = ((i * j) as f64 * 0.7 + i as f64 * 0.3).sin();
        if i == j {
            noise + 8.0
        } else {
            noise * 0.5
        }
    });
    let loose = Hodlr::builder()
        .source(&source)
        .leaf_size(32)
        .tolerance(1e-1)
        .max_rank(1)
        .build()
        .unwrap();
    // Solve the *exact* operator, not its loose approximation, so the
    // rank-1 preconditioner cannot make GMRES converge in two steps.
    let exact = SourceOperator::new(&source);
    let solver = loose
        .iterative(KrylovMethod::Gmres { restart: 5 })
        .unwrap()
        .with_operator(&exact)
        .unwrap()
        .tol(1e-15)
        .max_iters(2);
    let err = solver.solve(&rhs_f64(n)).unwrap_err();
    match err {
        HodlrError::NonConvergence {
            iterations,
            relative_residual,
            context,
        } => {
            assert_eq!(iterations, 2);
            assert!(relative_residual > 1e-14);
            assert!(context.contains("gmres"), "{context}");
        }
        other => panic!("unexpected error {other}"),
    }
}

/// Error path: a wrong-size right-hand side names itself.
#[test]
fn wrong_size_rhs_is_a_dimension_mismatch() {
    let n = 128;
    let source = kernel_source(n);
    for backend in [Backend::Serial, Backend::Batched] {
        let hodlr = Hodlr::builder()
            .source(&source)
            .leaf_size(32)
            .backend(backend)
            .build()
            .unwrap();
        let f = hodlr.factorize().unwrap();
        let err = f.solve(&vec![1.0; n - 1]).unwrap_err();
        assert!(
            matches!(
                err,
                HodlrError::DimensionMismatch {
                    expected: 128,
                    found: 127,
                    ..
                }
            ),
            "{backend:?}: {err}"
        );
        // Multi-RHS: the offending column is named.
        let rhs = vec![vec![1.0; n], vec![1.0; n + 2]];
        let err = f.solve_many(&rhs).unwrap_err();
        assert!(err.to_string().contains("right-hand side 1"), "{err}");
    }
}

/// Error path: a zero-size problem is rejected with a typed error.
#[test]
fn zero_size_tree_is_rejected() {
    let a = DenseMatrix::<f64>::zeros(0, 0);
    let err = Hodlr::builder().dense(&a).build().err().unwrap();
    assert!(matches!(err, HodlrError::InvalidConfig { .. }), "{err}");
    assert!(err.to_string().contains("zero-size tree"), "{err}");
}

/// Error path: non-positive tolerances are rejected before any work.
#[test]
fn non_positive_tolerance_is_rejected() {
    let source = kernel_source(64);
    for bad in [0.0, -1e-8, f64::NAN] {
        let err = Hodlr::builder()
            .source(&source)
            .tolerance(bad)
            .build()
            .err()
            .unwrap();
        assert!(
            matches!(err, HodlrError::InvalidConfig { .. }),
            "tol {bad}: {err}"
        );
        // The refinement tolerance is validated the same way.
        let err = Hodlr::builder()
            .source(&source)
            .refine_tolerance(bad)
            .build()
            .err()
            .unwrap();
        assert!(
            matches!(err, HodlrError::InvalidConfig { .. }),
            "refine tol {bad}: {err}"
        );
    }
    let err = Hodlr::builder()
        .source(&source)
        .refine_max_iters(0)
        .build()
        .err()
        .unwrap();
    assert!(err.to_string().contains("sweep cap"), "{err}");
}

/// Error path: missing input, zero leaf size, zero threads, too-deep trees.
#[test]
fn builder_configuration_errors_are_typed() {
    let source = kernel_source(64);
    let err = Hodlr::<f64>::builder().build().err().unwrap();
    assert!(err.to_string().contains("no input"), "{err}");

    let err = Hodlr::builder()
        .source(&source)
        .leaf_size(0)
        .build()
        .err()
        .unwrap();
    assert!(err.to_string().contains("leaf size"), "{err}");

    let err = Hodlr::builder()
        .source(&source)
        .threads(0)
        .build()
        .err()
        .unwrap();
    assert!(err.to_string().contains("thread count"), "{err}");

    let err = Hodlr::builder()
        .source(&source)
        .levels(12)
        .build()
        .err()
        .unwrap();
    assert!(err.to_string().contains("12 levels"), "{err}");

    // A level count at the shift-overflow boundary must be a typed error,
    // not a panic or a wrapped shift.
    let err = Hodlr::builder()
        .source(&source)
        .levels(usize::BITS as usize)
        .build()
        .err()
        .unwrap();
    assert!(matches!(err, HodlrError::InvalidConfig { .. }), "{err}");
}

/// Error path: a strict rank cap that cannot certify the tolerance fails
/// the build with `CompressionRankOverflow` naming the block.
#[test]
fn strict_rank_cap_overflow_fails_the_build() {
    let source = kernel_source(128);
    let err = Hodlr::builder()
        .source(&source)
        .leaf_size(32)
        .tolerance(1e-14)
        .max_rank(1)
        .strict_rank()
        .build()
        .err()
        .unwrap();
    assert!(
        matches!(err, HodlrError::CompressionRankOverflow { max_rank: 1, .. }),
        "{err}"
    );
    assert!(err.to_string().contains("node"), "{err}");
}

/// Error path: `MixedRefine` on a single-precision scalar is a typed
/// configuration error, not a compile failure or a panic.
#[test]
fn mixed_refine_on_f32_is_rejected() {
    let source = ClosureSource::new(64, 64, |i, j| {
        let k = 1.0f32 / (1.0 + (i as f32 - j as f32).abs());
        if i == j {
            k + 4.0
        } else {
            k
        }
    });
    let hodlr = Hodlr::builder()
        .source(&source)
        .leaf_size(16)
        .precision(Precision::MixedRefine)
        .build()
        .unwrap();
    let err = hodlr.factorize().err().unwrap();
    assert!(err.to_string().contains("double-precision"), "{err}");
}

/// A bare `HodlrMatrix` factorizes through the same trait (serial backend).
#[test]
fn hodlr_matrix_implements_factorize_directly() {
    let n = 128;
    let source = kernel_source(n);
    let hodlr = Hodlr::builder()
        .source(&source)
        .leaf_size(32)
        .tolerance(1e-10)
        .build()
        .unwrap();
    let b = rhs_f64(n);
    let via_matrix = hodlr
        .matrix()
        .unwrap()
        .factorize()
        .unwrap()
        .solve(&b)
        .unwrap();
    let via_handle = hodlr.factorize().unwrap().solve(&b).unwrap();
    assert_eq!(via_matrix, via_handle);
}

/// A dedicated `.threads(..)` pool produces bitwise-identical results to
/// the global pool (the workspace determinism contract) and in-place
/// variants match their allocating twins.
#[test]
fn dedicated_pool_and_in_place_variants_are_consistent() {
    let n = 256;
    let source = kernel_source(n);
    let b = rhs_f64(n);

    let on_global = Hodlr::builder()
        .source(&source)
        .leaf_size(32)
        .tolerance(1e-10)
        .backend(Backend::Batched)
        .build()
        .unwrap();
    let on_pool = Hodlr::builder()
        .source(&source)
        .leaf_size(32)
        .tolerance(1e-10)
        .backend(Backend::Batched)
        .threads(2)
        .build()
        .unwrap();

    let f_global = on_global.factorize().unwrap();
    let f_pool = on_pool.factorize().unwrap();
    let x_global = f_global.solve(&b).unwrap();
    let x_pool = f_pool.solve(&b).unwrap();
    assert_eq!(x_global, x_pool, "thread count must not change results");

    let mut x_in_place = b.clone();
    f_pool.solve_in_place(&mut x_in_place).unwrap();
    assert_eq!(x_in_place, x_pool);
}

/// Solving through an unfactorized batched solver is `NotFactorized`, not
/// a panic (trait path; the low-level inherent method still panics).
#[test]
fn unfactorized_gpu_solver_is_a_typed_error_through_the_trait() {
    let n = 64;
    let source = kernel_source(n);
    let hodlr = Hodlr::builder()
        .source(&source)
        .leaf_size(16)
        .build()
        .unwrap();
    let device = Device::new();
    let gpu = GpuSolver::new(&device, hodlr.matrix().unwrap());
    let err = Solve::solve(&gpu, &rhs_f64(n)).unwrap_err();
    assert!(matches!(err, HodlrError::NotFactorized), "{err}");
}

/// The build peak is metered on every facade build and a generous memory
/// budget does not change the result bitwise.
#[test]
fn memory_budget_meters_peaks_and_is_bitwise_invisible() {
    let n = 256;
    let source = kernel_source(n);
    let unbudgeted = Hodlr::builder()
        .source(&source)
        .leaf_size(32)
        .tolerance(1e-10)
        .build()
        .unwrap();
    assert!(unbudgeted.build_peak_bytes() > 0, "build was not metered");
    assert!(unbudgeted.build_peak_bytes() >= unbudgeted.storage_bytes());

    let budgeted = Hodlr::builder()
        .source(&source)
        .leaf_size(32)
        .tolerance(1e-10)
        .memory_budget(1 << 30)
        .build()
        .unwrap();
    let a = unbudgeted.matrix().expect("working precision");
    let b = budgeted.matrix().expect("working precision");
    assert_eq!(a.rank_profile(), b.rank_profile());
    let bits =
        |m: &DenseMatrix<f64>| -> Vec<u64> { m.data().iter().map(|v| v.to_bits()).collect() };
    assert_eq!(bits(a.ubig()), bits(b.ubig()));
}

/// An impossible budget fails the build with the typed error carrying the
/// budget and the size that broke it.
#[test]
fn exhausted_memory_budget_is_a_typed_error() {
    let n = 512;
    let source = kernel_source(n);
    let err = Hodlr::builder()
        .source(&source)
        .leaf_size(32)
        .tolerance(1e-10)
        .memory_budget(4 * 1024)
        .build()
        .err()
        .expect("budget must fail the build");
    match err {
        HodlrError::BudgetExceeded {
            budget_bytes,
            needed_bytes,
            ..
        } => {
            assert_eq!(budget_bytes, 4 * 1024);
            assert!(needed_bytes > budget_bytes);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

/// Compact (`f32`-storage) builds halve the stored bytes, hide the
/// working-precision matrix, and still solve to working accuracy through
/// iterative refinement.
#[test]
fn compact_storage_halves_bytes_and_refines_to_working_accuracy() {
    let n = 384;
    let source = kernel_source(n);
    let full = Hodlr::builder()
        .source(&source)
        .leaf_size(32)
        .tolerance(1e-10)
        .build()
        .unwrap();
    let compact = Hodlr::builder()
        .source(&source)
        .leaf_size(32)
        .tolerance(1e-10)
        .precision(Precision::CompactLower)
        .build()
        .unwrap();
    assert_eq!(compact.precision(), Precision::CompactLower);
    assert_eq!(full.precision(), Precision::Full);
    assert!(compact.matrix().is_none());
    assert_eq!(compact.n(), n);
    assert!(compact.max_rank() > 0);
    // f32 entries: exactly half the bytes of the same-shape f64 store
    // would be ideal; ranks can differ slightly at f32 tolerance, so
    // assert a strict reduction with headroom.
    assert!(
        2 * compact.storage_bytes() <= full.storage_bytes() + full.storage_bytes() / 4,
        "compact {} vs full {}",
        compact.storage_bytes(),
        full.storage_bytes()
    );
    assert!(compact.storage_bytes() < full.storage_bytes());
    assert!(compact.build_peak_bytes() > 0);

    let b = rhs_f64(n);
    for backend in [Backend::Serial, Backend::Batched] {
        let compact = Hodlr::builder()
            .source(&source)
            .leaf_size(32)
            .tolerance(1e-10)
            .backend(backend)
            .precision(Precision::CompactLower)
            .build()
            .unwrap();
        let f = compact.factorize().unwrap();
        let x = f.solve(&b).unwrap();
        let relres = compact.relative_residual(&x, &b);
        assert!(
            relres < 1e-9,
            "{backend:?}: refinement left relres {relres}"
        );
    }
}

/// Compact storage is rejected, typed, where it cannot work: f32 scalars
/// (no lower precision to demote to), symmetric structure-exploiting
/// builds, and adopted working-precision matrices.
#[test]
fn compact_storage_rejections_are_typed() {
    let n = 128;
    let source_f32 = ClosureSource::new(n, n, move |i: usize, j: usize| {
        let k = 1.0f32 / (1.0 + (i as f32 - j as f32).abs() / 8.0);
        if i == j {
            k + 4.0
        } else {
            k
        }
    });
    let err = Hodlr::builder()
        .source(&source_f32)
        .leaf_size(32)
        .tolerance(1e-5)
        .precision(Precision::CompactLower)
        .build()
        .err()
        .expect("f32 compact build must fail");
    assert!(matches!(err, HodlrError::InvalidConfig { .. }), "{err:?}");

    let source = kernel_source(n);
    let err = Hodlr::builder()
        .source(&source)
        .leaf_size(32)
        .tolerance(1e-10)
        .symmetry(Symmetry::Hermitian)
        .precision(Precision::CompactLower)
        .build()
        .err()
        .expect("symmetric compact build must fail");
    assert!(matches!(err, HodlrError::InvalidConfig { .. }), "{err:?}");

    let matrix = Hodlr::builder()
        .source(&source)
        .leaf_size(32)
        .tolerance(1e-10)
        .build()
        .unwrap()
        .into_matrix()
        .unwrap();
    let err = Hodlr::builder()
        .matrix(matrix)
        .precision(Precision::CompactLower)
        .build()
        .err()
        .expect("adopted-matrix compact build must fail");
    assert!(matches!(err, HodlrError::InvalidConfig { .. }), "{err:?}");
}

/// Complex compact storage (Complex64 stored as Complex32) works through
/// the same refinement path.
#[test]
fn compact_storage_supports_complex_scalars() {
    let n = 256;
    let source = complex_source(n);
    let compact = Hodlr::builder()
        .source(&source)
        .leaf_size(32)
        .tolerance(1e-8)
        .precision(Precision::CompactLower)
        .build()
        .unwrap();
    assert_eq!(compact.precision(), Precision::CompactLower);
    let b = rhs_c64(n);
    let f = compact.factorize().unwrap();
    let x = f.solve(&b).unwrap();
    assert!(compact.relative_residual(&x, &b) < 1e-9);
}

/// No right-hand sides is an empty result on every direct factorization —
/// serial and batched, LU and symmetric — with no device launch or
/// transfer.
#[test]
fn zero_right_hand_sides_give_empty_results() {
    let n = 128;
    let source = kernel_source(n);
    for backend in [Backend::Serial, Backend::Batched] {
        for symmetry in [Symmetry::General, Symmetry::PositiveDefinite] {
            let hodlr = Hodlr::builder()
                .source(&source)
                .leaf_size(32)
                .tolerance(1e-10)
                .backend(backend)
                .symmetry(symmetry)
                .build()
                .unwrap();
            let f = hodlr.factorize().unwrap();
            let ((many, block), c) = hodlr.device().meter(|| {
                (
                    f.solve_many(&[]),
                    f.solve_block(&DenseMatrix::<f64>::zeros(n, 0)),
                )
            });
            let label = format!("{backend:?} / {symmetry:?}");
            assert!(many.unwrap().is_empty(), "{label}");
            let block = block.unwrap();
            assert_eq!((block.rows(), block.cols()), (n, 0), "{label}");
            assert_eq!(
                (c.kernel_launches, c.h2d_bytes, c.d2h_bytes),
                (0, 0, 0),
                "{label}"
            );
        }
    }
}

/// A factorization owns what it solves with, so it outlives the handle it
/// came from: once the `Hodlr` is dropped, `solve`, `solve_block` and
/// `log_det` return bitwise what they returned before, and on the batched
/// backend a device clone taken before the drop still meters the solves.
#[test]
fn factorization_outlives_its_handle() {
    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }
    let n = 256;
    let source = kernel_source(n);
    let b = rhs_f64(n);
    let block = DenseMatrix::from_fn(n, 3, |i, j| (0.05 * (i + 7 * j) as f64).cos());
    let mut cases = Vec::new();
    for backend in [Backend::Serial, Backend::Batched] {
        for precision in [
            Precision::Full,
            Precision::MixedRefine,
            Precision::CompactLower,
        ] {
            cases.push((backend, precision, Symmetry::General));
        }
        cases.push((backend, Precision::Full, Symmetry::PositiveDefinite));
    }
    for (backend, precision, symmetry) in cases {
        let label = format!("{backend:?} / {precision:?} / {symmetry:?}");
        let hodlr = Hodlr::builder()
            .source(&source)
            .leaf_size(32)
            .tolerance(1e-10)
            .backend(backend)
            .precision(precision)
            .symmetry(symmetry)
            .build()
            .unwrap();
        let device = hodlr.device().clone();
        let f = hodlr.factorize().unwrap();
        let x = f.solve(&b).unwrap();
        let xs = f.solve_block(&block).unwrap();
        let (log_abs, sign) = f.log_det().unwrap();
        drop(hodlr);

        let ((x_after, xs_after), c) =
            device.meter(|| (f.solve(&b).unwrap(), f.solve_block(&block).unwrap()));
        assert_eq!(bits(&x_after), bits(&x), "{label}: solve");
        assert_eq!(
            bits(xs_after.data()),
            bits(xs.data()),
            "{label}: solve_block"
        );
        let (log_abs_after, sign_after) = f.log_det().unwrap();
        assert_eq!(
            (log_abs_after.to_bits(), sign_after.to_bits()),
            (log_abs.to_bits(), sign.to_bits()),
            "{label}: log_det"
        );
        match backend {
            Backend::Batched => assert!(c.kernel_launches > 0, "{label}: unmetered"),
            Backend::Serial => assert_eq!(c.kernel_launches, 0, "{label}"),
        }
    }
}
