//! The solver workloads (`gp-se-3d`, `laplace-surface-2d`): build,
//! factorize, solve through the `hodlr` facade for the end-to-end
//! metrics; call each crate directly, in spans, for the per-layer ones.

use crate::layers;
use crate::probe::{self, fnv1a, median, with_peak_rss};
use crate::problem::{with_source, Kind, Problem, TOL};
use crate::report::Report;
use crate::serve;
use crate::trace::Tracer;
use hodlr::{Factorize, Solve, VerifyConfig};
use hodlr_batch::Device;
use hodlr_compress::{CompressionConfig, CompressionMethod};
use hodlr_core::{
    build_from_source_symmetric_with, build_from_source_with, BuildOptions, GpuSolver,
    GpuSymmetricSolver,
};
use hodlr_la::{AllocMeter, DenseMatrix, HodlrError};
use std::time::{Duration, Instant};

/// Right-hand sides of the blocked solve.
const BLOCK_RHS: usize = 32;
/// Distinct right-hand sides cycled through by the single-RHS solves.
const SINGLE_RHS: usize = 4;
/// Single-RHS solves per pipeline repeat: two repeats give 192 latency
/// samples for the median.
const SOLVES: usize = 96;
/// Blocked solves per pipeline repeat.
const BLOCK_SOLVES: usize = 3;
/// Pipeline repeats per run, at least (the median needs a few).
const MIN_REPEATS: usize = 2;

/// The largest relative residual accepted per family.
fn relres_limit(kind: Kind) -> f64 {
    match kind {
        Kind::GpSe3d => 1e-9,
        Kind::LaplaceSurface2d => 1e-12,
    }
}

/// Fixed inputs of every repeat.
struct Inputs {
    rhs: Vec<Vec<f64>>,
    block: DenseMatrix<f64>,
}

impl Inputs {
    fn new(problem: &Problem) -> Self {
        let rhs = problem.rhs(BLOCK_RHS);
        let block = DenseMatrix::from_fn(problem.n, BLOCK_RHS, |i, j| rhs[j][i]);
        Inputs { rhs, block }
    }
}

/// One build -> factorize -> solve repeat through the facade.
struct Sample {
    setup: f64,
    factor: f64,
    first_solve: f64,
    solves: Vec<f64>,
    blocks: Vec<f64>,
    peak_rss: Option<u64>,
    x0_hash: u64,
    block_hash: u64,
    relres: f64,
    block_relres: f64,
    log_det: Option<(f64, f64)>,
    logdet_s: f64,
    verify_s: f64,
    verified: bool,
}

/// One repeat through the facade.  `traced` adds the traced run's extra
/// facade calls: log-determinant (always taken on the GP family) and
/// verification.
fn facade_pipeline(
    problem: &Problem,
    inputs: &Inputs,
    traced: bool,
    report: &mut Report,
) -> Result<Sample, HodlrError> {
    let rss_armed = probe::reset_peak_rss();
    let (hodlr, setup) = timed(|| problem.build());
    let hodlr = hodlr?;

    let (factorization, factor) = timed(|| hodlr.factorize());
    let factorization = factorization?;
    let (x0, first_solve) = timed(|| factorization.solve(&inputs.rhs[0]));
    let x0 = x0?;
    let x0_hash = fnv1a(&x0);

    let mut solves = Vec::with_capacity(SOLVES);
    for i in 0..SOLVES {
        let b = &inputs.rhs[i % SINGLE_RHS];
        let (x, secs) = timed(|| factorization.solve(b));
        let x = x?;
        solves.push(secs);
        if i % SINGLE_RHS == 0 {
            report.check(fnv1a(&x) == x0_hash, || {
                format!("repeat solve {i} changed the solution bits")
            });
        }
    }
    let mut blocks = Vec::with_capacity(BLOCK_SOLVES);
    let mut block_hash = None;
    let mut block_relres = 0.0;
    for _ in 0..BLOCK_SOLVES {
        let (x, secs) = timed(|| factorization.solve_block(&inputs.block));
        let x = x?;
        blocks.push(secs);
        let hash = fnv1a(x.data());
        report.check(*block_hash.get_or_insert(hash) == hash, || {
            "repeat blocked solve changed the solution bits".to_string()
        });
        let last = BLOCK_RHS - 1;
        block_relres = hodlr.relative_residual(x.col(last), inputs.block.col(last));
    }
    let peak_rss = if rss_armed {
        probe::peak_rss_bytes()
    } else {
        None
    };

    let relres = hodlr.relative_residual(&x0, &inputs.rhs[0]);
    let (log_det, logdet_s) = if traced || problem.kind == Kind::GpSe3d {
        let (ld, secs) = timed(|| factorization.log_det());
        (Some(ld?), secs)
    } else {
        (None, f64::NAN)
    };
    let (verified, verify_s) = if traced {
        let (verdict, secs) = timed(|| {
            hodlr.verify_solve(
                &factorization,
                &x0,
                &inputs.rhs[0],
                &VerifyConfig::default(),
            )
        });
        (verdict.is_verified(), secs)
    } else {
        (true, f64::NAN)
    };
    Ok(Sample {
        setup,
        factor,
        first_solve,
        solves,
        blocks,
        peak_rss,
        x0_hash,
        block_hash: block_hash.expect("at least one blocked solve"),
        relres,
        block_relres,
        log_det,
        logdet_s,
        verify_s,
        verified,
    })
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Check one repeat's outputs against the first repeat and the limits.
fn check_sample(problem: &Problem, sample: &Sample, first: &Sample, report: &mut Report) {
    let limit = relres_limit(problem.kind);
    report.check(sample.relres < limit, || {
        format!("relres {:e} above {limit:e}", sample.relres)
    });
    report.check(sample.block_relres < limit, || {
        format!("blocked relres {:e} above {limit:e}", sample.block_relres)
    });
    report.check(sample.x0_hash == first.x0_hash, || {
        "solution checksum differs between repeats".to_string()
    });
    report.check(sample.block_hash == first.block_hash, || {
        "blocked-solution checksum differs between repeats".to_string()
    });
    if let Some((ld, sign)) = sample.log_det {
        let same = first
            .log_det
            .is_some_and(|(f, s)| f.to_bits() == ld.to_bits() && s == sign);
        report.check(ld.is_finite() && sign > 0.0 && same, || {
            format!("log_det {ld} (sign {sign}) not finite, positive and repeatable")
        });
    }
    report.check(sample.verified, || {
        "verify_solve rejected the solution".to_string()
    });
}

/// The untraced run: repeat the facade pipeline for `seconds` (at least
/// [`MIN_REPEATS`] times) and report the end-to-end metrics.
pub fn run(problem: &Problem, seconds: f64, report: &mut Report) -> Result<(), HodlrError> {
    let inputs = Inputs::new(problem);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut samples: Vec<Sample> = Vec::new();
    while samples.len() < MIN_REPEATS || Instant::now() < deadline {
        let sample = facade_pipeline(problem, &inputs, false, report)?;
        check_sample(problem, &sample, samples.first().unwrap_or(&sample), report);
        report.operations((SOLVES + 1 + BLOCK_SOLVES) as u64, 0, "solves");
        samples.push(sample);
    }

    let collect = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<_>>();
    let solves: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.solves.iter().copied())
        .collect();
    let blocks: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.blocks.iter().copied())
        .collect();
    let rss: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.peak_rss)
        .map(|b| b as f64)
        .collect();
    report.metric("setup_s", median(&collect(|s| s.setup)), "s");
    report.metric("factor_s", median(&collect(|s| s.factor)), "s");
    report.metric("solve_s", median(&solves), "s");
    report.metric("solve_block_s", median(&blocks), "s");
    report.metric(
        "total_s",
        median(&collect(|s| s.setup + s.factor + s.first_solve)),
        "s",
    );
    report.metric(
        "peak_rss_bytes",
        if rss.is_empty() {
            probe::peak_rss_bytes().map_or(f64::NAN, |b| b as f64)
        } else {
            median(&rss)
        },
        "bytes",
    );
    // Right-hand sides per second when they arrive in blocks of 32: the
    // rate a batch user sees, from the longer and steadier blocked solves.
    report.metric("throughput_rps", BLOCK_RHS as f64 / median(&blocks), "1/s");
    report.metric("latency_p50_ms", 1e3 * median(&solves), "ms");
    eprintln!(
        "samples: {} repeats, {} single-RHS solves, {} blocked solves",
        samples.len(),
        solves.len(),
        blocks.len()
    );
    Ok(())
}

/// The batched solver of either structure.
enum Batched<'d> {
    Lu(GpuSolver<'d, f64>),
    Symmetric(GpuSymmetricSolver<'d, f64>),
}

impl Batched<'_> {
    fn factorize(&mut self) -> Result<(), HodlrError> {
        match self {
            Batched::Lu(s) => s.factorize(),
            Batched::Symmetric(s) => s.factorize(),
        }
    }

    fn solver(&self) -> &dyn Solve<f64> {
        match self {
            Batched::Lu(s) => s,
            Batched::Symmetric(s) => s,
        }
    }
}

/// The traced run of a solver workload: [`trace_operator`], then the same
/// operator served through `hodlr-serve`.
pub fn run_traced(
    problem: &Problem,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), HodlrError> {
    let (untraced_total, traced_total) = trace_operator(problem, tracer, report)?;
    report.metric("trace.total_s", traced_total, "s");
    report.metric("trace.overhead_s", traced_total - untraced_total, "s");
    serve::probe_operator(problem, tracer, report);
    Ok(())
}

/// One untraced facade pipeline (the overhead baseline and the
/// facade-layer metrics), then the pipeline again with every crate called
/// directly inside a span, a serial twin on the same matrix, and the
/// layer probes.  Returns the untraced and the traced `total_s`.
pub fn trace_operator(
    problem: &Problem,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(f64, f64), HodlrError> {
    let inputs = Inputs::new(problem);
    let facade = facade_pipeline(problem, &inputs, true, report)?;
    check_sample(problem, &facade, &facade, report);
    report.operations((SOLVES + 1 + BLOCK_SOLVES) as u64, 0, "solves");
    report.metric("hodlr.logdet_s", facade.logdet_s, "s");
    report.metric("hodlr.verify_s", facade.verify_s, "s");
    report.metric("hodlr.relres", facade.relres, "ratio");
    let traced_total = layer_pipeline(problem, &inputs, facade.log_det, tracer, report)?;
    Ok((
        facade.setup + facade.factor + facade.first_solve,
        traced_total,
    ))
}

/// The layer-by-layer pipeline of [`trace_operator`]; returns the traced
/// `total_s` (build, factorize, first solve).
fn layer_pipeline(
    problem: &Problem,
    inputs: &Inputs,
    facade_log_det: Option<(f64, f64)>,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<f64, HodlrError> {
    let symmetric = problem.symmetry().is_symmetric();
    let config = CompressionConfig::with_tol(TOL).method(CompressionMethod::AcaRook);
    let meter = AllocMeter::new();
    let device = Device::new();
    let b0 = &inputs.rhs[0];

    let total = tracer.begin("total");
    with_source!(problem, tracer, |source, tree| {
        let options = BuildOptions {
            meter: Some(&meter),
            budget_bytes: None,
        };
        let (matrix, build_rss) = with_peak_rss(|| {
            tracer.span("core.build", || {
                if symmetric {
                    build_from_source_symmetric_with(&source, tree.clone(), &config, options)
                } else {
                    build_from_source_with(&source, tree.clone(), &config, options)
                }
            })
        });
        let matrix = matrix?;
        let mut batched = tracer.span("batch.upload", || {
            Ok::<_, HodlrError>(if symmetric {
                Batched::Symmetric(GpuSymmetricSolver::new(
                    &device,
                    &matrix,
                    problem.symmetry(),
                )?)
            } else {
                Batched::Lu(GpuSolver::new(&device, &matrix))
            })
        })?;
        let before_factor = device.counters();
        let (factored, factor_rss) =
            with_peak_rss(|| tracer.span("batch.factor", || batched.factorize()));
        factored?;
        let factor = device.counters().since(&before_factor);
        let (x0, solve_counters) =
            device.meter(|| tracer.span("batch.solve", || batched.solver().solve(b0)));
        let x0 = x0?;
        tracer.end(total);

        report.metric("trace.coverage", tracer.child_coverage("total"), "ratio");

        let batch_factor_s = tracer.last("batch.factor");
        let factor_gflops = factor.gflops(batch_factor_s);
        let counters = device.counters();
        report.metric("batch.upload_s", tracer.last("batch.upload"), "s");
        report.metric("batch.factor_s", batch_factor_s, "s");
        report.metric(
            "batch.factor_launches",
            factor.kernel_launches as f64,
            "count",
        );
        report.metric("batch.factor_flops", factor.flops as f64, "flop");
        report.metric("batch.factor_gflops", factor_gflops, "GFLOP/s");
        report.metric("batch.h2d_bytes", counters.h2d_bytes as f64, "bytes");
        report.metric(
            "batch.device_peak_bytes",
            counters.peak_allocated_bytes as f64,
            "bytes",
        );
        report.metric("batch.factor_rss_bytes", opt_bytes(factor_rss), "bytes");
        report.metric(
            "batch.solve_launches",
            solve_counters.kernel_launches as f64,
            "count",
        );
        report.metric("core.build_s", tracer.last("core.build"), "s");
        report.metric("core.build_peak_bytes", meter.peak_bytes() as f64, "bytes");
        report.metric("core.storage_bytes", matrix.storage_bytes() as f64, "bytes");
        report.metric("core.build_rss_bytes", opt_bytes(build_rss), "bytes");

        let batched_log_det = tracer.span("batch.logdet", || batched.solver().log_det())?;
        let (_, solve_rss) = with_peak_rss(|| {
            tracer.span("batch.solve_block", || {
                batched.solver().solve_block(&inputs.block)
            })
        });
        report.metric("rss.solve_block_bytes", opt_bytes(solve_rss), "bytes");
        drop(batched);

        // The serial twin on the same matrix: the baseline the batched
        // backend is read against, and its bitwise mirror.
        let (serial_log_det, serial_x0) = if symmetric {
            let f = tracer.span("core.serial_factor", || {
                matrix.factorize_symmetric(problem.symmetry())
            })?;
            let x = tracer.span("core.serial_solve", || f.solve(b0));
            (f.log_det(), x)
        } else {
            let f = tracer.span("core.serial_factor", || matrix.factorize_serial())?;
            let x = tracer.span("core.serial_solve", || f.solve(b0));
            (f.log_det(), x)
        };
        let serial_factor_s = tracer.last("core.serial_factor");
        report.metric("core.serial_factor_s", serial_factor_s, "s");
        report.metric("core.serial_solve_s", tracer.last("core.serial_solve"), "s");
        report.metric(
            "core.batched_overhead",
            batch_factor_s / serial_factor_s,
            "ratio",
        );
        report.check(fnv1a(&serial_x0) == fnv1a(&x0), || {
            "serial and batched solutions differ".to_string()
        });
        if problem.kind == Kind::GpSe3d {
            let bits = |(ld, sign): (f64, f64)| (ld.to_bits(), sign.to_bits());
            report.check(
                batched_log_det.0.is_finite()
                    && bits(batched_log_det) == bits(serial_log_det)
                    && facade_log_det.map(bits) == Some(bits(serial_log_det)),
                || {
                    format!(
                        "log_det not finite or not bitwise equal: batched {:?}, serial {:?}",
                        batched_log_det, serial_log_det
                    )
                },
            );
        }

        let stats = layers::compress_sweep(&source, &tree, symmetric, tracer)?;
        report.metric("compress.s", stats.secs, "s");
        report.metric("compress.entries", stats.entries as f64, "count");
        report.metric(
            "compress.useful_ratio",
            stats.useful as f64 / stats.entries as f64,
            "ratio",
        );
        report.metric("compress.max_rank", stats.max_rank as f64, "count");
        report.metric("compress.rank_sum", stats.rank_sum as f64, "count");
        report.metric(
            "source.entry_ns",
            tracer.span("source.entries", || layers::entry_ns(&source, problem.seed)),
            "ns",
        );

        let rates = layers::kernel_rates(matrix.max_rank(), tracer);
        report.metric("la.gemm_peak_gflops", rates.gemm_peak, "GFLOP/s");
        report.metric("la.gemm_coupling_gflops", rates.gemm_coupling, "GFLOP/s");
        report.metric("la.getrf_leaf_gflops", rates.getrf_leaf, "GFLOP/s");
        report.metric("la.potrf_leaf_gflops", rates.potrf_leaf, "GFLOP/s");
        report.metric(
            "la.factor_efficiency",
            factor_gflops / rates.gemm_peak,
            "ratio",
        );
        Ok::<(), HodlrError>(())
    })?;
    let traced_total = tracer.last("total");

    // The partitioner alone, on the raw cloud (the Laplace source runs it
    // inside its constructor, where it has no span of its own).
    let cloud = problem.cloud();
    tracer.span("tree.partition", || {
        hodlr_tree::partition_points(&cloud, crate::problem::LEAF)
    })?;
    report.metric("tree.partition_s", tracer.last("tree.partition"), "s");
    Ok(traced_total)
}

/// A byte count that may be unavailable.
fn opt_bytes(bytes: Option<u64>) -> f64 {
    bytes.map_or(f64::NAN, |b| b as f64)
}
