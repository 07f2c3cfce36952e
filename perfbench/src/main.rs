//! The hodlr-rs benchmark: three workloads, end-to-end metrics untraced,
//! per-layer metrics from a separate traced run.  See `NOTES.md`.
//!
//! ```text
//! perfbench --workload <gp-se-3d|laplace-surface-2d|serve-mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>] [--commit <sha>]
//!           [--rustflags <flags>]
//! ```
//!
//! The last line of standard output is the result object; the line
//! before it is the machine fingerprint.  With `--out`, the result,
//! the fingerprint and (traced runs) every span are also written to
//! `<out>/<workload>-<seed>-<trace>.json`.

mod layers;
mod probe;
mod problem;
mod report;
mod serve;
mod solver;
mod trace;

use problem::{Kind, Problem};
use report::Report;
use std::process::ExitCode;
use trace::Tracer;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    commit: String,
    rustflags: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        out: None,
        commit: "unknown".to_string(),
        rustflags: String::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a finite non-negative number".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => args.out = Some(value),
            "--commit" => args.commit = value,
            "--rustflags" => args.rustflags = value,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// The solver workloads' operators.
fn solver_problem(workload: &str, seed: u64) -> Option<Problem> {
    let (kind, n) = match workload {
        "gp-se-3d" => (Kind::GpSe3d, 16384),
        "laplace-surface-2d" => (Kind::LaplaceSurface2d, 65536),
        _ => return None,
    };
    Some(Problem {
        kind,
        n,
        seed,
        backend: hodlr::Backend::Batched,
    })
}

fn run(args: &Args, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let result = match (solver_problem(&args.workload, args.seed), args.trace) {
        (Some(problem), false) => solver::run(&problem, args.seconds, report),
        (Some(problem), true) => solver::run_traced(&problem, tracer, report),
        (None, false) if args.workload == "serve-mixed" => {
            serve::run(args.seed, args.seconds, report);
            Ok(())
        }
        (None, true) if args.workload == "serve-mixed" => {
            serve::run_traced(args.seed, tracer, report)
        }
        (None, _) => return Err(format!("unknown workload {:?}", args.workload)),
    };
    result.map_err(|e| format!("{}: {e}", args.workload))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // One pool of one worker per core for the whole run.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Err(e) = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
    {
        eprintln!("perfbench: cannot size the thread pool: {e}");
        return ExitCode::FAILURE;
    }
    let fingerprint = probe::fingerprint_json(threads, &args.commit, &args.rustflags);

    let tracer = if args.trace {
        Tracer::new()
    } else {
        Tracer::off()
    };
    let mut report = Report::default();
    let jiffies_before = probe::cpu_jiffies();
    if let Err(e) = run(&args, &tracer, &mut report) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let error_rate = report.failed as f64 / report.attempted as f64;
    if args.trace {
        report.metric("error_rate", error_rate, "ratio");
    } else {
        report.metric("success_rate", 1.0 - error_rate, "ratio");
    }
    for failure in report.failures() {
        eprintln!("check failed: {failure}");
    }
    let steal = match (jiffies_before, probe::cpu_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{}", (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "null".to_string(),
    };
    eprintln!("cpu steal share over the run: {steal}");

    let result = report.result_json();
    if let Some(dir) = &args.out {
        let path = format!(
            "{dir}/{}-{}-{}.json",
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        let record = format!(
            "{{\"fingerprint\": {fingerprint},\n\"cpu_steal_share\": {steal},\n\"result\": {result},\n\"spans\": {}}}\n",
            tracer.to_json()
        );
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, record)) {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{{\"fingerprint\": {fingerprint}}}");
    println!("{result}");
    ExitCode::SUCCESS
}
