//! Dense-kernel perf trajectory: gemm / LU / QR GFLOP/s by size, scalar
//! type and thread count, written to `BENCH_kernels.json`.
//!
//! The headline row is single-thread f64 `gemm` at 1024^3 against the
//! retained naive reference kernel; the thread sweep doubles as a
//! bitwise-determinism check (any `bitwise: NO` row exits non-zero).
//!
//! Usage: `kernels [--smoke]` — `--smoke` runs the seconds-scale CI sweep.

use hodlr_bench::{print_kernel_table, run_kernel_bench, write_kernel_json, KernelBenchConfig};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let config = if smoke {
        KernelBenchConfig::smoke()
    } else {
        KernelBenchConfig::full()
    };
    let rows = run_kernel_bench(&config);
    println!("isa level: {}", hodlr_la::isa_level());
    print_kernel_table(&rows);

    // Headline summary: blocked vs reference f64 gemm at the largest size.
    if let Some(best) = rows
        .iter()
        .filter(|r| r.kernel == "gemm" && r.scalar == "f64" && r.speedup_vs_reference.is_some())
        .max_by_key(|r| r.m)
    {
        println!(
            "headline: f64 gemm {}^3 single-thread {:.2}x vs naive reference ({:.2} GFLOP/s)",
            best.m,
            best.speedup_vs_reference.unwrap(),
            best.gflops
        );
    }

    write_kernel_json("kernels", &rows);

    let broken: Vec<_> = rows
        .iter()
        .filter(|r| r.bitwise_vs_1thread == Some(false))
        .collect();
    if !broken.is_empty() {
        for r in &broken {
            eprintln!(
                "DETERMINISM VIOLATION: {} {} {}x{}x{} differs at {} threads",
                r.kernel, r.scalar, r.m, r.n, r.k, r.threads
            );
        }
        std::process::exit(1);
    }
}
