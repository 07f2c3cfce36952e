//! Multi-tenant serving trajectory: the `warm` / `cold` / `coalesce` /
//! `chaos` scenarios of the deterministic mixed GP/BIE load generator
//! (throughput, p50/p99 latency, cache hit-rate, evictions,
//! launches-per-request, ladder recoveries, breaker trips,
//! bitwise-replay verdict), written to `BENCH_serve.json`.
//!
//! Usage: `serve [--smoke]` — `--smoke` runs the seconds-scale CI sweep.
//! Exits non-zero if any fault-free scenario fails a request, any
//! scenario fails to reproduce bitwise on replay or loses a request, or a
//! scenario misses its headline target (warm hit-rate > 0.5, coalesced
//! launches-per-request < 1, chaos recoveries > 0 under the fixed fault
//! seed).

use hodlr_bench::{print_serve_table, run_serve_bench, write_bench_json, ServeBenchConfig};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let config = if smoke {
        ServeBenchConfig::smoke()
    } else {
        ServeBenchConfig::full()
    };
    let rows = run_serve_bench(&config);
    print_serve_table(
        "Multi-tenant serving (factorization cache + coalescing)",
        &rows,
    );
    write_bench_json("serve", &rows);

    let mut broken = false;
    for row in &rows {
        // Chaos injects faults on purpose: its cursed tenant *must* fail,
        // so only fault-free scenarios are held to zero failures.
        if row.scenario != "chaos" && row.failed > 0 {
            eprintln!("FAILED REQUESTS: {} had {}", row.scenario, row.failed);
            broken = true;
        }
        if !row.deterministic {
            eprintln!("NON-DETERMINISTIC REPLAY: {}", row.scenario);
            broken = true;
        }
        if row.unaccounted > 0 {
            eprintln!(
                "LOST REQUESTS: {} had {} unaccounted",
                row.scenario, row.unaccounted
            );
            broken = true;
        }
        if row.throughput_rps <= 0.0 || row.throughput_rps.is_nan() {
            eprintln!("ZERO THROUGHPUT: {}", row.scenario);
            broken = true;
        }
        if row.scenario == "warm" && row.hit_rate <= 0.5 {
            eprintln!("COLD WARM CACHE: hit rate {:.3}", row.hit_rate);
            broken = true;
        }
        if row.scenario == "coalesce" && row.launches_per_request >= 1.0 {
            eprintln!(
                "UNAMORTIZED LAUNCHES: {:.3} per request",
                row.launches_per_request
            );
            broken = true;
        }
        if row.scenario == "cold" && row.evictions == 0 {
            eprintln!("NO EVICTIONS: cold scenario never churned the cache");
            broken = true;
        }
        if row.scenario == "chaos" {
            if row.recovered_requests == 0 {
                eprintln!("NO RECOVERIES: chaos ladder never rescued a request");
                broken = true;
            }
            if row.breaker_trips == 0 {
                eprintln!("NO BREAKER TRIPS: cursed tenant never tripped the breaker");
                broken = true;
            }
        }
    }
    if broken {
        std::process::exit(1);
    }
}
