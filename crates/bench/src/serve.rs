//! The serving scenario family: a deterministic multi-tenant load
//! generator over [`SolveService`].
//!
//! Four scenarios probe the serve-layer mechanisms:
//!
//! * `warm` — a small mixed GP/BIE tenant set under steady traffic; the
//!   factorization cache must absorb it (hit-rate > 0.5 after warmup).
//! * `cold` — more tenants than the cache budget admits, cycling; probes
//!   LRU + memory-budget eviction under churn.
//! * `coalesce` — one batched tenant under bursts larger than one blocked
//!   solve's launch count; request coalescing must push
//!   launches-per-request below 1.
//! * `chaos` — the same scripted traffic with seeded fault plans armed at
//!   both layers (device launch poison, cache flushes, drain stalls, one
//!   tenant that only solves at a tighter tolerance, one that never
//!   recovers); probes the degradation ladder, the self-verification gate
//!   and the circuit breaker under adversarial scheduling.
//!
//! Everything is seeded and scripted: the tenant schedule, the right-hand
//! sides, the drain boundaries **and every injected fault** are pure
//! functions of the request index (and, for `chaos`, of the fixed fault
//! seed), and each scenario runs **twice** to assert the solve results are
//! bitwise reproducible (the `deterministic` column; for `chaos` the
//! folded stream includes a tag for every typed error, so the failure
//! schedule itself must replay bitwise).  Only wall-clock derived metrics
//! (throughput, latency) vary between runs.

use hodlr::{Backend, Hodlr, TreePolicy};
use hodlr_batch::FaultPlan;
use hodlr_gp::{covariance_source, regular_grid_1d, Matern, SquaredExponential};
use hodlr_la::HodlrError;
use hodlr_serve::{
    CacheConfig, CacheKey, DegradeConfig, ServeConfig, ServeError, ServeFaultPlan, SolveService,
};
use std::time::Instant;

use crate::harness::percentile;
use crate::workloads::laplace_hodlr;

/// One row of the serving table: one scenario, aggregated over its whole
/// request stream.
#[derive(Clone, Debug)]
pub struct ServeRow {
    /// Scenario label (`warm`, `cold`, `coalesce`).
    pub scenario: String,
    /// Registered tenants.
    pub tenants: usize,
    /// Requests driven through the service.
    pub requests: usize,
    /// Matrix size of every tenant operator.
    pub n: usize,
    /// Requests submitted between drain cycles (the burst size).
    pub burst: usize,
    /// Drain cycles run.
    pub drains: u64,
    /// Completed requests per wall-clock second, cache warmup included.
    pub throughput_rps: f64,
    /// Median submit-to-result latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile submit-to-result latency, milliseconds.
    pub p99_ms: f64,
    /// Factorization-cache hit rate over the whole stream.
    pub hit_rate: f64,
    /// Cache evictions over the whole stream.
    pub evictions: u64,
    /// Batched-kernel launches divided by completed requests (the
    /// coalescing figure of merit; 0 for purely serial traffic).
    pub launches_per_request: f64,
    /// Requests that resolved to an error.
    pub failed: u64,
    /// Requests that first failed verification (or hit an injected fault)
    /// and were then brought back to a *verified* solution by the
    /// degradation ladder.
    pub recovered_requests: u64,
    /// Ladder rungs attempted across the whole stream.
    pub retries: u64,
    /// Requests answered by a degraded rung (tighter rebuild, iterative
    /// refinement or GMRES fallback) rather than the nominal direct solve.
    pub degraded_solves: u64,
    /// Circuit-breaker trips across the whole stream.
    pub breaker_trips: u64,
    /// Requests that neither produced a result nor a typed error — must be
    /// zero in every scenario (the accounting invariant).
    pub unaccounted: u64,
    /// Seed of the injected fault schedule (0 = faults disabled).
    pub fault_seed: u64,
    /// Whether a second, identically scripted run reproduced every solve
    /// result bitwise.
    pub deterministic: bool,
    /// Order-sensitive fold of all solution vectors (for eyeballing
    /// cross-PR drift; the bitwise check is `deterministic`).
    pub checksum: f64,
}

/// Sweep configuration of the `serve` binary.
#[derive(Clone, Debug)]
pub struct ServeBenchConfig {
    /// Matrix size per tenant.
    pub n: usize,
    /// Requests per scenario.
    pub requests: usize,
    /// Requests per drain cycle (floor; `coalesce` raises it above the
    /// per-solve launch count automatically).
    pub burst: usize,
}

impl ServeBenchConfig {
    /// The seconds-scale CI sweep (`--smoke`).
    pub fn smoke() -> Self {
        ServeBenchConfig {
            n: 192,
            requests: 48,
            burst: 6,
        }
    }

    /// The default laptop-scale sweep.
    pub fn full() -> Self {
        ServeBenchConfig {
            n: 512,
            requests: 240,
            burst: 12,
        }
    }
}

/// The tenant archetypes of the mixed workload.
#[derive(Copy, Clone, Debug)]
enum TenantKind {
    /// Gaussian-process covariance, Matérn-3/2 on a regular grid.
    GpMatern,
    /// Gaussian-process covariance, squared-exponential on a regular grid.
    GpSquaredExponential,
    /// Laplace exterior boundary-integral operator on the star contour.
    Bie,
}

const KINDS: [TenantKind; 3] = [
    TenantKind::GpMatern,
    TenantKind::GpSquaredExponential,
    TenantKind::Bie,
];

/// The cache key tenant `t` registers under (also used by the `chaos`
/// driver to find a tenant's resident entry and poison its device).
fn tenant_cache_key(t: usize, n: usize, backend: Backend) -> CacheKey {
    let kind = KINDS[t % KINDS.len()];
    CacheKey::new(
        format!("tenant-{t}/{kind:?}/n={n}"),
        &TreePolicy::LeafSize(64),
        1e-8,
        backend,
        hodlr::Precision::Full,
    )
}

/// Register `count` tenants cycling through the archetypes; tenant `t`
/// gets a slightly different operator (length scale / noise shift) so
/// distinct tenants genuinely factorize distinct matrices.
fn register_tenants(service: &SolveService<f64>, count: usize, n: usize, backend: Backend) {
    for t in 0..count {
        let kind = KINDS[t % KINDS.len()];
        let name = format!("tenant-{t}");
        let tol = 1e-8;
        let key = tenant_cache_key(t, n, backend);
        let build = move || -> Result<Hodlr<f64>, HodlrError> {
            match kind {
                TenantKind::GpMatern => {
                    let points = regular_grid_1d(n, 0.0, 1.0);
                    let kernel = Matern::three_halves(1.0, 0.2 + 0.05 * (t % 3) as f64);
                    let source = covariance_source(&kernel, &points, 1e-2);
                    Hodlr::builder()
                        .source(&source)
                        .leaf_size(64)
                        .tolerance(tol)
                        .backend(backend)
                        .build()
                }
                TenantKind::GpSquaredExponential => {
                    let points = regular_grid_1d(n, 0.0, 1.0);
                    let kernel = SquaredExponential {
                        variance: 1.0,
                        length_scale: 0.15 + 0.05 * (t % 3) as f64,
                    };
                    let source = covariance_source(&kernel, &points, 1e-2);
                    Hodlr::builder()
                        .source(&source)
                        .leaf_size(64)
                        .tolerance(tol)
                        .backend(backend)
                        .build()
                }
                TenantKind::Bie => {
                    let (_, matrix) = laplace_hodlr(n, tol);
                    Hodlr::builder().matrix(matrix).backend(backend).build()
                }
            }
        };
        service.register_tenant(name, key, build);
    }
}

/// The scripted right-hand side of request `r`: a pure function of the
/// request index, shared by both determinism runs.
fn scripted_rhs(n: usize, r: usize) -> Vec<f64> {
    (0..n)
        .map(|i| ((i * 7 + r * 13 + 1) as f64 * 0.01).sin())
        .collect()
}

/// The scripted tenant of request `r` (multiplicative-congruential hop, so
/// neighbours in a burst mix tenants).
fn scripted_tenant(tenants: usize, r: usize) -> String {
    format!("tenant-{}", (r * 2654435761) % tenants.max(1))
}

/// Outcome of one scripted pass: metrics plus the bitwise-foldable result
/// stream.
struct PassOutcome {
    latencies_ms: Vec<f64>,
    elapsed_s: f64,
    result_bits: Vec<u64>,
    failed: u64,
}

/// Drive `requests` scripted requests through `service` in bursts,
/// draining at each burst boundary.
fn drive(
    service: &SolveService<f64>,
    tenants: usize,
    n: usize,
    requests: usize,
    burst: usize,
) -> PassOutcome {
    let mut latencies_ms = Vec::with_capacity(requests);
    let mut result_bits = Vec::new();
    let mut failed = 0u64;
    let started = Instant::now();
    let mut r = 0;
    while r < requests {
        let burst_end = (r + burst).min(requests);
        let mut in_flight = Vec::with_capacity(burst_end - r);
        for req in r..burst_end {
            let tenant = scripted_tenant(tenants, req);
            let submitted = Instant::now();
            match service.submit(&tenant, scripted_rhs(n, req)) {
                Ok(ticket) => in_flight.push((submitted, ticket)),
                Err(_) => failed += 1,
            }
        }
        service.drain();
        for (submitted, ticket) in in_flight {
            match ticket.try_take().expect("drain fulfills every ticket") {
                Ok(x) => {
                    latencies_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
                    result_bits.extend(x.iter().map(|v| v.to_bits()));
                }
                Err(_) => failed += 1,
            }
        }
        r = burst_end;
    }
    PassOutcome {
        latencies_ms,
        elapsed_s: started.elapsed().as_secs_f64(),
        result_bits,
        failed,
    }
}

/// Order-sensitive fold of the result stream into one telltale float.
fn checksum(bits: &[u64]) -> f64 {
    let mut acc = 0u64;
    for &b in bits {
        acc = acc.rotate_left(7) ^ b;
    }
    (acc >> 11) as f64 / (1u64 << 53) as f64
}

/// One scenario: build the service, run the scripted stream twice, and
/// report metrics from the first pass plus the cross-pass bitwise verdict.
fn run_scenario(
    name: &str,
    tenants: usize,
    cache: CacheConfig,
    backend: Backend,
    config: &ServeBenchConfig,
    burst: usize,
) -> ServeRow {
    let make_service = || {
        let service = SolveService::<f64>::new(ServeConfig {
            cache,
            queue_capacity: config.requests.max(16),
            degrade: DegradeConfig::default(),
        });
        register_tenants(&service, tenants, config.n, backend);
        service
    };

    let service = make_service();
    let pass = drive(&service, tenants, config.n, config.requests, burst);
    let replay = drive(&make_service(), tenants, config.n, config.requests, burst);

    let cache_stats = service.cache_stats();
    let stats = service.stats();
    ServeRow {
        scenario: name.to_string(),
        tenants,
        requests: config.requests,
        n: config.n,
        burst,
        drains: stats.drains,
        throughput_rps: config.requests as f64 / pass.elapsed_s,
        p50_ms: percentile(&pass.latencies_ms, 50.0),
        p99_ms: percentile(&pass.latencies_ms, 99.0),
        hit_rate: cache_stats.hit_rate(),
        evictions: cache_stats.evictions,
        launches_per_request: stats.launches_per_request(),
        // `drive` already counts both submit rejections and tickets that
        // drained to an error, so `pass.failed` is the complete per-request
        // failure count; adding `stats.failed` (the drain-side view of the
        // same errors) would double-count.
        failed: pass.failed,
        recovered_requests: stats.recovered,
        retries: stats.ladder_retries,
        degraded_solves: stats.degraded,
        breaker_trips: stats.breaker_trips,
        unaccounted: (config.requests as u64)
            .saturating_sub(pass.latencies_ms.len() as u64 + pass.failed),
        fault_seed: 0,
        deterministic: pass.result_bits == replay.result_bits,
        checksum: checksum(&pass.result_bits),
    }
}

/// The fixed fault seed of the `chaos` scenario: every injected device
/// fault derives from it, so the whole failure schedule replays bitwise.
pub const CHAOS_FAULT_SEED: u64 = 0xC4A0_5EED;

/// Fold a typed serve error into the determinism stream.  Each variant
/// gets a distinct tag, and variants carrying deterministic evidence
/// (residuals, breaker state, offending index) mix it in, so a replay
/// must reproduce not just the successes but the exact failure schedule.
fn error_tag(e: &ServeError) -> u64 {
    match e {
        ServeError::Solver(_) => 0xE1,
        ServeError::QueueFull { capacity } => 0xE2 ^ ((*capacity as u64) << 8),
        ServeError::Evicted { .. } => 0xE3,
        ServeError::Timeout { .. } => 0xE4,
        ServeError::InvalidRhs { index } => 0xE5 ^ ((*index as u64) << 8),
        ServeError::BuilderPanic { .. } => 0xE6,
        ServeError::CircuitOpen {
            failures,
            until_drain,
        } => 0xE7 ^ ((*failures as u64) << 8) ^ (until_drain << 40),
        ServeError::SuspectSolution { residual, .. } => 0xE8 ^ residual.to_bits(),
    }
}

/// Register the chaos tenant set: two healthy batched GP tenants (the
/// seeded device faults target these), one tenant whose nominal build is
/// poisoned but whose tighter rebuild is clean (every request must recover
/// at the ladder's tighten rung), and one tenant that never solves (the
/// ladder exhausts and the breaker must trip).
fn register_chaos_tenants(service: &SolveService<f64>, n: usize) {
    register_tenants(service, 2, n, Backend::Batched);

    // tenant-2: flaky at nominal tolerance.  The builder arms a blanket
    // poison plan on the device for the nominal (scale == 1.0) build, so
    // the factorization itself is NaN; at the tighten rung's scale the
    // device stays clean and the solve verifies.
    let flaky_key = CacheKey::new(
        format!("tenant-2/FlakyGp/n={n}"),
        &TreePolicy::LeafSize(64),
        1e-8,
        Backend::Batched,
        hodlr::Precision::Full,
    );
    service.register_tenant_scaled("tenant-2", flaky_key, move |scale| {
        let points = regular_grid_1d(n, 0.0, 1.0);
        let kernel = Matern::three_halves(1.0, 0.3);
        let source = covariance_source(&kernel, &points, 1e-2);
        let hodlr = Hodlr::builder()
            .source(&source)
            .leaf_size(64)
            .tolerance(1e-8 * scale)
            .backend(Backend::Batched)
            .build()?;
        if scale == 1.0 {
            hodlr
                .device()
                .arm_faults(FaultPlan::new().poison_range(1, 4096));
        }
        Ok(hodlr)
    });

    // tenant-3: cursed.  Every build (nominal and rebuilt) is poisoned and
    // the tenant is unscaled, so the tighten rung does not apply: the
    // ladder exhausts, requests surface `SuspectSolution`, and the circuit
    // breaker must trip.
    let cursed_key = CacheKey::new(
        format!("tenant-3/Cursed/n={n}"),
        &TreePolicy::LeafSize(64),
        1e-8,
        Backend::Batched,
        hodlr::Precision::Full,
    );
    service.register_tenant("tenant-3", cursed_key, move || {
        let points = regular_grid_1d(n, 0.0, 1.0);
        let kernel = SquaredExponential {
            variance: 1.0,
            length_scale: 0.25,
        };
        let source = covariance_source(&kernel, &points, 1e-2);
        let hodlr = Hodlr::builder()
            .source(&source)
            .leaf_size(64)
            .tolerance(1e-8)
            .backend(Backend::Batched)
            .build()?;
        hodlr
            .device()
            .arm_faults(FaultPlan::new().poison_range(1, 4096));
        Ok(hodlr)
    });
}

/// Drive the chaos stream: the same scripted submit/drain cadence as
/// [`drive`], with seeded device-fault plans re-armed on the healthy
/// tenants' resident entries every third burst.  Errors are folded into
/// the determinism stream via [`error_tag`], and every request must
/// resolve (the returned outcome's `failed` plus its latency count must
/// account for the full stream).
fn drive_chaos(
    service: &SolveService<f64>,
    tenants: usize,
    n: usize,
    requests: usize,
    burst: usize,
    fault_seed: u64,
) -> PassOutcome {
    let mut latencies_ms = Vec::with_capacity(requests);
    let mut result_bits = Vec::new();
    let mut failed = 0u64;
    let started = Instant::now();
    let mut r = 0;
    let mut burst_index = 0u64;
    while r < requests {
        // Every third burst, poison a couple of upcoming launches on one
        // healthy tenant's resident device (alternating tenants).  Launch
        // ordinals restart at arming, so the schedule is a pure function
        // of the burst index and the fault seed.
        if burst_index.is_multiple_of(3) {
            let target = (burst_index / 3) as usize % 2;
            if let Some(entry) = service
                .cache()
                .get(&tenant_cache_key(target, n, Backend::Batched))
            {
                let device = entry.hodlr().device();
                device.disarm_faults();
                device.arm_faults(FaultPlan::seeded(fault_seed ^ burst_index, 48, 3));
            }
        }
        let burst_end = (r + burst).min(requests);
        let mut in_flight = Vec::with_capacity(burst_end - r);
        for req in r..burst_end {
            let tenant = scripted_tenant(tenants, req);
            let submitted = Instant::now();
            match service.submit(&tenant, scripted_rhs(n, req)) {
                Ok(ticket) => in_flight.push((submitted, ticket)),
                Err(e) => {
                    failed += 1;
                    result_bits.push(error_tag(&e));
                }
            }
        }
        service.drain();
        for (submitted, ticket) in in_flight {
            match ticket.try_take().expect("drain fulfills every ticket") {
                Ok(x) => {
                    latencies_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
                    result_bits.extend(x.iter().map(|v| v.to_bits()));
                }
                Err(e) => {
                    failed += 1;
                    result_bits.push(error_tag(&e));
                }
            }
        }
        r = burst_end;
        burst_index += 1;
    }
    PassOutcome {
        latencies_ms,
        elapsed_s: started.elapsed().as_secs_f64(),
        result_bits,
        failed,
    }
}

/// The `chaos` scenario: scripted traffic over the chaos tenant set with
/// fault plans armed at both layers, run twice for the bitwise verdict.
fn run_chaos_scenario(config: &ServeBenchConfig) -> ServeRow {
    let tenants = 4;
    let make_service = || {
        let service = SolveService::<f64>::new(ServeConfig {
            cache: CacheConfig {
                max_entries: 32,
                memory_budget_bytes: 4 << 30,
            },
            queue_capacity: config.requests.max(16),
            degrade: DegradeConfig::default(),
        });
        register_chaos_tenants(&service, config.n);
        // Serve-layer chaos: flush the cache ahead of drains 2 and 5 (warm
        // entries vanish under in-flight requests) and stall drain 3.
        service.arm_faults(
            ServeFaultPlan::new()
                .evict_before_drain(2)
                .evict_before_drain(5)
                .stall_drain(3, 200),
        );
        service
    };

    let service = make_service();
    let pass = drive_chaos(
        &service,
        tenants,
        config.n,
        config.requests,
        config.burst,
        CHAOS_FAULT_SEED,
    );
    let replay = drive_chaos(
        &make_service(),
        tenants,
        config.n,
        config.requests,
        config.burst,
        CHAOS_FAULT_SEED,
    );

    let cache_stats = service.cache_stats();
    let stats = service.stats();
    ServeRow {
        scenario: "chaos".to_string(),
        tenants,
        requests: config.requests,
        n: config.n,
        burst: config.burst,
        drains: stats.drains,
        throughput_rps: config.requests as f64 / pass.elapsed_s,
        p50_ms: percentile(&pass.latencies_ms, 50.0),
        p99_ms: percentile(&pass.latencies_ms, 99.0),
        hit_rate: cache_stats.hit_rate(),
        evictions: cache_stats.evictions,
        launches_per_request: stats.launches_per_request(),
        failed: pass.failed,
        recovered_requests: stats.recovered,
        retries: stats.ladder_retries,
        degraded_solves: stats.degraded,
        breaker_trips: stats.breaker_trips,
        unaccounted: (config.requests as u64)
            .saturating_sub(pass.latencies_ms.len() as u64 + pass.failed),
        fault_seed: CHAOS_FAULT_SEED,
        deterministic: pass.result_bits == replay.result_bits,
        checksum: checksum(&pass.result_bits),
    }
}

/// Launches of one uncoalesced request against the first tenant, used to
/// size the `coalesce` burst above the per-solve launch count.
fn solo_launch_count(config: &ServeBenchConfig) -> u64 {
    let service = SolveService::<f64>::new(ServeConfig::default());
    register_tenants(&service, 1, config.n, Backend::Batched);
    service
        .solve_now("tenant-0", &scripted_rhs(config.n, 0))
        .expect("coalesce probe tenant solves");
    service.stats().launches
}

/// Run the four serving scenarios.
pub fn run_serve_bench(config: &ServeBenchConfig) -> Vec<ServeRow> {
    let roomy = CacheConfig {
        max_entries: 32,
        memory_budget_bytes: 4 << 30,
    };
    // Steady mixed traffic over a cache that fits every tenant.
    let warm = run_scenario("warm", 3, roomy, Backend::Batched, config, config.burst);

    // More tenants than the cache admits: a two-entry cache under a
    // six-tenant rotation must evict continuously.
    let tight = CacheConfig {
        max_entries: 2,
        memory_budget_bytes: 4 << 30,
    };
    let cold = run_scenario("cold", 6, tight, Backend::Batched, config, config.burst);

    // Single hot tenant, bursts sized well above one blocked solve's
    // launch bill: launches-per-request must drop below 1.
    let burst = (2 * solo_launch_count(config) as usize).max(config.burst);
    let coalesce = run_scenario("coalesce", 1, roomy, Backend::Batched, config, burst);

    // Seeded faults at both layers: the ladder, verification gate and
    // breaker must keep every request accounted and replay bitwise.
    let chaos = run_chaos_scenario(config);

    vec![warm, cold, coalesce, chaos]
}

/// Print the rows as an aligned table.
pub fn print_serve_table(title: &str, rows: &[ServeRow]) {
    println!("\n== {title} ==");
    println!(
        "{:<10} {:>7} {:>8} {:>6} {:>6} {:>12} {:>9} {:>9} {:>9} {:>10} {:>14} {:>7} {:>9} {:>7} {:>8} {:>6} {:>6}",
        "scenario",
        "tenants",
        "requests",
        "n",
        "burst",
        "thruput_rps",
        "p50_ms",
        "p99_ms",
        "hit_rate",
        "evictions",
        "launches/req",
        "failed",
        "recovered",
        "retries",
        "degraded",
        "trips",
        "determ"
    );
    for row in rows {
        println!(
            "{:<10} {:>7} {:>8} {:>6} {:>6} {:>12.1} {:>9.3} {:>9.3} {:>9.3} {:>10} {:>14.3} {:>7} {:>9} {:>7} {:>8} {:>6} {:>6}",
            row.scenario,
            row.tenants,
            row.requests,
            row.n,
            row.burst,
            row.throughput_rps,
            row.p50_ms,
            row.p99_ms,
            row.hit_rate,
            row.evictions,
            row.launches_per_request,
            row.failed,
            row.recovered_requests,
            row.retries,
            row.degraded_solves,
            row.breaker_trips,
            row.deterministic
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_hits_the_acceptance_targets() {
        let rows = run_serve_bench(&ServeBenchConfig {
            n: 160,
            requests: 24,
            burst: 6,
        });
        assert_eq!(rows.len(), 4);
        let by_name = |name: &str| rows.iter().find(|r| r.scenario == name).unwrap();

        let warm = by_name("warm");
        assert!(warm.hit_rate > 0.5, "warm hit rate {:.3}", warm.hit_rate);
        assert_eq!(warm.failed, 0);

        let cold = by_name("cold");
        assert!(cold.evictions > 0, "cold run must churn the cache");

        let coalesce = by_name("coalesce");
        assert!(
            coalesce.launches_per_request < 1.0,
            "coalescing must amortize launches, got {:.3}",
            coalesce.launches_per_request
        );

        // The faults-off scenarios must not exercise the ladder at all.
        for name in ["warm", "cold", "coalesce"] {
            let row = by_name(name);
            assert_eq!(row.fault_seed, 0, "{name}: faults must be disabled");
            assert_eq!(row.retries, 0, "{name}: ladder must stay cold");
        }

        let chaos = by_name("chaos");
        assert_eq!(chaos.fault_seed, CHAOS_FAULT_SEED);
        assert!(
            chaos.recovered_requests > 0,
            "chaos must recover faulted requests via the ladder"
        );
        assert!(
            chaos.degraded_solves > 0,
            "the flaky tenant must be answered by a degraded rung"
        );
        assert!(chaos.retries > 0, "chaos must attempt ladder rungs");
        assert!(
            chaos.breaker_trips > 0,
            "the cursed tenant must trip the breaker"
        );
        assert!(
            chaos.failed > 0,
            "the cursed tenant's requests must surface typed errors"
        );

        for row in &rows {
            assert!(row.deterministic, "{}: replay diverged", row.scenario);
            assert!(row.throughput_rps > 0.0);
            assert!(row.p99_ms >= row.p50_ms);
            assert_eq!(row.unaccounted, 0, "{}: lost requests", row.scenario);
        }
    }

    #[test]
    fn scripted_schedule_is_a_pure_function() {
        assert_eq!(scripted_rhs(8, 3), scripted_rhs(8, 3));
        assert_eq!(scripted_tenant(6, 5), scripted_tenant(6, 5));
        let hit_all: std::collections::HashSet<String> =
            (0..32).map(|r| scripted_tenant(3, r)).collect();
        assert_eq!(hit_all.len(), 3, "schedule must visit every tenant");
    }
}
