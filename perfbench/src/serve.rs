//! The serving workload (`serve-mixed`) and the serve probe the solver
//! workloads' traced runs use: closed-loop clients over `SolveService`.

use crate::probe::{self, fnv1a, median, percentile};
use crate::problem::{shuffle, Kind, Problem, LEAF, TOL};
use crate::report::Report;
use crate::solver;
use crate::trace::Tracer;
use hodlr::{Backend, HodlrError, Precision, TreePolicy};
use hodlr_serve::{
    CacheConfig, CacheKey, CacheStats, DegradeConfig, ServeConfig, ServeStats, SolveService,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Matrix size of every tenant.
const N: usize = 4096;
/// Tenants, by popularity rank: even ranks GP covariances (SPD, serial),
/// odd ranks Laplace operators (LU, batched).
const TENANTS: usize = 6;
/// Zipf exponent of the tenant schedule.
const ZIPF: f64 = 3.5;
/// Requests per pass of the schedule.
const REQUESTS: usize = 700;
/// Requests in flight per drain cycle.
const BURST: usize = 16;
/// Cache byte budget: room for the four hottest tenants (two of each
/// family, ~93 MB at the seed commit), not for a fifth (>= 107 MB).
const CACHE_BUDGET: u64 = 100 << 20;
/// Distinct right-hand sides, cycled through by request index.
const RHS_POOL: usize = 64;
/// Right-hand sides of the coalesced blocked-solve probe.
const BLOCK_RHS: usize = 32;
/// Passes per run, at least: three give 2100 latency samples, 21 of
/// them beyond p99.
const MIN_PASSES: usize = 3;
/// Requests of a pass replayed on a fresh service to check determinism.
const REPLAY_REQUESTS: usize = 256;
/// Requests of the serve probe of a solver workload.
const PROBE_REQUESTS: usize = 64;

/// Tenant `rank` of the mix: its name and operator.
fn tenant(rank: usize, seed: u64) -> (String, Problem) {
    let (kind, backend, label) = if rank.is_multiple_of(2) {
        (Kind::GpSe3d, Backend::Serial, "gp")
    } else {
        (Kind::LaplaceSurface2d, Backend::Batched, "bie")
    };
    let problem = Problem {
        kind,
        n: N,
        seed: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ rank as u64,
        backend,
    };
    (format!("{label}-{rank}"), problem)
}

/// The popularity ranks of pass `pass`'s requests: exactly the Zipf share
/// of [`REQUESTS`] per tenant, in an order drawn from the seed, with at
/// most one request for a cold tenant (rank 2 and up) per burst.  Fixing
/// the counts keeps the number of rebuilds nearly the same for every
/// seed, and one cold request per burst keeps each burst to at most one
/// rebuild, so the latency tail is the cost of one rebuild, not the luck
/// of how many coincide.
fn schedule(seed: u64, pass: usize) -> Vec<usize> {
    let weights: Vec<f64> = (1..=TENANTS).map(|k| (k as f64).powf(-ZIPF)).collect();
    let total: f64 = weights.iter().sum();
    let mut cold = Vec::new();
    for (rank, w) in weights.iter().enumerate().skip(2) {
        let count = (REQUESTS as f64 * w / total).round() as usize;
        cold.extend(std::iter::repeat_n(rank, count));
    }
    let ones = (REQUESTS as f64 * weights[1] / total).round() as usize;
    let mut hot = vec![1; ones];
    hot.resize(REQUESTS - cold.len(), 0);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x21ff ^ ((pass as u64) << 32));
    shuffle(&mut hot, &mut rng);
    shuffle(&mut cold, &mut rng);
    let bursts = REQUESTS.div_ceil(BURST);
    let mut cold_bursts: Vec<usize> = (0..bursts).collect();
    shuffle(&mut cold_bursts, &mut rng);
    cold_bursts.truncate(cold.len());

    let (mut hot, mut cold) = (hot.into_iter(), cold.into_iter());
    let mut ranks = Vec::with_capacity(REQUESTS);
    for burst in 0..bursts {
        let size = BURST.min(REQUESTS - burst * BURST);
        let slot = cold_bursts.contains(&burst).then(|| rng.gen_range(0..size));
        for position in 0..size {
            let next = if slot == Some(position) {
                cold.next()
            } else {
                hot.next()
            };
            ranks.push(next.expect("schedule counts add up to REQUESTS"));
        }
    }
    ranks
}

/// Seconds spent in each tenant-builder call, in call order.
type BuildLog = Arc<Mutex<Vec<f64>>>;

fn builds(log: &BuildLog) -> std::sync::MutexGuard<'_, Vec<f64>> {
    log.lock().expect("build log lock poisoned")
}

/// What one pass of a schedule measured.
#[derive(Default)]
struct Pass {
    setup_s: f64,
    first_result_s: f64,
    loop_s: f64,
    latencies_ms: Vec<f64>,
    waits_ms: Vec<f64>,
    drains_s: Vec<f64>,
    /// Factorization seconds of every cache miss, by operator family.
    miss_factor_s: Vec<(Kind, f64)>,
    builds_s: Vec<f64>,
    solve_s: Vec<f64>,
    block_s: Vec<f64>,
    requests: u64,
    failed: u64,
    unaccounted: u64,
    hash: u64,
    /// `hash` after the warm-up and the first [`REPLAY_REQUESTS`].
    prefix_hash: u64,
    stats: ServeStats,
    cache: CacheStats,
    peak_rss: Option<u64>,
}

/// A closed-loop client: submits a burst, drains it, collects every
/// ticket, and only then sends the next burst.
struct Client<'a> {
    service: &'a SolveService<f64>,
    tenants: &'a [(String, Problem)],
    rhs: &'a [Vec<f64>],
    log: &'a BuildLog,
    tracer: &'a Tracer,
    pass: Pass,
    sent: usize,
}

impl Client<'_> {
    /// Send one request per rank, drain, collect; with `sample`, record
    /// the latencies and queue waits.  The clients all send at the start
    /// of the burst, so a rebuild inside one submit delays every request
    /// of the burst: latency is taken from the burst start.
    fn burst(&mut self, ranks: &[usize], sample: bool) {
        let burst_start = Instant::now();
        let mut in_flight = Vec::with_capacity(ranks.len());
        for &rank in ranks {
            let rhs = self.rhs[self.sent % self.rhs.len()].clone();
            self.sent += 1;
            self.pass.requests += 1;
            let builds_before = builds(self.log).len();
            let submitted = Instant::now();
            let ticket = self.tracer.span("serve.submit", || {
                self.service.submit(&self.tenants[rank].0, rhs)
            });
            let submit_s = submitted.elapsed().as_secs_f64();
            let log = builds(self.log);
            if log.len() > builds_before {
                // The submit built and factorized the tenant: the part not
                // spent in the builder is the factorization.
                let built: f64 = log[builds_before..].iter().sum();
                let kind = self.tenants[rank].1.kind;
                self.pass.miss_factor_s.push((kind, submit_s - built));
            }
            drop(log);
            match ticket {
                Ok(ticket) => in_flight.push((submitted, ticket)),
                Err(e) => self.fail(&e.to_string()),
            }
        }
        let drain_start = Instant::now();
        self.tracer.span("serve.drain", || self.service.drain());
        self.pass.drains_s.push(drain_start.elapsed().as_secs_f64());
        for (submitted, ticket) in in_flight {
            if sample {
                let wait = drain_start.duration_since(submitted);
                self.pass.waits_ms.push(wait.as_secs_f64() * 1e3);
            }
            match ticket.try_take() {
                Some(Ok(x)) => {
                    if sample {
                        let latency = burst_start.elapsed().as_secs_f64() * 1e3;
                        self.pass.latencies_ms.push(latency);
                    }
                    self.pass.hash = self.pass.hash.rotate_left(5) ^ fnv1a(&x);
                }
                Some(Err(e)) => self.fail(&e.to_string()),
                None => self.pass.unaccounted += 1,
            }
        }
    }

    fn fail(&mut self, error: &str) {
        self.pass.failed += 1;
        self.pass.hash = self.pass.hash.rotate_left(5) ^ fnv1a(&[error.len() as f64]);
        eprintln!("request failed: {error}");
    }
}

/// Run `schedule` against a fresh service over `tenants`: registration,
/// warm-up of the two hottest tenants, then the closed loop.  With
/// `probes`, a single-RHS request and (less often) a coalesced 32-RHS
/// blocked solve on the hottest tenant are timed between bursts, spread
/// over the pass so that they sample the whole run.
fn run_pass(
    tenants: &[(String, Problem)],
    schedule: &[usize],
    rhs: &[Vec<f64>],
    budget: u64,
    probes: bool,
    tracer: &Tracer,
) -> Pass {
    let rss_armed = probe::reset_peak_rss();
    let log = BuildLog::default();
    let start = Instant::now();
    let service = tracer.span("serve.register", || {
        let service = SolveService::<f64>::new(ServeConfig {
            cache: CacheConfig {
                max_entries: TENANTS,
                memory_budget_bytes: budget,
            },
            queue_capacity: 4 * BLOCK_RHS,
            degrade: DegradeConfig::default(),
        });
        for (name, problem) in tenants {
            let log = Arc::clone(&log);
            let problem = *problem;
            let key = CacheKey::new(
                name.as_str(),
                &TreePolicy::LeafSize(LEAF),
                TOL,
                problem.backend,
                Precision::Full,
            );
            service.register_tenant(name.as_str(), key, move || {
                let start = Instant::now();
                let built = problem.build();
                log.lock()
                    .expect("build log lock poisoned")
                    .push(start.elapsed().as_secs_f64());
                built
            });
        }
        service
    });
    let mut client = Client {
        service: &service,
        tenants,
        rhs,
        log: &log,
        tracer,
        pass: Pass::default(),
        sent: 0,
    };
    client.burst(&[0], false);
    client.pass.first_result_s = start.elapsed().as_secs_f64();
    if tenants.len() > 1 {
        client.burst(&[1], false);
    }
    client.pass.setup_s = start.elapsed().as_secs_f64();

    for (i, ranks) in schedule.chunks(BURST).enumerate() {
        let burst_start = Instant::now();
        client.burst(ranks, true);
        client.pass.loop_s += burst_start.elapsed().as_secs_f64();
        if (i + 1) * BURST == REPLAY_REQUESTS {
            client.pass.prefix_hash = client.pass.hash;
        }
        if probes && i % 2 == 1 {
            let start = Instant::now();
            client.burst(&[0], false);
            client.pass.solve_s.push(start.elapsed().as_secs_f64());
        }
        if probes && i % 8 == 7 {
            let start = Instant::now();
            client.burst(&[0; BLOCK_RHS], false);
            client.pass.block_s.push(start.elapsed().as_secs_f64());
        }
    }

    let mut pass = client.pass;
    pass.builds_s = builds(&log).clone();
    pass.stats = service.stats();
    pass.cache = service.cache_stats();
    pass.peak_rss = if rss_armed {
        probe::peak_rss_bytes()
    } else {
        None
    };
    pass
}

/// Count a pass's requests and check that each was answered.
fn check_pass(pass: &Pass, report: &mut Report) {
    report.operations(pass.requests, pass.failed, "requests");
    report.check(pass.unaccounted == 0, || {
        format!("{} requests unaccounted", pass.unaccounted)
    });
}

/// Check that a replay on a fresh service reproduced `expected`.
fn check_replay(replayed: u64, expected: u64, report: &mut Report) {
    report.check(replayed == expected, || {
        "replayed schedule produced different results".to_string()
    });
}

fn layer_metrics(pass: &Pass, report: &mut Report) {
    report.metric("serve.hit_rate", pass.cache.hit_rate(), "ratio");
    report.metric("serve.builds", pass.builds_s.len() as f64, "count");
    report.metric("serve.evictions", pass.cache.evictions as f64, "count");
    report.metric("serve.build_s", pass.builds_s.iter().sum(), "s");
    report.metric("serve.drain_s", pass.drains_s.iter().sum(), "s");
    report.metric("serve.wait_p50_ms", median(&pass.waits_ms), "ms");
    report.metric("serve.wait_p99_ms", percentile(&pass.waits_ms, 99.0), "ms");
    report.metric(
        "serve.latency_p99_ms",
        percentile(&pass.latencies_ms, 99.0),
        "ms",
    );
    report.metric(
        "serve.launches_per_request",
        pass.stats.launches_per_request(),
        "ratio",
    );
    report.metric("serve.unaccounted", pass.unaccounted as f64, "count");
}

fn tenants(seed: u64) -> Vec<(String, Problem)> {
    (0..TENANTS).map(|rank| tenant(rank, seed)).collect()
}

fn rhs_pool(seed: u64) -> Vec<Vec<f64>> {
    Problem {
        seed,
        ..tenant(0, seed).1
    }
    .rhs(RHS_POOL)
}

/// The untraced `serve-mixed` run: passes of fresh schedules, each on a
/// fresh service, for `seconds` (at least [`MIN_PASSES`]), then a replay
/// of the first pass's opening requests.
pub fn run(seed: u64, seconds: f64, report: &mut Report) {
    let tenants = tenants(seed);
    let rhs = rhs_pool(seed);
    let tracer = Tracer::off();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < MIN_PASSES || Instant::now() < deadline {
        let schedule = schedule(seed, passes.len());
        let pass = run_pass(&tenants, &schedule, &rhs, CACHE_BUDGET, true, &tracer);
        check_pass(&pass, report);
        passes.push(pass);
    }
    let first = schedule(seed, 0);
    let replay = run_pass(
        &tenants,
        &first[..REPLAY_REQUESTS],
        &rhs,
        CACHE_BUDGET,
        true,
        &tracer,
    );
    check_pass(&replay, report);
    check_replay(replay.prefix_hash, passes[0].prefix_hash, report);

    let each = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<_>>();
    let all = |f: fn(&Pass) -> &Vec<f64>| passes.iter().flat_map(f).copied().collect::<Vec<_>>();
    let latencies = all(|p| &p.latencies_ms);
    let rss: Vec<f64> = passes
        .iter()
        .filter_map(|p| p.peak_rss)
        .map(|b| b as f64)
        .collect();
    report.metric("setup_s", median(&each(|p| p.setup_s)), "s");
    // One factorization of each family: the share of each family among
    // the misses varies with the seed, a sum of per-family medians does not.
    let factor = |kind| {
        let secs: Vec<f64> = passes
            .iter()
            .flat_map(|p| &p.miss_factor_s)
            .filter(|(k, _)| *k == kind)
            .map(|(_, s)| *s)
            .collect();
        median(&secs)
    };
    report.metric(
        "factor_s",
        factor(Kind::GpSe3d) + factor(Kind::LaplaceSurface2d),
        "s",
    );
    report.metric("solve_s", median(&all(|p| &p.solve_s)), "s");
    report.metric("solve_block_s", median(&all(|p| &p.block_s)), "s");
    report.metric("total_s", median(&each(|p| p.first_result_s)), "s");
    report.metric(
        "peak_rss_bytes",
        if rss.is_empty() {
            f64::NAN
        } else {
            median(&rss)
        },
        "bytes",
    );
    report.metric(
        "throughput_rps",
        (passes.len() * REQUESTS) as f64 / each(|p| p.loop_s).iter().sum::<f64>(),
        "1/s",
    );
    report.metric("latency_p50_ms", median(&latencies), "ms");
    eprintln!(
        "samples: {} passes, {} request latencies, p99 {} ms",
        passes.len(),
        latencies.len(),
        percentile(&latencies, 99.0)
    );
}

/// The traced `serve-mixed` run: an untraced pass (the overhead
/// baseline), a traced replay for the serve-layer metrics, and the
/// layer-by-layer pipeline on the hottest batched tenant.
pub fn run_traced(seed: u64, tracer: &Tracer, report: &mut Report) -> Result<(), HodlrError> {
    let tenants = tenants(seed);
    let schedule = schedule(seed, 0);
    let rhs = rhs_pool(seed);
    let untraced = run_pass(
        &tenants,
        &schedule,
        &rhs,
        CACHE_BUDGET,
        false,
        &Tracer::off(),
    );
    check_pass(&untraced, report);
    let traced = tracer.span("serve.pass", || {
        run_pass(&tenants, &schedule, &rhs, CACHE_BUDGET, false, tracer)
    });
    check_pass(&traced, report);
    check_replay(traced.hash, untraced.hash, report);
    layer_metrics(&traced, report);

    solver::trace_operator(&tenants[1].1, tracer, report)?;
    report.metric("trace.total_s", traced.first_result_s, "s");
    report.metric(
        "trace.overhead_s",
        traced.first_result_s - untraced.first_result_s,
        "s",
    );
    Ok(())
}

/// Serve a solver workload's operator as the only tenant of a service
/// (its builder is the facade build) for a short closed loop: the
/// serve-layer metrics of the solver workloads.
pub fn probe_operator(problem: &Problem, tracer: &Tracer, report: &mut Report) {
    let tenants = [("operator".to_string(), *problem)];
    let rhs = problem.rhs(BURST);
    let pass = tracer.span("serve.pass", || {
        run_pass(
            &tenants,
            &[0; PROBE_REQUESTS],
            &rhs,
            u64::MAX,
            false,
            tracer,
        )
    });
    check_pass(&pass, report);
    layer_metrics(&pass, report);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_keeps_zipf_counts_and_one_cold_request_per_burst() {
        let a = schedule(3, 0);
        assert_eq!(a, schedule(3, 0));
        assert_ne!(a, schedule(3, 1));
        assert_eq!(a.len(), REQUESTS);
        let count = |rank| a.iter().filter(|&&r| r == rank).count();
        assert_eq!(
            (1..TENANTS).map(count).collect::<Vec<_>>(),
            [55, 13, 5, 2, 1]
        );
        for burst in a.chunks(BURST) {
            assert!(burst.iter().filter(|&&r| r >= 2).count() <= 1);
        }
    }
}
