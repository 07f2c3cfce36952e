//! # hodlr-serve — multi-tenant solve serving on cached factorizations
//!
//! The paper's economics (factorize once at `O(N log^2 N)`, then solve at
//! `O(N log N)` per right-hand side, many right-hand sides per blocked
//! launch) are exactly the economics of a serving system.  This crate
//! turns them into one:
//!
//! * [`FactorCache`] — factorizations keyed by
//!   `(source-id, tree policy, tolerance, backend, precision)`
//!   ([`CacheKey`]), with LRU + memory-budget eviction and explicit
//!   [`CacheStats`] (hits / misses / evictions / resident bytes).
//! * [`CoalesceQueue`] — single-RHS arrivals against the same cached
//!   factorization are packed into one blocked
//!   [`solve_block`](hodlr::Solve::solve_block) per drain cycle, so
//!   launches-per-request drops below 1 under load.
//! * [`ServeError`] — a typed per-request error path
//!   ([`HodlrError`](hodlr::HodlrError) wrapped, plus `QueueFull` /
//!   `Evicted` / `Timeout` / `InvalidRhs` / `BuilderPanic` /
//!   `CircuitOpen` / `SuspectSolution`): a failed coalesced launch is
//!   retried member by member, so one bad tenant cannot poison a batch.
//! * [`SolveService`] — the front door tying the three together behind a
//!   `&self`, `Send + Sync` API.
//!
//! ## Failure model
//!
//! Every drained solution is **verified** with a scaled-residual check
//! (one blocked HODLR matvec per coalesced group, amortized like the
//! solve itself).  Faulted, [`Suspect`](hodlr::SolveVerdict::Suspect) or
//! non-finite results escalate through a bounded **degradation ladder**
//! — re-solve, quarantine + rebuild, tighter-tolerance rebuild, iterative
//! refinement, preconditioned GMRES — configured by [`DegradeConfig`];
//! tenants whose requests repeatedly exhaust the ladder trip a per-tenant
//! **circuit breaker**.  Right-hand sides are validated at admission and
//! tenant-builder panics are caught at the service boundary, so no
//! request can poison a batch or unwind across the service.
//!
//! For testing the ladder end to end there are two deterministic fault
//! injectors: device-level fault plans
//! ([`FaultPlan`](hodlr_batch::FaultPlan): fail / poison / delay the k-th
//! kernel launch) armed on any entry's device, and serve-level plans
//! ([`ServeFaultPlan`]: flush the cache or stall before the k-th drain)
//! armed on the service.  Both are schedule-addressable and replay
//! bitwise for a fixed plan; with no plan armed, the fault hooks are a
//! single relaxed atomic load.
//!
//! ## Determinism under concurrent traffic
//!
//! Results are bitwise independent of batching and thread schedule: the
//! blocked solve computes column `j` exactly as a single-column solve of
//! the same right-hand side would, groups are formed in first-arrival
//! order, and cache recency is a logical tick counter (no wall-clock
//! input).  The only schedule-dependent quantities are *metrics* (hit
//! rates, launch counts), never solutions.
//!
//! ```
//! use hodlr::prelude::*;
//! use hodlr_serve::{CacheKey, ServeConfig, SolveService};
//!
//! let service = SolveService::<f64>::new(ServeConfig::default());
//! let key = CacheKey::new(
//!     "demo-v1",
//!     &TreePolicy::LeafSize(32),
//!     1e-10,
//!     Backend::Batched,
//!     Precision::Full,
//! );
//! service.register_tenant("demo", key, || {
//!     let source = ClosureSource::new(128, 128, |i, j| {
//!         let d = (i as f64 - j as f64).abs() / 128.0;
//!         1.0 / (1.0 + 8.0 * d) + if i == j { 4.0 } else { 0.0 }
//!     });
//!     Hodlr::builder()
//!         .source(&source)
//!         .leaf_size(32)
//!         .tolerance(1e-10)
//!         .backend(Backend::Batched)
//!         .build()
//! });
//!
//! // Many single-RHS submissions, one coalesced launch sequence.
//! let tickets: Vec<_> = (0..8)
//!     .map(|s| {
//!         let rhs: Vec<f64> = (0..128).map(|i| ((i + s) as f64).sin()).collect();
//!         service.submit("demo", rhs).unwrap()
//!     })
//!     .collect();
//! let report = service.drain();
//! assert_eq!(report.requests, 8);
//! assert_eq!(report.groups, 1);
//! for t in tickets {
//!     assert!(t.wait().unwrap().iter().all(|v| v.is_finite()));
//! }
//! assert!(service.stats().launches_per_request() < 1.0);
//! ```

pub mod cache;
pub mod coalesce;
pub mod degrade;
pub mod entry;
pub mod error;
pub mod fault;
pub mod key;
pub mod service;

pub use cache::{CacheConfig, CacheStats, FactorCache};
pub use coalesce::{CoalesceQueue, DrainReport, GroupOutcome, Ticket};
pub use degrade::DegradeConfig;
pub use entry::CachedFactorization;
pub use error::ServeError;
pub use fault::{ServeFaultAction, ServeFaultEvent, ServeFaultPlan};
pub use key::{CacheKey, TreeKey};
pub use service::{ServeConfig, ServeStats, SolveService};

// The cache entry is the type that crosses threads inside Arcs; its
// Send/Sync is a hard requirement, not an accident of today's fields.
const _: () = {
    const fn assert_send_sync<S: Send + Sync>() {}
    assert_send_sync::<CachedFactorization<f64>>();
    assert_send_sync::<CachedFactorization<hodlr_la::Complex64>>();
    assert_send_sync::<FactorCache<f64>>();
    assert_send_sync::<Ticket<f64>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use hodlr::prelude::*;
    use hodlr::Precision as FacadePrecision;
    use hodlr_batch::FaultPlan;
    use std::sync::Arc;
    use std::time::Duration;

    const N: usize = 128;

    fn demo_key(id: &str, backend: Backend) -> CacheKey {
        CacheKey::new(
            id,
            &TreePolicy::LeafSize(32),
            1e-10,
            backend,
            FacadePrecision::Full,
        )
    }

    /// Order of the tenant whose coalesced products reach gemm's blocked
    /// path: its level-1 `V^H x` has 2048 rows, so one column stays under
    /// `GEMM_DIRECT_THRESHOLD` multiply-adds and a burst of 16 crosses it.
    const N_LARGE: usize = 4096;

    fn register_demo(service: &SolveService<f64>, name: &str, backend: Backend, shift: f64) {
        register_demo_of_order(service, name, backend, shift, N);
    }

    fn register_demo_of_order(
        service: &SolveService<f64>,
        name: &str,
        backend: Backend,
        shift: f64,
        n: usize,
    ) {
        service.register_tenant(name, demo_key(name, backend), move || {
            let source = ClosureSource::new(n, n, move |i, j| {
                let d = (i as f64 - j as f64).abs() / n as f64;
                1.0 / (1.0 + 8.0 * d) + if i == j { 4.0 + shift } else { 0.0 }
            });
            Hodlr::builder()
                .source(&source)
                .leaf_size(32)
                .tolerance(1e-10)
                .backend(backend)
                .build()
        });
    }

    fn rhs(seed: usize) -> Vec<f64> {
        rhs_of_order(seed, N)
    }

    fn rhs_of_order(seed: usize, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 7 + seed * 13) as f64 * 0.01).sin())
            .collect()
    }

    #[test]
    fn coalesced_results_match_individual_solves_bitwise() {
        for backend in [Backend::Serial, Backend::Batched] {
            for (name, n, requests) in [("a", N, 6), ("large", N_LARGE, 16)] {
                let service = SolveService::<f64>::new(ServeConfig::default());
                register_demo_of_order(&service, name, backend, 0.0, n);

                // Individual baseline, one request per drain.
                let singles: Vec<Vec<f64>> = (0..requests)
                    .map(|s| service.solve_now(name, &rhs_of_order(s, n)).unwrap())
                    .collect();

                // Coalesced: every request in one drain cycle.
                let tickets: Vec<_> = (0..requests)
                    .map(|s| service.submit(name, rhs_of_order(s, n)).unwrap())
                    .collect();
                let report = service.drain();
                assert_eq!((report.requests, report.groups), (requests, 1));
                for (ticket, single) in tickets.into_iter().zip(&singles) {
                    let coalesced = ticket.wait().unwrap();
                    assert_eq!(
                        &coalesced, single,
                        "{backend:?}, n = {n}: batching changed bits"
                    );
                }
            }
        }
    }

    #[test]
    fn coalescing_amortizes_launches() {
        let service = SolveService::<f64>::new(ServeConfig::default());
        register_demo(&service, "a", Backend::Batched, 0.0);

        // Baseline: one request, one drain.
        service.solve_now("a", &rhs(0)).unwrap();
        let solo_launches = service.stats().launches;
        assert!(solo_launches > 0);

        // A burst bigger than the per-solve launch count in one drain.
        let burst = (solo_launches as usize) * 2;
        let tickets: Vec<_> = (0..burst)
            .map(|s| service.submit("a", rhs(s)).unwrap())
            .collect();
        let report = service.drain();
        assert_eq!(report.groups, 1);
        assert!(
            report.launches < burst as u64,
            "coalesced {} requests cost {} launches",
            burst,
            report.launches
        );
        for t in tickets {
            t.wait().unwrap();
        }
    }

    #[test]
    fn distinct_tenants_form_distinct_groups() {
        let service = SolveService::<f64>::new(ServeConfig::default());
        register_demo(&service, "a", Backend::Batched, 0.0);
        register_demo(&service, "b", Backend::Batched, 1.0);
        let ta = service.submit("a", rhs(1)).unwrap();
        let tb = service.submit("b", rhs(2)).unwrap();
        let ta2 = service.submit("a", rhs(3)).unwrap();
        let report = service.drain();
        assert_eq!((report.requests, report.groups), (3, 2));
        for t in [ta, tb, ta2] {
            t.wait().unwrap();
        }
        assert_eq!(service.cache_stats().resident_entries, 2);
    }

    #[test]
    fn failed_coalesced_launch_retries_and_attributes() {
        // A mixed-precision entry with a NaN right-hand side in the
        // batch: the blocked refinement fails as a whole, the drain must
        // retry members individually, and only the poisoned request may
        // see an error.  (The service front door rejects non-finite
        // right-hand sides at admission, so this exercises the queue's
        // own attribution path directly.)
        let source = ClosureSource::new(N, N, |i, j| {
            let d = (i as f64 - j as f64).abs() / N as f64;
            1.0 / (1.0 + 8.0 * d) + if i == j { 4.0 } else { 0.0 }
        });
        let hodlr = Hodlr::builder()
            .source(&source)
            .leaf_size(32)
            .tolerance(1e-10)
            .backend(Backend::Serial)
            .precision(FacadePrecision::MixedRefine)
            .build()
            .unwrap();
        let entry = Arc::new(CachedFactorization::build(hodlr).unwrap());
        let key = CacheKey::new(
            "mixed-v1",
            &TreePolicy::LeafSize(32),
            1e-10,
            Backend::Serial,
            FacadePrecision::MixedRefine,
        );
        let queue = CoalesceQueue::<f64>::new(16);

        let good_before = queue
            .submit(key.clone(), Arc::clone(&entry), rhs(1))
            .unwrap();
        let mut poison = rhs(2);
        poison[0] = f64::NAN;
        let bad = queue
            .submit(key.clone(), Arc::clone(&entry), poison)
            .unwrap();
        let good_after = queue.submit(key, entry, rhs(3)).unwrap();

        let report = queue.drain();
        assert_eq!(report.requests, 3);
        assert_eq!(report.retried, 3, "whole group retried individually");
        assert_eq!(report.failed, 1, "only the poisoned member fails");

        assert!(good_before.wait().is_ok());
        assert!(good_after.wait().is_ok());
        match bad.wait() {
            Err(ServeError::Solver(HodlrError::NonConvergence { .. })) => {}
            other => panic!("poisoned request must fail as its own NonConvergence, got {other:?}"),
        }
    }

    #[test]
    fn same_key_different_entries_never_share_a_block() {
        // Two submissions can share a cache key yet have resolved to
        // different entries (an eviction + rebuild between their
        // submits).  Drain must group by entry identity, not key alone:
        // each request solves against its own operator — no panic on
        // mismatched dimensions, no neighbour's matrix.
        let build = |n: usize| {
            let source = ClosureSource::new(n, n, move |i, j| {
                let d = (i as f64 - j as f64).abs() / n as f64;
                1.0 / (1.0 + 8.0 * d) + if i == j { 4.0 } else { 0.0 }
            });
            let hodlr = Hodlr::builder()
                .source(&source)
                .leaf_size(32)
                .tolerance(1e-10)
                .build()
                .unwrap();
            Arc::new(CachedFactorization::build(hodlr).unwrap())
        };
        let queue = CoalesceQueue::<f64>::new(16);
        let key = demo_key("shared", Backend::Serial);
        let small = build(64);
        let big = build(96);
        let t_small = queue
            .submit(key.clone(), Arc::clone(&small), vec![1.0; 64])
            .unwrap();
        let t_big = queue
            .submit(key.clone(), Arc::clone(&big), vec![1.0; 96])
            .unwrap();
        let t_small2 = queue.submit(key, small, vec![2.0; 64]).unwrap();
        let report = queue.drain();
        assert_eq!(report.requests, 3);
        assert_eq!(
            report.groups, 2,
            "distinct entries under one key must form distinct groups"
        );
        assert_eq!(report.failed, 0);
        assert_eq!(t_small.wait().unwrap().len(), 64);
        assert_eq!(t_big.wait().unwrap().len(), 96);
        assert_eq!(t_small2.wait().unwrap().len(), 64);
    }

    #[test]
    fn queue_full_is_backpressure_not_failure() {
        let service = SolveService::<f64>::new(ServeConfig {
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        register_demo(&service, "a", Backend::Serial, 0.0);
        let t1 = service.submit("a", rhs(1)).unwrap();
        let t2 = service.submit("a", rhs(2)).unwrap();
        match service.submit("a", rhs(3)) {
            Err(ServeError::QueueFull { capacity: 2 }) => {}
            other => panic!("expected QueueFull, got {other:?}"),
        }
        service.drain();
        assert!(t1.wait().is_ok() && t2.wait().is_ok());
        // Capacity freed; admission works again.
        assert!(service.submit("a", rhs(4)).is_ok());
    }

    #[test]
    fn wrong_dimension_is_rejected_at_admission() {
        let service = SolveService::<f64>::new(ServeConfig::default());
        register_demo(&service, "a", Backend::Serial, 0.0);
        match service.submit("a", vec![1.0; N + 1]) {
            Err(ServeError::Solver(HodlrError::DimensionMismatch { .. })) => {}
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
        assert_eq!(service.queued(), 0, "malformed request never enqueued");
    }

    #[test]
    fn non_finite_rhs_is_rejected_at_admission() {
        let service = SolveService::<f64>::new(ServeConfig::default());
        register_demo(&service, "a", Backend::Serial, 0.0);
        let mut poisoned = rhs(0);
        poisoned[17] = f64::NAN;
        match service.submit("a", poisoned) {
            Err(ServeError::InvalidRhs { index: 17 }) => {}
            other => panic!("expected InvalidRhs {{ index: 17 }}, got {other:?}"),
        }
        let mut poisoned = rhs(1);
        poisoned[3] = f64::INFINITY;
        assert!(matches!(
            service.submit("a", poisoned),
            Err(ServeError::InvalidRhs { index: 3 })
        ));
        assert_eq!(service.queued(), 0, "poisoned request never enqueued");
        // The service stays healthy for clean traffic.
        assert!(service.solve_now("a", &rhs(2)).is_ok());
    }

    #[test]
    fn unknown_tenant_is_a_typed_config_error() {
        let service = SolveService::<f64>::new(ServeConfig::default());
        match service.submit("ghost", rhs(0)) {
            Err(ServeError::Solver(HodlrError::InvalidConfig { .. })) => {}
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn ticket_timeout_before_drain_cancels_the_request() {
        let service = SolveService::<f64>::new(ServeConfig::default());
        register_demo(&service, "a", Backend::Serial, 0.0);
        let ticket = service.submit("a", rhs(0)).unwrap();
        match ticket.wait_timeout(Duration::from_millis(1)) {
            Err(ServeError::Timeout { .. }) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
        // The abandoned request is dropped at the next drain — never
        // solved, never dangling.
        let report = service.drain();
        assert_eq!(report.requests, 1);
        assert_eq!(report.cancelled, 1, "timed-out request must be cancelled");
        assert_eq!(report.groups, 0, "cancelled request must not cost a solve");
        assert_eq!(service.stats().cancelled, 1);
        // Fresh traffic is unaffected.
        assert!(service.solve_now("a", &rhs(1)).is_ok());
    }

    #[test]
    fn ticket_timeout_during_drain_discards_the_result() {
        // A delay fault keeps the drain busy long enough for the waiter
        // to give up mid-solve; the solved result must be discarded (and
        // counted), not delivered into a slot nobody will read.
        let service = Arc::new(SolveService::<f64>::new(ServeConfig::default()));
        register_demo(&service, "a", Backend::Batched, 0.0);
        service.solve_now("a", &rhs(0)).unwrap(); // warm the cache
        let entry = service
            .cache()
            .get(&demo_key("a", Backend::Batched))
            .unwrap();
        entry
            .hodlr()
            .device()
            .arm_faults(FaultPlan::new().delay_launch(1, 400_000));

        let ticket = service.submit("a", rhs(1)).unwrap();
        let drainer = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.drain())
        };
        // Give the drain a head start into the delayed solve, then give up
        // long before the 400ms delay elapses.
        std::thread::sleep(Duration::from_millis(50));
        match ticket.wait_timeout(Duration::from_millis(10)) {
            Err(ServeError::Timeout { .. }) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
        let report = drainer.join().unwrap();
        assert_eq!(report.cancelled, 1, "abandoned result must be discarded");
        let events = entry.hodlr().device().disarm_faults();
        assert!(!events.is_empty(), "the delay fault must have fired");
        // The service stays healthy.
        assert!(service.solve_now("a", &rhs(2)).is_ok());
    }

    #[test]
    fn builder_panic_is_caught_and_typed() {
        let service = SolveService::<f64>::new(ServeConfig::default());
        service.register_tenant("explosive", demo_key("explosive", Backend::Serial), || {
            panic!("boom: synthetic builder failure")
        });
        match service.submit("explosive", rhs(0)) {
            Err(ServeError::BuilderPanic { message }) => {
                assert!(message.contains("boom"), "payload preserved: {message}")
            }
            other => panic!("expected BuilderPanic, got {other:?}"),
        }
        // The panic never unwound across the service; other tenants work.
        register_demo(&service, "a", Backend::Serial, 0.0);
        assert!(service.solve_now("a", &rhs(1)).is_ok());
    }

    #[test]
    fn poisoned_launch_recovers_via_the_ladder() {
        // Poison the first kernel launch of the next drain: the blocked
        // solve comes back NaN, verification flags it, and the ladder's
        // first rung (a clean re-solve) recovers the exact answer.
        let service = SolveService::<f64>::new(ServeConfig::default());
        register_demo(&service, "a", Backend::Batched, 0.0);
        let baseline = service.solve_now("a", &rhs(5)).unwrap();
        let entry = service
            .cache()
            .get(&demo_key("a", Backend::Batched))
            .unwrap();
        entry
            .hodlr()
            .device()
            .arm_faults(FaultPlan::new().poison_launch(1));

        let ticket = service.submit("a", rhs(5)).unwrap();
        let report = service.drain();
        assert_eq!(report.failed, 0, "the fault must be absorbed, not surfaced");
        assert_eq!(report.recovered, 1);
        assert!(report.ladder_retries >= 1);
        let recovered = ticket.wait().unwrap();
        assert_eq!(recovered, baseline, "recovery must reproduce exact bits");

        let stats = service.stats();
        assert_eq!((stats.recovered, stats.failed), (1, 0));
        assert!(!entry.hodlr().device().disarm_faults().is_empty());
    }

    #[test]
    fn persistent_poison_trips_the_breaker_and_cools_down() {
        // A tenant whose device poisons *every* launch — rebuilds
        // included — exhausts the ladder on each request.  After the
        // third consecutive exhausted request the circuit breaker opens,
        // rejects submits for the cooldown, then half-opens.
        let service = SolveService::<f64>::new(ServeConfig::default());
        let key = demo_key("cursed", Backend::Batched);
        service.register_tenant("cursed", key, || {
            let source = ClosureSource::new(N, N, |i, j| {
                let d = (i as f64 - j as f64).abs() / N as f64;
                1.0 / (1.0 + 8.0 * d) + if i == j { 4.0 } else { 0.0 }
            });
            let hodlr = Hodlr::builder()
                .source(&source)
                .leaf_size(32)
                .tolerance(1e-10)
                .backend(Backend::Batched)
                .build()?;
            // Simulate a persistently broken device: every launch for the
            // life of this factorization yields NaN.
            hodlr
                .device()
                .arm_faults(FaultPlan::new().poison_range(1, 100_000));
            Ok(hodlr)
        });

        for round in 0..3 {
            let ticket = service.submit("cursed", rhs(round)).unwrap();
            let report = service.drain();
            assert_eq!(report.failed, 1, "round {round} must exhaust the ladder");
            match ticket.wait() {
                Err(ServeError::SuspectSolution { .. }) => {}
                other => panic!("round {round}: expected SuspectSolution, got {other:?}"),
            }
        }
        let stats = service.stats();
        assert_eq!(stats.breaker_trips, 1, "third failure trips the breaker");
        assert!(
            stats.quarantined >= 1,
            "poisoned entries must be quarantined"
        );
        assert!(stats.ladder_retries >= 3);
        assert_eq!(stats.recovered, 0);

        // Open: submits are rejected with a typed, time-bounded error.
        match service.submit("cursed", rhs(9)) {
            Err(ServeError::CircuitOpen { failures: 3, .. }) => {}
            other => panic!("expected CircuitOpen, got {other:?}"),
        }
        // Cool down (empty drains advance the clock), then half-open
        // admits traffic again.
        service.drain();
        assert!(
            service.submit("cursed", rhs(10)).is_ok(),
            "cooldown elapsed: the breaker must half-open"
        );
        service.drain();

        // A healthy tenant is never affected by the cursed one's breaker.
        register_demo(&service, "a", Backend::Serial, 0.0);
        assert!(service.solve_now("a", &rhs(0)).is_ok());
    }

    #[test]
    fn serve_faults_evict_and_stall_deterministically() {
        let service = SolveService::<f64>::new(ServeConfig::default());
        register_demo(&service, "a", Backend::Serial, 0.0);
        service.solve_now("a", &rhs(0)).unwrap(); // warm: one resident entry
        service.arm_faults(
            ServeFaultPlan::new()
                .evict_before_drain(1)
                .stall_drain(2, 500),
        );

        // Drain 1: the whole cache is flushed mid-flight; the queued
        // request still resolves (it holds its entry by Arc).
        let ticket = service.submit("a", rhs(1)).unwrap();
        let report = service.drain();
        assert_eq!((report.requests, report.failed), (1, 0));
        assert!(
            ticket.wait().is_ok(),
            "in-flight request survives the flush"
        );
        assert_eq!(service.cache_stats().resident_entries, 0);

        // Drain 2 (stalled): the next submit rebuilds transparently.
        let ticket = service.submit("a", rhs(2)).unwrap();
        service.drain();
        assert!(ticket.wait().is_ok());
        assert_eq!(service.cache_stats().inserts, 2);

        let events = service.disarm_faults();
        assert_eq!(events.len(), 2, "both scheduled faults fired: {events:?}");
        assert_eq!(
            (events[0].drain, events[0].action),
            (1, ServeFaultAction::EvictAll)
        );
        assert_eq!(events[1].drain, 2);
        assert!(matches!(
            events[1].action,
            ServeFaultAction::Stall { micros: 500 }
        ));
        assert!(service.fault_events().is_empty(), "disarm clears the plan");
    }

    #[test]
    fn cold_build_does_not_block_other_tenants() {
        // One tenant's expensive cold build must not hold the tenant
        // registry hostage: while it runs, other tenants' submits and new
        // registrations proceed.  The slow builder parks on a barrier; if
        // submit still held the registry lock across the build, the warm
        // solve below would deadlock instead of completing.
        use std::sync::Barrier;

        let service = Arc::new(SolveService::<f64>::new(ServeConfig::default()));
        register_demo(&service, "warm", Backend::Serial, 0.0);
        service.solve_now("warm", &rhs(0)).unwrap();

        let entered = Arc::new(Barrier::new(2));
        let release = Arc::new(Barrier::new(2));
        {
            let entered = Arc::clone(&entered);
            let release = Arc::clone(&release);
            service.register_tenant("slow", demo_key("slow", Backend::Serial), move || {
                entered.wait();
                release.wait();
                let source = ClosureSource::new(N, N, |i, j| {
                    let d = (i as f64 - j as f64).abs() / N as f64;
                    1.0 / (1.0 + 8.0 * d) + if i == j { 4.0 } else { 0.0 }
                });
                Hodlr::builder()
                    .source(&source)
                    .leaf_size(32)
                    .tolerance(1e-10)
                    .build()
            });
        }

        let cold = {
            let service = Arc::clone(&service);
            std::thread::spawn(move || service.submit("slow", rhs(1)).unwrap())
        };
        entered.wait(); // the cold build is now in flight

        // Must complete while the cold build is parked.
        service.solve_now("warm", &rhs(2)).unwrap();
        register_demo(&service, "late", Backend::Serial, 1.0);
        service.solve_now("late", &rhs(3)).unwrap();

        release.wait();
        let ticket = cold.join().unwrap();
        service.drain();
        assert!(ticket
            .try_take()
            .expect("drain serves the cold request")
            .is_ok());
    }

    #[test]
    fn warm_traffic_hits_the_cache() {
        let service = SolveService::<f64>::new(ServeConfig::default());
        register_demo(&service, "a", Backend::Batched, 0.0);
        for round in 0..10 {
            let t = service.submit("a", rhs(round)).unwrap();
            service.drain();
            t.wait().unwrap();
        }
        let stats = service.cache_stats();
        assert!(
            stats.hit_rate() > 0.5,
            "10 rounds against one tenant must be warm: {stats:?}"
        );
        assert_eq!(stats.inserts, 1);
    }

    #[test]
    fn concurrent_submitters_get_bitwise_identical_answers() {
        let service = Arc::new(SolveService::<f64>::new(ServeConfig::default()));
        register_demo(&service, "a", Backend::Batched, 0.0);
        let baseline: Vec<Vec<f64>> = (0..8)
            .map(|s| service.solve_now("a", &rhs(s)).unwrap())
            .collect();

        let mut handles = Vec::new();
        for s in 0..8 {
            let service = Arc::clone(&service);
            handles.push(std::thread::spawn(move || {
                let ticket = service.submit("a", rhs(s)).unwrap();
                // Every thread may drain; cycles are serialized internally
                // and each ticket resolves exactly once.
                service.drain();
                ticket.wait().unwrap()
            }));
        }
        for (s, handle) in handles.into_iter().enumerate() {
            let got = handle.join().unwrap();
            assert_eq!(
                got, baseline[s],
                "thread schedule changed request {s}'s bits"
            );
        }
    }
}
