//! The multi-tenant front door: tenant registry + cache + coalescing
//! queue behind one `&self` API, with numerical self-verification and a
//! degradation ladder guarding every drained solve.

use crate::cache::{CacheConfig, CacheStats, FactorCache};
use crate::coalesce::{CoalesceQueue, DrainReport, GroupOutcome, Ticket};
use crate::degrade::{Breaker, DegradeConfig};
use crate::entry::CachedFactorization;
use crate::fault::{ServeFaultAction, ServeFaultEvent, ServeFaultPlan, ServeFaultState};
use crate::{CacheKey, ServeError};
use hodlr::{Backend, Factorization, Hodlr, Solve, SolveScalar, SolveVerdict, VerifyConfig};
use hodlr_la::{DenseMatrix, HodlrError};
use hodlr_solver::{Gmres, LinearOperator};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How a tenant's operator is (re)built on a cache miss.  The argument is
/// a **tolerance scale**: `1.0` asks for the nominal build matching the
/// tenant's cache key; the degradation ladder passes `0.01` for its
/// tighter-tolerance rung.  `Arc`'d so `submit` can clone it out of the
/// registry and run the (potentially expensive) build without holding the
/// registry lock.
type TenantBuilder<T> = Arc<dyn Fn(f64) -> Result<Hodlr<T>, HodlrError> + Send + Sync>;

/// Sizing and robustness knobs of a [`SolveService`].
#[derive(Copy, Clone, Debug)]
pub struct ServeConfig {
    /// Factorization-cache budget.
    pub cache: CacheConfig,
    /// Coalescing-queue admission capacity.
    pub queue_capacity: usize,
    /// Verification + degradation-ladder + circuit-breaker knobs.
    pub degrade: DegradeConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache: CacheConfig::default(),
            queue_capacity: 1024,
            degrade: DegradeConfig::default(),
        }
    }
}

/// Service-level counters (cache counters live in [`CacheStats`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests taken off the queue by drain cycles (including cancelled
    /// ones, so `submitted == completed` once the queue is empty).
    pub completed: u64,
    /// Requests that resolved to an error during a drain.
    pub failed: u64,
    /// Drain cycles run.
    pub drains: u64,
    /// Coalesced groups solved across all drains.
    pub groups: u64,
    /// Batched-kernel launches metered across all drains.
    pub launches: u64,
    /// Requests retried individually after a failed coalesced launch.
    pub retried: u64,
    /// Requests abandoned by timed-out waiters (dropped before solving or
    /// solved with the result discarded).
    pub cancelled: u64,
    /// Degradation-ladder rungs consumed across all drains.
    pub ladder_retries: u64,
    /// Requests resolved by a degraded path (tighter-tolerance rebuild,
    /// iterative refinement, GMRES).
    pub degraded: u64,
    /// Requests whose initial solve was faulted or unverified but whose
    /// final result is a verified success.
    pub recovered: u64,
    /// Circuit-breaker trips across all tenants.
    pub breaker_trips: u64,
    /// Cache entries quarantined (removed) after producing non-finite or
    /// faulted output.
    pub quarantined: u64,
}

impl ServeStats {
    /// Batched launches divided by drained requests — the coalescing
    /// figure of merit (`< 1` means batching is amortizing launches).
    pub fn launches_per_request(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.launches as f64 / self.completed as f64
        }
    }
}

/// A multi-tenant solve service: register tenants once, then [`submit`]
/// single right-hand sides from any thread and [`drain`] them in
/// coalesced blocked launches.
///
/// Every entry point takes `&self` and the service is `Send + Sync`, so
/// one instance can be shared across request-handler threads directly (or
/// behind an `Arc`).
///
/// ## Failure model
///
/// Right-hand sides are validated at admission
/// ([`ServeError::InvalidRhs`]); tenant-builder panics are caught at the
/// service boundary ([`ServeError::BuilderPanic`]); drained solutions are
/// verified with a scaled-residual check and unverified or faulted solves
/// escalate through a bounded degradation ladder (see
/// [`DegradeConfig`]); tenants whose requests
/// repeatedly exhaust the ladder trip a circuit breaker
/// ([`ServeError::CircuitOpen`]).  Deterministic fault injection for all
/// of this lives behind [`SolveService::arm_faults`].
///
/// [`submit`]: SolveService::submit
/// [`drain`]: SolveService::drain
pub struct SolveService<T: SolveScalar> {
    cache: FactorCache<T>,
    queue: CoalesceQueue<T>,
    tenants: Mutex<HashMap<String, (CacheKey, TenantBuilder<T>)>>,
    degrade: DegradeConfig,
    breakers: Mutex<HashMap<CacheKey, Breaker>>,
    faults: Mutex<Option<ServeFaultState>>,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    drains: AtomicU64,
    groups: AtomicU64,
    launches: AtomicU64,
    retried: AtomicU64,
    cancelled: AtomicU64,
    ladder_retries: AtomicU64,
    degraded: AtomicU64,
    recovered: AtomicU64,
    breaker_trips: AtomicU64,
    quarantined: AtomicU64,
}

impl<T: SolveScalar> SolveService<T> {
    /// An empty service with the given budgets.
    pub fn new(config: ServeConfig) -> Self {
        SolveService {
            cache: FactorCache::new(config.cache),
            queue: CoalesceQueue::new(config.queue_capacity),
            tenants: Mutex::new(HashMap::new()),
            degrade: config.degrade,
            breakers: Mutex::new(HashMap::new()),
            faults: Mutex::new(None),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            drains: AtomicU64::new(0),
            groups: AtomicU64::new(0),
            launches: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            ladder_retries: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        }
    }

    /// Register (or replace) a tenant: a cache key describing the
    /// factorization and a builder that produces the matching [`Hodlr`]
    /// on a cache miss.
    ///
    /// The key is the cache's identity, so the builder must honour it:
    /// same source, tree policy, tolerance, backend and precision.  The
    /// degradation ladder's tighter-tolerance rung is skipped for tenants
    /// registered this way; use [`SolveService::register_tenant_scaled`]
    /// to opt in.
    pub fn register_tenant(
        &self,
        name: impl Into<String>,
        key: CacheKey,
        build: impl Fn() -> Result<Hodlr<T>, HodlrError> + Send + Sync + 'static,
    ) {
        // A plain builder has one fixed tolerance; honour only the
        // nominal scale and decline the rest so the ladder skips its
        // tighter-tolerance rung rather than silently re-running the
        // nominal build and mislabelling it "tighter".
        self.register_tenant_scaled(name, key, move |scale| {
            if scale == 1.0 {
                build()
            } else {
                Err(HodlrError::config(
                    "tenant builder does not support tolerance scaling",
                ))
            }
        });
    }

    /// Register a tenant whose builder accepts a **tolerance scale**
    /// (`1.0` = the nominal build matching `key`; the degradation
    /// ladder's tighter-tolerance rung passes `0.01`).  Scaled builds are
    /// transient — never cached, since their tolerance does not match the
    /// tenant's cache key.
    pub fn register_tenant_scaled(
        &self,
        name: impl Into<String>,
        key: CacheKey,
        build: impl Fn(f64) -> Result<Hodlr<T>, HodlrError> + Send + Sync + 'static,
    ) {
        self.lock_tenants()
            .insert(name.into(), (key, Arc::new(build) as TenantBuilder<T>));
    }

    /// Registered tenant names, sorted.
    pub fn tenants(&self) -> Vec<String> {
        let mut names: Vec<String> = self.lock_tenants().keys().cloned().collect();
        names.sort();
        names
    }

    /// Submit one right-hand side for `tenant`, resolving (and if needed
    /// building) its cached factorization, and enqueue it for the next
    /// drain cycle.
    ///
    /// # Errors
    /// [`ServeError::InvalidRhs`] for a right-hand side with non-finite
    /// entries (rejected before it can poison a coalesced batch);
    /// [`ServeError::Solver`] for an unknown tenant, a failed build, or a
    /// right-hand side of the wrong dimension; [`ServeError::BuilderPanic`]
    /// when the tenant's builder panics; [`ServeError::CircuitOpen`] while
    /// the tenant's breaker cools down; [`ServeError::Evicted`] when the
    /// tenant's factorization exceeds the cache budget;
    /// [`ServeError::QueueFull`] under backpressure.
    pub fn submit(&self, tenant: &str, rhs: Vec<T>) -> Result<Ticket<T>, ServeError> {
        if let Some(index) = rhs.iter().position(|v| !v.is_finite()) {
            return Err(ServeError::InvalidRhs { index });
        }
        // Clone the key and the Arc'd builder out of the registry, then
        // drop the lock *before* a potential factorization build: one
        // tenant's cold build must not stall every other tenant's submits
        // (or registrations).  Two threads racing on the same cold key may
        // both build; the cache's double-checked insert keeps exactly one.
        let (key, build) = {
            let tenants = self.lock_tenants();
            let (key, build) = tenants.get(tenant).ok_or_else(|| {
                ServeError::Solver(HodlrError::config(format!(
                    "unknown tenant {tenant:?}: register_tenant first"
                )))
            })?;
            (key.clone(), Arc::clone(build))
        };
        self.check_breaker(&key)?;
        let entry = match self.cache.get(&key) {
            Some(entry) => entry,
            None => {
                let hodlr = Self::run_builder(&build, 1.0)?;
                let entry = CachedFactorization::build(hodlr).map_err(ServeError::Solver)?;
                self.cache.insert(key.clone(), entry)?
            }
        };
        let ticket = self.queue.submit(key, entry, rhs)?;
        self.submitted.fetch_add(1, Ordering::Relaxed);
        Ok(ticket)
    }

    /// Solve one right-hand side immediately, bypassing the queue (the
    /// uncoalesced baseline: one launch sequence per request).
    ///
    /// # Errors
    /// As [`SolveService::submit`], plus any solver error.
    pub fn solve_now(&self, tenant: &str, rhs: &[T]) -> Result<Vec<T>, ServeError> {
        let ticket = self.submit(tenant, rhs.to_vec())?;
        let report = self.drain();
        debug_assert!(report.requests >= 1);
        ticket
            .try_take()
            .expect("drain fulfills every queued ticket")
    }

    /// Run one drain cycle over everything queued, folding its report into
    /// the service counters.  Armed serve-layer faults
    /// ([`SolveService::arm_faults`]) fire first; every drained solution
    /// is then verified and, when needed, escalated through the
    /// degradation ladder.
    pub fn drain(&self) -> DrainReport {
        self.apply_armed_faults();
        let report = self.queue.drain_with(&mut |key, entry, rhss, initial| {
            self.recover_group(key, entry, rhss, initial)
        });
        self.drains.fetch_add(1, Ordering::Relaxed);
        self.completed
            .fetch_add(report.requests as u64, Ordering::Relaxed);
        self.failed
            .fetch_add(report.failed as u64, Ordering::Relaxed);
        self.groups
            .fetch_add(report.groups as u64, Ordering::Relaxed);
        self.launches.fetch_add(report.launches, Ordering::Relaxed);
        self.retried
            .fetch_add(report.retried as u64, Ordering::Relaxed);
        self.cancelled
            .fetch_add(report.cancelled as u64, Ordering::Relaxed);
        self.ladder_retries
            .fetch_add(report.ladder_retries as u64, Ordering::Relaxed);
        self.degraded
            .fetch_add(report.degraded as u64, Ordering::Relaxed);
        self.recovered
            .fetch_add(report.recovered as u64, Ordering::Relaxed);
        report
    }

    /// Arm a deterministic serve-layer fault plan (cache flushes, drain
    /// stalls), restarting the drain-ordinal cursor at 1.  Device-level
    /// fault plans are armed separately on each entry's
    /// [`Device`](hodlr_batch::Device).
    pub fn arm_faults(&self, plan: ServeFaultPlan) {
        *self.lock_faults() = Some(ServeFaultState {
            plan,
            drains_seen: 0,
            fired: Vec::new(),
        });
    }

    /// Disarm the fault plan, returning the faults that actually fired.
    pub fn disarm_faults(&self) -> Vec<ServeFaultEvent> {
        self.lock_faults()
            .take()
            .map(|s| s.fired)
            .unwrap_or_default()
    }

    /// The serve-layer faults fired so far (empty when disarmed).
    pub fn fault_events(&self) -> Vec<ServeFaultEvent> {
        self.lock_faults()
            .as_ref()
            .map(|s| s.fired.clone())
            .unwrap_or_default()
    }

    /// Requests currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Cache observability.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Service observability.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            drains: self.drains.load(Ordering::Relaxed),
            groups: self.groups.load(Ordering::Relaxed),
            launches: self.launches.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            ladder_retries: self.ladder_retries.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Direct access to the factorization cache (tests, warmup sweeps).
    pub fn cache(&self) -> &FactorCache<T> {
        &self.cache
    }

    // ------------------------------------------------------------------
    // Fault application, breaker, builder plumbing.
    // ------------------------------------------------------------------

    /// Fire any serve-layer faults scheduled for this drain ordinal.
    fn apply_armed_faults(&self) {
        let actions = {
            let mut guard = self.lock_faults();
            let Some(state) = guard.as_mut() else { return };
            state.drains_seen += 1;
            let drain = state.drains_seen;
            let actions = state.plan.actions_at(drain);
            for &action in &actions {
                state.fired.push(ServeFaultEvent { drain, action });
            }
            actions
        };
        // The lock is released: a stall must not block fault bookkeeping
        // (or concurrent arm/disarm calls).
        for action in actions {
            match action {
                ServeFaultAction::EvictAll => {
                    self.cache.clear();
                }
                ServeFaultAction::Stall { micros } => {
                    std::thread::sleep(Duration::from_micros(micros));
                }
            }
        }
    }

    /// Reject the submit when the tenant's breaker is open.
    fn check_breaker(&self, key: &CacheKey) -> Result<(), ServeError> {
        let now_drains = self.drains.load(Ordering::Relaxed);
        let mut breakers = self.lock_breakers();
        let Some(breaker) = breakers.get_mut(key) else {
            return Ok(());
        };
        if let Some(until_drain) = breaker.is_open(now_drains) {
            return Err(ServeError::CircuitOpen {
                failures: self.degrade.breaker_threshold,
                until_drain,
            });
        }
        Ok(())
    }

    /// Run a tenant builder with panics caught and attributed.
    fn run_builder(build: &TenantBuilder<T>, scale: f64) -> Result<Hodlr<T>, ServeError> {
        match std::panic::catch_unwind(AssertUnwindSafe(|| build(scale))) {
            Ok(result) => result.map_err(ServeError::Solver),
            Err(payload) => Err(ServeError::BuilderPanic {
                message: payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string()),
            }),
        }
    }

    /// The builder registered for `key` (any tenant with that key; the
    /// key is the factorization's identity, so they must agree).
    fn builder_for_key(&self, key: &CacheKey) -> Option<TenantBuilder<T>> {
        self.lock_tenants()
            .values()
            .find(|(k, _)| k == key)
            .map(|(_, build)| Arc::clone(build))
    }

    fn lock_tenants(
        &self,
    ) -> std::sync::MutexGuard<'_, HashMap<String, (CacheKey, TenantBuilder<T>)>> {
        self.tenants
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_breakers(&self) -> std::sync::MutexGuard<'_, HashMap<CacheKey, Breaker>> {
        self.breakers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_faults(&self) -> std::sync::MutexGuard<'_, Option<ServeFaultState>> {
        self.faults
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    // ------------------------------------------------------------------
    // Verification + degradation ladder (the drain hook).
    // ------------------------------------------------------------------

    /// The drain hook: verify the whole group's solutions with one
    /// blocked matvec, then escalate every faulted or unverified member
    /// through the degradation ladder; finally feed the tenant's circuit
    /// breaker.
    fn recover_group(
        &self,
        key: &CacheKey,
        entry: &Arc<CachedFactorization<T>>,
        rhss: &[Vec<T>],
        initial: Vec<Result<Vec<T>, ServeError>>,
    ) -> GroupOutcome<T> {
        let cfg = VerifyConfig::with_threshold(self.degrade.residual_threshold);
        let mut out = GroupOutcome::passthrough(Vec::with_capacity(initial.len()));

        // Tiered verification, cheapest first:
        //
        // 1. Finiteness scan (every drain, `O(n·k)`, no operator access):
        //    catches poisoned launches and NaN factors outright.
        // 2. Freivalds-style combined residual (every `verify_stride`-th
        //    drain, **one** matvec per group): fold every finite member
        //    into one weighted column `z = Σ cᵢ·xᵢ` with deterministic
        //    nonzero coefficients and check `A·z ≈ Σ cᵢ·bᵢ`; a single bad
        //    column perturbs `z`'s residual, so the aggregate check only
        //    passes when every member's does (up to exact cancellation,
        //    which the spread coefficients make a measure-zero event).
        // 3. Full blocked `A·X` attribution: paid only when tier 2 trips,
        //    to pin the suspect columns before the ladder runs.
        let mut verdicts: Vec<Option<SolveVerdict>> = vec![None; initial.len()];
        if self.degrade.verify {
            let mut finite_idx: Vec<usize> = Vec::with_capacity(initial.len());
            for (i, r) in initial.iter().enumerate() {
                if let Ok(x) = r {
                    if x.iter().all(|v| v.is_finite()) {
                        finite_idx.push(i);
                    } else {
                        verdicts[i] = Some(SolveVerdict::NonFinite);
                    }
                }
            }
            let stride = self.degrade.verify_stride.max(1);
            let deep = self.drains.load(Ordering::Relaxed).is_multiple_of(stride);
            if deep && !finite_idx.is_empty() {
                let n = entry.dim();
                // Index-keyed coefficients in [1, 2): bounded away from
                // zero (no member is dropped from the check) and spread by
                // the golden-ratio multiplier (no accidental cancellation
                // structure between neighbouring columns).
                let coeff = |c: usize| {
                    1.0 + (((c as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 57) as f64) / 128.0
                };
                let mut z = vec![T::zero(); n];
                let mut bz = vec![T::zero(); n];
                for (c, &i) in finite_idx.iter().enumerate() {
                    let w = T::from_f64(coeff(c));
                    let x = initial[i].as_ref().expect("filtered Ok");
                    for (zj, xj) in z.iter_mut().zip(x) {
                        *zj += w * *xj;
                    }
                    for (bj, rj) in bz.iter_mut().zip(&rhss[i]) {
                        *bj += w * *rj;
                    }
                }
                let az = entry.hodlr().matvec(&z);
                let combined = hodlr::scaled_residual(&az, &z, &bz, entry.norm1_est());
                if combined <= cfg.residual_threshold {
                    for &i in &finite_idx {
                        verdicts[i] = Some(SolveVerdict::Verified { residual: combined });
                    }
                } else {
                    let mut xs = DenseMatrix::<T>::zeros(n, finite_idx.len());
                    for (c, &i) in finite_idx.iter().enumerate() {
                        xs.col_mut(c)
                            .copy_from_slice(initial[i].as_ref().expect("filtered Ok"));
                    }
                    let ax = entry.hodlr().matmat(&xs);
                    for (c, &i) in finite_idx.iter().enumerate() {
                        let x = xs.col(c);
                        let residual =
                            hodlr::scaled_residual(ax.col(c), x, &rhss[i], entry.norm1_est());
                        verdicts[i] = Some(entry.verdict(x, residual, &cfg));
                    }
                }
            }
        }

        for (i, result) in initial.into_iter().enumerate() {
            let fine = match (&result, &verdicts[i]) {
                (Ok(_), Some(v)) => v.is_verified(),
                (Ok(_), None) => true, // verification off
                (Err(_), _) => false,
            };
            if fine {
                out.results.push(result);
            } else {
                let recovered =
                    self.recover_member(key, entry, &rhss[i], result, verdicts[i], &cfg, &mut out);
                out.results.push(recovered);
            }
        }

        // Circuit breaker: every unrecoverable member extends the
        // tenant's failure streak; every success clears it.
        let now_drains = self.drains.load(Ordering::Relaxed);
        let mut trips = 0u64;
        {
            let mut breakers = self.lock_breakers();
            let breaker = breakers.entry(key.clone()).or_default();
            for result in &out.results {
                match result {
                    Ok(_) => breaker.record_success(),
                    Err(
                        ServeError::Solver(_)
                        | ServeError::SuspectSolution { .. }
                        | ServeError::BuilderPanic { .. },
                    ) => {
                        if breaker.record_failure(
                            self.degrade.breaker_threshold,
                            now_drains,
                            self.degrade.breaker_cooldown_drains,
                        ) {
                            trips += 1;
                        }
                    }
                    Err(_) => {}
                }
            }
        }
        self.breaker_trips.fetch_add(trips, Ordering::Relaxed);
        out
    }

    /// One member's walk up the degradation ladder.  Each rung re-solves
    /// by a strictly more conservative path and re-verifies; the first
    /// verified solution wins.  Consumes at most
    /// [`DegradeConfig::max_retries`] rungs.
    #[allow(clippy::too_many_arguments)]
    fn recover_member(
        &self,
        key: &CacheKey,
        entry: &Arc<CachedFactorization<T>>,
        b: &[T],
        initial: Result<Vec<T>, ServeError>,
        initial_verdict: Option<SolveVerdict>,
        cfg: &VerifyConfig,
        out: &mut GroupOutcome<T>,
    ) -> Result<Vec<T>, ServeError> {
        let mut current = Arc::clone(entry);
        // Evidence trail: the best Suspect candidate seen (for the final
        // error and the refinement rung), whether non-finite output was
        // observed (quarantine trigger), and the last solver error.
        let mut best: Option<(Vec<T>, f64)> = None;
        let mut last_suspect: Option<(f64, f64)> = None;
        let mut nonfinite = false;
        let mut last_err: Option<ServeError> = None;
        match (&initial, initial_verdict) {
            (Ok(x), Some(SolveVerdict::Suspect { residual, cond_est })) => {
                best = Some((x.clone(), residual));
                last_suspect = Some((residual, cond_est));
            }
            (Ok(_), Some(SolveVerdict::NonFinite)) => nonfinite = true,
            (Err(e), _) => last_err = Some(e.clone()),
            _ => {}
        }

        #[derive(Copy, Clone, PartialEq)]
        enum Rung {
            Resolve,
            Rebuild,
            Tighten,
            Refine,
            Gmres,
        }
        const LADDER: [Rung; 5] = [
            Rung::Resolve,
            Rung::Rebuild,
            Rung::Tighten,
            Rung::Refine,
            Rung::Gmres,
        ];

        let mut tried = 0u32;
        for rung in LADDER {
            if tried >= self.degrade.max_retries {
                break;
            }
            // Each attempt is Some(solution-or-error); None means the rung
            // was inapplicable and consumed no retry budget.
            let attempt: Option<Result<Vec<T>, ServeError>> = match rung {
                Rung::Resolve => Some(self.metered_solve(&current, b, out)),
                Rung::Rebuild => {
                    match self.cache.get(key) {
                        // A neighbour (or a concurrent submit) already
                        // installed a replacement; use it.
                        Some(fresh) if !Arc::ptr_eq(&fresh, &current) => {
                            current = fresh;
                            Some(self.metered_solve(&current, b, out))
                        }
                        _ => match self.builder_for_key(key) {
                            None => None,
                            Some(build) => {
                                // Quarantine the suspect entry only when it
                                // produced non-finite or faulted output —
                                // a merely ill-conditioned operator would
                                // just churn rebuilds.
                                if (nonfinite || last_err.is_some())
                                    && self.cache.remove_entry(key, &current)
                                {
                                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                                }
                                Some(
                                    Self::run_builder(&build, 1.0)
                                        .and_then(|hodlr| {
                                            CachedFactorization::build(hodlr)
                                                .map_err(ServeError::Solver)
                                        })
                                        .and_then(|fresh| self.cache.insert(key.clone(), fresh))
                                        .inspect(|fresh| {
                                            current = Arc::clone(fresh);
                                        })
                                        .and_then(|_| self.metered_solve(&current, b, out)),
                                )
                            }
                        },
                    }
                }
                Rung::Tighten => match self.builder_for_key(key) {
                    None => None,
                    Some(build) => {
                        // Transient 100×-tighter build; never cached (its
                        // tolerance does not match the tenant's key).
                        let attempt = Self::run_builder(&build, 0.01)
                            .and_then(|hodlr| {
                                CachedFactorization::build(hodlr).map_err(ServeError::Solver)
                            })
                            .map(Arc::new)
                            .and_then(|tight| {
                                self.metered_solve(&tight, b, out).map(|x| (tight, x))
                            });
                        match attempt {
                            // Verify against the tighter operator — it is
                            // the better approximation of A.
                            Ok((tight, x)) => {
                                current = tight;
                                Some(Ok(x))
                            }
                            Err(ServeError::Solver(HodlrError::InvalidConfig { .. })) => {
                                // Unscaled tenant: rung inapplicable.
                                None
                            }
                            Err(e) => Some(Err(e)),
                        }
                    }
                },
                Rung::Refine => match &best {
                    None => None,
                    Some((x0, _)) => {
                        // One residual-correction pass on the best finite
                        // candidate: d = A⁻¹(b − A x₀), x = x₀ + d.
                        let ax = current.hodlr().matvec(x0);
                        let r: Vec<T> = b.iter().zip(&ax).map(|(&bi, &ai)| bi - ai).collect();
                        Some(
                            self.metered_solve(&current, &r, out)
                                .map(|d| x0.iter().zip(&d).map(|(&xi, &di)| xi + di).collect()),
                        )
                    }
                },
                Rung::Gmres => Some(self.metered_gmres(&current, b, out)),
            };
            let Some(attempt) = attempt else { continue };
            tried += 1;
            out.ladder_retries += 1;
            match attempt {
                Ok(x) => {
                    let verdict = if self.degrade.verify {
                        current.verify(&x, b, cfg)
                    } else {
                        SolveVerdict::Verified { residual: 0.0 }
                    };
                    match verdict {
                        SolveVerdict::Verified { .. } => {
                            out.recovered += 1;
                            if matches!(rung, Rung::Tighten | Rung::Refine | Rung::Gmres) {
                                out.degraded += 1;
                            }
                            return Ok(x);
                        }
                        SolveVerdict::Suspect { residual, cond_est } => {
                            last_suspect = Some((residual, cond_est));
                            if best.as_ref().is_none_or(|(_, r)| residual < *r) {
                                best = Some((x, residual));
                            }
                        }
                        SolveVerdict::NonFinite => nonfinite = true,
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }

        // Ladder exhausted: surface the strongest evidence we have.
        match (last_suspect, last_err) {
            (Some((residual, cond_est)), _) => {
                Err(ServeError::SuspectSolution { residual, cond_est })
            }
            (None, Some(err)) => Err(err),
            (None, None) => Err(ServeError::SuspectSolution {
                residual: f64::INFINITY,
                cond_est: f64::INFINITY,
            }),
        }
    }

    /// Solve `b` on `entry`, metering recovery launches into the group
    /// outcome.
    fn metered_solve(
        &self,
        entry: &Arc<CachedFactorization<T>>,
        b: &[T],
        out: &mut GroupOutcome<T>,
    ) -> Result<Vec<T>, ServeError> {
        let device = entry.hodlr().device();
        let (result, metered) = device.meter(|| entry.solver().solve(b));
        if entry.solver().backend() == Backend::Batched {
            out.launches += metered.kernel_launches;
            out.flops += metered.flops;
        }
        result.map_err(ServeError::Solver)
    }

    /// The ladder's last rung: GMRES on the HODLR operator with the
    /// factorization as right preconditioner.
    fn metered_gmres(
        &self,
        entry: &Arc<CachedFactorization<T>>,
        b: &[T],
        out: &mut GroupOutcome<T>,
    ) -> Result<Vec<T>, ServeError> {
        /// `M⁻¹` = one factorization solve; a failed apply poisons the
        /// vector so verification (not a panic) rejects the result.
        struct FactorPrecond<'a, T: SolveScalar>(&'a Factorization<T>);
        impl<T: SolveScalar> LinearOperator<T> for FactorPrecond<'_, T> {
            fn dim(&self) -> usize {
                Solve::dim(self.0)
            }
            fn apply(&self, x: &[T], y: &mut [T]) {
                y.copy_from_slice(x);
                if self.0.solve_in_place(y).is_err() {
                    y.iter_mut().for_each(|v| *v = T::from_f64(f64::NAN));
                }
            }
        }

        let gmres = Gmres::new()
            .restart(30)
            .max_iters(200)
            .tol(self.degrade.residual_threshold.clamp(1e-12, 1e-2));
        let device = entry.hodlr().device();
        let (result, metered) = device
            .meter(|| gmres.solve_preconditioned(entry.hodlr(), &FactorPrecond(entry.solver()), b));
        if entry.solver().backend() == Backend::Batched {
            out.launches += metered.kernel_launches;
            out.flops += metered.flops;
        }
        // Convergence is not trusted blindly: the caller re-verifies the
        // returned candidate like every other rung's output.
        result
            .map(|solution| solution.x)
            .map_err(ServeError::Solver)
    }
}

// A solve service is shared state by design; prove it at compile time.
const _: () = {
    const fn assert_send_sync<S: Send + Sync>() {}
    assert_send_sync::<SolveService<f64>>();
    assert_send_sync::<SolveService<hodlr_la::Complex64>>();
};
