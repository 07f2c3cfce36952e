//! Seeded, deterministic fault injection for the virtual device.
//!
//! A [`FaultPlan`] is a schedule addressed by *launch ordinal*: "fail the
//! k-th launch", "poison the k-th launch's output with NaN", "delay the
//! k-th launch".  Ordinals count from 1 starting at the moment the plan is
//! armed on a [`Device`](crate::Device), so a plan replays bitwise for a
//! fixed schedule regardless of wall-clock timing.  Plans can be written
//! out rule by rule or derived from a seed with [`FaultPlan::seeded`].
//!
//! Every launch consults the device once, in the same call that meters it
//! ([`Device::launch`](crate::Device::launch)):
//!
//! * [`FaultAction::FailLaunch`] makes the factor launch return a typed
//!   [`LaunchFault`] error before it touches its blocks; every other launch
//!   (gemm, solve, gather, the coupling identities) has no error channel —
//!   cuBLAS reports asynchronous launch failures only through garbage
//!   output — so it degrades the failure to NaN poisoning, which the
//!   verification layer then catches as a `NonFinite` verdict.
//! * [`FaultAction::PoisonNan`] overwrites the launch's output windows
//!   with NaN after the kernel body runs.
//! * [`FaultAction::Delay`] sleeps the issuing thread; results are
//!   unaffected, only timing (used to widen race windows in tests).
//!
//! With no plan armed the only overhead per launch is one relaxed atomic
//! load, so production paths pay nothing.

use hodlr_la::{HodlrError, Scalar};
use std::collections::BTreeMap;
use std::fmt;

/// What to do to a scheduled launch.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Make the launch fail with a typed error (degrades to NaN poisoning
    /// on kernels without an error channel).
    FailLaunch,
    /// Overwrite the launch's output with NaN.
    PoisonNan,
    /// Sleep the issuing thread for this many microseconds before the
    /// kernel body runs.
    Delay {
        /// Sleep duration in microseconds.
        micros: u64,
    },
}

/// A deterministic, launch-ordinal-addressed fault schedule.
///
/// Ordinals are 1-based and count launches *after the plan is armed*.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    rules: BTreeMap<u64, FaultAction>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule the `k`-th launch (1-based) to fail.
    #[must_use]
    pub fn fail_launch(mut self, k: u64) -> Self {
        self.rules.insert(k, FaultAction::FailLaunch);
        self
    }

    /// Schedule the `k`-th launch's output to be poisoned with NaN.
    #[must_use]
    pub fn poison_launch(mut self, k: u64) -> Self {
        self.rules.insert(k, FaultAction::PoisonNan);
        self
    }

    /// Schedule the `k`-th launch to be delayed by `micros` microseconds.
    #[must_use]
    pub fn delay_launch(mut self, k: u64, micros: u64) -> Self {
        self.rules.insert(k, FaultAction::Delay { micros });
        self
    }

    /// Poison every launch with ordinal in `[first, last]` (inclusive).
    /// Used to simulate a persistently broken device: every solve against
    /// it yields non-finite output until the factorization is rebuilt on a
    /// fresh device.
    #[must_use]
    pub fn poison_range(mut self, first: u64, last: u64) -> Self {
        for k in first..=last {
            self.rules.insert(k, FaultAction::PoisonNan);
        }
        self
    }

    /// Derive `faults` rules pseudo-randomly over launch ordinals
    /// `1..=horizon` from `seed`.  The derivation is a fixed xorshift64*
    /// stream, so the same `(seed, horizon, faults)` triple always yields
    /// the same plan — this is what makes chaos runs replayable bitwise.
    pub fn seeded(seed: u64, horizon: u64, faults: usize) -> Self {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut plan = FaultPlan::new();
        if horizon == 0 {
            return plan;
        }
        while plan.rules.len() < faults.min(horizon as usize) {
            let k = next() % horizon + 1;
            let action = match next() % 3 {
                0 => FaultAction::FailLaunch,
                1 => FaultAction::PoisonNan,
                _ => FaultAction::Delay {
                    micros: next() % 500,
                },
            };
            plan.rules.insert(k, action);
        }
        plan
    }

    /// Whether the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Number of scheduled rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// The action scheduled for launch ordinal `k`, if any.
    pub fn rule(&self, k: u64) -> Option<FaultAction> {
        self.rules.get(&k).copied()
    }

    /// Iterate over `(ordinal, action)` rules in ordinal order.
    pub fn rules(&self) -> impl Iterator<Item = (u64, FaultAction)> + '_ {
        self.rules.iter().map(|(&k, &a)| (k, a))
    }
}

/// A launch that was made to fail by an armed [`FaultPlan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaunchFault {
    /// Kernel whose launch failed.
    pub kernel: &'static str,
    /// Launch ordinal (1-based, counted from arming) that failed.
    pub launch: u64,
}

impl fmt::Display for LaunchFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected fault: {} launch #{} failed",
            self.kernel, self.launch
        )
    }
}

impl std::error::Error for LaunchFault {}

impl LaunchFault {
    /// Promote to a [`HodlrError`] naming what the launch was doing.
    pub fn into_hodlr(self, context: impl Into<String>) -> HodlrError {
        HodlrError::DeviceFault {
            context: context.into(),
            kernel: self.kernel.to_string(),
            launch: self.launch,
        }
    }
}

/// One fault that actually fired, for observability and test assertions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Kernel the fault hit.
    pub kernel: &'static str,
    /// Launch ordinal it hit.
    pub launch: u64,
    /// What was injected.
    pub action: FaultAction,
}

/// Overwrite `count` elements of `data` starting at `offset` with NaN.
/// Saturates at the buffer end (windows are validated by the kernels
/// before this runs).
pub(crate) fn poison_span<T: Scalar>(data: &mut [T], offset: usize, count: usize) {
    let end = (offset + count).min(data.len());
    let nan = T::from_f64(f64::NAN);
    for v in &mut data[offset..end] {
        *v = nan;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky::{potrf, spd};
    use crate::factor::gather_bands_batched;
    use crate::lu::{getrf, getrs, packed_blocks, packed_solves};
    use crate::{
        gemm_batched_aliased, gemm_batched_varied, Device, DeviceBuffer, FactorError, GemmDesc,
        Stream,
    };
    use hodlr_la::random::{random_diag_dominant, random_matrix};
    use hodlr_la::{DenseMatrix, Op, SymmetricPolicy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn explicit_schedule_round_trips() {
        let plan = FaultPlan::new()
            .fail_launch(3)
            .poison_launch(5)
            .delay_launch(7, 250);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.rule(3), Some(FaultAction::FailLaunch));
        assert_eq!(plan.rule(5), Some(FaultAction::PoisonNan));
        assert_eq!(plan.rule(7), Some(FaultAction::Delay { micros: 250 }));
        assert_eq!(plan.rule(4), None);
        let ordinals: Vec<u64> = plan.rules().map(|(k, _)| k).collect();
        assert_eq!(ordinals, vec![3, 5, 7]);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(42, 100, 8);
        let b = FaultPlan::seeded(42, 100, 8);
        let c = FaultPlan::seeded(43, 100, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 8);
        assert!(a.rules().all(|(k, _)| (1..=100).contains(&k)));
    }

    #[test]
    fn seeded_plan_saturates_at_horizon() {
        let plan = FaultPlan::seeded(7, 3, 10);
        assert_eq!(plan.len(), 3);
        assert_eq!(FaultPlan::seeded(7, 0, 10).len(), 0);
    }

    #[test]
    fn poison_range_covers_inclusive_window() {
        let plan = FaultPlan::new().poison_range(2, 4);
        assert_eq!(plan.len(), 3);
        assert!(plan.rules().all(|(_, a)| a == FaultAction::PoisonNan));
    }

    #[test]
    fn launch_fault_promotes_to_typed_error() {
        let fault = LaunchFault {
            kernel: "getrf_batched",
            launch: 9,
        };
        assert!(fault.to_string().contains("launch #9"));
        let err = fault.into_hodlr("leaf diagonal block");
        match err {
            HodlrError::DeviceFault {
                context,
                kernel,
                launch,
            } => {
                assert_eq!(context, "leaf diagonal block");
                assert_eq!(kernel, "getrf_batched");
                assert_eq!(launch, 9);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn poison_span_writes_nan_and_saturates() {
        let mut data = vec![1.0f64; 4];
        poison_span(&mut data, 2, 10);
        assert!(data[0].is_finite() && data[1].is_finite());
        assert!(data[2].is_nan() && data[3].is_nan());
    }

    /// What one launch left behind.
    struct Ran {
        /// The typed fault a factor launch returned.
        fault: Option<LaunchFault>,
        /// The launch's output windows (or gathered bands) before it ran
        /// and after.
        before: Vec<f64>,
        after: Vec<f64>,
        /// Device-to-host bytes the launch metered.
        d2h: u64,
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The typed fault of a factor launch whose blocks all factor.
    fn factor_fault<M, E: fmt::Debug>(r: Result<M, FactorError<E>>) -> Option<LaunchFault> {
        match r {
            Ok(_) => None,
            Err(FactorError::Fault(fault)) => Some(fault),
            Err(e) => panic!("{e:?}"),
        }
    }

    /// Every launch kind under every fault action, armed at ordinal 1.
    /// `FailLaunch` makes a factor launch return the typed fault and leave
    /// its blocks untouched; every other launch has no error channel, so it
    /// writes NaN over its windows, as `PoisonNan` does to every launch
    /// (the gather returns NaN bands and still meters its transfer).
    /// `Delay` changes no bit.  Exactly one event fires, with the launch's
    /// label.
    #[test]
    fn every_launch_kind_takes_every_fault_action() {
        let (n, nrhs) = (6, 3);
        let mut rng = StdRng::seed_from_u64(50);
        let host = |mats: [DenseMatrix<f64>; 2]| -> Vec<f64> {
            mats.iter().flat_map(|m| m.data().to_vec()).collect()
        };
        let general = host([0; 2].map(|_| random_diag_dominant(&mut rng, n)));
        let hermitian = host([0; 2].map(|_| spd(&mut rng, n)));
        let rhs = host([0; 2].map(|_| random_matrix(&mut rng, n, nrhs)));
        let (blocks, solves) = (packed_blocks(n, 2), packed_solves(n, nrhs, 2));
        let scratch = Device::new();
        let mut factors = DeviceBuffer::from_host(&scratch, &general);
        let pivots = getrf(&scratch, &blocks, &mut factors).unwrap();

        // Two products `C_i <- A_i B_i`: `A_i` the blocks, `B_i` and
        // `C_i` the right-hand-side blocks.  The aliased form keeps `A`
        // in the buffer above `C`.
        let products: Vec<GemmDesc<f64>> = (0..2)
            .map(|i| GemmDesc {
                m: n,
                n: nrhs,
                k: n,
                alpha: 1.0,
                beta: 0.0,
                op_a: Op::None,
                op_b: Op::None,
                a_offset: rhs.len() + i * n * n,
                lda: n,
                b_offset: i * n * nrhs,
                ldb: n,
                c_offset: i * n * nrhs,
                ldc: n,
            })
            .collect();
        let stacked = [rhs.as_slice(), general.as_slice()].concat();

        type Launch<'a> = Box<dyn Fn(&Device) -> Ran + 'a>;
        let launches: [(&str, Launch); 6] = [
            (
                "gemm_batched",
                Box::new(|dev| {
                    let (a, b) = (
                        DeviceBuffer::from_host(dev, &stacked),
                        DeviceBuffer::from_host(dev, &rhs),
                    );
                    let mut c = DeviceBuffer::from_host(dev, &rhs);
                    gemm_batched_varied(dev, Stream::default(), &products, &a, &b, &mut c);
                    let after = c.data().to_vec();
                    Ran {
                        fault: None,
                        before: rhs.clone(),
                        after,
                        d2h: 0,
                    }
                }),
            ),
            (
                "gemm_batched_aliased",
                Box::new(|dev| {
                    let mut ac = DeviceBuffer::from_host(dev, &stacked);
                    let b = DeviceBuffer::from_host(dev, &rhs);
                    gemm_batched_aliased(dev, Stream::default(), &products, &mut ac, &b);
                    let after = ac.data()[..rhs.len()].to_vec();
                    assert_eq!(
                        bits(&ac.data()[rhs.len()..]),
                        bits(&general),
                        "A is read only"
                    );
                    Ran {
                        fault: None,
                        before: rhs.clone(),
                        after,
                        d2h: 0,
                    }
                }),
            ),
            (
                "getrf_batched",
                Box::new(|dev| {
                    let mut a = DeviceBuffer::from_host(dev, &general);
                    let fault = factor_fault(getrf(dev, &blocks, &mut a));
                    let after = a.data().to_vec();
                    Ran {
                        fault,
                        before: general.clone(),
                        after,
                        d2h: 0,
                    }
                }),
            ),
            (
                "potrf_batched",
                Box::new(|dev| {
                    let mut a = DeviceBuffer::from_host(dev, &hermitian);
                    let strict = SymmetricPolicy::Strict;
                    let fault = factor_fault(potrf(dev, &blocks, strict, &mut a));
                    let after = a.data().to_vec();
                    Ran {
                        fault,
                        before: hermitian.clone(),
                        after,
                        d2h: 0,
                    }
                }),
            ),
            (
                "getrs_batched",
                Box::new(|dev| {
                    let a = DeviceBuffer::from_host(dev, factors.data());
                    let mut b = DeviceBuffer::from_host(dev, &rhs);
                    getrs(dev, &solves, &a, &pivots, &mut b);
                    let after = b.data().to_vec();
                    Ran {
                        fault: None,
                        before: rhs.clone(),
                        after,
                        d2h: 0,
                    }
                }),
            ),
            (
                "extract_tridiagonals_batched",
                Box::new(|dev| {
                    let a = DeviceBuffer::from_host(dev, factors.data());
                    let label = "extract_tridiagonals_batched";
                    let (bands, metered) = dev.meter(|| {
                        gather_bands_batched(dev, Stream::default(), label, &blocks, 2, &a)
                    });
                    let after = bands.concat().concat();
                    Ran {
                        fault: None,
                        before: Vec::new(),
                        after,
                        d2h: metered.d2h_bytes,
                    }
                }),
            ),
        ];

        let actions = [
            (FaultPlan::new().fail_launch(1), FaultAction::FailLaunch),
            (FaultPlan::new().poison_launch(1), FaultAction::PoisonNan),
            (
                FaultPlan::new().delay_launch(1, 10),
                FaultAction::Delay { micros: 10 },
            ),
        ];
        for (label, launch) in &launches {
            let clean = launch(&Device::new());
            assert!(clean.fault.is_none(), "{label}");
            assert!(clean.after.iter().all(|v| v.is_finite()), "{label}");
            for (plan, action) in &actions {
                let what = format!("{label} under {action:?}");
                let device = Device::new();
                device.arm_faults(plan.clone());
                let ran = launch(&device);
                let event = FaultEvent {
                    kernel: label,
                    launch: 1,
                    action: *action,
                };
                assert_eq!(device.disarm_faults(), [event], "{what}");
                assert_eq!(ran.d2h, clean.d2h, "{what}");
                let factor = label.ends_with("trf_batched");
                match action {
                    FaultAction::FailLaunch if factor => {
                        let fault = LaunchFault {
                            kernel: label,
                            launch: 1,
                        };
                        assert_eq!(ran.fault, Some(fault), "{what}");
                        assert_eq!(bits(&ran.after), bits(&ran.before), "{what}");
                    }
                    FaultAction::Delay { .. } => {
                        assert!(ran.fault.is_none(), "{what}");
                        assert_eq!(bits(&ran.after), bits(&clean.after), "{what}");
                    }
                    _ => {
                        assert!(ran.fault.is_none(), "{what}");
                        assert!(!ran.after.is_empty(), "{what}");
                        assert!(ran.after.iter().all(|v| v.is_nan()), "{what}");
                    }
                }
            }
        }
    }
}
