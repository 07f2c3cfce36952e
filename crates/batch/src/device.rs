//! The virtual device: counters, launch metering, and the fault-injection
//! arming point.

use crate::fault::{FaultAction, FaultEvent, FaultPlan, LaunchFault};
use crate::stream::Stream;
use hodlr_la::Scalar;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Direction of an explicit host/device transfer.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TransferDirection {
    /// Host to device (`cudaMemcpyHostToDevice`).
    HostToDevice,
    /// Device to host (`cudaMemcpyDeviceToHost`).
    DeviceToHost,
}

/// A snapshot of the device counters, cheap to copy and subtract.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Number of batched-kernel launches issued so far.
    pub kernel_launches: u64,
    /// Number of individual problems executed across all batches.
    pub batch_entries: u64,
    /// Floating-point operations executed by the kernels.
    pub flops: u64,
    /// Bytes copied host → device.
    pub h2d_bytes: u64,
    /// Bytes copied device → host.
    pub d2h_bytes: u64,
    /// Bytes currently allocated in device buffers.
    pub allocated_bytes: u64,
    /// High-water mark of allocated device memory.
    pub peak_allocated_bytes: u64,
}

impl CounterSnapshot {
    /// Counter-wise difference `self - earlier`, used to meter a single
    /// phase (e.g. factorization only).  Allocation gauges are carried over
    /// from `self`.
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            kernel_launches: self.kernel_launches - earlier.kernel_launches,
            batch_entries: self.batch_entries - earlier.batch_entries,
            flops: self.flops - earlier.flops,
            h2d_bytes: self.h2d_bytes - earlier.h2d_bytes,
            d2h_bytes: self.d2h_bytes - earlier.d2h_bytes,
            allocated_bytes: self.allocated_bytes,
            peak_allocated_bytes: self.peak_allocated_bytes,
        }
    }

    /// GFlop/s for this snapshot given an elapsed wall-clock time.
    pub fn gflops(&self, elapsed_secs: f64) -> f64 {
        if elapsed_secs <= 0.0 {
            return 0.0;
        }
        self.flops as f64 / elapsed_secs / 1.0e9
    }
}

/// Real-flop multiplier of the device's metering: a complex multiply-add
/// costs four real ones.
pub fn scalar_flop_factor<T: Scalar>() -> u64 {
    if T::IS_COMPLEX {
        4
    } else {
        1
    }
}

/// The virtual batched-BLAS device.
///
/// A `Device` is a cheap handle: its clones share one set of counters, one
/// launch log and one armed fault plan, so a solver or buffer that keeps a
/// clone meters into the same counters as the handle it was cloned from.
/// The counters are atomics so that kernels running on rayon worker
/// threads can report their work without locking; the settings (parallel
/// flag, launch-log flag) are per handle.
#[derive(Clone, Debug)]
pub struct Device {
    shared: Arc<Shared>,
    /// Whether batched kernels may run batch entries in parallel.
    parallel: bool,
    log_launches: bool,
}

/// The state every clone of a [`Device`] shares.
#[derive(Debug)]
struct Shared {
    kernel_launches: AtomicU64,
    batch_entries: AtomicU64,
    flops: AtomicU64,
    h2d_bytes: AtomicU64,
    d2h_bytes: AtomicU64,
    allocated_bytes: AtomicU64,
    peak_allocated_bytes: AtomicU64,
    /// Launch log guarded by a mutex (used by tests and the launch report).
    launch_log: Mutex<Vec<LaunchRecord>>,
    /// Fast-path flag: `true` only while a fault plan is armed, so the
    /// per-launch fault consultation costs one relaxed load when disarmed.
    faults_armed: AtomicBool,
    /// The armed fault plan plus its launch-ordinal cursor and fired log.
    faults: Mutex<Option<FaultState>>,
}

/// Armed fault-plan state: the schedule, how many launches have consulted
/// it, and which rules actually fired.
#[derive(Debug)]
struct FaultState {
    plan: FaultPlan,
    launches_seen: u64,
    fired: Vec<FaultEvent>,
}

/// One record in the (optional) launch log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaunchRecord {
    /// Kernel name, e.g. `"gemm_batched"`.
    pub kernel: &'static str,
    /// Number of problems in the batch.
    pub batch: usize,
    /// Stream label the launch was issued on (0 = default stream).
    pub stream: usize,
}

impl Default for Device {
    fn default() -> Self {
        Self::new()
    }
}

impl Device {
    /// A device whose batched kernels run their batch entries in parallel.
    pub fn new() -> Self {
        Device {
            shared: Arc::new(Shared {
                kernel_launches: AtomicU64::new(0),
                batch_entries: AtomicU64::new(0),
                flops: AtomicU64::new(0),
                h2d_bytes: AtomicU64::new(0),
                d2h_bytes: AtomicU64::new(0),
                allocated_bytes: AtomicU64::new(0),
                peak_allocated_bytes: AtomicU64::new(0),
                launch_log: Mutex::new(Vec::new()),
                faults_armed: AtomicBool::new(false),
                faults: Mutex::new(None),
            }),
            parallel: true,
            log_launches: false,
        }
    }

    /// A device whose batched kernels execute batch entries sequentially.
    /// Used by tests to compare against the parallel path and by the
    /// "single-core" ablation benchmarks.
    pub fn sequential() -> Self {
        Device {
            parallel: false,
            ..Device::new()
        }
    }

    /// Enable the launch log (records every kernel launch).  Off by default
    /// because the log grows with the number of launches.
    pub fn with_launch_log(mut self) -> Self {
        self.log_launches = true;
        self
    }

    /// Whether batched kernels run their batch entries in parallel.
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }

    /// Issue one launch of `kernel` on `stream` executing `batch` problems
    /// and `flops` floating-point operations: record it in the counters
    /// (and the launch log), then consult the armed fault plan for it.
    /// Every launch makes exactly this one call, so the plan's ordinals
    /// count the launches the log shows.
    ///
    /// A scheduled `Delay` sleeps here, before the kernel body runs.
    /// Returns `Ok(true)` when the launch's output must be poisoned with
    /// NaN after the body runs, and the [`LaunchFault`] when the plan fails
    /// the launch.  A launch without an error channel degrades that failure
    /// to poisoning (`unwrap_or(true)`), as a failed asynchronous launch on
    /// a real device shows only as garbage output.  With no plan armed the
    /// consultation costs one relaxed atomic load.
    pub fn launch(
        &self,
        kernel: &'static str,
        stream: Stream,
        batch: usize,
        flops: u64,
    ) -> Result<bool, LaunchFault> {
        let s = &*self.shared;
        s.kernel_launches.fetch_add(1, Ordering::Relaxed);
        s.batch_entries.fetch_add(batch as u64, Ordering::Relaxed);
        s.flops.fetch_add(flops, Ordering::Relaxed);
        if self.log_launches {
            s.launch_log.lock().push(LaunchRecord {
                kernel,
                batch,
                stream: stream.id(),
            });
        }
        match self.take_fault(kernel) {
            Some((FaultAction::FailLaunch, launch)) => Err(LaunchFault { kernel, launch }),
            Some((FaultAction::PoisonNan, _)) => Ok(true),
            Some((FaultAction::Delay { micros }, _)) => {
                std::thread::sleep(std::time::Duration::from_micros(micros));
                Ok(false)
            }
            None => Ok(false),
        }
    }

    /// Record an explicit host/device transfer of `bytes` bytes.
    pub fn record_transfer(&self, direction: TransferDirection, bytes: u64) {
        match direction {
            TransferDirection::HostToDevice => {
                self.shared.h2d_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            TransferDirection::DeviceToHost => {
                self.shared.d2h_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
        }
    }

    /// Record a device allocation of `bytes` bytes.
    pub(crate) fn record_alloc(&self, bytes: u64) {
        let s = &*self.shared;
        let now = s.allocated_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        s.peak_allocated_bytes.fetch_max(now, Ordering::Relaxed);
    }

    /// Record the release of a device allocation of `bytes` bytes.
    pub(crate) fn record_free(&self, bytes: u64) {
        self.shared
            .allocated_bytes
            .fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Current counter values.
    pub fn counters(&self) -> CounterSnapshot {
        let s = &*self.shared;
        CounterSnapshot {
            kernel_launches: s.kernel_launches.load(Ordering::Relaxed),
            batch_entries: s.batch_entries.load(Ordering::Relaxed),
            flops: s.flops.load(Ordering::Relaxed),
            h2d_bytes: s.h2d_bytes.load(Ordering::Relaxed),
            d2h_bytes: s.d2h_bytes.load(Ordering::Relaxed),
            allocated_bytes: s.allocated_bytes.load(Ordering::Relaxed),
            peak_allocated_bytes: s.peak_allocated_bytes.load(Ordering::Relaxed),
        }
    }

    /// Meter a window of device work: snapshot the counters, run `f`, and
    /// return its result next to the counter deltas accumulated while it
    /// ran.
    ///
    /// The deltas are exact only when `f` is the sole issuer of launches on
    /// this device for the duration of the call — the counters are global
    /// atomics, so concurrent traffic on the same device bleeds into the
    /// window.  `hodlr-serve` meets this by draining coalesced batches
    /// under a per-cache-entry lock; each `Hodlr` has a device of its own
    /// (shared only with its factorizations), so traffic against *other*
    /// handles never pollutes the window.
    pub fn meter<R>(&self, f: impl FnOnce() -> R) -> (R, CounterSnapshot) {
        let before = self.counters();
        let result = f();
        (result, self.counters().since(&before))
    }

    /// Reset all counters (allocation gauges included) to zero.
    pub fn reset_counters(&self) {
        let s = &*self.shared;
        s.kernel_launches.store(0, Ordering::Relaxed);
        s.batch_entries.store(0, Ordering::Relaxed);
        s.flops.store(0, Ordering::Relaxed);
        s.h2d_bytes.store(0, Ordering::Relaxed);
        s.d2h_bytes.store(0, Ordering::Relaxed);
        s.peak_allocated_bytes
            .store(s.allocated_bytes.load(Ordering::Relaxed), Ordering::Relaxed);
        s.launch_log.lock().clear();
    }

    /// A copy of the launch log (empty unless [`Device::with_launch_log`]
    /// was used).
    pub fn launch_log(&self) -> Vec<LaunchRecord> {
        self.shared.launch_log.lock().clone()
    }

    /// Arm `plan` on this device.  Launch ordinals restart at 1: the next
    /// launch issued is ordinal 1 of the plan.  Arming replaces any plan
    /// already armed.
    pub fn arm_faults(&self, plan: FaultPlan) {
        let mut guard = self.shared.faults.lock();
        *guard = Some(FaultState {
            plan,
            launches_seen: 0,
            fired: Vec::new(),
        });
        self.shared.faults_armed.store(true, Ordering::Release);
    }

    /// Disarm fault injection, returning the log of faults that fired
    /// while the plan was armed (empty if none was armed).
    pub fn disarm_faults(&self) -> Vec<FaultEvent> {
        let mut guard = self.shared.faults.lock();
        self.shared.faults_armed.store(false, Ordering::Release);
        guard.take().map(|s| s.fired).unwrap_or_default()
    }

    /// The faults that have fired so far under the armed plan.
    pub fn fault_events(&self) -> Vec<FaultEvent> {
        self.shared
            .faults
            .lock()
            .as_ref()
            .map(|s| s.fired.clone())
            .unwrap_or_default()
    }

    /// Advance the armed plan's ordinal cursor past the launch being
    /// issued, and return the action scheduled for it (with the ordinal)
    /// after logging it as fired.
    fn take_fault(&self, kernel: &'static str) -> Option<(FaultAction, u64)> {
        if !self.shared.faults_armed.load(Ordering::Acquire) {
            return None;
        }
        let mut guard = self.shared.faults.lock();
        let state = guard.as_mut()?;
        state.launches_seen += 1;
        let ordinal = state.launches_seen;
        let action = state.plan.rule(ordinal)?;
        state.fired.push(FaultEvent {
            kernel,
            launch: ordinal,
            action,
        });
        Some((action, ordinal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clean launch: nothing armed fires on it.
    fn launch(dev: &Device, kernel: &'static str, batch: usize, flops: u64, stream: usize) {
        let launched = dev.launch(kernel, Stream::with_id(stream), batch, flops);
        assert_eq!(launched, Ok(false));
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let dev = Device::new();
        launch(&dev, "gemm_batched", 8, 1000, 0);
        launch(&dev, "getrf_batched", 4, 500, 1);
        dev.record_transfer(TransferDirection::HostToDevice, 64);
        dev.record_transfer(TransferDirection::DeviceToHost, 16);
        let c = dev.counters();
        assert_eq!(c.kernel_launches, 2);
        assert_eq!(c.batch_entries, 12);
        assert_eq!(c.flops, 1500);
        assert_eq!(c.h2d_bytes, 64);
        assert_eq!(c.d2h_bytes, 16);
        dev.reset_counters();
        assert_eq!(dev.counters().kernel_launches, 0);
        assert_eq!(dev.counters().flops, 0);
    }

    #[test]
    fn clones_share_counters_log_and_faults() {
        let dev = Device::new().with_launch_log();
        let clone = dev.clone();
        launch(&clone, "a", 2, 100, 0);
        assert_eq!(dev.counters().kernel_launches, 1);
        assert_eq!(dev.launch_log().len(), 1);
        dev.arm_faults(FaultPlan::new().fail_launch(1));
        assert_eq!(
            clone.launch("b", Stream::default(), 1, 0),
            Err(LaunchFault {
                kernel: "b",
                launch: 1
            })
        );
        assert_eq!(dev.disarm_faults().len(), 1);
        drop(dev);
        launch(&clone, "c", 1, 0, 0);
        assert_eq!(clone.counters().kernel_launches, 3);
    }

    #[test]
    fn snapshot_difference() {
        let dev = Device::new();
        launch(&dev, "a", 1, 100, 0);
        let before = dev.counters();
        launch(&dev, "b", 2, 250, 0);
        let delta = dev.counters().since(&before);
        assert_eq!(delta.kernel_launches, 1);
        assert_eq!(delta.batch_entries, 2);
        assert_eq!(delta.flops, 250);
    }

    #[test]
    fn meter_isolates_a_window() {
        let dev = Device::new();
        launch(&dev, "warmup", 1, 100, 0);
        let (sum, delta) = dev.meter(|| {
            launch(&dev, "a", 2, 300, 0);
            launch(&dev, "b", 3, 400, 0);
            2 + 3
        });
        assert_eq!(sum, 5);
        assert_eq!(delta.kernel_launches, 2);
        assert_eq!(delta.batch_entries, 5);
        assert_eq!(delta.flops, 700);
        // The warmup launch stays outside the window.
        assert_eq!(dev.counters().kernel_launches, 3);
    }

    #[test]
    fn launch_log_records_kernels() {
        let dev = Device::new().with_launch_log();
        launch(&dev, "gemm_batched", 3, 0, 7);
        let log = dev.launch_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kernel, "gemm_batched");
        assert_eq!(log[0].batch, 3);
        assert_eq!(log[0].stream, 7);
    }

    #[test]
    fn gflops_computation() {
        let snap = CounterSnapshot {
            flops: 2_000_000_000,
            ..Default::default()
        };
        assert!((snap.gflops(1.0) - 2.0).abs() < 1e-12);
        assert_eq!(snap.gflops(0.0), 0.0);
    }

    #[test]
    fn fault_consultation_counts_ordinals_from_arming() {
        let dev = Device::new();
        launch(&dev, "gemm_batched", 1, 0, 0);
        assert!(dev.fault_events().is_empty());

        dev.arm_faults(
            FaultPlan::new()
                .fail_launch(2)
                .delay_launch(3, 10)
                .poison_launch(4),
        );
        let stream = Stream::default();
        launch(&dev, "a", 1, 0, 0); // ordinal 1
        assert_eq!(
            dev.launch("b", stream, 1, 0),
            Err(LaunchFault {
                kernel: "b",
                launch: 2
            })
        );
        assert_eq!(dev.launch("c", stream, 1, 0), Ok(false)); // delayed
        assert_eq!(dev.launch("d", stream, 1, 0), Ok(true));
        launch(&dev, "e", 1, 0, 0); // ordinal 5, no rule

        let events = dev.fault_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].kernel, "b");
        assert_eq!(events[0].launch, 2);
        assert_eq!(events[1].action, FaultAction::Delay { micros: 10 });

        let fired = dev.disarm_faults();
        assert_eq!(fired.len(), 3);
        assert!(dev.fault_events().is_empty());
        launch(&dev, "f", 1, 0, 0);
    }

    #[test]
    fn rearming_restarts_the_ordinal_cursor() {
        let dev = Device::new();
        dev.arm_faults(FaultPlan::new().poison_launch(1));
        assert_eq!(dev.launch("x", Stream::default(), 1, 0), Ok(true));
        dev.arm_faults(FaultPlan::new().poison_launch(1));
        assert_eq!(dev.launch("y", Stream::default(), 1, 0), Ok(true));
    }

    #[test]
    fn allocation_gauges_track_peak() {
        let dev = Device::new();
        dev.record_alloc(100);
        dev.record_alloc(50);
        dev.record_free(100);
        dev.record_alloc(10);
        let c = dev.counters();
        assert_eq!(c.allocated_bytes, 60);
        assert_eq!(c.peak_allocated_bytes, 150);
    }
}
