//! One shared `Factorization`, many solver threads.
//!
//! The façade guarantees (and `crates/serve` relies on) a concurrency
//! contract: a completed [`Factorization`] is `Send + Sync`, every
//! [`Solve`] entry point takes `&self`, and a solve's result is a pure
//! function of its right-hand side — so N threads hammering one shared
//! factorization must produce answers **bitwise identical** to the serial
//! single-thread run, and the owning device's launch/flop counters must
//! total exactly N times one solve's bill (the counters are atomics fed by
//! per-entry flop counts that are pure functions of block shapes).

use hodlr::prelude::*;
use std::sync::Barrier;
use std::thread;

const N: usize = 384;
const THREADS: usize = 8;

// Compile-time half of the contract: a factorization borrows nothing, and
// the shared-state types are Send + Sync by construction, not by accident.
const _: () = {
    const fn assert_owned<S: Send + Sync + 'static>() {}
    const fn assert_send_sync<S: Send + Sync>() {}
    assert_owned::<Factorization<f64>>();
    assert_owned::<Factorization<Complex64>>();
    assert_send_sync::<Hodlr<f64>>();
    assert_send_sync::<Device>();
};

fn build(backend: Backend) -> Hodlr<f64> {
    let source = ClosureSource::new(N, N, |i, j| {
        let d = (i as f64 - j as f64).abs() / N as f64;
        (-4.0 * d).exp() + if i == j { 3.0 } else { 0.0 }
    });
    Hodlr::builder()
        .source(&source)
        .leaf_size(48)
        .tolerance(1e-10)
        .backend(backend)
        .build()
        .unwrap()
}

fn rhs(seed: usize) -> Vec<f64> {
    (0..N)
        .map(|i| ((i * 3 + seed * 17) as f64 * 0.02).cos())
        .collect()
}

#[test]
fn shared_factorization_is_bitwise_deterministic_under_threads() {
    for backend in [Backend::Serial, Backend::Batched] {
        let hodlr = build(backend);
        let factorization = hodlr.factorize().unwrap();

        // Serial ground truth, one thread, one right-hand side at a time.
        let expected: Vec<Vec<f64>> = (0..THREADS)
            .map(|s| factorization.solve(&rhs(s)).unwrap())
            .collect();

        // The same requests from THREADS threads at once, released
        // together through a barrier to maximise interleaving.
        let barrier = Barrier::new(THREADS);
        let got: Vec<(usize, Vec<f64>)> = thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|s| {
                    let factorization = &factorization;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        (s, factorization.solve(&rhs(s)).unwrap())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        for (s, x) in got {
            assert_eq!(
                x, expected[s],
                "{backend:?}: thread {s} diverged from the serial answer"
            );
        }
    }
}

#[test]
fn device_counters_are_exact_under_concurrency() {
    let hodlr = build(Backend::Batched);
    let factorization = hodlr.factorize().unwrap();

    // The bill of one solve, metered alone.
    let (_, one) = hodlr
        .device()
        .meter(|| factorization.solve(&rhs(0)).unwrap());
    assert!(one.kernel_launches > 0 && one.flops > 0);

    // N concurrent solves must total exactly N bills: no lost updates, no
    // double counting, no schedule-dependent flop attribution.
    let barrier = Barrier::new(THREADS);
    let (_, total) = hodlr.device().meter(|| {
        thread::scope(|scope| {
            for s in 0..THREADS {
                let factorization = &factorization;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    factorization.solve(&rhs(s)).unwrap();
                });
            }
        });
    });
    assert_eq!(total.kernel_launches, one.kernel_launches * THREADS as u64);
    assert_eq!(total.flops, one.flops * THREADS as u64);
    assert_eq!(total.batch_entries, one.batch_entries * THREADS as u64);
}

#[test]
fn shared_blocked_solves_match_per_column_answers() {
    // Blocked solves from several threads at once: each thread's block
    // must equal the column-by-column serial answers, i.e. batching and
    // concurrency compose without changing bits.
    let hodlr = build(Backend::Batched);
    let factorization = hodlr.factorize().unwrap();

    let per_column: Vec<Vec<f64>> = (0..4)
        .map(|s| factorization.solve(&rhs(s)).unwrap())
        .collect();

    thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let factorization = &factorization;
                scope.spawn(move || {
                    let rhs_vecs: Vec<Vec<f64>> = (0..4).map(rhs).collect();
                    factorization.solve_many(&rhs_vecs).unwrap()
                })
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.join().unwrap(), per_column);
        }
    });
}
