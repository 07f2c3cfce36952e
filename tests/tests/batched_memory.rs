//! Host-memory regression tests for the batched factorizations and the
//! blocked solves.
//!
//! The virtual device lives in host memory, so every transient buffer a
//! batched kernel allocates shows up on the heap.  A counting global
//! allocator tracks the peak of live heap bytes, and each factorization may
//! grow the heap by less than the matrix's own storage: its per-level work
//! is O(n·w), never a copy of the `lda = n` span of every window.  A blocked
//! solve may hold no more `n x k` right-hand-side buffers than it needs.
//! This file is its own test binary, so the allocator counts only these
//! tests, and they take turns so that none measures another.

use hodlr::Solve;
use hodlr_batch::Device;
use hodlr_core::matrix::{random_hodlr, random_hodlr_spd};
use hodlr_core::{GpuSolver, GpuSymmetricSolver, HodlrMatrix, Symmetry};
use hodlr_la::random::random_matrix;
use hodlr_la::DenseMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

const N: usize = 8192;
const LEVELS: usize = 8;
const RANK: usize = 8;

/// The system allocator plus a count of live bytes and its high-water mark.
struct PeakCounter {
    live: AtomicUsize,
    peak: AtomicUsize,
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters only observe the sizes.
unsafe impl GlobalAlloc for PeakCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            let live = self.live.fetch_add(layout.size(), Ordering::SeqCst) + layout.size();
            self.peak.fetch_max(live, Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.live.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static HEAP: PeakCounter = PeakCounter {
    live: AtomicUsize::new(0),
    peak: AtomicUsize::new(0),
};

/// Held for the whole of each test, so one test's allocations never land
/// in the other's measurement.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Peak heap growth over the live bytes at entry while `f` runs.
fn peak_heap_growth(f: impl FnOnce()) -> usize {
    let start = HEAP.live.load(Ordering::SeqCst);
    HEAP.peak.store(start, Ordering::SeqCst);
    f();
    HEAP.peak.load(Ordering::SeqCst) - start
}

fn assert_below_storage(what: &str, growth: usize, matrix: &HodlrMatrix<f64>) {
    let bound = matrix.storage_entries() * std::mem::size_of::<f64>();
    assert!(growth > 0, "{what}: the counting allocator saw nothing");
    assert!(
        growth < bound,
        "{what} grew the heap by {growth} bytes, not below the matrix storage of {bound} bytes"
    );
}

#[test]
fn batched_lu_factorization_heap_growth_stays_below_storage() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(12);
    let matrix: HodlrMatrix<f64> = random_hodlr(&mut rng, N, LEVELS, RANK);
    let device = Device::new();
    let mut solver = GpuSolver::new(&device, &matrix);
    let growth = peak_heap_growth(|| solver.factorize().expect("batched LU factorization"));
    assert_below_storage("GpuSolver::factorize", growth, &matrix);
}

#[test]
fn batched_symmetric_factorization_heap_growth_stays_below_storage() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(13);
    let matrix: HodlrMatrix<f64> = random_hodlr_spd(&mut rng, N, LEVELS, RANK);
    let device = Device::new();
    let mut solver = GpuSymmetricSolver::new(&device, &matrix, Symmetry::PositiveDefinite)
        .expect("solver construction");
    let growth = peak_heap_growth(|| solver.factorize().expect("batched SPD factorization"));
    assert_below_storage("GpuSymmetricSolver::factorize", growth, &matrix);
}

/// Peak heap growth of `solve` on one 32-RHS block at n = 8192, in units
/// of the `n x 32` right-hand-side buffer.
fn buffers_held(solve: impl FnOnce(&mut DenseMatrix<f64>)) -> f64 {
    let mut b: DenseMatrix<f64> = random_matrix(&mut StdRng::seed_from_u64(15), N, 32);
    let buffer = b.rows() * b.cols() * std::mem::size_of::<f64>();
    let growth = peak_heap_growth(|| solve(&mut b));
    growth as f64 / buffer as f64
}

/// [`buffers_held`] by one allocating `solve_block`.
fn solve_block_buffers(solver: &impl Solve<f64>) -> f64 {
    buffers_held(|b| drop(solver.solve_block(b).expect("blocked solve")))
}

#[test]
fn batched_solve_block_holds_the_upload_and_the_result() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let matrix: HodlrMatrix<f64> = random_hodlr(&mut StdRng::seed_from_u64(14), N, LEVELS, RANK);
    let device = Device::new();
    let mut solver = GpuSolver::new(&device, &matrix);
    solver.factorize().expect("batched LU factorization");
    let buffers = solve_block_buffers(&solver);
    assert!(
        buffers < 2.5,
        "batched solve_block held {buffers:.2} right-hand-side buffers, not below 2.5"
    );
}

#[test]
fn serial_solve_block_holds_only_the_result() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let matrix: HodlrMatrix<f64> = random_hodlr(&mut StdRng::seed_from_u64(14), N, LEVELS, RANK);
    let solver = matrix.factorize_serial().expect("serial LU factorization");
    let buffers = solve_block_buffers(&solver);
    assert!(
        buffers < 1.5,
        "serial solve_block held {buffers:.2} right-hand-side buffers, not below 1.5"
    );
}

/// The in-place blocked solve solves in the caller's buffer: it may hold
/// task scratch (at most a quarter of the block) but no copy of it.
#[test]
fn serial_solve_block_in_place_holds_no_copy() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let matrix: HodlrMatrix<f64> = random_hodlr(&mut StdRng::seed_from_u64(14), N, LEVELS, RANK);
    let solver = matrix.factorize_serial().expect("serial LU factorization");
    let buffers = buffers_held(|b| {
        solver
            .solve_block_in_place(b)
            .expect("in-place blocked solve")
    });
    assert!(
        buffers < 0.5,
        "serial solve_block_in_place held {buffers:.2} right-hand-side buffers, not below 0.5"
    );
}
