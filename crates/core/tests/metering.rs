//! Pins what the batched sweeps launch and meter, and what the serial
//! factorizations store.
//!
//! For LU and SPD matrices, in `f64` and `Complex64`, at two shapes, every
//! case records the launch log (kernel, batch size, stream) and the
//! [`CounterSnapshot`] delta of each phase — upload, factorize, a 1-RHS
//! solve, a 3-RHS `solve_matrix` and `log_det` — followed by the batched
//! and serial `storage_entries()`.  The counters depend only on shapes, so
//! the records are exact: any change to the kernel sequence, stream
//! assignment, flop accounting, transfers or device allocations shows up
//! here as a diff.

use hodlr_batch::{CounterSnapshot, Device};
use hodlr_core::matrix::{random_hodlr, random_hodlr_spd};
use hodlr_core::{GpuSolver, GpuSymmetricSolver, HodlrMatrix, Symmetry};
use hodlr_la::{Complex64, DenseMatrix, Scalar};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Accumulates one line of counters plus the wrapped launch list per phase.
struct Recorder<'d> {
    device: &'d Device,
    out: String,
}

impl<'d> Recorder<'d> {
    fn new(device: &'d Device) -> Self {
        Recorder {
            device,
            out: String::new(),
        }
    }

    fn phase<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let logged = self.device.launch_log().len();
        let (result, c) = self.device.meter(f);
        self.counters(name, &c);
        let mut line = String::from(" ");
        for launch in &self.device.launch_log()[logged..] {
            let token = format!(" {}/{}@{}", launch.kernel, launch.batch, launch.stream);
            if line.len() + token.len() > 96 {
                self.out.push_str(&line);
                self.out.push('\n');
                line = String::from(" ");
            }
            line.push_str(&token);
        }
        if line.len() > 1 {
            self.out.push_str(&line);
            self.out.push('\n');
        }
        result
    }

    fn counters(&mut self, name: &str, c: &CounterSnapshot) {
        self.out.push_str(&format!(
            "{name}: launches {} entries {} flops {} h2d {} d2h {} alloc {} peak {}\n",
            c.kernel_launches,
            c.batch_entries,
            c.flops,
            c.h2d_bytes,
            c.d2h_bytes,
            c.allocated_bytes,
            c.peak_allocated_bytes
        ));
    }
}

/// Record the batched phases of the solver that `$upload` builds (inside
/// the upload phase), then the batched and `$serial` storage counts.
macro_rules! record {
    ($device:ident, $upload:expr, $serial:expr) => {{
        let n = $serial.tree().n();
        let mut rec = Recorder::new(&$device);
        let mut gpu = rec.phase("upload", || $upload);
        rec.phase("factorize", || gpu.factorize().unwrap());
        let ones = vec![T::one(); n];
        rec.phase("solve", || gpu.solve(&ones).unwrap());
        let block = DenseMatrix::<T>::from_col_major(n, 3, vec![T::one(); 3 * n]);
        rec.phase("solve_matrix", || gpu.solve_matrix(&block).unwrap());
        rec.phase("log_det", || gpu.log_det().unwrap());
        let mut out = rec.out;
        out.push_str(&format!(
            "storage: batched {} serial {}\n",
            gpu.storage_entries(),
            $serial.storage_entries()
        ));
        out
    }};
}

fn record_lu<T: Scalar>(n: usize, levels: usize, rank: usize, seed: u64) -> String {
    let m: HodlrMatrix<T> = random_hodlr(&mut StdRng::seed_from_u64(seed), n, levels, rank);
    let device = Device::new().with_launch_log();
    let serial = m.factorize_serial().unwrap();
    record!(device, GpuSolver::new(&device, &m), serial)
}

fn record_spd<T: Scalar>(n: usize, levels: usize, rank: usize, seed: u64) -> String {
    let m: HodlrMatrix<T> = random_hodlr_spd(&mut StdRng::seed_from_u64(seed), n, levels, rank);
    let device = Device::new().with_launch_log();
    let serial = m.factorize_symmetric(Symmetry::PositiveDefinite).unwrap();
    let mut out = record!(
        device,
        GpuSymmetricSolver::new(&device, &m, Symmetry::PositiveDefinite).unwrap(),
        serial
    );
    out.push_str(&format!(
        "storage: serial lu {}\n",
        m.factorize_serial().unwrap().storage_entries()
    ));
    out
}

/// Compare a record with its pinned text (the leading newline of the raw
/// string literal is layout only).
fn check(actual: String, expected: &str) {
    assert_eq!(actual, expected.trim_start_matches('\n'));
}

#[test]
fn lu_f64_n256() {
    check(
        record_lu::<f64>(256, 3, 4, 1501),
        r"
upload: launches 0 entries 0 flops 0 h2d 114688 d2h 0 alloc 114688 peak 114688
factorize: launches 17 entries 74 flops 452603 h2d 0 d2h 0 alloc 118272 peak 118784
  getrf_batched/8@0 getrs_batched/8@0 assemble_coupling_identity/4@0 gemm_batched/8@0
  gemm_batched/8@0 getrf_batched/4@0 getrs_batched/4@0 gemm_batched_aliased/8@0
  assemble_coupling_identity/2@0 gemm_batched/4@1 gemm_batched/4@2 getrf_batched/2@3
  getrs_batched/2@4 gemm_batched_aliased/4@1 assemble_coupling_identity/1@0 gemm_batched/2@2
  getrf_batched/1@3
solve: launches 10 entries 43 flops 29568 h2d 2048 d2h 2048 alloc 118272 peak 120576
  getrs_batched/8@0 gemm_batched/8@0 getrs_batched/4@0 gemm_batched/8@0 gemm_batched/4@4
  getrs_batched/2@1 gemm_batched/4@2 gemm_batched/2@3 getrs_batched/1@4 gemm_batched/2@1
solve_matrix: launches 10 entries 43 flops 88704 h2d 6144 d2h 6144 alloc 118272 peak 125184
  getrs_batched/8@0 gemm_batched/8@0 getrs_batched/4@0 gemm_batched/8@0 gemm_batched/4@2
  getrs_batched/2@3 gemm_batched/4@4 gemm_batched/2@1 getrs_batched/1@2 gemm_batched/2@3
log_det: launches 4 entries 15 flops 0 h2d 0 d2h 2496 alloc 118272 peak 125184
  extract_diagonals_batched/8@0 extract_diagonals_batched/1@4 extract_diagonals_batched/2@1
  extract_diagonals_batched/4@0
storage: batched 14784 serial 14784
",
    );
}

#[test]
fn lu_complex_n256() {
    check(
        record_lu::<Complex64>(256, 3, 4, 1502),
        r"
upload: launches 0 entries 0 flops 0 h2d 229376 d2h 0 alloc 229376 peak 229376
factorize: launches 17 entries 74 flops 1810427 h2d 0 d2h 0 alloc 236544 peak 237568
  getrf_batched/8@0 getrs_batched/8@0 assemble_coupling_identity/4@0 gemm_batched/8@0
  gemm_batched/8@0 getrf_batched/4@0 getrs_batched/4@0 gemm_batched_aliased/8@0
  assemble_coupling_identity/2@0 gemm_batched/4@1 gemm_batched/4@2 getrf_batched/2@3
  getrs_batched/2@4 gemm_batched_aliased/4@1 assemble_coupling_identity/1@0 gemm_batched/2@2
  getrf_batched/1@3
solve: launches 10 entries 43 flops 118272 h2d 4096 d2h 4096 alloc 236544 peak 241152
  getrs_batched/8@0 gemm_batched/8@0 getrs_batched/4@0 gemm_batched/8@0 gemm_batched/4@4
  getrs_batched/2@1 gemm_batched/4@2 gemm_batched/2@3 getrs_batched/1@4 gemm_batched/2@1
solve_matrix: launches 10 entries 43 flops 354816 h2d 12288 d2h 12288 alloc 236544 peak 250368
  getrs_batched/8@0 gemm_batched/8@0 getrs_batched/4@0 gemm_batched/8@0 gemm_batched/4@2
  getrs_batched/2@3 gemm_batched/4@4 gemm_batched/2@1 getrs_batched/1@2 gemm_batched/2@3
log_det: launches 4 entries 15 flops 0 h2d 0 d2h 4992 alloc 236544 peak 250368
  extract_diagonals_batched/8@0 extract_diagonals_batched/1@4 extract_diagonals_batched/2@1
  extract_diagonals_batched/4@0
storage: batched 14784 serial 14784
",
    );
}

#[test]
fn lu_f64_n101() {
    check(
        record_lu::<f64>(101, 3, 2, 1503),
        r"
upload: launches 0 entries 0 flops 0 h2d 19912 d2h 0 alloc 19912 peak 19912
factorize: launches 17 entries 74 flops 34306 h2d 0 d2h 0 alloc 20808 peak 20936
  getrf_batched/8@0 getrs_batched/8@0 assemble_coupling_identity/4@0 gemm_batched/8@0
  gemm_batched/8@0 getrf_batched/4@0 getrs_batched/4@0 gemm_batched_aliased/8@0
  assemble_coupling_identity/2@0 gemm_batched/4@1 gemm_batched/4@2 getrf_batched/2@3
  getrs_batched/2@4 gemm_batched_aliased/4@1 assemble_coupling_identity/1@0 gemm_batched/2@2
  getrf_batched/1@3
solve: launches 10 entries 43 flops 5202 h2d 808 d2h 808 alloc 20808 peak 21744
  getrs_batched/8@0 gemm_batched/8@0 getrs_batched/4@0 gemm_batched/8@0 gemm_batched/4@4
  getrs_batched/2@1 gemm_batched/4@2 gemm_batched/2@3 getrs_batched/1@4 gemm_batched/2@1
solve_matrix: launches 10 entries 43 flops 15606 h2d 2424 d2h 2424 alloc 20808 peak 23616
  getrs_batched/8@0 gemm_batched/8@0 getrs_batched/4@0 gemm_batched/8@0 gemm_batched/4@2
  getrs_batched/2@3 gemm_batched/4@4 gemm_batched/2@1 getrs_batched/1@2 gemm_batched/2@3
log_det: launches 4 entries 15 flops 0 h2d 0 d2h 1032 alloc 20808 peak 23616
  extract_diagonals_batched/8@0 extract_diagonals_batched/1@4 extract_diagonals_batched/2@1
  extract_diagonals_batched/4@0
storage: batched 2601 serial 2601
",
    );
}

#[test]
fn lu_complex_n101() {
    check(
        record_lu::<Complex64>(101, 3, 2, 1504),
        r"
upload: launches 0 entries 0 flops 0 h2d 39824 d2h 0 alloc 39824 peak 39824
factorize: launches 17 entries 74 flops 137248 h2d 0 d2h 0 alloc 41616 peak 41872
  getrf_batched/8@0 getrs_batched/8@0 assemble_coupling_identity/4@0 gemm_batched/8@0
  gemm_batched/8@0 getrf_batched/4@0 getrs_batched/4@0 gemm_batched_aliased/8@0
  assemble_coupling_identity/2@0 gemm_batched/4@1 gemm_batched/4@2 getrf_batched/2@3
  getrs_batched/2@4 gemm_batched_aliased/4@1 assemble_coupling_identity/1@0 gemm_batched/2@2
  getrf_batched/1@3
solve: launches 10 entries 43 flops 20808 h2d 1616 d2h 1616 alloc 41616 peak 43488
  getrs_batched/8@0 gemm_batched/8@0 getrs_batched/4@0 gemm_batched/8@0 gemm_batched/4@4
  getrs_batched/2@1 gemm_batched/4@2 gemm_batched/2@3 getrs_batched/1@4 gemm_batched/2@1
solve_matrix: launches 10 entries 43 flops 62424 h2d 4848 d2h 4848 alloc 41616 peak 47232
  getrs_batched/8@0 gemm_batched/8@0 getrs_batched/4@0 gemm_batched/8@0 gemm_batched/4@2
  getrs_batched/2@3 gemm_batched/4@4 gemm_batched/2@1 getrs_batched/1@2 gemm_batched/2@3
log_det: launches 4 entries 15 flops 0 h2d 0 d2h 2064 alloc 41616 peak 47232
  extract_diagonals_batched/8@0 extract_diagonals_batched/1@4 extract_diagonals_batched/2@1
  extract_diagonals_batched/4@0
storage: batched 2601 serial 2601
",
    );
}

#[test]
fn spd_f64_n256() {
    check(
        record_spd::<f64>(256, 3, 4, 1505),
        r"
upload: launches 0 entries 0 flops 0 h2d 114688 d2h 0 alloc 114688 peak 114688
factorize: launches 17 entries 74 flops 364022 h2d 0 d2h 0 alloc 118272 peak 118784
  potrf_batched/8@0 potrs_batched/8@0 assemble_coupling_identity/4@0 gemm_batched/8@0
  gemm_batched/8@0 potrf_batched/4@0 potrs_batched/4@0 gemm_batched_aliased/8@0
  assemble_coupling_identity/2@0 gemm_batched/4@1 gemm_batched/4@2 potrf_batched/2@3
  potrs_batched/2@4 gemm_batched_aliased/4@1 assemble_coupling_identity/1@0 gemm_batched/2@2
  potrf_batched/1@3
solve: launches 10 entries 43 flops 29568 h2d 2048 d2h 2048 alloc 118272 peak 120576
  potrs_batched/8@0 gemm_batched/8@0 potrs_batched/4@0 gemm_batched/8@0 gemm_batched/4@4
  potrs_batched/2@1 gemm_batched/4@2 gemm_batched/2@3 potrs_batched/1@4 gemm_batched/2@1
solve_matrix: launches 10 entries 43 flops 88704 h2d 6144 d2h 6144 alloc 118272 peak 125184
  potrs_batched/8@0 gemm_batched/8@0 potrs_batched/4@0 gemm_batched/8@0 gemm_batched/4@2
  potrs_batched/2@3 gemm_batched/4@4 gemm_batched/2@1 potrs_batched/1@2 gemm_batched/2@3
log_det: launches 4 entries 15 flops 0 h2d 0 d2h 4872 alloc 118272 peak 125184
  extract_tridiagonals_batched/8@0 extract_tridiagonals_batched/1@4
  extract_tridiagonals_batched/2@1 extract_tridiagonals_batched/4@0
storage: batched 10620 serial 10620
storage: serial lu 14784
",
    );
}

#[test]
fn spd_complex_n256() {
    check(
        record_spd::<Complex64>(256, 3, 4, 1506),
        r"
upload: launches 0 entries 0 flops 0 h2d 229376 d2h 0 alloc 229376 peak 229376
factorize: launches 17 entries 74 flops 1456118 h2d 0 d2h 0 alloc 236544 peak 237568
  potrf_batched/8@0 potrs_batched/8@0 assemble_coupling_identity/4@0 gemm_batched/8@0
  gemm_batched/8@0 potrf_batched/4@0 potrs_batched/4@0 gemm_batched_aliased/8@0
  assemble_coupling_identity/2@0 gemm_batched/4@1 gemm_batched/4@2 potrf_batched/2@3
  potrs_batched/2@4 gemm_batched_aliased/4@1 assemble_coupling_identity/1@0 gemm_batched/2@2
  potrf_batched/1@3
solve: launches 10 entries 43 flops 118272 h2d 4096 d2h 4096 alloc 236544 peak 241152
  potrs_batched/8@0 gemm_batched/8@0 potrs_batched/4@0 gemm_batched/8@0 gemm_batched/4@4
  potrs_batched/2@1 gemm_batched/4@2 gemm_batched/2@3 potrs_batched/1@4 gemm_batched/2@1
solve_matrix: launches 10 entries 43 flops 354816 h2d 12288 d2h 12288 alloc 236544 peak 250368
  potrs_batched/8@0 gemm_batched/8@0 potrs_batched/4@0 gemm_batched/8@0 gemm_batched/4@2
  potrs_batched/2@3 gemm_batched/4@4 gemm_batched/2@1 potrs_batched/1@2 gemm_batched/2@3
log_det: launches 4 entries 15 flops 0 h2d 0 d2h 9744 alloc 236544 peak 250368
  extract_tridiagonals_batched/8@0 extract_tridiagonals_batched/1@4
  extract_tridiagonals_batched/2@1 extract_tridiagonals_batched/4@0
storage: batched 10620 serial 10620
storage: serial lu 14784
",
    );
}

#[test]
fn spd_f64_n101() {
    check(
        record_spd::<f64>(101, 3, 2, 1507),
        r"
upload: launches 0 entries 0 flops 0 h2d 19912 d2h 0 alloc 19912 peak 19912
factorize: launches 17 entries 74 flops 28771 h2d 0 d2h 0 alloc 20808 peak 20936
  potrf_batched/8@0 potrs_batched/8@0 assemble_coupling_identity/4@0 gemm_batched/8@0
  gemm_batched/8@0 potrf_batched/4@0 potrs_batched/4@0 gemm_batched_aliased/8@0
  assemble_coupling_identity/2@0 gemm_batched/4@1 gemm_batched/4@2 potrf_batched/2@3
  potrs_batched/2@4 gemm_batched_aliased/4@1 assemble_coupling_identity/1@0 gemm_batched/2@2
  potrf_batched/1@3
solve: launches 10 entries 43 flops 5202 h2d 808 d2h 808 alloc 20808 peak 21744
  potrs_batched/8@0 gemm_batched/8@0 potrs_batched/4@0 gemm_batched/8@0 gemm_batched/4@4
  potrs_batched/2@1 gemm_batched/4@2 gemm_batched/2@3 potrs_batched/1@4 gemm_batched/2@1
solve_matrix: launches 10 entries 43 flops 15606 h2d 2424 d2h 2424 alloc 20808 peak 23616
  potrs_batched/8@0 gemm_batched/8@0 potrs_batched/4@0 gemm_batched/8@0 gemm_batched/4@2
  potrs_batched/2@3 gemm_batched/4@4 gemm_batched/2@1 potrs_batched/1@2 gemm_batched/2@3
log_det: launches 4 entries 15 flops 0 h2d 0 d2h 1944 alloc 20808 peak 23616
  extract_tridiagonals_batched/8@0 extract_tridiagonals_batched/1@4
  extract_tridiagonals_batched/2@1 extract_tridiagonals_batched/4@0
storage: batched 1971 serial 1971
storage: serial lu 2601
",
    );
}

#[test]
fn spd_complex_n101() {
    check(
        record_spd::<Complex64>(101, 3, 2, 1508),
        r"
upload: launches 0 entries 0 flops 0 h2d 39824 d2h 0 alloc 39824 peak 39824
factorize: launches 17 entries 74 flops 115096 h2d 0 d2h 0 alloc 41616 peak 41872
  potrf_batched/8@0 potrs_batched/8@0 assemble_coupling_identity/4@0 gemm_batched/8@0
  gemm_batched/8@0 potrf_batched/4@0 potrs_batched/4@0 gemm_batched_aliased/8@0
  assemble_coupling_identity/2@0 gemm_batched/4@1 gemm_batched/4@2 potrf_batched/2@3
  potrs_batched/2@4 gemm_batched_aliased/4@1 assemble_coupling_identity/1@0 gemm_batched/2@2
  potrf_batched/1@3
solve: launches 10 entries 43 flops 20808 h2d 1616 d2h 1616 alloc 41616 peak 43488
  potrs_batched/8@0 gemm_batched/8@0 potrs_batched/4@0 gemm_batched/8@0 gemm_batched/4@4
  potrs_batched/2@1 gemm_batched/4@2 gemm_batched/2@3 potrs_batched/1@4 gemm_batched/2@1
solve_matrix: launches 10 entries 43 flops 62424 h2d 4848 d2h 4848 alloc 41616 peak 47232
  potrs_batched/8@0 gemm_batched/8@0 potrs_batched/4@0 gemm_batched/8@0 gemm_batched/4@2
  potrs_batched/2@3 gemm_batched/4@4 gemm_batched/2@1 potrs_batched/1@2 gemm_batched/2@3
log_det: launches 4 entries 15 flops 0 h2d 0 d2h 3888 alloc 41616 peak 47232
  extract_tridiagonals_batched/8@0 extract_tridiagonals_batched/1@4
  extract_tridiagonals_batched/2@1 extract_tridiagonals_batched/4@0
storage: batched 1971 serial 1971
storage: serial lu 2601
",
    );
}
