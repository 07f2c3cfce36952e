//! Pins the bits of the factorizations' outputs across commits.
//!
//! For LU and SPD matrices, in `f64` and `Complex64`, at two shapes, every
//! case records FNV-1a hashes of the bits of the serial `Ybig` and, on the
//! serial and the batched backend, of a 1-RHS `solve`, of `solve_matrix` at
//! widths 1, 7, 8, 9, 17 and 32, and of `log_det`.  The metering test pins
//! what runs; this one pins what comes out: a reordered reduction, a fused
//! multiply-add or a different pivot anywhere in the kernels shows up here
//! as a diff.  At n = 1024 with 4 levels and rank 9 the leaf solves run
//! against W = 36 columns and the deepest `V^H Y` projections (27 columns)
//! take gemm's direct path, so the eight-lane kernels of both families run.

use hodlr_batch::Device;
use hodlr_core::matrix::{random_hodlr, random_hodlr_spd};
use hodlr_core::{
    BatchedSolver, FactorKind, GpuSolver, GpuSymmetricSolver, HodlrMatrix, SerialSolver, Symmetry,
};
use hodlr_la::random::random_matrix;
use hodlr_la::{Complex64, DenseMatrix, RealScalar, Scalar};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Right-hand-side counts of the `solve_matrix` records: below, at and
/// above one lane group, two groups with a leftover, and four groups.
const WIDTHS: [usize; 6] = [1, 7, 8, 9, 17, 32];

/// 64-bit FNV-1a over the little-endian bytes of each value's real and
/// imaginary bit patterns.
fn fnv1a<T: Scalar>(values: &[T]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for part in [v.real().to_f64(), v.imag().to_f64()] {
            for byte in part.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

fn log_det_hash<T: Scalar>((log_abs, sign): (T::Real, T)) -> u64 {
    fnv1a(&[T::from_real(log_abs), sign])
}

/// One line per output: the serial `Ybig`, then the serial and batched
/// hash of every solve and of `log_det`.
fn record<T: Scalar, K: FactorKind<T>>(
    serial: &SerialSolver<T, K>,
    batched: &BatchedSolver<'_, T, K>,
    seed: u64,
) -> String {
    let n = serial.tree().n();
    let rhs: DenseMatrix<T> = random_matrix(&mut StdRng::seed_from_u64(seed), n, 32);
    let mut out = format!("ybig {:016x}\n", fnv1a(serial.ybig().data()));
    let b = rhs.col(0);
    out.push_str(&format!(
        "solve: serial {:016x} batched {:016x}\n",
        fnv1a(&serial.solve(b)),
        fnv1a(&batched.solve(b).unwrap())
    ));
    for w in WIDTHS {
        let block = rhs.sub_matrix(0, 0, n, w);
        out.push_str(&format!(
            "solve_matrix {w}: serial {:016x} batched {:016x}\n",
            fnv1a(serial.solve_matrix(&block).data()),
            fnv1a(batched.solve_matrix(&block).unwrap().data())
        ));
    }
    out.push_str(&format!(
        "log_det: serial {:016x} batched {:016x}\n",
        log_det_hash::<T>(serial.log_det()),
        log_det_hash::<T>(batched.log_det().unwrap())
    ));
    out
}

fn record_lu<T: Scalar>(n: usize, levels: usize, rank: usize, seed: u64) -> String {
    let m: HodlrMatrix<T> = random_hodlr(&mut StdRng::seed_from_u64(seed), n, levels, rank);
    let serial = m.factorize_serial().unwrap();
    let device = Device::new();
    let mut batched = GpuSolver::new(&device, &m);
    batched.factorize().unwrap();
    record(&serial, &batched, seed)
}

fn record_spd<T: Scalar>(n: usize, levels: usize, rank: usize, seed: u64) -> String {
    let m: HodlrMatrix<T> = random_hodlr_spd(&mut StdRng::seed_from_u64(seed), n, levels, rank);
    let serial = m.factorize_symmetric(Symmetry::PositiveDefinite).unwrap();
    let device = Device::new();
    let mut batched = GpuSymmetricSolver::new(&device, &m, Symmetry::PositiveDefinite).unwrap();
    batched.factorize().unwrap();
    record(&serial, &batched, seed)
}

/// Compare a record with its pinned text (the leading newline of the raw
/// string literal is layout only).
fn check(actual: String, expected: &str) {
    assert_eq!(actual, expected.trim_start_matches('\n'));
}

#[test]
fn lu_f64_n256() {
    check(
        record_lu::<f64>(256, 3, 4, 1601),
        r"
ybig c8d722de4f0f0a2c
solve: serial d2af0ed6cdb8594c batched d2af0ed6cdb8594c
solve_matrix 1: serial d2af0ed6cdb8594c batched d2af0ed6cdb8594c
solve_matrix 7: serial 9460f3e7b702b4b1 batched 9460f3e7b702b4b1
solve_matrix 8: serial cbcad9d2c2e14e24 batched cbcad9d2c2e14e24
solve_matrix 9: serial 386ab2a9f122aef3 batched 386ab2a9f122aef3
solve_matrix 17: serial 8f437c352a6b1501 batched 8f437c352a6b1501
solve_matrix 32: serial e7d6bcc389b8d578 batched e7d6bcc389b8d578
log_det: serial b690bb88d54e49ab batched b690bb88d54e49ab
",
    );
}

#[test]
fn lu_complex_n256() {
    check(
        record_lu::<Complex64>(256, 3, 4, 1602),
        r"
ybig 9c31130e0dd4c478
solve: serial 807900e2b7b75b9a batched 807900e2b7b75b9a
solve_matrix 1: serial 807900e2b7b75b9a batched 807900e2b7b75b9a
solve_matrix 7: serial d19af22fda91f691 batched d19af22fda91f691
solve_matrix 8: serial 25a6bd6d72d41308 batched 25a6bd6d72d41308
solve_matrix 9: serial cccb14505facab6f batched cccb14505facab6f
solve_matrix 17: serial adb8368c7b1c4b8e batched adb8368c7b1c4b8e
solve_matrix 32: serial 0d84bc84024ddb92 batched 0d84bc84024ddb92
log_det: serial f635f02d5e4ccac7 batched f635f02d5e4ccac7
",
    );
}

#[test]
fn lu_f64_n1024() {
    check(
        record_lu::<f64>(1024, 4, 9, 1603),
        r"
ybig bdda989c72d51caa
solve: serial 6aa296b027d1ecdc batched 6aa296b027d1ecdc
solve_matrix 1: serial 6aa296b027d1ecdc batched 6aa296b027d1ecdc
solve_matrix 7: serial f2d6dc4f7f4f2537 batched f2d6dc4f7f4f2537
solve_matrix 8: serial a34e3bbc122dfcf2 batched a34e3bbc122dfcf2
solve_matrix 9: serial 2429bf2dbabc5901 batched 2429bf2dbabc5901
solve_matrix 17: serial 350d0ee1705d836f batched 350d0ee1705d836f
solve_matrix 32: serial ca07438776b17853 batched ca07438776b17853
log_det: serial 5c8df1a504de12db batched 5c8df1a504de12db
",
    );
}

#[test]
fn lu_complex_n1024() {
    check(
        record_lu::<Complex64>(1024, 4, 9, 1604),
        r"
ybig d49e9968a1b97837
solve: serial dcaf635758965b9e batched dcaf635758965b9e
solve_matrix 1: serial dcaf635758965b9e batched dcaf635758965b9e
solve_matrix 7: serial 9df2eb7ee2b9e0b8 batched 9df2eb7ee2b9e0b8
solve_matrix 8: serial c81cc23adcc7c1a8 batched c81cc23adcc7c1a8
solve_matrix 9: serial 6a8f4e983035436d batched 6a8f4e983035436d
solve_matrix 17: serial 4387b5a9551b1589 batched 4387b5a9551b1589
solve_matrix 32: serial d45f5b777fe58fb4 batched d45f5b777fe58fb4
log_det: serial 380109df51d411ab batched 380109df51d411ab
",
    );
}

#[test]
fn spd_f64_n256() {
    check(
        record_spd::<f64>(256, 3, 4, 1605),
        r"
ybig 341f52e25d368c7e
solve: serial 13e79531f74eb8dd batched 13e79531f74eb8dd
solve_matrix 1: serial 13e79531f74eb8dd batched 13e79531f74eb8dd
solve_matrix 7: serial 14ba4704cab1f814 batched 14ba4704cab1f814
solve_matrix 8: serial 21d3045f5679bfcc batched 21d3045f5679bfcc
solve_matrix 9: serial 8f5f551c16d05cbd batched 8f5f551c16d05cbd
solve_matrix 17: serial c3e0e145869b39f2 batched c3e0e145869b39f2
solve_matrix 32: serial e31c5fa1d30d0fa7 batched e31c5fa1d30d0fa7
log_det: serial 9c1dbb131b5fa98b batched 9c1dbb131b5fa98b
",
    );
}

#[test]
fn spd_complex_n256() {
    check(
        record_spd::<Complex64>(256, 3, 4, 1606),
        r"
ybig a6417360165dbc41
solve: serial c85a2f50ae2b5c83 batched c85a2f50ae2b5c83
solve_matrix 1: serial c85a2f50ae2b5c83 batched c85a2f50ae2b5c83
solve_matrix 7: serial 9ae19eae86060839 batched 9ae19eae86060839
solve_matrix 8: serial f9cde7299b0699dc batched f9cde7299b0699dc
solve_matrix 9: serial faf01495d6f4dfd4 batched faf01495d6f4dfd4
solve_matrix 17: serial a3123abd23d87e28 batched a3123abd23d87e28
solve_matrix 32: serial 55f60f12aa4b26dc batched 55f60f12aa4b26dc
log_det: serial a58971c1e14a603a batched a58971c1e14a603a
",
    );
}

#[test]
fn spd_f64_n1024() {
    check(
        record_spd::<f64>(1024, 4, 9, 1607),
        r"
ybig d1b333d24c614c59
solve: serial 2079a60ebcdd0447 batched 2079a60ebcdd0447
solve_matrix 1: serial 2079a60ebcdd0447 batched 2079a60ebcdd0447
solve_matrix 7: serial ff5963b45afff6a8 batched ff5963b45afff6a8
solve_matrix 8: serial e8caabd1bccef2cc batched e8caabd1bccef2cc
solve_matrix 9: serial 3856ed41329d5465 batched 3856ed41329d5465
solve_matrix 17: serial a49c14b025085889 batched a49c14b025085889
solve_matrix 32: serial 823ed517dffca044 batched 823ed517dffca044
log_det: serial c9f3052ce1f2def3 batched c9f3052ce1f2def3
",
    );
}

#[test]
fn spd_complex_n1024() {
    check(
        record_spd::<Complex64>(1024, 4, 9, 1608),
        r"
ybig 6fc736b00a2a408c
solve: serial e3f7f2275cac5c81 batched e3f7f2275cac5c81
solve_matrix 1: serial e3f7f2275cac5c81 batched e3f7f2275cac5c81
solve_matrix 7: serial f4d95bd73cf0653d batched f4d95bd73cf0653d
solve_matrix 8: serial 84218f1d3ea5d156 batched 84218f1d3ea5d156
solve_matrix 9: serial d7cfa065d1586705 batched d7cfa065d1586705
solve_matrix 17: serial a5923f5d92c160cc batched a5923f5d92c160cc
solve_matrix 32: serial 56e898c8417b504d batched 56e898c8417b504d
log_det: serial 0c8e13bead0011a4 batched 0c8e13bead0011a4
",
    );
}
