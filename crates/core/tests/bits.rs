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
//! At n = 4096 with 3 levels and rank 128 the top level's children have
//! 2048 rows, so its single-RHS `V^H x` and `x -= Y w` products are
//! 128 x 2048, exactly `GEMM_DIRECT_THRESHOLD` multiply-adds: gemm's
//! parallel one-column kernels.  The hashes were recorded when every
//! product and solve in `hodlr-la` moved to one fused per-entry recipe.

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
ybig 413ee535e823425b
solve: serial d4fd30d3587a7086 batched d4fd30d3587a7086
solve_matrix 1: serial d4fd30d3587a7086 batched d4fd30d3587a7086
solve_matrix 7: serial a713f4cb5d55cd0e batched a713f4cb5d55cd0e
solve_matrix 8: serial d4d4aa0527462051 batched d4d4aa0527462051
solve_matrix 9: serial ad08e6e12749ba98 batched ad08e6e12749ba98
solve_matrix 17: serial 1c4a7c2bc32e403d batched 1c4a7c2bc32e403d
solve_matrix 32: serial cecbe565a2c9fac2 batched cecbe565a2c9fac2
log_det: serial b690bb88d54e49ab batched b690bb88d54e49ab
",
    );
}

#[test]
fn lu_complex_n256() {
    check(
        record_lu::<Complex64>(256, 3, 4, 1602),
        r"
ybig e2025db5fce01c84
solve: serial 95ba9d8af0769dcb batched 95ba9d8af0769dcb
solve_matrix 1: serial 95ba9d8af0769dcb batched 95ba9d8af0769dcb
solve_matrix 7: serial fc8b594ebc1a5f0f batched fc8b594ebc1a5f0f
solve_matrix 8: serial 4b0fb7cc3ee62e97 batched 4b0fb7cc3ee62e97
solve_matrix 9: serial 031d2ae3ee7c681c batched 031d2ae3ee7c681c
solve_matrix 17: serial 62667647a234e494 batched 62667647a234e494
solve_matrix 32: serial 01519ab3a3b8d734 batched 01519ab3a3b8d734
log_det: serial f635f02d5e4ccac7 batched f635f02d5e4ccac7
",
    );
}

#[test]
fn lu_f64_n1024() {
    check(
        record_lu::<f64>(1024, 4, 9, 1603),
        r"
ybig 88a69f94038cf19e
solve: serial 2fdabf2c26a2fe6e batched 2fdabf2c26a2fe6e
solve_matrix 1: serial 2fdabf2c26a2fe6e batched 2fdabf2c26a2fe6e
solve_matrix 7: serial 2026fbbdda0f9590 batched 2026fbbdda0f9590
solve_matrix 8: serial 0ab41317d3bd2330 batched 0ab41317d3bd2330
solve_matrix 9: serial fe35347f804be610 batched fe35347f804be610
solve_matrix 17: serial 1230d55be7f52464 batched 1230d55be7f52464
solve_matrix 32: serial b922b92805ee9b64 batched b922b92805ee9b64
log_det: serial 5c8df1a504de12db batched 5c8df1a504de12db
",
    );
}

#[test]
fn lu_complex_n1024() {
    check(
        record_lu::<Complex64>(1024, 4, 9, 1604),
        r"
ybig 591efebd8324281e
solve: serial fd615dbbd33ef5d5 batched fd615dbbd33ef5d5
solve_matrix 1: serial fd615dbbd33ef5d5 batched fd615dbbd33ef5d5
solve_matrix 7: serial 54dde4949c4fab00 batched 54dde4949c4fab00
solve_matrix 8: serial ede6f69105725375 batched ede6f69105725375
solve_matrix 9: serial fae646ed6f66c5ea batched fae646ed6f66c5ea
solve_matrix 17: serial 64a947cf4493fe2a batched 64a947cf4493fe2a
solve_matrix 32: serial af0cf554d7e38bba batched af0cf554d7e38bba
log_det: serial 380109df51d411ab batched 380109df51d411ab
",
    );
}

#[test]
fn spd_f64_n256() {
    check(
        record_spd::<f64>(256, 3, 4, 1605),
        r"
ybig b75398816ef05ea7
solve: serial b72ddc090b1c5021 batched b72ddc090b1c5021
solve_matrix 1: serial b72ddc090b1c5021 batched b72ddc090b1c5021
solve_matrix 7: serial 4bac1fdc89f7c5ff batched 4bac1fdc89f7c5ff
solve_matrix 8: serial 2520ea4fd1f33ac5 batched 2520ea4fd1f33ac5
solve_matrix 9: serial d1f5cfe0856714f4 batched d1f5cfe0856714f4
solve_matrix 17: serial 62caa283a62d7904 batched 62caa283a62d7904
solve_matrix 32: serial 501cd99be01d86cd batched 501cd99be01d86cd
log_det: serial 9c1dbb131b5fa98b batched 9c1dbb131b5fa98b
",
    );
}

#[test]
fn spd_complex_n256() {
    check(
        record_spd::<Complex64>(256, 3, 4, 1606),
        r"
ybig 999ce0595ae289e9
solve: serial 3342ac294100c7ed batched 3342ac294100c7ed
solve_matrix 1: serial 3342ac294100c7ed batched 3342ac294100c7ed
solve_matrix 7: serial 097533af05edb20b batched 097533af05edb20b
solve_matrix 8: serial c3d9c01f2df7bae4 batched c3d9c01f2df7bae4
solve_matrix 9: serial 571d2c007c50dace batched 571d2c007c50dace
solve_matrix 17: serial f8acd33ee81cb42a batched f8acd33ee81cb42a
solve_matrix 32: serial 8b371352bb83c51f batched 8b371352bb83c51f
log_det: serial a58971c1e14a603a batched a58971c1e14a603a
",
    );
}

#[test]
fn spd_f64_n1024() {
    check(
        record_spd::<f64>(1024, 4, 9, 1607),
        r"
ybig 756b06744260f90c
solve: serial 7a7a91eea7104410 batched 7a7a91eea7104410
solve_matrix 1: serial 7a7a91eea7104410 batched 7a7a91eea7104410
solve_matrix 7: serial 6cd4b8ae30e39432 batched 6cd4b8ae30e39432
solve_matrix 8: serial 50c1ec4ea10aeebd batched 50c1ec4ea10aeebd
solve_matrix 9: serial 879a2361383ae214 batched 879a2361383ae214
solve_matrix 17: serial 170aae55c73dd31f batched 170aae55c73dd31f
solve_matrix 32: serial 97e6f85a3f8186b6 batched 97e6f85a3f8186b6
log_det: serial c9f3052ce1f2def3 batched c9f3052ce1f2def3
",
    );
}

#[test]
fn spd_complex_n1024() {
    check(
        record_spd::<Complex64>(1024, 4, 9, 1608),
        r"
ybig dcbdd520f2d74ce9
solve: serial 166c7012da9597c8 batched 166c7012da9597c8
solve_matrix 1: serial 166c7012da9597c8 batched 166c7012da9597c8
solve_matrix 7: serial e9b1b2ea84933071 batched e9b1b2ea84933071
solve_matrix 8: serial 598ba10aa9b4186e batched 598ba10aa9b4186e
solve_matrix 9: serial 4f51c5da330988fa batched 4f51c5da330988fa
solve_matrix 17: serial f8e82dcf5afaa62e batched f8e82dcf5afaa62e
solve_matrix 32: serial 9cee4b0a918f9b0e batched 9cee4b0a918f9b0e
log_det: serial 0c8e13bead0011a4 batched 0c8e13bead0011a4
",
    );
}

#[test]
fn lu_f64_n4096_blocked_one_column() {
    check(
        record_lu::<f64>(4096, 3, 128, 1609),
        r"
ybig 1a87cbc2eb367b1d
solve: serial 89d3096814544caa batched 89d3096814544caa
solve_matrix 1: serial 89d3096814544caa batched 89d3096814544caa
solve_matrix 7: serial 07b5cdba65c744ee batched 07b5cdba65c744ee
solve_matrix 8: serial 39df7e1f82d87a3c batched 39df7e1f82d87a3c
solve_matrix 9: serial 97c9769b773b9ea5 batched 97c9769b773b9ea5
solve_matrix 17: serial 3f953fdafc03ea6c batched 3f953fdafc03ea6c
solve_matrix 32: serial d96a274b01955af0 batched d96a274b01955af0
log_det: serial 61a598793246fabe batched 61a598793246fabe
",
    );
}

#[test]
fn spd_f64_n4096_blocked_one_column() {
    check(
        record_spd::<f64>(4096, 3, 128, 1610),
        r"
ybig 92387427733864e1
solve: serial ff135dcd8dedb695 batched ff135dcd8dedb695
solve_matrix 1: serial ff135dcd8dedb695 batched ff135dcd8dedb695
solve_matrix 7: serial 9bd6258aadc1753f batched 9bd6258aadc1753f
solve_matrix 8: serial 95e62c55fdf26ee8 batched 95e62c55fdf26ee8
solve_matrix 9: serial 92ecb12dc3a0f9c6 batched 92ecb12dc3a0f9c6
solve_matrix 17: serial 394a7d521a414d21 batched 394a7d521a414d21
solve_matrix 32: serial 0a51037cedd588d1 batched 0a51037cedd588d1
log_det: serial a2788874705d0c44 batched a2788874705d0c44
",
    );
}
