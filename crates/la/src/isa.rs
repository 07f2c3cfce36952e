//! Run-time ISA dispatch for the hot dense kernels.
//!
//! The workspace builds for baseline x86-64, where `f64::mul_add` is an
//! out-of-line call into the `fma` routine for every element and loops
//! vectorize only to SSE2.  Each hot kernel is therefore compiled twice from
//! one generic `#[inline(always)]` body: as written, and inside an
//! `#[target_feature(enable = "avx2,fma")]` (x86-64-v3) shim.  The entry
//! point picks the copy on every call with `is_x86_feature_detected!`,
//! which caches its answer, so a binary built for baseline x86-64 still
//! runs everywhere and uses `vfmadd` on CPUs that have it.
//!
//! The two copies differ only in instruction selection.  Rust never
//! contracts `a * b + c` into a fused operation or reassociates
//! floating-point arithmetic, and `mul_add` is one correctly rounded fused
//! operation whether it runs as a call or as `vfmadd`, so both copies
//! produce bitwise-identical results.  The test below checks this for
//! every dispatched kernel.

/// `true` when this CPU runs the x86-64-v3 (AVX2 + FMA) kernel copies.
#[inline]
pub(crate) fn has_v3() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The instruction-set level the dispatched dense kernels run at on this
/// CPU: `"x86-64-v3"` (AVX2 + FMA) or `"baseline"` (every other CPU,
/// including every non-x86-64 target).
pub fn isa_level() -> &'static str {
    if has_v3() {
        "x86-64-v3"
    } else {
        "baseline"
    }
}

/// Define `$name` as the dispatching entry point of the `#[inline(always)]`
/// kernel body `$body`, which must take the same arguments.  On x86-64 the
/// entry runs a copy of the body compiled for AVX2 + FMA when the CPU has
/// both, and the body as compiled otherwise.
macro_rules! multiversion {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident<$t:ident: $bound:path $(, const $c:ident: $cty:ty)*>(
            $($arg:ident: $ty:ty),* $(,)?
        ) $(-> $ret:ty)? = $body:ident;
    ) => {
        $(#[$attr])*
        $vis fn $name<$t: $bound $(, const $c: $cty)*>($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2,fma")]
                fn v3<$t: $bound $(, const $c: $cty)*>($($arg: $ty),*) $(-> $ret)? {
                    $body::<$t $(, $c)*>($($arg),*)
                }
                if $crate::isa::has_v3() {
                    // SAFETY: `v3` needs only the avx2 and fma target
                    // features, and `has_v3` has just detected both on the
                    // running CPU.
                    return unsafe { v3::<$t $(, $c)*>($($arg),*) };
                }
            }
            $body::<$t $(, $c)*>($($arg),*)
        }
    };
}
pub(crate) use multiversion;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{
        self, c_tiles, Op, GEMM_DIRECT_THRESHOLD, GEMM_MR, GEMM_MR_COMPLEX, GEMM_NR,
        GEMM_NR_COMPLEX,
    };
    use crate::cholesky::{self, BkPivot};
    use crate::columns;
    use crate::dense::DenseMatrix;
    use crate::lu;
    use crate::random::{random_matrix, random_vector};
    use crate::scalar::{RealScalar, Scalar};
    use crate::triangular::{self, Diag, Triangle};
    use crate::Complex64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const OPS: [Op; 3] = [Op::None, Op::Trans, Op::ConjTrans];

    /// Bit patterns of the real and imaginary parts (`f32` widens exactly).
    fn bits<T: Scalar>(xs: &[T]) -> Vec<(u64, u64)> {
        xs.iter()
            .map(|x| (x.real().to_f64().to_bits(), x.imag().to_f64().to_bits()))
            .collect()
    }

    /// A random stored operand whose `op` is `rows x cols`.
    fn operand<T: Scalar>(rng: &mut StdRng, op: Op, rows: usize, cols: usize) -> DenseMatrix<T> {
        if op == Op::None {
            random_matrix(rng, rows, cols)
        } else {
            random_matrix(rng, cols, rows)
        }
    }

    fn check_gemm<T: Scalar, const MR: usize, const NR: usize>(rng: &mut StdRng) {
        let alpha = T::from_f64(-0.75);
        // Direct path (the last shape one multiply-add below the threshold;
        // the dot form runs one padded lane group in the first with real
        // scalars and five per-column leftovers with complex ones, a full
        // and a padded group in the second, two and a per-column leftover
        // in the third, and full groups only in the fourth),
        // then the blocked path: exactly at the threshold, ragged MR/NR edges,
        // several row tiles with two k slabs, two column tiles.
        let shapes = [
            (7, 5, 9),
            (29, 14, 40),
            (33, 17, 40),
            (63, 64, 65),
            (64, 64, 64),
            (101, 67, 129),
            (197, 35, 300),
            (21, 530, 30),
        ];
        for (m, n, k) in shapes {
            for op_a in OPS {
                for op_b in OPS {
                    let a = operand::<T>(rng, op_a, m, k);
                    let b = operand::<T>(rng, op_b, k, n);
                    let mut base: DenseMatrix<T> = random_matrix(rng, m, n);
                    let mut disp = base.clone();
                    let (a, b) = (a.as_ref(), b.as_ref());
                    if m * n * k < GEMM_DIRECT_THRESHOLD {
                        blas::gemm_direct_body(alpha, &a, op_a, &b, op_b, &mut base.as_mut());
                        blas::gemm_direct(alpha, &a, op_a, &b, op_b, &mut disp.as_mut());
                    } else {
                        for tile in &mut c_tiles(&mut base.as_mut()) {
                            blas::gemm_tile_body::<T, MR, NR>(alpha, &a, op_a, &b, op_b, tile);
                        }
                        for tile in &mut c_tiles(&mut disp.as_mut()) {
                            blas::gemm_tile::<T, MR, NR>(alpha, &a, op_a, &b, op_b, tile);
                        }
                    }
                    assert_eq!(
                        bits(base.data()),
                        bits(disp.data()),
                        "gemm {m}x{n}x{k} {op_a:?}/{op_b:?}"
                    );
                }
            }
        }
        // The one-column kernels `gemm` sends `n = 1` to, with leftover
        // outputs, leftover columns and several row chunks.
        for (m, k) in [(9, 40), (177, 1200), (13, 20165), (1100, 300)] {
            let x: Vec<T> = random_vector(rng, k);
            let c: Vec<T> = random_vector(rng, m);
            let a: DenseMatrix<T> = random_matrix(rng, m, k);
            let (mut base, mut disp) = (c.clone(), c.clone());
            blas::one_column_rows_body(&a.as_ref(), 0, &x, &mut base);
            blas::one_column_rows(&a.as_ref(), 0, &x, &mut disp);
            assert_eq!(bits(&base), bits(&disp), "one-column rows {m}x{k}");
            let a: DenseMatrix<T> = random_matrix(rng, k, m);
            for conj in [false, true] {
                let (mut base, mut disp) = (c.clone(), c.clone());
                blas::one_column_dots_body(&a.as_ref(), conj, 0, &x, &mut base);
                blas::one_column_dots(&a.as_ref(), conj, 0, &x, &mut disp);
                assert_eq!(
                    bits(&base),
                    bits(&disp),
                    "one-column dots {m}x{k} conj {conj}"
                );
            }
        }
    }

    fn check_level2<T: Scalar>(rng: &mut StdRng) {
        let alpha: T = random_vector(rng, 1)[0];
        for len in (0..20).chain([255, 1000]) {
            let x: Vec<T> = random_vector(rng, len);
            let mut base: Vec<T> = random_vector(rng, len);
            let mut disp = base.clone();
            blas::axpy_slice_body(alpha, &x, &mut base);
            blas::axpy_slice(alpha, &x, &mut disp);
            assert_eq!(bits(&base), bits(&disp), "axpy length {len}");
        }
        for (m, n) in [(13, 7), (64, 64), (1, 9), (130, 3)] {
            let a: DenseMatrix<T> = random_matrix(rng, m, n);
            for op in OPS {
                let (rows, cols) = if op == Op::None { (m, n) } else { (n, m) };
                let x: Vec<T> = random_vector(rng, cols);
                for beta in [T::zero(), T::from_f64(0.5)] {
                    let mut base: Vec<T> = random_vector(rng, rows);
                    let mut disp = base.clone();
                    blas::gemv_body(alpha, a.as_ref(), op, &x, beta, &mut base);
                    blas::gemv(alpha, a.as_ref(), op, &x, beta, &mut disp);
                    assert_eq!(bits(&base), bits(&disp), "gemv {m}x{n} {op:?}");
                }
            }
        }
    }

    fn check_lu<T: Scalar>(rng: &mut StdRng) {
        // A 64x64 leaf and a tall blocked-LU panel.
        for (m, n) in [(64, 64), (150, 40)] {
            let mut base: DenseMatrix<T> = random_matrix(rng, m, n);
            let mut disp = base.clone();
            let piv_base = lu::getrf_unblocked_body(base.as_mut());
            let piv_disp = lu::getrf_unblocked(disp.as_mut());
            assert_eq!(piv_base, piv_disp);
            assert_eq!(bits(base.data()), bits(disp.data()), "getrf {m}x{n}");
        }
    }

    /// `G G^H + n I`: Hermitian positive definite.
    fn spd<T: Scalar>(rng: &mut StdRng, n: usize) -> DenseMatrix<T> {
        let g: DenseMatrix<T> = random_matrix(rng, n, n);
        let mut a = DenseMatrix::zeros(n, n);
        let g = g.as_ref();
        blas::gemm(
            T::one(),
            g,
            Op::None,
            g,
            Op::ConjTrans,
            T::zero(),
            a.as_mut(),
        );
        for i in 0..n {
            a[(i, i)] += T::from_f64(n as f64);
        }
        a
    }

    /// A Hermitian indefinite matrix whose diagonal is large on every third
    /// row and zero elsewhere, so Bunch-Kaufman takes both pivot sizes.
    fn indefinite<T: Scalar>(rng: &mut StdRng, n: usize) -> DenseMatrix<T> {
        let g: DenseMatrix<T> = random_matrix(rng, n, n);
        let mut a = g.conj_transpose();
        a.axpy(T::one(), &g);
        for i in 0..n {
            a[(i, i)] = T::from_f64(if i % 3 == 0 { 8.0 } else { 0.0 });
        }
        a
    }

    fn check_symmetric<T: Scalar>(rng: &mut StdRng) {
        let n = 64;
        let a = spd::<T>(rng, n);
        let (mut base, mut disp) = (a.clone(), a.clone());
        let r_base = cholesky::potf2_unblocked_body(base.as_mut());
        let r_disp = cholesky::potf2_unblocked(disp.as_mut());
        assert_eq!(
            (r_base, bits(base.data())),
            (r_disp, bits(disp.data())),
            "potf2"
        );

        let inf = T::Real::INFINITY;
        for a in [a, indefinite::<T>(rng, n)] {
            let (mut base, mut disp) = (a.clone(), a.clone());
            let r_base = cholesky::ldlt_guarded_in_place_body(base.as_mut(), inf);
            let r_disp = cholesky::ldlt_guarded_in_place(disp.as_mut(), inf);
            assert_eq!(
                (r_base, bits(base.data())),
                (r_disp, bits(disp.data())),
                "ldlt"
            );
        }

        let a = indefinite::<T>(rng, n);
        let (mut base, mut disp) = (a.clone(), a.clone());
        let piv = cholesky::bunch_kaufman_in_place_body(base.as_mut()).expect("nonsingular");
        let piv_disp = cholesky::bunch_kaufman_in_place(disp.as_mut()).expect("nonsingular");
        assert_eq!(
            (&piv, bits(base.data())),
            (&piv_disp, bits(disp.data())),
            "bunch-kaufman"
        );
        assert!(
            piv.iter().any(|p| matches!(p, BkPivot::Single(_)))
                && piv.iter().any(|p| matches!(p, BkPivot::Double(_))),
            "the input must force both pivot sizes: {piv:?}"
        );

        // A full lane group with one per-column leftover, then with a
        // padded group of seven, then a wide pass and a padded group.
        for w in [9, 15, 37] {
            let rhs: DenseMatrix<T> = random_matrix(rng, n, w);
            let (mut x_base, mut x_disp) = (rhs.clone(), rhs);
            cholesky::bunch_kaufman_solve_in_place_body(base.as_ref(), &piv, x_base.as_mut());
            cholesky::bunch_kaufman_solve_in_place(base.as_ref(), &piv, x_disp.as_mut());
            assert_eq!(
                bits(x_base.data()),
                bits(x_disp.data()),
                "bunch-kaufman solve, {w} columns"
            );
        }
    }

    /// The lane kernels of the triangular solves on a 64x64 LU leaf factor:
    /// no group, one padded group, one full group, a full and a padded one,
    /// two full groups, one wide pass with a padded group after it, and the
    /// laplace-surface-2d leaf width `W = 138`, four wide passes and one
    /// pass of two groups, the second padded from two real columns (a
    /// kernel pads whatever it is given; the cut-off is its caller's);
    /// then the per-column loops.
    fn check_triangular<T: Scalar>(rng: &mut StdRng) {
        let n = 64;
        let mut f: DenseMatrix<T> = random_matrix(rng, n, n);
        lu::getrf_in_place(f.as_mut()).expect("nonsingular");
        let f = f.as_ref();
        for w in [0, 5, 8, 13, 16, 37, 138] {
            let rhs: DenseMatrix<T> = random_matrix(rng, n, w);
            for diag in [Diag::Unit, Diag::NonUnit] {
                for triangle in [Triangle::Lower, Triangle::Upper] {
                    let (mut base, mut disp) = (rhs.clone(), rhs.clone());
                    triangular::solve_triangular_lanes_body(f, triangle, diag, base.as_mut());
                    triangular::solve_triangular_lanes(f, triangle, diag, disp.as_mut());
                    assert_eq!(
                        bits(base.data()),
                        bits(disp.data()),
                        "trsm lanes {triangle:?} {diag:?}, {w} columns"
                    );
                    let (mut base, mut disp) = (rhs.clone(), rhs.clone());
                    triangular::solve_triangular_columns_body(f, triangle, diag, base.as_mut());
                    triangular::solve_triangular_columns(f, triangle, diag, disp.as_mut());
                    assert_eq!(
                        bits(base.data()),
                        bits(disp.data()),
                        "trsm columns {triangle:?} {diag:?}, {w} columns"
                    );
                }
                let (mut base, mut disp) = (rhs.clone(), rhs.clone());
                cholesky::solve_conj_transpose_lower_lanes_body(f, diag, base.as_mut());
                cholesky::solve_conj_transpose_lower_lanes(f, diag, disp.as_mut());
                assert_eq!(
                    bits(base.data()),
                    bits(disp.data()),
                    "conj-transpose lanes {diag:?}, {w} columns"
                );
                let (mut base, mut disp) = (rhs.clone(), rhs.clone());
                cholesky::solve_conj_transpose_lower_columns_body(f, diag, base.as_mut());
                cholesky::solve_conj_transpose_lower_columns(f, diag, disp.as_mut());
                assert_eq!(
                    bits(base.data()),
                    bits(disp.data()),
                    "conj-transpose columns {diag:?}, {w} columns"
                );
            }
        }
    }

    /// The column-list kernels of adaptive cross approximation: every
    /// group and leftover count of both, zero coefficients included, on one
    /// chunk of entries and at an offset into the columns.
    fn check_columns<T: Scalar>(rng: &mut StdRng) {
        let len = 300;
        for count in 0..=17 {
            let xs: Vec<Vec<T>> = (0..count).map(|_| random_vector(rng, len)).collect();
            let mut coefs: Vec<T> = random_vector(rng, count);
            for c in coefs.iter_mut().step_by(5) {
                *c = T::zero();
            }
            let y: Vec<T> = random_vector(rng, len - 7);
            for conj in [false, true] {
                let (mut base, mut disp) = (y[..len - 9].to_vec(), y[..len - 9].to_vec());
                columns::sub_columns_chunk_body(&mut base, 9, &xs, &coefs, conj);
                columns::sub_columns_chunk(&mut disp, 9, &xs, &coefs, conj);
                assert_eq!(
                    bits(&base),
                    bits(&disp),
                    "sub_columns {count} columns conj {conj}"
                );
                let (mut base, mut disp) = (vec![T::one(); count], vec![T::one(); count]);
                columns::dot_columns_chunk_body(&xs, &y, conj, &mut base);
                columns::dot_columns_chunk(&xs, &y, conj, &mut disp);
                assert_eq!(
                    bits(&base),
                    bits(&disp),
                    "dot_columns {count} columns conj {conj}"
                );
            }
        }
    }

    fn check_all<T: Scalar, const MR: usize, const NR: usize>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        check_gemm::<T, MR, NR>(&mut rng);
        check_level2::<T>(&mut rng);
        check_lu::<T>(&mut rng);
        check_symmetric::<T>(&mut rng);
        check_triangular::<T>(&mut rng);
        check_columns::<T>(&mut rng);
    }

    #[test]
    fn dispatched_kernels_match_baseline_bodies_bitwise() {
        if !has_v3() {
            println!("isa cross-level check skipped: this CPU lacks avx2+fma");
            return;
        }
        let body_level = if cfg!(all(target_feature = "avx2", target_feature = "fma")) {
            "x86-64-v3"
        } else {
            "baseline"
        };
        println!(
            "isa cross-level check: {body_level} bodies vs {} entries",
            isa_level()
        );
        check_all::<f64, GEMM_MR, GEMM_NR>(1);
        check_all::<f32, GEMM_MR, GEMM_NR>(2);
        check_all::<Complex64, GEMM_MR_COMPLEX, GEMM_NR_COMPLEX>(3);
    }
}
