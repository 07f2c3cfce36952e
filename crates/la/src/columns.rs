//! Level-2 kernels over a matrix held as a list of equal-length columns.
//!
//! Adaptive cross approximation grows its factors one column at a time,
//! so it keeps them as a list of vectors rather than a
//! [`DenseMatrix`](crate::DenseMatrix).  Each cross it adds costs two
//! passes over every earlier column: subtracting them from a freshly evaluated residual row
//! or column ([`sub_columns`]), and the dot products of the norm update
//! ([`dot_columns`]).  Both passes stream every earlier column, so long
//! ones are spread over the current rayon pool.  Both run on the
//! x86-64-v3 copy where the CPU has one (see the `isa` module).
//!
//! # Determinism
//!
//! [`sub_columns`] splits its output into chunks of [`COLUMN_CHUNK`]
//! entries; the boundaries depend only on the length.  Inside a chunk it
//! takes the columns with a nonzero coefficient four per pass: each entry
//! is loaded once, subtracts the four columns in ascending order, one
//! unfused `y -= c * x` at a time, and is stored once; the one to three
//! leftover columns run one per pass.  Every entry therefore runs the
//! subtractions of the one-column loop in its order, and neither the
//! chunks nor the groups change a bit.  [`dot_columns`] runs eight dot
//! products side by side, one lane each: every lane starts where
//! [`Iterator::sum`] starts and adds its terms in index order, unfused,
//! and the leftover dots run one at a time.  Long vectors hand each group
//! of eight to a task of its own.  The results are therefore bitwise
//! identical at every thread count and ISA level, and equal to the plain
//! sequential loops.

use crate::isa::multiversion;
use crate::scalar::Scalar;
use crate::triangular::LANES;
use rayon::prelude::*;

/// Entries of the output that one task of [`sub_columns`] owns.  Vectors
/// of at most this length stay on the calling thread, and so do the dot
/// products of [`dot_columns`] over them.
pub const COLUMN_CHUNK: usize = 1024;

/// `y[e] -= coefs[k] * x_k[e]` for `k = 0, 1, ...` in ascending order,
/// with `x_k[e]` conjugated when `conj` is set.  Columns whose coefficient
/// is zero are skipped: they are never read, so an `inf` or `NaN` in one
/// does not reach `y`.
///
/// # Panics
/// Panics if `coefs` and `xs` differ in length or a column is shorter
/// than `y`.
pub fn sub_columns<T: Scalar>(y: &mut [T], xs: &[Vec<T>], coefs: &[T], conj: bool) {
    assert_eq!(
        xs.len(),
        coefs.len(),
        "sub_columns: one coefficient per column"
    );
    if y.len() <= COLUMN_CHUNK {
        sub_columns_chunk(y, 0, xs, coefs, conj);
    } else {
        // The closure only forwards: a closure is compiled with the target
        // features of the function it is written in, so the dispatch sits
        // in `sub_columns_chunk`.
        y.par_chunks_mut(COLUMN_CHUNK)
            .enumerate()
            .for_each(|(c, chunk)| sub_columns_chunk(chunk, c * COLUMN_CHUNK, xs, coefs, conj));
    }
}

multiversion! {
    /// [`sub_columns`] on the output entries `offset..offset + y.len()`.
    pub(crate) fn sub_columns_chunk<T: Scalar>(
        y: &mut [T],
        offset: usize,
        xs: &[Vec<T>],
        coefs: &[T],
        conj: bool,
    ) = sub_columns_chunk_body;
}

#[inline(always)]
pub(crate) fn sub_columns_chunk_body<T: Scalar>(
    y: &mut [T],
    offset: usize,
    xs: &[Vec<T>],
    coefs: &[T],
    conj: bool,
) {
    let rows = offset..offset + y.len();
    let mut group: [(&[T], T); 4] = [(&[], T::zero()); 4];
    let mut filled = 0;
    for (x, &c) in xs.iter().zip(coefs) {
        if c == T::zero() {
            continue;
        }
        group[filled] = (&x[rows.clone()], c);
        filled += 1;
        if filled == group.len() {
            sub_group(y, &group, conj);
            filled = 0;
        }
    }
    sub_group(y, &group[..filled], conj);
}

/// `y[e] -= c * x[e]` for the `(x, c)` of `group` in order (`x[e]`
/// conjugated when `conj`): a group of four in one pass over `y`, fewer
/// one column per pass.  Eight columns per pass read no faster than four
/// at gp-se-3d's root-block shape; the width changes no bit.  A plain
/// function, not a closure, so that it inlines into the dispatched copy.
#[inline(always)]
fn sub_group<T: Scalar>(y: &mut [T], group: &[(&[T], T)], conj: bool) {
    if let [(x0, c0), (x1, c1), (x2, c2), (x3, c3)] = *group {
        let entries = y.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3);
        for ((((o, &e0), &e1), &e2), &e3) in entries {
            let mut t = *o;
            t -= c0 * conj_if(conj, e0);
            t -= c1 * conj_if(conj, e1);
            t -= c2 * conj_if(conj, e2);
            t -= c3 * conj_if(conj, e3);
            *o = t;
        }
    } else {
        for &(x, c) in group {
            for (o, &xe) in y.iter_mut().zip(x) {
                *o -= c * conj_if(conj, xe);
            }
        }
    }
}

#[inline(always)]
fn conj_if<T: Scalar>(conj: bool, v: T) -> T {
    if conj {
        v.conj()
    } else {
        v
    }
}

/// `out[l] = sum_e conj(x_l[e]) * y[e]` when `conj_columns` is set, and
/// `out[l] = sum_e conj(y[e]) * x_l[e]` otherwise.  Each sum runs over the
/// whole vector in index order, as [`Iterator::sum`] does.
///
/// # Panics
/// Panics if `out` and `xs` differ in length or a column is shorter than
/// `y`.
pub fn dot_columns<T: Scalar>(xs: &[Vec<T>], y: &[T], conj_columns: bool, out: &mut [T]) {
    assert_eq!(xs.len(), out.len(), "dot_columns: one output per column");
    if y.len() <= COLUMN_CHUNK {
        dot_columns_chunk(xs, y, conj_columns, out);
    } else {
        // Each task is one group of eight outputs, or the leftovers; the
        // closure only forwards, as in `sub_columns`.
        out.par_chunks_mut(LANES).enumerate().for_each(|(g, out)| {
            let xs = &xs[g * LANES..g * LANES + out.len()];
            dot_columns_chunk(xs, y, conj_columns, out)
        });
    }
}

multiversion! {
    /// [`dot_columns`] on the calling thread: the full groups of eight
    /// outputs in lanes, then the leftovers one chain each.
    pub(crate) fn dot_columns_chunk<T: Scalar>(
        xs: &[Vec<T>],
        y: &[T],
        conj_columns: bool,
        out: &mut [T],
    ) = dot_columns_chunk_body;
}

#[inline(always)]
pub(crate) fn dot_columns_chunk_body<T: Scalar>(
    xs: &[Vec<T>],
    y: &[T],
    conj_columns: bool,
    out: &mut [T],
) {
    // `-0.0` for `f32` and `f64`, `+0` for complex: each lane starts where
    // the `Iterator::sum` it replaces starts.
    let start: T = std::iter::empty().sum();
    let n = y.len();
    let done = out.len() - out.len() % LANES;
    for (out, xs) in out.chunks_exact_mut(LANES).zip(xs.chunks_exact(LANES)) {
        let cols: [&[T]; LANES] = std::array::from_fn(|l| &xs[l][..n]);
        let mut acc = [start; LANES];
        for (e, &ye) in y.iter().enumerate() {
            for (s, x) in acc.iter_mut().zip(&cols) {
                *s += dot_term(conj_columns, x[e], ye);
            }
        }
        out.copy_from_slice(&acc);
    }
    for (o, x) in out[done..].iter_mut().zip(&xs[done..]) {
        let mut s = start;
        for (&xe, &ye) in x[..n].iter().zip(y) {
            s += dot_term(conj_columns, xe, ye);
        }
        *o = s;
    }
}

/// One term of [`dot_columns`]: `conj(x) * y` when `conj_columns`, else
/// `conj(y) * x`.
#[inline(always)]
fn dot_term<T: Scalar>(conj_columns: bool, x: T, y: T) -> T {
    if conj_columns {
        x.conj() * y
    } else {
        y.conj() * x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::random_vector;
    use crate::scalar::RealScalar;
    use crate::{Complex64, Scalar};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Bit patterns of the real and imaginary parts (`f32` widens exactly).
    fn bits<T: Scalar>(xs: &[T]) -> Vec<(u64, u64)> {
        xs.iter()
            .map(|x| (x.real().to_f64().to_bits(), x.imag().to_f64().to_bits()))
            .collect()
    }

    /// Pools of one, two and eight threads.
    fn pools() -> Vec<(usize, rayon::ThreadPool)> {
        [1, 2, 8]
            .into_iter()
            .map(|threads| {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                (threads, pool)
            })
            .collect()
    }

    /// Output lengths: empty, one entry, just below, at and just above one
    /// chunk, and two chunks with and without a ragged tail.
    const LENGTHS: [usize; 7] = [
        0,
        1,
        COLUMN_CHUNK - 1,
        COLUMN_CHUNK,
        COLUMN_CHUNK + 1,
        2 * COLUMN_CHUNK,
        2 * COLUMN_CHUNK + 3,
    ];

    /// Column counts: no group, full groups of four and of eight, and
    /// every leftover count of both.
    const COUNTS: std::ops::RangeInclusive<usize> = 0..=17;

    /// The loop [`sub_columns`] replaces, whole vector per column.
    fn sub_reference<T: Scalar>(y0: &[T], xs: &[Vec<T>], coefs: &[T], conj: bool) -> Vec<T> {
        let mut y = y0.to_vec();
        for (x, &c) in xs.iter().zip(coefs) {
            if c == T::zero() {
                continue;
            }
            for (o, &xe) in y.iter_mut().zip(x) {
                *o -= if conj { c * xe.conj() } else { c * xe };
            }
        }
        y
    }

    /// The sums [`dot_columns`] replaces, one chain per column.
    fn dot_reference<T: Scalar>(xs: &[Vec<T>], y: &[T], conj_columns: bool) -> Vec<T> {
        xs.iter()
            .map(|x| {
                let mut acc: T = std::iter::empty::<T>().sum();
                for (&xe, &ye) in x.iter().zip(y) {
                    acc += if conj_columns {
                        xe.conj() * ye
                    } else {
                        ye.conj() * xe
                    };
                }
                acc
            })
            .collect()
    }

    /// Both kernels on every pool against the plain loops, in both
    /// conjugation forms.
    fn compare<T: Scalar>(
        pools: &[(usize, rayon::ThreadPool)],
        xs: &[Vec<T>],
        coefs: &[T],
        y0: &[T],
        what: &str,
    ) {
        for conj in [false, true] {
            let expect = sub_reference(y0, xs, coefs, conj);
            for (threads, pool) in pools {
                let mut y = y0.to_vec();
                pool.install(|| sub_columns(&mut y, xs, coefs, conj));
                assert_eq!(
                    bits(&y),
                    bits(&expect),
                    "sub_columns {what} conj {conj} threads {threads}"
                );
            }
            let expect = dot_reference(xs, y0, conj);
            for (threads, pool) in pools {
                let mut out = vec![T::one(); xs.len()];
                pool.install(|| dot_columns(xs, y0, conj, &mut out));
                assert_eq!(
                    bits(&out),
                    bits(&expect),
                    "dot_columns {what} conj_columns {conj} threads {threads}"
                );
            }
        }
    }

    /// `count` random columns with every third coefficient zero,
    /// alternately a negative zero.
    fn inputs<T: Scalar>(rng: &mut StdRng, count: usize, len: usize) -> (Vec<Vec<T>>, Vec<T>) {
        let xs: Vec<Vec<T>> = (0..count).map(|_| random_vector(rng, len)).collect();
        let mut coefs: Vec<T> = random_vector(rng, count);
        for (i, c) in coefs.iter_mut().enumerate().step_by(3) {
            *c = T::from_f64(if i % 2 == 0 { 0.0 } else { -0.0 });
        }
        (xs, coefs)
    }

    fn check<T: Scalar>(seed: u64) {
        let pools = pools();
        let mut rng = StdRng::seed_from_u64(seed);
        for len in LENGTHS {
            for count in COUNTS {
                let (xs, coefs) = inputs::<T>(&mut rng, count, len);
                let y0: Vec<T> = random_vector(&mut rng, len);
                compare(
                    &pools,
                    &xs,
                    &coefs,
                    &y0,
                    &format!("len {len} count {count}"),
                );
            }
        }
    }

    #[test]
    fn kernels_match_plain_loops_bitwise_at_every_thread_count() {
        check::<f64>(1);
        check::<f32>(2);
        check::<Complex64>(3);
    }

    /// A column whose coefficient is zero is never read: one full of `inf`
    /// and `NaN` (`0 * inf` is `NaN`) sits in each of the four slots of
    /// both groups of nine live columns, and among the leftovers.
    fn check_skipped_columns<T: Scalar>(seed: u64) {
        let pools = pools();
        let mut rng = StdRng::seed_from_u64(seed);
        let (inf, nan) = (T::Real::INFINITY, T::Real::from_f64_real(f64::NAN));
        let poison = [
            T::from_parts(inf, nan),
            T::from_parts(-inf, inf),
            T::from_parts(nan, -inf),
        ];
        for len in [5, COLUMN_CHUNK + 5] {
            for p in 0..10 {
                let mut xs: Vec<Vec<T>> = (0..10).map(|_| random_vector(&mut rng, len)).collect();
                let mut coefs: Vec<T> = random_vector(&mut rng, 10);
                xs[p] = (0..len).map(|e| poison[e % 3]).collect();
                coefs[p] = T::from_f64(if p % 2 == 0 { 0.0 } else { -0.0 });
                let y0: Vec<T> = random_vector(&mut rng, len);
                assert!(sub_reference(&y0, &xs, &coefs, false)
                    .iter()
                    .all(|v| v.is_finite()));
                for conj in [false, true] {
                    let expect = sub_reference(&y0, &xs, &coefs, conj);
                    for (threads, pool) in &pools {
                        let mut y = y0.clone();
                        pool.install(|| sub_columns(&mut y, &xs, &coefs, conj));
                        assert_eq!(
                            bits(&y),
                            bits(&expect),
                            "len {len} poisoned column {p} conj {conj} threads {threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_coefficients_skip_columns_of_inf_and_nan() {
        check_skipped_columns::<f64>(4);
        check_skipped_columns::<f32>(5);
        check_skipped_columns::<Complex64>(6);
    }

    /// Every product's real part is `-0.0`, so each dot keeps the sign of
    /// its start: `Iterator::sum` starts at `-0.0` for reals and at `+0`
    /// for complex, and a lane started at the other zero reads the other
    /// sign.
    fn check_signed_zero_start<T: Scalar>() {
        let pools = pools();
        let want = if T::IS_COMPLEX { 0.0f64 } else { -0.0 };
        for len in [5, COLUMN_CHUNK + 5] {
            let y = vec![T::from_parts(-T::Real::one(), -T::Real::one()); len];
            for count in COUNTS {
                let xs = vec![vec![T::zero(); len]; count];
                for conj_columns in [false, true] {
                    let expect = dot_reference(&xs, &y, conj_columns);
                    assert!(expect
                        .iter()
                        .all(|s| s.real().to_f64().to_bits() == want.to_bits()));
                    for (threads, pool) in &pools {
                        let mut out = vec![T::one(); count];
                        pool.install(|| dot_columns(&xs, &y, conj_columns, &mut out));
                        assert_eq!(
                            bits(&out),
                            bits(&expect),
                            "len {len} count {count} conj_columns {conj_columns} threads {threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dots_of_negative_zero_products_keep_the_sum_start() {
        check_signed_zero_start::<f64>();
        check_signed_zero_start::<f32>();
        check_signed_zero_start::<Complex64>();
    }
}
