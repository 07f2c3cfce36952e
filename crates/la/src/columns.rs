//! Level-2 kernels over a matrix held as a list of equal-length columns.
//!
//! Adaptive cross approximation grows its factors one column at a time,
//! so it keeps them as a list of vectors rather than a
//! [`DenseMatrix`](crate::DenseMatrix).  Each cross it adds costs two
//! passes over every earlier column: subtracting them from a freshly evaluated residual row
//! or column ([`sub_columns`]), and the dot products of the norm update
//! ([`dot_columns`]).  Both passes stream every earlier column, so long
//! ones are spread over the current rayon pool.
//!
//! # Determinism
//!
//! [`sub_columns`] splits its output into chunks of [`COLUMN_CHUNK`]
//! entries; the boundaries depend only on the length.  Every entry still
//! subtracts the columns in ascending order, one unfused `y -= c * x` at a
//! time, so the chunking changes no bit.  [`dot_columns`] hands whole dot
//! products to the tasks and sums each in index order.  The results are
//! therefore bitwise identical at every thread count, and equal to the
//! plain sequential loops.

use crate::scalar::Scalar;
use rayon::prelude::*;

/// Entries of the output that one task of [`sub_columns`] owns.  Vectors
/// of at most this length stay on the calling thread, and so do the dot
/// products of [`dot_columns`] over them.
pub const COLUMN_CHUNK: usize = 1024;

/// `y[e] -= coefs[k] * x_k[e]` for `k = 0, 1, ...` in ascending order,
/// with `x_k[e]` conjugated when `conj` is set.  Columns whose coefficient
/// is zero are skipped.
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
        y.par_chunks_mut(COLUMN_CHUNK)
            .enumerate()
            .for_each(|(c, chunk)| sub_columns_chunk(chunk, c * COLUMN_CHUNK, xs, coefs, conj));
    }
}

/// [`sub_columns`] on the output entries `offset..offset + y.len()`.
fn sub_columns_chunk<T: Scalar>(
    y: &mut [T],
    offset: usize,
    xs: &[Vec<T>],
    coefs: &[T],
    conj: bool,
) {
    for (x, &c) in xs.iter().zip(coefs) {
        if c == T::zero() {
            continue;
        }
        let x = &x[offset..offset + y.len()];
        if conj {
            for (o, &xe) in y.iter_mut().zip(x) {
                *o -= c * xe.conj();
            }
        } else {
            for (o, &xe) in y.iter_mut().zip(x) {
                *o -= c * xe;
            }
        }
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
    let dot = |x: &[T]| -> T {
        let x = &x[..y.len()];
        if conj_columns {
            x.iter().zip(y).map(|(&a, &b)| a.conj() * b).sum()
        } else {
            y.iter().zip(x).map(|(&a, &b)| a.conj() * b).sum()
        }
    };
    if y.len() <= COLUMN_CHUNK {
        for (o, x) in out.iter_mut().zip(xs) {
            *o = dot(x);
        }
    } else {
        out.par_iter_mut()
            .enumerate()
            .for_each(|(l, o)| *o = dot(&xs[l]));
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

    /// Seven random columns with every third coefficient zero (one of them
    /// a negative zero).
    fn inputs<T: Scalar>(rng: &mut StdRng, len: usize) -> (Vec<Vec<T>>, Vec<T>) {
        let xs: Vec<Vec<T>> = (0..7).map(|_| random_vector(rng, len)).collect();
        let mut coefs: Vec<T> = random_vector(rng, xs.len());
        coefs[0] = T::zero();
        coefs[3] = T::from_f64(-0.0);
        coefs[6] = T::zero();
        (xs, coefs)
    }

    fn check<T: Scalar>(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for len in LENGTHS {
            let (xs, coefs) = inputs::<T>(&mut rng, len);
            let y0: Vec<T> = random_vector(&mut rng, len);
            for conj in [false, true] {
                // The loop the kernel replaces, whole vector per column.
                let mut expect = y0.clone();
                for (x, &c) in xs.iter().zip(&coefs) {
                    if c == T::zero() {
                        continue;
                    }
                    for (o, &xe) in expect.iter_mut().zip(x) {
                        *o -= if conj { c * xe.conj() } else { c * xe };
                    }
                }
                for threads in [1, 2, 8] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    let mut y = y0.clone();
                    pool.install(|| sub_columns(&mut y, &xs, &coefs, conj));
                    assert_eq!(
                        bits(&y),
                        bits(&expect),
                        "sub_columns len {len} conj {conj} threads {threads}"
                    );
                }
            }
            for conj_columns in [false, true] {
                let expect: Vec<T> = xs
                    .iter()
                    .map(|x| {
                        let mut acc: T = std::iter::empty::<T>().sum();
                        for (&xe, &ye) in x.iter().zip(&y0) {
                            acc += if conj_columns {
                                xe.conj() * ye
                            } else {
                                ye.conj() * xe
                            };
                        }
                        acc
                    })
                    .collect();
                for threads in [1, 2, 8] {
                    let pool = rayon::ThreadPoolBuilder::new()
                        .num_threads(threads)
                        .build()
                        .unwrap();
                    let mut out = vec![T::one(); xs.len()];
                    pool.install(|| dot_columns(&xs, &y0, conj_columns, &mut out));
                    assert_eq!(
                        bits(&out),
                        bits(&expect),
                        "dot_columns len {len} conj_columns {conj_columns} threads {threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_match_plain_loops_bitwise_at_every_thread_count() {
        check::<f64>(1);
        check::<f32>(2);
        check::<Complex64>(3);
    }
}
