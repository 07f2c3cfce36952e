//! Column-major output windows of batched kernels and how to write to them
//! in parallel without data races.
//!
//! A batched kernel writes every batch entry's output into its own
//! column-major *window* of a shared device buffer.  Two layouts occur in the
//! HODLR algorithms:
//!
//! * **contiguous windows** — e.g. the per-node `K` matrices or the stacked
//!   `W` work matrices: the element spans of different windows do not
//!   overlap, so the buffer can be split into disjoint `&mut` slices;
//! * **row-block windows** — e.g. "rows `I_alpha` of `Ybig`, all columns":
//!   every window has the same leading dimension (the full matrix height)
//!   and a distinct row interval.  The element *spans* of different windows
//!   interleave, so they cannot be expressed as disjoint slices, but the
//!   elements actually touched are disjoint.
//!
//! [`process_windows_mut`] classifies the batch into one of those two cases
//! (panicking if neither disjointness proof holds) and then runs a
//! user-provided kernel on every window, in parallel when requested.  The
//! row-block case never materialises overlapping `&mut` references: each
//! window is copied column-by-column into thread-local scratch through raw
//! pointers, processed there, and copied back — raw-pointer reads and writes
//! to provably disjoint locations are race-free.  Past a bound on that
//! scratch ([`SCRATCH_FLOOR_BYTES`]) the windows run one at a time in place
//! instead; a kernel sees the same values either way, so the choice never
//! changes a bit.
//!
//! [`launch_on_windows`] is the body every launch without an error channel
//! shares: one [`Device::launch`], the kernel on every output window, and
//! NaN over the windows when the fault plan poisons or fails the launch.

use crate::device::Device;
use crate::fault::poison_span;
use crate::slices::disjoint_slices_mut;
use crate::stream::Stream;
use hodlr_la::{MatMut, MatRef, Scalar};
use rayon::prelude::*;

/// Row-block scratch in flight, in bytes, that a batch may hold whatever
/// share of its buffer that is; past both it and a quarter of the buffer,
/// the windows run one at a time in place.
///
/// Without the floor the quarter bound would also send the top levels'
/// stacked `W` (`2w x nrhs` per parent) one product at a time, and those
/// `V^H x` products have few `C` tiles to split inside gemm (`m = w`, e.g.
/// 25 rows against `GEMM_MC` = 96).  It must stay at or below 512 KiB, a
/// quarter of an `8192 x 32` block of `f64`: on two threads, level 1 of
/// that block puts 1 MiB in flight, half the block, and an in-place
/// blocked solve of it may hold no more than a quarter.
const SCRATCH_FLOOR_BYTES: usize = 512 << 10;

/// A column-major window into a device buffer: `rows x cols` elements
/// starting at `offset`, with leading dimension `ld`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) struct MatWindow {
    /// Element offset of entry (0, 0) of the window.
    pub offset: usize,
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Leading dimension (distance between columns) in the buffer.
    pub ld: usize,
}

impl MatWindow {
    /// Number of buffer elements the window spans (0 for an empty window).
    pub(crate) fn span(&self) -> usize {
        if self.rows == 0 || self.cols == 0 {
            0
        } else {
            self.ld * (self.cols - 1) + self.rows
        }
    }

    /// `true` if the window touches no elements.
    pub(crate) fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Whether the window lies inside a buffer of `len` elements.
    pub(crate) fn fits(&self, len: usize) -> bool {
        self.offset + self.span() <= len
    }

    /// The window as a read-only view into `data`, its buffer.
    pub(crate) fn view<'a, T: Scalar>(&self, data: &'a [T]) -> MatRef<'a, T> {
        let elements = &data[self.offset..self.offset + self.span()];
        MatRef::from_parts(elements, self.rows, self.cols, self.ld.max(1))
    }
}

/// How a set of output windows can be proven pairwise disjoint.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Partition {
    /// Element spans do not overlap: split into disjoint slices.
    Contiguous,
    /// Spans of some windows interleave, but every cluster of
    /// span-overlapping windows shares one leading dimension and owns
    /// pairwise-disjoint row intervals of it, so the touched elements are
    /// still disjoint (e.g. row blocks of `Ybig`, or the two stacked
    /// children of one parent's work matrix).
    RowBlocks,
}

fn classify(windows: &[MatWindow]) -> Partition {
    let occupied: Vec<&MatWindow> = windows.iter().filter(|w| !w.is_empty()).collect();
    if occupied.len() <= 1 {
        return Partition::Contiguous;
    }

    // Proof 1: sorted element spans do not overlap.
    let mut by_offset: Vec<&MatWindow> = occupied.clone();
    by_offset.sort_unstable_by_key(|w| w.offset);
    if by_offset
        .windows(2)
        .all(|p| p[0].offset + p[0].span() <= p[1].offset)
    {
        return Partition::Contiguous;
    }

    // Proof 2: sweep over windows sorted by offset, grouping those whose
    // spans overlap into clusters.  Windows in different clusters are
    // span-disjoint; windows inside one cluster must share a leading
    // dimension and own pairwise-disjoint row intervals, which proves that
    // the elements they touch are disjoint even though their spans overlap.
    let mut cluster: Vec<&MatWindow> = Vec::new();
    let mut cluster_end = 0usize;
    let check_cluster = |cluster: &[&MatWindow]| -> bool {
        if cluster.len() <= 1 {
            return true;
        }
        let ld = cluster[0].ld;
        if !cluster.iter().all(|w| w.ld == ld) {
            return false;
        }
        if !cluster.iter().all(|w| (w.offset % ld) + w.rows <= ld) {
            return false;
        }
        let mut rows: Vec<(usize, usize)> =
            cluster.iter().map(|w| (w.offset % ld, w.rows)).collect();
        rows.sort_unstable();
        rows.windows(2).all(|p| p[0].0 + p[0].1 <= p[1].0)
    };
    let mut ok = true;
    for w in &by_offset {
        if cluster.is_empty() || w.offset < cluster_end {
            cluster.push(w);
        } else {
            ok &= check_cluster(&cluster);
            cluster.clear();
            cluster.push(w);
        }
        cluster_end = cluster_end.max(w.offset + w.span());
    }
    ok &= check_cluster(&cluster);
    if ok {
        return Partition::RowBlocks;
    }

    panic!(
        "batched kernel output windows overlap: they are neither span-disjoint \
         nor cluster-wise row-disjoint"
    );
}

/// Raw base pointer that may be shared across rayon workers.  Every worker
/// only touches the elements of its own (verified disjoint) window.
struct RawBase<T>(*mut T);
// SAFETY: a shared base lets each worker read and write the elements of its
// own window from its own thread, which moves `T` values between threads
// (hence `T: Send`); `process_windows_mut` proves the windows pairwise
// disjoint before any worker runs, so no element is reached from two
// threads.
unsafe impl<T: Send> Sync for RawBase<T> {}
// SAFETY: as for `Sync`: the pointer only reaches elements of the windows
// proven disjoint, and `T: Send` lets them be written from another thread.
unsafe impl<T: Send> Send for RawBase<T> {}

impl<T> RawBase<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Run `kernel(index, window_view)` for every window, in parallel when
/// `parallel` is set, after proving the windows disjoint.
///
/// The view handed to the kernel is a `rows x cols` [`MatMut`]; in the
/// row-block case it is backed by task scratch that is copied back into
/// the buffer when the kernel returns, unless [`scratch_fits`] says no.
///
/// # Panics
/// Panics if the windows cannot be proven disjoint or reach past the end of
/// `data`.
pub(crate) fn process_windows_mut<T, F>(
    data: &mut [T],
    windows: &[MatWindow],
    parallel: bool,
    kernel: F,
) where
    T: Scalar,
    F: Fn(usize, MatMut<'_, T>) + Sync,
{
    for w in windows {
        assert!(
            w.offset + w.span() <= data.len(),
            "window ({}, {}x{}, ld {}) reaches past the end of the buffer",
            w.offset,
            w.rows,
            w.cols,
            w.ld
        );
    }
    match classify(windows) {
        Partition::Contiguous => {
            let ranges: Vec<(usize, usize)> =
                windows.iter().map(|w| (w.offset, w.span())).collect();
            let slices = disjoint_slices_mut(data, &ranges);
            let run = |(i, slice): (usize, &mut [T])| {
                let w = &windows[i];
                if w.is_empty() {
                    return;
                }
                kernel(i, MatMut::from_parts(slice, w.rows, w.cols, w.ld.max(1)));
            };
            if parallel && windows.len() > 1 {
                slices
                    .into_par_iter()
                    .enumerate()
                    .for_each(|(i, s)| run((i, s)));
            } else {
                slices
                    .into_iter()
                    .enumerate()
                    .for_each(|(i, s)| run((i, s)));
            }
        }
        Partition::RowBlocks if !scratch_fits::<T>(data.len(), windows, parallel) => {
            for (i, w) in windows.iter().enumerate() {
                if !w.is_empty() {
                    let view = &mut data[w.offset..w.offset + w.span()];
                    kernel(i, MatMut::from_parts(view, w.rows, w.cols, w.ld));
                }
            }
        }
        Partition::RowBlocks => {
            let base = RawBase(data.as_mut_ptr());
            let run = |i: usize| {
                let ptr = base.get();
                let w = &windows[i];
                if w.is_empty() {
                    return;
                }
                // Copy the window into thread-local scratch.
                let mut scratch = vec![T::zero(); w.rows * w.cols];
                for c in 0..w.cols {
                    // SAFETY: the source column lies inside `data` (bounds
                    // asserted above) and no other worker writes it — the
                    // row intervals were proven pairwise disjoint.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            ptr.add(w.offset + c * w.ld),
                            scratch.as_mut_ptr().add(c * w.rows),
                            w.rows,
                        );
                    }
                }
                kernel(i, MatMut::from_parts(&mut scratch, w.rows, w.cols, w.rows));
                // Copy the result back.
                for c in 0..w.cols {
                    // SAFETY: as above; this worker is the only writer of
                    // these elements.
                    unsafe {
                        std::ptr::copy_nonoverlapping(
                            scratch.as_ptr().add(c * w.rows),
                            ptr.add(w.offset + c * w.ld),
                            w.rows,
                        );
                    }
                }
            };
            if parallel && windows.len() > 1 {
                (0..windows.len()).into_par_iter().for_each(run);
            } else {
                (0..windows.len()).for_each(run);
            }
        }
    }
}

/// One launch of `label` on `stream`, metering `flops`, whose outputs are
/// the `windows` of `out` and which has no error channel: record it and
/// consult the fault plan ([`Device::launch`]), run `kernel` on every
/// window ([`process_windows_mut`]), and write NaN over every window when
/// the plan poisons the launch or fails it.
pub(crate) fn launch_on_windows<T, F>(
    device: &Device,
    label: &'static str,
    stream: Stream,
    flops: u64,
    out: &mut [T],
    windows: &[MatWindow],
    kernel: F,
) where
    T: Scalar,
    F: Fn(usize, MatMut<'_, T>) + Sync,
{
    let poison = device
        .launch(label, stream, windows.len(), flops)
        .unwrap_or(true);
    process_windows_mut(out, windows, device.is_parallel(), kernel);
    if poison {
        poison_windows(out, windows);
    }
}

/// Write NaN over the span of every window of `data`.
pub(crate) fn poison_windows<T: Scalar>(data: &mut [T], windows: &[MatWindow]) {
    for w in windows {
        poison_span(data, w.offset, w.span());
    }
}

/// Whether the scratch in flight, `min(tasks, windows) x` the widest
/// window, stays within a quarter of the `len`-element buffer or below
/// [`SCRATCH_FLOOR_BYTES`].
fn scratch_fits<T>(len: usize, windows: &[MatWindow], parallel: bool) -> bool {
    let widest = windows.iter().map(|w| w.rows * w.cols).max().unwrap_or(0);
    let tasks = if parallel {
        rayon::current_num_threads().min(windows.len())
    } else {
        1
    };
    let in_flight = tasks * widest;
    4 * in_flight <= len || in_flight * std::mem::size_of::<T>() <= SCRATCH_FLOOR_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;
    use hodlr_la::DenseMatrix;

    #[test]
    fn contiguous_windows_are_processed_in_place() {
        // Two 2x2 blocks side by side in a buffer of 8 elements.
        let mut data = vec![1.0f64; 8];
        let windows = vec![
            MatWindow {
                offset: 0,
                rows: 2,
                cols: 2,
                ld: 2,
            },
            MatWindow {
                offset: 4,
                rows: 2,
                cols: 2,
                ld: 2,
            },
        ];
        process_windows_mut(&mut data, &windows, true, |i, mut m| {
            m.set(0, 0, 10.0 * (i + 1) as f64);
        });
        assert_eq!(data[0], 10.0);
        assert_eq!(data[4], 20.0);
    }

    #[test]
    fn row_block_windows_interleave_safely() {
        // A 6x3 column-major matrix; window 0 owns rows 0..2, window 1 owns
        // rows 2..6, both across all 3 columns.
        let n = 6;
        let cols = 3;
        let mut data: Vec<f64> = (0..n * cols).map(|x| x as f64).collect();
        let windows = vec![
            MatWindow {
                offset: 0,
                rows: 2,
                cols,
                ld: n,
            },
            MatWindow {
                offset: 2,
                rows: 4,
                cols,
                ld: n,
            },
        ];
        let original = data.clone();
        process_windows_mut(&mut data, &windows, true, |i, mut m| {
            for c in 0..m.cols() {
                for r in 0..m.rows() {
                    let v = m.get(r, c);
                    m.set(r, c, v + 100.0 * (i + 1) as f64);
                }
            }
        });
        let expect: Vec<f64> = original
            .iter()
            .enumerate()
            .map(|(idx, &v)| {
                let row = idx % n;
                if row < 2 {
                    v + 100.0
                } else {
                    v + 200.0
                }
            })
            .collect();
        assert_eq!(data, expect);
    }

    #[test]
    fn scratch_view_has_compact_leading_dimension() {
        let mut data = vec![0.0f64; 12];
        let windows = vec![
            MatWindow {
                offset: 0,
                rows: 2,
                cols: 2,
                ld: 4,
            },
            MatWindow {
                offset: 2,
                rows: 2,
                cols: 2,
                ld: 4,
            },
        ];
        process_windows_mut(&mut data, &windows, false, |_, m| {
            assert_eq!(m.rows(), 2);
            assert_eq!(m.cols(), 2);
        });
    }

    /// Interpreter-scale check of the row-block copies (the raw-pointer
    /// reads and writes above): serial, read-modify-write through each
    /// window, with rows outside every window left untouched.  CI runs the
    /// `miri_*` filter under Miri.
    #[test]
    fn miri_serial_row_blocks_write_through_their_windows() {
        // A 6x3 column-major buffer; window 0 owns rows 0..2 and window 1
        // rows 3..5, so rows 2 and 5 belong to neither.
        let (ld, cols) = (6, 3);
        let mut data: Vec<f64> = (0..ld * cols).map(|x| x as f64).collect();
        let windows = [(0, 2), (3, 2)].map(|(offset, rows)| MatWindow {
            offset,
            rows,
            cols,
            ld,
        });
        process_windows_mut(&mut data, &windows, false, |i, mut m| {
            for c in 0..m.cols() {
                for r in 0..m.rows() {
                    let v = m.get(r, c);
                    m.set(r, c, 2.0 * v + (100 * (i + 1)) as f64);
                }
            }
        });
        for (idx, &v) in data.iter().enumerate() {
            let x = idx as f64;
            let want = match idx % ld {
                0 | 1 => 2.0 * x + 100.0,
                3 | 4 => 2.0 * x + 200.0,
                _ => x,
            };
            assert_eq!(v, want, "element {idx}");
        }
    }

    /// Two span-disjoint clusters of interleaved windows (the stacked `W`
    /// of two parents, two children each) plus an empty window, serial.
    #[test]
    fn miri_serial_row_block_clusters_round_trip() {
        let (ld, cols) = (4, 2);
        let mut data: Vec<f64> = (0..2 * ld * cols).map(|x| x as f64).collect();
        let windows = [(0, 2), (2, 2), (8, 0), (8, 2), (10, 2)].map(|(offset, rows)| MatWindow {
            offset,
            rows,
            cols,
            ld,
        });
        process_windows_mut(&mut data, &windows, false, |i, mut m| {
            assert_ne!(i, 2, "the empty window is skipped");
            for c in 0..m.cols() {
                for r in 0..m.rows() {
                    m.set(r, c, -m.get(r, c) - i as f64);
                }
            }
        });
        for (idx, &v) in data.iter().enumerate() {
            let window = 2 * (idx / (ld * cols)) + (idx % ld) / 2;
            let i = if window >= 2 { window + 1 } else { window };
            assert_eq!(v, -(idx as f64) - i as f64, "element {idx}");
        }
    }

    #[test]
    fn empty_windows_are_skipped() {
        let mut data = vec![0.0f64; 4];
        let windows = vec![
            MatWindow {
                offset: 0,
                rows: 0,
                cols: 3,
                ld: 2,
            },
            MatWindow {
                offset: 0,
                rows: 2,
                cols: 2,
                ld: 2,
            },
        ];
        process_windows_mut(&mut data, &windows, true, |_, mut m| m.fill(1.0));
        assert_eq!(data, vec![1.0; 4]);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn truly_overlapping_windows_panic() {
        let mut data = vec![0.0f64; 16];
        let windows = vec![
            MatWindow {
                offset: 0,
                rows: 3,
                cols: 2,
                ld: 4,
            },
            MatWindow {
                offset: 2,
                rows: 3,
                cols: 2,
                ld: 4,
            },
        ];
        process_windows_mut(&mut data, &windows, true, |_, _| {});
    }

    /// Two row blocks of half an `8192 x 32` block (1 MiB each, past the
    /// floor and more than a quarter of the buffer) run in place, one at a
    /// time, and give bitwise what each window's product on a compact copy
    /// gives, on parallel and sequential devices in 1-, 2- and 8-thread
    /// pools.
    #[test]
    fn wide_row_blocks_run_in_place_bitwise_as_through_scratch() {
        use crate::{gemm_batched_varied, Device, DeviceBuffer, GemmDesc, Stream};
        use hodlr_la::random::random_matrix;
        use hodlr_la::{gemm, Op};
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let (n, cols, k) = (8192, 32, 24);
        let mut rng = StdRng::seed_from_u64(5);
        let x: DenseMatrix<f64> = random_matrix(&mut rng, n, cols);
        let y: DenseMatrix<f64> = random_matrix(&mut rng, n, k);
        let w: DenseMatrix<f64> = random_matrix(&mut rng, 2 * k, cols);
        let half = n / 2;
        let descs: Vec<GemmDesc<f64>> = (0..2)
            .map(|i| GemmDesc {
                m: half,
                n: cols,
                k,
                alpha: -1.0,
                beta: 1.0,
                op_a: Op::None,
                op_b: Op::None,
                a_offset: i * half,
                lda: n,
                b_offset: i * k,
                ldb: 2 * k,
                c_offset: i * half,
                ldc: n,
            })
            .collect();

        let mut expected = x.clone();
        for i in 0..2 {
            let mut scratch = x.sub_matrix(i * half, 0, half, cols);
            let b = w.block(i * k, 0, k, cols);
            let a = y.block(i * half, 0, half, k);
            gemm(-1.0, a, Op::None, b, Op::None, 1.0, scratch.as_mut());
            expected.set_block(i * half, 0, &scratch);
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

        for threads in [1, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("test pool");
            for device in [Device::new(), Device::sequential()] {
                let windows: Vec<MatWindow> = descs
                    .iter()
                    .map(|d| MatWindow {
                        offset: d.c_offset,
                        rows: d.m,
                        cols: d.n,
                        ld: d.ldc,
                    })
                    .collect();
                let fits =
                    pool.install(|| scratch_fits::<f64>(n * cols, &windows, device.is_parallel()));
                assert!(!fits, "{threads} threads: the batch must run in place");
                let a = DeviceBuffer::from_host(&device, y.data());
                let b = DeviceBuffer::from_host(&device, w.data());
                let mut c = DeviceBuffer::from_host(&device, x.data());
                pool.install(|| {
                    gemm_batched_varied(&device, Stream::default_stream(), &descs, &a, &b, &mut c)
                });
                assert_eq!(
                    bits(c.data()),
                    bits(expected.data()),
                    "{threads} threads, parallel {}",
                    device.is_parallel()
                );
            }
        }
    }

    /// A stacked `W` of two parents (`2w x nrhs` each) puts more than a
    /// quarter of its buffer in flight on two or more threads, but far
    /// less than the floor, so its windows still run as tasks on compact
    /// scratch.
    #[test]
    fn small_row_block_batches_run_through_scratch_below_the_floor() {
        let (w, nrhs) = (25, 32);
        let windows: Vec<MatWindow> = [0, w, 2 * w * nrhs, 2 * w * nrhs + w]
            .map(|offset| MatWindow {
                offset,
                rows: w,
                cols: nrhs,
                ld: 2 * w,
            })
            .to_vec();
        let len = 2 * 2 * w * nrhs;
        for threads in [2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("test pool");
            pool.install(|| {
                let tasks = rayon::current_num_threads().min(windows.len());
                assert!(4 * tasks * w * nrhs > len, "past the quarter bound");
                let mut data: Vec<f64> = (0..len).map(|i| i as f64).collect();
                process_windows_mut(&mut data, &windows, true, |_, mut view| {
                    assert_eq!(view.ld(), view.rows(), "a view into task scratch");
                    for c in 0..view.cols() {
                        for r in 0..view.rows() {
                            view.set(r, c, -view.get(r, c));
                        }
                    }
                });
                assert!(data.iter().enumerate().all(|(i, &v)| v == -(i as f64)));
            });
        }
    }

    #[test]
    fn row_block_results_match_dense_reference() {
        // Fill a 8x4 matrix through 4 row-block windows and compare with a
        // direct dense computation.
        let n = 8;
        let cols = 4;
        let mut data = vec![0.0f64; n * cols];
        let windows: Vec<MatWindow> = (0..4)
            .map(|i| MatWindow {
                offset: 2 * i,
                rows: 2,
                cols,
                ld: n,
            })
            .collect();
        process_windows_mut(&mut data, &windows, true, |i, mut m| {
            for c in 0..cols {
                for r in 0..2 {
                    m.set(r, c, (i * 100 + c * 10 + r) as f64);
                }
            }
        });
        let as_mat = DenseMatrix::from_col_major(n, cols, data);
        for c in 0..cols {
            for row in 0..n {
                let i = row / 2;
                let r = row % 2;
                assert_eq!(as_mat[(row, c)], (i * 100 + c * 10 + r) as f64);
            }
        }
    }
}
