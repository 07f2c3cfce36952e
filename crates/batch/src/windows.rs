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
//! to provably disjoint locations are race-free.

use crate::slices::disjoint_slices_mut;
use hodlr_la::{MatMut, Scalar};
use rayon::prelude::*;

/// A column-major window into a device buffer: `rows x cols` elements
/// starting at `offset`, with leading dimension `ld`.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MatWindow {
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
    pub fn span(&self) -> usize {
        if self.rows == 0 || self.cols == 0 {
            0
        } else {
            self.ld * (self.cols - 1) + self.rows
        }
    }

    /// `true` if the window touches no elements.
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
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
unsafe impl<T> Sync for RawBase<T> {}
unsafe impl<T> Send for RawBase<T> {}

impl<T> RawBase<T> {
    fn get(&self) -> *mut T {
        self.0
    }
}

/// Run `kernel(index, window_view)` for every window, in parallel when
/// `parallel` is set, after proving the windows disjoint.
///
/// The view handed to the kernel is a dense `rows x cols` [`MatMut`]; in the
/// row-block case it is backed by thread-local scratch that is copied back
/// into the buffer when the kernel returns.
///
/// # Panics
/// Panics if the windows cannot be proven disjoint or reach past the end of
/// `data`.
pub fn process_windows_mut<T, F>(data: &mut [T], windows: &[MatWindow], parallel: bool, kernel: F)
where
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
