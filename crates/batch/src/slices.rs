//! Splitting one device allocation into disjoint mutable windows.
//!
//! A batched kernel writes every batch entry's output into a different region
//! of the same device buffer.  [`disjoint_slices_mut`] turns a single
//! `&mut [T]` plus a list of `(offset, len)` windows into one mutable slice
//! per window — checking that the windows do not overlap — so the batch can
//! then be processed in parallel with rayon without any `unsafe`.

/// Split `data` into one mutable sub-slice per `(offset, len)` range.
///
/// The ranges may be given in any order; the returned vector is in the same
/// order as `ranges`.  Zero-length ranges are allowed and yield empty slices.
///
/// # Panics
/// Panics if any two ranges overlap or if a range reaches past the end of
/// `data`.
pub fn disjoint_slices_mut<'a, T>(
    data: &'a mut [T],
    ranges: &[(usize, usize)],
) -> Vec<&'a mut [T]> {
    let mut order: Vec<usize> = (0..ranges.len()).collect();
    order.sort_by_key(|&i| ranges[i].0);

    let mut out: Vec<Option<&'a mut [T]>> = Vec::with_capacity(ranges.len());
    out.resize_with(ranges.len(), || None);

    let mut rest: &'a mut [T] = data;
    let mut consumed = 0usize;
    for &i in &order {
        let (off, len) = ranges[i];
        if len == 0 {
            out[i] = Some(&mut []);
            continue;
        }
        assert!(
            off >= consumed,
            "disjoint_slices_mut: ranges overlap (offset {off} inside a previous range ending at {consumed})"
        );
        let (_gap, tail) = rest.split_at_mut(off - consumed);
        assert!(
            len <= tail.len(),
            "disjoint_slices_mut: range ({off}, {len}) reaches past the end of the buffer"
        );
        let (slice, tail2) = tail.split_at_mut(len);
        out[i] = Some(slice);
        rest = tail2;
        consumed = off + len;
    }
    out.into_iter()
        .map(|o| o.expect("every range visited"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_in_arbitrary_order() {
        let mut data: Vec<u32> = (0..10).collect();
        let slices = disjoint_slices_mut(&mut data, &[(6, 3), (0, 2), (3, 2)]);
        assert_eq!(slices[0], &[6, 7, 8]);
        assert_eq!(slices[1], &[0, 1]);
        assert_eq!(slices[2], &[3, 4]);
    }

    #[test]
    fn allows_zero_length_ranges() {
        let mut data = [1, 2, 3];
        let slices = disjoint_slices_mut(&mut data, &[(1, 0), (0, 3)]);
        assert!(slices[0].is_empty());
        assert_eq!(slices[1], &[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_ranges_panic() {
        let mut data = [0; 8];
        let _ = disjoint_slices_mut(&mut data, &[(0, 4), (3, 2)]);
    }

    #[test]
    #[should_panic(expected = "past the end")]
    fn out_of_bounds_panics() {
        let mut data = [0; 4];
        let _ = disjoint_slices_mut(&mut data, &[(2, 5)]);
    }

    #[test]
    fn writes_through_slices_land_in_buffer() {
        let mut data = vec![0.0f64; 6];
        {
            let mut slices = disjoint_slices_mut(&mut data, &[(0, 3), (3, 3)]);
            slices[0][1] = 1.5;
            slices[1][2] = 2.5;
        }
        assert_eq!(data, vec![0.0, 1.5, 0.0, 0.0, 0.0, 2.5]);
    }
}
