//! Column layout of the flattened `Ubig` / `Vbig` / `Ybig` matrices.
//!
//! Following Fig. 3 of the paper, the low-rank bases of all tree nodes at
//! level `l` occupy one contiguous block of columns; the blocks are ordered
//! by level, `l = 1, ..., L`, left to right.  Algorithm 3's notation
//! `Ybig(:, 1:r*l)` ("all columns belonging to levels 1..l") becomes
//! [`LevelLayout::prefix_cols`]`(l)` columns here.
//!
//! When the off-diagonal ranks differ between nodes of one level, the level
//! block is as wide as the largest rank at that level and narrower bases are
//! zero-padded on the right.  Padding keeps `U V^*` products exact (the
//! padded columns multiply zero rows) and keeps every level block
//! rectangular, so each level is one column block of the flattened
//! matrices; the per-node true ranks are still tracked for rank-profile
//! reporting.

use std::ops::Range;

/// Per-level column widths and offsets of the flattened basis matrices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelLayout {
    /// `widths[l - 1]` is the column width of level `l` (`l = 1..=L`).
    widths: Vec<usize>,
    /// `offsets[l]` is the total width of levels `1..=l`; `offsets[0] = 0`.
    offsets: Vec<usize>,
}

impl LevelLayout {
    /// Build a layout from per-level widths (`widths[l - 1]` = width of
    /// level `l`).
    pub fn new(widths: Vec<usize>) -> Self {
        let mut offsets = Vec::with_capacity(widths.len() + 1);
        offsets.push(0);
        let mut acc = 0;
        for &w in &widths {
            acc += w;
            offsets.push(acc);
        }
        LevelLayout { widths, offsets }
    }

    /// A layout with the same width `r` at every level (the constant-rank
    /// setting of the paper's complexity analysis).
    pub fn uniform(levels: usize, rank: usize) -> Self {
        Self::new(vec![rank; levels])
    }

    /// Number of levels `L` covered by the layout (levels are `1..=L`).
    pub fn levels(&self) -> usize {
        self.widths.len()
    }

    /// Column width of level `l` (`1 <= l <= L`).
    pub fn width(&self, level: usize) -> usize {
        assert!(
            level >= 1 && level <= self.levels(),
            "level {level} out of range"
        );
        self.widths[level - 1]
    }

    /// Column range of level `l`'s block in `Ubig` / `Vbig` / `Ybig`.
    pub fn col_range(&self, level: usize) -> Range<usize> {
        assert!(
            level >= 1 && level <= self.levels(),
            "level {level} out of range"
        );
        self.offsets[level - 1]..self.offsets[level]
    }

    /// Total number of columns of levels `1..=level` — the paper's
    /// `Ybig(:, 1:r*l)` prefix.  `prefix_cols(0) == 0`.
    pub fn prefix_cols(&self, level: usize) -> usize {
        assert!(level <= self.levels(), "level {level} out of range");
        self.offsets[level]
    }

    /// Total number of columns of the flattened basis matrices.
    pub fn total_cols(&self) -> usize {
        *self.offsets.last().unwrap()
    }

    /// All per-level widths, shallowest level first.
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_layout_matches_paper_dimensions() {
        // Constant rank r over L levels: Ubig has r*L columns.
        let layout = LevelLayout::uniform(15, 56);
        assert_eq!(layout.levels(), 15);
        assert_eq!(layout.total_cols(), 15 * 56);
        assert_eq!(layout.col_range(1), 0..56);
        assert_eq!(layout.col_range(15), 14 * 56..15 * 56);
        assert_eq!(layout.prefix_cols(0), 0);
        assert_eq!(layout.prefix_cols(3), 3 * 56);
    }

    #[test]
    fn varying_widths() {
        let layout = LevelLayout::new(vec![10, 7, 3]);
        assert_eq!(layout.width(1), 10);
        assert_eq!(layout.width(2), 7);
        assert_eq!(layout.width(3), 3);
        assert_eq!(layout.col_range(2), 10..17);
        assert_eq!(layout.prefix_cols(2), 17);
        assert_eq!(layout.total_cols(), 20);
        assert_eq!(layout.widths(), &[10, 7, 3]);
    }

    #[test]
    fn zero_level_layout() {
        let layout = LevelLayout::new(vec![]);
        assert_eq!(layout.levels(), 0);
        assert_eq!(layout.total_cols(), 0);
        assert_eq!(layout.prefix_cols(0), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn width_of_level_zero_panics() {
        let layout = LevelLayout::uniform(3, 2);
        let _ = layout.width(0);
    }
}
