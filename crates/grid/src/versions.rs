//! Per-cell version counters for lazy, exact cache invalidation.
//!
//! The privacy-aware query processor answers a cloaked query from the
//! objects inside a bounded *dependency region* (the extended area plus
//! the filter-search circles). A cached answer therefore stays correct
//! exactly as long as no object mutation lands inside that region. The
//! [`CellVersionTable`] makes that check O(cells) instead of O(objects):
//! the unit square is overlaid with a fixed `2^level x 2^level` grid of
//! monotone counters, every mutation bumps the counters of the cells its
//! old and new geometry overlap, and a reader summarises the counters of
//! the cells a dependency rectangle covers into a [`VersionStamp`].
//! Because counters only ever increase, the stamp's sum is unchanged if
//! and only if no covered cell was bumped — equality is an *exact*
//! freshness proof, never a false validation (a bump just outside the
//! dependency region in the same cell merely invalidates spuriously,
//! which is safe).

use std::sync::atomic::{AtomicU64, Ordering};

use casper_geometry::Rect;

/// Widest cell span a narrow stamp may cover before the table falls back
/// to the whole-table counter. Keeps `stamp`/`validate` O(1024) even for
/// dependency rectangles spanning most of the space, while mid-size
/// cloaked regions (a quarter of the space is ~1000 cells at the default
/// level) still get precise per-cell stamps.
const WIDE_LIMIT: usize = 1024;

/// A grid of monotone per-cell version counters over the unit square.
///
/// Writers call [`bump_rect`](Self::bump_rect) *after* applying a
/// mutation to the underlying store; readers call
/// [`stamp`](Self::stamp) *before* computing an answer and
/// [`validate`](Self::validate) before reusing a cached one. With that
/// ordering (and mutations serialised against queries, as in
/// `ServerPlane`'s reader/writer lock) a validated stamp proves no
/// relevant mutation occurred since the answer was computed.
#[derive(Debug)]
pub struct CellVersionTable {
    level: u8,
    extent: u32,
    cells: Vec<AtomicU64>,
    /// Bumped by whole-table invalidations (bulk loads); part of every
    /// narrow stamp so they invalidate too.
    epoch: AtomicU64,
    /// Bumped once per mutation regardless of geometry; the whole-table
    /// stamp for wide or unbounded dependency rectangles.
    total: AtomicU64,
}

/// Reader-side summary of the counters a dependency rectangle covered.
///
/// Produced by [`CellVersionTable::stamp`]; compare with
/// [`CellVersionTable::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionStamp {
    span: StampSpan,
    sum: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StampSpan {
    /// Sum of `epoch` and the cells in the inclusive `(x0..=x1, y0..=y1)`
    /// block.
    Narrow { x0: u32, x1: u32, y0: u32, y1: u32 },
    /// The whole-table mutation counter.
    Wide,
}

impl CellVersionTable {
    /// Default grid level: `2^6 = 64` cells per axis, matching the
    /// server's private-store `UniformGrid::new(64)` resolution.
    pub const DEFAULT_LEVEL: u8 = 6;

    /// Creates a table at [`DEFAULT_LEVEL`](Self::DEFAULT_LEVEL).
    pub fn new() -> Self {
        Self::with_level(Self::DEFAULT_LEVEL)
    }

    /// Creates a table with `2^level` cells per axis (`level <= 10`).
    pub fn with_level(level: u8) -> Self {
        assert!(level <= 10, "version grids beyond 1024x1024 are wasteful");
        let extent = 1u32 << level;
        let cells = (0..(extent as usize * extent as usize))
            .map(|_| AtomicU64::new(0))
            .collect();
        Self {
            level,
            extent,
            cells,
            epoch: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }

    /// The grid level (cells per axis is `2^level`).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Inclusive cell range covered by `[a, b]` on one axis. Boundary
    /// contact counts as coverage on *both* sides of a cell border, so a
    /// mutation touching a dependency rectangle always shares at least
    /// one covered cell with it.
    fn cover_axis(&self, a: f64, b: f64) -> (u32, u32) {
        let n = self.extent as f64;
        let last = (self.extent - 1) as i64;
        // `as` saturates a huge coordinate to `i64::MIN`/`MAX`; the
        // subtraction must saturate too, or a region near -1e300 wraps to
        // the far corner and stamps elsewhere miss the bump.
        let lo = ((a * n).ceil() as i64).saturating_sub(1).clamp(0, last) as u32;
        let hi = ((b * n).floor() as i64).clamp(0, last) as u32;
        (lo, hi.max(lo))
    }

    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        y as usize * self.extent as usize + x as usize
    }

    /// Records a mutation whose geometry is `rect` (the object's old or
    /// new MBR). Call *after* the store mutation is applied.
    pub fn bump_rect(&self, rect: &Rect) {
        self.total.fetch_add(1, Ordering::Release);
        if !rect.is_finite() {
            // Unbounded geometry: no narrow stamp can be proven fresh.
            self.epoch.fetch_add(1, Ordering::Release);
            return;
        }
        let (x0, x1) = self.cover_axis(rect.min.x, rect.max.x);
        let (y0, y1) = self.cover_axis(rect.min.y, rect.max.y);
        let span = (x1 - x0 + 1) as usize * (y1 - y0 + 1) as usize;
        if span > WIDE_LIMIT {
            // Cheaper (and still conservative) to invalidate everything.
            self.epoch.fetch_add(1, Ordering::Release);
            return;
        }
        for y in y0..=y1 {
            // One contiguous row-major slice per row: a single bounds
            // check, then a streaming sweep over adjacent counters.
            let row = &self.cells[self.idx(x0, y)..=self.idx(x1, y)];
            for cell in row {
                cell.fetch_add(1, Ordering::Release);
            }
        }
    }

    /// Total number of mutations recorded so far (every `bump_*` call
    /// increments it exactly once). Readers compare it across a
    /// computation to detect concurrent writers: if it changed, the
    /// computed answer may reflect a half-applied state and must not be
    /// cached.
    pub fn mutation_count(&self) -> u64 {
        self.total.load(Ordering::Acquire)
    }

    /// Records a mutation affecting the whole table (bulk load/clear).
    pub fn bump_all(&self) {
        self.total.fetch_add(1, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Summarises the counters covering dependency rectangle `dep`.
    pub fn stamp(&self, dep: &Rect) -> VersionStamp {
        if !dep.is_finite() {
            return VersionStamp {
                span: StampSpan::Wide,
                sum: self.total.load(Ordering::Acquire),
            };
        }
        let (x0, x1) = self.cover_axis(dep.min.x, dep.max.x);
        let (y0, y1) = self.cover_axis(dep.min.y, dep.max.y);
        let span = (x1 - x0 + 1) as usize * (y1 - y0 + 1) as usize;
        if span > WIDE_LIMIT {
            return VersionStamp {
                span: StampSpan::Wide,
                sum: self.total.load(Ordering::Acquire),
            };
        }
        VersionStamp {
            span: StampSpan::Narrow { x0, x1, y0, y1 },
            sum: self.sum_narrow(x0, x1, y0, y1),
        }
    }

    fn sum_narrow(&self, x0: u32, x1: u32, y0: u32, y1: u32) -> u64 {
        let mut sum = self.epoch.load(Ordering::Acquire);
        for y in y0..=y1 {
            // Contiguous row-major slice: the relaxed-address loads of one
            // row reduce in a straight-line loop the compiler can unroll.
            let row = &self.cells[self.idx(x0, y)..=self.idx(x1, y)];
            for cell in row {
                sum = sum.wrapping_add(cell.load(Ordering::Acquire));
            }
        }
        sum
    }

    /// `true` when no mutation has touched the stamped region since the
    /// stamp was taken (counters are monotone, so sum equality is exact).
    pub fn validate(&self, stamp: &VersionStamp) -> bool {
        let now = match stamp.span {
            StampSpan::Wide => self.total.load(Ordering::Acquire),
            StampSpan::Narrow { x0, x1, y0, y1 } => self.sum_narrow(x0, x1, y0, y1),
        };
        now == stamp.sum
    }
}

impl Default for CellVersionTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_geometry::Point;

    fn r(a: f64, b: f64, c: f64, d: f64) -> Rect {
        Rect::from_coords(a, b, c, d)
    }

    #[test]
    fn untouched_stamp_validates() {
        let t = CellVersionTable::new();
        let s = t.stamp(&r(0.1, 0.1, 0.2, 0.2));
        assert!(t.validate(&s));
    }

    #[test]
    fn bump_inside_invalidates_bump_outside_does_not() {
        let t = CellVersionTable::new();
        let dep = r(0.1, 0.1, 0.2, 0.2);
        let s = t.stamp(&dep);
        // Far away: different cells entirely.
        t.bump_rect(&r(0.8, 0.8, 0.85, 0.85));
        assert!(t.validate(&s));
        // Inside the dependency region.
        t.bump_rect(&r(0.15, 0.15, 0.16, 0.16));
        assert!(!t.validate(&s));
    }

    #[test]
    fn boundary_contact_is_covered_from_both_sides() {
        // Cell border at 0.5 (level 6 => borders at multiples of 1/64).
        let t = CellVersionTable::new();
        let dep = r(0.25, 0.25, 0.5, 0.5); // max touches the border
        let s = t.stamp(&dep);
        // A point mutation exactly on the shared border must invalidate,
        // whichever side its covering cells land on.
        t.bump_rect(&Rect::point(Point::new(0.5, 0.5)));
        assert!(!t.validate(&s));
    }

    #[test]
    fn bump_all_invalidates_every_stamp() {
        let t = CellVersionTable::new();
        let narrow = t.stamp(&r(0.0, 0.0, 0.01, 0.01));
        let wide = t.stamp(&Rect::unit());
        t.bump_all();
        assert!(!t.validate(&narrow));
        assert!(!t.validate(&wide));
    }

    #[test]
    fn wide_stamp_uses_total_counter() {
        let t = CellVersionTable::new();
        // The unit square covers 64x64 = 4096 cells > WIDE_LIMIT.
        let s = t.stamp(&Rect::unit());
        t.bump_rect(&r(0.7, 0.7, 0.71, 0.71));
        assert!(!t.validate(&s), "any mutation invalidates a wide stamp");
    }

    #[test]
    fn huge_bump_falls_back_to_epoch_and_invalidates_narrow_stamps() {
        let t = CellVersionTable::new();
        let s = t.stamp(&r(0.9, 0.9, 0.95, 0.95));
        t.bump_rect(&Rect::unit()); // > WIDE_LIMIT cells => epoch bump
        assert!(!t.validate(&s));
    }

    #[test]
    fn non_finite_geometry_is_conservative() {
        let t = CellVersionTable::new();
        let inf = Rect::from_coords(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let narrow = t.stamp(&r(0.4, 0.4, 0.45, 0.45));
        let wide = t.stamp(&inf);
        assert!(t.validate(&wide));
        t.bump_rect(&inf);
        assert!(!t.validate(&narrow));
        assert!(!t.validate(&wide));
        t.bump_rect(&r(0.01, 0.01, 0.02, 0.02));
        let wide2 = t.stamp(&inf);
        t.bump_rect(&r(0.99, 0.99, 0.995, 0.995));
        assert!(!t.validate(&wide2), "wide stamps see every mutation");
    }

    #[test]
    fn out_of_domain_mutations_still_bump_edge_cells() {
        let t = CellVersionTable::new();
        let s = t.stamp(&r(0.0, 0.0, 0.01, 0.01));
        t.bump_rect(&r(-0.5, -0.5, -0.1, -0.1));
        // Clamped to the corner cell: spurious invalidation, which is safe.
        assert!(!t.validate(&s));
    }

    #[test]
    fn coordinates_near_the_f64_range_saturate_instead_of_overflowing() {
        let t = CellVersionTable::new();
        let middle = t.stamp(&r(0.4, 0.4, 0.45, 0.45));
        let hostile = r(-1e300, -1e300, 1e300, 1e300);
        let wide = t.stamp(&hostile);
        t.bump_rect(&hostile);
        assert!(
            !t.validate(&middle),
            "a bump over the whole space missed a stamp"
        );
        assert!(!t.validate(&wide));
        // Both ends far out on one side: clamped to the edge cells.
        let corner = t.stamp(&r(0.0, 0.0, 0.01, 0.01));
        let far = t.stamp(&r(0.9, 0.9, 0.95, 0.95));
        t.bump_rect(&r(-1e300, -1e300, -1e299, -1e299));
        assert!(!t.validate(&corner));
        assert!(t.validate(&far));
    }

    #[test]
    fn revalidation_after_restamp() {
        let t = CellVersionTable::new();
        let dep = r(0.3, 0.3, 0.35, 0.35);
        let s1 = t.stamp(&dep);
        t.bump_rect(&r(0.31, 0.31, 0.32, 0.32));
        assert!(!t.validate(&s1));
        let s2 = t.stamp(&dep);
        assert!(t.validate(&s2), "a fresh stamp validates until bumped");
    }

    #[test]
    fn levels_scale_and_point_rects_work() {
        for level in [0u8, 1, 3, 6] {
            let t = CellVersionTable::with_level(level);
            assert_eq!(t.level(), level);
            let s = t.stamp(&r(0.2, 0.2, 0.21, 0.21));
            t.bump_rect(&Rect::point(Point::new(0.205, 0.205)));
            assert!(!t.validate(&s), "level {level}");
        }
    }
}
