//! Spatial index substrate for the Casper location-based database server.
//!
//! The paper's privacy-aware query processor is explicitly *index
//! agnostic*: "our approach is independent from the nearest-neighbor and
//! range query algorithms ... it can be employed using R-tree or any other
//! methods" (Section 5.1.1). To demonstrate that, this crate provides three
//! interchangeable implementations of [`SpatialIndex`]:
//!
//! * [`RTree`] — a dynamic R-tree with quadratic node splitting, best-first
//!   nearest-neighbour search and an STR bulk loader; the representative
//!   "traditional location-based server" index.
//! * [`UniformGrid`] — a uniform grid index with expanding-ring NN search,
//!   closer in spirit to the grid-based query processors (SINA \[34\],
//!   CPM \[36\]) the paper's evaluation uses.
//! * [`BruteForce`] — a linear scan used as the correctness oracle in tests
//!   and as the "send everything" naive baseline of Figure 4c.
//!
//! Indexed objects are `(ObjectId, Rect)` pairs. Exact points (public data)
//! are stored as degenerate rectangles via [`Rect::point`]; cloaked private
//! data are stored as their full rectangles. Nearest-neighbour search
//! supports both distance semantics Algorithm 2 needs: minimum distance
//! (public data) and furthest-corner distance (private data, Section 5.2).

#![warn(missing_docs)]

mod brute;
mod heap;
mod rtree;
mod uniform;

pub use brute::BruteForce;
pub use rtree::RTree;
pub use uniform::UniformGrid;

use casper_geometry::{Point, Rect};

/// Identifier of an object stored in a spatial index (a target object or a
/// cloaked user region).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectId(pub u64);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// An index entry: object id plus its (possibly degenerate) bounding
/// rectangle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// The stored object's identifier.
    pub id: ObjectId,
    /// The stored geometry: a degenerate rectangle for exact points, a
    /// cloaked region for private data.
    pub mbr: Rect,
}

impl Entry {
    /// Creates an entry.
    pub fn new(id: ObjectId, mbr: Rect) -> Self {
        Self { id, mbr }
    }

    /// Creates a point entry.
    pub fn point(id: ObjectId, p: Point) -> Self {
        Self::new(id, Rect::point(p))
    }
}

/// Distance semantics for nearest-neighbour queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceKind {
    /// Distance to the closest point of the stored rectangle — the usual
    /// metric; equals the point distance for point data.
    Min,
    /// Distance to the *furthest corner* of the stored rectangle — the
    /// pessimistic metric the Section 5.2 filter step uses for private
    /// (cloaked) target objects.
    Max,
}

impl DistanceKind {
    /// The distance from `p` to `mbr` under these semantics.
    #[inline]
    pub fn measure(self, p: Point, mbr: &Rect) -> f64 {
        match self {
            DistanceKind::Min => mbr.min_dist(p),
            DistanceKind::Max => mbr.max_dist(p),
        }
    }
}

/// A nearest-neighbour result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The found object.
    pub entry: Entry,
    /// Its distance from the query point under the requested
    /// [`DistanceKind`].
    pub dist: f64,
}

/// The common interface of all spatial indexes in this crate.
pub trait SpatialIndex {
    /// Inserts an object. Duplicate ids are allowed by the index (the
    /// server layer above enforces uniqueness).
    fn insert(&mut self, entry: Entry);

    /// Removes the object with `id` (matching any geometry).
    /// Returns the removed object's rectangle, `None` when `id` was absent.
    fn remove(&mut self, id: ObjectId) -> Option<Rect>;

    /// Number of stored objects.
    fn len(&self) -> usize;

    /// Returns `true` when the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All objects whose rectangle intersects `query` (boundary contact
    /// included). Order is unspecified.
    fn range(&self, query: &Rect) -> Vec<Entry>;

    /// The nearest object to `p` under `kind`, or `None` when empty.
    fn nearest(&self, p: Point, kind: DistanceKind) -> Option<Neighbor> {
        self.k_nearest(p, 1, kind).into_iter().next()
    }

    /// The `k` nearest objects to `p` under `kind`, closest first.
    fn k_nearest(&self, p: Point, k: usize, kind: DistanceKind) -> Vec<Neighbor>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_kinds_on_points_coincide() {
        let p = Point::new(0.0, 0.0);
        let e = Rect::point(Point::new(3.0, 4.0));
        assert_eq!(DistanceKind::Min.measure(p, &e), 5.0);
        assert_eq!(DistanceKind::Max.measure(p, &e), 5.0);
    }

    #[test]
    fn distance_kinds_on_rects_differ() {
        let p = Point::new(0.0, 0.0);
        let r = Rect::from_coords(1.0, 0.0, 2.0, 0.0);
        assert_eq!(DistanceKind::Min.measure(p, &r), 1.0);
        assert_eq!(DistanceKind::Max.measure(p, &r), 2.0);
    }

    #[test]
    fn entry_point_is_degenerate() {
        let e = Entry::point(ObjectId(1), Point::new(0.5, 0.5));
        assert_eq!(e.mbr.area(), 0.0);
        assert!(e.mbr.contains(Point::new(0.5, 0.5)));
    }
}
