//! The Casper **privacy-aware query processor** (Section 5 of the paper).
//!
//! The processor answers location-based queries over *cloaked spatial
//! regions* instead of exact positions and returns a **candidate list**
//! that is
//!
//! * *inclusive* — it provably contains the exact answer (Theorems 1 and
//!   3), and
//! * *minimal* — the extended range query `A_EXT` it issues is the smallest
//!   possible given the chosen filter objects (Theorems 2 and 4).
//!
//! Three query classes are implemented:
//!
//! * [`private_nn_public_data`] — "where is my nearest gas station?", asked
//!   from a cloaked region over exact target points (Algorithm 2, with the
//!   1-, 2- and 4-filter variants of Section 6.2).
//! * [`private_nn_private_data`] — "where is my nearest buddy?", where the
//!   targets themselves are cloaked rectangles (Section 5.2).
//! * [`public_range_over_private`] / [`private_range_public_data`] —
//!   range/count queries ("how many cars in this area?"), including the
//!   probabilistic variant that weights cloaked regions by their overlap
//!   fraction.
//!
//! All functions are generic over [`casper_index::SpatialIndex`] — the
//! paper stresses the framework "can be seamlessly integrated with any
//! traditional location-based database server", and the test suite runs
//! every algorithm against the R-tree, the uniform grid, and the
//! brute-force scan.

#![warn(missing_docs)]

mod aggregate;
pub mod cache;
mod extend;
mod filter;
mod knn;
mod nn;
mod range;
mod tel;

pub use aggregate::{DensityGrid, DensityTimeline};
pub use extend::{extended_area_private, extended_area_public, PrivateBoundMode};
pub use filter::{assign_filters_private, assign_filters_public, FilterCount, VertexFilters};
pub use knn::{private_knn_private_data, private_knn_public_data};
pub use nn::{private_nn_private_data, private_nn_public_data};
pub use range::{private_range_public_data, public_range_over_private, RangeAnswer};

use casper_geometry::Rect;
use casper_index::Entry;

/// The candidate list returned to the client, plus the artefacts of the
/// computation the evaluation section measures.
///
/// Candidate lists are kept in **canonical form** — sorted by
/// `(id, mbr)` and deduplicated — so two computations of the same query
/// compare bit-identical and the candidate cache stores exactly one
/// representation. Construct through [`CandidateList::from_parts`] (or
/// [`CandidateList::empty`]) to preserve this.
#[derive(Debug, Clone)]
pub struct CandidateList {
    /// The target objects the client must consider; guaranteed to contain
    /// the exact answer. Canonically ordered (see type docs).
    pub candidates: Vec<Entry>,
    /// The extended search area the server's range query used.
    pub a_ext: Rect,
    /// The filter objects selected in Step 1 of Algorithm 2.
    pub filters: Vec<Entry>,
    /// The **dependency region** of this answer: an object mutation whose
    /// old and new geometry both lie outside this rectangle provably
    /// cannot change the answer. It is the union of `a_ext` with the
    /// bounding boxes of the filter-search circles (a target appearing
    /// closer to a search anchor than its current filter changes the
    /// filter assignment, hence `A_EXT` itself). Non-finite when *any*
    /// mutation may change the answer (e.g. an empty index, or a k-NN
    /// query short of `k` targets).
    pub dep: Rect,
}

/// Canonical sort key: object id first, then the exact MBR bit patterns
/// (total order even for f64 coordinates, and deterministic).
fn canonical_key(e: &Entry) -> (u64, u64, u64, u64, u64) {
    (
        e.id.0,
        e.mbr.min.x.to_bits(),
        e.mbr.min.y.to_bits(),
        e.mbr.max.x.to_bits(),
        e.mbr.max.y.to_bits(),
    )
}

/// Sorts `entries` into canonical order and drops exact duplicates.
pub(crate) fn canonicalize(entries: &mut Vec<Entry>) {
    entries.sort_unstable_by_key(canonical_key);
    entries.dedup_by_key(|e| canonical_key(e));
}

impl CandidateList {
    /// Builds a candidate list in canonical form: `candidates` is sorted
    /// by `(id, mbr)` and exact duplicates are dropped. Every query path
    /// in this crate constructs its result here.
    pub fn from_parts(
        mut candidates: Vec<Entry>,
        a_ext: Rect,
        filters: Vec<Entry>,
        dep: Rect,
    ) -> Self {
        canonicalize(&mut candidates);
        Self {
            candidates,
            a_ext,
            filters,
            dep,
        }
    }

    /// The empty answer for `region` over an empty index. Its dependency
    /// region is unbounded: inserting a target *anywhere* changes it.
    pub fn empty(region: &Rect) -> Self {
        Self {
            candidates: Vec::new(),
            a_ext: *region,
            filters: Vec::new(),
            dep: everywhere(),
        }
    }

    /// Number of candidate objects — the "candidate list size" metric of
    /// Figures 13a–16a.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Returns `true` when no candidates were found (empty data set).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }
}

/// The unbounded rectangle: dependency region of answers any mutation
/// could change.
pub(crate) fn everywhere() -> Rect {
    Rect::from_coords(
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
        f64::INFINITY,
        f64::INFINITY,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_geometry::Point;
    use casper_index::ObjectId;

    /// Pins the canonical representation every query path (and the
    /// candidate cache) relies on: sorted by `(id, mbr bits)`, exact
    /// duplicates removed, distinct MBRs under one id kept.
    #[test]
    fn from_parts_is_sorted_and_deduped() {
        let a = Entry::point(ObjectId(3), Point::new(0.5, 0.5));
        let b = Entry::point(ObjectId(1), Point::new(0.9, 0.1));
        let c = Entry::new(ObjectId(3), Rect::from_coords(0.1, 0.1, 0.2, 0.2));
        let list =
            CandidateList::from_parts(vec![a, b, a, c, b], Rect::unit(), Vec::new(), Rect::unit());
        // Sorted by id, then by MBR bits; duplicates gone.
        assert_eq!(list.candidates.len(), 3);
        assert_eq!(list.candidates[0], b);
        assert_eq!(list.candidates[1], c, "ties on id break on the MBR");
        assert_eq!(list.candidates[2], a);
        // Idempotent: re-canonicalising changes nothing.
        let again = CandidateList::from_parts(
            list.candidates.clone(),
            Rect::unit(),
            Vec::new(),
            Rect::unit(),
        );
        assert_eq!(again.candidates, list.candidates);
    }

    #[test]
    fn empty_list_has_unbounded_dependency() {
        let region = Rect::from_coords(0.4, 0.4, 0.6, 0.6);
        let list = CandidateList::empty(&region);
        assert!(list.is_empty());
        assert_eq!(list.a_ext, region);
        assert!(!list.dep.is_finite());
    }
}
