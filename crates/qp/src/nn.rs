//! Private nearest-neighbour queries (Sections 5.1 and 5.2): filter →
//! middle point → extended area → candidate list.

use casper_geometry::Rect;
use casper_index::{Entry, SpatialIndex};

use crate::{
    assign_filters_private, assign_filters_public, extended_area_private, extended_area_public,
    CandidateList, FilterCount, PrivateBoundMode,
};

/// Algorithm 2: a private nearest-neighbour query over **public** (exact
/// point) target data.
///
/// `region` is the cloaked area received from the location anonymizer; the
/// caller never supplies — and this function never sees — the exact user
/// position. The returned candidate list is *inclusive* (contains the
/// exact NN of every possible user position inside `region`, Theorem 1)
/// and *minimal* for the chosen filters (Theorem 2). The client evaluates
/// the final answer locally.
///
/// ```
/// use casper_geometry::{Point, Rect};
/// use casper_index::{BruteForce, Entry, ObjectId};
/// use casper_qp::{private_nn_public_data, FilterCount};
///
/// let stations = BruteForce::from_entries([
///     Entry::point(ObjectId(1), Point::new(0.2, 0.2)),
///     Entry::point(ObjectId(2), Point::new(0.8, 0.8)),
/// ]);
/// let cloaked = Rect::from_coords(0.1, 0.1, 0.3, 0.3);
/// let list = private_nn_public_data(&stations, &cloaked, FilterCount::Four);
/// // The exact NN of anyone inside the region is in the list.
/// assert!(list.candidates.iter().any(|e| e.id == ObjectId(1)));
/// ```
pub fn private_nn_public_data<I: SpatialIndex>(
    index: &I,
    region: &Rect,
    filters: FilterCount,
) -> CandidateList {
    let Some(vf) = assign_filters_public(index, region, filters) else {
        crate::tel::record_candidates_public(0);
        return CandidateList::empty(region);
    };
    let a_ext = extended_area_public(region, &vf);
    let candidates = index.range(&a_ext);
    debug_assert!(
        vf.distinct
            .iter()
            .all(|f| candidates.iter().any(|c| c.id == f.id)),
        "filters lie within their own bounding circles, so A_EXT must contain them"
    );
    crate::tel::record_candidates_public(candidates.len());
    let dep = vf.dep_with(&a_ext);
    CandidateList::from_parts(candidates, a_ext, vf.distinct, dep)
}

/// The Section 5.2 variant: a private nearest-neighbour query over
/// **private** target data, each target being a cloaked rectangle.
///
/// `min_overlap` implements the probabilistic refinement of Step 4:
/// only targets with more than this fraction of their cloaked area
/// overlapping `A_EXT` are returned (`0.0` keeps every overlapping target,
/// which is the inclusive default; larger values trade inclusiveness for a
/// smaller candidate list, as discussed in the paper).
pub fn private_nn_private_data<I: SpatialIndex>(
    index: &I,
    region: &Rect,
    filters: FilterCount,
    mode: PrivateBoundMode,
    min_overlap: f64,
) -> CandidateList {
    let Some(vf) = assign_filters_private(index, region, filters) else {
        crate::tel::record_candidates_private(0);
        return CandidateList::empty(region);
    };
    let a_ext = extended_area_private(region, &vf, mode);
    let mut candidates: Vec<Entry> = index.range(&a_ext);
    if min_overlap > 0.0 {
        candidates.retain(|e| e.mbr.overlap_fraction(&a_ext) >= min_overlap);
    }
    crate::tel::record_candidates_private(candidates.len());
    let dep = vf.dep_with(&a_ext);
    CandidateList::from_parts(candidates, a_ext, vf.distinct, dep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_geometry::Point;
    use casper_index::{BruteForce, ObjectId, RTree, UniformGrid};

    fn pt(id: u64, x: f64, y: f64) -> Entry {
        Entry::point(ObjectId(id), Point::new(x, y))
    }

    /// The running example of Figure 4/5: 32 targets on a grid, cloaked
    /// region in the middle-left, exact answer T13.
    fn paper_like_setup() -> (Vec<Entry>, Rect, Point) {
        // An 8x4 grid of targets (ids 1..=32 like T1..T32).
        let mut targets = Vec::new();
        let mut id = 1u64;
        for row in 0..4 {
            for col in 0..8 {
                targets.push(pt(id, 0.06 + col as f64 * 0.125, 0.1 + row as f64 * 0.25));
                id += 1;
            }
        }
        // Cloaked region between two target columns.
        let region = Rect::from_coords(0.33, 0.32, 0.48, 0.45);
        let user = Point::new(0.45, 0.43); // true position (never sent)
        (targets, region, user)
    }

    fn exact_nn(targets: &[Entry], p: Point) -> ObjectId {
        targets
            .iter()
            .min_by(|a, b| a.mbr.min_dist(p).total_cmp(&b.mbr.min_dist(p)))
            .unwrap()
            .id
    }

    #[test]
    fn candidate_list_contains_exact_answer() {
        let (targets, region, user) = paper_like_setup();
        let idx = BruteForce::from_entries(targets.iter().copied());
        for fc in FilterCount::ALL {
            let list = private_nn_public_data(&idx, &region, fc);
            let exact = exact_nn(&targets, user);
            assert!(
                list.candidates.iter().any(|e| e.id == exact),
                "{fc:?}: exact answer missing from candidate list"
            );
        }
    }

    #[test]
    fn candidate_list_is_much_smaller_than_all_targets() {
        let (targets, region, _) = paper_like_setup();
        let idx = BruteForce::from_entries(targets.iter().copied());
        let list = private_nn_public_data(&idx, &region, FilterCount::Four);
        assert!(
            list.len() < targets.len() / 2,
            "4-filter candidate list ({}) should prune most of the {} targets",
            list.len(),
            targets.len()
        );
    }

    #[test]
    fn more_filters_never_worse_on_this_workload() {
        let (targets, region, _) = paper_like_setup();
        let idx = BruteForce::from_entries(targets.iter().copied());
        let one = private_nn_public_data(&idx, &region, FilterCount::One).len();
        let two = private_nn_public_data(&idx, &region, FilterCount::Two).len();
        let four = private_nn_public_data(&idx, &region, FilterCount::Four).len();
        assert!(
            four <= two && two <= one,
            "{four} <= {two} <= {one} expected"
        );
    }

    #[test]
    fn all_indexes_agree_on_candidates() {
        let (targets, region, _) = paper_like_setup();
        let brute = BruteForce::from_entries(targets.iter().copied());
        let rtree = RTree::bulk_load(targets.iter().copied());
        let mut grid = UniformGrid::new(8);
        for t in &targets {
            grid.insert(*t);
        }
        let ids = |l: &CandidateList| {
            let mut v: Vec<u64> = l.candidates.iter().map(|e| e.id.0).collect();
            v.sort_unstable();
            v
        };
        let a = ids(&private_nn_public_data(&brute, &region, FilterCount::Four));
        let b = ids(&private_nn_public_data(&rtree, &region, FilterCount::Four));
        let c = ids(&private_nn_public_data(&grid, &region, FilterCount::Four));
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn empty_index_returns_empty_list() {
        let idx = BruteForce::new();
        let region = Rect::from_coords(0.4, 0.4, 0.6, 0.6);
        let list = private_nn_public_data(&idx, &region, FilterCount::Four);
        assert!(list.is_empty());
        assert!(list.filters.is_empty());
        let list = private_nn_private_data(
            &idx,
            &region,
            FilterCount::Four,
            PrivateBoundMode::Safe,
            0.0,
        );
        assert!(list.is_empty());
    }

    #[test]
    fn private_data_candidates_include_true_nearest_region() {
        // Targets are cloaked rectangles; the true NN (by any position
        // inside its region) must appear in the candidate list.
        let targets = [
            Entry::new(ObjectId(1), Rect::from_coords(0.10, 0.10, 0.20, 0.20)),
            Entry::new(ObjectId(2), Rect::from_coords(0.55, 0.50, 0.65, 0.60)),
            Entry::new(ObjectId(3), Rect::from_coords(0.80, 0.85, 0.95, 0.95)),
            Entry::new(ObjectId(4), Rect::from_coords(0.05, 0.80, 0.15, 0.90)),
        ];
        let idx = BruteForce::from_entries(targets.iter().copied());
        let region = Rect::from_coords(0.45, 0.45, 0.55, 0.55);
        let list = private_nn_private_data(
            &idx,
            &region,
            FilterCount::Four,
            PrivateBoundMode::Safe,
            0.0,
        );
        // Target 2 is clearly nearest wherever the user is in the region.
        assert!(list.candidates.iter().any(|e| e.id == ObjectId(2)));
    }

    #[test]
    fn overlap_threshold_prunes_fringe_candidates() {
        let targets = [
            // Mostly inside any reasonable A_EXT.
            Entry::new(ObjectId(1), Rect::from_coords(0.45, 0.45, 0.55, 0.55)),
            // A huge region that barely grazes the search area.
            Entry::new(ObjectId(2), Rect::from_coords(0.0, 0.0, 2.0, 0.46)),
        ];
        let idx = BruteForce::from_entries(targets.iter().copied());
        let region = Rect::from_coords(0.48, 0.48, 0.52, 0.52);
        let all =
            private_nn_private_data(&idx, &region, FilterCount::One, PrivateBoundMode::Safe, 0.0);
        let pruned =
            private_nn_private_data(&idx, &region, FilterCount::One, PrivateBoundMode::Safe, 0.5);
        assert!(all.len() >= pruned.len());
        assert!(pruned.candidates.iter().any(|e| e.id == ObjectId(1)));
    }

    #[test]
    fn a_ext_contains_region_and_filters() {
        let (targets, region, _) = paper_like_setup();
        let idx = BruteForce::from_entries(targets.iter().copied());
        for fc in FilterCount::ALL {
            let list = private_nn_public_data(&idx, &region, fc);
            assert!(list.a_ext.contains_rect(&region));
            for f in &list.filters {
                assert!(
                    list.a_ext.intersects(&f.mbr),
                    "{fc:?}: filter {} outside A_EXT",
                    f.id
                );
            }
        }
    }
}
