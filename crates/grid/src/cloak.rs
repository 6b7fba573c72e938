//! Algorithm 1: the bottom-up cloaking algorithm.
//!
//! The algorithm is shared verbatim between the basic (complete pyramid)
//! and adaptive (incomplete pyramid) anonymizers — "the cloaking algorithm
//! for the adaptive location anonymizer is exactly similar to Algorithm 1;
//! the only difference is that the input is a cell from the lowest
//! *maintained* level" (Section 4.2). Both structures expose their cell
//! counters through [`CellStore`] and this module implements the algorithm
//! once on top of it.

use casper_geometry::Rect;

use crate::{CellId, Profile};

/// Read access to the per-cell user counters of a pyramid.
pub trait CellStore {
    /// Number of users currently inside cell `cid`
    /// (the paper's `cid.N`).
    fn count(&self, cid: CellId) -> u32;

    /// Counts of `cid` and its two union siblings (`v` vertical, `h`
    /// horizontal) in one call. Only invoked with the neighbours of
    /// `cid`, which share its parent (`v = morton ^ 2`, `h = morton ^ 1`
    /// never leave the parent's Z-ordered 4-block), so flat arenas can
    /// resolve all three with a single descent and three reads from one
    /// contiguous block. The default is three independent lookups.
    fn count_with_siblings(&self, cid: CellId, v: CellId, h: CellId) -> (u32, u32, u32) {
        (self.count(cid), self.count(v), self.count(h))
    }
}

/// The spatial region produced by the cloaking algorithm, together with the
/// bookkeeping the evaluation section needs (`k'` and `A'` for the accuracy
/// metrics of Figures 10c and 10d).
#[derive(Debug, Clone, PartialEq)]
pub struct CloakedRegion {
    /// The blurred spatial region sent to the database server.
    pub rect: Rect,
    /// The one or two pyramid cells the region is composed of.
    pub cells: Vec<CellId>,
    /// Number of users inside the region when it was computed — the
    /// paper's `k'`.
    pub user_count: u32,
    /// Pyramid level the region was found at.
    pub level: u8,
    /// Number of levels Algorithm 1 climbed from its starting cell
    /// (0 when the start cell satisfied the profile directly);
    /// proxy for cloaking work in the Figure 10a/11a/12a experiments.
    pub levels_climbed: u8,
}

impl CloakedRegion {
    /// Area of the cloaked region — the paper's `A'`.
    pub fn area(&self) -> f64 {
        self.rect.area()
    }

    /// k-accuracy `k'/k` of the region w.r.t. the requested profile
    /// (Figure 10c). Values close to 1 are best; large values mean the user
    /// received a more restrictive region than asked for.
    pub fn k_accuracy(&self, profile: &Profile) -> f64 {
        self.user_count as f64 / profile.k as f64
    }

    /// Area accuracy `A'/A_min` (Figure 10d). Only meaningful when the
    /// profile has a non-zero `a_min`.
    pub fn area_accuracy(&self, profile: &Profile) -> f64 {
        if profile.a_min <= 0.0 {
            return 1.0;
        }
        self.area() / profile.a_min
    }
}

/// Runs Algorithm 1 from `start` upward.
///
/// `start` is the lowest-level cell containing the user for the basic
/// anonymizer, or the lowest *maintained* cell for the adaptive anonymizer.
/// The returned region always satisfies the profile provided `k` does not
/// exceed the total number of registered users and `a_min` does not exceed
/// the total space (the registration-time preconditions stated above
/// Algorithm 1); otherwise the root region is returned as the best effort.
pub fn bottom_up_cloak<S: CellStore>(store: &S, profile: Profile, start: CellId) -> CloakedRegion {
    let region = bottom_up_cloak_impl(store, profile, start, true);
    crate::tel::record_cloak(&region);
    region
}

/// Ablation variant of Algorithm 1 that skips the neighbour-combination
/// step (lines 5–13): only single cells along the parent chain are
/// considered. Used by the ablation experiments to quantify how much the
/// horizontal/vertical sibling unions improve cloaking accuracy (they let
/// the algorithm stop half a level earlier whenever a sibling pair already
/// reaches `k`).
pub fn bottom_up_cloak_cells_only<S: CellStore>(
    store: &S,
    profile: Profile,
    start: CellId,
) -> CloakedRegion {
    let region = bottom_up_cloak_impl(store, profile, start, false);
    crate::tel::record_cloak(&region);
    region
}

fn bottom_up_cloak_impl<S: CellStore>(
    store: &S,
    profile: Profile,
    start: CellId,
    use_neighbors: bool,
) -> CloakedRegion {
    let mut cid = start;
    loop {
        // Fetch the cell count — and, when the neighbour step is on, both
        // sibling counts in the same lookup (one arena descent serves all
        // three: the siblings live in the same Z-ordered 4-block).
        let siblings = if use_neighbors {
            match (cid.vertical_neighbor(), cid.horizontal_neighbor()) {
                (Some(cid_v), Some(cid_h)) => Some((cid_v, cid_h)),
                _ => None,
            }
        } else {
            None
        };
        let (n, raw_v, raw_h) = match siblings {
            Some((cid_v, cid_h)) => store.count_with_siblings(cid, cid_v, cid_h),
            None => (store.count(cid), 0, 0),
        };
        let area = cid.area();
        // Line 2: the cell alone satisfies the profile.
        if profile.satisfied_by(n, area) {
            return CloakedRegion {
                rect: cid.rect(),
                cells: vec![cid],
                user_count: n,
                level: cid.level,
                levels_climbed: start.level - cid.level,
            };
        }
        // Lines 5-13: try combining with the vertical / horizontal sibling.
        if let Some((cid_v, cid_h)) = siblings {
            let n_v = n + raw_v;
            let n_h = n + raw_h;
            let union_area = 2.0 * area;
            if (n_v >= profile.k || n_h >= profile.k)
                && casper_geometry::approx_ge(union_area, profile.a_min)
            {
                // Line 9: prefer the combination whose count is closer
                // to k. Kept in the paper's literal form.
                #[allow(clippy::nonminimal_bool)]
                let pick_h =
                    (n_h >= profile.k && n_v >= profile.k && n_h <= n_v) || n_v < profile.k;
                let (other, count) = if pick_h { (cid_h, n_h) } else { (cid_v, n_v) };
                return CloakedRegion {
                    rect: cid.rect().union(&other.rect()),
                    cells: vec![cid, other],
                    user_count: count,
                    level: cid.level,
                    levels_climbed: start.level - cid.level,
                };
            }
        }
        // Line 15: recurse on the parent.
        match cid.parent() {
            Some(p) => cid = p,
            None => {
                // Root reached without satisfying the profile (k larger than
                // the registered population, or a_min > 1): the whole space
                // is the best possible answer.
                return CloakedRegion {
                    rect: cid.rect(),
                    cells: vec![cid],
                    user_count: n,
                    level: 0,
                    levels_climbed: start.level,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A toy store with explicit counts for a fixed-height pyramid built
    /// from a set of lowest-level occupied cells.
    struct ToyStore {
        counts: HashMap<CellId, u32>,
    }

    impl ToyStore {
        /// `users` are (level, x, y, n) entries at the lowest level; counts
        /// are aggregated up to the root.
        fn from_leaves(leaves: &[(u8, u32, u32, u32)]) -> Self {
            let mut counts: HashMap<CellId, u32> = HashMap::new();
            for &(level, x, y, n) in leaves {
                let mut cid = CellId::new(level, x, y);
                *counts.entry(cid).or_default() += n;
                while let Some(p) = cid.parent() {
                    *counts.entry(p).or_default() += n;
                    cid = p;
                }
            }
            Self { counts }
        }
    }

    impl CellStore for ToyStore {
        fn count(&self, cid: CellId) -> u32 {
            self.counts.get(&cid).copied().unwrap_or(0)
        }
    }

    #[test]
    fn cell_satisfying_profile_is_returned_directly() {
        let store = ToyStore::from_leaves(&[(3, 2, 2, 10)]);
        let start = CellId::new(3, 2, 2);
        let region = bottom_up_cloak(&store, Profile::new(5, 0.0), start);
        assert_eq!(region.cells, vec![start]);
        assert_eq!(region.user_count, 10);
        assert_eq!(region.levels_climbed, 0);
        assert_eq!(region.rect, start.rect());
    }

    #[test]
    fn horizontal_neighbor_combination() {
        // Start cell has 3 users, its horizontal sibling 4, vertical 0.
        let start = CellId::new(3, 2, 2);
        let h = start.horizontal_neighbor().unwrap();
        let store = ToyStore::from_leaves(&[(3, start.x, start.y, 3), (3, h.x, h.y, 4)]);
        let region = bottom_up_cloak(&store, Profile::new(6, 0.0), start);
        assert_eq!(region.user_count, 7);
        assert_eq!(region.cells.len(), 2);
        assert!(region.cells.contains(&h));
        assert_eq!(region.levels_climbed, 0);
        assert!(region.rect.contains_rect(&start.rect()));
        assert!(region.rect.contains_rect(&h.rect()));
    }

    #[test]
    fn vertical_neighbor_picked_when_horizontal_insufficient() {
        let start = CellId::new(3, 2, 2);
        let v = start.vertical_neighbor().unwrap();
        let store = ToyStore::from_leaves(&[(3, start.x, start.y, 3), (3, v.x, v.y, 5)]);
        let region = bottom_up_cloak(&store, Profile::new(6, 0.0), start);
        assert_eq!(region.user_count, 8);
        assert!(region.cells.contains(&v));
    }

    #[test]
    fn closer_to_k_combination_wins_when_both_satisfy() {
        // Both neighbours satisfy k = 5; horizontal total (6) is closer to
        // k than vertical total (9), so Algorithm 1 line 9 picks horizontal.
        let start = CellId::new(3, 2, 2);
        let h = start.horizontal_neighbor().unwrap();
        let v = start.vertical_neighbor().unwrap();
        let store =
            ToyStore::from_leaves(&[(3, start.x, start.y, 2), (3, h.x, h.y, 4), (3, v.x, v.y, 7)]);
        let region = bottom_up_cloak(&store, Profile::new(5, 0.0), start);
        assert_eq!(region.user_count, 6);
        assert!(region.cells.contains(&h));
    }

    #[test]
    fn vertical_wins_when_its_total_is_closer() {
        let start = CellId::new(3, 2, 2);
        let h = start.horizontal_neighbor().unwrap();
        let v = start.vertical_neighbor().unwrap();
        let store =
            ToyStore::from_leaves(&[(3, start.x, start.y, 2), (3, h.x, h.y, 9), (3, v.x, v.y, 4)]);
        let region = bottom_up_cloak(&store, Profile::new(5, 0.0), start);
        // n_h = 11, n_v = 6; both >= 5 and n_h > n_v, so vertical is closer.
        assert_eq!(region.user_count, 6);
        assert!(region.cells.contains(&v));
    }

    #[test]
    fn recursion_climbs_until_satisfied() {
        // One lone user: k = 4 can only be met near the top.
        let store = ToyStore::from_leaves(&[(3, 0, 0, 1), (3, 7, 7, 3)]);
        let start = CellId::new(3, 0, 0);
        let region = bottom_up_cloak(&store, Profile::new(4, 0.0), start);
        // The only region containing 4 users is the root.
        assert_eq!(region.level, 0);
        assert_eq!(region.user_count, 4);
        assert_eq!(region.levels_climbed, 3);
    }

    #[test]
    fn a_min_alone_forces_higher_levels() {
        // Plenty of users everywhere, but the user wants at least a quarter
        // of the space.
        let store = ToyStore::from_leaves(&[(3, 2, 2, 50)]);
        let start = CellId::new(3, 2, 2);
        let region = bottom_up_cloak(&store, Profile::new(1, 0.25), start);
        assert!(region.area() >= 0.25 - 1e-12);
        assert_eq!(region.level, 1);
    }

    #[test]
    fn a_min_satisfied_by_two_cell_union() {
        // Union of two level-1 cells has area 0.5: satisfies a_min = 0.4
        // without climbing to the root.
        let start = CellId::new(3, 2, 2);
        let store = ToyStore::from_leaves(&[(3, start.x, start.y, 10)]);
        let region = bottom_up_cloak(&store, Profile::new(1, 0.4), start);
        assert!(region.area() >= 0.4 - 1e-12);
        assert_eq!(region.cells.len(), 2);
        assert_eq!(region.level, 1);
    }

    #[test]
    fn unsatisfiable_k_returns_root() {
        let store = ToyStore::from_leaves(&[(3, 1, 1, 2)]);
        let region = bottom_up_cloak(&store, Profile::new(100, 0.0), CellId::new(3, 1, 1));
        assert_eq!(region.rect, Rect::unit());
        assert_eq!(region.level, 0);
    }

    #[test]
    fn accuracy_metrics() {
        let store = ToyStore::from_leaves(&[(2, 1, 1, 8)]);
        let profile = Profile::new(4, 0.0);
        let region = bottom_up_cloak(&store, profile, CellId::new(2, 1, 1));
        assert_eq!(region.k_accuracy(&profile), 2.0);
        assert_eq!(region.area_accuracy(&profile), 1.0); // a_min = 0
        let profile2 = Profile::new(4, 0.01);
        let region2 = bottom_up_cloak(&store, profile2, CellId::new(2, 1, 1));
        assert!(region2.area_accuracy(&profile2) >= 1.0);
    }

    #[test]
    fn region_always_contains_start_cell() {
        let store = ToyStore::from_leaves(&[(4, 3, 9, 1), (4, 12, 2, 30)]);
        for k in [1u32, 2, 10, 31] {
            let start = CellId::new(4, 3, 9);
            let region = bottom_up_cloak(&store, Profile::new(k, 0.0), start);
            assert!(
                region.rect.contains_rect(&start.rect()),
                "k={k}: cloak must contain the user's cell"
            );
        }
    }
}
