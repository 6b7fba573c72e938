//! The complete pyramid of the *basic* location anonymizer (Section 4.1).
//!
//! All `H` levels are materialised in **one flat level-order arena**: a
//! single `Vec<u32>` holding the root counter first, then the 4 level-1
//! counters, then the 16 level-2 counters, and so on — level `h` starts at
//! offset `(4^h - 1) / 3` and is indexed by the cell's Morton (Z-order)
//! key, so the four children of any cell are four *consecutive* words and
//! a bottom-up counter walk is `H` array writes at
//! `offset(h) + (morton >> 2*(H-1-h))` with no hashing or pointer chasing.
//! A hash table maps each registered user to her cell at the *lowest*
//! level. Location updates touch `O(H)` counters in the worst case
//! (decrement the old path and increment the new path up to, but not
//! including, their lowest common ancestor).

use casper_geometry::Point;

use crate::hash::FastMap;
use crate::user_entry::UserEntry;
use crate::{
    bottom_up_cloak, CellId, CellStore, CloakedRegion, MaintenanceStats, Profile, PyramidStructure,
    UserId,
};

/// The complete grid pyramid backing the basic location anonymizer.
///
/// ```
/// use casper_geometry::Point;
/// use casper_grid::{CompletePyramid, Profile, PyramidStructure, UserId};
///
/// let mut pyramid = CompletePyramid::new(8);
/// pyramid.register(UserId(1), Profile::new(2, 0.0), Point::new(0.30, 0.40));
/// pyramid.register(UserId(2), Profile::new(1, 0.0), Point::new(0.31, 0.41));
///
/// let region = pyramid.cloak_user(UserId(1)).unwrap();
/// assert!(region.user_count >= 2);                  // k-anonymity
/// assert!(region.rect.contains(Point::new(0.30, 0.40)));
/// ```
#[derive(Debug, Clone)]
pub struct CompletePyramid {
    /// Number of levels `H`; levels are `0..height`, lowest is `height-1`.
    height: u8,
    /// All counters of all levels in one flat level-order arena: level `h`
    /// occupies `cells[level_offset(h) .. level_offset(h + 1)]`, indexed by
    /// the cell's Morton key within the level.
    cells: Vec<u32>,
    users: FastMap<UserId, UserEntry>,
}

/// Start of level `h` in the flat level-order arena: `(4^h - 1) / 3`.
#[inline]
pub(crate) fn level_offset(h: u8) -> usize {
    ((1usize << (2 * h as usize)) - 1) / 3
}

impl CompletePyramid {
    /// Creates an empty pyramid with `height` levels (`height >= 1`).
    ///
    /// # Panics
    /// Panics when `height` is 0 or greater than 16 (a 16-level pyramid
    /// already has a billion lowest-level cells; the paper uses 4–9).
    pub fn new(height: u8) -> Self {
        assert!(
            (1..=16).contains(&height),
            "pyramid height must be in 1..=16"
        );
        let cells = vec![0u32; level_offset(height)];
        Self {
            height,
            cells,
            users: FastMap::default(),
        }
    }

    /// The lowest pyramid level (`H - 1`).
    #[inline]
    pub fn lowest_level(&self) -> u8 {
        self.height - 1
    }

    #[inline]
    fn index(cid: CellId) -> usize {
        level_offset(cid.level) + cid.morton() as usize
    }

    /// Adds `delta` to every counter on the path from `cid` up to (but not
    /// including) `stop_above` — pure index arithmetic on the flat arena:
    /// the parent of the cell at Morton key `m` sits at Morton key `m >> 2`
    /// one level-offset block earlier.
    fn add_along_path(&mut self, cid: CellId, delta: i64, stop_above: Option<CellId>) -> u64 {
        debug_assert!(stop_above.is_none_or(|s| cid.is_descendant_of(&s)));
        let stop_level = stop_above.map_or(-1, |s| s.level as i32);
        let mut morton = cid.morton();
        let mut level = cid.level as i32;
        let mut touched = 0;
        while level > stop_level {
            let slot = &mut self.cells[level_offset(level as u8) + morton as usize];
            *slot = (*slot as i64 + delta) as u32;
            touched += 1;
            morton >>= 2;
            level -= 1;
        }
        touched
    }

    /// Lowest-level cell of a registered user.
    pub fn cell_of(&self, uid: UserId) -> Option<CellId> {
        self.users.get(&uid).map(|e| e.cid)
    }

    /// Verifies the internal-consistency invariant: every internal cell's
    /// count equals the sum of its children's counts, and the root count
    /// equals the number of registered users. Intended for tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.count(CellId::ROOT) as usize != self.users.len() {
            return Err(format!(
                "root count {} != user count {}",
                self.count(CellId::ROOT),
                self.users.len()
            ));
        }
        for h in 0..self.lowest_level() {
            // Level sweep over the contiguous arena: the children of the
            // parent at Morton key `m` are the four words at `4m .. 4m+4`
            // of the next level's slice.
            let (parents, children) = self.cells[level_offset(h)..].split_at(1usize << (2 * h));
            for (m, &parent_count) in parents.iter().enumerate() {
                let sum: u32 = children[4 * m..4 * m + 4].iter().sum();
                if sum != parent_count {
                    let cid = CellId::from_morton(h, m as u64);
                    return Err(format!(
                        "cell {cid} count {parent_count} != children sum {sum}"
                    ));
                }
            }
        }
        for e in self.users.values() {
            if CellId::at(self.lowest_level(), e.pos) != e.cid {
                return Err(format!("hash table cell {} stale for {:?}", e.cid, e.pos));
            }
        }
        Ok(())
    }
}

impl CellStore for CompletePyramid {
    #[inline]
    fn count(&self, cid: CellId) -> u32 {
        self.cells[Self::index(cid)]
    }

    #[inline]
    fn count_with_siblings(&self, cid: CellId, v: CellId, h: CellId) -> (u32, u32, u32) {
        // The cell and both union siblings share the parent's Z-ordered
        // 4-block: one bounds check, three reads from one cache line.
        let morton = cid.morton();
        debug_assert_eq!(v.morton(), morton ^ 2);
        debug_assert_eq!(h.morton(), morton ^ 1);
        let block_start = level_offset(cid.level) + (morton & !3) as usize;
        let block = &self.cells[block_start..block_start + 4];
        let q = (morton & 3) as usize;
        (block[q], block[q ^ 2], block[q ^ 1])
    }
}

impl PyramidStructure for CompletePyramid {
    fn height(&self) -> u8 {
        self.height
    }

    fn register(&mut self, uid: UserId, profile: Profile, pos: Point) -> MaintenanceStats {
        // Re-registration is an update of both location and profile.
        if self.users.contains_key(&uid) {
            let mut stats = self.update_profile(uid, profile);
            stats += self.update_location(uid, pos);
            return stats;
        }
        let cid = CellId::at(self.lowest_level(), pos);
        let counter_updates = self.add_along_path(cid, 1, None);
        self.users.insert(uid, UserEntry { profile, pos, cid });
        let stats = MaintenanceStats {
            counter_updates,
            hash_updates: 1,
            ..MaintenanceStats::ZERO
        };
        stats.record();
        stats
    }

    fn update_location(&mut self, uid: UserId, pos: Point) -> MaintenanceStats {
        let Some(entry) = self.users.get_mut(&uid) else {
            return MaintenanceStats::ZERO;
        };
        let old = entry.cid;
        let new = CellId::at(self.height - 1, pos);
        entry.pos = pos;
        if old == new {
            // Same lowest-level cell: nothing to propagate.
            return MaintenanceStats::ZERO;
        }
        entry.cid = new;
        // Find the lowest common ancestor; counters at and above it are
        // unchanged by the move.
        let mut a = old;
        let mut b = new;
        while a != b {
            // Both start at the same level, so they reach the LCA together.
            a = a.parent().expect("paths must meet at the root");
            b = b.parent().expect("paths must meet at the root");
        }
        let lca = a;
        let dec = self.add_along_path(old, -1, Some(lca));
        let inc = self.add_along_path(new, 1, Some(lca));
        let stats = MaintenanceStats {
            counter_updates: dec + inc,
            hash_updates: 1,
            ..MaintenanceStats::ZERO
        };
        stats.record();
        stats
    }

    fn update_profile(&mut self, uid: UserId, profile: Profile) -> MaintenanceStats {
        if let Some(entry) = self.users.get_mut(&uid) {
            entry.profile = profile;
            let stats = MaintenanceStats {
                hash_updates: 1,
                ..MaintenanceStats::ZERO
            };
            stats.record();
            stats
        } else {
            MaintenanceStats::ZERO
        }
    }

    fn deregister(&mut self, uid: UserId) -> MaintenanceStats {
        let Some(entry) = self.users.remove(&uid) else {
            return MaintenanceStats::ZERO;
        };
        let counter_updates = self.add_along_path(entry.cid, -1, None);
        let stats = MaintenanceStats {
            counter_updates,
            hash_updates: 1,
            ..MaintenanceStats::ZERO
        };
        stats.record();
        stats
    }

    fn cloak_user(&self, uid: UserId) -> Option<CloakedRegion> {
        let entry = self.users.get(&uid)?;
        Some(bottom_up_cloak(self, entry.profile, entry.cid))
    }

    fn position_of(&self, uid: UserId) -> Option<Point> {
        self.users.get(&uid).map(|e| e.pos)
    }

    fn profile_of(&self, uid: UserId) -> Option<Profile> {
        self.users.get(&uid).map(|e| e.profile)
    }

    fn cloak_point(&self, pos: Point, profile: Profile) -> CloakedRegion {
        bottom_up_cloak(self, profile, CellId::at(self.lowest_level(), pos))
    }

    fn user_count(&self) -> usize {
        self.users.len()
    }

    fn user_ids(&self) -> Vec<UserId> {
        self.users.keys().copied().collect()
    }

    fn user_records(&self) -> Vec<(UserId, Profile, Point)> {
        // One pass over the hash table instead of the default's per-uid
        // re-lookups — the checkpoint gather path calls this per shard.
        self.users
            .iter()
            .map(|(&uid, e)| (uid, e.profile, e.pos))
            .collect()
    }

    fn maintained_cells(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uid(n: u64) -> UserId {
        UserId(n)
    }

    #[test]
    fn new_pyramid_is_empty_and_sized() {
        let p = CompletePyramid::new(4);
        assert_eq!(p.height(), 4);
        assert_eq!(p.user_count(), 0);
        // 1 + 4 + 16 + 64 cells
        assert_eq!(p.maintained_cells(), 85);
        assert_eq!(p.count(CellId::ROOT), 0);
    }

    #[test]
    #[should_panic]
    fn zero_height_is_rejected() {
        CompletePyramid::new(0);
    }

    #[test]
    fn register_increments_whole_path() {
        let mut p = CompletePyramid::new(4);
        let stats = p.register(uid(1), Profile::RELAXED, Point::new(0.1, 0.1));
        assert_eq!(stats.counter_updates, 4); // one per level
        assert_eq!(stats.hash_updates, 1);
        assert_eq!(p.count(CellId::ROOT), 1);
        assert_eq!(p.count(CellId::at(3, Point::new(0.1, 0.1))), 1);
        p.check_invariants().unwrap();
    }

    #[test]
    fn update_within_same_cell_is_free() {
        let mut p = CompletePyramid::new(6);
        p.register(uid(1), Profile::RELAXED, Point::new(0.101, 0.101));
        let stats = p.update_location(uid(1), Point::new(0.102, 0.102));
        assert_eq!(stats, MaintenanceStats::ZERO);
        assert_eq!(p.position_of(uid(1)).unwrap(), Point::new(0.102, 0.102));
        p.check_invariants().unwrap();
    }

    #[test]
    fn update_to_adjacent_cell_touches_only_levels_below_lca() {
        let mut p = CompletePyramid::new(6);
        // Two positions in the same level-1 quadrant but different
        // lowest-level cells.
        let a = Point::new(0.01, 0.01);
        let b = Point::new(0.26, 0.01); // crosses a level-2..5 boundary
        p.register(uid(1), Profile::RELAXED, a);
        let stats = p.update_location(uid(1), b);
        assert!(stats.counter_updates > 0);
        assert!(stats.counter_updates < 2 * 6, "LCA must cut the path");
        p.check_invariants().unwrap();
        assert_eq!(p.count(CellId::at(5, b)), 1);
        assert_eq!(p.count(CellId::at(5, a)), 0);
        assert_eq!(p.count(CellId::ROOT), 1);
    }

    #[test]
    fn update_across_the_space_touches_full_paths() {
        let mut p = CompletePyramid::new(5);
        p.register(uid(1), Profile::RELAXED, Point::new(0.01, 0.01));
        let stats = p.update_location(uid(1), Point::new(0.99, 0.99));
        // LCA is the root: 4 decrements + 4 increments (levels 1..=4).
        assert_eq!(stats.counter_updates, 8);
        p.check_invariants().unwrap();
    }

    #[test]
    fn deregister_removes_user_everywhere() {
        let mut p = CompletePyramid::new(4);
        p.register(uid(1), Profile::RELAXED, Point::new(0.4, 0.4));
        p.register(uid(2), Profile::RELAXED, Point::new(0.4, 0.41));
        let stats = p.deregister(uid(1));
        assert_eq!(stats.counter_updates, 4);
        assert_eq!(p.user_count(), 1);
        assert!(p.position_of(uid(1)).is_none());
        p.check_invariants().unwrap();
        // Deregistering twice is a no-op.
        assert_eq!(p.deregister(uid(1)), MaintenanceStats::ZERO);
    }

    #[test]
    fn reregistration_behaves_like_update() {
        let mut p = CompletePyramid::new(5);
        p.register(uid(7), Profile::new(2, 0.0), Point::new(0.1, 0.1));
        p.register(uid(7), Profile::new(3, 0.01), Point::new(0.9, 0.9));
        assert_eq!(p.user_count(), 1);
        assert_eq!(p.profile_of(uid(7)).unwrap(), Profile::new(3, 0.01));
        assert_eq!(
            p.cell_of(uid(7)).unwrap(),
            CellId::at(4, Point::new(0.9, 0.9))
        );
        p.check_invariants().unwrap();
    }

    #[test]
    fn cloak_user_satisfies_profile_when_feasible() {
        let mut p = CompletePyramid::new(6);
        // Cluster of 10 users around (0.3, 0.3).
        for i in 0..10 {
            let off = i as f64 * 0.001;
            p.register(uid(i), Profile::new(5, 0.0), Point::new(0.3 + off, 0.3));
        }
        let region = p.cloak_user(uid(0)).unwrap();
        assert!(region.user_count >= 5);
        assert!(region.rect.contains(Point::new(0.3, 0.3)));
    }

    #[test]
    fn cloak_unknown_user_is_none() {
        let p = CompletePyramid::new(4);
        assert!(p.cloak_user(uid(99)).is_none());
    }

    #[test]
    fn cloak_point_works_for_unregistered_queriers() {
        let mut p = CompletePyramid::new(6);
        for i in 0..20 {
            p.register(
                uid(i),
                Profile::RELAXED,
                Point::new(0.5 + (i as f64) * 1e-4, 0.5),
            );
        }
        let region = p.cloak_point(Point::new(0.5, 0.5), Profile::new(10, 0.0));
        assert!(region.user_count >= 10);
        assert!(region.rect.contains(Point::new(0.5, 0.5)));
    }

    #[test]
    fn profile_update_changes_subsequent_cloaks() {
        let mut p = CompletePyramid::new(8);
        for i in 0..50 {
            let x = 0.2 + (i % 10) as f64 * 0.001;
            let y = 0.2 + (i / 10) as f64 * 0.001;
            p.register(uid(i), Profile::RELAXED, Point::new(x, y));
        }
        let small = p.cloak_user(uid(0)).unwrap();
        p.update_profile(uid(0), Profile::new(1, 0.5));
        let big = p.cloak_user(uid(0)).unwrap();
        assert!(big.area() > small.area());
        assert!(big.area() >= 0.5 - 1e-12);
    }

    #[test]
    fn invariants_hold_under_random_churn() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let mut p = CompletePyramid::new(6);
        for i in 0..200u64 {
            p.register(
                uid(i),
                Profile::new(rng.gen_range(1..20), rng.gen_range(0.0..0.01)),
                Point::new(rng.gen(), rng.gen()),
            );
        }
        for _ in 0..1000 {
            let id = uid(rng.gen_range(0..200));
            match rng.gen_range(0..3) {
                0 => {
                    p.update_location(id, Point::new(rng.gen(), rng.gen()));
                }
                1 => {
                    p.deregister(id);
                }
                _ => {
                    p.register(id, Profile::RELAXED, Point::new(rng.gen(), rng.gen()));
                }
            }
        }
        p.check_invariants().unwrap();
    }
}
