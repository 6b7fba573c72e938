//! A sharded, *concurrent* location anonymizer: horizontal scale-out of
//! the trusted third party.
//!
//! One anonymizer process per metro area does not survive planet-scale
//! deployments. This module splits the pyramid at a fixed `shard_level`:
//! the `4^shard_level` quadrants each run their own [`AdaptivePyramid`]
//! over their sub-space (re-normalised to the unit square), and a thin
//! coordinator keeps only the *top* of the pyramid — per-shard population
//! counts — to serve requests that cannot be satisfied inside one shard.
//!
//! The shard is also the **concurrency unit**: every shard pyramid sits
//! behind its own `RwLock`, the coordinator tier is a row of atomic
//! population counters (read lock-free by escalated cloaks), and all
//! public methods take `&self` — updates and cloaks for *different*
//! shards execute in parallel: threads that drive it directly (as the
//! benchmark's drivers do) contend only when they touch one shard.
//!
//! Cloaking stays local for the overwhelming majority of users (their
//! `k` is met inside the shard) and escalates to the coordinator's
//! coarse levels only for very strict profiles, preserving Algorithm 1's
//! guarantees globally:
//!
//! * regions still contain ≥ k users (counted across shards when
//!   escalated);
//! * regions are still grid-aligned cells of the *global* pyramid, so the
//!   quality guarantee (no data-dependent boundaries) is unchanged.
//!
//! A shard is not a failure domain of its own: it lives in the
//! anonymizer's process and fails with it, and every acknowledged update
//! is applied to its shard before the ack. Availability of the trusted
//! tier is replication's job (a hot standby replaying the WAL, DESIGN.md
//! §16), never a degraded mode in which updates wait outside the pyramid.
//!
//! # Lock discipline
//!
//! No method ever holds two locks at once: the home table is read,
//! copied, and released before any shard lock is taken, and a cross-shard
//! migration locks the old shard, then — after releasing it — the new
//! one. Between those two sections the migrating user is in *no* shard;
//! the atomic population counters therefore transiently under-count,
//! which is the safe direction for k-anonymity (a cloak can only come out
//! coarser, never tighter, than the truth warrants). A concurrent cloak
//! that catches a user mid-migration retries briefly and finally falls
//! back to coordinator escalation, which needs no shard lock at all.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::RwLock;

use casper_geometry::{Point, Rect};
use casper_grid::{
    bottom_up_cloak, sanitize_position, AdaptivePyramid, CellId, CellStore, CloakedRegion,
    MaintenanceStats, Profile, PyramidStructure, UserId,
};

use crate::sync::{read, write};

/// Stripes in the [`HomeTable`]; a power of two so a uid's stripe is a
/// mask. 64 stripes keep concurrent lookups and migrations for
/// different users off each other's locks while each per-stripe map
/// stays dense.
const HOME_STRIPES: usize = 64;

/// The user → (home shard, original profile) table, striped by uid: the
/// cloak path's per-user read and the mutation paths' writes contend on
/// 1/64th of the table instead of one global lock, which is what kept
/// update and cloak throughput flat across workers before.
#[derive(Debug)]
struct HomeTable {
    stripes: Vec<RwLock<casper_grid::FastMap<UserId, (u16, Profile)>>>,
}

impl HomeTable {
    fn new() -> Self {
        Self {
            stripes: (0..HOME_STRIPES)
                .map(|_| RwLock::new(casper_grid::FastMap::default()))
                .collect(),
        }
    }

    #[inline]
    fn stripe(&self, uid: UserId) -> &RwLock<casper_grid::FastMap<UserId, (u16, Profile)>> {
        &self.stripes[uid.0 as usize & (HOME_STRIPES - 1)]
    }

    fn get(&self, uid: UserId) -> Option<(u16, Profile)> {
        read(self.stripe(uid)).get(&uid).copied()
    }

    fn contains(&self, uid: UserId) -> bool {
        read(self.stripe(uid)).contains_key(&uid)
    }

    fn insert(&self, uid: UserId, entry: (u16, Profile)) {
        write(self.stripe(uid)).insert(uid, entry);
    }

    fn remove(&self, uid: UserId) -> Option<(u16, Profile)> {
        write(self.stripe(uid)).remove(&uid)
    }

    fn len(&self) -> usize {
        self.stripes.iter().map(|s| read(s).len()).sum()
    }

    fn keys(&self) -> Vec<UserId> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            out.extend(read(stripe).keys().copied());
        }
        out
    }

    /// Point-in-time copy of every entry (stripe by stripe; exact only
    /// when mutations are quiesced, like the invariant checker requires).
    fn entries(&self) -> Vec<(UserId, (u16, Profile))> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            out.extend(read(stripe).iter().map(|(&uid, &entry)| (uid, entry)));
        }
        out
    }
}

/// The sharded anonymizer: `4^shard_level` adaptive shard pyramids plus a
/// count-only coordinator for the levels above `shard_level`.
#[derive(Debug)]
pub struct ShardedAnonymizer {
    shard_level: u8,
    /// Row-major `2^shard_level x 2^shard_level` shard pyramids, each
    /// behind its own lock — the unit of write parallelism.
    shards: Vec<RwLock<AdaptivePyramid>>,
    /// Users' current shard and *original* (global-units) profile: the
    /// shard holds a rescaled copy, and rescaling is lossy when `a_min`
    /// exceeds the shard area, so escalation uses this original.
    homes: HomeTable,
    /// The coordinator tier: per-shard population counters kept in step
    /// with the shard pyramids. Escalated cloaks read these lock-free
    /// instead of touching any shard lock.
    populations: Vec<AtomicU32>,
}

/// How often a cloak re-reads the home table when it catches its user
/// mid-migration before falling back to coordinator escalation.
const MIGRATION_RETRIES: usize = 8;

/// Coordinator view: cell counts above (and at) the shard level, derived
/// from the atomic shard populations — no shard lock required.
struct TopCounts<'a> {
    anonymizer: &'a ShardedAnonymizer,
}

impl CellStore for TopCounts<'_> {
    fn count(&self, cid: CellId) -> u32 {
        let a = self.anonymizer;
        assert!(
            cid.level <= a.shard_level,
            "coordinator only holds top levels"
        );
        // Sum the populations of every shard under `cid`.
        let span = 1u32 << (a.shard_level - cid.level);
        let extent = CellId::grid_extent(a.shard_level);
        let mut total = 0u32;
        for sy in (cid.y * span)..((cid.y + 1) * span) {
            for sx in (cid.x * span)..((cid.x + 1) * span) {
                total += a.populations[(sy * extent + sx) as usize].load(Ordering::Acquire);
            }
        }
        total
    }
}

impl ShardedAnonymizer {
    /// Creates a sharded anonymizer equivalent to one global pyramid of
    /// `global_height` levels, split at `shard_level`
    /// (`1 <= shard_level < global_height`).
    pub fn new(global_height: u8, shard_level: u8) -> Self {
        assert!(
            shard_level >= 1 && shard_level < global_height,
            "need at least one coordinator level and one shard level"
        );
        let shard_count = 1usize << (2 * shard_level);
        Self {
            shard_level,
            shards: (0..shard_count)
                .map(|_| RwLock::new(AdaptivePyramid::new(global_height - shard_level)))
                .collect(),
            homes: HomeTable::new(),
            populations: (0..shard_count).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Refreshes the telemetry gauge for one shard after a mutation.
    fn tel_shard(&self, idx: usize) {
        crate::tel::record_shard_state(idx, self.populations[idx].load(Ordering::Relaxed) as usize);
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total registered users across all shards.
    pub fn user_count(&self) -> usize {
        self.homes.len()
    }

    /// Users currently homed in shard `idx` (from the coordinator's
    /// atomic counter; transiently conservative during migrations).
    pub fn shard_population(&self, idx: usize) -> usize {
        self.populations[idx].load(Ordering::Acquire) as usize
    }

    /// The shard index a position falls into — the partition key a
    /// checkpoint groups its per-shard segments by.
    pub fn shard_of(&self, pos: Point) -> usize {
        let pos = Point::new(pos.x.clamp(0.0, 1.0), pos.y.clamp(0.0, 1.0));
        self.shard_index(self.shard_cell(pos)) as usize
    }

    fn shard_cell(&self, pos: Point) -> CellId {
        CellId::at(self.shard_level, pos)
    }

    fn shard_index(&self, cell: CellId) -> u16 {
        (cell.y * CellId::grid_extent(self.shard_level) + cell.x) as u16
    }

    fn cell_of_shard(&self, idx: u16) -> CellId {
        let extent = CellId::grid_extent(self.shard_level);
        CellId::new(self.shard_level, idx as u32 % extent, idx as u32 / extent)
    }

    /// Maps a global position into the shard's unit space.
    fn to_local(&self, shard: CellId, pos: Point) -> Point {
        let r = shard.rect();
        Point::new(
            ((pos.x - r.min.x) / r.width()).clamp(0.0, 1.0),
            ((pos.y - r.min.y) / r.height()).clamp(0.0, 1.0),
        )
    }

    /// Maps a shard-local point back into global coordinates.
    fn to_global_point(&self, shard: CellId, local: Point) -> Point {
        let r = shard.rect();
        Point::new(
            r.min.x + local.x * r.width(),
            r.min.y + local.y * r.height(),
        )
    }

    /// Maps a shard-local rectangle back into global coordinates.
    fn to_global(&self, shard: CellId, local: Rect) -> Rect {
        let r = shard.rect();
        Rect::from_coords(
            r.min.x + local.min.x * r.width(),
            r.min.y + local.min.y * r.height(),
            r.min.x + local.max.x * r.width(),
            r.min.y + local.max.y * r.height(),
        )
    }

    /// A profile re-expressed in shard-local area units.
    fn local_profile(&self, shard: CellId, profile: Profile) -> Profile {
        Profile::new(profile.k, (profile.a_min / shard.area()).min(1.0))
    }

    /// Registers a user (positions go through [`sanitize_position`]:
    /// non-finite rejected, out-of-space clamped).
    pub fn register(&self, uid: UserId, profile: Profile, pos: Point) -> MaintenanceStats {
        let Some(pos) = sanitize_position(pos) else {
            return MaintenanceStats::ZERO;
        };
        if self.homes.contains(uid) {
            let mut s = self.update_profile(uid, profile);
            s += self.update_location(uid, pos);
            return s;
        }
        let cell = self.shard_cell(pos);
        let idx = self.shard_index(cell);
        let local = self.to_local(cell, pos);
        let lp = self.local_profile(cell, profile);
        let stats = write(&self.shards[idx as usize]).register(uid, lp, local);
        self.populations[idx as usize].fetch_add(1, Ordering::AcqRel);
        self.homes.insert(uid, (idx, profile));
        self.tel_shard(idx as usize);
        stats
    }

    /// Processes a location update, migrating the user between shards
    /// when she crosses a shard boundary.
    pub fn update_location(&self, uid: UserId, pos: Point) -> MaintenanceStats {
        let Some(pos) = sanitize_position(pos) else {
            return MaintenanceStats::ZERO;
        };
        let Some((home, profile)) = self.homes.get(uid) else {
            return MaintenanceStats::ZERO;
        };
        let cell = self.shard_cell(pos);
        let idx = self.shard_index(cell);
        let local = self.to_local(cell, pos);
        if idx == home {
            return write(&self.shards[idx as usize]).update_location(uid, local);
        }
        // Cross-shard migration: deregister + register (shards are
        // equal-sized, so the rescaled profile is identical). The two
        // shard locks are taken strictly one after the other; in between
        // the user is counted in neither shard, which under-counts —
        // the conservative direction for every concurrent cloak.
        let lp = self.local_profile(cell, profile);
        let mut stats = write(&self.shards[home as usize]).deregister(uid);
        self.populations[home as usize].fetch_sub(1, Ordering::AcqRel);
        stats += write(&self.shards[idx as usize]).register(uid, lp, local);
        self.populations[idx as usize].fetch_add(1, Ordering::AcqRel);
        self.homes.insert(uid, (idx, profile));
        self.tel_shard(home as usize);
        self.tel_shard(idx as usize);
        stats
    }

    /// Changes a user's privacy profile.
    pub fn update_profile(&self, uid: UserId, profile: Profile) -> MaintenanceStats {
        let Some((home, _)) = self.homes.get(uid) else {
            return MaintenanceStats::ZERO;
        };
        let cell = self.cell_of_shard(home);
        let lp = self.local_profile(cell, profile);
        self.homes.insert(uid, (home, profile));
        write(&self.shards[home as usize]).update_profile(uid, lp)
    }

    /// Removes a user.
    pub fn deregister(&self, uid: UserId) -> MaintenanceStats {
        let Some((home, _)) = self.homes.remove(uid) else {
            return MaintenanceStats::ZERO;
        };
        let stats = write(&self.shards[home as usize]).deregister(uid);
        self.populations[home as usize].fetch_sub(1, Ordering::AcqRel);
        self.tel_shard(home as usize);
        stats
    }

    /// Escalates to the coordinator's top levels from the user's home
    /// cell, with the original (global-units) profile. Lock-free: counts
    /// come from the atomic population tier.
    fn escalate(&self, home_cell: CellId, profile: Profile) -> CloakedRegion {
        let top = TopCounts { anonymizer: self };
        bottom_up_cloak(&top, profile, home_cell)
    }

    /// The one local-or-escalate decision every cloak path makes. A
    /// shard's answer `local` (Algorithm 1 in shard-local units, checked
    /// against the shard-local profile) stands when it satisfies that
    /// profile and the global `a_min` fits inside a shard at all; it is
    /// then translated back to global coordinates. Otherwise the
    /// coordinator climbs its top levels from the shard cell with the
    /// original (global-units) profile.
    fn local_or_escalate(
        &self,
        cell: CellId,
        global_profile: Profile,
        local_profile: Profile,
        local: CloakedRegion,
    ) -> CloakedRegion {
        let globally_ok = global_profile.a_min <= cell.area() + 1e-15;
        if globally_ok && local_profile.satisfied_by(local.user_count, local.area()) {
            return CloakedRegion {
                rect: self.to_global(cell, local.rect),
                cells: Vec::new(), // shard-local ids are not global cells
                user_count: local.user_count,
                level: self.shard_level + local.level,
                levels_climbed: local.levels_climbed,
            };
        }
        self.escalate(cell, global_profile)
    }

    /// Cloaks a registered user: local Algorithm 1 inside her shard, with
    /// coordinator escalation when the shard cannot satisfy the profile.
    pub fn cloak_user(&self, uid: UserId) -> Option<CloakedRegion> {
        let mut lookup = self.homes.get(uid)?;
        // A concurrent migration moves the user between shards with a
        // window in which she is registered in neither; retry the
        // home-table read a few times before escalating from the
        // last-known home cell (coarser, but still k-anonymous and still
        // a global grid cell).
        for _ in 0..MIGRATION_RETRIES {
            let (home, global_profile) = lookup;
            let local_answer = {
                // The shard-lock acquisition and the pyramid walk are the
                // two hot-path waits worth seeing separately in a trace.
                let shard = crate::tel::with_lock_wait_span(home as usize, || {
                    read(&self.shards[home as usize])
                });
                let walk_span = crate::tel::span("pyramid_walk");
                let answer = shard
                    .profile_of(uid)
                    .and_then(|lp| shard.cloak_user(uid).map(|region| (lp, region)));
                drop(walk_span);
                answer
            };
            let Some((local_profile, local)) = local_answer else {
                // Mid-migration: the home table said shard `home`, but the
                // user was not there when we looked. Re-read and retry.
                std::thread::yield_now();
                lookup = self.homes.get(uid)?;
                continue;
            };
            let cell = self.cell_of_shard(home);
            return Some(self.local_or_escalate(cell, global_profile, local_profile, local));
        }
        // The user kept migrating under us; answer from the coordinator
        // tier, anchored at her latest home cell.
        let (home, global_profile) = lookup;
        Some(self.escalate(self.cell_of_shard(home), global_profile))
    }

    /// Cloaks a batch of registered users, output in input order
    /// (`None` for unknown users).
    ///
    /// The batch form of [`ShardedAnonymizer::cloak_user`]: users are
    /// grouped by home shard, each group takes its shard's read lock
    /// *once*, and the group is walked in Morton order of the users'
    /// maintained leaf cells — so Algorithm 1's contiguous sibling-block
    /// reads sweep the shard's flat cell arena coherently instead of
    /// hopping across it per user. Users caught mid-migration retry
    /// through the single-user path after the group's lock is dropped
    /// (their home may have moved to a different shard).
    pub fn cloak_users(&self, uids: &[UserId]) -> Vec<Option<CloakedRegion>> {
        let mut out: Vec<Option<CloakedRegion>> = vec![None; uids.len()];
        let mut groups: casper_grid::FastMap<u16, Vec<(usize, Profile)>> =
            casper_grid::FastMap::default();
        for (slot, &uid) in uids.iter().enumerate() {
            if let Some((home, profile)) = self.homes.get(uid) {
                groups.entry(home).or_default().push((slot, profile));
            }
        }
        let mut retries: Vec<usize> = Vec::new();
        for (home, members) in groups {
            let cell = self.cell_of_shard(home);
            let shard = crate::tel::with_lock_wait_span(home as usize, || {
                read(&self.shards[home as usize])
            });
            // One hash probe per member, whole group cloaked in Morton
            // order of their maintained leaves (tags index `members`).
            let tagged: Vec<(usize, UserId)> = members
                .iter()
                .enumerate()
                .map(|(i, &(slot, _))| (i, uids[slot]))
                .collect();
            for (i, result) in shard.cloak_members(&tagged) {
                let (slot, global_profile) = members[i];
                match result {
                    Some((local_profile, local)) => {
                        let region =
                            self.local_or_escalate(cell, global_profile, local_profile, local);
                        out[slot] = Some(region);
                    }
                    // Mid-migration under a concurrent writer: retried
                    // below, once this group's shard lock is dropped.
                    None => retries.push(slot),
                }
            }
        }
        for slot in retries {
            out[slot] = self.cloak_user(uids[slot]);
        }
        out
    }

    /// Exact position of a registered user (global coordinates). The
    /// trusted tier legitimately knows this; it never leaves the process.
    pub fn position_of(&self, uid: UserId) -> Option<Point> {
        for _ in 0..MIGRATION_RETRIES {
            let (home, _) = self.homes.get(uid)?;
            let local = read(&self.shards[home as usize]).position_of(uid);
            if let Some(local) = local {
                return Some(self.to_global_point(self.cell_of_shard(home), local));
            }
            std::thread::yield_now();
        }
        None
    }

    /// The (global-units) privacy profile of a registered user.
    pub fn profile_of(&self, uid: UserId) -> Option<Profile> {
        self.homes.get(uid).map(|(_, p)| p)
    }

    /// Structural cost across all shards (cells materialised).
    pub fn maintained_cells(&self) -> usize {
        self.shards.iter().map(|s| read(s).maintained_cells()).sum()
    }

    /// Deep structural self-check across the whole sharded tier, used by
    /// the durability layer's post-recovery verifier: every shard
    /// pyramid's own invariants hold, shard populations sum to the home
    /// table, and every home pointer resolves to a shard that actually
    /// holds the user. Quiesce mutations before calling — a migration in
    /// flight legitimately violates the pointer check mid-move.
    pub fn check_invariants(&self) -> Result<(), String> {
        let homes = self.homes.entries();
        let mut populations = 0usize;
        for (idx, shard) in self.shards.iter().enumerate() {
            let shard = read(shard);
            shard
                .check_invariants()
                .map_err(|e| format!("shard {idx}: {e}"))?;
            populations += shard.user_count();
        }
        if populations != homes.len() {
            return Err(format!(
                "shard populations sum to {populations} but home table has {} users",
                homes.len()
            ));
        }
        for &(uid, (home, _)) in homes.iter() {
            let Some(shard) = self.shards.get(home as usize) else {
                return Err(format!("{uid} points at nonexistent shard {home}"));
            };
            if read(shard).position_of(uid).is_none() {
                return Err(format!(
                    "{uid} points at shard {home}, which does not hold it"
                ));
            }
        }
        Ok(())
    }
}

/// The sharded anonymizer is itself a [`PyramidStructure`], so it drops
/// into every assembly that is generic over one — `Casper`,
/// `RemoteCasper`, `Anonymizer` — as well as the concurrent engine. The
/// trait's `&mut` receivers simply delegate to the internally-synchronised
/// `&self` methods.
impl PyramidStructure for ShardedAnonymizer {
    fn height(&self) -> u8 {
        self.shard_level + read(&self.shards[0]).height()
    }

    fn register(&mut self, uid: UserId, profile: Profile, pos: Point) -> MaintenanceStats {
        ShardedAnonymizer::register(self, uid, profile, pos)
    }

    fn update_location(&mut self, uid: UserId, pos: Point) -> MaintenanceStats {
        ShardedAnonymizer::update_location(self, uid, pos)
    }

    fn update_profile(&mut self, uid: UserId, profile: Profile) -> MaintenanceStats {
        ShardedAnonymizer::update_profile(self, uid, profile)
    }

    fn deregister(&mut self, uid: UserId) -> MaintenanceStats {
        ShardedAnonymizer::deregister(self, uid)
    }

    fn cloak_user(&self, uid: UserId) -> Option<CloakedRegion> {
        ShardedAnonymizer::cloak_user(self, uid)
    }

    fn cloak_point(&self, pos: Point, profile: Profile) -> CloakedRegion {
        let pos = sanitize_position(pos).unwrap_or(Point::new(0.5, 0.5));
        let cell = self.shard_cell(pos);
        let idx = self.shard_index(cell) as usize;
        let lp = self.local_profile(cell, profile);
        let region = read(&self.shards[idx]).cloak_point(self.to_local(cell, pos), lp);
        self.local_or_escalate(cell, profile, lp, region)
    }

    fn position_of(&self, uid: UserId) -> Option<Point> {
        ShardedAnonymizer::position_of(self, uid)
    }

    fn profile_of(&self, uid: UserId) -> Option<Profile> {
        ShardedAnonymizer::profile_of(self, uid)
    }

    fn user_count(&self) -> usize {
        ShardedAnonymizer::user_count(self)
    }

    fn user_ids(&self) -> Vec<UserId> {
        self.homes.keys()
    }

    fn user_records(&self) -> Vec<(UserId, Profile, Point)> {
        // One shard read lock per shard instead of per-user home reads
        // and retry loops. Profiles come from the home table (the shard
        // copy is rescaled and lossy); positions are translated back to
        // global coordinates. Users caught mid-migration fall back to
        // the retrying single-user lookup after the group lock drops.
        let mut by_shard: casper_grid::FastMap<u16, Vec<(UserId, Profile)>> =
            casper_grid::FastMap::default();
        for (uid, (home, profile)) in self.homes.entries() {
            by_shard.entry(home).or_default().push((uid, profile));
        }
        let mut out = Vec::new();
        let mut misses: Vec<(UserId, Profile)> = Vec::new();
        for (home, members) in by_shard {
            let cell = self.cell_of_shard(home);
            let shard = read(&self.shards[home as usize]);
            for (uid, profile) in members {
                match shard.position_of(uid) {
                    Some(local) => out.push((uid, profile, self.to_global_point(cell, local))),
                    None => misses.push((uid, profile)),
                }
            }
        }
        for (uid, profile) in misses {
            if let Some(pos) = ShardedAnonymizer::position_of(self, uid) {
                out.push((uid, profile, pos));
            }
        }
        out
    }

    fn maintained_cells(&self) -> usize {
        ShardedAnonymizer::maintained_cells(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn uid(n: u64) -> UserId {
        UserId(n)
    }

    #[test]
    fn construction_and_shape() {
        let s = ShardedAnonymizer::new(9, 2);
        assert_eq!(s.shard_count(), 16);
        assert_eq!(s.user_count(), 0);
    }

    #[test]
    #[should_panic]
    fn shard_level_must_leave_room() {
        ShardedAnonymizer::new(4, 4);
    }

    #[test]
    fn users_land_in_the_right_shard() {
        let s = ShardedAnonymizer::new(6, 1); // 4 shards (quadrants)
        s.register(uid(1), Profile::RELAXED, Point::new(0.1, 0.1)); // bottom-left
        s.register(uid(2), Profile::RELAXED, Point::new(0.9, 0.1)); // bottom-right
        s.register(uid(3), Profile::RELAXED, Point::new(0.1, 0.9)); // top-left
        assert_eq!(s.shard_population(0), 1);
        assert_eq!(s.shard_population(1), 1);
        assert_eq!(s.shard_population(2), 1);
        assert_eq!(s.shard_population(3), 0);
        assert_eq!(s.user_count(), 3);
    }

    #[test]
    fn local_cloak_contains_user_and_meets_k() {
        let s = ShardedAnonymizer::new(8, 2);
        // A cluster inside one shard.
        for i in 0..20 {
            s.register(
                uid(i),
                Profile::new(5, 0.0),
                Point::new(0.10 + i as f64 * 1e-3, 0.12),
            );
        }
        let region = s.cloak_user(uid(0)).unwrap();
        assert!(region.user_count >= 5);
        assert!(region.rect.contains(Point::new(0.10, 0.12)));
        // Local cloaks stay inside the shard quadrant.
        assert!(CellId::new(2, 0, 0).rect().contains_rect(&region.rect));
    }

    #[test]
    fn strict_profiles_escalate_to_the_coordinator() {
        let s = ShardedAnonymizer::new(8, 2);
        // 10 users in one shard, 30 elsewhere; k = 25 cannot be satisfied
        // locally.
        for i in 0..10 {
            s.register(
                uid(i),
                Profile::new(25, 0.0),
                Point::new(0.05 + i as f64 * 1e-3, 0.05),
            );
        }
        let mut rng = StdRng::seed_from_u64(1);
        for i in 10..40 {
            s.register(
                uid(i),
                Profile::new(1, 0.0),
                Point::new(rng.gen(), rng.gen()),
            );
        }
        let region = s.cloak_user(uid(0)).unwrap();
        assert!(
            region.user_count >= 25,
            "escalated cloak must count users across shards ({})",
            region.user_count
        );
        assert!(region.rect.contains(Point::new(0.05, 0.05)));
        // The escalated region is a coordinator-level cell (at or above
        // the shard level).
        assert!(region.level <= 2);
    }

    #[test]
    fn cross_shard_movement_migrates_users() {
        let s = ShardedAnonymizer::new(7, 1);
        s.register(uid(1), Profile::new(1, 0.0), Point::new(0.1, 0.1));
        assert_eq!(s.shard_population(0), 1);
        s.update_location(uid(1), Point::new(0.9, 0.9));
        assert_eq!(s.shard_population(0), 0);
        assert_eq!(s.shard_population(3), 1);
        let region = s.cloak_user(uid(1)).unwrap();
        assert!(region.rect.contains(Point::new(0.9, 0.9)));
    }

    #[test]
    fn a_min_is_respected_through_rescaling() {
        let s = ShardedAnonymizer::new(9, 2);
        // a_min of 1/64 of the space = 1/4 of one (1/16-area) shard.
        let a_min = 1.0 / 64.0;
        for i in 0..10 {
            s.register(
                uid(i),
                Profile::new(1, a_min),
                Point::new(0.3 + i as f64 * 1e-3, 0.3),
            );
        }
        let region = s.cloak_user(uid(0)).unwrap();
        assert!(
            region.area() >= a_min - 1e-12,
            "area {} < required {a_min}",
            region.area()
        );
    }

    #[test]
    fn matches_single_node_guarantees_under_churn() {
        let sharded = ShardedAnonymizer::new(8, 2);
        let mut single = AdaptivePyramid::new(8);
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..400u64 {
            let p = Point::new(rng.gen(), rng.gen());
            let prof = Profile::new(rng.gen_range(1..20), 0.0);
            sharded.register(uid(i), prof, p);
            single.register(uid(i), prof, p);
        }
        for _ in 0..500 {
            let id = uid(rng.gen_range(0..400));
            let p = Point::new(rng.gen(), rng.gen());
            sharded.update_location(id, p);
            single.update_location(id, p);
        }
        assert_eq!(sharded.user_count(), single.user_count());
        for i in 0..400u64 {
            let prof = single.profile_of(uid(i)).unwrap();
            let region = sharded.cloak_user(uid(i)).unwrap();
            assert!(
                region.user_count >= prof.k,
                "user {i}: sharded cloak broke k-anonymity ({} < {})",
                region.user_count,
                prof.k
            );
            let pos = single.position_of(uid(i)).unwrap();
            assert!(region.rect.contains(pos), "user {i}: region misses user");
        }
    }

    /// Shard isolation, shown by a held lock rather than a clock: while
    /// this thread holds shard 0's write guard, another thread registers,
    /// moves and cloaks a user homed in shard 3. An operation that took
    /// shard 0's lock (or one lock over every shard) would wait for the
    /// guard, and the channel below would time out.
    #[test]
    fn a_held_shard_lock_does_not_block_a_sibling_shard() {
        use std::sync::mpsc;
        use std::time::Duration;

        let s = ShardedAnonymizer::new(7, 1); // 4 shards
        let (start, moved) = (Point::new(0.9, 0.9), Point::new(0.8, 0.7));
        assert_eq!((s.shard_of(start), s.shard_of(moved)), (3, 3));
        std::thread::scope(|scope| {
            let held = write(&s.shards[0]);
            let (tx, rx) = mpsc::channel();
            let s = &s;
            scope.spawn(move || {
                s.register(uid(1), Profile::new(1, 0.0), start);
                s.update_location(uid(1), moved);
                let single = s.cloak_user(uid(1));
                let batch = s.cloak_users(&[uid(1)]).pop().flatten();
                let _ = tx.send((single, batch));
            });
            let (single, batch) = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("shard 3's operations waited for shard 0's lock");
            drop(held);
            for region in [single, batch] {
                let region = region.expect("a registered user cloaks");
                assert!(region.rect.contains(moved));
                assert!(CellId::new(1, 1, 1).rect().contains_rect(&region.rect));
            }
        });
        assert_eq!(s.shard_population(3), 1);
    }

    #[test]
    fn unknown_and_invalid_inputs() {
        let s = ShardedAnonymizer::new(6, 1);
        assert!(s.cloak_user(uid(9)).is_none());
        assert_eq!(
            s.update_location(uid(9), Point::new(0.5, 0.5)),
            MaintenanceStats::ZERO
        );
        assert_eq!(
            s.register(uid(1), Profile::RELAXED, Point::new(f64::NAN, 0.0)),
            MaintenanceStats::ZERO
        );
        assert_eq!(s.user_count(), 0);
    }

    #[test]
    fn parallel_updates_and_cloaks_keep_guarantees() {
        use std::sync::Arc;
        let s = Arc::new(ShardedAnonymizer::new(8, 2));
        for i in 0..256u64 {
            let x = (i % 16) as f64 / 16.0 + 0.03;
            let y = (i / 16) as f64 / 16.0 + 0.03;
            s.register(uid(i), Profile::new(3, 0.0), Point::new(x, y));
        }
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t);
                    // Each thread owns a disjoint quarter of the users, so
                    // its own reads never race its own writes.
                    let base = t * 64;
                    for round in 0..200u64 {
                        let id = uid(base + round % 64);
                        let p = Point::new(rng.gen(), rng.gen());
                        s.update_location(id, p);
                        let region = s.cloak_user(id).expect("registered user must cloak");
                        assert!(region.user_count >= 3, "k broken under contention");
                        assert!(region.rect.contains(p), "cloak misses the user");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.user_count(), 256);
        let total: usize = (0..16).map(|i| s.shard_population(i)).sum();
        assert_eq!(total, 256, "population conserved after parallel churn");
    }
}
