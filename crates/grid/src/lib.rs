//! Grid-pyramid data structures and the bottom-up cloaking algorithm of
//! *The New Casper* (Section 4).
//!
//! Two interchangeable structures implement [`PyramidStructure`]:
//!
//! * [`CompletePyramid`] — the **basic** location anonymizer's structure
//!   (Figure 2): all levels materialised, hash table pointing at the lowest
//!   level.
//! * [`AdaptivePyramid`] — the **adaptive** location anonymizer's structure
//!   (Figure 3): an incomplete pyramid that only maintains cells usable as
//!   cloaking regions for the current user population, kept in shape by
//!   cell *splitting* and *merging*.
//!
//! Both run the same [`bottom_up_cloak`] (Algorithm 1); they differ only in
//! the cell the algorithm starts from and in maintenance cost, which is
//! exactly the comparison of Figures 10–12 in the paper.
//!
//! The spatial domain is the unit square `[0,1] x [0,1]`; callers with a
//! different coordinate system normalise before registering users.

#![warn(missing_docs)]

mod adaptive;
mod cell;
mod cloak;
mod complete;
pub mod hash;
mod profile;
pub mod render;
mod stats;
mod tel;
mod user_entry;
mod versions;

pub use adaptive::AdaptivePyramid;
pub use cell::CellId;
pub use cloak::{bottom_up_cloak, bottom_up_cloak_cells_only, CellStore, CloakedRegion};
pub use complete::CompletePyramid;
pub use hash::{FastBuildHasher, FastHasher, FastMap, FastSet};
pub use profile::Profile;
pub use stats::MaintenanceStats;
pub use versions::{CellVersionTable, VersionStamp};

use casper_geometry::Point;

/// Identifier of a registered mobile user (the paper's `uid`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct UserId(pub u64);

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Common interface of the two pyramid structures.
///
/// All maintenance operations return the [`MaintenanceStats`] they incurred
/// so the evaluation harness can reproduce the update-cost figures.
pub trait PyramidStructure {
    /// Number of pyramid levels `H` (root level 0 .. lowest level `H-1`).
    fn height(&self) -> u8;

    /// Registers a new user with her privacy profile and exact position.
    /// Registering an existing user updates both profile and position.
    fn register(&mut self, uid: UserId, profile: Profile, pos: Point) -> MaintenanceStats;

    /// Processes a location update `(uid, x, y)`.
    /// Unknown users are ignored (zero cost).
    fn update_location(&mut self, uid: UserId, pos: Point) -> MaintenanceStats;

    /// Changes a user's privacy profile ("mobile users have the ability to
    /// change their privacy profiles at any time", Section 3).
    fn update_profile(&mut self, uid: UserId, profile: Profile) -> MaintenanceStats;

    /// Removes a user from the system.
    fn deregister(&mut self, uid: UserId) -> MaintenanceStats;

    /// Runs Algorithm 1 for a registered user, producing her cloaked
    /// region, or `None` for unknown users.
    fn cloak_user(&self, uid: UserId) -> Option<CloakedRegion>;

    /// Runs Algorithm 1 for an arbitrary position and profile (used to blur
    /// query locations).
    fn cloak_point(&self, pos: Point, profile: Profile) -> CloakedRegion;

    /// Exact position of a registered user. Trusted-side only: this never
    /// crosses to the server.
    fn position_of(&self, uid: UserId) -> Option<Point>;

    /// Privacy profile of a registered user.
    fn profile_of(&self, uid: UserId) -> Option<Profile>;

    /// Number of currently registered users.
    fn user_count(&self) -> usize;

    /// Ids of all registered users (unordered). Used for checkpointing
    /// the trusted side.
    fn user_ids(&self) -> Vec<UserId>;

    /// Snapshot of every registered user as a `(uid, profile, pos)`
    /// record — the canonical checkpoint payload of the trusted tier.
    /// Re-registering these records into an empty pyramid of the same
    /// height rebuilds a structure serving the same population with the
    /// same `(k, A_min)` guarantees.
    fn user_records(&self) -> Vec<(UserId, Profile, Point)> {
        self.user_ids()
            .into_iter()
            .filter_map(|uid| Some((uid, self.profile_of(uid)?, self.position_of(uid)?)))
            .collect()
    }

    /// Number of grid cells currently materialised — constant for the
    /// complete pyramid, workload-dependent for the adaptive one.
    fn maintained_cells(&self) -> usize;
}
