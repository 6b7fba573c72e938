//! Continuous private nearest-neighbour queries.
//!
//! The paper evaluates snapshot queries and notes that "supporting
//! continuous queries ... can be achieved by seamless integration of the
//! Casper framework into any scalable and/or incremental location-based
//! query processor" (Section 5). This module provides that integration
//! for the in-tree server: a registered continuous query re-uses its last
//! candidate list as long as nothing that could change the answer moved.
//!
//! Two staleness signals feed the decision:
//!
//! * the user's **cloaked region** — a pure function of cell + profile,
//!   so it changes exactly when the user crosses a pyramid cell; and
//! * (while the server's candidate cache is enabled) the **version stamp**
//!   the monitor took over its answer's dependency region against the
//!   server's public cell-version table. A target upsert or removal inside
//!   the dependency region invalidates the stamp, so the monitor
//!   re-evaluates instead of serving a stale list — a correctness hole the
//!   region-only heuristic has when targets move.
//!
//! Re-evaluation is **shared**: it goes through the server's candidate
//! cache, so when many continuous queries cover the same cells (same
//! cloaked region, the common case for co-located users), only the first
//! one per tick computes; the rest hit the cache. [`ContinuousSet`] ticks
//! a whole registry of monitors through that shared path.
//!
//! The monitor exposes reuse/re-evaluation counters so workloads can
//! measure the saving (typically >90% of movement updates reuse the list
//! at urban speeds).

use casper_geometry::Rect;
use casper_grid::VersionStamp;
use casper_grid::{PyramidStructure, UserId};
use casper_index::Entry;

use crate::pipeline::Casper;

/// State of one outstanding continuous NN query.
#[derive(Debug, Clone)]
pub struct ContinuousNn {
    /// The monitored user.
    pub uid: UserId,
    last_region: Option<Rect>,
    candidates: Vec<Entry>,
    /// Version stamp over the last answer's dependency region; `None`
    /// until the first evaluation (or when the server cache is off, in
    /// which case reuse falls back to the region-only heuristic).
    stamp: Option<VersionStamp>,
    /// Server round trips performed.
    pub reevaluations: u64,
    /// Refreshes served from the cached candidate list.
    pub reuses: u64,
}

impl ContinuousNn {
    /// Creates an idle monitor for `uid`; the first refresh always
    /// evaluates.
    pub fn new(uid: UserId) -> Self {
        Self {
            uid,
            last_region: None,
            candidates: Vec::new(),
            stamp: None,
            reevaluations: 0,
            reuses: 0,
        }
    }

    /// The cached candidate list (what would be shipped on demand).
    pub fn candidates(&self) -> &[Entry] {
        &self.candidates
    }

    /// Fraction of refreshes answered without a server round trip.
    pub fn reuse_ratio(&self) -> f64 {
        let total = self.reevaluations + self.reuses;
        if total == 0 {
            return 0.0;
        }
        self.reuses as f64 / total as f64
    }
}

/// A registry of continuous NN queries maintained **incrementally** and
/// ticked together: each tick re-runs only the monitors whose cloaked
/// region changed or whose dependency-region version stamp no longer
/// validates, and re-evaluations share one candidate computation through
/// the server's candidate cache (same cloaked region → one compute, the
/// rest hit).
#[derive(Debug, Default)]
pub struct ContinuousSet {
    monitors: Vec<ContinuousNn>,
    /// Degradation level governing the tick stride (see
    /// [`ContinuousSet::set_brownout_level`]).
    level: crate::overload::BrownoutLevel,
    /// Rotating tick phase so striding spreads refreshes across ticks
    /// instead of starving a fixed subset of monitors.
    phase: u64,
    /// Refreshes served from cached candidates because the brownout
    /// stride skipped the monitor this tick.
    stale_serves: u64,
}

impl ContinuousSet {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a continuous query for `uid`; it first evaluates on the
    /// next tick.
    pub fn register(&mut self, uid: UserId) {
        self.monitors.push(ContinuousNn::new(uid));
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.monitors.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.monitors.is_empty()
    }

    /// The registered monitors, in registration order.
    pub fn monitors(&self) -> &[ContinuousNn] {
        &self.monitors
    }

    /// Total server round trips across all monitors.
    pub fn total_reevaluations(&self) -> u64 {
        self.monitors.iter().map(|m| m.reevaluations).sum()
    }

    /// Total refreshes answered from cached candidate lists.
    pub fn total_reuses(&self) -> u64 {
        self.monitors.iter().map(|m| m.reuses).sum()
    }
}

impl ContinuousSet {
    /// Sets the degradation level for subsequent ticks. At
    /// [`BrownoutLevel::Normal`](crate::overload::BrownoutLevel) every
    /// monitor refreshes each tick; higher levels refresh only every
    /// `tick_stride()`-th monitor (rotating phase, so no monitor
    /// starves) and serve the rest from their cached candidate lists.
    /// Answers degrade to *bounded staleness* — they never degrade
    /// privacy: skipped monitors re-refine their cached (k-anonymously
    /// produced) candidates against the exact position on the trusted
    /// tier; no extra server contact, no smaller cloak.
    pub fn set_brownout_level(&mut self, level: crate::overload::BrownoutLevel) {
        self.level = level;
    }

    /// The degradation level currently applied to ticks.
    pub fn brownout_level(&self) -> crate::overload::BrownoutLevel {
        self.level
    }

    /// Refreshes answered from cached candidates because the brownout
    /// stride skipped the monitor (distinct from
    /// [`ContinuousSet::total_reuses`], which counts *validated*
    /// reuse).
    pub fn stale_serves(&self) -> u64 {
        self.stale_serves
    }
}

impl<P: PyramidStructure> Casper<P> {
    /// Registers a continuous NN query for `uid`.
    pub fn continuous_nn(&self, uid: UserId) -> ContinuousNn {
        ContinuousNn::new(uid)
    }

    /// Refreshes a continuous query: returns the current exact nearest
    /// target (client-refined), re-contacting the server only when the
    /// user's cloaked region changed since the last refresh — or, while
    /// the candidate cache is enabled, when a public target inside the
    /// answer's dependency region changed (version-stamp invalidation).
    pub fn refresh_continuous(&mut self, monitor: &mut ContinuousNn) -> Option<Entry> {
        let region = self.anonymizer().cloak_region_of(monitor.uid)?.rect;
        let region_unchanged =
            monitor.last_region == Some(region) && !monitor.candidates.is_empty();
        let stamp_valid = match (&monitor.stamp, self.server().public_versions()) {
            (Some(stamp), Some(versions)) => versions.validate(stamp),
            // No stamp or no version table (cache off): region-only
            // semantics, as before the cache existed.
            _ => true,
        };
        if region_unchanged && stamp_valid {
            monitor.reuses += 1;
            crate::tel::record_continuous("reuse");
        } else {
            crate::tel::record_continuous(if region_unchanged {
                "stale"
            } else {
                "reevaluate"
            });
            let filters = self.filter_count();
            let server = self.server();
            let (list, _) = server.nn_public(&region, filters);
            // Stamp the dependency region under the same read guard so
            // no mutation can slip between compute and stamp.
            monitor.stamp = server.public_versions().map(|v| v.stamp(&list.dep));
            drop(server);
            monitor.candidates = list.candidates;
            monitor.last_region = Some(region);
            monitor.reevaluations += 1;
        }
        // Local refinement with the exact position (trusted side).
        let pos = self.anonymizer().pyramid().position_of(monitor.uid)?;
        monitor
            .candidates
            .iter()
            .min_by(|a, b| a.mbr.min_dist(pos).total_cmp(&b.mbr.min_dist(pos)))
            .copied()
    }

    /// Ticks every monitor in `set` once, returning each user's current
    /// exact nearest target in registration order. Monitors sharing a
    /// cloaked region share one candidate computation per tick through
    /// the server's candidate cache.
    pub fn tick_continuous(&mut self, set: &mut ContinuousSet) -> Vec<(UserId, Option<Entry>)> {
        let stride = set.level.tick_stride() as u64;
        set.phase = set.phase.wrapping_add(1);
        let mut answers = Vec::with_capacity(set.monitors.len());
        for (i, monitor) in set.monitors.iter_mut().enumerate() {
            if stride > 1 && !(i as u64).wrapping_add(set.phase).is_multiple_of(stride) {
                // Brownout: skip the server round trip and re-refine the
                // cached (k-anonymously produced) candidates against the
                // exact position on the trusted tier. Staleness is
                // bounded by the stride — the monitor is due again
                // within `stride` ticks.
                set.stale_serves += 1;
                let ans = self
                    .anonymizer()
                    .pyramid()
                    .position_of(monitor.uid)
                    .and_then(|pos| {
                        monitor
                            .candidates
                            .iter()
                            .min_by(|a, b| a.mbr.min_dist(pos).total_cmp(&b.mbr.min_dist(pos)))
                            .copied()
                    });
                answers.push((monitor.uid, ans));
                continue;
            }
            let ans = self.refresh_continuous(monitor);
            answers.push((monitor.uid, ans));
        }
        answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_anonymizer::BasicAnonymizer;
    use casper_geometry::Point;
    use casper_grid::Profile;
    use casper_index::ObjectId;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn city() -> Casper<casper_grid::CompletePyramid> {
        let mut rng = StdRng::seed_from_u64(1);
        let mut c = Casper::new(BasicAnonymizer::basic(8));
        c.load_targets((0..1_000).map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen()))));
        for i in 0..200 {
            c.register_user(
                UserId(i),
                Profile::new(1, 0.0),
                Point::new(rng.gen(), rng.gen()),
            );
        }
        c
    }

    #[test]
    fn first_refresh_evaluates() {
        let mut c = city();
        let mut m = c.continuous_nn(UserId(1));
        let ans = c.refresh_continuous(&mut m);
        assert!(ans.is_some());
        assert_eq!(m.reevaluations, 1);
        assert_eq!(m.reuses, 0);
        assert!(!m.candidates().is_empty());
    }

    #[test]
    fn stationary_user_reuses_candidates() {
        let mut c = city();
        let mut m = c.continuous_nn(UserId(2));
        let first = c.refresh_continuous(&mut m).unwrap();
        for _ in 0..10 {
            let again = c.refresh_continuous(&mut m).unwrap();
            assert_eq!(first.id, again.id);
        }
        assert_eq!(m.reevaluations, 1);
        assert_eq!(m.reuses, 10);
        assert!(m.reuse_ratio() > 0.9);
    }

    #[test]
    fn micro_movement_within_cell_reuses() {
        let mut c = city();
        c.register_user(
            UserId(500),
            Profile::new(1, 0.0),
            Point::new(0.500_1, 0.500_1),
        );
        let mut m = c.continuous_nn(UserId(500));
        c.refresh_continuous(&mut m).unwrap();
        // Tiny moves inside one lowest-level cell (width 1/128).
        for i in 0..5 {
            c.move_user(UserId(500), Point::new(0.500_1 + i as f64 * 1e-4, 0.500_1));
            c.refresh_continuous(&mut m).unwrap();
        }
        assert_eq!(m.reevaluations, 1, "in-cell movement must not re-query");
        assert_eq!(m.reuses, 5);
    }

    #[test]
    fn cell_crossing_reevaluates_and_stays_correct() {
        let mut c = city();
        c.register_user(UserId(501), Profile::new(1, 0.0), Point::new(0.1, 0.1));
        let mut m = c.continuous_nn(UserId(501));
        c.refresh_continuous(&mut m).unwrap();
        c.move_user(UserId(501), Point::new(0.9, 0.9));
        let after = c.refresh_continuous(&mut m).unwrap();
        assert_eq!(m.reevaluations, 2);
        // The continuous answer equals a fresh snapshot query.
        let fresh = c.query_nn(UserId(501)).unwrap().exact.unwrap();
        assert_eq!(after.id, fresh.id);
    }

    #[test]
    fn continuous_answers_match_snapshots_under_random_walk() {
        let mut c = city();
        let mut rng = StdRng::seed_from_u64(5);
        let uid = UserId(3);
        let mut m = c.continuous_nn(uid);
        let mut pos = Point::new(0.5, 0.5);
        c.move_user(uid, pos);
        for _ in 0..50 {
            pos = Point::new(
                (pos.x + rng.gen_range(-0.02..0.02)).clamp(0.0, 1.0),
                (pos.y + rng.gen_range(-0.02..0.02)).clamp(0.0, 1.0),
            );
            c.move_user(uid, pos);
            let cont = c.refresh_continuous(&mut m).unwrap();
            let snap = c.query_nn(uid).unwrap().exact.unwrap();
            assert_eq!(cont.id, snap.id, "continuous answer drifted from truth");
        }
        assert!(
            m.reuses > 0,
            "a 2%-step walk must reuse at least sometimes (got {} reuses / {} evals)",
            m.reuses,
            m.reevaluations
        );
    }

    /// With the cache on, a *target* mutation inside the answer's
    /// dependency region must force a re-evaluation even though the
    /// user never moved — the staleness hole the version stamp closes.
    #[test]
    fn target_churn_invalidates_stationary_monitor() {
        let mut c = city();
        c.register_user(UserId(600), Profile::new(1, 0.0), Point::new(0.25, 0.25));
        let mut m = c.continuous_nn(UserId(600));
        c.refresh_continuous(&mut m).unwrap();
        assert_eq!(m.reevaluations, 1);
        // Drop a brand-new target right next to the user: closer than
        // anything else, inside every dependency region that covers her.
        c.server_mut()
            .upsert_public_target(ObjectId(50_000), Point::new(0.2501, 0.25));
        let after = c.refresh_continuous(&mut m).unwrap();
        assert_eq!(
            after.id,
            ObjectId(50_000),
            "stationary monitor must see the new nearest target"
        );
        assert_eq!(m.reevaluations, 2, "stamp invalidation must re-query");
        // Removing it again restores the old answer.
        c.server_mut().remove_public_target(ObjectId(50_000));
        let restored = c.refresh_continuous(&mut m).unwrap();
        assert_ne!(restored.id, ObjectId(50_000));
        assert_eq!(m.reevaluations, 3);
    }

    /// Monitors sharing one cloaked region share one candidate
    /// computation per tick: every re-evaluation after the first is a
    /// cache hit.
    #[test]
    fn co_located_monitors_share_computation() {
        let mut c = city();
        // Five users in the same pyramid cell with the same profile →
        // identical cloaked regions.
        for i in 0..5u64 {
            c.register_user(
                UserId(700 + i),
                Profile::new(1, 0.0),
                Point::new(0.330 + i as f64 * 1e-4, 0.330),
            );
        }
        let mut set = ContinuousSet::new();
        for i in 0..5u64 {
            set.register(UserId(700 + i));
        }
        let before = c.cache_stats().expect("cache is on by default");
        let answers = c.tick_continuous(&mut set);
        assert_eq!(answers.len(), 5);
        assert!(answers.iter().all(|(_, a)| a.is_some()));
        let after = c.cache_stats().unwrap();
        assert!(
            after.hits >= before.hits + 4,
            "4 of 5 co-located evaluations must hit the cache \
             (hits {} -> {})",
            before.hits,
            after.hits
        );
        // A second tick with nothing moved reuses everywhere.
        c.tick_continuous(&mut set);
        assert_eq!(set.total_reuses(), 5);
        assert_eq!(set.total_reevaluations(), 5);
    }

    #[test]
    fn unknown_user_yields_none() {
        let mut c = city();
        let mut m = c.continuous_nn(UserId(9_999));
        assert!(c.refresh_continuous(&mut m).is_none());
    }
}
