//! The privacy-aware location-based database server.
//!
//! Two stores (Section 5): **public data** — exact target objects
//! (hospitals, gas stations, police cars) registered directly, without
//! anonymizer involvement — and **private data** — cloaked spatial regions
//! of mobile users, received from the location anonymizer under opaque
//! handles. The embedded `casper_qp` query processor answers all three
//! novel query types over these stores.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use casper_geometry::{Point, Rect};
use casper_grid::CellVersionTable;
use casper_index::{Entry, ObjectId, RTree, SpatialIndex, UniformGrid};
use casper_qp::cache::{
    cached_full_scan, cached_nn_private, cached_nn_public, cached_range_over_private,
    cached_range_public, CacheConfig, CacheStats, CandidateCache,
};
use casper_qp::{
    private_nn_private_data, private_nn_public_data, private_range_public_data, CandidateList,
    FilterCount, PrivateBoundMode, RangeAnswer,
};

/// A public-target category (gas stations, restaurants, hospitals, ...),
/// so clients can ask for their nearest target *of a kind*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Category(pub u32);

/// Opaque handle under which the anonymizer maintains one user's cloaked
/// region at the server. Handles carry no identity; they exist so the
/// anonymizer can *update* a region as the user moves (the server must
/// hold a current snapshot to answer public-over-private queries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrivateHandle(pub u64);

/// Timing of one query at the server — the "query processing time" of
/// Figures 13b–16b.
#[derive(Debug, Clone, Copy)]
pub struct QueryStats {
    /// Wall-clock time the privacy-aware query processor spent.
    pub processing: Duration,
    /// Number of candidates produced.
    pub candidates: usize,
}

/// The location-based database server with the privacy-aware query
/// processor embedded.
///
/// Public data live in an R-tree (mostly-static points, bulk query
/// performance); private data live in a uniform grid (high update rate).
/// Both choices are swappable — the query processor is index-agnostic.
#[derive(Debug)]
pub struct CasperServer {
    public: RTree,
    /// Per-category sub-indexes for category-scoped queries.
    by_category: HashMap<Category, RTree>,
    /// Which category each public target belongs to (for removals).
    target_category: HashMap<ObjectId, Category>,
    private: UniformGrid,
    /// The candidate cache and its invalidation machinery; `None` when
    /// the cache is disabled at runtime (answers are recomputed).
    cache: Option<ServerCache>,
}

/// The server-tier caching state: one [`CandidateCache`] shared by every
/// query path and one cell-version table per store for exact lazy
/// invalidation. A mutation bumps the *old* location of a moving object
/// as well as the new one; the old rectangle comes from the store's own
/// index (`SpatialIndex::remove`), so a cache configured after the data
/// were loaded knows every object's location from its first mutation.
#[derive(Debug)]
struct ServerCache {
    cache: CandidateCache,
    public_versions: CellVersionTable,
    private_versions: CellVersionTable,
}

impl ServerCache {
    fn new(config: CacheConfig) -> Self {
        Self {
            cache: CandidateCache::new(config),
            public_versions: CellVersionTable::new(),
            private_versions: CellVersionTable::new(),
        }
    }
}

impl Default for CasperServer {
    fn default() -> Self {
        Self::new()
    }
}

impl CasperServer {
    /// Creates an empty server. The candidate cache is on by default;
    /// see [`CasperServer::set_query_cache_enabled`].
    pub fn new() -> Self {
        Self {
            public: RTree::new(),
            by_category: HashMap::new(),
            target_category: HashMap::new(),
            private: UniformGrid::new(64),
            cache: Some(ServerCache::new(CacheConfig::default())),
        }
    }

    /// Records a public-store mutation that moved an object from `old`
    /// (`None` for an insert) to `new` (`None` for a removal): the store
    /// has already been updated, so bumping *after* keeps readers from
    /// re-validating a stamp taken over the old contents.
    fn note_public_change(&mut self, old: Option<Rect>, new: Option<Rect>) {
        if let Some(c) = &mut self.cache {
            for rect in old.iter().chain(&new) {
                c.public_versions.bump_rect(rect);
            }
        }
    }

    /// Records a private-store mutation, mirroring
    /// [`CasperServer::note_public_change`].
    fn note_private_change(&mut self, old: Option<Rect>, new: Option<Rect>) {
        if let Some(c) = &mut self.cache {
            for rect in old.iter().chain(&new) {
                c.private_versions.bump_rect(rect);
            }
        }
    }

    /// Bulk-loads the public target objects.
    pub fn load_public_targets(&mut self, targets: impl IntoIterator<Item = (ObjectId, Point)>) {
        let entries: Vec<Entry> = targets
            .into_iter()
            .map(|(id, p)| Entry::point(id, p))
            .collect();
        self.public = RTree::bulk_load(entries);
        if let Some(c) = &mut self.cache {
            // A wholesale replacement invalidates everything cheaply.
            c.public_versions.bump_all();
        }
    }

    /// Registers or replaces a single public target.
    pub fn upsert_public_target(&mut self, id: ObjectId, pos: Point) {
        let old = self.take_public_target(id);
        let entry = Entry::point(id, pos);
        self.public.insert(entry);
        self.note_public_change(old, Some(entry.mbr));
    }

    /// Registers or replaces a public target within a category.
    pub fn upsert_public_target_in(&mut self, id: ObjectId, pos: Point, category: Category) {
        let old = self.take_public_target(id);
        let entry = Entry::point(id, pos);
        self.public.insert(entry);
        self.by_category.entry(category).or_default().insert(entry);
        self.target_category.insert(id, category);
        self.note_public_change(old, Some(entry.mbr));
    }

    /// Removes a public target (from its category index too).
    pub fn remove_public_target(&mut self, id: ObjectId) -> bool {
        let old = self.take_public_target(id);
        self.note_public_change(old, None);
        old.is_some()
    }

    /// Takes a public target out of both indexes without bumping the
    /// version table, returning where it was.
    fn take_public_target(&mut self, id: ObjectId) -> Option<Rect> {
        if let Some(cat) = self.target_category.remove(&id) {
            if let Some(idx) = self.by_category.get_mut(&cat) {
                idx.remove(id);
            }
        }
        self.public.remove(id)
    }

    /// Number of targets registered in a category.
    pub fn category_count(&self, category: Category) -> usize {
        self.by_category.get(&category).map_or(0, SpatialIndex::len)
    }

    /// Number of public targets.
    pub fn public_count(&self) -> usize {
        self.public.len()
    }

    /// Stores or refreshes the cloaked region for a private handle
    /// (called by the anonymizer on each location update).
    pub fn upsert_private_region(&mut self, handle: PrivateHandle, region: Rect) {
        let id = ObjectId(handle.0);
        let old = self.private.remove(id);
        self.private.insert(Entry::new(id, region));
        self.note_private_change(old, Some(region));
    }

    /// Drops a private handle (user signed off).
    pub fn remove_private_region(&mut self, handle: PrivateHandle) -> bool {
        let old = self.private.remove(ObjectId(handle.0));
        self.note_private_change(old, None);
        old.is_some()
    }

    /// Number of stored private regions.
    pub fn private_count(&self) -> usize {
        self.private.len()
    }

    /// All public entries, for snapshots and diagnostics.
    pub fn public_entries(&self) -> Vec<Entry> {
        self.public.range(&Rect::from_coords(
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::INFINITY,
        ))
    }

    /// All stored private regions, for snapshots and diagnostics.
    pub fn private_entries(&self) -> Vec<Entry> {
        self.private.range(&Rect::from_coords(
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::INFINITY,
        ))
    }

    /// Private NN query over public data (Algorithm 2), timed.
    pub fn nn_public(
        &self,
        cloaked_query: &Rect,
        filters: FilterCount,
    ) -> (CandidateList, QueryStats) {
        let start = Instant::now();
        let list = match &self.cache {
            Some(c) => cached_nn_public(
                &c.cache,
                &c.public_versions,
                &self.public,
                cloaked_query,
                filters,
                0,
            ),
            None => private_nn_public_data(&self.public, cloaked_query, filters),
        };
        let processing = start.elapsed();
        let stats = QueryStats {
            processing,
            candidates: list.len(),
        };
        (list, stats)
    }

    /// Private NN query over public data restricted to one category
    /// ("where is my nearest *hospital*?"). The candidate list is
    /// inclusive within the category.
    pub fn nn_public_in(
        &self,
        cloaked_query: &Rect,
        filters: FilterCount,
        category: Category,
    ) -> (CandidateList, QueryStats) {
        let start = Instant::now();
        let list = match self.by_category.get(&category) {
            // Category sub-indexes only ever change together with the
            // public store, so the public version table invalidates
            // these entries exactly; the category id keeps the keys
            // distinct from unscoped queries (`extra` 0).
            Some(idx) => match &self.cache {
                Some(c) => cached_nn_public(
                    &c.cache,
                    &c.public_versions,
                    idx,
                    cloaked_query,
                    filters,
                    1 + u64::from(category.0),
                ),
                None => private_nn_public_data(idx, cloaked_query, filters),
            },
            None => CandidateList::empty(cloaked_query),
        };
        let processing = start.elapsed();
        let stats = QueryStats {
            processing,
            candidates: list.len(),
        };
        (list, stats)
    }

    /// Private NN query over private data (Section 5.2), timed.
    pub fn nn_private(
        &self,
        cloaked_query: &Rect,
        filters: FilterCount,
        mode: PrivateBoundMode,
    ) -> (CandidateList, QueryStats) {
        let start = Instant::now();
        let list = match &self.cache {
            Some(c) => cached_nn_private(
                &c.cache,
                &c.private_versions,
                &self.private,
                cloaked_query,
                filters,
                mode,
                0.0,
            ),
            None => private_nn_private_data(&self.private, cloaked_query, filters, mode, 0.0),
        };
        let processing = start.elapsed();
        let stats = QueryStats {
            processing,
            candidates: list.len(),
        };
        (list, stats)
    }

    /// Public (administrator) range query over the private store.
    pub fn range_private(&self, area: &Rect) -> RangeAnswer {
        // Both runtime modes go through the canonical candidate-list
        // representation so cached and fresh answers are bit-identical
        // (the aggregate sums run in the same order).
        let list = match &self.cache {
            Some(c) => {
                cached_range_over_private(&c.cache, &c.private_versions, &self.private, area)
            }
            None => CandidateList::from_parts(self.private.range(area), *area, Vec::new(), *area),
        };
        RangeAnswer::from_overlapping(list.candidates, area)
    }

    /// Private range query ("targets within `radius` of me") over the
    /// public store.
    pub fn range_public(&self, cloaked_query: &Rect, radius: f64) -> CandidateList {
        match &self.cache {
            Some(c) => cached_range_public(
                &c.cache,
                &c.public_versions,
                &self.public,
                cloaked_query,
                radius,
            ),
            None => private_range_public_data(&self.public, cloaked_query, radius),
        }
    }

    /// Builds the expected-count density surface over the private store
    /// (the administrator's anonymous heat map).
    pub fn density(&self, resolution: usize) -> casper_qp::DensityGrid {
        // One cached full scan feeds every resolution: the binning is
        // cheap, the scan is what the cache saves. The canonical order
        // also makes the float accumulation deterministic across
        // cache-on and cache-off runs.
        let list = match &self.cache {
            Some(c) => cached_full_scan(&c.cache, &c.private_versions, &self.private, 0),
            None => {
                let unit = Rect::unit();
                CandidateList::from_parts(self.private.range(&unit), unit, Vec::new(), unit)
            }
        };
        casper_qp::DensityGrid::from_regions(list.candidates, resolution)
    }
}

/// Runtime control of the server-tier candidate cache.
impl CasperServer {
    /// Replaces the cache with a fresh one under `config` (and enables
    /// it if it was off).
    pub fn with_query_cache(mut self, config: CacheConfig) -> Self {
        self.set_query_cache_config(config);
        self
    }

    /// In-place form of [`CasperServer::with_query_cache`].
    pub fn set_query_cache_config(&mut self, config: CacheConfig) {
        self.cache = Some(ServerCache::new(config));
    }

    /// Turns the candidate cache on or off at runtime. Turning it off
    /// drops every cached answer; turning it on starts cold.
    pub fn set_query_cache_enabled(&mut self, enabled: bool) {
        match (enabled, self.cache.is_some()) {
            (true, false) => self.cache = Some(ServerCache::new(CacheConfig::default())),
            (false, true) => self.cache = None,
            _ => {}
        }
    }

    /// Whether the candidate cache is currently enabled.
    pub fn query_cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// Hit/miss/invalidation counters of the candidate cache (`None`
    /// when disabled).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.cache.stats())
    }

    /// The public store's cell-version table (`None` when the cache is
    /// disabled). Continuous queries stamp their dependency regions
    /// against this to learn whether any covered target moved.
    pub fn public_versions(&self) -> Option<&CellVersionTable> {
        self.cache.as_ref().map(|c| &c.public_versions)
    }

    /// The private store's cell-version table (`None` when the cache is
    /// disabled).
    pub fn private_versions(&self) -> Option<&CellVersionTable> {
        self.cache.as_ref().map(|c| &c.private_versions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_with_grid_targets(n_per_axis: u64) -> CasperServer {
        let mut s = CasperServer::new();
        let step = 1.0 / n_per_axis as f64;
        s.load_public_targets((0..n_per_axis * n_per_axis).map(|i| {
            let x = (i % n_per_axis) as f64 * step + step / 2.0;
            let y = (i / n_per_axis) as f64 * step + step / 2.0;
            (ObjectId(i), Point::new(x, y))
        }));
        s
    }

    /// Any peer can send a region spanning ±1e300. Its upsert must
    /// invalidate every cached count the region covers, so the cached
    /// answer stays the uncached one.
    #[test]
    fn a_region_near_the_f64_range_leaves_no_stale_cached_count() {
        let mut cached = CasperServer::new();
        let mut uncached = CasperServer::new();
        uncached.set_query_cache_enabled(false);
        let area = Rect::from_coords(0.3, 0.3, 0.4, 0.4);
        let shape = |a: RangeAnswer| (a.min_count(), a.max_count(), a.overlapping.len());
        for s in [&mut cached, &mut uncached] {
            s.upsert_private_region(PrivateHandle(1), Rect::from_coords(0.1, 0.1, 0.2, 0.2));
            assert_eq!(shape(s.range_private(&area)), (0, 0, 0));
            assert_eq!(shape(s.range_private(&area)), (0, 0, 0));
            s.upsert_private_region(
                PrivateHandle(2),
                Rect::from_coords(-1e300, -1e300, 1e300, 1e300),
            );
        }
        let want = shape(uncached.range_private(&area));
        assert_eq!(want.1, 1);
        assert_eq!(shape(cached.range_private(&area)), want);
    }

    #[test]
    fn public_store_crud() {
        let mut s = CasperServer::new();
        assert_eq!(s.public_count(), 0);
        s.upsert_public_target(ObjectId(1), Point::new(0.5, 0.5));
        s.upsert_public_target(ObjectId(1), Point::new(0.6, 0.5)); // replace
        assert_eq!(s.public_count(), 1);
        assert!(s.remove_public_target(ObjectId(1)));
        assert!(!s.remove_public_target(ObjectId(1)));
    }

    #[test]
    fn private_store_crud() {
        let mut s = CasperServer::new();
        s.upsert_private_region(PrivateHandle(7), Rect::from_coords(0.1, 0.1, 0.2, 0.2));
        s.upsert_private_region(PrivateHandle(7), Rect::from_coords(0.3, 0.3, 0.4, 0.4));
        assert_eq!(s.private_count(), 1);
        let ans = s.range_private(&Rect::from_coords(0.25, 0.25, 0.5, 0.5));
        assert_eq!(ans.max_count(), 1);
        assert!(s.remove_private_region(PrivateHandle(7)));
        assert_eq!(s.private_count(), 0);
    }

    #[test]
    fn category_scoped_queries() {
        let mut s = CasperServer::new();
        let gas = Category(1);
        let food = Category(2);
        s.upsert_public_target_in(ObjectId(1), Point::new(0.30, 0.50), gas);
        s.upsert_public_target_in(ObjectId(2), Point::new(0.51, 0.50), food);
        s.upsert_public_target_in(ObjectId(3), Point::new(0.70, 0.50), gas);
        assert_eq!(s.category_count(gas), 2);
        assert_eq!(s.category_count(food), 1);
        assert_eq!(s.public_count(), 3);
        let region = Rect::from_coords(0.48, 0.48, 0.52, 0.52);
        // Unscoped: the food target right next door wins.
        let (all, _) = s.nn_public(&region, FilterCount::Four);
        assert!(all.candidates.iter().any(|e| e.id == ObjectId(2)));
        // Scoped to gas stations: only gas targets appear, and the
        // nearest gas station is included.
        let (gas_list, _) = s.nn_public_in(&region, FilterCount::Four, gas);
        assert!(gas_list.candidates.iter().all(|e| e.id != ObjectId(2)));
        assert!(gas_list.candidates.iter().any(|e| e.id == ObjectId(1)));
        // Unknown category: empty.
        let (none, _) = s.nn_public_in(&region, FilterCount::Four, Category(99));
        assert!(none.is_empty());
    }

    #[test]
    fn category_membership_survives_upserts_and_removals() {
        let mut s = CasperServer::new();
        s.upsert_public_target_in(ObjectId(1), Point::new(0.2, 0.2), Category(1));
        // Re-categorise the same target.
        s.upsert_public_target_in(ObjectId(1), Point::new(0.2, 0.2), Category(2));
        assert_eq!(s.category_count(Category(1)), 0);
        assert_eq!(s.category_count(Category(2)), 1);
        assert_eq!(s.public_count(), 1);
        assert!(s.remove_public_target(ObjectId(1)));
        assert_eq!(s.category_count(Category(2)), 0);
        assert_eq!(s.public_count(), 0);
    }

    #[test]
    fn nn_public_returns_inclusive_candidates() {
        let s = server_with_grid_targets(10);
        let region = Rect::from_coords(0.42, 0.42, 0.58, 0.58);
        let (list, stats) = s.nn_public(&region, FilterCount::Four);
        assert!(!list.is_empty());
        assert_eq!(stats.candidates, list.len());
        assert!(list.len() < s.public_count(), "candidate list must prune");
        // The exact NN of the region centre is certainly in the list.
        let user = region.center();
        let exact_dist = (0..100)
            .map(|i| {
                let step = 0.1;
                let x = (i % 10) as f64 * step + 0.05;
                let y = (i / 10) as f64 * step + 0.05;
                user.dist(Point::new(x, y))
            })
            .fold(f64::INFINITY, f64::min);
        let best = list
            .candidates
            .iter()
            .map(|e| user.dist(e.mbr.min))
            .fold(f64::INFINITY, f64::min);
        assert!((best - exact_dist).abs() < 1e-12);
    }

    #[test]
    fn nn_private_queries_cloaked_population() {
        let mut s = CasperServer::new();
        for i in 0..50u64 {
            let x = (i % 10) as f64 / 10.0;
            let y = (i / 10) as f64 / 10.0;
            s.upsert_private_region(
                PrivateHandle(i),
                Rect::from_coords(x, y, x + 0.08, y + 0.08),
            );
        }
        let region = Rect::from_coords(0.45, 0.25, 0.55, 0.35);
        let (list, _) = s.nn_private(&region, FilterCount::Four, PrivateBoundMode::Safe);
        assert!(!list.is_empty());
        assert!(list.len() < 50);
    }

    #[test]
    fn range_public_filters_by_radius() {
        let s = server_with_grid_targets(10);
        let region = Rect::from_coords(0.45, 0.45, 0.55, 0.55);
        let narrow = s.range_public(&region, 0.05);
        let wide = s.range_public(&region, 0.3);
        assert!(narrow.len() < wide.len());
        assert!(wide.len() < s.public_count());
    }

    /// Runs `script` on a server whose cache `configure` sets up after
    /// `load`, and on a cache-off twin; returns both answers.
    fn with_late_cache<T>(
        load: impl Fn(&mut CasperServer),
        configure: impl Fn(&mut CasperServer),
        script: impl Fn(&mut CasperServer) -> T,
    ) -> (T, T) {
        let mut late = CasperServer::new();
        let mut off = CasperServer::new();
        off.set_query_cache_enabled(false);
        load(&mut late);
        load(&mut off);
        configure(&mut late);
        (script(&mut late), script(&mut off))
    }

    fn two_targets(s: &mut CasperServer) {
        s.load_public_targets([
            (ObjectId(1), Point::new(0.1, 0.1)),
            (ObjectId(2), Point::new(0.9, 0.9)),
        ]);
    }

    /// Warms the answer around target 1, moves it far away, asks again.
    fn move_target_one(s: &mut CasperServer) -> Vec<Entry> {
        let query = Rect::from_coords(0.05, 0.05, 0.15, 0.15);
        s.nn_public(&query, FilterCount::Four);
        s.upsert_public_target(ObjectId(1), Point::new(0.5, 0.95));
        s.nn_public(&query, FilterCount::Four).0.candidates
    }

    fn assert_target_one_moved(late: &[Entry], off: &[Entry]) {
        let moved = Entry::point(ObjectId(1), Point::new(0.5, 0.95));
        assert!(off.contains(&moved), "{off:?}");
        assert_eq!(late, off, "the cache served the target's old place");
    }

    #[test]
    fn a_cache_configured_after_loading_sees_a_moved_target() {
        let (late, off) = with_late_cache(
            two_targets,
            |s| s.set_query_cache_config(CacheConfig::default()),
            move_target_one,
        );
        assert_target_one_moved(&late, &off);
    }

    #[test]
    fn a_cache_switched_on_after_loading_sees_a_moved_target() {
        let (late, off) = with_late_cache(
            |s| {
                s.set_query_cache_enabled(false);
                two_targets(s);
            },
            |s| s.set_query_cache_enabled(true),
            move_target_one,
        );
        assert_target_one_moved(&late, &off);
    }

    #[test]
    fn a_cache_configured_after_loading_sees_a_moved_region() {
        let (late, off) = with_late_cache(
            |s| {
                s.upsert_private_region(
                    PrivateHandle(1),
                    Rect::from_coords(0.08, 0.08, 0.12, 0.12),
                );
                s.upsert_private_region(
                    PrivateHandle(2),
                    Rect::from_coords(0.88, 0.88, 0.92, 0.92),
                );
            },
            |s| s.set_query_cache_config(CacheConfig::default()),
            |s| {
                let query = Rect::from_coords(0.05, 0.05, 0.15, 0.15);
                let area = Rect::from_coords(0.0, 0.0, 0.2, 0.2);
                let ask = |s: &CasperServer| {
                    let (nn, _) = s.nn_private(&query, FilterCount::Four, PrivateBoundMode::Safe);
                    (nn.candidates, s.range_private(&area).overlapping)
                };
                ask(s);
                s.upsert_private_region(
                    PrivateHandle(1),
                    Rect::from_coords(0.48, 0.93, 0.52, 0.97),
                );
                ask(s)
            },
        );
        let moved = Entry::new(ObjectId(1), Rect::from_coords(0.48, 0.93, 0.52, 0.97));
        assert!(off.0.contains(&moved), "{off:?}");
        assert!(off.1.is_empty(), "{off:?}");
        assert_eq!(late, off, "the cache served the region's old place");
    }

    #[test]
    fn empty_server_answers_gracefully() {
        let s = CasperServer::new();
        let region = Rect::from_coords(0.4, 0.4, 0.6, 0.6);
        let (list, _) = s.nn_public(&region, FilterCount::Four);
        assert!(list.is_empty());
        assert_eq!(s.range_private(&Rect::unit()).max_count(), 0);
    }
}
