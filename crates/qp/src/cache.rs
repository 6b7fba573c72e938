//! The privacy-aware **candidate cache**.
//!
//! Cloaked regions come out of the anonymizer's grid pyramid, so their
//! coordinates quantize to cell boundaries and heavy traffic asks the
//! same handful of `(region, query kind, k)` combinations over and over.
//! This module memoises the candidate lists those queries produce and
//! invalidates them *lazily and exactly* through the per-cell version
//! counters of [`casper_grid::CellVersionTable`]:
//!
//! * every answer carries its [dependency region](crate::CandidateList::dep)
//!   — the rectangle outside which no object mutation can change it;
//! * storing an answer records a [`VersionStamp`] of the counters that
//!   region covers;
//! * a lookup revalidates the stamp — counters are monotone, so an
//!   unchanged sum proves no mutation touched the dependency region and
//!   the cached list is **bit-identical** to what recomputation would
//!   produce (the differential oracle suite in `tests/` enforces this).
//!
//! Writers must bump the version table *after* applying each store
//! mutation, and queries must not run concurrently with mutations (the
//! server plane's reader/writer lock provides this). As a belt-and-braces
//! guard against unserialised writers, [`CandidateCache::get_or_compute`]
//! refuses to cache an answer when the table's global mutation count
//! moved while the answer was being computed.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use casper_geometry::Rect;
use casper_grid::{CellVersionTable, VersionStamp};
use casper_index::SpatialIndex;

use crate::{
    everywhere, private_knn_public_data, private_nn_private_data, private_nn_public_data,
    private_range_public_data, CandidateList, FilterCount, PrivateBoundMode,
};

/// The query classes the cache distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// [`crate::private_nn_public_data`].
    NnPublic,
    /// [`crate::private_nn_private_data`].
    NnPrivate,
    /// [`crate::private_knn_public_data`].
    KnnPublic,
    /// [`crate::private_range_public_data`].
    RangePublic,
    /// [`crate::public_range_over_private`]'s overlap scan.
    RangeOverPrivate,
    /// The full-store scan feeding [`crate::DensityGrid`].
    FullScan,
}

/// Cache key: the exact cloaked-region bit pattern plus every parameter
/// that feeds the computation.
///
/// Regions are *already* quantized — the anonymizer emits unions of grid
/// cells, so coordinates are exact multiples of cell sides and repeat
/// bit-identically across users sharing a cloaked area. Hashing the raw
/// bits therefore groups queries by grid-cell tuple without any lossy
/// rounding (which would alias distinct regions and break exactness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    kind: QueryKind,
    region: [u64; 4],
    k: u32,
    filters: u8,
    /// Kind-specific extra parameter: `min_overlap` bits for `NnPrivate`,
    /// `radius` bits for `RangePublic`, a caller-chosen discriminant
    /// (e.g. category id) otherwise.
    extra: u64,
}

impl CacheKey {
    /// Builds a key from the query shape.
    pub fn new(
        kind: QueryKind,
        region: &Rect,
        k: u32,
        filters: Option<FilterCount>,
        extra: u64,
    ) -> Self {
        let f = match filters {
            None => 0,
            Some(FilterCount::One) => 1,
            Some(FilterCount::Two) => 2,
            Some(FilterCount::Four) => 4,
        };
        Self {
            kind,
            region: [
                region.min.x.to_bits(),
                region.min.y.to_bits(),
                region.max.x.to_bits(),
                region.max.y.to_bits(),
            ],
            k,
            filters: f,
            extra,
        }
    }
}

/// Sizing knobs for [`CandidateCache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Maximum number of cached answers across all shards.
    pub capacity: usize,
    /// Number of independently-locked shards (rounded up to at least 1).
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 4096,
            shards: 8,
        }
    }
}

/// Point-in-time view of the cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a still-valid cached entry.
    pub hits: u64,
    /// Lookups that found nothing cached under the key.
    pub misses: u64,
    /// Lookups that found an entry whose version stamp no longer
    /// validated (lazy invalidation: the entry is dropped on the spot).
    pub stale: u64,
    /// Answers stored.
    pub insertions: u64,
    /// Entries discarded to stay under capacity.
    pub evictions: u64,
    /// Answers *not* stored because the global mutation count moved
    /// mid-computation (unserialised writer detected).
    pub skipped: u64,
}

impl CacheStats {
    /// Fraction of lookups served from cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.stale;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct CachedEntry {
    list: CandidateList,
    stamp: VersionStamp,
}

/// A sharded, version-validated store of candidate lists.
pub struct CandidateCache {
    shards: Vec<Mutex<HashMap<CacheKey, CachedEntry>>>,
    per_shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    stale: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    skipped: AtomicU64,
}

impl std::fmt::Debug for CandidateCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CandidateCache")
            .field("shards", &self.shards.len())
            .field("per_shard_cap", &self.per_shard_cap)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for CandidateCache {
    fn default() -> Self {
        Self::new(CacheConfig::default())
    }
}

impl CandidateCache {
    /// Creates a cache with the given sizing.
    pub fn new(cfg: CacheConfig) -> Self {
        let shards = cfg.shards.max(1);
        let per_shard_cap = cfg.capacity.div_ceil(shards).max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            per_shard_cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stale: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            skipped: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &CacheKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Returns the cached answer for `key` if its version stamp still
    /// validates against `versions`; drops the entry (lazy invalidation)
    /// if it went stale.
    pub fn lookup(&self, key: &CacheKey, versions: &CellVersionTable) -> Option<CandidateList> {
        let mut shard = self.shards[self.shard_of(key)]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        match shard.get(key) {
            Some(entry) if versions.validate(&entry.stamp) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                crate::tel::record_cache_event("hit");
                Some(entry.list.clone())
            }
            Some(_) => {
                shard.remove(key);
                self.stale.fetch_add(1, Ordering::Relaxed);
                crate::tel::record_cache_event("stale");
                None
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                crate::tel::record_cache_event("miss");
                None
            }
        }
    }

    /// Stores an answer under `key` with the stamp of its dependency
    /// region, evicting an arbitrary entry if the shard is full.
    pub fn store(&self, key: CacheKey, list: CandidateList, stamp: VersionStamp) {
        let mut shard = self.shards[self.shard_of(&key)]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if shard.len() >= self.per_shard_cap && !shard.contains_key(&key) {
            if let Some(&victim) = shard.keys().next() {
                shard.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                crate::tel::record_cache_event("eviction");
            }
        }
        shard.insert(key, CachedEntry { list, stamp });
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// The memoisation workhorse: serve from cache, or run `compute`,
    /// stamp its dependency region and store the result.
    ///
    /// The answer is cached only when the table's global mutation count
    /// did not move across the computation — otherwise a concurrent
    /// (unserialised) writer may have been half-applied when `compute`
    /// read the store, and memoising that answer could serve it forever.
    pub fn get_or_compute(
        &self,
        key: CacheKey,
        versions: &CellVersionTable,
        compute: impl FnOnce() -> CandidateList,
    ) -> CandidateList {
        // A child span per lookup puts the hit/miss on the request's
        // trace (inert when the calling thread carries no trace context).
        let mut lookup_span = casper_telemetry::spans().child("cache_lookup");
        if let Some(hit) = self.lookup(&key, versions) {
            lookup_span.set_outcome("hit");
            return hit;
        }
        lookup_span.set_outcome("miss");
        drop(lookup_span);
        let before = versions.mutation_count();
        let list = compute();
        let stamp = versions.stamp(&list.dep);
        if versions.mutation_count() == before {
            self.store(key, list.clone(), stamp);
        } else {
            self.skipped.fetch_add(1, Ordering::Relaxed);
        }
        list
    }

    /// Current counter values.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            skipped: self.skipped.load(Ordering::Relaxed),
        }
    }

    /// Number of currently cached answers (valid or not-yet-revalidated).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached answer (counters are kept).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }
}

/// Cached [`crate::private_nn_public_data`]. `extra` discriminates
/// independent stores sharing one cache (e.g. per-category indexes);
/// pass 0 for a single store.
pub fn cached_nn_public<I: SpatialIndex>(
    cache: &CandidateCache,
    versions: &CellVersionTable,
    index: &I,
    region: &Rect,
    filters: FilterCount,
    extra: u64,
) -> CandidateList {
    let key = CacheKey::new(QueryKind::NnPublic, region, 0, Some(filters), extra);
    cache.get_or_compute(key, versions, || {
        private_nn_public_data(index, region, filters)
    })
}

/// Cached [`crate::private_nn_private_data`]. The overlap threshold and
/// bound mode are folded into the key.
pub fn cached_nn_private<I: SpatialIndex>(
    cache: &CandidateCache,
    versions: &CellVersionTable,
    index: &I,
    region: &Rect,
    filters: FilterCount,
    mode: PrivateBoundMode,
    min_overlap: f64,
) -> CandidateList {
    // Fold the mode into the low bit of the threshold's mantissa-exact
    // bit pattern's companion field: keep them separable by construction.
    let extra = (min_overlap.to_bits() & !1)
        | match mode {
            PrivateBoundMode::PaperFaithful => 0,
            PrivateBoundMode::Safe => 1,
        };
    let key = CacheKey::new(QueryKind::NnPrivate, region, 0, Some(filters), extra);
    cache.get_or_compute(key, versions, || {
        private_nn_private_data(index, region, filters, mode, min_overlap)
    })
}

/// Cached [`crate::private_knn_public_data`].
pub fn cached_knn_public<I: SpatialIndex>(
    cache: &CandidateCache,
    versions: &CellVersionTable,
    index: &I,
    region: &Rect,
    k: usize,
    filters: FilterCount,
    extra: u64,
) -> CandidateList {
    let key = CacheKey::new(
        QueryKind::KnnPublic,
        region,
        k.min(u32::MAX as usize) as u32,
        Some(filters),
        extra,
    );
    cache.get_or_compute(key, versions, || {
        private_knn_public_data(index, region, k, filters)
    })
}

/// Cached [`crate::private_range_public_data`]; the radius rides in the
/// key's `extra` bits.
pub fn cached_range_public<I: SpatialIndex>(
    cache: &CandidateCache,
    versions: &CellVersionTable,
    index: &I,
    region: &Rect,
    radius: f64,
) -> CandidateList {
    let key = CacheKey::new(QueryKind::RangePublic, region, 0, None, radius.to_bits());
    cache.get_or_compute(key, versions, || {
        private_range_public_data(index, region, radius)
    })
}

/// Cached overlap scan for [`crate::public_range_over_private`]: the
/// canonical list of regions overlapping `query` (its dependency region
/// is the query rectangle itself). Callers derive the definite/expected
/// aggregates from the returned list — they are cheap relative to the
/// scan.
pub fn cached_range_over_private<I: SpatialIndex>(
    cache: &CandidateCache,
    versions: &CellVersionTable,
    index: &I,
    query: &Rect,
) -> CandidateList {
    let key = CacheKey::new(QueryKind::RangeOverPrivate, query, 0, None, 0);
    cache.get_or_compute(key, versions, || {
        CandidateList::from_parts(index.range(query), *query, Vec::new(), *query)
    })
}

/// Cached full-store scan (everything intersecting the unit square) —
/// the input of [`crate::DensityGrid::from_regions`], so repeated
/// density builds over an unchanged store skip the index walk.
pub fn cached_full_scan<I: SpatialIndex>(
    cache: &CandidateCache,
    versions: &CellVersionTable,
    index: &I,
    extra: u64,
) -> CandidateList {
    let unit = Rect::unit();
    let key = CacheKey::new(QueryKind::FullScan, &unit, 0, None, extra);
    cache.get_or_compute(key, versions, || {
        CandidateList::from_parts(index.range(&unit), unit, Vec::new(), everywhere())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_geometry::Point;
    use casper_index::{BruteForce, Entry, ObjectId};

    fn pt(id: u64, x: f64, y: f64) -> Entry {
        Entry::point(ObjectId(id), Point::new(x, y))
    }

    fn small_world() -> BruteForce {
        BruteForce::from_entries(
            (0..25).map(|i| pt(i, (i % 5) as f64 / 5.0 + 0.1, (i / 5) as f64 / 5.0 + 0.1)),
        )
    }

    #[test]
    fn second_lookup_hits_and_matches_bit_identically() {
        let cache = CandidateCache::default();
        let versions = CellVersionTable::new();
        let idx = small_world();
        let region = Rect::from_coords(0.4, 0.4, 0.6, 0.6);
        let a = cached_nn_public(&cache, &versions, &idx, &region, FilterCount::Four, 0);
        let b = cached_nn_public(&cache, &versions, &idx, &region, FilterCount::Four, 0);
        assert_eq!(a.candidates, b.candidates);
        assert_eq!(a.a_ext, b.a_ext);
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.insertions, 1);
    }

    #[test]
    fn mutation_in_dependency_region_invalidates() {
        let cache = CandidateCache::default();
        let versions = CellVersionTable::new();
        let mut idx = small_world();
        let region = Rect::from_coords(0.4, 0.4, 0.6, 0.6);
        let a = cached_nn_public(&cache, &versions, &idx, &region, FilterCount::Four, 0);
        // Insert a target right inside the region: the store mutation,
        // then the version bump (writer ordering).
        let newcomer = pt(99, 0.5, 0.5);
        idx.insert(newcomer);
        versions.bump_rect(&newcomer.mbr);
        let b = cached_nn_public(&cache, &versions, &idx, &region, FilterCount::Four, 0);
        assert_ne!(a.candidates.len(), b.candidates.len());
        assert!(b.candidates.iter().any(|e| e.id == ObjectId(99)));
        assert_eq!(cache.stats().stale, 1, "stale entry dropped lazily");
    }

    #[test]
    fn far_away_mutation_keeps_entry_valid() {
        let cache = CandidateCache::default();
        let versions = CellVersionTable::new();
        let mut idx = small_world();
        let region = Rect::from_coords(0.42, 0.42, 0.58, 0.58);
        let a = cached_range_public(&cache, &versions, &idx, &region, 0.05);
        // A mutation far outside dep (= region expanded by 0.05).
        let far = pt(100, 0.02, 0.95);
        idx.insert(far);
        versions.bump_rect(&far.mbr);
        let b = cached_range_public(&cache, &versions, &idx, &region, 0.05);
        assert_eq!(a.candidates, b.candidates);
        assert_eq!(cache.stats().hits, 1, "far mutation must not invalidate");
    }

    #[test]
    fn distinct_parameters_get_distinct_entries() {
        let cache = CandidateCache::default();
        let versions = CellVersionTable::new();
        let idx = small_world();
        let region = Rect::from_coords(0.4, 0.4, 0.6, 0.6);
        cached_knn_public(&cache, &versions, &idx, &region, 1, FilterCount::Four, 0);
        cached_knn_public(&cache, &versions, &idx, &region, 2, FilterCount::Four, 0);
        cached_knn_public(&cache, &versions, &idx, &region, 2, FilterCount::One, 0);
        cached_nn_public(&cache, &versions, &idx, &region, FilterCount::Four, 0);
        cached_nn_public(&cache, &versions, &idx, &region, FilterCount::Four, 7);
        assert_eq!(cache.len(), 5);
        assert_eq!(cache.stats().misses, 5);
    }

    #[test]
    fn capacity_is_respected_via_eviction() {
        let cache = CandidateCache::new(CacheConfig {
            capacity: 8,
            shards: 2,
        });
        let versions = CellVersionTable::new();
        let idx = small_world();
        for i in 0..40u64 {
            let x = (i as f64) / 50.0;
            let region = Rect::from_coords(x, 0.4, x + 0.1, 0.5);
            cached_nn_public(&cache, &versions, &idx, &region, FilterCount::One, 0);
        }
        assert!(cache.len() <= 8, "len {} exceeds capacity", cache.len());
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn full_scan_is_invalidated_by_any_mutation() {
        let cache = CandidateCache::default();
        let versions = CellVersionTable::new();
        let mut idx = small_world();
        let a = cached_full_scan(&cache, &versions, &idx, 0);
        assert_eq!(a.len(), 25);
        let e = pt(200, 0.33, 0.77);
        idx.insert(e);
        versions.bump_rect(&e.mbr);
        let b = cached_full_scan(&cache, &versions, &idx, 0);
        assert_eq!(b.len(), 26);
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = CandidateCache::default();
        let versions = CellVersionTable::new();
        let idx = small_world();
        let region = Rect::from_coords(0.4, 0.4, 0.6, 0.6);
        cached_nn_public(&cache, &versions, &idx, &region, FilterCount::Four, 0);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }
}
