//! Differential oracle suite for the candidate-answer cache.
//!
//! The cache must be *invisible*: for any interleaving of mutations and
//! queries, a cache-enabled [`CasperServer`] must return answers
//! **bit-identical** to a cache-disabled twin fed the same workload —
//! same candidates in the same canonical order, same extended areas,
//! same filters, same float aggregates down to the last bit.
//!
//! On top of the differential check, every answer is validated against
//! an independent brute-force oracle ([`BruteForce`] from
//! `casper-index`): candidate lists must contain the exact nearest
//! neighbour for *any* position inside the cloaked region, range
//! answers must contain every qualifying object.

use std::collections::HashMap;

use casper::prelude::*;
use casper::qp::RangeAnswer;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Bit-level equality
// ---------------------------------------------------------------------

fn rect_bits(r: &Rect) -> [u64; 4] {
    [
        r.min.x.to_bits(),
        r.min.y.to_bits(),
        r.max.x.to_bits(),
        r.max.y.to_bits(),
    ]
}

fn entry_bits(e: &Entry) -> (u64, [u64; 4]) {
    (e.id.0, rect_bits(&e.mbr))
}

fn assert_lists_identical(cached: &CandidateList, plain: &CandidateList) {
    let a: Vec<_> = cached.candidates.iter().map(entry_bits).collect();
    let b: Vec<_> = plain.candidates.iter().map(entry_bits).collect();
    assert_eq!(a, b, "candidate entries diverge");
    assert_eq!(
        rect_bits(&cached.a_ext),
        rect_bits(&plain.a_ext),
        "A_EXT diverges"
    );
    let fa: Vec<_> = cached.filters.iter().map(entry_bits).collect();
    let fb: Vec<_> = plain.filters.iter().map(entry_bits).collect();
    assert_eq!(fa, fb, "filter entries diverge");
    assert_eq!(
        rect_bits(&cached.dep),
        rect_bits(&plain.dep),
        "dependency region diverges"
    );
}

fn assert_ranges_identical(cached: &RangeAnswer, plain: &RangeAnswer) {
    let a: Vec<_> = cached.overlapping.iter().map(entry_bits).collect();
    let b: Vec<_> = plain.overlapping.iter().map(entry_bits).collect();
    assert_eq!(a, b, "overlapping entries diverge");
    assert_eq!(cached.definite, plain.definite, "definite count diverges");
    assert_eq!(
        cached.expected_count.to_bits(),
        plain.expected_count.to_bits(),
        "expected count diverges at the bit level"
    );
}

// ---------------------------------------------------------------------
// Workload generation
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    UpsertPublic(u64, Point),
    UpsertPublicIn(u64, Point, u32),
    RemovePublic(u64),
    UpsertPrivate(u64, Rect),
    RemovePrivate(u64),
    NnPublic(Rect, FilterCount),
    NnPublicIn(Rect, FilterCount, u32),
    NnPrivate(Rect, FilterCount),
    RangePublic(Rect, f64),
    RangePrivate(Rect),
    Density(usize),
}

fn point() -> impl Strategy<Value = Point> {
    (0.0..1.0f64, 0.0..1.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn region() -> impl Strategy<Value = Rect> {
    (point(), 0.001..0.4f64, 0.001..0.4f64)
        .prop_map(|(c, w, h)| Rect::centered_at(c, w, h).clamp_to(&Rect::unit()))
}

fn filters() -> impl Strategy<Value = FilterCount> {
    (0usize..3).prop_map(|i| FilterCount::ALL[i])
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0u64..40, point()).prop_map(|(id, p)| Op::UpsertPublic(id, p)),
        2 => (0u64..40, point(), 0u32..3).prop_map(|(id, p, c)| Op::UpsertPublicIn(id, p, c)),
        1 => (0u64..40).prop_map(Op::RemovePublic),
        2 => (0u64..30, region()).prop_map(|(h, r)| Op::UpsertPrivate(h, r)),
        1 => (0u64..30).prop_map(Op::RemovePrivate),
        4 => (region(), filters()).prop_map(|(r, f)| Op::NnPublic(r, f)),
        2 => (region(), filters(), 0u32..4).prop_map(|(r, f, c)| Op::NnPublicIn(r, f, c)),
        2 => (region(), filters()).prop_map(|(r, f)| Op::NnPrivate(r, f)),
        2 => (region(), 0.0..0.3f64).prop_map(|(r, d)| Op::RangePublic(r, d)),
        2 => region().prop_map(Op::RangePrivate),
        1 => (2usize..8).prop_map(Op::Density),
    ]
}

// ---------------------------------------------------------------------
// Brute-force oracles
// ---------------------------------------------------------------------

/// Sample positions a user could actually occupy inside her cloaked
/// region: the four corners and the centre.
fn sample_positions(region: &Rect) -> [Point; 5] {
    let c = region.corners();
    [c[0], c[1], c[2], c[3], region.center()]
}

/// Theorem 1 oracle: for any position in the region, the candidate list
/// must contain a target at the exact nearest-neighbour distance.
fn check_nn_inclusive(list: &CandidateList, region: &Rect, model: &[Entry]) {
    if model.is_empty() {
        assert!(list.candidates.is_empty());
        return;
    }
    let brute = BruteForce::from_entries(model.iter().copied());
    for pos in sample_positions(region) {
        let exact = brute.nearest(pos, DistanceKind::Min).unwrap().dist;
        let best = list
            .candidates
            .iter()
            .map(|e| e.mbr.min_dist(pos))
            .fold(f64::INFINITY, f64::min);
        assert!(
            best <= exact,
            "candidate list misses the exact NN at {pos:?}: best {best} > exact {exact}"
        );
    }
}

/// Range oracle: every object within `radius` of *some* position in the
/// region must be a candidate.
fn check_range_inclusive(list: &CandidateList, region: &Rect, radius: f64, model: &[Entry]) {
    for e in model {
        if region.min_dist(Point::new(e.mbr.min.x, e.mbr.min.y)) <= radius {
            assert!(
                list.candidates.iter().any(|c| c.id == e.id),
                "range candidates miss qualifying object {:?}",
                e.id
            );
        }
    }
}

/// Private-range oracle: the overlap list must match a brute-force
/// range query over the same cloaked regions, as an id set.
fn check_range_private(answer: &RangeAnswer, area: &Rect, model: &[Entry]) {
    let brute = BruteForce::from_entries(model.iter().copied());
    let mut expect: Vec<u64> = brute.range(area).iter().map(|e| e.id.0).collect();
    expect.sort_unstable();
    let mut got: Vec<u64> = answer.overlapping.iter().map(|e| e.id.0).collect();
    got.sort_unstable();
    assert_eq!(got, expect, "overlap set diverges from brute force");
}

// ---------------------------------------------------------------------
// The differential driver
// ---------------------------------------------------------------------

struct Twin {
    cached: CasperServer,
    plain: CasperServer,
    /// Mirror of the public store (all categories).
    public: HashMap<u64, Entry>,
    /// Mirror of the public store per category.
    by_cat: HashMap<u32, HashMap<u64, Entry>>,
    /// Mirror of the private store.
    private: HashMap<u64, Entry>,
    queries: u64,
}

impl Twin {
    fn new() -> Self {
        let cached = CasperServer::new();
        let mut plain = CasperServer::new();
        plain.set_query_cache_enabled(false);
        assert!(cached.query_cache_enabled());
        assert!(!plain.query_cache_enabled());
        Twin {
            cached,
            plain,
            public: HashMap::new(),
            by_cat: HashMap::new(),
            private: HashMap::new(),
            queries: 0,
        }
    }

    fn public_model(&self) -> Vec<Entry> {
        self.public.values().copied().collect()
    }

    fn cat_model(&self, cat: u32) -> Vec<Entry> {
        self.by_cat
            .get(&cat)
            .map(|m| m.values().copied().collect())
            .unwrap_or_default()
    }

    fn private_model(&self) -> Vec<Entry> {
        self.private.values().copied().collect()
    }

    fn drop_from_cat_mirrors(&mut self, id: u64) {
        for m in self.by_cat.values_mut() {
            m.remove(&id);
        }
    }

    fn apply(&mut self, op: &Op) {
        match *op {
            Op::UpsertPublic(id, p) => {
                self.cached.upsert_public_target(ObjectId(id), p);
                self.plain.upsert_public_target(ObjectId(id), p);
                self.drop_from_cat_mirrors(id);
                self.public.insert(id, Entry::point(ObjectId(id), p));
            }
            Op::UpsertPublicIn(id, p, cat) => {
                self.cached
                    .upsert_public_target_in(ObjectId(id), p, Category(cat));
                self.plain
                    .upsert_public_target_in(ObjectId(id), p, Category(cat));
                self.drop_from_cat_mirrors(id);
                self.public.insert(id, Entry::point(ObjectId(id), p));
                self.by_cat
                    .entry(cat)
                    .or_default()
                    .insert(id, Entry::point(ObjectId(id), p));
            }
            Op::RemovePublic(id) => {
                let a = self.cached.remove_public_target(ObjectId(id));
                let b = self.plain.remove_public_target(ObjectId(id));
                assert_eq!(a, b);
                self.drop_from_cat_mirrors(id);
                self.public.remove(&id);
            }
            Op::UpsertPrivate(h, r) => {
                self.cached.upsert_private_region(PrivateHandle(h), r);
                self.plain.upsert_private_region(PrivateHandle(h), r);
                self.private.insert(h, Entry::new(ObjectId(h), r));
            }
            Op::RemovePrivate(h) => {
                let a = self.cached.remove_private_region(PrivateHandle(h));
                let b = self.plain.remove_private_region(PrivateHandle(h));
                assert_eq!(a, b);
                self.private.remove(&h);
            }
            Op::NnPublic(r, f) => {
                // Twice: the first execution populates the cache, the
                // second must hit it — both bit-identical to uncached.
                for _ in 0..2 {
                    let (a, _) = self.cached.nn_public(&r, f);
                    let (b, _) = self.plain.nn_public(&r, f);
                    assert_lists_identical(&a, &b);
                    check_nn_inclusive(&a, &r, &self.public_model());
                }
                self.queries += 1;
            }
            Op::NnPublicIn(r, f, cat) => {
                for _ in 0..2 {
                    let (a, _) = self.cached.nn_public_in(&r, f, Category(cat));
                    let (b, _) = self.plain.nn_public_in(&r, f, Category(cat));
                    assert_lists_identical(&a, &b);
                    check_nn_inclusive(&a, &r, &self.cat_model(cat));
                }
                self.queries += 1;
            }
            Op::NnPrivate(r, f) => {
                for _ in 0..2 {
                    let (a, _) = self.cached.nn_private(&r, f, PrivateBoundMode::Safe);
                    let (b, _) = self.plain.nn_private(&r, f, PrivateBoundMode::Safe);
                    assert_lists_identical(&a, &b);
                }
                self.queries += 1;
            }
            Op::RangePublic(r, radius) => {
                for _ in 0..2 {
                    let a = self.cached.range_public(&r, radius);
                    let b = self.plain.range_public(&r, radius);
                    assert_lists_identical(&a, &b);
                    check_range_inclusive(&a, &r, radius, &self.public_model());
                }
                self.queries += 1;
            }
            Op::RangePrivate(r) => {
                for _ in 0..2 {
                    let a = self.cached.range_private(&r);
                    let b = self.plain.range_private(&r);
                    assert_ranges_identical(&a, &b);
                    check_range_private(&a, &r, &self.private_model());
                }
                self.queries += 1;
            }
            Op::Density(res) => {
                let a = self.cached.density(res);
                let b = self.plain.density(res);
                assert_eq!(a.resolution(), b.resolution());
                assert_eq!(a.total().to_bits(), b.total().to_bits());
                for y in 0..res {
                    for x in 0..res {
                        assert_eq!(
                            a.at(x, y).to_bits(),
                            b.at(x, y).to_bits(),
                            "density cell ({x},{y}) diverges"
                        );
                    }
                }
                self.queries += 1;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline differential property: random interleavings of
    /// mutations and queries, cache on vs cache off, bit-identical
    /// everywhere, and every answer inclusive against brute force.
    #[test]
    fn cache_is_invisible_under_random_workloads(
        ops in prop::collection::vec(op(), 1..80),
    ) {
        let mut twin = Twin::new();
        for op in &ops {
            twin.apply(op);
        }
        // The cached server must actually have exercised the cache:
        // every repeated read is a lookup, so traffic implies stats.
        let stats = twin.cached.cache_stats().expect("cache is enabled");
        if twin.queries > 0 {
            prop_assert!(
                stats.hits + stats.misses > 0,
                "queries ran but the cache saw no traffic"
            );
        }
        prop_assert!(twin.plain.cache_stats().is_none());
    }

    /// Repeating the same query against an unchanged store must be
    /// served from the cache — and still be inclusive.
    #[test]
    fn repeats_hit_and_stay_exact(
        targets in prop::collection::vec(point(), 1..40),
        reg in region(),
        f in filters(),
    ) {
        let mut server = CasperServer::new();
        server.load_public_targets(
            targets.iter().enumerate().map(|(i, &p)| (ObjectId(i as u64), p)),
        );
        let (first, _) = server.nn_public(&reg, f);
        let before = server.cache_stats().unwrap();
        let (second, _) = server.nn_public(&reg, f);
        let after = server.cache_stats().unwrap();
        prop_assert!(after.hits > before.hits, "second identical query must hit");
        assert_lists_identical(&second, &first);
        let model: Vec<Entry> = targets
            .iter()
            .enumerate()
            .map(|(i, &p)| Entry::point(ObjectId(i as u64), p))
            .collect();
        check_nn_inclusive(&second, &reg, &model);
    }

    /// Any mutation *inside* an answer's dependency region must not be
    /// served stale: the follow-up query reflects the new object.
    #[test]
    fn mutations_never_serve_stale_answers(
        targets in prop::collection::vec(point(), 1..30),
        reg in region(),
        newcomer in point(),
        f in filters(),
    ) {
        let mut server = CasperServer::new();
        server.load_public_targets(
            targets.iter().enumerate().map(|(i, &p)| (ObjectId(i as u64), p)),
        );
        let _ = server.nn_public(&reg, f);
        // Mutate: add a target, then query again; the answer must be
        // identical to a fresh server holding the final store.
        server.upsert_public_target(ObjectId(9_999), newcomer);
        let (got, _) = server.nn_public(&reg, f);
        let mut fresh = CasperServer::new();
        fresh.set_query_cache_enabled(false);
        fresh.load_public_targets(
            targets.iter().enumerate().map(|(i, &p)| (ObjectId(i as u64), p)),
        );
        fresh.upsert_public_target(ObjectId(9_999), newcomer);
        let (expect, _) = fresh.nn_public(&reg, f);
        assert_lists_identical(&got, &expect);
    }
}
