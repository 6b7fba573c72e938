//! Cache coherence under real thread contention.
//!
//! Eight threads hammer one shared [`ServerPlane`] (candidate cache on,
//! default) with candidate queries, as the TCP server's reactors do, while mutation rounds churn the
//! public and private stores between quiesced windows. Every answer
//! observed in a window is replayed against a serial, cache-*off*
//! [`CasperServer`] oracle holding the same store state — the two must
//! agree bit-for-bit, no matter how the threads interleave on the
//! cache's shards.
//!
//! A second test races mutations *against* queries with no barriers at
//! all, then quiesces and checks that no permanently-stale entry
//! survives: every region queried during the storm must answer
//! identically to a fresh cache-off server holding the final store.

#![allow(clippy::type_complexity)]

use std::sync::Arc;

use casper::core::engine::ServerPlane;
use casper::prelude::*;

const THREADS: usize = 8;
const ROUNDS: usize = 6;
const QUERIES_PER_THREAD: usize = 24;

fn entry_bits(e: &Entry) -> (u64, [u64; 4]) {
    (
        e.id.0,
        [
            e.mbr.min.x.to_bits(),
            e.mbr.min.y.to_bits(),
            e.mbr.max.x.to_bits(),
            e.mbr.max.y.to_bits(),
        ],
    )
}

/// Deterministic pseudo-random unit coordinate from an integer seed.
fn coord(seed: u64) -> f64 {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    s ^= s >> 33;
    s = s.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    s ^= s >> 33;
    (s >> 11) as f64 / (1u64 << 53) as f64
}

fn query_region(round: usize, thread: usize, i: usize) -> Rect {
    // Half the queries are shared across all threads (same region =>
    // shared cache entries under contention), half are per-thread.
    let tag = if i.is_multiple_of(2) {
        0
    } else {
        thread as u64 + 1
    };
    let seed = (round as u64) << 32 | tag << 16 | (i as u64);
    let c = Point::new(coord(seed), coord(seed ^ 0xABCD));
    let w = 0.01 + 0.2 * coord(seed ^ 0x1111);
    let h = 0.01 + 0.2 * coord(seed ^ 0x2222);
    Rect::centered_at(c, w, h).clamp_to(&Rect::unit())
}

fn target_pos(round: usize, id: u64) -> Point {
    let seed = 0xF00D_0000 ^ (round as u64) << 20 ^ id;
    Point::new(coord(seed), coord(seed ^ 0x5555))
}

fn private_region(round: usize, handle: u64) -> Rect {
    let seed = 0xCAFE_0000 ^ (round as u64) << 20 ^ handle;
    let c = Point::new(coord(seed), coord(seed ^ 0x7777));
    Rect::centered_at(c, 0.05, 0.05).clamp_to(&Rect::unit())
}

/// Round `r`'s mutation batch, identical for the plane and the oracle.
fn mutation_batch(round: usize) -> (Vec<(ObjectId, Point)>, Vec<(PrivateHandle, Rect)>) {
    let targets = (0..60u64)
        .map(|id| (ObjectId(id), target_pos(round, id)))
        .collect();
    let regions = (0..20u64)
        .map(|h| (PrivateHandle(h), private_region(round, h)))
        .collect();
    (targets, regions)
}

#[test]
fn eight_threads_agree_with_serial_cache_off_oracle() {
    let plane = Arc::new(ServerPlane::new(CasperServer::new(), FilterCount::Four, 1));
    assert!(plane.read().query_cache_enabled());

    let mut oracle = CasperServer::new();
    oracle.set_query_cache_enabled(false);

    for round in 0..ROUNDS {
        // Quiesced mutation phase, applied identically to both sides.
        let (targets, regions) = mutation_batch(round);
        for &(id, p) in &targets {
            plane.write().upsert_public_target(id, p);
            oracle.upsert_public_target(id, p);
        }
        for &(h, r) in &regions {
            plane.write().upsert_private_region(h, r);
            oracle.upsert_private_region(h, r);
        }

        // Contended query phase: 8 threads, shared + private regions.
        let mut observed: Vec<Vec<(usize, Vec<(u64, [u64; 4])>)>> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t in 0..THREADS {
                let plane = Arc::clone(&plane);
                handles.push(scope.spawn(move || {
                    let mut seen = Vec::new();
                    for i in 0..QUERIES_PER_THREAD {
                        let region = query_region(round, t, i);
                        let resp = plane.execute(Request::NnCandidates {
                            pseudonym: (t * QUERIES_PER_THREAD + i) as u64,
                            region,
                            filters: Some(FilterCount::Two),
                            category: None,
                        });
                        let Response::Candidates { entries, .. } = resp else {
                            panic!("unexpected response shape");
                        };
                        seen.push((i, entries.iter().map(entry_bits).collect()));
                    }
                    seen
                }));
            }
            for h in handles {
                observed.push(h.join().expect("query thread panicked"));
            }
        });

        // Serial replay: every observed answer must equal the oracle's.
        for (t, seen) in observed.iter().enumerate() {
            for (i, got) in seen {
                let region = query_region(round, t, *i);
                let (expect, _) = oracle.nn_public(&region, FilterCount::Two);
                let expect: Vec<_> = expect.candidates.iter().map(entry_bits).collect();
                assert_eq!(
                    got, &expect,
                    "round {round}, thread {t}, query {i}: cached concurrent answer \
                     diverges from the serial cache-off oracle"
                );
            }
        }
    }

    // Shared regions must actually have shared work across threads.
    let stats = plane.read().cache_stats().expect("cache is on");
    assert!(
        stats.hits > 0,
        "8 threads querying overlapping regions never hit the cache: {stats:?}"
    );
}

#[test]
fn racing_mutations_leave_no_stale_entries_behind() {
    let plane = Arc::new(ServerPlane::new(CasperServer::new(), FilterCount::Four, 1));

    // Half the threads mutate, half query, no coordination whatsoever.
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let plane = Arc::clone(&plane);
            scope.spawn(move || {
                for i in 0..QUERIES_PER_THREAD {
                    if t % 2 == 0 {
                        let id = (t * QUERIES_PER_THREAD + i) as u64 % 60;
                        plane
                            .write()
                            .upsert_public_target(ObjectId(id), target_pos(i, id));
                    } else {
                        let region = query_region(0, t, i);
                        let resp = plane.execute(Request::NnCandidates {
                            pseudonym: i as u64,
                            region,
                            filters: Some(FilterCount::One),
                            category: None,
                        });
                        assert!(matches!(resp, Response::Candidates { .. }));
                    }
                }
            });
        }
    });

    // Quiesce, then re-ask every region that was queried during the
    // storm: answers must match a fresh cache-off server on the final
    // store (i.e. the storm left no stale cache entries behind).
    let mut fresh = CasperServer::new();
    fresh.set_query_cache_enabled(false);
    for e in plane.read().public_entries() {
        fresh.upsert_public_target(e.id, Point::new(e.mbr.min.x, e.mbr.min.y));
    }
    for t in (1..THREADS).step_by(2) {
        for i in 0..QUERIES_PER_THREAD {
            let region = query_region(0, t, i);
            let resp = plane.execute(Request::NnCandidates {
                pseudonym: 0,
                region,
                filters: Some(FilterCount::One),
                category: None,
            });
            let Response::Candidates { entries, .. } = resp else {
                panic!("unexpected response shape");
            };
            let got: Vec<_> = entries.iter().map(entry_bits).collect();
            let (expect, _) = fresh.nn_public(&region, FilterCount::One);
            let expect: Vec<_> = expect.candidates.iter().map(entry_bits).collect();
            assert_eq!(
                got, expect,
                "stale entry survived the storm at thread {t}, query {i}"
            );
        }
    }
}
