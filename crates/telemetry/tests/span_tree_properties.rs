//! Span-tree well-formedness under concurrency: every emitted span's
//! parent exists in the same trace, the parent links are acyclic, and
//! `start <= end` — all preserved under 8-thread concurrent emission
//! with randomized tree shapes.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

use casper_telemetry::{SpanRecord, SpanStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 32;

/// Runs `property` on `cases` cases. Case `i` draws its inputs from
/// `StdRng::seed_from_u64(i)`; a failing case is reported with both.
fn check(cases: u64, mut property: impl FnMut(&mut StdRng)) {
    for case in 0..cases {
        let mut rng = StdRng::seed_from_u64(case);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("");
            panic!("case {case} (seed {case}) failed: {msg}");
        }
    }
}

/// Tree shape for [`emit_tree`]: `len` random depths.
fn depths(rng: &mut StdRng, len: std::ops::Range<usize>) -> Vec<u8> {
    let len = rng.gen_range(len);
    (0..len).map(|_| rng.gen()).collect()
}

/// Checks the three well-formedness properties over one trace's spans.
/// `allow_remote_roots` accepts spans whose parent lives outside the
/// local record set (wire-propagated contexts); here every trace is
/// purely local, so it is always `false`.
fn assert_well_formed(spans: &[SpanRecord]) {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span_id, s)).collect();
    assert_eq!(by_id.len(), spans.len(), "span ids must be unique");
    for s in spans {
        assert!(
            s.start_ns <= s.end_ns,
            "span {} ends before it starts",
            s.span_id
        );
        if s.parent_id != 0 {
            let parent = by_id.get(&s.parent_id);
            assert!(
                parent.is_some(),
                "span {} has dangling parent {}",
                s.span_id,
                s.parent_id
            );
            assert_eq!(
                parent.unwrap().trace_id,
                s.trace_id,
                "parent crosses traces"
            );
        }
        // Acyclicity: walk the parent chain; span ids are minted
        // monotonically, and a child is always minted after its parent,
        // so a cycle would have to revisit an id — bound the walk by the
        // span count and demand it terminates at a root.
        let mut hops = 0usize;
        let mut cur = s;
        while cur.parent_id != 0 {
            hops += 1;
            assert!(hops <= spans.len(), "cycle through span {}", s.span_id);
            cur = by_id[&cur.parent_id];
        }
    }
}

/// Emits a randomized nest of child spans, `depths[i]` deep at step `i`.
fn emit_tree(store: &SpanStore, depths: &[u8]) {
    fn nest(store: &SpanStore, depth: u8) {
        if depth == 0 {
            return;
        }
        let _child = store.child("nested");
        nest(store, depth - 1);
    }
    for &d in depths {
        nest(store, d % 6);
    }
}

#[test]
fn concurrent_emission_yields_well_formed_trees() {
    check(CASES, |rng| {
        let shapes: Vec<Vec<u8>> = (0..8).map(|_| depths(rng, 1..8)).collect();
        let traces_per_thread = rng.gen_range(1usize..4);
        let store = Arc::new(SpanStore::new(1));
        let threads: Vec<_> = shapes
            .into_iter()
            .enumerate()
            .map(|(t, depths)| {
                let store = Arc::clone(&store);
                thread::spawn(move || {
                    for round in 0..traces_per_thread {
                        // Trace ids disjoint per thread; never zero.
                        let trace_id = 1 + (t * 100 + round) as u64;
                        let root = store.root(trace_id, "query");
                        emit_tree(&store, &depths);
                        drop(root);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let finished = store.finished();
        assert!(!finished.is_empty(), "rate-1 sampling keeps every trace");
        for trace in &finished {
            assert!(trace.spans.iter().all(|s| s.trace_id == trace.trace_id));
            assert_well_formed(&trace.spans);
            // Exactly one root per locally-owned trace.
            assert_eq!(
                trace.spans.iter().filter(|s| s.parent_id == 0).count(),
                1,
                "trace {} must have exactly one root",
                trace.trace_id
            );
        }
    });
}

#[test]
fn chrome_export_stays_structurally_valid() {
    check(CASES, |rng| {
        let depths = depths(rng, 1..10);
        let store = SpanStore::new(1);
        {
            let _root = store.root(77, "query");
            emit_tree(&store, &depths);
        }
        let json = casper_telemetry::chrome_trace_json(&store.trace(77));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    });
}

#[test]
fn interleaved_threads_sharing_one_trace_stay_well_formed() {
    // The cross-thread path the wire uses: one root, 8 workers each
    // opening a remote root under its context and emitting children
    // concurrently.
    let store: Arc<SpanStore> = Arc::new(SpanStore::new(1));
    let root = store.root(500, "query");
    let ctx = root.context().unwrap();
    let threads: Vec<_> = (0..8)
        .map(|_| {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                let _served = store.remote_root(ctx, "server");
                // 8 × (30 × 2 + 1) + 1 spans stays under the per-trace
                // cap, so no parent record is ever dropped by overflow.
                for _ in 0..30 {
                    let _outer = store.child("outer");
                    let _inner = store.child("inner");
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    drop(root);
    let spans = store.trace(500);
    // 8 threads × (one remote root + 30 × 2 children) + the root.
    assert_eq!(spans.len(), 8 * 61 + 1);
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.span_id).collect();
    assert_eq!(ids.len(), spans.len(), "span ids unique across threads");
    for s in &spans {
        assert!(s.start_ns <= s.end_ns);
        if s.parent_id != 0 {
            assert!(
                ids.contains(&s.parent_id),
                "dangling parent {}",
                s.parent_id
            );
        }
    }
}
