//! Acceptance tests for the telemetry layer: a chaos workload populates
//! every core metric family, the per-shard load gauge follows its shard,
//! a forced-degraded query and every state transition leave
//! kept spans that `/flight` serves, a server restart is filed under the
//! query that saw it, the metrics page is scrapeable over HTTP mid-run,
//! span sample rate 0 — the runtime off-switch for tracing — changes no
//! reply byte and stops no counter, and an idle server's reactors stay
//! asleep.
//!
//! The registry and span store are process-global, so assertions here
//! are lower bounds or exact values on series that only one test
//! touches.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::Duration;

use casper::core::codec::{encode_frame, FrameDecoder};
use casper::core::faults::{ChaosProxy, FaultConfig};
use casper::core::net::ServerConfig;
use casper::core::wire::{self, Message, TraceContext};
use casper::core::{
    ClientConfig, NetworkClient, NetworkServer, QueryOutcome, RemoteCasper, RetryPolicy,
    ShardedAnonymizer,
};
use casper::prelude::*;
use casper::telemetry;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A client tuned for a lossy link: tight timeouts, deep retry budget.
fn chaos_client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_millis(25),
        write_timeout: Duration::from_millis(500),
        retry: RetryPolicy {
            max_retries: 40,
            base_delay: Duration::from_millis(2),
            multiplier: 1.3,
            max_delay: Duration::from_millis(20),
            jitter: 0.2,
        },
        jitter_seed: 0x0B5E,
        ..ClientConfig::default()
    }
}

/// The span sample rate, the span store's finished ring and the
/// server-wide reactor wakeup counter are process-global and tests run on
/// parallel threads: the tests that change the rate or read the ring, and
/// every test that runs a `NetworkServer` (whose reactors count wakeups),
/// hold this lock while they do.
static SAMPLE_RATE: Mutex<()> = Mutex::new(());

/// Restores the span sample rate when dropped (also on a failed assert).
struct RestoreSampleRate(u64);

impl Drop for RestoreSampleRate {
    fn drop(&mut self) {
        telemetry::spans().set_sample_rate(self.0);
    }
}

fn http_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("metrics listener reachable");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: casper\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

/// The headline acceptance test: after a mobility workload through
/// the chaos proxy, the metrics page shows non-zero per-stage latency
/// histograms, achieved-k and region-area distributions, retry and
/// injected-fault counters — and it is scrapeable over HTTP mid-chaos.
#[test]
fn chaos_workload_populates_all_core_metrics() {
    let _serial = SAMPLE_RATE.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(42);
    let mut backend = CasperServer::new();
    backend
        .load_public_targets((0..200u64).map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen()))));
    let server = NetworkServer::spawn_with(
        backend,
        FilterCount::Four,
        ServerConfig {
            metrics_http: Some(SocketAddr::from(([127, 0, 0, 1], 0))),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let proxy = ChaosProxy::spawn(
        server.addr(),
        FaultConfig {
            seed: 0x0B5E_0001,
            drop_frame: 0.08,
            disconnect: 0.01,
            ..FaultConfig::default()
        },
    )
    .unwrap();
    let mut remote =
        RemoteCasper::with_config(AdaptivePyramid::new(8), proxy.addr(), chaos_client_config());
    for i in 0..60u64 {
        remote.register_user(
            UserId(i),
            Profile::new(rng.gen_range(1..8), 0.0),
            Point::new(rng.gen(), rng.gen()),
        );
    }
    let mut answered = 0usize;
    for _round in 0..4 {
        for i in 0..60u64 {
            remote.move_user(UserId(i), Point::new(rng.gen(), rng.gen()));
        }
        for i in 0..20u64 {
            match remote.query_nn(UserId(i)) {
                Some(QueryOutcome::Answered(a)) => {
                    assert_ne!(a.trace_id, 0);
                    answered += 1;
                }
                Some(QueryOutcome::Degraded { .. }) | None => {}
            }
        }
    }
    assert!(
        answered > 0,
        "chaos retry budget should answer most queries"
    );

    // HTTP scrape mid-chaos: the listener serves the same page the wire
    // protocol does.
    let page = http_get(server.metrics_addr().unwrap(), "/metrics");
    assert!(page.starts_with("HTTP/1.1 200 OK"), "{page}");
    assert!(page.contains("casper_net_server_frames_total"), "{page}");

    let reg = telemetry::registry();
    // Per-stage latency histograms (the live Figure 17 breakdown).
    for stage in ["anonymizer", "query", "transmission"] {
        let h = reg.histogram_with(
            "casper_stage_latency_ns",
            "Per-stage latency of the privacy-aware query pipeline, nanoseconds",
            &[("stage", stage)],
        );
        assert!(h.count() > 0, "stage {stage} histogram never observed");
    }
    // Privacy/QoS distributions from the cloaking layer.
    assert!(reg.histogram("casper_cloak_achieved_k", "").count() > 0);
    assert!(reg.histogram("casper_cloak_region_area_ppm", "").count() > 0);
    // Candidate-list sizes from the query processor (runs inside the
    // networked server thread, same process-global registry).
    assert!(
        reg.histogram_with("casper_qp_candidates", "", &[("data", "public")])
            .count()
            > 0
    );
    // Resilience counters: the seeded chaos stream injects faults, and
    // every injected fault is mirrored per kind into the registry.
    let tally = proxy.tally();
    assert!(tally.total() > 0, "chaos config injected nothing");
    for (kind, count) in [("drop", tally.drops), ("disconnect", tally.disconnects)] {
        if count > 0 {
            let c = reg.counter_with("casper_chaos_injected_total", "", &[("kind", kind)]);
            assert!(
                c.get() >= count,
                "{kind}: registry {} < tally {count}",
                c.get()
            );
        }
    }
    assert!(
        reg.counter("casper_net_client_retries_total", "").get() > 0,
        "injected faults must surface as observed retries"
    );
    // The full exposition carries every family (for dashboards scraping
    // the text page rather than the typed handles).
    let rendered = reg.render();
    for family in [
        "casper_stage_latency_ns",
        "casper_cloak_achieved_k",
        "casper_cloak_region_area_ppm",
        "casper_qp_candidates",
        "casper_chaos_injected_total",
        "casper_net_client_retries_total",
        "casper_queries_answered_total",
    ] {
        assert!(rendered.contains(family), "exposition missing {family}");
    }

    proxy.shutdown();
    server.shutdown();
}

/// The tracing acceptance test: one traced request through
/// `RemoteCasper` over the chaos proxy yields a single connected span
/// tree spanning both sides of the wire — client root, per-attempt
/// client spans (including retries), and the server-side frame span
/// grafted onto the wire-propagated context — and `/trace/<id>` serves
/// it as well-formed Chrome trace-event JSON.
#[test]
fn chaos_traced_request_yields_connected_cross_process_span_tree() {
    let _serial = SAMPLE_RATE.lock().unwrap_or_else(|e| e.into_inner());
    let spans = telemetry::spans();
    let _restore = RestoreSampleRate(spans.sample_rate());
    spans.set_sample_rate(1); // keep every trace for this test

    let mut rng = StdRng::seed_from_u64(0x7E11);
    let mut backend = CasperServer::new();
    backend
        .load_public_targets((0..100u64).map(|i| (ObjectId(i), Point::new(rng.gen(), rng.gen()))));
    let server = NetworkServer::spawn_with(
        backend,
        FilterCount::Four,
        ServerConfig {
            metrics_http: Some(SocketAddr::from(([127, 0, 0, 1], 0))),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // Drop a quarter of the frames: most queries need at least one retry,
    // so retried attempts show up inside a kept trace.
    let proxy = ChaosProxy::spawn(
        server.addr(),
        FaultConfig {
            seed: 0x7E11_0001,
            drop_frame: 0.25,
            ..FaultConfig::default()
        },
    )
    .unwrap();
    let mut remote =
        RemoteCasper::with_config(AdaptivePyramid::new(8), proxy.addr(), chaos_client_config());
    for i in 0..30u64 {
        remote.register_user(
            UserId(3000 + i),
            Profile::new(2, 0.0),
            Point::new(rng.gen(), rng.gen()),
        );
    }

    // Drive queries until one answered trace shows a retried attempt.
    let mut picked: Option<(u64, Vec<telemetry::SpanRecord>)> = None;
    'outer: for _round in 0..20 {
        for i in 0..30u64 {
            remote.move_user(UserId(3000 + i), Point::new(rng.gen(), rng.gen()));
            let Some(QueryOutcome::Answered(a)) = remote.query_nn(UserId(3000 + i)) else {
                continue;
            };
            let tree = spans.trace(a.trace_id);
            let attempts = tree.iter().filter(|s| s.name == "client_attempt").count();
            let frames = tree.iter().filter(|s| s.name == "server_frame").count();
            if attempts >= 2 && frames >= 1 {
                picked = Some((a.trace_id, tree));
                break 'outer;
            }
        }
    }
    let (trace_id, tree) =
        picked.expect("no answered query retried under 25% frame loss — chaos config inert?");

    // Structural well-formedness: exactly one root, every other span's
    // parent is present in the same tree, and all spans share the trace.
    let ids: std::collections::HashSet<u64> = tree.iter().map(|s| s.span_id).collect();
    let roots: Vec<_> = tree.iter().filter(|s| s.parent_id == 0).collect();
    assert_eq!(roots.len(), 1, "want one root, got {roots:?}");
    assert_eq!(roots[0].name, "query");
    for s in &tree {
        assert_eq!(s.trace_id, trace_id);
        assert!(s.end_ns >= s.start_ns, "span {} runs backwards", s.name);
        if s.parent_id != 0 {
            assert!(
                ids.contains(&s.parent_id),
                "span {} orphaned: parent {} not in trace",
                s.name,
                s.parent_id
            );
        }
    }
    // The server-side frame span hangs off a *client* attempt span —
    // that is the wire propagation working end to end.
    let attempt_ids: std::collections::HashSet<u64> = tree
        .iter()
        .filter(|s| s.name == "client_attempt")
        .map(|s| s.span_id)
        .collect();
    assert!(
        tree.iter()
            .filter(|s| s.name == "server_frame")
            .all(|s| attempt_ids.contains(&s.parent_id)),
        "server_frame spans must parent onto client attempts: {tree:?}"
    );

    // The same tree is exportable over HTTP as Chrome trace-event JSON.
    let page = http_get(
        server.metrics_addr().unwrap(),
        &format!("/trace/{trace_id}"),
    );
    assert!(page.starts_with("HTTP/1.1 200 OK"), "{page}");
    let body = page.split("\r\n\r\n").nth(1).unwrap_or("");
    assert!(body.contains("\"traceEvents\": ["), "{body}");
    for name in ["query", "client_attempt", "server_frame"] {
        assert!(body.contains(&format!("\"name\": \"{name}\"")), "{body}");
    }
    assert_eq!(body.matches('{').count(), body.matches('}').count());
    assert_eq!(body.matches('[').count(), body.matches(']').count());

    proxy.shutdown();
    server.shutdown();
}

/// A query submitted through `Casper`'s request plane (the `Engine`
/// entry point) over a sharded trusted tier: its answer, its spans and
/// its audit record must all name one trace.
#[test]
fn engine_query_answer_names_the_trace_its_spans_are_filed_under() {
    let _serial = SAMPLE_RATE.lock().unwrap_or_else(|e| e.into_inner());
    let spans = telemetry::spans();
    let _restore = RestoreSampleRate(spans.sample_rate());
    spans.set_sample_rate(1);

    let mut engine = Casper::new(ShardedAnonymizer::new(7, 1));
    engine.load_targets((0..50u64).map(|i| (ObjectId(i), Point::new(i as f64 / 50.0, 0.5))));
    for i in 0..20u64 {
        engine.register_user(
            UserId(4000 + i),
            Profile::new(2, 0.0),
            Point::new(i as f64 / 20.0, 0.4),
        );
    }
    let query = Request::QueryNn {
        uid: UserId(4003),
        filters: None,
        category: None,
    };
    let Response::Outcome(Some(QueryOutcome::Answered(ans))) = engine.execute(query) else {
        panic!("expected an answered query");
    };
    let tree = spans.trace(ans.trace_id);
    assert!(
        tree.iter().any(|s| s.name == "cloak"),
        "the answer's trace holds none of its spans: {tree:?}"
    );
    assert!(
        telemetry::audit()
            .dump()
            .iter()
            .any(|r| r.uid == 4003 && r.served && r.trace_id == ans.trace_id),
        "the served cloak was audited under another trace"
    );
}

/// One cloaked update and one NN query as raw frames over a fresh
/// connection, stamped with a *sampled* trace context the way a tracing
/// anonymizer would. Returns the two reply payloads.
fn traced_exchange(addr: SocketAddr, trace_id: u64) -> Vec<Vec<u8>> {
    let ctx = TraceContext {
        trace_id,
        parent_span: 1,
        sampled: true,
    };
    let region = Rect::from_coords(0.25, 0.25, 0.5, 0.5);
    let mut stream = TcpStream::connect(addr).expect("server reachable");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for msg in [
        Message::CloakedUpdate {
            handle: 77,
            seq: 1,
            region,
        },
        Message::CloakedQuery {
            pseudonym: 9,
            region,
        },
    ] {
        let payload = wire::stamp_trace(wire::encode(&msg), &ctx);
        stream.write_all(&encode_frame(&payload)).unwrap();
    }
    let mut decoder = FrameDecoder::new();
    let mut replies = Vec::new();
    let mut buf = [0u8; 4096];
    while replies.len() < 2 {
        let n = stream.read(&mut buf).expect("reply before the timeout");
        assert!(n > 0, "server closed the connection mid-exchange");
        decoder.push(&buf[..n]);
        while let Some(frame) = decoder.next_frame().expect("well-formed reply frame") {
            replies.push(frame);
        }
    }
    replies
}

/// Span sample rate 0 is the runtime off-switch that replaced the
/// compile-time one: the same served exchange records no span, returns
/// byte-identical replies, and leaves every counter and the metrics
/// page working.
#[test]
fn sample_rate_zero_records_no_spans_and_changes_no_reply_byte() {
    let _serial = SAMPLE_RATE.lock().unwrap_or_else(|e| e.into_inner());
    let spans = telemetry::spans();
    let _restore = RestoreSampleRate(spans.sample_rate());

    // Two identical servers (same targets, pinned boot id), so both arms
    // run the *same* exchange from the same starting state.
    let spawn = || {
        let mut backend = CasperServer::new();
        backend.load_public_targets((0..50u64).map(|i| {
            (
                ObjectId(i),
                Point::new(i as f64 / 50.0, (i % 7) as f64 / 7.0),
            )
        }));
        NetworkServer::spawn_with(
            backend,
            FilterCount::Four,
            ServerConfig {
                metrics_http: Some(SocketAddr::from(([127, 0, 0, 1], 0))),
                boot_id: Some(7),
                ..ServerConfig::default()
            },
        )
        .unwrap()
    };
    let (traced_id, untraced_id) = (0x5A3E_0001_u64, 0x5A3E_0002_u64);

    // At the default rate the server grafts its frame spans onto the
    // wire context — the instrument is live, so the zero below means
    // something.
    let on = spawn();
    let replies_on = traced_exchange(on.addr(), traced_id);
    assert!(
        spans
            .trace(traced_id)
            .iter()
            .any(|s| s.name == "server_frame"),
        "tracing on: the served frames left no span"
    );
    on.shutdown();

    spans.set_sample_rate(0);
    let off = spawn();
    let frames = telemetry::registry().counter("casper_net_server_frames_total", "");
    let frames_before = frames.get();
    let replies_off = traced_exchange(off.addr(), untraced_id);

    assert_eq!(replies_off, replies_on, "sample rate 0 changed reply bytes");
    assert!(
        spans.trace(untraced_id).is_empty(),
        "sample rate 0 still recorded spans"
    );
    assert!(
        spans.finished().iter().all(|t| t.trace_id != untraced_id),
        "sample rate 0 still finished a trace"
    );
    assert_eq!(off.stats().frames, 2);
    assert!(
        frames.get() >= frames_before + 2,
        "the frames counter must not depend on the sample rate"
    );
    let page = http_get(off.metrics_addr().unwrap(), "/metrics");
    assert!(page.starts_with("HTTP/1.1 200 OK"), "{page}");
    assert!(page.contains("casper_net_server_frames_total"), "{page}");
    off.shutdown();
}

/// The spans `/flight?trace=<id>` serves for one trace, one per line.
fn flight_page(trace_id: u64) -> String {
    let http =
        telemetry::MetricsHttp::serve_telemetry(([127, 0, 0, 1], 0).into(), telemetry::global())
            .unwrap();
    let page = http_get(http.addr(), &format!("/flight?trace={trace_id}"));
    http.shutdown();
    page
}

/// The per-shard load gauge, `casper_shard_users{shard}`, follows
/// registrations and a migration between shards.
#[test]
fn shard_users_gauge_follows_registrations_and_migrations() {
    let _serial = SAMPLE_RATE.lock().unwrap_or_else(|e| e.into_inner());
    let s = ShardedAnonymizer::new(7, 1); // 4 shards
    for i in 0..12u64 {
        s.register(
            UserId(1000 + i),
            Profile::new(2, 0.0),
            Point::new(0.1 + i as f64 * 1e-3, 0.1), // all in shard 0
        );
    }
    let reg = telemetry::registry();
    let users = |shard| reg.gauge_with("casper_shard_users", "", &[("shard", shard)]);
    assert_eq!(users("0").get(), 12);
    s.update_location(UserId(1000), Point::new(0.9, 0.9)); // into shard 3
    assert_eq!(users("0").get(), 11);
    assert_eq!(users("3").get(), 1);
}

/// A forced degraded query leaves its trace in the span store at the
/// default sample rate: a `query` root with outcome `degraded` and the
/// pending count and transport error as detail, served by `/flight`.
#[test]
fn degraded_query_leaves_flight_trace() {
    let _serial = SAMPLE_RATE.lock().unwrap_or_else(|e| e.into_inner());
    let server = NetworkServer::spawn(CasperServer::new(), FilterCount::Four).unwrap();
    let addr = server.addr();
    let mut remote = RemoteCasper::with_config(
        AdaptivePyramid::new(7),
        addr,
        ClientConfig {
            connect_timeout: Duration::from_millis(200),
            read_timeout: Duration::from_millis(200),
            write_timeout: Duration::from_millis(200),
            retry: RetryPolicy::no_retry(),
            jitter_seed: 3,
            ..ClientConfig::default()
        },
    );
    for i in 0..5u64 {
        remote.register_user(
            UserId(2000 + i),
            Profile::new(1, 0.0),
            Point::new(0.2 + i as f64 / 10.0, 0.5),
        );
    }
    server.shutdown();
    remote.move_user(UserId(2000), Point::new(0.25, 0.55));

    let outcome = remote.query_nn(UserId(2000)).unwrap();
    let QueryOutcome::Degraded {
        trace_id,
        pending_updates,
        ref error,
        ..
    } = outcome
    else {
        panic!("expected a degraded query against a dead server: {outcome:?}");
    };
    assert_ne!(trace_id, 0);
    let tree = telemetry::spans().trace(trace_id);
    let query = tree
        .iter()
        .find(|s| s.name == "query" && s.parent_id == 0)
        .unwrap_or_else(|| panic!("the failing request left no query span: {tree:?}"));
    assert_eq!(query.outcome, "degraded");
    assert_eq!(
        query.detail,
        format!("{pending_updates} pending updates; {error}")
    );
    // The operator's view names the trace, the outcome and the reason.
    let page = flight_page(trace_id);
    assert!(page.contains(&format!("trace={trace_id}")), "{page}");
    assert!(
        page.contains("degraded") && page.contains(&query.detail),
        "{page}"
    );
}

/// A server restart seen by a query is filed under that query's trace:
/// the update queued while the server was down reaches the restarted
/// server in the query's own flush, its ack carries a new boot id, and
/// the `replay` transition joins the query's spans instead of floating
/// in a trace of its own.
#[test]
fn boot_change_is_filed_under_the_query_that_saw_it() {
    let _serial = SAMPLE_RATE.lock().unwrap_or_else(|e| e.into_inner());
    let server = NetworkServer::spawn(CasperServer::new(), FilterCount::Four).unwrap();
    let addr = server.addr();
    let mut remote = RemoteCasper::with_config(
        AdaptivePyramid::new(7),
        addr,
        ClientConfig {
            connect_timeout: Duration::from_millis(200),
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            retry: RetryPolicy::no_retry(),
            ..ClientConfig::default()
        },
    );
    for i in 0..5u64 {
        remote.register_user(
            UserId(5000 + i),
            Profile::new(1, 0.0),
            Point::new(0.2 + i as f64 / 10.0, 0.5),
        );
    }
    server.shutdown();
    remote.move_user(UserId(5000), Point::new(0.25, 0.55));
    assert!(
        remote.pending_updates() >= 1,
        "the update must wait for the query"
    );
    let revived = NetworkServer::spawn_with(
        CasperServer::new(),
        FilterCount::Four,
        ServerConfig {
            bind: addr,
            ..ServerConfig::default()
        },
    )
    .unwrap();

    let outcome = remote.query_nn(UserId(5000)).unwrap();
    assert!(!outcome.is_degraded(), "{outcome:?}");
    let trace_id = outcome.trace_id();
    let tree = telemetry::spans().trace(trace_id);
    let replay = tree
        .iter()
        .find(|s| s.outcome == "replay")
        .unwrap_or_else(|| panic!("the query's trace holds no replay span: {tree:?}"));
    assert_eq!(replay.name, "net");
    assert!(
        replay.detail.starts_with("boot id changed; "),
        "{}",
        replay.detail
    );
    let root = tree.iter().find(|s| s.parent_id == 0).expect("a root");
    assert_eq!(root.name, "query");
    assert!(
        tree.iter().any(|s| s.span_id == replay.parent_id),
        "the replay span hangs outside the query's tree: {tree:?}"
    );
    revived.shutdown();
}

/// A reactor wakes on readiness, not on a timer: a server holding one
/// idle connection for 300 ms returns from `poll` a handful of times at
/// most (a timer ticking every 500 µs would wake ~600 times).
#[test]
fn idle_reactor_does_not_wake() {
    let _serial = SAMPLE_RATE.lock().unwrap_or_else(|e| e.into_inner());
    let server = NetworkServer::spawn(CasperServer::new(), FilterCount::Four).unwrap();
    let mut client = NetworkClient::connect(server.addr()).unwrap();
    // One round trip: the connection is admitted and served, so every
    // reactor is parked with the idle socket in its poll set.
    client
        .query_nn(1, Rect::from_coords(0.4, 0.4, 0.6, 0.6))
        .unwrap();
    let wakeups = telemetry::registry().counter("casper_net_server_reactor_wakeups_total", "");
    let before = wakeups.get();
    std::thread::sleep(Duration::from_millis(300));
    let woke = wakeups.get() - before;
    assert!(woke <= 5, "an idle reactor woke {woke} times in 300 ms");
    drop(client);
    server.shutdown();
}
