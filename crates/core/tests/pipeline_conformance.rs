//! Protocol-conformance tests for the pipelined network plane.
//!
//! The deterministic half drives [`ScriptedLink`] — seeded
//! interleavings of partial frames, coalesced frames and out-of-order
//! completions through the production `PipelineMachine` — and asserts
//! the application-visible behaviour is *byte-identical* to the serial
//! reference: same reply stream, same replies, same final server state.
//!
//! The live half runs the same operations through a real TCP server and
//! the pipelined client — against that same serial reference, across a
//! restart mid-window, and at windows 1 and 16 against each other.
//!
//! `CASPER_PIPELINE_WINDOW` (set by the CI matrix) overrides the
//! pipeline window exercised by the live tests; the scripted tests
//! sweep windows explicitly.

#![cfg(feature = "faults")]

use std::time::Duration;

use casper_core::conformance::ScriptedLink;
use casper_core::engine::ServerPlane;
use casper_core::wire::Message;
use casper_core::{
    CasperServer, ClientConfig, NetError, NetworkClient, NetworkServer, PrivateHandle, RetryPolicy,
    ServerConfig,
};
use casper_geometry::{Point, Rect};
use casper_index::ObjectId;
use casper_qp::FilterCount;

/// The pipeline window under test for the live-TCP tests. The CI
/// matrix sets `CASPER_PIPELINE_WINDOW` to 1 (lockstep baseline) and
/// 32; the default exercises a middling window locally.
fn env_window() -> usize {
    std::env::var("CASPER_PIPELINE_WINDOW")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
}

fn server_with_targets(n: u64) -> CasperServer {
    let mut s = CasperServer::new();
    s.load_public_targets((0..n).map(|i| {
        (
            ObjectId(i),
            Point::new((i % 10) as f64 / 10.0 + 0.05, (i / 10) as f64 / 10.0 + 0.05),
        )
    }));
    s
}

fn fresh_plane() -> ServerPlane {
    ServerPlane::new(server_with_targets(40), FilterCount::Four, 7)
}

fn region(i: u64) -> Rect {
    let x = (i % 8) as f64 / 10.0;
    let y = (i / 8 % 8) as f64 / 10.0;
    Rect::from_coords(x, y, x + 0.15, y + 0.15)
}

/// A mixed script: runs of updates (which the pipeline may reorder)
/// punctuated by queries (which are barriers).
fn mixed_script(ops: u64) -> Vec<Message> {
    (0..ops)
        .map(|i| {
            if i % 5 == 4 {
                Message::CloakedQuery {
                    pseudonym: 1000 + i,
                    region: region(i),
                }
            } else {
                Message::CloakedUpdate {
                    handle: i % 6,
                    seq: i + 1,
                    region: region(i),
                }
            }
        })
        .collect()
}

/// Updates only, with duplicate and decreasing sequence numbers per
/// handle — the adversarial case for out-of-order execution, because
/// whether a given update is applied or stale-discarded depends on
/// execution order. The *acks* must not betray that order.
fn duplicate_seq_script() -> Vec<Message> {
    let mut script = Vec::new();
    for i in 0..18u64 {
        script.push(Message::CloakedUpdate {
            handle: i % 3,
            // Seqs revisit the same values: 1, 2, 1, 3, 2, 1, ...
            seq: [1, 2, 1, 3, 2, 1][(i / 3) as usize % 6],
            region: region(i),
        });
    }
    // A deterministic winner per handle: a final, strictly largest seq.
    for h in 0..3u64 {
        script.push(Message::CloakedUpdate {
            handle: h,
            seq: 100,
            region: region(40 + h),
        });
    }
    script
}

#[test]
fn pipelined_interleavings_match_serial_byte_for_byte() {
    let script = mixed_script(30);
    for window in [2usize, 8, 32] {
        for seed in 0..12u64 {
            let reference = ScriptedLink::new(seed, window).run_serial(&fresh_plane(), &script);
            let pipelined = ScriptedLink::new(seed, window).run_pipelined(&fresh_plane(), &script);
            assert_eq!(
                pipelined.reply_stream, reference.reply_stream,
                "reply bytes diverged (seed {seed}, window {window})"
            );
            assert_eq!(pipelined.replies, reference.replies);
            assert_eq!(
                pipelined.entries, reference.entries,
                "final server state diverged (seed {seed}, window {window})"
            );
            assert_eq!(pipelined.frames, script.len() as u64);
        }
    }
}

#[test]
fn duplicate_seqs_give_identical_acks_under_any_completion_order() {
    let script = duplicate_seq_script();
    let reference = ScriptedLink::new(0, 1).run_serial(&fresh_plane(), &script);
    for seed in 0..24u64 {
        let pipelined = ScriptedLink::new(seed, 16).run_pipelined(&fresh_plane(), &script);
        // Acks echo {boot_id, seq} regardless of whether the update was
        // applied or stale-discarded, so even though the set of
        // *discarded* updates depends on completion order, the reply
        // bytes and the converged state cannot.
        assert_eq!(
            pipelined.reply_stream, reference.reply_stream,
            "ack bytes betrayed completion order (seed {seed})"
        );
        assert_eq!(pipelined.entries, reference.entries);
        // Every handle converged to its seq-100 winner.
        assert_eq!(pipelined.entries.len(), 3);
        for (h, e) in pipelined.entries.iter().enumerate() {
            assert_eq!(e.mbr, region(40 + h as u64), "handle {h} lost the seq race");
        }
    }
}

#[test]
fn reset_mid_pipeline_replays_into_identical_final_state() {
    let script = mixed_script(25);
    let reference = ScriptedLink::new(0, 1).run_serial(&fresh_plane(), &script);
    // Sever the stream at a sweep of byte offsets — before any frame,
    // mid-header, mid-payload, between frames, past the end — and let
    // the link replay the acked prefix plus the unacked suffix.
    for (i, cut) in [0usize, 3, 9, 47, 120, 388, 801, 1300, usize::MAX]
        .into_iter()
        .enumerate()
    {
        let seed = 0xC0FFEE + i as u64;
        let outcome =
            ScriptedLink::new(seed, 8).run_pipelined_with_reset(&fresh_plane(), &script, cut);
        // The second session answers every request (replays re-ack).
        assert_eq!(outcome.replies.len(), script.len(), "cut {cut}");
        assert_eq!(
            outcome.entries, reference.entries,
            "replay after cut {cut} diverged from the serial final state"
        );
    }
}

/// Client config tuned for fast tests against live servers.
fn fast_config(window: usize) -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        retry: RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(5),
            multiplier: 1.6,
            max_delay: Duration::from_millis(100),
            jitter: 0.2,
        },
        jitter_seed: 7,
        pipeline_window: window,
        ..ClientConfig::default()
    }
}

fn spawn_server() -> NetworkServer {
    NetworkServer::spawn(server_with_targets(40), FilterCount::Four).unwrap()
}

/// The live server, driven through a pipelined client, is
/// indistinguishable from the serial reference run of the same frames:
/// same candidates, same server state, same protocol accounting.
#[test]
fn live_reactor_matches_the_serial_reference() {
    let window = env_window();
    let batch: Vec<(PrivateHandle, Rect)> = (0..20u64)
        .map(|i| (PrivateHandle(i % 7), region(i)))
        .collect();
    let query_region = Rect::from_coords(0.3, 0.3, 0.7, 0.7);

    let server = spawn_server();
    let mut client = NetworkClient::with_config(server.addr(), fast_config(window));
    client.push_updates(&batch).unwrap();
    let candidates = client.query_nn(9, query_region).unwrap();
    let mut live_entries = server.with_server(|s| s.private_entries());
    live_entries.sort_by_key(|e| e.id.0);
    let stats = server.stats();
    server.shutdown();

    // The frames the client sent: per-handle sequences count from 1.
    let mut script: Vec<Message> = batch
        .iter()
        .enumerate()
        .map(|(i, &(handle, region))| Message::CloakedUpdate {
            handle: handle.0,
            seq: i as u64 / 7 + 1,
            region,
        })
        .collect();
    script.push(Message::CloakedQuery {
        pseudonym: 9,
        region: query_region,
    });
    let reference = ScriptedLink::new(0, 1).run_serial(&fresh_plane(), &script);

    let Some(Message::Candidates(reference_candidates)) = reference.replies.last() else {
        panic!("the serial run must end in a candidate list");
    };
    let sorted_ids = |list: &[casper_index::Entry]| {
        let mut ids: Vec<u64> = list.iter().map(|e| e.id.0).collect();
        ids.sort_unstable();
        ids
    };
    assert_eq!(sorted_ids(&candidates), sorted_ids(reference_candidates));
    assert_eq!(live_entries, reference.entries);
    assert_eq!(stats.frames, reference.frames);
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.connection_errors, 0);
    if window == 1 {
        // Out-of-order execution may legitimately discard an overtaken
        // update as stale; lockstep never reorders.
        assert_eq!(stats.stale_updates, 0);
    }
}

/// The window is a transport detail: one script pushed one update at a
/// time, as one lockstep batch and as one window-16 batch leaves the same
/// server state and the same client counters.
#[test]
fn window_size_is_invisible_to_state_and_client_stats() {
    let batch: Vec<(PrivateHandle, Rect)> = (0..30u64)
        .map(|i| (PrivateHandle(i % 11), region(i)))
        .collect();
    let mut observations = Vec::new();
    for (window, one_by_one) in [(1usize, true), (1, false), (16, false)] {
        let server = spawn_server();
        let mut client = NetworkClient::with_config(server.addr(), fast_config(window));
        if one_by_one {
            for &(handle, region) in &batch {
                client.push_update(handle, region).unwrap();
            }
        } else {
            client.push_updates(&batch).unwrap();
        }
        let mut entries = server.with_server(|s| s.private_entries());
        entries.sort_by_key(|e| e.id.0);
        let stats = client.stats();
        observations.push((
            entries,
            stats.connects,
            stats.retries,
            stats.replayed_regions,
        ));
        server.shutdown();
    }
    assert_eq!(
        observations[0], observations[1],
        "batching changed the outcome"
    );
    assert_eq!(
        observations[0], observations[2],
        "the window changed the outcome"
    );
}

/// An `Overloaded` reply answers its request completely, so the stream
/// survives it — unless replies to frames written behind it are still in
/// flight, which would pair with the next exchange's requests.
#[test]
fn overloaded_reply_keeps_the_stream_only_when_nothing_else_is_in_flight() {
    let server = spawn_server();
    let mut client = NetworkClient::with_config(server.addr(), fast_config(16));
    client.push_update(PrivateHandle(1), region(1)).unwrap();
    server.plane().set_serving(false);

    let shed = client.push_update(PrivateHandle(1), region(2));
    assert!(matches!(shed, Err(NetError::Overloaded { .. })), "{shed:?}");
    assert!(client.is_connected(), "a lone shed reply leaves no strays");

    let batch: Vec<(PrivateHandle, Rect)> =
        (0..8u64).map(|i| (PrivateHandle(i), region(i))).collect();
    let shed = client.push_updates(&batch);
    assert!(matches!(shed, Err(NetError::Overloaded { .. })), "{shed:?}");
    assert!(!client.is_connected(), "seven replies were still in flight");
    server.shutdown();
}

/// A server restart in the middle of a full pipeline window: the
/// client notices the boot-id change in the acks, reconnects, and
/// re-delivers — converging on exactly the newest region per handle.
#[test]
fn boot_id_change_mid_window_redelivers_newest_regions() {
    let server = spawn_server();
    let addr = server.addr();
    let mut client = NetworkClient::with_config(addr, fast_config(8));
    let first: Vec<(PrivateHandle, Rect)> =
        (0..6u64).map(|i| (PrivateHandle(i), region(i))).collect();
    client.push_updates(&first).unwrap();
    assert_eq!(server.with_server(|s| s.private_count()), 6);
    // Kill the server mid-session; all private state dies with it.
    server.shutdown();
    let revived = NetworkServer::spawn_with(
        CasperServer::new(),
        FilterCount::Four,
        ServerConfig {
            bind: addr,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // The next pipelined batch reconnects; the acks carry the revived
    // server's boot id, which triggers replay of every tracked handle.
    let second: Vec<(PrivateHandle, Rect)> = (0..6u64)
        .map(|i| (PrivateHandle(i), region(20 + i)))
        .collect();
    client.push_updates(&second).unwrap();
    let mut entries = revived.with_server(|s| s.private_entries());
    entries.sort_by_key(|e| e.id.0);
    assert_eq!(entries.len(), 6, "lost handles across the restart");
    for (i, e) in entries.iter().enumerate() {
        assert_eq!(
            e.mbr,
            region(20 + i as u64),
            "handle {i} regressed to a pre-restart region"
        );
    }
    let stats = client.stats();
    assert!(stats.connects >= 2, "expected a reconnect: {stats:?}");
    revived.shutdown();
}

/// Idempotent replay over live TCP: re-pushing an already-acked batch
/// (same seqs would be stale; fresh seqs re-apply) never duplicates
/// handles and always converges to the newest region.
#[test]
fn pipelined_redelivery_is_idempotent() {
    let window = env_window();
    let server = spawn_server();
    let mut client = NetworkClient::with_config(server.addr(), fast_config(window));
    let batch: Vec<(PrivateHandle, Rect)> =
        (0..10u64).map(|i| (PrivateHandle(i), region(i))).collect();
    client.push_updates(&batch).unwrap();
    client.push_updates(&batch).unwrap();
    client.push_updates(&batch).unwrap();
    assert_eq!(server.with_server(|s| s.private_count()), 10);
    server.shutdown();
}
