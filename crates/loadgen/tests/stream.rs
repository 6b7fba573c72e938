//! The inputs are a function of the seed alone: the same seed yields a
//! byte-identical operation stream, and the two mixed workloads are fed
//! the very same operations.

use casper_loadgen::workload::{workload, Population, RunStreams, Scale, Windows, ROUNDS};

const WINDOWS: Windows = Windows {
    warmup_s: 0.5,
    latency_s: 2.0,
    traced_s: 1.0,
    capacity_s: 1.0,
};

fn hash_of(name: &str, seed: u64) -> u64 {
    let population = Population::build(Scale::SMOKE, seed);
    let spec = workload(name).expect("a known workload");
    RunStreams::generate(&population, spec, 1000.0, WINDOWS, seed).hash()
}

#[test]
fn same_seed_same_stream() {
    for name in ["update_stream", "query_snapshot", "mixed_durable"] {
        assert_eq!(hash_of(name, 7), hash_of(name, 7), "{name}");
        assert_ne!(hash_of(name, 7), hash_of(name, 8), "{name}");
    }
}

#[test]
fn the_stream_of_seed_one_is_pinned() {
    // Changes when the mobility generator, the profile distribution, the
    // stand-in RNG or the stream layout changes — all of which change
    // what the program is fed, and so the meaning of every committed
    // number. Re-pin only together with a re-measured baseline.
    if option_env!("CASPER_LOADGEN_DEPS").is_none() {
        // Built against the published `rand`, whose `StdRng` draws a
        // different stream than the stand-in the baseline was taken with.
        return;
    }
    assert_eq!(
        format!("{:016x}", hash_of("mixed_durable", 1)),
        PINNED_MIXED_SEED_1
    );
}

const PINNED_MIXED_SEED_1: &str = "3a45706a3248c0a7";

#[test]
fn both_mixed_workloads_replay_the_same_operations() {
    assert_eq!(hash_of("mixed_durable", 3), hash_of("mixed_replicated", 3));
    assert_ne!(hash_of("mixed_durable", 3), hash_of("update_stream", 3));
}

#[test]
fn arrival_rate_changes_due_times_but_not_the_operations() {
    let population = Population::build(Scale::SMOKE, 5);
    let spec = workload("mixed_durable").unwrap();
    let slow = RunStreams::generate(&population, spec, 500.0, WINDOWS, 5);
    let fast = RunStreams::generate(
        &population,
        spec,
        1000.0,
        Windows {
            warmup_s: 0.25,
            latency_s: 1.0,
            traced_s: 0.5,
            capacity_s: 0.5,
        },
        5,
    );
    // Same number of operations in each paced phase, at twice the pace.
    assert_eq!(slow.warmup.hash, fast.warmup.hash);
    assert_eq!(slow.rounds[0].paced.hash, fast.rounds[0].paced.hash);
    let last = |s: &RunStreams| s.rounds[0].paced.per_driver[0].last().unwrap().due_ns;
    assert!(last(&slow) > last(&fast));
    // The bursts between them are sized by time, not by operations, so
    // later phases start elsewhere in the stream.
    assert_ne!(slow.rounds[0].burst.len(), fast.rounds[0].burst.len());
}

#[test]
fn every_round_has_an_equal_piece_of_each_window() {
    let population = Population::build(Scale::SMOKE, 5);
    let spec = workload("mixed_durable").unwrap();
    let streams = RunStreams::generate(&population, spec, 1000.0, WINDOWS, 5);
    assert_eq!(streams.rounds.len(), ROUNDS);
    for round in &streams.rounds {
        assert_eq!(round.paced.len(), 2000 / ROUNDS);
        assert_eq!(round.burst.len(), streams.rounds[0].burst.len());
        assert!(round
            .burst
            .per_driver
            .iter()
            .flatten()
            .all(|o| o.due_ns == 0));
    }
    assert_eq!(streams.warmup.len(), 500);
    assert_eq!(streams.traced.len(), 1000);
}
