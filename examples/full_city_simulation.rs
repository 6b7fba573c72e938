//! The whole system in one run: a simulated city day on the typed
//! request plane.
//!
//! ```text
//! cargo run --release --example full_city_simulation
//! ```
//!
//! * 8 000 residents move along a synthetic road network; every move is
//!   a typed [`Request::UpdateLocation`] into a [`Casper`] over a sharded
//!   anonymizer, which re-cloaks the mover and refreshes their region at
//!   the server;
//! * the server holds categorised public data (gas stations, hospitals,
//!   restaurants) and the residents' cloaked regions;
//! * residents fire category-scoped nearest-neighbour queries as typed
//!   [`Request::QueryNn`] commands through the self-tuning filter policy;
//! * the city's traffic office polls district counts and a density map.

use casper::core::{Category, FilterPolicy};
use casper::mobility::uniform_targets;
use casper::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Instant;

const RESIDENTS: usize = 8_000;
const TICKS: usize = 20;

fn main() {
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(20060912); // the paper's VLDB date
    let network = NetworkBuilder::new().build(&mut rng);
    let mut generator = MovingObjectGenerator::new(network, RESIDENTS, &mut rng);

    // One engine: a sharded anonymizer (a 9-level pyramid split at level
    // 2 → 16 shards) behind the typed request plane.
    let mut engine = Casper::new(ShardedAnonymizer::new(9, 2));

    // Categorised public data — registered directly at the server;
    // public data bypasses the anonymizer (Figure 1).
    let categories = [
        (Category(1), "gas stations", 800),
        (Category(2), "hospitals", 60),
        (Category(3), "restaurants", 2_400),
    ];
    let mut next_id = 0u64;
    for &(cat, _, n) in &categories {
        for p in uniform_targets(n, &mut rng) {
            engine
                .server_mut()
                .upsert_public_target_in(ObjectId(next_id), p, cat);
            next_id += 1;
        }
    }

    // Residents register with heterogeneous privacy preferences. A
    // paranoid resident who registers before enough others have cannot
    // be cloaked to their `k` yet: that region is held back, fail
    // private, until the registration that makes the city big enough.
    for i in 0..RESIDENTS {
        let profile = match i % 10 {
            0..=5 => Profile::new(rng.gen_range(2..=20), 0.0), // casual
            6..=8 => Profile::new(rng.gen_range(20..=80), 5e-5), // cautious
            _ => Profile::new(rng.gen_range(80..=200), 5e-4),  // paranoid
        };
        engine.register_user(UserId(i as u64), profile, generator.object(i).position());
    }
    assert_eq!(engine.server().private_count(), RESIDENTS);

    let mut policy = FilterPolicy::new(TransmissionModel::default());
    let district = Rect::from_coords(0.3, 0.3, 0.6, 0.6);
    let mut queries = 0usize;
    let mut wrong = 0usize;

    for tick in 0..TICKS {
        // Everyone drives; each move re-cloaks the mover.
        for (i, pos) in generator.tick(1.0, &mut rng) {
            engine.execute(Request::UpdateLocation {
                uid: UserId(i as u64),
                pos,
            });
        }

        // A wave of private category queries through the tuned policy.
        for _ in 0..50 {
            let uid = UserId(rng.gen_range(0..RESIDENTS as u64));
            let cat = categories[rng.gen_range(0..categories.len())].0;
            let fc = policy.choose();
            let Response::Outcome(Some(outcome)) = engine.execute(Request::QueryNn {
                uid,
                filters: Some(fc),
                category: Some(cat),
            }) else {
                continue;
            };
            let Some(answer) = outcome.answered() else {
                continue;
            };
            policy.record(fc, answer.candidates, answer.breakdown.query);
            queries += 1;
            if !verify_exact(&engine, uid, cat, &answer) {
                wrong += 1;
            }
        }

        // Traffic office: anonymous district analytics, straight to the
        // server tier of the same request plane.
        if tick % 5 == 4 {
            let Response::Count(count) = engine.execute(Request::AdminCount { area: district })
            else {
                unreachable!("the plane always counts");
            };
            let density = engine.server().density(8);
            println!(
                "tick {tick:>2}: district expects {:7.1} cars in [{}..{}]; hottest 1/64 cell ≈ {:.0}",
                count.expected_count,
                count.min_count(),
                count.max_count(),
                density.hottest().1
            );
        }
    }

    println!("\nprivate category queries : {queries} ({wrong} wrong — must be 0)");
    assert_eq!(wrong, 0, "every refined answer must be exact");
    println!(
        "simulated {TICKS} ticks with {RESIDENTS} residents in {:?}",
        started.elapsed()
    );
}

/// Oracle check: the refined answer must be the category's true nearest
/// target to the user's exact position.
fn verify_exact(
    engine: &Casper<ShardedAnonymizer>,
    uid: UserId,
    cat: Category,
    answer: &EndToEndAnswer,
) -> bool {
    let Some(refined) = answer.exact else {
        return false;
    };
    let Some(pos) = engine.anonymizer().position_of(uid) else {
        return false;
    };
    let all = engine
        .server()
        .nn_public_in(&Rect::unit(), FilterCount::One, cat)
        .0;
    let Some(best) = all
        .candidates
        .iter()
        .min_by(|a, b| a.mbr.min.dist(pos).total_cmp(&b.mbr.min.dist(pos)))
    else {
        return false;
    };
    (best.mbr.min.dist(pos) - refined.mbr.min.dist(pos)).abs() < 1e-9
}
