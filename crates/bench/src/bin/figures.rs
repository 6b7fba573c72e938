//! Regenerates the paper's figures as text tables.
//!
//! Usage:
//!
//! ```text
//! cargo run -p casper-bench --release --bin figures -- all
//! cargo run -p casper-bench --release --bin figures -- fig13 fig17
//! cargo run -p casper-bench --release --bin figures -- --full all
//! ```
//!
//! `--full` switches from the reduced default scale to the paper's 50K-user
//! scale (slower).

use casper_bench::figures::{run, Scale, ALL_FIGURES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let scale = if full {
        Scale::full()
    } else {
        Scale::reduced()
    };
    let requested: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let ids: Vec<&str> = if requested.is_empty() || requested.contains(&"all") {
        ALL_FIGURES.to_vec()
    } else {
        requested
    };
    println!(
        "# Casper figure harness — scale: {} users, {} targets, {} queries/point\n",
        scale.users, scale.targets, scale.queries
    );
    let mut snapshots: Vec<String> = Vec::new();
    for id in ids {
        match run(id, &scale) {
            Some(tables) => {
                for t in tables {
                    println!("{t}");
                }
            }
            None => {
                eprintln!("unknown figure id: {id} (known: {ALL_FIGURES:?})");
                std::process::exit(2);
            }
        }
        // Snapshot the (cumulative) registry after every figure so a
        // crash mid-run still leaves the trajectory up to that point.
        snapshots.push(format!(
            "\"{id}\": {}",
            casper_telemetry::registry().snapshot_json()
        ));
        let blob = format!(
            "{{\"schema_version\": {}, {}}}\n",
            casper_bench::SCHEMA_VERSION,
            snapshots.join(", ")
        );
        if let Err(e) = std::fs::write("BENCH_telemetry.json", &blob) {
            eprintln!("warning: could not write BENCH_telemetry.json: {e}");
        }
    }
    if !snapshots.is_empty() {
        eprintln!("telemetry snapshots written to BENCH_telemetry.json");
    }
}
