//! The whole harness at `--smoke` scale: 500 users, one-second windows,
//! all four workloads, the oracle on. Keeps the benchmark from rotting
//! between the occasions somebody runs it at full scale.

use casper_loadgen::json::{parse, Json};
use casper_loadgen::metrics::{END_TO_END, PER_LAYER};
use casper_loadgen::report::{driver_line, result_file, DriverMetrics, Host};
use casper_loadgen::run::{run_workload, RunConfig};
use casper_loadgen::workload::{Scale, Windows, SMOKE_RATE_OPS_S, WORKLOADS};

fn smoke_config() -> RunConfig {
    RunConfig {
        scale: Scale::SMOKE,
        seed: 1,
        windows: Windows {
            warmup_s: 0.3,
            latency_s: 1.0,
            traced_s: 1.0,
            capacity_s: 1.0,
        },
        setups: 1,
        idle_hold_s: 0.2,
        rate_override: Some(SMOKE_RATE_OPS_S),
        trace_out: None,
    }
}

#[test]
fn in_driver_list_runs_correctly_and_reports_every_metric() {
    let host = Host::probe().expect("a scratch directory");
    let trace_dir = casper_loadgen::scratch::ScratchDir::create("smoke-trace").unwrap();
    let mut results = Vec::new();
    for spec in &WORKLOADS {
        let mut cfg = smoke_config();
        cfg.trace_out = Some(trace_dir.path().join(format!("{}.json", spec.name)));
        let r = run_workload(spec, &cfg);
        assert!(
            r.correct(),
            "{}: {} of {} failed, teardown: {:?}",
            spec.name,
            r.failed,
            r.attempted,
            r.teardown_failures
        );
        assert!(
            r.attempted > 500,
            "{}: {} attempted",
            spec.name,
            r.attempted
        );

        // Every metric BENCHMARK.json hands to the driver is present
        // and, end to end, never zero.
        for m in END_TO_END.iter().filter(|m| m.in_driver_list) {
            let s = r
                .end_to_end
                .get(m.name)
                .unwrap_or_else(|| panic!("{} lacks {}", spec.name, m.name));
            assert!(s.median > 0.0, "{}: {} is {}", spec.name, m.name, s.median);
        }
        for m in &PER_LAYER {
            assert!(
                r.per_layer.contains_key(m.name),
                "{} lacks {}",
                spec.name,
                m.name
            );
        }
        let has_queries = spec.query_share > 0.0;
        let has_updates = spec.query_share < 1.0;
        assert_eq!(r.end_to_end.contains_key("query_p50_ms"), has_queries);
        assert_eq!(
            r.end_to_end.contains_key("candidates_per_query"),
            has_queries
        );
        assert_eq!(r.end_to_end.contains_key("update_p50_ms"), has_updates);
        assert_eq!(r.per_layer["net.query_rtt_mean_us"] > 0.0, has_queries);
        assert_eq!(r.per_layer["plane.upsert_mean_us"] > 0.0, has_updates);
        let durable = spec.name.starts_with("mixed_");
        assert_eq!(r.per_layer["durability.fsyncs_per_op"] > 0.0, durable);
        assert_eq!(r.per_layer["durability.recovery_s"] > 0.0, durable);
        assert_eq!(
            r.per_layer["replication.standby_fsyncs_per_op"] > 0.0,
            spec.name == "mixed_replicated"
        );
        assert!(r.per_layer["qp.filter_mean_us"] > 0.0);

        // The driver's line parses and carries exactly the listed names.
        for (which, names) in [
            (
                DriverMetrics::EndToEnd,
                END_TO_END
                    .iter()
                    .filter(|m| m.in_driver_list)
                    .map(|m| m.name)
                    .collect::<Vec<_>>(),
            ),
            (
                DriverMetrics::PerLayer,
                PER_LAYER.iter().map(|m| m.name).collect(),
            ),
        ] {
            let line = parse(&driver_line(&r, which)).expect("driver line is JSON");
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            let metrics = line.get("metrics").and_then(Json::as_obj).unwrap();
            assert_eq!(metrics.keys().map(String::as_str).collect::<Vec<_>>(), {
                let mut sorted = names.clone();
                sorted.sort_unstable();
                sorted
            });
        }

        // The trace opens as Chrome trace-event JSON.
        let trace = std::fs::read_to_string(cfg.trace_out.as_ref().unwrap()).unwrap();
        let events = parse(&trace).expect("trace is JSON");
        assert!(events.as_arr().is_some_and(|e| e.len() > 100));
        results.push(r);
    }

    // The result file round-trips and `compare` reads it back.
    let doc = result_file(&host, &smoke_config(), &results);
    let path = trace_dir.path().join("result.json");
    std::fs::write(&path, doc.render_pretty()).unwrap();
    let files = [path.to_string_lossy().into_owned()];
    let rows = casper_loadgen::compare::compare(&files, &files).unwrap();
    assert!(rows.len() >= 4 * 6);
    use casper_loadgen::compare::Verdict;
    assert!(rows
        .iter()
        .all(|r| matches!(r.verdict, Verdict::Unchanged | Verdict::Reported)));
}

/// `BENCHMARK.json` and the tables in `metrics.rs` / `workload.rs` say
/// the same thing.
#[test]
fn benchmark_json_agrees_with_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json is JSON");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} missing"))
            .iter()
            .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    assert_eq!(
        names("workloads"),
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>()
    );
    for (entry, spec) in doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .zip(&WORKLOADS)
    {
        assert_eq!(entry.get("why").and_then(Json::as_str), Some(spec.why));
        assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
    }
    let listed: Vec<_> = END_TO_END.iter().filter(|m| m.in_driver_list).collect();
    assert_eq!(
        names("end_to_end"),
        listed.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    for (entry, m) in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .zip(&listed)
    {
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(m.better.as_str())
        );
        assert_eq!(entry.get("bound").and_then(Json::as_f64), m.bound);
    }
    assert_eq!(
        names("per_layer"),
        PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
    );
    for (entry, m) in doc
        .get("per_layer")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .zip(&PER_LAYER)
    {
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(m.better.as_str())
        );
    }
}
