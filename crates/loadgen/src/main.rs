//! Command line of the benchmark: `run`, `compare`, `metrics`.

use std::path::PathBuf;
use std::process::ExitCode;

use casper_loadgen::metrics::{END_TO_END, PER_LAYER};
use casper_loadgen::report::{self, DriverMetrics, Host};
use casper_loadgen::run::{run_workload, RunConfig};
use casper_loadgen::workload::{
    workload, Scale, Windows, WorkloadSpec, DRIVERS, SMOKE_RATE_OPS_S, WORKLOADS,
};
use casper_loadgen::{compare, procfs};

const USAGE: &str = "\
casper-loadgen — the reference end-to-end benchmark of the Casper stack

  casper-loadgen run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                     [--smoke] [--out FILE] [--trace-out FILE]
      Runs one workload, or all four when none is named. S is the measured
      time per workload (default 20). --trace 0 spends it on the open-loop
      latency window and the closed-loop capacity window (five rounds of a
      piece of each) and reports the end-to-end metrics; --trace 1 spends
      it on an untraced reference window and the traced window and reports
      the per-layer metrics; without --trace all three windows run. With one workload and an
      explicit --trace, the last line of standard output is the JSON object
      the benchmark driver reads. Exits non-zero if any operation, oracle
      check or teardown check failed.

  casper-loadgen compare BASELINE.json... -- CANDIDATE.json...
      Judges the candidate's result files against the baseline's, one row
      per (workload, end-to-end metric). Exits non-zero on a regression.

  casper-loadgen metrics [--benchmark-json]
      Prints every metric with its unit, bound and predicted interactions;
      with --benchmark-json, the BENCHMARK.json those tables correspond to.
";

/// Which windows a run spends its measured seconds on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `--trace 0`
    EndToEnd,
    /// `--trace 1`
    PerLayer,
    /// No `--trace`: every window.
    Full,
}

struct RunArgs {
    workloads: Vec<&'static WorkloadSpec>,
    seed: u64,
    seconds: f64,
    mode: Mode,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: f64::from(report::DRIVER_RUN_SECONDS),
        mode: Mode::Full,
        smoke: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workloads =
                    vec![workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?];
            }
            "--seed" => {
                parsed.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.5..=600.0).contains(s))
                    .ok_or("--seconds takes a number between 0.5 and 600")?;
            }
            "--trace" => {
                parsed.mode = match value()? {
                    "0" => Mode::EndToEnd,
                    "1" => Mode::PerLayer,
                    _ => return Err(String::from("--trace takes 0 or 1")),
                };
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// Splits the measured seconds between the windows. The driver's two
/// modes each drop the window whose metrics they do not report.
fn windows(mode: Mode, seconds: f64, smoke: bool) -> Windows {
    let (latency, traced, capacity) = match mode {
        Mode::EndToEnd => (0.5, 0.0, 0.5),
        Mode::PerLayer => (0.3, 0.7, 0.0),
        Mode::Full => (0.5, 0.2, 0.3),
    };
    Windows {
        warmup_s: if smoke { 0.3 } else { 1.0 },
        latency_s: seconds * latency,
        traced_s: seconds * traced,
        capacity_s: seconds * capacity,
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    if procfs::nproc() < DRIVERS {
        return Err(format!(
            "{} processor(s) available: the {DRIVERS} drivers would time each other, not the program",
            procfs::nproc()
        ));
    }
    let host = Host::probe().map_err(|e| format!("cannot create a scratch directory: {e}"))?;
    let cfg = RunConfig {
        scale: if args.smoke {
            Scale::SMOKE
        } else {
            Scale::FULL
        },
        seed: args.seed,
        windows: windows(args.mode, args.seconds, args.smoke),
        // setup_s is the median of several full set-ups; only the
        // end-to-end mode reports it to the driver.
        setups: if args.mode == Mode::EndToEnd { 3 } else { 1 },
        idle_hold_s: if args.smoke { 0.2 } else { 1.0 },
        rate_override: args.smoke.then_some(SMOKE_RATE_OPS_S),
        trace_out: args.trace_out.clone(),
    };
    eprintln!(
        "casper-loadgen: {} processors, scratch on {}, fsync probe {:.3} ms, {}, commit {}, external crates: {}",
        host.nproc, host.scratch_fs, host.fsync_probe_ms, host.rustc, host.commit, host.deps
    );
    eprintln!("casper-loadgen: traffic crosses this host's loopback interface, not a link; fsync latency is this host's (a sandbox's shared disk, not a device's): see fsync probe");
    let mut results = Vec::with_capacity(args.workloads.len());
    for spec in &args.workloads {
        let result = run_workload(spec, &cfg);
        report::print_workload(&result);
        results.push(result);
    }
    if let Some(path) = &args.out {
        let doc = report::result_file(&host, &cfg, &results);
        std::fs::write(path, doc.render_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let ([only], Mode::EndToEnd | Mode::PerLayer) = (results.as_slice(), args.mode) {
        let which = if args.mode == Mode::EndToEnd {
            DriverMetrics::EndToEnd
        } else {
            DriverMetrics::PerLayer
        };
        println!("{}", report::driver_line(only, which));
    }
    Ok(results.iter().all(|r| r.correct()))
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("compare needs `--` between the baseline files and the candidate files")?;
    let (baseline, candidate) = (&args[..split], &args[split + 1..]);
    if baseline.is_empty() || candidate.is_empty() {
        return Err(String::from("compare needs at least one file on each side"));
    }
    Ok(compare::print(&compare::compare(baseline, candidate)?))
}

fn print_metrics() {
    println!("end-to-end metrics (bound = how far the median may worsen):");
    for m in &END_TO_END {
        let bound = match m.bound {
            Some(b) if b > 0.0 => format!("bound {:>2.0}%", b * 100.0),
            Some(_) => String::from("any rise"),
            None => String::from("reported"),
        };
        println!(
            "  {:<22} {:<8} {} is better, {bound}{}  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            if m.in_driver_list { " " } else { "*" },
            m.meaning
        );
    }
    println!("  (* not in BENCHMARK.json: not defined on every workload, 0 on a healthy run, or too unsteady on this host for a bound of 25%)");
    println!("per-layer metrics (moves = the end-to-end metric it was predicted to move):");
    for m in &PER_LAYER {
        println!("  {:<38} {:<8} moves: {}", m.name, m.unit, m.moves);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare_files(&args[1..]),
        Some("metrics") if args.get(1).map(String::as_str) == Some("--benchmark-json") => {
            print!("{}", report::benchmark_json().render_pretty());
            Ok(true)
        }
        Some("metrics") => {
            print_metrics();
            Ok(true)
        }
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            Ok(true)
        }
        _ => Err(String::from("expected `run`, `compare` or `metrics`")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("casper-loadgen: {message}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
