//! `casper-loadgen compare <baseline…> -- <candidate…>`: one row per
//! (workload, end-to-end metric) judging the candidate's result files
//! against the baseline's, by the bounds the benchmark fixed.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::{parse, Json};
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::report::SCHEMA;
use crate::stats::quartiles;

/// How a metric moved between the two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound, and by more than the spread.
    Improved,
    /// Within the bound, and the spread is narrow enough to say so.
    Unchanged,
    /// Worse by more than the bound, and by more than the spread.
    Regressed,
    /// The run-to-run spread is wider than the bound and the movement
    /// is inside it: these runs cannot tell.
    Unresolved,
    /// The metric has no bound: it is printed, not judged.
    Reported,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Reported => "reported",
        }
    }
}

/// One side's runs of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// First quartile of the values the runs reported.
    pub q1: f64,
    /// Their median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of runs.
    pub runs: usize,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let (q1, median, q3) = quartiles(values);
        Side {
            q1,
            median,
            q3,
            runs: values.len(),
        }
    }

    /// IQR as a share of the median.
    fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Judges `candidate` against `baseline` for `metric`.
pub fn judge(metric: &EndToEnd, baseline: &Side, candidate: &Side) -> Verdict {
    let Some(bound) = metric.bound else {
        return Verdict::Reported;
    };
    if bound == 0.0 {
        // An absolute metric (failed_ratio): any rise is a regression.
        return match candidate.median.total_cmp(&baseline.median) {
            std::cmp::Ordering::Greater => Verdict::Regressed,
            std::cmp::Ordering::Less => Verdict::Improved,
            std::cmp::Ordering::Equal => Verdict::Unchanged,
        };
    }
    if baseline.median == 0.0 {
        return Verdict::Unresolved;
    }
    let change = candidate.median / baseline.median - 1.0;
    let worse = match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let noise = baseline.spread().max(candidate.spread());
    if noise > bound && worse.abs() <= noise {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if -worse > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// `workload → metric → the value each run reported`, read from result files.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads result files into `runs`, noting in `deps` where each build's
/// external crates came from.
fn load(paths: &[String], deps: &mut BTreeSet<String>) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("{path}: not a {SCHEMA} result file"));
        }
        let built_with = doc.get("host").and_then(|h| h.get("deps"));
        deps.insert(built_with.and_then(Json::as_str).unwrap_or("?").to_string());
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{path}: no workloads"))?;
        for w in workloads {
            let name = w
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: a workload without a name"))?;
            let metrics = w
                .get("end_to_end")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("{path}: {name} has no end_to_end"))?;
            for (metric, summary) in metrics {
                let value = summary
                    .get("median")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{path}: {name}.{metric} has no median"))?;
                runs.entry(name.to_string())
                    .or_default()
                    .entry(metric.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(runs)
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// The metric.
    pub metric: &'static EndToEnd,
    /// Baseline runs.
    pub baseline: Side,
    /// Candidate runs.
    pub candidate: Side,
    /// The judgement.
    pub verdict: Verdict,
}

/// Compares two sets of result files. Rows come workload by workload,
/// metrics in the order of [`END_TO_END`]; a metric missing on either
/// side (not defined on that workload) has no row.
pub fn compare(baseline: &[String], candidate: &[String]) -> Result<Vec<Row>, String> {
    let mut deps = BTreeSet::new();
    let (base, cand) = (load(baseline, &mut deps)?, load(candidate, &mut deps)?);
    if deps.len() > 1 {
        // A build against the stand-ins under `vendor/` has other locks,
        // channels and random streams than one against the registry.
        return Err(format!(
            "the files come from builds with different external crates: {deps:?}"
        ));
    }
    let mut rows = Vec::new();
    for (workload, base_metrics) in &base {
        let Some(cand_metrics) = cand.get(workload) else {
            continue;
        };
        for metric in &END_TO_END {
            let (Some(b), Some(c)) = (base_metrics.get(metric.name), cand_metrics.get(metric.name))
            else {
                continue;
            };
            let (b, c) = (Side::of(b), Side::of(c));
            rows.push(Row {
                workload: workload.clone(),
                metric,
                baseline: b,
                candidate: c,
                verdict: judge(metric, &b, &c),
            });
        }
    }
    if rows.is_empty() {
        return Err(String::from("the two sets share no workload"));
    }
    Ok(rows)
}

/// Prints the rows; returns whether the candidate is acceptable (no
/// metric regressed, `failed_ratio` included).
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<17} {:<21} {:>34} {:>34} {:>22}  verdict",
        "workload",
        "metric",
        "baseline median [q1, q3] xN",
        "candidate median [q1, q3] xN",
        "ratio"
    );
    for r in rows {
        let side = |s: &Side| format!("{:.5} [{:.5}, {:.5}] x{}", s.median, s.q1, s.q3, s.runs);
        let ratio = if r.baseline.median == 0.0 {
            String::from("n/a (base 0)")
        } else {
            format!(
                "{:.4} (base {:.5})",
                r.candidate.median / r.baseline.median,
                r.baseline.median
            )
        };
        let bound = match r.metric.bound {
            Some(b) => format!("bound {:.0}%", b * 100.0),
            None => String::from("no bound"),
        };
        println!(
            "{:<17} {:<21} {:>34} {:>34} {:>22}  {} ({bound}, {} is better)",
            r.workload,
            r.metric.name,
            side(&r.baseline),
            side(&r.candidate),
            ratio,
            r.verdict.as_str(),
            r.metric.better.as_str(),
        );
    }
    rows.iter().all(|r| r.verdict != Verdict::Regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;

    fn side(values: &[f64]) -> Side {
        Side::of(values)
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let p50 = end_to_end("op_p50_ms").unwrap(); // lower is better, 25 %
        let tight = side(&[1.00, 1.01, 0.99, 1.00, 1.00]);
        assert_eq!(judge(p50, &tight, &side(&[1.10; 5])), Verdict::Unchanged);
        assert_eq!(judge(p50, &tight, &side(&[1.30; 5])), Verdict::Regressed);
        assert_eq!(judge(p50, &tight, &side(&[0.70; 5])), Verdict::Improved);
        // Spread of 30 % hides a 28 % move, but not a threefold one.
        let noisy = side(&[0.8, 0.9, 1.0, 1.1, 1.2]);
        assert_eq!(judge(p50, &noisy, &side(&[1.28; 5])), Verdict::Unresolved);
        assert_eq!(judge(p50, &noisy, &side(&[1.04; 5])), Verdict::Unresolved);
        assert_eq!(judge(p50, &noisy, &side(&[3.0; 5])), Verdict::Regressed);

        let capacity = end_to_end("capacity_ops_s").unwrap(); // higher is better, 25 %
        assert_eq!(
            judge(capacity, &side(&[100.0; 3]), &side(&[70.0; 3])),
            Verdict::Regressed
        );
        assert_eq!(
            judge(capacity, &side(&[100.0; 3]), &side(&[130.0; 3])),
            Verdict::Improved
        );
        assert_eq!(
            judge(capacity, &side(&[100.0; 3]), &side(&[80.0; 3])),
            Verdict::Unchanged
        );

        // No bound: printed, never judged.
        let p99 = end_to_end("op_p99_ms").unwrap();
        assert_eq!(judge(p99, &tight, &side(&[9.0; 5])), Verdict::Reported);

        let failed = end_to_end("failed_ratio").unwrap();
        assert_eq!(
            judge(failed, &side(&[0.0; 3]), &side(&[0.0; 3])),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(failed, &side(&[0.0; 3]), &side(&[0.0, 0.001, 0.002])),
            Verdict::Regressed
        );
    }
}
