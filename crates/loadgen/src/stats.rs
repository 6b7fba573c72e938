//! Order statistics: percentiles, Python-compatible quartiles, and the
//! slice-by-slice estimator every latency metric is reported through.

/// A metric as reported: the median of its repetitions (for a metric
/// taken slice by slice, of its slices), the distance between their first
/// and third quartile, and how many there were.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median of the repetitions: the figure reported.
    pub median: f64,
    /// Third quartile minus first quartile (0 with fewer than two values).
    pub iqr: f64,
    /// Number of repetitions (for latency metrics: samples, not slices).
    pub n: u64,
}

impl Summary {
    /// A metric measured once.
    pub fn single(value: f64) -> Self {
        Self {
            median: value,
            iqr: 0.0,
            n: 1,
        }
    }

    /// Median, IQR and count of `values`.
    pub fn of(values: &[f64]) -> Self {
        let (q1, median, q3) = quartiles(values);
        Self {
            median,
            iqr: q3 - q1,
            n: values.len() as u64,
        }
    }
}

/// The `q`-quantile (`0 <= q <= 1`) of an ascending slice, linearly
/// interpolated between closest ranks. 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// and `statistics.median` give them, so spreads computed here match the
/// ones the driver computes. Fewer than two values yield zero spread.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| -> f64 {
        // j = i * (n + 1) // 4, clamped to [1, n - 1]; delta = remainder.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    (cut(1), median, cut(3))
}

/// Number of slices a measured window is cut into.
pub const SLICES: usize = 10;

/// Samples beyond a tail percentile required in every slice.
pub const TAIL_SAMPLES: usize = 10;

/// One percentile of a latency distribution, estimated slice by slice.
#[derive(Debug, Clone, PartialEq)]
pub struct SlicedQuantile {
    /// Each slice's percentile summed up across slices ([`Summary::of`]),
    /// with the number of samples (not slices) behind them.
    pub summary: Summary,
    /// The percentile actually taken: the one asked for, or the highest
    /// one that leaves [`TAIL_SAMPLES`] samples beyond it in the
    /// smallest slice.
    pub q: f64,
    /// Each slice's value, in window order.
    pub by_slice: Vec<f64>,
}

/// A latency distribution estimated slice by slice.
#[derive(Debug, Clone, PartialEq)]
pub struct SlicedLatency {
    /// 50th percentile.
    pub p50: SlicedQuantile,
    /// 95th percentile.
    pub p95: SlicedQuantile,
    /// 99th percentile.
    pub p99: SlicedQuantile,
    /// Mean over all samples.
    pub mean: f64,
}

/// Cuts `(offset_ns, value)` samples into [`SLICES`] equal slices of
/// `window_ns` by offset, takes each percentile of each slice, and
/// reports their median across slices with its IQR. A stall therefore
/// moves one slice and the IQR, not the median, while a persistent shift
/// moves every slice.
/// Samples at or past `window_ns` land in the last slice. `None` when
/// there are no samples.
pub fn sliced_latency(samples: &[(u64, f64)], window_ns: u64) -> Option<SlicedLatency> {
    if samples.is_empty() {
        return None;
    }
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    let slice_ns = (window_ns / SLICES as u64).max(1);
    let mut sum = 0.0;
    for &(offset, value) in samples {
        let idx = ((offset / slice_ns) as usize).min(SLICES - 1);
        slices[idx].push(value);
        sum += value;
    }
    slices.retain(|s| !s.is_empty());
    for s in &mut slices {
        s.sort_by(f64::total_cmp);
    }
    let smallest = slices.iter().map(Vec::len).min().unwrap_or(0);
    let highest = if smallest > TAIL_SAMPLES {
        1.0 - TAIL_SAMPLES as f64 / smallest as f64
    } else {
        0.5
    };
    let n = samples.len() as u64;
    let quantile = |asked: f64| {
        let q = asked.min(highest.max(0.5));
        let by_slice: Vec<f64> = slices.iter().map(|s| percentile(s, q)).collect();
        SlicedQuantile {
            summary: Summary {
                n,
                ..Summary::of(&by_slice)
            },
            q,
            by_slice,
        }
    };
    Some(SlicedLatency {
        p50: quantile(0.5),
        p95: quantile(0.95),
        p99: quantile(0.99),
        mean: sum / n as f64,
    })
}

/// Mean of a slice (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `(mean, p99)` of unsorted values; zeros when empty.
pub fn mean_p99(values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    (mean(values), percentile(values, 0.99))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]),
            (15.0, 30.0, 45.0)
        );
        assert_eq!(Summary::of(&[7.0]).iqr, 0.0);
        let s = Summary::of(&v);
        assert_eq!((s.median, s.iqr, s.n), (5.5, 5.5, 10));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 1.0), 40.0);
        assert_eq!(percentile(&v, 0.5), 25.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn one_stalled_slice_does_not_move_the_slice_median() {
        // 10 slices of 1000 samples at 1.0, except slice 3 stalls at 50.0.
        let window = 10_000u64;
        let mut samples = Vec::new();
        for i in 0..10_000u64 {
            let v = if (3000..4000).contains(&i) { 50.0 } else { 1.0 };
            samples.push((i, v));
        }
        let s = sliced_latency(&samples, window).unwrap();
        assert_eq!(s.p50.summary.median, 1.0);
        assert_eq!(s.p99.summary.median, 1.0);
        assert_eq!(s.p50.summary.n, 10_000);
        assert_eq!((s.p95.q, s.p99.q), (0.95, 0.99));
        assert_eq!(s.p99.by_slice[3], 50.0);
        // The mean does see the stall.
        assert!(s.mean > 5.0);
    }

    #[test]
    fn tail_percentile_backs_off_when_slices_are_small() {
        // 50 samples per slice: p99 would leave 0.5 samples beyond it.
        let samples: Vec<(u64, f64)> = (0..500u64).map(|i| (i, i as f64)).collect();
        let s = sliced_latency(&samples, 500).unwrap();
        assert_eq!((s.p50.q, s.p95.q, s.p99.q), (0.5, 0.8, 0.8));
        assert!(sliced_latency(&[], 500).is_none());
    }
}
