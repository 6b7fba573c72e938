//! Telemetry probes for the query processor.

use std::sync::{Arc, OnceLock};

use casper_telemetry::{registry, Histogram};

/// Records the size of a candidate list produced for public target data.
pub(crate) fn record_candidates_public(len: usize) {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        registry().histogram_with(
            "casper_qp_candidates",
            "Candidate-list sizes returned by the privacy-aware query processor",
            &[("data", "public")],
        )
    })
    .observe(len as u64);
}

/// Counts candidate-cache outcomes (`hit` / `miss` / `stale` /
/// `eviction`) in the process-wide registry.
pub(crate) fn record_cache_event(outcome: &'static str) {
    use casper_telemetry::Counter;
    static HIT: OnceLock<Arc<Counter>> = OnceLock::new();
    static MISS: OnceLock<Arc<Counter>> = OnceLock::new();
    static STALE: OnceLock<Arc<Counter>> = OnceLock::new();
    static EVICTION: OnceLock<Arc<Counter>> = OnceLock::new();
    let cell = match outcome {
        "hit" => &HIT,
        "miss" => &MISS,
        "stale" => &STALE,
        _ => &EVICTION,
    };
    cell.get_or_init(|| {
        registry().counter_with(
            "casper_qp_cache_events",
            "Candidate-cache lookup and maintenance outcomes",
            &[("outcome", outcome)],
        )
    })
    .inc();
}

/// Records the size of a candidate list produced for private target data.
pub(crate) fn record_candidates_private(len: usize) {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        registry().histogram_with(
            "casper_qp_candidates",
            "Candidate-list sizes returned by the privacy-aware query processor",
            &[("data", "private")],
        )
    })
    .observe(len as u64);
}
