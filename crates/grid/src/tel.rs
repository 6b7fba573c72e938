//! Telemetry probes for the grid layer.
//!
//! Handles into the process-wide registry are cached in `OnceLock`s per
//! call site, so after the first observation each probe is a couple of
//! relaxed atomic adds — cheap enough for the cloaking and maintenance
//! hot paths.

use std::sync::{Arc, OnceLock};

use casper_telemetry::{registry, Counter, Histogram};

use crate::{CloakedRegion, MaintenanceStats};

/// Records the outcome of one Algorithm 1 run: the achieved anonymity
/// level `k'`, the region area (in parts-per-million of the unit space,
/// so sub-cell areas stay integral), and the number of levels climbed.
pub(crate) fn record_cloak(region: &CloakedRegion) {
    static K: OnceLock<Arc<Histogram>> = OnceLock::new();
    static AREA: OnceLock<Arc<Histogram>> = OnceLock::new();
    static CLIMB: OnceLock<Arc<Histogram>> = OnceLock::new();
    K.get_or_init(|| {
        registry().histogram(
            "casper_cloak_achieved_k",
            "Users inside each produced cloaked region (the paper's k')",
        )
    })
    .observe(u64::from(region.user_count));
    AREA.get_or_init(|| {
        registry().histogram(
            "casper_cloak_region_area_ppm",
            "Cloaked-region area in parts-per-million of the unit space (the paper's A')",
        )
    })
    .observe((region.area() * 1e6) as u64);
    CLIMB
        .get_or_init(|| {
            registry().histogram(
                "casper_cloak_levels_climbed",
                "Pyramid levels Algorithm 1 climbed from its start cell",
            )
        })
        .observe(u64::from(region.levels_climbed));
}

macro_rules! maintenance_counter {
    ($cell:ident, $name:literal, $help:literal, $value:expr) => {{
        static $cell: OnceLock<Arc<Counter>> = OnceLock::new();
        let v = $value;
        if v > 0 {
            $cell
                .get_or_init(|| registry().counter($name, $help))
                .add(v);
        }
    }};
}

/// Folds one maintenance operation's cost into the registry counters.
pub(crate) fn record_maintenance(stats: &MaintenanceStats) {
    maintenance_counter!(
        COUNTER_UPDATES,
        "casper_grid_counter_updates_total",
        "Cell counter increments/decrements performed by pyramid maintenance",
        stats.counter_updates
    );
    maintenance_counter!(
        HASH_UPDATES,
        "casper_grid_hash_updates_total",
        "Hash-table repointings performed by pyramid maintenance",
        stats.hash_updates
    );
    maintenance_counter!(
        CELLS_CREATED,
        "casper_grid_cells_created_total",
        "Grid cells materialised by adaptive splits",
        stats.cells_created
    );
    maintenance_counter!(
        CELLS_REMOVED,
        "casper_grid_cells_removed_total",
        "Grid cells discarded by adaptive merges",
        stats.cells_removed
    );
    maintenance_counter!(
        SPLITS,
        "casper_grid_splits_total",
        "Adaptive-pyramid split operations",
        stats.splits
    );
    maintenance_counter!(
        MERGES,
        "casper_grid_merges_total",
        "Adaptive-pyramid merge operations",
        stats.merges
    );
}
