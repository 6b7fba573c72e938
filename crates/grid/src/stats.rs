//! Maintenance-cost accounting.
//!
//! Figures 10b, 11b and 12b of the paper report "the average number of
//! updates required for each location update". This module defines the unit
//! of that metric: every cell-counter increment/decrement, hash-table
//! repointing, and (for the adaptive structure) cell creation/removal during
//! splits and merges counts as one update.

/// Cost counters accumulated by one maintenance operation
/// (registration, location update, profile change, or deregistration).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Cell counter increments/decrements performed.
    pub counter_updates: u64,
    /// Hash-table entries written (user → cell repointings).
    pub hash_updates: u64,
    /// Grid cells materialised (adaptive splits).
    pub cells_created: u64,
    /// Grid cells discarded (adaptive merges).
    pub cells_removed: u64,
    /// Number of split operations performed.
    pub splits: u64,
    /// Number of merge operations performed.
    pub merges: u64,
}

impl MaintenanceStats {
    /// The all-zero cost.
    pub const ZERO: MaintenanceStats = MaintenanceStats {
        counter_updates: 0,
        hash_updates: 0,
        cells_created: 0,
        cells_removed: 0,
        splits: 0,
        merges: 0,
    };

    /// Total number of structure updates — the metric plotted on the y-axis
    /// of Figures 10b/11b/12b.
    pub fn total(&self) -> u64 {
        self.counter_updates + self.hash_updates + self.cells_created + self.cells_removed
    }

    /// Folds these costs into the process-wide telemetry registry
    /// (`casper_grid_*_total` counters). Called by the pyramid structures
    /// after every maintenance operation, so the continuously-running
    /// system exposes the same update-cost signal the figures measure
    /// offline.
    pub fn record(&self) {
        crate::tel::record_maintenance(self);
    }
}

impl std::ops::Add for MaintenanceStats {
    type Output = MaintenanceStats;
    fn add(self, rhs: MaintenanceStats) -> MaintenanceStats {
        MaintenanceStats {
            counter_updates: self.counter_updates + rhs.counter_updates,
            hash_updates: self.hash_updates + rhs.hash_updates,
            cells_created: self.cells_created + rhs.cells_created,
            cells_removed: self.cells_removed + rhs.cells_removed,
            splits: self.splits + rhs.splits,
            merges: self.merges + rhs.merges,
        }
    }
}

impl std::ops::AddAssign for MaintenanceStats {
    fn add_assign(&mut self, rhs: MaintenanceStats) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_sums_structure_touches() {
        let s = MaintenanceStats {
            counter_updates: 4,
            hash_updates: 1,
            cells_created: 4,
            cells_removed: 0,
            splits: 1,
            merges: 0,
        };
        assert_eq!(s.total(), 9);
    }

    #[test]
    fn add_accumulates_fieldwise() {
        let a = MaintenanceStats {
            counter_updates: 1,
            hash_updates: 2,
            ..MaintenanceStats::ZERO
        };
        let b = MaintenanceStats {
            counter_updates: 10,
            merges: 1,
            ..MaintenanceStats::ZERO
        };
        let mut c = a;
        c += b;
        assert_eq!(c.counter_updates, 11);
        assert_eq!(c.hash_updates, 2);
        assert_eq!(c.merges, 1);
        assert_eq!(MaintenanceStats::ZERO.total(), 0);
    }
}
