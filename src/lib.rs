//! **Casper** — query processing for location services without
//! compromising privacy.
//!
//! A faithful, from-scratch Rust reproduction of
//! *Mokbel, Chow, Aref: "The New Casper: Query Processing for Location
//! Services without Compromising Privacy", VLDB 2006.*
//!
//! This crate is a facade re-exporting the workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`geometry`] | points, rectangles, segments, bisectors |
//! | [`grid`] | complete & adaptive grid pyramids, Algorithm 1 cloaking |
//! | [`index`] | R-tree / uniform-grid / brute-force spatial indexes |
//! | [`qp`] | the privacy-aware query processor (Algorithm 2 & friends) |
//! | [`mobility`] | network-based moving-object generator (workloads) |
//! | [`baselines`] | quadtree cloaking, CliqueCloak, naive strategies |
//! | [`core`] | the assembled framework: trusted tier, server, client, end-to-end |
//! | [`telemetry`] | metrics registry, span tracing, privacy audit log |
//! | `core::durability` | WAL, checkpoints, crash recovery for the trusted tier |
//! | `qp::cache` | candidate-answer cache + shared continuous-query execution |
//!
//! # Quickstart
//!
//! ```
//! use casper::prelude::*;
//!
//! // Assemble the framework around an adaptive pyramid: the trusted
//! // location anonymizer.
//! let mut casper = Casper::new(AdaptivePyramid::new(9));
//!
//! // The server knows some public targets (gas stations).
//! casper.load_targets([
//!     (ObjectId(1), Point::new(0.2, 0.3)),
//!     (ObjectId(2), Point::new(0.7, 0.8)),
//! ]);
//!
//! // A user registers with privacy profile (k = 1, no area floor) —
//! // her exact position stays at the trusted anonymizer.
//! casper.register_user(UserId(1), Profile::new(1, 0.0), Point::new(0.25, 0.33));
//!
//! // "Where is my nearest gas station?" — the server only ever sees a
//! // cloaked region; the client refines the candidate list locally.
//! let answer = casper.query_nn(UserId(1)).unwrap();
//! assert_eq!(answer.exact.unwrap().id, ObjectId(1));
//! ```

pub use casper_baselines as baselines;
pub use casper_core as core;
pub use casper_geometry as geometry;
pub use casper_grid as grid;
pub use casper_index as index;
pub use casper_mobility as mobility;
pub use casper_qp as qp;
pub use casper_telemetry as telemetry;

/// The most common imports, bundled.
pub mod prelude {
    pub use casper_core::{
        AnonymizerService, Casper, CasperClient, CasperServer, Category, ContinuousNn,
        ContinuousSet, EndToEndAnswer, EndToEndBreakdown, Engine, FilterPolicy, PrivateHandle,
        Request, Response, ShardedAnonymizer, TransmissionModel,
    };
    pub use casper_core::{CacheConfig, CacheStats};
    pub use casper_core::{
        DirStorage, DurabilityConfig, DurabilityError, DurableAnonymizer, MemStorage,
        RecoveryReport,
    };
    pub use casper_geometry::{Point, Rect};
    pub use casper_grid::{
        AdaptivePyramid, CellId, CloakedRegion, CompletePyramid, Profile, PyramidStructure, UserId,
    };
    pub use casper_index::{
        BruteForce, DistanceKind, Entry, Neighbor, ObjectId, RTree, SpatialIndex, UniformGrid,
    };
    pub use casper_mobility::{MovingObjectGenerator, NetworkBuilder, RoadNetwork};
    pub use casper_qp::{
        private_knn_private_data, private_knn_public_data, private_nn_private_data,
        private_nn_public_data, private_range_public_data, public_range_over_private,
        CandidateList, DensityGrid, DensityTimeline, FilterCount, PrivateBoundMode, RangeAnswer,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let mut casper = Casper::new(CompletePyramid::new(7));
        casper.load_targets([(ObjectId(1), Point::new(0.5, 0.5))]);
        casper.register_user(UserId(1), Profile::new(1, 0.0), Point::new(0.4, 0.4));
        let answer = casper.query_nn(UserId(1)).unwrap();
        assert_eq!(answer.exact.unwrap().id, ObjectId(1));
    }
}
