//! Workload builders for the figure harness and the bench binaries,
//! mirroring the paper's setup (Section 6): users moved by the
//! network-based generator over a (synthetic) county road network,
//! uniformly distributed target objects, and per-user random privacy
//! profiles.

use casper_geometry::{Point, Rect};
use casper_grid::{AdaptivePyramid, CompletePyramid, Profile, PyramidStructure, UserId};
use casper_index::{Entry, ObjectId, RTree};
use casper_mobility::{uniform_targets, MovingObjectGenerator, NetworkBuilder};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Area of one cell at the lowest level of the paper's default 9-level
/// pyramid; "cells" in the figure axes (query/data region sizes of 4–1024
/// cells) are multiples of this.
pub const LOWEST_CELL_AREA: f64 = 1.0 / (1u64 << 16) as f64; // (1/4)^8

/// The paper's default profile distribution: `k ~ U[1, 50]`,
/// `A_min ~ U[0.005%, 0.01%]` of the space.
pub fn default_profile<R: Rng>(rng: &mut R) -> Profile {
    Profile::new(rng.gen_range(1..=50), rng.gen_range(5e-5..=1e-4))
}

/// A profile with `k` uniform in the given group (e.g. the experiment's
/// "[1-10]" … "[150-200]" buckets) and no area requirement.
pub fn k_group_profile<R: Rng>(rng: &mut R, group: (u32, u32)) -> Profile {
    Profile::new(rng.gen_range(group.0..=group.1), 0.0)
}

/// A mobility-driven user population: positions come from the
/// network-based generator, matching the paper's Hennepin-county setup.
pub struct Population {
    /// The generator (advance with [`Population::tick_into`]).
    pub generator: MovingObjectGenerator,
    /// Per-user privacy profiles, indexed by user id.
    pub profiles: Vec<Profile>,
    rng: StdRng,
}

impl Population {
    /// Builds `users` moving objects with profiles drawn by
    /// `make_profile`.
    pub fn new(
        users: usize,
        seed: u64,
        mut make_profile: impl FnMut(&mut StdRng) -> Profile,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let network = NetworkBuilder::new().build(&mut rng);
        let generator = MovingObjectGenerator::new(network, users, &mut rng);
        let profiles = (0..users).map(|_| make_profile(&mut rng)).collect();
        Self {
            generator,
            profiles,
            rng,
        }
    }

    /// Number of users.
    pub fn len(&self) -> usize {
        self.generator.len()
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.generator.is_empty()
    }

    /// Registers the whole population into a pyramid.
    pub fn register_into<P: PyramidStructure>(&self, pyramid: &mut P) {
        for i in 0..self.len() {
            pyramid.register(
                UserId(i as u64),
                self.profiles[i],
                self.generator.object(i).position(),
            );
        }
    }

    /// Advances the generator one tick and applies the updates to a
    /// pyramid, returning `(updates applied, total maintenance cost)`.
    pub fn tick_into<P: PyramidStructure>(
        &mut self,
        pyramid: &mut P,
        dt: f64,
    ) -> (u64, casper_grid::MaintenanceStats) {
        let updates = self.generator.tick(dt, &mut self.rng);
        let mut total = casper_grid::MaintenanceStats::ZERO;
        let n = updates.len() as u64;
        for (i, pos) in updates {
            total += pyramid.update_location(UserId(i as u64), pos);
        }
        (n, total)
    }
}

/// Builds both pyramid variants pre-loaded with the same population.
pub fn loaded_pyramids(
    height: u8,
    users: usize,
    seed: u64,
) -> (CompletePyramid, AdaptivePyramid, Population) {
    let population = Population::new(users, seed, default_profile);
    let mut basic = CompletePyramid::new(height);
    let mut adaptive = AdaptivePyramid::new(height);
    population.register_into(&mut basic);
    population.register_into(&mut adaptive);
    (basic, adaptive, population)
}

/// Uniformly distributed public targets, bulk-loaded into an R-tree.
pub fn public_target_index(count: usize, seed: u64) -> RTree {
    let mut rng = StdRng::seed_from_u64(seed);
    RTree::bulk_load(
        uniform_targets(count, &mut rng)
            .into_iter()
            .enumerate()
            .map(|(i, p)| Entry::point(ObjectId(i as u64), p)),
    )
}

/// Private targets: cloaked rectangles of `cell_range` lowest-level cells
/// (the paper's "[1-64] cells"), uniformly placed.
pub fn private_target_index(count: usize, cell_range: (u32, u32), seed: u64) -> RTree {
    let mut rng = StdRng::seed_from_u64(seed);
    RTree::bulk_load((0..count).map(|i| {
        let cells = rng.gen_range(cell_range.0..=cell_range.1);
        let area = cells as f64 * LOWEST_CELL_AREA;
        let side = area.sqrt();
        let c = Point::new(rng.gen(), rng.gen());
        Entry::new(
            ObjectId(i as u64),
            Rect::centered_at(c, side, side).clamp_to(&Rect::unit()),
        )
    }))
}

/// A square cloaked query region of roughly `cells` lowest-level cells,
/// centred at `center`, clamped into the unit space.
pub fn query_region_of_cells(cells: u32, center: Point) -> Rect {
    let side = (cells as f64 * LOWEST_CELL_AREA).sqrt();
    Rect::centered_at(center, side, side).clamp_to(&Rect::unit())
}

/// `count` cloaked query regions of `cells` cells at random centres.
pub fn query_regions(count: usize, cells: u32, seed: u64) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| query_region_of_cells(cells, Point::new(rng.gen(), rng.gen())))
        .collect()
}

/// Cloaked query regions drawn from the actual anonymizer for users of a
/// given k-group (what Figures 13/14 use: "user privacy profile of k in
/// [1-50]").
pub fn cloaked_query_regions<P: PyramidStructure>(
    pyramid: &P,
    population: &Population,
    count: usize,
) -> Vec<Rect> {
    (0..count.min(population.len()))
        .filter_map(|i| pyramid.cloak_user(UserId(i as u64)).map(|r| r.rect))
        .collect()
}

/// Mean of a slice (0 for empty input).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use casper_index::SpatialIndex;

    #[test]
    fn population_registers_consistently() {
        let (basic, adaptive, pop) = loaded_pyramids(7, 200, 1);
        assert_eq!(basic.user_count(), 200);
        assert_eq!(adaptive.user_count(), 200);
        assert_eq!(pop.len(), 200);
        basic.check_invariants().unwrap();
        adaptive.check_invariants().unwrap();
    }

    #[test]
    fn ticks_apply_updates_to_pyramids() {
        let (mut basic, _, mut pop) = loaded_pyramids(7, 100, 2);
        let (n, stats) = pop.tick_into(&mut basic, 1.0);
        assert_eq!(n, 100);
        // Objects move, so some counters must change.
        assert!(stats.total() > 0);
        basic.check_invariants().unwrap();
    }

    #[test]
    fn target_indexes_have_requested_sizes() {
        assert_eq!(public_target_index(500, 3).len(), 500);
        let private = private_target_index(300, (1, 64), 4);
        assert_eq!(private.len(), 300);
    }

    #[test]
    fn query_region_area_matches_cells() {
        let r = query_region_of_cells(16, Point::new(0.5, 0.5));
        assert!((r.area() - 16.0 * LOWEST_CELL_AREA).abs() < 1e-12);
    }

    #[test]
    fn default_profiles_match_paper_ranges() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let p = default_profile(&mut rng);
            assert!((1..=50).contains(&p.k));
            assert!((5e-5..=1e-4).contains(&p.a_min));
        }
    }
}
