//! A dynamic R-tree with quadratic node splitting (Guttman's classic
//! algorithm), condense-and-reinsert deletion, an STR bulk loader, and
//! best-first nearest-neighbour search.
//!
//! This is the "traditional location-based database server" index the
//! privacy-aware query processor of Section 5 plugs into for its filter
//! (nearest-neighbour) and candidate-list (range) steps.

use std::collections::HashMap;

use casper_geometry::{Point, Rect};

use crate::heap::{DistHeap, MinDist};
use crate::{DistanceKind, Entry, Neighbor, ObjectId, SpatialIndex};

/// Maximum entries per node before a split.
const MAX_ENTRIES: usize = 16;
/// Minimum entries per node (except the root) after deletions.
const MIN_ENTRIES: usize = 6;

#[derive(Debug, Clone)]
enum NodeKind {
    Leaf(Vec<Entry>),
    Internal(Vec<usize>),
}

#[derive(Debug, Clone)]
struct Node {
    mbr: Rect,
    kind: NodeKind,
}

impl Node {
    fn empty_leaf() -> Self {
        Node {
            // An "empty" MBR: normalised to a point at the origin; it is
            // replaced by the first real union.
            mbr: Rect::point(Point::ORIGIN),
            kind: NodeKind::Leaf(Vec::new()),
        }
    }

    fn size(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf(e) => e.len(),
            NodeKind::Internal(c) => c.len(),
        }
    }
}

/// A dynamic R-tree over `(ObjectId, Rect)` entries.
///
/// Object ids must be unique within one tree: [`SpatialIndex::remove`]
/// locates entries through an id → rectangle side map, which a duplicate id
/// would corrupt. (The Casper server layer assigns ids and guarantees
/// uniqueness.)
///
/// ```
/// use casper_geometry::Point;
/// use casper_index::{DistanceKind, Entry, ObjectId, RTree, SpatialIndex};
///
/// let tree = RTree::bulk_load((0..100).map(|i| {
///     Entry::point(ObjectId(i), Point::new(i as f64 / 100.0, 0.5))
/// }));
/// let nn = tree.nearest(Point::new(0.42, 0.5), DistanceKind::Min).unwrap();
/// assert_eq!(nn.entry.id, ObjectId(42));
/// ```
#[derive(Debug, Clone)]
pub struct RTree {
    nodes: Vec<Node>,
    free: Vec<usize>,
    root: usize,
    len: usize,
    /// Side map for deletions: where is each object?
    id_map: HashMap<ObjectId, Rect>,
}

impl Default for RTree {
    fn default() -> Self {
        Self::new()
    }
}

impl RTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RTree {
            nodes: vec![Node::empty_leaf()],
            free: Vec::new(),
            root: 0,
            len: 0,
            id_map: HashMap::new(),
        }
    }

    /// Bulk-loads a tree using Sort-Tile-Recursive packing: sort by `x`,
    /// slice into vertical slabs, sort each slab by `y`, pack runs of
    /// `MAX_ENTRIES` into leaves, and repeat one level up until a single
    /// root remains. Produces a well-filled tree much faster than repeated
    /// insertion.
    pub fn bulk_load(entries: impl IntoIterator<Item = Entry>) -> Self {
        let mut entries: Vec<Entry> = entries.into_iter().collect();
        if entries.is_empty() {
            return Self::new();
        }
        let mut tree = RTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: 0,
            len: entries.len(),
            id_map: entries.iter().map(|e| (e.id, e.mbr)).collect(),
        };
        // Tile the entries.
        entries.sort_by(|a, b| a.mbr.center().x.total_cmp(&b.mbr.center().x));
        let n = entries.len();
        let leaf_count = n.div_ceil(MAX_ENTRIES);
        let slab_count = (leaf_count as f64).sqrt().ceil() as usize;
        let slab_size = n.div_ceil(slab_count);
        let mut level: Vec<usize> = Vec::with_capacity(leaf_count);
        for slab in entries.chunks_mut(slab_size.max(1)) {
            slab.sort_by(|a, b| a.mbr.center().y.total_cmp(&b.mbr.center().y));
            for run in slab.chunks(MAX_ENTRIES) {
                let mbr = run
                    .iter()
                    .skip(1)
                    .fold(run[0].mbr, |acc, e| acc.union(&e.mbr));
                level.push(tree.alloc(Node {
                    mbr,
                    kind: NodeKind::Leaf(run.to_vec()),
                }));
            }
        }
        // Pack upward until one node remains.
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(MAX_ENTRIES));
            for run in level.chunks(MAX_ENTRIES) {
                let mbr = run.iter().skip(1).fold(tree.nodes[run[0]].mbr, |acc, &c| {
                    acc.union(&tree.nodes[c].mbr)
                });
                next.push(tree.alloc(Node {
                    mbr,
                    kind: NodeKind::Internal(run.to_vec()),
                }));
            }
            level = next;
        }
        tree.root = level[0];
        tree
    }

    fn alloc(&mut self, node: Node) -> usize {
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    fn release(&mut self, idx: usize) {
        self.free.push(idx);
    }

    fn recompute_mbr(&mut self, idx: usize) {
        let mbr = match &self.nodes[idx].kind {
            NodeKind::Leaf(entries) => entries.iter().map(|e| e.mbr).reduce(|a, b| a.union(&b)),
            NodeKind::Internal(children) => children
                .iter()
                .map(|&c| self.nodes[c].mbr)
                .reduce(|a, b| a.union(&b)),
        };
        self.nodes[idx].mbr = mbr.unwrap_or_else(|| Rect::point(Point::ORIGIN));
    }

    /// Inserts without touching `len` / `id_map` (shared by public insert
    /// and orphan reinsertion).
    fn insert_entry(&mut self, entry: Entry) {
        if let Some(sibling) = self.insert_rec(self.root, entry) {
            // Root split: grow the tree by one level.
            let old_root = self.root;
            let mbr = self.nodes[old_root].mbr.union(&self.nodes[sibling].mbr);
            self.root = self.alloc(Node {
                mbr,
                kind: NodeKind::Internal(vec![old_root, sibling]),
            });
        }
    }

    fn insert_rec(&mut self, idx: usize, entry: Entry) -> Option<usize> {
        let is_empty = self.nodes[idx].size() == 0;
        if is_empty {
            self.nodes[idx].mbr = entry.mbr;
        } else {
            self.nodes[idx].mbr = self.nodes[idx].mbr.union(&entry.mbr);
        }
        match &mut self.nodes[idx].kind {
            NodeKind::Leaf(entries) => {
                entries.push(entry);
                if entries.len() > MAX_ENTRIES {
                    return Some(self.split_leaf(idx));
                }
                None
            }
            NodeKind::Internal(children) => {
                // Choose the child needing the least MBR enlargement
                // (ties: smallest area).
                let children_snapshot = children.clone();
                let mut best = children_snapshot[0];
                let mut best_enlarge = f64::INFINITY;
                let mut best_area = f64::INFINITY;
                for &c in &children_snapshot {
                    let m = self.nodes[c].mbr;
                    let enlarged = m.union(&entry.mbr).area() - m.area();
                    if enlarged < best_enlarge || (enlarged == best_enlarge && m.area() < best_area)
                    {
                        best = c;
                        best_enlarge = enlarged;
                        best_area = m.area();
                    }
                }
                if let Some(sibling) = self.insert_rec(best, entry) {
                    match &mut self.nodes[idx].kind {
                        NodeKind::Internal(children) => children.push(sibling),
                        NodeKind::Leaf(_) => unreachable!("node kind cannot change"),
                    }
                    if self.nodes[idx].size() > MAX_ENTRIES {
                        return Some(self.split_internal(idx));
                    }
                }
                None
            }
        }
    }

    /// Guttman's quadratic split over a set of rectangles. Returns the two
    /// groups as index lists into `rects`.
    fn quadratic_partition(rects: &[Rect]) -> (Vec<usize>, Vec<usize>) {
        debug_assert!(rects.len() >= 2);
        // Pick seeds: the pair wasting the most area when joined.
        let (mut s1, mut s2, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                let waste = rects[i].union(&rects[j]).area() - rects[i].area() - rects[j].area();
                if waste > worst {
                    worst = waste;
                    s1 = i;
                    s2 = j;
                }
            }
        }
        let mut g1 = vec![s1];
        let mut g2 = vec![s2];
        let mut mbr1 = rects[s1];
        let mut mbr2 = rects[s2];
        let mut rest: Vec<usize> = (0..rects.len()).filter(|&i| i != s1 && i != s2).collect();
        while !rest.is_empty() {
            let remaining = rest.len();
            // Force-assign when one group must take everything left to
            // reach minimum fill.
            if g1.len() + remaining <= MIN_ENTRIES {
                for i in rest.drain(..) {
                    mbr1 = mbr1.union(&rects[i]);
                    g1.push(i);
                }
                break;
            }
            if g2.len() + remaining <= MIN_ENTRIES {
                for i in rest.drain(..) {
                    mbr2 = mbr2.union(&rects[i]);
                    g2.push(i);
                }
                break;
            }
            // Pick the rectangle with the strongest preference.
            let (mut pick, mut pick_pos, mut pick_pref) = (rest[0], 0usize, f64::NEG_INFINITY);
            for (pos, &i) in rest.iter().enumerate() {
                let d1 = mbr1.union(&rects[i]).area() - mbr1.area();
                let d2 = mbr2.union(&rects[i]).area() - mbr2.area();
                let pref = (d1 - d2).abs();
                if pref > pick_pref {
                    pick_pref = pref;
                    pick = i;
                    pick_pos = pos;
                }
            }
            rest.swap_remove(pick_pos);
            let d1 = mbr1.union(&rects[pick]).area() - mbr1.area();
            let d2 = mbr2.union(&rects[pick]).area() - mbr2.area();
            if d1 < d2 || (d1 == d2 && g1.len() <= g2.len()) {
                mbr1 = mbr1.union(&rects[pick]);
                g1.push(pick);
            } else {
                mbr2 = mbr2.union(&rects[pick]);
                g2.push(pick);
            }
        }
        (g1, g2)
    }

    fn split_leaf(&mut self, idx: usize) -> usize {
        let entries = match &mut self.nodes[idx].kind {
            NodeKind::Leaf(e) => std::mem::take(e),
            NodeKind::Internal(_) => unreachable!("split_leaf on internal node"),
        };
        let rects: Vec<Rect> = entries.iter().map(|e| e.mbr).collect();
        let (g1, g2) = Self::quadratic_partition(&rects);
        let take = |group: &[usize]| -> Vec<Entry> { group.iter().map(|&i| entries[i]).collect() };
        let (e1, e2) = (take(&g1), take(&g2));
        self.nodes[idx].kind = NodeKind::Leaf(e1);
        self.recompute_mbr(idx);
        let sibling = self.alloc(Node {
            mbr: Rect::point(Point::ORIGIN),
            kind: NodeKind::Leaf(e2),
        });
        self.recompute_mbr(sibling);
        sibling
    }

    fn split_internal(&mut self, idx: usize) -> usize {
        let children = match &mut self.nodes[idx].kind {
            NodeKind::Internal(c) => std::mem::take(c),
            NodeKind::Leaf(_) => unreachable!("split_internal on leaf node"),
        };
        let rects: Vec<Rect> = children.iter().map(|&c| self.nodes[c].mbr).collect();
        let (g1, g2) = Self::quadratic_partition(&rects);
        let take = |group: &[usize]| -> Vec<usize> { group.iter().map(|&i| children[i]).collect() };
        let (c1, c2) = (take(&g1), take(&g2));
        self.nodes[idx].kind = NodeKind::Internal(c1);
        self.recompute_mbr(idx);
        let sibling = self.alloc(Node {
            mbr: Rect::point(Point::ORIGIN),
            kind: NodeKind::Internal(c2),
        });
        self.recompute_mbr(sibling);
        sibling
    }

    fn remove_rec(
        &mut self,
        idx: usize,
        id: ObjectId,
        rect: &Rect,
        orphans: &mut Vec<Entry>,
    ) -> bool {
        match &self.nodes[idx].kind {
            NodeKind::Leaf(entries) => {
                if let Some(pos) = entries.iter().position(|e| e.id == id) {
                    match &mut self.nodes[idx].kind {
                        NodeKind::Leaf(entries) => {
                            entries.swap_remove(pos);
                        }
                        NodeKind::Internal(_) => unreachable!(),
                    }
                    self.recompute_mbr(idx);
                    true
                } else {
                    false
                }
            }
            NodeKind::Internal(children) => {
                let candidates: Vec<usize> = children
                    .iter()
                    .copied()
                    .filter(|&c| self.nodes[c].mbr.contains_rect(rect))
                    .collect();
                for c in candidates {
                    if self.remove_rec(c, id, rect, orphans) {
                        if self.nodes[c].size() < MIN_ENTRIES {
                            // Condense: drop the child and re-insert its
                            // remaining entries later.
                            match &mut self.nodes[idx].kind {
                                NodeKind::Internal(children) => {
                                    children.retain(|&x| x != c);
                                }
                                NodeKind::Leaf(_) => unreachable!(),
                            }
                            self.collect_subtree(c, orphans);
                        }
                        self.recompute_mbr(idx);
                        return true;
                    }
                }
                false
            }
        }
    }

    fn collect_subtree(&mut self, idx: usize, out: &mut Vec<Entry>) {
        match std::mem::replace(&mut self.nodes[idx].kind, NodeKind::Leaf(Vec::new())) {
            NodeKind::Leaf(entries) => out.extend(entries),
            NodeKind::Internal(children) => {
                for c in children {
                    self.collect_subtree(c, out);
                }
            }
        }
        self.release(idx);
    }

    fn range_rec(&self, idx: usize, query: &Rect, out: &mut Vec<Entry>) {
        match &self.nodes[idx].kind {
            NodeKind::Leaf(entries) => {
                out.extend(entries.iter().filter(|e| e.mbr.intersects(query)));
            }
            NodeKind::Internal(children) => {
                for &c in children {
                    if self.nodes[c].mbr.intersects(query) {
                        self.range_rec(c, query, out);
                    }
                }
            }
        }
    }

    /// Height of the tree (1 for a lone leaf root); exposed for tests and
    /// diagnostics.
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut idx = self.root;
        loop {
            match &self.nodes[idx].kind {
                NodeKind::Leaf(_) => return h,
                NodeKind::Internal(children) => {
                    idx = children[0];
                    h += 1;
                }
            }
        }
    }

    /// Validates structural invariants (MBR containment, fill factors,
    /// uniform leaf depth, entry count). Intended for tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut total = 0usize;
        let mut leaf_depths = Vec::new();
        self.check_rec(self.root, 0, true, &mut total, &mut leaf_depths)?;
        if total != self.len {
            return Err(format!("entry count {total} != len {}", self.len));
        }
        if let (Some(min), Some(max)) = (leaf_depths.iter().min(), leaf_depths.iter().max()) {
            if min != max {
                return Err(format!("leaves at unequal depths {min}..{max}"));
            }
        }
        if self.id_map.len() != self.len {
            return Err(format!(
                "id map size {} != len {}",
                self.id_map.len(),
                self.len
            ));
        }
        Ok(())
    }

    fn check_rec(
        &self,
        idx: usize,
        depth: usize,
        is_root: bool,
        total: &mut usize,
        leaf_depths: &mut Vec<usize>,
    ) -> Result<(), String> {
        let node = &self.nodes[idx];
        match &node.kind {
            NodeKind::Leaf(entries) => {
                leaf_depths.push(depth);
                *total += entries.len();
                if !is_root && entries.len() < MIN_ENTRIES {
                    return Err(format!("underfull leaf {idx}: {}", entries.len()));
                }
                if entries.len() > MAX_ENTRIES {
                    return Err(format!("overfull leaf {idx}: {}", entries.len()));
                }
                for e in entries {
                    if !node.mbr.contains_rect(&e.mbr) {
                        return Err(format!("leaf {idx} mbr does not cover entry {}", e.id));
                    }
                }
            }
            NodeKind::Internal(children) => {
                if !is_root && children.len() < MIN_ENTRIES {
                    return Err(format!("underfull internal {idx}: {}", children.len()));
                }
                if children.len() > MAX_ENTRIES {
                    return Err(format!("overfull internal {idx}: {}", children.len()));
                }
                if children.is_empty() {
                    return Err(format!("internal {idx} has no children"));
                }
                for &c in children {
                    if !node.mbr.contains_rect(&self.nodes[c].mbr) {
                        return Err(format!("internal {idx} mbr does not cover child {c}"));
                    }
                    self.check_rec(c, depth + 1, false, total, leaf_depths)?;
                }
            }
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
enum HeapItem {
    Node(usize),
    Entry(Entry),
}

impl SpatialIndex for RTree {
    fn insert(&mut self, entry: Entry) {
        debug_assert!(
            !self.id_map.contains_key(&entry.id),
            "duplicate id inserted into RTree"
        );
        self.id_map.insert(entry.id, entry.mbr);
        self.insert_entry(entry);
        self.len += 1;
    }

    fn remove(&mut self, id: ObjectId) -> Option<Rect> {
        let rect = self.id_map.remove(&id)?;
        let mut orphans = Vec::new();
        let found = self.remove_rec(self.root, id, &rect, &mut orphans);
        debug_assert!(found, "id map said the entry exists");
        self.len -= 1;
        // Shrink the root while it is an internal node with one child.
        loop {
            let next = match &self.nodes[self.root].kind {
                NodeKind::Internal(children) if children.len() == 1 => children[0],
                NodeKind::Internal(children) if children.is_empty() => {
                    self.nodes[self.root] = Node::empty_leaf();
                    break;
                }
                _ => break,
            };
            self.release(self.root);
            self.root = next;
        }
        for e in orphans {
            self.insert_entry(e);
        }
        Some(rect)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn range(&self, query: &Rect) -> Vec<Entry> {
        let mut out = Vec::new();
        if self.len > 0 {
            self.range_rec(self.root, query, &mut out);
        }
        out
    }

    fn k_nearest(&self, p: Point, k: usize, kind: DistanceKind) -> Vec<Neighbor> {
        let mut out = Vec::with_capacity(k.min(self.len));
        if self.len == 0 || k == 0 {
            return out;
        }
        let mut heap: DistHeap<HeapItem> = DistHeap::new();
        heap.push(MinDist {
            dist: self.nodes[self.root].mbr.min_dist(p),
            item: HeapItem::Node(self.root),
        });
        while let Some(MinDist { dist, item }) = heap.pop() {
            match item {
                HeapItem::Entry(e) => {
                    out.push(Neighbor { entry: e, dist });
                    if out.len() == k {
                        break;
                    }
                }
                HeapItem::Node(idx) => match &self.nodes[idx].kind {
                    NodeKind::Leaf(entries) => {
                        for e in entries {
                            heap.push(MinDist {
                                dist: kind.measure(p, &e.mbr),
                                item: HeapItem::Entry(*e),
                            });
                        }
                    }
                    NodeKind::Internal(children) => {
                        for &c in children {
                            // min_dist to the node MBR lower-bounds both
                            // distance kinds for every entry beneath it.
                            heap.push(MinDist {
                                dist: self.nodes[c].mbr.min_dist(p),
                                item: HeapItem::Node(c),
                            });
                        }
                    }
                },
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn pt(id: u64, x: f64, y: f64) -> Entry {
        Entry::point(ObjectId(id), Point::new(x, y))
    }

    fn random_points(n: usize, seed: u64) -> Vec<Entry> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|i| pt(i as u64, rng.gen(), rng.gen())).collect()
    }

    #[test]
    fn empty_tree_behaves() {
        let t = RTree::new();
        assert!(t.is_empty());
        assert!(t.nearest(Point::ORIGIN, DistanceKind::Min).is_none());
        assert!(t.range(&Rect::unit()).is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_grows_and_splits() {
        let mut t = RTree::new();
        for e in random_points(200, 1) {
            t.insert(e);
        }
        assert_eq!(t.len(), 200);
        assert!(t.height() >= 2, "200 points must overflow one leaf");
        t.check_invariants().unwrap();
    }

    #[test]
    fn range_matches_brute_force() {
        let entries = random_points(300, 2);
        let mut t = RTree::new();
        for e in &entries {
            t.insert(*e);
        }
        let q = Rect::from_coords(0.2, 0.3, 0.6, 0.7);
        let mut got: Vec<u64> = t.range(&q).iter().map(|e| e.id.0).collect();
        let mut want: Vec<u64> = entries
            .iter()
            .filter(|e| e.mbr.intersects(&q))
            .map(|e| e.id.0)
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!want.is_empty(), "test query should not be vacuous");
    }

    #[test]
    fn nearest_matches_brute_force() {
        let entries = random_points(500, 3);
        let t = RTree::bulk_load(entries.iter().copied());
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let p = Point::new(rng.gen(), rng.gen());
            let got = t.nearest(p, DistanceKind::Min).unwrap();
            let want = entries
                .iter()
                .map(|e| e.mbr.min_dist(p))
                .fold(f64::INFINITY, f64::min);
            assert!((got.dist - want).abs() < 1e-12);
        }
    }

    #[test]
    fn k_nearest_is_sorted_and_complete() {
        let entries = random_points(100, 5);
        let t = RTree::bulk_load(entries.iter().copied());
        let p = Point::new(0.5, 0.5);
        let nn = t.k_nearest(p, 10, DistanceKind::Min);
        assert_eq!(nn.len(), 10);
        for w in nn.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
        // Asking for more than exists returns everything.
        let all = t.k_nearest(p, 1000, DistanceKind::Min);
        assert_eq!(all.len(), 100);
    }

    #[test]
    fn max_dist_nearest_over_rect_data() {
        let mut t = RTree::new();
        // A large rectangle near the query and a point slightly further.
        t.insert(Entry::new(
            ObjectId(1),
            Rect::from_coords(0.1, 0.0, 0.9, 0.0),
        ));
        t.insert(pt(2, 0.3, 0.0));
        let p = Point::ORIGIN;
        assert_eq!(
            t.nearest(p, DistanceKind::Min).unwrap().entry.id,
            ObjectId(1)
        );
        assert_eq!(
            t.nearest(p, DistanceKind::Max).unwrap().entry.id,
            ObjectId(2)
        );
    }

    #[test]
    fn remove_keeps_structure_valid() {
        let entries = random_points(300, 6);
        let mut t = RTree::new();
        for e in &entries {
            t.insert(*e);
        }
        let mut rng = StdRng::seed_from_u64(7);
        let mut live: Vec<u64> = (0..300).collect();
        while live.len() > 50 {
            let pos = rng.gen_range(0..live.len());
            let id = live.swap_remove(pos);
            assert!(t.remove(ObjectId(id)).is_some());
            if live.len().is_multiple_of(50) {
                t.check_invariants().unwrap();
            }
        }
        assert_eq!(t.len(), 50);
        t.check_invariants().unwrap();
        // Remaining entries still findable.
        for id in live {
            let want = entries[id as usize];
            let hits = t.range(&want.mbr);
            assert!(hits.iter().any(|e| e.id.0 == id));
        }
    }

    #[test]
    fn remove_everything_then_reuse() {
        let mut t = RTree::new();
        for e in random_points(100, 8) {
            t.insert(e);
        }
        for id in 0..100 {
            assert!(t.remove(ObjectId(id)).is_some());
        }
        assert!(t.is_empty());
        t.check_invariants().unwrap();
        for e in random_points(50, 9) {
            t.insert(e);
        }
        assert_eq!(t.len(), 50);
        t.check_invariants().unwrap();
    }

    #[test]
    fn remove_missing_id_is_false() {
        let mut t = RTree::new();
        t.insert(pt(1, 0.5, 0.5));
        assert_eq!(t.remove(ObjectId(42)), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn bulk_load_equals_incremental_results() {
        let entries = random_points(400, 10);
        let bulk = RTree::bulk_load(entries.iter().copied());
        let mut inc = RTree::new();
        for e in &entries {
            inc.insert(*e);
        }
        bulk.check_invariants().unwrap();
        inc.check_invariants().unwrap();
        let q = Rect::from_coords(0.1, 0.1, 0.4, 0.9);
        let mut a: Vec<u64> = bulk.range(&q).iter().map(|e| e.id.0).collect();
        let mut b: Vec<u64> = inc.range(&q).iter().map(|e| e.id.0).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn bulk_load_small_inputs() {
        for n in [0usize, 1, 2, MAX_ENTRIES, MAX_ENTRIES + 1] {
            let t = RTree::bulk_load(random_points(n, 11));
            assert_eq!(t.len(), n);
            t.check_invariants().unwrap();
        }
    }
}
