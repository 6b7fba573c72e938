//! The incomplete pyramid of the *adaptive* location anonymizer
//! (Section 4.2).
//!
//! Only cells that can potentially serve as cloaking regions for the
//! current user population are maintained. The structure is kept in shape
//! by two operations:
//!
//! * **Cell splitting** — a leaf cell at level `i` is split into its four
//!   children when a user arrives whose privacy profile would be satisfied
//!   by the child cell containing her (the paper tracks the "most relaxed
//!   user" `u_r` per cell for this; we keep the equivalent per-quadrant
//!   minimum-`k` summaries plus shadow quadrant occupancy counters so the
//!   check stays O(1) per arrival).
//! * **Cell merging** — four sibling leaves at level `i` are merged into
//!   their parent when *no* user inside any of them can be satisfied at
//!   level `i` (each leaf keeps the minimum `k` among its area-eligible
//!   users, so the check is O(1); the summary is recomputed by a scan only
//!   when the minimum holder departs, exactly like the paper's
//!   "update `u_r` if necessary").
//!
//! The hash table points at the lowest *maintained* cell, so Algorithm 1
//! starts higher up and usually needs no recursive calls at all.
//!
//! # Memory layout
//!
//! Cells live in a **flat arena** (`Vec<CellNode>`, one cache line per
//! cell) instead of a hash map: the four children of a split cell occupy a
//! single contiguous Z-ordered block `children .. children + 4`, so a
//! sibling probe is `children + quadrant` and a bottom-up counter walk is
//! a chain of array writes with no hashing. Blocks freed by merges are
//! recycled through an intrusive free list. Registered users live in a
//! parallel **slab** (`Vec<UserNode>`); each leaf threads an intrusive
//! doubly-linked member list through its users' slab entries, so split
//! redistribution and summary rescans iterate in place — no per-leaf
//! `Vec<UserId>` and no clone-per-visit on the recompute paths.

use casper_geometry::Point;

use crate::hash::FastMap;
use crate::{
    bottom_up_cloak, CellId, CellStore, CloakedRegion, MaintenanceStats, Profile, PyramidStructure,
    UserId,
};

/// Sentinel arena/slab index meaning "no node".
const NIL: u32 = u32::MAX;

/// Level stored in the `cid` of a freed arena node, marking it dead.
const FREE_LEVEL: u8 = u8::MAX;

/// One pyramid cell in the flat arena (64 bytes — one cache line).
///
/// The leaf summary fields (`head`, `child_counts`, `min_k`, `min_k_leaf`)
/// are only meaningful while `children == NIL`; a split resets them and a
/// merge re-derives them by re-adding the members.
#[derive(Debug, Clone)]
struct CellNode {
    /// Geometric identity of the cell.
    cid: CellId,
    /// Number of users inside the cell (the paper's per-cell counter).
    count: u32,
    /// Arena index of the parent; `NIL` for the root. Freed blocks reuse
    /// this field of their first node to link the block free list.
    parent: u32,
    /// Arena index of the first of the four Z-ordered children
    /// (`children + quadrant` addresses each); `NIL` for leaves.
    children: u32,
    /// Head of the leaf's intrusive member list in the user slab.
    head: u32,
    /// Occupancy of the four would-be children (quadrants). Unused at the
    /// lowest pyramid level.
    child_counts: [u32; 4],
    /// Per quadrant: minimum `k` among users in the quadrant whose `a_min`
    /// fits the child area; `u32::MAX` when no such user. The split test
    /// is `child_counts[q] >= min_k[q]`.
    min_k: [u32; 4],
    /// Minimum `k` among users in the leaf whose `a_min` fits the leaf
    /// area; drives the merge test (`count < min_k_leaf` for all four
    /// siblings means nobody needs this level).
    min_k_leaf: u32,
}

impl CellNode {
    fn new_leaf(cid: CellId, parent: u32) -> Self {
        Self {
            cid,
            count: 0,
            parent,
            children: NIL,
            head: NIL,
            child_counts: [0; 4],
            min_k: [u32::MAX; 4],
            min_k_leaf: u32::MAX,
        }
    }

    #[inline]
    fn is_leaf(&self) -> bool {
        self.children == NIL
    }
}

/// One registered user in the slab.
#[derive(Debug, Clone)]
struct UserNode {
    profile: Profile,
    pos: Point,
    /// Arena index of the maintained leaf the user lives in; `NIL` for
    /// free slab entries (which reuse `next` for the slab free list).
    leaf: u32,
    /// Intrusive doubly-linked member list of the leaf.
    next: u32,
    prev: u32,
}

/// The incomplete grid pyramid backing the adaptive location anonymizer.
#[derive(Debug, Clone)]
pub struct AdaptivePyramid {
    height: u8,
    /// Flat cell arena; the root is index 0, children are 4-contiguous
    /// Z-ordered blocks.
    cells: Vec<CellNode>,
    /// Head of the free list of 4-cell blocks.
    free_block: u32,
    /// Number of live (maintained) cells.
    live_cells: usize,
    /// Slab of registered users.
    slab: Vec<UserNode>,
    /// Head of the slab free list (linked through `next`).
    free_user: u32,
    users: FastMap<UserId, u32>,
}

/// Quadrant index of `pos` within leaf `cell`: 0 = bottom-left,
/// 1 = bottom-right, 2 = top-left, 3 = top-right. Matches the order of
/// [`CellId::children`] and the low two bits of the child's Morton key.
fn quadrant(cell: CellId, pos: Point) -> usize {
    let child = CellId::at(cell.level + 1, pos);
    ((child.x & 1) + 2 * (child.y & 1)) as usize
}

impl AdaptivePyramid {
    /// Creates an empty incomplete pyramid with `height` levels.
    ///
    /// Initially only the root cell is maintained; registrations grow the
    /// structure where the user population warrants it.
    ///
    /// # Panics
    /// Panics when `height` is 0 or greater than 16.
    pub fn new(height: u8) -> Self {
        assert!(
            (1..=16).contains(&height),
            "pyramid height must be in 1..=16"
        );
        Self {
            height,
            cells: vec![CellNode::new_leaf(CellId::ROOT, NIL)],
            free_block: NIL,
            live_cells: 1,
            slab: Vec::new(),
            free_user: NIL,
            users: FastMap::default(),
        }
    }

    /// The lowest pyramid level (`H - 1`).
    #[inline]
    pub fn lowest_level(&self) -> u8 {
        self.height - 1
    }

    /// Lowest maintained cell of a registered user.
    pub fn cell_of(&self, uid: UserId) -> Option<CellId> {
        let idx = *self.users.get(&uid)?;
        Some(self.cells[self.slab[idx as usize].leaf as usize].cid)
    }

    /// Profile and cloak of a registered user from a single hash probe:
    /// the batch cloaking path needs both, and the shared lookup is the
    /// per-user overhead worth amortising.
    pub fn cloak_member(&self, uid: UserId) -> Option<(Profile, CloakedRegion)> {
        let &u = self.users.get(&uid)?;
        let n = &self.slab[u as usize];
        let profile = n.profile;
        let region = bottom_up_cloak(self, profile, self.cells[n.leaf as usize].cid);
        Some((profile, region))
    }

    /// Bulk Algorithm 1 over a tagged group: one hash probe per user,
    /// then the whole group is cloaked in Morton order of their
    /// maintained leaves, so sibling block lookups revisit warm arena
    /// lines. Each result equals [`cloak_member`](Self::cloak_member)
    /// for that user; output order is unspecified — callers route by
    /// tag. Unknown users yield `None`.
    pub fn cloak_members(
        &self,
        members: &[(usize, UserId)],
    ) -> Vec<(usize, Option<(Profile, CloakedRegion)>)> {
        let mut out = Vec::with_capacity(members.len());
        let mut keyed: Vec<(u64, usize, u32)> = Vec::with_capacity(members.len());
        for &(tag, uid) in members {
            match self.users.get(&uid) {
                Some(&u) => {
                    let leaf = self.slab[u as usize].leaf;
                    keyed.push((self.cells[leaf as usize].cid.morton_key(), tag, u));
                }
                None => out.push((tag, None)),
            }
        }
        keyed.sort_unstable_by_key(|&(key, _, _)| key);
        for (_, tag, u) in keyed {
            let n = &self.slab[u as usize];
            let profile = n.profile;
            let region = bottom_up_cloak(self, profile, self.cells[n.leaf as usize].cid);
            out.push((tag, Some((profile, region))));
        }
        out
    }

    /// The lowest maintained cell containing `pos`.
    pub fn leaf_for(&self, pos: Point) -> CellId {
        self.cells[self.leaf_idx_for(pos) as usize].cid
    }

    /// Arena index of the lowest maintained cell containing `pos`.
    fn leaf_idx_for(&self, pos: Point) -> u32 {
        let mut cur = 0u32;
        loop {
            let node = &self.cells[cur as usize];
            if node.is_leaf() {
                return cur;
            }
            cur = node.children + quadrant(node.cid, pos) as u32;
        }
    }

    fn child_area(level: u8) -> f64 {
        0.25f64.powi(level as i32 + 1)
    }

    fn leaf_area(level: u8) -> f64 {
        0.25f64.powi(level as i32)
    }

    /// Takes a 4-cell block off the free list, or grows the arena.
    fn alloc_block(&mut self) -> u32 {
        if self.free_block != NIL {
            let base = self.free_block;
            self.free_block = self.cells[base as usize].parent;
            return base;
        }
        let base = self.cells.len() as u32;
        self.cells
            .extend((0..4).map(|_| CellNode::new_leaf(CellId::ROOT, NIL)));
        base
    }

    /// Returns a 4-cell block to the free list, marking its nodes dead.
    fn release_block(&mut self, base: u32) {
        for i in 0..4 {
            self.cells[(base + i) as usize].cid.level = FREE_LEVEL;
        }
        self.cells[base as usize].parent = self.free_block;
        self.free_block = base;
    }

    fn alloc_user(&mut self, profile: Profile, pos: Point) -> u32 {
        let node = UserNode {
            profile,
            pos,
            leaf: NIL,
            next: NIL,
            prev: NIL,
        };
        if self.free_user != NIL {
            let idx = self.free_user;
            self.free_user = self.slab[idx as usize].next;
            self.slab[idx as usize] = node;
            return idx;
        }
        let idx = self.slab.len() as u32;
        self.slab.push(node);
        idx
    }

    fn release_user(&mut self, idx: u32) {
        let node = &mut self.slab[idx as usize];
        node.leaf = NIL;
        node.prev = NIL;
        node.next = self.free_user;
        self.free_user = idx;
    }

    /// Pushes slab entry `u` onto `leaf`'s intrusive member list.
    fn list_push(&mut self, leaf: u32, u: u32) {
        let head = self.cells[leaf as usize].head;
        {
            let n = &mut self.slab[u as usize];
            n.next = head;
            n.prev = NIL;
        }
        if head != NIL {
            self.slab[head as usize].prev = u;
        }
        self.cells[leaf as usize].head = u;
    }

    /// Unlinks slab entry `u` from `leaf`'s member list.
    fn list_unlink(&mut self, leaf: u32, u: u32) {
        let (prev, next) = {
            let n = &self.slab[u as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.slab[prev as usize].next = next;
        } else {
            debug_assert_eq!(self.cells[leaf as usize].head, u);
            self.cells[leaf as usize].head = next;
        }
        if next != NIL {
            self.slab[next as usize].prev = prev;
        }
    }

    /// Adds slab entry `u` to leaf summaries (not the count chain) and
    /// points the entry at its new leaf. Returns the quadrant the user
    /// landed in.
    fn leaf_add(&mut self, leaf: u32, u: u32) -> usize {
        let (profile, pos) = {
            let n = &self.slab[u as usize];
            (n.profile, n.pos)
        };
        let cid = self.cells[leaf as usize].cid;
        let lowest = cid.level == self.height - 1;
        let q = if lowest { 0 } else { quadrant(cid, pos) };
        self.list_push(leaf, u);
        self.slab[u as usize].leaf = leaf;
        let node = &mut self.cells[leaf as usize];
        if !lowest {
            node.child_counts[q] += 1;
            if profile.a_min <= Self::child_area(cid.level) {
                node.min_k[q] = node.min_k[q].min(profile.k);
            }
        }
        if profile.a_min <= Self::leaf_area(cid.level) {
            node.min_k_leaf = node.min_k_leaf.min(profile.k);
        }
        q
    }

    /// Removes slab entry `u` from leaf summaries, recomputing minima when
    /// the departing user held them (the paper's "update u_r if
    /// necessary"). `profile`/`pos` are passed explicitly so callers can
    /// remove under the *old* attributes before mutating the entry.
    fn leaf_remove(&mut self, leaf: u32, u: u32, profile: Profile, pos: Point) {
        let cid = self.cells[leaf as usize].cid;
        let lowest = cid.level == self.height - 1;
        let q = if lowest { 0 } else { quadrant(cid, pos) };
        self.list_unlink(leaf, u);
        let (needs_rescan_q, needs_rescan_leaf) = {
            let node = &mut self.cells[leaf as usize];
            if !lowest {
                node.child_counts[q] -= 1;
            }
            (
                !lowest && node.min_k[q] == profile.k,
                node.min_k_leaf == profile.k,
            )
        };
        if needs_rescan_q {
            self.recompute_min_k_quadrant(leaf, q);
        }
        if needs_rescan_leaf {
            self.recompute_min_k_leaf(leaf);
        }
    }

    fn recompute_min_k_quadrant(&mut self, leaf: u32, q: usize) {
        let cid = self.cells[leaf as usize].cid;
        let child_area = Self::child_area(cid.level);
        let mut min_k = u32::MAX;
        let mut cur = self.cells[leaf as usize].head;
        while cur != NIL {
            let n = &self.slab[cur as usize];
            if quadrant(cid, n.pos) == q && n.profile.a_min <= child_area {
                min_k = min_k.min(n.profile.k);
            }
            cur = n.next;
        }
        self.cells[leaf as usize].min_k[q] = min_k;
    }

    fn recompute_min_k_leaf(&mut self, leaf: u32) {
        let leaf_area = Self::leaf_area(self.cells[leaf as usize].cid.level);
        let mut min_k = u32::MAX;
        let mut cur = self.cells[leaf as usize].head;
        while cur != NIL {
            let n = &self.slab[cur as usize];
            if n.profile.a_min <= leaf_area {
                min_k = min_k.min(n.profile.k);
            }
            cur = n.next;
        }
        self.cells[leaf as usize].min_k_leaf = min_k;
    }

    /// Adjusts the counter chain from `from` up to (excluding) the node at
    /// `stop_above` (`NIL` walks through the root) — a handful of array
    /// writes along the parent pointers.
    fn add_along_path(&mut self, from: u32, delta: i64, stop_above: u32) -> u64 {
        let mut cur = from;
        let mut touched = 0;
        while cur != NIL && cur != stop_above {
            let node = &mut self.cells[cur as usize];
            node.count = (node.count as i64 + delta) as u32;
            touched += 1;
            cur = node.parent;
        }
        touched
    }

    /// Arena index of the lowest common ancestor of two live nodes.
    fn lca_idx(&self, mut a: u32, mut b: u32) -> u32 {
        while self.cells[a as usize].cid.level > self.cells[b as usize].cid.level {
            a = self.cells[a as usize].parent;
        }
        while self.cells[b as usize].cid.level > self.cells[a as usize].cid.level {
            b = self.cells[b as usize].parent;
        }
        while a != b {
            a = self.cells[a as usize].parent;
            b = self.cells[b as usize].parent;
        }
        a
    }

    /// Splits `leaf` into its four children and cascades further splits
    /// where warranted. Returns the accumulated maintenance cost.
    fn try_split(&mut self, leaf: u32, stats: &mut MaintenanceStats) {
        let mut stack = vec![leaf];
        while let Some(idx) = stack.pop() {
            let node = &self.cells[idx as usize];
            if node.cid.level == FREE_LEVEL || !node.is_leaf() {
                continue;
            }
            if node.cid.level >= self.height - 1 {
                continue;
            }
            let splittable =
                (0..4).any(|q| node.min_k[q] != u32::MAX && node.child_counts[q] >= node.min_k[q]);
            if !splittable {
                continue;
            }
            let cid = node.cid;
            // Materialise the four children as one contiguous Z-ordered
            // block and redistribute the member list.
            let base = self.alloc_block();
            for (i, child_cid) in cid.children().into_iter().enumerate() {
                self.cells[base as usize + i] = CellNode::new_leaf(child_cid, idx);
            }
            let head = {
                let node = &mut self.cells[idx as usize];
                let head = node.head;
                node.children = base;
                node.head = NIL;
                node.child_counts = [0; 4];
                node.min_k = [u32::MAX; 4];
                node.min_k_leaf = u32::MAX;
                head
            };
            self.live_cells += 4;
            stats.cells_created += 4;
            stats.counter_updates += 4;
            stats.splits += 1;
            let mut cur = head;
            while cur != NIL {
                let (next, pos) = {
                    let n = &self.slab[cur as usize];
                    (n.next, n.pos)
                };
                let child = base + quadrant(cid, pos) as u32;
                self.cells[child as usize].count += 1;
                self.leaf_add(child, cur);
                stats.hash_updates += 1;
                cur = next;
            }
            stack.extend([base, base + 1, base + 2, base + 3]);
        }
    }

    /// Attempts to merge the sibling group of `leaf` into its parent, then
    /// cascades upward while the merge condition keeps holding.
    fn try_merge(&mut self, leaf: u32, stats: &mut MaintenanceStats) {
        let mut cur = leaf;
        loop {
            let parent = self.cells[cur as usize].parent;
            if parent == NIL {
                return;
            }
            let base = self.cells[parent as usize].children;
            // All four siblings must be leaves whose population cannot be
            // satisfied at this level.
            let mergeable = (0..4).all(|i| {
                let s = &self.cells[(base + i) as usize];
                s.is_leaf() && s.count < s.min_k_leaf
            });
            if !mergeable {
                return;
            }
            let heads = [
                self.cells[base as usize].head,
                self.cells[(base + 1) as usize].head,
                self.cells[(base + 2) as usize].head,
                self.cells[(base + 3) as usize].head,
            ];
            self.release_block(base);
            self.live_cells -= 4;
            stats.cells_removed += 4;
            stats.merges += 1;
            {
                let node = &mut self.cells[parent as usize];
                node.children = NIL;
                node.head = NIL;
                node.child_counts = [0; 4];
                node.min_k = [u32::MAX; 4];
                node.min_k_leaf = u32::MAX;
            }
            for head in heads {
                let mut m = head;
                while m != NIL {
                    let next = self.slab[m as usize].next;
                    self.leaf_add(parent, m);
                    stats.hash_updates += 1;
                    m = next;
                }
            }
            cur = parent;
        }
    }

    /// Verifies structural invariants; intended for tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let root = &self.cells[0];
        if root.cid != CellId::ROOT || root.cid.level == FREE_LEVEL {
            return Err("root cell missing".into());
        }
        if root.count as usize != self.users.len() {
            return Err(format!(
                "root count {} != user count {}",
                root.count,
                self.users.len()
            ));
        }
        let mut live_seen = 0usize;
        for (idx, node) in self.cells.iter().enumerate() {
            if node.cid.level == FREE_LEVEL {
                continue;
            }
            live_seen += 1;
            let cid = node.cid;
            if !node.is_leaf() {
                // Internal: all 4 children live; counts consistent.
                let mut sum = 0;
                for i in 0..4 {
                    let child = &self.cells[(node.children + i) as usize];
                    if child.cid.level == FREE_LEVEL {
                        return Err(format!("internal {cid} has freed child block"));
                    }
                    if child.parent != idx as u32 {
                        return Err(format!("child of {cid} has wrong parent pointer"));
                    }
                    if child.cid.parent() != Some(cid) {
                        return Err(format!("child of {cid} has wrong cell id"));
                    }
                    sum += child.count;
                }
                if sum != node.count {
                    return Err(format!(
                        "internal {cid} count {} != children sum {sum}",
                        node.count
                    ));
                }
                continue;
            }
            // Leaf: member list length matches count; summaries exact.
            let mut members = Vec::new();
            let mut m = node.head;
            while m != NIL {
                members.push(m);
                m = self.slab[m as usize].next;
            }
            if members.len() != node.count as usize {
                return Err(format!(
                    "leaf {cid} member list {} != count {}",
                    members.len(),
                    node.count
                ));
            }
            if cid.level < self.height - 1 {
                let qsum: u32 = node.child_counts.iter().sum();
                if qsum != node.count {
                    return Err(format!(
                        "leaf {cid} quadrant sum {qsum} != count {}",
                        node.count
                    ));
                }
                let child_area = Self::child_area(cid.level);
                let mut expect = [u32::MAX; 4];
                for &u in &members {
                    let n = &self.slab[u as usize];
                    if n.profile.a_min <= child_area {
                        let q = quadrant(cid, n.pos);
                        expect[q] = expect[q].min(n.profile.k);
                    }
                }
                if expect != node.min_k {
                    return Err(format!(
                        "leaf {cid} min_k {:?} != expected {expect:?}",
                        node.min_k
                    ));
                }
            }
            let leaf_area = Self::leaf_area(cid.level);
            let mut expect_leaf = u32::MAX;
            for &u in &members {
                let n = &self.slab[u as usize];
                if n.profile.a_min <= leaf_area {
                    expect_leaf = expect_leaf.min(n.profile.k);
                }
            }
            if expect_leaf != node.min_k_leaf {
                return Err(format!(
                    "leaf {cid} min_k_leaf {} != expected {expect_leaf}",
                    node.min_k_leaf
                ));
            }
            for &u in &members {
                if self.slab[u as usize].leaf != idx as u32 {
                    return Err(format!("member of {cid} points at another leaf"));
                }
            }
        }
        if live_seen != self.live_cells {
            return Err(format!(
                "live cell count {live_seen} != tracked {}",
                self.live_cells
            ));
        }
        // Every user's cell is a maintained leaf containing her position.
        for (uid, &u) in &self.users {
            let n = &self.slab[u as usize];
            let leaf = &self.cells[n.leaf as usize];
            if leaf.cid.level == FREE_LEVEL || !leaf.is_leaf() {
                return Err(format!("{uid} points at non-leaf"));
            }
            if !leaf.cid.rect().contains(n.pos) {
                return Err(format!(
                    "{uid} leaf {} does not contain {:?}",
                    leaf.cid, n.pos
                ));
            }
            if self.leaf_for(n.pos) != leaf.cid {
                return Err(format!("{uid} hash points at non-lowest leaf {}", leaf.cid));
            }
        }
        Ok(())
    }
}

impl CellStore for AdaptivePyramid {
    #[inline]
    fn count(&self, cid: CellId) -> u32 {
        // Resolve by Morton descent from the root: each step indexes the
        // contiguous child block with two bits of the target's Z-order key.
        let morton = cid.morton();
        let mut cur = 0u32;
        for level in 1..=cid.level {
            let node = &self.cells[cur as usize];
            if node.is_leaf() {
                return 0; // below the maintained frontier
            }
            let q = (morton >> (2 * (cid.level - level) as u32)) & 3;
            cur = node.children + q as u32;
        }
        self.cells[cur as usize].count
    }

    fn count_with_siblings(&self, cid: CellId, v: CellId, h: CellId) -> (u32, u32, u32) {
        if cid.level == 0 {
            return (self.count(cid), self.count(v), self.count(h));
        }
        let morton = cid.morton();
        debug_assert_eq!(v.morton(), morton ^ 2);
        debug_assert_eq!(h.morton(), morton ^ 1);
        // One Morton descent to the shared parent serves all three cells:
        // the union siblings never leave the parent's Z-ordered 4-block.
        let mut cur = 0u32;
        for level in 1..cid.level {
            let node = &self.cells[cur as usize];
            if node.is_leaf() {
                return (0, 0, 0); // below the maintained frontier
            }
            let q = (morton >> (2 * (cid.level - level) as u32)) & 3;
            cur = node.children + q as u32;
        }
        let parent = &self.cells[cur as usize];
        if parent.is_leaf() {
            return (0, 0, 0);
        }
        let block = parent.children as usize;
        let q = (morton & 3) as usize;
        (
            self.cells[block + q].count,
            self.cells[block + (q ^ 2)].count,
            self.cells[block + (q ^ 1)].count,
        )
    }
}

impl PyramidStructure for AdaptivePyramid {
    fn height(&self) -> u8 {
        self.height
    }

    fn register(&mut self, uid: UserId, profile: Profile, pos: Point) -> MaintenanceStats {
        if self.users.contains_key(&uid) {
            let mut stats = self.update_profile(uid, profile);
            stats += self.update_location(uid, pos);
            return stats;
        }
        let mut stats = MaintenanceStats::ZERO;
        let leaf = self.leaf_idx_for(pos);
        stats.counter_updates += self.add_along_path(leaf, 1, NIL);
        let u = self.alloc_user(profile, pos);
        self.users.insert(uid, u);
        self.leaf_add(leaf, u);
        stats.hash_updates += 1;
        self.try_split(leaf, &mut stats);
        stats.record();
        stats
    }

    fn update_location(&mut self, uid: UserId, pos: Point) -> MaintenanceStats {
        let Some(&u) = self.users.get(&uid) else {
            return MaintenanceStats::ZERO;
        };
        let (profile, old_pos, old_leaf) = {
            let n = &self.slab[u as usize];
            (n.profile, n.pos, n.leaf)
        };
        let mut stats = MaintenanceStats::ZERO;
        let new_leaf = self.leaf_idx_for(pos);
        if new_leaf == old_leaf {
            // Same maintained cell: only the quadrant summaries can change.
            self.slab[u as usize].pos = pos;
            let cid = self.cells[old_leaf as usize].cid;
            if cid.level < self.height - 1 && quadrant(cid, old_pos) != quadrant(cid, pos) {
                self.leaf_remove(old_leaf, u, profile, old_pos);
                self.leaf_add(old_leaf, u);
                self.try_split(old_leaf, &mut stats);
            }
            stats.record();
            return stats;
        }
        // Cross-cell move: adjust both counter chains below the LCA.
        self.leaf_remove(old_leaf, u, profile, old_pos);
        let meet = self.lca_idx(old_leaf, new_leaf);
        stats.counter_updates += self.add_along_path(old_leaf, -1, meet);
        stats.counter_updates += self.add_along_path(new_leaf, 1, meet);
        self.slab[u as usize].pos = pos;
        self.leaf_add(new_leaf, u);
        stats.hash_updates += 1;
        // Departure may allow merging around the old cell; arrival may
        // warrant splitting the new one.
        self.try_merge(old_leaf, &mut stats);
        // The split target may have been merged away; recompute the leaf.
        let target = self.leaf_idx_for(pos);
        self.try_split(target, &mut stats);
        stats.record();
        stats
    }

    fn update_profile(&mut self, uid: UserId, profile: Profile) -> MaintenanceStats {
        let Some(&u) = self.users.get(&uid) else {
            return MaintenanceStats::ZERO;
        };
        let (old_profile, pos, leaf) = {
            let n = &self.slab[u as usize];
            (n.profile, n.pos, n.leaf)
        };
        let mut stats = MaintenanceStats::ZERO;
        self.leaf_remove(leaf, u, old_profile, pos);
        self.slab[u as usize].profile = profile;
        self.leaf_add(leaf, u);
        stats.hash_updates += 1;
        // A more relaxed profile may enable a split; a stricter one may
        // enable a merge.
        self.try_split(leaf, &mut stats);
        let leaf_now = self.leaf_idx_for(pos);
        self.try_merge(leaf_now, &mut stats);
        stats.record();
        stats
    }

    fn deregister(&mut self, uid: UserId) -> MaintenanceStats {
        let Some(&u) = self.users.get(&uid) else {
            return MaintenanceStats::ZERO;
        };
        let (profile, pos, leaf) = {
            let n = &self.slab[u as usize];
            (n.profile, n.pos, n.leaf)
        };
        let mut stats = MaintenanceStats::ZERO;
        self.leaf_remove(leaf, u, profile, pos);
        stats.counter_updates += self.add_along_path(leaf, -1, NIL);
        self.users.remove(&uid);
        self.release_user(u);
        stats.hash_updates += 1;
        self.try_merge(leaf, &mut stats);
        stats.record();
        stats
    }

    fn cloak_user(&self, uid: UserId) -> Option<CloakedRegion> {
        self.cloak_member(uid).map(|(_, region)| region)
    }

    fn cloak_point(&self, pos: Point, profile: Profile) -> CloakedRegion {
        bottom_up_cloak(self, profile, self.leaf_for(pos))
    }

    fn position_of(&self, uid: UserId) -> Option<Point> {
        self.users.get(&uid).map(|&u| self.slab[u as usize].pos)
    }

    fn profile_of(&self, uid: UserId) -> Option<Profile> {
        self.users.get(&uid).map(|&u| self.slab[u as usize].profile)
    }

    fn user_count(&self) -> usize {
        self.users.len()
    }

    fn user_ids(&self) -> Vec<UserId> {
        self.users.keys().copied().collect()
    }

    fn user_records(&self) -> Vec<(UserId, Profile, Point)> {
        // One pass over the hash table with direct slab reads instead of
        // the default's per-uid re-lookups — the checkpoint gather path
        // calls this per shard.
        self.users
            .iter()
            .map(|(&uid, &u)| {
                let n = &self.slab[u as usize];
                (uid, n.profile, n.pos)
            })
            .collect()
    }

    fn maintained_cells(&self) -> usize {
        self.live_cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn uid(n: u64) -> UserId {
        UserId(n)
    }

    #[test]
    fn starts_with_only_the_root() {
        let p = AdaptivePyramid::new(9);
        assert_eq!(p.maintained_cells(), 1);
        assert_eq!(p.leaf_for(Point::new(0.3, 0.7)), CellId::ROOT);
        p.check_invariants().unwrap();
    }

    #[test]
    fn relaxed_users_cause_splits() {
        let mut p = AdaptivePyramid::new(6);
        // A k = 1 user is satisfied by any cell containing her, so splits
        // cascade down to the lowest level on her first registration.
        let stats = p.register(uid(1), Profile::RELAXED, Point::new(0.1, 0.1));
        assert!(stats.splits > 0, "arrival of a satisfiable user must split");
        p.register(uid(2), Profile::RELAXED, Point::new(0.11, 0.1));
        assert!(p.maintained_cells() > 1);
        p.check_invariants().unwrap();
        // Both users now live in a deep leaf.
        assert!(p.cell_of(uid(1)).unwrap().level > 0);
    }

    #[test]
    fn strict_users_keep_the_pyramid_shallow() {
        let mut p = AdaptivePyramid::new(9);
        let mut rng = StdRng::seed_from_u64(7);
        for i in 0..100 {
            p.register(
                uid(i),
                Profile::new(1000, 0.0), // unsatisfiable anywhere below root
                Point::new(rng.gen(), rng.gen()),
            );
        }
        assert_eq!(p.maintained_cells(), 1, "nobody can use deeper cells");
        p.check_invariants().unwrap();
    }

    #[test]
    fn departure_triggers_merge() {
        let mut p = AdaptivePyramid::new(6);
        p.register(uid(1), Profile::RELAXED, Point::new(0.1, 0.1));
        p.register(uid(2), Profile::RELAXED, Point::new(0.11, 0.1));
        let cells_after_split = p.maintained_cells();
        assert!(cells_after_split > 1);
        // Removing one user leaves a lone k=1 user who is still satisfied
        // by her own leaf, so no merge yet.
        p.deregister(uid(2));
        p.check_invariants().unwrap();
        // Removing the last user leaves empty leaves which merge away.
        let stats = p.deregister(uid(1));
        assert!(stats.merges > 0);
        assert_eq!(p.maintained_cells(), 1);
        p.check_invariants().unwrap();
    }

    #[test]
    fn profile_change_reshapes_structure() {
        let mut p = AdaptivePyramid::new(6);
        p.register(uid(1), Profile::RELAXED, Point::new(0.6, 0.6));
        p.register(uid(2), Profile::RELAXED, Point::new(0.61, 0.6));
        assert!(p.maintained_cells() > 1);
        // Making both users maximally strict collapses the structure.
        p.update_profile(uid(1), Profile::new(500, 0.0));
        p.update_profile(uid(2), Profile::new(500, 0.0));
        assert_eq!(p.maintained_cells(), 1);
        p.check_invariants().unwrap();
        // Relaxing them again re-splits.
        p.update_profile(uid(1), Profile::RELAXED);
        p.update_profile(uid(2), Profile::RELAXED);
        assert!(p.maintained_cells() > 1);
        p.check_invariants().unwrap();
    }

    #[test]
    fn a_min_limits_split_depth() {
        let mut p = AdaptivePyramid::new(9);
        // a_min of a level-2 cell: splits must stop at level 2.
        let a_min = 0.25f64.powi(2);
        for i in 0..50 {
            p.register(
                uid(i),
                Profile::new(1, a_min),
                Point::new(0.3 + (i as f64) * 1e-4, 0.3),
            );
        }
        p.check_invariants().unwrap();
        let leaf = p.cell_of(uid(0)).unwrap();
        assert!(
            leaf.level <= 2,
            "leaf level {} would violate a_min at cloaking time",
            leaf.level
        );
        let region = p.cloak_user(uid(0)).unwrap();
        assert!(region.area() >= a_min - 1e-12);
    }

    #[test]
    fn movement_between_cells_keeps_invariants() {
        let mut p = AdaptivePyramid::new(7);
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..100 {
            p.register(
                uid(i),
                Profile::new(rng.gen_range(1..10), 0.0),
                Point::new(rng.gen(), rng.gen()),
            );
        }
        p.check_invariants().unwrap();
        for step in 0..500 {
            let id = uid(step % 100);
            p.update_location(id, Point::new(rng.gen(), rng.gen()));
        }
        p.check_invariants().unwrap();
        assert_eq!(p.user_count(), 100);
    }

    #[test]
    fn small_moves_within_a_leaf_are_cheap() {
        let mut p = AdaptivePyramid::new(9);
        p.register(uid(1), Profile::new(50, 0.0), Point::new(0.5001, 0.5001));
        // Root is the only cell; a tiny move stays inside it.
        let stats = p.update_location(uid(1), Point::new(0.5002, 0.5001));
        assert_eq!(stats.counter_updates, 0);
        p.check_invariants().unwrap();
    }

    #[test]
    fn cloaking_satisfies_profiles() {
        let mut p = AdaptivePyramid::new(8);
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..500 {
            p.register(
                uid(i),
                Profile::new(rng.gen_range(1..30), rng.gen_range(0.0..0.001)),
                Point::new(rng.gen(), rng.gen()),
            );
        }
        p.check_invariants().unwrap();
        for i in 0..500 {
            let profile = p.profile_of(uid(i)).unwrap();
            let region = p.cloak_user(uid(i)).unwrap();
            assert!(
                region.user_count >= profile.k,
                "user {i}: {} < k={}",
                region.user_count,
                profile.k
            );
            assert!(region.area() >= profile.a_min - 1e-12);
            let pos = p.position_of(uid(i)).unwrap();
            assert!(region.rect.contains(pos));
        }
    }

    #[test]
    fn cloak_is_a_function_of_cell_and_profile_only() {
        // Quality requirement: two users in the same leaf with the same
        // profile receive the identical region, so an adversary learns
        // nothing about positions within the cell.
        let mut p = AdaptivePyramid::new(8);
        let profile = Profile::new(2, 0.0);
        p.register(uid(1), profile, Point::new(0.401, 0.401));
        p.register(uid(2), profile, Point::new(0.403, 0.402));
        let c1 = p.cell_of(uid(1)).unwrap();
        let c2 = p.cell_of(uid(2)).unwrap();
        if c1 == c2 {
            assert_eq!(p.cloak_user(uid(1)), p.cloak_user(uid(2)));
        }
    }

    #[test]
    fn deregister_unknown_user_is_noop() {
        let mut p = AdaptivePyramid::new(5);
        assert_eq!(p.deregister(uid(9)), MaintenanceStats::ZERO);
        assert_eq!(
            p.update_location(uid(9), Point::new(0.5, 0.5)),
            MaintenanceStats::ZERO
        );
    }

    #[test]
    fn heavy_random_churn_preserves_invariants() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut p = AdaptivePyramid::new(7);
        let mut live = std::collections::HashSet::new();
        for step in 0..3000u64 {
            let id = uid(rng.gen_range(0..300));
            match rng.gen_range(0..10) {
                0..=5 => {
                    if live.contains(&id) {
                        p.update_location(id, Point::new(rng.gen(), rng.gen()));
                    }
                }
                6..=7 => {
                    p.register(
                        id,
                        Profile::new(rng.gen_range(1..40), rng.gen_range(0.0..0.01)),
                        Point::new(rng.gen(), rng.gen()),
                    );
                    live.insert(id);
                }
                8 => {
                    p.deregister(id);
                    live.remove(&id);
                }
                _ => {
                    if live.contains(&id) {
                        p.update_profile(
                            id,
                            Profile::new(rng.gen_range(1..40), rng.gen_range(0.0..0.01)),
                        );
                    }
                }
            }
            if step % 500 == 0 {
                p.check_invariants().unwrap();
            }
        }
        p.check_invariants().unwrap();
        assert_eq!(p.user_count(), live.len());
    }
}
