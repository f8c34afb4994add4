//! The structure graph: every configuration / version / correspondence /
//! inheritance edge in the database, navigable in both directions.
//!
//! Unlike OCT's untyped "attachments", edges here are typed first-class
//! relationships — exactly the information the paper argues a storage
//! component should be able to exploit.
//!
//! # Layout
//!
//! Placement scoring, context boosting, prefetch, composite retrieval
//! and the hierarchical lock set are all walks over this graph, so a
//! node visit has to be cheap. Each object is one 32-byte, 32-byte
//! aligned record (half a cache line) holding its eight adjacency lists
//! — `(kind, direction)` in [`StructureGraph::for_each_related`] order —
//! laid end to end in a single *run*, with the eight segment ends packed
//! four bits each into one `u32`. A run of up to [`INLINE_CAP`] ids
//! lives inside the record; a longer one moves to a block of 8·2ᵏ
//! slots of one shared pool, the record's id slots then holding its
//! `u16` ends and its block — and moves back as soon as it fits again.
//! On the benchmark's synthetic databases 92–100 % of nodes stay inline
//! (DESIGN.md §14.4), so a visit is one cache miss, and two records
//! share a line; a spilled visit adds one more, for the block.
//!
//! Order inside a segment is part of the contract: `add_edge` appends
//! at the end of the segment and `remove_edge` swap-removes within it,
//! exactly what a `Vec` per list did.

use crate::column::Column;
use crate::id::ObjectId;
use crate::relationship::{Direction, RelKind};
use std::fmt;
use std::ops::Range;

/// Errors raised by graph mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// Self-relationships are meaningless in the model.
    SelfEdge(ObjectId),
    /// The edge already exists.
    DuplicateEdge(RelKind, ObjectId, ObjectId),
    /// The edge to remove does not exist.
    MissingEdge(RelKind, ObjectId, ObjectId),
    /// A version-history edge would create a cycle.
    VersionCycle(ObjectId, ObjectId),
    /// The object already has [`MAX_DEGREE`] edges: one more would not
    /// fit a spilled run's 16-bit segment ends.
    DegreeOverflow(ObjectId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfEdge(o) => write!(f, "self edge on {o}"),
            GraphError::DuplicateEdge(k, a, b) => write!(f, "duplicate {k} edge {a}→{b}"),
            GraphError::MissingEdge(k, a, b) => write!(f, "no {k} edge {a}→{b}"),
            GraphError::VersionCycle(a, b) => {
                write!(f, "version edge {a}→{b} would create a cycle")
            }
            GraphError::DegreeOverflow(o) => {
                write!(f, "{o} already has the maximum {MAX_DEGREE} edges")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Adjacency segments per node: one per `(kind, direction)`.
const SEGMENTS: usize = 8;

/// Ids a node stores inside its own record.
const INLINE_CAP: usize = 7;

/// Most edges one object can carry (a spilled run's segment ends are
/// `u16`).
pub const MAX_DEGREE: usize = u16::MAX as usize;

/// `Node::ends` of a node whose run lives in a pool block. No inline
/// run packs to it: every nibble would read 15, past [`INLINE_CAP`].
const SPILLED: u32 = u32::MAX;

/// One in every nibble: shifted left by `4 * s`, adding it moves every
/// packed end from segment `s` onward by one.
const ONE_EACH: u32 = 0x1111_1111;

/// Segment of the run holding `kind`'s neighbours toward `dir`.
/// Symmetric kinds keep everything in their forward segment.
fn segment(kind: RelKind, dir: Direction) -> usize {
    let backward = dir == Direction::Backward && !kind.is_symmetric();
    kind.index() * 2 + usize::from(backward)
}

/// End of segment `seg` in packed ends.
fn nibble(ends: u32, seg: usize) -> usize {
    (ends >> (4 * seg) & 0xF) as usize
}

/// `(start, end)` of segment `seg` in packed ends: shifted up one
/// nibble, each segment's slot holds where the one before it stops.
fn packed_bounds(ends: u32, seg: usize) -> (usize, usize) {
    (nibble(ends << 4, seg), nibble(ends, seg))
}

/// `(start, end)` of segment `seg` in unpacked ends.
fn bounds(ends: &[u16; SEGMENTS], seg: usize) -> (usize, usize) {
    let start = if seg == 0 { 0 } else { ends[seg - 1] };
    (start as usize, ends[seg] as usize)
}

fn unpack(ends: u32) -> [u16; SEGMENTS] {
    std::array::from_fn(|seg| nibble(ends, seg) as u16)
}

fn pack(ends: &[u16; SEGMENTS]) -> u32 {
    ends.iter()
        .rev()
        .fold(0, |packed, &end| packed << 4 | u32::from(end))
}

/// Swap-remove `value` from `run[start..end]` and close the gap, which
/// leaves `run`'s last id spare. False when `value` is not there.
fn close_up(run: &mut [ObjectId], start: usize, end: usize, value: ObjectId) -> bool {
    let Some(at) = run[start..end].iter().position(|&o| o == value) else {
        return false;
    };
    run[start + at] = run[end - 1];
    run.copy_within(end.., end - 1);
    true
}

/// One object's adjacency: the eight segments end to end in one run.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(32))]
struct Node {
    /// Where each segment stops in the run, four bits a segment with
    /// segment `s` in bits `4s..4s + 4`; segment `s` starts where
    /// segment `s - 1` stops and the last end is the degree. [`SPILLED`]
    /// when the run is in a pool block.
    ends: u32,
    /// The run itself while it is at most [`INLINE_CAP`] ids long;
    /// otherwise the run's [`Spill`] record.
    ids: [ObjectId; INLINE_CAP],
}

impl Default for Node {
    fn default() -> Self {
        Node {
            ends: 0,
            ids: [ObjectId(0); INLINE_CAP],
        }
    }
}

/// Ids in the smallest spill block: one more than a record holds.
const BLOCK_MIN: usize = INLINE_CAP + 1;

/// Spill block sizes: `BLOCK_MIN << class` ids, up to one that holds
/// [`MAX_DEGREE`].
const CLASSES: usize = 14;

const _: () = assert!(BLOCK_MIN << (CLASSES - 1) >= MAX_DEGREE);

/// A run too long for its node record: its segment ends, and the block
/// of `StructureGraph::pool` holding it from `start`. Kept in the node's
/// own `ids`: two ends an id, then `start`, then `class`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Spill {
    ends: [u16; SEGMENTS],
    start: u32,
    class: u8,
}

const _: () = assert!(SEGMENTS / 2 + 2 <= INLINE_CAP);

impl Spill {
    /// `node`'s record, or `None` while its run is inline.
    fn of(node: &Node) -> Option<Spill> {
        (node.ends == SPILLED).then(|| Spill {
            ends: std::array::from_fn(|seg| (node.ids[seg / 2].0 >> (16 * (seg % 2))) as u16),
            start: node.ids[SEGMENTS / 2].0,
            class: node.ids[SEGMENTS / 2 + 1].0 as u8,
        })
    }

    /// Write this record into `node` and mark its run spilled.
    fn store(&self, node: &mut Node) {
        node.ends = SPILLED;
        for (id, pair) in node.ids.iter_mut().zip(self.ends.chunks_exact(2)) {
            *id = ObjectId(u32::from(pair[0]) | u32::from(pair[1]) << 16);
        }
        node.ids[SEGMENTS / 2] = ObjectId(self.start);
        node.ids[SEGMENTS / 2 + 1] = ObjectId(u32::from(self.class));
    }

    fn run(&self) -> Range<usize> {
        let start = self.start as usize;
        start..start + self.ends[SEGMENTS - 1] as usize
    }

    fn capacity(&self) -> usize {
        BLOCK_MIN << self.class
    }
}

/// Caller-owned state for the graph's depth-first walks, so a walk
/// neither allocates nor hashes once the buffers have grown: the LIFO
/// frontier and a bitmap of visited objects, one bit per node slot.
/// Each walk starts by unmarking what the previous one visited, so
/// its cost follows the objects it reaches, not the size of the graph.
#[derive(Debug, Clone, Default)]
pub struct WalkScratch {
    frontier: Vec<ObjectId>,
    /// The objects whose bit is set in `marks`.
    seen: Vec<ObjectId>,
    marks: Vec<u64>,
}

impl WalkScratch {
    /// Start a walk from `root` over a graph of `slots` node slots
    /// (`root` among them).
    fn begin(&mut self, root: ObjectId, slots: usize) {
        for id in self.seen.drain(..) {
            // Only visited objects have bits set, so the whole word goes.
            self.marks[id.index() / 64] = 0;
        }
        if self.marks.len() * 64 < slots {
            self.marks.resize(slots.div_ceil(64), 0);
        }
        self.frontier.clear();
        self.frontier.push(root);
        self.first_visit(root);
    }

    /// Mark `id` visited; true the first time.
    fn first_visit(&mut self, id: ObjectId) -> bool {
        let (word, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
        let new = self.marks[word] & bit == 0;
        if new {
            self.marks[word] |= bit;
            self.seen.push(id);
        }
        new
    }
}

/// Typed, bidirectional adjacency over all objects.
#[derive(Debug, Clone, Default)]
pub struct StructureGraph {
    nodes: Column<Node>,
    /// The spilled runs' blocks, end to end: a spill allocates only
    /// when the pool itself grows, so the heap sees a handful of
    /// doublings, not a vector per spilled run.
    pool: Vec<ObjectId>,
    /// Starts of emptied blocks, by class, reused before the pool grows.
    free_blocks: [Vec<u32>; CLASSES],
    edges: u64,
    /// Scratch for `add_edge`'s version-cycle check.
    cycle_walk: WalkScratch,
}

impl StructureGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Make sure node storage covers `id`.
    pub fn ensure_node(&mut self, id: ObjectId) {
        self.nodes.extend_to(id.index() + 1, Node::default);
    }

    /// Room for `n` more node records, allocated up front.
    pub(crate) fn reserve(&mut self, n: usize) {
        self.nodes.reserve(n);
    }

    /// Number of node slots (max id + 1).
    pub fn node_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Total number of edges (symmetric edges counted once).
    pub fn edge_count(&self) -> u64 {
        self.edges
    }

    /// `node` read once: its segment ends and its run.
    fn decode<'a>(&'a self, node: &'a Node) -> ([u16; SEGMENTS], &'a [ObjectId]) {
        match Spill::of(node) {
            None => (
                unpack(node.ends),
                &node.ids[..nibble(node.ends, SEGMENTS - 1)],
            ),
            Some(spill) => (spill.ends, &self.pool[spill.run()]),
        }
    }

    fn segment_of<'a>(&'a self, node: &'a Node, seg: usize) -> &'a [ObjectId] {
        match Spill::of(node) {
            None => {
                let (start, end) = packed_bounds(node.ends, seg);
                &node.ids[start..end]
            }
            Some(spill) => {
                let (start, end) = bounds(&spill.ends, seg);
                &self.pool[spill.run()][start..end]
            }
        }
    }

    fn degree(&self, node: &Node) -> usize {
        match Spill::of(node) {
            None => nibble(node.ends, SEGMENTS - 1),
            Some(spill) => spill.run().len(),
        }
    }

    fn has_room(&self, id: ObjectId) -> Result<(), GraphError> {
        if self.degree(&self.nodes[id.index()]) < MAX_DEGREE {
            Ok(())
        } else {
            Err(GraphError::DegreeOverflow(id))
        }
    }

    /// Start of an empty block of `class`, reusing an emptied one first.
    fn take_block(&mut self, class: usize) -> u32 {
        self.free_blocks[class].pop().unwrap_or_else(|| {
            let start = self.pool.len();
            self.pool.resize(start + (BLOCK_MIN << class), ObjectId(0));
            u32::try_from(start).expect("fewer spilled ids than 2^32")
        })
    }

    /// Append `value` to segment `seg` of `id`, spilling the run out of
    /// the record when it no longer fits.
    fn insert(&mut self, id: ObjectId, seg: usize, value: ObjectId) {
        let node = &mut self.nodes[id.index()];
        let Some(mut spill) = Spill::of(node) else {
            let (len, at) = (nibble(node.ends, SEGMENTS - 1), nibble(node.ends, seg));
            if len < INLINE_CAP {
                node.ids.copy_within(at..len, at + 1);
                node.ids[at] = value;
                node.ends += ONE_EACH << (4 * seg);
            } else {
                self.spill_out(id, seg, value);
            }
            return;
        };
        let (run, at) = (spill.run(), spill.ends[seg] as usize);
        if run.len() < spill.capacity() {
            self.pool
                .copy_within(run.start + at..run.end, run.start + at + 1);
        } else {
            // Move to a block twice the size, leaving the gap at `at`.
            self.free_blocks[usize::from(spill.class)].push(spill.start);
            spill.class += 1;
            spill.start = self.take_block(usize::from(spill.class));
            let to = spill.start as usize;
            self.pool.copy_within(run.start..run.start + at, to);
            self.pool.copy_within(run.start + at..run.end, to + at + 1);
        }
        self.pool[spill.start as usize + at] = value;
        for end in &mut spill.ends[seg..] {
            *end = end
                .checked_add(1)
                .expect("add_edge checked the node has room");
        }
        spill.store(&mut self.nodes[id.index()]);
    }

    /// Move `id`'s full inline run into a spill block, with `value`
    /// appended to segment `seg`.
    fn spill_out(&mut self, id: ObjectId, seg: usize, value: ObjectId) {
        let node = self.nodes[id.index()];
        let at = nibble(node.ends, seg);
        let start = self.take_block(0);
        let block = &mut self.pool[start as usize..][..BLOCK_MIN];
        block[..at].copy_from_slice(&node.ids[..at]);
        block[at] = value;
        block[at + 1..].copy_from_slice(&node.ids[at..]);
        let mut ends = unpack(node.ends);
        for end in &mut ends[seg..] {
            *end += 1;
        }
        Spill {
            ends,
            start,
            class: 0,
        }
        .store(&mut self.nodes[id.index()]);
    }

    /// Swap-remove `value` from segment `seg` of `id`, moving the run
    /// back into the record once it fits. False when it is not there.
    fn remove(&mut self, id: ObjectId, seg: usize, value: ObjectId) -> bool {
        let node = &mut self.nodes[id.index()];
        let Some(mut spill) = Spill::of(node) else {
            let (start, end) = packed_bounds(node.ends, seg);
            let len = nibble(node.ends, SEGMENTS - 1);
            if !close_up(&mut node.ids[..len], start, end, value) {
                return false;
            }
            node.ends -= ONE_EACH << (4 * seg);
            return true;
        };
        let (start, end) = bounds(&spill.ends, seg);
        if !close_up(&mut self.pool[spill.run()], start, end, value) {
            return false;
        }
        for end in &mut spill.ends[seg..] {
            *end -= 1;
        }
        let run = spill.run();
        let node = &mut self.nodes[id.index()];
        if run.len() <= INLINE_CAP {
            node.ids[..run.len()].copy_from_slice(&self.pool[run]);
            node.ends = pack(&spill.ends);
            self.free_blocks[spill.class as usize].push(spill.start);
        } else {
            spill.store(node);
        }
        true
    }

    /// Add a typed edge `from → to`.
    ///
    /// Correspondence edges are symmetric: the edge becomes navigable
    /// forward from both ends. Version-history edges are checked for
    /// cycles (a version cannot be its own ancestor).
    pub fn add_edge(
        &mut self,
        kind: RelKind,
        from: ObjectId,
        to: ObjectId,
    ) -> Result<(), GraphError> {
        if from == to {
            return Err(GraphError::SelfEdge(from));
        }
        self.ensure_node(from);
        self.ensure_node(to);
        if self.neighbors(from, kind, Direction::Forward).contains(&to) {
            return Err(GraphError::DuplicateEdge(kind, from, to));
        }
        if kind == RelKind::VersionHistory {
            let mut walk = std::mem::take(&mut self.cycle_walk);
            let cycle = self.reaches(kind, to, from, &mut walk);
            self.cycle_walk = walk;
            if cycle {
                return Err(GraphError::VersionCycle(from, to));
            }
        }
        self.has_room(from)?;
        self.has_room(to)?;
        self.insert(from, segment(kind, Direction::Forward), to);
        self.insert(to, segment(kind, Direction::Backward), from);
        self.edges += 1;
        Ok(())
    }

    /// Remove a typed edge `from → to` (either endpoint order works for
    /// symmetric kinds).
    pub fn remove_edge(
        &mut self,
        kind: RelKind,
        from: ObjectId,
        to: ObjectId,
    ) -> Result<(), GraphError> {
        if from.index() >= self.nodes.len()
            || to.index() >= self.nodes.len()
            || !self.remove(from, segment(kind, Direction::Forward), to)
        {
            return Err(GraphError::MissingEdge(kind, from, to));
        }
        let mirrored = self.remove(to, segment(kind, Direction::Backward), from);
        assert!(mirrored, "an edge is stored on both ends");
        self.edges -= 1;
        Ok(())
    }

    /// Neighbors of `id` over `kind` in `dir`. Symmetric kinds return the
    /// same set for both directions.
    pub fn neighbors(&self, id: ObjectId, kind: RelKind, dir: Direction) -> &[ObjectId] {
        match self.nodes.get(id.index()) {
            Some(node) => self.segment_of(node, segment(kind, dir)),
            None => &[],
        }
    }

    /// Component objects of a composite (configuration, downward).
    pub fn components(&self, id: ObjectId) -> &[ObjectId] {
        self.neighbors(id, RelKind::Configuration, Direction::Forward)
    }

    /// Composites containing this component (configuration, upward).
    pub fn composites(&self, id: ObjectId) -> &[ObjectId] {
        self.neighbors(id, RelKind::Configuration, Direction::Backward)
    }

    /// Immediate descendant versions.
    pub fn descendants(&self, id: ObjectId) -> &[ObjectId] {
        self.neighbors(id, RelKind::VersionHistory, Direction::Forward)
    }

    /// Immediate ancestor versions.
    pub fn ancestors(&self, id: ObjectId) -> &[ObjectId] {
        self.neighbors(id, RelKind::VersionHistory, Direction::Backward)
    }

    /// Corresponding objects in other representations.
    pub fn correspondents(&self, id: ObjectId) -> &[ObjectId] {
        self.neighbors(id, RelKind::Correspondence, Direction::Forward)
    }

    /// Objects inheriting from `id` via instance-to-instance links.
    pub fn inheritors(&self, id: ObjectId) -> &[ObjectId] {
        self.neighbors(id, RelKind::Inheritance, Direction::Forward)
    }

    /// Objects `id` inherits from via instance-to-instance links.
    pub fn providers(&self, id: ObjectId) -> &[ObjectId] {
        self.neighbors(id, RelKind::Inheritance, Direction::Backward)
    }

    /// Every related object of `id` with the kind and direction it is
    /// reached through. Symmetric kinds are reported once, as `Forward`.
    pub fn related(&self, id: ObjectId) -> Vec<(RelKind, Direction, ObjectId)> {
        let mut out = Vec::new();
        self.for_each_related(id, |kind, dir, n| {
            out.push((kind, dir, n));
            true
        });
        out
    }

    /// Visit every related object of `id` without allocating, in exactly
    /// the order [`Self::related`] reports them: kinds in `RelKind::ALL`
    /// order, the forward adjacency slice first, then the backward slice
    /// for non-symmetric kinds — which is the node's run front to back.
    /// The visitor returns `false` to stop early. This ordering is a
    /// determinism contract: the clustering cost model folds
    /// floating-point weights in visit order, so any reordering would
    /// change accumulated sums bit-for-bit.
    pub fn for_each_related(
        &self,
        id: ObjectId,
        mut f: impl FnMut(RelKind, Direction, ObjectId) -> bool,
    ) {
        let Some(node) = self.nodes.get(id.index()) else {
            return;
        };
        let (ends, run) = self.decode(node);
        let mut start = 0;
        for (seg, &end) in ends.iter().enumerate() {
            let kind = RelKind::ALL[seg / 2];
            let dir = if seg % 2 == 0 {
                Direction::Forward
            } else {
                Direction::Backward
            };
            for &n in &run[start..end as usize] {
                if !f(kind, dir, n) {
                    return;
                }
            }
            start = end as usize;
        }
    }

    /// Downward structural fan-out of `id` (number of component objects a
    /// composite retrieval would return) — the paper's "structure density"
    /// of the object.
    pub fn downward_fanout(&self, id: ObjectId) -> usize {
        self.components(id).len()
    }

    /// Append the transitive closure of `root`'s components to `out`,
    /// stopping once `limit` objects (the root excluded) were appended.
    /// Models navigation like MOSAICO's cell→net→segment walks.
    ///
    /// The walk is depth-first from the back: a composite's components
    /// are reported in stored order, then the *last* one reported is
    /// expanded first. An object reachable twice (a shared component, a
    /// configuration cycle) is reported once. The bound is tested after
    /// each append, so a `limit` of 0 behaves as 1.
    pub fn transitive_components(
        &self,
        root: ObjectId,
        limit: usize,
        walk: &mut WalkScratch,
        out: &mut Vec<ObjectId>,
    ) {
        if root.index() >= self.nodes.len() {
            return;
        }
        let base = out.len();
        walk.begin(root, self.nodes.len());
        while let Some(cur) = walk.frontier.pop() {
            for &c in self.components(cur) {
                if walk.first_visit(c) {
                    out.push(c);
                    walk.frontier.push(c);
                    if out.len() - base >= limit {
                        return;
                    }
                }
            }
        }
    }

    /// Whether `to` is reachable from `from` over forward `kind` edges.
    fn reaches(&self, kind: RelKind, from: ObjectId, to: ObjectId, walk: &mut WalkScratch) -> bool {
        walk.begin(from, self.nodes.len());
        while let Some(cur) = walk.frontier.pop() {
            if cur == to {
                return true;
            }
            for &n in self.neighbors(cur, kind, Direction::Forward) {
                if walk.first_visit(n) {
                    walk.frontier.push(n);
                }
            }
        }
        false
    }

    /// Iterate all stored edges as `(kind, from, to)`. Symmetric edges are
    /// yielded once, with `from < to`.
    pub fn edges(&self) -> impl Iterator<Item = (RelKind, ObjectId, ObjectId)> + '_ {
        self.nodes.iter().enumerate().flat_map(move |(i, node)| {
            let from = ObjectId(i as u32);
            let (ends, run) = self.decode(node);
            RelKind::ALL.into_iter().flat_map(move |kind| {
                let (start, end) = bounds(&ends, segment(kind, Direction::Forward));
                run[start..end]
                    .iter()
                    .filter(move |&&to| !kind.is_symmetric() || from < to)
                    .map(move |&to| (kind, from, to))
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(i: u32) -> ObjectId {
        ObjectId(i)
    }

    fn closure(g: &StructureGraph, root: ObjectId, limit: usize) -> Vec<ObjectId> {
        let mut out = Vec::new();
        g.transitive_components(root, limit, &mut WalkScratch::default(), &mut out);
        out
    }

    #[test]
    fn configuration_edges_are_bidirectional() {
        let mut g = StructureGraph::new();
        g.add_edge(RelKind::Configuration, o(0), o(1)).unwrap();
        g.add_edge(RelKind::Configuration, o(0), o(2)).unwrap();
        assert_eq!(g.components(o(0)), &[o(1), o(2)]);
        assert_eq!(g.composites(o(1)), &[o(0)]);
        assert_eq!(g.downward_fanout(o(0)), 2);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn correspondence_is_symmetric() {
        let mut g = StructureGraph::new();
        g.add_edge(RelKind::Correspondence, o(3), o(4)).unwrap();
        assert_eq!(g.correspondents(o(3)), &[o(4)]);
        assert_eq!(g.correspondents(o(4)), &[o(3)]);
        // Duplicate in either orientation is rejected.
        assert!(g.add_edge(RelKind::Correspondence, o(4), o(3)).is_err());
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn version_cycles_rejected() {
        let mut g = StructureGraph::new();
        g.add_edge(RelKind::VersionHistory, o(0), o(1)).unwrap();
        g.add_edge(RelKind::VersionHistory, o(1), o(2)).unwrap();
        assert_eq!(
            g.add_edge(RelKind::VersionHistory, o(2), o(0)),
            Err(GraphError::VersionCycle(o(2), o(0)))
        );
        assert_eq!(g.ancestors(o(2)), &[o(1)]);
        assert_eq!(g.descendants(o(0)), &[o(1)]);
    }

    #[test]
    fn self_edges_rejected() {
        let mut g = StructureGraph::new();
        assert_eq!(
            g.add_edge(RelKind::Inheritance, o(5), o(5)),
            Err(GraphError::SelfEdge(o(5)))
        );
    }

    #[test]
    fn remove_edge_both_kinds() {
        let mut g = StructureGraph::new();
        g.add_edge(RelKind::Configuration, o(0), o(1)).unwrap();
        g.add_edge(RelKind::Correspondence, o(0), o(2)).unwrap();
        g.remove_edge(RelKind::Configuration, o(0), o(1)).unwrap();
        g.remove_edge(RelKind::Correspondence, o(2), o(0)).unwrap();
        assert_eq!(g.edge_count(), 0);
        assert!(g.components(o(0)).is_empty());
        assert!(g.correspondents(o(2)).is_empty());
        assert!(g.remove_edge(RelKind::Configuration, o(0), o(1)).is_err());
    }

    #[test]
    fn related_lists_every_neighbor_once() {
        let mut g = StructureGraph::new();
        g.add_edge(RelKind::Configuration, o(0), o(1)).unwrap();
        g.add_edge(RelKind::VersionHistory, o(2), o(0)).unwrap();
        g.add_edge(RelKind::Correspondence, o(0), o(3)).unwrap();
        g.add_edge(RelKind::Inheritance, o(2), o(0)).unwrap();
        let rel = g.related(o(0));
        assert_eq!(rel.len(), 4);
        assert!(rel.contains(&(RelKind::Configuration, Direction::Forward, o(1))));
        assert!(rel.contains(&(RelKind::VersionHistory, Direction::Backward, o(2))));
        assert!(rel.contains(&(RelKind::Correspondence, Direction::Forward, o(3))));
        assert!(rel.contains(&(RelKind::Inheritance, Direction::Backward, o(2))));
    }

    #[test]
    fn for_each_related_matches_related_and_stops_early() {
        let mut g = StructureGraph::new();
        g.add_edge(RelKind::Configuration, o(0), o(1)).unwrap();
        g.add_edge(RelKind::VersionHistory, o(2), o(0)).unwrap();
        g.add_edge(RelKind::Correspondence, o(0), o(3)).unwrap();
        g.add_edge(RelKind::Inheritance, o(2), o(0)).unwrap();
        let mut walked = Vec::new();
        g.for_each_related(o(0), |k, d, n| {
            walked.push((k, d, n));
            true
        });
        assert_eq!(walked, g.related(o(0)), "identical visit order");
        let mut first_two = Vec::new();
        g.for_each_related(o(0), |k, d, n| {
            first_two.push((k, d, n));
            first_two.len() < 2
        });
        assert_eq!(first_two, g.related(o(0))[..2]);
    }

    #[test]
    fn transitive_components_bounded() {
        let mut g = StructureGraph::new();
        // 0 -> 1 -> 2 -> 3 -> 4 chain
        for i in 0..4 {
            g.add_edge(RelKind::Configuration, o(i), o(i + 1)).unwrap();
        }
        assert_eq!(closure(&g, o(0), 100).len(), 4);
        assert_eq!(closure(&g, o(0), 2).len(), 2);
        assert!(closure(&g, o(4), 10).is_empty());
        assert!(closure(&g, o(99), 10).is_empty(), "unknown root");
    }

    /// The walk is depth-first from the back, not breadth-first: every
    /// golden pins this order.
    #[test]
    fn transitive_components_expand_the_last_component_first() {
        let mut g = StructureGraph::new();
        // 0 -> {1, 2, 3}; 1 -> {4, 5}; 2 -> {6}; 3 -> {7, 8}
        for (from, to) in [
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 4),
            (1, 5),
            (2, 6),
            (3, 7),
            (3, 8),
        ] {
            g.add_edge(RelKind::Configuration, o(from), o(to)).unwrap();
        }
        let ids = |v: &[u32]| v.iter().map(|&i| o(i)).collect::<Vec<_>>();
        assert_eq!(closure(&g, o(0), 100), ids(&[1, 2, 3, 7, 8, 6, 4, 5]));
        // A limit that cuts the second level mid-way keeps the prefix.
        assert_eq!(closure(&g, o(0), 4), ids(&[1, 2, 3, 7]));
        assert_eq!(closure(&g, o(0), 2), ids(&[1, 2]));
        // Results append after whatever the caller's buffer holds.
        let mut out = vec![o(0)];
        g.transitive_components(o(3), 9, &mut WalkScratch::default(), &mut out);
        assert_eq!(out, ids(&[0, 7, 8]));
    }

    #[test]
    fn node_record_is_half_a_cache_line() {
        assert_eq!(std::mem::size_of::<Node>(), 32);
        assert_eq!(std::mem::align_of::<Node>(), 32);
    }

    /// Adding `ONE_EACH << 4s` is a `+1` on every unpacked end from
    /// segment `s` on, and never carries into the next nibble.
    #[test]
    fn packed_ends_shift_like_unpacked_ones() {
        let ends = [0, 1, 1, 3, 4, 4, 4, 6];
        let packed = pack(&ends);
        assert_eq!(unpack(packed), ends);
        for seg in 0..SEGMENTS {
            let mut moved = ends;
            for end in &mut moved[seg..] {
                *end += 1;
            }
            assert_eq!(unpack(packed + (ONE_EACH << (4 * seg))), moved);
            assert_eq!(packed_bounds(packed, seg), bounds(&ends, seg));
        }
        assert_ne!(pack(&[INLINE_CAP as u16; SEGMENTS]), SPILLED);
    }

    #[test]
    fn runs_spill_past_the_inline_capacity_and_return() {
        let mut g = StructureGraph::new();
        let n = INLINE_CAP as u32 + 3;
        for i in 1..=n {
            g.add_edge(RelKind::Configuration, o(0), o(i)).unwrap();
            g.add_edge(RelKind::Inheritance, o(i), o(0)).unwrap();
        }
        assert_eq!(g.nodes[0].ends, SPILLED);
        assert_eq!(g.components(o(0)).len(), n as usize);
        assert_eq!(g.providers(o(0)).len(), n as usize);
        for i in 1..=n {
            g.remove_edge(RelKind::Inheritance, o(i), o(0)).unwrap();
        }
        for i in 4..=n {
            g.remove_edge(RelKind::Configuration, o(0), o(i)).unwrap();
        }
        assert_ne!(g.nodes[0].ends, SPILLED);
        assert_eq!(g.components(o(0)), &[o(1), o(2), o(3)]);
        // The freed blocks are reused by the next node that outgrows
        // its record.
        let pool = g.pool.len();
        for i in 1..=n {
            g.add_edge(RelKind::VersionHistory, o(50), o(50 + i))
                .unwrap();
        }
        assert_eq!(g.nodes[50].ends, SPILLED);
        assert_eq!(g.pool.len(), pool);
    }

    /// `store` then `of` gives the record back at every field's limit,
    /// and a stored node reads as spilled.
    #[test]
    fn spill_record_round_trips_through_the_node() {
        let edge = Spill {
            ends: [u16::MAX; SEGMENTS],
            start: u32::MAX,
            class: (CLASSES - 1) as u8,
        };
        let mixed = Spill {
            ends: [1, 2, 300, 4_000, 50_000, 50_001, 65_534, u16::MAX],
            start: 8,
            class: 3,
        };
        for spill in [edge, mixed] {
            let mut node = Node::default();
            spill.store(&mut node);
            assert_eq!(node.ends, SPILLED);
            assert_eq!(Spill::of(&node), Some(spill));
        }
        assert_eq!(Spill::of(&Node::default()), None);
    }

    /// A node at the 16-bit degree limit refuses the edge with a typed
    /// error and neither endpoint changes; the ends never wrap.
    #[test]
    fn degree_overflow_is_an_error_not_a_wrap() {
        let mut g = StructureGraph::new();
        g.ensure_node(o(1));
        // Forge a full node: MAX_DEGREE components with ids far from 0/1.
        let class = CLASSES - 1;
        g.pool = (0..BLOCK_MIN << class)
            .map(|i| o(1000 + i as u32))
            .collect();
        Spill {
            ends: [u16::MAX; SEGMENTS],
            start: 0,
            class: class as u8,
        }
        .store(&mut g.nodes[0]);
        for (from, to) in [(0, 1), (1, 0)] {
            assert_eq!(
                g.add_edge(RelKind::Configuration, o(from), o(to)),
                Err(GraphError::DegreeOverflow(o(0)))
            );
        }
        assert_eq!(
            g.add_edge(RelKind::Correspondence, o(1), o(0)),
            Err(GraphError::DegreeOverflow(o(0)))
        );
        assert_eq!(g.components(o(0)).len(), MAX_DEGREE);
        assert!(
            g.related(o(1)).is_empty(),
            "the other endpoint is untouched"
        );
        assert_eq!(g.edge_count(), 0);
        // One below the limit still fits.
        g.remove(o(0), 0, o(1000));
        g.add_edge(RelKind::VersionHistory, o(1), o(0)).unwrap();
        assert_eq!(g.degree(&g.nodes[0]), MAX_DEGREE);
        assert_eq!(g.ancestors(o(0)), &[o(1)]);
    }

    #[test]
    fn edges_iterator_covers_all_once() {
        let mut g = StructureGraph::new();
        g.add_edge(RelKind::Configuration, o(0), o(1)).unwrap();
        g.add_edge(RelKind::Correspondence, o(1), o(2)).unwrap();
        g.add_edge(RelKind::VersionHistory, o(0), o(2)).unwrap();
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all.len(), 3);
        assert!(all.contains(&(RelKind::Correspondence, o(1), o(2))));
    }

    #[test]
    fn neighbors_of_unknown_node_are_empty() {
        let g = StructureGraph::new();
        assert!(g.components(o(99)).is_empty());
        assert!(g.related(o(99)).is_empty());
    }
}
