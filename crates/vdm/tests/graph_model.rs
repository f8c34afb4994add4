//! Model-based tests for the compact structure graph: the graph it
//! replaced — eight `Vec`s per node and `HashSet` traversals — is kept
//! here as the reference, and every observable of the real graph must
//! equal the reference's after every step of a random edit sequence.

use proptest::prelude::*;
use semcluster_vdm::{Direction, GraphError, ObjectId, RelKind, StructureGraph, WalkScratch};
use std::collections::HashSet;

/// Longest run a node record holds inline (`graph::INLINE_CAP`).
const INLINE_CAP: usize = 7;

const DIRECTIONS: [Direction; 2] = [Direction::Forward, Direction::Backward];

#[derive(Debug, Clone, Default)]
struct Adjacency {
    out: [Vec<ObjectId>; 4],
    inc: [Vec<ObjectId>; 4],
}

/// The eight-`Vec` graph, as it stood before the compact layout.
#[derive(Debug, Clone, Default)]
struct RefGraph {
    nodes: Vec<Adjacency>,
    edges: u64,
}

impl RefGraph {
    fn ensure_node(&mut self, id: ObjectId) {
        if id.index() >= self.nodes.len() {
            self.nodes.resize_with(id.index() + 1, Adjacency::default);
        }
    }

    fn add_edge(&mut self, kind: RelKind, from: ObjectId, to: ObjectId) -> Result<(), GraphError> {
        if from == to {
            return Err(GraphError::SelfEdge(from));
        }
        self.ensure_node(from);
        self.ensure_node(to);
        let k = kind.index();
        if self.nodes[from.index()].out[k].contains(&to) {
            return Err(GraphError::DuplicateEdge(kind, from, to));
        }
        if kind == RelKind::VersionHistory && self.reaches(kind, to, from) {
            return Err(GraphError::VersionCycle(from, to));
        }
        self.nodes[from.index()].out[k].push(to);
        if kind.is_symmetric() {
            self.nodes[to.index()].out[k].push(from);
        } else {
            self.nodes[to.index()].inc[k].push(from);
        }
        self.edges += 1;
        Ok(())
    }

    fn remove_edge(
        &mut self,
        kind: RelKind,
        from: ObjectId,
        to: ObjectId,
    ) -> Result<(), GraphError> {
        let missing = GraphError::MissingEdge(kind, from, to);
        if from.index() >= self.nodes.len() || to.index() >= self.nodes.len() {
            return Err(missing);
        }
        let k = kind.index();
        let fwd = &mut self.nodes[from.index()].out[k];
        let Some(at) = fwd.iter().position(|&o| o == to) else {
            return Err(missing);
        };
        fwd.swap_remove(at);
        let node = &mut self.nodes[to.index()];
        let back = if kind.is_symmetric() {
            &mut node.out[k]
        } else {
            &mut node.inc[k]
        };
        let at = back.iter().position(|&o| o == from).unwrap();
        back.swap_remove(at);
        self.edges -= 1;
        Ok(())
    }

    fn neighbors(&self, id: ObjectId, kind: RelKind, dir: Direction) -> &[ObjectId] {
        let Some(adj) = self.nodes.get(id.index()) else {
            return &[];
        };
        match (kind.is_symmetric(), dir) {
            (true, _) | (false, Direction::Forward) => &adj.out[kind.index()],
            (false, Direction::Backward) => &adj.inc[kind.index()],
        }
    }

    fn related(&self, id: ObjectId) -> Vec<(RelKind, Direction, ObjectId)> {
        let mut out = Vec::new();
        for kind in RelKind::ALL {
            for dir in DIRECTIONS {
                if dir == Direction::Forward || !kind.is_symmetric() {
                    out.extend(
                        self.neighbors(id, kind, dir)
                            .iter()
                            .map(|&n| (kind, dir, n)),
                    );
                }
            }
        }
        out
    }

    fn edges(&self) -> Vec<(RelKind, ObjectId, ObjectId)> {
        let mut out = Vec::new();
        for (i, adj) in self.nodes.iter().enumerate() {
            let from = ObjectId(i as u32);
            for kind in RelKind::ALL {
                for &to in &adj.out[kind.index()] {
                    if !kind.is_symmetric() || from < to {
                        out.push((kind, from, to));
                    }
                }
            }
        }
        out
    }

    fn transitive_components(&self, root: ObjectId, limit: usize) -> Vec<ObjectId> {
        let mut out = Vec::new();
        let mut seen = HashSet::from([root]);
        let mut frontier = vec![root];
        'walk: while let Some(cur) = frontier.pop() {
            for &c in self.neighbors(cur, RelKind::Configuration, Direction::Forward) {
                if seen.insert(c) {
                    out.push(c);
                    frontier.push(c);
                    if out.len() >= limit {
                        break 'walk;
                    }
                }
            }
        }
        out
    }

    fn reaches(&self, kind: RelKind, from: ObjectId, to: ObjectId) -> bool {
        let mut seen = HashSet::from([from]);
        let mut frontier = vec![from];
        while let Some(cur) = frontier.pop() {
            if cur == to {
                return true;
            }
            for &n in self.neighbors(cur, kind, Direction::Forward) {
                if seen.insert(n) {
                    frontier.push(n);
                }
            }
        }
        false
    }
}

/// Every observable of `g` equals the reference's; returns the largest
/// degree so callers can tell the spill boundary was crossed.
fn assert_same(g: &StructureGraph, model: &RefGraph) -> usize {
    assert_eq!(g.node_slots(), model.nodes.len());
    assert_eq!(g.edge_count(), model.edges);
    assert_eq!(g.edges().collect::<Vec<_>>(), model.edges());
    let mut max_degree = 0;
    // One id past the end: unknown nodes read as empty on both sides.
    for i in 0..=model.nodes.len() as u32 {
        let id = ObjectId(i);
        for kind in RelKind::ALL {
            for dir in DIRECTIONS {
                assert_eq!(
                    g.neighbors(id, kind, dir),
                    model.neighbors(id, kind, dir),
                    "{id} {kind} {dir:?}"
                );
            }
        }
        let related = g.related(id);
        assert_eq!(related, model.related(id), "related({id})");
        max_degree = max_degree.max(related.len());
    }
    max_degree
}

const LIMITS: [usize; 5] = [0, 1, 8, 15, 10_000];

fn assert_same_walks(g: &StructureGraph, model: &RefGraph) {
    // One scratch and one buffer across all walks: reuse must not leak
    // state from one walk into the next.
    let mut walk = WalkScratch::default();
    let mut out = Vec::new();
    for root in 0..=model.nodes.len() as u32 {
        for limit in LIMITS {
            out.clear();
            g.transitive_components(ObjectId(root), limit, &mut walk, &mut out);
            assert_eq!(
                out,
                model.transitive_components(ObjectId(root), limit),
                "root o{root} limit {limit}"
            );
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Add(RelKind, u32, u32),
    Remove(RelKind, u32, u32),
    Ensure(u32),
}

fn kind_strategy() -> impl Strategy<Value = RelKind> {
    (0usize..4).prop_map(|k| RelKind::ALL[k])
}

/// Edits over `nodes` objects, adds twice as likely as removes; equal
/// endpoints, repeats and reversed version edges exercise every error.
fn op_strategy(nodes: u32) -> impl Strategy<Value = Op> {
    let edge = move || (kind_strategy(), 0..nodes, 0..nodes);
    prop_oneof![
        edge().prop_map(|(k, a, b)| Op::Add(k, a, b)),
        edge().prop_map(|(k, a, b)| Op::Add(k, a, b)),
        edge().prop_map(|(k, a, b)| Op::Remove(k, a, b)),
        (0..nodes + 4).prop_map(Op::Ensure),
    ]
}

/// Apply `op` to both graphs, which must answer alike; true if it took.
fn apply(g: &mut StructureGraph, model: &mut RefGraph, op: Op) -> bool {
    let (got, want) = match op {
        Op::Add(k, a, b) => (
            g.add_edge(k, ObjectId(a), ObjectId(b)),
            model.add_edge(k, ObjectId(a), ObjectId(b)),
        ),
        Op::Remove(k, a, b) => (
            g.remove_edge(k, ObjectId(a), ObjectId(b)),
            model.remove_edge(k, ObjectId(a), ObjectId(b)),
        ),
        Op::Ensure(a) => {
            g.ensure_node(ObjectId(a));
            model.ensure_node(ObjectId(a));
            (Ok(()), Ok(()))
        }
    };
    assert_eq!(got, want, "{op:?}");
    got.is_ok()
}

proptest! {
    /// Dense random edits on six objects: degrees wander across the
    /// inline capacity in both directions, and all four error paths fire.
    #[test]
    fn random_edits_match_the_eight_vec_reference(
        ops in proptest::collection::vec(op_strategy(6), 1..250),
    ) {
        let (mut g, mut model) = (StructureGraph::new(), RefGraph::default());
        for op in ops {
            apply(&mut g, &mut model, op);
            assert_same(&g, &model);
        }
        assert_same_walks(&g, &model);
    }

    /// A hub grows well past the inline capacity over every kind and
    /// direction, then loses every edge again in a random order.
    #[test]
    fn hub_spills_and_returns_inline(
        adds in proptest::collection::vec((kind_strategy(), 1u32..25, any::<bool>()), 40..80),
        removal_keys in proptest::collection::vec(any::<u64>(), 80),
    ) {
        let (mut g, mut model) = (StructureGraph::new(), RefGraph::default());
        let mut added = Vec::new();
        let mut peak = 0;
        for (kind, other, outward) in adds {
            let (a, b) = if outward { (0, other) } else { (other, 0) };
            if apply(&mut g, &mut model, Op::Add(kind, a, b)) {
                added.push((kind, a, b));
            }
            peak = peak.max(assert_same(&g, &model));
        }
        prop_assert!(peak > INLINE_CAP, "hub degree peaked at {}", peak);
        let mut keyed: Vec<_> = removal_keys.into_iter().zip(added).collect();
        keyed.sort();
        for (_, (kind, a, b)) in keyed {
            prop_assert!(apply(&mut g, &mut model, Op::Remove(kind, a, b)));
            assert_same(&g, &model);
        }
        prop_assert_eq!(g.edge_count(), 0);
    }

    /// Random configuration graphs — shared components and cycles occur
    /// freely — walk exactly as the `HashSet` traversal did.
    #[test]
    fn walks_match_the_hashset_reference(
        edges in proptest::collection::vec((0u32..14, 0u32..14), 1..60),
    ) {
        let (mut g, mut model) = (StructureGraph::new(), RefGraph::default());
        for (a, b) in edges {
            apply(&mut g, &mut model, Op::Add(RelKind::Configuration, a, b));
        }
        assert_same_walks(&g, &model);
    }
}

#[test]
fn walks_on_a_shared_component_dag_and_on_a_cycle() {
    let build = |edges: &[(u32, u32)]| {
        let (mut g, mut model) = (StructureGraph::new(), RefGraph::default());
        for &(a, b) in edges {
            apply(&mut g, &mut model, Op::Add(RelKind::Configuration, a, b));
        }
        (g, model)
    };
    // Diamonds: 3 is shared by 1 and 2, 6 by 3, 4 and 5; 20 leaves
    // under 6 push the closure past every small limit.
    let mut dag = vec![
        (0, 1),
        (0, 2),
        (1, 3),
        (2, 3),
        (1, 4),
        (2, 5),
        (3, 6),
        (4, 6),
        (5, 6),
    ];
    dag.extend((7..27).map(|leaf| (6, leaf)));
    let (g, model) = build(&dag);
    assert_same_walks(&g, &model);
    let mut out = Vec::new();
    g.transitive_components(ObjectId(0), 10_000, &mut WalkScratch::default(), &mut out);
    assert_eq!(out.len(), 26, "every object below the root exactly once");

    // 0 → 1 → 2 → 0 with a tail: the walk must terminate and never
    // report the root.
    let (g, model) = build(&[(0, 1), (1, 2), (2, 0), (2, 3), (3, 1)]);
    assert_same_walks(&g, &model);
    out.clear();
    g.transitive_components(ObjectId(0), 10_000, &mut WalkScratch::default(), &mut out);
    assert_eq!(out, [ObjectId(1), ObjectId(2), ObjectId(3)]);
}

/// The segments a hub can fill, in run order, as (kind, outward): the
/// symmetric kind keeps both directions in its forward segment, so its
/// backward segment (the sixth) stays empty and only moves with the
/// segments before it.
const FILLABLE: [(RelKind, bool); INLINE_CAP] = [
    (RelKind::Configuration, true),
    (RelKind::Configuration, false),
    (RelKind::VersionHistory, true),
    (RelKind::VersionHistory, false),
    (RelKind::Correspondence, true),
    (RelKind::Inheritance, true),
    (RelKind::Inheritance, false),
];

/// Crossing the inline capacity lands in each segment in turn: an insert
/// taking the hub (object 0) from 7 to 8 edges and a remove taking it
/// from 8 back to 7, both in that segment. The seven base edges lie one
/// per segment, all in the first, all in the last, or all in the landing
/// segment itself, so every nibble shift, up and down, moves ends that
/// are and are not zero.
#[test]
fn every_segment_crosses_the_inline_capacity_both_ways() {
    let edge = |(kind, outward): (RelKind, bool), other: u32| {
        if outward {
            (kind, 0, other)
        } else {
            (kind, other, 0)
        }
    };
    for landing in FILLABLE {
        let layouts = [
            FILLABLE,
            [FILLABLE[0]; INLINE_CAP],
            [FILLABLE[INLINE_CAP - 1]; INLINE_CAP],
            [landing; INLINE_CAP],
        ];
        for layout in layouts {
            // Remove either the newcomer or the landing segment's oldest
            // id, so the swap-remove fills the gap from either end.
            let oldest = layout.iter().position(|&s| s == landing);
            for victim in std::iter::once(100).chain(oldest.map(|at| at as u32 + 1)) {
                let (mut g, mut model) = (StructureGraph::new(), RefGraph::default());
                for (other, s) in (1..).zip(layout) {
                    let (k, a, b) = edge(s, other);
                    assert!(apply(&mut g, &mut model, Op::Add(k, a, b)));
                }
                assert_eq!(assert_same(&g, &model), INLINE_CAP);
                let (k, a, b) = edge(landing, 100);
                assert!(apply(&mut g, &mut model, Op::Add(k, a, b)));
                assert_eq!(assert_same(&g, &model), INLINE_CAP + 1, "spilled");
                let (k, a, b) = edge(landing, victim);
                assert!(apply(&mut g, &mut model, Op::Remove(k, a, b)));
                assert_eq!(assert_same(&g, &model), INLINE_CAP, "back inline");
                // The reinstated record spills again just the same.
                assert!(apply(&mut g, &mut model, Op::Add(k, a, b)));
                assert_same(&g, &model);
            }
        }
    }
}
