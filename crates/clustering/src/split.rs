//! Page splitting.
//!
//! When the preferred candidate page cannot hold a new object, the storage
//! manager may split it: partition the page's inheritance-dependency graph
//! into two subsets that each fit a page, minimising the total weight of
//! broken arcs. Exact minimisation is graph partitioning (NP-complete), so
//! the paper proposes a greedy single-pass alternative and shows the
//! response-time difference is negligible:
//!
//! * [`linear_split`] — the greedy algorithm: one scan over the arc list,
//!   merging endpoint groups when the merged group still fits a page;
//!   linear in the number of arcs. The engine's decision
//!   ([`crate::consider_split`]) builds the graph and runs this on its
//!   [`ScoreScratch`], allocating nothing.
//! * [`optimal_split`] — the "NP split": exhaustive minimum-broken-cost
//!   partition (exact up to [`MAX_EXACT_NODES`] nodes, after which it
//!   falls back to the greedy result refined by a local-improvement pass).

use crate::arena::ScoreScratch;
use crate::cost::WeightModel;
use semcluster_storage::{PageId, StorageManager};
use semcluster_vdm::{Database, ObjectId};
use std::fmt;

/// Largest node count for which [`optimal_split`] enumerates exhaustively.
pub const MAX_EXACT_NODES: usize = 20;

/// Nodes the engine's split scratch is pre-sized for: a 4 KiB page of
/// the smallest objects the workloads create stays well below it, so the
/// profiled `split_plan` phase never grows a buffer.
pub(crate) const SPLIT_NODE_CAPACITY: usize = 128;

/// "No next member" in [`SplitScratch::next`].
const NO_NODE: u32 = u32::MAX;

/// The inheritance-dependency graph of one page (plus, optionally, the
/// incoming object that caused the overflow).
#[derive(Debug, Clone, Default)]
pub struct DependencyGraph {
    /// The objects, in node-index order.
    pub objects: Vec<ObjectId>,
    /// Object sizes in bytes, parallel to `objects`.
    pub sizes: Vec<u32>,
    /// Undirected weighted arcs `(node, node, weight)`, heaviest first.
    pub arcs: Vec<(u32, u32, f64)>,
}

impl DependencyGraph {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Sum of all arc weights.
    pub fn total_arc_weight(&self) -> f64 {
        self.arcs.iter().map(|&(_, _, w)| w).sum()
    }
}

/// The split planner's working arrays in a [`ScoreScratch`], beside the
/// graph they serve. Everything is refilled per overflow and keeps its
/// capacity, so planning a split allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct SplitScratch {
    /// `pair_slot[a * n + b]` is one more than the index in the graph's
    /// `arcs` of the arc joining nodes `a <= b`, or 0. All zero between
    /// builds.
    pair_slot: Vec<u32>,
    /// Union-find parent; a group's root is its smallest member.
    parent: Vec<u32>,
    /// Bytes in the group rooted at each index.
    group_size: Vec<u64>,
    /// Next member (ascending) of the same group, or [`NO_NODE`].
    next: Vec<u32>,
    /// `(bytes, root)` per group.
    groups: Vec<(u64, u32)>,
    side: Vec<bool>,
    /// Recycled lists of the [`Partition`] handed out.
    pub(crate) lists: (Vec<u32>, Vec<u32>),
}

impl SplitScratch {
    /// Scratch whose every buffer already holds a full page's graph.
    pub(crate) fn with_capacity() -> Self {
        let n = SPLIT_NODE_CAPACITY;
        SplitScratch {
            pair_slot: vec![0; n * n],
            parent: Vec::with_capacity(n),
            group_size: Vec::with_capacity(n),
            next: Vec::with_capacity(n),
            groups: Vec::with_capacity(n),
            side: Vec::with_capacity(n),
            lists: (Vec::with_capacity(n), Vec::with_capacity(n)),
        }
    }
}

/// Build the dependency graph of `page`'s residents, optionally including
/// the overflowing `incoming` object, in `scratch` (object → node through
/// the object index). Arc weights sum both endpoints' directed traversal
/// frequencies under `model`, folded nodes ascending and, within a node,
/// in [`for_each_related`](semcluster_vdm::StructureGraph::for_each_related)
/// order — the determinism contract in [`crate::arena`]. Arcs are left
/// heaviest-first so the single-scan greedy keeps the most valuable arcs.
pub fn build_dependency_graph_in<'s>(
    db: &Database,
    store: &StorageManager,
    model: &WeightModel,
    page: PageId,
    incoming: Option<(ObjectId, u32)>,
    scratch: &'s mut ScoreScratch,
) -> &'s DependencyGraph {
    let (graph, pair_slot) = (&mut scratch.graph, &mut scratch.split.pair_slot);
    let node_of = &mut scratch.obj;
    graph.objects.clear();
    graph.sizes.clear();
    graph.arcs.clear();
    node_of.clear();
    let residents = store.objects_on(page).unwrap_or(&[]);
    for &(o, s) in residents.iter().chain(incoming.iter()) {
        node_of.insert(o.0, graph.objects.len() as u32);
        graph.objects.push(o);
        graph.sizes.push(s);
    }
    let (objects, arcs) = (&graph.objects, &mut graph.arcs);
    let n = objects.len();
    if pair_slot.len() < n * n {
        pair_slot.resize(n * n, 0);
    }
    for (i, &o) in (0u32..).zip(objects) {
        let Ok(freqs) = db.frequencies_of(o) else {
            continue;
        };
        db.graph().for_each_related(o, |kind, dir, other| {
            if let Some(j) = node_of.get(other.0) {
                let (a, b) = (i.min(j), i.max(j));
                let w = model.arc_weight(kind, freqs.weight(kind, dir));
                let slot = &mut pair_slot[a as usize * n + b as usize];
                if *slot == 0 {
                    arcs.push((a, b, 0.0 + w));
                    *slot = arcs.len() as u32;
                } else {
                    arcs[*slot as usize - 1].2 += w;
                }
            }
            true
        });
    }
    for &(a, b, _) in arcs.iter() {
        pair_slot[a as usize * n + b as usize] = 0;
    }
    // Pairs are unique, so the comparator is a strict total order and the
    // in-place unstable sort yields the one permutation a stable sort would.
    arcs.sort_unstable_by(|x, y| {
        y.2.partial_cmp(&x.2)
            .expect("finite")
            .then((x.0, x.1).cmp(&(y.0, y.1)))
    });
    graph
}

/// A two-way partition of a dependency graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Node indexes staying on the original page.
    pub left: Vec<u32>,
    /// Node indexes moving to the freshly allocated page.
    pub right: Vec<u32>,
    /// Total weight of arcs crossing the partition.
    pub broken_cost: f64,
    /// Whether the result is provably minimal.
    pub exact: bool,
}

/// Errors raised by partitioning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplitError {
    /// A single object exceeds the page capacity.
    NodeTooLarge(ObjectId, u32),
    /// No two-way packing of the nodes fits two pages.
    DoesNotFit,
    /// The graph has fewer than two nodes — nothing to split.
    TooSmall,
}

impl fmt::Display for SplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitError::NodeTooLarge(o, s) => write!(f, "object {o} ({s} B) exceeds a page"),
            SplitError::DoesNotFit => f.write_str("no two-page packing exists"),
            SplitError::TooSmall => f.write_str("fewer than two nodes"),
        }
    }
}

impl std::error::Error for SplitError {}

impl Partition {
    /// The partition `side` describes (`true` = right), listed into the
    /// given (possibly recycled) vectors.
    fn from_sides(
        side: &[bool],
        (mut left, mut right): (Vec<u32>, Vec<u32>),
        broken_cost: f64,
        exact: bool,
    ) -> Self {
        left.clear();
        right.clear();
        for (i, &r) in side.iter().enumerate() {
            if r { &mut right } else { &mut left }.push(i as u32);
        }
        Partition {
            left,
            right,
            broken_cost,
            exact,
        }
    }
}

fn check_inputs(g: &DependencyGraph, capacity: u32) -> Result<(), SplitError> {
    if g.len() < 2 {
        return Err(SplitError::TooSmall);
    }
    for (i, &s) in g.sizes.iter().enumerate() {
        if s > capacity {
            return Err(SplitError::NodeTooLarge(g.objects[i], s));
        }
    }
    Ok(())
}

fn crossing_cost(g: &DependencyGraph, side: &[bool]) -> f64 {
    g.arcs
        .iter()
        .filter(|&&(a, b, _)| side[a as usize] != side[b as usize])
        .map(|&(_, _, w)| w)
        .sum()
}

fn find(parent: &mut [u32], x: u32) -> u32 {
    let mut root = x;
    while parent[root as usize] != root {
        root = parent[root as usize];
    }
    let mut cur = x;
    while parent[cur as usize] != root {
        let next = parent[cur as usize];
        parent[cur as usize] = root;
        cur = next;
    }
    root
}

/// The first of the two bins with room for `size` more bytes.
fn first_fit(bin_used: &[u64; 2], size: u64, capacity: u64) -> Option<usize> {
    (0..2).find(|&bin| bin_used[bin] + size <= capacity)
}

/// The greedy single-pass partitioner.
///
/// One scan over the (heaviest-first) arc list: merge the endpoint groups
/// whenever the merged group still fits one page, keeping heavy arcs
/// internal. The resulting groups are then packed into the two pages by
/// first-fit decreasing.
pub fn linear_split(g: &DependencyGraph, capacity: u32) -> Result<Partition, SplitError> {
    linear_split_in(g, capacity, &mut SplitScratch::default())
}

/// [`linear_split`] on caller-owned working arrays. The partition's
/// `left` / `right` are `work.lists`, taken; whoever drops the partition
/// puts them back.
pub(crate) fn linear_split_in(
    g: &DependencyGraph,
    capacity: u32,
    work: &mut SplitScratch,
) -> Result<Partition, SplitError> {
    check_inputs(g, capacity)?;
    let n = g.len();
    let capacity = capacity as u64;
    let SplitScratch {
        parent,
        group_size,
        next,
        groups,
        side,
        lists,
        ..
    } = work;

    // Union-find with group byte sizes.
    parent.clear();
    parent.extend(0..n as u32);
    group_size.clear();
    group_size.extend(g.sizes.iter().map(|&s| s as u64));
    for &(a, b, _) in &g.arcs {
        let ra = find(parent, a);
        let rb = find(parent, b);
        if ra != rb && group_size[ra as usize] + group_size[rb as usize] <= capacity {
            let (keep, gone) = (ra.min(rb), ra.max(rb));
            parent[gone as usize] = keep;
            group_size[keep as usize] += group_size[gone as usize];
        }
    }

    // Chain every group's members, ascending, behind its root.
    next.clear();
    next.resize(n, NO_NODE);
    for m in (0..n as u32).rev() {
        let root = find(parent, m);
        if root != m {
            next[m as usize] = next[root as usize];
            next[root as usize] = m;
        }
    }
    groups.clear();
    groups.extend(
        (0..n as u32)
            .filter(|&i| parent[i as usize] == i)
            .map(|i| (group_size[i as usize], i)),
    );
    // First-fit decreasing into two bins; ties broken by member ids for
    // determinism. Groups are disjoint and a root is its group's first
    // member, so comparing roots compares the member lists.
    groups.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut bin_used = [0u64; 2];
    side.clear();
    side.resize(n, false);
    for &(size, root) in groups.iter() {
        // A group fits a page (merge invariant); when neither bin has
        // room for all of it, it is packed member-by-member instead.
        let whole = first_fit(&bin_used, size, capacity);
        let mut m = root;
        while m != NO_NODE {
            let s = g.sizes[m as usize] as u64;
            let bin = match whole {
                Some(bin) => bin,
                None => first_fit(&bin_used, s, capacity).ok_or(SplitError::DoesNotFit)?,
            };
            bin_used[bin] += s;
            side[m as usize] = bin == 1;
            m = next[m as usize];
        }
    }
    // Degenerate packing (everything on one side) is useless as a split:
    // move the smallest node to the empty side.
    let on_right = side.iter().filter(|&&s| s).count();
    if on_right == 0 || on_right == n {
        let (idx, _) = g
            .sizes
            .iter()
            .enumerate()
            .min_by_key(|&(_, &s)| s)
            .expect("non-empty");
        side[idx] = on_right == 0;
    }

    let cost = crossing_cost(g, side);
    Ok(Partition::from_sides(
        side,
        std::mem::take(lists),
        cost,
        false,
    ))
}

/// The exact minimum-broken-cost partition ("NP split").
///
/// Enumerates all `2^(n-1)` assignments for up to [`MAX_EXACT_NODES`]
/// nodes (node 0 pinned to the left side by symmetry); both sides must fit
/// `capacity` and be non-empty. Beyond the exact limit it refines the
/// greedy result with a single local-improvement pass, returning
/// `exact = false`.
pub fn optimal_split(g: &DependencyGraph, capacity: u32) -> Result<Partition, SplitError> {
    check_inputs(g, capacity)?;
    let n = g.len();
    if n > MAX_EXACT_NODES {
        return local_improve(g, capacity, linear_split(g, capacity)?);
    }
    let mut best: Option<(f64, Vec<bool>)> = None;
    let mut side = vec![false; n];
    // Node 0 stays left; enumerate assignments of nodes 1..n.
    #[allow(clippy::needless_range_loop)]
    // `i` simultaneously indexes `side`, `g.sizes` and the mask
    for mask in 0u64..(1u64 << (n - 1)) {
        let mut left_size = g.sizes[0] as u64;
        let mut right_size = 0u64;
        for i in 1..n {
            let right = (mask >> (i - 1)) & 1 == 1;
            side[i] = right;
            if right {
                right_size += g.sizes[i] as u64;
            } else {
                left_size += g.sizes[i] as u64;
            }
        }
        if right_size == 0 || left_size > capacity as u64 || right_size > capacity as u64 {
            continue;
        }
        let cost = crossing_cost(g, &side);
        if best.as_ref().map(|(c, _)| cost < *c).unwrap_or(true) {
            best = Some((cost, side.clone()));
        }
    }
    let (cost, side) = best.ok_or(SplitError::DoesNotFit)?;
    Ok(Partition::from_sides(&side, Default::default(), cost, true))
}

/// One pass of single-node moves that reduce crossing cost while keeping
/// both sides within capacity.
fn local_improve(
    g: &DependencyGraph,
    capacity: u32,
    start: Partition,
) -> Result<Partition, SplitError> {
    let n = g.len();
    let mut side = vec![false; n];
    for &r in &start.right {
        side[r as usize] = true;
    }
    let mut used = [0u64; 2];
    for (i, &right) in side.iter().enumerate() {
        used[right as usize] += g.sizes[i] as u64;
    }
    let mut cost = start.broken_cost;
    #[allow(clippy::needless_range_loop)] // index used across three arrays
    for i in 0..n {
        let from = side[i] as usize;
        let to = 1 - from;
        let s = g.sizes[i] as u64;
        if used[to] + s > capacity as u64 || used[from] == s {
            continue;
        }
        // Delta: arcs to the other side become internal, internal arcs
        // become crossing.
        let mut delta = 0.0;
        for &(a, b, w) in &g.arcs {
            let (a, b) = (a as usize, b as usize);
            if a != i && b != i {
                continue;
            }
            let other = if a == i { b } else { a };
            if side[other] != side[i] {
                delta -= w;
            } else {
                delta += w;
            }
        }
        if delta < 0.0 {
            side[i] = !side[i];
            used[from] -= s;
            used[to] += s;
            cost += delta;
        }
    }
    Ok(Partition::from_sides(
        &side,
        Default::default(),
        cost,
        false,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(sizes: &[u32], arcs: &[(u32, u32, f64)]) -> DependencyGraph {
        let mut arcs = arcs.to_vec();
        arcs.sort_by(|x, y| y.2.partial_cmp(&x.2).unwrap());
        DependencyGraph {
            objects: (0..sizes.len() as u32).map(ObjectId).collect(),
            sizes: sizes.to_vec(),
            arcs,
        }
    }

    #[test]
    fn two_clusters_split_cleanly() {
        // 0-1 heavy, 2-3 heavy, light bridge 1-2.
        let g = graph(
            &[100, 100, 100, 100],
            &[(0, 1, 10.0), (2, 3, 10.0), (1, 2, 1.0)],
        );
        let lin = linear_split(&g, 250).unwrap();
        let opt = optimal_split(&g, 250).unwrap();
        assert_eq!(lin.broken_cost, 1.0);
        assert_eq!(opt.broken_cost, 1.0);
        assert!(opt.exact);
        assert_eq!(opt.left.len() + opt.right.len(), 4);
    }

    #[test]
    fn optimal_never_worse_than_linear() {
        // A ring where greedy can be tricked.
        let g = graph(
            &[60, 60, 60, 60, 60],
            &[
                (0, 1, 5.0),
                (1, 2, 4.0),
                (2, 3, 5.0),
                (3, 4, 4.0),
                (4, 0, 3.0),
            ],
        );
        let lin = linear_split(&g, 200).unwrap();
        let opt = optimal_split(&g, 200).unwrap();
        assert!(opt.broken_cost <= lin.broken_cost + 1e-12);
        assert!(opt.broken_cost > 0.0, "a ring always breaks somewhere");
    }

    #[test]
    fn capacity_constrains_sides() {
        let g = graph(&[100, 100, 100], &[(0, 1, 1.0), (1, 2, 1.0)]);
        let opt = optimal_split(&g, 200).unwrap();
        for side in [&opt.left, &opt.right] {
            let bytes: u32 = side.iter().map(|&i| g.sizes[i as usize]).sum();
            assert!(bytes <= 200);
        }
        let lin = linear_split(&g, 200).unwrap();
        for side in [&lin.left, &lin.right] {
            let bytes: u32 = side.iter().map(|&i| g.sizes[i as usize]).sum();
            assert!(bytes <= 200);
        }
    }

    #[test]
    fn impossible_packings_error() {
        let g = graph(&[150, 150, 150], &[(0, 1, 1.0)]);
        assert_eq!(optimal_split(&g, 200), Err(SplitError::DoesNotFit));
        assert!(linear_split(&g, 200).is_err());
        let g2 = graph(&[300, 10], &[(0, 1, 1.0)]);
        assert!(matches!(
            optimal_split(&g2, 200),
            Err(SplitError::NodeTooLarge(_, 300))
        ));
        let g3 = graph(&[10], &[]);
        assert_eq!(linear_split(&g3, 200), Err(SplitError::TooSmall));
    }

    #[test]
    fn both_sides_always_non_empty() {
        // No arcs at all: greedy must still produce a real split.
        let g = graph(&[50, 50, 50], &[]);
        let lin = linear_split(&g, 200).unwrap();
        assert!(!lin.left.is_empty() && !lin.right.is_empty());
        let opt = optimal_split(&g, 200).unwrap();
        assert!(!opt.left.is_empty() && !opt.right.is_empty());
        assert_eq!(opt.broken_cost, 0.0);
    }

    #[test]
    fn large_graphs_fall_back_to_heuristic() {
        let n = MAX_EXACT_NODES + 5;
        let sizes: Vec<u32> = vec![10; n];
        let arcs: Vec<(u32, u32, f64)> = (0..n as u32 - 1).map(|i| (i, i + 1, 1.0)).collect();
        let g = graph(&sizes, &arcs);
        let p = optimal_split(&g, 200).unwrap();
        assert!(!p.exact);
        assert!(p.broken_cost >= 1.0, "a chain split breaks ≥1 arc");
    }

    #[test]
    fn dependency_graph_totals() {
        let g = graph(&[10, 10], &[(0, 1, 2.5)]);
        assert_eq!(g.len(), 2);
        assert!(!g.is_empty());
        assert_eq!(g.total_arc_weight(), 2.5);
    }
}
