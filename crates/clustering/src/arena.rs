//! Reusable scratch arenas for the clustering hot path.
//!
//! The scoring functions in [`crate::cost`] accumulate arc weights per
//! related object and per candidate page — thousands of placement
//! decisions per run at full paper scale (≈1.6 M objects), where a map
//! and a fresh vector per decision would dominate the hot phases.
//! [`ScoreScratch`] gives them a [`SlotIndex`] per key kind instead: it
//! maps a key touched in the current round to its entry in the output
//! list, clearing between decisions is one epoch bump, and every output
//! list is a reusable vector whose capacity persists across calls. The
//! indexes hold one round's keys, never a slot per object or page, so
//! nothing in a scratch grows with the database.
//!
//! ## Determinism contract
//!
//! The accumulators are *bit-for-bit* equivalent to the naive map-based
//! fold kept as the model in `tests/arena_equivalence.rs`:
//!
//! * weights are folded per key straight into the output list, in
//!   first-touch order and in exactly the traversal order of
//!   [`StructureGraph::for_each_related`], so each key's `f64` sum sees
//!   the identical addition sequence; the index only says where a key's
//!   entry is and cannot be iterated, so its bucket order never reaches
//!   a sum;
//! * output lists are sorted with a *total* comparator (weight
//!   descending, id ascending — keys are unique, so there are no ties),
//!   which makes `sort_unstable_by` produce the identical permutation a
//!   stable sort does, without the stable sort's scratch allocation.
//!
//! * the split planner's dependency graph
//!   ([`build_dependency_graph_in`](crate::build_dependency_graph_in))
//!   folds each pair's arc weight with nodes ascending and, within a
//!   node, in `for_each_related` order; its arcs and groups carry unique
//!   keys, so they too are sorted in place.
//!
//! The proptest suite holds them against the reference across
//! randomized databases.
//!
//! [`StructureGraph::for_each_related`]: semcluster_vdm::StructureGraph::for_each_related

use crate::placement::ExaminedCandidate;
use crate::split::{DependencyGraph, SplitScratch, SPLIT_NODE_CAPACITY};
use crate::MAX_EXAMINED;
use semcluster_storage::PageId;
use semcluster_vdm::{ObjectId, SlotIndex};

/// Keys a round holds without growing, and the initial capacity of the
/// reusable score/candidate output lists. Sized far above any realistic
/// cluster neighbourhood (high-density workloads top out near a few
/// hundred extended neighbours) so steady-state scoring never grows them
/// inside a profiled phase.
const SCORE_LIST_CAPACITY: usize = 4096;

/// Fold `w` into `key`'s entry in `out`, creating the entry in
/// first-touch order; `index` maps `raw` (the key's id) to that entry.
/// The per-key addition sequence is exactly the caller's call sequence,
/// matching the map-based reference fold.
#[inline]
pub(crate) fn fold<K: Copy>(
    index: &mut SlotIndex,
    out: &mut Vec<(K, f64)>,
    raw: u32,
    key: K,
    w: f64,
) {
    match index.get_or_insert(raw, out.len() as u32) {
        Some(slot) => out[slot as usize].1 += w,
        None => out.push((key, w)),
    }
}

/// The canonical score ordering: weight descending, id ascending. Keys
/// are unique, so this is a strict total order and `sort_unstable_by`
/// (in-place, allocation-free) yields the identical permutation a stable
/// sort would.
#[inline]
pub(crate) fn sort_scored<K: Ord + Copy>(v: &mut [(K, f64)]) {
    v.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
}

/// Reusable scratch space for one scoring pipeline: direct neighbours →
/// extended (two-hop) neighbourhood → candidate pages → examined
/// candidates, and for the split planner that runs when the preferred
/// page is full. Own one per engine (or per load pass) and thread it
/// through the `_in` function variants; all capacity lives here and is
/// reused decision after decision.
#[derive(Debug, Clone)]
pub struct ScoreScratch {
    /// Object id → entry (direct and extended rounds), and the split
    /// planner's object → node index.
    pub(crate) obj: SlotIndex,
    /// Page id → entry (candidate-page round).
    pub(crate) page: SlotIndex,
    /// Direct weighted neighbours, sorted weight-desc/id-asc.
    pub direct: Vec<(ObjectId, f64)>,
    /// Extended (two-hop) neighbourhood, sorted weight-desc/id-asc.
    pub extended: Vec<(ObjectId, f64)>,
    /// Candidate pages, sorted affinity-desc/id-asc.
    pub pages: Vec<(PageId, f64)>,
    /// Recyclable examined-candidates buffer handed to placement plans
    /// and returned by the caller once the plan is consumed.
    examined: Vec<ExaminedCandidate>,
    /// The split planner's dependency graph; its `objects` / `sizes` are
    /// lent to a returned plan and come back through `put_split`.
    pub(crate) graph: DependencyGraph,
    /// The split planner's working arrays and recycled partition lists.
    pub(crate) split: SplitScratch,
}

impl Default for ScoreScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl ScoreScratch {
    /// Empty scratch; the indexes and lists grow on demand.
    pub fn new() -> Self {
        ScoreScratch {
            obj: SlotIndex::with_capacity(0),
            page: SlotIndex::with_capacity(0),
            direct: Vec::new(),
            extended: Vec::new(),
            pages: Vec::new(),
            examined: Vec::with_capacity(MAX_EXAMINED),
            graph: DependencyGraph::default(),
            split: SplitScratch::default(),
        }
    }

    /// Scratch whose indexes and output lists start at steady-state
    /// capacity, so the profiled scoring phases never allocate — what
    /// the engine builds up front. A round holds one neighbourhood, not
    /// the database, so the capacity does not depend on the `objects`
    /// and `pages` the database has.
    pub fn with_capacity(_objects: usize, _pages: usize) -> Self {
        let mut s = ScoreScratch::new();
        s.obj = SlotIndex::with_capacity(SCORE_LIST_CAPACITY);
        s.page = SlotIndex::with_capacity(SCORE_LIST_CAPACITY);
        s.direct.reserve(SCORE_LIST_CAPACITY);
        s.extended.reserve(SCORE_LIST_CAPACITY);
        s.pages.reserve(SCORE_LIST_CAPACITY);
        s
    }

    /// Pre-size the split planner's buffers for a full page, so an owner
    /// that splits — the engine; a load pass never does — plans without
    /// allocating inside its profiled phase.
    pub fn reserve_split(&mut self) {
        self.graph.objects.reserve(SPLIT_NODE_CAPACITY);
        self.graph.sizes.reserve(SPLIT_NODE_CAPACITY);
        self.graph.arcs.reserve(4 * SPLIT_NODE_CAPACITY);
        self.split = SplitScratch::with_capacity();
    }

    /// Hand out the recycled examined-candidates buffer (cleared, with
    /// capacity for a full search).
    pub(crate) fn take_examined(&mut self) -> Vec<ExaminedCandidate> {
        let mut v = std::mem::take(&mut self.examined);
        v.clear();
        v
    }

    /// Return an examined buffer (typically from a consumed
    /// [`crate::PlacementPlan`] or [`crate::ReclusterPlan`]) so the next
    /// search reuses its capacity instead of allocating.
    pub fn put_examined(&mut self, mut v: Vec<ExaminedCandidate>) {
        v.clear();
        if v.capacity() > self.examined.capacity() {
            self.examined = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Entries come out in first-touch order, each key's terms summed
    /// into its first slot; a cleared index starts the next round empty.
    #[test]
    fn dense_acc_folds_in_first_touch_order() {
        let mut index = SlotIndex::with_capacity(0);
        let mut out: Vec<(u32, f64)> = Vec::new();
        fold(&mut index, &mut out, 5, 5, 1.0);
        fold(&mut index, &mut out, 2, 2, 2.0);
        fold(&mut index, &mut out, 5, 5, 0.5);
        assert_eq!(out, vec![(5, 1.5), (2, 2.0)]);
        out.clear();
        index.clear();
        fold(&mut index, &mut out, 2, 2, 4.0);
        assert_eq!(out, vec![(2, 4.0)]);
    }

    /// The fold sums each key in arrival order: 1e16 + 1 + 1 loses both
    /// ones, 1 + 1 + 1e16 keeps them, so a fold in any other order shows
    /// in the bits.
    #[test]
    fn compact_fold_sums_in_arrival_order() {
        let terms = [
            (7u32, 1e16),
            (3, 1.0),
            (7, 1.0),
            (3, 1.0),
            (7, 1.0),
            (3, 1e16),
        ];
        let mut index = SlotIndex::with_capacity(0);
        let mut out: Vec<(u32, f64)> = Vec::new();
        for &(id, w) in &terms {
            fold(&mut index, &mut out, id, id, w);
        }
        assert_eq!(out, vec![(7, 1e16), (3, 1e16 + 2.0)]);
    }

    #[test]
    fn sort_scored_is_weight_desc_id_asc() {
        let mut v = vec![(3u32, 1.0), (1, 2.0), (2, 1.0)];
        sort_scored(&mut v);
        assert_eq!(v, vec![(1, 2.0), (2, 1.0), (3, 1.0)]);
    }

    #[test]
    fn examined_buffer_recycles_capacity() {
        let mut s = ScoreScratch::new();
        let buf = s.take_examined();
        assert!(buf.capacity() >= MAX_EXAMINED);
        let cap = buf.capacity();
        s.put_examined(buf);
        assert_eq!(s.take_examined().capacity(), cap);
    }
}
