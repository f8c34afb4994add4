//! Dense, reusable scratch arenas for the clustering hot path.
//!
//! The scoring functions in [`crate::cost`] accumulate arc weights per
//! related object and per candidate page — thousands of placement
//! decisions per run at full paper scale (≈1.6 M objects), where a map
//! and a fresh vector per decision would dominate the hot phases.
//! [`ScoreScratch`] gives them *epoch-stamped dense arrays* indexed by
//! `ObjectId` / `PageId` instead: clearing between decisions is a single
//! epoch bump, touched keys are recorded in first-touch order, and every
//! output list is a reusable vector whose capacity persists across calls.
//!
//! ## Determinism contract
//!
//! The accumulators are *bit-for-bit* equivalent to the naive map-based
//! fold kept as the model in `tests/arena_equivalence.rs`:
//!
//! * weights are accumulated per key in exactly the traversal order of
//!   [`StructureGraph::for_each_related`], so each key's `f64` sum sees
//!   the identical addition sequence;
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
//! A [`ScoreScratch::compact`] scratch keeps no object-indexed array:
//! its direct and extended rounds tag each term with its arrival, sort
//! the terms by (id, arrival) and sum each id's run in that order — the
//! same addition sequence per key, so the same `f64`s, with no state
//! that grows with the database. A load's scoring threads use it.
//!
//! The proptest suite holds the two against each other across
//! randomized databases.
//!
//! [`StructureGraph::for_each_related`]: semcluster_vdm::StructureGraph::for_each_related

use crate::placement::ExaminedCandidate;
use crate::split::{DependencyGraph, SplitScratch, SPLIT_NODE_CAPACITY};
use crate::MAX_EXAMINED;
use semcluster_storage::PageId;
use semcluster_vdm::ObjectId;

/// Initial capacity of the reusable score/candidate output lists. Sized
/// far above any realistic cluster neighbourhood (high-density workloads
/// top out near a few hundred extended neighbours) so steady-state scoring
/// never grows them inside a profiled phase.
const SCORE_LIST_CAPACITY: usize = 4096;

/// An epoch-stamped dense accumulator: `stamp[i] == epoch` marks index
/// `i` as touched in the current round, `slot[i]` points at its entry in
/// the caller's output list. Resetting between rounds is one epoch bump —
/// no clearing, no rehashing, no allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct DenseAcc {
    stamp: Vec<u32>,
    slot: Vec<u32>,
    epoch: u32,
}

impl DenseAcc {
    /// Start a new accumulation round.
    pub(crate) fn begin(&mut self) {
        if self.epoch == u32::MAX {
            // Epoch wrap: physically clear the stamps once every 2^32
            // rounds so a stale stamp can never collide with a new epoch.
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Grow the stamp arrays to cover `n` indices.
    pub(crate) fn ensure(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.slot.resize(n, 0);
        }
    }

    /// Fold `w` into `key`'s entry in `out`, creating the entry in
    /// first-touch order. The per-key addition sequence is exactly the
    /// caller's call sequence, matching the map-based reference fold.
    #[inline]
    pub(crate) fn add<K: Copy>(&mut self, out: &mut Vec<(K, f64)>, index: usize, key: K, w: f64) {
        if index >= self.stamp.len() {
            self.ensure(index + 1);
        }
        if self.stamp[index] == self.epoch {
            out[self.slot[index] as usize].1 += w;
        } else {
            self.stamp[index] = self.epoch;
            self.slot[index] = out.len() as u32;
            out.push((key, w));
        }
    }

    /// Record `slot` for `index` in the current round.
    #[inline]
    pub(crate) fn mark(&mut self, index: usize, slot: u32) {
        if index >= self.stamp.len() {
            self.ensure(index + 1);
        }
        self.stamp[index] = self.epoch;
        self.slot[index] = slot;
    }

    /// The slot recorded for `index` in the current round, if any.
    #[inline]
    pub(crate) fn slot_of(&self, index: usize) -> Option<u32> {
        (self.stamp.get(index) == Some(&self.epoch)).then(|| self.slot[index])
    }
}

/// The object-keyed fold behind the direct and extended rounds: the
/// dense accumulator, or — in a compact scratch — a sort of the round's
/// terms (module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct ObjFold {
    /// The dense accumulator; also the split planner's object → node
    /// index.
    pub(crate) dense: DenseAcc,
    /// A compact scratch's terms, keyed `id << 32 | arrival`.
    terms: Option<Vec<(u64, f64)>>,
}

impl ObjFold {
    /// Start a new round.
    pub(crate) fn begin(&mut self) {
        match &mut self.terms {
            Some(terms) => terms.clear(),
            None => self.dense.begin(),
        }
    }

    /// Fold `w` into `key`'s entry: straight into `out` when dense, into
    /// the terms (for [`ObjFold::finish`]) when compact.
    #[inline]
    pub(crate) fn add(&mut self, out: &mut Vec<(ObjectId, f64)>, key: ObjectId, w: f64) {
        match &mut self.terms {
            Some(terms) => {
                let arrival = terms.len() as u64;
                terms.push(((key.0 as u64) << 32 | arrival, w));
            }
            None => self.dense.add(out, key.index(), key, w),
        }
    }

    /// End the round. A compact fold sums each key's terms in arrival
    /// order and pushes one entry per key onto `out`; a dense one has
    /// already done so.
    pub(crate) fn finish(&mut self, out: &mut Vec<(ObjectId, f64)>) {
        let Some(terms) = &mut self.terms else {
            return;
        };
        terms.sort_unstable_by_key(|&(key, _)| key);
        for run in terms.chunk_by(|a, b| a.0 >> 32 == b.0 >> 32) {
            let sum = run[1..].iter().fold(run[0].1, |sum, &(_, w)| sum + w);
            out.push((ObjectId((run[0].0 >> 32) as u32), sum));
        }
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
    /// Object-keyed fold (direct and extended rounds, and the split
    /// planner's object → node index).
    pub(crate) obj: ObjFold,
    /// Page-indexed accumulator (candidate-page round).
    pub(crate) page: DenseAcc,
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
    /// Empty scratch; arrays grow on demand.
    pub fn new() -> Self {
        ScoreScratch {
            obj: ObjFold::default(),
            page: DenseAcc::default(),
            direct: Vec::new(),
            extended: Vec::new(),
            pages: Vec::new(),
            examined: Vec::with_capacity(MAX_EXAMINED),
            graph: DependencyGraph::default(),
            split: SplitScratch::default(),
        }
    }

    /// Scratch whose direct and extended rounds fold by sorting their
    /// terms instead of through an array over every object id, so it
    /// holds nothing that grows with the database: for a load's scoring
    /// threads, where dense arrays would raise the peak (module docs).
    pub fn compact() -> Self {
        let mut s = ScoreScratch::new();
        s.obj.terms = Some(Vec::new());
        s
    }

    /// Scratch pre-sized for a database of `objects` objects on `pages`
    /// pages, with output lists at steady-state capacity — the engine
    /// builds one of these up front so the profiled scoring phases never
    /// allocate.
    pub fn with_capacity(objects: usize, pages: usize) -> Self {
        let mut s = ScoreScratch::new();
        s.ensure_capacity(objects, pages);
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

    /// Grow the dense index arrays to cover `objects` / `pages`. Call
    /// from outside any profiled phase whenever ids may have grown; the
    /// accumulators also self-grow as a safety net, but that growth would
    /// be attributed to the phase it happens in.
    pub fn ensure_capacity(&mut self, objects: usize, pages: usize) {
        self.obj.dense.ensure(objects);
        self.page.ensure(pages);
        if self.examined.capacity() < MAX_EXAMINED {
            self.examined.reserve(MAX_EXAMINED - self.examined.len());
        }
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

    #[test]
    fn dense_acc_folds_in_first_touch_order() {
        let mut acc = DenseAcc::default();
        let mut out: Vec<(u32, f64)> = Vec::new();
        acc.begin();
        acc.add(&mut out, 5, 5u32, 1.0);
        acc.add(&mut out, 2, 2u32, 2.0);
        acc.add(&mut out, 5, 5u32, 0.5);
        assert_eq!(out, vec![(5, 1.5), (2, 2.0)]);
        // Next round: epoch bump, no clearing needed.
        out.clear();
        acc.begin();
        acc.add(&mut out, 2, 2u32, 4.0);
        assert_eq!(out, vec![(2, 4.0)]);
    }

    #[test]
    fn epoch_wrap_clears_stamps() {
        let mut acc = DenseAcc::default();
        let mut out: Vec<(u32, f64)> = Vec::new();
        acc.begin();
        acc.add(&mut out, 0, 0u32, 1.0);
        acc.epoch = u32::MAX; // force the wrap path
        out.clear();
        acc.begin();
        assert_eq!(acc.epoch, 1);
        acc.add(&mut out, 0, 0u32, 3.0);
        assert_eq!(out, vec![(0, 3.0)]);
    }

    #[test]
    fn sort_scored_is_weight_desc_id_asc() {
        let mut v = vec![(3u32, 1.0), (1, 2.0), (2, 1.0)];
        sort_scored(&mut v);
        assert_eq!(v, vec![(1, 2.0), (2, 1.0), (3, 1.0)]);
    }

    /// The compact fold sums each key in arrival order, as the dense one
    /// does: 1e16 + 1 + 1 loses both ones, 1 + 1 + 1e16 keeps them, so a
    /// fold in any other order shows in the bits.
    #[test]
    fn compact_fold_sums_in_arrival_order() {
        let terms = [(7u32, 1e16), (3, 0.5), (7, 1.0), (7, 1.0), (3, 1e16)];
        let fold = |mut fold: ObjFold| {
            let mut out = Vec::new();
            fold.begin();
            for &(id, w) in &terms {
                fold.add(&mut out, ObjectId(id), w);
            }
            fold.finish(&mut out);
            sort_scored(&mut out);
            out
        };
        let dense = fold(ObjFold::default());
        let compact = fold(ScoreScratch::compact().obj);
        assert_eq!(dense, vec![(ObjectId(3), 1e16), (ObjectId(7), 1e16)]);
        assert_eq!(compact, dense);
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
