//! Run-time reclustering and the page-overflow (split) decision.
//!
//! Two pieces of §2.1 live here:
//!
//! * [`consider_split`] — when the preferred candidate page is full, split
//!   it if the expected access cost after splitting beats placing the new
//!   object on the next-best candidate; otherwise fall through.
//! * [`plan_recluster_in`] — when an existing object's structure changes, the
//!   run-time reclustering algorithm re-evaluates its placement and moves
//!   it if the expected-cost improvement clears a threshold.

use crate::arena::ScoreScratch;
use crate::config::{ClusteringPolicy, SplitPolicy};
use crate::cost::{
    candidate_pages_in, extended_neighbors_in, placement_cost, weighted_neighbors_in, WeightModel,
};
use crate::placement::{ExaminedCandidate, ResidencyView};
use crate::split::{build_dependency_graph_in, linear_split_in, optimal_split, Partition};
use semcluster_storage::{PageId, StorageError, StorageManager, PAGE_OVERHEAD_BYTES};
use semcluster_vdm::{Database, ObjectId};

/// Fixed cost (in arc-weight units) charged to a split for its extra
/// physical work: allocating and flushing the new page plus the extra log
/// record (§5.1.2).
pub const SPLIT_OVERHEAD_WEIGHT: f64 = 2.0;

/// A split the engine should carry out.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitPlan {
    /// The page being split.
    pub page: PageId,
    /// The partition: `left` stays, `right` moves to a fresh page.
    pub partition: Partition,
    /// Objects in node-index order of the partition (page residents plus
    /// the incoming object as the last node).
    pub objects: Vec<ObjectId>,
    /// Sizes parallel to `objects`.
    pub sizes: Vec<u32>,
}

impl SplitPlan {
    /// The residents the split carries to the new page, with their
    /// sizes, in node order.
    pub fn moved(&self) -> impl Iterator<Item = (ObjectId, u32)> + '_ {
        let incoming_idx = self.objects.len() - 1;
        let right = self.partition.right.iter().map(|&idx| idx as usize);
        right
            .filter(move |&idx| idx != incoming_idx)
            .map(|idx| (self.objects[idx], self.sizes[idx]))
    }
}

impl ScoreScratch {
    /// Return a consumed [`SplitPlan`]'s lists so the next
    /// [`consider_split`] reuses their capacity instead of allocating.
    pub fn put_split(&mut self, plan: SplitPlan) {
        self.graph.objects = plan.objects;
        self.graph.sizes = plan.sizes;
        self.split.lists = (plan.partition.left, plan.partition.right);
    }
}

/// Decide whether to split `full_page` to make room for `incoming`.
///
/// `next_best_affinity` is the affinity the object would enjoy on the best
/// candidate that *does* have room (0 if none). Splitting wins when
/// `partition.broken_cost + SPLIT_OVERHEAD_WEIGHT` is below the affinity
/// forfeited by going elsewhere.
///
/// A returned plan's lists are recycled from `scratch`; hand the plan
/// back with [`ScoreScratch::put_split`] once it has been executed.
#[allow(clippy::too_many_arguments)]
pub fn consider_split(
    db: &Database,
    store: &StorageManager,
    model: &WeightModel,
    policy: SplitPolicy,
    full_page: PageId,
    full_page_affinity: f64,
    next_best_affinity: f64,
    incoming: (ObjectId, u32),
    scratch: &mut ScoreScratch,
) -> Option<SplitPlan> {
    if policy == SplitPolicy::NoSplit {
        return None;
    }
    // `broken_cost` is a sum of non-negative weights and `fl(a + b) >= b`
    // for `a >= 0`, so a split never costs less than its overhead: when
    // the overhead alone does not beat the next-best candidate, no
    // partition can (a NaN on either side compares false both ways).
    let cost_of_next_best = full_page_affinity - next_best_affinity;
    let can_pay_off = SPLIT_OVERHEAD_WEIGHT < cost_of_next_best;
    if !can_pay_off {
        return None;
    }
    let capacity = store.page_bytes() - PAGE_OVERHEAD_BYTES;
    build_dependency_graph_in(db, store, model, full_page, Some(incoming), scratch);
    let ScoreScratch { graph, split, .. } = scratch;
    let partition = match policy {
        SplitPolicy::NoSplit => unreachable!("handled above"),
        SplitPolicy::Linear => linear_split_in(graph, capacity, split).ok()?,
        SplitPolicy::Optimal => optimal_split(graph, capacity).ok()?,
    };
    if partition.broken_cost + SPLIT_OVERHEAD_WEIGHT < cost_of_next_best {
        Some(SplitPlan {
            page: full_page,
            partition,
            objects: std::mem::take(&mut graph.objects),
            sizes: std::mem::take(&mut graph.sizes),
        })
    } else {
        split.lists = (partition.left, partition.right);
        None
    }
}

/// What a split did, for I/O accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitOutcome {
    /// The freshly allocated page.
    pub new_page: PageId,
    /// Where the incoming object landed.
    pub incoming_page: PageId,
}

/// Execute a split plan: allocate the new page, move the `right` side
/// ([`SplitPlan::moved`]) there, and place the incoming object (the last
/// node) on its assigned side.
pub fn execute_split(
    store: &mut StorageManager,
    plan: &SplitPlan,
) -> Result<SplitOutcome, StorageError> {
    let new_page = store.allocate_page();
    let incoming_idx = plan.objects.len() - 1;
    let mut incoming_page = plan.page;
    for &idx in &plan.partition.right {
        if idx as usize == incoming_idx {
            incoming_page = new_page;
        } else {
            store.move_object(plan.objects[idx as usize], new_page)?;
        }
    }
    store.place(
        plan.objects[incoming_idx],
        plan.sizes[incoming_idx],
        incoming_page,
    )?;
    Ok(SplitOutcome {
        new_page,
        incoming_page,
    })
}

/// A reclustering move the engine should carry out.
#[derive(Debug, Clone, PartialEq)]
pub struct ReclusterPlan {
    /// Page to move the object to.
    pub to: PageId,
    /// Expected-cost improvement of the move.
    pub gain: f64,
    /// Non-resident candidate pages read during the search.
    pub search_ios: u32,
    /// Pages examined, in order, with the expected-cost gain each
    /// offered and whether it had room.
    pub examined: Vec<ExaminedCandidate>,
}

/// Re-evaluate the placement of an existing object after its structure
/// changed. Returns a move when a candidate page (reachable under
/// `policy`'s I/O budget) improves expected access cost by more than
/// `min_gain` and has room.
///
/// A returned plan's `examined` list is recycled from `scratch`; hand it
/// back with [`ScoreScratch::put_examined`] once the plan has been
/// consumed.
#[allow(clippy::too_many_arguments)]
pub fn plan_recluster_in(
    db: &Database,
    store: &StorageManager,
    residency: &impl ResidencyView,
    policy: ClusteringPolicy,
    model: &WeightModel,
    object: ObjectId,
    min_gain: f64,
    scratch: &mut ScoreScratch,
) -> Option<ReclusterPlan> {
    if !policy.clusters() {
        return None;
    }
    let current = store.page_of(object)?;
    let size = store
        .objects_on(current)
        .ok()?
        .iter()
        .find(|&&(o, _)| o == object)
        .map(|&(_, s)| s)?;
    weighted_neighbors_in(db, model, object, scratch);
    if scratch.direct.is_empty() {
        return None;
    }
    let current_cost = placement_cost(store, &scratch.direct, current);
    // A placement cost is a sum of non-negative weights, so no move gains
    // more than `current_cost`: if that does not clear `min_gain`, no
    // candidate can (a NaN on either side compares false both ways).
    let can_gain = current_cost > min_gain;
    if !can_gain {
        return None;
    }
    // Examine every candidate the I/O budget allows (the paper's
    // "amount of I/O allowed to the clustering algorithm as it examines
    // candidate pages for reclustering") and move to the best one. The
    // pool is the extended (two-hop) cluster neighbourhood; the expected
    // access cost that decides the move uses the direct arcs only.
    extended_neighbors_in(db, store, model, object, scratch);
    candidate_pages_in(store, scratch);
    let mut io_budget = policy.io_budget();
    let mut search_ios = 0;
    let mut examined = scratch.take_examined();
    let mut best: Option<(PageId, f64)> = None;
    for i in 0..scratch.pages.len() {
        let (page, _aff) = scratch.pages[i];
        if page == current {
            continue;
        }
        if examined.len() >= crate::placement::MAX_EXAMINED {
            break;
        }
        if !residency.is_resident(page) {
            if io_budget == 0 {
                continue;
            }
            io_budget -= 1;
            search_ios += 1;
        }
        let fits = store.page(page).map(|p| p.fits(size)).unwrap_or(false);
        let gain = current_cost - placement_cost(store, &scratch.direct, page);
        examined.push(ExaminedCandidate {
            page,
            score: gain,
            fits,
        });
        if !fits {
            continue;
        }
        if gain > min_gain && best.map(|(_, g)| gain > g).unwrap_or(true) {
            best = Some((page, gain));
        }
    }
    match best {
        Some((to, gain)) => Some(ReclusterPlan {
            to,
            gain,
            search_ios,
            examined,
        }),
        None => {
            scratch.put_examined(examined);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::AllResident;
    use semcluster_storage::DEFAULT_PAGE_BYTES;
    use semcluster_vdm::{ObjectName, RelFrequencies, RelKind, TypeLattice};

    fn mkdb() -> (Database, semcluster_vdm::TypeId) {
        let mut lattice = TypeLattice::new();
        let t = lattice
            .define_simple(
                "layout",
                RelFrequencies {
                    config_down: 4.0,
                    config_up: 4.0,
                    ..RelFrequencies::UNIFORM
                },
            )
            .unwrap();
        (Database::with_lattice(lattice), t)
    }

    #[test]
    fn split_chosen_when_affinity_is_high() {
        let (mut db, t) = mkdb();
        let mut store = StorageManager::new(DEFAULT_PAGE_BYTES);
        let page = store.allocate_page();
        let cap = store.page(page).unwrap().capacity();
        // Two tight sub-clusters filling the page.
        let mut ids = Vec::new();
        for i in 0..8 {
            let id = db
                .create_object(ObjectName::new(format!("O{i}"), 1, "layout"), t, 10)
                .unwrap();
            store.place(id, cap / 8, page).unwrap();
            ids.push(id);
        }
        for w in 0..3 {
            db.relate(RelKind::Configuration, ids[w], ids[w + 1])
                .unwrap();
            db.relate(RelKind::Configuration, ids[4 + w], ids[5 + w])
                .unwrap();
        }
        // Incoming object strongly tied to the first sub-cluster.
        let incoming = db
            .create_object(ObjectName::new("IN", 1, "layout"), t, 100)
            .unwrap();
        db.relate(RelKind::Configuration, ids[0], incoming).unwrap();
        db.relate(RelKind::Configuration, ids[1], incoming).unwrap();

        let model = WeightModel::no_hints();
        let plan = consider_split(
            &db,
            &store,
            &model,
            SplitPolicy::Linear,
            page,
            8.0, // affinity to the full page
            0.0, // nothing else has any affinity
            (incoming, 100),
            &mut ScoreScratch::new(),
        );
        let plan = plan.expect("high affinity forfeit should justify a split");
        let outcome = execute_split(&mut store, &plan).unwrap();
        assert_eq!(store.page_of(incoming), Some(outcome.incoming_page));
        // Every object is placed somewhere, and the original page now has
        // room to spare.
        assert!(store.page(page).unwrap().free() > 0);
    }

    #[test]
    fn no_split_policy_never_splits() {
        let (mut db, t) = mkdb();
        let mut store = StorageManager::new(DEFAULT_PAGE_BYTES);
        let page = store.allocate_page();
        let a = db
            .create_object(ObjectName::new("A", 1, "layout"), t, 10)
            .unwrap();
        store.place(a, 10, page).unwrap();
        let b = db
            .create_object(ObjectName::new("B", 1, "layout"), t, 10)
            .unwrap();
        assert_eq!(
            consider_split(
                &db,
                &store,
                &WeightModel::no_hints(),
                SplitPolicy::NoSplit,
                page,
                100.0,
                0.0,
                (b, 10),
                &mut ScoreScratch::new(),
            ),
            None
        );
    }

    #[test]
    fn cheap_alternative_beats_split() {
        let (mut db, t) = mkdb();
        let mut store = StorageManager::new(DEFAULT_PAGE_BYTES);
        let page = store.allocate_page();
        let a = db
            .create_object(ObjectName::new("A", 1, "layout"), t, 10)
            .unwrap();
        store.place(a, 10, page).unwrap();
        let b = db
            .create_object(ObjectName::new("B", 1, "layout"), t, 10)
            .unwrap();
        db.relate(RelKind::Configuration, a, b).unwrap();
        // Next-best candidate nearly as good: splitting cannot pay off its
        // overhead.
        let plan = consider_split(
            &db,
            &store,
            &WeightModel::no_hints(),
            SplitPolicy::Optimal,
            page,
            4.0,
            3.5,
            (b, 10),
            &mut ScoreScratch::new(),
        );
        assert_eq!(plan, None);
    }

    /// The shortcut's boundary: forfeiting exactly the split overhead
    /// can never pay for a split, the next representable value above it
    /// can — so that call must reach the partitioner, which here breaks
    /// nothing (the objects are unrelated).
    #[test]
    fn shortcut_declines_at_the_overhead_and_plans_just_above_it() {
        let (mut db, t) = mkdb();
        let mut store = StorageManager::new(DEFAULT_PAGE_BYTES);
        let page = store.allocate_page();
        let [a, b, incoming] = ["A", "B", "IN"].map(|n| {
            db.create_object(ObjectName::new(n, 1, "layout"), t, 10)
                .unwrap()
        });
        store.place(a, 10, page).unwrap();
        store.place(b, 10, page).unwrap();
        let mut scratch = ScoreScratch::new();
        let mut consider = |forfeited: f64| {
            consider_split(
                &db,
                &store,
                &WeightModel::no_hints(),
                SplitPolicy::Linear,
                page,
                forfeited,
                0.0,
                (incoming, 10),
                &mut scratch,
            )
        };
        assert_eq!(consider(SPLIT_OVERHEAD_WEIGHT), None);
        let just_above = f64::from_bits(SPLIT_OVERHEAD_WEIGHT.to_bits() + 1);
        let plan = consider(just_above).expect("a free partition costs only the overhead");
        assert_eq!(plan.partition.broken_cost, 0.0);
        assert_eq!(plan.objects, [a, b, incoming]);
        assert!(
            plan.moved().eq([(a, 10)]),
            "the first smallest resident crosses"
        );
    }

    #[test]
    fn recluster_moves_toward_relatives() {
        let (mut db, t) = mkdb();
        let mut store = StorageManager::new(DEFAULT_PAGE_BYTES);
        let home = store.allocate_page();
        let far = store.allocate_page();
        let obj = db
            .create_object(ObjectName::new("X", 1, "layout"), t, 50)
            .unwrap();
        store.place(obj, 50, far).unwrap();
        let mut relatives = Vec::new();
        for i in 0..3 {
            let r = db
                .create_object(ObjectName::new(format!("R{i}"), 1, "layout"), t, 50)
                .unwrap();
            db.relate(RelKind::Configuration, r, obj).unwrap();
            store.place(r, 50, home).unwrap();
            relatives.push(r);
        }
        let plan = plan_recluster_in(
            &db,
            &store,
            &AllResident,
            ClusteringPolicy::NoLimit,
            &WeightModel::no_hints(),
            obj,
            0.0,
            &mut ScoreScratch::new(),
        )
        .expect("relatives all live on `home`");
        assert_eq!(plan.to, home);
        assert!(plan.gain > 0.0);
        store.move_object(obj, plan.to).unwrap();
        assert!(store.co_resident(obj, relatives[0]));
    }

    /// `X` on a page of its own, its one relative `R` on `home`: moving
    /// `X` home gains the whole current cost, the config_up weight 4.0.
    fn one_relative_away() -> (Database, StorageManager, ObjectId, PageId) {
        let (mut db, t) = mkdb();
        let mut store = StorageManager::new(DEFAULT_PAGE_BYTES);
        let home = store.allocate_page();
        let far = store.allocate_page();
        let obj = db
            .create_object(ObjectName::new("X", 1, "layout"), t, 50)
            .unwrap();
        store.place(obj, 50, far).unwrap();
        let r = db
            .create_object(ObjectName::new("R", 1, "layout"), t, 50)
            .unwrap();
        db.relate(RelKind::Configuration, r, obj).unwrap();
        store.place(r, 50, home).unwrap();
        (db, store, obj, home)
    }

    /// The shortcut's boundary: no move gains more than the current
    /// cost, so a threshold equal to it declines, and the next
    /// representable value below it must reach the candidate loop, where
    /// `home` gains all of it.
    #[test]
    fn recluster_declines_at_the_current_cost_and_plans_just_below_it() {
        let (db, store, obj, home) = one_relative_away();
        let mut scratch = ScoreScratch::new();
        let mut plan = |min_gain: f64| {
            plan_recluster_in(
                &db,
                &store,
                &AllResident,
                ClusteringPolicy::NoLimit,
                &WeightModel::no_hints(),
                obj,
                min_gain,
                &mut scratch,
            )
        };
        assert_eq!(plan(4.0), None);
        let just_below = f64::from_bits(4.0f64.to_bits() - 1);
        let plan = plan(just_below).expect("home gains the whole current cost");
        assert_eq!((plan.to, plan.gain), (home, 4.0));
    }

    #[test]
    fn recluster_respects_threshold_and_policy() {
        let (db, store, obj, _) = one_relative_away();
        // Gain is 4.0 (config_up weight); a higher threshold blocks it.
        assert!(plan_recluster_in(
            &db,
            &store,
            &AllResident,
            ClusteringPolicy::NoLimit,
            &WeightModel::no_hints(),
            obj,
            10.0,
            &mut ScoreScratch::new(),
        )
        .is_none());
        // NoCluster never reclusters.
        assert!(plan_recluster_in(
            &db,
            &store,
            &AllResident,
            ClusteringPolicy::NoCluster,
            &WeightModel::no_hints(),
            obj,
            0.0,
            &mut ScoreScratch::new(),
        )
        .is_none());
        // Zero-I/O policy with nothing resident cannot see the candidate.
        struct NoneRes;
        impl ResidencyView for NoneRes {
            fn is_resident(&self, _p: PageId) -> bool {
                false
            }
        }
        assert!(plan_recluster_in(
            &db,
            &store,
            &NoneRes,
            ClusteringPolicy::WithinBuffer,
            &WeightModel::no_hints(),
            obj,
            0.0,
            &mut ScoreScratch::new(),
        )
        .is_none());
    }
}
