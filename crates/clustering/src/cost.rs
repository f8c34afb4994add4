//! The arc-weight / expected-access-cost model.
//!
//! Every structural or inheritance edge incident to an object is an *arc*
//! whose weight is the expected traversal frequency: the object's
//! type-inherited [`RelFrequencies`] profile, optionally scaled by the
//! session's user hint. The clustering algorithm wants co-referenced
//! (high-weight) objects on one page; the expected access cost of a
//! placement is the total weight of arcs it leaves crossing page
//! boundaries.

use crate::arena::{sort_scored, ScoreScratch};
use crate::config::HintPolicy;
use semcluster_buffer::AccessHint;
use semcluster_storage::{PageId, StorageManager};
use semcluster_vdm::{Database, ObjectId, RelKind};

/// How strongly a user hint amplifies its relationship's weights.
pub const HINT_MULTIPLIER: f64 = 4.0;

/// The weight model: hint policy + the session's declared access pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightModel {
    /// Whether hints are honoured (Table 4.1 parameter J).
    pub hint_policy: HintPolicy,
    /// The session's declared primary access pattern.
    pub session_hint: AccessHint,
    /// Multiplier applied to the hinted relationship's weights.
    pub hint_multiplier: f64,
}

impl WeightModel {
    /// Weight model that ignores hints.
    pub fn no_hints() -> Self {
        WeightModel {
            hint_policy: HintPolicy::NoHints,
            session_hint: AccessHint::None,
            hint_multiplier: HINT_MULTIPLIER,
        }
    }

    /// Weight model honouring `hint`.
    pub fn with_hint(hint: AccessHint) -> Self {
        WeightModel {
            hint_policy: HintPolicy::UserHints,
            session_hint: hint,
            hint_multiplier: HINT_MULTIPLIER,
        }
    }

    /// Which relationship kind the active hint amplifies (None when hints
    /// are disabled or the session declared none).
    pub fn hinted_kind(&self) -> Option<RelKind> {
        if self.hint_policy == HintPolicy::NoHints {
            return None;
        }
        match self.session_hint {
            AccessHint::None => None,
            AccessHint::ByConfiguration => Some(RelKind::Configuration),
            AccessHint::ByVersionHistory => Some(RelKind::VersionHistory),
            AccessHint::ByCorrespondence => Some(RelKind::Correspondence),
            AccessHint::ByInheritance => Some(RelKind::Inheritance),
        }
    }

    /// Effective weight of one arc of `kind` incident to an object whose
    /// type profile gives it `base` weight.
    pub fn arc_weight(&self, kind: RelKind, base: f64) -> f64 {
        match self.hinted_kind() {
            Some(h) if h == kind => base * self.hint_multiplier,
            _ => base,
        }
    }
}

/// Weight discount applied to two-hop cluster-neighbourhood arcs.
pub const TWO_HOP_DECAY: f64 = 0.25;

/// All objects related to `object`, with effective arc weights, left in
/// `scratch.direct` sorted weight descending, id ascending. Parallel
/// arcs (e.g. an object that is both a component and a correspondent)
/// are merged by summing weights in traversal order (the determinism
/// contract in [`crate::arena`]).
pub fn weighted_neighbors_in(
    db: &Database,
    model: &WeightModel,
    object: ObjectId,
    scratch: &mut ScoreScratch,
) {
    scratch.direct.clear();
    let Ok(freqs) = db.frequencies_of(object) else {
        return;
    };
    scratch.obj.begin();
    let ScoreScratch { obj, direct, .. } = scratch;
    db.graph().for_each_related(object, |kind, dir, other| {
        let base = freqs.weight(kind, dir);
        let w = model.arc_weight(kind, base);
        obj.add(direct, other.index(), other, w);
        true
    });
    sort_scored(&mut scratch.direct);
}

/// The extended cluster neighbourhood of `object`: direct relatives plus
/// their relatives at decayed weight. The clustering algorithm explores
/// this wider pool when searching candidate pages — a cluster often has
/// room on a page adjacent (in graph terms) to the full preferred page —
/// and it is precisely this exploration whose I/O the candidate-pool
/// policy bounds. Reads the direct neighbours already in
/// `scratch.direct` (fill with [`weighted_neighbors_in`] first) and
/// leaves the sorted two-hop neighbourhood in `scratch.extended`.
pub fn extended_neighbors_in(
    db: &Database,
    model: &WeightModel,
    object: ObjectId,
    scratch: &mut ScoreScratch,
) {
    scratch.extended.clear();
    scratch.obj.begin();
    let ScoreScratch {
        obj,
        direct,
        extended,
        ..
    } = scratch;
    // Seed with the direct neighbours, in their sorted order.
    for &(id, w) in direct.iter() {
        obj.add(extended, id.index(), id, w);
    }
    for &(hop, w1) in direct.iter() {
        let Ok(freqs) = db.frequencies_of(hop) else {
            continue;
        };
        db.graph().for_each_related(hop, |kind, dir, two| {
            if two == object {
                return true;
            }
            let w2 = model.arc_weight(kind, freqs.weight(kind, dir));
            obj.add(extended, two.index(), two, TWO_HOP_DECAY * w1.min(w2));
            true
        });
    }
    sort_scored(extended);
}

/// Candidate pages for placing an object, scored by total affinity (sum
/// of arc weights of related objects resident on the page), best first:
/// scores the pages holding the extended neighbourhood already in
/// `scratch.extended` and leaves the sorted candidates in
/// `scratch.pages`. Unplaced related objects contribute nothing.
pub fn candidate_pages_in(store: &StorageManager, scratch: &mut ScoreScratch) {
    scratch.pages.clear();
    scratch.page.begin();
    let ScoreScratch {
        page: acc,
        extended,
        pages,
        ..
    } = scratch;
    for &(obj, w) in extended.iter() {
        if let Some(page) = store.page_of(obj) {
            acc.add(pages, page.index(), page, w);
        }
    }
    sort_scored(pages);
}

/// Expected access cost of having `object` on `page`: total arc weight to
/// related objects *not* co-resident on `page`. Lower is better.
pub fn placement_cost(store: &StorageManager, neighbors: &[(ObjectId, f64)], page: PageId) -> f64 {
    neighbors
        .iter()
        .filter(|&&(o, _)| store.page_of(o) != Some(page))
        .map(|&(_, w)| w)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcluster_storage::DEFAULT_PAGE_BYTES;
    use semcluster_vdm::{ObjectName, RelFrequencies, TypeLattice};

    fn fixture() -> (Database, StorageManager, ObjectId, [ObjectId; 3]) {
        let mut lattice = TypeLattice::new();
        let layout = lattice
            .define_simple(
                "layout",
                RelFrequencies {
                    config_down: 3.0,
                    config_up: 1.0,
                    version_up: 2.0,
                    version_down: 0.5,
                    correspondence: 1.0,
                    inheritance: 1.0,
                },
            )
            .unwrap();
        let netlist = lattice
            .define_simple("netlist", RelFrequencies::UNIFORM)
            .unwrap();
        let mut db = Database::with_lattice(lattice);
        let x = db
            .create_object(ObjectName::new("X", 2, "layout"), layout, 100)
            .unwrap();
        let comp = db
            .create_object(ObjectName::new("C", 1, "layout"), layout, 100)
            .unwrap();
        let parent = db
            .create_object(ObjectName::new("X", 1, "layout"), layout, 100)
            .unwrap();
        let corr = db
            .create_object(ObjectName::new("X", 2, "netlist"), netlist, 100)
            .unwrap();
        db.relate(RelKind::Configuration, x, comp).unwrap();
        db.relate(RelKind::VersionHistory, parent, x).unwrap();
        db.relate(RelKind::Correspondence, x, corr).unwrap();

        let mut store = StorageManager::new(DEFAULT_PAGE_BYTES);
        for o in [x, comp, parent, corr] {
            store.append(o, 100).unwrap();
        }
        (db, store, x, [comp, parent, corr])
    }

    fn direct(db: &Database, model: &WeightModel, object: ObjectId) -> Vec<(ObjectId, f64)> {
        let mut scratch = ScoreScratch::new();
        weighted_neighbors_in(db, model, object, &mut scratch);
        scratch.direct
    }

    #[test]
    fn neighbors_weighted_by_type_profile() {
        let (db, _, x, [comp, parent, corr]) = fixture();
        let n = direct(&db, &WeightModel::no_hints(), x);
        let get = |o| n.iter().find(|&&(id, _)| id == o).map(|&(_, w)| w);
        assert_eq!(get(comp), Some(3.0)); // config_down
        assert_eq!(get(parent), Some(2.0)); // version_up (x → ancestor)
        assert_eq!(get(corr), Some(1.0)); // correspondence
        assert_eq!(n[0].0, comp, "sorted by weight descending");
    }

    #[test]
    fn hints_amplify_their_relationship() {
        let (db, _, x, [comp, _, corr]) = fixture();
        let model = WeightModel::with_hint(AccessHint::ByCorrespondence);
        let n = direct(&db, &model, x);
        let get = |o| n.iter().find(|&&(id, _)| id == o).map(|&(_, w)| w);
        assert_eq!(get(corr), Some(4.0)); // 1.0 × HINT_MULTIPLIER
        assert_eq!(get(comp), Some(3.0)); // untouched
    }

    #[test]
    fn hint_policy_no_hints_ignores_session_hint() {
        let model = WeightModel {
            hint_policy: HintPolicy::NoHints,
            session_hint: AccessHint::ByConfiguration,
            hint_multiplier: 10.0,
        };
        assert_eq!(model.hinted_kind(), None);
        assert_eq!(model.arc_weight(RelKind::Configuration, 2.0), 2.0);
    }

    #[test]
    fn candidate_pages_aggregate_affinity() {
        let (db, mut store, x, [comp, parent, corr]) = fixture();
        // Put comp and parent on one page, corr elsewhere.
        let shared = store.allocate_page();
        store.move_object(comp, shared).unwrap();
        store.move_object(parent, shared).unwrap();
        // Score the direct neighbourhood alone: x's relatives have no
        // relatives of their own besides x.
        let mut scratch = ScoreScratch::new();
        scratch.extended = direct(&db, &WeightModel::no_hints(), x);
        candidate_pages_in(&store, &mut scratch);
        let cands = &scratch.pages;
        assert_eq!(cands[0].0, shared);
        assert!((cands[0].1 - 5.0).abs() < 1e-12); // 3 + 2
        assert_eq!(cands.len(), 2);
        let _ = corr;
    }

    /// A scratch reused dirty across objects of different degrees must
    /// score exactly as a fresh one does (the map-based reference fold
    /// lives in `tests/arena_equivalence.rs`).
    #[test]
    fn scratch_scoring_matches_reference() {
        let (db, mut store, x, [comp, parent, _]) = fixture();
        let shared = store.allocate_page();
        store.move_object(comp, shared).unwrap();
        store.move_object(parent, shared).unwrap();
        let model = WeightModel::with_hint(AccessHint::ByConfiguration);
        let mut scratch = ScoreScratch::new();
        for probe in [x, comp, parent] {
            let mut fresh = ScoreScratch::new();
            for s in [&mut scratch, &mut fresh] {
                weighted_neighbors_in(&db, &model, probe, s);
                extended_neighbors_in(&db, &model, probe, s);
                candidate_pages_in(&store, s);
            }
            assert_eq!(scratch.direct, fresh.direct);
            assert_eq!(scratch.extended, fresh.extended);
            assert_eq!(scratch.pages, fresh.pages);
        }
        // comp's only relative is x (config_up 1.0 × 4); x's other
        // relatives arrive two-hop at 0.25 × min(4.0, their arc).
        weighted_neighbors_in(&db, &model, comp, &mut scratch);
        extended_neighbors_in(&db, &model, comp, &mut scratch);
        assert_eq!(scratch.direct, vec![(x, 4.0)]);
        assert_eq!(scratch.extended[0], (x, 4.0));
        assert_eq!(scratch.extended.len(), 3);
    }

    #[test]
    fn placement_cost_counts_broken_arcs() {
        let (db, mut store, x, [comp, parent, corr]) = fixture();
        let shared = store.allocate_page();
        store.move_object(comp, shared).unwrap();
        store.move_object(parent, shared).unwrap();
        let n = direct(&db, &WeightModel::no_hints(), x);
        // Placing x on `shared` breaks only the corr arc (1.0).
        assert!((placement_cost(&store, &n, shared) - 1.0).abs() < 1e-12);
        // Placing x on corr's page breaks comp+parent arcs (5.0).
        let corr_page = store.page_of(corr).unwrap();
        assert!((placement_cost(&store, &n, corr_page) - 5.0).abs() < 1e-12);
    }
}
