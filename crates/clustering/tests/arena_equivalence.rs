//! Property-based equivalence tests for the arena-backed hot paths.
//!
//! The scoring pipeline (`weighted_neighbors_in` / `extended_neighbors_in`
//! / `candidate_pages_in`) folds arc weights through dense accumulators
//! in a caller-owned [`ScoreScratch`]. The map-based fold it replaced
//! lives on here, and only here, as the reference model ([`reference`]);
//! these tests drive both over randomized databases, placements, policies
//! and residency views and require *identical* results — not just the
//! same winner, but the same scores, the same order, the same examined
//! lists and the same charged search I/O. The planners' reference is the
//! same planner over a fresh scratch: a scratch reused dirty across
//! objects must never show. Any divergence is a golden-output break
//! waiting to happen.

use proptest::prelude::*;
use semcluster_buffer::AccessHint;
use semcluster_clustering::{
    candidate_pages_in, extended_neighbors_in, plan_placement_in, plan_recluster_in,
    weighted_neighbors_in, AllResident, ClusteringPolicy, ResidencyView, ScoreScratch, WeightModel,
};
use semcluster_storage::{PageId, StorageManager, DEFAULT_PAGE_BYTES};
use semcluster_vdm::{Database, ObjectId, SyntheticDbSpec};

/// The map-based scoring fold: one hash map and one fresh vector per
/// call, sorted weight descending / id ascending.
mod reference {
    use semcluster_clustering::{WeightModel, TWO_HOP_DECAY};
    use semcluster_storage::{PageId, StorageManager};
    use semcluster_vdm::{Database, DetHashMap, ObjectId};
    use std::hash::Hash;

    fn sorted<K: Ord + Copy + Hash>(acc: DetHashMap<K, f64>) -> Vec<(K, f64)> {
        let mut out: Vec<(K, f64)> = acc.into_iter().collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        out
    }

    pub fn weighted_neighbors(
        db: &Database,
        model: &WeightModel,
        object: ObjectId,
    ) -> Vec<(ObjectId, f64)> {
        let Ok(freqs) = db.frequencies_of(object) else {
            return Vec::new();
        };
        let mut acc: DetHashMap<ObjectId, f64> = DetHashMap::default();
        for (kind, dir, other) in db.graph().related(object) {
            *acc.entry(other).or_insert(0.0) += model.arc_weight(kind, freqs.weight(kind, dir));
        }
        sorted(acc)
    }

    pub fn extended_neighbors(
        db: &Database,
        model: &WeightModel,
        object: ObjectId,
    ) -> Vec<(ObjectId, f64)> {
        let direct = weighted_neighbors(db, model, object);
        let mut acc: DetHashMap<ObjectId, f64> = direct.iter().copied().collect();
        for &(hop, w1) in &direct {
            let Ok(freqs) = db.frequencies_of(hop) else {
                continue;
            };
            for (kind, dir, two) in db.graph().related(hop) {
                if two == object {
                    continue;
                }
                let w2 = model.arc_weight(kind, freqs.weight(kind, dir));
                *acc.entry(two).or_insert(0.0) += TWO_HOP_DECAY * w1.min(w2);
            }
        }
        sorted(acc)
    }

    pub fn candidate_pages(
        store: &StorageManager,
        neighbors: &[(ObjectId, f64)],
    ) -> Vec<(PageId, f64)> {
        let mut affinity: DetHashMap<PageId, f64> = DetHashMap::default();
        for &(obj, w) in neighbors {
            if let Some(page) = store.page_of(obj) {
                *affinity.entry(page).or_insert(0.0) += w;
            }
        }
        sorted(affinity)
    }
}

/// Deterministic pseudo-random residency: a pure function of (salt,
/// page), so the reference and arena paths observe the same view without
/// sharing mutable state.
struct HashResident {
    salt: u64,
    density: u64,
}

impl ResidencyView for HashResident {
    fn is_resident(&self, page: PageId) -> bool {
        let mixed = (page.index() as u64 ^ self.salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mixed >> 33) % 4 < self.density
    }
}

fn policies() -> impl Strategy<Value = ClusteringPolicy> {
    prop_oneof![
        Just(ClusteringPolicy::NoCluster),
        Just(ClusteringPolicy::WithinBuffer),
        (0u32..4).prop_map(ClusteringPolicy::IoLimit),
        Just(ClusteringPolicy::NoLimit),
    ]
}

fn models() -> impl Strategy<Value = WeightModel> {
    prop_oneof![
        Just(WeightModel::no_hints()),
        Just(WeightModel::with_hint(AccessHint::None)),
        Just(WeightModel::with_hint(AccessHint::ByConfiguration)),
        Just(WeightModel::with_hint(AccessHint::ByVersionHistory)),
        Just(WeightModel::with_hint(AccessHint::ByCorrespondence)),
        Just(WeightModel::with_hint(AccessHint::ByInheritance)),
    ]
}

/// Build a random database and scatter its objects across pages: objects
/// load in creation order, then a salt-driven subset migrates to freshly
/// allocated pages so candidate pools span many partially-filled pages.
fn build_world(spec: &SyntheticDbSpec, scatter_salt: u64) -> (Database, StorageManager) {
    let (db, _) = spec.build();
    let mut store = StorageManager::new(DEFAULT_PAGE_BYTES);
    let ids: Vec<(ObjectId, u32)> = db.objects().map(|o| (o.id, o.size_bytes())).collect();
    for &(id, size) in &ids {
        store
            .append(id, size.min(DEFAULT_PAGE_BYTES / 2))
            .expect("synthetic object fits a page");
    }
    let mut state = scatter_salt | 1;
    let mut fresh: Option<PageId> = None;
    for &(id, _) in &ids {
        // xorshift64: cheap, deterministic, good enough to scatter.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        match state % 4 {
            0 => {
                let page = *fresh.get_or_insert_with(|| store.allocate_page());
                if store.move_object(id, page).is_err() {
                    fresh = None;
                }
            }
            1 => fresh = None,
            _ => {}
        }
    }
    (db, store)
}

fn spec_strategy() -> impl Strategy<Value = SyntheticDbSpec> {
    (
        1usize..=3,
        1usize..=3,
        (1usize..=2, 2usize..=4),
        0.0f64..1.0,
        0.0f64..1.0,
        any::<u64>(),
    )
        .prop_map(
            |(modules, depth, fanout, corr, ver, seed)| SyntheticDbSpec {
                modules,
                depth,
                fanout,
                correspondence_prob: corr,
                version_prob: ver,
                seed,
                ..SyntheticDbSpec::default()
            },
        )
}

proptest! {
    /// The dense-accumulator scoring pipeline leaves exactly the
    /// reference results in scratch — same neighbours, same weights,
    /// same order — even when the scratch is reused dirty across
    /// objects of different degrees.
    #[test]
    fn scoring_pipeline_matches_reference(
        spec in spec_strategy(),
        scatter in any::<u64>(),
        model in models(),
    ) {
        let (db, store) = build_world(&spec, scatter);
        let mut scratch = ScoreScratch::new();
        for probe in (0..db.object_count()).step_by(3) {
            let object = ObjectId(probe as u32);
            let direct = reference::weighted_neighbors(&db, &model, object);
            let extended = reference::extended_neighbors(&db, &model, object);
            let pages = reference::candidate_pages(&store, &extended);

            weighted_neighbors_in(&db, &model, object, &mut scratch);
            prop_assert_eq!(&scratch.direct, &direct, "direct neighbours diverge");
            extended_neighbors_in(&db, &model, object, &mut scratch);
            prop_assert_eq!(&scratch.extended, &extended, "extended neighbours diverge");
            candidate_pages_in(&store, &mut scratch);
            prop_assert_eq!(&scratch.pages, &pages, "candidate pages diverge");
        }
    }

    /// Placement planning through a reused scratch produces bit-identical
    /// plans (target, examined list, scores, search I/O) to the
    /// throwaway-scratch reference across policies, hints and residency.
    #[test]
    fn placement_plans_match_reference(
        spec in spec_strategy(),
        scatter in any::<u64>(),
        policy in policies(),
        model in models(),
        salt in any::<u64>(),
        density in 0u64..=4,
        size in 16u32..600,
    ) {
        let (db, store) = build_world(&spec, scatter);
        let residency = HashResident { salt, density };
        let mut scratch = ScoreScratch::new();
        for probe in (0..db.object_count()).step_by(4) {
            let object = ObjectId(probe as u32);
            let reference = plan_placement_in(
                &db, &store, &residency, policy, &model, object, size, &mut ScoreScratch::new(),
            );
            let arena =
                plan_placement_in(&db, &store, &residency, policy, &model, object, size, &mut scratch);
            prop_assert_eq!(&arena, &reference, "placement plan diverges for {:?}", object);
            scratch.put_examined(arena.examined);

            // The always-resident view must never charge search I/O.
            let warm = plan_placement_in(
                &db, &store, &AllResident, policy, &model, object, size, &mut scratch,
            );
            prop_assert_eq!(warm.search_ios, 0, "AllResident charged I/O");
            scratch.put_examined(warm.examined);
        }
    }

    /// Recluster planning through a reused scratch matches the
    /// throwaway-scratch reference: same move-or-stay decision, same
    /// gain, same examined candidates, same search I/O.
    #[test]
    fn recluster_plans_match_reference(
        spec in spec_strategy(),
        scatter in any::<u64>(),
        policy in policies(),
        model in models(),
        salt in any::<u64>(),
        density in 0u64..=4,
        min_gain in 0.0f64..2.0,
    ) {
        let (db, store) = build_world(&spec, scatter);
        let residency = HashResident { salt, density };
        let mut scratch = ScoreScratch::new();
        for probe in (0..db.object_count()).step_by(4) {
            let object = ObjectId(probe as u32);
            let reference = plan_recluster_in(
                &db, &store, &residency, policy, &model, object, min_gain, &mut ScoreScratch::new(),
            );
            let arena = plan_recluster_in(
                &db, &store, &residency, policy, &model, object, min_gain, &mut scratch,
            );
            prop_assert_eq!(&arena, &reference, "recluster plan diverges for {:?}", object);
            if let Some(plan) = arena {
                prop_assert!(plan.gain > min_gain, "sub-threshold move planned");
                scratch.put_examined(plan.examined);
            }
        }
    }
}
