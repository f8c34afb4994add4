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
//!
//! The split planner is held the same way: the map-based
//! `build_dependency_graph`, the groups-map `linear_split` and the
//! `consider_split` that always partitions before it compares live on in
//! [`reference`], and the scratch-backed code must reproduce their graphs
//! (arc weights by bit pattern), partitions and verdicts.

use proptest::prelude::*;
use semcluster_buffer::AccessHint;
use semcluster_clustering::{
    build_dependency_graph_in, candidate_pages_in, consider_split, extended_neighbors_in,
    linear_split, plan_placement_in, plan_recluster_in, weighted_neighbors_in, AllResident,
    ClusteringPolicy, DependencyGraph, HintPolicy, ResidencyView, ScoreScratch, SplitPlan,
    SplitPolicy, WeightModel, MAX_EXACT_NODES,
};
use semcluster_storage::{PageId, StorageManager, DEFAULT_PAGE_BYTES};
use semcluster_vdm::{Database, ObjectId, RelKind, SyntheticDbSpec};

/// The map-based scoring fold: one hash map and one fresh vector per
/// call, sorted weight descending / id ascending.
mod reference {
    use semcluster_clustering::{
        optimal_split, DependencyGraph, Partition, SplitError, SplitPlan, SplitPolicy, WeightModel,
        SPLIT_OVERHEAD_WEIGHT, TWO_HOP_DECAY,
    };
    use semcluster_storage::{PageId, StorageManager, PAGE_OVERHEAD_BYTES};
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

    /// The map-based dependency graph: an object → node map, a pair →
    /// weight map, one `related` vector per resident. Nodes are visited
    /// in index order — the fold the determinism contract specifies.
    pub fn build_dependency_graph(
        db: &Database,
        store: &StorageManager,
        model: &WeightModel,
        page: PageId,
        incoming: Option<(ObjectId, u32)>,
    ) -> DependencyGraph {
        let mut objects: Vec<ObjectId> = Vec::new();
        let mut sizes: Vec<u32> = Vec::new();
        if let Ok(residents) = store.objects_on(page) {
            for &(o, s) in residents {
                objects.push(o);
                sizes.push(s);
            }
        }
        if let Some((o, s)) = incoming {
            objects.push(o);
            sizes.push(s);
        }
        let index: DetHashMap<ObjectId, u32> = objects
            .iter()
            .enumerate()
            .map(|(i, &o)| (o, i as u32))
            .collect();

        let mut weights: DetHashMap<(u32, u32), f64> = DetHashMap::default();
        for (i, &obj) in objects.iter().enumerate() {
            let i = i as u32;
            let Ok(freqs) = db.frequencies_of(obj) else {
                continue;
            };
            for (kind, dir, other) in db.graph().related(obj) {
                if let Some(&j) = index.get(&other) {
                    let key = if i < j { (i, j) } else { (j, i) };
                    *weights.entry(key).or_insert(0.0) +=
                        model.arc_weight(kind, freqs.weight(kind, dir));
                }
            }
        }
        let mut arcs: Vec<(u32, u32, f64)> =
            weights.into_iter().map(|((a, b), w)| (a, b, w)).collect();
        arcs.sort_by(|x, y| {
            y.2.partial_cmp(&x.2)
                .expect("finite")
                .then((x.0, x.1).cmp(&(y.0, y.1)))
        });
        DependencyGraph {
            objects,
            sizes,
            arcs,
        }
    }

    /// The greedy partitioner with its groups collected into a map of
    /// member vectors and sorted `(size desc, members asc)`.
    pub fn linear_split(g: &DependencyGraph, capacity: u32) -> Result<Partition, SplitError> {
        if g.len() < 2 {
            return Err(SplitError::TooSmall);
        }
        for (i, &s) in g.sizes.iter().enumerate() {
            if s > capacity {
                return Err(SplitError::NodeTooLarge(g.objects[i], s));
            }
        }
        let n = g.len();

        let mut parent: Vec<u32> = (0..n as u32).collect();
        let mut group_size: Vec<u64> = g.sizes.iter().map(|&s| s as u64).collect();
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
        for &(a, b, _) in &g.arcs {
            let ra = find(&mut parent, a);
            let rb = find(&mut parent, b);
            if ra != rb && group_size[ra as usize] + group_size[rb as usize] <= capacity as u64 {
                parent[rb as usize] = ra;
                group_size[ra as usize] += group_size[rb as usize];
            }
        }

        let mut groups: DetHashMap<u32, Vec<u32>> = DetHashMap::default();
        for i in 0..n as u32 {
            groups.entry(find(&mut parent, i)).or_default().push(i);
        }
        let mut group_list: Vec<(u64, Vec<u32>)> = groups
            .into_values()
            .map(|members| {
                let size: u64 = members.iter().map(|&m| g.sizes[m as usize] as u64).sum();
                (size, members)
            })
            .collect();
        group_list.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut bin_used = [0u64; 2];
        let mut side = vec![false; n];
        for (size, members) in group_list {
            let bin = if bin_used[0] + size <= capacity as u64 {
                0
            } else if bin_used[1] + size <= capacity as u64 {
                1
            } else {
                // The member-by-member packing fallback.
                for m in members {
                    let s = g.sizes[m as usize] as u64;
                    let bin = if bin_used[0] + s <= capacity as u64 {
                        0
                    } else if bin_used[1] + s <= capacity as u64 {
                        1
                    } else {
                        return Err(SplitError::DoesNotFit);
                    };
                    bin_used[bin] += s;
                    side[m as usize] = bin == 1;
                }
                continue;
            };
            bin_used[bin] += size;
            for m in members {
                side[m as usize] = bin == 1;
            }
        }
        if side.iter().all(|&s| !s) || side.iter().all(|&s| s) {
            let lonely = side.iter().all(|&s| !s);
            let (idx, _) = g
                .sizes
                .iter()
                .enumerate()
                .min_by_key(|&(_, &s)| s)
                .expect("non-empty");
            side[idx] = lonely;
        }

        let broken_cost = g
            .arcs
            .iter()
            .filter(|&&(a, b, _)| side[a as usize] != side[b as usize])
            .map(|&(_, _, w)| w)
            .sum();
        let (mut left, mut right) = (Vec::new(), Vec::new());
        for (i, &r) in side.iter().enumerate() {
            if r {
                right.push(i as u32);
            } else {
                left.push(i as u32);
            }
        }
        Ok(Partition {
            left,
            right,
            broken_cost,
            exact: false,
        })
    }

    /// The split decision with no shortcut: always build the graph and
    /// partition it, then compare.
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
    ) -> Option<SplitPlan> {
        if policy == SplitPolicy::NoSplit {
            return None;
        }
        let capacity = store.page_bytes() - PAGE_OVERHEAD_BYTES;
        let graph = build_dependency_graph(db, store, model, full_page, Some(incoming));
        let partition = match policy {
            SplitPolicy::NoSplit => unreachable!("handled above"),
            SplitPolicy::Linear => linear_split(&graph, capacity).ok()?,
            SplitPolicy::Optimal => optimal_split(&graph, capacity).ok()?,
        };
        let cost_of_split = partition.broken_cost + SPLIT_OVERHEAD_WEIGHT;
        let cost_of_next_best = full_page_affinity - next_best_affinity;
        (cost_of_split < cost_of_next_best).then_some(SplitPlan {
            page: full_page,
            partition,
            objects: graph.objects,
            sizes: graph.sizes,
        })
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

/// The scoring models plus ones that scale the hinted kind by zero, so
/// dependency graphs carry zero-weight arcs, or by a factor with no exact
/// binary form, so a pair's sum depends on the order it is folded in.
fn split_models() -> impl Strategy<Value = WeightModel> {
    let scaled = |session_hint, hint_multiplier| WeightModel {
        hint_policy: HintPolicy::UserHints,
        session_hint,
        hint_multiplier,
    };
    prop_oneof![
        models(),
        Just(scaled(AccessHint::ByConfiguration, 0.0)),
        Just(scaled(AccessHint::ByVersionHistory, 0.0)),
        Just(scaled(AccessHint::ByVersionHistory, 1.3)),
    ]
}

/// `(full_page_affinity, next_best_affinity)` pairs as `consider_split`
/// receives them: differences clustered around the split overhead, plus
/// the awkward ones — exactly the overhead, infinite, NaN.
fn affinity_pairs() -> impl Strategy<Value = Vec<(f64, f64)>> {
    proptest::collection::vec((0.0f64..24.0, 0.0f64..6.0), 6..=6).prop_map(|drawn| {
        let mut pairs: Vec<(f64, f64)> = drawn.into_iter().map(|(f, d)| (f, f - d)).collect();
        pairs.extend([
            (2.0, 0.0),
            (f64::INFINITY, 0.0),
            (f64::INFINITY, f64::INFINITY),
            (f64::NAN, 0.0),
        ]);
        pairs
    })
}

/// An object to overflow `page` with: like the engine's newcomers, a
/// relative of a resident living elsewhere (which relative varies with
/// the page), else any object living elsewhere.
fn newcomer_for(db: &Database, store: &StorageManager, page: PageId) -> Option<ObjectId> {
    let elsewhere = |o: &ObjectId| store.page_of(*o) != Some(page);
    let residents = store.objects_on(page).expect("allocated page");
    let relatives: Vec<ObjectId> = residents
        .iter()
        .flat_map(|&(o, _)| db.graph().related(o))
        .map(|(_, _, other)| other)
        .filter(elsewhere)
        .collect();
    let fallback = ObjectId(((page.index() * 7) % db.object_count()) as u32);
    match relatives.len() {
        0 => Some(fallback).filter(elsewhere),
        n => Some(relatives[(page.index() * 7) % n]),
    }
}

fn bits(arcs: &[(u32, u32, f64)]) -> Vec<(u32, u32, u64)> {
    arcs.iter().map(|&(a, b, w)| (a, b, w.to_bits())).collect()
}

fn plan_bits(plan: &Option<SplitPlan>) -> Option<u64> {
    plan.as_ref().map(|p| p.partition.broken_cost.to_bits())
}

/// Build a random database and scatter its objects across pages: objects
/// load in creation order, then a salt-driven subset migrates to freshly
/// allocated pages so candidate pools span many partially-filled pages.
fn build_world(spec: &SyntheticDbSpec, scatter_salt: u64) -> (Database, StorageManager) {
    build_world_paged(spec, scatter_salt, DEFAULT_PAGE_BYTES)
}

fn build_world_paged(
    spec: &SyntheticDbSpec,
    scatter_salt: u64,
    page_bytes: u32,
) -> (Database, StorageManager) {
    let (db, _) = spec.build();
    let mut store = StorageManager::new(page_bytes);
    let ids: Vec<(ObjectId, u32)> = db.objects().map(|o| (o.id, o.size_bytes())).collect();
    for &(id, size) in &ids {
        store
            .append(id, size.min(page_bytes / 4))
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
    /// The scratch-built dependency graph is the map-built one — same
    /// nodes, same arcs in the same order, every weight bit for bit —
    /// on every page of worlds whose versions hang off their parents by
    /// two relationship kinds at once, under models that zero a kind's
    /// weight, with one scratch reused dirty across pages of different
    /// sizes (and across a scoring round, which shares its object index).
    #[test]
    fn dependency_graphs_match_reference(
        spec in spec_strategy(),
        scatter in any::<u64>(),
        model in split_models(),
        page_bytes in prop_oneof![Just(1024u32), Just(2048), Just(DEFAULT_PAGE_BYTES)],
    ) {
        let (db, store) = build_world_paged(&spec, scatter, page_bytes);
        let mut scratch = ScoreScratch::new();
        for p in 0..store.page_count() {
            let page = PageId(p as u32);
            let incoming = newcomer_for(&db, &store, page).map(|o| (o, 96));
            let reference = reference::build_dependency_graph(&db, &store, &model, page, incoming);
            let built = build_dependency_graph_in(&db, &store, &model, page, incoming, &mut scratch);
            prop_assert_eq!(&built.objects, &reference.objects);
            prop_assert_eq!(&built.sizes, &reference.sizes);
            prop_assert_eq!(bits(&built.arcs), bits(&reference.arcs), "arcs diverge on {:?}", page);
            weighted_neighbors_in(&db, &model, ObjectId(p as u32), &mut scratch);
        }
    }

    /// `consider_split` — shortcut, scratch graph, scratch partitioner,
    /// recycled plan lists — returns exactly the plan the map-based,
    /// always-partition reference returns, for both algorithms and for
    /// affinity pairs on either side of the overhead.
    #[test]
    fn split_decisions_match_reference(
        spec in spec_strategy(),
        scatter in any::<u64>(),
        model in split_models(),
        page_bytes in prop_oneof![Just(1024u32), Just(2048), Just(DEFAULT_PAGE_BYTES)],
        affinities in affinity_pairs(),
        size in 16u32..400,
    ) {
        let (db, store) = build_world_paged(&spec, scatter, page_bytes);
        let mut scratch = ScoreScratch::new();
        for p in 0..store.page_count() {
            let page = PageId(p as u32);
            let Some(newcomer) = newcomer_for(&db, &store, page) else {
                continue;
            };
            let nodes = store.objects_on(page).expect("allocated page").len() + 1;
            let affinity = affinities[p % affinities.len()];
            for policy in [SplitPolicy::NoSplit, SplitPolicy::Linear, SplitPolicy::Optimal] {
                if policy == SplitPolicy::Optimal && nodes > 12 && nodes <= MAX_EXACT_NODES {
                    continue; // 2^19 assignments per page is no proptest's business
                }
                let reference = reference::consider_split(
                    &db, &store, &model, policy, page, affinity.0, affinity.1, (newcomer, size),
                );
                let planned = consider_split(
                    &db, &store, &model, policy, page, affinity.0, affinity.1, (newcomer, size),
                    &mut scratch,
                );
                prop_assert_eq!(plan_bits(&planned), plan_bits(&reference));
                prop_assert_eq!(&planned, &reference, "{:?} verdict diverges on {:?}", policy, page);
                if let Some(plan) = planned {
                    scratch.put_split(plan);
                }
            }
        }
    }

    /// The chained-groups partitioner is the groups-map one on arbitrary
    /// graphs — parallel-free or not, self-loops, zero weights — at
    /// capacities tight enough to reach the member-by-member fallback
    /// and the no-packing error.
    #[test]
    fn linear_split_matches_reference(
        sizes in proptest::collection::vec(10u32..120, 1..24usize),
        raw_arcs in proptest::collection::vec((0u32..24, 0u32..24, 0.0f64..4.0), 0..40usize),
        slack in 0u32..160,
    ) {
        let n = sizes.len() as u32;
        let mut arcs: Vec<(u32, u32, f64)> = raw_arcs
            .into_iter()
            .map(|(a, b, w)| ((a % n).min(b % n), (a % n).max(b % n), (w * 4.0).floor() / 4.0))
            .collect();
        arcs.sort_by(|x, y| y.2.partial_cmp(&x.2).unwrap().then((x.0, x.1).cmp(&(y.0, y.1))));
        arcs.dedup_by_key(|&mut (a, b, _)| (a, b));
        let capacity = sizes.iter().sum::<u32>() / 2 + slack;
        let g = DependencyGraph { objects: (0..n).map(ObjectId).collect(), sizes, arcs };
        prop_assert_eq!(linear_split(&g, capacity), reference::linear_split(&g, capacity));
    }
}

/// Two groups fill the bins and the third fits neither whole: its members
/// go one by one. Pinned so the fallback is known to be exercised.
#[test]
fn member_by_member_fallback_matches_reference() {
    let g = DependencyGraph {
        objects: (0..6).map(ObjectId).collect(),
        sizes: vec![30, 30, 30, 30, 25, 25],
        arcs: vec![(0, 1, 3.0), (2, 3, 2.0), (4, 5, 1.0)],
    };
    let split = linear_split(&g, 100).expect("fits member by member");
    assert_eq!(split.left, [0, 1, 4]);
    assert_eq!(split.right, [2, 3, 5]);
    assert_eq!(split.broken_cost, 1.0);
    assert_eq!(Ok(split), reference::linear_split(&g, 100));
}

/// A derived version hangs off its parent by a version-history arc and an
/// inheritance arc, so the pair's weight is a four-term sum whose order
/// the fold fixes: the worlds above contain such pairs.
#[test]
fn worlds_join_pairs_by_two_relationship_kinds() {
    let (db, _) = SyntheticDbSpec {
        version_prob: 1.0,
        ..SyntheticDbSpec::default()
    }
    .build();
    let doubly = db.objects().any(|o| {
        let kinds: Vec<_> = db.graph().related(o.id);
        kinds.iter().any(|&(k, _, other)| {
            k == RelKind::VersionHistory
                && kinds
                    .iter()
                    .any(|&(k2, _, o2)| k2 == RelKind::Inheritance && o2 == other)
        })
    });
    assert!(
        doubly,
        "no version is also an inheritance client of its parent"
    );
}
