//! Cross-crate pipeline tests: vdm → storage → clustering → buffer,
//! exercised directly, and the engine's static structure-order layout
//! ([`static_layout`]) against the layout-quality metric.

use semcluster::{static_layout, Engine, SimConfig};
use semcluster_buffer::{
    apply_prefetch, prefetch_group, AccessHint, BufferPool, PrefetchScope, ReplacementPolicy,
};
use semcluster_clustering::{
    broken_arc_weight, execute_placement, plan_placement_in, plan_recluster_in, repaired_share,
    AllResident, ClusteringPolicy, HintPolicy, PlacementTarget, ScoreScratch, WeightModel,
};
use semcluster_storage::{StorageManager, DEFAULT_PAGE_BYTES};
use semcluster_vdm::{ObjectId, ObjectName, RelKind, SyntheticDbSpec};
use semcluster_workload::StructureDensity;

fn spec(seed: u64) -> SyntheticDbSpec {
    SyntheticDbSpec {
        modules: 6,
        depth: 3,
        fanout: (2, 4),
        correspondence_prob: 0.6,
        version_prob: 0.2,
        seed,
        ..SyntheticDbSpec::default()
    }
}

/// Affinity-load the whole database and measure configuration-edge
/// co-residency; compare with sequential append of a shuffled order.
#[test]
fn affinity_load_co_locates_related_objects() {
    let (db, _) = spec(11).build();
    let model = WeightModel::no_hints();
    let clustered = static_layout(&db, &model, DEFAULT_PAGE_BYTES);

    let mut scattered = StorageManager::new(DEFAULT_PAGE_BYTES);
    // Stride order approximates interleaved arrival.
    let n = db.object_count();
    for k in 0..n {
        let idx = (k * 257) % n;
        let obj = db.get(semcluster_vdm::ObjectId(idx as u32)).unwrap();
        scattered.append(obj.id, obj.size_bytes()).unwrap();
    }

    let co_residency = |store: &StorageManager| {
        let mut co = 0usize;
        let mut total = 0usize;
        for (kind, a, b) in db.graph().edges() {
            if kind != RelKind::Configuration {
                continue;
            }
            total += 1;
            if store.co_resident(a, b) {
                co += 1;
            }
        }
        co as f64 / total as f64
    };
    let clustered_rate = co_residency(&clustered);
    let scattered_rate = co_residency(&scattered);
    assert!(
        clustered_rate > 0.25,
        "affinity load co-residency {clustered_rate:.2}"
    );
    assert!(
        clustered_rate > scattered_rate * 3.0,
        "clustered {clustered_rate:.2} vs scattered {scattered_rate:.2}"
    );
}

/// Reclustering a scattered store converges: repeated passes reduce total
/// broken configuration arcs monotonically (allowing small plateaus).
#[test]
fn reclustering_reduces_broken_arcs() {
    let (db, _) = spec(13).build();
    let model = WeightModel::no_hints();
    let mut scratch = ScoreScratch::new();
    let mut store = StorageManager::new(DEFAULT_PAGE_BYTES);
    let n = db.object_count();
    for k in 0..n {
        let idx = (k * 131) % n;
        let obj = db.get(semcluster_vdm::ObjectId(idx as u32)).unwrap();
        store.append(obj.id, obj.size_bytes()).unwrap();
    }
    let broken = |store: &StorageManager| {
        db.graph()
            .edges()
            .filter(|&(_, a, b)| !store.co_resident(a, b))
            .count()
    };
    let before = broken(&store);
    let mut moves = 0;
    for pass in 0..3 {
        for i in 0..n {
            let id = semcluster_vdm::ObjectId(i as u32);
            if let Some(plan) = plan_recluster_in(
                &db,
                &store,
                &AllResident,
                ClusteringPolicy::NoLimit,
                &model,
                id,
                0.5,
                &mut scratch,
            ) {
                if store.move_object(id, plan.to).is_ok() {
                    moves += 1;
                }
                scratch.put_examined(plan.examined);
            }
        }
        let _ = pass;
    }
    let after = broken(&store);
    assert!(moves > 0, "reclustering should find moves");
    assert!(
        after < before,
        "broken arcs before {before}, after {after} ({moves} moves)"
    );
}

/// The prefetcher and the placement agree: after affinity load, a
/// composite's prefetch group is mostly co-resident (tiny groups), so
/// prefetch-within-database fetches few pages.
#[test]
fn prefetch_groups_shrink_after_clustering() {
    let (db, _) = spec(17).build();
    let model = WeightModel::no_hints();
    let mut scratch = ScoreScratch::new();
    let mut store = StorageManager::new(DEFAULT_PAGE_BYTES);
    for obj in db.objects() {
        let size = obj.size_bytes();
        let plan = plan_placement_in(
            &db,
            &store,
            &AllResident,
            ClusteringPolicy::NoLimit,
            &model,
            obj.id,
            size,
            &mut scratch,
        );
        execute_placement(&mut store, obj.id, size, &plan).unwrap();
        scratch.put_examined(plan.examined);
    }
    let mut pool = BufferPool::new(16, ReplacementPolicy::ContextSensitive, 5);
    let mut total_group = 0usize;
    let mut composites = 0usize;
    for obj in db.objects() {
        if db.graph().downward_fanout(obj.id) == 0 {
            continue;
        }
        composites += 1;
        let group = prefetch_group(&db, &store, obj.id, AccessHint::ByConfiguration);
        total_group += group.len();
        let effect = apply_prefetch(&mut pool, &group, PrefetchScope::WithinDatabase);
        assert_eq!(effect.fetched.len() + effect.boosted, group.len());
    }
    let mean_group = total_group as f64 / composites as f64;
    assert!(
        mean_group < 2.0,
        "after clustering, prefetch groups should be small (got {mean_group:.2})"
    );
}

/// A full placement plan is executable exactly as planned: the chosen page
/// has room and the object lands there.
#[test]
fn plans_execute_as_stated() {
    let (db, _) = spec(23).build();
    let model = WeightModel::no_hints();
    let mut scratch = ScoreScratch::new();
    let mut store = StorageManager::new(DEFAULT_PAGE_BYTES);
    for obj in db.objects() {
        let size = obj.size_bytes();
        let plan = plan_placement_in(
            &db,
            &store,
            &AllResident,
            ClusteringPolicy::IoLimit(2),
            &model,
            obj.id,
            size,
            &mut scratch,
        );
        let landed = execute_placement(&mut store, obj.id, size, &plan).unwrap();
        match plan.target {
            PlacementTarget::Existing(p) => assert_eq!(landed, p),
            PlacementTarget::Append => {}
        }
        assert_eq!(store.page_of(obj.id), Some(landed));
        scratch.put_examined(plan.examined);
    }
    assert_eq!(
        store.used_bytes(),
        db.objects().map(|o| o.size_bytes() as u64).sum::<u64>()
    );
}

/// The static layout of a scattered database places every object and
/// repairs more than a quarter of the broken arc weight.
#[test]
fn reorganisation_repairs_a_scattered_layout() {
    let (db, _) = SyntheticDbSpec {
        modules: 8,
        depth: 3,
        fanout: (2, 4),
        seed: 3,
        ..SyntheticDbSpec::default()
    }
    .build();
    let model = WeightModel::no_hints();
    // Stride order: a layout that ignores structure.
    let mut old = StorageManager::new(DEFAULT_PAGE_BYTES);
    let n = db.object_count();
    for k in 0..n {
        let obj = db.get(ObjectId(((k * 197) % n) as u32)).unwrap();
        old.append(obj.id, obj.size_bytes()).unwrap();
    }
    let fresh = static_layout(&db, &model, DEFAULT_PAGE_BYTES);
    let before = broken_arc_weight(&db, &old, &model);
    let after = broken_arc_weight(&db, &fresh, &model);
    assert!(after < before * 0.75, "before {before} after {after}");
    assert!(repaired_share(before, after) > 0.25);
    for obj in db.objects() {
        assert!(fresh.page_of(obj.id).is_some());
    }
    assert_eq!(fresh.used_bytes(), old.used_bytes());
}

/// The §2.1 argument: a statically clustered layout degrades as
/// structure keeps changing — the reason for run-time reclustering.
#[test]
fn static_layout_drifts_without_reclustering() {
    let (mut db, _) = SyntheticDbSpec {
        modules: 6,
        depth: 3,
        fanout: (2, 4),
        seed: 8,
        ..SyntheticDbSpec::default()
    }
    .build();
    let model = WeightModel::no_hints();
    let mut store = static_layout(&db, &model, DEFAULT_PAGE_BYTES);
    let baseline = broken_arc_weight(&db, &store, &model);
    // Design evolution: new components appended without clustering.
    let ty = db.lattice().id_of("layout").unwrap();
    let n0 = db.object_count() as u32;
    for i in 0..150u32 {
        let anchor = ObjectId((i * 53) % n0);
        let id = db
            .create_object(ObjectName::new(format!("drift{i}"), 1, "layout"), ty, 128)
            .unwrap();
        db.relate(RelKind::Configuration, anchor, id).unwrap();
        store.append(id, db.get(id).unwrap().size_bytes()).unwrap();
    }
    let drifted = broken_arc_weight(&db, &store, &model);
    assert!(
        drifted > baseline * 1.2,
        "layout should drift: baseline {baseline}, drifted {drifted}"
    );
}

/// DESIGN.md §7.1: a fresh `No_limit` engine's store is the static
/// layout of its database, page for page, with or without user hints.
#[test]
fn no_limit_engine_starts_from_the_static_layout() {
    for hints in [HintPolicy::NoHints, HintPolicy::UserHints] {
        let cfg = SimConfig {
            database_bytes: 2 * 1024 * 1024,
            clustering: ClusteringPolicy::NoLimit,
            hints,
            ..SimConfig::default()
        }
        .with_workload(StructureDensity::High10, 100.0);
        let weights = match hints {
            HintPolicy::UserHints => WeightModel::with_hint(cfg.session_hint),
            HintPolicy::NoHints => WeightModel::no_hints(),
        };
        let engine = Engine::new(cfg.clone());
        let db = engine.database();
        let layout = static_layout(db, &weights, cfg.page_bytes);
        for obj in db.objects() {
            assert_eq!(
                layout.page_of(obj.id),
                engine.store().page_of(obj.id),
                "{hints:?}: {:?}",
                obj.id
            );
        }
        assert_eq!(format!("{layout:?}"), format!("{:?}", engine.store()));
    }
}
