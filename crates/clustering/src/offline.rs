//! Offline (static) clustering.
//!
//! §2.1: "For static clustering, the system is quiesced, and the database
//! administrator decides on a partitioning of objects." This module is
//! that DBA tool: it rewrites the whole database's placement in structure
//! order with full visibility, and provides the layout-quality metric
//! (total broken arc weight) used to compare layouts and to watch a
//! static layout *drift* as structures keep changing — the reason the
//! paper argues for run-time reclustering.

use crate::arena::ScoreScratch;
use crate::config::ClusteringPolicy;
use crate::cost::WeightModel;
use crate::placement::{plan_placement_in, AllResident, PlacementTarget};
use semcluster_storage::{StorageManager, PAGE_OVERHEAD_BYTES};
use semcluster_vdm::Database;

/// Report of one offline reorganisation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReorgReport {
    /// Objects placed.
    pub objects: usize,
    /// Pages in the new layout.
    pub pages: usize,
    /// Total arc weight crossing page boundaries before.
    pub broken_before: f64,
    /// Total arc weight crossing page boundaries after.
    pub broken_after: f64,
}

impl ReorgReport {
    /// Fraction of the previously broken weight the reorganisation
    /// repaired (0 when nothing was broken).
    pub fn improvement(&self) -> f64 {
        if self.broken_before == 0.0 {
            0.0
        } else {
            1.0 - self.broken_after / self.broken_before
        }
    }
}

/// Total weight of arcs whose endpoints live on different pages — the
/// layout-quality objective the clustering algorithms minimise. Unplaced
/// objects count as broken.
pub fn broken_arc_weight(db: &Database, store: &StorageManager, model: &WeightModel) -> f64 {
    let mut total = 0.0;
    for (kind, a, b) in db.graph().edges() {
        if !store.co_resident(a, b) {
            // Arc weight: sum of both endpoints' traversal frequencies
            // for this relationship (forward from a, so use a's profile).
            let w = db
                .frequencies_of(a)
                .map(|f| model.arc_weight(kind, f.weight(kind, semcluster_vdm::Direction::Forward)))
                .unwrap_or(1.0);
            total += w;
        }
    }
    total
}

/// Rebuild placement from scratch: every object is affinity-placed in id
/// (structure) order with full visibility, leaving `slack_fraction` free
/// per appended page. Returns the fresh store and a report comparing it
/// with `old`.
pub fn static_recluster(
    db: &Database,
    old: &StorageManager,
    model: &WeightModel,
    slack_fraction: f64,
) -> (StorageManager, ReorgReport) {
    assert!(
        (0.0..1.0).contains(&slack_fraction),
        "slack must be in [0,1)"
    );
    let mut fresh = StorageManager::new(old.page_bytes());
    let capacity = old.page_bytes() - PAGE_OVERHEAD_BYTES;
    let reserve = (capacity as f64 * slack_fraction) as u32;
    // One scratch for the whole pass: a fresh one per object would regrow
    // its object-indexed arrays from empty every time — O(n²) overall.
    let mut scratch = ScoreScratch::with_capacity(db.object_count(), old.page_count());
    for obj in db.objects() {
        let size = obj.size_bytes();
        let plan = plan_placement_in(
            db,
            &fresh,
            &AllResident,
            ClusteringPolicy::NoLimit,
            model,
            obj.id,
            size,
            &mut scratch,
        );
        match plan.target {
            PlacementTarget::Existing(page) => fresh
                .place(obj.id, size, page)
                .expect("plan checked capacity"),
            PlacementTarget::Append => {
                fresh
                    .append_reserving(obj.id, size, reserve)
                    .expect("append cannot fail");
            }
        }
        scratch.put_examined(plan.examined);
    }
    let report = ReorgReport {
        objects: db.object_count(),
        pages: fresh.page_count(),
        broken_before: broken_arc_weight(db, old, model),
        broken_after: broken_arc_weight(db, &fresh, model),
    };
    (fresh, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcluster_vdm::{ObjectId, SyntheticDbSpec};

    fn scattered_store(db: &Database) -> StorageManager {
        let mut store = StorageManager::new(4096);
        let n = db.object_count();
        for k in 0..n {
            let idx = (k * 197) % n;
            let obj = db.get(ObjectId(idx as u32)).unwrap();
            store.append(obj.id, obj.size_bytes()).unwrap();
        }
        store
    }

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
        let old = scattered_store(&db);
        let (fresh, report) = static_recluster(&db, &old, &model, 0.3);
        assert_eq!(report.objects, db.object_count());
        assert!(
            report.broken_after < report.broken_before * 0.75,
            "before {} after {}",
            report.broken_before,
            report.broken_after
        );
        assert!(report.improvement() > 0.25);
        // Every object is placed in the new store.
        for obj in db.objects() {
            assert!(fresh.page_of(obj.id).is_some());
        }
        assert_eq!(fresh.used_bytes(), old.used_bytes());
    }

    #[test]
    fn broken_weight_is_zero_when_everything_fits_one_page() {
        let (db, _) = SyntheticDbSpec {
            modules: 1,
            depth: 1,
            fanout: (2, 2),
            representations: vec!["layout".into()],
            correspondence_prob: 0.0,
            version_prob: 0.0,
            body_bytes: (32, 64),
            seed: 5,
        }
        .build();
        let model = WeightModel::no_hints();
        let mut store = StorageManager::new(4096);
        let page = store.allocate_page();
        for obj in db.objects() {
            store.place(obj.id, obj.size_bytes(), page).unwrap();
        }
        assert_eq!(broken_arc_weight(&db, &store, &model), 0.0);
    }

    #[test]
    fn static_layout_drifts_without_reclustering() {
        // The §2.1 argument: a statically clustered layout degrades as
        // structure keeps changing; run-time reclustering holds the line.
        let (mut db, _) = SyntheticDbSpec {
            modules: 6,
            depth: 3,
            fanout: (2, 4),
            seed: 8,
            ..SyntheticDbSpec::default()
        }
        .build();
        let model = WeightModel::no_hints();
        let old = scattered_store(&db);
        let (mut store, report) = static_recluster(&db, &old, &model, 0.3);
        let baseline = report.broken_after;
        // Design evolution: new components appended without clustering.
        let ty = db.lattice().id_of("layout").unwrap();
        let n0 = db.object_count() as u32;
        for i in 0..150u32 {
            let anchor = ObjectId((i * 53) % n0);
            let id = db
                .create_object(
                    semcluster_vdm::ObjectName::new(format!("drift{i}"), 1, "layout"),
                    ty,
                    128,
                )
                .unwrap();
            db.relate(semcluster_vdm::RelKind::Configuration, anchor, id)
                .unwrap();
            store.append(id, db.get(id).unwrap().size_bytes()).unwrap();
        }
        let drifted = broken_arc_weight(&db, &store, &model);
        assert!(
            drifted > baseline * 1.2,
            "layout should drift: baseline {baseline}, drifted {drifted}"
        );
        // A second offline pass with more slack repairs most of the
        // drift (the floor is the baseline plus whatever new arcs cannot
        // be co-located on full pages).
        let (_, repaired) = static_recluster(&db, &store, &model, 0.5);
        let drift_amount = drifted - baseline;
        let remaining = repaired.broken_after - baseline;
        assert!(
            remaining < drift_amount * 0.7,
            "baseline {baseline}, drifted {drifted}, repaired {}",
            repaired.broken_after
        );
    }
}
