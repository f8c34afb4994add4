//! Layout quality: how well the current physical layout honours the
//! structure semantics.
//!
//! [`broken_arc_weight`] is the whole-database objective the clustering
//! algorithms minimise, which compares two layouts of one database —
//! a scattered one against the static structure-order layout, or a
//! static layout drifting as design evolution appends objects.
//!
//! [`page_locality`] is the per-page clustering-locality score.
//! For a page, every structural arc leaving an object on that page is
//! one *co-reference*; it is *satisfied* when the related object lives
//! on the same page. The ratio `on_page / total` is the locality score
//! — 1.0 means every traversal from this page's objects stays on-page,
//! 0.0 means every traversal faults. The timeline sampler folds this
//! over the buffer-resident pages, which is exactly the set whose
//! locality determines the hit ratio the paper's figures track.
//!
//! `page_locality` runs on every timeline sample, so it walks the
//! graph's adjacency slices directly instead of going through
//! `weighted_neighbors_in` — no allocation, no sort, and parallel arcs
//! of different kinds each count as their own co-reference (each is a
//! distinct traversal the layout can satisfy or fault). "No allocation" is not just an intention:
//! the fold is bracketed by the profiler's `page_locality` phase and
//! `golden --suite profile` pins its `alloc_bytes` at zero under the
//! counting allocator, so an allocation sneaking in here fails CI.

use crate::cost::WeightModel;
use semcluster_storage::{PageId, StorageManager};
use semcluster_vdm::{Database, Direction, RelKind};

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
                .map(|f| model.arc_weight(kind, f.weight(kind, Direction::Forward)))
                .unwrap_or(1.0);
            total += w;
        }
    }
    total
}

/// The share of the broken weight `before` that a new layout with
/// broken weight `after` repaired (0 when nothing was broken).
pub fn repaired_share(before: f64, after: f64) -> f64 {
    if before == 0.0 {
        0.0
    } else {
        1.0 - after / before
    }
}

/// Count `(on_page, total)` structural co-references for `page`.
///
/// Only placed neighbours count toward the total: an object that has no
/// page yet cannot be co-resident with anything, so including it would
/// punish layouts for objects that do not physically exist yet.
pub fn page_locality(db: &Database, store: &StorageManager, page: PageId) -> (u64, u64) {
    let Ok(objects) = store.objects_on(page) else {
        return (0, 0);
    };
    let graph = db.graph();
    let mut on_page = 0u64;
    let mut total = 0u64;
    let mut tally = |neighbors: &[semcluster_vdm::ObjectId]| {
        for &neighbor in neighbors {
            match store.page_of(neighbor) {
                Some(p) if p == page => {
                    on_page += 1;
                    total += 1;
                }
                Some(_) => total += 1,
                None => {}
            }
        }
    };
    for &(object, _size) in objects {
        for kind in RelKind::ALL {
            tally(graph.neighbors(object, kind, Direction::Forward));
            if !kind.is_symmetric() {
                tally(graph.neighbors(object, kind, Direction::Backward));
            }
        }
    }
    (on_page, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcluster_storage::DEFAULT_PAGE_BYTES;
    use semcluster_vdm::{ObjectName, RelFrequencies, RelKind, TypeLattice};

    #[test]
    fn counts_on_page_and_off_page_references() {
        let mut lattice = TypeLattice::new();
        let t = lattice
            .define_simple(
                "layout",
                RelFrequencies {
                    config_down: 5.0,
                    config_up: 5.0,
                    ..RelFrequencies::UNIFORM
                },
            )
            .unwrap();
        let mut db = Database::with_lattice(lattice);
        let a = db
            .create_object(ObjectName::new("A", 1, "layout"), t, 100)
            .unwrap();
        let b = db
            .create_object(ObjectName::new("B", 1, "layout"), t, 100)
            .unwrap();
        let c = db
            .create_object(ObjectName::new("C", 1, "layout"), t, 100)
            .unwrap();
        db.relate(RelKind::Configuration, a, b).unwrap();
        db.relate(RelKind::Configuration, a, c).unwrap();
        let mut store = StorageManager::new(DEFAULT_PAGE_BYTES);
        let p0 = store.allocate_page();
        let p1 = store.allocate_page();
        store.place(a, 100, p0).unwrap();
        store.place(b, 100, p0).unwrap();
        store.place(c, 100, p1).unwrap();
        // a→b on-page, a→c off-page, plus the reverse arcs b→a (on-page)
        // and c's arcs live on p1.
        let (on, total) = page_locality(&db, &store, p0);
        assert!(total >= 3);
        assert!(on >= 2);
        assert!(on < total, "a→c crosses pages");
        let (on1, total1) = page_locality(&db, &store, p1);
        assert_eq!(on1, 0);
        assert!(total1 >= 1);
    }

    #[test]
    fn broken_weight_is_zero_when_everything_fits_one_page() {
        let (db, _) = semcluster_vdm::SyntheticDbSpec {
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
    fn empty_or_unknown_page_scores_zero() {
        let db = Database::new();
        let mut store = StorageManager::new(DEFAULT_PAGE_BYTES);
        let p = store.allocate_page();
        assert_eq!(page_locality(&db, &store, p), (0, 0));
        assert_eq!(page_locality(&db, &store, PageId(999)), (0, 0));
    }
}
