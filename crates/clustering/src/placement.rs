//! Initial placement and the candidate-page search.
//!
//! For each newly created instance the algorithm ranks candidate pages by
//! *affinity* — the summed arc weight of related objects resident on the
//! page — and walks them best-first until one with room is found. The
//! candidate-pool policy (§2.1a) bounds how many **non-resident** pages
//! the search may read:
//!
//! * `Cluster_within_Buffer` — only pages in the buffer pool; zero I/O;
//! * `k_IO_limit` — at most `k` candidate pages fetched from disk;
//! * `No_limit` — the entire database is fair game.
//!
//! The search result is a *plan*; the simulation engine executes it so the
//! candidate-page reads flow through the buffer manager and get charged to
//! the writer's response time.

use crate::arena::ScoreScratch;
use crate::config::ClusteringPolicy;
use crate::cost::{
    candidate_pages_in, extended_neighbors_where, weighted_neighbors_in, WeightModel,
};
use semcluster_buffer::BufferPool;
use semcluster_storage::{PageId, StorageError, StorageManager};
use semcluster_vdm::{Database, ObjectId};

/// Pages the candidate search can examine without I/O.
pub trait ResidencyView {
    /// Whether `page` is in memory.
    fn is_resident(&self, page: PageId) -> bool;
}

impl ResidencyView for BufferPool {
    fn is_resident(&self, page: PageId) -> bool {
        self.contains(page)
    }
}

/// A residency view that treats every page as in memory (useful for bulk
/// loading, where the search should not be residency-constrained).
#[derive(Debug, Clone, Copy, Default)]
pub struct AllResident;

impl ResidencyView for AllResident {
    fn is_resident(&self, _page: PageId) -> bool {
        true
    }
}

/// Where the plan wants the object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementTarget {
    /// Place on an existing candidate page.
    Existing(PageId),
    /// No viable candidate: append at the sequential cursor.
    Append,
}

/// One page the candidate search examined, with the facts the decision
/// was based on — the raw material for placement trace records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExaminedCandidate {
    /// The candidate page.
    pub page: PageId,
    /// Its score at decision time: placement affinity for the create
    /// search, expected-cost gain (possibly negative) for reclustering.
    pub score: f64,
    /// Whether the object fit on the page.
    pub fits: bool,
}

/// Output of the candidate search.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementPlan {
    /// Chosen target.
    pub target: PlacementTarget,
    /// The highest-affinity candidate that was examined but full —
    /// the page-splitting decision (§2.1b) applies to this page.
    pub preferred_full: Option<PageId>,
    /// Affinity of the preferred-full page (0 if none).
    pub preferred_full_affinity: f64,
    /// Non-resident candidate pages read during the search (each is a
    /// physical I/O charged to the writing transaction).
    pub search_ios: u32,
    /// Every page the search examined, in examination order, with its
    /// affinity and whether it had room.
    pub examined: Vec<ExaminedCandidate>,
    /// Affinity of the chosen target (0 for append).
    pub chosen_affinity: f64,
}

/// Rank candidates and find a home for `object` of `size` bytes, using
/// `scratch` for every intermediate — the only allocation-visible state
/// is the plan's `examined` list, which is recycled from `scratch` and
/// should be handed back with [`ScoreScratch::put_examined`] once the
/// plan has been consumed. This is [`score_placement_in`] with the
/// store's placed objects, then [`choose_placement_in`].
#[allow(clippy::too_many_arguments)]
pub fn plan_placement_in(
    db: &Database,
    store: &StorageManager,
    residency: &impl ResidencyView,
    policy: ClusteringPolicy,
    model: &WeightModel,
    object: ObjectId,
    size: u32,
    scratch: &mut ScoreScratch,
) -> PlacementPlan {
    if policy.clusters() {
        score_placement_in(db, model, object, |o| store.page_of(o).is_some(), scratch);
    }
    choose_placement_in(store, residency, policy, size, scratch)
}

/// The scoring half of a placement search: leave `object`'s placed
/// extended neighbourhood in `scratch.extended` (empty when it has no
/// relatives at all), `placed` saying which objects have a page. It reads
/// the database and the weight model only, so it can run ahead of the
/// placements it scores when `placed` is known in advance, as in a load.
pub fn score_placement_in(
    db: &Database,
    model: &WeightModel,
    object: ObjectId,
    placed: impl Fn(ObjectId) -> bool,
    scratch: &mut ScoreScratch,
) {
    weighted_neighbors_in(db, model, object, scratch);
    if scratch.direct.is_empty() {
        scratch.extended.clear();
        return;
    }
    // Candidates come from the extended (two-hop) cluster neighbourhood;
    // exploring it is what the I/O budget pays for.
    extended_neighbors_where(db, model, object, placed, scratch);
}

/// The choosing half of a placement search: score the pages holding the
/// neighbourhood in `scratch.extended` (left there by
/// [`score_placement_in`]) and pick a home for an object of `size`
/// bytes, examining pages under `residency` and `policy`'s I/O budget.
pub fn choose_placement_in(
    store: &StorageManager,
    residency: &impl ResidencyView,
    policy: ClusteringPolicy,
    size: u32,
    scratch: &mut ScoreScratch,
) -> PlacementPlan {
    let mut plan = PlacementPlan {
        target: PlacementTarget::Append,
        preferred_full: None,
        preferred_full_affinity: 0.0,
        search_ios: 0,
        examined: scratch.take_examined(),
        chosen_affinity: 0.0,
    };
    if !policy.clusters() {
        return plan;
    }
    candidate_pages_in(store, scratch);
    // The search *examines* every candidate page it may touch — reading
    // each non-resident one (that is the cost the I/O limit bounds) — and
    // places on the best-affinity examined page with room. Examination is
    // capped at MAX_EXAMINED pages even under No_limit, mirroring a real
    // implementation's sanity bound.
    let mut io_budget = policy.io_budget();
    for i in 0..scratch.pages.len() {
        let (page, affinity) = scratch.pages[i];
        if plan.examined.len() >= MAX_EXAMINED {
            break;
        }
        if !residency.is_resident(page) {
            if io_budget == 0 {
                continue; // unexaminable under this policy
            }
            io_budget -= 1;
            plan.search_ios += 1;
        }
        let fits = store.page(page).map(|p| p.fits(size)).unwrap_or(false);
        plan.examined.push(ExaminedCandidate {
            page,
            score: affinity,
            fits,
        });
        if fits {
            if plan.target == PlacementTarget::Append {
                plan.target = PlacementTarget::Existing(page);
                plan.chosen_affinity = affinity;
            }
        } else if plan.preferred_full.is_none() {
            plan.preferred_full = Some(page);
            plan.preferred_full_affinity = affinity;
        }
    }
    plan
}

/// Upper bound on candidate pages one placement search examines, even
/// with an unbounded I/O budget.
pub const MAX_EXAMINED: usize = 16;

/// Execute a plan against the store. Returns the page the object landed
/// on.
pub fn execute_placement(
    store: &mut StorageManager,
    object: ObjectId,
    size: u32,
    plan: &PlacementPlan,
) -> Result<PageId, StorageError> {
    match plan.target {
        PlacementTarget::Existing(page) => {
            store.place(object, size, page)?;
            Ok(page)
        }
        PlacementTarget::Append => store.append(object, size),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcluster_storage::DEFAULT_PAGE_BYTES;
    use semcluster_vdm::{ObjectName, RelFrequencies, RelKind, TypeLattice};

    struct NoneResident;
    impl ResidencyView for NoneResident {
        fn is_resident(&self, _p: PageId) -> bool {
            false
        }
    }

    /// Three related anchors on three pages with descending affinity.
    fn fixture() -> (Database, StorageManager, ObjectId, [PageId; 3]) {
        let mut lattice = TypeLattice::new();
        let layout = lattice
            .define_simple(
                "layout",
                RelFrequencies {
                    config_down: 5.0,
                    config_up: 5.0,
                    version_up: 3.0,
                    version_down: 3.0,
                    correspondence: 1.0,
                    inheritance: 1.0,
                },
            )
            .unwrap();
        let mut db = Database::with_lattice(lattice);
        let new = db
            .create_object(ObjectName::new("NEW", 2, "layout"), layout, 100)
            .unwrap();
        let comp = db
            .create_object(ObjectName::new("COMP", 1, "layout"), layout, 100)
            .unwrap();
        let parent = db
            .create_object(ObjectName::new("NEW", 1, "layout"), layout, 100)
            .unwrap();
        let corr = db
            .create_object(ObjectName::new("CORR", 1, "layout"), layout, 100)
            .unwrap();
        db.relate(RelKind::Configuration, new, comp).unwrap();
        db.relate(RelKind::VersionHistory, parent, new).unwrap();
        db.relate(RelKind::Correspondence, new, corr).unwrap();
        let mut store = StorageManager::new(DEFAULT_PAGE_BYTES);
        let p0 = store.allocate_page();
        let p1 = store.allocate_page();
        let p2 = store.allocate_page();
        store.place(comp, 100, p0).unwrap(); // affinity 5
        store.place(parent, 100, p1).unwrap(); // affinity 3
        store.place(corr, 100, p2).unwrap(); // affinity 1
        (db, store, new, [p0, p1, p2])
    }

    #[test]
    fn no_cluster_always_appends() {
        let (db, store, new, _) = fixture();
        let plan = plan_placement_in(
            &db,
            &store,
            &AllResident,
            ClusteringPolicy::NoCluster,
            &WeightModel::no_hints(),
            new,
            100,
            &mut ScoreScratch::new(),
        );
        assert_eq!(plan.target, PlacementTarget::Append);
        assert_eq!(plan.search_ios, 0);
        assert!(plan.examined.is_empty());
    }

    #[test]
    fn best_affinity_candidate_wins() {
        let (db, store, new, [p0, ..]) = fixture();
        let plan = plan_placement_in(
            &db,
            &store,
            &AllResident,
            ClusteringPolicy::NoLimit,
            &WeightModel::no_hints(),
            new,
            100,
            &mut ScoreScratch::new(),
        );
        assert_eq!(plan.target, PlacementTarget::Existing(p0));
        assert_eq!(plan.chosen_affinity, 5.0); // the config_down arc to comp
    }

    #[test]
    fn within_buffer_skips_non_resident() {
        let (db, store, new, [_, p1, _]) = fixture();
        struct Only(PageId);
        impl ResidencyView for Only {
            fn is_resident(&self, p: PageId) -> bool {
                p == self.0
            }
        }
        let plan = plan_placement_in(
            &db,
            &store,
            &Only(p1),
            ClusteringPolicy::WithinBuffer,
            &WeightModel::no_hints(),
            new,
            100,
            &mut ScoreScratch::new(),
        );
        assert_eq!(plan.target, PlacementTarget::Existing(p1));
        assert_eq!(plan.search_ios, 0);
    }

    #[test]
    fn io_limit_bounds_search() {
        let (db, mut store, new, [p0, p1, _p2]) = fixture();
        // Fill the two best candidate pages so the search must go deeper.
        let filler_a = ObjectId(100);
        let filler_b = ObjectId(101);
        let cap = store.page(p0).unwrap().capacity();
        store.place(filler_a, cap - 100, p0).unwrap();
        store.place(filler_b, cap - 100, p1).unwrap();
        // With a 1-I/O limit and nothing resident, only p0 is examinable.
        let plan = plan_placement_in(
            &db,
            &store,
            &NoneResident,
            ClusteringPolicy::IoLimit(1),
            &WeightModel::no_hints(),
            new,
            100,
            &mut ScoreScratch::new(),
        );
        assert_eq!(plan.search_ios, 1);
        assert_eq!(plan.examined.len(), 1);
        assert_eq!(plan.target, PlacementTarget::Append);
        assert_eq!(plan.preferred_full, Some(p0));
        // With no limit the search reaches the third page.
        let plan = plan_placement_in(
            &db,
            &store,
            &NoneResident,
            ClusteringPolicy::NoLimit,
            &WeightModel::no_hints(),
            new,
            100,
            &mut ScoreScratch::new(),
        );
        assert_eq!(plan.search_ios, 3);
        assert!(matches!(plan.target, PlacementTarget::Existing(_)));
        assert_eq!(plan.preferred_full, Some(p0));
        assert!(plan.preferred_full_affinity > plan.chosen_affinity);
    }

    #[test]
    fn unrelated_objects_append() {
        let (mut db, store, _, _) = fixture();
        let layout = db.lattice().id_of("layout").unwrap();
        let loner = db
            .create_object(ObjectName::new("LONER", 1, "layout"), layout, 50)
            .unwrap();
        let plan = plan_placement_in(
            &db,
            &store,
            &AllResident,
            ClusteringPolicy::NoLimit,
            &WeightModel::no_hints(),
            loner,
            50,
            &mut ScoreScratch::new(),
        );
        assert_eq!(plan.target, PlacementTarget::Append);
    }

    #[test]
    fn execute_places_or_appends() {
        let (db, mut store, new, [p0, ..]) = fixture();
        let plan = plan_placement_in(
            &db,
            &store,
            &AllResident,
            ClusteringPolicy::NoLimit,
            &WeightModel::no_hints(),
            new,
            100,
            &mut ScoreScratch::new(),
        );
        let landed = execute_placement(&mut store, new, 100, &plan).unwrap();
        assert_eq!(landed, p0);
        assert_eq!(store.page_of(new), Some(p0));
    }
}
