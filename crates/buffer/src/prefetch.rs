//! Relationship-directed prefetching.
//!
//! "Touching an object causes the page containing it and the pages
//! containing its immediate subcomponents to be brought into the buffer
//! pool and given the same high priority" (§2.2). The prefetch group is
//! chosen by the session's [`AccessHint`]; the [`PrefetchScope`] decides
//! whether missing members are fetched (within-database) or only resident
//! members are re-prioritised (within-buffer).

use crate::policy::{AccessHint, PrefetchScope};
use crate::pool::BufferPool;
use semcluster_storage::{PageId, StorageManager};
use semcluster_vdm::{Database, ObjectId};

/// What one prefetch application did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PrefetchEffect {
    /// Pages fetched from disk (each is one physical read).
    pub fetched: Vec<PageId>,
    /// Dirty pages written back by prefetch-triggered evictions.
    pub write_backs: Vec<PageId>,
    /// Resident pages whose priority was raised.
    pub boosted: usize,
}

/// The pages holding the prefetch group of `object` under `hint`:
/// immediate subcomponents for configuration access, immediate ancestor +
/// descendants for version access, all correspondents for correspondence
/// access, providers + inheritors for inheritance access. The object's own
/// page is excluded (the caller just touched it). Pages are deduplicated,
/// unplaced objects skipped.
pub fn prefetch_group(
    db: &Database,
    store: &StorageManager,
    object: ObjectId,
    hint: AccessHint,
) -> Vec<PageId> {
    let graph = db.graph();
    let own = store.page_of(object);
    let mut related: Vec<ObjectId> = Vec::new();
    match hint {
        AccessHint::None => {}
        AccessHint::ByConfiguration => related.extend_from_slice(graph.components(object)),
        AccessHint::ByVersionHistory => {
            related.extend_from_slice(graph.ancestors(object));
            related.extend_from_slice(graph.descendants(object));
        }
        AccessHint::ByCorrespondence => related.extend_from_slice(graph.correspondents(object)),
        AccessHint::ByInheritance => {
            related.extend_from_slice(graph.providers(object));
            related.extend_from_slice(graph.inheritors(object));
        }
    }
    let mut pages: Vec<PageId> = related
        .into_iter()
        .filter_map(|o| store.page_of(o))
        .filter(|p| Some(*p) != own)
        .collect();
    pages.sort_unstable();
    pages.dedup();
    pages
}

/// Apply a prefetch group to the pool under `scope`.
pub fn apply_prefetch(
    pool: &mut BufferPool,
    group: &[PageId],
    scope: PrefetchScope,
) -> PrefetchEffect {
    let mut effect = PrefetchEffect::default();
    match scope {
        PrefetchScope::None => {}
        PrefetchScope::WithinBuffer => {
            for &page in group {
                if pool.contains(page) {
                    pool.refresh(page);
                    effect.boosted += 1;
                }
            }
        }
        PrefetchScope::WithinDatabase => {
            for &page in group {
                if pool.contains(page) {
                    pool.refresh(page);
                    effect.boosted += 1;
                } else {
                    if let Some(dirty) = pool.prefetch(page) {
                        effect.write_backs.push(dirty);
                    }
                    effect.fetched.push(page);
                }
            }
        }
    }
    effect
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ReplacementPolicy;
    use semcluster_storage::DEFAULT_PAGE_BYTES;
    use semcluster_vdm::{ObjectName, RelFrequencies, RelKind, TypeLattice};

    /// A composite with two components and one correspondent, each placed
    /// on its own page.
    fn fixture() -> (Database, StorageManager, ObjectId, Vec<PageId>) {
        let mut lattice = TypeLattice::new();
        let layout = lattice
            .define_simple("layout", RelFrequencies::UNIFORM)
            .unwrap();
        let netlist = lattice
            .define_simple("netlist", RelFrequencies::UNIFORM)
            .unwrap();
        let mut db = Database::with_lattice(lattice);
        let root = db
            .create_object(ObjectName::new("TOP", 1, "layout"), layout, 100)
            .unwrap();
        let c1 = db
            .create_object(ObjectName::new("A", 1, "layout"), layout, 100)
            .unwrap();
        let c2 = db
            .create_object(ObjectName::new("B", 1, "layout"), layout, 100)
            .unwrap();
        let corr = db
            .create_object(ObjectName::new("TOP", 1, "netlist"), netlist, 100)
            .unwrap();
        db.relate(RelKind::Configuration, root, c1).unwrap();
        db.relate(RelKind::Configuration, root, c2).unwrap();
        db.relate(RelKind::Correspondence, root, corr).unwrap();

        let mut store = StorageManager::new(DEFAULT_PAGE_BYTES);
        let mut pages = Vec::new();
        for obj in [root, c1, c2, corr] {
            let pid = store.allocate_page();
            store.place(obj, 100, pid).unwrap();
            pages.push(pid);
        }
        (db, store, root, pages)
    }

    #[test]
    fn group_follows_hint() {
        let (db, store, root, pages) = fixture();
        let cfg = prefetch_group(&db, &store, root, AccessHint::ByConfiguration);
        assert_eq!(cfg, vec![pages[1], pages[2]]);
        let corr = prefetch_group(&db, &store, root, AccessHint::ByCorrespondence);
        assert_eq!(corr, vec![pages[3]]);
        assert!(prefetch_group(&db, &store, root, AccessHint::None).is_empty());
        assert!(prefetch_group(&db, &store, root, AccessHint::ByVersionHistory).is_empty());
    }

    #[test]
    fn own_page_excluded_and_deduped() {
        let (db, mut store, root, _) = fixture();
        // Re-place both components onto the root's page.
        let root_page = store.page_of(root).unwrap();
        let comps: Vec<_> = db.graph().components(root).to_vec();
        for c in comps {
            store.move_object(c, root_page).unwrap();
        }
        let group = prefetch_group(&db, &store, root, AccessHint::ByConfiguration);
        assert!(group.is_empty(), "co-resident components need no prefetch");
    }

    #[test]
    fn within_database_fetches_missing() {
        let (db, store, root, pages) = fixture();
        let mut pool = BufferPool::new(8, ReplacementPolicy::ContextSensitive, 0);
        let group = prefetch_group(&db, &store, root, AccessHint::ByConfiguration);
        let effect = apply_prefetch(&mut pool, &group, PrefetchScope::WithinDatabase);
        assert_eq!(effect.fetched, vec![pages[1], pages[2]]);
        assert_eq!(effect.boosted, 0);
        assert!(pool.contains(pages[1]) && pool.contains(pages[2]));
    }

    #[test]
    fn within_buffer_never_does_io() {
        let (db, store, root, pages) = fixture();
        let mut pool = BufferPool::new(8, ReplacementPolicy::ContextSensitive, 0);
        pool.access(pages[1]); // one component resident
        let group = prefetch_group(&db, &store, root, AccessHint::ByConfiguration);
        let effect = apply_prefetch(&mut pool, &group, PrefetchScope::WithinBuffer);
        assert!(effect.fetched.is_empty());
        assert_eq!(effect.boosted, 1);
        assert!(!pool.contains(pages[2]), "missing page not fetched");
    }

    #[test]
    fn none_scope_is_inert() {
        let (db, store, root, _) = fixture();
        let mut pool = BufferPool::new(8, ReplacementPolicy::Lru, 0);
        let group = prefetch_group(&db, &store, root, AccessHint::ByConfiguration);
        let effect = apply_prefetch(&mut pool, &group, PrefetchScope::None);
        assert_eq!(effect, PrefetchEffect::default());
        assert!(pool.is_empty());
    }
}
