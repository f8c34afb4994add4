//! Navigational query execution.
//!
//! §4.1 fixes seven query types for engineering-design procedure calls;
//! this module implements the six read types as pure functions over the
//! logical database, returning the object set a query materialises. The
//! simulation engine, the examples and the CLI all route retrievals
//! through here so the semantics live in exactly one place.

use crate::db::Database;
use crate::graph::WalkScratch;
use crate::id::ObjectId;

/// The read query types of §4.1 (mutation, type 7, is an engine-side
/// operation — see the simulation engine and [`Database::delete_object`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadQuery {
    /// (1) Simple object lookup by unique name: just the object.
    SimpleLookup,
    /// (2) Component → composite navigation (upward; §3.4: upward
    /// accesses mostly return a single object).
    ComponentRetrieval,
    /// (3) Composite retrieval: the object plus up to `fanout` transitive
    /// components, in [`StructureGraph::transitive_components`] order
    /// (depth-first, last-reported component expanded first).
    ///
    /// [`StructureGraph::transitive_components`]: crate::StructureGraph::transitive_components
    CompositeRetrieval {
        /// Maximum components returned.
        fanout: usize,
    },
    /// (4) Immediate descendant versions.
    DescendantRetrieval,
    /// (5) Immediate ancestor versions.
    AncestorRetrieval,
    /// (6) All corresponding objects.
    CorrespondentRetrieval,
}

/// Execute a read query rooted at `root` into `out` (cleared first): the
/// result always starts with `root` itself, followed by the related
/// objects in traversal order. Tombstoned (deleted) objects are filtered
/// out. `walk` and `out` are the caller's to reuse, so a query allocates
/// nothing once they have grown.
pub fn execute_read(
    db: &Database,
    query: ReadQuery,
    root: ObjectId,
    walk: &mut WalkScratch,
    out: &mut Vec<ObjectId>,
) {
    let graph = db.graph();
    out.clear();
    out.push(root);
    match query {
        ReadQuery::SimpleLookup => {}
        ReadQuery::ComponentRetrieval => {
            out.extend(graph.composites(root).iter().take(1).copied());
        }
        ReadQuery::CompositeRetrieval { fanout } => {
            graph.transitive_components(root, fanout, walk, out);
        }
        ReadQuery::DescendantRetrieval => out.extend_from_slice(graph.descendants(root)),
        ReadQuery::AncestorRetrieval => out.extend_from_slice(graph.ancestors(root)),
        ReadQuery::CorrespondentRetrieval => out.extend_from_slice(graph.correspondents(root)),
    }
    out.retain(|&o| db.is_live(o));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::ObjectName;
    use crate::relationship::{RelFrequencies, RelKind};
    use crate::types::TypeLattice;

    fn execute_read(db: &Database, query: ReadQuery, root: ObjectId) -> Vec<ObjectId> {
        let mut out = vec![ObjectId(u32::MAX)]; // stale content must be cleared
        super::execute_read(db, query, root, &mut WalkScratch::default(), &mut out);
        out
    }

    fn fixture() -> (Database, ObjectId, Vec<ObjectId>) {
        let mut lattice = TypeLattice::new();
        let layout = lattice
            .define_simple("layout", RelFrequencies::UNIFORM)
            .unwrap();
        let netlist = lattice
            .define_simple("netlist", RelFrequencies::UNIFORM)
            .unwrap();
        let mut db = Database::with_lattice(lattice);
        let root = db
            .create_object(ObjectName::new("TOP", 2, "layout"), layout, 100)
            .unwrap();
        let mut others = Vec::new();
        for (i, name) in [("A", "layout"), ("B", "layout")].iter().enumerate() {
            let id = db
                .create_object(ObjectName::new(name.0, 1, name.1), layout, 50)
                .unwrap();
            db.relate(RelKind::Configuration, root, id).unwrap();
            others.push(id);
            let _ = i;
        }
        let parent = db
            .create_object(ObjectName::new("TOP", 1, "layout"), layout, 90)
            .unwrap();
        db.relate(RelKind::VersionHistory, parent, root).unwrap();
        let corr = db
            .create_object(ObjectName::new("TOP", 2, "netlist"), netlist, 40)
            .unwrap();
        db.relate(RelKind::Correspondence, root, corr).unwrap();
        others.push(parent);
        others.push(corr);
        (db, root, others)
    }

    #[test]
    fn all_six_read_types_execute() {
        let (db, root, others) = fixture();
        let (a, b, parent, corr) = (others[0], others[1], others[2], others[3]);
        assert_eq!(execute_read(&db, ReadQuery::SimpleLookup, root), vec![root]);
        assert_eq!(
            execute_read(&db, ReadQuery::ComponentRetrieval, a),
            vec![a, root]
        );
        assert_eq!(
            execute_read(&db, ReadQuery::CompositeRetrieval { fanout: 10 }, root),
            vec![root, a, b]
        );
        assert_eq!(
            execute_read(&db, ReadQuery::CompositeRetrieval { fanout: 1 }, root).len(),
            2
        );
        assert_eq!(
            execute_read(&db, ReadQuery::AncestorRetrieval, root),
            vec![root, parent]
        );
        assert_eq!(
            execute_read(&db, ReadQuery::DescendantRetrieval, parent),
            vec![parent, root]
        );
        assert_eq!(
            execute_read(&db, ReadQuery::CorrespondentRetrieval, root),
            vec![root, corr]
        );
    }

    #[test]
    fn deleted_objects_disappear_from_results() {
        let (mut db, root, others) = fixture();
        let a = others[0];
        db.delete_object(a).unwrap();
        let result = execute_read(&db, ReadQuery::CompositeRetrieval { fanout: 10 }, root);
        assert!(!result.contains(&a));
        assert!(result.contains(&root));
    }
}
