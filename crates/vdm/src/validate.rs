//! Referential-integrity validation.
//!
//! OCT left attachment legality to its users, and the paper observes
//! (§3.5) that tools like SPARCS burn "a tremendous number of unnecessary
//! I/Os" re-scanning designs to check invariants the system could
//! guarantee. This module provides those guarantees as a whole-database
//! audit.

use crate::db::Database;
use crate::id::ObjectId;
use crate::object::AttrImpl;
use crate::relationship::RelKind;
use std::fmt;

/// One detected integrity violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A graph edge references an object the database does not contain.
    DanglingEdge(RelKind, ObjectId, ObjectId),
    /// Version-history relatives must share base name and representation.
    VersionLineageMismatch(ObjectId, ObjectId),
    /// Corresponding objects must be the same design entity in different
    /// representations.
    CorrespondenceMismatch(ObjectId, ObjectId),
    /// Two objects are connected by more than one path of configuration
    /// edges of length one (duplicate terminal-path style anomaly).
    DuplicateConfiguration(ObjectId, ObjectId),
    /// An attribute implemented by copy/reference names a provider that
    /// does not exist.
    DanglingAttributeProvider(ObjectId, String, ObjectId),
    /// A by-reference attribute has no matching inheritance edge.
    MissingInheritanceLink(ObjectId, ObjectId),
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DanglingEdge(k, a, b) => write!(f, "{k} edge {a}→{b} dangles"),
            Violation::VersionLineageMismatch(a, b) => {
                write!(f, "version edge {a}→{b} crosses lineages")
            }
            Violation::CorrespondenceMismatch(a, b) => {
                write!(f, "correspondence {a}↔{b} is not cross-representation")
            }
            Violation::DuplicateConfiguration(a, b) => {
                write!(f, "duplicate configuration edge {a}→{b}")
            }
            Violation::DanglingAttributeProvider(o, name, p) => {
                write!(f, "object {o} attribute {name:?} references missing {p}")
            }
            Violation::MissingInheritanceLink(p, c) => {
                write!(
                    f,
                    "by-reference attribute {p}→{c} lacks an inheritance edge"
                )
            }
        }
    }
}

/// Audit the whole database; returns every violation found (empty means
/// the database satisfies referential integrity).
pub fn validate(db: &Database) -> Vec<Violation> {
    let mut out = Vec::new();
    let n = db.object_count();
    let exists = |id: ObjectId| id.index() < n;

    for (kind, from, to) in db.graph().edges() {
        if !exists(from) || !exists(to) {
            out.push(Violation::DanglingEdge(kind, from, to));
            continue;
        }
        match kind {
            // Interned handles compare as the strings they stand for.
            RelKind::VersionHistory => {
                let a = db.get(from).expect("checked").name;
                let b = db.get(to).expect("checked").name;
                if !(a.base == b.base && a.rep == b.rep) {
                    out.push(Violation::VersionLineageMismatch(from, to));
                }
            }
            RelKind::Correspondence => {
                let a = db.get(from).expect("checked").name;
                let b = db.get(to).expect("checked").name;
                if !(a.base == b.base && a.rep != b.rep) {
                    out.push(Violation::CorrespondenceMismatch(from, to));
                }
            }
            RelKind::Configuration | RelKind::Inheritance => {}
        }
    }

    // Configuration duplicate detection (graph already prevents exact
    // duplicates; this catches any future representation change).
    for obj in db.objects() {
        let comps = db.graph().components(obj.id);
        for (i, &a) in comps.iter().enumerate() {
            if comps[i + 1..].contains(&a) {
                out.push(Violation::DuplicateConfiguration(obj.id, a));
            }
        }
    }

    // Attribute providers must exist and by-reference slots must have a
    // visible inheritance edge.
    for obj in db.objects() {
        for attr in db.attrs_of(obj.id).expect("live object of this database") {
            match attr.implementation {
                AttrImpl::Local => {}
                AttrImpl::CopiedFrom(p) => {
                    if !exists(p) {
                        out.push(Violation::DanglingAttributeProvider(
                            obj.id,
                            attr.name.to_string(),
                            p,
                        ));
                    }
                }
                AttrImpl::ReferenceTo(p) => {
                    if !exists(p) {
                        out.push(Violation::DanglingAttributeProvider(
                            obj.id,
                            attr.name.to_string(),
                            p,
                        ));
                    } else if !db.graph().providers(obj.id).contains(&p) {
                        out.push(Violation::MissingInheritanceLink(p, obj.id));
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inherit::{derive_version, CopyVsRefModel};
    use crate::name::ObjectName;
    use crate::relationship::RelFrequencies;
    use crate::types::TypeLattice;

    fn db2() -> (Database, ObjectId, ObjectId) {
        let mut lattice = TypeLattice::new();
        let layout = lattice
            .define_simple("layout", RelFrequencies::UNIFORM)
            .unwrap();
        let netlist = lattice
            .define_simple("netlist", RelFrequencies::UNIFORM)
            .unwrap();
        let mut db = Database::with_lattice(lattice);
        let a = db
            .create_object(ObjectName::new("ALU", 1, "layout"), layout, 10)
            .unwrap();
        let b = db
            .create_object(ObjectName::new("ALU", 1, "netlist"), netlist, 10)
            .unwrap();
        (db, a, b)
    }

    #[test]
    fn clean_database_passes() {
        let (mut db, a, b) = db2();
        db.relate(RelKind::Correspondence, a, b).unwrap();
        derive_version(&mut db, a, &CopyVsRefModel::default()).unwrap();
        assert!(validate(&db).is_empty());
    }

    #[test]
    fn cross_lineage_version_edge_flagged() {
        let (mut db, a, b) = db2();
        db.relate(RelKind::VersionHistory, a, b).unwrap();
        assert_eq!(validate(&db), vec![Violation::VersionLineageMismatch(a, b)]);
    }

    #[test]
    fn same_representation_correspondence_flagged() {
        let (mut db, a, _) = db2();
        let lattice_id = db.lattice().id_of("layout").unwrap();
        let a2 = db
            .create_object(ObjectName::new("ALU", 7, "layout"), lattice_id, 10)
            .unwrap();
        db.relate(RelKind::Correspondence, a, a2).unwrap();
        assert!(matches!(
            validate(&db).as_slice(),
            [Violation::CorrespondenceMismatch(_, _)]
        ));
    }
}
