//! The logical object database: type lattice + object arena + structure
//! graph, with name-based lookup.
//!
//! This is the *logical* half of the DBMS; physical placement lives in
//! `semcluster-storage` and is driven by `semcluster-clustering`.

use crate::graph::{GraphError, StructureGraph};
use crate::id::{ObjectId, TypeId};
use crate::name::ObjectName;
use crate::object::{AttrImpl, AttrInstance, DesignObject};
use crate::relationship::{RelFrequencies, RelKind};
use crate::types::{TypeError, TypeLattice};
use std::collections::HashMap;
use std::fmt;

/// Errors raised by logical-database operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// An object with this `name[i].type` triple already exists.
    DuplicateName(ObjectName),
    /// Unknown object id.
    UnknownObject(ObjectId),
    /// Propagated type-lattice error.
    Type(TypeError),
    /// Propagated structure-graph error.
    Graph(GraphError),
    /// The object was already deleted.
    Deleted(ObjectId),
    /// The object cannot be deleted while others inherit from it by
    /// reference.
    HasInheritors(ObjectId),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::DuplicateName(n) => write!(f, "object {n} already exists"),
            DbError::UnknownObject(o) => write!(f, "unknown object {o}"),
            DbError::Type(e) => write!(f, "type error: {e}"),
            DbError::Graph(e) => write!(f, "graph error: {e}"),
            DbError::Deleted(o) => write!(f, "object {o} is deleted"),
            DbError::HasInheritors(o) => {
                write!(f, "object {o} has by-reference inheritors")
            }
        }
    }
}

impl std::error::Error for DbError {}

impl From<TypeError> for DbError {
    fn from(e: TypeError) -> Self {
        DbError::Type(e)
    }
}

impl From<GraphError> for DbError {
    fn from(e: GraphError) -> Self {
        DbError::Graph(e)
    }
}

/// The logical design database.
#[derive(Debug, Clone, Default)]
pub struct Database {
    lattice: TypeLattice,
    objects: Vec<DesignObject>,
    live: Vec<bool>,
    by_name: HashMap<ObjectName, ObjectId>,
    latest: HashMap<(String, String), u32>,
    graph: StructureGraph,
}

impl Database {
    /// Empty database with an empty type lattice.
    pub fn new() -> Self {
        Self::default()
    }

    /// Database using a pre-built lattice.
    pub fn with_lattice(lattice: TypeLattice) -> Self {
        Database {
            lattice,
            ..Self::default()
        }
    }

    /// The type lattice (immutable access).
    pub fn lattice(&self) -> &TypeLattice {
        &self.lattice
    }

    /// The structure graph (immutable access).
    pub fn graph(&self) -> &StructureGraph {
        &self.graph
    }

    /// Number of objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Create a new object. Attribute slots are instantiated locally from
    /// the type's resolved attribute definitions; instance-to-instance
    /// inheritance (see [`derive_version`](crate::derive_version)) can later rewrite them.
    pub fn create_object(
        &mut self,
        name: ObjectName,
        ty: TypeId,
        body_bytes: u32,
    ) -> Result<ObjectId, DbError> {
        if self.by_name.contains_key(&name) {
            return Err(DbError::DuplicateName(name));
        }
        let attrs: Vec<AttrInstance> = self
            .lattice
            .resolve_attributes(ty)?
            .into_iter()
            .map(|d| AttrInstance {
                name: d.name,
                size_bytes: d.size_bytes,
                implementation: AttrImpl::Local,
            })
            .collect();
        let id = ObjectId(self.objects.len() as u32);
        self.by_name.insert(name.clone(), id);
        let lineage = (name.base.clone(), name.rep.clone());
        match self.latest.get_mut(&lineage) {
            Some(v) => *v = (*v).max(name.version),
            None => {
                self.latest.insert(lineage, name.version);
            }
        }
        self.objects.push(DesignObject {
            id,
            name,
            ty,
            body_bytes,
            attrs,
        });
        self.live.push(true);
        self.graph.ensure_node(id);
        Ok(id)
    }

    /// Look up an object by id.
    pub fn get(&self, id: ObjectId) -> Result<&DesignObject, DbError> {
        self.objects
            .get(id.index())
            .ok_or(DbError::UnknownObject(id))
    }

    /// Mutable lookup by id.
    pub fn get_mut(&mut self, id: ObjectId) -> Result<&mut DesignObject, DbError> {
        self.objects
            .get_mut(id.index())
            .ok_or(DbError::UnknownObject(id))
    }

    /// Look up an object by its `name[i].type` triple.
    pub fn lookup(&self, name: &ObjectName) -> Option<ObjectId> {
        self.by_name.get(name).copied()
    }

    /// Latest version number in use for `base`/`rep` (None if unused).
    pub fn latest_version(&self, base: &str, rep: &str) -> Option<u32> {
        self.latest
            .get(&(base.to_string(), rep.to_string()))
            .copied()
    }

    /// Add a structural relationship.
    pub fn relate(&mut self, kind: RelKind, from: ObjectId, to: ObjectId) -> Result<(), DbError> {
        self.check_exists(from)?;
        self.check_exists(to)?;
        self.graph.add_edge(kind, from, to)?;
        Ok(())
    }

    /// Remove a structural relationship.
    pub fn unrelate(&mut self, kind: RelKind, from: ObjectId, to: ObjectId) -> Result<(), DbError> {
        self.graph.remove_edge(kind, from, to)?;
        Ok(())
    }

    /// Effective traversal frequencies for an object: inherited from its
    /// type (§2.1 — frequency information "is available in the
    /// corresponding data type and is inherited by the newly created
    /// instance").
    pub fn frequencies_of(&self, id: ObjectId) -> Result<RelFrequencies, DbError> {
        let ty = self.get(id)?.ty;
        Ok(self.lattice.frequencies(ty)?)
    }

    /// Iterate all live objects.
    pub fn objects(&self) -> impl Iterator<Item = &DesignObject> {
        self.objects.iter().filter(|o| self.live[o.id.index()])
    }

    /// Whether `id` refers to a live (non-deleted) object.
    pub fn is_live(&self, id: ObjectId) -> bool {
        self.live.get(id.index()).copied().unwrap_or(false)
    }

    /// Delete an object (§4.1 query type 7 covers deletion): all its
    /// structural relationships are removed, its name is freed, and its
    /// id becomes a tombstone — object ids are never reused, so stale
    /// references fail [`Database::is_live`] instead of aliasing.
    ///
    /// Deletion is refused while any other object inherits an attribute
    /// from this one by reference (the value would dangle).
    pub fn delete_object(&mut self, id: ObjectId) -> Result<(), DbError> {
        self.check_exists(id)?;
        if !self.live[id.index()] {
            return Err(DbError::Deleted(id));
        }
        if !self.graph.inheritors(id).is_empty() {
            return Err(DbError::HasInheritors(id));
        }
        for (kind, dir, other) in self.graph.related(id) {
            let (from, to) = match dir {
                crate::relationship::Direction::Forward => (id, other),
                crate::relationship::Direction::Backward => (other, id),
            };
            self.graph.remove_edge(kind, from, to)?;
        }
        let name = self.objects[id.index()].name.clone();
        self.by_name.remove(&name);
        self.live[id.index()] = false;
        Ok(())
    }

    fn check_exists(&self, id: ObjectId) -> Result<(), DbError> {
        if id.index() < self.objects.len() {
            Ok(())
        } else {
            Err(DbError::UnknownObject(id))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::AttrDef;

    fn db_with_type() -> (Database, TypeId) {
        let mut lattice = TypeLattice::new();
        let ty = lattice
            .define(
                "layout",
                vec![],
                vec![AttrDef::new("bbox", 32)],
                vec![],
                RelFrequencies::UNIFORM,
            )
            .unwrap();
        (Database::with_lattice(lattice), ty)
    }

    #[test]
    fn create_and_lookup() {
        let (mut db, ty) = db_with_type();
        let name = ObjectName::new("ALU", 1, "layout");
        let id = db.create_object(name.clone(), ty, 200).unwrap();
        assert_eq!(db.lookup(&name), Some(id));
        let obj = db.get(id).unwrap();
        assert_eq!(obj.body_bytes, 200);
        assert_eq!(obj.attrs.len(), 1); // instantiated from the type
        assert_eq!(db.object_count(), 1);
    }

    #[test]
    fn duplicate_names_rejected() {
        let (mut db, ty) = db_with_type();
        let name = ObjectName::new("ALU", 1, "layout");
        db.create_object(name.clone(), ty, 100).unwrap();
        assert_eq!(
            db.create_object(name.clone(), ty, 100),
            Err(DbError::DuplicateName(name))
        );
    }

    #[test]
    fn relate_validates_object_ids() {
        let (mut db, ty) = db_with_type();
        let a = db
            .create_object(ObjectName::new("A", 1, "layout"), ty, 10)
            .unwrap();
        assert_eq!(
            db.relate(RelKind::Configuration, a, ObjectId(42)),
            Err(DbError::UnknownObject(ObjectId(42)))
        );
        let b = db
            .create_object(ObjectName::new("B", 1, "layout"), ty, 10)
            .unwrap();
        db.relate(RelKind::Configuration, a, b).unwrap();
        assert_eq!(db.graph().components(a), &[b]);
        db.unrelate(RelKind::Configuration, a, b).unwrap();
        assert!(db.graph().components(a).is_empty());
    }

    #[test]
    fn latest_version_tracks_lineage() {
        let (mut db, ty) = db_with_type();
        for v in 1..=3 {
            db.create_object(ObjectName::new("ALU", v, "layout"), ty, 10)
                .unwrap();
        }
        db.create_object(ObjectName::new("ALU", 9, "netlist"), ty, 10)
            .unwrap();
        assert_eq!(db.latest_version("ALU", "layout"), Some(3));
        assert_eq!(db.latest_version("ALU", "netlist"), Some(9));
        assert_eq!(db.latest_version("MUL", "layout"), None);
    }

    #[test]
    fn delete_object_removes_edges_and_name() {
        let (mut db, ty) = db_with_type();
        let a = db
            .create_object(ObjectName::new("A", 1, "layout"), ty, 10)
            .unwrap();
        let b = db
            .create_object(ObjectName::new("B", 1, "layout"), ty, 10)
            .unwrap();
        db.relate(RelKind::Configuration, a, b).unwrap();
        db.delete_object(b).unwrap();
        assert!(!db.is_live(b));
        assert!(db.is_live(a));
        assert!(db.graph().components(a).is_empty());
        assert_eq!(db.lookup(&ObjectName::new("B", 1, "layout")), None);
        // Double delete and relating to a tombstone both fail.
        assert_eq!(db.delete_object(b), Err(DbError::Deleted(b)));
        assert_eq!(db.objects().count(), 1);
        // The freed name can be reused.
        let b2 = db
            .create_object(ObjectName::new("B", 1, "layout"), ty, 10)
            .unwrap();
        assert_ne!(b, b2, "ids are never reused");
    }

    #[test]
    fn delete_refused_while_inheritors_exist() {
        let (mut db, ty) = db_with_type();
        let parent = db
            .create_object(ObjectName::new("P", 1, "layout"), ty, 10)
            .unwrap();
        let child = db
            .create_object(ObjectName::new("C", 1, "layout"), ty, 10)
            .unwrap();
        db.relate(RelKind::Inheritance, parent, child).unwrap();
        assert_eq!(
            db.delete_object(parent),
            Err(DbError::HasInheritors(parent))
        );
        // Deleting the inheritor first unblocks the provider.
        db.delete_object(child).unwrap();
        db.delete_object(parent).unwrap();
    }

    #[test]
    fn frequencies_come_from_type() {
        let mut lattice = TypeLattice::new();
        let ty = lattice
            .define_simple(
                "netlist",
                RelFrequencies {
                    config_down: 7.0,
                    ..RelFrequencies::UNIFORM
                },
            )
            .unwrap();
        let mut db = Database::with_lattice(lattice);
        let id = db
            .create_object(ObjectName::new("X", 1, "netlist"), ty, 10)
            .unwrap();
        assert_eq!(db.frequencies_of(id).unwrap().config_down, 7.0);
    }
}
