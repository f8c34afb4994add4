//! The logical object database: type lattice + object arena + structure
//! graph, with name-based lookup.
//!
//! This is the *logical* half of the DBMS; physical placement lives in
//! `semcluster-storage` and is driven by `semcluster-clustering`.
//!
//! The catalog holds no per-object heap: an object is one `Copy`
//! [`DesignObject`] record, its name a [`NameKey`] into the database's
//! string interner, its attribute slots the type's resolved list seen
//! through the record's inheritance masks. [`ObjectName`] is the value
//! type at the boundary; the `_key` siblings serve bulk creators.

use crate::graph::{GraphError, StructureGraph};
use crate::id::{ObjectId, TypeId};
use crate::name::{Interner, NameIndex, NameKey, ObjectName, Sym};
use crate::object::{AttrInstance, DesignObject};
use crate::relationship::{RelFrequencies, RelKind};
use crate::types::{TypeError, TypeLattice};
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
    names: Interner,
    objects: Vec<DesignObject>,
    live: Vec<bool>,
    index: NameIndex,
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

    /// Room for `n` more objects in every per-object array (records,
    /// liveness, name index, graph nodes), so a bulk build never regrows.
    pub fn reserve(&mut self, n: usize) {
        self.objects.reserve(n);
        self.live.reserve(n);
        self.index.reserve(n);
        self.graph.reserve(n);
    }

    /// Intern `s` in this database's name table.
    pub fn intern(&mut self, s: &str) -> Sym {
        self.names.intern(s)
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
        let key = NameKey {
            base: self.names.intern(&name.base),
            version: name.version,
            rep: self.names.intern(&name.rep),
        };
        self.create_object_key(key, ty, body_bytes)
    }

    /// [`create_object`](Database::create_object) for a name whose
    /// strings are already interned here.
    pub fn create_object_key(
        &mut self,
        name: NameKey,
        ty: TypeId,
        body_bytes: u32,
    ) -> Result<ObjectId, DbError> {
        if self.live_named(name).is_some() {
            return Err(DbError::DuplicateName(self.materialise(name)));
        }
        let attrs = self.lattice.resolve_attributes(ty)?;
        let id = ObjectId(self.objects.len() as u32);
        self.index.push(name, id, &self.objects);
        self.objects.push(DesignObject {
            id,
            name,
            ty,
            body_bytes,
            attr_bytes: attrs.iter().map(|a| a.size_bytes).sum(),
            provider: id,
            copied: 0,
            referenced: 0,
        });
        self.live.push(true);
        self.graph.ensure_node(id);
        Ok(id)
    }

    /// The record of `id`, for `derive_version` to write its inheritance
    /// state into.
    pub(crate) fn record_mut(&mut self, id: ObjectId) -> &mut DesignObject {
        &mut self.objects[id.index()]
    }

    /// Look up an object by id. Tombstones stay readable (their record is
    /// what a deletion is accounted with); [`get_live`](Database::get_live)
    /// and every mutator refuse them.
    pub fn get(&self, id: ObjectId) -> Result<&DesignObject, DbError> {
        self.objects
            .get(id.index())
            .ok_or(DbError::UnknownObject(id))
    }

    /// [`get`](Database::get), but [`DbError::Deleted`] for a tombstone:
    /// a deleted object is not one a relationship or a derivation may name.
    pub fn get_live(&self, id: ObjectId) -> Result<&DesignObject, DbError> {
        match self.get(id) {
            Ok(_) if !self.live[id.index()] => Err(DbError::Deleted(id)),
            found => found,
        }
    }

    /// The attribute slots of `id`, in the order of its type's resolved
    /// attribute list.
    pub fn attrs_of(
        &self,
        id: ObjectId,
    ) -> Result<impl Iterator<Item = AttrInstance<'_>> + '_, DbError> {
        let obj = *self.get(id)?;
        let defs = self.lattice.resolve_attributes(obj.ty)?;
        Ok(defs.iter().enumerate().map(move |(slot, d)| AttrInstance {
            name: &d.name,
            size_bytes: d.size_bytes,
            implementation: obj.implementation(slot),
        }))
    }

    /// The external name of `id`, materialised for display.
    pub fn name_of(&self, id: ObjectId) -> Result<ObjectName, DbError> {
        Ok(self.materialise(self.get(id)?.name))
    }

    fn materialise(&self, key: NameKey) -> ObjectName {
        ObjectName::new(
            self.names.get(key.base),
            key.version,
            self.names.get(key.rep),
        )
    }

    /// Look up an object by its `name[i].type` triple.
    pub fn lookup(&self, name: &ObjectName) -> Option<ObjectId> {
        let key = NameKey {
            base: self.names.find(&name.base)?,
            version: name.version,
            rep: self.names.find(&name.rep)?,
        };
        self.live_named(key)
    }

    /// The live object named `key`: only the newest of a name can be
    /// live, since a name is taken again only after its holder died.
    fn live_named(&self, key: NameKey) -> Option<ObjectId> {
        let id = self.index.floor(key, &self.objects)?;
        (self.objects[id.index()].name == key && self.live[id.index()]).then_some(id)
    }

    /// Latest version number in use for `base`/`rep` (None if unused).
    pub fn latest_version(&self, base: &str, rep: &str) -> Option<u32> {
        self.latest_version_key(self.names.find(base)?, self.names.find(rep)?)
    }

    /// [`latest_version`](Database::latest_version) by interned lineage.
    pub fn latest_version_key(&self, base: Sym, rep: Sym) -> Option<u32> {
        let top = NameKey {
            base,
            version: u32::MAX,
            rep,
        };
        let id = self.index.floor(top, &self.objects)?;
        Some(self.objects[id.index()].name.version)
    }

    /// Add a structural relationship.
    pub fn relate(&mut self, kind: RelKind, from: ObjectId, to: ObjectId) -> Result<(), DbError> {
        self.get_live(from)?;
        self.get_live(to)?;
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
        self.get_live(id)?;
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
        self.live[id.index()] = false;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::AttrImpl;
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
        assert_eq!(obj.size_bytes(), 200 + 32);
        assert_eq!(db.name_of(id).unwrap(), name);
        // Slots are instantiated from the type.
        let slots: Vec<_> = db.attrs_of(id).unwrap().collect();
        assert_eq!(
            slots,
            [AttrInstance {
                name: "bbox",
                size_bytes: 32,
                implementation: AttrImpl::Local
            }]
        );
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
        for (from, to) in [(a, b), (b, a)] {
            assert_eq!(
                db.relate(RelKind::Configuration, from, to),
                Err(DbError::Deleted(b))
            );
        }
        assert_eq!(db.graph().edge_count(), 0);
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
