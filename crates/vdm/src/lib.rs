//! # semcluster-vdm
//!
//! The **Version Data Model** of Katz/Chang: typed, versioned design
//! objects named `name[i].type`, connected by three first-class structural
//! relationships — **configuration** (composite/component), **version
//! history** (ancestor/descendant) and **correspondence** (equivalence
//! across representations) — plus **instance-to-instance inheritance**
//! links created when a descendant version inherits an attribute from its
//! parent by reference.
//!
//! This crate is purely logical: it knows nothing about pages, buffers or
//! disks. Its job is to expose exactly the semantics the physical layer
//! exploits:
//!
//! * per-relationship traversal frequencies, inherited from the type
//!   ([`RelFrequencies`], [`TypeLattice`]),
//! * the structure graph ([`StructureGraph`]) the clustering algorithm
//!   mines for co-reference, and
//! * the copy-vs-reference cost model ([`CopyVsRefModel`]) whose decisions
//!   add or remove inheritance arcs from that graph.
//!
//! Both halves of the model are flat: a [`StructureGraph`] node is half
//! a cache line, and the object catalog is one fixed-size `Copy`
//! [`DesignObject`] per object with no heap behind it — names are
//! [`NameKey`]s into the [`Database`]'s string interner, a type's
//! attribute list is resolved once when the type is defined, and an
//! instance keeps only its provider and two slot masks. Owned
//! [`ObjectName`]s exist at the API boundary and for display
//! ([`Database::name_of`]); attribute slots are a borrowing view
//! ([`Database::attrs_of`]). DESIGN.md §14.5 has the layout.
//!
//! ```
//! use semcluster_vdm::{
//!     CopyVsRefModel, Database, ObjectName, RelFrequencies, RelKind, TypeLattice,
//!     derive_version,
//! };
//!
//! let mut lattice = TypeLattice::new();
//! let layout = lattice.define_simple("layout", RelFrequencies::UNIFORM).unwrap();
//! let netlist = lattice.define_simple("netlist", RelFrequencies::UNIFORM).unwrap();
//! let mut db = Database::with_lattice(lattice);
//!
//! let alu2 = db.create_object(ObjectName::new("ALU", 2, "layout"), layout, 400).unwrap();
//! let alu3n = db.create_object(ObjectName::new("ALU", 3, "netlist"), netlist, 300).unwrap();
//! db.relate(RelKind::Correspondence, alu2, alu3n).unwrap();
//!
//! // A new descendant of ALU[2].layout inherits the correspondence.
//! let child = derive_version(&mut db, alu2, &CopyVsRefModel::default()).unwrap();
//! assert!(db.graph().correspondents(child.id).contains(&alu3n));
//! ```

#![warn(missing_docs)]

mod builder;
mod column;
mod db;
mod dethash;
mod graph;
mod id;
mod inherit;
mod name;
mod object;
mod query;
mod relationship;
mod types;
mod validate;

pub use builder::{BuildStats, SyntheticDbSpec};
pub use db::{Database, DbError};
pub use dethash::{DetHashMap, DetHashSet, DetHasher, DetState};
pub use graph::{GraphError, StructureGraph, WalkScratch, MAX_DEGREE};
pub use id::{ObjectId, TypeId};
pub use inherit::{derive_version, CopyVsRefModel, DerivedVersion, ImplChoice};
pub use name::{NameKey, ObjectName, ParseNameError, Sym};
pub use object::{AttrImpl, AttrInstance, DesignObject, REF_SIZE_BYTES};
pub use query::{execute_read, ReadQuery};
pub use relationship::{Direction, RelFrequencies, RelKind};
pub use types::{AttrDef, OpDef, TypeDef, TypeError, TypeLattice, MAX_RESOLVED_ATTRS};
pub use validate::{validate, Violation};
