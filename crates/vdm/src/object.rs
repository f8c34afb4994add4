//! Design-object instances.

use crate::id::{ObjectId, TypeId};
use crate::name::NameKey;

/// Size in bytes of an object reference stored inside another object
/// (an inheritance link implemented by reference).
pub const REF_SIZE_BYTES: u32 = 8;

/// How an (inherited) attribute is materialised on an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrImpl {
    /// Value stored directly on this object (defined here, not inherited).
    Local,
    /// Value copied from another instance at inheritance time; reads are
    /// local, but updates to the source do not propagate automatically.
    CopiedFrom(ObjectId),
    /// Value left on the provider; reads dereference an inheritance link
    /// (extra traversal, possibly extra I/O), updates happen in one place.
    ReferenceTo(ObjectId),
}

/// One attribute slot on an instance: a view joining the type's resolved
/// definition with the instance's inheritance state
/// ([`Database::attrs_of`](crate::Database::attrs_of)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttrInstance<'a> {
    /// Attribute name (matches an [`crate::types::AttrDef`]).
    pub name: &'a str,
    /// Declared value size in bytes.
    pub size_bytes: u32,
    /// Where the value lives.
    pub implementation: AttrImpl,
}

/// A typed, versioned design object: one fixed-size record, no heap.
///
/// Slot `i` of the instance is entry `i` of its type's resolved attribute
/// list; the record keeps only what differs per instance. Instance
/// inheritance has one writer, [`derive_version`](crate::derive_version),
/// which names the same parent for every slot it rewrites — so the state
/// is one `provider` plus a bit per slot for "copied" and "by reference".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignObject {
    /// Instance identifier.
    pub id: ObjectId,
    /// External `name[i].type` triple, interned
    /// ([`Database::name_of`](crate::Database::name_of) materialises it).
    pub name: NameKey,
    /// Type in the lattice.
    pub ty: TypeId,
    /// Representation payload size in bytes, excluding attribute slots
    /// (geometry, netlist body, …).
    pub body_bytes: u32,
    /// Sum of every slot's stored bytes.
    pub(crate) attr_bytes: u32,
    /// The instance every set bit of the two masks inherits from.
    pub(crate) provider: ObjectId,
    /// Slots implemented [`AttrImpl::CopiedFrom`] `provider`.
    pub(crate) copied: u32,
    /// Slots implemented [`AttrImpl::ReferenceTo`] `provider`.
    pub(crate) referenced: u32,
}

impl DesignObject {
    /// Total storage footprint: body plus every attribute slot.
    pub fn size_bytes(&self) -> u32 {
        self.body_bytes + self.attr_bytes
    }

    /// How slot `slot` of this instance is materialised.
    pub fn implementation(&self, slot: usize) -> AttrImpl {
        let bit = 1u32 << slot;
        if self.copied & bit != 0 {
            AttrImpl::CopiedFrom(self.provider)
        } else if self.referenced & bit != 0 {
            AttrImpl::ReferenceTo(self.provider)
        } else {
            AttrImpl::Local
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{derive_version, CopyVsRefModel, Database, ObjectName, RelFrequencies};
    use crate::{AttrDef, TypeLattice};

    /// A child whose `owner` stayed local, `rules` went by reference and
    /// `bbox` was copied, plus its parent.
    fn derived() -> (Database, ObjectId, ObjectId) {
        let attr = |name: &str, size_bytes, update_weight, inheritable| AttrDef {
            update_weight,
            inheritable,
            ..AttrDef::new(name, size_bytes)
        };
        let mut lattice = TypeLattice::new();
        let attrs = vec![
            attr("owner", 16, 1.0, false),
            attr("rules", 64, 5.0, true),
            attr("bbox", 32, 0.1, true),
        ];
        let ty = lattice
            .define("layout", vec![], attrs, vec![], RelFrequencies::UNIFORM)
            .unwrap();
        let mut db = Database::with_lattice(lattice);
        let parent = db
            .create_object(ObjectName::new("ALU", 1, "layout"), ty, 100)
            .unwrap();
        let child = derive_version(&mut db, parent, &CopyVsRefModel::default()).unwrap();
        (db, parent, child.id)
    }

    #[test]
    fn record_is_small_and_copy() {
        fn assert_copy<T: Copy>() {}
        assert_copy::<DesignObject>();
        assert!(std::mem::size_of::<DesignObject>() <= 40);
    }

    #[test]
    fn size_counts_copies_but_not_referenced_values() {
        let (db, parent, child) = derived();
        assert_eq!(db.get(parent).unwrap().size_bytes(), 100 + 16 + 64 + 32);
        let o = db.get(child).unwrap();
        assert_eq!(o.size_bytes(), 100 + 16 + REF_SIZE_BYTES + 32);
        assert_eq!(o.body_bytes, 100);
    }

    #[test]
    fn attr_lookup_and_reference_providers() {
        let (db, parent, child) = derived();
        let slots: Vec<_> = db.attrs_of(child).unwrap().collect();
        let names: Vec<&str> = slots.iter().map(|a| a.name).collect();
        assert_eq!(names, ["owner", "rules", "bbox"]);
        assert_eq!(slots[0].size_bytes, 16);
        let o = db.get(child).unwrap();
        let by_slot: Vec<_> = (0..3).map(|slot| o.implementation(slot)).collect();
        assert_eq!(
            by_slot,
            [
                AttrImpl::Local,
                AttrImpl::ReferenceTo(parent),
                AttrImpl::CopiedFrom(parent)
            ]
        );
        assert_eq!(
            by_slot,
            slots.iter().map(|a| a.implementation).collect::<Vec<_>>()
        );
        assert_eq!(db.graph().providers(child), &[parent]);
        assert_eq!(db.get(parent).unwrap().implementation(1), AttrImpl::Local);
    }
}
