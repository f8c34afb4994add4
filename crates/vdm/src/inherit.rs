//! Instance-to-instance inheritance.
//!
//! The paper's Version Data Model lets an offspring version inherit
//! properties, behaviours, structural relationships and constraints
//! *directly from its parent version* rather than from its type. Two
//! pieces are implemented here:
//!
//! 1. **Relationship propagation** — a new descendant of `ALU[2].layout`
//!    inherits `ALU[2].layout`'s correspondence relationships by default
//!    (§1's motivating example).
//! 2. **Copy-vs-reference costing** — for each inheritable attribute, a
//!    cost formula chooses between *implementation by copy* (value
//!    duplicated onto the child; cheap reads, storage + update-propagation
//!    cost) and *by reference* (value stays on the parent; extra traversal
//!    I/O per read, recorded as a first-class inheritance link the
//!    clustering algorithm can see).

use crate::db::{Database, DbError};
use crate::id::ObjectId;
use crate::name::NameKey;
use crate::object::REF_SIZE_BYTES;
use crate::relationship::RelKind;

/// Cost weights for the copy-vs-reference decision. All unit-free; only
/// ratios matter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CopyVsRefModel {
    /// Cost per stored byte of a copied value (space + extra write I/O
    /// when the page spills).
    pub storage_per_byte: f64,
    /// Cost per unit of the attribute's update weight: every source update
    /// must be re-propagated to copies.
    pub update_propagation: f64,
    /// Cost per unit of the attribute's read weight when implemented by
    /// reference: each read may traverse to the provider's page.
    pub traversal_per_read: f64,
}

impl Default for CopyVsRefModel {
    fn default() -> Self {
        // Defaults chosen so that large, hot-update attributes go by
        // reference and small, hot-read ones get copied.
        CopyVsRefModel {
            storage_per_byte: 0.01,
            update_propagation: 2.0,
            traversal_per_read: 1.0,
        }
    }
}

/// Which implementation the cost model picked for one attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImplChoice {
    /// Duplicate the value onto the inheritor.
    Copy,
    /// Keep the value on the provider; dereference on read.
    Reference,
}

impl CopyVsRefModel {
    /// Expected cost of implementing an inherited attribute by copy.
    pub fn copy_cost(&self, size_bytes: u32, update_weight: f64) -> f64 {
        size_bytes as f64 * self.storage_per_byte + update_weight * self.update_propagation
    }

    /// Expected cost of implementing an inherited attribute by reference.
    pub fn reference_cost(&self, read_weight: f64) -> f64 {
        REF_SIZE_BYTES as f64 * self.storage_per_byte + read_weight * self.traversal_per_read
    }

    /// Pick the cheaper implementation (ties go to copy: local reads keep
    /// navigation cheap, which is what read-dominated CAD workloads want).
    pub fn decide(&self, size_bytes: u32, read_weight: f64, update_weight: f64) -> ImplChoice {
        if self.copy_cost(size_bytes, update_weight) <= self.reference_cost(read_weight) {
            ImplChoice::Copy
        } else {
            ImplChoice::Reference
        }
    }
}

/// Result of deriving a new version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DerivedVersion {
    /// The new object.
    pub id: ObjectId,
    /// Slots implemented by copy: bit `i` is entry `i` of the type's
    /// resolved attribute list.
    pub copied: u32,
    /// Slots implemented by reference (any set bit added one inheritance
    /// edge parent → child).
    pub referenced: u32,
    /// Number of correspondence relationships inherited from the parent.
    pub inherited_correspondences: usize,
}

impl DerivedVersion {
    /// Names of the slots in `mask` (`self.copied` or `self.referenced`),
    /// in slot order.
    pub fn names<'a>(&self, db: &'a Database, mask: u32) -> Vec<&'a str> {
        let slots = db.attrs_of(self.id).expect("derived from this database");
        slots
            .enumerate()
            .filter(|(slot, _)| mask & (1 << slot) != 0)
            .map(|(_, a)| a.name)
            .collect()
    }
}

/// Derive a new descendant version of `parent`.
///
/// The child:
/// * is named `base[latest+1].rep`,
/// * has the parent's type and body size,
/// * is linked to the parent by a version-history edge,
/// * inherits the parent's correspondence relationships by default, and
/// * implements each inheritable attribute by copy or by reference per
///   `model`; by-reference attributes add an inheritance edge so the
///   physical layer can cluster child near parent.
///
/// A deleted `parent` is refused with [`DbError::Deleted`].
pub fn derive_version(
    db: &mut Database,
    parent: ObjectId,
    model: &CopyVsRefModel,
) -> Result<DerivedVersion, DbError> {
    let p = *db.get_live(parent)?;
    let latest = db.latest_version_key(p.name.base, p.name.rep);
    let child_name = NameKey {
        version: latest.unwrap_or(p.name.version) + 1,
        ..p.name
    };

    let child = db.create_object_key(child_name, p.ty, p.body_bytes)?;
    db.relate(RelKind::VersionHistory, parent, child)?;

    // Inherit correspondences: the paper's default propagation rule. The
    // new edges join `child` and a correspondent, never `parent`, so its
    // list can be read in place while they are added.
    let mut inherited = 0;
    for i in 0..db.graph().correspondents(parent).len() {
        let c = db.graph().correspondents(parent)[i];
        if db.relate(RelKind::Correspondence, child, c).is_ok() {
            inherited += 1;
        }
    }

    // Copy-vs-reference decisions for inheritable attributes.
    let (mut copied, mut referenced, mut attr_bytes) = (0u32, 0u32, 0u32);
    for (slot, def) in db.lattice().resolve_attributes(p.ty)?.iter().enumerate() {
        attr_bytes += def.size_bytes;
        if !def.inheritable {
            continue;
        }
        match model.decide(def.size_bytes, def.read_weight, def.update_weight) {
            ImplChoice::Copy => copied |= 1 << slot,
            ImplChoice::Reference => {
                referenced |= 1 << slot;
                attr_bytes = attr_bytes - def.size_bytes + REF_SIZE_BYTES;
            }
        }
    }
    // The only writer of a record's inheritance state, once per object:
    // every rewritten slot names the same provider.
    let record = db.record_mut(child);
    debug_assert!(record.copied | record.referenced == 0 && copied & referenced == 0);
    record.provider = parent;
    record.copied = copied;
    record.referenced = referenced;
    record.attr_bytes = attr_bytes;
    if referenced != 0 {
        db.relate(RelKind::Inheritance, parent, child)?;
    }

    Ok(DerivedVersion {
        id: child,
        copied,
        referenced,
        inherited_correspondences: inherited,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::ObjectName;
    use crate::object::AttrImpl;
    use crate::relationship::RelFrequencies;
    use crate::types::{AttrDef, TypeLattice};

    fn setup() -> (Database, ObjectId, ObjectId) {
        let mut lattice = TypeLattice::new();
        let layout = lattice
            .define(
                "layout",
                vec![],
                vec![
                    // small + rarely updated → copy
                    AttrDef {
                        name: "owner".into(),
                        size_bytes: 16,
                        read_weight: 1.0,
                        update_weight: 0.1,
                        inheritable: true,
                    },
                    // large + hot-update → reference
                    AttrDef {
                        name: "design-rules".into(),
                        size_bytes: 4096,
                        read_weight: 0.2,
                        update_weight: 5.0,
                        inheritable: true,
                    },
                    // not inheritable → stays Local
                    AttrDef {
                        name: "checksum".into(),
                        size_bytes: 8,
                        read_weight: 1.0,
                        update_weight: 1.0,
                        inheritable: false,
                    },
                ],
                vec![],
                RelFrequencies::UNIFORM,
            )
            .unwrap();
        let netlist = lattice
            .define_simple("netlist", RelFrequencies::UNIFORM)
            .unwrap();
        let mut db = Database::with_lattice(lattice);
        let alu2 = db
            .create_object(ObjectName::new("ALU", 2, "layout"), layout, 500)
            .unwrap();
        let alu3n = db
            .create_object(ObjectName::new("ALU", 3, "netlist"), netlist, 300)
            .unwrap();
        db.relate(RelKind::Correspondence, alu2, alu3n).unwrap();
        (db, alu2, alu3n)
    }

    #[test]
    fn paper_example_correspondence_inherited() {
        // "If ALU[2].layout corresponds to ALU[3].netlist, then a new
        // descendant of ALU[2].layout should inherit this correspondence
        // relationship by default."
        let (mut db, alu2, alu3n) = setup();
        let derived = derive_version(&mut db, alu2, &CopyVsRefModel::default()).unwrap();
        assert_eq!(derived.inherited_correspondences, 1);
        assert_eq!(
            db.name_of(derived.id).unwrap(),
            ObjectName::new("ALU", 3, "layout")
        );
        assert!(db.graph().correspondents(derived.id).contains(&alu3n));
        assert_eq!(db.graph().ancestors(derived.id), &[alu2]);
    }

    #[test]
    fn copy_vs_reference_split_follows_costs() {
        let (mut db, alu2, _) = setup();
        let derived = derive_version(&mut db, alu2, &CopyVsRefModel::default()).unwrap();
        assert_eq!(derived.names(&db, derived.copied), ["owner"]);
        assert_eq!(derived.names(&db, derived.referenced), ["design-rules"]);
        // Reference created an inheritance edge the clusterer can see.
        assert_eq!(db.graph().providers(derived.id), &[alu2]);
        // Non-inheritable attribute stayed local.
        let implementation = |name: &str| {
            let mut slots = db.attrs_of(derived.id).unwrap();
            slots.find(|a| a.name == name).unwrap().implementation
        };
        assert_eq!(implementation("checksum"), AttrImpl::Local);
        assert_eq!(implementation("owner"), AttrImpl::CopiedFrom(alu2));
        assert_eq!(implementation("design-rules"), AttrImpl::ReferenceTo(alu2));
        // The by-reference slot stores a link, not the 4 KiB value.
        assert_eq!(
            db.get(derived.id).unwrap().size_bytes(),
            500 + 16 + REF_SIZE_BYTES + 8
        );
    }

    #[test]
    fn deleted_parent_is_refused() {
        let (mut db, alu2, _) = setup();
        db.delete_object(alu2).unwrap();
        let before = db.object_count();
        assert_eq!(
            derive_version(&mut db, alu2, &CopyVsRefModel::default()).unwrap_err(),
            DbError::Deleted(alu2)
        );
        assert_eq!(db.object_count(), before);
    }

    #[test]
    fn version_numbers_skip_to_latest() {
        let (mut db, alu2, _) = setup();
        let v3 = derive_version(&mut db, alu2, &CopyVsRefModel::default()).unwrap();
        // Deriving again from ALU[2] must not collide with ALU[3].
        let v4 = derive_version(&mut db, alu2, &CopyVsRefModel::default()).unwrap();
        assert_eq!(db.get(v3.id).unwrap().name.version, 3);
        assert_eq!(db.get(v4.id).unwrap().name.version, 4);
        // Both branch from ALU[2]: a version tree, not a chain.
        assert_eq!(db.graph().descendants(alu2).len(), 2);
    }

    #[test]
    fn cost_model_boundary() {
        let m = CopyVsRefModel {
            storage_per_byte: 0.0,
            update_propagation: 1.0,
            traversal_per_read: 1.0,
        };
        // copy cost = update_weight, ref cost = read_weight.
        assert_eq!(m.decide(100, 2.0, 1.0), ImplChoice::Copy);
        assert_eq!(m.decide(100, 1.0, 2.0), ImplChoice::Reference);
        // Tie → copy.
        assert_eq!(m.decide(100, 1.0, 1.0), ImplChoice::Copy);
    }

    #[test]
    fn derived_body_size_matches_parent() {
        let (mut db, alu2, _) = setup();
        let d = derive_version(&mut db, alu2, &CopyVsRefModel::default()).unwrap();
        assert_eq!(db.get(d.id).unwrap().body_bytes, 500);
    }
}
