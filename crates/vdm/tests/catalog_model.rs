//! Model-based tests for the object catalog: the representation it
//! replaced — owned `ObjectName`s, one owned slot per attribute, string-
//! keyed `HashMap` indexes, attribute lists resolved on every create —
//! is kept here as the reference, and every observable of [`Database`]
//! must equal the reference's after every step of a random sequence of
//! creates, derivations, deletions, re-creations and relationship edits.
//! Derivation chains grow lineages well past the small version space
//! the creates draw from, in every representation, so names below, at
//! and above a lineage's top are all looked up.

use proptest::prelude::*;
use semcluster_vdm::{
    derive_version, validate, AttrDef, AttrImpl, CopyVsRefModel, Database, DbError, ImplChoice,
    ObjectId, ObjectName, RelFrequencies, RelKind, StructureGraph, TypeId, TypeLattice, Violation,
};
use std::collections::HashMap;

const BASES: [&str; 3] = ["ALU", "MUL", "CARRY-PROPAGATE"];
const REPS: [&str; 3] = ["layout", "netlist", "cell"];
const VERSIONS: u32 = 3;

/// Root, two levels that shadow it, and an attribute-free type: copied,
/// by-reference and non-inheritable slots all occur, in shadowed order.
fn lattice() -> TypeLattice {
    let attr = |name: &str, size_bytes, update_weight, inheritable| AttrDef {
        update_weight,
        inheritable,
        ..AttrDef::new(name, size_bytes)
    };
    let mut l = TypeLattice::new();
    let root = l
        .define(
            "design-object",
            vec![],
            vec![
                attr("owner", 16, 0.1, true),
                attr("modified", 8, 1.0, false),
            ],
            vec![],
            RelFrequencies::UNIFORM,
        )
        .unwrap();
    let cell = l
        .define(
            "cell",
            vec![root],
            vec![attr("bbox", 32, 0.1, true), attr("rules", 4096, 5.0, true)],
            vec![],
            RelFrequencies::UNIFORM,
        )
        .unwrap();
    l.define(
        "macro-cell",
        vec![cell, root],
        vec![
            attr("owner", 64, 0.1, true), // shadows the root's 16-byte owner
            attr("rules", 4, 5.0, true),  // by reference, and *larger* as a link
            attr("checksum", 8, 1.0, false),
        ],
        vec![],
        RelFrequencies::UNIFORM,
    )
    .unwrap();
    l.define_simple("plain", RelFrequencies::UNIFORM).unwrap();
    l
}

/// Default costs, everything copied, everything by reference.
fn models() -> [CopyVsRefModel; 3] {
    let default = CopyVsRefModel::default();
    [
        default,
        CopyVsRefModel {
            traversal_per_read: 1e9,
            ..default
        },
        CopyVsRefModel {
            update_propagation: 1e9,
            ..default
        },
    ]
}

#[derive(Debug, Clone, PartialEq)]
struct RefAttr {
    name: String,
    size_bytes: u32,
    implementation: AttrImpl,
}

#[derive(Debug, Clone)]
struct RefObject {
    name: ObjectName,
    ty: TypeId,
    body_bytes: u32,
    attrs: Vec<RefAttr>,
}

impl RefObject {
    fn size_bytes(&self) -> u32 {
        let stored = |a: &RefAttr| match a.implementation {
            AttrImpl::Local | AttrImpl::CopiedFrom(_) => a.size_bytes,
            AttrImpl::ReferenceTo(_) => semcluster_vdm::REF_SIZE_BYTES,
        };
        self.body_bytes + self.attrs.iter().map(stored).sum::<u32>()
    }
}

/// What a derivation reports, with the attribute names spelled out.
#[derive(Debug, PartialEq)]
struct RefDerived {
    id: ObjectId,
    copied: Vec<String>,
    referenced: Vec<String>,
    inherited_correspondences: usize,
}

/// The string-keyed catalog, as it stood before the fixed-size record
/// (with the tombstone checks `relate` and `derive` were missing). The
/// structure graph has its own model in `graph_model.rs`; here it is
/// simply a second instance.
#[derive(Debug, Default)]
struct RefCatalog {
    lattice: TypeLattice,
    objects: Vec<RefObject>,
    live: Vec<bool>,
    by_name: HashMap<ObjectName, ObjectId>,
    latest: HashMap<(String, String), u32>,
    graph: StructureGraph,
}

impl RefCatalog {
    /// Attribute resolution as every create used to run it.
    fn resolve_attributes(&self, ty: TypeId) -> Result<Vec<AttrDef>, DbError> {
        let mut out: Vec<AttrDef> = Vec::new();
        for a in &self.lattice.get(ty)?.attributes {
            if !out.iter().any(|existing| existing.name == a.name) {
                out.push(a.clone());
            }
        }
        for anc in self.lattice.ancestors(ty)? {
            for a in &self.lattice.get(anc)?.attributes {
                if !out.iter().any(|existing| existing.name == a.name) {
                    out.push(a.clone());
                }
            }
        }
        Ok(out)
    }

    fn create(
        &mut self,
        name: ObjectName,
        ty: TypeId,
        body_bytes: u32,
    ) -> Result<ObjectId, DbError> {
        if self.by_name.contains_key(&name) {
            return Err(DbError::DuplicateName(name));
        }
        let attrs = self
            .resolve_attributes(ty)?
            .into_iter()
            .map(|d| RefAttr {
                name: d.name,
                size_bytes: d.size_bytes,
                implementation: AttrImpl::Local,
            })
            .collect();
        let id = ObjectId(self.objects.len() as u32);
        self.by_name.insert(name.clone(), id);
        let latest = self
            .latest
            .entry((name.base.clone(), name.rep.clone()))
            .or_insert(name.version);
        *latest = (*latest).max(name.version);
        self.objects.push(RefObject {
            name,
            ty,
            body_bytes,
            attrs,
        });
        self.live.push(true);
        self.graph.ensure_node(id);
        Ok(id)
    }

    fn check_live(&self, id: ObjectId) -> Result<(), DbError> {
        match self.live.get(id.index()) {
            Some(true) => Ok(()),
            Some(false) => Err(DbError::Deleted(id)),
            None => Err(DbError::UnknownObject(id)),
        }
    }

    fn relate(&mut self, kind: RelKind, from: ObjectId, to: ObjectId) -> Result<(), DbError> {
        self.check_live(from)?;
        self.check_live(to)?;
        Ok(self.graph.add_edge(kind, from, to)?)
    }

    fn delete(&mut self, id: ObjectId) -> Result<(), DbError> {
        self.check_live(id)?;
        if !self.graph.inheritors(id).is_empty() {
            return Err(DbError::HasInheritors(id));
        }
        for (kind, dir, other) in self.graph.related(id) {
            let (from, to) = match dir {
                semcluster_vdm::Direction::Forward => (id, other),
                semcluster_vdm::Direction::Backward => (other, id),
            };
            self.graph.remove_edge(kind, from, to)?;
        }
        self.by_name.remove(&self.objects[id.index()].name);
        self.live[id.index()] = false;
        Ok(())
    }

    fn derive(&mut self, parent: ObjectId, model: &CopyVsRefModel) -> Result<RefDerived, DbError> {
        self.check_live(parent)?;
        let p = self.objects[parent.index()].clone();
        let next = self
            .latest
            .get(&(p.name.base.clone(), p.name.rep.clone()))
            .map_or(p.name.version + 1, |v| v + 1);
        let name = ObjectName::new(p.name.base.clone(), next, p.name.rep.clone());
        let child = self.create(name, p.ty, p.body_bytes)?;
        self.relate(RelKind::VersionHistory, parent, child)?;
        let mut inherited = 0;
        for c in self.graph.correspondents(parent).to_vec() {
            if self.relate(RelKind::Correspondence, child, c).is_ok() {
                inherited += 1;
            }
        }
        let (mut copied, mut referenced) = (Vec::new(), Vec::new());
        for def in self.resolve_attributes(p.ty)? {
            if !def.inheritable {
                continue;
            }
            let slot = self.objects[child.index()]
                .attrs
                .iter_mut()
                .find(|a| a.name == def.name)
                .unwrap();
            match model.decide(def.size_bytes, def.read_weight, def.update_weight) {
                ImplChoice::Copy => {
                    slot.implementation = AttrImpl::CopiedFrom(parent);
                    copied.push(def.name);
                }
                ImplChoice::Reference => {
                    slot.implementation = AttrImpl::ReferenceTo(parent);
                    referenced.push(def.name);
                }
            }
        }
        if !referenced.is_empty() {
            self.relate(RelKind::Inheritance, parent, child)?;
        }
        Ok(RefDerived {
            id: child,
            copied,
            referenced,
            inherited_correspondences: inherited,
        })
    }

    /// The audit of `validate.rs`, over owned names and owned slots.
    fn validate(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for (kind, from, to) in self.graph.edges() {
            let (a, b) = (
                &self.objects[from.index()].name,
                &self.objects[to.index()].name,
            );
            match kind {
                RelKind::VersionHistory if !(a.base == b.base && a.rep == b.rep) => {
                    out.push(Violation::VersionLineageMismatch(from, to));
                }
                RelKind::Correspondence if !a.same_entity(b) => {
                    out.push(Violation::CorrespondenceMismatch(from, to));
                }
                _ => {}
            }
        }
        for (i, obj) in self.objects.iter().enumerate() {
            let id = ObjectId(i as u32);
            if !self.live[i] {
                continue;
            }
            for attr in &obj.attrs {
                if let AttrImpl::ReferenceTo(p) = attr.implementation {
                    if !self.graph.providers(id).contains(&p) {
                        out.push(Violation::MissingInheritanceLink(p, id));
                    }
                }
            }
        }
        out
    }
}

/// Every observable of `db` equals the reference's.
fn assert_same(db: &Database, model: &RefCatalog) {
    assert_eq!(db.object_count(), model.objects.len());
    assert_eq!(
        db.objects().map(|o| o.id.index()).collect::<Vec<_>>(),
        (0..model.objects.len())
            .filter(|&i| model.live[i])
            .collect::<Vec<_>>()
    );
    for (i, want) in model.objects.iter().enumerate() {
        let id = ObjectId(i as u32);
        let got = db.get(id).unwrap();
        assert_eq!(
            (got.id, got.ty, got.body_bytes),
            (id, want.ty, want.body_bytes)
        );
        assert_eq!(got.size_bytes(), want.size_bytes(), "size_bytes({id})");
        assert_eq!(db.name_of(id).unwrap(), want.name);
        assert_eq!(db.is_live(id), model.live[i]);
        let slots: Vec<RefAttr> = db
            .attrs_of(id)
            .unwrap()
            .map(|a| RefAttr {
                name: a.name.to_string(),
                size_bytes: a.size_bytes,
                implementation: a.implementation,
            })
            .collect();
        assert_eq!(slots, want.attrs, "attrs_of({id})");
    }
    // One id past the end is unknown on both sides.
    let past = ObjectId(model.objects.len() as u32);
    assert_eq!(db.get(past).err(), Some(DbError::UnknownObject(past)));
    assert_eq!(db.name_of(past).err(), Some(DbError::UnknownObject(past)));
    assert!(db.attrs_of(past).is_err() && !db.is_live(past));

    // The whole name space, plus strings the interner never saw, up to
    // one version past the highest lineage's top.
    let top = model.latest.values().copied().max().unwrap_or(0);
    for base in BASES.iter().chain(&["never-interned"]) {
        for rep in REPS.iter().chain(&["never-interned"]) {
            assert_eq!(
                db.latest_version(base, rep),
                model
                    .latest
                    .get(&(base.to_string(), rep.to_string()))
                    .copied(),
                "latest_version({base}, {rep})"
            );
            for version in 0..=(2 * VERSIONS).max(top + 1) {
                let name = ObjectName::new(*base, version, *rep);
                assert_eq!(
                    db.lookup(&name),
                    model.by_name.get(&name).copied(),
                    "{name}"
                );
            }
        }
    }
    assert_eq!(
        db.graph().edges().collect::<Vec<_>>(),
        model.graph.edges().collect::<Vec<_>>()
    );
    assert_eq!(validate(db), model.validate());
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Create {
        base: usize,
        version: u32,
        rep: usize,
        ty: u32,
        body: u32,
    },
    /// Create again under the name `target` holds or held.
    Recreate(u32),
    Derive(u32, usize),
    /// Derive `n` versions in a chain, each from the one before.
    DeriveChain(u32, usize, u32),
    Delete(u32),
    Relate(usize, u32, u32),
    Unrelate(usize, u32, u32),
}

/// Operations over a small name space and ids up to one past the end,
/// so duplicates, tombstones, unknown objects and unknown types all
/// occur; derivations and deletions are as likely as creates.
fn op_strategy() -> impl Strategy<Value = Op> {
    let create = || {
        (
            0..BASES.len(),
            0..VERSIONS,
            0..REPS.len(),
            0u32..5,
            0u32..600,
        )
            .prop_map(|(base, version, rep, ty, body)| Op::Create {
                base,
                version,
                rep,
                ty,
                body,
            })
    };
    prop_oneof![
        create(),
        create(),
        (0u32..40).prop_map(Op::Recreate),
        (0u32..40, 0usize..3).prop_map(|(t, m)| Op::Derive(t, m)),
        (0u32..40, 0usize..3, 2u32..16).prop_map(|(t, m, n)| Op::DeriveChain(t, m, n)),
        (0u32..40).prop_map(Op::Delete),
        (0u32..40).prop_map(Op::Delete),
        (0usize..4, 0u32..40, 0u32..40).prop_map(|(k, a, b)| Op::Relate(k, a, b)),
        (0usize..4, 0u32..40, 0u32..40).prop_map(|(k, a, b)| Op::Unrelate(k, a, b)),
    ]
}

/// Apply `op` to both catalogs, which must answer alike. Object picks
/// wrap onto `0..=object_count`.
fn apply(db: &mut Database, model: &mut RefCatalog, op: Op) {
    let pick = |raw: u32| ObjectId(raw % (model.objects.len() as u32 + 1));
    match op {
        Op::Create {
            base,
            version,
            rep,
            ty,
            body,
        } => {
            let name = ObjectName::new(BASES[base], version, REPS[rep]);
            assert_eq!(
                db.create_object(name.clone(), TypeId(ty), body),
                model.create(name, TypeId(ty), body),
                "{op:?}"
            );
        }
        Op::Recreate(target) => {
            let Some(held) = model.objects.get(pick(target).index()) else {
                return;
            };
            let (name, ty) = (held.name.clone(), held.ty);
            assert_eq!(
                db.create_object(name.clone(), ty, 77),
                model.create(name, ty, 77),
                "{op:?}"
            );
        }
        Op::Derive(target, m) => {
            let parent = pick(target);
            let got = derive_version(db, parent, &models()[m]).map(|d| {
                let names = |mask| d.names(db, mask).into_iter().map(String::from).collect();
                RefDerived {
                    id: d.id,
                    copied: names(d.copied),
                    referenced: names(d.referenced),
                    inherited_correspondences: d.inherited_correspondences,
                }
            });
            assert_eq!(got, model.derive(parent, &models()[m]), "{op:?}");
        }
        Op::DeriveChain(target, m, n) => {
            let mut parent = pick(target).0;
            for _ in 0..n {
                let before = model.objects.len() as u32;
                apply(db, model, Op::Derive(parent, m));
                if model.objects.len() as u32 == before {
                    break;
                }
                parent = before;
            }
        }
        Op::Delete(target) => {
            let id = pick(target);
            assert_eq!(db.delete_object(id), model.delete(id), "{op:?}");
        }
        Op::Relate(k, a, b) => {
            let (kind, a, b) = (RelKind::ALL[k], pick(a), pick(b));
            assert_eq!(db.relate(kind, a, b), model.relate(kind, a, b), "{op:?}");
        }
        Op::Unrelate(k, a, b) => {
            let (kind, a, b) = (RelKind::ALL[k], pick(a), pick(b));
            let want = model.graph.remove_edge(kind, a, b).map_err(DbError::Graph);
            assert_eq!(db.unrelate(kind, a, b), want, "{op:?}");
        }
    }
}

proptest! {
    #[test]
    fn random_histories_match_the_string_keyed_reference(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let mut db = Database::with_lattice(lattice());
        let mut model = RefCatalog {
            lattice: lattice(),
            ..RefCatalog::default()
        };
        for op in ops {
            apply(&mut db, &mut model, op);
            assert_same(&db, &model);
        }
    }
}

/// The sequence the random test is unlikely to line up by itself: every
/// error the catalog can raise, in one history.
#[test]
fn every_catalog_error_agrees_with_the_reference() {
    let mut db = Database::with_lattice(lattice());
    let mut model = RefCatalog {
        lattice: lattice(),
        ..RefCatalog::default()
    };
    let macro_cell = 2;
    let script = [
        // o0 ALU[1].cell, o1 its by-reference child ALU[2].cell.
        Op::Create {
            base: 0,
            version: 1,
            rep: 2,
            ty: macro_cell,
            body: 100,
        },
        Op::Derive(0, 0),
        // DuplicateName, unknown type, HasInheritors.
        Op::Create {
            base: 0,
            version: 2,
            rep: 2,
            ty: 0,
            body: 1,
        },
        Op::Create {
            base: 1,
            version: 0,
            rep: 0,
            ty: 4,
            body: 1,
        },
        Op::Delete(0),
        // Child first, then the provider; both names are free again but
        // the lineage remembers version 2.
        Op::Delete(1),
        Op::Delete(0),
        Op::Delete(0),
        Op::Derive(0, 0),
        Op::Relate(0, 0, 1),
        Op::Recreate(0),
        Op::Derive(2, 2),
        Op::Derive(9, 0),
        // Cutting the inheritance edge strands o3's by-reference slots.
        Op::Unrelate(3, 2, 3),
    ];
    for op in script {
        apply(&mut db, &mut model, op);
        assert_same(&db, &model);
    }
    assert_eq!(db.object_count(), 4);
    assert_eq!(
        db.name_of(ObjectId(3)).unwrap(),
        ObjectName::new("ALU", 3, "cell")
    );
    assert_eq!(db.objects().count(), 2);
    assert!(validate(&db).contains(&Violation::MissingInheritanceLink(ObjectId(2), ObjectId(3))));
}

/// Long lineages in two representations of one base, versions created
/// below a lineage's top, and a deleted old version created again: the
/// cases where the index walks a lineage rather than stopping at its top.
#[test]
fn long_lineages_and_a_recreated_old_version_agree_with_the_reference() {
    let mut db = Database::with_lattice(lattice());
    let mut model = RefCatalog {
        lattice: lattice(),
        ..RefCatalog::default()
    };
    let create = |base, version, rep| Op::Create {
        base,
        version,
        rep,
        ty: 1,
        body: 50,
    };
    let copy_everything = 1;
    let mut script = vec![create(0, 1, 0), create(0, 1, 1)];
    // o0 ALU[1].layout and o1 ALU[1].netlist grow to versions 21 and 11.
    script.push(Op::DeriveChain(0, copy_everything, 20));
    script.push(Op::DeriveChain(1, copy_everything, 10));
    // A branch off an old version lands on top of its lineage.
    script.push(Op::Derive(5, copy_everything));
    // Below the bottom, and a gap inside, of the layout lineage.
    script.push(create(0, 0, 0));
    script.push(Op::Delete(8));
    script.push(Op::Delete(9));
    // o8's name taken again (o34), then refused while o34 holds it;
    // o9's taken again (o35).
    script.push(Op::Recreate(8));
    script.push(Op::Recreate(8));
    script.push(Op::Recreate(9));
    // A third representation of the same base, deleted whole.
    script.push(create(0, 4, 2));
    script.push(Op::Delete(36));
    script.push(Op::Recreate(36));
    for op in script {
        apply(&mut db, &mut model, op);
        assert_same(&db, &model);
    }
    assert_eq!(db.latest_version("ALU", "layout"), Some(22));
    assert_eq!(db.latest_version("ALU", "netlist"), Some(11));
    assert_eq!(
        db.lookup(&ObjectName::new("ALU", 8, "layout")),
        Some(ObjectId(34))
    );
    assert_eq!(
        db.lookup(&ObjectName::new("ALU", 9, "layout")),
        Some(ObjectId(35))
    );
}

/// 50 000 versions of one design object, switching representation every
/// 100. Each derivation asks for its lineage's latest version and
/// checks the name above it is free; each step then asks both lineages
/// for their latest version, their top and the name past it. An index
/// that walked a lineage's history for any of those would visit billions
/// of records here; this one reads one record per representation per
/// question.
#[test]
fn fifty_thousand_versions_cost_one_record_per_representation() {
    const REPS: [&str; 2] = ["layout", "netlist"];
    let mut lattice = TypeLattice::new();
    let cell = lattice
        .define_simple("cell", RelFrequencies::UNIFORM)
        .unwrap();
    let mut db = Database::with_lattice(lattice);
    let model = CopyVsRefModel::default();
    let mut tops = REPS.map(|rep| {
        let id = db
            .create_object(ObjectName::new("ALU", 1, rep), cell, 64)
            .unwrap();
        (id, 1)
    });
    for i in 0..50_000u32 {
        let rep = (i / 100) as usize % 2;
        let (parent, version) = tops[rep];
        tops[rep] = (
            derive_version(&mut db, parent, &model).unwrap().id,
            version + 1,
        );
        for (r, &(top, version)) in tops.iter().enumerate() {
            let name = ObjectName::new("ALU", version, REPS[r]);
            assert_eq!(db.latest_version("ALU", REPS[r]), Some(version));
            assert_eq!(db.lookup(&name), Some(top));
            assert_eq!(db.lookup(&name.successor()), None);
        }
    }
    assert_eq!(tops.map(|(_, version)| version), [25_001, 25_001]);
    assert_eq!(db.object_count(), 50_002);
}
