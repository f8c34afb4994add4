//! The type lattice and type-level inheritance.
//!
//! Types form a DAG via supertype links. Attribute and operation
//! definitions propagate down the lattice; a subtype sees the union of its
//! own and all ancestors' definitions, with the most specific definition of
//! a name winning. Instances inherit per-relationship traversal
//! frequencies from their type at creation time (§2.1: "The interobject
//! access frequencies are inherited from the type at object creation
//! time").

use crate::id::TypeId;
use crate::relationship::RelFrequencies;
use std::collections::BTreeMap;
use std::fmt;

/// Most attributes a type may resolve to: an instance records which of
/// its slots were inherited by copy and by reference as two `u32` masks
/// over the resolved list.
pub const MAX_RESOLVED_ATTRS: usize = 32;

/// Definition of an attribute on a type.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrDef {
    /// Attribute name (unique within a type; shadows supertypes).
    pub name: String,
    /// Storage footprint of the attribute value in bytes.
    pub size_bytes: u32,
    /// Relative how-often-read weight (drives copy-vs-reference costing).
    pub read_weight: f64,
    /// Relative how-often-updated weight.
    pub update_weight: f64,
    /// Whether descendant versions may inherit this attribute
    /// instance-to-instance.
    pub inheritable: bool,
}

impl AttrDef {
    /// Convenience constructor with neutral weights.
    pub fn new(name: impl Into<String>, size_bytes: u32) -> Self {
        AttrDef {
            name: name.into(),
            size_bytes,
            read_weight: 1.0,
            update_weight: 1.0,
            inheritable: true,
        }
    }
}

/// Definition of an operation (behaviour) on a type. Operations carry no
/// body here — the simulation only needs dispatch/lookup semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpDef {
    /// Operation name (unique within a type; overrides supertypes).
    pub name: String,
}

/// A node in the type lattice.
#[derive(Debug, Clone)]
pub struct TypeDef {
    /// This type's id.
    pub id: TypeId,
    /// Human-readable name, e.g. `layout` or `cell`.
    pub name: String,
    /// Direct supertypes (multiple inheritance allowed).
    pub supertypes: Vec<TypeId>,
    /// Attributes defined directly on this type.
    pub attributes: Vec<AttrDef>,
    /// Operations defined directly on this type.
    pub operations: Vec<OpDef>,
    /// Default traversal frequencies instances of this type start with.
    pub frequencies: RelFrequencies,
}

/// Errors raised by lattice construction and lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// A named supertype id does not exist.
    UnknownSupertype(TypeId),
    /// Adding the type would create a supertype cycle.
    CycleDetected(String),
    /// A type name was defined twice.
    DuplicateName(String),
    /// Lookup of an unknown type id.
    UnknownType(TypeId),
    /// The named type would resolve to this many attributes, more than
    /// [`MAX_RESOLVED_ATTRS`].
    TooManyAttributes(String, usize),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::UnknownSupertype(t) => write!(f, "unknown supertype {t}"),
            TypeError::CycleDetected(n) => write!(f, "type {n:?} would create a supertype cycle"),
            TypeError::DuplicateName(n) => write!(f, "type name {n:?} already defined"),
            TypeError::UnknownType(t) => write!(f, "unknown type {t}"),
            TypeError::TooManyAttributes(n, count) => write!(
                f,
                "type {n:?} resolves to {count} attributes (limit {MAX_RESOLVED_ATTRS})"
            ),
        }
    }
}

impl std::error::Error for TypeError {}

/// The lattice of all types, supporting resolution of inherited
/// definitions.
#[derive(Debug, Clone, Default)]
pub struct TypeLattice {
    types: Vec<TypeDef>,
    /// Per type, the attribute list [`resolve_attributes`] answers with.
    /// Supertypes exist before their subtypes and a [`TypeDef`] never
    /// changes, so it is computed once, in [`define`].
    ///
    /// [`resolve_attributes`]: TypeLattice::resolve_attributes
    /// [`define`]: TypeLattice::define
    resolved: Vec<Vec<AttrDef>>,
    by_name: BTreeMap<String, TypeId>,
}

impl TypeLattice {
    /// Empty lattice.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the lattice is empty.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Define a new type. Supertypes must already exist (so cycles are
    /// impossible by construction, but we still validate ids), and the
    /// type's resolved attribute list must fit [`MAX_RESOLVED_ATTRS`].
    pub fn define(
        &mut self,
        name: impl Into<String>,
        supertypes: Vec<TypeId>,
        attributes: Vec<AttrDef>,
        operations: Vec<OpDef>,
        frequencies: RelFrequencies,
    ) -> Result<TypeId, TypeError> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(TypeError::DuplicateName(name));
        }
        for &s in &supertypes {
            if s.index() >= self.types.len() {
                return Err(TypeError::UnknownSupertype(s));
            }
        }
        let id = TypeId(self.types.len() as u32);
        self.types.push(TypeDef {
            id,
            name: name.clone(),
            supertypes,
            attributes,
            operations,
            frequencies,
        });
        let resolved = self.resolve_from_definitions(id);
        if resolved.len() > MAX_RESOLVED_ATTRS {
            self.types.pop();
            return Err(TypeError::TooManyAttributes(name, resolved.len()));
        }
        self.resolved.push(resolved);
        self.by_name.insert(name, id);
        Ok(id)
    }

    /// `id`'s own attributes, then each ancestor's in [`ancestors`]
    /// order, the first definition of a name winning.
    ///
    /// [`ancestors`]: TypeLattice::ancestors
    fn resolve_from_definitions(&self, id: TypeId) -> Vec<AttrDef> {
        let mut out: Vec<AttrDef> = Vec::new();
        let ancestors = self.ancestors(id).expect("supertypes were validated");
        for ty in std::iter::once(id).chain(ancestors) {
            for a in &self.types[ty.index()].attributes {
                if !out.iter().any(|existing| existing.name == a.name) {
                    out.push(a.clone());
                }
            }
        }
        out
    }

    /// Shorthand: define a root type with only a name and frequencies.
    pub fn define_simple(
        &mut self,
        name: impl Into<String>,
        frequencies: RelFrequencies,
    ) -> Result<TypeId, TypeError> {
        self.define(name, Vec::new(), Vec::new(), Vec::new(), frequencies)
    }

    /// Look up a type definition.
    pub fn get(&self, id: TypeId) -> Result<&TypeDef, TypeError> {
        self.types.get(id.index()).ok_or(TypeError::UnknownType(id))
    }

    /// Look up a type id by name.
    pub fn id_of(&self, name: &str) -> Option<TypeId> {
        self.by_name.get(name).copied()
    }

    /// All supertypes of `id`, most specific first (BFS order), excluding
    /// `id` itself. Deduplicated for diamond lattices.
    pub fn ancestors(&self, id: TypeId) -> Result<Vec<TypeId>, TypeError> {
        let mut out = Vec::new();
        let mut seen = vec![false; self.types.len()];
        let mut frontier = vec![id];
        while let Some(cur) = frontier.pop() {
            for &s in &self.get(cur)?.supertypes {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    out.push(s);
                    frontier.push(s);
                }
            }
        }
        Ok(out)
    }

    /// Whether `sub` is `sup` or inherits (transitively) from it.
    pub fn is_subtype(&self, sub: TypeId, sup: TypeId) -> Result<bool, TypeError> {
        if sub == sup {
            return Ok(true);
        }
        Ok(self.ancestors(sub)?.contains(&sup))
    }

    /// The full attribute set visible on `id`: its own attributes plus all
    /// inherited ones, with subtype definitions shadowing supertype
    /// definitions of the same name. An instance's slot `i` is entry `i`
    /// of this list.
    pub fn resolve_attributes(&self, id: TypeId) -> Result<&[AttrDef], TypeError> {
        match self.resolved.get(id.index()) {
            Some(attrs) => Ok(attrs),
            None => Err(TypeError::UnknownType(id)),
        }
    }

    /// The full operation set visible on `id`, subtype definitions winning.
    pub fn resolve_operations(&self, id: TypeId) -> Result<Vec<OpDef>, TypeError> {
        let mut out: Vec<OpDef> = self.get(id)?.operations.clone();
        for anc in self.ancestors(id)? {
            for op in &self.get(anc)?.operations {
                if !out.iter().any(|existing| existing.name == op.name) {
                    out.push(op.clone());
                }
            }
        }
        Ok(out)
    }

    /// Effective traversal frequencies for instances of `id`: the type's
    /// own profile. (Subtypes declare a complete profile; lattice merging
    /// of partial profiles is not needed by the model.)
    pub fn frequencies(&self, id: TypeId) -> Result<RelFrequencies, TypeError> {
        Ok(self.get(id)?.frequencies)
    }

    /// Iterate all type definitions.
    pub fn iter(&self) -> impl Iterator<Item = &TypeDef> {
        self.types.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lattice() -> (TypeLattice, TypeId, TypeId, TypeId) {
        let mut l = TypeLattice::new();
        let base = l
            .define(
                "design-object",
                vec![],
                vec![AttrDef::new("owner", 16), AttrDef::new("timestamp", 8)],
                vec![OpDef {
                    name: "describe".into(),
                }],
                RelFrequencies::UNIFORM,
            )
            .unwrap();
        let cell = l
            .define(
                "cell",
                vec![base],
                vec![AttrDef::new("bbox", 32)],
                vec![],
                RelFrequencies {
                    config_down: 8.0,
                    ..RelFrequencies::UNIFORM
                },
            )
            .unwrap();
        let macro_cell = l
            .define(
                "macro-cell",
                vec![cell],
                vec![AttrDef::new("owner", 64)], // shadows base's owner
                vec![OpDef {
                    name: "route".into(),
                }],
                RelFrequencies {
                    config_down: 12.0,
                    ..RelFrequencies::UNIFORM
                },
            )
            .unwrap();
        (l, base, cell, macro_cell)
    }

    #[test]
    fn ancestors_are_transitive() {
        let (l, base, cell, mc) = lattice();
        assert_eq!(l.ancestors(mc).unwrap(), vec![cell, base]);
        assert!(l.is_subtype(mc, base).unwrap());
        assert!(!l.is_subtype(base, mc).unwrap());
        assert!(l.is_subtype(cell, cell).unwrap());
    }

    #[test]
    fn attribute_resolution_shadows() {
        let (l, _, _, mc) = lattice();
        let attrs = l.resolve_attributes(mc).unwrap();
        let names: Vec<&str> = attrs.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["owner", "bbox", "timestamp"]);
        // The subtype's 64-byte owner wins over the base's 16-byte one.
        assert_eq!(attrs[0].size_bytes, 64);
    }

    /// The per-call resolution `resolve_attributes` used to run on every
    /// create: `define` must have stored exactly its answer.
    fn resolve_per_call(l: &TypeLattice, id: TypeId) -> Vec<AttrDef> {
        let mut out: Vec<AttrDef> = Vec::new();
        let mut have = std::collections::BTreeSet::new();
        for a in &l.get(id).unwrap().attributes {
            if have.insert(a.name.as_str()) {
                out.push(a.clone());
            }
        }
        for anc in l.ancestors(id).unwrap() {
            for a in &l.get(anc).unwrap().attributes {
                if !out.iter().any(|existing| existing.name == a.name) {
                    out.push(a.clone());
                }
            }
        }
        out
    }

    #[test]
    fn resolution_at_define_equals_per_call_resolution() {
        let (mut l, base, cell, mc) = lattice();
        // A diamond with a repeated own name and a non-inheritable slot.
        let shadow = l
            .define(
                "shadow",
                vec![mc, base],
                vec![
                    AttrDef::new("bbox", 48),
                    AttrDef::new("bbox", 1),
                    AttrDef {
                        inheritable: false,
                        ..AttrDef::new("checksum", 8)
                    },
                ],
                vec![],
                RelFrequencies::UNIFORM,
            )
            .unwrap();
        for ty in [base, cell, mc, shadow] {
            assert_eq!(l.resolve_attributes(ty).unwrap(), resolve_per_call(&l, ty));
        }
        assert_eq!(
            l.resolve_attributes(TypeId(99)),
            Err(TypeError::UnknownType(TypeId(99)))
        );
    }

    #[test]
    fn type_wider_than_the_slot_masks_is_refused() {
        let mut l = TypeLattice::new();
        let attrs = |prefix: &str, n: usize| -> Vec<AttrDef> {
            (0..n)
                .map(|i| AttrDef::new(format!("{prefix}{i}"), 4))
                .collect()
        };
        let wide = l
            .define(
                "wide",
                vec![],
                attrs("a", MAX_RESOLVED_ATTRS),
                vec![],
                RelFrequencies::UNIFORM,
            )
            .unwrap();
        assert_eq!(
            l.resolve_attributes(wide).unwrap().len(),
            MAX_RESOLVED_ATTRS
        );
        // One inherited name too many: refused, and the lattice is as it was.
        assert_eq!(
            l.define(
                "wider",
                vec![wide],
                attrs("b", 1),
                vec![],
                RelFrequencies::UNIFORM
            ),
            Err(TypeError::TooManyAttributes(
                "wider".into(),
                MAX_RESOLVED_ATTRS + 1
            ))
        );
        assert_eq!(l.len(), 1);
        assert_eq!(l.id_of("wider"), None);
        // Shadowing an inherited name does not widen the list.
        l.define(
            "wider",
            vec![wide],
            attrs("a", 1),
            vec![],
            RelFrequencies::UNIFORM,
        )
        .unwrap();
    }

    #[test]
    fn operation_resolution_unions() {
        let (l, _, _, mc) = lattice();
        let ops = l.resolve_operations(mc).unwrap();
        let names: Vec<&str> = ops.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, ["route", "describe"]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut l = TypeLattice::new();
        l.define_simple("x", RelFrequencies::UNIFORM).unwrap();
        assert_eq!(
            l.define_simple("x", RelFrequencies::UNIFORM),
            Err(TypeError::DuplicateName("x".into()))
        );
    }

    #[test]
    fn unknown_supertype_rejected() {
        let mut l = TypeLattice::new();
        let err = l
            .define(
                "y",
                vec![TypeId(9)],
                vec![],
                vec![],
                RelFrequencies::UNIFORM,
            )
            .unwrap_err();
        assert_eq!(err, TypeError::UnknownSupertype(TypeId(9)));
    }

    #[test]
    fn diamond_lattice_dedupes() {
        let mut l = TypeLattice::new();
        let root = l.define_simple("root", RelFrequencies::UNIFORM).unwrap();
        let a = l
            .define("a", vec![root], vec![], vec![], RelFrequencies::UNIFORM)
            .unwrap();
        let b = l
            .define("b", vec![root], vec![], vec![], RelFrequencies::UNIFORM)
            .unwrap();
        let leaf = l
            .define("leaf", vec![a, b], vec![], vec![], RelFrequencies::UNIFORM)
            .unwrap();
        let ancs = l.ancestors(leaf).unwrap();
        assert_eq!(ancs.iter().filter(|&&t| t == root).count(), 1);
        assert_eq!(ancs.len(), 3);
    }

    #[test]
    fn lookup_by_name() {
        let (l, base, _, _) = lattice();
        assert_eq!(l.id_of("design-object"), Some(base));
        assert_eq!(l.id_of("nonexistent"), None);
        assert_eq!(l.len(), 3);
    }
}
