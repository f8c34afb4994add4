//! External object names.
//!
//! The Version Data Model denotes every object by the triple
//! `name[i].type` — e.g. `ALU[4].layout` is version 4 of the ALU's layout
//! representation. [`ObjectName`] stores the triple and round-trips through
//! the paper's textual syntax; it is the value type at the API boundary.
//! Inside the catalog a name is a [`NameKey`]: the same triple with both
//! strings replaced by [`Sym`] handles into the database's interner, so
//! it is 12 bytes, `Copy`, and hashes without touching a string.

use crate::column::Column;
use crate::dethash::DetState;
use crate::id::ObjectId;
use crate::object::DesignObject;
use std::fmt;
use std::hash::BuildHasher;
use std::mem::replace;
use std::str::FromStr;

/// Handle of an interned string; equal handles ⇔ equal strings within
/// one [`Database`](crate::Database).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

/// The catalog's form of `base[version].representation`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NameKey {
    /// Interned design-object name.
    pub base: Sym,
    /// Version number `i` in `name[i].type`.
    pub version: u32,
    /// Interned representation type name.
    pub rep: Sym,
}

/// String interner: every distinct string is stored once, end to end in
/// one arena, and found through an open-addressing table of handles
/// (FNV-1a, linear probing, load ≤ ½) — so interning allocates only when
/// one of its three vectors doubles.
#[derive(Debug, Clone, Default)]
pub(crate) struct Interner {
    arena: String,
    /// `ends[i]` is where string `i` stops in `arena` (it starts where
    /// string `i - 1` stopped).
    ends: Vec<u32>,
    /// `Sym + 1`, or 0 for an empty slot; length is 0 or a power of two.
    slots: Vec<u32>,
}

impl Interner {
    /// The string behind `sym`. Panics on a handle from another interner
    /// that is out of range here (a caller bug).
    pub(crate) fn get(&self, sym: Sym) -> &str {
        let i = sym.0 as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.arena[start..self.ends[i] as usize]
    }

    /// Slot holding `s`, or the empty slot where it would go.
    fn probe(&self, s: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = DetState.hash_one(s) as usize & mask;
        while self.slots[at] != 0 && self.get(Sym(self.slots[at] - 1)) != s {
            at = (at + 1) & mask;
        }
        at
    }

    /// The handle of `s` if it was interned before.
    pub(crate) fn find(&self, s: &str) -> Option<Sym> {
        if self.slots.is_empty() {
            return None;
        }
        self.slots[self.probe(s)].checked_sub(1).map(Sym)
    }

    /// The handle of `s`, storing it on first sight.
    pub(crate) fn intern(&mut self, s: &str) -> Sym {
        if (self.ends.len() + 1) * 2 > self.slots.len() {
            let doubled = (self.slots.len() * 2).max(16);
            self.slots.clear();
            self.slots.resize(doubled, 0);
            for i in 0..self.ends.len() as u32 {
                let at = self.probe(self.get(Sym(i)));
                self.slots[at] = i + 1;
            }
        }
        let at = self.probe(s);
        if let Some(found) = self.slots[at].checked_sub(1) {
            return Sym(found);
        }
        self.arena.push_str(s);
        let end = u32::try_from(self.arena.len()).expect("interned names fit 4 GiB");
        self.ends.push(end);
        self.slots[at] = self.ends.len() as u32;
        Sym(self.slots[at] - 1)
    }
}

/// "No entry" in the name index's links.
const NONE: u32 = u32::MAX;

/// The catalog's dense name index (DESIGN.md §14.5): each lineage (one
/// `base`/`rep`, tombstones included) is linked top down by version,
/// newest first among equals, and each base chains its lineages' tops.
#[derive(Debug, Clone, Default)]
pub(crate) struct NameIndex {
    /// Per base `Sym`: the top of one of its lineages.
    heads: Vec<u32>,
    /// Per object: the next object down its lineage.
    below: Column<u32>,
    /// Per lineage top: the top of its base's next lineage.
    next_lineage: Column<u32>,
}

impl NameIndex {
    /// Room for `n` more objects, each named under a base of its own.
    pub(crate) fn reserve(&mut self, n: usize) {
        self.heads.reserve(n);
        self.below.reserve(n);
        self.next_lineage.reserve(n);
    }

    /// Walk `key`'s lineage: the top chained before its top, the object
    /// above the first at or below `key.version`, and that one (or NONE).
    fn seek(
        &self,
        key: NameKey,
        objects: &Column<DesignObject>,
    ) -> (Option<u32>, Option<u32>, u32) {
        let mut at = self.heads.get(key.base.0 as usize).copied().unwrap_or(NONE);
        let (mut before, mut above) = (None, None);
        while at != NONE && objects[at as usize].name.rep != key.rep {
            (before, at) = (Some(at), self.next_lineage[at as usize]);
        }
        while at != NONE && objects[at as usize].name.version > key.version {
            (above, at) = (Some(at), self.below[at as usize]);
        }
        (before, above, at)
    }

    /// The highest object of `key`'s lineage at or below its version.
    pub(crate) fn floor(&self, key: NameKey, objects: &Column<DesignObject>) -> Option<ObjectId> {
        let (_, _, at) = self.seek(key, objects);
        (at != NONE).then_some(ObjectId(at))
    }

    /// Record that `id`, the object after `objects`, is named `key`.
    pub(crate) fn push(&mut self, key: NameKey, id: ObjectId, objects: &Column<DesignObject>) {
        let base = key.base.0 as usize;
        if base >= self.heads.len() {
            self.heads.resize(base + 1, NONE);
        }
        let (below, next_lineage) = match self.seek(key, objects) {
            // Under the last object above its version.
            (_, Some(above), _) => (replace(&mut self.below[above as usize], id.0), NONE),
            // A new top replaces the old in the chain; a first (`top` NONE) joins its end.
            (before, None, top) => {
                *match before {
                    Some(at) => &mut self.next_lineage[at as usize],
                    None => &mut self.heads[base],
                } = id.0;
                let next = self.next_lineage.get(top as usize).map_or(NONE, |&n| n);
                (top, next)
            }
        };
        self.below.push(below);
        self.next_lineage.push(next_lineage);
    }
}

/// The external name triple `base[version].representation`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectName {
    /// Design-object name, e.g. `ALU`.
    pub base: String,
    /// Version number `i` in `name[i].type`.
    pub version: u32,
    /// Representation type name, e.g. `layout` or `netlist`.
    pub rep: String,
}

impl ObjectName {
    /// Construct a name triple.
    pub fn new(base: impl Into<String>, version: u32, rep: impl Into<String>) -> Self {
        ObjectName {
            base: base.into(),
            version,
            rep: rep.into(),
        }
    }

    /// The same design object at the next version number.
    pub fn successor(&self) -> ObjectName {
        ObjectName {
            base: self.base.clone(),
            version: self.version + 1,
            rep: self.rep.clone(),
        }
    }

    /// Whether two names denote the same design entity in different
    /// representations (candidates for a correspondence relationship).
    pub fn same_entity(&self, other: &ObjectName) -> bool {
        self.base == other.base && self.rep != other.rep
    }
}

impl fmt::Display for ObjectName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}].{}", self.base, self.version, self.rep)
    }
}

/// Error parsing an [`ObjectName`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNameError {
    input: String,
    reason: &'static str,
}

impl fmt::Display for ParseNameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot parse {:?} as name[i].type: {}",
            self.input, self.reason
        )
    }
}

impl std::error::Error for ParseNameError {}

impl FromStr for ObjectName {
    type Err = ParseNameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason| ParseNameError {
            input: s.to_string(),
            reason,
        };
        let open = s.find('[').ok_or_else(|| err("missing '['"))?;
        let close = s.find(']').ok_or_else(|| err("missing ']'"))?;
        if close < open {
            return Err(err("']' before '['"));
        }
        let base = &s[..open];
        if base.is_empty() {
            return Err(err("empty base name"));
        }
        let version: u32 = s[open + 1..close]
            .parse()
            .map_err(|_| err("version is not an unsigned integer"))?;
        let rest = &s[close + 1..];
        let rep = rest
            .strip_prefix('.')
            .ok_or_else(|| err("missing '.' after ']'"))?;
        if rep.is_empty() {
            return Err(err("empty representation type"));
        }
        Ok(ObjectName::new(base, version, rep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_syntax() {
        let n = ObjectName::new("ALU", 4, "layout");
        assert_eq!(n.to_string(), "ALU[4].layout");
    }

    #[test]
    fn parse_roundtrip() {
        let n: ObjectName = "DATAPATH[2].netlist".parse().unwrap();
        assert_eq!(n, ObjectName::new("DATAPATH", 2, "netlist"));
        assert_eq!(n.to_string().parse::<ObjectName>().unwrap(), n);
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "ALU.layout",
            "[4].layout",
            "ALU[x].layout",
            "ALU[4]layout",
            "ALU[4].",
            "ALU]4[.layout",
        ] {
            assert!(bad.parse::<ObjectName>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn interner_stores_each_string_once() {
        let mut names = Interner::default();
        assert_eq!(names.find("ALU"), None);
        let words: Vec<String> = (0..1000).map(|i| format!("M{}N{}", i / 7, i % 7)).collect();
        let syms: Vec<Sym> = words.iter().map(|w| names.intern(w)).collect();
        for (w, &sym) in words.iter().zip(&syms) {
            assert_eq!(names.get(sym), w);
            assert_eq!(names.find(w), Some(sym));
            assert_eq!(names.intern(w), sym);
        }
        assert_eq!(names.ends.len(), 1000);
        assert_eq!(
            names.arena.len(),
            words.iter().map(String::len).sum::<usize>()
        );
        // The empty string and a prefix of a stored one are names too.
        let empty = names.intern("");
        assert_eq!(names.get(empty), "");
        assert_eq!(names.find("M1"), None);
    }

    #[test]
    fn successor_bumps_version() {
        let n = ObjectName::new("ALU", 2, "layout");
        assert_eq!(n.successor(), ObjectName::new("ALU", 3, "layout"));
    }

    #[test]
    fn entity_and_lineage_predicates() {
        let layout2 = ObjectName::new("ALU", 2, "layout");
        let netlist3 = ObjectName::new("ALU", 3, "netlist");
        let layout5 = ObjectName::new("ALU", 5, "layout");
        assert!(layout2.same_entity(&netlist3));
        assert!(!layout2.same_entity(&layout5));
    }
}
