//! Synthetic design-database construction.
//!
//! The simulation needs a populated database whose structural shape is
//! controllable (configuration fan-out ≈ structure density, version-chain
//! length, correspondence coverage). [`SyntheticDbSpec`] builds one
//! deterministically from a seed, mimicking a multi-representation VLSI
//! design: per module, a configuration tree is replicated across
//! representation types, corresponding nodes are cross-linked, and some
//! lineages get descendant versions.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

use crate::db::Database;
use crate::id::{ObjectId, TypeId};
use crate::inherit::{derive_version, CopyVsRefModel};
use crate::name::{NameKey, Sym};
use crate::relationship::{RelFrequencies, RelKind};
use crate::types::{AttrDef, TypeLattice};

/// Parameters of the synthetic database.
#[derive(Debug, Clone)]
pub struct SyntheticDbSpec {
    /// Number of independent top-level design modules.
    pub modules: usize,
    /// Depth of each module's configuration tree (root = depth 0).
    pub depth: usize,
    /// Inclusive fan-out range of composite objects.
    pub fanout: (usize, usize),
    /// Representation types replicated per module.
    pub representations: Vec<String>,
    /// Probability that a node is cross-linked to its twin in the next
    /// representation.
    pub correspondence_prob: f64,
    /// Probability that a node receives one descendant version.
    pub version_prob: f64,
    /// Inclusive body-size range in bytes.
    pub body_bytes: (u32, u32),
    /// Seed for the deterministic construction.
    pub seed: u64,
}

impl Default for SyntheticDbSpec {
    fn default() -> Self {
        SyntheticDbSpec {
            modules: 4,
            depth: 3,
            fanout: (2, 4),
            representations: vec!["layout".into(), "netlist".into()],
            correspondence_prob: 0.5,
            version_prob: 0.25,
            body_bytes: (64, 512),
            seed: 1,
        }
    }
}

/// What the builder produced, for assertions and reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildStats {
    /// Objects created (including derived versions).
    pub objects: usize,
    /// Configuration edges created.
    pub configuration_edges: usize,
    /// Correspondence edges created directly (inherited ones not counted).
    pub correspondence_edges: usize,
    /// Derived versions created.
    pub versions: usize,
    /// First object id of each module, ascending: module `m` owns the
    /// contiguous ids from `module_starts[m]` up to the next start (its
    /// trees in every representation, then its derived versions).
    pub module_starts: Vec<ObjectId>,
}

impl SyntheticDbSpec {
    /// Expected objects of one module: a tree per representation at the
    /// mean of [`fanout`](Self::fanout), plus the derived versions.
    pub fn expected_objects_per_module(&self) -> f64 {
        let mean_fanout = (self.fanout.0 + self.fanout.1) as f64 / 2.0;
        let (mut tree_nodes, mut level) = (1.0, 1.0);
        for _ in 0..self.depth {
            level *= mean_fanout;
            tree_nodes += level;
        }
        tree_nodes * self.representations.len() as f64 * (1.0 + self.version_prob)
    }

    /// Build the database and report construction statistics.
    pub fn build(&self) -> (Database, BuildStats) {
        assert!(
            self.fanout.0 >= 1 && self.fanout.0 <= self.fanout.1,
            "invalid fan-out range"
        );
        assert!(
            !self.representations.is_empty(),
            "need at least one representation"
        );
        assert!(self.body_bytes.0 <= self.body_bytes.1, "invalid body range");

        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut lattice = TypeLattice::new();
        let base = lattice
            .define(
                "design-object",
                vec![],
                vec![AttrDef::new("owner", 16), AttrDef::new("modified", 8)],
                vec![],
                RelFrequencies::UNIFORM,
            )
            .expect("fresh lattice");
        let rep_types: Vec<TypeId> = self
            .representations
            .iter()
            .map(|rep| {
                lattice
                    .define(
                        rep.clone(),
                        vec![base],
                        vec![],
                        vec![],
                        // CAD tools mostly walk configurations downward and
                        // inherit along version history (§2.1c).
                        RelFrequencies {
                            config_down: 4.0,
                            config_up: 1.0,
                            version_up: 2.0,
                            version_down: 1.0,
                            correspondence: 1.5,
                            inheritance: 2.0,
                        },
                    )
                    .expect("unique representation names")
            })
            .collect();

        let mut db = Database::with_lattice(lattice);
        // An eighth over the expectation covers the realised spread.
        db.reserve((self.modules as f64 * self.expected_objects_per_module() * 1.125) as usize);
        let mut stats = BuildStats {
            objects: 0,
            configuration_edges: 0,
            correspondence_edges: 0,
            versions: 0,
            module_starts: Vec::with_capacity(self.modules),
        };
        let reps: Vec<Sym> = self.representations.iter().map(|r| db.intern(r)).collect();
        let mut base_name = String::new();

        for m in 0..self.modules {
            stats.module_starts.push(ObjectId(db.object_count() as u32));
            // Same topology in every representation so twins align, and
            // twins share one base name.
            let topology = self.sample_topology(&mut rng);
            let bases: Vec<Sym> = (0..topology.len())
                .map(|n| {
                    base_name.clear();
                    write!(base_name, "M{m}N{n}").expect("writing to a String cannot fail");
                    db.intern(&base_name)
                })
                .collect();
            let mut per_rep: Vec<Vec<ObjectId>> = Vec::new();
            for (r, &rep) in reps.iter().enumerate() {
                let mut ids = Vec::with_capacity(topology.len());
                for (n, &parent) in topology.iter().enumerate() {
                    let body = rng.gen_range(self.body_bytes.0..=self.body_bytes.1);
                    let name = NameKey {
                        base: bases[n],
                        version: 1,
                        rep,
                    };
                    let id = db
                        .create_object_key(name, rep_types[r], body)
                        .expect("synthetic names are unique");
                    stats.objects += 1;
                    if let Some(p) = parent {
                        db.relate(RelKind::Configuration, ids[p], id)
                            .expect("fresh edge");
                        stats.configuration_edges += 1;
                    }
                    ids.push(id);
                }
                per_rep.push(ids);
            }
            // Correspondences between twins in adjacent representations.
            for r in 1..per_rep.len() {
                for (n, &cur) in per_rep[r].iter().enumerate() {
                    if rng.gen_bool(self.correspondence_prob) {
                        db.relate(RelKind::Correspondence, per_rep[r - 1][n], cur)
                            .expect("fresh edge");
                        stats.correspondence_edges += 1;
                    }
                }
            }
            // Version derivation on a sample of nodes.
            let model = CopyVsRefModel::default();
            for ids in &per_rep {
                for &id in ids {
                    if rng.gen_bool(self.version_prob) {
                        derive_version(&mut db, id, &model).expect("derivable");
                        stats.versions += 1;
                        stats.objects += 1;
                    }
                }
            }
        }
        (db, stats)
    }

    /// Sample one tree topology: `parent[i]` is the index of node `i`'s
    /// composite (None for the root). Index order is creation order.
    fn sample_topology(&self, rng: &mut SmallRng) -> Vec<Option<usize>> {
        let mut parents = vec![None];
        let mut level = vec![0usize]; // indexes of current level
        for _ in 0..self.depth {
            let mut next = Vec::new();
            for &p in &level {
                let fanout = rng.gen_range(self.fanout.0..=self.fanout.1);
                for _ in 0..fanout {
                    let idx = parents.len();
                    parents.push(Some(p));
                    next.push(idx);
                }
            }
            level = next;
        }
        parents
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;

    #[test]
    fn build_is_deterministic() {
        let spec = SyntheticDbSpec::default();
        let (_, s1) = spec.build();
        let (_, s2) = spec.build();
        assert_eq!(s1, s2);
        let (_, s3) = SyntheticDbSpec {
            seed: 2,
            ..SyntheticDbSpec::default()
        }
        .build();
        assert_ne!(s1, s3);
    }

    #[test]
    fn stats_match_database() {
        let (db, stats) = SyntheticDbSpec::default().build();
        assert_eq!(db.object_count(), stats.objects);
        assert!(stats.configuration_edges > 0);
        assert!(stats.objects > stats.versions);
    }

    #[test]
    fn built_database_validates() {
        let (db, _) = SyntheticDbSpec {
            modules: 3,
            depth: 3,
            correspondence_prob: 0.8,
            version_prob: 0.5,
            ..SyntheticDbSpec::default()
        }
        .build();
        let violations = validate(&db);
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn fanout_controls_density() {
        let narrow = SyntheticDbSpec {
            fanout: (2, 2),
            depth: 2,
            modules: 1,
            representations: vec!["layout".into()],
            version_prob: 0.0,
            correspondence_prob: 0.0,
            ..SyntheticDbSpec::default()
        };
        let (db, stats) = narrow.build();
        // 1 + 2 + 4 nodes, 6 edges.
        assert_eq!(stats.objects, 7);
        assert_eq!(stats.configuration_edges, 6);
        let roots: Vec<_> = db
            .objects()
            .filter(|o| db.graph().composites(o.id).is_empty())
            .collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(db.graph().downward_fanout(roots[0].id), 2);
    }

    #[test]
    fn wide_fanout_produces_high_density() {
        let wide = SyntheticDbSpec {
            fanout: (10, 12),
            depth: 1,
            modules: 1,
            representations: vec!["layout".into()],
            version_prob: 0.0,
            correspondence_prob: 0.0,
            ..SyntheticDbSpec::default()
        };
        let (db, _) = wide.build();
        let root = db
            .objects()
            .find(|o| db.graph().composites(o.id).is_empty())
            .unwrap();
        assert!(db.graph().downward_fanout(root.id) >= 10);
    }
}
