//! The transaction generator: the users of Figure 4.1's closed network.
//!
//! A [`Generator`] owns *what* is asked — the read/write mix (optionally
//! phased), the query type, the target — and the session state that
//! makes the asking local: a session opens with a checkout (a random
//! root and its transitive components) that seeds the user's working
//! set, and later targets come from that set with probability
//! [`WORKING_SET_BIAS`], else uniformly from the database. That locality
//! is what makes run-time clustering matter.
//!
//! It holds no RNG and no database: the caller lends its own on every
//! call, so one seeded stream decides the run and each transaction
//! samples the database as it is now. [`Generator::remember`] is the
//! only call back: the executor reports the objects it touched.

use crate::phases::PhaseSchedule;
use crate::query::QueryKind;
use crate::session::{sample_session_length, CreateMode, Transaction, TxnOp};
use crate::spec::WorkloadSpec;
use semcluster_sim::SimRng;
use semcluster_vdm::{Database, ObjectId, WalkScratch};
use std::collections::VecDeque;

/// Relative frequencies of the six read query types. Navigation dominates
/// ad-hoc lookup in object-oriented tools (§3.5 observation 1).
const READ_MIX: [f64; 6] = [
    1.0, // SimpleLookup
    1.0, // ComponentRetrieval
    5.0, // CompositeRetrieval
    0.5, // DescendantRetrieval
    1.0, // AncestorRetrieval
    1.0, // CorrespondentRetrieval
];

/// Probability that a create attaches as a new component (the remainder
/// derives a new version).
const NEW_COMPONENT_FRACTION: f64 = 0.7;

/// Probability that an operation targets the session's working set
/// rather than a uniformly random object.
const WORKING_SET_BIAS: f64 = 0.7;

/// Working-set capacity per user; the oldest entry makes room.
const WORKING_SET_CAP: usize = 64;

/// Transitive components a checkout brings in beside its root.
const CHECKOUT_COMPONENTS: usize = 8;

/// Targets a composite retrieval draws before settling for an object
/// with no components.
const COMPOSITE_TRIES: usize = 8;

/// Transactions left in one user's session, and its working set, oldest
/// first.
#[derive(Debug)]
struct UserSession {
    txns_left: u32,
    working_set: VecDeque<ObjectId>,
}

/// Stochastic transaction source for a population of users.
#[derive(Debug)]
pub struct Generator {
    spec: WorkloadSpec,
    phases: Option<PhaseSchedule>,
    users: Vec<UserSession>,
}

impl Generator {
    /// A generator for `users` users under `spec`, whose mix a `phases`
    /// schedule overrides per transaction. Every user needs
    /// [`Generator::start_session`] before their first transaction.
    pub fn new(spec: WorkloadSpec, phases: Option<PhaseSchedule>, users: u32) -> Self {
        let users = (0..users)
            .map(|_| UserSession {
                txns_left: 0,
                working_set: VecDeque::with_capacity(WORKING_SET_CAP),
            })
            .collect();
        Generator {
            spec,
            phases,
            users,
        }
    }

    /// Open a session for user `u`: draw its length and check out a
    /// random root plus its transitive components as the working set.
    /// `walk` and `checkout` are scratch lent (and overwritten).
    pub fn start_session(
        &mut self,
        u: u32,
        db: &Database,
        rng: &mut SimRng,
        walk: &mut WalkScratch,
        checkout: &mut Vec<ObjectId>,
    ) {
        let len = sample_session_length(&self.spec, rng);
        let root = pick_uniform(db, rng);
        checkout.clear();
        checkout.push(root);
        db.graph()
            .transitive_components(root, CHECKOUT_COMPONENTS, walk, checkout);
        let user = &mut self.users[u as usize];
        user.txns_left = len;
        user.working_set.clear();
        user.working_set.extend(checkout.iter().copied());
    }

    /// User `u`'s transaction committed or aborted: count it against
    /// the session and open the next session after the last one.
    pub fn finish_transaction(
        &mut self,
        u: u32,
        db: &Database,
        rng: &mut SimRng,
        walk: &mut WalkScratch,
        checkout: &mut Vec<ObjectId>,
    ) {
        let user = &mut self.users[u as usize];
        user.txns_left = user.txns_left.saturating_sub(1);
        if user.txns_left == 0 {
            self.start_session(u, db, rng, walk, checkout);
        }
    }

    /// Note that user `u` touched or created `obj`.
    pub fn remember(&mut self, u: u32, obj: ObjectId) {
        let ws = &mut self.users[u as usize].working_set;
        if ws.len() == WORKING_SET_CAP {
            ws.pop_front();
        }
        ws.push_back(obj);
    }

    /// Sample user `u`'s next transaction: a read with the probability
    /// of the spec in force `completed` transactions into the run, else
    /// a write.
    pub fn next_transaction(
        &self,
        u: u32,
        completed: u64,
        db: &Database,
        rng: &mut SimRng,
    ) -> Transaction {
        let spec = match &self.phases {
            Some(schedule) => schedule.spec_at(completed),
            None => &self.spec,
        };
        let ws = &self.users[u as usize].working_set;
        let ops = if rng.chance(spec.read_probability()) {
            let kind = QueryKind::READS[rng.weighted_index(&READ_MIX)];
            let root = match kind {
                QueryKind::CompositeRetrieval => pick_composite(ws, db, rng),
                _ => pick_target(ws, db, rng),
            };
            vec![TxnOp::Read { kind, root }]
        } else {
            // A write transaction is a checkin: every mutation targets one
            // anchor's neighbourhood (§4.1 — "a checkin operation invokes
            // some object insertions and updating"). Under clustering the
            // touched objects share pages, which is what lets the log
            // manager coalesce before-images (Figure 5.5).
            let anchor = pick_target(ws, db, rng);
            sample_write_shape(spec, rng)
                .into_iter()
                .map(|create| match create {
                    Some(mode) => TxnOp::Create { anchor, mode },
                    None => {
                        let comps = db.graph().components(anchor);
                        let target = if comps.is_empty() {
                            anchor
                        } else {
                            let i = rng.below(comps.len() as u64 + 1) as usize;
                            if i == comps.len() {
                                anchor
                            } else {
                                comps[i]
                            }
                        };
                        // A checkin occasionally removes an obsolete
                        // component instead of updating it.
                        if target != anchor && rng.chance(spec.delete_fraction) {
                            TxnOp::Delete { target }
                        } else {
                            TxnOp::Update { target }
                        }
                    }
                })
                .collect()
        };
        Transaction { ops }
    }
}

/// Sample the shape of a write transaction: for each mutation, whether it
/// creates (`Some(mode)`) or updates (`None`).
fn sample_write_shape(spec: &WorkloadSpec, rng: &mut SimRng) -> Vec<Option<CreateMode>> {
    let n = rng.range_inclusive(spec.writes_per_txn.0 as u64, spec.writes_per_txn.1 as u64);
    (0..n)
        .map(|_| {
            if rng.chance(spec.create_fraction) {
                Some(if rng.chance(NEW_COMPONENT_FRACTION) {
                    CreateMode::NewComponent
                } else {
                    CreateMode::NewVersion
                })
            } else {
                None
            }
        })
        .collect()
}

/// A uniformly random object id (live or tombstoned).
fn pick_uniform(db: &Database, rng: &mut SimRng) -> ObjectId {
    ObjectId(rng.below(db.object_count() as u64) as u32)
}

/// A working-set member with probability [`WORKING_SET_BIAS`], else a
/// uniformly random object.
fn pick_target(ws: &VecDeque<ObjectId>, db: &Database, rng: &mut SimRng) -> ObjectId {
    if !ws.is_empty() && rng.chance(WORKING_SET_BIAS) {
        ws[rng.below(ws.len() as u64) as usize]
    } else {
        pick_uniform(db, rng)
    }
}

/// A read root that actually has components (the paper's structure
/// density is a property of composite objects).
fn pick_composite(ws: &VecDeque<ObjectId>, db: &Database, rng: &mut SimRng) -> ObjectId {
    for _ in 0..COMPOSITE_TRIES {
        let cand = pick_target(ws, db, rng);
        if db.graph().downward_fanout(cand) > 0 {
            return cand;
        }
        // Walking up from a leaf finds its composite.
        if let Some(&up) = db.graph().composites(cand).first() {
            return up;
        }
    }
    pick_target(ws, db, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::StructureDensity;
    use semcluster_vdm::SyntheticDbSpec;

    /// Read/write ratios that make every transaction a write / a read.
    const ALL_WRITES: f64 = 1e-12;
    const ALL_READS: f64 = 1e12;

    fn db() -> Database {
        SyntheticDbSpec::default().build().0
    }

    /// A one-user generator with its first session open, and the RNG
    /// that opened it.
    fn session(db: &Database, spec: WorkloadSpec, seed: u64) -> (Generator, SimRng) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut gen = Generator::new(spec, None, 1);
        gen.start_session(
            0,
            db,
            &mut rng,
            &mut WalkScratch::default(),
            &mut Vec::new(),
        );
        (gen, rng)
    }

    fn draw(gen: &Generator, db: &Database, rng: &mut SimRng, n: usize) -> Vec<Transaction> {
        (0..n)
            .map(|_| gen.next_transaction(0, 0, db, rng))
            .collect()
    }

    /// The object whose neighbourhood (itself and its components) holds
    /// every mutation of `txn`, if there is one.
    fn common_anchor(db: &Database, txn: &Transaction) -> Option<ObjectId> {
        let graph = db.graph();
        let touched = txn.ops.iter().map(|op| match *op {
            TxnOp::Create { anchor, .. } => anchor,
            TxnOp::Update { target } | TxnOp::Delete { target } => target,
            TxnOp::Read { .. } => panic!("write transactions hold no reads"),
        });
        touched
            .flat_map(|t| std::iter::once(t).chain(graph.composites(t).iter().copied()))
            .find(|&a| {
                txn.ops.iter().all(|op| match *op {
                    TxnOp::Create { anchor, .. } => anchor == a,
                    TxnOp::Update { target } | TxnOp::Delete { target } => {
                        target == a || graph.components(a).contains(&target)
                    }
                    TxnOp::Read { .. } => false,
                })
            })
    }

    #[test]
    fn read_write_mix_tracks_ratio() {
        let db = db();
        let (gen, mut rng) = session(&db, WorkloadSpec::new(StructureDensity::Low3, 5.0), 2);
        let n = 20_000;
        let reads = draw(&gen, &db, &mut rng, n)
            .iter()
            .filter(|t| t.is_read())
            .count();
        let frac = reads as f64 / n as f64;
        assert!((frac - 5.0 / 6.0).abs() < 0.02, "read fraction {frac}");
    }

    #[test]
    fn writes_have_spec_bounded_ops() {
        let db = db();
        let spec = WorkloadSpec::new(StructureDensity::Med5, ALL_WRITES);
        let (gen, mut rng) = session(&db, spec, 3);
        for t in draw(&gen, &db, &mut rng, 500) {
            assert!((1..=3).contains(&t.ops.len()));
            assert!(!t.is_read());
        }
    }

    #[test]
    fn reads_are_single_op_and_in_range() {
        let db = db();
        let spec = WorkloadSpec::new(StructureDensity::Med5, ALL_READS);
        let (gen, mut rng) = session(&db, spec, 4);
        for t in draw(&gen, &db, &mut rng, 500) {
            assert_eq!(t.ops.len(), 1);
            match t.ops[0] {
                TxnOp::Read { root, .. } => {
                    assert!(root.index() < db.object_count());
                }
                _ => panic!("read txn must hold a read op"),
            }
        }
    }

    #[test]
    fn composite_retrieval_dominates_reads() {
        let db = db();
        let spec = WorkloadSpec::new(StructureDensity::Med5, ALL_READS);
        let (gen, mut rng) = session(&db, spec, 5);
        let n = 5_000;
        let composite = draw(&gen, &db, &mut rng, n)
            .iter()
            .filter(|t| {
                matches!(
                    t.ops[0],
                    TxnOp::Read {
                        kind: QueryKind::CompositeRetrieval,
                        ..
                    }
                )
            })
            .count();
        let frac = composite as f64 / n as f64;
        assert!(frac > 0.4, "composite fraction {frac}");
    }

    #[test]
    fn same_seed_same_transactions() {
        let db = db();
        let spec = WorkloadSpec::new(StructureDensity::Med5, 2.0);
        let (a, mut rng_a) = session(&db, spec.clone(), 6);
        let (b, mut rng_b) = session(&db, spec.clone(), 6);
        let first = draw(&a, &db, &mut rng_a, 300);
        assert_eq!(first, draw(&b, &db, &mut rng_b, 300));
        let (c, mut rng_c) = session(&db, spec, 7);
        assert_ne!(first, draw(&c, &db, &mut rng_c, 300));
    }

    #[test]
    fn session_opens_on_a_checkout_and_the_working_set_is_bounded() {
        let db = db();
        let spec = WorkloadSpec::new(StructureDensity::Med5, 5.0);
        for seed in 0..50 {
            let (gen, _) = session(&db, spec.clone(), seed);
            let user = &gen.users[0];
            assert!((5..=20).contains(&user.txns_left));
            let root = user.working_set[0];
            let mut checkout = vec![root];
            db.graph().transitive_components(
                root,
                CHECKOUT_COMPONENTS,
                &mut WalkScratch::default(),
                &mut checkout,
            );
            assert!(checkout.len() <= 1 + CHECKOUT_COMPONENTS);
            assert!(user.working_set.iter().eq(&checkout));
        }

        let (mut gen, _) = session(&db, spec, 1);
        let seeded = gen.users[0].working_set.len();
        for i in 0..100 {
            gen.remember(0, ObjectId(1_000 + i));
            assert!(gen.users[0].working_set.len() <= WORKING_SET_CAP);
        }
        // 100 + `seeded` entries went in; the oldest went out first.
        let kept = &gen.users[0].working_set;
        assert_eq!(kept.len(), WORKING_SET_CAP);
        assert!(
            seeded <= 100 - WORKING_SET_CAP,
            "the checkout is all evicted"
        );
        let newest = (100 - WORKING_SET_CAP as u32..100).map(|i| ObjectId(1_000 + i));
        assert!(kept.iter().copied().eq(newest));
    }

    #[test]
    fn session_rolls_over_after_its_last_transaction() {
        let db = db();
        let (mut gen, mut rng) = session(&db, WorkloadSpec::new(StructureDensity::Med5, 5.0), 8);
        let len = gen.users[0].txns_left;
        gen.remember(0, ObjectId(0));
        let grown = gen.users[0].working_set.len();
        let (mut walk, mut buf) = (WalkScratch::default(), Vec::new());
        for left in (1..len).rev() {
            gen.finish_transaction(0, &db, &mut rng, &mut walk, &mut buf);
            assert_eq!(gen.users[0].txns_left, left);
            assert_eq!(gen.users[0].working_set.len(), grown, "same session");
        }
        gen.finish_transaction(0, &db, &mut rng, &mut walk, &mut buf);
        assert!((5..=20).contains(&gen.users[0].txns_left));
        assert!(gen.users[0].working_set.iter().eq(&buf), "a fresh checkout");
    }

    #[test]
    fn working_set_share_matches_the_bias() {
        let db = db();
        let spec = WorkloadSpec::new(StructureDensity::Med5, ALL_READS);
        let (gen, mut rng) = session(&db, spec, 9);
        let ws = &gen.users[0].working_set;
        let (mut direct, mut local) = (0u32, 0u32);
        for t in draw(&gen, &db, &mut rng, 40_000) {
            // Every read but composite retrieval roots at the drawn
            // target itself.
            match t.ops[0] {
                TxnOp::Read {
                    kind: QueryKind::CompositeRetrieval,
                    ..
                } => {}
                TxnOp::Read { root, .. } => {
                    direct += 1;
                    local += u32::from(ws.contains(&root));
                }
                _ => unreachable!("reads only"),
            }
        }
        // A uniform draw can land in the working set too.
        let by_chance = ws.len() as f64 / db.object_count() as f64;
        let expected = WORKING_SET_BIAS + (1.0 - WORKING_SET_BIAS) * by_chance;
        let share = f64::from(local) / f64::from(direct);
        assert!(
            (share - expected).abs() < 0.015,
            "working-set share {share:.3}, expected {expected:.3} over {direct} draws"
        );
    }

    #[test]
    fn composite_roots_have_components_when_the_database_offers_them() {
        // Without derived versions every object is a tree node: it has
        // components or, one step up, a composite.
        let (trees, _) = SyntheticDbSpec {
            version_prob: 0.0,
            ..SyntheticDbSpec::default()
        }
        .build();
        let spec = WorkloadSpec::new(StructureDensity::Med5, ALL_READS);
        let (gen, mut rng) = session(&trees, spec.clone(), 10);
        let mut composites = 0;
        for t in draw(&gen, &trees, &mut rng, 5_000) {
            if let TxnOp::Read {
                kind: QueryKind::CompositeRetrieval,
                root,
            } = t.ops[0]
            {
                composites += 1;
                assert!(trees.graph().downward_fanout(root) > 0, "leaf root {root}");
            }
        }
        assert!(composites > 2_000);

        // With no configuration edges at all the search gives up and
        // still returns an object.
        let (flat, _) = SyntheticDbSpec {
            depth: 0,
            ..SyntheticDbSpec::default()
        }
        .build();
        let (gen, mut rng) = session(&flat, spec, 10);
        for t in draw(&gen, &flat, &mut rng, 500) {
            let TxnOp::Read { root, .. } = t.ops[0] else {
                unreachable!("reads only")
            };
            assert!(root.index() < flat.object_count());
        }
    }

    #[test]
    fn write_mutations_stay_in_the_anchors_neighbourhood() {
        let db = db();
        let mut spec = WorkloadSpec::new(StructureDensity::Med5, ALL_WRITES);
        spec.delete_fraction = 0.3;
        let (gen, mut rng) = session(&db, spec, 11);
        for t in draw(&gen, &db, &mut rng, 3_000) {
            assert!(common_anchor(&db, &t).is_some(), "scattered checkin {t:?}");
        }
    }

    #[test]
    fn delete_fraction_bounds() {
        let db = db();
        let mut spec = WorkloadSpec::new(StructureDensity::Med5, ALL_WRITES);
        assert_eq!(spec.delete_fraction, 0.0);
        let (gen, mut rng) = session(&db, spec.clone(), 12);
        for t in draw(&gen, &db, &mut rng, 3_000) {
            assert!(!t.ops.iter().any(|op| matches!(op, TxnOp::Delete { .. })));
        }

        spec.delete_fraction = 1.0;
        let (gen, mut rng) = session(&db, spec, 12);
        let mut deletes = 0;
        for t in draw(&gen, &db, &mut rng, 3_000) {
            // Every update left is the anchor's own, so a transaction's
            // updates agree on their target and no delete names it.
            let mut anchor = t.ops.iter().find_map(|op| match *op {
                TxnOp::Create { anchor, .. } => Some(anchor),
                _ => None,
            });
            for op in &t.ops {
                if let TxnOp::Update { target } = *op {
                    assert_eq!(*anchor.get_or_insert(target), target, "{t:?}");
                }
            }
            for op in &t.ops {
                if let TxnOp::Delete { target } = *op {
                    deletes += 1;
                    assert_ne!(Some(target), anchor, "anchor deleted in {t:?}");
                }
            }
            assert!(common_anchor(&db, &t).is_some());
        }
        assert!(deletes > 0);
    }

    #[test]
    fn phased_schedule_switches_spec_where_spec_at_says() {
        let db = db();
        let base = WorkloadSpec::new(StructureDensity::Med5, 5.0);
        let schedule = PhaseSchedule::new(vec![
            (WorkloadSpec::new(StructureDensity::Med5, ALL_WRITES), 10),
            (WorkloadSpec::new(StructureDensity::Med5, ALL_READS), 5),
        ]);
        let mut rng = SimRng::seed_from_u64(13);
        let mut gen = Generator::new(base, Some(schedule.clone()), 1);
        gen.start_session(
            0,
            &db,
            &mut rng,
            &mut WalkScratch::default(),
            &mut Vec::new(),
        );
        for completed in 0..60 {
            let expect_read = schedule.spec_at(completed).rw_ratio == ALL_READS;
            assert_eq!(completed % 15 >= 10, expect_read);
            let t = gen.next_transaction(0, completed, &db, &mut rng);
            assert_eq!(t.is_read(), expect_read, "transaction {completed}");
        }
    }
}
