//! Property-based tests for the lock table, against a map-based model
//! of what conservative all-or-nothing locking means.

use proptest::prelude::*;
use semcluster_lock::{LockManager, LockMode, TxnId};
use semcluster_vdm::ObjectId;
use std::collections::BTreeMap;

const TXNS: u64 = 6;
const OBJECTS: u32 = 8;

fn modes() -> impl Strategy<Value = LockMode> {
    prop_oneof![
        Just(LockMode::IntentionShared),
        Just(LockMode::IntentionExclusive),
        Just(LockMode::Shared),
        Just(LockMode::SharedIntentionExclusive),
        Just(LockMode::Exclusive),
    ]
}

/// One script step: transaction `.0` releases everything when `.1` is
/// zero, otherwise asks for the batch `.2`. Eight objects and batches of
/// up to five make a batch that names an object twice, and a transaction
/// that already holds what it asks for, common.
type Step = (u64, u8, Vec<(u32, LockMode)>);

fn scripts(len: usize) -> impl Strategy<Value = Vec<Step>> {
    let batch = proptest::collection::vec((0..OBJECTS, modes()), 1..6);
    proptest::collection::vec((0..TXNS, 0u8..4, batch), 1..len)
}

fn requests(batch: &[(u32, LockMode)]) -> Vec<(ObjectId, LockMode)> {
    batch.iter().map(|&(o, m)| (ObjectId(o), m)).collect()
}

/// The reference: object → (transaction → mode held).
#[derive(Default)]
struct Model {
    held: BTreeMap<u32, BTreeMap<u64, LockMode>>,
}

impl Model {
    /// What `txn` would hold on each object of `batch` were it granted:
    /// the join of what it holds and every mode the batch asks there.
    fn wanted(&self, txn: u64, batch: &[(u32, LockMode)]) -> BTreeMap<u32, LockMode> {
        let mut want = BTreeMap::new();
        for &(o, m) in batch {
            let held = self.held.get(&o).and_then(|h| h.get(&txn)).copied();
            let base = want.get(&o).copied().or(held);
            want.insert(o, base.map_or(m, |b: LockMode| b.join(m)));
        }
        want
    }

    /// Grant the whole batch iff every wanted mode is compatible with
    /// every other transaction's hold on that object.
    fn try_acquire_all(&mut self, txn: u64, batch: &[(u32, LockMode)]) -> bool {
        let want = self.wanted(txn, batch);
        let free = want.iter().all(|(o, &m)| {
            self.held
                .get(o)
                .is_none_or(|h| h.iter().all(|(&t, &hm)| t == txn || hm.compatible(m)))
        });
        if free {
            for (o, m) in want {
                self.held.entry(o).or_default().insert(txn, m);
            }
        }
        free
    }

    /// Drop every hold of `txn`; the objects it held, ascending.
    fn release_all(&mut self, txn: u64) -> Vec<ObjectId> {
        let mut released = Vec::new();
        self.held.retain(|&o, h| {
            if h.remove(&txn).is_some() {
                released.push(ObjectId(o));
            }
            !h.is_empty()
        });
        released
    }
}

/// Every `held_mode` the table answers is the model's, and it counts the
/// same objects as live.
fn assert_table_is_model(lm: &LockManager, model: &Model) {
    for o in 0..OBJECTS {
        for t in 0..TXNS {
            let expect = model.held.get(&o).and_then(|h| h.get(&t)).copied();
            prop_assert_eq!(
                lm.held_mode(TxnId(t), ObjectId(o)),
                expect,
                "txn{} on o{}",
                t,
                o
            );
        }
    }
    prop_assert_eq!(lm.active_objects(), model.held.len());
}

/// Run one step on both sides and compare verdict and released set.
fn step(lm: &mut LockManager, model: &mut Model, (txn, kind, batch): &Step) {
    if *kind == 0 {
        let mut released = lm.release_all(TxnId(*txn)).to_vec();
        released.sort();
        prop_assert_eq!(released, model.release_all(*txn));
    } else {
        let granted = lm.try_acquire_all(TxnId(*txn), &requests(batch));
        prop_assert_eq!(
            granted,
            model.try_acquire_all(*txn, batch),
            "batch {:?}",
            batch
        );
    }
}

proptest! {
    /// Safety invariant, read off the table alone: after any
    /// acquire/release interleaving, the holders of every object are
    /// pairwise compatible.
    #[test]
    fn holders_always_pairwise_compatible(script in scripts(200)) {
        let mut lm = LockManager::new();
        for (txn, kind, batch) in &script {
            if *kind == 0 {
                lm.release_all(TxnId(*txn));
            } else {
                lm.try_acquire_all(TxnId(*txn), &requests(batch));
            }
            for o in 0..OBJECTS {
                let holders: Vec<(u64, LockMode)> = (0..TXNS)
                    .filter_map(|t| lm.held_mode(TxnId(t), ObjectId(o)).map(|m| (t, m)))
                    .collect();
                for (i, &(ta, ma)) in holders.iter().enumerate() {
                    for &(tb, mb) in &holders[i + 1..] {
                        prop_assert!(
                            ma.compatible(mb),
                            "incompatible co-holders txn{ta}:{ma} and txn{tb}:{mb} on o{o}"
                        );
                    }
                }
            }
        }
    }

    /// Conservative acquisition is atomic: the table grants exactly the
    /// batches the model grants; a refused batch leaves every
    /// `held_mode` as it was, an accepted one holds the join of what was
    /// held and asked, and a release names exactly what was held.
    #[test]
    fn conservative_is_atomic(script in scripts(120)) {
        let mut lm = LockManager::new();
        let mut model = Model::default();
        for s in &script {
            step(&mut lm, &mut model, s);
            assert_table_is_model(&lm, &model);
        }
    }

    /// Release drains: after all transactions release, the table is
    /// empty and a fresh exclusive on anything succeeds.
    #[test]
    fn full_release_drains_table(script in scripts(60)) {
        let mut lm = LockManager::new();
        let mut model = Model::default();
        for s in &script {
            step(&mut lm, &mut model, s);
        }
        for t in 0..TXNS {
            lm.release_all(TxnId(t));
            prop_assert!(lm.release_all(TxnId(t)).is_empty());
        }
        prop_assert_eq!(lm.active_objects(), 0);
        let everything: Vec<(u32, LockMode)> =
            (0..OBJECTS).map(|o| (o, LockMode::Exclusive)).collect();
        prop_assert!(lm.try_acquire_all(TxnId(9), &requests(&everything)));
        prop_assert_eq!(lm.active_objects(), OBJECTS as usize);
    }
}
