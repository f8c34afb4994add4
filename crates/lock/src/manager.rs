//! The lock manager: a conservative lock table.
//!
//! One discipline, [`LockManager::try_acquire_all`]: a transaction
//! declares its whole lock set and takes all of it or none of it. There
//! is no hold-and-wait, so there is no deadlock to detect and nothing to
//! queue inside the table — every §4.1 transaction knows its object set
//! up front, and a refused caller retries (the engine after a simulated
//! delay, the server when [`LockManager::release_all`] reports a
//! release).
//!
//! Hierarchical (composite-object) locking is layered on top by
//! [`LockManager::hierarchical_lockset_into`], which expands a request
//! into intention locks along the configuration path.

use crate::mode::LockMode;
use semcluster_vdm::{Database, ObjectId};
use std::fmt;

/// Transaction identifier (assigned by the caller).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn{}", self.0)
    }
}

#[derive(Debug, Default)]
struct LockEntry {
    holders: Vec<(TxnId, LockMode)>,
}

impl LockEntry {
    fn grantable(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holders
            .iter()
            .all(|&(h, m)| h == txn || m.compatible(mode))
    }

    fn held_by(&self, txn: TxnId) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|&&(h, _)| h == txn)
            .map(|&(_, m)| m)
    }

    /// The mode `txn` would hold after being granted `mode`.
    fn effective(&self, txn: TxnId, mode: LockMode) -> LockMode {
        self.held_by(txn).map_or(mode, |held| held.join(mode))
    }

    fn set_holder(&mut self, txn: TxnId, mode: LockMode) {
        match self.holders.iter_mut().find(|(h, _)| *h == txn) {
            Some(slot) => slot.1 = mode,
            None => self.holders.push((txn, mode)),
        }
    }
}

/// Sentinel in the object→entry index meaning "no entry".
const NO_ENTRY: u32 = u32::MAX;

/// The lock table.
///
/// Data-oriented layout (DESIGN.md §14): a dense `Vec<u32>` maps each
/// `ObjectId` index to a slot in a slab of `LockEntry`s, and freed
/// slots are recycled through a free list *keeping their holder
/// capacity*, so the steady-state acquire/release cycle performs no
/// allocation. Per-transaction holdings live in a small linear
/// `(TxnId, Vec<ObjectId>)` table (active transactions are bounded by
/// the user count) whose object lists are likewise recycled.
/// The table is mutated and walked inside the engine's profiled
/// lock-acquisition phase, so both its allocation pattern and every
/// observable decision must be pure functions of the request sequence
/// (DESIGN.md §13) — all holder scans here are order-independent
/// (`all`/`find` folds), so slab order never leaks into results.
#[derive(Debug, Default)]
pub struct LockManager {
    /// Object index → slot in `entries`, or [`NO_ENTRY`].
    slot: Vec<u32>,
    /// Slab of lock entries; live iff referenced from `slot`.
    entries: Vec<LockEntry>,
    /// Recycled slab slots (capacity of their holder lists retained).
    free: Vec<u32>,
    /// Live entry count (objects with at least one holder).
    active: usize,
    /// Per-transaction holdings, linear-scanned (few active txns).
    held: Vec<(TxnId, Vec<ObjectId>)>,
    /// Recycled holding lists. The last one still names what the most
    /// recent [`LockManager::release_all`] released; a list is cleared
    /// when it is taken back into use.
    held_free: Vec<Vec<ObjectId>>,
}

impl LockManager {
    /// Empty lock table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow the object→entry index to cover `objects` ids. Call from
    /// outside profiled phases when the object space grows; the index
    /// also self-grows as a safety net.
    pub fn ensure_object_capacity(&mut self, objects: usize) {
        if self.slot.len() < objects {
            self.slot.resize(objects, NO_ENTRY);
        }
    }

    #[inline]
    fn slot_of(&self, object: ObjectId) -> Option<usize> {
        match self.slot.get(object.index()) {
            Some(&s) if s != NO_ENTRY => Some(s as usize),
            _ => None,
        }
    }

    /// Slot for `object`, creating (or recycling) an entry if absent.
    fn slot_or_create(&mut self, object: ObjectId) -> usize {
        if let Some(s) = self.slot_of(object) {
            return s;
        }
        self.ensure_object_capacity(object.index() + 1);
        let s = match self.free.pop() {
            Some(s) => s as usize,
            None => {
                self.entries.push(LockEntry::default());
                self.entries.len() - 1
            }
        };
        self.slot[object.index()] = s as u32;
        self.active += 1;
        s
    }

    /// The mode `txn` currently holds on `object`, if any.
    pub fn held_mode(&self, txn: TxnId, object: ObjectId) -> Option<LockMode> {
        self.entries[self.slot_of(object)?].held_by(txn)
    }

    /// Number of objects with at least one holder.
    pub fn active_objects(&self) -> usize {
        self.active
    }

    /// Record that `txn` holds `object` (deduplicated).
    fn note_held(&mut self, txn: TxnId, object: ObjectId) {
        let list = match self.held.iter().position(|(t, _)| *t == txn) {
            Some(i) => &mut self.held[i].1,
            None => {
                let mut buf = self.held_free.pop().unwrap_or_default();
                buf.clear();
                self.held.push((txn, buf));
                &mut self.held.last_mut().expect("just pushed").1
            }
        };
        if !list.contains(&object) {
            list.push(object);
        }
    }

    /// Atomically acquire every `(object, mode)` in `requests`, or
    /// acquire nothing. Deadlock-free: there is no hold-and-wait.
    /// A mode asked on an object `txn` already holds (from an earlier
    /// call or earlier in `requests`) joins with the held one. Returns
    /// `false` when any lock is unavailable.
    pub fn try_acquire_all(&mut self, txn: TxnId, requests: &[(ObjectId, LockMode)]) -> bool {
        for &(object, mode) in requests {
            if let Some(s) = self.slot_of(object) {
                let entry = &self.entries[s];
                if !entry.grantable(txn, entry.effective(txn, mode)) {
                    return false;
                }
            }
        }
        for &(object, mode) in requests {
            let s = self.slot_or_create(object);
            let entry = &mut self.entries[s];
            entry.set_holder(txn, entry.effective(txn, mode));
            self.note_held(txn, object);
        }
        true
    }

    /// Release everything `txn` holds. Returns the objects released —
    /// the ones a refused transaction may now be able to lock — valid
    /// until the table is next mutated.
    pub fn release_all(&mut self, txn: TxnId) -> &[ObjectId] {
        let Some(pos) = self.held.iter().position(|(t, _)| *t == txn) else {
            return &[];
        };
        let (_, objects) = self.held.swap_remove(pos);
        for &object in &objects {
            let Some(s) = self.slot_of(object) else {
                continue;
            };
            let holders = &mut self.entries[s].holders;
            holders.retain(|&(h, _)| h != txn);
            if holders.is_empty() {
                // Back to the free list, keeping the holder capacity.
                self.slot[object.index()] = NO_ENTRY;
                self.free.push(s as u32);
                self.active -= 1;
            }
        }
        // Recycle the holdings list so the next transaction's acquire
        // phase reuses its capacity.
        self.held_free.push(objects);
        self.held_free.last().expect("just pushed")
    }

    /// Expand a request on `object` into the hierarchical lock set: the
    /// appropriate intention mode on each ancestor along the (first)
    /// composite chain, root first, then `mode` on the object itself.
    /// Depth is bounded to guard against pathological configurations.
    /// Appends to `out` and allocates nothing itself (the ancestor chain
    /// lives on the stack), so the engine can reuse one request buffer
    /// across its whole profiled lock phase.
    pub fn hierarchical_lockset_into(
        db: &Database,
        object: ObjectId,
        mode: LockMode,
        out: &mut Vec<(ObjectId, LockMode)>,
    ) {
        const MAX_DEPTH: usize = 16;
        let mut chain = [object; MAX_DEPTH];
        let mut len = 0usize;
        let mut cur = object;
        for _ in 0..MAX_DEPTH {
            match db.graph().composites(cur).first() {
                Some(&up) if up != object && !chain[..len].contains(&up) => {
                    chain[len] = up;
                    len += 1;
                    cur = up;
                }
                _ => break,
            }
        }
        out.extend(
            chain[..len]
                .iter()
                .rev()
                .map(|&anc| (anc, mode.intention())),
        );
        out.push((object, mode));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcluster_vdm::{ObjectName, RelFrequencies, RelKind, TypeLattice};
    use LockMode::*;

    fn o(i: u32) -> ObjectId {
        ObjectId(i)
    }

    fn t(i: u64) -> TxnId {
        TxnId(i)
    }

    fn lockset(db: &Database, object: ObjectId, mode: LockMode) -> Vec<(ObjectId, LockMode)> {
        let mut out = Vec::new();
        LockManager::hierarchical_lockset_into(db, object, mode, &mut out);
        out
    }

    #[test]
    fn shared_locks_coexist_exclusive_does_not() {
        let mut lm = LockManager::new();
        assert!(lm.try_acquire_all(t(1), &[(o(1), Shared)]));
        assert!(lm.try_acquire_all(t(2), &[(o(1), Shared)]));
        assert!(!lm.try_acquire_all(t(3), &[(o(1), Exclusive)]));
        assert_eq!(lm.held_mode(t(3), o(1)), None);
        assert_eq!(lm.release_all(t(1)), &[o(1)]);
        assert!(!lm.try_acquire_all(t(3), &[(o(1), Exclusive)]), "t2 shares");
        lm.release_all(t(2));
        assert_eq!(lm.active_objects(), 0);
        assert!(lm.try_acquire_all(t(3), &[(o(1), Exclusive)]));
    }

    #[test]
    fn reentrant_and_upgrade() {
        let mut lm = LockManager::new();
        assert!(lm.try_acquire_all(t(1), &[(o(1), Shared)]));
        assert!(lm.try_acquire_all(t(1), &[(o(1), Shared)]));
        assert!(lm.try_acquire_all(t(1), &[(o(1), IntentionExclusive)]));
        assert_eq!(lm.held_mode(t(1), o(1)), Some(SharedIntentionExclusive));
        // A sole holder upgrades; one batch may name the object twice.
        assert!(lm.try_acquire_all(t(1), &[(o(1), Shared), (o(1), Exclusive)]));
        assert_eq!(lm.held_mode(t(1), o(1)), Some(Exclusive));
        assert_eq!(
            lm.release_all(t(1)),
            &[o(1)],
            "held once however often asked"
        );
        // With a second sharer the upgrade is refused and nothing moves.
        assert!(lm.try_acquire_all(t(1), &[(o(1), Shared)]));
        assert!(lm.try_acquire_all(t(2), &[(o(1), Shared)]));
        assert!(!lm.try_acquire_all(t(1), &[(o(2), Shared), (o(1), Exclusive)]));
        assert_eq!(lm.held_mode(t(1), o(1)), Some(Shared));
        assert_eq!(lm.held_mode(t(1), o(2)), None);
    }

    #[test]
    fn conservative_all_or_nothing() {
        let mut lm = LockManager::new();
        assert!(lm.try_acquire_all(t(1), &[(o(1), Shared), (o(2), Exclusive)]));
        // Conflicting set: nothing is taken.
        assert!(!lm.try_acquire_all(t(2), &[(o(3), Shared), (o(2), Shared)]));
        assert_eq!(lm.held_mode(t(2), o(3)), None);
        // Compatible set succeeds.
        assert!(lm.try_acquire_all(t(2), &[(o(1), Shared), (o(3), Shared)]));
        assert_eq!(lm.release_all(t(1)), &[o(1), o(2)]);
        assert!(lm.release_all(t(1)).is_empty(), "nothing left to release");
        assert!(lm.try_acquire_all(t(3), &[(o(2), Exclusive)]));
    }

    /// The slab holds exactly as many entries as were ever live at once:
    /// a slot is pushed only when the free list is empty, so churn over
    /// any number of objects, refused batches included, reuses the same
    /// few.
    #[test]
    fn slab_is_as_large_as_the_peak_of_live_objects() {
        let mut lm = LockManager::new();
        let (mut peak, mut refused) = (0, 0);
        for round in 0..200u32 {
            let txn = t(u64::from(round % 4));
            if round % 3 == 2 {
                lm.release_all(txn);
            } else {
                let base = round * 5 % 23;
                let batch = [(o(base), Shared), (o(base + round % 7), Exclusive)];
                refused += u32::from(!lm.try_acquire_all(txn, &batch));
            }
            peak = peak.max(lm.active_objects());
            assert_eq!(lm.entries.len(), peak);
            assert_eq!(lm.free.len() + lm.active_objects(), lm.entries.len());
        }
        assert!(refused > 0 && peak > 2, "{refused} refused, peak {peak}");
        for txn in 0..4 {
            lm.release_all(t(txn));
        }
        assert_eq!(lm.active_objects(), 0);
        assert_eq!(lm.free.len(), peak);
    }

    #[test]
    fn hierarchical_lockset_walks_configuration() {
        let mut lattice = TypeLattice::new();
        let ty = lattice.define_simple("t", RelFrequencies::UNIFORM).unwrap();
        let mut db = Database::with_lattice(lattice);
        let chip = db
            .create_object(ObjectName::new("CHIP", 1, "t"), ty, 10)
            .unwrap();
        let alu = db
            .create_object(ObjectName::new("ALU", 1, "t"), ty, 10)
            .unwrap();
        let adder = db
            .create_object(ObjectName::new("ADDER", 1, "t"), ty, 10)
            .unwrap();
        db.relate(RelKind::Configuration, chip, alu).unwrap();
        db.relate(RelKind::Configuration, alu, adder).unwrap();
        assert_eq!(
            lockset(&db, adder, Exclusive),
            vec![
                (chip, IntentionExclusive),
                (alu, IntentionExclusive),
                (adder, Exclusive)
            ]
        );
        assert_eq!(lockset(&db, chip, Shared), vec![(chip, Shared)]);
    }

    #[test]
    fn hierarchical_locks_allow_disjoint_writers() {
        let mut lattice = TypeLattice::new();
        let ty = lattice.define_simple("t", RelFrequencies::UNIFORM).unwrap();
        let mut db = Database::with_lattice(lattice);
        let root = db
            .create_object(ObjectName::new("R", 1, "t"), ty, 10)
            .unwrap();
        let a = db
            .create_object(ObjectName::new("A", 1, "t"), ty, 10)
            .unwrap();
        let b = db
            .create_object(ObjectName::new("B", 1, "t"), ty, 10)
            .unwrap();
        db.relate(RelKind::Configuration, root, a).unwrap();
        db.relate(RelKind::Configuration, root, b).unwrap();
        let mut lm = LockManager::new();
        assert!(lm.try_acquire_all(t(1), &lockset(&db, a, Exclusive)));
        // Disjoint subtree: IX + IX on the root are compatible.
        assert!(lm.try_acquire_all(t(2), &lockset(&db, b, Exclusive)));
        // But a whole-configuration reader must wait for both.
        assert!(!lm.try_acquire_all(t(3), &lockset(&db, root, Shared)));
        lm.release_all(t(1));
        assert!(!lm.try_acquire_all(t(3), &lockset(&db, root, Shared)));
        lm.release_all(t(2));
        assert!(lm.try_acquire_all(t(3), &lockset(&db, root, Shared)));
    }
}
