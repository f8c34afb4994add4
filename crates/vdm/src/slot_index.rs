//! A round-scoped index from `u32` keys to slots of a caller's list.
//!
//! The clustering manager folds arc weights per related object and per
//! candidate page, one placement at a time: a round touches a few
//! hundred keys out of a database of up to ≈1.6 M objects. A
//! [`SlotIndex`] remembers, for the keys of the current round only,
//! where each key's entry sits in the caller's output list, so the
//! caller folds in first-touch order into that list and the index never
//! holds more than the round's keys — nothing in it follows the object
//! or page count.
//!
//! It is open addressing over one interleaved `{key, slot, epoch}` entry
//! array: fixed multiplicative (Fibonacci) hashing, linear probing, load
//! at most ½. An entry belongs to the current round when its epoch is
//! the index's, so [`SlotIndex::clear`] is one epoch bump; the array is
//! wiped only when the epoch wraps, once every 2³² rounds.
//!
//! There is no removal and no iteration. Bucket order depends on the
//! table size and the keys' hashes, and nothing can read it: a caller's
//! fold order is its own call order, so an `f64` sum built through the
//! index is the same bits whatever the table looks like.

/// Fibonacci hashing's multiplier: 2³² divided by the golden ratio.
const FIB: u32 = 0x9E37_79B9;

/// Fewest entries a table has, so probing never meets an empty array.
const MIN_ENTRIES: usize = 8;

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    key: u32,
    slot: u32,
    /// The round the entry was written in; 0 is never a live round.
    epoch: u32,
}

/// Maps `u32` keys to `u32` slots for one round at a time (module docs).
#[derive(Debug, Clone)]
pub struct SlotIndex {
    /// A power-of-two table, at least twice the round's keys.
    entries: Vec<Entry>,
    /// `32 - log₂(entries.len())`: a hash's top bits are its bucket.
    shift: u32,
    /// Keys written in the current round.
    len: usize,
    epoch: u32,
}

impl SlotIndex {
    /// An index that holds `keys` keys in a round without growing.
    pub fn with_capacity(keys: usize) -> Self {
        SlotIndex {
            entries: Vec::new(),
            shift: 32,
            len: 0,
            epoch: 1,
        }
        .sized_for(keys)
    }

    /// Forget every key: the next round starts empty.
    pub fn clear(&mut self) {
        self.len = 0;
        if self.epoch == u32::MAX {
            // A stale entry must never read as the new round's.
            self.entries.fill(Entry::default());
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// The slot recorded for `key` in the current round.
    #[inline]
    pub fn get(&self, key: u32) -> Option<u32> {
        self.find(key).ok().map(|i| self.entries[i].slot)
    }

    /// The slot recorded for `key` in the current round; if there is
    /// none, record `slot` for it and return `None`.
    #[inline]
    pub fn get_or_insert(&mut self, key: u32, slot: u32) -> Option<u32> {
        match self.find(key) {
            Ok(i) => Some(self.entries[i].slot),
            Err(i) => {
                self.write(i, key, slot);
                None
            }
        }
    }

    /// Record `slot` for `key` in the current round, replacing any slot
    /// it had.
    #[inline]
    pub fn insert(&mut self, key: u32, slot: u32) {
        match self.find(key) {
            Ok(i) => self.entries[i].slot = slot,
            Err(i) => self.write(i, key, slot),
        }
    }

    /// `Ok` with the bucket holding `key`, or `Err` with the empty
    /// bucket that ends its probe.
    #[inline]
    fn find(&self, key: u32) -> Result<usize, usize> {
        let mask = self.entries.len() - 1;
        let mut i = (key.wrapping_mul(FIB) >> self.shift) as usize;
        loop {
            let e = &self.entries[i];
            if e.epoch != self.epoch {
                return Err(i);
            }
            if e.key == key {
                return Ok(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Fill the empty bucket `i` with a new key, first doubling the table
    /// if the key would take the load past ½.
    #[inline]
    fn write(&mut self, mut i: usize, key: u32, slot: u32) {
        if 2 * (self.len + 1) > self.entries.len() {
            self.grow();
            i = self.find(key).expect_err("a new key is absent");
        }
        self.entries[i] = Entry {
            key,
            slot,
            epoch: self.epoch,
        };
        self.len += 1;
    }

    /// Double the table, carrying the current round's keys over.
    #[cold]
    fn grow(&mut self) {
        let old = std::mem::take(&mut self.entries);
        let (epoch, len) = (self.epoch, self.len);
        *self = SlotIndex {
            entries: Vec::new(),
            shift: 32,
            len: 0,
            epoch,
        }
        .sized_for(len + 1);
        for e in old.into_iter().filter(|e| e.epoch == epoch) {
            let i = self.find(e.key).expect_err("keys are unique");
            self.entries[i] = e;
        }
        self.len = len;
    }

    /// Allocate an empty table for `keys` keys at load ≤ ½.
    fn sized_for(mut self, keys: usize) -> Self {
        let n = (2 * keys).next_power_of_two().max(MIN_ENTRIES);
        self.entries = vec![Entry::default(); n];
        self.shift = 32 - n.trailing_zeros();
        self
    }

    /// Entries in the table (twice the keys it holds without growing).
    #[cfg(test)]
    fn table_len(&self) -> usize {
        self.entries.len()
    }

    /// An index whose current round is `epoch`, to reach the wrap.
    #[cfg(test)]
    fn at_epoch(keys: usize, epoch: u32) -> Self {
        let mut s = SlotIndex::with_capacity(keys);
        s.epoch = epoch;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        GetOrInsert(u32, u32),
        Insert(u32, u32),
        Get(u32),
        Clear,
    }

    /// Apply `ops` to the index and to a `BTreeMap` model side by side.
    fn check(index: &mut SlotIndex, ops: &[Op]) {
        let mut model = BTreeMap::new();
        for &op in ops {
            match op {
                Op::GetOrInsert(k, s) => {
                    let want = model.get(&k).copied();
                    model.entry(k).or_insert(s);
                    assert_eq!(index.get_or_insert(k, s), want, "get_or_insert({k})");
                }
                Op::Insert(k, s) => {
                    model.insert(k, s);
                    index.insert(k, s);
                }
                Op::Get(k) => assert_eq!(index.get(k), model.get(&k).copied(), "get({k})"),
                Op::Clear => {
                    model.clear();
                    index.clear();
                }
            }
            assert_eq!(index.len, model.len());
        }
        for (&k, &s) in &model {
            assert_eq!(index.get(k), Some(s), "key {k} lost");
        }
    }

    fn ops(keys: impl Strategy<Value = u32> + Clone + 'static) -> impl Strategy<Value = Vec<Op>> {
        let op = prop_oneof![
            (keys.clone(), any::<u32>()).prop_map(|(k, s)| Op::GetOrInsert(k, s)),
            (keys.clone(), any::<u32>()).prop_map(|(k, s)| Op::GetOrInsert(k, s)),
            (keys.clone(), any::<u32>()).prop_map(|(k, s)| Op::Insert(k, s)),
            keys.prop_map(Op::Get),
            (0u32..8).prop_map(|n| if n == 0 { Op::Clear } else { Op::Get(n) }),
        ];
        proptest::collection::vec(op, 0..400)
    }

    proptest! {
        /// Dense keys: a few hundred ids from a small range, so rounds
        /// repeat keys and probe chains collide.
        #[test]
        fn matches_model_on_dense_keys(ops in ops(0u32..300), keys in 0usize..64) {
            check(&mut SlotIndex::with_capacity(keys), &ops);
        }

        /// Sparse keys across the whole id range up to `u32::MAX - 1`.
        #[test]
        fn matches_model_on_sparse_keys(ops in ops(0u32..u32::MAX), keys in 0usize..64) {
            check(&mut SlotIndex::with_capacity(keys), &ops);
        }

        /// One round that outgrows its table at least three times keeps
        /// every key, then empties on `clear` at any epoch, the wrap
        /// included.
        #[test]
        fn grows_within_one_round(
            n in 33usize..600,
            stride in prop_oneof![Just(1u32), 2u32..100_000],
            epoch in prop_oneof![Just(u32::MAX), Just(u32::MAX - 1), 1u32..u32::MAX],
        ) {
            let mut index = SlotIndex::at_epoch(4, epoch);
            let start = index.table_len();
            let ops: Vec<Op> = (0..n as u32)
                .map(|i| Op::GetOrInsert(i.wrapping_mul(stride), i))
                .chain((0..n as u32).map(|i| Op::Get(i.wrapping_mul(stride))))
                .collect();
            check(&mut index, &ops);
            prop_assert!(index.table_len() >= 8 * start, "fewer than three growths");
            check(&mut index, &[Op::Clear, Op::Get(0), Op::GetOrInsert(0, 7), Op::Get(0)]);
        }
    }

    #[test]
    fn epoch_wrap_clears_stamps() {
        let mut index = SlotIndex::at_epoch(4, u32::MAX);
        assert_eq!(index.get_or_insert(0, 1), None);
        index.clear();
        assert_eq!(index.epoch, 1);
        assert!(
            index.entries.iter().all(|e| e.epoch == 0),
            "the wrap wipes every entry"
        );
        assert_eq!(index.get(0), None);
        assert_eq!(index.get_or_insert(0, 3), None);
        assert_eq!(index.get(0), Some(3));
    }

    /// A pre-sized index takes half its table in keys, round after round,
    /// without touching the allocator.
    #[test]
    fn presized_index_keeps_its_allocation() {
        let mut index = SlotIndex::with_capacity(1000);
        let (table, ptr) = (index.table_len(), index.entries.as_ptr());
        for round in 0..50u32 {
            index.clear();
            for k in 0..(table / 2) as u32 {
                let key = k.wrapping_mul(2_654_435_761).wrapping_add(round);
                assert_eq!(index.get_or_insert(key, k), None);
            }
            assert_eq!(index.len, table / 2);
        }
        assert_eq!((index.table_len(), index.entries.as_ptr()), (table, ptr));
    }
}
