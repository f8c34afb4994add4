//! The catalog's per-object column: dense, indexed by object id, grown
//! one fixed-size chunk at a time.
//!
//! The database grows while it is measured — write transactions create
//! components and derive versions — and a `Vec` that outgrows its
//! capacity copies every record into a block twice the size, then frees
//! the old one into the allocator, where it stays resident. A [`Column`]
//! instead appends a new chunk of [`CHUNK`] records when the last one is
//! full, so a stored record never moves and memory follows the objects,
//! not the last doubling (DESIGN.md §14.1). Only the first chunk starts
//! small and doubles like a `Vec` up to a full chunk, so a small database
//! does not pay for one.
//!
//! Record `i` is `chunks[i >> CHUNK_BITS][i & MASK]`: one shift and one
//! mask through a table of a few hundred entries at paper scale.

use std::fmt;
use std::ops::{Index, IndexMut};

/// log₂ of the records per chunk.
const CHUNK_BITS: u32 = 12;

/// Records per chunk.
pub(crate) const CHUNK: usize = 1 << CHUNK_BITS;

const MASK: usize = CHUNK - 1;

/// Smallest capacity the first chunk grows to.
const FIRST_MIN: usize = 4;

/// A growable array whose records stay where they were stored.
pub(crate) struct Column<T> {
    /// Records `0..len` fill these in order, [`CHUNK`] to a chunk; chunks
    /// after the one holding record `len - 1` are reserved and empty.
    chunks: Vec<Vec<T>>,
    len: usize,
}

impl<T> Column<T> {
    /// Number of records.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Record `i`, if there is one.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            return None;
        }
        // SAFETY: records `0..len` fill the chunks in order, `CHUNK` to a
        // chunk, so for `i < len` chunk `i >> CHUNK_BITS` exists and holds
        // more than `i & MASK` records.
        Some(unsafe {
            self.chunks
                .get_unchecked(i >> CHUNK_BITS)
                .get_unchecked(i & MASK)
        })
    }

    /// Record `i` for writing, if there is one.
    #[inline]
    pub(crate) fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        if i >= self.len {
            return None;
        }
        // SAFETY: as in `get`.
        Some(unsafe {
            self.chunks
                .get_unchecked_mut(i >> CHUNK_BITS)
                .get_unchecked_mut(i & MASK)
        })
    }

    /// Append `value` as record `len`.
    #[inline]
    pub(crate) fn push(&mut self, value: T) {
        match self.chunks.get_mut(self.len >> CHUNK_BITS) {
            Some(chunk) if chunk.len() < chunk.capacity() => chunk.push(value),
            _ => self.push_to_new_room(value),
        }
        self.len += 1;
    }

    /// `push` when the record's chunk is missing or out of room: a new
    /// chunk, or the first one doubling.
    #[cold]
    #[inline(never)]
    fn push_to_new_room(&mut self, value: T) {
        let c = self.len >> CHUNK_BITS;
        if c == self.chunks.len() {
            self.chunks
                .push(Vec::with_capacity(if c == 0 { 0 } else { CHUNK }));
        }
        let chunk = &mut self.chunks[c];
        if chunk.len() == chunk.capacity() {
            let more = chunk.capacity().max(FIRST_MIN).min(CHUNK - chunk.len());
            chunk.reserve_exact(more);
        }
        chunk.push(value);
    }

    /// Append records made by `fill` until there are `len` of them.
    pub(crate) fn extend_to(&mut self, len: usize, mut fill: impl FnMut() -> T) {
        while self.len < len {
            self.push(fill());
        }
    }

    /// Room for `n` more records, so the next `n` pushes move none: the
    /// first chunk alone while everything fits in it, else whole chunks.
    pub(crate) fn reserve(&mut self, n: usize) {
        let total = self.len + n;
        if self.chunks.is_empty() {
            self.chunks.push(Vec::new());
        }
        let first = &mut self.chunks[0];
        first.reserve_exact(total.min(CHUNK) - first.len());
        if total > CHUNK && self.chunks.len() < total.div_ceil(CHUNK) {
            self.chunks
                .resize_with(total.div_ceil(CHUNK), || Vec::with_capacity(CHUNK));
        }
    }

    /// Every record in index order, chunk by chunk.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.chunks.iter().flatten()
    }
}

impl<T> Default for Column<T> {
    fn default() -> Self {
        Column {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

/// A clone keeps every chunk's capacity, so it grows without moving too.
impl<T: Clone> Clone for Column<T> {
    fn clone(&self) -> Self {
        let chunks = self
            .chunks
            .iter()
            .map(|chunk| {
                let mut copy = Vec::with_capacity(chunk.capacity());
                copy.extend_from_slice(chunk);
                copy
            })
            .collect();
        Column {
            chunks,
            len: self.len,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Column<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T> Index<usize> for Column<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        let len = self.len;
        self.get(i)
            .unwrap_or_else(|| panic!("record {i} of a column of {len}"))
    }
}

impl<T> IndexMut<usize> for Column<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        let len = self.len;
        self.get_mut(i)
            .unwrap_or_else(|| panic!("record {i} of a column of {len}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every observable of `col` equals `model`'s.
    fn assert_matches(col: &Column<u64>, model: &[u64]) {
        assert_eq!(col.len(), model.len());
        assert!(col.iter().eq(model.iter()), "iteration order");
        for (i, v) in model.iter().enumerate() {
            assert_eq!(col[i], *v);
            assert_eq!(col.get(i), Some(v));
        }
        assert_eq!(col.get(model.len()), None);
        assert_eq!(col.get(usize::MAX), None);
    }

    proptest! {
        /// The column against `Vec`: pushes up to four chunks long, an
        /// optional reservation first, writes through both index paths,
        /// and a clone that keeps growing apart from its source.
        #[test]
        fn column_behaves_like_a_vec(
            reserve in 0usize..3 * CHUNK,
            len in 0usize..4 * CHUNK + 3,
            writes in proptest::collection::vec((0usize..4 * CHUNK + 3, any::<u64>()), 0..64),
            more in 0usize..CHUNK + 2,
        ) {
            let (mut col, mut model) = (Column::default(), Vec::new());
            col.reserve(reserve);
            for i in 0..len as u64 {
                col.push(i * 3 + 1);
                model.push(i * 3 + 1);
            }
            for (k, &(at, v)) in writes.iter().enumerate() {
                if at < len {
                    if k % 2 == 0 {
                        col[at] = v;
                    } else {
                        *col.get_mut(at).unwrap() = v;
                    }
                    model[at] = v;
                } else {
                    prop_assert!(col.get_mut(at).is_none());
                }
            }
            assert_matches(&col, &model);
            let (mut copy, mut copy_model) = (col.clone(), model.clone());
            for v in 0..more as u64 {
                copy.push(v);
                copy_model.push(v);
            }
            assert_matches(&copy, &copy_model);
            assert_matches(&col, &model);
        }
    }

    /// Records keep their address across every later push, a reservation
    /// past the first chunk included, and so do a clone's; the first
    /// chunk grows like a `Vec` until it is full.
    #[test]
    fn stored_records_never_move() {
        let mut col = Column::default();
        col.push(0u32);
        assert!(col.chunks[0].capacity() < CHUNK, "a small column is small");
        col.reserve(CHUNK);
        let first: *const u32 = &col[0];
        for i in 1..5 * CHUNK as u32 + 10 {
            col.push(i);
        }
        assert_eq!(&col[0] as *const u32, first);
        let mut copy = col.clone();
        let (at, tail) = (5 * CHUNK + 9, 5 * CHUNK + 3);
        let copied: *const u32 = &copy[tail];
        for i in 0..3 * CHUNK as u32 {
            copy.push(i);
        }
        assert_eq!(&copy[tail] as *const u32, copied);
        assert_eq!(copy[at], at as u32);
        assert!(copy.chunks.iter().all(|c| c.capacity() == CHUNK));
    }

    #[test]
    #[should_panic(expected = "record 7 of a column of 7")]
    fn indexing_past_the_end_panics() {
        let mut col = Column::default();
        col.extend_to(7, || 1u8);
        let _ = col[7];
    }
}
