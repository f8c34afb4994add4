//! The buffer pool.
//!
//! A fixed number of page frames with pluggable replacement. All three
//! policies share one 64-bit *retention key* per frame:
//!
//! * **LRU** — key is the logical access tick; the oldest key is evicted.
//! * **Context-sensitive** — key is a priority: the access tick plus
//!   relationship boosts ([`BufferPool::boost`]); the lowest priority is
//!   evicted. Pages related to recently touched objects therefore survive
//!   even when their own last access is old — precisely the behaviour the
//!   paper wants ("the traditional LRU algorithm could easily choose these
//!   pages to be replaced").
//! * **Random** — a uniformly random resident page is evicted.
//!
//! ## Data-oriented layout (DESIGN.md §14)
//!
//! The pool is three dense arrays: `resident` (slot → page), `frames`
//! (slot → retention key / dirty / pins, parallel to `resident`) and
//! `page_slot` (page index → slot, `FREE_SLOT` when non-resident). Lookup
//! is one array index and touch is one store. Nothing here allocates
//! after [`BufferPool::new`].
//!
//! ## Victim choice: a lazy min-heap
//!
//! The victim under LRU and context-sensitive replacement is the minimum
//! `(key, page)` over unpinned frames. It is found through `victims`, a
//! binary min-heap holding exactly one `(recorded_key, page)` entry per
//! resident page. The heap is *lazy*: a hit never touches it. That is
//! sound because a frame's key only grows while the page is resident
//! (`touch` stores the tick or `max(key, tick)`, `boost` stores only a
//! larger key), so every recorded key is a **lower bound** on the
//! frame's current key. Only two places do heap work:
//!
//! * `admit` pushes the new page's entry (and eviction pops the
//!   victim's);
//! * `pick_victim_slot` repairs the top entry until it is trustworthy:
//!   a pinned frame's entry is set aside and re-inserted after the
//!   search, a stale entry is overwritten with the frame's current key
//!   and sifted down, and a current one is the answer.
//!
//! Victim choice is *provably identical* to a full scan: when the top
//! entry `(k, p)` is current, every other entry `(k', p')` has
//! `(k, p) ≤ (k', p')` by the heap order and `k' ≤ key(p')` by the
//! lower-bound invariant, so `(k, p)` is the minimum `(key, page)` over
//! every frame still in the heap — the unpinned ones — ties on `PageId`
//! included. Each repair is paid for by at least one touch or boost
//! since the entry was written, so a miss costs O(log capacity)
//! amortised where the scan cost O(capacity). The scan itself survives
//! only as the `#[cfg(test)]` reference the tests compare against.

use crate::policy::ReplacementPolicy;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use semcluster_storage::PageId;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// `page_slot` sentinel: the page is not resident.
const FREE_SLOT: u32 = u32::MAX;

/// Result of requesting a page through the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The page was resident; no physical I/O.
    Hit,
    /// The page was faulted in. `evicted_dirty` names a dirty page that
    /// had to be written back to make room (one extra physical write).
    Miss {
        /// Dirty page written back during eviction, if any.
        evicted_dirty: Option<PageId>,
    },
}

/// Counters the experiments report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Logical page requests.
    pub requests: u64,
    /// Requests satisfied without I/O.
    pub hits: u64,
    /// Requests that faulted.
    pub misses: u64,
    /// Pages evicted.
    pub evictions: u64,
    /// Evictions that required a write-back.
    pub dirty_evictions: u64,
    /// Pages brought in by prefetching.
    pub prefetch_reads: u64,
    /// Priority boosts applied.
    pub boosts: u64,
}

impl BufferStats {
    /// Hit ratio over all requests (0 when idle).
    pub fn hit_ratio(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    key: u64,
    dirty: bool,
    pins: u32,
}

/// A fixed-capacity page buffer with pluggable replacement.
#[derive(Debug, Clone)]
pub struct BufferPool {
    capacity: usize,
    policy: ReplacementPolicy,
    /// Slot → frame state, parallel to `resident`.
    frames: Vec<Frame>,
    /// Slot → resident page, maintained by swap-remove on eviction.
    resident: Vec<PageId>,
    /// Page index → slot (`FREE_SLOT` when non-resident). Grown by
    /// [`BufferPool::ensure_page_capacity`] (callers should pre-grow
    /// outside hot loops) or on demand when an unseen page id arrives.
    page_slot: Vec<u32>,
    /// Lazy min-heap of `(recorded_key, page)`, one entry per resident
    /// page, `recorded_key ≤ frames[slot].key` (module docs). Empty under
    /// `Random`.
    victims: BinaryHeap<Reverse<(u64, PageId)>>,
    /// Entries of pinned frames taken off `victims` during one victim
    /// search; always empty between searches.
    pinned_aside: Vec<Reverse<(u64, PageId)>>,
    /// Heap entries examined by every victim search so far.
    #[cfg(test)]
    examined: u64,
    tick: u64,
    boost_amount: u64,
    rng: SmallRng,
    stats: BufferStats,
}

impl BufferPool {
    /// Create a pool of `capacity` frames. `seed` drives the Random
    /// policy's victim choice (ignored by the other policies).
    pub fn new(capacity: usize, policy: ReplacementPolicy, seed: u64) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let indexed = if policy == ReplacementPolicy::Random {
            0
        } else {
            capacity
        };
        BufferPool {
            capacity,
            policy,
            frames: Vec::with_capacity(capacity),
            resident: Vec::with_capacity(capacity),
            page_slot: Vec::new(),
            victims: BinaryHeap::with_capacity(indexed),
            pinned_aside: Vec::with_capacity(indexed),
            #[cfg(test)]
            examined: 0,
            tick: 0,
            // Default boost: half the pool's worth of ticks. Related pages
            // outlive roughly capacity/2 unrelated faults.
            boost_amount: (capacity as u64 / 2).max(1),
            rng: SmallRng::seed_from_u64(seed),
            stats: BufferStats::default(),
        }
    }

    /// Grow the page → slot index to cover `pages` page ids. Call from
    /// outside hot loops whenever the database may have grown; admitting
    /// an uncovered page id still works (the index self-grows) but that
    /// growth is then attributed to whatever phase it happens in.
    pub fn ensure_page_capacity(&mut self, pages: usize) {
        if self.page_slot.len() < pages {
            self.page_slot.resize(pages, FREE_SLOT);
        }
    }

    /// Slot of `page`, or `None` when non-resident.
    #[inline]
    fn slot_of(&self, page: PageId) -> Option<usize> {
        match self.page_slot.get(page.index()) {
            Some(&s) if s != FREE_SLOT => Some(s as usize),
            _ => None,
        }
    }

    /// Override the context-sensitive boost magnitude (in access ticks).
    pub fn set_boost_amount(&mut self, boost: u64) {
        self.boost_amount = boost.max(1);
    }

    /// Pool capacity in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The replacement policy.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Whether `page` is resident.
    pub fn contains(&self, page: PageId) -> bool {
        self.slot_of(page).is_some()
    }

    /// Resident pages, unordered.
    pub fn resident_pages(&self) -> &[PageId] {
        &self.resident
    }

    /// Statistics so far.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Reset statistics (e.g. after warmup) without touching contents.
    pub fn reset_stats(&mut self) {
        self.stats = BufferStats::default();
    }

    /// Request `page` for reading or writing.
    pub fn access(&mut self, page: PageId) -> Access {
        self.tick += 1;
        self.stats.requests += 1;
        if let Some(slot) = self.slot_of(page) {
            self.stats.hits += 1;
            self.touch(slot);
            Access::Hit
        } else {
            self.stats.misses += 1;
            let evicted_dirty = self.admit(page, self.tick);
            Access::Miss { evicted_dirty }
        }
    }

    /// Bring `page` in as a prefetch (counted separately; same retention
    /// key as a direct access). Returns a dirty write-back if eviction was
    /// needed, and `None` in that slot when the page was already resident.
    pub fn prefetch(&mut self, page: PageId) -> Option<PageId> {
        if self.contains(page) {
            self.boost(page);
            return None;
        }
        self.tick += 1;
        self.stats.prefetch_reads += 1;
        self.admit(page, self.tick + self.boost_for_policy())
    }

    /// Raise the retention priority of a resident page because it is
    /// related to something just accessed. No-op for non-resident pages
    /// and (by design) for non-context-sensitive policies, where there is
    /// no priority to adjust.
    pub fn boost(&mut self, page: PageId) {
        if self.policy != ReplacementPolicy::ContextSensitive {
            return;
        }
        let Some(slot) = self.slot_of(page) else {
            return;
        };
        self.stats.boosts += 1;
        let new_key = self.tick + self.boost_amount;
        if new_key > self.frames[slot].key {
            self.raise_key(slot, new_key);
        }
    }

    /// Admit a freshly allocated (empty) page without counting a logical
    /// request or a fault — there is nothing on disk to read yet. Returns
    /// a dirty page written back to make room, if eviction was needed.
    /// No-op returning `None` when the page is already resident.
    pub fn install(&mut self, page: PageId) -> Option<PageId> {
        if self.contains(page) {
            return None;
        }
        self.tick += 1;
        self.admit(page, self.tick + self.boost_for_policy())
    }

    /// Record that a resident page is expected to be needed soon, without
    /// counting a logical request: context-sensitive pools boost its
    /// priority, LRU pools bump its recency, Random pools ignore it. This
    /// is the mechanism behind *prefetch within buffer*, which "does not
    /// create any extra logical I/Os \[but\] causes the buffer priority to
    /// be adjusted" (§2.2).
    pub fn refresh(&mut self, page: PageId) {
        match self.policy {
            ReplacementPolicy::ContextSensitive => self.boost(page),
            ReplacementPolicy::Lru => {
                if let Some(slot) = self.slot_of(page) {
                    self.stats.boosts += 1;
                    self.touch(slot);
                }
            }
            ReplacementPolicy::Random => {}
        }
    }

    /// Mark a resident page dirty (no-op when not resident — the caller
    /// should have accessed it first).
    pub fn mark_dirty(&mut self, page: PageId) {
        if let Some(slot) = self.slot_of(page) {
            self.frames[slot].dirty = true;
        }
    }

    /// Whether a resident page is dirty.
    pub fn is_dirty(&self, page: PageId) -> bool {
        self.slot_of(page)
            .map(|s| self.frames[s].dirty)
            .unwrap_or(false)
    }

    /// Pin a resident page: pinned pages are never chosen as eviction
    /// victims. Returns `false` when the page is not resident. Pins
    /// nest; match every pin with an [`BufferPool::unpin`].
    pub fn pin(&mut self, page: PageId) -> bool {
        match self.slot_of(page) {
            Some(slot) => {
                self.frames[slot].pins += 1;
                true
            }
            None => false,
        }
    }

    /// Release one pin.
    ///
    /// # Panics
    /// Panics when the page is not resident or not pinned — an unmatched
    /// unpin is always a caller bug.
    pub fn unpin(&mut self, page: PageId) {
        let slot = self.slot_of(page).expect("unpin of a non-resident page");
        let f = &mut self.frames[slot];
        assert!(f.pins > 0, "unpin without a matching pin");
        f.pins -= 1;
    }

    /// Current pin count of a page (0 when not resident).
    pub fn pin_count(&self, page: PageId) -> u32 {
        self.slot_of(page).map(|s| self.frames[s].pins).unwrap_or(0)
    }

    /// All dirty resident pages (for shutdown flushes).
    pub fn dirty_pages(&self) -> Vec<PageId> {
        self.resident
            .iter()
            .enumerate()
            .filter(|&(s, _)| self.frames[s].dirty)
            .map(|(_, &p)| p)
            .collect()
    }

    fn boost_for_policy(&self) -> u64 {
        if self.policy == ReplacementPolicy::ContextSensitive {
            self.boost_amount
        } else {
            0
        }
    }

    fn touch(&mut self, slot: usize) {
        let new_key = match self.policy {
            // Recency update; context-sensitive keeps the larger of the
            // boosted key and the recency key.
            ReplacementPolicy::ContextSensitive => self.frames[slot].key.max(self.tick),
            _ => self.tick,
        };
        self.raise_key(slot, new_key);
    }

    /// The one store that changes a resident frame's key. A key may only
    /// grow during a residency: `victims` holds lower bounds of it.
    #[inline]
    fn raise_key(&mut self, slot: usize, new_key: u64) {
        let frame = &mut self.frames[slot];
        debug_assert!(
            new_key >= frame.key,
            "retention key lowered from {} to {new_key}: the victim heap would miss it",
            frame.key
        );
        frame.key = new_key;
    }

    /// Insert a non-resident page, evicting if needed. Returns the dirty
    /// page written back, if eviction hit one.
    fn admit(&mut self, page: PageId, key: u64) -> Option<PageId> {
        debug_assert!(!self.contains(page));
        let mut write_back = None;
        if self.resident.len() == self.capacity {
            let victim_slot = self.pick_victim_slot();
            let victim = self.resident[victim_slot];
            let frame = self.frames[victim_slot];
            self.page_slot[victim.index()] = FREE_SLOT;
            // O(1) removal: the last frame moves into the vacated slot.
            self.resident.swap_remove(victim_slot);
            self.frames.swap_remove(victim_slot);
            if victim_slot < self.resident.len() {
                let moved = self.resident[victim_slot];
                self.page_slot[moved.index()] = victim_slot as u32;
            }
            self.stats.evictions += 1;
            if frame.dirty {
                self.stats.dirty_evictions += 1;
                write_back = Some(victim);
            }
        }
        let slot = self.resident.len();
        self.resident.push(page);
        self.frames.push(Frame {
            key,
            dirty: false,
            pins: 0,
        });
        self.ensure_page_capacity(page.index() + 1);
        self.page_slot[page.index()] = slot as u32;
        if self.policy != ReplacementPolicy::Random {
            self.victims.push(Reverse((key, page)));
        }
        write_back
    }

    /// Pick an unpinned victim slot. Under the keyed policies the victim's
    /// entry leaves `victims`, so the caller must evict the slot.
    ///
    /// # Panics
    /// Panics when every frame is pinned — the pool cannot make progress
    /// and the caller has a pin leak.
    fn pick_victim_slot(&mut self) -> usize {
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::ContextSensitive => {
                // Repair the top of the heap until it can be trusted
                // (module docs): the first current, unpinned top entry is
                // the minimum (key, page) over unpinned frames.
                let mut found = None;
                while let Some(mut top) = self.victims.peek_mut() {
                    #[cfg(test)]
                    {
                        self.examined += 1;
                    }
                    let Reverse((recorded, page)) = *top;
                    let slot = self.page_slot[page.index()] as usize;
                    let frame = &self.frames[slot];
                    if frame.pins != 0 {
                        self.pinned_aside.push(PeekMut::pop(top));
                    } else if frame.key != recorded {
                        debug_assert!(frame.key > recorded);
                        // Dropping `top` sifts the corrected entry down.
                        top.0 .0 = frame.key;
                    } else {
                        PeekMut::pop(top);
                        found = Some(slot);
                        break;
                    }
                }
                self.victims.extend(self.pinned_aside.drain(..));
                found.expect("every frame is pinned")
            }
            ReplacementPolicy::Random => {
                let start = self.rng.gen_range(0..self.resident.len());
                (0..self.resident.len())
                    .map(|off| (start + off) % self.resident.len())
                    .find(|&slot| self.frames[slot].pins == 0)
                    .expect("every frame is pinned")
            }
        }
    }

    /// The victim by definition — minimum `(key, page)` over unpinned
    /// frames, found by scanning every frame. Reference for the tests.
    #[cfg(test)]
    fn scan_victim_slot(&self) -> Option<usize> {
        (0..self.frames.len())
            .filter(|&slot| self.frames[slot].pins == 0)
            .min_by_key(|&slot| (self.frames[slot].key, self.resident[slot]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PageId {
        PageId(i)
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut pool = BufferPool::new(2, ReplacementPolicy::Lru, 0);
        pool.access(p(1));
        pool.access(p(2));
        pool.access(p(1)); // 2 is now LRU
        pool.access(p(3));
        assert!(pool.contains(p(1)));
        assert!(!pool.contains(p(2)));
        assert!(pool.contains(p(3)));
    }

    #[test]
    fn hits_and_misses_counted() {
        let mut pool = BufferPool::new(4, ReplacementPolicy::Lru, 0);
        assert_eq!(
            pool.access(p(1)),
            Access::Miss {
                evicted_dirty: None
            }
        );
        assert_eq!(pool.access(p(1)), Access::Hit);
        let s = pool.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dirty_eviction_reports_write_back() {
        let mut pool = BufferPool::new(1, ReplacementPolicy::Lru, 0);
        pool.access(p(1));
        pool.mark_dirty(p(1));
        assert!(pool.is_dirty(p(1)));
        let acc = pool.access(p(2));
        assert_eq!(
            acc,
            Access::Miss {
                evicted_dirty: Some(p(1))
            }
        );
        assert_eq!(pool.stats().dirty_evictions, 1);
    }

    #[test]
    fn context_sensitive_boost_protects_related_pages() {
        let mut pool = BufferPool::new(3, ReplacementPolicy::ContextSensitive, 0);
        pool.access(p(1)); // the related page, accessed long ago
        pool.access(p(2));
        pool.access(p(3));
        pool.boost(p(1)); // relationship keeps it alive
        pool.access(p(4)); // must evict someone
        assert!(pool.contains(p(1)), "boosted page survived");
        assert!(!pool.contains(p(2)), "oldest unboosted page evicted");
        assert_eq!(pool.stats().boosts, 1);
    }

    #[test]
    fn lru_ignores_boost() {
        let mut pool = BufferPool::new(2, ReplacementPolicy::Lru, 0);
        pool.access(p(1));
        pool.access(p(2));
        pool.boost(p(1));
        pool.access(p(3));
        assert!(!pool.contains(p(1)), "LRU has no priorities to boost");
        assert_eq!(pool.stats().boosts, 0);
    }

    #[test]
    fn random_policy_is_seeded_and_valid() {
        let mut a = BufferPool::new(3, ReplacementPolicy::Random, 7);
        let mut b = BufferPool::new(3, ReplacementPolicy::Random, 7);
        for i in 0..50 {
            let x = a.access(p(i % 10));
            let y = b.access(p(i % 10));
            assert_eq!(x, y, "same seed, same behaviour");
        }
        assert_eq!(a.len(), 3);
        assert_eq!(a.stats().evictions + 3, a.stats().misses);
    }

    #[test]
    fn prefetch_counts_separately_and_boosts_resident() {
        let mut pool = BufferPool::new(4, ReplacementPolicy::ContextSensitive, 0);
        assert_eq!(pool.prefetch(p(9)), None);
        assert!(pool.contains(p(9)));
        assert_eq!(pool.stats().prefetch_reads, 1);
        assert_eq!(pool.stats().misses, 0);
        // Prefetching a resident page just boosts it.
        pool.prefetch(p(9));
        assert_eq!(pool.stats().prefetch_reads, 1);
        assert_eq!(pool.stats().boosts, 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut pool = BufferPool::new(8, ReplacementPolicy::Random, 3);
        for i in 0..100 {
            pool.access(p(i));
            assert!(pool.len() <= 8);
        }
        assert_eq!(pool.len(), 8);
    }

    #[test]
    fn mark_clean_and_dirty_pages_listing() {
        let mut pool = BufferPool::new(4, ReplacementPolicy::Lru, 0);
        pool.access(p(1));
        pool.access(p(2));
        pool.mark_dirty(p(1));
        pool.mark_dirty(p(2));
        assert_eq!(pool.dirty_pages().len(), 2);
    }

    #[test]
    fn context_sensitive_recency_still_matters() {
        // Without any boosts, context-sensitive degenerates to LRU.
        let mut pool = BufferPool::new(2, ReplacementPolicy::ContextSensitive, 0);
        pool.access(p(1));
        pool.access(p(2));
        pool.access(p(1));
        pool.access(p(3));
        assert!(pool.contains(p(1)));
        assert!(!pool.contains(p(2)));
    }
}

#[cfg(test)]
mod pin_tests {
    use super::*;

    fn p(i: u32) -> PageId {
        PageId(i)
    }

    #[test]
    fn pinned_pages_survive_eviction_pressure() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Random,
            ReplacementPolicy::ContextSensitive,
        ] {
            let mut pool = BufferPool::new(3, policy, 1);
            pool.access(p(1));
            assert!(pool.pin(p(1)));
            for i in 2..50 {
                pool.access(p(i));
                assert!(pool.contains(p(1)), "{policy}: pinned page evicted");
            }
            pool.unpin(p(1));
            for i in 50..100 {
                pool.access(p(i));
            }
            assert!(!pool.contains(p(1)), "{policy}: unpinned page kept forever");
        }
    }

    #[test]
    fn pins_nest() {
        let mut pool = BufferPool::new(2, ReplacementPolicy::Lru, 0);
        pool.access(p(1));
        pool.pin(p(1));
        pool.pin(p(1));
        assert_eq!(pool.pin_count(p(1)), 2);
        pool.unpin(p(1));
        pool.access(p(2));
        pool.access(p(3)); // must evict p2, not the still-pinned p1
        assert!(pool.contains(p(1)));
        pool.unpin(p(1));
        assert_eq!(pool.pin_count(p(1)), 0);
    }

    #[test]
    fn pin_of_non_resident_page_fails_softly() {
        let mut pool = BufferPool::new(2, ReplacementPolicy::Lru, 0);
        assert!(!pool.pin(p(9)));
        assert_eq!(pool.pin_count(p(9)), 0);
    }

    #[test]
    #[should_panic(expected = "matching pin")]
    fn unmatched_unpin_panics() {
        let mut pool = BufferPool::new(2, ReplacementPolicy::Lru, 0);
        pool.access(p(1));
        pool.unpin(p(1));
    }

    #[test]
    #[should_panic(expected = "every frame is pinned")]
    fn fully_pinned_pool_panics_on_miss() {
        let mut pool = BufferPool::new(2, ReplacementPolicy::Lru, 0);
        pool.access(p(1));
        pool.access(p(2));
        pool.pin(p(1));
        pool.pin(p(2));
        pool.access(p(3));
    }
}

#[cfg(test)]
mod victim_heap_tests {
    use super::*;

    fn p(i: u32) -> PageId {
        PageId(i)
    }

    /// Every eviction, under a random mix of every operation that moves a
    /// key or a pin, removes the page the full scan names, and the index
    /// never outgrows what `new` allocated.
    #[test]
    fn heap_victim_is_the_scan_victim() {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::ContextSensitive] {
            for seed in 0..40u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let capacity = rng.gen_range(1..24);
                let mut pool = BufferPool::new(capacity, policy, 0);
                pool.set_boost_amount(rng.gen_range(1..6));
                let allocated = (pool.victims.capacity(), pool.pinned_aside.capacity());
                for _ in 0..2_000 {
                    let page = p(rng.gen_range(0..capacity as u32 * 3));
                    let op = rng.gen_range(0..10u32);
                    let evicts = op <= 4 && !pool.contains(page) && pool.len() == capacity;
                    let expected = match pool.scan_victim_slot() {
                        Some(slot) if evicts => Some(pool.resident[slot]),
                        None if evicts => continue, // fully pinned: admitting would panic
                        _ => None,
                    };
                    match op {
                        0..=2 => drop(pool.access(page)),
                        3 => drop(pool.prefetch(page)),
                        4 => drop(pool.install(page)),
                        5 => pool.boost(page),
                        6 => pool.refresh(page),
                        7 => drop(pool.pin(page)),
                        8 if pool.pin_count(page) > 0 => pool.unpin(page),
                        _ => pool.mark_dirty(page),
                    }
                    if let Some(victim) = expected {
                        assert!(!pool.contains(victim), "{policy}: wrong victim");
                        assert_eq!(pool.len(), capacity);
                        assert_eq!(pool.victims.len(), capacity);
                        assert!(pool.pinned_aside.is_empty());
                    }
                }
                assert_eq!(
                    (pool.victims.capacity(), pool.pinned_aside.capacity()),
                    allocated,
                    "the index grew after `new`"
                );
            }
        }
    }

    /// Mean heap entries examined per eviction over `evictions` evictions
    /// of a fixed-seed stream: 90 % of accesses fall on a hot set half the
    /// pool wide (hits once warm), each followed by a relationship boost
    /// of the next hot page; the rest walk a cold range 8× the pool
    /// (misses). A search repairs at most the entries touched since it
    /// last saw them, so the mean follows the hot share of the pool, not
    /// the pool's size.
    fn mean_examined(capacity: usize, evictions: u64) -> f64 {
        let mut pool = BufferPool::new(capacity, ReplacementPolicy::ContextSensitive, 0);
        let mut rng = SmallRng::seed_from_u64(1989);
        let hot = capacity as u32 / 2;
        let cold = capacity as u32 * 8;
        pool.ensure_page_capacity((hot + cold) as usize);
        let mut next_cold = 0;
        while pool.stats().evictions < evictions {
            let page = if rng.gen_range(0..10u32) != 0 {
                p(rng.gen_range(0..hot))
            } else {
                next_cold = (next_cold + 1) % cold;
                p(hot + next_cold)
            };
            let before = pool.examined;
            pool.access(page);
            let search = pool.examined - before;
            assert!(
                search <= capacity as u64,
                "one search examined {search} entries of {capacity}"
            );
            if page.0 < hot {
                pool.boost(p((page.0 + 1) % hot));
            }
        }
        let ratio = pool.stats().hit_ratio();
        assert!((0.85..0.95).contains(&ratio), "hit ratio {ratio}");
        pool.examined as f64 / evictions as f64
    }

    /// The cost of a miss does not grow with the pool: the same small
    /// constant bounds the work per eviction at 1 000 and 32 768 frames.
    #[test]
    fn eviction_cost_is_independent_of_pool_size() {
        for capacity in [1_000, 32_768] {
            let mean = mean_examined(capacity, 200_000);
            assert!(
                mean <= 4.0,
                "{capacity} frames: {mean:.2} heap entries examined per eviction"
            );
        }
    }

    /// Frames pinned during a search are set aside, not lost: unpinned,
    /// they leave in `(key, page)` order.
    #[test]
    fn pinned_frames_stay_indexed_across_a_search() {
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::ContextSensitive] {
            let mut pool = BufferPool::new(4, policy, 0);
            for i in 1..=4 {
                pool.access(p(i));
            }
            // The three oldest are pinned, so the search walks past all
            // of them to evict p4.
            for i in 1..=3 {
                assert!(pool.pin(p(i)));
            }
            pool.access(p(5));
            assert_eq!(pool.examined, 4);
            assert!(!pool.contains(p(4)));
            assert_eq!(pool.victims.len(), 4);
            assert!(pool.pinned_aside.is_empty());
            for i in 1..=3 {
                pool.unpin(p(i));
            }
            for (fresh, victim) in [(6, 1), (7, 2), (8, 3), (9, 5)] {
                pool.access(p(fresh));
                assert!(
                    !pool.contains(p(victim)),
                    "{policy}: p{victim} out of order"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "retention key lowered")]
    #[cfg(debug_assertions)]
    fn lowering_a_key_fails_loudly() {
        let mut pool = BufferPool::new(2, ReplacementPolicy::ContextSensitive, 0);
        pool.access(p(1));
        pool.raise_key(0, 0);
    }

    #[test]
    fn random_policy_builds_no_index() {
        let mut pool = BufferPool::new(3, ReplacementPolicy::Random, 7);
        for i in 0..20 {
            pool.access(p(i));
        }
        assert!(pool.victims.is_empty());
        assert_eq!(pool.victims.capacity(), 0);
    }
}
