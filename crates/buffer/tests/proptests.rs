//! Property-based tests for the buffer manager.

use proptest::prelude::*;
use semcluster_buffer::{Access, BufferPool, BufferStats, ReplacementPolicy};
use semcluster_storage::PageId;
use std::collections::HashSet;

fn policies() -> impl Strategy<Value = ReplacementPolicy> {
    prop_oneof![
        Just(ReplacementPolicy::Lru),
        Just(ReplacementPolicy::Random),
        Just(ReplacementPolicy::ContextSensitive),
    ]
}

/// The keyed policies as a naive scan: frames in admission order with
/// swap-remove eviction, the victim found by looking at every frame.
struct ScanModel {
    capacity: usize,
    context_sensitive: bool,
    /// `(page, key, dirty, pins)`, in the pool's slot order.
    frames: Vec<(PageId, u64, bool, u32)>,
    tick: u64,
    stats: BufferStats,
}

impl ScanModel {
    fn find(&mut self, page: PageId) -> Option<&mut (PageId, u64, bool, u32)> {
        self.frames.iter_mut().find(|f| f.0 == page)
    }

    fn boost_amount(&self) -> u64 {
        if self.context_sensitive {
            (self.capacity as u64 / 2).max(1)
        } else {
            0
        }
    }

    /// Whether admitting a non-resident page would find no victim.
    fn stuck(&self) -> bool {
        self.frames.len() == self.capacity && self.frames.iter().all(|f| f.3 > 0)
    }

    fn admit(&mut self, page: PageId, key: u64) -> Option<PageId> {
        let mut write_back = None;
        if self.frames.len() == self.capacity {
            let slot = (0..self.frames.len())
                .filter(|&s| self.frames[s].3 == 0)
                .min_by_key(|&s| (self.frames[s].1, self.frames[s].0))
                .expect("caller checked `stuck`");
            let (victim, _, dirty, _) = self.frames.swap_remove(slot);
            self.stats.evictions += 1;
            if dirty {
                self.stats.dirty_evictions += 1;
                write_back = Some(victim);
            }
        }
        self.frames.push((page, key, false, 0));
        write_back
    }

    fn access(&mut self, page: PageId) -> Access {
        self.tick += 1;
        self.stats.requests += 1;
        let (tick, cs) = (self.tick, self.context_sensitive);
        if let Some(f) = self.find(page) {
            f.1 = if cs { f.1.max(tick) } else { tick };
            self.stats.hits += 1;
            Access::Hit
        } else {
            self.stats.misses += 1;
            Access::Miss {
                evicted_dirty: self.admit(page, tick),
            }
        }
    }

    fn boost(&mut self, page: PageId) {
        let raised = self.tick + self.boost_amount();
        if !self.context_sensitive {
            return;
        }
        if let Some(f) = self.find(page) {
            f.1 = f.1.max(raised);
            self.stats.boosts += 1;
        }
    }

    fn refresh(&mut self, page: PageId) {
        if self.context_sensitive {
            return self.boost(page);
        }
        let tick = self.tick;
        if let Some(f) = self.find(page) {
            f.1 = tick;
            self.stats.boosts += 1;
        }
    }

    fn prefetch(&mut self, page: PageId) -> Option<PageId> {
        if self.find(page).is_some() {
            self.boost(page);
            return None;
        }
        self.tick += 1;
        self.stats.prefetch_reads += 1;
        self.admit(page, self.tick + self.boost_amount())
    }

    fn install(&mut self, page: PageId) -> Option<PageId> {
        if self.find(page).is_some() {
            return None;
        }
        self.tick += 1;
        self.admit(page, self.tick + self.boost_amount())
    }
}

proptest! {
    /// Victim identity: under LRU and context-sensitive replacement the
    /// pool and a naive min-`(key, page)` scan, driven by one stream of
    /// every operation that moves a key, a dirty bit or a pin, agree on
    /// every result, write-back, the resident order and the counters
    /// after every step. Page ranges are small so equal keys and ties on
    /// `PageId` are common.
    #[test]
    fn pool_evicts_exactly_what_a_scan_would(
        context_sensitive in any::<bool>(),
        capacity in 1usize..10,
        ops in proptest::collection::vec((0u32..24, 0u8..12), 1..600),
    ) {
        let policy = if context_sensitive {
            ReplacementPolicy::ContextSensitive
        } else {
            ReplacementPolicy::Lru
        };
        let mut pool = BufferPool::new(capacity, policy, 0);
        let mut model = ScanModel {
            capacity,
            context_sensitive,
            frames: Vec::new(),
            tick: 0,
            stats: BufferStats::default(),
        };
        for &(raw, op) in &ops {
            let page = PageId(raw);
            let admits = op < 6 && !pool.contains(page);
            if admits && model.stuck() {
                continue; // every frame pinned: the pool would panic
            }
            match op {
                0..=3 => prop_assert_eq!(pool.access(page), model.access(page)),
                4 => prop_assert_eq!(pool.prefetch(page), model.prefetch(page)),
                5 => prop_assert_eq!(pool.install(page), model.install(page)),
                6 => {
                    pool.boost(page);
                    model.boost(page);
                }
                7 => {
                    pool.refresh(page);
                    model.refresh(page);
                }
                8 => {
                    pool.mark_dirty(page);
                    if let Some(f) = model.find(page) {
                        f.2 = true;
                    }
                }
                9 | 10 => {
                    let pinned = pool.pin(page);
                    let frame = model.find(page);
                    prop_assert_eq!(pinned, frame.is_some());
                    if let Some(f) = frame {
                        f.3 += 1;
                    }
                }
                _ => {
                    if let Some(f) = model.find(page).filter(|f| f.3 > 0) {
                        f.3 -= 1;
                        pool.unpin(page);
                    }
                }
            }
            let resident: Vec<PageId> = model.frames.iter().map(|f| f.0).collect();
            prop_assert_eq!(pool.resident_pages(), &resident[..]);
            prop_assert_eq!(pool.stats(), model.stats);
            let dirty: Vec<PageId> =
                model.frames.iter().filter(|f| f.2).map(|f| f.0).collect();
            prop_assert_eq!(pool.dirty_pages(), dirty);
        }
    }

    /// Under any policy and access stream: capacity is never exceeded,
    /// counters are conserved, and a hit is reported iff the page was
    /// resident (checked against a reference set).
    #[test]
    fn pool_matches_reference_model(
        policy in policies(),
        capacity in 1usize..40,
        accesses in proptest::collection::vec(0u32..120, 1..500),
        seed in any::<u64>(),
    ) {
        let mut pool = BufferPool::new(capacity, policy, seed);
        let mut resident: HashSet<PageId> = HashSet::new();
        for &raw in &accesses {
            let page = PageId(raw);
            let was_resident = resident.contains(&page);
            match pool.access(page) {
                Access::Hit => prop_assert!(was_resident),
                Access::Miss { .. } => prop_assert!(!was_resident),
            }
            // The pool's own view is authoritative; keep ours in sync.
            resident = pool.resident_pages().iter().copied().collect();
            prop_assert!(pool.len() <= capacity);
            prop_assert!(resident.contains(&page), "just-accessed page resident");
        }
        let s = pool.stats();
        prop_assert_eq!(s.requests, accesses.len() as u64);
        prop_assert_eq!(s.hits + s.misses, s.requests);
        prop_assert_eq!(
            s.misses,
            s.evictions + pool.len() as u64,
            "every miss either grew the pool or evicted"
        );
    }

    /// Dirty write-backs are only ever reported for pages that were
    /// marked dirty, and a page re-admitted after eviction is clean.
    #[test]
    fn dirty_tracking_is_sound(
        policy in policies(),
        ops in proptest::collection::vec((0u32..30, any::<bool>()), 1..300),
        seed in any::<u64>(),
    ) {
        let mut pool = BufferPool::new(4, policy, seed);
        let mut dirty: HashSet<PageId> = HashSet::new();
        for &(raw, make_dirty) in &ops {
            let page = PageId(raw);
            match pool.access(page) {
                Access::Miss { evicted_dirty: Some(victim) } => {
                    prop_assert!(dirty.remove(&victim), "write-back of clean page {victim}");
                }
                Access::Miss { evicted_dirty: None } | Access::Hit => {}
            }
            // Evicted-clean pages leave the dirty set untouched; drop any
            // pages no longer resident.
            dirty.retain(|p| pool.contains(*p));
            if make_dirty {
                pool.mark_dirty(page);
                dirty.insert(page);
            }
            prop_assert_eq!(pool.is_dirty(page), dirty.contains(&page));
        }
        let mut listed = pool.dirty_pages();
        listed.sort();
        let mut expected: Vec<PageId> = dirty.into_iter().collect();
        expected.sort();
        prop_assert_eq!(listed, expected);
    }

    /// Boost/refresh/prefetch never change residency counts incorrectly
    /// and never exceed capacity.
    #[test]
    fn boost_refresh_preserve_residency(
        policy in policies(),
        ops in proptest::collection::vec((0u32..40, 0u8..4), 1..300),
        seed in any::<u64>(),
    ) {
        let mut pool = BufferPool::new(8, policy, seed);
        for &(raw, op) in &ops {
            let page = PageId(raw);
            let len_before = pool.len();
            match op {
                0 => {
                    pool.access(page);
                }
                1 => {
                    let resident = pool.contains(page);
                    pool.boost(page);
                    prop_assert_eq!(pool.contains(page), resident, "boost changed residency");
                    prop_assert_eq!(pool.len(), len_before);
                }
                2 => {
                    let resident = pool.contains(page);
                    pool.refresh(page);
                    prop_assert_eq!(pool.contains(page), resident, "refresh changed residency");
                    prop_assert_eq!(pool.len(), len_before);
                }
                _ => {
                    pool.prefetch(page);
                    prop_assert!(pool.contains(page), "prefetch admits");
                }
            }
            prop_assert!(pool.len() <= 8);
        }
    }
}
