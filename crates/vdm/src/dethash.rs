//! Deterministic hashing for simulation state.
//!
//! `std::collections::HashMap`'s default `RandomState` draws its seed
//! lazily per thread. The *contents* of a map never depend on the seed,
//! but its **allocation pattern** does: hashbrown decides between
//! growing the table and rehashing in place by looking at how deleted
//! slots are distributed, which is a function of the hash values. Two
//! identical runs on different threads can therefore resize the same
//! map at different points — invisible to ordinary code, but fatal to
//! the phase profiler's allocation accounting (DESIGN.md §13), which
//! pins per-phase `alloc_bytes` in golden files and requires them to be
//! byte-identical at any worker-thread count.
//!
//! Simulation-state maps that live inside profiled phases (the WAL's
//! open-transaction map) therefore use
//! [`DetHashMap`]/[`DetHashSet`]: plain hashbrown maps under a
//! fixed-seed FNV-1a hasher. The keys are small dense IDs ([`ObjectId`],
//! `PageId`, transaction numbers), for which FNV-1a distributes well and
//! hashes faster than SipHash; HashDoS resistance is irrelevant — every
//! key is generated by the simulator itself.
//!
//! [`ObjectId`]: crate::ObjectId

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fixed-seed FNV-1a hasher: the same key hashes to the same slot in
/// every process, on every thread, forever.
#[derive(Debug, Clone)]
pub struct DetHasher(u64);

impl Default for DetHasher {
    fn default() -> Self {
        DetHasher(FNV_OFFSET)
    }
}

impl Hasher for DetHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
}

/// `BuildHasher` for [`DetHasher`]; zero-sized, so `DetHashMap::default`
/// allocates nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetState;

impl BuildHasher for DetState {
    type Hasher = DetHasher;

    fn build_hasher(&self) -> DetHasher {
        DetHasher::default()
    }
}

/// A `HashMap` whose layout — and therefore allocation pattern — is a
/// pure function of the insert/remove sequence.
pub type DetHashMap<K, V> = HashMap<K, V, DetState>;

/// A `HashSet` with the same guarantee.
pub type DetHashSet<K> = HashSet<K, DetState>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_hash_everywhere() {
        let h = |v: u64| DetState.hash_one(v);
        assert_eq!(h(7), h(7));
        assert_ne!(h(7), h(8));
        // Cross-thread: identical.
        let threaded = std::thread::spawn(move || h(7)).join().unwrap();
        assert_eq!(h(7), threaded);
    }

    #[test]
    fn map_and_set_round_trip() {
        let mut m: DetHashMap<u32, &str> = DetHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        let mut s: DetHashSet<u32> = DetHashSet::default();
        assert!(s.insert(9));
        assert!(!s.insert(9));
    }

    /// The property the profiler leans on: the same insert/remove
    /// sequence produces the same capacity trajectory on any thread.
    #[test]
    fn capacity_trajectory_is_thread_independent() {
        fn trajectory() -> Vec<usize> {
            let mut m: DetHashMap<u64, u64> = DetHashMap::default();
            let mut caps = Vec::new();
            for i in 0..4096u64 {
                m.insert(i * 2654435761 % 977, i);
                if i % 3 == 0 {
                    m.remove(&(i * 2654435761 % 977 / 2));
                }
                caps.push(m.capacity());
            }
            caps
        }
        let here = trajectory();
        let there = std::thread::spawn(trajectory).join().unwrap();
        assert_eq!(here, there);
    }
}
