//! The future-event list.
//!
//! A flat, `Vec`-backed binary min-heap calendar keyed by `(time, sequence)`.
//! The sequence number breaks ties so that events scheduled earlier fire
//! earlier at equal timestamps, which makes runs fully deterministic:
//! `(time, seq)` is a strict total order, so *any* correct heap pops the
//! identical sequence. Capacity can be reserved up front
//! ([`EventQueue::with_capacity`] / [`EventQueue::reserve`]) so that the
//! engine's steady-state pop/schedule cycle never allocates — `pop` swaps
//! the last entry into the root and sifts down in place.

use crate::time::SimTime;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A future-event list ordered by timestamp (FIFO among equal timestamps).
pub struct EventQueue<E> {
    heap: Vec<Entry<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Create an empty queue pre-sized for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Grow the backing store to hold at least `additional` more events
    /// without reallocating. Call from outside profiled phases.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Number of events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// The current simulated time: the timestamp of the most recently
    /// popped event (time zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current clock — scheduling into the
    /// past is always a model bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={now}",
            now = self.now
        );
        let entry = Entry {
            time: at,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1);
    }

    /// Remove and return the next event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let entry = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].key() < self.heap[parent].key() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let mut child = left;
            if right < len && self.heap[right].key() < self.heap[left].key() {
                child = right;
            }
            if self.heap[child].key() < self.heap[i].key() {
                self.heap.swap(i, child);
                i = child;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), "c");
        q.schedule(SimTime::from_micros(10), "a");
        q.schedule(SimTime::from_micros(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, ["a", "b", "c"]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_micros(9_999_999), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn with_capacity_pops_identically_under_churn() {
        // Exercise a schedule/pop interleave and check it matches a
        // freshly allocated queue.
        let mut a = EventQueue::new();
        let mut b = EventQueue::with_capacity(64);
        assert!(b.capacity() >= 64);
        let times = [7u64, 3, 3, 9, 1, 4, 4, 4, 8, 2, 6, 5];
        for (i, &t) in times.iter().enumerate() {
            a.schedule(SimTime::from_micros(t + 10), i);
            b.schedule(SimTime::from_micros(t + 10), i);
        }
        for _ in 0..4 {
            assert_eq!(a.pop(), b.pop());
        }
        b.reserve(16);
        for (i, &t) in times.iter().enumerate() {
            a.schedule(SimTime::from_micros(t + 20), 100 + i);
            b.schedule(SimTime::from_micros(t + 20), 100 + i);
        }
        while let Some(x) = a.pop() {
            assert_eq!(Some(x), b.pop());
        }
        assert!(b.is_empty());
    }
}
