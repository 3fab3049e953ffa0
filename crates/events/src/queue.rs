//! The pending-event priority queue: a binary heap with stable
//! `(time, priority, seq)` ordering and lazy cancellation.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// One queued entry. Ordering is total and platform-independent:
/// `f64::total_cmp` on time, then the payload's priority class, then the
/// schedule sequence number (FIFO among equals).
struct Entry<E> {
    time: f64,
    priority: u8,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest entry on
        // top.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.priority.cmp(&self.priority))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A cancellable min-queue of timestamped events.
///
/// Cancellation is lazy: cancelled sequence numbers are remembered and the
/// matching entries are discarded when they reach the top of the heap, so
/// both `push` and `cancel` stay O(log n) / O(1).
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    pending: HashSet<u64>,
    cancelled: HashSet<u64>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            pending: HashSet::new(),
            cancelled: HashSet::new(),
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an entry. `seq` must be unique (the kernel hands out a
    /// monotone counter); `time` must be finite.
    pub fn push(&mut self, time: f64, priority: u8, seq: u64, payload: E) {
        assert!(time.is_finite(), "event time must be finite, got {time}");
        self.pending.insert(seq);
        self.heap.push(Entry {
            time,
            priority,
            seq,
            payload,
        });
    }

    /// Cancels the entry with sequence number `seq`. Returns `true` when the
    /// entry was still pending.
    pub fn cancel(&mut self, seq: u64) -> bool {
        if self.pending.remove(&seq) {
            self.cancelled.insert(seq);
            true
        } else {
            false
        }
    }

    /// Whether `seq` is still pending (scheduled, not fired, not cancelled).
    pub fn is_pending(&self, seq: u64) -> bool {
        self.pending.contains(&seq)
    }

    /// Removes and returns the earliest live entry as `(time, seq, payload)`.
    pub fn pop(&mut self) -> Option<(f64, u64, E)> {
        while let Some(e) = self.heap.pop() {
            if self.cancelled.remove(&e.seq) {
                continue; // lazily discard a cancelled entry
            }
            self.pending.remove(&e.seq);
            return Some((e.time, e.seq, e.payload));
        }
        None
    }

    /// Timestamp and payload of the earliest live entry, if any.
    pub fn peek(&mut self) -> Option<(f64, &E)> {
        while let Some(e) = self.heap.peek() {
            if !self.cancelled.remove(&e.seq) {
                break;
            }
            self.heap.pop();
        }
        self.heap.peek().map(|e| (e.time, &e.payload))
    }

    /// Number of live (non-cancelled) entries.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(3.0, 0, 0, "c");
        q.push(1.0, 0, 1, "a");
        q.push(2.0, 0, 2, "b");
        assert_eq!(q.pop(), Some((1.0, 1, "a")));
        assert_eq!(q.pop(), Some((2.0, 2, "b")));
        assert_eq!(q.pop(), Some((3.0, 0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_break_by_priority_then_seq() {
        let mut q = EventQueue::new();
        q.push(5.0, 2, 0, "low-class-late");
        q.push(5.0, 0, 1, "high-class");
        q.push(5.0, 2, 2, "low-class-later");
        q.push(5.0, 1, 3, "mid-class");
        assert_eq!(q.pop().unwrap().2, "high-class");
        assert_eq!(q.pop().unwrap().2, "mid-class");
        // Same (time, priority): FIFO by seq.
        assert_eq!(q.pop().unwrap().2, "low-class-late");
        assert_eq!(q.pop().unwrap().2, "low-class-later");
    }

    #[test]
    fn cancellation_is_lazy_but_exact() {
        let mut q = EventQueue::new();
        q.push(1.0, 0, 10, "x");
        q.push(2.0, 0, 11, "y");
        assert!(q.cancel(10));
        assert!(!q.cancel(10), "double-cancel must report not-pending");
        assert!(!q.cancel(99), "unknown seq must report not-pending");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((2.0, 11, "y")));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_skips_cancelled() {
        let mut q = EventQueue::new();
        q.push(1.0, 0, 0, "x");
        q.push(4.0, 0, 1, "y");
        q.cancel(0);
        assert_eq!(q.peek(), Some((4.0, &"y")));
        assert_eq!(q.pop(), Some((4.0, 1, "y")));
    }
}
