//! An indexed doubly-linked LRU list over `u64` keys.
//!
//! The fully-associative model behind [`crate::classify`]'s capacity-miss
//! test. Operations are O(1) amortised: the list is stored as
//! `Vec`-indexed nodes with a free list, and a `HashMap` maps keys to
//! slots.
//!
//! # Examples
//!
//! The list is private; its recency order shows through the classifier.
//! Re-touching block 0 makes block 1 the least recent, so block 1 is the
//! one the two-block model drops, and the later miss on block 0 is a
//! conflict miss:
//!
//! ```
//! use dew_cachesim::classify::{MissClass, ThreeCClassifier};
//! use dew_cachesim::{CacheConfig, Replacement};
//! use dew_trace::Record;
//!
//! # fn main() -> Result<(), dew_cachesim::ConfigError> {
//! // Direct-mapped, two 4-byte sets: blocks 0 and 2 share set 0.
//! let mut c = ThreeCClassifier::new(CacheConfig::new(2, 1, 4, Replacement::Fifo)?);
//! assert_eq!(c.access(Record::read(0x0)), Some(MissClass::Compulsory));
//! assert_eq!(c.access(Record::read(0x4)), Some(MissClass::Compulsory));
//! assert_eq!(c.access(Record::read(0x0)), None); // block 0 becomes most recent
//! assert_eq!(c.access(Record::read(0x8)), Some(MissClass::Compulsory));
//! assert_eq!(c.access(Record::read(0x0)), Some(MissClass::Conflict));
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node {
    key: u64,
    prev: usize,
    next: usize,
}

/// A recency-ordered set of `u64` keys with O(1) touch/evict.
///
/// The *most recent* end is the head; the *least recent* end is the tail.
#[derive(Debug, Clone)]
pub struct LruList {
    nodes: Vec<Node>,
    slots: HashMap<u64, usize>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl LruList {
    /// Creates an empty list with capacity for `n` keys.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        LruList {
            nodes: Vec::with_capacity(n),
            slots: HashMap::with_capacity(n),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of keys currently tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Makes `key` the most recent entry, inserting it if absent. Returns
    /// `true` when the key was already present.
    pub fn touch(&mut self, key: u64) -> bool {
        if let Some(&slot) = self.slots.get(&key) {
            self.unlink(slot);
            self.push_front(slot);
            true
        } else {
            let slot = self.alloc(key);
            self.slots.insert(key, slot);
            self.push_front(slot);
            false
        }
    }

    /// Removes and returns the least recently touched key.
    pub fn pop_least_recent(&mut self) -> Option<u64> {
        let tail = self.tail;
        if tail == NIL {
            return None;
        }
        let key = self.nodes[tail].key;
        self.unlink(tail);
        self.slots.remove(&key);
        self.free.push(tail);
        Some(key)
    }

    fn alloc(&mut self, key: u64) -> usize {
        if let Some(slot) = self.free.pop() {
            self.nodes[slot] = Node {
                key,
                prev: NIL,
                next: NIL,
            };
            slot
        } else {
            self.nodes.push(Node {
                key,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        }
    }

    fn push_front(&mut self, slot: usize) {
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = NIL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The keys from most to least recent, read forwards from the head
    /// after checking the backward links from the tail agree.
    fn order(l: &LruList) -> Vec<u64> {
        let walk = |start: usize, step: fn(&Node) -> usize| {
            let mut keys = Vec::new();
            let mut cursor = start;
            while cursor != NIL {
                keys.push(l.nodes[cursor].key);
                cursor = step(&l.nodes[cursor]);
            }
            keys
        };
        let forward = walk(l.head, |n| n.next);
        let mut backward = walk(l.tail, |n| n.prev);
        backward.reverse();
        assert_eq!(forward, backward, "prev and next links disagree");
        assert_eq!(forward.len(), l.len());
        forward
    }

    #[test]
    fn touch_orders_by_recency() {
        let mut l = LruList::with_capacity(4);
        for k in [1u64, 2, 3] {
            assert!(!l.touch(k));
        }
        assert_eq!(order(&l), [3, 2, 1]);
        assert!(l.touch(1));
        assert_eq!(order(&l), [1, 3, 2]);
        assert_eq!(l.pop_least_recent(), Some(2));
        assert_eq!(order(&l), [1, 3]);
    }

    #[test]
    fn pop_removes_in_lru_order() {
        let mut l = LruList::with_capacity(0);
        for k in 0..5u64 {
            l.touch(k);
        }
        let order: Vec<u64> = std::iter::from_fn(|| l.pop_least_recent()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert_eq!(l.len(), 0);
        assert_eq!(l.pop_least_recent(), None);
    }

    #[test]
    fn single_element_edge_cases() {
        let mut l = LruList::with_capacity(1);
        l.touch(42);
        assert_eq!(order(&l), [42]);
        assert_eq!(l.pop_least_recent(), Some(42));
        assert_eq!(order(&l), []);
        l.touch(43);
        assert_eq!(order(&l), [43]);
        assert_eq!(l.nodes.len(), 1, "the popped slot is recycled");
    }

    #[test]
    fn matches_naive_model_on_mixed_operations() {
        // Reference model: Vec kept in most-recent-first order.
        let mut l = LruList::with_capacity(0);
        let mut model: Vec<u64> = Vec::new();
        let ops: Vec<(u8, u64)> = (0..500)
            .map(|i| {
                let x = (i * 2654435761u64) >> 7;
                ((x % 3) as u8, x % 17)
            })
            .collect();
        for (op, key) in ops {
            match op {
                0 | 1 => {
                    let had = model.contains(&key);
                    assert_eq!(l.touch(key), had);
                    model.retain(|&k| k != key);
                    model.insert(0, key);
                }
                _ => assert_eq!(l.pop_least_recent(), model.pop()),
            }
            assert_eq!(order(&l), model);
        }
    }
}
