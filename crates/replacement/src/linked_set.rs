//! An ordered set of page ids with O(1) insert, remove, and
//! oldest-element eviction — the shape every ghost ("history") list in
//! this crate needs: 2Q's A1out, ARC's B1/B2, CAR's B1/B2, MQ's Qout, and
//! the non-resident tail bound of LIRS.

use std::collections::HashMap;

use crate::traits::PageId;

const NIL: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Node {
    key: PageId,
    prev: u32,
    next: u32,
}

/// Ordered set of [`PageId`]s. Iteration order is insertion order
/// (front = most recently inserted, back = oldest). Re-inserting an
/// existing key moves it to the front.
pub struct LinkedSet {
    map: HashMap<PageId, u32>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
}

impl LinkedSet {
    /// Create an empty set. `hint` pre-sizes internal storage. The map
    /// gets room for twice `hint`: std's `HashMap` (hashbrown), when a
    /// table that churns runs out of never-used slots, rehashes in place
    /// to reuse the ones removes left behind, but only while it is at most
    /// half full; fuller, it grows once, at a point its random seed
    /// decides. That is std's current growth policy, not a documented
    /// one: `churn_at_length_hint_never_grows_the_map` pins it.
    pub fn with_capacity(hint: usize) -> Self {
        LinkedSet {
            map: HashMap::with_capacity(2 * hint),
            nodes: Vec::with_capacity(hint),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True if `key` is a member.
    pub fn contains(&self, key: PageId) -> bool {
        self.map.contains_key(&key)
    }

    fn unlink(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.nodes[idx as usize];
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn link_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        } else {
            self.tail = idx;
        }
        self.head = idx;
    }

    /// Insert `key` at the front (most-recent position). If already
    /// present, it is moved to the front. Returns true if newly inserted.
    pub fn insert_front(&mut self, key: PageId) -> bool {
        if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            self.link_front(idx);
            return false;
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize].key = key;
                i
            }
            None => {
                let i = self.nodes.len() as u32;
                assert!(i != NIL, "LinkedSet overflow");
                self.nodes.push(Node {
                    key,
                    prev: NIL,
                    next: NIL,
                });
                i
            }
        };
        self.link_front(idx);
        self.map.insert(key, idx);
        true
    }

    /// Remove `key`. Returns true if it was present.
    pub fn remove(&mut self, key: PageId) -> bool {
        match self.map.remove(&key) {
            Some(idx) => {
                self.unlink(idx);
                self.free.push(idx);
                true
            }
            None => false,
        }
    }

    /// Remove and return the oldest element (the back).
    pub fn pop_oldest(&mut self) -> Option<PageId> {
        if self.tail == NIL {
            return None;
        }
        let idx = self.tail;
        let key = self.nodes[idx as usize].key;
        self.unlink(idx);
        self.map.remove(&key);
        self.free.push(idx);
        Some(key)
    }

    /// Oldest element without removing it.
    pub fn peek_oldest(&self) -> Option<PageId> {
        (self.tail != NIL).then(|| self.nodes[self.tail as usize].key)
    }

    /// Iterate newest-to-oldest.
    pub fn iter(&self) -> impl Iterator<Item = PageId> + '_ {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                None
            } else {
                let n = &self.nodes[cur as usize];
                cur = n.next;
                Some(n.key)
            }
        })
    }

    /// Structural self-check for tests.
    pub fn check(&self) {
        let mut count = 0;
        let mut prev = NIL;
        let mut cur = self.head;
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            assert_eq!(n.prev, prev);
            assert_eq!(self.map.get(&n.key), Some(&cur));
            prev = cur;
            cur = n.next;
            count += 1;
            assert!(count <= self.map.len(), "cycle in LinkedSet");
        }
        assert_eq!(prev, self.tail);
        assert_eq!(count, self.map.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_order_and_pop() {
        let mut s = LinkedSet::with_capacity(4);
        for k in [1u64, 2, 3] {
            assert!(s.insert_front(k));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.peek_oldest(), Some(1));
        assert_eq!(s.iter().next(), Some(3));
        assert_eq!(s.pop_oldest(), Some(1));
        assert_eq!(s.pop_oldest(), Some(2));
        assert_eq!(s.pop_oldest(), Some(3));
        assert_eq!(s.pop_oldest(), None);
        s.check();
    }

    #[test]
    fn reinsert_moves_to_front() {
        let mut s = LinkedSet::with_capacity(4);
        s.insert_front(1);
        s.insert_front(2);
        assert!(!s.insert_front(1)); // already present
        assert_eq!(s.iter().next(), Some(1));
        assert_eq!(s.peek_oldest(), Some(2));
        assert_eq!(s.len(), 2);
        s.check();
    }

    #[test]
    fn remove_and_reuse_slots() {
        let mut s = LinkedSet::with_capacity(2);
        s.insert_front(10);
        s.insert_front(20);
        s.insert_front(30);
        assert!(s.remove(20));
        assert!(!s.remove(20));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![30, 10]);
        s.insert_front(40); // reuses freed slot
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![40, 30, 10]);
        s.check();
    }

    #[test]
    fn contains_tracks_membership() {
        let mut s = LinkedSet::with_capacity(1);
        assert!(!s.contains(5));
        s.insert_front(5);
        assert!(s.contains(5));
        s.pop_oldest();
        assert!(!s.contains(5));
    }

    /// A set held at length `hint` while keys churn through it never
    /// grows its map. A std whose `HashMap` grows a table at most half
    /// full fails here, not as a miss that allocates at a seed-dependent
    /// point.
    #[test]
    fn churn_at_length_hint_never_grows_the_map() {
        for hint in [8, 64, 100, 1_000] {
            let mut s = LinkedSet::with_capacity(hint);
            for k in 0..hint as u64 {
                s.insert_front(k);
            }
            // Slots removes leave behind lower `capacity()` until a rehash
            // in place restores it; a grown table would raise it.
            let capacity = s.map.capacity();
            for k in hint as u64..100 * hint as u64 {
                s.insert_front(k);
                s.pop_oldest();
                assert!(s.map.capacity() <= capacity, "hint {hint}: grew");
            }
            s.check();
        }
    }
}
