//! Intrusive doubly-linked lists over a shared node arena.
//!
//! Replacement policies juggle several lists over the same set of frames
//! (ARC's T1/T2, LIRS's stack S and queue Q, MQ's queue ladder). Storing
//! link words in one fixed arena — indexed by frame id for resident pages,
//! and by allocated ghost slots above `frames` for history entries — gives:
//!
//! * O(1) insert/remove/move with no per-operation allocation,
//! * cheap membership tests via an owner tag per node.

/// Sentinel index meaning "no node".
pub const NIL: u32 = u32::MAX;

/// Owner tag for a node that is in no list.
const NO_LIST: u8 = u8::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    prev: u32,
    next: u32,
    owner: u8,
}

impl Default for Node {
    fn default() -> Self {
        Node {
            prev: NIL,
            next: NIL,
            owner: NO_LIST,
        }
    }
}

/// Fixed-size arena of list nodes. Node indices are assigned by the caller
/// (policies use `0..frames` for resident frames and manage ghost indices
/// with [`GhostSlots`]).
pub struct Arena {
    nodes: Vec<Node>,
    next_list_id: u8,
}

impl Arena {
    /// Create an arena with `n` nodes, all initially unlinked.
    pub fn new(n: usize) -> Self {
        assert!(n < NIL as usize, "arena too large");
        Arena {
            nodes: vec![Node::default(); n],
            next_list_id: 0,
        }
    }

    /// Allocate a new list handle with a unique owner id.
    pub fn new_list(&mut self) -> List {
        let id = self.next_list_id;
        assert!(id != NO_LIST, "too many lists for one arena");
        self.next_list_id += 1;
        List {
            head: NIL,
            tail: NIL,
            len: 0,
            id,
        }
    }

    /// Owner list id of `node`, or `NO_LIST`.
    pub fn owner(&self, node: u32) -> u8 {
        self.nodes[node as usize].owner
    }

    /// True if `node` belongs to no list.
    fn is_free(&self, node: u32) -> bool {
        self.owner(node) == NO_LIST
    }
}

/// A doubly-linked list handle. All operations take the shared [`Arena`].
#[derive(Debug, Clone, Copy)]
pub struct List {
    head: u32,
    tail: u32,
    len: usize,
    id: u8,
}

impl List {
    /// Number of nodes in this list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the list holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// First (front / MRU) node, or `None`.
    pub fn front(&self) -> Option<u32> {
        (self.head != NIL).then_some(self.head)
    }

    /// Last (back / LRU) node, or `None`.
    pub fn back(&self) -> Option<u32> {
        (self.tail != NIL).then_some(self.tail)
    }

    /// True if `node` is a member of this list.
    pub fn contains(&self, arena: &Arena, node: u32) -> bool {
        arena.nodes[node as usize].owner == self.id
    }

    /// Link an unowned node at the front.
    pub fn push_front(&mut self, arena: &mut Arena, node: u32) {
        assert!(
            arena.is_free(node),
            "node {node} already in list {}",
            arena.owner(node)
        );
        let n = &mut arena.nodes[node as usize];
        n.owner = self.id;
        n.prev = NIL;
        n.next = self.head;
        if self.head != NIL {
            arena.nodes[self.head as usize].prev = node;
        } else {
            self.tail = node;
        }
        self.head = node;
        self.len += 1;
    }

    /// Link an unowned node at the back.
    pub fn push_back(&mut self, arena: &mut Arena, node: u32) {
        assert!(
            arena.is_free(node),
            "node {node} already in list {}",
            arena.owner(node)
        );
        let n = &mut arena.nodes[node as usize];
        n.owner = self.id;
        n.next = NIL;
        n.prev = self.tail;
        if self.tail != NIL {
            arena.nodes[self.tail as usize].next = node;
        } else {
            self.head = node;
        }
        self.tail = node;
        self.len += 1;
    }

    /// Link an unowned node immediately before member node `pos`.
    pub fn insert_before(&mut self, arena: &mut Arena, pos: u32, node: u32) {
        assert!(
            self.contains(arena, pos),
            "pos {pos} not in list {}",
            self.id
        );
        assert!(
            arena.is_free(node),
            "node {node} already in list {}",
            arena.owner(node)
        );
        let prev = arena.nodes[pos as usize].prev;
        let n = &mut arena.nodes[node as usize];
        n.owner = self.id;
        n.prev = prev;
        n.next = pos;
        arena.nodes[pos as usize].prev = node;
        if prev != NIL {
            arena.nodes[prev as usize].next = node;
        } else {
            self.head = node;
        }
        self.len += 1;
    }

    /// Unlink a member node.
    pub fn remove(&mut self, arena: &mut Arena, node: u32) {
        assert!(
            self.contains(arena, node),
            "node {node} not in list {} (owner {})",
            self.id,
            arena.owner(node)
        );
        let Node { prev, next, .. } = arena.nodes[node as usize];
        if prev != NIL {
            arena.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            arena.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        arena.nodes[node as usize] = Node::default();
        self.len -= 1;
    }

    /// Move a member node to the front (MRU position).
    pub fn move_to_front(&mut self, arena: &mut Arena, node: u32) {
        if self.head == node {
            return;
        }
        self.remove(arena, node);
        self.push_front(arena, node);
    }

    /// Move a member node to the back.
    pub fn move_to_back(&mut self, arena: &mut Arena, node: u32) {
        if self.tail == node {
            return;
        }
        self.remove(arena, node);
        self.push_back(arena, node);
    }

    /// Iterate node indices front-to-back.
    pub fn iter<'a>(&'a self, arena: &'a Arena) -> impl Iterator<Item = u32> + 'a {
        let mut cur = self.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                None
            } else {
                let node = cur;
                cur = arena.nodes[cur as usize].next;
                Some(node)
            }
        })
    }

    /// Iterate node indices back-to-front (eviction order for LRU lists).
    pub fn iter_rev<'a>(&'a self, arena: &'a Arena) -> impl Iterator<Item = u32> + 'a {
        let mut cur = self.tail;
        std::iter::from_fn(move || {
            if cur == NIL {
                None
            } else {
                let node = cur;
                cur = arena.nodes[cur as usize].prev;
                Some(node)
            }
        })
    }

    /// Walk the list asserting structural consistency; returns length.
    pub fn check(&self, arena: &Arena) -> usize {
        let mut count = 0;
        let mut prev = NIL;
        let mut cur = self.head;
        while cur != NIL {
            let n = &arena.nodes[cur as usize];
            assert_eq!(n.owner, self.id, "node {cur} owner mismatch");
            assert_eq!(n.prev, prev, "node {cur} prev link broken");
            prev = cur;
            cur = n.next;
            count += 1;
            assert!(count <= self.len, "cycle detected in list {}", self.id);
        }
        assert_eq!(prev, self.tail, "tail mismatch in list {}", self.id);
        assert_eq!(count, self.len, "length mismatch in list {}", self.id);
        count
    }
}

/// Free-slot allocator for ghost nodes living above the frame range of an
/// arena. Policies that remember evicted pages allocate their history
/// entries here.
pub struct GhostSlots {
    free: Vec<u32>,
    base: u32,
    count: usize,
}

impl GhostSlots {
    /// Manage slots `base .. base + n` of an arena.
    pub fn new(base: u32, n: usize) -> Self {
        GhostSlots {
            free: (0..n as u32).rev().map(|i| base + i).collect(),
            base,
            count: n,
        }
    }

    /// First managed slot index.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Slots currently handed out.
    pub fn in_use(&self) -> usize {
        self.count - self.free.len()
    }

    /// Take a free slot, if any remain.
    pub fn alloc(&mut self) -> Option<u32> {
        self.free.pop()
    }

    /// Return a slot. Must have come from this allocator.
    pub fn dealloc(&mut self, slot: u32) {
        debug_assert!(slot >= self.base && (slot - self.base) < self.count as u32);
        debug_assert!(
            !self.free.contains(&slot),
            "double free of ghost slot {slot}"
        );
        self.free.push(slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_order() {
        let mut a = Arena::new(8);
        let mut l = a.new_list();
        for i in 0..4 {
            l.push_front(&mut a, i);
        }
        // front-to-back: 3 2 1 0
        let order: Vec<u32> = l.iter(&a).collect();
        assert_eq!(order, vec![3, 2, 1, 0]);
        let rev: Vec<u32> = l.iter_rev(&a).collect();
        assert_eq!(rev, vec![0, 1, 2, 3]);
        assert_eq!((l.front(), l.back()), (Some(3), Some(0)));
        l.remove(&mut a, 0);
        l.remove(&mut a, 3);
        assert_eq!((l.front(), l.back()), (Some(2), Some(1)));
        assert_eq!(l.len(), 2);
        l.check(&a);
    }

    #[test]
    fn move_to_front_and_back() {
        let mut a = Arena::new(4);
        let mut l = a.new_list();
        for i in 0..4 {
            l.push_back(&mut a, i);
        }
        l.move_to_front(&mut a, 2);
        assert_eq!(l.iter(&a).collect::<Vec<_>>(), vec![2, 0, 1, 3]);
        l.move_to_back(&mut a, 0);
        assert_eq!(l.iter(&a).collect::<Vec<_>>(), vec![2, 1, 3, 0]);
        l.check(&a);
    }

    #[test]
    fn two_lists_share_arena() {
        let mut a = Arena::new(6);
        let mut x = a.new_list();
        let mut y = a.new_list();
        x.push_back(&mut a, 0);
        x.push_back(&mut a, 1);
        y.push_back(&mut a, 2);
        assert!(x.contains(&a, 0));
        assert!(!y.contains(&a, 0));
        // move node 1 from x to y
        x.remove(&mut a, 1);
        y.push_front(&mut a, 1);
        assert_eq!(x.len(), 1);
        assert_eq!(y.iter(&a).collect::<Vec<_>>(), vec![1, 2]);
        x.check(&a);
        y.check(&a);
    }

    #[test]
    #[should_panic(expected = "already in list")]
    fn double_insert_panics() {
        let mut a = Arena::new(2);
        let mut l = a.new_list();
        l.push_back(&mut a, 0);
        l.push_back(&mut a, 0);
    }

    #[test]
    #[should_panic(expected = "not in list")]
    fn remove_from_wrong_list_panics() {
        let mut a = Arena::new(2);
        let mut x = a.new_list();
        let mut y = a.new_list();
        x.push_back(&mut a, 0);
        y.remove(&mut a, 0);
    }

    #[test]
    fn insert_before_relinks() {
        let mut a = Arena::new(6);
        let mut l = a.new_list();
        l.push_back(&mut a, 0);
        l.push_back(&mut a, 1);
        l.insert_before(&mut a, 1, 2);
        assert_eq!(l.iter(&a).collect::<Vec<_>>(), vec![0, 2, 1]);
        l.insert_before(&mut a, 0, 3); // becomes new head
        assert_eq!(l.iter(&a).collect::<Vec<_>>(), vec![3, 0, 2, 1]);
        assert_eq!(l.iter_rev(&a).collect::<Vec<_>>(), vec![1, 2, 0, 3]);
        l.check(&a);
        assert_eq!(l.len(), 4);
    }

    #[test]
    fn ghost_slots_alloc_dealloc() {
        let mut g = GhostSlots::new(10, 3);
        let s1 = g.alloc().unwrap();
        let s2 = g.alloc().unwrap();
        let s3 = g.alloc().unwrap();
        assert!(g.alloc().is_none());
        assert_eq!(g.in_use(), 3);
        for s in [s1, s2, s3] {
            assert!((10..13).contains(&s));
        }
        g.dealloc(s2);
        assert_eq!(g.alloc(), Some(s2));
    }

    #[test]
    fn remove_middle_relinks() {
        let mut a = Arena::new(5);
        let mut l = a.new_list();
        for i in 0..5 {
            l.push_back(&mut a, i);
        }
        l.remove(&mut a, 2);
        assert_eq!(l.iter(&a).collect::<Vec<_>>(), vec![0, 1, 3, 4]);
        assert_eq!(l.iter_rev(&a).collect::<Vec<_>>(), vec![4, 3, 1, 0]);
        l.check(&a);
    }
}
