//! The implicit binary heap with decrease-key.
//!
//! The paper: "For the priority queue itself, we use an implicit binary
//! heap. This requires a large contiguous array, but since the hash
//! table is no longer needed and is guaranteed to be large enough, we
//! use that space instead of allocating a new array." Rust's allocator
//! makes the space-reuse trick unnecessary, but the structure is the
//! same: a dense array heap plus a position index per node, so that a
//! queued node's key can be *decreased in place* and the heap property
//! restored by sifting — the operation `std::collections::BinaryHeap`
//! lacks.

/// An indexed min-heap over dense `u32` node indices.
///
/// Each node may appear at most once; [`decrease`] updates a queued
/// node's key. All operations are O(log n); [`contains`](IndexedHeap::contains) and key lookup
/// are O(1) via the position index.
///
/// [`decrease`]: IndexedHeap::decrease
///
/// # Examples
///
/// ```
/// use pathalias_bench::heap::IndexedHeap;
///
/// let mut h: IndexedHeap<u64> = IndexedHeap::new(10);
/// h.push(3, 50);
/// h.push(7, 20);
/// h.push(1, 30);
/// h.decrease(3, 10);
/// assert_eq!(h.pop(), Some((3, 10)));
/// assert_eq!(h.pop(), Some((7, 20)));
/// assert_eq!(h.pop(), Some((1, 30)));
/// assert_eq!(h.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct IndexedHeap<K: Ord + Copy> {
    /// Heap slots: (key, node).
    slots: Vec<(K, u32)>,
    /// node -> slot + 1; 0 means absent.
    pos: Vec<u32>,
}

impl<K: Ord + Copy> IndexedHeap<K> {
    /// Creates a heap able to hold node indices below `capacity`.
    pub fn new(capacity: usize) -> Self {
        IndexedHeap {
            slots: Vec::with_capacity(capacity),
            pos: vec![0; capacity],
        }
    }

    /// Number of queued nodes.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether `node` is queued.
    pub fn contains(&self, node: u32) -> bool {
        self.pos[node as usize] != 0
    }

    /// The key of a queued node.
    pub fn key_of(&self, node: u32) -> Option<K> {
        let p = self.pos[node as usize];
        if p == 0 {
            None
        } else {
            Some(self.slots[(p - 1) as usize].0)
        }
    }

    /// Queues `node` with `key`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is already queued or out of range.
    pub fn push(&mut self, node: u32, key: K) {
        assert_eq!(self.pos[node as usize], 0, "node {node} already queued");
        self.slots.push((key, node));
        let i = self.slots.len() - 1;
        self.pos[node as usize] = (i + 1) as u32;
        self.sift_up(i);
    }

    /// Removes and returns the minimum (key order, ties by insertion
    /// history of sifting — callers wanting determinism put a tiebreak
    /// in the key).
    pub fn pop(&mut self) -> Option<(u32, K)> {
        if self.slots.is_empty() {
            return None;
        }
        let last = self.slots.len() - 1;
        self.slots.swap(0, last);
        let (key, node) = self.slots.pop().expect("nonempty");
        self.pos[node as usize] = 0;
        if !self.slots.is_empty() {
            self.pos[self.slots[0].1 as usize] = 1;
            self.sift_down(0);
        }
        Some((node, key))
    }

    /// Lowers the key of a queued node and restores the heap property
    /// ("we reduce the cost to this neighbor ... and restore the heap
    /// property").
    ///
    /// # Panics
    ///
    /// Panics if `node` is not queued or `key` is larger than the
    /// current key.
    pub fn decrease(&mut self, node: u32, key: K) {
        let p = self.pos[node as usize];
        assert_ne!(p, 0, "node {node} not queued");
        let i = (p - 1) as usize;
        assert!(key <= self.slots[i].0, "decrease-key must not increase");
        self.slots[i].0 = key;
        self.sift_up(i);
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.slots[i].0 >= self.slots[parent].0 {
                break;
            }
            self.swap_slots(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut smallest = i;
            if l < self.slots.len() && self.slots[l].0 < self.slots[smallest].0 {
                smallest = l;
            }
            if r < self.slots.len() && self.slots[r].0 < self.slots[smallest].0 {
                smallest = r;
            }
            if smallest == i {
                return;
            }
            self.swap_slots(i, smallest);
            i = smallest;
        }
    }

    fn swap_slots(&mut self, a: usize, b: usize) {
        self.slots.swap(a, b);
        self.pos[self.slots[a].1 as usize] = (a + 1) as u32;
        self.pos[self.slots[b].1 as usize] = (b + 1) as u32;
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        for i in 1..self.slots.len() {
            let parent = (i - 1) / 2;
            assert!(
                self.slots[parent].0 <= self.slots[i].0,
                "heap order violated at {i}"
            );
        }
        for (i, &(_, node)) in self.slots.iter().enumerate() {
            assert_eq!(self.pos[node as usize] as usize, i + 1, "pos index stale");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_ordering() {
        let mut h: IndexedHeap<u32> = IndexedHeap::new(16);
        for (n, k) in [(0u32, 9u32), (1, 3), (2, 7), (3, 1), (4, 5)] {
            h.push(n, k);
            h.check_invariants();
        }
        let mut out = Vec::new();
        while let Some((_, k)) = h.pop() {
            h.check_invariants();
            out.push(k);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn decrease_reorders() {
        let mut h: IndexedHeap<u32> = IndexedHeap::new(8);
        h.push(0, 10);
        h.push(1, 20);
        h.push(2, 30);
        h.decrease(2, 5);
        h.check_invariants();
        assert_eq!(h.pop(), Some((2, 5)));
        assert_eq!(h.key_of(1), Some(20));
    }

    #[test]
    fn contains_tracks_membership() {
        let mut h: IndexedHeap<u32> = IndexedHeap::new(4);
        assert!(!h.contains(2));
        h.push(2, 1);
        assert!(h.contains(2));
        h.pop();
        assert!(!h.contains(2));
    }

    #[test]
    #[should_panic(expected = "already queued")]
    fn double_push_panics() {
        let mut h: IndexedHeap<u32> = IndexedHeap::new(4);
        h.push(1, 1);
        h.push(1, 2);
    }

    #[test]
    #[should_panic(expected = "not queued")]
    fn decrease_absent_panics() {
        let mut h: IndexedHeap<u32> = IndexedHeap::new(4);
        h.decrease(1, 1);
    }

    #[test]
    #[should_panic(expected = "must not increase")]
    fn increase_key_panics() {
        let mut h: IndexedHeap<u32> = IndexedHeap::new(4);
        h.push(1, 5);
        h.decrease(1, 9);
    }

    #[test]
    fn tuple_keys_give_deterministic_ties() {
        let mut h: IndexedHeap<(u64, u32)> = IndexedHeap::new(8);
        h.push(5, (10, 5));
        h.push(3, (10, 3));
        h.push(4, (10, 4));
        assert_eq!(h.pop().unwrap().0, 3);
        assert_eq!(h.pop().unwrap().0, 4);
        assert_eq!(h.pop().unwrap().0, 5);
    }

    #[test]
    fn model_check_against_std_binaryheap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        // Deterministic pseudo-random workload.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };

        let n = 256u32;
        let mut ours: IndexedHeap<(u64, u32)> = IndexedHeap::new(n as usize);
        let mut theirs: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
        let mut queued: Vec<Option<u64>> = vec![None; n as usize];

        for _ in 0..5000 {
            let r = next();
            let node = (r % n as u64) as u32;
            match r % 3 {
                0 => {
                    if queued[node as usize].is_none() {
                        let k = next() % 1000;
                        ours.push(node, (k, node));
                        theirs.push(Reverse((k, node)));
                        queued[node as usize] = Some(k);
                    }
                }
                1 => {
                    if let Some(old) = queued[node as usize] {
                        if old > 0 {
                            let k = next() % old;
                            ours.decrease(node, (k, node));
                            // Model: lazy-delete the old entry.
                            theirs.push(Reverse((k, node)));
                            queued[node as usize] = Some(k);
                        }
                    }
                }
                _ => {
                    // Pop from the model, skipping stale entries.
                    loop {
                        match theirs.pop() {
                            None => {
                                assert!(ours.pop().is_none());
                                break;
                            }
                            Some(Reverse((k, node))) => {
                                if queued[node as usize] == Some(k) {
                                    assert_eq!(ours.pop(), Some((node, (k, node))));
                                    queued[node as usize] = None;
                                    break;
                                }
                                // Stale: superseded by a decrease.
                            }
                        }
                    }
                }
            }
        }
    }
}
