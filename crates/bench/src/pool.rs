//! Typed object pools with stable handles: the 1986 layout's `node` and
//! `link` storage, kept for the allocator experiment (E4).
//!
//! The original pathalias allocated `node` and `link` structures from its
//! bump arena and wired them together with raw pointers. The safe Rust
//! equivalent is an append-only pool indexed by a typed
//! [`Handle`]: 32-bit, `Copy`, comparable, and valid for the life of the
//! pool, which matches the "nothing is freed until exit" discipline the
//! paper describes.

use pathalias_arena::Handle;

/// An append-only typed pool.
///
/// # Examples
///
/// ```
/// use pathalias_bench::pool::Pool;
///
/// let mut pool = Pool::new();
/// let a = pool.alloc("duke");
/// let b = pool.alloc("unc");
/// assert_eq!(pool[a], "duke");
/// assert_eq!(pool[b], "unc");
/// assert_eq!(pool.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Pool<T> {
    items: Vec<T>,
}

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Pool<T> {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Pool { items: Vec::new() }
    }

    /// Creates an empty pool with room for `cap` items.
    pub fn with_capacity(cap: usize) -> Self {
        Pool {
            items: Vec::with_capacity(cap),
        }
    }

    /// Stores `value` and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if the pool exceeds `u32::MAX` items.
    pub fn alloc(&mut self, value: T) -> Handle<T> {
        let idx = u32::try_from(self.items.len()).expect("pool overflow");
        self.items.push(value);
        Handle::from_raw(idx)
    }

    /// Number of items stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the pool is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Shared access without panicking.
    #[inline]
    pub fn get(&self, h: Handle<T>) -> Option<&T> {
        self.items.get(h.index())
    }

    /// Mutable access without panicking.
    #[inline]
    pub fn get_mut(&mut self, h: Handle<T>) -> Option<&mut T> {
        self.items.get_mut(h.index())
    }

    /// Iterates over `(handle, item)` pairs in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = (Handle<T>, &T)> {
        self.items
            .iter()
            .enumerate()
            .map(|(i, v)| (Handle::from_raw(i as u32), v))
    }

    /// Iterates over all handles in allocation order.
    pub fn handles(&self) -> impl Iterator<Item = Handle<T>> {
        (0..self.items.len() as u32).map(Handle::from_raw)
    }

    /// Iterates over items in allocation order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Iterates mutably over items in allocation order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.items.iter_mut()
    }
}

impl<T> std::ops::Index<Handle<T>> for Pool<T> {
    type Output = T;
    #[inline]
    fn index(&self, h: Handle<T>) -> &T {
        &self.items[h.index()]
    }
}

impl<T> std::ops::IndexMut<Handle<T>> for Pool<T> {
    #[inline]
    fn index_mut(&mut self, h: Handle<T>) -> &mut T {
        &mut self.items[h.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_index() {
        let mut p = Pool::new();
        let a = p.alloc(10);
        let b = p.alloc(20);
        assert_eq!(p[a], 10);
        assert_eq!(p[b], 20);
        p[a] = 11;
        assert_eq!(p[a], 11);
    }

    #[test]
    fn handles_are_dense_and_ordered() {
        let mut p = Pool::new();
        let hs: Vec<_> = (0..5).map(|i| p.alloc(i)).collect();
        for w in hs.windows(2) {
            assert!(w[0] < w[1]);
        }
        let collected: Vec<_> = p.handles().collect();
        assert_eq!(collected, hs);
    }

    #[test]
    fn get_out_of_range_is_none() {
        let p: Pool<i32> = Pool::new();
        assert!(p.get(Handle::from_raw(0)).is_none());
    }

    #[test]
    fn iter_pairs() {
        let mut p = Pool::new();
        p.alloc("a");
        p.alloc("b");
        let v: Vec<_> = p.iter().map(|(h, s)| (h.raw(), *s)).collect();
        assert_eq!(v, vec![(0, "a"), (1, "b")]);
    }

    #[test]
    fn values_mut_updates() {
        let mut p = Pool::new();
        p.alloc(1);
        p.alloc(2);
        for v in p.values_mut() {
            *v *= 10;
        }
        assert_eq!(p.values().copied().collect::<Vec<_>>(), vec![10, 20]);
    }

    #[test]
    fn debug_format() {
        let h: Handle<i32> = Handle::from_raw(7);
        assert_eq!(format!("{h:?}"), "#7");
    }
}
