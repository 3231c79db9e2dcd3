//! Typed 32-bit indices.
//!
//! The original pathalias wired its `node` and `link` structures
//! together with raw pointers. The safe Rust equivalent is an index
//! into an append-only vector, typed so that the compiler keeps node
//! and link indices apart.

use std::fmt;
use std::marker::PhantomData;

/// A typed index into an append-only collection of `T`.
///
/// The phantom type parameter prevents handles of one kind being used
/// for another (e.g. a node handle indexing the links), which is the
/// class of bug raw pointers made easy in the original C.
pub struct Handle<T> {
    idx: u32,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Handle<T> {
    /// Builds a handle from a raw index.
    ///
    /// Intended for serialization and for iteration helpers; passing an
    /// out-of-range index produces a handle whose accesses panic.
    #[inline]
    pub fn from_raw(idx: u32) -> Self {
        Handle {
            idx,
            _marker: PhantomData,
        }
    }

    /// The raw index value.
    #[inline]
    pub fn raw(self) -> u32 {
        self.idx
    }

    /// The raw index as a usize.
    #[inline]
    pub fn index(self) -> usize {
        self.idx as usize
    }
}

impl<T> Clone for Handle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Handle<T> {}
impl<T> PartialEq for Handle<T> {
    fn eq(&self, other: &Self) -> bool {
        self.idx == other.idx
    }
}
impl<T> Eq for Handle<T> {}
impl<T> PartialOrd for Handle<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Handle<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.idx.cmp(&other.idx)
    }
}
impl<T> std::hash::Hash for Handle<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.idx.hash(state);
    }
}
impl<T> fmt::Debug for Handle<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.idx)
    }
}
