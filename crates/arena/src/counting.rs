//! A counting wrapper around the system allocator.
//!
//! The paper's allocator experiments (Korn & Vo's malloc study) compared
//! time *and space*. To measure space on the Rust side, benchmark
//! binaries install [`CountingAlloc`] as the global allocator and read
//! the counters around the workload under test (experiment E4).
//!
//! The wrapper defers entirely to [`std::alloc::System`] and only
//! maintains atomic counters, so it is safe to install process-wide.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static FREED: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A snapshot of allocator counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Total bytes ever allocated.
    pub allocated: usize,
    /// Total bytes ever freed.
    pub freed: usize,
    /// Number of allocation calls (alloc + realloc).
    pub calls: usize,
    /// High-water mark of live bytes.
    pub peak: usize,
}

impl AllocSnapshot {
    /// Live bytes at snapshot time.
    pub fn live(&self) -> usize {
        self.allocated.saturating_sub(self.freed)
    }

    /// Counter deltas between two snapshots (`self` taken after `before`).
    pub fn since(&self, before: &AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            allocated: self.allocated - before.allocated,
            freed: self.freed - before.freed,
            calls: self.calls - before.calls,
            peak: self.peak,
        }
    }
}

/// Reads the current counters.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        allocated: ALLOCATED.load(Ordering::Relaxed),
        freed: FREED.load(Ordering::Relaxed),
        calls: CALLS.load(Ordering::Relaxed),
        peak: PEAK.load(Ordering::Relaxed),
    }
}

/// Restarts the high-water mark at the bytes live now, so the next
/// [`snapshot`]'s `peak` is the highest point reached since this call.
pub fn reset_peak() {
    let live = ALLOCATED
        .load(Ordering::Relaxed)
        .saturating_sub(FREED.load(Ordering::Relaxed));
    PEAK.store(live, Ordering::Relaxed);
}

fn on_alloc(size: usize) {
    let total = ALLOCATED.fetch_add(size, Ordering::Relaxed) + size;
    CALLS.fetch_add(1, Ordering::Relaxed);
    let live = total.saturating_sub(FREED.load(Ordering::Relaxed));
    PEAK.fetch_max(live, Ordering::Relaxed);
}

/// Global allocator that counts bytes and calls, deferring to the system
/// allocator for all actual memory management.
///
/// # Examples
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: pathalias_arena::counting::CountingAlloc =
///     pathalias_arena::counting::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: every method forwards to `System`, which satisfies the
// `GlobalAlloc` contract; the wrapper adds only atomic counter updates,
// which cannot violate allocation invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract and
        // we pass the layout through unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `System` via this wrapper with
        // the same layout, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: contract forwarded unchanged from the caller.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            FREED.fetch_add(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_delta_math() {
        let before = AllocSnapshot {
            allocated: 100,
            freed: 40,
            calls: 7,
            peak: 90,
        };
        let after = AllocSnapshot {
            allocated: 250,
            freed: 60,
            calls: 9,
            peak: 200,
        };
        let d = after.since(&before);
        assert_eq!(d.allocated, 150);
        assert_eq!(d.freed, 20);
        assert_eq!(d.calls, 2);
        assert_eq!(d.peak, 200);
        assert_eq!(after.live(), 190);
    }

    #[test]
    fn live_saturates() {
        let s = AllocSnapshot {
            allocated: 10,
            freed: 20,
            ..Default::default()
        };
        assert_eq!(s.live(), 0);
    }
}
