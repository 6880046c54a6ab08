//! Allocation counting for the traced run.
//!
//! The benchmark binary always links this allocator, but it only counts
//! while [`set_counting`] is on, which the traced run does. Untraced runs
//! pay one relaxed load of a flag that never changes under them. The
//! counter is the requested byte total, like `muds-obs`'s `bench-alloc`
//! counter, which cannot be used here: it counts every allocation and
//! free, and in paired untraced runs on a 2-vCPU Xeon it made the median
//! operation 10% (`batch_rows`) to 26% (`batch_wide`) slower.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// Turns byte counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Bytes requested from the allocator while counting was on.
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATED.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// The system allocator plus the gated counter. Both atomics are relaxed:
/// they publish no other data and are read only between measured calls,
/// after the joins that end them.
struct Counting;

// SAFETY: every method delegates unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `count` touches only atomics, never allocates,
// and so cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout obligations are forwarded unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout obligations are forwarded unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` came from this allocator, i.e. `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` and `layout` came from this allocator; the caller's
        // `new_size` obligations are forwarded unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_switched_on() {
        let before = allocated_bytes();
        let quiet = vec![0u8; 1 << 20];
        std::hint::black_box(&quiet);
        set_counting(true);
        let counted = vec![1u8; 1 << 20];
        std::hint::black_box(&counted);
        set_counting(false);
        let after = allocated_bytes();
        // Other test threads may allocate while the switch is on, so only
        // the lower bound is exact.
        assert!(after - before >= 1 << 20);
    }
}
