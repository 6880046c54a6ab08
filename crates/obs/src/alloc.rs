//! Byte-count allocation tracking behind the `bench-alloc` feature.
//!
//! When the feature is on, a global counting allocator wraps the system
//! allocator and keeps one process-wide relaxed counter of cumulative bytes
//! allocated. The bench harness reads it before and after a run and
//! reports the delta as `alloc_bytes`. With the feature off (the default
//! — nothing in the workspace enables it, so normal builds keep the stock
//! allocator), every probe returns 0 and [`tracking_enabled`] returns
//! `false`, which the BENCH JSON schema carries as `alloc_tracking: false`
//! so baseline diffs never compare tracked numbers against untracked zeros.
//!
//! The counter deliberately counts *requested* layout sizes, not
//! allocator-internal rounding — the number answers "how many bytes did
//! the algorithm ask for", which is stable across allocator versions.

/// Whether the counting allocator is compiled in.
pub fn tracking_enabled() -> bool {
    cfg!(feature = "bench-alloc")
}

/// Cumulative bytes requested from the allocator since process start
/// (0 when tracking is off).
pub fn allocated_bytes() -> u64 {
    #[cfg(feature = "bench-alloc")]
    {
        counting::ALLOCATED.load(core::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(feature = "bench-alloc"))]
    {
        0
    }
}

#[cfg(feature = "bench-alloc")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(super) static ALLOCATED: AtomicU64 = AtomicU64::new(0);

    /// System allocator wrapper that tallies requested bytes. The counter
    /// updates are relaxed: it is an independent monotonic sum, read only
    /// at bench-run boundaries where the run's own joins provide the
    /// happens-before edges.
    struct CountingAllocator;

    // SAFETY: every method delegates verbatim to `System`, which upholds
    // the GlobalAlloc contract; the counter updates touch no allocator
    // state and cannot allocate (atomics only), so there is no reentrancy.
    unsafe impl GlobalAlloc for CountingAllocator {
        // SAFETY: unsafe-by-signature (trait contract); body only counts
        // and delegates to `System`.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
            // SAFETY: caller's layout obligations are forwarded unchanged.
            unsafe { System.alloc(layout) }
        }

        // SAFETY: unsafe-by-signature (trait contract); body only counts
        // and delegates to `System`.
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
            // SAFETY: caller's layout obligations are forwarded unchanged.
            unsafe { System.alloc_zeroed(layout) }
        }

        // SAFETY: unsafe-by-signature (trait contract); body only
        // delegates to `System`.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: ptr/layout came from this allocator, i.e. `System`.
            unsafe { System.dealloc(ptr, layout) }
        }

        // SAFETY: unsafe-by-signature (trait contract); body only counts
        // and delegates to `System`.
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // A grow allocates the delta; a shrink allocates nothing.
            if new_size > layout.size() {
                ALLOCATED.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
            }
            // SAFETY: ptr/layout came from this allocator; new_size
            // obligations are the caller's, forwarded unchanged.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_agree_with_the_feature_flag() {
        if tracking_enabled() {
            let before = allocated_bytes();
            let block = vec![0u8; 1 << 16];
            std::hint::black_box(&block);
            assert!(allocated_bytes() >= before + (1 << 16));
        } else {
            assert_eq!(allocated_bytes(), 0);
        }
    }
}
