//! The counting `#[global_allocator]` behind `allocs_per_event`: the
//! system allocator plus two relaxed atomics, always on, so an untraced
//! and a traced repetition pay the same (constant) price.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to [`System`] and counts calls and bytes.
pub struct CountingAlloc;

// Relaxed: the counters publish no other data; they are statistics read
// after the threads that bumped them were joined.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract is therefore the one callers rely on; the
// counter updates touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place still asks the allocator for memory: count it.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, all passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocation calls, bytes requested)` since process start.
pub fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_every_allocation_of_this_thread() {
        // Other test threads allocate concurrently, so only a lower
        // bound is exact here; the binary's single-threaded workloads
        // read exact deltas.
        let (a0, b0) = snapshot();
        let boxes: Vec<Box<[u8; 64]>> = (0..100).map(|_| Box::new([7u8; 64])).collect();
        let (a1, b1) = snapshot();
        assert!(a1 - a0 >= 101, "100 boxes + the Vec: {}", a1 - a0);
        assert!(b1 - b0 >= 100 * 64);
        drop(boxes);
        let mut v: Vec<u64> = Vec::with_capacity(1);
        let (a2, _) = snapshot();
        v.extend(0..1000u64); // forces reallocs
        let (a3, _) = snapshot();
        assert!(a3 > a2, "realloc growth is counted");
        assert_eq!(v.len(), 1000);
    }
}
