//! The fabric's tables cost a constant number of heap allocations,
//! whatever the graph's size: `KautzFabricProtocol::new` builds its
//! digit words and successor rows by index arithmetic, never a `Vec` or a
//! `KautzId` per arc. A per-arc allocation coming back makes `K(2, 10)`
//! (3 072 arcs) cost thousands more than `K(2, 5)` (96). The count is per
//! thread, so the test harness's own threads do not disturb it.

use refer_baselines::KautzFabricProtocol;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread that is tearing down may still free and allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is therefore the one callers rely on; the counter
// is a const-initialised thread-local `Cell`, so bumping it neither
// allocates nor touches allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place still asks the allocator for memory: count it.
        count();
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, all passed through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations this thread makes while building the fabric for
/// `K(degree, k)`.
fn allocs_to_build(degree: u8, k: usize) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let fabric = KautzFabricProtocol::new(degree, k);
    let after = ALLOCS.with(Cell::get);
    assert_eq!(fabric.node_count(), 3 << (k - 1));
    after - before
}

#[test]
fn fabric_tables_cost_a_constant_number_of_allocations() {
    let small = allocs_to_build(2, 5);
    let large = allocs_to_build(2, 10);
    assert_eq!(small, large, "K(2, 5) and K(2, 10) must allocate alike");
    assert!(large <= 4, "K(2, 10) made {large} allocations");
}
