//! A `RouteTable` costs a handful of heap allocations, however many
//! ordered pairs its graph has: the `ArcTable`'s two arrays and the growth
//! of the short list of diverted pairs. The diversion search walks every
//! pair in fixed-size buffers, so a per-pair allocation coming back makes
//! `K(3, 3)` (1 260 pairs) cost hundreds more than `K(2, 3)` (132). The
//! count is per thread, so the test harness's own threads do not disturb
//! it.

use kautz::RouteTable;
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

/// Heap allocations this thread makes while building the route table of
/// `K(degree, 3)`.
fn allocs_to_build(degree: u8) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let table = RouteTable::new(degree, 3).expect("a cell graph");
    let after = ALLOCS.with(Cell::get);
    assert_eq!(table.node_count(), (degree as usize + 1) * (degree as usize).pow(2));
    after - before
}

#[test]
fn route_tables_cost_a_handful_of_allocations() {
    // 5 and 7 at the time of writing: two for the arc table, the rest the
    // doubling of the diverted-pair list (12 and 48 pairs).
    for degree in [2, 3] {
        let allocs = allocs_to_build(degree);
        assert!(allocs <= 8, "K({degree}, 3) made {allocs} allocations");
    }
}
