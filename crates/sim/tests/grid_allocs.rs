//! The spatial grid costs a fixed handful of heap allocations however many
//! cells it has, and moving nodes costs none. Its members live in one
//! cell-sorted array, so a per-cell vector coming back (one allocation per
//! occupied cell, and a push that grows one on every migration) fails here.
//! The count is per thread, so the test harness's own threads do not
//! disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wsan_sim::{Area, NodeId, Point, SpatialGrid};

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

/// Heap allocations this thread makes while running `f`.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// A deterministic scatter of `n` points over a `side`-metre square.
fn scatter(n: u32, side: f64) -> impl Iterator<Item = Point> + Clone {
    (0..n).map(move |i| {
        let (a, b) = (i.wrapping_mul(2_654_435_761), i.wrapping_mul(40_503));
        Point::new(
            f64::from(a % 100_001) / 100_000.0 * side,
            f64::from(b % 100_001) / 100_000.0 * side,
        )
    })
}

/// 100 m cells on a 2.5 km square: 25×25 cells.
const AREA: Area = Area { width: 2500.0, height: 2500.0 };

/// Where node `i` moves: another node's starting point (a permutation).
fn target(i: u32, points: &[Point]) -> Point {
    points[(i as usize * 7_919 + 13) % points.len()]
}

#[test]
fn building_a_grid_costs_a_fixed_number_of_allocations() {
    let (grid, built) = allocs_in(|| SpatialGrid::new(AREA, 100.0, scatter(10_000, 2500.0)));
    assert_eq!(grid.len(), 10_000);
    // Three at the time of writing: the cell offsets, the members and
    // the node-to-cell map. One vector per cell would be over 600.
    assert!(built <= 4, "building a 25×25 grid of 10 000 nodes made {built} allocations");
}

#[test]
fn relocating_never_allocates() {
    let points: Vec<Point> = scatter(10_000, 2500.0).collect();
    let mut grid = SpatialGrid::new(AREA, 100.0, points.iter().copied());
    let cell = |p: Point| ((p.x / 100.0) as u32).min(24) + 25 * ((p.y / 100.0) as u32).min(24);
    let crossings = (0..10_000u32).filter(|&i| cell(points[i as usize]) != cell(target(i, &points)));
    assert!(crossings.count() > 9_000, "most moves cross cells");
    let ((), moved) = allocs_in(|| {
        for i in 0..10_000u32 {
            grid.relocate(NodeId(i), target(i, &points));
        }
    });
    assert_eq!(moved, 0, "10 000 relocations made {moved} allocations");
    // The moves landed: each node is found within a metre of its target.
    let mut found = Vec::new();
    for i in (0..10_000u32).step_by(97) {
        found.clear();
        grid.for_each_within(target(i, &points), 1.0, |id, _| found.push(id));
        assert!(found.contains(&NodeId(i)), "node {i} is not at its target");
    }
}
