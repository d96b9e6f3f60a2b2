//! A whole flooding run costs a fixed handful of heap allocations: the
//! timing wheel keeps its events in one pool of fixed-size blocks, which
//! grows by doubling, so a wheel that allocates storage per bucket (one
//! vector for every bucket's first push, and a reallocation each time a
//! bucket outgrows it) fails here. The count is per thread, so the test
//! harness's own threads do not disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wsan_sim::flood::FloodProtocol;
use wsan_sim::{runner, ActuatorPlacement, Area, SensorPlacement, SimConfig, SimDuration};

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

/// The benchmark's local-flood scenario at 200 sensors: the paper's
/// density, two actuators, one source sending a packet a second, two
/// faults, speeds up to 3 m/s, four simulated seconds.
fn small_flood() -> SimConfig {
    let mut cfg = SimConfig::paper();
    cfg.sensors = 200;
    cfg.actuators = 2;
    cfg.placement = ActuatorPlacement::UniformRandom;
    cfg.area = Area::new(500.0, 500.0);
    cfg.sensor_placement = SensorPlacement::UniformArea;
    cfg.mobility.max_speed = 3.0;
    cfg.warmup = SimDuration::from_secs(1);
    cfg.duration = SimDuration::from_secs(3);
    cfg.traffic.rate_bps = 8_000.0;
    cfg.traffic.sources_per_round = 1;
    cfg.traffic.round_interval = SimDuration::from_secs(5);
    cfg.faults.count = 2;
    cfg
}

#[test]
fn a_flooding_run_costs_a_fixed_handful_of_allocations() {
    let (summary, allocs) = allocs_in(|| runner::run(small_flood(), &mut FloodProtocol::new(4)));
    assert!(summary.delivery_ratio > 0.0, "the floods reach an actuator: {summary:?}");
    // 48 in a release build and 60 in a debug one (whose shadow heap and
    // shadow map grow too) at the time of writing. A vector per wheel
    // bucket made 1 002.
    assert!(allocs <= 64, "a 200-sensor flooding run made {allocs} allocations");
}
