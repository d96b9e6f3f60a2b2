//! Allocation-lean REFER hot path: in steady state the smoke scenario
//! stays under 0.10 heap allocations per handler event.
//!
//! With packet records in a hash map and Kautz IDs on the heap the same
//! measure read 0.75; with node state in five `NodeId`-keyed trees, 0.156;
//! with `KautzId` roster rows, whose maintenance ticks allocated neighbour
//! lists, 0.137 (13 224 over 96 540 events). With cell vertices named by
//! their arc-table index it reads 0.073 (7 040 over 96 540, exactly: the
//! run is seeded). A per-hop `Vec` allocation coming back adds one per
//! data hop, and a per-tick neighbour list one per maintenance tick, so
//! tier-1 catches either without the benchmark. The count is per thread,
//! so the test harness's own threads do not disturb it.
//!
//! The relay's route choice itself allocates nothing: a second case
//! counts `route_choices` over every ordered pair of two cell graphs.

use kautz::RouteTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use refer::routing::route_choices;
use refer::{ReferConfig, ReferMsg, ReferProtocol};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use wsan_sim::{runner, Ctx, DataId, Message, NodeId, Protocol, SimConfig, SimDuration};

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

/// REFER with every handler invocation counted — the benchmark's `events`.
struct Counted {
    inner: ReferProtocol,
    events: u64,
}

impl Protocol for Counted {
    type Payload = ReferMsg;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_init(&mut self, ctx: &mut Ctx<ReferMsg>) {
        self.inner.on_init(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<ReferMsg>, at: NodeId, msg: Message<ReferMsg>) {
        self.events += 1;
        self.inner.on_message(ctx, at, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<ReferMsg>, at: NodeId, tag: u64) {
        self.events += 1;
        self.inner.on_timer(ctx, at, tag);
    }

    fn on_app_data(&mut self, ctx: &mut Ctx<ReferMsg>, src: NodeId, data: DataId) {
        self.events += 1;
        self.inner.on_app_data(ctx, src, data);
    }

    fn on_ack(&mut self, ctx: &mut Ctx<ReferMsg>, at: NodeId, peer: NodeId) {
        self.events += 1;
        self.inner.on_ack(ctx, at, peer);
    }

    fn on_send_expired(
        &mut self,
        ctx: &mut Ctx<ReferMsg>,
        at: NodeId,
        peer: NodeId,
        payload: ReferMsg,
        attempts: u32,
    ) {
        self.events += 1;
        self.inner.on_send_expired(ctx, at, peer, payload, attempts);
    }

    fn on_fault_rotation(&mut self, ctx: &mut Ctx<ReferMsg>, failed: &[NodeId], recovered: &[NodeId]) {
        self.inner.on_fault_rotation(ctx, failed, recovered);
    }
}

/// `(allocations, handler events)` of one smoke run of `seconds` measured
/// seconds, set-up included.
fn run_for(seconds: u64) -> (u64, u64) {
    let mut cfg = SimConfig::smoke();
    cfg.duration = SimDuration::from_secs(seconds);
    let protocol = Counted { inner: ReferProtocol::new(ReferConfig::default()), events: 0 };
    let before = ALLOCS.with(Cell::get);
    let (summary, protocol) = runner::run_owned(cfg, protocol);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(summary.delivery_ratio > 0.7, "the run must carry traffic: {summary:?}");
    (allocs, protocol.events)
}

#[test]
fn steady_state_stays_under_0_10_allocations_per_event() {
    // Construction is the same in both runs (same seed), so the difference
    // is the steady state: what a packet costs per handler event.
    let (short_allocs, short_events) = run_for(30);
    let (long_allocs, long_events) = run_for(240);
    let (allocs, events) = (long_allocs - short_allocs, long_events - short_events);
    assert!(events > 50_000, "too few events to judge: {events}");
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event < 0.10,
        "{allocs} allocations over {events} handler events = {per_event:.3} per event"
    );
}

#[test]
fn route_choices_never_allocates() {
    for (d, k) in [(2u8, 3usize), (3, 3)] {
        let table = RouteTable::new(d, k).expect("valid");
        let n = table.node_count();
        let mut rng = StdRng::seed_from_u64(1);
        let forced = std::iter::once(None).chain((0..=d).map(Some));
        let before = ALLOCS.with(Cell::get);
        for digit in forced {
            for (u, v) in (0..n).flat_map(|u| (0..n).map(move |v| (u, v))) {
                std::hint::black_box(route_choices(&table, u, v, digit, &mut rng).ok());
            }
        }
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(allocs, 0, "K({d},{k}): route_choices allocated {allocs} times");
    }
}
