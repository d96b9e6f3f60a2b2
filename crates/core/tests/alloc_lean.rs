//! Allocation-lean REFER hot path: in steady state the smoke scenario
//! stays under 0.01 heap allocations per handler event.
//!
//! With packet records in a hash map and Kautz IDs on the heap the same
//! measure read 0.75; with node state in five `NodeId`-keyed trees, 0.156;
//! with `KautzId` roster rows, whose maintenance ticks allocated neighbour
//! lists, 0.137 (13 224 over 96 540 events); with cell vertices named by
//! their arc-table index, 0.073 (7 037 over 96 540). Since the two-hop
//! access search fills a reused buffer it read 0.063 (6 115 over 96 540,
//! exactly: the run is seeded; a debug build counts 6 117), and since the
//! maintenance tick keeps its lists across ticks it reads 0.0038 (369 over
//! 96 540; a debug build counts 371).
//! A per-hop `Vec` allocation coming back adds one per data hop, a
//! per-search neighbour list one per two-hop search, and a per-tick
//! snapshot one per member every 5 s, so tier-1 catches each without the
//! benchmark. The count is per thread, so the test harness's own threads
//! do not disturb it.
//!
//! The relay's route choice itself allocates nothing: a second case
//! counts `route_choices` over every ordered pair of two cell graphs. A
//! path query's broadcast allocates nothing per receiver (its path is
//! shared), and the two-hop access search and the maintenance tick
//! nothing once their buffers have grown.

use kautz::RouteTable;
use rand::rngs::StdRng;
use rand::SeedableRng;
use refer::routing::route_choices;
use refer::{ReferConfig, ReferMsg, ReferProtocol};
use refer_proto::{IoCtx, ProtoCtx, WorldView};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use wsan_sim::{
    runner, Ctx, DataId, DropReason, EnergyAccount, FaultModel, HopReason, Message, NodeId,
    NodeKind, Point, Protocol, SimConfig, SimDuration, SimTime,
};

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
fn steady_state_stays_under_0_01_allocations_per_event() {
    // Construction is the same in both runs (same seed), so the difference
    // is the steady state: what a packet costs per handler event.
    let (short_allocs, short_events) = run_for(30);
    let (long_allocs, long_events) = run_for(240);
    let (allocs, events) = (long_allocs - short_allocs, long_events - short_events);
    assert!(events > 50_000, "too few events to judge: {events}");
    let per_event = allocs as f64 / events as f64;
    assert!(
        per_event < 0.01,
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

/// Allocations made by `f`, on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn a_path_query_broadcast_allocates_nothing_per_receiver() {
    // A fresh paper deployment per broadcast, so every measured broadcast
    // meets the same queue: a beacon (no heap payload) from the same
    // sender is the baseline, and the query may add nothing to it.
    let fresh = || {
        runner::construct(SimConfig::paper(), &mut ReferProtocol::default(), SimDuration::ZERO)
    };
    let ctx = fresh();
    let mut heard = Vec::new();
    let mut fan_out: Vec<(usize, NodeId)> = ctx
        .sensor_ids()
        .iter()
        .map(|&s| {
            ctx.physical_neighbors_into(s, &mut heard);
            (heard.len(), s)
        })
        .filter(|&(n, _)| n > 0)
        .collect();
    fan_out.sort();
    // The sparsest sender reaches 4 nodes, the densest 43.
    let (sparse, dense) = (fan_out[0], fan_out[fan_out.len() - 1]);
    assert!(sparse.0 <= 4 && dense.0 >= 40, "fan-outs {} and {}", sparse.0, dense.0);
    let path: Arc<[(NodeId, f64)]> = Arc::new([(NodeId(1), 99.5), (NodeId(2), 98.0)]);
    for (receivers, from) in [sparse, dense] {
        let broadcast = |payload: ReferMsg| {
            let mut ctx = fresh();
            allocations(|| ctx.broadcast(from, 256, EnergyAccount::Construction, payload))
        };
        let (reached, beacon) = broadcast(ReferMsg::Beacon);
        let path = Arc::clone(&path);
        let query = ReferMsg::PathQuery { qid: 0, ttl: 1, target: NodeId(0), path };
        let (reached_too, allocs) = broadcast(query);
        assert_eq!((reached, reached_too), (receivers, receivers), "every neighbour receives");
        assert_eq!(
            allocs, beacon,
            "a path query to {receivers} receivers allocated {allocs} times, a beacon {beacon}"
        );
    }
}

#[test]
fn the_two_hop_access_search_allocates_nothing_after_its_first_call() {
    for model in [FaultModel::Oracle, FaultModel::Discovered] {
        let mut cfg = SimConfig::smoke();
        cfg.faults.model = model;
        let mut refer = ReferProtocol::default();
        // Past construction (cells are ready at 5 s), so members exist.
        let ctx = runner::construct(cfg, &mut refer, SimDuration::from_secs(10));
        let sensors = ctx.sensor_ids().to_vec();
        let sweep = |refer: &mut ReferProtocol| {
            let mut has_relay = |s: &NodeId| refer.access_relay(&ctx, *s).is_some();
            allocations(|| sensors.iter().filter(|s| has_relay(s)).count())
        };
        let (found, growth) = sweep(&mut refer);
        assert!(found > 0, "{model:?}: some sensor has a relay");
        assert!(growth < 8, "{model:?}: the first sweep allocated {growth} times");
        let (found_again, allocs) = sweep(&mut refer);
        assert_eq!(found_again, found, "{model:?}: the search is a pure query");
        assert_eq!(allocs, 0, "{model:?}: the second sweep allocated {allocs} times");
    }
}

/// A driver over a frozen world that reports the nodes in `dead` broken
/// down and refuses every frame and timer. A maintenance tick under it
/// scans, scores and picks as under a live one but never hands a vertex
/// over, so each pass repeats the one before, and the driver allocates
/// nothing of its own: what a pass allocates is REFER's.
struct Refusing {
    io: IoCtx<ReferMsg>,
    dead: Vec<NodeId>,
    /// Frames the tick tried to send: a handover that found its pick.
    refused: u64,
}

impl ProtoCtx<ReferMsg> for Refusing {
    fn now(&self) -> SimTime {
        self.io.now()
    }
    fn config(&self) -> &SimConfig {
        self.io.config()
    }
    fn rng(&mut self) -> &mut StdRng {
        self.io.rng()
    }
    fn node_count(&self) -> usize {
        self.io.node_count()
    }
    fn sensor_ids(&self) -> &[NodeId] {
        self.io.sensor_ids()
    }
    fn actuator_ids(&self) -> &[NodeId] {
        self.io.actuator_ids()
    }
    fn kind(&self, id: NodeId) -> NodeKind {
        self.io.kind(id)
    }
    fn position(&self, id: NodeId) -> Point {
        self.io.position(id)
    }
    fn range(&self, id: NodeId) -> f64 {
        self.io.range(id)
    }
    fn battery(&self, id: NodeId) -> f64 {
        self.io.battery(id)
    }
    fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.io.distance(a, b)
    }
    fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        self.io.in_range(a, b)
    }
    fn is_faulty(&self, id: NodeId) -> bool {
        self.dead.contains(&id)
    }
    fn self_faulty(&self, id: NodeId) -> bool {
        self.dead.contains(&id)
    }
    fn link_ok(&self, a: NodeId, b: NodeId) -> bool {
        !self.dead.contains(&a) && !self.dead.contains(&b) && self.io.link_ok(a, b)
    }
    fn neighbors(&self, id: NodeId) -> Vec<NodeId> {
        self.io.neighbors(id)
    }
    fn physical_neighbors_into(&self, id: NodeId, buf: &mut Vec<NodeId>) {
        self.io.physical_neighbors_into(id, buf);
    }
    fn queue_delay(&self, id: NodeId) -> SimDuration {
        self.io.queue_delay(id)
    }
    fn is_congested(&self, id: NodeId) -> bool {
        self.io.is_congested(id)
    }
    fn service_time(&self, size_bits: u32) -> SimDuration {
        self.io.service_time(size_bits)
    }
    fn send(&mut self, _: NodeId, _: NodeId, _: u32, _: EnergyAccount, _: ReferMsg) -> bool {
        self.refused += 1;
        false
    }
    fn send_acked(&mut self, _: NodeId, _: NodeId, _: u32, _: EnergyAccount, _: ReferMsg) {
        self.refused += 1;
    }
    fn broadcast(&mut self, _: NodeId, _: u32, _: EnergyAccount, _: ReferMsg) -> usize {
        self.refused += 1;
        0
    }
    fn set_timer(&mut self, _node: NodeId, _delay: SimDuration, _tag: u64) {}
    fn trace_hop(&mut self, _: DataId, _: NodeId, _: NodeId, _: HopReason) {}
    fn deliver_data_with_hops(&mut self, _data: DataId, _at: NodeId, _hops: u32) {}
    fn drop_data_reason(&mut self, _data: DataId, _reason: DropReason) {}
    fn record_suspicion(&mut self, _node: NodeId) {}
    fn record_eviction(&mut self, _node: NodeId) {}
    fn record_handover(&mut self) {}
    fn data_origin(&self, _data: DataId) -> Option<NodeId> {
        None
    }
    fn data_size_bits(&self, _data: DataId) -> Option<u32> {
        None
    }
    fn data_dest(&self, _data: DataId) -> Option<NodeId> {
        None
    }
    fn tracing_active(&self) -> bool {
        false
    }
}

#[test]
fn a_maintenance_tick_allocates_nothing_once_its_buffers_have_grown() {
    for model in [FaultModel::Oracle, FaultModel::Discovered] {
        let mut cfg = SimConfig::smoke();
        cfg.faults.model = model;
        let mut refer = ReferProtocol::default();
        // Cells are ready at 5 s and every sleeper's first probe timer has
        // fired by 36 s, so members hold candidates.
        let sim = runner::construct(cfg, &mut refer, SimDuration::from_secs(60));
        let mut io = IoCtx::new(WorldView::from_sim(&sim));
        io.advance_to(sim.now());
        let cells = refer.layout().expect("cells planned").cells.len();
        let mut members: Vec<NodeId> =
            (0..cells).flat_map(|c| refer.roster(c).expect("a cell").into_values()).collect();
        members.sort();
        members.dedup();
        // Every other sensor member breaks down: the rest heal around it.
        let sensors = members.iter().filter(|&&m| matches!(io.kind(m), NodeKind::Sensor));
        let dead: Vec<NodeId> = sensors.step_by(2).copied().collect();
        let mut ctx = Refusing { io, dead: dead.clone(), refused: 0 };
        for &d in &dead {
            // Under local knowledge a node is down once it is suspected: an
            // unacknowledged frame to it raises the suspicion.
            let (at, frame) = (members[0], ReferMsg::Probe);
            refer_proto::SansIo::on_send_expired(&mut refer, &mut ctx, at, d, frame, 1);
        }
        let pass = |refer: &mut ReferProtocol, ctx: &mut Refusing| {
            ctx.refused = 0;
            let ((), allocs) = allocations(|| {
                for &m in &members {
                    refer.maintain(ctx, m);
                }
            });
            (ctx.refused, allocs)
        };
        let (picks, growth) = pass(&mut refer, &mut ctx);
        assert!(picks > 0, "{model:?}: some handover found its pick");
        assert!(growth < 16, "{model:?}: the first pass allocated {growth} times");
        let (picks_again, allocs) = pass(&mut refer, &mut ctx);
        assert_eq!(picks_again, picks, "{model:?}: a refused handover changes nothing");
        assert_eq!(allocs, 0, "{model:?}: the second pass allocated {allocs} times");
    }
}
