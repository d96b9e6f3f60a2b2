//! The sharded event-loop engine: grid-cell shards stepped in conservative
//! time windows by a team of threads, the caller among them.
//!
//! # Architecture
//!
//! The world is partitioned into **shards** — rectangular tiles of
//! [`SpatialGrid`](crate::SpatialGrid) cells. Every node is owned by the
//! shard of its *initial* cell (ownership is static; mobility moves a
//! node's position, never its home). Each shard carries a full replica of
//! the world's read-mostly state (positions, fault flags, the spatial
//! index) plus authoritative state for its own nodes: their event heap,
//! pending ACKs, data records for packets they originated, radio busy
//! horizons and energy meters.
//!
//! Execution proceeds in **windows** of at most `W = MAC_OVERHEAD`
//! microseconds. Within a window every shard processes its own heap
//! independently, on whichever thread holds its stripe; events destined
//! for another shard's nodes accumulate in per-destination outboxes and
//! are exchanged at the window edge. This is conservative
//! (Chandy–Misra-style) synchronization with `W` as the lookahead:
//!
//! * every cross-node event the simulator schedules — a frame delivery
//!   (`service ≥ MAC_OVERHEAD`), a link-layer ACK (`MAC_OVERHEAD +
//!   jitter`) — lands at least `MAC_OVERHEAD ≥ W` after the moment it is
//!   sent, so an event emitted inside window `[t0, t1)` always fires at or
//!   after `t1`: no shard can ever receive an event for a time it has
//!   already simulated past;
//! * central drivers (traffic rounds, fault rotation, mobility) run on the
//!   caller **between** windows, and windows never straddle them.
//!
//! The one deliberate exception is *claims*: when a shard delivers (or
//! drops) a packet whose origin lives elsewhere, the bookkeeping against
//! the origin's [`DataRecord`](crate::DataRecord) travels as a
//! [`DeliverClaim`](crate::ctx::EventKind)/`DropClaim` carrying the true
//! event time. Claims may arrive "in the past"; they only settle metrics
//! (first-delivery wins, a pure function of the claim set, not of arrival
//! order within a timestamp) and never spawn further events, so the
//! lookahead argument is unaffected.
//!
//! # Threads
//!
//! [`ShardedConfig::threads`] counts the threads that run shards, **the
//! caller included**: thread `t` of `T` runs stripe `t` — shards `t`,
//! `t + T`, … — of every window's run phase and flush phase, and the
//! caller is thread 0. Between windows the caller alone is the
//! coordinator (window selection, central drivers, the trace merge into
//! the user's sinks) while the `T − 1` spawned workers sit at the top
//! barrier. At `threads: 1` nothing is spawned, the barrier has arity one
//! and the whole engine runs on the caller; it is the same loop, not a
//! special case.
//!
//! A panic has two ways out, and neither may leave a thread waiting at a
//! barrier the others will never reach. One raised inside a phase — a
//! protocol hook, on any thread, the caller's stripe too — is caught
//! where it happens and parked, the thread goes on to keep the window's
//! barrier arity, and the caller re-raises the first payload when the
//! window closes. One raised in coordinator-only code (a user
//! [`TraceSink`], a central driver) unwinds out of the caller's loop. All
//! such code runs while every worker is at, or on its way to, the top
//! barrier, so a drop guard on the caller that stores `stop` and crosses
//! that barrier *once* releases every worker; the same guard ends a
//! normal run, and `thread::scope` joins the workers before the panic
//! travels on.
//!
//! # Determinism
//!
//! The output is a pure function of the [`SimConfig`] — independent of the
//! thread count and of the host:
//!
//! * the shard count `S` (and the node→shard map) derives only from the
//!   topology, never from the machine;
//! * every event is heap-ordered by `(time, home-node, per-node counter)`
//!   — a canonical key assigned deterministically because each shard
//!   injects its inbox batches sorted by source shard id before running;
//! * randomness is split into streams that are keyed by *identity*, not by
//!   execution order: one simulator stream per node (jitter and loss draws
//!   for the node's own transmissions) and one protocol stream per shard;
//! * shard trace buffers are merged in shard-id order at every window
//!   edge.
//!
//! Consequently `threads = 1` and `threads = 64` produce byte-identical
//! trace streams and bit-identical summaries. Note the sharded engine's
//! schedule is *not* the serial engine's: the serial loop draws all
//! randomness from one master RNG in global event order, which no
//! partitioned execution can reproduce. The sharded engine is therefore
//! verified against **itself at one thread** (its own serial reference).
//!
//! # Unsupported configurations
//!
//! `faults.battery_death` is rejected by [`SimConfig::validate`] under
//! this engine (rotation runs centrally and cannot see per-shard battery
//! state). `radio.receiver_occupancy` is accepted and ignored: this engine
//! has no receiver-occupancy model (see `Ctx::bump_receiver`), so a
//! figure must state which engine drew it.

use crate::config::{Engine, ShardedConfig, SimConfig, MAC_OVERHEAD};
use crate::ctx::{Ctx, EventKind, Scheduled};
use crate::metrics::RunSummary;
use crate::node::NodeId;
use crate::protocol::Protocol;
use crate::time::SimTime;
use crate::trace::{TraceEvent, TraceSink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// Marker for protocols that can run under the sharded engine.
///
/// The engine clones the protocol once per shard after `on_init` and runs
/// each clone against only its shard's events, so an implementation must
/// be **node-local**: all state it keeps must be attributable to single
/// nodes (per-node maps, per-node dedup sets), every hook may only act as
/// the node the hook names (no reaching into other nodes' state), and
/// [`Ctx::set_timer`](crate::Ctx::set_timer) may only target the acting
/// node itself — a zero-delay timer on a *remote* node would undercut the
/// engine's lookahead. Protocols holding genuinely global mutable state
/// cannot implement this soundly and must stay on [`Engine::Serial`].
pub trait ShardableProtocol: Protocol + Clone + Send
where
    Self::Payload: Clone + Send,
{
}

/// One source's batch of routed events: `(source shard id, events)`.
type Batch<Pl> = (u32, Vec<(SimTime, EventKind<Pl>)>);

/// Batches routed from other shards (and from the coordinator's central
/// drivers, tagged [`CENTRAL_SRC`]) awaiting injection at the next window
/// edge.
struct Inbox<Pl> {
    batches: Vec<Batch<Pl>>,
    /// Earliest event time waiting in `batches` (`u64::MAX` when empty):
    /// lets the coordinator skip idle windows without locking shard heaps.
    min_at: u64,
}

impl<Pl> Default for Inbox<Pl> {
    fn default() -> Self {
        Inbox { batches: Vec::new(), min_at: u64::MAX }
    }
}

/// Source tag for batches the coordinator injects (central drivers);
/// sorts after every real shard so injection order stays canonical.
const CENTRAL_SRC: u32 = u32::MAX;

/// Per-shard control block hung off a shard's [`Ctx`]. Its presence is
/// what switches the context into sharded semantics (event routing,
/// per-identity RNG streams, claim-based remote bookkeeping).
pub(crate) struct ShardCtl<Pl> {
    /// This shard's id.
    pub(crate) me: u32,
    /// node → owning shard (static, from the node's initial grid cell).
    pub(crate) owner: Vec<u32>,
    /// The node whose event is currently being dispatched; selects the
    /// simulator RNG stream ([`Ctx::sim_rng`]).
    pub(crate) active: NodeId,
    /// Per-node simulator RNG streams (jitter, loss). Seeded identically
    /// in every shard; each is only ever drawn at its owner.
    pub(crate) node_rng: Vec<StdRng>,
    /// This shard's protocol RNG stream ([`Ctx::rng`]).
    pub(crate) proto_rng: StdRng,
    /// Per-node event sequence counters: the canonical tie-break key is
    /// `(home_node << 32) | counter`.
    pub(crate) next_seq: Vec<u32>,
    /// Per-node data-id counters (`DataId = origin << 32 | counter`).
    pub(crate) next_data: Vec<u32>,
    /// Events bound for other shards, indexed by destination; swapped
    /// into destination inboxes at the window edge.
    pub(crate) outbox: Vec<Vec<(SimTime, EventKind<Pl>)>>,
    /// Trace events recorded this window; merged by the coordinator in
    /// shard-id order.
    pub(crate) trace_buf: Vec<TraceEvent>,
    /// Whether any trace consumer is attached to the run.
    pub(crate) tracing: bool,
}

impl<Pl> ShardCtl<Pl> {
    /// The canonical heap key for the next event homed at `home`.
    pub(crate) fn alloc_seq(&mut self, home: NodeId) -> u64 {
        let c = self.next_seq[home.index()];
        self.next_seq[home.index()] = c + 1;
        (u64::from(home.0) << 32) | u64::from(c)
    }
}

/// One shard's world replica plus its protocol clone.
struct ShardState<P: Protocol> {
    ctx: Ctx<P::Payload>,
    protocol: P,
}

/// Static node→shard assignment derived purely from the topology.
struct ShardMap {
    owner: Vec<u32>,
    shards: usize,
}

/// Tiles the grid into `Sx × Sy` rectangular shard bands, with band
/// boundaries placed by the node-count marginals (prefix sums over grid
/// columns/rows) so shards start out load-balanced.
fn build_map<Pl>(ctx: &Ctx<Pl>, requested: usize) -> ShardMap {
    let (cols, rows) = ctx.grid.dims();
    let cells = cols * rows;
    let shards = if requested == 0 { (cells / 9).clamp(1, 16) } else { requested.clamp(1, cells) };
    // Sx = the largest divisor of S not exceeding sqrt(S): the squarest
    // exact factorization, so tiles have small perimeter (less cross-shard
    // traffic) without leaving any shard without a tile.
    let mut sx = 1;
    for d in 1..=shards {
        if shards % d == 0 && d * d <= shards {
            sx = d;
        }
    }
    let sy = shards / sx;

    let mut col_n = vec![0u64; cols];
    let mut row_n = vec![0u64; rows];
    for id in 0..ctx.nodes.len() {
        let cell = ctx.grid.cell_of_node(NodeId(id as u32));
        col_n[cell % cols] += 1;
        row_n[cell / cols] += 1;
    }
    let col_band = bands(&col_n, sx);
    let row_band = bands(&row_n, sy);

    let owner = (0..ctx.nodes.len())
        .map(|id| {
            let cell = ctx.grid.cell_of_node(NodeId(id as u32));
            col_band[cell % cols] * sy as u32 + row_band[cell / cols]
        })
        .collect();
    ShardMap { owner, shards }
}

/// Splits `marginal.len()` contiguous slots into `k` bands with roughly
/// equal total mass, deterministically: slot `i` (mass `m`, preceding
/// cumulative mass `cum`) goes to band `⌊(2·cum + m)·k / (2·total)⌋`.
fn bands(marginal: &[u64], k: usize) -> Vec<u32> {
    let len = marginal.len();
    let total: u64 = marginal.iter().sum();
    if k <= 1 || total == 0 {
        return (0..len).map(|i| ((i * k.max(1)) / len) as u32).collect();
    }
    let mut out = Vec::with_capacity(len);
    let mut cum = 0u64;
    for &m in marginal {
        let mid = 2 * cum + m;
        let band = ((mid as u128 * k as u128) / (2 * total as u128)) as u64;
        out.push(band.min(k as u64 - 1) as u32);
        cum += m;
    }
    out
}

/// Per-node simulator RNG stream: the master seed mixed with the node id
/// through a SplitMix-style odd constant.
fn node_stream(seed: u64, node: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(node as u64 + 1))
}

/// Per-shard protocol RNG stream (a different mixing constant than the
/// node streams, so the two families never collide).
fn proto_stream(seed: u64, shard: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0xD1B5_4A32_D192_ED03u64.wrapping_mul(shard as u64 + 1))
}

/// Runs one simulation under the sharded engine and returns the summary.
///
/// Reads the shard/thread/window tuning from `cfg.engine` when it is
/// [`Engine::Sharded`] (automatic everywhere otherwise). The result is a
/// pure function of `cfg` — see the module docs for the determinism
/// argument.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`SimConfig::validate`]),
/// including the sharded-specific constraints (window ≤ lookahead, no
/// battery death).
pub fn run_sharded<P>(cfg: SimConfig, protocol: &mut P) -> RunSummary
where
    P: ShardableProtocol,
    P::Payload: Clone + Send,
{
    run_sharded_with_sinks(cfg, protocol, Vec::new()).0
}

/// [`run_sharded`] with streaming trace sinks attached for the whole run,
/// mirroring [`runner::run_with_sinks`](crate::runner::run_with_sinks).
/// Sinks observe the canonical merged event stream (every window's shard
/// buffers in shard-id order), which is byte-for-byte identical at any
/// thread count.
pub fn run_sharded_with_sinks<P>(
    cfg: SimConfig,
    protocol: &mut P,
    sinks: Vec<Box<dyn TraceSink>>,
) -> (RunSummary, Vec<Box<dyn TraceSink>>)
where
    P: ShardableProtocol,
    P::Payload: Clone + Send,
{
    // Construction runs exactly like the serial engine: master context,
    // master RNG, unbounded queue, then radios reset for steady state.
    let mut master = crate::runner::boot(cfg, protocol, sinks);
    crate::runner::push_drivers(&mut master);
    let scfg = match master.cfg.engine {
        Engine::Sharded(s) => s,
        Engine::Serial => ShardedConfig::default(),
    };
    let window = if scfg.window_micros == 0 {
        MAC_OVERHEAD.as_micros()
    } else {
        scfg.window_micros
    };

    let map = build_map(&master, scfg.shards);
    let shards = map.shards;
    let threads = if scfg.threads == 0 {
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    } else {
        scfg.threads
    }
    .clamp(1, shards);

    let tracing = master.tracing_active();
    let n = master.nodes.len();
    let seed = master.cfg.seed;
    let end_micros = master.end.as_micros();

    let states: Vec<Mutex<ShardState<P>>> = (0..shards)
        .map(|sh| {
            let ctl = ShardCtl {
                me: sh as u32,
                owner: map.owner.clone(),
                active: NodeId(0),
                node_rng: (0..n).map(|i| node_stream(seed, i)).collect(),
                proto_rng: proto_stream(seed, sh),
                next_seq: vec![0; n],
                next_data: vec![0; n],
                outbox: (0..shards).map(|_| Vec::new()).collect(),
                trace_buf: Vec::new(),
                tracing,
            };
            let ctx = Ctx::new(
                master.cfg.clone(),
                master.nodes.clone(),
                master.sensors.clone(),
                master.actuators.clone(),
                master.grid.clone(),
                StdRng::seed_from_u64(seed), // never drawn: a shard's streams are in `ctl`
                Some(Box::new(ctl)),
            );
            Mutex::new(ShardState { ctx, protocol: protocol.clone() })
        })
        .collect();

    let inboxes: Vec<Mutex<Inbox<P::Payload>>> =
        (0..shards).map(|_| Mutex::new(Inbox::default())).collect();
    let heap_next: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(u64::MAX)).collect();

    // Construction-era node events (protocol sends/timers from on_init)
    // leave the master queue for their owners' inboxes; only the central
    // drivers stay behind.
    let mut per_dest = drain_node_events(&mut master, &map.owner, shards);
    deposit(&inboxes, CENTRAL_SRC, &mut per_dest);

    let window_end = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads);
    let trace_deposits: Mutex<Vec<(u32, Vec<TraceEvent>)>> = Mutex::new(Vec::new());
    // A panic inside a shard's phase (a protocol contract violation, a
    // poisoned shard lock) must not strand the other threads at a barrier
    // forever: the first payload parks here, the window protocol keeps its
    // barrier arity, and the caller re-raises it at the window's end.
    let worker_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let mut faulty_set: Vec<NodeId> = Vec::new();

    // Thread `t`'s share of the released window: stripe `t` (shards `t`,
    // `t + threads`, …) of the run phase, then of the flush phase, each
    // closed by a barrier.
    let work_window = |t: usize| {
        let w_end = window_end.load(Ordering::Acquire);
        let stripe = |phase: &dyn Fn(&Mutex<ShardState<P>>)| {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                states.iter().skip(t).step_by(threads).for_each(phase);
            }));
            if let Err(payload) = caught {
                worker_panic
                    .lock()
                    .expect("the slot is only ever assigned under its lock")
                    .get_or_insert(payload);
            }
        };
        stripe(&|state| run_shard_window(state, &inboxes, &heap_next, w_end));
        // Every shard has finished the window before anyone flushes: a
        // batch deposited mid-window would be injected by some shards and
        // missed by others depending on thread scheduling, which would
        // make sequence assignment (and so the canonical order) depend on
        // the thread count.
        barrier.wait();
        stripe(&|state| flush_shard_window(state, &inboxes, &trace_deposits));
        barrier.wait();
    };

    std::thread::scope(|scope| {
        let (barrier, stop, work_window) = (&barrier, &stop, &work_window);
        for t in 1..threads {
            scope.spawn(move || loop {
                barrier.wait(); // parked here until a window is released
                if stop.load(Ordering::Acquire) {
                    break;
                }
                work_window(t);
            });
        }

        // From here on the caller is the coordinator and thread 0. Whatever
        // below is not inside `work_window` runs while every worker is at
        // the top barrier, so on any way out — the horizon, a parked phase
        // panic re-raised, a panic unwinding out of a sink or a central
        // driver — storing `stop` and crossing that barrier once releases
        // them all for `scope` to join.
        struct ReleaseWorkers<'a> {
            stop: &'a AtomicBool,
            barrier: &'a Barrier,
        }
        impl Drop for ReleaseWorkers<'_> {
            fn drop(&mut self) {
                self.stop.store(true, Ordering::Release);
                self.barrier.wait();
            }
        }
        let _release = ReleaseWorkers { stop, barrier };

        let mut t0: u64 = 0;
        loop {
            let central_next =
                master.queue.next_at().map(SimTime::as_micros).unwrap_or(u64::MAX);
            let shard_next = (0..shards)
                .map(|i| {
                    heap_next[i]
                        .load(Ordering::Acquire)
                        .min(inboxes[i].lock().unwrap().min_at)
                })
                .min()
                .unwrap_or(u64::MAX);
            let next_work = central_next.min(shard_next);
            if next_work > end_micros {
                break;
            }
            // Jump idle gaps, but never backwards: late claims report past
            // times and are simply settled in the next window.
            t0 = t0.max(next_work);
            if central_next <= t0 {
                let mut per_dest =
                    run_central_due(&mut master, t0, &mut faulty_set, &states, &map.owner);
                deposit(&inboxes, CENTRAL_SRC, &mut per_dest);
            }
            let central_next =
                master.queue.next_at().map(SimTime::as_micros).unwrap_or(u64::MAX);
            let t1 = (t0 + window).min(central_next).min(end_micros + 1);
            window_end.store(t1, Ordering::Release);
            barrier.wait(); // release the window
            work_window(0); // every shard ran [t0, t1) and flushed
            if let Some(payload) = worker_panic.lock().unwrap().take() {
                std::panic::resume_unwind(payload);
            }
            if tracing {
                let mut deposits = std::mem::take(&mut *trace_deposits.lock().unwrap());
                deposits.sort_by_key(|&(sh, _)| sh);
                for (_, buf) in deposits {
                    for ev in buf {
                        master.record_raw(move || ev);
                    }
                }
            }
            t0 = t1;
        }
    });

    // Claims deposited in the final window never saw another window;
    // settle them now, in shard order, so the summary is complete.
    for (sh, state) in states.iter().enumerate() {
        let mut batches = std::mem::take(&mut inboxes[sh].lock().unwrap().batches);
        if batches.is_empty() {
            continue;
        }
        batches.sort_by_key(|&(src, _)| src);
        let mut st = state.lock().unwrap();
        for (_, kind) in batches.into_iter().flat_map(|(_, events)| events) {
            // Anything but a claim was scheduled past the horizon; the
            // serial loop leaves those unprocessed too.
            settle_claim(&mut st.ctx, &kind);
        }
        if tracing {
            let buf = std::mem::take(&mut st.ctx.shard.as_mut().unwrap().trace_buf);
            for ev in buf {
                master.record_raw(move || ev);
            }
        }
    }

    // Reduce: fold every shard's meters into the master (which holds
    // construction's), in shard order, and each node's energy and transmit
    // airtime from its owner, so the summary's floats see one canonical
    // summation order — the serial engine's.
    for (sh, state) in states.into_iter().enumerate() {
        let st = state.into_inner().unwrap();
        master.metrics.merge(&st.ctx.metrics);
        master.oracle_queries.set(master.oracle_queries.get() + st.ctx.oracle_queries.get());
        for (id, node) in master.nodes.iter_mut().enumerate() {
            if map.owner[id] == sh as u32 {
                node.consumed = st.ctx.nodes[id].consumed;
                node.tx_busy_micros = st.ctx.nodes[id].tx_busy_micros;
            }
        }
    }
    crate::runner::finish(&mut master)
}

/// Dispatches on `cfg.engine`: the serial loop ([`runner::run`]
/// (crate::runner::run)) or [`run_sharded`].
pub fn run_engine<P>(cfg: SimConfig, protocol: &mut P) -> RunSummary
where
    P: ShardableProtocol,
    P::Payload: Clone + Send,
{
    match cfg.engine {
        Engine::Serial => crate::runner::run(cfg, protocol),
        Engine::Sharded(_) => run_sharded(cfg, protocol),
    }
}

/// Pops every node-homed event off the master queue (grouped per owning
/// shard, in heap order) and puts the central drivers back.
fn drain_node_events<Pl>(
    master: &mut Ctx<Pl>,
    owner: &[u32],
    shards: usize,
) -> Vec<Vec<(SimTime, EventKind<Pl>)>> {
    let mut per_dest: Vec<Vec<(SimTime, EventKind<Pl>)>> =
        (0..shards).map(|_| Vec::new()).collect();
    let mut central = Vec::new();
    while let Some(ev) = master.queue.pop() {
        match ev.kind.home() {
            Some(node) => per_dest[owner[node.index()] as usize].push((ev.at, ev.kind)),
            None => central.push(ev),
        }
    }
    for ev in central {
        master.queue.push(ev);
    }
    per_dest
}

/// Moves per-destination batches into the shard inboxes under source tag
/// `src`, maintaining each inbox's earliest-pending-time watermark.
fn deposit<Pl>(
    inboxes: &[Mutex<Inbox<Pl>>],
    src: u32,
    per_dest: &mut [Vec<(SimTime, EventKind<Pl>)>],
) {
    for (dest, batch) in per_dest.iter_mut().enumerate() {
        if batch.is_empty() {
            continue;
        }
        let batch = std::mem::take(batch);
        let min = batch.iter().map(|(at, _)| at.as_micros()).min().unwrap_or(u64::MAX);
        let mut inbox = inboxes[dest].lock().unwrap();
        inbox.min_at = inbox.min_at.min(min);
        inbox.batches.push((src, batch));
    }
}

/// Runs every central driver due at or before `t0` on the master context,
/// replicating its world-state effects (positions, fault flags) into every
/// shard, and returns the node-homed events it spawned (this round's
/// traffic emissions) for injection.
fn run_central_due<P>(
    master: &mut Ctx<P::Payload>,
    t0: u64,
    faulty_set: &mut Vec<NodeId>,
    states: &[Mutex<ShardState<P>>],
    owner: &[u32],
) -> Vec<Vec<(SimTime, EventKind<P::Payload>)>>
where
    P: ShardableProtocol,
    P::Payload: Clone + Send,
{
    let shards = states.len();
    let mut per_dest: Vec<Vec<(SimTime, EventKind<P::Payload>)>> =
        (0..shards).map(|_| Vec::new()).collect();
    loop {
        let due = match master.queue.next_at() {
            Some(at) => at.as_micros() <= t0 && at <= master.end,
            None => false,
        };
        if !due {
            break;
        }
        let Some(ev) = master.queue.pop() else { break };
        if let Some(node) = ev.kind.home() {
            // A node event spawned by an earlier driver this round
            // (EmitPacket from the traffic draw): route it out.
            per_dest[owner[node.index()] as usize].push((ev.at, ev.kind));
            continue;
        }
        master.now = ev.at;
        match ev.kind {
            EventKind::TrafficRound => crate::runner::traffic_round(master),
            EventKind::MobilityTick => {
                crate::runner::mobility_tick(master);
                // Positions are read-mostly replicas: push the new truth
                // to every shard (each keeps its own grid coherent).
                for state in states {
                    let mut st = state.lock().unwrap();
                    for &id in &master.sensors {
                        st.ctx.move_node(id, master.nodes[id.index()].position);
                    }
                }
            }
            EventKind::FaultRotation => {
                let (failed, recovered) = crate::runner::rotate_faults_core(master, faulty_set);
                for state in states {
                    let mut st = state.lock().unwrap();
                    let ShardState { ctx, protocol } = &mut *st;
                    crate::runner::flip_faults(&mut ctx.nodes, &failed, &recovered, master.now);
                    ctx.now = ctx.now.max(master.now);
                    protocol.on_fault_rotation(ctx, &failed, &recovered);
                }
            }
            _ => unreachable!("home() returned None for a non-central event"),
        }
    }
    per_dest
}

/// One shard's run phase for the window ending at `w_end`: inject pending
/// inbox batches (sorted by source for canonical sequencing), run every
/// event before `w_end`, then publish the next-event watermark. Emitted
/// cross-shard events stay in the local outbox until the flush phase.
fn run_shard_window<P>(
    state: &Mutex<ShardState<P>>,
    inboxes: &[Mutex<Inbox<P::Payload>>],
    heap_next: &[AtomicU64],
    w_end: u64,
) where
    P: ShardableProtocol,
    P::Payload: Clone + Send,
{
    let mut st = state.lock().unwrap();
    let ShardState { ctx, protocol } = &mut *st;
    let me = ctx.shard.as_ref().expect("shard context").me as usize;

    let mut batches = {
        let mut inbox = inboxes[me].lock().unwrap();
        inbox.min_at = u64::MAX;
        std::mem::take(&mut inbox.batches)
    };
    batches.sort_by_key(|&(src, _)| src);
    for (_, events) in batches {
        for (at, kind) in events {
            let home = kind.home().expect("only node events cross shards");
            let seq = ctx.shard.as_mut().expect("shard context").alloc_seq(home);
            ctx.queue.push(Scheduled { at, seq, kind });
        }
    }

    loop {
        let due = match ctx.queue.next_at() {
            Some(at) => at.as_micros() < w_end,
            None => false,
        };
        if !due {
            break;
        }
        let Some(ev) = ctx.queue.pop() else { break };
        dispatch(ctx, protocol, ev);
    }

    heap_next[me].store(
        ctx.queue.next_at().map(SimTime::as_micros).unwrap_or(u64::MAX),
        Ordering::Release,
    );
}

/// One shard's flush phase: swap this window's outboxes into their
/// destination inboxes and deposit the trace buffer. Runs strictly after
/// *every* shard's run phase (barrier-separated), so a window's deposits
/// are visible to all shards uniformly — at the next window, never
/// mid-window for some shards only.
fn flush_shard_window<P>(
    state: &Mutex<ShardState<P>>,
    inboxes: &[Mutex<Inbox<P::Payload>>],
    trace_deposits: &Mutex<Vec<(u32, Vec<TraceEvent>)>>,
) where
    P: ShardableProtocol,
    P::Payload: Clone + Send,
{
    let mut st = state.lock().unwrap();
    let ctl = st.ctx.shard.as_mut().expect("shard context");
    debug_assert!(ctl.outbox[ctl.me as usize].is_empty(), "local events never take the outbox");
    deposit(inboxes, ctl.me, &mut ctl.outbox);
    if !ctl.trace_buf.is_empty() {
        let buf = std::mem::take(&mut ctl.trace_buf);
        trace_deposits.lock().unwrap().push((ctl.me, buf));
    }
}

/// Dispatches one shard event: the serial engine's node-event table
/// ([`runner::dispatch_node_event`](crate::runner::dispatch_node_event))
/// with one delta — claims settle remote-origin bookkeeping at their
/// recorded (possibly past) time.
fn dispatch<P>(ctx: &mut Ctx<P::Payload>, protocol: &mut P, ev: Scheduled<P::Payload>)
where
    P: ShardableProtocol,
    P::Payload: Clone + Send,
{
    if settle_claim(ctx, &ev.kind) {
        // Claims are the one event allowed to arrive "late".
        ctx.now = ctx.now.max(ev.at);
        return;
    }
    debug_assert!(ev.at >= ctx.now, "shard event queue went backwards");
    ctx.now = ev.at;
    let home = ev.kind.home().expect("central drivers never reach a shard heap");
    ctx.shard.as_mut().expect("shard context").active = home;
    crate::runner::dispatch_node_event(ctx, protocol, ev.kind);
}

/// If `kind` is a claim, settles it against the origin's ledger here,
/// stamped with its true time, and answers `true`.
fn settle_claim<Pl>(ctx: &mut Ctx<Pl>, kind: &EventKind<Pl>) -> bool {
    match *kind {
        EventKind::DeliverClaim { packet, node, hops, at_micros } => {
            ctx.apply_delivery_claim(packet, node, hops, SimTime::from_micros(at_micros));
        }
        EventKind::DropClaim { packet, reason, at_micros } => {
            ctx.apply_drop_claim(packet, reason, SimTime::from_micros(at_micros));
        }
        _ => return false,
    }
    true
}
