//! The sharded engine's contract: its output is a pure function of the
//! configuration — the worker-thread count must not change a single bit of
//! the summary or a single byte of the trace stream — and it must agree
//! with its own single-threaded execution under mobility, fault rotation
//! and lossy acknowledged traffic.

use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;
use wsan_sim::flood::{FloodPayload, FloodProtocol};
use wsan_sim::shard::run_sharded_with_sinks;
use wsan_sim::trace::{TraceEvent, TraceSink};
use wsan_sim::{
    Ctx, DataId, EnergyAccount, Engine, FaultModel, Message, NodeId, Protocol, RunSummary,
    ShardableProtocol, ShardedConfig, SimConfig, SimDuration, TrafficPattern,
};

/// Collects the canonical merged trace stream for byte-level comparison.
#[derive(Clone, Default)]
struct Collect(Arc<Mutex<Vec<TraceEvent>>>);

impl TraceSink for Collect {
    fn on_event(&mut self, event: &TraceEvent) {
        self.0.lock().unwrap().push(event.clone());
    }
}

/// Random-waypoint mobility at a 250 ms tick over 30 s of simulated time
/// (≥ 120 ticks) with a rotating faulty set: every source of cross-shard
/// coupling — moving nodes, flag rebroadcast, boundary frames — is active.
fn sharded_cfg(seed: u64, threads: usize) -> SimConfig {
    let mut cfg = SimConfig::smoke();
    cfg.sensors = 60;
    cfg.traffic.rate_bps = 40_000.0;
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(25);
    cfg.mobility.tick = SimDuration::from_millis(250);
    cfg.faults.count = 6;
    cfg.faults.rotation = SimDuration::from_secs(5);
    cfg.engine = Engine::Sharded(ShardedConfig { shards: 8, threads, window_micros: 0 });
    cfg.seed = seed;
    cfg
}

fn traced_run<P>(cfg: SimConfig, protocol: &mut P) -> (RunSummary, Vec<TraceEvent>)
where
    P: ShardableProtocol,
    P::Payload: Clone + Send,
{
    let events = Collect::default();
    let (summary, _) = run_sharded_with_sinks(cfg, protocol, vec![Box::new(events.clone())]);
    let trace = events.0.lock().unwrap().clone();
    (summary, trace)
}

#[test]
fn sharded_flood_delivers_data() {
    let (summary, trace) = traced_run(sharded_cfg(7, 2), &mut FloodProtocol::new(6));
    assert!(
        summary.delivery_ratio > 0.5,
        "sharded flooding should deliver most packets, got {}",
        summary.delivery_ratio
    );
    assert!(!trace.is_empty(), "tracing must flow through the shard buffers");
}

#[test]
fn thread_count_is_invisible() {
    let reference = traced_run(sharded_cfg(11, 1), &mut FloodProtocol::new(6));
    for threads in [2, 8] {
        let run = traced_run(sharded_cfg(11, threads), &mut FloodProtocol::new(6));
        assert_eq!(
            reference.0, run.0,
            "summary at {threads} threads diverged from the 1-thread reference"
        );
        assert_eq!(
            reference.1.len(),
            run.1.len(),
            "trace length at {threads} threads diverged"
        );
        assert_eq!(
            reference.1, run.1,
            "trace stream at {threads} threads diverged from the 1-thread reference"
        );
    }
}

#[test]
fn all2all_matrix_is_thread_invariant() {
    // The open-loop injector draws matrix destinations and arrival jitter
    // from per-node streams, so an all-to-all run must stay bit-identical
    // across worker-thread counts — summary, congestion metrics and trace.
    let cfg = |threads| {
        let mut cfg = sharded_cfg(23, threads);
        cfg.traffic.pattern = TrafficPattern::All2All;
        cfg.traffic.offered_pps = 150.0;
        cfg
    };
    let reference = traced_run(cfg(1), &mut FloodProtocol::new(6));
    for threads in [3, 8] {
        let run = traced_run(cfg(threads), &mut FloodProtocol::new(6));
        assert_eq!(
            reference.0, run.0,
            "all-to-all summary at {threads} threads diverged from the 1-thread reference"
        );
        assert_eq!(
            reference.1, run.1,
            "all-to-all trace at {threads} threads diverged from the 1-thread reference"
        );
    }
    let dests = reference
        .1
        .iter()
        .filter(|ev| matches!(ev, TraceEvent::PacketDest { .. }))
        .count();
    assert!(dests > 0, "matrix workloads must announce each packet's destination");
    assert!(
        reference.0.queue_delay_p99_s.is_finite(),
        "matrix load should produce a measurable queue-delay distribution"
    );
}

#[test]
fn shard_count_defines_the_semantics_but_any_count_delivers() {
    // Different shard counts are allowed to produce different (each
    // internally deterministic) schedules; all of them must still be
    // functioning simulations.
    for shards in [1, 3, 8] {
        let mut cfg = sharded_cfg(3, 2);
        cfg.engine = Engine::Sharded(ShardedConfig { shards, threads: 2, window_micros: 0 });
        let summary = wsan_sim::run_sharded(cfg, &mut FloodProtocol::new(6));
        assert!(
            summary.delivery_ratio > 0.5,
            "{shards}-shard run degenerated: delivery {}",
            summary.delivery_ratio
        );
    }
}

/// Unicasts every packet straight to the nearest actuator over the
/// acknowledged MAC path — under a lossy link, so cross-shard
/// retransmissions, ACK expiries and duplicate/stale ACKs all occur.
#[derive(Clone)]
struct AckedDirect {
    expired: u64,
}

impl Protocol for AckedDirect {
    type Payload = DataId;

    fn name(&self) -> &'static str {
        "AckedDirect"
    }

    fn on_init(&mut self, _ctx: &mut Ctx<DataId>) {}

    fn on_app_data(&mut self, ctx: &mut Ctx<DataId>, src: NodeId, data: DataId) {
        let nearest = ctx
            .actuator_ids()
            .iter()
            .copied()
            .min_by(|&a, &b| {
                ctx.distance(src, a).partial_cmp(&ctx.distance(src, b)).expect("finite")
            })
            .expect("actuators exist");
        let size = ctx.config().traffic.packet_bits;
        ctx.send_acked(src, nearest, size, EnergyAccount::Communication, data);
    }

    fn on_message(&mut self, ctx: &mut Ctx<DataId>, at: NodeId, msg: Message<DataId>) {
        // A Byzantine sender may misroute the frame to any physical
        // neighbor; only an actuator terminates the packet.
        if ctx.actuator_ids().contains(&at) {
            ctx.deliver_data(msg.payload, at);
        } else {
            ctx.drop_data(msg.payload);
        }
    }

    fn on_send_expired(
        &mut self,
        ctx: &mut Ctx<DataId>,
        _at: NodeId,
        _to: NodeId,
        payload: DataId,
        _attempts: u32,
    ) {
        self.expired += 1;
        ctx.drop_data(payload);
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<DataId>, _at: NodeId, _tag: u64) {}
}

impl ShardableProtocol for AckedDirect {}

#[test]
fn acked_traffic_is_thread_invariant_and_stale_acks_are_survivable() {
    let cfg = |threads| {
        let mut cfg = sharded_cfg(5, threads);
        // Lossy links: some ACKs die on the air, their frames retransmit,
        // and the duplicate deliveries produce duplicate (stale) ACKs.
        cfg.radio.link_pdr = 0.2;
        cfg.radio.ack_timeout = SimDuration::from_millis(4);
        cfg
    };
    let a = traced_run(cfg(1), &mut AckedDirect { expired: 0 });
    let b = traced_run(cfg(4), &mut AckedDirect { expired: 0 });
    assert_eq!(a.0, b.0, "acknowledged traffic diverged across thread counts");
    assert_eq!(a.1, b.1, "trace stream diverged across thread counts");
    let retried = a.1.iter().any(|ev| matches!(ev, TraceEvent::Retransmit { .. }));
    assert!(retried, "the lossy link should force at least one retransmission");
}

/// Sends like [`AckedDirect`] but panics on any receipt — simulating a
/// protocol contract violation inside a worker-thread dispatch.
#[derive(Clone)]
struct PoisonReceiver;

impl Protocol for PoisonReceiver {
    type Payload = DataId;

    fn name(&self) -> &'static str {
        "PoisonReceiver"
    }

    fn on_init(&mut self, _ctx: &mut Ctx<DataId>) {}

    fn on_app_data(&mut self, ctx: &mut Ctx<DataId>, src: NodeId, data: DataId) {
        let target = ctx.actuator_ids()[0];
        let size = ctx.config().traffic.packet_bits;
        ctx.send_acked(src, target, size, EnergyAccount::Communication, data);
    }

    fn on_message(&mut self, _ctx: &mut Ctx<DataId>, _at: NodeId, _msg: Message<DataId>) {
        panic!("poison receiver bit a frame");
    }

    fn on_send_expired(
        &mut self,
        _ctx: &mut Ctx<DataId>,
        _at: NodeId,
        _to: NodeId,
        _payload: DataId,
        _attempts: u32,
    ) {
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<DataId>, _at: NodeId, _tag: u64) {}
}

impl ShardableProtocol for PoisonReceiver {}

#[test]
fn worker_panics_propagate_instead_of_deadlocking() {
    // A panic inside a shard worker must resurface on the caller — a
    // stranded coordinator (the pre-fix behavior) hangs the suite forever.
    let result = std::panic::catch_unwind(|| {
        wsan_sim::run_sharded(sharded_cfg(2, 2), &mut PoisonReceiver)
    });
    let payload = result.expect_err("the protocol panic must surface");
    let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(msg.contains("poison receiver bit a frame"), "unexpected payload: {msg:?}");
}

/// Panics on its 500th event: a fault in coordinator-only code (the trace
/// merge into user sinks runs between windows, on the caller).
struct PoisonSink(u32);

impl TraceSink for PoisonSink {
    fn on_event(&mut self, _event: &TraceEvent) {
        self.0 += 1;
        assert!(self.0 < 500, "poison sink bit event 500");
    }
}

#[test]
fn coordinator_panics_propagate_instead_of_deadlocking() {
    // A panic that unwinds out of the coordinator's own code must release
    // the workers parked at the top barrier, or the scope joins them for
    // ever. A hang cannot fail a test by itself, so the run sits on a
    // helper thread and the test waits with a deadline.
    for threads in [1, 2] {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let result = std::panic::catch_unwind(|| {
                run_sharded_with_sinks(
                    sharded_cfg(2, threads),
                    &mut FloodProtocol::new(6),
                    vec![Box::new(PoisonSink(0))],
                )
            });
            let payload = result.err().expect("the sink panic must surface");
            let _ = tx.send(payload.downcast_ref::<&str>().copied().unwrap_or_default());
        });
        let msg = rx
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|_| panic!("run at {threads} threads hung after a coordinator panic"));
        assert!(msg.contains("poison sink bit event 500"), "unexpected payload: {msg:?}");
    }
}

/// Floods, and notes which OS threads the engine runs its hooks on.
#[derive(Clone)]
struct WhoRuns {
    flood: FloodProtocol,
    seen: Arc<Mutex<HashSet<ThreadId>>>,
}

impl Protocol for WhoRuns {
    type Payload = FloodPayload;

    fn name(&self) -> &'static str {
        "WhoRuns"
    }

    fn on_init(&mut self, ctx: &mut Ctx<FloodPayload>) {
        self.flood.on_init(ctx);
    }

    fn on_app_data(&mut self, ctx: &mut Ctx<FloodPayload>, src: NodeId, data: DataId) {
        self.flood.on_app_data(ctx, src, data);
    }

    fn on_message(&mut self, ctx: &mut Ctx<FloodPayload>, at: NodeId, msg: Message<FloodPayload>) {
        self.seen.lock().unwrap().insert(thread::current().id());
        self.flood.on_message(ctx, at, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<FloodPayload>, at: NodeId, tag: u64) {
        self.flood.on_timer(ctx, at, tag);
    }
}

impl ShardableProtocol for WhoRuns {}

#[test]
fn the_caller_is_one_of_the_threads_that_run_shards() {
    // `threads` counts the caller: 1 runs the whole engine on it and wakes
    // nobody, 2 adds exactly one worker, and a request beyond the shard
    // count is clamped to one thread per shard.
    let me = thread::current().id();
    for (threads, expected) in [(1, 1), (2, 2), (64, 8)] {
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let mut protocol = WhoRuns { flood: FloodProtocol::new(6), seen: seen.clone() };
        let mut cfg = sharded_cfg(13, threads);
        cfg.warmup = SimDuration::from_secs(1);
        cfg.duration = SimDuration::from_secs(2);
        // The paper's square is 2 x 2 cells of the 250 m actuator range,
        // which caps `sharded_cfg` at 4 shards; 100 m cells give it the 8
        // it asks for, and 200 sensors put flood traffic in every one.
        cfg.actuator_range = cfg.sensor_range;
        cfg.sensors = 200;
        wsan_sim::run_sharded(cfg, &mut protocol);
        let seen = seen.lock().unwrap();
        assert!(seen.contains(&me), "threads = {threads}: the caller ran no shard");
        assert_eq!(seen.len(), expected, "threads = {threads}: hooks ran on {seen:?}");
    }
}

#[test]
fn byzantine_adversary_is_thread_invariant() {
    // Compromised senders misroute, compromised receivers swallow and
    // forge ACKs, and every link is lossy: all adversary draws come from
    // the per-node simulator RNG streams, so the worker-thread count must
    // still be invisible.
    let cfg = |threads| {
        let mut cfg = sharded_cfg(19, threads);
        cfg.faults.model = FaultModel::Byzantine;
        cfg.faults.byzantine.attacker_fraction = 0.25;
        cfg.radio.link_pdr = 0.15;
        cfg.radio.ack_timeout = SimDuration::from_millis(4);
        cfg
    };
    let a = traced_run(cfg(1), &mut AckedDirect { expired: 0 });
    let b = traced_run(cfg(4), &mut AckedDirect { expired: 0 });
    assert_eq!(a.0, b.0, "Byzantine summary diverged across thread counts");
    assert_eq!(a.1, b.1, "Byzantine trace stream diverged across thread counts");
    let misrouted = a.1.iter().any(|ev| matches!(ev, TraceEvent::Misroute { .. }));
    let forged = a.1.iter().any(|ev| matches!(ev, TraceEvent::ForgedAck { .. }));
    assert!(misrouted, "a quarter of compromised senders should misroute at least once");
    assert!(forged, "compromised receivers should forge at least one ACK");
    assert!(a.0.misroutes > 0 && a.0.forged_acks > 0, "{:?}", a.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    // Satellite: the ACK layer under residual link loss with NO attackers.
    // Retransmissions recover delivery, stale ACKs and false suspicions
    // stay bounded, and the 1-thread and n-thread executions agree.
    #[test]
    fn lossy_links_recover_via_retransmission(
        seed in 1u64..1_000_000,
        pdr_milli in 50u64..300,
        threads in 2usize..9,
    ) {
        let pdr = pdr_milli as f64 / 1000.0;
        let cfg = |threads, pdr| {
            let mut cfg = sharded_cfg(seed, threads);
            cfg.sensors = 40;
            cfg.duration = SimDuration::from_secs(15);
            cfg.radio.link_pdr = pdr;
            cfg.radio.ack_timeout = SimDuration::from_millis(4);
            cfg
        };
        let lossless = traced_run(cfg(1, 0.0), &mut AckedDirect { expired: 0 });
        let lossy = traced_run(cfg(1, pdr), &mut AckedDirect { expired: 0 });
        let threaded = traced_run(cfg(threads, pdr), &mut AckedDirect { expired: 0 });
        prop_assert_eq!(&lossy.0, &threaded.0, "lossy summary diverged at {} threads", threads);
        prop_assert_eq!(&lossy.1, &threaded.1, "lossy trace diverged at {} threads", threads);
        prop_assert!(lossy.0.retransmissions > 0, "losses must force retries");
        // Retransmission recovers most of the loss: delivery under up to
        // 30% per-frame loss stays close to the lossless run.
        prop_assert!(
            lossy.0.delivery_ratio >= lossless.0.delivery_ratio - 0.15,
            "delivery fell from {} to {} at pdr {}",
            lossless.0.delivery_ratio, lossy.0.delivery_ratio, pdr
        );
        // Every stale ACK stems from a duplicate or post-expiry delivery
        // of some attempt, so the count is bounded by the attempts made.
        prop_assert!(
            lossy.0.stale_acks <= lossy.0.retransmissions + lossy.0.frames_sent,
            "{:?}", lossy.0
        );
        prop_assert_eq!(lossy.0.false_suspicions, 0, "no one to suspect without attackers");
    }

    // Any seed, any thread split: the 1-thread and n-thread executions
    // produce identical summaries and identical trace streams.
    #[test]
    fn sharded_schedule_is_a_pure_function_of_the_config(
        seed in 1u64..1_000_000,
        threads in 2usize..9,
    ) {
        let mut cfg = sharded_cfg(seed, 1);
        cfg.sensors = 40;
        cfg.duration = SimDuration::from_secs(15);
        let reference = traced_run(cfg.clone(), &mut FloodProtocol::new(5));
        cfg.engine = Engine::Sharded(ShardedConfig { shards: 8, threads, window_micros: 0 });
        let run = traced_run(cfg, &mut FloodProtocol::new(5));
        prop_assert_eq!(&reference.0, &run.0, "summary diverged at {} threads", threads);
        prop_assert_eq!(&reference.1, &run.1, "trace diverged at {} threads", threads);
    }
}
