//! Link-layer ACK/retransmit behaviour and fault-rotation bookkeeping,
//! exercised through purpose-built micro-protocols.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use wsan_sim::trace::{TraceEvent, TraceLog};
use wsan_sim::{
    runner, Ctx, DataId, EnergyAccount, EnergyModel, Message, NodeId, Protocol, SimConfig,
    SimDuration,
};

fn tiny_cfg() -> SimConfig {
    let mut cfg = SimConfig::smoke();
    cfg.sensors = 40;
    cfg.traffic.rate_bps = 40_000.0;
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(30);
    cfg.mobility.max_speed = 0.0;
    cfg
}

/// Fires one acknowledged frame at a chosen peer and records the MAC
/// feedback hooks.
struct AckProbe {
    /// Pick the farthest sensor (guaranteed silence) when true, the
    /// nearest one (guaranteed ACK under the unit-disk model) when false.
    aim_out_of_range: bool,
    acks: Vec<NodeId>,
    expirations: Vec<(NodeId, u32)>,
}

impl AckProbe {
    fn new(aim_out_of_range: bool) -> Self {
        Self { aim_out_of_range, acks: Vec::new(), expirations: Vec::new() }
    }
}

impl Protocol for AckProbe {
    type Payload = ();
    fn name(&self) -> &'static str {
        "AckProbe"
    }
    fn on_init(&mut self, ctx: &mut Ctx<()>) {
        let from = ctx.sensor_ids()[0];
        ctx.set_timer(from, SimDuration::from_secs(1), 1);
    }
    fn on_message(&mut self, _ctx: &mut Ctx<()>, _at: NodeId, _msg: Message<()>) {}
    fn on_timer(&mut self, ctx: &mut Ctx<()>, at: NodeId, _tag: u64) {
        let cmp = |&a: &NodeId, &b: &NodeId| {
            ctx.distance(at, a).partial_cmp(&ctx.distance(at, b)).expect("finite")
        };
        let peers = ctx.sensor_ids().iter().copied().filter(|&n| n != at);
        let target = if self.aim_out_of_range {
            let far = peers.max_by(cmp).expect("other sensors exist");
            assert!(
                !ctx.in_range(at, far),
                "test premise: the farthest sensor sits outside radio range"
            );
            far
        } else {
            let near = peers.min_by(cmp).expect("other sensors exist");
            assert!(
                ctx.in_range(at, near),
                "test premise: the nearest sensor sits inside radio range"
            );
            near
        };
        ctx.send_acked(at, target, 8_000, EnergyAccount::Communication, ());
    }
    fn on_app_data(&mut self, ctx: &mut Ctx<()>, _src: NodeId, data: DataId) {
        ctx.drop_data(data);
    }
    fn on_ack(&mut self, _ctx: &mut Ctx<()>, _at: NodeId, peer: NodeId) {
        self.acks.push(peer);
    }
    fn on_send_expired(
        &mut self,
        _ctx: &mut Ctx<()>,
        _at: NodeId,
        peer: NodeId,
        _payload: (),
        attempts: u32,
    ) {
        self.expirations.push((peer, attempts));
    }
}

#[test]
fn unacked_frame_is_retried_then_expires() {
    let mut cfg = tiny_cfg();
    cfg.faults.count = 0;
    let max_retries = cfg.radio.max_retries;
    let (summary, probe) = runner::run_owned(cfg, AckProbe::new(true));
    assert!(probe.acks.is_empty(), "an out-of-range peer can never ACK");
    assert_eq!(probe.expirations.len(), 1, "exactly one frame was in flight");
    let (_, attempts) = probe.expirations[0];
    assert_eq!(
        attempts,
        max_retries + 1,
        "the original transmission plus every allowed retry"
    );
    assert_eq!(summary.retransmissions, max_retries as u64);
}

#[test]
fn acked_frame_is_confirmed_without_retransmission() {
    let mut cfg = tiny_cfg();
    cfg.faults.count = 0;
    let (summary, probe) = runner::run_owned(cfg, AckProbe::new(false));
    assert_eq!(probe.acks.len(), 1, "the near peer ACKs the single frame");
    assert!(probe.expirations.is_empty());
    assert_eq!(summary.retransmissions, 0);
}

#[test]
fn retransmissions_are_charged_to_the_energy_ledger() {
    // The expiring probe pays tx for every physical attempt and no rx (the
    // peer is out of range); the acked probe pays one tx plus the peer's
    // rx. ACK frames themselves are unmetered.
    let mut cfg = tiny_cfg();
    cfg.faults.count = 0;
    let (expired, _) = runner::run_owned(cfg.clone(), AckProbe::new(true));
    let (acked, _) = runner::run_owned(cfg.clone(), AckProbe::new(false));
    let attempts = (cfg.radio.max_retries + 1) as f64;
    assert!(
        (expired.energy_communication_j - attempts * EnergyModel::PAPER.tx_joules).abs() < 1e-9,
        "expired run spent {} J over {} attempts",
        expired.energy_communication_j,
        attempts
    );
    assert!(
        (acked.energy_communication_j - (EnergyModel::PAPER.tx_joules + EnergyModel::PAPER.rx_joules))
            .abs()
            < 1e-9,
        "acked run spent {} J, expected one tx + one rx",
        acked.energy_communication_j
    );
}

/// Records every fault rotation the engine reports, and the run's trace
/// through a shared handle to the sink it attaches.
struct FaultWatcher {
    rotations: Vec<(Vec<NodeId>, Vec<NodeId>)>,
    trace: Arc<Mutex<TraceLog>>,
}

impl FaultWatcher {
    fn new() -> Self {
        Self { rotations: Vec::new(), trace: Arc::new(Mutex::new(TraceLog::new(usize::MAX))) }
    }
}

impl Protocol for FaultWatcher {
    type Payload = ();
    fn name(&self) -> &'static str {
        "FaultWatcher"
    }
    fn on_init(&mut self, ctx: &mut Ctx<()>) {
        ctx.add_trace_sink(Box::new(self.trace.clone()));
    }
    fn on_message(&mut self, _ctx: &mut Ctx<()>, _at: NodeId, _msg: Message<()>) {}
    fn on_timer(&mut self, _ctx: &mut Ctx<()>, _at: NodeId, _tag: u64) {}
    fn on_app_data(&mut self, ctx: &mut Ctx<()>, _src: NodeId, data: DataId) {
        ctx.drop_data(data);
    }
    fn on_fault_rotation(&mut self, _ctx: &mut Ctx<()>, failed: &[NodeId], recovered: &[NodeId]) {
        self.rotations.push((failed.to_vec(), recovered.to_vec()));
    }
}

#[test]
fn every_failed_node_recovers_at_the_next_rotation() {
    let mut cfg = tiny_cfg();
    cfg.faults.count = 10;
    cfg.faults.rotation = SimDuration::from_secs(5);
    let (_, watcher) = runner::run_owned(cfg, FaultWatcher::new());
    assert!(watcher.rotations.len() >= 3, "35 s run at 5 s rotation");
    for (k, window) in watcher.rotations.windows(2).enumerate() {
        let failed: BTreeSet<NodeId> = window[0].0.iter().copied().collect();
        let recovered: BTreeSet<NodeId> = window[1].1.iter().copied().collect();
        assert_eq!(
            failed, recovered,
            "rotation {} must revive exactly the nodes rotation {} broke",
            k + 1,
            k
        );
        assert_eq!(window[0].0.len(), 10);
    }
    // The very first rotation starts from a fully healthy field.
    assert!(watcher.rotations[0].1.is_empty());
}

#[test]
fn fault_rotations_are_traced() {
    let mut cfg = tiny_cfg();
    cfg.faults.count = 6;
    cfg.faults.rotation = SimDuration::from_secs(10);
    let (_, watcher) = runner::run_owned(cfg, FaultWatcher::new());
    let trace = watcher.trace.lock().unwrap();
    let traced: Vec<_> = trace
        .events()
        .filter_map(|e| match e {
            TraceEvent::FaultRotation { failed, recovered, .. } => {
                Some((failed.clone(), recovered.clone()))
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        traced, watcher.rotations,
        "trace and protocol hook must agree on every rotation"
    );
    assert!(traced.iter().all(|(failed, _)| failed.len() == 6));
}

/// Regression for the two `expect("pending present")` panics in the ACK
/// expiry path: an ACK that lands *after* its `ack_timeout` already fired.
///
/// With a 100 µs timeout the expiry always beats the ACK (which needs
/// `mac_overhead` = 500 µs plus jitter to fly back), so the frame is
/// retransmitted while its first ACK is still in the air. The late ACK
/// then confirms the frame, the retry's already-queued expiry finds no
/// pending entry (the old panic), and the retry's own duplicate ACK
/// arrives against a settled frame (the other old panic) — now counted
/// in `stale_acks` and dropped.
#[test]
fn ack_arriving_after_timeout_is_survived_and_counted() {
    let mut cfg = tiny_cfg();
    cfg.faults.count = 0;
    cfg.radio.ack_timeout = SimDuration::from_micros(100);
    cfg.radio.retry_backoff = 1.0;
    cfg.radio.max_retries = 5;
    // Fast channel so the retry is in the air before the first ACK lands.
    cfg.radio.bitrate_bps = 80_000_000.0;
    cfg.seed = 1;
    let (summary, probe) = runner::run_owned(cfg, AckProbe::new(false));
    assert_eq!(probe.acks.len(), 1, "the late ACK still confirms the frame, exactly once");
    assert!(probe.expirations.is_empty(), "the frame was acknowledged — late, not lost");
    assert_eq!(summary.retransmissions, 2, "both expiries fired before their ACKs landed");
    assert_eq!(summary.stale_acks, 1, "the duplicate ACK of the retry is counted, not fatal");
}
