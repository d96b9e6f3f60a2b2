//! Engine-level integration tests using the built-in flooding protocol and
//! purpose-built micro-protocols.

use wsan_sim::flood::FloodProtocol;
use wsan_sim::{
    runner, ActuatorPlacement, Ctx, DataId, EnergyAccount, EnergyModel, Message, NodeId,
    NodeKind, Point, Protocol, SimConfig, SimDuration,
};

fn tiny_cfg() -> SimConfig {
    let mut cfg = SimConfig::smoke();
    cfg.sensors = 40;
    cfg.traffic.rate_bps = 40_000.0;
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(30);
    cfg
}

#[test]
fn identical_seeds_give_identical_summaries() {
    let cfg = tiny_cfg();
    let a = runner::run(cfg.clone(), &mut FloodProtocol::new(5));
    let b = runner::run(cfg, &mut FloodProtocol::new(5));
    assert_eq!(a, b, "simulation must be deterministic per seed");
}

#[test]
fn different_seeds_give_different_runs() {
    let mut cfg = tiny_cfg();
    let a = runner::run(cfg.clone(), &mut FloodProtocol::new(5));
    cfg.seed = 99;
    let b = runner::run(cfg, &mut FloodProtocol::new(5));
    assert_ne!(a, b, "placement and traffic should differ across seeds");
}

#[test]
fn flooding_delivers_data_to_actuators() {
    let summary = runner::run(tiny_cfg(), &mut FloodProtocol::new(6));
    assert!(
        summary.delivery_ratio > 0.5,
        "flooding with generous TTL reaches actuators: {summary:?}"
    );
    assert!(summary.throughput_bps > 0.0);
    assert!(summary.mean_delay_s > 0.0, "delivery takes nonzero time");
    assert!(summary.energy_communication_j > 0.0);
}

#[test]
fn zero_ttl_flood_mostly_fails_but_direct_neighbors_still_deliver() {
    let generous = runner::run(tiny_cfg(), &mut FloodProtocol::new(6));
    let stunted = runner::run(tiny_cfg(), &mut FloodProtocol::new(0));
    assert!(stunted.delivery_ratio < generous.delivery_ratio);
    // TTL 0 floods cost one broadcast each; generous floods re-broadcast.
    assert!(stunted.energy_communication_j < generous.energy_communication_j);
}

#[test]
fn fault_injection_reduces_delivery() {
    let mut cfg = tiny_cfg();
    let clean = runner::run(cfg.clone(), &mut FloodProtocol::new(6));
    cfg.faults.count = 20; // half the sensors broken at any time
    let faulty = runner::run(cfg, &mut FloodProtocol::new(6));
    assert!(
        faulty.delivery_ratio < clean.delivery_ratio,
        "clean {} vs faulty {}",
        clean.delivery_ratio,
        faulty.delivery_ratio
    );
}

/// A protocol that records positions at init and at the end, to observe the
/// mobility model.
struct MobilityWatcher {
    initial: Vec<Point>,
    moved: usize,
    checked: bool,
}

impl Protocol for MobilityWatcher {
    type Payload = ();
    fn name(&self) -> &'static str {
        "MobilityWatcher"
    }
    fn on_init(&mut self, ctx: &mut Ctx<()>) {
        self.initial = ctx.sensor_ids().iter().map(|&id| ctx.position(id)).collect();
        // Observe positions again near the end of the run.
        let first = ctx.sensor_ids()[0];
        ctx.set_timer(first, SimDuration::from_secs(25), 1);
    }
    fn on_message(&mut self, _ctx: &mut Ctx<()>, _at: NodeId, _msg: Message<()>) {}
    fn on_timer(&mut self, ctx: &mut Ctx<()>, _at: NodeId, _tag: u64) {
        self.checked = true;
        self.moved = ctx
            .sensor_ids()
            .iter()
            .zip(&self.initial)
            .filter(|(&id, &p0)| ctx.position(id).distance(&p0) > 1.0)
            .count();
    }
    fn on_app_data(&mut self, ctx: &mut Ctx<()>, _src: NodeId, data: DataId) {
        ctx.drop_data(data);
    }
}

#[test]
fn sensors_move_and_actuators_do_not() {
    let mut cfg = tiny_cfg();
    cfg.mobility.max_speed = 3.0;
    let watcher = MobilityWatcher { initial: Vec::new(), moved: 0, checked: false };
    let (_, watcher) = runner::run_owned(cfg, watcher);
    assert!(watcher.checked);
    assert!(
        watcher.moved > 10,
        "most sensors should have moved after 25 s, moved = {}",
        watcher.moved
    );
}

/// A protocol that sends one unicast hop from a chosen sensor to a chosen
/// actuator at init, to pin the energy/queueing models down precisely.
struct OneShot {
    sent_ok: bool,
    delivered_at: Option<f64>,
}

impl Protocol for OneShot {
    type Payload = DataId;
    fn name(&self) -> &'static str {
        "OneShot"
    }
    fn on_init(&mut self, _ctx: &mut Ctx<DataId>) {}
    fn on_message(&mut self, ctx: &mut Ctx<DataId>, at: NodeId, msg: Message<DataId>) {
        if matches!(ctx.kind(at), NodeKind::Actuator) {
            ctx.deliver_data(msg.payload, at);
            self.delivered_at = Some(ctx.now().as_secs_f64());
        }
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<DataId>, _at: NodeId, _tag: u64) {}
    fn on_app_data(&mut self, ctx: &mut Ctx<DataId>, src: NodeId, data: DataId) {
        // Send straight to the nearest actuator if in range, else drop.
        let target = ctx
            .actuator_ids()
            .iter()
            .copied()
            .min_by(|&a, &b| {
                ctx.distance(src, a).partial_cmp(&ctx.distance(src, b)).expect("finite")
            })
            .expect("actuators exist");
        if ctx.in_range(src, target) {
            self.sent_ok = ctx.send(src, target, 8_000, EnergyAccount::Communication, data);
        } else {
            ctx.drop_data(data);
        }
    }
}

#[test]
fn unicast_energy_is_metered_per_packet() {
    let mut cfg = tiny_cfg();
    cfg.sensors = 30;
    cfg.faults.count = 0;
    let (summary, _) = runner::run_owned(cfg.clone(), OneShot { sent_ok: false, delivered_at: None });
    // Every delivered packet costs exactly one tx (2 J, sensor side). The rx
    // happens at an actuator, which the paper's sensor-energy metric
    // excludes. Frames sent >= deliveries (some sources are out of range).
    assert!(summary.frames_sent > 0);
    let expected_min = summary.frames_sent as f64 * EnergyModel::PAPER.tx_joules * 0.1;
    assert!(summary.energy_communication_j >= expected_min);
    assert!(
        (summary.energy_communication_j
            - summary.frames_sent as f64 * EnergyModel::PAPER.tx_joules)
            .abs()
            < 1e-6,
        "only sensor tx charges should appear: {} vs {} frames",
        summary.energy_communication_j,
        summary.frames_sent
    );
}

#[test]
fn actuator_rx_energy_not_counted_for_sensors_metric() {
    // Direct consequence checked above; additionally assert construction
    // ledger stays empty when no construction messages are sent.
    let (summary, _) =
        runner::run_owned(tiny_cfg(), OneShot { sent_ok: false, delivered_at: None });
    assert_eq!(summary.energy_construction_j, 0.0);
}

/// Sends a burst through one relay to verify queueing delay accumulates.
struct BurstRelay {
    relay: Option<NodeId>,
    deliveries: Vec<f64>,
}

impl Protocol for BurstRelay {
    type Payload = DataId;
    fn name(&self) -> &'static str {
        "BurstRelay"
    }
    fn on_init(&mut self, ctx: &mut Ctx<DataId>) {
        // Pick the sensor closest to the first actuator as the relay.
        let act = ctx.actuator_ids()[0];
        self.relay = ctx
            .sensor_ids()
            .iter()
            .copied()
            .min_by(|&a, &b| {
                ctx.distance(a, act).partial_cmp(&ctx.distance(b, act)).expect("finite")
            });
    }
    fn on_message(&mut self, ctx: &mut Ctx<DataId>, at: NodeId, msg: Message<DataId>) {
        if matches!(ctx.kind(at), NodeKind::Actuator) {
            ctx.deliver_data(msg.payload, at);
            self.deliveries.push(ctx.now().as_secs_f64());
        } else {
            let act = ctx.actuator_ids()[0];
            ctx.send(at, act, msg.size_bits, EnergyAccount::Communication, msg.payload);
        }
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<DataId>, _at: NodeId, _tag: u64) {}
    fn on_app_data(&mut self, ctx: &mut Ctx<DataId>, src: NodeId, data: DataId) {
        let relay = self.relay.expect("chosen at init");
        if ctx.in_range(src, relay) {
            ctx.send(src, relay, 8_000, EnergyAccount::Communication, data);
        } else {
            ctx.drop_data(data);
        }
    }
}

#[test]
fn relay_queueing_accumulates_delay() {
    let mut cfg = tiny_cfg();
    // Oversubscribe the relay: slow the channel so even one source exceeds
    // the relay's service rate (~120 packets/s at 1 Mb/s) and queueing
    // must appear in the delivered packets' delays.
    cfg.radio.bitrate_bps = 1_000_000.0;
    cfg.traffic.rate_bps = 1_000_000.0;
    cfg.traffic.sources_per_round = 8;
    cfg.mobility.max_speed = 0.0;
    let (summary, relay) = runner::run_owned(cfg, BurstRelay { relay: None, deliveries: vec![] });
    assert!(!relay.deliveries.is_empty());
    // With the relay oversubscribed, mean delay far exceeds one service time.
    assert!(
        summary.mean_delay_all_s > 0.01,
        "mean delay {} should show queueing",
        summary.mean_delay_all_s
    );
}

#[test]
fn explicit_placement_positions_are_respected() {
    let mut cfg = tiny_cfg();
    cfg.actuators = 2;
    cfg.placement = ActuatorPlacement::Explicit(vec![
        Point::new(10.0, 10.0),
        Point::new(490.0, 490.0),
    ]);
    struct PlacementCheck(bool);
    impl Protocol for PlacementCheck {
        type Payload = ();
        fn name(&self) -> &'static str {
            "PlacementCheck"
        }
        fn on_init(&mut self, ctx: &mut Ctx<()>) {
            let acts = ctx.actuator_ids().to_vec();
            assert_eq!(acts.len(), 2);
            assert_eq!(ctx.position(acts[0]), Point::new(10.0, 10.0));
            assert_eq!(ctx.position(acts[1]), Point::new(490.0, 490.0));
            assert!(matches!(ctx.kind(acts[0]), NodeKind::Actuator));
            self.0 = true;
        }
        fn on_message(&mut self, _: &mut Ctx<()>, _: NodeId, _: Message<()>) {}
        fn on_timer(&mut self, _: &mut Ctx<()>, _: NodeId, _: u64) {}
        fn on_app_data(&mut self, ctx: &mut Ctx<()>, _: NodeId, data: DataId) {
            ctx.drop_data(data);
        }
    }
    let (_, check) = runner::run_owned(cfg, PlacementCheck(false));
    assert!(check.0, "on_init ran");
}
