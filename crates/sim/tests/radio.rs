//! Radio/MAC model tests: service time, broadcast semantics, interface
//! queue tail-drop and congestion detection.

use wsan_sim::config::MAX_QUEUE;
use wsan_sim::{
    runner, ActuatorPlacement, Ctx, DataId, EnergyAccount, Message, NodeId, Point, Protocol,
    SensorPlacement, SimConfig, SimDuration,
};

fn line_cfg() -> SimConfig {
    // Two sensors and one actuator in a line, all static, no traffic.
    let mut cfg = SimConfig::smoke();
    cfg.sensors = 2;
    cfg.actuators = 1;
    cfg.placement = ActuatorPlacement::Explicit(vec![Point::new(150.0, 50.0)]);
    cfg.sensor_placement = SensorPlacement::AroundActuators { radius: 40.0 };
    cfg.mobility.max_speed = 0.0;
    cfg.traffic.sources_per_round = 0;
    cfg.warmup = SimDuration::from_secs(1);
    cfg.duration = SimDuration::from_secs(5);
    cfg
}

/// Probes the Ctx API once at init and records findings.
struct RadioProbe {
    service_us: u64,
    broadcast_receivers: usize,
    queue_drop_worked: bool,
    congested_after_burst: bool,
}

impl Protocol for RadioProbe {
    type Payload = u32;
    fn name(&self) -> &'static str {
        "RadioProbe"
    }
    fn on_init(&mut self, ctx: &mut Ctx<u32>) {
        self.service_us = ctx.service_time(8_000).as_micros();
        let s = ctx.sensor_ids()[0];
        self.broadcast_receivers = ctx.broadcast(s, 1_000, EnergyAccount::Communication, 1);
    }
    fn on_message(&mut self, _: &mut Ctx<u32>, _: NodeId, _: Message<u32>) {}
    fn on_timer(&mut self, ctx: &mut Ctx<u32>, _at: NodeId, tag: u64) {
        if tag != 99 {
            return;
        }
        // Saturate one sender far beyond the queue horizon; the overflow
        // must be tail-dropped silently and the node must read congested.
        let s = ctx.sensor_ids()[0];
        let a = ctx.actuator_ids()[0];
        let before = ctx.queue_delay(s);
        assert_eq!(before, SimDuration::ZERO);
        for i in 0..10_000u32 {
            ctx.send(s, a, 8_000, EnergyAccount::Communication, i);
        }
        self.queue_drop_worked = ctx.queue_delay(s) <= MAX_QUEUE + ctx.service_time(8_000);
        self.congested_after_burst = ctx.is_congested(s);
    }
    fn on_app_data(&mut self, ctx: &mut Ctx<u32>, _: NodeId, data: DataId) {
        ctx.drop_data(data);
    }
}

#[test]
fn radio_model_behaviours() {
    let mut cfg = line_cfg();
    cfg.seed = 3;
    struct Wrapper(RadioProbe);
    impl Protocol for Wrapper {
        type Payload = u32;
        fn name(&self) -> &'static str {
            "Wrapper"
        }
        fn on_init(&mut self, ctx: &mut Ctx<u32>) {
            self.0.on_init(ctx);
            ctx.set_timer(ctx.sensor_ids()[0], SimDuration::from_secs(2), 99);
        }
        fn on_message(&mut self, ctx: &mut Ctx<u32>, at: NodeId, m: Message<u32>) {
            self.0.on_message(ctx, at, m);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<u32>, at: NodeId, tag: u64) {
            self.0.on_timer(ctx, at, tag);
        }
        fn on_app_data(&mut self, ctx: &mut Ctx<u32>, at: NodeId, d: DataId) {
            self.0.on_app_data(ctx, at, d);
        }
    }
    let probe = RadioProbe {
        service_us: 0,
        broadcast_receivers: 0,
        queue_drop_worked: false,
        congested_after_burst: false,
    };
    let (_, w) = runner::run_owned(cfg, Wrapper(probe));
    // 8000 bits at 11 Mb/s plus 500 us MAC overhead ≈ 1227 us.
    assert!(w.0.service_us > 1_100 && w.0.service_us < 1_400, "{}", w.0.service_us);
    // The 40 m cluster around one actuator: the other sensor and the
    // actuator both hear the broadcast.
    assert_eq!(w.0.broadcast_receivers, 2);
    assert!(w.0.queue_drop_worked, "backlog must be capped by tail-drop");
    assert!(w.0.congested_after_burst);
}

#[test]
fn queue_drops_are_counted() {
    let mut cfg = SimConfig::smoke();
    cfg.radio.bitrate_bps = 500_000.0; // slow channel
    cfg.traffic.rate_bps = 1_000_000.0; // oversubscribed sources
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(20);
    let summary = runner::run(cfg, &mut wsan_sim::flood::FloodProtocol::new(4));
    // The flood protocol hammers the channel; some frames must tail-drop,
    // and the run must still terminate with bounded delays.
    assert!(summary.mean_delay_all_s < 3.0, "{summary:?}");
}
