//! Tests for the paper's link and mobility models: the unit disk with
//! residual per-link loss, and random waypoint.

use wsan_sim::config::in_unit_disk;
use wsan_sim::flood::FloodProtocol;
use wsan_sim::{runner, Ctx, DataId, Message, NodeId, Point, Protocol, SimConfig, SimDuration};

#[test]
fn unit_disk_probabilities_are_step() {
    assert!(in_unit_disk(99.0, 100.0));
    assert!(in_unit_disk(100.0, 100.0));
    assert!(!in_unit_disk(100.1, 100.0));
    assert!(!in_unit_disk(101.0, 100.0));
}

#[test]
fn lossy_links_lose_some_frames_but_traffic_flows() {
    let mut cfg = SimConfig::smoke();
    cfg.traffic.rate_bps = 40_000.0;
    cfg.warmup = SimDuration::from_secs(10);
    cfg.duration = SimDuration::from_secs(40);
    let clean = runner::run(cfg.clone(), &mut FloodProtocol::new(6));
    cfg.radio.link_pdr = 0.2;
    let lossy = runner::run(cfg, &mut FloodProtocol::new(6));
    assert_ne!(lossy, clean, "a fifth of the frames lost must change the run");
    assert!(lossy.delivery_ratio > 0.3, "{lossy:?}");
}

/// Observes positions over time to characterize the mobility model.
struct Tracker {
    total_displacement: f64,
    checks: usize,
    last: Vec<Point>,
}

impl Tracker {
    fn new() -> Self {
        Tracker { total_displacement: 0.0, checks: 0, last: Vec::new() }
    }
}

impl Protocol for Tracker {
    type Payload = ();
    fn name(&self) -> &'static str {
        "Tracker"
    }
    fn on_init(&mut self, ctx: &mut Ctx<()>) {
        self.last = ctx.sensor_ids().iter().map(|&s| ctx.position(s)).collect();
        ctx.set_timer(ctx.sensor_ids()[0], SimDuration::from_secs(2), 1);
    }
    fn on_message(&mut self, _: &mut Ctx<()>, _: NodeId, _: Message<()>) {}
    fn on_timer(&mut self, ctx: &mut Ctx<()>, at: NodeId, _tag: u64) {
        self.checks += 1;
        for (i, &s) in ctx.sensor_ids().iter().enumerate() {
            let p = ctx.position(s);
            self.total_displacement += p.distance(&self.last[i]);
            self.last[i] = p;
        }
        if self.checks < 20 {
            ctx.set_timer(at, SimDuration::from_secs(2), 1);
        }
    }
    fn on_app_data(&mut self, ctx: &mut Ctx<()>, _: NodeId, data: DataId) {
        ctx.drop_data(data);
    }
}

fn track(seed: u64) -> Tracker {
    let mut cfg = SimConfig::smoke();
    cfg.sensors = 40;
    cfg.mobility.max_speed = 3.0;
    cfg.traffic.sources_per_round = 0;
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(60);
    cfg.seed = seed;
    let (_, t) = runner::run_owned(cfg, Tracker::new());
    t
}

#[test]
fn waypoint_mobility_moves_nodes() {
    let t = track(4);
    assert!(t.checks >= 20);
    // 40 nodes, ~40 s of observed motion at ~1.5 m/s mean: substantial
    // total displacement.
    assert!(t.total_displacement > 500.0, "moved {}", t.total_displacement);
}
