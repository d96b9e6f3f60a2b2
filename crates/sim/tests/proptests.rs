//! Property-based tests for the simulator's pure components (geometry,
//! time arithmetic) and for the spatial neighbor index against
//! its brute-force specification.

use proptest::prelude::*;
use wsan_sim::{
    Area, Ctx, DataId, Message, NodeId, Point, Protocol, SimConfig, SimDuration, SimTime,
    SpatialGrid,
};

proptest! {
    #[test]
    fn step_toward_never_overshoots(ax in 0.0..500.0f64, ay in 0.0..500.0, bx in 0.0..500.0, by in 0.0..500.0, step in 0.0..1e3f64) {
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        let moved = a.step_toward(&b, step);
        let travelled = a.distance(&moved);
        prop_assert!(travelled <= step + 1e-9 || moved == b);
        // Moving toward b never increases the remaining distance.
        prop_assert!(moved.distance(&b) <= a.distance(&b) + 1e-9);
    }

    #[test]
    fn clamp_is_idempotent_and_contained(x in -1e3..1e3f64, y in -1e3..1e3f64) {
        let area = Area::new(500.0, 500.0);
        let c = area.clamp(Point::new(x, y));
        prop_assert!(area.contains(&c));
        prop_assert_eq!(area.clamp(c), c);
    }

    #[test]
    fn time_arithmetic_is_consistent(base in 0u64..1_000_000_000, delta in 0u64..1_000_000_000) {
        let t = SimTime::from_micros(base);
        let d = SimDuration::from_micros(delta);
        let later = t + d;
        prop_assert_eq!(later - t, d);
        prop_assert_eq!(later.saturating_since(t), d);
        prop_assert_eq!(t.saturating_since(later), SimDuration::ZERO);
    }

    #[test]
    fn duration_seconds_round_trip(secs in 0.0..1e5f64) {
        let d = SimDuration::from_secs_f64(secs);
        prop_assert!((d.as_secs_f64() - secs).abs() < 1e-5);
    }
}

/// Recomputes every node's neighborhood by brute force at each mobility
/// tick and compares it against `physical_neighbors_into`, recording any
/// divergence.
struct NeighborOracle {
    ticks: u64,
    checks: u64,
    mismatches: Vec<String>,
}

impl NeighborOracle {
    fn audit(&mut self, ctx: &Ctx<()>) {
        let ids: Vec<NodeId> = ctx.node_ids().collect();
        let mut buf = Vec::new();
        for &id in &ids {
            let brute: Vec<NodeId> = ids
                .iter()
                .copied()
                .filter(|&other| {
                    other != id
                        && !ctx.is_faulty(other)
                        && ctx.position(id).distance(&ctx.position(other)) <= ctx.range(id)
                })
                .collect();
            ctx.physical_neighbors_into(id, &mut buf);
            self.checks += 1;
            if buf != brute {
                self.mismatches.push(format!(
                    "t={:?} node {id}: indexed {buf:?} != brute {brute:?}",
                    ctx.now()
                ));
            }
        }
    }
}

impl Protocol for NeighborOracle {
    type Payload = ();

    fn name(&self) -> &'static str {
        "NeighborOracle"
    }

    fn on_init(&mut self, ctx: &mut Ctx<()>) {
        self.audit(ctx);
        let anchor = ctx.node_ids().next().expect("nodes exist");
        for t in 1..=self.ticks {
            ctx.set_timer(anchor, ctx.config().mobility.tick.mul(t), t);
        }
    }

    fn on_message(&mut self, _: &mut Ctx<()>, _: NodeId, _: Message<()>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<()>, _: NodeId, _: u64) {
        self.audit(ctx);
    }

    fn on_app_data(&mut self, ctx: &mut Ctx<()>, _: NodeId, data: DataId) {
        ctx.drop_data(data);
    }
}

proptest! {
    // Each case is a full ~100-tick simulation, so run few cases; inputs
    // are deterministic per test name and reproduce exactly on failure.
    #![proptest_config(ProptestConfig::with_cases(6))]

    // The grid index is observationally equivalent to the linear scan for
    // arbitrary deployments: random node counts, ranges, speeds and fault
    // rotations (alive/dead flips included).
    // One range for every node on a 1000 m square makes the cell side the
    // drawn range — 5×5 to 25×25 cells — so every case runs the grid arm,
    // not the ≤ 3×3 scan fallback (asserted).
    #[test]
    fn grid_neighbors_match_brute_force(
        sensors in 15usize..45,
        range in 40.0..180.0f64,
        speed in 0.0..35.0f64,
        faults in 0usize..8,
    ) {
        let ticks = 100u64;
        let mut cfg = SimConfig::smoke();
        cfg.area = Area::new(1000.0, 1000.0);
        cfg.sensors = sensors;
        cfg.sensor_range = range;
        cfg.actuator_range = range;
        prop_assert!(
            !SpatialGrid::new(cfg.area, range, std::iter::empty()).block_covers_most(),
            "range {range} on {:?} falls back to the scan", cfg.area
        );
        cfg.seed = 0xA11D1 ^ sensors as u64 ^ (range as u64) << 8;
        cfg.warmup = SimDuration::ZERO;
        cfg.duration = SimDuration::from_secs(ticks);
        cfg.mobility.max_speed = speed;
        cfg.faults.count = faults.min(sensors / 2);
        cfg.faults.rotation = SimDuration::from_secs(3);
        cfg.traffic.sources_per_round = 1;
        cfg.traffic.rate_bps = 800.0;
        let mut oracle = NeighborOracle { ticks, checks: 0, mismatches: Vec::new() };
        wsan_sim::runner::run(cfg, &mut oracle);
        prop_assert!(oracle.checks >= ticks * sensors as u64, "only {} checks", oracle.checks);
        prop_assert!(
            oracle.mismatches.is_empty(),
            "{}",
            oracle.mismatches.first().map(String::as_str).unwrap_or("")
        );
    }
}
