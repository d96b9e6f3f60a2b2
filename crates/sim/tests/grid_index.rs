//! The spatial grid neighbor index must be invisible: every query answers
//! exactly what a brute-force scan over the public getters answers, at
//! every instant of a run. `physical_neighbors_into`
//! has one read site for the index, so per-query identity at every tick
//! is run identity.
//!
//! The engine only enters the grid arm when the grid is larger than 3×3
//! cells; the paper's 500 m square with 250 m actuators is 2×2 and takes
//! the scan. Every audit therefore asserts which side its geometry is on.

use std::sync::{Arc, Mutex};
use wsan_sim::flood::FloodProtocol;
use wsan_sim::{
    runner, ActuatorPlacement, Area, Ctx, DataId, Message, NodeId, Point, Protocol, SensorPlacement,
    SimConfig, SimDuration, SpatialGrid, TraceEvent, TraceSink,
};

/// A protocol that audits the engine from inside: at every mobility-tick
/// boundary it recomputes each node's neighborhood by brute force through
/// the public getters and compares it to `physical_neighbors_into`.
struct GridAudit {
    ticks: u64,
    checks: u64,
    mismatches: Vec<String>,
}

impl GridAudit {
    fn new(ticks: u64) -> Self {
        GridAudit { ticks, checks: 0, mismatches: Vec::new() }
    }

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

impl Protocol for GridAudit {
    type Payload = ();

    fn name(&self) -> &'static str {
        "GridAudit"
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

/// Whether `physical_neighbors_into` answers `cfg`'s queries from the grid
/// (`true`) or falls back to the scan: the engine's own rule, on a grid
/// built with the engine's cell side (the largest radio range).
fn runs_on_grid(cfg: &SimConfig) -> bool {
    let side = cfg.sensor_range.max(cfg.actuator_range);
    !SpatialGrid::new(cfg.area, side, std::iter::empty()).block_covers_most()
}

/// A mobile, faulty scenario that runs for `ticks` mobility ticks on a
/// 1500 m square: 250 m cells make a 6×6 grid, so queries take the grid
/// arm.
fn audit_cfg(seed: u64, ticks: u64) -> SimConfig {
    let mut cfg = SimConfig::smoke();
    cfg.area = Area::new(1500.0, 1500.0);
    cfg.seed = seed;
    cfg.warmup = SimDuration::ZERO;
    cfg.duration = SimDuration::from_secs(ticks);
    cfg.mobility.max_speed = 25.0; // nodes cross many cell boundaries
    cfg.faults.count = 8;
    cfg.faults.rotation = SimDuration::from_secs(5);
    cfg.traffic.sources_per_round = 1;
    cfg.traffic.rate_bps = 800.0; // one packet per round, immediately dropped
    cfg
}

#[test]
fn grid_matches_brute_force_through_mobility_and_fault_rotation() {
    let cfg = audit_cfg(11, 120);
    assert!(runs_on_grid(&cfg));
    let mut audit = GridAudit::new(120);
    runner::run(cfg, &mut audit);
    assert!(audit.checks > 120 * 120, "audited every node per tick: {}", audit.checks);
    assert!(audit.mismatches.is_empty(), "{:?}", &audit.mismatches[..audit.mismatches.len().min(3)]);
}

/// The scan side of the selection, on the paper's own geometry (500 m
/// square, 250 m actuators: a 2×2 grid).
#[test]
fn scan_fallback_matches_brute_force_on_the_paper_geometry() {
    let mut cfg = audit_cfg(11, 120);
    cfg.area = SimConfig::smoke().area;
    assert!(!runs_on_grid(&cfg));
    let mut audit = GridAudit::new(120);
    runner::run(cfg, &mut audit);
    assert!(audit.checks > 120 * 120, "audited every node per tick: {}", audit.checks);
    assert!(audit.mismatches.is_empty(), "{:?}", &audit.mismatches[..audit.mismatches.len().min(3)]);
}

/// Fast random waypoint: at up to 40 m/s a node crosses the 1500 m square
/// within a minute, so over 120 ticks nodes keep entering and leaving the
/// border cells, whose 3×3 block the area's edge cuts off.
#[test]
fn grid_matches_brute_force_under_fast_waypoint_border_reach() {
    let mut cfg = audit_cfg(12, 120);
    cfg.mobility.max_speed = 40.0;
    assert!(runs_on_grid(&cfg));
    let mut audit = GridAudit::new(120);
    runner::run(cfg, &mut audit);
    assert!(audit.mismatches.is_empty(), "{:?}", &audit.mismatches[..audit.mismatches.len().min(3)]);
}

/// Nodes at exactly a querier's range (on an axis, on a diagonal, on cell
/// edges, at the area's far edge and corners) and a hair inside or outside
/// it: the indexed answer must equal the brute-force filter for every
/// querier, sensors (100 m) and actuators (250 m) alike.
///
/// Actuators are placed explicitly on these spots; sensors are placed
/// "around" them with a zero radius, so each sensor sits exactly on one
/// spot too and queries from the same points with the other range.
#[test]
fn exact_range_edge_cases_match_brute_force() {
    let area = Area::new(2000.0, 2000.0); // 250 m cells: 8×8
    let queriers = [
        Point::new(750.0, 1000.0),   // on a column and a row edge
        Point::new(2000.0, 2000.0),  // far corner
        Point::new(0.0, 0.0),        // near corner
        Point::new(2000.0, 1100.0),  // far edge
        Point::new(0.0, 1750.0),     // near edge, on a row edge
        Point::new(1234.5, 321.7),   // interior, off every edge
    ];
    let diag = std::f64::consts::FRAC_1_SQRT_2;
    let dirs = [
        (1.0, 0.0),
        (-1.0, 0.0),
        (0.0, 1.0),
        (0.0, -1.0),
        (diag, diag),
        (-diag, diag),
        (diag, -diag),
        (-diag, -diag),
    ];
    let mut spots = queriers.to_vec();
    for q in queriers {
        for r in [100.0, 250.0] {
            for scale in [1.0, 1.0 - 1e-12, 1.0 + 1e-12] {
                for (dx, dy) in dirs {
                    let p = Point::new(q.x + dx * r * scale, q.y + dy * r * scale);
                    if (0.0..=area.width).contains(&p.x) && (0.0..=area.height).contains(&p.y) {
                        spots.push(p);
                    }
                }
            }
        }
    }
    let mut cfg = SimConfig::smoke();
    cfg.area = area;
    cfg.actuators = spots.len();
    cfg.placement = ActuatorPlacement::Explicit(spots);
    cfg.sensors = 2_000;
    cfg.sensor_placement = SensorPlacement::AroundActuators { radius: 0.0 };
    cfg.faults.count = 0;
    assert!(runs_on_grid(&cfg));
    let mut audit = GridAudit::new(0);
    let ctx = runner::construct(cfg, &mut audit, SimDuration::ZERO);
    // Every querier spot holds a sensor as well as its actuator.
    for q in queriers {
        assert!(
            ctx.sensor_ids().iter().any(|&s| ctx.position(s) == q),
            "no sensor landed on {q:?}"
        );
    }
    assert_eq!(audit.checks, ctx.node_ids().count() as u64);
    assert!(audit.mismatches.is_empty(), "{:?}", &audit.mismatches[..audit.mismatches.len().min(3)]);
}

/// FNV-1a over the `Debug` text of every traced event, one line each.
struct DebugFnv {
    hash: u64,
    events: u64,
}

impl std::fmt::Write for DebugFnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

impl TraceSink for DebugFnv {
    fn on_event(&mut self, event: &TraceEvent) {
        use std::fmt::Write;
        self.events += 1;
        writeln!(self, "{event:?}").expect("hashing cannot fail");
    }
}

/// Flooding on a geometry the grid serves (1 600 sensors at the density of
/// the benchmark's `flood_local`, a 1414 m square of 250 m cells: 5×5),
/// with 100 m sensors, 250 m actuators, mobility and fault rotation, on
/// the serial engine. Every broadcast resolves its receivers through the
/// grid, so the digest pins the schedule the grid query produces: a query
/// that drops or adds a receiver, or reorders them, changes it.
#[test]
fn flood_schedule_on_the_grid_path_is_pinned() {
    let n = 1_600;
    let mut cfg = SimConfig::paper();
    cfg.sensors = n;
    cfg.actuators = n / 100;
    cfg.placement = ActuatorPlacement::UniformRandom;
    let side = 500.0 * (n as f64 / 200.0).sqrt();
    cfg.area = Area::new(side, side);
    cfg.sensor_placement = SensorPlacement::UniformArea;
    cfg.mobility.max_speed = 10.0;
    cfg.warmup = SimDuration::from_secs(1);
    cfg.duration = SimDuration::from_secs(4);
    cfg.traffic.rate_bps = 8_000.0;
    cfg.traffic.sources_per_round = n / 100;
    cfg.traffic.round_interval = SimDuration::from_secs(1);
    cfg.faults.count = n / 100;
    cfg.faults.rotation = SimDuration::from_secs(2);
    cfg.seed = 1;
    assert!(runs_on_grid(&cfg));
    let sink = Arc::new(Mutex::new(DebugFnv { hash: 0xcbf2_9ce4_8422_2325, events: 0 }));
    let (summary, _) =
        runner::run_with_sinks(cfg, &mut FloodProtocol::new(4), vec![Box::new(sink.clone())]);
    let sink = sink.lock().unwrap();
    assert_eq!((sink.events, sink.hash), (20_168, 0x7ee8_c552_f1d5_7cf4));
    assert_eq!(summary.broadcasts_sent, 19_993);
    assert_eq!(summary.delivery_ratio.to_bits(), 0.7625f64.to_bits());
    assert_eq!(summary.energy_communication_j.to_bits(), 407_738.75f64.to_bits());
}

/// Satellite hardening: `cell_index` must stay total over any *finite*
/// position. Points beyond any edge of the area — including exactly on
/// the far edge, where `x / cell_w == cols` — clamp into the nearest
/// border cell, so both insertion/relocation and queries keep working
/// instead of corrupting the cell tables or missing border nodes.
#[test]
fn finite_out_of_domain_positions_clamp_to_border_cells() {
    let area = Area { width: 1000.0, height: 1000.0 };
    // Corner node, far-edge node, and one strictly outside the area (a
    // buggy caller's position): all must land in valid cells.
    let positions = vec![
        Point { x: 5.0, y: 5.0 },
        Point { x: 1000.0, y: 1000.0 },  // exactly on the far edge
        Point { x: -40.0, y: 1275.0 },   // outside on both axes
        Point { x: 500.0, y: 500.0 },
    ];
    let mut grid = SpatialGrid::new(area, 100.0, positions.into_iter());
    assert_eq!(grid.len(), 4);

    let mut buf = Vec::new();
    // A query outside the near corner sees the corner node (clamped to
    // cell (0, 0), whose 3×3 block contains it).
    grid.candidates_into(Point { x: -30.0, y: -30.0 }, &mut buf);
    assert!(buf.contains(&NodeId(0)), "near-corner query missed the corner node: {buf:?}");
    // A query outside the far corner sees the far-edge node and the node
    // that was inserted out of bounds on the y axis.
    grid.candidates_into(Point { x: 1999.0, y: 1050.0 }, &mut buf);
    assert!(buf.contains(&NodeId(1)), "far-corner query missed the edge node: {buf:?}");
    // The out-of-bounds insert clamped to the top border (x≈0, y=max row).
    grid.candidates_into(Point { x: 0.0, y: 999.0 }, &mut buf);
    assert!(buf.contains(&NodeId(2)), "border query missed the clamped node: {buf:?}");

    // Relocation through an out-of-bounds waypoint and back must keep the
    // per-node cell bookkeeping coherent.
    grid.relocate(NodeId(3), Point { x: 2500.0, y: -80.0 });
    grid.candidates_into(Point { x: 999.0, y: 1.0 }, &mut buf);
    assert!(buf.contains(&NodeId(3)), "clamped relocation must stay discoverable: {buf:?}");
    grid.relocate(NodeId(3), Point { x: 500.0, y: 500.0 });
    grid.candidates_into(Point { x: 480.0, y: 520.0 }, &mut buf);
    assert!(buf.contains(&NodeId(3)), "return relocation lost the node: {buf:?}");

    // for_each_within shares the same clamped cell lookup: a square that
    // starts far outside the near corner still reaches the corner node
    // (≈714 m away), and a radius short of it does not.
    let within = |r: f64| {
        let mut seen = Vec::new();
        grid.for_each_within(Point { x: -500.0, y: -500.0 }, r, |id, _| seen.push(id));
        seen
    };
    assert_eq!(within(800.0), [NodeId(0)], "radius query lost the clamped corner node");
    assert!(within(700.0).is_empty());
}

/// A non-finite coordinate has no meaningful cell: that is a caller bug,
/// and debug builds say so loudly instead of silently filing the node
/// into cell 0.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "finite")]
fn nan_query_position_is_rejected_in_debug_builds() {
    let area = Area { width: 100.0, height: 100.0 };
    let grid = SpatialGrid::new(area, 10.0, std::iter::once(Point { x: 5.0, y: 5.0 }));
    let mut buf = Vec::new();
    grid.candidates_into(Point { x: f64::NAN, y: 5.0 }, &mut buf);
}
