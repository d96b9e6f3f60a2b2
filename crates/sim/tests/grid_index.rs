//! The spatial grid neighbor index must be invisible: every query answers
//! exactly what a brute-force scan over the public getters answers, at
//! every instant of a run. `physical_neighbors`
//! has one read site for the index, so per-query identity at every tick
//! is run identity.
//!
//! The engine only enters the grid arm when the grid is larger than 3×3
//! cells; the paper's 500 m square with 250 m actuators is 2×2 and takes
//! the scan. Every audit therefore asserts which side its geometry is on.

use wsan_sim::{
    runner, Area, Ctx, DataId, Message, NodeId, Point, Protocol, SimConfig, SimDuration,
    SpatialGrid,
};

/// A protocol that audits the engine from inside: at every mobility-tick
/// boundary it recomputes each node's neighborhood by brute force through
/// the public getters and compares it to `physical_neighbors`.
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

/// Whether `physical_neighbors` answers `cfg`'s queries from the grid
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

    // for_each_candidate shares the same clamped cell lookup.
    let mut seen = Vec::new();
    grid.for_each_candidate(Point { x: -500.0, y: -500.0 }, |id, _| seen.push(id));
    assert!(seen.contains(&NodeId(0)), "for_each_candidate disagreed with candidates_into");
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
