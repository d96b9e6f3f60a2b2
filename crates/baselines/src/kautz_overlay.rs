//! Kautz-overlay \[20\]: the application-layer Kautz baseline.
//!
//! The same cell structure and routing protocol as REFER — "We used REFER's
//! routing protocol in Kautz-overlay to have a fair comparison" (Section
//! IV) — but KIDs are assigned to *random* sensors with no regard for
//! physical position, as an application-layer overlay would. Every overlay
//! arc therefore needs a flooding-discovered multi-hop physical path
//! (Figure 10's dominant construction cost), every overlay hop costs
//! several physical transmissions (Figures 6 and 8's delay), and every
//! physical break triggers a re-flood (Figures 5 and 9's energy).

use crate::flood::{discover, ControlPayload, FLOOD_SCOPE};
use kautz::RouteTable;
use refer::cells::{nearest_corner, plan_cells};
use refer::embedding::EmbeddingPlan;
use refer::roster::Roster;
use refer::routing::route_choices;
use rand::seq::SliceRandom;
use std::collections::BTreeMap;
use std::sync::Arc;
use refer_proto::FailureKnowledge;
use wsan_sim::{
    Ctx, DataId, EnergyAccount, HopReason, Message, NodeId, NodeKind, Point, Protocol,
    RoutingStrategy,
};

/// Kautz graph degree per cell (REFER's, the paper's 2).
const DEGREE: u8 = 2;

/// Minimum spacing between re-discovery floods for the same (node,
/// target) pair; packets arriving inside the window reuse the freshly
/// discovered route instead of flooding again.
const FLOOD_COOLDOWN: wsan_sim::SimDuration = wsan_sim::SimDuration::from_secs(1);

/// Maximum physical-path repairs per frame before giving up.
const MAX_REPAIRS: u8 = 6;

/// How long an unacknowledged-frame suspicion lasts under
/// [`FaultModel::Discovered`] before the peer is given the benefit of the
/// doubt again.
const SUSPICION_TTL: wsan_sim::SimDuration = wsan_sim::SimDuration::from_secs(8);

/// A data frame riding the overlay.
#[derive(Debug, Clone)]
pub struct OvFrame {
    /// The tracked packet.
    pub data: DataId,
    /// Destination cell index.
    pub cell: usize,
    /// Destination vertex (a corner actuator's), by its arc-table index.
    pub dest_vertex: u32,
    /// Conflict forced digit for the next overlay relay.
    pub forced: Option<u8>,
    /// Regular-routing progress ([`RoutingStrategy::Regular`]): digits of
    /// `dest_vertex` already appended. Always 0 under the shortest planner.
    pub appended: u8,
    /// Physical route of the current overlay hop.
    pub path: Vec<NodeId>,
    /// Position within `path`.
    pub pos: usize,
    /// Overlay hops taken (loop guard).
    pub hops: u8,
    /// Physical-path repairs performed for this frame.
    pub repairs: u8,
    /// Physical transmissions taken end to end (trace hop count).
    pub tx: u32,
}

/// Kautz-overlay wire messages.
#[derive(Debug, Clone)]
pub enum OvMsg {
    /// Inert control frame.
    Ctrl,
    /// A data frame.
    Data(OvFrame),
}

impl ControlPayload for OvMsg {
    fn inert() -> Self {
        OvMsg::Ctrl
    }
}

/// Observable counters.
#[derive(Debug, Clone, Default)]
pub struct OverlayStats {
    /// Overlay arcs whose physical path was built at construction.
    pub arcs_built: usize,
    /// Physical path re-discoveries during data forwarding.
    pub path_repairs: usize,
}

const MAX_OVERLAY_HOPS: u8 = 16;

/// The Kautz-overlay protocol.
#[derive(Debug)]
pub struct KautzOverlayProtocol {
    plan: EmbeddingPlan,
    /// Dense Theorem 3.8 tables for the cell graph `K(degree, 3)`, shared
    /// with the roster, which names every vertex by its index in them.
    route_table: Arc<RouteTable>,
    /// Corner actuators per cell, in KID order.
    corners: Vec<[NodeId; 3]>,
    /// Who holds which vertex: REFER's roster, filled at random.
    roster: Roster,
    /// Physical route per overlay arc (from-node, to-node).
    paths: BTreeMap<(NodeId, NodeId), Vec<NodeId>>,
    /// Pending resumptions after a repair: tag -> (node, frame).
    pending: BTreeMap<u64, (NodeId, OvFrame)>,
    next_pending: u64,
    /// Last flood time per (node, target), for the cooldown.
    last_flood: BTreeMap<(NodeId, NodeId), wsan_sim::SimTime>,
    /// The fault oracle, or (`Discovered` and `Byzantine` runs) failure
    /// suspicions learned from unacknowledged frames.
    knowledge: FailureKnowledge,
    /// Observable counters.
    pub stats: OverlayStats,
}

impl Default for KautzOverlayProtocol {
    fn default() -> Self {
        let route_table = Arc::new(
            RouteTable::new(DEGREE, 3).expect("cell graph degree within MAX_DEGREE"),
        );
        let plan = EmbeddingPlan::new(&route_table);
        KautzOverlayProtocol {
            plan,
            roster: Roster::new(Arc::clone(&route_table), 0, 0),
            route_table,
            corners: Vec::new(),
            paths: BTreeMap::new(),
            pending: BTreeMap::new(),
            next_pending: 0,
            last_flood: BTreeMap::new(),
            knowledge: FailureKnowledge::Oracle,
            stats: OverlayStats::default(),
        }
    }
}

impl KautzOverlayProtocol {
    fn build_overlay(&mut self, ctx: &mut Ctx<OvMsg>) {
        let actuators: Vec<NodeId> = ctx.actuator_ids().to_vec();
        let positions: Vec<Point> = actuators.iter().map(|&a| ctx.position(a)).collect();
        let ids: Vec<u64> = actuators.iter().map(|a| u64::from(a.0)).collect();
        let Some(layout) = plan_cells(&ids, &positions, ctx.config().actuator_range) else {
            return;
        };
        // Random sensor selection per cell: the application layer ignores
        // physical position entirely.
        let mut free: Vec<NodeId> = ctx.sensor_ids().to_vec();
        free.shuffle(ctx.rng());
        let sensor_kids: Vec<u32> = self
            .plan
            .assignment_order()
            .into_iter()
            .filter(|k| !self.plan.corners.contains(k))
            .collect();
        self.roster =
            Roster::new(Arc::clone(&self.route_table), layout.cells.len(), ctx.node_count());
        for (idx, cell) in layout.cells.iter().enumerate() {
            let corners = cell.corners.map(|i| actuators[i]);
            for (&kid, &node) in self.plan.corners.iter().zip(corners.iter()) {
                self.roster.assign_kid(idx, kid, node);
            }
            for &kid in &sensor_kids {
                if let Some(node) = free.pop() {
                    self.roster.assign_kid(idx, kid, node);
                }
            }
            self.corners.push(corners);
        }
        // Every overlay arc needs a flooding-built physical route.
        for cell_idx in 0..self.corners.len() {
            for v in 0..self.route_table.node_count() {
                let Some(from) = self.roster.owner_of(cell_idx, v as u32) else { continue };
                for &succ in self.route_table.successors(v) {
                    let Some(to) = self.roster.owner_of(cell_idx, succ) else { continue };
                    if from == to || self.paths.contains_key(&(from, to)) {
                        continue;
                    }
                    let outcome = discover(
                        ctx,
                        from,
                        to,
                        FLOOD_SCOPE,
                        EnergyAccount::Construction,
                    );
                    if let Some(route) = outcome.route {
                        self.paths.insert((from, to), route);
                        self.stats.arcs_built += 1;
                    }
                }
            }
        }
    }

    /// Overlay-level step at member `node`: pick the next overlay hop with
    /// REFER's routing protocol and start walking its physical path.
    fn overlay_step(&mut self, ctx: &mut Ctx<OvMsg>, node: NodeId, mut frame: OvFrame) {
        if frame.hops >= MAX_OVERLAY_HOPS {
            ctx.drop_data(frame.data);
            return;
        }
        frame.hops += 1;
        let Some(at) = self.roster.kid_in_cell(node, frame.cell) else {
            ctx.drop_data(frame.data);
            return;
        };
        let dest = frame.dest_vertex;
        if at == dest {
            if matches!(ctx.kind(node), NodeKind::Actuator) {
                ctx.deliver_data_with_hops(frame.data, node, frame.tx);
            } else {
                ctx.drop_data(frame.data);
            }
            return;
        }
        // Faber–Streib regular routing: the overlay successor comes from
        // the destination's digit sequence instead of the shortest-path
        // planner; a dead regular successor falls back to the planner with
        // the digit progress restarted.
        let regular_pick = if matches!(ctx.config().routing, RoutingStrategy::Regular) {
            self.roster.regular_owner(frame.cell, node, at, dest, frame.appended, |n| {
                self.knowledge.presumed_alive(ctx, n)
            })
        } else {
            None
        };
        let (target, forced, appended) = if let Some((n, appended)) = regular_pick {
            (n, None, appended)
        } else {
            let (from, to) = (at as usize, dest as usize);
            let Ok(choices) = route_choices(&self.route_table, from, to, frame.forced, ctx.rng())
            else {
                ctx.drop_data(frame.data);
                return;
            };
            let pick = self.roster.first_owner(frame.cell, node, &choices, |n| {
                self.knowledge.presumed_alive(ctx, n)
            });
            let Some((_, target, forced)) = pick else {
                ctx.drop_data(frame.data);
                return;
            };
            (target, forced, 0)
        };
        frame.forced = forced;
        frame.appended = appended;
        match self.paths.get(&(node, target)).cloned() {
            Some(path) if path.first() == Some(&node) => {
                frame.path = path;
                frame.pos = 0;
                self.walk(ctx, node, frame);
            }
            _ => {
                // No stored route (or we are not its head): discover one now.
                self.repair_and_resume(ctx, node, target, frame);
            }
        }
    }

    /// Walks one physical hop of the current overlay path.
    fn walk(&mut self, ctx: &mut Ctx<OvMsg>, node: NodeId, mut frame: OvFrame) {
        if frame.path.get(frame.pos).copied() != Some(node) {
            // The path was replaced while this frame was in flight; find
            // ourselves in it, or rebuild toward the overlay target.
            match frame.path.iter().position(|&n| n == node) {
                Some(pos) => frame.pos = pos,
                None => {
                    let Some(&target) = frame.path.last() else {
                        ctx.drop_data(frame.data);
                        return;
                    };
                    self.repair_and_resume(ctx, node, target, frame);
                    return;
                }
            }
        }
        if frame.pos + 1 >= frame.path.len() {
            // Arrived at the overlay successor.
            self.overlay_step(ctx, node, frame);
            return;
        }
        let next = frame.path[frame.pos + 1];
        if self.knowledge.usable(ctx, node, next) {
            frame.pos += 1;
            frame.tx += 1;
            let (data, out) = (frame.data, OvMsg::Data(frame));
            self.knowledge.send_data(ctx, node, next, data, HopReason::PathWalk, out);
            return;
        }
        // Physical hop broken: re-flood toward the overlay target and
        // resume after the discovery latency (no source retransmission —
        // the overlay is fault-tolerant at the overlay level).
        let target = *frame.path.last().expect("non-empty path");
        self.repair_and_resume(ctx, node, target, frame);
    }

    fn repair_and_resume(
        &mut self,
        ctx: &mut Ctx<OvMsg>,
        node: NodeId,
        target: NodeId,
        mut frame: OvFrame,
    ) {
        if node == target {
            self.overlay_step(ctx, node, frame);
            return;
        }
        if frame.repairs >= MAX_REPAIRS {
            ctx.drop_data(frame.data);
            return;
        }
        frame.repairs += 1;
        // A previously repaired route for this pair may still be usable.
        if let Some(cached) = self.paths.get(&(node, target)) {
            if cached.len() >= 2 && self.knowledge.usable(ctx, node, cached[1]) {
                frame.path = cached.clone();
                frame.pos = 0;
                self.walk(ctx, node, frame);
                return;
            }
        }
        // Cooldown: within the window, packets wait for the in-flight
        // repair instead of launching another flood.
        let now = ctx.now();
        if let Some(&last) = self.last_flood.get(&(node, target)) {
            if now.saturating_since(last) < FLOOD_COOLDOWN {
                // A discovery for this pair just ran; retry shortly against
                // its (cached) result instead of flooding again. The wait
                // still consumes a repair: an unbounded budget lets frames
                // cycle wait/expire indefinitely through rotating faults.
                let id = self.next_pending;
                self.next_pending += 1;
                self.pending.insert(id, (node, frame));
                ctx.set_timer(node, wsan_sim::SimDuration::from_millis(20), id);
                return;
            }
        }
        self.last_flood.insert((node, target), now);
        self.stats.path_repairs += 1;
        let outcome = discover(
            ctx,
            node,
            target,
            FLOOD_SCOPE,
            EnergyAccount::Communication,
        );
        match outcome.route {
            Some(route) => {
                self.paths.insert((node, target), route.clone());
                frame.path = route;
                frame.pos = 0;
                let id = self.next_pending;
                self.next_pending += 1;
                self.pending.insert(id, (node, frame));
                ctx.set_timer(node, outcome.latency, id);
            }
            None => ctx.drop_data(frame.data),
        }
    }
}

impl Protocol for KautzOverlayProtocol {
    type Payload = OvMsg;

    fn name(&self) -> &'static str {
        "Kautz-overlay"
    }

    fn on_init(&mut self, ctx: &mut Ctx<OvMsg>) {
        // Byzantine runs use the discovered machinery too: suspicion from
        // ACK expiry instead of the oracle. The overlay has no suspicion
        // gossip, so compromised nodes hurt it through misrouting, silent
        // drops and forged ACKs alone.
        self.knowledge = FailureKnowledge::for_model(ctx.config().faults.model, SUSPICION_TTL);
        self.build_overlay(ctx);
    }

    fn on_ack(&mut self, ctx: &mut Ctx<OvMsg>, _at: NodeId, peer: NodeId) {
        self.knowledge.contact(ctx, peer);
    }

    fn on_send_expired(
        &mut self,
        ctx: &mut Ctx<OvMsg>,
        at: NodeId,
        peer: NodeId,
        payload: OvMsg,
        _attempts: u32,
    ) {
        // Every retry toward `peer` went unacknowledged: suspect it and
        // repair the physical path around it, the overlay's usual recovery.
        self.knowledge.suspect(ctx, peer);
        let OvMsg::Data(frame) = payload else {
            return;
        };
        if ctx.self_faulty(at) {
            ctx.drop_data(frame.data);
            return;
        }
        match frame.path.last().copied() {
            Some(target) => self.repair_and_resume(ctx, at, target, frame),
            None => ctx.drop_data(frame.data),
        }
    }

    fn on_app_data(&mut self, ctx: &mut Ctx<OvMsg>, src: NodeId, data: DataId) {
        if self.corners.is_empty() {
            ctx.drop_data(data);
            return;
        }
        let access = if self.roster.is_member(src) {
            Some(src)
        } else {
            self.roster.nearest_member(ctx, &self.knowledge, src)
        };
        let Some(access) = access else {
            ctx.drop_data(data);
            return;
        };
        let (cell, _) = self.roster.memberships(access)[0];
        let nearest = nearest_corner(&self.corners[cell], |c| ctx.distance(src, c));
        let mut frame = OvFrame {
            data,
            cell,
            dest_vertex: self.plan.corners[nearest],
            forced: None,
            appended: 0,
            path: Vec::new(),
            pos: 0,
            hops: 0,
            repairs: 0,
            tx: 0,
        };
        if access == src {
            self.overlay_step(ctx, src, frame);
            return;
        }
        frame.tx += 1;
        let out = OvMsg::Data(frame);
        if !self.knowledge.send_data(ctx, src, access, data, HopReason::Access, out) {
            ctx.drop_data(data);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<OvMsg>, at: NodeId, msg: Message<OvMsg>) {
        self.knowledge.contact(ctx, msg.from);
        match msg.payload {
            OvMsg::Ctrl => {}
            OvMsg::Data(frame) => {
                if frame.path.is_empty() {
                    // Access handoff arriving at the entry member.
                    if self.roster.is_member(at) {
                        self.overlay_step(ctx, at, frame);
                    } else {
                        ctx.drop_data(frame.data);
                    }
                } else {
                    self.walk(ctx, at, frame);
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<OvMsg>, at: NodeId, tag: u64) {
        if let Some((node, frame)) = self.pending.remove(&tag) {
            debug_assert_eq!(node, at);
            if ctx.self_faulty(node) {
                ctx.drop_data(frame.data);
                return;
            }
            self.walk(ctx, node, frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsan_sim::{runner, SimConfig};

    fn smoke(seed: u64) -> SimConfig {
        let mut cfg = SimConfig::smoke();
        cfg.seed = seed;
        cfg
    }

    #[test]
    fn overlay_builds_arcs_with_expensive_floods() {
        let (summary, p) = runner::run_owned(smoke(1), KautzOverlayProtocol::default());
        assert!(p.stats.arcs_built > 40, "most arcs get physical routes: {:?}", p.stats);
        assert!(
            summary.energy_construction_j > 10_000.0,
            "per-arc floods dominate construction: {}",
            summary.energy_construction_j
        );
    }

    #[test]
    fn delivers_some_data_despite_long_paths() {
        let (summary, p) = runner::run_owned(smoke(2), KautzOverlayProtocol::default());
        assert!(summary.delivery_ratio > 0.1, "{summary:?} {:?}", p.stats);
    }

    #[test]
    fn repairs_follow_mobility() {
        let mut cfg = smoke(3);
        cfg.mobility.max_speed = 4.0;
        let (_, p) = runner::run_owned(cfg, KautzOverlayProtocol::default());
        assert!(p.stats.path_repairs > 0, "{:?}", p.stats);
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _) = runner::run_owned(smoke(4), KautzOverlayProtocol::default());
        let (b, _) = runner::run_owned(smoke(4), KautzOverlayProtocol::default());
        assert_eq!(a, b);
    }
}
