//! DaTree \[2\]: the tree-based WSAN baseline.
//!
//! One tree per actuator: at construction each actuator broadcasts a
//! tree-build wave and every sensor adopts the forwarder of the first wave
//! it hears as its parent (the cheapest construction of all four systems —
//! Figure 10). Data climbs parent pointers to the root. When a sensor's
//! link to its parent breaks it broadcasts toward the root to re-attach,
//! and the *source* retransmits the packet (Section IV) — the recovery
//! behaviour that costs DaTree its throughput and energy under mobility
//! and faults (Figures 4-7).

use crate::flood::{discover, ControlPayload, CTRL_BITS, FLOOD_SCOPE};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use wsan_sim::{
    Ctx, DataId, EnergyAccount, HopReason, Message, NodeId, NodeKind, Protocol, SimDuration,
};

/// Maximum source retransmissions per packet.
const MAX_RETX: u8 = 2;

/// DaTree wire messages.
#[derive(Debug, Clone)]
pub enum DaTreeMsg {
    /// Inert control frame (tree-build wave, repair floods).
    Ctrl,
    /// A data frame climbing the tree.
    Data {
        /// The tracked packet.
        data: DataId,
        /// Source retransmission attempt counter.
        attempts: u8,
        /// Transmissions taken so far (trace hop count).
        hops: u32,
    },
}

impl ControlPayload for DaTreeMsg {
    fn inert() -> Self {
        DaTreeMsg::Ctrl
    }
}

/// Observable counters.
#[derive(Debug, Clone, Default)]
pub struct DaTreeStats {
    /// Parent re-attachments performed.
    pub repairs: usize,
    /// Source retransmissions scheduled.
    pub retransmissions: usize,
    /// Packets dropped after exhausting retransmissions.
    pub drop_exhausted: usize,
}

/// The DaTree protocol.
#[derive(Debug, Default)]
pub struct DaTreeProtocol {
    /// Sensor -> current parent.
    parent: BTreeMap<NodeId, NodeId>,
    /// Sensor -> tree root (actuator).
    root_of: BTreeMap<NodeId, NodeId>,
    /// Pending source retransmissions: tag arg -> (source, data, attempts).
    pending: BTreeMap<u64, (NodeId, DataId, u8)>,
    next_pending: u64,
    /// Observable counters.
    pub stats: DaTreeStats,
}

impl DaTreeProtocol {
    /// Multi-source BFS tree build: every sensor joins the first wave that
    /// reaches it; one construction broadcast per expanding node.
    fn build_trees(&mut self, ctx: &mut Ctx<DaTreeMsg>) {
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        let mut seen: BTreeSet<NodeId> = BTreeSet::new();
        for &a in ctx.actuator_ids() {
            seen.insert(a);
            self.root_of.insert(a, a);
            queue.push_back(a);
        }
        // One scratch buffer for the whole wave: the expansion refills it
        // per node instead of allocating per hop.
        let mut frontier: Vec<NodeId> = Vec::new();
        while let Some(cur) = queue.pop_front() {
            ctx.broadcast(cur, CTRL_BITS, EnergyAccount::Construction, DaTreeMsg::Ctrl);
            let root = self.root_of[&cur];
            ctx.neighbors_into(cur, &mut frontier);
            for &n in &frontier {
                // A node only adopts a parent it can actually transmit to:
                // hearing an actuator's long-range broadcast does not give a
                // short-range sensor an uplink (asymmetric ranges).
                if ctx.distance(n, cur) > ctx.range(n) {
                    continue;
                }
                if seen.insert(n) {
                    self.parent.insert(n, cur);
                    self.root_of.insert(n, root);
                    queue.push_back(n);
                }
            }
        }
    }

    /// Forwards `data` one hop up the tree from `node`, repairing and
    /// triggering source retransmission on failure; `hops` counts the
    /// transmissions already taken.
    fn climb(&mut self, ctx: &mut Ctx<DaTreeMsg>, node: NodeId, data: DataId, attempts: u8, hops: u32) {
        if matches!(ctx.kind(node), NodeKind::Actuator) {
            ctx.deliver_data_with_hops(data, node, hops);
            return;
        }
        let size = ctx.data_size_bits(data).unwrap_or(ctx.config().traffic.packet_bits);
        if let Some(p) = self.parent.get(&node).copied() {
            if ctx.link_ok(node, p) {
                ctx.trace_hop(data, node, p, HopReason::TreeParent);
                if ctx.send(node, p, size, EnergyAccount::Communication, DaTreeMsg::Data {
                    data,
                    attempts,
                    hops: hops + 1,
                }) {
                    return;
                }
            }
        }
        // Parent link broken: broadcast toward the root for a new parent,
        // then have the source retransmit.
        let root = self
            .root_of
            .get(&node)
            .copied()
            .unwrap_or_else(|| nearest_actuator(ctx, node));
        let outcome = discover(
            ctx,
            node,
            root,
            FLOOD_SCOPE,
            EnergyAccount::Communication,
        );
        match outcome.route {
            Some(route) if route.len() >= 2 => {
                self.parent.insert(node, route[1]);
                self.root_of.insert(node, root);
                self.stats.repairs += 1;
                self.schedule_retx(ctx, data, attempts, outcome.latency);
            }
            _ => ctx.drop_data(data),
        }
    }

    fn schedule_retx(
        &mut self,
        ctx: &mut Ctx<DaTreeMsg>,
        data: DataId,
        attempts: u8,
        delay: SimDuration,
    ) {
        if attempts >= MAX_RETX {
            ctx.drop_data(data);
            self.stats.drop_exhausted += 1;
            return;
        }
        let Some(src) = ctx.data_origin(data) else {
            ctx.drop_data(data);
            return;
        };
        let id = self.next_pending;
        self.next_pending += 1;
        self.pending.insert(id, (src, data, attempts + 1));
        self.stats.retransmissions += 1;
        ctx.set_timer(src, delay, id);
    }
}

fn nearest_actuator<P>(ctx: &Ctx<P>, node: NodeId) -> NodeId {
    ctx.actuator_ids()
        .iter()
        .copied()
        .min_by(|&a, &b| ctx.distance(node, a).total_cmp(&ctx.distance(node, b)))
        .expect("actuators exist")
}

impl Protocol for DaTreeProtocol {
    type Payload = DaTreeMsg;

    fn name(&self) -> &'static str {
        "DaTree"
    }

    fn on_init(&mut self, ctx: &mut Ctx<DaTreeMsg>) {
        self.build_trees(ctx);
    }

    fn on_app_data(&mut self, ctx: &mut Ctx<DaTreeMsg>, src: NodeId, data: DataId) {
        self.climb(ctx, src, data, 0, 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<DaTreeMsg>, at: NodeId, msg: Message<DaTreeMsg>) {
        match msg.payload {
            DaTreeMsg::Ctrl => {}
            DaTreeMsg::Data { data, attempts, hops } => self.climb(ctx, at, data, attempts, hops),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<DaTreeMsg>, at: NodeId, tag: u64) {
        if let Some((src, data, attempts)) = self.pending.remove(&tag) {
            debug_assert_eq!(src, at);
            if ctx.is_faulty(src) {
                ctx.drop_data(data);
                return;
            }
            // Source retransmission: the packet restarts its journey, so
            // the hop count restarts with it.
            self.climb(ctx, src, data, attempts, 0);
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
    fn trees_cover_connected_sensors() {
        let (_, p) = runner::run_owned(smoke(1), DaTreeProtocol::default());
        // Virtually all sensors in the dense smoke deployment get a parent.
        assert!(p.parent.len() > 100, "attached {}", p.parent.len());
    }

    #[test]
    fn delivers_data_and_repairs_under_mobility() {
        let mut cfg = smoke(2);
        cfg.mobility.max_speed = 4.0;
        let (summary, p) = runner::run_owned(cfg, DaTreeProtocol::default());
        assert!(summary.delivery_ratio > 0.3, "{summary:?}");
        assert!(p.stats.repairs > 0, "mobility must break parent links: {:?}", p.stats);
        assert!(p.stats.retransmissions > 0);
    }

    #[test]
    fn construction_is_cheap() {
        let (summary, _) = runner::run_owned(smoke(3), DaTreeProtocol::default());
        // One broadcast per node: construction well under communication.
        assert!(summary.energy_construction_j > 0.0);
        assert!(summary.energy_construction_j < summary.energy_communication_j);
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _) = runner::run_owned(smoke(4), DaTreeProtocol::default());
        let (b, _) = runner::run_owned(smoke(4), DaTreeProtocol::default());
        assert_eq!(a, b);
    }
}
