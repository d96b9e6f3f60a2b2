//! D-DEAR \[8\]: the cluster/mesh-based WSAN baseline.
//!
//! Sensors exchange 2-hop hellos and the highest-energy sensor of each
//! 2-hop neighborhood becomes a cluster head; members reach their head
//! directly or through one gateway. Each head maintains a flooding-
//! discovered multi-hop path to its closest actuator. Only the heads'
//! paths lengthen with network size (Figure 8's moderate delay growth) and
//! only heads rebuild paths on failure — cheaper than DaTree's per-sensor
//! recovery, but still broadcast-based (Figures 5 and 9).

use crate::flood::{discover, ControlPayload, CTRL_BITS, FLOOD_SCOPE};
use std::collections::{BTreeMap, BTreeSet};
use wsan_sim::{
    Ctx, DataId, EnergyAccount, HopReason, Message, NodeId, NodeKind, Protocol, SimDuration,
};

/// Maximum source retransmissions per packet.
const MAX_RETX: u8 = 2;

/// Minimum spacing between path rebuild floods per head; packets arriving
/// inside the window wait for the in-flight rebuild.
const REBUILD_COOLDOWN: SimDuration = SimDuration::from_secs(1);

/// D-DEAR wire messages.
#[derive(Debug, Clone)]
pub enum DdearMsg {
    /// Inert control frame (hellos, route floods).
    Ctrl,
    /// A data frame: member -> (gateway) -> head -> path -> actuator.
    Data {
        /// The tracked packet.
        data: DataId,
        /// The cluster head responsible for this packet.
        head: NodeId,
        /// Position within the head's actuator path once on it
        /// (`None` before reaching the head).
        path_pos: Option<usize>,
        /// Source retransmission attempt counter.
        attempts: u8,
        /// Transmissions taken so far (trace hop count).
        hops: u32,
    },
}

impl ControlPayload for DdearMsg {
    fn inert() -> Self {
        DdearMsg::Ctrl
    }
}

/// Observable counters.
#[derive(Debug, Clone, Default)]
pub struct DdearStats {
    /// Elected cluster heads.
    pub heads: usize,
    /// Head path rebuilds.
    pub path_repairs: usize,
    /// Member head re-selections.
    pub head_reselects: usize,
    /// Source retransmissions scheduled.
    pub retransmissions: usize,
}

/// The D-DEAR protocol.
#[derive(Debug, Default)]
pub struct DdearProtocol {
    heads: BTreeSet<NodeId>,
    /// Member -> (its head, optional gateway toward it).
    head_of: BTreeMap<NodeId, (NodeId, Option<NodeId>)>,
    /// Head -> path to its actuator (head first, actuator last).
    head_path: BTreeMap<NodeId, Vec<NodeId>>,
    /// Pending retransmissions: tag -> (node to resume at, data, attempts,
    /// transmissions already taken).
    pending: BTreeMap<u64, (NodeId, DataId, u8, u32)>,
    next_pending: u64,
    /// Last rebuild time per head, for the cooldown.
    last_rebuild: BTreeMap<NodeId, wsan_sim::SimTime>,
    /// The two neighbour lists a live re-attachment queries (the member's
    /// and one gateway's), kept across calls.
    neighbor_bufs: [Vec<NodeId>; 2],
    /// Observable counters.
    pub stats: DdearStats,
}

impl DdearProtocol {
    /// The elected cluster heads.
    pub fn heads(&self) -> &BTreeSet<NodeId> {
        &self.heads
    }

    fn build_clusters(&mut self, ctx: &mut Ctx<DdearMsg>) {
        // Two hello broadcasts per sensor (own hello + 2-hop forwarding).
        let sensors: Vec<NodeId> = ctx.sensor_ids().to_vec();
        for &s in &sensors {
            ctx.broadcast(s, CTRL_BITS, EnergyAccount::Construction, DdearMsg::Ctrl);
            ctx.broadcast(s, CTRL_BITS, EnergyAccount::Construction, DdearMsg::Ctrl);
        }
        // Nothing moves or fails during construction, so every node's
        // neighbor set is computed exactly once for the whole placement
        // round; the greedy election and the membership pass below both
        // walk this table instead of re-querying per iteration.
        let mut table: Vec<Vec<NodeId>> = vec![Vec::new(); ctx.node_count()];
        for id in ctx.node_ids() {
            ctx.neighbors_into(id, &mut table[id.index()]);
        }
        // Greedy election: highest-battery first, skip anything already
        // within two hops of a head.
        let mut order = sensors.clone();
        order.sort_by(|&a, &b| ctx.battery(b).total_cmp(&ctx.battery(a)).then(a.cmp(&b)));
        // 1-hop domination: every sensor ends up adjacent to a head, so the
        // member leg is a single transmission (clusters are "physically
        // close sensors"); the 2-hop hellos above pay for the election.
        let mut covered: BTreeSet<NodeId> = BTreeSet::new();
        for &s in &order {
            if covered.contains(&s) {
                continue;
            }
            self.heads.insert(s);
            covered.insert(s);
            covered.extend(table[s.index()].iter().copied());
        }
        self.stats.heads = self.heads.len();
        // Membership: nearest head within 2 hops (gateway = common
        // neighbor when not adjacent).
        for &s in &sensors {
            if self.heads.contains(&s) {
                continue;
            }
            self.attach_member_using(ctx, s, Some(&table));
        }
        // Heads discover their actuator paths.
        let heads: Vec<NodeId> = self.heads.iter().copied().collect();
        for h in heads {
            self.rebuild_head_path(ctx, h, EnergyAccount::Construction);
        }
    }

    /// Runtime (re-)attachment: the topology may have changed since
    /// construction, so neighborhoods are queried fresh.
    fn attach_member(&mut self, ctx: &Ctx<DdearMsg>, s: NodeId) -> Option<(NodeId, Option<NodeId>)> {
        self.attach_member_using(ctx, s, None)
    }

    /// Attaches `s` to its nearest head within two hops. With `table`
    /// (construction), neighbor sets come from the per-round precomputed
    /// lists; without it (runtime re-attachment), they are queried live.
    /// Neighbor lists are in ascending `NodeId` order either way, so both
    /// paths scan gateways identically.
    fn attach_member_using(
        &mut self,
        ctx: &Ctx<DdearMsg>,
        s: NodeId,
        table: Option<&[Vec<NodeId>]>,
    ) -> Option<(NodeId, Option<NodeId>)> {
        let [fresh, fresh_g] = &mut self.neighbor_bufs;
        let neighbors: &[NodeId] = match table {
            Some(t) => &t[s.index()],
            None => {
                ctx.neighbors_into(s, fresh);
                fresh
            }
        };
        // Direct head?
        let direct = neighbors
            .iter()
            .copied()
            .filter(|n| self.heads.contains(n))
            .min_by(|&a, &b| ctx.distance(s, a).total_cmp(&ctx.distance(s, b)));
        if let Some(h) = direct {
            self.head_of.insert(s, (h, None));
            return Some((h, None));
        }
        // Head two hops away through a gateway.
        for g in neighbors {
            let g_neighbors: &[NodeId] = match table {
                Some(t) => &t[g.index()],
                None => {
                    ctx.neighbors_into(*g, fresh_g);
                    fresh_g
                }
            };
            let via = g_neighbors
                .iter()
                .copied()
                .filter(|n| self.heads.contains(n))
                .min_by(|&a, &b| ctx.distance(s, a).total_cmp(&ctx.distance(s, b)));
            if let Some(h) = via {
                self.head_of.insert(s, (h, Some(*g)));
                return Some((h, Some(*g)));
            }
        }
        None
    }

    fn rebuild_head_path(
        &mut self,
        ctx: &mut Ctx<DdearMsg>,
        head: NodeId,
        account: EnergyAccount,
    ) -> Option<SimDuration> {
        // Cooldown: a rebuild flood just happened (or is conceptually in
        // flight); let callers retry against the refreshed path instead of
        // flooding per packet.
        let now = ctx.now();
        if matches!(account, EnergyAccount::Communication) {
            if let Some(&last) = self.last_rebuild.get(&head) {
                if now.saturating_since(last) < REBUILD_COOLDOWN {
                    // A rebuild just ran; retry shortly against its result.
                    return Some(SimDuration::from_millis(20));
                }
            }
            self.last_rebuild.insert(head, now);
        }
        let actuator = ctx
            .actuator_ids()
            .iter()
            .copied()
            .min_by(|&a, &b| ctx.distance(head, a).total_cmp(&ctx.distance(head, b)))?;
        let outcome = discover(ctx, head, actuator, FLOOD_SCOPE, account);
        match outcome.route {
            Some(route) => {
                self.head_path.insert(head, route);
                Some(outcome.latency)
            }
            None => {
                self.head_path.remove(&head);
                None
            }
        }
    }

    /// Forwards a data frame from `node`; `hops` counts the transmissions
    /// already taken.
    #[allow(clippy::too_many_arguments)]
    fn forward(
        &mut self,
        ctx: &mut Ctx<DdearMsg>,
        node: NodeId,
        data: DataId,
        head: NodeId,
        path_pos: Option<usize>,
        attempts: u8,
        hops: u32,
    ) {
        if matches!(ctx.kind(node), NodeKind::Actuator) {
            ctx.deliver_data_with_hops(data, node, hops);
            return;
        }
        let size = ctx.data_size_bits(data).unwrap_or(ctx.config().traffic.packet_bits);
        let frame =
            |head, path_pos, attempts| DdearMsg::Data { data, head, path_pos, attempts, hops: hops + 1 };

        if node == head {
            // On the head: walk its actuator path.
            let next = self
                .head_path
                .get(&head)
                .and_then(|p| p.get(1))
                .copied()
                .filter(|&n| ctx.link_ok(node, n));
            if let Some(next) = next {
                ctx.trace_hop(data, node, next, HopReason::PathWalk);
                ctx.send(node, next, size, EnergyAccount::Communication, frame(head, Some(1), attempts));
                return;
            }
            // Path broken at the head: rebuild and retransmit from here.
            self.stats.path_repairs += 1;
            match self.rebuild_head_path(ctx, head, EnergyAccount::Communication) {
                Some(latency) => self.schedule_retx(ctx, node, data, attempts, latency, hops),
                None => ctx.drop_data(data),
            }
            return;
        }
        if let Some(_pos) = path_pos {
            // On the head's path. The path may have been rebuilt while this
            // frame was in flight, so locate ourselves in the current one.
            let path = self.head_path.get(&head).cloned().unwrap_or_default();
            let pos = path.iter().position(|&n| n == node).unwrap_or(usize::MAX);
            let next = path
                .get(pos.wrapping_add(1))
                .copied()
                .filter(|&n| ctx.link_ok(node, n));
            if let Some(next) = next {
                ctx.trace_hop(data, node, next, HopReason::PathWalk);
                ctx.send(
                    node,
                    next,
                    size,
                    EnergyAccount::Communication,
                    frame(head, Some(pos.wrapping_add(1)), attempts),
                );
                return;
            }
            // Broken mid-path: the head repairs; the source retransmits.
            self.stats.path_repairs += 1;
            let latency = self.rebuild_head_path(ctx, head, EnergyAccount::Communication);
            match latency {
                Some(latency) => {
                    let Some(src) = ctx.data_origin(data) else {
                        ctx.drop_data(data);
                        return;
                    };
                    self.schedule_retx(ctx, src, data, attempts, latency, 0);
                }
                None => ctx.drop_data(data),
            }
            return;
        }
        // Member or gateway leg.
        let (my_head, gateway) = match self.head_of.get(&node).copied() {
            Some(v) => v,
            None => match self.attach_member(ctx, node) {
                Some(v) => {
                    self.stats.head_reselects += 1;
                    v
                }
                None => {
                    ctx.drop_data(data);
                    return;
                }
            },
        };
        let next = match gateway {
            Some(g) if g != node => g,
            _ => my_head,
        };
        let next = if node == next { my_head } else { next };
        if ctx.link_ok(node, next) {
            let pos = None;
            ctx.trace_hop(data, node, next, HopReason::Gateway);
            ctx.send(node, next, size, EnergyAccount::Communication, frame(my_head, pos, attempts));
            return;
        }
        // Stale membership: one solicitation broadcast, re-attach, retry.
        ctx.broadcast(node, CTRL_BITS, EnergyAccount::Communication, DdearMsg::Ctrl);
        self.head_of.remove(&node);
        match self.attach_member(ctx, node) {
            Some((h, g)) => {
                self.stats.head_reselects += 1;
                let next = g.unwrap_or(h);
                if ctx.link_ok(node, next) {
                    ctx.trace_hop(data, node, next, HopReason::Recovery);
                    ctx.send(node, next, size, EnergyAccount::Communication, frame(h, None, attempts));
                } else {
                    ctx.drop_data(data);
                }
            }
            None => ctx.drop_data(data),
        }
    }

    fn schedule_retx(
        &mut self,
        ctx: &mut Ctx<DdearMsg>,
        at: NodeId,
        data: DataId,
        attempts: u8,
        delay: SimDuration,
        hops: u32,
    ) {
        if attempts >= MAX_RETX {
            ctx.drop_data(data);
            return;
        }
        let id = self.next_pending;
        self.next_pending += 1;
        self.pending.insert(id, (at, data, attempts + 1, hops));
        self.stats.retransmissions += 1;
        ctx.set_timer(at, delay, id);
    }
}

impl Protocol for DdearProtocol {
    type Payload = DdearMsg;

    fn name(&self) -> &'static str {
        "D-DEAR"
    }

    fn on_init(&mut self, ctx: &mut Ctx<DdearMsg>) {
        self.build_clusters(ctx);
    }

    fn on_app_data(&mut self, ctx: &mut Ctx<DdearMsg>, src: NodeId, data: DataId) {
        let head = if self.heads.contains(&src) {
            src
        } else {
            match self.head_of.get(&src).copied().or_else(|| {
                self.attach_member(ctx, src)
            }) {
                Some((h, _)) => h,
                None => {
                    ctx.drop_data(data);
                    return;
                }
            }
        };
        self.forward(ctx, src, data, head, None, 0, 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<DdearMsg>, at: NodeId, msg: Message<DdearMsg>) {
        match msg.payload {
            DdearMsg::Ctrl => {}
            DdearMsg::Data { data, head, path_pos, attempts, hops } => {
                // Reaching the head switches the frame onto the path leg.
                let path_pos = if at == head { None } else { path_pos };
                self.forward(ctx, at, data, head, path_pos, attempts, hops);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<DdearMsg>, at: NodeId, tag: u64) {
        if let Some((node, data, attempts, hops)) = self.pending.remove(&tag) {
            debug_assert_eq!(node, at);
            if ctx.is_faulty(node) {
                ctx.drop_data(data);
                return;
            }
            let head = if self.heads.contains(&node) {
                node
            } else {
                match self.head_of.get(&node).copied() {
                    Some((h, _)) => h,
                    None => {
                        ctx.drop_data(data);
                        return;
                    }
                }
            };
            self.forward(ctx, node, data, head, None, attempts, hops);
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
    fn elects_a_sparse_set_of_heads() {
        let (_, p) = runner::run_owned(smoke(1), DdearProtocol::default());
        assert!(p.stats.heads > 0);
        assert!(
            p.stats.heads < 60,
            "2-hop domination keeps heads sparse: {}",
            p.stats.heads
        );
    }

    #[test]
    fn delivers_data() {
        let (summary, _) = runner::run_owned(smoke(2), DdearProtocol::default());
        assert!(summary.delivery_ratio > 0.4, "{summary:?}");
    }

    #[test]
    fn repairs_paths_under_faults() {
        let mut cfg = smoke(3);
        cfg.faults.count = 12;
        let (_, p) = runner::run_owned(cfg, DdearProtocol::default());
        assert!(
            p.stats.path_repairs + p.stats.head_reselects > 0,
            "faults must trigger recovery: {:?}",
            p.stats
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let (a, _) = runner::run_owned(smoke(4), DdearProtocol::default());
        let (b, _) = runner::run_owned(smoke(4), DdearProtocol::default());
        assert_eq!(a, b);
    }
}
