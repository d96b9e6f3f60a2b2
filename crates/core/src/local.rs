//! One REFER node's own state, and the handlers that touch only it.
//!
//! A [`NodeLocal`] row holds what a node keeps itself (Sections III-B2 and
//! III-B4): the path queries it relayed and those it collects, the members
//! it heard, the sleepers that registered with it, its last probe and
//! whether its periodic timers run. Its fields are private: the container
//! in [`crate::protocol`] reaches a row only through these methods, which
//! borrow the shared [`Roster`] read-only, and the shared
//! [`FailureKnowledge`] too except where a heartbeat check raises a
//! suspicion.
//!
//! The container keeps what spans nodes: construction (a picked path writes
//! the roster for every sensor on it), the maintenance tick after its
//! heartbeat check (`ReferProtocol::maintain`: a handover reads the dead
//! holder's [`candidates`](NodeLocal::candidates), writes the roster and
//! arms the replacement's row; the tick fills lists the container keeps
//! across ticks instead of copying the roster each time), the data path (it
//! reads every cell's roster, the tier and the layout) and dispatch.

use crate::config::{
    BEACON_INTERVAL, CTRL_BITS, HEARTBEAT_TIMEOUT, MAINTENANCE_INTERVAL, PROBE_INTERVAL,
    QUERY_WINDOW,
};
use crate::protocol::{tag, ReferMsg, KIND_BEACON, KIND_MAINT, KIND_PROBE, KIND_QPICK};
use crate::roster::Roster;
use rand::Rng;
use refer_proto::{FailureKnowledge, ProtoCtx};
use std::sync::Arc;
use wsan_sim::{EnergyAccount, NodeId, NodeKind, SimDuration};

/// A path query open at its collector until the pick timer takes it.
#[derive(Debug)]
pub(crate) struct QueryState {
    pub(crate) cell: usize,
    /// Vertices to hand to the two interior sensors, in hop order from
    /// origin.
    pub(crate) interior_kids: Vec<u32>,
    /// Collected candidate paths, as they arrived.
    pub(crate) paths: Vec<Arc<[(NodeId, f64)]>>,
    /// Whether the pick timer has been scheduled.
    timer_set: bool,
}

/// Everything REFER keeps per node besides its vertices (those are in
/// [`Roster`]). The container holds one row per node, indexed by
/// [`NodeId::index`].
#[derive(Debug)]
pub(crate) struct NodeLocal {
    id: NodeId,
    /// Members whose beacons this (non-member) node heard, most recent
    /// first, at most 4.
    heard: Vec<NodeId>,
    /// Sleepers that registered with this member as replacement
    /// candidates, most recent first, at most 8.
    candidates: Vec<NodeId>,
    /// When this sleeper last probed a member (micros).
    last_probe: Option<u64>,
    /// Whether the node's beacon (and maintenance) timers are running.
    beacon_started: bool,
    /// The qids of the path queries this sensor relayed.
    relayed: Vec<u64>,
    /// The path queries this node collects, by qid.
    queries: Vec<(u64, QueryState)>,
}

/// Puts `node` first in `list`, dropping its older entry and anything
/// past `cap`.
fn remember(list: &mut Vec<NodeId>, node: NodeId, cap: usize) {
    list.retain(|&m| m != node);
    list.insert(0, node);
    list.truncate(cap);
}

impl NodeLocal {
    pub(crate) fn new(id: NodeId) -> Self {
        NodeLocal {
            id,
            heard: Vec::new(),
            candidates: Vec::new(),
            last_probe: None,
            beacon_started: false,
            relayed: Vec::new(),
            queries: Vec::new(),
        }
    }

    /// The sleepers registered with this member, most recent first.
    pub(crate) fn candidates(&self) -> &[NodeId] {
        &self.candidates
    }

    /// Opens query `qid` at this node, its collector.
    pub(crate) fn open_query(&mut self, qid: u64, cell: usize, interior_kids: Vec<u32>) {
        let query = QueryState { cell, interior_kids, paths: Vec::new(), timer_set: false };
        self.queries.push((qid, query));
    }

    /// Closes query `qid` and returns what it collected.
    pub(crate) fn take_query(&mut self, qid: u64) -> Option<QueryState> {
        let at = self.queries.iter().position(|(q, _)| *q == qid)?;
        Some(self.queries.swap_remove(at).1)
    }

    /// A TTL-scoped path query arrived. The collector keeps a path of the
    /// right length while the query is open, and arms the pick timer on
    /// the first arrival. A free sensor relays each query once while TTL
    /// is left, appending itself and its battery, unless it is already on
    /// the path. The path arrives shared: only a relay copies it, once, into
    /// the one longer path it sends.
    pub(crate) fn on_path_query(
        &mut self,
        ctx: &mut impl ProtoCtx<ReferMsg>,
        roster: &Roster,
        qid: u64,
        ttl: u8,
        target: NodeId,
        path: Arc<[(NodeId, f64)]>,
    ) {
        let me = self.id;
        if me == target {
            if let Some((_, q)) = self.queries.iter_mut().find(|(q, _)| *q == qid) {
                if path.len() == q.interior_kids.len() {
                    q.paths.push(path);
                }
                if !std::mem::replace(&mut q.timer_set, true) {
                    ctx.set_timer(me, QUERY_WINDOW, tag(KIND_QPICK, qid));
                }
            }
            return;
        }
        if ttl == 0
            || !matches!(ctx.kind(me), NodeKind::Sensor)
            || roster.is_member(me)
            || path.iter().any(|(n, _)| *n == me)
            || self.relayed.contains(&qid)
        {
            return;
        }
        self.relayed.push(qid);
        let path = path.iter().copied().chain([(me, ctx.battery(me))]).collect();
        let relay = ReferMsg::PathQuery { qid, ttl: ttl - 1, target, path };
        ctx.broadcast(me, CTRL_BITS, EnergyAccount::Construction, relay);
    }

    /// A member's beacon from `from`. A non-member remembers it and, if a
    /// probe is due, probes it to register as a replacement candidate.
    pub(crate) fn on_beacon(
        &mut self,
        ctx: &mut impl ProtoCtx<ReferMsg>,
        roster: &Roster,
        from: NodeId,
        maintenance_enabled: bool,
    ) {
        if roster.is_member(self.id) {
            return;
        }
        remember(&mut self.heard, from, 4);
        let now = ctx.now().as_micros();
        let due =
            self.last_probe.is_none_or(|t| now.saturating_sub(t) >= PROBE_INTERVAL.as_micros());
        if due && maintenance_enabled && !ctx.self_faulty(self.id) {
            self.last_probe = Some(now);
            ctx.send(self.id, from, CTRL_BITS, EnergyAccount::Communication, ReferMsg::Probe);
        }
    }

    /// Sleeper `from` registers with this member as a candidate.
    pub(crate) fn on_probe(&mut self, from: NodeId) {
        remember(&mut self.candidates, from, 8);
    }

    /// A sleeping sensor's wake-up: probe the best-known member to (re-)
    /// register as a replacement candidate, then go back to sleep until the
    /// next probe interval (Section III-B4's sleep/wait duty cycle).
    pub(crate) fn on_probe_timer(
        &mut self,
        ctx: &mut impl ProtoCtx<ReferMsg>,
        roster: &Roster,
        knowledge: &FailureKnowledge,
    ) {
        ctx.set_timer(self.id, PROBE_INTERVAL, tag(KIND_PROBE, 0));
        if roster.is_member(self.id) || ctx.self_faulty(self.id) {
            return;
        }
        if let Some(m) = self.known_member(ctx, roster, knowledge) {
            self.last_probe = Some(ctx.now().as_micros());
            ctx.send(self.id, m, CTRL_BITS, EnergyAccount::Communication, ReferMsg::Probe);
        }
    }

    /// The member this node enters the backbone through: itself if it is
    /// one, else its most recent beacon source that is still a member and
    /// usable, else the nearest member it presumes reachable (what a fresh
    /// beacon round would tell it).
    pub(crate) fn known_member(
        &self,
        ctx: &impl ProtoCtx<ReferMsg>,
        roster: &Roster,
        knowledge: &FailureKnowledge,
    ) -> Option<NodeId> {
        if roster.is_member(self.id) {
            return Some(self.id);
        }
        let mut heard = self.heard.iter().copied();
        heard
            .find(|&m| roster.is_member(m) && knowledge.usable(ctx, self.id, m))
            .or_else(|| roster.nearest_member(ctx, knowledge, self.id))
    }

    /// Two-hop access for a node with no member in range: the nearest
    /// neighbouring free sensor that has a usable member in range (it
    /// learned one from beacons), or `None`. Under local failure knowledge
    /// the neighbourhood is every other sensor in range, not the oracle's.
    /// `pool` is the caller's buffer, cleared and refilled here, so the
    /// search allocates only while the buffer grows.
    pub(crate) fn two_hop_relay(
        &self,
        ctx: &impl ProtoCtx<ReferMsg>,
        roster: &Roster,
        knowledge: &FailureKnowledge,
        pool: &mut Vec<NodeId>,
    ) -> Option<NodeId> {
        let src = self.id;
        if knowledge.is_local() {
            pool.clear();
            let in_range = |&n: &NodeId| n != src && ctx.in_range(src, n);
            pool.extend(ctx.sensor_ids().iter().copied().filter(in_range));
        } else {
            ctx.neighbors_into(src, pool);
        }
        pool.iter()
            .copied()
            .filter(|&n| {
                matches!(ctx.kind(n), NodeKind::Sensor)
                    && !roster.is_member(n)
                    && roster.members().iter().any(|&m| knowledge.usable(ctx, n, m))
            })
            .min_by(|&a, &b| ctx.distance(src, a).total_cmp(&ctx.distance(src, b)))
    }

    /// A member beacons. A node that is no longer a member lets the timer
    /// lapse.
    pub(crate) fn on_beacon_timer(&mut self, ctx: &mut impl ProtoCtx<ReferMsg>, roster: &Roster) {
        let me = self.id;
        if !ctx.self_faulty(me) && roster.is_member(me) {
            ctx.broadcast(me, CTRL_BITS, EnergyAccount::Communication, ReferMsg::Beacon);
        }
        self.rearm(ctx, roster, BEACON_INTERVAL, KIND_BEACON);
    }

    /// Heartbeat detection (local failure knowledge only): a Kautz-graph
    /// neighbor of this member that has beaconed before but has now been
    /// silent past the heartbeat timeout becomes suspected.
    pub(crate) fn heartbeat_check(
        &self,
        ctx: &mut impl ProtoCtx<ReferMsg>,
        roster: &Roster,
        knowledge: &mut FailureKnowledge,
    ) {
        let now = ctx.now();
        for (_, _, owner) in roster.kautz_neighbor_owners(self.id) {
            if matches!(ctx.kind(owner), NodeKind::Sensor)
                && matches!(&*knowledge, FailureKnowledge::Local(view)
                    if view.stale(owner, now, HEARTBEAT_TIMEOUT))
            {
                knowledge.suspect(ctx, owner);
            }
        }
    }

    /// A periodic timer of `kind` fired: a member re-arms it `after` from
    /// now and gets `true`; a node that lost its last vertex stands its
    /// timers down instead.
    pub(crate) fn rearm(
        &mut self,
        ctx: &mut impl ProtoCtx<ReferMsg>,
        roster: &Roster,
        after: SimDuration,
        kind: u64,
    ) -> bool {
        let member = roster.is_member(self.id);
        if member {
            ctx.set_timer(self.id, after, tag(kind, 0));
        } else {
            self.beacon_started = false;
        }
        member
    }

    /// Arms a new member's beacon and maintenance timers unless they run
    /// from an earlier membership. At `CellReady` (`staggered`) the first
    /// beacon waits up to a second more, and only a sensor maintains; a
    /// replacement starts both at once.
    pub(crate) fn start_member_timers(
        &mut self,
        ctx: &mut impl ProtoCtx<ReferMsg>,
        staggered: bool,
    ) {
        if std::mem::replace(&mut self.beacon_started, true) {
            return;
        }
        let stagger = if staggered {
            SimDuration::from_micros(ctx.rng().gen_range(0..1_000_000))
        } else {
            SimDuration::ZERO
        };
        ctx.set_timer(self.id, BEACON_INTERVAL + stagger, tag(KIND_BEACON, 0));
        if !staggered || matches!(ctx.kind(self.id), NodeKind::Sensor) {
            ctx.set_timer(self.id, MAINTENANCE_INTERVAL + stagger, tag(KIND_MAINT, 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReferProtocol;
    use kautz::RouteTable;
    use refer_proto::{IoCtx, Output, WorldView};
    use wsan_sim::{runner, SimConfig};

    /// The smoke deployment as a buffering driver, an empty one-cell
    /// roster, and three sensors that each reach at least one node.
    fn world() -> (IoCtx<ReferMsg>, Roster, Vec<NodeId>) {
        let mut refer = ReferProtocol::default();
        let sim = runner::construct(SimConfig::smoke(), &mut refer, SimDuration::ZERO);
        let io = IoCtx::new(WorldView::from_sim(&sim));
        let table = Arc::new(RouteTable::new(2, 3).expect("K(2,3)"));
        let roster = Roster::new(table, 1, io.node_count());
        let mut heard = Vec::new();
        let sensors: Vec<NodeId> = io
            .sensor_ids()
            .iter()
            .copied()
            .filter(|&s| {
                io.physical_neighbors_into(s, &mut heard);
                !heard.is_empty()
            })
            .take(3)
            .collect();
        assert_eq!(sensors.len(), 3, "the smoke deployment is connected");
        (io, roster, sensors)
    }

    /// The qid, TTL and path nodes of the path query the last handler
    /// broadcast, if it broadcast one.
    fn relay(io: &mut IoCtx<ReferMsg>) -> Option<(u64, u8, Vec<NodeId>)> {
        io.take_outputs().into_iter().find_map(|out| match out {
            Output::Send { payload: ReferMsg::PathQuery { qid, ttl, path, .. }, .. } => {
                Some((qid, ttl, path.iter().map(|&(n, _)| n).collect()))
            }
            _ => None,
        })
    }

    #[test]
    fn a_path_query_is_relayed_at_most_once_per_node_and_qid() {
        let (mut io, roster, sensors) = world();
        let target = io.actuator_ids()[0];
        let mut row = NodeLocal::new(sensors[0]);
        row.on_path_query(&mut io, &roster, 7, 2, target, Arc::default());
        let (qid, ttl, path) = relay(&mut io).expect("the first copy is relayed");
        assert_eq!((qid, ttl, path), (7, 1, vec![sensors[0]]));
        row.on_path_query(&mut io, &roster, 7, 2, target, Arc::default());
        assert!(relay(&mut io).is_none(), "a second copy of qid 7 is not");
        row.on_path_query(&mut io, &roster, 8, 1, target, Arc::default());
        assert_eq!(relay(&mut io).map(|(qid, ..)| qid), Some(8), "another qid is");
        let mut other = NodeLocal::new(sensors[1]);
        other.on_path_query(&mut io, &roster, 7, 2, target, Arc::default());
        assert!(relay(&mut io).is_some(), "each node relays qid 7 once");
    }

    #[test]
    fn only_a_free_sensor_with_ttl_left_off_the_path_relays() {
        let (mut io, mut roster, sensors) = world();
        let (actuator, target) = (io.actuator_ids()[1], io.actuator_ids()[0]);
        let mut row = NodeLocal::new(sensors[0]);
        row.on_path_query(&mut io, &roster, 1, 0, target, Arc::default());
        assert!(relay(&mut io).is_none(), "no TTL left");
        row.on_path_query(&mut io, &roster, 1, 2, target, Arc::new([(sensors[0], 1.0)]));
        assert!(relay(&mut io).is_none(), "already on the path");
        row.on_path_query(&mut io, &roster, 1, 2, target, Arc::new([(sensors[2], 1.0)]));
        let (_, ttl, path) = relay(&mut io).expect("a refused copy does not use up the qid");
        assert_eq!((ttl, path), (1, vec![sensors[2], sensors[0]]));
        NodeLocal::new(actuator).on_path_query(&mut io, &roster, 2, 2, target, Arc::default());
        assert!(relay(&mut io).is_none(), "an actuator does not relay");
        roster.assign_kid(0, 5, sensors[1]);
        NodeLocal::new(sensors[1]).on_path_query(&mut io, &roster, 3, 2, target, Arc::default());
        assert!(relay(&mut io).is_none(), "a member sensor does not relay");
    }

    #[test]
    fn paths_are_collected_only_at_the_target_while_its_query_is_open() {
        let (mut io, roster, sensors) = world();
        let collector = io.actuator_ids()[0];
        let path = |n: usize| sensors[..n].iter().map(|&s| (s, 1.0)).collect::<Arc<[_]>>();
        let mut row = NodeLocal::new(collector);
        row.on_path_query(&mut io, &roster, 4, 0, collector, path(2));
        assert!(io.take_outputs().is_empty(), "no open query: nothing armed or relayed");
        row.open_query(4, 0, vec![5, 6]);
        let mut bystander = NodeLocal::new(sensors[2]);
        bystander.on_path_query(&mut io, &roster, 4, 0, collector, path(2));
        for p in [path(2), path(1), path(2)] {
            row.on_path_query(&mut io, &roster, 4, 0, collector, p);
        }
        let picks = io.take_outputs();
        assert!(
            matches!(picks[..], [Output::ArmTimer { node, tag: t, .. }]
                if node == collector && t == tag(KIND_QPICK, 4)),
            "the first arrival arms the pick, once: {picks:?}"
        );
        let query = row.take_query(4).expect("open until taken");
        assert_eq!((query.cell, query.paths.len()), (0, 2), "only paths of the right length");
        assert!(row.take_query(4).is_none(), "taking a query closes it");
        row.on_path_query(&mut io, &roster, 4, 0, collector, path(2));
        assert!(io.take_outputs().is_empty() && row.take_query(4).is_none());
    }

    #[test]
    fn candidates_are_the_eight_latest_distinct_probers() {
        let mut row = NodeLocal::new(NodeId(0));
        for n in [1, 2, 3, 1, 4, 5, 6, 7, 8, 9, 10] {
            row.on_probe(NodeId(n));
        }
        let ids: Vec<u32> = row.candidates().iter().map(|n| n.0).collect();
        assert_eq!(ids, [10, 9, 8, 7, 6, 5, 4, 1]);
    }
}
