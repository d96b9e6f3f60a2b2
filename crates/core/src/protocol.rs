//! The complete REFER system as a [`wsan_sim::Protocol`]: message-driven
//! Kautz embedding, CAN-connected cells, beacon/probe/replace topology
//! maintenance, and the ID-only fault-tolerant routing protocol.
//!
//! # Faithfulness and simplifications
//!
//! Construction follows Section III-B: actuators exchange topology
//! broadcasts, the minimum-hash actuator partitions cells and notifies the
//! others over a DFS of the actuator graph, then TTL=2 path queries select
//! the highest-accumulated-energy sensor paths, stage by stage. Every step
//! is paid for with real simulated frames (energy + latency); the *results*
//! of distributed computations (the starting server's partition, roster
//! updates after assignment/replacement messages) are applied to shared
//! protocol state directly once the corresponding frames have been charged,
//! rather than re-deriving each node's view from its inbox. Where a query
//! stage fails to discover a physical path (sparse corner of a random
//! deployment), the cell coordinator fills each empty KID by a rule of its
//! own — the highest-battery free sensor in range of the KID's placed
//! Kautz neighbors, else the free sensor nearest the cell centroid —
//! charging one assignment frame per sensor, which keeps cells complete so
//! routing never faces a half-built graph, exactly as the paper assumes.
//!
//! Each node's own state is a `NodeLocal` row (the private `local`
//! module), and the handlers that touch only that node are its methods.
//! [`ReferProtocol`] holds the rows beside the shared [`Roster`] and
//! failure knowledge, and keeps what spans nodes: construction,
//! maintenance, the data path and dispatch.
//!
//! Drops and handovers are counted by the engine (`RunSummary`), not
//! here: [`ReferStats`] holds only what no engine counter sees.

use crate::addr::CellId;
use crate::cells::{nearest_corner, plan_cells, CellLayout};
use crate::config::{
    ReferConfig, BATTERY_THRESHOLD, CTRL_BITS, LINK_GUARD, MAINTENANCE_INTERVAL, PROBE_INTERVAL,
    SUSPICION_TTL,
};
use crate::embedding::EmbeddingPlan;
use crate::local::NodeLocal;
use crate::maintenance::{battery_low, link_endangered, select_replacement};
use crate::roster::Roster;
use crate::routing::route_choices;
use crate::tier::DhtTier;
use kautz::{KautzId, RouteTable};
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::Arc;
use refer_proto::{FailureKnowledge, ProtoCtx, SansIo};
use wsan_sim::{
    Ctx, DataId, DropReason, EnergyAccount, HopReason, Message, NodeId, NodeKind, Protocol,
    RoutingStrategy, SimDuration,
};

// Timer tag layout: high 16 bits = kind, low 48 bits = argument.
const TAG_SHIFT: u64 = 48;
const KIND_STAGE1: u64 = 1; // arg = cell << 2 | corner
const KIND_STAGE2: u64 = 2; // arg = cell
const KIND_STAGE3: u64 = 3; // arg = cell
const KIND_READY: u64 = 4; // arg = cell
pub(crate) const KIND_QPICK: u64 = 5; // arg = qid
pub(crate) const KIND_BEACON: u64 = 6;
pub(crate) const KIND_MAINT: u64 = 7;
pub(crate) const KIND_PROBE: u64 = 8;

pub(crate) fn tag(kind: u64, arg: u64) -> u64 {
    (kind << TAG_SHIFT) | arg
}

fn untag(t: u64) -> (u64, u64) {
    (t >> TAG_SHIFT, t & ((1 << TAG_SHIFT) - 1))
}

/// A data frame traveling through REFER.
#[derive(Debug, Clone)]
pub struct DataFrame {
    /// The tracked application packet.
    pub data: DataId,
    /// Destination cell.
    pub dest_cell: usize,
    /// Destination vertex in the cell graph (an actuator's corner), by
    /// its arc-table index.
    pub dest_vertex: u32,
    /// Conflict-path forced digit for the next relay (Proposition 3.7).
    pub forced: Option<u8>,
    /// Regular-routing progress ([`RoutingStrategy::Regular`]): how many
    /// digits of `dest_vertex` the frame's current vertex already carries.
    /// Always 0 under the shortest-path planner.
    pub appended: u8,
    /// Hop counter; frames exceeding [`MAX_HOPS`] are dropped.
    pub hops: u8,
}

/// Routing-loop guard for data frames.
pub const MAX_HOPS: u8 = 32;

/// REFER wire messages.
#[derive(Debug, Clone)]
pub enum ReferMsg {
    /// Actuator topology-learning broadcast (content mirrored in protocol
    /// state; the frame pays the construction energy).
    Ctrl,
    /// Starting server's DFS notification to one actuator.
    Assignment,
    /// TTL-scoped path query (stage 1 and stage 2 of the embedding).
    PathQuery {
        /// Query id.
        qid: u64,
        /// Remaining TTL.
        ttl: u8,
        /// The collecting node.
        target: NodeId,
        /// Accumulated path: `(sensor, battery at forwarding time)`.
        /// Shared, so a broadcast hands each receiver a reference, not a
        /// copy; a relay sends a new, one-longer path.
        path: Arc<[(NodeId, f64)]>,
    },
    /// Assignment sent back along a selected path.
    PathAssign {
        /// The sensors being assigned and their vertices, outermost first.
        assignments: Vec<(NodeId, u32)>,
        /// Index into `assignments` of the next receiver.
        hop: usize,
    },
    /// Coordinator instructs the stage-2 origin sensor to start its query.
    StartStage2 {
        /// Query id to use.
        qid: u64,
        /// The stage-2 collector (`S_j`'s node).
        target: NodeId,
    },
    /// Cell construction finished (coordinator broadcast).
    CellReady,
    /// Periodic member announcement.
    Beacon,
    /// A sleeping sensor registers as replacement candidate.
    Probe,
    /// A member hands its KID to a candidate.
    Replace,
    /// Replacement announcement to the neighborhood.
    ReplaceNotice,
    /// An application data frame.
    Data(DataFrame),
}

/// A snapshot of one cell's embedded topology, captured when the cell
/// finishes construction (used by visualization and debugging tools).
#[derive(Debug, Clone)]
pub struct CellSnapshot {
    /// Cell index.
    pub cell: usize,
    /// Each member: KID, node, position at snapshot time, and whether it
    /// is an actuator.
    pub members: Vec<(KautzId, NodeId, wsan_sim::Point, bool)>,
    /// The cell centroid.
    pub centroid: wsan_sim::Point,
}

/// Protocol counters no engine counter sees (drops and handovers are in
/// `RunSummary`).
#[derive(Debug, Clone, Default)]
pub struct ReferStats {
    /// Cells that completed construction.
    pub cells_ready: usize,
    /// Times a relay diverted to a non-shortest disjoint path.
    pub alt_path_switches: usize,
    /// Inter-cell frames carried over the CAN tier.
    pub inter_cell_hops: u64,
    /// Data frames diverted after an ACK-timeout expiry
    /// (`FaultModel::Discovered` only).
    pub expiry_diversions: u64,
}

/// The lists a maintenance tick fills, kept across ticks so that no tick
/// allocates them anew. They leave the protocol for the length of a tick,
/// so that its handovers can borrow it whole.
#[derive(Debug, Default)]
struct TickLists {
    /// `(cell, vertex, owner)`: the Kautz neighbors to heal, then the
    /// vertices to resign, each copied before a handover edits the roster.
    vertices: Vec<(usize, u32, NodeId)>,
    /// The positions of one vertex's other neighbor owners.
    positions: Vec<wsan_sim::Point>,
}

/// The REFER protocol (see module docs).
#[derive(Debug)]
pub struct ReferProtocol {
    rcfg: ReferConfig,
    plan: EmbeddingPlan,
    /// Dense Theorem 3.8 tables for the cell graph `K(degree, 3)`, built
    /// once at construction and shared with the roster, which names every
    /// vertex by its index in them.
    route_table: Arc<RouteTable>,
    layout: Option<CellLayout>,
    tier: Option<DhtTier>,
    /// Actuator node per layout index.
    actuator_nodes: Vec<NodeId>,
    /// Each cell's corner actuators, in KID order (012, 120, 201).
    cells: Vec<[NodeId; 3]>,
    /// One row per node, sized at init: each node's own state.
    nodes: Vec<NodeLocal>,
    /// Who holds which vertex, sized once the cells are planned.
    roster: Roster,
    /// The candidate list the two-hop access search and a handover fill,
    /// kept across calls.
    pool: Vec<NodeId>,
    /// The maintenance tick's lists, kept across ticks.
    tick: TickLists,
    next_qid: u64,
    /// The fault oracle, or (`FaultModel::Discovered`, set at init) local
    /// failure suspicion — ACK timeouts and heartbeat silence — shared
    /// across members, a stand-in for the per-node views of a real
    /// deployment.
    knowledge: FailureKnowledge,
    /// Observable counters.
    pub stats: ReferStats,
    /// Per-cell topology snapshots taken at construction completion.
    pub snapshots: Vec<CellSnapshot>,
}

impl ReferProtocol {
    /// Creates a REFER instance with the given parameters.
    pub fn new(rcfg: ReferConfig) -> Self {
        let route_table = Arc::new(
            RouteTable::new(rcfg.degree, 3).expect("cell graph degree within MAX_DEGREE"),
        );
        let plan = EmbeddingPlan::new(&route_table);
        ReferProtocol {
            rcfg,
            plan,
            roster: Roster::new(Arc::clone(&route_table), 0, 0),
            route_table,
            layout: None,
            tier: None,
            actuator_nodes: Vec::new(),
            cells: Vec::new(),
            nodes: Vec::new(),
            pool: Vec::new(),
            tick: TickLists::default(),
            next_qid: 0,
            knowledge: FailureKnowledge::Oracle,
            stats: ReferStats::default(),
            snapshots: Vec::new(),
        }
    }

    /// The cell layout computed at init (None before init or when the
    /// deployment cannot form cells).
    pub fn layout(&self) -> Option<&CellLayout> {
        self.layout.as_ref()
    }

    /// Current KID -> node roster of `cell`, as a map built on demand.
    pub fn roster(&self, cell: usize) -> Option<BTreeMap<KautzId, NodeId>> {
        (cell < self.cells.len()).then(|| self.roster.roster_entries(cell).collect())
    }

    /// The neighbour a sensor with no member in range hands a packet to:
    /// the nearest free sensor with a usable member in range. Reuses one
    /// buffer across calls, so it allocates only while that buffer grows.
    pub fn access_relay(&mut self, ctx: &impl ProtoCtx<ReferMsg>, src: NodeId) -> Option<NodeId> {
        let (roster, knowledge) = (&self.roster, &self.knowledge);
        self.nodes[src.index()].two_hop_relay(ctx, roster, knowledge, &mut self.pool)
    }

    // ----- construction --------------------------------------------------

    fn start_construction(&mut self, ctx: &mut impl ProtoCtx<ReferMsg>) {
        self.actuator_nodes = ctx.actuator_ids().to_vec();
        let actuator_nodes = &self.actuator_nodes;
        let positions: Vec<wsan_sim::Point> =
            actuator_nodes.iter().map(|&a| ctx.position(a)).collect();
        let ids: Vec<u64> = actuator_nodes.iter().map(|a| u64::from(a.0)).collect();

        // Topology learning: two rounds of actuator broadcasts (hello +
        // neighbor-list exchange), billed to construction.
        for &a in actuator_nodes {
            ctx.broadcast(a, CTRL_BITS, EnergyAccount::Construction, ReferMsg::Ctrl);
            ctx.broadcast(a, CTRL_BITS, EnergyAccount::Construction, ReferMsg::Ctrl);
        }

        let Some(layout) = plan_cells(&ids, &positions, ctx.config().actuator_range) else {
            return; // degraded: no cells; every packet will be dropped
        };

        // DFS notification from the starting server over actuator adjacency.
        let adjacency =
            crate::cells::actuator_adjacency(&positions, ctx.config().actuator_range);
        let mut visited = vec![false; actuator_nodes.len()];
        let mut stack = vec![layout.starting_server];
        visited[layout.starting_server] = true;
        while let Some(v) = stack.pop() {
            for &n in &adjacency[v] {
                if !visited[n] {
                    visited[n] = true;
                    ctx.send(
                        actuator_nodes[v],
                        actuator_nodes[n],
                        CTRL_BITS,
                        EnergyAccount::Construction,
                        ReferMsg::Assignment,
                    );
                    stack.push(n);
                }
            }
        }

        // Initialize cell state and the upper tier.
        self.cells = layout
            .cells
            .iter()
            .map(|cell| cell.corners.map(|c| actuator_nodes[c]))
            .collect();
        self.roster = Roster::new(Arc::clone(&self.route_table), self.cells.len(), ctx.node_count());
        for cell in 0..self.cells.len() {
            for (corner, node) in self.cells[cell].into_iter().enumerate() {
                self.roster.assign_kid(cell, self.plan.corners[corner], node);
            }
        }
        self.tier = Some(DhtTier::build(&layout, &ids, ctx.config().area));
        self.layout = Some(layout);

        // Stage timers, slightly staggered per cell to spread the queries.
        for cell in 0..self.cells.len() {
            let base = SimDuration::from_millis(1_000 + 40 * cell as u64);
            for corner in 0..3u64 {
                let at = self.cells[cell][corner as usize];
                ctx.set_timer(
                    at,
                    base + SimDuration::from_millis(120 * corner),
                    tag(KIND_STAGE1, (cell as u64) << 2 | corner),
                );
            }
            let coordinator = self.cells[cell][0];
            ctx.set_timer(coordinator, SimDuration::from_millis(2_500), tag(KIND_STAGE2, cell as u64));
            ctx.set_timer(coordinator, SimDuration::from_millis(4_000), tag(KIND_STAGE3, cell as u64));
            ctx.set_timer(coordinator, SimDuration::from_millis(5_000), tag(KIND_READY, cell as u64));
        }

        // Section III-B4 duty cycle: every sensor that ends up sleeping
        // wakes on this timer to probe a nearby member and register as a
        // replacement candidate. Staggered so the probes do not synchronize.
        if self.rcfg.maintenance_enabled {
            let probe = PROBE_INTERVAL.as_micros();
            let sensors: Vec<NodeId> = ctx.sensor_ids().to_vec();
            for s in sensors {
                let stagger = SimDuration::from_micros(ctx.rng().gen_range(0..probe.max(1)));
                ctx.set_timer(s, SimDuration::from_millis(6_000) + stagger, tag(KIND_PROBE, 0));
            }
        }
    }

    fn launch_query(
        &mut self,
        ctx: &mut impl ProtoCtx<ReferMsg>,
        origin: NodeId,
        target: NodeId,
        cell: usize,
        interior_kids: Vec<u32>,
    ) {
        let qid = self.next_qid;
        self.next_qid += 1;
        self.nodes[target.index()].open_query(qid, cell, interior_kids);
        ctx.broadcast(
            origin,
            CTRL_BITS,
            EnergyAccount::Construction,
            ReferMsg::PathQuery { qid, ttl: 2, target, path: Arc::default() },
        );
    }

    fn on_stage1_timer(&mut self, ctx: &mut impl ProtoCtx<ReferMsg>, arg: u64) {
        // Stage 1 runs in rotation order: corner i queries toward i + 1.
        let (cell, corner) = ((arg >> 2) as usize, (arg & 3) as usize);
        let (origin, target) = (self.cells[cell][corner], self.cells[cell][(corner + 1) % 3]);
        let interior = self.plan.stage1[corner].interior.clone();
        self.launch_query(ctx, origin, target, cell, interior);
    }

    fn on_stage2_timer(&mut self, ctx: &mut impl ProtoCtx<ReferMsg>, cell: usize) {
        // Ensure stage 1 completed; fill any hole logically first.
        let stage1_kids: Vec<u32> =
            self.plan.stage1.iter().flat_map(|p| p.interior.iter().copied()).collect();
        self.fallback_assign(ctx, cell, &stage1_kids);
        let (Some(s_i), Some(s_j)) = (
            self.roster.owner_of(cell, self.plan.stage2.from),
            self.roster.owner_of(cell, self.plan.stage2.to),
        ) else {
            return;
        };
        let qid = self.next_qid; // reserved by launch below
        let coordinator = self.cells[cell][0];
        // The coordinator instructs S_i; if unreachable, fall back at stage 3.
        if ctx.send(
            coordinator,
            s_i,
            CTRL_BITS,
            EnergyAccount::Construction,
            ReferMsg::StartStage2 { qid, target: s_j },
        ) {
            self.launch_query(ctx, s_i, s_j, cell, self.plan.stage2.interior.clone());
        }
    }

    fn on_stage3_timer(&mut self, ctx: &mut impl ProtoCtx<ReferMsg>, cell: usize) {
        // Fill stage-2 holes, then assign every stage-3 KID to the best
        // common physical neighbor of its placed Kautz neighbors.
        let stage2_kids = self.plan.stage2.interior.clone();
        self.fallback_assign(ctx, cell, &stage2_kids);
        let coordinator = self.cells[cell][0];
        // One solicitation broadcast for the completion stage.
        ctx.broadcast(coordinator, CTRL_BITS, EnergyAccount::Construction, ReferMsg::Ctrl);
        let stage3 = self.plan.stage3.clone();
        self.fallback_assign(ctx, cell, &stage3);
    }

    /// Assigns any of `kids` not yet in the roster to the highest-battery
    /// free sensor in range of the vertex's placed Kautz neighbors, else to
    /// the free sensor nearest the cell centroid, charging one assignment
    /// frame per pick.
    fn fallback_assign(&mut self, ctx: &mut impl ProtoCtx<ReferMsg>, cell: usize, kids: &[u32]) {
        let coordinator = self.cells[cell][0];
        for &kid in kids {
            if self.roster.owner_of(cell, kid).is_some() {
                continue;
            }
            let anchors: Vec<wsan_sim::Point> = self
                .roster
                .neighbor_owners(cell, kid)
                .map(|(_, node)| ctx.position(node))
                .collect();
            let (range, centroid) = (ctx.config().sensor_range, self.centroid(cell));
            let free =
                |&s: &NodeId| self.knowledge.presumed_alive(ctx, s) && !self.roster.is_member(s);
            let pick = ctx
                .sensor_ids()
                .iter()
                .copied()
                .filter(free)
                .filter(|&s| anchors.iter().all(|p| ctx.position(s).distance(p) <= range))
                .max_by(|&a, &b| ctx.battery(a).total_cmp(&ctx.battery(b)))
                .or_else(|| {
                    let d = |s| ctx.position(s).distance(&centroid);
                    let candidates = ctx.sensor_ids().iter().copied().filter(free);
                    candidates.min_by(|&a, &b| d(a).total_cmp(&d(b)))
                });
            if let Some(node) = pick {
                ctx.send(
                    coordinator,
                    node,
                    CTRL_BITS,
                    EnergyAccount::Construction,
                    ReferMsg::Assignment,
                );
                self.roster.assign_kid(cell, kid, node);
            }
        }
    }

    fn on_ready_timer(&mut self, ctx: &mut impl ProtoCtx<ReferMsg>, cell: usize) {
        let coordinator = self.cells[cell][0];
        ctx.broadcast(coordinator, CTRL_BITS, EnergyAccount::Construction, ReferMsg::CellReady);
        self.stats.cells_ready += 1;
        self.snapshots.push(CellSnapshot {
            cell,
            members: self
                .roster
                .roster_entries(cell)
                .map(|(kid, node)| {
                    (kid, node, ctx.position(node), matches!(ctx.kind(node), NodeKind::Actuator))
                })
                .collect(),
            centroid: self.centroid(cell),
        });
        // Start periodic timers for every member of this cell (once per node).
        for (_, node) in self.roster.roster_entries(cell) {
            self.nodes[node.index()].start_member_timers(ctx, true);
        }
    }

    fn on_query_pick(&mut self, ctx: &mut impl ProtoCtx<ReferMsg>, qid: u64, collector: NodeId) {
        let Some(query) = self.nodes[collector.index()].take_query(qid) else {
            return;
        };
        let cell = query.cell;
        let needed = query.interior_kids.len();
        // Highest accumulated energy among valid candidate paths.
        let best = query
            .paths
            .into_iter()
            .filter(|p| {
                p.len() == needed
                    && p.iter().all(|(n, _)| !self.roster.is_member(*n) && self.knowledge.presumed_alive(ctx, *n))
                    && p[0].0 != p[needed - 1].0
            })
            .max_by(|a, b| {
                let energy = |p: &[(NodeId, f64)]| p.iter().map(|(_, e)| e).sum::<f64>();
                energy(a).total_cmp(&energy(b))
            });
        let Some(path) = best else {
            // No physical path discovered: the stage-2/3 timers fill the
            // hole via the logical fallback.
            return;
        };
        let assignments: Vec<(NodeId, u32)> = path
            .iter()
            .map(|(n, _)| *n)
            .zip(query.interior_kids.iter().copied())
            .collect();
        for &(node, kid) in &assignments {
            self.roster.assign_kid(cell, kid, node);
        }
        // Assignment chain back along the path: collector -> s2 -> s1.
        let hop = assignments.len() - 1;
        let (to, chain) = (assignments[hop].0, ReferMsg::PathAssign { assignments, hop });
        ctx.send(collector, to, CTRL_BITS, EnergyAccount::Construction, chain);
    }

    // ----- steady state ---------------------------------------------------

    /// Fills `out` with the positions of the current owners of `kid`'s
    /// Kautz-graph neighbors in `cell` (excluding `except`): the
    /// reachability constraint a replacement for `kid` must satisfy.
    fn neighbor_positions(
        &self,
        ctx: &impl ProtoCtx<ReferMsg>,
        cell: usize,
        kid: u32,
        except: NodeId,
        out: &mut Vec<wsan_sim::Point>,
    ) {
        out.clear();
        let others = self.roster.neighbor_owners(cell, kid).filter(|&(_, n)| n != except);
        out.extend(others.map(|(_, n)| ctx.position(n)));
    }

    /// Section III-B4's handover: `node` gives `kid` of `cell`, held by
    /// `holder`, to the best live standby able to reach every position in
    /// `neighbor_positions` (the other owners of the KID's Kautz
    /// neighbors), and announces it.
    ///
    /// * `holder == node`: a member resigns its own KID (endangered link or
    ///   low battery). Its own candidates compete; failing them, the
    ///   reachable sensor that best re-centers the KID among its neighbors
    ///   takes it, provided it improves on `node`.
    /// * Otherwise `node` heals a neighbor it believes down. The dead
    ///   member's candidates, then `node`'s, compete; the pick must be
    ///   usable from `node`, and the holder's eviction is graded (wrongful
    ///   when it was actually alive and honest).
    fn hand_over(
        &mut self,
        ctx: &mut impl ProtoCtx<ReferMsg>,
        node: NodeId,
        cell: usize,
        kid: u32,
        holder: NodeId,
        neighbor_positions: &[wsan_sim::Point],
    ) {
        let heal = holder != node;
        let range = ctx.config().sensor_range;
        // A healer heard the dead member's candidacies announced on the air.
        let theirs: &[NodeId] = if heal { self.nodes[holder.index()].candidates() } else { &[] };
        let (knowledge, roster) = (&self.knowledge, &self.roster);
        let pool = &mut self.pool;
        pool.clear();
        pool.extend(theirs.iter().chain(self.nodes[node.index()].candidates()).copied().filter(
            |&c| c != holder && knowledge.presumed_alive(ctx, c) && !roster.is_member(c),
        ));
        let scored = pool.iter().map(|&c| (ctx.position(c), ctx.battery(c)));
        let strict = select_replacement(scored, neighbor_positions, range).map(|i| pool[i]);
        let pick = if heal {
            strict.filter(|&r| knowledge.usable(ctx, node, r))
        } else {
            let max_dist = |p: wsan_sim::Point| {
                neighbor_positions.iter().map(|q| p.distance(q)).fold(0.0f64, f64::max)
            };
            strict.or_else(|| {
                let own = max_dist(ctx.position(node));
                ctx.sensor_ids()
                    .iter()
                    .copied()
                    .filter(|&c| {
                        c != node
                            && knowledge.presumed_alive(ctx, c)
                            && !roster.is_member(c)
                            && ctx.in_range(node, c)
                    })
                    .map(|c| (max_dist(ctx.position(c)), c))
                    .min_by(|a, b| a.0.total_cmp(&b.0))
                    .filter(|&(d, _)| d + 1.0 < own)
                    .map(|(_, c)| c)
            })
        };
        let Some(replacement) = pick else {
            return;
        };
        if !ctx.send(
            node,
            replacement,
            CTRL_BITS,
            EnergyAccount::Communication,
            ReferMsg::Replace,
        ) {
            return;
        }
        ctx.broadcast(node, CTRL_BITS, EnergyAccount::Communication, ReferMsg::ReplaceNotice);
        self.roster.assign_kid(cell, kid, replacement);
        ctx.record_handover();
        if heal {
            ctx.record_eviction(holder);
        }
        self.nodes[replacement.index()].start_member_timers(ctx, false);
    }

    /// One Section III-B4 maintenance tick of `node`, which re-arms the
    /// next (a node that lost its last vertex stands its timers down).
    /// Under local knowledge a member first suspects its silent Kautz
    /// neighbors. It then heals each neighbor it believes down (by the
    /// fault oracle under `Oracle`, the suspicion view otherwise), which
    /// restores the cell after fault rotations and battery death, and a
    /// sensor resigns each vertex whose links are endangered, or every
    /// vertex when its battery is low. The tick reuses its lists: one that
    /// hands nothing over allocates only while a list grows, besides what
    /// its frames cost `ctx`.
    pub fn maintain(&mut self, ctx: &mut impl ProtoCtx<ReferMsg>, node: NodeId) {
        if !self.nodes[node.index()].rearm(ctx, &self.roster, MAINTENANCE_INTERVAL, KIND_MAINT) {
            return;
        }
        if !self.rcfg.maintenance_enabled || ctx.self_faulty(node) {
            return;
        }
        if self.knowledge.is_local() {
            self.nodes[node.index()].heartbeat_check(ctx, &self.roster, &mut self.knowledge);
        }
        let mut tick = std::mem::take(&mut self.tick);
        // A vertex adjacent both ways is listed twice, and its second entry
        // still names the dead owner, so it can be handed over twice in one
        // tick; the pinned traces include that.
        tick.vertices.clear();
        tick.vertices.extend(self.roster.kautz_neighbor_owners(node));
        for &(cell, nk, owner) in &tick.vertices {
            let dead = matches!(ctx.kind(owner), NodeKind::Sensor)
                && !self.knowledge.presumed_alive(ctx, owner);
            if dead {
                self.neighbor_positions(ctx, cell, nk, owner, &mut tick.positions);
                self.hand_over(ctx, node, cell, nk, owner, &tick.positions);
            }
        }
        if matches!(ctx.kind(node), NodeKind::Sensor) {
            tick.vertices.clear();
            tick.vertices.extend(self.roster.memberships(node).iter().map(|&(c, k)| (c, k, node)));
            let (here, range) = (ctx.position(node), ctx.config().sensor_range);
            for &(cell, kid, _) in &tick.vertices {
                self.neighbor_positions(ctx, cell, kid, node, &mut tick.positions);
                let endangered =
                    tick.positions.iter().any(|&p| link_endangered(here, p, range, LINK_GUARD));
                let weak = battery_low(ctx.battery(node), BATTERY_THRESHOLD);
                if endangered || weak {
                    self.hand_over(ctx, node, cell, kid, node, &tick.positions);
                }
            }
        }
        self.tick = tick;
    }

    /// The cell among `cells` whose centroid is nearest `p`; the first
    /// listed wins a tie.
    fn nearest_cell(
        &self,
        p: wsan_sim::Point,
        cells: impl Iterator<Item = usize>,
    ) -> Option<usize> {
        let d = |c: usize| p.distance(&self.centroid(c));
        cells.min_by(|&a, &b| d(a).total_cmp(&d(b)))
    }

    /// The centroid of planned `cell`.
    fn centroid(&self, cell: usize) -> wsan_sim::Point {
        self.layout.as_ref().map_or_else(Default::default, |l| l.cells[cell].centroid)
    }

    /// The vertex of `cell`'s corner actuator nearest `node`.
    fn nearest_corner(&self, ctx: &impl ProtoCtx<ReferMsg>, node: NodeId, cell: usize) -> u32 {
        self.plan.corners[nearest_corner(&self.cells[cell], |c| ctx.distance(node, c))]
    }

    /// Chooses the destination (cell, actuator corner) for a packet from
    /// `src` entering the backbone at `access`.
    fn choose_destination(
        &mut self,
        ctx: &mut impl ProtoCtx<ReferMsg>,
        src: NodeId,
        access: NodeId,
        data: DataId,
    ) -> (usize, u32) {
        // A traffic-matrix packet carries its destination sensor: route to
        // that sensor's cell (nearest centroid) and the corner actuator
        // nearest the sensor, bypassing the cross-cell draw below — the
        // paper trickle (no destination) keeps its exact draw sequence.
        if let Some(dest) = ctx.data_dest(data) {
            let all = 0..self.cells.len();
            let dest_cell = self.nearest_cell(ctx.position(dest), all).expect("cells non-empty");
            return (dest_cell, self.nearest_corner(ctx, dest, dest_cell));
        }
        // The access member's cell; actuators belong to several — pick the
        // one whose centroid is nearest the source.
        let cells = self.roster.memberships(access).iter().map(|(c, _)| *c);
        let home_cell = self.nearest_cell(ctx.position(src), cells).expect("access is a member");
        let cross = self.rcfg.cross_cell_fraction > 0.0
            && self.cells.len() > 1
            && ctx.rng().gen_bool(self.rcfg.cross_cell_fraction);
        if !cross {
            // Nearest corner actuator of the home cell to the source.
            return (home_cell, self.nearest_corner(ctx, src, home_cell));
        }
        let mut dest_cell = ctx.rng().gen_range(0..self.cells.len());
        if dest_cell == home_cell {
            dest_cell = (dest_cell + 1) % self.cells.len();
        }
        // Any corner of a remote cell: corner 0's KID owner, picked
        // deterministically via tier ownership.
        let owner = self.tier.as_ref().expect("tier built").owner(CellId(dest_cell as u32));
        let kid = self.roster.kid_in_cell(self.actuator_nodes[owner], dest_cell);
        (dest_cell, kid.expect("owner is a corner"))
    }

    /// A data frame at `at`: a member forwards it; a non-member (an access
    /// relay, a stale handoff, or a source whose hop went unacknowledged)
    /// re-enters the backbone via the nearest member it presumes
    /// reachable, hopping for `reason`, or drops the frame.
    fn carry(
        &mut self,
        ctx: &mut impl ProtoCtx<ReferMsg>,
        at: NodeId,
        frame: DataFrame,
        reason: HopReason,
    ) {
        if self.roster.is_member(at) {
            self.forward(ctx, at, frame);
            return;
        }
        match self.roster.nearest_member(ctx, &self.knowledge, at) {
            Some(m) => {
                let (data, out) = (frame.data, ReferMsg::Data(frame));
                self.knowledge.send_data(ctx, at, m, data, reason, out);
            }
            None => ctx.drop_data_reason(frame.data, DropReason::NoRoute),
        }
    }

    /// Forwards a data frame from member `node`. Delivers, intra-cell
    /// routes, or crosses cells via the CAN tier.
    fn forward(&mut self, ctx: &mut impl ProtoCtx<ReferMsg>, node: NodeId, mut frame: DataFrame) {
        if frame.hops >= MAX_HOPS {
            ctx.drop_data_reason(frame.data, DropReason::HopLimit);
            return;
        }
        // A peer's frame can name any cell and vertex; only a planned cell
        // and a vertex of the cell graph route.
        if frame.dest_cell >= self.cells.len()
            || frame.dest_vertex as usize >= self.route_table.node_count()
        {
            ctx.drop_data_reason(frame.data, DropReason::NoRoute);
            return;
        }
        frame.hops += 1;
        match self.roster.kid_in_cell(node, frame.dest_cell) {
            Some(at) if at == frame.dest_vertex => {
                // Arrived.
                if matches!(ctx.kind(node), NodeKind::Actuator) {
                    ctx.deliver_data_with_hops(frame.data, node, u32::from(frame.hops));
                } else {
                    ctx.drop_data_reason(frame.data, DropReason::Other);
                }
            }
            Some(at) => self.forward_intra(ctx, node, at, frame),
            None => self.forward_toward_cell(ctx, node, frame),
        }
    }

    /// Intra-cell Kautz routing (Theorem 3.8 with fault tolerance).
    fn forward_intra(
        &mut self,
        ctx: &mut impl ProtoCtx<ReferMsg>,
        node: NodeId,
        at: u32,
        frame: DataFrame,
    ) {
        let (cell, data, dest_vertex) = (frame.dest_cell, frame.data, frame.dest_vertex);
        let knowledge = &self.knowledge;
        // Section III-C2: a node forwards over "a path with the lowest
        // delay, which could be either a multi-hop path or direct path".
        // When the destination itself is in range and uncongested, the
        // direct path is the lowest-delay choice.
        let dest = self.roster.owner_of(cell, dest_vertex);
        if let Some(dest) = dest {
            if knowledge.usable(ctx, node, dest) && !ctx.is_congested(dest) {
                let out = ReferMsg::Data(DataFrame { forced: None, ..frame });
                knowledge.send_data(ctx, node, dest, data, HopReason::Direct, out);
                return;
            }
        }
        // Faber–Streib regular routing: walk the destination's digits one
        // per hop. Oblivious to the source, so concurrent flows spread over
        // distinct parallel routes instead of piling onto the one shortest
        // path; a dead or congested regular successor falls back to the
        // Theorem 3.8 planner below with the digit progress restarted.
        if matches!(ctx.config().routing, RoutingStrategy::Regular) {
            let pick = self.roster.regular_owner(cell, node, at, dest_vertex, frame.appended, |n| {
                knowledge.usable(ctx, node, n) && !ctx.is_congested(n)
            });
            if let Some((next, appended)) = pick {
                let out = ReferMsg::Data(DataFrame { forced: None, appended, ..frame });
                knowledge.send_data(ctx, node, next, data, HopReason::KautzNext, out);
                return;
            }
        }
        let (from, to) = (at as usize, dest_vertex as usize);
        let Ok(choices) = route_choices(&self.route_table, from, to, frame.forced, ctx.rng())
        else {
            ctx.drop_data_reason(data, DropReason::NoRoute);
            return;
        };
        // First pass: live and uncongested; second pass: live.
        let usable = |n| knowledge.usable(ctx, node, n);
        let pick = self
            .roster
            .first_owner(cell, node, &choices, |n| usable(n) && !ctx.is_congested(n))
            .or_else(|| self.roster.first_owner(cell, node, &choices, usable));
        let Some((idx, next, forced)) = pick else {
            // Last resort, per Section III-C2's lowest-delay rule: if the
            // destination itself is directly reachable, skip the broken
            // overlay hop and deliver straight.
            match dest.filter(|&d| knowledge.usable(ctx, node, d)) {
                Some(dest) => {
                    let out = ReferMsg::Data(DataFrame { forced: None, ..frame });
                    knowledge.send_data(ctx, node, dest, data, HopReason::Detour, out);
                    self.stats.alt_path_switches += 1;
                }
                None => ctx.drop_data_reason(data, DropReason::NoRoute),
            }
            return;
        };
        let reason = if idx > 0 {
            self.stats.alt_path_switches += 1;
            HopReason::Detour
        } else {
            HopReason::KautzNext
        };
        let out = ReferMsg::Data(DataFrame { forced, appended: 0, ..frame });
        knowledge.send_data(ctx, node, next, data, reason, out);
    }

    /// Routing toward a different cell: first to this cell's tier owner,
    /// then actuator-to-actuator along the CAN path.
    fn forward_toward_cell(&mut self, ctx: &mut impl ProtoCtx<ReferMsg>, node: NodeId, frame: DataFrame) {
        match self.toward_cell(ctx, node, frame.dest_cell) {
            // This actuator also owns the next cell: continue directly.
            Some((next, _)) if next == node => self.forward(ctx, node, frame),
            Some((next, reason)) => {
                let (data, out) = (frame.data, ReferMsg::Data(frame));
                self.knowledge.send_data(ctx, node, next, data, reason, out);
            }
            None => ctx.drop_data_reason(frame.data, DropReason::NoRoute),
        }
    }

    /// The next hop from member `node` toward `dest_cell` and why, `node`
    /// itself when it owns the next cell too, or `None` without a route.
    fn toward_cell(
        &mut self,
        ctx: &mut impl ProtoCtx<ReferMsg>,
        node: NodeId,
        dest_cell: usize,
    ) -> Option<(NodeId, HopReason)> {
        let tier = self.tier.as_ref()?;
        let memberships = self.roster.memberships(node);
        let &(home_cell, _) = memberships.first()?;
        let knowledge = &self.knowledge;
        if matches!(ctx.kind(node), NodeKind::Sensor) {
            // Leg 1: hop-by-hop intra-cell routing toward the home cell's
            // owner actuator, keeping the remote cell as the frame's true
            // destination. Each sensor relay lands back here and pushes the
            // frame one Kautz hop closer to its own cell's owner.
            let owner_node = self.actuator_nodes[tier.owner(CellId(home_cell as u32))];
            let owner_kid = self.roster.kid_in_cell(owner_node, home_cell)?;
            let my_kid = self.roster.kid_in_cell(node, home_cell)?;
            let (from, to) = (my_kid as usize, owner_kid as usize);
            let choices = route_choices(&self.route_table, from, to, None, ctx.rng()).ok()?;
            let usable = |n| knowledge.usable(ctx, node, n);
            let (_, next, _) = self.roster.first_owner(home_cell, node, &choices, usable)?;
            return Some((next, HopReason::KautzNext));
        }
        // Actuator: hop along the CAN cell path.
        let from_cell = memberships
            .iter()
            .map(|(c, _)| *c)
            .find(|&c| self.actuator_nodes[tier.owner(CellId(c as u32))] == node)
            .unwrap_or(home_cell);
        let path = tier.route_cells(CellId(from_cell as u32), CellId(dest_cell as u32))?;
        let next_cell = if path.len() >= 2 { path[1] } else { CellId(dest_cell as u32) };
        let next_owner = self.actuator_nodes[tier.owner(next_cell)];
        self.stats.inter_cell_hops += 1;
        // Straight to the next owner, or through any actuator in range of
        // both.
        if next_owner == node || knowledge.usable(ctx, node, next_owner) {
            return Some((next_owner, HopReason::CellRelay));
        }
        let relay = self.actuator_nodes.iter().copied().find(|&r| {
            r != node && knowledge.usable(ctx, node, r) && ctx.in_range(r, next_owner)
        });
        relay.map(|r| (r, HopReason::CellRelay))
    }
}

impl SansIo for ReferProtocol {
    type Payload = ReferMsg;

    fn name(&self) -> &'static str {
        "REFER"
    }

    fn on_init<C: ProtoCtx<ReferMsg>>(&mut self, ctx: &mut C) {
        self.knowledge = FailureKnowledge::for_model(ctx.config().faults.model, SUSPICION_TTL);
        self.nodes = (0..ctx.node_count() as u32).map(|i| NodeLocal::new(NodeId(i))).collect();
        self.start_construction(ctx);
    }

    fn on_ack<C: ProtoCtx<ReferMsg>>(&mut self, ctx: &mut C, _at: NodeId, peer: NodeId) {
        self.knowledge.contact(ctx, peer);
    }

    fn on_send_expired<C: ProtoCtx<ReferMsg>>(
        &mut self,
        ctx: &mut C,
        at: NodeId,
        peer: NodeId,
        payload: ReferMsg,
        _attempts: u32,
    ) {
        // All retries toward `peer` went unacknowledged: suspect it and, if
        // the frame carried data, divert around the suspect while the hop
        // budget allows.
        self.knowledge.suspect(ctx, peer);
        let ReferMsg::Data(frame) = payload else {
            return;
        };
        if ctx.self_faulty(at) {
            ctx.drop_data_reason(frame.data, DropReason::Other);
            return;
        }
        self.stats.expiry_diversions += 1;
        self.carry(ctx, at, frame, HopReason::Recovery);
    }

    fn on_app_data<C: ProtoCtx<ReferMsg>>(&mut self, ctx: &mut C, src: NodeId, data: DataId) {
        if self.layout.is_none() {
            ctx.drop_data_reason(data, DropReason::NoAccess);
            return;
        }
        // Find the backbone entry point; failing one in range, hand the
        // packet to a neighbour that has one. The relay enters the backbone
        // on arrival.
        let access = self.nodes[src.index()].known_member(ctx, &self.roster, &self.knowledge);
        if access.is_none() {
            if let Some(relay) = self.access_relay(ctx, src) {
                let home = self
                    .roster
                    .nearest_member(ctx, &self.knowledge, relay)
                    .expect("relay has a member in range");
                let (dest_cell, dest_vertex) = self.choose_destination(ctx, src, home, data);
                let frame =
                    DataFrame { data, dest_cell, dest_vertex, forced: None, appended: 0, hops: 0 };
                let out = ReferMsg::Data(frame);
                if !self.knowledge.send_data(ctx, src, relay, data, HopReason::Access, out) {
                    ctx.drop_data_reason(data, DropReason::NoAccess);
                }
                return;
            }
        }
        let Some(access) = access else {
            ctx.drop_data_reason(data, DropReason::NoAccess);
            return;
        };
        let (dest_cell, dest_vertex) = self.choose_destination(ctx, src, access, data);
        let frame = DataFrame { data, dest_cell, dest_vertex, forced: None, appended: 0, hops: 0 };
        // Lowest-delay rule at the source too: a sensor standing next to
        // the destination actuator reports directly.
        if let Some(dest) = self.roster.owner_of(dest_cell, dest_vertex) {
            if self.knowledge.usable(ctx, src, dest) && !ctx.is_congested(dest) {
                let out = ReferMsg::Data(frame.clone());
                if self.knowledge.send_data(ctx, src, dest, data, HopReason::Direct, out) {
                    return;
                }
            }
        }
        if access == src {
            self.forward(ctx, src, frame);
            return;
        }
        let out = ReferMsg::Data(frame);
        if !self.knowledge.send_data(ctx, src, access, data, HopReason::Access, out) {
            ctx.drop_data_reason(data, DropReason::NoAccess);
        }
    }

    fn on_message<C: ProtoCtx<ReferMsg>>(&mut self, ctx: &mut C, at: NodeId, msg: Message<ReferMsg>) {
        // Any received frame is proof of life: refresh the sender's
        // heartbeat and clear a standing suspicion.
        self.knowledge.contact(ctx, msg.from);
        match msg.payload {
            ReferMsg::Ctrl | ReferMsg::Assignment | ReferMsg::CellReady | ReferMsg::Replace
            | ReferMsg::ReplaceNotice | ReferMsg::StartStage2 { .. } => {
                // State transitions for these are applied by the initiator
                // when the frame is charged (the coordinator launches a
                // stage-2 query itself); receivers have nothing to add.
            }
            ReferMsg::PathQuery { qid, ttl, target, path } => {
                self.nodes[at.index()].on_path_query(ctx, &self.roster, qid, ttl, target, path);
            }
            ReferMsg::PathAssign { assignments, hop } => {
                // Pass the chain down toward the origin end; a hop with no
                // entry (a peer's frame can carry any index) ends it.
                let next = hop.checked_sub(1).and_then(|h| assignments.get(h));
                if let Some(&(next, _)) = next {
                    ctx.send(
                        at,
                        next,
                        CTRL_BITS,
                        EnergyAccount::Construction,
                        ReferMsg::PathAssign { assignments, hop: hop - 1 },
                    );
                }
            }
            ReferMsg::Beacon => {
                let maintain = self.rcfg.maintenance_enabled;
                self.nodes[at.index()].on_beacon(ctx, &self.roster, msg.from, maintain);
            }
            ReferMsg::Probe => self.nodes[at.index()].on_probe(msg.from),
            ReferMsg::Data(frame) => self.carry(ctx, at, frame, HopReason::Access),
        }
    }

    fn on_timer<C: ProtoCtx<ReferMsg>>(&mut self, ctx: &mut C, at: NodeId, t: u64) {
        let (kind, arg) = untag(t);
        match kind {
            KIND_STAGE1 => self.on_stage1_timer(ctx, arg),
            KIND_STAGE2 => self.on_stage2_timer(ctx, arg as usize),
            KIND_STAGE3 => self.on_stage3_timer(ctx, arg as usize),
            KIND_READY => self.on_ready_timer(ctx, arg as usize),
            KIND_QPICK => self.on_query_pick(ctx, arg, at),
            KIND_BEACON => {
                self.nodes[at.index()].on_beacon_timer(ctx, &self.roster);
            }
            KIND_MAINT => self.maintain(ctx, at),
            KIND_PROBE if self.rcfg.maintenance_enabled => {
                self.nodes[at.index()].on_probe_timer(ctx, &self.roster, &self.knowledge);
            }
            _ => {}
        }
    }
}

// The simulator shim: one forwarding line per hook. The orphan rule
// forbids a blanket `impl<T: SansIo> Protocol for T` (both traits are
// foreign to any crate that would want it), so each protocol carries this
// thin adapter; `Ctx` implements `ProtoCtx`, so every hook monomorphizes
// to exactly the pre-split code.
impl Protocol for ReferProtocol {
    type Payload = ReferMsg;

    fn name(&self) -> &'static str {
        SansIo::name(self)
    }

    fn on_init(&mut self, ctx: &mut Ctx<ReferMsg>) {
        SansIo::on_init(self, ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<ReferMsg>, at: NodeId, msg: Message<ReferMsg>) {
        SansIo::on_message(self, ctx, at, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<ReferMsg>, at: NodeId, tag: u64) {
        SansIo::on_timer(self, ctx, at, tag);
    }

    fn on_app_data(&mut self, ctx: &mut Ctx<ReferMsg>, src: NodeId, data: DataId) {
        SansIo::on_app_data(self, ctx, src, data);
    }

    fn on_ack(&mut self, ctx: &mut Ctx<ReferMsg>, at: NodeId, peer: NodeId) {
        SansIo::on_ack(self, ctx, at, peer);
    }

    fn on_send_expired(
        &mut self,
        ctx: &mut Ctx<ReferMsg>,
        at: NodeId,
        peer: NodeId,
        payload: ReferMsg,
        attempts: u32,
    ) {
        SansIo::on_send_expired(self, ctx, at, peer, payload, attempts);
    }

    fn on_fault_rotation(
        &mut self,
        ctx: &mut Ctx<ReferMsg>,
        failed: &[NodeId],
        recovered: &[NodeId],
    ) {
        SansIo::on_fault_rotation(self, ctx, failed, recovered);
    }
}

impl Default for ReferProtocol {
    fn default() -> Self {
        Self::new(ReferConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_tags_round_trip() {
        for kind in [KIND_STAGE1, KIND_STAGE2, KIND_QPICK, KIND_BEACON, KIND_MAINT] {
            for arg in [0u64, 1, 3, 1 << 20, (1 << TAG_SHIFT) - 1] {
                assert_eq!(untag(tag(kind, arg)), (kind, arg));
            }
        }
    }

    #[test]
    fn fresh_protocol_has_no_cells() {
        let p = ReferProtocol::default();
        assert!(p.layout().is_none());
        assert!(p.roster(0).is_none());
        assert_eq!(p.stats.cells_ready, 0);
    }

    #[test]
    fn max_hops_guard_is_generous_for_cell_routes() {
        // Worst intra-cell route: access (2) + k + 2 Kautz hops (5) plus
        // inter-cell actuator hops; 32 leaves ample slack.
        assert!(MAX_HOPS as usize > 2 * (3 + 2) + 4);
    }
}
