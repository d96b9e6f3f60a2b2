//! A bare Kautz *fabric*: the whole network is one Kautz graph.
//!
//! The heavy-traffic workloads (ROADMAP item 2) need a testbed where the
//! routing strategy is the only variable: sensor `i` *is* vertex `i` of
//! `K(d, k)`, every arc is a direct radio link (the scenario from
//! [`fabric_config`] makes the radio range cover the whole area), and a
//! packet to sensor `v` simply walks the graph. No cells, no embedding, no
//! ACK machinery — congestion comes purely from the MAC queueing model, so
//! the difference between greedy shortest routing (hot arcs under
//! all-to-all load) and Faber–Streib regular routing (uniform arc load at
//! the cost of slightly longer paths) is directly visible in the
//! queue-delay tail and the hot-link utilization.
//!
//! The per-hop state is three bytes carried in the frame (destination,
//! regular-routing digit counter, hop count); the shared table is an
//! [`ArcTable`]: the digit words (`n·k` bytes) and the successor rows
//! (`n·d` u32s), built in two allocations whatever the graph's size. Both
//! next hops are computed from the two digit words per hop, so the fabric
//! scales to the `n ≥ 10⁴` graphs the sharded engine targets without the
//! `O(n²)` build of the per-cell [`RouteTable`](kautz::RouteTable), which
//! asks the Theorem 3.8 diversion search about every ordered pair.

use kautz::ArcTable;
use wsan_sim::{
    ActuatorPlacement, Ctx, DataId, DropReason, EnergyAccount, HopReason, Message, NodeId,
    Protocol, RoutingStrategy, SensorPlacement, SimConfig, TrafficPattern,
};

/// A data frame walking the fabric.
#[derive(Debug, Clone)]
pub struct FabricFrame {
    /// The application packet being carried.
    pub data: DataId,
    /// Destination sensor (== its vertex index).
    pub dest: u32,
    /// Regular routing's digit counter: how many destination digits have
    /// been appended so far (unused under shortest routing).
    pub appended: u8,
    /// Transmissions so far, against the hop budget.
    pub hops: u8,
}

/// The fabric protocol: direct Kautz routing over the whole sensor field.
///
/// Requires `cfg.sensors == (d+1)·d^(k-1)` and a radio range covering every
/// sensor pair (use [`fabric_config`]); packets without a matrix-assigned
/// destination (the paper trickle) are dropped, so run it under a
/// [`TrafficPattern`] matrix.
#[derive(Debug, Clone)]
pub struct KautzFabricProtocol {
    arcs: ArcTable,
    /// Maximum transmissions per packet before giving up: `2(k+1)` leaves
    /// headroom over both strategies' worst case of `k` hops.
    hop_limit: u8,
}

impl KautzFabricProtocol {
    /// Builds the fabric tables for `K(degree, k)`.
    ///
    /// # Panics
    ///
    /// Panics if `K(degree, k)` is not a graph [`ArcTable::new`] builds.
    pub fn new(degree: u8, k: usize) -> Self {
        let arcs = ArcTable::new(degree, k).expect("fabric graph parameters");
        let hop_limit = (2 * (k + 1)).min(u8::MAX as usize) as u8;
        KautzFabricProtocol { arcs, hop_limit }
    }

    /// Number of vertices / required sensor count.
    pub fn node_count(&self) -> usize {
        self.arcs.node_count()
    }

    /// Delivers, drops, or forwards `frame` one hop from `at`.
    fn step(&mut self, ctx: &mut Ctx<FabricFrame>, at: NodeId, mut frame: FabricFrame) {
        let (u, v) = (at.index(), frame.dest as usize);
        if u == v {
            ctx.deliver_data_with_hops(frame.data, at, u32::from(frame.hops));
            return;
        }
        if frame.hops >= self.hop_limit {
            ctx.drop_data_reason(frame.data, DropReason::HopLimit);
            return;
        }
        let hop = match ctx.config().routing {
            RoutingStrategy::Shortest => {
                self.arcs.next_hop(u, v).map(|next| (next, frame.appended))
            }
            RoutingStrategy::Regular => self.arcs.regular_next(u, v, frame.appended),
        };
        let (next, appended) = hop.expect("u != v was handled above");
        frame.appended = appended;
        frame.hops += 1;
        let next = NodeId(next as u32);
        let size = ctx.data_size_bits(frame.data).unwrap_or(ctx.config().traffic.packet_bits);
        ctx.trace_hop(frame.data, at, next, HopReason::KautzNext);
        if !ctx.send(at, next, size, EnergyAccount::Communication, frame.clone()) {
            // The only link failure in the fabric scenario is a faulty
            // endpoint; the fabric has no repair path.
            ctx.drop_data_reason(frame.data, DropReason::NoRoute);
        }
    }
}

impl Protocol for KautzFabricProtocol {
    type Payload = FabricFrame;

    fn name(&self) -> &'static str {
        "KautzFabric"
    }

    fn on_init(&mut self, ctx: &mut Ctx<FabricFrame>) {
        let arcs = &self.arcs;
        assert_eq!(
            ctx.config().sensors,
            arcs.node_count(),
            "the fabric maps sensor i to vertex i: sensors must equal K({}, {})'s {} vertices",
            arcs.degree(),
            arcs.k(),
            arcs.node_count()
        );
    }

    fn on_app_data(&mut self, ctx: &mut Ctx<FabricFrame>, src: NodeId, data: DataId) {
        let Some(dest) = ctx.data_dest(data) else {
            // The paper trickle assigns no destination sensor; the fabric
            // only routes matrix traffic.
            ctx.drop_data(data);
            return;
        };
        let frame = FabricFrame { data, dest: dest.0, appended: 0, hops: 0 };
        self.step(ctx, src, frame);
    }

    fn on_message(&mut self, ctx: &mut Ctx<FabricFrame>, at: NodeId, msg: Message<FabricFrame>) {
        self.step(ctx, at, msg.payload);
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<FabricFrame>, _at: NodeId, _tag: u64) {}
}

// The fabric's state (the routing tables) is built before the run and never
// mutated; every hook acts solely as the node it names, so the protocol
// runs unchanged under the sharded engine.
impl wsan_sim::ShardableProtocol for KautzFabricProtocol {}

/// The heavy-traffic fabric scenario for `K(degree, k)`: one sensor per
/// vertex, static nodes, radio range covering the whole area (every arc is
/// one hop), all-to-all matrix traffic at `offered_pps`, and a bitrate low
/// enough that tens of kilopackets/second congest the MAC queues.
///
/// With every pair in radio range the spatial grid collapses to one cell,
/// so the sharded engine runs this scenario as a single shard — sharded
/// results are still compared at different thread counts, which must agree
/// bit for bit.
pub fn fabric_config(degree: u8, k: usize, offered_pps: f64) -> SimConfig {
    let d = degree as usize;
    let n = (d + 1) * d.pow((k - 1) as u32);
    let mut cfg = SimConfig::paper();
    cfg.sensors = n;
    cfg.actuators = 1;
    cfg.placement = ActuatorPlacement::UniformRandom;
    cfg.sensor_placement = SensorPlacement::UniformArea;
    // 500 m × 500 m diagonal is ~707.1 m; 720 m covers every pair.
    cfg.sensor_range = 720.0;
    cfg.actuator_range = 720.0;
    cfg.mobility.max_speed = 0.0;
    cfg.traffic.pattern = TrafficPattern::All2All;
    cfg.traffic.offered_pps = offered_pps;
    // 1 Mb/s: an 8000-bit packet occupies the sender's radio for 8 ms, so
    // per-node forwarding saturates at 125 packets/second. A k-hop path
    // then costs ~8k ms uncongested, leaving most of the 0.6 s QoS budget
    // for queueing — the regime where the routing strategies differ.
    cfg.radio.bitrate_bps = 1_000_000.0;
    // The fabric is a per-arc-capacity model: a vertex's service rate is
    // its own sender queue's (Faber–Streib's regular-routing setting).
    // Under the paper scenario's receiver occupancy the serial engine lets
    // one backlogged sender freeze every vertex it targets.
    cfg.radio.receiver_occupancy = 0.0;
    cfg.seed = 1;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsan_sim::{runner, SimDuration};

    /// The two workloads want different contention models; neither may
    /// change its own by accident (DESIGN.md §13, "Engine discipline").
    #[test]
    fn the_paper_scenario_reserves_receivers_and_the_fabric_does_not() {
        assert!(wsan_sim::RadioConfig::default().receiver_occupancy > 0.0);
        assert_eq!(fabric_config(2, 3, 25.0).radio.receiver_occupancy, 0.0);
    }

    #[test]
    fn fabric_delivers_all_to_all_traffic_end_to_end() {
        for routing in [RoutingStrategy::Shortest, RoutingStrategy::Regular] {
            // Light load: the congestion behaviour has its own benches;
            // this test only checks the walk terminates at the destination.
            let mut cfg = fabric_config(2, 3, 25.0);
            cfg.routing = routing;
            cfg.warmup = SimDuration::from_secs(2);
            cfg.duration = SimDuration::from_secs(10);
            let summary = runner::run(cfg, &mut KautzFabricProtocol::new(2, 3));
            assert!(
                summary.delivery_ratio > 0.95,
                "{routing:?} delivered only {}",
                summary.delivery_ratio
            );
            assert!(summary.hop_p99 <= 7.0, "{routing:?} hop p99 {}", summary.hop_p99);
        }
    }
}
