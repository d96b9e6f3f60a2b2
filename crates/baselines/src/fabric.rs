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
//! regular-routing digit counter, hop count); the per-node tables are the
//! digit words (`n·k` bytes) and the successor-by-digit map
//! (`n·(d+1)` u32s), so the fabric scales to the `n ≥ 10⁴` graphs the
//! sharded engine targets without the `O(n²)` tables of the per-cell
//! [`RouteTable`](kautz::RouteTable).

use kautz::KautzId;
use wsan_sim::{
    ActuatorPlacement, Ctx, DataId, DropReason, EnergyAccount, HopReason, Message, NodeId,
    Protocol, RoutingStrategy, SensorPlacement, SimConfig, TrafficPattern,
};

/// No successor along this digit (it equals the vertex's last letter).
const NO_ARC: u32 = u32::MAX;

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
    degree: u8,
    k: usize,
    n: usize,
    /// Digit words, row-major `n × k`.
    digits: Vec<u8>,
    /// Successor index by out-digit, row-major `n × (d+1)`; [`NO_ARC`]
    /// where the digit equals the vertex's last letter.
    succ: Vec<u32>,
    /// Maximum transmissions per packet before giving up: `2(k+1)` leaves
    /// headroom over both strategies' worst case of `k` hops.
    hop_limit: u8,
}

impl KautzFabricProtocol {
    /// Builds the fabric tables for `K(degree, k)`.
    pub fn new(degree: u8, k: usize) -> Self {
        let d = degree as usize;
        let n = (d + 1) * d.pow((k - 1) as u32);
        let mut digits = Vec::with_capacity(n * k);
        for index in 0..n {
            digits.extend_from_slice(KautzId::from_index(index, degree, k).digits());
        }
        let mut succ = vec![NO_ARC; n * (d + 1)];
        for u in 0..n {
            let last = digits[u * k + k - 1];
            for alpha in 0..=degree {
                if alpha == last {
                    continue;
                }
                // Successor along `alpha` is the left shift with `alpha`
                // appended: digits (u_2 .. u_k alpha).
                let mut word: Vec<u8> = digits[u * k + 1..(u + 1) * k].to_vec();
                word.push(alpha);
                let id = KautzId::new(word, degree).expect("shift-append stays a Kautz word");
                succ[u * (d + 1) + alpha as usize] = id.to_index() as u32;
            }
        }
        let hop_limit = (2 * (k + 1)).min(u8::MAX as usize) as u8;
        KautzFabricProtocol { degree, k, n, digits, succ, hop_limit }
    }

    /// Number of vertices / required sensor count.
    pub fn node_count(&self) -> usize {
        self.n
    }

    fn digits_of(&self, u: usize) -> &[u8] {
        &self.digits[u * self.k..(u + 1) * self.k]
    }

    fn succ_by_digit(&self, u: usize, alpha: u8) -> usize {
        let next = self.succ[u * (self.degree as usize + 1) + alpha as usize];
        debug_assert_ne!(next, NO_ARC, "no arc along the vertex's own last digit");
        next as usize
    }

    /// Longest suffix of `u` matching a prefix of `v` (0 when `u != v`
    /// share nothing; callers never ask about `u == v`).
    fn overlap(&self, u: usize, v: usize) -> usize {
        let (k, du, dv) = (self.k, self.digits_of(u), self.digits_of(v));
        (1..k).rev().find(|&t| du[k - t..] == dv[..t]).unwrap_or(0)
    }

    /// The greedy shortest next hop: append the first destination digit
    /// beyond the current overlap. Always a legal arc — with overlap `t`,
    /// `v_{t+1}` differs from `u`'s last letter (`= v_t` for `t ≥ 1`; for
    /// `t = 0` equality would make the overlap 1).
    fn shortest_next(&self, u: usize, v: usize) -> usize {
        self.succ_by_digit(u, self.digits_of(v)[self.overlap(u, v)])
    }

    /// One Faber–Streib regular hop: append destination digit
    /// `v_{appended+1}` and advance the counter, starting from `v_2` when
    /// `v_1` collides with `u`'s last digit (the overlap is then at least
    /// 1, so no detour is needed). Mirrors
    /// [`RouteTable::regular_next`](kautz::RouteTable::regular_next).
    fn regular_next(&self, u: usize, v: usize, appended: u8) -> (usize, u8) {
        let mut appended = if (appended as usize) < self.k { appended } else { 0 };
        let u_last = self.digits_of(u)[self.k - 1];
        if self.digits_of(v)[appended as usize] == u_last {
            appended = u8::from(self.digits_of(v)[0] == u_last);
        }
        let next_digit = self.digits_of(v)[appended as usize];
        (self.succ_by_digit(u, next_digit), appended + 1)
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
        let next = match ctx.config().routing {
            RoutingStrategy::Shortest => self.shortest_next(u, v),
            RoutingStrategy::Regular => {
                let (next, appended) = self.regular_next(u, v, frame.appended);
                frame.appended = appended;
                next
            }
        };
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
        assert_eq!(
            ctx.config().sensors,
            self.n,
            "the fabric maps sensor i to vertex i: sensors must equal K({}, {})'s {} vertices",
            self.degree,
            self.k,
            self.n
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

    #[test]
    fn successor_tables_match_the_id_arithmetic() {
        for (d, k) in [(2u8, 3usize), (3, 4)] {
            let fabric = KautzFabricProtocol::new(d, k);
            for u in 0..fabric.node_count() {
                let id = KautzId::from_index(u, d, k);
                let mut from_table: Vec<usize> = (0..=d)
                    .filter(|&a| a != id.last())
                    .map(|a| fabric.succ_by_digit(u, a))
                    .collect();
                from_table.sort_unstable();
                let mut from_id: Vec<usize> =
                    id.successors().iter().map(|s| s.to_index()).collect();
                from_id.sort_unstable();
                assert_eq!(from_table, from_id, "successors of {u} in K({d}, {k})");
            }
        }
    }

    #[test]
    fn shortest_walk_reaches_every_pair_within_the_diameter() {
        let (d, k) = (3u8, 4usize);
        let fabric = KautzFabricProtocol::new(d, k);
        let n = fabric.node_count();
        for u in 0..n {
            for v in 0..n {
                if u == v {
                    continue;
                }
                let mut at = u;
                let mut hops = 0;
                while at != v {
                    at = fabric.shortest_next(at, v);
                    hops += 1;
                    assert!(hops <= k, "shortest {u} -> {v} exceeded the diameter");
                }
            }
        }
    }

    #[test]
    fn regular_walk_reaches_every_pair_within_the_diameter() {
        let (d, k) = (3u8, 4usize);
        let fabric = KautzFabricProtocol::new(d, k);
        let n = fabric.node_count();
        for u in 0..n {
            for v in 0..n {
                if u == v {
                    continue;
                }
                let (mut at, mut appended, mut hops) = (u, 0u8, 0usize);
                while at != v {
                    let (next, a) = fabric.regular_next(at, v, appended);
                    at = next;
                    appended = a;
                    hops += 1;
                    assert!(hops <= k, "regular {u} -> {v} exceeded the diameter");
                }
            }
        }
    }

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
