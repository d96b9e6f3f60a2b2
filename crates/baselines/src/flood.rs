//! Charged flooding route discovery — the "topological routing" component
//! shared by the baseline systems (\[35\] in the paper).
//!
//! The baselines recover from failures by broadcasting route requests
//! (DaTree re-attaches to its root, D-DEAR heads rebuild actuator paths,
//! Kautz-overlay re-establishes the multi-hop path between two overlay
//! neighbors). We model a discovery as:
//!
//! * a breadth-first search over the *current* connectivity graph to find
//!   the route the flood would discover;
//! * one real broadcast frame per node the flood expands (so the energy
//!   and the channel congestion of the request wave are fully paid), plus
//!   one unicast frame per hop of the reply path;
//! * a latency estimate (request depth + reply length, at control-frame
//!   service time) that callers use to delay the retransmission.
//!
//! The *control flow* (who learns the route) is applied directly to
//! protocol state once the frames are charged, the same simulation style
//! used for REFER's construction.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use wsan_sim::{Ctx, EnergyAccount, NodeId, SimDuration};

/// Size of every baseline's control frames (hellos, tree-build waves,
/// route requests and replies), bits.
pub(crate) const CTRL_BITS: u32 = 256;

/// Flood scope (hops) of every baseline's route discovery: DaTree's repair
/// toward its root, D-DEAR's head-to-actuator paths, the overlay's
/// physical paths.
pub(crate) const FLOOD_SCOPE: usize = 16;

/// Payloads that can represent an inert control frame (delivered, charged,
/// but carrying no protocol action).
pub trait ControlPayload: Clone + std::fmt::Debug {
    /// An inert control frame.
    fn inert() -> Self;
}

/// The result of one flooding discovery.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// The discovered route, inclusive of both endpoints; `None` when the
    /// destination is unreachable in the current topology.
    pub route: Option<Vec<NodeId>>,
    /// Number of request broadcasts charged.
    pub broadcasts: usize,
    /// Estimated request+reply latency to account before the route is
    /// usable.
    pub latency: SimDuration,
}

/// Floods a route request from `from` toward `to`, expanding at most
/// `scope` hops, charging every frame to `account`.
///
/// The BFS expands alive nodes only and uses each expander's own
/// transmission range (directional links). Every frame is a
/// `CTRL_BITS` control frame.
pub fn discover<P: ControlPayload>(
    ctx: &mut Ctx<P>,
    from: NodeId,
    to: NodeId,
    scope: usize,
    account: EnergyAccount,
) -> Discovery {
    let mut parent: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    let mut depth: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut seen: BTreeSet<NodeId> = BTreeSet::new();
    let mut queue = VecDeque::new();
    // One neighbor buffer for the whole BFS: each expansion refills it
    // instead of allocating a fresh Vec per hop.
    let mut frontier: Vec<NodeId> = Vec::new();
    let mut broadcasts = 0usize;
    seen.insert(from);
    depth.insert(from, 0);
    queue.push_back(from);
    let mut found = false;
    while let Some(cur) = queue.pop_front() {
        let d = depth[&cur];
        if d >= scope {
            continue;
        }
        // The expansion broadcast: real frame, real energy, real congestion.
        broadcasts += 1;
        ctx.broadcast(cur, CTRL_BITS, account, P::inert());
        if found {
            // The wave keeps spreading a little after the target is hit;
            // one extra ring is enough to model that cost.
            continue;
        }
        // The receivers of that charged broadcast — the medium's outcome,
        // not an oracle lookup (see [`Ctx::physical_neighbors_into`]).
        ctx.physical_neighbors_into(cur, &mut frontier);
        for &n in &frontier {
            if seen.insert(n) {
                parent.insert(n, cur);
                depth.insert(n, d + 1);
                if n == to {
                    found = true;
                }
                queue.push_back(n);
            }
        }
        if found {
            // Stop enqueueing new rings beyond the current frontier.
            queue.retain(|q| depth[q] <= d + 1);
        }
    }
    if !seen.contains(&to) {
        let latency =
            per_hop_latency(ctx).mul(scope as u64) + contention_latency(ctx, broadcasts);
        return Discovery { route: None, broadcasts, latency };
    }
    // Reconstruct and charge the reply path (unicast back along parents).
    let mut route = vec![to];
    let mut at = to;
    while let Some(&p) = parent.get(&at) {
        route.push(p);
        at = p;
    }
    route.reverse();
    for w in route.windows(2).rev() {
        // Reply travels destination -> source.
        ctx.send(w[1], w[0], CTRL_BITS, account, P::inert());
    }
    let hops = route.len() as u64; // request depth + reply ≈ 2 * len
    let latency = per_hop_latency(ctx).mul(2 * hops) + contention_latency(ctx, broadcasts);
    Discovery { route: Some(route), broadcasts, latency }
}

/// Mean per-hop medium-acquisition time of a request/reply frame under
/// load: DIFS, contention window backoff and retry attempts. Dominates the
/// serialization time for small control frames.
const DISCOVERY_BACKOFF: SimDuration = SimDuration::from_millis(25);

fn per_hop_latency<P: Clone + std::fmt::Debug>(ctx: &Ctx<P>) -> SimDuration {
    ctx.service_time(CTRL_BITS) + DISCOVERY_BACKOFF
}

/// The request wave contends for the shared medium across the flooded
/// region; with a spatial-reuse factor of ~4, its completion time scales
/// with the number of broadcasts it took.
fn contention_latency<P: Clone + std::fmt::Debug>(
    ctx: &Ctx<P>,
    broadcasts: usize,
) -> SimDuration {
    ctx.service_time(CTRL_BITS).mul(broadcasts as u64 / 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsan_sim::{runner, Ctx, DataId, Message, Protocol, SimConfig, SimDuration};

    #[derive(Debug, Clone)]
    struct Inert;
    impl ControlPayload for Inert {
        fn inert() -> Self {
            Inert
        }
    }

    /// Runs one discovery inside a live simulation and exposes the result.
    struct DiscoverOnce {
        outcome: Option<Discovery>,
    }
    impl Protocol for DiscoverOnce {
        type Payload = Inert;
        fn name(&self) -> &'static str {
            "DiscoverOnce"
        }
        fn on_init(&mut self, ctx: &mut Ctx<Inert>) {
            let from = ctx.sensor_ids()[0];
            let to = ctx.actuator_ids()[0];
            self.outcome = Some(discover(ctx, from, to, 12, EnergyAccount::Construction));
        }
        fn on_message(&mut self, _: &mut Ctx<Inert>, _: NodeId, _: Message<Inert>) {}
        fn on_timer(&mut self, _: &mut Ctx<Inert>, _: NodeId, _: u64) {}
        fn on_app_data(&mut self, ctx: &mut Ctx<Inert>, _: NodeId, data: DataId) {
            ctx.drop_data(data);
        }
    }

    #[test]
    fn discovery_finds_a_connected_route_and_charges_energy() {
        let mut cfg = SimConfig::smoke();
        cfg.duration = SimDuration::from_secs(1);
        cfg.warmup = SimDuration::from_secs(1);
        let (summary, p) = runner::run_owned(cfg, DiscoverOnce { outcome: None });
        let d = p.outcome.expect("ran");
        let route = d.route.expect("dense smoke deployment is connected");
        assert!(route.len() >= 2);
        assert!(d.broadcasts >= route.len() - 1, "at least the route itself expanded");
        assert!(d.latency > SimDuration::ZERO);
        assert!(summary.energy_construction_j > 0.0, "flood frames were charged");
    }

    /// Unreachable destination: scope-limited flood gives up.
    struct DiscoverUnreachable {
        outcome: Option<Discovery>,
    }
    impl Protocol for DiscoverUnreachable {
        type Payload = Inert;
        fn name(&self) -> &'static str {
            "DiscoverUnreachable"
        }
        fn on_init(&mut self, ctx: &mut Ctx<Inert>) {
            let from = ctx.sensor_ids()[0];
            let to = ctx.actuator_ids()[0];
            // Scope 0: cannot expand anywhere.
            self.outcome = Some(discover(ctx, from, to, 0, EnergyAccount::Communication));
        }
        fn on_message(&mut self, _: &mut Ctx<Inert>, _: NodeId, _: Message<Inert>) {}
        fn on_timer(&mut self, _: &mut Ctx<Inert>, _: NodeId, _: u64) {}
        fn on_app_data(&mut self, ctx: &mut Ctx<Inert>, _: NodeId, data: DataId) {
            ctx.drop_data(data);
        }
    }

    #[test]
    fn zero_scope_discovery_fails() {
        let mut cfg = SimConfig::smoke();
        cfg.duration = SimDuration::from_secs(1);
        cfg.warmup = SimDuration::from_secs(1);
        let (_, p) = runner::run_owned(cfg, DiscoverUnreachable { outcome: None });
        let d = p.outcome.expect("ran");
        assert!(d.route.is_none());
    }
}
