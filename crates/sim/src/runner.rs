//! The discrete-event loop: placement, traffic generation, mobility, fault
//! rotation and event dispatch.

use crate::config::{ActuatorPlacement, SimConfig};
use crate::ctx::{Ctx, EventKind};
use crate::geometry::Point;
use crate::message::DataRecord;
use crate::metrics::RunSummary;
use crate::node::{NodeId, NodeKind, NodeState};
use crate::protocol::Protocol;
use crate::time::SimTime;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Runs one simulation of `protocol` under `cfg` and returns the summary.
///
/// The run is fully deterministic given `cfg.seed`.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`SimConfig::validate`]).
pub fn run<P: Protocol>(cfg: SimConfig, protocol: &mut P) -> RunSummary {
    run_with_sinks(cfg, protocol, Vec::new()).0
}

/// [`run`] with streaming trace sinks attached for the whole run.
///
/// Every sink observes every [`TraceEvent`](crate::trace::TraceEvent) in
/// simulation order as it happens — no intermediate buffer, so a traced
/// million-event run holds only what the sinks themselves retain. The
/// sinks are flushed and handed back with the summary so callers can
/// recover their state (file handles, counters, hashes).
pub fn run_with_sinks<P: Protocol>(
    cfg: SimConfig,
    protocol: &mut P,
    sinks: Vec<Box<dyn crate::trace::TraceSink>>,
) -> (RunSummary, Vec<Box<dyn crate::trace::TraceSink>>) {
    let mut ctx = boot(cfg, protocol, sinks);
    push_drivers(&mut ctx);
    let end = ctx.end;
    run_until(&mut ctx, protocol, end);
    finish(&mut ctx)
}

/// How every run starts, whichever engine continues it: the world is built
/// from the seed and the protocol constructs its network on it.
pub(crate) fn boot<P: Protocol>(
    cfg: SimConfig,
    protocol: &mut P,
    sinks: Vec<Box<dyn crate::trace::TraceSink>>,
) -> Ctx<P::Payload> {
    cfg.validate();
    let mut ctx = build_ctx::<P::Payload>(cfg);
    ctx.sinks = sinks;
    ctx.unbounded_queue = true;
    protocol.on_init(&mut ctx);
    ctx.unbounded_queue = false;
    // Construction bursts through at t=0; radios start steady state clear.
    // Only a frame or broadcast that was sent sets a radio busy, so a
    // construction that sent nothing leaves every radio clear already.
    if ctx.metrics.frames_sent + ctx.metrics.broadcasts_sent > 0 {
        for node in &mut ctx.nodes {
            node.busy_until_micros = 0;
        }
    }
    ctx
}

/// Drivers: traffic from t=0 (warmup traffic flows but is not measured),
/// mobility from the first tick, fault rotation from the first boundary.
pub(crate) fn push_drivers<Pl>(ctx: &mut Ctx<Pl>) {
    ctx.push(SimTime::ZERO, EventKind::TrafficRound);
    let mob_tick = ctx.cfg.mobility.tick;
    ctx.push(SimTime::ZERO + mob_tick, EventKind::MobilityTick);
    if ctx.cfg.faults.count > 0 {
        let rot = ctx.cfg.faults.rotation;
        ctx.push(SimTime::ZERO + rot, EventKind::FaultRotation);
    }
}

/// The serial loop: pops and dispatches every event up to `end`.
fn run_until<P: Protocol>(ctx: &mut Ctx<P::Payload>, protocol: &mut P, end: SimTime) {
    let mut faulty_set: Vec<NodeId> = Vec::new();
    while let Some(ev) = ctx.queue.pop() {
        if ev.at > end {
            // Back to its old (at, seq) place, so the `Ctx` holds every
            // pending event.
            ctx.queue.push(ev);
            break;
        }
        debug_assert!(ev.at >= ctx.now, "event queue went backwards");
        ctx.now = ev.at;
        dispatch_one(ctx, protocol, &mut faulty_set, ev.kind);
    }
}

/// How every run ends: the summary of what `ctx` metered — for the sharded
/// engine the master context, after each shard's meters were folded into
/// it — and the sinks, flushed, handed back.
pub(crate) fn finish<Pl>(
    ctx: &mut Ctx<Pl>,
) -> (RunSummary, Vec<Box<dyn crate::trace::TraceSink>>) {
    let mut summary = ctx.metrics.summarize(ctx.cfg.duration);
    let consumed: Vec<f64> = ctx
        .sensors
        .iter()
        .map(|&s| ctx.nodes[s.index()].consumed)
        .collect();
    summary.hotspot_energy_j = consumed.iter().cloned().fold(0.0, f64::max);
    summary.energy_fairness = crate::metrics::jain_fairness(&consumed);
    summary.hot_link_utilization = hot_link_utilization(&ctx.nodes, &ctx.cfg);
    summary.oracle_queries = ctx.oracle_queries.get();
    let mut sinks = std::mem::take(&mut ctx.sinks);
    for sink in &mut sinks {
        sink.flush();
    }
    (summary, sinks)
}

/// Handles one popped event of the serial engine: the central drivers
/// here, everything else in [`dispatch_node_event`]. `ctx.now` must
/// already be the event's timestamp.
fn dispatch_one<P: Protocol>(
    ctx: &mut Ctx<P::Payload>,
    protocol: &mut P,
    faulty_set: &mut Vec<NodeId>,
    kind: EventKind<P::Payload>,
) {
    match kind {
        EventKind::TrafficRound => traffic_round(ctx),
        EventKind::FaultRotation => {
            let (failed, recovered) = rotate_faults_core(ctx, faulty_set);
            protocol.on_fault_rotation(ctx, &failed, &recovered);
        }
        EventKind::MobilityTick => mobility_tick(ctx),
        kind => dispatch_node_event(ctx, protocol, kind),
    }
}

/// Handles one event homed at a node — both engines' dispatch table for
/// everything that is not a central driver or a claim. `ctx.now` must
/// already be the event's timestamp (and, in a shard, `active` its home).
#[inline]
pub(crate) fn dispatch_node_event<P: Protocol>(
    ctx: &mut Ctx<P::Payload>,
    protocol: &mut P,
    kind: EventKind<P::Payload>,
) {
    match kind {
        EventKind::Deliver { to, msg, ack_id } => {
            if ctx.nodes[to.index()].faulty {
                return; // receiver died in flight; frame lost, no ACK
            }
            ctx.charge_rx(to, msg.account);
            if ctx.byz_swallow(to, msg.from, ack_id, msg.broadcast) {
                return; // attacker swallowed it (ACK forged inside)
            }
            // The receiver's MAC acks before the stack processes.
            if let Some(id) = ack_id {
                ctx.schedule_ack(id, to, msg.from);
            }
            protocol.on_message(ctx, to, msg);
        }
        EventKind::AckArrive { id } => {
            if let Some(p) = ctx.pending_acks.remove(id) {
                if !ctx.nodes[p.from.index()].faulty {
                    protocol.on_ack(ctx, p.from, p.to);
                }
            } else {
                // A duplicate or late ACK — the frame already expired
                // (timeout fired first) or was acknowledged (always ACKed
                // again by a shard that cannot see the sender's pending
                // table). Counted and dropped.
                ctx.metrics.stale_acks += 1;
            }
        }
        EventKind::AckExpire { id } => ack_expire(ctx, protocol, id),
        // Timers fire even on faulty nodes so periodic chains are not
        // permanently severed by a transient fault; protocols check
        // `ctx.is_faulty` before acting.
        EventKind::Timer { node, tag } => protocol.on_timer(ctx, node, tag),
        EventKind::EmitPacket { node, remaining, gap_micros } => {
            emit_packet(ctx, protocol, node, remaining, gap_micros);
        }
        EventKind::TrafficRound
        | EventKind::FaultRotation
        | EventKind::MobilityTick
        | EventKind::DeliverClaim { .. }
        | EventKind::DropClaim { .. } => {
            unreachable!("central drivers and claims are dispatched by the engine's own loop")
        }
    }
}

/// Runs only the deterministic construction phase of `protocol` under
/// `cfg` — `on_init` plus the event cascade it triggers, drained up to
/// `horizon` past t=0 — and returns the resulting world.
///
/// No traffic, mobility or fault-rotation drivers are pushed, so the
/// returned context is exactly the constructed network: topology,
/// rosters, overlay state inside `protocol`, and the RNG as the
/// construction left it. Given the same `cfg` this is bit-for-bit
/// reproducible, which is how every `refer-node` process independently
/// arrives at the identical world before switching to its own I/O
/// driver.
///
/// # Panics
///
/// Panics if the configuration is invalid (see [`SimConfig::validate`]).
pub fn construct<P: Protocol>(
    cfg: SimConfig,
    protocol: &mut P,
    horizon: crate::time::SimDuration,
) -> Ctx<P::Payload> {
    let mut ctx = boot(cfg, protocol, Vec::new());
    run_until(&mut ctx, protocol, SimTime::ZERO + horizon);
    ctx
}

/// The busiest node's share of the measured window spent transmitting —
/// the `hot_link_utilization` congestion metric. Computed post-summarize
/// from per-node airtime (the serial engine here; the sharded engine after
/// gathering airtime from every shard by owner).
pub(crate) fn hot_link_utilization(nodes: &[NodeState], cfg: &SimConfig) -> f64 {
    let window = cfg.duration.as_micros();
    if window == 0 {
        return f64::NAN;
    }
    let busiest = nodes.iter().map(|n| n.tx_busy_micros).max().unwrap_or(0);
    busiest as f64 / window as f64
}

/// The ACK timeout of pending acknowledged frame `id` fired: retransmit
/// with backoff, or give the payload back to the protocol once retries are
/// exhausted. A stale timeout (the ACK arrived, or a retry superseded this
/// attempt) is a no-op because the entry was removed or re-keyed by
/// attempt count.
fn ack_expire<P: Protocol>(ctx: &mut Ctx<P::Payload>, protocol: &mut P, id: u64) {
    // One lookup decides everything; later steps tolerate the entry
    // disappearing rather than `expect`ing it, so no interleaving of
    // ACKs, retries and expiries (including ones future lossy/Byzantine
    // link models may produce) can panic the run.
    let Some((from, to, attempt)) =
        ctx.pending_acks.get(id).map(|p| (p.from, p.to, p.attempt))
    else {
        return; // already acknowledged
    };
    if ctx.nodes[from.index()].faulty {
        // The sender broke down while waiting; its MAC state is gone.
        ctx.pending_acks.remove(id);
        return;
    }
    if attempt >= ctx.cfg.radio.max_retries {
        if let Some(p) = ctx.pending_acks.remove(id) {
            ctx.metrics.frames_expired += 1;
            protocol.on_send_expired(ctx, p.from, p.to, p.payload, p.attempt + 1);
        }
        return;
    }
    if let Some(p) = ctx.pending_acks.get_mut(id) {
        p.attempt += 1;
    }
    ctx.metrics.frames_retransmitted += 1;
    let retry = attempt + 1;
    ctx.record(move |at| crate::trace::TraceEvent::Retransmit { at, from, to, attempt: retry });
    ctx.transmit_attempt(id);
}

/// Convenience: runs and also returns the protocol for post-hoc inspection
/// in tests.
pub fn run_owned<P: Protocol>(cfg: SimConfig, mut protocol: P) -> (RunSummary, P) {
    let summary = run(cfg, &mut protocol);
    (summary, protocol)
}

pub(crate) fn build_ctx<Pl>(cfg: SimConfig) -> Ctx<Pl> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
    let mut nodes = Vec::with_capacity(cfg.sensors + cfg.actuators);
    let mut sensors = Vec::with_capacity(cfg.sensors);
    let mut actuators = Vec::with_capacity(cfg.actuators);

    let actuator_pts = actuator_positions(&cfg, &mut rng);
    for _ in 0..cfg.sensors {
        let p = sensor_position(&cfg, &actuator_pts, &mut rng);
        let battery = cfg.initial_battery * rng.gen_range(0.8..=1.2);
        let id = NodeId(nodes.len() as u32);
        nodes.push(NodeState::new(NodeKind::Sensor, p, cfg.sensor_range, battery));
        sensors.push(id);
    }

    for p in actuator_pts {
        let id = NodeId(nodes.len() as u32);
        nodes.push(NodeState::new(NodeKind::Actuator, p, cfg.actuator_range, f64::INFINITY));
        actuators.push(id);
    }

    // Byzantine attacker selection, drawn AFTER every placement and
    // battery draw and gated on the model, so a run with Byzantine off
    // makes exactly the pre-adversary draw sequence (Oracle/Discovered
    // output stays byte-identical). Compromised nodes are physically
    // alive and oracle-clean; only their behavior differs.
    if matches!(cfg.faults.model, crate::config::FaultModel::Byzantine) {
        let fraction = cfg.faults.byzantine.attacker_fraction;
        if fraction > 0.0 {
            let k = ((sensors.len() as f64) * fraction).round() as usize;
            for &id in sensors.choose_multiple(&mut rng, k.min(sensors.len())) {
                nodes[id.index()].compromised = true;
            }
        }
    }

    // Cell side: the largest radio range of the node kinds present (the
    // unit disk's reach). Radius queries are correct for any side; the
    // shard tiling and the 3×3 `candidates_into` probe are what fix it.
    let side = f64::max(
        if sensors.is_empty() { 0.0 } else { cfg.sensor_range },
        if actuators.is_empty() { 0.0 } else { cfg.actuator_range },
    );
    let grid = crate::grid::SpatialGrid::new(cfg.area, side, nodes.iter().map(|n| n.position));

    Ctx::new(cfg, nodes, sensors, actuators, grid, rng, None)
}

fn actuator_positions(cfg: &SimConfig, rng: &mut rand::rngs::StdRng) -> Vec<Point> {
    match &cfg.placement {
        ActuatorPlacement::Explicit(points) => points.clone(),
        ActuatorPlacement::UniformRandom => (0..cfg.actuators)
            .map(|_| {
                Point::new(
                    rng.gen_range(0.0..=cfg.area.width),
                    rng.gen_range(0.0..=cfg.area.height),
                )
            })
            .collect(),
        ActuatorPlacement::Quincunx => {
            let w = cfg.area.width;
            let h = cfg.area.height;
            // Center first: truncating to fewer than 5 actuators must keep
            // the center (the best-covering single position), then corners.
            let mut pts = vec![
                Point::new(0.50 * w, 0.50 * h),
                Point::new(0.25 * w, 0.25 * h),
                Point::new(0.75 * w, 0.25 * h),
                Point::new(0.25 * w, 0.75 * h),
                Point::new(0.75 * w, 0.75 * h),
            ];
            // More than 5 actuators: fill in uniformly at random.
            while pts.len() < cfg.actuators {
                pts.push(Point::new(
                    rng.gen_range(0.0..=w),
                    rng.gen_range(0.0..=h),
                ));
            }
            pts.truncate(cfg.actuators);
            pts
        }
    }
}

fn sensor_position(
    cfg: &SimConfig,
    actuators: &[Point],
    rng: &mut rand::rngs::StdRng,
) -> Point {
    match cfg.sensor_placement {
        crate::config::SensorPlacement::UniformArea => Point::new(
            rng.gen_range(0.0..=cfg.area.width),
            rng.gen_range(0.0..=cfg.area.height),
        ),
        crate::config::SensorPlacement::AroundActuators { radius } => {
            let anchor = actuators[rng.gen_range(0..actuators.len())];
            // Uniform over the disc: radius scaled by sqrt of a uniform.
            let r = radius * rng.gen_range(0.0f64..=1.0).sqrt();
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            cfg.area.clamp(Point::new(anchor.x + r * theta.cos(), anchor.y + r * theta.sin()))
        }
    }
}

pub(crate) fn traffic_round<Pl>(ctx: &mut Ctx<Pl>) {
    // Alive sensors are the candidate sources under every pattern; the
    // roster filters into the context's reusable buffer (taken for the
    // duration because `ctx.push` below needs `&mut ctx`).
    let mut alive = std::mem::take(&mut ctx.alive_buf);
    alive.clear();
    alive.extend(ctx.sensors.iter().copied().filter(|id| !ctx.nodes[id.index()].faulty));
    let now = ctx.now;
    if ctx.cfg.traffic.pattern.is_matrix() {
        // Traffic matrix: every alive sensor sources. The per-source packet
        // count and gap derive from the aggregate offered rate *here*,
        // where the alive count is known (this driver runs centrally under
        // sharding), and ride in the events so shards never need it. No
        // RNG is consumed: destinations are per-packet hashes.
        let nsources = alive.len() as u64;
        let interval = ctx.cfg.traffic.round_interval;
        let (packets, gap_micros) = if ctx.cfg.traffic.offered_pps > 0.0 {
            let per_source = (ctx.cfg.traffic.offered_pps * interval.as_secs_f64()
                / (nsources.max(1)) as f64)
                .floor() as u64;
            (per_source, interval.as_micros() / per_source.max(1))
        } else {
            (ctx.cfg.packets_per_round(), ctx.cfg.packet_gap().as_micros())
        };
        if packets > 0 {
            for &src in &alive {
                ctx.push(
                    now,
                    EventKind::EmitPacket { node: src, remaining: packets - 1, gap_micros },
                );
            }
        }
    } else {
        // The paper trickle: draw the new source set among alive sensors
        // (this draw sequence predates the matrix patterns and must stay
        // byte-identical under them being off).
        let n = ctx.cfg.traffic.sources_per_round.min(alive.len());
        let sources: Vec<NodeId> = alive
            .choose_multiple(&mut ctx.rng, n)
            .copied()
            .collect();
        let packets = ctx.cfg.packets_per_round();
        let gap_micros = ctx.cfg.packet_gap().as_micros();
        for src in sources {
            if packets > 0 {
                ctx.push(
                    now,
                    EventKind::EmitPacket { node: src, remaining: packets - 1, gap_micros },
                );
            }
        }
    }
    let next = now + ctx.cfg.traffic.round_interval;
    if next <= ctx.end {
        ctx.push(next, EventKind::TrafficRound);
    }
    ctx.alive_buf = alive;
}

fn emit_packet<P: Protocol>(
    ctx: &mut Ctx<P::Payload>,
    protocol: &mut P,
    node: NodeId,
    remaining: u64,
    gap_micros: u64,
) {
    if !ctx.nodes[node.index()].faulty {
        // Matrix patterns assign each packet a destination sensor by pure
        // hash — engine- and thread-invariant, no RNG draw. A `None` under
        // a matrix pattern (a lone sensor has no one to send to) emits
        // nothing.
        let pattern = ctx.cfg.traffic.pattern;
        let dest = if pattern.is_matrix() {
            let round =
                ctx.now.as_micros() / ctx.cfg.traffic.round_interval.as_micros().max(1);
            crate::traffic::destination(
                pattern,
                ctx.cfg.seed,
                node,
                round,
                remaining,
                ctx.sensors.len(),
            )
        } else {
            None
        };
        if !pattern.is_matrix() || dest.is_some() {
            let id = ctx.alloc_data_id(node);
            let measured = ctx.now >= SimTime::ZERO + ctx.cfg.warmup;
            ctx.data.insert(
                id,
                DataRecord {
                    origin: node,
                    created: ctx.now,
                    size_bits: ctx.cfg.traffic.packet_bits,
                    delivered: None,
                    measured,
                    dest,
                },
            );
            if measured {
                ctx.metrics.offered_packets += 1;
            }
            ctx.record(|at| crate::trace::TraceEvent::PacketOrigin {
                at,
                packet: id,
                origin: node,
                measured,
            });
            if let Some(dest) = dest {
                ctx.record(|at| crate::trace::TraceEvent::PacketDest { at, packet: id, dest });
            }
            protocol.on_app_data(ctx, node, id);
        }
    }
    if remaining > 0 {
        let next = ctx.now + crate::time::SimDuration::from_micros(gap_micros);
        ctx.push(next, EventKind::EmitPacket { node, remaining: remaining - 1, gap_micros });
    }
}

/// The protocol-independent half of a fault rotation: redraws the faulty
/// set, flips node flags, records the trace event and schedules the next
/// rotation. Returns `(failed, recovered)` so callers (the serial loop
/// here, the sharded coordinator in `shard`) can run the protocol hook in
/// their own execution context.
pub(crate) fn rotate_faults_core<Pl>(
    ctx: &mut Ctx<Pl>,
    faulty_set: &mut Vec<NodeId>,
) -> (Vec<NodeId>, Vec<NodeId>) {
    let recovered: Vec<NodeId> = std::mem::take(faulty_set)
        .into_iter()
        // Battery death is permanent: depleted nodes never recover.
        .filter(|id| !ctx.nodes[id.index()].depleted)
        .collect();
    let count = ctx.cfg.faults.count.min(ctx.sensors.len());
    // Disjoint field borrows: the roster is read while only the RNG is
    // mutated, so no clone of the sensor list is needed.
    let failed: Vec<NodeId> = ctx
        .sensors
        .choose_multiple(&mut ctx.rng, count)
        .copied()
        .collect();
    flip_faults(&mut ctx.nodes, &failed, &recovered, ctx.now);
    *faulty_set = failed.clone();
    {
        let (failed, recovered) = (failed.clone(), recovered.clone());
        ctx.record(move |at| crate::trace::TraceEvent::FaultRotation { at, failed, recovered });
    }
    let next = ctx.now + ctx.cfg.faults.rotation;
    if next <= ctx.end {
        ctx.push(next, EventKind::FaultRotation);
    }
    (failed, recovered)
}

/// Applies one rotation to a node table — the master's, and under the
/// sharded engine every shard's replica of it: `recovered` come back, then
/// `failed` break down at `now` (one already down, a depleted battery,
/// keeps the time it first broke).
pub(crate) fn flip_faults(
    nodes: &mut [NodeState],
    failed: &[NodeId],
    recovered: &[NodeId],
    now: SimTime,
) {
    for &id in recovered {
        let node = &mut nodes[id.index()];
        node.faulty = false;
        node.fault_since_micros = None;
    }
    for &id in failed {
        let node = &mut nodes[id.index()];
        if !node.faulty {
            node.fault_since_micros = Some(now.as_micros());
        }
        node.faulty = true;
    }
}

pub(crate) fn mobility_tick<Pl>(ctx: &mut Ctx<Pl>) {
    random_waypoint_tick(ctx);
    let next = ctx.now + ctx.cfg.mobility.tick;
    if next <= ctx.end {
        ctx.push(next, EventKind::MobilityTick);
    }
}

fn random_waypoint_tick<Pl>(ctx: &mut Ctx<Pl>) {
    let dt = ctx.cfg.mobility.tick.as_secs_f64();
    let area = ctx.cfg.area;
    let (min_s, max_s) = (ctx.cfg.mobility.min_speed, ctx.cfg.mobility.max_speed);
    // Index loop instead of cloning the roster: `move_node` needs
    // `&mut ctx`, which an iterator borrow of `ctx.sensors` would block.
    for i in 0..ctx.sensors.len() {
        let id = ctx.sensors[i];
        // Random waypoint: walk toward the waypoint; on arrival pick a new
        // destination and speed.
        let need_new = {
            let node = &ctx.nodes[id.index()];
            node.position == node.waypoint || node.speed <= 0.0
        };
        if need_new {
            let wp = Point::new(
                ctx.rng.gen_range(0.0..=area.width),
                ctx.rng.gen_range(0.0..=area.height),
            );
            let speed = if max_s > min_s { ctx.rng.gen_range(min_s..=max_s) } else { max_s };
            let node = &mut ctx.nodes[id.index()];
            node.waypoint = wp;
            node.speed = speed;
        }
        let node = &ctx.nodes[id.index()];
        let step = node.speed * dt;
        let next = area.clamp(node.position.step_toward(&node.waypoint, step));
        ctx.move_node(id, next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{DataId, Message};
    use crate::time::SimDuration;
    use rand::SeedableRng;

    #[test]
    fn quincunx_truncation_keeps_the_center() {
        let mut cfg = SimConfig::smoke();
        cfg.placement = ActuatorPlacement::Quincunx;
        let center = Point::new(0.5 * cfg.area.width, 0.5 * cfg.area.height);
        for count in 1..=7 {
            cfg.actuators = count;
            let mut rng = rand::rngs::StdRng::seed_from_u64(1);
            let pts = actuator_positions(&cfg, &mut rng);
            assert_eq!(pts.len(), count);
            assert!(pts.contains(&center), "{count} actuators must include the center");
        }
    }

    /// Arms one timer at 1 s and one at 2 s on the first node, and counts
    /// the timers that fire.
    #[derive(Default)]
    struct TwoTimers {
        fired: Vec<u64>,
    }

    impl Protocol for TwoTimers {
        type Payload = ();

        fn name(&self) -> &'static str {
            "TwoTimers"
        }

        fn on_init(&mut self, ctx: &mut Ctx<()>) {
            ctx.set_timer(NodeId(0), SimDuration::from_secs(1), 1);
            ctx.set_timer(NodeId(0), SimDuration::from_secs(2), 2);
        }

        fn on_message(&mut self, _: &mut Ctx<()>, _: NodeId, _: Message<()>) {}

        fn on_timer(&mut self, _: &mut Ctx<()>, _: NodeId, tag: u64) {
            self.fired.push(tag);
        }

        fn on_app_data(&mut self, _: &mut Ctx<()>, _: NodeId, _: DataId) {}
    }

    #[test]
    fn construct_keeps_the_first_event_past_its_horizon() {
        let mut proto = TwoTimers::default();
        let mut ctx = construct(SimConfig::smoke(), &mut proto, SimDuration::from_millis(1_500));
        assert_eq!(proto.fired, [1]);
        assert_eq!(ctx.queue.next_at(), Some(SimTime::ZERO + SimDuration::from_secs(2)));
    }
}
