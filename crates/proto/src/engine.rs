//! The pure state-machine engine: explicit [`Input`]s in, buffered
//! [`Output`]s out, no I/O anywhere.
//!
//! [`EngineCore`] wraps a [`SansIo`] protocol and an [`IoCtx`] — a
//! [`ProtoCtx`] driver that answers topology queries from a frozen
//! [`WorldView`] snapshot and *buffers* every action the protocol takes.
//! A real shell (the `refer-node` UDP daemon) then executes the outputs:
//! `Send` becomes a datagram, `ArmTimer` a monotonic-clock deadline,
//! `Deliver`/`Trace` live JSONL trace records.
//!
//! The [`WorldView`] comes from replaying the simulator's deterministic
//! construction phase ([`wsan_sim::runner::construct`]): every daemon
//! process runs the identical seeded construction in-process and arrives
//! at the identical topology, rosters and embedding — which is how the
//! cluster shares the protocol core with the simulator without ever
//! serializing construction state onto the wire.

use crate::{ProtoCtx, SansIo};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Debug;
use wsan_sim::trace::TraceEvent;
use wsan_sim::{
    Ctx, DataId, DropReason, EnergyAccount, HopReason, Message, NodeId, NodeKind, Point,
    SimConfig, SimDuration, SimTime,
};

/// A frozen snapshot of the constructed world: the topology facts a
/// deployed node carries out of the deterministic construction replay.
#[derive(Debug, Clone)]
pub struct WorldView {
    cfg: SimConfig,
    kinds: Vec<NodeKind>,
    positions: Vec<Point>,
    ranges: Vec<f64>,
    batteries: Vec<f64>,
    sensors: Vec<NodeId>,
    actuators: Vec<NodeId>,
}

impl WorldView {
    /// Snapshots the world of a (typically just-constructed) simulator
    /// context.
    pub fn from_sim<P>(ctx: &Ctx<P>) -> Self {
        let n = ctx.node_count();
        let ids = || (0..n as u32).map(NodeId);
        WorldView {
            cfg: ctx.config().clone(),
            kinds: ids().map(|id| ctx.kind(id)).collect(),
            positions: ids().map(|id| ctx.position(id)).collect(),
            ranges: ids().map(|id| ctx.range(id)).collect(),
            batteries: ids().map(|id| ctx.battery(id)).collect(),
            sensors: ctx.sensor_ids().to_vec(),
            actuators: ctx.actuator_ids().to_vec(),
        }
    }

    /// The scenario configuration the snapshot was built under.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Number of nodes in the snapshot.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// The sensor ids.
    pub fn sensor_ids(&self) -> &[NodeId] {
        &self.sensors
    }

    /// The actuator ids.
    pub fn actuator_ids(&self) -> &[NodeId] {
        &self.actuators
    }
}

/// What the origin driver knows about an application packet it injected;
/// registered with the [`IoCtx`] before `on_app_data` runs so the
/// protocol's `data_*` queries resolve, exactly as the simulator's
/// origin-shard `DataRecord` does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketMeta {
    /// The originating node.
    pub origin: NodeId,
    /// Application payload size, bits.
    pub size_bits: u32,
    /// Workload-assigned destination, if the traffic pattern names one.
    pub dest: Option<NodeId>,
    /// When the packet was created.
    pub created: SimTime,
}

/// How many packets a driver remembers: a power of two, well above what
/// one node has in flight (a packet is looked up within a few hops of
/// being registered), small enough that 19 daemons' tables fit in cache.
const PACKET_WINDOW: usize = 1 << 10;

/// The packets a driver saw recently, by [`DataId`]: a direct-mapped
/// table of [`PACKET_WINDOW`] slots, allocated once. Registering a packet
/// overwrites whatever shared its slot, so memory does not grow with
/// packets seen — whoever sends them — and a forgotten (or never seen) id
/// answers `None`, which every caller already handles.
#[derive(Debug)]
struct PacketWindow {
    slots: Box<[Option<(DataId, PacketMeta)>]>,
}

impl PacketWindow {
    fn new() -> Self {
        PacketWindow { slots: vec![None; PACKET_WINDOW].into_boxed_slice() }
    }

    /// Ids are `origin << 32 | seq`: the low bits of the two halves folded
    /// together, so a window's worth of one origin's consecutive packets
    /// never share a slot, nor do different origins' same-numbered ones.
    fn slot(id: DataId) -> usize {
        (id.0 ^ (id.0 >> 32)) as usize & (PACKET_WINDOW - 1)
    }

    fn insert(&mut self, id: DataId, meta: PacketMeta) {
        self.slots[Self::slot(id)] = Some((id, meta));
    }

    fn get(&self, id: DataId) -> Option<&PacketMeta> {
        match &self.slots[Self::slot(id)] {
            Some((held, meta)) if *held == id => Some(meta),
            _ => None,
        }
    }
}

/// One event fed into the protocol core by a driver.
#[derive(Debug, Clone)]
pub enum Input<P> {
    /// A frame arrived for node `to` (a decoded datagram).
    Frame {
        /// Arrival time on the driver's clock.
        at: SimTime,
        /// The receiving node (owned by this driver).
        to: NodeId,
        /// The frame, exactly as [`wsan_sim::Protocol::on_message`] sees
        /// it.
        msg: Message<P>,
    },
    /// A previously armed timer fired.
    TimerFired {
        /// Fire time on the driver's clock.
        at: SimTime,
        /// The node the timer belongs to.
        node: NodeId,
        /// The tag passed to [`ProtoCtx::set_timer`].
        tag: u64,
    },
    /// The workload injected an application packet at `node`.
    AppData {
        /// Injection time on the driver's clock.
        at: SimTime,
        /// The source node (owned by this driver).
        node: NodeId,
        /// The packet id (globally unique; `refer-node` packs
        /// `origin << 32 | seq`, the sharded engine's scheme).
        packet: DataId,
        /// Payload size, bits.
        size_bits: u32,
        /// Workload-assigned destination, if any.
        dest: Option<NodeId>,
    },
}

impl<P> Input<P> {
    /// The driver timestamp carried by this input.
    pub fn at(&self) -> SimTime {
        match self {
            Input::Frame { at, .. }
            | Input::TimerFired { at, .. }
            | Input::AppData { at, .. } => *at,
        }
    }
}

/// One action the protocol core asks its driver to execute.
#[derive(Debug, Clone)]
pub enum Output<P> {
    /// Transmit a frame from `from` to `to` (one datagram; broadcasts are
    /// fanned out by the [`IoCtx`] into one `Send` per physical receiver).
    Send {
        /// Transmitting node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Frame size, bits.
        size_bits: u32,
        /// Billing ledger.
        account: EnergyAccount,
        /// Whether this came from a broadcast fan-out.
        broadcast: bool,
        /// The payload to put on the wire.
        payload: P,
    },
    /// Arm a timer: feed a [`Input::TimerFired`] with this tag back in
    /// after `delay`.
    ArmTimer {
        /// The node the timer belongs to.
        node: NodeId,
        /// Delay from the input that produced this output.
        delay: SimDuration,
        /// Opaque protocol tag.
        tag: u64,
    },
    /// The protocol reports `packet` delivered at `node`. The driver owns
    /// end-to-end delay accounting (it knows the packet's creation time).
    Deliver {
        /// The application packet.
        packet: DataId,
        /// The delivering node.
        node: NodeId,
        /// Protocol-counted end-to-end transmissions (0 = untracked).
        hops: u32,
    },
    /// A trace event for the driver's observability pipeline (same codec
    /// as simulator traces, so `PacketLedger`/`trace` ingest it
    /// unchanged).
    Trace(TraceEvent),
}

/// The buffered-output driver behind [`EngineCore`]: answers
/// [`ProtoCtx`] queries from a [`WorldView`] and pushes every protocol
/// action onto an output queue.
///
/// Failure-oracle queries answer "nothing is faulty": a real cluster
/// node has no oracle, and `refer-node` runs the Oracle fault model with
/// zero injected faults, where that answer is the truth. Congestion
/// queries answer "idle" — localhost UDP has no radio backlog to model.
#[derive(Debug)]
pub struct IoCtx<P> {
    world: WorldView,
    now: SimTime,
    rng: StdRng,
    data: PacketWindow,
    out: Vec<Output<P>>,
    scratch: Vec<NodeId>,
}

impl<P: Clone + Debug> IoCtx<P> {
    /// Creates a driver over `world`; protocol randomness is seeded from
    /// the scenario seed, like the simulator's run RNG.
    pub fn new(world: WorldView) -> Self {
        let seed = world.cfg.seed;
        IoCtx {
            world,
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
            data: PacketWindow::new(),
            out: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Registers origin-side packet knowledge before `on_app_data`.
    pub fn register_packet(&mut self, id: DataId, meta: PacketMeta) {
        self.data.insert(id, meta);
    }

    /// What was registered for `id`, if the driver still remembers it
    /// (it keeps a fixed window of recent packets) — the driver's one
    /// per-packet table, so a shell needs none of its own.
    pub fn packet_meta(&self, id: DataId) -> Option<&PacketMeta> {
        self.data.get(id)
    }

    /// Advances the driver clock (monotonic: earlier timestamps are
    /// clamped to `now`).
    pub fn advance_to(&mut self, at: SimTime) {
        if at > self.now {
            self.now = at;
        }
    }

    /// Drains the buffered outputs.
    pub fn take_outputs(&mut self) -> Vec<Output<P>> {
        std::mem::take(&mut self.out)
    }

    /// The frozen world snapshot.
    pub fn world(&self) -> &WorldView {
        &self.world
    }
}

impl<P: Clone + Debug> ProtoCtx<P> for IoCtx<P> {
    fn now(&self) -> SimTime {
        self.now
    }
    fn config(&self) -> &SimConfig {
        &self.world.cfg
    }
    fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
    fn node_count(&self) -> usize {
        self.world.kinds.len()
    }
    fn sensor_ids(&self) -> &[NodeId] {
        &self.world.sensors
    }
    fn actuator_ids(&self) -> &[NodeId] {
        &self.world.actuators
    }
    fn kind(&self, id: NodeId) -> NodeKind {
        self.world.kinds[id.index()]
    }
    fn position(&self, id: NodeId) -> Point {
        self.world.positions[id.index()]
    }
    fn range(&self, id: NodeId) -> f64 {
        self.world.ranges[id.index()]
    }
    fn battery(&self, id: NodeId) -> f64 {
        self.world.batteries[id.index()]
    }
    fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.position(a).distance(&self.position(b))
    }
    fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        wsan_sim::config::in_unit_disk(self.distance(a, b), self.range(a))
    }
    fn is_faulty(&self, _id: NodeId) -> bool {
        false
    }
    fn self_faulty(&self, _id: NodeId) -> bool {
        false
    }
    fn link_ok(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.in_range(a, b)
    }
    fn neighbors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.neighbors_into(id, &mut out);
        out
    }
    fn neighbors_into(&self, id: NodeId, buf: &mut Vec<NodeId>) {
        self.physical_neighbors_into(id, buf);
    }
    fn physical_neighbors_into(&self, id: NodeId, buf: &mut Vec<NodeId>) {
        buf.clear();
        let (my_pos, my_range) = (self.position(id), self.range(id));
        buf.extend(
            (0..self.world.kinds.len() as u32)
                .map(NodeId)
                .filter(|&other| {
                    other != id
                        && wsan_sim::config::in_unit_disk(my_pos.distance(&self.world.positions[other.index()]), my_range)
                }),
        );
    }
    fn queue_delay(&self, _id: NodeId) -> SimDuration {
        SimDuration::ZERO
    }
    fn is_congested(&self, _id: NodeId) -> bool {
        false
    }
    fn service_time(&self, size_bits: u32) -> SimDuration {
        SimDuration::from_secs_f64(f64::from(size_bits) / self.world.cfg.radio.bitrate_bps)
            + wsan_sim::config::MAC_OVERHEAD
    }
    fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        size_bits: u32,
        account: EnergyAccount,
        payload: P,
    ) -> bool {
        if !self.link_ok(from, to) {
            return false;
        }
        self.out.push(Output::Send { from, to, size_bits, account, broadcast: false, payload });
        true
    }
    fn send_acked(
        &mut self,
        from: NodeId,
        to: NodeId,
        size_bits: u32,
        account: EnergyAccount,
        payload: P,
    ) {
        // The UDP shell carries no link-layer ACK emulation yet: acked
        // sends are transmitted fire-and-forget and neither `on_ack` nor
        // `on_send_expired` ever fires. Under the Oracle fault model —
        // the only model `refer-node` clusters run — protocols use plain
        // `send` on the data path, so this is construction-replay-only
        // territory.
        let _ = self.send(from, to, size_bits, account, payload);
    }
    fn broadcast(
        &mut self,
        from: NodeId,
        size_bits: u32,
        account: EnergyAccount,
        payload: P,
    ) -> usize {
        let mut receivers = std::mem::take(&mut self.scratch);
        self.physical_neighbors_into(from, &mut receivers);
        for &to in &receivers {
            self.out.push(Output::Send {
                from,
                to,
                size_bits,
                account,
                broadcast: true,
                payload: payload.clone(),
            });
        }
        let n = receivers.len();
        receivers.clear();
        self.scratch = receivers;
        n
    }
    fn set_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) {
        self.out.push(Output::ArmTimer { node, delay, tag });
    }
    fn trace_hop(&mut self, packet: DataId, from: NodeId, to: NodeId, reason: HopReason) {
        let at = self.now;
        self.out.push(Output::Trace(TraceEvent::Hop {
            at,
            packet,
            from,
            to,
            reason,
            queue_s: 0.0,
        }));
    }
    fn deliver_data_with_hops(&mut self, data: DataId, at: NodeId, hops: u32) {
        self.out.push(Output::Deliver { packet: data, node: at, hops });
    }
    fn drop_data_reason(&mut self, data: DataId, reason: DropReason) {
        let at = self.now;
        self.out.push(Output::Trace(TraceEvent::Dropped { at, packet: data, reason }));
    }
    fn record_suspicion(&mut self, node: NodeId) {
        let at = self.now;
        self.out.push(Output::Trace(TraceEvent::Suspected { at, node }));
    }
    fn record_eviction(&mut self, _node: NodeId) {}
    fn record_handover(&mut self) {}
    fn data_origin(&self, data: DataId) -> Option<NodeId> {
        self.data.get(data).map(|m| m.origin)
    }
    fn data_size_bits(&self, data: DataId) -> Option<u32> {
        self.data.get(data).map(|m| m.size_bits)
    }
    fn data_dest(&self, data: DataId) -> Option<NodeId> {
        self.data.get(data).and_then(|m| m.dest)
    }
    fn tracing_active(&self) -> bool {
        true
    }
}

/// A [`SansIo`] protocol plus its buffered-output driver: the unit a real
/// I/O shell embeds. `handle` is the entire API — one input in, the
/// resulting outputs out, strictly run-to-completion.
pub struct EngineCore<T: SansIo> {
    proto: T,
    ctx: IoCtx<T::Payload>,
}

impl<T: SansIo> EngineCore<T> {
    /// Wraps an already-initialized protocol (typically carried out of
    /// [`wsan_sim::runner::construct`]) and a frozen world snapshot.
    pub fn new(proto: T, world: WorldView) -> Self {
        EngineCore { proto, ctx: IoCtx::new(world) }
    }

    /// Applies one input and returns everything the protocol asked for in
    /// response, in the order it asked.
    pub fn handle(&mut self, input: Input<T::Payload>) -> impl Iterator<Item = Output<T::Payload>> {
        self.ctx.advance_to(input.at());
        match input {
            Input::Frame { to, msg, .. } => self.proto.on_message(&mut self.ctx, to, msg),
            Input::TimerFired { node, tag, .. } => self.proto.on_timer(&mut self.ctx, node, tag),
            Input::AppData { at, node, packet, size_bits, dest } => {
                self.ctx.register_packet(
                    packet,
                    PacketMeta { origin: node, size_bits, dest, created: at },
                );
                self.proto.on_app_data(&mut self.ctx, node, packet);
            }
        }
        self.ctx.take_outputs().into_iter()
    }

    /// Registers origin-side knowledge of a packet that was created by
    /// *another* driver (it arrived over the wire rather than via
    /// [`Input::AppData`]), so the protocol's `data_*` queries resolve at
    /// relay and delivery nodes too. `Input::AppData` registers its own
    /// packet; this is for every other process in a cluster.
    pub fn register_packet(&mut self, id: DataId, meta: PacketMeta) {
        self.ctx.register_packet(id, meta);
    }

    /// The wrapped protocol (stats inspection).
    pub fn protocol(&self) -> &T {
        &self.proto
    }

    /// The driver context (world + clock inspection).
    pub fn ctx(&self) -> &IoCtx<T::Payload> {
        &self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(n: u64) -> PacketMeta {
        PacketMeta {
            origin: NodeId((n >> 32) as u32),
            size_bits: 8_000,
            dest: None,
            created: SimTime::from_micros(n),
        }
    }

    /// A million distinct ids, as 19 origins would mint them, leave the
    /// table at the size it was born with; each reads back until a later
    /// id takes its slot, and an evicted id that is registered again
    /// reads back again.
    #[test]
    fn the_packet_window_does_not_grow_with_packets_seen() {
        let mut window = PacketWindow::new();
        let storage = window.slots.as_ptr();
        let id = |n: u64| DataId(((n % 19) << 32) | (n / 19));
        for n in 0..1_000_000 {
            window.insert(id(n), meta(n));
            assert_eq!(window.get(id(n)), Some(&meta(n)));
        }
        assert_eq!(window.slots.len(), PACKET_WINDOW);
        assert_eq!(window.slots.as_ptr(), storage, "allocated once");
        assert_eq!(window.get(id(0)), None, "long evicted");
        assert_eq!(window.get(DataId(u64::MAX)), None, "never seen");
        window.insert(id(0), meta(0));
        assert_eq!(window.get(id(0)), Some(&meta(0)));
    }

    /// What a node actually has in flight — a run of one origin's packets,
    /// or several origins' packets of the same number — evicts nothing.
    #[test]
    fn packets_in_flight_together_share_no_slot() {
        let distinct = |ids: &mut dyn Iterator<Item = u64>| {
            let slots: std::collections::BTreeSet<usize> =
                ids.map(|id| PacketWindow::slot(DataId(id))).collect();
            slots.len()
        };
        let window = PACKET_WINDOW as u64;
        for origin in [0, 7, 18] {
            let mut run = (5_000..5_000 + window).map(|seq| (origin << 32) | seq);
            assert_eq!(distinct(&mut run), PACKET_WINDOW);
        }
        assert_eq!(distinct(&mut (0..window).map(|origin| (origin << 32) | 77)), PACKET_WINDOW);
    }
}
