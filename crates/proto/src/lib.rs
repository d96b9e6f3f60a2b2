//! # refer-proto — the sans-io protocol layer of the REFER reproduction
//!
//! The protocol implementation written against this crate (REFER only) is
//! a pure state machine: it reacts to frames, timers and application
//! packets, and it acts only through a narrow driver surface — send a
//! frame, arm a timer, report a delivery. This crate names that surface so
//! the *same* protocol code can run under two very different drivers with
//! zero duplicated logic:
//!
//! * the discrete-event simulator ([`wsan_sim::Ctx`] implements
//!   [`ProtoCtx`] directly, so simulator behavior — and its traces — are
//!   bit-identical to the pre-split code);
//! * a real network daemon (`refer-node`), whose [`EngineCore`] feeds
//!   decoded datagrams and monotonic-clock timers in as [`Input`]s and
//!   hands buffered [`Output`]s back to an async UDP shell.
//!
//! Protocols implement [`SansIo`] (the generic-driver twin of
//! [`wsan_sim::Protocol`]); drivers implement [`ProtoCtx`]. The crate
//! also hosts [`FailureKnowledge`], the one oracle-or-local failure policy
//! every protocol asks "is this peer up?", and the [`FailureView`] its
//! local variant holds — plain data, no I/O, equally at home in either
//! driver.
//!
//! Determinism rules (the contract both drivers honor):
//!
//! 1. all protocol randomness comes from [`ProtoCtx::rng`];
//! 2. time only moves forward, and only the driver moves it;
//! 3. a hook invocation sees the world as of its input's timestamp and
//!    must finish before the next input is applied (run-to-completion).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod failure;

pub use engine::{EngineCore, Input, IoCtx, Output, PacketMeta, WorldView};
pub use failure::{FailureKnowledge, FailureView};

use rand::rngs::StdRng;
use std::fmt::Debug;
use wsan_sim::{
    Ctx, DataId, DropReason, EnergyAccount, HopReason, Message, NodeId, NodeKind, Point,
    SimConfig, SimDuration, SimTime,
};

/// The driver contract: everything a protocol may ask of, or do to, the
/// world it runs in.
///
/// [`wsan_sim::Ctx`] implements this by forwarding to its inherent
/// methods, so generic protocol code monomorphizes to exactly the code it
/// compiled to before the sans-io split. [`IoCtx`] implements it by
/// buffering [`Output`]s for a real I/O shell to execute.
///
/// The oracle-flavored queries ([`is_faulty`](ProtoCtx::is_faulty),
/// [`link_ok`](ProtoCtx::link_ok), [`neighbors`](ProtoCtx::neighbors))
/// keep their simulator semantics: perfect knowledge, billed as oracle
/// consultations by the sim driver. A deployed driver answers them from
/// the deterministic construction snapshot — honest only while nothing
/// fails, which is why `refer-node` clusters run the Oracle fault model
/// with zero injected faults.
pub trait ProtoCtx<P: Clone + Debug> {
    // ----- clock and configuration ------------------------------------

    /// Current protocol time.
    fn now(&self) -> SimTime;
    /// The scenario configuration (read-only).
    fn config(&self) -> &SimConfig;
    /// The deterministic protocol RNG. Protocols must draw all randomness
    /// here.
    fn rng(&mut self) -> &mut StdRng;

    // ----- topology queries --------------------------------------------

    /// Number of nodes (sensors + actuators).
    fn node_count(&self) -> usize;
    /// The sensor ids.
    fn sensor_ids(&self) -> &[NodeId];
    /// The actuator ids.
    fn actuator_ids(&self) -> &[NodeId];
    /// Device class of `id`.
    fn kind(&self, id: NodeId) -> NodeKind;
    /// Current position of `id`.
    fn position(&self, id: NodeId) -> Point;
    /// Transmission range of `id`, meters.
    fn range(&self, id: NodeId) -> f64;
    /// Remaining battery of `id`, Joules.
    fn battery(&self, id: NodeId) -> f64;
    /// Distance between two nodes, meters.
    fn distance(&self, a: NodeId, b: NodeId) -> f64;
    /// Whether `b` is inside `a`'s transmission range.
    fn in_range(&self, a: NodeId, b: NodeId) -> bool;
    /// Whether `id` is currently broken down (fault oracle; see
    /// [`wsan_sim::Ctx::is_faulty`]).
    fn is_faulty(&self, id: NodeId) -> bool;
    /// Whether `id` itself is currently broken down (self-knowledge).
    fn self_faulty(&self, id: NodeId) -> bool;
    /// Always `false`: no fault model compromises a node. It stays only
    /// because the benchmark's `SpanCtx` (`benchmark/src/probe.rs`)
    /// overrides it; once that override goes, so does this method.
    fn self_compromised(&self, _id: NodeId) -> bool {
        false
    }
    /// Whether a frame from `a` would currently reach `b` (link oracle).
    fn link_ok(&self, a: NodeId, b: NodeId) -> bool;
    /// Alive nodes currently within `id`'s range (oracle).
    fn neighbors(&self, id: NodeId) -> Vec<NodeId>;
    /// [`neighbors`](ProtoCtx::neighbors) into a caller-owned buffer,
    /// cleared and refilled, so a hot path can reuse one allocation across
    /// queries. The default assigns `neighbors`' answer; a driver that can
    /// fill the buffer in place overrides it (the simulator's still counts
    /// one oracle consultation).
    fn neighbors_into(&self, id: NodeId, buf: &mut Vec<NodeId>) {
        *buf = self.neighbors(id);
    }
    /// The nodes a broadcast from `id` physically reaches right now, into
    /// a caller-owned buffer (cleared and refilled in ascending id order).
    fn physical_neighbors_into(&self, id: NodeId, buf: &mut Vec<NodeId>);
    /// How long `id`'s radio queue currently is.
    fn queue_delay(&self, id: NodeId) -> SimDuration;
    /// Whether `id` counts as congested (backlog over a tenth of the QoS
    /// deadline).
    fn is_congested(&self, id: NodeId) -> bool;
    /// Per-frame service time at the configured bitrate + MAC overhead.
    fn service_time(&self, size_bits: u32) -> SimDuration;

    // ----- acting -------------------------------------------------------

    /// Sends a unicast frame; returns `false` when the MAC reports the
    /// link down (see [`wsan_sim::Ctx::send`]).
    fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        size_bits: u32,
        account: EnergyAccount,
        payload: P,
    ) -> bool;
    /// Sends a unicast frame with link-layer acknowledgment; the outcome
    /// arrives asynchronously via `on_ack` / `on_send_expired`.
    fn send_acked(
        &mut self,
        from: NodeId,
        to: NodeId,
        size_bits: u32,
        account: EnergyAccount,
        payload: P,
    );
    /// Broadcasts a frame to every alive node in range; returns the
    /// receiver count.
    fn broadcast(&mut self, from: NodeId, size_bits: u32, account: EnergyAccount, payload: P)
        -> usize;
    /// Schedules a protocol timer on `node` after `delay` with `tag`.
    fn set_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64);

    // ----- application data ---------------------------------------------

    /// Records one forwarding decision for `packet` (free when tracing is
    /// off).
    fn trace_hop(&mut self, packet: DataId, from: NodeId, to: NodeId, reason: HopReason);
    /// Records that `data` reached its destination.
    fn deliver_data(&mut self, data: DataId, at: NodeId) {
        self.deliver_data_with_hops(data, at, 0);
    }
    /// [`deliver_data`](ProtoCtx::deliver_data) with the protocol's
    /// end-to-end transmission count.
    fn deliver_data_with_hops(&mut self, data: DataId, at: NodeId, hops: u32);
    /// Records that the protocol gave up on `data`.
    fn drop_data(&mut self, data: DataId) {
        self.drop_data_reason(data, DropReason::Other);
    }
    /// [`drop_data`](ProtoCtx::drop_data) with a reason bucket.
    fn drop_data_reason(&mut self, data: DataId, reason: DropReason);
    /// Records a fresh failure suspicion against `node` (graded against
    /// ground truth by the sim driver; a trace event under both drivers).
    fn record_suspicion(&mut self, node: NodeId);
    /// Records a membership eviction of `node`.
    fn record_eviction(&mut self, node: NodeId);
    /// Records one Kautz-ID handover.
    fn record_handover(&mut self);
    /// Always `None`: no fault model slanders a node. It stays only
    /// because the benchmark's `SpanCtx` (`benchmark/src/probe.rs`)
    /// overrides it; once that override goes, so does this method.
    fn byz_slander(&mut self, _accuser: NodeId, _candidates: &[NodeId]) -> Option<NodeId> {
        None
    }
    /// The origin node of an application packet (if locally known).
    fn data_origin(&self, data: DataId) -> Option<NodeId>;
    /// The application payload size of a packet, bits (if locally known).
    fn data_size_bits(&self, data: DataId) -> Option<u32>;
    /// The workload-assigned destination of `data` (if any, and locally
    /// known).
    fn data_dest(&self, data: DataId) -> Option<NodeId>;
    /// Whether any trace consumer is attached (protocols may skip building
    /// expensive event payloads when false).
    fn tracing_active(&self) -> bool;
}

/// The simulator driver: [`wsan_sim::Ctx`] *is* a [`ProtoCtx`]. Every
/// method forwards to the identically-named inherent method, so generic
/// protocol code compiled against this impl is the code that ran before
/// the sans-io split — which is what keeps pre/post-refactor traces
/// byte-identical.
impl<P: Clone + Debug> ProtoCtx<P> for Ctx<P> {
    #[inline]
    fn now(&self) -> SimTime {
        Ctx::now(self)
    }
    #[inline]
    fn config(&self) -> &SimConfig {
        Ctx::config(self)
    }
    #[inline]
    fn rng(&mut self) -> &mut StdRng {
        Ctx::rng(self)
    }
    #[inline]
    fn node_count(&self) -> usize {
        Ctx::node_count(self)
    }
    #[inline]
    fn sensor_ids(&self) -> &[NodeId] {
        Ctx::sensor_ids(self)
    }
    #[inline]
    fn actuator_ids(&self) -> &[NodeId] {
        Ctx::actuator_ids(self)
    }
    #[inline]
    fn kind(&self, id: NodeId) -> NodeKind {
        Ctx::kind(self, id)
    }
    #[inline]
    fn position(&self, id: NodeId) -> Point {
        Ctx::position(self, id)
    }
    #[inline]
    fn range(&self, id: NodeId) -> f64 {
        Ctx::range(self, id)
    }
    #[inline]
    fn battery(&self, id: NodeId) -> f64 {
        Ctx::battery(self, id)
    }
    #[inline]
    fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        Ctx::distance(self, a, b)
    }
    #[inline]
    fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        Ctx::in_range(self, a, b)
    }
    #[inline]
    fn is_faulty(&self, id: NodeId) -> bool {
        Ctx::is_faulty(self, id)
    }
    #[inline]
    fn self_faulty(&self, id: NodeId) -> bool {
        Ctx::self_faulty(self, id)
    }
    #[inline]
    fn link_ok(&self, a: NodeId, b: NodeId) -> bool {
        Ctx::link_ok(self, a, b)
    }
    #[inline]
    fn neighbors(&self, id: NodeId) -> Vec<NodeId> {
        Ctx::neighbors(self, id)
    }
    #[inline]
    fn neighbors_into(&self, id: NodeId, buf: &mut Vec<NodeId>) {
        Ctx::neighbors_into(self, id, buf)
    }
    #[inline]
    fn physical_neighbors_into(&self, id: NodeId, buf: &mut Vec<NodeId>) {
        Ctx::physical_neighbors_into(self, id, buf)
    }
    #[inline]
    fn queue_delay(&self, id: NodeId) -> SimDuration {
        Ctx::queue_delay(self, id)
    }
    #[inline]
    fn is_congested(&self, id: NodeId) -> bool {
        Ctx::is_congested(self, id)
    }
    #[inline]
    fn service_time(&self, size_bits: u32) -> SimDuration {
        Ctx::service_time(self, size_bits)
    }
    #[inline]
    fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        size_bits: u32,
        account: EnergyAccount,
        payload: P,
    ) -> bool {
        Ctx::send(self, from, to, size_bits, account, payload)
    }
    #[inline]
    fn send_acked(
        &mut self,
        from: NodeId,
        to: NodeId,
        size_bits: u32,
        account: EnergyAccount,
        payload: P,
    ) {
        Ctx::send_acked(self, from, to, size_bits, account, payload)
    }
    #[inline]
    fn broadcast(
        &mut self,
        from: NodeId,
        size_bits: u32,
        account: EnergyAccount,
        payload: P,
    ) -> usize {
        Ctx::broadcast(self, from, size_bits, account, payload)
    }
    #[inline]
    fn set_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) {
        Ctx::set_timer(self, node, delay, tag)
    }
    #[inline]
    fn trace_hop(&mut self, packet: DataId, from: NodeId, to: NodeId, reason: HopReason) {
        Ctx::trace_hop(self, packet, from, to, reason)
    }
    #[inline]
    fn deliver_data_with_hops(&mut self, data: DataId, at: NodeId, hops: u32) {
        Ctx::deliver_data_with_hops(self, data, at, hops)
    }
    #[inline]
    fn drop_data_reason(&mut self, data: DataId, reason: DropReason) {
        Ctx::drop_data_reason(self, data, reason)
    }
    #[inline]
    fn record_suspicion(&mut self, node: NodeId) {
        Ctx::record_suspicion(self, node)
    }
    #[inline]
    fn record_eviction(&mut self, node: NodeId) {
        Ctx::record_eviction(self, node)
    }
    #[inline]
    fn record_handover(&mut self) {
        Ctx::record_handover(self)
    }
    #[inline]
    fn data_origin(&self, data: DataId) -> Option<NodeId> {
        Ctx::data_origin(self, data)
    }
    #[inline]
    fn data_size_bits(&self, data: DataId) -> Option<u32> {
        Ctx::data_size_bits(self, data)
    }
    #[inline]
    fn data_dest(&self, data: DataId) -> Option<NodeId> {
        Ctx::data_dest(self, data)
    }
    #[inline]
    fn tracing_active(&self) -> bool {
        Ctx::tracing_active(self)
    }
}

/// A protocol as a pure state machine: [`wsan_sim::Protocol`] with the
/// driver abstracted behind [`ProtoCtx`].
///
/// Implementors write each hook once, generically; a thin
/// `impl wsan_sim::Protocol` shim (one forwarding line per hook — the
/// orphan rule forbids a blanket impl of the foreign trait) plugs the
/// same code into the simulator, and [`EngineCore`] plugs it into real
/// I/O drivers.
pub trait SansIo {
    /// The wire payload this protocol speaks.
    type Payload: Clone + Debug;

    /// Human-readable system name.
    fn name(&self) -> &'static str;

    /// One-time setup before any traffic.
    fn on_init<C: ProtoCtx<Self::Payload>>(&mut self, ctx: &mut C);

    /// A frame arrived at node `at`.
    fn on_message<C: ProtoCtx<Self::Payload>>(
        &mut self,
        ctx: &mut C,
        at: NodeId,
        msg: Message<Self::Payload>,
    );

    /// A protocol timer fired on `at`.
    fn on_timer<C: ProtoCtx<Self::Payload>>(&mut self, ctx: &mut C, at: NodeId, tag: u64);

    /// Application data `data` was produced at `src`.
    fn on_app_data<C: ProtoCtx<Self::Payload>>(&mut self, ctx: &mut C, src: NodeId, data: DataId);

    /// A link-layer ACK from `peer` reached `at`.
    fn on_ack<C: ProtoCtx<Self::Payload>>(&mut self, ctx: &mut C, at: NodeId, peer: NodeId) {
        let _ = (ctx, at, peer);
    }

    /// An acknowledged frame to `peer` exhausted its retries; the payload
    /// comes back to the protocol.
    fn on_send_expired<C: ProtoCtx<Self::Payload>>(
        &mut self,
        ctx: &mut C,
        at: NodeId,
        peer: NodeId,
        payload: Self::Payload,
        attempts: u32,
    ) {
        let _ = (ctx, at, peer, payload, attempts);
    }

    /// The driver's faulty set rotated (simulator only).
    fn on_fault_rotation<C: ProtoCtx<Self::Payload>>(
        &mut self,
        ctx: &mut C,
        failed: &[NodeId],
        recovered: &[NodeId],
    ) {
        let _ = (ctx, failed, recovered);
    }
}
