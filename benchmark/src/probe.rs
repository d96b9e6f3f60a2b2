//! Pass-through wrappers that put spans around a protocol's hooks and
//! around the driver calls it makes, without touching either.
//!
//! * [`Probe<P>`] wraps a protocol. As a [`Protocol`] it times each hook
//!   (any simulator protocol, sharded ones included). As a [`SansIo`] it
//!   also hands the inner protocol a [`SpanCtx`] in place of the driver,
//!   so every `send`/`broadcast`/`set_timer`/neighbor call is a child
//!   span of the hook that made it.
//! * [`SimShim<T>`] plugs a [`SansIo`] protocol into the simulator, the
//!   way each protocol's own forwarding `impl Protocol` does; the
//!   simulator's traced REFER run is `SimShim(Probe::new(refer))`.
//!
//! Both forward every argument and result unchanged and draw no
//! randomness, so a probed run's `RunSummary` and trace are identical to
//! a bare run's — which the benchmark checks on every run it makes.

use crate::spans::{count, span, Counter, Span};
use rand::rngs::StdRng;
use refer_proto::{ProtoCtx, SansIo};
use std::fmt::Debug;
use std::marker::PhantomData;
use wsan_sim::{
    Ctx, DataId, DropReason, EnergyAccount, HopReason, Message, NodeId, NodeKind, Point, Protocol,
    ShardableProtocol, SimConfig, SimDuration, SimTime,
};

/// A protocol with spans around its hooks.
#[derive(Debug, Clone)]
pub struct Probe<P> {
    inner: P,
    /// Start of the measured window: `on_app_data` calls from here on are
    /// the run's offered packets.
    measured_from: SimTime,
}

impl<P> Probe<P> {
    pub fn new(inner: P, measured_from: SimTime) -> Self {
        Probe {
            inner,
            measured_from,
        }
    }

    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn count_offered(&self, now: SimTime) {
        if now >= self.measured_from {
            count(Counter::Offered, 1);
        }
    }
}

impl<P: Protocol> Protocol for Probe<P> {
    type Payload = P::Payload;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_init(&mut self, ctx: &mut Ctx<P::Payload>) {
        self.inner.on_init(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<P::Payload>, at: NodeId, msg: Message<P::Payload>) {
        let _span = span(Span::OnMessage);
        self.inner.on_message(ctx, at, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<P::Payload>, at: NodeId, tag: u64) {
        let _span = span(Span::OnTimer);
        self.inner.on_timer(ctx, at, tag);
    }

    fn on_app_data(&mut self, ctx: &mut Ctx<P::Payload>, src: NodeId, data: DataId) {
        self.count_offered(ctx.now());
        let _span = span(Span::OnAppData);
        self.inner.on_app_data(ctx, src, data);
    }

    fn on_ack(&mut self, ctx: &mut Ctx<P::Payload>, at: NodeId, peer: NodeId) {
        let _span = span(Span::OnAck);
        self.inner.on_ack(ctx, at, peer);
    }

    fn on_send_expired(
        &mut self,
        ctx: &mut Ctx<P::Payload>,
        at: NodeId,
        peer: NodeId,
        payload: P::Payload,
        attempts: u32,
    ) {
        let _span = span(Span::OnSendExpired);
        self.inner.on_send_expired(ctx, at, peer, payload, attempts);
    }

    fn on_fault_rotation(
        &mut self,
        ctx: &mut Ctx<P::Payload>,
        failed: &[NodeId],
        recovered: &[NodeId],
    ) {
        self.inner.on_fault_rotation(ctx, failed, recovered);
    }
}

// The engine clones the probe once per shard; each clone records on the
// thread that runs it, so the wrapper adds no shared state.
impl<P: ShardableProtocol> ShardableProtocol for Probe<P> where P::Payload: Clone + Send {}

impl<P: SansIo> SansIo for Probe<P> {
    type Payload = P::Payload;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_init<C: ProtoCtx<P::Payload>>(&mut self, ctx: &mut C) {
        self.inner.on_init(ctx);
    }

    fn on_message<C: ProtoCtx<P::Payload>>(
        &mut self,
        ctx: &mut C,
        at: NodeId,
        msg: Message<P::Payload>,
    ) {
        let _span = span(Span::OnMessage);
        self.inner.on_message(&mut SpanCtx::new(ctx), at, msg);
    }

    fn on_timer<C: ProtoCtx<P::Payload>>(&mut self, ctx: &mut C, at: NodeId, tag: u64) {
        let _span = span(Span::OnTimer);
        self.inner.on_timer(&mut SpanCtx::new(ctx), at, tag);
    }

    fn on_app_data<C: ProtoCtx<P::Payload>>(&mut self, ctx: &mut C, src: NodeId, data: DataId) {
        self.count_offered(ctx.now());
        let _span = span(Span::OnAppData);
        self.inner.on_app_data(&mut SpanCtx::new(ctx), src, data);
    }

    fn on_ack<C: ProtoCtx<P::Payload>>(&mut self, ctx: &mut C, at: NodeId, peer: NodeId) {
        let _span = span(Span::OnAck);
        self.inner.on_ack(&mut SpanCtx::new(ctx), at, peer);
    }

    fn on_send_expired<C: ProtoCtx<P::Payload>>(
        &mut self,
        ctx: &mut C,
        at: NodeId,
        peer: NodeId,
        payload: P::Payload,
        attempts: u32,
    ) {
        let _span = span(Span::OnSendExpired);
        self.inner
            .on_send_expired(&mut SpanCtx::new(ctx), at, peer, payload, attempts);
    }

    fn on_fault_rotation<C: ProtoCtx<P::Payload>>(
        &mut self,
        ctx: &mut C,
        failed: &[NodeId],
        recovered: &[NodeId],
    ) {
        self.inner.on_fault_rotation(ctx, failed, recovered);
    }
}

/// Runs a [`SansIo`] protocol under the simulator: one forwarding line
/// per hook, like the shim every protocol crate carries for itself.
#[derive(Debug, Clone)]
pub struct SimShim<T>(pub T);

impl<T: SansIo> Protocol for SimShim<T> {
    type Payload = T::Payload;

    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn on_init(&mut self, ctx: &mut Ctx<T::Payload>) {
        self.0.on_init(ctx);
    }
    fn on_message(&mut self, ctx: &mut Ctx<T::Payload>, at: NodeId, msg: Message<T::Payload>) {
        self.0.on_message(ctx, at, msg);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<T::Payload>, at: NodeId, tag: u64) {
        self.0.on_timer(ctx, at, tag);
    }
    fn on_app_data(&mut self, ctx: &mut Ctx<T::Payload>, src: NodeId, data: DataId) {
        self.0.on_app_data(ctx, src, data);
    }
    fn on_ack(&mut self, ctx: &mut Ctx<T::Payload>, at: NodeId, peer: NodeId) {
        self.0.on_ack(ctx, at, peer);
    }
    fn on_send_expired(
        &mut self,
        ctx: &mut Ctx<T::Payload>,
        at: NodeId,
        peer: NodeId,
        payload: T::Payload,
        attempts: u32,
    ) {
        self.0.on_send_expired(ctx, at, peer, payload, attempts);
    }
    fn on_fault_rotation(
        &mut self,
        ctx: &mut Ctx<T::Payload>,
        failed: &[NodeId],
        recovered: &[NodeId],
    ) {
        self.0.on_fault_rotation(ctx, failed, recovered);
    }
}

/// A driver with spans around the calls that do work — `send`,
/// `send_acked`, `broadcast`, `set_timer` and the neighbor queries — and
/// a count of oracle consultations. Every other method forwards as is.
pub struct SpanCtx<'a, P, C> {
    inner: &'a mut C,
    payload: PhantomData<P>,
}

impl<'a, P, C> SpanCtx<'a, P, C> {
    pub fn new(inner: &'a mut C) -> Self {
        SpanCtx {
            inner,
            payload: PhantomData,
        }
    }
}

impl<P: Clone + Debug, C: ProtoCtx<P>> ProtoCtx<P> for SpanCtx<'_, P, C> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn config(&self) -> &SimConfig {
        self.inner.config()
    }
    fn rng(&mut self) -> &mut StdRng {
        self.inner.rng()
    }
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
    fn sensor_ids(&self) -> &[NodeId] {
        self.inner.sensor_ids()
    }
    fn actuator_ids(&self) -> &[NodeId] {
        self.inner.actuator_ids()
    }
    fn kind(&self, id: NodeId) -> NodeKind {
        self.inner.kind(id)
    }
    fn position(&self, id: NodeId) -> Point {
        self.inner.position(id)
    }
    fn range(&self, id: NodeId) -> f64 {
        self.inner.range(id)
    }
    fn battery(&self, id: NodeId) -> f64 {
        self.inner.battery(id)
    }
    fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.inner.distance(a, b)
    }
    fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        self.inner.in_range(a, b)
    }
    fn is_faulty(&self, id: NodeId) -> bool {
        count(Counter::OracleQueries, 1);
        self.inner.is_faulty(id)
    }
    fn self_faulty(&self, id: NodeId) -> bool {
        self.inner.self_faulty(id)
    }
    fn self_compromised(&self, id: NodeId) -> bool {
        self.inner.self_compromised(id)
    }
    fn link_ok(&self, a: NodeId, b: NodeId) -> bool {
        count(Counter::OracleQueries, 1);
        self.inner.link_ok(a, b)
    }
    fn neighbors(&self, id: NodeId) -> Vec<NodeId> {
        let _span = span(Span::CtxNeighbors);
        self.inner.neighbors(id)
    }
    fn physical_neighbors_into(&self, id: NodeId, buf: &mut Vec<NodeId>) {
        let _span = span(Span::CtxNeighbors);
        self.inner.physical_neighbors_into(id, buf);
    }
    fn queue_delay(&self, id: NodeId) -> SimDuration {
        self.inner.queue_delay(id)
    }
    fn is_congested(&self, id: NodeId) -> bool {
        self.inner.is_congested(id)
    }
    fn service_time(&self, size_bits: u32) -> SimDuration {
        self.inner.service_time(size_bits)
    }
    fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        size_bits: u32,
        account: EnergyAccount,
        payload: P,
    ) -> bool {
        let _span = span(Span::CtxSend);
        self.inner.send(from, to, size_bits, account, payload)
    }
    fn send_acked(
        &mut self,
        from: NodeId,
        to: NodeId,
        size_bits: u32,
        account: EnergyAccount,
        payload: P,
    ) {
        let _span = span(Span::CtxSendAcked);
        self.inner.send_acked(from, to, size_bits, account, payload);
    }
    fn broadcast(
        &mut self,
        from: NodeId,
        size_bits: u32,
        account: EnergyAccount,
        payload: P,
    ) -> usize {
        let _span = span(Span::CtxBroadcast);
        let receivers = self.inner.broadcast(from, size_bits, account, payload);
        count(Counter::BroadcastReceivers, receivers as u64);
        receivers
    }
    fn set_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) {
        let _span = span(Span::CtxSetTimer);
        self.inner.set_timer(node, delay, tag);
    }
    fn trace_hop(&mut self, packet: DataId, from: NodeId, to: NodeId, reason: HopReason) {
        self.inner.trace_hop(packet, from, to, reason);
    }
    // The two provided methods are forwarded too, not re-derived, so a
    // driver that overrides them keeps its own behaviour under the probe.
    fn deliver_data(&mut self, data: DataId, at: NodeId) {
        self.inner.deliver_data(data, at);
    }
    fn deliver_data_with_hops(&mut self, data: DataId, at: NodeId, hops: u32) {
        self.inner.deliver_data_with_hops(data, at, hops);
    }
    fn drop_data(&mut self, data: DataId) {
        self.inner.drop_data(data);
    }
    fn drop_data_reason(&mut self, data: DataId, reason: DropReason) {
        self.inner.drop_data_reason(data, reason);
    }
    fn record_suspicion(&mut self, node: NodeId) {
        self.inner.record_suspicion(node);
    }
    fn record_eviction(&mut self, node: NodeId) {
        self.inner.record_eviction(node);
    }
    fn record_handover(&mut self) {
        self.inner.record_handover();
    }
    fn byz_slander(&mut self, accuser: NodeId, candidates: &[NodeId]) -> Option<NodeId> {
        self.inner.byz_slander(accuser, candidates)
    }
    fn data_origin(&self, data: DataId) -> Option<NodeId> {
        self.inner.data_origin(data)
    }
    fn data_size_bits(&self, data: DataId) -> Option<u32> {
        self.inner.data_size_bits(data)
    }
    fn data_dest(&self, data: DataId) -> Option<NodeId> {
        self.inner.data_dest(data)
    }
    fn tracing_active(&self) -> bool {
        self.inner.tracing_active()
    }
}
