//! A naive TTL-scoped flooding protocol.
//!
//! Serves two purposes: it exercises the whole engine in the simulator's own
//! test suite, and it is the "no structure at all" reference point — the
//! energy cost every overlay in the paper is trying to avoid.

use crate::ctx::Ctx;
use crate::energy::EnergyAccount;
use crate::message::{DataId, Message};
use crate::node::{NodeId, NodeKind};
use crate::protocol::Protocol;
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// Payload of a flooded data frame.
#[derive(Debug, Clone)]
pub struct FloodPayload {
    /// The application packet being carried.
    pub data: DataId,
    /// Remaining hops before the flood dies out.
    pub ttl: u8,
}

/// Flooding: every data packet is broadcast with a hop budget; each node
/// rebroadcasts unseen packets until an actuator absorbs them.
#[derive(Debug, Clone)]
pub struct FloodProtocol {
    /// Initial TTL for each packet's flood.
    pub ttl: u8,
    seen: HashSet<(NodeId, DataId), BuildHasherDefault<IdHasher>>,
}

impl FloodProtocol {
    /// Creates a flooding protocol with the given hop budget.
    pub fn new(ttl: u8) -> Self {
        FloodProtocol { ttl, seen: HashSet::default() }
    }
}

/// The dedup set's hasher: one multiply-rotate step per word (the Fx
/// scheme), then a final rotation that brings the product's well-mixed
/// high bits down to the low bits the table indexes by.
///
/// SipHash's keyed, flood-resistant hashing buys nothing here: the keys
/// are simulator-internal node and packet ids, not input an adversary
/// picks, and the set is never iterated, so its hash order cannot reach
/// a trace. The set holds the same entries and grows by the same steps
/// under either hasher.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

impl Protocol for FloodProtocol {
    type Payload = FloodPayload;

    fn name(&self) -> &'static str {
        "Flooding"
    }

    fn on_init(&mut self, _ctx: &mut Ctx<FloodPayload>) {}

    fn on_app_data(&mut self, ctx: &mut Ctx<FloodPayload>, src: NodeId, data: DataId) {
        let size = ctx.data_size_bits(data).unwrap_or(ctx.config().traffic.packet_bits);
        self.seen.insert((src, data));
        let payload = FloodPayload { data, ttl: self.ttl };
        if ctx.broadcast(src, size, EnergyAccount::Communication, payload) == 0 {
            ctx.drop_data(data);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<FloodPayload>, at: NodeId, msg: Message<FloodPayload>) {
        if !self.seen.insert((at, msg.payload.data)) {
            return; // duplicate suppression
        }
        if matches!(ctx.kind(at), NodeKind::Actuator) {
            let hops = u32::from(self.ttl - msg.payload.ttl) + 1;
            ctx.deliver_data_with_hops(msg.payload.data, at, hops);
            return;
        }
        if msg.payload.ttl == 0 {
            return;
        }
        let payload = FloodPayload { data: msg.payload.data, ttl: msg.payload.ttl - 1 };
        ctx.broadcast(at, msg.size_bits, EnergyAccount::Communication, payload);
    }

    fn on_timer(&mut self, _ctx: &mut Ctx<FloodPayload>, _at: NodeId, _tag: u64) {}
}

// Flooding keeps only per-node state (the `(node, packet)` dedup set) and
// every hook acts solely as the node it names, so it runs unchanged under
// the sharded engine.
impl crate::shard::ShardableProtocol for FloodProtocol {}
