//! The simulation context: world state plus the API protocols use to act.

use crate::acks::AckTable;
use crate::config::{in_unit_disk, SimConfig, MAC_OVERHEAD, MAX_JITTER, MAX_QUEUE, QOS_DEADLINE};
use crate::energy::{EnergyAccount, EnergyModel};
use crate::geometry::Point;
use crate::grid::SpatialGrid;
use crate::message::{DataId, DataRecord, Message};
use crate::metrics::{DropReason, Metrics};
use crate::node::{NodeId, NodeKind, NodeState};
use crate::time::{SimDuration, SimTime};
use crate::wheel::EventQueue;
use rand::rngs::StdRng;
use rand::Rng;
use std::cell::Cell;
#[cfg(debug_assertions)]
use std::collections::HashMap;

/// An event awaiting dispatch.
#[derive(Debug)]
pub(crate) enum EventKind<P> {
    /// A frame arrives at a node. `ack_id` links acknowledged frames
    /// ([`Ctx::send_acked`]) back to their pending-ACK entry.
    Deliver { to: NodeId, msg: Message<P>, ack_id: Option<u64> },
    /// A link-layer acknowledgment reaches the original sender.
    AckArrive { id: u64 },
    /// The ACK timeout of a pending acknowledged frame fires.
    AckExpire { id: u64 },
    /// A protocol timer fires.
    Timer { node: NodeId, tag: u64 },
    /// One application packet is emitted by a traffic source; `remaining`
    /// packets follow, each `gap_micros` after the previous one (the gap is
    /// computed once per traffic round, where the alive-source count is
    /// known, and carried here so shards never need it).
    EmitPacket { node: NodeId, remaining: u64, gap_micros: u64 },
    /// New traffic sources are drawn.
    TrafficRound,
    /// The faulty-node set rotates.
    FaultRotation,
    /// Node positions advance one mobility step.
    MobilityTick,
    /// Sharded engine only: an actuator in another shard received packet
    /// `packet`; the claim travels to the packet's origin shard, which owns
    /// the [`DataRecord`] and scores the delivery. `at_micros` is the true
    /// delivery time (the event may be processed a window later).
    DeliverClaim { packet: DataId, node: NodeId, hops: u32, at_micros: u64 },
    /// Sharded engine only: a protocol in another shard gave up on
    /// `packet`; routed to the origin shard like
    /// [`EventKind::DeliverClaim`].
    DropClaim { packet: DataId, reason: DropReason, at_micros: u64 },
}

impl<P> EventKind<P> {
    /// The node whose shard must process this event (`None` for the
    /// central drivers, which only the coordinator runs). ACK events live
    /// at the *sender* (its `pending_acks` entry) and claims at the
    /// packet's *origin* (its `DataRecord`); both are recoverable because
    /// the sharded engine packs the owning node id into the high 32 bits
    /// of ack ids and data ids.
    pub(crate) fn home(&self) -> Option<NodeId> {
        match self {
            EventKind::Deliver { to, .. } => Some(*to),
            EventKind::AckArrive { id } | EventKind::AckExpire { id } => {
                Some(NodeId((id >> 32) as u32))
            }
            EventKind::Timer { node, .. } | EventKind::EmitPacket { node, .. } => Some(*node),
            EventKind::DeliverClaim { packet, .. } | EventKind::DropClaim { packet, .. } => {
                Some(NodeId((packet.0 >> 32) as u32))
            }
            EventKind::TrafficRound | EventKind::FaultRotation | EventKind::MobilityTick => None,
        }
    }
}

pub(crate) struct Scheduled<P> {
    pub at: SimTime,
    pub seq: u64,
    pub kind: EventKind<P>,
}

impl<P> PartialEq for Scheduled<P> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<P> Eq for Scheduled<P> {}
impl<P> PartialOrd for Scheduled<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Scheduled<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// An acknowledged frame awaiting its link-layer ACK (or retry/expiry).
pub(crate) struct PendingAck<P> {
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) size_bits: u32,
    pub(crate) account: EnergyAccount,
    pub(crate) payload: P,
    /// Retransmissions performed so far (0 = only the initial attempt).
    pub(crate) attempt: u32,
}

/// What the store answers about a packet: its [`DataRecord`] with the
/// delivery time reduced to the fact — nothing in the simulator reads
/// *when* a packet was first delivered, only *whether*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Packet {
    pub(crate) origin: NodeId,
    pub(crate) created: SimTime,
    pub(crate) size_bits: u32,
    pub(crate) delivered: bool,
    pub(crate) measured: bool,
    pub(crate) dest: Option<NodeId>,
}

impl From<&DataRecord> for Packet {
    fn from(r: &DataRecord) -> Self {
        Packet {
            origin: r.origin,
            created: r.created,
            size_bits: r.size_bits,
            delivered: r.delivered.is_some(),
            measured: r.measured,
            dest: r.dest,
        }
    }
}

/// One stored packet in 12 bytes (a [`DataRecord`] is 48). `size_bits` is
/// not here: [`PacketStore`] holds it once. Nor is `dest`: [`Slot::pack`]
/// answers it beside the slot, for the lane to keep where it likes.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Creation time in micros shifted left past the two flag bits, as
    /// two words, low first: a slot is 4-aligned, so three words are 12
    /// bytes where a `u64` would pad them to 16.
    stamp: [u32; 2],
    /// [`Slot::VACANT`] marks a slot no packet was stored in.
    origin: u32,
}

impl Slot {
    const MEASURED: u32 = 1;
    const DELIVERED: u32 = 2;
    const FLAG_BITS: u32 = 2;
    const VACANT: u32 = u32::MAX;
    /// The destination word of a packet the protocol routes itself.
    const NO_DEST: u32 = u32::MAX;
    const EMPTY: Slot = Slot { stamp: [0; 2], origin: Slot::VACANT };

    /// `r`'s slot and its destination word ([`Slot::NO_DEST`] for none).
    fn pack(r: &DataRecord) -> (Slot, u32) {
        let created = r.created.as_micros();
        // 2^62 µs is 146 000 simulated years; `u32::MAX` nodes do not fit
        // in memory. Both are bugs in the caller, not inputs.
        assert!(
            created >> (u64::BITS - Slot::FLAG_BITS) == 0
                && r.origin.0 != Slot::VACANT
                && r.dest != Some(NodeId(Slot::NO_DEST)),
            "packet record does not fit a slot: {r:?}"
        );
        let stamp = created << Slot::FLAG_BITS
            | u64::from(if r.measured { Slot::MEASURED } else { 0 })
            | u64::from(if r.delivered.is_some() { Slot::DELIVERED } else { 0 });
        let slot = Slot { stamp: [stamp as u32, (stamp >> 32) as u32], origin: r.origin.0 };
        (slot, r.dest.map_or(Slot::NO_DEST, |d| d.0))
    }

    fn unpack(self, dest: u32, size_bits: u32) -> Option<Packet> {
        let stamp = u64::from(self.stamp[1]) << 32 | u64::from(self.stamp[0]);
        (self.origin != Slot::VACANT).then_some(Packet {
            origin: NodeId(self.origin),
            created: SimTime::from_micros(stamp >> Slot::FLAG_BITS),
            size_bits,
            delivered: self.stamp[0] & Slot::DELIVERED != 0,
            measured: self.stamp[0] & Slot::MEASURED != 0,
            dest: (dest != Slot::NO_DEST).then_some(NodeId(dest)),
        })
    }

    /// Both flags live in the low word.
    fn mark_delivered(&mut self) {
        self.stamp[0] |= Slot::DELIVERED;
    }
}

/// One page of the dense lane. Its vectors are allocated at the page's
/// final capacity on first use and filled by `resize` within it, so a
/// stored record never moves.
#[derive(Debug, Default)]
struct Page {
    slots: Vec<Slot>,
    /// `slots`' destinations, index for index — or no allocation at all
    /// while no packet of the page has one (the paper's trickle).
    dests: Vec<u32>,
}

impl Page {
    fn get(&self, offset: usize) -> Option<(Slot, u32)> {
        let slot = *self.slots.get(offset)?;
        Some((slot, self.dests.get(offset).copied().unwrap_or(Slot::NO_DEST)))
    }

    fn store(&mut self, offset: usize, capacity: usize, slot: Slot, dest: u32) {
        debug_assert!(offset < capacity);
        if self.slots.capacity() == 0 {
            self.slots = Vec::with_capacity(capacity);
        }
        if offset >= self.slots.len() {
            // Ids are minted in sequence, so this pushes one slot.
            self.slots.resize(offset + 1, Slot::EMPTY);
        }
        self.slots[offset] = slot;
        if dest != Slot::NO_DEST && self.dests.capacity() == 0 {
            // The column starts here: every earlier slot reads "none".
            self.dests = Vec::with_capacity(capacity);
        }
        if self.dests.capacity() != 0 {
            self.dests.resize(self.slots.len(), Slot::NO_DEST);
            self.dests[offset] = dest;
        }
    }
}

/// The records of the application packets a context originated, by
/// [`DataId`]: one or two indexed reads per lookup, where a hash table
/// spent its time on memory traffic. `size_bits` is held once for the
/// whole store — its one writer (`emit_packet`) gives every packet the
/// configured size.
///
/// The id's own bits pick the lane — no engine flag. An id whose high 32
/// bits are zero (the serial engine mints 0, 1, 2, …) indexes `pages`:
/// page `k` holds `1 024 << k` ids up to the 2^17 of page 7
/// ([`PacketStore::DENSE0`], [`PacketStore::DENSE_MAX`]) and every later
/// page holds 2^17. A page is a 12-byte [`Slot`] per id plus a `dest`
/// column that only a page with a destination in it allocates, each
/// vector allocated once at the page's size: the lane never copies a
/// record, and a 500-packet run holds one 12 KiB page.
///
/// An id that carries its origin in the high word (`origin << 32 | n`,
/// the sharded engine's scheme) resolves through a page directory:
/// origin `o`'s packets `n = 0, 1, 2, …` fill pages of `16, 32, 64, …`
/// slots ([`PacketStore::PAGE0`]` << k`), each a run of `arena` whose
/// first slot is `directory[k * origins + o]`. Pages are claimed on first
/// use, so ten thousand origins minting a few packets each cost one
/// 256-byte page apiece, and one origin minting a million costs 16
/// directory rows rather than `n / 16` — two amortised `Vec`s in all,
/// where one lane per origin doubled the run's allocation count
/// (DESIGN.md §14). An origin outside the deployment resolves to nothing.
///
/// Debug builds carry a shadow `HashMap` and check every lookup against
/// it, like the timing wheel's shadow heap, so each debug-profile
/// simulation is a store ≡ map proof; release builds compile it out.
#[derive(Debug)]
pub(crate) struct PacketStore {
    /// The serial lane: page `k` holds the ids [`PacketStore::dense_page`]
    /// maps to it. A page no id reached holds no allocation.
    pages: Vec<Page>,
    /// The payload size of every stored packet.
    size_bits: u32,
    /// The deployment's node count: the width of a `directory` row.
    origins: usize,
    /// Row `k` holds, per origin, where its page `k` starts in `arena`
    /// ([`PacketStore::NO_PAGE`] until claimed). Grows by whole rows.
    directory: Vec<u32>,
    /// The origin-tagged lane's slots, each beside its destination word.
    arena: Vec<(Slot, u32)>,
    #[cfg(debug_assertions)]
    shadow: HashMap<DataId, DataRecord>,
}

impl PacketStore {
    /// Ids in the dense lane's first page; page `k` holds `DENSE0 << k`
    /// until that reaches [`PacketStore::DENSE_MAX`].
    const DENSE0: usize = 1 << 10;
    /// Ids in each dense page from the doubling's last on.
    const DENSE_MAX: usize = 1 << 17;
    /// The first dense page of `DENSE_MAX` ids, and the first id in it.
    const DENSE_FIXED: usize = (Self::DENSE_MAX / Self::DENSE0).trailing_zeros() as usize;
    const DENSE_FIXED_START: usize = Self::DENSE0 * ((1 << Self::DENSE_FIXED) - 1);
    /// Slots in an origin's first page; page `k` holds `PAGE0 << k`.
    const PAGE0: u64 = 16;
    const NO_PAGE: u32 = u32::MAX;

    /// An empty store for a deployment of `origins` nodes. Allocates
    /// nothing until a packet is stored.
    pub(crate) fn new(origins: usize) -> Self {
        PacketStore {
            pages: Vec::new(),
            size_bits: 0,
            origins,
            directory: Vec::new(),
            arena: Vec::new(),
            #[cfg(debug_assertions)]
            shadow: HashMap::new(),
        }
    }

    /// The ids dense page `page` holds.
    fn dense_capacity(page: usize) -> usize {
        Self::DENSE0 << page.min(Self::DENSE_FIXED)
    }

    /// Where serial id `n` lives: its dense page and its offset there.
    #[inline]
    fn dense_page(n: usize) -> (usize, usize) {
        if n < Self::DENSE_FIXED_START {
            // Pages 0..k hold DENSE0·(2^k − 1) ids between them.
            let page = (n / Self::DENSE0 + 1).ilog2() as usize;
            (page, n - Self::DENSE0 * ((1 << page) - 1))
        } else {
            let past = n - Self::DENSE_FIXED_START;
            (Self::DENSE_FIXED + past / Self::DENSE_MAX, past % Self::DENSE_MAX)
        }
    }

    /// Where origin-tagged `id` lives: its page number, its cell of
    /// `directory` and its offset inside the page. `None` for an origin
    /// outside the deployment.
    #[inline]
    fn locate(&self, id: DataId) -> Option<(u32, usize, usize)> {
        let origin = (id.0 >> 32) as usize;
        if origin >= self.origins {
            return None;
        }
        let n = id.0 & u64::from(u32::MAX);
        // Pages 0..k hold PAGE0·(2^k − 1) slots between them.
        let page = (n / Self::PAGE0 + 1).ilog2();
        let before = (Self::PAGE0 << page) - Self::PAGE0;
        Some((page, page as usize * self.origins + origin, (n - before) as usize))
    }

    /// The dense page and offset of `id`, or `None` for an origin-tagged id.
    #[inline]
    fn dense_index(id: DataId) -> Option<(usize, usize)> {
        (id.0 >> 32 == 0).then(|| Self::dense_page(id.0 as usize))
    }

    /// The `arena` index of origin-tagged `id`, or `None` while its page
    /// is unclaimed. A claimed page is wholly inside the arena.
    #[inline]
    fn paged_index(&self, id: DataId) -> Option<usize> {
        let (_, cell, offset) = self.locate(id)?;
        let start = *self.directory.get(cell)?;
        (start != Self::NO_PAGE).then(|| start as usize + offset)
    }

    pub(crate) fn insert(&mut self, id: DataId, record: DataRecord) {
        #[cfg(debug_assertions)]
        self.shadow.insert(id, record.clone());
        assert!(
            (self.pages.is_empty() && self.arena.is_empty()) || self.size_bits == record.size_bits,
            "packet ids share one payload size"
        );
        self.size_bits = record.size_bits;
        let (slot, dest) = Slot::pack(&record);
        if let Some((page, offset)) = Self::dense_index(id) {
            if page >= self.pages.len() {
                self.pages.resize_with(page + 1, Page::default);
            }
            self.pages[page].store(offset, Self::dense_capacity(page), slot, dest);
            return;
        }
        let (page, cell, offset) = self
            .locate(id)
            .unwrap_or_else(|| panic!("packet {id} names an origin outside the deployment"));
        if cell >= self.directory.len() {
            self.directory.resize((page as usize + 1) * self.origins, Self::NO_PAGE);
        }
        if self.directory[cell] == Self::NO_PAGE {
            let start = self.arena.len();
            self.directory[cell] = u32::try_from(start)
                .ok()
                .filter(|&start| start != Self::NO_PAGE)
                .expect("packet arena outgrew its 32-bit page offsets");
            self.arena.resize(start + (Self::PAGE0 << page) as usize, (Slot::EMPTY, Slot::NO_DEST));
        }
        self.arena[self.directory[cell] as usize + offset] = (slot, dest);
    }

    #[inline]
    pub(crate) fn get(&self, id: DataId) -> Option<Packet> {
        let stored = match Self::dense_index(id) {
            Some((page, offset)) => self.pages.get(page).and_then(|page| page.get(offset)),
            None => self.paged_index(id).map(|slot| self.arena[slot]),
        };
        let found = stored.and_then(|(slot, dest)| slot.unpack(dest, self.size_bits));
        #[cfg(debug_assertions)]
        self.check_shadow(id, found);
        found
    }

    /// Marks `id` delivered; answers the packet if this was its first
    /// delivery, `None` for an unknown id or a repeat.
    #[inline]
    pub(crate) fn mark_delivered(&mut self, id: DataId) -> Option<Packet> {
        let packet = self.get(id).filter(|packet| !packet.delivered)?;
        let slot = match Self::dense_index(id) {
            Some((page, offset)) => &mut self.pages[page].slots[offset],
            None => {
                let slot = self.paged_index(id)?;
                &mut self.arena[slot].0
            }
        };
        slot.mark_delivered();
        Some(packet)
    }

    /// The shadow keeps every record as inserted; whether it was delivered
    /// since is the one thing the store writes afterwards
    /// ([`PacketStore::mark_delivered`]), so the comparison leaves it out.
    #[cfg(debug_assertions)]
    fn check_shadow(&self, id: DataId, found: Option<Packet>) {
        let as_inserted = |p: Packet| Packet { delivered: false, ..p };
        assert_eq!(
            found.map(as_inserted),
            self.shadow.get(&id).map(|r| as_inserted(r.into())),
            "packet store and its shadow map disagree on {id}"
        );
    }
}

/// World state and protocol-facing API.
///
/// A `Ctx` is handed to every [`Protocol`](crate::Protocol) hook. It owns
/// the event queue, node table, RNG, metrics and application-data tracker.
/// All methods are deterministic given the configuration seed.
pub struct Ctx<P> {
    pub(crate) cfg: SimConfig,
    pub(crate) now: SimTime,
    pub(crate) nodes: Vec<NodeState>,
    pub(crate) actuators: Vec<NodeId>,
    pub(crate) sensors: Vec<NodeId>,
    pub(crate) queue: EventQueue<P>,
    pub(crate) seq: u64,
    pub(crate) rng: StdRng,
    pub(crate) metrics: Metrics,
    pub(crate) data: PacketStore,
    pub(crate) next_data_id: u64,
    pub(crate) pending_acks: AckTable<P>,
    /// Fault-oracle consultations made through the public API. A `Cell` so
    /// the read-only query methods can stay `&self`.
    pub(crate) oracle_queries: Cell<u64>,
    pub(crate) end: SimTime,
    /// Set during `Protocol::on_init`: construction traffic is exempt from
    /// interface-queue tail drop (all of it is conceptually spread over the
    /// deployment phase, not burst through a 1.5 s buffer at t = 0).
    pub(crate) unbounded_queue: bool,
    /// Streaming trace sinks attached for this run
    /// ([`runner::run_with_sinks`](crate::runner::run_with_sinks)); empty =
    /// no streaming consumers, zero cost.
    pub(crate) sinks: Vec<Box<dyn crate::trace::TraceSink>>,
    /// Spatial neighbor index; kept coherent by [`Ctx::move_node`].
    /// Liveness is filtered at query time, so fault rotation needs no grid
    /// maintenance.
    pub(crate) grid: SpatialGrid,
    /// Reusable receiver buffer for [`Ctx::broadcast`] (no per-broadcast
    /// allocation).
    pub(crate) recv_buf: Vec<NodeId>,
    /// Reusable alive-roster buffer for the traffic round driver (no
    /// per-round allocation).
    pub(crate) alive_buf: Vec<NodeId>,
    /// `Some` when this context is one shard of the sharded engine
    /// (`shard::run_sharded`): event pushes route by home shard, simulator
    /// randomness comes from per-node streams, and delivery bookkeeping
    /// for remote origins travels as claim events. `None` in the serial
    /// engine — every branch on this field keeps the serial loop's
    /// behavior bit-identical to what it was before sharding existed.
    pub(crate) shard: Option<Box<crate::shard::ShardCtl<P>>>,
}

impl<P> Ctx<P> {
    /// A context at t = 0 over the given world with nothing scheduled and
    /// nothing metered: the serial engine's one context (`shard: None`,
    /// `rng` the master stream) or one shard's replica of it.
    pub(crate) fn new(
        cfg: SimConfig,
        nodes: Vec<NodeState>,
        sensors: Vec<NodeId>,
        actuators: Vec<NodeId>,
        grid: SpatialGrid,
        rng: StdRng,
        shard: Option<Box<crate::shard::ShardCtl<P>>>,
    ) -> Self {
        Ctx {
            end: SimTime::ZERO + cfg.total_time(),
            cfg,
            now: SimTime::ZERO,
            data: PacketStore::new(nodes.len()),
            nodes,
            actuators,
            sensors,
            queue: EventQueue::new(),
            seq: 0,
            rng,
            metrics: Metrics::default(),
            next_data_id: 0,
            pending_acks: if shard.is_some() { AckTable::sharded() } else { AckTable::serial() },
            oracle_queries: Cell::new(0),
            unbounded_queue: false,
            sinks: Vec::new(),
            grid,
            recv_buf: Vec::new(),
            alive_buf: Vec::new(),
            shard,
        }
    }

    // ----- clock and configuration ------------------------------------

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The scenario configuration (read-only).
    #[inline]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The deterministic run RNG. Protocols must draw all randomness here.
    ///
    /// Under the sharded engine this is a per-shard stream (seeded from
    /// the master seed and the shard id), so protocol draws stay
    /// deterministic without cross-shard coordination.
    #[inline]
    pub fn rng(&mut self) -> &mut StdRng {
        match self.shard.as_mut() {
            Some(ctl) => &mut ctl.proto_rng,
            None => &mut self.rng,
        }
    }

    /// The RNG stream for the simulator's own draws (jitter, loss): the
    /// master RNG serially, the *acting node's* private stream under the
    /// sharded engine — each node's draw sequence is then independent of
    /// what every other shard is doing, which is what makes the sharded
    /// schedule reproducible at any thread count.
    #[inline]
    pub(crate) fn sim_rng(&mut self) -> &mut StdRng {
        match self.shard.as_mut() {
            Some(ctl) => {
                let node = ctl.active.index();
                &mut ctl.node_rng[node]
            }
            None => &mut self.rng,
        }
    }

    /// Whether any trace sink is attached. Protocols can skip building
    /// expensive event payloads when this is false.
    #[inline]
    pub fn tracing_active(&self) -> bool {
        match &self.shard {
            Some(ctl) => ctl.tracing,
            None => !self.sinks.is_empty(),
        }
    }

    #[inline]
    pub(crate) fn record(&mut self, make: impl FnOnce(SimTime) -> crate::trace::TraceEvent) {
        let now = self.now;
        self.record_raw(|| make(now));
    }

    /// [`Ctx::record`] with the timestamp chosen by the caller — claim
    /// processing stamps events with the true delivery time, not the
    /// (later) window in which the claim lands.
    #[inline]
    pub(crate) fn record_raw(&mut self, make: impl FnOnce() -> crate::trace::TraceEvent) {
        if let Some(ctl) = self.shard.as_mut() {
            // Shards buffer; the coordinator merges the buffers in shard
            // order at each window edge and feeds the real sinks.
            if ctl.tracing {
                let event = make();
                ctl.trace_buf.push(event);
            }
            return;
        }
        if self.sinks.is_empty() {
            return; // tracing disabled: a load and a branch, no event built
        }
        let event = make();
        for sink in &mut self.sinks {
            sink.on_event(&event);
        }
    }

    // ----- topology queries --------------------------------------------

    /// Number of nodes (sensors + actuators).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// All node ids, sensors first then actuators.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The actuator ids.
    pub fn actuator_ids(&self) -> &[NodeId] {
        &self.actuators
    }

    /// The sensor ids.
    pub fn sensor_ids(&self) -> &[NodeId] {
        &self.sensors
    }

    /// Device class of `id`.
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.nodes[id.index()].kind
    }

    /// Current position of `id`.
    pub fn position(&self, id: NodeId) -> Point {
        self.nodes[id.index()].position
    }

    /// Transmission range of `id`, meters.
    pub fn range(&self, id: NodeId) -> f64 {
        self.nodes[id.index()].range
    }

    /// Whether `id` is currently broken down.
    ///
    /// This is the global fault *oracle*: perfect, zero-latency failure
    /// knowledge no deployed node has about its peers. Calls are counted in
    /// [`RunSummary::oracle_queries`](crate::RunSummary::oracle_queries);
    /// under [`FaultModel::Discovered`](crate::config::FaultModel) protocols
    /// should route on local suspicion instead (and use [`Ctx::self_faulty`]
    /// for their *own* health, which every real node knows).
    pub fn is_faulty(&self, id: NodeId) -> bool {
        self.oracle_queries.set(self.oracle_queries.get() + 1);
        self.nodes[id.index()].faulty
    }

    /// Whether `id` itself is currently broken down: a node's knowledge of
    /// its *own* health. Not counted as an oracle consultation.
    pub fn self_faulty(&self, id: NodeId) -> bool {
        self.nodes[id.index()].faulty
    }

    /// Remaining battery of `id`, Joules.
    pub fn battery(&self, id: NodeId) -> f64 {
        self.nodes[id.index()].battery
    }

    /// Distance between two nodes, meters.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.position(a).distance(&self.position(b))
    }

    /// Whether `b` is inside `a`'s transmission range (the unit disk,
    /// [`in_unit_disk`]).
    pub fn in_range(&self, a: NodeId, b: NodeId) -> bool {
        in_unit_disk(self.distance(a, b), self.range(a))
    }

    /// Whether a frame from `a` would currently reach `b`: both alive and
    /// `b` inside `a`'s range. Models an instantaneous perfect link probe,
    /// so — like [`Ctx::is_faulty`] — it counts as an oracle consultation.
    pub fn link_ok(&self, a: NodeId, b: NodeId) -> bool {
        self.oracle_queries.set(self.oracle_queries.get() + 1);
        self.link_ok_internal(a, b)
    }

    /// The physical truth behind [`Ctx::link_ok`], used by the simulator
    /// itself to decide frame outcomes (not an oracle consultation).
    pub(crate) fn link_ok_internal(&self, a: NodeId, b: NodeId) -> bool {
        a != b
            && !self.nodes[a.index()].faulty
            && !self.nodes[b.index()].faulty
            && self.in_range(a, b)
    }

    /// Alive nodes currently within `id`'s range (excluding itself).
    /// Counts as an oracle consultation: a real node cannot enumerate its
    /// *alive* neighbors without probing them.
    pub fn neighbors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.neighbors_into(id, &mut out);
        out
    }

    /// [`Ctx::neighbors`] into a caller-owned buffer: `buf` is cleared and
    /// refilled, so hot paths can reuse one allocation across queries.
    /// Counts as one oracle consultation, like [`Ctx::neighbors`].
    pub fn neighbors_into(&self, id: NodeId, buf: &mut Vec<NodeId>) {
        self.oracle_queries.set(self.oracle_queries.get() + 1);
        self.physical_neighbors_into(id, buf);
    }

    /// The nodes a broadcast from `id` physically reaches right now: alive
    /// and in range ([`in_unit_disk`]). This is the medium's behavior, not
    /// protocol knowledge — a flood cannot traverse a dead node whether or
    /// not the sender knows it is dead — so it is *not* counted as an
    /// oracle consultation. Protocols may use it only to model
    /// physically-propagating control waves (floods, discovery storms),
    /// never to pick unicast next hops.
    ///
    /// `buf` is cleared and refilled in ascending `NodeId` order (the same
    /// order the linear scan produces, whichever index resolves the
    /// candidates), so hot paths can reuse one allocation across queries.
    pub fn physical_neighbors_into(&self, id: NodeId, buf: &mut Vec<NodeId>) {
        buf.clear();
        let me = &self.nodes[id.index()];
        let (my_pos, my_range) = (me.position, me.range);
        let in_my_range = |other: NodeId| {
            if other == id {
                return false;
            }
            let node = &self.nodes[other.index()];
            !node.faulty && in_unit_disk(my_pos.distance(&node.position), my_range)
        };
        // When the cell block spans all or most of the grid the index
        // cannot prune enough to pay for itself; the plain scan gives
        // the identical answer without the cell indirection.
        if self.grid.block_covers_most() {
            buf.extend(self.node_ids().filter(|&other| in_my_range(other)));
        } else {
            // Filtering while visiting the cells in range and then sorting
            // by id reproduces the scan's iteration order (the range
            // filter is pointwise, so the two commute) while only ever
            // materializing and sorting the survivors. The distance
            // check runs on the grid's inline position copy (kept
            // exact by `move_node`); only in-range candidates touch
            // the node table for the liveness bit.
            self.grid.for_each_within(me.position, my_range, |other, pos| {
                if other != id
                    && in_unit_disk(my_pos.distance(&pos), my_range)
                    && !self.nodes[other.index()].faulty
                {
                    buf.push(other);
                }
            });
            buf.sort_unstable();
        }
    }

    /// Moves `id` to `to`, keeping the spatial index coherent. All
    /// position changes after construction go through here (mobility
    /// ticks).
    pub(crate) fn move_node(&mut self, id: NodeId, to: Point) {
        // A static scenario still ticks (the waypoint draws are part of the
        // RNG stream); its sensors go nowhere, and `relocate` would scan
        // the node's whole cell to find that out.
        if self.nodes[id.index()].position == to {
            return;
        }
        self.nodes[id.index()].position = to;
        self.grid.relocate(id, to);
    }

    /// How long `id`'s radio queue currently is (time until it could start
    /// a new transmission).
    pub fn queue_delay(&self, id: NodeId) -> SimDuration {
        SimTime::from_micros(self.nodes[id.index()].busy_until_micros).saturating_since(self.now)
    }

    /// Whether `id` counts as congested: its radio backlog exceeds a tenth
    /// of the QoS deadline. REFER treats a congested successor like a
    /// failed one and reroutes (Section III-C2).
    pub fn is_congested(&self, id: NodeId) -> bool {
        self.queue_delay(id).as_micros() > QOS_DEADLINE.as_micros() / 10
    }

    // ----- acting -------------------------------------------------------

    /// Sends a unicast frame from `from` to `to`.
    ///
    /// Transmit energy is charged to `from` unconditionally (the radio does
    /// not know in advance whether the receiver is gone). Returns `false` —
    /// modelling the missing MAC acknowledgment — when the link is down
    /// (receiver faulty, sender faulty, or out of range); the frame is then
    /// lost. On success the frame arrives after queueing + service time +
    /// contention jitter, and receive energy is charged on arrival.
    pub fn send(
        &mut self,
        from: NodeId,
        to: NodeId,
        size_bits: u32,
        account: EnergyAccount,
        payload: P,
    ) -> bool {
        if !self.unbounded_queue && self.queue_delay(from) > MAX_QUEUE {
            // Interface-queue overflow: the frame is tail-dropped before
            // transmission. The sender's MAC accepted it, so the caller
            // sees success — the loss is silent, costs no energy, and the
            // packet simply never arrives.
            self.metrics.frames_queue_dropped += 1;
            self.record(|at| crate::trace::TraceEvent::QueueDrop { at, from });
            return true;
        }
        self.charge_tx(from, account);
        self.metrics.frames_sent += 1;
        if !self.link_ok_internal(from, to) {
            self.metrics.frames_failed += 1;
            self.record(|at| crate::trace::TraceEvent::SendFailed { at, from, to });
            return false;
        }
        // Residual per-link loss can lose an "up" link's frame; the
        // sender's MAC retries absorb most of it, so a lost draw here
        // models residual loss after retries.
        let p = self.frame_prob(from, to);
        if p < 1.0 && !self.sim_rng().gen_bool(p.clamp(0.0, 1.0)) {
            self.metrics.frames_failed += 1;
            self.record(|at| crate::trace::TraceEvent::SendFailed { at, from, to });
            return false;
        }
        self.record(|at| crate::trace::TraceEvent::Send { at, from, to, size_bits, account });
        let arrival = self.tx_schedule(from, to, size_bits);
        let msg = Message { from, size_bits, account, broadcast: false, payload };
        self.push(arrival, EventKind::Deliver { to, msg, ack_id: None });
        true
    }

    /// Sends a unicast frame with link-layer acknowledgment.
    ///
    /// Unlike [`Ctx::send`], the caller learns the outcome asynchronously:
    /// the frame is transmitted, and if no ACK returns within
    /// `radio.ack_timeout` (scaled by `radio.retry_backoff` per attempt) it
    /// is retransmitted up to `radio.max_retries` times — each retry
    /// charged to the energy meter and the sender's interface queue. The
    /// protocol hears [`Protocol::on_ack`](crate::Protocol::on_ack) when
    /// the ACK arrives, or
    /// [`Protocol::on_send_expired`](crate::Protocol::on_send_expired) with
    /// the payload back once retries are exhausted. ACK frames themselves
    /// are tiny MAC-level control frames: they occupy no queue slot and are
    /// not billed to the energy ledgers.
    ///
    /// This is the transmission primitive for
    /// [`FaultModel::Discovered`](crate::config::FaultModel) runs: it never
    /// consults the fault oracle at send time.
    pub fn send_acked(
        &mut self,
        from: NodeId,
        to: NodeId,
        size_bits: u32,
        account: EnergyAccount,
        payload: P,
    ) where
        P: Clone,
    {
        // Under the sharded engine the sender is packed into the id's high
        // bits so ACK traffic can route home: the pending entry (and its
        // retries/expiry) live at the sender's shard.
        let home = match self.shard.as_ref() {
            Some(ctl) => {
                debug_assert_eq!(
                    ctl.owner[from.index()],
                    ctl.me,
                    "send_acked must be called from the sending node's own shard"
                );
                Some(from)
            }
            None => None,
        };
        let id = self
            .pending_acks
            .insert(home, PendingAck { from, to, size_bits, account, payload, attempt: 0 });
        self.transmit_attempt(id);
    }

    /// One physical transmission attempt of pending acknowledged frame
    /// `id`, scheduling the matching ACK-timeout event.
    pub(crate) fn transmit_attempt(&mut self, id: u64)
    where
        P: Clone,
    {
        let Some(p) = self.pending_acks.get(id) else { return };
        let (from, to, size_bits, account, attempt) =
            (p.from, p.to, p.size_bits, p.account, p.attempt);
        let timeout = self.ack_wait(attempt);
        if !self.unbounded_queue && self.queue_delay(from) > MAX_QUEUE {
            // Interface-queue overflow: this attempt is tail-dropped before
            // transmission, but the ACK timeout still runs so the retry
            // re-offers the frame once the queue (hopefully) drains.
            self.metrics.frames_queue_dropped += 1;
            self.record(|at| crate::trace::TraceEvent::QueueDrop { at, from });
            let expire = self.now + self.service_time(size_bits) + timeout;
            self.push(expire, EventKind::AckExpire { id });
            return;
        }
        self.charge_tx(from, account);
        self.metrics.frames_sent += 1;
        let alive = from != to
            && !self.nodes[from.index()].faulty
            && !self.nodes[to.index()].faulty;
        let prob = if alive { self.frame_prob(from, to) } else { 0.0 };
        let received = prob >= 1.0 || (prob > 0.0 && self.sim_rng().gen_bool(prob.clamp(0.0, 1.0)));
        if received {
            self.record(|at| crate::trace::TraceEvent::Send { at, from, to, size_bits, account });
            let arrival = self.tx_schedule(from, to, size_bits);
            let payload =
                self.pending_acks.get(id).map(|p| p.payload.clone()).expect("pending present");
            let msg = Message { from, size_bits, account, broadcast: false, payload };
            self.push(arrival, EventKind::Deliver { to, msg, ack_id: Some(id) });
            self.push(arrival + timeout, EventKind::AckExpire { id });
        } else {
            // The frame is lost on the air; the sender only learns via the
            // missing ACK.
            self.metrics.frames_failed += 1;
            self.record(|at| crate::trace::TraceEvent::SendFailed { at, from, to });
            let expire = self.now + self.service_time(size_bits) + timeout;
            self.push(expire, EventKind::AckExpire { id });
        }
    }

    /// Probability that one frame from `from` reaches `to`: the unit disk
    /// times the residual per-link loss `radio.link_pdr`.
    fn frame_prob(&self, from: NodeId, to: NodeId) -> f64 {
        if in_unit_disk(self.distance(from, to), self.range(from)) {
            1.0 - self.cfg.radio.link_pdr.clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// ACK wait for a given retry count: `ack_timeout * backoff^attempt`.
    fn ack_wait(&self, attempt: u32) -> SimDuration {
        let base = self.cfg.radio.ack_timeout.as_secs_f64();
        let factor = self.cfg.radio.retry_backoff.max(1.0).powi(attempt as i32);
        SimDuration::from_secs_f64(base * factor)
    }

    /// Models the receiver's MAC sending a link-layer ACK for pending frame
    /// `id` back from `from` to the original sender `to`. ACKs ride the
    /// reverse link with its own loss probability, cost no metered energy
    /// and occupy no interface queue (tiny control frames).
    pub(crate) fn schedule_ack(&mut self, id: u64, from: NodeId, to: NodeId) {
        // The pending entry lives at the *sender*; a shard delivering a
        // remote sender's frame cannot see it, so it always ACKs and the
        // sender discards duplicates (counted in `stale_acks`). Serially
        // the entry is local and the duplicate ACK is elided up front.
        if self.shard.is_none() && !self.pending_acks.contains(id) {
            return; // duplicate delivery of an already-acknowledged frame
        }
        let prob = self.frame_prob(from, to);
        let received = prob >= 1.0 || (prob > 0.0 && self.sim_rng().gen_bool(prob.clamp(0.0, 1.0)));
        if !received {
            return;
        }
        let arrival = self.now + MAC_OVERHEAD + self.sample_jitter();
        self.push(arrival, EventKind::AckArrive { id });
    }

    /// Broadcasts a frame from `from` to every alive node in range. Returns
    /// the number of receivers. One transmit charge at the sender, one
    /// receive charge per receiver.
    pub fn broadcast(
        &mut self,
        from: NodeId,
        size_bits: u32,
        account: EnergyAccount,
        payload: P,
    ) -> usize
    where
        P: Clone,
    {
        if !self.unbounded_queue && self.queue_delay(from) > MAX_QUEUE {
            self.metrics.frames_queue_dropped += 1;
            return 0;
        }
        self.charge_tx(from, account);
        self.metrics.broadcasts_sent += 1;
        if self.nodes[from.index()].faulty {
            return 0;
        }
        // Reuse the context's receiver buffer: broadcasts are the hottest
        // neighborhood query and must not allocate per call.
        let mut receivers = std::mem::take(&mut self.recv_buf);
        self.physical_neighbors_into(from, &mut receivers);
        if receivers.is_empty() {
            self.recv_buf = receivers;
            return 0;
        }
        // One service occupancy at the sender for the broadcast frame.
        let base = self.tx_base_schedule(from, size_bits);
        let pdr = self.cfg.radio.link_pdr;
        // Clone the payload n−1 times and *move* it into the final copy:
        // each surviving receiver's push is deferred by one iteration so
        // the last one is known when the loop ends. RNG draws, occupancy
        // bumps and push order (hence `seq` assignment) are untouched —
        // only the clone count changes.
        let mut staged: Option<(NodeId, SimTime)> = None;
        for &to in &receivers {
            // Lossy links drop each receiver's copy independently; the
            // draw is gated on `pdr > 0` so lossless runs make no extra
            // draws and stay bit-identical to pre-PDR output.
            if pdr > 0.0 && !self.sim_rng().gen_bool((1.0 - pdr).clamp(0.0, 1.0)) {
                continue;
            }
            let jitter = self.sample_jitter();
            let arrival = base + jitter;
            self.bump_receiver(to, arrival);
            if let Some((prev_to, prev_at)) = staged.replace((to, arrival)) {
                let msg =
                    Message { from, size_bits, account, broadcast: true, payload: payload.clone() };
                self.push(prev_at, EventKind::Deliver { to: prev_to, msg, ack_id: None });
            }
        }
        let n = receivers.len();
        self.recv_buf = receivers;
        if let Some((to, arrival)) = staged {
            let msg = Message { from, size_bits, account, broadcast: true, payload };
            self.push(arrival, EventKind::Deliver { to, msg, ack_id: None });
        }
        self.record(|at| crate::trace::TraceEvent::Broadcast { at, from, receivers: n, account });
        n
    }

    /// Schedules a protocol timer on `node` after `delay` with `tag`.
    pub fn set_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) {
        let at = self.now + delay;
        self.push(at, EventKind::Timer { node, tag });
    }

    // ----- application data ---------------------------------------------

    /// Records one forwarding decision for application packet `packet`:
    /// `from` chose `to` as the next hop for `reason`. Free when tracing is
    /// disabled; protocols call this next to the `send`/`send_acked` that
    /// carries the packet, so traces can reconstruct per-packet causal
    /// chains with the routing rationale.
    pub fn trace_hop(
        &mut self,
        packet: DataId,
        from: NodeId,
        to: NodeId,
        reason: crate::trace::HopReason,
    ) {
        if !self.tracing_active() {
            return;
        }
        let queue_s = self.queue_delay(from).as_secs_f64();
        self.record(|at| crate::trace::TraceEvent::Hop { at, packet, from, to, reason, queue_s });
    }

    /// Records that application packet `data` reached an actuator at `at`.
    /// Only the first delivery of each packet counts toward metrics.
    pub fn deliver_data(&mut self, data: DataId, at: NodeId) {
        self.deliver_data_with_hops(data, at, 0);
    }

    /// [`Ctx::deliver_data`] with the protocol's end-to-end transmission
    /// count (1 = the origin reached an actuator directly). Feeds the
    /// hop-count histogram behind
    /// [`RunSummary::hop_p50`](crate::RunSummary::hop_p50); pass 0 when the
    /// protocol does not track hops.
    pub fn deliver_data_with_hops(&mut self, data: DataId, at: NodeId, hops: u32) {
        debug_assert!(
            matches!(self.nodes[at.index()].kind, NodeKind::Actuator)
                || self.data.get(data).is_none_or(|record| record.dest == Some(at)),
            "data must be delivered to an actuator or its matrix-assigned sensor"
        );
        let now = self.now;
        if let Some(ctl) = self.shard.as_ref() {
            // The packet's [`DataRecord`] lives at the origin's shard; a
            // delivery observed anywhere else travels there as a claim
            // carrying the true delivery time.
            let home = NodeId((data.0 >> 32) as u32);
            if ctl.owner[home.index()] != ctl.me {
                self.push(
                    now,
                    EventKind::DeliverClaim { packet: data, node: at, hops, at_micros: now.as_micros() },
                );
                return;
            }
        }
        self.apply_delivery_claim(data, at, hops, now);
    }

    /// Settles a delivery against the locally-owned [`DataRecord`] for
    /// `data`, with `at` as the (possibly past) delivery time. Shared by the
    /// direct serial path and the sharded engine's claim dispatch.
    pub(crate) fn apply_delivery_claim(&mut self, data: DataId, node: NodeId, hops: u32, at: SimTime) {
        let Some(record) = self.data.mark_delivered(data) else {
            return;
        };
        let delay = at - record.created;
        // Metrics only count measured packets; the trace still records
        // warmup deliveries so forensics see every packet's fate.
        if record.measured {
            self.metrics.delivered_packets += 1;
            self.metrics.delivered_delay_sum += delay.as_secs_f64();
            self.metrics.delay_hist.record(delay.as_micros());
            if hops > 0 {
                self.metrics.hop_hist.record(u64::from(hops));
            }
            if delay <= QOS_DEADLINE {
                self.metrics.qos_packets += 1;
                self.metrics.qos_bytes += u64::from(record.size_bits) / 8;
                self.metrics.qos_delay_sum += delay.as_secs_f64();
            }
        }
        self.record_raw(|| crate::trace::TraceEvent::Delivered {
            at,
            packet: data,
            node,
            delay_s: delay.as_secs_f64(),
            hops,
        });
    }

    /// Records that the protocol gave up on `data`.
    pub fn drop_data(&mut self, data: DataId) {
        self.drop_data_reason(data, DropReason::Other);
    }

    /// Records that the protocol gave up on `data`, with the reason bucket
    /// exported in [`RunSummary`](crate::RunSummary) drop counters.
    pub fn drop_data_reason(&mut self, data: DataId, reason: DropReason) {
        let now = self.now;
        if let Some(ctl) = self.shard.as_ref() {
            let home = NodeId((data.0 >> 32) as u32);
            if ctl.owner[home.index()] != ctl.me {
                self.push(now, EventKind::DropClaim { packet: data, reason, at_micros: now.as_micros() });
                return;
            }
        }
        self.apply_drop_claim(data, reason, now);
    }

    /// Settles a drop against the locally-owned [`DataRecord`] for `data`
    /// at the (possibly past) time `at`. Counterpart of
    /// [`Ctx::apply_delivery_claim`].
    pub(crate) fn apply_drop_claim(&mut self, data: DataId, reason: DropReason, at: SimTime) {
        if let Some(record) = self.data.get(data) {
            if !record.delivered {
                if record.measured {
                    self.metrics.dropped_packets += 1;
                    match reason {
                        DropReason::NoAccess => self.metrics.drop_no_access += 1,
                        DropReason::NoRoute => self.metrics.drop_no_route += 1,
                        DropReason::HopLimit => self.metrics.drop_hops += 1,
                        DropReason::Other => {}
                    }
                }
                self.record_raw(|| crate::trace::TraceEvent::Dropped { at, packet: data, reason });
            }
        }
    }

    /// Records that a protocol just started suspecting `node` of having
    /// failed. The simulator grades the suspicion against ground truth —
    /// detection (with its breakdown→suspicion latency) or false suspicion
    /// — without leaking that truth back to the caller.
    pub fn record_suspicion(&mut self, node: NodeId) {
        let state = &self.nodes[node.index()];
        if state.faulty {
            self.metrics.detections += 1;
            if let Some(since) = state.fault_since_micros {
                let lat = self.now.as_micros().saturating_sub(since);
                self.metrics.detection_latency_sum_s += lat as f64 / 1e6;
            }
        } else {
            self.metrics.false_suspicions += 1;
        }
        self.record(|at| crate::trace::TraceEvent::Suspected { at, node });
    }

    /// Records that the protocol *evicted* `node` — removed it from
    /// membership (e.g. replaced its Kautz ID with a standby) based on its
    /// failure belief. Graded against ground truth without leaking it:
    /// evicting an alive node is a wrongful eviction (the damage a false
    /// suspicion causes); evicting a broken node is the failure view doing
    /// its job.
    pub fn record_eviction(&mut self, node: NodeId) {
        if !self.nodes[node.index()].faulty {
            self.metrics.wrongful_evictions += 1;
        }
    }

    /// Records one Section III-B4 Kautz-ID handover (a maintenance
    /// replacement of a cell member by a standby candidate).
    pub fn record_handover(&mut self) {
        self.metrics.handovers += 1;
    }

    /// The origin node of an application packet.
    pub fn data_origin(&self, data: DataId) -> Option<NodeId> {
        self.data.get(data).map(|r| r.origin)
    }

    /// The application payload size of a packet, bits.
    pub fn data_size_bits(&self, data: DataId) -> Option<u32> {
        self.data.get(data).map(|r| r.size_bits)
    }

    /// The destination sensor a traffic matrix assigned to `data`: `None`
    /// under the paper trickle (the protocol picks an actuator itself), and
    /// also for records owned by another shard — protocols must read it in
    /// `on_app_data`, where the origin's record is local, and carry it in
    /// their frames from there.
    pub fn data_dest(&self, data: DataId) -> Option<NodeId> {
        self.data.get(data).and_then(|r| r.dest)
    }

    // ----- internals ----------------------------------------------------

    pub(crate) fn push(&mut self, at: SimTime, kind: EventKind<P>) {
        if let Some(ctl) = self.shard.as_mut() {
            // Route by the event's home shard. Local events enter the heap
            // under the canonical (at, home-node, per-node-counter) key;
            // remote events wait in the outbox for the window edge.
            let home = kind
                .home()
                .expect("central driver events are never scheduled inside a shard");
            let dest = ctl.owner[home.index()];
            if dest == ctl.me {
                let seq = ctl.alloc_seq(home);
                self.queue.push(Scheduled { at, seq, kind });
            } else {
                ctl.outbox[dest as usize].push((at, kind));
            }
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Scheduled { at, seq, kind });
    }

    /// Allocates the next application data id for a packet originating at
    /// `origin`. Sequential serially; under the sharded engine the origin
    /// is packed into the high bits, giving every shard an independent id
    /// space and delivery claims a route back to the owning shard.
    pub(crate) fn alloc_data_id(&mut self, origin: NodeId) -> DataId {
        match self.shard.as_mut() {
            Some(ctl) => {
                let c = ctl.next_data[origin.index()];
                // A wrapped counter would alias packet 0's slot.
                ctl.next_data[origin.index()] =
                    c.checked_add(1).expect("one origin minted 2^32 packets");
                DataId((u64::from(origin.0) << 32) | u64::from(c))
            }
            None => {
                let id = DataId(self.next_data_id);
                self.next_data_id += 1;
                id
            }
        }
    }

    /// Computes the arrival time for a unicast and updates both radios'
    /// busy horizons.
    fn tx_schedule(&mut self, from: NodeId, to: NodeId, size_bits: u32) -> SimTime {
        let base = self.tx_base_schedule(from, size_bits);
        let arrival = base + self.sample_jitter();
        self.bump_receiver(to, arrival);
        arrival
    }

    /// Queues the frame on the sender's radio and returns the time its
    /// transmission completes (before jitter). Every frame accepted here in
    /// the measured window feeds the congestion accounting: its queue wait
    /// (how long the radio was already busy) goes to the queue-delay
    /// histogram, its airtime to the sender's utilization counter.
    /// Setup-phase traffic (`unbounded_queue`) stays invisible, like the
    /// queue-overflow checks.
    fn tx_base_schedule(&mut self, from: NodeId, size_bits: u32) -> SimTime {
        let service = self.service_time(size_bits);
        let now = self.now.as_micros();
        let measured =
            !self.unbounded_queue && now >= (SimTime::ZERO + self.cfg.warmup).as_micros();
        let node = &mut self.nodes[from.index()];
        let start = now.max(node.busy_until_micros);
        let done = start + service.as_micros();
        node.busy_until_micros = done;
        if measured {
            let wait = start - now;
            self.metrics.queue_hist.record(wait);
            self.metrics.queue_max_us = self.metrics.queue_max_us.max(wait);
            node.tx_busy_micros += service.as_micros();
        }
        SimTime::from_micros(done)
    }

    /// The one *model* fork on `self.shard` (every other is mechanism: RNG
    /// streams, event routing, id minting, ACK home, duplicate-ACK elision,
    /// claims, trace buffering). Serially, with `radio.receiver_occupancy`
    /// positive, a frame reserves its receiver's radio at push time until
    /// its arrival: `busy_until = max(busy_until, arrival)` — the contention
    /// model EXPERIMENTS.md's flooding-baseline verdicts depend on. The
    /// sharded engine models no receiver occupancy at all and ignores the
    /// field: the receiver may live in a shard running concurrently, and
    /// the only write its owner could make on arrival,
    /// `busy_until = max(busy_until, now)`, changes nothing, because every
    /// reader takes `max(now', busy_until)` or `busy_until − now'` at a
    /// `now' ≥ now` (ROADMAP item 1(a)).
    fn bump_receiver(&mut self, to: NodeId, arrival: SimTime) {
        if self.shard.is_some() || self.cfg.radio.receiver_occupancy <= 0.0 {
            return;
        }
        let node = &mut self.nodes[to.index()];
        node.busy_until_micros = node.busy_until_micros.max(arrival.as_micros());
    }

    /// Per-frame service time: payload serialization at the channel bitrate
    /// plus fixed MAC overhead.
    pub fn service_time(&self, size_bits: u32) -> SimDuration {
        let ser = SimDuration::from_secs_f64(f64::from(size_bits) / self.cfg.radio.bitrate_bps);
        ser + MAC_OVERHEAD
    }

    fn sample_jitter(&mut self) -> SimDuration {
        let draw = self.sim_rng().gen_range(0..=MAX_JITTER.as_micros());
        SimDuration::from_micros(draw)
    }

    fn charge_tx(&mut self, node: NodeId, account: EnergyAccount) {
        let model = EnergyModel::PAPER;
        let state = &mut self.nodes[node.index()];
        state.battery = (state.battery - model.tx_joules).max(0.0);
        state.consumed += model.tx_joules;
        // The paper's energy metric counts sensors only (actuators are
        // resource-rich / mains-powered).
        if matches!(state.kind, NodeKind::Sensor) {
            self.metrics.energy.charge_tx(&model, account);
        }
        self.deplete_check(node);
    }

    /// Battery death: a drained sensor breaks down for good (only when
    /// `faults.battery_death` is set).
    fn deplete_check(&mut self, node: NodeId) {
        if !self.cfg.faults.battery_death {
            return;
        }
        let now = self.now.as_micros();
        let state = &mut self.nodes[node.index()];
        if state.battery <= 0.0 && !state.faulty && matches!(state.kind, NodeKind::Sensor) {
            state.faulty = true;
            state.depleted = true;
            state.fault_since_micros = Some(now);
        }
    }

    /// Charges receive energy; invoked by the runner when a frame is
    /// actually received (a receiver that died in flight pays nothing).
    pub(crate) fn charge_rx(&mut self, node: NodeId, account: EnergyAccount) {
        let model = EnergyModel::PAPER;
        let state = &mut self.nodes[node.index()];
        state.battery = (state.battery - model.rx_joules).max(0.0);
        state.consumed += model.rx_joules;
        if matches!(state.kind, NodeKind::Sensor) {
            self.metrics.energy.charge_rx(&model, account);
        }
        self.deplete_check(node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn record(origin: u32) -> DataRecord {
        DataRecord {
            origin: NodeId(origin),
            created: SimTime::from_micros(u64::from(origin)),
            size_bits: 8_000,
            delivered: None,
            measured: true,
            dest: None,
        }
    }

    /// An id as the sharded engine mints it.
    fn tagged(origin: u32, n: u32) -> DataId {
        DataId(u64::from(origin) << 32 | u64::from(n))
    }

    /// The store's dense pages, the capacity they hold between them, and
    /// the capacities of the tagged lane's two vectors: any allocation
    /// changes one of them.
    fn capacities(store: &PacketStore) -> [usize; 4] {
        let held = store.pages.iter().map(|page| page.slots.capacity() + page.dests.capacity()).sum();
        [store.pages.capacity(), held, store.directory.capacity(), store.arena.capacity()]
    }

    #[test]
    fn unknown_ids_resolve_to_none() {
        let mut store = PacketStore::new(8);
        assert_eq!(store.get(DataId(0)), None);
        assert_eq!(store.get(tagged(3, 0)), None);
        store.insert(DataId(1), record(1));
        store.insert(tagged(3, 1), record(3));
        let before = capacities(&store);
        // Below, between and past what was inserted, in both layouts; in a
        // page no packet claimed; for origins the deployment does not have.
        for id in [
            DataId(0),
            DataId(2),
            DataId(u64::from(u32::MAX)),
            tagged(3, 0),
            tagged(3, 16),
            tagged(3, u32::MAX),
            tagged(4, 1),
            tagged(8, 1),
            DataId(u64::MAX),
        ] {
            assert_eq!(store.get(id), None, "{id}");
            assert_eq!(store.mark_delivered(id), None, "{id}");
        }
        assert_eq!(capacities(&store), before, "a lookup never allocates");
        assert_eq!(store.get(DataId(1)), Some(Packet::from(&record(1))));
    }

    #[test]
    fn an_origin_tagged_id_round_trips_beside_serial_ids() {
        let mut store = PacketStore::new(3);
        store.insert(DataId(0), record(0));
        store.insert(DataId(1 << 32), record(1)); // origin 1, n 0: low word collides with id 0
        store.insert(tagged(2, 1_000), record(2)); // sparse: nothing before it in its page
        assert_eq!(store.get(DataId(0)), Some(Packet::from(&record(0))));
        assert_eq!(store.get(DataId(1 << 32)), Some(Packet::from(&record(1))));
        assert_eq!(store.get(tagged(2, 1_000)), Some(Packet::from(&record(2))));
        assert_eq!(store.get(tagged(2, 999)), None);
        store.mark_delivered(DataId(1 << 32)).expect("first delivery");
        assert!(store.get(DataId(1 << 32)).expect("present").delivered);
        assert!(!store.get(DataId(0)).expect("present").delivered);
        assert_eq!(store.pages.len(), 1, "tagged ids never size the dense lane");
        assert_eq!(store.pages[0].slots.len(), 1, "tagged ids never size the dense lane");
    }

    #[test]
    #[should_panic(expected = "names an origin outside the deployment")]
    fn storing_a_packet_of_an_origin_outside_the_deployment_is_a_bug() {
        PacketStore::new(3).insert(tagged(3, 0), record(3));
    }

    #[test]
    fn second_delivery_of_one_packet_is_ignored() {
        let mut ctx = crate::runner::build_ctx::<()>(SimConfig::smoke());
        let actuator = ctx.actuator_ids()[0];
        ctx.now = SimTime::from_secs(1);
        for id in [DataId(0), tagged(5, 0)] {
            ctx.data.insert(id, record(5));
            ctx.deliver_data(id, actuator);
            assert!(ctx.data.get(id).expect("present").delivered);
            ctx.now += SimDuration::from_millis(5);
            ctx.deliver_data(id, actuator);
        }
        assert_eq!(ctx.metrics.delivered_packets, 2);
    }

    /// Counts the events a run traces.
    #[derive(Default)]
    struct Traced(usize);

    impl crate::trace::TraceSink for Traced {
        fn on_event(&mut self, _: &crate::trace::TraceEvent) {
            self.0 += 1;
        }
    }

    #[test]
    fn dropping_an_unknown_packet_is_a_no_op() {
        let mut ctx = crate::runner::build_ctx::<()>(SimConfig::smoke());
        let traced = std::sync::Arc::new(std::sync::Mutex::new(Traced::default()));
        ctx.sinks.push(Box::new(traced.clone()));
        for id in [DataId(0), DataId(999), tagged(7, 1)] {
            ctx.drop_data(id);
            ctx.deliver_data(id, ctx.actuator_ids()[0]);
        }
        assert_eq!(ctx.metrics.dropped_packets, 0);
        assert_eq!(ctx.metrics.delivered_packets, 0);
        assert_eq!(traced.lock().expect("sole user").0, 0, "nothing was traced");
        assert_eq!(capacities(&ctx.data), [0; 4]);
    }

    /// The shadow map must notice a store that resolves an id differently
    /// from a map (here: a record lost from the dense lane).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "packet store and its shadow map disagree")]
    fn shadow_catches_a_planted_disagreement() {
        let mut store = PacketStore::new(1);
        store.insert(DataId(0), record(0));
        store.pages[0].slots[0] = Slot::EMPTY;
        store.get(DataId(0));
    }

    /// No field's range shrank with the slot: the widest record round-trips
    /// in both lanes.
    #[test]
    fn a_dense_slot_is_twelve_bytes_and_holds_every_field() {
        assert_eq!(std::mem::size_of::<Slot>(), 12);
        assert_eq!(std::mem::size_of::<(Slot, u32)>(), 16, "a tagged slot with its dest");
        let widest = DataRecord {
            origin: NodeId(u32::MAX - 1),
            created: SimTime::from_micros((1 << 62) - 1),
            size_bits: 8_000,
            delivered: None,
            measured: false,
            dest: Some(NodeId(u32::MAX - 1)),
        };
        let mut store = PacketStore::new(2);
        for id in [DataId(0), tagged(1, 0)] {
            store.insert(id, widest.clone());
            assert_eq!(store.get(id), Some(Packet::from(&widest)));
            let first = store.mark_delivered(id).expect("first delivery");
            assert_eq!(first, Packet::from(&widest));
            assert_eq!(store.get(id), Some(Packet { delivered: true, ..first }));
        }
    }

    /// 300 000 serial ids fill dense pages 0–8 — the doubling pages 0–6
    /// (130 048 ids), the first 2^17-id page and part of the next — and
    /// each page is allocated once at its final size: its buffer never
    /// moves, so no record is copied, and the lane holds 12 bytes per
    /// record plus at most one page of room not yet used.
    #[test]
    fn serial_ids_fill_pages_that_never_move() {
        const IDS: usize = 300_000;
        // Both sides of every boundary the size rule draws.
        let mut start = 0;
        for page in 0..10 {
            let size = (1_024 << page).min(1 << 17);
            assert_eq!(PacketStore::dense_capacity(page), size);
            assert_eq!(PacketStore::dense_page(start), (page, 0));
            assert_eq!(PacketStore::dense_page(start + size - 1), (page, size - 1));
            start += size;
        }
        let mut store = PacketStore::new(1);
        let mut buffers: Vec<*const Slot> = Vec::new();
        for n in 0..IDS {
            store.insert(DataId(n as u64), record(0));
            let (page, _) = PacketStore::dense_page(n);
            let buffer = store.pages[page].slots.as_ptr();
            if page == buffers.len() {
                buffers.push(buffer);
            }
            assert_eq!(buffers[page], buffer, "page {page} moved at id {n}");
        }
        let now: Vec<_> = store.pages.iter().map(|page| page.slots.as_ptr()).collect();
        assert_eq!(now, buffers);
        assert_eq!(store.pages.len(), 9);
        for (k, page) in store.pages.iter().enumerate() {
            assert_eq!(page.slots.capacity(), PacketStore::dense_capacity(k), "page {k}");
            assert_eq!(page.dests.capacity(), 0, "no packet has a destination");
        }
        let held: usize = store.pages.iter().map(|page| page.slots.capacity()).sum::<usize>()
            * std::mem::size_of::<Slot>();
        assert!(held >= 12 * IDS && held - 12 * IDS <= 12 * PacketStore::DENSE_MAX, "{held} bytes");
        for n in [0, 1_023, 1_024, 130_047, 130_048, 261_119, 261_120, IDS - 1] {
            assert_eq!(store.get(DataId(n as u64)), Some(Packet::from(&record(0))), "{n}");
        }
        assert_eq!(store.get(DataId(IDS as u64)), None);
    }

    /// A page's `dest` column starts with the first packet that has a
    /// destination; every earlier packet of the page reads none, and a
    /// page without one never allocates a column.
    #[test]
    fn a_destination_first_seen_mid_page_leaves_earlier_records_without_one() {
        let mut store = PacketStore::new(8);
        let with_dest = |n: u32, dest: Option<u32>| DataRecord { dest: dest.map(NodeId), ..record(n) };
        for n in 0..1_500u32 {
            store.insert(DataId(n.into()), with_dest(n, (n == 700).then_some(3)));
        }
        assert_eq!(store.pages[0].dests.capacity(), PacketStore::DENSE0);
        assert_eq!(store.pages[1].dests.capacity(), 0, "page 1 has no destination");
        for n in 0..1_500u32 {
            let dest = store.get(DataId(n.into())).expect("stored").dest;
            assert_eq!(dest, (n == 700).then_some(NodeId(3)), "{n}");
        }
        // Rewriting a record before the column's first entry, and one of a
        // page without a column, keeps the rest as they were.
        store.insert(DataId(5), with_dest(5, Some(6)));
        store.insert(DataId(1_030), with_dest(1_030, Some(7)));
        assert_eq!(store.pages[1].dests.len(), store.pages[1].slots.len());
        for n in 0..1_500u32 {
            let dest = store.get(DataId(n.into())).expect("stored").dest;
            let expected = [(5, 6), (700, 3), (1_030, 7)].iter().find(|&&(id, _)| id == n);
            assert_eq!(dest, expected.map(|&(_, d)| NodeId(d)), "{n}");
        }
    }

    /// DESIGN.md §14's bound for a hot origin: a million packets from one
    /// sensor among 25 000 claim 16 pages — 16 directory rows of 100 kB and
    /// an arena the packets fill to the last slot — where fixed 16-slot
    /// pages would want 62 500 rows (6 GB) and one lane per origin 25 000
    /// allocations before the first packet moved.
    #[test]
    fn a_hot_origin_costs_log_many_pages_and_allocations() {
        const NODES: usize = 25_000;
        const PACKETS: u32 = 1 << 20;
        let mut store = PacketStore::new(NODES);
        let mut allocations = 0;
        let mut mint = |store: &mut PacketStore, origin, n| {
            let before = capacities(store);
            store.insert(tagged(origin, n), record(origin));
            allocations += usize::from(capacities(store) != before);
        };
        // Sixteen full pages of the hot origin, then one packet — one
        // first page — from every other node.
        for n in 0..PACKETS - 16 {
            mint(&mut store, 7, n);
        }
        for origin in (1..NODES as u32).filter(|&origin| origin != 7) {
            mint(&mut store, origin, 0);
        }
        assert!(allocations < 64, "{allocations} allocations");
        let bytes = store.directory.capacity() * 4
            + store.arena.capacity() * std::mem::size_of::<(Slot, u32)>();
        assert!(bytes < 64 << 20, "{bytes} bytes");
        assert_eq!(store.get(tagged(7, PACKETS - 17)), Some(Packet::from(&record(7))));
        assert_eq!(store.get(tagged(7, PACKETS - 16)), None);
        assert_eq!(store.get(tagged(NODES as u32 - 1, 0)), Some(Packet::from(&record(NODES as u32 - 1))));
    }

    // One random script of inserts, reads and deliveries over both id
    // layouts, against a plain map (explicitly, so it also holds in release
    // test builds, where the shadow is compiled out). The script runs on
    // top of a skewed population — one origin that minted `hot` packets
    // beside `ones` origins that minted one — and reaches for sparse `n`
    // and for origins the deployment does not have.
    proptest! {
        #[test]
        fn store_matches_a_hash_map(
            hot in prop_oneof![20 => 0u32..64, 11 => 0u32..3_000, 1 => 100_000u32..100_001],
            ones in 0u32..4_000,
            dense in 0u32..3_000,
            first_dest in 0u32..3_000,
            script in prop::collection::vec(
                (0u8..4, 0usize..64, 0u32..48, 0u64..1 << 62, 0u8..2, 0u32..10),
                0..200,
            )
        ) {
            const NODES: u32 = 5_000;
            const HOT: u32 = 1;
            // Where dense pages 1–7 start, page 7 the first of 2^17 ids;
            // 24 stands for page 0's start (ids 0–47).
            const DENSE_EDGES: [u32; 8] = [24, 1_024, 3_072, 7_168, 15_360, 31_744, 64_512, 130_048];
            let mut store = PacketStore::new(NODES as usize);
            let mut map: HashMap<DataId, Packet> = HashMap::new();
            let mint = |store: &mut PacketStore, map: &mut HashMap<DataId, Packet>, id, record| {
                map.insert(id, Packet::from(&record));
                store.insert(id, record);
            };
            for n in 0..hot {
                mint(&mut store, &mut map, tagged(HOT, n), record(HOT));
            }
            for origin in 0..ones {
                mint(&mut store, &mut map, tagged(NODES - 1 - origin, 0), record(origin));
            }
            // Serial ids whose destinations start at `first_dest`, every
            // other packet from there: both kinds mixed within a page.
            for n in 0..dense {
                let dest = (n >= first_dest && n % 2 == 0).then_some(NodeId(n % NODES));
                mint(&mut store, &mut map, DataId(n.into()), DataRecord { dest, ..record(n) });
            }
            for (op, place, n, created, measured, dest) in script {
                // Origin 0 is the serial layout, the rest origin-tagged: the
                // hot one, quiet ones, and three the deployment lacks.
                let origin = [0, HOT, 2, 3, NODES - 1, NODES, NODES + 7, u32::MAX][place % 8];
                // Mostly the first pages; sometimes far up the hot range.
                // Serial ids straddle a dense page boundary.
                let n = if origin == 0 {
                    DENSE_EDGES[place / 8] - 24 + n
                } else {
                    n + [0, 0, 0, 0, 16, 997, 20_011, 99_990][place / 8]
                };
                let id = tagged(origin, n);
                match op {
                    0 | 1 if origin < NODES => {
                        let record = DataRecord {
                            created: SimTime::from_micros(created),
                            measured: measured == 1,
                            // 0 = the paper trickle's "no destination".
                            dest: dest.checked_sub(1).map(NodeId),
                            ..record(n)
                        };
                        mint(&mut store, &mut map, id, record);
                    }
                    0..=2 => prop_assert_eq!(store.get(id), map.get(&id).copied()),
                    _ => {
                        // A first delivery answers the packet, a second (or
                        // an unknown id) nothing, and the flag stays set.
                        let expected = map.get_mut(&id).filter(|p| !p.delivered).map(|p| {
                            let before = *p;
                            p.delivered = true;
                            before
                        });
                        let before = capacities(&store);
                        prop_assert_eq!(store.mark_delivered(id), expected);
                        prop_assert_eq!(store.mark_delivered(id), None);
                        prop_assert_eq!(store.get(id), map.get(&id).copied());
                        prop_assert_eq!(capacities(&store), before);
                    }
                }
            }
            for (&id, &packet) in &map {
                prop_assert_eq!(store.get(id), Some(packet));
            }
            // Ids no one minted: the neighbourhood of every page boundary
            // of every origin the script could name.
            for origin in [0, HOT, 2, 3, NODES - 1, NODES, NODES + 7, u32::MAX] {
                let edges = DENSE_EDGES.iter().flat_map(|&edge| edge - 24..edge + 24);
                for n in (0..48).chain(990..1_100).chain(20_000..20_100).chain(99_980..100_100).chain(edges) {
                    let id = tagged(origin, n);
                    prop_assert_eq!(store.get(id), map.get(&id).copied());
                }
            }
        }
    }
}
