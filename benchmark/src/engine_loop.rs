//! `engine_loop`: the per-process work of the `refer-node` daemon, all
//! nineteen processes of the `refer-node cluster` scenario in one thread.
//!
//! Each node owns an [`EngineCore<ReferProtocol>`] booted the way the
//! daemon boots: its own replay of the seeded construction, a
//! [`WorldView`] frozen out of it. Every `Output::Send` is carried as the
//! daemon carries it — `wire::encode_datagram`, then on the receiving
//! side `decode_datagram`, `register_packet`, `Input::Frame` — with an
//! in-memory queue where the daemon has a socket. One client drives a
//! closed loop: the next `AppData` is injected when the previous packet
//! has drained. The clock is virtual (one tick per injection), so no
//! delay figure applies; delivery does.
//!
//! The cell is the committed cluster scenario (topology seed 1, where 14
//! of 16 sensors have access: the 0.875 the live cluster measures). The
//! benchmark seed draws the client's schedule — which sensor sends each
//! packet — so every seed loads the same nineteen engines.
//!
//! `wire` is a private module of a binary crate, so the unmodified file
//! is compiled in here by path. It is never copied.

// `rustfmt::skip` keeps `cargo fmt` in this crate from rewriting a file
// that belongs to another one.
#[path = "../../crates/node/src/wire.rs"]
#[allow(dead_code)]
#[rustfmt::skip]
mod wire;

use crate::probe::Probe;
use crate::spans::{count, span, Counter, Span};
use crate::workloads::{Outcome, Size};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use refer::{ReferConfig, ReferMsg, ReferProtocol};
use refer_proto::{EngineCore, Input, Output, PacketMeta, SansIo, WorldView};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use wsan_sim::trace::TraceEvent;
use wsan_sim::{runner, Area, DataId, Message, NodeId, SimConfig, SimDuration, SimTime};

const SENSORS: usize = 16;
const ACTUATORS: usize = 3;
/// Packets per second per sensor of the cluster scenario; sets the
/// virtual clock's tick.
const RATE_PPS: u64 = 4;

/// The seed of the committed cluster scenario.
const TOPOLOGY_SEED: u64 = 1;

/// The scenario of `refer-node cluster` (`Scenario::config` in
/// `crates/node/src/main.rs`, which a binary crate cannot export): one
/// K(2,3) cell, three actuators, sixteen static sensors, no faults.
pub fn config() -> SimConfig {
    let mut cfg = SimConfig::paper();
    cfg.area = Area::new(400.0, 400.0);
    cfg.sensors = SENSORS;
    cfg.actuators = ACTUATORS;
    cfg.warmup = SimDuration::from_secs(5);
    cfg.duration = SimDuration::from_secs(8);
    cfg.traffic.round_interval = SimDuration::from_secs(1);
    cfg.traffic.sources_per_round = SENSORS;
    cfg.traffic.rate_bps = RATE_PPS as f64 * f64::from(cfg.traffic.packet_bits);
    cfg.mobility.min_speed = 0.0;
    cfg.mobility.max_speed = 0.0;
    cfg.faults.count = 0;
    cfg.seed = TOPOLOGY_SEED;
    cfg
}

/// Nineteen booted engines and what their shells hold.
pub struct Cluster<T: SansIo<Payload = ReferMsg>> {
    engines: Vec<EngineCore<T>>,
    /// Armed timers per node: `(fire_at_us, tag)`.
    timers: Vec<BinaryHeap<Reverse<(u64, u64)>>>,
    sensors: Vec<NodeId>,
    packet_bits: u32,
    now_us: u64,
    /// Datagrams in flight: `(receiver, bytes)`.
    wire: VecDeque<(NodeId, Vec<u8>)>,
    /// Packets each sensor has sent so far (the low half of packet ids).
    sent: Vec<u64>,
    /// The one packet in flight and whether it has been delivered.
    current: DataId,
    current_delivered: bool,
    tally: Tally,
    /// Re-encode every decoded datagram and compare the bytes (the
    /// untimed checking run; costs one extra encode per datagram).
    verify: bool,
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Tally {
    offered: u64,
    delivered: u64,
    /// Packets the protocol gave up on (a `Dropped` trace record).
    unrouted: u64,
    /// Deliveries beyond the first of a packet.
    duplicates: u64,
    handles: u64,
    timer_fires: u64,
    datagrams: u64,
    wire_bytes: u64,
    reencode_mismatches: u64,
}

/// Boots every node as the daemon's `cmd_run` does: its own replay of
/// the construction, snapshot, engine. `wrap` lets the traced run put a
/// [`Probe`] around each protocol.
fn boot_with<T: SansIo<Payload = ReferMsg>>(
    verify: bool,
    wrap: impl Fn(ReferProtocol) -> T,
) -> Cluster<T> {
    let cfg = config();
    let warmup = cfg.warmup;
    let nodes = SENSORS + ACTUATORS;
    let mut sensors = Vec::new();
    let engines = (0..nodes)
        .map(|_| {
            let mut proto = ReferProtocol::new(ReferConfig::default());
            let ctx = runner::construct(cfg.clone(), &mut proto, warmup);
            let world = WorldView::from_sim(&ctx);
            sensors = world.sensor_ids().to_vec();
            EngineCore::new(wrap(proto), world)
        })
        .collect();
    Cluster {
        engines,
        timers: (0..nodes).map(|_| BinaryHeap::new()).collect(),
        sent: vec![0; sensors.len()],
        sensors,
        packet_bits: cfg.traffic.packet_bits,
        now_us: warmup.as_micros(),
        wire: VecDeque::new(),
        current: DataId(u64::MAX),
        current_delivered: false,
        tally: Tally::default(),
        verify,
    }
}

/// The bare boot: this workload's set-up.
pub fn boot() -> Cluster<ReferProtocol> {
    boot_with(false, |proto| proto)
}

impl<T: SansIo<Payload = ReferMsg>> Cluster<T> {
    /// Feeds one input to `node`'s engine and executes the outputs the
    /// way the daemon's `run_outputs` does, with the queue for a socket.
    fn handle(&mut self, node: NodeId, kind: Span, input: Input<ReferMsg>) {
        let outputs: Vec<Output<ReferMsg>> = {
            let _span = span(kind);
            self.engines[node.index()].handle(input).collect()
        };
        self.tally.handles += 1;
        count(Counter::EngineOutputs, outputs.len() as u64);
        for out in outputs {
            match out {
                Output::Send {
                    from,
                    to,
                    size_bits,
                    account,
                    broadcast,
                    payload,
                } => {
                    // Only the packet in flight is on the wire, so its
                    // creation time is the current tick.
                    let created_us = match &payload {
                        ReferMsg::Data(_) => self.now_us,
                        _ => 0,
                    };
                    let msg = Message {
                        from,
                        size_bits,
                        account,
                        broadcast,
                        payload,
                    };
                    let bytes = {
                        let _span = span(Span::WireEncode);
                        wire::encode_datagram(to, created_us, &msg)
                    };
                    self.tally.datagrams += 1;
                    self.tally.wire_bytes += bytes.len() as u64;
                    count(Counter::WireBytes, bytes.len() as u64);
                    self.wire.push_back((to, bytes));
                }
                Output::ArmTimer {
                    node: owner,
                    delay,
                    tag,
                } => {
                    // Each process arms only its own node's timers.
                    if owner == node {
                        let at = self.now_us + delay.as_micros();
                        self.timers[node.index()].push(Reverse((at, tag)));
                    }
                }
                Output::Deliver { packet, .. } => {
                    if packet == self.current && !self.current_delivered {
                        self.current_delivered = true;
                        self.tally.delivered += 1;
                    } else {
                        self.tally.duplicates += 1;
                    }
                }
                Output::Trace(TraceEvent::Dropped { .. }) => self.tally.unrouted += 1,
                Output::Trace(_) => {}
            }
        }
    }

    /// The daemon's `on_datagram`: decode, register a data packet's
    /// origin knowledge, feed the frame in.
    fn on_datagram(&mut self, to: NodeId, bytes: &[u8]) {
        let decoded = {
            let _span = span(Span::WireDecode);
            wire::decode_datagram(bytes)
        };
        let (addressed, created_us, msg) = decoded.expect("a datagram this loop encoded decodes");
        assert_eq!(addressed, to, "the envelope names the queue's receiver");
        if self.verify && wire::encode_datagram(addressed, created_us, &msg) != bytes {
            self.tally.reencode_mismatches += 1;
        }
        if let ReferMsg::Data(frame) = &msg.payload {
            let data = frame.data;
            self.engines[to.index()].register_packet(
                data,
                PacketMeta {
                    origin: NodeId((data.0 >> 32) as u32),
                    size_bits: self.packet_bits,
                    dest: None,
                    created: SimTime::from_micros(created_us),
                },
            );
        }
        let at = SimTime::from_micros(self.now_us);
        self.handle(to, Span::HandleFrame, Input::Frame { at, to, msg });
    }

    fn drain_wire(&mut self) {
        while let Some((to, bytes)) = self.wire.pop_front() {
            self.on_datagram(to, &bytes);
        }
    }

    fn fire_due_timers(&mut self) {
        for index in 0..self.engines.len() {
            while let Some(&Reverse((fire_at, tag))) = self.timers[index].peek() {
                if fire_at > self.now_us {
                    break;
                }
                self.timers[index].pop();
                self.tally.timer_fires += 1;
                let node = NodeId(index as u32);
                let at = SimTime::from_micros(self.now_us);
                self.handle(node, Span::HandleTimer, Input::TimerFired { at, node, tag });
                self.drain_wire();
            }
        }
    }

    /// The closed loop: `packets` packets, each from a sensor the seeded
    /// schedule draws, each injected once the one before has drained.
    fn drive(&mut self, seed: u64, packets: u64) -> Outcome {
        let tick_us = 1_000_000 / (RATE_PPS * SENSORS as u64);
        let mut schedule = StdRng::seed_from_u64(seed);
        for _ in 0..packets {
            let s = schedule.gen_range(0..self.sensors.len());
            let node = self.sensors[s];
            self.now_us += tick_us;
            self.fire_due_timers();
            self.current = DataId((u64::from(node.0) << 32) | self.sent[s]);
            self.sent[s] += 1;
            self.current_delivered = false;
            self.tally.offered += 1;
            let input = Input::AppData {
                at: SimTime::from_micros(self.now_us),
                node,
                packet: self.current,
                size_bits: self.packet_bits,
                dest: None,
            };
            self.handle(node, Span::HandleAppData, input);
            self.drain_wire();
        }
        let t = self.tally;
        Outcome {
            summary: None,
            counts: vec![
                ("offered", t.offered),
                ("delivered", t.delivered),
                ("unrouted", t.unrouted),
                ("duplicates", t.duplicates),
                ("handles", t.handles),
                ("timer_fires", t.timer_fires),
                ("datagrams", t.datagrams),
                ("wire_bytes", t.wire_bytes),
                ("reencode_mismatches", t.reencode_mismatches),
            ],
        }
    }
}

fn packets(size: Size) -> u64 {
    match size {
        Size::Full => 128_000,
        Size::Smoke => 800,
    }
}

/// One repetition: boot nineteen engines, drive the loop. The probed
/// run is also the checking run: it re-encodes every datagram.
pub fn run(seed: u64, size: Size, probed: bool) -> Outcome {
    if probed {
        boot_with(true, |proto| Probe::new(proto, SimTime::ZERO)).drive(seed, packets(size))
    } else {
        boot().drive(seed, packets(size))
    }
}

/// What must hold of an `engine_loop` outcome beyond repeating exactly.
pub fn check(outcome: &Outcome) -> Result<(), String> {
    let get = |name: &str| outcome.count(name).unwrap_or(u64::MAX);
    if get("duplicates") != 0 {
        return Err(format!(
            "{} packets were delivered twice",
            get("duplicates")
        ));
    }
    if get("delivered") + get("unrouted") != get("offered") {
        return Err(format!(
            "delivered {} + unrouted {} != offered {}",
            get("delivered"),
            get("unrouted"),
            get("offered")
        ));
    }
    if get("reencode_mismatches") != 0 {
        return Err(format!(
            "{} datagrams re-encoded to other bytes",
            get("reencode_mismatches")
        ));
    }
    Ok(())
}
