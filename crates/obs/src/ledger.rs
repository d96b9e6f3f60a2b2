//! Packet lifecycle ledger: folds a trace event stream into per-packet
//! causal chains for forensics.
//!
//! Feed any iterator of [`TraceEvent`]s (from a [`VecSink`](crate::sink::VecSink),
//! a parsed JSONL file, whatever) into [`PacketLedger::from_events`] and
//! query the result: what happened to packet X, which packets crossed
//! node Y. Each record tells the
//! packet's whole story — origin, every forwarding decision with its
//! queueing delay and routing reason, and how it ended.

use std::collections::BTreeMap;
use wsan_sim::trace::{HopReason, TraceEvent};
use wsan_sim::{DataId, DropReason, LogHistogram, NodeId, SimTime};

/// One forwarding step in a packet's chain.
#[derive(Debug, Clone, PartialEq)]
pub struct HopRecord {
    /// When the frame was handed to the radio.
    pub at: SimTime,
    /// Forwarding node.
    pub from: NodeId,
    /// Chosen next hop.
    pub to: NodeId,
    /// The routing decision behind the choice.
    pub reason: HopReason,
    /// Sender's radio backlog when the frame was queued, seconds.
    pub queue_s: f64,
}

/// How a packet's story ended (so far).
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Reached an actuator.
    Delivered {
        /// When.
        at: SimTime,
        /// Receiving actuator.
        node: NodeId,
        /// End-to-end delay, seconds.
        delay_s: f64,
        /// Transmissions end to end as counted by the protocol (0 =
        /// unreported).
        hops: u32,
    },
    /// The protocol gave up.
    Dropped {
        /// When.
        at: SimTime,
        /// Why.
        reason: DropReason,
    },
    /// Neither delivered nor dropped by the end of the trace.
    InFlight,
}

/// The full causal chain of one application packet.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketRecord {
    /// The packet.
    pub packet: DataId,
    /// Originating sensor, if the trace caught the origin event.
    pub origin: Option<NodeId>,
    /// Matrix-assigned destination sensor, if the workload assigned one.
    pub dest: Option<NodeId>,
    /// Emission time, if the trace caught the origin event.
    pub created: Option<SimTime>,
    /// Whether the packet counts toward metrics (emitted after warmup).
    pub measured: bool,
    /// Forwarding steps in trace order.
    pub hops: Vec<HopRecord>,
    /// How the story ended.
    pub outcome: Outcome,
    /// `Delivered` events folded for the packet: more than one means it
    /// was delivered twice.
    pub deliveries: u32,
}

impl PacketRecord {
    fn new(packet: DataId) -> Self {
        PacketRecord {
            packet,
            origin: None,
            dest: None,
            created: None,
            measured: false,
            hops: Vec::new(),
            outcome: Outcome::InFlight,
            deliveries: 0,
        }
    }

    /// Total queueing delay the packet accumulated across its hops,
    /// seconds — the congestion share of its end-to-end delay.
    pub fn total_queue_s(&self) -> f64 {
        self.hops.iter().map(|h| h.queue_s).sum()
    }

    /// The hop where the packet queued longest, if it hopped at all.
    pub fn worst_queue_hop(&self) -> Option<&HopRecord> {
        self.hops
            .iter()
            .max_by(|a, b| a.queue_s.total_cmp(&b.queue_s))
    }

    /// Every node the packet touched, in order of first appearance:
    /// origin, then each hop's endpoints, then the delivering actuator.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        let push = |n: NodeId, out: &mut Vec<NodeId>| {
            if !out.contains(&n) {
                out.push(n);
            }
        };
        if let Some(o) = self.origin {
            push(o, &mut out);
        }
        for h in &self.hops {
            push(h.from, &mut out);
            push(h.to, &mut out);
        }
        if let Outcome::Delivered { node, .. } = self.outcome {
            push(node, &mut out);
        }
        out
    }

    /// A human-readable rendering of the chain, one line per step, used
    /// by `trace packet`.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        let id = self.packet.0;
        match (self.origin, self.created) {
            (Some(origin), Some(at)) => {
                let tag = if self.measured { "" } else { " (warmup)" };
                out.push_str(&format!(
                    "packet {id}: origin {} at {}us{tag}\n",
                    origin.0,
                    at.as_micros()
                ));
            }
            _ => out.push_str(&format!("packet {id}: origin not in trace\n")),
        }
        if let Some(dest) = self.dest {
            out.push_str(&format!("  matrix destination: node {}\n", dest.0));
        }
        for (i, h) in self.hops.iter().enumerate() {
            out.push_str(&format!(
                "  hop {:>2}  {}us  {} -> {}  [{}]  queue {:.1}ms\n",
                i + 1,
                h.at.as_micros(),
                h.from.0,
                h.to.0,
                h.reason.as_str(),
                h.queue_s * 1e3
            ));
        }
        match &self.outcome {
            Outcome::Delivered { at, node, delay_s, hops } => out.push_str(&format!(
                "  DELIVERED at node {} at {}us, delay {:.1}ms, {hops} transmissions\n",
                node.0,
                at.as_micros(),
                delay_s * 1e3
            )),
            Outcome::Dropped { at, reason } => out.push_str(&format!(
                "  DROPPED at {}us: {}\n",
                at.as_micros(),
                reason.as_str()
            )),
            Outcome::InFlight => out.push_str("  still in flight at end of trace\n"),
        }
        let queued = self.total_queue_s();
        if queued > 0.0 {
            let worst = self.worst_queue_hop().expect("queueing implies a hop");
            out.push_str(&format!(
                "  queueing: {:.1}ms total, worst {:.1}ms at node {}\n",
                queued * 1e3,
                worst.queue_s * 1e3,
                worst.from.0
            ));
        }
        out
    }
}

/// Aggregate counts over a ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Packets seen.
    pub packets: usize,
    /// Packets delivered.
    pub delivered: usize,
    /// Packets dropped.
    pub dropped: usize,
    /// Packets still in flight at end of trace.
    pub in_flight: usize,
    /// Total forwarding steps observed.
    pub hops: usize,
}

/// Delivery, delay and hop count of a ledger's measured packets, folded by
/// the rule [`RunSummary`](wsan_sim::RunSummary) folds a run's: a delay
/// goes into a [`LogHistogram`] as microseconds and is read back by
/// [`LogHistogram::quantile_secs`]; a hop count is recorded only when the
/// protocol reported one (> 0). So a simulated run's trace folds to the
/// fields of its own summary, and a live cluster's to numbers comparable
/// with them. Undefined values are NaN, as in the summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredStats {
    /// Measured packets emitted.
    pub offered: u64,
    /// Measured packets delivered.
    pub delivered: u64,
    /// `delivered / offered`.
    pub delivery_ratio: f64,
    /// Median end-to-end delay, seconds.
    pub delay_p50_s: f64,
    /// 95th-percentile end-to-end delay, seconds.
    pub delay_p95_s: f64,
    /// 99th-percentile end-to-end delay, seconds.
    pub delay_p99_s: f64,
    /// Median transmissions end to end.
    pub hop_p50: f64,
    /// 99th-percentile transmissions end to end.
    pub hop_p99: f64,
}

/// Per-packet causal chains folded from a trace event stream.
#[derive(Debug, Clone, Default)]
pub struct PacketLedger {
    records: BTreeMap<u64, PacketRecord>,
}

impl PacketLedger {
    /// Folds an event stream. Events not tied to a packet (sends, faults,
    /// suspicions) are ignored; everything else lands in its packet's
    /// record in stream order.
    pub fn from_events<I>(events: I) -> Self
    where
        I: IntoIterator<Item = TraceEvent>,
    {
        let mut ledger = PacketLedger::default();
        for event in events {
            ledger.fold(event);
        }
        ledger
    }

    fn entry(&mut self, packet: DataId) -> &mut PacketRecord {
        self.records.entry(packet.0).or_insert_with(|| PacketRecord::new(packet))
    }

    /// Folds one event into the ledger. A `Dropped` never replaces a
    /// `Delivered` — the simulator traces nothing after a delivery, and
    /// merged live files fold in file order, not time order, so a drop
    /// folded later may well have happened earlier.
    pub fn fold(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::PacketOrigin { at, packet, origin, measured } => {
                let rec = self.entry(packet);
                rec.origin = Some(origin);
                rec.created = Some(at);
                rec.measured = measured;
            }
            TraceEvent::PacketDest { packet, dest, .. } => {
                self.entry(packet).dest = Some(dest);
            }
            TraceEvent::Hop { at, packet, from, to, reason, queue_s } => {
                self.entry(packet).hops.push(HopRecord { at, from, to, reason, queue_s });
            }
            TraceEvent::Delivered { at, packet, node, delay_s, hops } => {
                let rec = self.entry(packet);
                rec.deliveries += 1;
                rec.outcome = Outcome::Delivered { at, node, delay_s, hops };
            }
            TraceEvent::Dropped { at, packet, reason } => {
                let rec = self.entry(packet);
                if !matches!(rec.outcome, Outcome::Delivered { .. }) {
                    rec.outcome = Outcome::Dropped { at, reason };
                }
            }
            _ => {}
        }
    }

    /// The record for one packet.
    pub fn packet(&self, id: DataId) -> Option<&PacketRecord> {
        self.records.get(&id.0)
    }

    /// All records, by packet id.
    pub fn packets(&self) -> impl Iterator<Item = &PacketRecord> {
        self.records.values()
    }

    /// Number of packets seen.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no packet was seen.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Packets whose chain touches `node` (as origin, hop endpoint or
    /// delivering actuator).
    pub fn visiting(&self, node: NodeId) -> Vec<&PacketRecord> {
        self.packets().filter(|r| r.nodes().contains(&node)).collect()
    }

    /// Aggregate counts.
    pub fn stats(&self) -> LedgerStats {
        let mut stats = LedgerStats { packets: self.len(), ..LedgerStats::default() };
        for r in self.packets() {
            stats.hops += r.hops.len();
            match r.outcome {
                Outcome::Delivered { .. } => stats.delivered += 1,
                Outcome::Dropped { .. } => stats.dropped += 1,
                Outcome::InFlight => stats.in_flight += 1,
            }
        }
        stats
    }

    /// Drop counts by reason name, for `trace summary`.
    pub fn drops_by_reason(&self) -> BTreeMap<&'static str, usize> {
        let mut out = BTreeMap::new();
        for r in self.packets() {
            if let Outcome::Dropped { reason, .. } = r.outcome {
                *out.entry(reason.as_str()).or_insert(0) += 1;
            }
        }
        out
    }

    /// What is structurally wrong with a live cluster's merged ledger, one
    /// line per problem: a packet traced without its `PacketOrigin`, one
    /// delivered more than once, hops the walk from the origin leaves over.
    ///
    /// Hops come from different daemons' files and clocks, so neither fold
    /// order nor timestamps sequence them: the walk consumes, from the
    /// origin on, any hop sent from where it stands. That is exact for
    /// loop-free chains only (a simulated source's retransmission revisits
    /// nodes), so this is the live gate's check, not a general one.
    pub fn integrity_problems(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for rec in self.packets() {
            let id = rec.packet.0;
            if rec.origin.is_none() {
                problems.push(format!("packet {id}: traced without a PacketOrigin event"));
            }
            if rec.deliveries > 1 {
                problems.push(format!("packet {id}: delivered {} times", rec.deliveries));
            }
            let Some(origin) = rec.origin else { continue };
            let mut remaining: Vec<(u32, u32)> =
                rec.hops.iter().map(|h| (h.from.0, h.to.0)).collect();
            let mut cur = origin.0;
            while let Some(pos) = remaining.iter().position(|&(from, _)| from == cur) {
                cur = remaining.remove(pos).1;
            }
            if let Some(&(from, to)) = remaining.first() {
                problems.push(format!(
                    "packet {id}: {} hop(s) disconnected from the origin walk \
                     (e.g. node {from} -> node {to})",
                    remaining.len()
                ));
            }
        }
        problems
    }

    /// The measured packets folded by [`MeasuredStats`]'s rule.
    pub fn measured(&self) -> MeasuredStats {
        let mut offered = 0u64;
        let (mut delays, mut hops) = (LogHistogram::new(), LogHistogram::new());
        for record in self.packets().filter(|r| r.measured) {
            offered += 1;
            if let Outcome::Delivered { delay_s, hops: h, .. } = record.outcome {
                delays.record((delay_s * 1e6).round() as u64);
                if h > 0 {
                    hops.record(u64::from(h));
                }
            }
        }
        let hop = |q| hops.quantile(q).map_or(f64::NAN, |h| h as f64);
        MeasuredStats {
            offered,
            delivered: delays.count(),
            delivery_ratio: delays.count() as f64 / offered as f64,
            delay_p50_s: delays.quantile_secs(0.50),
            delay_p95_s: delays.quantile_secs(0.95),
            delay_p99_s: delays.quantile_secs(0.99),
            hop_p50: hop(0.50),
            hop_p99: hop(0.99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::PacketOrigin { at: t(100), packet: DataId(1), origin: NodeId(5), measured: true },
            TraceEvent::PacketDest { at: t(100), packet: DataId(1), dest: NodeId(13) },
            TraceEvent::Hop {
                at: t(110),
                packet: DataId(1),
                from: NodeId(5),
                to: NodeId(8),
                reason: HopReason::Access,
                queue_s: 0.0,
            },
            TraceEvent::Hop {
                at: t(900),
                packet: DataId(1),
                from: NodeId(8),
                to: NodeId(13),
                reason: HopReason::KautzNext,
                queue_s: 0.002,
            },
            TraceEvent::Delivered {
                at: t(2000),
                packet: DataId(1),
                node: NodeId(13),
                delay_s: 0.0019,
                hops: 3,
            },
            TraceEvent::PacketOrigin { at: t(500), packet: DataId(2), origin: NodeId(6), measured: false },
            TraceEvent::Dropped { at: t(700), packet: DataId(2), reason: DropReason::NoRoute },
            TraceEvent::PacketOrigin { at: t(5000), packet: DataId(3), origin: NodeId(7), measured: true },
            // Unrelated events the ledger must ignore.
            TraceEvent::QueueDrop { at: t(650), from: NodeId(9) },
            TraceEvent::Suspected { at: t(660), node: NodeId(9) },
        ]
    }

    #[test]
    fn folds_full_chain_with_outcome() {
        let ledger = PacketLedger::from_events(sample_events());
        assert_eq!(ledger.len(), 3);

        let rec = ledger.packet(DataId(1)).expect("packet 1");
        assert_eq!(rec.origin, Some(NodeId(5)));
        assert_eq!(rec.dest, Some(NodeId(13)));
        assert_eq!(rec.created, Some(t(100)));
        assert!(rec.measured);
        assert_eq!(rec.hops.len(), 2);
        assert_eq!(rec.hops[0].reason, HopReason::Access);
        assert_eq!(rec.hops[1].to, NodeId(13));
        assert!(matches!(rec.outcome, Outcome::Delivered { node: NodeId(13), hops: 3, .. }));
        assert_eq!(rec.nodes(), vec![NodeId(5), NodeId(8), NodeId(13)]);
    }

    #[test]
    fn dropped_and_in_flight_outcomes() {
        let ledger = PacketLedger::from_events(sample_events());
        let dropped = ledger.packet(DataId(2)).expect("packet 2");
        assert!(matches!(dropped.outcome, Outcome::Dropped { reason: DropReason::NoRoute, .. }));
        assert!(!dropped.measured);
        let pending = ledger.packet(DataId(3)).expect("packet 3");
        assert_eq!(pending.outcome, Outcome::InFlight);

        let stats = ledger.stats();
        assert_eq!(stats.packets, 3);
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.dropped, 1);
        assert_eq!(stats.in_flight, 1);
        assert_eq!(stats.hops, 2);
        assert_eq!(ledger.drops_by_reason().get("no-route"), Some(&1));
    }

    /// Only measured packets count; a delay is read back at its log
    /// bucket's lower edge; a ledger with nothing measured is all NaN.
    #[test]
    fn measured_folds_measured_packets_by_the_summary_rule() {
        let m = PacketLedger::from_events(sample_events()).measured();
        assert_eq!((m.offered, m.delivered, m.delivery_ratio), (2, 1, 0.5));
        // 1 900 µs falls in the bucket [1 856, 1 920).
        assert_eq!((m.delay_p50_s, m.delay_p99_s, m.hop_p50), (0.001856, 0.001856, 3.0));
        let empty = PacketLedger::default().measured();
        assert_eq!((empty.offered, empty.delivered), (0, 0));
        let undefined = [empty.delivery_ratio, empty.delay_p50_s, empty.hop_p50];
        assert!(undefined.iter().all(|x| x.is_nan()), "{empty:?}");
    }

    #[test]
    fn node_and_window_queries() {
        let ledger = PacketLedger::from_events(sample_events());
        let via_8: Vec<u64> = ledger.visiting(NodeId(8)).iter().map(|r| r.packet.0).collect();
        assert_eq!(via_8, vec![1]);
        let via_6: Vec<u64> = ledger.visiting(NodeId(6)).iter().map(|r| r.packet.0).collect();
        assert_eq!(via_6, vec![2]);
    }

    #[test]
    fn describe_tells_the_whole_story() {
        let ledger = PacketLedger::from_events(sample_events());
        let text = ledger.packet(DataId(1)).expect("packet 1").describe();
        assert!(text.contains("origin 5"));
        assert!(text.contains("matrix destination: node 13"));
        assert!(text.contains("[access]"));
        assert!(text.contains("[kautz-next]"));
        assert!(text.contains("DELIVERED at node 13"));
        assert!(text.contains("queueing: 2.0ms total, worst 2.0ms at node 8"));

        let dropped = ledger.packet(DataId(2)).expect("packet 2").describe();
        assert!(dropped.contains("(warmup)"));
        assert!(dropped.contains("DROPPED"));
        assert!(dropped.contains("no-route"));
    }

    #[test]
    fn queue_delay_attribution_sums_per_forwarding_node() {
        let ledger = PacketLedger::from_events(sample_events());
        let rec = ledger.packet(DataId(1)).expect("packet 1");
        assert!((rec.total_queue_s() - 0.002).abs() < 1e-12);
        assert_eq!(rec.worst_queue_hop().expect("has hops").from, NodeId(8));
    }

    fn origin(packet: u64, node: u32) -> TraceEvent {
        let (packet, origin) = (DataId(packet), NodeId(node));
        TraceEvent::PacketOrigin { at: t(1), packet, origin, measured: true }
    }

    fn hop(packet: u64, from: u32, to: u32) -> TraceEvent {
        let (packet, from, to) = (DataId(packet), NodeId(from), NodeId(to));
        TraceEvent::Hop { at: t(2), packet, from, to, reason: HopReason::KautzNext, queue_s: 0.0 }
    }

    fn delivered(packet: u64, node: u32) -> TraceEvent {
        let (packet, node) = (DataId(packet), NodeId(node));
        TraceEvent::Delivered { at: t(9), packet, node, delay_s: 0.008, hops: 2 }
    }

    /// Two daemons that both deliver packet 2 are a problem named by the
    /// packet; packet 1 beside it, delivered once, is not.
    #[test]
    fn a_packet_delivered_by_two_nodes_is_named() {
        let events = [origin(1, 5), origin(2, 5), delivered(1, 0), delivered(2, 0), delivered(2, 1)];
        let problems = PacketLedger::from_events(events).integrity_problems();
        assert_eq!(problems, ["packet 2: delivered 2 times"]);
    }

    /// A hop whose sender the walk from the origin never reaches is left
    /// over, and named with its endpoints.
    #[test]
    fn a_hop_the_origin_walk_cannot_reach_is_named() {
        let events = [origin(3, 5), hop(3, 5, 8), hop(3, 4, 13), delivered(3, 13)];
        let problems = PacketLedger::from_events(events).integrity_problems();
        let named = "packet 3: 1 hop(s) disconnected from the origin walk (e.g. node 4 -> node 13)";
        assert_eq!(problems, [named]);
    }

    #[test]
    fn a_packet_with_hops_but_no_origin_is_named() {
        let events = [hop(4, 5, 8), hop(4, 8, 13), delivered(4, 13)];
        let problems = PacketLedger::from_events(events).integrity_problems();
        assert_eq!(problems, ["packet 4: traced without a PacketOrigin event"]);
    }

    /// One loop-free chain 5 -> 8 -> 13, each node's share of it in that
    /// node's file, passes in every order the files can fold in.
    #[test]
    fn a_chain_split_over_three_files_passes_in_any_fold_order() {
        let files = [
            vec![origin(6, 5), hop(6, 5, 8)],
            vec![hop(6, 8, 13)],
            vec![delivered(6, 13)],
        ];
        for order in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let events = order.iter().flat_map(|&i| files[i].clone());
            let problems = PacketLedger::from_events(events).integrity_problems();
            assert!(problems.is_empty(), "order {order:?}: {problems:?}");
        }
    }
}
