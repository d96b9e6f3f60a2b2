//! Optional event tracing: what happened on the (simulated) air, for
//! debugging protocols, building timelines and packet forensics.
//!
//! Tracing is off by default and costs nothing when disabled. There is
//! one path: streaming [`TraceSink`]s, attached for a whole run by
//! [`runner::run_with_sinks`](crate::runner::run_with_sinks), which see
//! every event as it happens (no buffer, bounded memory at any event
//! count). The `refer-obs` crate builds its JSONL, hashing and in-memory
//! sinks on this trait.

use crate::energy::EnergyAccount;
use crate::message::DataId;
use crate::metrics::DropReason;
use crate::node::NodeId;
use crate::time::SimTime;

/// Why a protocol forwarded a packet to a particular next hop, carried in
/// [`TraceEvent::Hop`] so a trace explains *routing decisions*, not just
/// frame movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HopReason {
    /// Source (or relay) handing the packet to an access member / first
    /// hop toward an actuator.
    Access,
    /// The primary Kautz successor on the shortest overlay path.
    KautzNext,
    /// An alternate successor after the primary was unusable (failed,
    /// congested or suspected) — REFER's Section III-C2 detour.
    Detour,
    /// Direct transmission to the destination (it was in range).
    Direct,
    /// An inter-cell relay leg between actuators (CAN routing).
    CellRelay,
    /// A cluster-gateway leg (D-DEAR's mesh backbone).
    Gateway,
    /// A climb toward the tree parent (DaTree).
    TreeParent,
    /// A precomputed physical path walk under an overlay edge
    /// (Kautz-overlay).
    PathWalk,
    /// A recovery action: path repair, re-attach or source retransmit.
    Recovery,
    /// Anything else.
    Other,
}

impl HopReason {
    /// Every variant, in declaration order: the codec parses a name by
    /// finding it here.
    pub const ALL: [HopReason; 10] = [
        HopReason::Access,
        HopReason::KautzNext,
        HopReason::Detour,
        HopReason::Direct,
        HopReason::CellRelay,
        HopReason::Gateway,
        HopReason::TreeParent,
        HopReason::PathWalk,
        HopReason::Recovery,
        HopReason::Other,
    ];

    /// Stable lowercase name used by trace codecs and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            HopReason::Access => "access",
            HopReason::KautzNext => "kautz-next",
            HopReason::Detour => "detour",
            HopReason::Direct => "direct",
            HopReason::CellRelay => "cell-relay",
            HopReason::Gateway => "gateway",
            HopReason::TreeParent => "tree-parent",
            HopReason::PathWalk => "path-walk",
            HopReason::Recovery => "recovery",
            HopReason::Other => "other",
        }
    }
}

/// One traced event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A traffic source emitted an application packet (the start of the
    /// packet's causal chain).
    PacketOrigin {
        /// When.
        at: SimTime,
        /// The application packet.
        packet: DataId,
        /// The originating sensor.
        origin: NodeId,
        /// Whether the packet counts toward metrics (emitted after warmup).
        measured: bool,
    },
    /// A traffic matrix assigned the packet an explicit destination sensor
    /// (emitted right after [`TraceEvent::PacketOrigin`]; absent under the
    /// paper trickle, where the protocol picks the destination).
    PacketDest {
        /// When.
        at: SimTime,
        /// The application packet.
        packet: DataId,
        /// The destination sensor chosen by the workload pattern.
        dest: NodeId,
    },
    /// A protocol forwarded an application packet one hop, with the
    /// routing decision behind the choice.
    Hop {
        /// When.
        at: SimTime,
        /// The application packet being forwarded.
        packet: DataId,
        /// Forwarding node.
        from: NodeId,
        /// Chosen next hop.
        to: NodeId,
        /// Why this next hop was chosen.
        reason: HopReason,
        /// The forwarding node's radio backlog when the frame was queued,
        /// seconds (the per-hop queueing delay component).
        queue_s: f64,
    },
    /// A unicast frame was accepted by the sender's radio.
    Send {
        /// When.
        at: SimTime,
        /// Transmitting node.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Frame size, bits.
        size_bits: u32,
        /// Billing ledger.
        account: EnergyAccount,
    },
    /// A unicast failed at send time (link down / receiver faulty).
    SendFailed {
        /// When.
        at: SimTime,
        /// Transmitting node.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
    },
    /// A frame was tail-dropped by the sender's full interface queue.
    QueueDrop {
        /// When.
        at: SimTime,
        /// Transmitting node.
        from: NodeId,
    },
    /// A broadcast frame was accepted by the sender's radio.
    Broadcast {
        /// When.
        at: SimTime,
        /// Transmitting node.
        from: NodeId,
        /// Number of receivers in range.
        receivers: usize,
        /// Billing ledger.
        account: EnergyAccount,
    },
    /// An application packet reached an actuator.
    Delivered {
        /// When.
        at: SimTime,
        /// The application packet.
        packet: DataId,
        /// Receiving actuator.
        node: NodeId,
        /// End-to-end delay, seconds.
        delay_s: f64,
        /// Transmissions the packet took end to end as counted by the
        /// protocol (0 = the protocol did not report hop counts).
        hops: u32,
    },
    /// The protocol gave up on an application packet.
    Dropped {
        /// When.
        at: SimTime,
        /// The application packet.
        packet: DataId,
        /// Why the protocol gave up.
        reason: DropReason,
    },
    /// The faulty set rotated.
    FaultRotation {
        /// When.
        at: SimTime,
        /// Nodes that just broke.
        failed: Vec<NodeId>,
        /// Nodes that just recovered.
        recovered: Vec<NodeId>,
    },
    /// An acknowledged frame missed its ACK and was retransmitted.
    Retransmit {
        /// When.
        at: SimTime,
        /// Transmitting node.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Retry number (1 = first retransmission).
        attempt: u32,
    },
    /// A protocol started suspecting a node of having failed.
    Suspected {
        /// When.
        at: SimTime,
        /// The suspected node.
        node: NodeId,
    },
}

impl TraceEvent {
    /// The simulated time of the event.
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::PacketOrigin { at, .. }
            | TraceEvent::PacketDest { at, .. }
            | TraceEvent::Hop { at, .. }
            | TraceEvent::Send { at, .. }
            | TraceEvent::SendFailed { at, .. }
            | TraceEvent::QueueDrop { at, .. }
            | TraceEvent::Broadcast { at, .. }
            | TraceEvent::Delivered { at, .. }
            | TraceEvent::Dropped { at, .. }
            | TraceEvent::FaultRotation { at, .. }
            | TraceEvent::Retransmit { at, .. }
            | TraceEvent::Suspected { at, .. } => *at,
        }
    }

    /// The event's kind as a stable name (the JSONL tag used by codecs and
    /// per-kind counters).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::PacketOrigin { .. } => "PacketOrigin",
            TraceEvent::PacketDest { .. } => "PacketDest",
            TraceEvent::Hop { .. } => "Hop",
            TraceEvent::Send { .. } => "Send",
            TraceEvent::SendFailed { .. } => "SendFailed",
            TraceEvent::QueueDrop { .. } => "QueueDrop",
            TraceEvent::Broadcast { .. } => "Broadcast",
            TraceEvent::Delivered { .. } => "Delivered",
            TraceEvent::Dropped { .. } => "Dropped",
            TraceEvent::FaultRotation { .. } => "FaultRotation",
            TraceEvent::Retransmit { .. } => "Retransmit",
            TraceEvent::Suspected { .. } => "Suspected",
        }
    }
}

/// A streaming consumer of trace events.
///
/// Sinks are attached for one run via
/// [`runner::run_with_sinks`](crate::runner::run_with_sinks) and observe
/// every event in simulation order as it happens, so memory stays bounded
/// no matter how many events a run produces. `Send` is required so traced
/// runs can execute on the multi-seed harness's worker threads.
pub trait TraceSink: Send {
    /// Observes one event.
    fn on_event(&mut self, event: &TraceEvent);

    /// Called once when the run completes; flush buffers / publish state.
    fn flush(&mut self) {}
}

/// A shared handle to a sink is a sink: attach a clone, keep the original,
/// and read what the run left in it (the engine hands sinks back only as
/// `Box<dyn TraceSink>`).
impl<S: TraceSink> TraceSink for std::sync::Arc<std::sync::Mutex<S>> {
    fn on_event(&mut self, event: &TraceEvent) {
        self.lock().expect("a sink panicked mid-event").on_event(event);
    }

    fn flush(&mut self) {
        self.lock().expect("a sink panicked mid-event").flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Checks that `all` holds each variant once, at the position and
    /// under the name `pinned` gives it, and that the names are distinct.
    fn check<T: Copy + PartialEq + std::fmt::Debug>(
        all: &[T],
        name: fn(T) -> &'static str,
        pinned: fn(T) -> (usize, &'static str),
    ) {
        for (i, &v) in all.iter().enumerate() {
            assert_eq!(pinned(v), (i, name(v)), "{v:?}");
        }
        let mut names: Vec<&str> = all.iter().map(|&v| name(v)).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate names in {all:?}");
    }

    // Each match below is exhaustive, so a new variant fails the build
    // here until it is given a position and a name; `ALL` must list it at
    // that position. The names are the trace format's: a changed one
    // changes every trace file.

    #[test]
    fn every_hop_reason_is_listed_once_under_its_pinned_name() {
        check(&HopReason::ALL, HopReason::as_str, |r| match r {
            HopReason::Access => (0, "access"),
            HopReason::KautzNext => (1, "kautz-next"),
            HopReason::Detour => (2, "detour"),
            HopReason::Direct => (3, "direct"),
            HopReason::CellRelay => (4, "cell-relay"),
            HopReason::Gateway => (5, "gateway"),
            HopReason::TreeParent => (6, "tree-parent"),
            HopReason::PathWalk => (7, "path-walk"),
            HopReason::Recovery => (8, "recovery"),
            HopReason::Other => (9, "other"),
        });
    }

    #[test]
    fn every_drop_reason_is_listed_once_under_its_pinned_name() {
        check(&DropReason::ALL, DropReason::as_str, |r| match r {
            DropReason::NoAccess => (0, "no-access"),
            DropReason::NoRoute => (1, "no-route"),
            DropReason::HopLimit => (2, "hop-limit"),
            DropReason::Other => (3, "other"),
        });
    }

    #[test]
    fn every_energy_account_is_listed_once_under_its_pinned_name() {
        check(&EnergyAccount::ALL, EnergyAccount::as_str, |a| match a {
            EnergyAccount::Construction => (0, "construction"),
            EnergyAccount::Communication => (1, "communication"),
        });
    }
}
