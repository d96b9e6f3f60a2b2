//! Messages exchanged between nodes, and the application-data tracking used
//! for throughput/delay metrics.

use crate::energy::EnergyAccount;
use crate::node::NodeId;
use crate::time::SimTime;
use std::fmt;

/// Identifier of one application data packet, assigned by the traffic
/// generator. Protocols carry it in their payloads so the simulator can
/// compute end-to-end delay at delivery regardless of how many overlay or
/// physical hops the packet took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataId(pub u64);

impl fmt::Display for DataId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt{}", self.0)
    }
}

/// A frame in flight between two nodes (or one broadcast reception).
///
/// The payload type is chosen by the [`Protocol`](crate::Protocol)
/// implementation; the simulator treats it opaquely.
#[derive(Debug, Clone)]
pub struct Message<P> {
    /// The physical sender of this frame (previous hop, not the origin).
    pub from: NodeId,
    /// Nominal size of the frame in bits (drives the service-time model).
    pub size_bits: u32,
    /// Which energy ledger the frame is billed to.
    pub account: EnergyAccount,
    /// Whether the frame was a broadcast (true) or unicast (false).
    pub broadcast: bool,
    /// Protocol-defined contents.
    pub payload: P,
}

/// Record of one application packet's lifecycle, kept by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct DataRecord {
    /// The node that sensed/originated the packet.
    pub origin: NodeId,
    /// When the packet was handed to the protocol.
    pub created: SimTime,
    /// Application payload size in bits.
    pub size_bits: u32,
    /// First delivery time, if delivered.
    pub delivered: Option<SimTime>,
    /// Whether the packet was created during the measured window (after
    /// warmup).
    pub measured: bool,
    /// The destination *sensor* assigned by a traffic matrix
    /// ([`TrafficPattern`](crate::traffic::TrafficPattern)); `None` under
    /// the paper trickle, where the protocol picks an actuator itself.
    pub dest: Option<NodeId>,
}

impl DataRecord {
    /// End-to-end delay if delivered.
    pub fn delay(&self) -> Option<crate::time::SimDuration> {
        self.delivered.map(|at| at - self.created)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{SimDuration, SimTime};

    #[test]
    fn data_record_delay() {
        let mut r = DataRecord {
            origin: NodeId(1),
            created: SimTime::from_secs(100),
            size_bits: 8000,
            delivered: None,
            measured: true,
            dest: None,
        };
        assert_eq!(r.delay(), None);
        r.delivered = Some(SimTime::from_secs(100) + SimDuration::from_millis(420));
        assert_eq!(r.delay(), Some(SimDuration::from_millis(420)));
    }
}
