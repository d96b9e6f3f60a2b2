//! Simulated devices: sensors and actuators.

use crate::geometry::Point;
use std::fmt;

/// Identifier of a simulated node; dense indices into the simulator's node
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The device class of a node (Section I: sensors are low-power,
/// short-range; actuators are resource-rich with longer range).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A low-power sensing device (default range 100 m, mobile).
    Sensor,
    /// A resource-rich actuator (default range 250 m, static).
    Actuator,
}

/// Mutable per-node simulation state.
#[derive(Debug, Clone)]
pub struct NodeState {
    /// The device class.
    pub kind: NodeKind,
    /// Current position, meters.
    pub position: Point,
    /// Transmission range, meters.
    pub range: f64,
    /// Whether the node is currently broken down (fault injection).
    pub faulty: bool,
    /// When the current breakdown started (microseconds), if faulty.
    /// Ground truth for grading suspicion latency; protocols never see it.
    pub fault_since_micros: Option<u64>,
    /// Whether the node broke down because its battery ran out
    /// (`FaultConfig::battery_death`). Depleted nodes are never recovered
    /// by fault rotation.
    pub depleted: bool,
    /// Remaining battery, Joules. Purely informational for protocols
    /// (embedding prefers high-energy sensors); the simulator does not kill
    /// depleted nodes unless configured to.
    pub battery: f64,
    /// Total energy consumed so far, Joules (radio tx + rx).
    pub consumed: f64,
    /// The earliest time the node's radio is free to start a new
    /// transmission (microseconds); drives the queueing-delay model.
    pub busy_until_micros: u64,
    /// Total radio airtime this node spent *transmitting* during the
    /// measured window (microseconds). Airtime / measured duration is the
    /// node's link utilization; the maximum over all nodes is the
    /// `hot_link_utilization` congestion metric.
    pub tx_busy_micros: u64,
    /// Random-waypoint state: current movement target.
    pub waypoint: Point,
    /// Random-waypoint state: current speed, m/s.
    pub speed: f64,
}

impl NodeState {
    /// Creates a fresh, non-faulty node at `position`.
    pub fn new(kind: NodeKind, position: Point, range: f64, battery: f64) -> Self {
        NodeState {
            kind,
            position,
            range,
            faulty: false,
            fault_since_micros: None,
            depleted: false,
            battery,
            consumed: 0.0,
            busy_until_micros: 0,
            tx_busy_micros: 0,
            waypoint: position,
            speed: 0.0,
        }
    }

    /// Whether the node can currently participate in the network.
    #[inline]
    pub fn alive(&self) -> bool {
        !self.faulty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(NodeId(7).index(), 7);
    }

    #[test]
    fn fresh_node_is_alive() {
        let n = NodeState::new(NodeKind::Sensor, Point::new(1.0, 2.0), 100.0, 500.0);
        assert!(n.alive());
        assert_eq!(n.waypoint, n.position);
    }
}
