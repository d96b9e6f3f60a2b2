//! REFER protocol parameters: the three a scenario sets, and the timing
//! and sizing constants every run shares.

use wsan_sim::SimDuration;

/// Tunables of the REFER protocol implementation. Defaults match the
/// paper's evaluation (4 cells of `K(2, 3)`).
#[derive(Debug, Clone, PartialEq)]
pub struct ReferConfig {
    /// Kautz graph degree per cell (paper: 2).
    pub degree: u8,
    /// Fraction of application packets addressed to a uniformly random
    /// *remote* cell instead of the nearest actuator; exercises the
    /// CAN-based inter-cell tier (paper traffic: 0).
    pub cross_cell_fraction: f64,
    /// Whether the awake/sleep maintenance of Section III-B4 runs
    /// (candidate probing + node replacement). Disabling it is the
    /// ablation: under mobility the embedded topology decays and routing
    /// must fall back to alternates and direct hops.
    pub maintenance_enabled: bool,
}

impl Default for ReferConfig {
    fn default() -> Self {
        ReferConfig { degree: 2, cross_cell_fraction: 0.0, maintenance_enabled: true }
    }
}

/// How often Kautz members announce themselves. Beacons feed both the
/// sensors' access-point caches and the sleepers' candidate probing.
pub const BEACON_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// How often members re-check their Kautz links and battery (Section
/// III-B4's replacement trigger).
pub const MAINTENANCE_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// Minimum spacing between a sleeping node's candidate probes.
pub const PROBE_INTERVAL: SimDuration = SimDuration::from_secs(30);

/// Fraction of the radio range beyond which a link counts as "about to
/// break" (the signal-strength trigger).
pub const LINK_GUARD: f64 = 0.9;

/// Battery threshold (J) below which a member hands off its KID.
pub const BATTERY_THRESHOLD: f64 = 50.0;

/// How long a path-query collector waits before picking the
/// highest-energy path.
pub const QUERY_WINDOW: SimDuration = SimDuration::from_millis(400);

/// Size of control frames (queries, beacons, assignments), bits.
pub const CTRL_BITS: u32 = 256;

/// How long a failure suspicion lasts without fresh evidence under
/// `FaultModel::Discovered` before the node gets the benefit of the doubt
/// again (the simulator's faults are transient).
pub const SUSPICION_TTL: SimDuration = SimDuration::from_secs(8);

/// A Kautz neighbor silent for longer than this since its last beacon or
/// frame is suspected of having failed (heartbeat detection): a small
/// multiple of [`BEACON_INTERVAL`].
pub const HEARTBEAT_TIMEOUT: SimDuration = SimDuration::from_secs(12);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_cell_shape() {
        let cfg = ReferConfig::default();
        assert_eq!(cfg.degree, 2);
        assert_eq!(LINK_GUARD, 0.9);
        assert_eq!(cfg.cross_cell_fraction, 0.0);
        assert!(cfg.maintenance_enabled);
    }

    /// The protocol's clocks: a silent neighbor is suspected after a few
    /// missed beacons, and a suspicion outlives one maintenance round.
    #[test]
    fn timing_constants_are_pinned() {
        assert_eq!(BEACON_INTERVAL, SimDuration::from_secs(5));
        assert_eq!(MAINTENANCE_INTERVAL, SimDuration::from_secs(5));
        assert_eq!(PROBE_INTERVAL, SimDuration::from_secs(30));
        assert_eq!(QUERY_WINDOW, SimDuration::from_millis(400));
        assert_eq!(SUSPICION_TTL, SimDuration::from_secs(8));
        assert_eq!(HEARTBEAT_TIMEOUT, SimDuration::from_secs(12));
        assert!(HEARTBEAT_TIMEOUT > BEACON_INTERVAL.mul(2));
        assert!(SUSPICION_TTL > MAINTENANCE_INTERVAL);
        assert_eq!(BATTERY_THRESHOLD, 50.0);
        assert_eq!(CTRL_BITS, 256);
    }
}
