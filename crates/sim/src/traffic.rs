//! Heavy-traffic workload matrices (ROADMAP item 2).
//!
//! The paper's evaluation only ever sends a trickle: 5 random sensors per
//! 10 s round, each toward its nearest actuator. This module adds *traffic
//! matrices* — synthetic sensor-to-sensor workload patterns driven to
//! configurable aggregate rates — so congestion behaviour (queueing delay,
//! hot links, tail drops) can be measured at scale.
//!
//! Destinations are pure hash functions of `(seed, origin, round, packet)`
//! rather than RNG draws: every engine (serial, parallel multi-seed,
//! sharded at any thread count) computes the same destination for the same
//! packet without consuming from any entropy stream, which keeps the
//! sharded engine's bit-identity guarantees intact with zero coordination.

use crate::node::NodeId;

/// A synthetic workload pattern: who sends to whom each traffic round.
///
/// `Paper` is the default trickle from Section IV (sources toward their
/// nearest actuator, destination chosen by the protocol); every other
/// pattern makes *all alive sensors* sources and assigns each packet an
/// explicit destination *sensor* recorded in
/// [`DataRecord::dest`](crate::message::DataRecord).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum TrafficPattern {
    /// The paper's trickle: `sources_per_round` random sensors, protocol
    /// picks the destination (Section IV defaults).
    #[default]
    Paper,
    /// Uniform all-to-all: every packet's destination is a uniform hash
    /// over the other sensors. The workload of Faber & Streib's analysis.
    All2All,
    /// Skewed popularity: with probability `skew` the destination is one of
    /// the first `targets` sensors, otherwise uniform over the rest.
    Hotspot {
        /// How many sensors form the hot set (clamped to the population).
        targets: usize,
        /// Probability mass directed at the hot set, in `[0, 1]`.
        skew: f64,
    },
}

impl TrafficPattern {
    /// Parses a CLI name (`paper`, `all2all`, `hotspot`)
    /// into a pattern with its default parameters; `None` on unknown names.
    pub fn parse(name: &str) -> Option<TrafficPattern> {
        match name {
            "paper" => Some(TrafficPattern::Paper),
            "all2all" => Some(TrafficPattern::All2All),
            "hotspot" => Some(TrafficPattern::Hotspot {
                targets: 8,
                skew: 0.8,
            }),
            _ => None,
        }
    }

    /// The CLI/reporting name of the pattern.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficPattern::Paper => "paper",
            TrafficPattern::All2All => "all2all",
            TrafficPattern::Hotspot { .. } => "hotspot",
        }
    }

    /// Whether this pattern assigns explicit destinations (everything but
    /// the paper trickle).
    pub fn is_matrix(&self) -> bool {
        !matches!(self, TrafficPattern::Paper)
    }
}

/// SplitMix64 finalizer: a high-quality 64-bit mix used to derive
/// per-packet destinations without touching any RNG stream.
#[inline]
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// A unit-interval float from the top 53 bits of a hash.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A uniform destination rank over `0..sensors` excluding `origin`.
#[inline]
fn uniform_other(h: u64, origin: u64, sensors: u64) -> u64 {
    let r = h % (sensors - 1);
    if r >= origin {
        r + 1
    } else {
        r
    }
}

/// The destination *sensor* of one matrix packet, as a dense node id
/// (sensors occupy ids `0..sensors`), or `None` when the pattern assigns
/// this packet no destination (the paper trickle, or a population too
/// small to have another sensor).
///
/// Deterministic in `(pattern, seed, origin, round, packet)` alone.
pub fn destination(
    pattern: TrafficPattern,
    seed: u64,
    origin: NodeId,
    round: u64,
    packet: u64,
    sensors: usize,
) -> Option<NodeId> {
    let n = sensors as u64;
    let o = origin.0 as u64;
    debug_assert!(o < n, "matrix origins are sensors");
    if n < 2 {
        return None;
    }
    let h = mix(mix(mix(seed ^ 0x9E37_79B9_7F4A_7C15) ^ (o + 1)) ^ (round << 20 | packet));
    let dest = match pattern {
        TrafficPattern::Paper => return None,
        TrafficPattern::All2All => uniform_other(h, o, n),
        TrafficPattern::Hotspot { targets, skew } => {
            let t = (targets as u64).clamp(1, n);
            let hot = mix(h) % t;
            if unit(h) < skew && hot != o {
                hot
            } else {
                uniform_other(mix(h ^ 1), o, n)
            }
        }
    };
    debug_assert!(dest != o && dest < n);
    Some(NodeId(dest as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_names() {
        for name in ["paper", "all2all", "hotspot"] {
            let p = TrafficPattern::parse(name).expect("known name");
            assert_eq!(p.name(), name);
        }
        assert_eq!(TrafficPattern::parse("bursty"), None);
    }

    #[test]
    fn paper_pattern_assigns_no_destination() {
        assert!(!TrafficPattern::Paper.is_matrix());
        assert_eq!(
            destination(TrafficPattern::Paper, 1, NodeId(0), 0, 0, 100),
            None
        );
    }

    #[test]
    fn all2all_never_picks_the_origin_and_is_deterministic() {
        for origin in 0..50u32 {
            for pkt in 0..20 {
                let d = destination(TrafficPattern::All2All, 42, NodeId(origin), 3, pkt, 50)
                    .expect("n >= 2");
                assert_ne!(d, NodeId(origin));
                assert!(d.0 < 50);
                let again = destination(TrafficPattern::All2All, 42, NodeId(origin), 3, pkt, 50);
                assert_eq!(again, Some(d));
            }
        }
    }

    #[test]
    fn all2all_spreads_over_many_destinations() {
        let mut seen = std::collections::BTreeSet::new();
        for pkt in 0..200 {
            let d = destination(TrafficPattern::All2All, 7, NodeId(0), 0, pkt, 40).expect("some");
            seen.insert(d);
        }
        assert!(seen.len() > 30, "only {} destinations", seen.len());
    }

    #[test]
    fn hotspot_concentrates_mass_on_the_hot_set() {
        let pattern = TrafficPattern::Hotspot {
            targets: 4,
            skew: 0.9,
        };
        let mut hot = 0;
        let total = 1000;
        for pkt in 0..total {
            let d = destination(pattern, 5, NodeId(30), 0, pkt, 100).expect("some");
            assert_ne!(d, NodeId(30));
            if d.0 < 4 {
                hot += 1;
            }
        }
        assert!(hot > total * 7 / 10, "only {hot}/{total} hit the hot set");
    }

    #[test]
    fn tiny_populations_yield_no_matrix_traffic() {
        assert_eq!(
            destination(TrafficPattern::All2All, 1, NodeId(0), 0, 0, 1),
            None
        );
    }
}
