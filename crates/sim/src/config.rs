//! Simulation scenario configuration, with defaults matching Section IV of
//! the paper.

use crate::geometry::{Area, Point};
use crate::time::SimDuration;
use crate::traffic::TrafficPattern;

/// How actuators are positioned in the area.
#[derive(Debug, Clone, PartialEq)]
pub enum ActuatorPlacement {
    /// The paper's 5-actuator scenario: four actuators at the quarter
    /// points plus one at the center, forming 4 triangular cells.
    Quincunx,
    /// Uniformly random positions.
    UniformRandom,
    /// Explicit coordinates.
    Explicit(Vec<Point>),
}

/// How sensors are scattered over the area.
#[derive(Debug, Clone, PartialEq)]
pub enum SensorPlacement {
    /// I.i.d. uniform over the whole area.
    UniformArea,
    /// The paper's deployment: "200 sensors were i.i.d distributed around
    /// the actuators" — each sensor picks a random actuator and a uniform
    /// offset within a disc of this radius (clamped to the area).
    AroundActuators {
        /// Disc radius around the chosen actuator, meters.
        radius: f64,
    },
}

/// Traffic generation: every `round_interval`, `sources_per_round` random
/// live sensors each stream packets at `rate_bps` until the next round
/// (Section IV: "Every 10 seconds, we randomly chose 5 source nodes, which
/// transmit data to their nearby actuators at the rate of 1 Mbps").
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Interval between source re-selection rounds.
    pub round_interval: SimDuration,
    /// Number of simultaneous sources per round.
    pub sources_per_round: usize,
    /// Application sending rate per source, bits/second.
    pub rate_bps: f64,
    /// Application packet size, bits.
    pub packet_bits: u32,
    /// The workload shape. [`TrafficPattern::Paper`] (the default) keeps
    /// the Section IV trickle byte-identical; every other pattern makes all
    /// alive sensors sources with hash-assigned destination sensors.
    pub pattern: TrafficPattern,
    /// Aggregate open-loop injection rate for matrix patterns, packets per
    /// second across the whole network; `0.0` (the default) falls back to
    /// the per-source `rate_bps` semantics. Ignored by the paper trickle.
    pub offered_pps: f64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            round_interval: SimDuration::from_secs(10),
            sources_per_round: 5,
            rate_bps: 1_000_000.0,
            packet_bits: 8_000,
            pattern: TrafficPattern::Paper,
            offered_pps: 0.0,
        }
    }
}

/// Node mobility: random waypoint without pause (Section IV: "each sensor
/// randomly selects a destination point and moves to that point with a
/// speed randomly selected from [0, max]").
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityConfig {
    /// Minimum node speed, m/s.
    pub min_speed: f64,
    /// Maximum node speed, m/s (the figures' x-axis is `max/2`, the mean).
    pub max_speed: f64,
    /// Position-update granularity.
    pub tick: SimDuration,
}

impl Default for MobilityConfig {
    fn default() -> Self {
        MobilityConfig {
            min_speed: 0.0,
            max_speed: 3.0,
            tick: SimDuration::from_secs(1),
        }
    }
}

/// How protocols learn about node failures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FaultModel {
    /// Protocols may consult the global fault oracle
    /// ([`Ctx::is_faulty`](crate::Ctx::is_faulty) /
    /// [`Ctx::link_ok`](crate::Ctx::link_ok)) at every hop: a perfect,
    /// zero-latency failure detector. This overstates robustness but keeps
    /// runs cheap and deterministic; it is the historical default.
    #[default]
    Oracle,
    /// Failures must be *discovered*: protocols route on local suspicion
    /// built from ACK timeouts ([`Ctx::send_acked`](crate::Ctx::send_acked))
    /// and heartbeat silence, as in the paper's ns-2 setup. Oracle
    /// consultations are counted in
    /// [`RunSummary::oracle_queries`](crate::RunSummary::oracle_queries) so
    /// tests can assert the data path stayed honest.
    Discovered,
    /// [`Discovered`](FaultModel::Discovered) plus an active adversary: a
    /// seeded fraction of sensors ([`ByzantineConfig`]) is *compromised*
    /// and misbehaves with the fixed `BYZ_*` probabilities — misrouting
    /// frames, selectively dropping data while still acknowledging it
    /// (forged ACKs), and slandering healthy neighbors in suspicion
    /// gossip. Compromised nodes are physically alive (the fault oracle
    /// does not flag them); defenses must come from the
    /// reputation-weighted `FailureView` (hosted by the `refer-proto`
    /// crate since the sans-io split). All adversary
    /// decisions are drawn from the per-node simulator RNG streams, so
    /// runs stay deterministic per seed and thread-invariant under
    /// [`Engine::Sharded`].
    Byzantine,
}

/// The adversary of [`FaultModel::Byzantine`]. How many sensors it holds
/// is the scenario knob; how each one misbehaves is fixed (the
/// `BYZ_*` constants), every probability per decision and drawn from the
/// acting node's simulator RNG stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ByzantineConfig {
    /// Fraction of sensors compromised at t=0, in `[0, 1]`. The set is
    /// drawn once from the master RNG after placement and stays fixed for
    /// the run (compromise is a property of the node, not a rotating
    /// fault).
    pub attacker_fraction: f64,
}

/// Probability that a compromised *sender* redirects a unicast frame to a
/// random physical neighbor instead of the intended next hop.
pub const BYZ_MISROUTE_PROB: f64 = 0.25;

/// Probability that a compromised *receiver* silently discards a delivered
/// frame instead of processing it. A dropped acknowledged frame still
/// returns its ACK (a forged one): the sender believes the hop succeeded
/// and never retransmits.
pub const BYZ_DROP_PROB: f64 = 0.5;

/// Probability per gossip opportunity that a compromised node fabricates
/// an accusation against a healthy neighbor.
pub const BYZ_SLANDER_PROB: f64 = 0.25;

/// Fault injection: every `rotation`, the previous faulty set recovers and
/// `count` random sensors break down (Section IV-B).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Number of simultaneously faulty sensors.
    pub count: usize,
    /// How often the faulty set is re-drawn.
    pub rotation: SimDuration,
    /// How protocols are allowed to learn about the faulty set.
    pub model: FaultModel,
    /// When `true`, a sensor whose battery reaches zero breaks down
    /// permanently (it is never recovered by fault rotation). Off by
    /// default: the paper's figures do not kill depleted nodes.
    pub battery_death: bool,
    /// Adversary knobs, active only under [`FaultModel::Byzantine`].
    pub byzantine: ByzantineConfig,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            count: 0,
            rotation: SimDuration::from_secs(10),
            model: FaultModel::Oracle,
            battery_death: false,
            byzantine: ByzantineConfig::default(),
        }
    }
}

/// The paper's link model, the unit disk: a frame sent over `distance`
/// by a radio of `range` arrives when `distance <= range` and never
/// beyond it. Every reachability question the simulator and the daemon
/// ask goes through this one predicate; [`RadioConfig::link_pdr`] is the
/// only loss on top of it and does not change which links are up.
#[inline]
pub fn in_unit_disk(distance: f64, range: f64) -> bool {
    distance <= range
}

/// How Kautz-routed protocols pick the next hop toward a destination
/// identifier.
///
/// The strategy is a *scenario* knob (like [`FaultModel`]) rather than a
/// protocol constructor argument so every Kautz-based system in a sweep —
/// REFER's intra-cell forwarding, the Kautz overlay baseline, the fabric
/// used by the heavy-traffic workloads — switches together.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RoutingStrategy {
    /// The paper's greedy shortest protocol (Section III-C1) with the
    /// Theorem 3.8 disjoint-path planner around failures. Minimizes hops,
    /// but under all-to-all load the overlap shortcut concentrates pairs
    /// onto hot arcs.
    #[default]
    Shortest,
    /// Faber–Streib regular routing: append the destination's digits in
    /// order (at most one detour hop). Every route costs `k` or `k + 1`
    /// hops, and the induced per-arc load is uniform — the better choice
    /// under heavy all-to-all traffic.
    Regular,
}

/// Which event-loop engine executes the run.
///
/// The serial loop stays the default and the verified reference, the
/// sharded engine is opt-in per run. The two
/// engines define *different* (each internally deterministic) random
/// streams — the serial loop draws every choice from one master RNG in
/// global event order, which no parallel execution can reproduce — so a
/// sharded run is compared against the sharded engine at `threads: 1`
/// (its own serial reference), not against [`Engine::Serial`] bit-for-bit.
/// See `shard` module docs for the full determinism argument.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// The single-threaded discrete-event loop
    /// ([`runner::run`](crate::runner::run)): one global event heap, one master RNG.
    #[default]
    Serial,
    /// The sharded windowed engine
    /// ([`shard::run_sharded`](crate::shard::run_sharded)): grid-cell shards stepped in
    /// conservative time windows by `threads` threads, the caller among
    /// them. Output is a pure function of the config — independent of
    /// `threads`.
    Sharded(ShardedConfig),
}

/// Tuning for [`Engine::Sharded`]. `0` means "pick automatically"
/// everywhere, and every automatic choice depends only on the topology —
/// never on the host — so results are reproducible across machines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardedConfig {
    /// Number of logical shards (rectangular tiles of grid cells). The
    /// event semantics depend on this value; 0 picks a topology-derived
    /// default. Capped at the number of grid cells.
    pub shards: usize,
    /// Threads that run shards, the caller included: 1 runs the whole
    /// engine on the caller and spawns nothing, `n` adds `n − 1` workers.
    /// Purely an execution detail: any value produces byte-identical
    /// traces and summaries. 0 uses the host's available parallelism;
    /// every value is capped at the shard count.
    pub threads: usize,
    /// Synchronization window length, microseconds. Must not exceed the
    /// minimum cross-node event latency ([`MAC_OVERHEAD`]) or the
    /// conservative lookahead argument breaks — validated at run start.
    /// 0 uses [`MAC_OVERHEAD`] itself, the largest safe window.
    pub window_micros: u64,
}

/// Upper bound of the uniform random contention jitter per hop.
pub const MAX_JITTER: SimDuration = SimDuration::from_micros(1_500);

/// Fixed per-frame MAC overhead added to the service time. Every
/// cross-node event lands at least this far ahead, so it is also the
/// sharded engine's lookahead.
pub const MAC_OVERHEAD: SimDuration = SimDuration::from_micros(500);

/// Maximum radio backlog: a frame offered to a node whose transmit queue
/// already exceeds this horizon is tail-dropped (bounded MAC buffers). The
/// sender is not notified — the loss is silent, as with a real
/// interface-queue overflow.
pub const MAX_QUEUE: SimDuration = SimDuration::from_millis(1_500);

/// Packets count toward QoS throughput only if delivered within this
/// deadline (Section IV: 0.6 s).
pub const QOS_DEADLINE: SimDuration = SimDuration::from_millis(600);

/// Radio/MAC timing model: per-hop service time (with [`MAC_OVERHEAD`])
/// plus a uniformly random contention jitter of at most [`MAX_JITTER`].
/// Transmissions queue behind the sender's (and the receiver's) earlier
/// traffic, up to [`MAX_QUEUE`], which is what congests hot relays.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioConfig {
    /// Channel bitrate, bits/second (802.11b default: 11 Mb/s).
    pub bitrate_bps: f64,
    /// Receiver occupancy, on (any positive value) or off (zero); the
    /// magnitude is not read. On, a frame reserves its *receiver*'s radio
    /// from the moment it is queued at the sender until it arrives, so a
    /// node cannot start transmitting before everything already addressed
    /// to it has landed — the shared medium around hot nodes, and the
    /// contention model behind the flooding baselines' delays in Figures
    /// 4–8 (EXPERIMENTS.md). Serial engine only: the sharded engine models
    /// no receiver occupancy and ignores this field (DESIGN.md §13).
    pub receiver_occupancy: f64,
    /// Residual per-link packet-drop rate in `[0, 1]`: every frame
    /// (unicast, ACK, broadcast leg) is additionally lost with this
    /// probability, independent of distance and of any attacker. Lossy
    /// links thus exist on their own; the link-layer ACK machinery is what
    /// recovers from them. Does not affect MAC-visible reachability
    /// ([`in_unit_disk`]) or the spatial grid's cell sizing.
    pub link_pdr: f64,
    /// Link-layer ACK timeout for [`Ctx::send_acked`](crate::Ctx::send_acked)
    /// frames, counted from the moment the frame leaves the sender's radio
    /// (so a long interface queue does not trigger spurious expiries).
    pub ack_timeout: SimDuration,
    /// Maximum number of *re*transmissions after the initial attempt of an
    /// acknowledged frame before the sender gives up and reports the frame
    /// expired.
    pub max_retries: u32,
    /// Exponential-backoff factor applied to `ack_timeout` per retry
    /// (attempt `n` waits `ack_timeout * retry_backoff^n`).
    pub retry_backoff: f64,
}

impl Default for RadioConfig {
    fn default() -> Self {
        RadioConfig {
            bitrate_bps: 11_000_000.0,
            receiver_occupancy: 1.0,
            link_pdr: 0.0,
            ack_timeout: SimDuration::from_millis(10),
            max_retries: 3,
            retry_backoff: 2.0,
        }
    }
}

/// Complete scenario description. `SimConfig::paper()` reproduces the
/// evaluation defaults; `SimConfig::smoke()` is a fast variant for tests.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Deployment area.
    pub area: Area,
    /// Number of sensors.
    pub sensors: usize,
    /// Number of actuators.
    pub actuators: usize,
    /// Sensor transmission range, meters.
    pub sensor_range: f64,
    /// Actuator transmission range, meters.
    pub actuator_range: f64,
    /// Actuator placement policy.
    pub placement: ActuatorPlacement,
    /// Sensor placement policy.
    pub sensor_placement: SensorPlacement,
    /// Initial sensor battery, Joules (randomized ±20% per node).
    pub initial_battery: f64,
    /// Traffic generation parameters.
    pub traffic: TrafficConfig,
    /// Mobility parameters.
    pub mobility: MobilityConfig,
    /// Fault-injection parameters.
    pub faults: FaultConfig,
    /// Radio/MAC timing parameters.
    pub radio: RadioConfig,
    /// Metrics start after this much simulated time.
    pub warmup: SimDuration,
    /// Measured simulation length (total run = warmup + duration).
    pub duration: SimDuration,
    /// Which event-loop engine executes the run (serial by default; the
    /// sharded engine is opt-in and verified against itself at 1 thread).
    pub engine: Engine,
    /// How Kautz-routed protocols pick next hops (greedy shortest by
    /// default; regular routing equalizes load under traffic matrices).
    pub routing: RoutingStrategy,
    /// Master RNG seed; every random choice in the run derives from it.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's scenario: 500 m x 500 m, 5 actuators (quincunx), 200
    /// sensors, ranges 100/250 m, 1 Mb/s sources every 10 s, warmup 100 s,
    /// 1000 s measured; the QoS deadline ([`QOS_DEADLINE`], 0.6 s) and the
    /// energy prices ([`EnergyModel::PAPER`](crate::EnergyModel::PAPER),
    /// 2/0.75 J per packet) are
    /// constants.
    pub fn paper() -> Self {
        SimConfig {
            area: Area::new(500.0, 500.0),
            sensors: 200,
            actuators: 5,
            sensor_range: 100.0,
            actuator_range: 250.0,
            placement: ActuatorPlacement::Quincunx,
            sensor_placement: SensorPlacement::AroundActuators { radius: 150.0 },
            initial_battery: 10_000.0,
            traffic: TrafficConfig::default(),
            mobility: MobilityConfig::default(),
            faults: FaultConfig::default(),
            radio: RadioConfig::default(),
            warmup: SimDuration::from_secs(100),
            duration: SimDuration::from_secs(1000),
            engine: Engine::default(),
            routing: RoutingStrategy::default(),
            seed: 1,
        }
    }

    /// A scaled-down scenario for unit/integration tests: same geometry,
    /// lighter traffic, 60 s measured after a 30 s warmup.
    pub fn smoke() -> Self {
        let mut cfg = Self::paper();
        cfg.sensors = 120;
        cfg.traffic.rate_bps = 80_000.0;
        cfg.warmup = SimDuration::from_secs(30);
        cfg.duration = SimDuration::from_secs(60);
        cfg
    }

    /// Total simulated time (warmup + measured duration).
    pub fn total_time(&self) -> SimDuration {
        self.warmup + self.duration
    }

    /// Number of packets each source emits per traffic round.
    pub fn packets_per_round(&self) -> u64 {
        let bits = self.traffic.rate_bps * self.traffic.round_interval.as_secs_f64();
        (bits / self.traffic.packet_bits as f64).floor() as u64
    }

    /// Inter-packet gap at the configured application rate.
    pub fn packet_gap(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.traffic.packet_bits as f64 / self.traffic.rate_bps)
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configurations (no nodes, zero bitrate, zero
    /// packet size) — configurations are code, not user input.
    pub fn validate(&self) {
        assert!(self.sensors > 0, "need at least one sensor");
        assert!(self.actuators > 0, "need at least one actuator");
        assert!(self.radio.bitrate_bps > 0.0, "bitrate must be positive");
        assert!(self.traffic.packet_bits > 0, "packets must be non-empty");
        assert!(self.sensor_range > 0.0 && self.actuator_range > 0.0);
        if let ActuatorPlacement::Explicit(points) = &self.placement {
            assert_eq!(points.len(), self.actuators, "explicit placement count mismatch");
        }
        assert!(
            (0.0..=1.0).contains(&self.radio.link_pdr),
            "link_pdr must be within [0, 1], got {}",
            self.radio.link_pdr
        );
        assert!(
            self.traffic.offered_pps.is_finite() && self.traffic.offered_pps >= 0.0,
            "offered_pps must be finite and non-negative, got {}",
            self.traffic.offered_pps
        );
        if let TrafficPattern::Hotspot { targets, skew } = self.traffic.pattern {
            assert!(targets > 0, "hotspot needs at least one target");
            assert!(
                (0.0..=1.0).contains(&skew),
                "hotspot skew must be within [0, 1], got {skew}"
            );
        }
        let byz = &self.faults.byzantine;
        assert!(
            (0.0..=1.0).contains(&byz.attacker_fraction),
            "attacker_fraction must be within [0, 1], got {}",
            byz.attacker_fraction
        );
        // Each periodic driver re-arms itself one period after it fires;
        // a zero period would re-arm it at the same instant forever. The
        // rotation driver only runs when there are faults to rotate.
        for (name, period, armed) in [
            ("traffic.round_interval", self.traffic.round_interval, true),
            ("mobility.tick", self.mobility.tick, true),
            ("faults.rotation", self.faults.rotation, self.faults.count > 0),
        ] {
            assert!(
                !armed || period > SimDuration::ZERO,
                "`{name}` must be positive: its driver re-arms itself one period after \
                 it fires, so a zero period never lets simulated time advance"
            );
        }
        if let Engine::Sharded(sharded) = self.engine {
            // Incompatible-knob rejections name the offending field and the
            // supported fallback so a failed run is actionable from the
            // panic message alone (wording pinned by tests below).
            let lookahead = MAC_OVERHEAD.as_micros();
            assert!(
                sharded.window_micros <= lookahead,
                "`engine.window_micros` ({} us) exceeds the minimum cross-node event \
                 latency `MAC_OVERHEAD` ({} us); lower `engine.window_micros` to \
                 at most {} or fall back to `engine = Engine::Serial`",
                sharded.window_micros,
                lookahead,
                lookahead
            );
            assert!(
                !self.faults.battery_death,
                "`faults.battery_death = true` is not supported by `engine = \
                 Engine::Sharded`: fault rotation runs centrally and cannot observe \
                 per-shard battery depletion; set `faults.battery_death = false` or \
                 fall back to `engine = Engine::Serial`"
            );
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyModel;

    #[test]
    fn paper_defaults_match_section_iv() {
        let cfg = SimConfig::paper();
        assert_eq!(cfg.sensors, 200);
        assert_eq!(cfg.actuators, 5);
        assert_eq!(cfg.sensor_range, 100.0);
        assert_eq!(cfg.actuator_range, 250.0);
        assert_eq!(cfg.traffic.sources_per_round, 5);
        assert_eq!(cfg.traffic.pattern, TrafficPattern::Paper);
        assert_eq!(cfg.traffic.offered_pps, 0.0);
        assert_eq!(cfg.routing, RoutingStrategy::Shortest);
        assert_eq!(QOS_DEADLINE.as_secs_f64(), 0.6);
        assert_eq!(EnergyModel::PAPER.tx_joules, 2.0);
        assert_eq!(EnergyModel::PAPER.rx_joules, 0.75);
        assert_eq!(cfg.warmup.as_secs_f64(), 100.0);
        assert_eq!(cfg.duration.as_secs_f64(), 1000.0);
        cfg.validate();
    }

    /// A zero period re-arms its driver at the same instant forever, so
    /// validation names the field instead of letting the run hang.
    #[test]
    fn zero_driver_periods_are_rejected_by_name() {
        let message = |cfg: SimConfig| -> String {
            let err = std::panic::catch_unwind(move || cfg.validate())
                .expect_err("config must be rejected");
            err.downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .expect("panic payload must be a string")
        };
        let zeroed = |edit: fn(&mut SimConfig)| {
            let mut cfg = SimConfig::smoke();
            edit(&mut cfg);
            cfg
        };
        for (field, cfg) in [
            ("`traffic.round_interval`", zeroed(|c| c.traffic.round_interval = SimDuration::ZERO)),
            ("`mobility.tick`", zeroed(|c| c.mobility.tick = SimDuration::ZERO)),
            (
                "`faults.rotation`",
                zeroed(|c| {
                    c.faults.count = 3;
                    c.faults.rotation = SimDuration::ZERO;
                }),
            ),
        ] {
            let msg = message(cfg);
            assert!(msg.contains(field), "{field} missing: {msg}");
        }
        // Without faults the rotation driver never runs, so its period is
        // not read.
        let mut cfg = SimConfig::smoke();
        cfg.faults.count = 0;
        cfg.faults.rotation = SimDuration::ZERO;
        cfg.validate();
    }

    #[test]
    fn packets_per_round_at_1mbps() {
        let cfg = SimConfig::paper();
        // 1 Mb/s for 10 s at 8000-bit packets = 1250 packets.
        assert_eq!(cfg.packets_per_round(), 1250);
        assert_eq!(cfg.packet_gap().as_micros(), 8_000);
    }

    #[test]
    #[should_panic(expected = "explicit placement count mismatch")]
    fn explicit_placement_must_match_count() {
        let mut cfg = SimConfig::paper();
        cfg.placement = ActuatorPlacement::Explicit(vec![Point::new(0.0, 0.0)]);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "hotspot skew must be within [0, 1]")]
    fn hotspot_skew_is_validated() {
        let mut cfg = SimConfig::paper();
        cfg.traffic.pattern = TrafficPattern::Hotspot {
            targets: 4,
            skew: 1.5,
        };
        cfg.validate();
    }

    #[test]
    fn smoke_is_lighter_than_paper() {
        let smoke = SimConfig::smoke();
        assert!(smoke.packets_per_round() < SimConfig::paper().packets_per_round());
        assert!(smoke.total_time() < SimConfig::paper().total_time());
    }

    /// Incompatible-knob rejections must be actionable: each message names
    /// the offending field AND the supported fallback (`Engine::Serial`).
    #[test]
    fn sharded_rejections_name_field_and_fallback() {
        let message = |cfg: SimConfig| -> String {
            let err = std::panic::catch_unwind(move || cfg.validate())
                .expect_err("config must be rejected");
            err.downcast_ref::<String>()
                .cloned()
                .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .expect("panic payload must be a string")
        };

        let mut cfg = SimConfig::smoke();
        cfg.engine = Engine::Sharded(ShardedConfig::default());
        cfg.faults.battery_death = true;
        let msg = message(cfg);
        assert!(msg.contains("`faults.battery_death = true`"), "field missing: {msg}");
        assert!(msg.contains("fall back to `engine = Engine::Serial`"), "fallback missing: {msg}");

        let mut cfg = SimConfig::smoke();
        let too_wide = MAC_OVERHEAD.as_micros() + 1;
        cfg.engine =
            Engine::Sharded(ShardedConfig { shards: 0, threads: 1, window_micros: too_wide });
        let msg = message(cfg);
        assert!(msg.contains("`engine.window_micros`"), "field missing: {msg}");
        assert!(msg.contains("fall back to `engine = Engine::Serial`"), "fallback missing: {msg}");
    }
}
