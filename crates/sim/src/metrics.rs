//! Run metrics: the three quantities the paper's figures report, plus
//! supporting counters.

use crate::energy::EnergyLedger;
use crate::hist::LogHistogram;
use crate::time::SimDuration;

/// Why a protocol gave up on an application packet. Feeds the per-reason
/// drop counters exported in [`RunSummary`]; protocols with richer internal
/// stats map their reasons onto these buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// No access member / first hop toward an actuator was available.
    NoAccess,
    /// Routing found no usable successor (all candidate next hops down).
    NoRoute,
    /// The packet exceeded the protocol's hop budget.
    HopLimit,
    /// Anything else (the legacy `drop_data` bucket).
    Other,
}

impl DropReason {
    /// Every variant, in declaration order.
    pub const ALL: [DropReason; 4] =
        [DropReason::NoAccess, DropReason::NoRoute, DropReason::HopLimit, DropReason::Other];

    /// Stable lowercase name used by trace codecs and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            DropReason::NoAccess => "no-access",
            DropReason::NoRoute => "no-route",
            DropReason::HopLimit => "hop-limit",
            DropReason::Other => "other",
        }
    }
}

/// Raw counters accumulated during a run.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Bytes of application data delivered within the QoS deadline
    /// (measured window only).
    pub qos_bytes: u64,
    /// Number of QoS-compliant deliveries.
    pub qos_packets: u64,
    /// Sum of delays of QoS-compliant deliveries, seconds.
    pub qos_delay_sum: f64,
    /// All deliveries (including late ones), measured window only.
    pub delivered_packets: u64,
    /// Sum of delays over all deliveries, seconds.
    pub delivered_delay_sum: f64,
    /// Application packets handed to the protocol in the measured window.
    pub offered_packets: u64,
    /// Packets explicitly dropped by the protocol.
    pub dropped_packets: u64,
    /// Unicast frames sent (all accounts).
    pub frames_sent: u64,
    /// Broadcast frames sent (all accounts).
    pub broadcasts_sent: u64,
    /// Frames that failed at send time (dead link / faulty receiver).
    pub frames_failed: u64,
    /// Frames tail-dropped by interface-queue overflow.
    pub frames_queue_dropped: u64,
    /// Link-layer retransmissions of acknowledged frames.
    pub frames_retransmitted: u64,
    /// Acknowledged frames abandoned after exhausting their retries.
    pub frames_expired: u64,
    /// Duplicate or late ACKs that arrived for a frame no longer pending
    /// (already acknowledged, or expired first). Counted and dropped —
    /// never an error.
    pub stale_acks: u64,
    /// Suspicions raised against nodes that really were faulty.
    pub detections: u64,
    /// Suspicions raised against nodes that were actually alive.
    pub false_suspicions: u64,
    /// Sum over true detections of (suspicion time - breakdown time), s.
    pub detection_latency_sum_s: f64,
    /// Kautz-ID handovers performed by maintenance (Section III-B4).
    pub handovers: u64,
    /// Measured-window drops for lack of an access member.
    pub drop_no_access: u64,
    /// Measured-window drops for lack of a usable route/successor.
    pub drop_no_route: u64,
    /// Measured-window drops on hop-budget exhaustion.
    pub drop_hops: u64,
    /// Evictions (membership removals driven by failure belief) of nodes
    /// that were actually alive — the damage false suspicion causes.
    pub wrongful_evictions: u64,
    /// Energy totals per account and mode.
    pub energy: EnergyLedger,
    /// Per-frame radio queue waits (time between a frame being handed to
    /// the sender's radio and the transmission actually starting),
    /// microseconds, measured window only. The congestion signal a traffic
    /// matrix is designed to provoke.
    pub queue_hist: LogHistogram,
    /// Deepest queue wait observed in the measured window, microseconds.
    /// Max-merged across shards (the only non-additive scalar here).
    pub queue_max_us: u64,
    /// End-to-end delays of all measured deliveries, microseconds.
    pub delay_hist: LogHistogram,
    /// End-to-end hop counts of measured deliveries whose protocol
    /// reported them (transmissions, so a direct delivery is 1).
    pub hop_hist: LogHistogram,
}

/// The per-run summary the figure harness consumes.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// QoS throughput, bytes per second of measured time (Figures 4, 7).
    pub throughput_bps: f64,
    /// Mean end-to-end delay of QoS-compliant packets, seconds
    /// (Figures 6, 8); NaN when no packet met the deadline.
    pub mean_delay_s: f64,
    /// Energy consumed in communication, Joules (Figures 5, 9).
    pub energy_communication_j: f64,
    /// Energy consumed in topology construction, Joules (Figure 10).
    pub energy_construction_j: f64,
    /// Fraction of offered packets delivered within the deadline.
    pub qos_delivery_ratio: f64,
    /// Fraction of offered packets delivered at all.
    pub delivery_ratio: f64,
    /// Mean delay over all deliveries (not just QoS-compliant), seconds;
    /// NaN when nothing was delivered.
    pub mean_delay_all_s: f64,
    /// Unicast frames sent during the whole run.
    pub frames_sent: u64,
    /// Broadcast frames sent during the whole run.
    pub broadcasts_sent: u64,
    /// Highest per-sensor energy consumption, Joules: the hotspot a
    /// load-balancing topology tries to avoid.
    pub hotspot_energy_j: f64,
    /// Jain fairness index of per-sensor energy consumption in `(0, 1]`
    /// (1 = perfectly even load).
    pub energy_fairness: f64,
    /// Link-layer retransmissions of acknowledged frames.
    pub retransmissions: u64,
    /// Duplicate or late link-layer ACKs that arrived after their pending
    /// entry was already settled (acknowledged or expired). Counted and
    /// dropped — never fatal.
    pub stale_acks: u64,
    /// Suspicions raised against genuinely faulty nodes.
    pub detections: u64,
    /// Suspicions raised against nodes that were actually alive.
    pub false_suspicions: u64,
    /// Mean latency from breakdown to suspicion over true detections,
    /// seconds (0 when none).
    pub mean_detection_latency_s: f64,
    /// Kautz-ID handovers performed by maintenance (Section III-B4).
    pub handovers: u64,
    /// Measured-window drops for lack of an access member.
    pub drop_no_access: u64,
    /// Measured-window drops for lack of a usable route/successor.
    pub drop_no_route: u64,
    /// Measured-window drops on hop-budget exhaustion.
    pub drop_hops: u64,
    /// Evictions of nodes that were alive — the membership damage false
    /// suspicion caused.
    pub wrongful_evictions: u64,
    /// Fault-oracle consultations (`is_faulty`/`link_ok`/`neighbors`) made
    /// during the run: zero in an honest `FaultModel::Discovered` run.
    pub oracle_queries: u64,
    /// Median end-to-end delay over all measured deliveries, seconds
    /// (log-bucketed, relative error < 1/16). NaN when nothing was
    /// delivered — an empty tail must not masquerade as a zero one.
    pub delay_p50_s: f64,
    /// 95th-percentile end-to-end delay, seconds (NaN when no deliveries).
    pub delay_p95_s: f64,
    /// 99th-percentile end-to-end delay, seconds (NaN when no deliveries).
    pub delay_p99_s: f64,
    /// Fraction of *delivered* packets that missed the QoS deadline — the
    /// real-time tail the mean hides. NaN when nothing was delivered.
    pub deadline_miss_ratio: f64,
    /// Median end-to-end hop count of deliveries whose protocol reported
    /// hops (NaN when none did).
    pub hop_p50: f64,
    /// 99th-percentile end-to-end hop count (NaN when none reported).
    pub hop_p99: f64,
    /// Median per-frame radio queue wait, seconds (NaN when no frame was
    /// queued in the measured window).
    pub queue_delay_p50_s: f64,
    /// 95th-percentile per-frame radio queue wait, seconds (NaN when no
    /// frame was queued).
    pub queue_delay_p95_s: f64,
    /// 99th-percentile per-frame radio queue wait, seconds (NaN when no
    /// frame was queued) — the congestion tail the Faber–Streib comparison
    /// is judged on.
    pub queue_delay_p99_s: f64,
    /// Deepest per-frame radio queue wait, seconds (NaN when no frame was
    /// queued).
    pub queue_max_s: f64,
    /// Highest per-node link utilization: the busiest node's transmit
    /// airtime divided by the measured duration. NaN when the engine did
    /// not compute it (summaries built directly from [`Metrics`]).
    pub hot_link_utilization: f64,
    /// Frames tail-dropped by full interface queues in the measured window
    /// — losses attributable to congestion rather than faults.
    pub congestion_drops: u64,
}

/// Bitwise float equality, so the NaN tails of a run that delivered
/// nothing compare equal to themselves and determinism assertions like
/// `serial == parallel` keep holding.
impl PartialEq for RunSummary {
    fn eq(&self, other: &Self) -> bool {
        fn f(a: f64, b: f64) -> bool {
            a.to_bits() == b.to_bits()
        }
        f(self.throughput_bps, other.throughput_bps)
            && f(self.mean_delay_s, other.mean_delay_s)
            && f(self.energy_communication_j, other.energy_communication_j)
            && f(self.energy_construction_j, other.energy_construction_j)
            && f(self.qos_delivery_ratio, other.qos_delivery_ratio)
            && f(self.delivery_ratio, other.delivery_ratio)
            && f(self.mean_delay_all_s, other.mean_delay_all_s)
            && self.frames_sent == other.frames_sent
            && self.broadcasts_sent == other.broadcasts_sent
            && f(self.hotspot_energy_j, other.hotspot_energy_j)
            && f(self.energy_fairness, other.energy_fairness)
            && self.retransmissions == other.retransmissions
            && self.stale_acks == other.stale_acks
            && self.detections == other.detections
            && self.false_suspicions == other.false_suspicions
            && f(self.mean_detection_latency_s, other.mean_detection_latency_s)
            && self.handovers == other.handovers
            && self.drop_no_access == other.drop_no_access
            && self.drop_no_route == other.drop_no_route
            && self.drop_hops == other.drop_hops
            && self.wrongful_evictions == other.wrongful_evictions
            && self.oracle_queries == other.oracle_queries
            && f(self.delay_p50_s, other.delay_p50_s)
            && f(self.delay_p95_s, other.delay_p95_s)
            && f(self.delay_p99_s, other.delay_p99_s)
            && f(self.deadline_miss_ratio, other.deadline_miss_ratio)
            && f(self.hop_p50, other.hop_p50)
            && f(self.hop_p99, other.hop_p99)
            && f(self.queue_delay_p50_s, other.queue_delay_p50_s)
            && f(self.queue_delay_p95_s, other.queue_delay_p95_s)
            && f(self.queue_delay_p99_s, other.queue_delay_p99_s)
            && f(self.queue_max_s, other.queue_max_s)
            && f(self.hot_link_utilization, other.hot_link_utilization)
            && self.congestion_drops == other.congestion_drops
    }
}

/// Jain's fairness index of a load vector: `(sum x)^2 / (n * sum x^2)`.
/// Returns 1.0 for an empty or all-zero vector (no load is evenly no load).
pub fn jain_fairness(xs: &[f64]) -> f64 {
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if xs.is_empty() || sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sq)
}

impl Metrics {
    /// Accumulates another run fragment's counters into this one — the
    /// reduction the sharded runner applies over its per-shard metrics.
    /// Every field is a sum (or a histogram/ledger merge), so merging in
    /// shard order is associative and order-deterministic.
    pub fn merge(&mut self, other: &Metrics) {
        self.qos_bytes += other.qos_bytes;
        self.qos_packets += other.qos_packets;
        self.qos_delay_sum += other.qos_delay_sum;
        self.delivered_packets += other.delivered_packets;
        self.delivered_delay_sum += other.delivered_delay_sum;
        self.offered_packets += other.offered_packets;
        self.dropped_packets += other.dropped_packets;
        self.frames_sent += other.frames_sent;
        self.broadcasts_sent += other.broadcasts_sent;
        self.frames_failed += other.frames_failed;
        self.frames_queue_dropped += other.frames_queue_dropped;
        self.frames_retransmitted += other.frames_retransmitted;
        self.frames_expired += other.frames_expired;
        self.stale_acks += other.stale_acks;
        self.detections += other.detections;
        self.false_suspicions += other.false_suspicions;
        self.detection_latency_sum_s += other.detection_latency_sum_s;
        self.handovers += other.handovers;
        self.drop_no_access += other.drop_no_access;
        self.drop_no_route += other.drop_no_route;
        self.drop_hops += other.drop_hops;
        self.wrongful_evictions += other.wrongful_evictions;
        self.energy.merge(&other.energy);
        self.queue_hist.merge(&other.queue_hist);
        self.queue_max_us = self.queue_max_us.max(other.queue_max_us);
        self.delay_hist.merge(&other.delay_hist);
        self.hop_hist.merge(&other.hop_hist);
    }

    /// Produces the run summary for a measured window of `measured` length.
    ///
    /// When no traffic was offered in the measured window, the delivery
    /// ratios are undefined and reported as [`f64::NAN`] — a run that
    /// delivered 0 of 0 packets must not masquerade as a 0% (or any other)
    /// delivery ratio when aggregated across seeds. A mean delay over no
    /// packets is NaN for the same reason: it is not the best delay.
    pub fn summarize(&self, measured: SimDuration) -> RunSummary {
        let secs = measured.as_secs_f64().max(f64::EPSILON);
        let offered = self.offered_packets as f64;
        RunSummary {
            throughput_bps: self.qos_bytes as f64 / secs,
            mean_delay_s: self.qos_delay_sum / self.qos_packets as f64,
            energy_communication_j: self.energy.communication_total(),
            energy_construction_j: self.energy.construction_total(),
            qos_delivery_ratio: self.qos_packets as f64 / offered,
            delivery_ratio: self.delivered_packets as f64 / offered,
            mean_delay_all_s: self.delivered_delay_sum / self.delivered_packets as f64,
            frames_sent: self.frames_sent,
            broadcasts_sent: self.broadcasts_sent,
            hotspot_energy_j: 0.0,
            energy_fairness: 1.0,
            retransmissions: self.frames_retransmitted,
            stale_acks: self.stale_acks,
            detections: self.detections,
            false_suspicions: self.false_suspicions,
            mean_detection_latency_s: if self.detections > 0 {
                self.detection_latency_sum_s / self.detections as f64
            } else {
                0.0
            },
            handovers: self.handovers,
            drop_no_access: self.drop_no_access,
            drop_no_route: self.drop_no_route,
            drop_hops: self.drop_hops,
            wrongful_evictions: self.wrongful_evictions,
            oracle_queries: 0,
            delay_p50_s: self.delay_hist.quantile_secs(0.50),
            delay_p95_s: self.delay_hist.quantile_secs(0.95),
            delay_p99_s: self.delay_hist.quantile_secs(0.99),
            deadline_miss_ratio: if self.delivered_packets > 0 {
                1.0 - self.qos_packets as f64 / self.delivered_packets as f64
            } else {
                f64::NAN
            },
            hop_p50: self.hop_hist.quantile(0.50).map_or(f64::NAN, |h| h as f64),
            hop_p99: self.hop_hist.quantile(0.99).map_or(f64::NAN, |h| h as f64),
            queue_delay_p50_s: self.queue_hist.quantile_secs(0.50),
            queue_delay_p95_s: self.queue_hist.quantile_secs(0.95),
            queue_delay_p99_s: self.queue_hist.quantile_secs(0.99),
            queue_max_s: if self.queue_hist.is_empty() {
                f64::NAN
            } else {
                self.queue_max_us as f64 / 1e6
            },
            // Needs per-node airtime the engines gather after summarize —
            // same post-hoc convention as hotspot_energy_j above.
            hot_link_utilization: f64::NAN,
            congestion_drops: self.frames_queue_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_divides_by_measured_window() {
        let m = Metrics {
            qos_bytes: 600_000,
            qos_packets: 600,
            qos_delay_sum: 60.0,
            delivered_packets: 700,
            delivered_delay_sum: 140.0,
            offered_packets: 1000,
            ..Default::default()
        };
        let s = m.summarize(SimDuration::from_secs(100));
        assert_eq!(s.throughput_bps, 6_000.0);
        assert_eq!(s.mean_delay_s, 0.1);
        assert_eq!(s.mean_delay_all_s, 0.2);
        assert_eq!(s.qos_delivery_ratio, 0.6);
        assert_eq!(s.delivery_ratio, 0.7);
        // 600 of 700 deliveries made the deadline.
        assert!((s.deadline_miss_ratio - 100.0 / 700.0).abs() < 1e-12);
    }

    #[test]
    fn summary_reports_delay_percentiles_from_the_histogram() {
        let mut m = Metrics { delivered_packets: 4, qos_packets: 4, ..Default::default() };
        // Exact bucket edges: 1 ms, 2 ms, 3 ms, 4 ms (all below 16 * 1024 us
        // octave granularity concerns? they are edges of their buckets).
        for micros in [1_000u64, 2_000, 3_000, 4_000] {
            m.delay_hist.record(micros);
            m.hop_hist.record(micros / 1_000);
        }
        let s = m.summarize(SimDuration::from_secs(10));
        // p50 of 4 samples = 2nd smallest; bucket lower edges are within
        // 1/16 below the recorded values.
        let p50 = s.delay_p50_s;
        assert!(p50 > 0.002 * (1.0 - 1.0 / 16.0) && p50 <= 0.002, "p50 {p50}");
        assert!(s.delay_p99_s >= s.delay_p50_s);
        assert_eq!(s.hop_p50, 2.0);
        assert_eq!(s.deadline_miss_ratio, 0.0);
    }

    #[test]
    fn jain_fairness_behaviour() {
        assert_eq!(jain_fairness(&[]), 1.0);
        assert_eq!(jain_fairness(&[0.0, 0.0]), 1.0);
        assert!((jain_fairness(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One node carrying everything: fairness = 1/n.
        assert!((jain_fairness(&[10.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        let skewed = jain_fairness(&[9.0, 1.0, 1.0, 1.0]);
        assert!(skewed > 0.25 && skewed < 1.0);
    }

    #[test]
    fn summary_handles_empty_run() {
        let s = Metrics::default().summarize(SimDuration::from_secs(10));
        assert_eq!(s.throughput_bps, 0.0);
        // A mean over no packets is undefined, not the best delay.
        assert!(s.mean_delay_s.is_nan());
        assert!(s.mean_delay_all_s.is_nan());
        // 0 delivered of 0 offered is undefined, not a 0% delivery ratio.
        assert!(s.qos_delivery_ratio.is_nan());
        assert!(s.delivery_ratio.is_nan());
        // Likewise the tail of an empty run is undefined, not zero.
        assert!(s.delay_p50_s.is_nan());
        assert!(s.delay_p99_s.is_nan());
        assert!(s.deadline_miss_ratio.is_nan());
        assert!(s.hop_p50.is_nan());
        assert!(s.queue_delay_p99_s.is_nan());
        assert!(s.queue_max_s.is_nan());
        assert!(s.hot_link_utilization.is_nan());
        assert_eq!(s.congestion_drops, 0);
    }

    #[test]
    fn queue_metrics_merge_and_summarize() {
        let mut a = Metrics::default();
        a.queue_hist.record(0);
        // Exact bucket edges (powers of two), so quantiles recover them.
        a.queue_hist.record(8_192);
        a.queue_max_us = 8_192;
        a.frames_queue_dropped = 2;
        let mut b = Metrics::default();
        b.queue_hist.record(524_288);
        b.queue_max_us = 524_288;
        b.frames_queue_dropped = 1;
        a.merge(&b);
        assert_eq!(a.queue_hist.count(), 3);
        assert_eq!(a.queue_max_us, 524_288);
        let s = a.summarize(SimDuration::from_secs(10));
        assert_eq!(s.congestion_drops, 3);
        assert_eq!(s.queue_max_s, 0.524288);
        assert_eq!(s.queue_delay_p50_s, 0.008192);
        assert!(s.queue_delay_p99_s >= s.queue_delay_p50_s);
    }
}
