//! Multi-seed aggregation: the metrics of independent runs of one scenario
//! with 95% confidence intervals.

use crate::metrics::RunSummary;
use crate::stats::{ci95, CiStat};

/// Aggregated metrics over a set of independent runs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AggregateSummary {
    /// QoS throughput, bytes/second.
    pub throughput_bps: CiStat,
    /// Mean QoS delay, seconds.
    pub mean_delay_s: CiStat,
    /// Communication energy, Joules.
    pub energy_communication_j: CiStat,
    /// Construction energy, Joules.
    pub energy_construction_j: CiStat,
    /// Total energy (both ledgers), Joules.
    pub energy_total_j: CiStat,
    /// QoS delivery ratio.
    pub qos_delivery_ratio: CiStat,
    /// Any-delay delivery ratio.
    pub delivery_ratio: CiStat,
    /// Link-layer retransmissions per run.
    pub retransmissions: CiStat,
    /// True failure detections per run.
    pub detections: CiStat,
    /// False suspicions per run.
    pub false_suspicions: CiStat,
    /// Mean breakdown→suspicion latency, seconds.
    pub detection_latency_s: CiStat,
    /// Section III-B4 Kautz-ID handovers per run.
    pub handovers: CiStat,
    /// Measured-window drops: no access member.
    pub drop_no_access: CiStat,
    /// Measured-window drops: no usable route/successor.
    pub drop_no_route: CiStat,
    /// Measured-window drops: hop budget exhausted.
    pub drop_hops: CiStat,
    /// Wrongful evictions (alive, honest nodes removed from membership).
    pub wrongful_evictions: CiStat,
    /// Forged ACKs by compromised receivers per run.
    pub forged_acks: CiStat,
    /// Slander accusations injected by compromised nodes per run.
    pub slander_events: CiStat,
    /// Unicast frames compromised senders redirected off-path per run.
    pub misroutes: CiStat,
    /// Compromised nodes suspected at least once per run.
    pub attackers_contained: CiStat,
    /// Mean start→first-suspicion time over contained attackers, seconds
    /// (seeds with no containment are excluded, like every NaN column).
    pub containment_time_s: CiStat,
    /// Median end-to-end delay, seconds (mean of per-seed p50s).
    pub delay_p50_s: CiStat,
    /// 95th-percentile end-to-end delay, seconds.
    pub delay_p95_s: CiStat,
    /// 99th-percentile end-to-end delay, seconds.
    pub delay_p99_s: CiStat,
    /// Fraction of delivered packets that missed the QoS deadline.
    pub deadline_miss_ratio: CiStat,
    /// Median end-to-end hop count.
    pub hop_p50: CiStat,
    /// 99th-percentile end-to-end hop count.
    pub hop_p99: CiStat,
    /// Median transmit-queue wait, seconds.
    pub queue_delay_p50_s: CiStat,
    /// 95th-percentile transmit-queue wait, seconds.
    pub queue_delay_p95_s: CiStat,
    /// 99th-percentile transmit-queue wait, seconds.
    pub queue_delay_p99_s: CiStat,
    /// Worst single transmit-queue wait, seconds.
    pub queue_max_s: CiStat,
    /// Busiest node's transmit airtime share of the measured window.
    pub hot_link_utilization: CiStat,
    /// Frames dropped at full transmit queues per run.
    pub congestion_drops: CiStat,
}

/// Aggregates per-run summaries into means with 95% confidence intervals.
///
/// Undefined per-seed values (NaN: the delivery ratio or delay tail of a
/// run that delivered nothing) are excluded from that column's statistic
/// rather than poisoning the mean; the stat's `n` reflects the seeds that
/// actually defined the quantity. A column no seed defined is undefined
/// too: NaN mean and half-width with `n == 0`, never a zero that reads as
/// a measurement.
pub fn aggregate(runs: &[RunSummary]) -> AggregateSummary {
    fn col(runs: &[RunSummary], f: impl Fn(&RunSummary) -> f64) -> CiStat {
        let xs: Vec<f64> = runs.iter().map(f).filter(|x| x.is_finite()).collect();
        if xs.is_empty() {
            return CiStat { mean: f64::NAN, ci95: f64::NAN, n: 0 };
        }
        ci95(&xs)
    }
    AggregateSummary {
        throughput_bps: col(runs, |r| r.throughput_bps),
        mean_delay_s: col(runs, |r| r.mean_delay_s),
        energy_communication_j: col(runs, |r| r.energy_communication_j),
        energy_construction_j: col(runs, |r| r.energy_construction_j),
        energy_total_j: col(runs, |r| r.energy_communication_j + r.energy_construction_j),
        qos_delivery_ratio: col(runs, |r| r.qos_delivery_ratio),
        delivery_ratio: col(runs, |r| r.delivery_ratio),
        retransmissions: col(runs, |r| r.retransmissions as f64),
        detections: col(runs, |r| r.detections as f64),
        false_suspicions: col(runs, |r| r.false_suspicions as f64),
        detection_latency_s: col(runs, |r| r.mean_detection_latency_s),
        handovers: col(runs, |r| r.handovers as f64),
        drop_no_access: col(runs, |r| r.drop_no_access as f64),
        drop_no_route: col(runs, |r| r.drop_no_route as f64),
        drop_hops: col(runs, |r| r.drop_hops as f64),
        wrongful_evictions: col(runs, |r| r.wrongful_evictions as f64),
        forged_acks: col(runs, |r| r.forged_acks as f64),
        slander_events: col(runs, |r| r.slander_events as f64),
        misroutes: col(runs, |r| r.misroutes as f64),
        attackers_contained: col(runs, |r| r.attackers_contained as f64),
        containment_time_s: col(runs, |r| r.mean_containment_time_s),
        delay_p50_s: col(runs, |r| r.delay_p50_s),
        delay_p95_s: col(runs, |r| r.delay_p95_s),
        delay_p99_s: col(runs, |r| r.delay_p99_s),
        deadline_miss_ratio: col(runs, |r| r.deadline_miss_ratio),
        hop_p50: col(runs, |r| r.hop_p50),
        hop_p99: col(runs, |r| r.hop_p99),
        queue_delay_p50_s: col(runs, |r| r.queue_delay_p50_s),
        queue_delay_p95_s: col(runs, |r| r.queue_delay_p95_s),
        queue_delay_p99_s: col(runs, |r| r.queue_delay_p99_s),
        queue_max_s: col(runs, |r| r.queue_max_s),
        hot_link_utilization: col(runs, |r| r.hot_link_utilization),
        congestion_drops: col(runs, |r| r.congestion_drops as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_of_identical_runs_has_zero_ci() {
        let run = RunSummary {
            throughput_bps: 100.0,
            mean_delay_s: 0.1,
            energy_communication_j: 50.0,
            energy_construction_j: 5.0,
            qos_delivery_ratio: 0.9,
            delivery_ratio: 0.95,
            mean_delay_all_s: 0.12,
            frames_sent: 10,
            broadcasts_sent: 2,
            hotspot_energy_j: 12.0,
            energy_fairness: 0.8,
            retransmissions: 3,
            stale_acks: 1,
            detections: 2,
            false_suspicions: 1,
            mean_detection_latency_s: 0.5,
            handovers: 1,
            drop_no_access: 0,
            drop_no_route: 4,
            drop_hops: 0,
            wrongful_evictions: 1,
            forged_acks: 6,
            slander_events: 2,
            misroutes: 4,
            attackers_contained: 2,
            mean_containment_time_s: 1.5,
            oracle_queries: 0,
            delay_p50_s: 0.08,
            delay_p95_s: 0.2,
            delay_p99_s: 0.3,
            deadline_miss_ratio: 0.1,
            hop_p50: 3.0,
            hop_p99: 7.0,
            queue_delay_p50_s: 0.002,
            queue_delay_p95_s: 0.02,
            queue_delay_p99_s: 0.0625,
            queue_max_s: 0.25,
            hot_link_utilization: 0.5,
            congestion_drops: 5,
        };
        let agg = aggregate(&[run.clone(), run.clone(), run]);
        assert_eq!(agg.throughput_bps.mean, 100.0);
        assert_eq!(agg.throughput_bps.ci95, 0.0);
        assert_eq!(agg.energy_total_j.mean, 55.0);
        assert_eq!(agg.qos_delivery_ratio.n, 3);
        assert_eq!(agg.delay_p99_s.mean, 0.3);
        assert_eq!(agg.hop_p50.n, 3);
        assert_eq!(agg.wrongful_evictions.mean, 1.0);
        assert_eq!(agg.containment_time_s.mean, 1.5);
        assert_eq!(agg.containment_time_s.n, 3);
        assert_eq!(agg.queue_delay_p99_s.mean, 0.0625);
        assert_eq!(agg.hot_link_utilization.mean, 0.5);
        assert_eq!(agg.congestion_drops.mean, 5.0);
    }

    #[test]
    fn aggregate_excludes_nan_columns_per_seed() {
        let defined =
            RunSummary { delivery_ratio: 0.5, delay_p50_s: 0.1, ..RunSummary::default() };
        let undefined = RunSummary {
            delivery_ratio: f64::NAN,
            delay_p50_s: f64::NAN,
            ..RunSummary::default()
        };
        let agg = aggregate(&[defined, undefined]);
        assert_eq!(agg.delivery_ratio.n, 1);
        assert_eq!(agg.delivery_ratio.mean, 0.5);
        assert_eq!(agg.delay_p50_s.n, 1);
        assert_eq!(agg.delay_p50_s.mean, 0.1);
        assert_eq!(agg.throughput_bps.n, 2);
    }

    #[test]
    fn a_column_no_seed_defined_aggregates_to_nan_not_zero() {
        let run = RunSummary { mean_containment_time_s: f64::NAN, ..RunSummary::default() };
        let agg = aggregate(&[run.clone(), run]);
        assert_eq!(agg.containment_time_s.n, 0);
        assert!(agg.containment_time_s.mean.is_nan(), "{:?}", agg.containment_time_s);
        assert!(agg.containment_time_s.ci95.is_nan(), "{:?}", agg.containment_time_s);
        // Defined columns of the same runs are untouched.
        assert_eq!(agg.throughput_bps, CiStat { mean: 0.0, ci95: 0.0, n: 2 });
    }
}
