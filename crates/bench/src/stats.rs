//! Small-sample statistics: means and 95% confidence intervals over
//! independent seeded runs ("All experimental results report 95% confidence
//! intervals", Section IV).

use wsan_sim::RunSummary;

/// A mean with its symmetric 95% confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CiStat {
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95% confidence interval (Student's t).
    pub ci95: f64,
    /// Number of samples.
    pub n: usize,
}

/// Two-sided 95% Student's t critical values for `n - 1` degrees of freedom,
/// `n` in `1..=30`; falls back to the normal 1.96 beyond the table.
fn t_crit(n: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179,
        2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
    ];
    if n < 2 {
        return f64::NAN;
    }
    let df = n - 1;
    if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        1.96
    }
}

/// Sample mean of `xs`; `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample standard deviation; `0.0` for fewer than two samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Mean and 95% CI half-width of the finite samples, taken in order.
///
/// An undefined sample (NaN: the delivery ratio or delay tail of a run
/// that delivered nothing) is skipped rather than poisoning the mean, and
/// `n` counts the samples kept. With none kept the statistic is undefined
/// too: NaN mean and half-width with `n == 0`, never a zero that reads as
/// a measurement. With one the half-width is zero (no spread information),
/// mirroring how single-seed smoke runs are reported.
pub fn ci95(xs: impl IntoIterator<Item = f64>) -> CiStat {
    let xs: Vec<f64> = xs.into_iter().filter(|x| x.is_finite()).collect();
    let n = xs.len();
    if n == 0 {
        return CiStat { mean: f64::NAN, ci95: f64::NAN, n };
    }
    let m = mean(&xs);
    if n < 2 {
        return CiStat { mean: m, ci95: 0.0, n };
    }
    let half = t_crit(n) * std_dev(&xs) / (n as f64).sqrt();
    CiStat { mean: m, ci95: half, n }
}

/// The per-run value of one reported statistic.
pub type Column = fn(&RunSummary) -> f64;

/// One column of a sweep cell: `f` of each per-seed run, in seed order,
/// through [`ci95`]. Every figure table, SVG and sweep dump reads its
/// statistics through this.
pub fn column(runs: &[RunSummary], f: Column) -> CiStat {
    ci95(runs.iter().map(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::STATS;
    use wsan_sim::{flood::FloodProtocol, runner, SimConfig, SimDuration};

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn ci_for_five_samples_uses_t_table() {
        let s = ci95([10.0, 12.0, 9.0, 11.0, 13.0]);
        assert_eq!(s.n, 5);
        // t(4 df) = 2.776; sd = sqrt(2.5); half = 2.776 * sqrt(2.5)/sqrt(5)
        let expect = 2.776 * (2.5f64).sqrt() / (5f64).sqrt();
        assert!((s.ci95 - expect).abs() < 1e-9);
        assert!(s.ci95 > 0.0);
    }

    #[test]
    fn degenerate_samples() {
        for none in [vec![], vec![f64::NAN, f64::INFINITY]] {
            let s = ci95(none);
            assert_eq!(s.n, 0);
            assert!(s.mean.is_nan() && s.ci95.is_nan(), "{s:?}");
        }
        assert_eq!(ci95([42.0]), CiStat { mean: 42.0, ci95: 0.0, n: 1 });
        assert_eq!(ci95([f64::NAN, 42.0]), CiStat { mean: 42.0, ci95: 0.0, n: 1 });
    }

    #[test]
    fn identical_samples_have_zero_width() {
        let s = ci95([3.0; 10]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn large_n_falls_back_to_normal() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = ci95(xs.iter().copied());
        let expect = 1.96 * std_dev(&xs) / 10.0;
        assert!((s.ci95 - expect).abs() < 1e-9);
    }

    #[test]
    fn identical_runs_give_every_column_zero_width() {
        let run = RunSummary {
            throughput_bps: 100.0,
            mean_delay_s: 0.1,
            energy_communication_j: 50.0,
            energy_construction_j: 5.0,
            qos_delivery_ratio: 0.9,
            delivery_ratio: 0.95,
            retransmissions: 3,
            detections: 2,
            false_suspicions: 1,
            mean_detection_latency_s: 0.5,
            handovers: 1,
            drop_no_route: 4,
            wrongful_evictions: 1,
            forged_acks: 6,
            slander_events: 2,
            misroutes: 4,
            attackers_contained: 2,
            mean_containment_time_s: 1.5,
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
            ..RunSummary::default()
        };
        // Two runs, so the mean of every column is exact.
        let runs = [run.clone(), run.clone()];
        for (name, f) in STATS {
            assert_eq!(column(&runs, f), CiStat { mean: f(&run), ci95: 0.0, n: 2 }, "{name}");
        }
        assert_eq!(column(&runs, crate::energy_total_j).mean, 55.0);
        assert_eq!(column(&runs, |r| r.mean_containment_time_s).mean, 1.5);
        assert_eq!(column(&runs, |r| r.congestion_drops as f64).mean, 5.0);
    }

    #[test]
    fn a_column_skips_the_seeds_that_left_it_undefined() {
        let defined =
            RunSummary { delivery_ratio: 0.5, delay_p50_s: 0.1, ..RunSummary::default() };
        let undefined = RunSummary {
            delivery_ratio: f64::NAN,
            delay_p50_s: f64::NAN,
            ..RunSummary::default()
        };
        let runs = [defined, undefined];
        assert_eq!(column(&runs, |r| r.delivery_ratio), CiStat { mean: 0.5, ci95: 0.0, n: 1 });
        assert_eq!(column(&runs, |r| r.delay_p50_s), CiStat { mean: 0.1, ci95: 0.0, n: 1 });
        assert_eq!(column(&runs, |r| r.throughput_bps).n, 2);
    }

    #[test]
    fn a_column_no_seed_defined_is_nan_not_zero() {
        let run = RunSummary { mean_containment_time_s: f64::NAN, ..RunSummary::default() };
        let runs = [run.clone(), run];
        let stat = column(&runs, |r| r.mean_containment_time_s);
        assert_eq!(stat.n, 0);
        assert!(stat.mean.is_nan(), "{stat:?}");
        assert!(stat.ci95.is_nan(), "{stat:?}");
        // Defined columns of the same runs are untouched.
        assert_eq!(column(&runs, |r| r.throughput_bps), CiStat { mean: 0.0, ci95: 0.0, n: 2 });
    }

    #[test]
    fn total_energy_over_seeded_runs_is_communication_plus_construction() {
        let mut cfg = SimConfig::smoke();
        cfg.sensors = 40;
        cfg.traffic.rate_bps = 40_000.0;
        cfg.warmup = SimDuration::from_secs(5);
        cfg.duration = SimDuration::from_secs(30);
        let runs: Vec<RunSummary> = [1, 2, 3]
            .into_iter()
            .map(|seed| runner::run(SimConfig { seed, ..cfg.clone() }, &mut FloodProtocol::new(5)))
            .collect();
        let throughput = column(&runs, |r| r.throughput_bps);
        assert_eq!(throughput.n, 3);
        assert!(throughput.mean > 0.0);
        let total = column(&runs, crate::energy_total_j);
        let communication = column(&runs, |r| r.energy_communication_j);
        let construction = column(&runs, |r| r.energy_construction_j);
        assert!(total.mean >= communication.mean);
        let sum = communication.mean + construction.mean;
        assert!((total.mean - sum).abs() <= 1e-9 * sum, "{total:?} vs {sum}");
    }
}
