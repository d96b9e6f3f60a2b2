//! Small-sample statistics: means and 95% confidence intervals over
//! independent seeded runs ("All experimental results report 95% confidence
//! intervals", Section IV).

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

impl CiStat {
    /// Lower bound of the interval.
    pub fn lo(&self) -> f64 {
        self.mean - self.ci95
    }

    /// Upper bound of the interval.
    pub fn hi(&self) -> f64 {
        self.mean + self.ci95
    }
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

/// Mean and 95% CI half-width of the samples.
///
/// With fewer than two samples the half-width is zero (no spread
/// information), mirroring how single-seed smoke runs are reported.
pub fn ci95(xs: &[f64]) -> CiStat {
    let n = xs.len();
    let m = mean(xs);
    if n < 2 {
        return CiStat { mean: m, ci95: 0.0, n };
    }
    let half = t_crit(n) * std_dev(xs) / (n as f64).sqrt();
    CiStat { mean: m, ci95: half, n }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn ci_for_five_samples_uses_t_table() {
        let xs = [10.0, 12.0, 9.0, 11.0, 13.0];
        let s = ci95(&xs);
        assert_eq!(s.n, 5);
        // t(4 df) = 2.776; sd = sqrt(2.5); half = 2.776 * sqrt(2.5)/sqrt(5)
        let expect = 2.776 * (2.5f64).sqrt() / (5f64).sqrt();
        assert!((s.ci95 - expect).abs() < 1e-9);
        assert!(s.lo() < s.mean && s.mean < s.hi());
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(ci95(&[]).mean, 0.0);
        let one = ci95(&[42.0]);
        assert_eq!(one.mean, 42.0);
        assert_eq!(one.ci95, 0.0);
    }

    #[test]
    fn identical_samples_have_zero_width() {
        let s = ci95(&[3.0; 10]);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.ci95, 0.0);
    }

    #[test]
    fn large_n_falls_back_to_normal() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let s = ci95(&xs);
        let expect = 1.96 * std_dev(&xs) / 10.0;
        assert!((s.ci95 - expect).abs() < 1e-9);
    }
}
