//! Sample statistics and the bound arithmetic of `compare`.

/// Minimum, quartiles and count of one metric's repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub n: usize,
}

/// Quartiles by the rule of Python's `statistics.quantiles(v, n=4)`
/// (its default "exclusive" method), the one the acceptance driver
/// applies to the ten-seed spreads: position `i·(n+1)/4` in the sorted
/// sample, linearly interpolated and clamped to the ends.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    assert!(n >= 1, "quartiles of an empty sample");
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (at(1), at(2), at(3))
}

impl Spread {
    /// Summarizes `samples` (non-empty, all finite).
    pub fn of(samples: &[f64]) -> Spread {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&sorted);
        Spread {
            min: sorted[0],
            q1,
            median,
            q3,
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One row's outcome in `compare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    /// The two sets differ by less than their own spread allows one to
    /// tell: neither "unchanged" nor a change can be claimed.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By what share of `a` the value `b` is worse (negative: better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == b {
        return 0.0;
    }
    let rel = (b - a) / a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => rel,
        Better::Higher => -rel,
    }
}

/// The bound for a host-time metric from the builder's measurements:
/// twice the largest set-to-set difference of the minimum, never under
/// ten percent, never over the contract's cap of a quarter.
pub fn host_time_bound(set_minima: &[f64]) -> f64 {
    let mut largest = 0.0f64;
    for (i, &a) in set_minima.iter().enumerate() {
        for &b in &set_minima[i + 1..] {
            largest = largest.max((a - b).abs() / a.min(b));
        }
    }
    (2.0 * largest).clamp(0.10, 0.25)
}

/// Compares set B against set A on one metric. `value_*` is the reported
/// value (the minimum for host-time metrics), `spread_*` the repetitions
/// around it (`None` for metrics that repeat exactly).
pub fn verdict(
    value_a: f64,
    spread_a: Option<&Spread>,
    value_b: f64,
    spread_b: Option<&Spread>,
    better: Better,
    bound: f64,
) -> Verdict {
    let worse = worse_by(value_a, value_b, better);
    let (Some(sa), Some(sb)) = (spread_a, spread_b) else {
        // Exact metrics: any difference is real.
        return match worse {
            w if w > bound => Verdict::Worse,
            w if w < -bound => Verdict::Better,
            _ => Verdict::Unchanged,
        };
    };
    // Every repetition of one side beats every repetition of the other:
    // resolved whatever the spread.
    let disjoint = match better {
        Better::Lower => sb.max < sa.min || sa.max < sb.min,
        Better::Higher => sb.min > sa.max || sa.min > sb.max,
    };
    let noisy = sa.rel_iqr().max(sb.rel_iqr()) > bound;
    if worse > bound {
        if noisy && !disjoint {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if worse < -bound {
        if noisy && !disjoint {
            Verdict::Unresolved
        } else {
            Verdict::Better
        }
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256], n=4)
        //   == [3.0, 16.0, 96.0]
        let v = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0];
        assert_eq!(quartiles(&v), (3.0, 16.0, 96.0));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
    }

    #[test]
    fn spread_reports_min_median_and_relative_iqr() {
        let s = Spread::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.min, s.median, s.max, s.n), (1.0, 3.0, 5.0, 5));
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert!((s.rel_iqr() - 1.0).abs() < 1e-12);
        let one = Spread::of(&[7.0]);
        assert_eq!(
            (one.min, one.q1, one.q3, one.rel_iqr()),
            (7.0, 7.0, 7.0, 0.0)
        );
    }

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 11.0, Better::Higher) + 0.1).abs() < 1e-12);
        assert_eq!(worse_by(3.0, 3.0, Better::Lower), 0.0);
    }

    #[test]
    fn host_time_bound_is_twice_the_largest_gap_within_limits() {
        assert_eq!(host_time_bound(&[1.0, 1.01, 1.02]), 0.10);
        assert!((host_time_bound(&[1.0, 1.08, 1.04]) - 0.16).abs() < 1e-12);
        assert_eq!(host_time_bound(&[1.0, 2.0]), 0.25);
    }

    #[test]
    fn verdicts_apply_bound_spread_and_disjointness() {
        let tight = |m: f64| Spread {
            min: m,
            q1: m * 1.01,
            median: m * 1.02,
            q3: m * 1.03,
            max: m * 1.05,
            n: 9,
        };
        let wide = |m: f64| Spread {
            min: m,
            q1: m * 1.1,
            median: m * 1.3,
            q3: m * 1.6,
            max: m * 2.0,
            n: 9,
        };
        let lo = Better::Lower;
        assert_eq!(
            verdict(1.0, Some(&tight(1.0)), 1.04, Some(&tight(1.04)), lo, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(1.0, Some(&tight(1.0)), 1.3, Some(&tight(1.3)), lo, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            verdict(1.0, Some(&tight(1.0)), 0.7, Some(&tight(0.7)), lo, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(1.0, Some(&wide(1.0)), 1.04, Some(&wide(1.04)), lo, 0.1),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(1.0, Some(&wide(1.0)), 1.3, Some(&wide(1.3)), lo, 0.1),
            Verdict::Unresolved
        );
        // Wide but disjoint: every run of B is slower than every run of A.
        assert_eq!(
            verdict(1.0, Some(&wide(1.0)), 2.5, Some(&wide(2.5)), lo, 0.1),
            Verdict::Worse
        );
        // Exact metrics have no spread: the bound alone decides.
        assert_eq!(
            verdict(0.80, None, 0.80, None, Better::Higher, 0.01),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(0.80, None, 0.70, None, Better::Higher, 0.01),
            Verdict::Worse
        );
        assert_eq!(
            verdict(0.80, None, 0.90, None, Better::Higher, 0.01),
            Verdict::Better
        );
    }
}
