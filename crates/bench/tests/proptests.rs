//! Property-based tests for the sweep statistics: the sample mean, the
//! standard deviation and the 95% confidence interval every figure table,
//! SVG and sweep dump reports.

use proptest::prelude::*;
use refer_bench::stats::{ci95, mean, std_dev};

proptest! {
    #[test]
    fn mean_is_within_sample_bounds(xs in prop::collection::vec(-1e6..1e6f64, 1..50)) {
        let m = mean(&xs);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }

    #[test]
    fn std_dev_is_nonnegative_and_zero_for_constants(x in -1e6..1e6f64, n in 2usize..30) {
        let xs = vec![x; n];
        // Constant samples: zero spread up to floating-point rounding.
        prop_assert!(std_dev(&xs).abs() < 1e-6 * (1.0 + x.abs()));
        prop_assert!(std_dev(&[x, x + 1.0]) > 0.0);
    }

    #[test]
    fn ci_contains_the_mean(xs in prop::collection::vec(-1e3..1e3f64, 2..30)) {
        let s = ci95(xs.iter().copied());
        prop_assert!(s.ci95 >= 0.0);
        prop_assert_eq!(s.n, xs.len());
    }

    #[test]
    fn more_samples_of_same_spread_narrow_the_ci(x in -10.0..10.0f64) {
        let small: Vec<f64> = (0..4).map(|i| x + (i % 2) as f64).collect();
        let large: Vec<f64> = (0..24).map(|i| x + (i % 2) as f64).collect();
        prop_assert!(ci95(large).ci95 < ci95(small).ci95);
    }
}
