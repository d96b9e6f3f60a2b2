//! Topology maintenance (Section III-B4): the node replacement rule.
//!
//! REFER keeps most sensors asleep. Sleeping nodes periodically wake and
//! probe nearby Kautz members to register as *candidates*; a candidate must
//! be able to reach all of the member's Kautz-graph physical neighbors.
//! When a member notices a link about to break (signal strength, i.e.
//! distance approaching the range) or its battery dropping below a
//! threshold, it hands its KID to one of its candidates.

use wsan_sim::Point;

/// Whether a candidate at `candidate` could take over a member whose
/// Kautz-graph neighbors sit at `neighbor_positions`: it must be able to
/// build a link to every one of them ("The candidate of Kautz node S must
/// be able to build connections with the neighboring Kautz nodes of S").
pub fn can_replace(candidate: Point, neighbor_positions: &[Point], range: f64) -> bool {
    neighbor_positions.iter().all(|p| candidate.distance(p) <= range)
}

/// Whether the link between `a` and `b` is endangered: the distance exceeds
/// `guard` (a fraction, e.g. 0.9) of the usable range — the simulator's
/// stand-in for a weakening received signal strength.
pub fn link_endangered(a: Point, b: Point, range: f64, guard: f64) -> bool {
    a.distance(&b) > guard * range
}

/// Whether a member's battery mandates replacement.
pub fn battery_low(battery: f64, threshold: f64) -> bool {
    battery < threshold
}

/// Picks the best replacement among candidates: the highest-battery
/// candidate that can reach all neighbor positions. Returns the index into
/// `candidates`. Candidates reporting a non-finite battery (a corrupt or
/// unreadable gauge) are ignored rather than trusted or panicked over.
pub fn select_replacement(
    candidates: &[(Point, f64)],
    neighbor_positions: &[Point],
    range: f64,
) -> Option<usize> {
    candidates
        .iter()
        .enumerate()
        .filter(|(_, (p, b))| b.is_finite() && can_replace(*p, neighbor_positions, range))
        .max_by(|(_, (_, a)), (_, (_, b))| a.total_cmp(b))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replacement_requires_reaching_all_neighbors() {
        let neighbors = [Point::new(0.0, 0.0), Point::new(80.0, 0.0)];
        assert!(can_replace(Point::new(40.0, 0.0), &neighbors, 100.0));
        assert!(!can_replace(Point::new(150.0, 0.0), &neighbors, 100.0));
        assert!(can_replace(Point::new(40.0, 0.0), &[], 100.0), "no neighbors, no constraint");
    }

    #[test]
    fn endangered_links_are_near_the_range_edge() {
        let a = Point::new(0.0, 0.0);
        assert!(!link_endangered(a, Point::new(80.0, 0.0), 100.0, 0.9));
        assert!(link_endangered(a, Point::new(95.0, 0.0), 100.0, 0.9));
    }

    #[test]
    fn battery_threshold() {
        assert!(battery_low(10.0, 50.0));
        assert!(!battery_low(100.0, 50.0));
    }

    #[test]
    fn selection_prefers_battery_among_feasible() {
        let neighbors = [Point::new(0.0, 0.0)];
        let candidates = [
            (Point::new(50.0, 0.0), 10.0),  // feasible, low battery
            (Point::new(60.0, 0.0), 90.0),  // feasible, high battery
            (Point::new(500.0, 0.0), 999.0), // infeasible
        ];
        assert_eq!(select_replacement(&candidates, &neighbors, 100.0), Some(1));
        assert_eq!(select_replacement(&[], &neighbors, 100.0), None);
    }

    #[test]
    fn non_finite_batteries_are_skipped_not_panicked() {
        let neighbors = [Point::new(0.0, 0.0)];
        let candidates = [
            (Point::new(50.0, 0.0), f64::NAN),      // broken gauge
            (Point::new(60.0, 0.0), f64::INFINITY), // absurd reading
            (Point::new(70.0, 0.0), 5.0),           // honest, low
        ];
        assert_eq!(select_replacement(&candidates, &neighbors, 100.0), Some(2));
        let all_bad = [(Point::new(50.0, 0.0), f64::NAN)];
        assert_eq!(select_replacement(&all_bad, &neighbors, 100.0), None);
    }
}
