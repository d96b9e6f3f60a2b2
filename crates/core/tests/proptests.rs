//! Property-based tests for REFER's pure components: cell planning,
//! routing decisions and the Section III-B4 maintenance predicates.

use proptest::prelude::*;
use refer::cells::{plan_cells, quincunx};
use refer::maintenance::{can_replace, link_endangered, select_replacement};
use refer::routing::route_choices;
use kautz::{KautzId, RouteTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::OnceLock;
use wsan_sim::Point;

/// `K(4, 4)`, built once for every case.
fn k44() -> &'static RouteTable {
    static TABLE: OnceLock<RouteTable> = OnceLock::new();
    TABLE.get_or_init(|| RouteTable::new(4, 4).expect("K(4,4)"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn route_choices_cover_all_successors(a in 0usize..320, b in 0usize..320, seed in 0u64..1000) {
        prop_assume!(a != b);
        let mut rng = StdRng::seed_from_u64(seed);
        let hops = route_choices(k44(), a, b, None, &mut rng).expect("valid pair");
        prop_assert_eq!(hops.len(), 4);
        let succ: HashSet<KautzId> =
            hops.iter().map(|h| k44().id_of(h.successor as usize)).collect();
        for s in k44().id_of(a).successors() {
            prop_assert!(succ.contains(&s), "missing successor {s}");
        }
    }

    #[test]
    fn forced_header_always_yields_a_first_choice(a in 0usize..320, b in 0usize..320, digit in 0u8..=4, seed in 0u64..1000) {
        prop_assume!(a != b);
        let mut rng = StdRng::seed_from_u64(seed);
        let hops = route_choices(k44(), a, b, Some(digit), &mut rng).expect("valid pair");
        prop_assert!(!hops.is_empty());
        let u = k44().id_of(a);
        if digit != u.last() {
            // The forced successor leads the list.
            let forced = u.shift_append(digit).expect("valid digit");
            prop_assert_eq!(hops[0].successor as usize, forced.to_index());
        }
    }

    #[test]
    fn can_replace_is_monotone_in_range(
        cand in (0.0..500.0f64, 0.0..500.0f64),
        neighbors in prop::collection::vec((0.0..500.0f64, 0.0..500.0f64), 0..6),
        range in 1.0..400.0f64,
        extra in 0.0..200.0f64,
    ) {
        // Growing the radio range can never turn a feasible candidate
        // infeasible: reachability of every neighbor is preserved.
        let c = Point::new(cand.0, cand.1);
        let ns: Vec<Point> = neighbors.iter().map(|&(x, y)| Point::new(x, y)).collect();
        if can_replace(c, &ns, range) {
            prop_assert!(can_replace(c, &ns, range + extra));
        }
    }

    #[test]
    fn link_endangered_is_monotone_in_distance(
        a in (0.0..500.0f64, 0.0..500.0f64),
        b in (0.0..500.0f64, 0.0..500.0f64),
        push in 1.0..100.0f64,
        range in 10.0..400.0f64,
        guard in 0.1..1.0f64,
    ) {
        // Moving the far endpoint radially away never un-endangers a link.
        let pa = Point::new(a.0, a.1);
        let pb = Point::new(b.0, b.1);
        prop_assume!(pa.distance(&pb) > 1e-9);
        if link_endangered(pa, pb, range, guard) {
            let d = pa.distance(&pb);
            let scale = (d + push) / d;
            let farther = Point::new(
                pa.x + (pb.x - pa.x) * scale,
                pa.y + (pb.y - pa.y) * scale,
            );
            prop_assert!(link_endangered(pa, farther, range, guard));
        }
    }

    #[test]
    fn selected_replacement_is_feasible_and_best(
        cands in prop::collection::vec(
            ((0.0..300.0f64, 0.0..300.0f64), (0u8..8, 0.0..1000.0f64)), 0..12),
        neighbors in prop::collection::vec((0.0..300.0f64, 0.0..300.0f64), 0..5),
        range in 10.0..400.0f64,
    ) {
        // Whatever the inputs (including NaN/infinite batteries), the
        // winner must satisfy `can_replace` with a finite battery no worse
        // than any other feasible candidate — and never panic.
        let scored: Vec<(Point, f64)> = cands
            .iter()
            .map(|&((x, y), (sel, e))| {
                let battery = match sel {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    _ => e,
                };
                (Point::new(x, y), battery)
            })
            .collect();
        let ns: Vec<Point> = neighbors.iter().map(|&(x, y)| Point::new(x, y)).collect();
        match select_replacement(scored.iter().copied(), &ns, range) {
            Some(i) => {
                let (p, e) = scored[i];
                prop_assert!(e.is_finite());
                prop_assert!(can_replace(p, &ns, range));
                for &(q, f) in &scored {
                    if f.is_finite() && can_replace(q, &ns, range) {
                        prop_assert!(e >= f, "winner battery {e} < feasible {f}");
                    }
                }
            }
            None => {
                for &(q, f) in &scored {
                    prop_assert!(!(f.is_finite() && can_replace(q, &ns, range)));
                }
            }
        }
    }
}

#[test]
fn quincunx_layouts_are_stable_under_id_relabeling() {
    // Cell geometry depends on positions, not on which actuator ids are
    // used; only the starting server and corner colors may differ.
    let positions = quincunx(500.0, 500.0);
    let a = plan_cells(&[0, 1, 2, 3, 4], &positions, 250.0).expect("cells");
    let b = plan_cells(&[100, 101, 102, 103, 104], &positions, 250.0).expect("cells");
    assert_eq!(a.cells.len(), b.cells.len());
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        assert_eq!(ca.cid, cb.cid);
        let da = ca.centroid;
        let db = cb.centroid;
        assert!(da.distance(&db) < 1e-9);
    }
}
