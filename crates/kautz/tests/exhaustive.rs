//! Exhaustive verification of Theorem 3.8 over every ordered pair of
//! `K(2,3)` and `K(3,3)`: the `d` materialized `plan_route` paths are
//! pairwise internally-vertex-disjoint and exactly match the theorem's
//! claimed lengths. `RouteTable::disjoint_plans` equals `disjoint_paths`
//! on every pair (`table::tests`), so these routes are the table's too.

use kautz::brute::internally_disjoint;
use kautz::disjoint::{disjoint_paths, plan_route, PathClass};
use kautz::KautzGraph;

/// The theorem's claimed length for a plan, independent of the
/// implementation under test: `k - l` / `k` / `k + 2` / `k + 1` by class.
/// A plan diverted around a degenerate periodic pair (the erratum in
/// `kautz::disjoint`) carries a forced digit and claims the conflict
/// bound `k + 2` regardless of its class.
fn claimed_length(class: PathClass, forced: bool, k: usize, l: usize) -> usize {
    match class {
        PathClass::Shortest => k - l,
        PathClass::FirstDigit if !forced => k,
        PathClass::Other if !forced => k + 1,
        _ => k + 2,
    }
}

#[test]
fn planned_paths_are_disjoint_with_theorem_lengths_on_small_graphs() {
    for (d, k) in [(2u8, 3usize), (3, 3)] {
        let graph = KautzGraph::new(d, k).expect("valid graph");
        for u in graph.nodes() {
            for v in graph.nodes() {
                if u == v {
                    continue;
                }
                let l = u.overlap(&v);
                let plans = disjoint_paths(&u, &v).expect("distinct pair");
                assert_eq!(plans.len(), d as usize, "K({d},{k}) {u}->{v}");

                let mut paths = Vec::with_capacity(plans.len());
                for plan in &plans {
                    assert_eq!(
                        plan.length,
                        claimed_length(plan.class, plan.forced_digit.is_some(), k, l),
                        "K({d},{k}) {u}->{v} plan {plan:?}"
                    );
                    let path = plan_route(plan, &u, &v).expect("distinct pair");
                    // A materialized path may beat its claim only by ending
                    // early at V; Theorem 3.8's figure is an upper bound the
                    // wire format advertises. The shortest path is exact.
                    assert!(
                        path.len() - 1 <= plan.length,
                        "K({d},{k}) {u}->{v} path {path:?} exceeds claim {}",
                        plan.length
                    );
                    if plan.class == PathClass::Shortest {
                        assert_eq!(path.len() - 1, plan.length, "shortest is exact");
                    }
                    assert_eq!(path.first(), Some(&u));
                    assert_eq!(path.last(), Some(&v));
                    for w in path.windows(2) {
                        assert!(w[0].is_arc_to(&w[1]), "non-arc step in {path:?}");
                    }
                    paths.push(path);
                }
                assert!(
                    internally_disjoint(&paths),
                    "K({d},{k}) {u}->{v} paths share an interior vertex: {paths:?}"
                );
            }
        }
    }
}
