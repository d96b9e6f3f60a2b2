//! Exhaustive verification of Theorem 3.8 against brute force.
//!
//! These tests materialize every planned path for every ordered vertex pair
//! of several Kautz graphs and check the theorem's claims as they apply to
//! REFER's actual relay behaviour (first hop per plan, forced digit for the
//! conflict node, greedy shortest protocol afterwards).
//!
//! Scope of the claims as measured here (also documented on
//! [`kautz::disjoint`]):
//!
//! * The planned length is always an **upper bound** on the realized route,
//!   for every `(d, k)` we test — a relay never under-estimates how good an
//!   alternative is relative to the plan ordering it uses.
//! * After the degenerate-pair diversion, the `d` routes of every ordered
//!   pair are simple and pairwise internally vertex-disjoint on every graph
//!   below and `K(3, 4)` — except exactly six `K(2, 4)` pairs with periodic
//!   sources (`0120 -> 1202` and its relabelings), where no single forced
//!   digit avoids folding back through the source.
//! * In the graphs REFER deploys per cell (`k <= 3`), alternate routes never
//!   pass through the shortest path's successor — the exact fault-tolerance
//!   property the protocol needs.

use kautz::brute::{bfs_shortest_path, internally_disjoint, RouteGenerator};
use kautz::disjoint::{disjoint_paths, plan_route, PathClass};
use kautz::routing::greedy_path;
use kautz::{KautzGraph, KautzId};
use std::collections::HashSet;

/// Graph parameters exercised exhaustively; K(2,3) is the paper's
/// evaluation cell, K(4,4) is the paper's running example (Figure 2).
const GRAPHS: &[(u8, usize)] = &[(2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (2, 4), (4, 4)];

fn ordered_pairs(g: &KautzGraph) -> impl Iterator<Item = (KautzId, KautzId)> + '_ {
    g.nodes().flat_map(move |u| {
        g.nodes().filter_map(move |v| if u == v { None } else { Some((u, v)) })
    })
}

#[test]
fn shortest_plan_matches_bfs_everywhere() {
    for &(d, k) in GRAPHS {
        let g = KautzGraph::new(d, k).expect("valid");
        let empty = HashSet::new();
        for (u, v) in ordered_pairs(&g) {
            let plans = disjoint_paths(&u, &v).expect("routable");
            let shortest = plans.iter().find(|p| p.class == PathClass::Shortest).expect(
                "exactly one successor appends v_{l+1}",
            );
            let bfs = bfs_shortest_path(&g, &u, &v, &empty).expect("strongly connected");
            assert_eq!(shortest.length, bfs.len() - 1, "K({d},{k}) {u} -> {v}");
        }
    }
}

#[test]
fn planned_lengths_are_upper_bounds_everywhere() {
    for &(d, k) in GRAPHS {
        let g = KautzGraph::new(d, k).expect("valid");
        for (u, v) in ordered_pairs(&g) {
            for plan in disjoint_paths(&u, &v).expect("routable") {
                let route = plan_route(&plan, &u, &v).expect("routable");
                assert!(
                    route.len() - 1 <= plan.length,
                    "K({d},{k}) {u} -> {v} via {}: claimed {} < actual {}",
                    plan.successor,
                    plan.length,
                    route.len() - 1
                );
                assert_eq!(route.first(), Some(&u));
                assert_eq!(route.last(), Some(&v));
                for w in route.windows(2) {
                    assert!(w[0].is_arc_to(&w[1]), "route follows arcs");
                }
            }
        }
    }
}

#[test]
fn alternates_avoid_the_shortest_successor_for_cell_diameters() {
    // The fault-tolerance property REFER relies on: when the shortest
    // successor fails, every alternative route bypasses it. Exhaustively
    // true for the k <= 3 graphs REFER embeds per cell.
    for &(d, k) in GRAPHS.iter().filter(|&&(_, k)| k <= 3) {
        let g = KautzGraph::new(d, k).expect("valid");
        for (u, v) in ordered_pairs(&g) {
            let plans = disjoint_paths(&u, &v).expect("routable");
            let failed = &plans[0].successor;
            if failed == &v {
                continue; // destination itself failed; no route can help
            }
            for plan in &plans[1..] {
                let route = plan_route(plan, &u, &v).expect("routable");
                assert!(
                    !route[1..route.len() - 1].contains(failed),
                    "K({d},{k}) {u} -> {v}: alternate via {} crosses failed {failed}",
                    plan.successor
                );
            }
        }
    }
}

/// The pairs whose routes no single forced digit can make simple and
/// disjoint (the erratum in `kautz::disjoint`): periodic `K(2, 4)` sources
/// where every alphabet digit re-folds through the source.
const NOT_DISJOINT: &[(u8, usize, &str, &str)] = &[
    (2, 4, "0120", "1202"),
    (2, 4, "0210", "2101"),
    (2, 4, "1021", "0212"),
    (2, 4, "1201", "2010"),
    (2, 4, "2012", "0121"),
    (2, 4, "2102", "1020"),
];

#[test]
fn plans_are_simple_and_disjoint_except_six_k24_pairs() {
    let mut failing = Vec::new();
    for &(d, k) in GRAPHS.iter().chain(&[(3, 4)]) {
        let g = KautzGraph::new(d, k).expect("valid");
        for (u, v) in ordered_pairs(&g) {
            let routes: Vec<Vec<KautzId>> = disjoint_paths(&u, &v)
                .expect("routable")
                .iter()
                .map(|p| plan_route(p, &u, &v).expect("routable"))
                .collect();
            let simple = routes.iter().all(|r| r.iter().collect::<HashSet<_>>().len() == r.len());
            if !(simple && internally_disjoint(&routes)) {
                failing.push((d, k, u.to_string(), v.to_string()));
            }
        }
    }
    let expected: Vec<(u8, usize, String, String)> = NOT_DISJOINT
        .iter()
        .map(|&(d, k, u, v)| (d, k, u.to_string(), v.to_string()))
        .collect();
    assert_eq!(failing, expected);
}

#[test]
fn realized_lengths_are_exact_for_non_degenerate_k3_pairs() {
    // For the cell graphs (k == 3) the theorem's lengths are exact whenever
    // no planned route folds back through the source.
    for &(d, k) in GRAPHS.iter().filter(|&&(_, k)| k == 3) {
        let g = KautzGraph::new(d, k).expect("valid");
        for (u, v) in ordered_pairs(&g) {
            for plan in disjoint_paths(&u, &v).expect("routable") {
                let route = plan_route(&plan, &u, &v).expect("routable");
                if route[1..route.len() - 1].contains(&u) {
                    continue;
                }
                assert_eq!(
                    route.len() - 1,
                    plan.length,
                    "K({d},{k}) {u} -> {v} via {}",
                    plan.successor
                );
            }
        }
    }
}

#[test]
fn theorem_matches_route_generator_path_count() {
    // The ID-only planner should offer as many usable alternatives as the
    // exhaustive DFTR-style generator finds disjoint paths, for the cell
    // graphs.
    let g = KautzGraph::new(2, 3).expect("valid");
    let mut generator = RouteGenerator::new();
    for (u, v) in ordered_pairs(&g) {
        let plans = disjoint_paths(&u, &v).expect("routable");
        let brute = generator.disjoint_paths(&g, &u, &v);
        assert_eq!(plans.len(), 2);
        assert!(!brute.is_empty());
        assert!(brute.len() <= plans.len());
    }
}

#[test]
fn greedy_equals_shortest_plan_route() {
    for &(d, k) in GRAPHS {
        let g = KautzGraph::new(d, k).expect("valid");
        for (u, v) in ordered_pairs(&g) {
            let plans = disjoint_paths(&u, &v).expect("routable");
            let shortest = plans.iter().find(|p| p.class == PathClass::Shortest).expect("exists");
            let via_plan = plan_route(shortest, &u, &v).expect("routable");
            let via_greedy = greedy_path(&u, &v).expect("routable");
            assert_eq!(via_plan, via_greedy, "K({d},{k}) {u} -> {v}");
        }
    }
}

#[test]
fn in_digits_are_pairwise_distinct_for_disjoint_pairs() {
    // Propositions 3.3-3.7: after the conflict fix, the d paths enter V
    // through d distinct predecessors, whenever the pair is non-degenerate.
    let g = KautzGraph::new(4, 3).expect("valid");
    for (u, v) in ordered_pairs(&g) {
        let routes: Vec<Vec<KautzId>> = disjoint_paths(&u, &v)
            .expect("routable")
            .iter()
            .map(|p| plan_route(p, &u, &v).expect("routable"))
            .collect();
        if routes.iter().any(|r| r[1..r.len() - 1].contains(&u)) {
            continue;
        }
        let predecessors: HashSet<&KautzId> =
            routes.iter().map(|r| &r[r.len() - 2]).collect();
        assert_eq!(predecessors.len(), routes.len(), "{u} -> {v}: {routes:?}");
    }
}
