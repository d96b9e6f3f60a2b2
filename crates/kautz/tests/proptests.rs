//! Property-based tests for the Kautz identifier arithmetic and routing.

use kautz::disjoint::{disjoint_paths, plan_route, PathClass};
use kautz::routing::{greedy_next_hop, greedy_path, regular_next_hop, regular_path};
use kautz::{KautzGraph, KautzId};
use proptest::prelude::*;

/// Strategy producing `(d, k)` graph parameters in the range REFER uses.
fn graph_params() -> impl Strategy<Value = (u8, usize)> {
    (2u8..=5, 2usize..=4)
}

/// Strategy producing a vertex of any `K(d <= 8, k <= MAX_K)`: the index
/// is drawn wide and folded into the graph's range.
fn any_vertex() -> impl Strategy<Value = KautzId> {
    (1u8..=8, 1usize..=KautzId::MAX_K, 0u64..u64::MAX).prop_map(|(d, k, seed)| {
        let count = (d as u128 + 1) * (d as u128).pow((k - 1) as u32);
        let count = count.min(usize::MAX as u128) as u64;
        KautzId::from_index((seed % count) as usize, d, k)
    })
}

fn hash_of<T: std::hash::Hash>(value: &T) -> u64 {
    use std::hash::Hasher;
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

proptest! {
    // Rosters are `BTreeMap<KautzId, _>` and traces follow their iteration
    // order: the inline word must compare, equal and hash exactly as the
    // `(Vec<u8>, u8)` pair it replaced — across degrees and lengths too.
    #[test]
    fn order_equality_and_hash_are_those_of_digits_then_degree(
        u in any_vertex(),
        v in any_vertex(),
        same in 0u8..4,
    ) {
        // A quarter of the pairs are equal words, where ties must hold.
        let v = if same == 0 { u } else { v };
        let pair = |id: &KautzId| (id.digits().to_vec(), id.degree());
        prop_assert_eq!(u.cmp(&v), pair(&u).cmp(&pair(&v)));
        prop_assert_eq!(u.partial_cmp(&v), pair(&u).partial_cmp(&pair(&v)));
        prop_assert_eq!(u == v, pair(&u) == pair(&v));
        prop_assert_eq!(hash_of(&u), hash_of(&pair(&u)));
        // A prefix sorts before its extension; equal digits order by degree.
        if u.k() > 1 {
            let prefix = KautzId::new(&u.digits()[..u.k() - 1], u.degree()).expect("prefix of a word");
            prop_assert!(prefix < u);
        }
        if u.degree() < 8 {
            let wider = KautzId::new(u.digits(), u.degree() + 1).expect("same word, larger alphabet");
            prop_assert!(u < wider && u != wider);
        }
    }

    #[test]
    fn from_index_always_yields_valid_ids((d, k) in graph_params(), seed in 0usize..10_000) {
        let count = (d as usize + 1) * (d as usize).pow((k - 1) as u32);
        let id = KautzId::from_index(seed % count, d, k);
        // Reconstructing through the validating constructor must succeed.
        prop_assert!(KautzId::new(id.digits().to_vec(), d).is_ok());
        prop_assert_eq!(id.k(), k);
    }

    #[test]
    fn successor_arcs_are_consistent((d, k) in graph_params(), seed in 0usize..10_000) {
        let count = (d as usize + 1) * (d as usize).pow((k - 1) as u32);
        let u = KautzId::from_index(seed % count, d, k);
        let succ = u.successors();
        prop_assert_eq!(succ.len(), d as usize);
        for s in &succ {
            prop_assert!(u.is_arc_to(s));
            prop_assert!(s.predecessors().contains(&u));
        }
    }

    #[test]
    fn overlap_bounds_and_symmetric_identity((d, k) in graph_params(), a in 0usize..10_000, b in 0usize..10_000) {
        let count = (d as usize + 1) * (d as usize).pow((k - 1) as u32);
        let u = KautzId::from_index(a % count, d, k);
        let v = KautzId::from_index(b % count, d, k);
        let l = u.overlap(&v);
        prop_assert!(l <= k);
        prop_assert_eq!(u.overlap(&u), k);
        if u != v {
            // Distinct ids can share at most a k-1 overlap.
            prop_assert!(l < k);
        }
    }

    #[test]
    fn greedy_route_has_exact_distance((d, k) in graph_params(), a in 0usize..10_000, b in 0usize..10_000) {
        let count = (d as usize + 1) * (d as usize).pow((k - 1) as u32);
        let u = KautzId::from_index(a % count, d, k);
        let v = KautzId::from_index(b % count, d, k);
        prop_assume!(u != v);
        let path = greedy_path(&u, &v).expect("valid pair");
        prop_assert_eq!(path.len() - 1, u.routing_distance(&v));
        prop_assert_eq!(path.len() - 1, k - u.overlap(&v));
        // Every hop is the greedy next hop of its predecessor.
        for w in path.windows(2) {
            prop_assert_eq!(&greedy_next_hop(&w[0], &v).expect("valid"), &w[1]);
        }
    }

    #[test]
    fn regular_route_reaches_destination_within_the_diameter((d, k) in graph_params(), a in 0usize..10_000, b in 0usize..10_000) {
        let count = (d as usize + 1) * (d as usize).pow((k - 1) as u32);
        let u = KautzId::from_index(a % count, d, k);
        let v = KautzId::from_index(b % count, d, k);
        prop_assume!(u != v);
        let path = regular_path(&u, &v).expect("valid pair");
        let hops = path.len() - 1;
        // A conflict on the first digit means overlap >= 1: one fewer append.
        let expected = if v.digits()[0] == u.last() { k - 1 } else { k };
        prop_assert!(hops <= expected, "{} -> {} took {} hops", u, v, hops);
        prop_assert!(hops >= u.routing_distance(&v));
        prop_assert_eq!(path.last(), Some(&v));
        // Every hop follows an arc and matches the stepwise API.
        let mut appended = 0usize;
        for w in path.windows(2) {
            prop_assert!(w[0].is_arc_to(&w[1]));
            let (hop, next) = regular_next_hop(&w[0], &v, appended).expect("valid");
            prop_assert_eq!(&hop, &w[1]);
            appended = next;
        }
    }

    #[test]
    fn disjoint_plans_partition_successors((d, k) in graph_params(), a in 0usize..10_000, b in 0usize..10_000) {
        let count = (d as usize + 1) * (d as usize).pow((k - 1) as u32);
        let u = KautzId::from_index(a % count, d, k);
        let v = KautzId::from_index(b % count, d, k);
        prop_assume!(u != v);
        let plans = disjoint_paths(&u, &v).expect("valid pair");
        prop_assert_eq!(plans.len(), d as usize);
        let mut succ: Vec<_> = plans.iter().map(|p| p.successor).collect();
        succ.sort();
        let mut expected = u.successors();
        expected.sort();
        prop_assert_eq!(succ, expected);
        // Exactly one shortest plan, at most one of each special class.
        let shortest = plans.iter().filter(|p| p.class == PathClass::Shortest).count();
        prop_assert_eq!(shortest, 1);
        prop_assert!(plans.iter().filter(|p| p.class == PathClass::Conflict).count() <= 1);
        prop_assert!(plans.iter().filter(|p| p.class == PathClass::FirstDigit).count() <= 1);
    }

    #[test]
    fn planned_routes_terminate_within_claimed_length((d, k) in graph_params(), a in 0usize..10_000, b in 0usize..10_000) {
        let count = (d as usize + 1) * (d as usize).pow((k - 1) as u32);
        let u = KautzId::from_index(a % count, d, k);
        let v = KautzId::from_index(b % count, d, k);
        prop_assume!(u != v);
        for plan in disjoint_paths(&u, &v).expect("valid pair") {
            let route = plan_route(&plan, &u, &v).expect("valid pair");
            prop_assert!(route.len() - 1 <= plan.length);
            prop_assert!(plan.length <= k + 2, "theorem bounds any path by k + 2");
            prop_assert_eq!(route.last(), Some(&v));
        }
    }

    #[test]
    fn hamiltonian_cycles_verify((d, k) in (2u8..=4, 2usize..=3)) {
        let g = KautzGraph::new(d, k).expect("valid");
        let cycle = g.hamiltonian_cycle();
        prop_assert!(g.is_hamiltonian_cycle(&cycle));
    }

    #[test]
    fn rotation_is_inverse_of_itself_k_times(seed in 0usize..12) {
        // Actuator labels (non-periodic k=3 words) return after 3 rotations.
        let id = KautzId::from_index(seed, 2, 3);
        if let Ok(r1) = id.rotate_left() {
            if let Ok(r2) = r1.rotate_left() {
                if let Ok(r3) = r2.rotate_left() {
                    prop_assert_eq!(r3, id);
                }
            }
        }
    }
}
