//! REFER's intra-cell routing decisions (Section III-C2).
//!
//! At every relay the protocol re-evaluates Theorem 3.8 against the current
//! destination: try the shortest-path successor first; if it is failed,
//! congested or out of range, take the next-shortest disjoint path, and so
//! on. A conflict-path choice stamps the forced out-digit into the message
//! header so the next relay deviates from the greedy protocol for exactly
//! one hop (Proposition 3.7).
//!
//! [`route_choices`] is the one route choice: it reorders the [`PlanSet`]
//! that [`RouteTable::disjoint_plans`] built, by dense vertex index and
//! without allocating. Its reference is [`kautz::disjoint_paths`], the
//! allocating planner over [`kautz::KautzId`]s that the tests compare it
//! with.

use kautz::{PlanSet, RouteTable, RoutingError, TablePlan};
use rand::Rng;

/// The ordered next-hop choices from vertex `at` toward `dest`, both by
/// [`RouteTable`] index: the `d` Theorem 3.8 plans, shortest first.
///
/// * Ties are shuffled with `rng` ("If a number of paths with the same
///   path length exist, U randomly chooses a successor among these
///   paths").
/// * `forced` is the header's forced out-digit (this relay is a conflict
///   node chosen by the previous relay). When it names an arc out of `at`,
///   the plan leaving on that arc moves to the front, with the
///   conflict-path remainder length `k + 1` and no forced digit of its
///   own; the others keep their order behind it as fallback. A digit that
///   names no arc is ignored.
///
/// The caller walks the set and takes the first successor whose physical
/// link is up and uncongested ([`crate::roster::Roster::first_owner`]).
///
/// # Errors
///
/// Returns [`RoutingError::SameNode`] when `at == dest`.
pub fn route_choices<R: Rng + ?Sized>(
    table: &RouteTable,
    at: usize,
    dest: usize,
    forced: Option<u8>,
    rng: &mut R,
) -> Result<PlanSet, RoutingError> {
    if at == dest {
        return Err(RoutingError::SameNode);
    }
    let mut plans = table.disjoint_plans(at, dest);
    shuffle_ties(&mut plans, rng);
    // The `d` plans leave on `at`'s `d` out-arcs, one each: a digit that
    // names an arc names exactly one plan, any other digit none.
    if let Some(head) = forced.and_then(|digit| plans.iter().position(|p| p.out_digit == digit)) {
        plans[..=head].rotate_right(1);
        plans[0].length = table.k() + 1;
        plans[0].forced_digit = None;
    }
    Ok(plans)
}

/// Shuffles every maximal equal-length run in place (Fisher-Yates, from
/// the back of each run), leaving the ascending order between runs intact.
fn shuffle_ties<R: Rng + ?Sized>(plans: &mut [TablePlan], rng: &mut R) {
    let mut start = 0;
    while start < plans.len() {
        let len = plans[start].length;
        let mut end = start + 1;
        while end < plans.len() && plans[end].length == len {
            end += 1;
        }
        for i in (start + 1..end).rev() {
            let j = rng.gen_range(start..=i);
            plans.swap(i, j);
        }
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kautz::{disjoint_paths, KautzId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    /// `K(4, 4)`, the graph of Section III-C2's worked example.
    fn k44() -> &'static RouteTable {
        static TABLE: OnceLock<RouteTable> = OnceLock::new();
        TABLE.get_or_init(|| RouteTable::new(4, 4).expect("K(4,4)"))
    }

    /// The `K(4, 4)` index of `s`.
    fn ix(s: &str) -> usize {
        KautzId::parse(s, 4).expect("valid").to_index()
    }

    #[test]
    fn choices_are_sorted_by_length() {
        let mut rng = StdRng::seed_from_u64(1);
        let hops = route_choices(k44(), ix("0123"), ix("2301"), None, &mut rng).expect("routable");
        assert_eq!(hops.len(), 4);
        for w in hops.windows(2) {
            assert!(w[0].length <= w[1].length);
        }
        assert_eq!(hops[0].successor as usize, ix("1230"), "shortest first");
    }

    #[test]
    fn conflict_choice_carries_forced_digit() {
        let mut rng = StdRng::seed_from_u64(1);
        let hops = route_choices(k44(), ix("0123"), ix("2301"), None, &mut rng).expect("routable");
        let conflict = hops
            .iter()
            .find(|h| h.successor as usize == ix("1231"))
            .expect("conflict successor listed");
        assert_eq!(conflict.forced_digit, Some(0));
    }

    #[test]
    fn forced_header_overrides_greedy() {
        let mut rng = StdRng::seed_from_u64(1);
        // Relay 1231 received a frame whose header forces digit 0
        // (Proposition 3.7's example: 1231 must forward to 2310).
        let hops =
            route_choices(k44(), ix("1231"), ix("2301"), Some(0), &mut rng).expect("routable");
        assert_eq!(hops[0].successor as usize, ix("2310"));
        assert_eq!(hops[0].forced_digit, None, "the force applies for one hop only");
    }

    #[test]
    fn tie_shuffling_preserves_length_order() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let hops =
                route_choices(k44(), ix("0123"), ix("2301"), None, &mut rng).expect("routable");
            for w in hops.windows(2) {
                assert!(w[0].length <= w[1].length);
            }
        }
    }

    #[test]
    fn indexed_choices_match_allocating_api_exhaustively() {
        // Every ordered pair of K(3,3) and every forced digit, against the
        // allocating reference planner: the same entries, in length order
        // but for a promoted head, and the forced successor first exactly
        // when the digit names an arc.
        let table = RouteTable::new(3, 3).expect("valid");
        let n = table.node_count();
        let choose = |u, v, forced, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            route_choices(&table, u, v, forced, &mut rng).expect("routable")
        };
        for u in 0..n {
            let uid = table.id_of(u);
            for v in (0..n).filter(|&v| v != u) {
                let reference = disjoint_paths(&uid, &table.id_of(v)).expect("distinct");
                let seed = (u * n + v) as u64;
                let unforced = choose(u, v, None, seed);
                for forced in [None, Some(0u8), Some(1), Some(2), Some(3)] {
                    let hops = choose(u, v, forced, seed);
                    assert_eq!(*hops, *choose(u, v, forced, seed), "equal seeds, equal choices");
                    let promoted = forced.and_then(|digit| uid.shift_append(digit).ok());
                    let mut expected: Vec<_> = reference
                        .iter()
                        .map(|p| match promoted {
                            Some(head) if p.successor == head => {
                                (head.to_index(), table.k() + 1, None)
                            }
                            _ => (p.successor.to_index(), p.length, p.forced_digit),
                        })
                        .collect();
                    let mut got: Vec<_> = hops
                        .iter()
                        .map(|h| (h.successor as usize, h.length, h.forced_digit))
                        .collect();
                    expected.sort_unstable();
                    got.sort_unstable();
                    assert_eq!(got, expected, "{uid}->{v} forced {forced:?}");
                    let ordered = &hops[usize::from(promoted.is_some())..];
                    assert!(ordered.windows(2).all(|w| w[0].length <= w[1].length));
                    match promoted {
                        Some(head) => assert_eq!(hops[0].successor as usize, head.to_index()),
                        None => assert_eq!(*hops, *unforced, "{uid}->{v}: {forced:?} names no arc"),
                    }
                }
            }
        }
    }

    #[test]
    fn indexed_routing_to_self_is_an_error() {
        let table = RouteTable::new(2, 3).expect("valid");
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            route_choices(&table, 0, 0, None, &mut rng).map(|hops| hops.len()),
            Err(RoutingError::SameNode)
        );
    }

    #[test]
    fn tie_shuffling_actually_permutes() {
        // 010 -> 102 in K(4, 3): several k+1 plans tie; over many draws we
        // should see more than one first-of-tie successor.
        let table = RouteTable::new(4, 3).expect("valid");
        let id = |s| KautzId::parse(s, 4).expect("valid").to_index();
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let hops =
                route_choices(&table, id("010"), id("102"), None, &mut rng).expect("routable");
            let first_tie = hops.iter().find(|h| h.length == 4).expect("k+1 plans exist").successor;
            seen.insert(first_tie);
        }
        assert!(seen.len() > 1, "ties should shuffle: {seen:?}");
    }
}
