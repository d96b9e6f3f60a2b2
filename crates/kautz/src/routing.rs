//! The greedy shortest protocol (Section III-C1) and the Faber–Streib
//! regular protocol.
//!
//! In a Kautz digraph the next hop on the unique shortest `U -> V` path is
//! obtained by left-shifting `U` and appending `v_{l+1}`, the digit of `V`
//! just past the longest suffix/prefix overlap `l = L(U, V)`. The functions
//! here compute that next hop and the full greedy path.
//!
//! The *regular* protocol ([`regular_next_hop`]) ignores the overlap
//! shortcut beyond its first digit: it appends the destination's digits
//! `v_1 ... v_k` in order, and when `v_1` collides with the source's last
//! digit (which means the overlap is at least 1) it simply starts from
//! `v_2`. Every route is `k` or `k - 1` hops — longer on average than the
//! shortest path — but under dense all-to-all load the per-arc traffic it
//! induces is uniform, whereas the shortest protocol concentrates pairs
//! with long overlaps onto a few hot arcs (Faber & Streib: regular routing
//! beats shortest paths on all-to-all throughput).

use crate::error::RoutingError;
use crate::id::KautzId;

/// Checks that `u` and `v` label distinct vertices of the same graph.
pub(crate) fn check_pair(u: &KautzId, v: &KautzId) -> Result<(), RoutingError> {
    if !u.same_graph(v) {
        return Err(RoutingError::IncompatibleIds {
            source: (u.degree(), u.k()),
            dest: (v.degree(), v.k()),
        });
    }
    if u == v {
        return Err(RoutingError::SameNode);
    }
    Ok(())
}

/// The next hop of the greedy shortest protocol from `u` toward `v`:
/// `u_2 ... u_k v_{l+1}` where `l = L(u, v)`.
///
/// # Errors
///
/// Returns [`RoutingError`] if the identifiers belong to different graphs or
/// are equal.
///
/// # Examples
///
/// ```
/// # use kautz::{KautzId, routing::greedy_next_hop};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = KautzId::parse("0123", 4)?;
/// let v = KautzId::parse("2301", 4)?;
/// // Paper Section III-C2: the shortest path is 0123 -> 1230 -> 2301.
/// assert_eq!(greedy_next_hop(&u, &v)?.to_string(), "1230");
/// # Ok(())
/// # }
/// ```
pub fn greedy_next_hop(u: &KautzId, v: &KautzId) -> Result<KautzId, RoutingError> {
    check_pair(u, v)?;
    let l = u.overlap(v);
    debug_assert!(l < v.k(), "distinct ids overlap strictly less than k");
    let digit = v.digits()[l];
    Ok(u
        .shift_append(digit)
        .expect("v_{l+1} != u_k because u's suffix of length l equals v's prefix"))
}

/// The full greedy shortest path from `u` to `v`, inclusive of both
/// endpoints. Its length (in hops) is `k - L(u, v)`.
///
/// # Errors
///
/// Returns [`RoutingError`] if the identifiers belong to different graphs or
/// are equal.
pub fn greedy_path(u: &KautzId, v: &KautzId) -> Result<Vec<KautzId>, RoutingError> {
    check_pair(u, v)?;
    let mut path = vec![*u];
    let mut cur = *u;
    while &cur != v {
        cur = greedy_next_hop(&cur, v)?;
        path.push(cur);
        debug_assert!(path.len() <= v.k() + 1, "greedy path cannot exceed diameter");
    }
    Ok(path)
}

/// One hop of the Faber–Streib regular protocol from `u` toward `v`.
///
/// `appended` counts how many of `v`'s digits have already been appended
/// (0 at the source); the returned pair is the next node and the updated
/// counter to carry in the packet header. The rule: append `v_{appended+1}`
/// and advance the counter. The append is always a legal arc: a collision
/// with `u`'s last digit is only possible on the very first append (after
/// that the last digit is `v_appended`, and consecutive digits of a Kautz
/// word never repeat), and `v_1 = u_k` means the suffix/prefix overlap is
/// at least 1, so the route starts from `v_2` instead — no detour digit is
/// ever inserted. A route from a fresh source therefore takes `k` or
/// `k - 1` hops, never more than the diameter.
///
/// Inconsistent `appended` values (≥ `k`, or pointing at a digit equal to
/// `u`'s last — impossible for states this function generates while
/// `u != v`) restart the route from the beginning.
///
/// # Errors
///
/// Returns [`RoutingError`] if the identifiers belong to different graphs or
/// are equal.
///
/// # Examples
///
/// ```
/// # use kautz::{KautzId, routing::regular_next_hop};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = KautzId::parse("0123", 4)?;
/// let v = KautzId::parse("2301", 4)?;
/// // Regular routing ignores the 0123/2301 overlap and appends 2,3,0,1.
/// let (hop, appended) = regular_next_hop(&u, &v, 0)?;
/// assert_eq!((hop.to_string().as_str(), appended), ("1232", 1));
/// # Ok(())
/// # }
/// ```
pub fn regular_next_hop(
    u: &KautzId,
    v: &KautzId,
    appended: usize,
) -> Result<(KautzId, usize), RoutingError> {
    check_pair(u, v)?;
    let mut appended = if appended < v.k() { appended } else { 0 };
    if v.digits()[appended] == u.last() {
        // A fresh route whose first digit collides already overlaps `v` in
        // one digit: skip straight to `v_2`. (Reached with `appended > 0`
        // only on a corrupted counter, which this restarts cleanly.)
        appended = if v.digits()[0] == u.last() { 1 } else { 0 };
    }
    let hop = u
        .shift_append(v.digits()[appended])
        .expect("the appended digit differs from u's last digit");
    Ok((hop, appended + 1))
}

/// The full regular path from `u` to `v`, inclusive of both endpoints. Its
/// length (in hops) is `k`, or `k - 1` when `v`'s first digit collides with
/// `u`'s last, unless an intermediate word happens to equal `v` early.
///
/// # Errors
///
/// Returns [`RoutingError`] if the identifiers belong to different graphs or
/// are equal.
pub fn regular_path(u: &KautzId, v: &KautzId) -> Result<Vec<KautzId>, RoutingError> {
    check_pair(u, v)?;
    let mut path = vec![*u];
    let mut cur = *u;
    let mut appended = 0;
    while &cur != v {
        let (hop, next) = regular_next_hop(&cur, v, appended)?;
        cur = hop;
        appended = next;
        path.push(cur);
        debug_assert!(
            path.len() <= v.k() + 1,
            "regular path cannot exceed the diameter"
        );
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str, d: u8) -> KautzId {
        KautzId::parse(s, d).expect("valid id in test")
    }

    #[test]
    fn paper_example_shortest_route() {
        // Section III-C1: "An example of the shortest routing path is:
        // 12345 -> 23450 -> 34501."
        let u = id("12345", 5);
        let v = id("34501", 5);
        let path = greedy_path(&u, &v).expect("routable");
        let rendered: Vec<String> = path.iter().map(|p| p.to_string()).collect();
        assert_eq!(rendered, ["12345", "23450", "34501"]);
    }

    #[test]
    fn figure_1_example_one_hop() {
        // Figure 1: distance between 120 and 201 is 1.
        let u = id("120", 2);
        let v = id("201", 2);
        assert_eq!(greedy_next_hop(&u, &v).expect("routable"), v);
    }

    #[test]
    fn greedy_path_length_is_k_minus_l() {
        use crate::graph::KautzGraph;
        let g = KautzGraph::new(3, 3).expect("valid");
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let path = greedy_path(&u, &v).expect("routable");
                assert_eq!(path.len() - 1, u.routing_distance(&v), "{u} -> {v}");
            }
        }
    }

    #[test]
    fn greedy_path_follows_arcs() {
        let u = id("0123", 4);
        let v = id("2301", 4);
        let path = greedy_path(&u, &v).expect("routable");
        for w in path.windows(2) {
            assert!(w[0].is_arc_to(&w[1]));
        }
    }

    #[test]
    fn regular_path_appends_destination_digits_in_order() {
        // No conflict: u ends in 5, v starts with 3, so the route is the
        // plain k-hop digit append regardless of the overlap shortcut.
        let u = id("12345", 5);
        let v = id("34501", 5);
        let path = regular_path(&u, &v).expect("routable");
        let rendered: Vec<String> = path.iter().map(|p| p.to_string()).collect();
        assert_eq!(
            rendered,
            ["12345", "23453", "34534", "45345", "53450", "34501"]
        );
    }

    #[test]
    fn regular_path_skips_the_first_digit_on_conflict() {
        // u ends in 3 and v starts with 3: the overlap is at least 1, so
        // the route starts from v_2 and takes k - 1 hops.
        let u = id("0123", 4);
        let v = id("3012", 4);
        let path = regular_path(&u, &v).expect("routable");
        assert_eq!(path.len() - 1, v.k() - 1, "collision skips one append");
        for w in path.windows(2) {
            assert!(w[0].is_arc_to(&w[1]));
        }
        assert_eq!(path.last(), Some(&v));
    }

    #[test]
    fn regular_path_is_bounded_by_the_diameter_on_k33() {
        use crate::graph::KautzGraph;
        let g = KautzGraph::new(3, 3).expect("valid");
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let path = regular_path(&u, &v).expect("routable");
                let hops = path.len() - 1;
                assert!(hops <= v.k(), "{u} -> {v} took {hops} hops");
                assert!(hops >= u.routing_distance(&v), "{u} -> {v}");
                for w in path.windows(2) {
                    assert!(w[0].is_arc_to(&w[1]));
                }
            }
        }
    }

    #[test]
    fn regular_routing_terminates_on_the_binary_alphabet() {
        // d = 1 has exactly two vertices; the append walk must still
        // terminate within k hops.
        let u = id("010", 1);
        let v = id("010", 1);
        assert_eq!(regular_next_hop(&u, &v, 0), Err(RoutingError::SameNode));
        let v = id("101", 1);
        let path = regular_path(&u, &v).expect("routable");
        assert!(path.len() - 1 <= v.k());
        assert_eq!(path.last(), Some(&v));
    }

    #[test]
    fn same_node_is_an_error() {
        let u = id("120", 2);
        assert_eq!(greedy_next_hop(&u, &u), Err(RoutingError::SameNode));
        assert_eq!(greedy_path(&u, &u), Err(RoutingError::SameNode));
        assert_eq!(regular_path(&u, &u), Err(RoutingError::SameNode));
    }

    #[test]
    fn incompatible_graphs_are_an_error() {
        let u = id("120", 2);
        let v = id("201", 3);
        assert!(matches!(
            greedy_next_hop(&u, &v),
            Err(RoutingError::IncompatibleIds { .. })
        ));
    }
}
