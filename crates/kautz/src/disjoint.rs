//! Theorem 3.8: the `d` disjoint `U -> V` paths, computed from node IDs
//! alone.
//!
//! This is the heart of REFER's fault-tolerant routing protocol. Given only
//! the identifiers `U` and `V`, a relay node can enumerate, for each of its
//! `d` successors, which of the `d` vertex-disjoint `U -> V` paths that
//! successor begins and how long the path is — with *no* route-generation
//! protocol (the energy-consuming tree construction required by DFTR \[21\]).
//!
//! The classification follows Propositions 3.3–3.7 of the paper:
//!
//! * the successor appending `v_{l+1}` starts the unique **shortest** path
//!   of length `k - l`;
//! * the successor appending `v_1` (when `u_k != v_1`) starts a path of
//!   length `k` whose in-digit at `V` is `u_k`;
//! * the successor appending `u_{k-l}` (when `u_{k-l} != v_{l+1}`) is the
//!   **conflict node** (Definition 4): under the plain greedy protocol its
//!   path would intersect the shortest path at `u_{k-l} v_1 ... v_{k-1}`
//!   (Proposition 3.4), so Proposition 3.7 forces it to append `v_{l+1}`
//!   on its next hop instead, yielding a path of length `k + 2`;
//! * every other successor starts a path of length `k + 1`.
//!
//! # Degenerate periodic pairs (erratum)
//!
//! The theorem's constructive paths are *not* always simple or disjoint as
//! materialized: when `U`'s digit string is periodic and the overlap `l`
//! is large (e.g. `U = 010`, `V = 102` in `K(2, 3)`), the first-digit
//! path's digit schedule `u_1 ... u_k v_1 ... v_k` contains `U` itself as
//! an interior window, so the greedy continuation walks straight back
//! through the source (`010 -> 101 -> 010 -> 102`); the same fold-back
//! can occur on a conflict path's tail after its forced hop. On `k >= 4`
//! graphs, greedy shortcuts (the overlap jumping by more than one) can
//! additionally merge a non-shortest path into a sibling's relay corridor.
//!
//! [`disjoint_paths`] repairs both defects: it materializes all `d` walks,
//! keeps the provably simple shortest path untouched, and diverts every
//! offending plan with an alternative [`PathPlan::forced_digit`] — the
//! smallest digit whose continuation is a simple walk clear of the sibling
//! paths — claiming the conflict bound `k + 2`. This restores pairwise
//! internally-vertex-disjoint simple paths for every ordered pair of
//! `K(2, 3)`, `K(3, 3)`, `K(3, 4)` and `K(4, 4)` (verified exhaustively in
//! tests). Sole known exception: six `K(2, 4)` pairs (periodic sources
//! such as `0120 -> 1202`) where all three alphabet digits re-fold, so no
//! single-forced-digit detour exists and the first-digit walk still
//! revisits its source.

use crate::error::RoutingError;
use crate::id::KautzId;
use crate::routing::{check_pair, greedy_next_hop};

/// Which of the `d` disjoint paths a successor begins (Theorem 3.8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathClass {
    /// Case (2): the unique shortest path of length `k - l`
    /// (out-digit `v_{l+1}`).
    Shortest,
    /// Case (3): out-digit `v_1` (requires `u_k != v_1`); length `k`.
    FirstDigit,
    /// Case (1): the conflict node with out-digit `u_{k-l}` (requires
    /// `u_{k-l} != v_{l+1}`); length `k + 2`. The successor must forward to
    /// `u_3 ... u_k u_{k-l} v_{l+1}` (Proposition 3.7) rather than follow
    /// the greedy protocol, which [`PathPlan::forced_digit`] records.
    Conflict,
    /// Case (4): any other out-digit; length `k + 1`.
    Other,
}

/// One of the `d` disjoint `U -> V` paths: its first hop, its class, and
/// its total length as given by Theorem 3.8.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathPlan {
    /// `U`'s successor on this path: `u_2 ... u_k alpha`.
    pub successor: KautzId,
    /// The out-digit `alpha` appended to reach the successor (Definition 3).
    pub out_digit: u8,
    /// The path length claimed by Theorem 3.8 (hops from `U` to `V`).
    pub length: usize,
    /// Which case of Theorem 3.8 this path falls under.
    pub class: PathClass,
    /// The digit the successor must append on its next hop instead of
    /// following the greedy protocol. Set for every [`PathClass::Conflict`]
    /// plan (normally `v_{l+1}`, Proposition 3.7) and for degenerate
    /// periodic pairs whose standard continuation would revisit `U` (see
    /// the module-level erratum). `None` otherwise — those relays use the
    /// plain greedy protocol.
    pub forced_digit: Option<u8>,
}

/// Computes the `d` disjoint `U -> V` path plans of Theorem 3.8, sorted by
/// ascending path length (shortest first). Ties keep increasing out-digit
/// order; REFER's protocol breaks such ties randomly at the caller.
///
/// # Errors
///
/// Returns [`RoutingError`] if the identifiers belong to different graphs or
/// are equal.
///
/// # Examples
///
/// The worked example of Section III-C2 — `U = 0123`, `V = 2301` in
/// `K(4, 4)`:
///
/// ```
/// # use kautz::{KautzId, disjoint::{disjoint_paths, PathClass}};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let u = KautzId::parse("0123", 4)?;
/// let v = KautzId::parse("2301", 4)?;
/// let plans = disjoint_paths(&u, &v)?;
/// let summary: Vec<(String, usize)> = plans
///     .iter()
///     .map(|p| (p.successor.to_string(), p.length))
///     .collect();
/// // (1230, 2) shortest; (1232, 4); (1234, 5); (1231, 6) conflict.
/// assert_eq!(
///     summary,
///     [
///         ("1230".to_string(), 2),
///         ("1232".to_string(), 4),
///         ("1234".to_string(), 5),
///         ("1231".to_string(), 6),
///     ]
/// );
/// assert_eq!(plans[3].class, PathClass::Conflict);
/// # Ok(())
/// # }
/// ```
pub fn disjoint_paths(u: &KautzId, v: &KautzId) -> Result<Vec<PathPlan>, RoutingError> {
    check_pair(u, v)?;
    let k = u.k();
    let l = u.overlap(v);
    debug_assert!(l < k);
    let v_next = v.digits()[l]; // v_{l+1}
    let v_first = v.first(); // v_1
    let u_last = u.last(); // u_k
    let u_conflict = u.digits()[k - l - 1]; // u_{k-l}

    let mut plans = Vec::with_capacity(u.degree() as usize);
    for alpha in 0..=u.degree() {
        if alpha == u_last {
            continue;
        }
        let successor = u
            .shift_append(alpha)
            .expect("alpha != u_k and within alphabet");
        let (class, length, forced_digit) = if alpha == v_next {
            (PathClass::Shortest, k - l, None)
        } else if alpha == v_first {
            (PathClass::FirstDigit, k, None)
        } else if alpha == u_conflict {
            (PathClass::Conflict, k + 2, Some(v_next))
        } else {
            (PathClass::Other, k + 1, None)
        };
        plans.push(PathPlan { successor, out_digit: alpha, length, class, forced_digit });
    }

    // Degenerate periodic pairs (module-level erratum): the standard
    // continuation can fold back through U itself, and greedy shortcuts
    // can merge one path into a sibling's relay corridor. Process plans
    // shortest-first (the unique shortest path is provably simple and is
    // never diverted); divert each offender with the smallest forced digit
    // whose walk is simple — preferring one clear of every sibling — for a
    // detour within the conflict bound k + 2.
    let mut walks: Vec<Vec<KautzId>> =
        plans.iter().map(|p| walk(u, v, &p.successor, p.forced_digit)).collect();
    let mut order: Vec<usize> = (0..plans.len()).collect();
    order.sort_by_key(|&i| (plans[i].length, plans[i].out_digit));
    for rank in 0..order.len() {
        let i = order[rank];
        let settled = is_simple(&walks[i])
            && order[..rank].iter().all(|&j| interiors_disjoint(&walks[i], &walks[j]));
        if settled {
            continue;
        }
        let candidates: Vec<(u8, Vec<KautzId>)> = (0..=u.degree())
            .filter(|&b| b != plans[i].successor.last())
            .map(|b| (b, walk(u, v, &plans[i].successor, Some(b))))
            .filter(|(_, w)| is_simple(w))
            .collect();
        let found = candidates
            .iter()
            .find(|(_, w)| {
                walks
                    .iter()
                    .enumerate()
                    .all(|(j, other)| j == i || interiors_disjoint(w, other))
            })
            .or_else(|| {
                // Settle for clearing only the higher-priority siblings (a
                // self-loop or a collision with a shorter path is strictly
                // worse than sharing a relay with a longer one).
                candidates.iter().find(|(_, w)| {
                    order[..rank].iter().all(|&j| interiors_disjoint(w, &walks[j]))
                })
            })
            .cloned();
        if let Some((beta, w)) = found {
            plans[i].forced_digit = Some(beta);
            plans[i].length = k + 2;
            walks[i] = w;
        }
    }

    plans.sort_by_key(|p| (p.length, p.out_digit));
    Ok(plans)
}

/// Whether no interior (non-endpoint) vertex of `a` is an interior of `b`.
fn interiors_disjoint(a: &[KautzId], b: &[KautzId]) -> bool {
    a[1..a.len() - 1].iter().all(|x| !b[1..b.len() - 1].contains(x))
}

/// Materializes the walk `U -> successor -> (forced hop?) -> greedy ... -> V`
/// exactly as REFER's relays execute it on the wire.
fn walk(u: &KautzId, v: &KautzId, successor: &KautzId, forced_digit: Option<u8>) -> Vec<KautzId> {
    let mut path = vec![*u, *successor];
    if let Some(digit) = forced_digit {
        if path.last().expect("non-empty") != v {
            let forced = successor
                .shift_append(digit)
                .expect("forced digit differs from the successor's last digit");
            path.push(forced);
        }
    }
    while path.last().expect("non-empty") != v {
        let next = greedy_next_hop(path.last().expect("non-empty"), v)
            .expect("same-graph distinct pair");
        path.push(next);
        debug_assert!(path.len() <= 2 * v.k() + 4, "planned route diverged: {path:?} toward {v}");
    }
    path
}

/// Whether the walk never repeats a vertex (the paths of Theorem 3.8 are
/// claimed to be simple; degenerate periodic pairs violate this).
fn is_simple(path: &[KautzId]) -> bool {
    path.iter().enumerate().all(|(i, p)| !path[..i].contains(p))
}

/// Materializes the full vertex sequence of a planned path: the first hop is
/// `plan.successor`; if the plan is a conflict path the successor applies
/// [`PathPlan::forced_digit`]; every later relay runs the greedy shortest
/// protocol. Endpoints are included.
///
/// This mirrors exactly what REFER's relays do on the wire, so tests use it
/// to check Theorem 3.8's length and disjointness claims against reality.
///
/// # Errors
///
/// Returns [`RoutingError`] if the identifiers belong to different graphs or
/// are equal.
pub fn plan_route(plan: &PathPlan, u: &KautzId, v: &KautzId) -> Result<Vec<KautzId>, RoutingError> {
    check_pair(u, v)?;
    Ok(walk(u, v, &plan.successor, plan.forced_digit))
}

/// The in-digit (Definition 3) of a materialized path: the first digit of
/// `V`'s predecessor on the path. Returns `None` for a path that is the
/// bare arc `U -> V` with no intermediate predecessor distinct from `U`
/// (the in-digit is then `u_1` itself).
pub fn in_digit(path: &[KautzId]) -> Option<u8> {
    if path.len() < 2 {
        return None;
    }
    Some(path[path.len() - 2].first())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str, d: u8) -> KautzId {
        KautzId::parse(s, d).expect("valid id in test")
    }

    #[test]
    fn proposition_3_3_in_digits() {
        // Figure 2(a): U = 0123, V = 2301, l = 2.
        // Shortest successor 1230 -> in-digit u_{k-l} = u_2 = 1.
        // Successor 1232 (alpha = v_1 = 2) -> in-digit u_k = 3.
        // Successors 1231, 1234 -> in-digits alpha = 1 and 4.
        let u = id("0123", 4);
        let v = id("2301", 4);
        let plans = disjoint_paths(&u, &v).expect("routable");
        for plan in &plans {
            let path = plan_route(plan, &u, &v).expect("routable");
            let got = in_digit(&path).expect("paths have length >= 2");
            let expected = match plan.class {
                PathClass::Shortest => 1,
                PathClass::FirstDigit => 3,
                PathClass::Conflict => 0, // forced onto in-digit v_{l+1} = 0
                PathClass::Other => plan.out_digit,
            };
            assert_eq!(got, expected, "plan {plan:?} path {path:?}");
        }
    }

    #[test]
    fn theorem_3_8_worked_example() {
        // Section III-C2: successors and lengths for 0123 -> 2301 are
        // (1230, k-l=2), (1232, k=4), (1234, k+1=5), (1231, k+2=6).
        let u = id("0123", 4);
        let v = id("2301", 4);
        let plans = disjoint_paths(&u, &v).expect("routable");
        assert_eq!(plans.len(), 4);
        assert_eq!(plans[0].successor, id("1230", 4));
        assert_eq!(plans[0].length, 2);
        assert_eq!(plans[0].class, PathClass::Shortest);
        assert_eq!(plans[1].successor, id("1232", 4));
        assert_eq!(plans[1].length, 4);
        assert_eq!(plans[1].class, PathClass::FirstDigit);
        assert_eq!(plans[2].successor, id("1234", 4));
        assert_eq!(plans[2].length, 5);
        assert_eq!(plans[2].class, PathClass::Other);
        assert_eq!(plans[3].successor, id("1231", 4));
        assert_eq!(plans[3].length, 6);
        assert_eq!(plans[3].class, PathClass::Conflict);
        assert_eq!(plans[3].forced_digit, Some(0));
    }

    #[test]
    fn conflict_node_forced_hop_matches_proposition_3_7() {
        // Proposition 3.7 example: conflict node 1231 forwards to 2310.
        let u = id("0123", 4);
        let v = id("2301", 4);
        let plans = disjoint_paths(&u, &v).expect("routable");
        let conflict = plans
            .iter()
            .find(|p| p.class == PathClass::Conflict)
            .expect("u_{k-l} != v_{l+1} so a conflict path exists");
        let path = plan_route(conflict, &u, &v).expect("routable");
        assert_eq!(path[1], id("1231", 4));
        assert_eq!(path[2], id("2310", 4));
        assert_eq!(path.len() - 1, conflict.length);
    }

    #[test]
    fn no_conflict_when_u_k_minus_l_equals_v_l_plus_1() {
        // Figure 2(b): U = 0123, V1 = 2312 has u_{k-l} = v_{l+1} = 1, so no
        // conflict path exists and all non-shortest in-digits are distinct.
        let u = id("0123", 4);
        let v = id("2312", 4);
        let plans = disjoint_paths(&u, &v).expect("routable");
        assert!(plans.iter().all(|p| p.class != PathClass::Conflict));
    }

    #[test]
    fn plans_cover_all_d_successors() {
        let u = id("120", 2);
        let v = id("012", 2);
        let plans = disjoint_paths(&u, &v).expect("routable");
        assert_eq!(plans.len(), 2);
        let succ: Vec<_> = plans.iter().map(|p| p.successor).collect();
        for s in u.successors() {
            assert!(succ.contains(&s));
        }
    }

    #[test]
    fn plans_sorted_by_length() {
        let u = id("0123", 4);
        let v = id("2301", 4);
        let plans = disjoint_paths(&u, &v).expect("routable");
        for w in plans.windows(2) {
            assert!(w[0].length <= w[1].length);
        }
    }

    #[test]
    fn same_node_is_an_error() {
        let u = id("120", 2);
        assert_eq!(disjoint_paths(&u, &u), Err(RoutingError::SameNode));
    }
}
