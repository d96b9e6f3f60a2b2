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
//! offending plan with an alternative [`Plan::forced_digit`] — the
//! smallest digit whose continuation is a simple walk clear of the sibling
//! paths — claiming the conflict bound `k + 2`. This restores pairwise
//! internally-vertex-disjoint simple paths for every ordered pair of every
//! graph the tests enumerate (`K(2, 3)` through `K(4, 4)`, with `K(3, 4)`).
//! Sole known exception: six `K(2, 4)` pairs (periodic sources such as
//! `0120 -> 1202` and its relabelings) where all three alphabet digits
//! re-fold, so no single-forced-digit detour exists and the first-digit
//! walk still revisits its source.
//!
//! Every pair the search diverts has overlap `L(U, V) ≥ 2`:
//! `table::tests::every_diverted_pair_has_overlap_at_least_two` checks it
//! on the graphs whose diverted-pair counts are pinned and on every
//! `K(d, 3)` with `d ≤ MAX_DEGREE`, and a one-off run found the same on
//! `K(2, 5)`, `K(2, 6)`, `K(3, 5)` and `K(4, 5)`. That is an observation,
//! not a theorem: ROADMAP 7(a) is to prove it. Once proven, a table build
//! may search only the pairs with `L ≥ 2`. A trial build that did so
//! rebuilt every one of those tables identically, in 5.6 µs instead of
//! 22 µs for `K(2, 3)` and 33 µs instead of 285 µs for `K(3, 3)`
//! (release, 2-vCPU host); it waits for the proof.
//!
//! The classification and the diversion search are one function each,
//! generic over how a vertex is named: [`disjoint_paths`] runs them on
//! [`KautzId`]s and [`RouteTable`](crate::RouteTable) on dense indices, so
//! the two APIs agree by construction.

use crate::error::RoutingError;
use crate::id::{overlap_of, KautzId};
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
    /// the greedy protocol, which [`Plan::forced_digit`] records.
    Conflict,
    /// Case (4): any other out-digit; length `k + 1`.
    Other,
}

/// One of the `d` disjoint `U -> V` paths: its first hop, its class, and
/// its total length as given by Theorem 3.8. The successor is a
/// [`KautzId`] in a [`PathPlan`] and a dense table index in a
/// [`TablePlan`](crate::TablePlan); both come from the same classification
/// and the same diversion search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Plan<V> {
    /// `U`'s successor on this path: `u_2 ... u_k alpha`.
    pub successor: V,
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

/// A [`Plan`] whose successor is a [`KautzId`], as [`disjoint_paths`]
/// returns it.
pub type PathPlan = Plan<KautzId>;

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
    let shift = |x: KautzId, digit| {
        x.shift_append(digit).expect("a plan appends only digits that leave an arc")
    };
    let mut plans: Vec<PathPlan> =
        classify(u.digits(), v.digits(), u.degree(), |alpha| shift(*u, alpha)).collect();
    plans.sort_by_key(|p| (p.length, p.out_digit));
    let mut walks = vec![Walk::new(*u); plans.len()];
    let greedy = |x: KautzId| greedy_next_hop(&x, v).expect("same-graph distinct pair");
    if divert(&mut plans, &mut walks, (*u, *v), (u.degree(), u.k()), shift, greedy) {
        plans.sort_by_key(|p| (p.length, p.out_digit));
    }
    Ok(plans)
}

/// The standard plans of Propositions 3.3–3.7 for the digit words of
/// `U != V` in `K(degree, k)`, one per out-digit in increasing out-digit
/// order; `successor(alpha)` names `U`'s successor along `alpha`.
pub(crate) fn classify<V>(
    u: &[u8],
    v: &[u8],
    degree: u8,
    successor: impl Fn(u8) -> V,
) -> impl Iterator<Item = Plan<V>> {
    let k = u.len();
    let l = overlap_of(u, v);
    debug_assert!(l < k, "distinct words overlap strictly less than k");
    let v_next = v[l]; // v_{l+1}
    let v_first = v[0]; // v_1
    let u_last = u[k - 1]; // u_k
    let u_conflict = u[k - l - 1]; // u_{k-l}
    (0..=degree).filter(move |&alpha| alpha != u_last).map(move |alpha| {
        let (class, length, forced_digit) = if alpha == v_next {
            (PathClass::Shortest, k - l, None)
        } else if alpha == v_first {
            (PathClass::FirstDigit, k, None)
        } else if alpha == u_conflict {
            (PathClass::Conflict, k + 2, Some(v_next))
        } else {
            (PathClass::Other, k + 1, None)
        };
        Plan { successor: successor(alpha), out_digit: alpha, length, class, forced_digit }
    })
}

/// Vertices a plan's walk can hold: `U`, its successor, one forced hop and
/// at most `k` greedy hops, since each greedy hop lengthens the overlap
/// with `V`.
const WALK_CAP: usize = KautzId::MAX_K + 3;

/// A plan's walk as REFER's relays execute it on the wire, endpoints
/// included, in a fixed buffer so that materializing one never allocates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Walk<V> {
    hops: [V; WALK_CAP],
    len: usize,
}

impl<V: Copy + PartialEq> Walk<V> {
    /// An empty walk; `fill` is only a placeholder for the unused slots.
    pub(crate) fn new(fill: V) -> Self {
        Walk { hops: [fill; WALK_CAP], len: 0 }
    }

    /// Rewrites this walk as `U -> successor -> (forced hop?) -> greedy ...
    /// -> V`: `step(x, digit)` is `x`'s successor along `digit` and
    /// `greedy(x)` the greedy hop from `x != V` toward `V`.
    fn trace(
        &mut self,
        (u, v): (V, V),
        successor: V,
        forced_digit: Option<u8>,
        step: impl Fn(V, u8) -> V,
        greedy: impl Fn(V) -> V,
    ) {
        self.hops[0] = u;
        self.hops[1] = successor;
        self.len = 2;
        if let Some(digit) = forced_digit.filter(|_| successor != v) {
            self.hops[2] = step(successor, digit);
            self.len = 3;
        }
        while self.hops[self.len - 1] != v {
            self.hops[self.len] = greedy(self.hops[self.len - 1]);
            self.len += 1;
        }
    }

    fn vertices(&self) -> &[V] {
        &self.hops[..self.len]
    }

    /// Whether the walk never repeats a vertex (the paths of Theorem 3.8
    /// are claimed to be simple; degenerate periodic pairs violate this).
    fn is_simple(&self) -> bool {
        let walk = self.vertices();
        walk.iter().enumerate().all(|(i, x)| !walk[..i].contains(x))
    }

    /// Whether no interior (non-endpoint) vertex of this walk is an
    /// interior of `other`.
    fn interiors_disjoint(&self, other: &Self) -> bool {
        let (mine, theirs) = (self.vertices(), other.vertices());
        let theirs = &theirs[1..theirs.len() - 1];
        mine[1..mine.len() - 1].iter().all(|x| !theirs.contains(x))
    }
}

/// The degenerate-pair diversion (module-level erratum) of `plans`, which
/// must be sorted by `(length, out_digit)`, in `K(degree, k)` under any
/// vertex naming: `step` and `greedy` move as in [`Walk::trace`], and
/// `walks` is working space with a slot per plan.
///
/// Plans are settled in that priority order (the unique shortest path is
/// provably simple and is never diverted). An offender — a walk that
/// repeats a vertex or meets a higher-priority sibling's interior — takes
/// the smallest forced digit whose walk is simple and clear of every
/// sibling, else of the higher-priority ones, and claims the conflict
/// bound `k + 2`. Returns whether any plan changed; the caller then
/// restores the sort.
pub(crate) fn divert<V: Copy + PartialEq>(
    plans: &mut [Plan<V>],
    walks: &mut [Walk<V>],
    (u, v): (V, V),
    (degree, k): (u8, usize),
    step: impl Fn(V, u8) -> V + Copy,
    greedy: impl Fn(V) -> V + Copy,
) -> bool {
    let walks = &mut walks[..plans.len()];
    for (walk, plan) in walks.iter_mut().zip(&*plans) {
        walk.trace((u, v), plan.successor, plan.forced_digit, step, greedy);
    }
    let (mut candidate, mut fallback) = (Walk::new(u), Walk::new(u));
    let mut changed = false;
    for rank in 0..plans.len() {
        let (earlier, rest) = walks.split_at(rank);
        let clear_of_earlier = |w: &Walk<V>| earlier.iter().all(|e| w.interiors_disjoint(e));
        if rest[0].is_simple() && clear_of_earlier(&rest[0]) {
            continue;
        }
        let plan = &plans[rank];
        let mut found = None;
        let mut settle_for = None;
        for beta in (0..=degree).filter(|&beta| beta != plan.out_digit) {
            candidate.trace((u, v), plan.successor, Some(beta), step, greedy);
            if !candidate.is_simple() {
                continue;
            }
            let clear_of_all = walks
                .iter()
                .enumerate()
                .all(|(j, other)| j == rank || candidate.interiors_disjoint(other));
            if clear_of_all {
                found = Some(beta);
                break;
            }
            // Settle for clearing only the higher-priority siblings (a
            // self-loop or a collision with a shorter path is strictly
            // worse than sharing a relay with a longer one).
            if settle_for.is_none() && clear_of_earlier(&candidate) {
                settle_for = Some(beta);
                fallback = candidate;
            }
        }
        let (beta, walk) = match (found, settle_for) {
            (Some(beta), _) => (beta, candidate),
            (None, Some(beta)) => (beta, fallback),
            (None, None) => continue,
        };
        plans[rank].forced_digit = Some(beta);
        plans[rank].length = k + 2;
        walks[rank] = walk;
        changed = true;
    }
    changed
}

/// Materializes the full vertex sequence of a planned path: the first hop is
/// `plan.successor`; if the plan is a conflict path the successor applies
/// [`Plan::forced_digit`]; every later relay runs the greedy shortest
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
    let mut walk = Walk::new(*u);
    walk.trace(
        (*u, *v),
        plan.successor,
        plan.forced_digit,
        |x, digit| x.shift_append(digit).expect("forced digit differs from the successor's last digit"),
        |x| greedy_next_hop(&x, v).expect("same-graph distinct pair"),
    );
    Ok(walk.vertices().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str, d: u8) -> KautzId {
        KautzId::parse(s, d).expect("valid id in test")
    }

    /// The in-digit (Definition 3) of a materialized path: the first digit
    /// of `V`'s predecessor on the path.
    fn in_digit(path: &[KautzId]) -> Option<u8> {
        (path.len() >= 2).then(|| path[path.len() - 2].first())
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
