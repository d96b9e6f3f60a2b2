//! Dense routing tables over `K(d, k)`.
//!
//! Every routine in [`routing`](crate::routing) and
//! [`disjoint`](crate::disjoint) works on [`KautzId`] values: it reads
//! digits out of identifiers and builds a new identifier for every
//! successor — fine for protocol logic, wasteful on a forwarding hot path
//! that takes the same decisions millions of times. The tables here
//! address vertices by their dense [`KautzId::to_index`] mixed-radix
//! index in `0..n`, `n = (d+1)·d^(k-1)`:
//!
//! * [`ArcTable`] — `O(n·d)`: every vertex's digit word (`n·k` bytes) and
//!   its `d` successor indices (`n·d` u32s), built by index arithmetic in
//!   two allocations. The greedy next hop and the Faber–Streib regular
//!   hop are computed from two digit words. It scales to the `n ≥ 10⁴` graphs
//!   of the Kautz fabric.
//! * [`RouteTable`] — an [`ArcTable`] plus the few ordered pairs whose
//!   Theorem 3.8 plans the degenerate-pair diversion changes (the erratum
//!   in [`crate::disjoint`]). Every other pair's plans are classified from
//!   the two digit words by the function [`disjoint_paths`] uses, in
//!   `O(d + k²)` with no allocation. Building one asks the diversion search
//!   about all `n²` pairs, so it is meant for the small per-cell graphs.
//!
//! Correctness is anchored by exhaustive equivalence tests against
//! [`greedy_next_hop`](crate::routing::greedy_next_hop),
//! [`regular_next_hop`](crate::routing::regular_next_hop),
//! [`disjoint_paths`] and the BFS reference in [`brute`](crate::brute).
//!
//! [`disjoint_paths`]: crate::disjoint_paths

use crate::disjoint::{classify, divert, PathClass, Plan, Walk};
use crate::error::KautzIdError;
use crate::id::{digit_rank, overlap_of, word_index, KautzId};

/// Every vertex's digit word and out-arcs in `K(d, k)`: the `O(n·d)`
/// half of a [`RouteTable`], enough for greedy and regular
/// routing on graphs too large for pairwise tables.
///
/// # Examples
///
/// ```
/// # use kautz::{KautzId, table::ArcTable};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let arcs = ArcTable::new(2, 10)?;
/// assert_eq!(arcs.node_count(), 3 * 512);
/// let u = KautzId::parse("0101010101", 2)?.to_index();
/// let v = KautzId::parse("1010101012", 2)?.to_index();
/// // Overlap 9, so one hop: append v's last digit.
/// assert_eq!(arcs.next_hop(u, v), Some(v));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ArcTable {
    degree: u8,
    k: usize,
    n: usize,
    /// `n * k`: vertex digits, row per vertex.
    digits: Vec<u8>,
    /// `n * d`: successor indices, row per vertex, increasing out-digit.
    succ: Vec<u32>,
}

impl ArcTable {
    /// Builds the digit words and successor rows of `K(degree, k)` in
    /// `O(n·d·k)` time and two allocations.
    ///
    /// # Errors
    ///
    /// Returns [`KautzIdError::ZeroDegree`] when `degree == 0`,
    /// [`KautzIdError::Empty`] when `k == 0` and [`KautzIdError::TooLong`]
    /// when `k` exceeds [`KautzId::MAX_K`] or the vertices of `K(degree, k)`
    /// outnumber the `u32` successor indices (`max` is then the longest
    /// label this degree allows).
    pub fn new(degree: u8, k: usize) -> Result<Self, KautzIdError> {
        if degree == 0 {
            return Err(KautzIdError::ZeroDegree);
        }
        if k == 0 {
            return Err(KautzIdError::Empty);
        }
        if k > KautzId::MAX_K {
            return Err(KautzIdError::TooLong { len: k, max: KautzId::MAX_K });
        }
        let d = degree as usize;
        let Some(n) = indexed_vertex_count(d, k) else {
            // `k = 1` always fits: `d + 1 <= 256` vertices.
            let max = (1..k).rev().find(|&k| indexed_vertex_count(d, k).is_some());
            return Err(KautzIdError::TooLong { len: k, max: max.unwrap_or(1) });
        };

        let mut digits = Vec::with_capacity(n * k);
        for index in 0..n {
            digits.extend_from_slice(KautzId::from_index(index, degree, k).digits());
        }

        // The successor along `alpha` is the shift-append `u_2 … u_k alpha`.
        let mut succ = Vec::with_capacity(n * d);
        for row in digits.chunks_exact(k) {
            for alpha in (0..=degree).filter(|&alpha| alpha != row[k - 1]) {
                succ.push(word_index(degree, row[1..].iter().copied().chain([alpha])) as u32);
            }
        }
        Ok(ArcTable { degree, k, n, digits, succ })
    }

    /// The graph degree `d`.
    #[inline]
    pub fn degree(&self) -> u8 {
        self.degree
    }

    /// The label length / diameter `k`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of vertices `(d+1)·d^(k-1)`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Materializes the [`KautzId`] of a dense index (recomputes the digits
    /// from the index; [`ArcTable::digits_of`] is the table read).
    ///
    /// # Panics
    ///
    /// Panics if `index >= node_count()`.
    pub fn id_of(&self, index: usize) -> KautzId {
        KautzId::from_index(index, self.degree, self.k)
    }

    /// The digit word `u_1 ... u_k` of a vertex, without allocating.
    #[inline]
    pub fn digits_of(&self, index: usize) -> &[u8] {
        &self.digits[index * self.k..(index + 1) * self.k]
    }

    /// The `d` successor indices of a vertex, in increasing out-digit
    /// order (matching [`KautzId::successors`]).
    #[inline]
    pub fn successors(&self, index: usize) -> &[u32] {
        let d = self.degree as usize;
        &self.succ[index * d..(index + 1) * d]
    }

    /// The `d` predecessor indices of a vertex, in increasing in-digit
    /// order (matching [`KautzId::predecessors`]): each `beta u_1 … u_{k-1}`
    /// with `beta ≠ u_1`, ranked from the digit word without a table.
    pub fn predecessors(&self, index: usize) -> impl Iterator<Item = u32> + '_ {
        let word = self.digits_of(index);
        let head = &word[..self.k - 1];
        let rank = move |beta| word_index(self.degree, [beta].into_iter().chain(head.iter().copied()));
        (0..=self.degree).filter(move |&beta| beta != word[0]).map(move |beta| rank(beta) as u32)
    }

    /// The successor of `u` along out-digit `alpha`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `alpha` exceeds the alphabet or equals
    /// `u_k` — no such arc exists.
    #[inline]
    pub fn successor_by_digit(&self, u: usize, alpha: u8) -> usize {
        let u_last = self.digits[u * self.k + self.k - 1];
        debug_assert!(alpha <= self.degree && alpha != u_last);
        self.succ[u * self.degree as usize + digit_rank(alpha, u_last)] as usize
    }

    /// `L(U, V)`, computed from the two digit words in `O(k²)`.
    #[inline]
    pub(crate) fn overlap(&self, u: usize, v: usize) -> usize {
        overlap_of(self.digits_of(u), self.digits_of(v))
    }

    /// The greedy shortest next hop from `u` toward `v`, computed from the
    /// digit words; `None` when `u == v`.
    #[inline]
    pub fn next_hop(&self, u: usize, v: usize) -> Option<usize> {
        (u != v).then(|| self.greedy_step(u, v, self.overlap(u, v)))
    }

    /// The greedy hop from `u` toward `v != u` given their overlap `l`:
    /// append `v_{l+1}`. Always a legal arc — for `l ≥ 1`, `u`'s last
    /// letter is `v_l ≠ v_{l+1}`; for `l = 0` equality would make the
    /// overlap 1.
    #[inline]
    fn greedy_step(&self, u: usize, v: usize, l: usize) -> usize {
        self.successor_by_digit(u, self.digits[v * self.k + l])
    }

    /// One hop of the Faber–Streib regular protocol from `u` toward `v` as
    /// two array reads; `None` when `u == v`. Mirrors
    /// [`regular_next_hop`](crate::routing::regular_next_hop): append
    /// `v_{appended+1}` and advance the counter, starting from `v_2` when
    /// `v_1` collides with `u`'s last digit (the overlap is then at least
    /// 1, so no detour digit is needed). Returns the next index and the
    /// updated counter; inconsistent counters restart the route.
    #[inline]
    pub fn regular_next(&self, u: usize, v: usize, appended: u8) -> Option<(usize, u8)> {
        if u == v {
            return None;
        }
        let mut appended = if (appended as usize) < self.k {
            appended
        } else {
            0
        };
        let u_last = self.digits[u * self.k + self.k - 1];
        if self.digits[v * self.k + appended as usize] == u_last {
            appended = u8::from(self.digits[v * self.k] == u_last);
        }
        let next_digit = self.digits[v * self.k + appended as usize];
        Some((self.successor_by_digit(u, next_digit), appended + 1))
    }
}

/// `(d+1)·d^(k-1)`, the vertex count of `K(d, k)`, when every vertex has a
/// `u32` index and the `n·k` digit and `n·d` successor arrays can be sized.
fn indexed_vertex_count(d: usize, k: usize) -> Option<usize> {
    let n = d.checked_pow((k - 1) as u32)?.checked_mul(d + 1)?;
    u32::try_from(n - 1).ok()?;
    n.checked_mul(k.max(d))?;
    Some(n)
}

/// Largest supported degree; covers every `(d, k)` REFER deploys and keeps
/// [`PlanSet`] a fixed-size, stack-allocated value.
pub const MAX_DEGREE: u8 = 8;

/// A [`Plan`] whose successor is a dense index, as a [`PlanSet`] holds it.
pub type TablePlan = Plan<u32>;

impl Default for TablePlan {
    fn default() -> Self {
        TablePlan {
            successor: u32::MAX,
            out_digit: 0,
            length: 0,
            class: PathClass::Other,
            forced_digit: None,
        }
    }
}

/// The `d` disjoint path plans for one ordered pair, one per out-arc.
/// [`RouteTable::disjoint_plans`] returns them sorted by
/// `(length, out_digit)` exactly like
/// [`disjoint_paths`](crate::disjoint_paths); a relay's route choice
/// reorders its copy in place (ties shuffled, a forced arc first).
/// Stack-allocated; dereferences to a slice of [`TablePlan`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanSet {
    plans: [TablePlan; MAX_DEGREE as usize],
    len: usize,
}

impl PlanSet {
    /// Collects `plans` in `(length, out_digit)` order, by insertion.
    fn sorted(plans: impl IntoIterator<Item = TablePlan>) -> Self {
        let mut set = PlanSet::default();
        let key = |p: &TablePlan| (p.length, p.out_digit);
        for plan in plans {
            let mut at = set.len;
            while at > 0 && key(&set.plans[at - 1]) > key(&plan) {
                set.plans[at] = set.plans[at - 1];
                at -= 1;
            }
            set.plans[at] = plan;
            set.len += 1;
        }
        set
    }
}

impl std::ops::Deref for PlanSet {
    type Target = [TablePlan];

    fn deref(&self) -> &[TablePlan] {
        &self.plans[..self.len]
    }
}

impl std::ops::DerefMut for PlanSet {
    fn deref_mut(&mut self) -> &mut [TablePlan] {
        &mut self.plans[..self.len]
    }
}

impl<'a> IntoIterator for &'a PlanSet {
    type Item = &'a TablePlan;
    type IntoIter = std::slice::Iter<'a, TablePlan>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Allocation-free Theorem 3.8 plans for every ordered pair of `K(d, k)`.
///
/// # Examples
///
/// ```
/// # use kautz::{KautzId, RouteTable};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let table = RouteTable::new(4, 4)?;
/// let u = KautzId::parse("0123", 4)?.to_index();
/// let v = KautzId::parse("2301", 4)?.to_index();
/// // Shortest next hop without allocating: 0123 -> 1230.
/// let hop = table.next_hop(u, v).expect("distinct vertices");
/// assert_eq!(table.id_of(hop).to_string(), "1230");
/// // All d = 4 disjoint plans, shortest first (Section III-C2).
/// let plans = table.disjoint_plans(u, v);
/// assert_eq!(plans.len(), 4);
/// assert_eq!(plans[0].length, 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// The digit words and successor rows; [`RouteTable`] dereferences to
    /// it for every query but [`disjoint_plans`](RouteTable::disjoint_plans).
    arcs: ArcTable,
    /// The pairs `(u, v)` whose plans the diversion search changes, with
    /// those plans, in increasing `(u, v)` order.
    diverted: Vec<((u32, u32), PlanSet)>,
}

/// A [`RouteTable`] answers every [`ArcTable`] query.
impl std::ops::Deref for RouteTable {
    type Target = ArcTable;

    fn deref(&self) -> &ArcTable {
        &self.arcs
    }
}

impl RouteTable {
    /// Builds the table for `K(degree, k)`: the [`ArcTable`], then the
    /// diversion search of [`crate::disjoint`] over every ordered pair.
    ///
    /// Build cost is one diversion search per ordered pair (`n²` of them)
    /// in a handful of allocations — intended for the small per-cell
    /// graphs REFER routes in.
    ///
    /// # Errors
    ///
    /// Degrees above [`MAX_DEGREE`] are rejected first, as
    /// [`KautzIdError::DigitOutOfRange`] — the fixed-size [`PlanSet`] (and
    /// any realistic radio fan-out) stops there. Otherwise as
    /// [`ArcTable::new`].
    pub fn new(degree: u8, k: usize) -> Result<Self, KautzIdError> {
        if degree > MAX_DEGREE {
            return Err(KautzIdError::DigitOutOfRange {
                index: 0,
                digit: degree,
                degree: MAX_DEGREE,
            });
        }
        let arcs = ArcTable::new(degree, k)?;
        let mut walks = [Walk::new(0); MAX_DEGREE as usize];
        let mut diverted = Vec::new();
        let step = |x: u32, digit| arcs.successor_by_digit(x as usize, digit) as u32;
        for u in 0..arcs.n {
            for v in (0..arcs.n).filter(|&v| v != u) {
                let mut plans = standard_plans(&arcs, u, v);
                let greedy = |x: u32| arcs.next_hop(x as usize, v).expect("x != v") as u32;
                let pair = (u as u32, v as u32);
                let len = plans.len;
                if divert(&mut plans.plans[..len], &mut walks, pair, (degree, k), step, greedy) {
                    diverted.push((pair, PlanSet::sorted(plans.iter().copied())));
                }
            }
        }
        Ok(RouteTable { arcs, diverted })
    }

    /// The `d` disjoint path plans of Theorem 3.8 for `u -> v`, classified
    /// and sorted identically to
    /// [`disjoint_paths`](crate::disjoint_paths) — including its
    /// diverted plans for degenerate periodic pairs, found by binary search
    /// among the few stored — with no allocation. Returns an
    /// empty set when `u == v` (the allocating API reports
    /// `RoutingError::SameNode` instead).
    pub fn disjoint_plans(&self, u: usize, v: usize) -> PlanSet {
        if u == v {
            return PlanSet::default();
        }
        match self.diverted.binary_search_by_key(&(u as u32, v as u32), |&(pair, _)| pair) {
            Ok(at) => self.diverted[at].1,
            Err(_) => standard_plans(self, u, v),
        }
    }
}

/// The standard Theorem 3.8 plans of `u != v` (Propositions 3.3–3.7),
/// classified from the two digit words.
fn standard_plans(arcs: &ArcTable, u: usize, v: usize) -> PlanSet {
    let successor = |alpha| arcs.successor_by_digit(u, alpha) as u32;
    PlanSet::sorted(classify(arcs.digits_of(u), arcs.digits_of(v), arcs.degree, successor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disjoint::disjoint_paths;
    use crate::routing::greedy_next_hop;

    #[test]
    fn rejects_degenerate_parameters() {
        assert_eq!(ArcTable::new(0, 3).unwrap_err(), KautzIdError::ZeroDegree);
        assert_eq!(ArcTable::new(2, 0).unwrap_err(), KautzIdError::Empty);
        assert!(ArcTable::new(MAX_DEGREE + 1, 2).is_ok());
        // 256·255^4 vertices outnumber the u32 indices; 256·255^3 do not.
        assert_eq!(ArcTable::new(255, 5).unwrap_err(), KautzIdError::TooLong { len: 5, max: 4 });
        assert_eq!(
            ArcTable::new(255, 16).unwrap_err(),
            KautzIdError::TooLong { len: 16, max: 4 }
        );
        assert_eq!(RouteTable::new(0, 3).unwrap_err(), KautzIdError::ZeroDegree);
        assert_eq!(RouteTable::new(2, 0).unwrap_err(), KautzIdError::Empty);
        assert!(RouteTable::new(MAX_DEGREE + 1, 2).is_err());
        assert_eq!(
            RouteTable::new(2, KautzId::MAX_K + 1).unwrap_err(),
            KautzIdError::TooLong { len: KautzId::MAX_K + 1, max: KautzId::MAX_K }
        );
    }

    #[test]
    fn counts_and_digits_match_from_index() {
        let table = RouteTable::new(3, 3).expect("valid");
        assert_eq!(table.node_count(), 4 * 9);
        for index in 0..table.node_count() {
            let id = KautzId::from_index(index, 3, 3);
            assert_eq!(table.digits_of(index), id.digits());
            assert_eq!(table.id_of(index), id);
        }
    }

    #[test]
    fn successors_match_id_successors() {
        for (d, k) in [(2u8, 3usize), (3, 3), (4, 4)] {
            let table = RouteTable::new(d, k).expect("valid");
            for u in 0..table.node_count() {
                let id = table.id_of(u);
                let ranks = |ids: Vec<KautzId>| -> Vec<u32> {
                    ids.iter().map(|s| s.to_index() as u32).collect()
                };
                assert_eq!(table.successors(u), &ranks(id.successors())[..], "K({d},{k}) {id}");
                let predecessors: Vec<u32> = table.predecessors(u).collect();
                assert_eq!(predecessors, ranks(id.predecessors()), "K({d},{k}) {id}");
            }
        }
    }

    #[test]
    fn successor_tables_match_the_id_arithmetic() {
        for (d, k) in [(2u8, 3usize), (3, 4), (2, 10)] {
            let arcs = ArcTable::new(d, k).expect("valid");
            for u in 0..arcs.node_count() {
                let id = arcs.id_of(u);
                for alpha in (0..=d).filter(|&alpha| alpha != id.last()) {
                    let shifted = id.shift_append(alpha).expect("an arc");
                    assert_eq!(arcs.successor_by_digit(u, alpha), shifted.to_index(), "{id}");
                }
            }
        }
    }

    /// The arc table's computed hop is the greedy one, so every walk on it
    /// ends within the diameter.
    #[test]
    fn shortest_walk_reaches_every_pair_within_the_diameter() {
        let (d, k) = (3u8, 4usize);
        let arcs = ArcTable::new(d, k).expect("valid");
        for u in 0..arcs.node_count() {
            assert_eq!(arcs.next_hop(u, u), None);
            for v in (0..arcs.node_count()).filter(|&v| v != u) {
                let (mut at, mut hops) = (u, 0);
                while at != v {
                    let expected = greedy_next_hop(&arcs.id_of(at), &arcs.id_of(v));
                    at = arcs.next_hop(at, v).expect("distinct");
                    assert_eq!(at, expected.expect("distinct").to_index(), "{u} -> {v}");
                    hops += 1;
                    assert!(hops <= k, "shortest {u} -> {v} exceeded the diameter");
                }
            }
        }
    }

    #[test]
    fn regular_walk_reaches_every_pair_within_the_diameter() {
        let (d, k) = (3u8, 4usize);
        let arcs = ArcTable::new(d, k).expect("valid");
        for u in 0..arcs.node_count() {
            for v in (0..arcs.node_count()).filter(|&v| v != u) {
                let (mut at, mut appended, mut hops) = (u, 0u8, 0usize);
                while at != v {
                    (at, appended) = arcs.regular_next(at, v, appended).expect("distinct");
                    hops += 1;
                    assert!(hops <= k, "regular {u} -> {v} exceeded the diameter");
                }
            }
        }
    }

    #[test]
    fn next_hop_matches_greedy_exhaustively() {
        for (d, k) in [(2u8, 3usize), (3, 3), (4, 4)] {
            let arcs = ArcTable::new(d, k).expect("valid");
            for u in 0..arcs.node_count() {
                let uid = arcs.id_of(u);
                for v in 0..arcs.node_count() {
                    if u == v {
                        assert_eq!(arcs.next_hop(u, v), None);
                        continue;
                    }
                    let vid = arcs.id_of(v);
                    let expected = greedy_next_hop(&uid, &vid).expect("distinct").to_index();
                    assert_eq!(arcs.next_hop(u, v), Some(expected), "K({d},{k}) {uid}->{vid}");
                    assert_eq!(arcs.overlap(u, v), uid.overlap(&vid));
                }
            }
        }
    }

    #[test]
    fn regular_next_matches_regular_next_hop_exhaustively() {
        use crate::routing::regular_next_hop;
        for (d, k) in [(2u8, 3usize), (3, 3), (4, 4)] {
            let table = RouteTable::new(d, k).expect("valid");
            for u in 0..table.node_count() {
                let uid = table.id_of(u);
                for v in 0..table.node_count() {
                    if u == v {
                        assert_eq!(table.regular_next(u, v, 0), None);
                        continue;
                    }
                    let vid = table.id_of(v);
                    let mut cur = u;
                    let mut cur_id = uid;
                    let mut appended = 0u8;
                    let mut hops = 0usize;
                    while cur != v {
                        let (expected, expected_app) =
                            regular_next_hop(&cur_id, &vid, appended as usize).expect("distinct");
                        let (got, got_app) =
                            table.regular_next(cur, v, appended).expect("distinct");
                        assert_eq!(got, expected.to_index(), "K({d},{k}) {cur_id}->{vid}");
                        assert_eq!(got_app as usize, expected_app);
                        cur = got;
                        cur_id = expected;
                        appended = got_app;
                        hops += 1;
                        assert!(hops <= k, "K({d},{k}) {uid}->{vid} exceeded bound");
                    }
                }
            }
        }
    }

    #[test]
    fn disjoint_plans_match_allocating_api_exhaustively() {
        // (2, 4) and (3, 4) exercise the degenerate-pair corrections the
        // hardest (periodic sources, greedy shortcut collisions).
        for (d, k) in [(2u8, 3usize), (3, 3), (4, 4), (2, 4), (3, 4)] {
            let table = RouteTable::new(d, k).expect("valid");
            for u in 0..table.node_count() {
                let uid = table.id_of(u);
                for v in 0..table.node_count() {
                    if u == v {
                        assert!(table.disjoint_plans(u, v).is_empty());
                        continue;
                    }
                    let vid = table.id_of(v);
                    let expected = disjoint_paths(&uid, &vid).expect("distinct");
                    let got = table.disjoint_plans(u, v);
                    assert_eq!(got.len(), expected.len(), "K({d},{k}) {uid}->{vid}");
                    for (g, e) in got.iter().zip(&expected) {
                        assert_eq!(g.successor as usize, e.successor.to_index());
                        assert_eq!(g.out_digit, e.out_digit);
                        assert_eq!(g.length, e.length);
                        assert_eq!(g.class, e.class);
                        assert_eq!(g.forced_digit, e.forced_digit);
                    }
                }
            }
        }
    }

    #[test]
    fn diverted_pair_counts_are_pinned() {
        // How many ordered pairs the diversion search changes. ROADMAP
        // 7(a) is to derive these from Faber's ρ_k(d, D), the number of
        // arcs whose shortest cycle has length k + 1 ("Number of edges
        // with shortest cycle k in a Kautz graph"): a source lies on a
        // short cycle exactly when its digit word is periodic.
        let pinned = [(2u8, 3usize, 12), (3, 3, 48), (2, 4, 54), (3, 4, 528), (4, 4, 2_280)];
        for (d, k, diverted) in pinned {
            let table = RouteTable::new(d, k).expect("valid");
            assert_eq!(table.diverted.len(), diverted, "K({d},{k})");
        }
    }

    #[test]
    fn every_diverted_pair_has_overlap_at_least_two() {
        // The observation ROADMAP 7(a) is to prove (see the erratum in
        // `disjoint`): the search never changes a pair with `L(U, V) <= 1`.
        let pinned = [(2u8, 3usize), (3, 3), (2, 4), (3, 4), (4, 4)];
        let cells = (1..=MAX_DEGREE).map(|d| (d, 3));
        for (d, k) in pinned.into_iter().chain(cells) {
            let table = RouteTable::new(d, k).expect("valid");
            for &((u, v), _) in &table.diverted {
                let (u, v) = (u as usize, v as usize);
                let l = table.overlap(u, v);
                assert!(l >= 2, "K({d},{k}) {}->{}: L = {l}", table.id_of(u), table.id_of(v));
            }
        }
    }
}
