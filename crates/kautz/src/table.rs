//! Dense precomputed routing tables over `K(d, k)`.
//!
//! Every routine in [`routing`](crate::routing) and
//! [`disjoint`](crate::disjoint) works on [`KautzId`] values: it reads
//! digits out of identifiers and builds a new identifier for every
//! successor — fine for protocol logic, wasteful on a forwarding hot path
//! that takes the same decisions millions of times. The tables here
//! address vertices by their dense [`KautzId::to_index`] mixed-radix
//! index in `0..n`, `n = (d+1)·d^(k-1)`, and come in two sizes:
//!
//! * [`ArcTable`] — `O(n·d)`: every vertex's digit word (`n·k` bytes) and
//!   its `d` successor indices (`n·d` u32s), built by index arithmetic in
//!   two allocations. The greedy next hop and the Faber–Streib regular
//!   hop are computed from two digit words. It scales to the `n ≥ 10⁴` graphs
//!   of the Kautz fabric.
//! * [`RouteTable`] — an [`ArcTable`] plus the `O(n²)` pairwise overlaps
//!   `L(U, V)` and greedy next hops, turning the next hop into a single
//!   array read and the full Theorem 3.8 plan classification into `O(d)`
//!   arithmetic — no allocation, no digit scanning, no `KautzId`
//!   construction. Quadratic in `n` (`K(4, 4)`: 320 vertices, ≈ 0.5 MB),
//!   so meant for the small per-cell graphs; see the README's Performance
//!   section for the trade-off.
//!
//! Correctness is anchored by exhaustive equivalence tests against
//! [`greedy_next_hop`](crate::routing::greedy_next_hop),
//! [`regular_next_hop`](crate::routing::regular_next_hop),
//! [`disjoint_paths`] and the BFS reference in [`brute`](crate::brute).

use crate::disjoint::{disjoint_paths, PathClass};
use crate::error::KautzIdError;
use crate::id::{digit_rank, overlap_of, word_index, KautzId};
use std::collections::HashMap;

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

    /// Dense index of `id`, or `None` when `id` labels a different graph.
    pub fn index_of(&self, id: &KautzId) -> Option<usize> {
        (id.degree() == self.degree && id.k() == self.k).then(|| id.to_index())
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

    /// `L(U, V)`, computed from the two digit words in `O(k²)`
    /// ([`RouteTable::overlap`] reads it from a table).
    #[inline]
    pub(crate) fn overlap(&self, u: usize, v: usize) -> usize {
        overlap_of(self.digits_of(u), self.digits_of(v))
    }

    /// The greedy shortest next hop from `u` toward `v`, computed from the
    /// digit words; `None` when `u == v` ([`RouteTable::next_hop`] reads
    /// it from a table).
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

/// Sentinel in the next-hop array for the diagonal `u == v`.
const NO_HOP: u32 = u32::MAX;

/// One row of a [`PlanSet`]: a Theorem 3.8 path plan with the successor as
/// a dense index instead of a materialized [`KautzId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TablePlan {
    /// Dense index of `U`'s successor on this path.
    pub successor: u32,
    /// The out-digit `alpha` appended to reach the successor.
    pub out_digit: u8,
    /// The path length claimed by Theorem 3.8 (hops from `U` to `V`).
    pub length: usize,
    /// Which case of Theorem 3.8 this path falls under.
    pub class: PathClass,
    /// The digit the successor must append on its next hop instead of
    /// following the greedy protocol: set for every [`PathClass::Conflict`]
    /// plan (normally `v_{l+1}`) and for plans diverted around degenerate
    /// periodic pairs (the erratum in [`crate::disjoint`]).
    pub forced_digit: Option<u8>,
}

impl Default for TablePlan {
    fn default() -> Self {
        TablePlan {
            successor: NO_HOP,
            out_digit: 0,
            length: 0,
            class: PathClass::Other,
            forced_digit: None,
        }
    }
}

/// The `d` disjoint path plans for one ordered pair, sorted by
/// `(length, out_digit)` exactly like
/// [`disjoint_paths`]. Stack-allocated;
/// dereferences to a slice of [`TablePlan`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanSet {
    plans: [TablePlan; MAX_DEGREE as usize],
    len: usize,
}

impl PlanSet {
    /// Inserts keeping `(length, out_digit)` order.
    fn insert(&mut self, plan: TablePlan) {
        debug_assert!(self.len < self.plans.len());
        let mut at = self.len;
        while at > 0 {
            let prev = &self.plans[at - 1];
            if (prev.length, prev.out_digit) <= (plan.length, plan.out_digit) {
                break;
            }
            self.plans[at] = self.plans[at - 1];
            at -= 1;
        }
        self.plans[at] = plan;
        self.len += 1;
    }
}

impl std::ops::Deref for PlanSet {
    type Target = [TablePlan];

    fn deref(&self) -> &[TablePlan] {
        &self.plans[..self.len]
    }
}

impl<'a> IntoIterator for &'a PlanSet {
    type Item = &'a TablePlan;
    type IntoIter = std::slice::Iter<'a, TablePlan>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Precomputed O(1)/O(d) routing over every ordered pair of `K(d, k)`.
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
    /// it for everything it does not cache.
    arcs: ArcTable,
    /// `n * n`: `overlap[u * n + v] = L(U, V)`.
    overlap: Vec<u8>,
    /// `n * n`: shortest next hop from `u` toward `v`; [`NO_HOP`] on the
    /// diagonal.
    next: Vec<u32>,
    /// Sparse corrected plan sets for the degenerate periodic pairs whose
    /// standard Theorem 3.8 plans are diverted by
    /// [`disjoint_paths`] (see the
    /// erratum in [`crate::disjoint`]); keyed by `u * n + v`.
    corrections: HashMap<u64, PlanSet>,
}

/// A [`RouteTable`] answers every [`ArcTable`] query; its own
/// [`overlap`](RouteTable::overlap) and [`next_hop`](RouteTable::next_hop)
/// give the same answers by one array read.
impl std::ops::Deref for RouteTable {
    type Target = ArcTable;

    fn deref(&self) -> &ArcTable {
        &self.arcs
    }
}

impl RouteTable {
    /// Builds the full table for `K(degree, k)`.
    ///
    /// Build cost is `O(n² d k)` time (pairwise arrays plus the degenerate
    /// pair scan) and `O(n²)` memory — intended for the small per-cell
    /// graphs REFER routes in (`K(4, 4)` builds in a few tens of
    /// milliseconds).
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
        let n = arcs.n;
        let mut overlap = vec![0u8; n * n];
        let mut next = vec![NO_HOP; n * n];
        for u in 0..n {
            for v in 0..n {
                let l = arcs.overlap(u, v);
                overlap[u * n + v] = l as u8;
                if u != v {
                    next[u * n + v] = arcs.greedy_step(u, v, l) as u32;
                }
            }
        }

        let mut table = RouteTable { arcs, overlap, next, corrections: HashMap::new() };
        table.corrections = table.degenerate_corrections();
        Ok(table)
    }

    /// Finds every ordered pair whose standard plans
    /// [`disjoint_paths`] diverts (the
    /// degenerate-periodic-pair erratum in [`crate::disjoint`]) and
    /// computes the corrected [`PlanSet`] through that reference
    /// implementation, so the two APIs stay equivalent by construction.
    ///
    /// Detection mirrors the reference's trigger: walk each standard plan
    /// in `(length, out_digit)` priority order and flag the pair as soon
    /// as one walk repeats a vertex or enters the relay corridor of a
    /// higher-priority sibling.
    fn degenerate_corrections(&self) -> HashMap<u64, PlanSet> {
        let mut corrections = HashMap::new();
        let mut walks: Vec<Vec<u32>> = vec![Vec::new(); self.degree as usize];
        for u in 0..self.n {
            for v in 0..self.n {
                if u == v {
                    continue;
                }
                let plans = self.standard_plans(u, v);
                let mut flagged = false;
                'plans: for (rank, plan) in plans.iter().enumerate() {
                    let (head, tail) = walks.split_at_mut(rank);
                    self.walk_into(u, v, plan, &mut tail[0]);
                    let walk = &tail[0];
                    if !is_simple(walk) {
                        flagged = true;
                        break;
                    }
                    for earlier in head.iter() {
                        if !interiors_disjoint(walk, earlier) {
                            flagged = true;
                            break 'plans;
                        }
                    }
                }
                if flagged {
                    let uid = self.id_of(u);
                    let vid = self.id_of(v);
                    let corrected =
                        disjoint_paths(&uid, &vid).expect("distinct same-graph pair");
                    let mut set = PlanSet::default();
                    for plan in &corrected {
                        set.insert(TablePlan {
                            successor: plan.successor.to_index() as u32,
                            out_digit: plan.out_digit,
                            length: plan.length,
                            class: plan.class,
                            forced_digit: plan.forced_digit,
                        });
                    }
                    corrections.insert((u * self.n + v) as u64, set);
                }
            }
        }
        corrections
    }

    /// Materializes a plan's walk as dense indices into `out` (reused
    /// scratch): successor, optional forced hop, then greedy next hops.
    fn walk_into(&self, u: usize, v: usize, plan: &TablePlan, out: &mut Vec<u32>) {
        out.clear();
        out.push(u as u32);
        out.push(plan.successor);
        if let Some(digit) = plan.forced_digit {
            let at = plan.successor as usize;
            if at != v {
                out.push(self.successor_by_digit(at, digit) as u32);
            }
        }
        while *out.last().expect("non-empty") != v as u32 {
            let at = *out.last().expect("non-empty") as usize;
            out.push(self.next[at * self.n + v]);
            debug_assert!(out.len() <= 2 * self.k + 4, "planned route diverged");
        }
    }

    /// `L(U, V)` by table lookup.
    #[inline]
    pub fn overlap(&self, u: usize, v: usize) -> usize {
        self.overlap[u * self.n + v] as usize
    }

    /// Routing distance `k - L(U, V)`; zero on the diagonal.
    #[inline]
    pub fn distance(&self, u: usize, v: usize) -> usize {
        if u == v {
            0
        } else {
            self.k - self.overlap(u, v)
        }
    }

    /// The greedy shortest next hop from `u` toward `v` as a single array
    /// read; `None` when `u == v`.
    #[inline]
    pub fn next_hop(&self, u: usize, v: usize) -> Option<usize> {
        match self.next[u * self.n + v] {
            NO_HOP => None,
            hop => Some(hop as usize),
        }
    }

    /// The `d` disjoint path plans of Theorem 3.8 for `u -> v`, classified
    /// and sorted identically to
    /// [`disjoint_paths`] — including its
    /// diverted plans for degenerate periodic pairs, served from a sparse
    /// precomputed map — with `O(d)` work and no allocation. Returns an
    /// empty set when `u == v` (the allocating API reports
    /// `RoutingError::SameNode` instead).
    pub fn disjoint_plans(&self, u: usize, v: usize) -> PlanSet {
        if u == v {
            return PlanSet::default();
        }
        if let Some(corrected) = self.corrections.get(&((u * self.n + v) as u64)) {
            return *corrected;
        }
        self.standard_plans(u, v)
    }

    /// The uncorrected Theorem 3.8 classification (Propositions 3.3–3.7)
    /// straight from the digit tables; `u != v` required.
    fn standard_plans(&self, u: usize, v: usize) -> PlanSet {
        let mut set = PlanSet::default();
        let k = self.k;
        let (u_row, v_row) = (self.digits_of(u), self.digits_of(v));
        let l = self.overlap[u * self.n + v] as usize;
        let v_next = v_row[l]; // v_{l+1}
        let v_first = v_row[0]; // v_1
        let u_last = u_row[k - 1]; // u_k
        let u_conflict = u_row[k - l - 1]; // u_{k-l}

        for alpha in 0..=self.degree {
            if alpha == u_last {
                continue;
            }
            let (class, length, forced_digit) = if alpha == v_next {
                (PathClass::Shortest, k - l, None)
            } else if alpha == v_first {
                (PathClass::FirstDigit, k, None)
            } else if alpha == u_conflict {
                (PathClass::Conflict, k + 2, Some(v_next))
            } else {
                (PathClass::Other, k + 1, None)
            };
            set.insert(TablePlan {
                successor: self.successor_by_digit(u, alpha) as u32,
                out_digit: alpha,
                length,
                class,
                forced_digit,
            });
        }
        set
    }

    /// Materializes a planned path as dense indices, mirroring
    /// [`plan_route`](crate::disjoint::plan_route): first hop is the
    /// plan's successor, a plan carrying a forced digit applies it, every
    /// later relay follows [`next_hop`](Self::next_hop). Endpoints
    /// included.
    ///
    /// # Panics
    ///
    /// Panics if `u == v`.
    pub fn plan_path(&self, plan: &TablePlan, u: usize, v: usize) -> Vec<usize> {
        assert_ne!(u, v, "no path plans exist for a vertex to itself");
        let mut path = vec![u, plan.successor as usize];
        if let Some(digit) = plan.forced_digit {
            let at = *path.last().expect("non-empty");
            if at != v {
                path.push(self.successor_by_digit(at, digit));
            }
        }
        while *path.last().expect("non-empty") != v {
            let at = *path.last().expect("non-empty");
            let hop = self.next_hop(at, v).expect("at != v inside the loop");
            path.push(hop);
            debug_assert!(path.len() <= 2 * self.k + 4, "planned route diverged");
        }
        path
    }
}

/// Whether the walk never repeats a vertex.
fn is_simple(walk: &[u32]) -> bool {
    walk.iter().enumerate().all(|(i, x)| !walk[..i].contains(x))
}

/// Whether no interior (non-endpoint) vertex of `a` is an interior of `b`.
fn interiors_disjoint(a: &[u32], b: &[u32]) -> bool {
    a[1..a.len() - 1].iter().all(|x| !b[1..b.len() - 1].contains(x))
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
            assert_eq!(table.index_of(&id), Some(index));
        }
    }

    #[test]
    fn index_of_rejects_foreign_graphs() {
        let table = RouteTable::new(2, 3).expect("valid");
        let other = KautzId::parse("0123", 4).expect("valid");
        assert_eq!(table.index_of(&other), None);
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
            let table = RouteTable::new(d, k).expect("valid");
            // The table's lookups and the arc table's computed answers.
            let arcs: &ArcTable = &table;
            for u in 0..table.node_count() {
                let uid = table.id_of(u);
                for v in 0..table.node_count() {
                    if u == v {
                        assert_eq!(table.next_hop(u, v), None);
                        assert_eq!(arcs.next_hop(u, v), None);
                        continue;
                    }
                    let vid = table.id_of(v);
                    let expected = greedy_next_hop(&uid, &vid).expect("distinct").to_index();
                    assert_eq!(table.next_hop(u, v), Some(expected), "K({d},{k}) {uid}->{vid}");
                    assert_eq!(arcs.next_hop(u, v), Some(expected), "K({d},{k}) {uid}->{vid}");
                    assert_eq!(table.overlap(u, v), uid.overlap(&vid));
                    assert_eq!(arcs.overlap(u, v), uid.overlap(&vid));
                    assert_eq!(table.distance(u, v), uid.routing_distance(&vid));
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
    fn plan_path_matches_plan_route() {
        use crate::disjoint::plan_route;
        let table = RouteTable::new(4, 4).expect("valid");
        let u = KautzId::parse("0123", 4).expect("valid");
        let v = KautzId::parse("2301", 4).expect("valid");
        let plans = disjoint_paths(&u, &v).expect("distinct");
        let table_plans = table.disjoint_plans(u.to_index(), v.to_index());
        for (plan, table_plan) in plans.iter().zip(&table_plans) {
            let expected: Vec<usize> = plan_route(plan, &u, &v)
                .expect("distinct")
                .iter()
                .map(KautzId::to_index)
                .collect();
            let got = table.plan_path(table_plan, u.to_index(), v.to_index());
            assert_eq!(got, expected);
        }
    }
}
