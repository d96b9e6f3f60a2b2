//! REFER's intra-cell routing decisions (Section III-C2).
//!
//! At every relay the protocol re-evaluates Theorem 3.8 against the current
//! destination: try the shortest-path successor first; if it is failed,
//! congested or out of range, take the next-shortest disjoint path, and so
//! on. A conflict-path choice stamps the forced out-digit into the message
//! header so the next relay deviates from the greedy protocol for exactly
//! one hop (Proposition 3.7).

use kautz::disjoint::{disjoint_paths, PathPlan};
use kautz::table::MAX_DEGREE;
use kautz::{KautzId, RouteTable, RoutingError};
use rand::Rng;

/// The routing fields a REFER data frame carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteHeader {
    /// Destination KID within the destination cell.
    pub dest_kid: KautzId,
    /// Set when the *previous* relay chose a conflict path: this relay must
    /// append the digit instead of routing greedily (Proposition 3.7).
    pub forced_digit: Option<u8>,
}

/// One next-hop choice produced by [`route_choices`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NextHop {
    /// The successor KID to forward to.
    pub successor: KautzId,
    /// The planned remaining path length (for diagnostics/telemetry).
    pub length: usize,
    /// The forced digit to stamp into the header for the successor
    /// (`Some` only when this choice takes the conflict path).
    pub forced_digit: Option<u8>,
}

/// Computes the ordered list of next hops from `at` toward `header.dest_kid`.
///
/// * If the header carries a forced digit (this relay is a conflict node
///   chosen by the previous relay), the forced successor comes first,
///   followed by the Theorem 3.8 alternatives as fallback.
/// * Plans are ordered by ascending path length; ties are shuffled with
///   `rng` ("If a number of paths with the same path length exist, U
///   randomly chooses a successor among these paths").
///
/// The caller walks the list and takes the first successor whose physical
/// link is up and uncongested.
///
/// # Errors
///
/// Returns [`RoutingError::SameNode`] when `at` *is* the destination and
/// [`RoutingError::IncompatibleIds`] when the KIDs live in different
/// graphs.
pub fn route_choices<R: Rng + ?Sized>(
    at: &KautzId,
    header: &RouteHeader,
    rng: &mut R,
) -> Result<Vec<NextHop>, RoutingError> {
    let mut plans: Vec<PathPlan> = disjoint_paths(at, &header.dest_kid)?;
    // Shuffle equal-length groups for load balancing, preserving the
    // ascending length order between groups.
    shuffle_ties(&mut plans, rng);
    let mut hops: Vec<NextHop> = plans
        .into_iter()
        .map(|p| NextHop {
            successor: p.successor,
            length: p.length,
            forced_digit: p.forced_digit,
        })
        .collect();
    if let Some(digit) = header.forced_digit {
        if let Ok(forced) = at.shift_append(digit) {
            // The forced hop takes priority; drop its duplicate among the
            // theorem plans if present.
            hops.retain(|h| h.successor != forced);
            hops.insert(
                0,
                NextHop { successor: forced, length: header.dest_kid.k() + 1, forced_digit: None },
            );
        }
    }
    Ok(hops)
}

fn shuffle_ties<R: Rng + ?Sized>(plans: &mut [PathPlan], rng: &mut R) {
    shuffle_ties_by(plans, |p| p.length, rng);
}

/// Shuffles every maximal equal-length run in place, leaving the ascending
/// order between runs intact. Both the allocating and the indexed route
/// choice APIs funnel through this so they consume identical RNG
/// sequences and make identical tie-break decisions.
fn shuffle_ties_by<T, R: Rng + ?Sized>(
    items: &mut [T],
    length: impl Fn(&T) -> usize,
    rng: &mut R,
) {
    let mut start = 0;
    while start < items.len() {
        let len = length(&items[start]);
        let mut end = start + 1;
        while end < items.len() && length(&items[end]) == len {
            end += 1;
        }
        // Fisher-Yates within the tie group.
        for i in (start + 1..end).rev() {
            let j = rng.gen_range(start..=i);
            items.swap(i, j);
        }
        start = end;
    }
}

/// One next-hop choice produced by [`route_choices_indexed`]: the dense
/// table-index counterpart of [`NextHop`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexedHop {
    /// Dense [`RouteTable`] index of the successor to forward to.
    pub successor: u32,
    /// The planned remaining path length (for diagnostics/telemetry).
    pub length: usize,
    /// The forced digit to stamp into the header for the successor.
    pub forced_digit: Option<u8>,
}

/// The ordered next-hop choices for one relay decision: the `d` Theorem
/// 3.8 plans plus at most one forced-header hop, stack-allocated.
/// Dereferences to a slice of [`IndexedHop`].
#[derive(Debug, Clone, Copy, Default)]
pub struct HopSet {
    hops: [IndexedHop; MAX_DEGREE as usize + 1],
    len: usize,
}

impl std::ops::Deref for HopSet {
    type Target = [IndexedHop];

    fn deref(&self) -> &[IndexedHop] {
        &self.hops[..self.len]
    }
}

impl PartialEq for HopSet {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for HopSet {}

impl<'a> IntoIterator for &'a HopSet {
    type Item = &'a IndexedHop;
    type IntoIter = std::slice::Iter<'a, IndexedHop>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Allocation-free [`route_choices`] over a prebuilt [`RouteTable`]:
/// identical choices in identical order (both funnel the tie shuffle
/// through the same Fisher-Yates sequence), with vertices addressed by
/// dense index instead of materialized [`KautzId`]s. This is the
/// per-packet fast path; the `KautzId` API remains the reference.
///
/// `forced_digit` is the header's forced out-digit, honored exactly like
/// the allocating API: ignored when it does not name an arc out of `at`,
/// otherwise its successor is promoted to the front (deduplicated against
/// the theorem plans) with the conflict-path remainder length `k + 1`.
///
/// # Errors
///
/// Returns [`RoutingError::SameNode`] when `at == dest`.
pub fn route_choices_indexed<R: Rng + ?Sized>(
    table: &RouteTable,
    at: usize,
    dest: usize,
    forced_digit: Option<u8>,
    rng: &mut R,
) -> Result<HopSet, RoutingError> {
    if at == dest {
        return Err(RoutingError::SameNode);
    }
    let plans = table.disjoint_plans(at, dest);
    let mut set = HopSet::default();
    for p in &plans {
        set.hops[set.len] = IndexedHop {
            successor: p.successor,
            length: p.length,
            forced_digit: p.forced_digit,
        };
        set.len += 1;
    }
    shuffle_ties_by(&mut set.hops[..set.len], |h| h.length, rng);
    if let Some(digit) = forced_digit {
        let at_digits = table.digits_of(at);
        // Same validity rule as `KautzId::shift_append`: the digit must be
        // in the alphabet and differ from u_k.
        if digit <= table.degree() && digit != at_digits[at_digits.len() - 1] {
            let forced = table.successor_by_digit(at, digit) as u32;
            // The forced hop takes priority; drop its duplicate among the
            // theorem plans if present.
            let mut keep = 0;
            for read in 0..set.len {
                if set.hops[read].successor != forced {
                    set.hops[keep] = set.hops[read];
                    keep += 1;
                }
            }
            for i in (0..keep).rev() {
                set.hops[i + 1] = set.hops[i];
            }
            set.hops[0] =
                IndexedHop { successor: forced, length: table.k() + 1, forced_digit: None };
            set.len = keep + 1;
        }
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn id(s: &str, d: u8) -> KautzId {
        KautzId::parse(s, d).expect("valid")
    }

    fn header(dest: &str, d: u8) -> RouteHeader {
        RouteHeader { dest_kid: id(dest, d), forced_digit: None }
    }

    #[test]
    fn choices_are_sorted_by_length() {
        let mut rng = StdRng::seed_from_u64(1);
        let hops =
            route_choices(&id("0123", 4), &header("2301", 4), &mut rng).expect("routable");
        assert_eq!(hops.len(), 4);
        for w in hops.windows(2) {
            assert!(w[0].length <= w[1].length);
        }
        assert_eq!(hops[0].successor, id("1230", 4), "shortest first");
    }

    #[test]
    fn conflict_choice_carries_forced_digit() {
        let mut rng = StdRng::seed_from_u64(1);
        let hops =
            route_choices(&id("0123", 4), &header("2301", 4), &mut rng).expect("routable");
        let conflict = hops
            .iter()
            .find(|h| h.successor == id("1231", 4))
            .expect("conflict successor listed");
        assert_eq!(conflict.forced_digit, Some(0));
    }

    #[test]
    fn forced_header_overrides_greedy() {
        let mut rng = StdRng::seed_from_u64(1);
        // Relay 1231 received a frame whose header forces digit 0
        // (Proposition 3.7's example: 1231 must forward to 2310).
        let h = RouteHeader { dest_kid: id("2301", 4), forced_digit: Some(0) };
        let hops = route_choices(&id("1231", 4), &h, &mut rng).expect("routable");
        assert_eq!(hops[0].successor, id("2310", 4));
        assert_eq!(hops[0].forced_digit, None, "the force applies for one hop only");
    }

    #[test]
    fn routing_to_self_is_an_error() {
        let mut rng = StdRng::seed_from_u64(1);
        let u = id("012", 2);
        let h = RouteHeader { dest_kid: u, forced_digit: None };
        assert_eq!(route_choices(&u, &h, &mut rng), Err(RoutingError::SameNode));
    }

    #[test]
    fn tie_shuffling_preserves_length_order() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let hops =
                route_choices(&id("0123", 4), &header("2301", 4), &mut rng).expect("routable");
            for w in hops.windows(2) {
                assert!(w[0].length <= w[1].length);
            }
        }
    }

    #[test]
    fn indexed_choices_match_allocating_api_exhaustively() {
        // Same seed on both sides: the indexed fast path must reproduce
        // the allocating API's choices bit for bit, including tie-shuffle
        // order and forced-header promotion.
        let (d, k) = (3u8, 3usize);
        let table = kautz::RouteTable::new(d, k).expect("valid");
        for u in 0..table.node_count() {
            let uid = table.id_of(u);
            for v in 0..table.node_count() {
                if u == v {
                    continue;
                }
                let vid = table.id_of(v);
                for forced in [None, Some(0u8), Some(1), Some(2), Some(3)] {
                    let seed = (u * table.node_count() + v) as u64;
                    let mut rng_a = StdRng::seed_from_u64(seed);
                    let mut rng_b = StdRng::seed_from_u64(seed);
                    let header =
                        RouteHeader { dest_kid: vid, forced_digit: forced };
                    let hops = route_choices(&uid, &header, &mut rng_a).expect("routable");
                    let indexed = route_choices_indexed(&table, u, v, forced, &mut rng_b)
                        .expect("routable");
                    assert_eq!(hops.len(), indexed.len(), "{uid}->{vid} forced {forced:?}");
                    for (h, i) in hops.iter().zip(indexed.iter()) {
                        assert_eq!(h.successor.to_index(), i.successor as usize);
                        assert_eq!(h.length, i.length);
                        assert_eq!(h.forced_digit, i.forced_digit);
                    }
                }
            }
        }
    }

    #[test]
    fn indexed_routing_to_self_is_an_error() {
        let table = kautz::RouteTable::new(2, 3).expect("valid");
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            route_choices_indexed(&table, 0, 0, None, &mut rng),
            Err(RoutingError::SameNode)
        );
    }

    #[test]
    fn tie_shuffling_actually_permutes() {
        // 010 -> 102 in K(4, 3): several k+1 plans tie; over many draws we
        // should see more than one first-of-tie successor.
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let hops =
                route_choices(&id("010", 4), &header("102", 4), &mut rng).expect("routable");
            let first_tie = hops
                .iter()
                .find(|h| h.length == 4)
                .expect("k+1 plans exist")
                .successor;
            seen.insert(first_tie);
        }
        assert!(seen.len() > 1, "ties should shuffle: {seen:?}");
    }
}
