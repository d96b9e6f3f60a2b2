//! The de Bruijn digraph `B(d, k)` — the topology the paper compares Kautz
//! graphs against (Proposition 3.1, citing \[31\]).
//!
//! `B(d, k)` has `d^k` vertices labelled by arbitrary words over a
//! `d`-letter alphabet (no adjacent-digit constraint), with arcs by
//! shift-and-append. At equal degree and diameter a Kautz graph holds
//! `(d+1)/d` times more vertices; equivalently, for a given network size a
//! Kautz overlay needs a smaller diameter — the real-time argument of
//! Section III-A. This module exists so that claim is *checked by code*
//! rather than cited.

use std::fmt;

/// A vertex of `B(d, k)`: a length-`k` word over the alphabet `[0, d-1]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeBruijnId {
    digits: Vec<u8>,
    base: u8,
}

impl DeBruijnId {
    /// Creates an identifier over the alphabet `[0, base-1]`.
    ///
    /// # Panics
    ///
    /// Panics if `base == 0`, the word is empty, or a digit is out of
    /// range (construction inputs are programmer-controlled).
    pub fn new(digits: impl Into<Vec<u8>>, base: u8) -> Self {
        let digits = digits.into();
        assert!(base >= 1, "alphabet must be non-empty");
        assert!(!digits.is_empty(), "word must be non-empty");
        assert!(
            digits.iter().all(|&d| d < base),
            "digit out of alphabet [0, {})",
            base
        );
        DeBruijnId { digits, base }
    }

    /// The word length `k`.
    pub fn k(&self) -> usize {
        self.digits.len()
    }

    /// The alphabet size `d`.
    pub fn base(&self) -> u8 {
        self.base
    }

    /// The raw digits.
    pub fn digits(&self) -> &[u8] {
        &self.digits
    }

    /// `L(U, V)`: longest suffix of `self` that prefixes `other`.
    pub fn overlap(&self, other: &DeBruijnId) -> usize {
        let k = self.digits.len().min(other.digits.len());
        (1..=k)
            .rev()
            .find(|&l| self.digits[self.digits.len() - l..] == other.digits[..l])
            .unwrap_or(0)
    }

    /// Routing distance `k - L(U, V)`.
    pub fn routing_distance(&self, other: &DeBruijnId) -> usize {
        other.digits.len() - self.overlap(other)
    }

    /// Shift-append successor. Unlike Kautz graphs, any digit is allowed —
    /// including the one producing a self-loop.
    pub fn shift_append(&self, digit: u8) -> Self {
        assert!(digit < self.base, "digit out of alphabet");
        let mut digits = Vec::with_capacity(self.digits.len());
        digits.extend_from_slice(&self.digits[1..]);
        digits.push(digit);
        DeBruijnId { digits, base: self.base }
    }

    /// All `d` successors (possibly including `self` via a self-loop).
    pub fn successors(&self) -> Vec<DeBruijnId> {
        (0..self.base).map(|d| self.shift_append(d)).collect()
    }

    /// The greedy next hop toward `other` (append `v_{l+1}`).
    pub fn greedy_next_hop(&self, other: &DeBruijnId) -> Option<DeBruijnId> {
        if self == other {
            return None;
        }
        let l = self.overlap(other);
        Some(self.shift_append(other.digits[l]))
    }
}

impl fmt::Display for DeBruijnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &d in &self.digits {
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

/// The de Bruijn digraph `B(d, k)` as a whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeBruijnGraph {
    base: u8,
    diameter: usize,
}

impl DeBruijnGraph {
    /// Creates a handle, or `None` for degenerate parameters.
    pub fn new(base: u8, diameter: usize) -> Option<Self> {
        if base == 0 || diameter == 0 {
            return None;
        }
        Some(DeBruijnGraph { base, diameter })
    }

    /// `d^k` vertices.
    pub fn node_count(&self) -> usize {
        (self.base as usize).pow(self.diameter as u32)
    }

    /// `d^(k+1)` arcs (including self-loops).
    pub fn edge_count(&self) -> usize {
        (self.base as usize).pow(self.diameter as u32 + 1)
    }

    /// The graph degree (out-degree of every vertex).
    pub fn degree(&self) -> u8 {
        self.base
    }

    /// The diameter `k`.
    pub fn diameter(&self) -> usize {
        self.diameter
    }

    /// Iterates every vertex.
    pub fn nodes(&self) -> impl Iterator<Item = DeBruijnId> + '_ {
        let (base, k) = (self.base, self.diameter);
        (0..self.node_count()).map(move |mut index| {
            let mut digits = vec![0u8; k];
            for slot in digits.iter_mut().rev() {
                *slot = (index % base as usize) as u8;
                index /= base as usize;
            }
            DeBruijnId { digits, base }
        })
    }
}

/// For a required network size, the smallest diameter a degree-`d` Kautz
/// graph needs versus a degree-`d` de Bruijn graph. Returns
/// `(kautz_diameter, de_bruijn_diameter)` — the Kautz value is never
/// larger (Proposition 3.1's trade-off).
pub fn diameters_for_size(degree: u8, required_nodes: usize) -> (usize, usize) {
    let kautz = (1..)
        .find(|&k| {
            crate::KautzGraph::new(degree, k)
                .map(|g| g.node_count() >= required_nodes)
                .unwrap_or(false)
        })
        .expect("node count grows without bound");
    let debruijn = (1..)
        .find(|&k| {
            DeBruijnGraph::new(degree, k)
                .map(|g| g.node_count() >= required_nodes)
                .unwrap_or(false)
        })
        .expect("node count grows without bound");
    (kautz, debruijn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn counts_match_the_formulas() {
        for (d, k) in [(2u8, 3usize), (3, 3), (4, 2)] {
            let g = DeBruijnGraph::new(d, k).expect("valid");
            assert_eq!(g.node_count(), (d as usize).pow(k as u32));
            let all: Vec<DeBruijnId> = g.nodes().collect();
            assert_eq!(all.len(), g.node_count());
            let distinct: HashSet<&DeBruijnId> = all.iter().collect();
            assert_eq!(distinct.len(), all.len());
        }
    }

    #[test]
    fn self_loops_exist_unlike_kautz() {
        let v = DeBruijnId::new([1, 1, 1], 2);
        assert!(v.successors().contains(&v), "111 -> 111 is an arc in B(2,3)");
    }

    #[test]
    fn greedy_routing_reaches_every_pair_within_diameter() {
        let g = DeBruijnGraph::new(2, 3).expect("valid");
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let mut at = u.clone();
                let mut hops = 0;
                while at != v {
                    at = at.greedy_next_hop(&v).expect("not at destination");
                    hops += 1;
                    assert!(hops <= g.diameter(), "{u} -> {v} exceeded diameter");
                }
                assert_eq!(hops, u.routing_distance(&v));
            }
        }
    }

    #[test]
    fn kautz_needs_no_larger_diameter_anywhere() {
        // Proposition 3.1's trade-off, exhaustively for small parameters.
        for d in 2..=5u8 {
            for n in [10usize, 50, 100, 500, 1000] {
                let (kautz, debruijn) = diameters_for_size(d, n);
                assert!(
                    kautz <= debruijn,
                    "degree {d}, {n} nodes: Kautz k={kautz} vs de Bruijn k={debruijn}"
                );
            }
        }
    }

    #[test]
    fn kautz_strictly_wins_at_the_boundary() {
        // 9 nodes at degree 2: B(2, k) needs k=4 (16 >= 9), K(2, k) only
        // k=3 (12 >= 9).
        let (kautz, debruijn) = diameters_for_size(2, 9);
        assert_eq!(kautz, 3);
        assert_eq!(debruijn, 4);
    }

    #[test]
    #[should_panic(expected = "digit out of alphabet")]
    fn digit_validation_panics() {
        let _ = DeBruijnId::new([0, 2], 2);
    }
}
