//! The Kautz digraph `K(d, k)` as a whole: enumeration, counting and
//! structural properties (Section III-A of the paper).

use crate::id::KautzId;

/// A handle describing the Kautz digraph `K(d, k)` with degree `d >= 1` and
/// diameter `k >= 1`.
///
/// The graph is never materialized; vertices are enumerated on demand from
/// the mixed-radix index space (see [`KautzId::to_index`]).
///
/// # Examples
///
/// ```
/// # use kautz::KautzGraph;
/// let g = KautzGraph::new(2, 3).expect("valid parameters");
/// assert_eq!(g.node_count(), 12);
/// assert_eq!(g.edge_count(), 24);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KautzGraph {
    degree: u8,
    diameter: usize,
}

impl KautzGraph {
    /// Creates a graph handle, or `None` for degenerate parameters
    /// (`d == 0` or `k == 0`) and for a diameter no [`KautzId`] can label
    /// (`k >` [`KautzId::MAX_K`]).
    pub fn new(degree: u8, diameter: usize) -> Option<Self> {
        if degree == 0 || diameter == 0 || diameter > KautzId::MAX_K {
            return None;
        }
        Some(KautzGraph { degree, diameter })
    }

    /// The degree `d`: every vertex has exactly `d` out-neighbors and `d`
    /// in-neighbors.
    #[inline]
    pub fn degree(&self) -> u8 {
        self.degree
    }

    /// The diameter `k`: the maximum routing distance between any two
    /// vertices.
    #[inline]
    pub fn diameter(&self) -> usize {
        self.diameter
    }

    /// `N(G) = (d + 1) * d^(k-1)`, the vertex count (Lemma 3.1).
    pub fn node_count(&self) -> usize {
        let d = self.degree as usize;
        (d + 1) * d.pow((self.diameter - 1) as u32)
    }

    /// `E(G) = (d + 1) * d^k`, the arc count (Lemma 3.1).
    pub fn edge_count(&self) -> usize {
        let d = self.degree as usize;
        (d + 1) * d.pow(self.diameter as u32)
    }

    /// The Moore bound `1 + d + d^2 + ... + d^k` on the number of vertices of
    /// any digraph with max out-degree `d` and diameter `k`. Kautz graphs
    /// approach this bound as `k` decreases, which is why the paper picks a
    /// small `k` per cell (Section III-B).
    pub fn moore_bound(&self) -> usize {
        let d = self.degree as usize;
        (0..=self.diameter as u32).map(|i| d.pow(i)).sum()
    }

    /// Whether `id` labels a vertex of this graph.
    pub fn contains(&self, id: &KautzId) -> bool {
        id.degree() == self.degree && id.k() == self.diameter
    }

    /// Iterates over every vertex of the graph in index order.
    ///
    /// # Examples
    ///
    /// ```
    /// # use kautz::KautzGraph;
    /// let g = KautzGraph::new(2, 2).expect("valid parameters");
    /// let labels: Vec<String> = g.nodes().map(|v| v.to_string()).collect();
    /// assert_eq!(labels.len(), 6);
    /// assert!(labels.contains(&"01".to_string()));
    /// ```
    pub fn nodes(&self) -> Nodes {
        Nodes { graph: *self, next: 0, count: self.node_count() }
    }

    /// Iterates over every arc `(u, v)` of the digraph.
    pub fn arcs(&self) -> impl Iterator<Item = (KautzId, KautzId)> + '_ {
        self.nodes()
            .flat_map(|u| u.successors().into_iter().map(move |v| (u, v)))
    }

    /// Computes the graph's true diameter by exhaustive BFS from every
    /// vertex (expensive; intended for tests and small graphs). For a
    /// valid Kautz graph this equals `diameter()` — the label length `k`.
    pub fn measured_diameter(&self) -> usize {
        use std::collections::VecDeque;
        let n = self.node_count();
        let mut worst = 0;
        for source in self.nodes() {
            let mut dist = vec![usize::MAX; n];
            dist[source.to_index()] = 0;
            let mut queue = VecDeque::from([source]);
            while let Some(u) = queue.pop_front() {
                let du = dist[u.to_index()];
                for v in u.successors() {
                    if dist[v.to_index()] == usize::MAX {
                        dist[v.to_index()] = du + 1;
                        worst = worst.max(du + 1);
                        queue.push_back(v);
                    }
                }
            }
            debug_assert!(
                dist.iter().all(|&d| d != usize::MAX),
                "Kautz graphs are strongly connected"
            );
        }
        worst
    }

}

/// Iterator over the vertices of a [`KautzGraph`], produced by
/// [`KautzGraph::nodes`].
#[derive(Debug, Clone)]
pub struct Nodes {
    graph: KautzGraph,
    next: usize,
    count: usize,
}

impl Iterator for Nodes {
    type Item = KautzId;

    fn next(&mut self) -> Option<KautzId> {
        if self.next >= self.count {
            return None;
        }
        let id = KautzId::from_index(self.next, self.graph.degree, self.graph.diameter);
        self.next += 1;
        Some(id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.count - self.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Nodes {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_parameters() {
        assert!(KautzGraph::new(0, 3).is_none());
        assert!(KautzGraph::new(2, 0).is_none());
        assert!(KautzGraph::new(2, KautzId::MAX_K).is_some());
        assert!(KautzGraph::new(2, KautzId::MAX_K + 1).is_none());
    }

    #[test]
    fn node_and_edge_counts_match_lemma() {
        // Lemma 3.1: N = (d+1)d^{k-1}, E = (d+1)d^k.
        let cases = [(2u8, 3usize, 12, 24), (2, 2, 6, 12), (3, 3, 36, 108), (4, 4, 320, 1280)];
        for (d, k, n, e) in cases {
            let g = KautzGraph::new(d, k).expect("valid");
            assert_eq!(g.node_count(), n, "K({d},{k}) nodes");
            assert_eq!(g.edge_count(), e, "K({d},{k}) edges");
            // |E| = N * delta_min: every vertex has out-degree exactly d.
            assert_eq!(g.edge_count(), g.node_count() * d as usize);
        }
    }

    /// The smallest diameter at which a family of size `count(k)` holds
    /// `required` vertices.
    fn diameter_for(required: usize, count: impl Fn(usize) -> usize) -> usize {
        (1..).find(|&k| count(k) >= required).expect("sizes grow without bound")
    }

    /// The smallest `(Kautz, de Bruijn)` diameters that hold `n` vertices at
    /// degree `d`.
    fn diameters_for_size(d: u8, n: usize) -> (usize, usize) {
        let kautz = diameter_for(n, |k| KautzGraph::new(d, k).expect("valid").node_count());
        let debruijn = diameter_for(n, |k| (d as usize).pow(k as u32));
        (kautz, debruijn)
    }

    #[test]
    fn kautz_beats_de_bruijn_at_equal_parameters() {
        // Proposition 3.1: K(d,k) has (d+1)d^(k-1) > d^k = |B(d,k)| vertices,
        // a strictly better degree/diameter trade-off than de Bruijn's.
        for d in 1..=5u8 {
            for k in 1..=5usize {
                let kautz = KautzGraph::new(d, k).expect("valid").node_count();
                let debruijn = (d as usize).pow(k as u32);
                assert!(kautz > debruijn, "K({d},{k})={kautz} vs B={debruijn}");
            }
        }
    }

    #[test]
    fn kautz_needs_no_larger_diameter_anywhere() {
        // The same trade-off at equal size: the smallest Kautz diameter
        // holding n vertices never exceeds the smallest de Bruijn one.
        for d in 2..=5u8 {
            for n in [10usize, 50, 100, 500, 1000] {
                let (kautz, debruijn) = diameters_for_size(d, n);
                assert!(kautz <= debruijn, "degree {d}, {n} nodes: {kautz} vs {debruijn}");
            }
        }
    }

    #[test]
    fn kautz_strictly_wins_at_the_boundary() {
        // 9 nodes at degree 2: B(2, k) needs k = 4 (16 >= 9), K(2, k) only
        // k = 3 (12 >= 9).
        assert_eq!(diameters_for_size(2, 9), (3, 4));
    }

    #[test]
    fn kautz_beats_hypercube_diameter() {
        // A hypercube with 2^k nodes has degree and diameter k; a Kautz
        // graph with at least as many nodes and the same degree has a
        // smaller diameter for k >= 4.
        for k in 4..=8usize {
            let diameter =
                diameter_for(1 << k, |m| KautzGraph::new(k as u8, m).expect("valid").node_count());
            assert!(diameter < k, "Kautz diameter {diameter} vs hypercube {k}");
        }
    }

    #[test]
    fn enumeration_is_exhaustive_and_valid() {
        let g = KautzGraph::new(3, 3).expect("valid");
        let all: Vec<KautzId> = g.nodes().collect();
        assert_eq!(all.len(), g.node_count());
        let distinct: std::collections::HashSet<&KautzId> = all.iter().collect();
        assert_eq!(distinct.len(), all.len(), "no duplicate vertices");
        for v in &all {
            assert!(g.contains(v));
        }
    }

    #[test]
    fn arcs_match_successor_relation() {
        let g = KautzGraph::new(2, 3).expect("valid");
        let arcs: Vec<_> = g.arcs().collect();
        assert_eq!(arcs.len(), g.edge_count());
        for (u, v) in arcs {
            assert!(u.is_arc_to(&v));
        }
    }

    #[test]
    fn every_vertex_has_degree_d_in_and_out() {
        let g = KautzGraph::new(3, 2).expect("valid");
        for v in g.nodes() {
            assert_eq!(v.successors().len(), 3);
            assert_eq!(v.predecessors().len(), 3);
        }
    }

    #[test]
    fn moore_bound_dominates_node_count() {
        for d in 2..=4u8 {
            for k in 1..=4usize {
                let g = KautzGraph::new(d, k).expect("valid");
                assert!(g.node_count() <= g.moore_bound());
            }
        }
    }

    #[test]
    fn declared_diameter_is_the_true_diameter() {
        // The routing-distance formula k - L(U, V) promises eccentricity
        // exactly k; check it against exhaustive BFS.
        for (d, k) in [(2u8, 2usize), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3)] {
            let g = KautzGraph::new(d, k).expect("valid");
            assert_eq!(g.measured_diameter(), k, "K({d},{k})");
        }
    }
}
