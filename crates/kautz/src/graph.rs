//! The Kautz digraph `K(d, k)` as a whole: enumeration, counting, structural
//! properties (Section III-A of the paper) and Hamiltonian cycles.

use crate::id::KautzId;
use std::collections::HashSet;

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

    /// Whether `|E(G)| = N(G) * delta_min(G)` — the equality that Lemma 3.1
    /// uses to show `K(d, k)` solves the graph connection optimization
    /// problem with minimum connectivity `d`.
    pub fn satisfies_euler_degree_sum_equality(&self) -> bool {
        self.edge_count() == self.node_count() * self.degree as usize
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

    /// Computes a Hamiltonian cycle of this graph: a closed walk visiting
    /// every vertex exactly once (Section III-A relies on Kautz graphs being
    /// Hamiltonian to embed them onto a physical cycle of nodes).
    ///
    /// For `k >= 2` the cycle is obtained from an Eulerian circuit of
    /// `K(d, k-1)` — `K(d, k)` is the line digraph of `K(d, k-1)`, so each
    /// arc of the smaller graph is a vertex of the larger one. For `k == 1`
    /// (the complete digraph on `d + 1` vertices) the rotation
    /// `0, 1, ..., d` is returned.
    ///
    /// The returned vector lists each vertex once; the cycle closes from the
    /// last vertex back to the first.
    pub fn hamiltonian_cycle(&self) -> Vec<KautzId> {
        if self.diameter == 1 {
            return (0..=self.degree)
                .map(|digit| KautzId::new([digit], self.degree).expect("single digit"))
                .collect();
        }
        let base = KautzGraph::new(self.degree, self.diameter - 1)
            .expect("diameter >= 2 so base graph is valid");
        let circuit = base.eulerian_circuit();
        debug_assert_eq!(circuit.len(), base.edge_count() + 1);
        // Each consecutive pair of base vertices (w_i, w_{i+1}) is an arc of
        // K(d, k-1); overlapping the words by k-1 digits yields the K(d, k)
        // vertex that arc corresponds to.
        let mut cycle = Vec::with_capacity(self.node_count());
        for pair in circuit.windows(2) {
            let (u, v) = (&pair[0], &pair[1]);
            let mut digits = Vec::with_capacity(self.diameter);
            digits.extend_from_slice(u.digits());
            digits.push(v.last());
            cycle.push(
                KautzId::new(digits, self.degree)
                    .expect("arc of K(d, k-1) concatenates to a K(d, k) vertex"),
            );
        }
        cycle
    }

    /// Computes an Eulerian circuit via Hierholzer's algorithm. Every Kautz
    /// digraph is Eulerian: it is strongly connected with in-degree equal to
    /// out-degree (`d`) at every vertex.
    ///
    /// The returned walk starts and ends at the same vertex and traverses
    /// every arc exactly once, so its length is `edge_count() + 1`.
    pub fn eulerian_circuit(&self) -> Vec<KautzId> {
        let start = self.nodes().next().expect("graph is non-empty");
        // Remaining out-arcs per vertex, keyed by index.
        let mut next_arc: Vec<Vec<KautzId>> = self
            .nodes()
            .map(|u| {
                let mut succ = u.successors();
                succ.reverse(); // pop() then yields increasing digit order
                succ
            })
            .collect();
        let mut stack = vec![start];
        let mut circuit = Vec::with_capacity(self.edge_count() + 1);
        while let Some(top) = stack.last().cloned() {
            if let Some(next) = next_arc[top.to_index()].pop() {
                stack.push(next);
            } else {
                circuit.push(top);
                stack.pop();
            }
        }
        circuit.reverse();
        circuit
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

    /// Verifies that `cycle` is a Hamiltonian cycle of this graph: it has
    /// exactly `node_count()` distinct vertices, consecutive vertices are
    /// joined by arcs, and the last vertex has an arc back to the first.
    pub fn is_hamiltonian_cycle(&self, cycle: &[KautzId]) -> bool {
        if cycle.len() != self.node_count() {
            return false;
        }
        let distinct: HashSet<&KautzId> = cycle.iter().collect();
        if distinct.len() != cycle.len() || !cycle.iter().all(|v| self.contains(v)) {
            return false;
        }
        let closed = cycle
            .last()
            .map(|last| last.is_arc_to(&cycle[0]))
            .unwrap_or(false);
        closed && cycle.windows(2).all(|w| w[0].is_arc_to(&w[1]))
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
            assert!(g.satisfies_euler_degree_sum_equality());
        }
    }

    #[test]
    fn enumeration_is_exhaustive_and_valid() {
        let g = KautzGraph::new(3, 3).expect("valid");
        let all: Vec<KautzId> = g.nodes().collect();
        assert_eq!(all.len(), g.node_count());
        let distinct: HashSet<&KautzId> = all.iter().collect();
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
    fn eulerian_circuit_covers_every_arc_once() {
        let g = KautzGraph::new(2, 2).expect("valid");
        let circuit = g.eulerian_circuit();
        assert_eq!(circuit.len(), g.edge_count() + 1);
        assert_eq!(circuit.first(), circuit.last());
        let mut seen = HashSet::new();
        for w in circuit.windows(2) {
            assert!(w[0].is_arc_to(&w[1]), "walk follows arcs");
            assert!(seen.insert((w[0], w[1])), "arc repeated");
        }
        assert_eq!(seen.len(), g.edge_count());
    }

    #[test]
    fn hamiltonian_cycle_in_k23() {
        let g = KautzGraph::new(2, 3).expect("valid");
        let cycle = g.hamiltonian_cycle();
        assert!(g.is_hamiltonian_cycle(&cycle), "cycle: {cycle:?}");
    }

    #[test]
    fn hamiltonian_cycle_across_parameters() {
        for (d, k) in [(2u8, 2usize), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3)] {
            let g = KautzGraph::new(d, k).expect("valid");
            let cycle = g.hamiltonian_cycle();
            assert!(g.is_hamiltonian_cycle(&cycle), "K({d},{k})");
        }
    }

    #[test]
    fn hamiltonian_cycle_for_diameter_one() {
        let g = KautzGraph::new(3, 1).expect("valid");
        let cycle = g.hamiltonian_cycle();
        assert!(g.is_hamiltonian_cycle(&cycle));
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

    #[test]
    fn is_hamiltonian_cycle_rejects_bad_walks() {
        let g = KautzGraph::new(2, 3).expect("valid");
        let mut cycle = g.hamiltonian_cycle();
        assert!(g.is_hamiltonian_cycle(&cycle));
        cycle.swap(0, 1);
        assert!(!g.is_hamiltonian_cycle(&cycle), "swap breaks arc sequence");
        let short: Vec<_> = g.hamiltonian_cycle().into_iter().take(5).collect();
        assert!(!g.is_hamiltonian_cycle(&short));
    }
}
