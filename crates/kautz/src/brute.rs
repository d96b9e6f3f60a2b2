//! Brute-force reference algorithms used to *verify* the ID-only results of
//! Theorem 3.8, and the DFTR-style route-generation comparator.
//!
//! REFER's claimed advantage over DFTR \[21\] / BAKE \[18\] is that those systems
//! must run a route-generation algorithm ("equivalent to the process of
//! building a tree") to discover alternative paths and their lengths, while
//! REFER reads them off the node IDs. [`RouteGenerator`] implements that
//! expensive comparator faithfully — breadth-first exploration with node
//! exclusion — both for correctness cross-checks and for the ablation bench
//! that reproduces the paper's energy argument computationally.

use crate::graph::KautzGraph;
use crate::id::KautzId;
use std::collections::{HashSet, VecDeque};

/// Breadth-first shortest path from `u` to `v` avoiding `excluded` vertices
/// (neither endpoint may be excluded). Returns the inclusive vertex sequence,
/// or `None` when `v` is unreachable.
pub fn bfs_shortest_path(
    graph: &KautzGraph,
    u: &KautzId,
    v: &KautzId,
    excluded: &HashSet<KautzId>,
) -> Option<Vec<KautzId>> {
    assert!(graph.contains(u) && graph.contains(v), "endpoints must be in the graph");
    if u == v {
        return Some(vec![*u]);
    }
    let n = graph.node_count();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    seen[u.to_index()] = true;
    queue.push_back(*u);
    while let Some(cur) = queue.pop_front() {
        for next in cur.successors() {
            let idx = next.to_index();
            if seen[idx] || excluded.contains(&next) {
                continue;
            }
            seen[idx] = true;
            parent[idx] = Some(cur.to_index());
            if &next == v {
                // Reconstruct.
                let mut path = vec![*v];
                let mut at = v.to_index();
                while let Some(p) = parent[at] {
                    path.push(KautzId::from_index(p, graph.degree(), graph.diameter()));
                    at = p;
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(next);
        }
    }
    None
}

/// The exhaustive route generator used by DFTR-style protocols: finds up to
/// `d` internally-vertex-disjoint `u -> v` paths by repeated breadth-first
/// searches, excluding the interior vertices of already-found paths.
///
/// This is the "energy-consuming routing generation algorithm" the paper
/// contrasts against Theorem 3.8; it visits `O(d * E)` arcs, where the
/// ID-only planner does `O(d * k)` digit work.
#[derive(Debug, Clone, Default)]
pub struct RouteGenerator {
    /// Number of vertices dequeued across all searches (a proxy for the
    /// messages/energy a distributed tree construction would spend).
    pub vertices_visited: usize,
}

impl RouteGenerator {
    /// Creates a fresh generator with zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds up to `d` internally-vertex-disjoint paths from `u` to `v`,
    /// shortest first. Interior vertices of each discovered path are removed
    /// before searching for the next.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is not a vertex of `graph`.
    pub fn disjoint_paths(
        &mut self,
        graph: &KautzGraph,
        u: &KautzId,
        v: &KautzId,
    ) -> Vec<Vec<KautzId>> {
        assert!(graph.contains(u) && graph.contains(v), "endpoints must be in the graph");
        let mut excluded: HashSet<KautzId> = HashSet::new();
        let mut paths = Vec::new();
        for _ in 0..graph.degree() {
            match self.bfs_counting(graph, u, v, &excluded) {
                Some(path) => {
                    for interior in &path[1..path.len().saturating_sub(1)] {
                        excluded.insert(*interior);
                    }
                    paths.push(path);
                }
                None => break,
            }
        }
        paths
    }

    fn bfs_counting(
        &mut self,
        graph: &KautzGraph,
        u: &KautzId,
        v: &KautzId,
        excluded: &HashSet<KautzId>,
    ) -> Option<Vec<KautzId>> {
        // Same as `bfs_shortest_path` but metering dequeues so benches can
        // compare the work against the ID-only planner.
        if u == v {
            return Some(vec![*u]);
        }
        let n = graph.node_count();
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        seen[u.to_index()] = true;
        queue.push_back(*u);
        while let Some(cur) = queue.pop_front() {
            self.vertices_visited += 1;
            for next in cur.successors() {
                let idx = next.to_index();
                if seen[idx] || excluded.contains(&next) {
                    continue;
                }
                seen[idx] = true;
                parent[idx] = Some(cur.to_index());
                if &next == v {
                    let mut path = vec![*v];
                    let mut at = v.to_index();
                    while let Some(p) = parent[at] {
                        path.push(KautzId::from_index(p, graph.degree(), graph.diameter()));
                        at = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(next);
            }
        }
        None
    }
}

/// Checks that a family of paths sharing endpoints `u`/`v` is internally
/// vertex-disjoint: no interior vertex appears on two paths, and no interior
/// vertex equals an endpoint.
pub fn internally_disjoint(paths: &[Vec<KautzId>]) -> bool {
    let mut seen: HashSet<&KautzId> = HashSet::new();
    for path in paths {
        if path.len() < 2 {
            return false;
        }
        for interior in &path[1..path.len() - 1] {
            if interior == &path[0] || interior == path.last().expect("non-empty") {
                return false;
            }
            if !seen.insert(interior) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::greedy_path;

    fn id(s: &str, d: u8) -> KautzId {
        KautzId::parse(s, d).expect("valid id in test")
    }

    #[test]
    fn bfs_matches_greedy_shortest_length() {
        let g = KautzGraph::new(2, 3).expect("valid");
        let empty = HashSet::new();
        for u in g.nodes() {
            for v in g.nodes() {
                if u == v {
                    continue;
                }
                let bfs = bfs_shortest_path(&g, &u, &v, &empty).expect("strongly connected");
                let greedy = greedy_path(&u, &v).expect("routable");
                assert_eq!(bfs.len(), greedy.len(), "{u} -> {v}");
            }
        }
    }

    #[test]
    fn bfs_respects_exclusions() {
        let g = KautzGraph::new(4, 4).expect("valid");
        let u = id("0123", 4);
        let v = id("2301", 4);
        let mut excluded = HashSet::new();
        excluded.insert(id("1230", 4)); // kill the shortest path relay
        let path = bfs_shortest_path(&g, &u, &v, &excluded).expect("still connected");
        assert!(!path.contains(&id("1230", 4)));
        assert!(path.len() > 3, "detour is longer than the 2-hop shortest path");
    }

    #[test]
    fn route_generator_finds_d_disjoint_paths() {
        let g = KautzGraph::new(4, 4).expect("valid");
        let u = id("0123", 4);
        let v = id("2301", 4);
        let mut generator = RouteGenerator::new();
        let paths = generator.disjoint_paths(&g, &u, &v);
        assert_eq!(paths.len(), 4, "K(4,4) has 4 disjoint paths between any pair");
        assert!(internally_disjoint(&paths));
        assert!(generator.vertices_visited > 0);
    }

    #[test]
    fn route_generator_visits_many_vertices() {
        // The point of Theorem 3.8: the generator's work scales with the
        // graph, not with k.
        let g = KautzGraph::new(3, 4).expect("valid");
        let u = id("0121", 3);
        let v = id("2320", 3);
        let mut generator = RouteGenerator::new();
        let paths = generator.disjoint_paths(&g, &u, &v);
        assert!(!paths.is_empty());
        assert!(
            generator.vertices_visited > g.diameter() * g.degree() as usize,
            "visited {} vertices",
            generator.vertices_visited
        );
    }

    #[test]
    fn internally_disjoint_detects_sharing() {
        let a = vec![id("012", 2), id("121", 2), id("210", 2)];
        let b = vec![id("012", 2), id("121", 2), id("212", 2)];
        assert!(!internally_disjoint(&[a.clone(), b]));
        assert!(internally_disjoint(&[a]));
    }
}
