//! Cell formation (Section III-B1): the starting server partitions the
//! actuator topology into triangles, assigns CIDs, and colors actuators
//! with the three corner KIDs.
//!
//! These are the *local computations* the elected starting server performs
//! after learning the global actuator topology; the message exchange that
//! feeds and distributes them lives in [`crate::protocol`].

use crate::addr::{consistent_hash, CellId};
use kautz::KautzId;
use wsan_sim::{NodeId, Point};

/// The three corner KIDs of a `K(d, 3)` cell, in rotation order
/// `012 -> 120 -> 201 -> 012` (each actuator's *successor actuator* carries
/// its left rotation).
pub fn corner_kids(degree: u8) -> [KautzId; 3] {
    [
        KautzId::new([0, 1, 2], degree).expect("012 valid for d >= 2"),
        KautzId::new([1, 2, 0], degree).expect("120 valid for d >= 2"),
        KautzId::new([2, 0, 1], degree).expect("201 valid for d >= 2"),
    ]
}

/// The index of the nearest of a cell's corner actuators, given each one's
/// `distance`; the first corner wins a tie.
pub fn nearest_corner(corners: &[NodeId; 3], distance: impl Fn(NodeId) -> f64) -> usize {
    let d = corners.map(distance);
    (1..3).fold(0, |best, c| if d[c].total_cmp(&d[best]).is_lt() { c } else { best })
}

/// One planned cell: a triangle of mutually-adjacent actuators.
#[derive(Debug, Clone)]
pub struct CellPlan {
    /// The assigned cell id.
    pub cid: CellId,
    /// The three corner actuators (indices into the actuator list), ordered
    /// by their corner KID: `[owner of 012, owner of 120, owner of 201]`.
    pub corners: [usize; 3],
    /// The triangle centroid (used for CID ordering and for locating the
    /// cell's sensors).
    pub centroid: Point,
}

/// The full output of the starting server's partitioning step.
#[derive(Debug, Clone)]
pub struct CellLayout {
    /// All planned cells, indexed by `CellId`.
    pub cells: Vec<CellPlan>,
    /// Per-actuator color in `0..=2` mapping to `corner_kids()[color]`;
    /// `None` for actuators in no triangle.
    pub colors: Vec<Option<u8>>,
    /// The index of the starting server (minimum consistent hash).
    pub starting_server: usize,
}

/// Builds the actuator adjacency graph: two actuators are neighbors when
/// within `range` of each other.
pub fn actuator_adjacency(positions: &[Point], range: f64) -> Vec<Vec<usize>> {
    let n = positions.len();
    let mut adj = vec![Vec::new(); n];
    for i in 0..n {
        for j in i + 1..n {
            if positions[i].distance(&positions[j]) <= range {
                adj[i].push(j);
                adj[j].push(i);
            }
        }
    }
    adj
}

/// Sequential vertex coloring ("a node is assigned with the smallest color
/// number not used by its neighbors", Section III-B1). Nodes are processed
/// in hash order starting from the starting server, mirroring the paper's
/// deterministic assignment.
pub fn sequential_coloring(adjacency: &[Vec<usize>], order: &[usize]) -> Vec<u8> {
    let mut colors = vec![u8::MAX; adjacency.len()];
    for &v in order {
        let mut used = [false; 64];
        for &n in &adjacency[v] {
            let c = colors[n];
            if c != u8::MAX {
                used[c as usize] = true;
            }
        }
        colors[v] = (0..64).find(|&c| !used[c as usize]).expect("fewer than 64 colors") as u8;
    }
    colors
}

/// Enumerates all triangles (triples of mutually-adjacent actuators).
pub fn triangles(adjacency: &[Vec<usize>]) -> Vec<[usize; 3]> {
    let n = adjacency.len();
    let mut result = Vec::new();
    for a in 0..n {
        for &b in &adjacency[a] {
            if b <= a {
                continue;
            }
            for &c in &adjacency[b] {
                if c <= b || !adjacency[a].contains(&c) {
                    continue;
                }
                result.push([a, b, c]);
            }
        }
    }
    result
}

/// Runs the starting server's full partitioning: elect the server by
/// minimum consistent hash, enumerate triangles, order them by centroid
/// (row-major, so nearby cells get nearby CIDs), and color the actuators.
///
/// Returns `None` when the actuator topology has no triangle (too sparse to
/// form a cell) or when 3 colors do not suffice (the coloring cannot map
/// onto the three corner KIDs — the deployment violates the paper's
/// assumption of triangulated actuators).
pub fn plan_cells(ids: &[u64], positions: &[Point], range: f64) -> Option<CellLayout> {
    assert_eq!(ids.len(), positions.len(), "one id per position");
    if ids.is_empty() {
        return None;
    }
    let adjacency = actuator_adjacency(positions, range);
    let tris = triangles(&adjacency);
    if tris.is_empty() {
        return None;
    }
    let starting_server = (0..ids.len())
        .min_by_key(|&i| consistent_hash(ids[i]))
        .expect("non-empty");

    // Color in ascending hash order starting from the starting server.
    let mut order: Vec<usize> = (0..ids.len()).collect();
    order.sort_by_key(|&i| consistent_hash(ids[i]));
    let colors = sequential_coloring(&adjacency, &order);
    if colors.iter().any(|&c| c > 2) {
        return None;
    }

    // Order triangles row-major by centroid for CID locality.
    let mut tris: Vec<([usize; 3], Point)> = tris
        .into_iter()
        .map(|t| {
            let c = wsan_sim::centroid(&[positions[t[0]], positions[t[1]], positions[t[2]]]);
            (t, c)
        })
        .collect();
    tris.sort_by(|(_, a), (_, b)| a.y.total_cmp(&b.y).then(a.x.total_cmp(&b.x)));

    let cells: Vec<CellPlan> = tris
        .into_iter()
        .enumerate()
        .map(|(i, (t, centroid))| {
            // Order corners by color so corners[c] owns corner_kids()[c].
            let mut corners = t;
            corners.sort_by_key(|&v| colors[v]);
            CellPlan { cid: CellId(i as u32), corners, centroid }
        })
        .collect();

    let mut participates = vec![false; ids.len()];
    for cell in &cells {
        for &corner in &cell.corners {
            participates[corner] = true;
        }
    }
    let colors = colors
        .into_iter()
        .zip(&participates)
        .map(|(c, &in_cell)| in_cell.then_some(c))
        .collect();
    Some(CellLayout { cells, colors, starting_server })
}

/// The paper's quincunx scenario helper: positions of 5 actuators over a
/// `width x height` area (four quarter points and the center).
pub fn quincunx(width: f64, height: f64) -> Vec<Point> {
    vec![
        Point::new(0.25 * width, 0.25 * height),
        Point::new(0.75 * width, 0.25 * height),
        Point::new(0.25 * width, 0.75 * height),
        Point::new(0.75 * width, 0.75 * height),
        Point::new(0.50 * width, 0.50 * height),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_layout() -> CellLayout {
        let positions = quincunx(500.0, 500.0);
        let ids: Vec<u64> = (0..5).collect();
        plan_cells(&ids, &positions, 250.0).expect("the paper scenario forms cells")
    }

    #[test]
    fn quincunx_forms_four_cells() {
        let layout = paper_layout();
        assert_eq!(layout.cells.len(), 4, "4 Kautz cells as in Section IV");
    }

    #[test]
    fn every_cell_has_three_distinct_corner_kids() {
        let layout = paper_layout();
        for cell in &layout.cells {
            let kids: Vec<u8> = cell
                .corners
                .iter()
                .map(|&i| layout.colors[i].expect("corner is colored"))
                .collect();
            assert_eq!(kids, vec![0, 1, 2], "corners sorted by color");
        }
    }

    #[test]
    fn actuator_kid_is_global() {
        // An actuator in several cells keeps one KID everywhere.
        let layout = paper_layout();
        let center = 4; // the center actuator joins all four cells
        let cells = layout.cells.iter().filter(|c| c.corners.contains(&center)).count();
        assert_eq!(cells, 4);
        assert!(layout.colors[center].is_some(), "one color, so one corner KID");
    }

    #[test]
    fn cids_are_row_major_ordered() {
        let layout = paper_layout();
        let centroids: Vec<Point> = layout.cells.iter().map(|c| c.centroid).collect();
        for w in centroids.windows(2) {
            assert!(
                (w[0].y, w[0].x) <= (w[1].y, w[1].x),
                "cells ordered by (y, x): {w:?}"
            );
        }
    }

    #[test]
    fn starting_server_minimizes_hash() {
        let layout = paper_layout();
        let ids: Vec<u64> = (0..5).collect();
        let expect = (0..5usize)
            .min_by_key(|&i| consistent_hash(ids[i]))
            .expect("non-empty");
        assert_eq!(layout.starting_server, expect);
    }

    #[test]
    fn sparse_actuators_form_no_cells() {
        let positions =
            vec![Point::new(0.0, 0.0), Point::new(400.0, 0.0), Point::new(800.0, 0.0)];
        assert!(plan_cells(&[1, 2, 3], &positions, 250.0).is_none());
    }

    #[test]
    fn triangle_enumeration_counts() {
        // Complete graph on 4 vertices has 4 triangles.
        let positions = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
            Point::new(10.0, 10.0),
        ];
        let adj = actuator_adjacency(&positions, 100.0);
        assert_eq!(triangles(&adj).len(), 4);
    }

    #[test]
    fn coloring_respects_adjacency() {
        let positions = quincunx(500.0, 500.0);
        let adj = actuator_adjacency(&positions, 250.0);
        let order: Vec<usize> = (0..5).collect();
        let colors = sequential_coloring(&adj, &order);
        for (v, ns) in adj.iter().enumerate() {
            for &n in ns {
                assert_ne!(colors[v], colors[n], "neighbors {v} and {n} share color");
            }
        }
        assert!(colors.iter().all(|&c| c <= 2), "3 colors suffice: {colors:?}");
    }
}
