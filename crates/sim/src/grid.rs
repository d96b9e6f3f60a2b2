//! Uniform spatial grid over the deployment area — the cell-list neighbor
//! index behind [`Ctx::physical_neighbors_into`](crate::Ctx::physical_neighbors_into).
//!
//! Every radio operation resolves a neighborhood: broadcast fanout, flood
//! discovery, the baselines' construction passes. A linear scan over the
//! node table makes each of those O(n); the standard fix in network
//! simulators (ns-2's grid channel, cell lists in mobile-network
//! simulation) is a uniform grid of cells. A query of radius `r` around
//! `p` reads only the cells that overlap the square `[p − r, p + r]²`, so
//! it touches O(candidates) nodes instead of O(n), and a mobility tick
//! migrates a node between cells only when it crosses a cell boundary.
//!
//! The cell side is the largest radio range. A query is correct for any
//! radius; the side is what keeps a 100 m sensor's square within about
//! (1 + 200/250)² ≈ 3.2 cells of 250 m and an actuator's within 3×3, and
//! it is also the tiling the sharded engine cuts into shards
//! (`dims()`), so changing it would change sharded runs.
//!
//! The index is *only* an acceleration structure: it answers "which nodes
//! might be in range" and the caller re-applies the exact range predicate.
//! Candidates are visited unsorted (cell order); callers that need the
//! linear scan's ascending-`NodeId` iteration order filter first and sort
//! the survivors — the range predicate is pointwise, so this produces
//! exactly the scan's output and grid-indexed runs stay bit-identical to
//! it (proven by the brute-force audits and the proptest in
//! `crates/sim/tests`, on geometries larger than 3×3 cells).
//!
//! Liveness is deliberately *not* stored here: fault rotation flips
//! `NodeState::faulty` without touching positions, so queries filter dead
//! nodes at lookup time and the grid stays coherent across rotations for
//! free.

use crate::geometry::{Area, Point};
use crate::node::NodeId;

/// Upper bound on grid columns/rows: caps memory when ranges are tiny
/// relative to the area. Enlarging cells beyond the radio range is always
/// safe — a radius query reads whatever cells its square overlaps.
const MAX_CELLS_PER_AXIS: usize = 4096;

/// One node's entry in a cell: its id plus a copy of its position, kept
/// exactly in sync by [`SpatialGrid::relocate`]. Storing the coordinates
/// inline makes the candidate distance check a sequential read over the
/// cell instead of a random access into the node table per candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Member {
    id: u32,
    pos: Point,
}

/// A uniform spatial grid of node indices.
///
/// Invariants:
/// * every node is in exactly one cell, the one containing its position,
///   and its stored coordinates equal its current position;
/// * `cell_w ≥ side` and `cell_h ≥ side` whenever there are at least two
///   columns/rows, where `side` is the maximum usable radio range given at
///   construction — so every node within `side` of a point lies in the
///   3×3 block around the point's cell, which [`SpatialGrid::candidates_into`]
///   relies on (radius queries do not).
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cols: usize,
    rows: usize,
    cell_w: f64,
    cell_h: f64,
    /// Members per cell, row-major, unsorted within a cell.
    cells: Vec<Vec<Member>>,
    /// Node index -> flat cell index, for O(1) migration.
    cell_of: Vec<u32>,
}

impl SpatialGrid {
    /// Builds the grid over `area` with cell side at least `side` (the
    /// maximum usable radio range) and inserts `positions` as nodes
    /// `0..positions.len()`. Walks `positions` twice (count, then fill),
    /// hence `Clone`: buffering a million points instead costs 16 MB.
    pub fn new(area: Area, side: f64, positions: impl Iterator<Item = Point> + Clone) -> Self {
        let axis = |extent: f64| -> usize {
            if side <= 0.0 {
                return 1;
            }
            ((extent / side).floor() as usize).clamp(1, MAX_CELLS_PER_AXIS)
        };
        let cols = axis(area.width);
        let rows = axis(area.height);
        let mut grid = SpatialGrid {
            cols,
            rows,
            cell_w: area.width / cols as f64,
            cell_h: area.height / rows as f64,
            cells: Vec::new(),
            cell_of: Vec::new(),
        };
        // Counting build: size every cell exactly before filling it, so a
        // cell costs one allocation instead of a doubling sequence. Filling
        // in node order keeps the member order of push-as-you-go.
        let mut counts = vec![0usize; cols * rows];
        grid.cell_of = positions
            .clone()
            .map(|p| {
                let cell = grid.cell_index(p);
                counts[cell] += 1;
                cell as u32
            })
            .collect();
        grid.cells = counts.into_iter().map(Vec::with_capacity).collect();
        for (node, (pos, &cell)) in positions.zip(&grid.cell_of).enumerate() {
            grid.cells[cell as usize].push(Member { id: node as u32, pos });
        }
        grid
    }

    /// Number of tracked nodes.
    pub fn len(&self) -> usize {
        self.cell_of.len()
    }

    /// Whether the grid tracks no nodes.
    pub fn is_empty(&self) -> bool {
        self.cell_of.is_empty()
    }

    /// Grid dimensions as `(cols, rows)` — the sharded runner tiles these
    /// cells into shard rectangles.
    pub(crate) fn dims(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// The flat (row-major) cell index currently holding `node`.
    pub(crate) fn cell_of_node(&self, node: NodeId) -> usize {
        self.cell_of[node.index()] as usize
    }

    /// Whether the 3×3 block around a cell covers all or most of the grid
    /// (at most three columns and three rows — at two it is the whole
    /// grid, at three still the lion's share). In those geometries —
    /// radio range large relative to the area — a query visits nearly
    /// every node anyway, so callers fall back to the plain linear scan,
    /// which produces the same result without the cell indirection.
    pub fn block_covers_most(&self) -> bool {
        self.cols <= 3 && self.rows <= 3
    }

    /// Flat cell index of a position.
    ///
    /// Positions are normally clamped to the area by the mobility models,
    /// but the index itself stays total over finite inputs: coordinates
    /// beyond either edge (a position exactly on the far edge maps to
    /// `cols`; buggy callers may hand in negatives or worse) clamp into
    /// the nearest border cell instead of corrupting the cell tables. A
    /// non-finite coordinate has no meaningful cell — that is a caller
    /// bug, caught loudly in debug builds; release builds degrade to
    /// cell 0 on that axis rather than indexing out of bounds.
    #[inline]
    fn cell_index(&self, p: Point) -> usize {
        let (cx, cy) = self.cell_coords(p);
        cy * self.cols + cx
    }

    /// `(column, row)` of the cell holding `p`, hardened as described on
    /// [`SpatialGrid::cell_index`]. Every position→cell mapping (construction,
    /// relocate, both queries' corner cells) funnels through here so they
    /// cannot disagree about edge cases.
    #[inline]
    fn cell_coords(&self, p: Point) -> (usize, usize) {
        debug_assert!(
            p.x.is_finite() && p.y.is_finite(),
            "non-finite position handed to the spatial grid: {p:?}"
        );
        // `max(0.0)` eats both negatives and NaN (max returns the non-NaN
        // operand), and the `usize` cast saturates the +inf/overflow side
        // before `min` clamps to the last cell.
        let cx = ((p.x / self.cell_w).max(0.0) as usize).min(self.cols - 1);
        let cy = ((p.y / self.cell_h).max(0.0) as usize).min(self.rows - 1);
        (cx, cy)
    }

    /// Moves `node` to `p`: its stored coordinates are refreshed in place,
    /// and it migrates between cells only when it crossed a cell boundary.
    pub fn relocate(&mut self, node: NodeId, p: Point) {
        let idx = node.index();
        let old = self.cell_of[idx] as usize;
        let new = self.cell_index(p);
        let members = &mut self.cells[old];
        let at = members
            .iter()
            .position(|m| m.id == node.0)
            .expect("node is in its recorded cell");
        if old == new {
            members[at].pos = p;
            return;
        }
        members.swap_remove(at);
        self.cells[new].push(Member { id: node.0, pos: p });
        self.cell_of[idx] = new as u32;
    }

    /// Appends to `buf` every node in the 3×3 cell block around `p` — a
    /// superset of the nodes within `side` of `p` (and of any smaller
    /// radius). Candidates come in cell order. The engine queries through
    /// [`SpatialGrid::for_each_within`]; this fixed block is what the
    /// benchmark's `sim.grid.*` micro times, its only reader outside tests.
    pub fn candidates_into(&self, p: Point, buf: &mut Vec<NodeId>) {
        let (cx, cy) = self.cell_coords(p);
        let x0 = cx.saturating_sub(1);
        let x1 = (cx + 1).min(self.cols - 1);
        let y0 = cy.saturating_sub(1);
        let y1 = (cy + 1).min(self.rows - 1);
        for y in y0..=y1 {
            let row = y * self.cols;
            for x in x0..=x1 {
                for m in &self.cells[row + x] {
                    buf.push(NodeId(m.id));
                }
            }
        }
    }

    /// Visits every node within distance `r` of `p`, yielding its id and
    /// position, in cell order. Only the cells overlapping the square
    /// `[p − r′, p + r′]²` are read, and only members with
    /// `dx² + dy² ≤ r²·(1 + 1e-9)` are yielded.
    ///
    /// Both bounds are padded by a relative 1e-9, far above the few ulps
    /// by which a rounded `p.x − r` or sum of squares can err, so every
    /// node that [`Point::distance`] puts within `r` is yielded: this is
    /// a conservative prefilter, and the caller re-applies its exact
    /// range predicate to what it gets. Any `r` is correct, including one
    /// larger than the cell side.
    pub fn for_each_within(&self, p: Point, r: f64, mut f: impl FnMut(NodeId, Point)) {
        const PAD: f64 = 1.0 + 1e-9;
        let reach = r * PAD;
        let reach_sq = r * r * PAD;
        let (x0, y0) = self.cell_coords(Point::new(p.x - reach, p.y - reach));
        let (x1, y1) = self.cell_coords(Point::new(p.x + reach, p.y + reach));
        for y in y0..=y1 {
            let row = y * self.cols;
            for x in x0..=x1 {
                for m in &self.cells[row + x] {
                    let (dx, dy) = (m.pos.x - p.x, m.pos.y - p.y);
                    if dx * dx + dy * dy <= reach_sq {
                        f(NodeId(m.id), m.pos);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(mut v: Vec<NodeId>) -> Vec<u32> {
        v.sort_unstable();
        v.into_iter().map(|n| n.0).collect()
    }

    #[test]
    fn covers_all_nodes_within_side_of_a_query_point() {
        let area = Area::new(500.0, 500.0);
        let pts = [
            Point::new(10.0, 10.0),
            Point::new(99.0, 10.0),   // just inside one cell side (100)
            Point::new(150.0, 150.0), // diagonal neighbor cell
            Point::new(400.0, 400.0), // far away
        ];
        let grid = SpatialGrid::new(area, 100.0, pts.iter().copied());
        let mut buf = Vec::new();
        grid.candidates_into(pts[0], &mut buf);
        let got = ids(buf);
        assert!(got.contains(&0) && got.contains(&1) && got.contains(&2));
        assert!(!got.contains(&3), "far node is outside the 3x3 block");
    }

    #[test]
    fn radius_query_covers_radii_beyond_the_cell_side() {
        // 100 m cells on a 1000 m square; radii up to four cell sides
        // and squares that run off every edge.
        let area = Area::new(1000.0, 1000.0);
        let pts: Vec<Point> = (0..400u32)
            .map(|i| {
                let (a, b) = (i.wrapping_mul(2_654_435_761), i.wrapping_mul(40_503));
                Point::new(f64::from(a % 100_001) / 100.0, f64::from(b % 100_001) / 100.0)
            })
            .collect();
        let grid = SpatialGrid::new(area, 100.0, pts.iter().copied());
        for (q, r) in [
            (Point::new(500.0, 500.0), 350.0),
            (Point::new(0.0, 0.0), 250.0),
            (Point::new(1000.0, 430.0), 180.0),
            (Point::new(321.0, 987.0), 99.0),
            (Point::new(-50.0, 1100.0), 400.0),
        ] {
            let mut got = Vec::new();
            grid.for_each_within(q, r, |id, pos| {
                assert_eq!(pos, pts[id.index()], "yielded a stale position");
                got.push(id);
            });
            let got = ids(got);
            let brute: Vec<u32> =
                (0..pts.len() as u32).filter(|&i| q.distance(&pts[i as usize]) <= r).collect();
            // A superset of the exact answer, and only by the prefilter's
            // 1e-9 of slack.
            assert!(brute.iter().all(|i| got.contains(i)), "missed a node within {r} of {q:?}");
            assert!(got.iter().all(|&i| q.distance(&pts[i as usize]) <= r * (1.0 + 1e-9)));
            assert!(!brute.is_empty() && brute.len() < pts.len());
        }
    }

    #[test]
    fn construction_sizes_each_cell_exactly_and_fills_it_in_node_order() {
        let area = Area::new(300.0, 100.0);
        let xs = [250.0, 50.0, 60.0, 260.0, 150.0, 55.0, 270.0];
        let grid = SpatialGrid::new(area, 100.0, xs.iter().map(|&x| Point::new(x, 50.0)));
        let members: Vec<Vec<u32>> =
            grid.cells.iter().map(|c| c.iter().map(|m| m.id).collect()).collect();
        assert_eq!(members, [vec![1, 2, 5], vec![4], vec![0, 3, 6]]);
        assert_eq!(grid.cell_of, [2, 0, 0, 2, 1, 0, 2]);
        for cell in &grid.cells {
            assert_eq!(cell.capacity(), cell.len(), "one exact allocation per cell");
        }
    }

    #[test]
    fn relocate_migrates_only_across_boundaries() {
        let area = Area::new(500.0, 500.0);
        let grid0 = SpatialGrid::new(area, 100.0, [Point::new(50.0, 50.0)].into_iter());
        let mut grid = grid0.clone();
        // Move within the same cell: memberships untouched, only the
        // node's stored coordinates refresh.
        grid.relocate(NodeId(0), Point::new(60.0, 60.0));
        let memberships =
            |g: &SpatialGrid| g.cells.iter().map(|c| c.iter().map(|m| m.id).collect()).collect();
        let (a, b): (Vec<Vec<u32>>, Vec<Vec<u32>>) = (memberships(&grid), memberships(&grid0));
        assert_eq!(a, b);
        assert_eq!(grid.cells[grid.cell_of[0] as usize][0].pos, Point::new(60.0, 60.0));
        // Cross a boundary: the node shows up around its new position and
        // no longer around the old one.
        grid.relocate(NodeId(0), Point::new(450.0, 450.0));
        let mut near_new = Vec::new();
        grid.candidates_into(Point::new(450.0, 450.0), &mut near_new);
        assert_eq!(ids(near_new), vec![0]);
        let mut near_old = Vec::new();
        grid.candidates_into(Point::new(50.0, 50.0), &mut near_old);
        assert!(near_old.is_empty());
    }

    #[test]
    fn degenerate_geometries_fall_back_to_one_cell() {
        // Range larger than the area: a single cell, still correct.
        let area = Area::new(100.0, 100.0);
        let pts = [Point::new(0.0, 0.0), Point::new(100.0, 100.0)];
        let grid = SpatialGrid::new(area, 250.0, pts.iter().copied());
        assert_eq!((grid.cols, grid.rows), (1, 1));
        let mut buf = Vec::new();
        grid.candidates_into(Point::new(0.0, 0.0), &mut buf);
        assert_eq!(ids(buf), vec![0, 1]);
        // Zero side (no radios): also a single cell rather than a panic.
        let grid = SpatialGrid::new(area, 0.0, pts.iter().copied());
        assert_eq!((grid.cols, grid.rows), (1, 1));
    }

    #[test]
    fn tiny_ranges_cap_the_cell_count_and_keep_coverage() {
        let area = Area::new(500.0, 500.0);
        let grid = SpatialGrid::new(area, 1e-6, [Point::new(250.0, 250.0)].into_iter());
        assert!(grid.cols <= MAX_CELLS_PER_AXIS && grid.rows <= MAX_CELLS_PER_AXIS);
        // Cell side stayed >= the construction side, so 3x3 still covers.
        assert!(grid.cell_w >= 1e-6 && grid.cell_h >= 1e-6);
        let mut buf = Vec::new();
        grid.candidates_into(Point::new(250.0, 250.0), &mut buf);
        assert_eq!(ids(buf), vec![0]);
    }

    #[test]
    fn block_coverage_detects_degenerate_geometries() {
        let area = Area::new(500.0, 500.0);
        // 250 m cells on a 500 m square: 2x2, the block prunes nothing.
        let grid = SpatialGrid::new(area, 250.0, std::iter::empty());
        assert!(grid.block_covers_most());
        // ~166 m cells: 3x3, the block still covers the lion's share.
        let grid = SpatialGrid::new(area, 160.0, std::iter::empty());
        assert!(grid.block_covers_most());
        // 100 m cells: 5x5, pruning is real.
        let grid = SpatialGrid::new(area, 100.0, std::iter::empty());
        assert!(!grid.block_covers_most());
    }

    #[test]
    fn far_edge_positions_stay_in_the_last_cell() {
        let area = Area::new(500.0, 500.0);
        let mut grid =
            SpatialGrid::new(area, 100.0, [Point::new(500.0, 500.0)].into_iter());
        let mut buf = Vec::new();
        grid.candidates_into(Point::new(500.0, 500.0), &mut buf);
        assert_eq!(ids(buf), vec![0]);
        grid.relocate(NodeId(0), Point::new(0.0, 500.0));
        let mut buf = Vec::new();
        grid.candidates_into(Point::new(0.0, 499.0), &mut buf);
        assert_eq!(ids(buf), vec![0]);
    }
}
