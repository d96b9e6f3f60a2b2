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
//! The members live in one cell-sorted array (compressed sparse rows), so
//! a row of cells is one contiguous slice, building costs three
//! allocations whatever the cell count, and moving a node never allocates.
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

/// A uniform spatial grid of node indices, stored as one array of members
/// sorted by cell: cell `c` holds `members[starts[c]..starts[c + 1]]`.
///
/// Invariants:
/// * every node is in exactly one cell, the one containing its position,
///   and its stored coordinates equal its current position;
/// * `starts` is nondecreasing, starts at 0 and ends at the node count;
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
    /// `cols·rows + 1` offsets into `members`, one per row-major cell.
    starts: Vec<u32>,
    /// Every member, sorted by cell, unsorted within a cell.
    members: Vec<Member>,
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
            starts: vec![0; cols * rows + 1],
            members: Vec::new(),
            cell_of: Vec::new(),
        };
        // Counting sort without a cursor array: cell `c` is counted in
        // `starts[c + 1]`, an exclusive prefix sum turns that into cell
        // `c`'s first slot, and filling in node order advances it to the
        // cell's end, which is cell `c + 1`'s first slot.
        grid.cell_of = positions
            .clone()
            .map(|p| {
                let cell = grid.cell_index(p);
                grid.starts[cell + 1] += 1;
                cell as u32
            })
            .collect();
        let mut first = 0;
        for slot in &mut grid.starts[1..] {
            (first, *slot) = (first + *slot, first);
        }
        let vacant = Member { id: u32::MAX, pos: Point::new(0.0, 0.0) };
        grid.members = vec![vacant; grid.cell_of.len()];
        for (node, (pos, &cell)) in positions.zip(&grid.cell_of).enumerate() {
            let slot = &mut grid.starts[cell as usize + 1];
            grid.members[*slot as usize] = Member { id: node as u32, pos };
            *slot += 1;
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

    /// The members of cells `first..=last`, one contiguous slice: the
    /// cells of one grid row between two columns, or a single cell.
    #[inline]
    fn span(&self, first: usize, last: usize) -> &[Member] {
        &self.members[self.starts[first] as usize..self.starts[last + 1] as usize]
    }

    /// Moves `node` to `p`: its stored coordinates are refreshed in place,
    /// and it migrates between cells only when it crossed a cell boundary.
    /// A migration swaps the node across each boundary between the two
    /// cells and moves that boundary's offset by one: it never allocates.
    pub fn relocate(&mut self, node: NodeId, p: Point) {
        let idx = node.index();
        let old = self.cell_of[idx] as usize;
        let new = self.cell_index(p);
        let found = self.span(old, old).iter().position(|m| m.id == node.0);
        let mut at = self.starts[old] as usize + found.expect("node is in its recorded cell");
        self.members[at].pos = p;
        // Forward: swap into cell `c`'s last slot, which becomes cell
        // `c + 1`'s first. Backward: swap into cell `c`'s first slot, which
        // becomes cell `c - 1`'s last.
        for c in old..new {
            let last = self.starts[c + 1] as usize - 1;
            self.members.swap(at, last);
            self.starts[c + 1] -= 1;
            at = last;
        }
        for c in (new + 1..=old).rev() {
            let first = self.starts[c] as usize;
            self.members.swap(at, first);
            self.starts[c] += 1;
            at = first;
        }
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
            buf.extend(self.span(row + x0, row + x1).iter().map(|m| NodeId(m.id)));
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
            for m in self.span(row + x0, row + x1) {
                let (dx, dy) = (m.pos.x - p.x, m.pos.y - p.y);
                if dx * dx + dy * dy <= reach_sq {
                    f(NodeId(m.id), m.pos);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// Each cell's member ids, in stored order.
    fn memberships(grid: &SpatialGrid) -> Vec<Vec<u32>> {
        (0..grid.cols * grid.rows)
            .map(|c| grid.span(c, c).iter().map(|m| m.id).collect())
            .collect()
    }

    #[test]
    fn construction_sizes_each_cell_exactly_and_fills_it_in_node_order() {
        let area = Area::new(400.0, 100.0);
        let xs = [250.0, 50.0, 60.0, 260.0, 150.0, 55.0, 270.0];
        let grid = SpatialGrid::new(area, 100.0, xs.iter().map(|&x| Point::new(x, 50.0)));
        assert_eq!(memberships(&grid), [vec![1, 2, 5], vec![4], vec![0, 3, 6], vec![]]);
        assert_eq!(grid.starts, [0, 3, 4, 7, 7]);
        assert_eq!(grid.cell_of, [2, 0, 0, 2, 1, 0, 2]);
        assert_eq!(grid.members.capacity(), xs.len(), "one exact allocation for every member");
    }

    #[test]
    fn relocate_migrates_only_across_boundaries() {
        // Five 100 m cells in a row; node 0 starts alone in cell 0.
        let area = Area::new(500.0, 100.0);
        let xs = [50.0, 150.0, 160.0, 450.0];
        let grid0 = SpatialGrid::new(area, 100.0, xs.iter().map(|&x| Point::new(x, 50.0)));
        let mut grid = grid0.clone();
        // Move within the same cell: memberships untouched, only the
        // node's stored coordinates refresh.
        grid.relocate(NodeId(0), Point::new(60.0, 60.0));
        assert_eq!(memberships(&grid), memberships(&grid0));
        assert_eq!(grid.starts, grid0.starts);
        assert_eq!(grid.span(0, 0)[0].pos, Point::new(60.0, 60.0));
        // Forward across cells 1 (full), 2 and 3 (empty) into cell 4:
        // only the offsets of the four boundaries crossed move.
        grid.relocate(NodeId(0), Point::new(480.0, 20.0));
        assert_eq!(grid.starts, [0, 0, 2, 2, 2, 4]);
        // It swapped places with cell 1's last member and entered cell 4
        // at its first slot.
        assert_eq!(memberships(&grid)[1], [2, 1]);
        assert_eq!(memberships(&grid)[4], [0, 3]);
        assert_eq!(grid.cell_of[0], 4);
        // Back into cell 1: the node joins cell 1 at its last slot.
        grid.relocate(NodeId(0), Point::new(101.0, 99.0));
        assert_eq!(grid.starts, [0, 0, 3, 3, 3, 4]);
        assert_eq!(memberships(&grid)[1], [2, 1, 0]);
        assert_eq!(memberships(&grid)[4], [3]);
        // The node shows up around its new position, not its old one.
        let mut near_new = Vec::new();
        grid.for_each_within(Point::new(101.0, 99.0), 1.0, |id, _| near_new.push(id));
        assert_eq!(ids(near_new), vec![0]);
        let mut near_old = Vec::new();
        grid.for_each_within(Point::new(480.0, 20.0), 20.0, |id, _| near_old.push(id));
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

    /// Checks every invariant of `grid` against the positions it should
    /// hold, then one radius query against brute force.
    fn assert_coherent(grid: &SpatialGrid, area: Area, pos: &[Point], q: Point, r: f64) {
        let fresh = SpatialGrid::new(area, 100.0, pos.iter().copied());
        let sets = |g: &SpatialGrid| -> Vec<Vec<u32>> {
            let mut cells = memberships(g);
            cells.iter_mut().for_each(|c| c.sort_unstable());
            cells
        };
        assert_eq!(sets(grid), sets(&fresh), "cell member sets differ from a fresh build");
        assert_eq!(grid.starts[0], 0);
        assert_eq!(*grid.starts.last().unwrap() as usize, pos.len());
        assert!(grid.starts.windows(2).all(|w| w[0] <= w[1]), "{:?}", grid.starts);
        for cell in 0..grid.cols * grid.rows {
            for m in grid.span(cell, cell) {
                assert_eq!(grid.cell_of[m.id as usize] as usize, cell);
                assert_eq!(grid.cell_index(m.pos), cell);
                assert_eq!(m.pos, pos[m.id as usize]);
            }
        }
        let mut got = Vec::new();
        grid.for_each_within(q, r, |id, _| got.push(id.0));
        assert!(
            (0..pos.len() as u32).all(|i| q.distance(&pos[i as usize]) > r || got.contains(&i)),
            "missed a node within {r} of {q:?}"
        );
        assert!(got.iter().all(|&i| q.distance(&pos[i as usize]) <= r * (1.0 + 1e-9)));
    }

    // Random relocation scripts on 5×5 to 8×8 grids of 100 m cells keep
    // the cell-sorted array equal, cell by cell, to a fresh build. Every
    // script opens with node 0 in the first cell, a forward crossing to the
    // last cell over at least one empty cell, a same-cell move and a
    // backward crossing home; its random steps land anywhere, in the first
    // or last cell, or on a boundary.
    proptest! {
        #[test]
        fn relocation_scripts_match_a_fresh_build(
            cols in 5usize..=8,
            rows in 5usize..=8,
            start in prop::collection::vec((0u8..4, 0.0..=1.0f64, 0.0..=1.0f64), 1..20),
            script in prop::collection::vec(
                (0usize..64, (0u8..4, 0.0..=1.0f64, 0.0..=1.0f64), (0.0..=1.0f64, 0.0..=1.0f64, 0.0..=250.0f64)),
                1..60,
            ),
        ) {
            let (w, h) = (cols as f64 * 100.0, rows as f64 * 100.0);
            let area = Area::new(w, h);
            let place = |(kind, fx, fy): (u8, f64, f64)| match kind {
                0 => Point::new(fx * w, fy * h),
                1 => Point::new(fx * 99.0, fy * 99.0),
                2 => Point::new(w - fx * 99.0, h - fy * 99.0),
                _ => Point::new((fx * cols as f64).round() * 100.0, (fy * rows as f64).round() * 100.0),
            };
            let mut pos: Vec<Point> = start.into_iter().map(place).collect();
            let mut grid = SpatialGrid::new(area, 100.0, pos.iter().copied());
            prop_assert_eq!(grid.dims(), (cols, rows));
            let last = cols * rows - 1;
            let opening = [(0, 0.0, 0.0), (last, w, h), (last, w - 1.0, h - 1.0), (0, 1.0, 1.0)];
            for (step, &(cell, x, y)) in opening.iter().enumerate() {
                if step == 1 {
                    let empty = (1..last).any(|c| grid.starts[c] == grid.starts[c + 1]);
                    prop_assert!(empty, "fewer nodes than cells, so one is empty");
                }
                pos[0] = Point::new(x, y);
                grid.relocate(NodeId(0), pos[0]);
                prop_assert_eq!(grid.cell_of_node(NodeId(0)), cell);
                assert_coherent(&grid, area, &pos, pos[0], 150.0);
            }
            for (node, to, (qx, qy, r)) in script {
                let node = node % pos.len();
                pos[node] = place(to);
                grid.relocate(NodeId(node as u32), pos[node]);
                assert_coherent(&grid, area, &pos, Point::new(qx * w, qy * h), r);
            }
        }
    }
}
