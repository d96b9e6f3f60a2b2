//! The Kautz graph embedding plan (Section III-B2): which vertices exist in
//! a `K(d, 3)` cell and in what order they are assigned.
//!
//! The paper builds a cell in three stages:
//!
//! 1. **Actuator paths** — each actuator `kid` finds a 2-sensor path to its
//!    successor actuator `rotate_left(kid)` via a TTL=2 query; the interior
//!    sensors receive the KIDs on the unique length-3 Kautz walk between the
//!    two actuator labels (e.g. `201 -> 010 -> 101 -> 012`).
//! 2. **Sensor path** — the successor `S_i` of the smallest actuator KID
//!    queries toward the predecessor `S_j` of the largest actuator KID,
//!    assigning the interior KIDs of that walk (e.g. `121 -> 210 -> 102 ->
//!    020` assigns `210` and `102`).
//! 3. **Completion** — every remaining KID (for `d = 2`: `021`) goes to a
//!    common physical neighbor of its already-assigned Kautz neighbors with
//!    the highest battery.
//!
//! [`EmbeddingPlan`] computes the structure once per cell graph, naming
//! each vertex by its index in that graph's [`ArcTable`] — the name the
//! roster and both protocols use. The plan assigns no sensor: the
//! message-driven protocol in [`crate::protocol`] does, running the
//! stage-1 and stage-2 paths as TTL=2 path queries and filling stage 3
//! (and any vertex a query could not place) by its coordinator's fallback
//! rule. The Kautz-overlay baseline walks
//! [`EmbeddingPlan::assignment_order`].

use crate::cells::corner_kids;
use kautz::ArcTable;

/// A planned assignment path: `from` and `to` are already-assigned vertices
/// and `interior` lists the vertices handed to the sensors discovered
/// between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePath {
    /// The querying vertex.
    pub from: u32,
    /// The collecting vertex.
    pub to: u32,
    /// Interior vertices, in hop order.
    pub interior: Vec<u32>,
}

/// The vertex structure of one `K(d, 3)` cell.
#[derive(Debug, Clone)]
pub struct EmbeddingPlan {
    /// The three corner (actuator) vertices `[012, 120, 201]`, in rotation
    /// order: each corner's successor actuator carries the next one.
    pub corners: [u32; 3],
    /// Stage-1 paths between consecutive actuators, in rotation order
    /// (`012 -> 120`, `120 -> 201`, `201 -> 012`): `stage1[i]` runs from
    /// `corners[i]` to `corners[(i + 1) % 3]`.
    pub stage1: Vec<StagePath>,
    /// The stage-2 sensor-to-sensor path (`S_i -> S_j`).
    pub stage2: StagePath,
    /// Stage-3: all remaining vertices, assigned to common neighbors.
    pub stage3: Vec<u32>,
}

impl EmbeddingPlan {
    /// Computes the embedding plan for the cell graph `table`, a `K(d, 3)`.
    ///
    /// # Panics
    ///
    /// Panics if `table` is not a `K(d, 3)` with `d >= 2` (a cell needs at
    /// least the three corner letters) or if the Kautz structure
    /// unexpectedly admits no valid stage path (cannot happen for `d` in
    /// `2..=9`, which tests pin).
    pub fn new(table: &ArcTable) -> Self {
        assert!(table.degree() >= 2 && table.k() == 3, "K(d, 3) cells need degree >= 2");
        let corners = corner_kids(table.degree()).map(|kid| kid.to_index() as u32);
        let mut assigned = vec![false; table.node_count()];
        for &c in &corners {
            assigned[c as usize] = true;
        }

        // Stage 1: in rotation order 012 -> 120 -> 201 -> 012.
        let mut stage1 = Vec::with_capacity(3);
        for (i, &from) in corners.iter().enumerate() {
            let to = corners[(i + 1) % 3];
            let interior = walk_interior(table, from, to, &assigned)
                .expect("a length-3 walk between rotations always exists");
            for &w in &interior {
                assigned[w as usize] = true;
            }
            stage1.push(StagePath { from, to, interior });
        }

        // Stage 2: successor of the smallest actuator KID to the
        // predecessor of the largest (ascending index is ascending KID).
        let smallest = *corners.iter().min().expect("three corners");
        let largest = *corners.iter().max().expect("three corners");
        let s_i = *stage1
            .iter()
            .find(|p| p.from == smallest)
            .expect("every corner queries once")
            .interior
            .first()
            .expect("two interiors");
        let s_j = *stage1
            .iter()
            .find(|p| p.to == largest)
            .expect("every corner collects once")
            .interior
            .last()
            .expect("two interiors");
        let interior = walk_interior(table, s_i, s_j, &assigned)
            .expect("the stage-2 walk exists for d >= 2");
        for &w in &interior {
            assigned[w as usize] = true;
        }
        let stage2 = StagePath { from: s_i, to: s_j, interior };

        // Stage 3: everything else, ordered by how many already-assigned
        // Kautz neighbors each vertex has (most-connected first), so each
        // assignment can anchor on placed neighbors.
        let mut stage3: Vec<u32> =
            (0..table.node_count() as u32).filter(|&v| !assigned[v as usize]).collect();
        let anchor_count = |v: u32, placed: &[bool]| {
            let v = v as usize;
            let around = table.successors(v).iter().copied().chain(table.predecessors(v));
            around.filter(|&n| placed[n as usize]).count()
        };
        let mut ordered = Vec::with_capacity(stage3.len());
        while !stage3.is_empty() {
            let (idx, _) = stage3
                .iter()
                .enumerate()
                .max_by_key(|&(_, &v)| anchor_count(v, &assigned))
                .expect("non-empty");
            let v = stage3.swap_remove(idx);
            assigned[v as usize] = true;
            ordered.push(v);
        }
        EmbeddingPlan { corners, stage1, stage2, stage3: ordered }
    }

    /// Every vertex in assignment order: actuators, stage-1 interiors,
    /// stage-2 interiors, stage-3 completions.
    pub fn assignment_order(&self) -> Vec<u32> {
        let mut order: Vec<u32> = self.corners.to_vec();
        for p in &self.stage1 {
            order.extend(&p.interior);
        }
        order.extend(&self.stage2.interior);
        order.extend(&self.stage3);
        order
    }
}

/// Finds the lexicographically-smallest length-3 walk `from -> a -> b ->
/// to` whose interior vertices are distinct, differ from the endpoints and
/// are not yet `assigned`. Returns the interior `[a, b]`.
fn walk_interior(table: &ArcTable, from: u32, to: u32, assigned: &[bool]) -> Option<Vec<u32>> {
    for &a in table.successors(from as usize) {
        if assigned[a as usize] || a == to || a == from {
            continue;
        }
        for &b in table.successors(a as usize) {
            if assigned[b as usize] || b == to || b == from || b == a {
                continue;
            }
            if table.successors(b as usize).contains(&to) {
                return Some(vec![a, b]);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use kautz::{KautzGraph, KautzId};
    use std::collections::HashSet;

    fn id(s: &str) -> u32 {
        KautzId::parse(s, 2).expect("valid").to_index() as u32
    }

    fn plan(degree: u8) -> EmbeddingPlan {
        EmbeddingPlan::new(&ArcTable::new(degree, 3).expect("valid"))
    }

    #[test]
    fn d2_plan_matches_the_paper_exactly() {
        let plan = plan(2);
        // Section III-B2's worked example.
        let find = |from: &str| {
            plan.stage1
                .iter()
                .find(|p| p.from == id(from))
                .expect("path exists")
                .clone()
        };
        assert_eq!(find("201").interior, vec![id("010"), id("101")]);
        assert_eq!(find("120").interior, vec![id("202"), id("020")]);
        assert_eq!(find("012").interior, vec![id("121"), id("212")]);
        assert_eq!(plan.stage2.from, id("121"), "S_i = u2 u3 u2 of 012");
        assert_eq!(plan.stage2.to, id("020"), "S_j = u1 u3 u1 of 012");
        assert_eq!(plan.stage2.interior, vec![id("210"), id("102")]);
        assert_eq!(plan.stage3, vec![id("021")], "u1 u3 u2 completes the cell");
    }

    #[test]
    fn stage1_is_indexed_by_corner() {
        for d in 2..=5u8 {
            let plan = plan(d);
            assert_eq!(plan.stage1.len(), 3, "K({d},3)");
            for (i, p) in plan.stage1.iter().enumerate() {
                assert_eq!(p.from, plan.corners[i], "K({d},3) stage1[{i}]");
                assert_eq!(p.to, plan.corners[(i + 1) % 3], "K({d},3) stage1[{i}]");
            }
        }
    }

    #[test]
    fn plan_covers_every_vertex_exactly_once() {
        for d in 2..=5u8 {
            let order = plan(d).assignment_order();
            let graph = KautzGraph::new(d, 3).expect("valid");
            assert_eq!(order.len(), graph.node_count(), "K({d},3) fully planned");
            let distinct: HashSet<&u32> = order.iter().collect();
            assert_eq!(distinct.len(), order.len(), "no vertex planned twice");
        }
    }

    #[test]
    fn stage_paths_follow_kautz_arcs() {
        for d in 2..=4u8 {
            let plan = plan(d);
            for p in plan.stage1.iter().chain(std::iter::once(&plan.stage2)) {
                let mut walk = vec![p.from];
                walk.extend(&p.interior);
                walk.push(p.to);
                let walk: Vec<KautzId> =
                    walk.iter().map(|&v| KautzId::from_index(v as usize, d, 3)).collect();
                for w in walk.windows(2) {
                    assert!(w[0].is_arc_to(&w[1]), "K({d},3): {:?}", walk);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "degree >= 2")]
    fn degree_one_is_rejected() {
        let _ = plan(1);
    }
}
