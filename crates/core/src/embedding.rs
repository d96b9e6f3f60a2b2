//! The Kautz graph embedding plan (Section III-B2): which KIDs exist in a
//! `K(d, 3)` cell and in what order they are assigned.
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
//! [`EmbeddingPlan`] computes the KID structure once per degree. The
//! plan assigns no sensor: the message-driven protocol in
//! [`crate::protocol`] does, running the stage-1 and stage-2 paths as
//! TTL=2 path queries and filling stage 3 (and any KID a query could not
//! place) by its coordinator's fallback rule. The Kautz-overlay baseline
//! walks [`EmbeddingPlan::assignment_order`].

use crate::cells::corner_kids;
use kautz::{KautzGraph, KautzId};
use std::collections::HashSet;

/// A planned assignment path: `from` and `to` are already-assigned vertices
/// and `interior` lists the KIDs handed to the sensors discovered between
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StagePath {
    /// The querying vertex.
    pub from: KautzId,
    /// The collecting vertex.
    pub to: KautzId,
    /// Interior KIDs, in hop order.
    pub interior: Vec<KautzId>,
}

/// The KID structure of one `K(d, 3)` cell.
#[derive(Debug, Clone)]
pub struct EmbeddingPlan {
    /// Graph degree `d`.
    pub degree: u8,
    /// The three corner (actuator) KIDs `[012, 120, 201]`.
    pub actuator_kids: [KautzId; 3],
    /// Stage-1 paths between consecutive actuators, in rotation order
    /// (`012 -> 120`, `120 -> 201`, `201 -> 012`).
    pub stage1: Vec<StagePath>,
    /// The stage-2 sensor-to-sensor path (`S_i -> S_j`).
    pub stage2: StagePath,
    /// Stage-3: all remaining KIDs, assigned to common neighbors.
    pub stage3: Vec<KautzId>,
}

impl EmbeddingPlan {
    /// Computes the embedding plan for `K(degree, 3)`.
    ///
    /// # Panics
    ///
    /// Panics if `degree < 2` (a cell needs at least the three corner
    /// letters) or if the Kautz structure unexpectedly admits no valid
    /// stage path (cannot happen for `degree` in `2..=9`, which tests pin).
    pub fn for_degree(degree: u8) -> Self {
        assert!(degree >= 2, "K(d, 3) cells need degree >= 2");
        let actuator_kids = corner_kids(degree);
        let actuator_set: HashSet<KautzId> = actuator_kids.iter().cloned().collect();
        let mut assigned: HashSet<KautzId> = actuator_set.clone();

        // Stage 1: in rotation order 012 -> 120 -> 201 -> 012.
        let mut stage1 = Vec::with_capacity(3);
        for from in &actuator_kids {
            let to = from.rotate_left().expect("corner kids rotate");
            let interior = walk_interior(from, &to, &assigned)
                .expect("a length-3 walk between rotations always exists");
            for w in &interior {
                assigned.insert(*w);
            }
            stage1.push(StagePath { from: *from, to, interior });
        }

        // Stage 2: successor of the smallest actuator KID to the
        // predecessor of the largest.
        let smallest = *actuator_kids
            .iter()
            .min()
            .expect("three corners");
        let largest = *actuator_kids
            .iter()
            .max()
            .expect("three corners");
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
        let interior = walk_interior(&s_i, &s_j, &assigned)
            .expect("the stage-2 walk exists for d >= 2");
        for w in &interior {
            assigned.insert(*w);
        }
        let stage2 = StagePath { from: s_i, to: s_j, interior };
        assigned.insert(s_i);
        assigned.insert(s_j);

        // Stage 3: everything else, ordered by how many already-assigned
        // Kautz neighbors each vertex has (most-connected first), so each
        // assignment can anchor on placed neighbors.
        let graph = KautzGraph::new(degree, 3).expect("valid parameters");
        let mut stage3: Vec<KautzId> =
            graph.nodes().filter(|v| !assigned.contains(v)).collect();
        let anchor_count = |v: &KautzId, placed: &HashSet<KautzId>| {
            v.successors().iter().filter(|s| placed.contains(*s)).count()
                + v.predecessors().iter().filter(|p| placed.contains(*p)).count()
        };
        let mut ordered = Vec::with_capacity(stage3.len());
        while !stage3.is_empty() {
            let (idx, _) = stage3
                .iter()
                .enumerate()
                .max_by_key(|(_, v)| anchor_count(v, &assigned))
                .expect("non-empty");
            let v = stage3.swap_remove(idx);
            assigned.insert(v);
            ordered.push(v);
        }
        EmbeddingPlan { degree, actuator_kids, stage1, stage2, stage3: ordered }
    }

    /// Every KID in assignment order: actuators, stage-1 interiors, stage-2
    /// endpoints' interiors, stage-3 completions.
    pub fn assignment_order(&self) -> Vec<KautzId> {
        let mut order: Vec<KautzId> = self.actuator_kids.to_vec();
        for p in &self.stage1 {
            order.extend(p.interior.iter().cloned());
        }
        order.extend(self.stage2.interior.iter().cloned());
        order.extend(self.stage3.iter().cloned());
        order
    }
}

/// Finds the lexicographically-smallest length-3 walk `from -> a -> b ->
/// to` whose interior vertices are distinct, differ from the endpoints and
/// avoid `blocked`. Returns the interior `[a, b]`.
fn walk_interior(
    from: &KautzId,
    to: &KautzId,
    blocked: &HashSet<KautzId>,
) -> Option<Vec<KautzId>> {
    for a in from.successors() {
        if blocked.contains(&a) || &a == to || &a == from {
            continue;
        }
        for b in a.successors() {
            if blocked.contains(&b) || &b == to || &b == from || b == a {
                continue;
            }
            if b.is_arc_to(to) {
                return Some(vec![a, b]);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(s: &str) -> KautzId {
        KautzId::parse(s, 2).expect("valid")
    }

    #[test]
    fn d2_plan_matches_the_paper_exactly() {
        let plan = EmbeddingPlan::for_degree(2);
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
    fn plan_covers_every_vertex_exactly_once() {
        for d in 2..=5u8 {
            let plan = EmbeddingPlan::for_degree(d);
            let order = plan.assignment_order();
            let graph = KautzGraph::new(d, 3).expect("valid");
            assert_eq!(order.len(), graph.node_count(), "K({d},3) fully planned");
            let distinct: HashSet<&KautzId> = order.iter().collect();
            assert_eq!(distinct.len(), order.len(), "no KID planned twice");
        }
    }

    #[test]
    fn stage_paths_follow_kautz_arcs() {
        for d in 2..=4u8 {
            let plan = EmbeddingPlan::for_degree(d);
            for p in plan.stage1.iter().chain(std::iter::once(&plan.stage2)) {
                let mut walk = vec![p.from];
                walk.extend(p.interior.iter().cloned());
                walk.push(p.to);
                for w in walk.windows(2) {
                    assert!(w[0].is_arc_to(&w[1]), "K({d},3): {:?}", walk);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "degree >= 2")]
    fn degree_one_is_rejected() {
        let _ = EmbeddingPlan::for_degree(1);
    }
}
