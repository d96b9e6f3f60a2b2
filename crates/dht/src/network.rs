//! The CAN network: membership (join / leave with zone takeover), neighbor
//! sets, and greedy coordinate routing.

use crate::error::CanError;
use crate::space::{Coord, Zone};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a CAN member node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanId(pub u64);

impl fmt::Display for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "can{}", self.0)
    }
}

/// One CAN member: the zones it owns (more than one after takeovers) and
/// its current neighbor set.
#[derive(Debug, Clone)]
pub struct CanNode {
    /// The coordinate the member joined at. Always inside one of `zones`
    /// (the join protocol assigns halves so owners keep their own point).
    pub coord: Coord,
    /// Zones currently owned. Non-empty.
    pub zones: Vec<Zone>,
    /// Members owning zones adjacent to any of this node's zones.
    pub neighbors: Vec<CanId>,
}

impl CanNode {
    /// Whether any owned zone contains `c`.
    pub fn owns(&self, c: &Coord) -> bool {
        self.zones.iter().any(|z| z.contains(c))
    }

    /// Distance from the closest owned zone to `c`.
    pub fn distance_to(&self, c: &Coord) -> f64 {
        self.zones
            .iter()
            .map(|z| z.distance_to(c))
            .fold(f64::INFINITY, f64::min)
    }

    /// Total owned area.
    pub fn area(&self) -> f64 {
        self.zones.iter().map(Zone::area).sum()
    }
}

/// A Content-Addressable Network over the unit square.
///
/// This is a *logical* structure: it tracks who owns which zone and who
/// neighbors whom, exactly as the distributed protocol would converge to.
/// REFER drives it with actuator CIDs; the simulator charges energy for the
/// messages separately.
///
/// # Examples
///
/// ```
/// use can_dht::{CanNetwork, Coord};
///
/// let mut net = CanNetwork::new();
/// let a = net.join(Coord::new(0.1, 0.1)).expect("bootstrap join");
/// let b = net.join(Coord::new(0.9, 0.9)).expect("second join");
/// let path = net.route(a, &Coord::new(0.9, 0.9)).expect("routable");
/// assert_eq!(path.last(), Some(&b));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CanNetwork {
    nodes: BTreeMap<CanId, CanNode>,
    next_id: u64,
}

impl CanNetwork {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network has no members.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over members and their state.
    pub fn nodes(&self) -> impl Iterator<Item = (CanId, &CanNode)> {
        self.nodes.iter().map(|(&id, n)| (id, n))
    }

    /// The member state for `id`.
    pub fn node(&self, id: CanId) -> Option<&CanNode> {
        self.nodes.get(&id)
    }

    /// The member whose zone contains `c`.
    pub fn owner_of(&self, c: &Coord) -> Option<CanId> {
        self.nodes.iter().find(|(_, n)| n.owns(c)).map(|(&id, _)| id)
    }

    /// Joins a new member at coordinate `c`: the current owner's zone
    /// containing `c` is split in half and one half handed over (the CAN
    /// join protocol). The first join takes the whole space.
    ///
    /// # Errors
    ///
    /// Returns [`CanError::ZoneTooSmall`] if the zone containing `c` has
    /// been split below the resolution floor (guards pathological inputs).
    pub fn join(&mut self, c: Coord) -> Result<CanId, CanError> {
        let id = CanId(self.next_id);
        self.next_id += 1;
        if self.nodes.is_empty() {
            self.nodes.insert(
                id,
                CanNode { coord: c, zones: vec![Zone::UNIT], neighbors: Vec::new() },
            );
            return Ok(id);
        }
        let owner = self.owner_of(&c).expect("zones tile the space");
        let owner_coord = self.nodes[&owner].coord;
        let owner_node = self.nodes.get_mut(&owner).expect("owner exists");
        let zone_idx = owner_node
            .zones
            .iter()
            .position(|z| z.contains(&c))
            .expect("owner owns c");
        let zone = owner_node.zones[zone_idx];
        if zone.area() < 1e-12 {
            return Err(CanError::ZoneTooSmall { zone });
        }
        let (half_a, half_b) = zone.split();
        // Preserve the invariant that every member's own coordinate stays
        // inside its zones: the owner keeps the half containing its
        // coordinate; the joiner takes the other. When the owner's
        // coordinate is not in this zone at all (a takeover zone), the
        // joiner takes the half containing *its* coordinate.
        let owner_keeps_a = if half_a.contains(&owner_coord) {
            true
        } else if half_b.contains(&owner_coord) {
            false
        } else {
            !half_a.contains(&c)
        };
        let (kept, given) =
            if owner_keeps_a { (half_a, half_b) } else { (half_b, half_a) };
        owner_node.zones[zone_idx] = kept;
        self.nodes.insert(id, CanNode { coord: c, zones: vec![given], neighbors: Vec::new() });
        self.rebuild_neighbors();
        Ok(id)
    }

    /// Removes a member. Its zones are taken over by, for each zone, the
    /// neighbor that can merge with it into a rectangle if one exists,
    /// otherwise the smallest-area adjacent member (CAN's takeover rule).
    ///
    /// # Errors
    ///
    /// Returns [`CanError::UnknownNode`] for a non-member and
    /// [`CanError::LastNode`] when removing the only member (the space must
    /// stay owned).
    pub fn leave(&mut self, id: CanId) -> Result<(), CanError> {
        if !self.nodes.contains_key(&id) {
            return Err(CanError::UnknownNode { id });
        }
        if self.nodes.len() == 1 {
            return Err(CanError::LastNode);
        }
        let leaving = self.nodes.remove(&id).expect("checked above");
        for zone in leaving.zones {
            // Prefer a perfect merge partner.
            let merge_partner = self
                .nodes
                .iter()
                .find_map(|(&other, n)| {
                    n.zones
                        .iter()
                        .position(|z| z.merges_with(&zone).is_some())
                        .map(|zi| (other, zi))
                });
            if let Some((other, zi)) = merge_partner {
                let n = self.nodes.get_mut(&other).expect("exists");
                let merged = n.zones[zi].merges_with(&zone).expect("found above");
                n.zones[zi] = merged;
                continue;
            }
            // Otherwise the smallest adjacent member babysits the zone.
            let taker = self
                .nodes
                .iter()
                .filter(|(_, n)| n.zones.iter().any(|z| z.is_neighbor(&zone)))
                .min_by(|(_, a), (_, b)| {
                    a.area().partial_cmp(&b.area()).expect("finite areas")
                })
                .map(|(&other, _)| other)
                .expect("the remaining zones tile the space, so one abuts");
            self.nodes
                .get_mut(&taker)
                .expect("exists")
                .zones
                .push(zone);
        }
        self.rebuild_neighbors();
        Ok(())
    }

    /// Greedy CAN routing from member `from` toward coordinate `target`:
    /// repeatedly forward to the neighbor closest to the target. Returns
    /// the member path ending at the owner of `target`, or `None` if `from`
    /// is not a member or the route stalls (cannot happen while zones tile
    /// the space, but the API stays total).
    pub fn route(&self, from: CanId, target: &Coord) -> Option<Vec<CanId>> {
        self.route_until(from, target, |id| self.nodes[&id].owns(target))
    }

    /// Routes from member `from` to member `to`, targeting the center of
    /// `to`'s first zone (always inside `to`'s territory). This is the
    /// inter-cell primitive REFER uses: the destination is a *member*
    /// (cell), not an abstract coordinate.
    pub fn route_to_member(&self, from: CanId, to: CanId) -> Option<Vec<CanId>> {
        let target = self.nodes.get(&to)?.zones.first()?.center();
        self.route_until(from, &target, |id| id == to)
    }

    /// Greedy walk minimizing zone distance to `target` until `done` holds,
    /// refusing to revisit members (prevents equal-distance ping-pong).
    fn route_until(
        &self,
        from: CanId,
        target: &Coord,
        done: impl Fn(CanId) -> bool,
    ) -> Option<Vec<CanId>> {
        let mut at = from;
        self.nodes.get(&at)?;
        let mut path = vec![at];
        let mut visited = std::collections::BTreeSet::new();
        visited.insert(at);
        while !done(at) {
            let next = self.nodes[&at]
                .neighbors
                .iter()
                .copied()
                .filter(|n| !visited.contains(n))
                .min_by(|&a, &b| {
                    self.nodes[&a]
                        .distance_to(target)
                        .partial_cmp(&self.nodes[&b].distance_to(target))
                        .expect("finite distances")
                })?;
            at = next;
            visited.insert(at);
            path.push(at);
        }
        Some(path)
    }

    /// Recomputes every member's neighbor set from zone adjacency. The
    /// distributed protocol maintains these incrementally through UPDATE
    /// messages; the logical structure recomputes for simplicity (member
    /// counts here are small — REFER runs one member per actuator).
    fn rebuild_neighbors(&mut self) {
        let ids: Vec<CanId> = self.nodes.keys().copied().collect();
        let mut sets: BTreeMap<CanId, Vec<CanId>> = BTreeMap::new();
        for &a in &ids {
            let mut ns = Vec::new();
            for &b in &ids {
                if a == b {
                    continue;
                }
                let adjacent = self.nodes[&a].zones.iter().any(|za| {
                    self.nodes[&b].zones.iter().any(|zb| za.is_neighbor(zb))
                });
                if adjacent {
                    ns.push(b);
                }
            }
            sets.insert(a, ns);
        }
        for (id, ns) in sets {
            self.nodes.get_mut(&id).expect("exists").neighbors = ns;
        }
    }

    /// Verifies the structural invariants: zones tile the unit square
    /// (areas sum to 1 and no two zones overlap) and neighbor sets are
    /// symmetric. Used by tests; cheap enough to call in debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        let total: f64 = self.nodes.values().map(CanNode::area).sum();
        if self.is_empty() {
            return Ok(());
        }
        if (total - 1.0).abs() > 1e-9 {
            return Err(format!("zone areas sum to {total}, not 1"));
        }
        let zones: Vec<(CanId, Zone)> = self
            .nodes
            .iter()
            .flat_map(|(&id, n)| n.zones.iter().map(move |&z| (id, z)))
            .collect();
        for (i, (ida, za)) in zones.iter().enumerate() {
            for (idb, zb) in &zones[i + 1..] {
                let x_overlap = (za.hi_x.min(zb.hi_x) - za.lo_x.max(zb.lo_x)).max(0.0);
                let y_overlap = (za.hi_y.min(zb.hi_y) - za.lo_y.max(zb.lo_y)).max(0.0);
                if x_overlap > 1e-12 && y_overlap > 1e-12 {
                    return Err(format!("zones overlap: {ida}:{za} and {idb}:{zb}"));
                }
            }
        }
        for (&a, node) in &self.nodes {
            for &b in &node.neighbors {
                let Some(other) = self.nodes.get(&b) else {
                    return Err(format!("{a} lists unknown neighbor {b}"));
                };
                if !other.neighbors.contains(&a) {
                    return Err(format!("neighbor relation not symmetric: {a} -> {b}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coord(x: f64, y: f64) -> Coord {
        Coord::new(x, y)
    }

    #[test]
    fn bootstrap_owns_everything() {
        let mut net = CanNetwork::new();
        let a = net.join(coord(0.3, 0.3)).expect("bootstrap");
        assert_eq!(net.len(), 1);
        assert_eq!(net.owner_of(&coord(0.9, 0.9)), Some(a));
        net.check_invariants().expect("invariants");
    }

    #[test]
    fn joins_split_zones_and_keep_tiling() {
        let mut net = CanNetwork::new();
        let pts = [
            (0.1, 0.1),
            (0.9, 0.1),
            (0.1, 0.9),
            (0.9, 0.9),
            (0.5, 0.5),
            (0.3, 0.7),
            (0.7, 0.3),
        ];
        for (x, y) in pts {
            net.join(coord(x, y)).expect("join");
            net.check_invariants().expect("invariants after join");
        }
        assert_eq!(net.len(), pts.len());
        // The joiner owns its own coordinate.
        for (x, y) in pts[1..].iter() {
            assert!(net.owner_of(&coord(*x, *y)).is_some());
        }
    }

    #[test]
    fn leave_with_merge_partner_restores_rectangle() {
        let mut net = CanNetwork::new();
        let a = net.join(coord(0.1, 0.5)).expect("bootstrap");
        let b = net.join(coord(0.9, 0.5)).expect("join");
        net.leave(b).expect("leave");
        assert_eq!(net.len(), 1);
        assert_eq!(net.node(a).expect("a").zones, vec![Zone::UNIT]);
        net.check_invariants().expect("invariants");
    }

    #[test]
    fn leave_without_merge_partner_hands_zone_to_smallest_neighbor() {
        let mut net = CanNetwork::new();
        let _a = net.join(coord(0.1, 0.1)).expect("bootstrap");
        let _b = net.join(coord(0.9, 0.1)).expect("join b");
        let c = net.join(coord(0.9, 0.9)).expect("join c");
        let _d = net.join(coord(0.6, 0.6)).expect("join d");
        net.leave(c).expect("leave");
        net.check_invariants().expect("invariants");
        // Every coordinate is still owned.
        assert!(net.owner_of(&coord(0.9, 0.9)).is_some());
    }

    #[test]
    fn last_member_cannot_leave() {
        let mut net = CanNetwork::new();
        let a = net.join(coord(0.5, 0.5)).expect("bootstrap");
        assert_eq!(net.leave(a), Err(CanError::LastNode));
    }

    #[test]
    fn unknown_member_leave_errors() {
        let mut net = CanNetwork::new();
        net.join(coord(0.5, 0.5)).expect("bootstrap");
        assert!(matches!(net.leave(CanId(999)), Err(CanError::UnknownNode { .. })));
    }

    #[test]
    fn routing_reaches_the_owner() {
        let mut net = CanNetwork::new();
        let mut ids = Vec::new();
        for (x, y) in [(0.1, 0.1), (0.9, 0.1), (0.1, 0.9), (0.9, 0.9), (0.5, 0.5)] {
            ids.push(net.join(coord(x, y)).expect("join"));
        }
        let target = coord(0.95, 0.95);
        let owner = net.owner_of(&target).expect("owned");
        for &from in &ids {
            let path = net.route(from, &target).expect("routable");
            assert_eq!(*path.last().expect("non-empty"), owner);
            assert_eq!(path[0], from);
            // Consecutive path members are neighbors.
            for w in path.windows(2) {
                assert!(net.node(w[0]).expect("exists").neighbors.contains(&w[1]));
            }
        }
    }

    #[test]
    fn route_from_owner_is_trivial() {
        let mut net = CanNetwork::new();
        let a = net.join(coord(0.5, 0.5)).expect("bootstrap");
        let path = net.route(a, &coord(0.2, 0.2)).expect("self route");
        assert_eq!(path, vec![a]);
    }

    #[test]
    fn route_from_unknown_member_is_none() {
        let net = CanNetwork::new();
        assert_eq!(net.route(CanId(0), &coord(0.5, 0.5)), None);
    }

    #[test]
    fn route_to_member_reaches_exactly_that_member() {
        let mut net = CanNetwork::new();
        let mut ids = Vec::new();
        for (x, y) in [(0.1, 0.1), (0.9, 0.1), (0.1, 0.9), (0.9, 0.9), (0.4, 0.6)] {
            ids.push(net.join(coord(x, y)).expect("join"));
        }
        for &from in &ids {
            for &to in &ids {
                let path = net.route_to_member(from, to).expect("reachable");
                assert_eq!(path[0], from);
                assert_eq!(*path.last().expect("non-empty"), to);
                let distinct: std::collections::BTreeSet<_> = path.iter().collect();
                assert_eq!(distinct.len(), path.len(), "no member revisited");
            }
        }
    }

    #[test]
    fn route_to_unknown_member_is_none() {
        let mut net = CanNetwork::new();
        let a = net.join(coord(0.5, 0.5)).expect("bootstrap");
        assert_eq!(net.route_to_member(a, CanId(42)), None);
    }

    #[test]
    fn members_own_their_join_coordinate() {
        let mut net = CanNetwork::new();
        let pts = [(0.1, 0.1), (0.9, 0.1), (0.6, 0.7), (0.2, 0.8), (0.52, 0.48)];
        let mut ids = Vec::new();
        for (x, y) in pts {
            ids.push(net.join(coord(x, y)).expect("join"));
        }
        for (&id, (x, y)) in ids.iter().zip(pts) {
            let node = net.node(id).expect("member");
            assert_eq!(node.coord, coord(x, y));
        }
    }
}
