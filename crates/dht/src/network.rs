//! The CAN network: membership by join, neighbor sets, and greedy
//! coordinate routing.

use crate::error::CanError;
use crate::space::{Coord, Zone};
use std::fmt;

/// Identifier of a CAN member node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanId(pub u64);

impl fmt::Display for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "can{}", self.0)
    }
}

/// One CAN member: the zone it owns and its current neighbor set.
#[derive(Debug, Clone)]
pub struct CanNode {
    /// The coordinate the member joined at. Usually inside `zone`; see
    /// [`CanNetwork::join`] for when it is not.
    pub coord: Coord,
    /// The zone this member owns.
    pub zone: Zone,
    /// Members owning zones adjacent to this node's zone.
    pub neighbors: Vec<CanId>,
}

/// A Content-Addressable Network over the unit square.
///
/// This is a *logical* structure: it tracks who owns which zone and who
/// neighbors whom, exactly as the distributed protocol would converge to.
/// REFER drives it with actuator CIDs; the simulator charges energy for the
/// messages separately. Members only join, so each owns exactly one zone
/// and member `CanId(i)` is the `i`-th successful join.
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
    /// Members, indexed by `CanId.0`.
    nodes: Vec<CanNode>,
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

    /// Iterates over members and their state, in ascending id order.
    pub fn nodes(&self) -> impl Iterator<Item = (CanId, &CanNode)> {
        self.nodes.iter().enumerate().map(|(i, n)| (CanId(i as u64), n))
    }

    /// The member state for `id`.
    pub fn node(&self, id: CanId) -> Option<&CanNode> {
        self.nodes.get(usize::try_from(id.0).ok()?)
    }

    /// The member whose zone contains `c`.
    pub fn owner_of(&self, c: &Coord) -> Option<CanId> {
        self.nodes().find(|(_, n)| n.zone.contains(c)).map(|(id, _)| id)
    }

    /// Joins a new member at coordinate `c`: the current owner's zone is
    /// split in half and one half handed over (the CAN join protocol). The
    /// first join takes the whole space.
    ///
    /// # Errors
    ///
    /// Returns [`CanError::ZoneTooSmall`] if the zone containing `c` has
    /// been split below the resolution floor (guards pathological inputs).
    /// A refused join changes nothing: the next join gets the id this one
    /// would have had.
    pub fn join(&mut self, c: Coord) -> Result<CanId, CanError> {
        let id = CanId(self.nodes.len() as u64);
        if self.nodes.is_empty() {
            self.nodes.push(CanNode { coord: c, zone: Zone::UNIT, neighbors: Vec::new() });
            return Ok(id);
        }
        let owner = self.owner_of(&c).expect("zones tile the space");
        let owner = &mut self.nodes[owner.0 as usize];
        let zone = owner.zone;
        if zone.area() < 1e-12 {
            return Err(CanError::ZoneTooSmall { zone });
        }
        let (half_a, half_b) = zone.split();
        // The owner keeps the half containing its own coordinate and the
        // joiner takes the other, even when that other half misses the
        // joiner's coordinate (both points fell in one half). Such a joiner
        // later owns a zone without its coordinate; when that zone splits,
        // the joiner there takes the half containing *its* coordinate.
        let owner_keeps_a = if half_a.contains(&owner.coord) {
            true
        } else if half_b.contains(&owner.coord) {
            false
        } else {
            !half_a.contains(&c)
        };
        let (kept, given) =
            if owner_keeps_a { (half_a, half_b) } else { (half_b, half_a) };
        owner.zone = kept;
        self.nodes.push(CanNode { coord: c, zone: given, neighbors: Vec::new() });
        self.rebuild_neighbors();
        Ok(id)
    }

    /// Greedy CAN routing from member `from` toward coordinate `target`:
    /// repeatedly forward to the neighbor closest to the target. Returns
    /// the member path ending at the owner of `target`, or `None` if `from`
    /// is not a member or the route stalls (cannot happen while zones tile
    /// the space, but the API stays total).
    pub fn route(&self, from: CanId, target: &Coord) -> Option<Vec<CanId>> {
        self.route_until(from, target, |id| self.nodes[id.0 as usize].zone.contains(target))
    }

    /// Routes from member `from` to member `to`, targeting the center of
    /// `to`'s zone. This is the inter-cell primitive REFER uses: the
    /// destination is a *member* (cell), not an abstract coordinate.
    pub fn route_to_member(&self, from: CanId, to: CanId) -> Option<Vec<CanId>> {
        let target = self.node(to)?.zone.center();
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
        self.node(at)?;
        let mut path = vec![at];
        while !done(at) {
            let distance = |id: CanId| self.nodes[id.0 as usize].zone.distance_to(target);
            at = self.nodes[at.0 as usize]
                .neighbors
                .iter()
                .copied()
                .filter(|n| !path.contains(n))
                .min_by(|&a, &b| distance(a).total_cmp(&distance(b)))?;
            path.push(at);
        }
        Some(path)
    }

    /// Recomputes every member's neighbor set from zone adjacency. The
    /// distributed protocol maintains these incrementally through UPDATE
    /// messages; the logical structure recomputes for simplicity (member
    /// counts here are small — REFER runs one member per cell).
    fn rebuild_neighbors(&mut self) {
        let zones: Vec<Zone> = self.nodes.iter().map(|n| n.zone).collect();
        for (a, node) in self.nodes.iter_mut().enumerate() {
            node.neighbors = (0..zones.len())
                .filter(|&b| b != a && zones[a].is_neighbor(&zones[b]))
                .map(|b| CanId(b as u64))
                .collect();
        }
    }

    /// Verifies the structural invariants: zones tile the unit square
    /// (areas sum to 1 and no two zones overlap) and neighbor sets are
    /// symmetric. Used by tests; cheap enough to call in debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.is_empty() {
            return Ok(());
        }
        let total: f64 = self.nodes.iter().map(|n| n.zone.area()).sum();
        if (total - 1.0).abs() > 1e-9 {
            return Err(format!("zone areas sum to {total}, not 1"));
        }
        for (ida, a) in self.nodes() {
            for (idb, b) in self.nodes().skip(ida.0 as usize + 1) {
                let (za, zb) = (a.zone, b.zone);
                let x_overlap = (za.hi_x.min(zb.hi_x) - za.lo_x.max(zb.lo_x)).max(0.0);
                let y_overlap = (za.hi_y.min(zb.hi_y) - za.lo_y.max(zb.lo_y)).max(0.0);
                if x_overlap > 1e-12 && y_overlap > 1e-12 {
                    return Err(format!("zones overlap: {ida}:{za} and {idb}:{zb}"));
                }
            }
        }
        for (a, node) in self.nodes() {
            for &b in &node.neighbors {
                let Some(other) = self.node(b) else {
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
    fn a_refused_join_uses_up_no_id() {
        let mut net = CanNetwork::new();
        let c = coord(0.3, 0.3);
        // Every join at one point halves the zone holding it, until that
        // zone is below the split floor.
        let zone = loop {
            if let Err(CanError::ZoneTooSmall { zone }) = net.join(c) {
                break zone;
            }
        };
        assert!(zone.contains(&c));
        let len = net.len();
        assert_eq!(net.join(coord(0.9, 0.9)), Ok(CanId(len as u64)));
        assert_eq!(net.len(), len + 1);
        net.check_invariants().expect("invariants");
    }

    #[test]
    fn a_joiner_outside_its_zone_hands_over_the_half_with_the_new_point() {
        let mut net = CanNetwork::new();
        net.join(coord(0.1, 0.1)).expect("bootstrap");
        // Both points lie in the left half: the bootstrap keeps it, and the
        // joiner gets the right half without its own coordinate.
        let b = net.join(coord(0.12, 0.1)).expect("join b");
        assert!(!net.node(b).expect("b").zone.contains(&coord(0.12, 0.1)));
        // b's zone splits with b's coordinate in neither half.
        let c = net.join(coord(0.7, 0.3)).expect("join c");
        assert_eq!(net.owner_of(&coord(0.7, 0.3)), Some(c));
        net.check_invariants().expect("invariants");
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
