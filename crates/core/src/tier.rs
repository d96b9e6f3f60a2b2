//! The DHT upper tier (Section III-B3): cells joined into a CAN keyed by
//! CID, used for inter-cell routing between actuators.

use crate::addr::{consistent_hash, CellId};
use crate::cells::CellLayout;
use can_dht::{CanId, CanNetwork, Coord};
use wsan_sim::Area;

/// The logical CAN over cells. Each cell owns a CAN zone centered on its
/// (normalized) centroid; the cell's *owner actuator* — the corner with the
/// minimum consistent hash — speaks for the cell in the upper tier.
#[derive(Debug, Clone)]
pub struct DhtTier {
    can: CanNetwork,
    coords: Vec<Coord>,
    owners: Vec<usize>,
}

impl DhtTier {
    /// Builds the tier from a cell layout: cells join the CAN in CID order
    /// at their normalized centroids, so cell `i` is CAN member `i`.
    ///
    /// # Panics
    ///
    /// Panics if the layout has no cells.
    pub fn build(layout: &CellLayout, actuator_ids: &[u64], area: Area) -> Self {
        assert!(!layout.cells.is_empty(), "cannot build a tier over zero cells");
        let mut can = CanNetwork::new();
        let mut coords = Vec::with_capacity(layout.cells.len());
        let mut owners = Vec::with_capacity(layout.cells.len());
        for cell in &layout.cells {
            let coord = Coord::new(cell.centroid.x / area.width, cell.centroid.y / area.height);
            can.join(coord).expect("cell centroids are distinct enough to split zones");
            coords.push(coord);
            let owner = cell
                .corners
                .iter()
                .copied()
                .min_by_key(|&a| consistent_hash(actuator_ids[a]))
                .expect("three corners");
            owners.push(owner);
        }
        DhtTier { can, coords, owners }
    }

    /// Number of cells in the tier.
    pub fn len(&self) -> usize {
        self.can.len()
    }

    /// Whether the tier is empty (never true for a built tier).
    pub fn is_empty(&self) -> bool {
        self.can.is_empty()
    }

    /// The actuator (index into the layout's actuator list) that speaks for
    /// `cell` in the upper tier.
    pub fn owner(&self, cell: CellId) -> usize {
        self.owners[cell.index()]
    }

    /// The CAN coordinate of `cell`.
    pub fn coord(&self, cell: CellId) -> Coord {
        self.coords[cell.index()]
    }

    /// Routes from `from` to `to` through the CAN: returns the sequence of
    /// cells whose owner actuators relay the message, inclusive of both
    /// endpoints ("forwards the message to its neighboring actuator with
    /// the CID closest to the cell's CID").
    pub fn route_cells(&self, from: CellId, to: CellId) -> Option<Vec<CellId>> {
        if from == to {
            return Some(vec![from]);
        }
        let member = |cell: CellId| CanId(u64::from(cell.0));
        let path = self.can.route_to_member(member(from), member(to))?;
        Some(path.into_iter().map(|member| CellId(member.0 as u32)).collect())
    }

    /// The underlying CAN (e.g. for invariant checks in tests).
    pub fn can(&self) -> &CanNetwork {
        &self.can
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::{plan_cells, quincunx};

    fn tier() -> DhtTier {
        let positions = quincunx(500.0, 500.0);
        let ids: Vec<u64> = (0..5).collect();
        let layout = plan_cells(&ids, &positions, 250.0).expect("paper scenario");
        DhtTier::build(&layout, &ids, Area::new(500.0, 500.0))
    }

    #[test]
    fn tier_has_one_member_per_cell() {
        let t = tier();
        assert_eq!(t.len(), 4);
        t.can().check_invariants().expect("CAN invariants");
    }

    #[test]
    fn routes_end_at_destination_cell() {
        let t = tier();
        for from in 0..4u32 {
            for to in 0..4u32 {
                let path = t.route_cells(CellId(from), CellId(to)).expect("routable");
                assert_eq!(path[0], CellId(from));
                assert_eq!(*path.last().expect("non-empty"), CellId(to));
                assert!(path.len() <= 4, "tiny tier routes are short");
            }
        }
    }

    #[test]
    fn self_route_is_trivial() {
        let t = tier();
        assert_eq!(t.route_cells(CellId(2), CellId(2)), Some(vec![CellId(2)]));
    }

    #[test]
    fn owners_are_cell_corners() {
        let positions = quincunx(500.0, 500.0);
        let ids: Vec<u64> = (0..5).collect();
        let layout = plan_cells(&ids, &positions, 250.0).expect("paper scenario");
        let t = DhtTier::build(&layout, &ids, Area::new(500.0, 500.0));
        for cell in &layout.cells {
            assert!(cell.corners.contains(&t.owner(cell.cid)));
        }
    }
}
