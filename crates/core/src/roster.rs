//! Who holds which vertex: the cell rosters and per-node memberships
//! that REFER and the Kautz-overlay baseline both route over, and the one
//! successor walk both route by ([`Roster::first_owner`] over the
//! [`kautz::PlanSet`] that [`crate::routing::route_choices`] orders,
//! [`Roster::regular_owner`]). A vertex changes hands only by
//! [`Roster::assign_kid`], which evicts the previous holder.
//!
//! Inside a cell a vertex is named by its index in the cell graph's
//! [`kautz::ArcTable`] (a `u32`, as the table's successor rows are), not
//! by a [`kautz::KautzId`]: the table answers successors, predecessors
//! and next hops by index, so no hop converts a label back. Labels are
//! rendered only for the edges that print them
//! ([`Roster::roster_entries`]).
//!
//! A [`Roster`] keeps one dense roster per cell (owner by vertex), one
//! membership row per node, and the ascending list of nodes with at least
//! one membership. The vertex index is the mixed-radix rank of the digit
//! word, so ascending index order is ascending KID order — what a walk of
//! a `BTreeMap<KautzId, NodeId>` visited — and every scan below visits
//! entries in the order the trees it replaced did. The proptest
//! `rows_match_the_trees_they_replaced` holds those trees as the
//! reference and checks the rows against them under random assignment,
//! removal and handover scripts.

use kautz::{KautzId, RouteTable, TablePlan};
use refer_proto::{FailureKnowledge, ProtoCtx};
use std::fmt::Debug;
use std::sync::Arc;
use wsan_sim::NodeId;

/// The vertex assignment of every cell (see the module docs).
#[derive(Debug)]
pub struct Roster {
    /// The cell graph `K(d, 3)` every cell embeds.
    table: Arc<RouteTable>,
    /// Per cell, the current owner of each vertex.
    cells: Vec<Vec<Option<NodeId>>>,
    /// Per node (by [`NodeId::index`]), its `(cell, vertex)` memberships
    /// in assignment order; empty for a non-member.
    rows: Vec<Vec<(usize, u32)>>,
    /// The nodes with at least one membership, ascending: what every
    /// "nearest member" scan walks, in the order the ties break in.
    members: Vec<NodeId>,
}

impl Roster {
    /// `cells` empty cells over the graph of `table`, and a row for each of
    /// `nodes` nodes.
    pub fn new(table: Arc<RouteTable>, cells: usize, nodes: usize) -> Self {
        Roster {
            cells: (0..cells).map(|_| vec![None; table.node_count()]).collect(),
            table,
            rows: vec![Vec::new(); nodes],
            members: Vec::new(),
        }
    }

    /// Hands `vertex` of `cell` to `node`, evicting the previous holder.
    pub fn assign_kid(&mut self, cell: usize, vertex: u32, node: NodeId) {
        let prev = self.cells[cell][vertex as usize].replace(node);
        if let Some(prev) = prev {
            self.remove_membership(prev, cell, vertex);
        }
        let row = &mut self.rows[node.index()];
        if row.is_empty() {
            let at = self.members.binary_search(&node).expect_err("no memberships, so not listed");
            self.members.insert(at, node);
        }
        row.push((cell, vertex));
    }

    /// Drops `node`'s membership `(cell, vertex)`, if it has it: the
    /// other half of [`Roster::assign_kid`]'s eviction.
    fn remove_membership(&mut self, node: NodeId, cell: usize, vertex: u32) {
        let row = &mut self.rows[node.index()];
        if row.is_empty() {
            return;
        }
        row.retain(|&m| m != (cell, vertex));
        if row.is_empty() {
            let at = self.members.binary_search(&node).expect("a member is listed");
            self.members.remove(at);
        }
    }

    /// `node`'s `(cell, vertex)` memberships; empty for a non-member and
    /// for an id outside the deployment (a peer's frame can name any id).
    pub fn memberships(&self, node: NodeId) -> &[(usize, u32)] {
        self.rows.get(node.index()).map_or(&[][..], Vec::as_slice)
    }

    /// Whether `node` holds a vertex in any cell.
    pub fn is_member(&self, node: NodeId) -> bool {
        !self.memberships(node).is_empty()
    }

    /// `node`'s vertex in `cell`, if it is a member there.
    pub fn kid_in_cell(&self, node: NodeId, cell: usize) -> Option<u32> {
        self.memberships(node).iter().find(|(c, _)| *c == cell).map(|&(_, v)| v)
    }

    /// Every member, ascending by id.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// The member nearest `from` among those `from` would pick as a next
    /// hop under `knowledge`; the lowest id wins a distance tie.
    pub fn nearest_member<P: Clone + Debug>(
        &self,
        ctx: &impl ProtoCtx<P>,
        knowledge: &FailureKnowledge,
        from: NodeId,
    ) -> Option<NodeId> {
        self.members()
            .iter()
            .filter(|&&m| knowledge.usable(ctx, from, m))
            .map(|&m| (ctx.distance(from, m), m))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .map(|(_, m)| m)
    }

    /// Current owner of `vertex` in `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `vertex` is not a vertex of the cell graph.
    pub fn owner_of(&self, cell: usize, vertex: u32) -> Option<NodeId> {
        self.cells[cell][vertex as usize]
    }

    /// The owners of `vertex`'s Kautz-graph neighbours in `cell`, as
    /// `(neighbour, owner)`: successors, then predecessors, each in
    /// increasing digit order, so a vertex adjacent both ways is listed
    /// twice.
    pub fn neighbor_owners(
        &self,
        cell: usize,
        vertex: u32,
    ) -> impl Iterator<Item = (u32, NodeId)> + '_ {
        let v = vertex as usize;
        let around = self.table.successors(v).iter().copied().chain(self.table.predecessors(v));
        around.filter_map(move |n| Some((n, self.owner_of(cell, n)?)))
    }

    /// The `(cell, neighbour, owner)` triples adjacent to `node` in the
    /// Kautz graphs of every cell it belongs to, owners other than `node`.
    pub fn kautz_neighbor_owners(
        &self,
        node: NodeId,
    ) -> impl Iterator<Item = (usize, u32, NodeId)> + '_ {
        self.memberships(node).iter().flat_map(move |&(cell, vertex)| {
            let owners = self.neighbor_owners(cell, vertex).filter(move |&(_, o)| o != node);
            owners.map(move |(n, owner)| (cell, n, owner))
        })
    }

    /// The successor walk of Section III-C2: the first of `choices` (the
    /// Theorem 3.8 plans, in preference order) whose owner in `cell` is
    /// not `node` and passes `accept`, as `(index into choices, owner,
    /// forced digit)`.
    pub fn first_owner(
        &self,
        cell: usize,
        node: NodeId,
        choices: &[TablePlan],
        mut accept: impl FnMut(NodeId) -> bool,
    ) -> Option<(usize, NodeId, Option<u8>)> {
        choices.iter().enumerate().find_map(|(idx, c)| {
            let n = self.owner_of(cell, c.successor)?;
            (n != node && accept(n)).then_some((idx, n, c.forced_digit))
        })
    }

    /// The Faber–Streib regular successor from vertex `at` toward `dest`
    /// with `appended` of its digits already carried: its owner in `cell`
    /// and the new digit progress, when that owner is not `node` and
    /// passes `accept`.
    pub fn regular_owner(
        &self,
        cell: usize,
        node: NodeId,
        at: u32,
        dest: u32,
        appended: u8,
        accept: impl FnOnce(NodeId) -> bool,
    ) -> Option<(NodeId, u8)> {
        let (succ, appended) = self.table.regular_next(at as usize, dest as usize, appended)?;
        let next = self.owner_of(cell, succ as u32)?;
        (next != node && accept(next)).then_some((next, appended))
    }

    /// `cell`'s roster as `(KID, owner)`, ascending by KID: the labels
    /// rendered for the edges that print them.
    pub fn roster_entries(&self, cell: usize) -> impl Iterator<Item = (KautzId, NodeId)> + '_ {
        let occupied = self.cells[cell].iter().enumerate();
        occupied.filter_map(|(idx, owner)| Some((self.table.id_of(idx), (*owner)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// `cells` empty cells of `K(2, 3)` over `nodes` nodes.
    fn blank(cells: usize, nodes: usize) -> Roster {
        Roster::new(Arc::new(RouteTable::new(2, 3).expect("K(2,3)")), cells, nodes)
    }

    #[test]
    fn assign_kid_moves_ownership() {
        let mut r = blank(1, 9);
        let v = KautzId::parse("010", 2).expect("valid").to_index() as u32;
        r.assign_kid(0, v, NodeId(7));
        assert!(r.is_member(NodeId(7)));
        assert_eq!(r.kid_in_cell(NodeId(7), 0), Some(v));
        // Reassignment evicts the previous holder.
        r.assign_kid(0, v, NodeId(8));
        assert!(!r.is_member(NodeId(7)));
        assert_eq!(r.owner_of(0, v), Some(NodeId(8)));
        assert_eq!(r.members(), [NodeId(8)]);
    }

    #[test]
    fn ids_outside_the_deployment_are_not_members() {
        // A peer's frame can name any id; the trees answered "unknown".
        let r = blank(1, 4);
        assert!(!r.is_member(NodeId(4)));
        assert!(!r.is_member(NodeId(u32::MAX)));
        assert_eq!(r.kid_in_cell(NodeId(u32::MAX), 0), None);
    }

    // Random assignment / removal / handover scripts against the trees the
    // rows replaced: the member list must be the membership tree's keys in
    // order, each roster the KID tree's entries in order, each row the
    // tree's value.
    proptest! {
        #[test]
        fn rows_match_the_trees_they_replaced(
            script in prop::collection::vec((0u8..3, 0usize..3, 0u32..12, 0u32..10), 0..120)
        ) {
            let mut r = blank(3, 10);
            let mut member_cells: BTreeMap<NodeId, Vec<(usize, u32)>> = BTreeMap::new();
            let mut rosters: Vec<BTreeMap<KautzId, NodeId>> = vec![BTreeMap::new(); 3];
            let forget = |tree: &mut BTreeMap<NodeId, Vec<(usize, u32)>>, node, cell, v| {
                if let Some(ms) = tree.get_mut(&node) {
                    ms.retain(|&m| m != (cell, v));
                    if ms.is_empty() {
                        tree.remove(&node);
                    }
                }
            };
            for (op, cell, v, node) in script {
                let (kid, node) = (r.table.id_of(v as usize), NodeId(node));
                match op {
                    // Assignment (and healing: the previous holder is evicted).
                    0 => {
                        r.assign_kid(cell, v, node);
                        if let Some(prev) = rosters[cell].insert(kid, node) {
                            forget(&mut member_cells, prev, cell, v);
                        }
                        member_cells.entry(node).or_default().push((cell, v));
                    }
                    1 => {
                        r.remove_membership(node, cell, v);
                        forget(&mut member_cells, node, cell, v);
                    }
                    // Handover: the current holder resigns, then hands on.
                    _ => {
                        if let Some(&holder) = rosters[cell].get(&kid) {
                            r.remove_membership(holder, cell, v);
                            forget(&mut member_cells, holder, cell, v);
                            r.assign_kid(cell, v, node);
                            rosters[cell].insert(kid, node);
                            member_cells.entry(node).or_default().push((cell, v));
                        }
                    }
                }
                prop_assert!(r.members().iter().eq(member_cells.keys()));
            }
            for (cell, tree) in rosters.iter().enumerate() {
                prop_assert!(r.roster_entries(cell).eq(tree.iter().map(|(k, n)| (*k, *n))));
                for (&kid, &node) in tree {
                    prop_assert_eq!(r.owner_of(cell, kid.to_index() as u32), Some(node));
                }
            }
            for node in (0..10).map(NodeId) {
                let expected = member_cells.get(&node).map_or(&[][..], Vec::as_slice);
                prop_assert_eq!(r.memberships(node), expected);
                prop_assert_eq!(r.is_member(node), !expected.is_empty());
            }
        }
    }
}
