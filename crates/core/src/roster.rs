//! Who holds which KID: the cell rosters and per-node memberships that
//! REFER and the Kautz-overlay baseline both route over.
//!
//! A [`Roster`] keeps one dense roster per cell (owner by
//! [`kautz::KautzId::to_index`]), one membership row per node, and the
//! ascending list of nodes with at least one membership. The dense index
//! is the mixed-radix rank of the digit word, so ascending index order is
//! ascending KID order — what a walk of a `BTreeMap<KautzId, NodeId>`
//! visited — and every scan below visits entries in the order the trees
//! it replaced did.
//!
//! Debug builds carry those trees (`ShadowTrees`) as the reference:
//! every membership test, member scan and roster lookup asserts that the
//! rows and the trees agree — on content and, where a tree was iterated,
//! on order — so each debug-profile simulation of either protocol is a
//! layout ≡ trees proof. Release builds compile them out.

use kautz::{KautzId, RouteTable};
use refer_proto::{FailureKnowledge, ProtoCtx};
#[cfg(debug_assertions)]
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::sync::Arc;
use wsan_sim::NodeId;

#[cfg(debug_assertions)]
const SHADOW_MISMATCH: &str = "roster rows and their shadow trees disagree";

/// The KID assignment of every cell (see the module docs).
#[derive(Debug)]
pub struct Roster {
    /// The cell graph `K(d, 3)` every cell embeds: dense index <-> KID.
    table: Arc<RouteTable>,
    /// Per cell, the current owner of each KID by dense index.
    cells: Vec<Vec<Option<NodeId>>>,
    /// Per node (by [`NodeId::index`]), its `(cell, KID)` memberships in
    /// assignment order; empty for a non-member.
    rows: Vec<Vec<(usize, KautzId)>>,
    /// The nodes with at least one membership, ascending: what every
    /// "nearest member" scan walks, in the order the ties break in.
    members: Vec<NodeId>,
    #[cfg(debug_assertions)]
    shadow: ShadowTrees,
}

/// The trees the dense rosters and membership rows replaced, kept by debug
/// builds as the reference (see the module docs).
#[cfg(debug_assertions)]
#[derive(Debug)]
struct ShadowTrees {
    member_cells: BTreeMap<NodeId, Vec<(usize, KautzId)>>,
    rosters: Vec<BTreeMap<KautzId, NodeId>>,
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
            #[cfg(debug_assertions)]
            shadow: ShadowTrees {
                member_cells: BTreeMap::new(),
                rosters: vec![BTreeMap::new(); cells],
            },
        }
    }

    /// Hands `kid` of `cell` to `node`, evicting the previous holder.
    pub fn assign_kid(&mut self, cell: usize, kid: KautzId, node: NodeId) {
        let Some(idx) = self.table.index_of(&kid) else {
            debug_assert!(false, "{kid} does not label the cell graph");
            return;
        };
        let prev = self.cells[cell][idx].replace(node);
        #[cfg(debug_assertions)]
        assert_eq!(prev, self.shadow.rosters[cell].insert(kid, node), "{SHADOW_MISMATCH}");
        if let Some(prev) = prev {
            self.remove_membership(prev, cell, &kid);
        }
        let row = &mut self.rows[node.index()];
        if row.is_empty() {
            let at = self.members.binary_search(&node).expect_err("no memberships, so not listed");
            self.members.insert(at, node);
        }
        row.push((cell, kid));
        #[cfg(debug_assertions)]
        self.shadow.member_cells.entry(node).or_default().push((cell, kid));
    }

    /// Drops `node`'s membership `(cell, kid)`, if it has it. The roster
    /// entry is the caller's to hand on.
    pub fn remove_membership(&mut self, node: NodeId, cell: usize, kid: &KautzId) {
        let row = &mut self.rows[node.index()];
        if row.is_empty() {
            return;
        }
        row.retain(|(c, k)| !(*c == cell && k == kid));
        if row.is_empty() {
            let at = self.members.binary_search(&node).expect("a member is listed");
            self.members.remove(at);
        }
        #[cfg(debug_assertions)]
        if let Some(ms) = self.shadow.member_cells.get_mut(&node) {
            ms.retain(|(c, k)| !(*c == cell && k == kid));
            if ms.is_empty() {
                self.shadow.member_cells.remove(&node);
            }
        }
    }

    /// `node`'s `(cell, KID)` memberships; empty for a non-member and for
    /// an id outside the deployment (a peer's frame can name any id).
    pub fn memberships(&self, node: NodeId) -> &[(usize, KautzId)] {
        let found = self.rows.get(node.index()).map_or(&[][..], Vec::as_slice);
        #[cfg(debug_assertions)]
        assert_eq!(
            found,
            self.shadow.member_cells.get(&node).map_or(&[][..], Vec::as_slice),
            "{SHADOW_MISMATCH}"
        );
        found
    }

    /// Whether `node` holds a KID in any cell.
    pub fn is_member(&self, node: NodeId) -> bool {
        !self.memberships(node).is_empty()
    }

    /// `node`'s KID in `cell`, if it is a member there.
    pub fn kid_in_cell(&self, node: NodeId, cell: usize) -> Option<KautzId> {
        self.memberships(node).iter().find(|(c, _)| *c == cell).map(|(_, k)| *k)
    }

    /// Every member, ascending by id.
    pub fn members(&self) -> &[NodeId] {
        #[cfg(debug_assertions)]
        assert!(self.members.iter().eq(self.shadow.member_cells.keys()), "{SHADOW_MISMATCH}");
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
            .min_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"))
            .map(|(_, m)| m)
    }

    /// Current owner of the KID with dense index `idx` in `cell`.
    pub fn owner_at(&self, cell: usize, idx: usize) -> Option<NodeId> {
        let found = self.cells[cell][idx];
        #[cfg(debug_assertions)]
        assert_eq!(
            found,
            self.shadow.rosters[cell].get(&self.table.id_of(idx)).copied(),
            "{SHADOW_MISMATCH}"
        );
        found
    }

    /// Current owner of `kid` in `cell`.
    pub fn owner_of(&self, cell: usize, kid: &KautzId) -> Option<NodeId> {
        self.owner_at(cell, self.table.index_of(kid)?)
    }

    /// `cell`'s roster as `(KID, owner)`, ascending by KID.
    pub fn roster_entries(&self, cell: usize) -> impl Iterator<Item = (KautzId, NodeId)> + '_ {
        let entries = move || {
            let occupied = self.cells[cell].iter().enumerate();
            occupied.filter_map(|(idx, owner)| Some((self.table.id_of(idx), (*owner)?)))
        };
        #[cfg(debug_assertions)]
        assert!(
            entries().eq(self.shadow.rosters[cell].iter().map(|(k, n)| (*k, *n))),
            "{SHADOW_MISMATCH}"
        );
        entries()
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
        let kid = KautzId::parse("010", 2).expect("valid");
        r.assign_kid(0, kid, NodeId(7));
        assert!(r.is_member(NodeId(7)));
        assert_eq!(r.kid_in_cell(NodeId(7), 0), Some(kid));
        // Reassignment evicts the previous holder.
        r.assign_kid(0, kid, NodeId(8));
        assert!(!r.is_member(NodeId(7)));
        assert_eq!(r.owner_of(0, &kid), Some(NodeId(8)));
        assert_eq!(r.members(), [NodeId(8)]);
    }

    /// The shadow trees must notice a row that answers differently from
    /// the tree it replaced (here: a membership lost from the row).
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "roster rows and their shadow trees disagree")]
    fn shadow_catches_a_planted_disagreement() {
        let mut r = blank(1, 4);
        r.assign_kid(0, KautzId::parse("010", 2).expect("valid"), NodeId(3));
        r.rows[3].clear();
        r.is_member(NodeId(3));
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
    // rows replaced, held explicitly so the comparison also runs in release
    // test builds (where the shadow is compiled out): the member list must
    // be the membership tree's keys in order, each roster the KID tree's
    // entries in order, each row the tree's value.
    proptest! {
        #[test]
        fn rows_match_the_trees_they_replaced(
            script in prop::collection::vec((0u8..3, 0usize..3, 0usize..12, 0u32..10), 0..120)
        ) {
            let mut r = blank(3, 10);
            let mut member_cells: BTreeMap<NodeId, Vec<(usize, KautzId)>> = BTreeMap::new();
            let mut rosters: Vec<BTreeMap<KautzId, NodeId>> = vec![BTreeMap::new(); 3];
            let forget = |tree: &mut BTreeMap<NodeId, Vec<(usize, KautzId)>>, node, cell, kid| {
                if let Some(ms) = tree.get_mut(&node) {
                    ms.retain(|&(c, k)| (c, k) != (cell, kid));
                    if ms.is_empty() {
                        tree.remove(&node);
                    }
                }
            };
            for (op, cell, idx, node) in script {
                let (kid, node) = (r.table.id_of(idx), NodeId(node));
                match op {
                    // Assignment (and healing: the previous holder is evicted).
                    0 => {
                        r.assign_kid(cell, kid, node);
                        if let Some(prev) = rosters[cell].insert(kid, node) {
                            forget(&mut member_cells, prev, cell, kid);
                        }
                        member_cells.entry(node).or_default().push((cell, kid));
                    }
                    1 => {
                        r.remove_membership(node, cell, &kid);
                        forget(&mut member_cells, node, cell, kid);
                    }
                    // Handover: the current holder resigns, then hands on.
                    _ => {
                        if let Some(&holder) = rosters[cell].get(&kid) {
                            r.remove_membership(holder, cell, &kid);
                            forget(&mut member_cells, holder, cell, kid);
                            r.assign_kid(cell, kid, node);
                            rosters[cell].insert(kid, node);
                            member_cells.entry(node).or_default().push((cell, kid));
                        }
                    }
                }
                prop_assert!(r.members().iter().eq(member_cells.keys()));
            }
            for (cell, tree) in rosters.iter().enumerate() {
                prop_assert!(r.roster_entries(cell).eq(tree.iter().map(|(k, n)| (*k, *n))));
                for (&kid, &node) in tree {
                    prop_assert_eq!(r.owner_of(cell, &kid), Some(node));
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
