//! Local failure suspicion: the per-protocol view that replaces the global
//! fault oracle under [`FaultModel::Discovered`](wsan_sim::FaultModel).
//!
//! A [`FailureView`] is a plain data structure protocols embed: it records
//! when each peer was last *heard* (an ACK, a beacon, any received frame)
//! and which peers are currently *suspected* (an ACK timeout, a missed
//! heartbeat). Suspicions age out after a TTL so a transient fault — the
//! simulator's rotating faulty set — does not blacklist a recovered node
//! forever, and any later contact clears the suspicion immediately.
//! Everything here is deterministic and derives only from information a
//! deployed node could really have: its own contacts and timeouts.

use crate::ProtoCtx;
use std::collections::BTreeMap;
use std::fmt::Debug;
use wsan_sim::{DataId, EnergyAccount, FaultModel, HopReason, NodeId, SimDuration, SimTime};

/// A suspected-node set fed by ACK timeouts and heartbeat silence, cleared
/// by contact, with TTL-based forgiveness.
#[derive(Debug, Clone)]
pub struct FailureView {
    /// When each currently suspected node was suspected.
    suspected: BTreeMap<NodeId, SimTime>,
    /// When each node was last heard from (any received frame or ACK).
    last_contact: BTreeMap<NodeId, SimTime>,
    /// How long a suspicion lasts without fresh evidence.
    ttl: SimDuration,
}

impl FailureView {
    /// Creates an empty view whose suspicions expire after `ttl`.
    pub fn new(ttl: SimDuration) -> Self {
        FailureView {
            suspected: BTreeMap::new(),
            last_contact: BTreeMap::new(),
            ttl,
        }
    }

    /// Evidence that `node` is alive right `now`: records the contact and
    /// clears any standing suspicion of it.
    pub fn contact(&mut self, node: NodeId, now: SimTime) {
        self.last_contact.insert(node, now);
        self.suspected.remove(&node);
    }

    /// Evidence that `node` may be down (ACK timeout, missed heartbeat).
    /// Returns `true` when this is a *new* suspicion (callers use that to
    /// record detection metrics exactly once per incident).
    ///
    /// A contact in the same tick wins deterministically: first-hand proof
    /// of life at time `now` vetoes a suspicion raised at `now`, whichever
    /// order the two events are processed in.
    pub fn suspect(&mut self, node: NodeId, now: SimTime) -> bool {
        if self.last_contact.get(&node) == Some(&now) {
            return false;
        }
        if self.is_suspected(node, now) {
            // Refresh the suspicion clock but report nothing new.
            self.suspected.insert(node, now);
            return false;
        }
        self.suspected.insert(node, now);
        true
    }

    /// Whether `node` is currently suspected. A suspicion recorded exactly
    /// `ttl` ago has expired (strict inequality): the node gets the
    /// benefit of the doubt the moment its sentence is served.
    pub fn is_suspected(&self, node: NodeId, now: SimTime) -> bool {
        match self.suspected.get(&node) {
            Some(&at) => now.saturating_since(at) < self.ttl,
            None => false,
        }
    }

    /// When `node` was last heard from, if ever.
    pub fn last_contact(&self, node: NodeId) -> Option<SimTime> {
        self.last_contact.get(&node).copied()
    }

    /// Whether `node` has been silent for longer than `timeout` since its
    /// last contact (nodes never heard from are not stale — there is no
    /// evidence either way).
    pub fn stale(&self, node: NodeId, now: SimTime, timeout: SimDuration) -> bool {
        match self.last_contact.get(&node) {
            Some(&at) => now.saturating_since(at) > timeout,
            None => false,
        }
    }

    /// Drops suspicion and contact state entirely (e.g. on a role change).
    pub fn clear(&mut self) {
        self.suspected.clear();
        self.last_contact.clear();
    }
}

/// A protocol's failure-knowledge policy, fixed by the run's
/// [`FaultModel`]: the simulator's oracles, or local knowledge only. Every
/// "is this peer up?" decision of a protocol goes through one of these, so
/// the rule lives here and nowhere else.
#[derive(Debug)]
pub enum FailureKnowledge {
    /// [`FaultModel::Oracle`]: the link and fault oracles answer (and the
    /// simulator counts each consultation).
    Oracle,
    /// [`FaultModel::Discovered`]: geometry, the node's own health, and
    /// this suspicion view.
    Local(FailureView),
}

impl FailureKnowledge {
    /// The policy `model` prescribes; a local view forgets suspicions after
    /// `ttl`.
    pub fn for_model(model: FaultModel, ttl: SimDuration) -> Self {
        match model {
            FaultModel::Oracle => FailureKnowledge::Oracle,
            FaultModel::Discovered => FailureKnowledge::Local(FailureView::new(ttl)),
        }
    }

    /// Whether the policy is local knowledge (frames then ride the
    /// link-layer ACK machinery, and failures surface as expiries).
    pub fn is_local(&self) -> bool {
        matches!(self, FailureKnowledge::Local(_))
    }

    /// Sends `payload`, a data frame of packet `data`, from `from` to `to`
    /// as a `reason` hop, sized from the packet record. Under local
    /// knowledge it rides the link-layer ACK machinery, failures surface
    /// in `on_send_expired` and the call always succeeds; under the oracle
    /// it is a plain send whose boolean is the MAC outcome.
    pub fn send_data<P: Clone + Debug>(
        &self,
        ctx: &mut impl ProtoCtx<P>,
        from: NodeId,
        to: NodeId,
        data: DataId,
        reason: HopReason,
        payload: P,
    ) -> bool {
        ctx.trace_hop(data, from, to, reason);
        let size = ctx.data_size_bits(data).unwrap_or(ctx.config().traffic.packet_bits);
        if self.is_local() {
            ctx.send_acked(from, to, size, EnergyAccount::Communication, payload);
            true
        } else {
            ctx.send(from, to, size, EnergyAccount::Communication, payload)
        }
    }

    /// Whether `a` would pick `b` as a next hop: the link oracle, or local
    /// knowledge only — `a`'s own health, the suspicion view and geometry.
    /// The two agree whenever the view is accurate.
    pub fn usable<P: Clone + Debug>(&self, ctx: &impl ProtoCtx<P>, a: NodeId, b: NodeId) -> bool {
        match self {
            FailureKnowledge::Oracle => ctx.link_ok(a, b),
            FailureKnowledge::Local(view) => {
                a != b
                    && !ctx.self_faulty(a)
                    && !view.is_suspected(b, ctx.now())
                    && ctx.in_range(a, b)
            }
        }
    }

    /// Whether `node` is presumed alive: the fault oracle, or the
    /// suspicion view.
    pub fn presumed_alive<P: Clone + Debug>(&self, ctx: &impl ProtoCtx<P>, node: NodeId) -> bool {
        match self {
            FailureKnowledge::Oracle => !ctx.is_faulty(node),
            FailureKnowledge::Local(view) => !view.is_suspected(node, ctx.now()),
        }
    }

    /// Raises a suspicion against `peer` (an ACK timeout, a missed
    /// heartbeat), recording the detection metric only for a fresh
    /// incident. The oracle needs no suspicions: a no-op.
    pub fn suspect<P: Clone + Debug>(&mut self, ctx: &mut impl ProtoCtx<P>, peer: NodeId) {
        if let FailureKnowledge::Local(view) = self {
            if view.suspect(peer, ctx.now()) {
                ctx.record_suspicion(peer);
            }
        }
    }

    /// Evidence that `peer` is alive right now (an ACK, any received
    /// frame). A no-op under the oracle.
    pub fn contact<P: Clone + Debug>(&mut self, ctx: &impl ProtoCtx<P>, peer: NodeId) {
        if let FailureKnowledge::Local(view) = self {
            view.contact(peer, ctx.now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn suspicion_is_cleared_by_contact() {
        let mut v = FailureView::new(SimDuration::from_secs(30));
        assert!(v.suspect(NodeId(1), t(0)));
        assert!(v.is_suspected(NodeId(1), t(1)));
        v.contact(NodeId(1), t(2));
        assert!(!v.is_suspected(NodeId(1), t(2)));
    }

    #[test]
    fn repeated_suspicion_reports_new_only_once() {
        let mut v = FailureView::new(SimDuration::from_secs(30));
        assert!(v.suspect(NodeId(7), t(0)));
        assert!(!v.suspect(NodeId(7), t(1)));
        // After the TTL lapses the node gets the benefit of the doubt and
        // a later timeout is a fresh incident.
        assert!(!v.is_suspected(NodeId(7), t(40)));
        assert!(v.suspect(NodeId(7), t(40)));
    }

    #[test]
    fn staleness_requires_prior_contact() {
        let mut v = FailureView::new(SimDuration::from_secs(30));
        assert!(!v.stale(NodeId(3), t(100), SimDuration::from_secs(10)));
        v.contact(NodeId(3), t(0));
        assert!(!v.stale(NodeId(3), t(5), SimDuration::from_secs(10)));
        assert!(v.stale(NodeId(3), t(11), SimDuration::from_secs(10)));
    }

    #[test]
    fn suspicion_exactly_ttl_old_has_expired() {
        let mut v = FailureView::new(SimDuration::from_secs(30));
        assert!(v.suspect(NodeId(1), t(0)));
        assert!(v.is_suspected(NodeId(1), t(29)));
        // The boundary: a suspicion recorded exactly `ttl` ago is over.
        assert!(!v.is_suspected(NodeId(1), t(30)));
        // And a fresh timeout right then is a brand-new incident.
        assert!(v.suspect(NodeId(1), t(30)));
    }

    #[test]
    fn same_tick_contact_beats_suspicion_in_either_order() {
        // Contact first, then a suspicion in the same tick: vetoed.
        let mut v = FailureView::new(SimDuration::from_secs(30));
        v.contact(NodeId(5), t(10));
        assert!(!v.suspect(NodeId(5), t(10)));
        assert!(!v.is_suspected(NodeId(5), t(10)));
        // Suspicion first, then contact in the same tick: cleared.
        let mut v = FailureView::new(SimDuration::from_secs(30));
        assert!(v.suspect(NodeId(5), t(10)));
        v.contact(NodeId(5), t(10));
        assert!(!v.is_suspected(NodeId(5), t(10)));
        // Either way the end state is identical: not suspected.
    }
}
