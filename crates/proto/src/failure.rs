//! Local failure suspicion: the per-protocol view that replaces the global
//! fault oracle under [`FaultModel::Discovered`](wsan_sim::FaultModel).
//!
//! A [`FailureView`] is a plain data structure protocols embed: it records
//! when each peer was last *heard* (an ACK, a beacon, any received frame)
//! and which peers are currently *suspected* (an ACK timeout, a missed
//! heartbeat). Suspicions age out after a TTL so a transient fault — the
//! simulator's rotating faulty set — does not blacklist a recovered node
//! forever, and any later contact clears the suspicion immediately.
//!
//! Under [`FaultModel::Byzantine`](wsan_sim::FaultModel) the view also
//! accepts *remote accusations* (suspicion gossip) through
//! [`accuse`](FailureView::accuse). Remote evidence is reputation-weighted
//! per accuser and audited against direct contact: an accusation against a
//! node we have just heard from contradicts first-hand evidence, so it is
//! rejected and the accuser's weight is halved. A node becomes suspected
//! on rumor alone only once the *weighted* accusation mass crosses a
//! threshold, so a slandering minority whose weights have decayed cannot
//! evict a healthy node, while corroborated accusers earn their weight
//! back. Everything here is deterministic and derives only from
//! information a deployed node could really have.

use crate::ProtoCtx;
use std::collections::BTreeMap;
use std::fmt::Debug;
use wsan_sim::{DataId, EnergyAccount, FaultModel, HopReason, NodeId, SimDuration, SimTime};

/// Weighted accusation mass at which rumor alone creates a suspicion: a
/// single full-weight accuser can never evict on their own.
pub const ACCUSATION_THRESHOLD: f64 = 2.0;

/// Multiplier applied to an accuser's weight when their accusation is
/// contradicted by fresh direct contact with the accused.
pub const WEIGHT_DECAY: f64 = 0.5;

/// Weight floor: even a serial slanderer keeps a trace of a voice, so a
/// later true accusation is not discarded outright.
pub const MIN_WEIGHT: f64 = 1.0 / 32.0;

/// Outcome of recording a remote accusation via [`FailureView::accuse`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccuseOutcome {
    /// Contradicted by fresh direct contact with the accused; rejected,
    /// and the accuser's reputation weight decayed.
    Audited,
    /// Recorded, but the weighted accusation mass is still below the
    /// eviction threshold.
    Recorded,
    /// The weighted mass crossed the threshold: the accused is now
    /// suspected (a fresh incident, exactly once per crossing).
    Suspected,
}

/// A suspected-node set fed by ACK timeouts and heartbeat silence, cleared
/// by contact, with TTL-based forgiveness and reputation-weighted remote
/// accusations.
#[derive(Debug, Clone)]
pub struct FailureView {
    /// When each currently suspected node was suspected.
    suspected: BTreeMap<NodeId, SimTime>,
    /// When each node was last heard from (any received frame or ACK).
    last_contact: BTreeMap<NodeId, SimTime>,
    /// Standing remote accusations: accused -> accuser -> when.
    accusations: BTreeMap<NodeId, BTreeMap<NodeId, SimTime>>,
    /// Per-accuser reputation weight (absent = 1.0, the default).
    accuser_weights: BTreeMap<NodeId, f64>,
    /// How long a suspicion (or standing accusation) lasts without fresh
    /// evidence.
    ttl: SimDuration,
}

impl FailureView {
    /// Creates an empty view whose suspicions expire after `ttl`.
    pub fn new(ttl: SimDuration) -> Self {
        FailureView {
            suspected: BTreeMap::new(),
            last_contact: BTreeMap::new(),
            accusations: BTreeMap::new(),
            accuser_weights: BTreeMap::new(),
            ttl,
        }
    }

    /// Evidence that `node` is alive right `now`: records the contact and
    /// clears any standing suspicion and accusations against it.
    pub fn contact(&mut self, node: NodeId, now: SimTime) {
        self.last_contact.insert(node, now);
        self.suspected.remove(&node);
        self.accusations.remove(&node);
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
        // Direct evidence corroborates standing accusers: restore their
        // reputation toward full weight.
        let accusers: Vec<NodeId> = self
            .accusations
            .get(&node)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default();
        for accuser in accusers {
            let w = self.weight_of(accuser);
            if w < 1.0 {
                self.accuser_weights.insert(accuser, (w / WEIGHT_DECAY).min(1.0));
            }
        }
        if self.is_suspected(node, now) {
            // Refresh the suspicion clock but report nothing new.
            self.suspected.insert(node, now);
            return false;
        }
        self.suspected.insert(node, now);
        true
    }

    /// A remote accusation from `accuser` that `accused` is down
    /// (suspicion gossip). Audited against direct contact and weighted by
    /// the accuser's reputation; see [`AccuseOutcome`].
    pub fn accuse(&mut self, accuser: NodeId, accused: NodeId, now: SimTime) -> AccuseOutcome {
        if accuser == accused {
            return AccuseOutcome::Recorded;
        }
        // Audit: we heard the accused ourselves within the suspicion TTL,
        // so the rumor contradicts first-hand evidence. Reject it and
        // decay the accuser's reputation.
        if let Some(&heard) = self.last_contact.get(&accused) {
            if now.saturating_since(heard) < self.ttl {
                let w = self.weight_of(accuser);
                self.accuser_weights.insert(accuser, (w * WEIGHT_DECAY).max(MIN_WEIGHT));
                return AccuseOutcome::Audited;
            }
        }
        let entry = self.accusations.entry(accused).or_default();
        entry.insert(accuser, now);
        // Prune expired accusations, then tally the weighted mass.
        let ttl = self.ttl;
        entry.retain(|_, &mut at| now.saturating_since(at) < ttl);
        let mass: f64 = entry
            .keys()
            .map(|a| self.accuser_weights.get(a).copied().unwrap_or(1.0))
            .sum();
        if mass >= ACCUSATION_THRESHOLD && !self.is_suspected(accused, now) {
            self.suspected.insert(accused, now);
            AccuseOutcome::Suspected
        } else {
            AccuseOutcome::Recorded
        }
    }

    /// The reputation weight of `accuser` (1.0 unless decayed by audits).
    pub fn weight_of(&self, accuser: NodeId) -> f64 {
        self.accuser_weights.get(&accuser).copied().unwrap_or(1.0)
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

    /// The nodes suspected right `now` (TTL-unexpired), in ascending id
    /// order — the honest payload of a suspicion-gossip round.
    pub fn suspected_nodes(&self, now: SimTime) -> Vec<NodeId> {
        self.suspected
            .iter()
            .filter(|&(_, &at)| now.saturating_since(at) < self.ttl)
            .map(|(&node, _)| node)
            .collect()
    }

    /// Drops suspicion, contact and reputation state entirely (e.g. on a
    /// role change).
    pub fn clear(&mut self) {
        self.suspected.clear();
        self.last_contact.clear();
        self.accusations.clear();
        self.accuser_weights.clear();
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
    /// [`FaultModel::Discovered`] and [`FaultModel::Byzantine`]: geometry,
    /// the node's own health, and this suspicion view.
    Local(FailureView),
}

impl FailureKnowledge {
    /// The policy `model` prescribes; a local view forgets suspicions after
    /// `ttl`.
    pub fn for_model(model: FaultModel, ttl: SimDuration) -> Self {
        match model {
            FaultModel::Oracle => FailureKnowledge::Oracle,
            FaultModel::Discovered | FaultModel::Byzantine => {
                FailureKnowledge::Local(FailureView::new(ttl))
            }
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

    #[test]
    fn single_accuser_cannot_evict() {
        let mut v = FailureView::new(SimDuration::from_secs(30));
        assert_eq!(v.accuse(NodeId(9), NodeId(1), t(0)), AccuseOutcome::Recorded);
        assert!(!v.is_suspected(NodeId(1), t(0)));
    }

    #[test]
    fn accusation_mass_crosses_threshold_once() {
        let mut v = FailureView::new(SimDuration::from_secs(30));
        assert_eq!(v.accuse(NodeId(9), NodeId(1), t(0)), AccuseOutcome::Recorded);
        assert_eq!(v.accuse(NodeId(8), NodeId(1), t(1)), AccuseOutcome::Suspected);
        assert!(v.is_suspected(NodeId(1), t(1)));
        // A third voice refreshes nothing new.
        assert_eq!(v.accuse(NodeId(7), NodeId(1), t(2)), AccuseOutcome::Recorded);
    }

    #[test]
    fn audited_accusations_decay_the_accuser() {
        let mut v = FailureView::new(SimDuration::from_secs(30));
        // We just heard node 1 ourselves: the accusation is slander.
        v.contact(NodeId(1), t(10));
        assert_eq!(v.accuse(NodeId(9), NodeId(1), t(11)), AccuseOutcome::Audited);
        assert_eq!(v.weight_of(NodeId(9)), 0.5);
        assert_eq!(v.accuse(NodeId(9), NodeId(1), t(12)), AccuseOutcome::Audited);
        assert_eq!(v.weight_of(NodeId(9)), 0.25);
        assert!(!v.is_suspected(NodeId(1), t(12)));
    }

    #[test]
    fn corroborated_accusers_earn_weight_back() {
        let mut v = FailureView::new(SimDuration::from_secs(30));
        v.contact(NodeId(1), t(0));
        assert_eq!(v.accuse(NodeId(9), NodeId(1), t(1)), AccuseOutcome::Audited);
        assert_eq!(v.weight_of(NodeId(9)), 0.5);
        // Much later the same accuser flags node 1 again — and this time
        // our own ACK timeout agrees.
        assert_eq!(v.accuse(NodeId(9), NodeId(1), t(40)), AccuseOutcome::Recorded);
        assert!(v.suspect(NodeId(1), t(41)));
        assert_eq!(v.weight_of(NodeId(9)), 1.0);
    }

    #[test]
    fn accusations_expire_with_the_ttl() {
        let mut v = FailureView::new(SimDuration::from_secs(30));
        assert_eq!(v.accuse(NodeId(9), NodeId(1), t(0)), AccuseOutcome::Recorded);
        // 40 s later the first accusation has lapsed; a second accuser
        // alone is below threshold.
        assert_eq!(v.accuse(NodeId(8), NodeId(1), t(40)), AccuseOutcome::Recorded);
        assert!(!v.is_suspected(NodeId(1), t(40)));
    }

    /// The acceptance comparison: with ≥20% slanderers gossiping against a
    /// healthy, regularly-heard node, raw suspicion counting evicts it
    /// while the reputation-weighted view never does.
    #[test]
    fn reputation_weighting_resists_slander_where_raw_counting_evicts() {
        let ttl = SimDuration::from_secs(30);
        let healthy = NodeId(100);
        // 10 accusers, 2 of them slanderers (20%).
        let slanderers = [NodeId(0), NodeId(1)];
        let mut raw_evictions = 0u32;
        let mut weighted_evictions = 0u32;

        let mut raw = FailureView::new(ttl);
        let mut weighted = FailureView::new(ttl);
        for round in 0..20u64 {
            let now = t(round * 5);
            // The healthy node beacons every round: both views hear it.
            raw.contact(healthy, now);
            weighted.contact(healthy, now);
            let later = SimTime::ZERO + SimDuration::from_secs(round * 5 + 1);
            for &s in &slanderers {
                // Raw counting treats every rumor as a first-hand timeout.
                if raw.suspect(healthy, later) {
                    raw_evictions += 1;
                }
                if weighted.accuse(s, healthy, later) == AccuseOutcome::Suspected {
                    weighted_evictions += 1;
                }
            }
        }
        assert!(
            raw_evictions > 0,
            "raw suspicion counting must evict the healthy node at least once"
        );
        assert_eq!(
            weighted_evictions, 0,
            "reputation-weighted view must never evict the regularly-heard node"
        );
        // The slanderers paid for it.
        for &s in &slanderers {
            assert!(weighted.weight_of(s) < 0.1, "slanderer weight decayed");
        }
    }
}
