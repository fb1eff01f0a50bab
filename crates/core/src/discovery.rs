//! Seller advertisement & discovery: the scale-out routing plane.
//!
//! The paper's protocol (§3.2) broadcasts every RFB to the whole federation,
//! so message cost grows linearly in sellers and the buyer melts first —
//! the wall every experiment hit at 16 nodes. This module adds the pieces
//! that make fan-out *sub-linear*:
//!
//! * **Advertisements** — each seller summarizes the relations it can bid on
//!   (holdings ∪ materialized-view definitions) as a 64-bit [`digest`]
//!   (`RelSet`-style bitmask, relations hashed `rel.0 % 64`, so collisions
//!   only ever *over*-route — a false positive costs one wasted RFB, a false
//!   negative can never lose a bid).
//! * **Broker tree** — sellers are grouped under regional brokers
//!   ([`BrokerTree::build`]); each broker holds the OR of its children's
//!   digests and registers *that* with its parent. The buyer fans an RFB out
//!   to the brokers whose digest intersects the round's items; each broker
//!   scopes the forward to the matching children, collects the replies, and
//!   sends one aggregated answer upward — the buyer sees O(regions)
//!   messages, not O(sellers). Aggregation keeps every offer, so scoped
//!   runs are bit-identical to flat broadcast whenever digests are exact —
//!   the property `crates/core/tests/discovery.rs` holds by proptest.
//! * **One fan-out round** — the buyer and every broker hold a `Region`
//!   (children, their ads and seller descendants, promotions, the down set)
//!   and one `Gather` per open round (recipients, replies, attempts): the
//!   scoping, reply acceptance, laggard set, standby re-pointing, region
//!   swap and `(seller, offer id)` merge are written once, here.
//! * **Top-k Pareto pruning** — [`prune_offers`] keeps only the `k`
//!   cheapest offers per (item, offer kind) in deterministic
//!   `(cost bits, seller, offer id)` order. No broker applies it.
//!
//! Advertisement is membership: a child a broker has never heard from has an
//! empty digest and receives nothing, and a child that stops answering is
//! marked down and routed around until it advertises again (see
//! [`crate::broker`]). Churn therefore composes with the
//! `FaultPlan` crash machinery — a crashed-from-boot node joins the
//! federation the moment its first advertisement lands.

use crate::offer::{Offer, RfbItem};
use crate::seller::SellerEngine;
use qt_catalog::{NodeId, RelId};
use qt_query::Query;
use std::collections::{BTreeMap, BTreeSet};

/// The digest bit for one relation. Coarse on purpose: federations with more
/// than 64 relations fold onto shared bits, which can only widen routing.
pub fn rel_bit(rel: RelId) -> u64 {
    1u64 << (rel.0 as u64 % 64)
}

/// Digest of a set of relations.
pub fn digest<I: IntoIterator<Item = RelId>>(rels: I) -> u64 {
    rels.into_iter().fold(0u64, |d, r| d | rel_bit(r))
}

/// Digest of the relations a query touches.
pub fn query_digest(q: &Query) -> u64 {
    digest(q.rel_ids())
}

/// The relations `engine` can produce offers for: everything it holds a
/// partition of, plus everything its materialized views are defined over.
/// This is exactly the offer-construction surface with subcontracting off —
/// an RFB item disjoint from this digest draws no offer from the seller, so
/// scoping it away is lossless.
pub fn seller_digest(engine: &SellerEngine) -> u64 {
    let mut d = digest(engine.holdings.held.keys().map(|p| p.rel));
    for v in &engine.views {
        d |= query_digest(&v.query);
    }
    d
}

/// One advertisement: `(advertiser, digest, epoch)`. Epochs increase
/// monotonically per advertiser; stale re-deliveries are ignored.
pub type SellerAd = (NodeId, u64, u64);

/// The children one fan-out node routes to — the buyer's, or a broker's —
/// with what it knows about them. The buyer and every broker hold one, and
/// swap a failed child region for its promoted standby the same way.
pub(crate) struct Region {
    /// Direct children (sellers, or brokers one level down), ascending.
    children: Vec<NodeId>,
    /// Latest advertisement per child: child → (digest, epoch).
    ads: BTreeMap<NodeId, (u64, u64)>,
    /// Seller descendants per child (the child itself when it is a seller).
    pub(crate) desc: BTreeMap<NodeId, Vec<NodeId>>,
    /// Child-region promotions observed: failed child → successor.
    pub(crate) promoted: BTreeMap<NodeId, NodeId>,
    /// Children that missed a round even after retries: routed around (their
    /// digest counts as zero) until they advertise or answer again. Only a
    /// broker marks children down.
    pub(crate) down: BTreeSet<NodeId>,
}

impl Region {
    /// A region over `children` (ascending) of `tree`; no child has
    /// advertised yet, so none is routable.
    pub(crate) fn new(children: &[NodeId], tree: &BrokerTree) -> Region {
        Region {
            children: children.to_vec(),
            ads: BTreeMap::new(),
            desc: children
                .iter()
                .map(|&c| (c, tree.seller_descendants(c)))
                .collect(),
            promoted: BTreeMap::new(),
            down: BTreeSet::new(),
        }
    }

    /// The direct children, ascending.
    pub(crate) fn children(&self) -> &[NodeId] {
        &self.children
    }

    /// Record `child`'s advertisement of `digest` at `epoch` unless one at
    /// that epoch or a later one is already held. Returns whether the
    /// child's digest changed.
    pub(crate) fn record(&mut self, child: NodeId, digest: u64, epoch: u64) -> bool {
        let e = self.ads.entry(child).or_insert((0, 0));
        if epoch <= e.1 {
            return false;
        }
        let changed = e.0 != digest;
        *e = (digest, epoch);
        changed
    }

    /// A child's routable digest: its latest advertisement, zero while the
    /// child is down or has never advertised (advertisement is membership).
    fn digest_of(&self, child: NodeId) -> u64 {
        if self.down.contains(&child) {
            return 0;
        }
        self.ads.get(&child).map_or(0, |&(d, _)| d)
    }

    /// The OR of the children's routable digests: what this region
    /// advertises upward.
    pub(crate) fn aggregate(&self) -> u64 {
        self.children.iter().fold(0, |d, &c| d | self.digest_of(c))
    }

    /// The children a round over `items` goes to: those whose routable
    /// digest meets the items' relations — a child that misses them has
    /// nothing to bid.
    pub(crate) fn scope(&self, items: &[RfbItem]) -> Vec<NodeId> {
        let want = items.iter().fold(0, |d, it| d | query_digest(&it.query));
        self.children
            .iter()
            .copied()
            .filter(|&c| self.digest_of(c) & want != 0)
            .collect()
    }

    /// Child region `failed` failed over to its standby `from`: swap the
    /// child, adopt the standby's mirrored digest, and move the descendants
    /// over. Returns `false` when neither is a child (not our region).
    pub(crate) fn adopt(&mut self, failed: NodeId, from: NodeId, digest: u64, epoch: u64) -> bool {
        if let Some(pos) = self.children.iter().position(|&c| c == failed) {
            self.children[pos] = from;
            self.children.sort_unstable();
        } else if !self.children.contains(&from) {
            return false;
        }
        self.ads.remove(&failed);
        self.record(from, digest, epoch);
        self.promoted.insert(failed, from);
        self.down.remove(&failed);
        if let Some(d) = self.desc.remove(&failed) {
            self.desc.insert(from, d);
        }
        true
    }

    /// The sellers under `child`, reported missing when it goes quiet.
    pub(crate) fn sellers_under(&self, child: NodeId) -> Vec<NodeId> {
        self.desc
            .get(&child)
            .cloned()
            .unwrap_or_else(|| vec![child])
    }
}

/// What a region swap did to one open round (see [`Gather::swap`]).
pub(crate) enum Swap {
    /// The round was not waiting on the failed child, or still waits on
    /// others.
    Unaffected,
    /// The round now waits on these successors: send them the round's RFB.
    Resend(Vec<NodeId>),
    /// The successors had already answered, and so had everyone else.
    Complete,
}

/// One fan-out round in flight: the children it went to, the replies that
/// came back, and how often it was re-sent. The buyer holds one per open
/// session round, a broker one per open `(session, round)`.
pub(crate) struct Gather {
    /// The children the round was sent to, ascending. Completion, retries
    /// and missing accounting key off this set, never off the full child
    /// list: a child that was never asked is not missing.
    recipients: Vec<NodeId>,
    /// Offers per child that answered.
    replies: BTreeMap<NodeId, Vec<Offer>>,
    /// Sellers the answering children reported missing.
    missing: Vec<NodeId>,
    /// Retransmissions so far.
    pub(crate) attempt: u32,
}

impl Gather {
    /// A round sent to `recipients` (ascending), nothing answered yet.
    pub(crate) fn new(recipients: Vec<NodeId>) -> Gather {
        Gather {
            recipients,
            replies: BTreeMap::new(),
            missing: Vec::new(),
            attempt: 0,
        }
    }

    /// The children the round was sent to, ascending.
    pub(crate) fn recipients(&self) -> &[NodeId] {
        &self.recipients
    }

    /// Take `from`'s reply. `Ok(complete)` when it was awaited; the offers
    /// back when `from` was not asked or already answered.
    pub(crate) fn accept(
        &mut self,
        from: NodeId,
        offers: Vec<Offer>,
        missing: Vec<NodeId>,
    ) -> Result<bool, Vec<Offer>> {
        if !self.recipients.contains(&from) || self.replies.contains_key(&from) {
            return Err(offers);
        }
        self.replies.insert(from, offers);
        self.missing.extend(missing);
        Ok(self.replies.len() == self.recipients.len())
    }

    /// The recipients that have not answered, ascending.
    pub(crate) fn laggards(&self) -> Vec<NodeId> {
        self.recipients
            .iter()
            .copied()
            .filter(|c| !self.replies.contains_key(c))
            .collect()
    }

    /// Re-point silent recipients whose region already failed over at the
    /// promoted standby, so a retransmission reaches a live node.
    pub(crate) fn repoint(&mut self, promoted: &BTreeMap<NodeId, NodeId>) {
        for i in 0..self.recipients.len() {
            let c = self.recipients[i];
            if let Some(&sb) = promoted.get(&c) {
                if !self.replies.contains_key(&c) && !self.recipients.contains(&sb) {
                    self.recipients[i] = sb;
                }
            }
        }
        self.recipients.sort_unstable();
        self.recipients.dedup();
    }

    /// Child `failed` was replaced by `by` — its promoted standby, or the
    /// sellers under it when the buyer routes around a dead region: a round
    /// still waiting on `failed` waits on `by` instead.
    pub(crate) fn swap(&mut self, failed: NodeId, by: &[NodeId]) -> Swap {
        if !self.recipients.contains(&failed) || self.replies.contains_key(&failed) {
            return Swap::Unaffected; // not asked, or answered before the crash
        }
        self.recipients.retain(|&r| r != failed);
        for &c in by {
            if !self.recipients.contains(&c) {
                self.recipients.push(c);
            }
        }
        self.recipients.sort_unstable();
        let ask: Vec<NodeId> = by
            .iter()
            .copied()
            .filter(|c| !self.replies.contains_key(c))
            .collect();
        if !ask.is_empty() {
            Swap::Resend(ask)
        } else if self.replies.len() == self.recipients.len() {
            Swap::Complete
        } else {
            Swap::Unaffected
        }
    }

    /// Close the round: every reply's offers in `(seller, offer id)` order,
    /// and the sellers reported missing, ascending. Sellers under one child
    /// are a contiguous id range, so this is the order a flat buyer drains
    /// its sellers in whichever child — broker, promoted standby or seller
    /// reached by a detour — delivered them: aggregation, failover and
    /// fallback keep plans bit-identical to the flat run.
    pub(crate) fn merge(&mut self) -> (Vec<Offer>, Vec<NodeId>) {
        let mut offers = Vec::with_capacity(self.replies.values().map(Vec::len).sum());
        for reply in std::mem::take(&mut self.replies).into_values() {
            offers.extend(reply);
        }
        offers.sort_by_key(|o| (o.seller.0, o.id));
        // Distinct keys make the sort's result independent of the order the
        // children's offers were concatenated in.
        debug_assert!(
            offers
                .windows(2)
                .all(|w| (w[0].seller, w[0].id) != (w[1].seller, w[1].id)),
            "one round gathered two offers with the same (seller, offer id)"
        );
        let mut missing = std::mem::take(&mut self.missing);
        missing.sort_unstable();
        missing.dedup();
        (offers, missing)
    }
}

/// One broker of the tree.
#[derive(Debug, Clone)]
pub struct BrokerSpec {
    /// The broker's own node id (allocated above the seller id range).
    pub node: NodeId,
    /// Where aggregated offers and digest updates go (buyer or upper broker).
    pub parent: NodeId,
    /// Sellers or lower brokers this broker scopes RFBs to.
    pub children: Vec<NodeId>,
    /// Tree level: 1 = brokers over sellers, 2 = brokers over those, …
    pub level: u32,
    /// Standby replica for this region, if failover is enabled
    /// ([`BrokerTree::assign_standbys`]). The standby shadows the region's
    /// advertisements and is promoted in place of `node` when the primary
    /// misses its lease deadline. `None` (the default) keeps the tree
    /// bit-identical to the pre-failover layout.
    pub standby: Option<NodeId>,
}

/// The broker/aggregator tree for one federation: sellers at the leaves,
/// [`fanout`](BrokerTree::build)-bounded broker layers above them, the buyer
/// at the root.
#[derive(Debug, Clone, Default)]
pub struct BrokerTree {
    /// Brokers in ascending node id (lowest level first).
    pub brokers: Vec<BrokerSpec>,
    /// The buyer's direct children — top brokers, or the sellers themselves
    /// when one layer of grouping already fits the fanout.
    pub root_children: Vec<NodeId>,
    /// Message hops from buyer to seller (1 = no brokers, 2 = one layer, …).
    pub depth: u32,
}

impl BrokerTree {
    /// Group `sellers` (ascending) under brokers of at most `fanout`
    /// children, stacking layers until one layer fits the fanout. Broker
    /// node ids are allocated contiguously from `first_broker_id` — callers
    /// pass `max(node ids) + 1` so the simulator's dense handler table stays
    /// compact. With `sellers.len() <= fanout` no brokers are created and
    /// the buyer scopes RFBs straight to seller digests.
    pub fn build(sellers: &[NodeId], fanout: usize, first_broker_id: u32) -> BrokerTree {
        assert!(fanout >= 2, "broker fanout must be at least 2");
        let mut tree = BrokerTree {
            brokers: Vec::new(),
            root_children: sellers.to_vec(),
            depth: 1,
        };
        let mut next_id = first_broker_id;
        let mut level = 0u32;
        while tree.root_children.len() > fanout {
            level += 1;
            let lower = std::mem::take(&mut tree.root_children);
            for chunk in lower.chunks(fanout) {
                let node = NodeId(next_id);
                next_id += 1;
                tree.brokers.push(BrokerSpec {
                    node,
                    parent: NodeId(u32::MAX), // patched below
                    children: chunk.to_vec(),
                    level,
                    standby: None,
                });
                tree.root_children.push(node);
            }
            tree.depth += 1;
        }
        // Parent pointers: each broker's parent is whoever lists it as a
        // child one level up, or the buyer for top brokers. The buyer id is
        // unknown here; top brokers keep NodeId(u32::MAX) and the serving
        // runner patches them.
        let parent_of: BTreeMap<NodeId, NodeId> = tree
            .brokers
            .iter()
            .flat_map(|b| b.children.iter().map(move |&c| (c, b.node)))
            .collect();
        for b in &mut tree.brokers {
            if let Some(&p) = parent_of.get(&b.node) {
                b.parent = p;
            }
        }
        tree
    }

    /// Point top-level brokers at the buyer.
    pub fn set_root(&mut self, buyer: NodeId) {
        for b in &mut self.brokers {
            if b.parent == NodeId(u32::MAX) {
                b.parent = buyer;
            }
        }
    }

    /// Allocate one standby replica per broker, with node ids contiguous
    /// from `first_standby_id` in ascending broker order. Callers pass
    /// `max broker id + 1` so the handler table stays dense. A tree with no
    /// brokers gets no standbys.
    pub fn assign_standbys(&mut self, first_standby_id: u32) {
        for (i, b) in self.brokers.iter_mut().enumerate() {
            b.standby = Some(NodeId(first_standby_id + i as u32));
        }
    }

    /// The standby shadowing broker `node`, if any.
    pub fn standby_of(&self, node: NodeId) -> Option<NodeId> {
        self.brokers
            .iter()
            .find(|b| b.node == node)
            .and_then(|b| b.standby)
    }

    /// The broker each *seller* reports to (empty when no brokers exist).
    pub fn seller_parents(&self) -> BTreeMap<NodeId, NodeId> {
        self.brokers
            .iter()
            .filter(|b| b.level == 1)
            .flat_map(|b| b.children.iter().map(move |&c| (c, b.node)))
            .collect()
    }

    /// The sellers under `node`: itself when it is a seller, otherwise every
    /// leaf of its broker subtree. Brokers use this to report *seller*
    /// unreachability upward when a whole child subtree goes quiet.
    pub fn seller_descendants(&self, node: NodeId) -> Vec<NodeId> {
        let Some(b) = self.brokers.iter().find(|b| b.node == node) else {
            return vec![node];
        };
        b.children
            .iter()
            .flat_map(|&c| self.seller_descendants(c))
            .collect()
    }
}

/// Deterministic aggregation order: `(cost bits, seller, offer id)`. Costs
/// are non-negative, so the IEEE bit pattern orders like the float.
fn offer_key(o: &crate::offer::Offer) -> (u64, u32, u64) {
    (o.true_cost.to_bits(), o.seller.0, o.id)
}

/// Broker-side top-k Pareto pruning: offers sort into the deterministic
/// `(cost bits, seller, offer id)` order, then at most `k` survive per
/// `(offered query fingerprint, offer kind)` group — keeping per-kind
/// diversity so a cheap `Rows` offer can't starve the only `FromView`
/// alternative a slot has. `k = 0` keeps everything.
pub fn prune_offers(mut offers: Vec<crate::offer::Offer>, k: usize) -> Vec<crate::offer::Offer> {
    offers.sort_by_key(offer_key);
    if k == 0 {
        return offers;
    }
    let mut kept: BTreeMap<(u64, u8), usize> = BTreeMap::new();
    offers.retain(|o| {
        let kind = match o.kind {
            crate::offer::OfferKind::Rows => 0u8,
            crate::offer::OfferKind::PartialAggregate => 1,
            crate::offer::OfferKind::FromView => 2,
        };
        let slot = kept.entry((o.query.fingerprint(), kind)).or_insert(0);
        *slot += 1;
        *slot <= k
    });
    offers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn digest_is_union_of_rel_bits() {
        let d = digest([RelId(0), RelId(2), RelId(66)]);
        assert_eq!(d, 0b101 | (1 << 2)); // rel 66 folds onto bit 2
        assert_eq!(d & rel_bit(RelId(2)), rel_bit(RelId(2)));
        assert_eq!(d & rel_bit(RelId(1)), 0);
    }

    #[test]
    fn small_federation_needs_no_brokers() {
        let t = BrokerTree::build(&n(&[1, 2, 3]), 4, 100);
        assert!(t.brokers.is_empty());
        assert_eq!(t.root_children, n(&[1, 2, 3]));
        assert_eq!(t.depth, 1);
    }

    #[test]
    fn one_layer_tree_groups_by_fanout() {
        let sellers: Vec<NodeId> = (1..=9).map(NodeId).collect();
        let mut t = BrokerTree::build(&sellers, 4, 10);
        t.set_root(NodeId(0));
        assert_eq!(t.depth, 2);
        assert_eq!(t.brokers.len(), 3);
        assert_eq!(t.root_children, n(&[10, 11, 12]));
        assert_eq!(t.brokers[0].children, n(&[1, 2, 3, 4]));
        assert_eq!(t.brokers[2].children, n(&[9]));
        for b in &t.brokers {
            assert_eq!(b.parent, NodeId(0));
            assert_eq!(b.level, 1);
        }
        let parents = t.seller_parents();
        assert_eq!(parents[&NodeId(3)], NodeId(10));
        assert_eq!(parents[&NodeId(9)], NodeId(12));
    }

    #[test]
    fn deep_tree_stacks_levels() {
        let sellers: Vec<NodeId> = (1..=32).map(NodeId).collect();
        let mut t = BrokerTree::build(&sellers, 4, 33);
        t.set_root(NodeId(0));
        // 32 sellers → 8 level-1 brokers → 2 level-2 brokers.
        assert_eq!(t.depth, 3);
        assert_eq!(t.brokers.len(), 10);
        assert_eq!(t.root_children.len(), 2);
        let top: Vec<&BrokerSpec> = t.brokers.iter().filter(|b| b.level == 2).collect();
        assert_eq!(top.len(), 2);
        for b in top {
            assert_eq!(b.parent, NodeId(0));
            assert_eq!(b.children.len(), 4);
        }
        let low = t.brokers.iter().find(|b| b.node == NodeId(33)).unwrap();
        assert_eq!(low.level, 1);
        assert_eq!(low.parent, NodeId(41), "first level-2 broker");
        assert_eq!(t.seller_descendants(NodeId(33)), n(&[1, 2, 3, 4]));
        assert_eq!(
            t.seller_descendants(NodeId(41)),
            (1..=16).map(NodeId).collect::<Vec<_>>()
        );
        assert_eq!(t.seller_descendants(NodeId(7)), n(&[7]));
    }

    #[test]
    fn standbys_allocate_contiguously_after_brokers() {
        let sellers: Vec<NodeId> = (1..=9).map(NodeId).collect();
        let mut t = BrokerTree::build(&sellers, 4, 10);
        assert!(t.brokers.iter().all(|b| b.standby.is_none()));
        let first = t.brokers.iter().map(|b| b.node.0).max().unwrap() + 1;
        t.assign_standbys(first);
        assert_eq!(t.standby_of(NodeId(10)), Some(NodeId(13)));
        assert_eq!(t.standby_of(NodeId(12)), Some(NodeId(15)));
        assert_eq!(t.standby_of(NodeId(13)), None, "standbys have no standby");
        // Standby ids never collide with sellers or brokers.
        let taken: std::collections::BTreeSet<u32> = sellers
            .iter()
            .map(|s| s.0)
            .chain(t.brokers.iter().map(|b| b.node.0))
            .collect();
        for b in &t.brokers {
            assert!(!taken.contains(&b.standby.unwrap().0));
        }
    }
}
