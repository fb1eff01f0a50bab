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
//! * **Top-k Pareto pruning** — [`prune_offers`] keeps only the `k`
//!   cheapest offers per (item, offer kind) in deterministic
//!   `(cost bits, seller, offer id)` order. No broker applies it.
//!
//! Advertisement is membership: a child a broker has never heard from has an
//! empty digest and receives nothing, and a child that stops answering is
//! marked down and routed around until it advertises again (see the broker
//! handler in [`crate::session`]). Churn therefore composes with the
//! `FaultPlan` crash machinery — a crashed-from-boot node joins the
//! federation the moment its first advertisement lands.

use crate::offer::RfbItem;
use crate::seller::SellerEngine;
use qt_catalog::{NodeId, RelId};
use qt_query::Query;
use std::collections::BTreeMap;

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

/// Digest of the relations an RFB's items touch: a child whose digest misses
/// it has nothing to bid.
pub(crate) fn items_digest(items: &[RfbItem]) -> u64 {
    items.iter().fold(0, |d, it| d | query_digest(&it.query))
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

/// Record `child`'s advertisement of `digest` at `epoch` in `ads` (child →
/// (digest, epoch)) unless an advertisement at that epoch or a later one is
/// already held. Returns whether the child's digest changed.
pub(crate) fn record_ad(
    ads: &mut BTreeMap<NodeId, (u64, u64)>,
    child: NodeId,
    digest: u64,
    epoch: u64,
) -> bool {
    let e = ads.entry(child).or_insert((0, 0));
    if epoch <= e.1 {
        return false;
    }
    let changed = e.0 != digest;
    *e = (digest, epoch);
    changed
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
