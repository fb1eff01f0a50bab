//! The buyer engine: one node optimizing one query by trading.

use crate::analyser::{next_queries, retain_answerable};
use crate::config::{QtConfig, MAX_NEW_QUERIES_PER_ROUND};
use crate::dist_plan::{estimate_from, DistributedPlan};
use crate::offer::{Offer, RfbItem};
use crate::plangen::PlanGenerator;
use qt_catalog::{NodeId, SchemaDict};
use qt_cost::NodeResources;
use qt_trade::{Bid, BuyerValueBook};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Statistics of one trading iteration.
#[derive(Debug, Clone)]
pub struct IterationStats {
    /// Round number (0-based).
    pub round: u32,
    /// Offers received this round.
    pub offers_received: usize,
    /// Queries in this round's RFB.
    pub queries_asked: usize,
    /// Best plan's additive cost after this round (∞ if none).
    pub best_cost: f64,
    /// Plan-generation effort this round.
    pub considered: u64,
}

/// What the buyer wants to happen next after closing a round.
#[derive(Debug)]
pub enum RoundOutcome {
    /// Put these queries out to bid in another round.
    Continue(Vec<RfbItem>),
    /// Trading is over (converged, exhausted iterations, or hopeless).
    Done,
}

/// The buyer engine (steps B0–B8 of the paper's Fig. 2).
pub struct BuyerEngine {
    /// The buyer node.
    pub node: NodeId,
    /// The query being optimized.
    pub query: qt_query::Query,
    /// Shared dictionary.
    pub dict: Arc<SchemaDict>,
    /// Configuration.
    pub config: QtConfig,
    /// The buyer node's own resources (local assembly cost).
    pub resources: NodeResources,
    /// Value book (step B1's strategic estimates).
    pub value_book: BuyerValueBook,
    /// All offers accumulated over all rounds.
    pub offers: Vec<Offer>,
    /// Best plan so far.
    pub best: Option<DistributedPlan>,
    /// Current round (0-based).
    pub round: u32,
    /// Per-iteration statistics.
    pub history: Vec<IterationStats>,
    /// Messages spent by nested negotiations (beyond RFB/offer rounds).
    pub negotiation_messages: u64,
    /// Virtual round-trips spent by nested negotiations.
    pub negotiation_round_trips: u64,
    asked: BTreeSet<qt_query::Query>,
    /// Queries in the current round's RFB, for [`IterationStats`].
    queries_asked: usize,
    round_offers: usize,
}

impl BuyerEngine {
    /// New buyer for `query` at `node`.
    pub fn new(
        node: NodeId,
        dict: Arc<SchemaDict>,
        query: qt_query::Query,
        config: QtConfig,
    ) -> Self {
        BuyerEngine {
            node,
            dict,
            config,
            resources: NodeResources::reference(),
            value_book: BuyerValueBook::new(f64::INFINITY, 2.0),
            offers: Vec::new(),
            best: None,
            round: 0,
            history: Vec::new(),
            negotiation_messages: 0,
            negotiation_round_trips: 0,
            asked: BTreeSet::new(),
            queries_asked: 0,
            round_offers: 0,
            query,
        }
    }

    /// Step B0–B2: the first RFB (just the original query, at its initial
    /// strategic value).
    pub fn start(&mut self) -> Vec<RfbItem> {
        let item = RfbItem {
            query: self.query.clone(),
            ref_value: self.value_book.estimate(self.query.fingerprint()),
        };
        self.asked.insert(self.query.clone());
        self.queries_asked = 1;
        vec![item]
    }

    /// Accumulate offers from a seller's response.
    pub fn receive_offers(&mut self, offers: Vec<Offer>) {
        for o in &offers {
            // B1 learning: observe the market's asks. The fingerprint is
            // memoised in the offer's query handle, so the competing scan
            // and the reserve lookup of `close_round` reuse it.
            self.value_book
                .observe(o.query.fingerprint(), self.config.valuation.score(&o.props));
        }
        self.round_offers += offers.len();
        self.offers.extend(offers);
    }

    /// Steps B3–B8: generate candidate plans from everything offered so far,
    /// run the nested winner-selection negotiation, check for improvement,
    /// and compute the next working set.
    pub fn close_round(&mut self) -> RoundOutcome {
        let pg = PlanGenerator {
            dict: &self.dict,
            query: &self.query,
            config: &self.config,
            buyer_resources: self.resources.clone(),
        };
        let mut gen = pg.generate(&self.offers);

        // B3/S3: nested negotiation per purchased item. Competing offers for
        // the same query form the bid set; the protocol picks the winner and
        // the agreed value, and costs extra messages.
        if let Some(plan) = &mut gen.plan {
            let mut buyer_compute = plan.est.buyer_compute;
            // Negotiations for distinct items run concurrently; the round
            // pays the *longest* negotiation, not the sum.
            let mut round_rts = 0u64;
            for purchase in &mut plan.purchases {
                let competing: Vec<&Offer> = self
                    .offers
                    .iter()
                    .filter(|o| o.promises(&purchase.offer.query, purchase.offer.kind))
                    .collect();
                if competing.len() <= 1 {
                    continue;
                }
                let bids: Vec<Bid> = competing
                    .iter()
                    .map(|o| Bid::new(o.seller, self.config.valuation.score(&o.props), o.true_cost))
                    .collect();
                // The buyer's walk-away value (step B1's strategic estimate,
                // with headroom). If every ask exceeds it the purchase
                // stands at the plan generator's pick — plan viability was
                // already decided; the reserve only caps the agreed price.
                let reserve = self
                    .value_book
                    .reserve(purchase.offer.query.fingerprint())
                    .max(self.config.valuation.score(&purchase.offer.props));
                let outcome = self.config.protocol.negotiate(&bids, reserve);
                self.negotiation_messages += outcome.extra_messages;
                round_rts = round_rts.max(outcome.extra_round_trips);
                if let Some(w) = outcome.winner {
                    purchase.offer = competing[w].clone();
                    purchase.agreed_value = outcome.agreed_value;
                }
            }
            self.negotiation_round_trips += round_rts;
            let rows = plan.est.rows;
            buyer_compute = buyer_compute.max(0.0);
            plan.est = estimate_from(&plan.purchases, buyer_compute, rows);
        }

        let new_cost = gen
            .plan
            .as_ref()
            .map(|p| p.est.additive_cost)
            .unwrap_or(f64::INFINITY);
        let old_cost = self
            .best
            .as_ref()
            .map(|p| p.est.additive_cost)
            .unwrap_or(f64::INFINITY);
        let improved = new_cost < old_cost - 1e-12;
        if improved {
            // An improving plan exists (its cost is finite); the analyser
            // below reads only `gen.join_sites`.
            self.best = gen.plan.take();
        }

        self.history.push(IterationStats {
            round: self.round,
            offers_received: self.round_offers,
            queries_asked: self.queries_asked,
            best_cost: self
                .best
                .as_ref()
                .map(|p| p.est.additive_cost)
                .unwrap_or(f64::INFINITY),
            considered: gen.considered,
        });
        self.round_offers = 0;

        // B8 failure: nothing buildable in the first iteration → abort.
        if self.best.is_none() {
            return RoundOutcome::Done;
        }
        if self.round + 1 >= self.config.max_iterations {
            return RoundOutcome::Done;
        }
        // B5/B6: new working set.
        if !self.config.enable_buyer_analyser {
            return RoundOutcome::Done;
        }
        let mut new = next_queries(&self.dict, &self.query, &gen, &self.offers, &self.asked);
        new.truncate(MAX_NEW_QUERIES_PER_ROUND);
        retain_answerable(&mut new, &self.offers, &self.config);
        // B7: stop as soon as the working set stops growing (no query some
        // seller could answer anew) or, after round 0, the plan stops
        // improving.
        if new.is_empty() || (!improved && self.round > 0) {
            return RoundOutcome::Done;
        }
        let items: Vec<RfbItem> = new
            .into_iter()
            .map(|q| {
                self.asked.insert(q.clone());
                let ref_value = self.value_book.estimate(q.fingerprint());
                RfbItem {
                    query: q,
                    ref_value,
                }
            })
            .collect();
        self.round += 1;
        self.queries_asked = items.len();
        RoundOutcome::Continue(items)
    }

    /// Adaptive re-planning (the paper's "contracting" future-work hook):
    /// rebuild the best plan from the *already accumulated* offer pool,
    /// excluding offers from `failed` sellers — no new trading round needed.
    /// Returns `None` when the surviving offers no longer cover the query.
    pub fn replan_excluding(&self, failed: &BTreeSet<NodeId>) -> Option<DistributedPlan> {
        let surviving: Vec<Offer> = self
            .offers
            .iter()
            .filter(|o| {
                !failed.contains(&o.seller)
                    && o.subcontracts.iter().all(|(n, _)| !failed.contains(n))
            })
            .cloned()
            .collect();
        let pg = PlanGenerator {
            dict: &self.dict,
            query: &self.query,
            config: &self.config,
            buyer_resources: self.resources.clone(),
        };
        pg.generate(&surviving).plan
    }

    /// Market hints for subcontracting sellers: the cheapest known
    /// full-coverage single-relation fragment offer per relation.
    pub fn hints(&self) -> Vec<Offer> {
        let q_core = self.query.strip_aggregation();
        let mut out = Vec::new();
        for rel in self.query.rel_ids() {
            let expected = q_core.restrict_to_rels(&std::collections::BTreeSet::from([rel]));
            if let Some(best) = self
                .offers
                .iter()
                .filter(|o| o.query == expected && o.subcontracts.is_empty())
                .min_by(|a, b| a.props.total_time.total_cmp(&b.props.total_time))
            {
                out.push(best.clone());
            }
        }
        out
    }

    /// Total plan-generation effort so far.
    pub fn total_considered(&self) -> u64 {
        self.history.iter().map(|h| h.considered).sum()
    }
}

/// The seller nodes winning at least one purchase of `plan` — the single
/// source of truth for award selection, shared by the direct driver and the
/// networked buyer.
pub fn winner_set(plan: &DistributedPlan) -> BTreeSet<NodeId> {
    plan.purchases.iter().map(|p| p.offer.seller).collect()
}

/// The remote award notices `plan` implies, in purchase (slot) order:
/// `(slot, seller, offer id)` for every purchase not filled by the buyer's
/// own data.
pub fn remote_awards(plan: &DistributedPlan, buyer: NodeId) -> Vec<(usize, NodeId, u64)> {
    plan.purchases
        .iter()
        .filter(|p| p.offer.seller != buyer)
        .map(|p| (p.slot, p.offer.seller, p.offer.id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // BuyerEngine is exercised end-to-end through the drivers (driver.rs)
    // and the integration tests; here we pin the small state-machine rules.

    use qt_catalog::{
        AttrType, CatalogBuilder, PartId, PartitionStats, Partitioning, RelationSchema,
    };
    use qt_query::parse_query;

    fn dict_and_query() -> (Arc<SchemaDict>, qt_query::Query) {
        let mut b = CatalogBuilder::new();
        let r = b.add_relation(
            RelationSchema::new("r", vec![("a", AttrType::Int)]),
            Partitioning::Single,
        );
        b.set_stats(PartId::new(r, 0), PartitionStats::synthetic(10, &[10]));
        b.place(PartId::new(r, 0), NodeId(1));
        let cat = b.build();
        let q = parse_query(&cat.dict, "SELECT a FROM r").unwrap();
        (cat.dict, q)
    }

    #[test]
    fn start_asks_the_original_query() {
        let (dict, q) = dict_and_query();
        let mut buyer = BuyerEngine::new(NodeId(0), dict, q.clone(), QtConfig::default());
        let items = buyer.start();
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].query, q);
        assert!(items[0].ref_value.is_infinite(), "no prior estimate");
    }

    #[test]
    fn no_offers_means_done_without_plan() {
        let (dict, q) = dict_and_query();
        let mut buyer = BuyerEngine::new(NodeId(0), dict, q, QtConfig::default());
        buyer.start();
        match buyer.close_round() {
            RoundOutcome::Done => {}
            other => panic!("expected Done, got {other:?}"),
        }
        assert!(buyer.best.is_none());
        assert_eq!(buyer.history.len(), 1);
        assert!(buyer.history[0].best_cost.is_infinite());
    }

    #[test]
    fn value_book_learns_from_offers() {
        let (dict, q) = dict_and_query();
        let mut buyer = BuyerEngine::new(NodeId(0), dict, q.clone(), QtConfig::default());
        buyer.start();
        let key = q.fingerprint();
        assert!(buyer.value_book.estimate(key).is_infinite());
        buyer.receive_offers(vec![Offer {
            id: 1,
            seller: NodeId(1),
            query: q.clone().into(),
            props: qt_cost::AnswerProperties::timed(3.0, 10.0, 80.0),
            true_cost: 3.0,
            kind: crate::offer::OfferKind::Rows,
            round: 0,
            subcontracts: vec![],
        }]);
        assert!(buyer.value_book.estimate(key).is_finite());
    }
}
