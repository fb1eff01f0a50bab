//! The in-process driver. [`run_qt_direct`] runs the trading loop
//! synchronously with analytic time and message accounting; it is the
//! oracle the networked runs are checked against. A networked single-query
//! trade is a serving run with one arrival at t = 0 (see
//! [`session`](crate::session)); it produces the same plan and message
//! count, and the simulator additionally yields realistic timing under
//! node/link contention.

use crate::buyer::{remote_awards, winner_set, BuyerEngine, IterationStats, RoundOutcome};
use crate::config::{
    QtConfig, OFFER_MSG_BYTES, PER_OFFER_SECONDS, PER_SUBPLAN_SECONDS, QUERY_MSG_BYTES,
};
use crate::dist_plan::DistributedPlan;
use crate::offer::Offer;
use crate::seller::SellerEngine;
use qt_catalog::{NodeId, SchemaDict};
use qt_cost::NetLink;
use qt_query::Query;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The result of one [`run_qt_direct`] run.
#[derive(Debug)]
pub struct QtOutcome {
    /// The final plan (None = optimization failed / no coverage).
    pub plan: Option<DistributedPlan>,
    /// Trading iterations executed.
    pub iterations: u32,
    /// Protocol messages exchanged (RFBs, offers, negotiation, awards).
    pub messages: u64,
    /// Protocol bytes exchanged.
    pub bytes: f64,
    /// Optimization time in analytic seconds.
    pub optimization_time: f64,
    /// Total seller optimization effort: the sub-plans the model enumerates
    /// for each RFB item, summed over items and sellers. A seller runs its
    /// DP once per distinct local rewrite of an RFB and replays that effort
    /// into every item sharing it; [`SellerEngine::local_evaluations`]
    /// counts the runs actually made.
    pub seller_effort: u64,
    /// Total buyer plan-generation effort.
    pub buyer_considered: u64,
    /// RFB items sellers answered from their offer caches during this run.
    pub offer_cache_hits: u64,
    /// RFB items sellers had to evaluate fresh during this run.
    pub offer_cache_misses: u64,
    /// Contracts awarded: one per purchase of the plan with
    /// `enable_contracts` on, 0 with it off.
    pub contracts_awarded: u64,
    /// Per-iteration statistics.
    pub history: Vec<IterationStats>,
}

/// Run QT synchronously. `sellers` maps every federation node (other than or
/// including the buyer) to its engine; the buyer's own engine (if present)
/// responds without network cost.
///
/// ```
/// use qt_catalog::NodeId;
/// use qt_core::{run_qt_direct, QtConfig, SellerEngine};
/// use qt_query::parse_query;
/// use qt_workload::{build_federation, FederationSpec};
/// use std::collections::BTreeMap;
///
/// let fed = build_federation(&FederationSpec {
///     with_data: true,
///     rows_per_partition: 50,
///     ..FederationSpec::default()
/// });
/// let query = parse_query(
///     &fed.catalog.dict,
///     "SELECT r0.b, SUM(r1.c) FROM r0, r1 WHERE r0.a = r1.a GROUP BY r0.b",
/// )
/// .unwrap();
///
/// // Each node is an autonomous seller seeing only its own holdings.
/// let mut sellers: BTreeMap<NodeId, SellerEngine> = fed
///     .catalog
///     .nodes
///     .iter()
///     .map(|&n| (n, SellerEngine::new(fed.catalog.holdings_of(n), QtConfig::default())))
///     .collect();
///
/// let outcome =
///     run_qt_direct(NodeId(0), fed.catalog.dict.clone(), &query, &mut sellers, &QtConfig::default());
/// let plan = outcome.plan.expect("the federation covers the query");
/// assert!(outcome.messages > 0);
/// // The distributed plan executes against the per-node stores.
/// let answer = plan.execute_on(&fed.catalog.dict, &fed.stores).unwrap();
/// assert!(!answer.is_empty());
/// ```
pub fn run_qt_direct(
    buyer_node: NodeId,
    dict: Arc<SchemaDict>,
    query: &Query,
    sellers: &mut BTreeMap<NodeId, SellerEngine>,
    config: &QtConfig,
) -> QtOutcome {
    let mut buyer = BuyerEngine::new(buyer_node, dict, query.clone(), config.clone());
    let mut messages = 0u64;
    let mut bytes = 0.0f64;
    let mut time = 0.0f64;
    let mut seller_effort = 0u64;
    let mut prev_neg_msgs = 0u64;
    let mut prev_neg_rts = 0u64;
    let cache_hits_before: u64 = sellers.values().map(|s| s.cache_hits).sum();
    let cache_misses_before: u64 = sellers.values().map(|s| s.cache_misses).sum();

    let mut items = buyer.start();
    let mut hints: Vec<Offer> = Vec::new();
    loop {
        let rfb_bytes = (items.len() + hints.len()) as f64 * QUERY_MSG_BYTES;
        let mut round_path = 0.0f64;
        // Sellers answer one by one in ascending NodeId order. Each node is
        // an autonomous machine, so the round is charged as its slowest
        // seller's path (`round_path`), not as the sum.
        for (&node, engine) in sellers.iter_mut() {
            let resp = engine.respond_with_hints(buyer.round, &items, &hints);
            seller_effort += resp.effort;
            let compute = resp.effort as f64 * PER_SUBPLAN_SECONDS;
            if node == buyer_node {
                round_path = round_path.max(compute);
            } else {
                let back = resp.offers.len() as f64 * OFFER_MSG_BYTES;
                let path = NetLink::wan().transfer_time(rfb_bytes)
                    + compute
                    + NetLink::wan().transfer_time(back);
                round_path = round_path.max(path);
                messages += 2; // RFB out + offers back (possibly empty)
                bytes += rfb_bytes + back;
            }
            buyer.receive_offers(resp.offers);
        }
        time += round_path;
        let outcome = buyer.close_round();
        let considered = buyer.history.last().map(|h| h.considered).unwrap_or(0);
        time += considered as f64 * PER_OFFER_SECONDS;
        let neg_msgs = buyer.negotiation_messages - prev_neg_msgs;
        let neg_rts = buyer.negotiation_round_trips - prev_neg_rts;
        prev_neg_msgs = buyer.negotiation_messages;
        prev_neg_rts = buyer.negotiation_round_trips;
        messages += neg_msgs;
        bytes += neg_msgs as f64 * OFFER_MSG_BYTES;
        time += neg_rts as f64 * 2.0 * NetLink::wan().latency;
        match outcome {
            RoundOutcome::Continue(next) => {
                items = next;
                if config.enable_subcontracting {
                    hints = buyer.hints();
                }
            }
            RoundOutcome::Done => break,
        }
    }
    // Awards to the remote winning sellers. The direct driver's network is
    // perfect, so the lifecycle never repairs anything here; with
    // `enable_contracts` on it still pays the two-phase protocol (award,
    // ack, release per remote purchase — lease heartbeats are zero-byte
    // control traffic and never count as messages).
    let mut contracts_awarded = 0u64;
    if let Some(plan) = &buyer.best {
        let awards = remote_awards(plan, buyer_node);
        if config.enable_contracts {
            contracts_awarded = plan.purchases.len() as u64;
            messages += 3 * awards.len() as u64;
            bytes += 3.0 * awards.len() as f64 * OFFER_MSG_BYTES;
        } else {
            messages += awards.len() as u64;
            bytes += awards.len() as f64 * OFFER_MSG_BYTES;
        }
        let winners = winner_set(plan);
        // Scope the cache invalidation to the traded query's relations:
        // adaptive sellers move their markup on the outcome, which stales
        // only cached asks touching those relations.
        let rels = query.rel_ids().collect();
        for (&node, engine) in sellers.iter_mut() {
            engine.observe_award_scoped(winners.contains(&node), &rels);
        }
    }
    QtOutcome {
        iterations: buyer.round + 1,
        messages,
        bytes,
        optimization_time: time,
        seller_effort,
        buyer_considered: buyer.total_considered(),
        offer_cache_hits: sellers.values().map(|s| s.cache_hits).sum::<u64>() - cache_hits_before,
        offer_cache_misses: sellers.values().map(|s| s.cache_misses).sum::<u64>()
            - cache_misses_before,
        contracts_awarded,
        history: buyer.history.clone(),
        plan: buyer.best,
    }
}
