//! Single-query drivers. [`run_qt_direct`] runs the trading loop in-process
//! (synchronous, analytic time) and is the oracle the networked runs are
//! checked against. [`run_qt_sim`], [`run_qt_sim_with_faults`] and
//! [`run_qt_real`] put the same query on a network: each is a serving run
//! (see [`session`](crate::session)) with one arrival at t = 0 and
//! concurrency 1, folded into a [`QtOutcome`]. All of them produce the same
//! plans and message counts; the simulator additionally yields realistic
//! timing under node/link contention.

use crate::buyer::{remote_awards, winner_set, BuyerEngine, IterationStats, RoundOutcome};
use crate::config::{
    QtConfig, OFFER_MSG_BYTES, PER_OFFER_SECONDS, PER_SUBPLAN_SECONDS, QUERY_MSG_BYTES,
};
use crate::contract::ContractReport;
use crate::dist_plan::DistributedPlan;
use crate::offer::Offer;
use crate::seller::SellerEngine;
use crate::session::{run_qt_serve_real, serve_on_sim, ServeConfig, ServeOutcome};
use qt_catalog::{NodeId, SchemaDict};
use qt_cost::NetLink;
use qt_net::{FaultPlan, Topology};
use qt_query::Query;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The result of one QT optimization run.
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
    /// Optimization time in simulated seconds.
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
    /// RFB retransmissions sent after a response deadline expired
    /// (networked runs; always 0 for the direct driver's perfect network).
    pub retries: u64,
    /// Response deadlines that fired while a round was still open.
    pub timeouts: u64,
    /// Rounds closed without offers from every live seller.
    pub degraded_rounds: u32,
    /// Sellers that never answered their last RFB (even after retries) and
    /// were traded around. A seller that answers a later round is removed.
    pub unreachable_sellers: Vec<NodeId>,
    /// Contracts created over the run's lifecycle phase (0 with
    /// `enable_contracts` off).
    pub contracts_awarded: u64,
    /// Distinct plan slots whose replacement contract completed after a
    /// winner loss.
    pub contracts_repaired: u64,
    /// Re-awards to runner-up offers from the persisted bid book.
    pub reawards: u64,
    /// Scoped re-trade rounds run to repair slots the book could not cover.
    pub rescoped_trades: u64,
    /// Per-contract final standing (empty with `enable_contracts` off).
    pub contracts: Vec<ContractReport>,
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
        // Fan the round out: sellers evaluate concurrently (each node is an
        // autonomous machine — this is exactly the real system's shape), then
        // merge in ascending NodeId order. The merge order, the per-seller
        // offer-id counters, and the per-item id stamping make the outcome
        // bit-identical to `config.parallel = false`.
        let round = buyer.round;
        let workers = if config.parallel {
            qt_par::max_threads()
        } else {
            1
        };
        let mut engines: Vec<(NodeId, &mut SellerEngine)> =
            sellers.iter_mut().map(|(&n, e)| (n, e)).collect();
        let responses = qt_par::par_map_mut(&mut engines, workers, |(_, engine)| {
            engine.respond_with_hints(round, &items, &hints)
        });
        for ((node, _), resp) in engines.iter().zip(responses) {
            seller_effort += resp.effort;
            let compute = resp.effort as f64 * PER_SUBPLAN_SECONDS;
            if *node == buyer_node {
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
        retries: 0,
        timeouts: 0,
        degraded_rounds: 0,
        unreachable_sellers: Vec::new(),
        contracts_awarded,
        contracts_repaired: 0,
        reawards: 0,
        rescoped_trades: 0,
        contracts: Vec::new(),
        history: buyer.history.clone(),
        plan: buyer.best,
    }
}

/// Run QT on the discrete-event simulator over a uniform WAN topology
/// ([`NetLink::wan`]). Returns the outcome and the simulator metrics
/// (virtual end time, per-kind message counts).
pub fn run_qt_sim(
    buyer_node: NodeId,
    dict: Arc<SchemaDict>,
    query: &Query,
    sellers: BTreeMap<NodeId, SellerEngine>,
    config: &QtConfig,
) -> (QtOutcome, qt_net::Metrics) {
    let topology = Topology::Uniform(NetLink::wan());
    run_qt_sim_with_faults(buyer_node, dict, query, sellers, config, topology, None)
}

/// Run QT on the discrete-event simulator over an arbitrary [`Topology`]
/// (e.g. [`Topology::TwoTier`] regional offices) with an optional
/// [`FaultPlan`] injecting message loss, duplication, jitter, partitions,
/// and crash windows; `None` (or an inert plan) injects nothing. Sellers
/// still *estimate* delivery over a WAN link — autonomous nodes do not
/// know where the buyer sits — while actual message transport follows the
/// topology. Under faults the buyer retransmits unanswered RFBs with capped
/// exponential backoff and, after two retransmissions, degrades the
/// round to the offers that arrived; the returned metrics carry
/// drop/retry/timeout/degraded counters.
pub fn run_qt_sim_with_faults(
    buyer_node: NodeId,
    dict: Arc<SchemaDict>,
    query: &Query,
    sellers: BTreeMap<NodeId, SellerEngine>,
    config: &QtConfig,
    topology: Topology,
    faults: Option<FaultPlan>,
) -> (QtOutcome, qt_net::Metrics) {
    single_session(serve_on_sim(
        buyer_node,
        dict,
        vec![(0.0, query.clone())],
        sellers,
        config,
        &ServeConfig::default(),
        topology,
        faults,
    ))
}

/// Run QT on the real thread-per-node transport (`qt_net::real`): buyer and
/// sellers execute on actual OS threads, connected by bounded channels or
/// loopback TCP per `real`. The protocol handlers are the exact ones the
/// simulator runs, so plans, cost bits, and offer ids are bit-identical to
/// [`run_qt_sim`] under the same configuration (the conformance suite
/// asserts this). The returned outcome's `optimization_time` is **wall
/// clock**, not virtual time — never compare it against simulator numbers.
pub fn run_qt_real(
    buyer_node: NodeId,
    dict: Arc<SchemaDict>,
    query: &Query,
    sellers: BTreeMap<NodeId, SellerEngine>,
    config: &QtConfig,
    real: qt_net::RealConfig,
) -> (QtOutcome, qt_net::Metrics) {
    single_session(run_qt_serve_real(
        buyer_node,
        dict,
        vec![(0.0, query.clone())],
        sellers,
        config,
        &ServeConfig::default(),
        real,
    ))
}

/// Fold a one-session serving run (arrival at t = 0, so the session's finish
/// time *is* the optimization time) into the single-query outcome.
fn single_session(out: ServeOutcome) -> (QtOutcome, qt_net::Metrics) {
    let ServeOutcome {
        mut reports,
        metrics,
        messages,
        seller_effort,
        contracts: stats,
        unreachable_sellers,
        ..
    } = out;
    let report = reports.pop().expect("one arrival, one report");
    let mut contracts = report.contracts;
    for c in &mut contracts {
        // Serve-path contract ids carry the session in their high word; a
        // single-query outcome numbers its contracts from zero.
        c.id &= u64::from(u32::MAX);
    }
    let outcome = QtOutcome {
        plan: report.plan,
        iterations: report.iterations,
        messages,
        bytes: metrics.bytes,
        optimization_time: report.finished,
        seller_effort,
        buyer_considered: report.history.iter().map(|h| h.considered).sum(),
        offer_cache_hits: metrics.offer_cache_hits,
        offer_cache_misses: metrics.offer_cache_misses,
        retries: metrics.retries,
        timeouts: metrics.timeouts,
        degraded_rounds: metrics.degraded_rounds as u32,
        unreachable_sellers,
        contracts_awarded: stats.contracts_awarded,
        contracts_repaired: stats.contracts_repaired,
        reawards: stats.reawards,
        rescoped_trades: stats.rescoped_trades,
        contracts,
        history: report.history,
    };
    (outcome, metrics)
}
