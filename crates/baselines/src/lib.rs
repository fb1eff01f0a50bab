//! Traditional distributed-optimization baselines.
//!
//! The paper compares QT against "some of the currently most efficient
//! techniques for distributed query optimization" — exhaustive System-R-style
//! dynamic programming and Kossmann & Stocker's IDP — run the classical way:
//! one site with *global knowledge* optimizes everything centrally.
//!
//! To keep the comparison apples-to-apples, the baselines search **the same
//! plan space** as QT (sub-plans execute at data-holding nodes; cross-node
//! joins execute at the buyer; no third-site shipping) and emit the same
//! [`qt_core::DistributedPlan`]; they differ in *how the knowledge and work are
//! obtained*:
//!
//! * **Knowledge**: the baseline site first collects the full catalog
//!   (statistics of every partition) from every node — the messages/bytes
//!   that autonomy makes unreliable in practice, and that the experiments
//!   charge to the baseline.
//! * **Work**: all enumeration happens serially at the central site, so its
//!   optimization time is the *sum* of what QT's sellers do in parallel.
//! * **Honesty**: sub-plan costs are computed from true statistics with no
//!   strategic markup — the baseline is the best case for classical
//!   optimization. Quality ratios against it are therefore conservative for
//!   QT.

use qt_catalog::{Catalog, NodeId};
use qt_core::buyer::IterationStats;
use qt_core::config::{PER_OFFER_SECONDS, PER_SUBPLAN_SECONDS, QUERY_MSG_BYTES};
use qt_core::plangen::PlanGenerator;
use qt_core::{Offer, OfferKind, QtConfig, QtOutcome, SellerEngine};
use qt_cost::{NetLink, NodeResources};
use qt_optimizer::JoinEnumerator;
use qt_query::Query;
use qt_trade::SellerStrategy;

/// Which baseline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// Centralized exhaustive dynamic programming over the full catalog.
    TradDp,
    /// Centralized IDP-M(k,m) (the paper evaluates IDP-M(2,5)).
    TradIdp {
        /// Pruning size.
        k: usize,
        /// Plans kept at size `k`.
        m: usize,
    },
    /// Naive: fetch every base fragment raw and do all joins at the buyer.
    ShipAll,
}

impl BaselineKind {
    /// Display label for experiment tables.
    pub fn label(&self) -> String {
        match self {
            BaselineKind::TradDp => "TradDP".into(),
            BaselineKind::TradIdp { k, m } => format!("TradIDP({k},{m})"),
            BaselineKind::ShipAll => "ShipAll".into(),
        }
    }
}

/// Approximate serialized size of one partition's statistics in the catalog
/// collection phase (rows + per-column ndv/min/max/width).
pub const STATS_BYTES_PER_PARTITION: f64 = 256.0;

/// Run a baseline optimizer with global knowledge. Returns a [`QtOutcome`]
/// so the experiment harness treats all algorithms uniformly.
pub fn run_baseline(
    kind: BaselineKind,
    catalog: &Catalog,
    resources: &std::collections::BTreeMap<NodeId, qt_cost::NodeResources>,
    buyer_node: NodeId,
    query: &Query,
    config: &QtConfig,
) -> QtOutcome {
    // The baseline's "offers" are what each node's data can contribute,
    // computed centrally from true statistics, exhaustively (full k), with
    // no markup. Reuse the seller machinery with a truthful config.
    let enumerator = match kind {
        BaselineKind::TradDp => JoinEnumerator::Exhaustive,
        BaselineKind::TradIdp { k, m } => JoinEnumerator::IdpM { k, m },
        BaselineKind::ShipAll => JoinEnumerator::Exhaustive,
    };
    let central_cfg = QtConfig {
        seller_strategy: SellerStrategy::Truthful,
        enumerator,
        max_partial_k: match kind {
            BaselineKind::ShipAll => 1,
            _ => query.num_relations().max(1),
        },
        ..config.clone()
    };

    let mut offers: Vec<Offer> = Vec::new();
    let mut effort = 0u64;
    let mut collected_bytes = 0.0f64;
    let mut messages = 0u64;
    let mut data_holders = 0u64;
    for &node in &catalog.nodes {
        let holdings = catalog.holdings_of(node);
        let parts = holdings.held.len();
        if parts > 0 {
            data_holders += 1;
        }
        if node != buyer_node {
            // Catalog collection round-trip.
            messages += 2;
            collected_bytes += parts as f64 * STATS_BYTES_PER_PARTITION;
        }
        if parts == 0 {
            continue;
        }
        let mut seller = SellerEngine::new(holdings, central_cfg.clone());
        if let Some(r) = resources.get(&node) {
            seller.resources = r.clone();
        }
        let resp = seller.respond(
            0,
            &[qt_core::RfbItem {
                query: query.clone(),
                ref_value: f64::INFINITY,
            }],
        );
        effort += resp.effort;
        offers.extend(resp.offers);
    }
    if matches!(kind, BaselineKind::ShipAll) {
        // Raw base fragments only: no joins, no partial aggregates.
        offers.retain(|o| o.query.num_relations() == 1 && o.kind != OfferKind::PartialAggregate);
    }

    // Collection is serialized at the central site: every node is polled
    // (autonomy means even apparently-empty nodes must answer) and the
    // responses arrive over one inbound link.
    let collect_time = NetLink::wan().latency
        + collected_bytes / NetLink::wan().bandwidth
        + (catalog.nodes.len().saturating_sub(1)) as f64 * PER_OFFER_SECONDS;

    // What the central site really pays for: one global join-order
    // enumeration over the full catalog. A classical R*-style optimizer
    // keeps one memo entry per (sub-plan, candidate execution site), so the
    // enumeration effort scales with the number of data-holding sites. The
    // per-node responses above are plan-construction scaffolding, not
    // charged. ShipAll skips enumeration entirely — it has nothing to
    // decide.
    let global_effort = if matches!(kind, BaselineKind::ShipAll) {
        0
    } else {
        let lo = qt_optimizer::LocalOptimizer::new(catalog).with_enumerator(enumerator);
        lo.optimize(query).effort * data_holders.max(1)
    };

    let pg = PlanGenerator {
        dict: &catalog.dict,
        query,
        config: &central_cfg,
        buyer_resources: NodeResources::reference(),
    };
    let gen = pg.generate(&offers);

    // Dispatch the chosen fragments to their executing sites.
    if let Some(plan) = &gen.plan {
        for p in &plan.purchases {
            if p.offer.seller != buyer_node {
                messages += 1;
                collected_bytes += QUERY_MSG_BYTES;
            }
        }
    }

    // Serial central work: collection + global enumeration + plan
    // generation (all at one site, nothing parallel).
    let time = collect_time
        + global_effort as f64 * PER_SUBPLAN_SECONDS
        + gen.considered as f64 * PER_OFFER_SECONDS;
    let _ = effort;

    let best_cost = gen
        .plan
        .as_ref()
        .map(|p| p.est.additive_cost)
        .unwrap_or(f64::INFINITY);
    QtOutcome {
        plan: gen.plan,
        iterations: 1,
        messages,
        bytes: collected_bytes,
        optimization_time: time,
        seller_effort: global_effort,
        buyer_considered: gen.considered,
        offer_cache_hits: 0,
        offer_cache_misses: 0,
        contracts_awarded: 0,
        history: vec![IterationStats {
            round: 0,
            offers_received: offers.len(),
            queries_asked: 1,
            best_cost,
            considered: gen.considered,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_catalog::{
        AttrType, CatalogBuilder, PartId, PartitionStats, Partitioning, RelationSchema,
    };
    use qt_query::parse_query;

    /// r partitioned over nodes 1,2; s on node 3; buyer is node 0.
    fn catalog() -> Catalog {
        let mut b = CatalogBuilder::new();
        let r = b.add_relation(
            RelationSchema::new("r", vec![("a", AttrType::Int), ("b", AttrType::Int)]),
            Partitioning::Hash { attr: 0, parts: 2 },
        );
        let s = b.add_relation(
            RelationSchema::new("s", vec![("a", AttrType::Int), ("c", AttrType::Int)]),
            Partitioning::Single,
        );
        for i in 0..2u16 {
            b.set_stats(
                PartId::new(r, i),
                PartitionStats::synthetic(10_000, &[5_000, 100]),
            );
            b.place(PartId::new(r, i), NodeId(1 + i as u32));
        }
        b.set_stats(
            PartId::new(s, 0),
            PartitionStats::synthetic(2_000, &[2_000, 50]),
        );
        b.place(PartId::new(s, 0), NodeId(3));
        b.add_node(NodeId(0));
        b.build()
    }

    #[test]
    fn traddp_produces_a_plan_with_collection_messages() {
        let cat = catalog();
        let q = parse_query(&cat.dict, "SELECT b, c FROM r, s WHERE r.a = s.a").unwrap();
        let out = run_baseline(
            BaselineKind::TradDp,
            &cat,
            &Default::default(),
            NodeId(0),
            &q,
            &QtConfig::default(),
        );
        let plan = out.plan.expect("plan");
        assert!(plan.purchases.len() >= 2, "fragments from multiple nodes");
        // 2 messages per remote node (3 remote nodes) + dispatches.
        assert!(out.messages >= 6);
        assert!(out.bytes > 0.0);
        assert!(out.optimization_time > 0.0);
        assert_eq!(out.iterations, 1);
    }

    #[test]
    fn ship_all_is_never_cheaper_than_traddp() {
        let cat = catalog();
        let q = parse_query(&cat.dict, "SELECT b, c FROM r, s WHERE r.a = s.a").unwrap();
        let cfg = QtConfig::default();
        let dp = run_baseline(
            BaselineKind::TradDp,
            &cat,
            &Default::default(),
            NodeId(0),
            &q,
            &cfg,
        );
        let ship = run_baseline(
            BaselineKind::ShipAll,
            &cat,
            &Default::default(),
            NodeId(0),
            &q,
            &cfg,
        );
        let dp_cost = dp.plan.unwrap().est.additive_cost;
        let ship_cost = ship.plan.unwrap().est.additive_cost;
        assert!(
            dp_cost <= ship_cost + 1e-9,
            "dp {dp_cost} vs ship {ship_cost}"
        );
        // ShipAll plans only buy single-relation fragments.
        let ship_out = run_baseline(
            BaselineKind::ShipAll,
            &cat,
            &Default::default(),
            NodeId(0),
            &q,
            &cfg,
        );
        for p in ship_out.plan.unwrap().purchases {
            assert_eq!(p.offer.query.num_relations(), 1);
        }
    }

    #[test]
    fn idp_reduces_effort_on_larger_joins() {
        // 6-relation chain spread over nodes.
        let mut b = CatalogBuilder::new();
        let mut rels = Vec::new();
        for i in 0..6u32 {
            let r = b.add_relation(
                RelationSchema::new(
                    format!("r{i}"),
                    vec![("k", AttrType::Int), ("v", AttrType::Int)],
                ),
                Partitioning::Single,
            );
            b.set_stats(
                PartId::new(r, 0),
                PartitionStats::synthetic(1_000, &[500, 100]),
            );
            b.place(PartId::new(r, 0), NodeId(1)); // all on one node → big local DP
            rels.push(r);
        }
        b.add_node(NodeId(0));
        let cat = b.build();
        let sql = "SELECT r0.v, r5.v FROM r0, r1, r2, r3, r4, r5 WHERE \
                   r0.k = r1.k AND r1.k = r2.k AND r2.k = r3.k AND r3.k = r4.k AND r4.k = r5.k";
        let q = parse_query(&cat.dict, sql).unwrap();
        let cfg = QtConfig::default();
        let dp = run_baseline(
            BaselineKind::TradDp,
            &cat,
            &Default::default(),
            NodeId(0),
            &q,
            &cfg,
        );
        let idp = run_baseline(
            BaselineKind::TradIdp { k: 2, m: 5 },
            &cat,
            &Default::default(),
            NodeId(0),
            &q,
            &cfg,
        );
        assert!(
            idp.seller_effort < dp.seller_effort,
            "IDP prunes: {} vs {}",
            idp.seller_effort,
            dp.seller_effort
        );
        assert!(idp.plan.is_some());
        // IDP quality can be worse but never better than exhaustive DP
        // (both search the same space with the same cost model).
        let dpc = dp.plan.unwrap().est.additive_cost;
        let idpc = idp.plan.unwrap().est.additive_cost;
        assert!(idpc >= dpc - 1e-9);
    }

    /// ShipAll fetches raw base fragments only. A single-relation aggregate
    /// query passes its one-relation filter, so its partial aggregates must
    /// be kept out by kind; TradDP, which admits them, buys some.
    #[test]
    fn shipall_never_buys_a_partial_aggregate() {
        let cat = catalog();
        let q = parse_query(&cat.dict, "SELECT b, SUM(a) FROM r GROUP BY b").unwrap();
        let kinds = |kind| {
            let out = run_baseline(
                kind,
                &cat,
                &Default::default(),
                NodeId(0),
                &q,
                &QtConfig::default(),
            );
            let plan = out.plan.expect("plan");
            plan.purchases
                .iter()
                .map(|p| p.offer.kind)
                .collect::<Vec<_>>()
        };
        assert!(kinds(BaselineKind::TradDp).contains(&OfferKind::PartialAggregate));
        let ship = kinds(BaselineKind::ShipAll);
        assert!(!ship.is_empty());
        assert!(!ship.contains(&OfferKind::PartialAggregate), "{ship:?}");
    }

    #[test]
    fn labels() {
        assert_eq!(BaselineKind::TradDp.label(), "TradDP");
        assert_eq!(BaselineKind::TradIdp { k: 2, m: 5 }.label(), "TradIDP(2,5)");
        assert_eq!(BaselineKind::ShipAll.label(), "ShipAll");
    }
}
