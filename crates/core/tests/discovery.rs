//! Discovery & broker-hierarchy invariants — the scale-out PR contract.
//!
//! 1. **Scoped == flat.** With exact digests and subcontracting off,
//!    digest-scoped RFB routing is *lossless*: plans, cost bits, offer ids
//!    and iteration counts are bit-identical to full broadcast, while the
//!    trading message count can only shrink. (A digest can over-route — hash
//!    collisions — but never under-route, so no winning offer is lost.)
//!    Exercised on a hierarchy whose fanout fits every seller directly under
//!    the buyer: no brokers, the buyer's own advertisement table scopes.
//! 2. **Drift degrades, re-advertisement restores.** A seller the buyer
//!    holds no advertisement for draws no RFBs; the buyer still plans from
//!    whoever answered (equal-or-worse cost, possibly no plan), and
//!    re-advertising restores flat equality exactly.
//! 3. **Hierarchy k=0 == flat serve.** A lossless broker tier between buyer
//!    and sellers reproduces every session's plan and cost bits while
//!    cutting the buyer's fan-in to O(regions).
//! 4. **Admission control is explicit.** A broker past its inflight bound
//!    answers `Shed`, the buyer aborts that session with `plan: None`, and
//!    the counters say so — no silent queueing, no hangs.
//! 5. **Churn survives.** With replication-3 holdings and contract failover,
//!    crash-windowing ~10% of sellers mid-serve still completes ≥99% of
//!    sessions.

use proptest::prelude::*;
use qt_catalog::NodeId;
use qt_core::{
    query_digest, run_qt_serve, run_qt_serve_with_faults, seller_digest, BrokerTree,
    HierarchyConfig, QtConfig, SellerEngine, ServeConfig, ServeOutcome,
};
use qt_cost::NetLink;
use qt_net::{FaultPlan, Topology};
use qt_query::{Query, SharedQuery};
use qt_workload::{
    build_federation, gen_arrivals, gen_join_query, synthetic_mix, ArrivalSpec, Federation,
    FederationSpec, QueryShape,
};
use std::collections::BTreeMap;

fn spec(nodes: u32, seed: u64) -> FederationSpec {
    FederationSpec {
        nodes,
        relations: 4,
        partitions_per_relation: 2,
        replication: 2,
        rows_per_partition: 100_000,
        scale: 1,
        seed,
        with_data: false,
        speed_spread: 2.0,
        data_skew: 0.0,
    }
}

fn engines(fed: &Federation, cfg: &QtConfig) -> BTreeMap<NodeId, SellerEngine> {
    fed.catalog
        .nodes
        .iter()
        .map(|&n| {
            let mut e = SellerEngine::new(fed.catalog.holdings_of(n), cfg.clone());
            if let Some(r) = fed.resources.get(&n) {
                e.resources = r.clone();
            }
            (n, e)
        })
        .collect()
}

/// Everything routing must not perturb, for a one-query run.
fn trade_digest(out: &ServeOutcome) -> (String, u64, u32) {
    let r = &out.reports[0];
    (
        format!("{:?}", r.plan),
        r.plan
            .as_ref()
            .map(|p| p.est.additive_cost.to_bits())
            .unwrap_or(0),
        r.iterations,
    )
}

/// Per-query trading traffic. Advertisements are a one-off boot cost shared
/// by every query the federation ever serves, not part of a query's trade.
fn trading_messages(out: &ServeOutcome) -> u64 {
    out.messages - out.metrics.kind_count("advertise")
}

/// A hierarchy that fits every seller directly under the buyer: no brokers
/// are built, and the buyer scopes each round by its children's advertised
/// digests.
fn seller_scoped(fed: &Federation) -> HierarchyConfig {
    hier(fed.catalog.nodes.len())
}

/// Trade `q` alone, flat (`hierarchy: None`) or scoped. The arrival is
/// offset past t=0 so the boot advertisements land before the first RFB.
fn trade(
    fed: &Federation,
    q: &Query,
    hierarchy: Option<HierarchyConfig>,
    faults: Option<FaultPlan>,
) -> ServeOutcome {
    let cfg = QtConfig::default();
    run_qt_serve_with_faults(
        NodeId(0),
        fed.catalog.dict.clone(),
        vec![(5.0, q.clone())],
        engines(fed, &cfg),
        &cfg,
        &ServeConfig {
            hierarchy,
            ..ServeConfig::default()
        },
        Topology::Uniform(NetLink::wan()),
        faults,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// Exact digests, subcontracting off: scoped routing is bit-identical
    /// to broadcast and never costs more messages.
    #[test]
    fn scoped_routing_is_bit_identical_to_flat(
        seed in 0u64..200,
        nodes in 6u32..12,
        rels in 2usize..4,
        shape in prop_oneof![Just(QueryShape::Chain), Just(QueryShape::Star)],
    ) {
        let fed = build_federation(&spec(nodes, seed));
        let q = gen_join_query(&fed.catalog.dict, shape, rels, true, seed);
        prop_assert!(!QtConfig::default().enable_subcontracting);
        let flat = trade(&fed, &q, None, None);
        let scoped = trade(&fed, &q, Some(seller_scoped(&fed)), None);
        prop_assert_eq!(trade_digest(&flat), trade_digest(&scoped));
        prop_assert!(
            trading_messages(&scoped) <= trading_messages(&flat),
            "scoping must not add traffic: {} > {}",
            trading_messages(&scoped),
            trading_messages(&flat)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8 })]

    /// Digest saturation: past 64 relations the 64-bit digest wraps
    /// (`rel % 64`), so distinct relations share bits. Collisions may
    /// over-route — a seller whose digest bit matches by accident still
    /// draws an RFB — but must never under-route: every seller that truly
    /// intersects the query keeps a set bit, and plans stay bit-identical
    /// to broadcast.
    #[test]
    fn saturated_digests_over_route_but_never_under_route(
        seed in 0u64..100,
        rels in 66usize..81,
        q_rels in 2usize..4,
    ) {
        let fed = build_federation(&FederationSpec {
            relations: rels,
            ..spec(10, seed)
        });
        let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, q_rels, true, seed);
        let want = query_digest(&q);
        let cfg = QtConfig::default();
        for (&n, e) in engines(&fed, &cfg).iter() {
            if n == NodeId(0) {
                continue;
            }
            let intersects = fed
                .catalog
                .holdings_of(n)
                .held
                .keys()
                .any(|p| q.relations.contains_key(&p.rel));
            if intersects {
                prop_assert!(
                    seller_digest(e) & want != 0,
                    "seller {n:?} holds a queried relation but its saturated \
                     digest lost the bit — scoping would drop a real seller"
                );
            }
        }
        let flat = trade(&fed, &q, None, None);
        let scoped = trade(&fed, &q, Some(seller_scoped(&fed)), None);
        prop_assert_eq!(trade_digest(&flat), trade_digest(&scoped));
        prop_assert!(trading_messages(&scoped) <= trading_messages(&flat));
    }
}

#[test]
fn scoping_drops_messages_for_disjoint_sellers() {
    // A federation where some sellers hold nothing a 2-relation query
    // touches: scoping must actually skip them, not just tie broadcast.
    let fed = build_federation(&FederationSpec {
        relations: 6,
        ..spec(10, 33)
    });
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 2, true, 33);
    let cfg = QtConfig::default();
    let want = query_digest(&q);
    let disjoint = engines(&fed, &cfg)
        .iter()
        .filter(|(&n, e)| n != NodeId(0) && seller_digest(e) & want == 0)
        .count();
    if disjoint == 0 {
        return; // layout happens to cover everyone; nothing to assert
    }
    let flat = trade(&fed, &q, None, None);
    let scoped = trade(&fed, &q, Some(seller_scoped(&fed)), None);
    assert_eq!(trade_digest(&flat), trade_digest(&scoped));
    assert!(
        trading_messages(&scoped) < trading_messages(&flat),
        "{disjoint} disjoint sellers must save traffic ({} vs {})",
        trading_messages(&scoped),
        trading_messages(&flat)
    );
}

#[test]
fn stale_ads_degrade_and_readvertisement_restores_equality() {
    let fed = build_federation(&spec(8, 7));
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, true, 7);
    let flat = trade(&fed, &q, None, None);
    let flat_cost = flat.reports[0]
        .plan
        .as_ref()
        .expect("flat run must plan")
        .est
        .additive_cost;

    // Drifted catalog: half the federation was down while the boot
    // advertisements went out, so the buyer holds no digest for it — and
    // advertisement is membership. Those sellers are back long before the
    // query arrives but draw no RFBs, so the buyer can only do as well or
    // worse — never better, never wrong.
    let stale: Vec<NodeId> = fed
        .catalog
        .nodes
        .iter()
        .copied()
        .filter(|n| n.0 != 0 && n.0 % 2 == 0)
        .collect();
    let down_at_boot = stale
        .iter()
        .fold(FaultPlan::default(), |p, &n| p.with_crash(n, 0.0, 2.0));
    let drifted = trade(
        &fed,
        &q,
        Some(seller_scoped(&fed)),
        Some(down_at_boot.clone()),
    );
    assert!(
        trading_messages(&drifted) < trading_messages(&flat),
        "unadvertised sellers must draw no RFBs"
    );
    if let Some(p) = &drifted.reports[0].plan {
        assert!(
            p.est.additive_cost >= flat_cost,
            "stale ads cannot beat broadcast: {} < {flat_cost}",
            p.est.additive_cost
        );
    }

    // Re-advertisement after recovery restores bit-identity.
    let readvertised = HierarchyConfig {
        advertise_at: stale.iter().map(|&n| (3.0, n)).collect(),
        ..seller_scoped(&fed)
    };
    let fresh = trade(&fed, &q, Some(readvertised), Some(down_at_boot));
    assert_eq!(trade_digest(&flat), trade_digest(&fresh));
}

// ---------------------------------------------------------------------------
// Serving-layer hierarchy
// ---------------------------------------------------------------------------

fn serve_engines(fed: &Federation, cfg: &QtConfig) -> BTreeMap<NodeId, SellerEngine> {
    engines(fed, cfg)
}

/// Arrivals offset past t=0 so the boot advertisements (injected at t=0)
/// reach every broker before the first RFB — advertisement is membership.
fn arrivals(fed: &Federation, n: usize, seed: u64, offset: f64) -> Vec<(f64, Query)> {
    let mix = synthetic_mix(&fed.catalog.dict, 4, seed);
    gen_arrivals(
        &mix,
        &ArrivalSpec {
            n_queries: n,
            mean_interarrival: 0.5,
            seed,
        },
    )
    .into_iter()
    .map(|(t, q)| (t + offset, q))
    .collect()
}

fn serve_digest(out: &ServeOutcome) -> Vec<(u64, String, u64)> {
    out.reports
        .iter()
        .map(|r| {
            (
                r.session.0,
                format!("{:?}", r.plan),
                r.plan
                    .as_ref()
                    .map(|p| p.est.additive_cost.to_bits())
                    .unwrap_or(0),
            )
        })
        .collect()
}

fn hier(fanout: usize) -> HierarchyConfig {
    HierarchyConfig {
        fanout,
        ..HierarchyConfig::default()
    }
}

#[test]
fn lossless_broker_tier_matches_flat_serve() {
    let fed = build_federation(&spec(16, 11));
    let cfg = QtConfig {
        seller_timeout: 300.0,
        ..QtConfig::default()
    };
    let stream = arrivals(&fed, 12, 11, 5.0);
    let flat = run_qt_serve(
        NodeId(0),
        fed.catalog.dict.clone(),
        stream.clone(),
        serve_engines(&fed, &cfg),
        &cfg,
        &ServeConfig {
            concurrency: 4,
            batch_rfbs: true,
            ..ServeConfig::default()
        },
    );
    let tiered = run_qt_serve(
        NodeId(0),
        fed.catalog.dict.clone(),
        stream,
        serve_engines(&fed, &cfg),
        &cfg,
        &ServeConfig {
            concurrency: 4,
            batch_rfbs: true,
            hierarchy: Some(hier(4)),
            ..ServeConfig::default()
        },
    );
    assert!(
        flat.reports.iter().all(|r| r.plan.is_some()),
        "flat baseline must plan every session"
    );
    assert_eq!(
        serve_digest(&flat),
        serve_digest(&tiered),
        "k=0 broker aggregation must be lossless"
    );
    assert_eq!(tiered.shed_sessions, 0);
}

/// The same query traded twice through two broker tiers. The second session
/// is answered from the sellers' offer caches, so if no hop between a
/// seller's cache and the buyer's finished plan — reply memo, simulator
/// message, either broker tier's `pending`/`done`, the buyer's pool, plan
/// generation, negotiation — deep-copies an offer's query, both sessions'
/// purchases still point at the allocation the seller's DP made.
#[test]
fn offers_cross_two_broker_tiers_without_copying_their_query() {
    let fed = build_federation(&spec(16, 11));
    let cfg = QtConfig {
        seller_timeout: 300.0,
        ..QtConfig::default()
    };
    let remote: Vec<NodeId> = fed.catalog.nodes.iter().copied().skip(1).collect();
    assert_eq!(fed.catalog.nodes[0], NodeId(0));
    assert_eq!(
        BrokerTree::build(&remote, 3, 100).depth,
        3,
        "15 sellers under fanout 3: two broker tiers below the buyer"
    );
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, false, 11);
    let out = run_qt_serve(
        NodeId(0),
        fed.catalog.dict.clone(),
        vec![(5.0, q.clone()), (6.0, q)],
        serve_engines(&fed, &cfg),
        &cfg,
        &ServeConfig {
            hierarchy: Some(hier(3)),
            ..ServeConfig::default()
        },
    );
    assert!(out.metrics.kind_count("agg-offers") > 0);
    assert_eq!((out.offer_cache_hits > 0, out.reports.len()), (true, 2));
    let cold = out.reports[0].plan.as_ref().expect("first session plans");
    let warm = out.reports[1].plan.as_ref().expect("second session plans");
    assert_eq!(cold.purchases.len(), warm.purchases.len());
    assert!(cold.purchases.iter().any(|p| p.offer.seller != NodeId(0)));
    for (c, w) in cold.purchases.iter().zip(&warm.purchases) {
        assert_eq!((c.offer.seller, c.offer.id), (w.offer.seller, w.offer.id));
        assert!(
            SharedQuery::ptr_eq(&c.offer.query, &w.offer.query),
            "offer {} of {} was copied on its way",
            c.offer.id,
            c.offer.seller
        );
    }
}

#[test]
fn broker_admission_sheds_explicitly() {
    let fed = build_federation(&spec(16, 13));
    let cfg = QtConfig {
        seller_timeout: 300.0,
        ..QtConfig::default()
    };
    // Every arrival lands in the same instant; inflight bound 1 forces the
    // brokers to shed all but one concurrent session.
    let stream: Vec<(f64, Query)> = arrivals(&fed, 8, 13, 5.0)
        .into_iter()
        .map(|(_, q)| (5.0, q))
        .collect();
    let out = run_qt_serve(
        NodeId(0),
        fed.catalog.dict.clone(),
        stream,
        serve_engines(&fed, &cfg),
        &cfg,
        &ServeConfig {
            concurrency: 8,
            batch_rfbs: true,
            hierarchy: Some(HierarchyConfig {
                max_broker_inflight: 1,
                ..hier(4)
            }),
            ..ServeConfig::default()
        },
    );
    assert_eq!(out.reports.len(), 8, "every session must be reported");
    assert!(
        out.shed_retries > 0,
        "inflight bound 1 under concurrency 8 must shed, and shed sessions retry"
    );
    // Shed recovery: every shed session is re-admitted once on the flat
    // path after capped backoff, so nothing permanently aborts.
    assert_eq!(
        out.shed_sessions, 0,
        "flat-path retries must absorb every shed"
    );
    assert!(
        out.reports.iter().all(|r| r.plan.is_some()),
        "every session (including retried sheds) must plan"
    );
    let retried = out.reports.iter().filter(|r| r.shed_retried).count() as u64;
    assert_eq!(
        retried, out.shed_retries,
        "reports must flag exactly the retried sessions"
    );
}

#[test]
fn churn_with_replicated_contracts_keeps_completion_high() {
    let fed = build_federation(&FederationSpec {
        replication: 3,
        ..spec(20, 17)
    });
    let cfg = QtConfig {
        enable_contracts: true,
        seller_timeout: 20.0,
        ..QtConfig::default()
    };
    let stream = arrivals(&fed, 30, 17, 5.0);
    let horizon = stream.last().unwrap().0;
    // ~10% of sellers crash for a window mid-serve. Replication-3 holdings
    // mean every partition stays coverable; brokers mark the crashed
    // children down after their deadline and route around them.
    let faults = FaultPlan::lossy(17, 0.0)
        .with_crash(NodeId(5), 6.0, horizon + 50.0)
        .with_crash(NodeId(11), 8.0, horizon + 50.0);
    let out = run_qt_serve_with_faults(
        NodeId(0),
        fed.catalog.dict.clone(),
        stream,
        serve_engines(&fed, &cfg),
        &cfg,
        &ServeConfig {
            concurrency: 4,
            batch_rfbs: true,
            hierarchy: Some(hier(4)),
            ..ServeConfig::default()
        },
        Topology::Uniform(NetLink::wan()),
        Some(faults),
    );
    let done = out.reports.iter().filter(|r| r.plan.is_some()).count();
    assert_eq!(out.reports.len(), 30);
    assert!(
        done as f64 >= 0.99 * 30.0,
        "≥99% completion under 10% churn, got {done}/30"
    );
}

#[test]
fn late_advertisement_joins_a_boot_crashed_seller() {
    // Elastic membership: a seller crashed at boot never advertises, so it
    // simply isn't routed to; once it recovers and its advertise_at tick
    // lands, later sessions can trade with it again.
    let fed = build_federation(&spec(12, 19));
    let cfg = QtConfig {
        seller_timeout: 20.0,
        ..QtConfig::default()
    };
    let stream = arrivals(&fed, 10, 19, 5.0);
    let faults = FaultPlan::lossy(19, 0.0).with_crash(NodeId(3), 0.0, 2.0);
    let out = run_qt_serve_with_faults(
        NodeId(0),
        fed.catalog.dict.clone(),
        stream,
        serve_engines(&fed, &cfg),
        &cfg,
        &ServeConfig {
            concurrency: 2,
            batch_rfbs: true,
            hierarchy: Some(HierarchyConfig {
                advertise_at: vec![(3.0, NodeId(3))],
                ..hier(4)
            }),
            ..ServeConfig::default()
        },
        Topology::Uniform(NetLink::wan()),
        Some(faults),
    );
    let done = out.reports.iter().filter(|r| r.plan.is_some()).count();
    assert_eq!(done, 10, "boot-crash + rejoin must not lose sessions");
}
