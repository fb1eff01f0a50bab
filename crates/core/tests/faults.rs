//! End-to-end fault injection: the QT trading loop over a lossy, crashing,
//! partitioned network must stay deterministic, degrade gracefully, and —
//! with an inert plan — be bit-identical to the fault-free driver.

use qt_catalog::NodeId;
use qt_core::{run_qt_sim_with_faults, QtConfig, SellerEngine};
use qt_net::{FaultPlan, Metrics, Topology};
use qt_workload::{build_federation, gen_join_query, Federation, FederationSpec, QueryShape};
use std::collections::BTreeMap;

fn spec(nodes: u32, seed: u64) -> FederationSpec {
    FederationSpec {
        nodes,
        relations: 3,
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

/// A compact, comparable digest of one simulated run.
fn digest(out: &qt_core::QtOutcome, m: &Metrics) -> (String, u64, u64, u64, u64, u64, u64, u64) {
    (
        format!("{:?}", out.plan),
        out.plan
            .as_ref()
            .map(|p| p.est.additive_cost.to_bits())
            .unwrap_or(0),
        out.messages,
        out.optimization_time.to_bits(),
        m.dropped,
        m.duplicated,
        m.retries,
        m.timeouts,
    )
}

#[test]
fn inert_fault_plane_is_bit_identical_to_no_plan() {
    // Loss rate 0, no crashes: the fault-plane code path must not perturb
    // plans, costs, or message counts in any way.
    let fed = build_federation(&spec(8, 21));
    let cfg = QtConfig::default();
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, true, 21);
    let baseline = run_qt_sim_with_faults(
        NodeId(0),
        fed.catalog.dict.clone(),
        &q,
        engines(&fed, &cfg),
        &cfg,
        Topology::Uniform(cfg.link),
        None,
    );
    let with_inert = run_qt_sim_with_faults(
        NodeId(0),
        fed.catalog.dict.clone(),
        &q,
        engines(&fed, &cfg),
        &cfg,
        Topology::Uniform(cfg.link),
        Some(FaultPlan::lossy(99, 0.0)),
    );
    assert!(baseline.0.plan.is_some());
    assert_eq!(
        digest(&baseline.0, &baseline.1),
        digest(&with_inert.0, &with_inert.1)
    );
    assert_eq!(with_inert.0.retries, 0);
    assert_eq!(with_inert.0.degraded_rounds, 0);
    assert!(with_inert.0.unreachable_sellers.is_empty());
}

#[test]
fn lossy_network_still_yields_a_valid_plan() {
    // ≥10% message loss: retransmission with backoff keeps the market
    // alive, and the buyer still produces a plan.
    let fed = build_federation(&spec(8, 21));
    let cfg = QtConfig {
        seller_timeout: 5.0,
        ..QtConfig::default()
    };
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, true, 21);
    let (out, metrics) = run_qt_sim_with_faults(
        NodeId(0),
        fed.catalog.dict.clone(),
        &q,
        engines(&fed, &cfg),
        &cfg,
        Topology::Uniform(cfg.link),
        Some(FaultPlan::lossy(7, 0.15)),
    );
    let plan = out.plan.expect("trading must survive 15% loss");
    assert!(plan.est.additive_cost.is_finite());
    assert!(metrics.dropped > 0, "15% loss must drop something");
    assert_eq!(metrics.dropped_by_cause.get("loss"), Some(&metrics.dropped));
    // The driver surfaces its robustness counters in both places.
    assert_eq!(metrics.retries, out.retries);
    assert_eq!(metrics.timeouts, out.timeouts);
    assert!(
        out.timeouts > 0,
        "lost replies must trip the response deadline"
    );
    assert!(out.retries > 0, "deadlines must trigger retransmission");
}

#[test]
fn duplicated_deliveries_are_idempotent() {
    // Heavy duplication: the buyer's reply dedup and the sellers' request
    // dedup must keep the outcome identical to a clean run — duplicates
    // change nothing but the metrics.
    let fed = build_federation(&spec(8, 21));
    let cfg = QtConfig::default();
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, true, 21);
    let clean = run_qt_sim_with_faults(
        NodeId(0),
        fed.catalog.dict.clone(),
        &q,
        engines(&fed, &cfg),
        &cfg,
        Topology::Uniform(cfg.link),
        None,
    );
    let dup = run_qt_sim_with_faults(
        NodeId(0),
        fed.catalog.dict.clone(),
        &q,
        engines(&fed, &cfg),
        &cfg,
        Topology::Uniform(cfg.link),
        Some(FaultPlan::default().with_duplicates(1.0)),
    );
    assert!(dup.1.duplicated > 0);
    assert_eq!(
        format!("{:?}", clean.0.plan),
        format!("{:?}", dup.0.plan),
        "duplicates must not change the winning plan"
    );
    assert_eq!(
        clean.0.iterations, dup.0.iterations,
        "duplicates must not add trading rounds"
    );
    assert_eq!(clean.0.buyer_considered, dup.0.buyer_considered);
}

#[test]
fn crashed_seller_degrades_the_round_and_is_reported() {
    let fed = build_federation(&spec(8, 21));
    let cfg = QtConfig {
        seller_timeout: 2.0,
        ..QtConfig::default()
    };
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, true, 21);
    let (out, metrics) = run_qt_sim_with_faults(
        NodeId(0),
        fed.catalog.dict.clone(),
        &q,
        engines(&fed, &cfg),
        &cfg,
        Topology::Uniform(cfg.link),
        // Node 3 is down for the whole run.
        Some(FaultPlan::default().with_crash(NodeId(3), 0.0, 1e12)),
    );
    assert!(
        out.unreachable_sellers.contains(&NodeId(3)),
        "{:?}",
        out.unreachable_sellers
    );
    assert!(out.degraded_rounds >= 1);
    assert_eq!(metrics.degraded_rounds, out.degraded_rounds as u64);
    assert!(metrics.dropped_by_cause.get("crash").copied().unwrap_or(0) > 0);
    // Replication 2: every fragment lives somewhere else too, so trading
    // still finds a (possibly degraded) plan.
    assert!(
        out.plan.is_some(),
        "replication must cover the crashed node"
    );
}

#[test]
fn same_fault_seed_is_bit_reproducible() {
    let fed = build_federation(&spec(8, 5));
    let cfg = QtConfig {
        seller_timeout: 5.0,
        ..QtConfig::default()
    };
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Star, 3, false, 5);
    let run = || {
        let (out, m) = run_qt_sim_with_faults(
            NodeId(0),
            fed.catalog.dict.clone(),
            &q,
            engines(&fed, &cfg),
            &cfg,
            Topology::Uniform(cfg.link),
            Some(
                FaultPlan::lossy(13, 0.2)
                    .with_duplicates(0.1)
                    .with_jitter(0.5),
            ),
        );
        digest(&out, &m)
    };
    assert_eq!(run(), run());
}

#[test]
fn different_fault_seeds_usually_differ() {
    // Not a hard guarantee, but with 20% loss two seeds agreeing on every
    // counter would suggest the seed is ignored.
    let fed = build_federation(&spec(8, 5));
    let cfg = QtConfig {
        seller_timeout: 5.0,
        ..QtConfig::default()
    };
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Star, 3, false, 5);
    let run = |seed: u64| {
        let (out, m) = run_qt_sim_with_faults(
            NodeId(0),
            fed.catalog.dict.clone(),
            &q,
            engines(&fed, &cfg),
            &cfg,
            Topology::Uniform(cfg.link),
            Some(FaultPlan::lossy(seed, 0.2)),
        );
        (m.dropped, m.retries, out.optimization_time.to_bits())
    };
    let outcomes: std::collections::BTreeSet<_> = (0..4).map(run).collect();
    assert!(outcomes.len() > 1, "fault seeds appear to be ignored");
}
