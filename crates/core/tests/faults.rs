//! End-to-end fault injection: the QT trading loop over a lossy, crashing,
//! partitioned network must stay deterministic, degrade gracefully, and —
//! with an inert plan — be bit-identical to the fault-free driver.

use qt_catalog::NodeId;
use qt_core::{run_qt_serve_with_faults, QtConfig, SellerEngine, ServeConfig, ServeOutcome};
use qt_cost::NetLink;
use qt_net::{FaultPlan, Topology};
use qt_query::Query;
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

/// Trade `q` alone on the simulator: one arrival at t = 0, so its report's
/// `finished` time is the optimization time.
fn run(fed: &Federation, q: &Query, cfg: &QtConfig, faults: Option<FaultPlan>) -> ServeOutcome {
    run_qt_serve_with_faults(
        NodeId(0),
        fed.catalog.dict.clone(),
        vec![(0.0, q.clone())],
        engines(fed, cfg),
        cfg,
        &ServeConfig::default(),
        Topology::Uniform(NetLink::wan()),
        faults,
    )
}

/// A compact, comparable digest of one simulated run.
fn digest(out: &ServeOutcome) -> (String, u64, u64, u64, u64, u64, u64, u64) {
    let r = &out.reports[0];
    (
        format!("{:?}", r.plan),
        r.plan
            .as_ref()
            .map(|p| p.est.additive_cost.to_bits())
            .unwrap_or(0),
        out.messages,
        r.finished.to_bits(),
        out.metrics.dropped,
        out.metrics.duplicated,
        out.retries,
        out.timeouts,
    )
}

#[test]
fn inert_fault_plane_is_bit_identical_to_no_plan() {
    // Loss rate 0, no crashes: the fault-plane code path must not perturb
    // plans, costs, or message counts in any way.
    let fed = build_federation(&spec(8, 21));
    let cfg = QtConfig::default();
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, true, 21);
    let baseline = run(&fed, &q, &cfg, None);
    let with_inert = run(&fed, &q, &cfg, Some(FaultPlan::lossy(99, 0.0)));
    assert!(baseline.reports[0].plan.is_some());
    assert_eq!(digest(&baseline), digest(&with_inert));
    assert_eq!(with_inert.retries, 0);
    assert_eq!(with_inert.degraded_rounds, 0);
    assert!(with_inert.unreachable_sellers.is_empty());
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
    let out = run(&fed, &q, &cfg, Some(FaultPlan::lossy(7, 0.15)));
    let plan = out.reports[0]
        .plan
        .as_ref()
        .expect("trading must survive 15% loss");
    assert!(plan.est.additive_cost.is_finite());
    let metrics = &out.metrics;
    assert!(metrics.dropped > 0, "15% loss must drop something");
    assert_eq!(metrics.dropped_by_cause.get("loss"), Some(&metrics.dropped));
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
    let clean = run(&fed, &q, &cfg, None);
    let dup = run(
        &fed,
        &q,
        &cfg,
        Some(FaultPlan::default().with_duplicates(1.0)),
    );
    assert!(dup.metrics.duplicated > 0);
    let (clean, dup) = (&clean.reports[0], &dup.reports[0]);
    assert_eq!(
        format!("{:?}", clean.plan),
        format!("{:?}", dup.plan),
        "duplicates must not change the winning plan"
    );
    assert_eq!(
        clean.iterations, dup.iterations,
        "duplicates must not add trading rounds"
    );
    let considered =
        |r: &qt_core::SessionReport| -> u64 { r.history.iter().map(|h| h.considered).sum() };
    assert_eq!(considered(clean), considered(dup));
}

#[test]
fn crashed_seller_degrades_the_round_and_is_reported() {
    let fed = build_federation(&spec(8, 21));
    let cfg = QtConfig {
        seller_timeout: 2.0,
        ..QtConfig::default()
    };
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, true, 21);
    // Node 3 is down for the whole run.
    let down = FaultPlan::default().with_crash(NodeId(3), 0.0, 1e12);
    let out = run(&fed, &q, &cfg, Some(down));
    assert!(
        out.unreachable_sellers.contains(&NodeId(3)),
        "{:?}",
        out.unreachable_sellers
    );
    assert!(out.degraded_rounds >= 1);
    let crashed = out.metrics.dropped_by_cause.get("crash").copied();
    assert!(crashed.unwrap_or(0) > 0);
    // Replication 2: every fragment lives somewhere else too, so trading
    // still finds a (possibly degraded) plan.
    assert!(
        out.reports[0].plan.is_some(),
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
    let faults = || {
        FaultPlan::lossy(13, 0.2)
            .with_duplicates(0.1)
            .with_jitter(0.5)
    };
    let a = run(&fed, &q, &cfg, Some(faults()));
    let b = run(&fed, &q, &cfg, Some(faults()));
    assert_eq!(digest(&a), digest(&b));
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
    let outcome = |seed: u64| {
        let out = run(&fed, &q, &cfg, Some(FaultPlan::lossy(seed, 0.2)));
        let finished = out.reports[0].finished.to_bits();
        (out.metrics.dropped, out.retries, finished)
    };
    let outcomes: std::collections::BTreeSet<_> = (0..4).map(outcome).collect();
    assert!(outcomes.len() > 1, "fault seeds appear to be ignored");
}
