//! Replay determinism under faults, and observability of the cross-round
//! offer cache.

use qt_catalog::NodeId;
use qt_core::{run_qt_direct, QtConfig, SellerEngine};
use qt_cost::NetLink;
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

/// Determinism under faults: the fault plane rolls per message sequence
/// number inside the single-threaded simulator, so replaying a `FaultPlan`
/// seed must give a bit-identical outcome. CI runs this suite in every cell
/// of its `QT_THREADS` × `QT_FAULT_SEED` matrix.
#[test]
fn fault_injection_is_deterministic_across_thread_counts() {
    use qt_core::{run_qt_serve_with_faults, ServeConfig};
    use qt_net::{FaultPlan, Topology};
    let fault_seed: u64 = std::env::var("QT_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let fed = build_federation(&spec(8, 17));
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, true, 17);
    let run = || {
        let cfg = QtConfig {
            seller_timeout: 5.0,
            ..QtConfig::default()
        };
        run_qt_serve_with_faults(
            NodeId(0),
            fed.catalog.dict.clone(),
            vec![(0.0, q.clone())],
            engines(&fed, &cfg),
            &cfg,
            &ServeConfig::default(),
            Topology::Uniform(NetLink::wan()),
            Some(
                FaultPlan::lossy(fault_seed, 0.15)
                    .with_duplicates(0.05)
                    .with_jitter(0.25),
            ),
        )
    };
    // Plan, trading and fault accounting must all be bit-identical.
    let digest = |out: &qt_core::ServeOutcome| {
        let r = &out.reports[0];
        let considered: u64 = r.history.iter().map(|h| h.considered).sum();
        let m = &out.metrics;
        (
            format!("{:?}", r.plan),
            (r.iterations, out.messages, out.seller_effort, considered),
            r.finished.to_bits(),
            (m.dropped, m.duplicated, out.retries, out.timeouts),
            out.unreachable_sellers.clone(),
        )
    };
    assert_eq!(digest(&run()), digest(&run()), "faults, seed={fault_seed}");
}

#[test]
fn repeated_runs_hit_the_offer_cache() {
    let fed = build_federation(&spec(8, 11));
    let cfg = QtConfig::default();
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, true, 11);
    let mut sellers = engines(&fed, &cfg);

    let first = run_qt_direct(NodeId(0), fed.catalog.dict.clone(), &q, &mut sellers, &cfg);
    assert_eq!(first.offer_cache_hits, 0, "cold caches cannot hit");
    assert!(first.offer_cache_misses > 0);
    assert!(first.seller_effort > 0);

    // Re-optimizing the same query against the *same* (persistent) sellers:
    // the buyer re-asks the identical RFB sequence, so every item is served
    // from the memoized replies at zero seller effort.
    let second = run_qt_direct(NodeId(0), fed.catalog.dict.clone(), &q, &mut sellers, &cfg);
    assert!(second.offer_cache_hits > 0, "warm run must hit the cache");
    assert_eq!(
        second.offer_cache_misses, 0,
        "nothing changed, nothing re-evaluated"
    );
    assert_eq!(
        second.seller_effort, 0,
        "cache hits cost no optimization effort"
    );

    // Hit rate is observable and the warm plan is cost-identical (offer ids
    // advance, so compare the estimate, not the full Debug rendering).
    let a = first.plan.expect("cold plan");
    let b = second.plan.expect("warm plan");
    assert_eq!(a.est.additive_cost.to_bits(), b.est.additive_cost.to_bits());
}

#[test]
fn cache_survives_awards_under_truthful_default() {
    let fed = build_federation(&spec(4, 3));
    let cfg = QtConfig::default();
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Star, 3, false, 3);
    let mut sellers = engines(&fed, &cfg);
    run_qt_direct(NodeId(0), fed.catalog.dict.clone(), &q, &mut sellers, &cfg);
    // run_qt_direct already delivered awards; the default Truthful strategy
    // is award-independent so the memoized replies stay valid.
    let hits_before: u64 = sellers.values().map(|s| s.cache_hits).sum();
    let second = run_qt_direct(NodeId(0), fed.catalog.dict.clone(), &q, &mut sellers, &cfg);
    let hits_after: u64 = sellers.values().map(|s| s.cache_hits).sum();
    assert!(hits_after > hits_before);
    assert_eq!(second.offer_cache_misses, 0);
}
