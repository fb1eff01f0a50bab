//! Session isolation of the serving layer.
//!
//! The contract under test: serving M queries *concurrently* (several
//! sessions multiplexed over one federation, RFB batching on or off) must
//! produce, for every session, the *bit-identical* observables of serving
//! the same arrival stream one-at-a-time over the same persistent sellers —
//! same winning plan, same cost bits, same offer ids, same iteration count —
//! because every scheduling decision is ordered by (virtual time, arrival
//! seq, session id) and all per-session state (engines, offer-id counters,
//! reply memos) is keyed by session.

use proptest::prelude::*;
use qt_catalog::NodeId;
use qt_core::{run_qt_serve, QtConfig, SellerEngine, ServeConfig, ServeOutcome};
use qt_query::Query;
use qt_workload::{
    build_federation, gen_arrivals, synthetic_mix, ArrivalSpec, Federation, FederationSpec,
};
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

fn arrivals(fed: &Federation, n: usize, seed: u64) -> Vec<(f64, Query)> {
    let mix = synthetic_mix(&fed.catalog.dict, 4, seed);
    gen_arrivals(
        &mix,
        &ArrivalSpec {
            n_queries: n,
            mean_interarrival: 0.0,
            seed,
        },
    )
}

fn serve(
    fed: &Federation,
    stream: &[(f64, Query)],
    concurrency: usize,
    batch: bool,
) -> ServeOutcome {
    let cfg = QtConfig {
        // Deep admission queues must not trip retransmission deadlines.
        seller_timeout: 300.0,
        ..QtConfig::default()
    };
    run_qt_serve(
        NodeId(0),
        fed.catalog.dict.clone(),
        stream.to_vec(),
        engines(fed, &cfg),
        &cfg,
        &ServeConfig {
            concurrency,
            batch_rfbs: batch,
            ..ServeConfig::default()
        },
    )
}

/// Per-session observables must be bit-identical: the full plan Debug
/// rendering covers purchase offer ids, sellers, assembly skeleton, and the
/// cost estimate; the cost bits are compared explicitly on top.
fn assert_sessions_identical(a: &ServeOutcome, b: &ServeOutcome, ctx: &str) {
    assert_eq!(a.reports.len(), b.reports.len(), "session count ({ctx})");
    for (x, y) in a.reports.iter().zip(&b.reports) {
        assert_eq!(x.session, y.session, "session order ({ctx})");
        assert_eq!(
            x.iterations, y.iterations,
            "iterations differ for {} ({ctx})",
            x.session
        );
        assert_eq!(
            format!("{:?}", x.plan),
            format!("{:?}", y.plan),
            "plan differs for {} ({ctx})",
            x.session
        );
        match (&x.plan, &y.plan) {
            (Some(p), Some(q)) => assert_eq!(
                p.est.additive_cost.to_bits(),
                q.est.additive_cost.to_bits(),
                "cost not bit-identical for {} ({ctx})",
                x.session
            ),
            (None, None) => {}
            _ => panic!("one run planned {}, the other did not ({ctx})", x.session),
        }
    }
}

#[test]
fn concurrent_serving_matches_sequential_for_6_and_10_sellers() {
    for nodes in [6u32, 10] {
        for seed in [1u64, 7] {
            let fed = build_federation(&spec(nodes, seed));
            let stream = arrivals(&fed, 8, seed);
            let seq = serve(&fed, &stream, 1, true);
            assert!(
                seq.reports.iter().all(|r| r.plan.is_some()),
                "nodes={nodes} seed={seed}: some session found no plan"
            );
            for conc in [4usize, 8] {
                for batch in [true, false] {
                    let out = serve(&fed, &stream, conc, batch);
                    assert_sessions_identical(
                        &seq,
                        &out,
                        &format!("nodes={nodes} seed={seed} conc={conc} batch={batch}"),
                    );
                }
            }
        }
    }
}

#[test]
fn batching_cuts_messages_without_changing_results() {
    let fed = build_federation(&spec(10, 5));
    let stream = arrivals(&fed, 12, 5);
    let batched = serve(&fed, &stream, 8, true);
    let unbatched = serve(&fed, &stream, 8, false);
    assert_sessions_identical(&batched, &unbatched, "batched vs unbatched, conc=8");
    assert!(
        (batched.messages as f64) < 0.7 * unbatched.messages as f64,
        "batching should cut messages >30%: {} vs {}",
        batched.messages,
        unbatched.messages
    );
    assert_eq!(
        batched.seller_effort, unbatched.seller_effort,
        "batching must not change seller work"
    );
    assert_eq!(
        (batched.offer_cache_hits, batched.offer_cache_misses),
        (unbatched.offer_cache_hits, unbatched.offer_cache_misses),
        "batching must not change cache accounting"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized streams: concurrency and batching never leak into any
    /// session's observables.
    #[test]
    fn serving_schedule_never_leaks_into_results(seed in 0u64..1_000, pick in 0usize..3) {
        let nodes = [5u32, 6, 8][pick];
        let fed = build_federation(&spec(nodes, seed));
        let stream = arrivals(&fed, 6, seed);
        let seq = serve(&fed, &stream, 1, true);
        let conc = serve(&fed, &stream, 4, true);
        let unbatched = serve(&fed, &stream, 4, false);
        assert_sessions_identical(&seq, &conc, &format!("nodes={nodes} seed={seed} conc=4"));
        assert_sessions_identical(
            &seq,
            &unbatched,
            &format!("nodes={nodes} seed={seed} conc=4 unbatched"),
        );
    }
}
