//! Criterion micro-benches: full QT rounds, protocol negotiation, a cold
//! seller's round-1 reply, and the life of an offer between the seller's
//! cache and the buyer's plan.

use criterion::{criterion_group, criterion_main, Criterion};
use qt_bench::runners::seller_engines;
use qt_catalog::NodeId;
use qt_core::analyser::next_queries;
use qt_core::config::MAX_NEW_QUERIES_PER_ROUND;
use qt_core::plangen::PlanGenerator;
use qt_core::{run_qt_direct, session_req, Offer, QtConfig, RfbItem, SessionRfb};
use qt_cost::NodeResources;
use qt_trade::{Bid, ProtocolKind, SessionId};
use qt_workload::{build_federation, gen_join_query, FederationSpec, QueryShape};
use std::collections::BTreeSet;
use std::sync::Arc;

fn bench_full_trading_run(c: &mut Criterion) {
    let fed = build_federation(&FederationSpec {
        nodes: 16,
        relations: 3,
        partitions_per_relation: 2,
        replication: 2,
        rows_per_partition: 100_000,
        scale: 1,
        seed: 5,
        with_data: false,
        speed_spread: 1.0,
        data_skew: 0.0,
    });
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, true, 5);
    let cfg = QtConfig::default();
    c.bench_function("qt_direct_16_nodes_3way", |b| {
        b.iter(|| {
            let mut sellers = seller_engines(&fed, &cfg);
            let out = run_qt_direct(NodeId(0), fed.catalog.dict.clone(), &q, &mut sellers, &cfg);
            std::hint::black_box(out.plan.map(|p| p.est.additive_cost))
        });
    });
}

fn bench_protocols(c: &mut Criterion) {
    let bids: Vec<Bid> = (0..32)
        .map(|i| Bid::new(NodeId(i), 10.0 + i as f64, 8.0 + i as f64 * 0.9))
        .collect();
    let mut group = c.benchmark_group("negotiate_32_bids");
    for proto in [
        ProtocolKind::SealedBid,
        ProtocolKind::Vickrey,
        ProtocolKind::English { decrement: 0.05 },
        ProtocolKind::Bargaining { max_rounds: 8 },
    ] {
        group.bench_function(proto.label(), |b| {
            b.iter(|| std::hint::black_box(proto.negotiate(&bids, f64::INFINITY)));
        });
    }
    group.finish();
}

/// What one offer costs after the seller's DP made it: a copy (every hop —
/// offer cache, reply memo, broker tier, buyer pool — takes one), a warm
/// seller's whole reply (16 sellers answering one session's RFB from their
/// offer caches), and one plan generation over the pool those replies form.
/// Before them, what making the offers costs: a cold seller answering every
/// round-1 sub-query the buyer analyser derives, which it rewrites to a few
/// local queries.
fn bench_offer_path(c: &mut Criterion) {
    let fed = build_federation(&FederationSpec {
        nodes: 16,
        relations: 5,
        partitions_per_relation: 2,
        replication: 2,
        rows_per_partition: 100_000,
        scale: 1,
        seed: 5,
        with_data: false,
        speed_spread: 1.0,
        data_skew: 0.0,
    });
    let cfg = QtConfig::default();
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 5, true, 5);
    let items = Arc::new(vec![RfbItem {
        query: q.clone(),
        ref_value: f64::INFINITY,
    }]);
    let mut sellers = seller_engines(&fed, &cfg);
    let pool: Vec<Offer> = sellers
        .values_mut()
        .flat_map(|s| s.respond(0, &items).offers)
        .collect();
    // Every round-1 sub-query the buyer analyser derives (before the buyer
    // drops those no seller answers anew), answered by the seller with the
    // most to say; its offer cache is cleared before every reply, so every
    // item misses.
    let gen = PlanGenerator {
        dict: &fed.catalog.dict,
        query: &q,
        config: &cfg,
        buyer_resources: NodeResources::reference(),
    }
    .generate(&pool);
    let mut derived = next_queries(
        &fed.catalog.dict,
        &q,
        &gen,
        &pool,
        &BTreeSet::from([q.clone()]),
    );
    derived.truncate(MAX_NEW_QUERIES_PER_ROUND);
    let round1: Vec<RfbItem> = derived
        .into_iter()
        .map(|query| RfbItem {
            query,
            ref_value: f64::INFINITY,
        })
        .collect();
    assert!(!round1.is_empty(), "the analyser derives sub-queries");
    let mut cold = seller_engines(&fed, &cfg)
        .into_values()
        .map(|mut s| (s.respond(1, &round1).offers.len(), s))
        .max_by_key(|(offers, _)| *offers)
        .expect("sixteen sellers")
        .1;
    c.bench_function("seller/respond_round1_cold", |b| {
        b.iter(|| {
            cold.invalidate_offer_cache();
            std::hint::black_box(cold.respond(1, &round1).offers.len())
        });
    });

    let widest = pool
        .iter()
        .max_by_key(|o| o.query.num_relations())
        .expect("somebody offers")
        .clone();
    c.bench_function("offer/clone", |b| {
        b.iter(|| std::hint::black_box(widest.clone()));
    });

    // Every iteration is a new session, as on a serving seller: the request
    // id must be new or the dedup memo answers instead of the offer cache.
    let mut session = 0u64;
    c.bench_function("seller/respond_warm_16x", |b| {
        b.iter(|| {
            session += 1;
            let entry = SessionRfb {
                session: SessionId(session),
                req: session_req(SessionId(session), 0),
                round: 0,
                items: Arc::clone(&items),
                hints: Arc::new(Vec::new()),
                priority: 0,
            };
            let mut offers = 0;
            for s in sellers.values_mut() {
                offers += s.respond_batch(std::slice::from_ref(&entry))[0]
                    .offers
                    .len();
            }
            std::hint::black_box(offers)
        });
    });

    let generator = PlanGenerator {
        dict: &fed.catalog.dict,
        query: &q,
        config: &cfg,
        buyer_resources: NodeResources::reference(),
    };
    assert!(generator.generate(&pool).plan.is_some());
    c.bench_function("plangen/generate_pool", |b| {
        b.iter(|| std::hint::black_box(generator.generate(&pool).considered));
    });
}

criterion_group!(
    benches,
    bench_full_trading_run,
    bench_protocols,
    bench_offer_path
);
criterion_main!(benches);
