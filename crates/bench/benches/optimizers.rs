//! Criterion micro-benches: local join enumeration (DP vs IDP) and the
//! modified DP's partial results (§3.4) at increasing join counts, and the
//! buyer plan generator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qt_catalog::NodeId;
use qt_core::plangen::PlanGenerator;
use qt_core::{QtConfig, SellerEngine};
use qt_cost::NodeResources;
use qt_optimizer::{JoinEnumerator, LocalOptimizer};
use qt_workload::{build_federation, gen_join_query, FederationSpec, QueryShape};

fn bench_enumerators(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_optimize");
    for n in [4usize, 6, 8, 10] {
        let fed = build_federation(&FederationSpec {
            nodes: 1,
            relations: n,
            partitions_per_relation: 2,
            replication: 1,
            rows_per_partition: 100_000,
            scale: 1,
            seed: 1,
            with_data: false,
            speed_spread: 1.0,
            data_skew: 0.0,
        });
        let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, n, false, 1);
        group.bench_with_input(BenchmarkId::new("DP", n), &n, |b, _| {
            let opt = LocalOptimizer::new(&fed.catalog);
            b.iter(|| std::hint::black_box(opt.optimize(&q).cost));
        });
        group.bench_with_input(BenchmarkId::new("IDP(2,5)", n), &n, |b, _| {
            let opt = LocalOptimizer::new(&fed.catalog).with_enumerator(JoinEnumerator::idp_2_5());
            b.iter(|| std::hint::black_box(opt.optimize(&q).cost));
        });
        // Every ≤ 2-way partial as an offerable result: the seller's
        // per-RFB hot path.
        group.bench_with_input(BenchmarkId::new("partial_results", n), &n, |b, _| {
            let opt = LocalOptimizer::new(&fed.catalog);
            let spj = q.strip_aggregation();
            b.iter(|| std::hint::black_box(opt.partial_results(&spj, 2).0.len()));
        });
    }
    group.finish();
}

fn bench_plan_generator(c: &mut Criterion) {
    let fed = build_federation(&FederationSpec {
        nodes: 16,
        relations: 4,
        partitions_per_relation: 4,
        replication: 2,
        rows_per_partition: 100_000,
        scale: 1,
        seed: 2,
        with_data: false,
        speed_spread: 1.0,
        data_skew: 0.0,
    });
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 4, false, 2);
    let cfg = QtConfig::default();
    // Gather one round of offers.
    let mut offers = Vec::new();
    for &n in &fed.catalog.nodes {
        let mut s = SellerEngine::new(fed.catalog.holdings_of(n), cfg.clone());
        offers.extend(
            s.respond(
                0,
                &[qt_core::RfbItem {
                    query: q.clone(),
                    ref_value: f64::INFINITY,
                }],
            )
            .offers,
        );
    }
    c.bench_function("plan_generator_round", |b| {
        let pg = PlanGenerator {
            dict: &fed.catalog.dict,
            query: &q,
            config: &cfg,
            buyer_resources: NodeResources::reference(),
        };
        b.iter(|| {
            let gen = pg.generate(&offers);
            std::hint::black_box(gen.plan.map(|p| p.est.additive_cost))
        });
    });
    let _ = NodeId(0);
}

criterion_group!(benches, bench_enumerators, bench_plan_generator);
criterion_main!(benches);
