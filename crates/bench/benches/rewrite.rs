//! Criterion micro-benches: the §3.4 query rewrite, the sub-query algebra
//! under it (restriction to a relation subset, fingerprinting), the
//! deterministic hasher and view matching.

use criterion::{criterion_group, criterion_main, Criterion};
use qt_catalog::partition::value_bucket;
use qt_catalog::{NodeId, RelId, Value};
use qt_query::views::match_view;
use qt_query::{parse_query, rewrite_for_holdings, MaterializedView};
use qt_workload::tpch::queries as tpch_queries;
use qt_workload::{
    build_federation, gen_join_query, telecom_federation, tpch_federation, FederationSpec,
    QueryShape, TelecomSpec, TpchSpec,
};
use std::collections::BTreeSet;

fn bench_rewrite(c: &mut Criterion) {
    let fed = build_federation(&FederationSpec {
        nodes: 8,
        relations: 6,
        partitions_per_relation: 8,
        replication: 2,
        rows_per_partition: 100_000,
        scale: 1,
        seed: 3,
        with_data: false,
        speed_spread: 1.0,
        data_skew: 0.0,
    });
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 6, false, 3);
    let holdings = fed.catalog.holdings_of(NodeId(1));
    c.bench_function("rewrite_for_holdings", |b| {
        b.iter(|| std::hint::black_box(rewrite_for_holdings(&q, &holdings)));
    });

    // The same 6-relation chain, aggregated, restricted to a prefix of its
    // relations: what the seller DP, the analyser and plangen derive per
    // sub-plan, per candidate and per offered relation subset.
    let agg = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 6, true, 3);
    let prefix = |k: u32| -> BTreeSet<RelId> { (0..k).map(RelId).collect() };
    let mut group = c.benchmark_group("restrict_to_rels");
    for k in [1, 3, 5] {
        let rels = prefix(k);
        group.bench_function(format!("{k}_of_6"), |b| {
            b.iter(|| std::hint::black_box(agg.restrict_to_rels(&rels)));
        });
    }
    group.finish();
    let rels = prefix(3);
    c.bench_function("strip_then_restrict/3_of_6", |b| {
        b.iter(|| std::hint::black_box(agg.strip_aggregation().restrict_to_rels(&rels)));
    });
    c.bench_function("fingerprint/6_rels", |b| {
        b.iter(|| std::hint::black_box(agg.fingerprint()));
    });
}

/// The hasher's two paths: string constants go through its byte loop,
/// integers and floats a word at a time; `value_bucket` places loaded rows.
fn bench_hash(c: &mut Criterion) {
    let (telecom, _) = telecom_federation(&TelecomSpec::default());
    let strs = parse_query(
        &telecom.dict,
        "SELECT custname, charge FROM customer, invoiceline \
         WHERE customer.custid = invoiceline.custid AND office = 'Myconos' \
         AND custname <> 'cust7'",
    )
    .expect("telecom SQL parses");
    c.bench_function("fingerprint/telecom_str", |b| {
        b.iter(|| std::hint::black_box(strs.fingerprint()));
    });
    let (tpch, _, _) = tpch_federation(&TpchSpec::default());
    let float = parse_query(&tpch.dict, tpch_queries::BIG_ORDER_LINES).expect("TPC-H SQL parses");
    c.bench_function("fingerprint/tpch_float", |b| {
        b.iter(|| std::hint::black_box(float.fingerprint()));
    });
    let values = [
        Value::Int(7),
        Value::Int(-40_000),
        Value::Int(i64::MAX),
        Value::Float(4000.0),
        Value::str("Myconos"),
        Value::str("cust1234"),
    ];
    c.bench_function("value_bucket/mixed", |b| {
        b.iter(|| {
            let v = std::hint::black_box(&values);
            v.iter().map(|v| value_bucket(v, 1000)).sum::<u32>()
        });
    });
}

fn bench_view_match(c: &mut Criterion) {
    let fed = build_federation(&FederationSpec {
        nodes: 4,
        relations: 3,
        partitions_per_relation: 2,
        replication: 1,
        rows_per_partition: 100_000,
        scale: 1,
        seed: 4,
        with_data: false,
        speed_spread: 1.0,
        data_skew: 0.0,
    });
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, true, 4);
    let view = MaterializedView::new("v", q.clone());
    c.bench_function("match_view_exact_aggregate", |b| {
        b.iter(|| std::hint::black_box(match_view(&view.query, &q)));
    });
}

criterion_group!(benches, bench_rewrite, bench_hash, bench_view_match);
criterion_main!(benches);
