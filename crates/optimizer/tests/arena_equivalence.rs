//! The arena-backed DP must be **bit-identical** to the retained
//! tree-cloning reference implementation: same plan shape, same cost bits,
//! same row/width estimate bits, same effort, same Pareto-set outcome —
//! for both enumerators and every `max_k`. Golden cases pin the workload
//! federations the benchmarks use; the property test sweeps random SPJ
//! queries over data-derived statistics.

use proptest::prelude::*;
use qt_catalog::{
    AttrType, Catalog, CatalogBuilder, NodeId, PartId, Partitioning, RelationSchema, Value,
};
use qt_cost::StatsSource;
use qt_exec::DataStore;
use qt_optimizer::{JoinEnumerator, LocalOptimizer, ReferenceOptimizer};
use qt_query::{Col, CompOp, Predicate, Query, SelectItem};
use qt_workload::{build_federation, gen_join_query, FederationSpec, QueryShape};

/// Assert `optimize` agrees bit-for-bit between the two implementations.
fn assert_optimize_equivalent<S: StatsSource>(src: &S, q: &Query, e: JoinEnumerator) {
    let new = LocalOptimizer::new(src).with_enumerator(e).optimize(q);
    let old = ReferenceOptimizer::new(src).with_enumerator(e).optimize(q);
    assert_eq!(new.plan, old.plan, "plan shape diverged ({})", e.label());
    assert_eq!(
        new.cost.to_bits(),
        old.cost.to_bits(),
        "cost bits ({})",
        e.label()
    );
    assert_eq!(
        new.rows.to_bits(),
        old.rows.to_bits(),
        "rows bits ({})",
        e.label()
    );
    assert_eq!(
        new.width.to_bits(),
        old.width.to_bits(),
        "width bits ({})",
        e.label()
    );
    assert_eq!(new.effort, old.effort, "effort ({})", e.label());
}

/// Assert `partial_results` agrees bit-for-bit, element by element.
fn assert_partials_equivalent<S: StatsSource>(src: &S, q: &Query, e: JoinEnumerator, max_k: usize) {
    let (new, new_effort) = LocalOptimizer::new(src)
        .with_enumerator(e)
        .partial_results(q, max_k);
    let (old, old_effort) = ReferenceOptimizer::new(src)
        .with_enumerator(e)
        .partial_results(q, max_k);
    assert_eq!(new_effort, old_effort, "effort ({}, k={max_k})", e.label());
    assert_eq!(
        new.len(),
        old.len(),
        "partial count ({}, k={max_k})",
        e.label()
    );
    for (n, o) in new.iter().zip(&old) {
        assert_eq!(
            n.query,
            o.query,
            "sub-query order ({}, k={max_k})",
            e.label()
        );
        assert_eq!(n.plan(), o.plan, "partial plan ({}, k={max_k})", e.label());
        assert_eq!(n.cost.to_bits(), o.cost.to_bits(), "partial cost bits");
        assert_eq!(n.rows.to_bits(), o.rows.to_bits(), "partial rows bits");
        assert_eq!(n.width.to_bits(), o.width.to_bits(), "partial width bits");
    }
}

fn check_everything<S: StatsSource>(src: &S, q: &Query) {
    let n = q.num_relations();
    for e in [JoinEnumerator::Exhaustive, JoinEnumerator::idp_2_5()] {
        assert_optimize_equivalent(src, q, e);
        let spj = q.strip_aggregation();
        for max_k in [2, 3, n.max(1)] {
            assert_partials_equivalent(src, &spj, e, max_k);
        }
    }
}

/// Golden: the synthetic federations the benchmarks run on — every shape,
/// several sizes, aggregate and plain, with and without ORDER BY.
#[test]
fn golden_workload_queries_are_bit_identical() {
    for (relations, seed) in [(2usize, 11u64), (5, 5), (7, 7)] {
        let fed = build_federation(&FederationSpec {
            nodes: 4,
            relations,
            partitions_per_relation: 2,
            replication: 1,
            rows_per_partition: 100_000,
            scale: 1,
            seed,
            with_data: false,
            speed_spread: 1.0,
            data_skew: 0.0,
        });
        let cat = &fed.catalog;
        for shape in [QueryShape::Chain, QueryShape::Star, QueryShape::Cycle] {
            for aggregate in [false, true] {
                let q = gen_join_query(&cat.dict, shape, relations, aggregate, seed);
                check_everything(cat, &q);
                if !aggregate {
                    // ORDER BY the join key: exercises order-aware Pareto
                    // entries and the finished-cost tie-break.
                    let ordered = q
                        .clone()
                        .with_order_by(vec![Col::new(qt_catalog::RelId(0), 0)]);
                    check_everything(cat, &ordered);
                }
            }
        }
    }
}

/// Golden: a node's *private* holdings view (unknown partitions fall back
/// to the synthetic default profile) goes through the same memoized paths.
#[test]
fn golden_node_holdings_view_is_bit_identical() {
    let fed = build_federation(&FederationSpec {
        nodes: 4,
        relations: 5,
        partitions_per_relation: 2,
        replication: 1,
        rows_per_partition: 50_000,
        scale: 1,
        seed: 3,
        with_data: false,
        speed_spread: 1.0,
        data_skew: 0.0,
    });
    let holdings = fed.catalog.holdings_of(NodeId(1));
    for shape in [QueryShape::Chain, QueryShape::Star] {
        let q = gen_join_query(&fed.catalog.dict, shape, 5, false, 17);
        check_everything(&holdings, &q);
    }
}

/// Build a 3-relation catalog whose statistics come from real generated
/// rows, as the correctness proptest does.
fn setup(r_rows: &[(i64, i64)], s_rows: &[(i64, i64)], t_rows: &[(i64, i64)]) -> Catalog {
    let schema = |n: &str| RelationSchema::new(n, vec![("k", AttrType::Int), ("v", AttrType::Int)]);
    let probe = {
        let mut pb = CatalogBuilder::new();
        pb.add_relation(schema("r"), Partitioning::Hash { attr: 0, parts: 2 });
        pb.add_relation(schema("s"), Partitioning::Single);
        pb.add_relation(schema("t"), Partitioning::Single);
        for (rel, parts) in [(0u32, 2u16), (1, 1), (2, 1)] {
            for p in 0..parts {
                pb.set_stats(
                    PartId::new(qt_catalog::RelId(rel), p),
                    qt_catalog::PartitionStats::synthetic(1, &[1, 1]),
                );
                pb.place(PartId::new(qt_catalog::RelId(rel), p), NodeId(0));
            }
        }
        pb.build().dict
    };
    let mut store = DataStore::new();
    let to_rows = |rows: &[(i64, i64)]| -> Vec<Vec<Value>> {
        rows.iter()
            .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
            .collect()
    };
    store.load_relation(&probe, qt_catalog::RelId(0), to_rows(r_rows));
    store.load_relation(&probe, qt_catalog::RelId(1), to_rows(s_rows));
    store.load_relation(&probe, qt_catalog::RelId(2), to_rows(t_rows));

    let mut b = CatalogBuilder::new();
    b.add_relation(schema("r"), Partitioning::Hash { attr: 0, parts: 2 });
    b.add_relation(schema("s"), Partitioning::Single);
    b.add_relation(schema("t"), Partitioning::Single);
    for (rel, parts) in [(0u32, 2u16), (1, 1), (2, 1)] {
        for p in 0..parts {
            let part = PartId::new(qt_catalog::RelId(rel), p);
            b.set_stats(part, store.stats_of(&probe, part).expect("loaded"));
            b.place(part, NodeId(0));
        }
    }
    b.build()
}

fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..6, -10i64..10), 0..12)
}

fn join_op() -> impl Strategy<Value = CompOp> {
    // Eq joins take the hash/merge path; the rest take nested loops.
    prop_oneof![
        Just(CompOp::Eq),
        Just(CompOp::Eq),
        Just(CompOp::Lt),
        Just(CompOp::Ne)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random SPJ queries (equi and theta joins, selections, optional
    /// ORDER BY), both enumerators, `max_k` ∈ {2, 3, n}: the arena DP and
    /// the reference DP never diverge by a single bit.
    #[test]
    fn random_spj_queries_are_bit_identical(
        r_rows in rows_strategy(),
        s_rows in rows_strategy(),
        t_rows in rows_strategy(),
        num_rels in 1usize..=3,
        join_ops in prop::collection::vec(join_op(), 2),
        sel_op in prop_oneof![Just(CompOp::Lt), Just(CompOp::Eq), Just(CompOp::Ge)],
        sel_val in -10i64..10,
        order_by in any::<bool>(),
    ) {
        let cat = setup(&r_rows, &s_rows, &t_rows);
        let rels: Vec<qt_catalog::RelId> =
            (0..num_rels as u32).map(qt_catalog::RelId).collect();
        let mut preds = vec![Predicate::with_const(Col::new(rels[0], 1), sel_op, sel_val)];
        for (i, w) in rels.windows(2).enumerate() {
            preds.push(Predicate {
                left: Col::new(w[0], 0),
                op: join_ops[i],
                right: qt_query::Operand::Col(Col::new(w[1], 0)),
            });
        }
        let last = *rels.last().unwrap();
        let mut q = Query::over_full(&cat.dict, rels.iter().copied())
            .with_predicates(preds)
            .with_select(vec![
                SelectItem::Col(Col::new(rels[0], 1)),
                SelectItem::Col(Col::new(last, 0)),
            ]);
        if order_by {
            q = q.with_order_by(vec![Col::new(rels[0], 0)]);
        }
        prop_assert!(q.validate(&cat.dict).is_ok());
        check_everything(&cat, &q);
    }
}
