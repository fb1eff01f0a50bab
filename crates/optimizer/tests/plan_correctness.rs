//! Property-based correctness of the local optimizer: for random small
//! datasets and random SPJ(+aggregate) queries, the optimized physical plan
//! computes exactly what the reference evaluator computes — under both
//! enumerators.

use proptest::prelude::*;
use qt_catalog::{
    AttrType, Catalog, CatalogBuilder, NodeId, PartId, Partitioning, RelationSchema, Value,
};
use qt_exec::reference::same_rows;
use qt_exec::{evaluate_query, execute, DataStore};
use qt_optimizer::{JoinEnumerator, LocalOptimizer};
use qt_query::{AggFunc, Col, CompOp, Predicate, Query, SelectItem};

/// Build a 3-relation catalog + data from proptest-generated rows.
fn setup(
    r_rows: &[(i64, i64)],
    s_rows: &[(i64, i64)],
    t_rows: &[(i64, i64)],
) -> (Catalog, DataStore) {
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
    (b.build(), store)
}

fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..6, -10i64..10), 0..12)
}

fn comp_op() -> impl Strategy<Value = CompOp> {
    prop_oneof![
        Just(CompOp::Eq),
        Just(CompOp::Ne),
        Just(CompOp::Lt),
        Just(CompOp::Le),
        Just(CompOp::Gt),
        Just(CompOp::Ge),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimized_plans_match_reference(
        r_rows in rows_strategy(),
        s_rows in rows_strategy(),
        t_rows in rows_strategy(),
        num_rels in 1usize..=3,
        sel_op in comp_op(),
        sel_val in -10i64..10,
        aggregate in any::<bool>(),
        idp in any::<bool>(),
    ) {
        let (cat, store) = setup(&r_rows, &s_rows, &t_rows);
        let rels: Vec<qt_catalog::RelId> =
            (0..num_rels as u32).map(qt_catalog::RelId).collect();
        let mut preds = vec![Predicate::with_const(Col::new(rels[0], 1), sel_op, sel_val)];
        for w in rels.windows(2) {
            preds.push(Predicate::eq_cols(Col::new(w[0], 0), Col::new(w[1], 0)));
        }
        let last = *rels.last().unwrap();
        let q = Query::over_full(&cat.dict, rels.iter().copied()).with_predicates(preds);
        let q = if aggregate {
            q.with_select(vec![
                SelectItem::Col(Col::new(rels[0], 1)),
                SelectItem::Agg { func: AggFunc::Sum, arg: Some(Col::new(last, 1)) },
                SelectItem::Agg { func: AggFunc::Count, arg: None },
            ])
            .with_group_by(vec![Col::new(rels[0], 1)])
        } else {
            q.with_select(vec![
                SelectItem::Col(Col::new(rels[0], 1)),
                SelectItem::Col(Col::new(last, 0)),
            ])
        };
        prop_assert!(q.validate(&cat.dict).is_ok());

        let enumerator = if idp { JoinEnumerator::idp_2_5() } else { JoinEnumerator::Exhaustive };
        let opt = LocalOptimizer::new(&cat).with_enumerator(enumerator);
        let optimized = opt.optimize(&q);
        let got = execute(&optimized.plan, &store, &[]).unwrap();
        let want = evaluate_query(&q, &store).unwrap();
        prop_assert!(
            same_rows(&got, &want),
            "query {} got {:?} want {:?}",
            q.display_with(&cat.dict), got, want
        );
        prop_assert!(optimized.cost >= 0.0);
    }

    /// Every partial result of the modified DP computes its sub-query.
    #[test]
    fn partial_results_match_reference(
        r_rows in rows_strategy(),
        s_rows in rows_strategy(),
        t_rows in rows_strategy(),
        max_k in 1usize..=3,
    ) {
        let (cat, store) = setup(&r_rows, &s_rows, &t_rows);
        let rels: Vec<qt_catalog::RelId> = (0..3u32).map(qt_catalog::RelId).collect();
        let mut preds = vec![];
        for w in rels.windows(2) {
            preds.push(Predicate::eq_cols(Col::new(w[0], 0), Col::new(w[1], 0)));
        }
        let q = Query::over_full(&cat.dict, rels.iter().copied())
            .with_predicates(preds)
            .with_select(vec![SelectItem::Col(Col::new(rels[2], 1))]);
        let opt = LocalOptimizer::new(&cat);
        let (partials, _) = opt.partial_results(&q, max_k);
        for p in &partials {
            let got = execute(&p.plan(), &store, &[]).unwrap();
            let want = evaluate_query(&p.query, &store).unwrap();
            prop_assert!(
                same_rows(&got, &want),
                "partial {} got {} want {} rows",
                p.query.display_with(&cat.dict), got.len(), want.len()
            );
        }
    }
}
