//! Property-based tests of the executor: physical operators agree with each
//! other and with the reference evaluator on random data.

use proptest::prelude::*;
use qt_catalog::{PartId, RelId, Value};
use qt_exec::reference::same_rows;
use qt_exec::{execute, AggSpec, DataStore, PhysPlan, Table};
use qt_query::{AggFunc, Col, CompOp, Operand, Predicate};
use std::collections::BTreeMap;

fn table(rel: u32, rows: &[(i64, i64)]) -> (PartId, Table) {
    (
        PartId::new(RelId(rel), 0),
        rows.iter()
            .map(|(a, b)| vec![Value::Int(*a), Value::Int(*b)])
            .collect(),
    )
}

fn rows_strategy() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0i64..8, -20i64..20), 0..20)
}

fn scan(rel: u32) -> PhysPlan {
    PhysPlan::Scan {
        part: PartId::new(RelId(rel), 0),
        arity: 2,
    }
}

proptest! {
    /// Hash join and nested-loop join compute the same equi-join.
    #[test]
    fn hash_join_equals_nl_join(l in rows_strategy(), r in rows_strategy()) {
        let store: DataStore = [table(0, &l), table(1, &r)].into_iter().collect();
        let hj = PhysPlan::HashJoin {
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            left_keys: vec![Col::new(RelId(0), 0)],
            right_keys: vec![Col::new(RelId(1), 0)],
        };
        let nl = PhysPlan::NlJoin {
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            predicates: vec![Predicate::eq_cols(Col::new(RelId(0), 0), Col::new(RelId(1), 0))],
        };
        let a = execute(&hj, &store, &[]).unwrap();
        let b = execute(&nl, &store, &[]).unwrap();
        prop_assert!(same_rows(&a, &b));
        // Join size sanity: bounded by the cross product.
        prop_assert!(a.len() <= l.len() * r.len());
    }

    /// Filter then union equals union then filter.
    #[test]
    fn filter_commutes_with_union(l in rows_strategy(), r in rows_strategy(), cut in -20i64..20) {
        // Two partitions of the same relation so the union inputs share a
        // schema.
        let mut store = DataStore::new();
        store.insert(
            PartId::new(RelId(0), 0),
            l.iter().map(|(a, b)| vec![Value::Int(*a), Value::Int(*b)]).collect::<Table>(),
        );
        store.insert(
            PartId::new(RelId(0), 1),
            r.iter().map(|(a, b)| vec![Value::Int(*a), Value::Int(*b)]).collect::<Table>(),
        );
        let s0 = PhysPlan::Scan { part: PartId::new(RelId(0), 0), arity: 2 };
        let s1 = PhysPlan::Scan { part: PartId::new(RelId(0), 1), arity: 2 };
        let pred = Predicate::with_const(Col::new(RelId(0), 1), CompOp::Lt, cut);
        let filter_then_union = PhysPlan::Union {
            inputs: vec![
                PhysPlan::Filter { input: Box::new(s0.clone()), predicates: vec![pred.clone()] },
                PhysPlan::Filter { input: Box::new(s1.clone()), predicates: vec![pred.clone()] },
            ],
        };
        let union_then_filter = PhysPlan::Filter {
            input: Box::new(PhysPlan::Union { inputs: vec![s0, s1] }),
            predicates: vec![pred],
        };
        let a = execute(&filter_then_union, &store, &[]).unwrap();
        let b = execute(&union_then_filter, &store, &[]).unwrap();
        prop_assert!(same_rows(&a, &b));
    }

    /// Sort is a permutation and is ordered on the key.
    #[test]
    fn sort_is_an_ordered_permutation(rows in rows_strategy()) {
        let store: DataStore = [table(0, &rows)].into_iter().collect();
        let sorted = PhysPlan::Sort {
            input: Box::new(scan(0)),
            keys: vec![Col::new(RelId(0), 1)],
        };
        let out = execute(&sorted, &store, &[]).unwrap();
        let plain = execute(&scan(0), &store, &[]).unwrap();
        prop_assert!(same_rows(&out, &plain));
        for w in out.windows(2) {
            prop_assert!(w[0][1] <= w[1][1]);
        }
    }

    /// SUM/COUNT grouped aggregation agrees with a hand fold.
    #[test]
    fn aggregate_matches_hand_fold(rows in rows_strategy()) {
        let store: DataStore = [table(0, &rows)].into_iter().collect();
        let agg = PhysPlan::HashAggregate {
            input: Box::new(scan(0)),
            group_by: vec![Col::new(RelId(0), 0)],
            aggs: vec![
                AggSpec { func: AggFunc::Sum, arg: Some(Col::new(RelId(0), 1)) },
                AggSpec { func: AggFunc::Count, arg: None },
                AggSpec { func: AggFunc::Min, arg: Some(Col::new(RelId(0), 1)) },
                AggSpec { func: AggFunc::Max, arg: Some(Col::new(RelId(0), 1)) },
            ],
        };
        let out = execute(&agg, &store, &[]).unwrap();
        let mut expect: BTreeMap<i64, (i64, i64, i64, i64)> = BTreeMap::new();
        for (a, b) in &rows {
            let e = expect.entry(*a).or_insert((0, 0, i64::MAX, i64::MIN));
            e.0 = e.0.wrapping_add(*b);
            e.1 += 1;
            e.2 = e.2.min(*b);
            e.3 = e.3.max(*b);
        }
        prop_assert_eq!(out.len(), expect.len());
        for row in &out {
            let key = row[0].as_int().unwrap();
            let (sum, count, min, max) = expect[&key];
            // SUM over all-int inputs stays Int.
            prop_assert_eq!(row[1].clone(), Value::Int(sum));
            prop_assert_eq!(row[2].clone(), Value::Int(count));
            prop_assert_eq!(row[3].clone(), Value::Int(min));
            prop_assert_eq!(row[4].clone(), Value::Int(max));
        }
    }

    /// Predicates behave identically in Filter and in NlJoin residuals.
    #[test]
    fn theta_join_equals_filtered_cross(l in rows_strategy(), r in rows_strategy(), op_i in 0usize..6) {
        let ops = [CompOp::Eq, CompOp::Ne, CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge];
        let op = ops[op_i];
        let store: DataStore = [table(0, &l), table(1, &r)].into_iter().collect();
        let pred = Predicate {
            left: Col::new(RelId(0), 1),
            op,
            right: Operand::Col(Col::new(RelId(1), 1)),
        };
        let theta = PhysPlan::NlJoin {
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            predicates: vec![pred.clone()],
        };
        let cross_filter = PhysPlan::Filter {
            input: Box::new(PhysPlan::NlJoin {
                left: Box::new(scan(0)),
                right: Box::new(scan(1)),
                predicates: vec![],
            }),
            predicates: vec![pred],
        };
        let a = execute(&theta, &store, &[]).unwrap();
        let b = execute(&cross_filter, &store, &[]).unwrap();
        prop_assert!(same_rows(&a, &b));
    }
}

proptest! {
    /// Merge join over sorted inputs equals hash join.
    #[test]
    fn merge_join_equals_hash_join(l in rows_strategy(), r in rows_strategy()) {
        let store: DataStore = [table(0, &l), table(1, &r)].into_iter().collect();
        let sorted = |rel: u32| PhysPlan::Sort {
            input: Box::new(scan(rel)),
            keys: vec![Col::new(RelId(rel), 0)],
        };
        let mj = PhysPlan::MergeJoin {
            left: Box::new(sorted(0)),
            right: Box::new(sorted(1)),
            left_keys: vec![Col::new(RelId(0), 0)],
            right_keys: vec![Col::new(RelId(1), 0)],
        };
        let hj = PhysPlan::HashJoin {
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            left_keys: vec![Col::new(RelId(0), 0)],
            right_keys: vec![Col::new(RelId(1), 0)],
        };
        let a = execute(&mj, &store, &[]).unwrap();
        let b = execute(&hj, &store, &[]).unwrap();
        prop_assert!(same_rows(&a, &b));
        // Merge-join output is key-ordered.
        for w in a.windows(2) {
            prop_assert!(w[0][0] <= w[1][0]);
        }
    }
}
