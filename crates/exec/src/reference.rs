//! Brute-force reference evaluator of [`Query`] semantics.
//!
//! Every optimizer in the workspace is tested by executing its physical plan
//! and comparing against this evaluator, which computes the answer the
//! obvious way: bind the relations in query order by nested loops, applying
//! each predicate once its columns are bound (survivors keep their order),
//! then group and project. Deliberately simple — its only virtue is being
//! obviously correct.

use crate::error::ExecError;
use crate::exec::RowSource;
use crate::{Row, Table};
use qt_catalog::{PartId, Value};
use qt_query::{AggFunc, Col, Operand, Predicate, Query, SelectItem};
use std::collections::HashMap;

/// Evaluate `query` against `source`. The output column order is the query's
/// `SELECT` order; rows are sorted by `ORDER BY` if present, otherwise in an
/// unspecified (but deterministic) order.
pub fn evaluate_query(query: &Query, source: &dyn RowSource) -> Result<Table, ExecError> {
    let mut schema: Vec<Col> = Vec::new();
    let mut rows: Table = vec![vec![]];
    let mut unbound: Vec<&Predicate> = query.predicates.iter().collect();
    for (&rel, parts) in &query.relations {
        // 1. Materialize the relation's requested extent.
        let mut extent: Table = Vec::new();
        let mut arity = 0;
        for idx in parts.iter() {
            let part = PartId::new(rel, idx);
            let part_rows = source
                .rows_of(part)
                .ok_or(ExecError::MissingPartition(part))?;
            if let Some(r0) = part_rows.first() {
                arity = r0.len();
            }
            extent.extend(part_rows.iter().cloned());
        }
        if arity == 0 {
            // All partitions empty: infer arity from any sibling partition
            // or fall back to the columns the query references.
            arity = query
                .all_cols()
                .into_iter()
                .filter(|c| c.rel == rel)
                .map(|c| c.attr + 1)
                .max()
                .unwrap_or(1);
        }
        schema.extend((0..arity).map(|a| Col::new(rel, a)));

        // 2. Nested loop with the accumulated rows, keeping the combinations
        //    that pass every predicate whose columns are all bound now.
        let (now, later) = unbound
            .into_iter()
            .partition::<Vec<_>, _>(|p| p.cols().all(|c| schema.contains(&c)));
        unbound = later;
        let product = rows
            .iter()
            .flat_map(|base| extent.iter().map(move |ext| [&base[..], &ext[..]].concat()));
        rows = keep(product, &now, &schema)?;
    }

    // 3. A predicate naming a column no relation binds is left to this final
    //    pass, which reports it on the first row that reaches it.
    let mut filtered = keep(rows.into_iter(), &unbound, &schema)?;

    let pos = |c: Col| col_pos(&schema, c);

    if !query.is_aggregate() {
        // 4a. Sort (on full rows) then project to the select order.
        if !query.order_by.is_empty() {
            let keys: Vec<usize> = query
                .order_by
                .iter()
                .map(|c| pos(*c))
                .collect::<Result<_, _>>()?;
            filtered.sort_by(|a, b| {
                for &i in &keys {
                    let ord = a[i].cmp(&b[i]);
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        let out_pos: Vec<usize> = query
            .select
            .iter()
            .map(|s| match s {
                SelectItem::Col(c) => pos(*c),
                SelectItem::Agg { .. } => unreachable!("non-aggregate query"),
            })
            .collect::<Result<_, _>>()?;
        return Ok(filtered
            .into_iter()
            .map(|row| out_pos.iter().map(|&i| row[i].clone()).collect())
            .collect());
    }

    // 4b. Group and aggregate.
    let key_pos: Vec<usize> = query
        .group_by
        .iter()
        .map(|c| pos(*c))
        .collect::<Result<_, _>>()?;
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut groups: HashMap<Vec<Value>, Table> = HashMap::new();
    for row in filtered {
        let key: Vec<Value> = key_pos.iter().map(|&i| row[i].clone()).collect();
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(row);
    }
    if query.group_by.is_empty() && groups.is_empty() {
        order.push(Vec::new());
        groups.insert(Vec::new(), Vec::new());
    }

    let mut out: Table = Vec::new();
    for key in order {
        let members = &groups[&key];
        let mut row: Row = Vec::with_capacity(query.select.len());
        for item in &query.select {
            match item {
                SelectItem::Col(c) => {
                    let i = query
                        .group_by
                        .iter()
                        .position(|g| g == c)
                        .expect("validated: plain select col is a group key");
                    row.push(key[i].clone());
                }
                SelectItem::Agg { func, arg } => {
                    row.push(eval_agg(*func, *arg, members, &schema)?);
                }
            }
        }
        out.push(row);
    }
    Ok(out)
}

/// The position of `c` in `schema`.
fn col_pos(schema: &[Col], c: Col) -> Result<usize, ExecError> {
    schema
        .iter()
        .position(|s| *s == c)
        .ok_or(ExecError::UnresolvedColumn(c))
}

/// The rows (laid out as `schema`) that pass every one of `preds`, in order.
fn keep(
    rows: impl Iterator<Item = Row>,
    preds: &[&Predicate],
    schema: &[Col],
) -> Result<Table, ExecError> {
    let mut out: Table = Vec::new();
    'rows: for row in rows {
        for p in preds {
            let l = &row[col_pos(schema, p.left)?];
            let ok = match &p.right {
                Operand::Const(v) => p.op.eval(l, v),
                Operand::Col(c) => p.op.eval(l, &row[col_pos(schema, *c)?]),
            };
            if !ok {
                continue 'rows;
            }
        }
        out.push(row);
    }
    Ok(out)
}

fn eval_agg(
    func: AggFunc,
    arg: Option<Col>,
    rows: &Table,
    schema: &[Col],
) -> Result<Value, ExecError> {
    let pos = |c: Col| col_pos(schema, c);
    let nums = |c: Col| -> Result<Vec<f64>, ExecError> {
        let i = pos(c)?;
        rows.iter()
            .map(|r| {
                r[i].as_f64().ok_or_else(|| {
                    ExecError::TypeError(format!("non-numeric aggregate input {}", r[i]))
                })
            })
            .collect()
    };
    Ok(match func {
        AggFunc::Count => Value::Int(rows.len() as i64),
        // SUM stays Int over all-int inputs (wrapping), switches to a float
        // accumulator seeded from the integer partial sum on the first float
        // input, and is NULL over zero rows. `+ 0.0` normalizes a possible
        // `-0.0` accumulator, which our total order distinguishes.
        AggFunc::Sum => {
            let i = pos(arg.expect("SUM arg"))?;
            let (mut int_acc, mut float_acc, mut is_float, mut seen) = (0i64, 0.0f64, false, false);
            for r in rows {
                match &r[i] {
                    Value::Int(v) => {
                        seen = true;
                        if is_float {
                            float_acc += *v as f64;
                        } else {
                            int_acc = int_acc.wrapping_add(*v);
                        }
                    }
                    Value::Float(x) => {
                        seen = true;
                        if !is_float {
                            is_float = true;
                            float_acc = int_acc as f64;
                        }
                        float_acc += *x;
                    }
                    other => {
                        return Err(ExecError::TypeError(format!(
                            "non-numeric aggregate input {other}"
                        )))
                    }
                }
            }
            if !seen {
                Value::Null
            } else if is_float {
                Value::Float(float_acc + 0.0)
            } else {
                Value::Int(int_acc)
            }
        }
        AggFunc::Avg => {
            let v = nums(arg.expect("AVG arg"))?;
            Value::Float(if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            })
        }
        // SQL: MIN/MAX over zero rows is NULL.
        AggFunc::Min => {
            let i = pos(arg.expect("MIN arg"))?;
            rows.iter()
                .map(|r| r[i].clone())
                .min()
                .unwrap_or(Value::Null)
        }
        AggFunc::Max => {
            let i = pos(arg.expect("MAX arg"))?;
            rows.iter()
                .map(|r| r[i].clone())
                .max()
                .unwrap_or(Value::Null)
        }
    })
}

/// Compare two tables as multisets (order-insensitive equality).
pub fn same_rows(a: &Table, b: &Table) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut a = a.clone();
    let mut b = b.clone();
    a.sort();
    b.sort();
    a == b
}

/// Like [`same_rows`], but floats compare with relative tolerance `rel` —
/// distributed plans sum partial aggregates in a different order than the
/// reference evaluator, so exact bit equality is too strict for `SUM`/`AVG`
/// results.
pub fn approx_same_rows(a: &Table, b: &Table, rel: f64) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut a = a.clone();
    let mut b = b.clone();
    a.sort();
    b.sort();
    a.iter().zip(&b).all(|(ra, rb)| {
        ra.len() == rb.len()
            && ra.iter().zip(rb).all(|(va, vb)| match (va, vb) {
                (Value::Float(x), Value::Float(y)) => {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    (x - y).abs() <= rel * scale
                }
                _ => va == vb,
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datastore::DataStore;
    use qt_catalog::{
        AttrType, Catalog, CatalogBuilder, NodeId, PartitionStats, Partitioning, RelationSchema,
    };
    use qt_query::{parse_query, PartSet};

    fn setup() -> (Catalog, DataStore) {
        let mut b = CatalogBuilder::new();
        let c = b.add_relation(
            RelationSchema::new(
                "customer",
                vec![("custid", AttrType::Int), ("office", AttrType::Str)],
            ),
            Partitioning::List {
                attr: 1,
                groups: vec![vec![Value::str("Corfu")], vec![Value::str("Myconos")]],
            },
        );
        let inv = b.add_relation(
            RelationSchema::new(
                "invoiceline",
                vec![("custid", AttrType::Int), ("charge", AttrType::Float)],
            ),
            Partitioning::Single,
        );
        for i in 0..2 {
            b.set_stats(PartId::new(c, i), PartitionStats::synthetic(2, &[2, 1]));
            b.place(PartId::new(c, i), NodeId(0));
        }
        b.set_stats(PartId::new(inv, 0), PartitionStats::synthetic(4, &[3, 4]));
        b.place(PartId::new(inv, 0), NodeId(0));
        let catalog = b.build();

        let mut store = DataStore::new();
        store.load_relation(
            &catalog.dict,
            c,
            vec![
                vec![Value::Int(1), Value::str("Corfu")],
                vec![Value::Int(2), Value::str("Myconos")],
                vec![Value::Int(3), Value::str("Myconos")],
            ],
        );
        store.load_relation(
            &catalog.dict,
            inv,
            vec![
                vec![Value::Int(1), Value::Float(10.0)],
                vec![Value::Int(2), Value::Float(20.0)],
                vec![Value::Int(2), Value::Float(5.0)],
                vec![Value::Int(3), Value::Float(2.5)],
            ],
        );
        (catalog, store)
    }

    #[test]
    fn spj_join_filter() {
        let (cat, store) = setup();
        let q = parse_query(
            &cat.dict,
            "SELECT office, charge FROM customer, invoiceline \
             WHERE customer.custid = invoiceline.custid AND charge > 4.0",
        )
        .unwrap();
        let t = evaluate_query(&q, &store).unwrap();
        assert_eq!(t.len(), 3); // charges 10, 20, 5
    }

    #[test]
    fn grouped_aggregate_matches_hand_computation() {
        let (cat, store) = setup();
        let q = parse_query(
            &cat.dict,
            "SELECT office, SUM(charge) FROM customer, invoiceline \
             WHERE customer.custid = invoiceline.custid GROUP BY office",
        )
        .unwrap();
        let mut t = evaluate_query(&q, &store).unwrap();
        t.sort();
        assert_eq!(
            t,
            vec![
                vec![Value::str("Corfu"), Value::Float(10.0)],
                vec![Value::str("Myconos"), Value::Float(27.5)],
            ]
        );
    }

    #[test]
    fn partition_restricted_extent() {
        let (cat, store) = setup();
        let q = parse_query(&cat.dict, "SELECT custid FROM customer").unwrap();
        let restricted = q.with_partset(qt_catalog::RelId(0), PartSet::single(1));
        let t = evaluate_query(&restricted, &store).unwrap();
        assert_eq!(t.len(), 2); // only Myconos customers
    }

    #[test]
    fn order_by_sorts_output() {
        let (cat, store) = setup();
        let q = parse_query(&cat.dict, "SELECT charge FROM invoiceline ORDER BY charge").unwrap();
        let t = evaluate_query(&q, &store).unwrap();
        let vals: Vec<f64> = t.iter().map(|r| r[0].as_f64().unwrap()).collect();
        assert_eq!(vals, vec![2.5, 5.0, 10.0, 20.0]);
    }

    #[test]
    fn count_star_scalar() {
        let (cat, store) = setup();
        let q = parse_query(&cat.dict, "SELECT COUNT(*) FROM customer").unwrap();
        assert_eq!(
            evaluate_query(&q, &store).unwrap(),
            vec![vec![Value::Int(3)]]
        );
    }

    #[test]
    fn scalar_aggregate_over_empty_selection() {
        let (cat, store) = setup();
        let q = parse_query(
            &cat.dict,
            "SELECT SUM(charge) FROM invoiceline WHERE charge > 1000.0",
        )
        .unwrap();
        assert_eq!(evaluate_query(&q, &store).unwrap(), vec![vec![Value::Null]]);
    }

    #[test]
    fn empty_min_max_are_null_and_int_sums_stay_int() {
        let (cat, store) = setup();
        let q = parse_query(
            &cat.dict,
            "SELECT MIN(charge), MAX(charge) FROM invoiceline WHERE charge > 1000.0",
        )
        .unwrap();
        assert_eq!(
            evaluate_query(&q, &store).unwrap(),
            vec![vec![Value::Null, Value::Null]]
        );
        let q = parse_query(&cat.dict, "SELECT SUM(custid) FROM customer").unwrap();
        assert_eq!(
            evaluate_query(&q, &store).unwrap(),
            vec![vec![Value::Int(6)]]
        );
    }

    #[test]
    fn min_max_avg_semantics() {
        let (cat, store) = setup();
        let q = parse_query(
            &cat.dict,
            "SELECT MIN(charge), MAX(charge), AVG(charge) FROM invoiceline",
        )
        .unwrap();
        let t = evaluate_query(&q, &store).unwrap();
        assert_eq!(t[0][0], Value::Float(2.5));
        assert_eq!(t[0][1], Value::Float(20.0));
        assert_eq!(t[0][2], Value::Float(37.5 / 4.0));
    }

    #[test]
    fn approx_same_rows_tolerates_float_noise() {
        let a = vec![vec![Value::str("x"), Value::Float(100.000000001)]];
        let b = vec![vec![Value::str("x"), Value::Float(100.0)]];
        assert!(!same_rows(&a, &b));
        assert!(approx_same_rows(&a, &b, 1e-9));
        assert!(!approx_same_rows(&a, &b, 1e-13));
        let c = vec![vec![Value::str("y"), Value::Float(100.0)]];
        assert!(!approx_same_rows(&a, &c, 1e-6));
    }

    #[test]
    fn same_rows_is_order_insensitive() {
        let a = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        let b = vec![vec![Value::Int(2)], vec![Value::Int(1)]];
        let c = vec![vec![Value::Int(2)]];
        assert!(same_rows(&a, &b));
        assert!(!same_rows(&a, &c));
    }
}
