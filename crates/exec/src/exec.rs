//! The materializing executor.

use crate::datastore::DataStore;
use crate::error::ExecError;
use crate::plan::PhysPlan;
use crate::{Row, Table};
use qt_catalog::Value;
use qt_query::{AggFunc, Col, Operand, Predicate};
use std::collections::HashMap;

/// Resolve `col` to its position in `schema`.
fn position(schema: &[Col], col: Col) -> Result<usize, ExecError> {
    schema
        .iter()
        .position(|c| *c == col)
        .ok_or(ExecError::UnresolvedColumn(col))
}

/// Evaluate a conjunctive predicate list on `row` under `schema`.
fn eval_predicates(preds: &[Predicate], schema: &[Col], row: &Row) -> Result<bool, ExecError> {
    for p in preds {
        let l = &row[position(schema, p.left)?];
        let ok = match &p.right {
            Operand::Const(v) => p.op.eval(l, v),
            Operand::Col(c) => p.op.eval(l, &row[position(schema, *c)?]),
        };
        if !ok {
            return Ok(false);
        }
    }
    Ok(true)
}

/// SUM accumulator that keeps integer sums integral: it folds into an `i64`
/// (wrapping) until the first float input, at which point it switches to an
/// `f64` accumulator seeded from the integer partial sum. Fold order is the
/// input order, so results are bit-reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SumAcc {
    int_acc: i64,
    float_acc: f64,
    is_float: bool,
    seen: bool,
}

impl SumAcc {
    pub(crate) fn new() -> SumAcc {
        SumAcc {
            int_acc: 0,
            float_acc: 0.0,
            is_float: false,
            seen: false,
        }
    }

    pub(crate) fn add_int(&mut self, i: i64) {
        self.seen = true;
        if self.is_float {
            self.float_acc += i as f64;
        } else {
            self.int_acc = self.int_acc.wrapping_add(i);
        }
    }

    pub(crate) fn add_float(&mut self, x: f64) {
        self.seen = true;
        if !self.is_float {
            self.is_float = true;
            self.float_acc = self.int_acc as f64;
        }
        self.float_acc += x;
    }

    pub(crate) fn add(&mut self, v: &Value) -> Result<(), ExecError> {
        match v {
            Value::Int(i) => self.add_int(*i),
            Value::Float(x) => self.add_float(*x),
            other => {
                return Err(ExecError::TypeError(format!(
                    "non-numeric aggregate input {other}"
                )))
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Value {
        if !self.seen {
            // SQL: SUM over zero rows is NULL.
            Value::Null
        } else if self.is_float {
            // `+ 0.0` maps a possible `-0.0` accumulator to `+0.0` so the
            // result is canonical under the total value order.
            Value::Float(self.float_acc + 0.0)
        } else {
            Value::Int(self.int_acc)
        }
    }
}

pub(crate) enum AggState {
    Count(i64),
    Sum(SumAcc),
    Avg(f64, i64),
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    pub(crate) fn new(func: AggFunc) -> AggState {
        match func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum(SumAcc::new()),
            AggFunc::Avg => AggState::Avg(0.0, 0),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    pub(crate) fn fold(&mut self, v: Option<&Value>) -> Result<(), ExecError> {
        let num = |v: &Value| {
            v.as_f64()
                .ok_or_else(|| ExecError::TypeError(format!("non-numeric aggregate input {v}")))
        };
        match self {
            AggState::Count(n) => *n += 1,
            AggState::Sum(acc) => acc.add(v.expect("SUM needs an argument"))?,
            AggState::Avg(acc, n) => {
                let v = v.expect("AVG needs an argument");
                *acc += num(v)?;
                *n += 1;
            }
            AggState::Min(cur) => {
                let v = v.expect("MIN needs an argument");
                if cur.as_ref().is_none_or(|c| v < c) {
                    *cur = Some(v.clone());
                }
            }
            AggState::Max(cur) => {
                let v = v.expect("MAX needs an argument");
                if cur.as_ref().is_none_or(|c| v > c) {
                    *cur = Some(v.clone());
                }
            }
        }
        Ok(())
    }

    pub(crate) fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum(acc) => acc.finish(),
            AggState::Avg(acc, n) => Value::Float(if n == 0 { 0.0 } else { acc / n as f64 }),
            // SQL: MIN/MAX over zero rows is NULL, not 0.
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
        }
    }
}

/// Execute `plan` against `store`, with `inputs` supplying pre-materialized
/// tables for [`PhysPlan::Input`] slots. Returns the materialized result.
/// A `Scan` reads its partition transposed from the store's batches.
pub fn execute(plan: &PhysPlan, store: &DataStore, inputs: &[Table]) -> Result<Table, ExecError> {
    match plan {
        PhysPlan::Scan { part, .. } => store
            .rows_of(*part)
            .ok_or(ExecError::MissingPartition(*part)),
        PhysPlan::Input { slot, .. } => inputs
            .get(*slot)
            .cloned()
            .ok_or(ExecError::MissingInput(*slot)),
        PhysPlan::Filter { input, predicates } => {
            let schema = input.schema();
            let rows = execute(input, store, inputs)?;
            let mut out = Vec::new();
            for row in rows {
                if eval_predicates(predicates, &schema, &row)? {
                    out.push(row);
                }
            }
            Ok(out)
        }
        PhysPlan::Project { input, cols } => {
            let schema = input.schema();
            let positions: Vec<usize> = cols
                .iter()
                .map(|c| position(&schema, *c))
                .collect::<Result<_, _>>()?;
            let rows = execute(input, store, inputs)?;
            Ok(rows
                .into_iter()
                .map(|row| positions.iter().map(|&i| row[i].clone()).collect())
                .collect())
        }
        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let lschema = left.schema();
            let rschema = right.schema();
            let lpos: Vec<usize> = left_keys
                .iter()
                .map(|c| position(&lschema, *c))
                .collect::<Result<_, _>>()?;
            let rpos: Vec<usize> = right_keys
                .iter()
                .map(|c| position(&rschema, *c))
                .collect::<Result<_, _>>()?;
            let lrows = execute(left, store, inputs)?;
            let rrows = execute(right, store, inputs)?;
            let mut table: HashMap<Vec<Value>, Vec<&Row>> = HashMap::new();
            for row in &lrows {
                let key: Vec<Value> = lpos.iter().map(|&i| row[i].clone()).collect();
                table.entry(key).or_default().push(row);
            }
            let mut out = Vec::new();
            for rrow in &rrows {
                let key: Vec<Value> = rpos.iter().map(|&i| rrow[i].clone()).collect();
                if let Some(matches) = table.get(&key) {
                    for lrow in matches {
                        let mut combined: Row = (*lrow).clone();
                        combined.extend(rrow.iter().cloned());
                        out.push(combined);
                    }
                }
            }
            Ok(out)
        }
        PhysPlan::MergeJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let lschema = left.schema();
            let rschema = right.schema();
            let lpos: Vec<usize> = left_keys
                .iter()
                .map(|c| position(&lschema, *c))
                .collect::<Result<_, _>>()?;
            let rpos: Vec<usize> = right_keys
                .iter()
                .map(|c| position(&rschema, *c))
                .collect::<Result<_, _>>()?;
            let lrows = execute(left, store, inputs)?;
            let rrows = execute(right, store, inputs)?;
            let key_of = |row: &Row, pos: &[usize]| -> Vec<Value> {
                pos.iter().map(|&i| row[i].clone()).collect()
            };
            let mut out = Vec::new();
            let (mut i, mut j) = (0usize, 0usize);
            while i < lrows.len() && j < rrows.len() {
                let lk = key_of(&lrows[i], &lpos);
                let rk = key_of(&rrows[j], &rpos);
                match lk.cmp(&rk) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        // Emit the cross product of the two equal-key blocks.
                        let i_end = (i..lrows.len())
                            .find(|&x| key_of(&lrows[x], &lpos) != lk)
                            .unwrap_or(lrows.len());
                        let j_end = (j..rrows.len())
                            .find(|&x| key_of(&rrows[x], &rpos) != rk)
                            .unwrap_or(rrows.len());
                        for lrow in &lrows[i..i_end] {
                            for rrow in &rrows[j..j_end] {
                                let mut combined = lrow.clone();
                                combined.extend(rrow.iter().cloned());
                                out.push(combined);
                            }
                        }
                        i = i_end;
                        j = j_end;
                    }
                }
            }
            Ok(out)
        }
        PhysPlan::NlJoin {
            left,
            right,
            predicates,
        } => {
            let schema = plan.schema();
            let lrows = execute(left, store, inputs)?;
            let rrows = execute(right, store, inputs)?;
            let mut out = Vec::new();
            for lrow in &lrows {
                for rrow in &rrows {
                    let mut combined: Row = lrow.clone();
                    combined.extend(rrow.iter().cloned());
                    if eval_predicates(predicates, &schema, &combined)? {
                        out.push(combined);
                    }
                }
            }
            Ok(out)
        }
        PhysPlan::Union { inputs: plans } => {
            let mut out = Vec::new();
            for p in plans {
                out.extend(execute(p, store, inputs)?);
            }
            Ok(out)
        }
        PhysPlan::Sort { input, keys } => {
            let schema = input.schema();
            let positions: Vec<usize> = keys
                .iter()
                .map(|c| position(&schema, *c))
                .collect::<Result<_, _>>()?;
            let mut rows = execute(input, store, inputs)?;
            rows.sort_by(|a, b| {
                for &i in &positions {
                    let ord = a[i].cmp(&b[i]);
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(rows)
        }
        PhysPlan::HashAggregate {
            input,
            group_by,
            aggs,
        } => {
            let schema = input.schema();
            let key_pos: Vec<usize> = group_by
                .iter()
                .map(|c| position(&schema, *c))
                .collect::<Result<_, _>>()?;
            let arg_pos: Vec<Option<usize>> = aggs
                .iter()
                .map(|a| a.arg.map(|c| position(&schema, c)).transpose())
                .collect::<Result<_, _>>()?;
            let rows = execute(input, store, inputs)?;
            // Group in first-seen order for deterministic output.
            let mut order: Vec<Vec<Value>> = Vec::new();
            let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
            for row in &rows {
                let key: Vec<Value> = key_pos.iter().map(|&i| row[i].clone()).collect();
                let states = groups.entry(key.clone()).or_insert_with(|| {
                    order.push(key.clone());
                    aggs.iter().map(|a| AggState::new(a.func)).collect()
                });
                for (state, pos) in states.iter_mut().zip(&arg_pos) {
                    state.fold(pos.map(|i| &row[i]))?;
                }
            }
            // Scalar aggregate over zero rows still yields one row.
            if group_by.is_empty() && groups.is_empty() {
                groups.insert(
                    Vec::new(),
                    aggs.iter().map(|a| AggState::new(a.func)).collect(),
                );
                order.push(Vec::new());
            }
            let mut out = Vec::new();
            for key in order {
                let states = groups.remove(&key).expect("group present");
                let mut row: Row = key;
                for s in states {
                    row.push(s.finish());
                }
                out.push(row);
            }
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AggSpec;
    use qt_catalog::PartId;
    use qt_catalog::RelId;
    use qt_query::CompOp;

    fn r() -> RelId {
        RelId(0)
    }
    fn s() -> RelId {
        RelId(1)
    }

    fn store() -> DataStore {
        // r(a, b): 4 rows; s(a, c): 3 rows.
        let mut m = DataStore::new();
        m.insert(
            PartId::new(r(), 0),
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(2), Value::Int(20)],
                vec![Value::Int(3), Value::Int(30)],
                vec![Value::Int(2), Value::Int(25)],
            ],
        );
        m.insert(
            PartId::new(s(), 0),
            vec![
                vec![Value::Int(2), Value::str("x")],
                vec![Value::Int(3), Value::str("y")],
                vec![Value::Int(9), Value::str("z")],
            ],
        );
        m
    }

    fn scan_r() -> PhysPlan {
        PhysPlan::Scan {
            part: PartId::new(r(), 0),
            arity: 2,
        }
    }
    fn scan_s() -> PhysPlan {
        PhysPlan::Scan {
            part: PartId::new(s(), 0),
            arity: 2,
        }
    }

    #[test]
    fn scan_returns_rows() {
        let t = execute(&scan_r(), &store(), &[]).unwrap();
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn missing_partition_errors() {
        let bad = PhysPlan::Scan {
            part: PartId::new(RelId(9), 0),
            arity: 1,
        };
        assert_eq!(
            execute(&bad, &store(), &[]),
            Err(ExecError::MissingPartition(PartId::new(RelId(9), 0)))
        );
    }

    #[test]
    fn filter_applies_predicates() {
        let p = PhysPlan::Filter {
            input: Box::new(scan_r()),
            predicates: vec![Predicate::with_const(Col::new(r(), 1), CompOp::Ge, 20i64)],
        };
        let t = execute(&p, &store(), &[]).unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn project_reorders_columns() {
        let p = PhysPlan::Project {
            input: Box::new(scan_r()),
            cols: vec![Col::new(r(), 1), Col::new(r(), 0)],
        };
        let t = execute(&p, &store(), &[]).unwrap();
        assert_eq!(t[0], vec![Value::Int(10), Value::Int(1)]);
    }

    #[test]
    fn hash_join_matches_keys() {
        let p = PhysPlan::HashJoin {
            left: Box::new(scan_r()),
            right: Box::new(scan_s()),
            left_keys: vec![Col::new(r(), 0)],
            right_keys: vec![Col::new(s(), 0)],
        };
        let t = execute(&p, &store(), &[]).unwrap();
        // a=2 matches twice (rows 2 and 2'), a=3 once → 3 output rows.
        assert_eq!(t.len(), 3);
        for row in &t {
            assert_eq!(row[0], row[2]); // join keys equal
        }
    }

    #[test]
    fn nl_join_cross_product_and_theta() {
        let cross = PhysPlan::NlJoin {
            left: Box::new(scan_r()),
            right: Box::new(scan_s()),
            predicates: vec![],
        };
        assert_eq!(execute(&cross, &store(), &[]).unwrap().len(), 12);
        let theta = PhysPlan::NlJoin {
            left: Box::new(scan_r()),
            right: Box::new(scan_s()),
            predicates: vec![Predicate {
                left: Col::new(r(), 0),
                op: CompOp::Lt,
                right: Operand::Col(Col::new(s(), 0)),
            }],
        };
        let t = execute(&theta, &store(), &[]).unwrap();
        assert_eq!(t.len(), 8); // pairs with r.a < s.a
    }

    #[test]
    fn hash_join_agrees_with_nl_join() {
        let hj = PhysPlan::HashJoin {
            left: Box::new(scan_r()),
            right: Box::new(scan_s()),
            left_keys: vec![Col::new(r(), 0)],
            right_keys: vec![Col::new(s(), 0)],
        };
        let nl = PhysPlan::NlJoin {
            left: Box::new(scan_r()),
            right: Box::new(scan_s()),
            predicates: vec![Predicate::eq_cols(Col::new(r(), 0), Col::new(s(), 0))],
        };
        let mut a = execute(&hj, &store(), &[]).unwrap();
        let mut b = execute(&nl, &store(), &[]).unwrap();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn union_concatenates() {
        let u = PhysPlan::Union {
            inputs: vec![scan_r(), scan_r()],
        };
        assert_eq!(execute(&u, &store(), &[]).unwrap().len(), 8);
    }

    #[test]
    fn sort_orders_rows() {
        let p = PhysPlan::Sort {
            input: Box::new(scan_r()),
            keys: vec![Col::new(r(), 1)],
        };
        let t = execute(&p, &store(), &[]).unwrap();
        let vals: Vec<i64> = t.iter().map(|row| row[1].as_int().unwrap()).collect();
        assert_eq!(vals, vec![10, 20, 25, 30]);
    }

    #[test]
    fn aggregate_grouped() {
        let p = PhysPlan::HashAggregate {
            input: Box::new(scan_r()),
            group_by: vec![Col::new(r(), 0)],
            aggs: vec![
                AggSpec {
                    func: AggFunc::Sum,
                    arg: Some(Col::new(r(), 1)),
                },
                AggSpec {
                    func: AggFunc::Count,
                    arg: None,
                },
            ],
        };
        let mut t = execute(&p, &store(), &[]).unwrap();
        t.sort();
        assert_eq!(t.len(), 3);
        // Group a=2: sum 45 (stays Int over int inputs), count 2.
        let g2 = t.iter().find(|row| row[0] == Value::Int(2)).unwrap();
        assert_eq!(g2[1], Value::Int(45));
        assert_eq!(g2[2], Value::Int(2));
    }

    #[test]
    fn empty_scalar_sum_min_max_are_null() {
        let p = PhysPlan::HashAggregate {
            input: Box::new(PhysPlan::Filter {
                input: Box::new(scan_r()),
                predicates: vec![Predicate::with_const(Col::new(r(), 0), CompOp::Gt, 100i64)],
            }),
            group_by: vec![],
            aggs: vec![
                AggSpec {
                    func: AggFunc::Sum,
                    arg: Some(Col::new(r(), 1)),
                },
                AggSpec {
                    func: AggFunc::Min,
                    arg: Some(Col::new(r(), 1)),
                },
                AggSpec {
                    func: AggFunc::Max,
                    arg: Some(Col::new(r(), 1)),
                },
                AggSpec {
                    func: AggFunc::Count,
                    arg: None,
                },
            ],
        };
        let t = execute(&p, &store(), &[]).unwrap();
        assert_eq!(
            t,
            vec![vec![Value::Null, Value::Null, Value::Null, Value::Int(0)]]
        );
    }

    #[test]
    fn sum_switches_to_float_on_first_float_input() {
        let mut acc = SumAcc::new();
        acc.add_int(3);
        acc.add_int(4);
        assert_eq!(acc.finish(), Value::Int(7));
        let mut acc = SumAcc::new();
        acc.add_int(3);
        acc.add_float(0.5);
        acc.add_int(1);
        assert_eq!(acc.finish(), Value::Float(4.5));
        // -0.0 canonicalizes to +0.0.
        let mut acc = SumAcc::new();
        acc.add_float(-0.0);
        assert_eq!(acc.finish(), Value::Float(0.0));
        assert_eq!(SumAcc::new().finish(), Value::Null);
    }

    #[test]
    fn scalar_aggregates_on_empty_input() {
        let p = PhysPlan::HashAggregate {
            input: Box::new(PhysPlan::Filter {
                input: Box::new(scan_r()),
                predicates: vec![Predicate::with_const(Col::new(r(), 0), CompOp::Gt, 100i64)],
            }),
            group_by: vec![],
            aggs: vec![AggSpec {
                func: AggFunc::Count,
                arg: None,
            }],
        };
        let t = execute(&p, &store(), &[]).unwrap();
        assert_eq!(t, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn min_max_avg() {
        let p = PhysPlan::HashAggregate {
            input: Box::new(scan_r()),
            group_by: vec![],
            aggs: vec![
                AggSpec {
                    func: AggFunc::Min,
                    arg: Some(Col::new(r(), 1)),
                },
                AggSpec {
                    func: AggFunc::Max,
                    arg: Some(Col::new(r(), 1)),
                },
                AggSpec {
                    func: AggFunc::Avg,
                    arg: Some(Col::new(r(), 1)),
                },
            ],
        };
        let t = execute(&p, &store(), &[]).unwrap();
        assert_eq!(t[0][0], Value::Int(10));
        assert_eq!(t[0][1], Value::Int(30));
        assert_eq!(t[0][2], Value::Float(85.0 / 4.0));
    }

    #[test]
    fn input_slots_resolve() {
        let table = vec![vec![Value::Int(7)]];
        let p = PhysPlan::Input {
            slot: 0,
            schema: vec![Col::new(r(), 0)],
        };
        assert_eq!(
            execute(&p, &store(), std::slice::from_ref(&table)).unwrap(),
            table
        );
        let missing = PhysPlan::Input {
            slot: 3,
            schema: vec![Col::new(r(), 0)],
        };
        assert_eq!(
            execute(&missing, &store(), &[]),
            Err(ExecError::MissingInput(3))
        );
    }

    #[test]
    fn unresolved_column_errors() {
        let p = PhysPlan::Project {
            input: Box::new(scan_r()),
            cols: vec![Col::new(s(), 0)],
        };
        assert!(matches!(
            execute(&p, &store(), &[]),
            Err(ExecError::UnresolvedColumn(_))
        ));
    }

    #[test]
    fn sum_on_string_column_is_type_error() {
        let p = PhysPlan::HashAggregate {
            input: Box::new(scan_s()),
            group_by: vec![],
            aggs: vec![AggSpec {
                func: AggFunc::Sum,
                arg: Some(Col::new(s(), 1)),
            }],
        };
        assert!(matches!(
            execute(&p, &store(), &[]),
            Err(ExecError::TypeError(_))
        ));
    }
}
