//! Plan preparation at the plan→columnar lowering boundary.
//!
//! The executable plans that reach the executors — in particular the
//! union-of-scans / nested-loop `naive_plan` used to run purchased offers —
//! keep every selection and join predicate in one `Filter` above a chain of
//! *cross-product* `NlJoin`s. The row executor tolerates this on validation-
//! sized data, but at 100–1000x scale the intermediate cross products are
//! fatal, and the columnar executor's equi-join extraction (which turns
//! `NlJoin` + equality predicates into a vectorized hash join) never sees
//! the predicates stranded in the upper `Filter`.
//!
//! [`sink_predicates`] fixes both: it recursively sinks each predicate to
//! the deepest operator whose schema covers it — into `NlJoin` predicate
//! lists (enabling hash-join lowering), through `Union`s into every branch,
//! and onto single sides of joins. The rewrite is **order-preserving**:
//! every operator here filters without reordering survivors (`NlJoin`'s
//! pair loop, `Filter`, `Union` concatenation), so the rewritten plan
//! yields bit-identical rows to the original under both executors — the
//! repo's standing determinism invariant.

use qt_exec::PhysPlan;
use qt_query::{Col, Operand, Predicate};

fn covered(schema: &[Col], p: &Predicate) -> bool {
    schema.contains(&p.left)
        && match p.right {
            Operand::Col(c) => schema.contains(&c),
            Operand::Const(_) => true,
        }
}

/// Wrap `plan` in a `Filter` for the predicates that could not sink deeper.
fn with_filter(plan: PhysPlan, preds: Vec<Predicate>) -> PhysPlan {
    if preds.is_empty() {
        plan
    } else {
        PhysPlan::Filter {
            input: Box::new(plan),
            predicates: preds,
        }
    }
}

/// Sink every `Filter` predicate in `plan` to the deepest operator that can
/// evaluate it. Semantically a no-op: same rows, same order.
pub fn sink_predicates(plan: &PhysPlan) -> PhysPlan {
    sink(plan, Vec::new())
}

/// Rewrite `plan` with `preds` pending from above (all covered by `plan`'s
/// schema).
fn sink(plan: &PhysPlan, mut preds: Vec<Predicate>) -> PhysPlan {
    match plan {
        PhysPlan::Filter { input, predicates } => {
            // Merge this filter's own predicates with the pending ones.
            // Keeping the inner predicates first preserves evaluation order
            // (conjunction — order only matters for error surfacing).
            let mut all = predicates.clone();
            all.append(&mut preds);
            sink(input, all)
        }
        PhysPlan::NlJoin {
            left,
            right,
            predicates,
        } => {
            let ls = left.schema();
            let rs = right.schema();
            let (mut to_left, mut to_right, mut spanning) = (vec![], vec![], vec![]);
            for p in preds {
                if covered(&ls, &p) {
                    to_left.push(p);
                } else if covered(&rs, &p) {
                    to_right.push(p);
                } else {
                    spanning.push(p);
                }
            }
            // Spanning predicates join the NlJoin's own list, where the
            // columnar executor's equi-extraction can lower them to a hash
            // join; the row executor applies them in the identical pair
            // loop it already runs.
            let mut all = predicates.clone();
            all.append(&mut spanning);
            PhysPlan::NlJoin {
                left: Box::new(sink(left, to_left)),
                right: Box::new(sink(right, to_right)),
                predicates: all,
            }
        }
        PhysPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let ls = left.schema();
            let rs = right.schema();
            let (mut to_left, mut to_right, mut stay) = (vec![], vec![], vec![]);
            for p in preds {
                if covered(&ls, &p) {
                    to_left.push(p);
                } else if covered(&rs, &p) {
                    to_right.push(p);
                } else {
                    stay.push(p);
                }
            }
            with_filter(
                PhysPlan::HashJoin {
                    left: Box::new(sink(left, to_left)),
                    right: Box::new(sink(right, to_right)),
                    left_keys: left_keys.clone(),
                    right_keys: right_keys.clone(),
                },
                stay,
            )
        }
        PhysPlan::MergeJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            // Merge joins consume sorted inputs; filtering a sorted stream
            // keeps it sorted, so single-side predicates may sink.
            let ls = left.schema();
            let rs = right.schema();
            let (mut to_left, mut to_right, mut stay) = (vec![], vec![], vec![]);
            for p in preds {
                if covered(&ls, &p) {
                    to_left.push(p);
                } else if covered(&rs, &p) {
                    to_right.push(p);
                } else {
                    stay.push(p);
                }
            }
            with_filter(
                PhysPlan::MergeJoin {
                    left: Box::new(sink(left, to_left)),
                    right: Box::new(sink(right, to_right)),
                    left_keys: left_keys.clone(),
                    right_keys: right_keys.clone(),
                },
                stay,
            )
        }
        PhysPlan::Union { inputs } => PhysPlan::Union {
            // Every branch shares the union's schema; filter each branch.
            inputs: inputs.iter().map(|i| sink(i, preds.clone())).collect(),
        },
        // Sort and aggregation change multiplicity/order semantics if a
        // filter crosses them (and a projection changes the schema), so
        // pending predicates stop here. Their children still get their own
        // internal filters sunk.
        PhysPlan::Sort { input, keys } => with_filter(
            PhysPlan::Sort {
                input: Box::new(sink(input, Vec::new())),
                keys: keys.clone(),
            },
            preds,
        ),
        PhysPlan::Project { input, cols } => with_filter(
            PhysPlan::Project {
                input: Box::new(sink(input, Vec::new())),
                cols: cols.clone(),
            },
            preds,
        ),
        PhysPlan::HashAggregate {
            input,
            group_by,
            aggs,
        } => with_filter(
            PhysPlan::HashAggregate {
                input: Box::new(sink(input, Vec::new())),
                group_by: group_by.clone(),
                aggs: aggs.clone(),
            },
            preds,
        ),
        PhysPlan::Scan { .. } | PhysPlan::Input { .. } => with_filter(plan.clone(), preds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_catalog::{PartId, RelId, Value};
    use qt_exec::{execute, DataStore};
    use qt_query::CompOp;

    fn store() -> DataStore {
        let r: Vec<Vec<Value>> = (0..30)
            .map(|i| vec![Value::Int(i % 5), Value::Int(i)])
            .collect();
        let s: Vec<Vec<Value>> = (0..20)
            .map(|i| vec![Value::Int(i % 7), Value::Int(i * 2)])
            .collect();
        [(PartId::new(RelId(0), 0), r), (PartId::new(RelId(1), 0), s)]
            .into_iter()
            .collect()
    }

    fn scan(rel: u32) -> PhysPlan {
        PhysPlan::Scan {
            part: PartId::new(RelId(rel), 0),
            arity: 2,
        }
    }

    /// The naive shape: Filter(join preds ∧ selections) over a cross join.
    fn naive_shape() -> PhysPlan {
        PhysPlan::Filter {
            input: Box::new(PhysPlan::NlJoin {
                left: Box::new(scan(0)),
                right: Box::new(scan(1)),
                predicates: vec![],
            }),
            predicates: vec![
                Predicate::eq_cols(Col::new(RelId(0), 0), Col::new(RelId(1), 0)),
                Predicate::with_const(Col::new(RelId(0), 1), CompOp::Lt, 20i64),
                Predicate::with_const(Col::new(RelId(1), 1), CompOp::Ge, 4i64),
            ],
        }
    }

    #[test]
    fn sinking_preserves_rows_and_order() {
        let plan = naive_shape();
        let sunk = sink_predicates(&plan);
        let src = store();
        assert_eq!(
            execute(&plan, &src, &[]).unwrap(),
            execute(&sunk, &src, &[]).unwrap()
        );
    }

    #[test]
    fn join_predicate_lands_in_nl_join_and_selections_on_sides() {
        let sunk = sink_predicates(&naive_shape());
        match sunk {
            PhysPlan::NlJoin {
                left,
                right,
                predicates,
            } => {
                // The cross-relation equality stays at the join, where the
                // columnar executor lowers it to a hash join.
                assert_eq!(predicates.len(), 1);
                assert!(matches!(*left, PhysPlan::Filter { .. }));
                assert!(matches!(*right, PhysPlan::Filter { .. }));
            }
            other => panic!("expected bare NlJoin at the root, got {}", other.pretty()),
        }
    }

    #[test]
    fn predicates_sink_through_unions_and_stop_at_aggregates() {
        let plan = PhysPlan::Filter {
            input: Box::new(PhysPlan::Union {
                inputs: vec![scan(0), scan(0)],
            }),
            predicates: vec![Predicate::with_const(
                Col::new(RelId(0), 1),
                CompOp::Lt,
                7i64,
            )],
        };
        let sunk = sink_predicates(&plan);
        match &sunk {
            PhysPlan::Union { inputs } => {
                assert!(inputs.iter().all(|i| matches!(i, PhysPlan::Filter { .. })));
            }
            other => panic!("expected Union at root, got {}", other.pretty()),
        }
        let src = store();
        assert_eq!(
            execute(&plan, &src, &[]).unwrap(),
            execute(&sunk, &src, &[]).unwrap()
        );

        // A filter above an aggregate must not cross it.
        let agg = PhysPlan::Filter {
            input: Box::new(PhysPlan::HashAggregate {
                input: Box::new(scan(0)),
                group_by: vec![Col::new(RelId(0), 0)],
                aggs: vec![],
            }),
            predicates: vec![Predicate::with_const(
                Col::new(RelId(0), 0),
                CompOp::Gt,
                1i64,
            )],
        };
        let sunk = sink_predicates(&agg);
        assert!(matches!(sunk, PhysPlan::Filter { .. }));
        assert_eq!(
            execute(&agg, &store(), &[]).unwrap(),
            execute(&sunk, &store(), &[]).unwrap()
        );
    }
}
