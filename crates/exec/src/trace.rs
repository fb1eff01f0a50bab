//! Instrumented execution: run a plan and record per-operator row counts —
//! the data behind `EXPLAIN ANALYZE`-style output.

use crate::datastore::DataStore;
use crate::error::ExecError;
use crate::exec::execute;
use crate::plan::PhysPlan;
use crate::Table;

/// One operator's measured work during a columnar execution: row counts,
/// input bytes, and wall-clock seconds. These are the observations the
/// `qt-cost` calibration loop fits its per-tuple/per-byte parameters from.
#[derive(Debug, Clone, PartialEq)]
pub struct OpTiming {
    /// Operator kind (`"Scan"`, `"Filter"`, `"HashJoinBuild"`, …). Joins
    /// emit separate build and probe records.
    pub op: &'static str,
    /// Rows the operator consumed.
    pub rows_in: u64,
    /// Rows the operator produced.
    pub rows_out: u64,
    /// Approximate bytes of columnar input.
    pub bytes_in: u64,
    /// Measured wall-clock seconds for the operator's own work (children
    /// excluded).
    pub secs: f64,
}

/// Row counts observed at one operator during a traced execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpTrace {
    /// Nesting depth in the plan tree (0 = root).
    pub depth: usize,
    /// Operator label (`"HashJoin"`, `"Scan rel0.p1"`, …).
    pub label: String,
    /// Rows the operator produced.
    pub rows_out: usize,
}

/// Execute `plan` and record the output cardinality of every operator.
///
/// The implementation re-executes each subtree, which is quadratic in plan
/// depth — fine for the interactive/debugging use it serves (the plans here
/// are small trees over purchased inputs), and it keeps the fast path in
/// [`execute`] untouched.
pub fn execute_traced(
    plan: &PhysPlan,
    store: &DataStore,
    inputs: &[Table],
) -> Result<(Table, Vec<OpTrace>), ExecError> {
    let mut traces = Vec::new();
    collect(plan, store, inputs, 0, &mut traces)?;
    let result = execute(plan, store, inputs)?;
    Ok((result, traces))
}

fn label(plan: &PhysPlan) -> String {
    match plan {
        PhysPlan::Scan { part, .. } => format!("Scan {part}"),
        PhysPlan::Input { slot, .. } => format!("Input slot={slot}"),
        PhysPlan::Filter { predicates, .. } => format!("Filter ({} preds)", predicates.len()),
        PhysPlan::Project { cols, .. } => format!("Project ({} cols)", cols.len()),
        PhysPlan::HashJoin { left_keys, .. } => format!("HashJoin ({} keys)", left_keys.len()),
        PhysPlan::MergeJoin { left_keys, .. } => {
            format!("MergeJoin ({} keys)", left_keys.len())
        }
        PhysPlan::NlJoin { predicates, .. } => format!("NlJoin ({} preds)", predicates.len()),
        PhysPlan::Union { inputs } => format!("Union ({} inputs)", inputs.len()),
        PhysPlan::Sort { keys, .. } => format!("Sort ({} keys)", keys.len()),
        PhysPlan::HashAggregate { group_by, aggs, .. } => {
            format!(
                "HashAggregate ({} keys, {} aggs)",
                group_by.len(),
                aggs.len()
            )
        }
    }
}

fn collect(
    plan: &PhysPlan,
    store: &DataStore,
    inputs: &[Table],
    depth: usize,
    out: &mut Vec<OpTrace>,
) -> Result<(), ExecError> {
    let rows = execute(plan, store, inputs)?.len();
    out.push(OpTrace {
        depth,
        label: label(plan),
        rows_out: rows,
    });
    match plan {
        PhysPlan::Scan { .. } | PhysPlan::Input { .. } => {}
        PhysPlan::Filter { input, .. }
        | PhysPlan::Project { input, .. }
        | PhysPlan::Sort { input, .. }
        | PhysPlan::HashAggregate { input, .. } => {
            collect(input, store, inputs, depth + 1, out)?;
        }
        PhysPlan::HashJoin { left, right, .. }
        | PhysPlan::MergeJoin { left, right, .. }
        | PhysPlan::NlJoin { left, right, .. } => {
            collect(left, store, inputs, depth + 1, out)?;
            collect(right, store, inputs, depth + 1, out)?;
        }
        PhysPlan::Union { inputs: plans } => {
            for p in plans {
                collect(p, store, inputs, depth + 1, out)?;
            }
        }
    }
    Ok(())
}

/// Render traces as an indented `EXPLAIN ANALYZE`-style tree.
pub fn render(traces: &[OpTrace]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for t in traces {
        let _ = writeln!(
            s,
            "{}{} → {} rows",
            "  ".repeat(t.depth),
            t.label,
            t.rows_out
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_catalog::{PartId, RelId, Value};
    use qt_query::{Col, CompOp, Predicate};

    fn store() -> DataStore {
        let rows: Table = (0..10)
            .map(|i| vec![Value::Int(i), Value::Int(i * 10)])
            .collect();
        [(PartId::new(RelId(0), 0), rows)].into_iter().collect()
    }

    #[test]
    fn traces_report_per_operator_rows() {
        let plan = PhysPlan::Filter {
            input: Box::new(PhysPlan::Scan {
                part: PartId::new(RelId(0), 0),
                arity: 2,
            }),
            predicates: vec![Predicate::with_const(
                Col::new(RelId(0), 0),
                CompOp::Lt,
                4i64,
            )],
        };
        let (result, traces) = execute_traced(&plan, &store(), &[]).unwrap();
        assert_eq!(result.len(), 4);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].rows_out, 4);
        assert_eq!(traces[0].depth, 0);
        assert!(traces[0].label.starts_with("Filter"));
        assert_eq!(traces[1].rows_out, 10);
        assert!(traces[1].label.starts_with("Scan"));
    }

    #[test]
    fn render_indents_by_depth() {
        let traces = vec![
            OpTrace {
                depth: 0,
                label: "Project (1 cols)".into(),
                rows_out: 3,
            },
            OpTrace {
                depth: 1,
                label: "Scan rel0.p0".into(),
                rows_out: 10,
            },
        ];
        let s = render(&traces);
        assert!(s.contains("Project (1 cols) → 3 rows"));
        assert!(s.contains("  Scan rel0.p0 → 10 rows"));
    }

    #[test]
    fn traced_result_matches_plain_execution() {
        let plan = PhysPlan::Scan {
            part: PartId::new(RelId(0), 0),
            arity: 2,
        };
        let plain = execute(&plan, &store(), &[]).unwrap();
        let (traced, _) = execute_traced(&plan, &store(), &[]).unwrap();
        assert_eq!(plain, traced);
    }
}
