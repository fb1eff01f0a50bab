//! Property-based equivalence: the columnar executor is bit-identical to the
//! row executor (the correctness oracle) — same rows, same order — on random
//! plans over random data. A plan puts a hash, merge or nested-loop join
//! (an equality plus a residual, or one non-equi predicate) under nothing, a
//! sort, a grouped or scalar aggregate, or operators that read a strict
//! subset of the join's columns (so the join drops the rest); keys are
//! narrow integers or widely spread ones, so joins and group-bys run both
//! their direct-indexed and their hashed key ids. Every plan runs across
//! batch sizes {1, 7, 1024}, spill budgets {tiny (everything spills),
//! unlimited}, and `QT_THREADS` ∈ {1, 4}, whether scans share a `DataStore`'s batches or
//! the leaves arrive as column batches through the batch entry point, and
//! every configuration records the same operators with the same row counts.
//!
//! CI additionally runs this whole binary under `QT_THREADS=1` and
//! `QT_THREADS=4`; the env-sweeping test below rotates the variable itself
//! (under a lock, since `qt_par::max_threads` re-reads it per call).

use proptest::prelude::*;
use qt_catalog::{PartId, RelId, Value};
use qt_exec::{
    batches_to_rows, execute, execute_columnar_batches, execute_columnar_with_stats,
    rows_to_batches, AggSpec, ColumnarConfig, DataStore, PhysPlan, Table,
};
use qt_query::{AggFunc, Col, CompOp, Operand, Predicate};
use std::sync::Mutex;

/// Guards `QT_THREADS` mutation: tests in this binary run on parallel
/// threads and `qt_par` reads the variable on every call.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// A cell value drawn from all four `Value` variants, with narrow domains so
/// joins and group-bys collide often.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..6).prop_map(Value::Int),
        (-4i64..4).prop_map(|i| Value::Float(i as f64 * 0.5)),
        (0usize..3).prop_map(|i| Value::str(["a", "b", "ab"][i])),
        Just(Value::Null),
    ]
}

/// Key stride of a wide table: five keys 2^40 apart span more than any
/// slot array may take for 24 rows.
const STRIDE: i64 = 1 << 40;

/// Rows of (int key, any value, int payload) — col 0 stays Int so hash joins
/// and group-bys exercise the specialized Int kernels, col 1 exercises
/// Mixed/Null paths. The key spread is drawn per table: narrow keys `0..5`
/// are indexed directly; wide ones — `0..5` times [`STRIDE`], with
/// `i64::MIN` and `i64::MAX` mixed in — are hashed (unless a table holds a
/// single distinct key), so both key-id paths meet the oracle on both the
/// build and the probe side.
fn rows_strategy() -> impl Strategy<Value = Table> {
    let row = (
        (0i64..5, 0u8..6),
        value_strategy(),
        (-9i64..9).prop_map(Value::Int),
    );
    (any::<bool>(), prop::collection::vec(row, 0..24)).prop_map(|(wide, rows)| {
        rows.into_iter()
            .map(|((k, extreme), b, c)| {
                let key = match (wide, extreme) {
                    (false, _) => k,
                    (true, 0) => i64::MIN,
                    (true, 1) => i64::MAX,
                    (true, _) => k * STRIDE,
                };
                vec![Value::Int(key), b, c]
            })
            .collect()
    })
}

fn part(rel: u32) -> PartId {
    PartId::new(RelId(rel), 0)
}

fn scan(rel: u32) -> PhysPlan {
    PhysPlan::Scan {
        part: part(rel),
        arity: 3,
    }
}

/// Relation `rel` delivered into input slot `rel` instead of scanned.
fn input(rel: u32) -> PhysPlan {
    PhysPlan::Input {
        slot: rel as usize,
        schema: (0..3).map(|a| Col::new(RelId(rel), a)).collect(),
    }
}

fn store(l: Table, r: Table) -> DataStore {
    [(part(0), l), (part(1), r)].into_iter().collect()
}

/// A small random plan: filter → join → optional aggregate / sort. The
/// shape is drawn first so the same plan can be built over scans and over
/// input slots. `join` picks a hash join, a nested-loop join with an
/// equality and a residual, a merge join over inputs sorted on its keys, or
/// a nested-loop join on one non-equi predicate (the pair loop); `top` adds
/// nothing, a sort, a grouped aggregate or a scalar one — or one of the
/// shapes whose operators above the join read a strict subset of its
/// columns: a one-column projection, an aggregate reading one key, a scalar
/// `COUNT(*)` reading none, a filter on a column nothing above outputs, and
/// a sort on a key that a projection above it drops.
#[derive(Debug, Clone)]
struct Shape {
    filter: Option<i64>,
    join: u8,
    top: u8,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (any::<bool>(), -3i64..3, 0u8..4, 0u8..9).prop_map(|(keep, c, join, top)| Shape {
        filter: keep.then_some(c),
        join,
        top,
    })
}

impl Shape {
    fn plan(&self, leaf: fn(u32) -> PhysPlan) -> PhysPlan {
        let left = match self.filter {
            Some(c) => PhysPlan::Filter {
                input: Box::new(leaf(0)),
                predicates: vec![Predicate::with_const(Col::new(RelId(0), 2), CompOp::Ge, c)],
            },
            None => leaf(0),
        };
        let (left, right) = (Box::new(left), Box::new(leaf(1)));
        let key = |rel: u32| Col::new(RelId(rel), 0);
        let j = match self.join {
            0 => PhysPlan::HashJoin {
                left,
                right,
                left_keys: vec![key(0)],
                right_keys: vec![key(1)],
            },
            1 => PhysPlan::NlJoin {
                left,
                right,
                predicates: vec![
                    Predicate::eq_cols(key(0), key(1)),
                    Predicate {
                        left: Col::new(RelId(0), 2),
                        op: CompOp::Le,
                        right: Operand::Col(Col::new(RelId(1), 2)),
                    },
                ],
            },
            2 => {
                let sorted = |input: Box<PhysPlan>, rel: u32| PhysPlan::Sort {
                    input,
                    keys: vec![key(rel)],
                };
                PhysPlan::MergeJoin {
                    left: Box::new(sorted(left, 0)),
                    right: Box::new(sorted(right, 1)),
                    left_keys: vec![key(0)],
                    right_keys: vec![key(1)],
                }
            }
            _ => PhysPlan::NlJoin {
                left,
                right,
                predicates: vec![Predicate {
                    left: Col::new(RelId(0), 1),
                    op: CompOp::Gt,
                    right: Operand::Col(Col::new(RelId(1), 1)),
                }],
            },
        };
        match self.top {
            0 => j,
            1 => PhysPlan::Sort {
                input: Box::new(j),
                keys: vec![Col::new(RelId(1), 2), Col::new(RelId(0), 1)],
            },
            2 => PhysPlan::HashAggregate {
                input: Box::new(j),
                group_by: vec![key(1)],
                aggs: vec![
                    AggSpec {
                        func: AggFunc::Sum,
                        arg: Some(Col::new(RelId(0), 2)),
                    },
                    AggSpec {
                        func: AggFunc::Count,
                        arg: None,
                    },
                    AggSpec {
                        func: AggFunc::Min,
                        arg: Some(key(0)),
                    },
                ],
            },
            3 => PhysPlan::HashAggregate {
                input: Box::new(j),
                group_by: vec![],
                aggs: vec![
                    AggSpec {
                        func: AggFunc::Sum,
                        arg: Some(Col::new(RelId(0), 2)),
                    },
                    AggSpec {
                        func: AggFunc::Count,
                        arg: None,
                    },
                    AggSpec {
                        func: AggFunc::Max,
                        arg: Some(Col::new(RelId(1), 1)),
                    },
                ],
            },
            4 => PhysPlan::Project {
                input: Box::new(j),
                cols: vec![Col::new(RelId(1), 1)],
            },
            5 => PhysPlan::HashAggregate {
                input: Box::new(j),
                group_by: vec![key(0)],
                aggs: vec![AggSpec {
                    func: AggFunc::Count,
                    arg: None,
                }],
            },
            6 => PhysPlan::HashAggregate {
                input: Box::new(j),
                group_by: vec![],
                aggs: vec![AggSpec {
                    func: AggFunc::Count,
                    arg: None,
                }],
            },
            7 => PhysPlan::Project {
                input: Box::new(PhysPlan::Filter {
                    input: Box::new(j),
                    predicates: vec![Predicate::with_const(
                        Col::new(RelId(1), 2),
                        CompOp::Ge,
                        0i64,
                    )],
                }),
                cols: vec![key(0)],
            },
            _ => PhysPlan::Project {
                input: Box::new(PhysPlan::Sort {
                    input: Box::new(j),
                    keys: vec![Col::new(RelId(1), 2), Col::new(RelId(0), 1)],
                }),
                cols: vec![Col::new(RelId(0), 2)],
            },
        }
    }
}

fn configs() -> Vec<ColumnarConfig> {
    let mut out = Vec::new();
    for batch_rows in [1usize, 7, 1024] {
        for mem_budget_bytes in [0usize, usize::MAX] {
            out.push(ColumnarConfig {
                batch_rows,
                mem_budget_bytes,
                spill_partitions: 3,
            });
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Columnar output is bit-identical (rows and order) to the row executor
    /// for every batch size × spill budget combination.
    #[test]
    fn columnar_matches_row_executor(l in rows_strategy(), r in rows_strategy(), shape in shape_strategy()) {
        let plan = shape.plan(scan);
        let src = store(l.clone(), r.clone());
        let oracle = execute(&plan, &src, &[]).unwrap();
        // The same leaves delivered as column batches, cut at a size (5)
        // that is none of the sizes the plan runs at.
        let over_inputs = shape.plan(input);
        let delivered = [rows_to_batches(&l, 3, 5), rows_to_batches(&r, 3, 5)];
        // Spilling changes where an operator's rows go, not how many it
        // reads or writes: every configuration records the same operators
        // with the same row counts (the calibration fit reads them).
        let mut first_timings = None;
        for cfg in configs() {
            let (got, stats) = execute_columnar_with_stats(&plan, &src, &[], &cfg).unwrap();
            prop_assert_eq!(&got, &oracle, "batch_rows={} budget={}", cfg.batch_rows, cfg.mem_budget_bytes);
            // A zero budget forces every join build / aggregate input with
            // a row in it to spill; an unlimited one spills nothing.
            let spilling = stats.timings.iter().any(|t| {
                matches!(t.op, "HashJoinBuild" | "HashAggregate") && t.rows_in > 0
            });
            prop_assert_eq!(stats.spill_files > 0, cfg.mem_budget_bytes == 0 && spilling);
            let timings: Vec<(&str, u64, u64)> =
                stats.timings.iter().map(|t| (t.op, t.rows_in, t.rows_out)).collect();
            match &first_timings {
                None => first_timings = Some(timings),
                Some(first) => prop_assert_eq!(first, &timings, "batch_rows={} budget={}", cfg.batch_rows, cfg.mem_budget_bytes),
            }
            let (got, _) = execute_columnar_batches(&over_inputs, &src, &delivered, &cfg).unwrap();
            prop_assert_eq!(&batches_to_rows(&got), &oracle, "batch inputs, batch_rows={} budget={}", cfg.batch_rows, cfg.mem_budget_bytes);
        }
    }

    /// Same equivalence while rotating `QT_THREADS` between 1 and 4: the
    /// parallel probe/filter sections must not perturb row order.
    #[test]
    fn columnar_is_thread_count_invariant(l in rows_strategy(), r in rows_strategy(), shape in shape_strategy()) {
        let plan = shape.plan(scan);
        let src = store(l, r);
        let oracle = execute(&plan, &src, &[]).unwrap();
        let _guard = ENV_LOCK.lock().unwrap();
        let prev = std::env::var("QT_THREADS").ok();
        for threads in ["1", "4"] {
            std::env::set_var("QT_THREADS", threads);
            for cfg in [ColumnarConfig { batch_rows: 7, ..Default::default() },
                        ColumnarConfig { batch_rows: 7, mem_budget_bytes: 0, spill_partitions: 2 }] {
                let (got, _) = execute_columnar_with_stats(&plan, &src, &[], &cfg).unwrap();
                prop_assert_eq!(&got, &oracle, "QT_THREADS={} budget={}", threads, cfg.mem_budget_bytes);
            }
        }
        match prev {
            Some(v) => std::env::set_var("QT_THREADS", v),
            None => std::env::remove_var("QT_THREADS"),
        }
    }
}
