//! Criterion micro-benches for the columnar executor, one per place the
//! answer path spends its time: loading a relation into a `DataStore` (cut
//! into the column batches every scan shares), scanning a stored partition
//! with the columnar and with the row engine (which reads it transposed),
//! handing a seller fragment's batches to the buyer assembly, the
//! `Int`-keyed join table (built on the large side, probed by the large
//! side, and over keys too spread to index directly), grouping by a string
//! and by an integer key, two of `answer_tpch`'s buyer assemblies whole
//! (join, join, aggregate), and the kernels `answer_tpch`'s plans do not reach
//! — sort, merge join, a non-equi nested-loop join, and a join and an
//! aggregate spilled under a 64 KiB budget (E22's spill arm). All on
//! `tpch_federation` at 40 000 orders (160 k lineitems), the `answer_tpch`
//! workload's scale.

use criterion::{criterion_group, criterion_main, Criterion};
use qt_catalog::{PartId, RelId};
use qt_exec::{
    execute, execute_columnar_batches, AggSpec, ColBatch, Column, ColumnarConfig, DataStore,
    PhysPlan,
};
use qt_query::{AggFunc, Col, CompOp, Operand, Predicate};
use qt_workload::tpch::{tpch_federation, TpchSpec};
use std::sync::Arc;

fn scan(rel: RelId, part: u16, arity: usize) -> PhysPlan {
    PhysPlan::Scan {
        part: PartId::new(rel, part),
        arity,
    }
}

fn hash_join(left: PhysPlan, right: PhysPlan, l: Col, r: Col) -> PhysPlan {
    PhysPlan::HashJoin {
        left: Box::new(left),
        right: Box::new(right),
        left_keys: vec![l],
        right_keys: vec![r],
    }
}

fn run(plan: &PhysPlan, store: &DataStore, inputs: &[Vec<ColBatch>]) -> Vec<ColBatch> {
    run_with(plan, store, inputs, &ColumnarConfig::default())
}

fn run_with(
    plan: &PhysPlan,
    store: &DataStore,
    inputs: &[Vec<ColBatch>],
    cfg: &ColumnarConfig,
) -> Vec<ColBatch> {
    execute_columnar_batches(plan, store, inputs, cfg)
        .expect("plan executes")
        .0
}

fn sort(input: PhysPlan, key: Col) -> PhysPlan {
    PhysPlan::Sort {
        input: Box::new(input),
        keys: vec![key],
    }
}

fn bench_exec(c: &mut Criterion) {
    // The executor sizes its fan-out from `qt-par`; one worker, as qtbench.
    std::env::set_var("QT_THREADS", "1");
    let (catalog, stores, rels) = tpch_federation(&TpchSpec {
        nodes: 8,
        orders: 40_000,
        seed: 42,
        ..TpchSpec::default()
    });
    let mut all = DataStore::new();
    for s in stores.values() {
        all.merge_from(s);
    }
    let empty = DataStore::new();
    let col = |rel: RelId, attr: usize| Col::new(rel, attr);
    let lineitem = PhysPlan::Union {
        inputs: vec![scan(rels.lineitem, 0, 4), scan(rels.lineitem, 1, 4)],
    };

    // All 160 k lineitems loaded into a fresh store from a clone of the
    // federation's rows: the batch cutting `tpch_federation` pays at set-up.
    let lineitem_rows: Vec<_> = (0..2)
        .flat_map(|p| all.rows_of(PartId::new(rels.lineitem, p)).expect("loaded"))
        .collect();
    c.bench_function("datastore/load_lineitem_160k", |b| {
        b.iter(|| {
            let mut store = DataStore::new();
            store.load_relation(&catalog.dict, rels.lineitem, lineitem_rows.clone());
            std::hint::black_box(store)
        });
    });

    let half = scan(rels.lineitem, 0, 4);
    c.bench_function("scan/lineitem_80k", |b| {
        b.iter(|| std::hint::black_box(run(&half, &all, &[])));
    });
    // The row engine's scan of the same 80 k-row partition: a transposition
    // of its batches into rows.
    c.bench_function("row/scan_lineitem", |b| {
        b.iter(|| std::hint::black_box(execute(&half, &all, &[]).expect("plan executes")));
    });

    // Two seller fragments each deliver a lineitem partition and the buyer
    // assembly unions them: the hand-off from fragment output to `Input`
    // slot and nothing else (the batch entry point returns batches).
    let fragments = [scan(rels.lineitem, 0, 4), scan(rels.lineitem, 1, 4)];
    let input = |slot: usize| PhysPlan::Input {
        slot,
        schema: (0..4).map(|a| col(rels.lineitem, a)).collect(),
    };
    let assembly = PhysPlan::Union {
        inputs: vec![input(0), input(1)],
    };
    c.bench_function("fragment_to_assembly/160k", |b| {
        b.iter(|| {
            let delivered: Vec<Vec<ColBatch>> =
                fragments.iter().map(|f| run(f, &all, &[])).collect();
            std::hint::black_box(run(&assembly, &empty, &delivered))
        });
    });

    // LINES_PER_SUPPLIER_NATION's buyer join: 160 k lineitems on the build
    // side (~80 rows per key), 2 000 suppliers probing.
    let supplier_lines = hash_join(
        lineitem.clone(),
        scan(rels.supplier, 0, 3),
        col(rels.lineitem, 1),
        col(rels.supplier, 0),
    );
    c.bench_function("hash_join/build_160k", |b| {
        b.iter(|| std::hint::black_box(run(&supplier_lines, &all, &[])));
    });

    // The same rows with every suppkey times 2^32: a key range no slot array
    // may cover, so the join table hashes its keys. Delivered through input
    // slots, which hand batches over as `Scan` does.
    let spread = |batches: Vec<ColBatch>, key: usize| -> Vec<ColBatch> {
        batches
            .into_iter()
            .map(|mut b| {
                if let Column::Int { vals, validity } = &*b.cols[key] {
                    let vals = vals.iter().map(|k| k << 32).collect();
                    let validity = validity.clone();
                    b.cols[key] = Arc::new(Column::Int { vals, validity });
                }
                b
            })
            .collect()
    };
    let wide = [
        spread(run(&lineitem, &all, &[]), 1),
        spread(run(&scan(rels.supplier, 0, 3), &all, &[]), 0),
    ];
    let wide_lines = hash_join(
        input(0),
        PhysPlan::Input {
            slot: 1,
            schema: (0..3).map(|a| col(rels.supplier, a)).collect(),
        },
        col(rels.lineitem, 1),
        col(rels.supplier, 0),
    );
    c.bench_function("hash_join/wide_keys_160k", |b| {
        b.iter(|| std::hint::black_box(run(&wide_lines, &empty, &wide)));
    });

    // BIG_ORDER_LINES' join: the ~7 900 orders over 4 000.0 on the build
    // side (orderkeys spread over 40 000), probed by 160 k lineitems.
    let big_order_lines = hash_join(
        PhysPlan::Filter {
            input: Box::new(PhysPlan::Union {
                inputs: vec![scan(rels.orders, 0, 3), scan(rels.orders, 1, 3)],
            }),
            predicates: vec![Predicate::with_const(
                col(rels.orders, 2),
                CompOp::Gt,
                4000.0,
            )],
        },
        lineitem.clone(),
        col(rels.orders, 0),
        col(rels.lineitem, 0),
    );
    c.bench_function("hash_join/probe_160k", |b| {
        b.iter(|| std::hint::black_box(run(&big_order_lines, &all, &[])));
    });

    // The same join, continued to nation: 160 k rows carrying `nname`.
    let nname = col(rels.nation, 2);
    let named = run(
        &PhysPlan::Project {
            input: Box::new(hash_join(
                scan(rels.nation, 0, 3),
                supplier_lines,
                col(rels.nation, 0),
                col(rels.supplier, 1),
            )),
            cols: vec![nname],
        },
        &all,
        &[],
    );
    let by_name = PhysPlan::HashAggregate {
        input: Box::new(PhysPlan::Input {
            slot: 0,
            schema: vec![nname],
        }),
        group_by: vec![nname],
        aggs: vec![AggSpec {
            func: AggFunc::Count,
            arg: None,
        }],
    };
    let delivered = [named];
    c.bench_function("hash_agg/str_key_160k", |b| {
        b.iter(|| std::hint::black_box(run(&by_name, &empty, &delivered)));
    });

    // Two buyer assemblies as trading builds them. Seller fragments deliver
    // a fact relation's two partitions (slots 0 and 1), nation's (nationkey,
    // nname) (slot 2) and a dimension's (key, nationkey) (slot 3), each cut
    // to the columns the query names. The fact rows build the top join,
    // nation ⋈ dimension probes it, and the aggregate groups by nname, the
    // one column of the join's output it reads besides its argument.
    let fragment = |rel: RelId, part: u16, arity: usize, cols: &[usize]| {
        let project = PhysPlan::Project {
            input: Box::new(scan(rel, part, arity)),
            cols: cols.iter().map(|&a| col(rel, a)).collect(),
        };
        run(&project, &all, &[])
    };
    let slot = |slot: usize, rel: RelId, cols: &[usize]| PhysPlan::Input {
        slot,
        schema: cols.iter().map(|&a| col(rel, a)).collect(),
    };
    let assembly = |(fact, arity, cols): (RelId, usize, &[usize]), dim: RelId, agg: AggSpec| {
        let plan = PhysPlan::HashAggregate {
            input: Box::new(hash_join(
                PhysPlan::Union {
                    inputs: vec![slot(0, fact, cols), slot(1, fact, cols)],
                },
                hash_join(
                    slot(2, rels.nation, &[0, 2]),
                    slot(3, dim, &[0, 1]),
                    col(rels.nation, 0),
                    col(dim, 1),
                ),
                col(fact, cols[0]),
                col(dim, 0),
            )),
            group_by: vec![nname],
            aggs: vec![agg],
        };
        let delivered = vec![
            fragment(fact, 0, arity, cols),
            fragment(fact, 1, arity, cols),
            fragment(rels.nation, 0, 3, &[0, 2]),
            fragment(dim, 0, 3, &[0, 1]),
        ];
        (plan, delivered)
    };
    // LINES_PER_SUPPLIER_NATION: 160 k lineitem suppkeys ⋈ (nation ⋈
    // supplier), COUNT(*) by nname.
    let (lines, delivered) = assembly(
        (rels.lineitem, 4, &[1]),
        rels.supplier,
        AggSpec {
            func: AggFunc::Count,
            arg: None,
        },
    );
    c.bench_function("assembly/lines_per_supplier_nation", |b| {
        b.iter(|| std::hint::black_box(run(&lines, &empty, &delivered)));
    });
    // REVENUE_PER_NATION: 40 k orders' (custkey, ototal) ⋈ (nation ⋈
    // customer), SUM(ototal) by nname.
    let (revenue, delivered) = assembly(
        (rels.orders, 3, &[1, 2]),
        rels.customer,
        AggSpec {
            func: AggFunc::Sum,
            arg: Some(col(rels.orders, 2)),
        },
    );
    c.bench_function("assembly/revenue_per_nation", |b| {
        b.iter(|| std::hint::black_box(run(&revenue, &empty, &delivered)));
    });

    // BIG_ORDER_LINES' shape: a quarter of the lineitems (~32 k rows, ~8 k
    // distinct orders) summed per order key.
    let quarter: Vec<ColBatch> = run(&half, &all, &[])
        .into_iter()
        .step_by(2)
        .take(32)
        .collect();
    let per_order = PhysPlan::HashAggregate {
        input: Box::new(input(0)),
        group_by: vec![col(rels.lineitem, 0)],
        aggs: vec![AggSpec {
            func: AggFunc::Sum,
            arg: Some(col(rels.lineitem, 3)),
        }],
    };
    let delivered = [quarter];
    c.bench_function("hash_agg/int_key_32k", |b| {
        b.iter(|| std::hint::black_box(run(&per_order, &empty, &delivered)));
    });

    // The same aggregate over a 64 KiB budget: its ~1 MB input is written
    // to spill partitions, read back and folded one partition at a time.
    let spill = ColumnarConfig {
        mem_budget_bytes: 64 * 1024,
        ..ColumnarConfig::default()
    };
    c.bench_function("hash_agg/spill_64k", |b| {
        b.iter(|| std::hint::black_box(run_with(&per_order, &empty, &delivered, &spill)));
    });

    // BIG_ORDER_LINES' ~7 900 orders joined to that quarter of the
    // lineitems, both sides spilled under the 64 KiB budget.
    let big_orders = run(
        &PhysPlan::Filter {
            input: Box::new(PhysPlan::Union {
                inputs: vec![scan(rels.orders, 0, 3), scan(rels.orders, 1, 3)],
            }),
            predicates: vec![Predicate::with_const(
                col(rels.orders, 2),
                CompOp::Gt,
                4000.0,
            )],
        },
        &all,
        &[],
    );
    let orders_input = |slot: usize| PhysPlan::Input {
        slot,
        schema: (0..3).map(|a| col(rels.orders, a)).collect(),
    };
    let spilled_lines = hash_join(
        orders_input(0),
        input(1),
        col(rels.orders, 0),
        col(rels.lineitem, 0),
    );
    let both = [big_orders, delivered[0].clone()];
    c.bench_function("hash_join/spill_64k", |b| {
        b.iter(|| std::hint::black_box(run_with(&spilled_lines, &empty, &both, &spill)));
    });

    // Half the lineitems (80 k rows) sorted on suppkey.
    let by_supplier = sort(half.clone(), col(rels.lineitem, 1));
    c.bench_function("sort/lineitem_80k", |b| {
        b.iter(|| std::hint::black_box(run(&by_supplier, &all, &[])));
    });

    // Every order merge-joined to those 80 k lineitems, both delivered
    // sorted on orderkey.
    let sorted = [
        run(
            &sort(
                PhysPlan::Union {
                    inputs: vec![scan(rels.orders, 0, 3), scan(rels.orders, 1, 3)],
                },
                col(rels.orders, 0),
            ),
            &all,
            &[],
        ),
        run(&sort(half.clone(), col(rels.lineitem, 0)), &all, &[]),
    ];
    let merged = PhysPlan::MergeJoin {
        left: Box::new(orders_input(0)),
        right: Box::new(input(1)),
        left_keys: vec![col(rels.orders, 0)],
        right_keys: vec![col(rels.lineitem, 0)],
    };
    c.bench_function("merge_join/lineitem_80k", |b| {
        b.iter(|| std::hint::black_box(run(&merged, &empty, &sorted)));
    });

    // Every customer paired with every nation of a lower key: 36 k pairs,
    // one non-equi predicate, so the pair loop runs.
    let lower_nations = PhysPlan::NlJoin {
        left: Box::new(scan(rels.customer, 0, 3)),
        right: Box::new(scan(rels.nation, 0, 3)),
        predicates: vec![Predicate {
            left: col(rels.customer, 1),
            op: CompOp::Gt,
            right: Operand::Col(col(rels.nation, 0)),
        }],
    };
    c.bench_function("nl_join/non_equi_36k", |b| {
        b.iter(|| std::hint::black_box(run(&lower_nations, &all, &[])));
    });
}

criterion_group!(benches, bench_exec);
criterion_main!(benches);
