//! Property-based round trip through `DataStore`: whatever is loaded comes
//! back out of every engine bit for bit. A relation of width 0–4, split
//! over 1–3 hash partitions (one when it has no column to hash), is loaded
//! in 1–3 calls of `load_relation` or the streaming `load_relation_iter`,
//! with one `insert` placed before, between or after them; the insert replaces a loaded partition or adds one the
//! scheme does not route to. Cells come from all four `Value` variants
//! and their edges (`-0.0`, NaN, `i64::MIN`/`MAX`, `""`), columns are
//! typed, all-NULL or mixed, and loads are sized to end short of, on and
//! past the 1024-row batch boundary, so an append often lands on a short
//! last batch. For every partition:
//!
//! * the row engine's `Scan` returns the loaded rows;
//! * the columnar `Scan` returns them at batch sizes {1, 7, 1024};
//! * the stored batches equal `rows_to_batches(rows, width, 1024)` batch by
//!   batch — lengths, column types, values, validity and each batch's own
//!   dictionary in first-seen order;
//! * `stats_of` equals `PartitionStats::from_rows` on the rows.

use proptest::prelude::*;
use qt_catalog::{
    AttrType, CatalogBuilder, ColumnStats, NodeId, PartId, PartitionStats, Partitioning, RelId,
    RelationSchema, SchemaDict, Value,
};
use qt_exec::{
    execute, execute_columnar_with_stats, rows_to_batches, ColBatch, Column, ColumnarConfig,
    DataStore, PhysPlan, Table, DEFAULT_BATCH_ROWS,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

const REL: RelId = RelId(0);

/// One relation of `width` columns in `parts` partitions: hashed on column 0,
/// or a single partition when there is no column to hash.
fn dict(width: usize, parts: u32) -> Arc<SchemaDict> {
    let names: Vec<String> = (0..width).map(|c| format!("c{c}")).collect();
    let attrs = names.iter().map(|n| (n.as_str(), AttrType::Int)).collect();
    let scheme = if width == 0 {
        Partitioning::Single
    } else {
        Partitioning::Hash { attr: 0, parts }
    };
    let mut b = CatalogBuilder::new();
    let rel = b.add_relation(RelationSchema::new("r", attrs), scheme.clone());
    for p in 0..scheme.num_partitions() {
        b.set_stats(
            PartId::new(rel, p),
            PartitionStats::synthetic(1, &vec![1; width]),
        );
        b.place(PartId::new(rel, p), NodeId(0));
    }
    b.build().dict
}

/// How a column's cells are drawn: typed (with NULLs), all NULL, or mixed.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Int,
    Float,
    Str,
    Null,
    Mixed,
}

fn cell(rng: &mut SmallRng, kind: Kind) -> Value {
    let kind = match kind {
        Kind::Mixed => [Kind::Int, Kind::Float, Kind::Str, Kind::Null][rng.random_range(0..4usize)],
        k => k,
    };
    if !matches!(kind, Kind::Null) && rng.random_range(0..8u8) == 0 {
        return Value::Null;
    }
    match kind {
        Kind::Int => Value::Int([0, 1, -1, 7, i64::MIN, i64::MAX][rng.random_range(0..6usize)]),
        Kind::Float => Value::Float(
            [0.0, -0.0, f64::NAN, 1.5, -2.25, f64::INFINITY][rng.random_range(0..6usize)],
        ),
        Kind::Str => Value::str(["", "a", "bc", "a "][rng.random_range(0..4usize)]),
        _ => Value::Null,
    }
}

fn rows(rng: &mut SmallRng, kinds: &[Kind], n: usize) -> Table {
    (0..n)
        .map(|_| kinds.iter().map(|&k| cell(rng, k)).collect())
        .collect()
}

/// Row counts short of, on and past a batch boundary, and small ones.
fn load_size() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..5, 1018usize..1030, 0usize..2100]
}

/// What is loaded: the relation's shape, each load's size and whether it
/// streams, and where the insert goes (`at` loads precede it; `target` may
/// name a new partition).
#[derive(Debug, Clone)]
struct Case {
    width: usize,
    parts: u32,
    kinds: u32,
    seed: u64,
    loads: Vec<(usize, bool)>,
    insert_rows: usize,
    at: usize,
    target: u16,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (0usize..5, 1u32..4, 0u32..3125, 0u64..1 << 32),
        prop::collection::vec((load_size(), any::<bool>()), 1..4),
        (load_size(), 0usize..4, 0u16..4),
    )
        .prop_map(
            |((width, parts, kinds, seed), loads, (insert_rows, at, target))| Case {
                width,
                parts,
                kinds,
                seed,
                at: at.min(loads.len()),
                target: target.min(parts as u16),
                loads,
                insert_rows,
            },
        )
}

/// Bit-for-bit equality of two batches, a string column's dictionary
/// included (floats by their bits: NaN equals only the same NaN).
fn same_batch(a: &ColBatch, b: &ColBatch) -> bool {
    let floats = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.len == b.len
        && a.cols.len() == b.cols.len()
        && a.cols.iter().zip(&b.cols).all(|(x, y)| match (&**x, &**y) {
            (
                Column::Int { vals, validity },
                Column::Int {
                    vals: v2,
                    validity: m2,
                },
            ) => vals == v2 && validity == m2,
            (
                Column::Float { vals, validity },
                Column::Float {
                    vals: v2,
                    validity: m2,
                },
            ) => floats(vals, v2) && validity == m2,
            (
                Column::Str {
                    dict,
                    codes,
                    validity,
                },
                Column::Str {
                    dict: d2,
                    codes: c2,
                    validity: m2,
                },
            ) => dict[..] == d2[..] && codes == c2 && validity == m2,
            (Column::Mixed(v), Column::Mixed(v2)) => v == v2,
            _ => false,
        })
}

/// Equality of two column statistics, histogram bounds by their bits.
fn same_col_stats(a: &ColumnStats, b: &ColumnStats) -> bool {
    let hist = match (&a.histogram, &b.histogram) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            x.counts == y.counts
                && x.bounds.len() == y.bounds.len()
                && x.bounds
                    .iter()
                    .zip(&y.bounds)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        }
        _ => false,
    };
    a.ndv == b.ndv && a.min == b.min && a.max == b.max && a.avg_width == b.avg_width && hist
}

proptest! {
    #[test]
    fn every_engine_reads_back_what_was_loaded(case in case_strategy()) {
        let Case { width, parts, kinds, seed, ref loads, insert_rows, at, target } = case;
        let d = dict(width, parts);
        let kinds: Vec<Kind> = (0..width)
            .map(|c| [Kind::Int, Kind::Float, Kind::Str, Kind::Null, Kind::Mixed]
                [(kinds / 5u32.pow(c as u32) % 5) as usize])
            .collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        let scheme = &d.rel(REL).partitioning;
        let mut store = DataStore::new();
        let mut want: BTreeMap<PartId, Table> = BTreeMap::new();
        let insert = |store: &mut DataStore, want: &mut BTreeMap<PartId, Table>, rng: &mut SmallRng| {
            let rows = rows(rng, &kinds, insert_rows);
            let part = PartId::new(REL, target);
            store.insert(part, rows.clone());
            want.insert(part, rows);
        };
        for (i, &(n, streamed)) in loads.iter().enumerate() {
            if i == at {
                insert(&mut store, &mut want, &mut rng);
            }
            let batch = rows(&mut rng, &kinds, n);
            for p in d.parts_of(REL) {
                want.entry(p).or_default();
            }
            for row in &batch {
                let p = PartId::new(REL, scheme.partition_of(row).expect("hash routes every row"));
                want.get_mut(&p).unwrap().push(row.clone());
            }
            let dropped = if streamed {
                store.load_relation_iter(&d, REL, batch.into_iter())
            } else {
                store.load_relation(&d, REL, batch)
            };
            prop_assert_eq!(dropped, 0);
        }
        if at == loads.len() {
            insert(&mut store, &mut want, &mut rng);
        }

        prop_assert_eq!(store.parts().collect::<Vec<_>>(), want.keys().copied().collect::<Vec<_>>());
        prop_assert_eq!(store.total_rows(), want.values().map(Vec::len).sum::<usize>());
        for (&part, rows) in &want {
            let scan = PhysPlan::Scan { part, arity: width };
            prop_assert_eq!(&execute(&scan, &store, &[]).unwrap(), rows, "row scan of {}", part);
            for batch_rows in [1, 7, DEFAULT_BATCH_ROWS] {
                let cfg = ColumnarConfig { batch_rows, ..ColumnarConfig::default() };
                let (got, _) = execute_columnar_with_stats(&scan, &store, &[], &cfg).unwrap();
                prop_assert_eq!(&got, rows, "columnar scan of {} at {}", part, batch_rows);
            }
            let stored = store.batches_of(part).expect("stored partition");
            let cut = rows_to_batches(rows, width, DEFAULT_BATCH_ROWS);
            prop_assert_eq!(stored.len(), cut.len(), "batches of {}", part);
            for (i, (s, c)) in stored.iter().zip(&cut).enumerate() {
                prop_assert!(same_batch(s, c), "batch {} of {}: {:?} vs {:?}", i, part, s, c);
            }
            let stats = store.stats_of(&d, part).expect("stored partition");
            let from_rows = PartitionStats::from_rows(width, rows);
            prop_assert_eq!(stats.rows, from_rows.rows);
            prop_assert_eq!(stats.cols.len(), from_rows.cols.len());
            for (s, r) in stats.cols.iter().zip(&from_rows.cols) {
                prop_assert!(same_col_stats(s, r), "stats of {}: {:?} vs {:?}", part, s, r);
            }
        }
    }
}
