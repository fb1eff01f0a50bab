//! In-memory partition storage.
//!
//! A partition is stored once, as column batches cut exactly as
//! [`rows_to_batches`] cuts its rows at [`DEFAULT_BATCH_ROWS`], each batch
//! with its own string dictionaries in first-seen order. The columnar
//! `Scan` shares them ([`DataStore::batches_of`]); the row engine and the
//! brute-force evaluator read them transposed ([`DataStore::rows_of`]).
//! [`DataStore::clone`], [`DataStore::subset`] and [`DataStore::merge_from`]
//! copy handles, not batches, and a load appending to a shared partition
//! copies it first, so no holder ever sees another's mutation.

use crate::columnar::{
    batches_rows, batches_to_rows, rows_to_batches, ColBatch, DEFAULT_BATCH_ROWS,
};
use crate::{Row, Table};
use qt_catalog::{ColumnStats, PartId, PartitionStats, RelId, SchemaDict};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One node's materialized partitions.
#[derive(Debug, Clone, Default)]
pub struct DataStore {
    partitions: BTreeMap<PartId, Arc<Vec<ColBatch>>>,
}

/// The buffer a load collects a partition's next rows in: empty, or the
/// partition's last batch transposed back into rows when it is short, so
/// that cut again with the appended rows the batches come out as if all
/// rows had been cut at once.
fn reopen(batches: &mut Arc<Vec<ColBatch>>) -> Vec<Row> {
    match batches.last() {
        Some(last) if last.len < DEFAULT_BATCH_ROWS => {
            let last = Arc::make_mut(batches).pop().expect("a last batch");
            batches_to_rows(std::slice::from_ref(&last))
        }
        _ => Vec::new(),
    }
}

/// Append `rows` to `batches` cut at [`DEFAULT_BATCH_ROWS`], as wide as the
/// partition's first row.
fn seal(batches: &mut Arc<Vec<ColBatch>>, rows: &mut Vec<Row>) {
    let width = batches.first().map_or(rows[0].len(), |b| b.cols.len());
    Arc::make_mut(batches).extend(rows_to_batches(rows, width, DEFAULT_BATCH_ROWS));
    rows.clear();
}

impl DataStore {
    /// An empty store.
    pub fn new() -> Self {
        DataStore::default()
    }

    /// Insert (replacing) the rows of `part`.
    pub fn insert(&mut self, part: PartId, rows: Table) {
        let width = rows.first().map_or(0, Vec::len);
        let batches = rows_to_batches(&rows, width, DEFAULT_BATCH_ROWS);
        self.partitions.insert(part, Arc::new(batches));
    }

    /// Load a whole relation's rows, routing each row to its partition via
    /// the dictionary's partitioning scheme. Rows matching no partition
    /// (list partitioning gaps) are dropped and counted in the return value.
    pub fn load_relation(&mut self, dict: &SchemaDict, rel: RelId, rows: Table) -> usize {
        // The rows are all held already: each partition is cut once every
        // row is routed, so its batches are allocated together rather than
        // into the gaps that rows freed batch by batch leave behind. Over
        // such scattered batches `answer_tpch`'s lineitem probe ran ≈ 5–10 %
        // slower (2-core x86-64, glibc malloc).
        self.load(dict, rel, rows.into_iter(), usize::MAX)
    }

    /// Like [`DataStore::load_relation`], but consumes rows from an iterator
    /// so large generated relations stream straight into their partitions,
    /// holding at most one batch of rows per partition at a time.
    pub fn load_relation_iter(
        &mut self,
        dict: &SchemaDict,
        rel: RelId,
        rows: impl Iterator<Item = Row>,
    ) -> usize {
        self.load(dict, rel, rows, DEFAULT_BATCH_ROWS)
    }

    /// Route `rows` to their partitions, cutting a partition's buffered
    /// rows into batches whenever `cut_at` of them are waiting, and the
    /// rest at the end.
    fn load(
        &mut self,
        dict: &SchemaDict,
        rel: RelId,
        rows: impl Iterator<Item = Row>,
        cut_at: usize,
    ) -> usize {
        let scheme = &dict.rel(rel).partitioning;
        let mut pending: BTreeMap<PartId, Vec<Row>> = BTreeMap::new();
        let mut dropped = 0;
        for row in rows {
            let Some(idx) = scheme.partition_of(&row) else {
                dropped += 1;
                continue;
            };
            let part = PartId::new(rel, idx);
            let batches = self.partitions.entry(part).or_default();
            let buf = pending.entry(part).or_insert_with(|| reopen(batches));
            buf.push(row);
            if buf.len() == cut_at {
                seal(batches, buf);
            }
        }
        for (part, mut buf) in pending {
            if !buf.is_empty() {
                seal(self.partitions.get_mut(&part).expect("routed"), &mut buf);
            }
        }
        // Make sure every partition exists, even if empty.
        for part in dict.parts_of(rel) {
            self.partitions.entry(part).or_default();
        }
        dropped
    }

    /// All stored partitions.
    pub fn parts(&self) -> impl Iterator<Item = PartId> + '_ {
        self.partitions.keys().copied()
    }

    /// The batches of `part`, as the columnar `Scan` shares them.
    pub fn batches_of(&self, part: PartId) -> Option<&[ColBatch]> {
        self.partitions.get(&part).map(|b| b.as_slice())
    }

    /// The rows of `part`, transposed from its batches: what the row
    /// engine's `Scan` and the brute-force evaluator read.
    pub fn rows_of(&self, part: PartId) -> Option<Table> {
        self.batches_of(part).map(batches_to_rows)
    }

    /// Exact statistics of a stored partition, computed from its columns.
    pub fn stats_of(&self, dict: &SchemaDict, part: PartId) -> Option<PartitionStats> {
        let batches = self.batches_of(part)?;
        let arity = dict.rel(part.rel).schema.arity();
        let column = |c: usize| {
            ColumnStats::from_values(
                batches
                    .iter()
                    .flat_map(move |b| (0..b.len).map(move |i| b.value_at(c, i))),
            )
        };
        Some(PartitionStats {
            rows: batches_rows(batches) as u64,
            cols: (0..arity).map(column).collect(),
        })
    }

    /// A new store sharing the selected partitions (replica creation).
    pub fn subset(&self, parts: &[PartId]) -> DataStore {
        DataStore {
            partitions: parts
                .iter()
                .filter_map(|p| self.partitions.get(p).map(|t| (*p, t.clone())))
                .collect(),
        }
    }

    /// Merge another store into this one (replacing overlapping partitions;
    /// the merged partitions are shared with `other`).
    pub fn merge_from(&mut self, other: &DataStore) {
        for (p, t) in &other.partitions {
            self.partitions.insert(*p, t.clone());
        }
    }

    /// Total stored rows.
    pub fn total_rows(&self) -> usize {
        self.partitions.values().map(|p| batches_rows(p)).sum()
    }
}

/// A store holding each `(part, rows)` as [`DataStore::insert`] would.
impl FromIterator<(PartId, Table)> for DataStore {
    fn from_iter<I: IntoIterator<Item = (PartId, Table)>>(parts: I) -> Self {
        let mut store = DataStore::new();
        for (part, rows) in parts {
            store.insert(part, rows);
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_catalog::{AttrType, CatalogBuilder, NodeId, Partitioning, RelationSchema, Value};

    fn dict() -> std::sync::Arc<SchemaDict> {
        let mut b = CatalogBuilder::new();
        let r = b.add_relation(
            RelationSchema::new("r", vec![("a", AttrType::Int), ("grp", AttrType::Str)]),
            Partitioning::List {
                attr: 1,
                groups: vec![vec![Value::str("x")], vec![Value::str("y")]],
            },
        );
        b.set_stats(PartId::new(r, 0), PartitionStats::synthetic(1, &[1, 1]));
        b.set_stats(PartId::new(r, 1), PartitionStats::synthetic(1, &[1, 1]));
        b.place(PartId::new(r, 0), NodeId(0));
        b.place(PartId::new(r, 1), NodeId(0));
        b.build().dict
    }

    #[test]
    fn load_relation_routes_rows() {
        let d = dict();
        let mut store = DataStore::new();
        let dropped = store.load_relation(
            &d,
            RelId(0),
            vec![
                vec![Value::Int(1), Value::str("x")],
                vec![Value::Int(2), Value::str("y")],
                vec![Value::Int(3), Value::str("zzz")], // no partition
            ],
        );
        assert_eq!(dropped, 1);
        assert_eq!(store.rows_of(PartId::new(RelId(0), 0)).unwrap().len(), 1);
        assert_eq!(store.rows_of(PartId::new(RelId(0), 1)).unwrap().len(), 1);
        assert_eq!(store.total_rows(), 2);
    }

    #[test]
    fn stats_reflect_data() {
        let d = dict();
        let mut store = DataStore::new();
        store.load_relation(
            &d,
            RelId(0),
            vec![
                vec![Value::Int(5), Value::str("x")],
                vec![Value::Int(9), Value::str("x")],
            ],
        );
        let s = store.stats_of(&d, PartId::new(RelId(0), 0)).unwrap();
        assert_eq!(s.rows, 2);
        assert_eq!(s.cols[0].min, Some(Value::Int(5)));
        assert_eq!(s.cols[0].max, Some(Value::Int(9)));
    }

    #[test]
    fn subset_and_merge() {
        let d = dict();
        let mut store = DataStore::new();
        store.load_relation(
            &d,
            RelId(0),
            vec![
                vec![Value::Int(1), Value::str("x")],
                vec![Value::Int(2), Value::str("y")],
            ],
        );
        let replica = store.subset(&[PartId::new(RelId(0), 1)]);
        assert_eq!(replica.total_rows(), 1);
        let mut other = DataStore::new();
        other.merge_from(&replica);
        assert!(other.rows_of(PartId::new(RelId(0), 1)).is_some());
        assert!(other.rows_of(PartId::new(RelId(0), 0)).is_none());
    }

    /// Columnar scan of `part` (shares its batches); must equal the row
    /// engine's scan (reads them transposed).
    fn scanned(store: &DataStore, part: PartId) -> Table {
        let plan = crate::PhysPlan::Scan { part, arity: 2 };
        let cfg = crate::ColumnarConfig::default();
        let (got, _) = crate::execute_columnar_with_stats(&plan, store, &[], &cfg).unwrap();
        assert_eq!(got, crate::execute(&plan, store, &[]).unwrap());
        got
    }

    #[test]
    fn mutation_replaces_the_image_and_spares_earlier_copies() {
        let d = dict();
        let (x, y) = (PartId::new(RelId(0), 0), PartId::new(RelId(0), 1));
        let row = |a: i64, g: &str| vec![Value::Int(a), Value::str(g)];
        let mut store = DataStore::new();
        store.load_relation(&d, RelId(0), vec![row(1, "x"), row(2, "y")]);
        assert_eq!(scanned(&store, x), vec![row(1, "x")]);

        // Copies taken now share the partition's batches.
        let clone = store.clone();
        let replica = store.subset(&[x]);

        store.load_relation(&d, RelId(0), vec![row(3, "x")]);
        assert_eq!(scanned(&store, x), vec![row(1, "x"), row(3, "x")]);
        assert_eq!(scanned(&store, y), vec![row(2, "y")], "untouched partition");
        store.insert(x, vec![row(4, "x")]);
        assert_eq!(scanned(&store, x), vec![row(4, "x")]);
        let mut other = DataStore::new();
        other.insert(x, vec![row(5, "x"), row(6, "x")]);
        store.merge_from(&other);
        assert_eq!(scanned(&store, x), vec![row(5, "x"), row(6, "x")]);

        assert_eq!(scanned(&clone, x), vec![row(1, "x")]);
        assert_eq!(scanned(&replica, x), vec![row(1, "x")]);
        assert_eq!(clone.total_rows(), 2);
    }
}
