//! In-memory partition storage.
//!
//! A partition is held once and shared: [`DataStore::clone`],
//! [`DataStore::subset`] and [`DataStore::merge_from`] copy handles, not
//! rows, and a partition that changes afterwards is copied first
//! (copy-on-write), so no holder ever sees another's mutation. Next to its
//! rows a partition keeps the *column image* the columnar executor scans —
//! see "where columns live" in [`crate::columnar`].

use crate::columnar::{rows_to_batches, ColBatch, DEFAULT_BATCH_ROWS};
use crate::exec::RowSource;
use crate::{Row, Table};
use qt_catalog::{PartId, PartitionStats, RelId, SchemaDict};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// One partition: its rows and, once a columnar scan asked for it, the same
/// rows as column batches. Immutable while shared.
#[derive(Debug, Default)]
struct Partition {
    rows: Table,
    image: OnceLock<Vec<ColBatch>>,
}

impl Partition {
    fn of(rows: Table) -> Arc<Partition> {
        Arc::new(Partition {
            rows,
            image: OnceLock::new(),
        })
    }

    /// The rows of a partition that is about to change: unshares it and
    /// drops the image, which the next scan rebuilds from the new rows.
    fn rows_mut(this: &mut Arc<Partition>) -> &mut Table {
        if Arc::get_mut(this).is_none() {
            *this = Partition::of(this.rows.clone());
        }
        let part = Arc::get_mut(this).expect("unshared above");
        part.image = OnceLock::new();
        &mut part.rows
    }
}

/// One node's materialized partitions.
#[derive(Debug, Clone, Default)]
pub struct DataStore {
    partitions: BTreeMap<PartId, Arc<Partition>>,
}

impl DataStore {
    /// An empty store.
    pub fn new() -> Self {
        DataStore::default()
    }

    /// Insert (replacing) the rows of `part`.
    pub fn insert(&mut self, part: PartId, rows: Table) {
        self.partitions.insert(part, Partition::of(rows));
    }

    /// Load a whole relation's rows, routing each row to its partition via
    /// the dictionary's partitioning scheme. Rows matching no partition
    /// (list partitioning gaps) are dropped and counted in the return value.
    pub fn load_relation(&mut self, dict: &SchemaDict, rel: RelId, rows: Table) -> usize {
        self.load_relation_iter(dict, rel, rows.into_iter())
    }

    /// Like [`DataStore::load_relation`], but consumes rows from an iterator
    /// so large generated relations stream straight into their partitions
    /// without ever being materialized as one contiguous table.
    pub fn load_relation_iter(
        &mut self,
        dict: &SchemaDict,
        rel: RelId,
        rows: impl Iterator<Item = Row>,
    ) -> usize {
        let scheme = &dict.rel(rel).partitioning;
        let mut dropped = 0;
        for row in rows {
            match scheme.partition_of(&row) {
                Some(idx) => {
                    let part = self.partitions.entry(PartId::new(rel, idx)).or_default();
                    Partition::rows_mut(part).push(row);
                }
                None => dropped += 1,
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

    /// Exact statistics of a stored partition, computed from its rows.
    pub fn stats_of(&self, dict: &SchemaDict, part: PartId) -> Option<PartitionStats> {
        let rows = self.rows_of(part)?;
        let arity = dict.rel(part.rel).schema.arity();
        Some(PartitionStats::from_rows(arity, rows))
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
    /// the merged partitions are shared with `other`, images included).
    pub fn merge_from(&mut self, other: &DataStore) {
        for (p, t) in &other.partitions {
            self.partitions.insert(*p, t.clone());
        }
    }

    /// Total stored rows.
    pub fn total_rows(&self) -> usize {
        self.partitions.values().map(|p| p.rows.len()).sum()
    }
}

impl RowSource for DataStore {
    fn rows_of(&self, part: PartId) -> Option<&[Row]> {
        self.partitions.get(&part).map(|p| p.rows.as_slice())
    }

    /// Built by the first scan of `part` and resident from then on, cut at
    /// [`DEFAULT_BATCH_ROWS`] whatever batch size the asking plan runs at.
    fn image_of(&self, part: PartId) -> Option<&[ColBatch]> {
        let p = self.partitions.get(&part)?;
        let image = p.image.get_or_init(|| {
            let width = p.rows.first().map_or(0, Vec::len);
            rows_to_batches(&p.rows, width, DEFAULT_BATCH_ROWS)
        });
        Some(image)
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

    /// Columnar scan of `part` (reads the image); must equal the rows.
    fn scanned(store: &DataStore, part: PartId) -> Table {
        let plan = crate::PhysPlan::Scan { part, arity: 2 };
        let cfg = crate::ColumnarConfig::default();
        let got = crate::execute_columnar(&plan, store, &[], &cfg).unwrap();
        assert_eq!(got, store.rows_of(part).unwrap(), "image mirrors the rows");
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

        // Copies taken now share the partition and its (built) image.
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
