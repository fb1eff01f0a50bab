//! Synthetic federation generation.

use qt_catalog::{
    AttrType, Catalog, CatalogBuilder, NodeId, PartId, PartitionStats, Partitioning, RelId,
    RelationSchema, Value,
};
use qt_exec::DataStore;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Parameters of a synthetic federation.
#[derive(Debug, Clone)]
pub struct FederationSpec {
    /// Number of nodes.
    pub nodes: u32,
    /// Number of base relations.
    pub relations: usize,
    /// Horizontal partitions per relation (hash on the join attribute).
    pub partitions_per_relation: u16,
    /// Replicas per partition (>= 1), placed on distinct nodes when possible.
    pub replication: u32,
    /// Rows per partition (statistics; and data when materialized).
    pub rows_per_partition: u64,
    /// Dataset scale multiplier applied on top of `rows_per_partition`.
    /// Benchmarks use 100–1000 to stress the columnar executor; rows are
    /// generated by seeded streams ([`row_stream`]) and routed straight into
    /// partitions, so the full relation is never materialized in one table.
    pub scale: u64,
    /// RNG seed — everything (placement, stats skew, data) derives from it.
    pub seed: u64,
    /// Materialize actual rows (keep `rows_per_partition` small if set).
    pub with_data: bool,
    /// Node speed heterogeneity: node speeds are drawn log-uniformly from
    /// `[1/spread, spread]`. `1.0` = homogeneous reference nodes.
    pub speed_spread: f64,
    /// Skew of the `b` column (materialized data only): `0.0` = uniform over
    /// `0..100`; larger values concentrate mass on small `b` via
    /// `b = 100 · u^(1+skew)` for uniform `u` — range filters then have
    /// wildly non-uniform selectivity, which is what histograms are for.
    pub data_skew: f64,
}

impl Default for FederationSpec {
    fn default() -> Self {
        FederationSpec {
            nodes: 8,
            relations: 3,
            partitions_per_relation: 2,
            replication: 1,
            rows_per_partition: 100_000,
            scale: 1,
            seed: 42,
            with_data: false,
            speed_spread: 1.0,
            data_skew: 0.0,
        }
    }
}

/// A generated federation.
#[derive(Debug)]
pub struct Federation {
    /// Global catalog (hand only to baselines and the harness).
    pub catalog: Catalog,
    /// Per-node stores when `with_data` was set.
    pub stores: BTreeMap<NodeId, DataStore>,
    /// Per-node resources (heterogeneous when `speed_spread > 1`).
    pub resources: BTreeMap<NodeId, qt_cost::NodeResources>,
}

impl Federation {
    /// One store with every partition (for reference evaluation).
    pub fn union_store(&self) -> DataStore {
        let mut all = DataStore::new();
        for s in self.stores.values() {
            all.merge_from(s);
        }
        all
    }
}

/// Rows per partition after applying the dataset scale multiplier.
fn scaled_rows_per_partition(spec: &FederationSpec) -> u64 {
    spec.rows_per_partition * spec.scale.max(1)
}

/// Rows of relation `i` across all partitions: relations get progressively
/// smaller (fact → dimensions), a common federated shape.
fn relation_rows(spec: &FederationSpec, rel_index: usize) -> u64 {
    let per_part =
        (scaled_rows_per_partition(spec) as f64 / (1.0 + rel_index as f64 * 0.5)).ceil() as u64;
    per_part * spec.partitions_per_relation as u64
}

/// Shared join-key domain so chains/stars have plausible selectivity.
fn key_domain(spec: &FederationSpec) -> u64 {
    (scaled_rows_per_partition(spec) * spec.partitions_per_relation as u64 / 2).max(10)
}

/// A seeded, streaming row generator for one relation of a federation.
/// Yields exactly `relation_rows` rows, one at a time — scaled datasets
/// are consumed partition-by-partition and never fully materialized. Each
/// relation gets its own seed derived from `(spec.seed, rel_index)`, so
/// streams are independently reproducible.
pub struct RowStream {
    rng: SmallRng,
    remaining: u64,
    key_domain: i64,
    data_skew: f64,
}

impl RowStream {
    /// Rows left to yield.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl Iterator for RowStream {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Vec<Value>> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let b = if self.data_skew > 0.0 {
            let u: f64 = self.rng.random_range(0.0..1.0);
            (100.0 * u.powf(1.0 + self.data_skew)) as i64
        } else {
            self.rng.random_range(0..100)
        };
        Some(vec![
            Value::Int(self.rng.random_range(0..self.key_domain)),
            Value::Int(b),
            Value::Int(self.rng.random_range(0..1_000_000)),
        ])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

/// The seeded row stream for relation `rel_index` of `spec`.
pub fn row_stream(spec: &FederationSpec, rel_index: usize) -> RowStream {
    // Golden-ratio mix decorrelates per-relation seeds.
    let seed = spec
        .seed
        .wrapping_add((rel_index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    RowStream {
        rng: SmallRng::seed_from_u64(seed),
        remaining: relation_rows(spec, rel_index),
        key_domain: key_domain(spec) as i64,
        data_skew: spec.data_skew,
    }
}

/// Relation `i` is `r{i}(a, b, c)`: `a` is the shared join attribute (hash
/// partitioning key), `b` a medium-cardinality attribute, `c` a payload.
pub fn build_federation(spec: &FederationSpec) -> Federation {
    assert!(spec.nodes >= 1 && spec.relations >= 1 && spec.replication >= 1);
    assert!(spec.speed_spread >= 1.0, "speed_spread must be >= 1");
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut b = CatalogBuilder::new();
    b.add_nodes(spec.nodes);

    let resources: BTreeMap<NodeId, qt_cost::NodeResources> = (0..spec.nodes)
        .map(|n| {
            let s = if spec.speed_spread > 1.0 {
                let ln = rng.random_range(-spec.speed_spread.ln()..spec.speed_spread.ln());
                ln.exp()
            } else {
                1.0
            };
            (NodeId(n), qt_cost::NodeResources::uniform(s))
        })
        .collect();

    let mut rels: Vec<RelId> = Vec::new();
    for i in 0..spec.relations {
        let rel = b.add_relation(
            RelationSchema::new(
                format!("r{i}"),
                vec![
                    ("a", AttrType::Int),
                    ("b", AttrType::Int),
                    ("c", AttrType::Int),
                ],
            ),
            if spec.partitions_per_relation <= 1 {
                Partitioning::Single
            } else {
                Partitioning::Hash {
                    attr: 0,
                    parts: spec.partitions_per_relation as u32,
                }
            },
        );
        rels.push(rel);
    }

    let key_domain = key_domain(spec);

    let mut loader = DataStore::new();
    let mut dict_for_loading: Option<std::sync::Arc<qt_catalog::SchemaDict>> = None;
    if spec.with_data {
        // Build a probe dict identical to the final one for routing rows.
        let mut pb = CatalogBuilder::new();
        for i in 0..spec.relations {
            pb.add_relation(
                RelationSchema::new(
                    format!("r{i}"),
                    vec![
                        ("a", AttrType::Int),
                        ("b", AttrType::Int),
                        ("c", AttrType::Int),
                    ],
                ),
                if spec.partitions_per_relation <= 1 {
                    Partitioning::Single
                } else {
                    Partitioning::Hash {
                        attr: 0,
                        parts: spec.partitions_per_relation as u32,
                    }
                },
            );
            for p in 0..spec.partitions_per_relation {
                pb.set_stats(
                    PartId::new(RelId(i as u32), p),
                    PartitionStats::synthetic(1, &[1, 1, 1]),
                );
                pb.place(PartId::new(RelId(i as u32), p), NodeId(0));
            }
        }
        dict_for_loading = Some(pb.build().dict);
    }

    for (i, &rel) in rels.iter().enumerate() {
        if spec.with_data {
            let dict = dict_for_loading.as_ref().expect("probe dict");
            // Stream rows straight into their partitions: the relation is
            // never held as one contiguous table, so 100–1000x scales cost
            // only the partitioned storage itself.
            loader.load_relation_iter(dict, rel, row_stream(spec, i));
            for p in 0..spec.partitions_per_relation {
                let part = PartId::new(rel, p);
                b.set_stats(part, loader.stats_of(dict, part).expect("loaded"));
            }
        } else {
            let rel_rows = relation_rows(spec, i) / spec.partitions_per_relation as u64;
            for p in 0..spec.partitions_per_relation {
                // Mild jitter so replicas/partitions are not identical.
                let jitter = rng.random_range(80..120) as u64;
                let rows = (rel_rows * jitter / 100).max(1);
                b.set_stats(
                    PartId::new(rel, p),
                    PartitionStats::synthetic(rows, &[key_domain.min(rows), 100, rows]),
                );
            }
        }
    }

    // Placement: each partition gets `replication` replicas on distinct
    // random nodes.
    let mut stores: BTreeMap<NodeId, DataStore> = BTreeMap::new();
    for &rel in &rels {
        for p in 0..spec.partitions_per_relation {
            let part = PartId::new(rel, p);
            let mut holders: Vec<u32> = Vec::new();
            while holders.len() < spec.replication.min(spec.nodes) as usize {
                let n = rng.random_range(0..spec.nodes);
                if !holders.contains(&n) {
                    holders.push(n);
                }
            }
            for &h in &holders {
                b.place(part, NodeId(h));
                if spec.with_data {
                    stores
                        .entry(NodeId(h))
                        .or_default()
                        .merge_from(&loader.subset(&[part]));
                }
            }
        }
    }

    Federation {
        catalog: b.build(),
        stores,
        resources,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_exec::RowSource;

    #[test]
    fn default_federation_is_consistent() {
        let f = build_federation(&FederationSpec::default());
        assert_eq!(f.catalog.nodes.len(), 8);
        assert_eq!(f.catalog.dict.relations.len(), 3);
        for rel in f.catalog.dict.rel_ids() {
            for part in f.catalog.dict.parts_of(rel) {
                assert!(!f.catalog.placement.holders(part).is_empty());
                assert!(f.catalog.stats(part).rows > 0);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = FederationSpec {
            seed: 7,
            ..FederationSpec::default()
        };
        let a = build_federation(&spec);
        let b = build_federation(&spec);
        assert_eq!(a.catalog.placement, b.catalog.placement);
        for rel in a.catalog.dict.rel_ids() {
            for part in a.catalog.dict.parts_of(rel) {
                assert_eq!(a.catalog.stats(part), b.catalog.stats(part));
            }
        }
    }

    #[test]
    fn replication_places_distinct_nodes() {
        let spec = FederationSpec {
            replication: 3,
            nodes: 5,
            ..FederationSpec::default()
        };
        let f = build_federation(&spec);
        for rel in f.catalog.dict.rel_ids() {
            for part in f.catalog.dict.parts_of(rel) {
                let holders = f.catalog.placement.holders(part);
                assert_eq!(holders.len(), 3);
                let mut h = holders.to_vec();
                h.dedup();
                assert_eq!(h.len(), 3);
            }
        }
    }

    #[test]
    fn replication_capped_by_node_count() {
        let spec = FederationSpec {
            replication: 10,
            nodes: 2,
            ..FederationSpec::default()
        };
        let f = build_federation(&spec);
        let part = PartId::new(RelId(0), 0);
        assert_eq!(f.catalog.placement.holders(part).len(), 2);
    }

    #[test]
    fn row_streams_are_seeded_and_sized() {
        let spec = FederationSpec {
            rows_per_partition: 40,
            scale: 25,
            seed: 9,
            data_skew: 1.5,
            ..FederationSpec::default()
        };
        // Exactly relation_rows rows, deterministically.
        let a: Vec<_> = row_stream(&spec, 0).collect();
        let b: Vec<_> = row_stream(&spec, 0).collect();
        assert_eq!(a.len() as u64, relation_rows(&spec, 0));
        assert_eq!(a, b);
        // Scale multiplies the dataset 25x.
        assert_eq!(
            relation_rows(&spec, 0),
            relation_rows(
                &FederationSpec {
                    scale: 1,
                    ..spec.clone()
                },
                0
            ) * 25
        );
        // Different relations draw from decorrelated streams.
        let c: Vec<_> = row_stream(&spec, 1).collect();
        assert_ne!(a[..c.len().min(a.len())], c[..c.len().min(a.len())]);
    }

    #[test]
    fn scaled_federation_loads_streamed_rows() {
        let spec = FederationSpec {
            with_data: true,
            rows_per_partition: 20,
            scale: 10,
            nodes: 3,
            ..FederationSpec::default()
        };
        let f = build_federation(&spec);
        let all = f.union_store();
        for (i, rel) in f.catalog.dict.rel_ids().enumerate() {
            let total: usize = f
                .catalog
                .dict
                .parts_of(rel)
                .map(|p| all.rows_of(p).map(|r| r.len()).unwrap_or(0))
                .sum();
            assert_eq!(total as u64, relation_rows(&spec, i));
        }
    }

    #[test]
    fn materialized_data_matches_stats() {
        let spec = FederationSpec {
            with_data: true,
            rows_per_partition: 50,
            nodes: 4,
            ..FederationSpec::default()
        };
        let f = build_federation(&spec);
        let all = f.union_store();
        for rel in f.catalog.dict.rel_ids() {
            for part in f.catalog.dict.parts_of(rel) {
                let stats = f.catalog.stats(part);
                let rows = all.rows_of(part).map(|r| r.len()).unwrap_or(0);
                assert_eq!(stats.rows as usize, rows, "{part}");
            }
        }
        // Stores only hold what placement says.
        for (node, store) in &f.stores {
            for part in store.parts() {
                assert!(f.catalog.placement.holders(part).contains(node));
            }
        }
    }
}
