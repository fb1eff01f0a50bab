//! The global catalog, replica placement, and per-node local views.
//!
//! Knowledge boundaries follow the paper's autonomy model:
//!
//! * **Common knowledge** (the federation's shared data dictionary): relation
//!   schemas and partitioning schemes — nodes must agree on these for SQL
//!   trading messages like `... WHERE office = 'Myconos'` to be meaningful.
//! * **Private per node**: which partitions the node holds, their statistics,
//!   its resources and cost model. This is a [`NodeHoldings`].
//! * **Global truth** ([`Catalog`]): everything, including placement. Handed
//!   only to (a) the simulator harness and (b) the *baseline* optimizers,
//!   which model classical full-knowledge distributed optimization — exactly
//!   the knowledge the paper argues real federations cannot have.

use crate::ident::{NodeId, PartId, RelId};
use crate::partition::Partitioning;
use crate::schema::RelationSchema;
use crate::stats::PartitionStats;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Schema plus partitioning scheme of one relation — one entry of the shared
/// data dictionary.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationMeta {
    /// The relation schema.
    pub schema: RelationSchema,
    /// How the extent is horizontally partitioned.
    pub partitioning: Partitioning,
}

/// The federation-wide shared data dictionary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchemaDict {
    /// Relations indexed by [`RelId`] value.
    pub relations: Vec<RelationMeta>,
}

impl SchemaDict {
    /// Metadata for `rel`.
    ///
    /// # Panics
    /// Panics if `rel` is unknown — ids are only minted by the builder.
    pub fn rel(&self, rel: RelId) -> &RelationMeta {
        &self.relations[rel.0 as usize]
    }

    /// Look a relation up by name.
    pub fn rel_by_name(&self, name: &str) -> Option<RelId> {
        self.relations
            .iter()
            .position(|r| r.schema.name == name)
            .map(|i| RelId(i as u32))
    }

    /// All relation ids.
    pub fn rel_ids(&self) -> impl Iterator<Item = RelId> + '_ {
        (0..self.relations.len() as u32).map(RelId)
    }

    /// All partitions of `rel`.
    pub fn parts_of(&self, rel: RelId) -> impl Iterator<Item = PartId> + '_ {
        (0..self.rel(rel).partitioning.num_partitions()).map(move |i| PartId::new(rel, i))
    }
}

/// Which nodes hold a replica of which partition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Placement {
    replicas: BTreeMap<PartId, Vec<NodeId>>,
}

impl Placement {
    /// Record that `node` holds a replica of `part`. Idempotent.
    pub fn place(&mut self, part: PartId, node: NodeId) {
        let holders = self.replicas.entry(part).or_default();
        if !holders.contains(&node) {
            holders.push(node);
        }
    }

    /// Nodes holding `part` (empty slice if unplaced).
    pub fn holders(&self, part: PartId) -> &[NodeId] {
        self.replicas.get(&part).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All `(partition, holders)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (PartId, &[NodeId])> {
        self.replicas.iter().map(|(p, n)| (*p, n.as_slice()))
    }

    /// Partitions held by `node`.
    pub fn parts_on(&self, node: NodeId) -> Vec<PartId> {
        self.replicas
            .iter()
            .filter(|(_, holders)| holders.contains(&node))
            .map(|(p, _)| *p)
            .collect()
    }

    /// Total number of replicas placed.
    pub fn replica_count(&self) -> usize {
        self.replicas.values().map(Vec::len).sum()
    }
}

/// Global truth about the federation: dictionary, statistics, placement.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    /// The shared data dictionary.
    pub dict: Arc<SchemaDict>,
    /// Statistics for every partition (global — see module docs).
    pub stats: BTreeMap<PartId, PartitionStats>,
    /// Replica placement.
    pub placement: Placement,
    /// All node ids in the federation (nodes may hold no data yet still
    /// participate, e.g. as pure buyers).
    pub nodes: Vec<NodeId>,
}

impl Catalog {
    /// Statistics of one partition.
    ///
    /// # Panics
    /// Panics if `part` has no recorded statistics.
    pub fn stats(&self, part: PartId) -> &PartitionStats {
        self.stats
            .get(&part)
            .unwrap_or_else(|| panic!("no stats for {part}"))
    }

    /// Statistics of a whole relation (all partitions merged).
    pub fn relation_stats(&self, rel: RelId) -> PartitionStats {
        let arity = self.dict.rel(rel).schema.arity();
        self.dict
            .parts_of(rel)
            .filter_map(|p| self.stats.get(&p))
            .fold(PartitionStats::empty(arity), |acc, s| {
                if acc.rows == 0 {
                    s.clone()
                } else {
                    acc.merge(s)
                }
            })
    }

    /// The *local view* of `node`: shared dictionary plus the statistics of
    /// exactly the partitions that node holds.
    pub fn holdings_of(&self, node: NodeId) -> NodeHoldings {
        let mut held = BTreeMap::new();
        for part in self.placement.parts_on(node) {
            held.insert(part, self.stats(part).clone());
        }
        NodeHoldings {
            node,
            dict: Arc::clone(&self.dict),
            held,
        }
    }
}

/// A node's private, autonomous view of the federation.
#[derive(Debug, Clone)]
pub struct NodeHoldings {
    /// Which node this view belongs to.
    pub node: NodeId,
    /// The shared data dictionary.
    pub dict: Arc<SchemaDict>,
    /// The partitions this node holds, with their statistics.
    pub held: BTreeMap<PartId, PartitionStats>,
}

impl NodeHoldings {
    /// Does this node hold any partition of `rel`?
    pub fn has_relation(&self, rel: RelId) -> bool {
        self.held_parts(rel).next().is_some()
    }

    /// The held partitions of `rel` with their statistics: one range of
    /// `held`, since [`PartId`] orders by relation first.
    fn held_of(
        &self,
        rel: RelId,
    ) -> std::collections::btree_map::Range<'_, PartId, PartitionStats> {
        self.held
            .range(PartId::new(rel, 0)..=PartId::new(rel, u16::MAX))
    }

    /// The partitions of `rel` this node holds, in index order, without
    /// collecting them.
    pub fn held_parts(&self, rel: RelId) -> impl Iterator<Item = PartId> + '_ {
        self.held_of(rel).map(|(&p, _)| p)
    }

    /// The partitions of `rel` this node holds.
    pub fn parts_of(&self, rel: RelId) -> Vec<PartId> {
        self.held_parts(rel).collect()
    }

    /// Does this node hold *every* partition of `rel`?
    pub fn has_full_relation(&self, rel: RelId) -> bool {
        let total = self.dict.rel(rel).partitioning.num_partitions() as usize;
        self.held_parts(rel).count() == total
    }

    /// Statistics of a held partition.
    pub fn stats(&self, part: PartId) -> Option<&PartitionStats> {
        self.held.get(&part)
    }

    /// Merged statistics of all held partitions of `rel`.
    pub fn local_relation_stats(&self, rel: RelId) -> PartitionStats {
        let arity = self.dict.rel(rel).schema.arity();
        self.held_of(rel)
            .map(|(_, s)| s)
            .fold(PartitionStats::empty(arity), |acc, s| {
                if acc.rows == 0 {
                    s.clone()
                } else {
                    acc.merge(s)
                }
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CatalogBuilder;
    use crate::partition::Partitioning;
    use crate::schema::AttrType;
    use crate::value::Value;

    fn two_node_catalog() -> Catalog {
        let mut b = CatalogBuilder::new();
        let cust = b.add_relation(
            RelationSchema::new(
                "customer",
                vec![("custid", AttrType::Int), ("office", AttrType::Str)],
            ),
            Partitioning::List {
                attr: 1,
                groups: vec![vec![Value::str("Athens")], vec![Value::str("Myconos")]],
            },
        );
        b.set_stats(
            PartId::new(cust, 0),
            PartitionStats::synthetic(1000, &[1000, 1]),
        );
        b.set_stats(
            PartId::new(cust, 1),
            PartitionStats::synthetic(500, &[500, 1]),
        );
        b.place(PartId::new(cust, 0), NodeId(0));
        b.place(PartId::new(cust, 1), NodeId(1));
        b.place(PartId::new(cust, 1), NodeId(0)); // replica
        b.build()
    }

    #[test]
    fn holders_and_parts_on() {
        let c = two_node_catalog();
        let p0 = PartId::new(RelId(0), 0);
        let p1 = PartId::new(RelId(0), 1);
        assert_eq!(c.placement.holders(p0), &[NodeId(0)]);
        assert_eq!(c.placement.holders(p1), &[NodeId(1), NodeId(0)]);
        assert_eq!(c.placement.parts_on(NodeId(0)), vec![p0, p1]);
        assert_eq!(c.placement.replica_count(), 3);
    }

    #[test]
    fn place_is_idempotent() {
        let mut p = Placement::default();
        let part = PartId::new(RelId(0), 0);
        p.place(part, NodeId(1));
        p.place(part, NodeId(1));
        assert_eq!(p.holders(part), &[NodeId(1)]);
    }

    #[test]
    fn holdings_respect_placement() {
        let c = two_node_catalog();
        let h0 = c.holdings_of(NodeId(0));
        let h1 = c.holdings_of(NodeId(1));
        assert!(h0.has_full_relation(RelId(0)));
        assert!(!h1.has_full_relation(RelId(0)));
        assert!(h1.has_relation(RelId(0)));
        assert_eq!(h1.parts_of(RelId(0)), vec![PartId::new(RelId(0), 1)]);
    }

    #[test]
    fn held_parts_reads_one_relation_between_its_neighbours() {
        let mut h = two_node_catalog().holdings_of(NodeId(0));
        for (rel, idx) in [(1, 0), (1, 3), (2, 1), (3, 0)] {
            h.held
                .insert(PartId::new(RelId(rel), idx), PartitionStats::empty(2));
        }
        for rel in 0..5 {
            let rel = RelId(rel);
            let scan: Vec<PartId> = h.held.keys().filter(|p| p.rel == rel).copied().collect();
            assert_eq!(h.held_parts(rel).collect::<Vec<_>>(), scan, "{rel:?}");
            assert_eq!(h.parts_of(rel), scan);
            assert_eq!(h.has_relation(rel), !scan.is_empty());
        }
    }

    #[test]
    fn relation_stats_merges_partitions() {
        let c = two_node_catalog();
        let s = c.relation_stats(RelId(0));
        assert_eq!(s.rows, 1500);
    }

    #[test]
    fn local_relation_stats_only_counts_held() {
        let c = two_node_catalog();
        let h1 = c.holdings_of(NodeId(1));
        assert_eq!(h1.local_relation_stats(RelId(0)).rows, 500);
    }

    #[test]
    fn dict_lookup_by_name() {
        let c = two_node_catalog();
        assert_eq!(c.dict.rel_by_name("customer"), Some(RelId(0)));
        assert_eq!(c.dict.rel_by_name("nope"), None);
        assert_eq!(c.dict.parts_of(RelId(0)).count(), 2);
    }
}
