//! Subset-keyed cardinality memoization for DP enumeration.
//!
//! The DP enumerators ask for the output cardinality of every relation
//! subset they consider — and they consider each subset once per way of
//! splitting it, once per Pareto-entry pairing. [`CardinalityEstimator`]
//! recomputes the per-relation selected profiles and re-applies the join
//! selectivities on every call; for an `n`-relation query that multiplies
//! the estimation work by the number of candidate pairs.
//!
//! [`SubsetCardMemo`] computes each selected profile **once** per
//! enumeration and memoizes `join_rows` per relation-subset bitmask, so all
//! physical candidates for a subset (and `partial_results`, which needs the
//! same subsets again for offer widths) share one estimate. Every value it
//! returns is bit-identical to what the plain estimator would have produced:
//! same inputs, same floating-point operations, same order.
//!
//! Bitmask convention (shared with the enumerators): bit `i` of a mask is
//! the `i`-th relation of the query in ascending [`RelId`] order.

use crate::cardinality::{
    join_selectivity_from_ndv, CardinalityEstimator, RelProfile, StatsSource,
};
use qt_catalog::RelId;
use qt_query::{Operand, Predicate, Query, SelectItem};
use std::collections::HashMap;

/// Per-enumeration cardinality memo over one query's relation subsets.
pub struct SubsetCardMemo<'q, 'a, S: StatsSource> {
    est: CardinalityEstimator<'a, S>,
    query: &'q Query,
    /// The query's relations, ascending (bit `i` of a mask ↔ `rels[i]`).
    rels: Vec<RelId>,
    /// Selected profile per relation, aligned with `rels`.
    profiles: Vec<RelProfile>,
    /// Join predicates (in query order) with the bitmask of their relations;
    /// a predicate applies to a subset iff its mask is contained in it.
    join_preds: Vec<(&'q Predicate, u64)>,
    rows: HashMap<u64, f64>,
}

impl<'q, 'a, S: StatsSource> SubsetCardMemo<'q, 'a, S> {
    /// Build the memo for `query`: computes every relation's selected
    /// profile once up front.
    pub fn new(est: CardinalityEstimator<'a, S>, query: &'q Query) -> Self {
        let rels: Vec<RelId> = query.rel_ids().collect();
        let profiles: Vec<RelProfile> = rels
            .iter()
            .map(|&r| est.selected_profile(query, r))
            .collect();
        let mask_of = |r: RelId| -> u64 {
            match rels.binary_search(&r) {
                Ok(i) => 1u64 << i,
                // A relation outside the query: never contained in any mask.
                Err(_) => u64::MAX,
            }
        };
        let join_preds: Vec<(&Predicate, u64)> = query
            .join_predicates()
            .map(|p| (p, p.rels().fold(0u64, |m, r| m | mask_of(r))))
            .collect();
        SubsetCardMemo {
            est,
            query,
            rels,
            profiles,
            join_preds,
            rows: HashMap::new(),
        }
    }

    /// The query this memo was built for.
    pub fn query(&self) -> &'q Query {
        self.query
    }

    /// The query's relations in mask-bit order.
    pub fn rels(&self) -> &[RelId] {
        &self.rels
    }

    /// The underlying estimator (for boundary estimates the memo does not
    /// cover, e.g. the full query's aggregate output).
    pub fn estimator(&self) -> &CardinalityEstimator<'a, S> {
        &self.est
    }

    /// The memoized selected profile of `rel` (must be a query relation).
    pub fn profile(&self, rel: RelId) -> &RelProfile {
        let i = self
            .rels
            .binary_search(&rel)
            .expect("relation of the query");
        &self.profiles[i]
    }

    /// Estimated row count of the join over the subset `mask`, computed once
    /// per mask and shared by every candidate considered for it. Matches
    /// [`CardinalityEstimator::join_rows`] bit-for-bit.
    pub fn join_rows(&mut self, mask: u64) -> f64 {
        if let Some(&rows) = self.rows.get(&mask) {
            return rows;
        }
        let mut rows: f64 = (0..self.rels.len())
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| self.profiles[i].rows)
            .product();
        for &(p, pmask) in &self.join_preds {
            if pmask & mask == pmask {
                rows *= self.join_selectivity(p);
            }
        }
        self.rows.insert(mask, rows);
        rows
    }

    fn join_selectivity(&self, p: &Predicate) -> f64 {
        let Operand::Col(rc) = &p.right else {
            return 1.0;
        };
        let ndv_of = |rel: RelId, attr: usize| -> u64 {
            match self.rels.binary_search(&rel) {
                Ok(i) => self.profiles[i].cols[attr].ndv,
                Err(_) => 1,
            }
        };
        join_selectivity_from_ndv(
            ndv_of(p.left.rel, p.left.attr),
            ndv_of(rc.rel, rc.attr),
            p.op,
        )
    }

    /// Output row width of a sub-query over a subset of this memo's
    /// relations, from the memoized profiles (the sub-query must carry the
    /// parent query's partition sets and selections, as
    /// [`Query::restrict_to_rels`] guarantees).
    pub fn subset_width(&self, sub_query: &Query) -> f64 {
        sub_query
            .select
            .iter()
            .map(|s| match s {
                SelectItem::Col(c) => self.profile(c.rel).cols[c.attr].avg_width as f64,
                SelectItem::Agg { .. } => 8.0,
            })
            .sum::<f64>()
            .max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_catalog::{
        AttrType, Catalog, CatalogBuilder, NodeId, PartId, PartitionStats, Partitioning,
        RelationSchema,
    };
    use qt_query::{Col, CompOp, SelectItem};

    fn catalog() -> Catalog {
        let mut b = CatalogBuilder::new();
        for (name, rows, ndvs) in [
            ("r", 10_000u64, [5_000u64, 100]),
            ("s", 1_000, [1_000, 10]),
            ("t", 500, [250, 5]),
        ] {
            let rel = b.add_relation(
                RelationSchema::new(name, vec![("a", AttrType::Int), ("b", AttrType::Int)]),
                Partitioning::Single,
            );
            b.set_stats(PartId::new(rel, 0), PartitionStats::synthetic(rows, &ndvs));
            b.place(PartId::new(rel, 0), NodeId(0));
        }
        b.build()
    }

    fn chain_query(cat: &Catalog) -> Query {
        let rels: Vec<RelId> = (0..3u32).map(RelId).collect();
        Query::over_full(&cat.dict, rels.iter().copied())
            .with_predicates(vec![
                Predicate::eq_cols(Col::new(rels[0], 0), Col::new(rels[1], 0)),
                Predicate::eq_cols(Col::new(rels[1], 0), Col::new(rels[2], 0)),
                Predicate::with_const(Col::new(rels[0], 1), CompOp::Lt, 50i64),
            ])
            .with_select(vec![
                SelectItem::Col(Col::new(rels[0], 1)),
                SelectItem::Col(Col::new(rels[2], 1)),
            ])
    }

    #[test]
    fn join_rows_matches_plain_estimator_for_every_subset() {
        let cat = catalog();
        let q = chain_query(&cat);
        let plain = CardinalityEstimator::new(&cat);
        let mut memo = SubsetCardMemo::new(CardinalityEstimator::new(&cat), &q);
        let rels: Vec<RelId> = q.rel_ids().collect();
        for mask in 1u64..8 {
            let subset: Vec<RelId> = rels
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &r)| r)
                .collect();
            let want = plain.join_rows(&q, &subset);
            assert_eq!(
                memo.join_rows(mask).to_bits(),
                want.to_bits(),
                "mask {mask:b}: memo {} vs plain {want}",
                memo.join_rows(mask)
            );
            // Second lookup hits the memo and returns the same bits.
            assert_eq!(memo.join_rows(mask).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn subset_width_matches_plain_estimate() {
        let cat = catalog();
        let q = chain_query(&cat);
        let plain = CardinalityEstimator::new(&cat);
        let memo = SubsetCardMemo::new(CardinalityEstimator::new(&cat), &q);
        for mask in 1u64..8u64 {
            let subset: std::collections::BTreeSet<RelId> = q
                .rel_ids()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, r)| r)
                .collect();
            let sub = q.restrict_to_rels(&subset);
            assert_eq!(
                memo.subset_width(&sub).to_bits(),
                plain.estimate(&sub).width.to_bits(),
                "mask {mask:b}"
            );
        }
    }

    #[test]
    fn profiles_match_selected_profile() {
        let cat = catalog();
        let q = chain_query(&cat);
        let plain = CardinalityEstimator::new(&cat);
        let memo = SubsetCardMemo::new(CardinalityEstimator::new(&cat), &q);
        for r in q.rel_ids() {
            let want = plain.selected_profile(&q, r);
            let got = memo.profile(r);
            assert_eq!(got.rows.to_bits(), want.rows.to_bits());
            assert_eq!(got.width.to_bits(), want.width.to_bits());
        }
        assert_eq!(memo.rels().len(), 3);
        assert_eq!(memo.query().num_relations(), 3);
    }
}
