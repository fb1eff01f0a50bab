//! Statistics-based cardinality and width estimation for query fragments.
//!
//! Both the seller-local optimizers and the buyer plan generator estimate
//! result sizes with the same System-R-style model: per-relation profiles
//! from partition statistics, independence across predicates, and
//! `1/max(ndv)` equi-join selectivity.

use qt_catalog::{ColumnStats, PartId, PartitionStats, RelId, SchemaDict, Value};
use qt_query::{CompOp, Operand, PartSet, Predicate, Query, SelectItem};
use std::collections::BTreeMap;

/// Where the estimator reads partition statistics from. Implemented by the
/// global [`qt_catalog::Catalog`] (baselines) and by [`qt_catalog::NodeHoldings`]
/// (autonomous nodes — which only see their own partitions).
pub trait StatsSource {
    /// The shared data dictionary.
    fn dict(&self) -> &SchemaDict;
    /// Statistics for `part`, if this source knows them.
    fn part_stats(&self, part: PartId) -> Option<&PartitionStats>;
}

impl StatsSource for qt_catalog::Catalog {
    fn dict(&self) -> &SchemaDict {
        &self.dict
    }
    fn part_stats(&self, part: PartId) -> Option<&PartitionStats> {
        self.stats.get(&part)
    }
}

impl StatsSource for qt_catalog::NodeHoldings {
    fn dict(&self) -> &SchemaDict {
        &self.dict
    }
    fn part_stats(&self, part: PartId) -> Option<&PartitionStats> {
        self.stats(part)
    }
}

/// Per-relation profile after applying the query's selection predicates.
#[derive(Debug, Clone)]
pub struct RelProfile {
    /// Estimated surviving rows.
    pub rows: f64,
    /// Column statistics (NDVs capped at `rows`).
    pub cols: Vec<ColumnStats>,
    /// Average row width of the *full* base tuple in bytes.
    pub width: f64,
}

/// Result of estimating a whole query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CardEstimate {
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated output row width in bytes.
    pub width: f64,
}

impl CardEstimate {
    /// Estimated output size in bytes.
    pub fn bytes(&self) -> f64 {
        self.rows * self.width
    }
}

/// The estimator. `default_part_rows` is the guess used for partitions whose
/// statistics the source does not know (a buyer valuating a query about data
/// it has never seen — the paper's "predefined constant" initial estimate).
#[derive(Debug, Clone)]
pub struct CardinalityEstimator<'a, S: StatsSource> {
    source: &'a S,
    /// Fallback row count per unknown partition.
    pub default_part_rows: u64,
}

impl<'a, S: StatsSource> CardinalityEstimator<'a, S> {
    /// New estimator over `source`.
    pub fn new(source: &'a S) -> Self {
        CardinalityEstimator {
            source,
            default_part_rows: 10_000,
        }
    }

    /// Statistics of one partition, synthesizing the default profile for
    /// partitions this source does not know (the paper's "predefined
    /// constant" initial estimate).
    pub fn part_stats_of(&self, pid: PartId, arity: usize) -> PartitionStats {
        match self.source.part_stats(pid) {
            Some(s) => s.clone(),
            None => PartitionStats::synthetic(
                self.default_part_rows,
                &vec![self.default_part_rows; arity],
            ),
        }
    }

    /// Merged statistics of the `parts` subset of `rel`, falling back to a
    /// synthetic default for unknown partitions.
    pub fn base_profile(&self, rel: RelId, parts: &PartSet) -> RelProfile {
        let dict = self.source.dict();
        let arity = dict.rel(rel).schema.arity();
        let mut acc: Option<PartitionStats> = None;
        for idx in parts.iter() {
            let stats = self.part_stats_of(PartId::new(rel, idx), arity);
            acc = Some(match acc {
                None => stats,
                Some(a) => a.merge(&stats),
            });
        }
        let stats = acc.unwrap_or_else(|| PartitionStats::empty(arity));
        RelProfile {
            rows: stats.rows as f64,
            width: stats.row_width() as f64,
            cols: stats.cols,
        }
    }

    fn const_selectivity(cols: &[ColumnStats], attr: usize, op: CompOp, v: &Value) -> f64 {
        let c = &cols[attr];
        match op {
            CompOp::Eq => c.eq_selectivity(v),
            CompOp::Ne => (1.0 - c.eq_selectivity(v)).max(0.0),
            CompOp::Lt | CompOp::Le => c.range_selectivity(None, Some(v)),
            CompOp::Gt | CompOp::Ge => c.range_selectivity(Some(v), None),
        }
    }

    /// Profile of `rel` within `query` after its selection predicates.
    pub fn selected_profile(&self, query: &Query, rel: RelId) -> RelProfile {
        let parts = query.relations.get(&rel).copied().unwrap_or(PartSet::EMPTY);
        let mut profile = self.base_profile(rel, &parts);
        let mut sel = 1.0f64;
        for p in query.selections_of(rel) {
            sel *= match &p.right {
                Operand::Const(v) => Self::const_selectivity(&profile.cols, p.left.attr, p.op, v),
                Operand::Col(c) => {
                    // Same-relation column comparison.
                    let ndv = profile.cols[p.left.attr]
                        .ndv
                        .max(profile.cols[c.attr].ndv)
                        .max(1) as f64;
                    if p.op == CompOp::Eq {
                        1.0 / ndv
                    } else {
                        1.0 / 3.0
                    }
                }
            };
        }
        profile.rows *= sel.clamp(0.0, 1.0);
        for c in &mut profile.cols {
            c.ndv = c.ndv.min(profile.rows.ceil() as u64);
        }
        profile
    }

    /// Selectivity of a join predicate given the per-relation profiles.
    fn join_selectivity(profiles: &BTreeMap<RelId, RelProfile>, p: &Predicate) -> f64 {
        let Operand::Col(rc) = &p.right else {
            return 1.0;
        };
        let l_ndv = profiles
            .get(&p.left.rel)
            .map(|pr| pr.cols[p.left.attr].ndv)
            .unwrap_or(1);
        let r_ndv = profiles
            .get(&rc.rel)
            .map(|pr| pr.cols[rc.attr].ndv)
            .unwrap_or(1);
        join_selectivity_from_ndv(l_ndv, r_ndv, p.op)
    }

    /// Estimated row count of the join over `rels ⊆ query.relations`,
    /// applying every selection on those relations and every join predicate
    /// fully contained in the subset. This is the incremental estimate the
    /// DP enumerators call per subset.
    pub fn join_rows(&self, query: &Query, rels: &[RelId]) -> f64 {
        let profiles: BTreeMap<RelId, RelProfile> = rels
            .iter()
            .map(|&r| (r, self.selected_profile(query, r)))
            .collect();
        let mut rows: f64 = profiles.values().map(|p| p.rows).product();
        for p in query.join_predicates() {
            if p.rels().all(|r| profiles.contains_key(&r)) {
                rows *= Self::join_selectivity(&profiles, p);
            }
        }
        rows
    }

    /// Output width of `query`'s select list given per-relation profiles.
    fn output_width(&self, query: &Query) -> f64 {
        query
            .select
            .iter()
            .map(|s| match s {
                SelectItem::Col(c) => {
                    let profile = self.selected_profile(query, c.rel);
                    profile.cols[c.attr].avg_width as f64
                }
                SelectItem::Agg { .. } => 8.0,
            })
            .sum::<f64>()
            .max(1.0)
    }

    /// Estimate the output cardinality and row width of the whole query.
    pub fn estimate(&self, query: &Query) -> CardEstimate {
        let rels: Vec<RelId> = query.rel_ids().collect();
        let mut rows = self.join_rows(query, &rels);
        if query.is_aggregate() {
            if query.group_by.is_empty() {
                rows = 1.0;
            } else {
                let groups: f64 = query
                    .group_by
                    .iter()
                    .map(|c| self.selected_profile(query, c.rel).cols[c.attr].ndv.max(1) as f64)
                    .product();
                rows = rows.min(groups).max(if rows > 0.0 { 1.0 } else { 0.0 });
            }
        }
        CardEstimate {
            rows,
            width: self.output_width(query),
        }
    }
}

/// The `1/max(ndv)` equi-join selectivity formula, shared by the plain
/// estimator and the subset memo (`crate::memo`) so both produce
/// bit-identical estimates.
pub(crate) fn join_selectivity_from_ndv(l_ndv: u64, r_ndv: u64, op: CompOp) -> f64 {
    let l = l_ndv.max(1) as f64;
    let r = r_ndv.max(1) as f64;
    match op {
        CompOp::Eq => 1.0 / l.max(r),
        CompOp::Ne => 1.0 - 1.0 / l.max(r),
        _ => 1.0 / 3.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_catalog::{
        AttrType, Catalog, CatalogBuilder, NodeId, PartitionStats, Partitioning, RelationSchema,
    };
    use qt_query::{Col, Query, SelectItem};

    /// r(a,b) 10k rows a:ndv 10k b:ndv 100; s(a,c) 1k rows a:ndv 1k c:ndv 10.
    fn catalog() -> Catalog {
        let mut b = CatalogBuilder::new();
        let r = b.add_relation(
            RelationSchema::new("r", vec![("a", AttrType::Int), ("b", AttrType::Int)]),
            Partitioning::Hash { attr: 0, parts: 2 },
        );
        let s = b.add_relation(
            RelationSchema::new("s", vec![("a", AttrType::Int), ("c", AttrType::Int)]),
            Partitioning::Single,
        );
        for i in 0..2 {
            b.set_stats(
                PartId::new(r, i),
                PartitionStats::synthetic(5_000, &[5_000, 100]),
            );
            b.place(PartId::new(r, i), NodeId(0));
        }
        b.set_stats(
            PartId::new(s, 0),
            PartitionStats::synthetic(1_000, &[1_000, 10]),
        );
        b.place(PartId::new(s, 0), NodeId(0));
        b.build()
    }

    fn rid() -> RelId {
        RelId(0)
    }
    fn sid() -> RelId {
        RelId(1)
    }

    #[test]
    fn base_profile_merges_partitions() {
        let c = catalog();
        let e = CardinalityEstimator::new(&c);
        let p = e.base_profile(rid(), &PartSet::all(2));
        assert!((p.rows - 10_000.0).abs() < 1.0);
        let p1 = e.base_profile(rid(), &PartSet::single(0));
        assert!((p1.rows - 5_000.0).abs() < 1.0);
    }

    #[test]
    fn unknown_partitions_fall_back_to_default() {
        let c = catalog();
        let holdings = c.holdings_of(NodeId(99)); // holds nothing
        let e = CardinalityEstimator::new(&holdings);
        let p = e.base_profile(rid(), &PartSet::all(2));
        assert!((p.rows - 2.0 * e.default_part_rows as f64).abs() < 1.0);
    }

    #[test]
    fn equality_selection_uses_ndv() {
        let c = catalog();
        let e = CardinalityEstimator::new(&c);
        let q = Query::over_full(&c.dict, [rid()])
            .with_predicates(vec![Predicate::with_const(
                Col::new(rid(), 1),
                CompOp::Eq,
                5i64,
            )])
            .with_select(vec![SelectItem::Col(Col::new(rid(), 0))]);
        let est = e.estimate(&q);
        // 10k rows, b has ndv 100 → ~100 rows.
        assert!(est.rows > 50.0 && est.rows < 200.0, "{}", est.rows);
    }

    #[test]
    fn equijoin_uses_max_ndv() {
        let c = catalog();
        let e = CardinalityEstimator::new(&c);
        let q = Query::over_full(&c.dict, [rid(), sid()])
            .with_predicates(vec![Predicate::eq_cols(
                Col::new(rid(), 0),
                Col::new(sid(), 0),
            )])
            .with_select(vec![SelectItem::Col(Col::new(rid(), 1))]);
        let est = e.estimate(&q);
        // 10k × 1k / max(ndv(r.a), ndv(s.a)); merged ndv(r.a) is a
        // conservative 5k–10k, so expect 1k–2k.
        assert!(est.rows >= 500.0 && est.rows <= 2_500.0, "{}", est.rows);
    }

    #[test]
    fn cross_product_without_predicates() {
        let c = catalog();
        let e = CardinalityEstimator::new(&c);
        let q = Query::over_full(&c.dict, [rid(), sid()])
            .with_select(vec![SelectItem::Col(Col::new(rid(), 1))]);
        assert!((e.estimate(&q).rows - 1e7).abs() < 1e4);
    }

    #[test]
    fn aggregation_caps_at_group_count() {
        let c = catalog();
        let e = CardinalityEstimator::new(&c);
        let q = Query::over_full(&c.dict, [rid()])
            .with_select(vec![
                SelectItem::Col(Col::new(rid(), 1)),
                SelectItem::Agg {
                    func: qt_query::AggFunc::Count,
                    arg: None,
                },
            ])
            .with_group_by(vec![Col::new(rid(), 1)]);
        let est = e.estimate(&q);
        assert!(est.rows <= 100.0 + 1e-9, "{}", est.rows);
        // Scalar aggregate → exactly one row.
        let scalar = Query::over_full(&c.dict, [rid()]).with_select(vec![SelectItem::Agg {
            func: qt_query::AggFunc::Count,
            arg: None,
        }]);
        assert_eq!(e.estimate(&scalar).rows, 1.0);
    }

    #[test]
    fn join_rows_is_monotone_in_subset_growth_for_cross_products() {
        let c = catalog();
        let e = CardinalityEstimator::new(&c);
        let q = Query::over_full(&c.dict, [rid(), sid()])
            .with_select(vec![SelectItem::Col(Col::new(rid(), 1))]);
        let r_only = e.join_rows(&q, &[rid()]);
        let both = e.join_rows(&q, &[rid(), sid()]);
        assert!(both > r_only);
    }

    #[test]
    fn width_counts_select_items() {
        let c = catalog();
        let e = CardinalityEstimator::new(&c);
        let q = Query::over_full(&c.dict, [rid()]).with_select(vec![
            SelectItem::Col(Col::new(rid(), 0)),
            SelectItem::Col(Col::new(rid(), 1)),
        ]);
        assert!((e.estimate(&q).width - 16.0).abs() < 1e-9);
    }

    #[test]
    fn range_selection_scales_rows() {
        let c = catalog();
        let e = CardinalityEstimator::new(&c);
        // b uniform over [0, 99]; b < 50 → about half.
        let q = Query::over_full(&c.dict, [rid()])
            .with_predicates(vec![Predicate::with_const(
                Col::new(rid(), 1),
                CompOp::Lt,
                50i64,
            )])
            .with_select(vec![SelectItem::Col(Col::new(rid(), 0))]);
        let est = e.estimate(&q);
        assert!(est.rows > 3_000.0 && est.rows < 7_000.0, "{}", est.rows);
    }
}
