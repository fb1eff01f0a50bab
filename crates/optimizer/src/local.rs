//! The per-node optimizer proper.
//!
//! The DP enumeration is arena-backed: every candidate sub-plan is a single
//! [`ArenaPlan`] push into a per-enumeration [`PlanArena`] (children are
//! [`PlanId`] indices into the same arena), so considering a join candidate
//! never deep-clones a plan tree. Cardinalities come from a
//! [`SubsetCardMemo`] that computes each relation profile and each subset's
//! join rows exactly once. Boxed [`PhysPlan`] trees are materialized only at
//! the output boundary, for the plans that actually survive — and for
//! partial results only when somebody asks ([`PartialResult::plan`]): a
//! seller prices them and never does. The retained
//! tree-cloning implementation ([`crate::ReferenceOptimizer`]) produces
//! bit-identical results and exists to prove it.

use crate::dp::{order_covers, ColCanon, DpEntry, DpTable, JoinEnumerator};
use qt_catalog::{PartId, PartitionStats, RelId};
use qt_cost::{CardinalityEstimator, CostParams, NodeResources, StatsSource, SubsetCardMemo};
use qt_exec::{AggSpec, ArenaPlan, PhysPlan, PlanArena, PlanId};
use qt_query::{Col, CompOp, Operand, Predicate, Query, SelectItem};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A fully optimized local plan.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The physical plan, producing columns in the query's `SELECT` order.
    pub plan: PhysPlan,
    /// Estimated cost in node-seconds (resource-scaled).
    pub cost: f64,
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated output row width in bytes.
    pub width: f64,
    /// Sub-plans considered during enumeration (optimization effort).
    pub effort: u64,
}

/// One partial result emitted by the modified DP (§3.4): the optimal local
/// sub-plan for a subset of the query's relations, offered to the buyer as
/// an independently purchasable piece.
#[derive(Debug, Clone)]
pub struct PartialResult {
    /// The sub-query this partial answers (restricted SPJ core).
    pub query: Query,
    /// Local cost in node-seconds.
    pub cost: f64,
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated output row width in bytes.
    pub width: f64,
    /// The enumeration's arena, shared by all of its partial results, and
    /// this partial's winning entry in it.
    arena: Arc<PlanArena>,
    root: PlanId,
}

impl PartialResult {
    /// The local physical plan (output in `query.select` order), built on
    /// demand from the enumeration's arena.
    pub fn plan(&self) -> PhysPlan {
        let cols: Vec<Col> = self
            .query
            .select
            .iter()
            .map(|s| s.col().expect("SPJ core has only plain columns"))
            .collect();
        PhysPlan::Project {
            input: Box::new(self.arena.materialize(self.root)),
            cols,
        }
    }
}

/// Everything one enumeration run produces: the Pareto table (over arena
/// ids), the arena the ids point into, and the memoized estimation state,
/// so `optimize` and `partial_results` can finish plans without re-deriving
/// any of it.
struct Enumeration<'q, 'a, S: StatsSource> {
    table: DpTable<PlanId>,
    arena: PlanArena,
    rels: Vec<RelId>,
    canon: ColCanon,
    memo: SubsetCardMemo<'q, 'a, S>,
    effort: u64,
}

/// The node-local optimizer. `S` is the node's private statistics view.
///
/// ```
/// use qt_catalog::{AttrType, CatalogBuilder, NodeId, PartId, Partitioning,
///                  PartitionStats, RelationSchema};
/// use qt_optimizer::LocalOptimizer;
/// use qt_query::parse_query;
///
/// let mut b = CatalogBuilder::new();
/// for name in ["r", "s"] {
///     let rel = b.add_relation(
///         RelationSchema::new(name, vec![("k", AttrType::Int), ("v", AttrType::Int)]),
///         Partitioning::Single,
///     );
///     b.set_stats(PartId::new(rel, 0), PartitionStats::synthetic(10_000, &[5_000, 100]));
///     b.place(PartId::new(rel, 0), NodeId(0));
/// }
/// let catalog = b.build();
/// let q = parse_query(&catalog.dict, "SELECT r.v, s.v FROM r, s WHERE r.k = s.k").unwrap();
///
/// let optimizer = LocalOptimizer::new(&catalog);
/// let optimized = optimizer.optimize(&q);
/// assert!(optimized.cost > 0.0);
/// assert!(optimized.effort >= 3, "two leaves and at least one join pair");
///
/// // The modified DP (§3.4) also emits every k-way partial as an offer.
/// let (partials, _) = optimizer.partial_results(&q, 2);
/// assert_eq!(partials.len(), 3, "two singletons plus the full join");
/// ```
pub struct LocalOptimizer<'a, S: StatsSource> {
    source: &'a S,
    /// Shared operator cost constants.
    pub params: CostParams,
    /// This node's resources (scales all costs).
    pub resources: NodeResources,
    /// Join-enumeration strategy.
    pub enumerator: JoinEnumerator,
}

impl<'a, S: StatsSource> LocalOptimizer<'a, S> {
    /// Optimizer with reference parameters and exhaustive enumeration.
    pub fn new(source: &'a S) -> Self {
        LocalOptimizer {
            source,
            params: CostParams::reference(),
            resources: NodeResources::reference(),
            enumerator: JoinEnumerator::Exhaustive,
        }
    }

    /// Builder-style enumerator override.
    pub fn with_enumerator(mut self, e: JoinEnumerator) -> Self {
        self.enumerator = e;
        self
    }

    /// Builder-style resources override.
    pub fn with_resources(mut self, r: NodeResources) -> Self {
        self.resources = r;
        self
    }

    fn estimator(&self) -> CardinalityEstimator<'a, S> {
        CardinalityEstimator::new(self.source)
    }

    /// Access path for one relation: union of partition scans plus its
    /// selection predicates. Partition statistics are read once per
    /// partition; the union profile is their incremental merge (the exact
    /// fold `CardinalityEstimator::base_profile` performs).
    fn leaf(
        &self,
        q: &Query,
        rel: RelId,
        memo: &SubsetCardMemo<'_, 'a, S>,
        arena: &mut PlanArena,
    ) -> DpEntry<PlanId> {
        let est = memo.estimator();
        let parts = q.relations[&rel];
        let arity = self.source.dict().rel(rel).schema.arity();
        let mut scans: Vec<PlanId> = Vec::new();
        let mut scan_cost = 0.0;
        let mut acc: Option<PartitionStats> = None;
        for idx in parts.iter() {
            let pid = PartId::new(rel, idx);
            let stats = est.part_stats_of(pid, arity);
            scan_cost += self
                .params
                .scan(stats.rows as f64, stats.row_width() as f64)
                * self.resources.io_factor();
            scans.push(arena.push(ArenaPlan::Scan { part: pid, arity }));
            acc = Some(match acc {
                None => stats,
                Some(a) => a.merge(&stats),
            });
        }
        let base = acc.unwrap_or_else(|| PartitionStats::empty(arity));
        let base_rows = base.rows as f64;
        let base_width = base.row_width() as f64;
        let mut plan = if scans.len() == 1 {
            scans[0]
        } else {
            arena.push(ArenaPlan::Union { inputs: scans })
        };
        let mut cost = scan_cost + self.params.union(base_rows) * self.resources.cpu_factor();
        let selections: Vec<Predicate> = q.selections_of(rel).cloned().collect();
        if !selections.is_empty() {
            cost += self.params.filter(base_rows) * self.resources.cpu_factor();
            plan = arena.push(ArenaPlan::Filter {
                input: plan,
                predicates: selections,
            });
        }
        DpEntry {
            plan,
            cost,
            rows: memo.profile(rel).rows,
            width: base_width,
            order: vec![],
        }
    }

    /// Join two memoized sub-plans, producing *all* physical candidates:
    /// a hash join (unordered) and a sort-merge join (key-ordered) for
    /// equi-predicates, or a nested-loop join otherwise. The DP table's
    /// Pareto pruning decides which survive. Each candidate is one arena
    /// push — the children are referenced by id, never cloned.
    #[allow(clippy::too_many_arguments)]
    fn join(
        &self,
        q: &Query,
        rels: &[RelId],
        canon: &ColCanon,
        arena: &mut PlanArena,
        left_mask: u64,
        right_mask: u64,
        left: &DpEntry<PlanId>,
        right: &DpEntry<PlanId>,
        out_rows: f64,
    ) -> Vec<DpEntry<PlanId>> {
        let in_left = |r: RelId| {
            rels.iter()
                .position(|&x| x == r)
                .is_some_and(|i| left_mask >> i & 1 == 1)
        };
        let in_right = |r: RelId| {
            rels.iter()
                .position(|&x| x == r)
                .is_some_and(|i| right_mask >> i & 1 == 1)
        };
        // Predicates connecting the two sides.
        let mut eq_keys: Vec<(Col, Col)> = Vec::new();
        let mut residual: Vec<Predicate> = Vec::new();
        for p in q.join_predicates() {
            let Operand::Col(rc) = &p.right else { continue };
            let (l, r) = (p.left, *rc);
            let (lk, rk) = if in_left(l.rel) && in_right(r.rel) {
                (l, r)
            } else if in_left(r.rel) && in_right(l.rel) {
                (r, l)
            } else {
                continue;
            };
            if p.op == CompOp::Eq {
                eq_keys.push((lk, rk));
            } else {
                residual.push(p.clone());
            }
        }
        let cpu = self.resources.cpu_factor();
        let width = left.width + right.width;
        let base_cost = left.cost + right.cost;
        // Residual (non-equi connecting) predicates go into a Filter on top
        // of equi-joins; filters preserve order.
        let finish = |arena: &mut PlanArena,
                      mut plan: PlanId,
                      mut cost: f64,
                      order: Vec<Col>|
         -> DpEntry<PlanId> {
            if !residual.is_empty() {
                plan = arena.push(ArenaPlan::Filter {
                    input: plan,
                    predicates: residual.clone(),
                });
                cost += self.params.filter(out_rows) * cpu;
            }
            DpEntry {
                plan,
                cost: base_cost + cost,
                rows: out_rows,
                width,
                order,
            }
        };

        if eq_keys.is_empty() {
            let plan = arena.push(ArenaPlan::NlJoin {
                left: left.plan,
                right: right.plan,
                predicates: residual.clone(),
            });
            let cost = self.params.nl_join(left.rows, right.rows, out_rows) * cpu;
            return vec![DpEntry {
                plan,
                cost: base_cost + cost,
                rows: out_rows,
                width,
                order: vec![],
            }];
        }

        // Candidate 1: hash join, build on the smaller side; unordered.
        let (build, probe) = if left.rows <= right.rows {
            (left, right)
        } else {
            (right, left)
        };
        let swapped = left.rows > right.rows;
        let build_keys: Vec<(Col, Col)> = if swapped {
            eq_keys.iter().map(|&(l, r)| (r, l)).collect()
        } else {
            eq_keys.clone()
        };
        let hash_plan = arena.push(ArenaPlan::HashJoin {
            left: build.plan,
            right: probe.plan,
            left_keys: build_keys.iter().map(|k| k.0).collect(),
            right_keys: build_keys.iter().map(|k| k.1).collect(),
        });
        let hash = finish(
            arena,
            hash_plan,
            self.params.hash_join(build.rows, probe.rows, out_rows) * cpu,
            vec![],
        );

        // Candidate 2: sort-merge join; reuses input key order (modulo the
        // query's column equivalence classes), produces key-ordered output.
        let lkeys: Vec<Col> = eq_keys.iter().map(|k| k.0).collect();
        let rkeys: Vec<Col> = eq_keys.iter().map(|k| k.1).collect();
        let lkeys_c = canon.canon_all(&lkeys);
        let rkeys_c = canon.canon_all(&rkeys);
        let l_sorted = order_covers(&left.order, &lkeys_c);
        let r_sorted = order_covers(&right.order, &rkeys_c);
        let mut merge_cost = self.params.merge_join(left.rows, right.rows, out_rows) * cpu;
        if !l_sorted {
            merge_cost += self.params.sort(left.rows) * cpu;
        }
        if !r_sorted {
            merge_cost += self.params.sort(right.rows) * cpu;
        }
        let enforce =
            |arena: &mut PlanArena, side: &DpEntry<PlanId>, keys: &[Col], sorted: bool| -> PlanId {
                if sorted {
                    side.plan
                } else {
                    arena.push(ArenaPlan::Sort {
                        input: side.plan,
                        keys: keys.to_vec(),
                    })
                }
            };
        let l_input = enforce(arena, left, &lkeys, l_sorted);
        let r_input = enforce(arena, right, &rkeys, r_sorted);
        let merge_plan = arena.push(ArenaPlan::MergeJoin {
            left: l_input,
            right: r_input,
            left_keys: lkeys,
            right_keys: rkeys,
        });
        let merge = finish(arena, merge_plan, merge_cost, lkeys_c);
        vec![hash, merge]
    }

    /// Run the configured enumerator over the query's join graph. Returns
    /// the full enumeration state: table, arena, and estimation memo.
    fn enumerate<'q>(&self, q: &'q Query) -> Enumeration<'q, 'a, S> {
        let mut memo = SubsetCardMemo::new(self.estimator(), q);
        let canon = ColCanon::from_query(q);
        let rels: Vec<RelId> = memo.rels().to_vec();
        let n = rels.len();
        assert!(n <= 63, "too many relations");
        let mut arena = PlanArena::with_capacity(4 * n.max(1));
        let mut table = DpTable::new(n);
        let mut effort = 0u64;
        for (i, &rel) in rels.iter().enumerate() {
            let entry = self.leaf(q, rel, &memo, &mut arena);
            table.insert(1u64 << i, entry);
            effort += 1;
        }
        for size in 2..=n {
            for s1 in 1..=size / 2 {
                let s2 = size - s1;
                let left_masks: Vec<u64> = table.masks_of_size(s1).to_vec();
                let right_masks: Vec<u64> = table.masks_of_size(s2).to_vec();
                for &m1 in &left_masks {
                    for &m2 in &right_masks {
                        if m1 & m2 != 0 || (s1 == s2 && m1 >= m2) {
                            continue;
                        }
                        let combined = m1 | m2;
                        let out_rows = memo.join_rows(combined);
                        // Pareto sets: every (ordered/unordered) pairing is a
                        // distinct sub-plan to consider.
                        let lefts: Vec<DpEntry<PlanId>> = table.entries(m1).to_vec();
                        let rights: Vec<DpEntry<PlanId>> = table.entries(m2).to_vec();
                        for l in &lefts {
                            for r in &rights {
                                for entry in
                                    self.join(q, &rels, &canon, &mut arena, m1, m2, l, r, out_rows)
                                {
                                    effort += 1;
                                    table.insert(combined, entry);
                                }
                            }
                        }
                    }
                }
            }
            if let JoinEnumerator::IdpM { k, m } = self.enumerator {
                if size == k {
                    table.prune_size(k, m);
                }
            }
        }
        Enumeration {
            table,
            arena,
            rels,
            canon,
            memo,
            effort,
        }
    }

    /// Optimize the full query: enumerate joins, then layer aggregation,
    /// sorting, and the final projection. The produced plan's output columns
    /// are exactly `q.select`, in order.
    pub fn optimize(&self, q: &Query) -> Optimized {
        let Enumeration {
            table,
            arena,
            rels,
            canon,
            memo,
            effort,
        } = self.enumerate(q);
        let n = rels.len();
        let full: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let cpu = self.resources.cpu_factor();
        let order_by_c: Vec<Col> = q.order_by.iter().map(|&c| canon.canon(c)).collect();
        // Pick the Pareto entry whose *finished* cost (including any final
        // sort the query's ORDER BY needs) is lowest.
        let entry = table
            .entries(full)
            .iter()
            .min_by(|a, b| {
                let fin = |e: &DpEntry<PlanId>| {
                    let needs_sort = !q.is_aggregate()
                        && !q.order_by.is_empty()
                        && !order_covers(&e.order, &order_by_c);
                    e.cost
                        + if needs_sort {
                            self.params.sort(e.rows) * cpu
                        } else {
                            0.0
                        }
                };
                fin(a).total_cmp(&fin(b))
            })
            .expect("DP always reaches the full set");
        let final_est = memo.estimator().estimate(q);
        // The winner (and only the winner) leaves the arena as a boxed tree.
        let mut plan = arena.materialize(entry.plan);
        let mut cost = entry.cost;

        if q.is_aggregate() {
            let aggs: Vec<AggSpec> = q
                .select
                .iter()
                .filter_map(|s| match s {
                    SelectItem::Agg { func, arg } => Some(AggSpec {
                        func: *func,
                        arg: *arg,
                    }),
                    SelectItem::Col(_) => None,
                })
                .collect();
            plan = PhysPlan::HashAggregate {
                input: Box::new(plan),
                group_by: q.group_by.clone(),
                aggs,
            };
            cost += self.params.aggregate(entry.rows, final_est.rows) * cpu;
            // Project the aggregate output (keys ++ agg markers) into SELECT
            // order.
            let agg_schema = plan.schema();
            let mut agg_idx = q.group_by.len();
            let cols: Vec<Col> = q
                .select
                .iter()
                .map(|s| match s {
                    SelectItem::Col(c) => *c,
                    SelectItem::Agg { .. } => {
                        let c = agg_schema[agg_idx];
                        agg_idx += 1;
                        c
                    }
                })
                .collect();
            plan = PhysPlan::Project {
                input: Box::new(plan),
                cols,
            };
        } else {
            // Reuse a merge join's key order when it already satisfies the
            // requested ordering (ORDER BY is a prefix of the plan order,
            // modulo join-key equivalence).
            let pre_sorted = order_covers(&entry.order, &order_by_c);
            if !q.order_by.is_empty() && !pre_sorted {
                plan = PhysPlan::Sort {
                    input: Box::new(plan),
                    keys: q.order_by.clone(),
                };
                cost += self.params.sort(entry.rows) * cpu;
            }
            let cols: Vec<Col> = q
                .select
                .iter()
                .map(|s| match s {
                    SelectItem::Col(c) => *c,
                    SelectItem::Agg { .. } => unreachable!("non-aggregate query"),
                })
                .collect();
            plan = PhysPlan::Project {
                input: Box::new(plan),
                cols,
            };
        }
        cost += self.params.filter(final_est.rows) * cpu; // projection pass

        Optimized {
            plan,
            cost,
            rows: final_est.rows,
            width: final_est.width,
            effort,
        }
    }

    /// The modified DP of §3.4: optimize the query and *also* return the
    /// optimal sub-plan for every relation subset of size ≤ `max_k` (and the
    /// full set), each as an independently offerable [`PartialResult`] whose
    /// plan outputs the restricted sub-query's columns.
    ///
    /// `q` must already be seller-rewritten (its partition sets are what the
    /// node holds); aggregation should be stripped by the rewrite.
    pub fn partial_results(&self, q: &Query, max_k: usize) -> (Vec<PartialResult>, u64) {
        let Enumeration {
            table,
            arena,
            rels,
            memo,
            effort,
            ..
        } = self.enumerate(q);
        let n = rels.len();
        let cpu = self.resources.cpu_factor();
        let arena = Arc::new(arena);
        let mut out = Vec::new();
        for (mask, entry) in table.iter() {
            let size = mask.count_ones() as usize;
            if size > max_k && size != n {
                continue;
            }
            let subset: BTreeSet<RelId> = rels
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &r)| r)
                .collect();
            let sub_query = q.restrict_to_rels(&subset);
            let width = memo.subset_width(&sub_query);
            let cost = entry.cost + self.params.filter(entry.rows) * cpu;
            out.push(PartialResult {
                query: sub_query,
                cost,
                rows: entry.rows,
                width,
                arena: Arc::clone(&arena),
                root: entry.plan,
            });
        }
        // Deterministic order: by subset size then query.
        out.sort_by(|a, b| {
            a.query
                .num_relations()
                .cmp(&b.query.num_relations())
                .then_with(|| a.query.cmp(&b.query))
        });
        (out, effort)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_catalog::{
        AttrType, Catalog, CatalogBuilder, NodeId, PartitionStats, Partitioning, RelationSchema,
    };
    use qt_exec::{evaluate_query, execute, reference::same_rows, DataStore};
    use qt_query::parse_query;

    /// Three relations r(a,b), s(a,c), t(c,d) with data small enough to
    /// cross-check plans against the reference evaluator.
    fn setup() -> (Catalog, DataStore) {
        use qt_catalog::Value;
        let mut b = CatalogBuilder::new();
        let r = b.add_relation(
            RelationSchema::new("r", vec![("a", AttrType::Int), ("b", AttrType::Int)]),
            Partitioning::Hash { attr: 0, parts: 2 },
        );
        let s = b.add_relation(
            RelationSchema::new("s", vec![("a", AttrType::Int), ("c", AttrType::Int)]),
            Partitioning::Single,
        );
        let t = b.add_relation(
            RelationSchema::new("t", vec![("c", AttrType::Int), ("d", AttrType::Int)]),
            Partitioning::Single,
        );
        let mut store = DataStore::new();
        let mut r_rows = Vec::new();
        for i in 0..40i64 {
            r_rows.push(vec![Value::Int(i % 10), Value::Int(i)]);
        }
        let mut s_rows = Vec::new();
        for i in 0..10i64 {
            s_rows.push(vec![Value::Int(i), Value::Int(i % 3)]);
        }
        let t_rows = vec![
            vec![Value::Int(0), Value::Int(100)],
            vec![Value::Int(1), Value::Int(200)],
            vec![Value::Int(2), Value::Int(300)],
        ];
        // Build dict first (builder consumed at build()).
        let dict_probe = {
            let mut pb = CatalogBuilder::new();
            pb.add_relation(
                RelationSchema::new("r", vec![("a", AttrType::Int), ("b", AttrType::Int)]),
                Partitioning::Hash { attr: 0, parts: 2 },
            );
            pb.add_relation(
                RelationSchema::new("s", vec![("a", AttrType::Int), ("c", AttrType::Int)]),
                Partitioning::Single,
            );
            pb.add_relation(
                RelationSchema::new("t", vec![("c", AttrType::Int), ("d", AttrType::Int)]),
                Partitioning::Single,
            );
            pb.set_stats(PartId::new(r, 0), PartitionStats::synthetic(1, &[1, 1]));
            pb.set_stats(PartId::new(r, 1), PartitionStats::synthetic(1, &[1, 1]));
            pb.set_stats(PartId::new(s, 0), PartitionStats::synthetic(1, &[1, 1]));
            pb.set_stats(PartId::new(t, 0), PartitionStats::synthetic(1, &[1, 1]));
            pb.place(PartId::new(r, 0), NodeId(0));
            pb.place(PartId::new(r, 1), NodeId(0));
            pb.place(PartId::new(s, 0), NodeId(0));
            pb.place(PartId::new(t, 0), NodeId(0));
            pb.build().dict
        };
        store.load_relation(&dict_probe, r, r_rows);
        store.load_relation(&dict_probe, s, s_rows);
        store.load_relation(&dict_probe, t, t_rows);
        // Real stats from the data.
        for part in [
            PartId::new(r, 0),
            PartId::new(r, 1),
            PartId::new(s, 0),
            PartId::new(t, 0),
        ] {
            b.set_stats(part, store.stats_of(&dict_probe, part).unwrap());
            b.place(part, NodeId(0));
        }
        (b.build(), store)
    }

    #[test]
    fn single_relation_plan_matches_reference() {
        let (cat, store) = setup();
        let q = parse_query(&cat.dict, "SELECT b FROM r WHERE a = 3").unwrap();
        let opt = LocalOptimizer::new(&cat);
        let o = opt.optimize(&q);
        let plan_out = execute(&o.plan, &store, &[]).unwrap();
        let ref_out = evaluate_query(&q, &store).unwrap();
        assert!(same_rows(&plan_out, &ref_out));
        assert!(o.cost > 0.0);
        assert_eq!(o.effort, 1);
    }

    #[test]
    fn two_way_join_plan_matches_reference() {
        let (cat, store) = setup();
        let q = parse_query(&cat.dict, "SELECT b, s.c FROM r, s WHERE r.a = s.a").unwrap();
        let o = LocalOptimizer::new(&cat).optimize(&q);
        let plan_out = execute(&o.plan, &store, &[]).unwrap();
        let ref_out = evaluate_query(&q, &store).unwrap();
        assert!(same_rows(&plan_out, &ref_out));
    }

    #[test]
    fn three_way_join_plan_matches_reference() {
        let (cat, store) = setup();
        let q = parse_query(
            &cat.dict,
            "SELECT b, d FROM r, s, t WHERE r.a = s.a AND s.c = t.c",
        )
        .unwrap();
        let o = LocalOptimizer::new(&cat).optimize(&q);
        let plan_out = execute(&o.plan, &store, &[]).unwrap();
        let ref_out = evaluate_query(&q, &store).unwrap();
        assert!(same_rows(&plan_out, &ref_out));
    }

    #[test]
    fn aggregate_plan_matches_reference() {
        let (cat, store) = setup();
        let q = parse_query(
            &cat.dict,
            "SELECT s.c, SUM(b) FROM r, s WHERE r.a = s.a GROUP BY s.c",
        )
        .unwrap();
        let o = LocalOptimizer::new(&cat).optimize(&q);
        let plan_out = execute(&o.plan, &store, &[]).unwrap();
        let ref_out = evaluate_query(&q, &store).unwrap();
        assert!(same_rows(&plan_out, &ref_out));
    }

    #[test]
    fn order_by_plan_is_sorted() {
        let (cat, store) = setup();
        let q = parse_query(&cat.dict, "SELECT b FROM r WHERE a = 1 ORDER BY b").unwrap();
        let o = LocalOptimizer::new(&cat).optimize(&q);
        let out = execute(&o.plan, &store, &[]).unwrap();
        let vals: Vec<i64> = out.iter().map(|r| r[0].as_int().unwrap()).collect();
        let mut sorted = vals.clone();
        sorted.sort();
        assert_eq!(vals, sorted);
        assert!(!vals.is_empty());
    }

    #[test]
    fn theta_join_falls_back_to_nl() {
        let (cat, store) = setup();
        let q = parse_query(&cat.dict, "SELECT b, s.c FROM r, s WHERE r.a < s.a").unwrap();
        let o = LocalOptimizer::new(&cat).optimize(&q);
        let plan_out = execute(&o.plan, &store, &[]).unwrap();
        let ref_out = evaluate_query(&q, &store).unwrap();
        assert!(same_rows(&plan_out, &ref_out));
    }

    #[test]
    fn idp_matches_dp_on_small_queries_and_costs_less_effort() {
        let (cat, store) = setup();
        let q = parse_query(
            &cat.dict,
            "SELECT b, d FROM r, s, t WHERE r.a = s.a AND s.c = t.c",
        )
        .unwrap();
        let dp = LocalOptimizer::new(&cat).optimize(&q);
        let idp = LocalOptimizer::new(&cat)
            .with_enumerator(JoinEnumerator::idp_2_5())
            .optimize(&q);
        // Both must be correct.
        let a = execute(&dp.plan, &store, &[]).unwrap();
        let b = execute(&idp.plan, &store, &[]).unwrap();
        assert!(same_rows(&a, &b));
        // IDP(2,5) keeps all 3 two-way subsets here (3 <= 5), so same cost.
        assert!((dp.cost - idp.cost).abs() < 1e-9);
    }

    #[test]
    fn effort_grows_with_join_count() {
        let (cat, _) = setup();
        let q2 = parse_query(&cat.dict, "SELECT b, s.c FROM r, s WHERE r.a = s.a").unwrap();
        let q3 = parse_query(
            &cat.dict,
            "SELECT b, d FROM r, s, t WHERE r.a = s.a AND s.c = t.c",
        )
        .unwrap();
        let opt = LocalOptimizer::new(&cat);
        assert!(opt.optimize(&q3).effort > opt.optimize(&q2).effort);
    }

    #[test]
    fn partial_results_cover_all_small_subsets() {
        let (cat, store) = setup();
        let q = parse_query(
            &cat.dict,
            "SELECT b, d FROM r, s, t WHERE r.a = s.a AND s.c = t.c",
        )
        .unwrap();
        let opt = LocalOptimizer::new(&cat);
        let (partials, _) = opt.partial_results(&q.strip_aggregation(), 2);
        // 3 singletons + 3 pairs + the full 3-way = 7.
        assert_eq!(partials.len(), 7);
        // Every partial's plan computes its sub-query.
        for p in &partials {
            let plan_out = execute(&p.plan(), &store, &[]).unwrap();
            let ref_out = evaluate_query(&p.query, &store).unwrap();
            assert!(
                same_rows(&plan_out, &ref_out),
                "{}",
                p.query.display_with(&cat.dict)
            );
        }
    }

    #[test]
    fn partial_results_respect_max_k() {
        let (cat, _) = setup();
        let q = parse_query(
            &cat.dict,
            "SELECT b, d FROM r, s, t WHERE r.a = s.a AND s.c = t.c",
        )
        .unwrap();
        let opt = LocalOptimizer::new(&cat);
        let (partials, _) = opt.partial_results(&q, 1);
        // 3 singletons + full set.
        assert_eq!(partials.len(), 4);
    }

    #[test]
    fn slower_node_estimates_higher_cost() {
        let (cat, _) = setup();
        let q = parse_query(&cat.dict, "SELECT b, s.c FROM r, s WHERE r.a = s.a").unwrap();
        let fast = LocalOptimizer::new(&cat)
            .with_resources(NodeResources::uniform(2.0))
            .optimize(&q);
        let slow = LocalOptimizer::new(&cat)
            .with_resources(NodeResources::uniform(0.5))
            .optimize(&q);
        assert!(slow.cost > fast.cost);
    }

    #[test]
    fn count_star_plan_matches_reference() {
        let (cat, store) = setup();
        let q = parse_query(&cat.dict, "SELECT COUNT(*) FROM r, s WHERE r.a = s.a").unwrap();
        let o = LocalOptimizer::new(&cat).optimize(&q);
        let plan_out = execute(&o.plan, &store, &[]).unwrap();
        let ref_out = evaluate_query(&q, &store).unwrap();
        assert_eq!(plan_out, ref_out);
    }
}

#[cfg(test)]
mod merge_join_tests {
    use super::*;
    use qt_catalog::{
        AttrType, Catalog, CatalogBuilder, NodeId, PartitionStats, Partitioning, RelationSchema,
    };
    use qt_query::parse_query;

    /// Three relations joined on a duplicate-heavy key (rows ≫ NDV): the
    /// join output dwarfs the inputs, so a final ORDER BY sort on the hash
    /// path costs far more than pre-sorting the small inputs for merge
    /// joins whose key order the ORDER BY then reuses.
    fn big_catalog() -> Catalog {
        let mut b = CatalogBuilder::new();
        for name in ["r", "s", "t"] {
            let rel = b.add_relation(
                RelationSchema::new(name, vec![("k", AttrType::Int), ("v", AttrType::Int)]),
                Partitioning::Single,
            );
            b.set_stats(
                PartId::new(rel, 0),
                PartitionStats::synthetic(100_000, &[1_000, 100]),
            );
            b.place(PartId::new(rel, 0), NodeId(0));
        }
        b.build()
    }

    fn count_ops(plan: &PhysPlan) -> (usize, usize, usize) {
        // (merge joins, hash joins, sorts)
        fn walk(p: &PhysPlan, c: &mut (usize, usize, usize)) {
            match p {
                PhysPlan::MergeJoin { left, right, .. } => {
                    c.0 += 1;
                    walk(left, c);
                    walk(right, c);
                }
                PhysPlan::HashJoin { left, right, .. } => {
                    c.1 += 1;
                    walk(left, c);
                    walk(right, c);
                }
                PhysPlan::NlJoin { left, right, .. } => {
                    walk(left, c);
                    walk(right, c);
                }
                PhysPlan::Sort { input, .. } => {
                    c.2 += 1;
                    walk(input, c);
                }
                PhysPlan::Filter { input, .. }
                | PhysPlan::Project { input, .. }
                | PhysPlan::HashAggregate { input, .. } => walk(input, c),
                PhysPlan::Union { inputs } => {
                    for i in inputs {
                        walk(i, c);
                    }
                }
                PhysPlan::Scan { .. } | PhysPlan::Input { .. } => {}
            }
        }
        let mut c = (0, 0, 0);
        walk(plan, &mut c);
        c
    }

    #[test]
    fn chained_same_key_joins_reuse_merge_order() {
        let cat = big_catalog();
        // ORDER BY the join key: the ordered (merge) Pareto entries win once
        // the final sort of the huge hash-join output is priced in.
        let q = parse_query(
            &cat.dict,
            "SELECT r.k, t.v FROM r, s, t WHERE r.k = s.k AND s.k = t.k ORDER BY r.k",
        )
        .unwrap();
        let o = LocalOptimizer::new(&cat).optimize(&q);
        let (merges, _hashes, sorts) = count_ops(&o.plan);
        assert_eq!(merges, 2, "both joins should merge:\n{}", o.plan.pretty());
        // Order reuse: only the three base inputs ever need sorting, and the
        // second merge reuses the first's key order (≤ 3 enforcers, no
        // final sort over the billion-row output).
        assert!(sorts <= 3, "{}", o.plan.pretty());
        assert!(
            !matches!(&o.plan, PhysPlan::Project { input, .. } if matches!(**input, PhysPlan::Sort { .. })),
            "no top-level sort expected:\n{}",
            o.plan.pretty()
        );
    }

    #[test]
    fn hash_joins_win_without_an_ordering_requirement() {
        let cat = big_catalog();
        let q = parse_query(
            &cat.dict,
            "SELECT r.v, t.v FROM r, s, t WHERE r.k = s.k AND s.k = t.k",
        )
        .unwrap();
        let o = LocalOptimizer::new(&cat).optimize(&q);
        let (merges, hashes, _) = count_ops(&o.plan);
        assert_eq!(merges, 0, "{}", o.plan.pretty());
        assert_eq!(hashes, 2);
    }

    #[test]
    fn ordered_plan_is_cheaper_than_forcing_hash_plus_sort() {
        // The finished cost of the chosen ordered plan must beat the
        // unordered plan plus an explicit output sort.
        let cat = big_catalog();
        let ordered = parse_query(
            &cat.dict,
            "SELECT r.k, t.v FROM r, s, t WHERE r.k = s.k AND s.k = t.k ORDER BY r.k",
        )
        .unwrap();
        let plain = parse_query(
            &cat.dict,
            "SELECT r.k, t.v FROM r, s, t WHERE r.k = s.k AND s.k = t.k",
        )
        .unwrap();
        let opt = LocalOptimizer::new(&cat);
        let with_order = opt.optimize(&ordered);
        let without = opt.optimize(&plain);
        // The ordering requirement costs *something*...
        assert!(with_order.cost >= without.cost);
        // ...but far less than sorting the output would
        // (sort(out_rows) would dominate the whole plan).
        let naive_sort = opt.params.sort(with_order.rows);
        assert!(
            with_order.cost - without.cost < naive_sort * 0.5,
            "order reuse must be much cheaper than a final sort: delta {} vs sort {}",
            with_order.cost - without.cost,
            naive_sort
        );
    }

    #[test]
    fn merge_plan_still_matches_reference_on_data() {
        use qt_catalog::Value;
        use qt_exec::reference::same_rows;
        use qt_exec::{evaluate_query, execute, DataStore};
        // Small data, but force the merge path by zeroing hash-join costs'
        // advantage: make sort nearly free.
        let mut b = CatalogBuilder::new();
        let probe = {
            let mut pb = CatalogBuilder::new();
            for name in ["r", "s", "t"] {
                let rel = pb.add_relation(
                    RelationSchema::new(name, vec![("k", AttrType::Int), ("v", AttrType::Int)]),
                    Partitioning::Single,
                );
                pb.set_stats(PartId::new(rel, 0), PartitionStats::synthetic(1, &[1, 1]));
                pb.place(PartId::new(rel, 0), NodeId(0));
            }
            pb.build().dict
        };
        let mut store = DataStore::new();
        for (i, _) in ["r", "s", "t"].iter().enumerate() {
            let rel = b.add_relation(
                RelationSchema::new(
                    ["r", "s", "t"][i],
                    vec![("k", AttrType::Int), ("v", AttrType::Int)],
                ),
                Partitioning::Single,
            );
            let rows: Vec<Vec<Value>> = (0..30)
                .map(|j| vec![Value::Int((j * (i as i64 + 3)) % 7), Value::Int(j)])
                .collect();
            store.load_relation(&probe, rel, rows);
            let part = PartId::new(rel, 0);
            b.set_stats(part, store.stats_of(&probe, part).unwrap());
            b.place(part, NodeId(0));
        }
        let cat = b.build();
        let q = parse_query(
            &cat.dict,
            "SELECT r.v, t.v FROM r, s, t WHERE r.k = s.k AND s.k = t.k",
        )
        .unwrap();
        let mut opt = LocalOptimizer::new(&cat);
        opt.params.sort_tuple_log = 0.0; // sorting free → merge joins win
        let o = opt.optimize(&q);
        let (merges, _, _) = count_ops(&o.plan);
        assert!(merges >= 1, "{}", o.plan.pretty());
        let got = execute(&o.plan, &store, &[]).unwrap();
        let want = evaluate_query(&q, &store).unwrap();
        assert!(same_rows(&got, &want));
    }
}
