//! The retained tree-cloning DP — the pre-arena implementation, kept
//! verbatim as the executable specification of the enumerators.
//!
//! [`ReferenceOptimizer`] builds every join candidate as a boxed
//! [`PhysPlan`] tree (deep-cloning both children per candidate) and
//! re-estimates cardinalities per candidate pair, exactly as the optimizer
//! did before the arena refactor. It exists so the equivalence suite can
//! assert the production [`crate::LocalOptimizer`] is **bit-identical** to
//! it — same plan shape, same cost bits, same rows/width bits, same effort,
//! same Pareto-set order — for both enumerators and any `max_k`. It is not
//! used on any production path.

use crate::dp::{order_covers, DpEntry, DpTable, JoinEnumerator};
use crate::local::Optimized;
use qt_catalog::{PartId, RelId};
use qt_cost::{CardinalityEstimator, CostParams, NodeResources, StatsSource};
use qt_exec::{AggSpec, PhysPlan};
use qt_query::{Col, CompOp, Operand, Predicate, Query, SelectItem};
use std::collections::BTreeSet;

/// One partial result as the reference builds it: plan materialized up
/// front (the production [`crate::PartialResult`] builds its plan on demand;
/// the equivalence suite compares the two).
#[derive(Debug, Clone)]
pub struct ReferencePartial {
    /// The sub-query this partial answers (restricted SPJ core).
    pub query: Query,
    /// Its local physical plan (output in `query.select` order).
    pub plan: PhysPlan,
    /// Local cost in node-seconds.
    pub cost: f64,
    /// Estimated output rows.
    pub rows: f64,
    /// Estimated output row width in bytes.
    pub width: f64,
}

/// The frozen tree-cloning optimizer. Mirrors [`crate::LocalOptimizer`]'s
/// configuration surface.
pub struct ReferenceOptimizer<'a, S: StatsSource> {
    source: &'a S,
    /// Shared operator cost constants.
    pub params: CostParams,
    /// This node's resources (scales all costs).
    pub resources: NodeResources,
    /// Join-enumeration strategy.
    pub enumerator: JoinEnumerator,
}

impl<'a, S: StatsSource> ReferenceOptimizer<'a, S> {
    /// Optimizer with reference parameters and exhaustive enumeration.
    pub fn new(source: &'a S) -> Self {
        ReferenceOptimizer {
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

    /// The original recursive `BTreeMap` union-find over join columns.
    fn col_canon(&self, q: &Query) -> std::collections::BTreeMap<Col, Col> {
        let mut canon: std::collections::BTreeMap<Col, Col> = std::collections::BTreeMap::new();
        fn find(canon: &mut std::collections::BTreeMap<Col, Col>, c: Col) -> Col {
            let parent = *canon.entry(c).or_insert(c);
            if parent == c {
                c
            } else {
                let root = find(canon, parent);
                canon.insert(c, root);
                root
            }
        }
        for p in q.join_predicates() {
            if p.op != CompOp::Eq {
                continue;
            }
            if let Operand::Col(rc) = &p.right {
                let a = find(&mut canon, p.left);
                let b = find(&mut canon, *rc);
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                canon.insert(hi, lo);
            }
        }
        // Flatten.
        let keys: Vec<Col> = canon.keys().copied().collect();
        for k in keys {
            let root = find(&mut canon, k);
            canon.insert(k, root);
        }
        canon
    }

    /// The original leaf: one `base_profile` call per partition *and* one
    /// more for the full partition set.
    fn leaf(&self, q: &Query, rel: RelId) -> DpEntry<PhysPlan> {
        let est = self.estimator();
        let parts = q.relations[&rel];
        let arity = self.source.dict().rel(rel).schema.arity();
        let mut scans: Vec<PhysPlan> = Vec::new();
        let mut scan_cost = 0.0;
        for idx in parts.iter() {
            let pid = PartId::new(rel, idx);
            let profile = est.base_profile(rel, &qt_query::PartSet::single(idx));
            scan_cost += self.params.scan(profile.rows, profile.width) * self.resources.io_factor();
            scans.push(PhysPlan::Scan { part: pid, arity });
        }
        let mut plan = if scans.len() == 1 {
            scans.pop().expect("one scan")
        } else {
            PhysPlan::Union { inputs: scans }
        };
        let base = est.base_profile(rel, &parts);
        let mut cost = scan_cost + self.params.union(base.rows) * self.resources.cpu_factor();
        let selections: Vec<Predicate> = q.selections_of(rel).cloned().collect();
        if !selections.is_empty() {
            cost += self.params.filter(base.rows) * self.resources.cpu_factor();
            plan = PhysPlan::Filter {
                input: Box::new(plan),
                predicates: selections,
            };
        }
        let profile = est.selected_profile(q, rel);
        DpEntry {
            plan,
            cost,
            rows: profile.rows,
            width: base.width,
            order: vec![],
        }
    }

    /// The original join: deep-clones `left.plan`/`right.plan` per physical
    /// candidate.
    #[allow(clippy::too_many_arguments)]
    fn join(
        &self,
        q: &Query,
        rels: &[RelId],
        canon: &std::collections::BTreeMap<Col, Col>,
        left_mask: u64,
        right_mask: u64,
        left: &DpEntry<PhysPlan>,
        right: &DpEntry<PhysPlan>,
        out_rows: f64,
    ) -> Vec<DpEntry<PhysPlan>> {
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
        let finish = |mut plan: PhysPlan, mut cost: f64, order: Vec<Col>| -> DpEntry<PhysPlan> {
            if !residual.is_empty() {
                plan = PhysPlan::Filter {
                    input: Box::new(plan),
                    predicates: residual.clone(),
                };
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
            let plan = PhysPlan::NlJoin {
                left: Box::new(left.plan.clone()),
                right: Box::new(right.plan.clone()),
                predicates: residual.clone(),
            };
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
        let (build, probe, build_rows) = if left.rows <= right.rows {
            (left, right, left.rows)
        } else {
            (right, left, right.rows)
        };
        let swapped = !std::ptr::eq(build, left);
        let build_keys: Vec<(Col, Col)> = if swapped {
            eq_keys.iter().map(|&(l, r)| (r, l)).collect()
        } else {
            eq_keys.clone()
        };
        let hash = finish(
            PhysPlan::HashJoin {
                left: Box::new(build.plan.clone()),
                right: Box::new(probe.plan.clone()),
                left_keys: build_keys.iter().map(|k| k.0).collect(),
                right_keys: build_keys.iter().map(|k| k.1).collect(),
            },
            self.params.hash_join(build_rows, probe.rows, out_rows) * cpu,
            vec![],
        );

        // Candidate 2: sort-merge join; reuses input key order (modulo the
        // query's column equivalence classes), produces key-ordered output.
        let lkeys: Vec<Col> = eq_keys.iter().map(|k| k.0).collect();
        let rkeys: Vec<Col> = eq_keys.iter().map(|k| k.1).collect();
        let canon_of = |cols: &[Col]| -> Vec<Col> {
            cols.iter()
                .map(|c| canon.get(c).copied().unwrap_or(*c))
                .collect()
        };
        let lkeys_c = canon_of(&lkeys);
        let rkeys_c = canon_of(&rkeys);
        let l_sorted = order_covers(&left.order, &lkeys_c);
        let r_sorted = order_covers(&right.order, &rkeys_c);
        let mut merge_cost = self.params.merge_join(left.rows, right.rows, out_rows) * cpu;
        if !l_sorted {
            merge_cost += self.params.sort(left.rows) * cpu;
        }
        if !r_sorted {
            merge_cost += self.params.sort(right.rows) * cpu;
        }
        let enforce = |side: &DpEntry<PhysPlan>, keys: &[Col], sorted: bool| -> PhysPlan {
            if sorted {
                side.plan.clone()
            } else {
                PhysPlan::Sort {
                    input: Box::new(side.plan.clone()),
                    keys: keys.to_vec(),
                }
            }
        };
        let merge = finish(
            PhysPlan::MergeJoin {
                left: Box::new(enforce(left, &lkeys, l_sorted)),
                right: Box::new(enforce(right, &rkeys, r_sorted)),
                left_keys: lkeys,
                right_keys: rkeys,
            },
            merge_cost,
            lkeys_c,
        );
        vec![hash, merge]
    }

    /// The original enumerator: re-estimates `join_rows` per candidate pair.
    fn enumerate(&self, q: &Query) -> (DpTable<PhysPlan>, Vec<RelId>, u64) {
        let rels: Vec<RelId> = q.rel_ids().collect();
        let n = rels.len();
        assert!(n <= 63, "too many relations");
        let est = self.estimator();
        let canon = self.col_canon(q);
        let mut table = DpTable::new(n);
        let mut effort = 0u64;
        for (i, &rel) in rels.iter().enumerate() {
            table.insert(1u64 << i, self.leaf(q, rel));
            effort += 1;
        }
        let rels_of = |mask: u64| -> Vec<RelId> {
            rels.iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, &r)| r)
                .collect()
        };
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
                        let out_rows = est.join_rows(q, &rels_of(combined));
                        // Pareto sets: every (ordered/unordered) pairing is a
                        // distinct sub-plan to consider.
                        let lefts: Vec<DpEntry<PhysPlan>> = table.entries(m1).to_vec();
                        let rights: Vec<DpEntry<PhysPlan>> = table.entries(m2).to_vec();
                        for l in &lefts {
                            for r in &rights {
                                for entry in self.join(q, &rels, &canon, m1, m2, l, r, out_rows) {
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
        (table, rels, effort)
    }

    /// The original `optimize`: see [`crate::LocalOptimizer::optimize`].
    pub fn optimize(&self, q: &Query) -> Optimized {
        let (table, rels, effort) = self.enumerate(q);
        let n = rels.len();
        let full: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        let cpu = self.resources.cpu_factor();
        let canon = self.col_canon(q);
        let order_by_c: Vec<Col> = q
            .order_by
            .iter()
            .map(|c| canon.get(c).copied().unwrap_or(*c))
            .collect();
        // Pick the Pareto entry whose *finished* cost (including any final
        // sort the query's ORDER BY needs) is lowest.
        let entry = table
            .entries(full)
            .iter()
            .min_by(|a, b| {
                let fin = |e: &DpEntry<PhysPlan>| {
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
            .expect("DP always reaches the full set")
            .clone();
        let est = self.estimator();
        let final_est = est.estimate(q);
        let mut plan = entry.plan;
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

    /// The original `partial_results`: constructs a fresh estimator and
    /// calls `estimate()` inside the per-subset loop. See
    /// [`crate::LocalOptimizer::partial_results`].
    pub fn partial_results(&self, q: &Query, max_k: usize) -> (Vec<ReferencePartial>, u64) {
        let (table, rels, effort) = self.enumerate(q);
        let n = rels.len();
        let cpu = self.resources.cpu_factor();
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
            let cols: Vec<Col> = sub_query
                .select
                .iter()
                .map(|s| s.col().expect("SPJ core has only plain columns"))
                .collect();
            let width: f64 = {
                let est = self.estimator();
                est.estimate(&sub_query).width
            };
            let plan = PhysPlan::Project {
                input: Box::new(entry.plan.clone()),
                cols,
            };
            let cost = entry.cost + self.params.filter(entry.rows) * cpu;
            out.push(ReferencePartial {
                query: sub_query,
                plan,
                cost,
                rows: entry.rows,
                width,
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
