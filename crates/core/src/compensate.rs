//! Compensation plans for semantic result-cache hits.
//!
//! The serving layer caches finished [`DistributedPlan`]s. When a new query
//! `Q` is subsumed by a cached plan's query `Q'` (per
//! [`qt_query::views::match_view`], the same §3.5 matcher sellers use for
//! materialized views), the cached purchases can be reused verbatim and only
//! the buyer-local assembly needs *compensation*: residual selection,
//! re-aggregation of finer groups, re-sorting, and a final projection. The
//! compensated assembly is lowered through
//! [`qt_optimizer::sink_predicates`] so residual filters sit as close to the
//! delivered rows as semantics allow.

use crate::dist_plan::DistributedPlan;
use qt_exec::{AggSpec, PhysPlan};
use qt_optimizer::sink_predicates;
use qt_query::views::ViewMatch;
use qt_query::{Col, Query, SelectItem};
use std::collections::BTreeSet;

/// Wrap `assembly` (which computes `cached`'s answer) so it computes
/// `query`'s answer instead, given a successful view match `m =
/// match_view(cached, query)`.
///
/// Returns `None` when the match cannot be compensated structurally (a
/// defensive check — `match_view`'s guarantees make every `Some` match
/// compensable, so `None` here indicates a matcher/plan disagreement and
/// callers must fall back to a cold run).
pub fn compensate_assembly(
    cached: &Query,
    query: &Query,
    m: &ViewMatch,
    assembly: PhysPlan,
) -> Option<PhysPlan> {
    if m.exact {
        // Same output list and row order: the cached rows are the answer.
        return Some(assembly);
    }
    let schema = assembly.schema();
    if schema.len() != cached.select.len() {
        return None;
    }
    // Position of a cached output item; plain columns appear in the
    // delivered schema under their own identity, aggregates under the
    // assembly's positional marker (see `answer_schema`).
    let pos_of = |item: &SelectItem| cached.select.iter().position(|s| s == item);

    let mut plan = assembly;
    if !m.residual_predicates.is_empty() {
        let have: BTreeSet<Col> = schema.iter().copied().collect();
        if m.residual_predicates
            .iter()
            .any(|p| p.cols().any(|c| !have.contains(&c)))
        {
            return None;
        }
        plan = PhysPlan::Filter {
            input: Box::new(plan),
            predicates: m.residual_predicates.clone(),
        };
    }

    if query.is_aggregate() {
        if cached.is_aggregate() {
            if m.needs_reaggregation {
                // Combine the cached (finer) groups into the query's coarser
                // ones: every query aggregate is decomposable (the matcher
                // checked), so re-aggregate its delivered column with the
                // function's combining form.
                let mut aggs = Vec::new();
                for item in &query.select {
                    if let SelectItem::Agg { func, .. } = item {
                        let p = pos_of(item)?;
                        aggs.push(AggSpec {
                            func: func.reaggregate_with(),
                            arg: Some(schema[p]),
                        });
                    }
                }
                plan = PhysPlan::HashAggregate {
                    input: Box::new(plan),
                    group_by: query.group_by.clone(),
                    aggs,
                };
                plan = project_interleaved(plan, query);
            } else {
                // Identical groups, different output list: pick the cached
                // columns positionally.
                let mut cols = Vec::with_capacity(query.select.len());
                for item in &query.select {
                    match item {
                        SelectItem::Col(c) => cols.push(*c),
                        SelectItem::Agg { .. } => cols.push(schema[pos_of(item)?]),
                    }
                }
                plan = PhysPlan::Project {
                    input: Box::new(plan),
                    cols,
                };
            }
        } else {
            // Aggregate over delivered SPJ rows (matcher case 2).
            let aggs: Vec<AggSpec> = query
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
                group_by: query.group_by.clone(),
                aggs,
            };
            plan = project_interleaved(plan, query);
        }
    } else {
        if !query.order_by.is_empty() {
            plan = PhysPlan::Sort {
                input: Box::new(plan),
                keys: query.order_by.clone(),
            };
        }
        let cols: Vec<Col> = query
            .select
            .iter()
            .map(|s| match s {
                SelectItem::Col(c) => Some(*c),
                SelectItem::Agg { .. } => None,
            })
            .collect::<Option<_>>()?;
        plan = PhysPlan::Project {
            input: Box::new(plan),
            cols,
        };
    }
    Some(sink_predicates(&plan))
}

/// The standard aggregate output projection: group keys under their own
/// identity, aggregate outputs addressed by the aggregate's positional
/// marker column (same shape as the plan generator's final projection).
fn project_interleaved(agged: PhysPlan, q: &Query) -> PhysPlan {
    let agg_schema = agged.schema();
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
    PhysPlan::Project {
        input: Box::new(agged),
        cols,
    }
}

/// Derive a [`DistributedPlan`] for `query` from a cached plan for a
/// subsuming query: same purchases (the rows were already traded for), a
/// compensated assembly, and the cached estimate (the trade it describes is
/// the one being reused).
pub fn compensate_plan(
    cached: &DistributedPlan,
    query: &Query,
    m: &ViewMatch,
) -> Option<DistributedPlan> {
    let assembly = compensate_assembly(&cached.query, query, m, cached.assembly.clone())?;
    Some(DistributedPlan {
        query: query.clone(),
        purchases: cached.purchases.clone(),
        assembly,
        est: cached.est,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QtConfig;
    use crate::driver::run_qt_direct;
    use crate::seller::SellerEngine;
    use qt_catalog::NodeId;
    use qt_exec::reference::approx_same_rows;
    use qt_exec::{evaluate_query, DataStore};
    use qt_query::parse_query;
    use qt_query::views::match_view;
    use qt_workload::{telecom_federation, TelecomSpec};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    struct Bed {
        cat: qt_catalog::Catalog,
        stores: BTreeMap<NodeId, DataStore>,
        union: DataStore,
    }

    fn bed() -> Bed {
        let (cat, stores) = telecom_federation(&TelecomSpec::default());
        let mut union = DataStore::new();
        for s in stores.values() {
            union.merge_from(s);
        }
        Bed { cat, stores, union }
    }

    fn optimize(bed: &Bed, sql: &str) -> (qt_query::Query, DistributedPlan) {
        let q = parse_query(&bed.cat.dict, sql).unwrap();
        let mut sellers: BTreeMap<NodeId, SellerEngine> = bed
            .stores
            .keys()
            .map(|&n| {
                (
                    n,
                    SellerEngine::new(bed.cat.holdings_of(n), QtConfig::default()),
                )
            })
            .collect();
        let out = run_qt_direct(
            NodeId(0),
            Arc::clone(&bed.cat.dict),
            &q,
            &mut sellers,
            &QtConfig::default(),
        );
        (q, out.plan.expect("trading converged"))
    }

    /// Compensate `cached_plan` for `sql`, execute both the compensated plan
    /// and the reference evaluator, and demand identical row sets.
    fn check(bed: &Bed, cached_sql: &str, sql: &str) -> DistributedPlan {
        let (_, cached) = optimize(bed, cached_sql);
        let q = parse_query(&bed.cat.dict, sql).unwrap();
        let m = match_view(&cached.query, &q).expect("subsumed");
        let plan = compensate_plan(&cached, &q, &m).expect("compensable");
        let got = plan.execute_on(&bed.cat.dict, &bed.stores).unwrap();
        let want = evaluate_query(&q, &bed.union).unwrap();
        // Relative tolerance: re-aggregation sums partials in a different
        // order than the reference evaluator (float addition drift).
        assert!(
            approx_same_rows(&got, &want, 1e-9),
            "{sql} from {cached_sql}"
        );
        plan
    }

    const WIDE: &str = "SELECT custname, office, charge FROM customer, invoiceline \
                        WHERE customer.custid = invoiceline.custid";

    #[test]
    fn residual_filter_and_projection() {
        let b = bed();
        check(
            &b,
            WIDE,
            "SELECT custname, charge FROM customer, invoiceline \
             WHERE customer.custid = invoiceline.custid AND charge > 100",
        );
    }

    #[test]
    fn aggregate_from_cached_spj_rows() {
        let b = bed();
        check(
            &b,
            WIDE,
            "SELECT office, SUM(charge) FROM customer, invoiceline \
             WHERE customer.custid = invoiceline.custid GROUP BY office",
        );
    }

    #[test]
    fn order_by_is_reestablished() {
        let b = bed();
        let plan = check(
            &b,
            WIDE,
            "SELECT custname FROM customer, invoiceline \
             WHERE customer.custid = invoiceline.custid ORDER BY custname",
        );
        // Order-sensitive: the compensated rows must equal the reference
        // rows *in order*, not just as a multiset.
        let got = plan.execute_on(&b.cat.dict, &b.stores).unwrap();
        let want = evaluate_query(&plan.query, &b.union).unwrap();
        assert_eq!(got, want, "ORDER BY must survive compensation verbatim");
    }

    #[test]
    fn reaggregates_finer_groups() {
        let b = bed();
        check(
            &b,
            "SELECT office, custname, SUM(charge) FROM customer, invoiceline \
             WHERE customer.custid = invoiceline.custid GROUP BY office, custname",
            "SELECT office, SUM(charge) FROM customer, invoiceline \
             WHERE customer.custid = invoiceline.custid GROUP BY office",
        );
    }

    #[test]
    fn same_groups_narrower_select_projects_without_reagg() {
        let b = bed();
        let plan = check(
            &b,
            "SELECT office, SUM(charge), COUNT(*) FROM customer, invoiceline \
             WHERE customer.custid = invoiceline.custid GROUP BY office",
            "SELECT office, SUM(charge) FROM customer, invoiceline \
             WHERE customer.custid = invoiceline.custid GROUP BY office",
        );
        // No re-aggregation: compensation is a pure projection, so the plan
        // gains no HashAggregate beyond the cached assembly's own.
        let mut aggs = 0;
        fn count(p: &PhysPlan, aggs: &mut usize) {
            if let PhysPlan::HashAggregate { .. } = p {
                *aggs += 1;
            }
            match p {
                PhysPlan::Filter { input, .. }
                | PhysPlan::Project { input, .. }
                | PhysPlan::Sort { input, .. }
                | PhysPlan::HashAggregate { input, .. } => count(input, aggs),
                PhysPlan::HashJoin { left, right, .. }
                | PhysPlan::MergeJoin { left, right, .. }
                | PhysPlan::NlJoin { left, right, .. } => {
                    count(left, aggs);
                    count(right, aggs);
                }
                PhysPlan::Union { inputs } => inputs.iter().for_each(|i| count(i, aggs)),
                PhysPlan::Scan { .. } | PhysPlan::Input { .. } => {}
            }
        }
        count(&plan.assembly, &mut aggs);
        assert!(aggs <= 1, "same-group hit must not re-aggregate");
    }

    #[test]
    fn exact_match_reuses_assembly_verbatim() {
        let b = bed();
        let (q, cached) = optimize(&b, WIDE);
        let m = match_view(&cached.query, &q).unwrap();
        assert!(m.exact);
        let plan = compensate_plan(&cached, &q, &m).unwrap();
        assert_eq!(plan.assembly, cached.assembly);
    }
}
