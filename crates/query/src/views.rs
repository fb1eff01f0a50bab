//! Materialized views and the matching used by the seller predicates
//! analyser (§3.5).
//!
//! A seller holding a materialized view that subsumes (part of) a requested
//! query can offer the view's contents cheaply — "it is worth offering (in
//! small value) the contents of this materialized view to the buyer". The
//! matcher answers: *can `query` be computed from `view` by further
//! selection, projection, and (re-)aggregation?*

use crate::contain::{implies, implies_all};
use crate::predicate::{Col, Predicate};
use crate::query::{Query, SelectItem};
use std::collections::BTreeSet;
use std::fmt;

/// A named materialized view: a query whose result a node keeps materialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaterializedView {
    /// View name, unique per node.
    pub name: String,
    /// The defining query.
    pub query: Query,
}

impl MaterializedView {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, query: Query) -> Self {
        MaterializedView {
            name: name.into(),
            query,
        }
    }
}

/// A successful view match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewMatch {
    /// Selection predicates that must still be applied on top of the view's
    /// rows (those of the query not already enforced by the view).
    pub residual_predicates: Vec<Predicate>,
    /// Whether the query needs re-aggregation of the view's (finer) groups.
    pub needs_reaggregation: bool,
    /// `true` when the view rows are exactly the query's answer — same
    /// output list and row order, no residual work at all. Consumers may
    /// reuse the rows verbatim; anything less needs a compensation step.
    pub exact: bool,
}

impl fmt::Display for ViewMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ViewMatch(residuals={}, reagg={}, exact={})",
            self.residual_predicates.len(),
            self.needs_reaggregation,
            self.exact
        )
    }
}

/// Try to answer `query` from `view`.
///
/// Sound but incomplete (like all practical view matchers): a `Some` result
/// is always a valid rewriting; `None` means "no rewriting found".
///
/// Supported cases:
///
/// 1. **SPJ from SPJ**: same relation sets and partition subsets, the view's
///    predicates implied by the query's (view weaker ⇒ superset), and the
///    view outputs every column the query needs. Residual = query predicates
///    not implied by the view's.
/// 2. **Aggregate from SPJ**: as above, plus the query's group-by keys and
///    aggregate arguments all present in the view output.
/// 3. **Aggregate from finer aggregate** (the paper's §3.5 example: a view
///    grouped by `(office, custid)` answering a query grouped by `office`):
///    mutually-implied predicates, query group-by ⊆ view group-by, and every
///    query aggregate present in the view with a decomposable function.
pub fn match_view(view: &Query, query: &Query) -> Option<ViewMatch> {
    // FROM must agree exactly (same relations, same partition subsets):
    // a view over *fewer* partitions can't produce the missing rows, and one
    // over *more* would need partition-level filtering we don't attempt.
    if view.relations != query.relations {
        return None;
    }

    let view_cols: BTreeSet<Col> = view.select.iter().filter_map(|s| s.col()).collect();

    if !view.is_aggregate() {
        // Cases 1 and 2: the view is a superset of the query's SPJ core iff
        // the view's predicates are implied by the query's.
        if !implies_all(&query.predicates, &view.predicates) {
            return None;
        }
        let residual: Vec<Predicate> = query
            .predicates
            .iter()
            .filter(|p| !implies(&view.predicates, p))
            .cloned()
            .collect();
        // Residual predicates are applied on view *rows*, so every column
        // they mention must be in the view output, as must every column the
        // query's own outputs need.
        let needed: BTreeSet<Col> = query
            .all_cols()
            .into_iter()
            .filter(|c| {
                // Columns used only by non-residual (already enforced)
                // predicates need not be present.
                query.select.iter().any(|s| s.col() == Some(*c))
                    || query.group_by.contains(c)
                    || query.order_by.contains(c)
                    || residual.iter().any(|p| p.cols().any(|pc| pc == *c))
            })
            .collect();
        if !needed.is_subset(&view_cols) {
            return None;
        }
        // `exact` promises the view rows *are* the answer, so beyond residual
        // emptiness it needs the same output list (width and order) and the
        // same row order — a reordered/narrowed projection or a differing
        // ORDER BY is still a match, just not an exact one.
        let exact = residual.is_empty()
            && !query.is_aggregate()
            && view.select == query.select
            && view.order_by == query.order_by;
        return Some(ViewMatch {
            residual_predicates: residual,
            needs_reaggregation: query.is_aggregate(),
            exact,
        });
    }

    // Case 3: aggregate view. Require mutually-implied predicates (equal
    // logical selections) — a weaker view would have aggregated-in rows we
    // cannot subtract out.
    if !query.is_aggregate()
        || !implies_all(&query.predicates, &view.predicates)
        || !implies_all(&view.predicates, &query.predicates)
    {
        return None;
    }
    // Query group-by must be a subset of the view's (coarser grouping), and
    // every group key must actually be *output* by the view — grouping on a
    // column the view grouped by but projected away is impossible.
    let view_groups: BTreeSet<Col> = view.group_by.iter().copied().collect();
    if !query
        .group_by
        .iter()
        .all(|c| view_groups.contains(c) && view.select.contains(&SelectItem::Col(*c)))
    {
        return None;
    }
    // Every query aggregate must be present in the view and decomposable;
    // plain query outputs must be view group-by keys present in the view's
    // own output (group-key membership alone doesn't put them in the rows).
    for item in &query.select {
        match item {
            SelectItem::Col(c) => {
                if !view_groups.contains(c) || !view.select.contains(&SelectItem::Col(*c)) {
                    return None;
                }
            }
            SelectItem::Agg { func, arg } => {
                if !func.is_decomposable() {
                    return None;
                }
                if !view.select.contains(&SelectItem::Agg {
                    func: *func,
                    arg: *arg,
                }) {
                    return None;
                }
            }
        }
    }
    // Same grouping cardinality ⇒ identical groups (query keys ⊆ view keys
    // with equal counts), so no re-aggregation; but rows are only *exactly*
    // the answer when the output lists agree too (aggregate queries carry no
    // ORDER BY, so the select list is the whole story).
    let same_groups = view.group_by.len() == query.group_by.len();
    Some(ViewMatch {
        residual_predicates: Vec::new(),
        needs_reaggregation: !same_groups,
        exact: same_groups && view.select == query.select,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CompOp;
    use crate::query::tests::telecom_dict;
    use crate::query::AggFunc;
    use qt_catalog::RelId;

    fn cust() -> RelId {
        RelId(0)
    }
    fn inv() -> RelId {
        RelId(1)
    }

    fn dict() -> std::sync::Arc<qt_catalog::SchemaDict> {
        telecom_dict()
    }

    fn join_pred() -> Predicate {
        Predicate::eq_cols(Col::new(cust(), 0), Col::new(inv(), 2))
    }

    #[test]
    fn spj_view_answers_restricted_query() {
        let d = dict();
        let view = Query::over_full(&d, [cust()]).with_select(vec![
            SelectItem::Col(Col::new(cust(), 0)),
            SelectItem::Col(Col::new(cust(), 1)),
            SelectItem::Col(Col::new(cust(), 2)),
        ]);
        let query = Query::over_full(&d, [cust()])
            .with_predicates(vec![Predicate::with_const(
                Col::new(cust(), 0),
                CompOp::Gt,
                10i64,
            )])
            .with_select(vec![SelectItem::Col(Col::new(cust(), 1))]);
        let m = match_view(&view, &query).unwrap();
        assert_eq!(m.residual_predicates.len(), 1);
        assert!(!m.exact);
        assert!(!m.needs_reaggregation);
    }

    #[test]
    fn view_missing_needed_column_fails() {
        let d = dict();
        let view =
            Query::over_full(&d, [cust()]).with_select(vec![SelectItem::Col(Col::new(cust(), 1))]);
        let query =
            Query::over_full(&d, [cust()]).with_select(vec![SelectItem::Col(Col::new(cust(), 2))]);
        assert!(match_view(&view, &query).is_none());
    }

    #[test]
    fn view_with_stronger_predicates_fails() {
        let d = dict();
        let view = Query::over_full(&d, [cust()])
            .with_predicates(vec![Predicate::with_const(
                Col::new(cust(), 0),
                CompOp::Gt,
                10i64,
            )])
            .with_select(vec![SelectItem::Col(Col::new(cust(), 1))]);
        let query =
            Query::over_full(&d, [cust()]).with_select(vec![SelectItem::Col(Col::new(cust(), 1))]);
        assert!(match_view(&view, &query).is_none());
    }

    #[test]
    fn exact_match_is_exact() {
        let d = dict();
        let q = Query::over_full(&d, [cust()])
            .with_predicates(vec![Predicate::with_const(
                Col::new(cust(), 0),
                CompOp::Gt,
                10i64,
            )])
            .with_select(vec![SelectItem::Col(Col::new(cust(), 1))]);
        let m = match_view(&q, &q).unwrap();
        assert!(m.exact);
        assert!(m.residual_predicates.is_empty());
    }

    #[test]
    fn paper_finer_aggregate_view_matches_coarser_query() {
        // View: SELECT office, custid-ish grouping with SUM(charge)
        // grouped by (office, custname); query groups by office only.
        let d = dict();
        let sum = SelectItem::Agg {
            func: AggFunc::Sum,
            arg: Some(Col::new(inv(), 3)),
        };
        let view = Query::over_full(&d, [cust(), inv()])
            .with_predicates(vec![join_pred()])
            .with_select(vec![
                SelectItem::Col(Col::new(cust(), 2)),
                SelectItem::Col(Col::new(cust(), 1)),
                sum,
            ])
            .with_group_by(vec![Col::new(cust(), 2), Col::new(cust(), 1)]);
        let query = Query::over_full(&d, [cust(), inv()])
            .with_predicates(vec![join_pred()])
            .with_select(vec![SelectItem::Col(Col::new(cust(), 2)), sum])
            .with_group_by(vec![Col::new(cust(), 2)]);
        let m = match_view(&view, &query).unwrap();
        assert!(m.needs_reaggregation);
        assert!(!m.exact);
    }

    #[test]
    fn coarser_view_cannot_answer_finer_query() {
        let d = dict();
        let sum = SelectItem::Agg {
            func: AggFunc::Sum,
            arg: Some(Col::new(inv(), 3)),
        };
        let view = Query::over_full(&d, [cust(), inv()])
            .with_predicates(vec![join_pred()])
            .with_select(vec![SelectItem::Col(Col::new(cust(), 2)), sum])
            .with_group_by(vec![Col::new(cust(), 2)]);
        let query = Query::over_full(&d, [cust(), inv()])
            .with_predicates(vec![join_pred()])
            .with_select(vec![
                SelectItem::Col(Col::new(cust(), 2)),
                SelectItem::Col(Col::new(cust(), 1)),
                sum,
            ])
            .with_group_by(vec![Col::new(cust(), 2), Col::new(cust(), 1)]);
        assert!(match_view(&view, &query).is_none());
    }

    #[test]
    fn avg_is_not_derivable_from_finer_groups() {
        let d = dict();
        let avg = SelectItem::Agg {
            func: AggFunc::Avg,
            arg: Some(Col::new(inv(), 3)),
        };
        let view = Query::over_full(&d, [cust(), inv()])
            .with_predicates(vec![join_pred()])
            .with_select(vec![
                SelectItem::Col(Col::new(cust(), 2)),
                SelectItem::Col(Col::new(cust(), 1)),
                avg,
            ])
            .with_group_by(vec![Col::new(cust(), 2), Col::new(cust(), 1)]);
        let query = Query::over_full(&d, [cust(), inv()])
            .with_predicates(vec![join_pred()])
            .with_select(vec![SelectItem::Col(Col::new(cust(), 2)), avg])
            .with_group_by(vec![Col::new(cust(), 2)]);
        assert!(match_view(&view, &query).is_none());
    }

    #[test]
    fn different_partition_sets_fail() {
        let d = dict();
        let view = Query::over_full(&d, [cust()])
            .with_select(vec![SelectItem::Col(Col::new(cust(), 1))])
            .with_partset(cust(), crate::partset::PartSet::single(0));
        let query =
            Query::over_full(&d, [cust()]).with_select(vec![SelectItem::Col(Col::new(cust(), 1))]);
        assert!(match_view(&view, &query).is_none());
    }

    #[test]
    fn projected_away_group_key_is_rejected() {
        // View groups by (office, custname) but outputs only (office, SUM):
        // a query selecting custname cannot be answered — custname is not in
        // the view's rows even though it is among its group keys.
        let d = dict();
        let sum = SelectItem::Agg {
            func: AggFunc::Sum,
            arg: Some(Col::new(inv(), 3)),
        };
        let view = Query::over_full(&d, [cust(), inv()])
            .with_predicates(vec![join_pred()])
            .with_select(vec![SelectItem::Col(Col::new(cust(), 2)), sum])
            .with_group_by(vec![Col::new(cust(), 2), Col::new(cust(), 1)]);
        let query = Query::over_full(&d, [cust(), inv()])
            .with_predicates(vec![join_pred()])
            .with_select(vec![SelectItem::Col(Col::new(cust(), 1)), sum])
            .with_group_by(vec![Col::new(cust(), 1)]);
        assert!(match_view(&view, &query).is_none());
        // Same hole through GROUP BY: grouping by the projected-away key is
        // equally impossible even when the output columns are available.
        let query = Query::over_full(&d, [cust(), inv()])
            .with_predicates(vec![join_pred()])
            .with_select(vec![SelectItem::Col(Col::new(cust(), 2)), sum])
            .with_group_by(vec![Col::new(cust(), 2), Col::new(cust(), 1)]);
        assert!(match_view(&view, &query).is_none());
    }

    #[test]
    fn differing_order_by_is_a_match_but_not_exact() {
        let d = dict();
        let sel = vec![SelectItem::Col(Col::new(cust(), 1))];
        let view = Query::over_full(&d, [cust()]).with_select(sel.clone());
        let query = Query::over_full(&d, [cust()])
            .with_select(sel)
            .with_order_by(vec![Col::new(cust(), 1)]);
        let m = match_view(&view, &query).unwrap();
        assert!(!m.exact, "unordered view rows are not the ordered answer");
        assert!(m.residual_predicates.is_empty());
        // And the reverse: an ordered view answering an unordered query is a
        // valid (order-insensitive) match but not certified row-exact.
        let m = match_view(&query, &view.clone()).unwrap();
        assert!(!m.exact);
    }

    #[test]
    fn reordered_projection_is_not_exact() {
        let d = dict();
        let view = Query::over_full(&d, [cust()]).with_select(vec![
            SelectItem::Col(Col::new(cust(), 1)),
            SelectItem::Col(Col::new(cust(), 2)),
        ]);
        let query = Query::over_full(&d, [cust()]).with_select(vec![
            SelectItem::Col(Col::new(cust(), 2)),
            SelectItem::Col(Col::new(cust(), 1)),
        ]);
        let m = match_view(&view, &query).unwrap();
        assert!(!m.exact, "column order differs; rows are not verbatim");
        assert!(!m.needs_reaggregation);
    }

    #[test]
    fn same_groups_different_select_matches_without_reaggregation() {
        let d = dict();
        let sum = SelectItem::Agg {
            func: AggFunc::Sum,
            arg: Some(Col::new(inv(), 3)),
        };
        let cnt = SelectItem::Agg {
            func: AggFunc::Count,
            arg: None,
        };
        let view = Query::over_full(&d, [cust(), inv()])
            .with_predicates(vec![join_pred()])
            .with_select(vec![SelectItem::Col(Col::new(cust(), 2)), sum, cnt])
            .with_group_by(vec![Col::new(cust(), 2)]);
        let query = Query::over_full(&d, [cust(), inv()])
            .with_predicates(vec![join_pred()])
            .with_select(vec![SelectItem::Col(Col::new(cust(), 2)), sum])
            .with_group_by(vec![Col::new(cust(), 2)]);
        let m = match_view(&view, &query).unwrap();
        assert!(!m.needs_reaggregation, "identical groups need no re-agg");
        assert!(!m.exact, "narrower projection is compensation work");
    }

    #[test]
    fn aggregate_view_for_spj_query_fails() {
        let d = dict();
        let view = Query::over_full(&d, [cust()])
            .with_select(vec![
                SelectItem::Col(Col::new(cust(), 2)),
                SelectItem::Agg {
                    func: AggFunc::Count,
                    arg: None,
                },
            ])
            .with_group_by(vec![Col::new(cust(), 2)]);
        let query =
            Query::over_full(&d, [cust()]).with_select(vec![SelectItem::Col(Col::new(cust(), 2))]);
        assert!(match_view(&view, &query).is_none());
    }
}
