//! The seller-side query-rewriting algorithm of §3.4.
//!
//! > "Sellers may not have all necessary base relations, or relations'
//! > partitions, to process all elements of Q. Therefore, they initially
//! > examine each query of Q and rewrite it … removing all non-local
//! > relations and restricting the base-relation extents to those partitions
//! > available locally."
//!
//! In the running example, the Myconos node holds all of `invoiceline` but
//! only the `office = 'Myconos'` partition of `customer`; the rewrite
//! produces the same query restricted to that partition.

use crate::partset::PartSet;
use crate::query::Query;
use qt_catalog::{NodeHoldings, RelId};
use std::collections::BTreeMap;

/// Rewrite `q` for the node described by `holdings`: drop relations the node
/// holds nothing of, and restrict every kept relation's extent to the
/// partitions held locally (intersected with what `q` asked for).
///
/// Aggregation is stripped — what a seller can always offer is the SPJ core
/// over its fragment; whether a *partial aggregate* may be offered instead is
/// a separate, plan-level decision (see `qt-core`).
///
/// Returns `None` when the node holds no useful data at all.
pub fn rewrite_for_holdings(q: &Query, holdings: &NodeHoldings) -> Option<Query> {
    let kept: BTreeMap<RelId, PartSet> = q
        .relations
        .iter()
        .filter_map(|(&rel, wanted)| {
            let have = PartSet::from_part_ids(rel, holdings.held_parts(rel));
            let local = wanted.intersect(&have);
            (!local.is_empty()).then_some((rel, local))
        })
        .collect();
    if kept.is_empty() {
        return None;
    }
    // The SPJ core restricted to the kept relations, over the local extents.
    Some(q.sub_join(kept, q.core_cols()))
}

/// Can this node answer `q` *exactly* by itself — i.e. does it hold every
/// requested partition of every relation in `q`?
pub fn can_answer_exactly(q: &Query, holdings: &NodeHoldings) -> bool {
    q.relations.iter().all(|(&rel, wanted)| {
        let have = PartSet::from_part_ids(rel, holdings.held_parts(rel));
        wanted.is_subset(&have)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Col, Predicate};
    use crate::query::{AggFunc, SelectItem};
    use qt_catalog::{
        AttrType, Catalog, CatalogBuilder, NodeId, PartId, PartitionStats, Partitioning,
        RelationSchema, Value,
    };

    /// Telecom catalog: customer list-partitioned by office over 3 nodes,
    /// invoiceline whole on node 2 (Myconos) and on node 3, which holds no
    /// customer partition.
    fn catalog() -> Catalog {
        let mut b = CatalogBuilder::new();
        let cust = b.add_relation(
            RelationSchema::new(
                "customer",
                vec![
                    ("custid", AttrType::Int),
                    ("custname", AttrType::Str),
                    ("office", AttrType::Str),
                ],
            ),
            Partitioning::List {
                attr: 2,
                groups: vec![
                    vec![Value::str("Athens")],
                    vec![Value::str("Corfu")],
                    vec![Value::str("Myconos")],
                ],
            },
        );
        let inv = b.add_relation(
            RelationSchema::new(
                "invoiceline",
                vec![
                    ("invid", AttrType::Int),
                    ("linenum", AttrType::Int),
                    ("custid", AttrType::Int),
                    ("charge", AttrType::Float),
                ],
            ),
            Partitioning::Single,
        );
        for i in 0..3u16 {
            b.set_stats(
                PartId::new(cust, i),
                PartitionStats::synthetic(100, &[100, 90, 1]),
            );
            b.place(PartId::new(cust, i), NodeId(i as u32));
        }
        b.set_stats(
            PartId::new(inv, 0),
            PartitionStats::synthetic(1000, &[200, 5, 300, 50]),
        );
        b.place(PartId::new(inv, 0), NodeId(2));
        b.place(PartId::new(inv, 0), NodeId(3));
        b.build()
    }

    fn motivating(catalog: &Catalog) -> Query {
        let cust = RelId(0);
        let inv = RelId(1);
        Query::over_full(&catalog.dict, [cust, inv])
            .with_predicates(vec![Predicate::eq_cols(
                Col::new(cust, 0),
                Col::new(inv, 2),
            )])
            .with_select(vec![
                SelectItem::Col(Col::new(cust, 2)),
                SelectItem::Agg {
                    func: AggFunc::Sum,
                    arg: Some(Col::new(inv, 3)),
                },
            ])
            .with_group_by(vec![Col::new(cust, 2)])
    }

    #[test]
    fn myconos_keeps_both_relations_restricted() {
        let c = catalog();
        let q = motivating(&c);
        let myconos = c.holdings_of(NodeId(2));
        let rw = rewrite_for_holdings(&q, &myconos).unwrap();
        rw.validate(&c.dict).unwrap();
        assert_eq!(rw.num_relations(), 2);
        // customer restricted to the Myconos partition (index 2).
        assert_eq!(rw.relations[&RelId(0)], PartSet::single(2));
        // invoiceline fully available.
        assert_eq!(rw.relations[&RelId(1)], PartSet::all(1));
        // Join predicate survives since both relations survive.
        assert_eq!(rw.join_predicates().count(), 1);
        // Aggregation is stripped; office and charge are plain outputs.
        assert!(!rw.is_aggregate());
        let sql = rw.display_with(&c.dict).to_string();
        assert!(sql.contains("office = 'Myconos'"), "{sql}");
    }

    #[test]
    fn athens_loses_invoiceline() {
        let c = catalog();
        let q = motivating(&c);
        let athens = c.holdings_of(NodeId(0));
        let rw = rewrite_for_holdings(&q, &athens).unwrap();
        assert_eq!(rw.num_relations(), 1);
        assert_eq!(rw.relations[&RelId(0)], PartSet::single(0));
        // The cross-relation join predicate is dropped with invoiceline, but
        // the join column custid must still be in the output.
        assert_eq!(rw.join_predicates().count(), 0);
        assert!(rw.select.contains(&SelectItem::Col(Col::new(RelId(0), 0))));
    }

    /// The rewrite is `strip_aggregation().restrict_to_rels(..)` over the
    /// locally held relations, `COUNT(*)` fallback columns included: the
    /// core's stand-in column sits on the *first* relation, so a node without
    /// it falls through to what the kept relations' predicates mention, and
    /// from there to each kept relation's first attribute.
    #[test]
    fn count_star_rewrite_without_the_first_relation_matches_strip_then_restrict() {
        let c = catalog();
        let (cust, inv) = (RelId(0), RelId(1));
        let count_star = vec![SelectItem::Agg {
            func: AggFunc::Count,
            arg: None,
        }];
        let cross = Query::over_full(&c.dict, [cust, inv]).with_select(count_star);
        let joined = cross.clone().with_predicates(vec![Predicate::eq_cols(
            Col::new(cust, 0),
            Col::new(inv, 2),
        )]);
        let inv_only = c.holdings_of(NodeId(3));
        for (q, want_select) in [(&joined, Col::new(inv, 2)), (&cross, Col::new(inv, 0))] {
            q.validate(&c.dict).unwrap();
            let rw = rewrite_for_holdings(q, &inv_only).unwrap();
            assert_eq!(
                rw,
                q.strip_aggregation()
                    .restrict_to_rels(&std::collections::BTreeSet::from([inv]))
            );
            assert_eq!(rw.select, vec![SelectItem::Col(want_select)]);
            rw.validate(&c.dict).unwrap();
        }
        // With the first relation held, its stand-in column is delivered.
        let rw = rewrite_for_holdings(&cross, &c.holdings_of(NodeId(2))).unwrap();
        assert_eq!(rw.select, vec![SelectItem::Col(Col::new(cust, 0))]);
    }

    #[test]
    fn data_less_node_gets_none() {
        let c = catalog();
        let q = motivating(&c);
        // Node 7 holds nothing.
        let empty = c.holdings_of(NodeId(7));
        assert!(rewrite_for_holdings(&q, &empty).is_none());
    }

    #[test]
    fn request_outside_holdings_is_none() {
        let c = catalog();
        let cust = RelId(0);
        // Ask only for the Corfu partition; Athens holds only Athens.
        let q = Query::new([(cust, PartSet::single(1))])
            .with_select(vec![SelectItem::Col(Col::new(cust, 1))]);
        let athens = c.holdings_of(NodeId(0));
        assert!(rewrite_for_holdings(&q, &athens).is_none());
    }

    #[test]
    fn exact_answer_detection() {
        let c = catalog();
        let q = motivating(&c);
        assert!(!can_answer_exactly(&q, &c.holdings_of(NodeId(2))));
        let cust = RelId(0);
        let q_myc = Query::new([(cust, PartSet::single(2))])
            .with_select(vec![SelectItem::Col(Col::new(cust, 1))]);
        assert!(can_answer_exactly(&q_myc, &c.holdings_of(NodeId(2))));
        assert!(!can_answer_exactly(&q_myc, &c.holdings_of(NodeId(0))));
    }

    #[test]
    fn rewrite_is_idempotent_on_local_query() {
        let c = catalog();
        let q = motivating(&c);
        let myconos = c.holdings_of(NodeId(2));
        let rw1 = rewrite_for_holdings(&q, &myconos).unwrap();
        let rw2 = rewrite_for_holdings(&rw1, &myconos).unwrap();
        assert_eq!(rw1, rw2);
    }
}
