//! Focused tests of the buyer plan generator: offer classification, greedy
//! disjoint covers, DP joins, the partial-aggregate path, and the
//! whole-answer shortcut.

use qt_catalog::{
    AttrType, CatalogBuilder, NodeId, PartId, PartitionStats, Partitioning, RelId, RelationSchema,
};
use qt_core::plangen::PlanGenerator;
use qt_core::{Offer, OfferKind, QtConfig};
use qt_cost::{AnswerProperties, NodeResources};
use qt_query::{parse_query, Col, PartSet, Predicate, Query, SelectItem, SharedQuery};
use std::sync::Arc;

/// r(a,b) with 4 hash partitions, s(a,c) single partition.
fn dict() -> Arc<qt_catalog::SchemaDict> {
    let mut b = CatalogBuilder::new();
    let r = b.add_relation(
        RelationSchema::new("r", vec![("a", AttrType::Int), ("b", AttrType::Int)]),
        Partitioning::Hash { attr: 0, parts: 4 },
    );
    let s = b.add_relation(
        RelationSchema::new("s", vec![("a", AttrType::Int), ("c", AttrType::Int)]),
        Partitioning::Single,
    );
    for i in 0..4 {
        b.set_stats(
            PartId::new(r, i),
            PartitionStats::synthetic(100, &[100, 10]),
        );
        b.place(PartId::new(r, i), NodeId(1));
    }
    b.set_stats(PartId::new(s, 0), PartitionStats::synthetic(50, &[50, 5]));
    b.place(PartId::new(s, 0), NodeId(2));
    b.build().dict
}

fn join_query(d: &qt_catalog::SchemaDict) -> Query {
    parse_query(d, "SELECT b, c FROM r, s WHERE r.a = s.a").unwrap()
}

/// Hand-build a fragment offer for `subset` with the given partition sets
/// and time.
fn frag(id: u64, seller: u32, q: &Query, rel_parts: &[(RelId, PartSet)], time: f64) -> Offer {
    let subset: std::collections::BTreeSet<RelId> = rel_parts.iter().map(|(r, _)| *r).collect();
    let mut fq = q.strip_aggregation().restrict_to_rels(&subset);
    for (rel, parts) in rel_parts {
        fq.relations.insert(*rel, *parts);
    }
    Offer {
        id,
        seller: NodeId(seller),
        query: fq.into(),
        props: AnswerProperties::timed(time, 10.0, 100.0),
        true_cost: time,
        kind: OfferKind::Rows,
        round: 0,
        subcontracts: vec![],
    }
}

/// Offer queries are immutable handles: a changed query is a new handle.
fn reshape(o: &mut Offer, change: impl FnOnce(&mut Query)) {
    let mut q = Query::clone(&o.query);
    change(&mut q);
    o.query = q.into();
}

fn generator<'a>(
    d: &'a qt_catalog::SchemaDict,
    q: &'a Query,
    cfg: &'a QtConfig,
) -> PlanGenerator<'a> {
    PlanGenerator {
        dict: d,
        query: q,
        config: cfg,
        buyer_resources: NodeResources::reference(),
    }
}

#[test]
fn no_offers_means_no_plan() {
    let d = dict();
    let q = join_query(&d);
    let cfg = QtConfig::default();
    let gen = generator(&d, &q, &cfg).generate(&[]);
    assert!(gen.plan.is_none());
    assert!(gen.join_sites.is_empty());
}

#[test]
fn incomplete_coverage_means_no_plan() {
    let d = dict();
    let q = join_query(&d);
    let cfg = QtConfig::default();
    // Only 3 of r's 4 partitions are covered; s is fully covered.
    let offers = vec![
        frag(
            1,
            1,
            &q,
            &[(RelId(0), PartSet::from_indices([0, 1, 2]))],
            1.0,
        ),
        frag(2, 2, &q, &[(RelId(1), PartSet::all(1))], 1.0),
    ];
    let gen = generator(&d, &q, &cfg).generate(&offers);
    assert!(gen.plan.is_none(), "missing partition 3 of r");
}

#[test]
fn disjoint_fragments_union_and_join() {
    let d = dict();
    let q = join_query(&d);
    let cfg = QtConfig::default();
    let offers = vec![
        frag(1, 1, &q, &[(RelId(0), PartSet::from_indices([0, 1]))], 1.0),
        frag(2, 3, &q, &[(RelId(0), PartSet::from_indices([2, 3]))], 1.0),
        frag(3, 2, &q, &[(RelId(1), PartSet::all(1))], 1.0),
    ];
    let gen = generator(&d, &q, &cfg).generate(&offers);
    let plan = gen.plan.expect("cover exists");
    assert_eq!(plan.purchases.len(), 3);
    // A purchase is the pool's offer, not a copy of its query.
    for p in &plan.purchases {
        let pooled = offers.iter().find(|o| o.id == p.offer.id).expect("pooled");
        assert!(SharedQuery::ptr_eq(&p.offer.query, &pooled.query));
    }
    assert_eq!(
        gen.join_sites.len(),
        1,
        "one buyer-side join between r and s"
    );
    // The assembly joins a union of the two r fragments with s.
    let pretty = plan.assembly.pretty();
    assert!(pretty.contains("HashJoin"), "{pretty}");
    assert!(pretty.contains("Union"), "{pretty}");
}

#[test]
fn overlapping_fragments_resolved_by_singletons() {
    let d = dict();
    let q = join_query(&d);
    let cfg = QtConfig::default();
    // Two overlapping big fragments cannot tile; the per-partition
    // singletons (as real sellers emit) make the cover possible.
    let mut offers = vec![
        frag(
            1,
            1,
            &q,
            &[(RelId(0), PartSet::from_indices([0, 1, 2]))],
            1.5,
        ),
        frag(
            2,
            3,
            &q,
            &[(RelId(0), PartSet::from_indices([1, 2, 3]))],
            1.5,
        ),
        frag(9, 2, &q, &[(RelId(1), PartSet::all(1))], 1.0),
    ];
    for (i, idx) in [0u16, 1, 2, 3].iter().enumerate() {
        offers.push(frag(
            10 + i as u64,
            1,
            &q,
            &[(RelId(0), PartSet::single(*idx))],
            0.6,
        ));
    }
    let gen = generator(&d, &q, &cfg).generate(&offers);
    let plan = gen.plan.expect("tiling exists via singletons");
    // Coverage of r must be exactly {0,1,2,3} with no partition bought twice.
    let mut covered = PartSet::EMPTY;
    for p in &plan.purchases {
        if let Some(parts) = p.offer.query.relations.get(&RelId(0)) {
            assert!(covered.is_disjoint(parts), "no double-buying");
            covered = covered.union(parts);
        }
    }
    assert_eq!(covered, PartSet::all(4));
}

#[test]
fn cheapest_offer_wins_per_coverage_box() {
    let d = dict();
    let q = join_query(&d);
    let cfg = QtConfig::default();
    let offers = vec![
        frag(1, 1, &q, &[(RelId(0), PartSet::all(4))], 5.0),
        frag(2, 3, &q, &[(RelId(0), PartSet::all(4))], 1.0), // same box, cheaper
        frag(3, 2, &q, &[(RelId(1), PartSet::all(1))], 1.0),
    ];
    let gen = generator(&d, &q, &cfg).generate(&offers);
    let plan = gen.plan.expect("plan");
    let r_buy = plan
        .purchases
        .iter()
        .find(|p| p.offer.query.relations.contains_key(&RelId(0)))
        .unwrap();
    assert_eq!(r_buy.offer.id, 2, "cheaper duplicate box must win");
}

#[test]
fn whole_join_offer_beats_expensive_fragments() {
    let d = dict();
    let q = join_query(&d);
    let cfg = QtConfig::default();
    let offers = vec![
        frag(1, 1, &q, &[(RelId(0), PartSet::all(4))], 10.0),
        frag(2, 2, &q, &[(RelId(1), PartSet::all(1))], 10.0),
        // Node 5 offers the whole 2-way join cheaply.
        frag(
            3,
            5,
            &q,
            &[(RelId(0), PartSet::all(4)), (RelId(1), PartSet::all(1))],
            2.0,
        ),
    ];
    let gen = generator(&d, &q, &cfg).generate(&offers);
    let plan = gen.plan.expect("plan");
    assert_eq!(plan.purchases.len(), 1);
    assert_eq!(plan.purchases[0].offer.id, 3);
    assert!(gen.join_sites.is_empty(), "no buyer-side join needed");
}

#[test]
fn foreign_offers_are_ignored() {
    let d = dict();
    let q = join_query(&d);
    let cfg = QtConfig::default();
    // An offer whose select list does not match the expected fragment (extra
    // predicate → different fragment semantics) must be rejected.
    let mut wrong = frag(1, 1, &q, &[(RelId(0), PartSet::all(4))], 0.1);
    reshape(&mut wrong, |q| {
        q.predicates.push(Predicate::with_const(
            Col::new(RelId(0), 1),
            qt_query::CompOp::Gt,
            5i64,
        ));
        q.canonicalize();
    });
    let offers = vec![
        wrong,
        frag(2, 1, &q, &[(RelId(0), PartSet::all(4))], 3.0),
        frag(3, 2, &q, &[(RelId(1), PartSet::all(1))], 1.0),
    ];
    let gen = generator(&d, &q, &cfg).generate(&offers);
    let plan = gen.plan.expect("plan");
    let r_buy = plan
        .purchases
        .iter()
        .find(|p| p.offer.query.relations.contains_key(&RelId(0)))
        .unwrap();
    assert_eq!(r_buy.offer.id, 2, "over-filtered offer must not be used");
}

#[test]
fn partial_aggregates_require_matching_shape() {
    let d = dict();
    let q = parse_query(&d, "SELECT b, SUM(c) FROM r, s WHERE r.a = s.a GROUP BY b").unwrap();
    let cfg = QtConfig::default();
    // A valid partial-aggregate pair covering r's partitions {0,1} and {2,3}.
    let mk_agg = |id: u64, parts: PartSet, time: f64| Offer {
        id,
        seller: NodeId(id as u32),
        query: q.clone().with_partset(RelId(0), parts).into(),
        props: AnswerProperties::timed(time, 5.0, 40.0),
        true_cost: time,
        kind: OfferKind::PartialAggregate,
        round: 0,
        subcontracts: vec![],
    };
    let offers = vec![
        mk_agg(1, PartSet::from_indices([0, 1]), 0.5),
        mk_agg(2, PartSet::from_indices([2, 3]), 0.5),
    ];
    let gen = generator(&d, &q, &cfg).generate(&offers);
    let plan = gen.plan.expect("partial aggregates tile");
    assert_eq!(plan.purchases.len(), 2);
    assert!(
        plan.assembly.pretty().contains("HashAggregate"),
        "re-aggregation present"
    );

    // An AVG query cannot be assembled from *partial-coverage* aggregates
    // (a full-coverage one is simply the exact answer and stays usable).
    let avg_q = parse_query(&d, "SELECT b, AVG(c) FROM r, s WHERE r.a = s.a GROUP BY b").unwrap();
    let mk_avg = |id: u64, parts: PartSet| Offer {
        id,
        seller: NodeId(id as u32),
        query: avg_q.clone().with_partset(RelId(0), parts).into(),
        props: AnswerProperties::timed(0.5, 5.0, 40.0),
        true_cost: 0.5,
        kind: OfferKind::PartialAggregate,
        round: 0,
        subcontracts: vec![],
    };
    let partials = vec![
        mk_avg(3, PartSet::from_indices([0, 1])),
        mk_avg(4, PartSet::from_indices([2, 3])),
    ];
    let gen = generator(&d, &avg_q, &cfg).generate(&partials);
    assert!(gen.plan.is_none(), "AVG partials are not re-aggregable");
    let full = vec![mk_avg(5, PartSet::all(4))];
    let gen = generator(&d, &avg_q, &cfg).generate(&full);
    assert!(
        gen.plan.is_some(),
        "a full-coverage aggregate is the exact answer"
    );
}

/// The expected fragment shape is derived once per relation subset; every
/// offer over that subset is still compared against it, in any order, and
/// the effort count does not depend on how the shape was obtained.
#[test]
fn a_good_offer_does_not_vouch_for_later_ones_over_the_same_subset() {
    let d = dict();
    let q = join_query(&d);
    let cfg = QtConfig::default();
    let r_all = [(RelId(0), PartSet::all(4))];
    let mut foreign_select = frag(2, 1, &q, &r_all, 0.1);
    reshape(&mut foreign_select, |q| {
        q.select.pop();
    });
    let mut extra_predicate = frag(3, 1, &q, &r_all, 0.1);
    reshape(&mut extra_predicate, |q| {
        q.predicates.push(Predicate::with_const(
            Col::new(RelId(0), 1),
            qt_query::CompOp::Gt,
            5i64,
        ));
        q.canonicalize();
    });
    let offers = vec![
        frag(1, 1, &q, &r_all, 3.0),
        foreign_select,
        extra_predicate,
        frag(4, 2, &q, &[(RelId(1), PartSet::all(1))], 1.0),
        frag(5, 1, &q, &[(RelId(0), PartSet::from_indices([0, 1]))], 2.0),
        frag(6, 1, &q, &[(RelId(0), PartSet::from_indices([2, 3]))], 2.0),
    ];
    let gen = generator(&d, &q, &cfg).generate(&offers);
    let plan = gen.plan.expect("plan");
    let mut bought: Vec<u64> = plan.purchases.iter().map(|p| p.offer.id).collect();
    bought.sort_unstable();
    assert_eq!(bought, vec![1, 4], "only well-shaped offers are bought");
    // 6 offers classified, one cover step per relation, one join pair —
    // however often the expected shape is derived.
    assert_eq!(gen.considered, 9);
}

#[test]
fn considered_effort_is_reported() {
    let d = dict();
    let q = join_query(&d);
    let cfg = QtConfig::default();
    let offers = vec![
        frag(1, 1, &q, &[(RelId(0), PartSet::all(4))], 1.0),
        frag(2, 2, &q, &[(RelId(1), PartSet::all(1))], 1.0),
    ];
    let gen = generator(&d, &q, &cfg).generate(&offers);
    assert!(gen.considered >= offers.len() as u64);
}

#[test]
fn select_items_drive_output_schema() {
    // The plan's final projection matches the query's SELECT arity/order.
    let d = dict();
    let q = parse_query(&d, "SELECT c, b FROM r, s WHERE r.a = s.a").unwrap();
    let cfg = QtConfig::default();
    let offers = vec![
        frag(1, 1, &q, &[(RelId(0), PartSet::all(4))], 1.0),
        frag(2, 2, &q, &[(RelId(1), PartSet::all(1))], 1.0),
    ];
    let gen = generator(&d, &q, &cfg).generate(&offers);
    let plan = gen.plan.expect("plan");
    let schema = plan.assembly.schema();
    assert_eq!(schema.len(), 2);
    assert_eq!(schema[0], Col::new(RelId(1), 1), "c first");
    assert_eq!(schema[1], Col::new(RelId(0), 1), "b second");
    let _ = q.select.iter().map(SelectItem::col).count();
}
