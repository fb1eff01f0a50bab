//! Join-query generation over the synthetic federation schema.

use qt_catalog::{RelId, SchemaDict};
use qt_query::{AggFunc, Col, CompOp, Predicate, Query, SelectItem};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Join-graph shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryShape {
    /// `r0 ⋈ r1 ⋈ … ⋈ r{n-1}` along the shared key.
    Chain,
    /// `r0` joined with each of `r1 … r{n-1}`.
    Star,
    /// A chain closed into a cycle by an extra `r0.b = r{n-1}.b` edge
    /// (needs ≥ 3 relations to differ from a chain).
    Cycle,
}

/// Generate an `num_rels`-relation join query over the synthetic schema
/// (`r{i}(a, b, c)`), optionally aggregated (`SELECT r0.b, SUM(r{n-1}.c) …
/// GROUP BY r0.b`) and with a selection on `r0.b` whose selectivity is
/// seeded.
pub fn gen_join_query(
    dict: &SchemaDict,
    shape: QueryShape,
    num_rels: usize,
    aggregate: bool,
    seed: u64,
) -> Query {
    let mut rng = SmallRng::seed_from_u64(seed);
    let cut = rng.random_range(20..90);
    gen_join_query_with_cut(dict, shape, num_rels, aggregate, cut)
}

/// Like [`gen_join_query`], with an explicit selection cut on `r0.b`
/// (domain `0..100`): `cut = 10` keeps ~10% of `r0` — selective queries make
/// seller-side joins worth buying (they ship far fewer rows).
pub fn gen_join_query_with_cut(
    dict: &SchemaDict,
    shape: QueryShape,
    num_rels: usize,
    aggregate: bool,
    cut: i64,
) -> Query {
    assert!(num_rels >= 1);
    assert!(
        num_rels <= dict.relations.len(),
        "query needs {num_rels} relations, schema has {}",
        dict.relations.len()
    );
    let rels: Vec<RelId> = (0..num_rels as u32).map(RelId).collect();

    let mut predicates: Vec<Predicate> = Vec::new();
    for i in 1..num_rels {
        let left = match shape {
            QueryShape::Chain | QueryShape::Cycle => rels[i - 1],
            QueryShape::Star => rels[0],
        };
        predicates.push(Predicate::eq_cols(Col::new(left, 0), Col::new(rels[i], 0)));
    }
    if shape == QueryShape::Cycle && num_rels >= 3 {
        predicates.push(Predicate::eq_cols(
            Col::new(rels[0], 1),
            Col::new(rels[num_rels - 1], 1),
        ));
    }
    predicates.push(Predicate::with_const(Col::new(rels[0], 1), CompOp::Lt, cut));

    let first_b = Col::new(rels[0], 1);
    let last_c = Col::new(rels[num_rels - 1], 2);
    let q = Query::over_full(dict, rels.iter().copied()).with_predicates(predicates);
    if aggregate {
        q.with_select(vec![
            SelectItem::Col(first_b),
            SelectItem::Agg {
                func: AggFunc::Sum,
                arg: Some(last_c),
            },
        ])
        .with_group_by(vec![first_b])
    } else {
        q.with_select(vec![SelectItem::Col(first_b), SelectItem::Col(last_c)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::federation::{build_federation, FederationSpec};

    fn dict(nrels: usize) -> std::sync::Arc<SchemaDict> {
        build_federation(&FederationSpec {
            relations: nrels,
            ..FederationSpec::default()
        })
        .catalog
        .dict
    }

    #[test]
    fn chain_has_n_minus_one_joins() {
        let d = dict(5);
        for n in 1..=5 {
            let q = gen_join_query(&d, QueryShape::Chain, n, false, 1);
            q.validate(&d).unwrap();
            assert_eq!(q.num_relations(), n);
            assert_eq!(q.join_predicates().count(), n - 1);
        }
    }

    #[test]
    fn star_centers_on_r0() {
        let d = dict(4);
        let q = gen_join_query(&d, QueryShape::Star, 4, false, 1);
        for p in q.join_predicates() {
            assert!(p.rels().any(|r| r == RelId(0)));
        }
    }

    #[test]
    fn aggregate_variant_validates() {
        let d = dict(3);
        let q = gen_join_query(&d, QueryShape::Chain, 3, true, 9);
        q.validate(&d).unwrap();
        assert!(q.is_aggregate());
        assert!(q.aggregates_decomposable());
    }

    #[test]
    fn seeds_change_selections_only() {
        let d = dict(3);
        let a = gen_join_query(&d, QueryShape::Chain, 3, false, 1);
        let b = gen_join_query(&d, QueryShape::Chain, 3, false, 2);
        assert_eq!(a.join_predicates().count(), b.join_predicates().count());
        let a2 = gen_join_query(&d, QueryShape::Chain, 3, false, 1);
        assert_eq!(a, a2, "same seed, same query");
    }

    #[test]
    #[should_panic(expected = "query needs")]
    fn too_many_relations_panics() {
        let d = dict(2);
        gen_join_query(&d, QueryShape::Chain, 3, false, 1);
    }

    #[test]
    fn cycle_closes_the_chain() {
        let d = dict(4);
        let chain = gen_join_query(&d, QueryShape::Chain, 4, false, 1);
        let cycle = gen_join_query(&d, QueryShape::Cycle, 4, false, 1);
        assert_eq!(
            cycle.join_predicates().count(),
            chain.join_predicates().count() + 1
        );
        cycle.validate(&d).unwrap();
        // Below 3 relations a cycle degenerates into a chain.
        let two = gen_join_query(&d, QueryShape::Cycle, 2, false, 1);
        assert_eq!(two.join_predicates().count(), 1);
    }
}
