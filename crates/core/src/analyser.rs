//! The buyer predicates analyser (B5/B6).
//!
//! After each round's candidate plans are built, the analyser derives *new*
//! queries worth putting out to bid in the next round. Two derivations are
//! implemented:
//!
//! 1. **Join-site extraction** — for every join the current best plan
//!    performs at the buyer, ask the market for the joined sub-query as a
//!    whole. Sellers rewrite and optimize *that* query directly, so nodes
//!    holding both sides offer the full join even when it exceeded the
//!    `max_partial_k` cap of the first round; this is what makes later
//!    iterations find plans the first round could not.
//! 2. **Coverage tightening** — the analogue of the paper's union-redundancy
//!    example ((1a)/(2a) → (1b)/(2b)): each join-site query is additionally
//!    emitted restricted to the partition coverage the plan actually unions,
//!    so sellers holding exactly a fragment can bid the *restricted* join
//!    cheaply instead of being unable to bid the full one.
//!
//! [`retain_answerable`] then drops every derived query no seller could
//! answer with an offer it has not already made (B7 ends trading when none
//! is left).

use crate::config::QtConfig;
use crate::offer::{Offer, OfferKind};
use crate::plangen::GenOutput;
use qt_catalog::{NodeId, RelId, SchemaDict};
use qt_optimizer::JoinEnumerator;
use qt_query::{PartSet, Query};
use std::collections::{BTreeMap, BTreeSet};

/// Derive next-round queries from this round's generator output and offers.
///
/// `asked` is everything already requested (the returned list excludes it).
pub fn next_queries(
    dict: &SchemaDict,
    query: &Query,
    gen: &GenOutput,
    offers: &[Offer],
    asked: &BTreeSet<Query>,
) -> Vec<Query> {
    let q_core = query.strip_aggregation();
    let mut out: Vec<Query> = Vec::new();
    let mut push = |q: Query| {
        if q.validate(dict).is_ok() && !asked.contains(&q) && !out.contains(&q) {
            out.push(q);
        }
    };

    // Observed per-relation coverage fragments (from any offer), used for
    // tightened variants.
    let mut coverages: BTreeMap<RelId, BTreeSet<PartSet>> = BTreeMap::new();
    for o in offers {
        for (rel, parts) in &o.query.relations {
            if query.relations.contains_key(rel) {
                coverages.entry(*rel).or_default().insert(*parts);
            }
        }
    }

    for (left, right) in &gen.join_sites {
        let joined: BTreeSet<RelId> = left.union(right).copied().collect();
        let site = q_core.restrict_to_rels(&joined);
        // 1. The full-extent join sub-query (unless it is the original
        //    query's own core, which is already implied by round 0).
        if joined.len() < query.num_relations() {
            push(site.clone());
        }
        // 2. Tightened variants: restrict one relation to each observed
        //    fragment coverage. For the full relation set this yields e.g.
        //    "customer ⋈ invoiceline WHERE office = 'Myconos'" — the paper's
        //    (1b)/(2b) tightening — which a node holding exactly that
        //    fragment can answer wholesale.
        for (&rel, frags) in &coverages {
            if !joined.contains(&rel) {
                continue;
            }
            for parts in frags {
                if *parts != site.relations[&rel] {
                    let mut tightened = site.clone();
                    tightened.relations.insert(rel, *parts);
                    push(tightened);
                }
            }
        }
    }
    out
}

/// Keep only the items of `new` that some seller could answer with an offer
/// it has not made yet.
///
/// A seller's holdings of the query, `D`, are the union per relation of the
/// partition sets in its own-data offers; round 0 offers every held
/// relation as a one-relation fragment, so `D` is what it holds. Its reply
/// to an item is built from the item's local rewrite `l = item ∩ D`: every
/// sub-join of `l` with at most `max_partial_k` relations, `l` whole, and
/// per-partition splits of one-relation fragments. Round 0 brought all of
/// those for `D` itself, so the seller adds something exactly when
/// - some relation's set in `l` differs from `D`'s, and `l` joins two or
///   more relations or that set spans more than one partition; or
/// - `l` has more than `max_partial_k` relations and is not `D`.
///
/// Not seen: a materialized view that matches only a derived sub-query,
/// and a seller silent so far (it counts as holding nothing). Everything is
/// kept when sellers subcontract (composites answer from other sellers'
/// data, with hints sent only from round 1 on) or enumerate with IDP-M,
/// whose pruning leaves some small sub-joins out of round 0.
pub fn retain_answerable(new: &mut Vec<Query>, offers: &[Offer], config: &QtConfig) {
    if config.enable_subcontracting || config.enumerator != JoinEnumerator::Exhaustive {
        return;
    }
    let mut held: BTreeMap<NodeId, BTreeMap<RelId, PartSet>> = BTreeMap::new();
    for o in offers {
        if o.kind == OfferKind::FromView || !o.subcontracts.is_empty() {
            continue;
        }
        let d = held.entry(o.seller).or_default();
        for (&rel, &parts) in &o.query.relations {
            let have = d.entry(rel).or_insert(PartSet::EMPTY);
            *have = have.union(&parts);
        }
    }
    let k = config.max_partial_k;
    new.retain(|item| {
        held.values().any(|d| {
            let mut rels = 0;
            let mut whole = true;
            let mut split = false;
            for (rel, want) in &item.relations {
                let Some(have) = d.get(rel) else { continue };
                let local = want.intersect(have);
                if local.is_empty() {
                    continue;
                }
                rels += 1;
                if local != *have {
                    whole = false;
                    split |= local.len() > 1;
                }
            }
            let is_d = whole && rels == d.len();
            (!whole && (rels >= 2 || split)) || (rels > k && !is_d)
        })
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::QtConfig;
    use crate::offer::RfbItem;
    use crate::plangen::PlanGenerator;
    use crate::seller::SellerEngine;
    use qt_catalog::{
        AttrType, Catalog, CatalogBuilder, NodeId, PartId, PartitionStats, Partitioning,
        RelationSchema,
    };
    use qt_cost::NodeResources;
    use qt_query::parse_query;

    /// r hash-partitioned over nodes 0/1; s on node 2; t on node 3. No node
    /// holds more than one relation, so round 1 yields only single-relation
    /// fragments and all joins happen at the buyer.
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
        let t = b.add_relation(
            RelationSchema::new("t", vec![("c", AttrType::Int), ("d", AttrType::Int)]),
            Partitioning::Single,
        );
        for i in 0..2u16 {
            b.set_stats(
                PartId::new(r, i),
                PartitionStats::synthetic(1_000, &[500, 100]),
            );
            b.place(PartId::new(r, i), NodeId(i as u32));
        }
        b.set_stats(
            PartId::new(s, 0),
            PartitionStats::synthetic(500, &[500, 50]),
        );
        b.place(PartId::new(s, 0), NodeId(2));
        b.set_stats(PartId::new(t, 0), PartitionStats::synthetic(50, &[50, 50]));
        b.place(PartId::new(t, 0), NodeId(3));
        b.build()
    }

    #[test]
    fn analyser_emits_join_sites_and_tightened_variants() {
        let cat = catalog();
        let q = parse_query(
            &cat.dict,
            "SELECT b, d FROM r, s, t WHERE r.a = s.a AND s.c = t.c",
        )
        .unwrap();
        let cfg = QtConfig::default();
        let items = vec![RfbItem {
            query: q.clone(),
            ref_value: f64::INFINITY,
        }];
        let mut offers = Vec::new();
        for node in 0..4 {
            let mut seller = SellerEngine::new(cat.holdings_of(NodeId(node)), cfg.clone());
            offers.extend(seller.respond(0, &items).offers);
        }
        let pg = PlanGenerator {
            dict: &cat.dict,
            query: &q,
            config: &cfg,
            buyer_resources: NodeResources::reference(),
        };
        let gen = pg.generate(&offers);
        assert!(gen.plan.is_some(), "coverage exists, a plan must exist");
        assert!(!gen.join_sites.is_empty(), "joins happen at the buyer");
        let asked = BTreeSet::from([q.clone()]);
        let new = next_queries(&cat.dict, &q, &gen, &offers, &asked);
        assert!(!new.is_empty());
        // Join-site queries are multi-relation and never the original query.
        for nq in &new {
            assert!(nq.num_relations() >= 2);
            assert_ne!(*nq, q);
            nq.validate(&cat.dict).unwrap();
        }
        // The proper sub-join (s ⋈ t) is requested at full extent.
        assert!(new.iter().any(|nq| nq.num_relations() == 2));
        // Tightened variants: some query restricted to a single r partition.
        assert!(
            new.iter().any(|nq| nq
                .relations
                .get(&qt_catalog::RelId(0))
                .is_some_and(|p| p.len() == 1)),
            "expected a partition-tightened join query: {:#?}",
            new.iter()
                .map(|n| n.display_with(&cat.dict).to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn analyser_excludes_already_asked() {
        let cat = catalog();
        let q = parse_query(&cat.dict, "SELECT b, c FROM r, s WHERE r.a = s.a").unwrap();
        let gen = GenOutput {
            plan: None,
            considered: 0,
            join_sites: vec![(
                BTreeSet::from([qt_catalog::RelId(0)]),
                BTreeSet::from([qt_catalog::RelId(1)]),
            )],
        };
        // Join site covers the whole query → implied, nothing new.
        let asked = BTreeSet::from([q.clone()]);
        let new = next_queries(&cat.dict, &q, &gen, &[], &asked);
        assert!(new.is_empty());
    }

    /// r ⋈ s ⋈ t ⋈ u, every relation whole on node 1 alone.
    fn one_holder() -> (Catalog, Query) {
        let mut b = CatalogBuilder::new();
        for (name, cols) in [
            ("r", ["a", "b"]),
            ("s", ["a", "c"]),
            ("t", ["c", "d"]),
            ("u", ["d", "e"]),
        ] {
            let rel = b.add_relation(
                RelationSchema::new(name, cols.iter().map(|&c| (c, AttrType::Int)).collect()),
                Partitioning::Single,
            );
            b.set_stats(
                PartId::new(rel, 0),
                PartitionStats::synthetic(1_000, &[100, 100]),
            );
            b.place(PartId::new(rel, 0), NodeId(1));
        }
        let cat = b.build();
        let q = parse_query(
            &cat.dict,
            "SELECT b, e FROM r, s, t, u WHERE r.a = s.a AND s.c = t.c AND t.d = u.d",
        )
        .unwrap();
        (cat, q)
    }

    #[test]
    fn a_seller_holding_more_than_max_partial_k_relations_of_a_site_is_asked() {
        let (cat, q) = one_holder();
        let site =
            q.strip_aggregation()
                .restrict_to_rels(&BTreeSet::from([RelId(0), RelId(1), RelId(2)]));
        for k in [2, 3] {
            let cfg = QtConfig {
                max_partial_k: k,
                ..QtConfig::default()
            };
            let mut seller = SellerEngine::new(cat.holdings_of(NodeId(1)), cfg.clone());
            let round0 = [RfbItem {
                query: q.clone(),
                ref_value: f64::INFINITY,
            }];
            let offers = seller.respond(0, &round0).offers;
            let mut items = vec![site.clone()];
            retain_answerable(&mut items, &offers, &cfg);
            // The seller holds all three relations: with k = 2 round 0 had
            // no 3-way partial, with k = 3 it did.
            let offered_site = offers.iter().any(|o| *o.query == site);
            assert_eq!(items.is_empty(), offered_site, "k = {k}");
            assert_eq!(items.is_empty(), k == 3, "k = {k}");
        }
    }

    /// IDP-M prunes sub-joins out of round 0 that a smaller rewrite does
    /// not (here one of the six pairs), so its sellers are asked everything.
    #[test]
    fn idp_m_sellers_are_asked_every_item() {
        let (cat, q) = one_holder();
        let core = q.strip_aggregation();
        let pairs: Vec<Query> = (0..4u32)
            .flat_map(|a| (a + 1..4).map(move |b| BTreeSet::from([RelId(a), RelId(b)])))
            .map(|rels| core.restrict_to_rels(&rels))
            .collect();
        for (enumerator, offered, kept) in [
            (JoinEnumerator::Exhaustive, 6, 0),
            (JoinEnumerator::idp_2_5(), 5, 6),
        ] {
            let cfg = QtConfig {
                enumerator,
                ..QtConfig::default()
            };
            let mut seller = SellerEngine::new(cat.holdings_of(NodeId(1)), cfg.clone());
            let round0 = [RfbItem {
                query: q.clone(),
                ref_value: f64::INFINITY,
            }];
            let offers = seller.respond(0, &round0).offers;
            let in_round0 = pairs
                .iter()
                .filter(|p| offers.iter().any(|o| *o.query == **p))
                .count();
            let mut items = pairs.clone();
            retain_answerable(&mut items, &offers, &cfg);
            assert_eq!((in_round0, items.len()), (offered, kept), "{enumerator:?}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Every item the buyer drops brings no seller an offer it has not
        /// made already, and the buyer asks exactly the items kept.
        #[test]
        fn a_dropped_item_brings_no_seller_a_new_offer(
            seed in 0u64..10_000,
            nodes in 3u32..12,
            parts in 1u16..4,
            replication in 1u32..4,
            rels in 2usize..6,
            shape in 0usize..3,
            k in 1usize..3,
            aggregate in proptest::prelude::any::<bool>(),
        ) {
            use crate::buyer::{BuyerEngine, RoundOutcome};
            use crate::config::MAX_NEW_QUERIES_PER_ROUND;
            use qt_workload::{build_federation, gen_join_query, FederationSpec, QueryShape};
            let fed = build_federation(&FederationSpec {
                nodes,
                relations: 6,
                partitions_per_relation: parts,
                replication,
                seed,
                ..FederationSpec::default()
            });
            let dict = &fed.catalog.dict;
            let shape = [QueryShape::Chain, QueryShape::Star, QueryShape::Cycle][shape];
            let q = gen_join_query(dict, shape, rels, aggregate, seed);
            let cfg = QtConfig {
                max_partial_k: k,
                ..QtConfig::default()
            };
            let seller = |n: NodeId| SellerEngine::new(fed.catalog.holdings_of(n), cfg.clone());
            let mut sellers: Vec<SellerEngine> = fed.catalog.nodes.iter().map(|&n| seller(n)).collect();
            let mut buyer = BuyerEngine::new(NodeId(0), dict.clone(), q.clone(), cfg.clone());
            let mut rfb = buyer.start();
            let mut asked = BTreeSet::from([q.clone()]);
            for round in 0.. {
                for s in &mut sellers {
                    buyer.receive_offers(s.respond(round, &rfb).offers);
                }
                let pg = PlanGenerator {
                    dict,
                    query: &q,
                    config: &cfg,
                    buyer_resources: buyer.resources.clone(),
                };
                let gen = pg.generate(&buyer.offers);
                let mut derived = next_queries(dict, &q, &gen, &buyer.offers, &asked);
                derived.truncate(MAX_NEW_QUERIES_PER_ROUND);
                let mut kept = derived.clone();
                retain_answerable(&mut kept, &buyer.offers, &cfg);
                for item in derived.iter().filter(|d| !kept.contains(d)) {
                    for &n in &fed.catalog.nodes {
                        let offered: BTreeSet<&Query> = buyer
                            .offers
                            .iter()
                            .filter(|o| o.seller == n)
                            .map(|o| &*o.query)
                            .collect();
                        let reply = seller(n).respond(round + 1, &[RfbItem {
                            query: item.clone(),
                            ref_value: f64::INFINITY,
                        }]);
                        for o in &reply.offers {
                            assert!(
                                offered.contains(&*o.query),
                                "{n:?} answers dropped {} with new {}",
                                item.display_with(dict),
                                o.query.display_with(dict)
                            );
                        }
                    }
                }
                match buyer.close_round() {
                    RoundOutcome::Continue(next) => {
                        let next_queries: Vec<Query> = next.iter().map(|i| i.query.clone()).collect();
                        assert_eq!(next_queries, kept);
                        asked.extend(kept);
                        rfb = next;
                    }
                    RoundOutcome::Done => break,
                }
            }
        }
    }
}
