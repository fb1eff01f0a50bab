//! End-to-end tests of the QT trading loop: optimize with `run_qt_direct` or
//! a one-arrival `run_qt_serve_with_faults` run, execute the resulting distributed plans on per-node data
//! stores, and compare against the reference evaluator.

use qt_catalog::{
    AttrType, Catalog, CatalogBuilder, NodeId, PartId, PartitionStats, Partitioning, RelId,
    RelationSchema, Value,
};
use qt_core::{
    run_qt_direct, run_qt_serve_with_faults, QtConfig, SellerEngine, ServeConfig, ServeOutcome,
};
use qt_exec::reference::approx_same_rows;
use qt_exec::{evaluate_query, DataStore};
use qt_net::Topology;
use qt_query::{parse_query, MaterializedView, Query};
use std::collections::BTreeMap;

/// The paper's telecom scenario with materialized data.
///
/// * `customer(custid, custname, office)` list-partitioned by office over
///   nodes 0 (Athens), 1 (Corfu), 2 (Myconos);
/// * `invoiceline(invid, linenum, custid, charge)` held fully by nodes 0
///   and 2.
fn telecom() -> (Catalog, BTreeMap<NodeId, DataStore>) {
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

    // Data: 30 customers across 3 offices, 120 invoice lines.
    let offices = ["Athens", "Corfu", "Myconos"];
    let customers: Vec<Vec<Value>> = (0..30)
        .map(|i| {
            vec![
                Value::Int(i),
                Value::str(format!("cust{i}")),
                Value::str(offices[(i % 3) as usize]),
            ]
        })
        .collect();
    let invoices: Vec<Vec<Value>> = (0..120)
        .map(|i| {
            vec![
                Value::Int(i / 4),
                Value::Int(i % 4),
                Value::Int(i % 30),
                Value::Float(((i * 7) % 100) as f64 + 0.5),
            ]
        })
        .collect();

    // A throwaway catalog to get the dict for loading.
    let mut loader = DataStore::new();
    let dict_probe = {
        let mut pb = CatalogBuilder::new();
        pb.add_relation(
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
        pb.add_relation(
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
        for i in 0..3 {
            pb.set_stats(
                PartId::new(RelId(0), i),
                PartitionStats::synthetic(1, &[1, 1, 1]),
            );
            pb.place(PartId::new(RelId(0), i), NodeId(0));
        }
        pb.set_stats(
            PartId::new(RelId(1), 0),
            PartitionStats::synthetic(1, &[1, 1, 1, 1]),
        );
        pb.place(PartId::new(RelId(1), 0), NodeId(0));
        pb.build().dict
    };
    loader.load_relation(&dict_probe, cust, customers);
    loader.load_relation(&dict_probe, inv, invoices);

    // Real stats, placement, and per-node stores.
    let mut stores: BTreeMap<NodeId, DataStore> = BTreeMap::new();
    for i in 0..3u16 {
        let part = PartId::new(cust, i);
        b.set_stats(part, loader.stats_of(&dict_probe, part).unwrap());
        b.place(part, NodeId(i as u32));
        stores
            .entry(NodeId(i as u32))
            .or_default()
            .merge_from(&loader.subset(&[part]));
    }
    let inv_part = PartId::new(inv, 0);
    b.set_stats(inv_part, loader.stats_of(&dict_probe, inv_part).unwrap());
    for node in [NodeId(0), NodeId(2)] {
        b.place(inv_part, node);
        stores
            .entry(node)
            .or_default()
            .merge_from(&loader.subset(&[inv_part]));
    }
    (b.build(), stores)
}

fn engines(cat: &Catalog, cfg: &QtConfig) -> BTreeMap<NodeId, SellerEngine> {
    cat.nodes
        .iter()
        .map(|&n| (n, SellerEngine::new(cat.holdings_of(n), cfg.clone())))
        .collect()
}

/// Trade `q` alone on the simulator: one arrival at t = 0, so its report's
/// `finished` time is the optimization time.
fn sim_one(
    cat: &Catalog,
    q: &Query,
    sellers: BTreeMap<NodeId, SellerEngine>,
    cfg: &QtConfig,
    topology: Topology,
) -> ServeOutcome {
    let one = vec![(0.0, q.clone())];
    let serve = ServeConfig::default();
    run_qt_serve_with_faults(
        NodeId(0),
        cat.dict.clone(),
        one,
        sellers,
        cfg,
        &serve,
        topology,
        None,
    )
}

fn wan() -> Topology {
    Topology::Uniform(qt_cost::NetLink::wan())
}

fn union_store(stores: &BTreeMap<NodeId, DataStore>) -> DataStore {
    let mut all = DataStore::new();
    for s in stores.values() {
        all.merge_from(s);
    }
    all
}

#[test]
fn motivating_query_optimizes_and_executes_correctly() {
    let (cat, stores) = telecom();
    let q = parse_query(
        &cat.dict,
        "SELECT office, SUM(charge) FROM customer, invoiceline \
         WHERE customer.custid = invoiceline.custid GROUP BY office",
    )
    .unwrap();
    let cfg = QtConfig::default();
    let mut sellers = engines(&cat, &cfg);
    let out = run_qt_direct(NodeId(0), cat.dict.clone(), &q, &mut sellers, &cfg);
    let plan = out.plan.expect("plan found");
    assert!(out.messages > 0);
    assert!(out.optimization_time > 0.0);

    let got = plan.execute_on(&cat.dict, &stores).unwrap();
    let want = evaluate_query(&q, &union_store(&stores)).unwrap();
    assert!(
        approx_same_rows(&got, &want, 1e-9),
        "got {:?}\nwant {:?}",
        got,
        want
    );
    // Three office groups in the answer.
    assert_eq!(got.len(), 3);
}

#[test]
fn restricted_motivating_query_buys_from_the_right_offices() {
    let (cat, stores) = telecom();
    // The paper's actual manager query: only Corfu and Myconos bills.
    let q = parse_query(
        &cat.dict,
        "SELECT office, SUM(charge) FROM customer, invoiceline \
         WHERE customer.custid = invoiceline.custid GROUP BY office",
    )
    .unwrap()
    .with_partset(RelId(0), qt_query::PartSet::from_indices([1, 2]));
    let cfg = QtConfig::default();
    let mut sellers = engines(&cat, &cfg);
    let out = run_qt_direct(NodeId(0), cat.dict.clone(), &q, &mut sellers, &cfg);
    let plan = out.plan.expect("plan found");
    let got = plan.execute_on(&cat.dict, &stores).unwrap();
    let want = evaluate_query(&q, &union_store(&stores)).unwrap();
    assert!(approx_same_rows(&got, &want, 1e-9));
    assert_eq!(got.len(), 2, "only Corfu and Myconos groups");
}

#[test]
fn spj_join_plan_is_correct() {
    let (cat, stores) = telecom();
    let q = parse_query(
        &cat.dict,
        "SELECT custname, charge FROM customer, invoiceline \
         WHERE customer.custid = invoiceline.custid AND charge > 50.0",
    )
    .unwrap();
    let cfg = QtConfig::default();
    let mut sellers = engines(&cat, &cfg);
    let out = run_qt_direct(NodeId(1), cat.dict.clone(), &q, &mut sellers, &cfg);
    let plan = out.plan.expect("plan found");
    let got = plan.execute_on(&cat.dict, &stores).unwrap();
    let want = evaluate_query(&q, &union_store(&stores)).unwrap();
    assert!(approx_same_rows(&got, &want, 1e-9));
}

#[test]
fn order_by_is_respected_end_to_end() {
    let (cat, stores) = telecom();
    let q = parse_query(
        &cat.dict,
        "SELECT custname FROM customer WHERE office = 'Corfu' ORDER BY custname",
    )
    .unwrap();
    let cfg = QtConfig::default();
    let mut sellers = engines(&cat, &cfg);
    let out = run_qt_direct(NodeId(0), cat.dict.clone(), &q, &mut sellers, &cfg);
    let plan = out.plan.expect("plan found");
    let got = plan.execute_on(&cat.dict, &stores).unwrap();
    let want = evaluate_query(&q, &union_store(&stores)).unwrap();
    assert_eq!(got, want, "ordered results must match exactly");
}

#[test]
fn sim_and_direct_agree_on_plan_and_messages() {
    let (cat, _) = telecom();
    let q = parse_query(
        &cat.dict,
        "SELECT office, SUM(charge) FROM customer, invoiceline \
         WHERE customer.custid = invoiceline.custid GROUP BY office",
    )
    .unwrap();
    let cfg = QtConfig::default();
    let mut direct_sellers = engines(&cat, &cfg);
    let direct = run_qt_direct(NodeId(0), cat.dict.clone(), &q, &mut direct_sellers, &cfg);
    let sim_sellers = engines(&cat, &cfg);
    let sim = sim_one(&cat, &q, sim_sellers, &cfg, wan());
    let report = &sim.reports[0];

    let dp = direct.plan.expect("direct plan");
    let sp = report.plan.as_ref().expect("sim plan");
    assert!((dp.est.additive_cost - sp.est.additive_cost).abs() < 1e-9);
    assert_eq!(dp.purchases.len(), sp.purchases.len());
    assert_eq!(direct.messages, sim.messages, "metrics: {:?}", sim.metrics);
    assert_eq!(direct.iterations, report.iterations);
    assert!(report.finished > 0.0);
}

#[test]
fn view_offer_wins_when_it_is_cheapest() {
    // One seller (node 1) holds everything and also materializes exactly the
    // requested aggregate; serving the 3-row view must beat recomputing the
    // join. (A view holder *without* statistics for foreign data prices its
    // view conservatively and may lose — see seller::tests.)
    let mut b = CatalogBuilder::new();
    let r = b.add_relation(
        RelationSchema::new("r", vec![("k", AttrType::Int), ("grp", AttrType::Int)]),
        Partitioning::Single,
    );
    let s = b.add_relation(
        RelationSchema::new("s", vec![("k", AttrType::Int), ("x", AttrType::Float)]),
        Partitioning::Single,
    );
    b.set_stats(
        PartId::new(r, 0),
        PartitionStats::synthetic(100_000, &[100_000, 3]),
    );
    b.set_stats(
        PartId::new(s, 0),
        PartitionStats::synthetic(200_000, &[100_000, 1_000]),
    );
    b.place(PartId::new(r, 0), NodeId(1));
    b.place(PartId::new(s, 0), NodeId(1));
    b.add_node(NodeId(0));
    let cat = b.build();
    let q = parse_query(
        &cat.dict,
        "SELECT grp, SUM(x) FROM r, s WHERE r.k = s.k GROUP BY grp",
    )
    .unwrap();
    let cfg = QtConfig::default();
    let mut sellers = engines(&cat, &cfg);
    sellers.get_mut(&NodeId(1)).unwrap().views = vec![MaterializedView::new("exact", q.clone())];
    let out = run_qt_direct(NodeId(0), cat.dict.clone(), &q, &mut sellers, &cfg);
    let plan = out.plan.expect("plan found");
    assert_eq!(plan.purchases.len(), 1);
    assert_eq!(plan.purchases[0].offer.kind, qt_core::OfferKind::FromView);
    // And the run without the view is strictly more expensive.
    let cfg2 = QtConfig::default();
    let mut no_view = engines(&cat, &cfg2);
    let out2 = run_qt_direct(NodeId(0), cat.dict.clone(), &q, &mut no_view, &cfg2);
    assert!(
        out2.plan.unwrap().est.additive_cost > plan.est.additive_cost,
        "the view must be the cheaper path"
    );
}

#[test]
fn iterations_improve_when_partials_are_capped() {
    // Four relations in a chain; node 1 holds r+s, node 2 holds t+u. With
    // max_partial_k = 1, round 0 only yields single-relation offers (plus
    // full local rewrites, which cover {r,s} and {t,u}); the analyser then
    // asks for (s ⋈ t) style join sites. The run must converge and stay
    // correct.
    let mut b = CatalogBuilder::new();
    let names = ["r", "s", "t", "u"];
    let mut rels = Vec::new();
    for n in names {
        rels.push(b.add_relation(
            RelationSchema::new(n, vec![("k", AttrType::Int), ("v", AttrType::Int)]),
            Partitioning::Single,
        ));
    }
    let mut loader = DataStore::new();
    let dict_probe = {
        let mut pb = CatalogBuilder::new();
        for n in names {
            pb.add_relation(
                RelationSchema::new(n, vec![("k", AttrType::Int), ("v", AttrType::Int)]),
                Partitioning::Single,
            );
        }
        for (i, _) in names.iter().enumerate() {
            pb.set_stats(
                PartId::new(RelId(i as u32), 0),
                PartitionStats::synthetic(1, &[1, 1]),
            );
            pb.place(PartId::new(RelId(i as u32), 0), NodeId(0));
        }
        pb.build().dict
    };
    let mut stores: BTreeMap<NodeId, DataStore> = BTreeMap::new();
    for (i, &rel) in rels.iter().enumerate() {
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|j| vec![Value::Int(j % 10), Value::Int(j + i as i64 * 100)])
            .collect();
        loader.load_relation(&dict_probe, rel, rows);
        let part = PartId::new(rel, 0);
        b.set_stats(part, loader.stats_of(&dict_probe, part).unwrap());
        let node = NodeId(1 + (i as u32) / 2); // node1: r,s; node2: t,u
        b.place(part, node);
        stores
            .entry(node)
            .or_default()
            .merge_from(&loader.subset(&[part]));
    }
    b.add_node(NodeId(0)); // data-less buyer
    let cat = b.build();
    let q = parse_query(
        &cat.dict,
        "SELECT r.v, u.v FROM r, s, t, u \
         WHERE r.k = s.k AND s.k = t.k AND t.k = u.k",
    )
    .unwrap();
    let cfg = QtConfig {
        max_partial_k: 1,
        ..QtConfig::default()
    };
    let mut sellers = engines(&cat, &cfg);
    let out = run_qt_direct(NodeId(0), cat.dict.clone(), &q, &mut sellers, &cfg);
    let plan = out.plan.expect("plan found");
    let got = plan.execute_on(&cat.dict, &stores).unwrap();
    let want = evaluate_query(&q, &union_store(&stores)).unwrap();
    assert!(approx_same_rows(&got, &want, 1e-9));
    // Costs never get worse across iterations.
    for w in out.history.windows(2) {
        assert!(w[1].best_cost <= w[0].best_cost + 1e-9);
    }
}

#[test]
fn failure_when_no_coverage_exists() {
    // Nobody holds relation `s`... simulate by a catalog whose placement
    // exists but whose holder is excluded from the seller set.
    let (cat, _) = telecom();
    let q = parse_query(&cat.dict, "SELECT charge FROM invoiceline").unwrap();
    let cfg = QtConfig::default();
    let mut sellers: BTreeMap<NodeId, SellerEngine> = engines(&cat, &cfg)
        .into_iter()
        .filter(|(n, _)| *n == NodeId(1)) // Corfu has no invoiceline
        .collect();
    let out = run_qt_direct(NodeId(1), cat.dict.clone(), &q, &mut sellers, &cfg);
    assert!(out.plan.is_none());
    assert_eq!(out.iterations, 1, "aborts after the first round");
}

#[test]
fn protocol_choice_changes_message_counts_not_correctness() {
    use qt_trade::ProtocolKind;
    let (cat, stores) = telecom();
    let q = parse_query(
        &cat.dict,
        "SELECT office, SUM(charge) FROM customer, invoiceline \
         WHERE customer.custid = invoiceline.custid GROUP BY office",
    )
    .unwrap();
    let mut msgs = BTreeMap::new();
    for proto in [
        ProtocolKind::SealedBid,
        ProtocolKind::Vickrey,
        ProtocolKind::English { decrement: 0.1 },
        ProtocolKind::Bargaining { max_rounds: 4 },
    ] {
        let cfg = QtConfig {
            protocol: proto,
            ..QtConfig::default()
        };
        let mut sellers = engines(&cat, &cfg);
        let out = run_qt_direct(NodeId(0), cat.dict.clone(), &q, &mut sellers, &cfg);
        let plan = out.plan.expect("plan found");
        let got = plan.execute_on(&cat.dict, &stores).unwrap();
        let want = evaluate_query(&q, &union_store(&stores)).unwrap();
        assert!(approx_same_rows(&got, &want, 1e-9), "{}", proto.label());
        msgs.insert(proto.label(), out.messages);
    }
    // The surviving fragment of §4 argues bargaining adds messages over
    // plain bidding; auctions add even more.
    assert!(msgs["bargaining"] >= msgs["sealed-bid"]);
    assert!(msgs["english"] >= msgs["sealed-bid"]);
}

#[test]
fn competitive_markup_raises_buyer_cost() {
    let (cat, _) = telecom();
    let q = parse_query(
        &cat.dict,
        "SELECT office, SUM(charge) FROM customer, invoiceline \
         WHERE customer.custid = invoiceline.custid GROUP BY office",
    )
    .unwrap();
    let honest_cfg = QtConfig::default();
    let mut honest = engines(&cat, &honest_cfg);
    let honest_out = run_qt_direct(NodeId(0), cat.dict.clone(), &q, &mut honest, &honest_cfg);

    let greedy_cfg = QtConfig {
        seller_strategy: qt_trade::SellerStrategy::fixed_markup(1.5),
        ..QtConfig::default()
    };
    let mut greedy = engines(&cat, &greedy_cfg);
    let greedy_out = run_qt_direct(NodeId(0), cat.dict.clone(), &q, &mut greedy, &greedy_cfg);

    let h = honest_out.plan.unwrap().est.additive_cost;
    let g = greedy_out.plan.unwrap().est.additive_cost;
    assert!(g > h, "markup must cost the buyer: honest {h}, greedy {g}");
}

#[test]
fn subcontracting_produces_composite_offers_and_stays_correct() {
    // r on node 1, s on node 2, t on node 3; buyer is node 0. In round 1 the
    // analyser asks for the (s ⋈ t) join site; node 2 holds only s, so with
    // subcontracting enabled it buys the t fragment (per the round-0 hint
    // from node 3) and offers the composite join.
    let mut b = CatalogBuilder::new();
    let names = ["r", "s", "t"];
    let mut rels = Vec::new();
    for n in names {
        rels.push(b.add_relation(
            RelationSchema::new(n, vec![("k", AttrType::Int), ("v", AttrType::Int)]),
            Partitioning::Single,
        ));
    }
    let dict_probe = {
        let mut pb = CatalogBuilder::new();
        for n in names {
            pb.add_relation(
                RelationSchema::new(n, vec![("k", AttrType::Int), ("v", AttrType::Int)]),
                Partitioning::Single,
            );
        }
        for i in 0..3u32 {
            pb.set_stats(
                PartId::new(RelId(i), 0),
                PartitionStats::synthetic(1, &[1, 1]),
            );
            pb.place(PartId::new(RelId(i), 0), NodeId(0));
        }
        pb.build().dict
    };
    let mut loader = DataStore::new();
    let mut stores: BTreeMap<NodeId, DataStore> = BTreeMap::new();
    for (i, &rel) in rels.iter().enumerate() {
        let rows: Vec<Vec<Value>> = (0..15)
            .map(|j| vec![Value::Int(j % 5), Value::Int(j + i as i64 * 1000)])
            .collect();
        loader.load_relation(&dict_probe, rel, rows);
        let part = PartId::new(rel, 0);
        b.set_stats(part, loader.stats_of(&dict_probe, part).unwrap());
        b.place(part, NodeId(1 + i as u32));
        stores
            .entry(NodeId(1 + i as u32))
            .or_default()
            .merge_from(&loader.subset(&[part]));
    }
    b.add_node(NodeId(0));
    let cat = b.build();
    let q = parse_query(
        &cat.dict,
        "SELECT r.v, t.v FROM r, s, t WHERE r.k = s.k AND s.k = t.k",
    )
    .unwrap();
    let cfg = QtConfig {
        enable_subcontracting: true,
        ..QtConfig::default()
    };
    let mut sellers = engines(&cat, &cfg);
    let out = run_qt_direct(NodeId(0), cat.dict.clone(), &q, &mut sellers, &cfg);
    let plan = out.plan.expect("plan found");
    assert!(
        out.iterations >= 2,
        "subcontracting needs hints from round 0"
    );
    let got = plan.execute_on(&cat.dict, &stores).unwrap();
    let want = evaluate_query(&q, &union_store(&stores)).unwrap();
    assert!(approx_same_rows(&got, &want, 1e-9));
    // At least one composite offer was made somewhere along the way (check
    // by re-running the seller directly with hints).
    let mut node2 = SellerEngine::new(cat.holdings_of(NodeId(2)), cfg.clone());
    let site = q
        .strip_aggregation()
        .restrict_to_rels(&[RelId(1), RelId(2)].into_iter().collect());
    let t_frag = q
        .strip_aggregation()
        .restrict_to_rels(&[RelId(2)].into_iter().collect());
    let mut node3 = SellerEngine::new(cat.holdings_of(NodeId(3)), cfg.clone());
    let hint = node3
        .respond(
            0,
            &[qt_core::RfbItem {
                query: t_frag,
                ref_value: f64::INFINITY,
            }],
        )
        .offers
        .into_iter()
        .next()
        .expect("node 3 offers its fragment");
    let resp = node2.respond_with_hints(
        1,
        &[qt_core::RfbItem {
            query: site,
            ref_value: f64::INFINITY,
        }],
        &[hint],
    );
    assert!(
        resp.offers.iter().any(|o| !o.subcontracts.is_empty()),
        "node 2 must compose a subcontracted offer"
    );
}

#[test]
fn sorted_delivery_offer_skips_buyer_sort() {
    // One seller holds everything; an ORDER BY query should be answered by
    // a single sorted whole-answer purchase, and the delivered order must be
    // exactly the reference order.
    let mut b = CatalogBuilder::new();
    let r = b.add_relation(
        RelationSchema::new("r", vec![("k", AttrType::Int), ("v", AttrType::Int)]),
        Partitioning::Single,
    );
    let dict_probe = {
        let mut pb = CatalogBuilder::new();
        pb.add_relation(
            RelationSchema::new("r", vec![("k", AttrType::Int), ("v", AttrType::Int)]),
            Partitioning::Single,
        );
        pb.set_stats(
            PartId::new(RelId(0), 0),
            PartitionStats::synthetic(1, &[1, 1]),
        );
        pb.place(PartId::new(RelId(0), 0), NodeId(0));
        pb.build().dict
    };
    let mut loader = DataStore::new();
    loader.load_relation(
        &dict_probe,
        r,
        (0..25)
            .map(|j| vec![Value::Int((j * 7) % 25), Value::Int(j)])
            .collect(),
    );
    let part = PartId::new(r, 0);
    b.set_stats(part, loader.stats_of(&dict_probe, part).unwrap());
    b.place(part, NodeId(1));
    b.add_node(NodeId(0));
    let cat = b.build();
    let mut stores = BTreeMap::new();
    stores.insert(NodeId(1), loader);

    let q = parse_query(&cat.dict, "SELECT k, v FROM r WHERE v < 20 ORDER BY k").unwrap();
    let cfg = QtConfig::default();
    let mut sellers = engines(&cat, &cfg);
    let out = run_qt_direct(NodeId(0), cat.dict.clone(), &q, &mut sellers, &cfg);
    let plan = out.plan.expect("plan found");
    // The whole sorted answer is one purchase of the query itself.
    assert_eq!(plan.purchases.len(), 1);
    assert_eq!(
        plan.purchases[0].offer.query, q,
        "sorted exact-answer offer wins"
    );
    let got = plan.execute_on(&cat.dict, &stores).unwrap();
    let want = evaluate_query(&q, &union_store(&stores)).unwrap();
    assert_eq!(
        got, want,
        "exact order must match, not just the row multiset"
    );
    let keys: Vec<i64> = got.iter().map(|row| row[0].as_int().unwrap()).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

#[test]
fn offline_sellers_are_survived_by_timeout() {
    // customer partition 1 (Corfu) is held only by node 1, which is offline
    // in round 0, BUT invoiceline is replicated so the query restricted to
    // Myconos customers still completes; the full-extent query must fail.
    let (cat, stores) = telecom();
    let q_myconos = parse_query(
        &cat.dict,
        "SELECT office, SUM(charge) FROM customer, invoiceline \
         WHERE customer.custid = invoiceline.custid GROUP BY office",
    )
    .unwrap()
    .with_partset(RelId(0), qt_query::PartSet::from_indices([2]));

    let cfg = QtConfig {
        seller_timeout: 2.0,
        ..QtConfig::default()
    };
    let mut sellers = engines(&cat, &cfg);
    for engine in sellers.values_mut() {
        if engine.node == NodeId(1) {
            engine.offline_rounds = (0..16).collect();
        }
    }
    let out = sim_one(&cat, &q_myconos, sellers, &cfg, wan());
    let metrics = &out.metrics;
    assert!(metrics.kind_count("timeout") >= 1, "{metrics:?}");
    let report = &out.reports[0];
    let plan = report
        .plan
        .as_ref()
        .expect("Myconos data unaffected by Corfu's outage");
    let got = plan.execute_on(&cat.dict, &stores).unwrap();
    let want = evaluate_query(&q_myconos, &union_store(&stores)).unwrap();
    assert!(approx_same_rows(&got, &want, 1e-9));
    // The timeout is on the critical path of the optimization time.
    assert!(report.finished >= 2.0, "{}", report.finished);
}

#[test]
fn sole_holder_offline_means_no_plan() {
    let (cat, _) = telecom();
    // Corfu customers are only on node 1; with node 1 offline the full query
    // cannot be covered and trading must abort planless (paper's B8).
    let q = parse_query(
        &cat.dict,
        "SELECT custname FROM customer WHERE office = 'Corfu'",
    )
    .unwrap();
    let cfg = QtConfig {
        seller_timeout: 1.0,
        ..QtConfig::default()
    };
    let mut sellers = engines(&cat, &cfg);
    sellers.get_mut(&NodeId(1)).unwrap().offline_rounds = (0..16).collect();
    let out = sim_one(&cat, &q, sellers, &cfg, wan());
    assert!(out.reports[0].plan.is_none());
}

#[test]
fn straggler_offers_still_enrich_later_rounds() {
    // A seller offline in round 0 but back for round 1 participates again
    // (round numbers in Offers messages keep the accounting straight).
    let (cat, stores) = telecom();
    let q = parse_query(
        &cat.dict,
        "SELECT custname, charge FROM customer, invoiceline \
         WHERE customer.custid = invoiceline.custid AND charge > 150.0",
    )
    .unwrap();
    let cfg = QtConfig {
        seller_timeout: 2.0,
        ..QtConfig::default()
    };
    let mut sellers = engines(&cat, &cfg);
    sellers.get_mut(&NodeId(1)).unwrap().offline_rounds = [0u32].into_iter().collect();
    let out = sim_one(&cat, &q, sellers, &cfg, wan());
    if let Some(plan) = &out.reports[0].plan {
        let got = plan.execute_on(&cat.dict, &stores).unwrap();
        let want = evaluate_query(&q, &union_store(&stores)).unwrap();
        assert!(approx_same_rows(&got, &want, 1e-9));
    }
}

#[test]
fn replanning_from_the_offer_pool_survives_seller_failure() {
    use qt_core::buyer::RoundOutcome;
    use qt_core::BuyerEngine;
    use std::collections::BTreeSet;

    // invoiceline is replicated on nodes 0 and 2; customer partitions are
    // unique per office. After trading, pretend node 2 (Myconos) died: the
    // buyer re-plans from its accumulated offers without re-trading, and the
    // new plan avoids node 2 wherever a replica exists.
    let (cat, stores) = telecom();
    // Restrict the requested extent to the Athens partition so customer
    // coverage needs only node 0; invoiceline has replicas on nodes 0 and 2.
    let q = parse_query(
        &cat.dict,
        "SELECT office, SUM(charge) FROM customer, invoiceline \
         WHERE customer.custid = invoiceline.custid GROUP BY office",
    )
    .unwrap()
    .with_partset(RelId(0), qt_query::PartSet::single(0));
    let cfg = QtConfig::default();
    let mut buyer = BuyerEngine::new(NodeId(0), cat.dict.clone(), q.clone(), cfg.clone());
    let mut sellers = engines(&cat, &cfg);
    let mut items = buyer.start();
    loop {
        for engine in sellers.values_mut() {
            buyer.receive_offers(engine.respond(buyer.round, &items).offers);
        }
        match buyer.close_round() {
            RoundOutcome::Continue(next) => items = next,
            RoundOutcome::Done => break,
        }
    }
    let original = buyer.best.clone().expect("plan");

    // Fail Myconos.
    let failed: BTreeSet<NodeId> = [NodeId(2)].into_iter().collect();
    let recovered = buyer
        .replan_excluding(&failed)
        .expect("replica coverage survives");
    assert!(recovered
        .purchases
        .iter()
        .all(|p| p.offer.seller != NodeId(2)));

    // Execute against stores WITHOUT node 2 — the recovered plan works.
    let mut surviving_stores = stores.clone();
    surviving_stores.remove(&NodeId(2));
    let got = recovered.execute_on(&cat.dict, &surviving_stores).unwrap();
    let want = evaluate_query(&q, &union_store(&stores)).unwrap();
    assert!(approx_same_rows(&got, &want, 1e-9));
    let _ = original;

    // Failing the sole holder of the Athens partition is unrecoverable.
    let sole: BTreeSet<NodeId> = [NodeId(0)].into_iter().collect();
    assert!(buyer.replan_excluding(&sole).is_none());
}

#[test]
fn two_tier_topology_speeds_up_local_markets() {
    let (cat, _) = telecom();
    let q = parse_query(
        &cat.dict,
        "SELECT custname, charge FROM customer, invoiceline \
         WHERE customer.custid = invoiceline.custid",
    )
    .unwrap();
    let cfg = QtConfig::default();
    let wan = sim_one(&cat, &q, engines(&cat, &cfg), &cfg, wan());
    // Everyone in one 64-node region.
    let region = Topology::two_tier(64, qt_cost::NetLink::lan(), qt_cost::NetLink::wan()).unwrap();
    let lan = sim_one(&cat, &q, engines(&cat, &cfg), &cfg, region);
    let (lan_r, wan_r) = (&lan.reports[0], &wan.reports[0]);
    assert!(lan_r.finished < wan_r.finished);
    assert_eq!(
        lan.messages, wan.messages,
        "topology changes time, not traffic"
    );
    let (a, b) = (lan_r.plan.as_ref().unwrap(), wan_r.plan.as_ref().unwrap());
    assert!((a.est.additive_cost - b.est.additive_cost).abs() < 1e-9);
}

#[test]
fn buyer_hints_surface_cheapest_full_fragments() {
    use qt_core::buyer::RoundOutcome;
    use qt_core::BuyerEngine;
    let (cat, _) = telecom();
    let q = parse_query(
        &cat.dict,
        "SELECT custname, charge FROM customer, invoiceline \
         WHERE customer.custid = invoiceline.custid",
    )
    .unwrap();
    let cfg = QtConfig::default();
    let mut buyer = BuyerEngine::new(NodeId(9), cat.dict.clone(), q.clone(), cfg.clone());
    let mut sellers = engines(&cat, &cfg);
    let items = buyer.start();
    for engine in sellers.values_mut() {
        buyer.receive_offers(engine.respond(0, &items).offers);
    }
    let _ = buyer.close_round();
    let hints = buyer.hints();
    // invoiceline is fully coverable by one fragment → it must be hinted;
    // customer is partitioned across sellers so no single full-extent
    // fragment exists for it.
    assert_eq!(hints.len(), 1, "{hints:#?}");
    assert!(hints[0].query.relations.contains_key(&RelId(1)));
    assert!(matches!(
        buyer.close_round(),
        RoundOutcome::Done | RoundOutcome::Continue(_)
    ));
}

#[test]
fn columnar_plans_match_the_row_oracle_on_tpch() {
    use qt_workload::tpch::{queries, tpch_federation, TpchSpec};
    let (cat, stores, rels) = tpch_federation(&TpchSpec {
        nodes: 8,
        orders: 400,
        seed: 42,
        ..TpchSpec::default()
    });
    let cfg = QtConfig::default();
    let columnar = qt_exec::ColumnarConfig::default();
    let holds =
        |n: NodeId, part: PartId| stores.get(&n).is_some_and(|s| s.parts().any(|p| p == part));
    let mut rehomed = 0;
    for sql in [
        queries::REVENUE_PER_NATION,
        queries::BIG_ORDER_LINES,
        queries::LINES_PER_SUPPLIER_NATION,
    ] {
        let q = parse_query(&cat.dict, sql).unwrap();
        let mut sellers = engines(&cat, &cfg);
        let out = run_qt_direct(NodeId(0), cat.dict.clone(), &q, &mut sellers, &cfg);
        let mut plan = out.plan.expect("tpch queries are covered");
        let want = plan.execute_on(&cat.dict, &stores).unwrap();
        let (got, stats) = plan
            .execute_columnar_on(&cat.dict, &stores, &columnar)
            .unwrap();
        assert_eq!(got, want, "{sql}");
        // Fragments run first and scan; the assembly follows and starts
        // from its `Input` slots, one timing per slot.
        let ops: Vec<&str> = stats.timings.iter().map(|t| t.op).collect();
        let first_input = ops
            .iter()
            .position(|op| *op == "Input")
            .expect("Input timing");
        assert!(ops[first_input..].iter().all(|op| *op != "Scan"), "{ops:?}");
        let inputs = ops.iter().filter(|op| **op == "Input").count();
        assert_eq!(inputs, plan.purchases.len(), "{ops:?}");

        // Re-home a purchase of `orders` rows on a node that holds none of
        // them and subcontracts the whole fragment to the original seller:
        // both engines must answer it from the merged stores.
        let Some(i) = plan
            .purchases
            .iter()
            .position(|p| p.offer.query.relations.contains_key(&rels.orders))
        else {
            continue;
        };
        let fragment = plan.purchases[i].offer.query.clone();
        let parts: Vec<PartId> = fragment.relations[&rels.orders]
            .iter()
            .map(|idx| PartId::new(rels.orders, idx))
            .collect();
        let landlord = plan.purchases[i].offer.seller;
        let tenant = *cat
            .nodes
            .iter()
            .find(|&&n| parts.iter().all(|&part| !holds(n, part)))
            .expect("orders partitions are not replicated");
        plan.purchases[i].offer.seller = tenant;
        assert!(plan
            .execute_columnar_on(&cat.dict, &stores, &columnar)
            .is_err());
        plan.purchases[i].offer.subcontracts = vec![(landlord, fragment)];
        assert_eq!(plan.execute_on(&cat.dict, &stores).unwrap(), want, "{sql}");
        let (got, _) = plan
            .execute_columnar_on(&cat.dict, &stores, &columnar)
            .unwrap();
        assert_eq!(got, want, "subcontracted: {sql}");
        rehomed += 1;
    }
    assert!(rehomed >= 1, "no plan bought an orders fragment");
}
