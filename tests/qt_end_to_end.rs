//! Workspace-level end-to-end property test: on random materialized
//! federations and random chain queries, the full QT trading loop produces
//! plans whose execution matches the brute-force reference answer, and the
//! simulator driver agrees with the direct driver. The TPC-H queries of the
//! `answer_tpch` benchmark workload are checked the same way at its scale.

use proptest::prelude::*;
use qt_bench::runners::seller_engines;
use qt_catalog::NodeId;
use qt_core::{run_qt_direct, run_qt_serve, QtConfig, SellerEngine, ServeConfig};
use qt_exec::reference::approx_same_rows;
use qt_exec::{evaluate_query, ColumnarConfig, DataStore};
use qt_query::parse_query;
use qt_workload::tpch::{queries, tpch_federation, TpchSpec};
use qt_workload::{build_federation, gen_join_query_with_cut, FederationSpec, QueryShape};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn qt_plans_compute_correct_answers(
        seed in 0u64..1_000,
        nodes in 2u32..8,
        relations in 1usize..4,
        parts in 1u16..3,
        replication in 1u32..3,
        cut in 1i64..99,
        aggregate in any::<bool>(),
        subcontracting in any::<bool>(),
        k in 1usize..3,
    ) {
        let fed = build_federation(&FederationSpec {
            nodes,
            relations,
            partitions_per_relation: parts,
            replication,
            rows_per_partition: 30,
            scale: 1,
            seed,
            with_data: true,
            speed_spread: 1.0,
            data_skew: 0.0,
        });
        let q = gen_join_query_with_cut(
            &fed.catalog.dict, QueryShape::Chain, relations, aggregate, cut);
        prop_assert!(q.validate(&fed.catalog.dict).is_ok());
        let cfg = QtConfig {
            max_partial_k: k,
            enable_subcontracting: subcontracting,
            ..QtConfig::default()
        };
        let mut sellers = seller_engines(&fed, &cfg);
        let out = run_qt_direct(NodeId(0), fed.catalog.dict.clone(), &q, &mut sellers, &cfg);
        let plan = out.plan.expect("every generated federation covers its data");
        let got = plan.execute_on(&fed.catalog.dict, &fed.stores).unwrap();
        let want = evaluate_query(&q, &fed.union_store()).unwrap();
        prop_assert!(
            approx_same_rows(&got, &want, 1e-9),
            "seed {seed}: got {} rows, want {} rows for {}",
            got.len(), want.len(), q.display_with(&fed.catalog.dict)
        );
        // Cost sanity.
        prop_assert!(plan.est.additive_cost.is_finite() && plan.est.additive_cost >= 0.0);
        prop_assert!(plan.est.response_time <= plan.est.additive_cost + 1e-9);
    }

    #[test]
    fn sim_driver_agrees_with_direct_driver(
        seed in 0u64..500,
        nodes in 2u32..6,
        relations in 1usize..3,
    ) {
        let fed = build_federation(&FederationSpec {
            nodes,
            relations,
            partitions_per_relation: 2,
            replication: 1,
            rows_per_partition: 1_000,
            scale: 1,
            seed,
            with_data: false,
            speed_spread: 1.0,
            data_skew: 0.0,
        });
        let q = gen_join_query_with_cut(
            &fed.catalog.dict, QueryShape::Chain, relations, false, 50);
        let cfg = QtConfig::default();
        let mut direct_sellers = seller_engines(&fed, &cfg);
        let direct =
            run_qt_direct(NodeId(0), fed.catalog.dict.clone(), &q, &mut direct_sellers, &cfg);
        let sim_sellers = seller_engines(&fed, &cfg);
        let one = vec![(0.0, q.clone())];
        let serve = ServeConfig::default();
        let sim = run_qt_serve(NodeId(0), fed.catalog.dict.clone(), one, sim_sellers, &cfg, &serve);
        prop_assert_eq!(direct.messages, sim.messages);
        prop_assert_eq!(direct.iterations, sim.reports[0].iterations);
        match (&direct.plan, &sim.reports[0].plan) {
            (Some(a), Some(b)) => {
                prop_assert!((a.est.additive_cost - b.est.additive_cost).abs() < 1e-9);
                prop_assert_eq!(a.purchases.len(), b.purchases.len());
            }
            (None, None) => {}
            other => prop_assert!(false, "plan presence mismatch: {:?}", other.0.is_some()),
        }
    }
}

/// `answer_tpch`'s three queries, traded by cold sellers and executed at the
/// workload's scale — 8 nodes, 40 000 orders (160 k lineitems), federation
/// seed 5 — return the brute-force oracle's rows.
#[test]
fn tpch_answers_match_the_oracle_at_benchmark_scale() {
    let (catalog, stores, _) = tpch_federation(&TpchSpec {
        nodes: 8,
        orders: 40_000,
        seed: 5,
        ..TpchSpec::default()
    });
    let mut union = DataStore::new();
    for s in stores.values() {
        union.merge_from(s);
    }
    let cfg = QtConfig {
        parallel: false,
        seller_timeout: 300.0,
        ..QtConfig::default()
    };
    for sql in [
        queries::REVENUE_PER_NATION,
        queries::BIG_ORDER_LINES,
        queries::LINES_PER_SUPPLIER_NATION,
    ] {
        let q = parse_query(&catalog.dict, sql).expect("canned SQL parses");
        let mut sellers = catalog
            .nodes
            .iter()
            .map(|&n| (n, SellerEngine::new(catalog.holdings_of(n), cfg.clone())))
            .collect();
        let plan = run_qt_direct(NodeId(0), catalog.dict.clone(), &q, &mut sellers, &cfg)
            .plan
            .expect("the federation holds every partition");
        let (got, _) = plan
            .execute_columnar_on(&catalog.dict, &stores, &ColumnarConfig::default())
            .expect("the traded plan executes");
        let want = evaluate_query(&q, &union).expect("the oracle evaluates");
        assert!(!want.is_empty(), "{sql}");
        assert!(approx_same_rows(&got, &want, 1e-9), "{sql}");
    }
}
