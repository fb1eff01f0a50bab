//! The semantic-cache contract, end to end.
//!
//! Three properties under test:
//!
//! 1. **Determinism** — with the semantic offer cache on, trading outcomes
//!    (plans, cost bits, offer ids) are bit-identical across replays and
//!    between the sim and both real transports.
//! 2. **Soundness** — every semantic hit's compensated answer equals the
//!    row-executor reference, both at the offer layer (warm-seller plans
//!    execute to the reference rows) and at the compensation layer (a
//!    proptest over near-matching query pairs: whatever `match_view`
//!    accepts, compensation must reproduce exactly; the near misses it
//!    rejects are sound by construction and need no check).
//! 3. **Sharing with isolation** — the serve-layer result cache lets later
//!    sessions reuse earlier sessions' finished plans (fewer messages,
//!    zero-iteration reports) without perturbing the sessions that miss,
//!    and adaptive-markup awards selectively invalidate stale entries.

use proptest::prelude::*;
use qt_catalog::NodeId;
use qt_core::{
    compensate_assembly, new_result_cache, run_qt_direct, run_qt_serve, run_qt_serve_real,
    QtConfig, QtOutcome, SellerEngine, ServeConfig,
};
use qt_exec::reference::approx_same_rows;
use qt_exec::{evaluate_query, execute, DataStore, PhysPlan};
use qt_net::{RealConfig, RealTransport};
use qt_query::views::match_view;
use qt_query::{parse_query, Query};
use qt_workload::{telecom_federation, TelecomSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

fn fed() -> (qt_catalog::Catalog, BTreeMap<NodeId, DataStore>) {
    telecom_federation(&TelecomSpec {
        offices: 4,
        invoice_replicas: 2,
        ..TelecomSpec::default()
    })
}

fn union(stores: &BTreeMap<NodeId, DataStore>) -> DataStore {
    let mut all = DataStore::new();
    for s in stores.values() {
        all.merge_from(s);
    }
    all
}

fn cfg() -> QtConfig {
    QtConfig {
        enable_semantic_cache: true,
        ..QtConfig::default()
    }
}

fn engines(cat: &qt_catalog::Catalog, cfg: &QtConfig) -> BTreeMap<NodeId, SellerEngine> {
    cat.nodes
        .iter()
        .map(|&n| (n, SellerEngine::new(cat.holdings_of(n), cfg.clone())))
        .collect()
}

fn digest(out: &QtOutcome) -> (String, Vec<u64>, Option<u64>, u32) {
    let offer_ids: Vec<u64> = out
        .plan
        .iter()
        .flat_map(|p| p.purchases.iter().map(|pu| pu.offer.id))
        .collect();
    (
        format!("{:?}", out.plan),
        offer_ids,
        out.plan.as_ref().map(|p| p.est.additive_cost.to_bits()),
        out.iterations,
    )
}

const WIDE: &str = "SELECT custname, office, charge FROM customer, invoiceline \
                    WHERE customer.custid = invoiceline.custid";
const NARROW: &str = "SELECT custname, charge FROM customer, invoiceline \
                      WHERE customer.custid = invoiceline.custid AND charge > 100";
const AGG: &str = "SELECT office, SUM(charge) FROM customer, invoiceline \
                   WHERE customer.custid = invoiceline.custid GROUP BY office";

/// Warm sellers with `warm_sql`, then trade `sql` — the second run hits the
/// semantic offer cache. The resulting plan must replay bit for bit over
/// fresh sellers, and must execute to the reference.
#[test]
fn warm_subsumption_trades_are_deterministic_and_sound() {
    let (cat, stores) = fed();
    let all = union(&stores);
    for (warm_sql, sql) in [(WIDE, NARROW), (WIDE, AGG), (WIDE, WIDE)] {
        let warm_q = parse_query(&cat.dict, warm_sql).unwrap();
        let q = parse_query(&cat.dict, sql).unwrap();
        let mut digests = Vec::new();
        let c = cfg();
        for _replay in 0..2 {
            let mut sellers = engines(&cat, &c);
            run_qt_direct(NodeId(0), cat.dict.clone(), &warm_q, &mut sellers, &c);
            let out = run_qt_direct(NodeId(0), cat.dict.clone(), &q, &mut sellers, &c);
            let hits: u64 = sellers.values().map(|s| s.cache_stats().hits()).sum();
            assert!(hits > 0, "warm {warm_sql} then {sql}: no cache hit");
            let plan = out.plan.as_ref().expect("trading converged");
            let got = plan.execute_on(&cat.dict, &stores).unwrap();
            let want = evaluate_query(&q, &all).unwrap();
            assert!(
                approx_same_rows(&got, &want, 1e-9),
                "warm plan rows diverge for {sql}"
            );
            digests.push(digest(&out));
        }
        assert_eq!(
            digests[0], digests[1],
            "a replay changed a warm trade for {sql}"
        );
    }
}

/// A semantic hit and a cold trade may price differently (the hit reuses
/// cached estimates) but must answer identically: the row executor is the
/// oracle.
#[test]
fn semantic_hit_plans_answer_like_cold_plans() {
    let (cat, stores) = fed();
    let all = union(&stores);
    let c = cfg();
    let warm_q = parse_query(&cat.dict, WIDE).unwrap();
    for sql in [NARROW, AGG] {
        let q = parse_query(&cat.dict, sql).unwrap();
        let mut warm = engines(&cat, &c);
        run_qt_direct(NodeId(0), cat.dict.clone(), &warm_q, &mut warm, &c);
        let hit = run_qt_direct(NodeId(0), cat.dict.clone(), &q, &mut warm, &c);
        let cold = run_qt_direct(NodeId(0), cat.dict.clone(), &q, &mut engines(&cat, &c), &c);
        let hit_rows = hit
            .plan
            .expect("warm plan")
            .execute_on(&cat.dict, &stores)
            .unwrap();
        let cold_rows = cold
            .plan
            .expect("cold plan")
            .execute_on(&cat.dict, &stores)
            .unwrap();
        let want = evaluate_query(&q, &all).unwrap();
        assert!(
            approx_same_rows(&hit_rows, &want, 1e-9),
            "hit vs oracle: {sql}"
        );
        assert!(
            approx_same_rows(&cold_rows, &want, 1e-9),
            "cold vs oracle: {sql}"
        );
    }
}

/// The sim and both real transports agree on warm (cache-hitting) trades:
/// persistent sellers serve two queries back-to-back on every runtime, so
/// the second trade exercises the semantic cache over the wire as well.
#[test]
fn warm_trades_conform_across_transports() {
    let (cat, _) = fed();
    let c = cfg();
    let warm_q = parse_query(&cat.dict, WIDE).unwrap();
    let q = parse_query(&cat.dict, NARROW).unwrap();
    // The direct driver is the reference leg.
    let direct = {
        let mut sellers = engines(&cat, &c);
        run_qt_direct(NodeId(0), cat.dict.clone(), &warm_q, &mut sellers, &c);
        run_qt_direct(NodeId(0), cat.dict.clone(), &q, &mut sellers, &c)
    };
    let direct_plan = direct.plan.as_ref().expect("direct warm plan");
    // Sim and real transports run the two trades as one serving stream over
    // the same persistent sellers (back-to-back arrivals, concurrency 1).
    let stream = vec![(0.0, warm_q.clone()), (0.0, q.clone())];
    let serve_cfg = ServeConfig::default();
    let sim_out = run_qt_serve(
        NodeId(0),
        cat.dict.clone(),
        stream.clone(),
        engines(&cat, &c),
        &c,
        &serve_cfg,
    );
    let sim_plan = sim_out.reports[1].plan.as_ref().expect("sim warm plan");
    // Serving sessions renumber offers per session, so the direct leg is
    // compared on the assembly and the cost bits, not the purchase ids.
    assert_eq!(
        format!("{:?}", direct_plan.assembly),
        format!("{:?}", sim_plan.assembly),
        "serving warm assembly diverged from the direct driver"
    );
    assert_eq!(
        direct_plan.est.additive_cost.to_bits(),
        sim_plan.est.additive_cost.to_bits(),
        "serving warm cost diverged from the direct driver"
    );
    for transport in [RealTransport::Threads, RealTransport::Tcp] {
        let real = RealConfig {
            transport,
            ..RealConfig::default()
        };
        let real_out = run_qt_serve_real(
            NodeId(0),
            cat.dict.clone(),
            stream.clone(),
            engines(&cat, &c),
            &c,
            &serve_cfg,
            real,
        );
        let real_plan = real_out.reports[1].plan.as_ref().expect("real warm plan");
        assert_eq!(
            format!("{sim_plan:?}"),
            format!("{real_plan:?}"),
            "warm plan diverged on {transport:?}"
        );
        assert_eq!(
            sim_plan.est.additive_cost.to_bits(),
            real_plan.est.additive_cost.to_bits(),
            "warm cost bits diverged on {transport:?}"
        );
    }
}

/// Serve-layer sharing: with a shared result cache, repeated and subsumed
/// arrivals complete with zero trading iterations and strictly less
/// protocol traffic; cold sessions are untouched (bit-identical to the
/// uncached run).
#[test]
fn result_cache_serves_repeats_across_sessions() {
    let (cat, stores) = fed();
    let all = union(&stores);
    let c = cfg();
    let wide = parse_query(&cat.dict, WIDE).unwrap();
    let narrow = parse_query(&cat.dict, NARROW).unwrap();
    let agg = parse_query(&cat.dict, AGG).unwrap();
    let stream = vec![
        (0.0, wide.clone()),
        (1.0, narrow.clone()), // semantic hit on session 0's plan
        (2.0, wide.clone()),   // exact hit
        (3.0, agg.clone()),    // semantic hit (aggregate compensation)
        (4.0, narrow.clone()), // exact hit on the compensated re-insert
    ];
    let uncached = run_qt_serve(
        NodeId(0),
        cat.dict.clone(),
        stream.clone(),
        engines(&cat, &c),
        &c,
        &ServeConfig::default(),
    );
    let cache = new_result_cache(0);
    let cached = run_qt_serve(
        NodeId(0),
        cat.dict.clone(),
        stream.clone(),
        engines(&cat, &c),
        &c,
        &ServeConfig {
            result_cache: Some(Arc::clone(&cache)),
            ..ServeConfig::default()
        },
    );
    assert_eq!(cached.result_cache_hits, 4, "one cold miss, four hits");
    assert_eq!(cached.result_cache_misses, 1);
    assert!(
        cached.messages < uncached.messages,
        "result hits must eliminate trading traffic: {} vs {}",
        cached.messages,
        uncached.messages
    );
    // The cold session is bit-identical to its uncached twin.
    let (a, b) = (&uncached.reports[0], &cached.reports[0]);
    assert_eq!(format!("{:?}", a.plan), format!("{:?}", b.plan));
    // Hit sessions report zero iterations and answer like the reference.
    for (i, q) in [(1usize, &narrow), (2, &wide), (3, &agg), (4, &narrow)] {
        let r = &cached.reports[i];
        assert_eq!(r.iterations, 0, "session {i} should be a cache hit");
        let rows = r
            .plan
            .as_ref()
            .expect("hit plan")
            .execute_on(&cat.dict, &stores)
            .unwrap();
        let want = evaluate_query(q, &all).unwrap();
        assert!(
            approx_same_rows(&rows, &want, 1e-9),
            "session {i} compensated rows diverge"
        );
    }
    // The shared cache outlives the run and carries its stats.
    let stats = *cache.lock().unwrap().stats();
    assert_eq!(stats.hits(), 4);
    assert_eq!(stats.misses, 1);
}

/// A result-cache entry under a query's key that holds another query's plan
/// — a fingerprint collision, simulated through `SemCache::insert`'s explicit
/// key — is a miss: the session trades, gets a plan for its own query, and
/// that plan takes the key over.
#[test]
fn a_colliding_result_cache_entry_is_a_miss() {
    let (cat, stores) = fed();
    let all = union(&stores);
    let c = cfg();
    let q = parse_query(&cat.dict, NARROW).unwrap();
    let other = parse_query(&cat.dict, AGG).unwrap();
    let other_plan = run_qt_direct(
        NodeId(0),
        cat.dict.clone(),
        &other,
        &mut engines(&cat, &c),
        &c,
    )
    .plan
    .expect("plan for the other query");
    let cache = new_result_cache(0);
    cache
        .lock()
        .unwrap()
        .insert(q.fingerprint(), other, other_plan, 1.0);
    let out = run_qt_serve(
        NodeId(0),
        cat.dict.clone(),
        vec![(0.0, q.clone())],
        engines(&cat, &c),
        &c,
        &ServeConfig {
            result_cache: Some(Arc::clone(&cache)),
            ..ServeConfig::default()
        },
    );
    assert_eq!((out.result_cache_hits, out.result_cache_misses), (0, 1));
    let report = &out.reports[0];
    assert!(report.iterations > 0, "the session traded");
    let plan = report.plan.as_ref().expect("traded plan");
    assert_eq!(plan.query, q);
    let rows = plan.execute_on(&cat.dict, &stores).unwrap();
    let want = evaluate_query(&q, &all).unwrap();
    assert!(approx_same_rows(&rows, &want, 1e-9));
    let cache = cache.lock().unwrap();
    let entry = cache
        .get(q.fingerprint())
        .expect("the traded plan is published");
    assert_eq!(entry.query, q);
}

/// An adaptive-markup award stales cached prices over the traded relations;
/// the serving loop invalidates the overlap before publishing, so later
/// identical arrivals re-trade instead of reusing pre-award plans.
#[test]
fn adaptive_awards_invalidate_cached_results_selectively() {
    let (cat, _) = fed();
    let c = QtConfig {
        enable_semantic_cache: true,
        seller_strategy: qt_trade::SellerStrategy::adaptive_markup(1.5),
        ..QtConfig::default()
    };
    let wide = parse_query(&cat.dict, WIDE).unwrap();
    let cust_only = parse_query(&cat.dict, "SELECT custname FROM customer").unwrap();
    let stream = vec![
        (0.0, wide.clone()),
        (1.0, cust_only.clone()),
        (2.0, wide.clone()),
    ];
    let cache = new_result_cache(0);
    let out = run_qt_serve(
        NodeId(0),
        cat.dict.clone(),
        stream,
        engines(&cat, &c),
        &c,
        &ServeConfig {
            result_cache: Some(Arc::clone(&cache)),
            ..ServeConfig::default()
        },
    );
    // Session 0 trades cold and publishes its wide plan. Session 1 (customer
    // only) cannot reuse it (a join view never answers a single-relation
    // query), trades, and its adaptive award invalidates every entry
    // touching `customer` — killing session 0's cached plan. Session 2 must
    // therefore re-trade the wide query from scratch.
    assert_eq!(out.result_cache_hits, 0, "every award stales the overlap");
    assert_eq!(out.result_cache_misses, 3);
    assert!(out.reports.iter().all(|r| r.iterations > 0));
    let stats = *cache.lock().unwrap().stats();
    assert!(stats.invalidated > 0, "selective invalidation never fired");
}

/// One shape of a telecom-family query; near-matching pairs of shapes give
/// the matcher narrower views, stronger view predicates, missing columns,
/// and aggregate/non-aggregate mixes to accept or reject.
#[derive(Debug, Clone)]
struct Shape {
    join: bool,
    charge_floor: Option<i64>,
    custid_floor: Option<i64>,
    select_mask: u8,
    aggregate: bool,
}

fn query_of(dict: &Arc<qt_catalog::SchemaDict>, s: &Shape) -> Option<Query> {
    let mut preds = Vec::new();
    if s.join {
        preds.push("customer.custid = invoiceline.custid".to_string());
    }
    if let Some(f) = s.charge_floor {
        if !s.join {
            return None; // charge lives on invoiceline
        }
        preds.push(format!("charge > {f}"));
    }
    if let Some(f) = s.custid_floor {
        preds.push(format!("customer.custid > {f}"));
    }
    let mut sql = if s.aggregate {
        if !s.join {
            return None;
        }
        "SELECT office, SUM(charge) FROM customer, invoiceline".to_string()
    } else {
        let all_cols = ["custname", "office", "charge"];
        let cols: Vec<&str> = all_cols
            .iter()
            .enumerate()
            .filter(|(i, _)| s.select_mask & (1 << i) != 0)
            .map(|(_, c)| *c)
            .collect();
        if cols.is_empty() || (!s.join && cols.contains(&"charge")) {
            return None;
        }
        format!(
            "SELECT {} FROM {}",
            cols.join(", "),
            if s.join {
                "customer, invoiceline"
            } else {
                "customer"
            }
        )
    };
    if !preds.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&preds.join(" AND "));
    }
    if s.aggregate {
        sql.push_str(" GROUP BY office");
    }
    parse_query(dict, &sql).ok()
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (
        any::<bool>(),
        (any::<bool>(), 0i64..200),
        (any::<bool>(), 0i64..60),
        1u8..8,
        any::<bool>(),
    )
        .prop_map(|(join, charge, custid, select_mask, aggregate)| Shape {
            join,
            charge_floor: charge.0.then_some(charge.1),
            custid_floor: custid.0.then_some(custid.1),
            select_mask,
            aggregate,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Compensation soundness: for near-matching (view, query) pairs drawn
    /// from a telecom-shaped family, whenever the matcher accepts, feeding
    /// the view's reference rows through the compensation plan must yield
    /// the query's reference rows.
    #[test]
    fn accepted_matches_compensate_to_the_reference(a in shape_strategy(), b in shape_strategy()) {
        let (cat, stores) = fed();
        let all = union(&stores);
        let (Some(view), Some(query)) = (query_of(&cat.dict, &a), query_of(&cat.dict, &b)) else {
            continue;
        };
        let Some(m) = match_view(&view, &query) else {
            continue; // rejection is always sound
        };
        let view_rows = evaluate_query(&view, &all).unwrap();
        let input = PhysPlan::Input {
            slot: 0,
            schema: qt_core::dist_plan::answer_schema(&view),
        };
        let plan = compensate_assembly(&view, &query, &m, input)
            .expect("accepted matches must be compensable");
        let empty = DataStore::new();
        let got = execute(&plan, &empty, &[view_rows]).unwrap();
        let want = evaluate_query(&query, &all).unwrap();
        prop_assert!(
            approx_same_rows(&got, &want, 1e-9),
            "unsound match: view={view:?} query={query:?} m={m:?}"
        );
    }
}
