//! Contract-lifecycle integration: two-phase awards, execution leases, and
//! deterministic failover to runner-up offers — end-to-end on the simulator.
//!
//! Three invariants from the PR contract:
//! 1. Fault-free runs with the lifecycle on are bit-identical to lifecycle-off
//!    runs in everything the lifecycle must not touch (plan, cost bits, offer
//!    ids, trading message counts) — the lifecycle only *adds* its own
//!    award-ack/release traffic and zero-byte lease heartbeats.
//! 2. Crashing the awarded winner after trading finishes triggers a repair
//!    whose outcome (re-awarded plan, repair counters) is bit-identical
//!    across replays and across delivery-order perturbations.
//! 3. In the serving layer a mid-session winner crash degrades only that
//!    session; every other session's report stays bit-identical.

use proptest::prelude::*;
use qt_catalog::NodeId;
use qt_core::{run_qt_serve_with_faults, QtConfig, SellerEngine, ServeConfig, ServeOutcome};
use qt_cost::NetLink;
use qt_net::{FaultPlan, Topology};
use qt_query::Query;
use qt_workload::{build_federation, gen_join_query, Federation, FederationSpec, QueryShape};
use std::collections::BTreeMap;

fn spec(nodes: u32, seed: u64) -> FederationSpec {
    FederationSpec {
        nodes,
        relations: 3,
        partitions_per_relation: 2,
        replication: 3,
        rows_per_partition: 100_000,
        scale: 1,
        seed,
        with_data: false,
        speed_spread: 2.0,
        data_skew: 0.0,
    }
}

fn engines(fed: &Federation, cfg: &QtConfig) -> BTreeMap<NodeId, SellerEngine> {
    fed.catalog
        .nodes
        .iter()
        .map(|&n| {
            let mut e = SellerEngine::new(fed.catalog.holdings_of(n), cfg.clone());
            if let Some(r) = fed.resources.get(&n) {
                e.resources = r.clone();
            }
            (n, e)
        })
        .collect()
}

/// Trade `q` alone: one arrival at t = 0, so its report's `finished` time is
/// the optimization time.
fn run(fed: &Federation, q: &Query, cfg: &QtConfig, faults: Option<FaultPlan>) -> ServeOutcome {
    run_qt_serve_with_faults(
        NodeId(0),
        fed.catalog.dict.clone(),
        vec![(0.0, q.clone())],
        engines(fed, cfg),
        cfg,
        &ServeConfig::default(),
        Topology::Uniform(NetLink::wan()),
        faults,
    )
}

/// Everything the inert lifecycle must not perturb.
fn trading_digest(out: &ServeOutcome) -> (String, u64, u64, u32, u64) {
    let r = &out.reports[0];
    let offer_ids: Vec<u64> = r
        .plan
        .iter()
        .flat_map(|p| p.purchases.iter().map(|pu| pu.offer.id))
        .collect();
    (
        format!("{:?}", r.plan),
        r.plan
            .as_ref()
            .map(|p| p.est.additive_cost.to_bits())
            .unwrap_or(0),
        r.finished.to_bits(),
        r.iterations,
        offer_ids.iter().fold(0u64, |h, id| h ^ id.rotate_left(17)),
    )
}

/// The full repair outcome, for bit-identity across schedules.
fn repair_digest(out: &ServeOutcome) -> (String, u64, u64, u64, u64, u64) {
    let (plan, c) = (&out.reports[0].plan, &out.contracts);
    (
        format!("{plan:?}"),
        c.contracts_awarded,
        c.contracts_repaired,
        c.reawards,
        c.rescoped_trades,
        plan.as_ref()
            .map(|p| p.est.additive_cost.to_bits())
            .unwrap_or(0),
    )
}

#[test]
fn inert_lifecycle_is_bit_identical_in_everything_it_must_not_touch() {
    let fed = build_federation(&spec(8, 31));
    let off = QtConfig::default();
    let on = QtConfig {
        enable_contracts: true,
        ..QtConfig::default()
    };
    for qseed in 0..4u64 {
        let shape = if qseed % 2 == 0 {
            QueryShape::Chain
        } else {
            QueryShape::Star
        };
        let q = gen_join_query(&fed.catalog.dict, shape, 3, qseed % 2 == 0, 31 + qseed);
        let base = run(&fed, &q, &off, None);
        let life = run(&fed, &q, &on, None);
        let (base_m, life_m) = (&base.metrics, &life.metrics);
        let life_plan = life.reports[0].plan.as_ref();
        assert!(base.reports[0].plan.is_some());
        assert_eq!(trading_digest(&base), trading_digest(&life));
        // Same award fan-out; the lifecycle adds exactly one ack and one
        // release per award, plus heartbeats that are not data messages.
        assert_eq!(base_m.kind_count("award"), life_m.kind_count("award"));
        assert_eq!(
            life_m.messages - life_m.kind_count("award-ack") - life_m.kind_count("release"),
            base_m.messages,
        );
        assert_eq!(life_m.kind_count("award-ack"), life_m.kind_count("award"));
        assert!(life_m.lease_events > 0 || life_m.kind_count("award") == 0);
        assert_eq!(base_m.lease_events, 0);
        // Every contract settles cleanly fault-free.
        assert_eq!(
            life.contracts.contracts_awarded,
            life_plan.unwrap().purchases.len() as u64
        );
        assert_eq!(life.contracts.contracts_repaired, 0);
        assert_eq!(life.contracts.reawards, 0);
        assert_eq!(life.contracts.rescoped_trades, 0);
        assert!(life.reports[0]
            .contracts
            .iter()
            .all(|c| c.state == "completed"));
    }
}

/// Crash the fault-free winner right after trading finishes and check the
/// repair: a valid plan referencing only live nodes, counters accounting for
/// the failover, bit-identical across replays and perturbed delivery
/// orders.
#[test]
fn post_award_winner_crash_repairs_deterministically() {
    let fed = build_federation(&spec(8, 17));
    let cfg = QtConfig {
        enable_contracts: true,
        ..QtConfig::default()
    };
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, true, 17);
    let clean = run(&fed, &q, &cfg, None);
    let plan = clean.reports[0].plan.as_ref().expect("fault-free plan");
    let winner = plan
        .purchases
        .iter()
        .map(|p| p.offer.seller)
        .find(|&s| s != NodeId(0))
        .expect("a remote winner to crash");
    let t0 = clean.reports[0].finished;
    let crash = move |extra: FaultPlan| extra.with_crash(winner, t0 + 1e-6, 1e12);

    let repaired = run(&fed, &q, &cfg, Some(crash(FaultPlan::default())));
    let (stats, report) = (&repaired.contracts, &repaired.reports[0]);
    let rplan = report
        .plan
        .as_ref()
        .expect("replication 3 must cover the crashed winner");
    for p in &rplan.purchases {
        assert_ne!(
            p.offer.seller, winner,
            "repaired plan references the crashed node"
        );
    }
    // The failover is visible and accounted for.
    assert!(stats.lost_awards + stats.lease_expiries >= 1);
    assert!(stats.reawards + stats.rescoped_trades >= 1);
    assert!(stats.contracts_repaired >= 1);
    assert!(
        report
            .contracts
            .iter()
            .any(|c| c.replacement && c.state == "completed"),
        "{:?}",
        report.contracts
    );
    // Every expired/declined contract has a terminal state.
    for c in &report.contracts {
        assert!(
            matches!(c.state, "completed" | "expired" | "declined" | "abandoned"),
            "non-terminal contract at drain: {c:?}"
        );
    }

    // Bit-identical repair across perturbed delivery schedules: heavy
    // duplication re-delivers every award ack, lease ack, and re-trade reply
    // in a different interleaving, and the lifecycle's dedup must absorb all
    // of it.
    let repaired_dup = run(
        &fed,
        &q,
        &cfg,
        Some(crash(FaultPlan::default().with_duplicates(1.0))),
    );
    assert_eq!(repair_digest(&repaired), repair_digest(&repaired_dup));
    // And the whole thing is reproducible bit-for-bit.
    let again = run(&fed, &q, &cfg, Some(crash(FaultPlan::default())));
    assert_eq!(repair_digest(&repaired), repair_digest(&again));
}

/// CI runs this under `QT_FAULT_SEED` ∈ {7, 99} and `QT_THREADS` ∈ {1, 4}:
/// a lossy network *plus* a post-award winner crash, and the whole run —
/// trading, award retries, lease expiry, failover — must replay bit for bit.
#[test]
fn fault_seeded_crash_repair_is_deterministic_across_thread_counts() {
    let fault_seed: u64 = std::env::var("QT_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);
    let fed = build_federation(&spec(8, fault_seed));
    let cfg = QtConfig {
        enable_contracts: true,
        seller_timeout: 5.0,
        ..QtConfig::default()
    };
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, true, fault_seed);
    let loss = || FaultPlan::lossy(fault_seed, 0.05).with_duplicates(0.05);
    // Reference run under the same loss pattern, no crash: its winner and
    // finish time tell us where "post-award" is for this seed.
    let reference = &run(&fed, &q, &cfg, Some(loss())).reports[0];
    let Some((winner, t_fin)) = reference.plan.as_ref().and_then(|p| {
        p.purchases
            .iter()
            .map(|pu| pu.offer.seller)
            .find(|&s| s != NodeId(0))
            .map(|w| (w, reference.finished))
    }) else {
        return; // all-local plan under this seed: nothing to crash
    };
    let faults = || loss().with_crash(winner, t_fin + 1e-6, 1e12);
    let digest = || {
        let out = run(&fed, &q, &cfg, Some(faults()));
        if let Some(p) = &out.reports[0].plan {
            for pu in &p.purchases {
                assert_ne!(pu.offer.seller, winner, "plan references the crashed node");
            }
        }
        (
            repair_digest(&out),
            out.reports[0].finished.to_bits(),
            out.metrics.dropped,
            out.metrics.duplicated,
            out.contracts.awards_sent,
            out.contracts.award_retries,
        )
    };
    assert_eq!(digest(), digest(), "seed {fault_seed}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized federations/queries: crashing the fault-free winner right
    /// after trading always yields a deterministic repair that references
    /// only live nodes, identically on a replay.
    #[test]
    fn post_award_crash_repair_is_deterministic(seed in 0u64..200) {
        let fed = build_federation(&spec(8, seed));
        let cfg = QtConfig {
            enable_contracts: true,
            ..QtConfig::default()
        };
        let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, seed % 2 == 0, seed);
        let clean = &run(&fed, &q, &cfg, None).reports[0];
        let plan = clean.plan.as_ref().expect("fault-free plan");
        let Some(winner) = plan
            .purchases
            .iter()
            .map(|p| p.offer.seller)
            .find(|&s| s != NodeId(0))
        else {
            return; // all-local plan: nothing to crash
        };
        let crash = FaultPlan::default().with_crash(winner, clean.finished + 1e-6, 1e12);
        let a = run(&fed, &q, &cfg, Some(crash.clone()));
        if let Some(p) = &a.reports[0].plan {
            for pu in &p.purchases {
                assert_ne!(pu.offer.seller, winner);
            }
        }
        let b = run(&fed, &q, &cfg, Some(crash));
        assert_eq!(repair_digest(&a), repair_digest(&b));
        // Losing the winner is always accounted for, one way or the other.
        let c = &a.contracts;
        assert!(
            c.reawards + c.rescoped_trades + c.contracts_repaired >= 1
                || a.reports[0].plan.is_none()
        );
    }
}

#[test]
fn serve_mid_session_winner_crash_degrades_only_that_session() {
    let fed = build_federation(&spec(8, 23));
    let cfg = QtConfig {
        enable_contracts: true,
        ..QtConfig::default()
    };
    let serve = ServeConfig::default();
    // Arrivals far apart: each session's trading *and* contract phase fit
    // in its own window, so a bounded crash cannot leak across sessions.
    let arrivals: Vec<(f64, Query)> = (0..5)
        .map(|i| {
            let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 2, i % 2 == 0, 23 + i);
            (i as f64 * 500.0, q)
        })
        .collect();
    let baseline = run_qt_serve_with_faults(
        NodeId(0),
        fed.catalog.dict.clone(),
        arrivals.clone(),
        engines(&fed, &cfg),
        &cfg,
        &serve,
        Topology::Uniform(NetLink::wan()),
        None,
    );
    assert_eq!(baseline.reports.len(), 5);
    // Pick a mid-stream session with a remote winner and crash that winner
    // for a bounded window starting just after its trading finished.
    let (target, winner, t_fin) = baseline
        .reports
        .iter()
        .skip(1)
        .find_map(|r| {
            let plan = r.plan.as_ref()?;
            let w = plan
                .purchases
                .iter()
                .map(|p| p.offer.seller)
                .find(|&s| s != NodeId(0))?;
            Some((r.session, w, r.finished))
        })
        .expect("a mid-stream session with a remote winner");
    let faulted = run_qt_serve_with_faults(
        NodeId(0),
        fed.catalog.dict.clone(),
        arrivals,
        engines(&fed, &cfg),
        &cfg,
        &serve,
        Topology::Uniform(NetLink::wan()),
        Some(FaultPlan::default().with_crash(winner, t_fin + 1e-6, t_fin + 400.0)),
    );
    assert_eq!(faulted.reports.len(), 5, "every session still completes");
    for (b, f) in baseline.reports.iter().zip(&faulted.reports) {
        assert_eq!(b.session, f.session);
        if f.session == target {
            let plan = f.plan.as_ref().expect("target session must be repaired");
            for p in &plan.purchases {
                assert_ne!(p.offer.seller, winner);
            }
            assert!(f.repaired);
            assert!(f.reawards + f.rescoped_trades >= 1);
        } else {
            // Untouched sessions are bit-identical: same plan, same timings.
            assert_eq!(format!("{:?}", b.plan), format!("{:?}", f.plan));
            assert_eq!(b.finished.to_bits(), f.finished.to_bits());
            assert_eq!(b.iterations, f.iterations);
            assert!(!f.repaired);
        }
    }
    assert!(faulted.contracts.lease_expiries + faulted.contracts.lost_awards >= 1);
    assert_eq!(baseline.contracts.reawards, 0);
}
