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
//!    across `parallel` on/off and across delivery-order perturbations.
//! 3. In the serving layer a mid-session winner crash degrades only that
//!    session; every other session's report stays bit-identical.

use proptest::prelude::*;
use qt_catalog::NodeId;
use qt_core::{
    run_qt_serve_with_faults, run_qt_sim_with_faults, QtConfig, QtOutcome, SellerEngine,
    ServeConfig,
};
use qt_cost::NetLink;
use qt_net::{FaultPlan, Metrics, Topology};
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

fn run(
    fed: &Federation,
    q: &Query,
    cfg: &QtConfig,
    faults: Option<FaultPlan>,
) -> (QtOutcome, Metrics) {
    run_qt_sim_with_faults(
        NodeId(0),
        fed.catalog.dict.clone(),
        q,
        engines(fed, cfg),
        cfg,
        Topology::Uniform(NetLink::wan()),
        faults,
    )
}

/// Everything the inert lifecycle must not perturb.
fn trading_digest(out: &QtOutcome) -> (String, u64, u64, u32, u64) {
    let offer_ids: Vec<u64> = out
        .plan
        .iter()
        .flat_map(|p| p.purchases.iter().map(|pu| pu.offer.id))
        .collect();
    (
        format!("{:?}", out.plan),
        out.plan
            .as_ref()
            .map(|p| p.est.additive_cost.to_bits())
            .unwrap_or(0),
        out.optimization_time.to_bits(),
        out.iterations,
        offer_ids.iter().fold(0u64, |h, id| h ^ id.rotate_left(17)),
    )
}

/// The full repair outcome, for bit-identity across schedules.
fn repair_digest(out: &QtOutcome) -> (String, u64, u64, u64, u64, u64) {
    (
        format!("{:?}", out.plan),
        out.contracts_awarded,
        out.contracts_repaired,
        out.reawards,
        out.rescoped_trades,
        out.plan
            .as_ref()
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
        let (base, base_m) = run(&fed, &q, &off, None);
        let (life, life_m) = run(&fed, &q, &on, None);
        assert!(base.plan.is_some());
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
            life.contracts_awarded,
            life.plan.as_ref().unwrap().purchases.len() as u64
        );
        assert_eq!(life.contracts_repaired, 0);
        assert_eq!(life.reawards, 0);
        assert_eq!(life.rescoped_trades, 0);
        assert!(life.contracts.iter().all(|c| c.state == "completed"));
    }
}

/// Crash the fault-free winner right after trading finishes and check the
/// repair: a valid plan referencing only live nodes, counters accounting for
/// the failover, bit-identical across `parallel` on/off and jittered
/// delivery orders.
#[test]
fn post_award_winner_crash_repairs_deterministically() {
    let fed = build_federation(&spec(8, 17));
    let cfg = QtConfig {
        enable_contracts: true,
        ..QtConfig::default()
    };
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, true, 17);
    let (clean, _) = run(&fed, &q, &cfg, None);
    let plan = clean.plan.as_ref().expect("fault-free plan");
    let winner = plan
        .purchases
        .iter()
        .map(|p| p.offer.seller)
        .find(|&s| s != NodeId(0))
        .expect("a remote winner to crash");
    let t0 = clean.optimization_time;
    let crash = move |extra: FaultPlan| extra.with_crash(winner, t0 + 1e-6, 1e12);

    let (repaired, m) = run(&fed, &q, &cfg, Some(crash(FaultPlan::default())));
    let rplan = repaired
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
    assert!(m.lost_awards + m.lease_expiries >= 1);
    assert!(repaired.reawards + repaired.rescoped_trades >= 1);
    assert!(repaired.contracts_repaired >= 1);
    assert!(
        repaired
            .contracts
            .iter()
            .any(|c| c.replacement && c.state == "completed"),
        "{:?}",
        repaired.contracts
    );
    // Every expired/declined contract has a terminal state.
    for c in &repaired.contracts {
        assert!(
            matches!(c.state, "completed" | "expired" | "declined" | "abandoned"),
            "non-terminal contract at drain: {c:?}"
        );
    }

    // Bit-identical repair across compute parallelism…
    let serial = QtConfig {
        parallel: false,
        ..cfg.clone()
    };
    let (repaired_serial, _) = run(&fed, &q, &serial, Some(crash(FaultPlan::default())));
    assert_eq!(repair_digest(&repaired), repair_digest(&repaired_serial));
    // …and across perturbed delivery schedules: heavy duplication re-delivers
    // every award ack, lease ack, and re-trade reply in a different
    // interleaving, and the lifecycle's dedup must absorb all of it.
    let (repaired_dup, _) = run(
        &fed,
        &q,
        &cfg,
        Some(crash(FaultPlan::default().with_duplicates(1.0))),
    );
    assert_eq!(repair_digest(&repaired), repair_digest(&repaired_dup));
    // And the whole thing is reproducible bit-for-bit.
    let (again, _) = run(&fed, &q, &cfg, Some(crash(FaultPlan::default())));
    assert_eq!(repair_digest(&repaired), repair_digest(&again));
}

/// CI runs this under `QT_FAULT_SEED` ∈ {7, 99} with `QT_THREADS=4`: a lossy
/// network *plus* a post-award winner crash, and the whole run — trading,
/// award retries, lease expiry, failover — must be bit-identical between
/// serial and parallel seller fan-out.
#[test]
fn fault_seeded_crash_repair_is_deterministic_across_thread_counts() {
    std::env::set_var("QT_THREADS", "4");
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
    let (reference, _) = run(&fed, &q, &cfg, Some(loss()));
    let Some((winner, t_fin)) = reference.plan.as_ref().and_then(|p| {
        p.purchases
            .iter()
            .map(|pu| pu.offer.seller)
            .find(|&s| s != NodeId(0))
            .map(|w| (w, reference.optimization_time))
    }) else {
        return; // all-local plan under this seed: nothing to crash
    };
    let faults = || loss().with_crash(winner, t_fin + 1e-6, 1e12);
    let digest = |cfg: &QtConfig| {
        let (out, m) = run(&fed, &q, cfg, Some(faults()));
        if let Some(p) = &out.plan {
            for pu in &p.purchases {
                assert_ne!(pu.offer.seller, winner, "plan references the crashed node");
            }
        }
        (
            repair_digest(&out),
            out.optimization_time.to_bits(),
            m.dropped,
            m.duplicated,
            m.awards_sent,
            m.award_retries,
        )
    };
    let serial = digest(&QtConfig {
        parallel: false,
        ..cfg.clone()
    });
    let parallel = digest(&cfg);
    assert_eq!(serial, parallel, "seed {fault_seed}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized federations/queries: crashing the fault-free winner right
    /// after trading always yields a deterministic repair that references
    /// only live nodes, identically under serial and parallel fan-out.
    #[test]
    fn post_award_crash_repair_is_deterministic(seed in 0u64..200) {
        let fed = build_federation(&spec(8, seed));
        let cfg = QtConfig {
            enable_contracts: true,
            ..QtConfig::default()
        };
        let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, seed % 2 == 0, seed);
        let (clean, _) = run(&fed, &q, &cfg, None);
        let plan = clean.plan.as_ref().expect("fault-free plan");
        let Some(winner) = plan
            .purchases
            .iter()
            .map(|p| p.offer.seller)
            .find(|&s| s != NodeId(0))
        else {
            return; // all-local plan: nothing to crash
        };
        let crash = FaultPlan::default().with_crash(winner, clean.optimization_time + 1e-6, 1e12);
        let (a, _) = run(&fed, &q, &cfg, Some(crash.clone()));
        if let Some(p) = &a.plan {
            for pu in &p.purchases {
                assert_ne!(pu.offer.seller, winner);
            }
        }
        let serial = QtConfig { parallel: false, ..cfg.clone() };
        let (b, _) = run(&fed, &q, &serial, Some(crash));
        assert_eq!(repair_digest(&a), repair_digest(&b));
        // Losing the winner is always accounted for, one way or the other.
        assert!(a.reawards + a.rescoped_trades + a.contracts_repaired >= 1 || a.plan.is_none());
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
