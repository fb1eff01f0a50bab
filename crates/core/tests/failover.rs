//! Broker failover invariants — the regional-resilience PR contract.
//!
//! 1. **The flag is inert without faults.** With failover on and no crash
//!    windows, every session's plan is bit-identical to the failover-off
//!    tiered run, and no promotion happens.
//! 2. **A crashed primary promotes its standby.** The region's sessions
//!    complete through the promoted replica with plans bit-identical to the
//!    crash-free run; promotion latency is bounded by the lease deadline.
//! 3. **Replays are bit-reproducible.** The same fault plan produces the
//!    same promotions, the same plans, and the same counters every run.
//! 4. **Double faults degrade to seller fallback.** With the primary *and*
//!    its standby down, buyers detour to the region's seller descendants
//!    instead of hanging — every session still plans.
//! 5. **Shedding is priority-aware and deterministic.** A high-priority
//!    newcomer evicts the lowest-priority inflight session instead of being
//!    refused; shed sessions recover on the flat path.
//! 6. **Both transports promote identically.** The thread-per-node runtime
//!    runs the same crash plan to the same promotions and plans as the sim.

use qt_catalog::NodeId;
use qt_core::config::MAX_LEASE_MISSES;
use qt_core::{
    run_qt_serve, run_qt_serve_real_with_faults, run_qt_serve_with_faults, HierarchyConfig,
    QtConfig, SellerEngine, ServeConfig, ServeOutcome,
};
use qt_net::{FaultPlan, RealConfig, RealTransport};
use qt_query::Query;
use qt_workload::{
    build_federation, gen_arrivals, synthetic_mix, ArrivalSpec, Federation, FederationSpec,
};
use std::collections::BTreeMap;

fn spec(nodes: u32, seed: u64) -> FederationSpec {
    FederationSpec {
        nodes,
        relations: 4,
        partitions_per_relation: 2,
        replication: 2,
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

/// Arrivals offset past t=0 so boot advertisements land first.
fn arrivals(fed: &Federation, n: usize, seed: u64, offset: f64) -> Vec<(f64, Query)> {
    let mix = synthetic_mix(&fed.catalog.dict, 4, seed);
    gen_arrivals(
        &mix,
        &ArrivalSpec {
            n_queries: n,
            mean_interarrival: 0.5,
            seed,
        },
    )
    .into_iter()
    .map(|(t, q)| (t + offset, q))
    .collect()
}

fn serve_digest(out: &ServeOutcome) -> Vec<(u64, String, u64)> {
    out.reports
        .iter()
        .map(|r| {
            (
                r.session.0,
                format!("{:?}", r.plan),
                r.plan
                    .as_ref()
                    .map(|p| p.est.additive_cost.to_bits())
                    .unwrap_or(0),
            )
        })
        .collect()
}

/// Short lease so promotion happens well inside the buyer's RFB deadline.
fn cfg() -> QtConfig {
    QtConfig {
        seller_timeout: 300.0,
        lease_interval: 2.0,
        ..QtConfig::default()
    }
}

fn hier(failover: bool) -> HierarchyConfig {
    HierarchyConfig {
        fanout: 4,
        failover,
        ..HierarchyConfig::default()
    }
}

fn serve(failover: bool) -> ServeConfig {
    ServeConfig {
        concurrency: 4,
        batch_rfbs: true,
        hierarchy: Some(hier(failover)),
        ..ServeConfig::default()
    }
}

/// 16 nodes, fanout 4: buyer 0, sellers 1–15, level-1 brokers 16–19;
/// with failover on, standbys 20–23 shadow them in order.
const PRIMARY: NodeId = NodeId(16);
const STANDBY: NodeId = NodeId(20);

fn run(fed: &Federation, failover: bool, faults: Option<FaultPlan>) -> ServeOutcome {
    let c = cfg();
    run_qt_serve_with_faults(
        NodeId(0),
        fed.catalog.dict.clone(),
        arrivals(fed, 12, 11, 5.0),
        engines(fed, &c),
        &c,
        &serve(failover),
        faults,
    )
}

#[test]
fn failover_flag_is_inert_without_faults() {
    let fed = build_federation(&spec(16, 11));
    let off = run(&fed, false, None);
    let on = run(&fed, true, None);
    assert_eq!(
        serve_digest(&off),
        serve_digest(&on),
        "failover without faults must not perturb a single plan"
    );
    assert_eq!(on.promotions, 0);
    assert_eq!(on.region_fallbacks, 0);
    assert_eq!(on.shed_retries, 0);
    assert!(on.promoted_regions.is_empty());
}

#[test]
fn crashed_primary_promotes_standby_and_plans_match_crash_free() {
    let fed = build_federation(&spec(16, 11));
    let crash_at = 6.0;
    let faults = FaultPlan::default().with_broker_crash(PRIMARY, crash_at, f64::INFINITY);
    let crash_free = run(&fed, true, None);
    let out = run(&fed, true, Some(faults));
    assert_eq!(out.promotions, 1, "exactly one region fails over");
    let (failed, standby, at) = out.promoted_regions[0];
    assert_eq!(failed, PRIMARY);
    assert_eq!(standby, STANDBY);
    // Promotion latency: `MAX_LEASE_MISSES` unanswered intervals plus the
    // deciding tick, plus one interval of probe-phase slack.
    let c = cfg();
    let deadline = (MAX_LEASE_MISSES + 2) as f64 * c.lease_interval;
    assert!(
        at - crash_at <= deadline,
        "promotion at {at} exceeds lease deadline {deadline} after crash at {crash_at}"
    );
    assert_eq!(
        out.reports.iter().filter(|r| r.plan.is_some()).count(),
        12,
        "every session must complete through the promoted replica"
    );
    assert_eq!(
        serve_digest(&crash_free),
        serve_digest(&out),
        "re-scoped rounds replay the same offers: plans stay bit-identical"
    );
    assert_eq!(
        out.region_fallbacks, 0,
        "promotion preempts seller fallback"
    );
}

#[test]
fn crash_replays_are_bit_reproducible() {
    // `QT_FAULT_SEED` (CI replays 7 and 99) picks which region dies and
    // when, so different seeds race the crash against different lease
    // ticks — every interleaving must still be bit-reproducible.
    let seed = std::env::var("QT_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7u64);
    let broker = NodeId(PRIMARY.0 + (seed % 4) as u32);
    let at = 6.0 + (seed % 5) as f64 * 0.7;
    let fed = build_federation(&spec(16, 11));
    let faults = FaultPlan::default().with_broker_crash(broker, at, f64::INFINITY);
    let a = run(&fed, true, Some(faults.clone()));
    let b = run(&fed, true, Some(faults));
    assert_eq!(a.promotions, 1);
    assert_eq!(a.reports.iter().filter(|r| r.plan.is_some()).count(), 12);
    assert_eq!(serve_digest(&a), serve_digest(&b));
    assert_eq!(a.promoted_regions, b.promoted_regions);
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.promotions, b.promotions);
    assert_eq!(a.region_fallbacks, b.region_fallbacks);
}

#[test]
fn dead_primary_and_standby_fall_back_to_region_sellers() {
    let fed = build_federation(&spec(16, 11));
    let faults = FaultPlan::default()
        .with_broker_crash(PRIMARY, 6.0, f64::INFINITY)
        .with_broker_crash(STANDBY, 6.0, f64::INFINITY);
    let out = run(&fed, true, Some(faults));
    assert_eq!(out.promotions, 0, "the standby died before promoting");
    assert!(
        out.region_fallbacks >= 1,
        "buyers must detour around the dead region"
    );
    assert_eq!(
        out.reports.iter().filter(|r| r.plan.is_some()).count(),
        12,
        "seller fallback must complete every session"
    );
}

#[test]
fn priority_shedding_protects_high_priority_sessions() {
    let fed = build_federation(&spec(16, 13));
    let c = cfg();
    // Every arrival lands in the same instant; inflight bound 1 forces the
    // brokers to shed all but one concurrent session. Session 7 outranks
    // everyone, so it must evict the inflight session rather than shed.
    let stream: Vec<(f64, Query)> = arrivals(&fed, 8, 13, 5.0)
        .into_iter()
        .map(|(_, q)| (5.0, q))
        .collect();
    let sv = ServeConfig {
        concurrency: 8,
        batch_rfbs: true,
        priorities: vec![0, 0, 0, 0, 0, 0, 0, 9],
        hierarchy: Some(HierarchyConfig {
            max_broker_inflight: 1,
            ..hier(false)
        }),
        ..ServeConfig::default()
    };
    let go = || {
        run_qt_serve(
            NodeId(0),
            fed.catalog.dict.clone(),
            stream.clone(),
            engines(&fed, &c),
            &c,
            &sv,
        )
    };
    let out = go();
    assert_eq!(out.reports.len(), 8);
    let high = &out.reports[7];
    assert!(
        !high.shed_retried,
        "the priority-9 session must never be shed"
    );
    assert!(high.plan.is_some());
    assert!(
        out.shed_retries > 0,
        "low-priority sessions shed (and then recover on the flat path)"
    );
    assert_eq!(out.shed_sessions, 0, "flat retries absorb every shed");
    assert!(out.reports.iter().all(|r| r.plan.is_some()));
    // Determinism: the eviction choice is a pure function of the plan.
    let again = go();
    assert_eq!(serve_digest(&out), serve_digest(&again));
    assert_eq!(out.shed_retries, again.shed_retries);
}

#[test]
fn threads_transport_promotes_identically_to_sim() {
    let fed = build_federation(&spec(16, 11));
    let c = cfg();
    let faults = FaultPlan::default().with_broker_crash(PRIMARY, 6.0, f64::INFINITY);
    let sim = run(&fed, true, Some(faults.clone()));
    let real = run_qt_serve_real_with_faults(
        NodeId(0),
        fed.catalog.dict.clone(),
        arrivals(&fed, 12, 11, 5.0),
        engines(&fed, &c),
        &c,
        &serve(true),
        RealConfig {
            transport: RealTransport::Threads,
            time_scale: 0.005,
            ..RealConfig::default()
        },
        Some(faults),
    );
    assert_eq!(real.promotions, 1);
    let promoted: Vec<(NodeId, NodeId)> = real
        .promoted_regions
        .iter()
        .map(|&(f, s, _)| (f, s))
        .collect();
    let promoted_sim: Vec<(NodeId, NodeId)> = sim
        .promoted_regions
        .iter()
        .map(|&(f, s, _)| (f, s))
        .collect();
    assert_eq!(promoted, promoted_sim, "same regions fail over");
    assert_eq!(
        serve_digest(&sim),
        serve_digest(&real),
        "both transports must re-scope to bit-identical plans"
    );
}
