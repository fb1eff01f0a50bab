//! Sim-conformance oracle for the real transport (`qt_net::real`).
//!
//! The simulator is the deterministic oracle: under the same federation,
//! query, and configuration, the thread-per-node runtime — both in-process
//! channels and loopback TCP — must produce **bit-identical** trading
//! outcomes. "Bit-identical" means the full plan Debug rendering (purchase
//! offer ids, sellers, assembly skeleton), the plan cost *bits*
//! (`f64::to_bits`), the purchased offer ids, and the trading aggregates
//! (iterations, seller effort, offers considered). Wall-clock timing,
//! message batching, and byte accounting are allowed to differ and are
//! deliberately not compared.
//!
//! CI runs this suite under `QT_THREADS=1` and `QT_THREADS=4` and two
//! fault-free seeds; the seeds below keep both loops covered even in a
//! single local run.

use qt_catalog::NodeId;
use qt_core::{
    run_qt_direct, run_qt_serve, run_qt_serve_real, DistributedPlan, QtConfig, QtOutcome,
    SellerEngine, ServeConfig, ServeOutcome,
};
use qt_net::{RealConfig, RealTransport};
use qt_query::Query;
use qt_workload::{
    build_federation, gen_arrivals, gen_join_query, synthetic_mix, ArrivalSpec, Federation,
    FederationSpec, QueryShape,
};
use std::collections::BTreeMap;

fn spec(nodes: u32, seed: u64) -> FederationSpec {
    FederationSpec {
        nodes,
        relations: 3,
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

fn threads() -> RealConfig {
    RealConfig {
        transport: RealTransport::Threads,
        ..RealConfig::default()
    }
}

fn tcp() -> RealConfig {
    RealConfig {
        transport: RealTransport::Tcp,
        ..RealConfig::default()
    }
}

/// Everything the transport must not perturb: the plan, its offer ids and
/// cost bits, iterations, seller effort and offers considered.
type Digest = (String, Vec<u64>, Option<u64>, u32, u64, u64);

fn digest(plan: &Option<DistributedPlan>, iterations: u32, effort: u64, considered: u64) -> Digest {
    let offer_ids: Vec<u64> = plan
        .iter()
        .flat_map(|p| p.purchases.iter().map(|pu| pu.offer.id))
        .collect();
    let cost_bits = plan.as_ref().map(|p| p.est.additive_cost.to_bits());
    (
        format!("{plan:?}"),
        offer_ids,
        cost_bits,
        iterations,
        effort,
        considered,
    )
}

fn direct_digest(out: &QtOutcome) -> Digest {
    digest(
        &out.plan,
        out.iterations,
        out.seller_effort,
        out.buyer_considered,
    )
}

/// The digest of a one-arrival serving run.
fn served_digest(out: &ServeOutcome) -> Digest {
    let r = &out.reports[0];
    let considered = r.history.iter().map(|h| h.considered).sum();
    digest(&r.plan, r.iterations, out.seller_effort, considered)
}

fn assert_conforms(sim: &Digest, real: &ServeOutcome, ctx: &str) {
    assert_eq!(sim, &served_digest(real), "real transport diverged ({ctx})");
    assert!(real.reports[0].plan.is_some(), "no plan produced ({ctx})");
}

/// `q` alone, arriving at t = 0, on the simulator.
fn sim_one(fed: &Federation, q: &Query, cfg: &QtConfig) -> ServeOutcome {
    let one = vec![(0.0, q.clone())];
    let sellers = engines(fed, cfg);
    run_qt_serve(
        NodeId(0),
        fed.catalog.dict.clone(),
        one,
        sellers,
        cfg,
        &ServeConfig::default(),
    )
}

/// `q` alone, arriving at t = 0, on the real transport.
fn real_one(fed: &Federation, q: &Query, cfg: &QtConfig, real: RealConfig) -> ServeOutcome {
    let one = vec![(0.0, q.clone())];
    let sellers = engines(fed, cfg);
    let serve = ServeConfig::default();
    run_qt_serve_real(
        NodeId(0),
        fed.catalog.dict.clone(),
        one,
        sellers,
        cfg,
        &serve,
        real,
    )
}

/// Per-session observables must be bit-identical between the simulated and
/// the real serving layer; latency/makespan are wall clock on the real
/// transport and deliberately excluded.
fn assert_sessions_conform(sim: &ServeOutcome, real: &ServeOutcome, ctx: &str) {
    assert_eq!(
        sim.reports.len(),
        real.reports.len(),
        "session count ({ctx})"
    );
    for (x, y) in sim.reports.iter().zip(&real.reports) {
        assert_eq!(x.session, y.session, "session order ({ctx})");
        assert_eq!(
            format!("{:?}", x.plan),
            format!("{:?}", y.plan),
            "plan for session {:?} ({ctx})",
            x.session
        );
        let bits = |p: &Option<qt_core::DistributedPlan>| {
            p.as_ref().map(|p| p.est.additive_cost.to_bits())
        };
        assert_eq!(
            bits(&x.plan),
            bits(&y.plan),
            "cost bits for session {:?} ({ctx})",
            x.session
        );
        assert_eq!(
            x.iterations, y.iterations,
            "iterations for session {:?} ({ctx})",
            x.session
        );
    }
    assert_eq!(sim.seller_effort, real.seller_effort, "effort ({ctx})");
}

#[test]
fn threads_runtime_matches_sim_and_direct_across_seeds() {
    for seed in [11u64, 42] {
        let cfg = QtConfig::default();
        let fed = build_federation(&spec(8, seed));
        let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, seed % 2 == 0, seed);
        let sim_out = served_digest(&sim_one(&fed, &q, &cfg));
        let real_out = real_one(&fed, &q, &cfg, threads());
        assert_conforms(&sim_out, &real_out, &format!("threads, seed {seed}"));
        assert!(real_out.metrics.wire_bytes > 0, "codec bytes not counted");
        // The analytic direct driver is the third leg of the oracle.
        let direct_out = run_qt_direct(
            NodeId(0),
            fed.catalog.dict.clone(),
            &q,
            &mut engines(&fed, &cfg),
            &cfg,
        );
        assert_conforms(
            &direct_digest(&direct_out),
            &real_out,
            &format!("direct, seed {seed}"),
        );
    }
}

#[test]
fn tcp_runtime_matches_sim_across_seeds() {
    for seed in [11u64, 42] {
        let cfg = QtConfig::default();
        let fed = build_federation(&spec(8, seed));
        let q = gen_join_query(&fed.catalog.dict, QueryShape::Star, 3, seed % 2 == 0, seed);
        let sim_out = served_digest(&sim_one(&fed, &q, &cfg));
        let real_out = real_one(&fed, &q, &cfg, tcp());
        assert_conforms(&sim_out, &real_out, &format!("tcp, seed {seed}"));
        // On the socket path every frame is actually encoded and decoded.
        assert!(real_out.metrics.wire_bytes > 0, "codec bytes not counted");
    }
}

#[test]
fn contract_lifecycle_settles_identically_on_real_transport() {
    let cfg = QtConfig {
        enable_contracts: true,
        ..QtConfig::default()
    };
    let fed = build_federation(&spec(8, 7));
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, true, 7);
    let sim_out = sim_one(&fed, &q, &cfg);
    let real_out = real_one(&fed, &q, &cfg, threads());
    assert_conforms(&served_digest(&sim_out), &real_out, "contracts on");
    let (sim_c, real_c) = (sim_out.contracts, real_out.contracts);
    assert_eq!(sim_c.contracts_awarded, real_c.contracts_awarded);
    assert_eq!(sim_c.reawards, real_c.reawards);
}

fn burst_arrivals(fed: &Federation, n: usize, seed: u64) -> Vec<(f64, Query)> {
    let mix = synthetic_mix(&fed.catalog.dict, 4, seed);
    gen_arrivals(
        &mix,
        &ArrivalSpec {
            n_queries: n,
            mean_interarrival: 0.0,
            seed,
        },
    )
}

#[test]
fn serving_layer_matches_sim_on_threads_and_tcp() {
    for seed in [5u64, 42] {
        let cfg = QtConfig::default();
        let serve_cfg = ServeConfig {
            concurrency: 4,
            batch_rfbs: true,
            ..ServeConfig::default()
        };
        let fed = build_federation(&spec(8, seed));
        let stream = burst_arrivals(&fed, 6, seed);
        let sim_out = run_qt_serve(
            NodeId(0),
            fed.catalog.dict.clone(),
            stream.clone(),
            engines(&fed, &cfg),
            &cfg,
            &serve_cfg,
        );
        let threads_out = run_qt_serve_real(
            NodeId(0),
            fed.catalog.dict.clone(),
            stream.clone(),
            engines(&fed, &cfg),
            &cfg,
            &serve_cfg,
            threads(),
        );
        assert_sessions_conform(
            &sim_out,
            &threads_out,
            &format!("serve threads, seed {seed}"),
        );
        if seed == 5 {
            let tcp_out = run_qt_serve_real(
                NodeId(0),
                fed.catalog.dict.clone(),
                stream.clone(),
                engines(&fed, &cfg),
                &cfg,
                &serve_cfg,
                tcp(),
            );
            assert_sessions_conform(&sim_out, &tcp_out, &format!("serve tcp, seed {seed}"));
        }
    }
}
