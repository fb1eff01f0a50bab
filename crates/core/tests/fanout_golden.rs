//! The fan-out round — buyer and broker tier — pinned to a literal table.
//!
//! A round goes out, replies are gathered, laggards are retried, a failed
//! region is swapped for its promoted standby or routed around, and the
//! replies are merged into the buyer's offer pool. [`GOLDEN`] pins what that
//! machinery produces on seven serving scenarios: per session the plan, its
//! cost bits, the offer ids it bought and the iterations it took; per run
//! the message total, every message and timer kind's count, bytes, makespan
//! and the retry/timeout/degrade/failover counters. Regenerate with the
//! ignored `print_golden_table` test only on a commit whose fan-out is
//! trusted.
//!
//! The loss scenarios roll their drops on the simulator's event sequence
//! numbers, so they also pin the order of every send and timer.

use qt_catalog::NodeId;
use qt_core::ServeOutcome;
use qt_core::{run_qt_serve_with_faults, HierarchyConfig, QtConfig, SellerEngine, ServeConfig};
use qt_cost::NetLink;
use qt_net::{FaultPlan, Topology};
use qt_query::Query;
use qt_workload::{
    build_federation, gen_arrivals, synthetic_mix, ArrivalSpec, Federation, FederationSpec,
};
use std::collections::BTreeMap;

/// `[plan fnv, cost bits, offer-id fold, iterations]`.
type SessionRow = [u64; 4];

/// `[messages, bytes bits, makespan bits, retries, timeouts, degraded
/// rounds, region fallbacks, shed retries]`.
type RunRow = [u64; 8];

struct Golden {
    name: &'static str,
    run: RunRow,
    by_kind: &'static [(&'static str, u64)],
    /// `(failed primary, promoted standby, promotion time bits)`.
    promoted: &'static [(u32, u32, u64)],
    unreachable: &'static [u32],
    sessions: &'static [SessionRow],
}

const SCENARIOS: [&str; 7] = [
    "two-level",
    "l1-crash",
    "top-crash",
    "double-crash",
    "shed",
    "loss-tiered",
    "loss-flat",
];

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
fn arrivals(fed: &Federation, n: usize, seed: u64) -> Vec<(f64, Query)> {
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
    .map(|(t, q)| (t + 5.0, q))
    .collect()
}

fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hier(fanout: usize, failover: bool) -> HierarchyConfig {
    HierarchyConfig {
        fanout,
        failover,
        ..HierarchyConfig::default()
    }
}

/// Run scenario `name` on a 16-node federation: buyer 0, sellers 1–15.
/// Fanout 3 builds level-1 brokers 16–20 under level-2 brokers 21–22
/// (standbys 23–29); fanout 4 builds level-1 brokers 16–19 under the buyer
/// (standbys 20–23).
fn scenario(name: &str) -> ServeOutcome {
    let fed = build_federation(&spec(16, 11));
    let cfg = QtConfig {
        seller_timeout: 300.0,
        lease_interval: 2.0,
        ..QtConfig::default()
    };
    let mut stream = arrivals(&fed, 12, 11);
    let mut serve = ServeConfig {
        concurrency: 4,
        batch_rfbs: true,
        ..ServeConfig::default()
    };
    let mut faults = None;
    match name {
        "two-level" => serve.hierarchy = Some(hier(3, true)),
        "l1-crash" => {
            serve.hierarchy = Some(hier(3, true));
            faults = Some(FaultPlan::default().with_broker_crash(NodeId(16), 6.0, f64::INFINITY));
        }
        "top-crash" => {
            serve.hierarchy = Some(hier(4, true));
            faults = Some(FaultPlan::default().with_broker_crash(NodeId(16), 6.0, f64::INFINITY));
        }
        "double-crash" => {
            serve.hierarchy = Some(hier(4, true));
            faults = Some(
                FaultPlan::default()
                    .with_broker_crash(NodeId(16), 6.0, f64::INFINITY)
                    .with_broker_crash(NodeId(20), 6.0, f64::INFINITY),
            );
        }
        "shed" => {
            // Every arrival in one instant against an inflight bound of 1:
            // the brokers shed (and evict for the priority-9 session), and
            // the shed sessions retry on the flat path.
            stream = stream.into_iter().map(|(_, q)| (5.0, q)).collect();
            serve.concurrency = 8;
            serve.priorities = vec![0, 0, 0, 0, 0, 0, 0, 9];
            serve.hierarchy = Some(HierarchyConfig {
                max_broker_inflight: 1,
                ..hier(4, false)
            });
        }
        "loss-tiered" => {
            serve.hierarchy = Some(hier(3, false));
            faults = Some(FaultPlan::lossy(5, 0.05));
        }
        "loss-flat" => faults = Some(FaultPlan::lossy(5, 0.05)),
        other => panic!("unknown scenario {other}"),
    }
    run_qt_serve_with_faults(
        NodeId(0),
        fed.catalog.dict.clone(),
        stream,
        engines(&fed, &cfg),
        &cfg,
        &serve,
        Topology::Uniform(NetLink::wan()),
        faults,
    )
}

fn session_rows(out: &ServeOutcome) -> Vec<SessionRow> {
    out.reports
        .iter()
        .map(|r| {
            let ids = r
                .plan
                .iter()
                .flat_map(|p| p.purchases.iter().map(|pu| pu.offer.id))
                .fold(0u64, |h, id| h.rotate_left(5) ^ id);
            [
                fnv(&format!("{:?}", r.plan)),
                r.plan.as_ref().map_or(0, |p| p.est.additive_cost.to_bits()),
                ids,
                r.iterations as u64,
            ]
        })
        .collect()
}

fn run_row(out: &ServeOutcome) -> RunRow {
    [
        out.messages,
        out.metrics.bytes.to_bits(),
        out.makespan.to_bits(),
        out.retries,
        out.timeouts,
        out.degraded_rounds,
        out.region_fallbacks,
        out.shed_retries,
    ]
}

#[test]
fn fan_out_rounds_reproduce_the_golden_table() {
    assert_eq!(GOLDEN.len(), SCENARIOS.len());
    for (name, g) in SCENARIOS.iter().zip(&GOLDEN) {
        assert_eq!(*name, g.name);
        let out = scenario(name);
        assert_eq!(session_rows(&out), g.sessions, "{name}: sessions");
        assert_eq!(run_row(&out), g.run, "{name}: run counters");
        let by_kind: Vec<(&str, u64)> = out.metrics.by_kind.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(by_kind, g.by_kind, "{name}: message and timer kinds");
        let promoted: Vec<(u32, u32, u64)> = out
            .promoted_regions
            .iter()
            .map(|&(f, s, at)| (f.0, s.0, at.to_bits()))
            .collect();
        assert_eq!(promoted, g.promoted, "{name}: promoted regions");
        let unreachable: Vec<u32> = out.unreachable_sellers.iter().map(|n| n.0).collect();
        assert_eq!(unreachable, g.unreachable, "{name}: unreachable sellers");
    }
}

/// Regenerates the [`GOLDEN`] literal: `cargo test -p qt-core --test
/// fanout_golden -- --ignored --nocapture`.
#[test]
#[ignore]
fn print_golden_table() {
    println!("static GOLDEN: [Golden; {}] = [", SCENARIOS.len());
    for name in SCENARIOS {
        let out = scenario(name);
        let hex = |v: &[u64]| {
            v.iter()
                .map(|x| format!("{x:#x}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        println!("    Golden {{");
        println!("        name: {name:?},");
        println!("        run: [{}],", hex(&run_row(&out)));
        let kinds: Vec<String> = out
            .metrics
            .by_kind
            .iter()
            .map(|(k, v)| format!("({k:?}, {v})"))
            .collect();
        println!("        by_kind: &[{}],", kinds.join(", "));
        let promoted: Vec<String> = out
            .promoted_regions
            .iter()
            .map(|&(f, s, at)| format!("({}, {}, {:#x})", f.0, s.0, at.to_bits()))
            .collect();
        println!("        promoted: &[{}],", promoted.join(", "));
        let unreachable: Vec<String> = out
            .unreachable_sellers
            .iter()
            .map(|n| n.0.to_string())
            .collect();
        println!("        unreachable: &[{}],", unreachable.join(", "));
        println!("        sessions: &[");
        for r in session_rows(&out) {
            println!("            [{}],", hex(&r));
        }
        println!("        ],");
        println!("    }},");
    }
    println!("];");
}

#[rustfmt::skip]
static GOLDEN: [Golden; 7] = [
    Golden {
        name: "two-level",
        run: [0x1fa, 0x40fb660000000000, 0x4012df527f00517f, 0x0, 0x0, 0x0, 0x0, 0x0],
        by_kind: &[("ad", 15), ("advertise", 68), ("agg-offers", 75), ("arrive", 12), ("award", 54), ("boot", 7), ("broker-lease", 42), ("broker-lease-ack", 42), ("broker-lease-tick", 42), ("broker-timeout", 75), ("flush", 12), ("negotiate", 54), ("offers", 78), ("quiesce", 24), ("rfb", 153), ("timeout", 12)],
        promoted: &[],
        unreachable: &[],
        sessions: &[
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x86afebfab724fe72, 0x402166b24fef0e4a, 0x1e34a06900100001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0xd9038de7e18c28c6, 0x4018a26cda35afca, 0x69425e300100001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x86afebfab724fe72, 0x402166b24fef0e4a, 0x1e34a06900100001, 0x1],
        ],
    },
    Golden {
        name: "l1-crash",
        run: [0x1a7, 0x40fbad8000000000, 0x401c96c58e6afedf, 0x0, 0x0, 0x0, 0x0, 0x0],
        by_kind: &[("ad", 15), ("advertise", 69), ("agg-offers", 75), ("arrive", 12), ("award", 54), ("boot", 7), ("broker-lease", 48), ("broker-lease-ack", 45), ("broker-lease-tick", 48), ("broker-timeout", 75), ("fault", 1), ("flush", 7), ("negotiate", 54), ("offers", 48), ("promote", 3), ("quiesce", 22), ("region-update", 1), ("rfb", 93), ("rfb-retry", 4), ("timeout", 12)],
        promoted: &[(16, 23, 0x4028000000000000)],
        unreachable: &[],
        sessions: &[
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x86afebfab724fe72, 0x402166b24fef0e4a, 0x1e34a06900100001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0xd9038de7e18c28c6, 0x4018a26cda35afca, 0x69425e300100001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x86afebfab724fe72, 0x402166b24fef0e4a, 0x1e34a06900100001, 0x1],
        ],
    },
    Golden {
        name: "top-crash",
        run: [0x149, 0x40f5268000000000, 0x401c131a083fd715, 0x4, 0x0, 0x0, 0x0, 0x0],
        by_kind: &[("ad", 15), ("advertise", 42), ("agg-offers", 48), ("arrive", 12), ("award", 54), ("boot", 4), ("broker-lease", 27), ("broker-lease-ack", 24), ("broker-lease-tick", 27), ("broker-timeout", 48), ("fault", 1), ("flush", 8), ("negotiate", 54), ("offers", 45), ("promote", 4), ("quiesce", 7), ("region-update", 1), ("rfb", 74), ("timeout", 12)],
        promoted: &[(16, 20, 0x4028000000000000)],
        unreachable: &[],
        sessions: &[
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x86afebfab724fe72, 0x402166b24fef0e4a, 0x1e34a06900100001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0xd9038de7e18c28c6, 0x4018a26cda35afca, 0x69425e300100001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x86afebfab724fe72, 0x402166b24fef0e4a, 0x1e34a06900100001, 0x1],
        ],
    },
    Golden {
        name: "double-crash",
        run: [0x14a, 0x40f62f0000000000, 0x40b06939cf0e8a9c, 0x18, 0x9, 0x0, 0x1, 0x0],
        by_kind: &[("ad", 15), ("advertise", 42), ("agg-offers", 37), ("arrive", 12), ("award", 54), ("boot", 4), ("broker-lease", 6315), ("broker-lease-ack", 6315), ("broker-lease-tick", 6315), ("broker-timeout", 37), ("fault", 2), ("flush", 16), ("negotiate", 54), ("offers", 51), ("quiesce", 7), ("rfb", 85), ("timeout", 21)],
        promoted: &[],
        unreachable: &[],
        sessions: &[
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x86afebfab724fe72, 0x402166b24fef0e4a, 0x1e34a06900100001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0xd9038de7e18c28c6, 0x4018a26cda35afca, 0x69425e300100001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x86afebfab724fe72, 0x402166b24fef0e4a, 0x1e34a06900100001, 0x1],
        ],
    },
    Golden {
        name: "shed",
        run: [0x12d, 0x40f7d78000000000, 0x4092c20d83c6c97d, 0x0, 0x0, 0x0, 0x0, 0xb],
        by_kind: &[("ad", 15), ("advertise", 27), ("agg-offers", 6), ("arrive", 12), ("award", 54), ("broker-timeout", 10), ("flush", 5), ("negotiate", 54), ("offers", 55), ("rfb", 63), ("shed", 42), ("shed-retry", 11), ("timeout", 23)],
        promoted: &[],
        unreachable: &[],
        sessions: &[
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x86afebfab724fe72, 0x402166b24fef0e4a, 0x1e34a06900100001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0xd9038de7e18c28c6, 0x4018a26cda35afca, 0x69425e300100001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x86afebfab724fe72, 0x402166b24fef0e4a, 0x1e34a06900100001, 0x1],
        ],
    },
    Golden {
        name: "loss-tiered",
        run: [0x195, 0x40f8ff8000000000, 0x409e7ce98b9fc34e, 0x4, 0x4, 0x0, 0x0, 0x0],
        by_kind: &[("ad", 15), ("advertise", 37), ("agg-offers", 67), ("arrive", 12), ("award", 51), ("broker-timeout", 79), ("flush", 16), ("negotiate", 41), ("offers", 66), ("rfb", 131), ("rfb-retry", 12), ("timeout", 16)],
        promoted: &[],
        unreachable: &[],
        sessions: &[
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x86afebfab724fe72, 0x402166b24fef0e4a, 0x1e34a06900100001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0xd9038de7e18c28c6, 0x4018a26cda35afca, 0x69425e300100001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x86afebfab724fe72, 0x402166b24fef0e4a, 0x1e34a06900100001, 0x1],
        ],
    },
    Golden {
        name: "loss-flat",
        run: [0x1be, 0x40f3d80000000000, 0x408c2b1b88121850, 0x16, 0xb, 0x0, 0x0, 0x0],
        by_kind: &[("arrive", 12), ("award", 52), ("flush", 22), ("negotiate", 51), ("offers", 167), ("rfb", 176), ("timeout", 23)],
        promoted: &[],
        unreachable: &[],
        sessions: &[
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x86afebfab724fe72, 0x402166b24fef0e4a, 0x1e34a06900100001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0x743d14df9a3a2252, 0x4018475309529c88, 0x4246900000001, 0x1],
            [0xd9038de7e18c28c6, 0x4018a26cda35afca, 0x69425e300100001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x2356603c7b161623, 0x4012782e33ead858, 0x4246900000001, 0x1],
            [0x86afebfab724fe72, 0x402166b24fef0e4a, 0x1e34a06900100001, 0x1],
        ],
    },
];
