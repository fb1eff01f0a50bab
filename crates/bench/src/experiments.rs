//! The experiment suite (see DESIGN.md for the reconstruction caveat: the
//! paper's §4 text is truncated in the available scan; these experiments
//! reproduce every quantity the surviving text names, over the parameters
//! the algorithm description identifies as key).
//!
//! All experiments are deterministic: seeded workloads, virtual time (E21,
//! E22 and the threads rows of E24/E25 add wall-clock columns).
//!
//! An experiment states the invariants of its own numbers as
//! [`Table::gate`]s, over the typed values it measured; `repro` exits
//! non-zero when any is violated.

use crate::runners::{run_algo, seller_engines, Algo};
use crate::table::{f, Table};
use qt_catalog::NodeId;
use qt_core::config::MAX_LEASE_MISSES;
use qt_core::{
    run_qt_direct, run_qt_serve_real_with_faults, run_qt_serve_with_faults, QtConfig, QtOutcome,
    SellerEngine, ServeConfig, ServeOutcome, SessionReport,
};
use qt_cost::NetLink;
use qt_net::{FaultPlan, RealConfig, RealTransport, Topology};
use qt_query::Query;
use qt_trade::{ProtocolKind, SellerStrategy};
use qt_workload::{
    build_federation, gen_join_query, gen_join_query_with_cut, Federation, FederationSpec,
    QueryShape,
};
use std::collections::BTreeMap;

/// Buyer node used throughout (data-less coordinator unless placement says
/// otherwise).
const BUYER: NodeId = NodeId(0);

fn spec(nodes: u32, relations: usize, parts: u16, repl: u32, seed: u64) -> FederationSpec {
    FederationSpec {
        nodes,
        relations,
        partitions_per_relation: parts,
        replication: repl,
        rows_per_partition: 100_000,
        scale: 1,
        seed,
        with_data: false,
        speed_spread: 1.0,
        data_skew: 0.0,
    }
}

/// A timed arrival stream.
type Stream = Vec<(f64, Query)>;

/// `n_queries` arrivals, `mean_interarrival` apart, drawn from a synthetic
/// mix of `mix_size` queries; mix and arrival draw share `seed`.
fn synthetic_stream(
    fed: &Federation,
    mix_size: usize,
    n_queries: usize,
    mean_interarrival: f64,
    seed: u64,
) -> Stream {
    use qt_workload::{gen_arrivals, synthetic_mix, ArrivalSpec};
    let spec = ArrivalSpec {
        n_queries,
        mean_interarrival,
        seed,
    };
    gen_arrivals(&synthetic_mix(&fed.catalog.dict, mix_size, seed), &spec)
}

/// One single-query trade on the simulator, `BUYER` buying `q` alone at
/// t = 0 from `sellers`. Returns the session's report (its `finished` time
/// is the optimization time) and the run's outcome.
fn trade_on_sim(
    fed: &Federation,
    q: &Query,
    sellers: BTreeMap<NodeId, SellerEngine>,
    cfg: &QtConfig,
    topology: Topology,
    faults: Option<FaultPlan>,
) -> (SessionReport, ServeOutcome) {
    let one = vec![(0.0, q.clone())];
    let dict = fed.catalog.dict.clone();
    let serve = ServeConfig::default();
    let mut out =
        run_qt_serve_with_faults(BUYER, dict, one, sellers, cfg, &serve, topology, faults);
    let report = out.reports.pop().expect("one arrival, one report");
    (report, out)
}

/// One serving run on the simulator: fresh sellers, `BUYER` buying.
fn serve_on_sim(
    fed: &Federation,
    stream: Stream,
    cfg: &QtConfig,
    serve: &ServeConfig,
    faults: Option<FaultPlan>,
) -> ServeOutcome {
    let dict = fed.catalog.dict.clone();
    run_qt_serve_with_faults(
        BUYER,
        dict,
        stream,
        seller_engines(fed, cfg),
        cfg,
        serve,
        Topology::Uniform(NetLink::wan()),
        faults,
    )
}

/// [`serve_on_sim`]'s run on a real transport (wall-clock).
fn serve_on_real(
    fed: &Federation,
    stream: Stream,
    cfg: &QtConfig,
    serve: &ServeConfig,
    real: RealConfig,
    faults: Option<FaultPlan>,
) -> ServeOutcome {
    let dict = fed.catalog.dict.clone();
    let sellers = seller_engines(fed, cfg);
    run_qt_serve_real_with_faults(BUYER, dict, stream, sellers, cfg, serve, real, faults)
}

/// Whether `QT_BENCH_TRANSPORT` (`sim` | `threads` | `tcp` | `all`, set by
/// the repro binary's `--transport` flag) selects this transport's rows.
fn transport_selected(transport: &str) -> bool {
    std::env::var("QT_BENCH_TRANSPORT").map_or(true, |which| which == "all" || which == transport)
}

/// E1 (Fig. 4, reconstructed): optimization time vs. query size.
pub fn e1() -> Table {
    let mut t = Table::new(
        "E1",
        "optimization time (simulated s) vs. number of joined relations; 16 nodes",
        &["relations", "QT-DP", "QT-IDP", "TradDP", "TradIDP"],
    );
    for n in 2..=10usize {
        let fed = build_federation(&spec(16, n, 2, 1, 100 + n as u64));
        let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, n, false, n as u64);
        let cfg = QtConfig::default();
        let mut row = vec![n.to_string()];
        for algo in [Algo::QtDp, Algo::QtIdp, Algo::TradDp, Algo::TradIdp] {
            let out = run_algo(algo, &fed, BUYER, &q, &cfg);
            row.push(f(out.optimization_time));
        }
        t.push(row);
    }
    t
}

/// E2 (Fig. 5, reconstructed): plan cost relative to TradDP vs. query size.
pub fn e2() -> Table {
    let mut t = Table::new(
        "E2",
        "plan cost / TradDP cost vs. number of joined relations; 16 nodes",
        &[
            "relations",
            "QT-DP",
            "QT-IDP",
            "QT-mixed-market",
            "TradIDP",
            "ShipAll",
        ],
    );
    for n in 2..=10usize {
        let fed = build_federation(&spec(6, n, 2, 2, 200 + n as u64));
        let q = gen_join_query_with_cut(&fed.catalog.dict, QueryShape::Chain, n, false, 10);
        let cfg = QtConfig::default();
        let base = run_algo(Algo::TradDp, &fed, BUYER, &q, &cfg)
            .plan
            .map(|p| p.est.additive_cost)
            .unwrap_or(f64::NAN);
        let mut row = vec![n.to_string()];
        for algo in [Algo::QtDp, Algo::QtIdp] {
            let out = run_algo(algo, &fed, BUYER, &q, &cfg);
            let c = out.plan.map(|p| p.est.additive_cost).unwrap_or(f64::NAN);
            row.push(f(c / base));
        }
        // QT in a mixed market: odd-numbered sellers mark up 1.5×, the rest
        // are truthful. Inflated asks distort which sellers win; the column
        // reports the *true* delivery cost of the distorted choice.
        let mixed_cfg = QtConfig::default();
        let mut sellers = seller_engines(&fed, &mixed_cfg);
        for (node, engine) in sellers.iter_mut() {
            if node.0 % 2 == 1 {
                engine.strategy = SellerStrategy::fixed_markup(1.5);
            }
        }
        let out = run_qt_direct(
            BUYER,
            fed.catalog.dict.clone(),
            &q,
            &mut sellers,
            &mixed_cfg,
        );
        let c = out
            .plan
            .map(|p| {
                p.purchases.iter().map(|pu| pu.offer.true_cost).sum::<f64>() + p.est.buyer_compute
            })
            .unwrap_or(f64::NAN);
        row.push(f(c / base));
        for algo in [Algo::TradIdp, Algo::ShipAll] {
            let out = run_algo(algo, &fed, BUYER, &q, &cfg);
            let c = out.plan.map(|p| p.est.additive_cost).unwrap_or(f64::NAN);
            row.push(f(c / base));
        }
        t.push(row);
    }
    t
}

/// E3 (Fig. 6, reconstructed): optimization time vs. federation size.
pub fn e3() -> Table {
    let mut t = Table::new(
        "E3",
        "optimization time (simulated s) vs. number of nodes; 4-relation chain",
        &["nodes", "QT-DP", "QT-IDP", "TradDP", "TradIDP"],
    );
    for &n in &[4u32, 8, 16, 32, 64, 128, 256, 512] {
        let fed = build_federation(&spec(n, 4, scaled_parts(n), 2, 300 + n as u64));
        let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 4, false, n as u64);
        let cfg = QtConfig::default();
        let mut row = vec![n.to_string()];
        for algo in [Algo::QtDp, Algo::QtIdp, Algo::TradDp, Algo::TradIdp] {
            let out = run_algo(algo, &fed, BUYER, &q, &cfg);
            row.push(f(out.optimization_time));
        }
        t.push(row);
    }
    t
}

/// Data spreads with the federation (more offices → more regional
/// partitions), like the paper's telecom: partitions per relation grow with
/// the node count, capped by the 64-partition bitset.
fn scaled_parts(nodes: u32) -> u16 {
    (nodes / 4).clamp(2, 32) as u16
}

/// E4 (Fig. 7, reconstructed): messages exchanged vs. federation size.
pub fn e4() -> Table {
    let mut t = Table::new(
        "E4",
        "protocol messages vs. number of nodes; 4-relation chain",
        &["nodes", "QT-DP", "TradDP", "QT-bytes", "TradDP-bytes"],
    );
    for &n in &[4u32, 8, 16, 32, 64, 128, 256, 512] {
        let fed = build_federation(&spec(n, 4, scaled_parts(n), 2, 300 + n as u64));
        let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 4, false, n as u64);
        let cfg = QtConfig::default();
        let qt = run_algo(Algo::QtDp, &fed, BUYER, &q, &cfg);
        let trad = run_algo(Algo::TradDp, &fed, BUYER, &q, &cfg);
        t.push(vec![
            n.to_string(),
            qt.messages.to_string(),
            trad.messages.to_string(),
            f(qt.bytes),
            f(trad.bytes),
        ]);
    }
    t
}

/// E5 (Fig. 8, reconstructed): plan quality vs. partitions per relation.
pub fn e5() -> Table {
    let mut t = Table::new(
        "E5",
        "plan cost and cost ratio vs. partitions per relation; 16 nodes, 3-relation chain",
        &[
            "partitions",
            "QT-DP cost",
            "TradDP cost",
            "ratio",
            "QT msgs",
        ],
    );
    for &p in &[1u16, 2, 4, 8, 16] {
        let fed = build_federation(&spec(16, 3, p, 1, 500 + p as u64));
        let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, false, p as u64);
        let cfg = QtConfig::default();
        let qt = run_algo(Algo::QtDp, &fed, BUYER, &q, &cfg);
        let trad = run_algo(Algo::TradDp, &fed, BUYER, &q, &cfg);
        let qc = qt.plan.map(|pl| pl.est.additive_cost).unwrap_or(f64::NAN);
        let tc = trad.plan.map(|pl| pl.est.additive_cost).unwrap_or(f64::NAN);
        t.push(vec![
            p.to_string(),
            f(qc),
            f(tc),
            f(qc / tc),
            qt.messages.to_string(),
        ]);
    }
    t
}

/// E6 (Fig. 9, reconstructed): convergence across trading iterations.
pub fn e6() -> Table {
    let mut t = Table::new(
        "E6",
        "per-iteration best cost and working-set size; k=1 partial cap forces iterations",
        &[
            "iteration",
            "queries asked",
            "offers",
            "best cost",
            "improvement %",
        ],
    );
    let fed = build_federation(&spec(6, 5, 1, 2, 600));
    let q = gen_join_query_with_cut(&fed.catalog.dict, QueryShape::Chain, 5, false, 8);
    let cfg = QtConfig {
        max_partial_k: 1,
        max_iterations: 8,
        ..QtConfig::default()
    };
    let out = run_algo_with_cfg(&fed, &q, &cfg);
    let first = out.history.first().map(|h| h.best_cost).unwrap_or(f64::NAN);
    for h in &out.history {
        t.push(vec![
            h.round.to_string(),
            h.queries_asked.to_string(),
            h.offers_received.to_string(),
            f(h.best_cost),
            f((1.0 - h.best_cost / first) * 100.0),
        ]);
    }
    t.gate(!out.history.is_empty(), || "no trading round ran".into());
    for w in out.history.windows(2) {
        let (before, after) = (w[0].best_cost, w[1].best_cost);
        t.gate(after <= before + 1e-6, || {
            format!(
                "best cost rose from {before} to {after} in round {}",
                w[1].round
            )
        });
    }
    t
}

/// E7 (Table 2, reconstructed): nested-negotiation protocol impact.
pub fn e7() -> Table {
    let mut t = Table::new(
        "E7",
        "negotiation protocol: messages, time, buyer cost; 16 nodes, replication 2",
        &[
            "protocol",
            "messages",
            "sim time",
            "buyer cost",
            "seller surplus",
        ],
    );
    for proto in [
        ProtocolKind::SealedBid,
        ProtocolKind::Vickrey,
        ProtocolKind::English { decrement: 0.05 },
        ProtocolKind::Bargaining { max_rounds: 4 },
    ] {
        let fed = build_federation(&spec(16, 3, 2, 3, 700));
        let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, false, 7);
        let cfg = QtConfig {
            protocol: proto,
            seller_strategy: SellerStrategy::fixed_markup(1.3),
            ..QtConfig::default()
        };
        let out = run_algo(Algo::QtDp, &fed, BUYER, &q, &cfg);
        let plan = out.plan.expect("plan");
        let surplus: f64 = plan
            .purchases
            .iter()
            .map(|p| (p.agreed_value - p.offer.true_cost).max(0.0))
            .sum();
        t.push(vec![
            proto.label().into(),
            out.messages.to_string(),
            f(out.optimization_time),
            f(plan.est.additive_cost),
            f(surplus),
        ]);
    }
    t
}

/// E8 (Table 3, reconstructed): cooperative vs. competitive strategies.
pub fn e8() -> Table {
    let mut t = Table::new(
        "E8",
        "seller markup vs. buyer cost and seller surplus (Vickrey keeps truthful honest)",
        &[
            "strategy",
            "buyer cost",
            "seller surplus",
            "cost vs truthful",
        ],
    );
    let fed = build_federation(&spec(16, 3, 2, 3, 800));
    let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, false, 8);
    let mut truthful_cost = f64::NAN;
    let mut markup2_cost = f64::NAN;
    for (label, strat) in [
        ("truthful", SellerStrategy::Truthful),
        ("markup 1.25", SellerStrategy::fixed_markup(1.25)),
        ("markup 1.5", SellerStrategy::fixed_markup(1.5)),
        ("markup 2.0", SellerStrategy::fixed_markup(2.0)),
        ("adaptive 1.5", SellerStrategy::adaptive_markup(1.5)),
    ] {
        let cfg = QtConfig {
            seller_strategy: strat,
            ..QtConfig::default()
        };
        let out = run_algo(Algo::QtDp, &fed, BUYER, &q, &cfg);
        let plan = out.plan.expect("plan");
        let surplus: f64 = plan
            .purchases
            .iter()
            .map(|p| (p.agreed_value - p.offer.true_cost).max(0.0))
            .sum();
        match label {
            "truthful" => truthful_cost = plan.est.additive_cost,
            "markup 2.0" => markup2_cost = plan.est.additive_cost,
            _ => {}
        }
        t.push(vec![
            label.into(),
            f(plan.est.additive_cost),
            f(surplus),
            f(plan.est.additive_cost / truthful_cost),
        ]);
    }
    t.gate(markup2_cost >= truthful_cost, || {
        format!("a 2.0 markup cost the buyer {markup2_cost} < truthful {truthful_cost}")
    });
    t
}

/// E9 (reconstructed): replication factor vs. plan cost and time.
pub fn e9() -> Table {
    let mut t = Table::new(
        "E9",
        "replication factor vs. QT plan cost/time; 16 nodes, 3-relation chain",
        &["replicas", "QT cost", "QT time", "QT msgs", "TradDP cost"],
    );
    for &r in &[1u32, 2, 4, 8] {
        let fed = build_federation(&spec(16, 3, 2, r, 900 + r as u64));
        let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, false, 9);
        let cfg = QtConfig::default();
        let qt = run_algo(Algo::QtDp, &fed, BUYER, &q, &cfg);
        let trad = run_algo(Algo::TradDp, &fed, BUYER, &q, &cfg);
        t.push(vec![
            r.to_string(),
            f(qt.plan
                .as_ref()
                .map(|p| p.est.additive_cost)
                .unwrap_or(f64::NAN)),
            f(qt.optimization_time),
            qt.messages.to_string(),
            f(trad.plan.map(|p| p.est.additive_cost).unwrap_or(f64::NAN)),
        ]);
    }
    t
}

/// E10 (extension): §3.5 subcontracting on/off.
pub fn e10() -> Table {
    let mut t = Table::new(
        "E10",
        "subcontracting (extension): composite offers on a scattered 4-relation chain",
        &[
            "subcontracting",
            "plan cost",
            "iterations",
            "messages",
            "composite offers used",
        ],
    );
    // Every relation on a different node: no single node can join anything
    // without subcontracting.
    let fed = build_federation(&spec(5, 4, 1, 1, 1000));
    let q = gen_join_query_with_cut(&fed.catalog.dict, QueryShape::Chain, 4, false, 8);
    for enabled in [false, true] {
        let cfg = QtConfig {
            enable_subcontracting: enabled,
            max_partial_k: 1,
            ..QtConfig::default()
        };
        let out = run_algo_with_cfg(&fed, &q, &cfg);
        t.gate(out.plan.is_some(), || {
            format!("subcontracting={enabled}: no plan")
        });
        let Some(plan) = out.plan else { continue };
        let composites = plan
            .purchases
            .iter()
            .filter(|p| !p.offer.subcontracts.is_empty())
            .count();
        t.push(vec![
            enabled.to_string(),
            f(plan.est.additive_cost),
            out.iterations.to_string(),
            out.messages.to_string(),
            composites.to_string(),
        ]);
    }
    t
}

/// E11 (ablation): buyer predicates analyser on/off.
pub fn e11() -> Table {
    let mut t = Table::new(
        "E11",
        "buyer predicates analyser ablation (k=1 partial cap); off = one-shot Contract-Net",
        &[
            "analyser",
            "plan cost",
            "iterations",
            "messages",
            "sim time",
        ],
    );
    let fed = build_federation(&spec(6, 5, 1, 2, 600));
    let q = gen_join_query_with_cut(&fed.catalog.dict, QueryShape::Chain, 5, false, 8);
    let mut costs = Vec::new();
    for enabled in [false, true] {
        let cfg = QtConfig {
            enable_buyer_analyser: enabled,
            max_partial_k: 1,
            ..QtConfig::default()
        };
        let out = run_algo_with_cfg(&fed, &q, &cfg);
        let plan = out.plan.expect("plan");
        costs.push(plan.est.additive_cost);
        t.push(vec![
            enabled.to_string(),
            f(plan.est.additive_cost),
            out.iterations.to_string(),
            out.messages.to_string(),
            f(out.optimization_time),
        ]);
    }
    t.gate(costs[1] <= costs[0] + 1e-9, || {
        format!(
            "the analyser hurt plan cost: off {}, on {}",
            costs[0], costs[1]
        )
    });
    t
}

/// E12 (ablation): k-way partial-offer cap of the modified DP.
pub fn e12() -> Table {
    let mut t = Table::new(
        "E12",
        "modified-DP partial-offer cap k vs. cost/messages; 6 nodes, 5-relation chain",
        &["max k", "plan cost", "iterations", "messages", "sim time"],
    );
    let fed = build_federation(&spec(6, 5, 1, 2, 600));
    let q = gen_join_query_with_cut(&fed.catalog.dict, QueryShape::Chain, 5, false, 8);
    let mut costs = Vec::new();
    for k in 1..=4usize {
        let cfg = QtConfig {
            max_partial_k: k,
            ..QtConfig::default()
        };
        let out = run_algo_with_cfg(&fed, &q, &cfg);
        let plan = out.plan.expect("plan");
        costs.push(plan.est.additive_cost);
        t.push(vec![
            k.to_string(),
            f(plan.est.additive_cost),
            out.iterations.to_string(),
            out.messages.to_string(),
            f(out.optimization_time),
        ]);
    }
    t.gate(costs[3] <= costs[0] + 1e-9, || {
        format!(
            "more partials hurt plan cost: k=1 {}, k=4 {}",
            costs[0], costs[3]
        )
    });
    t
}

fn run_algo_with_cfg(fed: &Federation, q: &Query, cfg: &QtConfig) -> QtOutcome {
    let mut sellers = seller_engines(fed, cfg);
    run_qt_direct(BUYER, fed.catalog.dict.clone(), q, &mut sellers, cfg)
}

/// E13 (extension): multi-dimensional valuation — freshness vs. speed.
///
/// One seller materializes the exact answer (fast but one refresh stale,
/// freshness 0.9); computing it live from base data is slower but fresh.
/// Sweeping the buyer's staleness weight flips the choice — the §3.1
/// weighting function at work beyond plain response time.
pub fn e13() -> Table {
    use qt_cost::Valuation;
    use qt_query::MaterializedView;
    use qt_workload::{telecom_federation, TelecomSpec};
    let mut t = Table::new(
        "E13",
        "buyer staleness weight vs. chosen source (stale view vs. fresh computation)",
        &[
            "w_staleness",
            "plan cost",
            "plan freshness",
            "bought from view",
        ],
    );
    let (catalog, _) = telecom_federation(&TelecomSpec {
        offices: 3,
        customers_per_office: 200,
        lines_per_customer: 10,
        invoice_replicas: 1,
        seed: 13,
    });
    let q = qt_query::parse_query(
        &catalog.dict,
        "SELECT office, SUM(charge) FROM customer, invoiceline \
         WHERE customer.custid = invoiceline.custid GROUP BY office",
    )
    .expect("valid SQL");
    let view = MaterializedView::new("exact", q.clone());
    for w in [0.0f64, 0.5, 2.0, 10.0] {
        let cfg = QtConfig {
            valuation: Valuation {
                w_staleness: w,
                ..Valuation::response_time()
            },
            ..QtConfig::default()
        };
        let mut sellers: std::collections::BTreeMap<_, _> = catalog
            .nodes
            .iter()
            .map(|&n| {
                (
                    n,
                    qt_core::SellerEngine::new(catalog.holdings_of(n), cfg.clone()),
                )
            })
            .collect();
        sellers.get_mut(&NodeId(1)).expect("corfu").views = vec![view.clone()];
        let out = run_qt_direct(BUYER, catalog.dict.clone(), &q, &mut sellers, &cfg);
        let plan = out.plan.expect("plan");
        let freshness = plan
            .purchases
            .iter()
            .map(|p| p.offer.props.freshness)
            .fold(1.0f64, f64::min);
        let from_view = plan
            .purchases
            .iter()
            .any(|p| p.offer.kind == qt_core::OfferKind::FromView);
        t.push(vec![
            f(w),
            f(plan.est.additive_cost),
            f(freshness),
            from_view.to_string(),
        ]);
    }
    t
}

/// E14 (extension): network topology — flat WAN vs. two-tier regions.
///
/// The same federation and query run on the simulator under a uniform WAN
/// and under a two-tier topology (fast intra-region links). Sellers cannot
/// observe the topology (autonomy), so offers are identical; the measured
/// trading time shows how much of QT's latency is pure transport.
pub fn e14() -> Table {
    let mut t = Table::new(
        "E14",
        "trading time under flat WAN vs. two-tier regional topology; 16 nodes",
        &["topology", "sim time", "messages", "plan cost"],
    );
    let fed = build_federation(&spec(16, 3, 2, 2, 1400));
    let q = gen_join_query_with_cut(&fed.catalog.dict, QueryShape::Chain, 3, false, 30);
    let cfg = QtConfig::default();
    let two_tier = |region_size: u32| {
        Topology::two_tier(region_size, NetLink::lan(), NetLink::wan()).expect("region size")
    };
    let topologies: Vec<(&str, Topology)> = vec![
        ("uniform WAN", Topology::Uniform(NetLink::wan())),
        // With 4-node regions most sellers stay behind WAN uplinks: the
        // trading critical path (slowest responder) is unchanged.
        ("two-tier, 4-node regions", two_tier(4)),
        // One big region = campus LAN: transport latency vanishes from the
        // dialogue and only optimization compute remains.
        ("two-tier, single region", two_tier(16)),
    ];
    for (label, topo) in topologies {
        let (r, out) = trade_on_sim(&fed, &q, seller_engines(&fed, &cfg), &cfg, topo, None);
        let plan = r.plan.expect("plan");
        t.push(vec![
            label.into(),
            f(r.finished),
            out.messages.to_string(),
            f(plan.est.additive_cost),
        ]);
    }
    t
}

/// E15 (extension): availability under node failures.
///
/// Autonomous nodes are free to ignore RFBs; the buyer's timeout closes the
/// round with whoever answered. With replication 3, coverage survives
/// substantial outages; the sweep reports how often a plan exists and what
/// it costs as more of the market goes dark.
pub fn e15() -> Table {
    let mut t = Table::new(
        "E15",
        "market availability: fraction of sellers offline vs. plan success/cost; repl 3",
        &[
            "offline nodes",
            "plan found",
            "plan cost",
            "sim time",
            "timeouts fired",
        ],
    );
    let fed = build_federation(&spec(12, 3, 2, 3, 1500));
    let q = gen_join_query_with_cut(&fed.catalog.dict, QueryShape::Chain, 3, false, 40);
    for offline in [0u32, 2, 4, 6, 8, 10] {
        let cfg = QtConfig {
            seller_timeout: 1.0,
            ..QtConfig::default()
        };
        let mut sellers = seller_engines(&fed, &cfg);
        // Deterministically take the highest-numbered nodes offline.
        for engine in sellers.values_mut().rev().take(offline as usize) {
            engine.offline_rounds = (0..16).collect();
        }
        let wan = Topology::Uniform(NetLink::wan());
        let (r, out) = trade_on_sim(&fed, &q, sellers, &cfg, wan, None);
        t.push(vec![
            offline.to_string(),
            r.plan.is_some().to_string(),
            // No plan at any price: the cost of an uncovered query is +inf.
            f(r.plan.map(|p| p.est.additive_cost).unwrap_or(f64::INFINITY)),
            f(r.finished),
            out.metrics.kind_count("timeout").to_string(),
        ]);
    }
    t
}

/// E16 (extension/ablation): histogram-based cardinality estimation.
///
/// Skewed data (`b = 100·u^4`): range filters `b < cut` have true
/// selectivities far from the linear interpolation a min/max summary
/// implies. The table reports the q-error (max(est/actual, actual/est)) of
/// the row estimate with and without equi-depth histograms.
pub fn e16() -> Table {
    use qt_cost::CardinalityEstimator;
    use qt_exec::evaluate_query;
    let mut t = Table::new(
        "E16",
        "cardinality q-error on skewed data: equi-depth histograms vs. min/max interpolation",
        &[
            "filter",
            "actual rows",
            "est (hist)",
            "est (minmax)",
            "q-err hist",
            "q-err minmax",
        ],
    );
    let fed = build_federation(&FederationSpec {
        rows_per_partition: 20_000,
        with_data: true,
        data_skew: 3.0,
        ..spec(4, 1, 1, 1, 1600)
    });
    // A catalog clone whose statistics lack histograms.
    let mut stripped = fed.catalog.clone();
    for stats in stripped.stats.values_mut() {
        for col in &mut stats.cols {
            col.histogram = None;
        }
    }
    let all = fed.union_store();
    for cut in [2i64, 5, 10, 25, 50, 90] {
        let q = gen_join_query_with_cut(&fed.catalog.dict, QueryShape::Chain, 1, false, cut);
        let actual = evaluate_query(&q, &all).expect("reference").len().max(1) as f64;
        let with_hist = CardinalityEstimator::new(&fed.catalog)
            .estimate(&q)
            .rows
            .max(1.0);
        let without = CardinalityEstimator::new(&stripped)
            .estimate(&q)
            .rows
            .max(1.0);
        let qerr = |est: f64| (est / actual).max(actual / est);
        t.push(vec![
            format!("b < {cut}"),
            f(actual),
            f(with_hist),
            f(without),
            f(qerr(with_hist)),
            f(qerr(without)),
        ]);
    }
    t
}

/// E17 (extension): the cost of stale central knowledge — the paper's core
/// autonomy argument, quantified.
///
/// Half the sellers' load spikes *after* the central catalog was collected.
/// QT sellers price offers with their live load and the buyer routes around
/// the busy replicas; the classical optimizer plans against the stale idle
/// view and its plan's *true* cost (re-priced at live loads) suffers.
pub fn e17() -> Table {
    use qt_baselines::{run_baseline, BaselineKind};
    use qt_core::{run_qt_direct, SellerEngine};
    use qt_cost::NodeResources;
    use std::collections::BTreeMap;
    let mut t = Table::new(
        "E17",
        "stale load knowledge: true plan cost of QT (live prices) vs. centralized DP (stale catalog)",
        &["load spike", "QT (live)", "TradDP (stale)", "TradDP (fresh oracle)", "stale / QT"],
    );
    let fed = build_federation(&spec(12, 3, 2, 3, 1700));
    let q = gen_join_query_with_cut(&fed.catalog.dict, QueryShape::Chain, 3, false, 30);
    for spike in [1.0f64, 2.0, 4.0, 8.0] {
        // Live loads: odd nodes are busy.
        let live: BTreeMap<NodeId, NodeResources> = fed
            .catalog
            .nodes
            .iter()
            .map(|&n| {
                let mut r = NodeResources::reference();
                if n.0 % 2 == 1 {
                    r.load = spike;
                }
                (n, r)
            })
            .collect();
        let stale: BTreeMap<NodeId, NodeResources> = fed
            .catalog
            .nodes
            .iter()
            .map(|&n| (n, NodeResources::reference()))
            .collect();

        // True delivery cost of an offered fragment at live load.
        let true_cost_of = |offer: &qt_core::Offer, cfg: &QtConfig| -> f64 {
            let mut seller = SellerEngine::new(
                fed.catalog.holdings_of(offer.seller),
                QtConfig {
                    seller_strategy: qt_trade::SellerStrategy::Truthful,
                    ..cfg.clone()
                },
            );
            seller.resources = live[&offer.seller].clone();
            let resp = seller.respond(
                0,
                &[qt_core::RfbItem {
                    query: Query::clone(&offer.query),
                    ref_value: f64::INFINITY,
                }],
            );
            resp.offers
                .iter()
                .filter(|o| o.query == offer.query && o.kind == offer.kind)
                .map(|o| o.true_cost)
                .fold(f64::INFINITY, f64::min)
        };
        let true_plan_cost = |plan: &qt_core::DistributedPlan, cfg: &QtConfig| -> f64 {
            plan.purchases
                .iter()
                .map(|p| true_cost_of(&p.offer, cfg))
                .sum::<f64>()
                + plan.est.buyer_compute
        };

        let cfg = QtConfig::default();
        // QT: sellers price with live loads.
        let mut sellers = seller_engines(&fed, &cfg);
        for (n, engine) in &mut sellers {
            engine.resources = live[n].clone();
        }
        let qt = run_qt_direct(BUYER, fed.catalog.dict.clone(), &q, &mut sellers, &cfg);
        let qt_cost = true_plan_cost(&qt.plan.expect("plan"), &cfg);

        // Classical: plans against the stale catalog, pays live prices.
        let stale_out = run_baseline(BaselineKind::TradDp, &fed.catalog, &stale, BUYER, &q, &cfg);
        let stale_cost = true_plan_cost(&stale_out.plan.expect("plan"), &cfg);
        // Fresh oracle: classical with live knowledge (lower bound).
        let fresh_out = run_baseline(BaselineKind::TradDp, &fed.catalog, &live, BUYER, &q, &cfg);
        let fresh_cost = true_plan_cost(&fresh_out.plan.expect("plan"), &cfg);

        t.push(vec![
            format!("{spike}x"),
            f(qt_cost),
            f(stale_cost),
            f(fresh_cost),
            f(stale_cost / qt_cost),
        ]);
    }
    t
}

/// An experiment entry: id + generator function.
pub type Experiment = (&'static str, fn() -> Table);

/// E18 (fault tolerance; the issue tracker's "E8 fault sweep" — id `e8` was
/// already taken by the seller-strategy comparison): plan cost, message
/// count, and degradation vs. message-loss rate and crashed-seller
/// fraction. The buyer's deadline/retransmission machinery must keep
/// returning valid plans as the network decays.
pub fn e18() -> Table {
    let mut t = Table::new(
        "E18",
        "fault injection: loss rate / crashed sellers vs. plan success, cost, traffic; repl 3",
        &[
            "fault mix",
            "plan found",
            "plan cost",
            "messages",
            "dropped",
            "retries",
            "timeouts",
            "degraded rounds",
            "unreachable",
        ],
    );
    let fed = build_federation(&spec(12, 3, 2, 3, 1800));
    let q = gen_join_query_with_cut(&fed.catalog.dict, QueryShape::Chain, 3, false, 60);
    let crash = |plan: FaultPlan, nodes: u32| {
        // Crash the highest-numbered sellers for the entire run.
        (0..nodes).fold(plan, |p, i| p.with_crash(NodeId(11 - i), 0.0, 1e12))
    };
    let cases: Vec<(String, FaultPlan)> = vec![
        ("loss 0%".into(), FaultPlan::lossy(1801, 0.0)),
        ("loss 10%".into(), FaultPlan::lossy(1801, 0.10)),
        ("loss 25%".into(), FaultPlan::lossy(1801, 0.25)),
        ("loss 40%".into(), FaultPlan::lossy(1801, 0.40)),
        ("crash 2/12".into(), crash(FaultPlan::default(), 2)),
        ("crash 4/12".into(), crash(FaultPlan::default(), 4)),
        (
            "loss 10% + crash 2/12".into(),
            crash(FaultPlan::lossy(1801, 0.10), 2),
        ),
    ];
    for (label, plan) in cases {
        let cfg = QtConfig {
            seller_timeout: 2.0,
            ..QtConfig::default()
        };
        let wan = Topology::Uniform(NetLink::wan());
        let sellers = seller_engines(&fed, &cfg);
        let (r, out) = trade_on_sim(&fed, &q, sellers, &cfg, wan, Some(plan));
        t.gate(r.plan.is_some(), || {
            format!("{label}: replication 3 must cover every fault mix")
        });
        match label.as_str() {
            "loss 0%" => t.gate(out.metrics.dropped == 0 && out.degraded_rounds == 0, || {
                "loss 0% must drop nothing and never degrade".into()
            }),
            "loss 10%" => t.gate(out.retries + out.timeouts > 0, || {
                "loss 10% never exercised the deadline/retransmission machinery".into()
            }),
            "crash 2/12" => t.gate(!out.unreachable_sellers.is_empty(), || {
                "crashed sellers must be reported unreachable".into()
            }),
            _ => {}
        }
        t.push(vec![
            label,
            r.plan.is_some().to_string(),
            f(r.plan.map(|p| p.est.additive_cost).unwrap_or(f64::NAN)),
            out.messages.to_string(),
            out.metrics.dropped.to_string(),
            out.retries.to_string(),
            out.timeouts.to_string(),
            out.degraded_rounds.to_string(),
            out.unreachable_sellers.len().to_string(),
        ]);
    }
    t
}

/// E19: serving throughput vs. concurrency. A burst of 32 queries (synthetic
/// mix, arrival seed fixed) is served through 8- and 16-node federations at
/// admission limits 1→32, RFB batching on. Reported per cell: completed
/// queries per virtual second, p50/p95 session latency (arrival → plan,
/// queueing included), and protocol messages per query — which *drops* as
/// concurrency rises because same-instant RFBs to one seller coalesce into
/// one message.
pub fn e19() -> Table {
    let mut t = Table::new(
        "E19",
        "serving throughput vs. concurrency; 32-query burst, RFB batching on",
        &[
            "sellers",
            "concurrency",
            "qps",
            "p50 latency",
            "p95 latency",
            "p99 latency",
            "p99.9 latency",
            "msgs/query",
        ],
    );
    for nodes in [8u32, 16] {
        let fed = build_federation(&spec(nodes, 3, 2, 2, 19));
        let arrivals = synthetic_stream(&fed, 6, 32, 0.0, 19);
        // Generous deadline: a deep admission queue must not trip the
        // retransmission machinery.
        let cfg = QtConfig {
            seller_timeout: 300.0,
            ..QtConfig::default()
        };
        for conc in [1usize, 2, 4, 8, 16, 32] {
            let serve = ServeConfig {
                concurrency: conc,
                batch_rfbs: true,
                ..ServeConfig::default()
            };
            let out = serve_on_sim(&fed, arrivals.clone(), &cfg, &serve, None);
            t.gate(out.qps > 0.0 && out.messages_per_query > 0.0, || {
                format!("{nodes} sellers, conc {conc}: the burst completed no queries")
            });
            t.gate(
                out.p999_latency >= out.p99_latency
                    && out.p99_latency >= out.p95_latency
                    && out.p95_latency >= out.p50_latency
                    && out.p50_latency > 0.0,
                || format!("{nodes} sellers, conc {conc}: latency percentiles out of order"),
            );
            t.push(vec![
                nodes.to_string(),
                conc.to_string(),
                f(out.qps),
                f(out.p50_latency),
                f(out.p95_latency),
                f(out.p99_latency),
                f(out.p999_latency),
                f(out.messages_per_query),
            ]);
        }
    }
    t
}

/// E20: contract-lifecycle failover. Sweeps winner-crash probability ×
/// crash placement (during bidding vs. after the award) over 8- and
/// 16-seller federations at replication 3, with the contract lifecycle on.
/// Each cell trades 8 queries; for the chosen fraction of them the
/// fault-free winner crashes either from t=0 ("bidding": the market routes
/// around it, no contracts are harmed) or right after trading finishes
/// ("post-award": the lease machinery must detect the loss and re-award or
/// re-trade the lost slots). Reported: completion rate (plans valid after
/// repair), re-awards, scoped re-trades, lease expiries + lost awards, and
/// mean plan-cost inflation vs. the fault-free plan. Gated: at replication
/// ≥ 3 every cell completes; post-award crashes are detected and repaired,
/// bidding-time crashes need no repair.
pub fn e20() -> Table {
    let mut t = Table::new(
        "E20",
        "failover: crash prob x placement vs. completion, repairs, cost inflation; repl 3",
        &[
            "sellers",
            "placement",
            "crash prob",
            "completion",
            "reawards",
            "rescoped",
            "expiries+lost",
            "cost inflation",
        ],
    );
    const QUERIES: u64 = 8;
    for nodes in [8u32, 16] {
        let fed = build_federation(&spec(nodes, 3, 2, 3, 2000 + nodes as u64));
        let cfg = QtConfig {
            enable_contracts: true,
            ..QtConfig::default()
        };
        // Fault-free reference runs: winner + trading end per query.
        let clean: Vec<_> = (0..QUERIES)
            .map(|i| {
                let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, 3, i % 2 == 0, i);
                let wan = Topology::Uniform(NetLink::wan());
                let (r, _) = trade_on_sim(&fed, &q, seller_engines(&fed, &cfg), &cfg, wan, None);
                let plan = r.plan.as_ref().expect("fault-free plan");
                let winner = plan
                    .purchases
                    .iter()
                    .map(|p| p.offer.seller)
                    .find(|&s| s != BUYER);
                (q, winner, r.finished, plan.est.additive_cost)
            })
            .collect();
        for placement in ["bidding", "post-award"] {
            for prob in [0.25f64, 0.5, 1.0] {
                let crashed = (prob * QUERIES as f64).round() as u64;
                let mut completed = 0u64;
                let mut reawards = 0u64;
                let mut rescoped = 0u64;
                let mut losses = 0u64;
                let mut inflation = 0.0f64;
                for (i, (q, winner, t_fin, clean_cost)) in clean.iter().enumerate() {
                    let faults = (*winner).filter(|_| (i as u64) < crashed).map(|w| {
                        let t0 = if placement == "bidding" {
                            0.0
                        } else {
                            t_fin + 1e-6
                        };
                        FaultPlan::default().with_crash(w, t0, 1e12)
                    });
                    let wan = Topology::Uniform(NetLink::wan());
                    let sellers = seller_engines(&fed, &cfg);
                    let (r, out) = trade_on_sim(&fed, q, sellers, &cfg, wan, faults);
                    if let Some(plan) = &r.plan {
                        completed += 1;
                        inflation += plan.est.additive_cost / clean_cost;
                    }
                    let c = out.contracts;
                    reawards += c.reawards;
                    rescoped += c.rescoped_trades;
                    losses += c.lease_expiries + c.lost_awards;
                }
                let cell = format!("{nodes} sellers, {placement}, crash prob {prob}");
                t.gate(completed == QUERIES, || {
                    format!("{cell}: only {completed} of {QUERIES} queries kept a plan")
                });
                // Post-award crashes exercise the repair machinery;
                // bidding-time crashes are routed around by the market.
                if placement == "post-award" {
                    t.gate(reawards + rescoped >= 1 && losses >= 1, || {
                        format!("{cell}: a crashed winner went undetected or unrepaired")
                    });
                } else {
                    t.gate(reawards + rescoped == 0, || {
                        format!("{cell}: a bidding-time crash needed a repair")
                    });
                }
                t.push(vec![
                    nodes.to_string(),
                    placement.to_string(),
                    f(prob),
                    f(completed as f64 / QUERIES as f64),
                    reawards.to_string(),
                    rescoped.to_string(),
                    losses.to_string(),
                    f(inflation / completed.max(1) as f64),
                ]);
            }
        }
    }
    t
}

/// E21: the serving benchmark across transports — the discrete-event
/// simulator vs. the real thread-per-node runtime over in-process channels
/// and loopback TCP. Plans are bit-identical across all three (the
/// conformance suite in `qt-core` proves it); what differs is the clock:
/// the sim reports *virtual* seconds, the real transports *wall-clock*
/// seconds on however many cores the host has. Respects
/// `QT_BENCH_TRANSPORT`, so a row subset can be regenerated. Gated: every
/// session plans on every transport, at the same msgs/query.
pub fn e21() -> Table {
    let mut t = Table::new(
        "E21",
        "serving across transports: sim in virtual s, threads/tcp in wall-clock s; conc 8, 24-query burst",
        &[
            "transport",
            "sellers",
            "qps",
            "p50 latency",
            "p95 latency",
            "p99 latency",
            "p99.9 latency",
            "msgs/query",
        ],
    );
    for nodes in [8u32, 16] {
        let fed = build_federation(&spec(nodes, 3, 2, 2, 900 + nodes as u64));
        let arrivals = synthetic_stream(&fed, 4, 24, 0.0, 9);
        let cfg = QtConfig {
            // Admission-queued sessions must not trip response deadlines.
            seller_timeout: 300.0,
            ..QtConfig::default()
        };
        let serve_cfg = ServeConfig {
            concurrency: 8,
            batch_rfbs: true,
            ..ServeConfig::default()
        };
        // msgs/query of the first transport that ran at this scale.
        let mut msgs_per_query = None;
        for (transport, real) in [
            ("sim", None),
            ("threads", Some(RealTransport::Threads)),
            ("tcp", Some(RealTransport::Tcp)),
        ] {
            if !transport_selected(transport) {
                continue;
            }
            let out = match real {
                None => serve_on_sim(&fed, arrivals.clone(), &cfg, &serve_cfg, None),
                Some(transport) => {
                    let real = RealConfig {
                        transport,
                        ..RealConfig::default()
                    };
                    serve_on_real(&fed, arrivals.clone(), &cfg, &serve_cfg, real, None)
                }
            };
            t.gate(out.reports.iter().all(|r| r.plan.is_some()), || {
                format!("{transport}, {nodes} sellers: a session finished without a plan")
            });
            let msgs = out.messages_per_query;
            let first = *msgs_per_query.get_or_insert(msgs);
            t.gate(msgs == first, || {
                format!("{transport}, {nodes} sellers: {msgs} msgs/query, other transports {first}")
            });
            t.push(vec![
                transport.to_string(),
                nodes.to_string(),
                f(out.qps),
                f(out.p50_latency),
                f(out.p95_latency),
                f(out.p99_latency),
                f(out.p999_latency),
                f(out.messages_per_query),
            ]);
        }
    }
    t
}

/// Convert columnar executor timings into calibration observations.
pub fn observations_from(stats: &qt_exec::ColExecStats) -> Vec<qt_cost::Observation> {
    stats
        .timings
        .iter()
        .map(|t| qt_cost::Observation {
            op: t.op.to_string(),
            rows_in: t.rows_in,
            rows_out: t.rows_out,
            bytes_in: t.bytes_in,
            secs: t.secs,
        })
        .collect()
}

/// The 100x-scaled analytical plan E22 measures throughput on:
/// filter → hash join → hash aggregate over r0 ⋈ r1.
fn e22_plan(dict: &qt_catalog::SchemaDict) -> qt_exec::PhysPlan {
    use qt_exec::{AggSpec, PhysPlan};
    use qt_query::{AggFunc, Col, CompOp, Predicate};
    let union_scan = |rel: qt_catalog::RelId| PhysPlan::Union {
        inputs: dict
            .parts_of(rel)
            .map(|part| PhysPlan::Scan { part, arity: 3 })
            .collect(),
    };
    let r0 = qt_catalog::RelId(0);
    let r1 = qt_catalog::RelId(1);
    PhysPlan::HashAggregate {
        input: Box::new(PhysPlan::HashJoin {
            left: Box::new(PhysPlan::Filter {
                input: Box::new(union_scan(r0)),
                predicates: vec![Predicate::with_const(Col::new(r0, 1), CompOp::Lt, 50i64)],
            }),
            right: Box::new(union_scan(r1)),
            left_keys: vec![Col::new(r0, 0)],
            right_keys: vec![Col::new(r1, 0)],
        }),
        group_by: vec![Col::new(r1, 1)],
        aggs: vec![
            AggSpec {
                func: AggFunc::Sum,
                arg: Some(Col::new(r0, 2)),
            },
            AggSpec {
                func: AggFunc::Count,
                arg: None,
            },
        ],
    }
}

/// The measured core of E22: columnar-vs-row throughput on the 100x
/// dataset, spill counters from a memory-constrained rerun, and the cost
/// calibration fit.
struct ColumnarSnapshot {
    input_rows: u64,
    row_rows_per_s: f64,
    columnar_rows_per_s: f64,
    speedup: f64,
    spill_files: u64,
    spill_rows: u64,
    spill_bytes: u64,
    calib_error_before: f64,
    calib_error_after: f64,
    calibrated: qt_cost::CostParams,
}

/// Run the columnar/row throughput comparison (best of 3 per executor,
/// results asserted bit-identical), the 64 KiB spill-budget rerun, and the
/// calibration fit over the columnar run's operator timings.
fn columnar_snapshot() -> ColumnarSnapshot {
    use qt_cost::{cost_error, CalibrationTable, CostParams};
    use qt_exec::{execute, execute_columnar_with_stats, ColumnarConfig};
    use std::time::Instant;
    let fed = build_federation(&FederationSpec {
        rows_per_partition: 1_000,
        scale: 100,
        with_data: true,
        ..spec(4, 2, 2, 1, 2200)
    });
    let all = fed.union_store();
    let plan = e22_plan(&fed.catalog.dict);
    let input_rows: u64 = fed
        .catalog
        .dict
        .rel_ids()
        .flat_map(|r| fed.catalog.dict.parts_of(r))
        .map(|p| fed.catalog.stats(p).rows)
        .sum();

    let mut row_secs = f64::INFINITY;
    let mut row_result = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        row_result = execute(&plan, &all, &[]).expect("row exec");
        row_secs = row_secs.min(t0.elapsed().as_secs_f64().max(1e-9));
    }

    let cfg = ColumnarConfig::default();
    let mut col_secs = f64::INFINITY;
    let mut stats = qt_exec::ColExecStats::default();
    for _ in 0..3 {
        let t0 = Instant::now();
        let (col_result, s) =
            execute_columnar_with_stats(&plan, &all, &[], &cfg).expect("columnar");
        col_secs = col_secs.min(t0.elapsed().as_secs_f64().max(1e-9));
        assert_eq!(col_result, row_result, "columnar must match the row oracle");
        stats = s;
    }

    let spill_cfg = ColumnarConfig {
        mem_budget_bytes: 64 * 1024,
        ..ColumnarConfig::default()
    };
    let (spill_result, spill_stats) =
        execute_columnar_with_stats(&plan, &all, &[], &spill_cfg).expect("columnar spill");
    assert_eq!(
        spill_result, row_result,
        "spilled run must match the oracle"
    );

    let obs = observations_from(&stats);
    let analytic = CostParams::reference();
    let calibrated = CalibrationTable::fit(&obs).apply(&analytic);
    ColumnarSnapshot {
        input_rows,
        row_rows_per_s: input_rows as f64 / row_secs,
        columnar_rows_per_s: input_rows as f64 / col_secs,
        speedup: row_secs / col_secs,
        spill_files: spill_stats.spill_files,
        spill_rows: spill_stats.spill_rows,
        spill_bytes: spill_stats.spill_bytes,
        calib_error_before: cost_error(&analytic, &obs),
        calib_error_after: cost_error(&calibrated, &obs),
        calibrated,
    }
}

/// E22 (extension, ROADMAP item 4): columnar execution and the cost
/// calibration loop.
///
/// (a) Throughput of the columnar executor vs the row oracle on a
/// 100x-scaled dataset (same plan, bit-identical results — asserted), plus a
/// spill-constrained run whose memory budget is far below the join build
/// side. (b) The loop closed: execute a traded plan columnar, fit a
/// `qt_cost::CalibrationTable` from its measured operator timings, and
/// compare estimated-vs-measured cost error before and after calibration —
/// then re-trade with calibrated params and time both traded plans, best of
/// `E22_EXEC_RUNS` (7) each, alternating which runs first.
///
/// Unlike the negotiation experiments this one reports *wall-clock* numbers;
/// rows and plans stay seed-deterministic, timings vary with the host.
pub fn e22() -> Table {
    use qt_cost::CostParams;
    use qt_exec::ColumnarConfig;
    use std::time::Instant;
    let mut t = Table::new(
        "E22",
        "columnar executor vs row oracle on a 100x dataset; cost calibration closes the estimate loop",
        &["metric", "value"],
    );
    // (a) Throughput on the 100x dataset, spill correctness, calibration.
    let snap = columnar_snapshot();
    t.push(vec!["input rows".into(), snap.input_rows.to_string()]);
    t.push(vec!["row exec rows/s".into(), f(snap.row_rows_per_s)]);
    t.push(vec!["columnar rows/s".into(), f(snap.columnar_rows_per_s)]);
    t.push(vec!["columnar speedup".into(), f(snap.speedup)]);
    t.push(vec![
        "spill files (64 KiB budget)".into(),
        snap.spill_files.to_string(),
    ]);
    t.push(vec!["spill rows".into(), snap.spill_rows.to_string()]);
    t.push(vec!["spill bytes".into(), snap.spill_bytes.to_string()]);
    t.push(vec![
        "cost error (analytic)".into(),
        f(snap.calib_error_before),
    ]);
    t.push(vec![
        "cost error (calibrated)".into(),
        f(snap.calib_error_after),
    ]);
    t.gate(snap.input_rows > 100_000, || {
        "the dataset must be 100x-scaled (> 100 000 input rows)".into()
    });
    t.gate(snap.speedup >= 2.0, || {
        "the columnar executor must be at least 2x the row oracle".into()
    });
    t.gate(
        snap.spill_files > 0 && snap.spill_rows > 0 && snap.spill_bytes > 0,
        || "the 64 KiB budget must spill files, rows and bytes".into(),
    );
    t.gate(snap.calib_error_after <= snap.calib_error_before, || {
        "calibration must not increase the cost-model error".into()
    });

    // (b) Re-trade with calibrated params; execute both traded plans.
    let analytic = CostParams::reference();
    let calibrated = snap.calibrated.clone();
    let cfg = ColumnarConfig::default();
    let trade_fed = build_federation(&FederationSpec {
        rows_per_partition: 200,
        scale: 100,
        with_data: true,
        ..spec(4, 3, 2, 2, 2201)
    });
    let q = gen_join_query(&trade_fed.catalog.dict, QueryShape::Chain, 2, true, 2202);
    let plans: Vec<_> = [analytic, calibrated]
        .into_iter()
        .map(|params| {
            let cfg_trade = QtConfig {
                cost_params: params,
                ..QtConfig::default()
            };
            run_algo_with_cfg(&trade_fed, &q, &cfg_trade)
                .plan
                .expect("trade converges")
        })
        .collect();
    // Best of `E22_EXEC_RUNS` per plan, the two alternating which runs
    // first, so neither pays alone for a cold cache or a slow phase of the
    // host.
    let mut exec_secs = [f64::INFINITY; 2];
    for run in 0..E22_EXEC_RUNS {
        for i in [run % 2, 1 - run % 2] {
            let t0 = Instant::now();
            plans[i]
                .execute_columnar_on(&trade_fed.catalog.dict, &trade_fed.stores, &cfg)
                .expect("plan executes");
            exec_secs[i] = exec_secs[i].min(t0.elapsed().as_secs_f64().max(1e-9));
        }
    }
    t.push(vec![
        "traded plan exec s (analytic)".into(),
        f(exec_secs[0]),
    ]);
    t.push(vec![
        "traded plan exec s (calibrated)".into(),
        f(exec_secs[1]),
    ]);
    t.push(vec![
        "calibrated/analytic exec ratio".into(),
        f(exec_secs[1] / exec_secs[0]),
    ]);
    t
}

/// Timed executions of each of E22's two traded plans; each reports its
/// fastest.
const E22_EXEC_RUNS: usize = 7;

/// One serving run of the Zipf(`skew`) template stream at `offices`
/// telecom sellers under the given result-cache arm (`"none"`, `"exact"`,
/// or `"semantic"`); returns the outcome and the cache's counters (zeroed
/// for the no-cache arm). The stream draws 48 arrivals from a 1024-query
/// template family — one wide subsumer plus 1023 constant-varying
/// near-duplicates — so an exact-fingerprint cache only hits on Zipf
/// repeats while the semantic cache answers every subsumed variant.
fn semcache_run(
    offices: u32,
    skew: f64,
    arm: &str,
) -> (ServeOutcome, qt_trade::semcache::CacheStats) {
    use qt_core::{run_qt_serve, SellerEngine, SharedResultCache};
    use qt_trade::semcache::SemCache;
    use qt_workload::{gen_arrivals_zipf, telecom_federation, template_mix, ArrivalSpec};
    use std::collections::BTreeMap;
    use std::sync::{Arc, Mutex};
    let (cat, _) = telecom_federation(&qt_workload::TelecomSpec {
        offices,
        invoice_replicas: 2,
        ..qt_workload::TelecomSpec::default()
    });
    let mix = template_mix(&cat.dict, 1023, 23);
    let arrivals = gen_arrivals_zipf(
        &mix,
        &ArrivalSpec {
            n_queries: 48,
            mean_interarrival: 0.5,
            seed: 23,
        },
        skew,
    );
    let cfg = QtConfig {
        enable_semantic_cache: true,
        // Admission-queued sessions must not trip retransmission deadlines.
        seller_timeout: 300.0,
        ..QtConfig::default()
    };
    let sellers: BTreeMap<_, _> = cat
        .nodes
        .iter()
        .map(|&n| (n, SellerEngine::new(cat.holdings_of(n), cfg.clone())))
        .collect();
    let cache: Option<SharedResultCache> = match arm {
        "none" => None,
        "exact" => Some(Arc::new(Mutex::new(SemCache::exact_only(0)))),
        _ => Some(Arc::new(Mutex::new(SemCache::new(0)))),
    };
    let out = run_qt_serve(
        BUYER,
        cat.dict.clone(),
        arrivals,
        sellers,
        &cfg,
        &ServeConfig {
            concurrency: 8,
            batch_rfbs: true,
            result_cache: cache.clone(),
            ..ServeConfig::default()
        },
    );
    let stats = cache
        .map(|c| *c.lock().expect("cache lock").stats())
        .unwrap_or_default();
    (out, stats)
}

/// E23 (tentpole, ROADMAP item 3): the federation-shared semantic result
/// cache on Zipf template mixes. Three arms per operating point — no
/// cache, exact-fingerprint cache (the PR-1 baseline), and the semantic
/// subsumption cache — reporting hit rate, messages per query, and latency
/// percentiles vs. skew at 8 and 16 sellers. All virtual-time, fully
/// deterministic. Gated at 16 sellers, Zipf(1.1): the subsumption matcher
/// hits, at ≥ 2× the exact baseline's rate, and each cache tier strictly
/// cuts messages per query.
pub fn e23() -> Table {
    let mut t = Table::new(
        "E23",
        "semantic result cache on Zipf template mixes (48 arrivals, 1024-query family, conc 8): hit rate, message economy, latency vs skew",
        &[
            "sellers",
            "skew",
            "cache",
            "hit rate",
            "msgs/query",
            "p50 latency",
            "p95 latency",
            "p99 latency",
        ],
    );
    for offices in [8u32, 16] {
        for skew in [0.0, 0.6, 1.1, 1.5] {
            let mut arms = Vec::new();
            for arm in ["none", "exact", "semantic"] {
                let (out, stats) = semcache_run(offices, skew, arm);
                arms.push((out.messages_per_query, stats));
                t.push(vec![
                    offices.to_string(),
                    f(skew),
                    arm.to_string(),
                    f(stats.hit_rate()),
                    f(out.messages_per_query),
                    f(out.p50_latency),
                    f(out.p95_latency),
                    f(out.p99_latency),
                ]);
            }
            if (offices, skew) != (16, 1.1) {
                continue;
            }
            let [(msgs_none, _), (msgs_exact, exact), (msgs_sem, sem)] = arms[..] else {
                unreachable!("three arms per operating point")
            };
            t.gate(sem.hits_semantic > 0, || {
                "the subsumption matcher produced no hit on the template mix".into()
            });
            t.gate(sem.hit_rate() >= 2.0 * exact.hit_rate(), || {
                "the semantic hit rate must be at least 2x the exact baseline's".into()
            });
            t.gate(msgs_sem < msgs_exact && msgs_exact < msgs_none, || {
                "each cache tier must strictly cut msgs/query: semantic < exact < none".into()
            });
        }
    }
    t
}

// ---------------------------------------------------------------------------
// E24: hierarchical broker scale-out
// ---------------------------------------------------------------------------

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The seller scales E24 sweeps: `QT_E24_SELLERS` (comma list) overrides
/// the default `16,64,256` so CI smoke can stop at 64.
fn e24_scales() -> Vec<u32> {
    std::env::var("QT_E24_SELLERS")
        .ok()
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .filter(|v: &Vec<u32>| !v.is_empty())
        .unwrap_or_else(|| vec![16, 64, 256])
}

/// The federation at every E24 scale keeps the *catalog* fixed (8 relations
/// × 2 partitions × replication 3 = 48 holder slots) while the fleet grows —
/// the federated scale-out story: past ~48 nodes most sellers hold nothing
/// a given query touches, so digest scoping must shed them while flat
/// broadcast keeps paying O(sellers) per round.
fn e24_fed(nodes: u32) -> Federation {
    build_federation(&spec(nodes, 8, 2, 3, 2400 + nodes as u64))
}

fn e24_arrivals(fed: &Federation, n_queries: usize) -> Stream {
    synthetic_stream(fed, 6, n_queries, 0.2, 24)
        .into_iter()
        // Offset past t=0 so boot advertisements land before the first RFB.
        .map(|(t, q)| (t + 5.0, q))
        .collect()
}

const E24_FANOUT: usize = 8;

fn e24_hier(max_broker_inflight: usize) -> qt_core::HierarchyConfig {
    qt_core::HierarchyConfig {
        fanout: E24_FANOUT,
        max_broker_inflight,
        ..qt_core::HierarchyConfig::default()
    }
}

/// The ~10% of sellers a churn arm crashes: ids congruent to the fault
/// seed mod 10 (deterministic, replayable via `QT_FAULT_SEED`).
fn e24_churn_targets(nodes: u32, fault_seed: u64) -> Vec<NodeId> {
    (1..=nodes)
        .filter(|id| *id as u64 % 10 == fault_seed % 10)
        .map(NodeId)
        .collect()
}

/// Crash windows placed *inside* the arrival span (starting ~30% in,
/// staggered, never recovering), so mid-run sessions actually see the
/// churn regardless of how `QT_E24_QUERIES` scales the stream.
fn e24_churn_faults(stream: &[(f64, Query)], targets: &[NodeId], fault_seed: u64) -> FaultPlan {
    let first = stream.first().map(|(at, _)| *at).unwrap_or(0.0);
    let span = (stream.last().map(|(at, _)| *at).unwrap_or(first) - first).max(1.0);
    let horizon = first + span + 1000.0;
    let mut faults = FaultPlan::lossy(fault_seed, 0.0);
    for (i, node) in targets.iter().enumerate() {
        let from = first + span * (0.3 + 0.05 * i as f64 % 0.6);
        faults = faults.with_crash(*node, from, horizon);
    }
    faults
}

/// E24 (tentpole, ROADMAP item 5): hierarchical broker tiers vs. flat
/// broadcast at 16/64/256 sellers. Arms per scale: flat sim, tiered sim
/// (fanout 8, lossless k=0); at the largest scale additionally tiered over
/// the threads transport, a tiered+admission arm (broker inflight bound 2,
/// same-instant burst, explicit sheds), and a tiered+churn arm (~10% of
/// sellers crash mid-run, replication-3 contracts). `QT_E24_QUERIES`
/// scales the arrival count (default 64; the full harness run uses 10k),
/// `QT_E24_SELLERS` the scales, `QT_FAULT_SEED` the churn replay.
///
/// Gated: tiered msgs/query grows by less than half the seller ratio over
/// consecutive scales; past fanout² = 64 sellers the top scale stacks ≥ 3
/// tiers and flat broadcast costs more than twice the tiered traffic; the
/// admission burst sheds explicitly and every session ends shed or
/// planned; churn completion stays ≥ 99%.
pub fn e24() -> Table {
    use qt_core::BrokerTree;
    let n_queries = env_or("QT_E24_QUERIES", 64usize);
    let fault_seed = env_or("QT_FAULT_SEED", 7u64);
    let scales = e24_scales();
    let largest = *scales.iter().max().unwrap();
    let mut t = Table::new(
        "E24",
        "broker hierarchy scale-out: msgs/query, tails, sheds, completion vs. flat broadcast",
        &[
            "sellers",
            "arm",
            "transport",
            "depth",
            "completion",
            "msgs/query",
            "qps",
            "p50 latency",
            "p99 latency",
            "p99.9 latency",
            "shed",
            "shed retries",
        ],
    );
    // (sellers, tiered sim msgs/query) of the previous scale.
    let mut prev_tiered: Option<(u32, f64)> = None;
    for nodes in scales {
        let fed = e24_fed(nodes);
        let stream = e24_arrivals(&fed, n_queries);
        let cfg = QtConfig {
            seller_timeout: 300.0,
            ..QtConfig::default()
        };
        // Flat, or tiered with the given broker inflight bound.
        let serve = |broker_inflight: Option<usize>| ServeConfig {
            concurrency: 8,
            batch_rfbs: true,
            hierarchy: broker_inflight.map(e24_hier),
            ..ServeConfig::default()
        };
        let remote: Vec<NodeId> = (1..=nodes).map(NodeId).collect();
        let tree_depth = BrokerTree::build(&remote, E24_FANOUT, nodes + 1).depth;
        let mut arms: Vec<(&str, &str)> = vec![("flat", "sim"), ("tiered", "sim")];
        if nodes == largest {
            arms.push(("tiered", "threads"));
            arms.push(("tiered+admission", "sim"));
            arms.push(("tiered+churn", "sim"));
        }
        let mut flat_msgs = None;
        for (arm, transport) in arms {
            if !transport_selected(transport) {
                continue;
            }
            let out = match (arm, transport) {
                ("flat", "sim") => serve_on_sim(&fed, stream.clone(), &cfg, &serve(None), None),
                ("tiered", "sim") => {
                    serve_on_sim(&fed, stream.clone(), &cfg, &serve(Some(0)), None)
                }
                ("tiered", "threads") => {
                    let real = RealConfig {
                        transport: RealTransport::Threads,
                        ..RealConfig::default()
                    };
                    serve_on_real(&fed, stream.clone(), &cfg, &serve(Some(0)), real, None)
                }
                // Admission stress is a same-instant burst: the spread
                // stream never holds enough sessions inflight to shed.
                ("tiered+admission", "sim") => {
                    let burst = stream.iter().map(|(_, q)| (5.0, q.clone())).collect();
                    serve_on_sim(&fed, burst, &cfg, &serve(Some(2)), None)
                }
                ("tiered+churn", "sim") => {
                    let churn_cfg = QtConfig {
                        enable_contracts: true,
                        seller_timeout: 20.0,
                        ..QtConfig::default()
                    };
                    let targets = e24_churn_targets(nodes, fault_seed);
                    t.gate(!targets.is_empty(), || {
                        format!("fault seed {fault_seed} crashes none of {nodes} sellers")
                    });
                    let faults = e24_churn_faults(&stream, &targets, fault_seed);
                    serve_on_sim(
                        &fed,
                        stream.clone(),
                        &churn_cfg,
                        &serve(Some(0)),
                        Some(faults),
                    )
                }
                _ => unreachable!(),
            };
            let done = out.reports.iter().filter(|r| r.plan.is_some()).count();
            let completion = done as f64 / out.reports.len().max(1) as f64;
            let msgs = out.messages_per_query;
            match (arm, transport) {
                ("flat", "sim") => flat_msgs = Some(msgs),
                ("tiered", "sim") => {
                    if let Some((prev_nodes, prev_msgs)) = prev_tiered.replace((nodes, msgs)) {
                        let (growth, scale) = (msgs / prev_msgs, nodes as f64 / prev_nodes as f64);
                        t.gate(growth < scale / 2.0, || {
                            format!(
                                "tiered msgs/query grew {growth:.2}x over a {scale}x seller step"
                            )
                        });
                    }
                    if nodes == largest && nodes as usize > E24_FANOUT * E24_FANOUT {
                        t.gate(tree_depth >= 3, || {
                            format!("{nodes} sellers stacked only {tree_depth} tiers")
                        });
                        let flat = flat_msgs.expect("the flat arm runs first");
                        t.gate(flat > 2.0 * msgs, || {
                            format!(
                                "{nodes} sellers: the hierarchy must at least halve flat traffic"
                            )
                        });
                    }
                }
                // A first shed re-admits on the flat path: the broker must
                // still shed explicitly (retries observed), and every burst
                // session must end planned or explicitly aborted.
                ("tiered+admission", _) => {
                    t.gate(out.shed_retries > 0, || {
                        "the admission burst never shed".into()
                    });
                    t.gate(out.shed_sessions as usize + done == n_queries, || {
                        "a burst session neither shed nor completed".into()
                    });
                }
                ("tiered+churn", _) => t.gate(completion >= 0.99, || {
                    "10% churn with replication-3 contracts must stay >= 99% complete".into()
                }),
                _ => {}
            }
            t.push(vec![
                nodes.to_string(),
                arm.to_string(),
                transport.to_string(),
                if arm == "flat" { 1 } else { tree_depth }.to_string(),
                f(completion),
                f(msgs),
                f(out.qps),
                f(out.p50_latency),
                f(out.p99_latency),
                f(out.p999_latency),
                out.shed_sessions.to_string(),
                out.shed_retries.to_string(),
            ]);
        }
    }
    t
}

/// E25 shares E24's federation/arrivals but turns regional failover on:
/// a short lease so standby promotion lands well inside the buyer's RFB
/// deadline (`seller_timeout * depth`) and the promotion window (bounded
/// by `(MAX_LEASE_MISSES + 2) * lease_interval = 4s`) stalls only the
/// handful of sessions arriving inside it.
fn e25_cfg() -> QtConfig {
    QtConfig {
        seller_timeout: 300.0,
        lease_interval: 1.0,
        ..QtConfig::default()
    }
}

fn e25_hier() -> qt_core::HierarchyConfig {
    qt_core::HierarchyConfig {
        failover: true,
        ..e24_hier(0)
    }
}

/// Broker-crash windows for E25: the first level-1 broker (id `sellers+1`)
/// goes down ~30% into the arrival span and never recovers; the two-crash
/// arm also fells the second region's broker (`sellers+2`) a little later.
/// `fault_seed` jitters the crash instant so replays exercise different
/// interleavings against the lease ticks.
fn e25_faults(stream: &[(f64, Query)], sellers: u32, crashes: usize, fault_seed: u64) -> FaultPlan {
    let first = stream.first().map(|(at, _)| *at).unwrap_or(0.0);
    let span = (stream.last().map(|(at, _)| *at).unwrap_or(first) - first).max(1.0);
    let jitter = (fault_seed % 7) as f64 * 0.1;
    let mut faults = FaultPlan::default();
    for i in 0..crashes {
        faults = faults.with_broker_crash(
            NodeId(sellers + 1 + i as u32),
            first + span * (0.3 + 0.15 * i as f64) + jitter,
            f64::INFINITY,
        );
    }
    faults
}

/// Worst promotion latency in a sim run: promotion instant minus the
/// matching crash-window start. (Sim only — on the threads transport the
/// promotion stamp is wall-clock while the window is virtual.)
fn promo_latency(out: &ServeOutcome, faults: &FaultPlan) -> f64 {
    out.promoted_regions
        .iter()
        .map(|&(failed, _, at)| {
            let from = faults
                .broker_crashes
                .iter()
                .find(|w| w.node == failed)
                .map(|w| w.from)
                .unwrap_or(at);
            at - from
        })
        .fold(0.0, f64::max)
}

/// E25 (ROADMAP item 5, failover): regional broker failover under a
/// broker-crash fault plane. Arms: crash-free tiered (failover armed but
/// idle), one and two broker crashes mid-run (standby promotion), and the
/// one-crash plan replayed on the threads transport. `QT_E25_QUERIES`
/// (default 64; the committed sweep uses 10k), `QT_E25_SELLERS` (default
/// 256), `QT_FAULT_SEED` jitter the run.
///
/// Gated per crash arm: completion ≥ 99%, one promotion per crashed
/// broker, onto a distinct standby; on the sim additionally no seller-
/// fallback detour (promotion preempts the flat retreat) and promotion
/// within the lease deadline `(MAX_LEASE_MISSES + 2) × lease_interval`;
/// the threads arm promotes the sim's `(failed, standby)` set when both
/// ran. Crash p99 ≤ 2× crash-free is evaluated only when the two promotion
/// windows (≈ deadline / 0.2 s interarrival sessions each) cover ≤ 1% of
/// the arrivals, i.e. from `QT_E25_QUERIES=4000` up; the title says which.
pub fn e25() -> Table {
    let n_queries = env_or("QT_E25_QUERIES", 64usize);
    let sellers = env_or("QT_E25_SELLERS", 256u32);
    let fault_seed = env_or("QT_FAULT_SEED", 7u64);
    let fed = e24_fed(sellers);
    let stream = e24_arrivals(&fed, n_queries);
    let cfg = e25_cfg();
    let serve = ServeConfig {
        concurrency: 8,
        batch_rfbs: true,
        hierarchy: Some(e25_hier()),
        ..ServeConfig::default()
    };
    let lease_deadline = (MAX_LEASE_MISSES + 2) as f64 * cfg.lease_interval;
    let p99_gated = 2.0 * lease_deadline / 0.2 / n_queries as f64 <= 0.01;
    let p99_note = if p99_gated { "" } else { "not " };
    let mut t = Table::new(
        "E25",
        &format!("broker failover: standby promotion under crash windows; p99 <= 2x crash-free gate {p99_note}evaluated at n = {n_queries}"),
        &[
            "arm",
            "transport",
            "completion",
            "promotions",
            "region_fallbacks",
            "shed_retries",
            "max promo latency",
            "msgs/query",
            "p99 latency",
        ],
    );
    let arms: Vec<(&str, &str, usize)> = vec![
        ("crash-free", "sim", 0),
        ("1-crash", "sim", 1),
        ("2-crash", "sim", 2),
        ("1-crash", "threads", 1),
    ];
    let mut clean_p99 = None;
    // The (failed, standby) pairs the sim's 1-crash arm promoted.
    let mut sim_pairs = None;
    for (arm, transport, crashes) in arms {
        if !transport_selected(transport) {
            continue;
        }
        let faults = (crashes > 0).then(|| e25_faults(&stream, sellers, crashes, fault_seed));
        let out = if transport == "sim" {
            serve_on_sim(&fed, stream.clone(), &cfg, &serve, faults.clone())
        } else {
            let real = RealConfig {
                transport: RealTransport::Threads,
                time_scale: 0.05,
                ..RealConfig::default()
            };
            serve_on_real(&fed, stream.clone(), &cfg, &serve, real, faults.clone())
        };
        let done = out.reports.iter().filter(|r| r.plan.is_some()).count();
        let completion = done as f64 / out.reports.len().max(1) as f64;
        let pairs: Vec<(NodeId, NodeId)> = out
            .promoted_regions
            .iter()
            .map(|&(failed, standby, _)| (failed, standby))
            .collect();
        let label = format!("{arm} ({transport})");
        t.gate(completion >= 0.99, || {
            format!("{label}: completion {completion} below 0.99")
        });
        t.gate(
            out.promotions == crashes as u64
                && pairs.iter().all(|(failed, standby)| failed != standby),
            || format!("{label}: {crashes} crash(es) must promote as many standbys: {pairs:?}"),
        );
        let mut latency = "-".to_string();
        match (transport, &faults) {
            ("sim", None) => clean_p99 = Some(out.p99_latency),
            ("sim", Some(fp)) => {
                let (worst, p99) = (promo_latency(&out, fp), out.p99_latency);
                latency = f(worst);
                t.gate(out.region_fallbacks == 0, || {
                    format!("{label}: promotion must preempt the seller-fallback retreat")
                });
                t.gate(worst <= lease_deadline, || {
                    format!(
                        "{label}: promotion took {worst}, past the lease deadline {lease_deadline}"
                    )
                });
                let clean = clean_p99.expect("the crash-free arm runs first");
                t.gate(!p99_gated || p99 <= 2.0 * clean, || {
                    format!("{label}: p99 {p99} above 2x the crash-free {clean}")
                });
                sim_pairs.get_or_insert(pairs);
            }
            _ => {
                if let Some(sim) = &sim_pairs {
                    t.gate(&pairs == sim, || {
                        format!("{label}: promoted {pairs:?}, the sim promoted {sim:?}")
                    });
                }
            }
        }
        t.push(vec![
            arm.to_string(),
            transport.to_string(),
            f(completion),
            out.promotions.to_string(),
            out.region_fallbacks.to_string(),
            out.shed_retries.to_string(),
            latency,
            f(out.messages_per_query),
            f(out.p99_latency),
        ]);
    }
    t
}

/// E26 (ROADMAP 12(a)): what the buyer analyser's later rounds buy, over a
/// sweep of federation shapes: 4/8/16 nodes × 3/4/6 relations ×
/// replication 1–3 × 1–3 partitions per relation × two federation seeds.
/// Each federation trades one chain, one star and one cycle query over all
/// its relations, at `max_partial_k` 1 and 2, with the analyser on and off.
/// Costs print exactly (shortest round-trip form), so a column compares bit
/// for bit.
pub fn e26() -> Table {
    let mut t = Table::new(
        "E26",
        "analyser rounds vs. one-shot bidding over 162 federation shapes; costs exact",
        &[
            "nodes",
            "relations",
            "replication",
            "partitions",
            "seed",
            "shape",
            "max k",
            "TradDP cost",
            "round-0 cost",
            "final cost",
            "off cost",
            "rounds",
            "messages",
            "effort",
            "off messages",
            "off effort",
        ],
    );
    let mut feds = Vec::new();
    for nodes in [4u32, 8, 16] {
        for relations in [3usize, 4, 6] {
            for repl in 1..=3u32 {
                for parts in 1..=3u16 {
                    for seed in [26u64, 2600] {
                        let seed = seed + feds.len() as u64;
                        feds.push(spec(nodes, relations, parts, repl, seed));
                    }
                }
            }
        }
    }
    let cost = |o: &QtOutcome| {
        o.plan
            .as_ref()
            .map_or(f64::INFINITY, |p| p.est.additive_cost)
    };
    for (i, s) in feds.iter().enumerate() {
        let fed = build_federation(s);
        let shapes = [QueryShape::Chain, QueryShape::Star, QueryShape::Cycle];
        for (j, shape) in shapes.into_iter().enumerate() {
            let aggregate = (i + j) % 2 == 1;
            let q = gen_join_query(&fed.catalog.dict, shape, s.relations, aggregate, s.seed);
            let trad = run_algo(Algo::TradDp, &fed, BUYER, &q, &QtConfig::default());
            for k in [1usize, 2] {
                let cfg = |analyser: bool| QtConfig {
                    max_partial_k: k,
                    enable_buyer_analyser: analyser,
                    ..QtConfig::default()
                };
                let on = run_algo_with_cfg(&fed, &q, &cfg(true));
                let off = run_algo_with_cfg(&fed, &q, &cfg(false));
                let round0 = on.history.first().map_or(f64::INFINITY, |h| h.best_cost);
                let label = format!("federation {i}, {shape:?}, k {k}");
                for w in on.history.windows(2) {
                    t.gate(w[1].best_cost <= w[0].best_cost, || {
                        format!(
                            "{label}: best cost rose from {} to {} in round {}",
                            w[0].best_cost, w[1].best_cost, w[1].round
                        )
                    });
                }
                t.gate(cost(&on) <= cost(&off), || {
                    format!(
                        "{label}: analyser on ends at {}, off at {}",
                        cost(&on),
                        cost(&off)
                    )
                });
                t.push(vec![
                    s.nodes.to_string(),
                    s.relations.to_string(),
                    s.replication.to_string(),
                    s.partitions_per_relation.to_string(),
                    s.seed.to_string(),
                    format!("{shape:?}").to_lowercase(),
                    k.to_string(),
                    cost(&trad).to_string(),
                    round0.to_string(),
                    cost(&on).to_string(),
                    cost(&off).to_string(),
                    on.iterations.to_string(),
                    on.messages.to_string(),
                    on.seller_effort.to_string(),
                    off.messages.to_string(),
                    off.seller_effort.to_string(),
                ]);
            }
        }
    }
    t
}

/// All experiments in order.
pub fn all() -> Vec<Experiment> {
    vec![
        ("e1", e1 as fn() -> Table),
        ("e2", e2),
        ("e3", e3),
        ("e4", e4),
        ("e5", e5),
        ("e6", e6),
        ("e7", e7),
        ("e8", e8),
        ("e9", e9),
        ("e10", e10),
        ("e11", e11),
        ("e12", e12),
        ("e13", e13),
        ("e14", e14),
        ("e15", e15),
        ("e16", e16),
        ("e17", e17),
        ("e18", e18),
        ("e19", e19),
        ("e20", e20),
        ("e21", e21),
        ("e22", e22),
        ("e23", e23),
        ("e24", e24),
        ("e25", e25),
        ("e26", e26),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test per cheap experiment (the expensive sweeps run via the repro
    /// binary; see EXPERIMENTS.md): it runs, and every gate it states holds.
    macro_rules! gates_hold {
        ($($test:ident => $experiment:ident),* $(,)?) => {$(
            #[test]
            fn $test() {
                let t = $experiment();
                assert!(!t.rows.is_empty());
                assert!(t.violations.is_empty(), "{}", t.render());
            }
        )*};
    }

    gates_hold! {
        e6_converges_monotonically => e6,
        e8_markup_is_monotone_in_buyer_cost => e8,
        e10_subcontracting_runs => e10,
        e11_analyser_never_hurts_cost => e11,
        e12_more_partials_never_hurt_cost => e12,
        e18_survives_faults_with_valid_plans => e18,
        e19_serves_every_burst_with_ordered_percentiles => e19,
        e20_failover_completes_everything_at_replication_3 => e20,
    }
}
