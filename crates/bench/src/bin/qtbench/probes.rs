//! Layer probes: inputs captured from a workload's own stream, replayed
//! through one layer's public function in isolation. A probe says what the
//! layer costs per call; the workload's spans say how often it is called.

use crate::workloads::{engines, Layers, RoundCapture, BUYER};
use qt_catalog::{Catalog, NodeId};
use qt_core::analyser::next_queries;
use qt_core::plangen::PlanGenerator;
use qt_core::{
    compensate_plan, prune_offers, seller_digest, session_req, BrokerTree, BuyerEngine,
    DistributedPlan, QtConfig, ServeMsg, ServeOutcome, SessionRfb,
};
use qt_cost::{NetLink, NodeResources};
use qt_exec::ColExecStats;
use qt_net::{Ctx, Handler, RealConfig, RealRuntime, RealTransport, Simulator, Topology};
use qt_optimizer::LocalOptimizer;
use qt_query::views::match_view;
use qt_query::{rewrite_for_holdings, Query};
use qt_trade::{SemCache, SessionId, Wire};
use qt_workload::{build_federation, gen_join_query, FederationSpec, QueryShape};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Wall seconds a probe measures for before it reports a mean.
const PROBE_SECS: f64 = 0.1;

/// Mean microseconds per call of `f`, cycling through `inputs` until
/// `PROBE_SECS` have been measured (at least one full cycle).
fn mean_us<T>(inputs: &[T], mut f: impl FnMut(&T)) -> f64 {
    assert!(!inputs.is_empty(), "probe without inputs");
    let start = Instant::now();
    let mut calls = 0u64;
    loop {
        for x in inputs {
            f(x);
        }
        calls += inputs.len() as u64;
        let secs = start.elapsed().as_secs_f64();
        if secs >= PROBE_SECS {
            return secs * 1e6 / calls as f64;
        }
    }
}

// ---------------------------------------------------------------------------
// query / core.plangen / core.analyser (home: trade_cold)
// ---------------------------------------------------------------------------

pub fn trading_layers(
    catalog: &Catalog,
    cfg: &QtConfig,
    captures: &[RoundCapture],
    layers: &mut Layers,
) {
    // Seller rewrite: every RFB item of the captured rounds against every
    // node's holdings.
    let holdings: Vec<_> = catalog
        .nodes
        .iter()
        .map(|&n| catalog.holdings_of(n))
        .collect();
    let items: Vec<&Query> = captures
        .iter()
        .flat_map(|c| c.items.iter().map(|i| &i.query))
        .collect();
    let per_item = mean_us(&items, |q| {
        for h in &holdings {
            black_box(rewrite_for_holdings(q, h));
        }
    });
    layers.insert("query.rewrite.us", per_item / holdings.len() as f64);

    // Buyer plan generation over the offer pool as it stood at each round.
    fn generator<'a>(
        catalog: &'a Catalog,
        cfg: &'a QtConfig,
        c: &'a RoundCapture,
    ) -> PlanGenerator<'a> {
        PlanGenerator {
            dict: &catalog.dict,
            query: &c.query,
            config: cfg,
            buyer_resources: NodeResources::reference(),
        }
    }
    layers.insert(
        "core.plangen.generate_us",
        mean_us(captures, |c| {
            black_box(generator(catalog, cfg, c).generate(&c.pool));
        }),
    );

    // Buyer predicates analyser on the same rounds.
    let gens: Vec<_> = captures
        .iter()
        .map(|c| (c, generator(catalog, cfg, c).generate(&c.pool)))
        .collect();
    let mut new_queries = 0usize;
    for (c, gen) in &gens {
        new_queries += next_queries(&catalog.dict, &c.query, gen, &c.pool, &c.asked).len();
    }
    layers.insert(
        "core.analyser.next_queries_us",
        mean_us(&gens, |(c, gen)| {
            black_box(next_queries(
                &catalog.dict,
                &c.query,
                gen,
                &c.pool,
                &c.asked,
            ));
        }),
    );
    layers.insert(
        "core.analyser.new_queries_per_round",
        new_queries as f64 / gens.len() as f64,
    );
}

// ---------------------------------------------------------------------------
// optimizer (home: trade_cold)
// ---------------------------------------------------------------------------

/// Seller-local DP in isolation: one node holding every partition of an
/// `r`-relation chain, so nothing but enumeration and costing is timed.
pub fn local_optimizer(layers: &mut Layers) {
    for (rels, partials, optimize) in [
        (4usize, "optimizer.local.partial_results_ms.r4", None),
        (
            6,
            "optimizer.local.partial_results_ms.r6",
            Some("optimizer.local.optimize_ms.r6"),
        ),
    ] {
        let fed = build_federation(&FederationSpec {
            nodes: 1,
            relations: rels,
            partitions_per_relation: 2,
            replication: 1,
            seed: 7,
            ..FederationSpec::default()
        });
        let q = gen_join_query(&fed.catalog.dict, QueryShape::Chain, rels, false, 5);
        let core = q.strip_aggregation();
        let opt = LocalOptimizer::new(&fed.catalog);
        layers.insert(
            partials,
            mean_us(&[()], |_| {
                black_box(opt.partial_results(&core, 2));
            }) / 1e3,
        );
        if let Some(name) = optimize {
            layers.insert(
                name,
                mean_us(&[()], |_| {
                    black_box(opt.optimize(&q));
                }) / 1e3,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// net.sim / net.real (homes: serve_warm, serve_threads, serve_tcp)
// ---------------------------------------------------------------------------

/// Two nodes bouncing a counter down to zero: nothing but the runtime's
/// per-message cost.
struct Bouncer {
    last: u64,
}

impl Handler<u64> for Bouncer {
    fn on_message(&mut self, ctx: &mut Ctx<u64>, from: NodeId, msg: u64) {
        self.last = msg;
        if msg > 0 {
            ctx.send(from, msg - 1, 8.0, "negotiate");
        }
    }
}

const BOUNCES: u64 = 200_000;

pub fn sim_events_per_s() -> f64 {
    let mut sim: Simulator<u64, Bouncer> = Simulator::new(Topology::Uniform(NetLink::wan()));
    sim.add_node(NodeId(0), Bouncer { last: u64::MAX });
    sim.add_node(NodeId(1), Bouncer { last: u64::MAX });
    sim.inject(0.0, NodeId(1), NodeId(0), BOUNCES, "start");
    let t = Instant::now();
    let events = sim.run(u64::MAX);
    assert_eq!(events, BOUNCES + 1, "ping-pong ran to completion");
    events as f64 / t.elapsed().as_secs_f64()
}

fn bounce_real(transport: RealTransport, bounces: u64) -> f64 {
    let mut rt: RealRuntime<u64, Bouncer> = RealRuntime::new(RealConfig {
        transport,
        ..RealConfig::default()
    });
    rt.add_node(NodeId(0), Bouncer { last: u64::MAX });
    rt.add_node(NodeId(1), Bouncer { last: u64::MAX });
    rt.inject(0.0, NodeId(1), NodeId(0), bounces, "start");
    // `bounces` is even, so the root receives the final 0.
    rt.run(NodeId(0), |h| h.last == 0).wall_seconds
}

/// Microseconds per round trip between two node threads.
pub fn real_rtt_us(transport: RealTransport) -> f64 {
    const ROUND_TRIPS: u64 = 10_000;
    let idle = bounce_real(transport, 0);
    let busy = bounce_real(transport, 2 * ROUND_TRIPS);
    (busy - idle).max(0.0) * 1e6 / ROUND_TRIPS as f64
}

/// Milliseconds to spawn, connect and join a 5-node threads runtime that
/// handles a single message — what every `serve_threads` repeat pays once.
pub fn real_start_join_ms() -> f64 {
    let mut rt: RealRuntime<u64, Bouncer> = RealRuntime::new(RealConfig::default());
    for n in 0..5 {
        rt.add_node(NodeId(n), Bouncer { last: u64::MAX });
    }
    rt.inject(0.0, NodeId(1), NodeId(0), 0, "start");
    rt.run(NodeId(0), |h| h.last == 0).wall_seconds * 1e3
}

// ---------------------------------------------------------------------------
// core.wire / trade.wire (home: serve_tcp)
// ---------------------------------------------------------------------------

/// The RFB and offer messages of the first 256 stream queries, through the
/// codec the TCP transport frames with.
pub fn wire_codec(
    catalog: &Catalog,
    cfg: &QtConfig,
    arrivals: &[(f64, Query)],
    layers: &mut Layers,
) {
    let mut sellers = engines(catalog, &Default::default(), cfg);
    let mut msgs: Vec<ServeMsg> = Vec::new();
    for (i, (_, q)) in arrivals.iter().take(256).enumerate() {
        let session = SessionId(i as u64);
        let items = BuyerEngine::new(BUYER, catalog.dict.clone(), q.clone(), cfg.clone()).start();
        for seller in sellers.values_mut() {
            let offers = seller.respond(0, &items).offers;
            msgs.push(ServeMsg::Offers {
                replies: vec![(session, 0, offers)],
            });
        }
        msgs.push(ServeMsg::Rfb {
            entries: vec![SessionRfb {
                session,
                req: session_req(session, 0),
                round: 0,
                items: Arc::new(items),
                hints: Arc::new(Vec::new()),
                priority: 0,
            }],
        });
    }
    let frames: Vec<Vec<u8>> = msgs.iter().map(Wire::encode).collect();
    let bytes_per_msg = frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len() as f64;
    let encode_us = mean_us(&msgs, |m| {
        black_box(m.encode());
    });
    let decode_us = mean_us(&frames, |f| {
        black_box(ServeMsg::decode(f).expect("frame round-trips"));
    });
    layers.insert("wire.encode_ns_per_byte", encode_us * 1e3 / bytes_per_msg);
    layers.insert("wire.decode_ns_per_byte", decode_us * 1e3 / bytes_per_msg);
}

// ---------------------------------------------------------------------------
// core.discovery (home: serve_tiered)
// ---------------------------------------------------------------------------

pub fn discovery(
    catalog: &Catalog,
    cfg: &QtConfig,
    arrivals: &[(f64, Query)],
    layers: &mut Layers,
) {
    let remote: Vec<NodeId> = catalog
        .nodes
        .iter()
        .copied()
        .filter(|&n| n != BUYER)
        .collect();
    let first_broker = catalog.nodes.iter().map(|n| n.0).max().unwrap_or(0) + 1;
    layers.insert(
        "core.discovery.tree_build_ms",
        mean_us(&[()], |_| {
            black_box(BrokerTree::build(&remote, 8, first_broker));
        }) / 1e3,
    );
    let mut sellers: Vec<_> = engines(catalog, &Default::default(), cfg)
        .into_values()
        .collect();
    layers.insert(
        "core.discovery.digest_ns",
        mean_us(&sellers, |e| {
            black_box(seller_digest(e));
        }) * 1e3,
    );
    // What a broker aggregates: every seller's reply to one RFB.
    let q = &arrivals[0].1;
    let items = BuyerEngine::new(BUYER, catalog.dict.clone(), q.clone(), cfg.clone()).start();
    let pool: Vec<_> = sellers
        .iter_mut()
        .flat_map(|e| e.respond(0, &items).offers)
        .collect();
    layers.insert(
        "core.discovery.prune_us",
        mean_us(&[()], |_| {
            black_box(prune_offers(pool.clone(), 2));
        }),
    );
}

// ---------------------------------------------------------------------------
// trade.semcache / core.compensate / query.views (home: serve_semcache)
// ---------------------------------------------------------------------------

pub fn semcache(arrivals: &[(f64, Query)], out: &ServeOutcome, layers: &mut Layers) {
    let mut seen = BTreeSet::new();
    let distinct: Vec<&Query> = arrivals
        .iter()
        .map(|(_, q)| q)
        .filter(|q| seen.insert(q.fingerprint()))
        .collect();
    for (capacity, probe, insert) in [
        (
            64usize,
            "trade.semcache.probe_us.c64",
            "trade.semcache.insert_us.c64",
        ),
        (
            1024,
            "trade.semcache.probe_us.c1024",
            "trade.semcache.insert_us.c1024",
        ),
    ] {
        let mut cache: SemCache<u32> = SemCache::new(capacity);
        for q in distinct.iter().cycle().take(capacity) {
            cache.insert(q.fingerprint(), (*q).clone(), 0, 1.0);
        }
        layers.insert(
            probe,
            mean_us(&distinct, |q| {
                black_box(cache.probe(q.fingerprint(), q, true));
            }),
        );
        // A full cache: every insertion of an absent key evicts.
        layers.insert(
            insert,
            mean_us(&distinct, |q| {
                black_box(cache.insert(q.fingerprint(), (*q).clone(), 0, 1.0));
            }),
        );
    }

    // The widest template answers the most variants; it is what the view
    // matcher and the plan compensation work from.
    let (wide, matches) = distinct
        .iter()
        .take(8)
        .map(|v| {
            let n = distinct
                .iter()
                .filter(|q| match_view(v, q).is_some())
                .count();
            (*v, n)
        })
        .max_by_key(|&(_, n)| n)
        .expect("stream is not empty");
    assert!(matches > 1, "no template subsumes another");
    layers.insert(
        "query.views.match_us",
        mean_us(&distinct, |q| {
            black_box(match_view(wide, q));
        }),
    );
    let cached: &DistributedPlan = out
        .reports
        .iter()
        .filter_map(|r| r.plan.as_ref())
        .find(|p| &p.query == wide)
        .expect("the wide template was traded");
    let narrower: Vec<_> = distinct
        .iter()
        .filter_map(|q| match_view(wide, q).map(|m| (*q, m)))
        .collect();
    layers.insert(
        "core.compensate.us",
        mean_us(&narrower, |(q, m)| {
            black_box(compensate_plan(cached, q, m));
        }),
    );
}

// ---------------------------------------------------------------------------
// exec (home: answer_tpch)
// ---------------------------------------------------------------------------

/// Base-table rows the execution scanned.
pub fn scanned_rows(stats: &ColExecStats) -> f64 {
    stats
        .timings
        .iter()
        .filter(|t| t.op == "Scan")
        .map(|t| t.rows_in as f64)
        .sum()
}

/// `(query kind, execution wall seconds, executor stats)` per answer.
pub fn executor(runs: &[(usize, f64, ColExecStats)], layers: &mut Layers) {
    const RATE: [&str; 3] = [
        "exec.columnar.rows_per_s.q1",
        "exec.columnar.rows_per_s.q2",
        "exec.columnar.rows_per_s.q3",
    ];
    for (kind, name) in RATE.iter().enumerate() {
        let of_kind = || runs.iter().filter(move |(k, _, _)| *k == kind);
        let rows: f64 = of_kind().map(|(_, _, st)| scanned_rows(st)).sum();
        let secs: f64 = of_kind().map(|(_, s, _)| s).sum();
        layers.insert(name, rows / secs);
    }
    let answers = runs.len() as f64;
    let timings = || runs.iter().flat_map(|(_, _, st)| st.timings.iter());
    for (name, ops) in [
        ("exec.columnar.op_ms.scan", &["Scan"][..]),
        ("exec.columnar.op_ms.filter", &["Filter"]),
        (
            "exec.columnar.op_ms.join",
            &["HashJoinBuild", "HashJoinProbe"],
        ),
        ("exec.columnar.op_ms.agg", &["HashAggregate"]),
        ("exec.columnar.op_ms.sort", &["Sort"]),
    ] {
        let secs: f64 = timings()
            .filter(|t| ops.contains(&t.op))
            .map(|t| t.secs)
            .sum();
        layers.insert(name, secs * 1e3 / answers);
    }
    layers.insert(
        "exec.columnar.spill_bytes",
        runs.iter().map(|(_, _, st)| st.spill_bytes as f64).sum(),
    );
    // Seller-side fragment plans run first and read base tables; the buyer
    // assembly follows and starts from `Input` slots.
    let (mut fetch, mut total) = (0.0, 0.0);
    for (_, _, st) in runs {
        let split = st
            .timings
            .iter()
            .position(|t| t.op == "Input")
            .unwrap_or(st.timings.len());
        fetch += st.timings[..split].iter().map(|t| t.secs).sum::<f64>();
        total += st.timings.iter().map(|t| t.secs).sum::<f64>();
    }
    layers.insert("exec.fetch_share", fetch / total);
}
