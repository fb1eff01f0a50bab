//! The seven workloads. Each builds its inputs from the seed, runs one
//! repeat of its stream through public entry points only, verifies what
//! came back, and — in a separate traced pass — records spans around the
//! same public calls plus the layer probes it is the home of.
//!
//! Why each workload exists is stated once, in `WORKLOADS` in `main.rs`
//! (it is what `BENCHMARK.json` carries); the README expands on it.

use crate::gen::{distinct_queries, sub_seed, SplitMix64};
use crate::probes;
use crate::stats;
use crate::trace::Tracer;
use qt_baselines::{run_baseline, BaselineKind};
use qt_catalog::{Catalog, NodeId};
use qt_core::buyer::RoundOutcome;
use qt_core::{
    new_result_cache, remote_awards, run_qt_direct, run_qt_serve, run_qt_serve_real, winner_set,
    BuyerEngine, DistributedPlan, HierarchyConfig, Offer, QtConfig, RfbItem, SellerEngine,
    ServeConfig, ServeOutcome, SharedResultCache,
};
use qt_cost::NodeResources;
use qt_exec::reference::approx_same_rows;
use qt_exec::{evaluate_query, ColumnarConfig, DataStore, Table};
use qt_net::{RealConfig, RealTransport};
use qt_query::{parse_query, Query};
use qt_workload::{
    build_federation, gen_arrivals, gen_arrivals_zipf, telecom_federation, template_mix,
    tpch_federation, ArrivalSpec, FederationSpec, TelecomSpec, TpchSpec,
};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Per-layer metric values of one traced run, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// The node that receives every user query.
pub const BUYER: NodeId = NodeId(0);

/// A repeat must hold this many latency samples before its p99 is reported
/// (20 samples beyond the percentile). Only `trade_cold` has them; elsewhere
/// `trade_p99_ms` falls back to the repeat's p50.
const MIN_P99_SAMPLES: usize = 2000;

/// Queries whose plans are compared against the global-knowledge TradDP
/// baseline for `plan_cost_ratio`, and whose trades feed the layer probes.
const SAMPLE_QUERIES: usize = 64;

/// Placement, statistics and data of every federation come from this fixed
/// seed: the federation is part of a workload's definition. `--seed` drives
/// the query stream only. (Random placement decides how many sellers can
/// join locally; letting it vary with `--seed` moved `qps` by 20-30 % from
/// seed to seed, which is a different benchmark per seed, not noise.)
const FEDERATION_SEED: u64 = 5;

/// Serial in-node execution and a deadline no queued session can reach, so
/// neither `qt-par` fan-out nor retransmission timers add noise.
pub fn qt_config() -> QtConfig {
    QtConfig {
        parallel: false,
        seller_timeout: 300.0,
        ..QtConfig::default()
    }
}

/// What one repeat of a workload's stream measured.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    pub qps: f64,
    pub trade_p50_ms: f64,
    pub trade_p99_ms: f64,
    pub answer_p50_ms: f64,
    pub msgs_per_query: f64,
    pub wire_bytes_per_query: f64,
    pub plan_cost_ratio: f64,
    /// Queries attempted / queries that came back without a usable result.
    pub attempted: u64,
    pub failed: u64,
    /// One signature per query in stream order: plan shape, cost bits and
    /// offer ids (plus message and row counts where the driver reports
    /// them). Repeats of one seeded stream must agree on every entry.
    pub sigs: Vec<u64>,
    /// `trade_cold` only: every query's trade latency, in stream order. The
    /// runner takes the latency percentiles from each query's fastest repeat.
    pub trade_ms: Vec<f64>,
    /// `answer_tpch` only: the rows of each distinct query, for `check`.
    pub answers: Vec<Table>,
}

pub trait Workload {
    /// A discarded prefix of the stream: faults pages in and sizes the
    /// allocator's arenas before the first timed repeat.
    fn warm_up(&self);
    /// One pass over the seeded stream; all timing happens inside.
    fn repeat(&self) -> Sample;
    /// Verify `first` (a repeat's sample) against an independent path,
    /// outside any timed span. Returns `(comparisons, mismatches)`.
    fn check(&self, first: &Sample) -> (u64, u64);
    /// The traced pass over the same stream, filling in the per-layer
    /// metrics this workload is the home of.
    fn trace(&self, tr: &mut Tracer, layers: &mut Layers) -> Traced;
}

/// What a traced pass reports besides its layer metrics.
pub struct Traced {
    /// Queries the pass ran.
    pub queries: u64,
    /// Wall seconds of the traced pass and of the matching untraced run of
    /// the same stream; their ratio is `trace.overhead_ratio`.
    pub traced_wall: f64,
    pub untraced_wall: f64,
}

pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "trade_cold" => Box::new(TradeCold::setup(seed)),
        "serve_warm" => Box::new(Serve::setup(ServeKind::Warm, seed)),
        "serve_threads" => Box::new(Serve::setup(ServeKind::Threads, seed)),
        "serve_tcp" => Box::new(Serve::setup(ServeKind::Tcp, seed)),
        "serve_tiered" => Box::new(Serve::setup(ServeKind::Tiered, seed)),
        "serve_semcache" => Box::new(Serve::setup(ServeKind::Semcache, seed)),
        "answer_tpch" => Box::new(AnswerTpch::setup(seed)),
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------------

type Resources = BTreeMap<NodeId, NodeResources>;

/// One autonomous seller per federation node, seeing only its own holdings.
pub fn engines(
    catalog: &Catalog,
    resources: &Resources,
    cfg: &QtConfig,
) -> BTreeMap<NodeId, SellerEngine> {
    catalog
        .nodes
        .iter()
        .map(|&n| {
            let mut e = SellerEngine::new(catalog.holdings_of(n), cfg.clone());
            if let Some(r) = resources.get(&n) {
                e.resources = r.clone();
            }
            (n, e)
        })
        .collect()
}

fn synthetic(nodes: u32, relations: usize, replication: u32) -> FederationSpec {
    FederationSpec {
        nodes,
        relations,
        partitions_per_relation: 2,
        replication,
        rows_per_partition: 100_000,
        scale: 1,
        seed: FEDERATION_SEED,
        with_data: false,
        speed_spread: 1.0,
        data_skew: 0.0,
    }
}

fn fnv(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

/// Signature of a plan: estimate bits and, per purchase, slot, seller and
/// offer id. Equal signatures on the same query mean the same trade.
pub fn plan_sig(plan: Option<&DistributedPlan>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let Some(p) = plan else {
        return h;
    };
    fnv(&mut h, p.est.response_time.to_bits());
    fnv(&mut h, p.est.additive_cost.to_bits());
    for pu in &p.purchases {
        fnv(&mut h, pu.slot as u64);
        fnv(&mut h, pu.offer.seller.0 as u64);
        fnv(&mut h, pu.offer.id);
        fnv(&mut h, pu.agreed_value.to_bits());
    }
    h
}

fn mix(sig: u64, extra: u64) -> u64 {
    let mut h = sig;
    fnv(&mut h, extra);
    h
}

/// Response time of the plan a central optimizer with global knowledge
/// (exhaustive DP over the whole catalog) finds for `q`.
fn baseline_response_time(
    catalog: &Catalog,
    resources: &Resources,
    q: &Query,
    cfg: &QtConfig,
) -> f64 {
    run_baseline(BaselineKind::TradDp, catalog, resources, BUYER, q, cfg)
        .plan
        .expect("the federation covers every generated query")
        .est
        .response_time
}

/// Geometric mean of QT response-time estimates over their TradDP
/// counterparts; queries without a plan are counted by the caller as failed
/// and skipped here.
fn cost_ratio<'a>(pairs: impl Iterator<Item = (Option<&'a DistributedPlan>, f64)>) -> f64 {
    let ratios: Vec<f64> = pairs
        .filter_map(|(plan, base)| plan.map(|p| p.est.response_time / base))
        .collect();
    if ratios.is_empty() {
        f64::NAN
    } else {
        stats::geo_mean(&ratios)
    }
}

fn ms(from: Instant) -> f64 {
    from.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// The harness's own trading loop (pipeline spans)
// ---------------------------------------------------------------------------

/// What the harness-driven trade of one query produced.
#[derive(Default)]
pub struct Traded {
    pub plan: Option<DistributedPlan>,
    pub messages: u64,
    pub rounds: u32,
    pub offers: u64,
    pub considered: u64,
    pub effort: u64,
    /// RFB items the sellers answered from / past their offer caches.
    pub cache_hits: u64,
    pub cache_misses: u64,
}

/// Inputs of one buyer round, kept for the layer probes.
pub struct RoundCapture {
    pub query: Query,
    pub items: Vec<RfbItem>,
    pub pool: Vec<Offer>,
    pub asked: BTreeSet<Query>,
}

/// Re-drive the trading loop through the engines' public methods — the same
/// calls, order and message accounting as `run_qt_direct` with
/// `parallel: false` and no subcontracting — with a span around each.
pub fn trade_traced(
    tr: &mut Tracer,
    qid: u32,
    catalog: &Catalog,
    query: &Query,
    sellers: &mut BTreeMap<NodeId, SellerEngine>,
    cfg: &QtConfig,
    mut capture: Option<&mut Vec<RoundCapture>>,
) -> Traded {
    assert!(!cfg.enable_subcontracting && !cfg.enable_contracts);
    tr.span("trade", qid, |tr| {
        let mut buyer = BuyerEngine::new(BUYER, catalog.dict.clone(), query.clone(), cfg.clone());
        let mut t = Traded::default();
        let hits_before: u64 = sellers.values().map(|s| s.cache_hits).sum();
        let misses_before: u64 = sellers.values().map(|s| s.cache_misses).sum();
        let mut asked: BTreeSet<Query> = BTreeSet::new();
        let mut items = tr.span("core.buyer.start", qid, |_| buyer.start());
        loop {
            let round = buyer.round;
            let mut replies = Vec::with_capacity(sellers.len());
            for (&node, engine) in sellers.iter_mut() {
                let resp = tr.span("core.seller.respond", qid, |_| {
                    engine.respond_with_hints(round, &items, &[])
                });
                if node != BUYER {
                    t.messages += 2;
                }
                t.effort += resp.effort;
                t.offers += resp.offers.len() as u64;
                replies.push(resp.offers);
            }
            tr.span("core.buyer.receive_offers", qid, |_| {
                for offers in replies {
                    buyer.receive_offers(offers);
                }
            });
            if let Some(cap) = capture.as_deref_mut() {
                asked.extend(items.iter().map(|i| i.query.clone()));
                cap.push(RoundCapture {
                    query: query.clone(),
                    items: items.clone(),
                    pool: buyer.offers.clone(),
                    asked: asked.clone(),
                });
            }
            let neg_before = buyer.negotiation_messages;
            let outcome = tr.span("core.buyer.close_round", qid, |_| buyer.close_round());
            t.messages += buyer.negotiation_messages - neg_before;
            match outcome {
                RoundOutcome::Continue(next) => items = next,
                RoundOutcome::Done => break,
            }
        }
        if let Some(plan) = &buyer.best {
            t.messages += remote_awards(plan, BUYER).len() as u64;
            let winners = winner_set(plan);
            let rels = query.rel_ids().collect();
            tr.span("core.seller.observe_award", qid, |_| {
                for (&node, engine) in sellers.iter_mut() {
                    engine.observe_award_scoped(winners.contains(&node), &rels);
                }
            });
        }
        t.cache_hits = sellers.values().map(|s| s.cache_hits).sum::<u64>() - hits_before;
        t.cache_misses = sellers.values().map(|s| s.cache_misses).sum::<u64>() - misses_before;
        t.rounds = buyer.round + 1;
        t.considered = buyer.total_considered();
        t.plan = buyer.best;
        t
    })
}

/// Signature `run_qt_direct` and [`trade_traced`] must agree on.
fn trade_sig(plan: Option<&DistributedPlan>, messages: u64) -> u64 {
    mix(plan_sig(plan), messages)
}

/// Do the harness pipeline and `run_qt_direct` agree bit for bit on `query`?
/// Compares the full plan (its `Debug` form prints every float with all its
/// digits), the cost bits and the message count.
fn pipeline_matches_direct(catalog: &Catalog, resources: &Resources, query: &Query) -> bool {
    let cfg = qt_config();
    let mut a = engines(catalog, resources, &cfg);
    let direct = run_qt_direct(BUYER, catalog.dict.clone(), query, &mut a, &cfg);
    let mut b = engines(catalog, resources, &cfg);
    let mut tr = Tracer::new();
    let ours = trade_traced(&mut tr, 0, catalog, query, &mut b, &cfg, None);
    direct.messages == ours.messages
        && direct.iterations == ours.rounds
        && direct.seller_effort == ours.effort
        && format!("{:?}", direct.plan) == format!("{:?}", ours.plan)
}

// ---------------------------------------------------------------------------
// trade_cold
// ---------------------------------------------------------------------------

const TRADE_COLD_QUERIES: usize = 2000;
const _: () = assert!(TRADE_COLD_QUERIES >= MIN_P99_SAMPLES);

pub struct TradeCold {
    catalog: Catalog,
    resources: Resources,
    cfg: QtConfig,
    queries: Vec<Query>,
    /// TradDP response time of the first `SAMPLE_QUERIES` queries.
    baseline: Vec<f64>,
}

impl TradeCold {
    fn setup(seed: u64) -> Self {
        let fed = build_federation(&synthetic(16, 6, 2));
        let cfg = qt_config();
        let queries = distinct_queries(
            &fed.catalog.dict,
            2..=6,
            TRADE_COLD_QUERIES,
            sub_seed(seed, 2),
        );
        let baseline = queries[..SAMPLE_QUERIES]
            .iter()
            .map(|q| baseline_response_time(&fed.catalog, &fed.resources, q, &cfg))
            .collect();
        TradeCold {
            catalog: fed.catalog,
            resources: fed.resources,
            cfg,
            queries,
            baseline,
        }
    }

    /// Wall seconds of `run_qt_direct` over the first `n` queries with
    /// `parallel` fan-out on or off (fresh engines per query, built outside
    /// the timed spans).
    fn direct_wall(&self, n: usize, parallel: bool) -> f64 {
        let cfg = QtConfig {
            parallel,
            ..self.cfg.clone()
        };
        let mut wall = 0.0;
        for q in &self.queries[..n] {
            let mut sellers = engines(&self.catalog, &self.resources, &cfg);
            let dict = self.catalog.dict.clone();
            let t = Instant::now();
            std::hint::black_box(run_qt_direct(BUYER, dict, q, &mut sellers, &cfg));
            wall += t.elapsed().as_secs_f64();
        }
        wall
    }
}

impl Workload for TradeCold {
    fn warm_up(&self) {
        self.direct_wall(self.queries.len() / 10, false);
    }

    fn repeat(&self) -> Sample {
        let n = self.queries.len();
        let mut lat = Vec::with_capacity(n);
        let mut s = Sample::default();
        let mut messages = 0u64;
        let mut bytes = 0.0f64;
        let mut sampled: Vec<Option<DistributedPlan>> = Vec::with_capacity(SAMPLE_QUERIES);
        for (i, q) in self.queries.iter().enumerate() {
            let mut sellers = engines(&self.catalog, &self.resources, &self.cfg);
            let dict = self.catalog.dict.clone();
            let t = Instant::now();
            let out = run_qt_direct(BUYER, dict, q, &mut sellers, &self.cfg);
            lat.push(ms(t));
            messages += out.messages;
            bytes += out.bytes;
            s.failed += u64::from(out.plan.is_none());
            s.sigs.push(trade_sig(out.plan.as_ref(), out.messages));
            if i < SAMPLE_QUERIES {
                sampled.push(out.plan);
            }
        }
        s.attempted = n as u64;
        s.qps = n as f64 / (lat.iter().sum::<f64>() / 1e3);
        s.trade_ms = lat.clone();
        stats::sort(&mut lat);
        s.trade_p50_ms = stats::percentile(&lat, 0.5);
        s.trade_p99_ms = stats::percentile(&lat, 0.99);
        // No data to execute: the plan is the answer.
        s.answer_p50_ms = s.trade_p50_ms;
        s.msgs_per_query = messages as f64 / n as f64;
        s.wire_bytes_per_query = bytes / n as f64;
        s.plan_cost_ratio = cost_ratio(
            sampled
                .iter()
                .map(Option::as_ref)
                .zip(self.baseline.iter().copied()),
        );
        s
    }

    fn check(&self, _first: &Sample) -> (u64, u64) {
        let bad = self.queries[..SAMPLE_QUERIES]
            .iter()
            .filter(|q| !pipeline_matches_direct(&self.catalog, &self.resources, q))
            .count();
        (SAMPLE_QUERIES as u64, bad as u64)
    }

    fn trace(&self, tr: &mut Tracer, layers: &mut Layers) -> Traced {
        let n = self.queries.len();
        let untraced = self.repeat();
        let mut captures: Vec<RoundCapture> = Vec::new();
        let (mut rounds, mut offers, mut considered, mut effort) = (0u64, 0u64, 0u64, 0u64);
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut mismatches = 0u64;
        let t0 = Instant::now();
        for (i, q) in self.queries.iter().enumerate() {
            let mut sellers = tr.span("core.seller.new", i as u32, |_| {
                engines(&self.catalog, &self.resources, &self.cfg)
            });
            let cap = (i < SAMPLE_QUERIES).then_some(&mut captures);
            let t = trade_traced(tr, i as u32, &self.catalog, q, &mut sellers, &self.cfg, cap);
            mismatches += u64::from(trade_sig(t.plan.as_ref(), t.messages) != untraced.sigs[i]);
            rounds += t.rounds as u64;
            offers += t.offers;
            considered += t.considered;
            effort += t.effort;
            hits += t.cache_hits;
            misses += t.cache_misses;
            if i < SAMPLE_QUERIES {
                // Second trade on the same, now warm, engines: every RFB
                // item is an offer-cache hit.
                tr.span("trade_warm", i as u32, |tr| {
                    let buyer_items = vec![RfbItem {
                        query: q.clone(),
                        ref_value: f64::INFINITY,
                    }];
                    for engine in sellers.values_mut() {
                        tr.span("core.seller.respond_warm", i as u32, |_| {
                            engine.respond(0, &buyer_items)
                        });
                    }
                });
            }
        }
        let traced_wall = t0.elapsed().as_secs_f64();
        assert_eq!(
            mismatches, 0,
            "harness pipeline diverged from run_qt_direct on {mismatches} queries"
        );

        let totals = tr.layer_totals();
        let total_ms = |name: &str| totals.get(name).map_or(0.0, |l| l.total_ms());
        let calls = |name: &str| totals.get(name).map_or(0, |l| l.calls) as f64;
        let nq = n as f64;
        let trade_ms = total_ms("trade");
        layers.insert(
            "core.seller.respond_ms_per_query",
            total_ms("core.seller.respond") / nq,
        );
        layers.insert(
            "core.seller.share",
            total_ms("core.seller.respond") / trade_ms,
        );
        layers.insert(
            "core.seller.calls_per_query",
            calls("core.seller.respond") / nq,
        );
        layers.insert("core.seller.offers_per_query", offers as f64 / nq);
        layers.insert(
            "core.seller.cache_hit_rate",
            hits as f64 / (hits + misses) as f64,
        );
        layers.insert(
            "core.seller.respond_warm_us",
            total_ms("core.seller.respond_warm") * 1e3 / calls("core.seller.respond_warm"),
        );
        layers.insert(
            "core.seller.new_us",
            total_ms("core.seller.new") * 1e3 / (nq * self.catalog.nodes.len() as f64),
        );
        layers.insert(
            "core.buyer.close_round_ms_per_query",
            total_ms("core.buyer.close_round") / nq,
        );
        layers.insert("core.buyer.rounds_per_query", rounds as f64 / nq);
        layers.insert(
            "core.plangen.offers_considered_per_query",
            considered as f64 / nq,
        );
        layers.insert("optimizer.effort_per_query", effort as f64 / nq);
        probes::trading_layers(&self.catalog, &self.cfg, &captures, layers);
        probes::local_optimizer(layers);
        // `main` pins `qt-par` to one worker; the parallel arm alone runs
        // with the host's core count. No other thread is alive here.
        let par_n = 500.min(n);
        let serial = self.direct_wall(par_n, false);
        std::env::remove_var("QT_THREADS");
        let parallel = self.direct_wall(par_n, true);
        std::env::set_var("QT_THREADS", "1");
        layers.insert("par.trade_cold_speedup", serial / parallel);
        Traced {
            queries: n as u64,
            traced_wall,
            // The sum of one repeat's timed spans.
            untraced_wall: nq / untraced.qps,
        }
    }
}

// ---------------------------------------------------------------------------
// serve_*
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    Warm,
    Threads,
    Tcp,
    Tiered,
    Semcache,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    Sim,
    Real(RealTransport),
}

pub struct Serve {
    kind: ServeKind,
    catalog: Catalog,
    resources: Resources,
    cfg: QtConfig,
    concurrency: usize,
    arrivals: Vec<(f64, Query)>,
    /// `(index of a sampled query's first arrival, its TradDP response time)`.
    baseline: Vec<(usize, f64)>,
}

/// Capacity of both caches on `serve_semcache`: a sixteenth of the 1 024
/// distinct queries, so the working set does not fit.
const SEMCACHE_CAPACITY: usize = 64;

/// Sessions in flight on the real transports. With one or two, every message
/// is a sleeping thread woken across cores — on a virtual machine an idle
/// vCPU halts into the hypervisor, so that measured the host's wake-up
/// latency (`qps` spread 25 % between identical runs). With 32 the buyer
/// thread always finds its queue non-empty (a tenth of the voluntary context
/// switches) and the run measures what the transport costs per message.
/// Wake-up latency stays visible, ungated, as `net.real.*_rtt_us`.
const REAL_CONCURRENCY: usize = 32;

impl Serve {
    fn setup(kind: ServeKind, seed: u64) -> Self {
        let mut cfg = qt_config();
        let burst = |n_queries| ArrivalSpec {
            n_queries,
            mean_interarrival: 0.0,
            seed: sub_seed(seed, 3),
        };
        let mix_of =
            |catalog: &Catalog| distinct_queries(&catalog.dict, 2..=3, 64, sub_seed(seed, 2));
        let (catalog, resources, arrivals, concurrency) = match kind {
            ServeKind::Warm => {
                let fed = build_federation(&synthetic(16, 3, 2));
                let arrivals = gen_arrivals(&mix_of(&fed.catalog), &burst(6000));
                (fed.catalog, fed.resources, arrivals, 8)
            }
            // Thread-per-node: a 4-seller federation keeps the thread count
            // near the core count, and `REAL_CONCURRENCY` sessions in flight
            // keep every node's queue non-empty.
            ServeKind::Threads | ServeKind::Tcp => {
                let fed = build_federation(&synthetic(4, 3, 2));
                let arrivals = gen_arrivals(&mix_of(&fed.catalog), &burst(3000));
                (fed.catalog, fed.resources, arrivals, REAL_CONCURRENCY)
            }
            // The catalog stays at 8 × 2 × 3 = 48 holder slots while the
            // fleet is 256 nodes: most sellers hold nothing a query touches.
            ServeKind::Tiered => {
                let fed = build_federation(&synthetic(256, 8, 3));
                // Sellers advertise at t = 0; a session that starts before
                // the advertisements land finds no seller and fails.
                let arrivals = gen_arrivals(&mix_of(&fed.catalog), &burst(3000))
                    .into_iter()
                    .map(|(t, q)| (t + 5.0, q))
                    .collect();
                (fed.catalog, fed.resources, arrivals, 8)
            }
            ServeKind::Semcache => {
                let (catalog, _) = telecom_federation(&TelecomSpec {
                    offices: 16,
                    invoice_replicas: 2,
                    seed: FEDERATION_SEED,
                    ..TelecomSpec::default()
                });
                cfg.enable_semantic_cache = true;
                cfg.offer_cache_entries = SEMCACHE_CAPACITY;
                let mix = template_mix(&catalog.dict, 1023, sub_seed(seed, 2));
                // A warmed deployment: the wide template (the mix's head) is
                // traded and cached before the burst. Left to the Zipf draw
                // it first arrives after a geometric wait (mean 40, s.d. 40
                // arrivals) of cold trades, and `msgs_per_query` — a few
                // dozen trades over 20 000 queries — varied 6x with the seed.
                let warm = std::iter::once((0.0, mix[0].clone()));
                let arrivals = gen_arrivals_zipf(&mix, &burst(20_000), 0.6)
                    .into_iter()
                    .map(|(t, q)| (t + 5.0, q));
                (catalog, Resources::new(), warm.chain(arrivals).collect(), 8)
            }
        };
        let mut seen = BTreeSet::new();
        let baseline = arrivals
            .iter()
            .enumerate()
            .filter(|(_, (_, q))| seen.insert(q.fingerprint()))
            .take(SAMPLE_QUERIES)
            .map(|(i, (_, q))| (i, baseline_response_time(&catalog, &resources, q, &cfg)))
            .collect();
        Serve {
            kind,
            catalog,
            resources,
            cfg,
            concurrency,
            arrivals,
            baseline,
        }
    }

    fn runtime(&self) -> Runtime {
        match self.kind {
            ServeKind::Threads => Runtime::Real(RealTransport::Threads),
            ServeKind::Tcp => Runtime::Real(RealTransport::Tcp),
            _ => Runtime::Sim,
        }
    }

    fn serve_config(&self, hierarchy: bool) -> (ServeConfig, Option<SharedResultCache>) {
        let cache = (self.kind == ServeKind::Semcache).then(|| new_result_cache(SEMCACHE_CAPACITY));
        let sc = ServeConfig {
            concurrency: self.concurrency,
            batch_rfbs: true,
            result_cache: cache.clone(),
            hierarchy: (hierarchy && self.kind == ServeKind::Tiered).then(|| HierarchyConfig {
                fanout: 8,
                ..HierarchyConfig::default()
            }),
            ..ServeConfig::default()
        };
        (sc, cache)
    }

    /// Serve `arrivals` on `runtime` with fresh engines and caches (built
    /// outside the timed span). Returns the outcome, the harness wall
    /// seconds around the serving call, and the result cache if any.
    pub fn run(
        &self,
        arrivals: Vec<(f64, Query)>,
        runtime: Runtime,
        hierarchy: bool,
    ) -> (ServeOutcome, f64, Option<SharedResultCache>) {
        let sellers = engines(&self.catalog, &self.resources, &self.cfg);
        let (sc, cache) = self.serve_config(hierarchy);
        let dict = self.catalog.dict.clone();
        let t = Instant::now();
        let out = match runtime {
            Runtime::Sim => run_qt_serve(BUYER, dict, arrivals, sellers, &self.cfg, &sc),
            Runtime::Real(transport) => run_qt_serve_real(
                BUYER,
                dict,
                arrivals,
                sellers,
                &self.cfg,
                &sc,
                RealConfig {
                    transport,
                    ..RealConfig::default()
                },
            ),
        };
        (out, t.elapsed().as_secs_f64(), cache)
    }

    /// Ascending wall service times, ms. A burst arrives at t = 0, so the
    /// arrival-based `SessionReport::latency()` is queue wait; service time
    /// is `finished − started` (wall seconds on the real transports only).
    fn service_ms(out: &ServeOutcome) -> Vec<f64> {
        let mut lat: Vec<f64> = out
            .reports
            .iter()
            .map(|r| (r.finished - r.started) * 1e3)
            .collect();
        stats::sort(&mut lat);
        lat
    }

    fn sample(&self, out: &ServeOutcome, wall: f64, runtime: Runtime) -> Sample {
        let n = out.reports.len();
        let mut s = Sample {
            attempted: n as u64,
            failed: out.reports.iter().filter(|r| r.plan.is_none()).count() as u64,
            sigs: out
                .reports
                .iter()
                .map(|r| plan_sig(r.plan.as_ref()))
                .collect(),
            msgs_per_query: out.messages_per_query,
            plan_cost_ratio: cost_ratio(
                self.baseline
                    .iter()
                    .map(|&(i, base)| (out.reports[i].plan.as_ref(), base)),
            ),
            ..Sample::default()
        };
        match runtime {
            // Session timestamps are virtual seconds here; the only wall
            // figure is the harness's. With `concurrency` sessions open at
            // any time, a session's mean wall residence is
            // `concurrency / qps` (Little's law).
            Runtime::Sim => {
                s.qps = n as f64 / wall;
                s.trade_p50_ms = self.concurrency as f64 / s.qps * 1e3;
                s.wire_bytes_per_query = out.metrics.bytes / n as f64;
            }
            Runtime::Real(_) => {
                s.qps = n as f64 / out.makespan;
                s.trade_p50_ms = stats::percentile(&Self::service_ms(out), 0.5);
                s.wire_bytes_per_query = out.metrics.wire_bytes as f64 / n as f64;
            }
        }
        // The tail of a thread-per-node run on a small host is the
        // scheduler's: its p99 spreads 20-25 % from run to run, too close to
        // the widest bound a metric may carry. It is the ungated per-layer
        // `net.real.svc_p99_ms` instead.
        s.trade_p99_ms = s.trade_p50_ms;
        s.answer_p50_ms = s.trade_p50_ms;
        s
    }
}

impl Workload for Serve {
    fn warm_up(&self) {
        let prefix = self.arrivals[..self.arrivals.len() / 4].to_vec();
        self.run(prefix, self.runtime(), true);
    }

    fn repeat(&self) -> Sample {
        let runtime = self.runtime();
        let (out, wall, _) = self.run(self.arrivals.clone(), runtime, true);
        self.sample(&out, wall, runtime)
    }

    fn check(&self, first: &Sample) -> (u64, u64) {
        // The simulator is the oracle for the real transports: every
        // session's plan must be the one the sim trades on the same stream.
        // Sim workloads are checked repeat against repeat by the runner.
        if self.runtime() == Runtime::Sim {
            return (0, 0);
        }
        let (sim, _, _) = self.run(self.arrivals.clone(), Runtime::Sim, true);
        let bad = sim
            .reports
            .iter()
            .zip(&first.sigs)
            .filter(|(r, &sig)| plan_sig(r.plan.as_ref()) != sig)
            .count();
        (sim.reports.len() as u64, bad as u64)
    }

    fn trace(&self, tr: &mut Tracer, layers: &mut Layers) -> Traced {
        let runtime = self.runtime();
        let n = self.arrivals.len() as f64;
        let (_, untraced_wall, _) = self.run(self.arrivals.clone(), runtime, true);
        // The runtimes cannot be seen into from outside: the traced pass is
        // one span around the same call, and the layer numbers come from
        // the outcome's counters, differential runs and probes.
        let (out, wall, cache) = tr.span("serve", 0, |_| {
            self.run(self.arrivals.clone(), runtime, true)
        });
        let m = &out.metrics;
        let items = (out.offer_cache_hits + out.offer_cache_misses).max(1) as f64;
        layers.insert(
            "core.seller.cache_hit_rate",
            out.offer_cache_hits as f64 / items,
        );
        layers.insert("optimizer.effort_per_query", out.seller_effort as f64 / n);
        if runtime == Runtime::Sim {
            layers.insert("net.sim.events_per_query", m.events as f64 / n);
        }
        match self.kind {
            ServeKind::Warm => {
                // Same stream through `run_qt_direct` on persistent (warm)
                // engines: what is left of the sim-runtime wall is session
                // management, batching and the event loop.
                let mut sellers = engines(&self.catalog, &self.resources, &self.cfg);
                let t = Instant::now();
                for (_, q) in &self.arrivals {
                    let dict = self.catalog.dict.clone();
                    std::hint::black_box(run_qt_direct(BUYER, dict, q, &mut sellers, &self.cfg));
                }
                let direct_wall = t.elapsed().as_secs_f64();
                layers.insert(
                    "core.session.overhead_us_per_query",
                    (wall - direct_wall) / n * 1e6,
                );
                layers.insert("net.sim.events_per_s", probes::sim_events_per_s());
            }
            ServeKind::Threads => {
                let (sim, sim_wall, _) = self.run(self.arrivals.clone(), Runtime::Sim, true);
                layers.insert(
                    "net.real.threads_overhead_us_per_msg",
                    (wall - sim_wall) / sim.messages as f64 * 1e6,
                );
                layers.insert(
                    "net.real.svc_p99_ms",
                    stats::percentile(&Self::service_ms(&out), 0.99),
                );
                layers.insert(
                    "net.real.threads_rtt_us",
                    probes::real_rtt_us(RealTransport::Threads),
                );
                layers.insert("net.real.start_join_ms", probes::real_start_join_ms());
                let (_, p99) = self.open_loop(500.0);
                layers.insert("net.real.open500_p99_ms", p99);
                let (p50, p99) = self.open_loop(1000.0);
                layers.insert("net.real.open1000_p50_ms", p50);
                layers.insert("net.real.open1000_p99_ms", p99);
            }
            ServeKind::Tcp => {
                let threads = Runtime::Real(RealTransport::Threads);
                let (thr, thr_wall, _) = self.run(self.arrivals.clone(), threads, true);
                layers.insert(
                    "net.real.tcp_overhead_us_per_msg",
                    (wall - thr_wall) / thr.messages as f64 * 1e6,
                );
                layers.insert(
                    "net.real.tcp_rtt_us",
                    probes::real_rtt_us(RealTransport::Tcp),
                );
                layers.insert(
                    "wire.bytes_per_msg",
                    m.wire_bytes as f64 / m.messages as f64,
                );
                layers.insert("wire.bytes_vs_sim_estimate", m.wire_bytes as f64 / m.bytes);
                probes::wire_codec(&self.catalog, &self.cfg, &self.arrivals, layers);
            }
            ServeKind::Tiered => {
                layers.insert(
                    "core.broker.rfb_msgs_per_query",
                    m.kind_count("rfb") as f64 / n,
                );
                layers.insert(
                    "core.broker.agg_offers_msgs_per_query",
                    m.kind_count("agg-offers") as f64 / n,
                );
                layers.insert("core.broker.sheds", m.kind_count("shed") as f64);
                layers.insert(
                    "core.broker.timeouts",
                    m.kind_count("broker-timeout") as f64,
                );
                // Flat broadcast over the same fleet costs O(sellers)
                // messages per round; a tenth of the stream is enough to
                // count them.
                let short = self.arrivals[..self.arrivals.len() / 10].to_vec();
                let (flat, _, _) = self.run(short, Runtime::Sim, false);
                layers.insert(
                    "core.broker.msgs_vs_flat",
                    out.messages_per_query / flat.messages_per_query,
                );
                probes::discovery(&self.catalog, &self.cfg, &self.arrivals, layers);
            }
            ServeKind::Semcache => {
                let c = *cache
                    .expect("serve_semcache runs with a result cache")
                    .lock()
                    .expect("cache lock")
                    .stats();
                let probes_n = c.probes().max(1) as f64;
                layers.insert(
                    "trade.semcache.hit_rate_exact",
                    c.hits_exact as f64 / probes_n,
                );
                layers.insert(
                    "trade.semcache.hit_rate_semantic",
                    c.hits_semantic as f64 / probes_n,
                );
                layers.insert("trade.semcache.miss_rate", c.misses as f64 / probes_n);
                layers.insert("trade.semcache.insertions", c.insertions as f64);
                layers.insert("trade.semcache.evictions", c.evictions as f64);
                layers.insert("trade.semcache.invalidated", c.invalidated as f64);
                probes::semcache(&self.arrivals, &out, layers);
            }
        }
        Traced {
            queries: self.arrivals.len() as u64,
            traced_wall: wall,
            untraced_wall,
        }
    }
}

impl Serve {
    /// Open-loop probe on the threads transport: Poisson arrivals at `rate`
    /// per second for two seconds, injected on the wall clock whether or
    /// not earlier sessions finished. Returns the p50 and p99 latency in
    /// ms, counted from the due time.
    fn open_loop(&self, rate: f64) -> (f64, f64) {
        let mix: Vec<Query> = self
            .arrivals
            .iter()
            .take(256)
            .map(|(_, q)| q.clone())
            .collect();
        let arrivals = gen_arrivals(
            &mix,
            &ArrivalSpec {
                n_queries: (rate * 2.0) as usize,
                mean_interarrival: 1.0 / rate,
                seed: rate as u64,
            },
        );
        let (out, _, _) = self.run(arrivals, Runtime::Real(RealTransport::Threads), true);
        let mut lat: Vec<f64> = out.reports.iter().map(|r| r.latency() * 1e3).collect();
        stats::sort(&mut lat);
        (stats::percentile(&lat, 0.5), stats::percentile(&lat, 0.99))
    }
}

// ---------------------------------------------------------------------------
// answer_tpch
// ---------------------------------------------------------------------------

const TPCH_ORDERS: u32 = 40_000;
/// Orders of the small federation whose answers the brute-force evaluator
/// re-derives. Never raise this: `evaluate_query` enumerates the cross
/// product and was OOM-killed at 25 k rows.
const TPCH_BRUTE_FORCE_ORDERS: u32 = 400;
const TPCH_ANSWERS_PER_REPEAT: usize = 60;

const TPCH_SQL: [&str; 3] = [
    qt_workload::tpch::queries::REVENUE_PER_NATION,
    qt_workload::tpch::queries::BIG_ORDER_LINES,
    qt_workload::tpch::queries::LINES_PER_SUPPLIER_NATION,
];

pub struct AnswerTpch {
    /// Which of `TPCH_SQL` each answer of a repeat asks for: every query
    /// equally often, in seeded order.
    order: Vec<usize>,
    catalog: Catalog,
    stores: BTreeMap<NodeId, DataStore>,
    cfg: QtConfig,
    baseline: Vec<f64>,
}

fn tpch(orders: u32) -> (Catalog, BTreeMap<NodeId, DataStore>) {
    let (catalog, stores, _) = tpch_federation(&TpchSpec {
        nodes: 8,
        orders,
        seed: FEDERATION_SEED,
        ..TpchSpec::default()
    });
    (catalog, stores)
}

/// Parse `sql` and trade it through fresh sellers over `catalog`.
fn cold_trade(catalog: &Catalog, sql: &str, cfg: &QtConfig) -> (Query, Option<DistributedPlan>) {
    let q = parse_query(&catalog.dict, sql).expect("canned SQL parses");
    let mut sellers = engines(catalog, &Resources::new(), cfg);
    let plan = run_qt_direct(BUYER, catalog.dict.clone(), &q, &mut sellers, cfg).plan;
    (q, plan)
}

/// One answer: SQL text in, rows out, through cold sellers.
struct Answer {
    plan: Option<DistributedPlan>,
    messages: u64,
    bytes: f64,
    rows: Option<Table>,
    trade_ms: f64,
    total_ms: f64,
}

impl AnswerTpch {
    fn setup(seed: u64) -> Self {
        let (catalog, stores) = tpch(TPCH_ORDERS);
        let cfg = qt_config();
        let baseline = TPCH_SQL
            .iter()
            .map(|sql| {
                let q = parse_query(&catalog.dict, sql).expect("canned SQL parses");
                baseline_response_time(&catalog, &Resources::new(), &q, &cfg)
            })
            .collect();
        let mut order: Vec<usize> = (0..TPCH_ANSWERS_PER_REPEAT)
            .map(|i| i % TPCH_SQL.len())
            .collect();
        SplitMix64(sub_seed(seed, 3)).shuffle(&mut order);
        AnswerTpch {
            order,
            catalog,
            stores,
            cfg,
            baseline,
        }
    }

    fn answer(&self, sql: &str) -> Answer {
        let mut sellers = engines(&self.catalog, &Resources::new(), &self.cfg);
        let dict = self.catalog.dict.clone();
        let t0 = Instant::now();
        let q = parse_query(&dict, sql).expect("canned SQL parses");
        let t1 = Instant::now();
        let out = run_qt_direct(BUYER, dict.clone(), &q, &mut sellers, &self.cfg);
        let trade_ms = ms(t1);
        let rows = out.plan.as_ref().and_then(|p| {
            p.execute_columnar_on(&dict, &self.stores, &ColumnarConfig::default())
                .ok()
                .map(|(rows, _)| rows)
        });
        let total_ms = ms(t0);
        Answer {
            plan: out.plan,
            messages: out.messages,
            bytes: out.bytes,
            rows,
            trade_ms,
            total_ms,
        }
    }
}

impl Workload for AnswerTpch {
    fn warm_up(&self) {
        for sql in TPCH_SQL {
            self.answer(sql);
        }
    }

    fn repeat(&self) -> Sample {
        let n = TPCH_ANSWERS_PER_REPEAT;
        let mut s = Sample::default();
        let (mut trade, mut total) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let (mut messages, mut bytes) = (0u64, 0.0f64);
        // First answer and plan per distinct query.
        let mut firsts: [Option<(Table, Option<DistributedPlan>)>; 3] = [None, None, None];
        for &kind in &self.order {
            let a = self.answer(TPCH_SQL[kind]);
            trade.push(a.trade_ms);
            total.push(a.total_ms);
            messages += a.messages;
            bytes += a.bytes;
            let rows = a.rows.as_ref().map_or(u64::MAX, |r| r.len() as u64);
            s.sigs
                .push(mix(trade_sig(a.plan.as_ref(), a.messages), rows));
            match (a.rows, &firsts[kind]) {
                (None, _) => s.failed += 1,
                // Later answers to the same SQL must equal the first one;
                // `check` verifies the first against two other engines.
                (Some(rows), Some((first, _))) => s.failed += u64::from(*first != rows),
                (Some(rows), None) => firsts[kind] = Some((rows, a.plan)),
            }
        }
        let (answers, plans): (Vec<Table>, Vec<Option<DistributedPlan>>) =
            firsts.into_iter().flatten().unzip();
        s.answers = answers;
        s.attempted = n as u64;
        s.qps = n as f64 / (total.iter().sum::<f64>() / 1e3);
        stats::sort(&mut trade);
        s.trade_p50_ms = stats::percentile(&trade, 0.5);
        s.trade_p99_ms = s.trade_p50_ms;
        stats::sort(&mut total);
        s.answer_p50_ms = stats::percentile(&total, 0.5);
        s.msgs_per_query = messages as f64 / n as f64;
        s.wire_bytes_per_query = bytes / n as f64;
        s.plan_cost_ratio = cost_ratio(
            plans
                .iter()
                .map(Option::as_ref)
                .zip(self.baseline.iter().copied()),
        );
        s
    }

    fn check(&self, first: &Sample) -> (u64, u64) {
        let mut bad = 0u64;
        let cfg = &self.cfg;
        // 1. Columnar rows == the row engine's on the full-scale data.
        for (sql, got) in TPCH_SQL.iter().zip(&first.answers) {
            let (_, plan) = cold_trade(&self.catalog, sql, cfg);
            let rows = plan.and_then(|p| p.execute_on(&self.catalog.dict, &self.stores).ok());
            bad += u64::from(rows.as_ref() != Some(got));
        }
        bad += (TPCH_SQL.len() - first.answers.len().min(TPCH_SQL.len())) as u64;
        // 2. Traded-and-executed rows == brute-force query semantics, on a
        //    federation small enough for the cross-product evaluator.
        let (catalog, stores) = tpch(TPCH_BRUTE_FORCE_ORDERS);
        let mut union = DataStore::new();
        for s in stores.values() {
            union.merge_from(s);
        }
        for sql in TPCH_SQL {
            let (q, plan) = cold_trade(&catalog, sql, cfg);
            let got = plan.and_then(|p| {
                p.execute_columnar_on(&catalog.dict, &stores, &ColumnarConfig::default())
                    .ok()
            });
            let want = evaluate_query(&q, &union).ok();
            let same = match (&got, &want) {
                (Some((g, _)), Some(w)) => approx_same_rows(g, w, 1e-9),
                _ => false,
            };
            bad += u64::from(!same);
        }
        // 3. The harness pipeline trades these queries like `run_qt_direct`.
        for sql in TPCH_SQL {
            let q = parse_query(&self.catalog.dict, sql).expect("canned SQL parses");
            bad += u64::from(!pipeline_matches_direct(
                &self.catalog,
                &Resources::new(),
                &q,
            ));
        }
        (3 * TPCH_SQL.len() as u64, bad)
    }

    fn trace(&self, tr: &mut Tracer, layers: &mut Layers) -> Traced {
        let n = TPCH_ANSWERS_PER_REPEAT;
        let untraced = self.repeat();
        let dict = self.catalog.dict.clone();
        let mut exec_stats: Vec<(usize, f64, qt_exec::ColExecStats)> = Vec::new();
        let t0 = Instant::now();
        for (i, &kind) in self.order.iter().enumerate() {
            let mut sellers = tr.span("core.seller.new", i as u32, |_| {
                engines(&self.catalog, &Resources::new(), &self.cfg)
            });
            tr.span("answer", i as u32, |tr| {
                let q = tr.span("query.parse", i as u32, |_| {
                    parse_query(&dict, TPCH_SQL[kind]).expect("canned SQL parses")
                });
                let traded = trade_traced(
                    tr,
                    i as u32,
                    &self.catalog,
                    &q,
                    &mut sellers,
                    &self.cfg,
                    None,
                );
                let plan = traded.plan.expect("tpch queries are covered");
                let t = Instant::now();
                let (_, st) = tr.span("exec.columnar", i as u32, |_| {
                    plan.execute_columnar_on(&dict, &self.stores, &ColumnarConfig::default())
                        .expect("plan executes")
                });
                exec_stats.push((kind, t.elapsed().as_secs_f64(), st));
            });
        }
        let traced_wall = t0.elapsed().as_secs_f64();
        let totals = tr.layer_totals();
        let total_ms = |name: &str| totals.get(name).map_or(0.0, |l| l.total_ms());
        layers.insert("query.parse.us", total_ms("query.parse") * 1e3 / n as f64);
        layers.insert(
            "core.seller.share",
            total_ms("core.seller.respond") / total_ms("trade"),
        );
        layers.insert("exec.share", total_ms("exec.columnar") / total_ms("answer"));
        probes::executor(&exec_stats, layers);
        // The row engine (the columnar executor's oracle) on the same plans.
        let mut row_rows = 0.0;
        let mut row_secs = 0.0;
        for (kind, sql) in TPCH_SQL.iter().enumerate() {
            let plan = cold_trade(&self.catalog, sql, &self.cfg)
                .1
                .expect("tpch queries are covered");
            let t = Instant::now();
            std::hint::black_box(plan.execute_on(&dict, &self.stores).expect("plan executes"));
            row_secs += t.elapsed().as_secs_f64();
            row_rows += exec_stats
                .iter()
                .find(|(k, _, _)| *k == kind)
                .map_or(0.0, |(_, _, st)| probes::scanned_rows(st));
        }
        layers.insert("exec.row.rows_per_s", row_rows / row_secs);
        Traced {
            queries: n as u64,
            traced_wall,
            untraced_wall: n as f64 / untraced.qps,
        }
    }
}
