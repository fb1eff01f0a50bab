//! The REPL session: holds a demo federation and evaluates SQL and
//! meta-commands against it.

use crate::{Args, Demo};
use qt_catalog::{Catalog, NodeId};
use qt_core::{
    run_qt_direct, run_qt_serve_with_faults, QtConfig, SellerEngine, ServeConfig, ServeOutcome,
};
use qt_cost::NetLink;
use qt_exec::DataStore;
use qt_net::{FaultPlan, Topology};
use qt_query::{parse_query, Query};
use qt_trade::{ProtocolKind, SellerStrategy};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How to run a SQL statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunMode {
    /// Optimize + execute + print rows.
    Execute,
    /// Optimize only.
    Explain,
    /// Execute with per-operator tracing.
    Analyze,
}

/// Result of evaluating one REPL line.
#[derive(Debug, PartialEq)]
pub enum Eval {
    /// Print this and continue.
    Output(String),
    /// Exit the shell.
    Quit,
}

/// One interactive session.
pub struct Session {
    catalog: Catalog,
    stores: BTreeMap<NodeId, DataStore>,
    config: QtConfig,
    buyer: NodeId,
    demo: Demo,
    /// Message-loss rate injected into simulated runs (0 = faults off, run
    /// through the direct driver).
    fault_loss: f64,
    /// Seed for the deterministic fault plan.
    fault_seed: u64,
    /// The session-persistent semantic result cache shared by every `\serve`
    /// and `\real` burst; `\cache` prints its counters.
    result_cache: qt_core::SharedResultCache,
    /// The last successfully parsed statement, for \topo routing stats.
    last_query: Option<Query>,
}

impl Session {
    /// Build the demo federation described by `args`.
    pub fn new(args: &Args) -> Session {
        let (catalog, stores) = match args.demo {
            Demo::Telecom => qt_workload::telecom_federation(&qt_workload::TelecomSpec {
                offices: args.nodes.max(2),
                customers_per_office: 50,
                lines_per_customer: 5,
                invoice_replicas: args.replicas.max(1),
                seed: args.seed,
            }),
            Demo::Synthetic => {
                let fed = qt_workload::build_federation(&qt_workload::FederationSpec {
                    nodes: args.nodes,
                    relations: args.relations,
                    partitions_per_relation: args.partitions,
                    replication: args.replicas,
                    rows_per_partition: 200,
                    scale: 1,
                    seed: args.seed,
                    with_data: true,
                    speed_spread: 1.0,
                    data_skew: 0.0,
                });
                (fed.catalog, fed.stores)
            }
        };
        Session {
            catalog,
            stores,
            config: QtConfig::default(),
            buyer: NodeId(0),
            demo: args.demo,
            fault_loss: 0.0,
            fault_seed: 7,
            result_cache: qt_core::new_result_cache(0),
            last_query: None,
        }
    }

    /// The greeting printed at startup.
    pub fn banner(&self) -> String {
        format!(
            "qtsh — query trading shell ({:?} demo: {} nodes, {} relations)\n\
             type SQL to optimize+execute it, \\help for commands",
            self.demo,
            self.catalog.nodes.len(),
            self.catalog.dict.relations.len(),
        )
    }

    /// Evaluate one line of input.
    pub fn eval(&mut self, input: &str) -> Eval {
        if let Some(cmd) = input.strip_prefix('\\') {
            return self.meta(cmd);
        }
        Eval::Output(self.run_sql(input, RunMode::Execute))
    }

    fn meta(&mut self, cmd: &str) -> Eval {
        let (head, rest) = cmd.split_once(' ').unwrap_or((cmd, ""));
        match head {
            "q" | "quit" | "exit" => Eval::Quit,
            "help" => Eval::Output(
                "\\schema              show relations and partitioning\n\
                 \\nodes               show nodes and their holdings\n\
                 \\explain <SQL>       optimize only, show the distributed plan\n\
                 \\analyze <SQL>       execute and show per-operator row counts\n\
                 \\buyer <n>           set the buying node\n\
                 \\protocol <p>        sealed-bid | vickrey | english | bargaining\n\
                 \\markup <x>          seller markup factor (1.0 = truthful)\n\
                 \\faults <p> [seed]   simulate with message-loss rate p (0 or 'off' to disable)\n\
                 \\exec <rows> [batch] trade on a scaled synthetic federation (~rows input rows),\n\
                 \\                    execute row vs columnar, show per-operator timings\n\
                 \\serve <n> [c]       serve a burst of n demo queries at concurrency c (default 1)\n\
                 \\real <n> [c]        like \\serve, but thread-per-node on real cores (wall clock)\n\
                 \\cache [clear]       show (or reset) the semantic result cache shared by \\serve/\\real\n\
                 \\contracts <SQL>     trade with the contract lifecycle on, crash the winner\n\
                 \\                    post-award, and dump contract states + repair counters\n\
                 \\topo <levels> <n>   show a broker hierarchy <levels> tiers deep over n sellers,\n\
                 \\                    region digests, standbys, and routing for the last query;\n\
                 \\                    append 'down <broker id>...' to render standby promotion\n\
                 \\quit                leave"
                    .into(),
            ),
            "schema" => Eval::Output(self.schema()),
            "nodes" => Eval::Output(self.nodes()),
            "explain" => Eval::Output(self.run_sql(rest, RunMode::Explain)),
            "analyze" => Eval::Output(self.run_sql(rest, RunMode::Analyze)),
            "buyer" => match rest.trim().parse::<u32>() {
                Ok(n) if self.catalog.nodes.contains(&NodeId(n)) => {
                    self.buyer = NodeId(n);
                    Eval::Output(format!("buyer is now node{n}"))
                }
                _ => Eval::Output(format!("no such node '{rest}'")),
            },
            "protocol" => {
                let p = match rest.trim() {
                    "sealed-bid" => Some(ProtocolKind::SealedBid),
                    "vickrey" => Some(ProtocolKind::Vickrey),
                    "english" => Some(ProtocolKind::English { decrement: 0.05 }),
                    "bargaining" => Some(ProtocolKind::Bargaining { max_rounds: 4 }),
                    _ => None,
                };
                match p {
                    Some(p) => {
                        self.config.protocol = p;
                        Eval::Output(format!("protocol set to {}", p.label()))
                    }
                    None => Eval::Output(format!("unknown protocol '{rest}'")),
                }
            }
            "markup" => match rest.trim().parse::<f64>() {
                Ok(x) if x >= 1.0 => {
                    self.config.seller_strategy = if x == 1.0 {
                        SellerStrategy::Truthful
                    } else {
                        SellerStrategy::fixed_markup(x)
                    };
                    Eval::Output(format!("sellers now ask {x}x their true cost"))
                }
                _ => Eval::Output(format!("invalid markup '{rest}' (need a number >= 1)")),
            },
            "faults" => {
                let mut parts = rest.split_whitespace();
                let loss = match parts.next() {
                    Some("off") => Some(0.0),
                    Some(tok) => tok.parse::<f64>().ok().filter(|p| (0.0..1.0).contains(p)),
                    None => None,
                };
                let seed = match parts.next() {
                    Some(tok) => tok.parse::<u64>().ok(),
                    None => Some(self.fault_seed),
                };
                match (loss, seed) {
                    (Some(p), Some(seed)) => {
                        self.fault_loss = p;
                        self.fault_seed = seed;
                        if p == 0.0 {
                            Eval::Output("faults off — queries run on the direct driver".into())
                        } else {
                            Eval::Output(format!(
                                "faults on — simulating with {:.0}% message loss (seed {seed})",
                                p * 100.0
                            ))
                        }
                    }
                    _ => Eval::Output(format!(
                        "invalid '\\faults {rest}' (need a loss rate in [0, 1) and an optional integer seed)"
                    )),
                }
            }
            "cache" => match rest.trim() {
                "" => Eval::Output(self.cache_report()),
                "clear" => {
                    let dropped = self
                        .result_cache
                        .lock()
                        .expect("result cache lock")
                        .clear();
                    Eval::Output(format!("result cache cleared ({dropped} entries dropped)"))
                }
                _ => Eval::Output(format!("invalid '\\cache {rest}' (try \\cache or \\cache clear)")),
            },
            "contracts" => {
                if rest.trim().is_empty() {
                    Eval::Output("usage: \\contracts <SQL>".into())
                } else {
                    Eval::Output(self.contracts_demo(rest))
                }
            }
            "exec" => {
                let mut parts = rest.split_whitespace();
                let n = parts.next().and_then(|tok| tok.parse::<u64>().ok());
                let batch = match parts.next() {
                    Some(tok) => tok.parse::<usize>().ok().filter(|b| *b >= 1),
                    None => Some(qt_exec::DEFAULT_BATCH_ROWS),
                };
                match (n, batch) {
                    (Some(n), Some(batch)) if n >= 1 => Eval::Output(self.exec_bench(n, batch)),
                    _ => Eval::Output(format!(
                        "invalid '\\exec {rest}' (need \\exec <n_rows> [batch_rows >= 1])"
                    )),
                }
            }
            "serve" => {
                let mut parts = rest.split_whitespace();
                let n = parts.next().and_then(|tok| tok.parse::<usize>().ok());
                let conc = match parts.next() {
                    Some(tok) => tok.parse::<usize>().ok().filter(|c| *c >= 1),
                    None => Some(1),
                };
                match (n, conc) {
                    (Some(n), Some(conc)) if n >= 1 => Eval::Output(self.serve(n, conc)),
                    _ => Eval::Output(format!(
                        "invalid '\\serve {rest}' (need \\serve <n_queries> [concurrency >= 1])"
                    )),
                }
            }
            "real" => {
                let mut parts = rest.split_whitespace();
                let n = parts.next().and_then(|tok| tok.parse::<usize>().ok());
                let conc = match parts.next() {
                    Some(tok) => tok.parse::<usize>().ok().filter(|c| *c >= 1),
                    None => Some(1),
                };
                match (n, conc) {
                    (Some(n), Some(conc)) if n >= 1 => Eval::Output(self.real_serve(n, conc)),
                    _ => Eval::Output(format!(
                        "invalid '\\real {rest}' (need \\real <n_queries> [concurrency >= 1])"
                    )),
                }
            }
            "topo" => {
                let mut parts = rest.split_whitespace();
                let levels = parts.next().and_then(|tok| tok.parse::<u32>().ok());
                let sellers = parts.next().and_then(|tok| tok.parse::<u32>().ok());
                // Optional fault plane: `down <broker id>...` marks brokers
                // crashed so the rendering shows standby promotion.
                let down: Option<Vec<NodeId>> = match parts.next() {
                    None => Some(Vec::new()),
                    Some("down") => {
                        let toks: Vec<&str> = parts.collect();
                        let ids: Vec<NodeId> = toks
                            .iter()
                            .filter_map(|tok| tok.parse::<u32>().ok().map(NodeId))
                            .collect();
                        (!toks.is_empty() && ids.len() == toks.len()).then_some(ids)
                    }
                    Some(_) => None,
                };
                match (levels, sellers, down) {
                    (Some(l), Some(n), Some(down))
                        if (1..=6).contains(&l) && (2..=4096).contains(&n) =>
                    {
                        Eval::Output(self.topo(l, n, &down))
                    }
                    _ => Eval::Output(format!(
                        "invalid '\\topo {rest}' (need \\topo <levels 1..=6> <sellers 2..=4096> \
                         [down <broker id>...])"
                    )),
                }
            }
            other => Eval::Output(format!("unknown command '\\{other}' (try \\help)")),
        }
    }

    /// The columnar-execution demo: build a scaled synthetic federation of
    /// roughly `n_rows` streamed input rows (independent of the session's
    /// demo data), trade a chain join on it, then execute the purchased plan
    /// through both executors and print per-operator columnar timings. The
    /// executors must agree bit-for-bit; the comparison is printed, not
    /// assumed.
    fn exec_bench(&self, n_rows: u64, batch: usize) -> String {
        use std::time::Instant;
        // Relation 0 holds parts * rows_per_partition * scale rows; the
        // second relation is smaller by the generator's 1/(1+0.5i) taper.
        let scale = (n_rows / 500).max(1);
        let fed = qt_workload::build_federation(&qt_workload::FederationSpec {
            nodes: 4,
            relations: 2,
            partitions_per_relation: 2,
            replication: 1,
            rows_per_partition: 250,
            scale,
            seed: 22,
            with_data: true,
            speed_spread: 1.0,
            data_skew: 0.0,
        });
        let input_rows: u64 = fed
            .catalog
            .dict
            .rel_ids()
            .flat_map(|r| fed.catalog.dict.parts_of(r))
            .map(|p| fed.catalog.stats(p).rows)
            .sum();
        let query = qt_workload::gen_join_query(
            &fed.catalog.dict,
            qt_workload::QueryShape::Chain,
            2,
            true,
            22,
        );
        let mut sellers: BTreeMap<NodeId, SellerEngine> = fed
            .catalog
            .nodes
            .iter()
            .map(|&n| {
                (
                    n,
                    SellerEngine::new(fed.catalog.holdings_of(n), self.config.clone()),
                )
            })
            .collect();
        let out = run_qt_direct(
            NodeId(0),
            fed.catalog.dict.clone(),
            &query,
            &mut sellers,
            &self.config,
        );
        let Some(plan) = out.plan else {
            return "no plan: the scaled federation does not cover the demo query".into();
        };

        let mut s = String::new();
        let _ = writeln!(
            s,
            "federation: 2 relations x 2 partitions at scale {scale} -> {input_rows} input rows"
        );
        let _ = writeln!(
            s,
            "trading: {} iteration(s), {} purchase(s)",
            out.iterations,
            plan.purchases.len()
        );

        let t0 = Instant::now();
        let row_rows = match plan.execute_on(&fed.catalog.dict, &fed.stores) {
            Ok(r) => r,
            Err(e) => return format!("{s}row execution failed: {e}"),
        };
        let row_secs = t0.elapsed().as_secs_f64().max(1e-9);

        let cfg = qt_exec::ColumnarConfig {
            batch_rows: batch,
            ..qt_exec::ColumnarConfig::default()
        };
        let t0 = Instant::now();
        let (col_rows, stats) = match plan.execute_columnar_on(&fed.catalog.dict, &fed.stores, &cfg)
        {
            Ok(r) => r,
            Err(e) => return format!("{s}columnar execution failed: {e}"),
        };
        let col_secs = t0.elapsed().as_secs_f64().max(1e-9);

        let _ = writeln!(
            s,
            "row executor:      {row_secs:.4}s  ({:.0} rows/s)",
            input_rows as f64 / row_secs
        );
        let _ = writeln!(
            s,
            "columnar executor: {col_secs:.4}s  ({:.0} rows/s, batch {batch})  speedup {:.2}x",
            input_rows as f64 / col_secs,
            row_secs / col_secs
        );
        let _ = writeln!(
            s,
            "results identical: {} ({} row(s))",
            if col_rows == row_rows { "yes" } else { "NO" },
            col_rows.len()
        );

        // Aggregate per-operator timings across all plan fragments.
        let mut by_op: BTreeMap<&'static str, (u64, u64, u64, f64)> = BTreeMap::new();
        for t in &stats.timings {
            let e = by_op.entry(t.op).or_default();
            e.0 += 1;
            e.1 += t.rows_in;
            e.2 += t.rows_out;
            e.3 += t.secs;
        }
        let _ = writeln!(s, "operator timings (columnar):");
        let _ = writeln!(
            s,
            "  {:<16} {:>6} {:>12} {:>12} {:>10}",
            "op", "calls", "rows_in", "rows_out", "secs"
        );
        let mut ops: Vec<_> = by_op.into_iter().collect();
        ops.sort_by(|a, b| b.1 .3.total_cmp(&a.1 .3));
        for (op, (calls, rows_in, rows_out, secs)) in ops {
            let _ = writeln!(
                s,
                "  {op:<16} {calls:>6} {rows_in:>12} {rows_out:>12} {secs:>10.4}"
            );
        }
        let _ = writeln!(
            s,
            "spill: {} file(s), {} row(s), {} byte(s)",
            stats.spill_files, stats.spill_rows, stats.spill_bytes
        );
        s.trim_end().to_string()
    }

    /// The contract-lifecycle demo: trade `sql` with two-phase awards and
    /// execution leases on, then crash the winning seller right after the
    /// award and show the lease machinery detect the loss and repair the
    /// plan from the bid book (or a scoped re-trade).
    fn contracts_demo(&self, sql: &str) -> String {
        let query = match parse_query(&self.catalog.dict, sql) {
            Ok(q) => q,
            Err(e) => return format!("parse error: {e}"),
        };
        let cfg = QtConfig {
            enable_contracts: true,
            ..self.config.clone()
        };
        let sellers = |cfg: &QtConfig| -> BTreeMap<NodeId, SellerEngine> {
            self.catalog
                .nodes
                .iter()
                .map(|&n| {
                    (
                        n,
                        SellerEngine::new(self.catalog.holdings_of(n), cfg.clone()),
                    )
                })
                .collect()
        };
        // One arrival at t = 0: the session's finish time is the trade's
        // optimization time.
        let run = |faults: Option<FaultPlan>| {
            run_qt_serve_with_faults(
                self.buyer,
                self.catalog.dict.clone(),
                vec![(0.0, query.clone())],
                sellers(&cfg),
                &cfg,
                &ServeConfig::default(),
                Topology::Uniform(NetLink::wan()),
                faults,
            )
        };
        let dump = |s: &mut String, out: &ServeOutcome| {
            for c in &out.reports[0].contracts {
                // Contract ids carry the session in their high word; the
                // demo's one session numbers its contracts from zero.
                let _ = writeln!(
                    s,
                    "  c{:<4} slot {:<2} -> {} offer {:<4} [{}]{}",
                    c.id & u64::from(u32::MAX),
                    c.slot,
                    c.seller,
                    c.offer,
                    c.state,
                    if c.replacement { " (replacement)" } else { "" }
                );
            }
            let c = &out.contracts;
            let _ = writeln!(
                s,
                "  awarded {} | repaired {} | reawards {} | rescoped trades {}",
                c.contracts_awarded, c.contracts_repaired, c.reawards, c.rescoped_trades
            );
        };
        let clean = run(None);
        let mut s = String::new();
        let Some(plan) = &clean.reports[0].plan else {
            return "no plan: the federation does not cover this query".into();
        };
        let _ = writeln!(s, "fault-free contracts:");
        dump(&mut s, &clean);
        let Some(winner) = plan
            .purchases
            .iter()
            .map(|p| p.offer.seller)
            .find(|&n| n != self.buyer)
        else {
            let _ = write!(s, "plan is buyer-local: no remote winner to crash");
            return s.trim_end().to_string();
        };
        let t_fin = clean.reports[0].finished;
        let _ = writeln!(
            s,
            "crashing winner {winner} at t={t_fin:.3}s (post-award) ..."
        );
        let crash = FaultPlan::default().with_crash(winner, t_fin + 1e-6, 1e12);
        let repaired = run(Some(crash));
        let _ = writeln!(
            s,
            "detected: {} lost award(s), {} lease expiry(ies)",
            repaired.contracts.lost_awards, repaired.contracts.lease_expiries
        );
        dump(&mut s, &repaired);
        match &repaired.reports[0].plan {
            Some(p) => {
                let survivors: Vec<String> = p
                    .purchases
                    .iter()
                    .map(|pu| pu.offer.seller.to_string())
                    .collect();
                let _ = write!(
                    s,
                    "repaired plan executes on: {} (cost {:.3})",
                    survivors.join(", "),
                    p.est.additive_cost
                );
            }
            None => {
                let _ = write!(s, "repair failed: no runner-up coverage for the lost slots");
            }
        }
        s.trim_end().to_string()
    }

    /// A burst of `n` demo-mix queries served at concurrency `conc` by
    /// `run` (a `run_qt_serve*` runner) from the shell's federation, with
    /// RFB batching and the shell's shared result cache. `\serve` and
    /// `\real` differ only in the runner and in how they report.
    fn serve_burst(
        &self,
        n: usize,
        conc: usize,
        run: impl FnOnce(
            NodeId,
            std::sync::Arc<qt_catalog::SchemaDict>,
            Vec<(f64, Query)>,
            BTreeMap<NodeId, SellerEngine>,
            &QtConfig,
            &qt_core::ServeConfig,
        ) -> qt_core::ServeOutcome,
    ) -> qt_core::ServeOutcome {
        let mix = match self.demo {
            Demo::Telecom => qt_workload::telecom_mix(&self.catalog.dict),
            Demo::Synthetic => qt_workload::synthetic_mix(&self.catalog.dict, 4, 1),
        };
        let arrivals = qt_workload::gen_arrivals(
            &mix,
            &qt_workload::ArrivalSpec {
                n_queries: n,
                mean_interarrival: 0.0,
                seed: 1,
            },
        );
        let sellers: BTreeMap<NodeId, SellerEngine> = self
            .catalog
            .nodes
            .iter()
            .map(|&node| {
                (
                    node,
                    SellerEngine::new(self.catalog.holdings_of(node), self.config.clone()),
                )
            })
            .collect();
        let cfg = QtConfig {
            // Admission-queued sessions must not trip response deadlines.
            seller_timeout: self.config.seller_timeout.max(300.0),
            ..self.config.clone()
        };
        run(
            self.buyer,
            self.catalog.dict.clone(),
            arrivals,
            sellers,
            &cfg,
            &qt_core::ServeConfig {
                concurrency: conc,
                batch_rfbs: true,
                result_cache: Some(std::sync::Arc::clone(&self.result_cache)),
                ..qt_core::ServeConfig::default()
            },
        )
    }

    /// Throughput meta-benchmark: a burst of `n` demo-mix queries served
    /// concurrently through the session-multiplexed simulator driver.
    fn serve(&self, n: usize, conc: usize) -> String {
        let out = self.serve_burst(n, conc, qt_core::run_qt_serve);
        let planned = out.reports.iter().filter(|r| r.plan.is_some()).count();
        let mut s = String::new();
        let _ = writeln!(
            s,
            "served {n} queries at concurrency {conc} ({planned} planned), RFB batching on"
        );
        let _ = writeln!(
            s,
            "result cache: {} hits, {} misses this burst (\\cache for totals)",
            out.result_cache_hits, out.result_cache_misses
        );
        if self.fault_loss > 0.0 {
            let _ = writeln!(s, "note: \\faults applies to SQL runs, not \\serve");
        }
        let _ = writeln!(
            s,
            "throughput: {:.2} queries/s over {:.3}s simulated",
            out.qps, out.makespan
        );
        let _ = writeln!(
            s,
            "latency: p50 {:.3}s, p95 {:.3}s",
            out.p50_latency, out.p95_latency
        );
        let _ = write!(
            s,
            "messages: {} total, {:.1} per query",
            out.messages, out.messages_per_query
        );
        s
    }

    /// [`Self::serve`] on the real thread-per-node transport: every node is
    /// an OS thread, messages cross bounded channels through the wire codec,
    /// and the reported figures are wall clock. The plans are bit-identical
    /// to the simulated run — the conformance suite in `qt-core` proves it —
    /// so this command is about *feeling* the parallel runtime, not about
    /// different answers.
    fn real_serve(&self, n: usize, conc: usize) -> String {
        let real = qt_net::RealConfig::default();
        let out = self.serve_burst(n, conc, |buyer, dict, arrivals, sellers, cfg, serve| {
            qt_core::run_qt_serve_real(buyer, dict, arrivals, sellers, cfg, serve, real)
        });
        let planned = out.reports.iter().filter(|r| r.plan.is_some()).count();
        let mut s = String::new();
        let _ = writeln!(
            s,
            "served {n} queries at concurrency {conc} ({planned} planned) on {} node threads",
            self.catalog.nodes.len()
        );
        let _ = writeln!(
            s,
            "result cache: {} hits, {} misses this burst (\\cache for totals)",
            out.result_cache_hits, out.result_cache_misses
        );
        if self.fault_loss > 0.0 {
            let _ = writeln!(s, "note: \\faults applies to SQL runs, not \\real");
        }
        let _ = writeln!(
            s,
            "throughput: {:.2} queries/s over {:.4}s wall clock",
            out.qps, out.makespan
        );
        let _ = writeln!(
            s,
            "latency: p50 {:.4}s, p95 {:.4}s (wall clock)",
            out.p50_latency, out.p95_latency
        );
        let _ = write!(
            s,
            "messages: {} total, {:.1} per query, {} codec bytes on the wire",
            out.messages, out.messages_per_query, out.metrics.wire_bytes
        );
        s
    }

    /// The `\cache` report: lifetime counters of the session's shared
    /// semantic result cache. Exact hits reuse a cached plan verbatim;
    /// semantic hits answered a *different* query by compensating a
    /// subsuming entry (§3.5); invalidations are entries dropped when an
    /// adaptive seller's award moved its asks.
    fn cache_report(&self) -> String {
        let c = self.result_cache.lock().expect("result cache lock");
        let st = *c.stats();
        let mut s = String::new();
        let _ = writeln!(
            s,
            "semantic result cache: {} entries (shared by \\serve and \\real)",
            c.len()
        );
        let _ = writeln!(
            s,
            "hits: {} exact + {} semantic (subsumption), {} misses — hit rate {:.1}%",
            st.hits_exact,
            st.hits_semantic,
            st.misses,
            st.hit_rate() * 100.0
        );
        let _ = write!(
            s,
            "admission: {} inserted, {} rejected, {} evicted, {} invalidated",
            st.insertions, st.rejected, st.evictions, st.invalidated
        );
        s
    }

    fn schema(&self) -> String {
        let mut out = String::new();
        for rel in self.catalog.dict.rel_ids() {
            let meta = self.catalog.dict.rel(rel);
            let cols: Vec<String> = meta
                .schema
                .attrs
                .iter()
                .map(|a| format!("{} {}", a.name, a.ty))
                .collect();
            let stats = self.catalog.relation_stats(rel);
            let _ = writeln!(
                out,
                "{}({}) — {} partitions, {} rows",
                meta.schema.name,
                cols.join(", "),
                meta.partitioning.num_partitions(),
                stats.rows,
            );
        }
        out.trim_end().to_string()
    }

    fn nodes(&self) -> String {
        let mut out = String::new();
        for &node in &self.catalog.nodes {
            let holdings = self.catalog.holdings_of(node);
            let parts: Vec<String> = holdings.held.keys().map(|p| p.to_string()).collect();
            let marker = if node == self.buyer { " (buyer)" } else { "" };
            let _ = writeln!(
                out,
                "{node}{marker}: {}",
                if parts.is_empty() {
                    "no data".into()
                } else {
                    parts.join(", ")
                }
            );
        }
        out.trim_end().to_string()
    }

    /// Render a `levels`-tier broker hierarchy over `n` sellers: the tree
    /// shape, per-region advertisement digests (sellers beyond the demo
    /// catalog hold nothing and advertise an empty digest), each region's
    /// standby replica, and — when a statement has run — which regions the
    /// last query would route to. Brokers listed in `down` are rendered
    /// crashed: their standby shows as promoted, or the region as detoured
    /// to its sellers when the standby is down too.
    fn topo(&self, levels: u32, n: u32, down: &[NodeId]) -> String {
        use qt_core::{query_digest, seller_digest, BrokerTree};
        let sellers: Vec<NodeId> = (1..=n).map(NodeId).collect();
        // The smallest fanout >= 2 that keeps the tree within `levels`
        // broker tiers (depth = tiers + the final broker->seller hop).
        let mut fanout = (n as f64).powf(1.0 / (levels as f64 + 1.0)).ceil() as usize;
        fanout = fanout.max(2);
        let mut tree = BrokerTree::build(&sellers, fanout, n + 1);
        while tree.depth > levels + 1 {
            fanout += 1;
            tree = BrokerTree::build(&sellers, fanout, n + 1);
        }
        let first_standby = tree.brokers.iter().map(|b| b.node.0).max().unwrap_or(n) + 1;
        tree.assign_standbys(first_standby);
        // Failover status suffix for a broker's line.
        let status = |b: NodeId| -> String {
            let sb = tree.standby_of(b);
            if down.contains(&b) {
                match sb {
                    Some(s) if !down.contains(&s) => format!(" — DOWN, standby {s} promoted"),
                    Some(s) => format!(" — DOWN, standby {s} down: seller fallback"),
                    None => " — DOWN: seller fallback".to_string(),
                }
            } else {
                sb.map(|s| format!(", standby {s}")).unwrap_or_default()
            }
        };
        let digests: BTreeMap<NodeId, u64> = sellers
            .iter()
            .map(|&s| {
                let e = SellerEngine::new(self.catalog.holdings_of(s), self.config.clone());
                (s, seller_digest(&e))
            })
            .collect();
        let region_digest = |b: NodeId| -> u64 {
            tree.seller_descendants(b)
                .iter()
                .fold(0u64, |d, s| d | digests.get(s).copied().unwrap_or(0))
        };
        let mut out = String::new();
        let brokers_per_level: BTreeMap<u32, usize> =
            tree.brokers.iter().fold(BTreeMap::new(), |mut m, b| {
                *m.entry(b.level).or_insert(0) += 1;
                m
            });
        let _ = writeln!(
            out,
            "{n} sellers, fanout {fanout}: {} broker tier(s), {} broker(s), depth {} hop(s)",
            brokers_per_level.len(),
            tree.brokers.len(),
            tree.depth
        );
        for (level, count) in brokers_per_level.iter().rev() {
            let _ = writeln!(out, "  tier {level}: {count} broker(s)");
        }
        let _ = writeln!(out, "regions under the buyer:");
        for &top in &tree.root_children {
            let descendants = tree.seller_descendants(top);
            let d = region_digest(top);
            let _ = writeln!(
                out,
                "  {top}: {} seller(s) [{}..{}], digest {d:#018x}{}",
                descendants.len(),
                descendants
                    .first()
                    .map(|s| s.to_string())
                    .unwrap_or_default(),
                descendants
                    .last()
                    .map(|s| s.to_string())
                    .unwrap_or_default(),
                status(top),
            );
        }
        if !down.is_empty() {
            let _ = writeln!(out, "failover:");
            for &b in down {
                if tree.brokers.iter().any(|s| s.node == b) {
                    let _ = writeln!(out, "  {b}{}", status(b));
                } else if let Some(p) = tree.brokers.iter().find(|s| s.standby == Some(b)) {
                    let _ = writeln!(out, "  {b} — DOWN (standby of {})", p.node);
                } else {
                    let _ = writeln!(out, "  {b}: not a broker in this tree");
                }
            }
        }
        match &self.last_query {
            Some(q) => {
                let want = query_digest(q);
                let hit: Vec<NodeId> = tree
                    .root_children
                    .iter()
                    .copied()
                    .filter(|&b| region_digest(b) & want != 0)
                    .collect();
                let covered: usize = hit.iter().map(|&b| tree.seller_descendants(b).len()).sum();
                let _ = writeln!(
                    out,
                    "last query: digest {want:#018x} routes to {} of {} region(s) \
                     ({covered} of {n} sellers; flat broadcast would message all {n})",
                    hit.len(),
                    tree.root_children.len(),
                );
            }
            None => {
                let _ = writeln!(out, "last query: none yet — run a statement to see routing");
            }
        }
        out.trim_end().to_string()
    }

    fn run_sql(&mut self, sql: &str, mode: RunMode) -> String {
        let query = match parse_query(&self.catalog.dict, sql) {
            Ok(q) => q,
            Err(e) => return format!("parse error: {e}"),
        };
        self.last_query = Some(query.clone());
        let mut sellers: BTreeMap<NodeId, SellerEngine> = self
            .catalog
            .nodes
            .iter()
            .map(|&n| {
                (
                    n,
                    SellerEngine::new(self.catalog.holdings_of(n), self.config.clone()),
                )
            })
            .collect();
        let mut s = String::new();
        let trading = |s: &mut String, iterations: u32, messages: u64, time: f64| {
            let _ = writeln!(
                s,
                "trading: {iterations} iteration(s), {messages} messages, {time:.3}s simulated"
            );
        };
        let plan = if self.fault_loss > 0.0 {
            // One arrival at t = 0 on the lossy simulator: the session's
            // finish time is the optimization time.
            let mut out = run_qt_serve_with_faults(
                self.buyer,
                self.catalog.dict.clone(),
                vec![(0.0, query.clone())],
                sellers,
                &self.config,
                &ServeConfig::default(),
                Topology::Uniform(NetLink::wan()),
                Some(FaultPlan::lossy(self.fault_seed, self.fault_loss)),
            );
            let report = out.reports.pop().expect("one arrival, one report");
            trading(&mut s, report.iterations, out.messages, report.finished);
            let unreachable = if out.unreachable_sellers.is_empty() {
                "none".to_string()
            } else {
                out.unreachable_sellers
                    .iter()
                    .map(|n| n.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let _ = writeln!(
                s,
                "faults:  {} dropped, {} retries, {} timeouts, {} degraded round(s), unreachable: {unreachable}",
                out.metrics.dropped, out.retries, out.timeouts, out.degraded_rounds
            );
            report.plan
        } else {
            let out = run_qt_direct(
                self.buyer,
                self.catalog.dict.clone(),
                &query,
                &mut sellers,
                &self.config,
            );
            trading(&mut s, out.iterations, out.messages, out.optimization_time);
            out.plan
        };
        let Some(plan) = plan else {
            let _ = write!(s, "no plan: the federation does not cover this query");
            return s.trim_end().to_string();
        };
        let _ = write!(s, "{}", plan.describe(&self.catalog.dict));
        if mode == RunMode::Explain {
            return s.trim_end().to_string();
        }
        if mode == RunMode::Analyze {
            match plan.execute_traced_on(&self.catalog.dict, &self.stores) {
                Ok((rows, traces)) => {
                    let _ = writeln!(s, "\nassembly row counts:");
                    for line in qt_exec::trace::render(&traces).lines() {
                        let _ = writeln!(s, "  {line}");
                    }
                    let _ = writeln!(s, "{} row(s) total", rows.len());
                }
                Err(e) => {
                    let _ = writeln!(s, "execution failed: {e}");
                }
            }
            return s.trim_end().to_string();
        }
        match plan.execute_on(&self.catalog.dict, &self.stores) {
            Ok(mut rows) => {
                if query.order_by.is_empty() {
                    rows.sort();
                }
                let _ = writeln!(s, "\n{} row(s):", rows.len());
                for row in rows.iter().take(20) {
                    let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                    let _ = writeln!(s, "  {}", cells.join(" | "));
                }
                if rows.len() > 20 {
                    let _ = writeln!(s, "  ... {} more", rows.len() - 20);
                }
            }
            Err(e) => {
                let _ = writeln!(s, "execution failed: {e}");
            }
        }
        s.trim_end().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        Session::new(&Args::default())
    }

    #[test]
    fn banner_mentions_demo() {
        let s = session();
        assert!(s.banner().contains("Telecom"));
    }

    #[test]
    fn help_and_quit() {
        let mut s = session();
        assert!(matches!(s.eval("\\help"), Eval::Output(o) if o.contains("\\schema")));
        assert_eq!(s.eval("\\q"), Eval::Quit);
        assert_eq!(s.eval("\\quit"), Eval::Quit);
    }

    #[test]
    fn schema_lists_relations() {
        let mut s = session();
        let Eval::Output(o) = s.eval("\\schema") else {
            panic!()
        };
        assert!(o.contains("customer"), "{o}");
        assert!(o.contains("invoiceline"), "{o}");
    }

    #[test]
    fn nodes_marks_buyer() {
        let mut s = session();
        let Eval::Output(o) = s.eval("\\nodes") else {
            panic!()
        };
        assert!(o.contains("node0 (buyer)"), "{o}");
    }

    #[test]
    fn sql_round_trip_executes() {
        let mut s = session();
        let Eval::Output(o) = s.eval(
            "SELECT office, SUM(charge) FROM customer, invoiceline \
             WHERE customer.custid = invoiceline.custid GROUP BY office",
        ) else {
            panic!()
        };
        assert!(o.contains("row(s):"), "{o}");
        assert!(o.contains("trading:"), "{o}");
    }

    #[test]
    fn explain_does_not_execute() {
        let mut s = session();
        let Eval::Output(o) = s.eval("\\explain SELECT custname FROM customer") else {
            panic!()
        };
        assert!(o.contains("DistributedPlan"), "{o}");
        assert!(!o.contains("row(s):"), "{o}");
    }

    #[test]
    fn analyze_shows_operator_rows() {
        let mut s = session();
        let Eval::Output(o) = s.eval("\\analyze SELECT custname FROM customer") else {
            panic!()
        };
        assert!(o.contains("assembly row counts:"), "{o}");
        assert!(o.contains("rows"), "{o}");
        assert!(o.contains("row(s) total"), "{o}");
    }

    #[test]
    fn parse_errors_are_reported() {
        let mut s = session();
        let Eval::Output(o) = s.eval("SELECT nothing FROM nowhere") else {
            panic!()
        };
        assert!(o.contains("parse error"), "{o}");
    }

    #[test]
    fn settings_commands() {
        let mut s = session();
        assert!(matches!(s.eval("\\protocol vickrey"), Eval::Output(o) if o.contains("vickrey")));
        assert!(matches!(s.eval("\\protocol nope"), Eval::Output(o) if o.contains("unknown")));
        assert!(matches!(s.eval("\\markup 1.5"), Eval::Output(o) if o.contains("1.5x")));
        assert!(matches!(s.eval("\\markup 0.5"), Eval::Output(o) if o.contains("invalid")));
        assert!(matches!(s.eval("\\buyer 1"), Eval::Output(o) if o.contains("node1")));
        assert!(matches!(s.eval("\\buyer 99"), Eval::Output(o) if o.contains("no such")));
        assert!(matches!(s.eval("\\wat"), Eval::Output(o) if o.contains("unknown command")));
    }

    #[test]
    fn faults_command_toggles_and_validates() {
        let mut s = session();
        assert!(
            matches!(s.eval("\\faults 0.15"), Eval::Output(o) if o.contains("15% message loss"))
        );
        assert!(matches!(s.eval("\\faults 0.2 42"), Eval::Output(o) if o.contains("seed 42")));
        assert!(matches!(s.eval("\\faults off"), Eval::Output(o) if o.contains("faults off")));
        assert!(matches!(s.eval("\\faults 0"), Eval::Output(o) if o.contains("faults off")));
        assert!(matches!(s.eval("\\faults 1.5"), Eval::Output(o) if o.contains("invalid")));
        assert!(matches!(s.eval("\\faults nope"), Eval::Output(o) if o.contains("invalid")));
        assert!(matches!(s.eval("\\faults"), Eval::Output(o) if o.contains("invalid")));
    }

    #[test]
    fn sql_under_faults_reports_counters_and_still_plans() {
        let mut s = session();
        s.eval("\\faults 0.15");
        let Eval::Output(o) = s.eval(
            "SELECT office, SUM(charge) FROM customer, invoiceline \
             WHERE customer.custid = invoiceline.custid GROUP BY office",
        ) else {
            panic!()
        };
        assert!(o.contains("faults:"), "{o}");
        assert!(o.contains("dropped"), "{o}");
        assert!(o.contains("retries"), "{o}");
        assert!(o.contains("row(s):"), "{o}");
        // Turning faults back off restores the direct driver (no fault line).
        s.eval("\\faults off");
        let Eval::Output(o) = s.eval("SELECT custname FROM customer") else {
            panic!()
        };
        assert!(!o.contains("faults:"), "{o}");
    }

    #[test]
    fn serve_reports_throughput() {
        let mut s = session();
        let Eval::Output(o) = s.eval("\\serve 6 3") else {
            panic!()
        };
        assert!(o.contains("served 6 queries at concurrency 3"), "{o}");
        assert!(o.contains("(6 planned)"), "{o}");
        assert!(o.contains("queries/s"), "{o}");
        assert!(o.contains("p95"), "{o}");
        assert!(o.contains("per query"), "{o}");
        // Default concurrency is 1; bad arguments are rejected.
        assert!(matches!(s.eval("\\serve 2"), Eval::Output(o) if o.contains("concurrency 1")));
        assert!(matches!(s.eval("\\serve"), Eval::Output(o) if o.contains("invalid")));
        assert!(matches!(s.eval("\\serve 4 0"), Eval::Output(o) if o.contains("invalid")));
    }

    #[test]
    fn cache_command_tracks_serve_bursts_across_commands() {
        let mut s = session();
        // A fresh session's cache is empty.
        let Eval::Output(o) = s.eval("\\cache") else {
            panic!()
        };
        assert!(o.contains("0 entries"), "{o}");
        // The first burst misses on each distinct query and fills the cache
        // (repeats within the burst may already hit); a repeat of the same
        // stream is served entirely from it — the cache persists across
        // \serve invocations, which is the whole point of the command.
        let Eval::Output(first) = s.eval("\\serve 6 3") else {
            panic!()
        };
        assert!(first.contains("misses this burst"), "{first}");
        assert!(!first.contains("0 misses"), "{first}");
        let Eval::Output(second) = s.eval("\\serve 6 3") else {
            panic!()
        };
        assert!(
            second.contains("result cache: 6 hits, 0 misses"),
            "{second}"
        );
        let Eval::Output(o) = s.eval("\\cache") else {
            panic!()
        };
        assert!(!o.contains("0 entries"), "{o}");
        assert!(o.contains("hit rate"), "{o}");
        // Clearing drops the entries but keeps the lifetime counters.
        assert!(matches!(s.eval("\\cache clear"), Eval::Output(o) if o.contains("cleared")));
        let Eval::Output(o) = s.eval("\\cache") else {
            panic!()
        };
        assert!(o.contains("0 entries"), "{o}");
        assert!(matches!(s.eval("\\cache nope"), Eval::Output(o) if o.contains("invalid")));
    }

    #[test]
    fn real_command_serves_on_threads_with_wall_clock_figures() {
        let mut s = session();
        let Eval::Output(o) = s.eval("\\real 4 2") else {
            panic!()
        };
        assert!(o.contains("served 4 queries at concurrency 2"), "{o}");
        assert!(o.contains("(4 planned)"), "{o}");
        assert!(o.contains("node threads"), "{o}");
        assert!(o.contains("wall clock"), "{o}");
        assert!(o.contains("codec bytes on the wire"), "{o}");
        assert!(matches!(s.eval("\\real 2"), Eval::Output(o) if o.contains("concurrency 1")));
        assert!(matches!(s.eval("\\real"), Eval::Output(o) if o.contains("invalid")));
        assert!(matches!(s.eval("\\real 4 0"), Eval::Output(o) if o.contains("invalid")));
    }

    #[test]
    fn exec_command_compares_executors_and_prints_timings() {
        let mut s = session();
        let Eval::Output(o) = s.eval("\\exec 2000 64") else {
            panic!()
        };
        assert!(o.contains("input rows"), "{o}");
        assert!(o.contains("row executor:"), "{o}");
        assert!(o.contains("columnar executor:"), "{o}");
        assert!(o.contains("batch 64"), "{o}");
        assert!(o.contains("results identical: yes"), "{o}");
        assert!(o.contains("operator timings (columnar):"), "{o}");
        assert!(o.contains("spill:"), "{o}");
        // The default batch is DEFAULT_BATCH_ROWS; bad args are rejected.
        assert!(matches!(s.eval("\\exec 1000"), Eval::Output(o) if o.contains("batch 1024")));
        assert!(matches!(s.eval("\\exec"), Eval::Output(o) if o.contains("invalid")));
        assert!(matches!(s.eval("\\exec 100 0"), Eval::Output(o) if o.contains("invalid")));
    }

    #[test]
    fn contracts_command_crashes_and_repairs_the_winner() {
        let mut s = Session::new(&Args {
            demo: crate::Demo::Synthetic,
            nodes: 8,
            relations: 3,
            partitions: 2,
            replicas: 3,
            seed: 3,
        });
        let Eval::Output(o) = s.eval(
            "\\contracts SELECT r0.b, r2.c FROM r0, r1, r2 \
             WHERE r0.a = r1.a AND r1.a = r2.a",
        ) else {
            panic!()
        };
        assert!(o.contains("fault-free contracts:"), "{o}");
        assert!(o.contains("[completed]"), "{o}");
        assert!(o.contains("crashing winner"), "{o}");
        assert!(o.contains("repaired plan executes on:"), "{o}");
        assert!(o.contains("(replacement)"), "{o}");
        assert!(matches!(s.eval("\\contracts"), Eval::Output(o) if o.contains("usage")));
        assert!(
            matches!(s.eval("\\contracts nonsense"), Eval::Output(o) if o.contains("parse error"))
        );
    }

    #[test]
    fn topo_shows_tree_digests_and_routing() {
        let mut s = session();
        // Before any statement: tree + digests, but no routing stats.
        let Eval::Output(o) = s.eval("\\topo 2 64") else {
            panic!()
        };
        assert!(o.contains("64 sellers"), "{o}");
        assert!(o.contains("2 broker tier(s)"), "{o}");
        assert!(o.contains("depth 3 hop(s)"), "{o}");
        assert!(o.contains("digest 0x"), "{o}");
        assert!(o.contains("none yet"), "{o}");
        // After a statement, routing stats for it appear.
        s.eval("SELECT custname FROM customer");
        let Eval::Output(o) = s.eval("\\topo 1 16") else {
            panic!()
        };
        assert!(o.contains("1 broker tier(s)"), "{o}");
        assert!(o.contains("last query: digest 0x"), "{o}");
        assert!(o.contains("flat broadcast would message all 16"), "{o}");
        // Validation.
        assert!(matches!(s.eval("\\topo"), Eval::Output(o) if o.contains("invalid")));
        assert!(matches!(s.eval("\\topo 9 16"), Eval::Output(o) if o.contains("invalid")));
        assert!(matches!(s.eval("\\topo 2 nope"), Eval::Output(o) if o.contains("invalid")));
        assert!(matches!(s.eval("\\topo 1 16 down"), Eval::Output(o) if o.contains("invalid")));
        assert!(matches!(s.eval("\\topo 1 16 down x"), Eval::Output(o) if o.contains("invalid")));
    }

    #[test]
    fn topo_marks_down_standby_and_promoted_brokers() {
        let mut s = session();
        // 16 sellers, 1 tier: brokers n17.., standbys after them. Every
        // healthy region shows its standby; the downed one shows promotion.
        let Eval::Output(o) = s.eval("\\topo 1 16 down 17") else {
            panic!()
        };
        assert!(o.contains("standby"), "{o}");
        assert!(o.contains("DOWN, standby"), "{o}");
        assert!(o.contains("promoted"), "{o}");
        // Primary and standby both down: the region detours to sellers.
        let Eval::Output(o) = s.eval("\\topo 1 16 down 17 21") else {
            panic!()
        };
        assert!(o.contains("seller fallback"), "{o}");
        // A non-broker id is called out instead of silently ignored.
        let Eval::Output(o) = s.eval("\\topo 1 16 down 3") else {
            panic!()
        };
        assert!(o.contains("not a broker"), "{o}");
    }

    #[test]
    fn synthetic_demo_works() {
        let mut s = Session::new(&Args {
            demo: crate::Demo::Synthetic,
            nodes: 4,
            relations: 2,
            partitions: 2,
            replicas: 1,
            seed: 3,
        });
        let Eval::Output(o) =
            s.eval("SELECT r0.b, r1.c FROM r0, r1 WHERE r0.a = r1.a AND r0.b < 10")
        else {
            panic!()
        };
        assert!(o.contains("row(s):"), "{o}");
    }
}
