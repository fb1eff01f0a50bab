//! `qtbench` — the repository's one wall-clock benchmark.
//!
//! Seven workloads over the public API of the `qt-*` crates, each stressing
//! a different layer of a traded query's path; eight end-to-end metrics
//! (wall clock and exact counts only — simulator-virtual seconds are never
//! reported); a separate traced mode that attributes time to layers from
//! outside, with spans around public calls, replayed layer probes and
//! differential runs. See `README.md` next to this file for the glossary,
//! the layer → end-to-end map and the list of public functions called.
//!
//! ```text
//! qtbench [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--selftest]
//! ```
//!
//! The last line of standard output of a single-workload run is the JSON
//! object `BENCHMARK.json`'s contract asks for.

mod gen;
mod probes;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Layers, Sample};

// ---------------------------------------------------------------------------
// The benchmark's definition. `BENCHMARK.json` is rendered from these tables
// (`--print-benchmark-json`); a unit test keeps the two in step.
// ---------------------------------------------------------------------------

/// Seconds one run measures for: as long as the driver's time limit for all
/// its runs (4 + 22 per workload, with two builds, in 3420 s) leaves room for.
const RUN_SECONDS: u64 = 15;
const DEFAULT_SEED: u64 = 11;
/// Timed repeats of the stream per run, whatever `--seconds` says.
const MIN_REPEATS: usize = 4;
/// `setup_s` is the median of every set-up of a run: at least `MIN_SETUPS`
/// before the warm-up, then `SETUP_SLICE_SECONDS` worth (at least one) before
/// every repeat, so that they sample the same stretch of time as the other
/// metrics. (Taken in the first half second of the process alone, the
/// median moved 46 % between the quartiles of ten runs.)
const MIN_SETUPS: usize = 3;
const SETUP_SLICE_SECONDS: f64 = 0.1;

const WORKLOADS: [(&str, &str); 7] = [
    (
        "trade_cold",
        "2000 distinct 2-6 relation joins, 16 cold sellers, direct driver: seller rewrite + local DP + costing and buyer plangen do the work; transport does none; offer cache only misses",
    ),
    (
        "serve_warm",
        "6000-arrival burst of a 64-query mix, sim runtime, 16 persistent sellers: session manager, batching, plangen and the event loop dominate; seller DP is bypassed by exact offer-cache hits",
    ),
    (
        "serve_threads",
        "3000-arrival burst, 4 sellers, thread-per-node channels, 32 sessions in flight: same handlers as serve_warm, so the gap to the sim runtime is per-message channel hand-off and frame encoding",
    ),
    (
        "serve_tcp",
        "serve_threads' federation and stream over loopback TCP: adds only wire encode/decode and sockets, so the gap to serve_threads is the codec plus the kernel",
    ),
    (
        "serve_tiered",
        "3000 arrivals, 256 sellers behind a fanout-8 broker tree, sim runtime: broker scoping/aggregation and digest discovery dominate; msgs/query must stay sub-linear",
    ),
    (
        "serve_semcache",
        "20000 Zipf arrivals over 1024 telecom template variants with both caches capped at 64: view-matching probes, compensation, inserts and evictions instead of exact hits",
    ),
    (
        "answer_tpch",
        "SQL text to verified rows on 8 TPC-H nodes with 40000 orders: columnar execution is over 90% of the time, so a trading optimisation must show no change here",
    ),
];

struct Metric {
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    /// Share of the parent's median by which the metric may worsen. Wall
    /// timings carry the widest bound the contract allows: identical runs on
    /// the 2-core reference VM differ by 15 % between the quartiles of ten
    /// (the host drifts between fast and slow phases that outlast a run).
    /// Counts repeat exactly for one seed; between seeds the quartiles of
    /// ten lie under 1 % apart (4.3 % for `plan_cost_ratio` on
    /// `serve_semcache`), and their bounds are over three times that.
    bound: f64,
    /// How a repeat's sample yields the metric; `None` for `setup_s`, which
    /// the runner times itself.
    get: Option<fn(&Sample) -> f64>,
}

const END_TO_END: [Metric; 8] = [
    Metric {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        get: None,
    },
    Metric {
        name: "qps",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        get: Some(|s| s.qps),
    },
    Metric {
        name: "trade_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        get: Some(|s| s.trade_p50_ms),
    },
    Metric {
        name: "trade_p99_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        get: Some(|s| s.trade_p99_ms),
    },
    Metric {
        name: "answer_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
        get: Some(|s| s.answer_p50_ms),
    },
    Metric {
        name: "msgs_per_query",
        unit: "count",
        better: "lower",
        bound: 0.05,
        get: Some(|s| s.msgs_per_query),
    },
    Metric {
        name: "wire_bytes_per_query",
        unit: "bytes",
        better: "lower",
        bound: 0.05,
        get: Some(|s| s.wire_bytes_per_query),
    },
    Metric {
        name: "plan_cost_ratio",
        unit: "ratio",
        better: "lower",
        bound: 0.15,
        get: Some(|s| s.plan_cost_ratio),
    },
];

/// `(name, unit, better)`; names are `<module>.<metric>`. Every traced run
/// prints all of them; a metric whose layer the workload does not exercise
/// reads 0 there (the README's table names each metric's home workload).
const PER_LAYER: [(&str, &str, &str); 71] = [
    ("query.parse.us", "us", "lower"),
    ("query.rewrite.us", "us", "lower"),
    ("query.views.match_us", "us", "lower"),
    ("optimizer.local.partial_results_ms.r4", "ms", "lower"),
    ("optimizer.local.partial_results_ms.r6", "ms", "lower"),
    ("optimizer.local.optimize_ms.r6", "ms", "lower"),
    ("optimizer.effort_per_query", "count", "lower"),
    ("core.seller.respond_ms_per_query", "ms", "lower"),
    ("core.seller.share", "ratio", "lower"),
    ("core.seller.calls_per_query", "count", "lower"),
    ("core.seller.offers_per_query", "count", "lower"),
    ("core.seller.cache_hit_rate", "ratio", "higher"),
    ("core.seller.respond_warm_us", "us", "lower"),
    ("core.seller.new_us", "us", "lower"),
    ("core.buyer.close_round_ms_per_query", "ms", "lower"),
    ("core.buyer.rounds_per_query", "count", "lower"),
    ("core.plangen.generate_us", "us", "lower"),
    ("core.plangen.offers_considered_per_query", "count", "lower"),
    ("core.analyser.next_queries_us", "us", "lower"),
    ("core.analyser.new_queries_per_round", "count", "lower"),
    ("core.session.overhead_us_per_query", "us", "lower"),
    ("net.sim.events_per_s", "1/s", "higher"),
    ("net.sim.events_per_query", "count", "lower"),
    ("net.real.threads_rtt_us", "us", "lower"),
    ("net.real.tcp_rtt_us", "us", "lower"),
    ("net.real.threads_overhead_us_per_msg", "us", "lower"),
    ("net.real.tcp_overhead_us_per_msg", "us", "lower"),
    ("net.real.start_join_ms", "ms", "lower"),
    ("net.real.svc_p99_ms", "ms", "lower"),
    ("net.real.open500_p99_ms", "ms", "lower"),
    ("net.real.open1000_p50_ms", "ms", "lower"),
    ("net.real.open1000_p99_ms", "ms", "lower"),
    ("wire.encode_ns_per_byte", "ns/byte", "lower"),
    ("wire.decode_ns_per_byte", "ns/byte", "lower"),
    ("wire.bytes_per_msg", "bytes", "lower"),
    ("wire.bytes_vs_sim_estimate", "ratio", "lower"),
    ("core.broker.rfb_msgs_per_query", "count", "lower"),
    ("core.broker.agg_offers_msgs_per_query", "count", "lower"),
    ("core.broker.sheds", "count", "lower"),
    ("core.broker.timeouts", "count", "lower"),
    ("core.broker.msgs_vs_flat", "ratio", "lower"),
    ("core.discovery.tree_build_ms", "ms", "lower"),
    ("core.discovery.digest_ns", "ns", "lower"),
    ("core.discovery.prune_us", "us", "lower"),
    ("trade.semcache.hit_rate_exact", "ratio", "higher"),
    ("trade.semcache.hit_rate_semantic", "ratio", "higher"),
    ("trade.semcache.miss_rate", "ratio", "lower"),
    ("trade.semcache.insertions", "count", "lower"),
    ("trade.semcache.evictions", "count", "lower"),
    ("trade.semcache.invalidated", "count", "lower"),
    ("trade.semcache.probe_us.c64", "us", "lower"),
    ("trade.semcache.probe_us.c1024", "us", "lower"),
    ("trade.semcache.insert_us.c64", "us", "lower"),
    ("trade.semcache.insert_us.c1024", "us", "lower"),
    ("core.compensate.us", "us", "lower"),
    ("exec.columnar.rows_per_s.q1", "rows/s", "higher"),
    ("exec.columnar.rows_per_s.q2", "rows/s", "higher"),
    ("exec.columnar.rows_per_s.q3", "rows/s", "higher"),
    ("exec.columnar.op_ms.scan", "ms", "lower"),
    ("exec.columnar.op_ms.filter", "ms", "lower"),
    ("exec.columnar.op_ms.join", "ms", "lower"),
    ("exec.columnar.op_ms.agg", "ms", "lower"),
    ("exec.columnar.op_ms.sort", "ms", "lower"),
    ("exec.columnar.spill_bytes", "bytes", "lower"),
    ("exec.fetch_share", "ratio", "lower"),
    ("exec.share", "ratio", "lower"),
    ("exec.row.rows_per_s", "rows/s", "higher"),
    ("par.trade_cold_speedup", "ratio", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.self_time_coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
];

fn benchmark_json() -> String {
    let mut s = String::from("{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"crates/bench/src/bin/qtbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"crates/bench/src/bin/qtbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(s, "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{sep}");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}"
        );
    }
    s.push_str("  ]\n}\n");
    s
}

// ---------------------------------------------------------------------------
// Running one workload
// ---------------------------------------------------------------------------

/// One reported number: the median over a run's repeats, with the repeats'
/// quartiles when there were enough of them.
struct Reported {
    name: &'static str,
    unit: &'static str,
    value: f64,
    quartiles: Option<[f64; 3]>,
}

struct RunResult {
    attempted: u64,
    failed: u64,
    repeats: usize,
    metrics: Vec<Reported>,
}

impl RunResult {
    /// The contract's result line.
    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    fn print_table(&self, workload: &str) {
        println!(
            "{workload}: {} attempted, {} failed (failed_share {}), {} repeats",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted as f64,
            self.repeats
        );
        for m in &self.metrics {
            let q = m.quartiles.map_or(String::new(), |[q1, _, q3]| {
                format!("  (quartiles {q1:.6} .. {q3:.6})")
            });
            println!("  {:<42} {:>16.6} {}{q}", m.name, m.value, m.unit);
        }
    }
}

fn reported(name: &'static str, unit: &'static str, values: &[f64]) -> Reported {
    Reported {
        name,
        unit,
        value: stats::median(values),
        quartiles: (values.len() >= 2).then(|| stats::quartiles(values)),
    }
}

/// The untraced run: a discarded warm-up, then for `seconds` timed repeats of
/// the same stream with a slice of timed set-ups before each, then the output
/// checks.
fn run_end_to_end(workload: &str, seed: u64, seconds: u64) -> RunResult {
    let mut setups = Vec::new();
    let mut set_up = |at_least: usize| {
        let slice = Instant::now();
        let mut w = None;
        while w.is_none()
            || setups.len() < at_least
            || slice.elapsed().as_secs_f64() < SETUP_SLICE_SECONDS
        {
            let t = Instant::now();
            w = workloads::setup(workload, seed);
            setups.push(t.elapsed().as_secs_f64());
        }
        w.expect("workload name was validated")
    };
    let w = set_up(MIN_SETUPS);
    w.warm_up();
    let mut repeats: Vec<Sample> = Vec::new();
    let start = Instant::now();
    while repeats.len() < MIN_REPEATS || start.elapsed().as_secs() < seconds {
        drop(set_up(0));
        repeats.push(w.repeat());
    }

    let first = &repeats[0];
    let (checked, mismatched) = w.check(first);
    let mut attempted = checked;
    let mut failed = mismatched;
    for r in &repeats {
        attempted += r.attempted;
        // No plan, shed, wrong rows — and any query whose trade differs from
        // the first repeat's: the stream is seeded, so it must not.
        failed += r.failed;
        failed += r
            .sigs
            .iter()
            .zip(&first.sigs)
            .filter(|(a, b)| a != b)
            .count() as u64;
        failed += r.sigs.len().abs_diff(first.sigs.len()) as u64;
    }

    // Latency percentiles of a workload that times every query come from each
    // query's fastest repeat. The host's stalls are one-sided and frequent
    // enough that every repeat's slowest 1 % is mostly stalled queries, and
    // the stream's latencies cluster by join size, so stalls that reorder
    // queries also move the median across a gap: per-repeat percentiles
    // measured the host. The stream is identical in every repeat, so a
    // query's fastest repeat is its own cost.
    let best = (!first.trade_ms.is_empty()).then(|| {
        let mut best = first.trade_ms.clone();
        for r in &repeats[1..] {
            for (b, &ms) in best.iter_mut().zip(&r.trade_ms) {
                *b = b.min(ms);
            }
        }
        stats::sort(&mut best);
        let p50 = stats::percentile(&best, 0.5);
        Sample {
            trade_p50_ms: p50,
            trade_p99_ms: stats::percentile(&best, 0.99),
            answer_p50_ms: p50,
            ..Sample::default()
        }
    });
    let metrics = END_TO_END
        .iter()
        .map(|m| match (m.get, &best) {
            (None, _) => reported(m.name, m.unit, &setups),
            (Some(get), Some(best)) if m.unit == "ms" => reported(m.name, m.unit, &[get(best)]),
            (Some(get), _) => {
                let values: Vec<f64> = repeats.iter().map(get).collect();
                reported(m.name, m.unit, &values)
            }
        })
        .collect();
    RunResult {
        attempted,
        failed,
        repeats: repeats.len(),
        metrics,
    }
}

/// Where traces go: Cargo's target directory, which `.gitignore` covers.
fn out_dir() -> std::path::PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&target).join("qtbench")
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Host and build facts recorded with every result (JSON object).
fn environment(seed: u64) -> String {
    format!(
        "{{\"nproc\": {}, \"rustc\": \"{}\", \"git_commit\": \"{}\", \"seed\": {seed}}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "HEAD"]),
    )
}

/// The traced run: one pass with spans plus the workload's layer probes.
/// Per-layer numbers only — end-to-end metrics always come from the
/// untraced run.
fn run_traced(workload: &str, seed: u64, environment: &str) -> RunResult {
    let w = workloads::setup(workload, seed).expect("workload name was validated");
    let mut layers: Layers = PER_LAYER.iter().map(|(name, _, _)| (*name, 0.0)).collect();
    let mut tr = trace::Tracer::new();
    let pass = w.trace(&mut tr, &mut layers);
    layers.insert(
        "trace.overhead_ratio",
        pass.traced_wall / pass.untraced_wall,
    );
    layers.insert("trace.spans", tr.spans().len() as f64);
    // Self times partition every root span, so their sum over the roots'
    // total is 1 unless a span was left open or double-counted.
    let totals = tr.layer_totals();
    let roots: u64 = tr
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(trace::Span::dur_ns)
        .sum();
    let selfs: u64 = totals.values().map(|l| l.self_ns).sum();
    layers.insert("trace.self_time_coverage", selfs as f64 / roots as f64);

    let dir = out_dir();
    let path = dir.join(format!("trace-{workload}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tr.chrome_json(environment)));
    match written {
        Ok(()) => eprintln!("qtbench: wrote {}", path.display()),
        Err(e) => eprintln!("qtbench: could not write {}: {e}", path.display()),
    }
    eprintln!("qtbench: self time by span name (ms total / ms self / calls)");
    for (name, l) in &totals {
        eprintln!(
            "  {name:<32} {:>12.3} {:>12.3} {:>9}",
            l.total_ms(),
            l.self_ns as f64 / 1e6,
            l.calls
        );
    }

    RunResult {
        attempted: pass.queries,
        failed: 0,
        repeats: 1,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Reported {
                name,
                unit,
                // An empty sum of f64 is -0.0.
                value: layers[name] + 0.0,
                quartiles: None,
            })
            .collect(),
    }
}

fn run_one(args: &Args, workload: &str, environment: &str) -> RunResult {
    let result = if args.traced {
        run_traced(workload, args.seed, environment)
    } else {
        run_end_to_end(workload, args.seed, args.seconds)
    };
    result.print_table(workload);
    println!("{}", result.json());
    result
}

/// Run the suite twice and compare: *first · second · gap · bound* per
/// end-to-end metric × workload. Fails when a gap exceeds the bound
/// `BENCHMARK.json` fixes for the metric.
fn selftest(names: &[&str], seed: u64, seconds: u64) -> bool {
    let mut ok = true;
    let mut table = String::new();
    for name in names {
        let first = run_end_to_end(name, seed, seconds);
        let second = run_end_to_end(name, seed, seconds);
        ok &= first.failed == 0 && second.failed == 0;
        for ((a, b), m) in first.metrics.iter().zip(&second.metrics).zip(&END_TO_END) {
            let gap = (b.value - a.value).abs() / a.value;
            let verdict = if gap <= m.bound { "ok" } else { "EXCEEDED" };
            ok &= gap <= m.bound;
            let _ = writeln!(
                table,
                "{name:<15} {:<22} {:>16.6} {:>16.6} {:>8.4} {:>6.2}  {verdict}",
                m.name, a.value, b.value, gap, m.bound
            );
        }
    }
    println!(
        "{:<15} {:<22} {:>16} {:>16} {:>8} {:>6}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    print!("{table}");
    ok
}

// ---------------------------------------------------------------------------
// Command line
// ---------------------------------------------------------------------------

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    selftest: bool,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        traced: false,
        selftest: false,
        print_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value("a workload name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                a.traced = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            // The output checks always run; the flag is accepted so that
            // command lines written for it keep working.
            "--check" => {}
            "--selftest" => a.selftest = true,
            "--print-benchmark-json" => a.print_benchmark_json = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(w) = &a.workload {
        if !WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!("unknown workload {w}; one of {}", names.join(", ")));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qtbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", benchmark_json());
        return ExitCode::SUCCESS;
    }
    // `qt-par` sizes its worker pool from QT_THREADS: the benchmark sets it
    // itself, and `par.trade_cold_speedup` must see the host's real core
    // count.
    if std::env::var_os("QT_THREADS").is_some() {
        eprintln!("qtbench: QT_THREADS is set; unset it (the benchmark pins its own threading)");
        return ExitCode::from(2);
    }
    // Every run here pins `QtConfig::parallel` off, but the columnar executor
    // sizes its fan-out from `qt-par` directly; one worker keeps an answer on
    // the load-generating thread (two workers on two shared cores answered
    // 15 % slower).
    std::env::set_var("QT_THREADS", "1");
    let environment = environment(args.seed);
    eprintln!("qtbench: {environment}");
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|(n, _)| *n).collect(),
    };
    let ok = if args.selftest {
        selftest(&names, args.seed, args.seconds)
    } else {
        // Every workload runs, whatever an earlier one reported.
        let mut ok = true;
        for name in &names {
            ok &= run_one(&args, name, &environment).failed == 0;
        }
        ok
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_rendered_from_the_tables() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `qtbench --print-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn tables_respect_the_contract_limits() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(ok_name(name) && names.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        }
        for m in &END_TO_END {
            assert!(ok_name(m.name) && ok_unit(m.unit) && names.insert(m.name));
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for (name, unit, better) in PER_LAYER {
            assert!(
                ok_name(name) && ok_unit(unit) && names.insert(name),
                "{name}"
            );
            assert!(better == "lower" || better == "higher");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(benchmark_json().len() < 64 * 1024);
        // 4 + 22 runs per workload, inside the driver's 3420 s with builds.
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            attempted: 10,
            failed: 0,
            repeats: 3,
            metrics: vec![reported("qps", "1/s", &[2.0, 1.0, 4.0])],
        };
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"qps\": {\"value\": 2, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(r.metrics[0].quartiles, Some([1.0, 2.0, 4.0]));
    }
}
