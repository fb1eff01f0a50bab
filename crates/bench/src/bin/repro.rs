//! Regenerate the evaluation tables/figures — and check them.
//!
//! ```text
//! cargo run -p qt-bench --bin repro --release -- all
//! cargo run -p qt-bench --bin repro --release -- e3 e4
//! cargo run -p qt-bench --bin repro --release -- e21 --transport threads
//! ```
//!
//! Each experiment prints its table and writes `results/<id>.csv`. An
//! experiment states its invariants as gates over the values it measured
//! (`Table::gate`); the exit status is non-zero when any gate of any table
//! run was violated or a CSV could not be written, so running an experiment
//! *is* checking it.
//! `--transport {sim,threads,tcp}` restricts the transport-comparison
//! experiments (E21) to one runtime; the default measures all of them.

use qt_bench::experiments::{self, Experiment};
use std::path::Path;
use std::process::ExitCode;

/// Run `selected` (already validated against `registry`) in order; true
/// when every CSV was written and no gate was violated.
fn run(registry: &[Experiment], selected: &[String], results: &Path) -> bool {
    let mut ok = true;
    for sel in selected {
        let (id, run) = registry
            .iter()
            .find(|(id, _)| id == sel)
            .expect("ids are validated before anything runs");
        eprintln!("running {id}...");
        let started = std::time::Instant::now();
        let table = run();
        println!("{}", table.render());
        if !table.violations.is_empty() {
            eprintln!("{id}: {} gate(s) violated", table.violations.len());
            ok = false;
        }
        match table.write_csv(results) {
            Ok(path) => eprintln!(
                "{id} done in {:.1}s → {}",
                started.elapsed().as_secs_f64(),
                path.display()
            ),
            Err(e) => {
                eprintln!("{id}: failed to write CSV: {e}");
                ok = false;
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--transport") {
        let value = args.get(i + 1).cloned();
        match value.as_deref() {
            Some(v @ ("sim" | "threads" | "tcp")) => {
                // The experiments read this env var; a flag keeps the
                // registry signature uniform (every experiment is `fn() ->
                // Table`).
                std::env::set_var("QT_BENCH_TRANSPORT", v);
                args.drain(i..=i + 1);
            }
            _ => {
                eprintln!("--transport needs one of: sim, threads, tcp");
                return ExitCode::from(2);
            }
        }
    }
    let registry = experiments::all();
    let selected: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        registry.iter().map(|(id, _)| id.to_string()).collect()
    } else {
        args.iter().map(|a| a.to_ascii_lowercase()).collect()
    };
    // Reject a typo before the known ids overwrite their CSVs.
    let unknown: Vec<&str> = selected
        .iter()
        .map(String::as_str)
        .filter(|sel| registry.iter().all(|(id, _)| id != sel))
        .collect();
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment(s): {} (available: {})",
            unknown.join(", "),
            registry
                .iter()
                .map(|(id, _)| *id)
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::from(2);
    }
    if run(&registry, &selected, Path::new("results")) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qt_bench::Table;

    fn holds() -> Table {
        let mut t = Table::new("T1", "gate holds", &["n"]);
        t.gate(true, || unreachable!());
        t
    }

    fn violated() -> Table {
        let mut t = Table::new("T2", "gate violated", &["n"]);
        t.gate(false, || "forced".into());
        t
    }

    #[test]
    fn a_violated_gate_or_an_unwritable_csv_fails_the_run() {
        let registry: Vec<Experiment> = vec![("t1", holds), ("t2", violated)];
        let dir = std::env::temp_dir().join(format!("qt-repro-test-{}", std::process::id()));
        assert!(run(&registry, &["t1".into()], &dir));
        assert!(!run(&registry, &["t1".into(), "t2".into()], &dir));
        // The violated table is still written: the CSV is the evidence.
        assert!(dir.join("T2.csv").exists());
        // A results path that cannot be a directory: the write fails, and
        // so does the run, even with every gate holding.
        let blocked = dir.join("T1.csv");
        assert!(!run(&registry, &["t1".into()], &blocked));
        std::fs::remove_dir_all(&dir).expect("scratch dir");
    }
}
