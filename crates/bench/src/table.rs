//! Aligned text tables + CSV output, and the gates an experiment states
//! about its own numbers.

use std::fmt::Write as _;
use std::path::Path;

/// A result table: headers, string rows, and the invariants the experiment
/// that filled it found violated.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. `"E3"`.
    pub id: String,
    /// One-line description.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// One message per failed [`Table::gate`]; `repro` exits non-zero when
    /// any table it ran has one.
    pub violations: Vec<String>,
}

impl Table {
    /// New empty table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Table {
        Table {
            id: id.into(),
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// Append a row (must match header arity).
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// State an invariant over the values the experiment holds: when `ok`
    /// is false, `msg()` is recorded as a violation (and only then
    /// evaluated).
    pub fn gate(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(msg());
        }
    }

    /// Render as an aligned text table, violations listed underneath.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {}: {} ==", self.id, self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:>w$}  ", c, w = widths[i]);
            }
            s.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        for v in &self.violations {
            let _ = writeln!(out, "GATE VIOLATED ({}): {v}", self.id);
        }
        out
    }

    /// Write as CSV to `dir/<id>.csv`.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        let esc = |c: &String| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        };
        let mut s = String::new();
        for cells in std::iter::once(&self.headers).chain(&self.rows) {
            let _ = writeln!(s, "{}", cells.iter().map(esc).collect::<Vec<_>>().join(","));
        }
        std::fs::write(&path, s)?;
        Ok(path)
    }
}

/// Compact float formatting for table cells.
pub fn f(x: f64) -> String {
    if x.is_nan() {
        "NaN".into()
    } else if x.is_infinite() {
        if x > 0.0 { "inf" } else { "-inf" }.into()
    } else if x == 0.0 {
        "0".into()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("E0", "demo", &["n", "value"]);
        t.push(vec!["2".into(), "10.00".into()]);
        t.push(vec!["16".into(), "3.14".into()]);
        let r = t.render();
        assert!(r.contains("E0: demo"));
        assert!(r.contains(" n"));
        assert!(r.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = Table::new("E0", "demo", &["a", "b"]);
        t.push(vec!["1".into()]);
    }

    #[test]
    fn csv_escapes() {
        let dir = std::env::temp_dir().join("qt-bench-test");
        let mut t = Table::new("EX", "x", &["a,b", "c"]);
        t.push(vec!["v\"1".into(), "2".into()]);
        let p = t.write_csv(&dir).unwrap();
        let s = std::fs::read_to_string(p).unwrap();
        assert!(s.contains("\"a,b\""));
        assert!(s.contains("\"v\"\"1\""));
    }

    #[test]
    fn float_formats() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(5.678), "5.68");
        assert_eq!(f(0.001234), "0.0012");
        assert_eq!(f(12345.6), "12346");
        assert_eq!(f(f64::INFINITY), "inf");
        assert_eq!(f(f64::NEG_INFINITY), "-inf");
        assert_eq!(f(f64::NAN), "NaN");
    }

    #[test]
    fn violated_gate_is_recorded_and_rendered() {
        let mut t = Table::new("E0", "demo", &["n"]);
        t.push(vec!["1".into()]);
        let clean = t.render();
        t.gate(true, || unreachable!("message of a gate that holds"));
        assert!(t.violations.is_empty());
        assert_eq!(t.render(), clean);
        // A 0/0 hit ratio: NaN fails every comparison, and says so.
        let (hits, lookups) = (0.0_f64, 0.0_f64);
        let ratio = hits / lookups;
        t.gate(ratio <= 1.0, || format!("ratio {} above 1", f(ratio)));
        assert_eq!(t.violations, ["ratio NaN above 1"]);
        assert!(t.render().starts_with(&clean));
        assert!(t.render().contains("GATE VIOLATED (E0): ratio NaN above 1"));
    }
}
