//! Operator cost constants.
//!
//! Every optimizer in the workspace — seller-local DP, IDP, the baselines,
//! and the buyer plan generator — costs physical work with the *same*
//! constants, so plan costs are comparable across algorithms (the quality
//! experiments divide one by the other).

/// Cost constants, all in seconds of reference-node work.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// CPU cost to process one tuple through any operator.
    pub cpu_tuple: f64,
    /// I/O cost to scan one byte from local storage.
    pub io_byte: f64,
    /// CPU cost to insert one tuple into a hash table.
    pub hash_build: f64,
    /// CPU cost to probe a hash table with one tuple.
    pub hash_probe: f64,
    /// CPU cost per tuple per `log2(n)` comparisons when sorting.
    pub sort_tuple_log: f64,
    /// CPU cost to fold one tuple into an aggregation hash table.
    pub agg_tuple: f64,
    /// Fixed per-query startup cost (parsing, plan dispatch).
    pub startup: f64,
}

qt_catalog::impl_wire!(CostParams {
    cpu_tuple,
    io_byte,
    hash_build,
    hash_probe,
    sort_tuple_log,
    agg_tuple,
    startup
});

impl CostParams {
    /// Defaults calibrated so that a 10⁶-row scan ≈ 1 s on the reference
    /// node — the same order as the paper's 30–40 s offers for multi-million
    /// row partitions over WAN links.
    pub fn reference() -> Self {
        CostParams {
            cpu_tuple: 1e-6,
            io_byte: 1e-8,
            hash_build: 2e-6,
            hash_probe: 1e-6,
            sort_tuple_log: 2e-7,
            agg_tuple: 2e-6,
            startup: 0.001,
        }
    }

    /// Scan cost: read `rows` rows of `width` bytes and push them up.
    pub fn scan(&self, rows: f64, width: f64) -> f64 {
        self.startup + rows * width * self.io_byte + rows * self.cpu_tuple
    }

    /// Filter cost: evaluate a predicate on `rows` input rows.
    pub fn filter(&self, rows: f64) -> f64 {
        rows * self.cpu_tuple
    }

    /// Hash-join cost: build on `build_rows`, probe with `probe_rows`,
    /// emit `out_rows`.
    pub fn hash_join(&self, build_rows: f64, probe_rows: f64, out_rows: f64) -> f64 {
        build_rows * self.hash_build + probe_rows * self.hash_probe + out_rows * self.cpu_tuple
    }

    /// Sort-merge join cost over *pre-sorted* inputs (sort enforcers are
    /// charged separately via [`CostParams::sort`]).
    pub fn merge_join(&self, left_rows: f64, right_rows: f64, out_rows: f64) -> f64 {
        (left_rows + right_rows) * self.cpu_tuple + out_rows * self.cpu_tuple
    }

    /// Nested-loop join cost (the non-equi fallback).
    pub fn nl_join(&self, outer_rows: f64, inner_rows: f64, out_rows: f64) -> f64 {
        outer_rows * inner_rows * self.cpu_tuple + out_rows * self.cpu_tuple
    }

    /// Sort cost for `rows` rows.
    pub fn sort(&self, rows: f64) -> f64 {
        if rows <= 1.0 {
            return 0.0;
        }
        rows * rows.log2() * self.sort_tuple_log
    }

    /// Hash aggregation over `rows` input rows producing `groups` output rows.
    pub fn aggregate(&self, rows: f64, groups: f64) -> f64 {
        rows * self.agg_tuple + groups * self.cpu_tuple
    }

    /// Union (concatenation) of inputs totalling `rows` rows.
    pub fn union(&self, rows: f64) -> f64 {
        rows * self.cpu_tuple
    }
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams::reference()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn million_row_scan_is_about_a_second() {
        let p = CostParams::reference();
        let c = p.scan(1e6, 50.0);
        assert!(c > 0.5 && c < 5.0, "{c}");
    }

    #[test]
    fn hash_join_beats_nl_join_on_large_inputs() {
        let p = CostParams::reference();
        assert!(p.hash_join(1e4, 1e4, 1e4) < p.nl_join(1e4, 1e4, 1e4));
    }

    #[test]
    fn sort_is_superlinear() {
        let p = CostParams::reference();
        assert!(p.sort(2e4) > 2.0 * p.sort(1e4));
        assert_eq!(p.sort(1.0), 0.0);
        assert_eq!(p.sort(0.0), 0.0);
    }

    #[test]
    fn costs_monotone_in_rows() {
        let p = CostParams::reference();
        assert!(p.scan(2e3, 10.0) > p.scan(1e3, 10.0));
        assert!(p.aggregate(2e3, 10.0) > p.aggregate(1e3, 10.0));
        assert!(p.filter(2e3) > p.filter(1e3));
        assert!(p.union(2e3) > p.union(1e3));
    }
}
