//! Per-partition statistics and the cardinality-estimation primitives built
//! on them.
//!
//! Every node's local optimizer estimates offer properties "taking into
//! account the available network resources and the current workload of
//! sellers" (§3.1); the data-dependent part of that estimate comes from these
//! statistics. Statistics are *private per node*: a node has stats only for
//! partitions it holds.

use crate::value::Value;
use std::borrow::Borrow;

/// An equi-depth histogram over a numeric column: `bounds` has `buckets+1`
/// entries; bucket `i` covers `[bounds[i], bounds[i+1])` (the last bucket is
/// closed) and holds `counts[i]` rows. Boundaries sit on value quantiles, so
/// skewed data gets fine buckets where it is dense.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Bucket boundaries, non-decreasing, `counts.len() + 1` entries.
    pub bounds: Vec<f64>,
    /// Rows per bucket.
    pub counts: Vec<u64>,
}

impl Histogram {
    /// Build an equi-depth histogram from raw numeric values.
    /// Returns `None` for empty input.
    pub fn equi_depth(mut values: Vec<f64>, buckets: usize) -> Option<Histogram> {
        if values.is_empty() || buckets == 0 {
            return None;
        }
        values.sort_by(f64::total_cmp);
        let n = values.len();
        let buckets = buckets.min(n);
        let mut bounds = Vec::with_capacity(buckets + 1);
        let mut counts = Vec::with_capacity(buckets);
        let mut start = 0usize;
        bounds.push(values[0]);
        for b in 1..=buckets {
            let end = (n * b) / buckets;
            if end <= start {
                continue;
            }
            counts.push((end - start) as u64);
            bounds.push(if b == buckets {
                values[n - 1]
            } else {
                values[end]
            });
            start = end;
        }
        Some(Histogram { bounds, counts })
    }

    /// Total rows covered.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of rows with value in `[lo, hi)` (open bounds allowed),
    /// interpolating linearly within partially-covered buckets.
    pub fn range_fraction(&self, lo: Option<f64>, hi: Option<f64>) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let lo = lo.unwrap_or(f64::NEG_INFINITY);
        let hi = hi.unwrap_or(f64::INFINITY);
        if hi <= lo {
            return 0.0;
        }
        let mut hit = 0.0f64;
        for (i, &count) in self.counts.iter().enumerate() {
            let (b_lo, b_hi) = (self.bounds[i], self.bounds[i + 1]);
            let width = (b_hi - b_lo).max(f64::MIN_POSITIVE);
            let overlap_lo = lo.max(b_lo);
            let overlap_hi = hi.min(b_hi);
            if overlap_hi > overlap_lo {
                hit += count as f64 * ((overlap_hi - overlap_lo) / width).min(1.0);
            } else if (b_lo - b_hi).abs() < f64::MIN_POSITIVE && lo <= b_lo && b_lo < hi {
                // Degenerate single-value bucket inside the range.
                hit += count as f64;
            }
        }
        // The last bucket is closed on the right: count its upper boundary.
        if let (Some(&last_hi), Some(&last_count)) = (self.bounds.last(), self.counts.last()) {
            let b_lo = self.bounds[self.bounds.len() - 2];
            if (last_hi - b_lo).abs() < f64::MIN_POSITIVE && lo <= last_hi && last_hi < hi {
                // Already handled by the degenerate case above.
                let _ = last_count;
            }
        }
        (hit / total as f64).clamp(0.0, 1.0)
    }
}

/// Statistics for one column of one partition.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Number of distinct values.
    pub ndv: u64,
    /// Minimum value observed, if the partition is nonempty.
    pub min: Option<Value>,
    /// Maximum value observed, if the partition is nonempty.
    pub max: Option<Value>,
    /// Average width of this column in bytes.
    pub avg_width: u64,
    /// Optional equi-depth histogram (numeric columns computed from real
    /// rows); improves range selectivity on skewed data.
    pub histogram: Option<Histogram>,
}

impl ColumnStats {
    /// Stats for an empty column.
    pub fn empty() -> Self {
        ColumnStats {
            ndv: 0,
            min: None,
            max: None,
            avg_width: 8,
            histogram: None,
        }
    }

    /// Selectivity of `col = v` under the uniform-distribution assumption.
    pub fn eq_selectivity(&self, v: &Value) -> f64 {
        if self.ndv == 0 {
            return 0.0;
        }
        // Out-of-range constants select nothing.
        if let (Some(min), Some(max)) = (&self.min, &self.max) {
            if v < min || v > max {
                return 0.0;
            }
        }
        1.0 / self.ndv as f64
    }

    /// Selectivity of `lo <= col < hi` (open bounds allowed) by linear
    /// interpolation over `[min, max]` for numeric columns; `1/3` fallback
    /// for strings, mirroring System R's magic constants.
    pub fn range_selectivity(&self, lo: Option<&Value>, hi: Option<&Value>) -> f64 {
        let (Some(min), Some(max)) = (&self.min, &self.max) else {
            return 0.0;
        };
        // Prefer the histogram when we have one and the bounds are numeric.
        if let Some(h) = &self.histogram {
            let lo_ok = lo.map(|v| v.as_f64());
            let hi_ok = hi.map(|v| v.as_f64());
            if !matches!(lo_ok, Some(None)) && !matches!(hi_ok, Some(None)) {
                return h.range_fraction(lo_ok.flatten(), hi_ok.flatten());
            }
        }
        let (Some(minf), Some(maxf)) = (min.as_f64(), max.as_f64()) else {
            // Non-numeric column: System R style fallback.
            return match (lo, hi) {
                (None, None) => 1.0,
                (Some(_), Some(_)) => 1.0 / 4.0,
                _ => 1.0 / 3.0,
            };
        };
        let width = (maxf - minf).max(f64::MIN_POSITIVE);
        // Treat the column domain as [min, max + one value-slot) and clip the
        // query interval against it; an interval entirely outside the domain
        // then selects nothing.
        let domain_hi = maxf + width / self.ndv.max(1) as f64;
        let lof = lo.and_then(|v| v.as_f64()).unwrap_or(minf).max(minf);
        let hif = hi
            .and_then(|v| v.as_f64())
            .unwrap_or(domain_hi)
            .min(domain_hi);
        ((hif - lof) / width).clamp(0.0, 1.0)
    }

    /// Merge statistics of the same column across two partitions (used when
    /// estimating unions of partitions).
    pub fn merge(&self, other: &ColumnStats) -> ColumnStats {
        let min = match (&self.min, &other.min) {
            (Some(a), Some(b)) => Some(a.min(b).clone()),
            (a, b) => a.as_ref().or(b.as_ref()).cloned(),
        };
        let max = match (&self.max, &other.max) {
            (Some(a), Some(b)) => Some(a.max(b).clone()),
            (a, b) => a.as_ref().or(b.as_ref()).cloned(),
        };
        ColumnStats {
            // Disjoint-partition assumption: distinct sets are near-disjoint
            // for the partitioning attribute and overlapping for others; the
            // max() lower bound is the standard conservative choice.
            ndv: self.ndv.max(other.ndv).max((self.ndv + other.ndv) / 2),
            min,
            max,
            avg_width: if self.ndv == 0 {
                other.avg_width
            } else if other.ndv == 0 {
                self.avg_width
            } else {
                (self.avg_width + other.avg_width) / 2
            },
            // Merging histograms of disjoint partitions exactly would need
            // re-bucketing; fall back to interpolation (conservative).
            histogram: None,
        }
    }

    /// Compute exact stats from a column of values, borrowed or owned.
    pub fn from_values<V: Borrow<Value>>(values: impl IntoIterator<Item = V>) -> ColumnStats {
        let mut distinct = std::collections::BTreeSet::new();
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        let mut total_width = 0u64;
        let mut n = 0u64;
        let mut numeric: Vec<f64> = Vec::new();
        for v in values {
            let v = v.borrow();
            if let Some(f) = v.as_f64() {
                numeric.push(f);
            }
            distinct.insert(v.clone());
            if min.as_ref().is_none_or(|m| v < m) {
                min = Some(v.clone());
            }
            if max.as_ref().is_none_or(|m| v > m) {
                max = Some(v.clone());
            }
            total_width += v.byte_width();
            n += 1;
        }
        ColumnStats {
            ndv: distinct.len() as u64,
            min,
            max,
            avg_width: total_width
                .checked_div(n)
                .unwrap_or(8)
                .max(if n == 0 { 8 } else { 1 }),
            histogram: Histogram::equi_depth(numeric, 16),
        }
    }
}

/// Statistics for one partition of a relation.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionStats {
    /// Number of rows in the partition.
    pub rows: u64,
    /// Per-column statistics, aligned with the relation schema.
    pub cols: Vec<ColumnStats>,
}

impl PartitionStats {
    /// Stats for an empty partition of arity `arity`.
    pub fn empty(arity: usize) -> Self {
        PartitionStats {
            rows: 0,
            cols: vec![ColumnStats::empty(); arity],
        }
    }

    /// Uniformly synthesized stats: `rows` rows, each column with `ndv`
    /// distinct integer values in `[0, ndv)`. Useful for tests and synthetic
    /// workloads where exact data is not materialized.
    pub fn synthetic(rows: u64, ndvs: &[u64]) -> Self {
        PartitionStats {
            rows,
            cols: ndvs
                .iter()
                .map(|&ndv| ColumnStats {
                    ndv: ndv.min(rows),
                    min: Some(Value::Int(0)),
                    max: Some(Value::Int(ndv.max(1) as i64 - 1)),
                    avg_width: 8,
                    histogram: None,
                })
                .collect(),
        }
    }

    /// Compute exact stats from materialized rows.
    pub fn from_rows(arity: usize, rows: &[Vec<Value>]) -> Self {
        PartitionStats {
            rows: rows.len() as u64,
            cols: (0..arity)
                .map(|c| ColumnStats::from_values(rows.iter().map(|r| &r[c])))
                .collect(),
        }
    }

    /// Average row width in bytes.
    pub fn row_width(&self) -> u64 {
        self.cols.iter().map(|c| c.avg_width).sum::<u64>().max(1)
    }

    /// Total partition size in bytes.
    pub fn bytes(&self) -> u64 {
        self.rows * self.row_width()
    }

    /// Merge with stats of a disjoint partition of the same relation.
    pub fn merge(&self, other: &PartitionStats) -> PartitionStats {
        assert_eq!(self.cols.len(), other.cols.len(), "arity mismatch in merge");
        PartitionStats {
            rows: self.rows + other.rows,
            cols: self
                .cols
                .iter()
                .zip(&other.cols)
                .map(|(a, b)| a.merge(b))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_selectivity_uniform() {
        let c = ColumnStats {
            ndv: 100,
            min: Some(Value::Int(0)),
            max: Some(Value::Int(99)),
            avg_width: 8,
            histogram: None,
        };
        assert!((c.eq_selectivity(&Value::Int(5)) - 0.01).abs() < 1e-12);
        assert_eq!(c.eq_selectivity(&Value::Int(500)), 0.0);
    }

    #[test]
    fn eq_selectivity_empty() {
        assert_eq!(ColumnStats::empty().eq_selectivity(&Value::Int(1)), 0.0);
    }

    #[test]
    fn range_selectivity_interpolates() {
        let c = ColumnStats {
            ndv: 100,
            min: Some(Value::Int(0)),
            max: Some(Value::Int(100)),
            avg_width: 8,
            histogram: None,
        };
        let half = c.range_selectivity(Some(&Value::Int(0)), Some(&Value::Int(50)));
        assert!((half - 0.5).abs() < 1e-9, "{half}");
        let all = c.range_selectivity(None, None);
        assert!(all > 0.99);
        let none = c.range_selectivity(Some(&Value::Int(200)), Some(&Value::Int(300)));
        assert_eq!(none, 0.0);
    }

    #[test]
    fn range_selectivity_string_fallback() {
        let c = ColumnStats {
            ndv: 10,
            min: Some(Value::str("a")),
            max: Some(Value::str("z")),
            avg_width: 1,
            histogram: None,
        };
        assert!((c.range_selectivity(Some(&Value::str("b")), None) - 1.0 / 3.0).abs() < 1e-12);
        assert!(
            (c.range_selectivity(Some(&Value::str("b")), Some(&Value::str("c"))) - 0.25).abs()
                < 1e-12
        );
    }

    #[test]
    fn from_values_exact() {
        let vals = [Value::Int(3), Value::Int(1), Value::Int(3)];
        let c = ColumnStats::from_values(vals.iter());
        assert_eq!(c.ndv, 2);
        assert_eq!(c.min, Some(Value::Int(1)));
        assert_eq!(c.max, Some(Value::Int(3)));
        assert_eq!(c.avg_width, 8);
    }

    #[test]
    fn merge_widens_bounds_and_adds_rows() {
        let a = PartitionStats::synthetic(100, &[50, 10]);
        let mut b = PartitionStats::synthetic(200, &[80, 10]);
        b.cols[0].min = Some(Value::Int(-5));
        let m = a.merge(&b);
        assert_eq!(m.rows, 300);
        assert_eq!(m.cols[0].min, Some(Value::Int(-5)));
        assert!(m.cols[0].ndv >= 80);
    }

    #[test]
    fn from_rows_matches_columns() {
        let rows = vec![
            vec![Value::Int(1), Value::str("ab")],
            vec![Value::Int(2), Value::str("cd")],
        ];
        let s = PartitionStats::from_rows(2, &rows);
        assert_eq!(s.rows, 2);
        assert_eq!(s.cols[0].ndv, 2);
        assert_eq!(s.cols[1].avg_width, 2);
        assert_eq!(s.row_width(), 10);
        assert_eq!(s.bytes(), 20);
    }

    #[test]
    fn synthetic_caps_ndv_at_rows() {
        let s = PartitionStats::synthetic(5, &[100]);
        assert_eq!(s.cols[0].ndv, 5);
    }
}

#[cfg(test)]
mod histogram_tests {
    use super::*;

    #[test]
    fn equi_depth_buckets_balance_counts() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let h = Histogram::equi_depth(values, 4).unwrap();
        assert_eq!(h.counts, vec![25, 25, 25, 25]);
        assert_eq!(h.total(), 100);
        assert_eq!(h.bounds.len(), 5);
    }

    #[test]
    fn empty_and_zero_bucket_inputs() {
        assert!(Histogram::equi_depth(vec![], 4).is_none());
        assert!(Histogram::equi_depth(vec![1.0], 0).is_none());
        let h = Histogram::equi_depth(vec![1.0], 8).unwrap();
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn range_fraction_on_uniform_data() {
        let values: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let h = Histogram::equi_depth(values, 16).unwrap();
        let half = h.range_fraction(Some(0.0), Some(500.0));
        assert!((half - 0.5).abs() < 0.05, "{half}");
        assert_eq!(h.range_fraction(Some(2000.0), Some(3000.0)), 0.0);
        assert_eq!(h.range_fraction(None, None), 1.0);
        assert_eq!(h.range_fraction(Some(5.0), Some(5.0)), 0.0);
    }

    #[test]
    fn histogram_beats_interpolation_on_skew() {
        // 90% of the mass at small values, a long thin tail to 10_000.
        let mut values: Vec<Value> = (0..900).map(|i| Value::Int(i % 100)).collect();
        values.extend((0..100).map(|i| Value::Int(100 + i * 99)));
        let stats = ColumnStats::from_values(values.iter());
        assert!(stats.histogram.is_some());
        // True selectivity of `col < 100` is 0.9.
        let with_hist = stats.range_selectivity(None, Some(&Value::Int(100)));
        assert!(
            (with_hist - 0.9).abs() < 0.1,
            "histogram estimate {with_hist}"
        );
        // Linear interpolation would claim ~100/10000 = 1%.
        let mut no_hist = stats.clone();
        no_hist.histogram = None;
        let plain = no_hist.range_selectivity(None, Some(&Value::Int(100)));
        assert!(plain < 0.05, "interpolation estimate {plain}");
    }

    #[test]
    fn from_rows_attaches_histograms_to_numeric_columns_only() {
        let rows: Vec<Vec<Value>> = (0..50)
            .map(|i| vec![Value::Int(i), Value::str(format!("s{i}"))])
            .collect();
        let s = PartitionStats::from_rows(2, &rows);
        assert!(s.cols[0].histogram.is_some());
        assert!(s.cols[1].histogram.is_none());
    }

    #[test]
    fn merge_drops_histograms_conservatively() {
        let rows: Vec<Vec<Value>> = (0..50).map(|i| vec![Value::Int(i)]).collect();
        let a = PartitionStats::from_rows(1, &rows);
        let m = a.merge(&a);
        assert!(m.cols[0].histogram.is_none());
        assert_eq!(m.rows, 100);
    }
}
