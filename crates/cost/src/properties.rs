//! Query-answer properties and their valuation.

use std::fmt;
use std::ops::Add;

/// The multi-dimensional properties of a (promised) query answer — the
/// content of an offer in the trading negotiation (§3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerProperties {
    /// Total time to execute the query and transmit the result to the buyer,
    /// in (simulated) seconds.
    pub total_time: f64,
    /// Time until the first result row reaches the buyer, in seconds.
    pub first_row_time: f64,
    /// Average result delivery rate, rows per second.
    pub rows_per_sec: f64,
    /// Estimated number of result rows.
    pub rows: f64,
    /// Estimated result size in bytes.
    pub bytes: f64,
    /// Freshness of the promised data in `[0, 1]` (1 = live data).
    pub freshness: f64,
    /// Completeness of the promised data in `[0, 1]` (1 = all requested
    /// rows; `< 1` for partial extents when the seller says so).
    pub completeness: f64,
    /// Monetary charge in abstract currency units (0 in cooperative
    /// federations).
    pub price: f64,
}

qt_catalog::impl_wire!(AnswerProperties {
    total_time,
    first_row_time,
    rows_per_sec,
    rows,
    bytes,
    freshness,
    completeness,
    price
});

impl AnswerProperties {
    /// Properties of an instantly-available, free, perfect answer of `rows`
    /// rows / `bytes` bytes. Useful as a starting point for builders.
    pub fn instant(rows: f64, bytes: f64) -> Self {
        AnswerProperties {
            total_time: 0.0,
            first_row_time: 0.0,
            rows_per_sec: f64::INFINITY,
            rows,
            bytes,
            freshness: 1.0,
            completeness: 1.0,
            price: 0.0,
        }
    }

    /// Properties with a given total time, deriving the delivery rate.
    pub fn timed(total_time: f64, rows: f64, bytes: f64) -> Self {
        AnswerProperties {
            total_time,
            first_row_time: total_time.min(total_time * 0.1 + 0.001),
            rows_per_sec: if total_time > 0.0 {
                rows / total_time
            } else {
                f64::INFINITY
            },
            rows,
            bytes,
            freshness: 1.0,
            completeness: 1.0,
            price: 0.0,
        }
    }

    /// Add `extra` seconds of (local or transfer) work to the promise.
    pub fn delayed_by(mut self, extra: f64) -> Self {
        self.total_time += extra;
        self.first_row_time += extra;
        if self.total_time > 0.0 {
            self.rows_per_sec = self.rows / self.total_time;
        }
        self
    }

    /// With a monetary charge attached.
    pub fn priced(mut self, price: f64) -> Self {
        self.price = price;
        self
    }
}

/// Parallel composition: two answers produced concurrently (the buyer
/// purchases both; delivery times overlap, sizes add, quality multiplies).
impl Add for AnswerProperties {
    type Output = AnswerProperties;

    fn add(self, other: AnswerProperties) -> AnswerProperties {
        let total_time = self.total_time.max(other.total_time);
        let rows = self.rows + other.rows;
        AnswerProperties {
            total_time,
            first_row_time: self.first_row_time.min(other.first_row_time),
            rows_per_sec: if total_time > 0.0 {
                rows / total_time
            } else {
                f64::INFINITY
            },
            rows,
            bytes: self.bytes + other.bytes,
            freshness: self.freshness.min(other.freshness),
            completeness: self.completeness * other.completeness,
            price: self.price + other.price,
        }
    }
}

impl fmt::Display for AnswerProperties {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3}s ({:.0} rows, {:.0} B, first {:.3}s, fresh {:.2}, complete {:.2}, price {:.2})",
            self.total_time,
            self.rows,
            self.bytes,
            self.first_row_time,
            self.freshness,
            self.completeness,
            self.price
        )
    }
}

/// The administrator-defined weighting aggregation function the buyer uses to
/// rank offers (§3.1): a linear combination of the answer-property
/// dimensions, lower is better.
#[derive(Debug, Clone, PartialEq)]
pub struct Valuation {
    /// Weight of `total_time` (seconds).
    pub w_total_time: f64,
    /// Weight of `first_row_time` (seconds).
    pub w_first_row: f64,
    /// Weight of `price` (currency units).
    pub w_price: f64,
    /// Weight of *staleness* = `1 - freshness`.
    pub w_staleness: f64,
    /// Weight of *incompleteness* = `1 - completeness`.
    pub w_incompleteness: f64,
}

impl Valuation {
    /// The paper's default running valuation: total response time only.
    pub fn response_time() -> Self {
        Valuation {
            w_total_time: 1.0,
            w_first_row: 0.0,
            w_price: 0.0,
            w_staleness: 0.0,
            w_incompleteness: 0.0,
        }
    }

    /// A monetary marketplace valuation: price dominates, time tie-breaks.
    pub fn monetary() -> Self {
        Valuation {
            w_total_time: 0.01,
            w_first_row: 0.0,
            w_price: 1.0,
            w_staleness: 0.0,
            w_incompleteness: 1_000.0,
        }
    }

    /// Score an answer: the lower the better.
    pub fn score(&self, p: &AnswerProperties) -> f64 {
        self.w_total_time * p.total_time
            + self.w_first_row * p.first_row_time
            + self.w_price * p.price
            + self.w_staleness * (1.0 - p.freshness)
            + self.w_incompleteness * (1.0 - p.completeness)
    }
}

impl Default for Valuation {
    fn default() -> Self {
        Valuation::response_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_derives_rate() {
        let p = AnswerProperties::timed(10.0, 100.0, 800.0);
        assert!((p.rows_per_sec - 10.0).abs() < 1e-9);
        assert!(p.first_row_time <= p.total_time);
    }

    #[test]
    fn delayed_by_shifts_times() {
        let p = AnswerProperties::timed(10.0, 100.0, 800.0).delayed_by(5.0);
        assert!((p.total_time - 15.0).abs() < 1e-9);
        assert!((p.rows_per_sec - 100.0 / 15.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_composition_takes_max_time() {
        let a = AnswerProperties::timed(10.0, 100.0, 800.0);
        let b = AnswerProperties::timed(30.0, 50.0, 400.0).priced(2.0);
        let c = a + b;
        assert!((c.total_time - 30.0).abs() < 1e-9);
        assert!((c.rows - 150.0).abs() < 1e-9);
        assert!((c.bytes - 1200.0).abs() < 1e-9);
        assert!((c.price - 2.0).abs() < 1e-9);
    }

    #[test]
    fn completeness_multiplies() {
        let mut a = AnswerProperties::instant(1.0, 1.0);
        a.completeness = 0.5;
        let mut b = AnswerProperties::instant(1.0, 1.0);
        b.completeness = 0.5;
        assert!(((a + b).completeness - 0.25).abs() < 1e-9);
    }

    #[test]
    fn response_time_valuation_ranks_by_time() {
        let v = Valuation::response_time();
        let fast = AnswerProperties::timed(1.0, 10.0, 80.0).priced(100.0);
        let slow = AnswerProperties::timed(2.0, 10.0, 80.0);
        assert!(v.score(&fast) < v.score(&slow));
    }

    #[test]
    fn monetary_valuation_ranks_by_price() {
        let v = Valuation::monetary();
        let cheap_slow = AnswerProperties::timed(100.0, 10.0, 80.0).priced(1.0);
        let pricey_fast = AnswerProperties::timed(1.0, 10.0, 80.0).priced(50.0);
        assert!(v.score(&cheap_slow) < v.score(&pricey_fast));
    }

    #[test]
    fn incompleteness_penalized() {
        let v = Valuation::monetary();
        let mut partial = AnswerProperties::timed(1.0, 10.0, 80.0);
        partial.completeness = 0.5;
        let full = AnswerProperties::timed(1.0, 10.0, 80.0).priced(10.0);
        assert!(v.score(&full) < v.score(&partial));
    }

    #[test]
    fn display_is_compact() {
        let s = AnswerProperties::timed(1.5, 10.0, 80.0).to_string();
        assert!(s.contains("1.500s"));
        assert!(s.contains("10 rows"));
    }
}
