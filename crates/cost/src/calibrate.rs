//! Cost-model calibration from measured executions.
//!
//! The columnar executor records per-operator `(rows_in, rows_out, bytes_in,
//! secs)` timings (`qt_exec::trace::OpTiming`). This module closes the loop:
//! [`CalibrationTable::fit`] turns a batch of those observations into fitted
//! per-tuple/per-byte constants, and [`CalibrationTable::apply`] produces a
//! [`CostParams`] whose formulas predict the measured runtimes — the params
//! sellers then cost their offers with, so trading decisions track the real
//! machine instead of the reference-node guesses.
//!
//! The fit is a deterministic ratio-of-sums per parameter (total measured
//! seconds over total work units), which is the least-squares slope through
//! the origin when every observation of an operator kind is given weight
//! proportional to its work. No randomness anywhere: the same observations
//! always fit the same table.

use crate::params::CostParams;

/// One measured operator execution, as recorded by the columnar executor.
/// Field-for-field mirror of `qt_exec::trace::OpTiming` (`qt-cost` sits
/// below `qt-exec` in the crate graph, so the caller converts).
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Operator kind: `"Scan"`, `"Filter"`, `"Project"`, `"HashJoinBuild"`,
    /// `"HashJoinProbe"`, `"Sort"`, `"HashAggregate"`, `"Union"`, …
    pub op: String,
    /// Rows consumed.
    pub rows_in: u64,
    /// Rows produced.
    pub rows_out: u64,
    /// Bytes of input read.
    pub bytes_in: u64,
    /// Measured wall-clock seconds.
    pub secs: f64,
}

/// Per-parameter fitted rates. `None` = the observation set had no (or no
/// nonzero-work) samples for that parameter; [`CalibrationTable::apply`]
/// then scales the analytic default by the overall fitted/default CPU ratio
/// so the whole table stays mutually consistent.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CalibrationTable {
    /// Seconds per byte handed to a plan from resident column batches: a
    /// `Scan` of a stored partition's image, an `Input` of delivered batches.
    pub io_byte: Option<f64>,
    /// Seconds per tuple through `Filter`.
    pub cpu_tuple: Option<f64>,
    /// Seconds per tuple inserted into a join hash table.
    pub hash_build: Option<f64>,
    /// Seconds per tuple probed (+ emitted) through a join.
    pub hash_probe: Option<f64>,
    /// Seconds per tuple·log2(n) sorted.
    pub sort_tuple_log: Option<f64>,
    /// Seconds per tuple folded into an aggregate.
    pub agg_tuple: Option<f64>,
    /// Observations the fit consumed.
    pub samples: usize,
}

/// Sum `(secs, work)` over observations selected and weighted by `f`, which
/// returns `(work units, seconds already explained by other parameters)`.
/// The explained part is subtracted (clamped at 0) before the ratio.
fn rate(obs: &[Observation], f: impl Fn(&Observation) -> Option<(f64, f64)>) -> Option<f64> {
    let (mut secs, mut work) = (0.0f64, 0.0f64);
    for o in obs {
        if let Some((w, explained)) = f(o) {
            if w > 0.0 && o.secs.is_finite() && o.secs >= 0.0 {
                secs += (o.secs - explained).max(0.0);
                work += w;
            }
        }
    }
    (work > 0.0).then(|| secs / work)
}

impl CalibrationTable {
    /// Fit rates from measured observations. Deterministic: a pure fold over
    /// the observation list, no RNG, no ordering sensitivity (sums commute
    /// up to float rounding; callers pass observations in execution order,
    /// which is itself deterministic for a fixed seed).
    ///
    /// Two-pass: `cpu_tuple` comes from `Filter`, the one operator that does
    /// pure per-tuple work (`Project` and `Union` pass column handles along
    /// and report rows for no measurable time, so averaging them in would
    /// only dilute the rate); compound operators (Scan = IO + CPU,
    /// probe/aggregate = rate + output CPU) then fit their own rate on the
    /// seconds the CPU term does not already explain, mirroring the
    /// [`CostParams`] formulas exactly.
    pub fn fit(obs: &[Observation]) -> CalibrationTable {
        let cpu_tuple = rate(obs, |o| {
            (o.op == "Filter").then_some((o.rows_in as f64, 0.0))
        });
        let cpu = cpu_tuple.unwrap_or(0.0);
        CalibrationTable {
            io_byte: rate(obs, |o| {
                (o.op == "Scan" || o.op == "Input")
                    .then_some((o.bytes_in as f64, o.rows_in as f64 * cpu))
            }),
            cpu_tuple,
            hash_build: rate(obs, |o| {
                (o.op == "HashJoinBuild").then_some((o.rows_in as f64, 0.0))
            }),
            hash_probe: rate(obs, |o| {
                (o.op == "HashJoinProbe").then_some((o.rows_in as f64, o.rows_out as f64 * cpu))
            }),
            sort_tuple_log: rate(obs, |o| {
                (o.op == "Sort" && o.rows_in > 1)
                    .then(|| (o.rows_in as f64 * (o.rows_in as f64).log2(), 0.0))
            }),
            agg_tuple: rate(obs, |o| {
                (o.op == "HashAggregate").then_some((o.rows_in as f64, o.rows_out as f64 * cpu))
            }),
            samples: obs.len(),
        }
    }

    /// Produce calibrated [`CostParams`]: fitted rates where observed,
    /// CPU-ratio-scaled defaults elsewhere, so un-observed operators stay
    /// plausible relative to observed ones.
    pub fn apply(&self, base: &CostParams) -> CostParams {
        let cpu_scale = match self.cpu_tuple {
            Some(c) if base.cpu_tuple > 0.0 => c / base.cpu_tuple,
            _ => 1.0,
        };
        let pick = |fitted: Option<f64>, fallback: f64| fitted.unwrap_or(fallback * cpu_scale);
        CostParams {
            cpu_tuple: pick(self.cpu_tuple, base.cpu_tuple),
            io_byte: pick(self.io_byte, base.io_byte),
            hash_build: pick(self.hash_build, base.hash_build),
            hash_probe: pick(self.hash_probe, base.hash_probe),
            sort_tuple_log: pick(self.sort_tuple_log, base.sort_tuple_log),
            agg_tuple: pick(self.agg_tuple, base.agg_tuple),
            startup: base.startup * cpu_scale,
        }
    }
}

/// Predicted seconds for one observation under `params`, using the same
/// formulas the optimizers cost plans with.
pub fn predict(params: &CostParams, o: &Observation) -> f64 {
    let rows_in = o.rows_in as f64;
    let rows_out = o.rows_out as f64;
    match o.op.as_str() {
        "Scan" | "Input" => o.bytes_in as f64 * params.io_byte + rows_in * params.cpu_tuple,
        "Filter" | "Project" | "Union" => params.filter(rows_in),
        "HashJoinBuild" => rows_in * params.hash_build,
        "HashJoinProbe" => rows_in * params.hash_probe + rows_out * params.cpu_tuple,
        "MergeJoin" => params.merge_join(rows_in, 0.0, rows_out),
        "NlJoin" => rows_in * rows_in * params.cpu_tuple + rows_out * params.cpu_tuple,
        "Sort" => params.sort(rows_in),
        "HashAggregate" => params.aggregate(rows_in, rows_out),
        _ => rows_in * params.cpu_tuple,
    }
}

/// Scale-free relative error of `params` against measured observations:
/// `sqrt(Σ(k·est − meas)² / Σmeas²)` with `k` the least-squares gain fitted
/// over the whole set. The gain forgives a uniform machine-speed offset —
/// what remains is *shape* error, which is what makes an optimizer pick the
/// wrong plan. Returns 0 when there is nothing to compare.
pub fn cost_error(params: &CostParams, obs: &[Observation]) -> f64 {
    let mut est_meas = 0.0f64;
    let mut est_sq = 0.0f64;
    let mut meas_sq = 0.0f64;
    let pairs: Vec<(f64, f64)> = obs
        .iter()
        .filter(|o| o.secs.is_finite() && o.secs >= 0.0)
        .map(|o| (predict(params, o), o.secs))
        .collect();
    for &(e, m) in &pairs {
        est_meas += e * m;
        est_sq += e * e;
        meas_sq += m * m;
    }
    if meas_sq == 0.0 || est_sq == 0.0 {
        return 0.0;
    }
    let k = est_meas / est_sq;
    let mut resid = 0.0f64;
    for &(e, m) in &pairs {
        let d = k * e - m;
        resid += d * d;
    }
    (resid / meas_sq).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(op: &str, rows_in: u64, rows_out: u64, bytes_in: u64, secs: f64) -> Observation {
        Observation {
            op: op.into(),
            rows_in,
            rows_out,
            bytes_in,
            secs,
        }
    }

    /// A synthetic "machine" whose true rates differ from the reference
    /// params; measurements follow its rates exactly.
    fn machine_obs() -> Vec<Observation> {
        let (cpu, io, build, probe, agg) = (5e-7, 4e-8, 3e-6, 8e-7, 1e-6);
        vec![
            obs(
                "Scan",
                10_000,
                10_000,
                240_000,
                240_000.0 * io + 10_000.0 * cpu,
            ),
            obs("Filter", 10_000, 4_000, 240_000, 10_000.0 * cpu),
            obs("Project", 4_000, 4_000, 96_000, 4_000.0 * cpu),
            obs("HashJoinBuild", 4_000, 4_000, 96_000, 4_000.0 * build),
            obs(
                "HashJoinProbe",
                10_000,
                6_000,
                240_000,
                10_000.0 * probe + 6_000.0 * cpu,
            ),
            obs(
                "HashAggregate",
                6_000,
                50,
                150_000,
                6_000.0 * agg + 50.0 * cpu,
            ),
        ]
    }

    #[test]
    fn fit_recovers_true_rates_and_reduces_error() {
        let observations = machine_obs();
        let table = CalibrationTable::fit(&observations);
        assert_eq!(table.samples, 6);
        assert!((table.io_byte.unwrap() - 4e-8).abs() / 4e-8 < 1e-9);
        assert!((table.hash_build.unwrap() - 3e-6).abs() / 3e-6 < 1e-9);
        assert!((table.agg_tuple.unwrap() - 1e-6).abs() / 1e-6 < 1e-9);

        let base = CostParams::reference();
        let calibrated = table.apply(&base);
        let before = cost_error(&base, &observations);
        let after = cost_error(&calibrated, &observations);
        assert!(
            after <= before,
            "calibration should not increase error: {before} -> {after}"
        );
        assert!(after < 0.05, "calibrated error should be small: {after}");
    }

    #[test]
    fn fit_is_deterministic() {
        let observations = machine_obs();
        assert_eq!(
            CalibrationTable::fit(&observations),
            CalibrationTable::fit(&observations)
        );
        let a = CalibrationTable::fit(&observations).apply(&CostParams::reference());
        let b = CalibrationTable::fit(&observations).apply(&CostParams::reference());
        assert_eq!(a, b);
    }

    #[test]
    fn missing_operators_scale_with_cpu_ratio() {
        // Only Filter observed, at 3x the reference cpu_tuple.
        let observations = vec![obs("Filter", 1_000, 500, 0, 1_000.0 * 3e-6)];
        let table = CalibrationTable::fit(&observations);
        let base = CostParams::reference();
        let calibrated = table.apply(&base);
        assert!((calibrated.cpu_tuple - 3e-6).abs() < 1e-12);
        // Unobserved params keep their ratio to cpu_tuple.
        assert!(
            (calibrated.hash_build / calibrated.cpu_tuple - base.hash_build / base.cpu_tuple).abs()
                < 1e-9
        );
        assert!((calibrated.startup - base.startup * 3.0).abs() < 1e-12);
    }

    #[test]
    fn handle_passing_operators_do_not_dilute_cpu_tuple() {
        let mut observations = machine_obs();
        let fitted = CalibrationTable::fit(&observations).cpu_tuple;
        // A columnar `Project`/`Union` moves no data: many rows, no time.
        observations.push(obs("Project", 1_000_000, 1_000_000, 0, 0.0));
        observations.push(obs("Union", 1_000_000, 1_000_000, 0, 0.0));
        assert_eq!(CalibrationTable::fit(&observations).cpu_tuple, fitted);
        assert!((fitted.unwrap() - 5e-7).abs() / 5e-7 < 1e-9);
    }

    #[test]
    fn degenerate_inputs_do_not_panic() {
        let table = CalibrationTable::fit(&[]);
        assert_eq!(table.cpu_tuple, None);
        let params = table.apply(&CostParams::reference());
        assert_eq!(params, CostParams::reference());
        assert_eq!(cost_error(&params, &[]), 0.0);
        // Zero-work and non-finite observations are ignored.
        let junk = vec![
            obs("Filter", 0, 0, 0, 1.0),
            obs("Filter", 10, 10, 0, f64::NAN),
        ];
        assert_eq!(CalibrationTable::fit(&junk).cpu_tuple, None);
    }
}
